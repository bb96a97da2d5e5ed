/**
 * @file
 * Tests for the host-side thread pool and the parallel benchmark sweep
 * driver: the parallel path must produce results identical to the
 * serial path for every cell, at any thread count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench/bench_util.hh"
#include "common/parallel.hh"
#include "tests/test_util.hh"

namespace thynvm {
namespace {

using bench::GridCell;
using bench::runGrid;

TEST(ThreadPoolTest, RunsAllSubmittedJobs)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.size(), 4u);
        for (int i = 0; i < 100; ++i)
            pool.submit([&count] { ++count; });
    } // destructor drains and joins
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
}

TEST(ParallelForTest, CoversEveryIndexOnceAnyThreadCount)
{
    for (unsigned threads : {1u, 2u, 7u}) {
        std::vector<std::atomic<int>> hits(23);
        parallelFor(
            hits.size(), [&hits](std::size_t i) { ++hits[i]; }, threads);
        for (auto& h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ParallelForTest, PropagatesFirstException)
{
    EXPECT_THROW(
        parallelFor(
            8,
            [](std::size_t i) {
                if (i == 3)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelForTest, SharedPoolOverloadCoversEveryIndex)
{
    ThreadPool pool(3);
    std::vector<std::atomic<int>> hits(17);
    // Reuse one pool across rounds.
    for (int round = 0; round < 4; ++round)
        parallelForOn(pool, hits.size(),
                      [&hits](std::size_t i) { ++hits[i]; });
    for (auto& h : hits)
        EXPECT_EQ(h.load(), 4);
}

TEST(CountdownLatchTest, WaitReturnsAfterAllArrivals)
{
    ThreadPool pool(4);
    CountdownLatch latch(10);
    std::atomic<int> done{0};
    for (int i = 0; i < 10; ++i) {
        pool.submit([&] {
            ++done;
            latch.arrive();
        });
    }
    latch.wait();
    EXPECT_EQ(done.load(), 10);
}

TEST(CountdownLatchTest, ZeroCountWaitReturnsImmediately)
{
    CountdownLatch latch(0);
    latch.wait();
    SUCCEED();
}

TEST(ParallelForTest, SerialPathRunsInIndexOrderOnTheCaller)
{
    // threads <= 1, or a single index, runs inline: same thread, index
    // order, no pool.
    for (auto [n, threads] : {std::pair<std::size_t, unsigned>{9, 0},
                              {9, 1}, {1, 8}}) {
        std::vector<std::size_t> order;
        bool off_thread = false;
        const auto caller = std::this_thread::get_id();
        parallelFor(
            n,
            [&](std::size_t i) {
                order.push_back(i);
                off_thread |= std::this_thread::get_id() != caller;
            },
            threads);
        std::vector<std::size_t> want(n);
        for (std::size_t i = 0; i < n; ++i)
            want[i] = i;
        EXPECT_EQ(order, want) << "n=" << n << " threads=" << threads;
        EXPECT_FALSE(off_thread) << "n=" << n << " threads=" << threads;
    }
}

TEST(EnvKnobsTest, SimThreadsFromEnvAcceptsOnlyPositiveCounts)
{
    {
        test::EnvGuard env("THYNVM_SIM_THREADS", nullptr);
        EXPECT_EQ(simThreadsFromEnv(), 0u);
    }
    for (auto [value, want] : {std::pair<const char*, unsigned>{"4", 4},
                               {"1", 1}, {"0", 0}, {"-2", 0},
                               {"many", 0}, {"", 0},
                               {"4294967295", 4294967295u},
                               {"4294967298", 0}, {"2abc", 0},
                               {"3 ", 0}, {"+3", 0}}) {
        test::EnvGuard env("THYNVM_SIM_THREADS", value);
        EXPECT_EQ(simThreadsFromEnv(), want) << "'" << value << "'";
    }
}

TEST(EnvKnobsTest, ChannelsFromEnvAcceptsOnlyPositiveCounts)
{
    {
        test::EnvGuard env("THYNVM_CHANNELS", nullptr);
        EXPECT_EQ(channelsFromEnv(), 0u);
    }
    for (auto [value, want] : {std::pair<const char*, unsigned>{"2", 2},
                               {"4", 4}, {"0", 0}, {"-4", 0},
                               {"two", 0}, {"", 0},
                               {"4294967298", 0}, {"2abc", 0},
                               {"99999999999999999999", 0}}) {
        test::EnvGuard env("THYNVM_CHANNELS", value);
        EXPECT_EQ(channelsFromEnv(), want) << "'" << value << "'";
    }
}

// ---------------------------------------------------------------------
// Serial/parallel equivalence of full simulation runs.
// ---------------------------------------------------------------------

/** Small-but-real configuration so a grid finishes in milliseconds. */
SystemConfig
smallSystem(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.phys_size = 4u << 20;
    cfg.epoch_length = 1 * kMillisecond;
    cfg.thynvm.btt_entries = 256;
    cfg.thynvm.ptt_entries = 512;
    return cfg;
}

RunMetrics
runSmallMicro(SystemKind kind, MicroWorkload::Pattern pattern)
{
    MicroWorkload::Params mp;
    mp.pattern = pattern;
    mp.base = 0;
    mp.array_bytes = 2u << 20;
    mp.access_size = 64;
    mp.read_fraction = 0.5;
    mp.total_accesses = 4000;
    mp.seed = 1;
    MicroWorkload wl(mp);
    System sys(smallSystem(kind), wl);
    sys.start();
    sys.run(10 * kSecond);
    EXPECT_TRUE(sys.finished());
    return sys.metrics();
}

void
expectSameMetrics(const RunMetrics& a, const RunMetrics& b)
{
    EXPECT_EQ(a.exec_time, b.exec_time);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.nvm_wr_cpu, b.nvm_wr_cpu);
    EXPECT_EQ(a.nvm_wr_ckpt, b.nvm_wr_ckpt);
    EXPECT_EQ(a.nvm_wr_migration, b.nvm_wr_migration);
    EXPECT_EQ(a.nvm_wr_total, b.nvm_wr_total);
    EXPECT_EQ(a.dram_wr_total, b.dram_wr_total);
    EXPECT_EQ(a.ckpt_time_frac, b.ckpt_time_frac);
    EXPECT_EQ(a.epochs, b.epochs);
}

std::vector<GridCell<RunMetrics>>
smallGrid()
{
    const std::vector<SystemKind> kinds = {
        SystemKind::Journal, SystemKind::Shadow, SystemKind::ThyNvm};
    const std::vector<MicroWorkload::Pattern> patterns = {
        MicroWorkload::Pattern::Random,
        MicroWorkload::Pattern::Streaming,
    };
    std::vector<GridCell<RunMetrics>> cells;
    for (auto kind : kinds) {
        for (auto pattern : patterns) {
            cells.push_back(GridCell<RunMetrics>{
                "cell",
                [kind, pattern] { return runSmallMicro(kind, pattern); }});
        }
    }
    return cells;
}

TEST(RunGridTest, ParallelResultsIdenticalToSerial)
{
    // Each cell owns a private System and EventQueue, so fanning cells
    // across threads must not change any RunMetrics field. threads=1
    // exercises the inline path; 2 and 8 exercise real pools (8 >
    // cell count forces idle workers too).
    const auto serial = runGrid("serial reference", smallGrid(), 1);
    for (unsigned threads : {2u, 8u}) {
        const auto parallel =
            runGrid("parallel run", smallGrid(), threads);
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expectSameMetrics(serial[i], parallel[i]);
    }
}

TEST(RunGridTest, TwoIdenticalRunsAreDeterministic)
{
    // The simulator must be bit-deterministic: two identical runs in
    // the same process produce identical metrics (no hidden global
    // state, no address-dependent ordering).
    const auto a = runSmallMicro(SystemKind::ThyNvm,
                                 MicroWorkload::Pattern::Random);
    const auto b = runSmallMicro(SystemKind::ThyNvm,
                                 MicroWorkload::Pattern::Random);
    expectSameMetrics(a, b);
}

TEST(RunGridTest, RethrowsCellFailureAfterAllCellsFinish)
{
    std::vector<GridCell<int>> cells;
    std::atomic<int> ran{0};
    for (int i = 0; i < 6; ++i) {
        cells.push_back(GridCell<int>{
            "cell", [i, &ran] {
                ++ran;
                if (i == 2)
                    throw std::runtime_error("cell failed");
                return i;
            }});
    }
    EXPECT_THROW(runGrid("failing grid", cells, 3), std::runtime_error);
    EXPECT_EQ(ran.load(), 6);
}

} // namespace
} // namespace thynvm
