/**
 * @file
 * Channel-topology equivalence tests.
 *
 * Two contracts are pinned here:
 *
 *  1. dumpStats() of representative micro / KV / SPEC runs across all
 *     seven SystemKinds matches committed goldens at 1, 2 and 4
 *     channels (tests/goldens/channel_*.txt; regenerate only
 *     deliberately with THYNVM_UPDATE_GOLDENS=1). The single-channel
 *     files predate the multi-channel topology, so `channels = 1` is
 *     bit-for-bit the seed machine.
 *
 *  2. Slicing a multi-channel run into many run(d) calls executes
 *     exactly the events of one call, and the ignored sim_threads knob
 *     changes nothing: dumpStats() and the final tick are
 *     byte-identical.
 */

#include "tests/test_util.hh"

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/system.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

#ifndef THYNVM_GOLDEN_DIR
#define THYNVM_GOLDEN_DIR "tests/goldens"
#endif

namespace thynvm {
namespace {

/** Workload families pinned against goldens (one per bench family). */
enum class Family
{
    MicroRandom,
    KvHash,
    SpecGcc,
};

const char*
familyToken(Family f)
{
    switch (f) {
      case Family::MicroRandom: return "micro";
      case Family::KvHash: return "kv";
      case Family::SpecGcc: return "spec";
    }
    return "?";
}

/** The kind's token without its '-' ("ideal-dram" -> "idealdram"). */
std::string
kindToken(SystemKind kind)
{
    std::string tok = systemToken(kind);
    std::erase(tok, '-');
    return tok;
}

std::vector<SystemKind>
allKinds()
{
    return {std::begin(kAllSystemKinds), std::end(kAllSystemKinds)};
}

/** Small-but-real configuration so one run finishes in milliseconds. */
SystemConfig
smallConfig(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
    // Pinned explicitly: the golden comparison must not be redirected
    // by a THYNVM_CHANNELS value in the environment (CI routes whole
    // test labels through multi-channel that way).
    cfg.channels = 1;
    cfg.phys_size = 4u << 20;
    cfg.epoch_length = 1 * kMillisecond;
    cfg.thynvm.btt_entries = 256;
    cfg.thynvm.ptt_entries = 512;
    return cfg;
}

std::unique_ptr<Workload>
makeWorkload(Family f)
{
    switch (f) {
      case Family::MicroRandom: {
          MicroWorkload::Params mp;
          mp.pattern = MicroWorkload::Pattern::Random;
          mp.base = 0;
          mp.array_bytes = 2u << 20;
          mp.access_size = 64;
          mp.read_fraction = 0.5;
          mp.total_accesses = 4000;
          mp.seed = 1;
          return std::make_unique<MicroWorkload>(mp);
      }
      case Family::KvHash: {
          KvWorkload::Params kp;
          kp.structure = KvWorkload::Structure::HashTable;
          kp.phys_size = 4u << 20;
          kp.value_size = 64;
          kp.initial_keys = 128;
          kp.key_space = 512;
          kp.hash_buckets = 512;
          kp.total_txns = 300;
          kp.compute_per_txn = 50;
          kp.seed = 7;
          return std::make_unique<KvWorkload>(kp);
      }
      case Family::SpecGcc: {
          SpecProfile prof = specProfile("gcc");
          prof.wss = 2u << 20; // shrink the footprint to the test system
          return std::make_unique<SpecWorkload>(prof, 0, 60000, 3);
      }
    }
    fatal("unreachable workload family");
}

struct RunResult
{
    std::string stats;
    Tick final_tick = 0;
    bool finished = false;
};

RunResult
runOne(Family f, const SystemConfig& cfg)
{
    auto wl = makeWorkload(f);
    System sys(cfg, *wl);
    sys.start();
    RunResult r;
    r.final_tick = sys.run(20 * kSecond);
    r.finished = sys.finished();
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    return r;
}

/** @p variant names a non-default configuration ("_stw"). */
std::string
goldenPath(Family f, SystemKind kind, unsigned channels,
           const std::string& variant = "")
{
    std::string path = std::string(THYNVM_GOLDEN_DIR) + "/channel_" +
                       familyToken(f) + "_" + kindToken(kind) + variant;
    if (channels > 1)
        path += "_ch" + std::to_string(channels);
    return path + ".txt";
}

/**
 * Compare a finished run's final tick and dumpStats() with the golden
 * at @p path, or rewrite it under THYNVM_UPDATE_GOLDENS.
 */
void
expectMatchesGolden(const RunResult& r, const std::string& path)
{
    ASSERT_TRUE(r.finished) << path;
    std::ostringstream got;
    got << "final_tick=" << r.final_tick << "\n" << r.stats;
    if (std::getenv("THYNVM_UPDATE_GOLDENS") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << got.str();
        return;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << path
                           << " (generate with THYNVM_UPDATE_GOLDENS=1)";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got.str(), want.str()) << "diverged from " << path;
}

/**
 * Every topology's output is pinned byte for byte: channels=1 must
 * remain the seed topology (goldens generated before multi-channel
 * support), and the 2- and 4-channel goldens pin the cross-channel
 * commit protocol's stats and final tick.
 */
TEST(ChannelEquivalence, SingleChannelMatchesPreChangeGoldens)
{
    for (unsigned channels : {1u, 2u, 4u}) {
        for (SystemKind kind : allKinds()) {
            for (Family f :
                 {Family::MicroRandom, Family::KvHash, Family::SpecGcc}) {
                SystemConfig cfg = smallConfig(kind);
                cfg.channels = channels;
                // Short epochs so multi-channel runs cross several
                // coordinated boundaries.
                if (channels > 1)
                    cfg.epoch_length = 100 * kMicrosecond;
                expectMatchesGolden(runOne(f, cfg),
                                    goldenPath(f, kind, channels));
            }
        }
    }
}

/**
 * ThyNVM's stop-the-world mode (Figure 3a: the CPU waits for the
 * commit, not only for the flush) is pinned where its output differs
 * from the overlapped goldens: spec at 1, 2 and 4 channels and micro
 * at 2 and 4. Micro at 1 channel and kv at every channel count come
 * out byte-identical to the overlapped runs, so goldens there would
 * pin nothing new.
 */
TEST(ChannelEquivalence, ThyNvmStopTheWorldMatchesGoldens)
{
    const std::pair<Family, unsigned> cells[] = {
        {Family::SpecGcc, 1},     {Family::SpecGcc, 2},
        {Family::SpecGcc, 4},     {Family::MicroRandom, 2},
        {Family::MicroRandom, 4},
    };
    for (const auto& [f, channels] : cells) {
        SystemConfig cfg = smallConfig(SystemKind::ThyNvm);
        cfg.channels = channels;
        if (channels > 1)
            cfg.epoch_length = 100 * kMicrosecond;
        cfg.thynvm.stop_the_world = true;
        expectMatchesGolden(
            runOne(f, cfg),
            goldenPath(f, SystemKind::ThyNvm, channels, "_stw"));
    }
}

/**
 * run(d) measures its limit from the latest tick any queue has
 * reached, so a channel can never step past the core between slices:
 * 37 us slices (then one call to drain the halted channels) end in the
 * byte-identical state of a single call, for every kind at 2 and 4
 * channels.
 */
TEST(ChannelEquivalence, SlicedRunsMatchOneCall)
{
    for (SystemKind kind : allKinds()) {
        for (unsigned channels : {2u, 4u}) {
            SystemConfig cfg = smallConfig(kind);
            cfg.channels = channels;
            cfg.epoch_length = 100 * kMicrosecond;
            const RunResult whole = runOne(Family::MicroRandom, cfg);

            auto wl = makeWorkload(Family::MicroRandom);
            System sys(cfg, *wl);
            sys.start();
            for (int slice = 0; slice < 1000000 && !sys.finished();
                 ++slice)
                sys.run(37 * kMicrosecond);
            ASSERT_TRUE(sys.finished())
                << kindToken(kind) << " channels=" << channels;
            const Tick final_tick = sys.run();
            std::ostringstream os;
            sys.dumpStats(os);
            EXPECT_EQ(final_tick, whole.final_tick)
                << kindToken(kind) << " channels=" << channels;
            EXPECT_EQ(os.str(), whole.stats)
                << kindToken(kind) << " channels=" << channels;
        }
    }
}

/**
 * SystemConfig::sim_threads is ignored: a multi-channel System steps
 * all its queues on one thread, so any worker count leaves dumpStats
 * and the final tick byte-identical, for every kind at 2 and 4
 * channels.
 */
TEST(ChannelEquivalence, MultiChannelDeterministicAcrossThreadCounts)
{
    for (SystemKind kind : allKinds()) {
        for (unsigned channels : {2u, 4u}) {
            SystemConfig cfg = smallConfig(kind);
            cfg.channels = channels;
            cfg.epoch_length = 100 * kMicrosecond;
            const RunResult base = runOne(Family::MicroRandom, cfg);
            ASSERT_TRUE(base.finished)
                << kindToken(kind) << " channels=" << channels;
            for (unsigned threads : {1u, 2u, 4u}) {
                cfg.sim_threads = threads;
                const RunResult r = runOne(Family::MicroRandom, cfg);
                EXPECT_EQ(r.final_tick, base.final_tick)
                    << kindToken(kind) << " channels=" << channels
                    << " sim_threads=" << threads;
                EXPECT_EQ(r.stats, base.stats)
                    << kindToken(kind) << " channels=" << channels
                    << " sim_threads=" << threads;
            }
        }
    }
}

/**
 * Channel scaling sanity on the checkpointing kinds: the workload
 * still completes, epochs commit through the cross-channel
 * coordinator, and per-channel traffic sums stay consistent with the
 * group roll-up.
 */
TEST(ChannelEquivalence, CoordinatedEpochsComplete)
{
    for (SystemKind kind : kAllSystemKinds) {
        if (!isCheckpointingKind(kind))
            continue;
        SystemConfig cfg = smallConfig(kind);
        cfg.channels = 2;
        cfg.epoch_length = 100 * kMicrosecond;
        auto wl = makeWorkload(Family::MicroRandom);
        System sys(cfg, *wl);
        sys.start();
        sys.run(20 * kSecond);
        ASSERT_TRUE(sys.finished()) << kindToken(kind);
        const RunMetrics m = sys.metrics();
        EXPECT_GT(m.epochs, 0u) << kindToken(kind);
        // The group's roll-up equals the sum over its channels.
        auto& grp = sys.controller();
        std::uint64_t per_ch = 0;
        for (unsigned i = 0; i < sys.channels(); ++i) {
            // dumpExtraStats covers the dump path; here cross-check
            // the metric virtuals against the devices directly.
            per_ch += static_cast<ChannelGroup&>(grp)
                          .channelController(i)
                          .nvmTotalWriteBytes();
        }
        EXPECT_EQ(m.nvm_wr_total, per_ch) << kindToken(kind);
    }
}

} // namespace
} // namespace thynvm
