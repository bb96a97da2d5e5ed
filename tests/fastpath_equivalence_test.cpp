/**
 * @file
 * Fast-path stat-equivalence suite: the synchronous hit fast path
 * (BlockAccessor::tryAccessFast) is a pure host-time optimization, so a
 * run with the fast path enabled must be indistinguishable — in every
 * stat, the final tick, the executed-event count, and the final memory
 * image — from the same run forced onto the per-piece event path.
 *
 * This is the contract the figure benches rely on: any divergence here
 * means the fast path changed simulated behavior, not just host speed.
 */

#include <sstream>
#include <string>
#include <vector>

#include "tests/test_util.hh"

#include "fuzz/fuzzer.hh"
#include "harness/system.hh"
#include "workloads/micro.hh"

namespace thynvm {
namespace {

struct RunResult
{
    std::string stats;
    std::vector<std::uint8_t> image;
    std::uint64_t instructions;
};

RunResult
runCell(SystemKind kind, bool fast_path, std::uint32_t access_size)
{
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Random;
    mp.base = 0;
    mp.array_bytes = 8u << 20;
    mp.access_size = access_size;
    mp.read_fraction = 0.5;
    mp.total_accesses = 6000;
    mp.seed = 7;
    MicroWorkload wl(mp);

    SystemConfig cfg;
    cfg.kind = kind;
    cfg.phys_size = 16u << 20;
    cfg.epoch_length = 5 * kMillisecond;
    cfg.thynvm.btt_entries = 2048;
    cfg.thynvm.ptt_entries = 4096;
    cfg.cpu.use_fast_path = fast_path;

    System sys(cfg, wl);
    sys.start();
    sys.run(60 * kSecond);
    EXPECT_TRUE(sys.finished());

    RunResult r;
    std::ostringstream os;
    sys.dumpStats(os);
    r.stats = os.str();
    r.image.resize(mp.array_bytes);
    sys.functionalView()(mp.base, r.image.data(), r.image.size());
    r.instructions = sys.cpu().instructions();
    return r;
}

void
expectEquivalent(SystemKind kind, std::uint32_t access_size)
{
    const RunResult fast = runCell(kind, true, access_size);
    const RunResult slow = runCell(kind, false, access_size);
    EXPECT_EQ(fast.stats, slow.stats) << systemKindName(kind);
    EXPECT_EQ(fast.instructions, slow.instructions) << systemKindName(kind);
    EXPECT_TRUE(fast.image == slow.image)
        << systemKindName(kind) << ": final memory images differ";
    // Sanity: the dump carries CPU, cache, and device stats, so a
    // behavioral difference in any layer would have shown up above.
    EXPECT_NE(fast.stats.find("instructions"), std::string::npos);
    EXPECT_NE(fast.stats.find("hits"), std::string::npos);
    EXPECT_NE(fast.stats.find("write_bytes"), std::string::npos);
}

TEST(FastPathEquivalenceTest, ThyNvmBlockAccesses)
{
    expectEquivalent(SystemKind::ThyNvm, 64);
}

TEST(FastPathEquivalenceTest, ThyNvmPartialStores)
{
    // 48-byte accesses straddle block boundaries and exercise the
    // partial-store read-modify-write on both paths.
    expectEquivalent(SystemKind::ThyNvm, 48);
}

TEST(FastPathEquivalenceTest, JournalBlockAccesses)
{
    expectEquivalent(SystemKind::Journal, 64);
}

TEST(FastPathEquivalenceTest, ShadowBlockAccesses)
{
    expectEquivalent(SystemKind::Shadow, 64);
}

TEST(FastPathEquivalenceTest, IclBlockAccesses)
{
    expectEquivalent(SystemKind::Icl, 64);
}

TEST(FastPathEquivalenceTest, IncrementalBlockAccesses)
{
    expectEquivalent(SystemKind::Incremental, 64);
}

TEST(FastPathEquivalenceTest, IdealDramBlockAccesses)
{
    expectEquivalent(SystemKind::IdealDram, 64);
}

TEST(FastPathEquivalenceTest, IdealNvmPartialStores)
{
    expectEquivalent(SystemKind::IdealNvm, 48);
}

TEST(FastPathEquivalenceTest, MultiBlockOps)
{
    // 1KB ops span 16 blocks; the fast path collapses them into one
    // completion event per op, which must not change simulated time.
    // This is perfbench l1_resident's op shape, on every kind.
    for (SystemKind kind : kAllSystemKinds)
        expectEquivalent(kind, 1024);
}

/**
 * Crash/recovery shapes: the equivalence contract must survive power
 * failure, not just clean runs. Crash plans are expressed as (site,
 * hit ordinal, tick delta) — simulated behavior, identical in both
 * modes — so the same plan run fast and slow must crash at the same
 * tick, restore the same op count, and yield byte-identical recovered
 * and final images.
 */
void
expectCrashEquivalent(SystemKind kind, const std::string& workload)
{
    const fuzz::FuzzerConfig fc;
    const std::uint64_t seed = 1;

    const auto sites = fuzz::enumerateSites(fc, seed, workload, kind,
                                            /*fast_path=*/true);
    ASSERT_FALSE(sites.empty()) << systemKindName(kind);

    for (const auto& [site, hits] : sites) {
        fuzz::FuzzCase c;
        c.seed = seed;
        c.workload = workload;
        c.system = kind;
        c.site = site;
        c.hit = hits; // last hit: deepest into the run

        c.fast_path = true;
        const fuzz::CaseResult fast = fuzz::runCrashCase(fc, c);
        c.fast_path = false;
        const fuzz::CaseResult slow = fuzz::runCrashCase(fc, c);

        ASSERT_EQ(fast.status, fuzz::CaseStatus::Ok)
            << fast.repro << ": " << fast.detail;
        ASSERT_EQ(slow.status, fuzz::CaseStatus::Ok)
            << slow.repro << ": " << slow.detail;
        EXPECT_EQ(fast.crash_tick, slow.crash_tick) << fast.repro;
        EXPECT_EQ(fast.commits_before, slow.commits_before) << fast.repro;
        EXPECT_EQ(fast.restored_ops, slow.restored_ops) << fast.repro;
        EXPECT_EQ(fast.recovered_image.firstDifference(
                      slow.recovered_image),
                  PagedBytes::npos)
            << fast.repro << ": recovered images differ fast vs slow";
        EXPECT_EQ(fast.final_image.firstDifference(slow.final_image),
                  PagedBytes::npos)
            << fast.repro << ": final images differ fast vs slow";
    }
}

TEST(FastPathEquivalenceTest, ThyNvmCrashRecoveryAtEverySite)
{
    // The sliding window promotes pages, reaching all 11 ThyNVM sites.
    expectCrashEquivalent(SystemKind::ThyNvm, "slide");
}

TEST(FastPathEquivalenceTest, JournalCrashRecoveryAtEverySite)
{
    expectCrashEquivalent(SystemKind::Journal, "rand");
}

TEST(FastPathEquivalenceTest, ShadowCrashRecoveryAtEverySite)
{
    expectCrashEquivalent(SystemKind::Shadow, "rand");
}

TEST(FastPathEquivalenceTest, IclCrashRecoveryAtEverySite)
{
    expectCrashEquivalent(SystemKind::Icl, "rand");
}

TEST(FastPathEquivalenceTest, IncrementalCrashRecoveryAtEverySite)
{
    expectCrashEquivalent(SystemKind::Incremental, "rand");
}

} // namespace
} // namespace thynvm
