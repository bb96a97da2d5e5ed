/**
 * @file
 * Paged-vs-dense store equivalence.
 *
 * The sparse COW store is purely functional: swapping in the
 * THYNVM_DENSE_STORE flat fallback must not change a single simulated
 * byte, stat, or tick. Pinned here across three axes:
 *
 *  1. Clean runs: micro / KV / SPEC on all seven system kinds —
 *     dumpStats, final tick, and the final functional memory image are
 *     byte-identical between the two store implementations.
 *  2. Topology: the same holds on multi-channel systems (the store is
 *     carved into per-channel views of one root store).
 *  3. Crash recovery: a representative crash case per system recovers
 *     to the byte-identical image and resumes to the identical final
 *     image under both stores.
 */

#include "tests/test_util.hh"

#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hh"
#include "harness/system.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

namespace thynvm {
namespace {

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

std::vector<SystemKind>
allKinds()
{
    return {std::begin(kAllSystemKinds), std::end(kAllSystemKinds)};
}

SystemConfig
smallConfig(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
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
          prof.wss = 2u << 20;
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
    std::vector<std::uint8_t> image;
};

/** Dense capture of the software-visible image via the touched set. */
std::vector<std::uint8_t>
captureImage(System& sys, std::size_t phys_size)
{
    std::vector<std::uint8_t> img(phys_size, 0);
    FunctionalView view = sys.functionalView();
    for (Addr page : sys.touchedPhysPages()) {
        const std::size_t len =
            std::min<std::size_t>(kPageSize, phys_size - page);
        view(page, img.data() + page, len);
    }
    return img;
}

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
    r.image = captureImage(sys, cfg.phys_size);
    return r;
}

/**
 * Axis 1: every family on every system kind, stats + tick + image.
 */
TEST(DenseEquivalence, AllKindsAllFamiliesByteIdentical)
{
    for (SystemKind kind : allKinds()) {
        for (Family f :
             {Family::MicroRandom, Family::KvHash, Family::SpecGcc}) {
            RunResult paged;
            {
                test::EnvGuard off("THYNVM_DENSE_STORE", nullptr);
                paged = runOne(f, smallConfig(kind));
            }
            ASSERT_TRUE(paged.finished) << familyToken(f);
            RunResult dense;
            {
                test::EnvGuard on("THYNVM_DENSE_STORE", "1");
                dense = runOne(f, smallConfig(kind));
            }
            ASSERT_TRUE(dense.finished) << familyToken(f);
            EXPECT_EQ(paged.final_tick, dense.final_tick)
                << familyToken(f) << "/" << systemKindName(kind);
            EXPECT_EQ(paged.stats, dense.stats)
                << familyToken(f) << "/" << systemKindName(kind);
            EXPECT_EQ(paged.image, dense.image)
                << familyToken(f) << "/" << systemKindName(kind)
                << ": final functional image diverged";
        }
    }
}

/**
 * Axis 2: multi-channel topologies. The root store is carved into
 * per-channel views, each written by its own channel.
 */
TEST(DenseEquivalence, MultiChannelWorkerSweepByteIdentical)
{
    for (unsigned channels : {1u, 2u, 4u}) {
        SystemConfig cfg = smallConfig(SystemKind::ThyNvm);
        cfg.channels = channels;
        cfg.epoch_length = 100 * kMicrosecond;
        RunResult paged;
        {
            test::EnvGuard off("THYNVM_DENSE_STORE", nullptr);
            paged = runOne(Family::MicroRandom, cfg);
        }
        RunResult dense;
        {
            test::EnvGuard on("THYNVM_DENSE_STORE", "1");
            dense = runOne(Family::MicroRandom, cfg);
        }
        ASSERT_TRUE(paged.finished && dense.finished)
            << "channels=" << channels;
        EXPECT_EQ(paged.final_tick, dense.final_tick)
            << "channels=" << channels;
        EXPECT_EQ(paged.stats, dense.stats) << "channels=" << channels;
        EXPECT_EQ(paged.image, dense.image) << "channels=" << channels;
    }
}

/**
 * Axis 3: crash + recovery. One representative crash case per
 * checkpointing system; recovered and resumed images must match
 * between stores (the recovery path exercises clone(), the touched
 * enumeration, and the mirror rebuild).
 */
TEST(DenseEquivalence, CrashRecoveryImagesByteIdentical)
{
    using namespace fuzz;
    const FuzzerConfig fc;
    for (SystemKind kind : kAllSystemKinds) {
        if (!isCheckpointingKind(kind))
            continue;
        // Find a site this system actually reaches, then crash at its
        // last hit — same recipe the campaign planner uses.
        std::map<std::string, std::uint64_t> sites;
        {
            test::EnvGuard off("THYNVM_DENSE_STORE", nullptr);
            sites = enumerateSites(fc, 1, "rand", kind, true);
        }
        ASSERT_FALSE(sites.empty()) << systemToken(kind);
        FuzzCase c;
        c.seed = 1;
        c.workload = "rand";
        c.system = kind;
        c.site = sites.begin()->first;
        c.hit = sites.begin()->second;

        CaseResult paged;
        {
            test::EnvGuard off("THYNVM_DENSE_STORE", nullptr);
            paged = runCrashCase(fc, c);
        }
        CaseResult dense;
        {
            test::EnvGuard on("THYNVM_DENSE_STORE", "1");
            dense = runCrashCase(fc, c);
        }
        EXPECT_EQ(paged.status, dense.status) << formatRepro(c);
        EXPECT_EQ(paged.crash_tick, dense.crash_tick) << formatRepro(c);
        EXPECT_EQ(paged.recovered_image, dense.recovered_image)
            << formatRepro(c) << ": recovered image diverged";
        EXPECT_EQ(paged.final_image, dense.final_image)
            << formatRepro(c) << ": resumed final image diverged";
    }
}

} // namespace
} // namespace thynvm
