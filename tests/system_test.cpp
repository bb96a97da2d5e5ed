/**
 * @file
 * Full-system integration tests: CPU + caches + each evaluated memory
 * controller, running the paper's workloads end to end, including the
 * flagship crash-resume-equivalence property.
 */

#include "tests/test_util.hh"

#include <algorithm>
#include <string>

#include "fuzz/fuzzer.hh"
#include "harness/system.hh"
#include "mem/epoch_controller.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

namespace thynvm {
namespace {

SystemConfig
smallSystem(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.phys_size = 4u << 20;
    cfg.epoch_length = 300 * kMicrosecond;
    // Tables must cover the flushable dirty footprint (see §4.3 of the
    // paper: overflow forces epoch boundaries): one PTT entry per
    // physical page keeps small-scale tests deadlock-free.
    cfg.thynvm.btt_entries = 512;
    cfg.thynvm.ptt_entries = 1024;
    return cfg;
}

KvWorkload::Params
smallKv(KvWorkload::Structure structure, std::uint64_t txns)
{
    KvWorkload::Params p;
    p.structure = structure;
    p.phys_size = 4u << 20;
    p.value_size = 128;
    p.initial_keys = 200;
    p.key_space = 800;
    p.total_txns = txns;
    return p;
}

/** Runs a KV workload to completion on @p kind and checks the final
 *  memory image against the host-side reference, byte for byte. */
void
runKvAndCompare(SystemKind kind, KvWorkload::Structure structure)
{
    auto params = smallKv(structure, 300);
    KvWorkload wl(params);
    System sys(smallSystem(kind), wl);
    sys.start();
    sys.run(2 * kSecond);
    ASSERT_TRUE(sys.finished()) << systemKindName(kind);

    HostMemSpace ref(params.phys_size);
    KvWorkload::runReference(params, params.total_txns, ref);

    std::vector<std::uint8_t> img(params.phys_size);
    sys.functionalView()(0, img.data(), img.size());
    EXPECT_EQ(img, ref.bytes())
        << systemKindName(kind) << " final image diverged";

    ReadOnlyMemSpace view(sys.functionalView());
    KvWorkload::validateStructure(params, view);
}

class AllSystemsKvTest : public ::testing::TestWithParam<SystemKind>
{};

TEST_P(AllSystemsKvTest, HashTableImageMatchesReference)
{
    runKvAndCompare(GetParam(), KvWorkload::Structure::HashTable);
}

TEST_P(AllSystemsKvTest, RbTreeImageMatchesReference)
{
    runKvAndCompare(GetParam(), KvWorkload::Structure::RbTree);
}

INSTANTIATE_TEST_SUITE_P(
    AllSystems, AllSystemsKvTest,
    ::testing::Values(SystemKind::IdealDram, SystemKind::IdealNvm,
                      SystemKind::Journal, SystemKind::Shadow,
                      SystemKind::ThyNvm));

TEST(SystemTest, MicroWorkloadRunsOnThyNvm)
{
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Random;
    mp.array_bytes = 1u << 20;
    mp.total_accesses = 3000;
    MicroWorkload wl(mp);
    System sys(smallSystem(SystemKind::ThyNvm), wl);
    sys.start();
    sys.run(2 * kSecond);
    ASSERT_TRUE(sys.finished());
    auto m = sys.metrics();
    EXPECT_GT(m.instructions, 3000u);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_GE(m.epochs, 1u);
    EXPECT_GT(m.nvm_wr_total, 0u);
}

TEST(SystemTest, CheckpointingSystemsCompleteEpochs)
{
    for (SystemKind kind :
         {SystemKind::Journal, SystemKind::Shadow, SystemKind::ThyNvm}) {
        MicroWorkload::Params mp;
        mp.pattern = MicroWorkload::Pattern::Sliding;
        mp.array_bytes = 512 * 1024;
        mp.total_accesses = 4000;
        MicroWorkload wl(mp);
        System sys(smallSystem(kind), wl);
        sys.start();
        sys.run(2 * kSecond);
        ASSERT_TRUE(sys.finished()) << systemKindName(kind);
        EXPECT_GE(sys.metrics().epochs, 1u) << systemKindName(kind);
    }
}

/** True while a checkpointing controller runs a checkpoint. */
bool
checkpointInProgress(MemController& ctrl)
{
    auto* e = dynamic_cast<EpochController*>(&ctrl);
    return e != nullptr && e->checkpointInProgress();
}

/**
 * Capturing only the touched pages gives the image a read of the whole
 * space gives.
 */
void
expectTouchedCaptureComplete(System& sys, std::size_t phys_size,
                             const std::string& where)
{
    std::vector<std::uint8_t> bytes(phys_size);
    sys.functionalView()(0, bytes.data(), bytes.size());
    PagedBytes full(phys_size);
    full.write(0, bytes.data(), bytes.size());
    EXPECT_EQ(fuzz::captureImage(sys, phys_size).firstDifference(full),
              PagedBytes::npos)
        << where;
}

/**
 * Port writes apply to the device's store when they are sent, so the
 * store's touched ranges alone must cover data still staged in a port.
 * Stop each kind at several instants while writes are staged — inside
 * a checkpoint for the checkpointing kinds, in the uncached store
 * stream for the ideal ones, which never checkpoint — and check that
 * capturing only the touched pages gives the image a read of the whole
 * space gives.
 */
TEST(SystemTest, TouchedPagesCoverStagedWritesOnEveryKind)
{
    for (SystemKind kind : kAllSystemKinds) {
        MicroWorkload::Params mp;
        mp.pattern = MicroWorkload::Pattern::Random;
        mp.array_bytes = 3u << 20;
        mp.total_accesses = 20000;
        MicroWorkload wl(mp);
        SystemConfig cfg = smallSystem(kind);
        cfg.epoch_length = 100 * kMicrosecond;
        cfg.channels = 1;
        const bool ckpt = kind != SystemKind::IdealDram &&
                          kind != SystemKind::IdealNvm;
        cfg.use_caches = ckpt;
        System sys(cfg, wl);
        sys.start();
        Tick not_before = 0;
        const auto staged = [&] {
            MemController& c = sys.controller();
            if (sys.eventq().now() < not_before)
                return false;
            for (MemDevice* d : {c.nvmDevice(), c.dramDevice()}) {
                if (d != nullptr && d->stagedWrites() > 0)
                    return !ckpt || checkpointInProgress(c);
            }
            return false;
        };
        for (int stop = 0; stop < 4; ++stop) {
            sys.run(kSecond, staged);
            ASSERT_TRUE(staged()) << systemKindName(kind) << " stop " << stop;
            not_before = sys.eventq().now() + 30 * kMicrosecond;
            expectTouchedCaptureComplete(
                sys, cfg.phys_size,
                std::string(systemKindName(kind)) + " stop " +
                    std::to_string(stop));
        }
    }
}

/**
 * A byte-range functional read that starts inside a block and spans
 * several is assembled from the same per-block lookups the caches use:
 * functionalRead(4096 + 10, 200 bytes) must equal those bytes of the
 * functionalReadBlock reads of its four blocks, on every kind at one
 * and two channels, mid-run and at the end.
 */
TEST(SystemTest, UnalignedFunctionalReadMatchesBlockReadsOnEveryKind)
{
    constexpr Addr kStart = 4096 + 10;
    constexpr std::size_t kLen = 200;
    const Addr first = blockAlign(kStart);
    const std::size_t span = blockAlign(kStart + kLen - 1) + kBlockSize -
                             first;
    for (unsigned channels : {1u, 2u}) {
        for (SystemKind kind : kAllSystemKinds) {
            MicroWorkload::Params mp;
            mp.pattern = MicroWorkload::Pattern::Random;
            mp.array_bytes = 16u << 10;
            mp.total_accesses = 4000;
            MicroWorkload wl(mp);
            SystemConfig cfg = smallSystem(kind);
            cfg.channels = channels;
            cfg.epoch_length = 100 * kMicrosecond;
            cfg.use_caches = false;
            System sys(cfg, wl);
            MemController& c = sys.controller();
            std::vector<std::uint8_t> image(mp.array_bytes);
            for (std::size_t i = 0; i < image.size(); ++i)
                image[i] = static_cast<std::uint8_t>(i * 7 + 3);
            c.loadImage(0, image.data(), image.size());
            sys.start();
            const std::string what = std::string(systemKindName(kind)) +
                                     " ch" + std::to_string(channels);
            for (Tick slice : {30 * kMicrosecond, kSecond}) {
                sys.run(slice);
                std::vector<std::uint8_t> blocks(span);
                for (std::size_t off = 0; off < span; off += kBlockSize)
                    c.functionalReadBlock(first + off, blocks.data() + off);
                std::vector<std::uint8_t> got(kLen);
                c.functionalRead(kStart, got.data(), kLen);
                const auto want = blocks.begin() + (kStart - first);
                EXPECT_TRUE(std::equal(got.begin(), got.end(), want))
                    << what << " at tick " << sys.eventq().now();
            }
            EXPECT_TRUE(sys.finished()) << what;
        }
    }
}

/**
 * The touched set stays complete across a power failure: each backend's
 * recovery writes, and on two channels the functional mirror's rebuild
 * from the channels' touched pages, must leave every nonzero byte on a
 * touched page. Each checkpointing kind crashes mid-run, a new System
 * recovers on the surviving store, and the touched-page capture is
 * checked right after recovery and again at the end of the resumed run.
 */
TEST(SystemTest, TouchedPagesCoverRecoveredImagesOnEveryCheckpointingKind)
{
    for (SystemKind kind : kAllSystemKinds) {
        if (!isCheckpointingKind(kind))
            continue;
        for (unsigned channels : {1u, 2u}) {
            const std::string where = std::string(systemKindName(kind)) +
                                      " channels=" +
                                      std::to_string(channels);
            MicroWorkload::Params mp;
            mp.pattern = MicroWorkload::Pattern::Random;
            mp.array_bytes = 3u << 20;
            mp.total_accesses = 20000;
            SystemConfig cfg = smallSystem(kind);
            cfg.epoch_length = 100 * kMicrosecond;
            cfg.channels = channels;

            MicroWorkload wl1(mp);
            System sys1(cfg, wl1);
            sys1.start();
            // Crash mid-epoch, after two commits left a checkpoint to
            // recover to.
            sys1.run(kSecond, [&] {
                return sys1.controller().completedEpochs() >= 2;
            });
            ASSERT_GE(sys1.controller().completedEpochs(), 2u) << where;
            sys1.run(30 * kMicrosecond);
            ASSERT_FALSE(sys1.finished()) << where;
            std::shared_ptr<BackingStore> nvm = sys1.crash();

            MicroWorkload wl2(mp);
            System sys2(cfg, wl2, std::move(nvm));
            sys2.recoverAndResume();
            expectTouchedCaptureComplete(sys2, cfg.phys_size,
                                         where + " after recovery");
            sys2.run(kSecond);
            ASSERT_TRUE(sys2.finished()) << where;
            expectTouchedCaptureComplete(sys2, cfg.phys_size,
                                         where + " at the end");
        }
    }
}

TEST(SystemTest, IdealDramOutperformsIdealNvmOnWrites)
{
    auto run = [](SystemKind kind) {
        MicroWorkload::Params mp;
        mp.pattern = MicroWorkload::Pattern::Random;
        mp.array_bytes = 2u << 20;
        mp.read_fraction = 0.3;
        mp.total_accesses = 5000;
        MicroWorkload wl(mp);
        System sys(smallSystem(kind), wl);
        sys.start();
        sys.run(4 * kSecond);
        EXPECT_TRUE(sys.finished());
        return sys.metrics().exec_time;
    };
    EXPECT_LT(run(SystemKind::IdealDram), run(SystemKind::IdealNvm));
}

TEST(SystemTest, ThyNvmStallsLessThanStopTheWorldBaselines)
{
    auto run = [](SystemKind kind) {
        MicroWorkload::Params mp;
        mp.pattern = MicroWorkload::Pattern::Random;
        mp.array_bytes = 1u << 20;
        mp.total_accesses = 20000;
        MicroWorkload wl(mp);
        System sys(smallSystem(kind), wl);
        sys.start();
        sys.run(10 * kSecond);
        EXPECT_TRUE(sys.finished()) << systemKindName(kind);
        return sys.metrics().ckpt_time_frac;
    };
    const double thynvm = run(SystemKind::ThyNvm);
    const double journal = run(SystemKind::Journal);
    const double shadow = run(SystemKind::Shadow);
    EXPECT_LT(thynvm, journal);
    EXPECT_LT(thynvm, shadow);
}

TEST(SystemTest, SpecWorkloadProducesPlausibleIpc)
{
    auto prof = specProfile("omnetpp");
    prof.wss = 2u << 20; // shrink the footprint to the test system
    SpecWorkload wl(prof, 0, 100000, 1);
    auto cfg = smallSystem(SystemKind::ThyNvm);
    cfg.epoch_length = 5 * kMillisecond; // amortize checkpoints
    System sys(cfg, wl);
    sys.start();
    sys.run(4 * kSecond);
    ASSERT_TRUE(sys.finished());
    const auto m = sys.metrics();
    EXPECT_GT(m.ipc, 0.001);
    EXPECT_LE(m.ipc, 1.0); // in-order core cannot exceed 1 IPC
}

// ---------------------------------------------------------------------
// The flagship end-to-end property: a run interrupted by power
// failures at arbitrary instants, recovered and resumed each time,
// finishes with exactly the same memory image as an undisturbed run.
// ---------------------------------------------------------------------

struct CrashResumeParam
{
    SystemKind kind;
    KvWorkload::Structure structure;
    Tick crash_at;
};

/** Names the ctest "thynvm_hash_70us". */
void
PrintTo(const CrashResumeParam& p, std::ostream* os)
{
    PrintTo(p.kind, os);
    *os << (p.structure == KvWorkload::Structure::HashTable ? "_hash"
                                                            : "_rbtree")
        << "_" << p.crash_at / kMicrosecond << "us";
}

class CrashResumeTest : public ::testing::TestWithParam<CrashResumeParam>
{};

TEST_P(CrashResumeTest, ResumedRunMatchesUndisturbedRun)
{
    const auto& p = GetParam();
    auto params = smallKv(p.structure, 250);

    KvWorkload wl(params);
    auto sys = std::make_unique<System>(smallSystem(p.kind), wl);
    sys->start();
    sys->run(p.crash_at);

    unsigned reboots = 0;
    std::vector<std::unique_ptr<KvWorkload>> keep_alive;
    while (!sys->finished()) {
        // Power failure now; reboot with the surviving NVM contents
        // and a fresh workload object whose generator state comes from
        // the recovered CPU blob.
        auto nvm = sys->crash();
        ++reboots;
        ASSERT_LE(reboots, 50u) << "run does not converge";
        auto wl2 = std::make_unique<KvWorkload>(params);
        auto sys2 = std::make_unique<System>(smallSystem(p.kind),
                                             *wl2, nvm);
        sys2->recoverAndResume();
        keep_alive.push_back(std::move(wl2));
        sys = std::move(sys2);
        // Growing window: later attempts run long enough to commit
        // progress, so the sequence of crashes converges.
        sys->run(p.crash_at + reboots * kMillisecond);
    }

    HostMemSpace ref(params.phys_size);
    KvWorkload::runReference(params, params.total_txns, ref);
    std::vector<std::uint8_t> img(params.phys_size);
    sys->functionalView()(0, img.data(), img.size());
    EXPECT_EQ(img, ref.bytes())
        << systemKindName(p.kind) << " diverged after " << reboots
        << " crash/recovery cycles";
}

std::vector<CrashResumeParam>
makeCrashResumeParams()
{
    std::vector<CrashResumeParam> out;
    for (SystemKind kind :
         {SystemKind::ThyNvm, SystemKind::Journal, SystemKind::Shadow}) {
        for (Tick t : {70 * kMicrosecond, 350 * kMicrosecond,
                       900 * kMicrosecond}) {
            out.push_back({kind, KvWorkload::Structure::HashTable, t});
            out.push_back({kind, KvWorkload::Structure::RbTree, t});
        }
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(CrashResume, CrashResumeTest,
                         ::testing::ValuesIn(makeCrashResumeParams()));

} // namespace
} // namespace thynvm
