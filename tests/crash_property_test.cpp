/**
 * @file
 * Property-based crash-consistency tests.
 *
 * The central property of ThyNVM (and of the journaling and shadow
 * paging baselines): after a power failure at an *arbitrary* instant,
 * recovery yields exactly the memory image that existed at the most
 * recent committed epoch boundary — never a torn mixture.
 *
 * The test drives a controller directly with randomized store batches,
 * records a golden host-side image at every epoch boundary it
 * requests, then crashes at a random event inside the next batch or
 * checkpoint and verifies the recovered image equals the golden image
 * of whatever epoch the controller reports as committed.
 */

#include "tests/test_util.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "baselines/journal.hh"
#include "baselines/shadow.hh"
#include "common/rng.hh"
#include "core/thynvm_controller.hh"
#include "fuzz/fuzzer.hh"

namespace thynvm {
namespace {

using test::patternBlock;

constexpr std::size_t kPhys = 128 * 1024;

/** Read the whole software-visible image. */
std::vector<std::uint8_t>
snapshotImage(MemController& ctrl)
{
    std::vector<std::uint8_t> img(kPhys);
    ctrl.functionalRead(0, img.data(), img.size());
    return img;
}

struct CrashDriver
{
    explicit CrashDriver(std::uint64_t seed) : rng(seed)
    {
        mirror.assign(kPhys, 0);
    }

    /** Issue one random store; returns once acknowledged. */
    void
    randomStore(EventQueue& eq, MemController& ctrl)
    {
        const Addr addr =
            rng.below(kPhys / kBlockSize) * kBlockSize;
        auto data = patternBlock(rng.next());
        std::memcpy(mirror.data() + addr, data.data(), kBlockSize);
        test::storeBlock(eq, ctrl, addr, data);
    }

    Rng rng;
    std::vector<std::uint8_t> mirror;
    /** Golden image per committed epoch id. */
    std::map<std::uint64_t, std::vector<std::uint8_t>> golden;
};

/**
 * Run the scenario on a ThyNVM controller with a crash after
 * @p crash_steps extra events, then verify recovery.
 */
void
runThyNvmCrashScenario(std::uint64_t seed, unsigned epochs_before_crash,
                       unsigned crash_steps)
{
    ThyNvmConfig cfg;
    cfg.phys_size = kPhys;
    // One entry per block: overflow never forces an epoch mid-batch, so
    // epoch ids match the manual boundaries below exactly.
    cfg.btt_entries = kPhys / kBlockSize;
    cfg.ptt_entries = 6;
    cfg.epoch_length = kMillisecond; // effectively manual boundaries
    cfg.promote_threshold = 8;       // exercise both schemes
    cfg.demote_threshold = 4;

    EventQueue eq;
    auto ctrl =
        std::make_unique<ThyNvmController>(eq, "ctrl", cfg, nullptr);
    CrashDriver drv(seed);
    // Nonzero initial image.
    for (Addr a = 0; a < kPhys; a += kBlockSize) {
        auto blk = patternBlock(a / kBlockSize + seed);
        ctrl->loadImage(a, blk.data(), kBlockSize);
        std::memcpy(drv.mirror.data() + a, blk.data(), kBlockSize);
    }
    drv.golden[0] = drv.mirror;
    ctrl->start();

    for (unsigned e = 1; e <= epochs_before_crash; ++e) {
        const unsigned batch = 4 + drv.rng.below(24);
        for (unsigned i = 0; i < batch; ++i)
            drv.randomStore(eq, *ctrl);
        // Epoch boundary: the image at this instant is the golden
        // recovery target for epoch e.
        drv.golden[e] = drv.mirror;
        const auto done = ctrl->completedEpochs();
        ctrl->requestEpochEnd();
        eq.runUntil([&] {
            return ctrl->completedEpochs() == done + 1 &&
                   !ctrl->checkpointInProgress();
        });
        ASSERT_EQ(snapshotImage(*ctrl), drv.mirror);
    }

    // Next epoch: more stores, a boundary request, and a crash at an
    // arbitrary number of events into the checkpoint.
    const unsigned batch = 4 + drv.rng.below(24);
    for (unsigned i = 0; i < batch; ++i)
        drv.randomStore(eq, *ctrl);
    drv.golden[epochs_before_crash + 1] = drv.mirror;
    ctrl->requestEpochEnd();
    for (unsigned s = 0; s < crash_steps && !eq.empty(); ++s)
        eq.step();

    // Power failure.
    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    // Reboot and recover.
    ctrl = std::make_unique<ThyNvmController>(eq, "ctrl", cfg, nvm);
    bool recovered = false;
    ctrl->recover([&] { recovered = true; });
    eq.runUntil([&] { return recovered; });
    ctrl->start();

    const std::uint64_t committed = ctrl->currentEpoch() - 1;
    EXPECT_GE(committed, epochs_before_crash > 0 ? epochs_before_crash
                                                 : 0u);
    // Epochs past the last store batch (idle timer boundaries during
    // the crash-step window) all have the final mirror image.
    const std::vector<std::uint8_t>& expect =
        drv.golden.count(committed) ? drv.golden[committed]
                                    : drv.mirror;
    EXPECT_EQ(snapshotImage(*ctrl), expect)
        << "seed=" << seed << " crash_steps=" << crash_steps
        << " committed=" << committed;

    // The recovered system must be fully operational.
    drv.mirror = drv.golden[committed];
    for (unsigned i = 0; i < 8; ++i)
        drv.randomStore(eq, *ctrl);
    EXPECT_EQ(snapshotImage(*ctrl), drv.mirror);
}

struct ThyNvmCrashParam
{
    std::uint64_t seed;
    unsigned epochs;
    unsigned crash_steps;
};

/** Names the ctest "seed1000_epochs2_steps123". */
void
PrintTo(const ThyNvmCrashParam& p, std::ostream* os)
{
    *os << "seed" << p.seed << "_epochs" << p.epochs << "_steps"
        << p.crash_steps;
}

class ThyNvmCrashTest
    : public ::testing::TestWithParam<ThyNvmCrashParam>
{};

TEST_P(ThyNvmCrashTest, RecoversToCommittedEpochImage)
{
    const auto& p = GetParam();
    runThyNvmCrashScenario(p.seed, p.epochs, p.crash_steps);
}

std::vector<ThyNvmCrashParam>
makeCrashParams()
{
    std::vector<ThyNvmCrashParam> params;
    Rng rng(test::loggedSeed("crash_property.params", 0xC0FFEE));
    for (unsigned i = 0; i < 40; ++i) {
        params.push_back(ThyNvmCrashParam{
            1000 + i,
            static_cast<unsigned>(rng.below(4)),
            static_cast<unsigned>(rng.below(400)),
        });
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(RandomCrashes, ThyNvmCrashTest,
                         ::testing::ValuesIn(makeCrashParams()));

/**
 * Crash consistency under table pressure: with tiny tables, overflow
 * forces epoch boundaries at arbitrary store positions, so the precise
 * epoch-to-image mapping is unknown. The invariant still holds that
 * any recovered image equals the memory state at *some* store
 * boundary already reached (never a torn mixture), because epoch
 * flushes happen between acknowledged stores.
 */
class ThyNvmOverflowCrashTest : public ::testing::TestWithParam<int>
{};

TEST_P(ThyNvmOverflowCrashTest, RecoversToSomeStoreBoundary)
{
    const std::uint64_t seed = 7000 + GetParam();
    ThyNvmConfig cfg;
    cfg.phys_size = kPhys;
    cfg.btt_entries = 24; // overflows constantly
    cfg.ptt_entries = 4;
    cfg.epoch_length = kMillisecond;
    cfg.promote_threshold = 6;
    cfg.demote_threshold = 3;

    EventQueue eq;
    auto ctrl =
        std::make_unique<ThyNvmController>(eq, "ctrl", cfg, nullptr);
    CrashDriver drv(seed);
    ctrl->start();

    std::vector<std::vector<std::uint8_t>> history;
    history.push_back(drv.mirror);
    const unsigned stores = 40 + seed % 40;
    for (unsigned i = 0; i < stores; ++i) {
        drv.randomStore(eq, *ctrl);
        history.push_back(drv.mirror);
    }
    ctrl->requestEpochEnd();
    const unsigned steps = static_cast<unsigned>((seed * 97) % 500);
    for (unsigned s = 0; s < steps && !eq.empty(); ++s)
        eq.step();

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    ctrl = std::make_unique<ThyNvmController>(eq, "ctrl", cfg, nvm);
    bool recovered = false;
    ctrl->recover([&] { recovered = true; });
    eq.runUntil([&] { return recovered; });

    const auto img = snapshotImage(*ctrl);
    bool found = false;
    for (const auto& h : history) {
        if (img == h) {
            found = true;
            break;
        }
    }
    EXPECT_TRUE(found) << "seed " << seed
                       << ": recovered image matches no store boundary";
}

INSTANTIATE_TEST_SUITE_P(OverflowCrashes, ThyNvmOverflowCrashTest,
                         ::testing::Range(0, 20));

/**
 * Same property for the journaling baseline.
 */
TEST(JournalCrashTest, RecoversToCommittedEpochImage)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        JournalConfig cfg;
        cfg.phys_size = kPhys;
        cfg.table_entries = 64;
        cfg.table_headroom = 512;
        cfg.epoch_length = kMillisecond;

        EventQueue eq;
        auto ctrl =
            std::make_unique<JournalController>(eq, "ctrl", cfg, nullptr);
        CrashDriver drv(seed);
        ctrl->start();
        drv.golden[0] = drv.mirror;

        for (unsigned i = 0; i < 20; ++i)
            drv.randomStore(eq, *ctrl);
        drv.golden[1] = drv.mirror;
        ctrl->requestEpochEnd();
        eq.runUntil([&] { return ctrl->completedEpochs() == 1; });

        for (unsigned i = 0; i < 10; ++i)
            drv.randomStore(eq, *ctrl);
        ctrl->requestEpochEnd();
        const unsigned steps = static_cast<unsigned>(seed * 37 % 300);
        for (unsigned s = 0; s < steps && !eq.empty(); ++s)
            eq.step();

        auto nvm = ctrl->nvmStoreHandle();
        ctrl->crash();
        eq.clear();

        ctrl = std::make_unique<JournalController>(eq, "ctrl", cfg, nvm);
        bool recovered = false;
        ctrl->recover([&] { recovered = true; });
        eq.runUntil([&] { return recovered; });

        const auto img = snapshotImage(*ctrl);
        const bool matches_any =
            img == drv.golden[0] || img == drv.golden[1] ||
            img == drv.mirror;
        EXPECT_TRUE(matches_any) << "journal seed " << seed
                                 << ": torn recovery image";
    }
}

/**
 * Same property for the shadow paging baseline.
 */
TEST(ShadowCrashTest, RecoversToCommittedEpochImage)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        ShadowConfig cfg;
        cfg.phys_size = kPhys;
        cfg.dram_size = 64 * 1024;
        cfg.epoch_length = kMillisecond;

        EventQueue eq;
        auto ctrl =
            std::make_unique<ShadowController>(eq, "ctrl", cfg, nullptr);
        CrashDriver drv(seed);
        ctrl->start();
        drv.golden[0] = drv.mirror;

        for (unsigned i = 0; i < 20; ++i)
            drv.randomStore(eq, *ctrl);
        drv.golden[1] = drv.mirror;
        ctrl->requestEpochEnd();
        eq.runUntil([&] { return ctrl->completedEpochs() == 1; });

        for (unsigned i = 0; i < 10; ++i)
            drv.randomStore(eq, *ctrl);
        ctrl->requestEpochEnd();
        const unsigned steps = static_cast<unsigned>(seed * 53 % 300);
        for (unsigned s = 0; s < steps && !eq.empty(); ++s)
            eq.step();

        auto nvm = ctrl->nvmStoreHandle();
        ctrl->crash();
        eq.clear();

        ctrl = std::make_unique<ShadowController>(eq, "ctrl", cfg, nvm);
        bool recovered = false;
        ctrl->recover([&] { recovered = true; });
        eq.runUntil([&] { return recovered; });

        const auto img = snapshotImage(*ctrl);
        const bool matches_any =
            img == drv.golden[0] || img == drv.golden[1] ||
            img == drv.mirror;
        EXPECT_TRUE(matches_any) << "shadow seed " << seed
                                 << ": torn recovery image";
    }
}

// ---------------------------------------------------------------------
// Backend-parameterized recovery-idempotence / double-crash sweep.
// ---------------------------------------------------------------------

/**
 * The properties every SystemKind must satisfy under repeated power
 * failures, swept over each crash site the backend announces:
 *
 *  - Idempotence: recover, then crash again before any new work, then
 *    recover again — the second recovery restores the byte-identical
 *    image and the identical architectural op count. A crashed machine
 *    whose recovery changes the recovery target would lose data on the
 *    second failure.
 *  - Boundary discipline (checkpointing kinds): the restored op count
 *    is a snapshot actually taken at an epoch boundary, and the
 *    recovered image equals the golden replay of exactly that prefix.
 *  - Liveness: the third life resumes and runs to completion, and its
 *    final image equals the recovered image plus everything it stored.
 *
 * Checkpointing kinds also run at two channels, where a crash between
 * the channels' commit headers leaves one channel an epoch ahead, so
 * recovery rolls its commit record back (recoverTo) and the re-crash
 * checks that the rollback is itself durable.
 */
struct SweepPlan
{
    std::string site; //!< empty: tick-based mid-run crash
    std::uint64_t hit = 0;
    Tick delta = 0;
};

/** Crash tick of @p plan on a multi-channel machine. */
Tick
profileCrashTick(const fuzz::FuzzerConfig& fc, SystemKind kind,
                 unsigned channels, std::uint64_t seed,
                 const SweepPlan& plan)
{
    CrashPointRegistry reg;
    reg.arm(plan.site, plan.hit, plan.delta);
    MicroWorkload inner(fuzz::microParams(fc, seed, "rand"));
    fuzz::RecordingWorkload wl(inner);
    SystemConfig cfg = fuzz::makeSystemConfig(fc, kind, true, channels);
    cfg.crash_points = &reg;
    System sys(cfg, wl);
    sys.start();
    sys.run(fc.run_limit, [&reg] { return reg.fired(); });
    EXPECT_TRUE(reg.fired())
        << plan.site << " did not fire on the armed profile run";
    return reg.crashTick();
}

struct BackendCase
{
    SystemKind kind;
    unsigned channels;
};

/** Names the ctest "shadow" at one channel, "shadow_ch2" at two. */
void
PrintTo(const BackendCase& c, std::ostream* os)
{
    PrintTo(c.kind, os);
    if (c.channels != 1)
        *os << "_ch" << c.channels;
}

class BackendCrashSweepTest : public ::testing::TestWithParam<BackendCase>
{};

TEST_P(BackendCrashSweepTest, DoubleCrashRecoveryIsIdempotent)
{
    using namespace fuzz;
    const auto [kind, channels] = GetParam();
    const FuzzerConfig fc;
    const std::uint64_t seed =
        test::loggedSeed("crash_property.sweep", 11);

    // Crash plans: every site the backend announces on this run, at
    // its last hit. The ideal kinds announce no sites (no checkpoint
    // machinery) and get one mid-run crash instead.
    const std::map<std::string, std::uint64_t> sites =
        enumerateSites(fc, seed, "rand", kind, true, channels);
    std::vector<SweepPlan> plans;
    for (const auto& [site, hits] : sites)
        plans.push_back({site, hits, 0});
    if (isCheckpointingKind(kind)) {
        ASSERT_GE(plans.size(), 5u)
            << systemToken(kind) << " announces too few crash sites";
    } else {
        ASSERT_TRUE(plans.empty());
        plans.push_back({}); // tick-based crash
    }
    if (channels > 1) {
        // No site sits between the channels' commit headers, so also
        // crash at evenly spaced ticks from a phase-0 barrier (headers
        // not yet written) to its phase-1 barrier (all durable), in the
        // first, middle and last epoch. Where one channel's header
        // lands first, some of these leave it an epoch ahead.
        const std::uint64_t n = sites.at("group.all_staged");
        for (std::uint64_t hit : std::set<std::uint64_t>{1, (n + 1) / 2, n}) {
            const Tick staged = profileCrashTick(
                fc, kind, channels, seed, {"group.all_staged", hit, 0});
            const Tick committed = profileCrashTick(
                fc, kind, channels, seed, {"group.all_committed", hit, 0});
            ASSERT_LT(staged, committed);
            constexpr unsigned kSteps = 8;
            for (unsigned i = 1; i < kSteps; ++i) {
                plans.push_back({"group.all_staged", hit,
                                 (committed - staged) * i / kSteps});
            }
        }
    }

    for (const SweepPlan& plan : plans) {
        const std::string& site = plan.site;
        SCOPED_TRACE(std::string(systemToken(kind)) + " site=" +
                     (site.empty() ? "<mid-run>" : site) +
                     " hit=" + std::to_string(plan.hit) +
                     " delta=" + std::to_string(plan.delta));

        // Life 1: run into the crash.
        MicroWorkload inner1(microParams(fc, seed, "rand"));
        RecordingWorkload wl1(inner1);
        SystemConfig cfg = makeSystemConfig(fc, kind, true, channels);
        CrashPointRegistry reg;
        if (!site.empty()) {
            reg.arm(site, plan.hit, plan.delta);
            cfg.crash_points = &reg;
        }
        System sys(cfg, wl1);
        sys.start();
        const std::vector<std::uint8_t> base = captureImage(sys, fc.phys_size);
        EventQueue& eq = sys.eventq();
        if (!site.empty() && channels > 1) {
            sys.runTo(profileCrashTick(fc, kind, channels, seed, plan));
        } else if (!site.empty()) {
            while (!sys.finished() && !reg.fired() && !eq.empty() &&
                   eq.now() < fc.run_limit) {
                eq.step();
            }
            ASSERT_TRUE(reg.fired())
                << "enumerated site did not fire on the armed replay";
            while (!eq.empty() && eq.nextTick() <= reg.crashTick())
                eq.step();
        } else {
            while (!sys.finished() && !eq.empty() &&
                   eq.now() < fc.run_limit &&
                   wl1.opCount() < fc.total_accesses / 2) {
                eq.step();
            }
        }
        const std::uint64_t commits =
            sys.controller().completedEpochs();
        std::shared_ptr<BackingStore> nvm = sys.crash();

        // Life 2: recover, capture, and pull the plug again before a
        // single new instruction retires.
        MicroWorkload inner2(microParams(fc, seed, "rand"));
        RecordingWorkload wl2(inner2);
        System sys2(makeSystemConfig(fc, kind, true, channels), wl2,
                    std::move(nvm));
        sys2.recoverAndResume();
        const std::uint64_t restored2 =
            wl2.wasRestored() ? wl2.restoredCount() : 0;
        const std::vector<std::uint8_t> img_a =
            captureImage(sys2, fc.phys_size);
        std::shared_ptr<BackingStore> nvm2 = sys2.crash();

        // Life 3: recover from the re-crashed image.
        MicroWorkload inner3(microParams(fc, seed, "rand"));
        RecordingWorkload wl3(inner3);
        System sys3(makeSystemConfig(fc, kind, true, channels), wl3,
                    std::move(nvm2));
        sys3.recoverAndResume();
        const std::uint64_t restored3 =
            wl3.wasRestored() ? wl3.restoredCount() : 0;
        const std::vector<std::uint8_t> img_b =
            captureImage(sys3, fc.phys_size);

        EXPECT_EQ(restored2, restored3)
            << "second recovery restored a different epoch boundary";
        EXPECT_EQ(img_a, img_b)
            << "recovery is not idempotent under an immediate re-crash";

        if (isCheckpointingKind(kind)) {
            // Boundary discipline against the recorded store trace.
            const auto& snaps = wl1.snapshotCounts();
            if (restored2 == 0) {
                EXPECT_EQ(commits, 0u);
            } else {
                EXPECT_TRUE(std::find(snaps.begin(), snaps.end(),
                                      restored2) != snaps.end())
                    << "restored op count " << restored2
                    << " is not a snapshotted epoch boundary";
            }
            std::vector<std::uint8_t> golden = base;
            applyStores(golden, wl1.stores(), restored2);
            EXPECT_EQ(img_a, golden)
                << "recovered image diverges from the golden prefix";
        }

        // Liveness: the third life must finish, and its final image is
        // the recovered image plus everything it stored.
        sys3.run(fc.run_limit);
        ASSERT_TRUE(sys3.finished())
            << "resumed execution stalled after the double crash";
        std::vector<std::uint8_t> want = img_b;
        applyStores(want, wl3.stores(), ~0ull);
        EXPECT_EQ(captureImage(sys3, fc.phys_size), want);
    }
}

/** Every kind at one channel, the checkpointing kinds also at two. */
std::vector<BackendCase>
sweepParams()
{
    std::vector<BackendCase> params;
    for (unsigned channels : {1u, 2u}) {
        for (SystemKind kind : kAllSystemKinds) {
            if (channels == 1 || isCheckpointingKind(kind))
                params.push_back({kind, channels});
        }
    }
    return params;
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendCrashSweepTest,
                         ::testing::ValuesIn(sweepParams()));

} // namespace
} // namespace thynvm
