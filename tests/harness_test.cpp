/**
 * @file
 * Tests for the System harness: wiring, metrics extraction, functional
 * view coherence, and workload snapshot semantics under checkpointing.
 */

#include "tests/test_util.hh"

#include <algorithm>

#include "fuzz/fuzzer.hh"
#include "harness/system.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

namespace thynvm {
namespace {

SystemConfig
tinySystem(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.phys_size = 2u << 20;
    cfg.epoch_length = 300 * kMicrosecond;
    cfg.thynvm.btt_entries = 256;
    cfg.thynvm.ptt_entries = 512;
    return cfg;
}

TEST(HarnessTest, MetricsAreConsistent)
{
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Sliding;
    mp.array_bytes = 1u << 20;
    mp.total_accesses = 5000;
    MicroWorkload wl(mp);
    System sys(tinySystem(SystemKind::ThyNvm), wl);
    sys.start();
    sys.run(2 * kSecond);
    ASSERT_TRUE(sys.finished());

    const auto m = sys.metrics();
    EXPECT_GT(m.exec_time, 0u);
    EXPECT_GT(m.instructions, 5000u);
    EXPECT_GT(m.ipc, 0.0);
    EXPECT_LE(m.ipc, 1.0);
    EXPECT_EQ(m.nvm_wr_total,
              m.nvm_wr_cpu + m.nvm_wr_ckpt + m.nvm_wr_migration);
    EXPECT_GE(m.ckpt_time_frac, 0.0);
    EXPECT_LT(m.ckpt_time_frac, 1.0);
}

TEST(HarnessTest, FunctionalViewSeesThroughCaches)
{
    // A store that is still dirty in L1 must be visible through the
    // functional view but not yet at the controller.
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Streaming;
    mp.array_bytes = 64 * 1024;
    mp.read_fraction = 0.0; // all writes
    mp.total_accesses = 64;
    MicroWorkload wl(mp);
    System sys(tinySystem(SystemKind::ThyNvm), wl);
    sys.start();
    sys.run(2 * kSecond);
    ASSERT_TRUE(sys.finished());

    std::vector<std::uint8_t> via_caches(64 * kBlockSize);
    sys.functionalView()(0, via_caches.data(), via_caches.size());
    // The streaming writer writes nonzero patterns; the view must show
    // them even though nothing forced a writeback yet.
    bool nonzero = false;
    for (auto b : via_caches)
        nonzero |= (b != 0);
    EXPECT_TRUE(nonzero);
}

TEST(HarnessTest, EverySystemRunsTheSameWorkloadToCompletion)
{
    for (SystemKind kind :
         {SystemKind::IdealDram, SystemKind::IdealNvm,
          SystemKind::Journal, SystemKind::Shadow, SystemKind::ThyNvm}) {
        MicroWorkload::Params mp;
        mp.pattern = MicroWorkload::Pattern::Random;
        mp.array_bytes = 512 * 1024;
        mp.total_accesses = 2000;
        MicroWorkload wl(mp);
        System sys(tinySystem(kind), wl);
        sys.start();
        sys.run(4 * kSecond);
        EXPECT_TRUE(sys.finished()) << systemKindName(kind);
        EXPECT_GT(sys.metrics().instructions, 2000u)
            << systemKindName(kind);
    }
}

TEST(HarnessTest, SystemKindNamesAreUnique)
{
    std::set<std::string> names, tokens;
    for (SystemKind kind : kAllSystemKinds) {
        names.insert(systemKindName(kind));
        tokens.insert(systemToken(kind));
    }
    EXPECT_EQ(names.size(), kSystemKindCount);
    EXPECT_EQ(tokens.size(), kSystemKindCount);
}

TEST(HarnessTest, SystemKindTokensRoundTrip)
{
    for (SystemKind kind : kAllSystemKinds) {
        SystemKind parsed = SystemKind::ThyNvm;
        ASSERT_TRUE(systemKindFromToken(systemToken(kind), parsed))
            << systemToken(kind);
        EXPECT_EQ(parsed, kind) << systemToken(kind);
    }
    SystemKind untouched = SystemKind::Icl;
    for (const char* bad : {"", "bogus", "ThyNVM", "ideal", "thynvm "})
        EXPECT_FALSE(systemKindFromToken(bad, untouched)) << bad;
    EXPECT_EQ(untouched, SystemKind::Icl);
}

TEST(HarnessTest, PaperSystemsAreTheFiveInFigureOrder)
{
    const std::vector<SystemKind> want = {
        SystemKind::IdealDram, SystemKind::Journal, SystemKind::Shadow,
        SystemKind::ThyNvm, SystemKind::IdealNvm};
    EXPECT_EQ(std::vector<SystemKind>(kPaperSystemKinds.begin(),
                                      kPaperSystemKinds.end()),
              want);
}

TEST(HarnessTest, KvSnapshotCapturesMidTransactionState)
{
    // Pause-style snapshot/restore in the middle of a transaction's op
    // stream must resume exactly, not re-plan.
    KvWorkload::Params p;
    p.phys_size = 2u << 20;
    p.value_size = 64;
    p.initial_keys = 100;
    p.key_space = 400;
    p.total_txns = 50;
    KvWorkload a(p);
    HostMemSpace img(p.phys_size);
    KvWorkload::runReference(p, 0, img); // initial image only
    a.setFunctionalView([&img](Addr addr, void* buf, std::size_t len) {
        img.read(addr, buf, len);
    });

    WorkOp op;
    for (int i = 0; i < 17; ++i)
        ASSERT_TRUE(a.next(op));
    auto blob = a.snapshot();

    KvWorkload b(p);
    b.setFunctionalView([&img](Addr addr, void* buf, std::size_t len) {
        img.read(addr, buf, len);
    });
    b.restore(blob);

    // Both must produce the identical remaining op stream (as long as
    // no new planning happens against the static image).
    WorkOp oa, ob;
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(a.next(oa));
        ASSERT_TRUE(b.next(ob));
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
        EXPECT_EQ(oa.size, ob.size);
    }
}

TEST(HarnessTest, SpecSnapshotRoundTrip)
{
    const auto& prof = specProfile("gcc");
    SpecWorkload a(prof, 0, 10000, 4);
    WorkOp op;
    for (int i = 0; i < 200; ++i)
        a.next(op);
    auto blob = a.snapshot();
    SpecWorkload b(prof, 0, 10000, 4);
    b.restore(blob);
    WorkOp oa, ob;
    while (true) {
        const bool ra = a.next(oa);
        const bool rb = b.next(ob);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
    }
}

TEST(HarnessTest, ExplicitPersistenceInterface)
{
    // Paper §6: software can force an epoch boundary to get an explicit
    // persistence point. Verify a forced boundary commits promptly.
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Random;
    mp.array_bytes = 256 * 1024;
    mp.total_accesses = 0; // unbounded
    MicroWorkload wl(mp);
    auto cfg = tinySystem(SystemKind::ThyNvm);
    cfg.epoch_length = 100 * kMillisecond; // timer far away
    System sys(cfg, wl);
    sys.start();
    sys.run(50 * kMicrosecond);

    auto& ctrl = static_cast<ThyNvmController&>(sys.controller());
    EXPECT_EQ(ctrl.completedEpochs(), 0u);
    ctrl.requestEpochEnd();
    sys.run(5 * kMillisecond);
    EXPECT_GE(ctrl.completedEpochs(), 1u);
}

/** Read the full physical image through the functional view. */
std::vector<std::uint8_t>
fullImage(System& sys, std::size_t phys_size)
{
    std::vector<std::uint8_t> img(phys_size);
    sys.functionalView()(0, img.data(), img.size());
    return img;
}

/**
 * Step the system into an armed crash plan and drain to the planned
 * crash tick. @return false if the plan never fired.
 */
bool
runToCrashPlan(System& sys, CrashPointRegistry& reg,
               Tick extra = 200 * kMillisecond)
{
    EventQueue& eq = sys.eventq();
    const Tick limit = eq.now() + extra;
    while (!sys.finished() && !reg.fired() && !eq.empty() &&
           eq.now() < limit) {
        eq.step();
    }
    if (!reg.fired())
        return false;
    while (!eq.empty() && eq.nextTick() <= reg.crashTick())
        eq.step();
    return true;
}

/**
 * Double crash: power fails again during the checkpoint pipeline of the
 * *resumed* run — including the very first post-recovery checkpoint,
 * both before and after its commit point. The third boot must recover
 * a consistent lineage image: never older than the first recovery, and
 * exactly base + stores(<R1) + resumed stores(<R2).
 */
TEST(HarnessTest, DoubleCrashDuringResumedCheckpoint)
{
    const fuzz::FuzzerConfig fc;
    for (const char* second_site :
         {"ckpt.pre_commit_header", "ckpt.committed"}) {
        SCOPED_TRACE(second_site);

        // Life 1: crash right as the second checkpoint commits.
        CrashPointRegistry reg1;
        reg1.arm("ckpt.committed", 2, 0);
        MicroWorkload inner1(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wl1(inner1);
        SystemConfig cfg1 =
            fuzz::makeSystemConfig(fc, SystemKind::ThyNvm, true);
        cfg1.crash_points = &reg1;
        System sys1(cfg1, wl1);
        sys1.start();
        std::vector<std::uint8_t> golden = fullImage(sys1, fc.phys_size);
        ASSERT_TRUE(runToCrashPlan(sys1, reg1));
        std::shared_ptr<BackingStore> nvm1 = sys1.crash();

        // Life 2: recover, then crash again in the first checkpoint of
        // the resumed execution.
        CrashPointRegistry reg2;
        reg2.arm(second_site, 1, 0);
        MicroWorkload inner2(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wl2(inner2);
        SystemConfig cfg2 =
            fuzz::makeSystemConfig(fc, SystemKind::ThyNvm, true);
        cfg2.crash_points = &reg2;
        System sys2(cfg2, wl2, std::move(nvm1));
        sys2.recoverAndResume();
        ASSERT_TRUE(wl2.wasRestored());
        const std::uint64_t r1 = wl2.restoredCount();
        ASSERT_GT(r1, 0u);
        ASSERT_TRUE(runToCrashPlan(sys2, reg2));
        std::shared_ptr<BackingStore> nvm2 = sys2.crash();

        // Life 3: recover again and check the lineage.
        MicroWorkload inner3(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wl3(inner3);
        SystemConfig cfg3 =
            fuzz::makeSystemConfig(fc, SystemKind::ThyNvm, true);
        System sys3(cfg3, wl3, std::move(nvm2));
        sys3.recoverAndResume();
        ASSERT_TRUE(wl3.wasRestored());
        const std::uint64_t r2 = wl3.restoredCount();

        // Monotone: a later crash never recovers to an older boundary.
        EXPECT_GE(r2, r1);
        if (std::string(second_site) == "ckpt.pre_commit_header") {
            // The resumed checkpoint had not committed: the third boot
            // lands exactly where the second one did.
            EXPECT_EQ(r2, r1);
        } else {
            // It had committed: the restored count is one of the
            // resumed run's own snapshots.
            const auto& snaps = wl2.snapshotCounts();
            EXPECT_NE(std::find(snaps.begin(), snaps.end(), r2),
                      snaps.end());
        }

        fuzz::applyStores(golden, wl1.stores(), r1);
        fuzz::applyStores(golden, wl2.stores(), r2);
        EXPECT_TRUE(fullImage(sys3, fc.phys_size) == golden)
            << "third boot recovered a torn or stale lineage image";

        // And the lineage still runs to completion.
        sys3.run(fc.run_limit);
        ASSERT_TRUE(sys3.finished());
        fuzz::applyStores(golden, wl3.stores(), ~0ull);
        EXPECT_TRUE(fullImage(sys3, fc.phys_size) == golden);
    }
}

/**
 * recoverAndResume() must be idempotent on the same NVM image: two
 * independent recoveries of the same crashed store agree byte for
 * byte, and a recovery that itself loses power immediately leaves the
 * store recoverable to the identical state. The journal baseline is
 * the sharp case — its recovery *mutates* NVM (redo replay + applied
 * marker) — but the contract holds for every system.
 */
TEST(HarnessTest, RecoveryIsIdempotentOnSameStore)
{
    const fuzz::FuzzerConfig fc;
    struct Scenario
    {
        SystemKind kind;
        const char* site;
        std::uint64_t hit;
    };
    // Sites chosen mid-pipeline: ThyNVM mid-BTT-persist, journal after
    // commit but before apply (forces the NVM-mutating replay path),
    // shadow just before the slot flip.
    const Scenario scenarios[] = {
        {SystemKind::ThyNvm, "ckpt.persist_btt", 2},
        {SystemKind::Journal, "ckpt.apply_block", 1},
        {SystemKind::Shadow, "ckpt.pre_slot_flip", 2},
    };

    for (const Scenario& sc : scenarios) {
        SCOPED_TRACE(systemKindName(sc.kind));

        CrashPointRegistry reg;
        reg.arm(sc.site, sc.hit, 0);
        MicroWorkload inner1(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wl1(inner1);
        SystemConfig cfg = fuzz::makeSystemConfig(fc, sc.kind, true);
        cfg.crash_points = &reg;
        System sys1(cfg, wl1);
        sys1.start();
        ASSERT_TRUE(runToCrashPlan(sys1, reg));
        std::shared_ptr<BackingStore> nvm = sys1.crash();
        std::shared_ptr<BackingStore> nvm_copy = nvm->clone();

        const SystemConfig plain =
            fuzz::makeSystemConfig(fc, sc.kind, true);

        // Two independent recoveries of the same crashed image.
        MicroWorkload ia(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wa(ia);
        System sa(plain, wa, nvm);
        sa.recoverAndResume();
        const auto img_a = fullImage(sa, fc.phys_size);

        MicroWorkload ib(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wb(ib);
        System sb(plain, wb, std::move(nvm_copy));
        sb.recoverAndResume();
        EXPECT_EQ(wa.restoredCount(), wb.restoredCount());
        EXPECT_TRUE(fullImage(sb, fc.phys_size) == img_a)
            << "independent recoveries of the same store diverge";
        ASSERT_GT(wa.restoredCount(), 0u);

        // Power fails again right after recovery completed: a third
        // boot on what the first recovery wrote back must land in the
        // identical state.
        std::shared_ptr<BackingStore> nvm2 = sa.crash();
        MicroWorkload ic(fuzz::microParams(fc, 1, "rand"));
        fuzz::RecordingWorkload wc(ic);
        System sys3(plain, wc, std::move(nvm2));
        sys3.recoverAndResume();
        EXPECT_EQ(wc.restoredCount(), wa.restoredCount());
        EXPECT_TRUE(fullImage(sys3, fc.phys_size) == img_a)
            << "re-recovery after a post-recovery crash diverged";
    }
}

} // namespace
} // namespace thynvm
