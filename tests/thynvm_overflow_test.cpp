/**
 * @file
 * Targeted tests for the ThyNVM overflow buffer: spill, coalescing,
 * incremental logging across backup-area toggles, retirement to Home,
 * back-pressure, and crash recovery of buffered blocks.
 */

#include "tests/test_util.hh"

#include "core/thynvm_controller.hh"

namespace thynvm {
namespace {

using test::loadBlock;
using test::patternBlock;
using test::storeBlock;

ThyNvmConfig
tinyConfig()
{
    ThyNvmConfig cfg;
    cfg.phys_size = 256 * 1024;
    cfg.btt_entries = 4;
    cfg.ptt_entries = 2;
    cfg.overflow_entries = 32;
    cfg.overflow_stall_watermark = 24;
    cfg.epoch_length = 500 * kMicrosecond;
    cfg.promote_threshold = 1000; // keep everything on the block path
    return cfg;
}

struct OverflowTest : public ::testing::Test
{
    OverflowTest() { rebuild(nullptr); }

    void
    rebuild(std::shared_ptr<BackingStore> nvm)
    {
        ctrl = std::make_unique<ThyNvmController>(eq, "ctrl",
                                                  tinyConfig(), nvm);
    }

    void
    checkpoint()
    {
        const auto epochs = ctrl->completedEpochs();
        ctrl->requestEpochEnd();
        eq.runUntil([&] {
            return ctrl->completedEpochs() >= epochs + 1 &&
                   !ctrl->checkpointInProgress();
        });
    }

    void
    crashAndRecover()
    {
        auto nvm = ctrl->nvmStoreHandle();
        ctrl->crash();
        eq.clear();
        rebuild(nvm);
        bool done = false;
        ctrl->recover([&] { done = true; });
        eq.runUntil([&] { return done; });
        ctrl->start();
    }

    double stat(const char* name) { return ctrl->stats().value(name); }

    EventQueue eq;
    std::unique_ptr<ThyNvmController> ctrl;
};

TEST_F(OverflowTest, SpillBeyondBttStaysVisible)
{
    ctrl->start();
    for (unsigned i = 0; i < 12; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    EXPECT_GT(stat("overflow_blocks"), 0.0);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kPageSize), patternBlock(i));
}

TEST_F(OverflowTest, OverflowStoresCoalesce)
{
    ctrl->start();
    // Fill the BTT, then hammer one spilled block.
    for (unsigned i = 0; i < 6; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    for (unsigned v = 0; v < 5; ++v)
        storeBlock(eq, *ctrl, 10 * kPageSize, patternBlock(100 + v));
    EXPECT_EQ(loadBlock(eq, *ctrl, 10 * kPageSize), patternBlock(104));
}

TEST_F(OverflowTest, BufferedBlocksSurviveCrashAfterCommit)
{
    ctrl->start();
    for (unsigned i = 0; i < 12; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    checkpoint();
    crashAndRecover();
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kPageSize), patternBlock(i));
}

TEST_F(OverflowTest, UnchangedEntriesSurviveMultipleToggles)
{
    ctrl->start();
    // Create spilled blocks, then run several empty checkpoints so the
    // incremental log skips them repeatedly across both backup areas.
    for (unsigned i = 0; i < 12; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    for (unsigned e = 0; e < 5; ++e)
        checkpoint();
    crashAndRecover();
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kPageSize), patternBlock(i));
}

TEST_F(OverflowTest, RetirementDrainsBufferToHome)
{
    ctrl->start();
    for (unsigned i = 0; i < 12; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    // First checkpoint logs the spilled blocks; the second retires
    // them home; later ones leave the buffer empty.
    checkpoint();
    checkpoint();
    checkpoint();
    EXPECT_GT(ctrl->nvmDevice()->writeBytes(TrafficSource::Migration), 0u);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kPageSize), patternBlock(i));
    // After retirement, the data must be durable at home even across
    // a crash with no overflow log entries.
    crashAndRecover();
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kPageSize), patternBlock(i));
}

TEST_F(OverflowTest, RewrittenEntryRelogsCurrentData)
{
    ctrl->start();
    for (unsigned i = 0; i < 12; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    checkpoint();
    // Rewrite one spilled block (it may be in the buffer or retired by
    // now; either path must carry the new value through commits).
    storeBlock(eq, *ctrl, 11 * kPageSize, patternBlock(999));
    checkpoint();
    crashAndRecover();
    EXPECT_EQ(loadBlock(eq, *ctrl, 11 * kPageSize), patternBlock(999));
}

TEST_F(OverflowTest, BackPressureStallsButCompletes)
{
    ctrl->start();
    // Exceed the stall watermark: stores must still complete (after
    // forced epochs recycle capacity) and keep their data.
    for (unsigned i = 0; i < 40; ++i)
        storeBlock(eq, *ctrl, i * 2 * kPageSize % (256 * 1024),
                   patternBlock(i));
    eq.runUntil([&] { return !ctrl->checkpointInProgress(); });
    EXPECT_GE(ctrl->completedEpochs(), 1u);
    for (unsigned i = 0; i < 40; ++i) {
        const Addr a = i * 2 * kPageSize % (256 * 1024);
        // Later stores may alias earlier addresses; recompute the last
        // writer of this address.
        unsigned last = i;
        for (unsigned j = i + 1; j < 40; ++j) {
            if (j * 2 * kPageSize % (256 * 1024) == a)
                last = j;
        }
        EXPECT_EQ(loadBlock(eq, *ctrl, a), patternBlock(last));
    }
}

TEST_F(OverflowTest, CrashBeforeFirstCommitLosesNothingCommitted)
{
    auto img = patternBlock(42);
    ctrl->loadImage(3 * kPageSize, img.data(), kBlockSize);
    ctrl->start();
    for (unsigned i = 0; i < 12; ++i)
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    // No checkpoint: everything rolls back to the initial image.
    crashAndRecover();
    EXPECT_EQ(loadBlock(eq, *ctrl, 3 * kPageSize), img);
    EXPECT_EQ(loadBlock(eq, *ctrl, 5 * kPageSize),
              (std::array<std::uint8_t, kBlockSize>{}));
}

} // namespace
} // namespace thynvm
