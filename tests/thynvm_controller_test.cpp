/**
 * @file
 * Integration tests for the ThyNVM controller, driven directly at the
 * block interface (no CPU/caches): store/load paths, both
 * checkpointing schemes, scheme switching, overflow handling, and
 * crash recovery.
 */

#include "tests/test_util.hh"

#include "core/thynvm_controller.hh"

namespace thynvm {
namespace {

using test::loadBlock;
using test::patternBlock;
using test::storeBlock;

ThyNvmConfig
smallConfig()
{
    ThyNvmConfig cfg;
    cfg.phys_size = 256 * 1024;
    cfg.btt_entries = 64;
    cfg.ptt_entries = 8;
    cfg.epoch_length = 200 * kMicrosecond;
    return cfg;
}

struct ThyNvmTest : public ::testing::Test
{
    ThyNvmTest() { rebuild(smallConfig()); }

    void
    rebuild(const ThyNvmConfig& cfg,
            std::shared_ptr<BackingStore> nvm = nullptr)
    {
        ctrl = std::make_unique<ThyNvmController>(eq, "ctrl", cfg,
                                                  std::move(nvm));
    }

    /** Trigger an epoch boundary and run the checkpoint to commit. */
    void
    checkpoint()
    {
        const auto epochs = ctrl->completedEpochs();
        ctrl->requestEpochEnd();
        eq.runUntil([&] {
            return ctrl->completedEpochs() == epochs + 1 &&
                   !ctrl->checkpointInProgress();
        });
    }

    EventQueue eq;
    std::unique_ptr<ThyNvmController> ctrl;
};

TEST_F(ThyNvmTest, LoadFromHomeRegion)
{
    auto img = patternBlock(1);
    ctrl->loadImage(4096, img.data(), kBlockSize);
    ctrl->start();
    EXPECT_EQ(loadBlock(eq, *ctrl, 4096), img);
    EXPECT_EQ(ctrl->bttLive(), 0u); // reads allocate nothing
}

TEST_F(ThyNvmTest, StoreCreatesBttEntryAndRemapsInNvm)
{
    ctrl->start();
    auto data = patternBlock(2);
    storeBlock(eq, *ctrl, 8192, data);
    EXPECT_EQ(ctrl->bttLive(), 1u);
    EXPECT_EQ(loadBlock(eq, *ctrl, 8192), data);

    // The home copy must be untouched: the working copy was remapped
    // into Checkpoint Region A.
    std::uint8_t home[kBlockSize];
    ctrl->nvmDevice()->store().read(ctrl->layout().homeAddr(8192), home,
                             kBlockSize);
    EXPECT_EQ(std::memcmp(home, data.data(), kBlockSize) != 0, true);
}

TEST_F(ThyNvmTest, StoreCoalescesInPlace)
{
    ctrl->start();
    storeBlock(eq, *ctrl, 0, patternBlock(1));
    storeBlock(eq, *ctrl, 0, patternBlock(2));
    storeBlock(eq, *ctrl, 0, patternBlock(3));
    EXPECT_EQ(ctrl->bttLive(), 1u);
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), patternBlock(3));
}

TEST_F(ThyNvmTest, CheckpointCommitsAndDataSurvives)
{
    ctrl->start();
    auto data = patternBlock(5);
    storeBlock(eq, *ctrl, 4096, data);
    checkpoint();
    EXPECT_EQ(ctrl->completedEpochs(), 1u);
    EXPECT_EQ(loadBlock(eq, *ctrl, 4096), data);
}

TEST_F(ThyNvmTest, BlockCheckpointIsMetadataOnly)
{
    ctrl->start();
    storeBlock(eq, *ctrl, 4096, patternBlock(5));
    const auto ckpt_bytes_before =
        ctrl->nvmDevice()->writeBytes(TrafficSource::Checkpoint);
    checkpoint();
    const auto ckpt_bytes =
        ctrl->nvmDevice()->writeBytes(TrafficSource::Checkpoint) -
        ckpt_bytes_before;
    // Only table images, the overflow live-slot bitmap, and the header
    // are written — no data blocks. The BTT+PTT image is (64+8)*16 B.
    const auto cfg = smallConfig();
    const auto expected_metadata =
        roundUp(64 * 16, kBlockSize) + roundUp(8 * 16, kBlockSize) +
        roundUp((cfg.overflow_entries + 7) / 8, kBlockSize) +
        kBlockSize /* cpu len */ + kBlockSize /* header */;
    EXPECT_EQ(ckpt_bytes, expected_metadata);
}

TEST_F(ThyNvmTest, EpochTimerFiresAutomatically)
{
    ctrl->start();
    storeBlock(eq, *ctrl, 0, patternBlock(1));
    eq.run(eq.now() + 5 * smallConfig().epoch_length);
    EXPECT_GE(ctrl->completedEpochs(), 2u);
}

TEST_F(ThyNvmTest, VersionsAlternateAcrossEpochs)
{
    ctrl->start();
    for (std::uint64_t e = 1; e <= 6; ++e) {
        auto data = patternBlock(100 + e);
        storeBlock(eq, *ctrl, 64 * 64, data);
        checkpoint();
        EXPECT_EQ(loadBlock(eq, *ctrl, 64 * 64), data);
    }
}

TEST_F(ThyNvmTest, StoreDuringCheckpointIsBuffered)
{
    ctrl->start();
    auto v1 = patternBlock(1);
    storeBlock(eq, *ctrl, 0, v1);
    // Begin a checkpoint but do not let it finish.
    ctrl->requestEpochEnd();
    eq.runUntil([&] { return ctrl->checkpointInProgress(); });

    // A store to the same block while its version is being committed
    // must not corrupt either NVM slot.
    auto v2 = patternBlock(2);
    storeBlock(eq, *ctrl, 0, v2);
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), v2);

    eq.runUntil([&] { return !ctrl->checkpointInProgress(); });
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), v2);

    // And the buffered copy drains correctly at the next checkpoint.
    checkpoint();
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), v2);
}

TEST_F(ThyNvmTest, HotPageIsPromotedToPageWriteback)
{
    auto cfg = smallConfig();
    rebuild(cfg);
    ctrl->start();
    // More stores than the promote threshold to one page, spread over
    // distinct blocks.
    for (unsigned i = 0; i < 32; ++i)
        storeBlock(eq, *ctrl, 8 * kPageSize + (i % 64) * kBlockSize,
                   patternBlock(i));
    EXPECT_EQ(ctrl->pttLive(), 0u);
    checkpoint();
    EXPECT_EQ(ctrl->pttLive(), 1u);

    // Data is still visible through the DRAM page.
    for (unsigned i = 0; i < 32; ++i) {
        EXPECT_EQ(loadBlock(eq, *ctrl,
                            8 * kPageSize + (i % 64) * kBlockSize),
                  patternBlock(i));
    }
    // Blocks absorbed into the page free their BTT entries after the
    // page's first commit.
    checkpoint();
    EXPECT_EQ(ctrl->bttLive(), 0u);
}

TEST_F(ThyNvmTest, PromotedPageSurvivesCheckpointCycles)
{
    ctrl->start();
    for (unsigned i = 0; i < 30; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    checkpoint(); // promotion of page 0
    ASSERT_EQ(ctrl->pttLive(), 1u);

    // Keep the page hot for several epochs.
    for (unsigned e = 0; e < 4; ++e) {
        for (unsigned i = 0; i < 30; ++i)
            storeBlock(eq, *ctrl, i * kBlockSize,
                       patternBlock(1000 * e + i));
        checkpoint();
    }
    for (unsigned i = 0; i < 30; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kBlockSize),
                  patternBlock(3000 + i));
}

TEST_F(ThyNvmTest, SparselyWrittenPageIsDemoted)
{
    ctrl->start();
    for (unsigned i = 0; i < 30; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    checkpoint();
    ASSERT_EQ(ctrl->pttLive(), 1u);

    // Epochs with sparse (low-locality) writes: the page switches back
    // to block remapping (§3.4).
    auto sparse = patternBlock(99);
    for (unsigned e = 0; e < 4 && ctrl->pttLive() > 0; ++e) {
        storeBlock(eq, *ctrl, 0, sparse);
        checkpoint();
    }
    EXPECT_EQ(ctrl->pttLive(), 0u);
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), sparse);
    for (unsigned i = 1; i < 30; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kBlockSize), patternBlock(i));
}

TEST_F(ThyNvmTest, IdleCleanPageKeepsResidencyWithoutPressure)
{
    ctrl->start();
    for (unsigned i = 0; i < 30; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    checkpoint();
    ASSERT_EQ(ctrl->pttLive(), 1u);
    // Idle epochs with a near-empty PTT: the page stays resident,
    // preserving DRAM locality for future accesses.
    for (unsigned e = 0; e < 4; ++e)
        checkpoint();
    EXPECT_EQ(ctrl->pttLive(), 1u);
    for (unsigned i = 0; i < 30; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kBlockSize), patternBlock(i));
}

TEST_F(ThyNvmTest, BttOverflowForcesEpochAndStoreCompletes)
{
    auto cfg = smallConfig();
    cfg.btt_entries = 8;
    cfg.promote_threshold = 1000; // no promotions
    rebuild(cfg);
    ctrl->start();
    // Touch more distinct pages' blocks than the BTT can hold; the
    // capacity watermark must force an early epoch (§4.3), with the
    // excess spilling to the overflow buffer.
    for (unsigned i = 0; i < 24; ++i) {
        storeBlock(eq, *ctrl, i * kPageSize, patternBlock(i));
    }
    eq.runUntil([&] {
        return ctrl->completedEpochs() >= 1 &&
               !ctrl->checkpointInProgress();
    });
    EXPECT_GE(ctrl->completedEpochs(), 1u);
    for (unsigned i = 0; i < 24; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kPageSize), patternBlock(i));
}

TEST_F(ThyNvmTest, FunctionalReadMatchesLoads)
{
    ctrl->start();
    auto data = patternBlock(9);
    storeBlock(eq, *ctrl, 4160, data);
    std::uint8_t buf[kBlockSize];
    ctrl->functionalRead(4160, buf, kBlockSize);
    EXPECT_EQ(std::memcmp(buf, data.data(), kBlockSize), 0);

    // Sub-block functional reads work too.
    std::uint8_t word[8];
    ctrl->functionalRead(4160 + 16, word, 8);
    EXPECT_EQ(std::memcmp(word, data.data() + 16, 8), 0);
}

TEST_F(ThyNvmTest, CrashBeforeAnyCheckpointRecoversInitialImage)
{
    auto img = patternBlock(77);
    ctrl->loadImage(0, img.data(), kBlockSize);
    ctrl->start();
    storeBlock(eq, *ctrl, 0, patternBlock(88)); // uncommitted

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    rebuild(smallConfig(), nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    ctrl->start();
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), img);
}

TEST_F(ThyNvmTest, CrashAfterCommitRecoversCheckpointedData)
{
    ctrl->start();
    auto committed = patternBlock(10);
    storeBlock(eq, *ctrl, 128, committed);
    checkpoint();
    storeBlock(eq, *ctrl, 128, patternBlock(11)); // next epoch, volatile

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    rebuild(smallConfig(), nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    ctrl->start();
    EXPECT_EQ(loadBlock(eq, *ctrl, 128), committed);
}

TEST_F(ThyNvmTest, RecoveryRestoresPromotedPagesIntoDram)
{
    ctrl->start();
    for (unsigned i = 0; i < 30; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    checkpoint(); // promote
    for (unsigned i = 0; i < 30; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(200 + i));
    checkpoint(); // page writeback commits the new data

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    rebuild(smallConfig(), nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    ctrl->start();
    EXPECT_GE(ctrl->pttLive(), 1u);
    for (unsigned i = 0; i < 30; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kBlockSize),
                  patternBlock(200 + i));
}

TEST_F(ThyNvmTest, CpuStateRoundTripsThroughCheckpoint)
{
    ctrl->start();
    std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5};
    ctrl->persistCpuState(blob);
    storeBlock(eq, *ctrl, 0, patternBlock(1));
    checkpoint();

    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();

    rebuild(smallConfig(), nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    EXPECT_EQ(ctrl->recoveredCpuState(), blob);
}

TEST_F(ThyNvmTest, StopTheWorldModeStillCommits)
{
    auto cfg = smallConfig();
    cfg.stop_the_world = true;
    rebuild(cfg);
    ctrl->start();
    storeBlock(eq, *ctrl, 0, patternBlock(1));
    checkpoint();
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), patternBlock(1));
    EXPECT_GT(ctrl->checkpointStallTime(), 0u);
}

TEST_F(ThyNvmTest, BlockOnlyModeNeverPromotes)
{
    auto cfg = smallConfig();
    cfg.mode = CheckpointMode::BlockOnly;
    rebuild(cfg);
    ctrl->start();
    for (unsigned i = 0; i < 40; ++i)
        storeBlock(eq, *ctrl, i * kBlockSize, patternBlock(i));
    checkpoint();
    EXPECT_EQ(ctrl->pttLive(), 0u);
    for (unsigned i = 0; i < 40; ++i)
        EXPECT_EQ(loadBlock(eq, *ctrl, i * kBlockSize), patternBlock(i));
}

TEST_F(ThyNvmTest, PageOnlyModePromotesOnFirstStore)
{
    auto cfg = smallConfig();
    cfg.mode = CheckpointMode::PageOnly;
    rebuild(cfg);
    ctrl->start();
    storeBlock(eq, *ctrl, 0, patternBlock(1));
    EXPECT_EQ(ctrl->pttLive(), 1u);
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), patternBlock(1));
    checkpoint();
    EXPECT_EQ(loadBlock(eq, *ctrl, 0), patternBlock(1));
}

} // namespace
} // namespace thynvm
