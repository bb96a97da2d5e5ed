/**
 * @file
 * Parameterized correctness sweep over ThyNVM configurations.
 *
 * A fixed mixed-locality workload (dense pages + sparse blocks +
 * rewrites) runs against a grid of table geometries and checkpointing
 * modes; for every configuration the final visible memory image must
 * equal a host-side mirror, and a crash after the final commit must
 * recover exactly the committed image. This pins the protocol's
 * correctness independent of capacity pressure, scheme mix, and mode.
 */

#include "tests/test_util.hh"

#include "common/rng.hh"
#include "core/thynvm_controller.hh"

namespace thynvm {
namespace {

using test::patternBlock;

struct SweepParam
{
    std::size_t btt;
    std::size_t ptt;
    std::size_t overflow;
    CheckpointMode mode;
    bool stop_the_world;
};

/** Names the ctest "btt8_ptt2_ovf64_Dual_ovl" (not the raw bytes). */
void
PrintTo(const SweepParam& p, std::ostream* os)
{
    const char* mode = p.mode == CheckpointMode::Dual        ? "Dual"
                       : p.mode == CheckpointMode::BlockOnly ? "BlockOnly"
                                                             : "PageOnly";
    *os << "btt" << p.btt << "_ptt" << p.ptt << "_ovf" << p.overflow << "_"
        << mode << (p.stop_the_world ? "_stw" : "_ovl");
}

class ConfigSweepTest : public ::testing::TestWithParam<SweepParam>
{};

TEST_P(ConfigSweepTest, MixedWorkloadStaysCorrectAndRecovers)
{
    const auto& param = GetParam();
    ThyNvmConfig cfg;
    cfg.phys_size = 512 * 1024;
    cfg.btt_entries = param.btt;
    cfg.ptt_entries = param.ptt;
    cfg.overflow_entries = param.overflow;
    cfg.overflow_stall_watermark = param.overflow / 2;
    cfg.mode = param.mode;
    cfg.stop_the_world = param.stop_the_world;
    cfg.epoch_length = 300 * kMicrosecond;
    cfg.promote_threshold = 8;
    cfg.demote_threshold = 4;

    EventQueue eq;
    auto ctrl = std::make_unique<ThyNvmController>(eq, "ctrl", cfg);
    std::vector<std::uint8_t> mirror(cfg.phys_size, 0);
    ctrl->start();

    Rng rng(param.btt * 131 + param.ptt * 17 + param.overflow);
    auto store = [&](Addr addr) {
        auto data = patternBlock(rng.next());
        std::memcpy(mirror.data() + addr, data.data(), kBlockSize);
        test::storeBlock(eq, *ctrl, addr, data);
    };

    for (unsigned round = 0; round < 4; ++round) {
        // Dense page burst.
        const Addr page = (rng.below(64)) * kPageSize;
        for (unsigned b = 0; b < 24; ++b)
            store(page + (b % kBlocksPerPage) * kBlockSize);
        // Sparse scatter.
        for (unsigned i = 0; i < 30; ++i)
            store(rng.below(cfg.phys_size / kBlockSize) * kBlockSize);
        // Rewrites of low addresses (alternation churn).
        for (unsigned i = 0; i < 8; ++i)
            store(i * kBlockSize);
        // Some epochs end via the timer, some are forced.
        if (round % 2 == 0)
            ctrl->requestEpochEnd();
        test::settle(eq, 2 * kMillisecond);
    }
    eq.runUntil([&] { return !ctrl->checkpointInProgress(); });

    // Visible image equals the mirror for every configuration.
    std::vector<std::uint8_t> img(cfg.phys_size);
    ctrl->functionalRead(0, img.data(), img.size());
    ASSERT_EQ(img, mirror) << ::testing::PrintToString(GetParam());

    // Commit everything, crash, recover: the committed image must be
    // exactly the mirror.
    const auto epochs = ctrl->completedEpochs();
    ctrl->requestEpochEnd();
    eq.runUntil([&] {
        return ctrl->completedEpochs() > epochs &&
               !ctrl->checkpointInProgress();
    });
    auto nvm = ctrl->nvmStoreHandle();
    ctrl->crash();
    eq.clear();
    ctrl = std::make_unique<ThyNvmController>(eq, "ctrl", cfg, nvm);
    bool done = false;
    ctrl->recover([&] { done = true; });
    eq.runUntil([&] { return done; });
    ctrl->functionalRead(0, img.data(), img.size());
    EXPECT_EQ(img, mirror);
}

std::vector<SweepParam>
sweepParams()
{
    std::vector<SweepParam> out;
    for (std::size_t btt : {8u, 64u, 512u}) {
        for (std::size_t ptt : {2u, 16u, 128u}) {
            out.push_back({btt, ptt, 64, CheckpointMode::Dual, false});
        }
    }
    out.push_back({64, 16, 16, CheckpointMode::Dual, false});
    out.push_back({64, 16, 4096, CheckpointMode::Dual, false});
    out.push_back({64, 16, 64, CheckpointMode::Dual, true});
    out.push_back({512, 2, 4096, CheckpointMode::BlockOnly, false});
    out.push_back({64, 128, 4096, CheckpointMode::PageOnly, false});
    out.push_back({8, 4, 8192, CheckpointMode::PageOnly, true});
    return out;
}

INSTANTIATE_TEST_SUITE_P(Geometry, ConfigSweepTest,
                         ::testing::ValuesIn(sweepParams()));

} // namespace
} // namespace thynvm
