/**
 * @file
 * Exhaustive model check of the ThyNVM consistency protocol.
 *
 * The paper ships a formal proof of its checkpointing state machine
 * (referenced as an online appendix). Here the same property is
 * established mechanically over the implementation: a fixed scenario
 * exercising both checkpointing schemes (remapped blocks, buffered
 * blocks, page promotion/writeback/demotion, overflow spills) is run
 * to completion once to count its events; then, for *every* event
 * index k, a fresh run is crashed after exactly k events, recovered,
 * and the recovered image is required to equal the memory state at
 * one of the scenario's store boundaries (epochs may also end early
 * on table overflow, so any store-prefix state is a legal checkpoint
 * instant). No crash instant may expose a torn state.
 */

#include "tests/test_util.hh"

#include "core/thynvm_controller.hh"

namespace thynvm {
namespace {

using test::patternBlock;

constexpr std::size_t kPhys = 64 * 1024;

ThyNvmConfig
modelConfig(bool stop_the_world)
{
    ThyNvmConfig cfg;
    cfg.stop_the_world = stop_the_world;
    cfg.phys_size = kPhys;
    cfg.btt_entries = 12;
    cfg.ptt_entries = 3;
    cfg.overflow_entries = 16;
    cfg.overflow_stall_watermark = 8;
    cfg.epoch_length = 10 * kMillisecond; // manual boundaries only
    cfg.promote_threshold = 6;
    cfg.demote_threshold = 4;
    return cfg;
}

/**
 * Deterministic scenario driver. Issues stores batch by batch with an
 * epoch boundary after each batch, recording the memory image at every
 * boundary. Returns when all batches are committed.
 */
class Scenario
{
  public:
    explicit Scenario(EventQueue& eq, bool stop_the_world = false)
        : eq_(eq), cfg_(modelConfig(stop_the_world))
    {
        ctrl_ = std::make_unique<ThyNvmController>(eq_, "ctrl", cfg_);
        mirror_.assign(kPhys, 0);
        boundary_images_.push_back(mirror_);
        ctrl_->start();
    }

    /** The scripted store batches: (address, tag) pairs. */
    static std::vector<std::vector<std::pair<Addr, std::uint64_t>>>
    batches()
    {
        std::vector<std::vector<std::pair<Addr, std::uint64_t>>> b;
        // Epoch 1: sparse blocks -> block remapping.
        b.push_back({{0, 1}, {4096, 2}, {8192, 3}, {12288, 4}});
        // Epoch 2: rewrite (coalescing + alternation) + dense page 5
        // (promotion candidate) + spills beyond the tiny BTT.
        {
            std::vector<std::pair<Addr, std::uint64_t>> v;
            v.push_back({0, 5});
            v.push_back({4096, 6});
            for (unsigned i = 0; i < 8; ++i)
                v.push_back({5 * kPageSize + i * kBlockSize, 10 + i});
            for (unsigned i = 0; i < 14; ++i)
                v.push_back({16384 + i * 2 * kBlockSize, 30 + i});
            b.push_back(std::move(v));
        }
        // Epoch 3: write the promoted page (page writeback) + sparse.
        {
            std::vector<std::pair<Addr, std::uint64_t>> v;
            for (unsigned i = 0; i < 8; ++i)
                v.push_back({5 * kPageSize + i * kBlockSize, 50 + i});
            v.push_back({8192, 60});
            b.push_back(std::move(v));
        }
        // Epoch 4: page turns sparse (demotion) + more churn.
        b.push_back({{5 * kPageSize, 70}, {0, 71}, {24576, 72}});
        // Epoch 5: idle-ish epoch to settle demotion.
        b.push_back({{32768, 80}});
        return b;
    }

    /** Run the whole scenario; returns total events stepped. */
    std::uint64_t
    runAll()
    {
        std::uint64_t steps = 0;
        for (const auto& batch : batches()) {
            for (const auto& [addr, tag] : batch)
                steps += storeCounted(addr, tag);
            boundary_images_.push_back(mirror_);
            steps += boundaryCounted();
        }
        return steps;
    }

    /** Run exactly @p budget events, then simulate a power failure. */
    void
    runSteps(std::uint64_t budget)
    {
        std::uint64_t used = 0;
        for (const auto& batch : batches()) {
            for (const auto& [addr, tag] : batch) {
                if (!storeSteps(addr, tag, budget, used))
                    return;
            }
            boundary_images_.push_back(mirror_);
            if (!boundarySteps(budget, used))
                return;
        }
    }

    /** Crash, rebuild, recover; returns the recovered image. */
    std::vector<std::uint8_t>
    crashAndRecover()
    {
        auto nvm = ctrl_->nvmStoreHandle();
        ctrl_->crash();
        eq_.clear();
        ctrl_ = std::make_unique<ThyNvmController>(eq_, "ctrl", cfg_, nvm);
        bool done = false;
        ctrl_->recover([&done] { done = true; });
        eq_.runUntil([&done] { return done; });
        std::vector<std::uint8_t> img(kPhys);
        ctrl_->functionalRead(0, img.data(), img.size());
        return img;
    }

    const std::vector<std::vector<std::uint8_t>>&
    boundaryImages() const
    {
        return boundary_images_;
    }

    /** Memory image after every applied store (legal crash targets). */
    const std::vector<std::vector<std::uint8_t>>&
    history() const
    {
        return history_;
    }

    /** A named controller statistic (scheme-coverage assertions). */
    double
    stat(const std::string& name) const
    {
        return ctrl_->stats().value(name);
    }

  private:
    void
    applyMirror(Addr addr, std::uint64_t tag)
    {
        auto data = patternBlock(tag);
        std::memcpy(mirror_.data() + addr, data.data(), kBlockSize);
        history_.push_back(mirror_);
    }

    std::uint64_t
    storeCounted(Addr addr, std::uint64_t tag)
    {
        applyMirror(addr, tag);
        auto data = patternBlock(tag);
        bool done = false;
        ctrl_->accessBlock(addr, true, data.data(), nullptr,
                           TrafficSource::CpuWriteback,
                           [&done] { done = true; });
        std::uint64_t steps = 0;
        while (!done) {
            eq_.step();
            ++steps;
        }
        return steps;
    }

    bool
    storeSteps(Addr addr, std::uint64_t tag, std::uint64_t budget,
               std::uint64_t& used)
    {
        applyMirror(addr, tag);
        auto data = patternBlock(tag);
        bool done = false;
        ctrl_->accessBlock(addr, true, data.data(), nullptr,
                           TrafficSource::CpuWriteback,
                           [&done] { done = true; });
        while (!done) {
            if (used == budget)
                return false;
            eq_.step();
            ++used;
        }
        return true;
    }

    std::uint64_t
    boundaryCounted()
    {
        const auto target = ctrl_->completedEpochs() + 1;
        ctrl_->requestEpochEnd();
        std::uint64_t steps = 0;
        while (ctrl_->completedEpochs() < target ||
               ctrl_->checkpointInProgress()) {
            eq_.step();
            ++steps;
        }
        return steps;
    }

    bool
    boundarySteps(std::uint64_t budget, std::uint64_t& used)
    {
        const auto target = ctrl_->completedEpochs() + 1;
        ctrl_->requestEpochEnd();
        while (ctrl_->completedEpochs() < target ||
               ctrl_->checkpointInProgress()) {
            if (used == budget)
                return false;
            eq_.step();
            ++used;
        }
        return true;
    }

    EventQueue& eq_;
    ThyNvmConfig cfg_;
    std::unique_ptr<ThyNvmController> ctrl_;
    std::vector<std::uint8_t> mirror_;
    std::vector<std::vector<std::uint8_t>> boundary_images_;
    std::vector<std::vector<std::uint8_t>> history_;
};

TEST(ProtocolModelTest, ScenarioExercisesBothSchemes)
{
    // The sweep below is only a meaningful model check if the scenario
    // actually drives both checkpointing schemes, the DRAM buffering
    // path, and the overflow machinery.
    EventQueue eq;
    Scenario s(eq);
    s.runAll();
    EXPECT_GT(s.stat("remap_nvm_writes"), 0.0);
    EXPECT_GT(s.stat("promotions"), 0.0);
    EXPECT_GT(s.stat("demotions"), 0.0);
    EXPECT_GT(s.stat("pages_written_back"), 0.0);
    EXPECT_GT(s.stat("overflow_blocks"), 0.0);
}

/**
 * Crash the scenario after every event index in turn and require each
 * recovered image to be the initial image or a store-prefix image.
 */
void
expectEveryCrashPointRecovers(bool stop_the_world)
{
    // Count the total events of an undisturbed run.
    std::uint64_t total = 0;
    {
        EventQueue eq;
        Scenario s(eq, stop_the_world);
        total = s.runAll();
    }
    ASSERT_GT(total, 100u);

    std::uint64_t checked = 0;
    for (std::uint64_t k = 0; k <= total; ++k) {
        EventQueue eq;
        Scenario s(eq, stop_the_world);
        s.runSteps(k);
        const auto img = s.crashAndRecover();
        bool matched = img == s.boundaryImages().front();
        for (const auto& h : s.history()) {
            if (matched)
                break;
            matched = img == h;
        }
        ASSERT_TRUE(matched)
            << "crash after event " << k << " of " << total
            << " recovered to a torn image";
        ++checked;
    }
    ASSERT_EQ(checked, total + 1);
}

TEST(ProtocolModelTest, EveryCrashPointRecoversToABoundaryImage)
{
    expectEveryCrashPointRecovers(false);
}

/** The same sweep with the CPU held until each commit (Figure 3a). */
TEST(ProtocolModelTest, EveryCrashPointRecoversToABoundaryImageStopTheWorld)
{
    expectEveryCrashPointRecovers(true);
}

} // namespace
} // namespace thynvm
