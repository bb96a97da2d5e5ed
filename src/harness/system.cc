/**
 * @file
 * System implementation.
 */

#include "harness/system.hh"

#include <ostream>

#include "common/parallel.hh"

namespace thynvm {

System::System(const SystemConfig& cfg, Workload& workload,
               std::shared_ptr<BackingStore> nvm_store)
    : cfg_(cfg), workload_(workload)
{
    channels_ = cfg_.channels != 0 ? cfg_.channels : channelsFromEnv();
    if (channels_ == 0)
        channels_ = 1;
    const ControllerSpec spec{cfg_.kind, cfg_.phys_size, cfg_.epoch_length,
                              cfg_.thynvm, channels_};
    auto resume = [this] { cpu_->resume(); };
    if (channels_ > 1) {
        auto grp = std::make_unique<ChannelGroup>(eq_, "sys.ctrl", spec,
                                                  std::move(nvm_store));
        grp->setResumeClient(resume);
        group_ = grp.get();
        controller_ = std::move(grp);
    } else {
        controller_ = buildController(spec, eq_, "sys.ctrl",
                                      std::move(nvm_store), resume);
    }
    controller_->setCrashPoints(cfg_.crash_points);

    BlockAccessor* below = controller_.get();
    if (cfg_.use_caches) {
        l3_ = std::make_unique<Cache>(eq_, "sys.l3", cfg_.l3, *below);
        l2_ = std::make_unique<Cache>(eq_, "sys.l2", cfg_.l2, *l3_);
        l1_ = std::make_unique<Cache>(eq_, "sys.l1", cfg_.l1, *l2_);
        below = l1_.get();
    }
    cpu_ = std::make_unique<TraceCpu>(eq_, "sys.cpu", cfg_.cpu, *below,
                                      workload_);
    wireFlushClient();
}

void
System::wireFlushClient()
{
    controller_->setFlushClient([this](std::function<void()> done) {
        cpu_->pause([this, done = std::move(done)]() mutable {
            flushCaches([this, done = std::move(done)]() mutable {
                controller_->persistCpuState(cpu_->archState());
                done();
            });
        });
    });
}

void
System::flushCaches(std::function<void()> done)
{
    if (!cfg_.use_caches) {
        eq_.scheduleIn(0, std::move(done));
        return;
    }
    // Flush levels top-down so dirty data trickles into the controller.
    l1_->flushDirty([this, done = std::move(done)]() mutable {
        l2_->flushDirty([this, done = std::move(done)]() mutable {
            l3_->flushDirty(std::move(done));
        });
    });
}

FunctionalView
System::functionalView()
{
    BlockAccessor* top =
        cfg_.use_caches ? static_cast<BlockAccessor*>(l1_.get())
                        : static_cast<BlockAccessor*>(controller_.get());
    return [top](Addr addr, void* buf, std::size_t len) {
        readByBlocks(addr, buf, len, [top](Addr block, std::uint8_t* out) {
            top->functionalReadBlock(block, out);
        });
    };
}

std::vector<Addr>
System::touchedPhysPages() const
{
    return touchedPages(cfg_.phys_size, [&](const auto& mark) {
        controller_->forEachTouchedPhysRange(mark);
        // The functional view overlays cache contents; dirty lines may
        // hold data the controller has never seen.
        for (const Cache* c : {l1_.get(), l2_.get(), l3_.get()}) {
            if (c != nullptr)
                c->forEachDirtyBlock([&](Addr a) { mark(a, kBlockSize); });
        }
    });
}

void
System::start()
{
    workload_.setFunctionalView(functionalView());
    workload_.init(*controller_);
    start_tick_ = now();
    controller_->start();
    cpu_->start();
}

void
System::recoverAndResume()
{
    workload_.setFunctionalView(functionalView());
    bool recovered = false;
    controller_->recover([&recovered] { recovered = true; });
    eq_.runUntil([&recovered] { return recovered; });
    // The core resumes at the tick the last channel finished recovery.
    core_tick_ = eq_.now();

    const auto& blob = controller_->recoveredCpuState();
    if (!blob.empty())
        cpu_->restoreArchState(blob);
    start_tick_ = now();
    controller_->start();
    cpu_->start();
}

template <typename Stop>
void
System::stepLanes(Tick limit, Tick cut, Stop&& stop)
{
    // Like the one-channel loop, the step that reaches the limit is the
    // last.
    while (eq_.now() < limit) {
        // A finished workload halts the channels once, so their epoch
        // timers stop re-arming and their lanes drain; the core's
        // leftover events are dropped, never run.
        const bool finished = cpu_->finished();
        if (finished)
            group_->halt();
        if (eq_.empty() || eq_.nextTick() > cut)
            return;
        const bool core = eq_.nextLane() == ChannelGroup::kCoreLane;
        if (core && finished) {
            eq_.drop();
            continue;
        }
        eq_.step();
        if (core)
            core_tick_ = eq_.now();
        if (stop())
            return;
    }
}

template <typename Stop>
Tick
System::advance(Tick duration, Stop&& stop)
{
    if (group_ == nullptr) {
        const Tick limit =
            duration == kMaxTick ? kMaxTick : eq_.now() + duration;
        while (!cpu_->finished() && eq_.now() < limit && !eq_.empty()) {
            eq_.step();
            if (stop())
                break;
        }
        return now();
    }
    const Tick from = eq_.now();
    const Tick limit =
        duration > kMaxTick - from ? kMaxTick : from + duration;
    const std::uint64_t sent = group_->messagesSent();
    stepLanes(limit, kMaxTick, stop);
    kernel_messages_ = group_->messagesSent() - sent;
    return now();
}

Tick
System::run(Tick duration)
{
    return advance(duration, [] { return false; });
}

Tick
System::run(Tick duration, const std::function<bool()>& stop)
{
    return advance(duration, stop);
}

void
System::runTo(Tick cut)
{
    if (group_ == nullptr) {
        while (!eq_.empty() && eq_.nextTick() <= cut)
            eq_.step();
        return;
    }
    stepLanes(kMaxTick, cut, [] { return false; });
}

std::shared_ptr<BackingStore>
System::crash()
{
    auto nvm = controller_->nvmStoreHandle();
    controller_->crash();
    if (cfg_.use_caches) {
        l1_->invalidateAll();
        l2_->invalidateAll();
        l3_->invalidateAll();
    }
    eq_.clear();
    return nvm;
}

void
System::dumpStats(std::ostream& os)
{
    os << "tick=" << now() << "\n";
    cpu_->stats().dump(os);
    if (cfg_.use_caches) {
        l1_->stats().dump(os);
        l2_->stats().dump(os);
        l3_->stats().dump(os);
    }
    controller_->dumpStatsWithDevices(os);
    // Multi-channel topologies dump every channel's controller and
    // devices here; single-channel dumps are unchanged (no-op).
    controller_->dumpExtraStats(os);
}

RunMetrics
System::metrics() const
{
    RunMetrics m;
    m.exec_time = now() - start_tick_;
    m.instructions = cpu_->instructions();
    const double cycles = static_cast<double>(m.exec_time) /
                          static_cast<double>(cfg_.cpu.cycle_period);
    m.ipc = cycles > 0 ? static_cast<double>(m.instructions) / cycles
                       : 0.0;

    // NVM traffic: for Ideal DRAM there is no NVM device; Figure 10
    // then reports DRAM write bandwidth instead. The virtuals sum
    // across channels on a multi-channel topology.
    auto* ctrl = const_cast<MemController*>(controller_.get());
    m.nvm_wr_cpu = ctrl->nvmWriteBytes(TrafficSource::CpuWriteback) +
                   ctrl->nvmWriteBytes(TrafficSource::DemandRead);
    m.nvm_wr_ckpt = ctrl->nvmWriteBytes(TrafficSource::Checkpoint);
    m.nvm_wr_migration = ctrl->nvmWriteBytes(TrafficSource::Migration);
    m.nvm_wr_total = ctrl->nvmTotalWriteBytes();
    m.dram_wr_total = ctrl->dramTotalWriteBytes();

    m.ckpt_time_frac =
        m.exec_time > 0
            ? static_cast<double>(ctrl->checkpointStallTime()) /
                  static_cast<double>(m.exec_time)
            : 0.0;
    m.epochs = ctrl->completedEpochs();
    m.app_wr_bytes = ctrl->appWriteBytes();
    m.write_amp =
        m.app_wr_bytes > 0
            ? static_cast<double>(ctrl->mediaWriteBytes()) /
                  static_cast<double>(m.app_wr_bytes)
            : 0.0;
    return m;
}

} // namespace thynvm
