/**
 * @file
 * System implementation.
 */

#include "harness/system.hh"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "common/parallel.hh"

namespace thynvm {

const char*
systemKindName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::IdealDram: return "Ideal DRAM";
      case SystemKind::IdealNvm: return "Ideal NVM";
      case SystemKind::Journal: return "Journal";
      case SystemKind::Shadow: return "Shadow";
      case SystemKind::ThyNvm: return "ThyNVM";
      case SystemKind::Icl: return "ICL";
      case SystemKind::Incremental: return "Incremental";
    }
    return "unknown";
}

const char*
systemToken(SystemKind kind)
{
    switch (kind) {
      case SystemKind::IdealDram: return "ideal-dram";
      case SystemKind::IdealNvm: return "ideal-nvm";
      case SystemKind::Journal: return "journal";
      case SystemKind::Shadow: return "shadow";
      case SystemKind::ThyNvm: return "thynvm";
      case SystemKind::Icl: return "icl";
      case SystemKind::Incremental: return "incremental";
    }
    return "unknown";
}

bool
systemKindFromToken(const std::string& tok, SystemKind& out)
{
    for (SystemKind k : kAllSystemKinds) {
        if (tok == systemToken(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

System::System(const SystemConfig& cfg, Workload& workload,
               std::shared_ptr<BackingStore> nvm_store)
    : cfg_(cfg), workload_(workload)
{
    channels_ = cfg_.channels != 0 ? cfg_.channels : channelsFromEnv();
    if (channels_ == 0)
        channels_ = 1;
    if (channels_ > 1) {
        ChannelGroup::Config gc;
        gc.kind = cfg_.kind;
        gc.channels = channels_;
        gc.phys_size = cfg_.phys_size;
        gc.epoch_length = cfg_.epoch_length;
        gc.thynvm = cfg_.thynvm;
        auto grp = std::make_unique<ChannelGroup>(eq_, "sys.ctrl", gc,
                                                  std::move(nvm_store));
        grp->setResumeClient([this] { cpu_->resume(); });
        group_ = grp.get();
        controller_ = std::move(grp);
        buildAboveController();
        return;
    }
    switch (cfg_.kind) {
      case SystemKind::IdealDram:
        controller_ = std::make_unique<IdealController>(
            eq_, "sys.ctrl", cfg_.phys_size, true, std::move(nvm_store));
        break;
      case SystemKind::IdealNvm:
        controller_ = std::make_unique<IdealController>(
            eq_, "sys.ctrl", cfg_.phys_size, false, std::move(nvm_store));
        break;
      case SystemKind::Journal: {
        JournalConfig jc;
        jc.phys_size = cfg_.phys_size;
        jc.epoch_length = cfg_.epoch_length;
        jc.table_entries =
            cfg_.thynvm.btt_entries + cfg_.thynvm.ptt_entries;
        auto ctrl = std::make_unique<JournalController>(
            eq_, "sys.ctrl", jc, std::move(nvm_store));
        ctrl->setResumeClient([this] { cpu_->resume(); });
        controller_ = std::move(ctrl);
        break;
      }
      case SystemKind::Shadow: {
        ShadowConfig sc;
        sc.phys_size = cfg_.phys_size;
        sc.epoch_length = cfg_.epoch_length;
        sc.dram_size = cfg_.thynvm.dramSize();
        auto ctrl = std::make_unique<ShadowController>(
            eq_, "sys.ctrl", sc, std::move(nvm_store));
        ctrl->setResumeClient([this] { cpu_->resume(); });
        controller_ = std::move(ctrl);
        break;
      }
      case SystemKind::ThyNvm: {
        ThyNvmConfig tc = cfg_.thynvm;
        tc.phys_size = cfg_.phys_size;
        tc.epoch_length = cfg_.epoch_length;
        auto ctrl = std::make_unique<ThyNvmController>(
            eq_, "sys.ctrl", tc, std::move(nvm_store));
        ctrl->setResumeClient([this] { cpu_->resume(); });
        controller_ = std::move(ctrl);
        break;
      }
      case SystemKind::Icl: {
        IclConfig ic;
        ic.phys_size = cfg_.phys_size;
        ic.epoch_length = cfg_.epoch_length;
        auto ctrl = std::make_unique<IclController>(
            eq_, "sys.ctrl", ic, std::move(nvm_store));
        ctrl->setResumeClient([this] { cpu_->resume(); });
        controller_ = std::move(ctrl);
        break;
      }
      case SystemKind::Incremental: {
        IncrementalConfig nc;
        nc.phys_size = cfg_.phys_size;
        nc.epoch_length = cfg_.epoch_length;
        nc.table_entries =
            cfg_.thynvm.btt_entries + cfg_.thynvm.ptt_entries;
        auto ctrl = std::make_unique<IncrementalController>(
            eq_, "sys.ctrl", nc, std::move(nvm_store));
        ctrl->setResumeClient([this] { cpu_->resume(); });
        controller_ = std::move(ctrl);
        break;
      }
    }

    buildAboveController();
}

void
System::buildAboveController()
{
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
        auto* out = static_cast<std::uint8_t*>(buf);
        std::size_t remaining = len;
        Addr a = addr;
        while (remaining > 0) {
            const Addr block = blockAlign(a);
            const std::size_t in_block = a - block;
            const std::size_t chunk =
                std::min(remaining, kBlockSize - in_block);
            std::uint8_t tmp[kBlockSize];
            top->functionalReadBlock(block, tmp);
            std::memcpy(out, tmp + in_block, chunk);
            out += chunk;
            a += chunk;
            remaining -= chunk;
        }
    };
}

std::vector<Addr>
System::touchedPhysPages() const
{
    const std::size_t phys = cfg_.phys_size;
    const std::size_t npages = (phys + kPageSize - 1) / kPageSize;
    std::vector<std::uint8_t> bits(npages, 0);
    const auto mark = [&](Addr a, std::size_t len) {
        if (a >= phys)
            return;
        len = std::min(len, phys - a);
        for (std::size_t pg = a / kPageSize; pg * kPageSize < a + len;
             ++pg)
            bits[pg] = 1;
    };
    controller_->forEachTouchedPhysRange(mark);
    // The functional view overlays cache contents; dirty lines may
    // hold data the controller has never seen (clean lines mirror it).
    for (const Cache* c : {l1_.get(), l2_.get(), l3_.get()}) {
        if (c != nullptr)
            c->forEachDirtyBlock([&](Addr a) { mark(a, kBlockSize); });
    }
    std::vector<Addr> pages;
    for (std::size_t pg = 0; pg < npages; ++pg) {
        if (bits[pg])
            pages.push_back(pg * kPageSize);
    }
    return pages;
}

void
System::start()
{
    workload_.setFunctionalView(functionalView());
    workload_.init(*controller_);
    start_tick_ = eq_.now();
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

    const auto& blob = controller_->recoveredCpuState();
    if (!blob.empty())
        cpu_->restoreArchState(blob);
    start_tick_ = eq_.now();
    controller_->start();
    cpu_->start();
}

Tick
System::latestTick() const
{
    Tick t = eq_.now();
    for (unsigned i = 0; i < channels_; ++i)
        t = std::max(t, group_->channelEventq(i).now());
    return t;
}

template <typename Stop>
void
System::stepQueues(Tick limit, Tick cut, Stop&& stop)
{
    // Every cross-channel message lands one interconnect hop after its
    // sender's tick, so executing the earliest pending event first
    // never delivers a message behind its target's clock. Like the
    // one-channel loop, the step that reaches the limit is the last.
    Tick clock = latestTick();
    while (clock < limit) {
        EventQueue* next = &eq_;
        Tick when = kMaxTick;
        // A finished workload halts the channels once, so their epoch
        // timers stop re-arming and their queues drain.
        if (cpu_->finished())
            group_->halt();
        else
            when = eq_.nextTick();
        for (unsigned i = 0; i < channels_; ++i) {
            EventQueue& q = group_->channelEventq(i);
            if (q.nextTick() < when) {
                next = &q;
                when = q.nextTick();
            }
        }
        if (when == kMaxTick || when > cut)
            return;
        next->step();
        clock = when;
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
        return eq_.now();
    }
    const Tick from = latestTick();
    const Tick limit =
        duration > kMaxTick - from ? kMaxTick : from + duration;
    const std::uint64_t sent = group_->messagesSent();
    stepQueues(limit, kMaxTick, stop);
    kernel_messages_ = group_->messagesSent() - sent;
    return eq_.now();
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
    stepQueues(kMaxTick, cut, [] { return false; });
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
    os << "tick=" << eq_.now() << "\n";
    cpu_->stats().dump(os);
    if (cfg_.use_caches) {
        l1_->stats().dump(os);
        l2_->stats().dump(os);
        l3_->stats().dump(os);
    }
    controller_->stats().dump(os);
    if (MemDevice* d = controller_->nvmDevice())
        d->stats().dump(os);
    if (MemDevice* d = controller_->dramDevice())
        d->stats().dump(os);
    // Multi-channel topologies dump every channel's controller and
    // devices here; single-channel dumps are unchanged (no-op).
    controller_->dumpExtraStats(os);
}

RunMetrics
System::metrics() const
{
    RunMetrics m;
    m.exec_time = eq_.now() - start_tick_;
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
