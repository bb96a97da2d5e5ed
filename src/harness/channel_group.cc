/**
 * @file
 * Multi-channel group implementation: per-channel controller
 * construction, the functional mirror, cross-channel messages, and the
 * cross-channel epoch coordinator.
 */

#include "harness/channel_group.hh"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "baselines/icl.hh"
#include "baselines/ideal.hh"
#include "baselines/incremental.hh"
#include "baselines/journal.hh"
#include "baselines/shadow.hh"
#include "core/layout.hh"
#include "core/thynvm_controller.hh"

namespace thynvm {

namespace {

/**
 * Global ThyNVM table sizes scaled down to one channel's share. Each
 * channel serves 1/C of the physical space, so it gets 1/C of the
 * translation-table, overflow, and back-pressure budget (rounded up).
 */
ThyNvmConfig
scaledThyNvm(const ChannelGroup::Config& cfg, std::size_t ch_phys)
{
    const unsigned c = cfg.channels;
    ThyNvmConfig tc = cfg.thynvm;
    tc.phys_size = ch_phys;
    tc.epoch_length = cfg.epoch_length;
    tc.btt_entries = (cfg.thynvm.btt_entries + c - 1) / c;
    tc.ptt_entries = (cfg.thynvm.ptt_entries + c - 1) / c;
    tc.overflow_entries = (cfg.thynvm.overflow_entries + c - 1) / c;
    tc.overflow_stall_watermark =
        (cfg.thynvm.overflow_stall_watermark + c - 1) / c;
    return tc;
}

JournalConfig
scaledJournal(const ChannelGroup::Config& cfg, std::size_t ch_phys)
{
    const unsigned c = cfg.channels;
    JournalConfig jc;
    jc.phys_size = ch_phys;
    jc.epoch_length = cfg.epoch_length;
    jc.table_entries =
        (cfg.thynvm.btt_entries + cfg.thynvm.ptt_entries + c - 1) / c;
    // The headroom above the soft trigger is deliberately *not*
    // divided: the coordinated flush barrier adds cross-channel skew
    // between a channel's boundary request and the actual flush, and
    // the headroom is what absorbs writes arriving in that window.
    return jc;
}

ShadowConfig
scaledShadow(const ChannelGroup::Config& cfg, std::size_t ch_phys)
{
    ShadowConfig sc;
    sc.phys_size = ch_phys;
    sc.epoch_length = cfg.epoch_length;
    sc.dram_size = scaledThyNvm(cfg, ch_phys).dramSize();
    return sc;
}

IclConfig
scaledIcl(const ChannelGroup::Config& cfg, std::size_t ch_phys)
{
    IclConfig ic;
    ic.phys_size = ch_phys;
    ic.epoch_length = cfg.epoch_length;
    return ic;
}

IncrementalConfig
scaledIncremental(const ChannelGroup::Config& cfg, std::size_t ch_phys)
{
    const unsigned c = cfg.channels;
    IncrementalConfig nc;
    nc.phys_size = ch_phys;
    nc.epoch_length = cfg.epoch_length;
    nc.table_entries =
        (cfg.thynvm.btt_entries + cfg.thynvm.ptt_entries + c - 1) / c;
    // Headroom undivided, same rationale as the journal above.
    return nc;
}

/** Durable NVM bytes one channel of the configured kind needs. */
std::size_t
sliceSize(const ChannelGroup::Config& cfg, std::size_t ch_phys)
{
    switch (cfg.kind) {
      case SystemKind::IdealDram:
      case SystemKind::IdealNvm:
        return IdealController::nvmCapacity(ch_phys);
      case SystemKind::Journal:
        return JournalController::nvmCapacity(scaledJournal(cfg, ch_phys));
      case SystemKind::Shadow:
        return ShadowController::nvmCapacity(scaledShadow(cfg, ch_phys));
      case SystemKind::ThyNvm:
        return AddressLayout(scaledThyNvm(cfg, ch_phys)).nvmSize();
      case SystemKind::Icl:
        return IclController::nvmCapacity(scaledIcl(cfg, ch_phys));
      case SystemKind::Incremental:
        return IncrementalController::nvmCapacity(
            scaledIncremental(cfg, ch_phys));
    }
    return 0;
}

} // namespace

ChannelGroup::ChannelGroup(EventQueue& eq, std::string name,
                           const Config& cfg,
                           std::shared_ptr<BackingStore> nvm_store)
    : MemController(eq, std::move(name)), cfg_(cfg), il_(cfg.channels)
{
    fatal_if(cfg_.channels < 2,
             "a channel group needs at least 2 channels (got %u); "
             "single-channel systems use the controller directly",
             cfg_.channels);
    const std::size_t ch_phys = il_.localCapacity(cfg_.phys_size);
    fatal_if(ch_phys % kPageSize != 0,
             "per-channel space %zu not page-aligned; phys_size must be "
             "a multiple of %u channels x %zu bytes",
             ch_phys, cfg_.channels, kPageSize);

    // One root store backs the whole group; each channel owns a view
    // slice, so crash()/reboot hand around a single surviving handle
    // exactly like the single-channel case.
    const std::size_t slice = sliceSize(cfg_, ch_phys);
    const std::size_t total = slice * cfg_.channels;
    if (nvm_store == nullptr) {
        root_store_ = std::make_shared<BackingStore>(total);
    } else {
        fatal_if(nvm_store->size() != total,
                 "surviving NVM image is %zu bytes, topology needs %zu",
                 nvm_store->size(), total);
        root_store_ = std::move(nvm_store);
    }

    mirror_ = PagedBytes(cfg_.phys_size);
    link_fifo_.assign(2 * cfg_.channels, 0);

    chs_.reserve(cfg_.channels);
    for (unsigned i = 0; i < cfg_.channels; ++i) {
        auto ch = std::make_unique<Channel>();
        ch->eq = std::make_unique<EventQueue>();
        auto view = std::make_shared<BackingStore>(root_store_, i * slice,
                                                   slice);
        ch->ctrl = buildChannel(*ch->eq, i, ch_phys, std::move(view));
        chs_.push_back(std::move(ch));
    }

    // Wire the coordinator adapters (checkpointing kinds only; the
    // ideal controllers never initiate boundaries).
    if (cfg_.kind != SystemKind::IdealDram &&
        cfg_.kind != SystemKind::IdealNvm) {
        for (unsigned i = 0; i < cfg_.channels; ++i) {
            MemController& ctrl = *chs_[i]->ctrl;
            ctrl.setFlushClient([this, i](std::function<void()> run) {
                Channel& ch = *chs_[i];
                panic_if(static_cast<bool>(ch.flush_run),
                         "channel flush requested twice without release");
                ch.flush_run = std::move(run);
                const std::uint64_t seq = ++ch.boundary_seq;
                postToCore(i, [this, seq] { flushRequested(seq); });
            });
            ctrl.setCommitGate(
                [this, i](unsigned phase, std::function<void()> resume) {
                    Channel& ch = *chs_[i];
                    panic_if(static_cast<bool>(ch.gate_resume),
                             "channel commit gate entered twice");
                    ch.gate_resume = std::move(resume);
                    postToCore(i, [this, phase] { gateArrived(phase); });
                });
        }
    }
}

ChannelGroup::~ChannelGroup() = default;

std::unique_ptr<MemController>
ChannelGroup::buildChannel(EventQueue& eq, unsigned i, std::size_t ch_phys,
                           std::shared_ptr<BackingStore> slice)
{
    const std::string cname = name() + ".ch" + std::to_string(i);
    // Per-channel crash-site prefixes give each channel its own site
    // names (and hit ordinals).
    const std::string prefix = "ch" + std::to_string(i) + ".";
    auto resume = [this, i] { postToCore(i, [this] { resumeArrived(); }); };

    std::unique_ptr<MemController> ctrl;
    switch (cfg_.kind) {
      case SystemKind::IdealDram:
        ctrl = std::make_unique<IdealController>(eq, cname, ch_phys, true,
                                                 std::move(slice));
        break;
      case SystemKind::IdealNvm:
        ctrl = std::make_unique<IdealController>(eq, cname, ch_phys, false,
                                                 std::move(slice));
        break;
      case SystemKind::Journal: {
        auto c = std::make_unique<JournalController>(
            eq, cname, scaledJournal(cfg_, ch_phys), std::move(slice));
        c->setResumeClient(resume);
        ctrl = std::move(c);
        break;
      }
      case SystemKind::Shadow: {
        auto c = std::make_unique<ShadowController>(
            eq, cname, scaledShadow(cfg_, ch_phys), std::move(slice));
        c->setResumeClient(resume);
        ctrl = std::move(c);
        break;
      }
      case SystemKind::ThyNvm: {
        auto c = std::make_unique<ThyNvmController>(
            eq, cname, scaledThyNvm(cfg_, ch_phys), std::move(slice));
        c->setResumeClient(resume);
        ctrl = std::move(c);
        break;
      }
      case SystemKind::Icl: {
        auto c = std::make_unique<IclController>(
            eq, cname, scaledIcl(cfg_, ch_phys), std::move(slice));
        c->setResumeClient(resume);
        ctrl = std::move(c);
        break;
      }
      case SystemKind::Incremental: {
        auto c = std::make_unique<IncrementalController>(
            eq, cname, scaledIncremental(cfg_, ch_phys),
            std::move(slice));
        c->setResumeClient(resume);
        ctrl = std::move(c);
        break;
      }
    }
    ctrl->setCrashSitePrefix(prefix);
    return ctrl;
}

// ----------------------------------------------------------------------
// Cross-channel messages.
// ----------------------------------------------------------------------

void
ChannelGroup::send(EventQueue& target, Tick when, unsigned link,
                   std::function<void()> fn)
{
    // The FIFO counters are never reset, so a message's key stays unique
    // on its link however the run is sliced into run() calls.
    std::uint64_t& fifo = link_fifo_[link];
    panic_if(fifo >> 40, "channel link %u exhausted its 2^40 message "
                         "order keys", link);
    target.scheduleMessage(when,
                           EventQueue::kMessageOrderBit |
                               (std::uint64_t{link} << 40) | fifo++,
                           std::move(fn));
    ++messages_;
}

void
ChannelGroup::postToChannel(unsigned i, std::function<void()> fn)
{
    send(*chs_[i]->eq, curTick() + kChannelLookahead, 2 * i,
         std::move(fn));
}

void
ChannelGroup::postToCore(unsigned i, std::function<void()> fn)
{
    send(eventq_, chs_[i]->eq->now() + kChannelLookahead, 2 * i + 1,
         std::move(fn));
}

// ----------------------------------------------------------------------
// MemController interface.
// ----------------------------------------------------------------------

void
ChannelGroup::accessBlock(Addr paddr, bool is_write,
                          const std::uint8_t* wdata, std::uint8_t* rdata,
                          TrafficSource source, std::function<void()> done)
{
    panic_if(paddr % kBlockSize != 0, "unaligned channel-group access");
    panic_if(paddr + kBlockSize > cfg_.phys_size,
             "physical address out of range");
    const unsigned ch = il_.channelOf(paddr);
    const Addr local = il_.localAddr(paddr);
    auto reply = std::make_shared<std::function<void()>>(std::move(done));

    if (is_write) {
        // Functional: apply to the mirror at call time (the accessBlock
        // contract). Timed: ship the data by value across the
        // interconnect; the channel controller applies it to its own
        // state and acknowledges.
        mirror_.write(paddr, wdata, kBlockSize);
        // Group-level write-amplification denominator. (The per-epoch
        // histogram stays unsampled at group level: the media counters
        // live on the channels, whose writes may still be in flight at
        // the commit barrier; each channel samples its own.)
        noteAppWrite();
        auto data = std::make_shared<std::array<std::uint8_t, kBlockSize>>();
        std::memcpy(data->data(), wdata, kBlockSize);
        postToChannel(ch, [this, ch, local, source, data, reply] {
            chs_[ch]->ctrl->accessBlock(
                local, true, data->data(), nullptr, source,
                [this, ch, reply] {
                    postToCore(ch, [reply] {
                        if (*reply)
                            (*reply)();
                    });
                });
        });
    } else {
        // Functional fill from the mirror, synchronously; the timed
        // read runs channel-side into a scratch buffer purely for its
        // latency and traffic accounting.
        mirror_.read(paddr, rdata, kBlockSize);
        postToChannel(ch, [this, ch, local, source, reply] {
            auto rbuf =
                std::make_shared<std::array<std::uint8_t, kBlockSize>>();
            chs_[ch]->ctrl->accessBlock(
                local, false, nullptr, rbuf->data(), source,
                [this, ch, rbuf, reply] {
                    postToCore(ch, [reply] {
                        if (*reply)
                            (*reply)();
                    });
                });
        });
    }
}

void
ChannelGroup::persistCpuState(const std::vector<std::uint8_t>& blob)
{
    // Called by the flush client at the coordinated boundary; the
    // coordinator ships it to channel 0 with the flush release.
    cpu_blob_ = blob;
}

void
ChannelGroup::functionalRead(Addr paddr, void* buf, std::size_t len) const
{
    panic_if(paddr + len > cfg_.phys_size,
             "functional read beyond physical space");
    mirror_.read(paddr, buf, len);
}

void
ChannelGroup::forEachTouchedPhysRange(
    const std::function<void(Addr, std::size_t)>& fn) const
{
    // functionalRead resolves purely from the core-side mirror, so the
    // mirror's touched pages are exactly the group's touched set.
    mirror_.forEachTouchedRange(
        0, cfg_.phys_size,
        [&](Addr a, const std::uint8_t*, std::size_t len) { fn(a, len); });
}

void
ChannelGroup::loadImage(Addr paddr, const void* buf, std::size_t len)
{
    panic_if(paddr + len > cfg_.phys_size, "image beyond physical space");
    mirror_.write(paddr, buf, len);
    // Forward block-granular chunks to the owning channels' durable
    // home locations (zero-time, pre-simulation — direct calls).
    const auto* p = static_cast<const std::uint8_t*>(buf);
    Addr a = paddr;
    std::size_t remaining = len;
    while (remaining > 0) {
        const Addr block = blockAlign(a);
        const std::size_t in_block = a - block;
        const std::size_t chunk =
            std::min(remaining, kBlockSize - in_block);
        chs_[il_.channelOf(a)]->ctrl->loadImage(il_.localAddr(a), p, chunk);
        p += chunk;
        a += chunk;
        remaining -= chunk;
    }
}

void
ChannelGroup::start()
{
    halted_ = false;
    for (auto& ch : chs_)
        ch->ctrl->start();
}

void
ChannelGroup::crash()
{
    for (auto& ch : chs_) {
        ch->ctrl->crash();
        ch->eq->clear();
        ch->flush_run = nullptr;
        ch->gate_resume = nullptr;
        ch->boundary_seq = 0;
    }
    flush_arrived_ = 0;
    flush_seq_ = 0;
    gate_arrived_ = 0;
    gate_phase_ = -1;
    resume_arrived_ = 0;
    halted_ = false;
    cpu_blob_.clear();
}

std::uint64_t
ChannelGroup::committedEpoch() const
{
    std::uint64_t mn = kMaxTick;
    for (const auto& ch : chs_)
        mn = std::min(mn, ch->ctrl->committedEpoch());
    return mn;
}

void
ChannelGroup::recover(std::function<void()> done)
{
    // Probe the durable commit state of every channel. The two-phase
    // commit barrier bounds the spread to one epoch; more means the
    // protocol was violated.
    std::uint64_t mn = kMaxTick, mx = 0;
    for (const auto& ch : chs_) {
        const std::uint64_t e = ch->ctrl->committedEpoch();
        mn = std::min(mn, e);
        mx = std::max(mx, e);
    }
    panic_if(mx > mn + 1,
             "committed-epoch spread across channels is %llu..%llu; the "
             "commit barrier bounds it to one",
             static_cast<unsigned long long>(mn),
             static_cast<unsigned long long>(mx));

    // Recover every channel to the minimum committed epoch — one
    // consistent cut — pumping each channel's queue so its timed
    // recovery traffic executes.
    for (auto& ch : chs_) {
        bool ok = false;
        ch->ctrl->recoverTo(mn, [&ok] { ok = true; });
        ch->eq->runUntil([&ok] { return ok; });
    }
    recovered_cpu_ = chs_[0]->ctrl->recoveredCpuState();

    // Rebuild the core-side functional mirror from the recovered
    // channel images. Clear it first (a second crash in the same life
    // could otherwise leave stale pre-crash data where the recovered
    // image is zero), then pull only the ranges each channel reports
    // as touched: every unreported local byte functionally reads zero,
    // which the cleared mirror already holds — O(touched) instead of
    // O(capacity).
    mirror_.clear();
    const std::size_t ch_phys = il_.localCapacity(cfg_.phys_size);
    const std::size_t ch_pages = (ch_phys + kPageSize - 1) / kPageSize;
    std::vector<std::uint8_t> touched(ch_pages, 0);
    for (unsigned ci = 0; ci < cfg_.channels; ++ci) {
        std::fill(touched.begin(), touched.end(), 0);
        chs_[ci]->ctrl->forEachTouchedPhysRange(
            [&](Addr a, std::size_t len) {
                if (a >= ch_phys)
                    return;
                len = std::min(len, ch_phys - a);
                for (std::size_t pg = a / kPageSize;
                     pg * kPageSize < a + len; ++pg)
                    touched[pg] = 1;
            });
        for (std::size_t pg = 0; pg < ch_pages; ++pg) {
            if (!touched[pg])
                continue;
            const Addr page_end =
                std::min<Addr>((pg + 1) * kPageSize, ch_phys);
            for (Addr local = pg * kPageSize; local < page_end;
                 local += kBlockSize) {
                std::uint8_t blk[kBlockSize];
                chs_[ci]->ctrl->functionalRead(local, blk, kBlockSize);
                mirror_.write(il_.globalAddr(ci, local), blk, kBlockSize);
            }
        }
    }

    // Align every clock to the slowest channel (recovery is a reboot:
    // the machine comes back at one instant) and land the completion
    // on the core queue at that tick.
    Tick t = curTick();
    for (auto& ch : chs_)
        t = std::max(t, ch->eq->now());
    for (auto& ch : chs_)
        ch->eq->run(t);
    ++recoveries_;
    eventq_.schedule(t, std::move(done));
}

void
ChannelGroup::requestEpochEnd()
{
    // A software-forced boundary from outside the stepping loop: every
    // channel starts it at its own clock.
    for (auto& ch : chs_)
        ch->ctrl->requestEpochEnd();
}

void
ChannelGroup::setCrashPoints(CrashPointRegistry* reg)
{
    MemController::setCrashPoints(reg);
    for (auto& ch : chs_)
        ch->ctrl->setCrashPoints(reg);
}

void
ChannelGroup::dumpExtraStats(std::ostream& os)
{
    for (auto& ch : chs_) {
        ch->ctrl->stats().dump(os);
        if (MemDevice* d = ch->ctrl->nvmDevice())
            d->stats().dump(os);
        if (MemDevice* d = ch->ctrl->dramDevice())
            d->stats().dump(os);
    }
}

std::uint64_t
ChannelGroup::nvmWriteBytes(TrafficSource source)
{
    std::uint64_t sum = 0;
    for (auto& ch : chs_)
        sum += ch->ctrl->nvmWriteBytes(source);
    return sum;
}

std::uint64_t
ChannelGroup::nvmTotalWriteBytes()
{
    std::uint64_t sum = 0;
    for (auto& ch : chs_)
        sum += ch->ctrl->nvmTotalWriteBytes();
    return sum;
}

std::uint64_t
ChannelGroup::dramTotalWriteBytes()
{
    std::uint64_t sum = 0;
    for (auto& ch : chs_)
        sum += ch->ctrl->dramTotalWriteBytes();
    return sum;
}

void
ChannelGroup::halt()
{
    if (halted_)
        return;
    halted_ = true;
    for (unsigned i = 0; i < cfg_.channels; ++i)
        postToChannel(i, [this, i] { chs_[i]->ctrl->halt(); });
}

// ----------------------------------------------------------------------
// Cross-channel epoch coordinator (core side).
// ----------------------------------------------------------------------

void
ChannelGroup::flushRequested(std::uint64_t seq)
{
    // ccnvme idiom: every channel tracks its own epoch sequence
    // number; a coordinated boundary only forms when all channels
    // present the same next number.
    panic_if(seq != flush_seq_ + 1,
             "channel epoch sequence skew: got %llu at group boundary "
             "%llu",
             static_cast<unsigned long long>(seq),
             static_cast<unsigned long long>(flush_seq_ + 1));
    ++flush_arrived_;
    if (flush_arrived_ < cfg_.channels)
        return;
    flush_arrived_ = 0;
    ++flush_seq_;
    stall_start_ = curTick();
    crashPoint("group.flush_begin");
    panic_if(!flush_, "channel group has no flush client");
    // Drain the CPU and caches once for the whole group; every
    // channel's writebacks are fully serviced (reply-confirmed) before
    // the releases below are posted, so each channel's checkpoint
    // snapshot sees exactly the flushed state — same ordering as the
    // single-channel pipeline.
    flush_([this] {
        auto blob =
            std::make_shared<std::vector<std::uint8_t>>(cpu_blob_);
        // Same-link FIFO: the blob lands on channel 0 before its flush
        // release, so the checkpoint includes it.
        postToChannel(0, [this, blob] {
            chs_[0]->ctrl->persistCpuState(*blob);
        });
        for (unsigned i = 0; i < cfg_.channels; ++i) {
            postToChannel(i, [this, i] {
                auto run = std::move(chs_[i]->flush_run);
                chs_[i]->flush_run = nullptr;
                panic_if(!run, "flush release with no deferred "
                               "continuation");
                run();
            });
        }
    });
}

void
ChannelGroup::gateArrived(unsigned phase)
{
    if (gate_phase_ < 0)
        gate_phase_ = static_cast<int>(phase);
    panic_if(static_cast<int>(phase) != gate_phase_,
             "commit-gate phase mismatch across channels: %u vs %d",
             phase, gate_phase_);
    ++gate_arrived_;
    if (gate_arrived_ < cfg_.channels)
        return;
    gate_arrived_ = 0;
    const int ph = gate_phase_;
    gate_phase_ = -1;
    // Phase 0: every channel's checkpoint image is staged and durable;
    // only now may any channel write its commit header. Phase 1: every
    // header is durable; only now may any channel flip/apply
    // destructively — and the group epoch is committed.
    crashPoint(ph == 0 ? "group.all_staged" : "group.all_committed");
    if (ph == 1)
        ++epochs_;
    for (unsigned i = 0; i < cfg_.channels; ++i) {
        postToChannel(i, [this, i] {
            auto resume = std::move(chs_[i]->gate_resume);
            chs_[i]->gate_resume = nullptr;
            panic_if(!resume, "commit-gate release with no deferred "
                              "continuation");
            resume();
        });
    }
}

void
ChannelGroup::resumeArrived()
{
    ++resume_arrived_;
    if (resume_arrived_ < cfg_.channels)
        return;
    resume_arrived_ = 0;
    const Tick stalled = curTick() - stall_start_;
    ckpt_stall_time_ += static_cast<double>(stalled);
    ckpt_busy_time_ += static_cast<double>(stalled);
    if (resume_client_)
        resume_client_();
}

} // namespace thynvm
