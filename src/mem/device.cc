/**
 * @file
 * MemDevice implementation.
 *
 * Scheduling-equivalence note: the slab + per-bank-queue structures are
 * a faithful reimplementation of the original whole-queue FR-FCFS scan.
 * The old scan returned the first (oldest-seq) row hit across the whole
 * queue, else the oldest ready request; per bank that is exactly "the
 * bank's oldest waiting row hit" and "the bank's FIFO head", so picking
 * the minimum sequence number among at most `banks` such candidates
 * reproduces the original choice tick for tick. Which banks are visited,
 * and in what order, cannot change the pick: sequence numbers are
 * unique, so the minimum is the same over any superset of the banks
 * that hold a candidate.
 */

#include "mem/device.hh"

#include <algorithm>
#include <bit>

namespace thynvm {

const char*
trafficSourceName(TrafficSource s)
{
    switch (s) {
      case TrafficSource::DemandRead: return "demand_read";
      case TrafficSource::CpuWriteback: return "cpu_writeback";
      case TrafficSource::Checkpoint: return "checkpoint";
      case TrafficSource::Migration: return "migration";
      case TrafficSource::Recovery: return "recovery";
    }
    return "unknown";
}

DeviceParams
DeviceParams::dram(std::size_t capacity)
{
    DeviceParams p;
    p.capacity = capacity;
    p.row_hit_latency = 40 * kNanosecond;
    p.row_miss_clean_latency = 80 * kNanosecond;
    p.row_miss_dirty_latency = 80 * kNanosecond;
    p.persistent = false;
    return p;
}

DeviceParams
DeviceParams::nvm(std::size_t capacity)
{
    DeviceParams p;
    p.capacity = capacity;
    p.row_hit_latency = 40 * kNanosecond;
    p.row_miss_clean_latency = 128 * kNanosecond;
    p.row_miss_dirty_latency = 368 * kNanosecond;
    return p;
}

MemDevice::MemDevice(EventQueue& eq, std::string name,
                     const DeviceParams& params,
                     std::shared_ptr<BackingStore> store)
    : SimObject(eq, std::move(name)),
      params_(params),
      store_(store ? std::move(store)
                   : std::make_shared<BackingStore>(params.capacity)),
      banks_(params.banks),
      schedule_event_([this] { trySchedule(); }),
      wakeup_event_([this] { trySchedule(); })
{
    fatal_if(params_.banks == 0 || params_.banks > 64,
             "device must have 1 to 64 banks");
    fatal_if(params_.row_size == 0 || params_.row_size % kBlockSize != 0,
             "row size must be a nonzero multiple of the block size");
    fatal_if(store_->size() < params_.capacity,
             "backing store smaller than device capacity");
    fatal_if(params_.write_drain_low >= params_.write_drain_high ||
                 params_.write_drain_high > params_.write_queue_capacity,
             "invalid write drain watermarks");

    slots_.resize(params_.read_queue_capacity +
                  params_.write_queue_capacity);
    for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size());
         i-- > 0;) {
        slots_[i].next = free_head_;
        free_head_ = i;
    }

    stats().addScalar("reads", &reads_, "read requests serviced");
    stats().addScalar("writes", &writes_, "write requests serviced");
    stats().addScalar("read_bytes", &read_bytes_, "bytes read");
    for (std::size_t i = 0; i < kNumTrafficSources; ++i) {
        stats().addScalar(
            std::string("write_bytes::") +
                trafficSourceName(static_cast<TrafficSource>(i)),
            &write_bytes_by_source_[i], "bytes written by source");
    }
    stats().addScalar("row_hits", &row_hits_, "row buffer hits");
    stats().addScalar("row_misses_clean", &row_misses_clean_,
                      "row misses with clean open row");
    stats().addScalar("row_misses_dirty", &row_misses_dirty_,
                      "row misses with dirty open row");
    stats().addScalar("write_drain_entries", &write_drain_entries_,
                      "times the device entered write-drain mode");
    stats().addHistogram("read_latency_ns", &read_latency_,
                         "read service latency");
}

bool
MemDevice::canAccept(bool is_write) const
{
    if (is_write)
        return write_count_ < params_.write_queue_capacity;
    return read_count_ < params_.read_queue_capacity;
}

std::uint32_t
MemDevice::allocSlot()
{
    panic_if(free_head_ == kNullSlot, "slot slab exhausted");
    const std::uint32_t idx = free_head_;
    free_head_ = slots_[idx].next;
    slots_[idx].next = kNullSlot;
    return idx;
}

void
MemDevice::freeSlot(std::uint32_t idx)
{
    Slot& sl = slots_[idx];
    sl.on_complete = nullptr;
    sl.in_service = false;
    sl.prev = kNullSlot;
    sl.next = free_head_;
    free_head_ = idx;
}

void
MemDevice::linkTail(BankQueue& bq, std::uint32_t idx)
{
    Slot& sl = slots_[idx];
    sl.prev = bq.tail;
    sl.next = kNullSlot;
    if (bq.tail == kNullSlot)
        bq.head = idx;
    else
        slots_[bq.tail].next = idx;
    bq.tail = idx;
}

void
MemDevice::unlink(BankQueue& bq, std::uint32_t idx)
{
    Slot& sl = slots_[idx];
    if (sl.prev == kNullSlot)
        bq.head = sl.next;
    else
        slots_[sl.prev].next = sl.next;
    if (sl.next == kNullSlot)
        bq.tail = sl.prev;
    else
        slots_[sl.next].prev = sl.prev;
    sl.prev = kNullSlot;
    sl.next = kNullSlot;
}

std::uint32_t
MemDevice::scanForRow(std::uint32_t from, std::uint64_t row) const
{
    for (std::uint32_t i = from; i != kNullSlot; i = slots_[i].next) {
        if (slots_[i].row == row)
            return i;
    }
    return kNullSlot;
}

void
MemDevice::compactUndoLog()
{
    undo_log_.erase(std::remove_if(undo_log_.begin(), undo_log_.end(),
                                   [](const UndoEntry& e) {
                                       return e.slot == kNullSlot;
                                   }),
                    undo_log_.end());
    // What is left is the queued writes' entries, then the staged ones.
    for (std::size_t i = 0; i < write_count_; ++i)
        slots_[undo_log_[i].slot].undo_index = undo_base_ + i;
    staged_head_ = undo_base_ + write_count_;
}

void
MemDevice::retireUndoEntry(std::uint64_t index)
{
    // The write is durable; its pre-image must not be replayed.
    undoAt(index).slot = kNullSlot;
    // Dead entries mostly leave from the front. Compacting once the
    // rest reach live + 2 x queue capacity keeps the log under
    // 2 x (live + queue capacity); each pass at least halves it.
    while (!undo_log_.empty() && undo_log_.front().slot == kNullSlot) {
        undo_log_.pop_front();
        ++undo_base_;
    }
    const std::size_t live = liveUndoEntries();
    if (undo_log_.size() - live >= live + 2u * params_.write_queue_capacity)
        compactUndoLog();
}

std::uint32_t
MemDevice::enqueue(Addr addr, TrafficSource source, bool is_write,
                   std::function<void()> on_complete)
{
    const std::uint32_t idx = allocSlot();
    Slot& sl = slots_[idx];
    sl.addr = addr;
    sl.row = addr / params_.row_size;
    sl.bank = static_cast<std::uint32_t>(sl.row % params_.banks);
    sl.enqueue_tick = curTick();
    sl.seq = next_seq_++;
    sl.on_complete = std::move(on_complete);
    sl.source = source;
    sl.is_write = is_write;
    sl.in_service = false;

    Bank& bank = banks_[sl.bank];
    const int dir = is_write ? 1 : 0;
    BankQueue& bq = bank.q[dir];
    linkTail(bq, idx);
    waiting_[dir] |= std::uint64_t{1} << sl.bank;
    if (bank.row_valid && bank.open_row == sl.row && bq.hit == kNullSlot)
        bq.hit = idx;
    ++(is_write ? write_count_ : read_count_);
    sched_dirty_ = true;

    if (!schedule_event_.scheduled()) {
        // Defer scheduling to a zero-delay event so a burst of enqueues
        // in the same tick is scheduled as one batch.
        eventq_.schedule(schedule_event_, curTick());
    }
    return idx;
}

bool
MemDevice::enqueueRead(Addr addr, TrafficSource source,
                       std::function<void()> on_complete)
{
    panic_if(addr % kBlockSize != 0, "unaligned device request");
    panic_if(addr + kBlockSize > params_.capacity,
             "device request beyond capacity: addr=%llu cap=%zu",
             static_cast<unsigned long long>(addr), params_.capacity);
    if (read_count_ >= params_.read_queue_capacity)
        return false;
    enqueue(addr, source, false, std::move(on_complete));
    return true;
}

void
MemDevice::stageWrite(Addr addr, const std::uint8_t* data)
{
    panic_if(addr % kBlockSize != 0, "unaligned device request");
    panic_if(addr + kBlockSize > params_.capacity,
             "device request beyond capacity: addr=%llu cap=%zu",
             static_cast<unsigned long long>(addr), params_.capacity);
    // Save undo bytes for crash rollback, then apply functionally.
    if (params_.persistent) {
        UndoEntry& ue = undo_log_.emplace_back();
        ue.addr = addr;
        ue.slot = kStagedSlot;
        store_->read(addr, ue.old_data.data(), kBlockSize);
    }
    store_->write(addr, data, kBlockSize);
    ++staged_;
}

bool
MemDevice::enqueueStagedWrite(Addr addr, TrafficSource source,
                              std::function<void()> on_complete)
{
    if (write_count_ >= params_.write_queue_capacity)
        return false;
    panic_if(staged_ == 0, "no staged write to enqueue");
    panic_if(params_.persistent && undoAt(staged_head_).addr != addr,
             "enqueued write is not the oldest staged one");
    --staged_;
    const std::uint32_t idx =
        enqueue(addr, source, true, std::move(on_complete));
    if (params_.persistent) {
        undoAt(staged_head_).slot = idx;
        slots_[idx].undo_index = staged_head_++;
    }
    return true;
}

bool
MemDevice::enqueueWrite(Addr addr, const std::uint8_t* data,
                        TrafficSource source,
                        std::function<void()> on_complete)
{
    if (write_count_ >= params_.write_queue_capacity)
        return false;
    panic_if(staged_ != 0,
             "direct device write while staged writes are pending");
    stageWrite(addr, data);
    return enqueueStagedWrite(addr, source, std::move(on_complete));
}

void
MemDevice::notifyWhenAccepting(bool is_write, std::function<void()> cb)
{
    panic_if(canAccept(is_write), "waiting on a %s queue that has room",
             is_write ? "write" : "read");
    setAcceptHook(is_write, std::move(cb));
    armAcceptHook(is_write);
}

bool
MemDevice::writesDrained() const
{
    return write_count_ == 0;
}

void
MemDevice::notifyWhenWritesDrained(std::function<void()> cb)
{
    if (writesDrained()) {
        eventq_.scheduleIn(0, std::move(cb));
        return;
    }
    drain_cbs_.push_back(std::move(cb));
}

void
MemDevice::crash()
{
    if (!params_.persistent) {
        // Volatile media keep nothing across power loss.
        store_->clear();
        quiesce();
        return;
    }
    // Replay the undo log newest-first, skipping entries whose write was
    // serviced (durable); each applied pre-image restores the bytes
    // present when that write was enqueued.
    for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
        if (it->slot != kNullSlot)
            store_->write(it->addr, it->old_data.data(), kBlockSize);
    }
    quiesce();
}

void
MemDevice::quiesce()
{
    for (auto& bank : banks_) {
        bank.q[0] = BankQueue{};
        bank.q[1] = BankQueue{};
    }
    waiting_ = {};
    // Rebuild the free list over the whole slab, dropping any queued or
    // in-flight requests (and their completion closures).
    free_head_ = kNullSlot;
    for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size());
         i-- > 0;)
        freeSlot(i);
    read_count_ = 0;
    write_count_ = 0;
    in_flight_ = 0;
    undo_log_.clear();
    staged_head_ = undo_base_;
    staged_ = 0;
    accept_armed_ = {};
    drain_cbs_.clear();
    // The caller abandons the event queue, so any pending scheduling or
    // completion events are gone; cancel the reusable events.
    eventq_.deschedule(schedule_event_);
    eventq_.deschedule(wakeup_event_);
    draining_writes_ = false;
    sched_dirty_ = true;
}

std::uint64_t
MemDevice::writeBytes(TrafficSource s) const
{
    return static_cast<std::uint64_t>(
        write_bytes_by_source_[static_cast<std::size_t>(s)].value());
}

std::uint64_t
MemDevice::totalWriteBytes() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < kNumTrafficSources; ++i)
        total += static_cast<std::uint64_t>(
            write_bytes_by_source_[i].value());
    return total;
}

std::uint64_t
MemDevice::totalReadBytes() const
{
    return static_cast<std::uint64_t>(read_bytes_.value());
}

std::uint32_t
MemDevice::pickNext(int dir)
{
    const Tick now = curTick();
    std::uint32_t best_hit = kNullSlot;
    std::uint32_t best_head = kNullSlot;
    for (std::uint64_t m = waiting_[dir]; m != 0; m &= m - 1) {
        const Bank& bank = banks_[std::countr_zero(m)];
        if (bank.busy_until > now)
            continue;
        const BankQueue& bq = bank.q[dir];
        // FR-FCFS: the oldest row-buffer hit wins outright.
        if (bank.row_valid && bq.hit != kNullSlot &&
            (best_hit == kNullSlot ||
             slots_[bq.hit].seq < slots_[best_hit].seq)) {
            best_hit = bq.hit;
        }
        if (best_head == kNullSlot ||
            slots_[bq.head].seq < slots_[best_head].seq) {
            best_head = bq.head;
        }
    }
    return best_hit != kNullSlot ? best_hit : best_head;
}

void
MemDevice::trySchedule()
{
    // A pass ends only when nothing more can start. Until a request
    // arrives or completes, the same tick sees the same queues, ready
    // banks and drain mode, so a repeat pass would start nothing (and
    // its wakeup check would find the same busy banks; DESIGN.md
    // "Per-bank device scheduler").
    const Tick now = curTick();
    if (!sched_dirty_ && last_pass_tick_ == now)
        return;
    sched_dirty_ = false;
    last_pass_tick_ = now;

    // Reads are latency-critical and win whenever the write backlog is
    // manageable; writes are drained in bursts once the queue crosses
    // the high watermark (or opportunistically when no reads wait).
    const bool was_draining = draining_writes_;
    draining_writes_ = write_count_ >= params_.write_drain_high ||
                       (draining_writes_ &&
                        write_count_ > params_.write_drain_low &&
                        read_count_ == 0);
    if (draining_writes_ && !was_draining)
        ++write_drain_entries_;

    bool progress = true;
    while (progress) {
        progress = false;
        const int primary = draining_writes_ ? 1 : 0;
        std::uint32_t idx = pickNext(primary);
        if (idx != kNullSlot) {
            startService(idx);
            progress = true;
            continue;
        }
        idx = pickNext(1 - primary);
        if (idx != kNullSlot) {
            startService(idx);
            progress = true;
        }
    }
    maybeScheduleWakeup();
}

void
MemDevice::startService(std::uint32_t idx)
{
    Slot& sl = slots_[idx];
    Bank& bank = banks_[sl.bank];
    const int dir = sl.is_write ? 1 : 0;
    BankQueue& bq = bank.q[dir];

    const bool row_hit = bank.row_valid && bank.open_row == sl.row;
    const std::uint32_t after = sl.next;
    unlink(bq, idx);
    if (bq.head == kNullSlot)
        waiting_[dir] &= ~(std::uint64_t{1} << sl.bank);
    sl.in_service = true;

    Tick access_latency;
    if (row_hit) {
        access_latency = params_.row_hit_latency;
        ++row_hits_;
        // This slot was the bank's oldest hit; the next-oldest can only
        // be among its successors.
        panic_if(bq.hit != idx, "row-hit candidate out of sync");
        bq.hit = scanForRow(after, sl.row);
    } else {
        if (bank.row_valid && bank.row_dirty) {
            access_latency = params_.row_miss_dirty_latency;
            ++row_misses_dirty_;
        } else {
            access_latency = params_.row_miss_clean_latency;
            ++row_misses_clean_;
        }
        // Opening a new row discards the old one; the cost of writing
        // back a dirty evicted row was paid in the access latency above.
        // Both directions' hit candidates follow the new open row.
        bank.open_row = sl.row;
        bank.q[0].hit = scanForRow(bank.q[0].head, sl.row);
        bank.q[1].hit = scanForRow(bank.q[1].head, sl.row);
    }
    bank.row_valid = true;
    bank.row_dirty = (row_hit && bank.row_dirty) || sl.is_write;

    const Tick now = curTick();
    const Tick access_done = now + access_latency;
    const Tick bus_slot = std::max(access_done, bus_free_);
    const Tick done = bus_slot + params_.burst_latency;
    bus_free_ = done;
    bank.busy_until = done;

    ++in_flight_;
    const std::uint64_t seq = sl.seq;
    eventq_.schedule(done, [this, idx, seq] { finishService(idx, seq); });
}

void
MemDevice::finishService(std::uint32_t idx, std::uint64_t seq)
{
    Slot& sl = slots_[idx];
    panic_if(!sl.in_service || sl.seq != seq,
             "completion for unknown request");
    --in_flight_;
    sched_dirty_ = true;

    const bool is_write = sl.is_write;
    if (is_write) {
        ++writes_;
        write_bytes_by_source_[static_cast<std::size_t>(sl.source)] +=
            kBlockSize;
        --write_count_;
        if (params_.persistent)
            retireUndoEntry(sl.undo_index);
    } else {
        ++reads_;
        read_bytes_ += kBlockSize;
        read_latency_.sample(
            static_cast<double>(curTick() - sl.enqueue_tick) /
            kNanosecond);
        --read_count_;
    }

    auto cb = std::move(sl.on_complete);
    freeSlot(idx);
    if (cb)
        cb();

    fireAcceptHook(is_write);
    if (is_write && write_count_ == 0 && !drain_cbs_.empty()) {
        auto cbs = std::move(drain_cbs_);
        drain_cbs_.clear();
        for (auto& drain_cb : cbs)
            drain_cb();
    }

    trySchedule();
}

void
MemDevice::fireAcceptHook(bool is_write)
{
    if (!accept_armed_[is_write] || !canAccept(is_write))
        return;
    accept_armed_[is_write] = false;
    accept_hooks_[is_write]();
}

void
MemDevice::maybeScheduleWakeup()
{
    // Completions call trySchedule, so a pending completion is a
    // wakeup; the event is only needed when requests wait while no
    // completion is in flight (banks left busy across a quiesce()).
    if (in_flight_ > 0 || read_count_ + write_count_ == 0)
        return;
    const Tick now = curTick();
    Tick earliest = kMaxTick;
    for (std::uint64_t m = waiting_[0] | waiting_[1]; m != 0; m &= m - 1) {
        const Bank& bank = banks_[std::countr_zero(m)];
        if (bank.busy_until > now && bank.busy_until < earliest)
            earliest = bank.busy_until;
    }
    if (earliest == kMaxTick)
        return;
    if (wakeup_event_.scheduled()) {
        if (wakeup_event_.when() <= earliest)
            return;
        eventq_.deschedule(wakeup_event_);
    }
    eventq_.schedule(wakeup_event_, earliest);
}

} // namespace thynvm
