/**
 * @file
 * Timing model of a memory device (DRAM or NVM) with banked row buffers,
 * separate read/write queues, FR-FCFS-style scheduling with write-drain
 * watermarks, and crash-precise durability semantics.
 *
 * Timing follows Table 2 of the paper: row-buffer hits and misses have
 * fixed service latencies; NVM distinguishes clean and dirty row-buffer
 * misses (a dirty miss must first write the evicted row back to the cell
 * array). A shared data bus serializes block transfers.
 *
 * Hot-path design (DESIGN.md "Per-bank device scheduler"):
 *  - Requests live in a fixed slab of pooled slots; queues are intrusive
 *    doubly-linked FIFOs threaded through the slots, bucketed per bank
 *    and direction. Nothing is copied or shifted after enqueue.
 *  - FR-FCFS picks among the head candidates of the banks that have
 *    waiting requests (a bitmask per direction); the oldest row-buffer
 *    hit per bank is tracked incrementally instead of being
 *    rediscovered by scanning the whole queue every pass.
 *  - A scheduling pass that could start nothing new (same tick, no
 *    enqueue or completion since the last pass) returns at once.
 *  - Completions resolve by slot index in O(1); no search, no erase.
 *  - Undo bytes for crash rollback live in a per-device append-only
 *    undo log, so neither queued requests nor a staging port's FIFO
 *    carry block-sized payloads; compaction costs amortized O(1) per write.
 *    A volatile device (DRAM) keeps no undo log at all: its crash()
 *    zeroes the store.
 */

#ifndef THYNVM_MEM_DEVICE_HH
#define THYNVM_MEM_DEVICE_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/request.hh"
#include "sim/sim_object.hh"

namespace thynvm {

/**
 * Static configuration of a memory device.
 */
struct DeviceParams
{
    /** Total capacity in bytes. */
    std::size_t capacity = 16u << 20;
    /** Number of banks (requests to distinct banks proceed in parallel). */
    unsigned banks = 8;
    /** Row-buffer size in bytes. */
    std::size_t row_size = 8192;
    /** Service latency of a row-buffer hit. */
    Tick row_hit_latency = 40 * kNanosecond;
    /** Service latency of a row miss with a clean open row. */
    Tick row_miss_clean_latency = 80 * kNanosecond;
    /** Service latency of a row miss with a dirty open row. */
    Tick row_miss_dirty_latency = 80 * kNanosecond;
    /** Data-bus occupancy per 64-byte block transfer. */
    Tick burst_latency = 5 * kNanosecond;
    /** Read queue capacity. */
    unsigned read_queue_capacity = 32;
    /** Write queue capacity. */
    unsigned write_queue_capacity = 64;
    /** Start draining writes when the write queue reaches this level. */
    unsigned write_drain_high = 48;
    /** Stop draining when the write queue falls to this level. */
    unsigned write_drain_low = 16;
    /**
     * True for nonvolatile media: unserviced writes roll back on
     * crash(). A volatile device logs no pre-images and loses its whole
     * contents on crash().
     */
    bool persistent = true;

    /** Standard DDR3-1600 DRAM per Table 2. */
    static DeviceParams dram(std::size_t capacity);
    /** NVM timing per Table 2 (40/128/368 ns hit/clean/dirty). */
    static DeviceParams nvm(std::size_t capacity);
};

/**
 * A banked memory device with timing and functional state.
 *
 * Functional semantics: write data hits the backing store when it is
 * *staged* (at enqueue, or at send time through a DevicePort) so that
 * producers can immediately read their own writes. For crash fidelity
 * every write staged to a persistent device appends (addr, previous
 * bytes) to the device's undo log; crash() replays the log backwards
 * over all writes that the timing model had not yet serviced, leaving
 * exactly the bytes a real device would hold after power loss. A
 * volatile device holds nothing after power loss, so it logs nothing
 * and its crash() zeroes the store.
 */
class MemDevice : public SimObject
{
  public:
    MemDevice(EventQueue& eq, std::string name, const DeviceParams& params,
              std::shared_ptr<BackingStore> store = nullptr);

    /** Device configuration. */
    const DeviceParams& params() const { return params_; }
    /** Functional contents. */
    BackingStore& store() { return *store_; }
    const BackingStore& store() const { return *store_; }
    /** Shared handle to the functional contents (survives crash). */
    std::shared_ptr<BackingStore> storeHandle() { return store_; }

    /** True if a request of the given kind can be enqueued now. */
    bool canAccept(bool is_write) const;

    /**
     * Enqueue a read. Returns false (and does nothing) if the read
     * queue is full. @p on_complete fires when the timed service ends.
     */
    bool enqueueRead(Addr addr, TrafficSource source,
                     std::function<void()> on_complete = {});

    /**
     * Stage and enqueue a write of one block. Returns false (and does
     * nothing) if the write queue is full. @p data (kBlockSize bytes)
     * is applied to the backing store immediately on acceptance; the
     * queued request itself carries no payload.
     */
    bool enqueueWrite(Addr addr, const std::uint8_t* data,
                      TrafficSource source,
                      std::function<void()> on_complete = {});

    /**
     * Stage a write of one block ahead of its enqueue: @p data is
     * applied to the backing store now and, on a persistent device, its
     * pre-image logged, so crash() rolls it back until the write is
     * serviced. Staged writes must be enqueued, by enqueueStagedWrite(),
     * in staging order, and nothing else may write the device while any
     * is pending.
     */
    void stageWrite(Addr addr, const std::uint8_t* data);

    /**
     * Enqueue the oldest staged write, which must target @p addr.
     * Returns false (and does nothing) if the write queue is full.
     */
    bool enqueueStagedWrite(Addr addr, TrafficSource source,
                            std::function<void()> on_complete = {});

    /**
     * Install the hook the device calls when a slot of the given
     * direction frees while the hook is armed, replacing any earlier
     * one. A DevicePort installs one per direction when it is built.
     */
    void
    setAcceptHook(bool is_write, std::function<void()> hook)
    {
        accept_hooks_[is_write] = std::move(hook);
    }

    /**
     * Arm the hook of the given direction: it fires once, when the next
     * slot of that direction frees. quiesce() and crash() disarm it.
     */
    void armAcceptHook(bool is_write) { accept_armed_[is_write] = true; }

    /**
     * One-shot wakeup for a caller the device refused: install @p cb as
     * the hook and arm it. The queue must be full.
     */
    void notifyWhenAccepting(bool is_write, std::function<void()> cb);

    /** True if no writes are queued or in flight. */
    bool writesDrained() const;

    /** One-shot callback for when all currently queued writes finish. */
    void notifyWhenWritesDrained(std::function<void()> cb);

    /**
     * Power-loss semantics: drop all queued requests and callbacks. A
     * persistent device rolls back unserviced writes, queued or staged
     * (in reverse staging order); a volatile one zeroes its store. The
     * event queue is assumed to be abandoned by the caller.
     */
    void crash();

    /**
     * Drop all queued requests and callbacks but keep the functional
     * contents, staged writes included (no rollback). Used by the
     * idealized systems, whose crash consistency is free by assumption.
     */
    void quiesce();

    /** Undo-log entries, dead ones included. */
    std::size_t undoLogSize() const { return undo_log_.size(); }
    /** Undo-log entries of writes not yet serviced. */
    std::size_t liveUndoEntries() const
    {
        return params_.persistent ? staged_ + write_count_ : 0;
    }
    /** Staged writes not yet enqueued. */
    std::size_t stagedWrites() const { return staged_; }

    /** Total bytes written, by traffic source. */
    std::uint64_t writeBytes(TrafficSource s) const;
    /** Total bytes written across all sources. */
    std::uint64_t totalWriteBytes() const;

  private:
    /** Slot-index sentinel for "no slot" / list end. */
    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    /**
     * One pooled request slot. Slots never move: queues are linked
     * lists threaded through `prev`/`next`, and a completion addresses
     * its slot directly by index.
     */
    struct Slot
    {
        Addr addr = 0;
        std::uint64_t row = 0;
        Tick enqueue_tick = 0;
        std::uint64_t seq = 0;
        std::function<void()> on_complete;
        std::uint32_t prev = kNullSlot;
        std::uint32_t next = kNullSlot;
        /** Owning undo-log entry (writes only). */
        std::uint64_t undo_index = 0;
        TrafficSource source = TrafficSource::DemandRead;
        bool is_write = false;
        bool in_service = false;
        /** row % banks, computed once at enqueue. */
        std::uint32_t bank = 0;
    };

    /** Waiting requests of one direction at one bank, in seq order. */
    struct BankQueue
    {
        std::uint32_t head = kNullSlot;
        std::uint32_t tail = kNullSlot;
        /**
         * Oldest waiting request targeting the bank's open row, or
         * kNullSlot. Only meaningful while `row_valid`; maintained on
         * enqueue, dequeue, and row change.
         */
        std::uint32_t hit = kNullSlot;
    };

    struct Bank
    {
        Tick busy_until = 0;
        std::uint64_t open_row = ~0ull;
        bool row_dirty = false;
        bool row_valid = false;
        /** Waiting requests: [0] reads, [1] writes. */
        BankQueue q[2];
    };

    /** UndoEntry::slot of a write staged but not yet enqueued. */
    static constexpr std::uint32_t kStagedSlot = 0xfffffffeu;

    /** One saved pre-image in the append-only undo log. */
    struct UndoEntry
    {
        Addr addr = 0;
        /** Owning write slot; kStagedSlot until the write is enqueued,
         *  kNullSlot once it is durable. */
        std::uint32_t slot = kNullSlot;
        std::array<std::uint8_t, kBlockSize> old_data{};
    };

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t idx);
    void linkTail(BankQueue& bq, std::uint32_t idx);
    void unlink(BankQueue& bq, std::uint32_t idx);
    /** Oldest slot with @p row in the chain starting at @p from. */
    std::uint32_t scanForRow(std::uint32_t from, std::uint64_t row) const;
    /** Mark the undo entry at @p index durable and trim the log. */
    void retireUndoEntry(std::uint64_t index);
    /** Drop the undo log's dead entries. */
    void compactUndoLog();
    UndoEntry& undoAt(std::size_t i) { return undo_log_[i - undo_base_]; }
    /** Queue a request in a free slot (capacity already checked). */
    std::uint32_t enqueue(Addr addr, TrafficSource source, bool is_write,
                          std::function<void()> on_complete);

    /**
     * Try to start servicing queued requests; schedules completions.
     * Returns at once if a pass already ran at this tick and nothing
     * was enqueued or completed since.
     */
    void trySchedule();
    /**
     * Next serviceable slot of direction @p dir (0 = read, 1 = write),
     * or kNullSlot. FR-FCFS over the heads of the ready banks in
     * waiting_[dir], visited in ascending bank order: the oldest row
     * hit wins outright, else the oldest ready request.
     */
    std::uint32_t pickNext(int dir);
    /** Begin timed service of the request in slot @p idx. */
    void startService(std::uint32_t idx);
    void finishService(std::uint32_t idx, std::uint64_t seq);
    void fireAcceptHook(bool is_write);
    /**
     * Arm the bank-ready wakeup: when requests wait but no completion
     * is pending (possible after quiesce() left banks busy), schedule
     * a scheduling pass at the earliest busy_until instead of stalling
     * forever.
     */
    void maybeScheduleWakeup();

    DeviceParams params_;
    std::shared_ptr<BackingStore> store_;
    std::vector<Bank> banks_;
    /** Per direction, bit b set iff bank b has waiting requests. */
    std::array<std::uint64_t, 2> waiting_{};
    Tick bus_free_ = 0;

    /** Pooled slots; read_queue_capacity + write_queue_capacity. */
    std::vector<Slot> slots_;
    /** Free-slot stack threaded through Slot::next. */
    std::uint32_t free_head_ = kNullSlot;
    /** Queued requests per direction, in-service included. */
    unsigned read_count_ = 0;
    unsigned write_count_ = 0;
    /** Requests in timed service (completion event pending). */
    unsigned in_flight_ = 0;

    /** A deque, so a staged burst grows it without copying and durable
     *  entries pop off the front; indices are undo_base_ + position. */
    std::deque<UndoEntry> undo_log_;
    std::size_t undo_base_ = 0;
    /** Oldest staged entry: staged writes are the log's tail. */
    std::size_t staged_head_ = 0;
    /** Writes staged but not yet enqueued. */
    std::size_t staged_ = 0;

    bool draining_writes_ = false;
    /**
     * Tick of the last scheduling pass, and whether a request was
     * enqueued or completed (or the device quiesced) since then.
     */
    Tick last_pass_tick_ = 0;
    bool sched_dirty_ = true;
    std::uint64_t next_seq_ = 0;
    /** Coalesces a same-tick burst of enqueues into one scheduling pass. */
    Event schedule_event_;
    /** Bank-ready wakeup when no completion will drive scheduling. */
    Event wakeup_event_;

    /** Accept hooks and whether each is armed, indexed by is_write. */
    std::array<std::function<void()>, 2> accept_hooks_;
    std::array<bool, 2> accept_armed_{};
    std::vector<std::function<void()>> drain_cbs_;

    // Statistics.
    stats::Scalar reads_;
    stats::Scalar writes_;
    stats::Scalar read_bytes_;
    stats::Scalar write_bytes_by_source_[kNumTrafficSources];
    stats::Scalar row_hits_;
    stats::Scalar row_misses_clean_;
    stats::Scalar row_misses_dirty_;
    stats::Scalar write_drain_entries_;
    stats::Histogram read_latency_{32, 2000.0}; // ns
};

} // namespace thynvm

#endif // THYNVM_MEM_DEVICE_HH
