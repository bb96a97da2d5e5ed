/**
 * @file
 * The discrete-event simulation kernel.
 *
 * An EventQueue orders callbacks by tick (picoseconds) with FIFO tie
 * breaking, so simulation outcomes are fully deterministic. Components
 * schedule either ad-hoc lambdas or reusable Event objects.
 *
 * Hot-path design (DESIGN.md "Simulator performance"):
 *  - The queue orders 24-byte keys {when, seq, slot} and nothing else.
 *    A key names a payload slot that holds the callback: an inline
 *    callable (InlineFn; captures up to 48 bytes, which covers every
 *    callback the simulator schedules, never touch the heap) or a
 *    reusable Event plus the generation it was queued under. Heap
 *    sifts copy keys, never callables.
 *  - Slots live in fixed-size chunks that never move, so step() runs a
 *    callback in place; the callback may schedule new events or
 *    clear() the queue while it runs. The slot is released when the
 *    callback returns.
 *  - Same-tick continuations (scheduleIn(0, ...): device completions,
 *    table-lookup callbacks, CPU step chaining) bypass the binary heap
 *    through a FIFO of keys whose storage is reused, so steady-state
 *    scheduling performs zero heap allocations.
 *  - A single global sequence number orders the FIFO against the heap,
 *    preserving exact tick+FIFO semantics regardless of which path an
 *    item took.
 */

#ifndef THYNVM_SIM_EVENTQ_HH
#define THYNVM_SIM_EVENTQ_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace thynvm {

class EventQueue;

namespace detail {

/**
 * A type-erased `void()` callable with inline storage. It is built in
 * place and never moved: it lives in an Event or in a queue's payload
 * slot, both of which stay put for its whole life.
 *
 * Callables up to kInlineBytes are stored in place; anything larger
 * falls back to a heap allocation. Unlike std::function this never
 * allocates for the capture sizes the simulator uses, and it accepts
 * move-only captures.
 */
class InlineFn
{
  public:
    /** Inline capture capacity; fits `[this, done = std::function]`. */
    static constexpr std::size_t kInlineBytes = 48;

    InlineFn() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFn>>>
    explicit InlineFn(F&& fn)
    {
        emplace(std::forward<F>(fn));
    }

    InlineFn(const InlineFn&) = delete;
    InlineFn& operator=(const InlineFn&) = delete;

    ~InlineFn() { reset(); }

    /** True if a callable is held. */
    explicit operator bool() const { return invoke_ != nullptr; }

    /** Construct @p fn in place; nothing may be held. */
    template <typename F>
    void
    emplace(F&& fn)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
            invoke_ = [](void* s) {
                (*std::launder(static_cast<Fn*>(s)))();
            };
            if constexpr (!std::is_trivially_destructible_v<Fn>)
                destroy_ = [](void* s) {
                    std::launder(static_cast<Fn*>(s))->~Fn();
                };
        } else {
            ::new (static_cast<void*>(storage_))
                Fn*(new Fn(std::forward<F>(fn)));
            invoke_ = [](void* s) {
                (**std::launder(static_cast<Fn**>(s)))();
            };
            destroy_ = [](void* s) {
                delete *std::launder(static_cast<Fn**>(s));
            };
        }
    }

    /** Invoke the held callable. */
    void operator()() { invoke_(storage_); }

    /** Destroy the held callable, releasing its captures. */
    void
    reset()
    {
        if (destroy_ != nullptr)
            destroy_(storage_);
        invoke_ = nullptr;
        destroy_ = nullptr;
    }

  private:
    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    void (*invoke_)(void*) = nullptr;
    /** Null for trivially destructible inline callables. */
    void (*destroy_)(void*) = nullptr;
};

} // namespace detail

/**
 * A reusable, cancellable event. An Event may be scheduled on at most
 * one tick at a time; rescheduling while pending is an error unless the
 * event is first deschedule()d. Components with a fixed callback should
 * prefer a member Event over ad-hoc lambdas: scheduling one costs no
 * callable construction at all.
 */
class Event
{
  public:
    /** @param fn callback run when the event fires. */
    template <typename F>
    explicit Event(F&& fn) : fn_(std::forward<F>(fn))
    {}

    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

    /** True if the event is waiting in a queue. */
    bool scheduled() const { return scheduled_; }
    /** Tick at which the event will fire (valid only if scheduled). */
    Tick when() const { return when_; }

  private:
    friend class EventQueue;

    detail::InlineFn fn_;
    bool scheduled_ = false;
    /** Cancellation generation: bumping it invalidates queued firings. */
    std::uint64_t generation_ = 0;
    Tick when_ = 0;
};

/**
 * Deterministic priority queue of timed callbacks with a same-tick
 * FIFO fast path.
 */
class EventQueue
{
  public:
    /** Payload slots per pool chunk; a chunk never moves once made. */
    static constexpr std::uint32_t kSlotsPerChunk = 256;

    EventQueue() = default;
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Schedule a one-shot callback at absolute tick @p when. */
    template <typename F>
    void
    schedule(Tick when, F&& fn)
    {
        panic_if(when < now_, "scheduling in the past (%lu < %lu)",
                 static_cast<unsigned long>(when),
                 static_cast<unsigned long>(now_));
        const std::uint32_t slot = allocSlot();
        slotAt(slot).fn.emplace(std::forward<F>(fn));
        push(Key{when, seq_++, slot});
    }

    /** Schedule a one-shot callback @p delta ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delta, F&& fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
    }

    /**
     * High bit of a cross-queue message order key. Locally scheduled
     * callbacks draw their tie-break sequence from a counter that can
     * never reach this bit, so a delivery sorts after every local
     * callback of the same tick — "traffic arrives at the end of the
     * tick" — no matter when the sender scheduled it.
     */
    static constexpr std::uint64_t kMessageOrderBit = 1ull << 63;

    /**
     * Schedule a message from another queue at absolute tick @p when
     * with an explicit tie-break key in place of the arrival sequence
     * number. A multi-channel ChannelGroup builds @p order_key from
     * the link id and the per-link FIFO index (with kMessageOrderBit
     * set), both pure functions of simulated state, so same-tick
     * deliveries execute in a fixed order.
     */
    template <typename F>
    void
    scheduleMessage(Tick when, std::uint64_t order_key, F&& fn)
    {
        panic_if(when < now_, "delivering a message in the past");
        panic_if((order_key & kMessageOrderBit) == 0,
                 "message order key without kMessageOrderBit");
        const std::uint32_t slot = allocSlot();
        slotAt(slot).fn.emplace(std::forward<F>(fn));
        pushHeap(Key{when, order_key, slot});
    }

    /** Schedule a reusable @p event at absolute tick @p when. */
    void
    schedule(Event& event, Tick when)
    {
        panic_if(event.scheduled_, "event already scheduled");
        panic_if(when < now_, "scheduling in the past");
        event.scheduled_ = true;
        event.when_ = when;
        const std::uint32_t slot = allocSlot();
        Slot& s = slotAt(slot);
        s.event = &event;
        s.generation = event.generation_;
        push(Key{when, seq_++, slot});
    }

    /** Cancel a pending @p event. No-op if not scheduled. */
    void
    deschedule(Event& event)
    {
        if (!event.scheduled_)
            return;
        event.scheduled_ = false;
        ++event.generation_; // invalidate the queued firing lazily
    }

    /** Remove and run the single earliest event. */
    void
    step()
    {
        panic_if(empty(), "stepping an empty event queue");
        // The FIFO holds only keys at the current tick, so it can only
        // lose the tie against a heap key at that same tick that was
        // scheduled earlier (smaller sequence number).
        Key key{};
        if (fifo_head_ != fifo_.size() &&
            (heap_.empty() || Later{}(heap_.front(), fifo_[fifo_head_]))) {
            key = fifo_[fifo_head_++];
            if (fifo_head_ == fifo_.size())
                rewindFifo();
        } else {
            std::pop_heap(heap_.begin(), heap_.end(), Later{});
            key = heap_.back();
            heap_.pop_back();
        }
        panic_if(key.when < now_, "event queue went backwards");
        now_ = key.when;
        Slot& s = slotAt(key.slot);
        if (Event* event = s.event) {
            const bool live = event->generation_ == s.generation;
            s.event = nullptr;
            free_.push_back(key.slot);
            if (!live)
                return; // cancelled
            event->scheduled_ = false;
            ++events_executed_;
            event->fn_();
        } else {
            ++events_executed_;
            // Run in place (slots never move, so the callback may
            // schedule or clear() freely); the guard frees the slot when
            // the callback returns or unwinds.
            const SlotRelease release{*this, key.slot};
            s.fn();
        }
    }

    /** True if no events are pending. */
    bool
    empty() const
    {
        return heap_.empty() && fifo_head_ == fifo_.size();
    }

    /** Number of pending items (including lazily cancelled ones). */
    std::size_t
    size() const
    {
        return heap_.size() + (fifo_.size() - fifo_head_);
    }

    /**
     * Earliest pending tick, or kMaxTick if the queue is empty. Lets a
     * crash driver drain exactly the events at or before a chosen tick
     * (step() while nextTick() <= t) before pulling the plug.
     */
    Tick
    nextTick() const
    {
        return empty() ? kMaxTick : nextWhen();
    }

    /** Callbacks executed since construction (perf instrumentation). */
    std::uint64_t eventsExecuted() const { return events_executed_; }

    /** Schedules that took the same-tick FIFO fast path. */
    std::uint64_t fastPathSchedules() const { return fast_path_schedules_; }

    /**
     * Drop every pending event without running it. Used at a simulated
     * power failure: all components' volatile state is reset together,
     * so their in-flight callbacks are void. Time does not move.
     * Reusable events that were still queued are left descheduled and
     * may be rescheduled freely afterwards. A callback that is running
     * is not pending: it finishes normally.
     */
    void
    clear()
    {
        for (const Key& key : heap_)
            releaseSlot(key.slot);
        for (std::size_t i = fifo_head_; i < fifo_.size(); ++i)
            releaseSlot(fifo_[i].slot);
        heap_.clear();
        rewindFifo();
    }

    /**
     * Run until the queue drains or @p limit ticks is reached.
     * @return the tick at which the run stopped.
     */
    Tick
    run(Tick limit = kMaxTick)
    {
        while (!empty() && nextWhen() <= limit)
            step();
        if (now_ < limit && limit != kMaxTick)
            now_ = limit;
        return now_;
    }

    /**
     * Run until @p done returns true, checking after every event.
     * @return the tick at which @p done first held.
     */
    Tick
    runUntil(const std::function<bool()>& done)
    {
        while (!done()) {
            panic_if(empty(),
                     "event queue drained before condition held");
            step();
        }
        return now_;
    }

  private:
    /**
     * What the heap and the FIFO order: trivially copyable, so a heap
     * sift is a few word moves. `seq` is the arrival sequence number,
     * or a message order key with kMessageOrderBit set.
     */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };
    static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

    /**
     * A pending callback: a one-shot callable, or (event != nullptr) a
     * reusable event and the generation it was queued under.
     */
    struct Slot
    {
        detail::InlineFn fn;
        Event* event = nullptr;
        std::uint64_t generation = 0;
    };

    /** Min-heap comparator: later (when, seq) sinks. */
    struct Later
    {
        bool
        operator()(const Key& a, const Key& b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Frees a one-shot callback's slot once it has run. */
    struct SlotRelease
    {
        EventQueue& eq;
        std::uint32_t slot;

        ~SlotRelease()
        {
            eq.slotAt(slot).fn.reset();
            eq.free_.push_back(slot);
        }
    };

    Slot&
    slotAt(std::uint32_t slot)
    {
        return chunks_[slot / kSlotsPerChunk][slot % kSlotsPerChunk];
    }

    std::uint32_t
    allocSlot()
    {
        if (free_.empty()) {
            const auto base =
                static_cast<std::uint32_t>(chunks_.size()) * kSlotsPerChunk;
            chunks_.push_back(std::make_unique<Slot[]>(kSlotsPerChunk));
            for (std::uint32_t i = kSlotsPerChunk; i-- > 0;)
                free_.push_back(base + i);
        }
        const std::uint32_t slot = free_.back();
        free_.pop_back();
        return slot;
    }

    /**
     * Drop a pending slot's callback as part of clear(): release a
     * callable's captures, or leave a still-queued reusable event
     * descheduled.
     */
    void
    releaseSlot(std::uint32_t slot)
    {
        Slot& s = slotAt(slot);
        if (s.event != nullptr) {
            if (s.event->generation_ == s.generation) {
                s.event->scheduled_ = false;
                ++s.event->generation_;
            }
            s.event = nullptr;
        } else {
            s.fn.reset();
        }
        free_.push_back(slot);
    }

    void
    push(const Key& key)
    {
        if (key.when == now_) {
            if (fifo_head_ == fifo_.size())
                rewindFifo();
            fifo_.push_back(key);
            ++fast_path_schedules_;
        } else {
            pushHeap(key);
        }
    }

    void
    pushHeap(const Key& key)
    {
        heap_.push_back(key);
        std::push_heap(heap_.begin(), heap_.end(), Later{});
    }

    /** Empty the FIFO, keeping its capacity: steady state allocates 0. */
    void
    rewindFifo()
    {
        fifo_.clear();
        fifo_head_ = 0;
    }

    /** Earliest pending tick; queue must not be empty. */
    Tick
    nextWhen() const
    {
        if (fifo_head_ == fifo_.size())
            return heap_.front().when;
        if (heap_.empty())
            return fifo_[fifo_head_].when;
        return std::min(fifo_[fifo_head_].when, heap_.front().when);
    }

    std::vector<Key> heap_;
    /** Same-tick keys; [fifo_head_, size) are pending. */
    std::vector<Key> fifo_;
    std::size_t fifo_head_ = 0;
    /** Payload pool: chunks of kSlotsPerChunk slots, and a free stack. */
    std::vector<std::unique_ptr<Slot[]>> chunks_;
    std::vector<std::uint32_t> free_;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t events_executed_ = 0;
    std::uint64_t fast_path_schedules_ = 0;
};

} // namespace thynvm

#endif // THYNVM_SIM_EVENTQ_HH
