/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "sim/eventq.hh"

namespace thynvm {
namespace {

TEST(EventQueueTest, OrdersByTick)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, FifoTieBreak)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.schedule(5, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleInIsRelative)
{
    EventQueue eq;
    Tick fired_at = 0;
    eq.schedule(100, [&] {
        eq.scheduleIn(50, [&] { fired_at = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired_at, 150u);
}

TEST(EventQueueTest, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueueTest, RunWithLimitStops)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(1000, [&] { ++fired; });
    eq.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, ReusableEventFiresAndClears)
{
    EventQueue eq;
    int fired = 0;
    Event ev([&] { ++fired; });
    eq.schedule(ev, 10);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 10u);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(ev.scheduled());
    // Re-arm after firing.
    eq.schedule(ev, 20);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, DescheduleCancels)
{
    EventQueue eq;
    int fired = 0;
    Event ev([&] { ++fired; });
    eq.schedule(ev, 10);
    eq.deschedule(ev);
    EXPECT_FALSE(ev.scheduled());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, DescheduleThenRescheduleFiresOnce)
{
    EventQueue eq;
    int fired = 0;
    Event ev([&] { ++fired; });
    eq.schedule(ev, 10);
    eq.deschedule(ev);
    eq.schedule(ev, 30);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueueTest, DoubleScheduleReusableEventPanics)
{
    EventQueue eq;
    Event ev([] {});
    eq.schedule(ev, 10);
    EXPECT_THROW(eq.schedule(ev, 20), PanicError);
}

TEST(EventQueueTest, RunUntilCondition)
{
    EventQueue eq;
    int count = 0;
    for (int i = 1; i <= 10; ++i)
        eq.schedule(i * 10, [&] { ++count; });
    eq.runUntil([&] { return count == 4; });
    EXPECT_EQ(count, 4);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueueTest, ClearDropsEverything)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.clear();
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(EventQueueTest, TimeAdvancesAcrossClear)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    eq.clear();
    EXPECT_EQ(eq.now(), 100u);
    eq.schedule(150, [] {});
    eq.run();
    EXPECT_EQ(eq.now(), 150u);
}

// ---------------------------------------------------------------------
// Same-tick FIFO fast path vs heap ordering.
// ---------------------------------------------------------------------

TEST(EventQueueTest, SameTickContinuationsPreserveGlobalFifoOrder)
{
    // A and B are pre-scheduled (heap path) at the same tick. A's
    // callback schedules a zero-delay continuation (FIFO fast path).
    // The continuation was scheduled *after* B, so it must run after B.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(100, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] { order.push_back(3); });
    });
    eq.schedule(100, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueueTest, FastPathChainsDrainBeforeTimeAdvances)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(50, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] {
            order.push_back(2);
            eq.scheduleIn(0, [&] { order.push_back(3); });
        });
    });
    eq.schedule(51, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, SameTickReusableEventInterleavesWithLambdas)
{
    EventQueue eq;
    std::vector<int> order;
    Event ev([&] { order.push_back(2); });
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.schedule(ev, eq.now());          // same-tick fast path
        eq.scheduleIn(0, [&] { order.push_back(3); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTickEventCanBeDescheduled)
{
    EventQueue eq;
    int fired = 0;
    Event ev([&] { ++fired; });
    eq.schedule(10, [&] {
        eq.schedule(ev, eq.now());
        eq.deschedule(ev);
    });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_FALSE(ev.scheduled());
}

TEST(EventQueueTest, DescheduleRescheduleCycleOnFastPath)
{
    EventQueue eq;
    std::vector<Tick> fired_at;
    Event ev([&] { fired_at.push_back(eq.now()); });
    eq.schedule(10, [&] {
        eq.schedule(ev, eq.now());
        eq.deschedule(ev);
        eq.schedule(ev, eq.now() + 5);
    });
    eq.run();
    EXPECT_EQ(fired_at, (std::vector<Tick>{15}));
}

TEST(EventQueueTest, CountsExecutedEventsAndFastPathSchedules)
{
    EventQueue eq;
    eq.schedule(10, [&] { eq.scheduleIn(0, [] {}); });
    eq.schedule(20, [] {});
    eq.run();
    EXPECT_EQ(eq.eventsExecuted(), 3u);
    EXPECT_EQ(eq.fastPathSchedules(), 1u);
}

// ---------------------------------------------------------------------
// Lanes.
// ---------------------------------------------------------------------

TEST(EventQueueTest, SameTickEventsRunInLaneThenSequenceOrder)
{
    // Tag / 10 is the lane. Scheduled from outside (heap) and from
    // inside a callback at the same tick: there only 21 and 22 join the
    // FIFO, since a key whose lane sorts before the FIFO's last one
    // takes the heap.
    for (bool inside : {false, true}) {
        EventQueue eq;
        std::vector<int> order;
        auto add = [&] {
            for (int tag : {21, 0, 10, 1, 22, 2}) {
                const EventQueue::LaneScope lane(eq, tag / 10);
                eq.schedule(10, [&order, tag] { order.push_back(tag); });
            }
        };
        if (inside)
            eq.schedule(10, add);
        else
            add();
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 21, 22}));
        EXPECT_EQ(eq.fastPathSchedules(), inside ? 2u : 0u);
    }
}

TEST(EventQueueTest, MessageRunsAfterItsLaneAndBeforeHigherLanes)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleMessage(10, 1, EventQueue::kMessageOrderBit,
                       [&] { order.push_back(1); });
    for (EventQueue::Lane lane : {2u, 1u, 0u}) {
        const EventQueue::LaneScope scope(eq, lane);
        eq.schedule(10, [&order, lane] { order.push_back(lane * 10); });
    }
    eq.run();
    // Lane 0's event, lane 1's local event, the message to lane 1, then
    // lane 2's event, although the message was scheduled first.
    EXPECT_EQ(order, (std::vector<int>{0, 10, 1, 20}));
}

TEST(EventQueueTest, DropReleasesCapturesAndDeschedulesEvents)
{
    EventQueue eq;
    auto token = std::make_shared<int>(1);
    int fired = 0;
    Event ev([&fired] { ++fired; });
    eq.schedule(5, [token] {});
    {
        const EventQueue::LaneScope lane(eq, 3);
        eq.schedule(ev, 5);
    }
    EXPECT_EQ(eq.nextLane(), 0u);
    eq.drop();
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(eq.nextLane(), 3u);
    eq.drop();
    EXPECT_FALSE(ev.scheduled());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.eventsExecuted(), 0u);
    eq.schedule(ev, 7);
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_THROW(eq.drop(), PanicError);
}

TEST(EventQueueTest, LaneScopeRestoresOnExitAndUnwind)
{
    EventQueue eq;
    EXPECT_EQ(eq.lane(), 0u);
    {
        const EventQueue::LaneScope outer(eq, 3);
        {
            const EventQueue::LaneScope inner(eq, 5);
            EXPECT_EQ(eq.lane(), 5u);
        }
        EXPECT_EQ(eq.lane(), 3u);
        try {
            const EventQueue::LaneScope thrown(eq, 7);
            throw PanicError("unwind");
        } catch (const PanicError&) {
        }
        EXPECT_EQ(eq.lane(), 3u);
        // step() runs an event on its own lane and restores the caller's.
        EventQueue::Lane seen = 0;
        eq.scheduleMessage(1, 4, EventQueue::kMessageOrderBit,
                           [&] { seen = eq.lane(); });
        eq.step();
        EXPECT_EQ(seen, 4u);
        EXPECT_EQ(eq.lane(), 3u);
    }
    EXPECT_EQ(eq.lane(), 0u);
}

// ---------------------------------------------------------------------
// clear() and reusable events (the epoch-timer-across-crash() bug).
// ---------------------------------------------------------------------

TEST(EventQueueTest, ClearLeavesReusableEventsReschedulable)
{
    // Regression: clear() used to drop the queue without resetting the
    // scheduled_ flag of queued reusable events, so re-arming a member
    // event (e.g. the epoch timer after crash()) panicked with "event
    // already scheduled".
    EventQueue eq;
    int fired = 0;
    Event ev([&] { ++fired; });
    eq.schedule(ev, 100);
    eq.clear();
    EXPECT_FALSE(ev.scheduled());
    eq.schedule(ev, 200); // must not panic
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 200u);
}

TEST(EventQueueTest, ClearMidEpochDropsBothPaths)
{
    // A mid-tick clear must drop heap items and same-tick continuations
    // alike, and reusable events queued on either path must be left
    // reschedulable.
    EventQueue eq;
    int fired = 0;
    Event heap_ev([&] { ++fired; });
    Event fifo_ev([&] { ++fired; });
    eq.schedule(10, [&] {
        eq.schedule(fifo_ev, eq.now());
        eq.scheduleIn(0, [&] { ++fired; });
        eq.schedule(heap_ev, 500);
        eq.clear();
    });
    eq.run();
    EXPECT_EQ(fired, 0);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(heap_ev.scheduled());
    EXPECT_FALSE(fifo_ev.scheduled());
    eq.schedule(heap_ev, 600);
    eq.schedule(fifo_ev, 600);
    eq.run();
    EXPECT_EQ(fired, 2);
}

// ---------------------------------------------------------------------
// Differential test against a reference model.
// ---------------------------------------------------------------------

/**
 * The scheduling surface the differential test drives, implemented by
 * the real EventQueue and by a reference model. A firing reports an id:
 * one-shot ids are >= 0, reusable event e reports -(e + 1).
 */
class Kernel
{
  public:
    virtual ~Kernel() = default;
    virtual Tick now() const = 0;
    virtual void lambda(Tick when, int id) = 0;
    virtual void message(Tick when, EventQueue::Lane lane,
                         std::uint64_t order, int id) = 0;
    /** Run @p fn with @p lane as the current lane. */
    virtual void inLane(EventQueue::Lane lane,
                        const std::function<void()>& fn) = 0;
    virtual EventQueue::Lane lane() const = 0;
    virtual EventQueue::Lane nextLane() const = 0;
    virtual void drop() = 0;
    virtual void event(int e, Tick when) = 0;
    virtual void deschedule(int e) = 0;
    virtual bool scheduled(int e) const = 0;
    virtual void clear() = 0;
    virtual bool empty() const = 0;
    virtual void step() = 0;
    virtual std::size_t size() const = 0;
    virtual std::uint64_t executed() const = 0;
    virtual std::uint64_t fastPath() const = 0;

    /** Called on every firing; set by runScript(). */
    std::function<void(int)> on_fire;
};

class RealKernel : public Kernel
{
  public:
    explicit RealKernel(int events)
    {
        for (int e = 0; e < events; ++e)
            events_.push_back(
                std::make_unique<Event>([this, e] { on_fire(-(e + 1)); }));
    }

    Tick now() const override { return eq_.now(); }
    void
    lambda(Tick when, int id) override
    {
        eq_.schedule(when, [this, id] { on_fire(id); });
    }
    void
    message(Tick when, EventQueue::Lane lane, std::uint64_t order,
            int id) override
    {
        eq_.scheduleMessage(when, lane, order, [this, id] { on_fire(id); });
    }
    void
    inLane(EventQueue::Lane lane, const std::function<void()>& fn) override
    {
        const EventQueue::LaneScope scope(eq_, lane);
        fn();
    }
    EventQueue::Lane lane() const override { return eq_.lane(); }
    EventQueue::Lane nextLane() const override { return eq_.nextLane(); }
    void drop() override { eq_.drop(); }
    void event(int e, Tick when) override { eq_.schedule(*events_[e], when); }
    void deschedule(int e) override { eq_.deschedule(*events_[e]); }
    bool scheduled(int e) const override { return events_[e]->scheduled(); }
    void clear() override { eq_.clear(); }
    bool empty() const override { return eq_.empty(); }
    void step() override { eq_.step(); }
    std::size_t size() const override { return eq_.size(); }
    std::uint64_t executed() const override { return eq_.eventsExecuted(); }
    std::uint64_t fastPath() const override
    {
        return eq_.fastPathSchedules();
    }

  private:
    EventQueue eq_;
    std::vector<std::unique_ptr<Event>> events_;
};

/**
 * Reference model: one unsorted list, popped by its smallest
 * (when, lane, order key); reusable events are cancelled lazily through
 * a generation counter, as documented for EventQueue. A same-tick
 * schedule counts as a fast-path one unless its lane sorts before the
 * last such schedule still pending.
 */
class ModelKernel : public Kernel
{
  public:
    explicit ModelKernel(int events) : events_(events) {}

    Tick now() const override { return now_; }
    void
    lambda(Tick when, int id) override
    {
        add(Item{when, lane_, seq_++, id, -1, 0});
    }
    void
    message(Tick when, EventQueue::Lane lane, std::uint64_t order,
            int id) override
    {
        items_.push_back(Item{when, lane, order, id, -1, 0});
    }
    void
    inLane(EventQueue::Lane lane, const std::function<void()>& fn) override
    {
        const EventQueue::Lane saved = lane_;
        lane_ = lane;
        fn();
        lane_ = saved;
    }
    EventQueue::Lane lane() const override { return lane_; }
    EventQueue::Lane nextLane() const override { return first()->lane; }
    void
    drop() override
    {
        release(*first());
        remove(first());
    }
    void
    event(int e, Tick when) override
    {
        events_[e].scheduled = true;
        add(Item{when, lane_, seq_++, 0, e, events_[e].generation});
    }
    void
    deschedule(int e) override
    {
        if (events_[e].scheduled) {
            events_[e].scheduled = false;
            ++events_[e].generation;
        }
    }
    bool scheduled(int e) const override { return events_[e].scheduled; }
    void
    clear() override
    {
        for (const Item& it : items_)
            release(it);
        items_.clear();
        fifo_pending_ = 0;
    }
    bool empty() const override { return items_.empty(); }
    void
    step() override
    {
        const Item it = *first();
        remove(first());
        now_ = it.when;
        const EventQueue::Lane saved = lane_;
        lane_ = it.lane;
        if (it.event < 0) {
            ++executed_;
            on_fire(it.id);
        } else if (events_[it.event].generation == it.generation) {
            events_[it.event].scheduled = false;
            ++executed_;
            on_fire(-(it.event + 1));
        }
        lane_ = saved;
    }
    std::size_t size() const override { return items_.size(); }
    std::uint64_t executed() const override { return executed_; }
    std::uint64_t fastPath() const override { return fast_path_; }

  private:
    struct Item
    {
        Tick when;
        EventQueue::Lane lane;
        std::uint64_t order;
        int id;
        int event; // -1 for a one-shot callback
        std::uint64_t generation;
        bool fast = false;
    };
    struct RefEvent
    {
        bool scheduled = false;
        std::uint64_t generation = 0;
    };

    std::vector<Item>::const_iterator
    first() const
    {
        return std::min_element(
            items_.begin(), items_.end(), [](const Item& a, const Item& b) {
                if (a.when != b.when)
                    return a.when < b.when;
                return a.lane != b.lane ? a.lane < b.lane
                                        : a.order < b.order;
            });
    }

    /** Leave a dropped item's live reusable event descheduled. */
    void
    release(const Item& it)
    {
        if (it.event >= 0 &&
            events_[it.event].generation == it.generation) {
            events_[it.event].scheduled = false;
            ++events_[it.event].generation;
        }
    }

    void
    remove(std::vector<Item>::const_iterator it)
    {
        if (it->fast)
            --fifo_pending_;
        items_.erase(it);
    }

    void
    add(Item it)
    {
        it.fast = it.when == now_ &&
                  (fifo_pending_ == 0 || it.lane >= fifo_lane_);
        if (it.fast) {
            ++fast_path_;
            ++fifo_pending_;
            fifo_lane_ = it.lane;
        }
        items_.push_back(it);
    }

    std::vector<Item> items_;
    std::vector<RefEvent> events_;
    /** Pending fast-path items, and the lane of the last one added. */
    std::size_t fifo_pending_ = 0;
    EventQueue::Lane fifo_lane_ = 0;
    EventQueue::Lane lane_ = 0;
    Tick now_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t fast_path_ = 0;
};

/** One firing (or drop) as the test observes it. */
struct Firing
{
    int id;
    Tick at;
    std::size_t pending;
    EventQueue::Lane lane;

    bool
    operator==(const Firing& o) const
    {
        return id == o.id && at == o.at && pending == o.pending &&
               lane == o.lane;
    }
};

/**
 * Run @p k on a random script: every firing (and the loop
 * between steps) draws follow-up work from one seeded stream, so two
 * kernels that fire in the same order see the same script.
 */
std::vector<Firing>
runScript(Kernel& k, std::uint64_t seed, int events)
{
    Rng rng(seed);
    std::vector<Firing> log;
    int next_id = 0;
    std::uint64_t next_msg = 0;
    // Past this many firings no new work is drawn, so the run drains.
    constexpr std::size_t kMaxFirings = 5000;

    auto delta = [&] {
        // Half the work is same-tick chaining (the FIFO path).
        return rng.chance(0.5) ? Tick{0} : Tick{rng.range(1, 40)};
    };
    auto act = [&] {
        if (log.size() >= kMaxFirings)
            return;
        const std::uint64_t dice = rng.below(100);
        if (dice < 40) {
            k.lambda(k.now() + delta(), next_id++);
        } else if (dice < 55) {
            // Link id in the middle bits, per-link FIFO index below.
            const std::uint64_t order = EventQueue::kMessageOrderBit |
                                        (rng.below(4) << 32) |
                                        next_msg++;
            const auto lane = static_cast<EventQueue::Lane>(rng.below(4));
            k.message(k.now() + delta(), lane, order, next_id++);
        } else if (dice < 90) {
            const int e = static_cast<int>(rng.below(events));
            if (k.scheduled(e)) {
                k.deschedule(e);
                if (rng.chance(0.5))
                    k.event(e, k.now() + delta());
            } else {
                k.event(e, k.now() + delta());
            }
        } else if (dice < 91) {
            k.clear();
        }
    };

    k.on_fire = [&](int id) {
        log.push_back(Firing{id, k.now(), k.size(), k.lane()});
        const std::uint64_t n = rng.below(4);
        for (std::uint64_t i = 0; i < n; ++i)
            act();
    };
    while (!k.empty() || log.size() < kMaxFirings) {
        if (k.empty()) {
            for (int i = 0; i < 8; ++i)
                act(); // (re)seed a drained or cleared queue
            continue;
        }
        if (rng.chance(0.02)) {
            log.push_back(Firing{-2000, k.now(), k.size(), k.nextLane()});
            k.drop();
        } else {
            k.step();
        }
        if (rng.chance(0.01)) {
            // Between steps, clear() included, on any lane.
            const auto lane = static_cast<EventQueue::Lane>(rng.below(4));
            k.inLane(lane, act);
        }
    }
    log.push_back(Firing{-1000, k.now(), k.size(), k.lane()});
    log.push_back(Firing{-1001, k.executed(), k.fastPath(), 0});
    return log;
}

TEST(EventQueueTest, RandomScriptsMatchReferenceModel)
{
    constexpr int kEvents = 6;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        RealKernel real(kEvents);
        ModelKernel model(kEvents);
        const std::vector<Firing> got = runScript(real, seed, kEvents);
        const std::vector<Firing> want = runScript(model, seed, kEvents);
        ASSERT_GT(want.size(), 5000u) << "seed " << seed;
        const auto diff =
            std::mismatch(got.begin(), got.end(), want.begin(), want.end());
        ASSERT_TRUE(diff.first == got.end() && diff.second == want.end())
            << "seed " << seed << ": first divergence at firing "
            << (diff.first - got.begin());
    }
}

// ---------------------------------------------------------------------
// Callback storage: capture lifetime and stable slots.
// ---------------------------------------------------------------------

TEST(EventQueueTest, CapturesReleasedOnceAfterRunClearOrDestruction)
{
    auto token = std::make_shared<int>(7);
    // A capture too large for inline storage takes the heap fallback.
    struct Big
    {
        std::shared_ptr<int> token;
        std::array<std::uint64_t, 8> pad{};
        void operator()() const {}
    };
    static_assert(sizeof(Big) > detail::InlineFn::kInlineBytes);

    // After the callback runs: held while running, released after.
    {
        EventQueue eq;
        long during = 0;
        eq.schedule(10, [token, &during] { during = token.use_count(); });
        eq.schedule(10, [&eq, token] {
            eq.scheduleIn(0, [token] {}); // same-tick FIFO
        });
        eq.scheduleMessage(20, 0, EventQueue::kMessageOrderBit | 1,
                           [token] {});
        eq.schedule(30, Big{token, {}});
        EXPECT_EQ(token.use_count(), 5);
        eq.step();
        EXPECT_EQ(during, 5);
        EXPECT_EQ(token.use_count(), 4);
        eq.run();
        EXPECT_EQ(token.use_count(), 1);
    }
    // On clear(), from outside and from inside a running callback.
    {
        EventQueue eq;
        eq.schedule(10, [token] {});
        eq.schedule(20, Big{token, {}});
        eq.scheduleMessage(20, 0, EventQueue::kMessageOrderBit | 1,
                           [token] {});
        EXPECT_EQ(token.use_count(), 4);
        eq.clear();
        EXPECT_EQ(token.use_count(), 1);

        long after_clear = 0;
        eq.schedule(5, [&eq, token, &after_clear] {
            eq.scheduleIn(0, [token] {});
            eq.scheduleIn(7, Big{token, {}});
            eq.clear();
            after_clear = token.use_count(); // only this capture is left
        });
        eq.run();
        EXPECT_EQ(after_clear, 2);
        EXPECT_EQ(token.use_count(), 1);
    }
    // When a queue with pending items is destroyed.
    {
        EventQueue eq;
        eq.schedule(10, [token] {});
        eq.schedule(10, [&eq, token] { eq.scheduleIn(0, [token] {}); });
        eq.schedule(50, Big{token, {}});
        eq.step();
        eq.step(); // leaves one FIFO and one heap item pending
        EXPECT_EQ(eq.size(), 2u);
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, RunningCallbackKeepsCapturesAcrossPoolGrowth)
{
    // The running callback schedules more than two chunks' worth of new
    // events, growing the payload pool under it, then reads its own
    // captures: they must not have moved or been overwritten.
    EventQueue eq;
    auto token = std::make_shared<int>(42);
    constexpr std::uint32_t kNew = 2 * EventQueue::kSlotsPerChunk + 17;
    const std::array<std::uint64_t, 4> pattern = {
        0x0123456789abcdefULL, 0xfedcba9876543210ULL, 7, 11};
    std::uint32_t fired = 0;
    bool intact = false;
    eq.schedule(1, [&eq, &fired, &intact, token, pattern] {
        for (std::uint32_t i = 0; i < kNew; ++i) {
            // Alternate the FIFO and heap paths.
            eq.scheduleIn(i % 2, [&fired, token] { ++fired; });
        }
        intact = *token == 42 &&
                 token.use_count() == static_cast<long>(kNew) + 2 &&
                 pattern[0] == 0x0123456789abcdefULL &&
                 pattern[1] == 0xfedcba9876543210ULL &&
                 pattern[2] == 7 && pattern[3] == 11;
    });
    eq.run();
    EXPECT_TRUE(intact);
    EXPECT_EQ(fired, kNew);
    EXPECT_EQ(token.use_count(), 1);
}

} // namespace
} // namespace thynvm
