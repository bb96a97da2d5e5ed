/**
 * @file
 * Tests for the multi-channel topology's host-side mechanics:
 *
 *  - ChannelGroup on its own: every core<->channel message is scheduled
 *    straight onto the target queue one kChannelLookahead hop after the
 *    sender's tick, same-link messages keep FIFO order, a delivery runs
 *    after the target's local events of the same tick, and halt() posts
 *    one message per channel until the next start() or crash().
 *
 *  - System's serial stepping loop over the core queue and the channel
 *    queues: it always executes the earliest pending event, so no queue
 *    is ever left behind a pending event; run(d), runTo(cut) and the
 *    stop predicate end exactly where they say; a finished workload
 *    halts and drains the channels; and cutting a run anywhere resumes
 *    to the byte-identical result of one call.
 */

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/channel_group.hh"
#include "harness/system.hh"
#include "tests/test_util.hh"
#include "workloads/micro.hh"

namespace thynvm {
namespace {

constexpr Tick kHop = ChannelGroup::kChannelLookahead;

ControllerSpec
groupConfig(SystemKind kind, unsigned channels)
{
    ControllerSpec gc;
    gc.kind = kind;
    gc.channels = channels;
    gc.phys_size = 4u << 20;
    gc.epoch_length = 100 * kMicrosecond;
    gc.thynvm.btt_entries = 256;
    gc.thynvm.ptt_entries = 512;
    return gc;
}

/** A standalone group on its own core queue, stepped in tick order. */
struct GroupRig
{
    explicit GroupRig(unsigned channels,
                      SystemKind kind = SystemKind::IdealNvm)
        : group(core, "grp", groupConfig(kind, channels), nullptr)
    {
    }

    /** The queue holding the earliest pending event, or nullptr. */
    EventQueue*
    earliest()
    {
        EventQueue* next = core.empty() ? nullptr : &core;
        for (unsigned i = 0; i < group.channelCount(); ++i) {
            EventQueue& q = group.channelEventq(i);
            if (!q.empty() && (next == nullptr ||
                               q.nextTick() < next->nextTick()))
                next = &q;
        }
        return next;
    }

    /** Step every queue in global tick order until all are empty. */
    void
    drain()
    {
        while (EventQueue* q = earliest())
            q->step();
    }

    std::vector<std::size_t>
    channelQueueSizes()
    {
        std::vector<std::size_t> sizes;
        for (unsigned i = 0; i < group.channelCount(); ++i)
            sizes.push_back(group.channelEventq(i).size());
        return sizes;
    }

    EventQueue core;
    ChannelGroup group;
};

TEST(ChannelGroupTest, AccessIsDeliveredToItsChannelOneHopLater)
{
    for (unsigned channels : {2u, 4u}) {
        GroupRig rig(channels);
        std::vector<std::uint8_t> buf(kBlockSize);
        for (Addr block = 0; block < 3 * channels; ++block) {
            const Addr paddr = block * kBlockSize;
            const unsigned ch = rig.group.interleaver().channelOf(paddr);
            std::vector<std::size_t> want = rig.channelQueueSizes();
            ++want[ch];
            const bool is_write = block % 2 == 0;
            rig.group.accessBlock(paddr, is_write, buf.data(), buf.data(),
                                  is_write ? TrafficSource::CpuWriteback
                                           : TrafficSource::DemandRead,
                                  [] {});
            EXPECT_EQ(rig.channelQueueSizes(), want)
                << "channels=" << channels << " block=" << block;
            EXPECT_EQ(rig.group.channelEventq(ch).nextTick(), kHop)
                << "channels=" << channels << " block=" << block;
        }
        EXPECT_TRUE(rig.core.empty());
        EXPECT_EQ(rig.group.messagesSent(), 3u * channels);
        rig.drain();
        EXPECT_EQ(rig.group.messagesSent(), 6u * channels);
    }
}

TEST(ChannelGroupTest, ReplyCompletesOnTheCoreQueue)
{
    GroupRig rig(2);
    std::vector<std::uint8_t> buf(kBlockSize);
    Tick done_at = kMaxTick;
    EventQueue* stepping = nullptr;
    EventQueue* done_on = nullptr;
    rig.group.accessBlock(0, false, nullptr, buf.data(),
                          TrafficSource::DemandRead, [&] {
                              done_at = rig.core.now();
                              done_on = stepping;
                          });
    Tick channel_last = 0;
    while (EventQueue* q = rig.earliest()) {
        stepping = q;
        if (q != &rig.core)
            channel_last = q->nextTick();
        q->step();
    }
    ASSERT_NE(done_at, kMaxTick) << "the read never completed";
    EXPECT_EQ(done_on, &rig.core);
    // The reply is posted by the channel's last event and lands one hop
    // later; the request took one hop out, plus the device service time.
    EXPECT_EQ(done_at, channel_last + kHop);
    EXPECT_GT(done_at, 2 * kHop);
    EXPECT_EQ(rig.group.messagesSent(), 2u);
}

TEST(ChannelGroupTest, MirrorServesDataBeforeDelivery)
{
    GroupRig rig(4);
    const auto data = test::patternBlock(11);
    const Addr paddr = 5 * kBlockSize;
    rig.group.accessBlock(paddr, true, data.data(), nullptr,
                          TrafficSource::CpuWriteback, [] {});
    // Nothing has been stepped: the write is still in flight to its
    // channel, yet the functional view and a timed read see it now.
    std::array<std::uint8_t, kBlockSize> seen{};
    rig.group.functionalRead(paddr, seen.data(), kBlockSize);
    EXPECT_EQ(seen, data);
    std::array<std::uint8_t, kBlockSize> filled{};
    rig.group.accessBlock(paddr, false, nullptr, filled.data(),
                          TrafficSource::DemandRead, [] {});
    EXPECT_EQ(filled, data);
    rig.drain();
}

TEST(ChannelGroupTest, SameTickWritesOnOneLinkApplyInSendOrder)
{
    GroupRig rig(2);
    const Addr paddr = 3 * kBlockSize;
    const unsigned ch = rig.group.interleaver().channelOf(paddr);
    const Addr local = rig.group.interleaver().localAddr(paddr);
    const auto first = test::patternBlock(1);
    const auto second = test::patternBlock(2);
    rig.group.accessBlock(paddr, true, first.data(), nullptr,
                          TrafficSource::CpuWriteback, [] {});
    rig.group.accessBlock(paddr, true, second.data(), nullptr,
                          TrafficSource::CpuWriteback, [] {});
    rig.drain();
    std::array<std::uint8_t, kBlockSize> home{};
    rig.group.channelController(ch).functionalRead(local, home.data(),
                                                   kBlockSize);
    EXPECT_EQ(home, second) << "same-link messages were reordered";
}

TEST(ChannelGroupTest, DeliveryRunsAfterTheTargetsLocalEventsOfItsTick)
{
    GroupRig rig(2);
    const Addr paddr = 0;
    const unsigned ch = rig.group.interleaver().channelOf(paddr);
    const Addr local = rig.group.interleaver().localAddr(paddr);
    EventQueue& target = rig.group.channelEventq(ch);
    MemController& ctrl = rig.group.channelController(ch);
    const auto data = test::patternBlock(3);
    rig.group.accessBlock(paddr, true, data.data(), nullptr,
                          TrafficSource::CpuWriteback, [] {});
    // Scheduled after the send, at the delivery tick: it still runs
    // first, and the message has not touched the channel yet.
    std::array<std::uint8_t, kBlockSize> before{};
    bool ran = false;
    target.schedule(kHop, [&] {
        ran = true;
        ctrl.functionalRead(local, before.data(), kBlockSize);
    });
    target.step();
    ASSERT_TRUE(ran);
    EXPECT_EQ(before, (std::array<std::uint8_t, kBlockSize>{}));
    target.step(); // the delivery
    std::array<std::uint8_t, kBlockSize> after{};
    ctrl.functionalRead(local, after.data(), kBlockSize);
    EXPECT_EQ(after, data);
    rig.drain();
}

TEST(ChannelGroupTest, HaltPostsOncePerChannelUntilRestart)
{
    GroupRig rig(4, SystemKind::ThyNvm);
    rig.group.halt();
    EXPECT_EQ(rig.group.messagesSent(), 4u);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(rig.group.channelEventq(i).nextTick(), kHop);
    rig.group.halt(); // idempotent
    EXPECT_EQ(rig.group.messagesSent(), 4u);
    rig.drain();
    rig.group.start();
    rig.group.halt();
    EXPECT_EQ(rig.group.messagesSent(), 8u);
}

TEST(ChannelGroupTest, CrashEmptiesChannelQueuesAndRearmsHalt)
{
    GroupRig rig(2, SystemKind::ThyNvm);
    rig.group.start();
    rig.group.halt();
    const std::uint64_t sent = rig.group.messagesSent();
    rig.group.crash();
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_TRUE(rig.group.channelEventq(i).empty()) << "channel " << i;
    rig.group.halt();
    EXPECT_EQ(rig.group.messagesSent(), sent + 2);
}

// ---------------------------------------------------------------------
// System's serial stepping loop.
// ---------------------------------------------------------------------

/** Small micro run that crosses several 100 us coordinated epochs. */
struct SteppingRig
{
    explicit SteppingRig(unsigned channels) : wl(params())
    {
        SystemConfig cfg;
        cfg.kind = SystemKind::ThyNvm;
        cfg.channels = channels;
        cfg.phys_size = 4u << 20;
        cfg.epoch_length = 100 * kMicrosecond;
        cfg.thynvm.btt_entries = 256;
        cfg.thynvm.ptt_entries = 512;
        sys = std::make_unique<System>(cfg, wl);
        sys->start();
    }

    static MicroWorkload::Params
    params()
    {
        MicroWorkload::Params mp;
        mp.pattern = MicroWorkload::Pattern::Random;
        mp.array_bytes = 2u << 20;
        mp.read_fraction = 0.5;
        mp.total_accesses = 3000;
        mp.seed = 5;
        return mp;
    }

    ChannelGroup&
    group()
    {
        return static_cast<ChannelGroup&>(sys->controller());
    }

    std::vector<EventQueue*>
    queues()
    {
        std::vector<EventQueue*> qs{&sys->eventq()};
        for (unsigned i = 0; i < sys->channels(); ++i)
            qs.push_back(&group().channelEventq(i));
        return qs;
    }

    Tick
    latest()
    {
        Tick t = 0;
        for (EventQueue* q : queues())
            t = std::max(t, q->now());
        return t;
    }

    std::uint64_t
    eventsExecuted()
    {
        std::uint64_t n = 0;
        for (EventQueue* q : queues())
            n += q->eventsExecuted();
        return n;
    }

    std::string
    stats()
    {
        std::ostringstream os;
        sys->dumpStats(os);
        return os.str();
    }

    MicroWorkload wl;
    std::unique_ptr<System> sys;
};

/** The result of one uninterrupted run() of SteppingRig. */
std::string
oneCallStats(unsigned channels)
{
    SteppingRig rig(channels);
    rig.sys->run();
    EXPECT_TRUE(rig.sys->finished());
    return rig.stats();
}

class MultiChannelStepping : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(MultiChannelStepping, NoQueueIsLeftBehindAPendingEvent)
{
    SteppingRig rig(GetParam());
    ASSERT_EQ(rig.sys->channels(), GetParam());
    int slices = 0;
    for (Tick d : {Tick{1}, 7 * kNanosecond, 3 * kMicrosecond,
                   41 * kMicrosecond}) {
        for (int i = 0; i < 40 && !rig.sys->finished(); ++i, ++slices) {
            rig.sys->run(d);
            const Tick latest = rig.latest();
            for (EventQueue* q : rig.queues()) {
                if (q == &rig.sys->eventq() && rig.sys->finished())
                    continue; // the core is no longer stepped
                EXPECT_GE(q->nextTick(), latest)
                    << "slice " << slices << " of " << d << " ticks";
            }
        }
    }
    EXPECT_GT(slices, 100);
}

TEST_P(MultiChannelStepping, RunLimitIsMeasuredFromTheLatestQueue)
{
    SteppingRig rig(GetParam());
    for (int i = 0; i < 50 && !rig.sys->finished(); ++i) {
        const Tick from = rig.latest();
        const std::uint64_t before = rig.eventsExecuted();
        rig.sys->run(5 * kMicrosecond);
        EXPECT_GT(rig.eventsExecuted(), before);
        if (!rig.sys->finished()) {
            EXPECT_GE(rig.latest(), from + 5 * kMicrosecond)
                << "slice " << i << " stopped short of its limit";
        }
    }
}

TEST_P(MultiChannelStepping, ZeroDurationRunExecutesNothing)
{
    SteppingRig rig(GetParam());
    rig.sys->run(20 * kMicrosecond);
    const std::uint64_t before = rig.eventsExecuted();
    const std::string stats = rig.stats();
    rig.sys->run(0);
    EXPECT_EQ(rig.eventsExecuted(), before);
    EXPECT_EQ(rig.stats(), stats);
    EXPECT_EQ(rig.sys->kernelMessages(), 0u);
}

TEST_P(MultiChannelStepping, RunToExecutesExactlyTheEventsUpToTheCut)
{
    SteppingRig rig(GetParam());
    for (Tick cut : {30 * kMicrosecond, 30 * kMicrosecond + 1,
                     170 * kMicrosecond, 333 * kMicrosecond}) {
        rig.sys->runTo(cut);
        ASSERT_FALSE(rig.sys->finished()) << "cut " << cut;
        for (EventQueue* q : rig.queues()) {
            EXPECT_LE(q->now(), cut);
            EXPECT_GT(q->nextTick(), cut);
        }
    }
}

TEST_P(MultiChannelStepping, RunToThenRunMatchesOneCall)
{
    const std::string want = oneCallStats(GetParam());
    SteppingRig rig(GetParam());
    rig.sys->runTo(250 * kMicrosecond);
    rig.sys->run();
    EXPECT_TRUE(rig.sys->finished());
    EXPECT_EQ(rig.stats(), want);
}

TEST_P(MultiChannelStepping, StopEndsTheRunRightAfterItsEvent)
{
    const std::string want = oneCallStats(GetParam());
    SteppingRig rig(GetParam());
    const std::uint64_t base = rig.eventsExecuted();
    // The predicate is consulted after each event, never before the
    // first: one that is already true still lets one event run.
    rig.sys->run(kMaxTick, [] { return true; });
    EXPECT_EQ(rig.eventsExecuted() - base, 1u);
    for (std::uint64_t target : {1000u, 1001u, 25000u}) {
        rig.sys->run(kMaxTick, [&] {
            return rig.eventsExecuted() - base >= target;
        });
        ASSERT_FALSE(rig.sys->finished());
        EXPECT_EQ(rig.eventsExecuted() - base, target);
    }
    rig.sys->run();
    EXPECT_EQ(rig.stats(), want) << "a stopped run did not resume exactly";
}

TEST_P(MultiChannelStepping, FinishedRunHaltsAndDrainsEveryChannel)
{
    SteppingRig rig(GetParam());
    const Tick end = rig.sys->run();
    ASSERT_TRUE(rig.sys->finished());
    EXPECT_EQ(end, rig.sys->eventq().now());
    for (unsigned i = 0; i < rig.sys->channels(); ++i)
        EXPECT_TRUE(rig.group().channelEventq(i).empty()) << "channel " << i;
    // Nothing is left to step: a further run is a no-op.
    const std::uint64_t events = rig.eventsExecuted();
    rig.sys->run();
    EXPECT_EQ(rig.eventsExecuted(), events);
    EXPECT_EQ(rig.sys->kernelMessages(), 0u);
}

TEST_P(MultiChannelStepping, KernelMessagesCountsTheLastRunOnly)
{
    SteppingRig rig(GetParam());
    std::uint64_t total = 0;
    int slices = 0;
    for (; slices < 100000 && !rig.sys->finished(); ++slices) {
        rig.sys->run(10 * kMicrosecond);
        total += rig.sys->kernelMessages();
        EXPECT_EQ(rig.sys->kernelWindows(), 0u);
    }
    rig.sys->run(); // the halted channels drain
    total += rig.sys->kernelMessages();
    EXPECT_GT(slices, 1);
    EXPECT_EQ(total, rig.group().messagesSent());
}

INSTANTIATE_TEST_SUITE_P(
    Channels, MultiChannelStepping, ::testing::Values(2u, 4u),
    [](const ::testing::TestParamInfo<unsigned>& info) {
        return "ch" + std::to_string(info.param);
    });

TEST(MultiChannelSystem, UnsetChannelCountDefersToTheEnvironment)
{
    MicroWorkload wl(SteppingRig::params());
    SystemConfig cfg;
    cfg.phys_size = 4u << 20;
    {
        test::EnvGuard env("THYNVM_CHANNELS", nullptr);
        EXPECT_EQ(System(cfg, wl).channels(), 1u);
    }
    {
        test::EnvGuard env("THYNVM_CHANNELS", "2");
        EXPECT_EQ(System(cfg, wl).channels(), 2u);
        cfg.channels = 4; // an explicit count wins
        EXPECT_EQ(System(cfg, wl).channels(), 4u);
    }
}

} // namespace
} // namespace thynvm
