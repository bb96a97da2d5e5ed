/**
 * @file
 * Tests for the multi-channel topology's host-side mechanics:
 *
 *  - ChannelGroup on its own: every core<->channel message lands on
 *    the target lane one kChannelLookahead hop after the sender's tick,
 *    same-link messages keep FIFO order, a delivery runs after the
 *    target lane's local events of the same tick, and halt() posts one
 *    message per channel until the next start() or crash().
 *
 *  - System's stepping loop over the lanes of its one queue: run(d),
 *    runTo(cut) and the stop predicate end exactly where they say; a
 *    finished workload halts and drains the channels and drops the
 *    core lane's leftovers; a crash empties the queue; and cutting a
 *    run anywhere resumes to the byte-identical result of one call.
 */

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

/** A standalone group on its own queue. */
struct GroupRig
{
    explicit GroupRig(unsigned channels,
                      SystemKind kind = SystemKind::IdealNvm)
        : group(eq, "grp", groupConfig(kind, channels), nullptr)
    {
    }

    EventQueue eq;
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
            const bool is_write = block % 2 == 0;
            const Tick sent = rig.eq.now();
            rig.group.accessBlock(paddr, is_write, buf.data(), buf.data(),
                                  is_write ? TrafficSource::CpuWriteback
                                           : TrafficSource::DemandRead,
                                  [] {});
            EXPECT_EQ(rig.eq.size(), 1u);
            EXPECT_EQ(rig.eq.nextTick(), sent + kHop)
                << "channels=" << channels << " block=" << block;
            EXPECT_EQ(rig.eq.nextLane(), ChannelGroup::channelLane(ch))
                << "channels=" << channels << " block=" << block;
            rig.eq.run();
        }
        EXPECT_EQ(rig.group.messagesSent(), 6u * channels);
    }
}

TEST(ChannelGroupTest, ReplyCompletesOnTheCoreLane)
{
    GroupRig rig(2);
    std::vector<std::uint8_t> buf(kBlockSize);
    Tick done_at = kMaxTick;
    EventQueue::Lane done_on = ~0u;
    rig.group.accessBlock(0, false, nullptr, buf.data(),
                          TrafficSource::DemandRead, [&] {
                              done_at = rig.eq.now();
                              done_on = rig.eq.lane();
                          });
    Tick channel_last = 0;
    while (!rig.eq.empty()) {
        if (rig.eq.nextLane() != ChannelGroup::kCoreLane)
            channel_last = rig.eq.nextTick();
        rig.eq.step();
    }
    ASSERT_NE(done_at, kMaxTick) << "the read never completed";
    EXPECT_EQ(done_on, ChannelGroup::kCoreLane);
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
    rig.eq.run();
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
    rig.eq.run();
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
    MemController& ctrl = rig.group.channelController(ch);
    const auto data = test::patternBlock(3);
    rig.group.accessBlock(paddr, true, data.data(), nullptr,
                          TrafficSource::CpuWriteback, [] {});
    // Scheduled on the target lane after the send, at the delivery
    // tick: it still runs first, and the message has not touched the
    // channel yet.
    std::array<std::uint8_t, kBlockSize> before{};
    bool ran = false;
    {
        const EventQueue::LaneScope lane(rig.eq,
                                         ChannelGroup::channelLane(ch));
        rig.eq.schedule(kHop, [&] {
            ran = true;
            ctrl.functionalRead(local, before.data(), kBlockSize);
        });
    }
    rig.eq.step();
    ASSERT_TRUE(ran);
    EXPECT_EQ(before, (std::array<std::uint8_t, kBlockSize>{}));
    EXPECT_EQ(rig.eq.nextLane(), ChannelGroup::channelLane(ch));
    rig.eq.step(); // the delivery
    std::array<std::uint8_t, kBlockSize> after{};
    ctrl.functionalRead(local, after.data(), kBlockSize);
    EXPECT_EQ(after, data);
    rig.eq.run();
}

TEST(ChannelGroupTest, HaltPostsOncePerChannelUntilRestart)
{
    GroupRig rig(4, SystemKind::ThyNvm);
    rig.group.halt();
    rig.group.halt(); // idempotent
    EXPECT_EQ(rig.group.messagesSent(), 4u);
    // One message per channel, one hop out, in lane order.
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_EQ(rig.eq.nextTick(), kHop);
        EXPECT_EQ(rig.eq.nextLane(), ChannelGroup::channelLane(i));
        rig.eq.step();
    }
    EXPECT_TRUE(rig.eq.empty());
    rig.group.start();
    rig.group.halt();
    EXPECT_EQ(rig.group.messagesSent(), 8u);
}

TEST(ChannelGroupTest, CrashRearmsHalt)
{
    GroupRig rig(2, SystemKind::ThyNvm);
    rig.group.start();
    rig.group.halt();
    const std::uint64_t sent = rig.group.messagesSent();
    rig.group.crash();
    rig.group.halt();
    EXPECT_EQ(rig.group.messagesSent(), sent + 2);
}

// ---------------------------------------------------------------------
// System's stepping loop.
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

    EventQueue& eq() { return sys->eventq(); }
    std::uint64_t eventsExecuted() { return eq().eventsExecuted(); }

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

TEST_P(MultiChannelStepping, RunLimitIsMeasuredFromTheQueueTick)
{
    SteppingRig rig(GetParam());
    ASSERT_EQ(rig.sys->channels(), GetParam());
    for (int i = 0; i < 50 && !rig.sys->finished(); ++i) {
        const Tick from = rig.eq().now();
        const std::uint64_t before = rig.eventsExecuted();
        const Tick end = rig.sys->run(5 * kMicrosecond);
        // The core lane's clock never runs ahead of the queue's.
        EXPECT_LE(end, rig.eq().now());
        EXPECT_GT(rig.eventsExecuted(), before);
        if (!rig.sys->finished()) {
            EXPECT_GE(rig.eq().now(), from + 5 * kMicrosecond)
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
        EXPECT_LE(rig.eq().now(), cut);
        EXPECT_GT(rig.eq().nextTick(), cut);
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
    EXPECT_EQ(end, rig.sys->now());
    // The channels drained after the core lane's last event, whose
    // leftovers were dropped: nothing is left to step, and a further
    // run is a no-op.
    EXPECT_LT(end, rig.eq().now());
    EXPECT_TRUE(rig.eq().empty());
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

TEST_P(MultiChannelStepping, CrashEmptiesTheQueue)
{
    SteppingRig rig(GetParam());
    rig.sys->run(150 * kMicrosecond);
    ASSERT_FALSE(rig.eq().empty());
    rig.sys->crash();
    EXPECT_TRUE(rig.eq().empty());
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
