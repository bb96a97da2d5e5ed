/**
 * @file
 * Unit tests for the memory device timing model, the staging port,
 * and the crash-precise durability semantics.
 */

#include "tests/test_util.hh"

#include "mem/port.hh"

namespace thynvm {
namespace {

using test::patternBlock;

DeviceParams
smallNvm()
{
    auto p = DeviceParams::nvm(1 << 20);
    return p;
}

/** Write payload for tests that only care about timing. */
const std::array<std::uint8_t, kBlockSize> kZeros{};

TEST(DeviceTest, WriteThenReadReturnsData)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    auto data = patternBlock(1);
    ASSERT_TRUE(dev.enqueueWrite(128, data.data(),
                                 TrafficSource::DemandRead));

    std::array<std::uint8_t, kBlockSize> out{};
    bool done = false;
    ASSERT_TRUE(dev.enqueueRead(128, TrafficSource::DemandRead,
                                [&] { done = true; }));
    eq.runUntil([&] { return done; });
    dev.store().read(128, out.data(), kBlockSize);
    EXPECT_EQ(out, data);
}

TEST(DeviceTest, FunctionalWriteVisibleImmediately)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    auto data = patternBlock(2);
    ASSERT_TRUE(dev.enqueueWrite(0, data.data(), TrafficSource::DemandRead));
    // The architectural view updates at enqueue, before service.
    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(0, out.data(), kBlockSize);
    EXPECT_EQ(out, data);
}

TEST(DeviceTest, RowHitFasterThanMiss)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    Tick t0 = 0, t1 = 0, t2 = 0;
    dev.enqueueRead(0, TrafficSource::DemandRead, [&] { t0 = eq.now(); });
    eq.run();

    // Same row: hit.
    const Tick start1 = eq.now();
    dev.enqueueRead(64, TrafficSource::DemandRead,
                    [&] { t1 = eq.now(); });
    eq.run();

    // Different row, same bank (banks stride by row): miss.
    const auto& p = dev.params();
    const Tick start2 = eq.now();
    dev.enqueueRead(p.row_size * p.banks, // same bank 0, different row
                    TrafficSource::DemandRead, [&] { t2 = eq.now(); });
    eq.run();

    const Tick hit_latency = t1 - start1;
    const Tick miss_latency = t2 - start2;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_GE(hit_latency, p.row_hit_latency);
    EXPECT_GE(miss_latency, p.row_miss_clean_latency);
}

TEST(DeviceTest, DirtyMissCostsMore)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto& p = dev.params();

    // Open row 0 in bank 0 with a write -> dirty row buffer.
    dev.enqueueWrite(0, kZeros.data(), TrafficSource::DemandRead);
    eq.run();

    // Read a different row in the same bank: dirty miss.
    Tick done_at = 0;
    const Tick start = eq.now();
    dev.enqueueRead(p.row_size * p.banks, TrafficSource::DemandRead,
                    [&] { done_at = eq.now(); });
    eq.run();
    EXPECT_GE(done_at - start, p.row_miss_dirty_latency);
    EXPECT_EQ(dev.stats().value("row_misses_dirty"), 1.0);
}

TEST(DeviceTest, BankParallelismBeatsSerialization)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto& p = dev.params();

    // Two misses to different banks should overlap; two misses to the
    // same bank serialize.
    unsigned done = 0;
    for (unsigned i = 0; i < 2; ++i) {
        dev.enqueueRead(i * p.row_size, // different banks
                        TrafficSource::DemandRead, [&] { ++done; });
    }
    const Tick start = eq.now();
    eq.runUntil([&] { return done == 2; });
    const Tick parallel_time = eq.now() - start;

    done = 0;
    for (unsigned i = 0; i < 2; ++i) {
        // Same bank, alternating rows: every access misses.
        dev.enqueueRead(i * p.row_size * p.banks + 2 * p.row_size * p.banks,
                        TrafficSource::DemandRead, [&] { ++done; });
    }
    const Tick start2 = eq.now();
    eq.runUntil([&] { return done == 2; });
    const Tick serial_time = eq.now() - start2;

    EXPECT_LT(parallel_time, serial_time);
}

TEST(DeviceTest, QueueCapacityEnforced)
{
    EventQueue eq;
    auto p = smallNvm();
    p.read_queue_capacity = 2;
    MemDevice dev(eq, "dev", p);
    EXPECT_TRUE(dev.enqueueRead(0, TrafficSource::DemandRead));
    EXPECT_TRUE(dev.enqueueRead(64, TrafficSource::DemandRead));
    EXPECT_FALSE(dev.canAccept(false));
    EXPECT_FALSE(dev.enqueueRead(128, TrafficSource::DemandRead));
    eq.run();
    EXPECT_TRUE(dev.canAccept(false));
}

TEST(DeviceTest, CrashRollsBackUnservicedWrites)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    auto first = patternBlock(10);
    dev.enqueueWrite(256, first.data(), TrafficSource::DemandRead);
    eq.run(); // first serviced -> durable

    auto second = patternBlock(11);
    dev.enqueueWrite(256, second.data(), TrafficSource::DemandRead);
    // No eq.run(): the second write is still queued when power fails.
    dev.crash();

    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(256, out.data(), kBlockSize);
    EXPECT_EQ(out, first);
}

TEST(DeviceTest, CrashRollsBackChainInReverseOrder)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    auto a = patternBlock(20);
    auto b = patternBlock(21);
    auto c = patternBlock(22);
    for (const auto* d : {&a, &b, &c})
        dev.enqueueWrite(512, d->data(), TrafficSource::DemandRead);
    dev.crash();
    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(512, out.data(), kBlockSize);
    // All three were unserviced: the original zeros come back.
    EXPECT_EQ(out, (std::array<std::uint8_t, kBlockSize>{}));
}

TEST(DeviceTest, WritesDrainedNotification)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    EXPECT_TRUE(dev.writesDrained());

    dev.enqueueWrite(0, kZeros.data(), TrafficSource::DemandRead);
    EXPECT_FALSE(dev.writesDrained());

    bool drained = false;
    dev.notifyWhenWritesDrained([&] { drained = true; });
    eq.runUntil([&] { return drained; });
    EXPECT_TRUE(dev.writesDrained());
}

TEST(DeviceTest, WriteTrafficAttributedBySource)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    dev.enqueueWrite(0, kZeros.data(), TrafficSource::Checkpoint);
    dev.enqueueWrite(64, kZeros.data(), TrafficSource::Migration);
    eq.run();
    EXPECT_EQ(dev.writeBytes(TrafficSource::Checkpoint), kBlockSize);
    EXPECT_EQ(dev.writeBytes(TrafficSource::Migration), kBlockSize);
    EXPECT_EQ(dev.totalWriteBytes(), 2 * kBlockSize);
}

TEST(PortTest, StagesBeyondDeviceCapacity)
{
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 4;
    p.write_drain_high = 3;
    p.write_drain_low = 1;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);

    unsigned accepted = 0;
    for (unsigned i = 0; i < 64; ++i) {
        auto data = patternBlock(i);
        port.sendWrite(i * kBlockSize, data.data(), TrafficSource::DemandRead,
                       {}, [&] { ++accepted; });
    }
    bool all_durable = false;
    port.notifyWhenWritesDurable([&] { all_durable = true; });
    eq.runUntil([&] { return all_durable; });
    EXPECT_EQ(accepted, 64u);
    EXPECT_EQ(dev.totalWriteBytes(), 64 * kBlockSize);
}

TEST(PortTest, FunctionalReadSeesStagedWrites)
{
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 2;
    p.write_drain_high = 1; // force staging... high must be > low
    p.write_drain_low = 0;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);

    // Fill the device queue so later writes stage in the port FIFO.
    std::array<std::uint8_t, kBlockSize> expected{};
    for (unsigned i = 0; i < 8; ++i) {
        auto data = patternBlock(100 + i);
        expected = data;
        port.sendWrite(0, data.data(), TrafficSource::DemandRead);
    }
    std::array<std::uint8_t, kBlockSize> out{};
    port.functionalRead(0, out.data(), kBlockSize);
    EXPECT_EQ(out, expected); // newest staged write wins
}

TEST(PortTest, CrashDropsStagedRequests)
{
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 2;
    p.write_drain_high = 1;
    p.write_drain_low = 0;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);
    for (unsigned i = 0; i < 8; ++i) {
        auto data = patternBlock(i);
        port.sendWrite(64 * i, data.data(), TrafficSource::DemandRead);
    }
    port.crash();
    dev.crash();
    // Nothing was serviced: the store must be all zeros.
    std::array<std::uint8_t, kBlockSize> out{};
    for (unsigned i = 0; i < 8; ++i) {
        dev.store().read(64 * i, out.data(), kBlockSize);
        EXPECT_EQ(out, (std::array<std::uint8_t, kBlockSize>{}));
    }
}

TEST(PortTest, DurabilityOrderingForCommitRecords)
{
    // The protocol pattern: stage data writes, wait for durability,
    // then stage the commit record. After the wait fires, all data
    // writes must have been serviced.
    EventQueue eq;
    auto p = smallNvm();
    p.write_queue_capacity = 4;
    p.write_drain_high = 3;
    p.write_drain_low = 1;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);

    for (unsigned i = 0; i < 32; ++i)
        port.sendWrite(i * kBlockSize, kZeros.data(),
                       TrafficSource::DemandRead);
    bool data_durable = false;
    port.notifyWhenWritesDurable([&] { data_durable = true; });
    eq.runUntil([&] { return data_durable; });
    EXPECT_EQ(dev.totalWriteBytes(), 32 * kBlockSize);
    EXPECT_TRUE(dev.writesDrained());
}

/** A device whose one-deep write queue makes the next write stage. */
DeviceParams
oneDeepNvm()
{
    auto p = smallNvm();
    p.write_queue_capacity = 1;
    p.write_drain_high = 1;
    p.write_drain_low = 0;
    return p;
}

std::array<std::uint8_t, kBlockSize>
storeBlock(const MemDevice& dev, Addr addr)
{
    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(addr, out.data(), kBlockSize);
    return out;
}

TEST(PortTest, CrashKeepsOnlyServicedWriteOfABlock)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", oneDeepNvm());
    DevicePort port(dev);
    const auto serviced = patternBlock(30);
    const auto queued = patternBlock(31);
    const auto staged = patternBlock(32);

    port.sendWrite(640, serviced.data(), TrafficSource::DemandRead);
    eq.run();
    port.sendWrite(640, queued.data(), TrafficSource::DemandRead);
    port.sendWrite(640, staged.data(), TrafficSource::DemandRead);
    ASSERT_FALSE(dev.writesDrained()); // accepted, not serviced
    ASSERT_EQ(port.pendingWrites(), 1u);
    ASSERT_EQ(dev.stagedWrites(), 1u);
    // Write-through: the store already holds the newest sent write.
    EXPECT_EQ(storeBlock(dev, 640), staged);

    port.crash();
    dev.crash();
    EXPECT_EQ(storeBlock(dev, 640), serviced);
    EXPECT_EQ(dev.undoLogSize(), 0u);
    EXPECT_EQ(dev.stagedWrites(), 0u);
}

TEST(PortTest, QuiesceKeepsStagedData)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", oneDeepNvm());
    DevicePort port(dev);
    for (unsigned i = 0; i < 4; ++i) {
        const auto data = patternBlock(40 + i);
        port.sendWrite(64 * i, data.data(), TrafficSource::DemandRead);
    }
    ASSERT_EQ(port.pendingWrites(), 3u);
    port.crash();
    dev.quiesce();
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(storeBlock(dev, 64 * i), patternBlock(40 + i));

    // The port and device carry traffic again afterwards.
    const auto next = patternBlock(50);
    bool durable = false;
    port.sendWrite(0, next.data(), TrafficSource::DemandRead);
    port.notifyWhenWritesDurable([&] { durable = true; });
    eq.runUntil([&] { return durable; });
    EXPECT_EQ(storeBlock(dev, 0), next);
    EXPECT_EQ(dev.undoLogSize(), 0u);
}

TEST(DeviceTest, DirectWriteAppliesAtOnceAndRollsBack)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto data = patternBlock(60);
    ASSERT_TRUE(dev.enqueueWrite(1024, data.data(),
                                 TrafficSource::CpuWriteback));
    EXPECT_EQ(storeBlock(dev, 1024), data);
    EXPECT_EQ(dev.stagedWrites(), 0u);
    EXPECT_EQ(dev.liveUndoEntries(), 1u);
    dev.crash();
    EXPECT_EQ(storeBlock(dev, 1024), (std::array<std::uint8_t, kBlockSize>{}));
}

TEST(PortTest, UndoLogStaysBoundedThroughABurst)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    DevicePort port(dev);
    const std::size_t cap = dev.params().write_queue_capacity;
    constexpr unsigned kWrites = 10000;
    constexpr unsigned kBlocks = 4096; // repeats: chains of pre-images
    for (unsigned i = 0; i < kWrites; ++i) {
        const auto data = patternBlock(i);
        port.sendWrite((i % kBlocks) * kBlockSize, data.data(),
                       TrafficSource::Checkpoint);
    }
    EXPECT_EQ(dev.liveUndoEntries(), kWrites);
    bool durable = false;
    port.notifyWhenWritesDurable([&] { durable = true; });
    std::size_t peak = 0;
    eq.runUntil([&] {
        const std::size_t live = dev.liveUndoEntries();
        EXPECT_LE(dev.undoLogSize(), 2 * live + 2 * cap);
        peak = std::max(peak, dev.undoLogSize());
        return durable;
    });
    EXPECT_EQ(peak, kWrites);
    EXPECT_EQ(dev.undoLogSize(), 0u);
    EXPECT_EQ(dev.stagedWrites(), 0u);
    EXPECT_EQ(dev.totalWriteBytes(), kWrites * kBlockSize);
    for (unsigned b = 0; b < kBlocks; b += 1023) {
        const unsigned last = b + ((kWrites - 1 - b) / kBlocks) * kBlocks;
        EXPECT_EQ(storeBlock(dev, b * kBlockSize), patternBlock(last));
    }
}

TEST(DeviceTest, VolatileDeviceCrashZeroesStoreAndLogsNothing)
{
    EventQueue eq;
    auto p = DeviceParams::dram(1 << 20);
    p.write_queue_capacity = 4;
    p.write_drain_high = 3;
    p.write_drain_low = 1;
    MemDevice dev(eq, "dev", p);
    DevicePort port(dev);
    ASSERT_FALSE(dev.params().persistent);

    // Serviced writes: sent and run to completion.
    for (unsigned i = 0; i < 8; ++i) {
        const auto data = patternBlock(70 + i);
        port.sendWrite(i * kBlockSize, data.data(),
                       TrafficSource::CpuWriteback);
    }
    eq.run();
    EXPECT_EQ(dev.totalWriteBytes(), 8 * kBlockSize);
    EXPECT_EQ(dev.undoLogSize(), 0u);

    // Queued and staged writes: four fill the write queue, the rest
    // wait in the port, staged in the store.
    constexpr unsigned kSent = 10;
    for (unsigned i = 0; i < kSent; ++i) {
        const auto data = patternBlock(80 + i);
        port.sendWrite((8 + i) * kBlockSize, data.data(),
                       TrafficSource::CpuWriteback);
        EXPECT_EQ(dev.undoLogSize(), 0u);
    }
    EXPECT_FALSE(dev.writesDrained());
    EXPECT_EQ(port.pendingWrites(), kSent - p.write_queue_capacity);
    EXPECT_EQ(dev.stagedWrites(), port.pendingWrites());
    EXPECT_EQ(dev.liveUndoEntries(), 0u);
    for (unsigned i = 0; i < kSent; ++i)
        EXPECT_EQ(storeBlock(dev, (8 + i) * kBlockSize), patternBlock(80 + i));

    // Power loss: nothing survives, serviced writes included.
    port.crash();
    dev.crash();
    EXPECT_EQ(dev.stagedWrites(), 0u);
    EXPECT_EQ(dev.undoLogSize(), 0u);
    EXPECT_EQ(dev.store().touchedPageCount(), 0u);
    for (unsigned i = 0; i < 8 + kSent; ++i)
        EXPECT_EQ(storeBlock(dev, i * kBlockSize), kZeros);
}

} // namespace
} // namespace thynvm
