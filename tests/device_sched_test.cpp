/**
 * @file
 * Scheduling-invariant tests for the per-bank device scheduler:
 * FR-FCFS ordering, write-drain watermark hysteresis, undo-log crash
 * rollback, the bank-ready wakeup path, and pinned completion orders of
 * seeded request streams at several bank counts.
 */

#include "tests/test_util.hh"

#include "common/rng.hh"
#include "mem/device.hh"

namespace thynvm {
namespace {

using test::patternBlock;

DeviceParams
smallNvm()
{
    return DeviceParams::nvm(1 << 20);
}

/** Addresses in bank 0: consecutive rows stride by row_size * banks. */
Addr
bank0Row(const DeviceParams& p, std::uint64_t row, std::uint64_t block = 0)
{
    return row * p.row_size * p.banks + block * kBlockSize;
}

TEST(DeviceSchedTest, RowHitBeatsOlderMissInSameBank)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto& p = dev.params();

    // Open row 0 of bank 0.
    dev.enqueueRead(bank0Row(p, 0), TrafficSource::DemandRead);
    eq.run();

    // Older miss (row 1) vs younger hit (row 0), queued the same tick:
    // FR-FCFS must service the row hit first.
    std::vector<int> order;
    dev.enqueueRead(bank0Row(p, 1), TrafficSource::DemandRead,
                    [&] { order.push_back(1); });
    dev.enqueueRead(bank0Row(p, 0, 1), TrafficSource::DemandRead,
                    [&] { order.push_back(2); });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(dev.stats().value("row_hits"), 1.0);
}

TEST(DeviceSchedTest, OldestRowHitWinsAmongHits)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());
    const auto& p = dev.params();

    dev.enqueueRead(bank0Row(p, 0), TrafficSource::DemandRead);
    eq.run();

    // Three hits to the open row: serviced strictly in age order even
    // though every one of them is an equally good row hit.
    std::vector<int> order;
    for (int i = 0; i < 3; ++i) {
        dev.enqueueRead(bank0Row(p, 0, 1 + i), TrafficSource::DemandRead,
                        [&order, i] { order.push_back(i); });
    }
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(DeviceSchedTest, WriteDrainHysteresis)
{
    EventQueue eq;
    auto p = smallNvm();
    p.banks = 1;
    p.read_queue_capacity = 8;
    p.write_queue_capacity = 8;
    p.write_drain_high = 6;
    p.write_drain_low = 2;
    MemDevice dev(eq, "dev", p);

    // One read, then enough writes to cross the high watermark, then a
    // second read. The first scheduling pass enters drain mode and picks
    // a write; once below the high mark, waiting reads take priority
    // again (hysteresis only holds with an empty read queue), and the
    // remaining writes drain opportunistically afterwards.
    std::vector<std::string> order;
    auto tag = [&order](std::string s) {
        return [&order, s = std::move(s)] { order.push_back(s); };
    };
    const char* wname[] = {"W1", "W2", "W3", "W4", "W5", "W6"};
    dev.enqueueRead(0, TrafficSource::DemandRead, tag("R1"));
    for (int i = 0; i < 6; ++i) {
        const auto data = patternBlock(i);
        dev.enqueueWrite((1 + i) * kBlockSize, data.data(),
                         TrafficSource::CpuWriteback, tag(wname[i]));
    }
    dev.enqueueRead(8 * kBlockSize, TrafficSource::DemandRead, tag("R2"));
    eq.run();

    const std::vector<std::string> expected = {"W1", "R1", "R2", "W2",
                                               "W3", "W4", "W5", "W6"};
    EXPECT_EQ(order, expected);
    EXPECT_EQ(dev.stats().value("write_drain_entries"), 1.0);

    // Crossing the high watermark again is a second drain entry.
    for (int i = 0; i < 6; ++i) {
        const auto data = patternBlock(10 + i);
        dev.enqueueWrite((1 + i) * kBlockSize, data.data(),
                         TrafficSource::CpuWriteback);
    }
    eq.run();
    EXPECT_EQ(dev.stats().value("write_drain_entries"), 2.0);
}

TEST(DeviceSchedTest, CrashKeepsServicedWritesRollsBackRest)
{
    EventQueue eq;
    auto p = smallNvm();
    p.banks = 1;
    MemDevice dev(eq, "dev", p);

    const auto a = patternBlock(1);
    const auto b = patternBlock(2);
    const auto c = patternBlock(3);
    unsigned completed = 0;
    dev.enqueueWrite(0 * kBlockSize, a.data(), TrafficSource::CpuWriteback,
                     [&] { ++completed; });
    dev.enqueueWrite(1 * kBlockSize, b.data(), TrafficSource::CpuWriteback,
                     [&] { ++completed; });
    dev.enqueueWrite(2 * kBlockSize, c.data(), TrafficSource::CpuWriteback,
                     [&] { ++completed; });

    // Service exactly the oldest write, then lose power. The serviced
    // write is durable; the two still queued must roll back even though
    // their undo entries sit behind a dead (completed) entry.
    eq.runUntil([&] { return completed == 1; });
    dev.crash();

    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(0, out.data(), kBlockSize);
    EXPECT_EQ(out, a);
    for (Addr addr : {Addr{1} * kBlockSize, Addr{2} * kBlockSize}) {
        dev.store().read(addr, out.data(), kBlockSize);
        EXPECT_EQ(out, (std::array<std::uint8_t, kBlockSize>{}));
    }
}

TEST(DeviceSchedTest, SameAddressRollbackRestoresNewestFirst)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    const auto committed = patternBlock(7);
    dev.enqueueWrite(256, committed.data(), TrafficSource::CpuWriteback);
    eq.run();

    // Two queued overwrites of the same block: rollback must unwind the
    // newest first so the pre-enqueue bytes (the committed write)
    // reappear.
    const auto x = patternBlock(8);
    const auto y = patternBlock(9);
    dev.enqueueWrite(256, x.data(), TrafficSource::CpuWriteback);
    dev.enqueueWrite(256, y.data(), TrafficSource::CpuWriteback);
    dev.crash();

    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(256, out.data(), kBlockSize);
    EXPECT_EQ(out, committed);
}

TEST(DeviceSchedTest, UndoLogTruncatedOnDrain)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    // Many rounds of writes, each fully drained: with the undo log
    // truncated at every drain, a crash afterwards must keep everything
    // (nothing unserviced remains to roll back).
    std::array<std::uint8_t, kBlockSize> newest{};
    for (int round = 0; round < 10; ++round) {
        const auto data = patternBlock(round);
        newest = data;
        dev.enqueueWrite(0, data.data(), TrafficSource::CpuWriteback);
        eq.run();
        ASSERT_TRUE(dev.writesDrained());
    }
    dev.crash();
    std::array<std::uint8_t, kBlockSize> out{};
    dev.store().read(0, out.data(), kBlockSize);
    EXPECT_EQ(out, newest);
}

TEST(DeviceSchedTest, BankReadyWakeupFiresWithoutPendingCompletion)
{
    EventQueue eq;
    MemDevice dev(eq, "dev", smallNvm());

    // Start timed service so bank 0's busy_until lies in the future.
    dev.enqueueRead(0, TrafficSource::DemandRead);
    eq.step(); // runs the scheduling pass; completion is now pending

    // Power-loss path: the harness abandons the event queue (dropping
    // the completion event) and the device quiesces, but the bank's
    // timing state survives.
    eq.clear();
    dev.quiesce();

    // A new request to the still-busy bank has no completion event left
    // to drive scheduling; the bank-ready wakeup must pick it up at
    // busy_until instead of stalling forever.
    bool done = false;
    dev.enqueueRead(kBlockSize, TrafficSource::DemandRead,
                    [&] { done = true; });
    eq.run();
    EXPECT_TRUE(done);
}

/**
 * FNV-1a hash of every completion's (tick, addr, is_write) for a seeded
 * stream of reads and writes to a device with @p banks banks. Enqueue
 * gaps are random, in bursts and quiet spells, so the write queue
 * crosses both drain watermarks; midway the device quiesces with banks still
 * busy, so the rest of the stream starts through the bank-ready wakeup.
 */
std::uint64_t
streamCompletionHash(unsigned banks, std::uint64_t seed,
                     double* drain_entries)
{
    EventQueue eq;
    auto p = smallNvm();
    p.banks = banks;
    MemDevice dev(eq, "dev", p);
    Rng rng(seed);

    std::uint64_t hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    // Rows 0 .. 4 * banks - 1 of a 1 MiB device: a few rows per bank,
    // so the stream mixes row hits, clean misses and dirty misses.
    const std::uint64_t rows = 4u * banks;
    const std::uint64_t blocks_per_row = p.row_size / kBlockSize;
    constexpr int kRequests = 3000;
    constexpr int kQuiesceAt = 1500;

    int issued = 0;
    std::function<void()> issue = [&] {
        const bool is_write = rng.below(10) < 6;
        const Addr addr =
            (rng.below(rows) * blocks_per_row + rng.below(blocks_per_row)) *
            kBlockSize;
        auto done = [&mix, &eq, addr, is_write] {
            mix(eq.now());
            mix(addr);
            mix(is_write ? 1 : 0);
        };
        // A full queue drops the request; the stream moves on.
        if (is_write && dev.canAccept(true)) {
            const auto data = patternBlock(addr);
            dev.enqueueWrite(addr, data.data(), TrafficSource::CpuWriteback,
                             done);
        } else if (!is_write && dev.canAccept(false)) {
            dev.enqueueRead(addr, TrafficSource::DemandRead, done);
        }
        if (++issued == kQuiesceAt || issued == kRequests)
            return;
        // Alternate bursts, which fill the queues past the high
        // watermark, with quiet spells, which drain them.
        const bool burst = (issued / 200) % 2 == 0;
        const Tick gap = rng.below(burst ? 4 : 400) * kNanosecond;
        eq.scheduleIn(gap, [&] { issue(); });
    };

    eq.scheduleIn(0, [&] { issue(); });
    eq.runUntil([&] { return issued == kQuiesceAt; });
    // Finish this tick's scheduling pass so completions are pending and
    // their banks busy, then lose them.
    eq.run(eq.now());
    eq.clear();
    dev.quiesce();
    eq.scheduleIn(0, [&] { issue(); });
    eq.run();
    EXPECT_EQ(issued, kRequests);
    *drain_entries = dev.stats().value("write_drain_entries");
    return hash;
}

TEST(DeviceSchedTest, SeededStreamsKeepTheirCompletionOrder)
{
    // The hashes were recorded with a scheduler that visited every bank
    // in every pass and never skipped a pass. Any change to FR-FCFS
    // picks, drain-mode decisions or wakeups at these bank counts
    // changes them.
    const struct
    {
        unsigned banks;
        std::uint64_t hash;
    } cases[] = {
        {1, 0x671b5dd475303a2dull},
        {3, 0x219ce31ec6b00bcdull},
        {8, 0x0ca2dea38bfb04cdull},
        {32, 0x74f1d3aaa14dedffull},
    };
    for (const auto& c : cases) {
        double drain_entries = 0;
        const std::uint64_t hash =
            streamCompletionHash(c.banks, 1000 + c.banks, &drain_entries);
        EXPECT_EQ(hash, c.hash)
            << c.banks << " banks: 0x" << std::hex << hash;
        EXPECT_GT(drain_entries, 0.0) << c.banks << " banks";
    }
}

} // namespace
} // namespace thynvm
