/**
 * @file
 * A staging port in front of a MemDevice.
 *
 * Controllers can always send into a port; the port issues requests to
 * the device as queue space frees up, providing backpressure through
 * acceptance callbacks instead of rejections. Reads and writes are staged
 * in separate FIFOs so demand reads are not head-of-line blocked behind
 * checkpoint write bursts; this is safe because data is resolved
 * *functionally* at send time (see MemController::access contract) and
 * device-level requests model timing and durability only.
 *
 * Staged reads carry no payload at all; staged writes hold the one block
 * of write data until the device accepts it (at which point the data is
 * applied to the backing store and the port's copy dies). A per-address
 * index keeps functionalRead O(1) over the unbounded write FIFO.
 *
 * Durability ordering across writes (e.g., checkpoint data before the
 * commit record) is enforced at the protocol level by waiting on
 * notifyWhenWritesDurable() between dependent writes, mirroring the
 * paper's "flush the NVM write queue" step.
 */

#ifndef THYNVM_MEM_PORT_HH
#define THYNVM_MEM_PORT_HH

#include <cstring>
#include <deque>
#include <unordered_map>

#include "mem/device.hh"

namespace thynvm {

/**
 * Staging port with unbounded read/write FIFOs and in-order issue
 * within each class.
 */
class DevicePort
{
  public:
    /** @param dev the device this port feeds. */
    explicit DevicePort(MemDevice& dev) : dev_(dev) {}

    DevicePort(const DevicePort&) = delete;
    DevicePort& operator=(const DevicePort&) = delete;

    /** The device behind this port. */
    MemDevice& device() { return dev_; }
    const MemDevice& device() const { return dev_; }

    /**
     * Stage a read for issue to the device.
     * @param on_complete fires when the timed service ends.
     * @param on_accept fires when the device accepts the request into
     *        its queue.
     */
    void
    sendRead(Addr addr, TrafficSource source,
             std::function<void()> on_complete = {},
             std::function<void()> on_accept = {})
    {
        read_fifo_.push_back(ReadItem{addr, source, std::move(on_complete),
                                      std::move(on_accept)});
        tryIssueReads();
    }

    /**
     * Stage a write of one block (@p data, kBlockSize bytes; copied).
     * @param on_complete fires when the timed service ends.
     * @param on_accept fires when the device accepts the request (useful
     *        as a posted-write acknowledgment).
     */
    void
    sendWrite(Addr addr, const std::uint8_t* data, TrafficSource source,
              std::function<void()> on_complete = {},
              std::function<void()> on_accept = {})
    {
        write_fifo_.emplace_back();
        WriteItem& item = write_fifo_.back();
        item.addr = addr;
        item.source = source;
        item.on_complete = std::move(on_complete);
        item.on_accept = std::move(on_accept);
        std::memcpy(item.data.data(), data, kBlockSize);
        // Deque references stay valid across push_back/pop_front, so
        // the index can point straight at the staged payload.
        StagedWrite& sw = staged_writes_[addr];
        ++sw.count;
        sw.newest = item.data.data();
        tryIssueWrites();
    }

    /**
     * Functional read that observes staged writes still in the write
     * FIFO (newest match wins) before falling back to the backing
     * store. @p addr must be block aligned, @p len at most one block.
     */
    void
    functionalRead(Addr addr, void* buf, std::size_t len) const
    {
        panic_if(addr % kBlockSize != 0 || len > kBlockSize,
                 "port functional read must target a single block");
        auto it = staged_writes_.find(addr);
        if (it != staged_writes_.end()) {
            std::memcpy(buf, it->second.newest, len);
            return;
        }
        dev_.store().read(addr, buf, len);
    }

    /**
     * Enumerate the block addresses with a staged (not yet accepted)
     * write, one call per distinct address. Touched-range enumeration
     * uses this to cover data functionalRead() resolves from the FIFO
     * rather than the backing store.
     */
    template <typename Fn>
    void
    forEachStagedWriteAddr(Fn&& fn) const
    {
        for (const auto& [addr, sw] : staged_writes_)
            fn(addr);
    }

    /** Requests staged but not yet accepted by the device. */
    std::size_t
    pending() const
    {
        return read_fifo_.size() + write_fifo_.size();
    }

    /** Staged writes not yet accepted by the device. */
    std::size_t pendingWrites() const { return write_fifo_.size(); }

    /**
     * One-shot callback for when every write sent through this port so
     * far has been fully serviced by the device (i.e., is durable if
     * the device is nonvolatile). Conservative: writes sent after this
     * call may delay the notification.
     */
    void
    notifyWhenWritesDurable(std::function<void()> cb)
    {
        drain_waiters_.push_back(std::move(cb));
        checkDrainWaiters();
    }

    /**
     * Apply all staged writes functionally and drop the FIFOs without
     * loss. For idealized systems whose consistency is free by
     * assumption.
     */
    void
    quiesce()
    {
        for (auto& item : write_fifo_)
            dev_.store().write(item.addr, item.data.data(), kBlockSize);
        crash();
    }

    /** Drop all staged requests (power loss). */
    void
    crash()
    {
        read_fifo_.clear();
        write_fifo_.clear();
        staged_writes_.clear();
        drain_waiters_.clear();
        read_blocked_ = false;
        write_blocked_ = false;
        drain_check_armed_ = false;
    }

  private:
    struct ReadItem
    {
        Addr addr = 0;
        TrafficSource source = TrafficSource::DemandRead;
        std::function<void()> on_complete;
        std::function<void()> on_accept;
    };

    struct WriteItem
    {
        Addr addr = 0;
        TrafficSource source = TrafficSource::DemandRead;
        std::function<void()> on_complete;
        std::function<void()> on_accept;
        std::array<std::uint8_t, kBlockSize> data{};
    };

    void
    tryIssueReads()
    {
        if (read_blocked_)
            return;
        while (!read_fifo_.empty()) {
            if (!dev_.canAccept(false)) {
                read_blocked_ = true;
                dev_.notifyWhenAccepting(false, [this] {
                    read_blocked_ = false;
                    tryIssueReads();
                });
                return;
            }
            ReadItem item = std::move(read_fifo_.front());
            read_fifo_.pop_front();
            bool ok = dev_.enqueueRead(item.addr, item.source,
                                       std::move(item.on_complete));
            panic_if(!ok, "device rejected request after canAccept");
            if (item.on_accept)
                item.on_accept();
        }
    }

    void
    tryIssueWrites()
    {
        if (write_blocked_)
            return;
        while (!write_fifo_.empty()) {
            if (!dev_.canAccept(true)) {
                write_blocked_ = true;
                dev_.notifyWhenAccepting(true, [this] {
                    write_blocked_ = false;
                    tryIssueWrites();
                });
                return;
            }
            WriteItem item = std::move(write_fifo_.front());
            write_fifo_.pop_front();
            auto it = staged_writes_.find(item.addr);
            panic_if(it == staged_writes_.end(),
                     "staged write missing from index");
            // The FIFO pops oldest-first, so the newest staged write
            // for this address only leaves when it is the last one.
            if (--it->second.count == 0)
                staged_writes_.erase(it);
            bool ok = dev_.enqueueWrite(item.addr, item.data.data(),
                                        item.source,
                                        std::move(item.on_complete));
            panic_if(!ok, "device rejected request after canAccept");
            if (item.on_accept)
                item.on_accept();
        }
        checkDrainWaiters();
    }

    void
    checkDrainWaiters()
    {
        if (drain_waiters_.empty() || drain_check_armed_)
            return;
        if (!write_fifo_.empty())
            return; // tryIssueWrites() will re-check once staged
        drain_check_armed_ = true;
        dev_.notifyWhenWritesDrained([this] {
            drain_check_armed_ = false;
            if (write_fifo_.empty() && dev_.writesDrained()) {
                auto waiters = std::move(drain_waiters_);
                drain_waiters_.clear();
                for (auto& cb : waiters)
                    cb();
            } else {
                checkDrainWaiters();
            }
        });
    }

    /** Per-address view of the staged writes: how many are in the FIFO
     *  and where the newest one's payload lives. Keeps functionalRead
     *  O(1) instead of scanning the (unbounded) write FIFO. */
    struct StagedWrite
    {
        std::size_t count = 0;
        const std::uint8_t* newest = nullptr;
    };

    MemDevice& dev_;
    std::deque<ReadItem> read_fifo_;
    std::deque<WriteItem> write_fifo_;
    std::unordered_map<Addr, StagedWrite> staged_writes_;
    std::vector<std::function<void()>> drain_waiters_;
    bool read_blocked_ = false;
    bool write_blocked_ = false;
    bool drain_check_armed_ = false;
};

} // namespace thynvm

#endif // THYNVM_MEM_PORT_HH
