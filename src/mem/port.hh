/**
 * @file
 * A staging port in front of a MemDevice.
 *
 * Controllers can always send into a port; the port issues requests to
 * the device as queue space frees up, providing backpressure through
 * the device's accept hooks (installed once, armed while the port is
 * blocked) instead of rejections. Reads and writes are staged
 * in separate FIFOs so demand reads are not head-of-line blocked behind
 * checkpoint write bursts; this is safe because data is resolved
 * *functionally* at send time (see MemController::access contract) and
 * device-level requests model timing and durability only.
 *
 * Staging is write-through: sendWrite() applies the data to the
 * device's store at once and logs its pre-image in the device's undo
 * log (MemDevice::stageWrite), so functionalRead() is a plain store read
 * and a staged write item carries no payload. The device's crash() rolls
 * staged and queued writes back alike (DESIGN.md "Write-through port
 * staging" has why this is exact).
 *
 * Run items: each FIFO item is a run of `count` contiguous blocks
 * starting at `addr`, all from one TrafficSource. A send joins the tail
 * item instead of adding one when neither it nor the tail carries a
 * callback, both have the same source, and it targets the block right
 * after the tail's last one; otherwise it becomes a new item of count
 * 1. So a page copy (Shadow's fault and flush, ThyNVM's page writeback:
 * 64 callback-free block sends) takes one item, while a demand send
 * with a callback keeps an item of its own. Issue still takes one block
 * per canAccept() check, advancing the front item's `addr` and
 * decrementing its `count`, so the device sees exactly the
 * enqueueRead()/enqueueStagedWrite() calls, in the same order and at
 * the same ticks, as with one item per send (DESIGN.md "Write-through
 * port staging").
 *
 * Durability ordering across writes (e.g., checkpoint data before the
 * commit record) is enforced at the protocol level by waiting on
 * notifyWhenWritesDurable() between dependent writes, mirroring the
 * paper's "flush the NVM write queue" step.
 */

#ifndef THYNVM_MEM_PORT_HH
#define THYNVM_MEM_PORT_HH

#include <cstdint>
#include <deque>
#include <memory>

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
    explicit DevicePort(MemDevice& dev) : dev_(dev)
    {
        dev_.setAcceptHook(false, [this] {
            read_blocked_ = false;
            tryIssueReads();
        });
        dev_.setAcceptHook(true, [this] {
            write_blocked_ = false;
            tryIssueWrites();
        });
    }

    DevicePort(const DevicePort&) = delete;
    DevicePort& operator=(const DevicePort&) = delete;

    /** The device behind this port. */
    MemDevice& device() { return dev_; }
    const MemDevice& device() const { return dev_; }

    /**
     * Stage a read for issue to the device.
     * @param on_complete fires when the timed service ends.
     */
    void
    sendRead(Addr addr, TrafficSource source,
             std::function<void()> on_complete = {})
    {
        if (on_complete || !joinsTail(read_fifo_, addr, source))
            read_fifo_.push_back(
                ReadItem{addr, 1, source, std::move(on_complete)});
        tryIssueReads();
    }

    /**
     * Stage a write of one block (@p data, kBlockSize bytes; stored now).
     * @param on_complete fires when the timed service ends.
     * @param on_accept fires when the device accepts the request (useful
     *        as a posted-write acknowledgment).
     */
    void
    sendWrite(Addr addr, const std::uint8_t* data, TrafficSource source,
              std::function<void()> on_complete = {},
              std::function<void()> on_accept = {})
    {
        dev_.stageWrite(addr, data);
        ++pending_writes_;
        if (on_complete || on_accept) {
            write_fifo_.push_back(WriteItem{
                addr, source, 1,
                std::make_unique<WriteCallbacks>(WriteCallbacks{
                    std::move(on_complete), std::move(on_accept)})});
        } else if (!joinsTail(write_fifo_, addr, source)) {
            write_fifo_.push_back(WriteItem{addr, source, 1, nullptr});
        }
        tryIssueWrites();
    }

    /** Functional read of current contents, staged writes included. */
    void
    functionalRead(Addr addr, void* buf, std::size_t len) const
    {
        dev_.store().read(addr, buf, len);
    }

    /** Staged write blocks not yet accepted by the device. */
    std::size_t pendingWrites() const { return pending_writes_; }

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

    /** Drop all staged requests; the device's crash() or quiesce()
     *  decides whether staged data survives. */
    void
    crash()
    {
        read_fifo_.clear();
        write_fifo_.clear();
        pending_writes_ = 0;
        drain_waiters_.clear();
        read_blocked_ = false;
        write_blocked_ = false;
        drain_check_armed_ = false;
    }

  private:
    /** A run of `count` staged reads; a callback implies count 1. */
    struct ReadItem
    {
        Addr addr = 0;
        std::uint32_t count = 1;
        TrafficSource source = TrafficSource::DemandRead;
        std::function<void()> on_complete;
    };

    struct WriteCallbacks
    {
        std::function<void()> on_complete;
        std::function<void()> on_accept;
    };

    /**
     * A run of `count` staged writes, whose data already sits in the
     * device's store; callbacks imply count 1.
     */
    struct WriteItem
    {
        Addr addr = 0;
        TrafficSource source = TrafficSource::DemandRead;
        std::uint32_t count = 1;
        /** Null unless the sender passed a callback. */
        std::unique_ptr<WriteCallbacks> callbacks;
    };

    static bool hasCallback(const ReadItem& r) { return bool(r.on_complete); }
    static bool hasCallback(const WriteItem& w) { return bool(w.callbacks); }

    /**
     * Extend the tail item of @p fifo by one block if a callback-free
     * send to @p addr from @p source continues its run.
     */
    template <typename Item>
    static bool
    joinsTail(std::deque<Item>& fifo, Addr addr, TrafficSource source)
    {
        if (fifo.empty())
            return false;
        Item& tail = fifo.back();
        if (hasCallback(tail) || tail.source != source ||
            addr != tail.addr + Addr(tail.count) * kBlockSize ||
            tail.count == UINT32_MAX)
            return false;
        ++tail.count;
        return true;
    }

    void
    tryIssueReads()
    {
        if (read_blocked_)
            return;
        while (!read_fifo_.empty()) {
            if (!dev_.canAccept(false)) {
                read_blocked_ = true;
                dev_.armAcceptHook(false);
                return;
            }
            ReadItem& front = read_fifo_.front();
            bool ok;
            if (front.count > 1) {
                ok = dev_.enqueueRead(front.addr, front.source);
                front.addr += kBlockSize;
                --front.count;
            } else {
                ReadItem item = std::move(front);
                read_fifo_.pop_front();
                ok = dev_.enqueueRead(item.addr, item.source,
                                      std::move(item.on_complete));
            }
            panic_if(!ok, "device rejected request after canAccept");
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
                dev_.armAcceptHook(true);
                return;
            }
            --pending_writes_;
            WriteItem& front = write_fifo_.front();
            if (front.count > 1) {
                bool ok = dev_.enqueueStagedWrite(front.addr, front.source);
                panic_if(!ok, "device rejected request after canAccept");
                front.addr += kBlockSize;
                --front.count;
                continue;
            }
            WriteItem item = std::move(front);
            write_fifo_.pop_front();
            WriteCallbacks cbs;
            if (item.callbacks)
                cbs = std::move(*item.callbacks);
            bool ok = dev_.enqueueStagedWrite(item.addr, item.source,
                                              std::move(cbs.on_complete));
            panic_if(!ok, "device rejected request after canAccept");
            if (cbs.on_accept)
                cbs.on_accept();
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

    MemDevice& dev_;
    std::deque<ReadItem> read_fifo_;
    std::deque<WriteItem> write_fifo_;
    /** Blocks in write_fifo_'s runs. */
    std::size_t pending_writes_ = 0;
    std::vector<std::function<void()>> drain_waiters_;
    bool read_blocked_ = false;
    bool write_blocked_ = false;
    bool drain_check_armed_ = false;
};

} // namespace thynvm

#endif // THYNVM_MEM_PORT_HH
