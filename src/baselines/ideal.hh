/**
 * @file
 * Idealized single-technology controllers (paper §5.1).
 *
 * Ideal DRAM / Ideal NVM: main memory is a single device covering the
 * whole physical address space, and crash consistency is assumed to be
 * provided at zero cost — no checkpointing, no versioning, no stalls.
 * These set the upper (DRAM) and technology-limited (NVM) reference
 * points the paper normalizes against.
 */

#ifndef THYNVM_BASELINES_IDEAL_HH
#define THYNVM_BASELINES_IDEAL_HH

#include <algorithm>
#include <cstring>
#include <memory>

#include "mem/controller.hh"
#include "mem/port.hh"

namespace thynvm {

/**
 * A flat controller over one memory device with no consistency cost.
 */
class IdealController : public MemController
{
  public:
    /**
     * @param eq event queue.
     * @param name instance name.
     * @param phys_size physical address space in bytes.
     * @param is_dram true for Ideal DRAM timing, false for Ideal NVM.
     * @param store optional surviving device contents.
     */
    IdealController(EventQueue& eq, std::string name,
                    std::size_t phys_size, bool is_dram,
                    std::shared_ptr<BackingStore> store = nullptr)
        : MemController(eq, std::move(name)),
          phys_size_(phys_size),
          is_dram_(is_dram),
          dev_(eq, this->name() + (is_dram ? ".dram" : ".nvm"),
               is_dram ? DeviceParams::dram(phys_size)
                       : DeviceParams::nvm(phys_size),
               std::move(store)),
          port_(dev_)
    {}

    /**
     * Device bytes a controller over @p phys_size occupies (the flat
     * space itself). The channel group sizes per-channel backing-store
     * slices with this before construction.
     */
    static std::size_t nvmCapacity(std::size_t phys_size)
    {
        return phys_size;
    }

    std::size_t physCapacity() const override { return phys_size_; }

    void
    accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                std::uint8_t* rdata, TrafficSource source,
                std::function<void()> done) override
    {
        panic_if(paddr % kBlockSize != 0, "unaligned controller access");
        panic_if(paddr + kBlockSize > phys_size_,
                 "physical address out of range");
        if (is_write) {
            noteAppWrite();
            port_.sendWrite(paddr, wdata, source, {}, std::move(done));
        } else {
            port_.functionalRead(paddr, rdata, kBlockSize);
            port_.sendRead(paddr, source, std::move(done));
        }
    }

    /**
     * Never fast: even the ideal controller models device timing, so
     * every access enqueues into the device's bank queues and the
     * enqueue tick is timing-visible.
     */
    Tick
    tryAccessFast(Addr, bool, const std::uint8_t*, std::uint8_t*,
                  TrafficSource) final
    {
        return kNoFastPath;
    }

    void
    functionalRead(Addr paddr, void* buf, std::size_t len) const override
    {
        panic_if(paddr + len > phys_size_, "functional read out of range");
        auto* out = static_cast<std::uint8_t*>(buf);
        std::size_t remaining = len;
        Addr addr = paddr;
        while (remaining > 0) {
            const Addr block = blockAlign(addr);
            const std::size_t in_block = addr - block;
            const std::size_t chunk =
                std::min(remaining, kBlockSize - in_block);
            std::uint8_t tmp[kBlockSize];
            port_.functionalRead(block, tmp, kBlockSize);
            std::memcpy(out, tmp + in_block, chunk);
            out += chunk;
            addr += chunk;
            remaining -= chunk;
        }
    }

    void
    loadImage(Addr paddr, const void* buf, std::size_t len) override
    {
        panic_if(paddr + len > phys_size_, "image beyond physical space");
        dev_.store().write(paddr, buf, len);
    }

    void
    forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override
    {
        // The flat space maps identity onto the device, whose store
        // already holds staged port writes.
        dev_.store().forEachTouchedRange(
            [&](Addr a, const std::uint8_t*, std::size_t len) {
                if (a < phys_size_)
                    fn(a, std::min(len, phys_size_ - a));
            });
    }

    void
    crash() override
    {
        // Idealized systems are *assumed* to provide crash consistency
        // at no cost (paper §5.1), so their contents survive intact —
        // including writes still staged or queued when power fails.
        port_.crash();
        dev_.quiesce();
    }

    void
    recover(std::function<void()> done) override
    {
        // Idealized: consistency is free by assumption.
        ++recoveries_;
        eventq_.scheduleIn(0, std::move(done));
    }

    /** The single backing device. */
    MemDevice& device() { return dev_; }

    MemDevice* nvmDevice() override { return is_dram_ ? nullptr : &dev_; }
    MemDevice* dramDevice() override { return is_dram_ ? &dev_ : nullptr; }
    std::shared_ptr<BackingStore> nvmStoreHandle() override
    {
        return dev_.storeHandle();
    }

  private:
    std::size_t phys_size_;
    bool is_dram_;
    MemDevice dev_;
    DevicePort port_;
};

} // namespace thynvm

#endif // THYNVM_BASELINES_IDEAL_HH
