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
        : MemController(eq, std::move(name), phys_size),
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

    void
    accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                std::uint8_t* rdata, TrafficSource source,
                std::function<void()> done) override
    {
        checkBlockAccess(paddr);
        if (is_write) {
            noteAppWrite();
            port_.sendWrite(paddr, wdata, source, {}, std::move(done));
        } else {
            port_.functionalRead(paddr, rdata, kBlockSize);
            port_.sendRead(paddr, source, std::move(done));
        }
    }

    void
    loadImage(Addr paddr, const void* buf, std::size_t len) override
    {
        panic_if(paddr + len > physCapacity(),
                 "image beyond physical space");
        dev_.store().write(paddr, buf, len);
    }

    void
    forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override
    {
        // The flat space maps identity onto the device, whose store
        // already holds staged port writes.
        forEachTouchedCopyRange(dev_, 1, fn);
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

    MemDevice* nvmDevice() override { return is_dram_ ? nullptr : &dev_; }
    MemDevice* dramDevice() override { return is_dram_ ? &dev_ : nullptr; }
    /** Ideal DRAM too: its contents survive a crash (crash() above). */
    std::shared_ptr<BackingStore> nvmStoreHandle() override
    {
        return dev_.storeHandle();
    }

  protected:
    void
    readVisibleBlock(Addr block, std::uint8_t* out) const override
    {
        port_.functionalRead(block, out, kBlockSize);
    }

  private:
    bool is_dram_;
    MemDevice dev_;
    DevicePort port_;
};

} // namespace thynvm

#endif // THYNVM_BASELINES_IDEAL_HH
