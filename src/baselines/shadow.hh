/**
 * @file
 * Shadow paging (copy-on-write) baseline controller (paper §5.1,
 * system 4).
 *
 * Written pages are copied on first write from NVM into a DRAM buffer;
 * subsequent writes coalesce there. When the buffer fills, LRU dirty
 * pages are flushed to the *shadow* NVM slot of the page (never
 * overwriting the committed copy in place). At each epoch boundary,
 * stop-the-world: all dirty pages are flushed to their shadow slots and
 * a per-page slot table plus the CPU state are committed atomically.
 * Its pathology, reproduced here, is write amplification under sparse
 * (random) updates: a single dirty block costs a whole-page flush.
 */

#ifndef THYNVM_BASELINES_SHADOW_HH
#define THYNVM_BASELINES_SHADOW_HH

#include <unordered_map>

#include "mem/epoch_controller.hh"
#include "mem/port.hh"

namespace thynvm {

/** Configuration of the shadow-paging controller. */
struct ShadowConfig
{
    /** Software-visible physical address space in bytes. */
    std::size_t phys_size = 32u << 20;
    /** DRAM buffer size in bytes (paper: same as ThyNVM's DRAM). */
    std::size_t dram_size = 16u << 20;
    /** Epoch length. */
    Tick epoch_length = 10 * kMillisecond;
    /** Reserved bytes for the CPU state blob. */
    std::size_t cpu_state_max = 16384;
};

/**
 * Copy-on-write hybrid persistent-memory controller.
 */
class ShadowController : public EpochController
{
  public:
    ShadowController(EventQueue& eq, std::string name,
                     const ShadowConfig& cfg,
                     std::shared_ptr<BackingStore> nvm_store = nullptr);

    /**
     * NVM bytes a controller with this config occupies (home + shadow
     * regions, slot tables, headers, CPU areas). The channel group
     * sizes per-channel backing-store slices with this before
     * construction.
     */
    static std::size_t nvmCapacity(const ShadowConfig& cfg);

    std::size_t physCapacity() const override { return cfg_.phys_size; }
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;

    /**
     * Never fast: every access may trigger a copy-on-write page fetch
     * into the DRAM buffer and always travels the device ports, so the
     * issue tick is timing-visible.
     */
    Tick
    tryAccessFast(Addr, bool, const std::uint8_t*, std::uint8_t*,
                  TrafficSource) final
    {
        return kNoFastPath;
    }

    void functionalRead(Addr paddr, void* buf,
                        std::size_t len) const override;
    void forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override;
    void loadImage(Addr paddr, const void* buf, std::size_t len) override;
    void crash() override;

    /** DRAM device (page buffer). */
    MemDevice& dram() { return dram_dev_; }
    /** NVM device (home + shadow + table slots). */
    MemDevice& nvm() { return nvm_dev_; }
    MemDevice* nvmDevice() override { return &nvm_dev_; }
    MemDevice* dramDevice() override { return &dram_dev_; }
    std::shared_ptr<BackingStore> nvmStoreHandle() override
    {
        return nvm_dev_.storeHandle();
    }
    /** Pages currently resident in the DRAM buffer. */
    std::size_t residentPages() const { return resident_.size(); }

  protected:
    void doCheckpoint(std::function<void()> done) override;
    const CommitRecord& commitRecord() const override { return commit_; }
    void rebuild(const std::optional<CommitRecord::Committed>& committed,
                 RecoveryJoin& join) override;

  private:
    struct Resident
    {
        std::size_t slot;
        bool dirty;
        std::uint64_t lru;
    };

    std::size_t numPages() const { return cfg_.phys_size / kPageSize; }
    std::size_t numSlots() const { return cfg_.dram_size / kPageSize; }
    Addr nvmPageAddr(std::size_t page_idx, std::uint8_t slot) const
    {
        // Slot 0 = home, slot 1 = shadow region.
        return (slot == 0 ? 0 : cfg_.phys_size) + page_idx * kPageSize;
    }
    Addr tableAddr(unsigned k) const;
    Addr headerAddr(unsigned k) const;
    Addr cpuAddr(unsigned k) const;

    /** Bring a page into the DRAM buffer (copy-on-write). */
    Resident& fault(Addr page_paddr);
    /** Flush one resident dirty page to its shadow NVM slot. */
    void flushPage(Addr page_paddr, Resident& r, TrafficSource src);
    /** Evict a page to free a DRAM slot. */
    void evictOne();
    /** NVM address of the current visible copy of @p page_paddr. */
    Addr visibleNvmPage(Addr page_paddr) const;

    ShadowConfig cfg_;
    MemDevice dram_dev_;
    MemDevice nvm_dev_;
    DevicePort dram_port_;
    DevicePort nvm_port_;
    /** A parity pair of header slots. */
    CommitRecord commit_;

    /** Committed NVM slot per page (0 = home, 1 = shadow). */
    std::vector<std::uint8_t> committed_slot_;
    /** Pages flushed to the shadow slot since the last commit. */
    std::vector<std::uint8_t> working_nvm_valid_;
    /** page paddr -> DRAM residency. */
    std::unordered_map<Addr, Resident> resident_;
    std::vector<std::size_t> free_slots_;
    std::uint64_t lru_clock_ = 0;

    stats::Scalar cow_faults_;
    stats::Scalar evictions_;
    stats::Scalar pages_flushed_;
};

} // namespace thynvm

#endif // THYNVM_BASELINES_SHADOW_HH
