/**
 * @file
 * Journaling (redo-log) baseline controller (paper §5.1, system 3).
 *
 * A journal buffer in DRAM collects and coalesces updated blocks. At
 * each epoch boundary, stop-the-world: the buffer is written to a
 * journal region in NVM together with its metadata, a commit header is
 * written after a full drain, the blocks are then applied in place to
 * the Home region, and finally an "applied" marker retires the journal.
 * Recovery replays a committed-but-unapplied journal (redo semantics).
 *
 * The dirty-block tracking table is sized like ThyNVM's BTT+PTT
 * combined, as in the paper's evaluation setup.
 */

#ifndef THYNVM_BASELINES_JOURNAL_HH
#define THYNVM_BASELINES_JOURNAL_HH

#include <unordered_map>

#include "mem/epoch_controller.hh"
#include "mem/port.hh"

namespace thynvm {

/** Configuration of the journaling controller. */
struct JournalConfig
{
    /** Software-visible physical address space in bytes. */
    std::size_t phys_size = 32u << 20;
    /**
     * Soft capacity of the dirty-block table; reaching it forces an
     * epoch boundary (paper: sized as ThyNVM's BTT + PTT).
     */
    std::size_t table_entries = 2048 + 4096;
    /**
     * Extra hard headroom so the cache-flush writebacks at a boundary
     * can always be absorbed (more than the whole hierarchy's blocks).
     */
    std::size_t table_headroom = 40 * 1024;
    /** Epoch length. */
    Tick epoch_length = 10 * kMillisecond;
    /** Reserved bytes for the CPU state blob. */
    std::size_t cpu_state_max = 16384;
};

/**
 * Redo-journaling hybrid persistent-memory controller.
 */
class JournalController : public EpochController
{
  public:
    JournalController(EventQueue& eq, std::string name,
                      const JournalConfig& cfg,
                      std::shared_ptr<BackingStore> nvm_store = nullptr);

    /**
     * NVM bytes a controller with this config occupies (home + journal
     * + headers + CPU areas). The channel group sizes per-channel
     * backing-store slices with this before construction.
     */
    static std::size_t nvmCapacity(const JournalConfig& cfg);

    std::size_t physCapacity() const override { return cfg_.phys_size; }
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;

    /**
     * Never fast: reads hit NVM home or the DRAM journal buffer and
     * writes journal into DRAM, all as timed device-queue traffic; a
     * boundary may also stall the access entirely.
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

    /** DRAM device (journal buffer). */
    MemDevice& dram() { return dram_dev_; }
    /** NVM device (home + journal + headers). */
    MemDevice& nvm() { return nvm_dev_; }
    MemDevice* nvmDevice() override { return &nvm_dev_; }
    MemDevice* dramDevice() override { return &dram_dev_; }
    std::shared_ptr<BackingStore> nvmStoreHandle() override
    {
        return nvm_dev_.storeHandle();
    }
    /** Live entries in the dirty-block table. */
    std::size_t tableLive() const { return table_.size(); }

  protected:
    void doCheckpoint(std::function<void()> done) override;
    const CommitRecord& commitRecord() const override { return commit_; }
    void rebuild(const std::optional<CommitRecord::Committed>& committed,
                 RecoveryJoin& join) override;

  private:
    std::size_t hardCapacity() const
    {
        return cfg_.table_entries + cfg_.table_headroom;
    }
    Addr dramSlotAddr(std::size_t slot) const { return slot * kBlockSize; }
    Addr journalDataAddr(std::size_t i) const;
    Addr journalMetaAddr() const;
    Addr headerAddr() const;
    Addr appliedAddr() const;
    /**
     * CPU-state area of epoch parity @p k. Double-buffered: the next
     * checkpoint's phase-1 writes must not clobber the state the
     * still-committed header points at (a crash between those writes
     * becoming durable and the new header landing would otherwise
     * recover old data with new CPU state).
     */
    Addr cpuAddr(unsigned k) const;

    JournalConfig cfg_;
    MemDevice dram_dev_;
    MemDevice nvm_dev_;
    DevicePort dram_port_;
    DevicePort nvm_port_;
    /** One header slot, rewritten in place; aux = journal entries. */
    CommitRecord commit_;

    /** physical block address -> DRAM buffer slot. */
    std::unordered_map<Addr, std::size_t> table_;
    std::size_t next_slot_ = 0;

    stats::Scalar journaled_blocks_;
    stats::Scalar applied_blocks_;
    stats::Scalar replayed_blocks_;
    stats::Scalar overflow_epochs_;
};

} // namespace thynvm

#endif // THYNVM_BASELINES_JOURNAL_HH
