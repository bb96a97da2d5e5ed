/**
 * @file
 * Incremental-checkpoint controller (libcrpm-style dirty-range
 * tracking over a double NVM image).
 *
 * Every physical block has two NVM copies (slot A and slot B); a
 * per-block slot bitmap says which copy the committed image uses. Dirty
 * blocks coalesce in a DRAM buffer during the epoch; the checkpoint
 * stages each one into its block's *non*-committed slot, rewrites only
 * the bitmap blocks whose bits changed in the last two epochs (the
 * bitmap itself is double-buffered by epoch parity), and commits with a
 * parity-addressed header. Nothing is ever copied at commit time — only
 * touched extents are written, so write amplification stays near 1 —
 * and recovery is metadata-only: rebuild the slot bitmap from the
 * committed parity area and resume.
 */

#ifndef THYNVM_BASELINES_INCREMENTAL_HH
#define THYNVM_BASELINES_INCREMENTAL_HH

#include <set>
#include <unordered_map>

#include "mem/epoch_controller.hh"
#include "mem/port.hh"

namespace thynvm {

/** Configuration of the incremental-checkpoint controller. */
struct IncrementalConfig
{
    /** Software-visible physical address space in bytes. */
    std::size_t phys_size = 32u << 20;
    /**
     * Soft capacity of the dirty-block table; reaching it forces an
     * epoch boundary (sized as ThyNVM's BTT + PTT, like the journal).
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
 * Incremental (touched-extent) checkpointing hybrid controller.
 */
class IncrementalController : public EpochController
{
  public:
    IncrementalController(EventQueue& eq, std::string name,
                          const IncrementalConfig& cfg,
                          std::shared_ptr<BackingStore> nvm_store =
                              nullptr);

    /**
     * NVM bytes a controller with this config occupies (two image
     * slots + two bitmap areas + headers + CPU areas). The channel
     * group sizes per-channel backing-store slices with this before
     * construction.
     */
    static std::size_t nvmCapacity(const IncrementalConfig& cfg);

    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;
    void forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override;
    void loadImage(Addr paddr, const void* buf, std::size_t len) override;
    void crash() override;

    /** NVM device (double image + bitmaps + headers). */
    MemDevice* nvmDevice() override { return &nvm_dev_; }
    /** DRAM device (dirty-block buffer). */
    MemDevice* dramDevice() override { return &dram_dev_; }
    /** Live entries in the dirty-block table. */
    std::size_t tableLive() const { return table_.size(); }

  protected:
    void readVisibleBlock(Addr block, std::uint8_t* out) const override;
    void doCheckpoint(std::function<void()> done) override;
    const CommitRecord& commitRecord() const override { return commit_; }
    void rebuild(const std::optional<CommitRecord::Committed>& committed,
                 RecoveryJoin& join) override;

  private:
    std::size_t hardCapacity() const
    {
        return cfg_.table_entries + cfg_.table_headroom;
    }
    std::size_t numBlocks() const { return cfg_.phys_size / kBlockSize; }
    /** Bytes of one slot bitmap, rounded up to whole blocks. */
    std::size_t bitmapArea() const
    {
        return roundUp((numBlocks() + 7) / 8, kBlockSize);
    }
    Addr dramSlotAddr(std::size_t slot) const { return slot * kBlockSize; }
    /** NVM address of @p paddr's committed copy. */
    Addr committedAddr(Addr paddr) const
    {
        return (committed_bit_[paddr / kBlockSize] != 0 ? cfg_.phys_size
                                                        : 0) +
               paddr;
    }
    Addr bitmapAddr(unsigned k) const;
    Addr headerAddr(unsigned k) const;
    /**
     * CPU-state area of epoch parity @p k; double-buffered for the same
     * reason as the bitmap — the committing epoch's staging writes must
     * not clobber the areas the still-committed header points at.
     */
    Addr cpuAddr(unsigned k) const;

    IncrementalConfig cfg_;
    MemDevice dram_dev_;
    MemDevice nvm_dev_;
    DevicePort dram_port_;
    DevicePort nvm_port_;
    /** A parity pair of header slots. */
    CommitRecord commit_;

    /** physical block address -> DRAM buffer slot. */
    std::unordered_map<Addr, std::size_t> table_;
    std::size_t next_slot_ = 0;
    /** Per-block committed-slot bit (0 = slot A, 1 = slot B). */
    std::vector<std::uint8_t> committed_bit_;
    /**
     * Bitmap blocks (block-aligned byte offsets within a bitmap area)
     * whose bits flipped in the current / previous epoch. A parity area
     * is two epochs stale when rewritten, so the checkpoint refreshes
     * the union of both sets.
     */
    std::set<Addr> cur_changed_;
    std::set<Addr> prev_changed_;
    /** Rewrite the whole bitmap at the next checkpoint (post-recovery:
     * the non-authoritative parity area may hold partial staging). */
    bool write_all_ = false;

    stats::Scalar staged_blocks_;
    stats::Scalar bitmap_blocks_;
    stats::Scalar overflow_epochs_;
};

} // namespace thynvm

#endif // THYNVM_BASELINES_INCREMENTAL_HH
