/**
 * @file
 * The ThyNVM memory controller: software-transparent crash consistency
 * via dual-scheme checkpointing (paper §3-§4).
 *
 * Overview of the implemented protocol (see DESIGN.md §3):
 *  - Epochs end on a timer or on table overflow (the epoch loop is
 *    EpochController's). The next epoch opens at the end of the
 *    volatile-state flush, and the CPU resumes there: execution of the
 *    next epoch overlaps the checkpoint phase (Figure 3b), except in
 *    stop-the-world mode, where the CPU resumes at the commit.
 *  - Sparse updates use block remapping: the working copy is written
 *    directly to the NVM checkpoint region opposite the committed copy,
 *    so checkpointing them persists metadata only. When both NVM slots
 *    are protected (a checkpoint is in flight for the entry), writes are
 *    staged in the DRAM block buffer and drained at the next checkpoint.
 *  - Dense updates use page writeback: pages are cached in the DRAM
 *    working region and dirty pages are DMA-copied to the alternate NVM
 *    page slot during checkpointing. Stores hitting a page whose DMA is
 *    in flight are diverted to BTT overlay entries (§3.4 cooperation)
 *    and merged back once the page copy completes.
 *  - Scheme switching is decided at epoch boundaries from per-epoch
 *    store counters with the paper's thresholds (22 up / 16 down).
 *  - A checkpoint commits by persisting the tables and CPU state into
 *    one of two backup slots and then, after the NVM write queue fully
 *    drains, writing a header block that atomically designates the new
 *    recovery image.
 *
 * Central safety invariant: no write ever targets an NVM location that
 * the latest durable metadata designates as part of the recovery image.
 */

#ifndef THYNVM_CORE_THYNVM_CONTROLLER_HH
#define THYNVM_CORE_THYNVM_CONTROLLER_HH

#include <deque>
#include <optional>

#include "core/config.hh"
#include "core/tables.hh"
#include "mem/epoch_controller.hh"
#include "mem/port.hh"

namespace thynvm {

/**
 * Hybrid DRAM+NVM persistent-memory controller with transparent
 * checkpointing.
 */
class ThyNvmController : public EpochController
{
  public:
    /**
     * @param eq event queue.
     * @param name instance name.
     * @param cfg controller configuration.
     * @param nvm_store optional surviving NVM contents (crash recovery
     *        reconstructs a controller around the old store).
     */
    ThyNvmController(EventQueue& eq, std::string name,
                     const ThyNvmConfig& cfg,
                     std::shared_ptr<BackingStore> nvm_store = nullptr);

    // MemController interface.
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;
    void forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override;
    void loadImage(Addr paddr, const void* buf, std::size_t len) override;
    void crash() override;

    /** NVM device (home, checkpoint regions, backup region). */
    MemDevice* nvmDevice() override { return &nvm_dev_; }
    /** DRAM device (working data region + block buffer). */
    MemDevice* dramDevice() override { return &dram_dev_; }

    /** Controller configuration. */
    const ThyNvmConfig& config() const { return cfg_; }
    /** Address-space layout calculator. */
    const AddressLayout& layout() const { return layout_; }
    /** Live BTT entries. */
    std::size_t bttLive() const { return btt_.live(); }
    /** Live PTT entries. */
    std::size_t pttLive() const { return ptt_.live(); }

  protected:
    void readVisibleBlock(Addr block, std::uint8_t* out) const override;
    const CommitRecord& commitRecord() const override { return commit_; }
    /** Reload the tables, page images and overflow buffer. */
    void rebuild(const std::optional<CommitRecord::Committed>& committed,
                 RecoveryJoin& join) override;
    /** Scheme-switch decisions from the closing epoch's store counts. */
    void closeEpoch() override;
    /** Steps 1-5 of the checkpoint phase (paper Figure 6b). */
    void doCheckpoint(std::function<void()> done) override;

  private:
    // ------------------------------------------------------------------
    // Load/store paths.
    // ------------------------------------------------------------------
    void handleStore(Addr block_paddr, const std::uint8_t* wdata,
                     std::function<void()> done);
    void handleLoad(Addr block_paddr, std::uint8_t* rdata,
                    std::function<void()> done);
    /** Store into a PTT-managed page's DRAM working copy. */
    void storeToPage(std::size_t pidx, Addr block_paddr,
                     const std::uint8_t* wdata, std::function<void()> done);
    /**
     * Store via the BTT (block remapping). @p overlay diverts the store
     * to the DRAM block buffer on behalf of a checkpointing page.
     */
    void storeToBlock(Addr block_paddr, const std::uint8_t* wdata,
                      bool overlay, std::function<void()> done);
    /**
     * Stage a store in the DRAM overflow buffer when neither table can
     * track its block. Overflow blocks are checkpointed journal-style
     * into the backup slot and drained into the BTT as entries free up.
     */
    void overflowStore(Addr block_paddr, const std::uint8_t* wdata,
                       std::function<void()> done);
    /**
     * Retire overflow blocks that appear in the last *committed*
     * overflow log by writing their data to the Home region. Safe
     * before this checkpoint commits: recovery would use the old log
     * copy, which overrides Home. Bounds the buffer at roughly one
     * epoch's sparse write footprint.
     */
    void retireOverflowEntries();
    /** Capture and stage this checkpoint's overflow log. */
    void stageOverflowLog();

    /** Resolved location of the software-visible copy of a block. */
    struct VisibleLoc
    {
        bool in_dram;
        Addr addr;
    };
    VisibleLoc visibleLoc(Addr block_paddr) const;

    /** Wrap a completion callback with the table lookup latency. */
    std::function<void()> afterLookup(std::function<void()> done);

    // ------------------------------------------------------------------
    // Checkpoint machinery.
    // ------------------------------------------------------------------
    /**
     * Backup slot of the checkpoint in flight. The next epoch opens at
     * the end of the flush, so the captured epoch is epoch_num_ - 1 and
     * it writes slot epoch_num_ & 1.
     */
    unsigned ckptParity() const { return epoch_num_ & 1; }
    void promotePage(Addr page_paddr);
    void markDemotions();
    /** Step 1: drain DRAM-buffered block working copies into NVM. */
    void drainBlockBuffers();
    /** Mark idle entries for reclamation; stage A-to-Home migrations. */
    void reclaimIdleBttEntries();
    /** Step 2: persist the BTT into the open backup slot. */
    void persistBtt();
    /** Step 3: DMA dirty pages from DRAM to their NVM slots. */
    void startPageWritebacks();
    void pumpPageWriteback();
    void pageBlockReadDone(std::size_t pidx, Addr page_paddr,
                           std::size_t blk);
    void finishPageWriteback(std::size_t pidx);
    /** Stage demotion copies (Region A to Home) for demoting pages. */
    void stageDemotionCopies();
    /** Step 4: persist the PTT and the CPU state blob. */
    void persistPttAndCpu();
    /** Step 5: after full NVM drain, write the atomic commit header. */
    void writeBackupHeader();
    void commitCheckpoint();
    /** Merge overlay entries of @p page_paddr back into the DRAM page. */
    void mergeOverlays(std::size_t pidx, Addr page_paddr);

    /**
     * Bring the persistent full-capacity table images up to date and
     * return them. Slots released since the last call are re-invalidated
     * and every live entry's record is recomputed (a record can change
     * without its entry changing — an absorbed block's record depends on
     * the owning page's state), so each call costs O(live + released)
     * instead of O(capacity). The returned image is byte-identical to a
     * full serialization.
     */
    const std::vector<std::uint8_t>& bttImage();
    const std::vector<std::uint8_t>& pttImage();
    /** Reset @p image to all-invalid records for @p capacity slots. */
    static void resetImage(std::vector<std::uint8_t>& image,
                           std::size_t capacity);
    /** Release a table entry, recording the slot for re-invalidation. */
    void releaseBtt(std::size_t idx);
    void releasePtt(std::size_t idx);
    /** Stage @p bytes as block writes at @p nvm_addr (Checkpoint). */
    void stageMetadataWrite(Addr nvm_addr,
                            const std::vector<std::uint8_t>& bytes);

    // Convenience wrappers for staged device traffic.
    void sendNvmWrite(Addr addr, const std::uint8_t* data,
                      TrafficSource src,
                      std::function<void()> on_complete = {});
    void sendDramWrite(Addr addr, const std::uint8_t* data,
                       TrafficSource src,
                       std::function<void()> on_complete = {});
    void sendTimedRead(bool dram, Addr addr, TrafficSource src,
                       std::function<void()> on_complete = {});

    // ------------------------------------------------------------------
    // Members.
    // ------------------------------------------------------------------
    ThyNvmConfig cfg_;
    AddressLayout layout_;
    MemDevice dram_dev_;
    MemDevice nvm_dev_;
    DevicePort dram_port_;
    DevicePort nvm_port_;
    /** Backup-slot headers: a parity pair indexed by ckptParity();
     *  aux = logged overflow slots. */
    CommitRecord commit_;
    Btt btt_;
    Ptt ptt_;

    /** Persistent serialized table images (see bttImage()/pttImage()). */
    std::vector<std::uint8_t> btt_image_;
    std::vector<std::uint8_t> ptt_image_;
    /** Slots released since the image was last brought up to date. */
    std::vector<std::size_t> btt_released_;
    std::vector<std::size_t> ptt_released_;

    /** Per-epoch BTT-path store counts aggregated by page. */
    std::unordered_map<Addr, std::uint32_t> page_store_agg_;

    /** The epoch loop's continuation of the checkpoint in flight. */
    std::function<void()> ckpt_done_;

    // Page writeback engine state.
    std::deque<std::size_t> wb_queue_;
    unsigned wb_active_pages_ = 0;
    std::unordered_map<std::size_t, unsigned> wb_reads_left_;

    /** Overflow buffer: block physical address -> DRAM slot index. */
    std::unordered_map<Addr, std::size_t> overflow_map_;
    std::vector<std::size_t> overflow_free_;
    /** Reverse mapping, slot index -> block physical address. */
    std::vector<Addr> overflow_slot_addr_;
    /**
     * Incremental logging state: per backup area, whether a slot's
     * data changed since it was last logged into that area. Avoids
     * rewriting unchanged overflow entries every checkpoint.
     */
    std::vector<std::uint8_t> overflow_dirty_[2];
    /** Slots that are members of the last committed overflow log. */
    std::vector<std::uint8_t> overflow_in_last_log_;
    /** Live entries at the time of the current staged log. */
    std::uint64_t overflow_logged_ = 0;

    // Statistics.
    stats::Scalar loads_;
    stats::Scalar stores_;
    stats::Scalar remap_nvm_writes_;
    stats::Scalar buffered_block_writes_;
    stats::Scalar page_stores_;
    stats::Scalar diverted_stores_;
    stats::Scalar overlay_merges_;
    stats::Scalar drained_blocks_;
    stats::Scalar metadata_ckpt_bytes_;
    stats::Scalar pages_written_back_;
    stats::Scalar promotions_;
    stats::Scalar demotions_;
    stats::Scalar home_migrations_;
    stats::Scalar overflow_epochs_;
    stats::Scalar overflow_blocks_;
    stats::Scalar stalled_store_count_;
    stats::Scalar flush_stall_time_;
};

} // namespace thynvm

#endif // THYNVM_CORE_THYNVM_CONTROLLER_HH
