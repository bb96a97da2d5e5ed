/**
 * @file
 * In-cache-line logging controller (Cohen et al., "Fine-Grain
 * Checkpointing with In-Cache-Line Logging").
 *
 * Every software-visible cache line owns a 256-byte NVM group holding
 * the line itself plus its undo state: [home | log | overflow | pad].
 * A store first writes an undo record into the line's log block — the
 * pre-epoch values of the words it changes, tagged with the current
 * epoch number — then updates the home block in place. Records are
 * never cleared: committing an epoch just advances the durable epoch
 * number, which invalidates every live record by tag mismatch (the
 * ICL trick), so a checkpoint writes only the CPU blob and a header.
 * Recovery undoes the records tagged with the crashed epoch.
 *
 * Up to six changed words fit inline in the log block (a "slim"
 * record); a wider update first copies the committed line into the
 * overflow block and logs a "fat" record pointing at it. The whole
 * group lives in one device row (256 divides the 8 KiB row), and the
 * write port issues in FIFO order into per-bank FIFO queues, so the
 * overflow -> log -> home enqueue order *is* the durability order —
 * undo state is always durable before the in-place update it covers,
 * with no drain barrier on the store path.
 */

#ifndef THYNVM_BASELINES_ICL_HH
#define THYNVM_BASELINES_ICL_HH

#include <unordered_map>

#include "mem/epoch_controller.hh"
#include "mem/port.hh"

namespace thynvm {

/** Configuration of the in-cache-line logging controller. */
struct IclConfig
{
    /** Software-visible physical address space in bytes. */
    std::size_t phys_size = 32u << 20;
    /** Epoch length. */
    Tick epoch_length = 10 * kMillisecond;
    /** Reserved bytes for the CPU state blob. */
    std::size_t cpu_state_max = 16384;
};

/**
 * In-cache-line logging persistent-memory controller (NVM only; the
 * log rides in each line's own NVM footprint, so there is no DRAM).
 */
class IclController : public EpochController
{
  public:
    /** Saved words a slim record holds inline. */
    static constexpr std::size_t kSlimWords = 6;
    /** Bytes of NVM footprint per software-visible line. */
    static constexpr std::size_t kGroupSize = 4 * kBlockSize;

    IclController(EventQueue& eq, std::string name, const IclConfig& cfg,
                  std::shared_ptr<BackingStore> nvm_store = nullptr);

    /**
     * NVM bytes a controller with this config occupies (per-line
     * groups + header + CPU areas). The channel group sizes
     * per-channel backing-store slices with this before construction.
     */
    static std::size_t nvmCapacity(const IclConfig& cfg);

    std::size_t physCapacity() const override { return cfg_.phys_size; }
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;

    /**
     * Never fast: every access travels the NVM device queues (reads
     * from home, writes as log+home traffic), so the issue tick is
     * timing-visible.
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

    /** NVM device (home lines + embedded logs + header + CPU areas). */
    MemDevice& nvm() { return nvm_dev_; }
    MemDevice* nvmDevice() override { return &nvm_dev_; }
    std::shared_ptr<BackingStore> nvmStoreHandle() override
    {
        return nvm_dev_.storeHandle();
    }
    /** Lines with a live (current-epoch) log record. */
    std::size_t liveLogLines() const { return live_.size(); }

  protected:
    void doCheckpoint(std::function<void()> done) override;
    const CommitRecord& commitRecord() const override { return commit_; }
    /**
     * Undo every log record tagged epoch_num_, the epoch recovery rolls
     * back (functionally via the store plus timed Recovery traffic on
     * @p join). After a header demoted by recoverTo that epoch had
     * committed on this channel, but the phase-1 barrier proves no
     * channel resumed, so none of its records was overwritten.
     * Idempotent: the records themselves are never modified, so a
     * second crash during (or right after) recovery just repeats
     * identical undo writes.
     */
    void rebuild(const std::optional<CommitRecord::Committed>& committed,
                 RecoveryJoin& join) override;

  private:
    /** Per-line volatile view of the current epoch's log record. */
    struct LiveLog
    {
        /** Saved-word mask (bits 0..7); ignored once fat. */
        std::uint16_t mask = 0;
        /** True once the committed line sits in the overflow block. */
        bool fat = false;
    };

    Addr groupBase(Addr paddr) const { return paddr * 4; }
    Addr homeAddr(Addr paddr) const { return groupBase(paddr); }
    Addr logAddr(Addr paddr) const
    {
        return groupBase(paddr) + kBlockSize;
    }
    Addr ovfAddr(Addr paddr) const
    {
        return groupBase(paddr) + 2 * kBlockSize;
    }
    Addr headerAddr() const { return cfg_.phys_size * 4; }
    Addr cpuAddr(unsigned k) const;

    IclConfig cfg_;
    MemDevice nvm_dev_;
    DevicePort nvm_port_;
    /** One header slot, rewritten in place. */
    CommitRecord commit_;

    /** Lines logged in the current epoch: paddr -> record view. */
    std::unordered_map<Addr, LiveLog> live_;

    stats::Scalar slim_logs_;
    stats::Scalar fat_logs_;
    stats::Scalar log_merges_;
    stats::Scalar undone_lines_;
};

} // namespace thynvm

#endif // THYNVM_BASELINES_ICL_HH
