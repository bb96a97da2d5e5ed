/**
 * @file
 * Abstract interface of a persistent-memory controller.
 *
 * The cache hierarchy talks to a MemController at block granularity. Each
 * concrete controller (ThyNVM, journaling, shadow paging, ideal DRAM/NVM)
 * implements address translation, crash-consistency machinery, and
 * recovery behind this interface, so systems are interchangeable in the
 * harness and benchmarks.
 */

#ifndef THYNVM_MEM_CONTROLLER_HH
#define THYNVM_MEM_CONTROLLER_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "fuzz/crash_points.hh"
#include "mem/block_accessor.hh"
#include "mem/device.hh"
#include "mem/request.hh"
#include "sim/sim_object.hh"

namespace thynvm {

/**
 * Base class for all evaluated memory controllers.
 */
class MemController : public SimObject, public BlockAccessor
{
  public:
    /** Callback fired when an access completes. */
    using AccessCallback = std::function<void()>;
    /**
     * A flush client drains volatile CPU state (registers, store buffer,
     * dirty cache blocks) into the controller, then invokes the given
     * continuation. Registered by the System during wiring.
     */
    using FlushClient = std::function<void(std::function<void()>)>;

    MemController(EventQueue& eq, std::string name)
        : SimObject(eq, std::move(name))
    {
        stats().addScalar("epochs", &epochs_, "completed epochs");
        stats().addScalar("ckpt_stall_time", &ckpt_stall_time_,
                          "ticks execution was blocked by checkpointing");
        stats().addScalar("ckpt_busy_time", &ckpt_busy_time_,
                          "ticks a checkpoint phase was in progress");
        stats().addScalar("recoveries", &recoveries_,
                          "successful crash recoveries");
        stats().addScalar("app_write_bytes", &app_write_bytes_,
                          "application write bytes arriving at the "
                          "controller (cache writebacks, replays "
                          "excluded)");
        stats().addFormula(
            "write_amplification",
            [this] {
                const std::uint64_t media = mediaWriteBytes();
                const std::uint64_t app = appWriteBytes();
                return app > 0 ? static_cast<double>(media) /
                                     static_cast<double>(app)
                               : 0.0;
            },
            "media write bytes / application write bytes, cumulative");
        stats().addHistogram("epoch_wamp", &epoch_wamp_,
                             "per-epoch write amplification (media "
                             "delta / app delta at each commit)");
    }

    /** Size of the software-visible physical address space in bytes. */
    virtual std::size_t physCapacity() const = 0;

    /**
     * Timed block access from the cache hierarchy.
     *
     * Functional/timing split: for reads, @p rdata is filled with the
     * software-visible data synchronously at call time; @p done fires
     * when the *timed* access completes. For writes, @p wdata is
     * consumed (applied functionally) at call time and @p done fires at
     * posted-write acknowledgment.
     *
     * @param paddr block-aligned physical address.
     * @param is_write true for a dirty-block writeback, false for a fill.
     * @param wdata kBlockSize bytes of write data (writes only).
     * @param rdata kBlockSize byte buffer, filled at call time (reads).
     * @param source attribution for traffic statistics.
     * @param done completion callback as described above.
     */
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override = 0;

    /**
     * Persist a CPU architectural-state blob as part of the running
     * checkpoint (called by the flush client). Controllers without
     * checkpointing may ignore it.
     */
    virtual void persistCpuState(const std::vector<std::uint8_t>& blob)
    {
        (void)blob;
    }

    /** CPU state recovered by the last successful recover() call. */
    virtual const std::vector<std::uint8_t>&
    recoveredCpuState() const
    {
        static const std::vector<std::uint8_t> empty;
        return empty;
    }

    /**
     * Read the current software-visible version of memory with no timing
     * effect. Used by tests, the consistency checker, and examples.
     */
    virtual void functionalRead(Addr paddr, void* buf,
                                std::size_t len) const = 0;

    /** BlockAccessor functional read, resolved via functionalRead(). */
    void
    functionalReadBlock(Addr paddr, std::uint8_t* buf) override
    {
        functionalRead(paddr, buf, kBlockSize);
    }

    /**
     * Install initial memory contents before simulation starts (e.g.,
     * the workload's heap image). Writes bypass timing and land in the
     * durable home location.
     */
    virtual void loadImage(Addr paddr, const void* buf,
                           std::size_t len) = 0;

    /**
     * Enumerate physical-address ranges that may hold nonzero data, as
     * fn(paddr, len). Contract: any physical byte NOT covered by a
     * reported range reads zero via functionalRead(). Ranges may
     * overlap, repeat, and be reported in any order — callers dedup
     * (e.g. into a page bitmap). Concrete controllers override this
     * with the union of their touched backing-store pages, staged port
     * writes, and live remap-table entries, making whole-image capture
     * and mirror rebuilds O(touched) instead of O(capacity); the
     * default conservatively reports the entire space.
     */
    virtual void
    forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const
    {
        fn(0, physCapacity());
    }

    /** Begin operation (arm epoch timers, etc.). */
    virtual void start() {}

    /**
     * Power loss: discard all volatile state (translation tables, DRAM
     * contents, staged requests); unserviced NVM writes are rolled back
     * by the devices. The event queue is cleared by the harness.
     */
    virtual void crash() = 0;

    /**
     * Rebuild a consistent software-visible memory image from durable
     * NVM state after crash(). Timed recovery traffic is modeled.
     * @param done fires when the system is ready to resume execution.
     */
    virtual void recover(std::function<void()> done) = 0;

    /**
     * Like recover(), but restore the newest durable checkpoint whose
     * epoch number is <= @p max_epoch. A multi-channel machine recovers
     * every channel to the *minimum* epoch committed across channels so
     * the assembled image is one consistent cut; the two-phase commit
     * barrier bounds the spread to one epoch, and nothing a channel
     * writes before the second barrier destroys the previous epoch's
     * image, so the older checkpoint is always intact. @p max_epoch 0
     * recovers the pristine (pre-first-commit) state. Controllers
     * without epochs fall back to recover().
     */
    virtual void
    recoverTo(std::uint64_t max_epoch, std::function<void()> done)
    {
        (void)max_epoch;
        recover(std::move(done));
    }

    /**
     * Epoch number of the newest durably committed checkpoint, read
     * from the surviving NVM image with no timing effect (valid after
     * crash(), before recovery). 0 = nothing committed yet. The
     * channel-group coordinator probes every channel and takes the
     * minimum as the recovery target.
     */
    virtual std::uint64_t committedEpoch() const { return 0; }

    /**
     * Force an epoch boundary at the next safe point (no-op for
     * non-checkpointing controllers). The channel-group coordinator
     * uses this as the ccnvme-style epoch-advance nudge so every
     * channel joins the same numbered boundary.
     */
    virtual void requestEpochEnd() {}

    /**
     * Stop initiating new epoch boundaries (a finished workload is
     * being drained). An in-flight checkpoint still completes; only
     * timer re-arming is suppressed, so a halted channel's event queue
     * drains to empty.
     */
    virtual void halt() {}

    /** Register the CPU-side flush client used during checkpointing. */
    void setFlushClient(FlushClient client) { flush_ = std::move(client); }

    /**
     * A commit gate interposes on the two durability edges of a
     * checkpoint commit: phase 0 fires when the checkpoint image is
     * staged and durable (before the commit header is written), phase 1
     * when the header is durable (before the commit point is flipped /
     * applied destructively). The gate must eventually invoke the
     * resume continuation; the default (no gate) resumes inline, which
     * is byte-for-byte the single-channel pipeline. The channel-group
     * coordinator registers a gate that turns both edges into
     * cross-channel barriers.
     */
    using CommitGateFn =
        std::function<void(unsigned phase, std::function<void()> resume)>;
    void setCommitGate(CommitGateFn gate) { commit_gate_ = std::move(gate); }

    /**
     * Attach a crash-point registry; every controller announces its
     * checkpoint-pipeline steps to it via crashPoint(). Detached (the
     * default) the instrumentation is a single null check. Virtual so
     * composite controllers (the channel group) can propagate the
     * registry to their nested per-channel controllers.
     */
    virtual void setCrashPoints(CrashPointRegistry* reg)
    {
        crash_points_ = reg;
    }
    /** The attached registry, if any. */
    CrashPointRegistry* crashPoints() const { return crash_points_; }

    /**
     * Prefix every crash-site name this controller announces (e.g.
     * "ch2."). Per-channel prefixes give each channel of a
     * multi-channel group its own sites and hit ordinals.
     */
    void setCrashSitePrefix(std::string prefix)
    {
        site_prefix_ = std::move(prefix);
    }

    /** NVM device, if this controller has one (for traffic metrics). */
    virtual MemDevice* nvmDevice() { return nullptr; }
    /** DRAM device, if this controller has one. */
    virtual MemDevice* dramDevice() { return nullptr; }
    /** Handle to the NVM contents that survive a crash (may be null). */
    virtual std::shared_ptr<BackingStore> nvmStoreHandle()
    {
        return nullptr;
    }

    /**
     * Dump stats of any nested components this controller owns beyond
     * its own devices (the channel group dumps every channel's
     * controller and devices here). Default: nothing.
     */
    virtual void dumpExtraStats(std::ostream& os) { (void)os; }

    /**
     * Traffic roll-ups for RunMetrics. The defaults read this
     * controller's own devices; the channel group overrides them to
     * sum across channels (its own nvmDevice()/dramDevice() are null).
     */
    virtual std::uint64_t
    nvmWriteBytes(TrafficSource source)
    {
        MemDevice* d = nvmDevice();
        return d != nullptr ? d->writeBytes(source) : 0;
    }
    virtual std::uint64_t
    nvmTotalWriteBytes()
    {
        MemDevice* d = nvmDevice();
        return d != nullptr ? d->totalWriteBytes() : 0;
    }
    virtual std::uint64_t
    dramTotalWriteBytes()
    {
        MemDevice* d = dramDevice();
        return d != nullptr ? d->totalWriteBytes() : 0;
    }

    /**
     * Application write bytes that have arrived at this controller:
     * every accessBlock() write from the hierarchy, excluding internal
     * replays of stalled accesses (which would double-count the same
     * program store). The denominator of write amplification.
     */
    std::uint64_t
    appWriteBytes() const
    {
        return static_cast<std::uint64_t>(app_write_bytes_.value());
    }

    /**
     * Media write bytes — the numerator of write amplification. NVM
     * writes when this system has an NVM device; Ideal DRAM (no NVM at
     * all) falls back to its DRAM device so its amplification is still
     * defined (and exactly 1.0: no consistency machinery).
     */
    std::uint64_t
    mediaWriteBytes()
    {
        const std::uint64_t nvm = nvmTotalWriteBytes();
        return nvm != 0 ? nvm : dramTotalWriteBytes();
    }

    /** Ticks execution was blocked due to checkpointing. */
    Tick
    checkpointStallTime() const
    {
        return static_cast<Tick>(ckpt_stall_time_.value());
    }

    /** Number of completed epochs. */
    std::uint64_t
    completedEpochs() const
    {
        return static_cast<std::uint64_t>(epochs_.value());
    }

  protected:
    /** Announce a named checkpoint-pipeline step to the registry. */
    void
    crashPoint(const char* site)
    {
        if (crash_points_ == nullptr)
            return;
        if (site_prefix_.empty())
            crash_points_->hit(site, curTick());
        else
            crash_points_->hit((site_prefix_ + site).c_str(), curTick());
    }

    /**
     * Pass a commit-durability edge through the registered gate (or
     * straight through when none is registered — the single-channel
     * pipeline, unchanged).
     */
    void
    commitGate(unsigned phase, std::function<void()> resume)
    {
        if (commit_gate_)
            commit_gate_(phase, std::move(resume));
        else
            resume();
    }

    /**
     * Count one application write block. Every concrete controller
     * calls this at the top of its accessBlock() write path; suppressed
     * while a stalled-access replay is in flight (the original arrival
     * already counted).
     */
    void
    noteAppWrite()
    {
        if (!replaying_app_)
            app_write_bytes_ += static_cast<double>(kBlockSize);
    }

    /**
     * Sample the per-epoch write-amplification histogram; called right
     * after each ++epochs_ on the controller's own queue. Epochs with
     * no application writes are skipped (an empty epoch's fixed
     * metadata cost would make the ratio meaningless).
     */
    void
    noteEpochCommitted()
    {
        const std::uint64_t media = mediaWriteBytes();
        const std::uint64_t app = appWriteBytes();
        if (app > last_epoch_app_ && media >= last_epoch_media_) {
            epoch_wamp_.sample(
                static_cast<double>(media - last_epoch_media_) /
                static_cast<double>(app - last_epoch_app_));
        }
        last_epoch_media_ = media;
        last_epoch_app_ = app;
    }

    FlushClient flush_;
    CommitGateFn commit_gate_;
    std::string site_prefix_;
    CrashPointRegistry* crash_points_ = nullptr;
    stats::Scalar epochs_;
    stats::Scalar ckpt_stall_time_;
    stats::Scalar ckpt_busy_time_;
    stats::Scalar recoveries_;
    stats::Scalar app_write_bytes_;
    stats::Histogram epoch_wamp_{16, 64.0};
    /** True while EpochController::replayStalled re-issues accesses. */
    bool replaying_app_ = false;
    std::uint64_t last_epoch_media_ = 0;
    std::uint64_t last_epoch_app_ = 0;
};

} // namespace thynvm

#endif // THYNVM_MEM_CONTROLLER_HH
