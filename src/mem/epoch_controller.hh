/**
 * @file
 * The epoch loop of every checkpointing controller: ThyNVM (paper
 * §3-§4) and the journaling, shadow-paging (§5.1), in-cache-line
 * logging and incremental checkpointing baselines.
 *
 * An epoch boundary runs in two phases (Figure 3). The flush phase
 * pauses the CPU and drains its volatile state into the controller;
 * the checkpoint phase makes the closed epoch durable and ends with the
 * shared commit record (mem/commit_record.hh). Each controller fixes
 * two points at construction: where the next epoch opens (its number
 * advances and the epoch timer re-arms) and where the paused CPU
 * resumes, each either at the end of the flush or at the commit. The
 * baselines do both at the commit (the stop-the-world model, 3a);
 * ThyNVM opens the next epoch at the end of the flush and resumes the
 * CPU there too (the overlapped model, 3b), or at the commit in its
 * stop-the-world mode. A backend supplies its commit record and its
 * data phases; recovery runs through the record here.
 */

#ifndef THYNVM_MEM_EPOCH_CONTROLLER_HH
#define THYNVM_MEM_EPOCH_CONTROLLER_HH

#include <cstring>
#include <deque>
#include <limits>

#include "mem/commit_record.hh"
#include "mem/controller.hh"

namespace thynvm {

/**
 * Base class implementing the epoch loop: timer, boundary requests,
 * the flush and checkpoint phases, stall accounting, accesses stalled
 * until the commit, crash reset and recovery.
 */
class EpochController : public MemController
{
  public:
    /** A point of the boundary: the end of the flush, or the commit. */
    enum class At
    {
        FlushDone,
        Commit,
    };

    /**
     * @param opens where the next epoch opens.
     * @param resumes where the paused CPU resumes.
     */
    EpochController(EventQueue& eq, std::string name, Tick epoch_length,
                    At opens, At resumes)
        : MemController(eq, std::move(name)),
          epoch_length_(epoch_length),
          opens_(opens),
          resumes_(resumes),
          epoch_timer_([this] { requestEpochEnd(); }),
          boundary_event_([this] { tryBeginBoundary(); })
    {}

    void
    start() override
    {
        panic_if(started_, "controller started twice");
        started_ = true;
        armTimer();
    }

    /** Register the callback that resumes the paused CPU. */
    void setResumeClient(std::function<void()> cb)
    {
        resume_client_ = std::move(cb);
    }

    /**
     * Request an early epoch boundary (on table overflow, or through
     * the explicit persistence interface, paper §6).
     */
    void
    requestEpochEnd() override
    {
        if (!started_ || halted_)
            return;
        boundary_requested_ = true;
        // Defer: the request may originate mid-way through an access
        // path; the boundary must only begin between accesses. A
        // pending attempt is necessarily at this tick and covers us.
        if (!boundary_event_.scheduled())
            eventq_.schedule(boundary_event_, curTick());
    }

    /**
     * Stop initiating boundaries: cancel the epoch timer and refuse
     * future requests. A boundary under way completes normally (its
     * events are already scheduled), after which nothing re-arms, so
     * the queue drains once a multi-channel workload has finished.
     */
    void
    halt() override
    {
        halted_ = true;
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        if (!boundaryInProgress())
            boundary_requested_ = false;
    }

    /** True in the checkpoint phase: from the end of the flush to the
     *  commit. */
    bool checkpointInProgress() const { return checkpointing_; }

    /**
     * The open epoch. A boundary captures it, and it stays current
     * until the next epoch opens (at the end of the flush or at the
     * commit).
     */
    std::uint64_t currentEpoch() const { return epoch_num_; }

    void
    persistCpuState(const std::vector<std::uint8_t>& blob) override
    {
        fatal_if(blob.size() > commitRecord().cpuMax(),
                 "CPU state blob exceeds reserved backup space");
        cpu_state_ = blob;
    }

    const std::vector<std::uint8_t>&
    recoveredCpuState() const override
    {
        return recovered_cpu_state_;
    }

    void
    recover(std::function<void()> done) final
    {
        recoverTo(std::numeric_limits<std::uint64_t>::max(),
                  std::move(done));
    }

    void
    recoverTo(std::uint64_t max_epoch, std::function<void()> done) final
    {
        RecoveryJoin join(recoveries_, std::move(done));
        const std::optional<CommitRecord::Committed> committed =
            commitRecord().recoverTo(max_epoch, join,
                                     recovered_cpu_state_);
        epoch_num_ = committed ? committed->hdr.epoch + 1 : 1;
        rebuild(committed, join);
        eventq_.scheduleIn(0, join.arrive());
    }

    std::uint64_t
    committedEpoch() const final
    {
        return commitRecord().committedEpoch();
    }

  protected:
    /** The backend's commit record. */
    virtual const CommitRecord& commitRecord() const = 0;

    /**
     * Subclass hook: rebuild volatile state from the durable image of
     * @p committed (none: nothing ever committed), tracking timed
     * recovery traffic with @p join. The CPU state and epoch_num_ are
     * already restored.
     */
    virtual void
    rebuild(const std::optional<CommitRecord::Committed>& committed,
            RecoveryJoin& join) = 0;

    /**
     * Subclass hook at the end of the flush, before the next epoch
     * opens or the CPU resumes there: act on what the closing epoch
     * observed (ThyNVM's scheme switches).
     */
    virtual void closeEpoch() {}

    /**
     * Subclass hook: run the checkpoint phase (all data durable, a
     * commit point written), then invoke @p done.
     */
    virtual void doCheckpoint(std::function<void()> done) = 0;

    /** Stage the CPU state into the CPU area of @p epoch's parity. */
    void
    stageCpuState(std::uint64_t epoch)
    {
        commitRecord().stageCpuState(epoch & 1, cpu_state_);
    }

    /** Write the commit header of @p epoch. */
    void
    writeCommitHeader(std::uint64_t epoch, std::uint64_t aux = 0)
    {
        commitRecord().writeHeader(epoch & 1, epoch, cpu_state_.size(),
                                   aux);
    }

    /** True from the boundary's begin to its commit (either phase). */
    bool boundaryInProgress() const { return flushing_ || checkpointing_; }

    /**
     * Stall an access until the running checkpoint commits; the access
     * is replayed through accessBlock afterwards.
     */
    void
    stallAccess(Addr paddr, bool is_write, const std::uint8_t* wdata,
                std::function<void()> done)
    {
        Stalled s;
        s.paddr = paddr;
        s.is_write = is_write;
        if (is_write)
            std::memcpy(s.data.data(), wdata, kBlockSize);
        s.done = std::move(done);
        s.stalled_at = curTick();
        stalled_.push_back(std::move(s));
    }

    /** Reset the epoch machinery after a crash. */
    void
    resetEpochState()
    {
        started_ = false;
        halted_ = false;
        flushing_ = false;
        checkpointing_ = false;
        boundary_requested_ = false;
        stalled_.clear();
        cpu_state_.clear();
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        if (boundary_event_.scheduled())
            eventq_.deschedule(boundary_event_);
    }

    /** The open epoch (currentEpoch()). */
    std::uint64_t epoch_num_ = 1;
    /** A boundary was requested and has not begun yet. */
    bool boundary_requested_ = false;
    /** The flush phase: from boundary.begin to epoch.flush_done. */
    bool flushing_ = false;
    /** Tick of the running boundary's begin. */
    Tick boundary_start_ = 0;
    std::vector<std::uint8_t> cpu_state_;

  private:
    void
    armTimer()
    {
        if (halted_)
            return;
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        eventq_.schedule(epoch_timer_, curTick() + epoch_length_);
    }

    void
    tryBeginBoundary()
    {
        if (!started_ || !boundary_requested_ || boundaryInProgress())
            return;
        boundary_requested_ = false;
        flushing_ = true;
        crashPoint("boundary.begin");
        boundary_start_ = curTick();
        busy_start_ = boundary_start_;
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        if (flush_)
            flush_([this] { flushDone(); });
        else
            flushDone();
    }

    void
    flushDone()
    {
        crashPoint("epoch.flush_done");
        flushing_ = false;
        checkpointing_ = true;
        closeEpoch();
        if (opens_ == At::FlushDone) {
            // The checkpoint now runs beside the next epoch; its busy
            // window starts here.
            busy_start_ = curTick();
            openEpoch();
        }
        // Resume before the checkpoint sends anything: events that land
        // on one tick run in the order they were scheduled.
        if (resumes_ == At::FlushDone)
            resumeCpu();
        doCheckpoint([this] { checkpointDone(); });
    }

    void
    checkpointDone()
    {
        crashPoint("ckpt.committed");
        ++epochs_;
        noteEpochCommitted();
        ckpt_busy_time_ += static_cast<double>(curTick() - busy_start_);
        checkpointing_ = false;
        if (resumes_ == At::Commit)
            resumeCpu();
        if (opens_ == At::Commit)
            openEpoch();
        replayStalled();
        tryBeginBoundary();
    }

    void
    openEpoch()
    {
        ++epoch_num_;
        armTimer();
    }

    /** Resume the CPU; its whole pause since the boundary's begin was
     *  checkpoint stall. */
    void
    resumeCpu()
    {
        ckpt_stall_time_ +=
            static_cast<double>(curTick() - boundary_start_);
        if (resume_client_)
            resume_client_();
    }

    void
    replayStalled()
    {
        auto stalled = std::move(stalled_);
        stalled_.clear();
        // Replays re-enter accessBlock but are the same program stores
        // that already counted toward app_write_bytes on first arrival.
        replaying_app_ = true;
        for (auto& s : stalled) {
            ckpt_stall_time_ +=
                static_cast<double>(curTick() - s.stalled_at);
            accessBlock(s.paddr, s.is_write, s.data.data(), nullptr,
                        TrafficSource::CpuWriteback, std::move(s.done));
        }
        replaying_app_ = false;
    }

    Tick epoch_length_;
    At opens_;
    At resumes_;
    bool started_ = false;
    bool halted_ = false;
    /** The checkpoint phase: from epoch.flush_done to ckpt.committed. */
    bool checkpointing_ = false;
    /** Start of the running checkpoint's ckpt_busy_time window. */
    Tick busy_start_ = 0;
    Event epoch_timer_;
    /** Deferred boundary attempt; coalesces repeated requestEpochEnd(). */
    Event boundary_event_;
    std::function<void()> resume_client_;
    std::vector<std::uint8_t> recovered_cpu_state_;

    struct Stalled
    {
        Addr paddr;
        bool is_write;
        std::array<std::uint8_t, kBlockSize> data;
        std::function<void()> done;
        Tick stalled_at;
    };
    std::deque<Stalled> stalled_;
};

} // namespace thynvm

#endif // THYNVM_MEM_EPOCH_CONTROLLER_HH
