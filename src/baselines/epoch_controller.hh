/**
 * @file
 * Shared machinery for the stop-the-world checkpointing controllers:
 * journaling and shadow paging (paper §5.1), in-cache-line logging and
 * incremental checkpointing.
 *
 * All four checkpoint with a traditional epoch model (Figure 3a): at
 * each epoch boundary the CPU is paused, volatile state is flushed, the
 * checkpoint is taken to completion, and only then does execution
 * resume. The whole window counts as checkpoint stall time. Each ends
 * its checkpoint with the shared commit record (mem/commit_record.hh),
 * and recovery runs through it here; a backend supplies its record and
 * its data phases.
 */

#ifndef THYNVM_BASELINES_EPOCH_CONTROLLER_HH
#define THYNVM_BASELINES_EPOCH_CONTROLLER_HH

#include <cstring>
#include <deque>
#include <limits>

#include "mem/commit_record.hh"
#include "mem/controller.hh"

namespace thynvm {

/**
 * Base class implementing the stop-the-world epoch loop.
 */
class EpochController : public MemController
{
  public:
    EpochController(EventQueue& eq, std::string name, Tick epoch_length)
        : MemController(eq, std::move(name)),
          epoch_length_(epoch_length),
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

    /** Force an early epoch boundary (e.g., on buffer overflow). */
    void
    requestEpochEnd() override
    {
        if (!started_ || halted_)
            return;
        boundary_requested_ = true;
        // Defer: the request may originate mid-way through an access
        // path; the checkpoint must only start between accesses. A
        // pending attempt is necessarily at this tick and covers us.
        if (!boundary_event_.scheduled())
            eventq_.schedule(boundary_event_, curTick());
    }

    /**
     * Stop initiating boundaries: cancel the epoch timer and refuse
     * future requests. An in-flight checkpoint completes normally (its
     * events are already scheduled), after which nothing re-arms, so
     * the queue drains — the termination handshake of the per-channel
     * kernel shards.
     */
    void
    halt() override
    {
        halted_ = true;
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        if (!ckpt_in_progress_)
            boundary_requested_ = false;
    }

    /** True while a stop-the-world checkpoint is running. */
    bool checkpointInProgress() const { return ckpt_in_progress_; }

    void
    persistCpuState(const std::vector<std::uint8_t>& blob) override
    {
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

    /**
     * Subclass hook: take a complete checkpoint (all data durable, a
     * commit point written), then invoke @p done.
     */
    virtual void doCheckpoint(std::function<void()> done) = 0;

    /**
     * Stall an access until the running checkpoint finishes; the access
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
        if (!started_ || !boundary_requested_ || ckpt_in_progress_)
            return;
        boundary_requested_ = false;
        ckpt_in_progress_ = true;
        crashPoint("boundary.begin");
        stall_start_ = curTick();
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        auto run = [this] {
            crashPoint("epoch.flush_done");
            doCheckpoint([this] { boundaryDone(); });
        };
        if (flush_)
            flush_(run);
        else
            run();
    }

    void
    boundaryDone()
    {
        crashPoint("ckpt.committed");
        ++epochs_;
        noteEpochCommitted();
        const Tick stalled = curTick() - stall_start_;
        ckpt_stall_time_ += static_cast<double>(stalled);
        ckpt_busy_time_ += static_cast<double>(stalled);
        ckpt_in_progress_ = false;
        if (resume_client_)
            resume_client_();
        armTimer();
        replayStalled();
        tryBeginBoundary();
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

    /** Reset the epoch machinery after a crash. */
    void
    resetEpochState()
    {
        started_ = false;
        halted_ = false;
        ckpt_in_progress_ = false;
        boundary_requested_ = false;
        stalled_.clear();
        cpu_state_.clear();
        if (epoch_timer_.scheduled())
            eventq_.deschedule(epoch_timer_);
        if (boundary_event_.scheduled())
            eventq_.deschedule(boundary_event_);
    }

    Tick epoch_length_;
    /** The epoch running now; its checkpoint commits this number. */
    std::uint64_t epoch_num_ = 1;
    bool started_ = false;
    bool halted_ = false;
    bool ckpt_in_progress_ = false;
    bool boundary_requested_ = false;
    Tick stall_start_ = 0;
    Event epoch_timer_;
    /** Deferred boundary attempt; coalesces repeated requestEpochEnd(). */
    Event boundary_event_;
    std::function<void()> resume_client_;
    std::vector<std::uint8_t> cpu_state_;
    std::vector<std::uint8_t> recovered_cpu_state_;

  private:
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

#endif // THYNVM_BASELINES_EPOCH_CONTROLLER_HH
