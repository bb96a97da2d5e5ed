/**
 * @file
 * Multi-channel memory topology: one MemController + device set per
 * channel behind a cache-block-granularity address interleaver, with a
 * cross-channel epoch coordinator.
 *
 * The group presents the MemController interface to the cache
 * hierarchy, so the rest of the System is unchanged. Internally it owns
 * C channels, all on the System's one event queue, each on its own
 * lane: the core (CPU + caches + group) is kCoreLane and channel i is
 * channelLane(i), so at one tick the core runs first, then the
 * channels in index order (EventQueue's comparator). A channel's
 * events run on its lane and schedule on it; the group's direct calls
 * into a channel (start, recover, requestEpochEnd) enter its lane
 * through an EventQueue::LaneScope. Core and channels exchange
 * messages over the modeled channel interconnect: every message lands
 * on its target lane one kChannelLookahead hop after the sender's
 * tick.
 *
 * Functional/timing split across the interconnect: the group keeps a
 * core-side functional mirror of the software-visible memory so reads
 * fill synchronously (the accessBlock contract) while the timed access
 * travels to the channel and back. Writes apply to the mirror at call
 * time and ship their data by value with the timed message.
 *
 * Epoch checkpointing is a cross-controller protocol (ccnvme-style
 * per-channel epoch sequence numbers with a two-phase commit barrier):
 *
 *  1. Flush barrier: each channel's epoch timer requests a boundary;
 *     the coordinator waits for all C requests (asserting every
 *     channel presents the same next sequence number), then pauses the
 *     CPU, flushes the caches, persists the CPU blob on channel 0, and
 *     releases every channel's flush continuation at one core tick.
 *  2. Commit barrier: each channel passes its two commit-durability
 *     edges (image staged / header durable) through the group commit
 *     gate; the coordinator fans in phase 0 from all channels before
 *     any channel writes its commit header ("group.all_staged"), and
 *     phase 1 before any channel flips/applies destructively
 *     ("group.all_committed"). This bounds the committed-epoch spread
 *     across channels to at most one at every crash point, which is
 *     what makes min-epoch recovery a consistent cut.
 *
 * Recovery probes every channel's durably committed epoch, panics if
 * the spread exceeds one (the barrier guarantees it cannot), recovers
 * every channel to the minimum side by side, and rebuilds the
 * functional mirror once the last channel is done.
 */

#ifndef THYNVM_HARNESS_CHANNEL_GROUP_HH
#define THYNVM_HARNESS_CHANNEL_GROUP_HH

#include <array>
#include <memory>
#include <vector>

#include "harness/controller_factory.hh"
#include "mem/interleave.hh"
#include "mem/paged_bytes.hh"

namespace thynvm {

/**
 * A set of per-channel memory controllers behind one MemController
 * interface, with a cross-channel epoch coordinator.
 */
class ChannelGroup : public MemController
{
  public:
    /**
     * Cross-channel lookahead: the channel-interconnect hop, modeled as
     * the device minimum access latency (a 40 ns row hit). Every
     * core<->channel message takes one hop each direction.
     */
    static constexpr Tick kChannelLookahead = 40 * kNanosecond;

    /** The core's lane: the CPU, the caches and the group itself. */
    static constexpr EventQueue::Lane kCoreLane = 0;

    /** Channel @p i's lane. */
    static constexpr EventQueue::Lane
    channelLane(unsigned i)
    {
        return i + 1;
    }

    /**
     * @param eq the System's event queue; the group runs on its core
     *        lane and builds every channel controller on it.
     * @param cfg the whole machine; cfg.channels must be a power of
     *        two >= 2, and each channel's controller comes from
     *        buildController(cfg, ...).
     * @param nvm_store surviving NVM contents of the whole group for a
     *        post-crash reboot, or nullptr for a pristine machine. The
     *        group hands each channel a view slice of one root store, so
     *        a single handle survives crashes exactly like the
     *        single-channel case.
     */
    ChannelGroup(EventQueue& eq, std::string name,
                 const ControllerSpec& cfg,
                 std::shared_ptr<BackingStore> nvm_store);
    ~ChannelGroup() override;

    // ------------------------------------------------------------------
    // MemController interface (the cache hierarchy's view).
    // ------------------------------------------------------------------
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;
    void persistCpuState(const std::vector<std::uint8_t>& blob) override;
    const std::vector<std::uint8_t>& recoveredCpuState() const override
    {
        return recovered_cpu_;
    }
    void forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override;
    void loadImage(Addr paddr, const void* buf, std::size_t len) override;
    void start() override;
    void crash() override;
    /** @p done runs in the event that completes the last channel's. */
    void recover(std::function<void()> done) override;
    std::uint64_t committedEpoch() const override;
    void requestEpochEnd() override;
    std::shared_ptr<BackingStore> nvmStoreHandle() override
    {
        return root_store_;
    }
    void setCrashPoints(CrashPointRegistry* reg) override;
    void dumpExtraStats(std::ostream& os) override;
    std::uint64_t nvmWriteBytes(TrafficSource source) override;
    std::uint64_t nvmTotalWriteBytes() override;
    std::uint64_t dramTotalWriteBytes() override;

    /** CPU-resume hook fired when a coordinated boundary completes. */
    void setResumeClient(std::function<void()> cb)
    {
        resume_client_ = std::move(cb);
    }

    /**
     * Halt every channel once the workload has finished (idempotent
     * until the next start() or crash()): a halt message to each
     * channel stops its epoch timer from re-arming, so the channel
     * lanes drain to empty.
     */
    void halt() override;

    /** Cross-channel messages sent since construction (both ways). */
    std::uint64_t messagesSent() const { return messages_; }

    unsigned channelCount() const { return cfg_.channels; }
    MemController& channelController(unsigned i)
    {
        return *chs_[i]->ctrl;
    }
    const ChannelInterleaver& interleaver() const { return il_; }

  protected:
    /** Reads the core-side mirror. */
    void readVisibleBlock(Addr block, std::uint8_t* out) const override;

  private:
    struct Channel
    {
        std::unique_ptr<MemController> ctrl;
        /** Deferred boundary-flush continuation (channel side). */
        std::function<void()> flush_run;
        /** Deferred commit-gate continuation (channel side). */
        std::function<void()> gate_resume;
        /** Per-channel epoch sequence number (ccnvme idiom). */
        std::uint64_t boundary_seq = 0;
    };

    /**
     * Cross-channel message helpers: deliver @p fn on the target lane
     * one kChannelLookahead hop after the sender's tick. Link 2*i is
     * core->channel i and 2*i+1 is channel i->core; a message's order
     * key is its link and that link's FIFO position, so same-tick
     * deliveries run in a fixed order after the target lane's local
     * events.
     */
    void postToChannel(unsigned i, std::function<void()> fn);
    void postToCore(unsigned i, std::function<void()> fn);
    void send(EventQueue::Lane target, unsigned link,
              std::function<void()> fn);

    /** Refill the functional mirror from the recovered channels. */
    void rebuildMirror();

    // Coordinator fan-ins (core side).
    void flushRequested(std::uint64_t seq);
    void gateArrived(unsigned phase);
    void resumeArrived();

    ControllerSpec cfg_;
    ChannelInterleaver il_;
    std::shared_ptr<BackingStore> root_store_;
    std::vector<std::unique_ptr<Channel>> chs_;
    /** Core-side functional mirror of software-visible memory. */
    PagedBytes mirror_;

    /** Per-link FIFO counters (never reset; see send()). */
    std::vector<std::uint64_t> link_fifo_;
    std::uint64_t messages_ = 0;
    bool halted_ = false;

    // Coordinator state (core side only).
    unsigned flush_arrived_ = 0;
    std::uint64_t flush_seq_ = 0;
    unsigned gate_arrived_ = 0;
    int gate_phase_ = -1;
    unsigned resume_arrived_ = 0;
    Tick stall_start_ = 0;
    std::function<void()> resume_client_;
    std::vector<std::uint8_t> cpu_blob_;
    std::vector<std::uint8_t> recovered_cpu_;
};

} // namespace thynvm

#endif // THYNVM_HARNESS_CHANNEL_GROUP_HH
