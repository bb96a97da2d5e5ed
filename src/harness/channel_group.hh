/**
 * @file
 * Multi-channel memory topology: one MemController + device set per
 * channel behind a cache-block-granularity address interleaver, with a
 * cross-channel epoch coordinator.
 *
 * The group presents the MemController interface to the cache
 * hierarchy, so the rest of the System is unchanged. Internally it owns
 * C channels, each with its *own* event queue — the channel's clock.
 * Channels exchange messages with the core queue (CPU + caches + group)
 * over the modeled channel interconnect: every message is scheduled
 * straight onto the target queue one kChannelLookahead hop after the
 * sender's tick, and the System steps all queues in one serial loop in
 * global tick order (System::run), so a send can never land behind its
 * target's clock.
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
 * every channel to the minimum, rebuilds the functional mirror, and
 * aligns all clocks to the slowest channel.
 */

#ifndef THYNVM_HARNESS_CHANNEL_GROUP_HH
#define THYNVM_HARNESS_CHANNEL_GROUP_HH

#include <array>
#include <memory>
#include <vector>

#include "core/config.hh"
#include "harness/system_kind.hh"
#include "mem/controller.hh"
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

    struct Config
    {
        SystemKind kind = SystemKind::ThyNvm;
        /** Channel count; must be a power of two >= 2. */
        unsigned channels = 2;
        /** Global software-visible physical address space. */
        std::size_t phys_size = 0;
        Tick epoch_length = 0;
        /** Global table sizes; divided over the channels. */
        ThyNvmConfig thynvm;
    };

    /**
     * @param eq the core event queue (the group itself runs on the
     *        core queue; channels own their queues).
     * @param nvm_store surviving NVM contents of the whole group for a
     *        post-crash reboot, or nullptr for a pristine machine. The
     *        group hands each channel a view slice of one root store, so
     *        a single handle survives crashes exactly like the
     *        single-channel case.
     */
    ChannelGroup(EventQueue& eq, std::string name, const Config& cfg,
                 std::shared_ptr<BackingStore> nvm_store);
    ~ChannelGroup() override;

    // ------------------------------------------------------------------
    // MemController interface (the cache hierarchy's view).
    // ------------------------------------------------------------------
    std::size_t physCapacity() const override { return cfg_.phys_size; }
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;
    void persistCpuState(const std::vector<std::uint8_t>& blob) override;
    const std::vector<std::uint8_t>& recoveredCpuState() const override
    {
        return recovered_cpu_;
    }
    void functionalRead(Addr paddr, void* buf,
                        std::size_t len) const override;
    void forEachTouchedPhysRange(
        const std::function<void(Addr, std::size_t)>& fn) const override;
    void loadImage(Addr paddr, const void* buf, std::size_t len) override;
    void start() override;
    void crash() override;
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
     * queues drain to empty.
     */
    void halt() override;

    /** Cross-channel messages sent since construction (both ways). */
    std::uint64_t messagesSent() const { return messages_; }

    unsigned channelCount() const { return cfg_.channels; }
    MemController& channelController(unsigned i)
    {
        return *chs_[i]->ctrl;
    }
    EventQueue& channelEventq(unsigned i) { return *chs_[i]->eq; }
    const ChannelInterleaver& interleaver() const { return il_; }

  private:
    struct Channel
    {
        std::unique_ptr<EventQueue> eq;
        std::unique_ptr<MemController> ctrl;
        /** Deferred boundary-flush continuation (channel side). */
        std::function<void()> flush_run;
        /** Deferred commit-gate continuation (channel side). */
        std::function<void()> gate_resume;
        /** Per-channel epoch sequence number (ccnvme idiom). */
        std::uint64_t boundary_seq = 0;
    };

    std::unique_ptr<MemController>
    buildChannel(EventQueue& eq, unsigned i, std::size_t ch_phys,
                 std::shared_ptr<BackingStore> slice);
    /** Per-channel NVM slice size for the configured kind. */
    std::size_t channelNvmSize(std::size_t ch_phys) const;
    /** Global config scaled down to one channel's share. */
    ThyNvmConfig channelThyNvmConfig(std::size_t ch_phys) const;

    /**
     * Cross-channel message helpers: deliver @p fn on the target queue
     * one kChannelLookahead hop after the sender's tick. Link 2*i is
     * core->channel i and 2*i+1 is channel i->core; a message's order
     * key is its link and that link's FIFO position, so same-tick
     * deliveries run in a fixed order after every local event.
     */
    void postToChannel(unsigned i, std::function<void()> fn);
    void postToCore(unsigned i, std::function<void()> fn);
    void send(EventQueue& target, Tick when, unsigned link,
              std::function<void()> fn);

    // Coordinator fan-ins (core side).
    void flushRequested(std::uint64_t seq);
    void gateArrived(unsigned phase);
    void resumeArrived();

    Config cfg_;
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
