/**
 * @file
 * Full-system assembly: CPU + cache hierarchy + one of the seven
 * evaluated memory controllers, wired per Table 2 of the paper.
 *
 * The System also orchestrates power failures: crash() discards all
 * volatile state and hands back the surviving NVM contents; a new
 * System built around those contents calls recoverAndResume() to roll
 * back to the last checkpoint and continue execution, exactly like a
 * machine rebooting after power loss.
 */

#ifndef THYNVM_HARNESS_SYSTEM_HH
#define THYNVM_HARNESS_SYSTEM_HH

#include <cstdint>
#include <iosfwd>
#include <memory>

#include "baselines/icl.hh"
#include "baselines/ideal.hh"
#include "baselines/incremental.hh"
#include "baselines/journal.hh"
#include "baselines/shadow.hh"
#include "cache/cache.hh"
#include "core/thynvm_controller.hh"
#include "cpu/cpu.hh"
#include "harness/channel_group.hh"
#include "harness/controller_factory.hh"
#include "harness/system_kind.hh"

namespace thynvm {

/**
 * Configuration of a full system instance.
 */
struct SystemConfig
{
    SystemKind kind = SystemKind::ThyNvm;
    /** Software-visible physical address space. */
    std::size_t phys_size = 32u << 20;
    /** Epoch length for checkpointing systems. */
    Tick epoch_length = 10 * kMillisecond;
    /** Include the 3-level cache hierarchy (Table 2). */
    bool use_caches = true;

    /** Ignored; kept only because the layered benchmark sets it. */
    unsigned sim_threads = 0;

    /**
     * Memory-channel count: 0 defers to the THYNVM_CHANNELS
     * environment variable (unset = 1), 1 is the classic
     * single-controller topology, >1 (a power of two) interleaves the
     * physical space over that many channels at cache-block
     * granularity, each channel an independent controller + device set
     * on its own lane of the System's event queue
     * (harness/channel_group.hh).
     */
    unsigned channels = 0;

    /** ThyNVM-specific knobs (phys_size/epoch_length are copied in). */
    ThyNvmConfig thynvm;

    /**
     * Optional crash-point registry (not owned; must outlive the
     * System). The controller announces its checkpoint-pipeline steps
     * to it so a fuzz driver can enumerate and arm crash sites.
     */
    CrashPointRegistry* crash_points = nullptr;

    TraceCpu::Params cpu;
    Cache::Params l1{32 * 1024, 8, 4 * 333};
    Cache::Params l2{256 * 1024, 8, 12 * 333};
    Cache::Params l3{2 * 1024 * 1024, 16, 28 * 333};
};

/**
 * Aggregated end-of-run measurements used by the benchmarks.
 */
struct RunMetrics
{
    Tick exec_time = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    std::uint64_t nvm_wr_cpu = 0;
    std::uint64_t nvm_wr_ckpt = 0;
    std::uint64_t nvm_wr_migration = 0;
    std::uint64_t nvm_wr_total = 0;
    /** DRAM write bytes (the "write bandwidth" metric for Ideal DRAM). */
    std::uint64_t dram_wr_total = 0;
    double ckpt_time_frac = 0.0;
    std::uint64_t epochs = 0;
    /** Application write bytes that reached the controller. */
    std::uint64_t app_wr_bytes = 0;
    /** Media write bytes / application write bytes (cumulative). */
    double write_amp = 0.0;
};

/**
 * One simulated machine.
 */
class System
{
  public:
    /**
     * @param cfg configuration.
     * @param workload generator driven by the CPU (not owned).
     * @param nvm_store surviving NVM contents for a post-crash reboot,
     *        or nullptr for a pristine machine.
     */
    System(const SystemConfig& cfg, Workload& workload,
           std::shared_ptr<BackingStore> nvm_store = nullptr);

    /** Initialize the workload image and begin execution at tick 0. */
    void start();

    /**
     * Post-crash boot: run timed recovery, restore the CPU and
     * workload from the recovered architectural state, and resume.
     */
    void recoverAndResume();

    /**
     * Advance simulation until the workload finishes or @p duration
     * ticks elapse. @return now().
     *
     * A multi-channel topology steps every lane of the one queue in
     * its order; @p duration is measured from the queue's tick, which
     * may be ahead of now(). Once the workload finishes the channels
     * are halted and drain in later steps, and the core lane's
     * leftover events are dropped.
     */
    Tick run(Tick duration = kMaxTick);

    /**
     * run(), but stop as soon as @p stop returns true after an executed
     * event (the fuzzer stops at its armed crash-site hit).
     */
    Tick run(Tick duration, const std::function<bool()>& stop);

    /**
     * Deterministically execute exactly the events with tick <= @p cut
     * (the fuzzer's crash cut). On a multi-channel topology the core
     * lane stops when the workload finishes, exactly like run().
     */
    void runTo(Tick cut);

    /**
     * The machine's clock: the tick of the core lane's last event (CPU,
     * caches, controller). It is the queue's tick on a single-channel
     * topology; channel lanes may run ahead of it.
     */
    Tick now() const { return group_ == nullptr ? eq_.now() : core_tick_; }

    /** Effective channel count of this topology (>= 1). */
    unsigned channels() const { return channels_; }

    /** Always 0; kept only because the layered benchmark reports it. */
    std::uint64_t kernelWindows() const { return 0; }
    /** Cross-channel messages sent by the last run(); kept only
     *  because the layered benchmark reports it. */
    std::uint64_t kernelMessages() const { return kernel_messages_; }

    /** True once the workload finished. */
    bool finished() const { return cpu_->finished(); }

    /**
     * Power failure: all volatile state is lost. Returns the surviving
     * NVM contents for rebuilding a System. This System must not be
     * used afterwards (except for inspection of stats).
     */
    std::shared_ptr<BackingStore> crash();

    /** Zero-time read of current architectural memory (via caches). */
    FunctionalView functionalView();

    /**
     * Ascending page-aligned addresses of every physical page that may
     * hold nonzero data through functionalView(): the controller's
     * touched set (backing-store pages, staged writes included, live
     * remap entries) plus dirty cache lines. Pages not listed read zero, so
     * whole-image capture is O(touched) instead of O(capacity).
     */
    std::vector<Addr> touchedPhysPages() const;

    /**
     * Dump every stat in the system — CPU, caches, controller, devices —
     * plus the current tick, in a fixed order. Equivalence and
     * determinism tests compare these dumps as strings. The executed
     * event count is deliberately excluded: it is host instrumentation,
     * and the hit fast path exists precisely to shrink it without
     * changing anything this dump contains.
     */
    void dumpStats(std::ostream& os);

    /** Collected measurements since start. */
    RunMetrics metrics() const;

    EventQueue& eventq() { return eq_; }
    TraceCpu& cpu() { return *cpu_; }
    MemController& controller() { return *controller_; }
    Workload& workload() { return workload_; }
    const SystemConfig& config() const { return cfg_; }

  private:
    void wireFlushClient();
    void flushCaches(std::function<void()> done);
    template <typename Stop>
    Tick advance(Tick duration, Stop&& stop);
    /**
     * The multi-channel stepping loop: execute the next event while
     * the queue's tick is below @p limit, the event's tick is <= @p cut
     * and @p stop is false.
     */
    template <typename Stop>
    void stepLanes(Tick limit, Tick cut, Stop&& stop);

    SystemConfig cfg_;
    Workload& workload_;
    EventQueue eq_;
    std::unique_ptr<MemController> controller_;
    /** Non-null when channels_ > 1; owned via controller_. */
    ChannelGroup* group_ = nullptr;
    unsigned channels_ = 1;
    std::unique_ptr<Cache> l3_;
    std::unique_ptr<Cache> l2_;
    std::unique_ptr<Cache> l1_;
    std::unique_ptr<TraceCpu> cpu_;
    Tick start_tick_ = 0;
    /** now() on a multi-channel topology. */
    Tick core_tick_ = 0;
    std::uint64_t kernel_messages_ = 0;
};

} // namespace thynvm

#endif // THYNVM_HARNESS_SYSTEM_HH
