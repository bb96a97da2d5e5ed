/**
 * @file
 * Crash-point fuzzer with a differential recovery oracle.
 *
 * Each fuzz case runs a seeded workload on one of the evaluated systems
 * until an armed crash site fires, pulls the plug, reboots a fresh
 * System on the surviving NVM image, and checks recovery against a
 * golden epoch model recomputed in plain C++ from the recorded store
 * trace:
 *
 *   A. The recovered memory image must equal the golden image of the
 *      restored epoch boundary (base image + all stores with op index
 *      below the restored op count).
 *   B. The restored op count must be a snapshot the CPU actually took
 *      at an epoch boundary, and at least as recent as the last commit
 *      observed before the crash (no lost or stale checkpoints).
 *   C. Execution resumed from the recovered state must run to
 *      completion, and the final image must equal the golden prefix
 *      plus every store recorded after recovery.
 *
 * Every failing case prints a one-line repro string that replays the
 * identical crash deterministically (see formatRepro()).
 */

#ifndef THYNVM_FUZZ_FUZZER_HH
#define THYNVM_FUZZ_FUZZER_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fuzz/crash_points.hh"
#include "harness/system.hh"
#include "mem/paged_bytes.hh"
#include "workloads/micro.hh"

namespace thynvm {
namespace fuzz {

/** One store op captured from the workload stream. */
struct StoreRecord
{
    /** Index of the op in the workload's op stream (0-based). */
    std::uint64_t op_index;
    Addr addr;
    std::uint32_t size;
    std::vector<std::uint8_t> data;
};

/**
 * Decorator that records the store trace and op counts of the workload
 * it wraps, and embeds the op count in the snapshot blob so the oracle
 * can tell exactly which epoch boundary a recovery restored.
 */
class RecordingWorkload : public Workload
{
  public:
    explicit RecordingWorkload(Workload& inner) : inner_(inner) {}

    void init(MemController& mem) override { inner_.init(mem); }

    bool
    next(WorkOp& op) override
    {
        if (!inner_.next(op))
            return false;
        if (op.kind == WorkOp::Kind::Store) {
            StoreRecord rec;
            rec.op_index = ops_;
            rec.addr = op.addr;
            rec.size = op.size;
            rec.data.assign(op.data, op.data + op.size);
            stores_.push_back(std::move(rec));
        }
        ++ops_;
        return true;
    }

    void deliver(const std::uint8_t* data, std::size_t len) override
    {
        inner_.deliver(data, len);
    }

    /** Snapshot blob: [u64 op count][inner blob]. */
    std::vector<std::uint8_t> snapshot() const override;
    void restore(const std::vector<std::uint8_t>& blob) override;

    void setFunctionalView(FunctionalView view) override
    {
        inner_.setFunctionalView(std::move(view));
    }

    /** Ops produced so far (counts restored ops after a restore()). */
    std::uint64_t opCount() const { return ops_; }
    /** Stores recorded in this life, in issue order. */
    const std::vector<StoreRecord>& stores() const { return stores_; }
    /** Op counts captured by each snapshot() call, in order. */
    const std::vector<std::uint64_t>& snapshotCounts() const
    {
        return snapshot_counts_;
    }
    /** True once restore() ran. */
    bool wasRestored() const { return was_restored_; }
    /** Op count embedded in the restored blob. */
    std::uint64_t restoredCount() const { return restored_; }

  private:
    Workload& inner_;
    std::uint64_t ops_ = 0;
    std::uint64_t restored_ = 0;
    bool was_restored_ = false;
    std::vector<StoreRecord> stores_;
    mutable std::vector<std::uint64_t> snapshot_counts_;
};

/**
 * Apply all stores with op_index < @p op_limit to @p image. Only the
 * pages they touch are written, so on a COW copy only those are
 * privatized.
 */
void applyStores(PagedBytes& image,
                 const std::vector<StoreRecord>& stores,
                 std::uint64_t op_limit);

/**
 * One fuzz case: everything needed to replay a crash deterministically.
 */
struct FuzzCase
{
    std::uint64_t seed = 1;
    /** Workload pattern: "rand", "stream", or "slide". */
    std::string workload = "rand";
    SystemKind system = SystemKind::ThyNvm;
    /** Crash plan: the @c hit -th announcement of @c site, + @c delta. */
    std::string site;
    std::uint64_t hit = 1;
    Tick delta = 0;
    /** Run with the synchronous hit fast path enabled. */
    bool fast_path = true;
    /**
     * Memory-channel count: 0 defers to THYNVM_CHANNELS (unset = 1),
     * matching SystemConfig. Only emitted into repro strings when
     * non-zero, so pre-existing repro lists are unchanged.
     */
    unsigned channels = 0;
};

/** One-line repro string, e.g.
 *  "seed=7:wl=rand:sys=thynvm:site=ckpt.persist_btt:hit=2:delta=0:fp=on"
 */
std::string formatRepro(const FuzzCase& c);
/** Parse formatRepro() output. @return false on malformed input. */
bool parseRepro(const std::string& repro, FuzzCase& out);

/** Repro strings name systems by the shared kind token. */
using thynvm::systemToken;

/**
 * Simulation sizing shared by every case of a campaign. Small enough
 * that a single case (run + crash + recover + rerun) stays in the
 * millisecond range of host time.
 */
struct FuzzerConfig
{
    std::size_t phys_size = 1u << 20;
    std::size_t array_bytes = 256u << 10;
    std::uint64_t total_accesses = 6000;
    /**
     * Short epochs so even cache-friendly patterns cross several
     * boundaries (the sliding window runs almost entirely out of L1).
     */
    Tick epoch_length = 40 * kMicrosecond;
    std::size_t btt_entries = 256;
    std::size_t ptt_entries = 512;
    std::size_t overflow_entries = 8192;
    std::size_t overflow_stall_watermark = 2048;
    /** Sim-time cap for one life (first run or resumed run). */
    Tick run_limit = 100 * kMillisecond;
    /** Fault injection passthrough (fuzzer self-test; npos = off). */
    std::size_t debug_drop_btt_entry = static_cast<std::size_t>(-1);
};

/** MicroWorkload parameters for a case (seed + pattern). */
MicroWorkload::Params microParams(const FuzzerConfig& fc,
                                  std::uint64_t seed,
                                  const std::string& workload);

/** SystemConfig for a case (no registry attached). */
SystemConfig makeSystemConfig(const FuzzerConfig& fc, SystemKind kind,
                              bool fast_path, unsigned channels = 0);

/**
 * Read the full physical image through the system's functional view
 * into a sparse store. Only touched pages are pulled and materialized;
 * every other page reads zero by the touched-set contract, so capture
 * cost scales with the workload footprint, not the machine size.
 */
PagedBytes captureImage(System& sys, std::size_t phys_size);

enum class CaseStatus
{
    Ok,         //!< crash reached, recovery passed all oracle checks
    NotReached, //!< the armed crash plan never fired
    Violation,  //!< an oracle check failed
};

struct CaseResult
{
    CaseStatus status = CaseStatus::Ok;
    /** Human-readable description of the violation (empty if Ok). */
    std::string detail;
    /** Repro string for this case. */
    std::string repro;
    Tick crash_tick = 0;
    std::uint64_t commits_before = 0;
    std::uint64_t restored_ops = 0;
    /** Memory image right after recovery (empty if NotReached). */
    PagedBytes recovered_image;
    /** Memory image after resumed execution finished. */
    PagedBytes final_image;
};

/** Run one crash case end to end against the oracle. */
CaseResult runCrashCase(const FuzzerConfig& fc, const FuzzCase& c);

/**
 * Enumerate every crash site a profile run reaches (no crash), with
 * hit counts. The same seeded run replayed with an armed plan hits the
 * identical sequence.
 */
std::map<std::string, std::uint64_t>
enumerateSites(const FuzzerConfig& fc, std::uint64_t seed,
               const std::string& workload, SystemKind kind,
               bool fast_path, unsigned channels = 0);

/** Which cases a campaign covers. */
struct CampaignOptions
{
    std::vector<std::uint64_t> seeds = {1};
    std::vector<std::string> workloads = {"rand", "slide"};
    std::vector<SystemKind> systems = {SystemKind::ThyNvm,
                                       SystemKind::Journal,
                                       SystemKind::Shadow,
                                       SystemKind::Icl,
                                       SystemKind::Incremental};
    /** Run every case with fast path on and off. */
    bool both_fast_path_modes = false;
    /** Crash at the first and last hit of each site (else last only). */
    bool first_and_last_hit = true;
    /** Extra tick offsets past the firing hit. */
    std::vector<Tick> deltas = {0};
    /**
     * Memory-channel count for every case (0 = THYNVM_CHANNELS env;
     * see FuzzCase::channels). Multi-channel campaigns exercise the
     * cross-channel coordinator's crash-ordering windows — the
     * group.* barrier sites and every per-channel chN.* site.
     */
    unsigned channels = 0;
};

struct CampaignResult
{
    std::uint64_t cases = 0;
    std::uint64_t not_reached = 0;
    /** Violating cases in plan order, without their images (replay
     *  one with runCrashCase() to get them). */
    std::vector<CaseResult> violations;
    /** Distinct crash-site names reached, per system token. */
    std::map<std::string, std::set<std::string>> sites_by_system;
    /**
     * Repro string of every planned case, in plan order. The plan is a
     * pure function of the options, so this list is invariant across
     * host thread counts — pinned by crash_repro_test.
     */
    std::vector<std::string> repros;
};

/**
 * Run a full campaign: enumerate sites per (seed, workload, system,
 * mode), then crash at each planned (site, hit, delta). Violations are
 * printed to @p log (if non-null) in plan order, one repro string per
 * line.
 *
 * @param threads fan cases across this many host workers (each case
 *        owns its Systems outright). The campaign result — counts,
 *        violation list, site map, repro strings, log stream — is
 *        byte-identical for any thread count.
 */
CampaignResult runCampaign(const FuzzerConfig& fc,
                           const CampaignOptions& opts, std::ostream* log,
                           unsigned threads = 1);

} // namespace fuzz
} // namespace thynvm

#endif // THYNVM_FUZZ_FUZZER_HH
