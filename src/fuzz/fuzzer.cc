/**
 * @file
 * Crash fuzzer implementation.
 */

#include "fuzz/fuzzer.hh"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>

#include "common/parallel.hh"

namespace thynvm {
namespace fuzz {

// ---------------------------------------------------------------------
// RecordingWorkload.
// ---------------------------------------------------------------------

std::vector<std::uint8_t>
RecordingWorkload::snapshot() const
{
    const std::vector<std::uint8_t> inner = inner_.snapshot();
    std::vector<std::uint8_t> blob(8 + inner.size());
    std::memcpy(blob.data(), &ops_, 8);
    std::memcpy(blob.data() + 8, inner.data(), inner.size());
    snapshot_counts_.push_back(ops_);
    return blob;
}

void
RecordingWorkload::restore(const std::vector<std::uint8_t>& blob)
{
    panic_if(blob.size() < 8, "recording snapshot too short");
    std::memcpy(&restored_, blob.data(), 8);
    inner_.restore(std::vector<std::uint8_t>(blob.begin() + 8,
                                             blob.end()));
    ops_ = restored_;
    was_restored_ = true;
}

void
applyStores(PagedBytes& image, const std::vector<StoreRecord>& stores,
            std::uint64_t op_limit)
{
    for (const StoreRecord& s : stores) {
        if (s.op_index >= op_limit)
            break;
        panic_if(s.addr + s.size > image.size(),
                 "golden store out of range");
        image.write(s.addr, s.data.data(), s.size);
    }
}

// ---------------------------------------------------------------------
// Repro strings.
// ---------------------------------------------------------------------

std::string
formatRepro(const FuzzCase& c)
{
    std::ostringstream os;
    os << "seed=" << c.seed << ":wl=" << c.workload
       << ":sys=" << systemToken(c.system) << ":site=" << c.site
       << ":hit=" << c.hit << ":delta=" << c.delta
       << ":fp=" << (c.fast_path ? "on" : "off");
    // Only multi-channel cases carry the topology; the default (0,
    // env-deferred) keeps pre-existing repro lists byte-identical.
    if (c.channels != 0)
        os << ":ch=" << c.channels;
    return os.str();
}

bool
parseRepro(const std::string& repro, FuzzCase& out)
{
    FuzzCase c;
    bool have_seed = false, have_site = false;
    std::size_t pos = 0;
    while (pos <= repro.size()) {
        const std::size_t end = repro.find(':', pos);
        const std::string field =
            repro.substr(pos, end == std::string::npos ? std::string::npos
                                                       : end - pos);
        pos = end == std::string::npos ? repro.size() + 1 : end + 1;
        if (field.empty())
            continue;
        const std::size_t eq = field.find('=');
        if (eq == std::string::npos)
            return false;
        const std::string key = field.substr(0, eq);
        const std::string val = field.substr(eq + 1);
        try {
            if (key == "seed") {
                c.seed = std::stoull(val);
                have_seed = true;
            } else if (key == "wl") {
                c.workload = val;
            } else if (key == "sys") {
                if (!systemKindFromToken(val, c.system))
                    return false;
            } else if (key == "site") {
                c.site = val;
                have_site = true;
            } else if (key == "hit") {
                c.hit = std::stoull(val);
            } else if (key == "delta") {
                c.delta = std::stoull(val);
            } else if (key == "fp") {
                if (val != "on" && val != "off")
                    return false;
                c.fast_path = (val == "on");
            } else if (key == "ch") {
                c.channels = static_cast<unsigned>(std::stoul(val));
            } else {
                return false;
            }
        } catch (...) {
            return false;
        }
    }
    if (!have_seed || !have_site)
        return false;
    out = c;
    return true;
}

// ---------------------------------------------------------------------
// Case setup.
// ---------------------------------------------------------------------

MicroWorkload::Params
microParams(const FuzzerConfig& fc, std::uint64_t seed,
            const std::string& workload)
{
    MicroWorkload::Params p;
    p.seed = seed;
    p.base = 0;
    p.array_bytes = fc.array_bytes;
    p.total_accesses = fc.total_accesses;
    if (workload == "stream") {
        p.pattern = MicroWorkload::Pattern::Streaming;
    } else if (workload == "slide") {
        // A tight window with many accesses per slide concentrates
        // stores so pages cross the promotion threshold, exercising the
        // page-writeback pipeline (and its crash sites).
        p.pattern = MicroWorkload::Pattern::Sliding;
        p.window_bytes = 8 * 1024;
        p.accesses_per_window = 256;
    } else {
        panic_if(workload != "rand", "unknown workload token '%s'",
                 workload.c_str());
        p.pattern = MicroWorkload::Pattern::Random;
    }
    return p;
}

SystemConfig
makeSystemConfig(const FuzzerConfig& fc, SystemKind kind, bool fast_path,
                 unsigned channels)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.channels = channels;
    cfg.phys_size = fc.phys_size;
    cfg.epoch_length = fc.epoch_length;
    cfg.thynvm.btt_entries = fc.btt_entries;
    cfg.thynvm.ptt_entries = fc.ptt_entries;
    cfg.thynvm.overflow_entries = fc.overflow_entries;
    cfg.thynvm.overflow_stall_watermark = fc.overflow_stall_watermark;
    cfg.thynvm.debug_drop_btt_entry = fc.debug_drop_btt_entry;
    cfg.cpu.use_fast_path = fast_path;
    // Small caches keep the epoch-boundary flush (and thus each case)
    // short without changing any crash-consistency behavior.
    cfg.l1 = Cache::Params{16 * 1024, 4, 4 * 333};
    cfg.l2 = Cache::Params{64 * 1024, 8, 12 * 333};
    cfg.l3 = Cache::Params{256 * 1024, 8, 28 * 333};
    return cfg;
}

// ---------------------------------------------------------------------
// One crash case.
// ---------------------------------------------------------------------

PagedBytes
captureImage(System& sys, std::size_t phys_size)
{
    PagedBytes img(phys_size);
    FunctionalView view = sys.functionalView();
    std::uint8_t buf[kPageSize];
    for (Addr page : sys.touchedPhysPages()) {
        const std::size_t len =
            std::min<std::size_t>(kPageSize, phys_size - page);
        view(page, buf, len);
        img.write(page, buf, len);
    }
    return img;
}

CaseResult
runCrashCase(const FuzzerConfig& fc, const FuzzCase& c)
{
    CaseResult res;
    res.repro = formatRepro(c);

    // Life 1: run the seeded workload into the armed crash plan.
    MicroWorkload inner1(microParams(fc, c.seed, c.workload));
    RecordingWorkload wl1(inner1);
    SystemConfig cfg = makeSystemConfig(fc, c.system, c.fast_path,
                                        c.channels);
    CrashPointRegistry reg;
    reg.arm(c.site, c.hit, c.delta);
    cfg.crash_points = &reg;
    System sys(cfg, wl1);
    sys.start();
    const PagedBytes base = captureImage(sys, fc.phys_size);
    sys.run(fc.run_limit, [&reg] { return reg.fired(); });
    // A multi-channel plan whose crash tick lies past the run limit is
    // also unreached.
    if (!reg.fired() ||
        (sys.channels() > 1 && reg.crashTick() >= fc.run_limit)) {
        res.status = CaseStatus::NotReached;
        return res;
    }
    // Land the power failure on a tick boundary: drain every event at
    // or before the planned crash tick, then pull the plug.
    sys.runTo(reg.crashTick());
    res.crash_tick = sys.now();
    res.commits_before = sys.controller().completedEpochs();
    std::shared_ptr<BackingStore> nvm = sys.crash();

    // Life 2: reboot on the surviving NVM image and recover.
    MicroWorkload inner2(microParams(fc, c.seed, c.workload));
    RecordingWorkload wl2(inner2);
    SystemConfig cfg2 = makeSystemConfig(fc, c.system, c.fast_path,
                                         c.channels);
    System sys2(cfg2, wl2, std::move(nvm));
    sys2.recoverAndResume();

    const std::uint64_t restored =
        wl2.wasRestored() ? wl2.restoredCount() : 0;
    res.restored_ops = restored;

    // Check B: the restored op count must be a snapshot actually taken
    // at an epoch boundary, no older than the last commit seen before
    // the crash. (A commit whose header became durable right at the
    // crash tick may be ahead of the completed-epochs counter, so
    // membership in the snapshot list is the ground truth.)
    const std::vector<std::uint64_t>& snaps = wl1.snapshotCounts();
    bool ok_b;
    if (restored == 0) {
        ok_b = res.commits_before == 0;
    } else {
        ok_b = std::find(snaps.begin(), snaps.end(), restored) !=
               snaps.end();
        if (ok_b && res.commits_before > 0) {
            panic_if(res.commits_before > snaps.size(),
                     "more commits than snapshots");
            ok_b = restored >= snaps[res.commits_before - 1];
        }
    }
    if (!ok_b) {
        std::ostringstream os;
        os << "restored op count " << restored
           << " is not a committed epoch boundary (commits before crash: "
           << res.commits_before << ")";
        res.status = CaseStatus::Violation;
        res.detail = os.str();
        return res;
    }

    // Check A: recovered image == golden image of the restored epoch.
    // The golden is a COW copy of the base: only the pages the stores
    // touch are privatized, and the compare skips the shared rest.
    PagedBytes golden = base;
    applyStores(golden, wl1.stores(), restored);
    res.recovered_image = captureImage(sys2, fc.phys_size);
    if (const std::size_t off = res.recovered_image.firstDifference(golden);
        off != PagedBytes::npos) {
        std::ostringstream os;
        os << "recovered image diverges from the golden epoch image at "
           << "offset 0x" << std::hex << off << std::dec
           << " (restored ops " << restored << ")";
        res.status = CaseStatus::Violation;
        res.detail = os.str();
        return res;
    }

    // Check C: resume and run to completion; the final image must be
    // the golden prefix plus everything stored after recovery.
    sys2.run(fc.run_limit);
    if (!sys2.finished()) {
        res.status = CaseStatus::Violation;
        res.detail = "resumed execution did not complete within the "
                     "run limit";
        return res;
    }
    applyStores(golden, wl2.stores(), ~0ull);
    res.final_image = captureImage(sys2, fc.phys_size);
    if (const std::size_t off = res.final_image.firstDifference(golden);
        off != PagedBytes::npos) {
        std::ostringstream os;
        os << "final image after resume diverges from the golden image "
           << "at offset 0x" << std::hex << off << std::dec;
        res.status = CaseStatus::Violation;
        res.detail = os.str();
        return res;
    }

    return res;
}

// ---------------------------------------------------------------------
// Site enumeration and campaigns.
// ---------------------------------------------------------------------

std::map<std::string, std::uint64_t>
enumerateSites(const FuzzerConfig& fc, std::uint64_t seed,
               const std::string& workload, SystemKind kind,
               bool fast_path, unsigned channels)
{
    CrashPointRegistry reg; // unarmed: counts only
    MicroWorkload inner(microParams(fc, seed, workload));
    RecordingWorkload wl(inner);
    SystemConfig cfg = makeSystemConfig(fc, kind, fast_path, channels);
    cfg.crash_points = &reg;
    System sys(cfg, wl);
    sys.start();
    sys.run(fc.run_limit);

    std::map<std::string, std::uint64_t> out;
    for (const auto& [site, stats] : reg.sites())
        out.emplace(site, stats.hits);
    return out;
}

CampaignResult
runCampaign(const FuzzerConfig& fc, const CampaignOptions& opts,
            std::ostream* log, unsigned threads)
{
    CampaignResult result;
    std::vector<bool> fp_modes;
    fp_modes.push_back(true);
    if (opts.both_fast_path_modes)
        fp_modes.push_back(false);

    // Phase 1: the (seed, workload, system, mode) combos, in the
    // nested order the serial campaign has always used.
    struct Combo
    {
        std::uint64_t seed;
        std::string workload;
        SystemKind kind;
        bool fp;
    };
    std::vector<Combo> combos;
    for (std::uint64_t seed : opts.seeds) {
        for (const std::string& workload : opts.workloads) {
            for (SystemKind kind : opts.systems) {
                for (bool fp : fp_modes)
                    combos.push_back(Combo{seed, workload, kind, fp});
            }
        }
    }

    // Phase 2: profile runs enumerate each combo's crash sites. Every
    // run owns its System outright, so combos fan across threads; the
    // per-combo result is deterministic, so the fan-out is too.
    std::vector<std::map<std::string, std::uint64_t>> sites(
        combos.size());
    parallelFor(
        combos.size(),
        [&](std::size_t i) {
            const Combo& co = combos[i];
            sites[i] = enumerateSites(fc, co.seed, co.workload, co.kind,
                                      co.fp, opts.channels);
        },
        threads);

    // Phase 3: flatten the crash plan, again in the serial order. The
    // plan — and with it every repro string — is a pure function of
    // the options, independent of the thread count.
    std::vector<FuzzCase> plan;
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const Combo& co = combos[i];
        auto& reached = result.sites_by_system[systemToken(co.kind)];
        for (const auto& [site, hits] : sites[i]) {
            reached.insert(site);
            std::vector<std::uint64_t> hit_plan = {hits};
            if (opts.first_and_last_hit && hits > 1)
                hit_plan.push_back(1);
            for (std::uint64_t hit : hit_plan) {
                for (Tick delta : opts.deltas) {
                    FuzzCase c;
                    c.seed = co.seed;
                    c.workload = co.workload;
                    c.system = co.kind;
                    c.site = site;
                    c.hit = hit;
                    c.delta = delta;
                    c.fast_path = co.fp;
                    c.channels = opts.channels;
                    plan.push_back(std::move(c));
                }
            }
        }
    }

    // Phase 4: run the crash cases, fanned across threads. Images are
    // only needed by callers replaying a single case, so each case's
    // are dropped as soon as it ends: the campaign's memory is bounded
    // by the cases in flight, not by the case count.
    std::vector<CaseResult> case_results(plan.size());
    parallelFor(
        plan.size(),
        [&](std::size_t i) {
            CaseResult& r = case_results[i];
            r = runCrashCase(fc, plan[i]);
            r.recovered_image = PagedBytes();
            r.final_image = PagedBytes();
        },
        threads);

    // Phase 5: aggregate in plan order, so the summary, the violation
    // list, and the log stream are identical for any thread count.
    for (CaseResult& r : case_results) {
        ++result.cases;
        result.repros.push_back(r.repro);
        if (r.status == CaseStatus::NotReached) {
            ++result.not_reached;
        } else if (r.status == CaseStatus::Violation) {
            if (log) {
                *log << "VIOLATION " << r.repro << "\n  " << r.detail
                     << "\n";
            }
            result.violations.push_back(std::move(r));
        }
    }
    return result;
}

} // namespace fuzz
} // namespace thynvm
