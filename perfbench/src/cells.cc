/**
 * @file
 * Workload definitions and the timed execution of cells and crash
 * cases. Everything here calls the simulator's public API only.
 */

#include "cells.hh"

#include <algorithm>
#include <random>
#include <sstream>

#include "trace.hh"
#include "util.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"

namespace perfbench {

using namespace thynvm;

namespace {

/**
 * Table 2 configuration, pinned: one channel, serial kernel. Epochs
 * are shortened with the cells (10 ms in the paper) so that every cell
 * still crosses several epoch boundaries.
 */
SystemConfig
paperConfig(SystemKind kind, const Options& opt)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.channels = 1;
    cfg.sim_threads = 1;
    cfg.phys_size = 32u << 20;
    cfg.epoch_length = opt.tiny() ? 50 * kMicrosecond : kMillisecond;
    if (opt.perturb_epoch)
        cfg.epoch_length *= 2;
    cfg.thynvm.btt_entries = 2048;
    cfg.thynvm.ptt_entries = 4096;
    return cfg;
}

std::string
cellLabel(const std::string& what, SystemKind kind)
{
    return what + "/" + fuzz::systemToken(kind);
}

MicroWorkload::Params
microParams(MicroWorkload::Pattern pattern, std::size_t array_bytes,
            std::uint32_t access_size, std::uint64_t accesses,
            std::uint64_t seed)
{
    MicroWorkload::Params mp;
    mp.pattern = pattern;
    mp.base = 0;
    mp.array_bytes = array_bytes;
    mp.access_size = access_size;
    mp.read_fraction = 0.5;
    mp.total_accesses = accesses;
    mp.seed = seed;
    return mp;
}

void
addMicroCells(std::vector<CellSpec>& out, const std::string& what,
              const MicroWorkload::Params& mp, const Options& opt)
{
    for (SystemKind kind : kAllSystemKinds) {
        out.push_back(CellSpec{
            cellLabel(what, kind), kind, paperConfig(kind, opt),
            [mp] { return std::make_unique<MicroWorkload>(mp); }});
    }
}

/** Fig. 9 KV sizing (bench_util.hh runKv) with a smaller txn count. */
KvWorkload::Params
kvParams(KvWorkload::Structure structure, std::uint32_t value_size,
         std::uint64_t txns, std::uint64_t seed)
{
    KvWorkload::Params p;
    p.structure = structure;
    p.phys_size = 32u << 20;
    p.value_size = value_size;
    p.key_space =
        std::max<std::uint64_t>(4096, (12u << 20) / (value_size + 96));
    p.initial_keys = p.key_space / 2;
    p.hash_buckets = std::max<std::uint64_t>(1024, p.key_space / 4);
    p.compute_per_txn = 6000;
    p.total_txns = txns;
    p.seed = seed;
    return p;
}

} // namespace

std::vector<CellSpec>
cellsFor(const Options& opt)
{
    std::vector<CellSpec> cells;
    const bool tiny = opt.tiny();
    const std::uint64_t seed = opt.seed;
    using P = MicroWorkload::Pattern;

    if (opt.workload == "micro_miss") {
        // Fig. 7 patterns and arrays, one tenth of the accesses.
        addMicroCells(cells, "rand",
                      microParams(P::Random, 24u << 20, 64,
                                  tiny ? 1500 : 15000, seed),
                      opt);
        addMicroCells(cells, "stream",
                      microParams(P::Streaming, 8u << 20, 64,
                                  tiny ? 3000 : 30000, seed),
                      opt);
        addMicroCells(cells, "slide",
                      microParams(P::Sliding, 24u << 20, 64,
                                  tiny ? 2500 : 25000, seed),
                      opt);
    } else if (opt.workload == "l1_resident") {
        // memspeed's resident cell: 1 KB ops over a 16 KB array.
        addMicroCells(cells, "resident",
                      microParams(P::Random, 16u << 10, 1024,
                                  tiny ? 5000 : 100000, seed),
                      opt);
    } else if (opt.workload == "kv_store") {
        const struct
        {
            const char* what;
            KvWorkload::Structure structure;
            std::uint32_t value_size;
            std::uint64_t txns;
        } kinds[] = {
            {"hash256", KvWorkload::Structure::HashTable, 256,
             tiny ? 100u : 1500u},
            {"rbtree4k", KvWorkload::Structure::RbTree, 4096,
             tiny ? 30u : 300u},
        };
        for (const auto& k : kinds) {
            const KvWorkload::Params p =
                kvParams(k.structure, k.value_size, k.txns, seed);
            for (SystemKind kind : kAllSystemKinds) {
                cells.push_back(CellSpec{
                    cellLabel(k.what, kind), kind, paperConfig(kind, opt),
                    [p] { return std::make_unique<KvWorkload>(p); }});
            }
        }
        // memspeed's gb_kv style: a large, sparse store where image
        // init dominates set-up and the paged store dominates RSS.
        SystemConfig cfg = paperConfig(SystemKind::ThyNvm, opt);
        cfg.phys_size = tiny ? (64u << 20) : (1ull << 30);
        KvWorkload::Params p;
        p.structure = KvWorkload::Structure::HashTable;
        p.phys_size = cfg.phys_size;
        p.value_size = 256;
        p.initial_keys = tiny ? 5000 : 200000;
        p.key_space = 2 * p.initial_keys;
        p.hash_buckets = 32768; // SimHeap's largest size class
        p.zipf_theta = 0.99;
        p.compute_per_txn = 200;
        p.total_txns = tiny ? 20 : 200;
        p.seed = seed;
        cells.push_back(CellSpec{
            cellLabel("sparse1g", SystemKind::ThyNvm), SystemKind::ThyNvm,
            cfg, [p] { return std::make_unique<KvWorkload>(p); }});
    }
    return cells;
}

CellSample
runCell(const CellSpec& spec, CellResult* exact)
{
    Span cell_span("harness.cell");
    CellSample s;
    std::unique_ptr<Workload> wl = spec.make_workload();
    std::unique_ptr<System> sys;

    double t0 = now();
    {
        Span span("harness.build");
        sys = std::make_unique<System>(spec.cfg, *wl);
    }
    double t1 = now();
    {
        Span span("harness.start");
        sys->start();
    }
    double t2 = now();
    {
        Span span("harness.run");
        const Tick limit = 60 * kSecond;
        if (spec.cfg.channels == 1 && spec.cfg.sim_threads == 1) {
            // System::run(d) steps while the workload is unfinished,
            // the queue non-empty and now < its start + d; slicing
            // that loop executes exactly the events of one call.
            EventQueue& eq = sys->eventq();
            const Tick end = eq.now() + limit;
            while (!sys->finished() && !eq.empty() && eq.now() < end) {
                const double ts = now();
                sys->run(std::min(kRunSlice, end - eq.now()));
                s.slice_s.push_back(now() - ts);
            }
        } else {
            sys->run(limit);
        }
    }
    double t3 = now();
    std::ostringstream dump;
    {
        Span span("harness.dump_stats");
        sys->dumpStats(dump);
    }
    double t4 = now();

    s.build_s = t1 - t0;
    s.start_s = t2 - t1;
    s.run_s = t3 - t2;
    s.dump_s = t4 - t3;
    s.finished = sys->finished();
    s.digest = statsDigest(dump.str());

    if (exact != nullptr) {
        Span span("harness.exact_outputs");
        exact->label = spec.label;
        exact->kind = spec.kind;
        exact->metrics = sys->metrics();
        exact->stats = parseStats(dump.str());
        exact->events = sys->eventq().eventsExecuted();
        exact->fast_path_schedules = sys->eventq().fastPathSchedules();
        exact->touched_pages = sys->touchedPhysPages().size();
        exact->kernel_windows = sys->kernelWindows();
        exact->kernel_messages = sys->kernelMessages();
    }
    return s;
}

// ---------------------------------------------------------------------
// Crash campaign.
// ---------------------------------------------------------------------

namespace {

struct Combo
{
    std::string workload;
    SystemKind kind;
    unsigned channels;
};

const SystemKind kCheckpointing[] = {
    SystemKind::ThyNvm, SystemKind::Journal, SystemKind::Shadow,
    SystemKind::Icl, SystemKind::Incremental,
};

/**
 * The campaign's combos: both micro patterns at one channel (crash at
 * the first and last hit of every site), Random at two channels (last
 * hit of every group and channel-0 site), over the five checkpointing
 * kinds.
 */
std::vector<Combo>
campaignCombos()
{
    std::vector<Combo> combos;
    for (const char* wl : {"rand", "slide"}) {
        for (SystemKind kind : kCheckpointing)
            combos.push_back(Combo{wl, kind, 1});
    }
    for (SystemKind kind : kCheckpointing)
        combos.push_back(Combo{"rand", kind, 2});
    return combos;
}

} // namespace

fuzz::FuzzerConfig
campaignFuzzConfig(const Options& opt)
{
    fuzz::FuzzerConfig fc;
    fc.total_accesses = opt.tiny() ? 400 : 1000;
    if (opt.perturb_epoch)
        fc.epoch_length *= 2;
    return fc;
}

CampaignRound
runCampaignRound(const Options& opt, unsigned round)
{
    Span round_span("fuzz.round");
    const fuzz::FuzzerConfig fc = campaignFuzzConfig(opt);
    CampaignRound r;

    // Planning is short next to the case phase, so it is repeated to
    // give the set-up metric as many samples per run as the cases get.
    const std::vector<Combo> combos = campaignCombos();
    std::vector<std::map<std::string, std::uint64_t>> sites(combos.size());
    r.profile_ms.resize(combos.size());
    for (unsigned rep = 0; rep < kPlanRepeats; ++rep) {
        const double plan_t0 = now();
        for (std::size_t i = 0; i < combos.size(); ++i) {
            const Combo& co = combos[i];
            const double t0 = now();
            Span span("fuzz.enumerate");
            sites[i] = fuzz::enumerateSites(fc, opt.seed, co.workload,
                                            co.kind, true, co.channels);
            r.profile_ms[i].push_back((now() - t0) * 1e3);
        }
        r.plan_s.push_back(now() - plan_t0);
    }

    std::vector<fuzz::FuzzCase> plan;
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const Combo& co = combos[i];
        for (const auto& [site, hits] : sites[i]) {
            // Channel 1's sites mirror channel 0's; crash on channel 0
            // and the group barriers only, to keep a round short.
            if (co.channels > 1 && site.rfind("ch1.", 0) == 0)
                continue;
            r.sites.insert(std::string(fuzz::systemToken(co.kind)) + ":" +
                           site);
            std::vector<std::uint64_t> hit_plan = {hits};
            if (co.channels == 1 && hits > 1)
                hit_plan.push_back(1);
            for (std::uint64_t hit : hit_plan) {
                fuzz::FuzzCase c;
                c.seed = opt.seed;
                c.workload = co.workload;
                c.system = co.kind;
                c.site = site;
                c.hit = hit;
                c.fast_path = true;
                c.channels = co.channels;
                plan.push_back(std::move(c));
            }
        }
    }

    // Execute on this thread, one case at a time: on two workers a
    // case's time depended on the case running beside it (README.md).
    // Each round runs the plan in its own shuffled order, so the rounds
    // sample a case at different moments of host load.
    std::vector<std::size_t> order(plan.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(opt.seed * 1000003 + round);
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<fuzz::CaseStatus> status(plan.size());
    std::vector<double> case_ms(plan.size());
    for (std::size_t i : order) {
        Span span(plan[i].channels == 1 ? "fuzz.case.ch1" : "fuzz.case.ch2");
        const double t0 = now();
        status[i] = fuzz::runCrashCase(fc, plan[i]).status;
        case_ms[i] = (now() - t0) * 1e3;
    }

    Digest digest;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        (plan[i].channels == 1 ? r.case_ms_ch1 : r.case_ms_ch2)
            .push_back(case_ms[i]);
        ++r.cases;
        if (status[i] == fuzz::CaseStatus::NotReached)
            ++r.not_reached;
        else if (status[i] == fuzz::CaseStatus::Violation)
            ++r.violations;
        digest.add(fuzz::formatRepro(plan[i]) + "|" +
                   std::to_string(static_cast<int>(status[i])) + "\n");
    }
    r.digest = digest.hex();
    return r;
}

std::vector<double>
campaignProfileSimMs(const Options& opt)
{
    const fuzz::FuzzerConfig fc = campaignFuzzConfig(opt);
    std::vector<double> out;
    for (const Combo& co : campaignCombos()) {
        MicroWorkload inner(fuzz::microParams(fc, opt.seed, co.workload));
        fuzz::RecordingWorkload wl(inner);
        SystemConfig cfg =
            fuzz::makeSystemConfig(fc, co.kind, true, co.channels);
        cfg.sim_threads = 1;
        System sys(cfg, wl);
        sys.start();
        sys.run(fc.run_limit);
        out.push_back(static_cast<double>(sys.metrics().exec_time) /
                      static_cast<double>(kMillisecond));
    }
    return out;
}

} // namespace perfbench
