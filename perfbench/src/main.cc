/**
 * @file
 * perfbench: one workload of the layered simulator benchmark, in one
 * process.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--scale full|tiny] [--rounds <n>] [--perturb-epoch]
 *             [--spans-out <file>]
 *
 * A workload is a fixed list of simulated cells (or, for
 * crash_campaign, a crash-case plan). One round executes every cell
 * once from a fresh System; rounds repeat until --seconds is spent
 * (at least three). Each host time is taken at its fastest round (a
 * cell's run slice by slice, cells.hh) and the end-to-end ones are
 * scaled to the reference clock (util.hh; README.md says why). Every
 * execution's stats digest is reported so the caller can check it
 * against the recorded one.
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 alternates
 * untraced rounds with traced ones (spans around every call into the
 * simulator), runs the standalone layer drivers, and reports the
 * per-layer metrics plus span self times and the tracing overhead.
 *
 * The last stdout line is one JSON object; run.py consumes it.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "cells.hh"
#include "drivers.hh"
#include "trace.hh"
#include "util.hh"
#include "workloads/micro.hh"

using namespace thynvm;
using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char* msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "micro_miss|l1_resident|kv_store|crash_campaign "
                 "--seed N --seconds S --trace 0|1 [--scale full|tiny] "
                 "[--rounds N] [--perturb-epoch] [--spans-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--seed")
            o.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = value() == "1";
        else if (a == "--scale")
            o.scale = value();
        else if (a == "--rounds")
            o.rounds = static_cast<unsigned>(std::atoi(value().c_str()));
        else if (a == "--spans-out")
            o.spans_out = value();
        else if (a == "--perturb-epoch")
            o.perturb_epoch = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.workload != "micro_miss" && o.workload != "l1_resident" &&
        o.workload != "kv_store" && o.workload != "crash_campaign")
        usage("unknown workload");
    if (o.scale != "full" && o.scale != "tiny")
        usage("unknown scale");
    if (o.seconds <= 0.0)
        usage("--seconds must be positive");
    return o;
}

/**
 * Repeat @p round until @p budget host seconds are spent, with at
 * least three rounds (or exactly opt.rounds when set).
 */
template <typename Fn>
unsigned
repeatRounds(const Options& opt, double budget, Fn&& round)
{
    const double t0 = now();
    unsigned rounds = 0;
    for (;;) {
        hostClock().sample();
        round();
        ++rounds;
        if (opt.rounds != 0) {
            if (rounds >= opt.rounds)
                break;
            continue;
        }
        const double spent = now() - t0;
        if (rounds >= 3 && spent + spent / rounds > budget)
            break;
    }
    return rounds;
}

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
emitMetrics(Json& j, const char* key, const std::vector<Metric>& ms)
{
    j.beginObject(key);
    for (const Metric& m : ms) {
        j.beginObject(m.name.c_str());
        j.num("value", m.value);
        j.str("unit", m.unit);
        j.endObject();
    }
    j.endObject();
}

/** Per cell, the minimum over rounds of @p pick. */
std::vector<double>
fastestPerCell(const std::vector<CellResult>& cells,
               double (*pick)(const CellSample&))
{
    std::vector<double> out;
    for (const CellResult& c : cells) {
        std::vector<double> v;
        for (const CellSample& s : c.samples)
            v.push_back(pick(s));
        out.push_back(minimum(v));
    }
    return out;
}

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * Per cell, its run time with every slice at its fastest over rounds;
 * the fastest whole run when the cell is not sliced (or, which the
 * digest check would flag, its slice count varied).
 */
std::vector<double>
runPerCell(const std::vector<CellResult>& cells)
{
    std::vector<double> out;
    for (const CellResult& c : cells) {
        std::vector<std::vector<double>> slices;
        std::vector<double> whole;
        bool aligned = !c.samples.empty();
        for (const CellSample& s : c.samples) {
            slices.push_back(s.slice_s);
            whole.push_back(s.run_s);
            aligned = aligned && !s.slice_s.empty() &&
                      s.slice_s.size() == c.samples.front().slice_s.size();
        }
        out.push_back(aligned ? sum(minimumPerOp(slices)) : minimum(whole));
    }
    return out;
}

/**
 * Host ms of every crash case at its fastest round. Every round runs
 * the same plan, so case i is the same crash case in every round.
 */
std::vector<double>
caseMsPerCase(const std::vector<CampaignRound>& rounds)
{
    std::vector<std::vector<double>> rows;
    for (const CampaignRound& r : rounds) {
        rows.push_back(r.case_ms_ch1);
        rows.back().insert(rows.back().end(), r.case_ms_ch2.begin(),
                           r.case_ms_ch2.end());
    }
    return minimumPerOp(rows);
}

/**
 * Sum, over every cell, of the stats whose name ends with @p suffix
 * (".nvm.reads" also covers each channel's "sys.ctrl.ch0.nvm.reads").
 */
double
statSum(const std::vector<CellResult>& cells, const std::string& suffix)
{
    double s = 0.0;
    for (const CellResult& c : cells) {
        for (const auto& [name, value] : c.stats) {
            if (name.size() >= suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0)
                s += value;
        }
    }
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Kind token usable in a metric name ("ideal-dram" -> "ideal_dram"). */
std::string
kindKey(SystemKind kind)
{
    std::string s = fuzz::systemToken(kind);
    for (char& c : s) {
        if (c == '-')
            c = '_';
    }
    return s;
}

void
runAll(std::vector<CellResult>& results, const std::vector<CellSpec>& specs)
{
    Span span("harness.round");
    for (std::size_t i = 0; i < specs.size(); ++i) {
        CellResult& r = results[i];
        r.samples.push_back(
            runCell(specs[i], r.samples.empty() ? &r : nullptr));
    }
}

/** The 2-channel crash-campaign profile cell (ThyNVM, Random). */
CellSpec
campaignProfileCell(const Options& opt)
{
    const fuzz::FuzzerConfig fc = campaignFuzzConfig(opt);
    SystemConfig cfg =
        fuzz::makeSystemConfig(fc, SystemKind::ThyNvm, true, 2);
    cfg.sim_threads = 1;
    const MicroWorkload::Params mp = fuzz::microParams(fc, opt.seed, "rand");
    return CellSpec{"profile-ch2/thynvm", SystemKind::ThyNvm, cfg,
                    [mp] { return std::make_unique<MicroWorkload>(mp); }};
}

/** Crash + recover a ThyNVM cell once; returns {crash_ms, recover_ms}. */
std::pair<double, double>
crashRecover(const CellSpec& spec)
{
    Span span("harness.crash_recover");
    std::unique_ptr<Workload> wl = spec.make_workload();
    auto sys = std::make_unique<System>(spec.cfg, *wl);
    sys->start();
    // Stop mid-run so recovery has a real epoch to roll back to.
    sys->run(2 * spec.cfg.epoch_length + spec.cfg.epoch_length / 2);
    double t0 = now();
    std::shared_ptr<BackingStore> nvm;
    {
        Span s("harness.crash");
        nvm = sys->crash();
    }
    const double crash_ms = (now() - t0) * 1e3;
    sys.reset();
    t0 = now();
    {
        Span s("harness.recover");
        System rebooted(spec.cfg, *wl, nvm);
        rebooted.recoverAndResume();
    }
    return {crash_ms, (now() - t0) * 1e3};
}

const char* const kSpanLayers[] = {"harness",   "sim",  "mem",
                                   "cache",     "workloads", "core",
                                   "baselines", "fuzz"};

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parseArgs(argc, argv);
    const bool campaign = opt.workload == "crash_campaign";
    const std::vector<CellSpec> specs =
        campaign ? std::vector<CellSpec>{campaignProfileCell(opt)}
                 : cellsFor(opt);
    // The campaign's profile cell only feeds the per-layer metrics, so
    // it runs only in the traced invocation.
    std::vector<CellResult> cells(campaign && !opt.trace ? 0 : specs.size());
    std::vector<CampaignRound> camp;
    std::vector<double> campaign_sim_ms;
    if (campaign)
        campaign_sim_ms = campaignProfileSimMs(opt);

    // Untraced rounds; a traced run follows each with a traced round of
    // the same work, so both sample the same phases of host load.
    std::vector<CellResult> tcells(opt.trace ? specs.size() : 0);
    std::vector<CampaignRound> tcamp;
    const unsigned rounds = repeatRounds(opt, opt.seconds, [&] {
        if (campaign)
            camp.push_back(runCampaignRound(opt, camp.size()));
        if (!cells.empty())
            runAll(cells, specs);
        if (opt.trace) {
            Tracer::get().setEnabled(true);
            if (campaign)
                tcamp.push_back(runCampaignRound(opt, tcamp.size()));
            runAll(tcells, specs);
            Tracer::get().setEnabled(false);
        }
    });

    const std::vector<double> cell_run = runPerCell(cells);
    const std::vector<double> cell_setup = fastestPerCell(
        cells, [](const CellSample& s) { return s.build_s + s.start_s; });
    const double cells_run_s = sum(cell_run);

    double run_s = 0.0;
    std::vector<Metric> e2e;
    std::vector<double> sim_ms_by_cell;
    double sim_ms = 0.0, nvm_write_mb = 0.0;
    for (const CellResult& c : cells) {
        const double ms = static_cast<double>(c.metrics.exec_time) /
                          static_cast<double>(kMillisecond);
        sim_ms_by_cell.push_back(ms);
        sim_ms += ms;
        nvm_write_mb +=
            static_cast<double>(c.metrics.nvm_wr_total) / (1024.0 * 1024.0);
    }

    if (campaign) {
        std::vector<double> plan;
        for (const CampaignRound& r : camp)
            plan.insert(plan.end(), r.plan_s.begin(), r.plan_s.end());
        const std::vector<double> all_cases = caseMsPerCase(camp);
        std::vector<double> host_per_sim;
        for (std::size_t i = 0; i < campaign_sim_ms.size(); ++i) {
            std::vector<double> v;
            for (const CampaignRound& r : camp)
                v.insert(v.end(), r.profile_ms[i].begin(),
                         r.profile_ms[i].end());
            host_per_sim.push_back(ratio(minimum(v), campaign_sim_ms[i]));
        }
        // Like a cell workload's, the sum over its ops: crash cases,
        // each at its fastest round.
        run_s = sum(all_cases) / 1e3;
        e2e = {{"run_s", run_s, "s"},
               {"setup_s", minimum(plan), "s"},
               {"host_ms_per_sim_ms", geomean(host_per_sim), "ms/ms"},
               {"cases_per_s",
                ratio(static_cast<double>(camp.front().cases), run_s),
                "1/s"},
               {"case_ms_p50", quantile(all_cases, 0.5), "ms"},
               {"case_ms_p90", quantile(all_cases, 0.9), "ms"},
               {"case_samples", static_cast<double>(all_cases.size()),
                "count"}};
        sim_ms = sum(campaign_sim_ms);
    } else {
        // The cells are distinct fixed ops, so the percentiles are taken
        // across cells, each at its minimum over rounds, as they are
        // across crash cases above.
        std::vector<double> host_per_sim, cell_ms;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            host_per_sim.push_back(
                ratio(cell_run[i] * 1e3, sim_ms_by_cell[i]));
            cell_ms.push_back(cell_run[i] * 1e3);
        }
        run_s = cells_run_s;
        e2e = {{"run_s", run_s, "s"},
               {"setup_s", sum(cell_setup), "s"},
               {"host_ms_per_sim_ms", geomean(host_per_sim), "ms/ms"},
               {"cases_per_s", ratio(static_cast<double>(cells.size()),
                                     run_s),
                "1/s"},
               {"case_ms_p50", quantile(cell_ms, 0.5), "ms"},
               {"case_ms_p90", quantile(cell_ms, 0.9), "ms"},
               {"case_samples", static_cast<double>(cell_ms.size()),
                "count"}};
    }
    // Host times at the reference host's clock (util.hh).
    const double clock_scale = hostClock().scale();
    for (Metric& m : e2e) {
        const std::string unit = m.unit;
        if (unit == "s" || unit == "ms" || unit == "ms/ms")
            m.value *= clock_scale;
        else if (unit == "1/s")
            m.value /= clock_scale;
    }
    e2e.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    e2e.push_back({"sim_ms", sim_ms, "ms"});
    e2e.push_back({"nvm_write_mb", nvm_write_mb, "MB"});

    std::vector<Metric> layers;
    std::map<std::string, double> span_self;
    std::size_t span_count = 0;
    unsigned traced_rounds = 0;
    std::vector<std::string> controller_check;
    if (opt.trace) {
        traced_rounds = rounds;
        Tracer::get().setEnabled(true);
        double traced_run_s = 0.0;
        if (campaign) {
            traced_run_s = sum(caseMsPerCase(tcamp)) / 1e3;
        } else {
            traced_run_s = sum(runPerCell(tcells));
        }
        // Standalone layer drivers, fed the first cell's workload.
        const CellSpec& first = specs.front();
        const GeneratorRun gen = runGenerator(
            first.make_workload, opt.workload == "kv_store",
            first.cfg.phys_size, opt.tiny() ? 20000 : 200000,
            opt.tiny() ? 4000 : 40000);
        const double sim_drv = eventQueueNsPerEvent(opt.tiny() ? 200000
                                                               : 2000000);
        const double dev_drv =
            deviceNsPerRequest(opt.tiny() ? 50000 : 500000);
        const StoreCost store = pagedStoreCost(opt.tiny() ? 2048 : 16384);
        const CacheCost cache =
            cacheCost(gen.blocks, opt.tiny() ? 100000 : 1000000);
        std::map<SystemKind, ControllerCost> ctrl;
        for (SystemKind kind : kAllSystemKinds) {
            SystemConfig c = first.cfg;
            c.kind = kind;
            c.channels = 1;
            ctrl[kind] = controllerCost(c, gen.blocks);
            std::unique_ptr<Workload> wl = first.make_workload();
            const std::string diff = controllerMismatch(c, *wl);
            if (!diff.empty())
                controller_check.push_back(kindKey(kind) + ": " + diff);
        }
        const CellSpec* thy = &first;
        for (const CellSpec& s : specs) {
            if (s.kind == SystemKind::ThyNvm) {
                thy = &s;
                break;
            }
        }
        const auto [crash_ms, recover_ms] = crashRecover(*thy);
        Tracer::get().setEnabled(false);

        // Exact counts from the cells.
        double events = 0, fast_sched = 0, touched = 0, windows = 0,
               messages = 0;
        for (const CellResult& c : cells) {
            events += static_cast<double>(c.events);
            fast_sched += static_cast<double>(c.fast_path_schedules);
            touched += static_cast<double>(c.touched_pages);
            windows += static_cast<double>(c.kernel_windows);
            messages += static_cast<double>(c.kernel_messages);
        }
        auto dev = [&](const char* d, const char* s) {
            return statSum(cells, std::string(".") + d + "." + s);
        };
        auto rowHit = [&](const char* d) {
            const double hits = dev(d, "row_hits");
            return ratio(hits, hits + dev(d, "row_misses_clean") +
                                   dev(d, "row_misses_dirty"));
        };
        auto hitRatio = [&](const char* l) {
            const double h = statSum(cells, std::string("sys.") + l + ".hits");
            const double m =
                statSum(cells, std::string("sys.") + l + ".misses");
            return ratio(h, h + m);
        };
        const double cpu_ops =
            statSum(cells, "sys.cpu.loads") + statSum(cells, "sys.cpu.stores");
        const double dev_reqs = dev("nvm", "reads") + dev("nvm", "writes") +
                                dev("dram", "reads") + dev("dram", "writes");
        double cache_ns = 0.0;
        for (const char* l : {"l1", "l2", "l3"}) {
            cache_ns +=
                statSum(cells, std::string("sys.") + l + ".hits") *
                    cache.ns_per_hit +
                statSum(cells, std::string("sys.") + l + ".misses") *
                    cache.ns_per_miss;
        }

        layers = {
            {"sim.events", events, "count"},
            {"sim.fast_path_schedules", fast_sched, "count"},
            {"sim.ns_per_event", ratio(cells_run_s * 1e9, events), "ns"},
            {"sim.driver.ns_per_event", sim_drv, "ns"},
            {"sim.kernel_windows", windows, "count"},
            {"sim.kernel_messages", messages, "count"},
            {"mem.nvm.reads", dev("nvm", "reads"), "count"},
            {"mem.nvm.writes", dev("nvm", "writes"), "count"},
            {"mem.nvm.row_hit_ratio", rowHit("nvm"), "ratio"},
            {"mem.dram.reads", dev("dram", "reads"), "count"},
            {"mem.dram.writes", dev("dram", "writes"), "count"},
            {"mem.dram.row_hit_ratio", rowHit("dram"), "ratio"},
            {"mem.device.ns_per_req", dev_drv, "ns"},
            {"mem.store.touched_pages", touched, "count"},
            {"mem.store.ns_per_page_write", store.ns_per_page_write, "ns"},
            {"mem.store.ns_per_clone_page", store.ns_per_clone_page, "ns"},
            {"cache.l1.hit_ratio", hitRatio("l1"), "ratio"},
            {"cache.l2.hit_ratio", hitRatio("l2"), "ratio"},
            {"cache.l3.hit_ratio", hitRatio("l3"), "ratio"},
            {"cache.writebacks",
             statSum(cells, "sys.l1.writebacks") +
                 statSum(cells, "sys.l2.writebacks") +
                 statSum(cells, "sys.l3.writebacks"),
             "count"},
            {"cache.driver.ns_per_hit", cache.ns_per_hit, "ns"},
            {"cache.driver.ns_per_miss", cache.ns_per_miss, "ns"},
            {"cache.fast_ratio", cache.fast_ratio, "ratio"},
            {"cpu.ops", cpu_ops, "count"},
            {"cpu.instructions", statSum(cells, "sys.cpu.instructions"),
             "count"},
            {"workloads.ns_per_op", gen.ns_per_op, "ns"},
            {"workloads.init_s",
             sum(fastestPerCell(cells,
                               [](const CellSample& s) { return s.start_s; })),
             "s"},
        };
        for (SystemKind kind : kAllSystemKinds) {
            const std::string p =
                (kind == SystemKind::ThyNvm ? "core." : "baselines.") +
                kindKey(kind) + ".";
            const ControllerCost& c = ctrl[kind];
            // Exact epoch behaviour from the workload's own cells of
            // this kind; the campaign has none, so its driver run's.
            double epochs = 0, stall = 0, exec = 0, media = 0, app = 0;
            bool have_cells = false;
            for (const CellResult& cr : cells) {
                if (cr.kind != kind || campaign)
                    continue;
                have_cells = true;
                const RunMetrics& m = cr.metrics;
                epochs += static_cast<double>(m.epochs);
                stall += m.ckpt_time_frac * static_cast<double>(m.exec_time);
                exec += static_cast<double>(m.exec_time);
                media += m.write_amp * static_cast<double>(m.app_wr_bytes);
                app += static_cast<double>(m.app_wr_bytes);
            }
            layers.push_back({p + "ns_per_access", c.ns_per_access, "ns"});
            layers.push_back({p + "ns_per_ckpt", c.ns_per_ckpt, "ns"});
            layers.push_back(
                {p + "epochs",
                 have_cells ? epochs : static_cast<double>(c.epochs),
                 "count"});
            layers.push_back(
                {p + "ckpt_time_frac",
                 have_cells ? ratio(stall, exec) : c.ckpt_time_frac,
                 "ratio"});
            layers.push_back({p + "write_amp",
                              have_cells ? ratio(media, app) : c.write_amp,
                              "ratio"});
        }
        auto cellMs = [&](double (*pick)(const CellSample&)) {
            return sum(fastestPerCell(cells, pick)) * 1e3;
        };
        layers.push_back(
            {"harness.build_ms",
             cellMs([](const CellSample& s) { return s.build_s; }), "ms"});
        layers.push_back(
            {"harness.start_ms",
             cellMs([](const CellSample& s) { return s.start_s; }), "ms"});
        layers.push_back({"harness.crash_ms", crash_ms, "ms"});
        layers.push_back({"harness.recover_ms", recover_ms, "ms"});
        layers.push_back(
            {"harness.dump_stats_ms",
             cellMs([](const CellSample& s) { return s.dump_s; }), "ms"});

        std::vector<double> plan;
        std::vector<std::vector<double>> ch1, ch2;
        double cases = 0, sites = 0, not_reached = 0, violations = 0;
        for (const CampaignRound& r : camp) {
            for (double s : r.plan_s)
                plan.push_back(s * 1e3);
            ch1.push_back(r.case_ms_ch1);
            ch2.push_back(r.case_ms_ch2);
            cases = static_cast<double>(r.cases);
            sites = static_cast<double>(r.sites.size());
            not_reached += static_cast<double>(r.not_reached);
            violations += static_cast<double>(r.violations);
        }
        layers.push_back(
            {"fuzz.enumerate_ms", minimum(plan), "ms"});
        layers.push_back(
            {"fuzz.case_ms.ch1", median(minimumPerOp(ch1)), "ms"});
        layers.push_back(
            {"fuzz.case_ms.ch2", median(minimumPerOp(ch2)), "ms"});
        layers.push_back({"fuzz.cases", cases, "count"});
        layers.push_back({"fuzz.sites_reached", sites, "count"});
        layers.push_back({"fuzz.not_reached", not_reached, "count"});
        layers.push_back({"fuzz.violations", violations, "count"});

        // Estimates: count x standalone cost / the cells' run time.
        const double run_ns = cells_run_s * 1e9;
        const double a_sim = ratio(events * sim_drv, run_ns);
        const double a_mem = ratio(dev_reqs * dev_drv, run_ns);
        const double a_cache = ratio(cache_ns, run_ns);
        const double a_wl = ratio(cpu_ops * gen.ns_per_op, run_ns);
        layers.push_back({"attrib.sim.share", a_sim, "ratio"});
        layers.push_back({"attrib.mem.share", a_mem, "ratio"});
        layers.push_back({"attrib.cache.share", a_cache, "ratio"});
        layers.push_back({"attrib.workloads.share", a_wl, "ratio"});
        layers.push_back({"attrib.unexplained",
                          1.0 - a_sim - a_mem - a_cache - a_wl, "ratio"});

        span_self = Tracer::get().selfSecondsByName();
        span_count = Tracer::get().spans().size();
        layers.push_back({"trace.overhead_s", traced_run_s - run_s, "s"});
        layers.push_back({"trace.run_s_traced", traced_run_s, "s"});
        layers.push_back({"trace.spans", static_cast<double>(span_count),
                          "count"});
        for (const char* layer : kSpanLayers) {
            double self = 0.0;
            const std::string prefix = std::string(layer) + ".";
            for (const auto& [name, secs] : span_self) {
                if (name.rfind(prefix, 0) == 0)
                    self += secs;
            }
            layers.push_back({std::string("trace.self_ms.") + layer,
                              self * 1e3, "ms"});
        }
        layers.push_back({"out.sim_ms", sim_ms, "ms"});
        layers.push_back({"out.nvm_write_mb", nvm_write_mb, "MB"});
        layers.push_back(
            {"host.clock_floor_ms", hostClock().floor() * 1e3, "ms"});

        // The traced rounds must reproduce every untraced digest. They
        // join the ops only now, so every timing above is untraced.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            for (const CellSample& s : tcells[i].samples)
                cells[i].samples.push_back(s);
        }
        camp.insert(camp.end(), tcamp.begin(), tcamp.end());
    }

    Json j;
    j.beginObject();
    j.str("workload", opt.workload);
    j.num("seed", static_cast<double>(opt.seed));
    j.str("scale", opt.scale);
    j.boolean("trace", opt.trace);
    j.boolean("perturb_epoch", opt.perturb_epoch);
    j.num("rounds", rounds);
    j.num("traced_rounds", traced_rounds);
    j.num("clock_floor_ms", hostClock().floor() * 1e3);
    j.num("clock_scale", clock_scale);
    j.beginObject("provenance");
    j.str("build_type", PERFBENCH_BUILD_TYPE);
    j.str("opt_flags", PERFBENCH_OPT_FLAGS);
    j.num("host_threads", std::thread::hardware_concurrency());
    j.endObject();
    // Ops: every execution of every cell or crash case, with digests.
    j.beginArray("ops");
    for (const CellResult& c : cells) {
        j.beginObject();
        j.str("label", c.label);
        j.beginArray("digests");
        for (const CellSample& s : c.samples)
            j.str(s.digest);
        j.endArray();
        j.beginArray("run_ms");
        for (const CellSample& s : c.samples)
            j.num(s.run_s * 1e3);
        j.endArray();
        j.beginArray("setup_ms");
        for (const CellSample& s : c.samples)
            j.num((s.build_s + s.start_s) * 1e3);
        j.endArray();
        j.num("unfinished",
              static_cast<double>(std::count_if(
                  c.samples.begin(), c.samples.end(),
                  [](const CellSample& s) { return !s.finished; })));
        j.endObject();
    }
    j.endArray();
    j.beginArray("campaign");
    for (const CampaignRound& r : camp) {
        j.beginObject();
        j.str("digest", r.digest);
        j.num("cases", static_cast<double>(r.cases));
        j.num("not_reached", static_cast<double>(r.not_reached));
        j.num("violations", static_cast<double>(r.violations));
        j.beginArray("plan_ms");
        for (double s : r.plan_s)
            j.num(s * 1e3);
        j.endArray();
        j.endObject();
    }
    j.endArray();
    // Kinds whose controller driver no longer builds what System does.
    j.beginArray("controller_check");
    for (const std::string& m : controller_check)
        j.str(m);
    j.endArray();
    emitMetrics(j, "end_to_end", e2e);
    emitMetrics(j, "per_layer", layers);
    j.beginObject("span_self_ms");
    for (const auto& [name, secs] : span_self)
        j.num(name.c_str(), secs * 1e3);
    j.endObject();
    j.endObject();
    std::printf("%s\n", j.text().c_str());

    if (opt.trace && !opt.spans_out.empty()) {
        // Every span, as [name, start_s, end_s, parent index].
        Json sj;
        sj.beginArray();
        for (const SpanRecord& s : Tracer::get().spans()) {
            sj.beginArray();
            sj.str(s.name);
            sj.num(s.start);
            sj.num(s.end);
            sj.num(s.parent);
            sj.endArray();
        }
        sj.endArray();
        FILE* f = std::fopen(opt.spans_out.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", opt.spans_out.c_str());
            return 1;
        }
        std::fprintf(f, "%s\n", sj.text().c_str());
        std::fclose(f);
    }
    return 0;
}
