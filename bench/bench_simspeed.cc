/**
 * @file
 * Simulator-throughput tracker: how fast does the host execute the
 * discrete-event kernel itself?
 *
 * Two sections:
 *
 *  1. Per-cell serial baseline — replays the Figure 7 micro-benchmark
 *     cells one at a time and reports kernel events per host second and
 *     host seconds per simulated millisecond.
 *
 *  2. Channel sweep — ONE System (Random/ThyNVM) at 1/2/4 memory
 *     channels, reporting events across the core and every channel
 *     queue, and the cross-channel messages those queues exchanged.
 *
 * Results are written as machine-readable JSON to BENCH_simspeed.json
 * (in the working directory) so the performance trajectory of the
 * simulation substrate is tracked from PR to PR; EXPERIMENTS.md records
 * the history.
 *
 * This binary deliberately ignores THYNVM_BENCH_THREADS: host-side
 * fan-out would perturb the per-run timing it exists to measure, so
 * every run here is on one host thread.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"

namespace {

using namespace thynvm;
using namespace thynvm::bench;

using Clock = std::chrono::steady_clock;

const char*
patternName(MicroWorkload::Pattern p)
{
    switch (p) {
      case MicroWorkload::Pattern::Random: return "Random";
      case MicroWorkload::Pattern::Streaming: return "Streaming";
      case MicroWorkload::Pattern::Sliding: return "Sliding";
    }
    return "?";
}

struct SpeedResult
{
    std::string label;
    std::uint64_t events = 0;
    double host_seconds = 0.0;
    double sim_ms = 0.0;
    double events_per_sec = 0.0;
    double host_sec_per_sim_ms = 0.0;
    /** Process peak RSS after the cell (monotone across cells). */
    std::uint64_t peak_rss_bytes = 0;
};

MicroWorkload::Params
cellParams(MicroWorkload::Pattern pattern)
{
    const MicroScale scale = microScale(pattern);
    MicroWorkload::Params mp;
    mp.pattern = pattern;
    mp.base = 0;
    mp.array_bytes = scale.array_bytes;
    mp.access_size = 64;
    mp.read_fraction = 0.5;
    mp.total_accesses = scale.accesses;
    mp.seed = 1;
    return mp;
}

SpeedResult
measure(SystemKind kind, MicroWorkload::Pattern pattern)
{
    const SystemConfig cfg = paperSystem(kind);
    MicroWorkload wl(cellParams(pattern));
    System sys(cfg, wl);

    const auto t0 = Clock::now();
    sys.start();
    sys.run(60 * kSecond);
    const double host =
        std::chrono::duration<double>(Clock::now() - t0).count();
    fatal_if(!sys.finished(), "simspeed run did not complete");

    SpeedResult r;
    r.label = std::string(patternName(pattern)) + "/" +
              systemKindName(kind);
    r.events = sys.eventq().eventsExecuted();
    r.host_seconds = host;
    r.sim_ms = static_cast<double>(sys.metrics().exec_time) /
               static_cast<double>(kMillisecond);
    r.events_per_sec =
        host > 0.0 ? static_cast<double>(r.events) / host : 0.0;
    r.host_sec_per_sim_ms = r.sim_ms > 0.0 ? host / r.sim_ms : 0.0;
    r.peak_rss_bytes = peakRssBytes();
    return r;
}

/** One channel-sweep cell: a single System at C channels. */
struct ChannelCell
{
    unsigned channels = 1;
    std::uint64_t events = 0;
    double host_seconds = 0.0;
    double events_per_sec = 0.0;
    Tick final_tick = 0;
    /** Cross-channel messages (0 on one channel). */
    std::uint64_t messages = 0;
};

/** Events executed across the core queue and every channel queue. */
std::uint64_t
totalEvents(System& sys)
{
    std::uint64_t ev = sys.eventq().eventsExecuted();
    if (sys.channels() > 1) {
        auto& grp = static_cast<ChannelGroup&>(sys.controller());
        for (unsigned i = 0; i < grp.channelCount(); ++i)
            ev += grp.channelEventq(i).eventsExecuted();
    }
    return ev;
}

ChannelCell
measureChannelCell(unsigned channels)
{
    SystemConfig cfg = paperSystem(SystemKind::ThyNvm);
    cfg.channels = channels;
    MicroWorkload wl(cellParams(MicroWorkload::Pattern::Random));
    System sys(cfg, wl);

    const auto t0 = Clock::now();
    sys.start();
    const Tick end = sys.run(60 * kSecond);
    const double host =
        std::chrono::duration<double>(Clock::now() - t0).count();
    fatal_if(!sys.finished(), "channel-sweep run did not complete");

    ChannelCell r;
    r.channels = channels;
    r.events = totalEvents(sys);
    r.host_seconds = host;
    r.events_per_sec =
        host > 0.0 ? static_cast<double>(r.events) / host : 0.0;
    r.final_tick = end;
    r.messages = sys.kernelMessages();
    return r;
}

} // namespace

int
main()
{
    const std::vector<MicroWorkload::Pattern> patterns = {
        MicroWorkload::Pattern::Random,
        MicroWorkload::Pattern::Streaming,
        MicroWorkload::Pattern::Sliding,
    };

    heading("Simulator speed: fig7 micro cells, single host thread");
    std::printf("%-24s %14s %10s %14s %16s\n", "cell", "events",
                "host_s", "events/s", "host_s/sim_ms");

    std::vector<SpeedResult> results;
    std::uint64_t total_events = 0;
    double total_host = 0.0;
    double total_sim_ms = 0.0;
    for (auto pattern : patterns) {
        for (auto kind : allSystems()) {
            SpeedResult r = measure(kind, pattern);
            std::printf("%-24s %14llu %10.2f %14.0f %16.4f\n",
                        r.label.c_str(),
                        static_cast<unsigned long long>(r.events),
                        r.host_seconds, r.events_per_sec,
                        r.host_sec_per_sim_ms);
            total_events += r.events;
            total_host += r.host_seconds;
            total_sim_ms += r.sim_ms;
            results.push_back(std::move(r));
        }
    }

    const double agg_eps =
        total_host > 0.0 ? static_cast<double>(total_events) / total_host
                         : 0.0;
    const double agg_spms =
        total_sim_ms > 0.0 ? total_host / total_sim_ms : 0.0;
    std::printf("%-24s %14llu %10.2f %14.0f %16.4f\n", "TOTAL",
                static_cast<unsigned long long>(total_events), total_host,
                agg_eps, agg_spms);

    const unsigned host_threads = std::thread::hardware_concurrency();
    heading("Channel sweep: one Random/ThyNVM System");
    std::printf("%-10s %14s %10s %14s %10s\n", "channels", "events",
                "host_s", "events/s", "messages");

    std::vector<ChannelCell> channel_sweep;
    for (unsigned channels : {1u, 2u, 4u}) {
        const ChannelCell c = measureChannelCell(channels);
        std::printf("%-10u %14llu %10.2f %14.0f %10llu\n", c.channels,
                    static_cast<unsigned long long>(c.events),
                    c.host_seconds, c.events_per_sec,
                    static_cast<unsigned long long>(c.messages));
        channel_sweep.push_back(c);
    }

    FILE* f = std::fopen("BENCH_simspeed.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_simspeed.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"simspeed\",\n");
    std::fprintf(f, "  \"workload\": \"fig7_micro\",\n");
    std::fprintf(f, "  \"host_threads\": %u,\n", host_threads);
    std::fprintf(f, "  \"total\": {\"events\": %llu, \"host_seconds\": "
                    "%.3f, \"events_per_sec\": %.0f, "
                    "\"host_sec_per_sim_ms\": %.5f},\n",
                 static_cast<unsigned long long>(total_events),
                 total_host, agg_eps, agg_spms);
    std::fprintf(f, "  \"channel_sweep\": [\n");
    for (std::size_t i = 0; i < channel_sweep.size(); ++i) {
        const ChannelCell& c = channel_sweep[i];
        std::fprintf(f,
                     "    {\"channels\": %u, \"events\": %llu, "
                     "\"host_seconds\": %.3f, \"events_per_sec\": %.0f, "
                     "\"final_tick\": %llu, \"messages\": %llu}%s\n",
                     c.channels,
                     static_cast<unsigned long long>(c.events),
                     c.host_seconds, c.events_per_sec,
                     static_cast<unsigned long long>(c.final_tick),
                     static_cast<unsigned long long>(c.messages),
                     i + 1 == channel_sweep.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SpeedResult& r = results[i];
        std::fprintf(f,
                     "    {\"label\": \"%s\", \"events\": %llu, "
                     "\"host_seconds\": %.3f, \"sim_ms\": %.3f, "
                     "\"events_per_sec\": %.0f, "
                     "\"host_sec_per_sim_ms\": %.5f, "
                     "\"peak_rss_bytes\": %llu}%s\n",
                     r.label.c_str(),
                     static_cast<unsigned long long>(r.events),
                     r.host_seconds, r.sim_ms, r.events_per_sec,
                     r.host_sec_per_sim_ms,
                     static_cast<unsigned long long>(r.peak_rss_bytes),
                     i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_simspeed.json\n");
    return 0;
}
