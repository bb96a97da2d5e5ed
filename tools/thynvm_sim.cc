/**
 * @file
 * thynvm_sim — command-line front end for the simulator.
 *
 * Runs any built-in workload on any evaluated memory system, with
 * optional crash injection and trace recording/replay, and reports the
 * metrics the paper's evaluation uses. See --help for the flags.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "harness/system.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"
#include "workloads/trace.hh"

using namespace thynvm;

namespace {

struct Options
{
    std::string system = "thynvm";
    std::string workload = "sliding";
    std::uint64_t accesses = 100000;
    std::uint64_t txns = 2000;
    std::uint64_t instructions = 1000000;
    std::size_t phys_mb = 32;
    std::uint64_t epoch_us = 10000;
    std::size_t btt = 2048;
    std::size_t ptt = 4096;
    std::uint32_t value_size = 256;
    std::uint64_t seed = 1;
    std::uint64_t crash_at_us = 0; // 0 = no crash
    unsigned channels = 0;         // 0 = THYNVM_CHANNELS, else 1
    std::string record_trace;
    std::string replay_trace;
    bool dump_stats = false;
};

void
usage()
{
    std::string kinds;
    for (SystemKind k : kAllSystemKinds) {
        if (!kinds.empty())
            kinds += " | ";
        kinds += systemToken(k);
    }
    std::printf(
        "usage: thynvm_sim [options]\n"
        "  --system=KIND      %s\n"
        "                     (default thynvm)\n"
        "  --workload=NAME    random | streaming | sliding | kv-hash |\n"
        "                     kv-rbtree | spec:<bench> (default sliding)\n"
        "  --accesses=N       micro-benchmark memory accesses\n"
        "  --txns=N           key-value transactions\n"
        "  --instructions=N   SPEC instruction budget\n"
        "  --phys-mb=N        physical address space (MB, default 32)\n"
        "  --epoch-us=N       epoch length in microseconds (default 10000)\n"
        "  --btt=N --ptt=N    ThyNVM table sizes (default 2048/4096)\n"
        "  --value-size=N     KV value bytes (default 256)\n"
        "  --seed=N           workload RNG seed\n"
        "  --channels=N       memory channels, a power of two (default\n"
        "                     THYNVM_CHANNELS, else 1)\n"
        "  --crash-at-us=N    inject a power failure at N us, then\n"
        "                     recover and resume to completion\n"
        "  --record-trace=F   save the op stream to trace file F\n"
        "  --replay-trace=F   replay a previously recorded trace\n"
        "  --stats            dump all component statistics at the end\n",
        kinds.c_str());
}

bool
parseFlag(const char* arg, const char* name, std::string* out)
{
    const std::size_t n = std::strlen(name);
    if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
        *out = arg + n + 1;
        return true;
    }
    return false;
}

bool
parseFlag(const char* arg, const char* name, std::uint64_t* out)
{
    std::string s;
    if (!parseFlag(arg, name, &s))
        return false;
    *out = std::strtoull(s.c_str(), nullptr, 10);
    return true;
}

/** NVM writes a crash now rolls back, over every channel. */
struct UnservicedWrites
{
    std::size_t live = 0;   ///< staged in a port or queued in a device
    std::size_t staged = 0; ///< of those, still staged in a port
};

UnservicedWrites
unservicedNvmWrites(System& sys)
{
    std::vector<MemController*> ctrls{&sys.controller()};
    if (auto* g = dynamic_cast<ChannelGroup*>(&sys.controller())) {
        for (unsigned i = 0; i < g->channelCount(); ++i)
            ctrls.push_back(&g->channelController(i));
    }
    UnservicedWrites u;
    for (MemController* c : ctrls) {
        if (MemDevice* d = c->nvmDevice()) {
            u.live += d->liveUndoEntries();
            u.staged += d->stagedWrites();
        }
    }
    return u;
}

std::unique_ptr<Workload>
makeWorkload(const Options& opt)
{
    if (!opt.replay_trace.empty()) {
        return std::make_unique<TraceReplayWorkload>(
            TraceReplayWorkload::load(opt.replay_trace));
    }
    if (opt.workload == "random" || opt.workload == "streaming" ||
        opt.workload == "sliding") {
        MicroWorkload::Params p;
        p.pattern = opt.workload == "random"
                        ? MicroWorkload::Pattern::Random
                        : opt.workload == "streaming"
                              ? MicroWorkload::Pattern::Streaming
                              : MicroWorkload::Pattern::Sliding;
        p.array_bytes = (opt.phys_mb << 20) * 3 / 4;
        p.total_accesses = opt.accesses;
        p.seed = opt.seed;
        return std::make_unique<MicroWorkload>(p);
    }
    if (opt.workload == "kv-hash" || opt.workload == "kv-rbtree") {
        KvWorkload::Params p;
        p.structure = opt.workload == "kv-hash"
                          ? KvWorkload::Structure::HashTable
                          : KvWorkload::Structure::RbTree;
        p.phys_size = opt.phys_mb << 20;
        p.value_size = opt.value_size;
        p.total_txns = opt.txns;
        p.seed = opt.seed;
        return std::make_unique<KvWorkload>(p);
    }
    if (opt.workload.rfind("spec:", 0) == 0) {
        const auto& prof = specProfile(opt.workload.substr(5));
        return std::make_unique<SpecWorkload>(prof, 0, opt.instructions,
                                              opt.seed);
    }
    fatal("unknown workload '%s'", opt.workload.c_str());
}

SystemConfig
makeConfig(const Options& opt)
{
    SystemConfig cfg;
    if (!systemKindFromToken(opt.system, cfg.kind))
        fatal("unknown system '%s'", opt.system.c_str());
    cfg.phys_size = opt.phys_mb << 20;
    cfg.epoch_length = opt.epoch_us * kMicrosecond;
    cfg.thynvm.btt_entries = opt.btt;
    cfg.thynvm.ptt_entries = opt.ptt;
    cfg.channels = opt.channels;
    return cfg;
}

void
printMetrics(const RunMetrics& m)
{
    std::printf("sim time        : %.3f ms\n",
                static_cast<double>(m.exec_time) / kMillisecond);
    std::printf("instructions    : %llu\n",
                static_cast<unsigned long long>(m.instructions));
    std::printf("IPC             : %.4f\n", m.ipc);
    std::printf("epochs          : %llu\n",
                static_cast<unsigned long long>(m.epochs));
    std::printf("NVM writes      : %.2f MB (cpu %.2f, ckpt %.2f, "
                "migration %.2f)\n",
                static_cast<double>(m.nvm_wr_total) / (1 << 20),
                static_cast<double>(m.nvm_wr_cpu) / (1 << 20),
                static_cast<double>(m.nvm_wr_ckpt) / (1 << 20),
                static_cast<double>(m.nvm_wr_migration) / (1 << 20));
    std::printf("DRAM writes     : %.2f MB\n",
                static_cast<double>(m.dram_wr_total) / (1 << 20));
    std::printf("time on ckpt    : %.3f %%\n", m.ckpt_time_frac * 100.0);
}

} // namespace

int
main(int argc, char** argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        std::uint64_t tmp = 0;
        std::string str;
        if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
            usage();
            return 0;
        } else if (std::strcmp(a, "--stats") == 0) {
            opt.dump_stats = true;
        } else if (parseFlag(a, "--system", &opt.system) ||
                   parseFlag(a, "--workload", &opt.workload) ||
                   parseFlag(a, "--record-trace", &opt.record_trace) ||
                   parseFlag(a, "--replay-trace", &opt.replay_trace)) {
            // handled
        } else if (parseFlag(a, "--accesses", &opt.accesses) ||
                   parseFlag(a, "--txns", &opt.txns) ||
                   parseFlag(a, "--instructions", &opt.instructions) ||
                   parseFlag(a, "--epoch-us", &opt.epoch_us) ||
                   parseFlag(a, "--seed", &opt.seed) ||
                   parseFlag(a, "--crash-at-us", &opt.crash_at_us)) {
            // handled
        } else if (parseFlag(a, "--phys-mb", &tmp)) {
            opt.phys_mb = tmp;
        } else if (parseFlag(a, "--btt", &tmp)) {
            opt.btt = tmp;
        } else if (parseFlag(a, "--ptt", &tmp)) {
            opt.ptt = tmp;
        } else if (parseFlag(a, "--channels", &str)) {
            opt.channels = parseCount(str.c_str());
            if (opt.channels == 0) {
                std::fprintf(stderr, "invalid channel count in '%s'\n\n",
                             a);
                usage();
                return 2;
            }
        } else if (parseFlag(a, "--value-size", &tmp)) {
            opt.value_size = static_cast<std::uint32_t>(tmp);
        } else {
            std::fprintf(stderr, "unknown option '%s'\n\n", a);
            usage();
            return 2;
        }
    }

    try {
        auto inner = makeWorkload(opt);
        std::unique_ptr<TraceRecorder> recorder;
        Workload* wl = inner.get();
        if (!opt.record_trace.empty()) {
            recorder = std::make_unique<TraceRecorder>(*inner);
            wl = recorder.get();
        }

        const SystemConfig cfg = makeConfig(opt);
        auto sys = std::make_unique<System>(cfg, *wl);
        std::printf("system=%s workload=%s phys=%zuMB epoch=%lluus "
                    "channels=%u\n",
                    systemKindName(cfg.kind), opt.workload.c_str(),
                    opt.phys_mb,
                    static_cast<unsigned long long>(opt.epoch_us),
                    sys->channels());
        sys->start();

        std::unique_ptr<Workload> wl2;
        if (opt.crash_at_us > 0) {
            sys->run(opt.crash_at_us * kMicrosecond);
            if (!sys->finished()) {
                const UnservicedWrites u = unservicedNvmWrites(*sys);
                std::printf(">>> injected power failure at %llu us: "
                            "rolling back %zu unserviced NVM writes, %zu "
                            "of them staged\n",
                            static_cast<unsigned long long>(
                                opt.crash_at_us),
                            u.live, u.staged);
                auto nvm = sys->crash();
                Options o2 = opt;
                o2.record_trace.clear();
                wl2 = makeWorkload(o2);
                sys = std::make_unique<System>(cfg, *wl2, nvm);
                sys->recoverAndResume();
                std::printf(">>> recovered; resuming\n");
            }
        }
        sys->run(600 * kSecond);
        fatal_if(!sys->finished(),
                 "workload did not finish within the time limit");

        printMetrics(sys->metrics());
        if (recorder && !opt.record_trace.empty() &&
            opt.crash_at_us == 0) {
            recorder->save(opt.record_trace);
            std::printf("trace saved to %s (%zu ops)\n",
                        opt.record_trace.c_str(),
                        recorder->records().size());
        }
        if (opt.dump_stats) {
            std::printf("\n--- component statistics ---\n");
            std::ostringstream os;
            sys->dumpStats(os);
            std::fputs(os.str().c_str(), stdout);
        }
    } catch (const FatalError&) {
        // fatal() has already reported the error on stderr.
        return 1;
    }
    return 0;
}
