/**
 * @file
 * Shared helpers for the benchmark binaries that regenerate the
 * paper's tables and figures (DESIGN.md §4).
 *
 * Scaling note: epochs use the paper's 10 ms limit; workload lengths
 * are scaled down so each run simulates tens of milliseconds (a few
 * timer epochs plus the overflow-paced early epochs that dominate for
 * memory-intensive patterns, exactly as in §4.3 of the paper). The
 * relative behaviour (who wins, by what factor, where the crossovers
 * fall) is what EXPERIMENTS.md records against the paper's numbers.
 */

#ifndef THYNVM_BENCH_BENCH_UTIL_HH
#define THYNVM_BENCH_BENCH_UTIL_HH

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>

#include "common/parallel.hh"
#include "harness/system.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/spec.hh"

namespace thynvm {
namespace bench {

/** Evaluation-scale system configuration (Table 2, scaled epochs). */
inline SystemConfig
paperSystem(SystemKind kind)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.phys_size = 32u << 20;
    cfg.epoch_length = 10 * kMillisecond; // paper Table 2
    cfg.thynvm.btt_entries = 2048;
    cfg.thynvm.ptt_entries = 4096; // 16 MB DRAM working region
    return cfg;
}

/**
 * Per-pattern micro-benchmark scale. The paper only says "a large
 * array"; the scales here are chosen so each pattern exercises the
 * regime the paper describes while staying tractable on one host core:
 *  - Random: array larger than every system's DRAM, so nothing can
 *    cache the working set (this is what makes shadow paging
 *    pathological);
 *  - Streaming: array within the PTT's reach and >= 2 passes, so
 *    sequential writes can be absorbed in DRAM after the first sweep;
 *  - Sliding: large array, window well inside DRAM.
 */
struct MicroScale
{
    std::size_t array_bytes;
    std::uint64_t accesses;
};

inline MicroScale
microScale(MicroWorkload::Pattern pattern)
{
    switch (pattern) {
      case MicroWorkload::Pattern::Random:
        return {24u << 20, 150000};
      case MicroWorkload::Pattern::Streaming:
        return {8u << 20, 300000};
      case MicroWorkload::Pattern::Sliding:
        return {24u << 20, 250000};
    }
    return {16u << 20, 150000};
}

/** Run a micro-benchmark pattern to completion on @p cfg. */
inline RunMetrics
runMicro(const SystemConfig& cfg, MicroWorkload::Pattern pattern,
         std::uint64_t accesses = 0, std::uint64_t seed = 1)
{
    const MicroScale scale = microScale(pattern);
    MicroWorkload::Params mp;
    mp.pattern = pattern;
    mp.base = 0;
    mp.array_bytes = scale.array_bytes;
    mp.access_size = 64;
    mp.read_fraction = 0.5;
    mp.total_accesses = accesses != 0 ? accesses : scale.accesses;
    mp.seed = seed;
    MicroWorkload wl(mp);
    System sys(cfg, wl);
    sys.start();
    sys.run(60 * kSecond);
    fatal_if(!sys.finished(), "micro benchmark did not complete");
    return sys.metrics();
}

/** Result of a key-value-store run. */
struct KvResult
{
    RunMetrics m;
    double ktps = 0.0;          //!< transactions per second / 1000
    double write_bw_mbps = 0.0; //!< NVM (or DRAM for Ideal DRAM) MB/s
};

/** Run the transactional KV workload to completion on @p cfg. */
inline KvResult
runKv(const SystemConfig& cfg, KvWorkload::Structure structure,
      std::uint32_t value_size, std::uint64_t txns,
      std::uint64_t seed = 7)
{
    KvWorkload::Params p;
    p.structure = structure;
    p.phys_size = cfg.phys_size;
    p.value_size = value_size;
    // Size the store so its live footprint (~12 MB) dwarfs the cache
    // hierarchy and spans several epochs' worth of working set; the
    // per-node overhead is ~96 B on top of the value.
    p.key_space = std::max<std::uint64_t>(
        4096, (12u << 20) / (value_size + 96));
    p.initial_keys = p.key_space / 2;
    p.hash_buckets = std::max<std::uint64_t>(1024, p.key_space / 4);
    // The paper's transaction rate (~250 KTPS at 3 GHz) implies a
    // compute-dominated transaction (~10k cycles); reproduce that
    // regime so memory-system differences appear as in Figure 9.
    p.compute_per_txn = 6000;
    p.total_txns = txns;
    p.seed = seed;
    KvWorkload wl(p);
    System sys(cfg, wl);
    sys.start();
    sys.run(120 * kSecond);
    fatal_if(!sys.finished(), "kv benchmark did not complete");

    KvResult r;
    r.m = sys.metrics();
    const double seconds =
        static_cast<double>(r.m.exec_time) / kSecond;
    r.ktps = static_cast<double>(txns) / seconds / 1000.0;
    const std::uint64_t bytes = cfg.kind == SystemKind::IdealDram
                                    ? r.m.dram_wr_total
                                    : r.m.nvm_wr_total;
    r.write_bw_mbps =
        static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
    return r;
}

/** Run one SPEC profile for a fixed instruction budget. */
inline RunMetrics
runSpec(const SystemConfig& cfg, const SpecProfile& profile,
        std::uint64_t instructions, std::uint64_t seed = 3)
{
    SpecWorkload wl(profile, 0, instructions, seed);
    System sys(cfg, wl);
    sys.start();
    sys.run(120 * kSecond);
    fatal_if(!sys.finished(), "spec benchmark did not complete");
    return sys.metrics();
}

/** Megabytes helper. */
inline double
mb(std::uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/**
 * Peak resident set size of this process in bytes (getrusage
 * ru_maxrss; kilobytes on Linux). The value is a process-lifetime
 * high-water mark, so per-cell readings are monotone: order cells
 * smallest-footprint first and the reading taken after each cell is
 * that cell's effective peak.
 */
inline std::uint64_t
peakRssBytes()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
}

/** Print a separator + heading for the human-readable result block. */
inline void
heading(const char* title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n",
                title);
}

// ---------------------------------------------------------------------
// Parallel sweep driver.
//
// Every (system, workload) cell builds its own System with a private
// EventQueue, so independent cells can run on different host threads
// with no shared mutable state. Results land in a vector indexed by
// registration order and progress lines are printed strictly in that
// order, so the output (and the result set) is identical for any
// thread count, including 1.
// ---------------------------------------------------------------------

/**
 * Worker-thread count for benchmark sweeps: the THYNVM_BENCH_THREADS
 * environment variable if set (>= 1), else the host's hardware
 * concurrency.
 */
inline unsigned
benchThreads()
{
    const unsigned n = countFromEnv("THYNVM_BENCH_THREADS");
    return n != 0 ? n : hardwareThreads();
}

/** One independent run in a benchmark sweep. */
template <typename R>
struct GridCell
{
    std::string label;
    std::function<R()> run;
};

/**
 * Execute every cell, fanning across @p threads workers (0 = use
 * benchThreads()). Returns the results in registration order; per-cell
 * progress lines stream to stdout in that same order regardless of
 * completion order. The first exception raised by any cell is
 * rethrown once every cell has finished.
 */
template <typename R>
std::vector<R>
runGrid(const char* title, const std::vector<GridCell<R>>& cells,
        unsigned threads = 0)
{
    using Clock = std::chrono::steady_clock;
    const unsigned nthreads = threads != 0 ? threads : benchThreads();

    std::vector<R> results(cells.size());
    std::vector<double> host_sec(cells.size(), 0.0);
    std::vector<std::exception_ptr> errors(cells.size());
    std::vector<char> cell_done(cells.size(), 0);
    std::mutex mutex;
    std::condition_variable cv;

    std::printf("-- %s: %zu runs on %u thread%s\n", title, cells.size(),
                nthreads, nthreads == 1 ? "" : "s");
    std::fflush(stdout);

    auto runCell = [&](std::size_t i) {
        const auto t0 = Clock::now();
        try {
            results[i] = cells[i].run();
        } catch (...) {
            errors[i] = std::current_exception();
        }
        host_sec[i] =
            std::chrono::duration<double>(Clock::now() - t0).count();
        {
            std::lock_guard<std::mutex> lock(mutex);
            cell_done[i] = 1;
        }
        cv.notify_all();
    };
    auto printCell = [&](std::size_t i) {
        std::printf("   [%2zu/%zu] %-40s %8.2fs host%s\n", i + 1,
                    cells.size(), cells[i].label.c_str(), host_sec[i],
                    errors[i] ? "  FAILED" : "");
        std::fflush(stdout);
    };

    if (nthreads <= 1 || cells.size() <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            runCell(i);
            printCell(i);
        }
    } else {
        ThreadPool pool(static_cast<unsigned>(
            std::min<std::size_t>(nthreads, cells.size())));
        for (std::size_t i = 0; i < cells.size(); ++i)
            pool.submit([&runCell, i] { runCell(i); });
        // Stream progress in presentation order as cells finish.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::unique_lock<std::mutex> lock(mutex);
            cv.wait(lock, [&] { return cell_done[i] != 0; });
            lock.unlock();
            printCell(i);
        }
    }

    for (auto& e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return results;
}

} // namespace bench
} // namespace thynvm

#endif // THYNVM_BENCH_BENCH_UTIL_HH
