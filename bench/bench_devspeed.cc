/**
 * @file
 * Device-model throughput tracker: how many device requests per host
 * second can the MemDevice scheduler sustain?
 *
 * Drives a single MemDevice directly (no CPU, caches, or controller)
 * with a deterministic mixed read/write stream that keeps both queues
 * saturated, across a sweep of write-queue depths and bank counts. The
 * generator models the access mix the controllers produce: 70% writes,
 * 60% row-locality (sequential blocks within the open row), the rest
 * random rows across banks. Each cell reports the median of five
 * passes over the same stream, with the fastest and slowest pass.
 *
 * Results are written to BENCH_devspeed.json together with the pre-PR
 * (deque-scan scheduler) numbers measured on the same host, so the
 * speedup of the slab/per-bank-queue scheduler is tracked from PR to
 * PR; EXPERIMENTS.md records the history. Like bench_simspeed, this
 * binary is single-threaded by design.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "mem/device.hh"

namespace {

using namespace thynvm;

struct Cell
{
    unsigned banks;
    unsigned write_queue;
    /** Pre-PR requests/sec on the reference host (0 = not measured). */
    double baseline_rps;
};

/**
 * Pre-PR baselines: measured at the parent commit (deque-based
 * FR-FCFS with O(n) completion lookup) on the CI reference host with
 * the same request stream, one cold pass per cell. Kept as data so the
 * JSON always reports the before/after pair; its speedup therefore
 * compares a median of five passes with a single pass.
 */
const std::vector<Cell>&
cells()
{
    static const std::vector<Cell> kCells = {
        // Write-queue depth sweep at 8 banks.
        {8, 8, 1662330.0},
        {8, 16, 1353490.0},
        {8, 64, 638302.0},
        {8, 256, 203640.0},
        // Bank-count sweep at the paper's depth-64 write queue.
        {1, 64, 871428.0},
        {4, 64, 669263.0},
        {16, 64, 667365.0},
        {32, 64, 647761.0},
    };
    return kCells;
}

/** One timed pass over a cell's request stream. */
struct Pass
{
    double host_seconds = 0.0;
    std::uint64_t events = 0;
};

/**
 * A cell timed over several passes: one cold pass of ~0.15 s moves by
 * tens of percent on a shared host, so the cell reports the median
 * pass and the spread.
 */
struct CellResult
{
    Cell cell{};
    std::uint64_t requests = 0;
    double host_seconds = 0.0;     //!< median pass
    double requests_per_sec = 0.0; //!< median pass
    double min_requests_per_sec = 0.0;
    double max_requests_per_sec = 0.0;
    double events_per_sec = 0.0; //!< median pass
};

Pass
runPass(const Cell& cell, std::uint64_t total)
{
    using Clock = std::chrono::steady_clock;

    DeviceParams p = DeviceParams::nvm(16u << 20);
    p.banks = cell.banks;
    p.write_queue_capacity = cell.write_queue;
    p.read_queue_capacity = std::max(4u, cell.write_queue / 2);
    p.write_drain_high = std::max(2u, 3 * cell.write_queue / 4);
    p.write_drain_low = cell.write_queue / 4;

    EventQueue eq;
    MemDevice dev(eq, "dev", p);
    Rng rng(0x5eedu + cell.banks * 1000 + cell.write_queue);

    const std::uint64_t num_rows = p.capacity / p.row_size;
    const std::uint64_t blocks_per_row = p.row_size / kBlockSize;
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    bool have_pending = false;
    bool pend_write = false;
    Addr pend_addr = 0;

    std::array<std::uint8_t, kBlockSize> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 3);

    std::function<void()> pump = [&] {
        while (issued < total) {
            if (!have_pending) {
                if (rng.chance(0.6)) {
                    col = (col + 1) % blocks_per_row; // row-hit streak
                } else {
                    row = rng.below(num_rows);
                    col = rng.below(blocks_per_row);
                }
                pend_addr = row * p.row_size + col * kBlockSize;
                pend_write = rng.chance(0.7);
                have_pending = true;
            }
            if (!dev.canAccept(pend_write)) {
                dev.notifyWhenAccepting(pend_write, pump);
                return;
            }
            const bool ok =
                pend_write
                    ? dev.enqueueWrite(pend_addr, payload.data(),
                                       TrafficSource::CpuWriteback,
                                       [&completed] { ++completed; })
                    : dev.enqueueRead(pend_addr,
                                      TrafficSource::DemandRead,
                                      [&completed] { ++completed; });
            panic_if(!ok, "device rejected request after canAccept");
            have_pending = false;
            ++issued;
        }
    };

    const auto t0 = Clock::now();
    pump();
    eq.run();
    const double host =
        std::chrono::duration<double>(Clock::now() - t0).count();
    fatal_if(completed != total, "devspeed run lost completions");
    return Pass{host, eq.eventsExecuted()};
}

CellResult
runCell(const Cell& cell, std::uint64_t total, unsigned passes)
{
    std::vector<Pass> runs;
    for (unsigned i = 0; i < passes; ++i)
        runs.push_back(runPass(cell, total));
    std::sort(runs.begin(), runs.end(), [](const Pass& a, const Pass& b) {
        return a.host_seconds < b.host_seconds;
    });
    const Pass& median = runs[runs.size() / 2];
    const auto perSec = [](double n, double host) {
        return host > 0.0 ? n / host : 0.0;
    };

    CellResult r;
    r.cell = cell;
    r.requests = total;
    r.host_seconds = median.host_seconds;
    r.requests_per_sec =
        perSec(static_cast<double>(total), median.host_seconds);
    r.min_requests_per_sec =
        perSec(static_cast<double>(total), runs.back().host_seconds);
    r.max_requests_per_sec =
        perSec(static_cast<double>(total), runs.front().host_seconds);
    r.events_per_sec =
        perSec(static_cast<double>(median.events), median.host_seconds);
    return r;
}

} // namespace

int
main()
{
    constexpr std::uint64_t kRequests = 300000;
    constexpr unsigned kPasses = 5;

    std::printf("Device-model throughput: %llu mixed requests per cell, "
                "median of %u passes, single host thread\n",
                static_cast<unsigned long long>(kRequests), kPasses);
    std::printf("%-6s %-8s %12s %12s %12s %10s %14s %14s %10s\n", "banks",
                "wqueue", "requests/s", "min_r/s", "max_r/s", "host_s",
                "events/s", "baseline_r/s", "speedup");

    std::vector<CellResult> results;
    for (const Cell& cell : cells()) {
        CellResult r = runCell(cell, kRequests, kPasses);
        const double speedup = cell.baseline_rps > 0.0
                                   ? r.requests_per_sec / cell.baseline_rps
                                   : 0.0;
        std::printf("%-6u %-8u %12.0f %12.0f %12.0f %10.3f %14.0f %14.0f "
                    "%9.2fx\n",
                    cell.banks, cell.write_queue, r.requests_per_sec,
                    r.min_requests_per_sec, r.max_requests_per_sec,
                    r.host_seconds, r.events_per_sec, cell.baseline_rps,
                    speedup);
        results.push_back(r);
    }

    FILE* f = std::fopen("BENCH_devspeed.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_devspeed.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"devspeed\",\n");
    std::fprintf(f, "  \"host_threads\": %u,\n",
                 std::thread::hardware_concurrency());
    std::fprintf(f, "  \"requests_per_cell\": %llu,\n",
                 static_cast<unsigned long long>(kRequests));
    std::fprintf(f, "  \"passes_per_cell\": %u,\n", kPasses);
    std::fprintf(f, "  \"baseline_passes_per_cell\": 1,\n");
    std::fprintf(f, "  \"cells\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CellResult& r = results[i];
        const double speedup =
            r.cell.baseline_rps > 0.0
                ? r.requests_per_sec / r.cell.baseline_rps
                : 0.0;
        std::fprintf(f,
                     "    {\"banks\": %u, \"write_queue\": %u, "
                     "\"requests_per_sec\": %.0f, "
                     "\"min_requests_per_sec\": %.0f, "
                     "\"max_requests_per_sec\": %.0f, "
                     "\"host_seconds\": %.3f, \"events_per_sec\": %.0f, "
                     "\"baseline_requests_per_sec\": %.0f, "
                     "\"speedup_vs_baseline\": %.2f}%s\n",
                     r.cell.banks, r.cell.write_queue, r.requests_per_sec,
                     r.min_requests_per_sec, r.max_requests_per_sec,
                     r.host_seconds, r.events_per_sec, r.cell.baseline_rps,
                     speedup, i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_devspeed.json\n");
    return 0;
}
