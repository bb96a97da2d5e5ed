/**
 * @file
 * Figure 9: transaction throughput (KTPS) of the two key-value stores
 * (hash table, red-black tree) as the request size sweeps from 16 B to
 * 4 KB, on the five evaluated systems.
 *
 * Expected shape (paper §5.3): ThyNVM beats Journal and Shadow across
 * sizes and tracks the ideal systems closely (~95% of Ideal DRAM).
 *
 * A final GB-scale section runs the hash store at production size
 * (4 GiB phys, one million preloaded keys, Zipf-skewed requests) on
 * ThyNVM only — the scale the ROADMAP's serving scenario targets,
 * feasible because the backing store is sparse. It reports KTPS plus
 * peak host RSS against the dense-store extrapolation.
 */

#include "bench/bench_util.hh"

namespace {

using namespace thynvm;
using namespace thynvm::bench;

const std::vector<std::uint32_t> kSizes = {16, 64, 256, 1024, 4096};

std::uint64_t
txnsFor(std::uint32_t value_size)
{
    // Each run must span several 10 ms epochs so checkpointing
    // behaviour (not just cache behaviour) is measured.
    if (value_size <= 256)
        return 15000;
    if (value_size <= 1024)
        return 10000;
    return 6000;
}

void
printSummary(const std::vector<KvResult>& results)
{
    const std::size_t nsys = kPaperSystemKinds.size();
    heading("Figure 9: key-value store transaction throughput (KTPS)");
    for (int st = 0; st < 2; ++st) {
        std::printf("\n(%c) %s based key-value store\n",
                    'a' + st, st == 0 ? "hash table" : "red-black tree");
        std::printf("%-10s", "req_size");
        for (auto kind : kPaperSystemKinds)
            std::printf("%14s", systemKindName(kind));
        std::printf("\n");
        for (std::size_t z = 0; z < kSizes.size(); ++z) {
            std::printf("%-10u", kSizes[z]);
            for (std::size_t s = 0; s < nsys; ++s) {
                const std::size_t i =
                    (static_cast<std::size_t>(st) * kSizes.size() + z) *
                        nsys +
                    s;
                std::printf("%14.1f", results[i].ktps);
            }
            std::printf("\n");
        }
    }
    std::printf("\n(paper: ThyNVM ~8.8%%/4.3%% above Journal, "
                "~29.9%%/43.1%% above Shadow,\n ~95%% of Ideal DRAM for "
                "hash/rbtree respectively)\n");
}

} // namespace

int
main()
{
    const std::vector<KvWorkload::Structure> structures = {
        KvWorkload::Structure::HashTable, KvWorkload::Structure::RbTree};

    std::vector<GridCell<KvResult>> cells;
    for (std::size_t st = 0; st < structures.size(); ++st) {
        for (auto size : kSizes) {
            for (auto kind : kPaperSystemKinds) {
                const auto structure = structures[st];
                cells.push_back(GridCell<KvResult>{
                    std::string(st == 0 ? "hash" : "rbtree") + "/" +
                        std::to_string(size) + "B/" +
                        systemKindName(kind),
                    [structure, size, kind] {
                        return runKv(paperSystem(kind), structure, size,
                                     txnsFor(size));
                    }});
            }
        }
    }
    const auto results = runGrid("fig9 kv throughput", cells);
    printSummary(results);

    // GB-scale section: the ROADMAP's million-key serving scenario.
    // Runs last (and alone) so the monotone ru_maxrss reading is
    // attributable to this cell.
    heading("GB-scale: hash KV, 4 GiB phys, 1M keys, zipf 0.99");
    SystemConfig cfg = paperSystem(SystemKind::ThyNvm);
    cfg.phys_size = 4ull << 30;
    KvWorkload::Params p;
    p.structure = KvWorkload::Structure::HashTable;
    p.phys_size = cfg.phys_size;
    p.value_size = 256;
    p.initial_keys = 1000000;
    p.key_space = 2 * p.initial_keys;
    p.hash_buckets = 32768; // largest SimHeap size class (256 KB array)
    p.zipf_theta = 0.99;
    p.compute_per_txn = 6000; // same regime as the figure cells
    p.total_txns = 2000;
    KvWorkload wl(p);
    System sys(cfg, wl);
    sys.start();
    sys.run(120 * kSecond);
    fatal_if(!sys.finished(), "GB-scale kv run did not complete");
    const RunMetrics m = sys.metrics();
    const double seconds = static_cast<double>(m.exec_time) / kSecond;
    const std::uint64_t rss = peakRssBytes();
    const std::uint64_t dense = 2ull * cfg.phys_size;
    std::printf("%-10s %12s %12s %14s %14s\n", "txns", "ktps",
                "rss_mb", "dense_mb", "reduction");
    std::printf("%-10llu %12.1f %12.1f %14.1f %13.1fx\n",
                static_cast<unsigned long long>(p.total_txns),
                static_cast<double>(p.total_txns) / seconds / 1000.0,
                mb(rss), mb(dense),
                static_cast<double>(dense) / static_cast<double>(rss));
    return 0;
}
