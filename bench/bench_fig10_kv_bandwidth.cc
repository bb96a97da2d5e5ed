/**
 * @file
 * Figure 10: write bandwidth consumption of the two key-value stores
 * across request sizes (16 B - 4 KB) on the five evaluated systems.
 * "Write bandwidth" is DRAM writes for Ideal DRAM and NVM writes for
 * every other system, as in the paper.
 *
 * Expected shape (paper §5.3): ThyNVM consumes far less write
 * bandwidth than shadow paging (which copies whole pages for sparse
 * updates) and approaches journaling, which has the minimum by
 * construction but pays for it in stall time.
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
    heading("Figure 10: key-value store write bandwidth (MB/s; DRAM "
            "for Ideal DRAM, NVM otherwise)");
    for (int st = 0; st < 2; ++st) {
        std::printf("\n(%c) %s based key-value store\n", 'a' + st,
                    st == 0 ? "hash table" : "red-black tree");
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
                std::printf("%14.1f", results[i].write_bw_mbps);
            }
            std::printf("\n");
        }
    }
    std::printf("\n(paper: ThyNVM uses ~43%%/64%% less NVM write "
                "bandwidth than Shadow and\n ~19%%/14%% more than "
                "Journal for hash/rbtree)\n");
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
    const auto results = runGrid("fig10 kv bandwidth", cells);
    printSummary(results);
    return 0;
}
