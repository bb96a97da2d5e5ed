/**
 * @file
 * Write-amplification comparison across all seven memory controllers:
 * persistent-media bytes written per application byte written, on a
 * sequential write-only micro pattern (the analytic case: every block
 * reaches the controller exactly once) and on the transactional KV
 * workload (the paper's persistent-application case).
 *
 * Expected shape: the ideal controllers sit at 1.0 by construction;
 * journaling pays its double write (~2x); shadow paging amplifies by
 * the page/dirty-block ratio; in-cache-line logging pays a log (and
 * often an overflow) block per dirtied line; incremental range
 * checkpointing stages each dirty block once per epoch and lands well
 * under journaling; ThyNVM sits between the ideals and the coarse
 * baselines. Results are written to BENCH_wamp.json.
 */

#include "bench/bench_util.hh"

namespace {

using namespace thynvm;
using namespace thynvm::bench;

/** Sequential non-wrapping write-only micro run. */
RunMetrics
runSeqWrite(SystemKind kind)
{
    SystemConfig cfg = paperSystem(kind);
    MicroWorkload::Params mp;
    mp.pattern = MicroWorkload::Pattern::Streaming;
    mp.base = 0;
    mp.array_bytes = 16u << 20;
    mp.access_size = 64;
    mp.read_fraction = 0.0;
    mp.total_accesses = 200000; // 12.2 MiB < array: never wraps
    mp.seed = 1;
    MicroWorkload wl(mp);
    System sys(cfg, wl);
    sys.start();
    sys.run(60 * kSecond);
    fatal_if(!sys.finished(), "seq-write benchmark did not complete");
    return sys.metrics();
}

RunMetrics
runKvCell(SystemKind kind)
{
    return runKv(paperSystem(kind), KvWorkload::Structure::HashTable, 64,
                 30000)
        .m;
}

void
printSummary(const std::vector<RunMetrics>& results)
{
    heading("Write amplification (media bytes / application bytes)");
    std::printf("%-12s %14s %14s\n", "system", "seq_write", "kv_hash");
    for (std::size_t s = 0; s < kAllSystemKinds.size(); ++s) {
        const auto& seq = results[s];
        const auto& kv = results[kAllSystemKinds.size() + s];
        std::printf("%-12s %14.3f %14.3f\n",
                    systemKindName(kAllSystemKinds[s]), seq.write_amp,
                    kv.write_amp);
    }
    std::printf("\n(ideals are 1.0 by construction; journaling pays the "
                "double write;\n incremental range checkpointing stages "
                "each dirty block once per epoch\n and must land below "
                "Journal on the KV column)\n");
}

} // namespace

int
main()
{
    std::vector<GridCell<RunMetrics>> cells;
    for (auto kind : kAllSystemKinds) {
        cells.push_back(GridCell<RunMetrics>{
            std::string("seq-write/") + systemKindName(kind),
            [kind] { return runSeqWrite(kind); }});
    }
    for (auto kind : kAllSystemKinds) {
        cells.push_back(GridCell<RunMetrics>{
            std::string("kv/") + systemKindName(kind),
            [kind] { return runKvCell(kind); }});
    }
    const auto results = runGrid("write amplification", cells);
    printSummary(results);

    FILE* f = std::fopen("BENCH_wamp.json", "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write BENCH_wamp.json\n");
        return 1;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"wamp\",\n  \"systems\": [\n");
    for (std::size_t s = 0; s < kAllSystemKinds.size(); ++s) {
        const auto& seq = results[s];
        const auto& kv = results[kAllSystemKinds.size() + s];
        std::fprintf(
            f,
            "    {\"system\": \"%s\", "
            "\"seq_write\": {\"write_amp\": %.4f, \"app_mb\": %.2f, "
            "\"media_mb\": %.2f}, "
            "\"kv\": {\"write_amp\": %.4f, \"app_mb\": %.2f, "
            "\"media_mb\": %.2f}}%s\n",
            systemKindName(kAllSystemKinds[s]), seq.write_amp,
            mb(seq.app_wr_bytes), mb(seq.app_wr_bytes) * seq.write_amp,
            kv.write_amp, mb(kv.app_wr_bytes),
            mb(kv.app_wr_bytes) * kv.write_amp,
            s + 1 == kAllSystemKinds.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote BENCH_wamp.json\n");
    return 0;
}
