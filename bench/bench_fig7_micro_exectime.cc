/**
 * @file
 * Figure 7: execution time of the micro-benchmarks (Random, Streaming,
 * Sliding; 1:1 read/write) on the five evaluated systems, normalized
 * to the Ideal DRAM system.
 *
 * Expected shape (paper §5.2): ThyNVM outperforms both journaling and
 * shadow paging on every pattern; shadow paging is pathological under
 * Random; ThyNVM lands between Ideal DRAM and the software baselines.
 */

#include "bench/bench_util.hh"

namespace {

using namespace thynvm;
using namespace thynvm::bench;

const std::vector<MicroWorkload::Pattern> kPatterns = {
    MicroWorkload::Pattern::Random,
    MicroWorkload::Pattern::Streaming,
    MicroWorkload::Pattern::Sliding,
};

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

void
printSummary(const std::vector<RunMetrics>& results)
{
    const std::size_t nsys = kPaperSystemKinds.size();
    heading("Figure 7: micro-benchmark execution time "
            "(normalized to Ideal DRAM)");
    std::printf("%-11s", "pattern");
    for (auto kind : kPaperSystemKinds)
        std::printf("%14s", systemKindName(kind));
    std::printf("\n");
    for (std::size_t p = 0; p < kPatterns.size(); ++p) {
        const double base =
            static_cast<double>(results[p * nsys].exec_time);
        std::printf("%-11s", patternName(kPatterns[p]));
        for (std::size_t s = 0; s < nsys; ++s) {
            const auto& m = results[p * nsys + s];
            std::printf("%14.3f",
                        static_cast<double>(m.exec_time) / base);
        }
        std::printf("\n");
    }
    std::printf("\n(paper: ThyNVM beats Journal by ~10%% and Shadow by "
                "~15%% on average,\n within ~14%% of Ideal DRAM on "
                "micro-benchmarks)\n");
}

} // namespace

int
main()
{
    std::vector<GridCell<RunMetrics>> cells;
    for (auto pattern : kPatterns) {
        for (auto kind : kPaperSystemKinds) {
            cells.push_back(GridCell<RunMetrics>{
                std::string(patternName(pattern)) + "/" +
                    systemKindName(kind),
                [pattern, kind] {
                    return runMicro(paperSystem(kind), pattern);
                }});
        }
    }
    const auto results = runGrid("fig7 micro exec time", cells);
    printSummary(results);
    return 0;
}
