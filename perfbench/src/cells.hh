/**
 * @file
 * The benchmark's workloads: which simulated cells (one System run
 * each) or crash cases a workload executes, and how one execution is
 * timed from outside the simulator.
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fuzz/fuzzer.hh"
#include "harness/system.hh"

namespace perfbench {

using thynvm::SystemConfig;
using thynvm::SystemKind;
using thynvm::Workload;

/** Command-line options shared by every part of the driver. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** "full" (the benchmark proper) or "tiny" (the self-test). */
    std::string scale = "full";
    /** Multiply every epoch length by 2 (self-test of the checks). */
    bool perturb_epoch = false;
    /** Run exactly this many rounds, ignoring --seconds (0 = off). */
    unsigned rounds = 0;
    /** Traced run: write every recorded span here at exit. */
    std::string spans_out;

    bool tiny() const { return scale == "tiny"; }
};

/** One simulated run: a System configuration plus its workload. */
struct CellSpec
{
    std::string label;
    SystemKind kind;
    SystemConfig cfg;
    std::function<std::unique_ptr<Workload>()> make_workload;
};

/**
 * Simulated length of one timed slice of a cell's run (see runCell).
 * About a host millisecond on the workloads here.
 */
constexpr thynvm::Tick kRunSlice = 25 * thynvm::kMicrosecond;

/** Host timings and the output digest of one execution of a cell. */
struct CellSample
{
    double build_s = 0.0;
    double start_s = 0.0;
    double run_s = 0.0;
    /** Host seconds of each kRunSlice of the run, in order; empty for
     *  a multi-channel cell, whose run is timed whole. */
    std::vector<double> slice_s;
    double dump_s = 0.0;
    bool finished = false;
    std::string digest;
};

/** Every execution of one cell plus its exact (simulated) outputs. */
struct CellResult
{
    std::string label;
    SystemKind kind = SystemKind::ThyNvm;
    std::vector<CellSample> samples;
    // Exact quantities, identical in every execution (the digest
    // check enforces that); captured from the first one.
    thynvm::RunMetrics metrics;
    std::map<std::string, double> stats;
    std::uint64_t events = 0;
    std::uint64_t fast_path_schedules = 0;
    std::uint64_t touched_pages = 0;
    std::uint64_t kernel_windows = 0;
    std::uint64_t kernel_messages = 0;
};

/** The simulated cells of a System-based workload, in run order. */
std::vector<CellSpec> cellsFor(const Options& opt);

/**
 * Build, start, run and dump one cell. A single-channel cell runs in
 * kRunSlice steps of simulated time, each timed, through the same
 * System::run loop a single call would execute (the digest check
 * proves the outputs identical). @p exact (non-null on a cell's first
 * execution) receives the exact outputs.
 */
CellSample runCell(const CellSpec& spec, CellResult* exact);

/** Times the campaign plan is built per round (see runCampaignRound). */
constexpr unsigned kPlanRepeats = 3;

/** Host timings and outcome of one crash-campaign round. */
struct CampaignRound
{
    /** Host seconds of each of the kPlanRepeats plannings. */
    std::vector<double> plan_s;
    std::vector<double> case_ms_ch1;
    std::vector<double> case_ms_ch2;
    std::uint64_t cases = 0;
    std::uint64_t not_reached = 0;
    std::uint64_t violations = 0;
    std::set<std::string> sites;
    /** Digest of the plan's repro strings and each case's status. */
    std::string digest;
    /** Per combo, host ms of each of its profile (site enumeration)
     *  runs. */
    std::vector<std::vector<double>> profile_ms;
};

/** Fuzzer sizing used by the crash_campaign workload. */
thynvm::fuzz::FuzzerConfig campaignFuzzConfig(const Options& opt);

/**
 * One round of the crash campaign: plan (site enumeration) then every
 * planned crash case, one at a time on the calling thread, in an order
 * shuffled by the seed and @p round (the round's index in its run).
 */
CampaignRound runCampaignRound(const Options& opt, unsigned round);

/**
 * Simulated milliseconds of each campaign profile run, in the order of
 * CampaignRound::profile_ms (exact; computed once, untimed).
 */
std::vector<double> campaignProfileSimMs(const Options& opt);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
