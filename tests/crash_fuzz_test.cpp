/**
 * @file
 * Crash-point fuzzing campaign as a ctest suite.
 *
 * Runs the default differential-recovery campaign (every registered
 * crash site of every evaluated system, per workload pattern) and
 * asserts zero oracle violations. A second test arms the deliberate
 * BTT-persist fault and asserts the campaign catches it, printing the
 * repro strings a developer would paste into `thynvm_fuzz --replay`.
 *
 * THYNVM_FUZZ_ITERS=N widens the campaign to N seeds for the nightly
 * sweep; the default single seed keeps the suite in ctest-sized time.
 */

#include "tests/test_util.hh"

#include <cstdlib>
#include <sstream>

#include "fuzz/fuzzer.hh"

namespace thynvm {
namespace {

using namespace fuzz;

/** Seed count: 1 by default, THYNVM_FUZZ_ITERS for the nightly sweep. */
std::vector<std::uint64_t>
campaignSeeds()
{
    std::uint64_t n = 1;
    if (const char* env = std::getenv("THYNVM_FUZZ_ITERS"))
        n = std::max<std::uint64_t>(1, std::strtoull(env, nullptr, 10));
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < n; ++i)
        seeds.push_back(test::loggedSeed("crash_fuzz.base", 1) + i);
    return seeds;
}

TEST(CrashFuzz, DefaultCampaignHasNoOracleViolations)
{
    FuzzerConfig fc;
    CampaignOptions opts;
    opts.seeds = campaignSeeds();

    std::ostringstream log;
    const CampaignResult res = runCampaign(fc, opts, &log);

    EXPECT_GT(res.cases, 0u);
    EXPECT_EQ(res.not_reached, 0u)
        << "some armed crash plans never fired; campaign lost coverage";
    EXPECT_TRUE(res.violations.empty()) << log.str();
}

TEST(CrashFuzz, EverySystemExposesAtLeastFiveSiteKinds)
{
    FuzzerConfig fc;
    CampaignOptions opts;
    // Site coverage is a property of the instrumentation, not the seed:
    // one seed per pattern is enough, and keeps this test fast.
    opts.seeds = {1};

    const CampaignResult res = runCampaign(fc, opts, nullptr);

    ASSERT_EQ(res.sites_by_system.size(), 5u);
    for (const auto& [system, sites] : res.sites_by_system) {
        EXPECT_GE(sites.size(), 5u)
            << system << " reached only " << sites.size()
            << " distinct crash sites";
    }
    // The fine-grained backends carry their own backend-specific sites
    // (icl.* line logging, ckpt.stage_* range staging) on top of the
    // shared epoch-controller set.
    ASSERT_TRUE(res.sites_by_system.count("icl"));
    EXPECT_GE(res.sites_by_system.at("icl").size(), 8u);
    ASSERT_TRUE(res.sites_by_system.count("incremental"));
    EXPECT_GE(res.sites_by_system.at("incremental").size(), 8u);
}

TEST(CrashFuzz, BothFastPathModesPassOnThyNvm)
{
    FuzzerConfig fc;
    CampaignOptions opts;
    opts.seeds = {1};
    opts.workloads = {"slide"};
    opts.systems = {SystemKind::ThyNvm};
    opts.both_fast_path_modes = true;

    std::ostringstream log;
    const CampaignResult res = runCampaign(fc, opts, &log);

    EXPECT_GT(res.cases, 0u);
    EXPECT_TRUE(res.violations.empty()) << log.str();
}

/**
 * Regression sensitivity: drop one BTT entry from the persisted
 * metadata image and the oracle must notice. This is the fuzzer's
 * self-test — a campaign that passes a corrupted checkpoint would be
 * worthless as a gate.
 */
TEST(CrashFuzz, InjectedBttDropIsCaughtWithRepro)
{
    FuzzerConfig fc;
    fc.debug_drop_btt_entry = 0;
    CampaignOptions opts;
    opts.seeds = {1};
    opts.systems = {SystemKind::ThyNvm};

    std::ostringstream log;
    const CampaignResult res = runCampaign(fc, opts, &log);

    ASSERT_FALSE(res.violations.empty())
        << "campaign missed an injected checkpoint corruption";
    for (const CaseResult& v : res.violations) {
        // Every violation carries a well-formed, parseable repro string.
        FuzzCase parsed;
        EXPECT_TRUE(parseRepro(v.repro, parsed)) << v.repro;
        EXPECT_FALSE(v.detail.empty());
        std::printf("[  caught  ] %s\n    %s\n", v.repro.c_str(),
                    v.detail.c_str());
    }
}

} // namespace
} // namespace thynvm
