/**
 * @file
 * Repro-string contract of the crash fuzzer.
 *
 * A failing fuzz case is only useful if its one-line repro string
 * replays the identical crash on a developer machine. These tests pin
 * that contract: format/parse round-trip, bit-identical deterministic
 * replay, and end-to-end replay of a repro produced by an injected
 * regression (failing with the fault armed, passing without).
 */

#include "tests/test_util.hh"

#include <sstream>
#include <string>

#include "fuzz/fuzzer.hh"

namespace thynvm {
namespace {

using namespace fuzz;

TEST(CrashRepro, FormatParseRoundTrip)
{
    FuzzCase c;
    c.seed = 42;
    c.workload = "slide";
    c.system = SystemKind::Shadow;
    c.site = "ckpt.pre_commit_header";
    c.hit = 7;
    c.delta = 1234;
    c.fast_path = false;

    const std::string repro = formatRepro(c);
    FuzzCase back;
    ASSERT_TRUE(parseRepro(repro, back));
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.workload, c.workload);
    EXPECT_EQ(back.system, c.system);
    EXPECT_EQ(back.site, c.site);
    EXPECT_EQ(back.hit, c.hit);
    EXPECT_EQ(back.delta, c.delta);
    EXPECT_EQ(back.fast_path, c.fast_path);
    EXPECT_EQ(formatRepro(back), repro);
}

TEST(CrashRepro, MalformedStringsAreRejected)
{
    FuzzCase out;
    EXPECT_FALSE(parseRepro("", out));
    EXPECT_FALSE(parseRepro("seed=1", out));
    EXPECT_FALSE(parseRepro("seed=1:wl=rand:sys=nosuch:site=x:hit=1:"
                            "delta=0:fp=on",
                            out));
    EXPECT_FALSE(parseRepro("seed=1:wl=rand:sys=thynvm:site=x:hit=bad:"
                            "delta=0:fp=on",
                            out));
    EXPECT_FALSE(parseRepro("garbage without any separators", out));
}

/** Replaying the same case twice is bit-identical, end to end. */
TEST(CrashRepro, ReplayIsDeterministic)
{
    FuzzerConfig fc;
    FuzzCase c;
    c.seed = test::loggedSeed("crash_repro.determinism", 1);
    c.workload = "rand";
    c.system = SystemKind::ThyNvm;
    c.site = "ckpt.committed";
    c.hit = 1;
    // Site names are unprefixed on the single-channel topology; pin it
    // so a THYNVM_CHANNELS value in the environment cannot redirect
    // this case (the multi-channel twin is below).
    c.channels = 1;

    const CaseResult a = runCrashCase(fc, c);
    const CaseResult b = runCrashCase(fc, c);

    ASSERT_EQ(a.status, CaseStatus::Ok) << a.detail;
    ASSERT_EQ(b.status, CaseStatus::Ok) << b.detail;
    EXPECT_EQ(a.crash_tick, b.crash_tick);
    EXPECT_EQ(a.commits_before, b.commits_before);
    EXPECT_EQ(a.restored_ops, b.restored_ops);
    EXPECT_EQ(a.recovered_image.firstDifference(b.recovered_image),
              PagedBytes::npos);
    EXPECT_EQ(a.final_image.firstDifference(b.final_image),
              PagedBytes::npos);
}

/**
 * Multi-channel replay determinism: crash at a per-channel site and at
 * a cross-channel barrier site of a 2-channel topology; the profiled
 * crash tick, the recovered image, and the final image must replay
 * bit-identically.
 */
TEST(CrashRepro, MultiChannelReplayIsDeterministic)
{
    FuzzerConfig fc;
    for (const char* site : {"ch0.ckpt.committed", "group.all_staged"}) {
        FuzzCase c;
        c.seed = test::loggedSeed("crash_repro.mc_determinism", 1);
        c.workload = "rand";
        c.system = SystemKind::ThyNvm;
        c.site = site;
        c.hit = 1;
        c.channels = 2;

        const CaseResult a = runCrashCase(fc, c);
        const CaseResult b = runCrashCase(fc, c);

        ASSERT_EQ(a.status, CaseStatus::Ok) << site << ": " << a.detail;
        ASSERT_EQ(b.status, CaseStatus::Ok) << site << ": " << b.detail;
        EXPECT_EQ(a.crash_tick, b.crash_tick) << site;
        EXPECT_EQ(a.commits_before, b.commits_before) << site;
        EXPECT_EQ(a.restored_ops, b.restored_ops) << site;
        EXPECT_EQ(a.recovered_image.firstDifference(b.recovered_image),
                  PagedBytes::npos)
            << site;
        EXPECT_EQ(a.final_image.firstDifference(b.final_image),
                  PagedBytes::npos)
            << site;
    }
}

/**
 * End-to-end workflow: the campaign (with an injected fault) prints a
 * repro; replaying that exact string reproduces the violation; the
 * same string on a healthy build passes. This is what a developer does
 * when a nightly fuzz job fails.
 */
TEST(CrashRepro, InjectedReproReplaysDeterministically)
{
    FuzzerConfig broken;
    broken.debug_drop_btt_entry = 0;
    CampaignOptions opts;
    opts.seeds = {1};
    opts.systems = {SystemKind::ThyNvm};
    opts.workloads = {"rand"};

    const CampaignResult campaign = runCampaign(broken, opts, nullptr);
    ASSERT_FALSE(campaign.violations.empty())
        << "injected fault produced no violation to replay";

    const std::string repro = campaign.violations.front().repro;
    FuzzCase c;
    ASSERT_TRUE(parseRepro(repro, c)) << repro;

    // Replay on the broken build: violation, same detail both times.
    const CaseResult r1 = runCrashCase(broken, c);
    const CaseResult r2 = runCrashCase(broken, c);
    EXPECT_EQ(r1.status, CaseStatus::Violation) << repro;
    EXPECT_EQ(r1.detail, r2.detail);
    EXPECT_EQ(r1.detail, campaign.violations.front().detail);

    // Replay on the healthy build: the same crash plan passes.
    FuzzerConfig healthy;
    const CaseResult ok = runCrashCase(healthy, c);
    EXPECT_EQ(ok.status, CaseStatus::Ok) << ok.detail;
}

void
expectSameCampaign(const CampaignResult& a, const CampaignResult& b,
                   const char* what)
{
    EXPECT_EQ(b.cases, a.cases) << what;
    EXPECT_EQ(b.not_reached, a.not_reached) << what;
    EXPECT_EQ(b.repros, a.repros) << what;
    EXPECT_EQ(b.sites_by_system, a.sites_by_system) << what;
    ASSERT_EQ(b.violations.size(), a.violations.size()) << what;
    for (std::size_t i = 0; i < a.violations.size(); ++i) {
        EXPECT_EQ(b.violations[i].repro, a.violations[i].repro) << what;
        EXPECT_EQ(b.violations[i].detail, a.violations[i].detail)
            << what;
    }
}

/**
 * The full default campaign (every seed/workload/system crash plan)
 * fanned across host workers must produce the byte-identical result —
 * counts, repro strings, site map, and log stream — as the serial
 * campaign.
 */
TEST(CrashRepro, CampaignIsThreadCountInvariant)
{
    FuzzerConfig fc;
    CampaignOptions opts; // defaults: the full tier-1 campaign

    std::ostringstream serial_log;
    const CampaignResult serial =
        runCampaign(fc, opts, &serial_log, 1);
    EXPECT_EQ(serial.repros.size(), serial.cases);
    EXPECT_TRUE(serial.violations.empty());

    for (unsigned threads : {2u, 4u}) {
        std::ostringstream log;
        const CampaignResult parallel =
            runCampaign(fc, opts, &log, threads);
        expectSameCampaign(serial, parallel,
                           threads == 2 ? "threads=2" : "threads=4");
        EXPECT_EQ(log.str(), serial_log.str());
    }
}

} // namespace
} // namespace thynvm
