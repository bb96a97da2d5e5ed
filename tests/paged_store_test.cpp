/**
 * @file
 * Units for the sparse copy-on-write store (PagedBytes / BackingStore)
 * and the Zipfian key generator.
 *
 * The store tests pin the contracts the simulator leans on: untouched
 * ranges read as zeros without materializing pages, COW copies are
 * isolated in both directions after a write, views compose offsets and
 * straddle host-page boundaries transparently, and the touched-range
 * enumeration covers exactly the bytes that can be nonzero. A
 * randomized differential test checks the store, and COW copies of it,
 * against a flat byte-vector model after every operation.
 */

#include "tests/test_util.hh"

#include <algorithm>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "common/rng.hh"
#include "mem/backing_store.hh"
#include "mem/paged_bytes.hh"

namespace thynvm {
namespace {

std::vector<std::uint8_t>
readAll(const PagedBytes& pb)
{
    std::vector<std::uint8_t> out(pb.size());
    pb.read(0, out.data(), out.size());
    return out;
}

/** The flat scan firstDifference() must agree with. */
std::size_t
flatFirstDifference(const std::vector<std::uint8_t>& a,
                    const std::vector<std::uint8_t>& b)
{
    const auto [x, y] = std::mismatch(a.begin(), a.end(), b.begin());
    return x == a.end() ? PagedBytes::npos
                        : static_cast<std::size_t>(x - a.begin());
}

/** firstDifference() in both directions against the flat model. */
void
expectFirstDifference(const PagedBytes& a, const PagedBytes& b,
                      std::size_t want)
{
    EXPECT_EQ(flatFirstDifference(readAll(a), readAll(b)), want);
    EXPECT_EQ(a.firstDifference(b), want);
    EXPECT_EQ(b.firstDifference(a), want);
}

TEST(PagedBytes, UntouchedRangesReadZeroWithoutMaterializing)
{
    PagedBytes pb(10 * kHostPageSize);
    EXPECT_EQ(pb.touchedPageCount(), 0u);

    // Reads anywhere — including straddling page boundaries — return
    // zeros and must not allocate pages.
    std::vector<std::uint8_t> buf(3 * kHostPageSize, 0xab);
    pb.read(kHostPageSize / 2, buf.data(), buf.size());
    for (std::uint8_t b : buf)
        ASSERT_EQ(b, 0);
    EXPECT_EQ(pb.touchedPageCount(), 0u);
    EXPECT_FALSE(pb.touched(0));
}

TEST(PagedBytes, WriteMaterializesOnlyCoveredPages)
{
    PagedBytes pb(8 * kHostPageSize);
    const std::uint8_t v[3] = {1, 2, 3};
    // A write straddling pages 2|3 materializes exactly those two.
    pb.write(3 * kHostPageSize - 2, v, sizeof(v));
    EXPECT_EQ(pb.touchedPageCount(), 2u);
    EXPECT_TRUE(pb.touched(2 * kHostPageSize));
    EXPECT_TRUE(pb.touched(3 * kHostPageSize));
    EXPECT_FALSE(pb.touched(0));

    std::uint8_t got[3] = {};
    pb.read(3 * kHostPageSize - 2, got, sizeof(got));
    EXPECT_EQ(0, std::memcmp(got, v, sizeof(v)));
}

TEST(PagedBytes, CowCopyIsolatedInBothDirections)
{
    PagedBytes a(4 * kHostPageSize);
    const std::uint8_t x = 0x11;
    a.write(100, &x, 1);

    PagedBytes b(a); // COW share
    EXPECT_EQ(b.touchedPageCount(), 1u);

    // Writing the copy must not disturb the original...
    const std::uint8_t y = 0x22;
    b.write(100, &y, 1);
    std::uint8_t got = 0;
    a.read(100, &got, 1);
    EXPECT_EQ(got, 0x11);
    b.read(100, &got, 1);
    EXPECT_EQ(got, 0x22);

    // ...and writing the original must not disturb the copy, even on a
    // page the copy still shares.
    const std::uint8_t z = 0x33;
    a.write(200, &z, 1);
    b.read(200, &got, 1);
    EXPECT_EQ(got, 0);
    a.read(200, &got, 1);
    EXPECT_EQ(got, 0x33);
}

TEST(PagedBytes, MoveTransfersPagesAndEmptiesSource)
{
    PagedBytes a(4 * kHostPageSize);
    const std::uint8_t x = 0x11;
    a.write(kHostPageSize + 5, &x, 1);
    PagedBytes keep(a); // shares a's page across both moves

    // Move construction takes the page table; the source is left empty.
    PagedBytes b(std::move(a));
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.touchedPageCount(), 0u);
    EXPECT_EQ(b.size(), 4 * kHostPageSize);
    EXPECT_EQ(b.touchedPageCount(), 1u);

    // Move assignment releases the destination's own pages first.
    PagedBytes c(2 * kHostPageSize);
    const std::uint8_t y = 0x22;
    c.write(0, &y, 1);
    c = std::move(b);
    EXPECT_EQ(b.size(), 0u);
    EXPECT_EQ(c.size(), 4 * kHostPageSize);
    EXPECT_EQ(c.touchedPageCount(), 1u);
    std::uint8_t got = 0;
    c.read(kHostPageSize + 5, &got, 1);
    EXPECT_EQ(got, 0x11);
    c.read(0, &got, 1);
    EXPECT_EQ(got, 0);

    // The moved page is still shared with the copy taken before the
    // moves: a write through either side must stay on that side.
    const std::uint8_t z = 0x33;
    c.write(kHostPageSize + 5, &z, 1);
    keep.read(kHostPageSize + 5, &got, 1);
    EXPECT_EQ(got, 0x11);
    c.read(kHostPageSize + 5, &got, 1);
    EXPECT_EQ(got, 0x33);
}

TEST(PagedBytes, ZeroFillPreservesSparsityAndClearDropsPages)
{
    PagedBytes pb(6 * kHostPageSize);
    // Zero-filling untouched space is a no-op on the page table.
    pb.fill(0, 0, pb.size());
    EXPECT_EQ(pb.touchedPageCount(), 0u);

    const std::uint8_t v = 0x5a;
    pb.write(0, &v, 1);
    pb.write(2 * kHostPageSize + 7, &v, 1);
    EXPECT_EQ(pb.touchedPageCount(), 2u);

    // clearRange drops fully covered pages back to the zero page and
    // memsets partially covered ones in place.
    pb.clearRange(0, kHostPageSize);            // full page 0: dropped
    pb.clearRange(2 * kHostPageSize, 16);       // partial page 2: memset
    EXPECT_EQ(pb.touchedPageCount(), 1u);
    std::uint8_t got = 0xff;
    pb.read(2 * kHostPageSize + 7, &got, 1);
    EXPECT_EQ(got, 0);

    pb.clear();
    EXPECT_EQ(pb.touchedPageCount(), 0u);
}

TEST(PagedBytes, TouchedRangeEnumerationIsAscendingAndExact)
{
    PagedBytes pb(10 * kHostPageSize);
    const std::uint8_t v = 1;
    pb.write(1 * kHostPageSize + 10, &v, 1);
    pb.write(4 * kHostPageSize, &v, 1);
    pb.write(7 * kHostPageSize + 100, &v, 1);

    // Clipped window [page1+20, page7+50): page 1 tail, page 4, page 7
    // head — ascending, page-clipped, nothing outside the window.
    std::vector<std::pair<Addr, std::size_t>> ranges;
    pb.forEachTouchedRange(
        1 * kHostPageSize + 20, 7 * kHostPageSize + 50,
        [&](Addr a, const std::uint8_t*, std::size_t len) {
            ranges.emplace_back(a, len);
        });
    ASSERT_EQ(ranges.size(), 3u);
    EXPECT_EQ(ranges[0].first, 1 * kHostPageSize + 20);
    EXPECT_EQ(ranges[0].second, kHostPageSize - 20);
    EXPECT_EQ(ranges[1].first, 4 * kHostPageSize);
    EXPECT_EQ(ranges[1].second, kHostPageSize);
    EXPECT_EQ(ranges[2].first, 7 * kHostPageSize);
    EXPECT_EQ(ranges[2].second, 50u);
    for (std::size_t i = 1; i < ranges.size(); ++i)
        EXPECT_LT(ranges[i - 1].first, ranges[i].first);
}

/** Flat reference model of one PagedBytes. */
struct FlatModel
{
    std::vector<std::uint8_t> bytes;
    /** Pages a write or a nonzero fill ever covered: the only ops that
     *  may materialize a page (COW copies inherit the set). */
    std::vector<bool> written;
};

TEST(PagedBytes, FirstDifferenceMatchesFlatScan)
{
    const std::uint8_t one = 1;

    // Equal contents, written independently: no page is shared.
    PagedBytes a(8 * kHostPageSize);
    PagedBytes b(8 * kHostPageSize);
    const std::vector<std::uint8_t> data(kHostPageSize + 300, 0x5a);
    a.write(kHostPageSize - 100, data.data(), data.size());
    b.write(kHostPageSize - 100, data.data(), data.size());
    expectFirstDifference(a, b, PagedBytes::npos);
    expectFirstDifference(PagedBytes(0), PagedBytes(0), PagedBytes::npos);

    // COW-shared pages compare equal; a write to the copy diverges
    // only the page it privatizes.
    PagedBytes c(a);
    expectFirstDifference(a, c, PagedBytes::npos);
    c.write(5 * kHostPageSize + 7, &one, 1);
    expectFirstDifference(a, c, 5 * kHostPageSize + 7);

    // A missing page equals a materialized all-zero page.
    PagedBytes zero(8 * kHostPageSize);
    const std::vector<std::uint8_t> zeros(kHostPageSize, 0);
    zero.write(3 * kHostPageSize, zeros.data(), zeros.size());
    ASSERT_TRUE(zero.touched(3 * kHostPageSize));
    expectFirstDifference(PagedBytes(8 * kHostPageSize), zero,
                          PagedBytes::npos);

    // Differences at the first and the last byte of a page.
    PagedBytes first(zero);
    first.write(3 * kHostPageSize, &one, 1);
    expectFirstDifference(zero, first, 3 * kHostPageSize);
    PagedBytes last(zero);
    last.write(4 * kHostPageSize - 1, &one, 1);
    expectFirstDifference(zero, last, 4 * kHostPageSize - 1);
    // The lower of two differing pages wins.
    last.write(6 * kHostPageSize, &one, 1);
    last.write(2 * kHostPageSize + 9, &one, 1);
    expectFirstDifference(zero, last, 2 * kHostPageSize + 9);

    // A size that is not a page multiple: only the partial last page's
    // real bytes are compared.
    const std::size_t odd = 3 * kHostPageSize + 100;
    PagedBytes p(odd);
    PagedBytes q(odd);
    q.write(odd - 1, &one, 1);
    expectFirstDifference(p, q, odd - 1);
    p.write(odd - 1, &one, 1);
    expectFirstDifference(p, q, PagedBytes::npos);
    q.write(3 * kHostPageSize + 50, &one, 1);
    expectFirstDifference(p, q, 3 * kHostPageSize + 50);
}

TEST(PagedBytes, MatchesFlatModelUnderRandomOpsAndCowCopies)
{
    // Not a page multiple, so the short last page is exercised too.
    const std::size_t size = 5 * kHostPageSize + 123;
    const std::size_t pages = (size + kHostPageSize - 1) / kHostPageSize;
    // Up to three stores; copies share pages and then diverge on both
    // sides. Reserved so references survive a copy-append.
    std::vector<PagedBytes> stores;
    std::vector<FlatModel> models;
    stores.reserve(3);
    models.reserve(3);
    stores.emplace_back(size);
    models.push_back({std::vector<std::uint8_t>(size, 0),
                      std::vector<bool>(pages, false)});

    Rng rng(test::loggedSeed("paged_bytes.model", 42));
    const auto markWritten = [](FlatModel& m, Addr a, std::size_t len) {
        for (std::size_t p = a / kHostPageSize; p * kHostPageSize < a + len;
             ++p)
            m.written[p] = true;
    };
    for (int step = 0; step < 3000; ++step) {
        const std::size_t s = rng.below(stores.size());
        PagedBytes& pb = stores[s];
        FlatModel& m = models[s];
        // A quarter of the time an 8 B scalar or a 64 B block, either
        // block-aligned or straddling a host page (the fixed-size copy
        // paths, and their split into two general-path chunks); a
        // quarter one to two whole pages (clearRange then drops pages);
        // else any range of up to 2.5 pages.
        Addr a = 0;
        std::size_t len = 0;
        switch (rng.below(4)) {
          case 0: {
              len = rng.below(2) == 0 ? 8 : 64;
              // Any page but the short last one, so a straddle fits.
              const Addr page = rng.below(pages - 1) * kHostPageSize;
              a = rng.below(2) == 0
                      ? page + rng.below(kHostPageSize / 64) * 64
                      : page + kHostPageSize - len / 2;
              break;
          }
          case 1:
              a = rng.below(pages) * kHostPageSize;
              len = (1 + rng.below(2)) * kHostPageSize;
              break;
          default:
              a = rng.below(size);
              len = 1 + rng.below(5 * kHostPageSize / 2);
              break;
        }
        len = std::min<std::size_t>(len, size - a);

        switch (rng.below(5)) {
          case 0: {
              std::vector<std::uint8_t> buf(len);
              for (auto& b : buf)
                  b = static_cast<std::uint8_t>(rng.next());
              pb.write(a, buf.data(), len);
              std::copy(buf.begin(), buf.end(), m.bytes.begin() + a);
              markWritten(m, a, len);
              break;
          }
          case 1: {
              const std::uint8_t v =
                  rng.below(2) == 0
                      ? 0
                      : static_cast<std::uint8_t>(1 + rng.below(255));
              pb.fill(a, v, len);
              std::fill_n(m.bytes.begin() + a, len, v);
              if (v != 0)
                  markWritten(m, a, len);
              break;
          }
          case 2:
              pb.clearRange(a, len);
              std::fill_n(m.bytes.begin() + a, len, 0);
              break;
          case 3: {
              std::vector<std::uint8_t> got(len);
              pb.read(a, got.data(), len);
              ASSERT_TRUE(std::equal(got.begin(), got.end(),
                                     m.bytes.begin() + a))
                  << "step " << step << ": read at " << a;
              break;
          }
          default: {
              // COW copy: append a new store, or overwrite another.
              if (stores.size() < 3) {
                  stores.emplace_back(pb);
                  models.push_back(m);
              } else {
                  const std::size_t d = rng.below(stores.size());
                  if (d != s) {
                      stores[d] = pb;
                      models[d] = m;
                  }
              }
              break;
          }
        }

        for (std::size_t i = 0; i < stores.size(); ++i) {
            ASSERT_EQ(readAll(stores[i]), models[i].bytes)
                << "step " << step << " store " << i;
            // Rebuilding from the touched ranges alone gives the
            // contents: every byte not enumerated reads as zero.
            std::vector<std::uint8_t> rebuilt(size, 0);
            stores[i].forEachTouchedRange(
                0, size,
                [&](Addr ra, const std::uint8_t* d, std::size_t rl) {
                    std::memcpy(rebuilt.data() + ra, d, rl);
                });
            ASSERT_EQ(rebuilt, models[i].bytes)
                << "step " << step << " store " << i;
            const auto ever = static_cast<std::size_t>(std::count(
                models[i].written.begin(), models[i].written.end(), true));
            ASSERT_LE(stores[i].touchedPageCount(), ever)
                << "step " << step << " store " << i;
            // Shared, missing and privatized pages all compare by
            // content, exactly as a flat scan does.
            for (std::size_t j = 0; j < i; ++j) {
                ASSERT_EQ(stores[i].firstDifference(stores[j]),
                          flatFirstDifference(models[i].bytes,
                                              models[j].bytes))
                    << "step " << step << " stores " << i << ", " << j;
            }
        }
    }
    EXPECT_EQ(stores.size(), 3u);
}

TEST(BackingStore, ViewStraddlesHostPageBoundary)
{
    auto root = std::make_shared<BackingStore>(4 * kHostPageSize);
    // A view whose range crosses the page-1|page-2 boundary at an
    // unaligned offset; writes through it must land in the root.
    BackingStore view(root, kHostPageSize + kHostPageSize / 2,
                      kHostPageSize);
    std::vector<std::uint8_t> pat(kHostPageSize);
    for (std::size_t i = 0; i < pat.size(); ++i)
        pat[i] = static_cast<std::uint8_t>(i * 7 + 1);
    view.write(0, pat.data(), pat.size());

    std::vector<std::uint8_t> got(pat.size());
    root->read(kHostPageSize + kHostPageSize / 2, got.data(), got.size());
    EXPECT_EQ(got, pat);

    // And reads through the view see root writes.
    const std::uint8_t v = 0xee;
    root->write(kHostPageSize + kHostPageSize / 2 + 10, &v, 1);
    std::uint8_t b = 0;
    view.read(10, &b, 1);
    EXPECT_EQ(b, 0xee);
}

TEST(BackingStore, RootCloneIsCowIsolated)
{
    BackingStore store(4 * kHostPageSize);
    const std::uint8_t v = 0x42;
    store.write(123, &v, 1);

    auto clone = store.clone();
    // Diverge both sides; neither write may leak across.
    const std::uint8_t w1 = 0x17, w2 = 0x99;
    store.write(123, &w1, 1);
    clone->write(500, &w2, 1);

    std::uint8_t got = 0;
    clone->read(123, &got, 1);
    EXPECT_EQ(got, 0x42);
    store.read(500, &got, 1);
    EXPECT_EQ(got, 0);
}

TEST(BackingStore, CloneOfViewPanics)
{
    // Only the root handle survives System::crash(); a view has no
    // image of its own to clone.
    auto root = std::make_shared<BackingStore>(4 * kHostPageSize);
    BackingStore view(root, kHostPageSize, kHostPageSize);
    EXPECT_THROW(view.clone(), PanicError);
    EXPECT_NE(root->clone(), nullptr);
}

TEST(BackingStore, ViewEnumeratesAndClearsOnlyItsRange)
{
    // Two adjacent views meet inside host page 1, so they share it.
    const std::size_t split = kHostPageSize + kHostPageSize / 2;
    auto root = std::make_shared<BackingStore>(4 * kHostPageSize);
    BackingStore lo(root, 0, split);
    BackingStore hi(root, split, root->size() - split);
    const std::uint8_t a = 0xa1, b = 0xb2;
    lo.write(split - 1, &a, 1); // last byte of lo, on page 1
    hi.write(0, &b, 1);         // first byte of hi, on page 1
    hi.write(2 * kHostPageSize, &b, 1);

    // Enumeration is clipped to the view and in view-local addresses;
    // rebuilding from it gives the view's contents.
    for (const BackingStore* v : {&lo, &hi}) {
        std::vector<std::uint8_t> want(v->size());
        v->read(0, want.data(), want.size());
        std::vector<std::uint8_t> rebuilt(v->size(), 0);
        v->forEachTouchedRange(
            [&](Addr ra, const std::uint8_t* d, std::size_t rl) {
                ASSERT_LE(ra + rl, v->size());
                std::memcpy(rebuilt.data() + ra, d, rl);
            });
        EXPECT_EQ(rebuilt, want);
    }

    // Clearing hi zeroes its range only: lo's byte on the shared page
    // survives, and hi's whole page 3 of the root is dropped.
    EXPECT_EQ(root->touchedPageCount(), 2u);
    hi.clear();
    std::uint8_t got = 0;
    lo.read(split - 1, &got, 1);
    EXPECT_EQ(got, 0xa1);
    hi.read(0, &got, 1);
    EXPECT_EQ(got, 0);
    EXPECT_EQ(root->touchedPageCount(), 1u);
}

TEST(Zipfian, MatchesAnalyticFrequencies)
{
    const std::uint64_t n = 100;
    const double theta = 0.99;
    ZipfianGenerator zipf(n, theta);
    Rng rng(test::loggedSeed("zipfian.freq", 11));

    const std::uint64_t draws = 200000;
    std::vector<std::uint64_t> counts(n, 0);
    for (std::uint64_t i = 0; i < draws; ++i) {
        const std::uint64_t r = zipf.next(rng);
        ASSERT_LT(r, n);
        ++counts[r];
    }

    // The head ranks carry enough mass for a tight relative check
    // (rank 0 expects ~13% of draws at theta=0.99, n=100).
    for (std::uint64_t r = 0; r < 10; ++r) {
        const double expect = zipf.probability(r);
        const double got =
            static_cast<double>(counts[r]) / static_cast<double>(draws);
        EXPECT_NEAR(got, expect, 0.15 * expect)
            << "rank " << r << " frequency off: got " << got
            << " want " << expect;
    }
    // Probabilities the generator reports must themselves normalize.
    double sum = 0.0;
    for (std::uint64_t r = 0; r < n; ++r)
        sum += zipf.probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // Monotone decreasing popularity over the head.
    for (std::uint64_t r = 1; r < 10; ++r)
        EXPECT_GE(counts[r - 1], counts[r]) << "rank " << r;
}

TEST(Zipfian, ScrambledDrawsAreInRangeAndDeterministic)
{
    const std::uint64_t n = 5000;
    ZipfianGenerator zipf(n, 0.99);

    Rng a(123), b(123);
    std::map<std::uint64_t, std::uint64_t> seen;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t ka = zipf.nextScrambled(a);
        const std::uint64_t kb = zipf.nextScrambled(b);
        ASSERT_LT(ka, n);
        // Stateless across draws: equal Rng streams give equal keys —
        // the property KvWorkload's snapshot/restore replay relies on.
        ASSERT_EQ(ka, kb);
        ++seen[ka];
    }
    // Scrambling spreads the popular ranks across the key space: the
    // hottest keys must not cluster at the low end.
    std::uint64_t hot_key = 0, hot_count = 0;
    for (const auto& [k, c] : seen) {
        if (c > hot_count) {
            hot_key = k;
            hot_count = c;
        }
    }
    EXPECT_GT(hot_key, 100u)
        << "scrambled zipfian left the hottest key at the low keys";
}

} // namespace
} // namespace thynvm
