/**
 * @file
 * Unit tests for the workload layer: the simulated heap, the hash
 * table and red-black tree (validated against std::map references),
 * and the workload generators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "workloads/hashtable.hh"
#include "workloads/kvstore.hh"
#include "workloads/micro.hh"
#include "workloads/rbtree.hh"
#include "workloads/spec.hh"
#include "workloads/trace.hh"

namespace thynvm {
namespace {

constexpr Addr kHeapBase = 4096;
constexpr std::size_t kSpace = 8u << 20;
constexpr std::uint64_t kPhi = 0x9e3779b97f4a7c15ULL;

/**
 * The payload stream one byte at a time, the way every golden and
 * recorded digest was first generated: byte i is byte i % 8 of the
 * (i / 8)-th word of the serial LCG chain that starts at @p seed.
 */
void
bytewisePayload(std::uint8_t* dst, std::size_t len, std::uint64_t seed)
{
    std::uint64_t v = seed;
    for (std::size_t i = 0; i < len; ++i) {
        dst[i] = static_cast<std::uint8_t>(v >> ((i % 8) * 8));
        if (i % 8 == 7)
            v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    }
}

/** Index of the first byte where @p got and @p want differ, or -1. */
long
firstMismatch(const std::uint8_t* got, const std::uint8_t* want,
              std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        if (got[i] != want[i])
            return static_cast<long>(i);
    }
    return -1;
}

TEST(PayloadTest, FourLaneFillMatchesBytewiseStreamAtEveryLength)
{
    // 0..4200 covers every tail shape modulo 32 (whole lanes left over)
    // and modulo 8 (bytes of the next lane's word) many times over.
    constexpr std::size_t kMaxLen = 4200;
    std::vector<std::uint8_t> want(kMaxLen + 1);
    std::vector<std::uint8_t> got(kMaxLen + 1);
    for (std::uint64_t seed :
         {0ull, 1ull, 0x0123456789abcdefull, ~0ull}) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            // One guard byte past the end must stay untouched.
            std::fill(want.begin(), want.end(), 0xa5);
            std::fill(got.begin(), got.end(), 0xa5);
            bytewisePayload(want.data(), len, seed);
            fillLcgPayload(got.data(), len, seed);
            ASSERT_EQ(firstMismatch(got.data(), want.data(), len + 1), -1)
                << "len=" << len << " seed=" << seed;
        }
    }
}

struct HeapTest : public ::testing::Test
{
    HeapTest() : mem(kSpace), heap(kHeapBase, kSpace - kHeapBase)
    {
        heap.format(mem);
    }
    HostMemSpace mem;
    SimHeap heap;
};

TEST_F(HeapTest, AllocationsAreDisjointAndInBounds)
{
    std::vector<std::pair<Addr, std::size_t>> allocs;
    for (std::size_t size : {8, 24, 64, 100, 500, 4000}) {
        Addr a = heap.alloc(mem, size);
        EXPECT_GE(a, kHeapBase);
        EXPECT_LT(a + size, kSpace);
        for (const auto& [b, bs] : allocs)
            EXPECT_TRUE(a + SimHeap::classBytes(SimHeap::classOf(size)) <=
                            b ||
                        b + SimHeap::classBytes(SimHeap::classOf(bs)) <= a);
        allocs.emplace_back(a, size);
    }
}

TEST_F(HeapTest, FreeListReusesBlocks)
{
    Addr a = heap.alloc(mem, 64);
    heap.free(mem, a, 64);
    Addr b = heap.alloc(mem, 64);
    EXPECT_EQ(a, b);
}

TEST_F(HeapTest, SizeClassesSeparateFreeLists)
{
    Addr small = heap.alloc(mem, 16);
    Addr big = heap.alloc(mem, 4096);
    heap.free(mem, small, 16);
    heap.free(mem, big, 4096);
    EXPECT_EQ(heap.alloc(mem, 4096), big);
    EXPECT_EQ(heap.alloc(mem, 16), small);
}

TEST_F(HeapTest, ClassOfRoundsUp)
{
    EXPECT_EQ(SimHeap::classBytes(SimHeap::classOf(1)), 16u);
    EXPECT_EQ(SimHeap::classBytes(SimHeap::classOf(16)), 16u);
    EXPECT_EQ(SimHeap::classBytes(SimHeap::classOf(17)), 32u);
    EXPECT_EQ(SimHeap::classBytes(SimHeap::classOf(4096)), 4096u);
    EXPECT_EQ(SimHeap::classBytes(SimHeap::classOf(4097)), 8192u);
    EXPECT_EQ(SimHeap::classBytes(SimHeap::classOf(262144)), 262144u);
    EXPECT_THROW(SimHeap::classOf(262145), PanicError);
}

TEST_F(HeapTest, ExhaustionPanics)
{
    SimHeap tiny(kHeapBase, 16 * 1024);
    tiny.format(mem);
    EXPECT_THROW(
        {
            for (int i = 0; i < 100; ++i)
                tiny.alloc(mem, 4096);
        },
        PanicError);
}

TEST_F(HeapTest, AllocatorStateLivesInMemSpace)
{
    heap.alloc(mem, 64);
    const auto used = heap.bumpUsed(mem);
    EXPECT_GT(used, 0u);
    // A copy of the memory space carries the allocator state with it.
    HostMemSpace copy = mem;
    EXPECT_EQ(heap.bumpUsed(copy), used);
}

// ---------------------------------------------------------------------

struct HashTableTest : public ::testing::Test
{
    HashTableTest()
        : mem(kSpace), heap(kHeapBase, kSpace - kHeapBase),
          table(64, heap)
    {
        heap.format(mem);
        table.create(mem, 61); // non-power-of-two buckets
    }

    std::vector<std::uint8_t>
    value(std::uint64_t key, std::uint32_t len)
    {
        std::vector<std::uint8_t> v(len);
        for (std::uint32_t i = 0; i < len; ++i)
            v[i] = static_cast<std::uint8_t>(key * 13 + i);
        return v;
    }

    std::vector<std::uint8_t>
    get(std::uint64_t key)
    {
        Addr va = 0;
        std::uint32_t vl = 0;
        if (!table.find(mem, key, &va, &vl))
            return {};
        std::vector<std::uint8_t> out(vl);
        mem.read(va, out.data(), vl);
        return out;
    }

    HostMemSpace mem;
    SimHeap heap;
    SimHashTable table;
};

TEST_F(HashTableTest, InsertFindRoundTrip)
{
    table.insert(mem, 42, value(42, 100).data(), 100);
    EXPECT_EQ(get(42), value(42, 100));
    EXPECT_TRUE(get(43).empty());
    EXPECT_EQ(table.count(mem), 1u);
}

TEST_F(HashTableTest, UpdateInPlace)
{
    table.insert(mem, 5, value(5, 64).data(), 64);
    table.insert(mem, 5, value(99, 64).data(), 64);
    EXPECT_EQ(get(5), value(99, 64));
    EXPECT_EQ(table.count(mem), 1u);
}

TEST_F(HashTableTest, UpdateAcrossSizeClasses)
{
    table.insert(mem, 5, value(5, 16).data(), 16);
    table.insert(mem, 5, value(5, 2000).data(), 2000);
    EXPECT_EQ(get(5), value(5, 2000));
}

TEST_F(HashTableTest, EraseUnlinksAndFrees)
{
    table.insert(mem, 1, value(1, 32).data(), 32);
    table.insert(mem, 2, value(2, 32).data(), 32);
    EXPECT_TRUE(table.erase(mem, 1));
    EXPECT_FALSE(table.erase(mem, 1));
    EXPECT_TRUE(get(1).empty());
    EXPECT_EQ(get(2), value(2, 32));
    EXPECT_EQ(table.count(mem), 1u);
}

TEST_F(HashTableTest, RandomOpsMatchStdMap)
{
    std::map<std::uint64_t, std::vector<std::uint8_t>> ref;
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t key = rng.below(200);
        const double dice = rng.uniform();
        if (dice < 0.4) {
            auto v = value(key + i, 48);
            table.insert(mem, key, v.data(), 48);
            ref[key] = v;
        } else if (dice < 0.7) {
            EXPECT_EQ(table.erase(mem, key), ref.erase(key) == 1);
        } else {
            auto got = get(key);
            auto it = ref.find(key);
            if (it == ref.end())
                EXPECT_TRUE(got.empty());
            else
                EXPECT_EQ(got, it->second);
        }
    }
    EXPECT_EQ(table.count(mem), ref.size());
    table.validate(mem);
}

// ---------------------------------------------------------------------

struct RbTreeTest : public ::testing::Test
{
    RbTreeTest()
        : mem(kSpace), heap(kHeapBase, kSpace - kHeapBase),
          tree(64, heap)
    {
        heap.format(mem);
        tree.create(mem);
    }

    std::vector<std::uint8_t>
    value(std::uint64_t key, std::uint32_t len)
    {
        std::vector<std::uint8_t> v(len);
        for (std::uint32_t i = 0; i < len; ++i)
            v[i] = static_cast<std::uint8_t>(key * 31 + i);
        return v;
    }

    std::vector<std::uint8_t>
    get(std::uint64_t key)
    {
        Addr va = 0;
        std::uint32_t vl = 0;
        if (!tree.find(mem, key, &va, &vl))
            return {};
        std::vector<std::uint8_t> out(vl);
        mem.read(va, out.data(), vl);
        return out;
    }

    HostMemSpace mem;
    SimHeap heap;
    SimRbTree tree;
};

TEST_F(RbTreeTest, InsertFindRoundTrip)
{
    tree.insert(mem, 10, value(10, 64).data(), 64);
    tree.insert(mem, 5, value(5, 64).data(), 64);
    tree.insert(mem, 15, value(15, 64).data(), 64);
    EXPECT_EQ(get(5), value(5, 64));
    EXPECT_EQ(get(10), value(10, 64));
    EXPECT_EQ(get(15), value(15, 64));
    EXPECT_TRUE(get(7).empty());
    tree.validate(mem);
}

TEST_F(RbTreeTest, AscendingInsertStaysBalanced)
{
    for (std::uint64_t k = 0; k < 200; ++k) {
        tree.insert(mem, k, value(k, 16).data(), 16);
        tree.validate(mem);
    }
    EXPECT_EQ(tree.count(mem), 200u);
}

TEST_F(RbTreeTest, DescendingInsertStaysBalanced)
{
    for (std::uint64_t k = 200; k > 0; --k)
        tree.insert(mem, k, value(k, 16).data(), 16);
    tree.validate(mem);
    EXPECT_EQ(tree.count(mem), 200u);
}

TEST_F(RbTreeTest, EraseLeafInternalAndRoot)
{
    for (std::uint64_t k : {50, 30, 70, 20, 40, 60, 80})
        tree.insert(mem, k, value(k, 16).data(), 16);
    EXPECT_TRUE(tree.erase(mem, 20)); // leaf
    tree.validate(mem);
    EXPECT_TRUE(tree.erase(mem, 30)); // internal
    tree.validate(mem);
    EXPECT_TRUE(tree.erase(mem, 50)); // (old) root
    tree.validate(mem);
    EXPECT_FALSE(tree.erase(mem, 50));
    EXPECT_EQ(tree.count(mem), 4u);
    for (std::uint64_t k : {40, 60, 70, 80})
        EXPECT_EQ(get(k), value(k, 16));
}

TEST_F(RbTreeTest, UpdateReplacesValue)
{
    tree.insert(mem, 7, value(7, 32).data(), 32);
    tree.insert(mem, 7, value(8, 32).data(), 32);
    EXPECT_EQ(get(7), value(8, 32));
    EXPECT_EQ(tree.count(mem), 1u);
}

TEST_F(RbTreeTest, RandomOpsMatchStdMapWithValidation)
{
    std::map<std::uint64_t, std::vector<std::uint8_t>> ref;
    Rng rng(23);
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = rng.below(300);
        const double dice = rng.uniform();
        if (dice < 0.45) {
            auto v = value(key + i, 24);
            tree.insert(mem, key, v.data(), 24);
            ref[key] = v;
        } else if (dice < 0.75) {
            EXPECT_EQ(tree.erase(mem, key), ref.erase(key) == 1);
        } else {
            auto got = get(key);
            auto it = ref.find(key);
            if (it == ref.end())
                EXPECT_TRUE(got.empty());
            else
                EXPECT_EQ(got, it->second);
        }
        if (i % 256 == 0)
            tree.validate(mem);
    }
    tree.validate(mem);
    EXPECT_EQ(tree.count(mem), ref.size());
}

// ---------------------------------------------------------------------

TEST(MicroWorkloadTest, StreamingIsSequential)
{
    MicroWorkload::Params p;
    p.pattern = MicroWorkload::Pattern::Streaming;
    p.array_bytes = 1024;
    p.access_size = 64;
    p.read_fraction = 1.0;
    p.total_accesses = 32;
    MicroWorkload wl(p);
    WorkOp op;
    Addr expected = 0;
    while (wl.next(op)) {
        if (op.kind == WorkOp::Kind::Compute)
            continue;
        EXPECT_EQ(op.addr, expected % 1024);
        expected += 64;
    }
    EXPECT_EQ(wl.issued(), 32u);
}

TEST(MicroWorkloadTest, RandomStaysInBounds)
{
    MicroWorkload::Params p;
    p.pattern = MicroWorkload::Pattern::Random;
    p.base = 4096;
    p.array_bytes = 64 * 1024;
    p.total_accesses = 500;
    MicroWorkload wl(p);
    WorkOp op;
    while (wl.next(op)) {
        if (op.kind == WorkOp::Kind::Compute)
            continue;
        EXPECT_GE(op.addr, 4096u);
        EXPECT_LT(op.addr + op.size, 4096u + 64 * 1024 + 1);
    }
}

TEST(MicroWorkloadTest, SlidingWindowMoves)
{
    MicroWorkload::Params p;
    p.pattern = MicroWorkload::Pattern::Sliding;
    p.array_bytes = 1u << 20;
    p.window_bytes = 4096;
    p.accesses_per_window = 16;
    p.total_accesses = 64;
    MicroWorkload wl(p);
    WorkOp op;
    Addr max_seen = 0;
    while (wl.next(op)) {
        if (op.kind != WorkOp::Kind::Compute)
            max_seen = std::max(max_seen, op.addr);
    }
    // After 4 windows the accesses must have moved past window 0.
    EXPECT_GT(max_seen, 4096u);
}

TEST(MicroWorkloadTest, SnapshotRestoreResumesStream)
{
    MicroWorkload::Params p;
    p.pattern = MicroWorkload::Pattern::Random;
    p.total_accesses = 100;
    MicroWorkload a(p), b(p);
    WorkOp op;
    for (int i = 0; i < 50; ++i)
        a.next(op);
    auto blob = a.snapshot();
    b.restore(blob);
    WorkOp oa, ob;
    while (true) {
        const bool ra = a.next(oa);
        const bool rb = b.next(ob);
        ASSERT_EQ(ra, rb);
        if (!ra)
            break;
        EXPECT_EQ(oa.kind, ob.kind);
        EXPECT_EQ(oa.addr, ob.addr);
    }
}

TEST(MicroWorkloadTest, StorePayloadsMatchBytewiseStream)
{
    // l1_resident's shape (1 KB ops) and a size with a word tail.
    for (std::uint32_t size : {1024u, 40u}) {
        MicroWorkload::Params p;
        p.pattern = MicroWorkload::Pattern::Random;
        p.array_bytes = 64 * size;
        p.access_size = size;
        p.total_accesses = 600;
        MicroWorkload wl(p);
        std::vector<std::uint8_t> want(size);
        WorkOp op;
        int stores = 0;
        while (wl.next(op)) {
            if (op.kind != WorkOp::Kind::Store)
                continue;
            ++stores;
            bytewisePayload(want.data(), size, op.addr * kPhi + wl.issued());
            ASSERT_EQ(firstMismatch(op.data, want.data(), size), -1)
                << "size=" << size << " store " << stores;
        }
        EXPECT_GT(stores, 200);
    }
}

TEST(TraceReplayTest, StorePayloadsMatchBytewiseStream)
{
    // Stores of random sizes up to the replay buffer, mixed with loads.
    Rng rng(99);
    std::vector<TraceRecord> records;
    for (int i = 0; i < 400; ++i) {
        TraceRecord rec{};
        rec.kind = static_cast<std::uint8_t>(
            rng.chance(0.75) ? WorkOp::Kind::Store : WorkOp::Kind::Load);
        rec.size = static_cast<std::uint32_t>(rng.range(1, 8192));
        rec.addr = rng.below(1u << 30);
        records.push_back(rec);
    }
    TraceReplayWorkload wl(records);
    std::vector<std::uint8_t> want(8192);
    WorkOp op;
    int stores = 0;
    while (wl.next(op)) {
        if (op.kind != WorkOp::Kind::Store)
            continue;
        ++stores;
        // The sequence number is the record's 1-based position.
        bytewisePayload(want.data(), op.size, op.addr * kPhi + wl.position());
        ASSERT_EQ(firstMismatch(op.data, want.data(), op.size), -1)
            << "size=" << op.size << " position " << wl.position();
    }
    EXPECT_GT(stores, 250);
}

TEST(SpecWorkloadTest, ProfilesExist)
{
    EXPECT_EQ(specProfiles().size(), 8u);
    EXPECT_EQ(std::string(specProfile("lbm").name), "lbm");
    EXPECT_THROW(specProfile("not-a-benchmark"), FatalError);
}

TEST(SpecWorkloadTest, MemoryRatioApproximatesProfile)
{
    const auto& prof = specProfile("milc");
    SpecWorkload wl(prof, 0, 200000, 3);
    WorkOp op;
    std::uint64_t mem_ops = 0, instrs = 0;
    while (wl.next(op)) {
        if (op.kind == WorkOp::Kind::Compute) {
            instrs += op.count;
        } else {
            instrs += 1;
            ++mem_ops;
        }
    }
    const double ratio =
        static_cast<double>(mem_ops) / static_cast<double>(instrs);
    EXPECT_NEAR(ratio, prof.mem_ratio, 0.08);
}

TEST(SpecWorkloadTest, WriteFractionApproximatesProfile)
{
    const auto& prof = specProfile("lbm");
    SpecWorkload wl(prof, 0, 100000, 5);
    WorkOp op;
    std::uint64_t writes = 0, mem_ops = 0;
    while (wl.next(op)) {
        if (op.kind == WorkOp::Kind::Load)
            ++mem_ops;
        if (op.kind == WorkOp::Kind::Store) {
            ++mem_ops;
            ++writes;
        }
    }
    EXPECT_NEAR(static_cast<double>(writes) /
                    static_cast<double>(mem_ops),
                prof.write_frac, 0.05);
}

TEST(KvWorkloadTest, ReferenceRunIsDeterministic)
{
    KvWorkload::Params p;
    p.phys_size = 4u << 20;
    p.value_size = 64;
    p.initial_keys = 100;
    p.key_space = 400;
    p.total_txns = 200;
    HostMemSpace a(p.phys_size), b(p.phys_size);
    KvWorkload::runReference(p, 200, a);
    KvWorkload::runReference(p, 200, b);
    EXPECT_EQ(a.bytes(), b.bytes());
    KvWorkload::validateStructure(p, a);
}

TEST(KvWorkloadTest, RbTreeReferenceValidates)
{
    KvWorkload::Params p;
    p.structure = KvWorkload::Structure::RbTree;
    p.phys_size = 4u << 20;
    p.value_size = 128;
    p.initial_keys = 150;
    p.key_space = 500;
    HostMemSpace img(p.phys_size);
    KvWorkload::runReference(p, 300, img);
    KvWorkload::validateStructure(p, img);
}

TEST(KvWorkloadTest, FillValueMatchesBytewiseStream)
{
    // The byte-at-a-time loop fillValue replaced: every value in every
    // golden and recorded digest was generated by it.
    auto bytewise = [](std::uint64_t key, std::uint64_t txn,
                       std::uint8_t* buf, std::uint32_t len) {
        bytewisePayload(buf, len, (key + 1) * kPhi ^ (txn + 1));
    };
    const std::pair<std::uint64_t, std::uint64_t> key_txns[] = {
        {0, 0}, {17, 3}, {~0ull, 123456789}};
    for (std::uint32_t len : {1u, 7u, 8u, 9u, 100u, 256u, 4096u}) {
        for (const auto& [key, txn] : key_txns) {
            // One guard byte past the end must stay untouched.
            std::vector<std::uint8_t> want(len + 1, 0xa5);
            std::vector<std::uint8_t> got(len + 1, 0xa5);
            bytewise(key, txn, want.data(), len);
            KvWorkload::fillValue(key, txn, got.data(), len);
            EXPECT_EQ(got, want) << "len=" << len << " key=" << key;
        }
    }
}

/**
 * The initial image the way it was built before repeated draws were
 * skipped: one plain insert() per draw. The header at 64 and the heap
 * from 4096 are KvWorkload's layout.
 */
void
buildImageByInsert(const KvWorkload::Params& p, HostMemSpace& img)
{
    SimHeap heap(4096, p.phys_size - 4096);
    heap.format(img);
    const bool hash = p.structure == KvWorkload::Structure::HashTable;
    SimHashTable table(64, heap);
    SimRbTree tree(64, heap);
    if (hash)
        table.create(img, p.hash_buckets);
    else
        tree.create(img);
    Rng rng(p.seed + 0x1234);
    std::vector<std::uint8_t> value(p.value_size);
    for (std::uint64_t i = 0; i < p.initial_keys; ++i) {
        const std::uint64_t key = rng.below(p.key_space);
        KvWorkload::fillValue(key, 0, value.data(), p.value_size);
        if (hash)
            table.insert(img, key, value.data(), p.value_size);
        else
            tree.insert(img, key, value.data(), p.value_size);
    }
}

TEST(KvWorkloadTest, InitialImageMatchesOneInsertPerDraw)
{
    // {initial_keys, key_space}: a few repeats; repeats dominating
    // (key_space < initial_keys); and a sparse key space.
    const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
        {300, 1200}, {600, 150}, {40, 1u << 20}};
    std::uint64_t seed = 1;
    for (auto structure : {KvWorkload::Structure::HashTable,
                           KvWorkload::Structure::RbTree}) {
        for (std::uint32_t value_size : {16u, 256u, 4096u}) {
            for (const auto& [initial, space] : shapes) {
                KvWorkload::Params p;
                p.structure = structure;
                p.phys_size = 8u << 20;
                p.value_size = value_size;
                p.initial_keys = initial;
                p.key_space = space;
                p.hash_buckets = 64;
                p.seed = seed++;
                HostMemSpace got(p.phys_size), want(p.phys_size);
                KvWorkload::runReference(p, 0, got);
                buildImageByInsert(p, want);
                ASSERT_EQ(got.bytes(), want.bytes())
                    << "seed=" << p.seed << " value_size=" << value_size
                    << " initial_keys=" << initial
                    << " key_space=" << space;
                KvWorkload::validateStructure(p, got);
            }
        }
    }
}

TEST(KvWorkloadTest, KeySpaceAboveTwoToThe32IsRejected)
{
    KvWorkload::Params p;
    p.phys_size = 1u << 20;
    p.initial_keys = 1;
    p.key_space = (std::uint64_t{1} << 32) + 1;
    HostMemSpace img(p.phys_size);
    EXPECT_THROW(KvWorkload::runReference(p, 0, img), FatalError);
}

} // namespace
} // namespace thynvm
