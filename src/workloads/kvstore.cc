/**
 * @file
 * KvWorkload implementation.
 */

#include "workloads/kvstore.hh"

#include <cstring>

#include "mem/controller.hh"

namespace thynvm {

void
KvWorkload::fillValue(std::uint64_t key, std::uint64_t txn,
                      std::uint8_t* buf, std::uint32_t len)
{
    fillLcgPayload(buf, len, (key + 1) * 0x9e3779b97f4a7c15ULL ^ (txn + 1));
}

namespace {

/**
 * Planning view: reads consult the functional memory state overlaid
 * with the transaction's own buffered writes, and every access is
 * logged for replay through the timed CPU path.
 */
class TxnSpace : public MemSpace
{
  public:
    struct LogEntry
    {
        bool is_load;
        Addr addr;
        std::uint32_t size;
        std::vector<std::uint8_t> data;
    };

    explicit TxnSpace(const FunctionalView& view) : view_(view) {}

    void
    read(Addr addr, void* buf, std::size_t len) override
    {
        view_(addr, buf, len);
        // Newer buffered writes overlay the functional state.
        for (const auto& e : log_) {
            if (e.is_load)
                continue;
            const Addr lo = std::max(addr, e.addr);
            const Addr hi =
                std::min(addr + len, e.addr + e.data.size());
            if (lo < hi) {
                std::memcpy(static_cast<std::uint8_t*>(buf) + (lo - addr),
                            e.data.data() + (lo - e.addr), hi - lo);
            }
        }
        log_.push_back(LogEntry{true, addr,
                                static_cast<std::uint32_t>(len), {}});
    }

    void
    write(Addr addr, const void* buf, std::size_t len) override
    {
        const auto* p = static_cast<const std::uint8_t*>(buf);
        log_.push_back(LogEntry{false, addr,
                                static_cast<std::uint32_t>(len),
                                std::vector<std::uint8_t>(p, p + len)});
    }

    std::vector<LogEntry>& log() { return log_; }

  private:
    const FunctionalView& view_;
    std::vector<LogEntry> log_;
};

} // namespace

KvWorkload::KvWorkload(const Params& p) : p_(p), rng_(p.seed)
{
    fatal_if(p_.value_size == 0 || p_.value_size > 4096,
             "value size out of range");
    fatal_if(p_.search_frac + p_.insert_frac > 1.0,
             "operation mix exceeds 1.0");
    zipf_ = makeKeyGenerator(p_);
}

std::unique_ptr<ZipfianGenerator>
KvWorkload::makeKeyGenerator(const Params& p)
{
    if (p.zipf_theta == 0.0)
        return nullptr;
    return std::make_unique<ZipfianGenerator>(p.key_space, p.zipf_theta);
}

void
KvWorkload::buildInitialImage(const Params& p, HostMemSpace& img)
{
    SimHeap heap(heapBase(), p.phys_size - heapBase());
    heap.format(img);
    const bool hash = p.structure == Structure::HashTable;
    SimHashTable table(tableHeaderAddr(), heap);
    SimRbTree tree(tableHeaderAddr(), heap);
    if (hash)
        table.create(img, p.hash_buckets);
    else
        tree.create(img);

    // Every initial value is fillValue(key, 0, ...), so a repeated draw
    // would only rewrite identical bytes through the same-size update
    // path: skip it, still drawing the RNG in the same order. Drawn keys
    // are kept in a host bitmap over key_space. A first draw is absent
    // from the store, so a hash key is linked without a chain walk.
    fatal_if(p.key_space > (std::uint64_t{1} << 32),
             "key_space above 2^32: the image build's drawn-key bitmap "
             "would exceed 512 MiB");
    std::vector<bool> present(p.key_space);
    Rng init_rng(p.seed + 0x1234);
    std::vector<std::uint8_t> value(p.value_size);
    for (std::uint64_t i = 0; i < p.initial_keys; ++i) {
        const std::uint64_t key = init_rng.below(p.key_space);
        if (present[key])
            continue;
        present[key] = true;
        fillValue(key, 0, value.data(), p.value_size);
        if (hash)
            table.insertAbsent(img, key, value.data(), p.value_size);
        else
            tree.insert(img, key, value.data(), p.value_size);
    }
}

void
KvWorkload::applyTxn(const Params& p, MemSpace& mem, Rng& rng,
                     std::uint64_t txn_no, const ZipfianGenerator* zipf)
{
    SimHeap heap(heapBase(), p.phys_size - heapBase());
    const double dice = rng.uniform();
    const std::uint64_t key = zipf != nullptr
                                  ? zipf->nextScrambled(rng)
                                  : rng.below(p.key_space);

    std::vector<std::uint8_t> value(p.value_size);
    auto run = [&](auto& store) {
        if (dice < p.search_frac) {
            Addr va = 0;
            std::uint32_t vl = 0;
            if (store.find(mem, key, &va, &vl)) {
                // Read the full value, as a real GET would.
                std::vector<std::uint8_t> out(vl);
                mem.read(va, out.data(), vl);
            }
        } else if (dice < p.search_frac + p.insert_frac) {
            fillValue(key, txn_no, value.data(), p.value_size);
            store.insert(mem, key, value.data(), p.value_size);
        } else {
            store.erase(mem, key);
        }
    };

    if (p.structure == Structure::HashTable) {
        SimHashTable table(tableHeaderAddr(), heap);
        run(table);
    } else {
        SimRbTree tree(tableHeaderAddr(), heap);
        run(tree);
    }
}

void
KvWorkload::init(MemController& mem)
{
    mem_ = &mem;
    HostMemSpace img(p_.phys_size);
    buildInitialImage(p_, img);
    // Load only the touched ranges of the sparse image: controllers
    // start zeroed and loadImage is a pure store write, so skipping
    // the untouched (all-zero) ranges lands the identical image at
    // O(touched) cost — what makes a multi-GiB phys_size feasible.
    img.forEachTouchedRange(
        [&mem](Addr a, const std::uint8_t* data, std::size_t len) {
            mem.loadImage(a, data, len);
        });
    if (!fview_) {
        // Fall back to the controller's visible state (no caches).
        fview_ = [this](Addr a, void* buf, std::size_t len) {
            mem_->functionalRead(a, buf, len);
        };
    }
}

void
KvWorkload::planNextTxn()
{
    panic_if(!fview_, "KvWorkload used without a functional view");
    TxnSpace space(fview_);
    applyTxn(p_, space, rng_, ++txns_planned_, zipf_.get());
    for (auto& e : space.log()) {
        PlannedOp op;
        op.is_load = e.is_load;
        op.addr = e.addr;
        op.size = e.size;
        op.data = std::move(e.data);
        ops_.push_back(std::move(op));
    }
    compute_pending_ = true;
}

bool
KvWorkload::next(WorkOp& op)
{
    if (ops_.empty() && !compute_pending_) {
        if (p_.total_txns != 0 && txns_planned_ >= p_.total_txns)
            return false;
        planNextTxn();
    }

    if (compute_pending_) {
        compute_pending_ = false;
        op.kind = WorkOp::Kind::Compute;
        op.count = p_.compute_per_txn;
        return true;
    }

    cur_ = std::move(ops_.front());
    ops_.pop_front();
    op.addr = cur_.addr;
    op.size = cur_.size;
    if (cur_.is_load) {
        op.kind = WorkOp::Kind::Load;
    } else {
        op.kind = WorkOp::Kind::Store;
        op.data = cur_.data.data();
    }
    if (ops_.empty())
        ++txns_completed_;
    return true;
}

std::vector<std::uint8_t>
KvWorkload::snapshot() const
{
    // [rng][planned][completed][compute_pending][n_ops]{op...}
    std::size_t size = sizeof(Rng) + 8 + 8 + 1 + 8;
    for (const auto& o : ops_)
        size += 1 + 8 + 4 + (o.is_load ? 0 : o.data.size());

    std::vector<std::uint8_t> blob(size);
    std::uint8_t* out = blob.data();
    std::memcpy(out, &rng_, sizeof(Rng));
    out += sizeof(Rng);
    std::memcpy(out, &txns_planned_, 8);
    out += 8;
    std::memcpy(out, &txns_completed_, 8);
    out += 8;
    *out++ = compute_pending_ ? 1 : 0;
    const std::uint64_t n = ops_.size();
    std::memcpy(out, &n, 8);
    out += 8;
    for (const auto& o : ops_) {
        *out++ = o.is_load ? 1 : 0;
        std::memcpy(out, &o.addr, 8);
        out += 8;
        std::memcpy(out, &o.size, 4);
        out += 4;
        if (!o.is_load) {
            std::memcpy(out, o.data.data(), o.data.size());
            out += o.data.size();
        }
    }
    panic_if(out != blob.data() + blob.size(), "snapshot size mismatch");
    return blob;
}

void
KvWorkload::restore(const std::vector<std::uint8_t>& blob)
{
    panic_if(blob.size() < sizeof(Rng) + 25, "short kv snapshot");
    const std::uint8_t* in = blob.data();
    std::memcpy(&rng_, in, sizeof(Rng));
    in += sizeof(Rng);
    std::memcpy(&txns_planned_, in, 8);
    in += 8;
    std::memcpy(&txns_completed_, in, 8);
    in += 8;
    compute_pending_ = (*in++ != 0);
    std::uint64_t n = 0;
    std::memcpy(&n, in, 8);
    in += 8;
    ops_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        PlannedOp o;
        o.is_load = (*in++ != 0);
        std::memcpy(&o.addr, in, 8);
        in += 8;
        std::memcpy(&o.size, in, 4);
        in += 4;
        if (!o.is_load) {
            o.data.assign(in, in + o.size);
            in += o.size;
        }
        ops_.push_back(std::move(o));
    }
    panic_if(in != blob.data() + blob.size(), "corrupt kv snapshot");
}

void
KvWorkload::runReference(const Params& p, std::uint64_t txns,
                         HostMemSpace& out)
{
    buildInitialImage(p, out);
    Rng rng(p.seed);
    const std::unique_ptr<ZipfianGenerator> zipf = makeKeyGenerator(p);
    for (std::uint64_t t = 1; t <= txns; ++t)
        applyTxn(p, out, rng, t, zipf.get());
}

void
KvWorkload::validateStructure(const Params& p, MemSpace& mem)
{
    SimHeap heap(heapBase(), p.phys_size - heapBase());
    if (p.structure == Structure::HashTable) {
        SimHashTable table(tableHeaderAddr(), heap);
        table.validate(mem);
    } else {
        SimRbTree tree(tableHeaderAddr(), heap);
        tree.validate(mem);
    }
}

} // namespace thynvm
