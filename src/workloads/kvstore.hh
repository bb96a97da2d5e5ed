/**
 * @file
 * Key-value store workload (paper §5.1 "storage benchmarks",
 * Figures 9 and 10).
 *
 * Runs search/insert/delete transactions against a hash table or a
 * red-black tree that lives entirely in simulated memory. Each
 * transaction is *planned* functionally (reads consult the controller's
 * software-visible state plus a local write buffer; writes are
 * buffered), then replayed through the timed CPU path as Load/Store
 * ops. Planning is exact because execution is single-threaded, so the
 * replayed image matches a host-side reference run byte for byte —
 * which the consistency tests exploit.
 *
 * The workload's generator state (RNG, transaction counter, remaining
 * planned ops) is the CPU architectural state: it is checkpointed with
 * the epoch and restored at crash recovery, so a recovered system
 * resumes mid-transaction exactly where the checkpoint was taken.
 */

#ifndef THYNVM_WORKLOADS_KVSTORE_HH
#define THYNVM_WORKLOADS_KVSTORE_HH

#include <deque>
#include <memory>

#include "common/rng.hh"
#include "cpu/workload.hh"
#include "workloads/hashtable.hh"
#include "workloads/rbtree.hh"

namespace thynvm {

class MemController;

/**
 * Transactional KV-store workload over simulated memory.
 */
class KvWorkload : public Workload
{
  public:
    enum class Structure
    {
        HashTable,
        RbTree,
    };

    struct Params
    {
        Structure structure = Structure::HashTable;
        /** Simulated physical space available to the workload. */
        std::size_t phys_size = 32u << 20;
        /** Value size in bytes (the paper sweeps 16 B - 4 KB). */
        std::uint32_t value_size = 256;
        /** Keys preloaded before measurement. */
        std::uint64_t initial_keys = 1024;
        /** Keys are drawn from [0, key_space); at most 2^32. */
        std::uint64_t key_space = 4096;
        /**
         * Zipfian skew of transaction keys: 0 keeps the historical
         * uniform draw; in (0, 1) keys come from a scrambled-zipfian
         * generator (YCSB idiom, 0.99 = YCSB default) over key_space.
         * Initial loading stays uniform either way.
         */
        double zipf_theta = 0.0;
        /** Operation mix (remainder of 1.0 goes to deletes). */
        double search_frac = 0.5;
        double insert_frac = 0.35;
        /** Buckets for the hash-table variant. */
        std::uint64_t hash_buckets = 4096;
        /** Transactions to run (0 = unbounded). */
        std::uint64_t total_txns = 0;
        /** Non-memory instructions per transaction. */
        std::uint64_t compute_per_txn = 200;
        /** RNG seed. */
        std::uint64_t seed = 7;
    };

    explicit KvWorkload(const Params& p);

    // Workload interface.
    void init(MemController& mem) override;
    bool next(WorkOp& op) override;
    std::vector<std::uint8_t> snapshot() const override;
    void restore(const std::vector<std::uint8_t>& blob) override;

    /** Transactions fully replayed so far. */
    std::uint64_t completedTxns() const { return txns_completed_; }

    /** Workload parameters. */
    const Params& params() const { return p_; }

    /**
     * Reference model: build the initial image and apply @p txns
     * transactions host-side. The resulting bytes must equal the
     * simulated memory after the same number of transactions.
     */
    static void runReference(const Params& p, std::uint64_t txns,
                             HostMemSpace& out);

    /** Structural validation of the store inside @p mem. */
    static void validateStructure(const Params& p, MemSpace& mem);

    /**
     * Deterministic value payload for (key, txn): @p len bytes of an
     * LCG stream, each 64-bit state emitted little-endian.
     */
    static void fillValue(std::uint64_t key, std::uint64_t txn,
                          std::uint8_t* buf, std::uint32_t len);

  private:
    struct PlannedOp
    {
        bool is_load;
        Addr addr;
        std::uint32_t size;
        std::vector<std::uint8_t> data; // store payload
    };

    static Addr tableHeaderAddr() { return 64; }
    static Addr heapBase() { return 4096; }

    static void buildInitialImage(const Params& p, HostMemSpace& img);
    /**
     * Apply one transaction against @p mem using @p rng; @p zipf (may
     * be null) supplies skewed keys when the params ask for them.
     */
    static void applyTxn(const Params& p, MemSpace& mem, Rng& rng,
                         std::uint64_t txn_no,
                         const ZipfianGenerator* zipf);
    /** Key generator for @p p, or nullptr for the uniform draw. */
    static std::unique_ptr<ZipfianGenerator>
    makeKeyGenerator(const Params& p);

    void planNextTxn();

    Params p_;
    Rng rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
    MemController* mem_ = nullptr;
    std::deque<PlannedOp> ops_;
    PlannedOp cur_;
    std::uint64_t txns_planned_ = 0;
    std::uint64_t txns_completed_ = 0;
    bool compute_pending_ = false;
};

} // namespace thynvm

#endif // THYNVM_WORKLOADS_KVSTORE_HH
