/**
 * @file
 * A set-associative writeback cache level.
 *
 * Matches the paper's Table 2 hierarchy when configured by the system
 * builder (L1 32 KB/8-way, L2 256 KB/8-way, L3 2 MB/16-way, 64 B blocks,
 * LRU). Functional semantics follow the BlockAccessor contract: data
 * moves synchronously at call time, callbacks model timing, so the
 * hierarchy is always functionally coherent.
 *
 * Checkpointing support: flushDirty() cleans every dirty block by
 * writing it to the next level *without invalidating* it, mirroring the
 * CLWB-style flush the paper uses (§4.4).
 *
 * Lines are stored as parallel arrays (tags, LRU stamps, dirty flags,
 * data) indexed by set * assoc + way, so a lookup scans only the set's
 * tags: two host cache lines for a 16-way set instead of 22 with the
 * data interleaved.
 */

#ifndef THYNVM_CACHE_CACHE_HH
#define THYNVM_CACHE_CACHE_HH

#include <cstddef>
#include <cstring>
#include <memory>

#include "mem/block_accessor.hh"
#include "sim/sim_object.hh"

namespace thynvm {

/**
 * One level of a writeback, write-allocate cache hierarchy.
 */
class Cache : public SimObject, public BlockAccessor
{
  public:
    /** Static cache geometry and timing. */
    struct Params
    {
        std::size_t size = 32 * 1024;  //!< capacity in bytes
        unsigned assoc = 8;            //!< associativity
        Tick hit_latency = kNanosecond; //!< tag+data access time
    };

    /**
     * @param eq event queue.
     * @param name instance name.
     * @param params geometry and timing.
     * @param next next level (another Cache or a MemController).
     */
    Cache(EventQueue& eq, std::string name, const Params& params,
          BlockAccessor& next);

    /** See BlockAccessor. @p paddr must be block aligned. */
    void accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source,
                     std::function<void()> done) override;

    /**
     * Synchronous fast path (see BlockAccessor): answers on a hit, or on
     * a miss whose victim is clean and whose fill resolves fast in the
     * level below. Dirty-victim misses refuse — the writeback must be
     * staged as timed device traffic on the event path.
     */
    Tick tryAccessFast(Addr paddr, bool is_write, const std::uint8_t* wdata,
                       std::uint8_t* rdata, TrafficSource source) override;

    /** Functional read observing this level's lines first. */
    void
    functionalReadBlock(Addr paddr, std::uint8_t* buf) override
    {
        if (const std::size_t i = lookup(paddr); i != kNoLine) {
            std::memcpy(buf, lineData(i), kBlockSize);
            return;
        }
        next_.functionalReadBlock(paddr, buf);
    }

    /**
     * Write every dirty block back to the next level and mark it clean,
     * keeping the data valid (flush without invalidate). @p done fires
     * when all writebacks have been acknowledged by the next level.
     */
    void flushDirty(std::function<void()> done);

    /** Drop all contents without writeback (power loss). */
    void invalidateAll();

    /** Number of dirty blocks currently held. O(1). */
    std::size_t dirtyBlockCount() const { return dirty_lines_; }

    /**
     * Enumerate the block addresses of all valid dirty lines as
     * fn(paddr). The functional view overlays cache contents on the
     * controller image, so touched-range enumeration must include
     * dirty blocks (clean lines mirror the controller and need no
     * report).
     */
    template <typename Fn>
    void
    forEachDirtyBlock(Fn&& fn) const
    {
        for (std::size_t i = 0; i < num_lines_; ++i) {
            if (dirty_[i])
                fn(tags_[i]);
        }
    }

    /** Cache geometry. */
    const Params& params() const { return params_; }

  private:
    /** lookup() result for a miss. */
    static constexpr std::size_t kNoLine = ~std::size_t{0};

    /** Index of the first line (way 0) of @p paddr's set. */
    std::size_t setBase(Addr paddr) const;
    /** Line holding @p paddr, or kNoLine. */
    std::size_t lookup(Addr paddr) const;
    /** Choose a victim line in the set containing @p paddr. */
    std::size_t victimFor(Addr paddr) const;
    /** Install @p paddr in line @p i, clean and most recently used. */
    void fill(std::size_t i, Addr paddr);
    /** The kBlockSize bytes of line @p i. */
    std::uint8_t* lineData(std::size_t i) { return data_ + i * kBlockSize; }
    /** Copy the access data to or from line @p i; a write dirties it. */
    void applyAccess(std::size_t i, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata);
    /** One flush writeback acknowledged by the next level. */
    void flushAck();

    Params params_;
    BlockAccessor& next_;
    std::size_t num_sets_;
    std::size_t num_lines_;
    /**
     * One allocation backs the four per-line arrays below. Four
     * separate ones doubled System set-up time: glibc returned them to
     * the OS between Systems, so each new cache faulted its pages in.
     */
    std::unique_ptr<std::byte[]> storage_;
    /** Per line: block address, kInvalidAddr if the line is invalid. */
    Addr* tags_ = nullptr;
    /** Per line: block contents, kBlockSize bytes each. */
    std::uint8_t* data_ = nullptr;
    /** Per line: LRU stamp (larger is more recent). */
    std::uint64_t* lru_ = nullptr;
    /** Per line: nonzero iff dirty (only valid lines are dirty). */
    std::uint8_t* dirty_ = nullptr;
    std::uint64_t lru_clock_ = 0;
    /** Running count of valid dirty lines; keeps flushes on clean
     *  caches and dirtyBlockCount() O(1). */
    std::size_t dirty_lines_ = 0;

    /** In-flight flushDirty() fan-in; at most one flush runs at a time. */
    std::size_t flush_outstanding_ = 0;
    bool flush_all_issued_ = false;
    std::function<void()> flush_done_;

    stats::Scalar hits_;
    stats::Scalar misses_;
    stats::Scalar writebacks_;
    stats::Scalar flush_writebacks_;
};

} // namespace thynvm

#endif // THYNVM_CACHE_CACHE_HH
