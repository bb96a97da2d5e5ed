/**
 * @file
 * A chained hash table living entirely in simulated memory.
 *
 * Represents the paper's hash-table key-value store (Figure 9a/10a).
 * Layout (all addresses are simulated physical addresses):
 *   header  : {magic, nbuckets, count, buckets_addr}
 *   buckets : nbuckets x u64 head-node pointers
 *   node    : {key, next, value_addr, value_len, pad} in the SimHeap
 *   value   : value_len bytes in the SimHeap
 */

#ifndef THYNVM_WORKLOADS_HASHTABLE_HH
#define THYNVM_WORKLOADS_HASHTABLE_HH

#include "workloads/simheap.hh"

namespace thynvm {

/**
 * Simulated-memory chained hash table with u64 keys and byte-string
 * values.
 */
class SimHashTable
{
  public:
    /**
     * @param header_addr address of the table header.
     * @param heap allocator used for nodes and values.
     */
    SimHashTable(Addr header_addr, const SimHeap& heap)
        : header_(header_addr), heap_(heap)
    {}

    /** Create an empty table with @p nbuckets buckets. */
    void create(MemSpace& mem, std::uint64_t nbuckets) const;

    /**
     * Look up @p key. Returns true and sets @p value_addr/@p value_len
     * if present.
     */
    bool find(MemSpace& mem, std::uint64_t key, Addr* value_addr,
              std::uint32_t* value_len) const;

    /**
     * Insert or update @p key with @p len value bytes at @p value.
     * Same-size updates overwrite the value allocation in place.
     */
    void insert(MemSpace& mem, std::uint64_t key, const void* value,
                std::uint32_t len) const;

    /**
     * Insert @p key, known to be absent, at its chain head without
     * walking the chain. The result is the same as insert() of an
     * absent key.
     */
    void insertAbsent(MemSpace& mem, std::uint64_t key, const void* value,
                      std::uint32_t len) const;

    /** Erase @p key. Returns false if absent. */
    bool erase(MemSpace& mem, std::uint64_t key) const;

    /** Number of live keys. */
    std::uint64_t count(MemSpace& mem) const;

    /**
     * Structural self-check: walks every chain, verifies node
     * plausibility, and checks the stored count. Panics on corruption.
     */
    void validate(MemSpace& mem) const;

  private:
    struct Node
    {
        std::uint64_t key;
        std::uint64_t next;
        std::uint64_t value_addr;
        std::uint32_t value_len;
        std::uint32_t pad;
    };
    static_assert(sizeof(Node) == 32);

    static constexpr std::uint64_t kMagic = 0x484153485441424cull;

    /**
     * Link a new node for @p key at the head of bucket @p b of the
     * bucket array @p arr. Takes what the caller already read: a
     * re-read of the header would add loads to insert(), and during
     * simulation every read is replayed as a timed load.
     */
    void linkAtHead(MemSpace& mem, Addr arr, std::uint64_t b,
                    std::uint64_t key, const void* value,
                    std::uint32_t len) const;

    Addr bucketsAddr(MemSpace& mem) const
    {
        return mem.readT<std::uint64_t>(header_ + 24);
    }
    std::uint64_t nbuckets(MemSpace& mem) const
    {
        return mem.readT<std::uint64_t>(header_ + 8);
    }
    static std::uint64_t
    hashKey(std::uint64_t key)
    {
        std::uint64_t z = key + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    Addr header_;
    SimHeap heap_;
};

} // namespace thynvm

#endif // THYNVM_WORKLOADS_HASHTABLE_HH
