/**
 * @file
 * Interface for block-granularity timed memory access.
 *
 * Implemented by caches and memory controllers so a cache level can be
 * stacked on either. The functional/timing split contract: read data is
 * produced synchronously at call time; write data is consumed at call
 * time; the callback models timing only.
 */

#ifndef THYNVM_MEM_BLOCK_ACCESSOR_HH
#define THYNVM_MEM_BLOCK_ACCESSOR_HH

#include <cstdint>
#include <cstring>
#include <functional>

#include "common/types.hh"
#include "mem/request.hh"

namespace thynvm {

/**
 * Returned by tryAccessFast() when the access cannot complete
 * synchronously and must take the event path instead.
 */
constexpr Tick kNoFastPath = kMaxTick;

/**
 * Anything that services 64-byte block accesses with split
 * functional/timing semantics.
 */
class BlockAccessor
{
  public:
    virtual ~BlockAccessor() = default;

    /**
     * Access one block.
     * @param paddr block-aligned physical address.
     * @param is_write write (data consumed now) vs read (data produced
     *        now into @p rdata).
     * @param wdata kBlockSize bytes of write data, or nullptr for reads.
     * @param rdata kBlockSize byte output buffer, or nullptr for writes.
     * @param source traffic attribution.
     * @param done timing-completion callback (reads: data was already
     *        delivered at call time; writes: posted acknowledgment).
     */
    virtual void accessBlock(Addr paddr, bool is_write,
                             const std::uint8_t* wdata,
                             std::uint8_t* rdata, TrafficSource source,
                             std::function<void()> done) = 0;

    /**
     * Synchronous fast path: service the access inline and return its
     * latency, or return kNoFastPath without any observable effect.
     *
     * A level may answer only when the access completes entirely within
     * state it owns synchronously — a cache hit, or a miss whose fill
     * resolves fast below and whose victim needs no writeback. Anything
     * that would stage device-queue traffic (and thus make the issue
     * tick timing-visible) must refuse. On success the level performs
     * exactly the mutations the event path would (stats, LRU, data) and
     * the caller charges the returned latency itself; no callback fires.
     * On refusal the level must leave all state, including @p rdata,
     * untouched, so the caller can replay the access via accessBlock()
     * with identical results.
     */
    virtual Tick
    tryAccessFast(Addr paddr, bool is_write, const std::uint8_t* wdata,
                  std::uint8_t* rdata, TrafficSource source)
    {
        (void)paddr;
        (void)is_write;
        (void)wdata;
        (void)rdata;
        (void)source;
        return kNoFastPath;
    }

    /**
     * Functional (zero-time) read of one block's current architectural
     * contents, observing any copies held at this level. Caches check
     * their own lines before delegating downward; controllers resolve
     * the software-visible version.
     */
    virtual void functionalReadBlock(Addr paddr, std::uint8_t* buf) = 0;
};

/**
 * Read [@p addr, @p addr + @p len) into @p buf one block at a time:
 * read(block, out) fills kBlockSize bytes of @p block's contents.
 */
template <typename ReadBlock>
void
readByBlocks(Addr addr, void* buf, std::size_t len, ReadBlock&& read)
{
    auto* out = static_cast<std::uint8_t*>(buf);
    forEachBlockChunk(addr, len, [&](const BlockChunk& c, std::size_t done) {
        if (c.len == kBlockSize) {
            read(c.block, out + done);
            return;
        }
        std::uint8_t tmp[kBlockSize];
        read(c.block, tmp);
        std::memcpy(out + done, tmp + c.offset, c.len);
    });
}

} // namespace thynvm

#endif // THYNVM_MEM_BLOCK_ACCESSOR_HH
