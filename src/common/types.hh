/**
 * @file
 * Fundamental scalar types and unit constants shared across the simulator.
 *
 * The simulator counts time in integer ticks of one picosecond, following
 * the gem5 convention. All device timing parameters are expressed in
 * nanoseconds in configuration structs and converted to ticks internally.
 */

#ifndef THYNVM_COMMON_TYPES_HH
#define THYNVM_COMMON_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <limits>

namespace thynvm {

/** Simulation time in picoseconds. */
using Tick = std::uint64_t;

/** A memory address (physical or hardware, depending on context). */
using Addr = std::uint64_t;

/** CPU cycle count. */
using Cycles = std::uint64_t;

/** Sentinel for "no tick scheduled". */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Sentinel for an invalid address. */
constexpr Addr kInvalidAddr = std::numeric_limits<Addr>::max();

/** One picosecond, the base tick unit. */
constexpr Tick kPicosecond = 1;
/** One nanosecond in ticks. */
constexpr Tick kNanosecond = 1000 * kPicosecond;
/** One microsecond in ticks. */
constexpr Tick kMicrosecond = 1000 * kNanosecond;
/** One millisecond in ticks. */
constexpr Tick kMillisecond = 1000 * kMicrosecond;
/** One second in ticks. */
constexpr Tick kSecond = 1000 * kMillisecond;

/** Cache block (line) size in bytes; fixed at 64 as in the paper. */
constexpr std::size_t kBlockSize = 64;
/** Memory page size in bytes; fixed at 4096 as in the paper. */
constexpr std::size_t kPageSize = 4096;
/** Number of cache blocks per page. */
constexpr std::size_t kBlocksPerPage = kPageSize / kBlockSize;

/** Round @p addr down to the containing block boundary. */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kBlockSize - 1);
}

/** Round @p addr down to the containing page boundary. */
constexpr Addr
pageAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kPageSize - 1);
}

/** Index of the block containing @p addr, counted from address zero. */
constexpr std::uint64_t
blockIndex(Addr addr)
{
    return addr / kBlockSize;
}

/** Index of the page containing @p addr, counted from address zero. */
constexpr std::uint64_t
pageIndex(Addr addr)
{
    return addr / kPageSize;
}

/** Index of the block containing @p addr within its page. */
constexpr std::uint64_t
blockInPage(Addr addr)
{
    return (addr % kPageSize) / kBlockSize;
}

/** The part of a byte range that lies in one block. */
struct BlockChunk
{
    /** The block's aligned address. */
    Addr block;
    /** Offset of the part's first byte within the block. */
    std::size_t offset;
    /** Bytes in the part. */
    std::size_t len;
};

/** The part of [@p addr, @p addr + @p len) in @p addr's block. */
constexpr BlockChunk
blockChunk(Addr addr, std::size_t len)
{
    const Addr block = blockAlign(addr);
    const std::size_t offset = addr - block;
    return {block, offset,
            len < kBlockSize - offset ? len : kBlockSize - offset};
}

/**
 * Split [@p addr, @p addr + @p len) at block boundaries: fn(chunk, done)
 * runs once per part in address order, @p done being the bytes of the
 * range before it.
 */
template <typename Fn>
void
forEachBlockChunk(Addr addr, std::size_t len, Fn&& fn)
{
    for (std::size_t done = 0; done < len;) {
        const BlockChunk c = blockChunk(addr + done, len - done);
        fn(c, done);
        done += c.len;
    }
}

/** Round @p value up to the next multiple of @p align (a power of two). */
constexpr std::uint64_t
roundUp(std::uint64_t value, std::uint64_t align)
{
    return (value + align - 1) & ~(align - 1);
}

/** True if @p value is a power of two (and nonzero). */
constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

} // namespace thynvm

#endif // THYNVM_COMMON_TYPES_HH
