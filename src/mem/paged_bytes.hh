/**
 * @file
 * Sparse, copy-on-write paged byte container.
 *
 * The functional stores of a simulated machine (device backing stores,
 * the multi-channel functional mirror, host-side image builders) are
 * logically flat byte arrays, but on a GB-scale machine only a small
 * fraction of the space is ever touched. PagedBytes keeps a page table
 * of 4 KiB host pages allocated on first write; untouched ranges read
 * as an implicit shared zero page, copies share pages under a per-page
 * refcount and diverge on write, and the touched set is enumerable so
 * image capture, recovery rebuilds, and clone are O(touched pages)
 * instead of O(capacity).
 *
 * Concurrency contract (matches how simulated stores are used):
 *  - Concurrent writers to *disjoint byte ranges* are safe: first-touch
 *    page allocation races are resolved with a CAS on the table slot,
 *    and the byte writes themselves never overlap. (A multi-channel
 *    machine writes disjoint channel slices of one root store, today
 *    from one thread.)
 *  - Concurrent readers of ranges not being written are safe.
 *  - Copying (COW share), clear() and touched-set enumeration require
 *    quiescence; they happen at crash, recovery, and test time only.
 */

#ifndef THYNVM_MEM_PAGED_BYTES_HH
#define THYNVM_MEM_PAGED_BYTES_HH

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>

#include "common/logging.hh"
#include "common/types.hh"

namespace thynvm {

/** Host page granularity; equal to the simulated kPageSize. */
constexpr std::size_t kHostPageSize = 4096;

class PagedBytes
{
  public:
    PagedBytes() : PagedBytes(0) {}

    explicit PagedBytes(std::size_t size)
        : size_(size), table_(std::make_unique<Slot[]>(numPages()))
    {}

    /** COW copy: shares every allocated page (requires quiescence). */
    PagedBytes(const PagedBytes& other) : PagedBytes(other.size_)
    {
        for (std::size_t i = 0; i < numPages(); ++i) {
            Page* p = other.table_[i].load(std::memory_order_acquire);
            if (p != nullptr)
                p->refs.fetch_add(1, std::memory_order_relaxed);
            table_[i].store(p, std::memory_order_relaxed);
        }
    }

    PagedBytes&
    operator=(const PagedBytes& other)
    {
        if (this != &other) {
            PagedBytes copy(other);
            *this = std::move(copy);
        }
        return *this;
    }

    PagedBytes(PagedBytes&& other) noexcept { moveFrom(other); }

    PagedBytes&
    operator=(PagedBytes&& other) noexcept
    {
        if (this != &other) {
            releaseAll();
            moveFrom(other);
        }
        return *this;
    }

    ~PagedBytes() { releaseAll(); }

    std::size_t size() const { return size_; }

    void
    read(Addr addr, void* buf, std::size_t len) const
    {
        checkRange(addr, len);
        std::uint8_t* out = static_cast<std::uint8_t*>(buf);
        while (len > 0) {
            const std::size_t pi = addr / kHostPageSize;
            const std::size_t off = addr % kHostPageSize;
            const std::size_t chunk = std::min(len, kHostPageSize - off);
            const Page* p = table_[pi].load(std::memory_order_acquire);
            if (p != nullptr)
                copyChunk(out, p->bytes + off, chunk);
            else
                std::memset(out, 0, chunk);
            out += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    void
    write(Addr addr, const void* buf, std::size_t len)
    {
        checkRange(addr, len);
        const std::uint8_t* in = static_cast<const std::uint8_t*>(buf);
        while (len > 0) {
            const std::size_t pi = addr / kHostPageSize;
            const std::size_t off = addr % kHostPageSize;
            const std::size_t chunk = std::min(len, kHostPageSize - off);
            copyChunk(pageForWrite(pi) + off, in, chunk);
            in += chunk;
            addr += chunk;
            len -= chunk;
        }
    }

    void
    fill(Addr addr, std::uint8_t value, std::size_t len)
    {
        checkRange(addr, len);
        while (len > 0) {
            const std::size_t pi = addr / kHostPageSize;
            const std::size_t off = addr % kHostPageSize;
            const std::size_t chunk = std::min(len, kHostPageSize - off);
            // Zero-filling a never-touched page is a no-op: it already
            // reads as zeros, and materializing it would defeat the
            // sparse representation (clear() relies on this).
            if (value != 0 ||
                table_[pi].load(std::memory_order_acquire) != nullptr) {
                std::memset(pageForWrite(pi) + off, value, chunk);
            }
            addr += chunk;
            len -= chunk;
        }
    }

    /** Zero the whole store, dropping every page (O(pages-table)). */
    void
    clear()
    {
        clearRange(0, size_);
    }

    /**
     * Zero [@p addr, @p addr + @p len): fully covered pages are
     * *dropped* back to the implicit zero page; partial head/tail
     * pages are memset in place (only if already materialized).
     */
    void
    clearRange(Addr addr, std::size_t len)
    {
        checkRange(addr, len);
        while (len > 0) {
            const std::size_t pi = addr / kHostPageSize;
            const std::size_t off = addr % kHostPageSize;
            const std::size_t chunk = std::min(len, kHostPageSize - off);
            if (off == 0 && chunk == kHostPageSize) {
                Page* p = table_[pi].exchange(nullptr,
                                              std::memory_order_acq_rel);
                unref(p);
            } else {
                fill(addr, 0, chunk);
            }
            addr += chunk;
            len -= chunk;
        }
    }

    /** Number of materialized (touched) pages. */
    std::size_t
    touchedPageCount() const
    {
        std::size_t n = 0;
        for (std::size_t i = 0; i < numPages(); ++i) {
            if (table_[i].load(std::memory_order_acquire) != nullptr)
                ++n;
        }
        return n;
    }

    /** True when the page containing @p addr has been materialized. */
    bool
    touched(Addr addr) const
    {
        checkRange(addr, 1);
        return table_[addr / kHostPageSize].load(
                   std::memory_order_acquire) != nullptr;
    }

    /**
     * Enumerate touched bytes overlapping [@p lo, @p hi) in ascending
     * address order as fn(addr, data, len). Every byte *not* reported
     * reads as zero. Requires quiescence (no concurrent writers).
     */
    template <typename Fn>
    void
    forEachTouchedRange(Addr lo, Addr hi, Fn&& fn) const
    {
        hi = std::min<Addr>(hi, size_);
        if (lo >= hi)
            return;
        for (std::size_t pi = lo / kHostPageSize;
             pi * kHostPageSize < hi; ++pi) {
            const Page* p = table_[pi].load(std::memory_order_acquire);
            if (p == nullptr)
                continue;
            const Addr page_lo = std::max<Addr>(lo, pi * kHostPageSize);
            const Addr page_hi =
                std::min<Addr>(hi, (pi + 1) * kHostPageSize);
            fn(page_lo, p->bytes + (page_lo % kHostPageSize),
               static_cast<std::size_t>(page_hi - page_lo));
        }
    }

    /** firstDifference()'s "no difference" result. */
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /**
     * First offset at which this store and @p other (of equal size)
     * differ, or npos. Pointer-equal pages (COW-shared, or both
     * untouched) are skipped without a byte compare, and an untouched
     * page compares as zeros, so the cost is O(pages that differ in
     * representation). Requires quiescence.
     */
    std::size_t
    firstDifference(const PagedBytes& other) const
    {
        panic_if(size_ != other.size_,
                 "comparing paged stores of sizes %zu and %zu", size_,
                 other.size_);
        static const std::uint8_t zeros[kHostPageSize] = {};
        for (std::size_t pi = 0; pi < numPages(); ++pi) {
            const Page* a = table_[pi].load(std::memory_order_acquire);
            const Page* b = other.table_[pi].load(std::memory_order_acquire);
            if (a == b)
                continue;
            const std::uint8_t* x = a != nullptr ? a->bytes : zeros;
            const std::uint8_t* y = b != nullptr ? b->bytes : zeros;
            const std::size_t len =
                std::min(kHostPageSize, size_ - pi * kHostPageSize);
            if (std::memcmp(x, y, len) == 0)
                continue;
            return pi * kHostPageSize +
                   static_cast<std::size_t>(
                       std::mismatch(x, x + len, y).first - x);
        }
        return npos;
    }

  private:
    struct Page
    {
        std::atomic<std::uint32_t> refs{1};
        std::uint8_t bytes[kHostPageSize];
    };
    using Slot = std::atomic<Page*>;

    std::size_t
    numPages() const
    {
        return (size_ + kHostPageSize - 1) / kHostPageSize;
    }

    /**
     * Copy one chunk. A runtime-length memcpy is compiled to an inline
     * `rep movs`, whose start-up cost dwarfs an 8-byte or one-block
     * copy; the two sizes that dominate (scalar fields and 64 B blocks)
     * get fixed-size copies, which compile to plain moves.
     */
    static void
    copyChunk(std::uint8_t* dst, const std::uint8_t* src, std::size_t n)
    {
        if (n == 8)
            std::memcpy(dst, src, 8);
        else if (n == 64)
            std::memcpy(dst, src, 64);
        else
            std::memcpy(dst, src, n);
    }

    static Page*
    newPage(const Page* src)
    {
        Page* p = new Page();
        if (src != nullptr)
            std::memcpy(p->bytes, src->bytes, kHostPageSize);
        else
            std::memset(p->bytes, 0, kHostPageSize);
        return p;
    }

    static void
    unref(Page* p)
    {
        if (p != nullptr &&
            p->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            delete p;
        }
    }

    /**
     * Return writable page @p pi, materializing (first touch) or
     * privatizing (COW) it as needed. Races between first-touch
     * writers of the same page are settled by a CAS on the table slot;
     * the loser frees its candidate and adopts the winner's page (the
     * byte ranges being written never overlap, per the class contract).
     */
    std::uint8_t*
    pageForWrite(std::size_t pi)
    {
        Slot& slot = table_[pi];
        Page* p = slot.load(std::memory_order_acquire);
        for (;;) {
            if (p == nullptr) {
                Page* fresh = newPage(nullptr);
                if (slot.compare_exchange_strong(
                        p, fresh, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
                    return fresh->bytes;
                }
                delete fresh; // lost the race; p reloaded
                continue;
            }
            if (p->refs.load(std::memory_order_acquire) == 1)
                return p->bytes; // sole owner: write in place
            Page* mine = newPage(p); // shared: copy-on-write
            if (slot.compare_exchange_strong(p, mine,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
                unref(p);
                return mine->bytes;
            }
            delete mine; // another writer of this store privatized first
        }
    }

    void
    releaseAll()
    {
        if (table_ != nullptr) {
            for (std::size_t i = 0; i < numPages(); ++i)
                unref(table_[i].load(std::memory_order_acquire));
            table_.reset();
        }
        size_ = 0;
    }

    void
    moveFrom(PagedBytes& other)
    {
        size_ = other.size_;
        table_ = std::move(other.table_);
        other.size_ = 0;
    }

    void
    checkRange(Addr addr, std::size_t len) const
    {
        panic_if(addr + len > size_ || addr + len < addr,
                 "paged store access out of range: addr=%llu len=%zu "
                 "capacity=%zu",
                 static_cast<unsigned long long>(addr), len, size_);
    }

    std::size_t size_ = 0;
    std::unique_ptr<Slot[]> table_; //!< one slot per host page
};

} // namespace thynvm

#endif // THYNVM_MEM_PAGED_BYTES_HH
