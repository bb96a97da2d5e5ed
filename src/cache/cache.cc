/**
 * @file
 * Cache level implementation.
 */

#include "cache/cache.hh"

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/logging.hh"

namespace thynvm {

Cache::Cache(EventQueue& eq, std::string name, const Params& params,
             BlockAccessor& next)
    : SimObject(eq, std::move(name)), params_(params), next_(next)
{
    fatal_if(params_.size % (params_.assoc * kBlockSize) != 0,
             "cache size must be a multiple of assoc * block size");
    num_sets_ = params_.size / (params_.assoc * kBlockSize);
    fatal_if(!isPowerOfTwo(num_sets_), "cache must have 2^n sets");
    // Layout from a host cache line boundary: tags, data, LRU stamps,
    // dirty flags. A set's tags then start a host line, and so does
    // each line's data whenever the line count is a multiple of 8 (as
    // in every configured hierarchy). Data is left unwritten: a line's
    // data is read only after a fill has written it, so its pages are
    // first touched by the fill, not here.
    constexpr std::size_t kHostLine = 64;
    const std::size_t n = num_lines_ = num_sets_ * params_.assoc;
    const std::size_t tag_bytes = n * sizeof(Addr);
    const std::size_t bytes =
        tag_bytes + n * (kBlockSize + sizeof(std::uint64_t) + 1);
    storage_ =
        std::make_unique_for_overwrite<std::byte[]>(bytes + kHostLine - 1);
    std::byte* base = storage_.get();
    base += (kHostLine - reinterpret_cast<std::uintptr_t>(base) % kHostLine) %
            kHostLine;
    tags_ = reinterpret_cast<Addr*>(base);
    data_ = reinterpret_cast<std::uint8_t*>(base + tag_bytes);
    lru_ = reinterpret_cast<std::uint64_t*>(data_ + n * kBlockSize);
    dirty_ = reinterpret_cast<std::uint8_t*>(lru_ + n);
    std::fill_n(tags_, n, kInvalidAddr);
    std::fill_n(lru_, n, 0);
    std::fill_n(dirty_, n, 0);

    stats().addScalar("hits", &hits_, "block accesses that hit");
    stats().addScalar("misses", &misses_, "block accesses that missed");
    stats().addScalar("writebacks", &writebacks_,
                      "dirty victim writebacks");
    stats().addScalar("flush_writebacks", &flush_writebacks_,
                      "dirty blocks cleaned by checkpoint flushes");
    stats().addFormula(
        "miss_rate",
        [this] {
            double total = hits_.value() + misses_.value();
            return total > 0 ? misses_.value() / total : 0.0;
        },
        "fraction of accesses that missed");
}

std::size_t
Cache::setBase(Addr paddr) const
{
    return (static_cast<std::size_t>(blockIndex(paddr)) & (num_sets_ - 1)) *
           params_.assoc;
}

std::size_t
Cache::lookup(Addr paddr) const
{
    // Block addresses are aligned, so none equals kInvalidAddr: an
    // invalid line never matches.
    const std::size_t base = setBase(paddr);
    for (std::size_t i = base; i < base + params_.assoc; ++i) {
        if (tags_[i] == paddr)
            return i;
    }
    return kNoLine;
}

std::size_t
Cache::victimFor(Addr paddr) const
{
    const std::size_t base = setBase(paddr);
    std::size_t victim = base;
    for (std::size_t i = base; i < base + params_.assoc; ++i) {
        if (tags_[i] == kInvalidAddr)
            return i;
        if (lru_[i] < lru_[victim])
            victim = i;
    }
    return victim;
}

void
Cache::fill(std::size_t i, Addr paddr)
{
    tags_[i] = paddr;
    dirty_[i] = 0;
    lru_[i] = ++lru_clock_;
}

void
Cache::applyAccess(std::size_t i, bool is_write, const std::uint8_t* wdata,
                   std::uint8_t* rdata)
{
    if (is_write) {
        std::memcpy(lineData(i), wdata, kBlockSize);
        if (!dirty_[i]) {
            dirty_[i] = 1;
            ++dirty_lines_;
        }
    } else {
        std::memcpy(rdata, lineData(i), kBlockSize);
    }
}

void
Cache::accessBlock(Addr paddr, bool is_write, const std::uint8_t* wdata,
                   std::uint8_t* rdata, TrafficSource source,
                   std::function<void()> done)
{
    panic_if(paddr % kBlockSize != 0, "unaligned cache access");

    if (const std::size_t i = lookup(paddr); i != kNoLine) {
        ++hits_;
        lru_[i] = ++lru_clock_;
        applyAccess(i, is_write, wdata, rdata);
        if (done)
            eventq_.scheduleIn(params_.hit_latency, std::move(done));
        return;
    }

    ++misses_;

    // Evict the victim, writing dirty data down synchronously (timing of
    // the writeback proceeds independently of the demand access).
    const std::size_t victim = victimFor(paddr);
    if (dirty_[victim]) {
        ++writebacks_;
        --dirty_lines_;
        next_.accessBlock(tags_[victim], true, lineData(victim), nullptr,
                          TrafficSource::CpuWriteback, nullptr);
    }

    // Fill from the next level (write-allocate). Data arrives
    // functionally at call time; install it, then apply this access.
    fill(victim, paddr);

    // Apply the access functionally after the fill lands in the line.
    // The fill's rdata target is the line itself.
    auto chain = [this, done = std::move(done)]() mutable {
        if (done)
            eventq_.scheduleIn(params_.hit_latency, std::move(done));
    };
    next_.accessBlock(paddr, false, nullptr, lineData(victim), source,
                      std::move(chain));
    applyAccess(victim, is_write, wdata, rdata);
}

Tick
Cache::tryAccessFast(Addr paddr, bool is_write, const std::uint8_t* wdata,
                     std::uint8_t* rdata, TrafficSource source)
{
    panic_if(paddr % kBlockSize != 0, "unaligned cache access");

    if (const std::size_t i = lookup(paddr); i != kNoLine) {
        ++hits_;
        lru_[i] = ++lru_clock_;
        applyAccess(i, is_write, wdata, rdata);
        return params_.hit_latency;
    }

    // A miss stays fast only when it is pure cache-to-cache traffic: a
    // clean (or invalid) victim and a fill that resolves fast below. The
    // victim is probed *before* any mutation, and the fill target is the
    // victim line itself, which a refusing level leaves untouched — so
    // bailing out here is free of side effects and the caller can replay
    // the access on the event path.
    const std::size_t victim = victimFor(paddr);
    if (dirty_[victim])
        return kNoFastPath;
    const Tick fill_latency = next_.tryAccessFast(
        paddr, false, nullptr, lineData(victim), source);
    if (fill_latency == kNoFastPath)
        return kNoFastPath;

    ++misses_;
    fill(victim, paddr);
    applyAccess(victim, is_write, wdata, rdata);
    // Same charge as the event path: the fill completes below, then this
    // level's own access time elapses before the requester continues.
    return fill_latency + params_.hit_latency;
}

void
Cache::flushDirty(std::function<void()> done)
{
    panic_if(flush_outstanding_ != 0 || flush_done_,
             "overlapping cache flushes");

    // Checkpoint flushes on an already-clean cache are common in
    // page-dominated phases; skip the line scan entirely.
    if (dirty_lines_ == 0) {
        if (done)
            eventq_.scheduleIn(0, std::move(done));
        return;
    }

    // Issue a clean-without-invalidate writeback for every dirty block.
    // All writebacks are issued in one pass; the member counter fires
    // the continuation once the next level has acknowledged each.
    flush_done_ = std::move(done);
    flush_all_issued_ = false;

    for (std::size_t i = 0; i < num_lines_; ++i) {
        if (!dirty_[i])
            continue;
        dirty_[i] = 0;
        --dirty_lines_;
        ++flush_writebacks_;
        ++flush_outstanding_;
        next_.accessBlock(tags_[i], true, lineData(i), nullptr,
                          TrafficSource::CpuWriteback,
                          [this] { flushAck(); });
        if (dirty_lines_ == 0)
            break;
    }

    flush_all_issued_ = true;
    if (flush_outstanding_ == 0 && flush_done_) {
        auto cb = std::move(flush_done_);
        flush_done_ = nullptr;
        eventq_.scheduleIn(0, std::move(cb));
    }
}

void
Cache::flushAck()
{
    panic_if(flush_outstanding_ == 0, "flush ack underflow");
    --flush_outstanding_;
    if (flush_all_issued_ && flush_outstanding_ == 0 && flush_done_) {
        auto cb = std::move(flush_done_);
        flush_done_ = nullptr;
        cb();
    }
}

void
Cache::invalidateAll()
{
    std::fill_n(tags_, num_lines_, kInvalidAddr);
    std::fill_n(dirty_, num_lines_, 0);
    dirty_lines_ = 0;
    // Power loss also abandons any in-flight flush: the acknowledgment
    // events died with the queue, so the fan-in state must not survive
    // into the next life of this cache.
    flush_outstanding_ = 0;
    flush_all_issued_ = false;
    flush_done_ = nullptr;
}

} // namespace thynvm
