/**
 * @file
 * Crash-point instrumentation for the crash fuzzer.
 *
 * Controllers announce each named step of their checkpoint pipeline to
 * an attached CrashPointRegistry (MemController::crashPoint()). The
 * registry counts hits per site, so a fuzz driver can (a) enumerate
 * every reachable crash site of a workload by running it once with an
 * unarmed registry, and (b) arm a precise crash plan — "the Nth hit of
 * site S, plus D ticks" — and replay the identical run to it.
 *
 * Crash plans are expressed in (site, hit ordinal, tick delta) rather
 * than executed-event counts on purpose: event counts differ between
 * the synchronous hit fast path and the event path, while site hit
 * ordinals and ticks are part of simulated behavior and therefore
 * identical in both modes (the fast-path equivalence contract). This
 * is what lets crash/recovery shapes run under the equivalence suite.
 *
 * The registry is deliberately passive: firing never crashes anything
 * by itself. The driver polls fired(), drains every event up to
 * crashTick(), and then calls System::crash(), so the power failure
 * always lands on a tick boundary.
 *
 * Header-only and dependency-free (below the mem layer) so that
 * MemController can include it; the fuzz driver library proper lives
 * in fuzzer.hh/.cc above the harness layer.
 */

#ifndef THYNVM_FUZZ_CRASH_POINTS_HH
#define THYNVM_FUZZ_CRASH_POINTS_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/types.hh"

namespace thynvm {

/**
 * Counts crash-site announcements and fires an armed crash plan.
 */
class CrashPointRegistry
{
  public:
    /** Per-site hit statistics from one run. */
    struct SiteStats
    {
        std::uint64_t hits = 0;
        Tick first_tick = 0;
        Tick last_tick = 0;
    };

    /**
     * Arm a crash plan: fire at the @p hit_no -th hit (1-based) of
     * @p site; the crash tick is that hit's tick plus @p delta.
     */
    void
    arm(std::string site, std::uint64_t hit_no, Tick delta)
    {
        armed_site_ = std::move(site);
        armed_hit_ = hit_no;
        delta_ = delta;
        armed_ = true;
        fired_ = false;
        fired_tick_ = 0;
    }

    /**
     * Announce one hit of @p site at tick @p now (controllers only).
     *
     * Thread-safe: the lock protects the shared map. Each channel of
     * a multi-channel System prefixes its own site names, so per-site
     * hit ordinals follow that channel's own event order.
     */
    void
    hit(const char* site, Tick now)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        SiteStats& s = sites_[site];
        if (s.hits == 0)
            s.first_tick = now;
        ++s.hits;
        s.last_tick = now;
        if (armed_ && !fired_ && s.hits == armed_hit_ &&
            armed_site_ == site) {
            fired_ = true;
            fired_tick_ = now;
        }
    }

    /** True once the armed plan's hit has occurred. */
    bool fired() const { return fired_; }
    /** Tick of the firing hit (valid once fired()). */
    Tick firedTick() const { return fired_tick_; }
    /** Tick at which the driver should crash (valid once fired()). */
    Tick crashTick() const { return fired_tick_ + delta_; }

    /** All sites hit so far, with counts and tick ranges. */
    const std::map<std::string, SiteStats>& sites() const
    {
        return sites_;
    }

    /** Forget all counts and any armed plan (fresh enumeration run). */
    void
    reset()
    {
        sites_.clear();
        armed_ = false;
        fired_ = false;
        fired_tick_ = 0;
    }

  private:
    std::mutex mutex_;
    std::map<std::string, SiteStats> sites_;
    std::string armed_site_;
    std::uint64_t armed_hit_ = 0;
    Tick delta_ = 0;
    bool armed_ = false;
    bool fired_ = false;
    Tick fired_tick_ = 0;
};

} // namespace thynvm

#endif // THYNVM_FUZZ_CRASH_POINTS_HH
