/**
 * @file
 * Standalone layer drivers: each feeds one simulator layer through its
 * public interface, with nothing above it, and reports host cost per
 * unit of work. They give the per-layer metrics of the traced run.
 */

#ifndef PERFBENCH_DRIVERS_HH
#define PERFBENCH_DRIVERS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness/system.hh"

namespace perfbench {

/** One 64-byte block access of a workload's op stream. */
struct BlockAccess
{
    thynvm::Addr addr;
    bool is_write;
    /** Block contents after the write (writes only). */
    std::array<std::uint8_t, thynvm::kBlockSize> data;
};

/** Result of running a workload generator on a functional memory. */
struct GeneratorRun
{
    /** Host ns per memory op (load or store) of the stream. */
    double ns_per_op = 0.0;
    std::uint64_t ops = 0;
    std::vector<BlockAccess> blocks;
};

/**
 * Time a workload generator from @p make alone for at most @p max_ops
 * memory ops, then capture the first @p max_blocks block accesses of
 * its stream. A generator that @p reads_memory (plans from memory
 * contents) runs over a functional memory of @p phys_size bytes —
 * loads read it, stores land in it — and that memory is timed too.
 */
GeneratorRun
runGenerator(const std::function<std::unique_ptr<thynvm::Workload>()>& make,
             bool reads_memory, std::size_t phys_size,
             std::uint64_t max_ops, std::size_t max_blocks);

/** Host ns per executed event of a bare EventQueue. */
double eventQueueNsPerEvent(std::uint64_t events);

/** Host ns per request of a MemDevice fed a controller-like mix. */
double deviceNsPerRequest(std::uint64_t requests);

struct StoreCost
{
    double ns_per_page_write = 0.0;
    double ns_per_clone_page = 0.0;
};

/** PagedBytes first-touch page writes and clone + privatize cost. */
StoreCost pagedStoreCost(std::size_t pages);

struct CacheCost
{
    double ns_per_hit = 0.0;
    double ns_per_miss = 0.0;
    double fast_ratio = 0.0;
};

/**
 * A Table 2 L1 Cache over a fixed-latency BlockAccessor: hit and miss
 * cost on synthetic streams, and the share of @p stream's accesses
 * served by tryAccessFast().
 */
CacheCost cacheCost(const std::vector<BlockAccess>& stream,
                    std::uint64_t accesses);

struct ControllerCost
{
    double ns_per_access = 0.0;
    double ns_per_ckpt = 0.0;
    std::uint64_t epochs = 0;
    double ckpt_time_frac = 0.0;
    double write_amp = 0.0;
};

/**
 * The controller of @p cfg.kind alone (its own devices, no CPU or
 * caches), fed @p stream with four accesses outstanding. A checkpoint
 * is timed from the controller's flush request to its commit.
 */
ControllerCost controllerCost(const thynvm::SystemConfig& cfg,
                              const std::vector<BlockAccess>& stream);

/**
 * The controller drivers build each kind by hand, copying System's
 * construction. Compare a fresh driver-built controller of @p cfg.kind
 * with the one a System of @p cfg builds over @p wl: capacities, device
 * sizes and the names and values of every stat.
 * @return "" when they match, else the first line that differs.
 */
std::string controllerMismatch(const thynvm::SystemConfig& cfg,
                               thynvm::Workload& wl);

} // namespace perfbench

#endif // PERFBENCH_DRIVERS_HH
