/**
 * @file
 * Traffic attribution for requests exchanged between memory controllers
 * and devices.
 */

#ifndef THYNVM_MEM_REQUEST_HH
#define THYNVM_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"

namespace thynvm {

/**
 * Who generated a piece of memory traffic. Mirrors the traffic breakdown
 * of Figure 8 in the paper: demand traffic from the CPU (reads and cache
 * writebacks), checkpointing traffic (data and metadata), and migration
 * traffic from switching data between checkpointing schemes.
 */
enum class TrafficSource : std::uint8_t
{
    DemandRead,    //!< Cache-fill read on behalf of the CPU.
    CpuWriteback,  //!< Dirty-block writeback from the cache hierarchy.
    Checkpoint,    //!< Checkpoint data or metadata writes.
    Migration,     //!< Data movement between checkpointing schemes.
    Recovery,      //!< Post-crash restoration traffic.
};

/** Number of TrafficSource values, for stat arrays. */
constexpr std::size_t kNumTrafficSources = 5;

/** Human-readable name of a traffic source. */
const char* trafficSourceName(TrafficSource s);

} // namespace thynvm

#endif // THYNVM_MEM_REQUEST_HH
