/**
 * @file
 * The evaluated system kinds — the paper's five (§5.1) plus the two
 * post-paper fine-grained checkpointing backends — split out of
 * system.hh so the multi-channel group — which the System embeds — can
 * name them without a circular include.
 */

#ifndef THYNVM_HARNESS_SYSTEM_KIND_HH
#define THYNVM_HARNESS_SYSTEM_KIND_HH

#include <string>

namespace thynvm {

/**
 * Which evaluated system to build: the paper's five (§5.1) plus two
 * fine-grained checkpointing backends (in-cache-line logging à la
 * Cohen et al., and libcrpm-style incremental dirty-range
 * checkpointing).
 */
enum class SystemKind
{
    IdealDram,
    IdealNvm,
    Journal,
    Shadow,
    ThyNvm,
    Icl,
    Incremental,
};

/**
 * Every SystemKind, for exhaustive test/tool iteration. New kinds must
 * be appended here (the unit suite cross-checks the count against the
 * enum via the -Werror switch coverage in systemKindName()).
 */
constexpr SystemKind kAllSystemKinds[] = {
    SystemKind::IdealDram, SystemKind::IdealNvm,  SystemKind::Journal,
    SystemKind::Shadow,    SystemKind::ThyNvm,    SystemKind::Icl,
    SystemKind::Incremental,
};

/** Human-readable system name as used in the paper's figures. */
const char* systemKindName(SystemKind kind);

/**
 * Short command-line / repro-string token ("thynvm", "journal",
 * "ideal-dram", ...), one per kind.
 */
const char* systemToken(SystemKind kind);

/** Parse a systemToken(). @return false if @p tok names no kind. */
bool systemKindFromToken(const std::string& tok, SystemKind& out);

/** True for kinds with epochs/checkpoints (everything but the ideals). */
constexpr bool
isCheckpointingKind(SystemKind kind)
{
    return kind != SystemKind::IdealDram && kind != SystemKind::IdealNvm;
}

} // namespace thynvm

#endif // THYNVM_HARNESS_SYSTEM_KIND_HH
