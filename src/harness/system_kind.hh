/**
 * @file
 * The evaluated system kinds — the paper's five (§5.1) plus the two
 * post-paper fine-grained checkpointing backends — and the one table
 * that names and classifies them. Split out of system.hh so the
 * multi-channel group — which the System embeds — can name them
 * without a circular include.
 */

#ifndef THYNVM_HARNESS_SYSTEM_KIND_HH
#define THYNVM_HARNESS_SYSTEM_KIND_HH

#include <array>
#include <cstddef>
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

/** One row of the kind table. */
struct SystemKindInfo
{
    SystemKind kind;
    /** Command-line / repro-string token ("thynvm", "ideal-dram", ...). */
    const char* token;
    /** Human-readable name as used in the paper's figures. */
    const char* name;
    /**
     * Column of the kind in the paper's five-system figures (Figs. 7,
     * 9, 10 and Table 2), or -1 for a post-paper kind.
     */
    int figure_column;
    /** Has epochs/checkpoints (everything but the ideals). */
    bool checkpointing;
};

/**
 * Every kind, one row each, in enum order. A new kind appends a row
 * here and a case to the controller factory's switch
 * (harness/controller_factory.cc), which fails to compile until it
 * builds the kind.
 */
constexpr SystemKindInfo kSystemKindTable[] = {
    {SystemKind::IdealDram, "ideal-dram", "Ideal DRAM", 0, false},
    {SystemKind::IdealNvm, "ideal-nvm", "Ideal NVM", 4, false},
    {SystemKind::Journal, "journal", "Journal", 1, true},
    {SystemKind::Shadow, "shadow", "Shadow", 2, true},
    {SystemKind::ThyNvm, "thynvm", "ThyNVM", 3, true},
    {SystemKind::Icl, "icl", "ICL", -1, true},
    {SystemKind::Incremental, "incremental", "Incremental", -1, true},
};

constexpr std::size_t kSystemKindCount = std::size(kSystemKindTable);

static_assert(
    [] {
        for (std::size_t i = 0; i < kSystemKindCount; ++i) {
            if (static_cast<std::size_t>(kSystemKindTable[i].kind) != i)
                return false;
        }
        return true;
    }(),
    "row i of kSystemKindTable must describe SystemKind i");

/** The table row of @p kind. */
constexpr const SystemKindInfo&
systemKindInfo(SystemKind kind)
{
    return kSystemKindTable[static_cast<std::size_t>(kind)];
}

/** Every SystemKind in enum order, for exhaustive test/tool iteration. */
constexpr std::array<SystemKind, kSystemKindCount> kAllSystemKinds = [] {
    std::array<SystemKind, kSystemKindCount> kinds{};
    for (std::size_t i = 0; i < kSystemKindCount; ++i)
        kinds[i] = kSystemKindTable[i].kind;
    return kinds;
}();

/** The paper's five systems in the figures' column order. */
constexpr std::array<SystemKind, 5> kPaperSystemKinds = [] {
    std::array<SystemKind, 5> kinds{};
    for (const SystemKindInfo& row : kSystemKindTable) {
        if (row.figure_column >= 0)
            kinds.at(static_cast<std::size_t>(row.figure_column)) =
                row.kind;
    }
    return kinds;
}();

/** Human-readable system name as used in the paper's figures. */
constexpr const char*
systemKindName(SystemKind kind)
{
    return systemKindInfo(kind).name;
}

/** Short command-line / repro-string token, one per kind. */
constexpr const char*
systemToken(SystemKind kind)
{
    return systemKindInfo(kind).token;
}

/** Parse a systemToken(). @return false if @p tok names no kind. */
inline bool
systemKindFromToken(const std::string& tok, SystemKind& out)
{
    for (const SystemKindInfo& row : kSystemKindTable) {
        if (tok == row.token) {
            out = row.kind;
            return true;
        }
    }
    return false;
}

/** True for kinds with epochs/checkpoints (everything but the ideals). */
constexpr bool
isCheckpointingKind(SystemKind kind)
{
    return systemKindInfo(kind).checkpointing;
}

} // namespace thynvm

#endif // THYNVM_HARNESS_SYSTEM_KIND_HH
