/**
 * @file
 * The one place that builds a memory controller of a given kind. Both
 * the single-channel System and every channel of a multi-channel group
 * call it; per-channel scaling of the table budgets lives only here.
 */

#ifndef THYNVM_HARNESS_CONTROLLER_FACTORY_HH
#define THYNVM_HARNESS_CONTROLLER_FACTORY_HH

#include <functional>
#include <memory>
#include <string>

#include "core/config.hh"
#include "harness/system_kind.hh"
#include "mem/controller.hh"

namespace thynvm {

/** What to build: a kind and the whole machine's capacities. */
struct ControllerSpec
{
    SystemKind kind = SystemKind::ThyNvm;
    /** Global software-visible physical address space. */
    std::size_t phys_size = 0;
    Tick epoch_length = 0;
    /** Global table sizes; each channel gets a 1/channels share. */
    ThyNvmConfig thynvm;
    /** Channel count (1 = one controller serves the whole space). */
    unsigned channels = 1;
};

/**
 * Durable NVM bytes one channel's controller of @p spec needs (the
 * size of its BackingStore).
 */
std::size_t channelNvmSize(const ControllerSpec& spec);

/**
 * Build one channel's controller of @p spec.kind, serving
 * phys_size / channels bytes with a 1/channels share (rounded up) of
 * the translation-table, overflow and back-pressure budgets. The
 * journal's and incremental's headroom above their soft trigger stays
 * undivided. At one channel this is exactly the paper's configuration.
 *
 * @param store surviving NVM contents (channelNvmSize() bytes), or
 *        nullptr for a pristine controller.
 * @param resume CPU-resume hook of a checkpointing kind, fired when a
 *        checkpoint boundary completes; the ideal kinds ignore it.
 */
std::unique_ptr<MemController>
buildController(const ControllerSpec& spec, EventQueue& eq, std::string name,
                std::shared_ptr<BackingStore> store,
                std::function<void()> resume);

} // namespace thynvm

#endif // THYNVM_HARNESS_CONTROLLER_FACTORY_HH
