/**
 * @file
 * Controller factory implementation: per-channel scaling of the global
 * capacities and the one switch that constructs each kind.
 */

#include "harness/controller_factory.hh"

#include "baselines/icl.hh"
#include "baselines/ideal.hh"
#include "baselines/incremental.hh"
#include "baselines/journal.hh"
#include "baselines/shadow.hh"
#include "core/layout.hh"
#include "core/thynvm_controller.hh"

namespace thynvm {

namespace {

/** One channel's share of a global budget of @p n (rounded up). */
std::size_t
share(const ControllerSpec& spec, std::size_t n)
{
    return (n + spec.channels - 1) / spec.channels;
}

std::size_t
channelPhys(const ControllerSpec& spec)
{
    return spec.phys_size / spec.channels;
}

/**
 * Each channel serves 1/C of the physical space, so it gets 1/C of the
 * translation-table, overflow, and back-pressure budget.
 */
ThyNvmConfig
scaledThyNvm(const ControllerSpec& spec)
{
    ThyNvmConfig tc = spec.thynvm;
    tc.phys_size = channelPhys(spec);
    tc.epoch_length = spec.epoch_length;
    tc.btt_entries = share(spec, spec.thynvm.btt_entries);
    tc.ptt_entries = share(spec, spec.thynvm.ptt_entries);
    tc.overflow_entries = share(spec, spec.thynvm.overflow_entries);
    tc.overflow_stall_watermark =
        share(spec, spec.thynvm.overflow_stall_watermark);
    return tc;
}

JournalConfig
scaledJournal(const ControllerSpec& spec)
{
    JournalConfig jc;
    jc.phys_size = channelPhys(spec);
    jc.epoch_length = spec.epoch_length;
    jc.table_entries =
        share(spec, spec.thynvm.btt_entries + spec.thynvm.ptt_entries);
    // The headroom above the soft trigger is deliberately *not*
    // divided: the coordinated flush barrier adds cross-channel skew
    // between a channel's boundary request and the actual flush, and
    // the headroom is what absorbs writes arriving in that window.
    return jc;
}

ShadowConfig
scaledShadow(const ControllerSpec& spec)
{
    ShadowConfig sc;
    sc.phys_size = channelPhys(spec);
    sc.epoch_length = spec.epoch_length;
    sc.dram_size = scaledThyNvm(spec).dramSize();
    return sc;
}

IclConfig
scaledIcl(const ControllerSpec& spec)
{
    IclConfig ic;
    ic.phys_size = channelPhys(spec);
    ic.epoch_length = spec.epoch_length;
    return ic;
}

IncrementalConfig
scaledIncremental(const ControllerSpec& spec)
{
    IncrementalConfig nc;
    nc.phys_size = channelPhys(spec);
    nc.epoch_length = spec.epoch_length;
    nc.table_entries =
        share(spec, spec.thynvm.btt_entries + spec.thynvm.ptt_entries);
    // Headroom undivided, same rationale as the journal above.
    return nc;
}

/** A checkpointing controller with its CPU-resume hook attached. */
template <typename Ctrl, typename Cfg>
std::unique_ptr<MemController>
checkpointing(EventQueue& eq, std::string name, const Cfg& cfg,
              std::shared_ptr<BackingStore> store,
              std::function<void()> resume)
{
    auto ctrl = std::make_unique<Ctrl>(eq, std::move(name), cfg,
                                       std::move(store));
    ctrl->setResumeClient(std::move(resume));
    return ctrl;
}

} // namespace

std::size_t
channelNvmSize(const ControllerSpec& spec)
{
    switch (spec.kind) {
      case SystemKind::IdealDram:
      case SystemKind::IdealNvm:
        return IdealController::nvmCapacity(channelPhys(spec));
      case SystemKind::Journal:
        return JournalController::nvmCapacity(scaledJournal(spec));
      case SystemKind::Shadow:
        return ShadowController::nvmCapacity(scaledShadow(spec));
      case SystemKind::ThyNvm:
        return AddressLayout(scaledThyNvm(spec)).nvmSize();
      case SystemKind::Icl:
        return IclController::nvmCapacity(scaledIcl(spec));
      case SystemKind::Incremental:
        return IncrementalController::nvmCapacity(scaledIncremental(spec));
    }
    panic("unhandled system kind");
}

std::unique_ptr<MemController>
buildController(const ControllerSpec& spec, EventQueue& eq, std::string name,
                std::shared_ptr<BackingStore> store,
                std::function<void()> resume)
{
    switch (spec.kind) {
      case SystemKind::IdealDram:
      case SystemKind::IdealNvm:
        return std::make_unique<IdealController>(
            eq, std::move(name), channelPhys(spec),
            spec.kind == SystemKind::IdealDram, std::move(store));
      case SystemKind::Journal:
        return checkpointing<JournalController>(
            eq, std::move(name), scaledJournal(spec), std::move(store),
            std::move(resume));
      case SystemKind::Shadow:
        return checkpointing<ShadowController>(
            eq, std::move(name), scaledShadow(spec), std::move(store),
            std::move(resume));
      case SystemKind::ThyNvm:
        return checkpointing<ThyNvmController>(
            eq, std::move(name), scaledThyNvm(spec), std::move(store),
            std::move(resume));
      case SystemKind::Icl:
        return checkpointing<IclController>(
            eq, std::move(name), scaledIcl(spec), std::move(store),
            std::move(resume));
      case SystemKind::Incremental:
        return checkpointing<IncrementalController>(
            eq, std::move(name), scaledIncremental(spec), std::move(store),
            std::move(resume));
    }
    panic("unhandled system kind");
}

} // namespace thynvm
