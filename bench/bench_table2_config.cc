/**
 * @file
 * Table 2: the simulated system configuration. No simulation runs;
 * this binary prints the configuration the other benchmarks use so the
 * evaluation setup is auditable against the paper.
 */

#include "bench/bench_util.hh"

namespace {

using namespace thynvm;
using namespace thynvm::bench;

void
constructAllSystems()
{
    // Sanity: every evaluated system can be constructed at evaluation
    // scale (this also exercises the address-space layout math).
    for (auto kind : kPaperSystemKinds) {
        MicroWorkload::Params mp;
        mp.total_accesses = 1;
        MicroWorkload wl(mp);
        System sys(paperSystem(kind), wl);
        static_cast<void>(sys);
    }
}

void
printSummary()
{
    const SystemConfig cfg = paperSystem(SystemKind::ThyNvm);
    const ThyNvmConfig tc = [&] {
        ThyNvmConfig t = cfg.thynvm;
        t.phys_size = cfg.phys_size;
        t.epoch_length = cfg.epoch_length;
        return t;
    }();
    const AddressLayout lay(tc);
    const auto dram = DeviceParams::dram(1);
    const auto nvm = DeviceParams::nvm(1);

    heading("Table 2: system configuration and parameters");
    std::printf("Processor   : 3 GHz, in-order (cycle period %u ps)\n",
                static_cast<unsigned>(cfg.cpu.cycle_period));
    std::printf("L1 cache    : %zu KB, %u-way, 64 B blocks, %u cycles\n",
                cfg.l1.size / 1024, cfg.l1.assoc,
                static_cast<unsigned>(cfg.l1.hit_latency / 333));
    std::printf("L2 cache    : %zu KB, %u-way, 64 B blocks, %u cycles\n",
                cfg.l2.size / 1024, cfg.l2.assoc,
                static_cast<unsigned>(cfg.l2.hit_latency / 333));
    std::printf("L3 cache    : %zu KB, %u-way, 64 B blocks, %u cycles\n",
                cfg.l3.size / 1024, cfg.l3.assoc,
                static_cast<unsigned>(cfg.l3.hit_latency / 333));
    std::printf("DRAM timing : %llu ns row hit, %llu ns row miss\n",
                static_cast<unsigned long long>(dram.row_hit_latency /
                                                kNanosecond),
                static_cast<unsigned long long>(
                    dram.row_miss_clean_latency / kNanosecond));
    std::printf("NVM timing  : %llu ns row hit, %llu/%llu ns "
                "clean/dirty miss\n",
                static_cast<unsigned long long>(nvm.row_hit_latency /
                                                kNanosecond),
                static_cast<unsigned long long>(
                    nvm.row_miss_clean_latency / kNanosecond),
                static_cast<unsigned long long>(
                    nvm.row_miss_dirty_latency / kNanosecond));
    std::printf("BTT/PTT     : %zu / %zu entries, %llu ns lookup\n",
                tc.btt_entries, tc.ptt_entries,
                static_cast<unsigned long long>(
                    tc.table_lookup_latency / kNanosecond));
    std::printf("DRAM region : %zu MB (pages) + block/overflow "
                "buffers = %zu MB total\n",
                tc.ptt_entries * kPageSize >> 20,
                lay.dramSize() >> 20);
    std::printf("NVM size    : %zu MB (home + ckpt region A + "
                "backup slots)\n",
                lay.nvmSize() >> 20);
    std::printf("Epoch       : %llu ms (plus overflow-forced early "
                "epochs)\n",
                static_cast<unsigned long long>(tc.epoch_length /
                                                kMillisecond));
    std::printf("Thresholds  : promote at %u, demote below %u "
                "stores/page/epoch\n",
                tc.promote_threshold, tc.demote_threshold);
}

} // namespace

int
main()
{
    constructAllSystems();
    printSummary();
    return 0;
}
