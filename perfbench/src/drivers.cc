/**
 * @file
 * Standalone layer drivers (see drivers.hh).
 */

#include "drivers.hh"

#include <cstring>
#include <sstream>

#include "common/rng.hh"
#include "mem/paged_bytes.hh"
#include "trace.hh"
#include "util.hh"

namespace perfbench {

using namespace thynvm;

namespace {

/** Append the blocks [addr, addr + size) touches to @p out. */
void
captureBlocks(MemController& mem, const WorkOp& op,
              std::vector<BlockAccess>& out, std::size_t max_blocks)
{
    const bool is_write = op.kind == WorkOp::Kind::Store;
    for (Addr b = blockAlign(op.addr);
         b < op.addr + op.size && out.size() < max_blocks;
         b += kBlockSize) {
        BlockAccess a{b, is_write, {}};
        if (is_write)
            mem.functionalRead(b, a.data.data(), kBlockSize);
        out.push_back(a);
    }
}

/**
 * Execute @p wl functionally over @p mem (if non-null): loads read it,
 * stores land in it. Captures up to @p max_blocks blocks when
 * @p blocks is set.
 * @return memory ops (loads + stores) executed, at most @p max_ops.
 */
std::uint64_t
executeFunctionally(Workload& wl, MemController* mem,
                    std::uint64_t max_ops, std::vector<BlockAccess>* blocks,
                    std::size_t max_blocks)
{
    std::vector<std::uint8_t> buf;
    WorkOp op;
    std::uint64_t ops = 0;
    while (ops < max_ops && wl.next(op)) {
        if (op.kind == WorkOp::Kind::Compute)
            continue;
        ++ops;
        if (mem == nullptr)
            continue;
        if (op.kind == WorkOp::Kind::Load) {
            buf.resize(op.size);
            mem->functionalRead(op.addr, buf.data(), op.size);
            wl.deliver(buf.data(), op.size);
        } else {
            mem->loadImage(op.addr, op.data, op.size);
        }
        if (blocks != nullptr)
            captureBlocks(*mem, op, *blocks, max_blocks);
    }
    return ops;
}

} // namespace

GeneratorRun
runGenerator(const std::function<std::unique_ptr<Workload>()>& make,
             bool reads_memory, std::size_t phys_size,
             std::uint64_t max_ops, std::size_t max_blocks)
{
    Span span("workloads.generator");
    GeneratorRun r;
    {
        // Timed pass: the generator, plus the functional memory only if
        // its plans depend on what memory holds.
        EventQueue eq;
        IdealController mem(eq, "gen.mem", phys_size, true);
        std::unique_ptr<Workload> wl = make();
        wl->init(mem);
        const double t0 = now();
        r.ops = executeFunctionally(*wl, reads_memory ? &mem : nullptr,
                                    max_ops, nullptr, 0);
        const double secs = now() - t0;
        r.ns_per_op =
            r.ops > 0 ? secs * 1e9 / static_cast<double>(r.ops) : 0.0;
    }
    {
        // Untimed pass on a fresh instance: capture the block stream.
        EventQueue eq;
        IdealController mem(eq, "gen.mem", phys_size, true);
        std::unique_ptr<Workload> wl = make();
        wl->init(mem);
        executeFunctionally(*wl, &mem, max_ops, &r.blocks, max_blocks);
    }
    return r;
}

double
eventQueueNsPerEvent(std::uint64_t events)
{
    Span span("sim.driver");
    EventQueue eq;
    std::uint64_t left = events;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;

    // 64 self-rescheduling chains with pseudo-random deltas keep the
    // heap populated, as a simulated machine's components do.
    struct Chain
    {
        EventQueue* eq;
        std::uint64_t* left;
        std::uint64_t* rng;
        void
        operator()() const
        {
            if (*left == 0)
                return;
            --*left;
            *rng = *rng * 6364136223846793005ULL + 1442695040888963407ULL;
            eq->schedule(eq->now() + 1 + (*rng >> 54), Chain(*this));
        }
    };
    for (int i = 0; i < 64; ++i)
        eq.schedule(static_cast<Tick>(i), Chain{&eq, &left, &rng});
    const std::uint64_t before = eq.eventsExecuted();
    const double t0 = now();
    eq.run();
    const double secs = now() - t0;
    const std::uint64_t ran = eq.eventsExecuted() - before;
    return ran > 0 ? secs * 1e9 / static_cast<double>(ran) : 0.0;
}

double
deviceNsPerRequest(std::uint64_t total)
{
    Span span("mem.device.driver");
    // bench_devspeed's stream at the paper's depth-64 write queue:
    // 70% writes, 60% row-buffer streaks, the rest random rows.
    DeviceParams p = DeviceParams::nvm(16u << 20);
    EventQueue eq;
    MemDevice dev(eq, "dev", p);
    Rng rng(0x5eedu);

    const std::uint64_t num_rows = p.capacity / p.row_size;
    const std::uint64_t blocks_per_row = p.row_size / kBlockSize;
    std::uint64_t row = 0, col = 0, issued = 0, completed = 0;
    bool have_pending = false, pend_write = false;
    Addr pend_addr = 0;
    std::array<std::uint8_t, kBlockSize> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7 + 3);

    std::function<void()> pump = [&] {
        while (issued < total) {
            if (!have_pending) {
                if (rng.chance(0.6)) {
                    col = (col + 1) % blocks_per_row;
                } else {
                    row = rng.below(num_rows);
                    col = rng.below(blocks_per_row);
                }
                pend_addr = row * p.row_size + col * kBlockSize;
                pend_write = rng.chance(0.7);
                have_pending = true;
            }
            if (!dev.canAccept(pend_write)) {
                dev.notifyWhenAccepting(pend_write, pump);
                return;
            }
            const bool ok =
                pend_write
                    ? dev.enqueueWrite(pend_addr, payload.data(),
                                       TrafficSource::CpuWriteback,
                                       [&completed] { ++completed; })
                    : dev.enqueueRead(pend_addr,
                                      TrafficSource::DemandRead,
                                      [&completed] { ++completed; });
            panic_if(!ok, "device rejected request after canAccept");
            have_pending = false;
            ++issued;
        }
    };
    const double t0 = now();
    pump();
    eq.run();
    const double secs = now() - t0;
    panic_if(completed != total, "device driver lost requests");
    return secs * 1e9 / static_cast<double>(total);
}

StoreCost
pagedStoreCost(std::size_t pages)
{
    Span span("mem.store.driver");
    constexpr std::size_t kPage = 4096;
    std::array<std::uint8_t, kBlockSize> block{};
    block.fill(0xa5);
    StoreCost c;

    PagedBytes store(pages * kPage);
    double t0 = now();
    for (std::size_t i = 0; i < pages; ++i)
        store.write(i * kPage, block.data(), block.size());
    c.ns_per_page_write = (now() - t0) * 1e9 / static_cast<double>(pages);

    // Clone (page-table share) plus the copy-on-write privatization of
    // every shared page: what a crash-image capture pays per page.
    t0 = now();
    PagedBytes clone(store);
    for (std::size_t i = 0; i < pages; ++i)
        clone.write(i * kPage + kBlockSize, block.data(), block.size());
    c.ns_per_clone_page = (now() - t0) * 1e9 / static_cast<double>(pages);
    panic_if(clone.touchedPageCount() != pages, "store driver lost pages");
    return c;
}

namespace {

/** Memory below the cache driver: fixed latency, never fast. */
class FixedLatencyMemory : public BlockAccessor
{
  public:
    explicit FixedLatencyMemory(EventQueue& eq) : eq_(eq) {}

    void
    accessBlock(Addr, bool, const std::uint8_t*, std::uint8_t* rdata,
                TrafficSource, std::function<void()> done) override
    {
        if (rdata != nullptr)
            std::memset(rdata, 0, kBlockSize);
        if (done) // writebacks may be posted without a callback
            eq_.scheduleIn(100 * kNanosecond, std::move(done));
    }

    void
    functionalReadBlock(Addr, std::uint8_t* buf) override
    {
        std::memset(buf, 0, kBlockSize);
    }

  private:
    EventQueue& eq_;
};

/** One access through @p cache; @return true if served fast. */
bool
cacheAccess(EventQueue& eq, Cache& cache, Addr addr, bool is_write,
            const std::uint8_t* wdata, std::uint8_t* rbuf)
{
    const std::uint8_t* w = is_write ? wdata : nullptr;
    std::uint8_t* r = is_write ? nullptr : rbuf;
    if (cache.tryAccessFast(addr, is_write, w, r,
                            TrafficSource::DemandRead) != kNoFastPath)
        return true;
    cache.accessBlock(addr, is_write, w, r, TrafficSource::DemandRead,
                      [] {});
    eq.run();
    return false;
}

} // namespace

CacheCost
cacheCost(const std::vector<BlockAccess>& stream, std::uint64_t accesses)
{
    Span span("cache.driver");
    CacheCost c;
    std::uint8_t rbuf[kBlockSize];
    const Cache::Params l1{32 * 1024, 8, 4 * 333};
    {
        // Hits: a 16 KB working set, warmed, then re-read.
        EventQueue eq;
        FixedLatencyMemory mem(eq);
        Cache cache(eq, "drv.l1", l1, mem);
        constexpr std::uint64_t kBlocks = (16u << 10) / kBlockSize;
        for (std::uint64_t i = 0; i < kBlocks; ++i)
            cacheAccess(eq, cache, i * kBlockSize, false, nullptr, rbuf);
        std::uint64_t fast = 0;
        const double t0 = now();
        for (std::uint64_t i = 0; i < accesses; ++i)
            fast += cacheAccess(eq, cache, (i % kBlocks) * kBlockSize,
                                false, nullptr, rbuf);
        c.ns_per_hit = (now() - t0) * 1e9 / static_cast<double>(accesses);
        panic_if(fast != accesses, "cache driver: resident set missed");
    }
    {
        // Misses: a read stream that never reuses a block.
        EventQueue eq;
        FixedLatencyMemory mem(eq);
        Cache cache(eq, "drv.l1", l1, mem);
        const std::uint64_t misses = accesses / 4;
        const double t0 = now();
        for (std::uint64_t i = 0; i < misses; ++i)
            cacheAccess(eq, cache, i * kBlockSize, false, nullptr, rbuf);
        c.ns_per_miss = (now() - t0) * 1e9 / static_cast<double>(misses);
    }
    {
        // The workload's own block stream.
        EventQueue eq;
        FixedLatencyMemory mem(eq);
        Cache cache(eq, "drv.l1", l1, mem);
        std::uint64_t fast = 0;
        for (const BlockAccess& a : stream)
            fast += cacheAccess(eq, cache, a.addr, a.is_write,
                                a.data.data(), rbuf);
        c.fast_ratio = stream.empty() ? 0.0
                                      : static_cast<double>(fast) /
                                            static_cast<double>(stream.size());
    }
    return c;
}

namespace {

/** The single-channel controller of cfg.kind, as System builds it. */
std::unique_ptr<MemController>
makeController(const SystemConfig& cfg, EventQueue& eq,
               std::function<void()> resume)
{
    switch (cfg.kind) {
      case SystemKind::IdealDram:
        return std::make_unique<IdealController>(eq, "drv.ctrl",
                                                 cfg.phys_size, true);
      case SystemKind::IdealNvm:
        return std::make_unique<IdealController>(eq, "drv.ctrl",
                                                 cfg.phys_size, false);
      case SystemKind::Journal: {
        JournalConfig jc;
        jc.phys_size = cfg.phys_size;
        jc.epoch_length = cfg.epoch_length;
        jc.table_entries = cfg.thynvm.btt_entries + cfg.thynvm.ptt_entries;
        auto c = std::make_unique<JournalController>(eq, "drv.ctrl", jc);
        c->setResumeClient(std::move(resume));
        return c;
      }
      case SystemKind::Shadow: {
        ShadowConfig sc;
        sc.phys_size = cfg.phys_size;
        sc.epoch_length = cfg.epoch_length;
        sc.dram_size = cfg.thynvm.dramSize();
        auto c = std::make_unique<ShadowController>(eq, "drv.ctrl", sc);
        c->setResumeClient(std::move(resume));
        return c;
      }
      case SystemKind::ThyNvm: {
        ThyNvmConfig tc = cfg.thynvm;
        tc.phys_size = cfg.phys_size;
        tc.epoch_length = cfg.epoch_length;
        auto c = std::make_unique<ThyNvmController>(eq, "drv.ctrl", tc);
        c->setResumeClient(std::move(resume));
        return c;
      }
      case SystemKind::Icl: {
        IclConfig ic;
        ic.phys_size = cfg.phys_size;
        ic.epoch_length = cfg.epoch_length;
        auto c = std::make_unique<IclController>(eq, "drv.ctrl", ic);
        c->setResumeClient(std::move(resume));
        return c;
      }
      case SystemKind::Incremental: {
        IncrementalConfig nc;
        nc.phys_size = cfg.phys_size;
        nc.epoch_length = cfg.epoch_length;
        nc.table_entries = cfg.thynvm.btt_entries + cfg.thynvm.ptt_entries;
        auto c =
            std::make_unique<IncrementalController>(eq, "drv.ctrl", nc);
        c->setResumeClient(std::move(resume));
        return c;
      }
    }
    panic("unhandled system kind");
}

/**
 * Capacities, device sizes and the stats dump of @p c, one item per
 * line, with its name prefix @p prefix rewritten to "ctrl".
 */
std::vector<std::string>
describeController(MemController& c, const std::string& prefix)
{
    std::ostringstream os;
    os << "phys_capacity " << c.physCapacity() << "\n";
    for (MemDevice* d : {c.nvmDevice(), c.dramDevice()}) {
        if (d != nullptr)
            os << "device " << d->name() << " " << d->params().capacity
               << "\n";
    }
    c.stats().dump(os);
    for (MemDevice* d : {c.nvmDevice(), c.dramDevice()}) {
        if (d != nullptr)
            d->stats().dump(os);
    }
    std::vector<std::string> lines;
    std::istringstream in(os.str());
    std::string line;
    while (std::getline(in, line)) {
        for (std::size_t at = line.find(prefix); at != std::string::npos;
             at = line.find(prefix, at))
            line.replace(at, prefix.size(), "ctrl");
        lines.push_back(line);
    }
    return lines;
}

} // namespace

std::string
controllerMismatch(const SystemConfig& cfg, Workload& wl)
{
    EventQueue eq;
    std::unique_ptr<MemController> mine = makeController(cfg, eq, [] {});
    System sys(cfg, wl);
    const std::vector<std::string> a = describeController(*mine, "drv.ctrl");
    const std::vector<std::string> b =
        describeController(sys.controller(), "sys.ctrl");
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        const std::string x = i < a.size() ? a[i] : "<none>";
        const std::string y = i < b.size() ? b[i] : "<none>";
        if (x != y)
            return "driver '" + x + "' != System '" + y + "'";
    }
    return "";
}

ControllerCost
controllerCost(const SystemConfig& cfg,
               const std::vector<BlockAccess>& stream)
{
    constexpr std::size_t kWindow = 4;
    EventQueue eq;
    std::size_t issued = 0, completed = 0, outstanding = 0;
    bool paused = false;
    bool pump_pending = false;
    std::function<void()> flush_done; // pending checkpoint continuation
    std::function<void()> pump;
    std::uint8_t rbuf[kBlockSize];

    // Like the CPU: a checkpoint's flush request stops new accesses and
    // proceeds once the in-flight ones completed; resume restarts them.
    auto schedulePump = [&] {
        if (!pump_pending) {
            pump_pending = true;
            eq.scheduleIn(0, [&] {
                pump_pending = false;
                pump();
            });
        }
    };
    std::unique_ptr<MemController> ctrl = makeController(cfg, eq, [&] {
        paused = false;
        schedulePump();
    });
    const std::vector<std::uint8_t> cpu_state(64, 0x5a);
    double ckpt_begin = 0.0, ckpt_host = 0.0;
    auto maybeFlush = [&] {
        if (paused && outstanding == 0 && flush_done) {
            ctrl->persistCpuState(cpu_state);
            eq.scheduleIn(0, std::move(flush_done));
            flush_done = nullptr;
        }
    };
    ctrl->setFlushClient([&](std::function<void()> done) {
        ckpt_begin = now();
        paused = true;
        flush_done = std::move(done);
        maybeFlush();
    });
    pump = [&] {
        while (!paused && outstanding < kWindow && issued < stream.size()) {
            const BlockAccess& a = stream[issued++];
            ++outstanding;
            ctrl->accessBlock(
                a.addr, a.is_write, a.is_write ? a.data.data() : nullptr,
                a.is_write ? nullptr : rbuf,
                a.is_write ? TrafficSource::CpuWriteback
                           : TrafficSource::DemandRead,
                [&] {
                    --outstanding;
                    ++completed;
                    maybeFlush();
                    schedulePump();
                });
        }
    };

    Span span(cfg.kind == SystemKind::ThyNvm ? "core.driver"
                                             : "baselines.driver");
    const double t0 = now();
    ctrl->start();
    pump();
    std::uint64_t epochs = 0;
    while (completed < stream.size() && !eq.empty()) {
        eq.step();
        if (ctrl->completedEpochs() != epochs) {
            epochs = ctrl->completedEpochs();
            ckpt_host += now() - ckpt_begin;
        }
    }
    const double secs = now() - t0;
    ctrl->halt();
    panic_if(completed != stream.size(), "controller driver stalled");

    ControllerCost c;
    c.ns_per_access =
        stream.empty() ? 0.0
                       : secs * 1e9 / static_cast<double>(stream.size());
    c.epochs = epochs;
    c.ns_per_ckpt =
        epochs > 0 ? ckpt_host * 1e9 / static_cast<double>(epochs) : 0.0;
    c.ckpt_time_frac =
        eq.now() > 0 ? static_cast<double>(ctrl->checkpointStallTime()) /
                           static_cast<double>(eq.now())
                     : 0.0;
    const std::uint64_t app = ctrl->appWriteBytes();
    c.write_amp = app > 0 ? static_cast<double>(ctrl->mediaWriteBytes()) /
                                static_cast<double>(app)
                          : 0.0;
    return c;
}

} // namespace perfbench
