/**
 * @file
 * ShadowController implementation.
 */

#include "baselines/shadow.hh"

#include <algorithm>

namespace thynvm {

namespace {

constexpr std::uint64_t kShadowMagic = 0x5348414457504721ull; // SHADWPG!

} // namespace

ShadowController::ShadowController(
    EventQueue& eq, std::string name, const ShadowConfig& cfg,
    std::shared_ptr<BackingStore> nvm_store)
    : EpochController(eq, std::move(name), cfg.phys_size,
                      cfg.epoch_length, At::Commit, At::Commit),
      cfg_(cfg),
      dram_dev_(eq, this->name() + ".dram",
                DeviceParams::dram(cfg.dram_size)),
      nvm_dev_(eq, this->name() + ".nvm",
               DeviceParams::nvm(nvmCapacity(cfg)),
               std::move(nvm_store)),
      dram_port_(dram_dev_),
      nvm_port_(nvm_dev_),
      commit_(nvm_port_, kShadowMagic, {headerAddr(0), headerAddr(1)},
              {cpuAddr(0), cpuAddr(1)}, cfg.cpu_state_max),
      committed_slot_(numPages(), 0),
      working_nvm_valid_(numPages(), 0)
{
    fatal_if(cfg_.phys_size % kPageSize != 0 ||
                 cfg_.dram_size % kPageSize != 0,
             "sizes must be page aligned");
    free_slots_.reserve(numSlots());
    for (std::size_t i = numSlots(); i-- > 0;)
        free_slots_.push_back(i);

    stats().addScalar("cow_faults", &cow_faults_,
                      "pages copied into the DRAM buffer on write");
    stats().addScalar("evictions", &evictions_,
                      "pages evicted from the DRAM buffer");
    stats().addScalar("pages_flushed", &pages_flushed_,
                      "dirty pages flushed to shadow NVM slots");
}

std::size_t
ShadowController::nvmCapacity(const ShadowConfig& cfg)
{
    return 2 * cfg.phys_size +
           2 * roundUp(cfg.phys_size / kPageSize, kBlockSize) +
           2 * (kBlockSize + roundUp(8 + cfg.cpu_state_max, kBlockSize));
}

Addr
ShadowController::tableAddr(unsigned k) const
{
    return 2 * cfg_.phys_size +
           k * roundUp(numPages(), kBlockSize);
}

Addr
ShadowController::headerAddr(unsigned k) const
{
    return 2 * cfg_.phys_size + 2 * roundUp(numPages(), kBlockSize) +
           k * (kBlockSize + roundUp(8 + cfg_.cpu_state_max, kBlockSize));
}

Addr
ShadowController::cpuAddr(unsigned k) const
{
    return headerAddr(k) + kBlockSize;
}

Addr
ShadowController::visibleNvmPage(Addr page_paddr) const
{
    const std::size_t idx = pageIndex(page_paddr);
    std::uint8_t slot = committed_slot_[idx];
    if (working_nvm_valid_[idx])
        slot ^= 1u;
    return nvmPageAddr(idx, slot);
}

ShadowController::Resident&
ShadowController::fault(Addr page_paddr)
{
    auto it = resident_.find(page_paddr);
    if (it != resident_.end()) {
        it->second.lru = ++lru_clock_;
        return it->second;
    }

    if (free_slots_.empty())
        evictOne();
    panic_if(free_slots_.empty(), "no DRAM slot after eviction");
    const std::size_t slot = free_slots_.back();
    free_slots_.pop_back();

    // Copy-on-write: bring the visible NVM copy into DRAM.
    ++cow_faults_;
    const Addr src = visibleNvmPage(page_paddr);
    for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
        std::uint8_t data[kBlockSize];
        nvm_port_.functionalRead(src + blk * kBlockSize, data, kBlockSize);

        nvm_port_.sendRead(src + blk * kBlockSize,
                           TrafficSource::Migration);
        dram_port_.sendWrite(slot * kPageSize + blk * kBlockSize, data,
                             TrafficSource::Migration);
    }

    auto [nit, ok] =
        resident_.emplace(page_paddr, Resident{slot, false, ++lru_clock_});
    panic_if(!ok, "duplicate residency");
    return nit->second;
}

void
ShadowController::evictOne()
{
    // Prefer the LRU clean page (free drop); otherwise flush LRU dirty.
    Addr victim = kInvalidAddr;
    bool victim_dirty = true;
    std::uint64_t victim_lru = 0;
    for (const auto& [paddr, r] : resident_) {
        const bool better = victim == kInvalidAddr ||
                            (victim_dirty && !r.dirty) ||
                            (victim_dirty == r.dirty && r.lru < victim_lru);
        if (better) {
            victim = paddr;
            victim_dirty = r.dirty;
            victim_lru = r.lru;
        }
    }
    panic_if(victim == kInvalidAddr, "eviction from empty buffer");

    auto it = resident_.find(victim);
    ++evictions_;
    if (it->second.dirty)
        flushPage(victim, it->second, TrafficSource::Checkpoint);
    free_slots_.push_back(it->second.slot);
    resident_.erase(it);
}

void
ShadowController::flushPage(Addr page_paddr, Resident& r,
                            TrafficSource src)
{
    crashPoint("ckpt.page_flushed");
    const std::size_t idx = pageIndex(page_paddr);
    const std::uint8_t target = committed_slot_[idx] ^ 1u;
    const Addr dst = nvmPageAddr(idx, target);
    for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
        std::uint8_t data[kBlockSize];
        dram_port_.functionalRead(r.slot * kPageSize + blk * kBlockSize,
                                  data, kBlockSize);

        dram_port_.sendRead(r.slot * kPageSize + blk * kBlockSize, src);
        nvm_port_.sendWrite(dst + blk * kBlockSize, data, src);
    }
    working_nvm_valid_[idx] = 1;
    r.dirty = false;
    ++pages_flushed_;
}

void
ShadowController::accessBlock(Addr paddr, bool is_write,
                              const std::uint8_t* wdata,
                              std::uint8_t* rdata, TrafficSource source,
                              std::function<void()> done)
{
    checkBlockAccess(paddr);
    const Addr page = pageAlign(paddr);
    auto it = resident_.find(page);

    if (!is_write) {
        if (it != resident_.end()) {
            it->second.lru = ++lru_clock_;
            const Addr a =
                it->second.slot * kPageSize + (paddr - page);
            dram_port_.functionalRead(a, rdata, kBlockSize);
            dram_port_.sendRead(a, source, std::move(done));
        } else {
            const Addr a = visibleNvmPage(page) + (paddr - page);
            nvm_port_.functionalRead(a, rdata, kBlockSize);
            nvm_port_.sendRead(a, source, std::move(done));
        }
        return;
    }

    noteAppWrite();
    Resident& r = fault(page);
    r.dirty = true;
    dram_port_.sendWrite(r.slot * kPageSize + (paddr - page), wdata,
                         TrafficSource::CpuWriteback, {}, std::move(done));
}

void
ShadowController::readVisibleBlock(Addr block, std::uint8_t* out) const
{
    const Addr page = pageAlign(block);
    auto it = resident_.find(page);
    if (it != resident_.end()) {
        dram_port_.functionalRead(
            it->second.slot * kPageSize + (block - page), out, kBlockSize);
    } else {
        nvm_port_.functionalRead(visibleNvmPage(page) + (block - page), out,
                                 kBlockSize);
    }
}

void
ShadowController::loadImage(Addr paddr, const void* buf, std::size_t len)
{
    panic_if(paddr + len > cfg_.phys_size, "image beyond physical space");
    nvm_dev_.store().write(paddr, buf, len);
}

void
ShadowController::forEachTouchedPhysRange(
    const std::function<void(Addr, std::size_t)>& fn) const
{
    // NVM page slots: slot 0 of page i lives at i*kPageSize, slot 1 at
    // phys_size + i*kPageSize (see nvmPageAddr).
    forEachTouchedCopyRange(nvm_dev_, 2, fn);
    // Pages faulted into the DRAM working set shadow whatever is in
    // NVM for reads.
    for (const auto& [page, r] : resident_)
        fn(page, kPageSize);
}

void
ShadowController::doCheckpoint(std::function<void()> done)
{
    crashPoint("ckpt.start");
    // Flush every dirty resident page to its shadow slot.
    std::vector<Addr> pages;
    for (auto& [paddr, r] : resident_) {
        if (r.dirty)
            pages.push_back(paddr);
    }
    std::sort(pages.begin(), pages.end());
    for (Addr paddr : pages)
        flushPage(paddr, resident_.at(paddr), TrafficSource::Checkpoint);

    // New committed-slot table: flushed pages flip to the shadow slot.
    std::vector<std::uint8_t> table(roundUp(numPages(), kBlockSize), 0);
    for (std::size_t i = 0; i < numPages(); ++i)
        table[i] = committed_slot_[i] ^ working_nvm_valid_[i];

    const unsigned k = static_cast<unsigned>(epoch_num_ & 1);
    for (std::size_t off = 0; off < table.size(); off += kBlockSize) {
        nvm_port_.sendWrite(tableAddr(k) + off, table.data() + off,
                            TrafficSource::Checkpoint);
    }

    stageCpuState(epoch_num_);
    crashPoint("ckpt.table_staged");

    nvm_port_.notifyWhenWritesDurable([this,
                                       done = std::move(done)]() mutable {
      commitGate(0, [this, done = std::move(done)]() mutable {
        crashPoint("ckpt.pre_commit_header");
        writeCommitHeader(epoch_num_);
        nvm_port_.notifyWhenWritesDurable(
            [this, done = std::move(done)]() mutable {
              commitGate(1, [this, done = std::move(done)]() mutable {
                crashPoint("ckpt.pre_slot_flip");
                // Commit: flip slots for flushed pages.
                for (std::size_t i = 0; i < numPages(); ++i) {
                    committed_slot_[i] ^= working_nvm_valid_[i];
                    working_nvm_valid_[i] = 0;
                }
                done();
              });
            });
      });
    });
}

void
ShadowController::crash()
{
    dram_port_.crash();
    nvm_port_.crash();
    dram_dev_.crash();
    nvm_dev_.crash();
    resident_.clear();
    free_slots_.clear();
    for (std::size_t i = numSlots(); i-- > 0;)
        free_slots_.push_back(i);
    std::fill(committed_slot_.begin(), committed_slot_.end(), 0);
    std::fill(working_nvm_valid_.begin(), working_nvm_valid_.end(), 0);
    resetEpochState();
}

void
ShadowController::rebuild(
    const std::optional<CommitRecord::Committed>& committed,
    RecoveryJoin& join)
{
    if (!committed)
        return;
    const unsigned k = committed->parity;
    std::vector<std::uint8_t> table(roundUp(numPages(), kBlockSize));
    nvm_dev_.store().read(tableAddr(k), table.data(), table.size());
    for (std::size_t i = 0; i < numPages(); ++i)
        committed_slot_[i] = table[i] & 1u;
    for (std::size_t off = 0; off < table.size(); off += kBlockSize) {
        nvm_port_.sendRead(tableAddr(k) + off, TrafficSource::Recovery,
                           join.track());
    }
}

} // namespace thynvm
