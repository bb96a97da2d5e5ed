/**
 * @file
 * IncrementalController implementation.
 */

#include "baselines/incremental.hh"

#include <algorithm>

namespace thynvm {

namespace {

constexpr std::uint64_t kIncMagic = 0x494e4352434b5054ull; // INCRCKPT

} // namespace

std::size_t
IncrementalController::nvmCapacity(const IncrementalConfig& cfg)
{
    const std::size_t bitmap =
        roundUp((cfg.phys_size / kBlockSize + 7) / 8, kBlockSize);
    return 2 * cfg.phys_size + 2 * bitmap + 2 * kBlockSize +
           2 * roundUp(8 + cfg.cpu_state_max, kBlockSize);
}

IncrementalController::IncrementalController(
    EventQueue& eq, std::string name, const IncrementalConfig& cfg,
    std::shared_ptr<BackingStore> nvm_store)
    : EpochController(eq, std::move(name), cfg.epoch_length,
                      At::Commit, At::Commit),
      cfg_(cfg),
      dram_dev_(eq, this->name() + ".dram",
                DeviceParams::dram((cfg.table_entries + cfg.table_headroom)
                                   * kBlockSize)),
      nvm_dev_(eq, this->name() + ".nvm",
               DeviceParams::nvm(nvmCapacity(cfg)), std::move(nvm_store)),
      dram_port_(dram_dev_),
      nvm_port_(nvm_dev_),
      commit_(nvm_port_, kIncMagic, {headerAddr(0), headerAddr(1)},
              {cpuAddr(0), cpuAddr(1)}, cfg.cpu_state_max),
      committed_bit_(cfg.phys_size / kBlockSize, 0)
{
    stats().addScalar("staged_blocks", &staged_blocks_,
                      "dirty blocks staged into their inactive slot");
    stats().addScalar("bitmap_blocks", &bitmap_blocks_,
                      "slot-bitmap blocks rewritten at checkpoints");
    stats().addScalar("overflow_epochs", &overflow_epochs_,
                      "epochs forced by table overflow");
}

Addr
IncrementalController::bitmapAddr(unsigned k) const
{
    return 2 * cfg_.phys_size + k * bitmapArea();
}

Addr
IncrementalController::headerAddr(unsigned k) const
{
    return 2 * cfg_.phys_size + 2 * bitmapArea() + k * kBlockSize;
}

Addr
IncrementalController::cpuAddr(unsigned k) const
{
    return headerAddr(1) + kBlockSize +
           k * roundUp(8 + cfg_.cpu_state_max, kBlockSize);
}

void
IncrementalController::accessBlock(Addr paddr, bool is_write,
                                   const std::uint8_t* wdata,
                                   std::uint8_t* rdata,
                                   TrafficSource source,
                                   std::function<void()> done)
{
    panic_if(paddr % kBlockSize != 0, "unaligned controller access");
    panic_if(paddr + kBlockSize > cfg_.phys_size,
             "physical address out of range");

    auto it = table_.find(paddr);
    if (!is_write) {
        if (it != table_.end()) {
            const Addr slot = dramSlotAddr(it->second);
            dram_port_.functionalRead(slot, rdata, kBlockSize);
            dram_port_.sendRead(slot, source, std::move(done));
        } else {
            const Addr src = committedAddr(paddr);
            nvm_port_.functionalRead(src, rdata, kBlockSize);
            nvm_port_.sendRead(src, source, std::move(done));
        }
        return;
    }

    // Store: coalesce into the DRAM dirty-block buffer.
    noteAppWrite();
    std::size_t slot;
    if (it != table_.end()) {
        slot = it->second;
    } else {
        if (table_.size() >= hardCapacity()) {
            // Should be unreachable: the soft trigger fires well before.
            stallAccess(paddr, true, wdata, std::move(done));
            requestEpochEnd();
            return;
        }
        slot = next_slot_++;
        table_.emplace(paddr, slot);
        if (table_.size() >= cfg_.table_entries && !boundaryInProgress()) {
            ++overflow_epochs_;
            requestEpochEnd();
        }
    }

    dram_port_.sendWrite(dramSlotAddr(slot), wdata,
                         TrafficSource::CpuWriteback, {}, std::move(done));
}

void
IncrementalController::functionalRead(Addr paddr, void* buf,
                                      std::size_t len) const
{
    auto* out = static_cast<std::uint8_t*>(buf);
    std::size_t remaining = len;
    Addr addr = paddr;
    while (remaining > 0) {
        const Addr block = blockAlign(addr);
        const std::size_t in_block = addr - block;
        const std::size_t chunk =
            std::min(remaining, kBlockSize - in_block);
        std::uint8_t tmp[kBlockSize];
        auto it = table_.find(block);
        if (it != table_.end())
            dram_port_.functionalRead(dramSlotAddr(it->second), tmp,
                                      kBlockSize);
        else
            nvm_port_.functionalRead(committedAddr(block), tmp,
                                     kBlockSize);
        std::memcpy(out, tmp + in_block, chunk);
        out += chunk;
        addr += chunk;
        remaining -= chunk;
    }
}

void
IncrementalController::loadImage(Addr paddr, const void* buf,
                                 std::size_t len)
{
    // Slot A, matching the all-zero pristine bitmap.
    panic_if(paddr + len > cfg_.phys_size, "image beyond physical space");
    nvm_dev_.store().write(paddr, buf, len);
}

void
IncrementalController::forEachTouchedPhysRange(
    const std::function<void(Addr, std::size_t)>& fn) const
{
    // Both image slots alias the physical space; the bitmap, header and
    // CPU areas above them are never software-visible.
    const Addr phys = cfg_.phys_size;
    nvm_dev_.store().forEachTouchedRange(
        [&](Addr a, const std::uint8_t*, std::size_t len) {
            if (a < phys)
                fn(a, std::min(len, phys - a));
            const Addr s = std::max<Addr>(a, phys);
            const Addr e = std::min<Addr>(a + len, 2 * phys);
            if (s < e)
                fn(s - phys, e - s);
        });
    // Blocks redirected to the DRAM buffer.
    for (const auto& [paddr, slot] : table_)
        fn(paddr, kBlockSize);
}

void
IncrementalController::doCheckpoint(std::function<void()> done)
{
    crashPoint("ckpt.start");
    // Snapshot the table in slot order for a deterministic staging
    // sequence.
    std::vector<std::pair<std::size_t, Addr>> entries;
    entries.reserve(table_.size());
    for (const auto& [paddr, slot] : table_)
        entries.emplace_back(slot, paddr);
    std::sort(entries.begin(), entries.end());

    const std::uint64_t epoch = epoch_num_;

    // Stage every dirty block into its inactive slot. The committed
    // image is never written, so the previous epoch stays recoverable
    // throughout.
    for (const auto& [slot, paddr] : entries) {
        crashPoint("ckpt.stage_block");
        std::uint8_t data[kBlockSize];
        dram_port_.functionalRead(dramSlotAddr(slot), data, kBlockSize);
        dram_port_.sendRead(dramSlotAddr(slot), TrafficSource::Checkpoint);
        const std::size_t bi = paddr / kBlockSize;
        const Addr dst =
            (committed_bit_[bi] != 0 ? 0 : cfg_.phys_size) + paddr;
        nvm_port_.sendWrite(dst, data, TrafficSource::Checkpoint);
        ++staged_blocks_;
        cur_changed_.insert(((bi / 8) / kBlockSize) * kBlockSize);
    }

    // Refresh the slot bitmap of this epoch's parity area with the
    // post-commit bit values. The area is two epochs stale, so it needs
    // every bitmap block that flipped in the previous epoch or this one
    // — or all of them right after a recovery.
    std::set<Addr> bm_blocks;
    if (write_all_) {
        for (Addr off = 0; off < bitmapArea(); off += kBlockSize)
            bm_blocks.insert(off);
    } else {
        bm_blocks = cur_changed_;
        bm_blocks.insert(prev_changed_.begin(), prev_changed_.end());
    }
    for (const Addr off : bm_blocks) {
        std::uint8_t blk[kBlockSize] = {};
        for (std::size_t j = 0; j < kBlockSize; ++j) {
            std::uint8_t byte = 0;
            for (unsigned b = 0; b < 8; ++b) {
                const std::size_t bi = (off + j) * 8 + b;
                if (bi >= numBlocks())
                    break;
                std::uint8_t bit = committed_bit_[bi];
                if (table_.count(bi * kBlockSize) != 0)
                    bit ^= 1;
                byte |= static_cast<std::uint8_t>(bit << b);
            }
            blk[j] = byte;
        }
        crashPoint("ckpt.stage_bitmap");
        nvm_port_.sendWrite(bitmapAddr(epoch & 1) + off, blk,
                            TrafficSource::Checkpoint);
        ++bitmap_blocks_;
    }

    // CPU state blob, in this epoch's parity area.
    crashPoint("ckpt.cpu_state");
    stageCpuState(epoch);

    auto commit_entries = std::make_shared<
        std::vector<std::pair<std::size_t, Addr>>>(std::move(entries));

    // Commit header once the staged image is durable. Commit-gate phase
    // 0 interposes here — in a channel group no channel writes its
    // header until every channel's staged extents are durable.
    nvm_port_.notifyWhenWritesDurable([this, epoch, commit_entries,
                                       done = std::move(done)]() mutable {
      crashPoint("ckpt.staged");
      commitGate(0, [this, epoch, commit_entries,
                     done = std::move(done)]() mutable {
        crashPoint("ckpt.pre_commit_header");
        writeCommitHeader(epoch);

        // Phase 1 gate before the slot flip: execution (whose next
        // epoch stages over the slots this header just retired) must
        // not resume until every channel's commit header is durable.
        nvm_port_.notifyWhenWritesDurable([this, commit_entries,
                                           done = std::move(done)]()
                                              mutable {
            commitGate(1, [this, commit_entries,
                           done = std::move(done)]() mutable {
                crashPoint("ckpt.pre_epoch_advance");
                for (const auto& [slot, paddr] : *commit_entries)
                    committed_bit_[paddr / kBlockSize] ^= 1;
                prev_changed_ = std::move(cur_changed_);
                cur_changed_.clear();
                write_all_ = false;
                table_.clear();
                next_slot_ = 0;
                done();
            });
        });
      });
    });
}

void
IncrementalController::crash()
{
    dram_port_.crash();
    nvm_port_.crash();
    dram_dev_.crash();
    nvm_dev_.crash();
    table_.clear();
    next_slot_ = 0;
    cur_changed_.clear();
    prev_changed_.clear();
    resetEpochState();
}

void
IncrementalController::rebuild(
    const std::optional<CommitRecord::Committed>& committed,
    RecoveryJoin& join)
{
    if (committed) {
        // Metadata-only recovery: rebuild the slot bitmap from the
        // committed parity area — no data is copied.
        const unsigned k = committed->parity;
        std::vector<std::uint8_t> bm((numBlocks() + 7) / 8, 0);
        nvm_dev_.store().read(bitmapAddr(k), bm.data(), bm.size());
        for (std::size_t bi = 0; bi < numBlocks(); ++bi)
            committed_bit_[bi] = (bm[bi / 8] >> (bi % 8)) & 1;
        for (Addr off = 0; off < bitmapArea(); off += kBlockSize) {
            nvm_port_.sendRead(bitmapAddr(k) + off, TrafficSource::Recovery,
                               join.track());
        }
    } else {
        std::fill(committed_bit_.begin(), committed_bit_.end(), 0);
    }

    // The non-authoritative parity area may hold partial staging from
    // the crashed epoch: the next checkpoint must rewrite it whole.
    cur_changed_.clear();
    prev_changed_.clear();
    write_all_ = true;
}

} // namespace thynvm
