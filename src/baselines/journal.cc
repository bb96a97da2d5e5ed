/**
 * @file
 * JournalController implementation.
 */

#include "baselines/journal.hh"

#include <algorithm>

namespace thynvm {

namespace {

constexpr std::uint64_t kJournalMagic = 0x4a4f55524e414c21ull; // JOURNAL!

struct AppliedMarker
{
    std::uint64_t magic;
    std::uint64_t epoch;
};

} // namespace

std::size_t
JournalController::nvmCapacity(const JournalConfig& cfg)
{
    const std::size_t entries = cfg.table_entries + cfg.table_headroom;
    return cfg.phys_size + entries * kBlockSize +
           roundUp(entries * 8, kBlockSize) + 2 * kBlockSize +
           2 * roundUp(8 + cfg.cpu_state_max, kBlockSize);
}

JournalController::JournalController(
    EventQueue& eq, std::string name, const JournalConfig& cfg,
    std::shared_ptr<BackingStore> nvm_store)
    : EpochController(eq, std::move(name), cfg.phys_size,
                      cfg.epoch_length, At::Commit, At::Commit),
      cfg_(cfg),
      dram_dev_(eq, this->name() + ".dram",
                DeviceParams::dram((cfg.table_entries + cfg.table_headroom)
                                   * kBlockSize)),
      nvm_dev_(eq, this->name() + ".nvm",
               DeviceParams::nvm(nvmCapacity(cfg)), std::move(nvm_store)),
      dram_port_(dram_dev_),
      nvm_port_(nvm_dev_),
      commit_(nvm_port_, kJournalMagic, {headerAddr()},
              {cpuAddr(0), cpuAddr(1)}, cfg.cpu_state_max)
{
    stats().addScalar("journaled_blocks", &journaled_blocks_,
                      "blocks written to the NVM journal");
    stats().addScalar("applied_blocks", &applied_blocks_,
                      "journaled blocks applied in place");
    stats().addScalar("replayed_blocks", &replayed_blocks_,
                      "blocks replayed from the journal at recovery");
    stats().addScalar("overflow_epochs", &overflow_epochs_,
                      "epochs forced by table overflow");
}

Addr
JournalController::journalDataAddr(std::size_t i) const
{
    return cfg_.phys_size + i * kBlockSize;
}

Addr
JournalController::journalMetaAddr() const
{
    return cfg_.phys_size + hardCapacity() * kBlockSize;
}

Addr
JournalController::headerAddr() const
{
    return journalMetaAddr() + roundUp(hardCapacity() * 8, kBlockSize);
}

Addr
JournalController::appliedAddr() const
{
    return headerAddr() + kBlockSize;
}

Addr
JournalController::cpuAddr(unsigned k) const
{
    return appliedAddr() + kBlockSize +
           k * roundUp(8 + cfg_.cpu_state_max, kBlockSize);
}

void
JournalController::accessBlock(Addr paddr, bool is_write,
                               const std::uint8_t* wdata,
                               std::uint8_t* rdata, TrafficSource source,
                               std::function<void()> done)
{
    checkBlockAccess(paddr);

    auto it = table_.find(paddr);
    if (!is_write) {
        if (it != table_.end()) {
            const Addr slot = dramSlotAddr(it->second);
            dram_port_.functionalRead(slot, rdata, kBlockSize);
            dram_port_.sendRead(slot, source, std::move(done));
        } else {
            nvm_port_.functionalRead(paddr, rdata, kBlockSize);
            nvm_port_.sendRead(paddr, source, std::move(done));
        }
        return;
    }

    // Store: coalesce into the DRAM journal buffer.
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
JournalController::readVisibleBlock(Addr block, std::uint8_t* out) const
{
    auto it = table_.find(block);
    if (it != table_.end())
        dram_port_.functionalRead(dramSlotAddr(it->second), out, kBlockSize);
    else
        nvm_port_.functionalRead(block, out, kBlockSize);
}

void
JournalController::loadImage(Addr paddr, const void* buf, std::size_t len)
{
    panic_if(paddr + len > cfg_.phys_size, "image beyond physical space");
    nvm_dev_.store().write(paddr, buf, len);
}

void
JournalController::forEachTouchedPhysRange(
    const std::function<void(Addr, std::size_t)>& fn) const
{
    // Home region is NVM at identity addresses below phys_size.
    forEachTouchedCopyRange(nvm_dev_, 1, fn);
    // Blocks redirected to the DRAM journal buffer.
    for (const auto& [paddr, slot] : table_)
        fn(paddr, kBlockSize);
}

void
JournalController::doCheckpoint(std::function<void()> done)
{
    crashPoint("ckpt.start");
    // Snapshot the table in slot order for deterministic journal layout.
    std::vector<std::pair<std::size_t, Addr>> entries;
    entries.reserve(table_.size());
    for (const auto& [paddr, slot] : table_)
        entries.emplace_back(slot, paddr);
    std::sort(entries.begin(), entries.end());

    // Phase 1: write journal data + metadata records.
    std::vector<std::uint8_t> meta(roundUp(entries.size() * 8, kBlockSize),
                                   0);
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto [slot, paddr] = entries[i];
        std::uint8_t data[kBlockSize];
        dram_port_.functionalRead(dramSlotAddr(slot), data, kBlockSize);

        crashPoint("ckpt.journal_block");
        dram_port_.sendRead(dramSlotAddr(slot), TrafficSource::Checkpoint);
        nvm_port_.sendWrite(journalDataAddr(i), data,
                            TrafficSource::Checkpoint);
        ++journaled_blocks_;

        std::memcpy(meta.data() + i * 8, &paddr, 8);
    }
    for (std::size_t off = 0; off < meta.size(); off += kBlockSize) {
        nvm_port_.sendWrite(journalMetaAddr() + off, meta.data() + off,
                            TrafficSource::Checkpoint);
    }

    const std::uint64_t epoch = epoch_num_;
    stageCpuState(epoch);
    auto commit_entries = std::make_shared<
        std::vector<std::pair<std::size_t, Addr>>>(std::move(entries));

    // Phase 2: commit header after the journal is durable. Commit-gate
    // phase 0 interposes here — in a channel group no channel writes
    // its header until every channel's journal image is durable.
    nvm_port_.notifyWhenWritesDurable([this, epoch, commit_entries,
                                       done = std::move(done)]() mutable {
      commitGate(0, [this, epoch, commit_entries,
                     done = std::move(done)]() mutable {
        crashPoint("ckpt.pre_commit_header");
        writeCommitHeader(epoch, commit_entries->size());

        // Phase 3: apply in place, then retire the journal. Commit-gate
        // phase 1 interposes before the first in-place (destructive)
        // write: every channel's commit header must be durable first,
        // so the group's minimum committed epoch has already advanced
        // past the state the apply destroys.
        nvm_port_.notifyWhenWritesDurable([this, epoch, commit_entries,
                                           done = std::move(done)]()
                                              mutable {
          commitGate(1, [this, epoch, commit_entries,
                         done = std::move(done)]() mutable {
            for (const auto& [slot, paddr] : *commit_entries) {
                crashPoint("ckpt.apply_block");
                std::uint8_t data[kBlockSize];
                dram_port_.functionalRead(dramSlotAddr(slot), data,
                                          kBlockSize);
                nvm_port_.sendWrite(paddr, data,
                                    TrafficSource::Checkpoint);
                ++applied_blocks_;
            }
            nvm_port_.notifyWhenWritesDurable([this, epoch,
                                               done = std::move(done)]()
                                                  mutable {
                crashPoint("ckpt.pre_applied_marker");
                AppliedMarker mk{kJournalMagic, epoch};
                std::uint8_t mk_blk[kBlockSize] = {};
                std::memcpy(mk_blk, &mk, sizeof(mk));
                nvm_port_.sendWrite(appliedAddr(), mk_blk,
                                    TrafficSource::Checkpoint);
                nvm_port_.notifyWhenWritesDurable(
                    [this, done = std::move(done)]() mutable {
                        table_.clear();
                        next_slot_ = 0;
                        done();
                    });
            });
          });
        });
      });
    });
}

void
JournalController::crash()
{
    dram_port_.crash();
    nvm_port_.crash();
    dram_dev_.crash();
    nvm_dev_.crash();
    table_.clear();
    next_slot_ = 0;
    resetEpochState();
}

void
JournalController::rebuild(
    const std::optional<CommitRecord::Committed>& committed,
    RecoveryJoin& join)
{
    if (!committed)
        return;
    AppliedMarker mk{};
    nvm_dev_.store().read(appliedAddr(), &mk, sizeof(mk));
    if (mk.magic == kJournalMagic && mk.epoch >= committed->hdr.epoch)
        return;
    // Committed but not applied: redo the journal. (A header demoted
    // by recoverTo names an epoch whose apply finished: its marker was
    // durable before the next epoch's header was written.)
    for (std::uint64_t i = 0; i < committed->hdr.aux; ++i) {
        Addr paddr = 0;
        nvm_dev_.store().read(journalMetaAddr() + i * 8, &paddr, 8);
        std::uint8_t data[kBlockSize];
        nvm_dev_.store().read(journalDataAddr(i), data, kBlockSize);
        ++replayed_blocks_;
        nvm_port_.sendRead(journalDataAddr(i), TrafficSource::Recovery,
                           join.track());
        nvm_port_.sendWrite(paddr, data, TrafficSource::Recovery,
                            join.track());
    }
    AppliedMarker newmk{kJournalMagic, committed->hdr.epoch};
    std::uint8_t mk_blk[kBlockSize] = {};
    std::memcpy(mk_blk, &newmk, sizeof(newmk));
    nvm_port_.sendWrite(appliedAddr(), mk_blk, TrafficSource::Recovery,
                        join.track());
}

} // namespace thynvm
