/**
 * @file
 * IclController implementation.
 */

#include "baselines/icl.hh"

#include <algorithm>
#include <set>

namespace thynvm {

namespace {

constexpr std::uint64_t kIclMagic = 0x49434c4c4f472121ull; // ICLLOG!!

/** Bit 8 of the record mask: the committed line sits in the overflow
 * block and the inline saved words are unused. */
constexpr std::uint64_t kFatFlag = 1ull << 8;

/** Log-record field offsets within the 64-byte log block. */
constexpr std::size_t kRecTag = 0;
constexpr std::size_t kRecMask = 8;
constexpr std::size_t kRecWords = 16;

constexpr unsigned kWordsPerBlock = kBlockSize / 8;

unsigned
popcount(std::uint16_t mask)
{
    unsigned n = 0;
    for (; mask != 0; mask &= mask - 1)
        ++n;
    return n;
}

} // namespace

std::size_t
IclController::nvmCapacity(const IclConfig& cfg)
{
    return cfg.phys_size * 4 + kBlockSize +
           2 * roundUp(8 + cfg.cpu_state_max, kBlockSize);
}

IclController::IclController(EventQueue& eq, std::string name,
                             const IclConfig& cfg,
                             std::shared_ptr<BackingStore> nvm_store)
    : EpochController(eq, std::move(name), cfg.phys_size,
                      cfg.epoch_length, At::Commit, At::Commit),
      cfg_(cfg),
      nvm_dev_(eq, this->name() + ".nvm",
               DeviceParams::nvm(nvmCapacity(cfg)), std::move(nvm_store)),
      nvm_port_(nvm_dev_),
      commit_(nvm_port_, kIclMagic, {headerAddr()},
              {cpuAddr(0), cpuAddr(1)}, cfg.cpu_state_max)
{
    stats().addScalar("slim_logs", &slim_logs_,
                      "undo records that fit inline in the log block");
    stats().addScalar("fat_logs", &fat_logs_,
                      "undo records that spilled into the overflow block");
    stats().addScalar("log_merges", &log_merges_,
                      "records rewritten to widen an earlier one");
    stats().addScalar("undone_lines", &undone_lines_,
                      "lines rolled back from their log at recovery");
}

Addr
IclController::cpuAddr(unsigned k) const
{
    return headerAddr() + kBlockSize +
           k * roundUp(8 + cfg_.cpu_state_max, kBlockSize);
}

void
IclController::accessBlock(Addr paddr, bool is_write,
                           const std::uint8_t* wdata, std::uint8_t* rdata,
                           TrafficSource source, std::function<void()> done)
{
    checkBlockAccess(paddr);

    if (!is_write) {
        nvm_port_.functionalRead(homeAddr(paddr), rdata, kBlockSize);
        nvm_port_.sendRead(homeAddr(paddr), source, std::move(done));
        return;
    }

    // Store: make sure an undo record covering every word this write
    // changes is (being made) durable before the in-place home update.
    // The log, overflow and home blocks share one device row, and both
    // the port and the per-bank queues are FIFO, so enqueue order below
    // is service order — no drain barrier needed.
    noteAppWrite();
    std::uint8_t home[kBlockSize];
    nvm_port_.functionalRead(homeAddr(paddr), home, kBlockSize);

    auto it = live_.find(paddr);
    if (it == live_.end() || !it->second.fat) {
        std::uint16_t diff = 0;
        for (unsigned w = 0; w < kWordsPerBlock; ++w) {
            if (std::memcmp(home + w * 8, wdata + w * 8, 8) != 0)
                diff |= static_cast<std::uint16_t>(1u << w);
        }
        const std::uint16_t existing =
            it != live_.end() ? it->second.mask : 0;
        const std::uint16_t fresh =
            diff & static_cast<std::uint16_t>(~existing);
        if (fresh != 0) {
            // Pre-epoch values: words already saved keep the values in
            // the current record; words saved for the first time take
            // the current home value (untouched this epoch, hence still
            // the committed one).
            std::uint64_t saved[kWordsPerBlock] = {};
            if (existing != 0) {
                std::uint8_t rec[kBlockSize];
                nvm_port_.functionalRead(logAddr(paddr), rec, kBlockSize);
                unsigned slot = 0;
                for (unsigned w = 0; w < kWordsPerBlock; ++w) {
                    if ((existing >> w) & 1) {
                        std::memcpy(&saved[w], rec + kRecWords + slot * 8,
                                    8);
                        ++slot;
                    }
                }
                ++log_merges_;
            }
            for (unsigned w = 0; w < kWordsPerBlock; ++w) {
                if ((fresh >> w) & 1)
                    std::memcpy(&saved[w], home + w * 8, 8);
            }

            const std::uint16_t merged = existing | fresh;
            std::uint8_t rec[kBlockSize] = {};
            std::memcpy(rec + kRecTag, &epoch_num_, 8);
            if (popcount(merged) <= kSlimWords) {
                const std::uint64_t m = merged;
                std::memcpy(rec + kRecMask, &m, 8);
                unsigned slot = 0;
                for (unsigned w = 0; w < kWordsPerBlock; ++w) {
                    if ((merged >> w) & 1) {
                        std::memcpy(rec + kRecWords + slot * 8, &saved[w],
                                    8);
                        ++slot;
                    }
                }
                crashPoint("icl.log_slim");
                nvm_port_.sendWrite(logAddr(paddr), rec,
                                    TrafficSource::Checkpoint);
                live_[paddr] = LiveLog{merged, false};
                ++slim_logs_;
            } else {
                // Too wide for the inline words: preserve the whole
                // committed line in the overflow block, then a fat
                // record. Overflow before log: the record must never
                // point at a not-yet-durable overflow image.
                std::uint8_t committed[kBlockSize];
                std::memcpy(committed, home, kBlockSize);
                for (unsigned w = 0; w < kWordsPerBlock; ++w) {
                    if ((existing >> w) & 1)
                        std::memcpy(committed + w * 8, &saved[w], 8);
                }
                crashPoint("icl.log_fat");
                nvm_port_.sendWrite(ovfAddr(paddr), committed,
                                    TrafficSource::Checkpoint);
                const std::uint64_t m = kFatFlag;
                std::memcpy(rec + kRecMask, &m, 8);
                nvm_port_.sendWrite(logAddr(paddr), rec,
                                    TrafficSource::Checkpoint);
                live_[paddr] = LiveLog{0, true};
                ++fat_logs_;
            }
        }
    }

    crashPoint("icl.home_write");
    nvm_port_.sendWrite(homeAddr(paddr), wdata,
                        TrafficSource::CpuWriteback, {}, std::move(done));
}

void
IclController::readVisibleBlock(Addr block, std::uint8_t* out) const
{
    nvm_port_.functionalRead(homeAddr(block), out, kBlockSize);
}

void
IclController::loadImage(Addr paddr, const void* buf, std::size_t len)
{
    panic_if(paddr + len > cfg_.phys_size, "image beyond physical space");
    const auto* src = static_cast<const std::uint8_t*>(buf);
    forEachBlockChunk(paddr, len, [&](const BlockChunk& c, std::size_t done) {
        nvm_dev_.store().write(homeAddr(c.block) + c.offset, src + done,
                               c.len);
    });
}

void
IclController::forEachTouchedPhysRange(
    const std::function<void(Addr, std::size_t)>& fn) const
{
    // Home bytes are the first block of each 4-block group; the log,
    // overflow, header and CPU areas are never software-visible.
    const Addr limit = cfg_.phys_size * 4;
    nvm_dev_.store().forEachTouchedRange(
        [&](Addr a, const std::uint8_t*, std::size_t len) {
            const Addr end = std::min<Addr>(a + len, limit);
            Addr p = a;
            while (p < end) {
                const Addr g = (p / kGroupSize) * kGroupSize;
                const Addr home_end = g + kBlockSize;
                if (p < home_end) {
                    const Addr seg = std::min<Addr>(end, home_end);
                    fn(g / 4 + (p - g), seg - p);
                }
                p = g + kGroupSize;
            }
        });
}

void
IclController::doCheckpoint(std::function<void()> done)
{
    crashPoint("ckpt.start");
    // Every home and log write of this epoch is already in the write
    // FIFO; the durability drain below covers them together with the
    // CPU blob. Committing is then just the header: the epoch advance
    // invalidates every live record by tag, nothing is cleaned.
    const std::uint64_t epoch = epoch_num_;
    crashPoint("ckpt.cpu_state");
    stageCpuState(epoch);

    // Commit header once everything is durable. Commit-gate phase 0
    // interposes here — in a channel group no channel writes its header
    // until every channel's epoch image is durable.
    nvm_port_.notifyWhenWritesDurable([this, epoch,
                                       done = std::move(done)]() mutable {
      commitGate(0, [this, epoch, done = std::move(done)]() mutable {
        crashPoint("ckpt.pre_commit_header");
        writeCommitHeader(epoch);

        // Phase 1 gate before the epoch advance: execution (and with it
        // the first destructive home write of the next epoch) must not
        // resume until every channel's commit header is durable.
        nvm_port_.notifyWhenWritesDurable(
            [this, done = std::move(done)]() mutable {
                commitGate(1, [this, done = std::move(done)]() mutable {
                    crashPoint("ckpt.pre_epoch_advance");
                    live_.clear();
                    done();
                });
            });
      });
    });
}

void
IclController::crash()
{
    nvm_port_.crash();
    nvm_dev_.crash();
    live_.clear();
    resetEpochState();
}

void
IclController::rebuild(const std::optional<CommitRecord::Committed>&,
                       RecoveryJoin& join)
{
    // Collect candidate log blocks from the touched ranges (sorted and
    // deduplicated: ranges may overlap and arrive in any order). A
    // never-written log block reads tag 0, which is never a target.
    std::set<Addr> logs;
    const Addr limit = cfg_.phys_size * 4;
    nvm_dev_.store().forEachTouchedRange(
        [&](Addr a, const std::uint8_t*, std::size_t len) {
            const Addr end = std::min<Addr>(a + len, limit);
            Addr g = (a / kGroupSize) * kGroupSize;
            for (; g < end; g += kGroupSize) {
                const Addr la = g + kBlockSize;
                if (la < end && la + kBlockSize > a)
                    logs.insert(la);
            }
        });

    for (const Addr la : logs) {
        std::uint64_t tag = 0;
        nvm_dev_.store().read(la + kRecTag, &tag, 8);
        if (tag != epoch_num_)
            continue;
        std::uint8_t rec[kBlockSize];
        nvm_dev_.store().read(la, rec, kBlockSize);
        std::uint64_t mask = 0;
        std::memcpy(&mask, rec + kRecMask, 8);

        const Addr g = la - kBlockSize;
        std::uint8_t restored[kBlockSize];
        nvm_port_.sendRead(la, TrafficSource::Recovery, join.track());
        if (mask & kFatFlag) {
            nvm_dev_.store().read(g + 2 * kBlockSize, restored,
                                  kBlockSize);
            nvm_port_.sendRead(g + 2 * kBlockSize, TrafficSource::Recovery,
                               join.track());
        } else {
            nvm_dev_.store().read(g, restored, kBlockSize);
            unsigned slot = 0;
            for (unsigned w = 0; w < kWordsPerBlock; ++w) {
                if ((mask >> w) & 1) {
                    std::memcpy(restored + w * 8,
                                rec + kRecWords + slot * 8, 8);
                    ++slot;
                }
            }
        }
        ++undone_lines_;
        nvm_port_.sendWrite(g, restored, TrafficSource::Recovery,
                            join.track());
    }
}

} // namespace thynvm
