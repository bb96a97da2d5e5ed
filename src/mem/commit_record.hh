/**
 * @file
 * The durable commit record shared by every checkpointing controller.
 *
 * Every checkpointing backend ends an epoch the same way (paper §4,
 * Figure 6b): once the epoch's image is durable it writes one
 * block-sized header {magic, epoch, cpu_len, aux}, and recovery takes
 * the newest header whose magic matches. A backend keeps its header in
 * one slot rewritten in place (Journal, ICL) or in a parity pair of
 * slots (Shadow, Incremental, ThyNVM). Beside it, one CPU-state area per
 * parity holds the epoch's [u64 len][blob] architectural state, so the
 * state a committed header describes stays intact while the next
 * checkpoint stages its own. A backend supplies only its layout (which
 * addresses) and its magic; DESIGN.md §7 has the recovery rules.
 */

#ifndef THYNVM_MEM_COMMIT_RECORD_HH
#define THYNVM_MEM_COMMIT_RECORD_HH

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "mem/port.hh"

namespace thynvm {

/** The one-block commit header, laid out alike in every backend. */
struct CommitHeader
{
    std::uint64_t magic = 0;
    /** The epoch this checkpoint captured (never 0). */
    std::uint64_t epoch = 0;
    /** Length of the CPU-state blob in the epoch's CPU area. */
    std::uint64_t cpu_len = 0;
    /** Backend-defined count: Journal's journaled blocks, ThyNVM's
     *  logged overflow slots, 0 elsewhere. */
    std::uint64_t aux = 0;
};

/**
 * Completion fan-in of one recovery's timed traffic. The count starts
 * at one and every tracked access adds one; after issuing its last
 * access the controller schedules arrive() to retire the initial count.
 * At zero the controller's recovery counter is bumped and the
 * continuation fires, exactly once.
 */
class RecoveryJoin
{
  public:
    RecoveryJoin(stats::Scalar& recoveries, std::function<void()> done)
        : state_(std::make_shared<State>())
    {
        state_->recoveries = &recoveries;
        state_->done = std::move(done);
    }

    /** Count one more timed access; returns its completion callback. */
    std::function<void()>
    track()
    {
        ++state_->outstanding;
        return arrive();
    }

    /** A callback that retires one count. */
    std::function<void()>
    arrive() const
    {
        return [s = state_] {
            if (--s->outstanding != 0)
                return;
            ++*s->recoveries;
            auto cb = std::move(s->done);
            s->done = nullptr;
            if (cb)
                cb();
        };
    }

  private:
    struct State
    {
        std::uint64_t outstanding = 1;
        stats::Scalar* recoveries = nullptr;
        std::function<void()> done;
    };
    std::shared_ptr<State> state_;
};

/**
 * A controller's commit record: its magic, where its header slot(s) and
 * CPU-state areas live, and the one implementation of writing, probing,
 * restoring and rolling back the record. Bound to the port of the NVM
 * device that holds it.
 */
class CommitRecord
{
  public:
    /** A valid header and the parity of the areas it describes. */
    struct Committed
    {
        CommitHeader hdr;
        /** Its slot index with a parity pair; epoch & 1 with one slot. */
        unsigned parity = 0;
    };

    /**
     * @param port the port of the NVM device holding the record.
     * @param magic the backend's header magic.
     * @param slots header slot address: one, or a pair indexed by parity.
     * @param cpu_areas the CPU-state area of each parity.
     * @param cpu_max largest CPU blob an area holds.
     */
    CommitRecord(DevicePort& port, std::uint64_t magic,
                 std::vector<Addr> slots, std::array<Addr, 2> cpu_areas,
                 std::size_t cpu_max)
        : port_(port), magic_(magic), slots_(std::move(slots)),
          cpu_areas_(cpu_areas), cpu_max_(cpu_max)
    {
        panic_if(slots_.empty() || slots_.size() > 2,
                 "a commit record has one header slot or a parity pair");
    }

    /** CPU-state area of @p parity. */
    Addr cpuArea(unsigned parity) const { return cpu_areas_[parity]; }

    /** [u64 len][blob], unpadded. */
    static std::vector<std::uint8_t>
    encodeCpuState(const std::vector<std::uint8_t>& state)
    {
        std::vector<std::uint8_t> blob(8);
        const std::uint64_t len = state.size();
        std::memcpy(blob.data(), &len, 8);
        blob.insert(blob.end(), state.begin(), state.end());
        return blob;
    }

    /** Timed writes of @p state, encoded, into the CPU area of
     *  @p parity, the last block zero-padded. */
    void
    stageCpuState(unsigned parity,
                  const std::vector<std::uint8_t>& state) const
    {
        const std::vector<std::uint8_t> blob = encodeCpuState(state);
        for (std::size_t off = 0; off < blob.size(); off += kBlockSize) {
            std::uint8_t block[kBlockSize] = {};
            std::memcpy(block, blob.data() + off,
                        std::min(kBlockSize, blob.size() - off));
            port_.sendWrite(cpuArea(parity) + off, block,
                            TrafficSource::Checkpoint);
        }
    }

    /** Timed write of the header committing @p epoch into the slot of
     *  @p parity. */
    void
    writeHeader(unsigned parity, std::uint64_t epoch,
                std::uint64_t cpu_len, std::uint64_t aux = 0) const
    {
        CommitHeader hdr;
        hdr.magic = magic_;
        hdr.epoch = epoch;
        hdr.cpu_len = cpu_len;
        hdr.aux = aux;
        std::uint8_t block[kBlockSize] = {};
        std::memcpy(block, &hdr, sizeof(hdr));
        port_.sendWrite(slot(parity), block, TrafficSource::Checkpoint);
    }

    /** The newest valid header (the lower slot on a tie), if any. */
    std::optional<Committed>
    newest() const
    {
        std::optional<Committed> best;
        for (unsigned k = 0; k < slots_.size(); ++k) {
            const CommitHeader hdr = readHeader(k);
            if (hdr.magic != magic_ ||
                (best && hdr.epoch <= best->hdr.epoch))
                continue;
            const unsigned parity =
                slots_.size() == 1 ? static_cast<unsigned>(hdr.epoch & 1)
                                   : k;
            best = Committed{hdr, parity};
        }
        return best;
    }

    /** Epoch of the newest valid header; 0 if none. */
    std::uint64_t
    committedEpoch() const
    {
        const std::optional<Committed> c = newest();
        return c ? c->hdr.epoch : 0;
    }

    /**
     * Recovery prologue, shared by every backend. First roll back a
     * header that committed past @p max_epoch: the channel group's
     * phase-1 barrier bounds it to max_epoch + 1 and proves no channel
     * acted on it, so the target epoch's image is intact. A single slot
     * is demoted to describe the target (all-zero for target 0), its
     * timed write tracked by @p join; a parity slot is zeroed, so the
     * other slot (the target) is newest, with an untracked timed write.
     * Both are also written straight to the store, durable at once: a
     * crash mid-recovery must not resurrect the stale header over a
     * re-staged image. Then restore the newest header's CPU state into
     * @p cpu_state (cleared if nothing committed) and return it.
     */
    std::optional<Committed>
    recoverTo(std::uint64_t max_epoch, RecoveryJoin& join,
              std::vector<std::uint8_t>& cpu_state) const
    {
        // Recovery starts idle: an older unserviced write to a header
        // slot would have its pre-image replayed over the direct store
        // write below.
        panic_if(port_.device().liveUndoEntries() != 0,
                 "header rollback behind an unserviced write");
        for (unsigned k = 0; k < slots_.size(); ++k) {
            const CommitHeader hdr = readHeader(k);
            if (hdr.magic != magic_ || hdr.epoch <= max_epoch)
                continue;
            panic_if(hdr.epoch > max_epoch + 1,
                     "header epoch %llu too far past recovery target "
                     "%llu: the cross-channel commit barrier should bound "
                     "the spread",
                     static_cast<unsigned long long>(hdr.epoch),
                     static_cast<unsigned long long>(max_epoch));
            std::uint8_t block[kBlockSize] = {};
            if (slots_.size() == 1 && max_epoch > 0) {
                CommitHeader demoted;
                demoted.magic = magic_;
                demoted.epoch = max_epoch;
                store().read(cpuArea(max_epoch & 1), &demoted.cpu_len, 8);
                panic_if(demoted.cpu_len > cpu_max_,
                         "implausible rolled-back CPU state length");
                std::memcpy(block, &demoted, sizeof(demoted));
            }
            store().write(slots_[k], block, kBlockSize);
            port_.sendWrite(slots_[k], block, TrafficSource::Recovery,
                            slots_.size() == 1 ? join.track()
                                               : std::function<void()>());
        }

        const std::optional<Committed> c = newest();
        if (!c) {
            cpu_state.clear();
            return c;
        }
        const Addr area = cpuArea(c->parity);
        std::uint64_t len = 0;
        store().read(area, &len, 8);
        panic_if(len != c->hdr.cpu_len, "CPU state length mismatch");
        cpu_state.resize(len);
        store().read(area + 8, cpu_state.data(), len);
        return c;
    }

  private:
    Addr
    slot(unsigned parity) const
    {
        return slots_.size() == 1 ? slots_[0] : slots_[parity];
    }

    CommitHeader
    readHeader(unsigned k) const
    {
        CommitHeader hdr;
        store().read(slots_[k], &hdr, sizeof(hdr));
        return hdr;
    }

    BackingStore& store() const { return port_.device().store(); }

    DevicePort& port_;
    std::uint64_t magic_;
    std::vector<Addr> slots_;
    std::array<Addr, 2> cpu_areas_;
    std::size_t cpu_max_;
};

} // namespace thynvm

#endif // THYNVM_MEM_COMMIT_RECORD_HH
