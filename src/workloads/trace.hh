/**
 * @file
 * Memory-trace recording and replay.
 *
 * Any Workload's operation stream can be captured to a compact binary
 * trace file and replayed later — useful for comparing memory systems
 * on exactly identical access streams, for regression-pinning a
 * workload, and for importing traces produced by external tools.
 *
 * Trace file layout (little-endian):
 *   header : {u64 magic, u64 version, u64 op_count}
 *   record : {u8 kind, u8 pad[3], u32 size, u64 addr, u64 count}
 * Store payloads are not recorded; replay regenerates them
 * deterministically from (addr, sequence number), which preserves the
 * timing-relevant behaviour and keeps traces small.
 */

#ifndef THYNVM_WORKLOADS_TRACE_HH
#define THYNVM_WORKLOADS_TRACE_HH

#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "cpu/workload.hh"

namespace thynvm {

/** One serialized trace record. */
struct TraceRecord
{
    std::uint8_t kind; // WorkOp::Kind
    std::uint8_t pad[3];
    std::uint32_t size;
    std::uint64_t addr;
    std::uint64_t count;
};
static_assert(sizeof(TraceRecord) == 24);

/**
 * Wraps a workload and records every operation it produces.
 */
class TraceRecorder : public Workload
{
  public:
    /** @param inner the workload to observe (not owned). */
    explicit TraceRecorder(Workload& inner) : inner_(inner) {}

    void init(MemController& mem) override { inner_.init(mem); }

    bool
    next(WorkOp& op) override
    {
        if (!inner_.next(op))
            return false;
        TraceRecord rec{};
        rec.kind = static_cast<std::uint8_t>(op.kind);
        rec.size = op.size;
        rec.addr = op.addr;
        rec.count = op.count;
        records_.push_back(rec);
        return true;
    }

    void
    deliver(const std::uint8_t* data, std::size_t len) override
    {
        inner_.deliver(data, len);
    }

    std::vector<std::uint8_t> snapshot() const override
    {
        return inner_.snapshot();
    }

    void restore(const std::vector<std::uint8_t>& blob) override
    {
        inner_.restore(blob);
    }

    /** Operations recorded so far. */
    const std::vector<TraceRecord>& records() const { return records_; }

    /** Write the recorded trace to @p path. Fatal on I/O errors. */
    void save(const std::string& path) const;

  private:
    Workload& inner_;
    std::vector<TraceRecord> records_;
};

/**
 * Replays a recorded trace as a workload. Store payloads are generated
 * deterministically from (address, sequence number).
 */
class TraceReplayWorkload : public Workload
{
  public:
    /** Construct from in-memory records. */
    explicit TraceReplayWorkload(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {
        store_buf_.resize(8192);
    }

    /** Load a trace file saved by TraceRecorder::save(). */
    static TraceReplayWorkload load(const std::string& path);

    bool
    next(WorkOp& op) override
    {
        if (pos_ >= records_.size())
            return false;
        const TraceRecord& rec = records_[pos_++];
        op.kind = static_cast<WorkOp::Kind>(rec.kind);
        op.size = rec.size;
        op.addr = rec.addr;
        op.count = rec.count;
        if (op.kind == WorkOp::Kind::Store) {
            panic_if(op.size > store_buf_.size(),
                     "trace store exceeds replay buffer");
            fillPayload(rec.addr, pos_, op.size);
            op.data = store_buf_.data();
        }
        return true;
    }

    std::vector<std::uint8_t>
    snapshot() const override
    {
        std::vector<std::uint8_t> blob(8);
        const std::uint64_t pos = pos_;
        std::memcpy(blob.data(), &pos, 8);
        return blob;
    }

    void
    restore(const std::vector<std::uint8_t>& blob) override
    {
        panic_if(blob.size() != 8, "bad trace snapshot");
        std::uint64_t pos = 0;
        std::memcpy(&pos, blob.data(), 8);
        pos_ = pos;
    }

    /** Number of operations in the trace. */
    std::size_t size() const { return records_.size(); }
    /** Operations already replayed. */
    std::size_t position() const { return pos_; }

  private:
    void
    fillPayload(Addr addr, std::uint64_t seq, std::uint32_t len)
    {
        fillLcgPayload(store_buf_.data(), len,
                       addr * 0x9e3779b97f4a7c15ULL + seq);
    }

    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
    std::vector<std::uint8_t> store_buf_;
};

} // namespace thynvm

#endif // THYNVM_WORKLOADS_TRACE_HH
