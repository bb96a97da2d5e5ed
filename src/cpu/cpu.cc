/**
 * @file
 * TraceCpu implementation.
 */

#include "cpu/cpu.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace thynvm {

namespace {

bool
fastPathDisabledByEnv()
{
    const char* v = std::getenv("THYNVM_NO_FAST_PATH");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

} // namespace

TraceCpu::TraceCpu(EventQueue& eq, std::string name, const Params& params,
                   BlockAccessor& mem, Workload& workload)
    : SimObject(eq, std::move(name)),
      params_(params),
      mem_(mem),
      workload_(workload),
      step_event_([this] { step(); }),
      op_complete_event_([this] { opComplete(); }),
      piece_event_([this] { issueNextPiece(); })
{
    op_buf_.resize(params_.max_op_bytes);
    fast_path_enabled_ = params_.use_fast_path && !fastPathDisabledByEnv();
    stats().addScalar("instructions", &instructions_,
                      "instructions retired");
    stats().addScalar("loads", &loads_, "load operations executed");
    stats().addScalar("stores", &stores_, "store operations executed");
    stats().addScalar("mem_stall_time", &mem_stall_time_,
                      "ticks stalled on memory");
    stats().addScalar("paused_time", &paused_time_,
                      "ticks paused for checkpoint flushes");
}

void
TraceCpu::start()
{
    panic_if(started_, "CPU started twice");
    started_ = true;
    eventq_.schedule(step_event_, curTick());
}

void
TraceCpu::step()
{
    if (paused_) {
        // Park; resume() will restart the pipeline.
        busy_ = false;
        return;
    }
    if (finished_)
        return;

    if (!workload_.next(cur_op_)) {
        finished_ = true;
        busy_ = false;
        if (on_finished_)
            on_finished_();
        return;
    }

    switch (cur_op_.kind) {
      case WorkOp::Kind::Compute: {
        busy_ = true;
        instructions_ += static_cast<double>(cur_op_.count);
        eventq_.schedule(op_complete_event_,
                         curTick() + cur_op_.count * params_.cycle_period);
        return;
      }
      case WorkOp::Kind::Load:
      case WorkOp::Kind::Store: {
        panic_if(cur_op_.size == 0 || cur_op_.size > params_.max_op_bytes,
                 "memory op size %u out of range", cur_op_.size);
        panic_if(cur_op_.kind == WorkOp::Kind::Store &&
                     cur_op_.data == nullptr,
                 "store op without payload");
        busy_ = true;
        op_offset_ = 0;
        op_issue_tick_ = curTick();
        if (cur_op_.kind == WorkOp::Kind::Load)
            ++loads_;
        else
            ++stores_;
        issueNextPiece();
        return;
      }
    }
    panic("unhandled op kind");
}

bool
TraceCpu::chargeFastLatency()
{
    if (fast_lat_ == 0)
        return false;
    const Tick owed = fast_lat_;
    fast_lat_ = 0;
    eventq_.schedule(piece_event_, curTick() + owed);
    return true;
}

void
TraceCpu::issueNextPiece()
{
    // Consume pieces inline while they resolve fast in the hierarchy,
    // accumulating their latency into fast_lat_. Nothing else can touch
    // the caches mid-op (the core is blocking and pause() only lands at
    // op boundaries), so a fast piece has no externally visible timing:
    // charging the summed latency through one piece_event_ leaves every
    // stat and completion tick identical to the per-piece event path.
    while (op_offset_ < cur_op_.size) {
        const BlockChunk piece =
            blockChunk(cur_op_.addr + op_offset_, cur_op_.size - op_offset_);
        const Addr block_addr = piece.block;
        const auto in_block = static_cast<std::uint32_t>(piece.offset);
        const auto chunk = static_cast<std::uint32_t>(piece.len);

        // Once a checkpoint pause is pending, the op's completion will
        // run the flush machinery, whose same-tick event ordering must
        // match the event path exactly — finish the op on that path.
        if (!fast_path_enabled_ || paused_) {
            if (chargeFastLatency())
                return;
            issuePieceSlow(block_addr, in_block, chunk);
            return;
        }

        Tick piece_lat = kNoFastPath;
        if (cur_op_.kind == WorkOp::Kind::Load) {
            // Full-block pieces read straight into the op buffer; a
            // refusing hierarchy leaves the target untouched either way.
            const bool whole = in_block == 0 && chunk == kBlockSize;
            std::uint8_t* dst = whole ? op_buf_.data() + op_offset_
                                      : block_buf_.data();
            piece_lat = mem_.tryAccessFast(block_addr, false, nullptr,
                                           dst, TrafficSource::DemandRead);
            if (piece_lat != kNoFastPath && !whole) {
                std::memcpy(op_buf_.data() + op_offset_,
                            block_buf_.data() + in_block, chunk);
            }
        } else if (chunk == kBlockSize) {
            piece_lat = mem_.tryAccessFast(block_addr, true,
                                           cur_op_.data + op_offset_,
                                           nullptr,
                                           TrafficSource::CpuWriteback);
        } else {
            // Partial store: fast only when the write-allocate fill is.
            // The fill installs the block at this level's L1, so the
            // merge write then hits unconditionally.
            const Tick read_lat = mem_.tryAccessFast(
                block_addr, false, nullptr, block_buf_.data(),
                TrafficSource::DemandRead);
            if (read_lat != kNoFastPath) {
                rmw_buf_ = block_buf_;
                std::memcpy(rmw_buf_.data() + in_block,
                            cur_op_.data + op_offset_, chunk);
                const Tick write_lat = mem_.tryAccessFast(
                    block_addr, true, rmw_buf_.data(), nullptr,
                    TrafficSource::CpuWriteback);
                panic_if(write_lat == kNoFastPath,
                         "merge store refused after its fill");
                piece_lat = read_lat + write_lat;
            }
        }

        if (piece_lat == kNoFastPath) {
            // The piece needs the event path. First replay any latency
            // owed for fast pieces, so this piece is issued at exactly
            // the tick the event path would have reached it (its device
            // enqueue tick is timing-visible). The re-entry re-probes
            // deterministically: cache state cannot change mid-op.
            if (chargeFastLatency())
                return;
            issuePieceSlow(block_addr, in_block, chunk);
            return;
        }

        fast_lat_ += piece_lat;
        op_offset_ += chunk;
    }

    // Memory op complete; charge any latency still owed first.
    if (chargeFastLatency())
        return;
    if (cur_op_.kind == WorkOp::Kind::Load)
        workload_.deliver(op_buf_.data(), cur_op_.size);
    instructions_ += 1.0;
    mem_stall_time_ +=
        static_cast<double>(curTick() - op_issue_tick_);
    opComplete();
}

void
TraceCpu::issuePieceSlow(Addr block_addr, std::uint32_t in_block,
                         std::uint32_t chunk)
{
    if (cur_op_.kind == WorkOp::Kind::Load) {
        // Read the block; data lands functionally at call time.
        mem_.accessBlock(block_addr, false, nullptr, block_buf_.data(),
                         TrafficSource::DemandRead,
                         [this] { issueNextPiece(); });
        std::memcpy(op_buf_.data() + op_offset_,
                    block_buf_.data() + in_block, chunk);
        op_offset_ += chunk;
        return;
    }

    // Store: full-block pieces write directly; partial pieces perform a
    // read-modify-write (the write-allocate fill).
    if (chunk == kBlockSize) {
        mem_.accessBlock(block_addr, true, cur_op_.data + op_offset_,
                         nullptr, TrafficSource::CpuWriteback,
                         [this] { issueNextPiece(); });
        op_offset_ += chunk;
        return;
    }

    // The merged block is built now, from fill data that arrives
    // functionally at call time; the callback only replays it, so its
    // correctness no longer depends on block_buf_ surviving until the
    // fill's timing completes.
    mem_.accessBlock(block_addr, false, nullptr, block_buf_.data(),
                     TrafficSource::DemandRead, [this, block_addr] {
                         // Timing of the merge write chains after the
                         // fill.
                         mem_.accessBlock(block_addr, true,
                                          rmw_buf_.data(), nullptr,
                                          TrafficSource::CpuWriteback,
                                          [this] { issueNextPiece(); });
                     });
    rmw_buf_ = block_buf_;
    std::memcpy(rmw_buf_.data() + in_block, cur_op_.data + op_offset_,
                chunk);
    op_offset_ += chunk;
}

void
TraceCpu::opComplete()
{
    busy_ = false;
    if (paused_) {
        if (pause_cb_) {
            auto cb = std::move(pause_cb_);
            pause_cb_ = nullptr;
            pause_start_ = curTick();
            cb();
        }
        return;
    }
    eventq_.schedule(step_event_, curTick() + params_.cycle_period);
}

void
TraceCpu::pause(std::function<void()> on_paused)
{
    panic_if(paused_, "nested CPU pause");
    paused_ = true;
    if (busy_) {
        pause_cb_ = std::move(on_paused);
    } else {
        pause_start_ = curTick();
        eventq_.scheduleIn(0, std::move(on_paused));
    }
}

void
TraceCpu::resume()
{
    panic_if(!paused_, "resume without pause");
    paused_ = false;
    paused_time_ += static_cast<double>(curTick() - pause_start_);
    if (!busy_ && !finished_) {
        // A step parked by pause() may still be queued; replace it so
        // exactly one step fires, a full cycle after the resume.
        eventq_.deschedule(step_event_);
        eventq_.schedule(step_event_, curTick() + params_.cycle_period);
    }
}

std::vector<std::uint8_t>
TraceCpu::archState() const
{
    std::vector<std::uint8_t> wl = workload_.snapshot();
    std::vector<std::uint8_t> blob(16 + wl.size());
    const std::uint64_t insts = instructions();
    const std::uint64_t wl_size = wl.size();
    std::memcpy(blob.data(), &insts, 8);
    std::memcpy(blob.data() + 8, &wl_size, 8);
    // Not memcpy: an empty snapshot may have a null data().
    std::copy(wl.begin(), wl.end(), blob.begin() + 16);
    return blob;
}

void
TraceCpu::restoreArchState(const std::vector<std::uint8_t>& blob)
{
    panic_if(blob.size() < 16, "short CPU state blob");
    std::uint64_t insts = 0;
    std::uint64_t wl_size = 0;
    std::memcpy(&insts, blob.data(), 8);
    std::memcpy(&wl_size, blob.data() + 8, 8);
    panic_if(blob.size() != 16 + wl_size, "corrupt CPU state blob");
    instructions_ = static_cast<double>(insts);
    workload_.restore(std::vector<std::uint8_t>(blob.begin() + 16,
                                                blob.end()));
    finished_ = false;
    busy_ = false;
    paused_ = false;
    fast_lat_ = 0;
}

} // namespace thynvm
