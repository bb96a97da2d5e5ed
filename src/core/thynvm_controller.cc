/**
 * @file
 * ThyNvmController implementation.
 */

#include "core/thynvm_controller.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

namespace thynvm {

namespace {

/** Magic value identifying a valid backup-slot commit header. */
constexpr std::uint64_t kBackupMagic = 0x5468794e564d2121ull; // "ThyNVM!!"

} // namespace

ThyNvmController::ThyNvmController(EventQueue& eq, std::string name,
                                   const ThyNvmConfig& cfg,
                                   std::shared_ptr<BackingStore> nvm_store)
    : EpochController(eq, name, cfg.epoch_length, At::FlushDone,
                      cfg.stop_the_world ? At::Commit : At::FlushDone),
      cfg_(cfg),
      layout_(cfg),
      dram_dev_(eq, name + ".dram", DeviceParams::dram(layout_.dramSize())),
      nvm_dev_(eq, name + ".nvm", DeviceParams::nvm(layout_.nvmSize()),
               std::move(nvm_store)),
      dram_port_(dram_dev_),
      nvm_port_(nvm_dev_),
      commit_(nvm_port_, kBackupMagic,
              {layout_.backupSlot(0), layout_.backupSlot(1)},
              {layout_.backupSlot(0) + layout_.cpuAreaOffset(),
               layout_.backupSlot(1) + layout_.cpuAreaOffset()},
              // The CPU area holds cpu_state_max bytes, length included.
              cfg.cpu_state_max - 8),
      btt_(cfg.btt_entries),
      ptt_(cfg.ptt_entries)
{
    fatal_if(cfg_.phys_size == 0 || cfg_.btt_entries == 0 ||
                 cfg_.ptt_entries == 0 || cfg_.overflow_entries == 0 ||
                 cfg_.cpu_state_max < 8,
             "degenerate ThyNVM configuration");
    overflow_free_.reserve(cfg_.overflow_entries);
    for (std::size_t i = cfg_.overflow_entries; i-- > 0;)
        overflow_free_.push_back(i);
    overflow_slot_addr_.assign(cfg_.overflow_entries, kInvalidAddr);
    overflow_dirty_[0].assign(cfg_.overflow_entries, 0);
    overflow_dirty_[1].assign(cfg_.overflow_entries, 0);
    overflow_in_last_log_.assign(cfg_.overflow_entries, 0);
    resetImage(btt_image_, btt_.capacity());
    resetImage(ptt_image_, ptt_.capacity());

    stats().addScalar("loads", &loads_, "block loads serviced");
    stats().addScalar("stores", &stores_, "block stores serviced");
    stats().addScalar("remap_nvm_writes", &remap_nvm_writes_,
                      "working copies remapped directly in NVM");
    stats().addScalar("buffered_block_writes", &buffered_block_writes_,
                      "working copies staged in the DRAM block buffer");
    stats().addScalar("page_stores", &page_stores_,
                      "stores absorbed by DRAM page slots");
    stats().addScalar("diverted_stores", &diverted_stores_,
                      "stores diverted to overlays during page writeback");
    stats().addScalar("overlay_merges", &overlay_merges_,
                      "overlay blocks merged back into pages");
    stats().addScalar("drained_blocks", &drained_blocks_,
                      "DRAM-buffered blocks drained at checkpoint start");
    stats().addScalar("metadata_ckpt_bytes", &metadata_ckpt_bytes_,
                      "bytes of BTT/PTT/CPU state checkpointed");
    stats().addScalar("pages_written_back", &pages_written_back_,
                      "dirty pages checkpointed by page writeback");
    stats().addScalar("promotions", &promotions_,
                      "pages switched from block remapping to writeback");
    stats().addScalar("demotions", &demotions_,
                      "pages switched from writeback to block remapping");
    stats().addScalar("home_migrations", &home_migrations_,
                      "idle blocks migrated from Region A to Home");
    stats().addScalar("overflow_epochs", &overflow_epochs_,
                      "epochs ended early by table overflow");
    stats().addScalar("overflow_blocks", &overflow_blocks_,
                      "stores staged in the overflow buffer");
    stats().addScalar("stalled_stores", &stalled_store_count_,
                      "stores stalled waiting for table space");
    stats().addScalar("flush_stall_time", &flush_stall_time_,
                      "ticks the CPU was paused for volatile-state flush");
}

// ---------------------------------------------------------------------
// Public interface.
// ---------------------------------------------------------------------

void
ThyNvmController::accessBlock(Addr paddr, bool is_write,
                              const std::uint8_t* wdata,
                              std::uint8_t* rdata, TrafficSource source,
                              std::function<void()> done)
{
    (void)source;
    panic_if(paddr % kBlockSize != 0, "unaligned controller access");
    panic_if(paddr + kBlockSize > cfg_.phys_size,
             "physical address out of range");
    if (is_write) {
        noteAppWrite();
        handleStore(paddr, wdata, std::move(done));
    } else {
        handleLoad(paddr, rdata, std::move(done));
    }
}

void
ThyNvmController::loadImage(Addr paddr, const void* buf, std::size_t len)
{
    panic_if(paddr + len > cfg_.phys_size, "image beyond physical space");
    nvm_dev_.store().write(layout_.homeAddr(paddr), buf, len);
}

void
ThyNvmController::forEachTouchedPhysRange(
    const std::function<void(Addr, std::size_t)>& fn) const
{
    // The Home region maps physical addresses at identity (home_base_
    // is 0); everything above it — checkpoint regions A/B, table
    // images, headers, CPU areas — is only software-visible through a
    // live BTT/PTT/overflow mapping, so reporting those tags covers
    // it. DRAM working copies are likewise only visible via tables.
    nvm_dev_.store().forEachTouchedRange(
        [&](Addr a, const std::uint8_t*, std::size_t len) {
            if (a < cfg_.phys_size)
                fn(a, std::min(len, cfg_.phys_size - a));
        });
    btt_.forEachLive([&](std::size_t, const BttEntry& e) {
        fn(e.block_paddr, kBlockSize);
    });
    ptt_.forEachLive([&](std::size_t, const PttEntry& e) {
        fn(e.page_paddr, kPageSize);
    });
    for (const auto& [block_paddr, slot] : overflow_map_)
        fn(block_paddr, kBlockSize);
}

void
ThyNvmController::functionalRead(Addr paddr, void* buf,
                                 std::size_t len) const
{
    panic_if(paddr + len > cfg_.phys_size,
             "functional read beyond physical space");
    auto* out = static_cast<std::uint8_t*>(buf);
    std::size_t remaining = len;
    Addr addr = paddr;
    while (remaining > 0) {
        const Addr block = blockAlign(addr);
        const std::size_t in_block = addr - block;
        const std::size_t chunk =
            std::min(remaining, kBlockSize - in_block);
        VisibleLoc loc = visibleLoc(block);
        std::uint8_t tmp[kBlockSize];
        if (loc.in_dram)
            dram_port_.functionalRead(loc.addr, tmp, kBlockSize);
        else
            nvm_port_.functionalRead(loc.addr, tmp, kBlockSize);
        std::memcpy(out, tmp + in_block, chunk);
        out += chunk;
        addr += chunk;
        remaining -= chunk;
    }
}

// ---------------------------------------------------------------------
// Address resolution.
// ---------------------------------------------------------------------

ThyNvmController::VisibleLoc
ThyNvmController::visibleLoc(Addr block_paddr) const
{
    const Addr page = pageAlign(block_paddr);
    const std::size_t pidx = ptt_.lookup(page);
    if (pidx != Ptt::npos) {
        // Overlay blocks (cooperation diversion) take priority over the
        // DRAM page copy; the overlay may live in the block buffer or,
        // under table pressure, in the overflow buffer.
        const std::size_t bidx = btt_.lookup(block_paddr);
        if (bidx != Btt::npos) {
            const BttEntry& be = btt_.at(bidx);
            if (be.overlay && be.wactive == WactiveLoc::DramBuf)
                return {true, layout_.dramBlockSlot(bidx)};
        }
        auto ov = overflow_map_.find(block_paddr);
        if (ov != overflow_map_.end())
            return {true, layout_.dramOverflowSlot(ov->second)};
        const Addr offset = block_paddr - page;
        return {true, layout_.dramPageSlot(pidx) + offset};
    }

    auto ov = overflow_map_.find(block_paddr);
    if (ov != overflow_map_.end())
        return {true, layout_.dramOverflowSlot(ov->second)};

    const std::size_t bidx = btt_.lookup(block_paddr);
    if (bidx != Btt::npos) {
        const BttEntry& e = btt_.at(bidx);
        panic_if(e.absorbed, "absorbed BTT entry without a live page");
        if (e.wactive == WactiveLoc::Nvm) {
            return {false,
                    layout_.blockSlot(e.wactive_slot, bidx, block_paddr)};
        }
        if (e.wactive == WactiveLoc::DramBuf)
            return {true, layout_.dramBlockSlot(bidx)};
        if (e.pending) {
            return {false,
                    layout_.blockSlot(e.pending_slot, bidx, block_paddr)};
        }
        return {false, layout_.blockSlot(e.committed, bidx, block_paddr)};
    }

    return {false, layout_.homeAddr(block_paddr)};
}

std::function<void()>
ThyNvmController::afterLookup(std::function<void()> done)
{
    if (!done)
        return done;
    return [this, done = std::move(done)]() mutable {
        // Fires at most once; moving the callback into the queue avoids
        // a std::function copy on the load/store hot path.
        eventq_.scheduleIn(cfg_.table_lookup_latency, std::move(done));
    };
}

// ---------------------------------------------------------------------
// Device traffic helpers.
// ---------------------------------------------------------------------

void
ThyNvmController::sendNvmWrite(Addr addr, const std::uint8_t* data,
                               TrafficSource src,
                               std::function<void()> on_complete)
{
    nvm_port_.sendWrite(addr, data, src, std::move(on_complete));
}

void
ThyNvmController::sendDramWrite(Addr addr, const std::uint8_t* data,
                                TrafficSource src,
                                std::function<void()> on_complete)
{
    dram_port_.sendWrite(addr, data, src, std::move(on_complete));
}

void
ThyNvmController::sendTimedRead(bool dram, Addr addr, TrafficSource src,
                                std::function<void()> on_complete)
{
    (dram ? dram_port_ : nvm_port_).sendRead(addr, src,
                                             std::move(on_complete));
}

// ---------------------------------------------------------------------
// Load path.
// ---------------------------------------------------------------------

void
ThyNvmController::handleLoad(Addr block_paddr, std::uint8_t* rdata,
                             std::function<void()> done)
{
    ++loads_;
    VisibleLoc loc = visibleLoc(block_paddr);
    auto& port = loc.in_dram ? dram_port_ : nvm_port_;
    port.functionalRead(loc.addr, rdata, kBlockSize);

    port.sendRead(loc.addr, TrafficSource::DemandRead,
                  afterLookup(std::move(done)));
}

// ---------------------------------------------------------------------
// Store path.
// ---------------------------------------------------------------------

void
ThyNvmController::handleStore(Addr block_paddr, const std::uint8_t* wdata,
                              std::function<void()> done)
{
    ++stores_;
    const Addr page = pageAlign(block_paddr);
    const std::size_t pidx = ptt_.lookup(page);
    if (pidx != Ptt::npos) {
        PttEntry& pe = ptt_.at(pidx);
        ++pe.store_count;
        if (pe.wb_in_flight || (pe.demoting && checkpointInProgress())) {
            // §3.4 cooperation: the page cannot be modified in DRAM
            // while its checkpoint copy is in flight; divert the store
            // to block remapping.
            ++diverted_stores_;
            storeToBlock(block_paddr, wdata, true, std::move(done));
            return;
        }
        if (pe.demoting) {
            // The page is hot again before its demotion took effect.
            pe.demoting = false;
        }
        storeToPage(pidx, block_paddr, wdata, std::move(done));
        return;
    }

    // Blocks spilled to the overflow buffer coalesce there until the
    // checkpoint engine migrates them into the BTT.
    if (overflow_map_.count(block_paddr) != 0) {
        overflowStore(block_paddr, wdata, std::move(done));
        return;
    }

    if (cfg_.mode == CheckpointMode::PageOnly) {
        if (ptt_.full()) {
            overflowStore(block_paddr, wdata, std::move(done));
            return;
        }
        promotePage(page);
        const std::size_t new_pidx = ptt_.lookup(page);
        panic_if(new_pidx == Ptt::npos, "promotion failed");
        ++ptt_.at(new_pidx).store_count;
        storeToPage(new_pidx, block_paddr, wdata, std::move(done));
        return;
    }

    storeToBlock(block_paddr, wdata, false, std::move(done));
}

void
ThyNvmController::storeToPage(std::size_t pidx, Addr block_paddr,
                              const std::uint8_t* wdata,
                              std::function<void()> done)
{
    PttEntry& pe = ptt_.at(pidx);
    panic_if(pe.wb_in_flight, "direct store to a page mid-writeback");
    pe.dirty = true;
    ++page_stores_;
    const Addr slot =
        layout_.dramPageSlot(pidx) + (block_paddr - pe.page_paddr);

    dram_port_.sendWrite(slot, wdata, TrafficSource::CpuWriteback, {},
                         afterLookup(std::move(done)));
}

void
ThyNvmController::storeToBlock(Addr block_paddr, const std::uint8_t* wdata,
                               bool overlay, std::function<void()> done)
{
    std::size_t bidx = btt_.lookup(block_paddr);
    if (bidx == Btt::npos) {
        if (btt_.full()) {
            // Sparse blocks beyond BTT capacity spill to the overflow
            // buffer; dense pages reach the PTT through the normal
            // store-counter promotion path, never through pressure
            // (unconditional promotion would turn sparse workloads
            // into whole-page checkpoint thrash).
            overflowStore(block_paddr, wdata, std::move(done));
            return;
        }
        bidx = btt_.allocate(block_paddr);
        BttEntry& fresh = btt_.at(bidx);
        fresh.committed = CkptRegion::B; // untracked data lives at home
        fresh.overlay = overlay;
        // Approaching capacity: request an epoch boundary early (§4.3)
        // so entries recycle before the flush needs them. The epoch
        // model self-regulates: each flush only writes blocks dirtied
        // since the previous clean-without-invalidate flush.
        if (btt_.live() * 8 >= btt_.capacity() * 7) {
            if (!boundary_requested_)
                ++overflow_epochs_;
            requestEpochEnd();
        }
    }

    BttEntry& e = btt_.at(bidx);
    ++e.store_count;
    if (!overlay)
        ++page_store_agg_[pageAlign(block_paddr)];
    // A store revives an entry scheduled for reclamation.
    e.free_at_commit = false;

    if (overlay) {
        panic_if(!e.overlay && e.wactive == WactiveLoc::Nvm,
                 "diverted store collides with an NVM working copy");
        e.overlay = true;
        e.wactive = WactiveLoc::DramBuf;
        sendDramWrite(layout_.dramBlockSlot(bidx), wdata,
                      TrafficSource::CpuWriteback);
        if (done)
            eventq_.scheduleIn(cfg_.table_lookup_latency, std::move(done));
        return;
    }

    panic_if(e.absorbed, "non-overlay store to an absorbed entry");

    if (e.wactive == WactiveLoc::Nvm) {
        // Coalesce into the existing NVM working copy.
        sendNvmWrite(layout_.blockSlot(e.wactive_slot, bidx, block_paddr),
                     wdata, TrafficSource::CpuWriteback);
    } else if (e.wactive == WactiveLoc::DramBuf) {
        sendDramWrite(layout_.dramBlockSlot(bidx), wdata,
                      TrafficSource::CpuWriteback);
    } else if (e.pending || e.migrating_home) {
        // Both NVM slots are protected while a checkpoint of this entry
        // is in flight: stage the working copy in the DRAM block buffer
        // (paper §4.1).
        e.wactive = WactiveLoc::DramBuf;
        ++buffered_block_writes_;
        sendDramWrite(layout_.dramBlockSlot(bidx), wdata,
                      TrafficSource::CpuWriteback);
    } else {
        // Fast path: remap the working copy directly in NVM, in the
        // region opposite the committed copy.
        e.wactive = WactiveLoc::Nvm;
        e.wactive_slot = otherRegion(e.committed);
        ++remap_nvm_writes_;
        sendNvmWrite(layout_.blockSlot(e.wactive_slot, bidx, block_paddr),
                     wdata, TrafficSource::CpuWriteback);
    }
    if (done)
        eventq_.scheduleIn(cfg_.table_lookup_latency, std::move(done));
}

void
ThyNvmController::overflowStore(Addr block_paddr, const std::uint8_t* wdata,
                                std::function<void()> done)
{
    auto it = overflow_map_.find(block_paddr);
    std::size_t slot;
    if (it != overflow_map_.end()) {
        slot = it->second;
    } else {
        if (!flushing_ &&
            overflow_map_.size() >= cfg_.overflow_stall_watermark) {
            // Back-pressure: pace execution by checkpoint recycling,
            // keeping the remaining capacity free for the flush.
            ++stalled_store_count_;
            stallAccess(block_paddr, true, wdata, std::move(done));
            requestEpochEnd();
            return;
        }
        if (overflow_free_.empty()) {
            // The overflow buffer is a capacity backstop; exhausting
            // it means the configuration is far too small for the
            // workload's per-epoch write footprint.
            fatal_if(flushing_,
                     "overflow buffer exhausted during the checkpoint "
                     "flush; configure larger tables");
            ++stalled_store_count_;
            stallAccess(block_paddr, true, wdata, std::move(done));
            requestEpochEnd();
            return;
        }
        slot = overflow_free_.back();
        overflow_free_.pop_back();
        overflow_map_.emplace(block_paddr, slot);
        overflow_slot_addr_[slot] = block_paddr;
    }
    ++overflow_blocks_;
    overflow_dirty_[0][slot] = 1;
    overflow_dirty_[1][slot] = 1;
    // Overflowed stores still feed the locality heuristic: dense pages
    // must reach the PTT so the buffer can drain.
    ++page_store_agg_[pageAlign(block_paddr)];
    sendDramWrite(layout_.dramOverflowSlot(slot), wdata,
                  TrafficSource::CpuWriteback);
    if (done)
        eventq_.scheduleIn(cfg_.table_lookup_latency, std::move(done));
}

void
ThyNvmController::retireOverflowEntries()
{
    // Entries in the last *committed* log can go home: until this
    // checkpoint commits, recovery resolves them from that log, so the
    // Home bytes are dead; afterwards Home holds the same data the log
    // held, and the new bitmap excludes them.
    auto it = overflow_map_.begin();
    while (it != overflow_map_.end()) {
        const Addr block_paddr = it->first;
        const std::size_t slot = it->second;
        if (!overflow_in_last_log_[slot]) {
            ++it;
            continue;
        }
        panic_if(ptt_.lookup(pageAlign(block_paddr)) != Ptt::npos,
                 "unmerged overlay overflow at checkpoint start");
        const Addr src = layout_.dramOverflowSlot(slot);
        std::uint8_t data[kBlockSize];
        dram_port_.functionalRead(src, data, kBlockSize);
        sendTimedRead(true, src, TrafficSource::Migration);
        sendNvmWrite(layout_.homeAddr(block_paddr), data,
                     TrafficSource::Migration);

        overflow_in_last_log_[slot] = 0;
        overflow_slot_addr_[slot] = kInvalidAddr;
        overflow_free_.push_back(slot);
        it = overflow_map_.erase(it);
    }
}

void
ThyNvmController::stageOverflowLog()
{
    // Journal the blocks still stuck in the overflow buffer so the
    // commit covers them. Captured synchronously: no next-epoch store
    // can interleave within this event. Logging is incremental: only
    // slots whose data changed since their last write into *this*
    // backup area are rewritten; the live-slot bitmap is always
    // refreshed and defines validity at recovery.
    const Addr slot_base = layout_.backupSlot(ckptParity());
    auto& dirty = overflow_dirty_[ckptParity()];

    std::vector<std::uint8_t> bitmap(
        roundUp((cfg_.overflow_entries + 7) / 8, kBlockSize), 0);
    std::vector<bool> meta_block_dirty(
        (cfg_.overflow_entries + 7) / 8 + 1, false);

    std::fill(overflow_in_last_log_.begin(),
              overflow_in_last_log_.end(), 0);
    for (const auto& [block_paddr, slot] : overflow_map_) {
        bitmap[slot / 8] |=
            static_cast<std::uint8_t>(1u << (slot % 8));
        overflow_in_last_log_[slot] = 1;
        if (!dirty[slot])
            continue;
        dirty[slot] = 0;
        const Addr src = layout_.dramOverflowSlot(slot);
        std::uint8_t data[kBlockSize];
        dram_port_.functionalRead(src, data, kBlockSize);
        sendTimedRead(true, src, TrafficSource::Checkpoint);
        sendNvmWrite(slot_base + layout_.overflowDataOffset() +
                         slot * kBlockSize,
                     data, TrafficSource::Checkpoint);
        meta_block_dirty[slot / 8] = true;
    }

    // Rewrite the address-table blocks that cover re-logged slots.
    for (std::size_t mb = 0; mb < meta_block_dirty.size(); ++mb) {
        if (!meta_block_dirty[mb])
            continue;
        std::uint8_t block[kBlockSize] = {};
        for (std::size_t j = 0; j < 8; ++j) {
            const std::size_t slot = mb * 8 + j;
            const Addr a = slot < cfg_.overflow_entries
                               ? overflow_slot_addr_[slot]
                               : kInvalidAddr;
            std::memcpy(block + j * 8, &a, 8);
        }
        sendNvmWrite(slot_base + layout_.overflowMetaOffset() +
                         mb * kBlockSize,
                     block, TrafficSource::Checkpoint);
    }

    stageMetadataWrite(slot_base + layout_.overflowBitmapOffset(),
                       bitmap);
    overflow_logged_ = overflow_map_.size();
    crashPoint("ckpt.overflow_logged");
}

// ---------------------------------------------------------------------
// Scheme switching.
// ---------------------------------------------------------------------

void
ThyNvmController::closeEpoch()
{
    if (cfg_.mode == CheckpointMode::Dual) {
        markDemotions();
        // Promote pages whose block-remapped store count crossed the
        // threshold this epoch.
        for (const auto& [page, count] : page_store_agg_) {
            if (count < cfg_.promote_threshold)
                continue;
            if (ptt_.full())
                break;
            if (ptt_.lookup(page) != Ptt::npos)
                continue;
            promotePage(page);
        }
    } else if (cfg_.mode == CheckpointMode::PageOnly) {
        markDemotions();
    }
    // BlockOnly performs no switching.

    // Page hotness decays instead of resetting: epochs often end early
    // on table overflow (§4.3), and a hard reset would make the
    // promotion threshold — calibrated for full-length epochs — nearly
    // unreachable under exactly the workloads that shorten epochs.
    for (auto it = page_store_agg_.begin();
         it != page_store_agg_.end();) {
        it->second /= 2;
        if (it->second == 0)
            it = page_store_agg_.erase(it);
        else
            ++it;
    }
    btt_.forEachLive(
        [](std::size_t, BttEntry& e) { e.store_count = 0; });
    ptt_.forEachLive(
        [](std::size_t, PttEntry& e) { e.store_count = 0; });
}

void
ThyNvmController::markDemotions()
{
    // Pages written sparsely this epoch switch back to block remapping
    // (low spatial locality, paper §3.4). Idle pages keep their DRAM
    // residency — they cost nothing and preserve locality — unless the
    // PTT itself is under pressure, in which case clean idle pages are
    // evicted to make room for new promotions.
    std::size_t demotable = 0;
    ptt_.forEachLive([this, &demotable](std::size_t, PttEntry& e) {
        if (e.demoting || e.pending || !e.ever_committed)
            return;
        if (e.store_count > 0 && e.store_count < cfg_.demote_threshold) {
            // A dirty page can only leave once its image ends at Home:
            // if this epoch's writeback targets Region A, the demotion
            // waits for the next alternation.
            if (e.dirty && otherRegion(e.committed) != CkptRegion::B)
                return;
            e.demoting = true;
            ++demotions_;
        } else if (e.store_count == 0 && !e.dirty) {
            ++demotable;
        }
    });

    const std::size_t watermark = ptt_.capacity() * 7 / 8;
    if (ptt_.live() <= watermark || demotable == 0)
        return;
    std::size_t excess = ptt_.live() - watermark;
    ptt_.forEachLive([this, &excess](std::size_t, PttEntry& e) {
        if (excess == 0 || e.demoting || e.dirty || !e.ever_committed ||
            e.pending || e.store_count != 0) {
            return;
        }
        e.demoting = true;
        ++demotions_;
        --excess;
    });
}

void
ThyNvmController::promotePage(Addr page_paddr)
{
    const std::size_t pidx = ptt_.allocate(page_paddr);
    panic_if(pidx == Ptt::npos, "promotePage with a full PTT");
    PttEntry& pe = ptt_.at(pidx);
    pe.dirty = true; // force the first checkpoint of the page
    pe.ever_committed = false;
    ++promotions_;

    // Gather all blocks of the page into the DRAM page slot. The copies
    // are staged as Migration traffic; their latency is hidden by the
    // execution phase (§3.4).
    for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
        const Addr block_paddr = page_paddr + blk * kBlockSize;
        // Resolve the visible copy *before* absorbing the BTT entry.
        const std::size_t bidx = btt_.lookup(block_paddr);
        bool from_dram = false;
        Addr src_addr = layout_.homeAddr(block_paddr);
        auto ov = overflow_map_.find(block_paddr);
        if (ov != overflow_map_.end()) {
            panic_if(bidx != Btt::npos,
                     "block tracked by both BTT and overflow buffer");
            from_dram = true;
            src_addr = layout_.dramOverflowSlot(ov->second);
        } else if (bidx != Btt::npos) {
            const BttEntry& be = btt_.at(bidx);
            panic_if(be.overlay,
                     "overlay entry for a page not in the PTT");
            if (be.wactive == WactiveLoc::Nvm) {
                src_addr =
                    layout_.blockSlot(be.wactive_slot, bidx, block_paddr);
            } else if (be.wactive == WactiveLoc::DramBuf) {
                from_dram = true;
                src_addr = layout_.dramBlockSlot(bidx);
            } else if (be.pending) {
                src_addr =
                    layout_.blockSlot(be.pending_slot, bidx, block_paddr);
            } else {
                src_addr =
                    layout_.blockSlot(be.committed, bidx, block_paddr);
            }
        }

        std::uint8_t data[kBlockSize];
        if (from_dram)
            dram_port_.functionalRead(src_addr, data, kBlockSize);
        else
            nvm_port_.functionalRead(src_addr, data, kBlockSize);

        sendTimedRead(from_dram, src_addr, TrafficSource::Migration);
        sendDramWrite(layout_.dramPageSlot(pidx) + blk * kBlockSize, data,
                      TrafficSource::Migration);

        if (ov != overflow_map_.end()) {
            // The page image absorbed the overflow copy. The durable
            // overflow log of the last commit stays valid until the
            // page's first checkpoint commits.
            overflow_slot_addr_[ov->second] = kInvalidAddr;
            overflow_free_.push_back(ov->second);
            overflow_map_.erase(ov);
        }
        if (bidx != Btt::npos) {
            BttEntry& be = btt_.at(bidx);
            // The page image now carries the working copy; the entry
            // only remains to describe the *committed* version until
            // the page's first checkpoint commits.
            be.wactive = WactiveLoc::None;
            be.absorbed = true;
            be.free_at_commit = false;
            be.migrating_home = false;
            pe.absorbed_btt.push_back(bidx);
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint phases.
// ---------------------------------------------------------------------

void
ThyNvmController::doCheckpoint(std::function<void()> done)
{
    // Overlapped, the CPU resumed at the end of the flush: its whole
    // pause was the flush.
    if (!cfg_.stop_the_world)
        flush_stall_time_ += static_cast<double>(curTick() - boundary_start_);
    ckpt_done_ = std::move(done);
    crashPoint("ckpt.start");

    retireOverflowEntries();
    drainBlockBuffers();
    reclaimIdleBttEntries();
    stageOverflowLog();
    persistBtt();
    startPageWritebacks();
}

void
ThyNvmController::drainBlockBuffers()
{
    btt_.forEachLive([this](std::size_t bidx, BttEntry& e) {
        if (e.overlay || e.absorbed)
            return;
        if (e.wactive == WactiveLoc::DramBuf) {
            // Write the staged working copy to its NVM slot; the data
            // snapshot is captured now, freeing the buffer slot for the
            // new epoch immediately.
            const CkptRegion target = otherRegion(e.committed);
            const Addr src = layout_.dramBlockSlot(bidx);
            std::uint8_t data[kBlockSize];
            dram_port_.functionalRead(src, data, kBlockSize);
            sendTimedRead(true, src, TrafficSource::Checkpoint);
            sendNvmWrite(layout_.blockSlot(target, bidx, e.block_paddr),
                         data, TrafficSource::Checkpoint);
            e.pending = true;
            e.pending_slot = target;
            e.wactive = WactiveLoc::None;
            ++drained_blocks_;
        } else if (e.wactive == WactiveLoc::Nvm) {
            // Block remapping: the working copy is already in NVM; it
            // becomes the checkpoint by persisting metadata only.
            e.pending = true;
            e.pending_slot = e.wactive_slot;
            e.wactive = WactiveLoc::None;
        }
        if (e.pending)
            crashPoint("ckpt.block_drained");
    });
}

void
ThyNvmController::reclaimIdleBttEntries()
{
    const bool gc =
        static_cast<double>(btt_.live()) /
            static_cast<double>(btt_.capacity()) >
        cfg_.btt_gc_watermark;
    std::vector<std::size_t> release_now;
    btt_.forEachLive([this, gc, &release_now](std::size_t bidx,
                                              BttEntry& e) {
        if (e.pending || e.wactive != WactiveLoc::None || e.overlay ||
            e.absorbed || e.free_at_commit || e.migrating_home) {
            return;
        }
        if (e.committed == CkptRegion::B) {
            // Data already lives at home, which is also what the last
            // durable metadata image resolves to once the entry is
            // gone; release immediately so the freed entry can absorb
            // overflow blocks in this very checkpoint.
            release_now.push_back(bidx);
        } else if (gc) {
            // Migrate the committed copy home so the entry can be
            // reclaimed; staged as Migration traffic.
            e.migrating_home = true;
            e.free_at_commit = true;
            ++home_migrations_;
            const Addr src =
                layout_.blockSlot(CkptRegion::A, bidx, e.block_paddr);
            std::uint8_t data[kBlockSize];
            nvm_port_.functionalRead(src, data, kBlockSize);
            sendTimedRead(false, src, TrafficSource::Migration);
            sendNvmWrite(layout_.homeAddr(e.block_paddr), data,
                         TrafficSource::Migration);
        }
    });
    for (std::size_t bidx : release_now)
        releaseBtt(bidx);
}

namespace {

/** Write @p rec into slot @p idx of a serialized table image. */
inline void
writeRec(std::vector<std::uint8_t>& image, std::size_t idx,
         const SerializedEntry& rec)
{
    std::memcpy(image.data() + idx * sizeof(rec), &rec, sizeof(rec));
}

} // namespace

void
ThyNvmController::resetImage(std::vector<std::uint8_t>& image,
                             std::size_t capacity)
{
    image.assign(capacity * AddressLayout::kEntryBytes, 0);
    SerializedEntry rec{};
    rec.tag = kInvalidAddr;
    for (std::size_t i = 0; i < capacity; ++i)
        writeRec(image, i, rec);
}

void
ThyNvmController::releaseBtt(std::size_t idx)
{
    btt_.release(idx);
    btt_released_.push_back(idx);
}

void
ThyNvmController::releasePtt(std::size_t idx)
{
    ptt_.release(idx);
    ptt_released_.push_back(idx);
}

const std::vector<std::uint8_t>&
ThyNvmController::bttImage()
{
    SerializedEntry invalid{};
    invalid.tag = kInvalidAddr;
    // Released slots first: a slot freed and reallocated since the last
    // image update is in both lists, and the live record must win.
    for (std::size_t idx : btt_released_)
        writeRec(btt_image_, idx, invalid);
    btt_released_.clear();

    btt_.forEachLive([this, &invalid](std::size_t i, BttEntry& e) {
        SerializedEntry rec = invalid;
        if (!e.overlay && !e.free_at_commit && !e.migrating_home) {
            bool skip = false;
            if (e.absorbed) {
                // Skip iff the owning page commits in this checkpoint;
                // the page takes over the durable mapping then.
                const std::size_t pidx =
                    ptt_.lookup(pageAlign(e.block_paddr));
                panic_if(pidx == Ptt::npos,
                         "absorbed entry without live page");
                const PttEntry& pe = ptt_.at(pidx);
                skip = pe.dirty || pe.pending;
            }
            if (!skip) {
                rec.tag = e.block_paddr;
                rec.region = static_cast<std::uint8_t>(
                    e.pending ? e.pending_slot : e.committed);
            }
        }
        writeRec(btt_image_, i, rec);
    });
    return btt_image_;
}

const std::vector<std::uint8_t>&
ThyNvmController::pttImage()
{
    SerializedEntry invalid{};
    invalid.tag = kInvalidAddr;
    for (std::size_t idx : ptt_released_)
        writeRec(ptt_image_, idx, invalid);
    ptt_released_.clear();

    ptt_.forEachLive([this, &invalid](std::size_t i, PttEntry& e) {
        SerializedEntry rec = invalid;
        if (!e.demoting && (e.pending || e.ever_committed)) {
            rec.tag = e.page_paddr;
            rec.region = static_cast<std::uint8_t>(
                e.pending ? e.pending_slot : e.committed);
        }
        writeRec(ptt_image_, i, rec);
    });
    return ptt_image_;
}

void
ThyNvmController::stageMetadataWrite(Addr nvm_addr,
                                     const std::vector<std::uint8_t>& bytes)
{
    panic_if(nvm_addr % kBlockSize != 0, "unaligned metadata write");
    metadata_ckpt_bytes_ += static_cast<double>(bytes.size());
    for (std::size_t off = 0; off < bytes.size(); off += kBlockSize) {
        std::uint8_t block[kBlockSize] = {};
        const std::size_t chunk =
            std::min(kBlockSize, bytes.size() - off);
        std::memcpy(block, bytes.data() + off, chunk);
        crashPoint("ckpt.meta_block");
        sendNvmWrite(nvm_addr + off, block, TrafficSource::Checkpoint);
    }
}

void
ThyNvmController::persistBtt()
{
    crashPoint("ckpt.persist_btt");
    const Addr dst =
        layout_.backupSlot(ckptParity()) + layout_.bttAreaOffset();
    const std::vector<std::uint8_t>& img = bttImage();
    if (cfg_.debug_drop_btt_entry < btt_.capacity()) {
        // Fault injection (fuzzer self-test): persist the image as if
        // this entry's record never reached NVM. Recovery then resolves
        // the block to stale Home data — a silent consistency bug of
        // exactly the kind the oracle must catch.
        std::vector<std::uint8_t> broken = img;
        SerializedEntry invalid{};
        invalid.tag = kInvalidAddr;
        std::memcpy(broken.data() +
                        cfg_.debug_drop_btt_entry * sizeof(invalid),
                    &invalid, sizeof(invalid));
        stageMetadataWrite(dst, broken);
        return;
    }
    stageMetadataWrite(dst, img);
}

void
ThyNvmController::startPageWritebacks()
{
    wb_queue_.clear();
    wb_reads_left_.clear();
    wb_active_pages_ = 0;

    std::vector<std::size_t> dirty;
    ptt_.forEachLive([&dirty](std::size_t pidx, PttEntry& e) {
        if (e.dirty)
            dirty.push_back(pidx);
    });
    // Deterministic order regardless of hash-map iteration.
    std::sort(dirty.begin(), dirty.end());
    for (std::size_t pidx : dirty) {
        PttEntry& e = ptt_.at(pidx);
        e.pending = true;
        e.pending_slot = e.ever_committed ? otherRegion(e.committed)
                                          : CkptRegion::A;
        e.dirty = false;
        e.wb_in_flight = true;
        wb_queue_.push_back(pidx);
    }
    pumpPageWriteback();
}

void
ThyNvmController::pumpPageWriteback()
{
    while (wb_active_pages_ < cfg_.page_wb_parallelism &&
           !wb_queue_.empty()) {
        const std::size_t pidx = wb_queue_.front();
        wb_queue_.pop_front();
        ++wb_active_pages_;
        ++pages_written_back_;
        PttEntry& e = ptt_.at(pidx);
        wb_reads_left_[pidx] = kBlocksPerPage;
        const Addr page_paddr = e.page_paddr;
        for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
            const Addr src = layout_.dramPageSlot(pidx) + blk * kBlockSize;
            sendTimedRead(true, src, TrafficSource::Checkpoint,
                          [this, pidx, page_paddr, blk] {
                              pageBlockReadDone(pidx, page_paddr, blk);
                          });
        }
    }

    if (wb_active_pages_ == 0 && wb_queue_.empty()) {
        stageDemotionCopies();
        persistPttAndCpu();
    }
}

void
ThyNvmController::pageBlockReadDone(std::size_t pidx, Addr page_paddr,
                                    std::size_t blk)
{
    PttEntry& e = ptt_.at(pidx);
    panic_if(e.page_paddr != page_paddr, "page writeback raced a demotion");
    auto it = wb_reads_left_.find(pidx);
    panic_if(it == wb_reads_left_.end(), "stray page writeback read");
    // Capture the (frozen) page data and stage the NVM checkpoint write.
    const Addr src = layout_.dramPageSlot(pidx) + blk * kBlockSize;
    std::uint8_t data[kBlockSize];
    dram_port_.functionalRead(src, data, kBlockSize);
    const Addr dst =
        layout_.pageSlot(e.pending_slot, pidx, page_paddr) +
        blk * kBlockSize;
    sendNvmWrite(dst, data, TrafficSource::Checkpoint);

    if (--it->second == 0) {
        wb_reads_left_.erase(it);
        finishPageWriteback(pidx);
    }
}

void
ThyNvmController::finishPageWriteback(std::size_t pidx)
{
    crashPoint("ckpt.page_written");
    PttEntry& e = ptt_.at(pidx);
    e.wb_in_flight = false;
    mergeOverlays(pidx, e.page_paddr);
    --wb_active_pages_;
    pumpPageWriteback();
}

void
ThyNvmController::mergeOverlays(std::size_t pidx, Addr page_paddr)
{
    PttEntry& pe = ptt_.at(pidx);
    for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
        const Addr block_paddr = page_paddr + blk * kBlockSize;

        // Overlays staged in the block buffer.
        const std::size_t bidx = btt_.lookup(block_paddr);
        if (bidx != Btt::npos) {
            BttEntry& be = btt_.at(bidx);
            if (be.overlay && be.wactive == WactiveLoc::DramBuf) {
                const Addr src = layout_.dramBlockSlot(bidx);
                std::uint8_t data[kBlockSize];
                dram_port_.functionalRead(src, data, kBlockSize);
                sendTimedRead(true, src, TrafficSource::Migration);
                sendDramWrite(layout_.dramPageSlot(pidx) +
                                  blk * kBlockSize,
                              data, TrafficSource::Migration);
                pe.dirty = true;
                ++overlay_merges_;
                be.wactive = WactiveLoc::None;
                be.overlay = false;
                if (!be.absorbed)
                    releaseBtt(bidx);
            }
        }

        // Overlays that spilled to the overflow buffer.
        auto ov = overflow_map_.find(block_paddr);
        if (ov != overflow_map_.end()) {
            const Addr src = layout_.dramOverflowSlot(ov->second);
            std::uint8_t data[kBlockSize];
            dram_port_.functionalRead(src, data, kBlockSize);
            sendTimedRead(true, src, TrafficSource::Migration);
            sendDramWrite(layout_.dramPageSlot(pidx) + blk * kBlockSize,
                          data, TrafficSource::Migration);
            pe.dirty = true;
            ++overlay_merges_;
            overflow_slot_addr_[ov->second] = kInvalidAddr;
            overflow_free_.push_back(ov->second);
            overflow_map_.erase(ov);
        }
    }
}

void
ThyNvmController::stageDemotionCopies()
{
    ptt_.forEachLive([this](std::size_t pidx, PttEntry& e) {
        if (!e.demoting)
            return;
        if (e.pending) {
            // Dirtied in its final epoch: the regular page writeback
            // delivers the image to Home; no extra copy needed.
            panic_if(e.pending_slot != CkptRegion::B,
                     "demoting page checkpointing away from Home");
            return;
        }
        if (e.committed != CkptRegion::A)
            return;
        // Copy the committed image from Region A back to Home so the
        // page can leave the PTT at commit.
        for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
            const Addr src =
                layout_.ckptAPageSlot(pidx) + blk * kBlockSize;
            std::uint8_t data[kBlockSize];
            nvm_port_.functionalRead(src, data, kBlockSize);
            sendTimedRead(false, src, TrafficSource::Migration);
            sendNvmWrite(layout_.homeAddr(e.page_paddr) + blk * kBlockSize,
                         data, TrafficSource::Migration);
        }
    });
}

void
ThyNvmController::persistPttAndCpu()
{
    crashPoint("ckpt.persist_ptt");
    const Addr slot = layout_.backupSlot(ckptParity());
    stageMetadataWrite(slot + layout_.pttAreaOffset(), pttImage());

    // CPU architectural state, unpadded: the metadata byte count
    // charges exactly the blob.
    stageMetadataWrite(commit_.cpuArea(ckptParity()),
                       CommitRecord::encodeCpuState(cpu_state_));

    // Step 5: wait for every NVM write staged so far to become durable,
    // then write the atomic commit header (paper Figure 6b). On a
    // multi-channel machine the image-staged edge is a cross-channel
    // barrier (commit gate phase 0).
    nvm_port_.notifyWhenWritesDurable(
        [this] { commitGate(0, [this] { writeBackupHeader(); }); });
}

void
ThyNvmController::writeBackupHeader()
{
    crashPoint("ckpt.pre_commit_header");
    // epoch_num_ - 1: the epoch this checkpoint captured.
    commit_.writeHeader(ckptParity(), epoch_num_ - 1, cpu_state_.size(),
                        overflow_logged_);
    // Header-durable edge: cross-channel barrier (commit gate phase 1)
    // before the destructive flip to the new recovery image.
    nvm_port_.notifyWhenWritesDurable(
        [this] { commitGate(1, [this] { commitCheckpoint(); }); });
}

void
ThyNvmController::commitCheckpoint()
{
    // Flip block versions.
    std::vector<std::size_t> btt_release;
    btt_.forEachLive([&btt_release](std::size_t bidx, BttEntry& e) {
        if (e.pending) {
            e.committed = e.pending_slot;
            e.pending = false;
        }
        if (e.migrating_home) {
            // The durable metadata now maps this block to Home.
            e.committed = CkptRegion::B;
            e.migrating_home = false;
        }
        if (e.free_at_commit)
            btt_release.push_back(bidx);
    });
    for (std::size_t bidx : btt_release)
        releaseBtt(bidx);

    // Flip page versions; finalize demotions and absorbed entries.
    std::vector<std::size_t> ptt_release;
    ptt_.forEachLive([this, &ptt_release](std::size_t pidx, PttEntry& e) {
        if (e.pending) {
            e.committed = e.pending_slot;
            e.pending = false;
            e.ever_committed = true;
            for (std::size_t bidx : e.absorbed_btt) {
                BttEntry& be = btt_.at(bidx);
                panic_if(!be.absorbed, "absorbed list corrupt");
                // Any diverted store must have been merged back when
                // the page's writeback completed, before this commit.
                panic_if(be.overlay, "unmerged overlay at commit");
                releaseBtt(bidx);
            }
            e.absorbed_btt.clear();
        }
        if (e.demoting)
            ptt_release.push_back(pidx);
    });
    for (std::size_t pidx : ptt_release) {
        PttEntry& e = ptt_.at(pidx);
        const Addr page_paddr = e.page_paddr;
        // Convert any overlay entries of this page into plain
        // block-remapping entries: the block's durable home is now the
        // Home region, and the overlay data becomes the working copy.
        for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
            const std::size_t bidx =
                btt_.lookup(page_paddr + blk * kBlockSize);
            if (bidx == Btt::npos)
                continue;
            BttEntry& be = btt_.at(bidx);
            if (!be.overlay)
                continue;
            be.overlay = false;
            be.committed = CkptRegion::B;
            panic_if(be.wactive != WactiveLoc::DramBuf,
                     "overlay without buffered data");
        }
        releasePtt(pidx);
    }

    std::exchange(ckpt_done_, nullptr)();
}

// ---------------------------------------------------------------------
// Crash and recovery.
// ---------------------------------------------------------------------

void
ThyNvmController::crash()
{
    // All volatile state is lost: DRAM contents, staged requests,
    // translation tables, checkpoint-engine state. The volatile DRAM
    // device zeroes its contents; the NVM device rolls back writes that
    // were not yet serviced.
    dram_port_.crash();
    nvm_port_.crash();
    dram_dev_.crash();
    nvm_dev_.crash();

    btt_.clear();
    ptt_.clear();
    resetImage(btt_image_, btt_.capacity());
    resetImage(ptt_image_, ptt_.capacity());
    btt_released_.clear();
    ptt_released_.clear();
    overflow_map_.clear();
    overflow_free_.clear();
    for (std::size_t i = cfg_.overflow_entries; i-- > 0;)
        overflow_free_.push_back(i);
    overflow_slot_addr_.assign(cfg_.overflow_entries, kInvalidAddr);
    overflow_dirty_[0].assign(cfg_.overflow_entries, 0);
    overflow_dirty_[1].assign(cfg_.overflow_entries, 0);
    overflow_in_last_log_.assign(cfg_.overflow_entries, 0);
    overflow_logged_ = 0;
    page_store_agg_.clear();
    wb_queue_.clear();
    wb_reads_left_.clear();
    wb_active_pages_ = 0;
    ckpt_done_ = nullptr;
    resetEpochState();
}

void
ThyNvmController::rebuild(
    const std::optional<CommitRecord::Committed>& committed,
    RecoveryJoin& join)
{
    // 1. The epoch loop found the latest committed backup slot (after
    // rolling back one that committed past the recovery target) and
    // reloaded the CPU state. None: pristine state, all data at home.
    if (!committed)
        return;
    const unsigned best_slot = committed->parity;

    const Addr slot = layout_.backupSlot(best_slot);
    sendTimedRead(false, slot, TrafficSource::Recovery, join.track());

    // 2. Reload the BTT.
    const Addr btt_off = layout_.bttAreaOffset();
    std::vector<std::uint8_t> btt_img(btt_.capacity() *
                                      AddressLayout::kEntryBytes);
    nvm_dev_.store().read(slot + btt_off, btt_img.data(), btt_img.size());
    for (std::size_t i = 0; i < btt_.capacity(); ++i) {
        SerializedEntry rec{};
        std::memcpy(&rec, btt_img.data() + i * sizeof(rec), sizeof(rec));
        if (rec.tag == kInvalidAddr)
            continue;
        const std::size_t idx = btt_.allocateAt(i, rec.tag);
        panic_if(idx != i, "BTT recovery index mismatch");
        btt_.at(i).committed = static_cast<CkptRegion>(rec.region);
    }
    for (Addr a = 0; a < btt_img.size(); a += kBlockSize) {
        sendTimedRead(false, slot + btt_off + a, TrafficSource::Recovery,
                      join.track());
    }

    // 3. Reload the PTT and restore page images into DRAM.
    const Addr ptt_off = layout_.pttAreaOffset();
    std::vector<std::uint8_t> ptt_img(ptt_.capacity() *
                                      AddressLayout::kEntryBytes);
    nvm_dev_.store().read(slot + ptt_off, ptt_img.data(), ptt_img.size());
    for (std::size_t i = 0; i < ptt_.capacity(); ++i) {
        SerializedEntry rec{};
        std::memcpy(&rec, ptt_img.data() + i * sizeof(rec), sizeof(rec));
        if (rec.tag == kInvalidAddr)
            continue;
        const std::size_t idx = ptt_.allocateAt(i, rec.tag);
        panic_if(idx != i, "PTT recovery index mismatch");
        PttEntry& e = ptt_.at(i);
        e.committed = static_cast<CkptRegion>(rec.region);
        e.ever_committed = true;
        // Copy the committed page image into the DRAM working slot.
        for (std::size_t blk = 0; blk < kBlocksPerPage; ++blk) {
            const Addr src = layout_.pageSlot(e.committed, i, rec.tag) +
                             blk * kBlockSize;
            std::uint8_t data[kBlockSize];
            nvm_dev_.store().read(src, data, kBlockSize);
            sendTimedRead(false, src, TrafficSource::Recovery,
                          join.track());
            sendDramWrite(layout_.dramPageSlot(i) + blk * kBlockSize,
                          data, TrafficSource::Recovery, join.track());
        }
    }
    for (Addr a = 0; a < ptt_img.size(); a += kBlockSize) {
        sendTimedRead(false, slot + ptt_off + a, TrafficSource::Recovery,
                      join.track());
    }

    // 4. Timed reads of the CPU architectural state (restored in 1).
    const Addr cpu_area = commit_.cpuArea(best_slot);
    for (Addr a = 0; a < roundUp(8 + recoveredCpuState().size(),
                                 kBlockSize);
         a += kBlockSize) {
        sendTimedRead(false, cpu_area + a, TrafficSource::Recovery,
                      join.track());
    }

    // 5. Rebuild the overflow buffer from the committed live-slot
    // bitmap and log. Live slots keep their indices; the freshly
    // chosen backup area holds their current data, so only the other
    // area needs rewriting on the next log.
    const std::uint64_t n_overflow = committed->hdr.aux;
    panic_if(n_overflow > cfg_.overflow_entries,
             "corrupt overflow log length");
    std::vector<std::uint8_t> bitmap(
        roundUp((cfg_.overflow_entries + 7) / 8, kBlockSize), 0);
    nvm_dev_.store().read(slot + layout_.overflowBitmapOffset(),
                          bitmap.data(), bitmap.size());
    for (Addr a = 0; a < bitmap.size(); a += kBlockSize) {
        sendTimedRead(false, slot + layout_.overflowBitmapOffset() + a,
                      TrafficSource::Recovery, join.track());
    }
    overflow_free_.clear();
    std::uint64_t live = 0;
    for (std::size_t ovslot = cfg_.overflow_entries; ovslot-- > 0;) {
        if ((bitmap[ovslot / 8] & (1u << (ovslot % 8))) == 0) {
            overflow_free_.push_back(ovslot);
            continue;
        }
        ++live;
        Addr block_paddr = kInvalidAddr;
        nvm_dev_.store().read(slot + layout_.overflowMetaOffset() +
                                  ovslot * 8,
                              &block_paddr, 8);
        panic_if(block_paddr == kInvalidAddr,
                 "live overflow slot without an address");
        std::uint8_t data[kBlockSize];
        const Addr src = slot + layout_.overflowDataOffset() +
                         ovslot * kBlockSize;
        nvm_dev_.store().read(src, data, kBlockSize);
        sendTimedRead(false, src, TrafficSource::Recovery, join.track());

        overflow_map_.emplace(block_paddr, ovslot);
        overflow_slot_addr_[ovslot] = block_paddr;
        overflow_in_last_log_[ovslot] = 1;
        overflow_dirty_[best_slot][ovslot] = 0;
        overflow_dirty_[best_slot ^ 1u][ovslot] = 1;
        sendDramWrite(layout_.dramOverflowSlot(ovslot), data,
                      TrafficSource::Recovery, join.track());
    }
    panic_if(live != n_overflow, "overflow bitmap/count mismatch");
}

} // namespace thynvm
