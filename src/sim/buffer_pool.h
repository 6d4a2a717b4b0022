// BufferPool: a sized, sharded DRAM page-cache tier fronting one
// BlockDevice (ROADMAP item 2). The file-system back end routes its
// *payload* traffic through it at extent-run granularity while MFT and
// journal traffic stay on the device (the OS page cache does not
// double-cache its own metadata writes here); the database back end
// routes every PageFile access through it — data pages, pointer pages,
// and metadata checkpoints all live in the one page space, exactly as
// a database buffer pool caches them.
//
// Semantics:
//   * capacity_bytes == 0 (the default) disables the pool: every entry
//     point is a strict pass-through to the equivalent device call, so
//     the paper's cold-cache figures are reproduced bit-identically.
//   * Frames are variable-length (one per cached extent run), kept
//     non-overlapping, and indexed by start offset; a read that is
//     fully covered by resident frames is a *hit* and never touches
//     the device — it charges only the host-side cache CPU
//     (per-request cost + bytes / copy_bandwidth) via ChargeCpu, so
//     hits still ride op scopes and show up in latency percentiles.
//   * Misses fill through one vectored ReadV per call, at extent-run
//     granularity (optionally extended to the caller's fill range —
//     read-ahead), into frames recycled from per-size free lists (the
//     nanos-TFS buffer-recycling pattern: no per-fill allocation once
//     the pool is warm). A fill that would replace a frame an earlier
//     slice of the same call still reads first completes the pending
//     batch, so the call then issues one ReadV per such batch.
//   * Writes are write-back by default: payload lands in dirty frames
//     (host copy cost only) and reaches the platter lazily — when the
//     dirty ratio trips, on FlushRange/FlushAll (fs fsync), at
//     eviction, or at DrainIo — batched in offset order through one
//     vectored SubmitV, so flushes ride the PR 6 IoScheduler.
//     write_back=false charges every write through immediately
//     (install + device WriteV).
//   * While an armed sim::FaultInjector is attached to the device the
//     pool *forces write-through* (counted in forced_write_through),
//     so the PR 7 crash-consistency oracle stays honest: an acked op's
//     bytes are on the device before its commit record, never parked
//     in DRAM. Reset() drops everything (mount-time recovery).
//   * Eviction is CLOCK, sharded: frames hash to `shards` independent
//     eviction domains, each with its own capacity slice and clock
//     hand. Pinned frames are never evicted — when a domain is entirely
//     pinned the pool grows past its slice and counts the refusal.
//   * Pin/Unpin operate on the frames resident in a byte range; the
//     handle layer pins an object's cached frames for the open window.
//
// Frame storage and eviction: frames live in a slab with stable slot
// numbers (freed slots are reused) and an ordered offset -> slot index;
// each frame keeps its own index position. Each domain's CLOCK ring
// holds (slot, install seq) entries, so the sweep reads a frame's state
// straight from the slab; entries whose seq no longer matches the slot
// are stale and removed lazily as the hand passes them. Request paths
// search the index once per slice (or once per append run) and walk
// neighbouring frames from there: a hit over N frames costs one
// descent, not 2N (BufferPoolStats::index_searches counts them).
//
// Data is retained in frames only when the device itself retains data
// (DataMode::kRetain); on metadata-only devices frames are bookkeeping
// records — hits and misses charge identically, reads yield zeros, and
// no payload memory is spent, so paper-scale benches can model caches
// larger than host RAM.
//
// Threading: confined to the owning device's thread, like the device.

#ifndef LOREPO_SIM_BUFFER_POOL_H_
#define LOREPO_SIM_BUFFER_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <span>
#include <vector>

#include "sim/block_device.h"
#include "util/status.h"

namespace lor {
namespace sim {

/// Tuning of one pool. The defaults (capacity 0) disable it.
struct BufferPoolOptions {
  /// Total frame bytes the pool may hold. 0 = disabled (pass-through).
  uint64_t capacity_bytes = 0;
  /// Independent eviction domains (capacity slice + CLOCK hand each).
  uint32_t shards = 4;
  /// Write-back with lazy flush; false = write-through.
  bool write_back = true;
  /// Flush all dirty frames when dirty bytes exceed this fraction of
  /// capacity (the lazy-writer threshold).
  double dirty_ratio = 0.25;
  /// Extend miss fills to the caller's fill range (extent-run
  /// read-ahead). Off = fill exactly what was requested.
  bool read_ahead = true;
  /// Host CPU per clean-hit request (lookup + bookkeeping).
  double hit_cpu_s = 2e-6;
  /// Host memcpy bandwidth for hit copies and cache installs.
  double copy_bandwidth = 2.0e9;
};

/// Cumulative pool counters.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t fills = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;        ///< Dirty frames written back.
  uint64_t invalidations = 0;     ///< Frames dropped by Invalidate().
  uint64_t hit_bytes = 0;
  uint64_t miss_bytes = 0;
  uint64_t fill_bytes = 0;
  uint64_t writeback_bytes = 0;
  uint64_t frame_allocs = 0;      ///< Fresh frame buffers allocated.
  uint64_t frame_recycles = 0;    ///< Buffers reused from free lists.
  uint64_t pinned_hits = 0;       ///< Hits whose frames were pinned.
  uint64_t eviction_refusals = 0; ///< Domain fully pinned; pool grew.
  uint64_t write_installs = 0;    ///< Writes absorbed into frames.
  uint64_t forced_write_through = 0;  ///< Armed-injector write-throughs.
  /// Ordered-index descents (host work: one per hit slice, per install
  /// or per append run, never one per frame walked).
  uint64_t index_searches = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// One physically contiguous request routed through the pool. The
/// requested range is [offset, offset+length); on a miss the pool fills
/// [fill_offset, fill_offset+fill_length) (must contain the request;
/// fill_length == 0 means fill exactly the request). `src`/`dst` follow
/// the IoSlice rules (null = timing-only / metadata-only).
struct CacheSlice {
  uint64_t offset = 0;
  uint64_t length = 0;
  const uint8_t* src = nullptr;  ///< WriteThrough payload source.
  uint8_t* dst = nullptr;        ///< ReadThrough payload destination.
  uint64_t fill_offset = 0;
  uint64_t fill_length = 0;
};

/// Sharded page cache over one BlockDevice.
class BufferPool {
 public:
  BufferPool(BlockDevice* device, BufferPoolOptions options = {});

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// False when capacity is 0: callers take their historical direct
  /// device path, making the disabled pool a true no-op.
  bool enabled() const { return options_.capacity_bytes > 0; }

  /// Reads every slice through the cache. Slices must be disjoint and
  /// within device capacity. `device_bytes` (optional) receives the
  /// bytes actually read from the device (0 on an all-hit call).
  Status ReadThrough(std::span<const CacheSlice> slices,
                     uint64_t* device_bytes = nullptr);

  /// Writes every slice through the cache: payload is installed into
  /// frames and either marked dirty (write-back) or written through in
  /// one vectored WriteV (write-through / armed injector).
  /// `device_bytes` receives the bytes written through immediately
  /// (excluding any lazy-writer flush this call happens to trigger).
  Status WriteThrough(std::span<const CacheSlice> slices,
                      uint64_t* device_bytes = nullptr);

  /// Run-length form of `count` back-to-back stream-windowed appends of
  /// `len` bytes at offset, offset+len, ...: charges exactly what
  /// `count` repetitions of
  ///   BeginStreamWindow(); WriteThrough({one slice});
  ///   EndStreamWindow(len, bandwidth_cap_bytes_per_s);
  /// would — every install, eviction writeback, CPU charge and
  /// lazy-writer flush lands on the same request — while each frame
  /// after the first is found by walking from its predecessor. `data`
  /// is empty (timing only) or exactly count*len bytes. Requires an
  /// enabled pool (callers without one use BlockDevice::WriteStreamRun);
  /// a disabled pool refuses the call.
  Status WriteStreamRun(uint64_t offset, uint64_t len, uint64_t count,
                        std::span<const uint8_t> data,
                        double bandwidth_cap_bytes_per_s);

  /// Cache-coherent twin of BlockDevice::ReadView: chunks covered by a
  /// resident frame come from the frame (dirty bytes included), gaps
  /// fall through to the device arena. Charges nothing.
  template <typename Fn>
  void View(uint64_t offset, uint64_t len, Fn&& fn) const {
    while (len > 0) {
      uint64_t chunk = 0;
      const uint8_t* p = ViewChunk(offset, len, &chunk);
      if (p != nullptr) {
        fn(std::span<const uint8_t>(p, chunk));
        offset += chunk;
        len -= chunk;
        continue;
      }
      // Uncached gap (or metadata-only frame): device view for exactly
      // the gap, then resume against the cache.
      device_->ReadView(offset, chunk, fn);
      offset += chunk;
      len -= chunk;
    }
  }

  /// Cache-coherent twin of BlockDevice::WriteView: chunks covered by a
  /// resident data-carrying frame are written in the frame (marked
  /// dirty under write-back, copied through to the arena under
  /// write-through); gaps fall through to the device. Charges nothing;
  /// pair with WriteThrough for the timing.
  template <typename Fn>
  void WriteViewThrough(uint64_t offset, uint64_t len, Fn&& fn) {
    const bool through = !WriteBackActive();
    while (len > 0) {
      uint64_t chunk = 0;
      uint8_t* p = MutableViewChunk(offset, len, &chunk, through);
      if (p != nullptr) {
        fn(std::span<uint8_t>(p, chunk));
        if (through) CopyFrameToDevice(offset, p, chunk);
      } else {
        device_->WriteView(offset, chunk, fn);
      }
      offset += chunk;
      len -= chunk;
    }
  }

  /// Drops every frame overlapping [offset, offset+len), discarding
  /// dirty content (the owner is gone — delete/replace/defrag-move).
  void Invalidate(uint64_t offset, uint64_t len);

  /// Writes back dirty frames overlapping [offset, offset+len) in one
  /// offset-ordered vectored SubmitV (fs fsync durability).
  Status FlushRange(uint64_t offset, uint64_t len);

  /// Writes back every dirty frame (lazy-writer / DrainIo / pre-arm).
  Status FlushAll();

  /// Pins every frame resident in the range (eviction refuses pinned
  /// frames); returns how many frames were pinned. Frames installed
  /// *after* the pin are not covered — pin windows protect what the
  /// opener found cached, the hot-loop reads pin transiently inside
  /// ReadThrough.
  uint64_t PinRange(uint64_t offset, uint64_t len);

  /// Unpins resident frames in the range (frames dropped or installed
  /// since the pin are skipped; pin counts never go below zero).
  void UnpinRange(uint64_t offset, uint64_t len);

  /// Drops all frames (dirty included) and recycling lists — the
  /// post-crash mount path. Cumulative stats survive.
  void Reset();

  /// Structural invariants: frames are non-overlapping and inside the
  /// device; cached/dirty byte totals and per-domain used bytes match
  /// the frames; every resident frame has exactly one live ring entry,
  /// in its own domain; every slab slot is resident or free, never
  /// both. OK on a disabled pool.
  Status CheckConsistency() const;

  const BufferPoolStats& stats() const { return stats_; }
  const BufferPoolOptions& options() const { return options_; }
  uint64_t cached_bytes() const { return cached_bytes_; }
  uint64_t dirty_bytes() const { return dirty_bytes_; }
  uint64_t frame_count() const { return index_.size(); }
  BlockDevice* device() { return device_; }

 private:
  /// Ordered index: frame start offset -> slab slot.
  using Index = std::map<uint64_t, uint32_t>;

  struct Frame {
    uint64_t offset = 0;
    uint64_t length = 0;
    /// Payload; empty on metadata-only devices (bookkeeping frame).
    std::vector<uint8_t> data;
    uint32_t pin = 0;
    uint32_t shard = 0;
    /// Install sequence number; 0 marks a free slab slot.
    uint64_t seq = 0;
    /// This frame's index entry (valid while resident).
    Index::iterator pos;
    bool dirty = false;
    bool referenced = false;  ///< CLOCK second-chance bit.
    /// A copy job of the pending ReadThrough batch reads this frame.
    bool pending = false;
    uint64_t end() const { return offset + length; }
  };

  /// One deferred payload move of a ReadThrough call (hit copies and
  /// miss copy-outs both run after the batched fill ReadV, so a frame
  /// installed by an earlier slice is never read before it is filled).
  /// Holds a slot: a later slice's install may drop and reuse frames,
  /// which ReadThrough rules out for slots a pending job holds.
  struct CopyJob {
    uint32_t slot = 0;
    uint64_t offset_in_frame = 0;
    uint8_t* dst = nullptr;
    uint64_t length = 0;
  };

  /// Per-domain eviction state. The clock ring holds (slot, install
  /// seq) pairs; entries whose seq no longer matches the slot's frame
  /// are stale and removed lazily as the hand passes them.
  struct Shard {
    uint64_t used_bytes = 0;
    std::vector<std::pair<uint32_t, uint64_t>> clock_ring;
    size_t hand = 0;
  };

  uint32_t ShardOf(uint64_t offset) const {
    return static_cast<uint32_t>((offset >> 20) % options_.shards);
  }
  uint64_t ShardCapacity() const {
    return options_.capacity_bytes / options_.shards;
  }
  bool RetainData() const {
    return device_->data_mode() == DataMode::kRetain;
  }
  /// True when writes may park in dirty frames right now (write-back
  /// configured and no armed fault injector on the device).
  bool WriteBackActive() const;

  /// The one index descent: the first frame ending after `offset` —
  /// the frame containing it, else the next frame up (end() if none).
  /// Every frame intersecting [offset, offset+len) follows it in index
  /// order, and with no intersection it is the insertion position for
  /// a frame starting at `offset`. The mutable form counts the descent
  /// in index_searches; the const form serves the charge-free views.
  Index::iterator Seek(uint64_t offset);
  Index::const_iterator Seek(uint64_t offset) const;

  bool Overlaps(Index::const_iterator it, uint64_t end) const {
    return it != index_.end() && it->first < end;
  }
  Frame& FrameOf(Index::const_iterator it) { return slab_[it->second]; }
  const Frame& FrameOf(Index::const_iterator it) const {
    return slab_[it->second];
  }

  /// Installs a frame for [offset, offset+len) given `it` = Seek(offset):
  /// flushes dirty overlaps, drops all overlaps (skipped when nothing
  /// overlaps), evicts for space, takes a recycled buffer. `*slot`
  /// receives the new frame's slot.
  Status InstallFrame(Index::iterator it, uint64_t offset, uint64_t len,
                      uint32_t* slot);

  /// The single-slice write body shared by WriteThrough and
  /// WriteStreamRun (`it` = Seek(s.offset)): updates the covering frame
  /// in place or installs one, counts the install, and either queues
  /// the slice for write-through or marks the frame dirty and charges
  /// the copy. `*slot` receives the written frame.
  Status WriteSlice(Index::iterator it, const CacheSlice& s, bool through,
                    uint32_t* slot);

  /// True when a pending ReadThrough copy or fill uses a frame that
  /// intersects [it's frame, end) (`it` = Seek(range start)).
  bool PendingOn(Index::const_iterator it, uint64_t end) const;

  /// Completes the pending ReadThrough batch: the one vectored fill
  /// read (skipped when `status` is already an error), the deferred
  /// copies and transient unpins; a failed batch drops the frames it
  /// installed. Returns the batch status and clears the batch.
  Status FinishReads(Status status);

  /// Lazy-writer threshold check after a write-back call.
  Status MaybeLazyFlush();

  /// Evicts until `shard` can absorb `incoming` more bytes; gives up
  /// (and lets the domain overflow) when only pinned frames remain.
  Status EvictFor(uint32_t shard, uint64_t incoming);
  /// Evicts one unpinned frame from `shard`; `*evicted` reports whether
  /// one existed.
  Status EvictOne(uint32_t shard, bool* evicted);

  /// Removes a resident frame from the index + eviction state, recycling
  /// its buffer and freeing its slot, and returns the index iterator
  /// past it. Does not write anything back — callers flush or discard
  /// dirty content first.
  Index::iterator DropFrame(uint32_t slot);

  /// Writes one dirty frame back (scalar submit) and marks it clean.
  Status WriteBackFrame(Frame* frame);

  /// Flushes the dirty frames intersecting [it's frame, end) — the
  /// shared core of FlushRange/FlushAll/InstallFrame — as one SubmitV
  /// batch (`it` = Seek(range start)).
  Status FlushOverlapping(Index::const_iterator it, uint64_t end);

  /// Buffer recycling (per-size free lists, power-of-two classes).
  std::vector<uint8_t> TakeBuffer(uint64_t len);
  void RecycleBuffer(std::vector<uint8_t>&& buffer);

  /// View helpers: pointer into the frame covering `offset` (null when
  /// uncached or metadata-only; *chunk then spans the gap).
  const uint8_t* ViewChunk(uint64_t offset, uint64_t len,
                           uint64_t* chunk) const;
  uint8_t* MutableViewChunk(uint64_t offset, uint64_t len, uint64_t* chunk,
                            bool through);
  /// Copies frame bytes through to the device arena (write-through
  /// views).
  void CopyFrameToDevice(uint64_t offset, const uint8_t* src, uint64_t len);

  BlockDevice* device_;
  BufferPoolOptions options_;
  BufferPoolStats stats_;
  /// Frame slab (stable slot numbers and addresses, no reallocation as
  /// it grows; free slots have seq 0 and are reused LIFO) and the
  /// non-overlapping frames by start offset.
  std::deque<Frame> slab_;
  std::vector<uint32_t> free_slots_;
  Index index_;
  std::vector<Shard> shards_;
  uint64_t cached_bytes_ = 0;
  uint64_t dirty_bytes_ = 0;
  uint64_t install_seq_ = 0;
  /// Recycled buffers by floor-log2 capacity class.
  std::vector<std::vector<std::vector<uint8_t>>> free_lists_;
  uint64_t free_list_bytes_ = 0;
  /// Scratch for the vectored fill/write/flush submissions and deferred
  /// copies — reused across calls so the hit path never allocates. The
  /// ReadThrough batch of an enabled pool (fill_slices_, copy_jobs_,
  /// fill_frames_) is empty between calls; write-through slices never
  /// join it.
  std::vector<IoSlice> fill_slices_;
  std::vector<IoSlice> write_slices_;
  std::vector<IoRequest> flush_requests_;
  std::vector<uint32_t> flush_slots_;
  std::vector<CopyJob> copy_jobs_;
  /// (slot, seq) of frames installed by the pending ReadThrough batch;
  /// a failed fill drops exactly these (never parks them as valid).
  std::vector<std::pair<uint32_t, uint64_t>> fill_frames_;
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_BUFFER_POOL_H_
