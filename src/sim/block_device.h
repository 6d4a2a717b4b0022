// BlockDevice: the simulated volume both storage back ends sit on.
//
// The device is byte-addressed. Every request advances the shared
// SimClock by the modelled seek, rotational, and transfer time;
// back-to-back requests that continue at the previous request's end are
// recognized as sequential and skip the positioning cost.
//
// Payload bytes are not retained by default (a 400 GB experiment would
// not fit in memory); layout and timing do not need them. Tests that
// verify end-to-end data integrity construct the device with
// `DataMode::kRetain`, which keeps the written bytes in a sparse arena.
//
// Data plane: retained bytes live in a two-level direct page table over
// contiguous slab extents — a directory of slab groups, each group
// holding pointers to lazily allocated, zero-filled 1 MiB slabs. A byte
// address resolves with two shifts and two indexed loads (no hashing),
// and a physically contiguous request touches at most
// len/kSlabBytes + 1 slabs, each moved with one memcpy. The previous
// hash-map-of-pages plane survives as a reference model for tests and
// the micro_device bench (sim/reference_data_plane.h).
//
// Vectored I/O: `ReadV`/`WriteV` submit a batch of physically
// contiguous runs in one call. Charging is *identical by construction*
// to issuing one scalar Read/Write per run in the same order — each run
// pays its own per-request overhead and transfer, and positioning is
// charged exactly once per run that does not sequentially continue the
// previous one — so callers can convert loops of device calls into one
// submission without perturbing any simulated figure. Batches bump the
// `vectored_requests` / `coalesced_runs` counters, which the scalar
// path never touches.
//
// Submission/completion: an IoScheduler can be attached with
// `AttachScheduler`. While the scheduler is engaged (queue depth > 1)
// and an op scope is open, every timing charge — positioning, flush,
// CPU, stream-penalty windows — is queued on the op's request chain and
// replayed in scheduler-chosen service order instead of advancing the
// clock inline; payload bytes still move at submission in host program
// order, and the reads/writes/bytes counters are stamped at submission
// (seeks, sequential hits, and the time decomposition are stamped at
// service, where they are actually decided). With no scheduler attached
// or the scheduler disengaged, every entry point takes the historical
// synchronous path unchanged. `Submit`/`SubmitV` are the explicit
// submit/complete forms: they accept a completion callback that fires
// with the simulated completion time (immediately, under the sync
// path).
//
// Zero-copy views: `ReadView`/`WriteView` iterate the arena's
// contiguous chunks for a byte range so callers can move payload
// directly between application buffers and the retained store without
// intermediate staging vectors. Views move bytes only — they charge
// nothing; pair them with a timing-only request for the device time.
//
// Threading: a BlockDevice (and the SimClock it owns) is confined to
// one thread at a time — all state is instance members, there are no
// globals, so per-shard devices on per-shard threads need no locking.
// Cross-shard aggregation works on IoStats snapshots (sim::Sum) after
// the driving threads have been joined or barrier-synchronized.
//
// Shared-spindle views: `CreateOwnerView` produces a device whose
// address space [0, region) aliases a disjoint, slab-aligned region of
// a *hub* device — several owners' volumes on one spindle, one head,
// one clock, one arena. A view keeps its own IoStats (per-owner
// attribution) but delegates head state, seek/transfer arithmetic
// (against the hub's full-capacity seek curve and physical zone
// layout), and retained bytes to the hub. Seeks charged because the
// previously serviced request belonged to a *different* owner are
// additionally counted as interference. Views are serviced one at a
// time under the SpindlePlane's lock (sim/spindle_plane.h); the hub's
// slab groups are pre-allocated so concurrent payload movement into
// disjoint owner regions never mutates shared arena structure.

#ifndef LOREPO_SIM_BLOCK_DEVICE_H_
#define LOREPO_SIM_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/disk_model.h"
#include "sim/io_scheduler.h"
#include "sim/io_stats.h"
#include "sim/sim_clock.h"
#include "util/config.h"  // C++20 floor guard (std::span above)
#include "util/status.h"

namespace lor {
namespace sim {

class BufferPool;
class FaultInjector;
class MediaFaultModel;

/// Opaque deep copy of a device's retained arena (see
/// BlockDevice::SnapshotArena). Movable, not copyable; destroying it
/// frees the copied slabs.
class ArenaSnapshot {
 public:
  ArenaSnapshot();
  ~ArenaSnapshot();
  ArenaSnapshot(ArenaSnapshot&&) noexcept;
  ArenaSnapshot& operator=(ArenaSnapshot&&) noexcept;

 private:
  friend class BlockDevice;
  struct Rep;
  std::unique_ptr<Rep> rep_;
};

/// Whether the device retains payload bytes.
enum class DataMode {
  kMetadataOnly,  ///< Timing and layout only; reads return zeros.
  kRetain,        ///< Sparse in-memory arena; reads return written bytes.
};

/// One physically contiguous run of a vectored request. `src`/`dst`
/// may be null (timing-only run); when non-null they must point to
/// `length` valid bytes.
struct IoSlice {
  uint64_t offset = 0;
  uint64_t length = 0;
  const uint8_t* src = nullptr;  ///< WriteV payload source.
  uint8_t* dst = nullptr;        ///< ReadV payload destination.
};

/// One request for the explicit submit/complete API. Payload pointers
/// follow the IoSlice rules (null means timing-only) and must stay
/// valid only for the duration of the Submit call — bytes move at
/// submission.
struct IoRequest {
  bool write = false;
  uint64_t offset = 0;
  uint64_t length = 0;
  const uint8_t* src = nullptr;  ///< Write payload source.
  uint8_t* dst = nullptr;        ///< Read payload destination.
};

/// Simulated rotating block device.
class BlockDevice {
 public:
  BlockDevice(DiskParams params, DataMode mode = DataMode::kMetadataOnly);
  ~BlockDevice();

  BlockDevice(const BlockDevice&) = delete;
  BlockDevice& operator=(const BlockDevice&) = delete;

  uint64_t capacity() const { return model_.params().capacity_bytes; }
  const DiskModel& model() const { return model_; }
  /// Views share the hub's clock: one spindle, one timeline.
  SimClock& clock() { return spindle_ != nullptr ? spindle_->clock_ : clock_; }
  const SimClock& clock() const {
    return spindle_ != nullptr ? spindle_->clock_ : clock_;
  }
  const IoStats& stats() const { return stats_; }
  DataMode data_mode() const { return mode_; }

  /// Writes `len` bytes at `offset`. `data` may be empty in
  /// kMetadataOnly mode (or even in kRetain mode, in which case zeros are
  /// stored); if non-empty it must be exactly `len` bytes. Zero-length
  /// requests are complete no-ops: nothing is charged and the head does
  /// not move.
  Status Write(uint64_t offset, uint64_t len, std::span<const uint8_t> data);

  /// Convenience for timing-only writes.
  Status Write(uint64_t offset, uint64_t len) { return Write(offset, len, {}); }

  /// Reads `len` bytes at `offset`. If `out` is non-null it is resized
  /// and filled (zeros in kMetadataOnly mode); existing capacity is
  /// reused, so a caller looping reads through one buffer pays no
  /// per-request allocation or redundant zero-fill. Zero-length
  /// requests charge nothing and do not move the head.
  Status Read(uint64_t offset, uint64_t len, std::vector<uint8_t>* out);

  /// Timing-only read.
  Status Read(uint64_t offset, uint64_t len) { return Read(offset, len, nullptr); }

  /// Submits a batch of contiguous runs as reads. Validates the whole
  /// batch before charging anything, then charges each run exactly as
  /// the equivalent scalar Read sequence would (zero-length runs are
  /// skipped). Runs with a non-null `dst` receive the payload bytes.
  Status ReadV(std::span<const IoSlice> slices);

  /// Submits a batch of contiguous runs as writes; the WriteV twin of
  /// ReadV. Runs with a non-null `src` store the payload bytes (zeros
  /// are stored for timing-only runs in kRetain mode).
  Status WriteV(std::span<const IoSlice> slices);

  /// Invokes `fn(std::span<const uint8_t>)` for each contiguous arena
  /// chunk of [offset, offset+len), in order. Unwritten ranges (and
  /// every range in kMetadataOnly mode) yield zero-filled chunks. Moves
  /// no clock and no stats; the range must be within capacity.
  template <typename Fn>
  void ReadView(uint64_t offset, uint64_t len, Fn&& fn) const {
    while (len > 0) {
      uint64_t chunk = 0;
      const uint8_t* p = ReadChunk(offset, len, &chunk);
      fn(std::span<const uint8_t>(p, chunk));
      offset += chunk;
      len -= chunk;
    }
  }

  /// Invokes `fn(std::span<uint8_t>)` for each writable contiguous
  /// arena chunk of [offset, offset+len), allocating zero-filled slabs
  /// on demand. In kMetadataOnly mode `fn` is never invoked (payload is
  /// dropped, as everywhere else). Charges nothing; pair with a
  /// timing-only Write/WriteV for the device time.
  template <typename Fn>
  void WriteView(uint64_t offset, uint64_t len, Fn&& fn) {
    while (len > 0) {
      uint64_t chunk = 0;
      uint8_t* p = WriteChunk(offset, len, &chunk);
      if (p != nullptr) fn(std::span<uint8_t>(p, chunk));
      offset += chunk;
      len -= chunk;
    }
  }

  /// Submits one request through the submission/completion path. `done`
  /// (optional) fires with the simulated completion time: inline under
  /// the synchronous path, at service completion when queued.
  Status Submit(const IoRequest& req, IoCompletion done = nullptr);

  /// Vectored Submit: a batch of contiguous runs charged exactly like
  /// the equivalent scalar sequence (the ReadV/WriteV guarantee), with
  /// one completion callback firing when the whole batch has been
  /// serviced. Bumps the vectored counters.
  Status SubmitV(std::span<const IoRequest> reqs, IoCompletion done = nullptr);

  /// Charges a cache-flush barrier: the next request never counts as
  /// sequential, plus a fixed settle cost. Models FUA/flush commands.
  void Flush();

  /// Charges host CPU / software-stack time to the same clock.
  void ChargeCpu(double seconds);

  /// Opens a stream-penalty window: the host-side streaming loop runs
  /// concurrently with the device work between Begin and End, and End
  /// charges only the CPU time the device did not already cover
  /// (sim::OpCostModel::StreamPenalty). Under the synchronous path this
  /// is exactly the historical now()-delta arithmetic; under the
  /// scheduler the window spans the op's serviced seconds.
  void BeginStreamWindow();
  void EndStreamWindow(uint64_t len, double bandwidth_cap_bytes_per_s);

  /// Run-length form of `count` back-to-back stream-windowed writes of
  /// `len` bytes at offset, offset+len, ...: charges exactly what
  /// `count` repetitions of
  ///   BeginStreamWindow(); Write(offset_i, len, slice_i);
  ///   EndStreamWindow(len, bandwidth_cap_bytes_per_s);
  /// would, with every float addition in the same order. Each request
  /// keeps its own stream window, service charge, injector tag, media
  /// write intake, payload store and (under an engaged scheduler) chain
  /// entries; only host work is hoisted — one range validation, one
  /// stream-term division, one transfer-time division per zone. `data`
  /// is empty (timing only) or exactly count*len bytes. A run with no
  /// bytes (count or len 0) is a no-op.
  Status WriteStreamRun(uint64_t offset, uint64_t len, uint64_t count,
                        std::span<const uint8_t> data,
                        double bandwidth_cap_bytes_per_s);

  /// Wires up (or detaches, with null) the submission scheduler. The
  /// scheduler must outlive every subsequent request on this device.
  void AttachScheduler(IoScheduler* scheduler) { scheduler_ = scheduler; }
  IoScheduler* scheduler() { return scheduler_; }

  /// Wires up (or detaches, with null) a power-cut fault injector.
  /// While the injector is armed, every write submission is recorded
  /// (with its arena pre-image in kRetain mode) and tagged for
  /// serviced-at-the-cut classification; unarmed, the hooks cost one
  /// null check and charge nothing, so clean-path figures are
  /// bit-identical with or without an injector attached.
  void AttachFaultInjector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() { return injector_; }
  const FaultInjector* fault_injector() const { return injector_; }

  /// Wires up (or detaches, with null) a media-fault model
  /// (sim/media_fault.h) and registers this device with it. While the
  /// model is armed, payload-delivering reads that touch a latent-
  /// sector-error region return a typed Status::IoError *at submission*
  /// (nothing is charged or queued — the failure is known before the
  /// head moves, and the retry/backoff cost is charged by the storage
  /// layer), writes heal overlapped bad regions (sector remap on
  /// write), and requests touching degraded regions pay a service-time
  /// multiplier at service time. Detached or disarmed, every hook is
  /// one null/flag check and all figures are bit-identical.
  void AttachMediaFaults(MediaFaultModel* media);
  MediaFaultModel* media_faults() { return media_; }
  const MediaFaultModel* media_faults() const { return media_; }

  /// Explicit media read admission for callers whose charged reads
  /// carry no destination buffer (the database back end charges page
  /// batches timing-only and delivers payload through views). Same
  /// semantics as the implicit check on payload-delivering reads: OK
  /// when no armed model is attached, typed IoError on a latent sector
  /// error, nothing charged.
  Status PreflightMediaRead(uint64_t offset, uint64_t len) {
    return CheckMediaRead(offset, len);
  }

  /// Wires up (or detaches, with null) the buffer pool fronting this
  /// device. The device never calls into the pool — the pointer is a
  /// rendezvous so storage layers sharing the device (FileStore /
  /// BlobStore plus the repository that owns both ends of an op) find
  /// the same cache without extra plumbing. Null (the default) and a
  /// disabled pool both mean every caller takes its historical direct
  /// path.
  void AttachBufferPool(BufferPool* pool) { buffer_pool_ = pool; }
  BufferPool* buffer_pool() { return buffer_pool_; }
  const BufferPool* buffer_pool() const { return buffer_pool_; }

  /// Models the restart after a power cut: the head position is
  /// unknown, so the next request never counts as sequential.
  void NotePowerCycle() { head_valid_ = false; }

  /// Creates an owner view onto this device (the hub): a device whose
  /// [0, region_bytes) range aliases [base, base+region_bytes) here,
  /// sharing this head, clock, and arena. `base` must be a multiple of
  /// kSlabBytes and the region must fit within capacity, so distinct
  /// owners' retained bytes land in disjoint slab sets. The view must
  /// not outlive the hub.
  std::unique_ptr<BlockDevice> CreateOwnerView(int32_t owner, uint64_t base,
                                               uint64_t region_bytes);

  /// Pre-allocates every slab-group directory entry (kRetain hubs only;
  /// a no-op otherwise). Owner views filling slabs concurrently then
  /// mutate only their own (disjoint) slab slots, never the shared
  /// group table. ~2 KB of pointers per 256 MiB of capacity.
  void PreallocateArenaGroups();

  /// Non-null when this device is an owner view of a shared spindle.
  BlockDevice* spindle_hub() { return spindle_; }
  const BlockDevice* spindle_hub() const { return spindle_; }
  int32_t spindle_owner() const { return spindle_owner_; }

  /// Deep copy of the retained arena (allocated slabs only); empty in
  /// kMetadataOnly mode. The PR 5 slab layout makes this a group-table
  /// walk plus one memcpy per written slab.
  ArenaSnapshot SnapshotArena() const;

  /// Restores the arena to a snapshot taken from this device. Slabs
  /// written since the snapshot but absent from it revert to zeros.
  void RestoreArena(const ArenaSnapshot& snapshot);

  /// Positioning cost (seek only; zero when sequential) a request at
  /// `offset` would pay right now — the SPTF scheduling key.
  double PeekPositioningCost(uint64_t offset) const;

  /// Byte offset one past the end of the last request (head position).
  /// For an owner view this is the hub's physical head position.
  uint64_t head_position() const {
    return spindle_ != nullptr ? spindle_->head_ : head_;
  }

  /// Contiguous arena extent size (tests size their straddling cases
  /// off this).
  static constexpr uint64_t kSlabBytes = 1024 * 1024;

 private:
  friend class IoScheduler;     // Drives ServiceRequest / ServiceFlush.
  friend class FaultInjector;   // Reads/writes arena bytes at the cut.
  friend class ArenaSnapshot;   // Its Rep holds copied SlabGroups.
  friend class SpindlePlane;    // Services owner views, stamps queue waits.
  friend class MediaFaultModel; // Flips at-rest arena bytes at Arm.

  struct SlabGroup;

  /// Media-fault read admission for a payload-delivering read; OK when
  /// no armed model is attached. A failure bumps media_read_errors.
  Status CheckMediaRead(uint64_t offset, uint64_t len);
  /// Media-fault write intake (heals overlapped bad regions).
  void NoteMediaWrite(uint64_t offset, uint64_t len);

  /// Injector intake for one write submission; returns the completion
  /// tag (0 when no armed injector).
  uint64_t NoteWriteSubmission(uint64_t offset, uint64_t len);
  /// Marks a tagged write serviced (sync path inline; async path from
  /// the scheduler at service time).
  void NoteWriteServiced(uint64_t tag);

  Status CheckRange(uint64_t offset, uint64_t len) const;
  /// Service-side core: decides sequentiality against the current head,
  /// stamps the time-decomposition stats, moves the head, and returns
  /// the request's service seconds — without touching the clock. The
  /// synchronous path advances the clock by the return value; the
  /// scheduler places it on its own timeline. `memo` (optional) serves
  /// the transfer time of a run of equal-length requests.
  double ServiceRequest(bool write, uint64_t offset, uint64_t len,
                        TransferMemo* memo = nullptr);
  /// Flush twin of ServiceRequest (invalidates sequentiality).
  double ServiceFlush();
  /// True when an engaged scheduler should absorb timing charges.
  bool AsyncActive() const;
  /// Advances the clock for a request at [offset, offset+len).
  void ChargePositioning(uint64_t offset, uint64_t len);
  void StoreBytes(uint64_t offset, const uint8_t* src, uint64_t len);
  void LoadBytesInto(uint64_t offset, uint8_t* dst, uint64_t len) const;
  /// Largest contiguous readable chunk at `offset`, capped at `len`;
  /// unbacked ranges resolve into a shared zero slab.
  const uint8_t* ReadChunk(uint64_t offset, uint64_t len,
                           uint64_t* chunk) const;
  /// Writable twin of ReadChunk; null in kMetadataOnly mode (the chunk
  /// length is still produced so views can skip forward).
  uint8_t* WriteChunk(uint64_t offset, uint64_t len, uint64_t* chunk);
  /// Slab base address, or null when the slab was never written.
  uint8_t* SlabAt(uint64_t slab_index) const;
  /// Slab base address, allocating the zero-filled slab (and its group)
  /// on first touch.
  uint8_t* EnsureSlab(uint64_t slab_index);

  static constexpr uint64_t kSlabsPerGroup = 256;
  static constexpr double kFlushCost = 0.0005;

  DiskModel model_;
  DataMode mode_;
  SimClock clock_;
  IoStats stats_;
  IoScheduler* scheduler_ = nullptr;
  FaultInjector* injector_ = nullptr;
  MediaFaultModel* media_ = nullptr;
  BufferPool* buffer_pool_ = nullptr;
  double window_t0_ = 0.0;  ///< Synchronous stream-window start.
  uint64_t head_ = 0;
  bool head_valid_ = false;
  /// Owner-view wiring: non-null `spindle_` makes this device an alias
  /// of [spindle_base_, spindle_base_ + capacity()) on the hub.
  BlockDevice* spindle_ = nullptr;
  uint64_t spindle_base_ = 0;
  int32_t spindle_owner_ = -1;
  /// Hub-side: owner of the most recently serviced request (-1 before
  /// the first); the interference attribution cursor.
  int32_t last_owner_ = -1;
  /// Level-1 directory of the arena; entries are allocated on first
  /// write into their 256-slab address range.
  std::vector<std::unique_ptr<SlabGroup>> groups_;
};

}  // namespace sim
}  // namespace lor

#endif  // LOREPO_SIM_BLOCK_DEVICE_H_
