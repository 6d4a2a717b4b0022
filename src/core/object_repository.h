// ObjectRepository: the get/put abstraction the paper's applications
// program against (§4). Both back ends — NTFS-like files and SQL-like
// BLOBs — implement this interface with equivalent semantics: atomic
// whole-object replacement, no recovery of object payloads after media
// failure, and no partial updates.
//
// Two access surfaces share one implementation:
//   * the historical name-based operations (the compatibility surface —
//     every call resolves the key, exactly the per-operation open the
//     paper's workloads measure), and
//   * the handle-based operations: Open/OpenForWrite resolve the key
//     once and return a core::ObjectHandle pinning the resolved state;
//     Get/SafeWrite/GetLayout/GetSize/Delete overloads then operate
//     without a name lookup. The name-based mutations are thin
//     open–op–release wrappers over the same handle ops, so both paths
//     produce identical layouts and tracker state by construction.

#ifndef LOREPO_CORE_OBJECT_REPOSITORY_H_
#define LOREPO_CORE_OBJECT_REPOSITORY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "alloc/extent.h"
#include "core/object_handle.h"
#include "sim/buffer_pool.h"
#include "sim/io_stats.h"
#include "sim/latency_recorder.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace core {

class FragmentationTracker;

/// What mount-time crash recovery found and did (see
/// ObjectRepository::Mount). Back ends without a recovery path return
/// an all-zeros report.
struct MountReport {
  /// Journal/log records scanned during replay.
  uint64_t entries_scanned = 0;
  /// Committed operations re-applied (journal redo / log-tail replay).
  uint64_t ops_redone = 0;
  /// Operations rolled back: uncommitted at the cut, or committed with
  /// bulk-logged payload pages that missed the platter.
  uint64_t ops_rolled_back = 0;
  /// Safe-write temps discarded by the orphan sweep.
  uint64_t orphan_temps_discarded = 0;
  /// Objects with a committed version that could not be recovered.
  uint64_t lost_objects = 0;
  /// Payload bytes of acknowledged operations whose effects were rolled
  /// back — the data-loss window.
  uint64_t data_loss_bytes = 0;
  /// Simulated seconds the recovery I/O and CPU charged.
  double recovery_seconds = 0.0;
};

/// One verifier finding (see ObjectRepository::Fsck).
struct FsckIssue {
  enum class Kind : uint8_t {
    kLostObject,       ///< Metadata references an object that is gone.
    kTornPayload,      ///< Stored bytes fail the recorded payload hash.
    kLeakedExtent,     ///< Allocated space owned by no live object.
    kDoubleAllocated,  ///< One run claimed by two owners (or marked free).
    kOrphanTemp,       ///< Safe-write temp that survived recovery.
    kAccounting,       ///< Tracker/stats/consistency cross-check failed.
  };
  Kind kind = Kind::kAccounting;
  std::string detail;
};

/// Full verifier result: every issue found, most severe first not
/// guaranteed — callers filter by Kind.
struct FsckReport {
  std::vector<FsckIssue> issues;
  uint64_t objects_checked = 0;
  uint64_t payloads_hashed = 0;
  /// Allocation units (fs clusters / db pages) quarantined for media
  /// faults: owned by no object and withheld from the allocator so bad
  /// sectors are never reallocated. Deliberate isolation, not an issue
  /// — clean() stays true for a quarantining volume.
  uint64_t quarantined_units = 0;
  bool clean() const { return issues.empty(); }
};

/// Rate limit for one scrubber pass (see ObjectRepository::Scrub).
struct ScrubOptions {
  /// Objects to examine this pass (0 = every live object). The cursor
  /// persists across passes, so bounded passes resume where the last
  /// one stopped and wrap at the end — a background scrubber trickling
  /// through the volume.
  uint64_t max_objects = 0;
};

/// What one scrubber pass saw and did.
struct ScrubReport {
  uint64_t objects_scanned = 0;
  uint64_t bytes_scanned = 0;
  /// Objects whose read hit a typed media error (transient or not).
  uint64_t read_errors = 0;
  /// Objects whose payload failed checksum verification.
  uint64_t corruptions_detected = 0;
  /// Objects rewritten onto fresh space (suspect units quarantined).
  uint64_t repaired = 0;
  /// Objects left in a typed-error state: persistent LSE or corrupt
  /// payload with no good copy to rewrite from. Never silent — every
  /// subsequent read returns the typed error.
  uint64_t unrecoverable = 0;
  /// Allocation units newly quarantined by this pass's repairs.
  uint64_t quarantined_units = 0;
};

/// Abstract get/put large-object repository.
class ObjectRepository {
 public:
  virtual ~ObjectRepository() = default;

  // -- Name-based surface (one resolution per operation) ---------------

  /// Stores a new object. Fails with AlreadyExists for a live key.
  /// `data` may be empty (timing-only workloads).
  virtual Status Put(const std::string& key, uint64_t size,
                     std::span<const uint8_t> data = {}) = 0;

  /// Atomically creates or replaces an object (the paper's safe write).
  virtual Status SafeWrite(const std::string& key, uint64_t size,
                           std::span<const uint8_t> data = {}) = 0;

  /// Reads a whole object; `out` receives the payload when non-null.
  virtual Status Get(const std::string& key,
                     std::vector<uint8_t>* out = nullptr) = 0;

  virtual Status Delete(const std::string& key) = 0;

  virtual bool Exists(const std::string& key) const = 0;

  /// Physical layout of the object in *byte* extents on the data
  /// volume, in logical order. The analyzer counts fragments from this
  /// (the role of the paper's marker-scanning tool).
  virtual Result<alloc::ExtentList> GetLayout(
      const std::string& key) const = 0;

  virtual Result<uint64_t> GetSize(const std::string& key) const = 0;

  // -- Handle-based surface (resolve once, operate many) ---------------

  /// Opens an existing object for reading. Charges the back end's
  /// open-by-name cost (the cost the name-based Get pays per call);
  /// NotFound when the key is not live.
  virtual Result<ObjectHandle> Open(const std::string& key);

  /// Opens a key for writing. The object need not exist yet: the first
  /// SafeWrite through the handle creates it (Put semantics are an
  /// exists check away). Charges only the resolution the write path
  /// already paid per operation, never extra metadata I/O.
  virtual Result<ObjectHandle> OpenForWrite(const std::string& key);

  /// Releases a handle (invalidating it). Read handles charge the
  /// back end's close cost, mirroring the name-based Get; releasing an
  /// already-released or foreign handle is an error.
  virtual Status Release(ObjectHandle* handle);

  /// Handle twins of the name-based operations. SafeWrite and Delete
  /// require a writable handle; Delete invalidates every open handle on
  /// the object (use-after-delete fails, it does not touch stale
  /// state). Default implementations route through the name-based ops
  /// so alternative back ends keep working without a handle table.
  virtual Status Get(const ObjectHandle& handle,
                     std::vector<uint8_t>* out = nullptr);
  virtual Status SafeWrite(const ObjectHandle& handle, uint64_t size,
                           std::span<const uint8_t> data = {});
  virtual Status Delete(ObjectHandle* handle);
  virtual Result<alloc::ExtentList> GetLayout(const ObjectHandle& handle) const;
  virtual Result<uint64_t> GetSize(const ObjectHandle& handle) const;

  // -- Introspection ----------------------------------------------------

  virtual std::vector<std::string> ListKeys() const = 0;

  /// Visits every live object without materializing a key list:
  /// `visit(key, layout, size_bytes)`, where `layout` is the byte-extent
  /// layout GetLayout would return. Visit order is unspecified. This is
  /// the checkpoint-scan path — one pass, no per-object lookups.
  virtual void VisitObjects(
      const std::function<void(const std::string& key,
                               const alloc::ExtentList& layout,
                               uint64_t size_bytes)>& visit) const = 0;

  /// Incrementally maintained fragmentation accounting, or null when
  /// the back end does not keep one (analysis then falls back to the
  /// full layout scan).
  virtual const FragmentationTracker* fragmentation_tracker() const {
    return nullptr;
  }

  virtual uint64_t object_count() const = 0;
  virtual uint64_t live_bytes() const = 0;
  /// Data-volume capacity in bytes.
  virtual uint64_t volume_bytes() const = 0;
  /// Unused bytes on the data volume.
  virtual uint64_t free_bytes() const = 0;

  /// Simulated seconds elapsed on this repository's clock.
  virtual double now() const = 0;

  /// Cumulative data-volume device activity. Per-shard repositories
  /// snapshot this so aggregate device figures merge exactly
  /// (sim::Sum); back ends without a device model return zeros.
  virtual sim::IoStats device_stats() const { return {}; }

  /// Cumulative buffer-pool counters for the data volume's cache tier
  /// (hits, misses, fills, evictions, writebacks, hit-rate). All-zeros
  /// when the back end has no pool or the pool is disabled — the
  /// plumbing twin of device_stats().
  virtual sim::BufferPoolStats cache_stats() const { return {}; }

  /// Writes back every dirty cached frame to the data volume. A no-op
  /// without a pool; DrainIo implies it.
  virtual Status FlushCache() { return Status::OK(); }

  // -- Submission/completion pipeline -----------------------------------

  /// Sets the number of operations the repository keeps in flight
  /// against its data volume. Depth 1 (the default) is the synchronous
  /// path: each operation completes before the next is issued, and
  /// every historical figure is reproduced exactly. Depth > 1 engages
  /// the back end's IoScheduler: device requests queue per operation
  /// and service in `policy` order (NCQ-style SPTF by default), so
  /// completion latency includes queueing delay. Pending work is
  /// drained before the depth changes; may not be called mid-operation.
  virtual Status SetQueueDepth(
      uint32_t depth, sim::SchedPolicy policy = sim::SchedPolicy::kSptf) = 0;

  /// Services everything queued and advances the clock to the
  /// completion horizon. A no-op at depth 1.
  virtual Status DrainIo() = 0;

  /// Phase-boundary settle for shared-spindle back ends: drains this
  /// repository's outstanding submissions and parks its spindle owner
  /// at a phase fence so the plane can re-align every owner's closed
  /// loop once all of them arrive (sim::SpindlePlane). Workload
  /// runners call this on every shard at the end of each phase, before
  /// reading phase-end clocks or stats. Contract: a barrier must
  /// separate it from the shard's next operations. Deliberately does
  /// NOT flush the cache — dedicated-spindle phases never flush at
  /// their boundaries, and a shared single-owner run must charge the
  /// same I/O. The default (and the dedicated-spindle behavior) is a
  /// no-op: a synchronous or drained-by-Exit phase end has nothing to
  /// settle.
  virtual Status SettleIo() { return Status::OK(); }

  /// True when this repository's data volume is an owner view on a
  /// shared sim::SpindlePlane (its clock, stats, and drains then
  /// follow the plane's round protocol). Workload runners use this to
  /// gate shared-spindle-only behavior.
  virtual bool shared_spindle() const { return false; }

  /// Per-op-class submit-to-completion latency histograms, or null when
  /// the back end does not record them. Populated on both the
  /// synchronous and the queued path.
  virtual const sim::LatencyRecorder* latency_recorder() const {
    return nullptr;
  }

  // -- Crash recovery & verification ------------------------------------

  /// Mount-time recovery: replays the back end's journal/log against
  /// the post-crash volume state, rolling back whatever did not commit,
  /// and charges realistic recovery I/O so the report's
  /// recovery_seconds is a simulated metric.
  virtual Result<MountReport> Mount() = 0;

  /// Full-volume verifier: cross-checks every object's payload hash,
  /// extent layout vs. allocator state, and the FragmentationTracker
  /// vs. a full scan, reporting a typed corruption taxonomy. Never
  /// fails just because the volume is corrupt — corruption is the
  /// report's payload; a Status error means the verifier itself could
  /// not run. The default implementation is name-routed (VisitObjects +
  /// GetLayout + CheckConsistency only), so RecordingRepository-style
  /// wrappers keep working.
  virtual Result<FsckReport> Fsck();

  /// One background-scrubber pass: walks the sorted key space from the
  /// persistent scrub cursor, re-reads payloads through the virtual
  /// Get (charged like any client read), counts typed errors and
  /// checksum failures, and hands objects that read OK only after
  /// media retries to RepairRetriedRead. Detected-but-unrepairable
  /// objects stay typed-error, never silently wrong. Wrapper
  /// repositories scrub what they wrap, detect-only.
  virtual Result<ScrubReport> Scrub(const ScrubOptions& options = {});

  /// Structural invariants (no shared clusters/extents, accounting).
  virtual Status CheckConsistency() const = 0;

  /// "filesystem" or "database" (the paper's series labels).
  virtual std::string name() const = 0;

 protected:
  /// Checks that `handle` is live, minted by this repository, and (when
  /// `need_write`) was opened for writing.
  Status ValidateHandle(const ObjectHandle& handle,
                        bool need_write = false) const;

  /// Mints a handle. Back ends pass their table coordinates; the
  /// defaults mint a name-routed handle (gen 0).
  ObjectHandle MakeHandle(const std::string& key, bool writable,
                          uint64_t slot = 0, uint64_t gen = 0) const;

  /// Cumulative media read errors (retried or not) on the data volume;
  /// Scrub compares it across a read to spot retried reads. Zero when
  /// no media model is attached.
  virtual uint64_t media_read_errors() const { return 0; }

  /// Scrub repair hook for an object whose read succeeded only after
  /// media retries: move `payload` off the suspect units and count what
  /// was repaired and quarantined. The default is detect-only.
  virtual void RepairRetriedRead(const std::string& /*key*/,
                                 std::span<const uint8_t> /*payload*/,
                                 ScrubReport* /*report*/) {}

 private:
  /// Background-scrubber resume point: the last key the previous Scrub
  /// pass examined (empty = start of the key space).
  std::string scrub_cursor_;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_OBJECT_REPOSITORY_H_
