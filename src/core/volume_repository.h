// VolumeRepository: the frame both simulated back ends share. It owns
// the data volume's stack — BlockDevice (dedicated, or an owner view
// on a shared sim::SpindlePlane), BufferPool, LatencyRecorder and
// IoScheduler — and implements everything around the store once: the
// submission pipeline (queue depth, drain, settle, cache flush), the
// clock and stats surface, the mount frame, and the fsck payload
// re-hash. FsRepository and DbRepository keep only what differs: their
// store, their handle calls, and the recovery/repair hooks.
//
// Construction order is part of the contract: the base builds the
// device and attaches the pool, the back end then builds its store
// (which formats synchronously, unported) and calls AttachScheduler,
// which attaches the scheduler and ports it onto a shared spindle.
// The scheduler is destroyed before the pool and the device (its
// destructor drains onto the device or retires from the plane).

#ifndef LOREPO_CORE_VOLUME_REPOSITORY_H_
#define LOREPO_CORE_VOLUME_REPOSITORY_H_

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/object_repository.h"
#include "sim/block_device.h"
#include "sim/buffer_pool.h"
#include "sim/io_scheduler.h"
#include "sim/spindle_plane.h"

namespace lor {
namespace core {

/// Data-volume configuration shared by both back ends.
struct VolumeConfig {
  /// Data volume size.
  uint64_t volume_bytes = 40 * kGiB;
  /// Drive model; capacity is overridden by the volume sizes.
  sim::DiskParams disk = sim::DiskParams::St3400832as();
  /// Retain payload bytes (tests only).
  sim::DataMode data_mode = sim::DataMode::kMetadataOnly;
  /// Buffer pool fronting the data volume. Capacity 0 (the default)
  /// disables the pool entirely — the paper's cold-cache regime.
  sim::BufferPoolOptions cache;
  /// Shared-spindle binding. Non-null: the data volume is owner
  /// `spindle_owner`'s region of this plane (the plane's region size
  /// must equal volume_bytes) and the scheduler is ported onto it —
  /// `disk` and `data_mode` above are then ignored for the data volume,
  /// which shares the plane's hub disk. Null (default): dedicated
  /// spindle, bit-identical historical behavior. Crash simulation
  /// (Mount/recovery) is unavailable in shared mode.
  std::shared_ptr<sim::SpindlePlane> spindle;
  uint32_t spindle_owner = 0;
};

/// Shared frame of the simulated back ends (see file comment).
class VolumeRepository : public ObjectRepository {
 public:
  uint64_t volume_bytes() const override { return device_->capacity(); }
  double now() const override { return scheduler_->Now(); }
  sim::IoStats device_stats() const override { return device_->stats(); }
  sim::BufferPoolStats cache_stats() const override { return pool_->stats(); }
  Status FlushCache() override;

  // Submission/completion pipeline over the data volume.
  Status SetQueueDepth(
      uint32_t depth,
      sim::SchedPolicy policy = sim::SchedPolicy::kSptf) override;
  Status DrainIo() override;
  Status SettleIo() override;
  bool shared_spindle() const override { return scheduler_->port_mode(); }
  const sim::LatencyRecorder* latency_recorder() const override {
    return &latency_;
  }

  /// Restart against the attached sim::FaultInjector's durability
  /// verdicts. When the injector tripped, the scheduler's dead queue is
  /// abandoned and the head position invalidated first, so calling
  /// Mount right after MaterializeCrash is the whole restart sequence;
  /// a clean remount flushes the cache instead. The pool restarts cold
  /// either way, then the back end's store recovers. Recovery I/O is
  /// charged synchronously; recovery_seconds is the simulated elapsed
  /// time. Unavailable in shared-spindle mode.
  Result<MountReport> Mount() override;

  /// The data volume.
  sim::BlockDevice* device() { return device_.get(); }
  sim::IoScheduler* io_scheduler() { return scheduler_.get(); }
  sim::BufferPool* buffer_pool() { return pool_.get(); }

 protected:
  /// Builds the data device and its (possibly disabled) buffer pool.
  explicit VolumeRepository(const VolumeConfig& config);

  /// Attaches the scheduler to the data device and, on a shared
  /// spindle, ports it onto the plane. Back ends call this once their
  /// store has formatted the volume.
  void AttachScheduler();

  /// Mount's back-end step: recovers the store after the frame has
  /// restarted the data volume (`power_cycled` = the injector tripped)
  /// and fills everything in the report but recovery_seconds.
  virtual Result<MountReport> RecoverStore(bool power_cycled) = 0;

  /// Fsck payload check: re-reads each (key, expected FNV-1a) object
  /// through `read` and reports kLostObject / kTornPayload.
  using PayloadRead =
      std::function<Status(const std::string& key, std::vector<uint8_t>* out)>;
  static void VerifyPayloads(
      const std::vector<std::pair<std::string, uint64_t>>& hashed,
      const PayloadRead& read, FsckReport* report);

  uint64_t media_read_errors() const override;

  /// Keeps a shared plane alive for the owner view device_.
  std::shared_ptr<sim::SpindlePlane> spindle_;
  uint32_t spindle_owner_ = 0;
  std::unique_ptr<sim::BlockDevice> device_;
  /// Cache tier fronting device_; attached before the store is built so
  /// every store path sees it. Always constructed (possibly disabled).
  std::unique_ptr<sim::BufferPool> pool_;
  sim::LatencyRecorder latency_;
  /// Owns the data volume's submission queue; attached to device_ for
  /// the repository's whole lifetime (disengaged = synchronous).
  std::unique_ptr<sim::IoScheduler> scheduler_;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_VOLUME_REPOSITORY_H_
