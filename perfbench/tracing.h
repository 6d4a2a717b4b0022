// Per-layer tracing for the repository benchmark, built only from the
// library's public surface (tracing inside src/ is separate work):
//
//   * TimingRepository decorates one shard's core::ObjectRepository. It
//     forwards every virtual — the handle surface, SettleIo, DrainIo,
//     shared_spindle, Mount, Fsck and Scrub included — so the traced run
//     executes exactly the code path of the untraced one, and times each
//     call into the core layer.
//   * TimingAllocator wraps the filesystem's default RunCacheAllocator
//     (injected through FsRepository's allocator constructor) and
//     aggregates call counts and host time per phase, never one span per
//     call: the large-object workload makes millions of them. Only a
//     pseudo-random one call in kAllocTimingStride reads the clock (less
//     the clock's own cost), and host time is that sample scaled to the
//     call count, so two clock reads per call do not swamp what they
//     measure. The draw is random, not every n-th call, because calls
//     come in fixed per-object patterns (the first append of a file is
//     the expensive one) that a fixed stride would alias with.
//   * At each phase fence (the SettleIo every ShardEngine phase ends
//     with) the shard snapshots the public counters of the layers under
//     it — device IoStats, buffer pool, FileStore or BlobStore, log
//     device, allocator — and books the delta to the phase it closes.
//
// TracedFactory builds the decorated shards the way FsRepositoryFactory
// and DbRepositoryFactory build plain ones. Shard traces are confined to
// their shard's worker thread during a runner phase; the benchmark's
// main thread reads them and sets their phase only between phases, where
// the runner's barrier orders the accesses.

#ifndef LORBENCH_TRACING_H_
#define LORBENCH_TRACING_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc/allocator.h"
#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "core/object_repository.h"
#include "core/repository_factory.h"
#include "sim/io_stats.h"

namespace lorbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Workload phase a shard is in. The benchmark sets kLoad or kAge
/// before a runner dispatch; each phase fence books the phase's
/// counters and advances kAge to kRead (AgeAndMeasure's probe) and
/// anything else to kIdle.
enum class Phase : uint8_t { kLoad = 0, kAge, kRead, kIdle };
inline constexpr size_t kPhases = 3;  // kIdle books nothing.

/// Core-layer call classes with their own counts and host-time
/// distributions. A SafeWrite during bulk load is the object's put.
enum class Call : uint8_t {
  kPut = 0, kSafeWrite, kGet, kOpen, kRelease, kDrain, kOther
};
inline constexpr size_t kCalls = 7;

/// One allocator call in this many is timed, on average.
inline constexpr uint64_t kAllocTimingStride = 16;

/// Cumulative allocator activity.
struct AllocCounters {
  uint64_t allocate_calls = 0;
  uint64_t free_calls = 0;
  /// Calls that were timed, and their host seconds.
  uint64_t allocate_timed = 0;
  uint64_t free_timed = 0;
  double allocate_timed_s = 0.0;
  double free_timed_s = 0.0;
  /// Contiguous runs handed out by Allocate (after coalescing).
  uint64_t extents = 0;
  /// Allocate calls carrying an extension hint, and those whose first
  /// run started exactly at the hint (contiguous file extension).
  uint64_t hint_calls = 0;
  uint64_t hint_hits = 0;

  /// Host seconds of all calls, estimated from the timed ones.
  double allocate_s() const;
  double free_s() const;
};

/// Forwards to a wrapped allocator and counts and times Allocate/Free.
/// The wrapped allocator fills a scratch list that is then appended to
/// the caller's with the same coalescing rule, so the caller's extent
/// list is exactly what the wrapped allocator would have produced.
class TimingAllocator final : public lor::alloc::ExtentAllocator {
 public:
  explicit TimingAllocator(std::unique_ptr<lor::alloc::ExtentAllocator> inner);

  lor::Status Allocate(uint64_t length, uint64_t extend_hint,
                       lor::alloc::ExtentList* out) override;
  lor::Status Free(const lor::alloc::Extent& extent) override;
  void Tick() override { inner_->Tick(); }
  void CommitPending() override { inner_->CommitPending(); }
  uint64_t free_clusters() const override { return inner_->free_clusters(); }
  uint64_t total_unused_clusters() const override {
    return inner_->total_unused_clusters();
  }
  lor::alloc::FreeSpaceStats FreeStats() const override {
    return inner_->FreeStats();
  }
  lor::alloc::FreeSpaceMap* free_map() override { return inner_->free_map(); }
  std::string name() const override { return inner_->name(); }

  const AllocCounters& counters() const { return counters_; }

 private:
  /// Draws whether the next call is timed.
  bool Sample();
  /// Host seconds between two calls, less the clock's own cost.
  double Elapsed(Clock::time_point start) const;

  std::unique_ptr<lor::alloc::ExtentAllocator> inner_;
  uint64_t sampler_ = 0x853C49E6748FEA9Bull;
  /// Cost of one Clock::now(), measured at construction.
  double clock_s_;
  lor::alloc::ExtentList scratch_;
  AllocCounters counters_;
};

/// Cumulative public counters of every layer under one shard, plus the
/// host seconds spent inside timed core calls. Differences of two
/// snapshots isolate a phase.
struct LayerCounters {
  lor::sim::IoStats device;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pool_fills = 0;
  uint64_t pool_evictions = 0;
  uint64_t pool_writebacks = 0;
  uint64_t pool_eviction_refusals = 0;
  uint64_t pool_frame_allocs = 0;
  uint64_t pool_frame_recycles = 0;
  uint64_t fs_appends = 0;
  uint64_t fs_creates = 0;
  uint64_t fs_renames = 0;
  uint64_t db_log_records = 0;
  uint64_t db_log_bytes = 0;
  double db_log_busy_s = 0.0;
  AllocCounters alloc;
  double core_s = 0.0;

  LayerCounters operator-(const LayerCounters& other) const;
  LayerCounters& operator+=(const LayerCounters& other);
};

/// One shard's trace: call timings and per-phase layer counters.
class ShardTrace {
 public:
  /// Exactly one of `fs` / `db` is non-null; `alloc` accompanies `fs`.
  ShardTrace(lor::core::FsRepository* fs, lor::core::DbRepository* db,
             TimingAllocator* alloc);

  ShardTrace(const ShardTrace&) = delete;
  ShardTrace& operator=(const ShardTrace&) = delete;

  Phase phase() const { return phase_; }
  /// Main thread, between runner phases only.
  void set_phase(Phase phase) { phase_ = phase; }

  void Record(Call call, Clock::time_point start, Clock::time_point end);
  /// Phase fence: books the counters since the last fence to the
  /// current phase and advances it.
  void Fence(Clock::time_point at);

  /// Counters booked per phase (index = Phase).
  const std::array<LayerCounters, kPhases>& phases() const { return phases_; }
  uint64_t calls(Call call) const {
    return calls_[static_cast<size_t>(call)];
  }
  /// Host microseconds of every call of this class, in call order.
  const std::vector<double>& call_us(Call call) const {
    return call_us_[static_cast<size_t>(call)];
  }
  double core_s() const { return core_s_; }
  Clock::time_point last_fence() const { return last_fence_; }
  /// Free-space shape of the filesystem allocator right now (zeros on
  /// the database back end, which bypasses it).
  lor::alloc::FreeSpaceStats FreeStats() const;

 private:
  LayerCounters Read() const;

  lor::core::FsRepository* fs_;
  lor::core::DbRepository* db_;
  TimingAllocator* alloc_;
  Phase phase_ = Phase::kIdle;
  std::array<uint64_t, kCalls> calls_{};
  std::array<std::vector<double>, kCalls> call_us_;
  double core_s_ = 0.0;
  LayerCounters at_last_fence_;
  std::array<LayerCounters, kPhases> phases_;
  Clock::time_point last_fence_{};
};

/// Times every call into the wrapped repository (see file comment).
class TimingRepository final : public lor::core::ObjectRepository {
 public:
  TimingRepository(std::unique_ptr<lor::core::ObjectRepository> inner,
                   ShardTrace* trace);

  lor::Status Put(const std::string& key, uint64_t size,
                  std::span<const uint8_t> data = {}) override;
  lor::Status SafeWrite(const std::string& key, uint64_t size,
                        std::span<const uint8_t> data = {}) override;
  lor::Status Get(const std::string& key,
                  std::vector<uint8_t>* out = nullptr) override;
  lor::Status Delete(const std::string& key) override;
  bool Exists(const std::string& key) const override;
  lor::Result<lor::alloc::ExtentList> GetLayout(
      const std::string& key) const override;
  lor::Result<uint64_t> GetSize(const std::string& key) const override;

  lor::Result<lor::core::ObjectHandle> Open(const std::string& key) override;
  lor::Result<lor::core::ObjectHandle> OpenForWrite(
      const std::string& key) override;
  lor::Status Release(lor::core::ObjectHandle* handle) override;
  lor::Status Get(const lor::core::ObjectHandle& handle,
                  std::vector<uint8_t>* out = nullptr) override;
  lor::Status SafeWrite(const lor::core::ObjectHandle& handle, uint64_t size,
                        std::span<const uint8_t> data = {}) override;
  lor::Status Delete(lor::core::ObjectHandle* handle) override;
  lor::Result<lor::alloc::ExtentList> GetLayout(
      const lor::core::ObjectHandle& handle) const override;
  lor::Result<uint64_t> GetSize(
      const lor::core::ObjectHandle& handle) const override;

  std::vector<std::string> ListKeys() const override;
  void VisitObjects(
      const std::function<void(const std::string& key,
                               const lor::alloc::ExtentList& layout,
                               uint64_t size_bytes)>& visit) const override;
  const lor::core::FragmentationTracker* fragmentation_tracker()
      const override;
  uint64_t object_count() const override;
  uint64_t live_bytes() const override;
  uint64_t volume_bytes() const override;
  uint64_t free_bytes() const override;
  double now() const override;
  lor::sim::IoStats device_stats() const override;
  lor::sim::BufferPoolStats cache_stats() const override;
  lor::Status FlushCache() override;

  lor::Status SetQueueDepth(uint32_t depth,
                            lor::sim::SchedPolicy policy =
                                lor::sim::SchedPolicy::kSptf) override;
  lor::Status DrainIo() override;
  lor::Status SettleIo() override;
  bool shared_spindle() const override;
  const lor::sim::LatencyRecorder* latency_recorder() const override;

  lor::Result<lor::core::MountReport> Mount() override;
  lor::Result<lor::core::FsckReport> Fsck() override;
  lor::Result<lor::core::ScrubReport> Scrub(
      const lor::core::ScrubOptions& options = {}) override;
  lor::Status CheckConsistency() const override;
  std::string name() const override;

 private:
  /// Runs `fn` and books its host time to `call`.
  template <typename Fn>
  auto Timed(Call call, Fn&& fn) const;

  std::unique_ptr<lor::core::ObjectRepository> inner_;
  ShardTrace* trace_;
};

/// Builds traced shards: the same repositories FsRepositoryFactory /
/// DbRepositoryFactory build (volume, cache and spindle split alike),
/// with the filesystem allocator wrapped in a TimingAllocator and every
/// repository wrapped in a TimingRepository. Owns the shard traces,
/// which outlive the runner's repositories.
class TracedFactory final : public lor::core::RepositoryFactory {
 public:
  explicit TracedFactory(lor::core::FsRepositoryConfig base);
  explicit TracedFactory(lor::core::DbRepositoryConfig base);

  std::unique_ptr<lor::core::ObjectRepository> Create(
      uint32_t shard, uint32_t shard_count) const override;
  std::string name() const override {
    return filesystem_ ? "filesystem" : "database";
  }

  /// Traces of the shards built so far, in shard order.
  const std::vector<std::unique_ptr<ShardTrace>>& traces() const {
    return traces_;
  }

 private:
  bool filesystem_;
  lor::core::FsRepositoryConfig fs_base_;
  lor::core::DbRepositoryConfig db_base_;
  // Create is const in the factory interface and runs serially on the
  // runner's constructing thread.
  mutable std::vector<std::unique_ptr<ShardTrace>> traces_;
};

}  // namespace lorbench

#endif  // LORBENCH_TRACING_H_
