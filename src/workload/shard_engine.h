// ShardEngine: the per-shard core of the paper's synthetic workload
// (§4.3) — bulk load to a target occupancy, rounds of uniform-random
// safe-write replacements with measurement checkpoints at chosen
// storage ages, and randomized read-throughput probes.
//
// Keys come from a global "obj<index>" namespace. With a ShardRouter,
// an engine loads exactly the keys the router assigns to its shard, so
// the per-shard key sets partition the namespace; without one it owns
// every key — which is shard 0 of 1 and reproduces the historical
// single-threaded GetPutRunner operation-for-operation. GetPutRunner is
// now a thin wrapper over this class; ShardedRunner drives one engine
// per shard on a dedicated thread.

#ifndef LOREPO_WORKLOAD_SHARD_ENGINE_H_
#define LOREPO_WORKLOAD_SHARD_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fragmentation.h"
#include "core/object_repository.h"
#include "core/shard_router.h"
#include "core/storage_age.h"
#include "util/random.h"
#include "util/units.h"
#include "workload/size_distribution.h"

namespace lor {
namespace workload {

/// Workload parameters.
struct WorkloadConfig {
  SizeDistribution sizes = SizeDistribution::Constant(10 * kMiB);
  /// Fraction of the volume occupied after bulk load.
  double target_occupancy = 0.5;
  /// Random seed (all randomness derives from it; shard s draws from
  /// the independent stream seeded with `seed ^ s`).
  uint64_t seed = 42;
  /// Objects sampled per read-throughput probe (capped at the
  /// population).
  uint64_t read_probe_samples = 256;
  /// Open one ObjectHandle per object at load time and run the aging /
  /// measurement hot loops through it (no per-operation name lookups).
  /// Off = the historical name-per-operation path, kept as the
  /// compatibility surface; both produce identical layouts.
  bool use_handles = true;
  /// Materialize read-probe payloads into one scratch buffer reused
  /// across the whole phase (integrity runs on data-retaining devices).
  /// Off = timing-only probes, no payload buffer at all.
  bool materialize_reads = false;
  /// Operations kept in flight against the repository during the aging
  /// and read-measurement phases. 1 (the default) is the synchronous
  /// path and reproduces every historical figure exactly; > 1 engages
  /// the back end's submission queue for those phases (bulk load always
  /// runs synchronously — its open-then-write pairs are dependent).
  uint32_t queue_depth = 1;
  /// Service order when queue_depth > 1.
  sim::SchedPolicy queue_policy = sim::SchedPolicy::kSptf;
  /// Shared-spindle submission style. On (the default) the engine
  /// leaves submitted operations outstanding on the plane, so this
  /// shard's host-side work (key selection, payload staging) overlaps
  /// other shards' service rounds. Off forces a drain after every
  /// operation — the lockstep A/B baseline that makes the overlap win
  /// measurable in host wall seconds. Ignored on dedicated spindles,
  /// where the synchronous path never waits on a peer. The total work
  /// (operations, bytes) is identical either way, but the per-op
  /// drains fence the plane after every operation, so the simulated
  /// interleave (and with it queue waits and seek interference)
  /// differs from the batched run-ahead submission — compare wall
  /// columns across the A/B, not simulated ones.
  bool overlap = true;
};

/// Throughput measured over an interval of simulated time.
struct ThroughputSample {
  uint64_t bytes = 0;
  uint64_t operations = 0;
  double seconds = 0.0;
  /// Real (host) wall seconds the phase took to execute, measured
  /// around the phase body with std::chrono::steady_clock. Orthogonal
  /// to `seconds`, which is simulated disk time: host wall is how long
  /// the harness itself ran, the number the submission-overlap work
  /// optimizes.
  double host_seconds = 0.0;

  double mb_per_s() const {
    return seconds > 0.0
               ? static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds
               : 0.0;
  }

  /// Folds in a sample measured on a concurrently running shard:
  /// bytes/operations sum, elapsed (simulated and host) is the max
  /// (the shards run in parallel, so the slowest shard bounds the
  /// interval).
  void MergeParallel(const ThroughputSample& other) {
    bytes += other.bytes;
    operations += other.operations;
    seconds = std::max(seconds, other.seconds);
    host_seconds = std::max(host_seconds, other.host_seconds);
  }
};

/// Result of a fused age-then-measure checkpoint (one dispatch, no
/// host-side barrier between the two phases).
struct AgeMeasureSample {
  ThroughputSample aged;
  ThroughputSample read;
};

/// Drives one shard's repository through the paper's workload phases.
class ShardEngine {
 public:
  /// `router` may be null: the engine then owns the whole key space
  /// (the single-shard configuration). The engine's RNG stream is
  /// seeded with `config.seed ^ shard`, so shard 0 draws exactly the
  /// stream the single-threaded runner drew.
  ShardEngine(core::ObjectRepository* repo, WorkloadConfig config,
              uint32_t shard, const core::ShardRouter* router);

  /// Inserts this shard's objects until its target occupancy is
  /// reached. Returns the write throughput during the load.
  Result<ThroughputSample> BulkLoad();

  /// Ages the shard with uniform-random safe-write replacements until
  /// `target_age`; returns the write throughput over the interval.
  Result<ThroughputSample> AgeTo(double target_age);

  /// Reads a uniform-random sample of this shard's objects; returns
  /// read throughput. Does not change the store's state (but does
  /// advance its clock).
  Result<ThroughputSample> MeasureReadThroughput();

  /// AgeTo followed by MeasureReadThroughput as ONE phase dispatch.
  /// Simulated results are identical to the two separate calls (each
  /// sub-phase still settles at its own fence); the point is the host
  /// side: under ShardedRunner a shard that finishes aging early moves
  /// straight into staging its read probes while slower shards are
  /// still aging, instead of idling at a cross-shard barrier.
  Result<AgeMeasureSample> AgeAndMeasure(double target_age);

  /// Current fragmentation across this shard's objects.
  core::FragmentationReport Fragmentation() const;

  double storage_age() const { return age_.age(); }
  uint64_t object_count() const { return keys_.size(); }
  const core::StorageAgeTracker& age_tracker() const { return age_; }
  core::ObjectRepository* repository() { return repo_; }
  const core::ObjectRepository* repository() const { return repo_; }
  /// Keys this shard owns, in load order.
  const std::vector<std::string>& keys() const { return keys_; }
  /// Open handles parallel to keys() (empty when use_handles is off).
  const std::vector<core::ObjectHandle>& handles() const { return handles_; }
  uint32_t shard() const { return shard_; }

 private:
  static std::string KeyFor(uint64_t index);
  /// Next key from the global namespace that this shard owns.
  std::string NextOwnedKey();

  core::ObjectRepository* repo_;
  WorkloadConfig config_;
  uint32_t shard_;
  const core::ShardRouter* router_;
  Rng rng_;
  core::StorageAgeTracker age_;
  std::vector<std::string> keys_;
  std::vector<uint64_t> sizes_;
  /// One open handle per object, for the whole object lifetime — the
  /// hot loops never resolve names. Tickets only; the repository owns
  /// the underlying state, so no teardown is needed here.
  std::vector<core::ObjectHandle> handles_;
  /// Read-probe payload scratch, reused across every Get of a measure
  /// phase (materialize_reads) instead of a per-op allocation.
  std::vector<uint8_t> read_scratch_;
  /// Victim indices of the current probe phase (drawn up front, which
  /// fixes the RNG order).
  std::vector<uint64_t> probe_victims_;
  /// Next unconsidered index in the global key namespace.
  uint64_t next_index_ = 0;
  bool loaded_ = false;
};

}  // namespace workload
}  // namespace lor

#endif  // LOREPO_WORKLOAD_SHARD_ENGINE_H_
