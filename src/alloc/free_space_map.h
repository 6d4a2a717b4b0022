// FreeSpaceMap: a coalescing map of free cluster runs with pluggable fit
// policies. This is the mechanism underneath every allocator baseline;
// the NTFS-like run cache and the policy allocators are policies layered
// on top (the mechanism/policy split follows Wilson et al.'s malloc
// survey, which the paper cites).

#ifndef LOREPO_ALLOC_FREE_SPACE_MAP_H_
#define LOREPO_ALLOC_FREE_SPACE_MAP_H_

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "alloc/extent.h"
#include "util/result.h"
#include "util/status.h"

namespace lor {
namespace alloc {

/// Which free run a request is satisfied from.
enum class FitPolicy {
  kFirstFit,  ///< Lowest-addressed run that fits.
  kBestFit,   ///< Smallest run that fits (ties to lowest address).
  kWorstFit,  ///< Largest run (ties to lowest address).
  kNextFit,   ///< First fit starting from a roving cursor.
};

std::string_view FitPolicyName(FitPolicy policy);

/// Aggregate description of free space, used by experiments.
struct FreeSpaceStats {
  uint64_t free_clusters = 0;
  uint64_t run_count = 0;
  uint64_t largest_run = 0;
  double mean_run = 0.0;
  /// 1 - largest_run/free_clusters; 0 when free space is one run.
  double external_fragmentation = 0.0;
};

/// Address-ordered run map with a size-ordered secondary index and
/// power-of-two size-bucketed free lists (the bblocks extentfs idiom).
///
/// Complexity: Free/AllocateAt/ExtendAt and best/worst-fit selection are
/// O(log R) for R runs. First-fit and next-fit select through the size
/// buckets: every bucket that guarantees a fit contributes its lowest
/// candidate in O(log R), and only the single boundary bucket (runs
/// within the same power-of-two band as the request) is scanned, with
/// early exit once addresses pass the best candidate — O(log buckets +
/// log R) in practice instead of the former O(R) address-order scans.
/// Placement decisions are bit-identical to the linear scans.
///
/// The bucket index is pay-as-you-go: it is built on the first
/// first/next-fit query and maintained from then on, so callers that
/// never issue those queries (the NTFS run-cache path lives on
/// ExtendAt/AllocateAt/ForEachLargestRun) carry no bucket overhead.
class FreeSpaceMap {
 public:
  FreeSpaceMap() = default;

  /// Map with a single free run [0, clusters).
  explicit FreeSpaceMap(uint64_t clusters);

  // Copies/moves reconcile the deferred by_size_ re-key and drop the
  // shrink-position cache (its iterator must not cross containers).
  FreeSpaceMap(const FreeSpaceMap& other);
  FreeSpaceMap& operator=(const FreeSpaceMap& other);
  FreeSpaceMap(FreeSpaceMap&& other) noexcept;
  FreeSpaceMap& operator=(FreeSpaceMap&& other) noexcept;

  /// Marks a run free, coalescing with neighbours. Double frees are
  /// rejected with InvalidArgument.
  Status Free(const Extent& extent);

  /// Allocates exactly `length` contiguous clusters per `policy`, or
  /// NoSpace if no single run is large enough.
  Result<Extent> AllocateContiguous(uint64_t length, FitPolicy policy);

  /// Allocates up to `max_length` clusters from the run chosen by
  /// `policy` (taking the run's head). Returns an empty extent when the
  /// map is empty. Never splits across runs — callers loop to build
  /// multi-extent allocations.
  Extent AllocateUpTo(uint64_t max_length, FitPolicy policy);

  /// Cursor-sweep allocation: takes up to `max_length` clusters from
  /// the head of the first free run starting at or after `cursor`,
  /// wrapping to the lowest run when none follows. Any run qualifies
  /// regardless of size. Returns an empty extent when the map is empty.
  /// This models a bitmap scan from a moving allocation hint (the NTFS
  /// first-fit-from-hint behaviour).
  Extent AllocateFrom(uint64_t cursor, uint64_t max_length);

  /// Claims the specific range if (and only if) it is entirely free.
  Status AllocateAt(const Extent& extent);

  /// Extends an allocation in place: claims up to `max_length` clusters
  /// starting exactly at `start`, returning how many were claimed (0 if
  /// `start` is not free).
  uint64_t ExtendAt(uint64_t start, uint64_t max_length);

  /// Free clusters from `start` to the end of the free run containing
  /// it: how many clusters ExtendAt(start, ...) could claim. 0 when
  /// `start` is allocated.
  uint64_t FreeRunFrom(uint64_t start) const;

  /// True if every cluster of `extent` is free.
  bool IsFree(const Extent& extent) const;

  uint64_t free_clusters() const { return free_clusters_; }
  uint64_t run_count() const { return runs_.size(); }
  uint64_t largest_run() const;
  FreeSpaceStats Stats() const;

  /// All free runs in address order (for analysis and tests).
  std::vector<Extent> Snapshot() const;

  /// Up to `k` largest runs, ordered by decreasing size then increasing
  /// start — the ordering of NTFS's run cache.
  std::vector<Extent> LargestRuns(uint32_t k) const;

  /// Allocation-free walk over the same `k`-run subset LargestRuns
  /// returns, in (size desc, start desc) iteration order. `fn` returns
  /// false to stop early. Hot-path alternative for callers (the NTFS
  /// run cache) that only need one pass and no materialized vector;
  /// note the tie order differs from LargestRuns' sorted output.
  template <typename Fn>
  void ForEachLargestRun(uint32_t k, Fn&& fn) const {
    FlushPendingResize();
    uint32_t seen = 0;
    for (auto it = by_size_.rbegin(); it != by_size_.rend() && seen < k;
         ++it, ++seen) {
      if (!fn(Extent{it->second, it->first})) return;
    }
  }

  /// Checks internal invariants (index agreement, no adjacency); used by
  /// property tests.
  Status CheckConsistency() const;

 private:
  using RunMap = std::map<uint64_t, uint64_t>;  // start -> length

  /// One free list per power-of-two size class: bucket k holds runs
  /// with length in [2^k, 2^(k+1)), address-ordered.
  static constexpr int kBucketCount = 64;
  static int BucketFor(uint64_t length) {
    return std::bit_width(length) - 1;  // length >= 1 always holds.
  }

  /// Removes a run from all indexes.
  void EraseRun(RunMap::iterator it);
  /// Inserts a run into all indexes (no coalescing).
  void InsertRun(uint64_t start, uint64_t length);
  /// Chooses a run with length >= `length`, or runs_.end().
  RunMap::iterator SelectRun(uint64_t length, FitPolicy policy);
  /// Largest run in the map, or runs_.end().
  RunMap::iterator LargestRun();
  /// Takes `take` clusters from the head of run `it`.
  Extent TakeFromRun(RunMap::iterator it, uint64_t take);
  /// Lowest start >= `cursor` among runs with length >= `length`
  /// (bucketed first-fit query), or kNoRun. Builds the bucket index on
  /// first use.
  uint64_t FindFrom(uint64_t length, uint64_t cursor);
  /// Populates the bucket index from runs_ and starts maintaining it.
  void BuildBuckets();
  /// Applies the deferred by_size_ re-key of the run under sequential
  /// shrinking (see pending_* below). Must run before any by_size_
  /// read; mutates only mutable state so const readers can call it.
  void FlushPendingResize() const;

  static constexpr uint64_t kNoRun = ~0ULL;

  RunMap runs_;
  /// (length, start). For the single run recorded in pending_*, the
  /// entry is stale until FlushPendingResize() runs; everything else is
  /// exact. Mutable so const readers can reconcile.
  mutable std::set<std::pair<uint64_t, uint64_t>> by_size_;
  std::array<std::map<uint64_t, uint64_t>, kBucketCount>
      buckets_;                   // Per size class: start -> length.
  uint64_t bucket_mask_ = 0;      ///< Bit k set iff buckets_[k] non-empty.
  bool buckets_enabled_ = false;  ///< Built on first first/next-fit query.
  /// Sequential extension shrinks one run thousands of times in a row;
  /// its by_size_ entry is re-keyed lazily (one reconcile per reader
  /// instead of two tree walks per shrink). `pending_stale_` is the key
  /// still present in by_size_, `pending_true_` the live (length,
  /// start) held by runs_.
  mutable std::pair<uint64_t, uint64_t> pending_stale_{};
  mutable std::pair<uint64_t, uint64_t> pending_true_{};
  mutable bool pending_valid_ = false;
  /// Position of the most recently shrunk run: lets the next ExtendAt
  /// at its head skip the address lookup entirely.
  RunMap::iterator shrink_cache_it_{};
  bool shrink_cache_valid_ = false;
  uint64_t free_clusters_ = 0;
  uint64_t next_fit_cursor_ = 0;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_FREE_SPACE_MAP_H_
