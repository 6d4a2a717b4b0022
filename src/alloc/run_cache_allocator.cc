#include "alloc/run_cache_allocator.h"

#include <algorithm>

namespace lor {
namespace alloc {

RunCacheAllocator::RunCacheAllocator(uint64_t clusters,
                                     RunCacheOptions options,
                                     uint64_t reserved)
    : options_(options), map_(0), deferred_(options.commit_interval) {
  if (clusters > reserved) {
    Status s = map_.Free({reserved, clusters - reserved});
    (void)s;
  }
  band_limit_ =
      reserved + static_cast<uint64_t>(
                     static_cast<double>(clusters - reserved) *
                     options_.outer_band_fraction);
}

Extent RunCacheAllocator::TakeRun(uint64_t length, bool new_stream) {
  // One allocation-free pass over the run cache (the `cache_size`
  // largest runs) computes every candidate the policy can pick:
  //   * outer: lowest-offset fitting run starting inside the outer band,
  //   * best:  snuggest fitting cached run (ties to the highest offset,
  //            matching the former size-descending rescan),
  //   * largest: the cache head (ties to the lowest cached offset),
  // exactly as the former materialize-and-sort selection chose them.
  constexpr uint64_t kNone = ~0ULL;
  bool any = false;
  uint64_t largest_length = 0;
  uint64_t largest_start = 0;
  uint64_t outer_start = kNone;
  uint64_t best_length = 0;
  uint64_t best_start = kNone;
  map_.ForEachLargestRun(options_.cache_size, [&](const Extent& run) {
    if (!any) {
      any = true;
      largest_length = run.length;
    }
    if (run.length == largest_length) {
      largest_start = run.start;  // Walk is start-descending within ties.
    }
    if (run.length >= length) {
      if (run.start < band_limit_ && run.start < outer_start) {
        outer_start = run.start;
      }
      if (best_start == kNone || run.length < best_length) {
        best_length = run.length;
        best_start = run.start;  // First of a tie group = highest start.
      }
    }
    return true;
  });
  if (!any) return Extent{};

  uint64_t chosen_start = outer_start;
  uint64_t take = length;

  const bool sweep =
      options_.selection == RunSelection::kCursorSweep ||
      (options_.selection == RunSelection::kSweepThenBestFit && new_stream);
  if (chosen_start == kNone && sweep) {
    Extent taken = map_.AllocateFrom(sweep_cursor_, length);
    if (!taken.empty()) sweep_cursor_ = taken.end();
    return taken;
  }

  if (chosen_start == kNone &&
      (options_.selection == RunSelection::kBestFitCached ||
       options_.selection == RunSelection::kSweepThenBestFit)) {
    chosen_start = best_start;
    // Nothing fits: fall through to consume the largest whole.
  }

  // Largest-first path: when even the largest run is smaller than the
  // request, it is consumed whole and the caller loops — the file
  // fragments.
  if (chosen_start == kNone) {
    chosen_start = largest_start;
    take = std::min(length, largest_length);
  }
  Extent result{chosen_start, take};
  Status s = map_.AllocateAt(result);
  if (!s.ok()) return Extent{};
  return result;
}

Status RunCacheAllocator::Allocate(uint64_t length, uint64_t extend_hint,
                                   ExtentList* out) {
  if (length == 0) return Status::InvalidArgument("zero-length allocation");
  if (length > map_.free_clusters()) {
    // Space pressure forces a journal commit before failing, as NTFS
    // does when the volume approaches full.
    LOR_RETURN_IF_ERROR(deferred_.Commit(&map_));
    if (length > map_.free_clusters()) {
      return Status::NoSpace("allocation exceeds free clusters");
    }
  }

  ExtentList acquired;
  uint64_t remaining = length;
  const bool new_stream = extend_hint == kNoHint;

  if (options_.allow_extension && extend_hint != kNoHint) {
    const uint64_t got = map_.ExtendAt(extend_hint, remaining);
    if (got > 0) {
      acquired.push_back({extend_hint, got});
      remaining -= got;
    }
  }

  while (remaining > 0) {
    Extent e = TakeRun(remaining, new_stream);
    if (e.empty()) {
      for (const Extent& a : acquired) {
        Status s = map_.Free(a);
        (void)s;
      }
      return Status::NoSpace("free space exhausted mid-allocation");
    }
    acquired.push_back(e);
    remaining -= e.length;
  }

  for (const Extent& e : acquired) AppendCoalescing(out, e);
  return Status::OK();
}

uint64_t RunCacheAllocator::AllocateRun(uint64_t extend_hint,
                                        uint64_t request_length,
                                        uint64_t max_requests,
                                        ExtentList* out) {
  if (!options_.allow_extension || extend_hint == kNoHint ||
      request_length == 0) {
    return 0;
  }
  // A request that fits in the free run at the hint is served by
  // ExtendAt alone, and never trips Allocate's space-pressure commit:
  // the run counts toward free_clusters(), so the request fits there
  // too. Consecutive head takes of one run leave the map as one take of
  // their sum does.
  const uint64_t requests =
      std::min(max_requests, map_.FreeRunFrom(extend_hint) / request_length);
  if (requests == 0) return 0;
  const uint64_t length = requests * request_length;
  map_.ExtendAt(extend_hint, length);
  AppendCoalescing(out, {extend_hint, length});
  return requests;
}

Status RunCacheAllocator::Free(const Extent& extent) {
  if (extent.empty()) return Status::OK();
  if (options_.deferred_free) {
    deferred_.Defer(extent);
    return Status::OK();
  }
  return map_.Free(extent);
}

void RunCacheAllocator::Tick() {
  if (options_.deferred_free) {
    Status s = deferred_.Tick(&map_);
    (void)s;
  }
}

void RunCacheAllocator::CommitPending() {
  Status s = deferred_.Commit(&map_);
  (void)s;
}

}  // namespace alloc
}  // namespace lor
