#include "alloc/free_space_map.h"

#include <algorithm>

namespace lor {
namespace alloc {

std::string_view FitPolicyName(FitPolicy policy) {
  switch (policy) {
    case FitPolicy::kFirstFit:
      return "first-fit";
    case FitPolicy::kBestFit:
      return "best-fit";
    case FitPolicy::kWorstFit:
      return "worst-fit";
    case FitPolicy::kNextFit:
      return "next-fit";
  }
  return "unknown";
}

FreeSpaceMap::FreeSpaceMap(uint64_t clusters) {
  if (clusters > 0) InsertRun(0, clusters);
}

FreeSpaceMap::FreeSpaceMap(const FreeSpaceMap& other) { *this = other; }

FreeSpaceMap& FreeSpaceMap::operator=(const FreeSpaceMap& other) {
  if (this == &other) return *this;
  other.FlushPendingResize();
  runs_ = other.runs_;
  by_size_ = other.by_size_;
  buckets_ = other.buckets_;
  bucket_mask_ = other.bucket_mask_;
  buckets_enabled_ = other.buckets_enabled_;
  pending_valid_ = false;
  shrink_cache_valid_ = false;
  free_clusters_ = other.free_clusters_;
  next_fit_cursor_ = other.next_fit_cursor_;
  return *this;
}

FreeSpaceMap::FreeSpaceMap(FreeSpaceMap&& other) noexcept {
  *this = std::move(other);
}

FreeSpaceMap& FreeSpaceMap::operator=(FreeSpaceMap&& other) noexcept {
  if (this == &other) return *this;
  other.FlushPendingResize();
  other.shrink_cache_valid_ = false;
  runs_ = std::move(other.runs_);
  by_size_ = std::move(other.by_size_);
  buckets_ = std::move(other.buckets_);
  bucket_mask_ = other.bucket_mask_;
  buckets_enabled_ = other.buckets_enabled_;
  pending_valid_ = false;
  shrink_cache_valid_ = false;
  free_clusters_ = other.free_clusters_;
  next_fit_cursor_ = other.next_fit_cursor_;
  return *this;
}

void FreeSpaceMap::FlushPendingResize() const {
  if (!pending_valid_) return;
  by_size_.erase(pending_stale_);
  by_size_.insert(pending_true_);
  pending_valid_ = false;
}

void FreeSpaceMap::EraseRun(RunMap::iterator it) {
  if (pending_valid_ && pending_true_.second == it->first) {
    by_size_.erase(pending_stale_);
    pending_valid_ = false;
  } else {
    by_size_.erase({it->second, it->first});
  }
  if (shrink_cache_valid_ && shrink_cache_it_ == it) {
    shrink_cache_valid_ = false;
  }
  if (buckets_enabled_) {
    const int bucket = BucketFor(it->second);
    buckets_[bucket].erase(it->first);
    if (buckets_[bucket].empty()) bucket_mask_ &= ~(1ULL << bucket);
  }
  free_clusters_ -= it->second;
  runs_.erase(it);
}

void FreeSpaceMap::InsertRun(uint64_t start, uint64_t length) {
  runs_.emplace(start, length);
  by_size_.emplace(length, start);
  if (buckets_enabled_) {
    const int bucket = BucketFor(length);
    buckets_[bucket].emplace(start, length);
    bucket_mask_ |= 1ULL << bucket;
  }
  free_clusters_ += length;
}

void FreeSpaceMap::BuildBuckets() {
  for (const auto& [start, length] : runs_) {
    const int bucket = BucketFor(length);
    buckets_[bucket].emplace(start, length);
    bucket_mask_ |= 1ULL << bucket;
  }
  buckets_enabled_ = true;
}

Status FreeSpaceMap::Free(const Extent& extent) {
  if (extent.empty()) return Status::OK();
  // Find the first run at or after the freed range and its predecessor.
  auto next = runs_.lower_bound(extent.start);
  if (next != runs_.end() && next->first < extent.end()) {
    return Status::InvalidArgument("double free: overlaps following run");
  }
  auto prev = next;
  if (prev != runs_.begin()) {
    --prev;
    if (prev->first + prev->second > extent.start) {
      return Status::InvalidArgument("double free: overlaps preceding run");
    }
  } else {
    prev = runs_.end();
  }

  uint64_t start = extent.start;
  uint64_t length = extent.length;
  if (prev != runs_.end() && prev->first + prev->second == extent.start) {
    start = prev->first;
    length += prev->second;
    EraseRun(prev);
  }
  if (next != runs_.end() && next->first == extent.end()) {
    length += next->second;
    EraseRun(next);
  }
  InsertRun(start, length);
  return Status::OK();
}

FreeSpaceMap::RunMap::iterator FreeSpaceMap::LargestRun() {
  FlushPendingResize();
  if (by_size_.empty()) return runs_.end();
  return runs_.find(by_size_.rbegin()->second);
}

uint64_t FreeSpaceMap::FindFrom(uint64_t length, uint64_t cursor) {
  if (!buckets_enabled_) BuildBuckets();
  uint64_t best = kNoRun;
  const int boundary = BucketFor(length);
  // Every non-empty bucket above the boundary guarantees a fit; each
  // contributes its lowest start at or after the cursor.
  uint64_t mask = bucket_mask_ & ~((2ULL << boundary) - 1);
  while (mask != 0) {
    const int k = std::countr_zero(mask);
    mask &= mask - 1;
    const auto& bucket = buckets_[k];
    auto it = cursor == 0 ? bucket.begin() : bucket.lower_bound(cursor);
    if (it != bucket.end() && it->first < best) best = it->first;
  }
  // Boundary bucket: lengths share the request's power-of-two band, so
  // each run needs an explicit check. Address order allows stopping as
  // soon as starts pass the best guaranteed candidate.
  const auto& bucket = buckets_[boundary];
  for (auto it = cursor == 0 ? bucket.begin() : bucket.lower_bound(cursor);
       it != bucket.end() && it->first < best; ++it) {
    if (it->second >= length) {
      best = it->first;
      break;
    }
  }
  return best;
}

FreeSpaceMap::RunMap::iterator FreeSpaceMap::SelectRun(uint64_t length,
                                                       FitPolicy policy) {
  switch (policy) {
    case FitPolicy::kFirstFit: {
      const uint64_t start = FindFrom(length, 0);
      return start == kNoRun ? runs_.end() : runs_.find(start);
    }
    case FitPolicy::kBestFit: {
      FlushPendingResize();
      auto sized = by_size_.lower_bound({length, 0});
      if (sized == by_size_.end()) return runs_.end();
      return runs_.find(sized->second);
    }
    case FitPolicy::kWorstFit: {
      auto it = LargestRun();
      if (it == runs_.end() || it->second < length) return runs_.end();
      return it;
    }
    case FitPolicy::kNextFit: {
      // First fit at or after the cursor; runs before it only qualify
      // on the wrapped pass (which no run >= cursor can win, so a plain
      // lowest-address query is equivalent).
      uint64_t start = FindFrom(length, next_fit_cursor_);
      if (start == kNoRun) start = FindFrom(length, 0);
      return start == kNoRun ? runs_.end() : runs_.find(start);
    }
  }
  return runs_.end();
}

Extent FreeSpaceMap::TakeFromRun(RunMap::iterator it, uint64_t take) {
  const uint64_t run_start = it->first;
  const uint64_t run_length = it->second;
  if (take >= run_length) {
    EraseRun(it);
  } else {
    // Shrink the run in place — [start, end) becomes [start+take, end)
    // — by re-keying the existing nodes of every index. This is the
    // sequential-extension hot path (one call per append request at
    // scale), so it must not allocate.
    const uint64_t new_start = run_start + take;
    const uint64_t new_length = run_length - take;
    // Defer the by_size_ re-key: repeated shrinks of the same run (the
    // sequential-extension pattern) collapse into one reconcile at the
    // next by_size_ read.
    if (pending_valid_ && pending_true_.second == run_start) {
      pending_true_ = {new_length, new_start};
    } else {
      FlushPendingResize();
      pending_stale_ = {run_length, run_start};
      pending_true_ = {new_length, new_start};
      pending_valid_ = true;
    }
    if (buckets_enabled_) {
      const int old_bucket = BucketFor(run_length);
      const int new_bucket = BucketFor(new_length);
      auto bucket_node = buckets_[old_bucket].extract(run_start);
      bucket_node.key() = new_start;
      bucket_node.mapped() = new_length;
      buckets_[new_bucket].insert(std::move(bucket_node));
      if (buckets_[old_bucket].empty()) bucket_mask_ &= ~(1ULL << old_bucket);
      bucket_mask_ |= 1ULL << new_bucket;
    }
    // The shifted key still sorts immediately before the old successor.
    auto next = std::next(it);
    auto run_node = runs_.extract(it);
    run_node.key() = new_start;
    run_node.mapped() = new_length;
    shrink_cache_it_ = runs_.insert(next, std::move(run_node));
    shrink_cache_valid_ = true;
    free_clusters_ -= take;
  }
  next_fit_cursor_ = run_start + take;
  return Extent{run_start, take};
}

Result<Extent> FreeSpaceMap::AllocateContiguous(uint64_t length,
                                                FitPolicy policy) {
  if (length == 0) return Status::InvalidArgument("zero-length allocation");
  auto it = SelectRun(length, policy);
  if (it == runs_.end()) {
    return Status::NoSpace("no contiguous run of requested length");
  }
  return TakeFromRun(it, length);
}

Extent FreeSpaceMap::AllocateUpTo(uint64_t max_length, FitPolicy policy) {
  if (max_length == 0 || runs_.empty()) return Extent{};
  auto it = SelectRun(max_length, policy);
  if (it == runs_.end()) {
    // No run fits the whole request; fall back to the largest run so the
    // caller makes forward progress (this is where fragmentation happens).
    it = LargestRun();
    if (it == runs_.end()) return Extent{};
  }
  return TakeFromRun(it, std::min(max_length, it->second));
}

Extent FreeSpaceMap::AllocateFrom(uint64_t cursor, uint64_t max_length) {
  if (max_length == 0 || runs_.empty()) return Extent{};
  auto it = runs_.lower_bound(cursor);
  if (it == runs_.end()) it = runs_.begin();
  return TakeFromRun(it, std::min(max_length, it->second));
}

Status FreeSpaceMap::AllocateAt(const Extent& extent) {
  if (extent.empty()) return Status::InvalidArgument("empty extent");
  if (!IsFree(extent)) return Status::NoSpace("requested range not free");
  auto it = runs_.upper_bound(extent.start);
  --it;  // IsFree guarantees a containing run exists.
  if (it->first == extent.start) {
    // Head take (the run-cache allocator's common case): reuse the
    // node-rekeying shrink, which AllocateAt must not let move the
    // next-fit cursor.
    const uint64_t cursor = next_fit_cursor_;
    TakeFromRun(it, extent.length);
    next_fit_cursor_ = cursor;
    return Status::OK();
  }
  const uint64_t run_start = it->first;
  const uint64_t run_length = it->second;
  EraseRun(it);
  InsertRun(run_start, extent.start - run_start);
  const uint64_t tail = run_start + run_length - extent.end();
  if (tail > 0) InsertRun(extent.end(), tail);
  return Status::OK();
}

uint64_t FreeSpaceMap::ExtendAt(uint64_t start, uint64_t max_length) {
  if (max_length == 0) return 0;
  if (shrink_cache_valid_ && shrink_cache_it_->first == start) {
    // The run shrunk last time starts exactly here — the sequential-
    // extension pattern. Skip the address lookup.
    const uint64_t take = std::min(max_length, shrink_cache_it_->second);
    TakeFromRun(shrink_cache_it_, take);
    return take;
  }
  auto it = runs_.upper_bound(start);
  if (it == runs_.begin()) return 0;
  --it;
  if (it->first > start || it->first + it->second <= start) return 0;
  if (it->first != start) {
    // `start` is inside the run but not at its head; split so the head
    // stays free.
    const uint64_t head = start - it->first;
    const uint64_t run_length = it->second;
    const uint64_t run_start = it->first;
    EraseRun(it);
    InsertRun(run_start, head);
    InsertRun(start, run_length - head);
    it = runs_.find(start);
  }
  const uint64_t take = std::min(max_length, it->second);
  TakeFromRun(it, take);
  return take;
}

uint64_t FreeSpaceMap::FreeRunFrom(uint64_t start) const {
  if (shrink_cache_valid_ && shrink_cache_it_->first == start) {
    return shrink_cache_it_->second;  // The sequential-extension pattern.
  }
  auto it = runs_.upper_bound(start);
  if (it == runs_.begin()) return 0;
  --it;
  const uint64_t end = it->first + it->second;
  return start < end ? end - start : 0;
}

bool FreeSpaceMap::IsFree(const Extent& extent) const {
  if (extent.empty()) return false;
  auto it = runs_.upper_bound(extent.start);
  if (it == runs_.begin()) return false;
  --it;
  return it->first <= extent.start && it->first + it->second >= extent.end();
}

uint64_t FreeSpaceMap::largest_run() const {
  FlushPendingResize();
  return by_size_.empty() ? 0 : by_size_.rbegin()->first;
}

FreeSpaceStats FreeSpaceMap::Stats() const {
  FreeSpaceStats s;
  s.free_clusters = free_clusters_;
  s.run_count = runs_.size();
  s.largest_run = largest_run();
  s.mean_run = runs_.empty() ? 0.0
                             : static_cast<double>(free_clusters_) /
                                   static_cast<double>(runs_.size());
  s.external_fragmentation =
      free_clusters_ == 0
          ? 0.0
          : 1.0 - static_cast<double>(s.largest_run) /
                      static_cast<double>(free_clusters_);
  return s;
}

std::vector<Extent> FreeSpaceMap::Snapshot() const {
  std::vector<Extent> out;
  out.reserve(runs_.size());
  for (const auto& [start, length] : runs_) out.push_back({start, length});
  return out;
}

std::vector<Extent> FreeSpaceMap::LargestRuns(uint32_t k) const {
  FlushPendingResize();
  std::vector<Extent> out;
  out.reserve(std::min<size_t>(k, by_size_.size()));
  for (auto it = by_size_.rbegin(); it != by_size_.rend() && out.size() < k;
       ++it) {
    out.push_back({it->second, it->first});
  }
  // by_size_ descending gives (size desc, start desc); fix ties to
  // (size desc, start asc).
  std::stable_sort(out.begin(), out.end(),
                   [](const Extent& a, const Extent& b) {
                     if (a.length != b.length) return a.length > b.length;
                     return a.start < b.start;
                   });
  return out;
}

Status FreeSpaceMap::CheckConsistency() const {
  FlushPendingResize();
  if (runs_.size() != by_size_.size()) {
    return Status::Corruption("index sizes disagree");
  }
  uint64_t total = 0;
  uint64_t prev_end = 0;
  uint64_t bucketed = 0;
  bool first = true;
  for (const auto& [start, length] : runs_) {
    if (length == 0) return Status::Corruption("zero-length run");
    if (!first && start <= prev_end) {
      return Status::Corruption(start == prev_end
                                    ? "uncoalesced adjacent runs"
                                    : "overlapping runs");
    }
    if (by_size_.find({length, start}) == by_size_.end()) {
      return Status::Corruption("run missing from size index");
    }
    if (buckets_enabled_) {
      const auto& bucket = buckets_[BucketFor(length)];
      auto it = bucket.find(start);
      if (it == bucket.end() || it->second != length) {
        return Status::Corruption("run missing from its size bucket");
      }
    }
    total += length;
    prev_end = start + length;
    first = false;
  }
  if (total != free_clusters_) {
    return Status::Corruption("free cluster count disagrees with runs");
  }
  for (int k = 0; k < kBucketCount; ++k) {
    bucketed += buckets_[k].size();
    const bool mask_bit = (bucket_mask_ >> k) & 1;
    if (mask_bit != !buckets_[k].empty()) {
      return Status::Corruption("bucket occupancy mask disagrees");
    }
    for (const auto& [start, length] : buckets_[k]) {
      if (BucketFor(length) != k) {
        return Status::Corruption("run filed in the wrong size bucket");
      }
    }
  }
  if (bucketed != (buckets_enabled_ ? runs_.size() : 0)) {
    return Status::Corruption("bucket index size disagrees with runs");
  }
  return Status::OK();
}

}  // namespace alloc
}  // namespace lor
