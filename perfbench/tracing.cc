#include "tracing.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "alloc/run_cache_allocator.h"

namespace lorbench {

using lor::Result;
using lor::Status;
using lor::core::ObjectHandle;

namespace {

AllocCounters Minus(const AllocCounters& a, const AllocCounters& b) {
  AllocCounters d;
  d.allocate_calls = a.allocate_calls - b.allocate_calls;
  d.free_calls = a.free_calls - b.free_calls;
  d.extents = a.extents - b.extents;
  d.hint_calls = a.hint_calls - b.hint_calls;
  d.hint_hits = a.hint_hits - b.hint_hits;
  d.allocate_timed = a.allocate_timed - b.allocate_timed;
  d.free_timed = a.free_timed - b.free_timed;
  d.allocate_timed_s = a.allocate_timed_s - b.allocate_timed_s;
  d.free_timed_s = a.free_timed_s - b.free_timed_s;
  return d;
}

AllocCounters Plus(const AllocCounters& a, const AllocCounters& b) {
  AllocCounters s;
  s.allocate_calls = a.allocate_calls + b.allocate_calls;
  s.free_calls = a.free_calls + b.free_calls;
  s.extents = a.extents + b.extents;
  s.hint_calls = a.hint_calls + b.hint_calls;
  s.hint_hits = a.hint_hits + b.hint_hits;
  s.allocate_timed = a.allocate_timed + b.allocate_timed;
  s.free_timed = a.free_timed + b.free_timed;
  s.allocate_timed_s = a.allocate_timed_s + b.allocate_timed_s;
  s.free_timed_s = a.free_timed_s + b.free_timed_s;
  return s;
}

double Scaled(double timed_s, uint64_t timed, uint64_t calls) {
  return timed == 0 ? 0.0
                    : timed_s * static_cast<double>(calls) /
                          static_cast<double>(timed);
}

}  // namespace

double AllocCounters::allocate_s() const {
  return Scaled(allocate_timed_s, allocate_timed, allocate_calls);
}

double AllocCounters::free_s() const {
  return Scaled(free_timed_s, free_timed, free_calls);
}

// -- TimingAllocator ---------------------------------------------------

TimingAllocator::TimingAllocator(
    std::unique_ptr<lor::alloc::ExtentAllocator> inner)
    : inner_(std::move(inner)) {
  // Median of back-to-back clock reads.
  std::vector<double> reads(255);
  for (double& r : reads) {
    const Clock::time_point start = Clock::now();
    r = Seconds(start, Clock::now());
  }
  std::nth_element(reads.begin(), reads.begin() + 127, reads.end());
  clock_s_ = reads[127];
}

bool TimingAllocator::Sample() {
  // 64-bit LCG; draw from its high half, whose bits are well mixed.
  sampler_ = sampler_ * 6364136223846793005ull + 1442695040888963407ull;
  return (sampler_ >> 32) % kAllocTimingStride == 0;
}

double TimingAllocator::Elapsed(Clock::time_point start) const {
  return std::max(0.0, Seconds(start, Clock::now()) - clock_s_);
}

Status TimingAllocator::Allocate(uint64_t length, uint64_t extend_hint,
                                 lor::alloc::ExtentList* out) {
  scratch_.clear();
  ++counters_.allocate_calls;
  Status s;
  if (Sample()) {
    const Clock::time_point start = Clock::now();
    s = inner_->Allocate(length, extend_hint, &scratch_);
    counters_.allocate_timed_s += Elapsed(start);
    ++counters_.allocate_timed;
  } else {
    s = inner_->Allocate(length, extend_hint, &scratch_);
  }
  if (!s.ok()) return s;
  counters_.extents += scratch_.size();
  if (extend_hint != lor::alloc::kNoHint) {
    ++counters_.hint_calls;
    if (!scratch_.empty() && scratch_.front().start == extend_hint) {
      ++counters_.hint_hits;
    }
  }
  for (const lor::alloc::Extent& e : scratch_) {
    lor::alloc::AppendCoalescing(out, e);
  }
  return s;
}

Status TimingAllocator::Free(const lor::alloc::Extent& extent) {
  ++counters_.free_calls;
  if (!Sample()) return inner_->Free(extent);
  const Clock::time_point start = Clock::now();
  Status s = inner_->Free(extent);
  counters_.free_timed_s += Elapsed(start);
  ++counters_.free_timed;
  return s;
}

// -- LayerCounters -----------------------------------------------------

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.device = device - o.device;
  d.pool_hits = pool_hits - o.pool_hits;
  d.pool_misses = pool_misses - o.pool_misses;
  d.pool_fills = pool_fills - o.pool_fills;
  d.pool_evictions = pool_evictions - o.pool_evictions;
  d.pool_writebacks = pool_writebacks - o.pool_writebacks;
  d.pool_eviction_refusals = pool_eviction_refusals - o.pool_eviction_refusals;
  d.pool_frame_allocs = pool_frame_allocs - o.pool_frame_allocs;
  d.pool_frame_recycles = pool_frame_recycles - o.pool_frame_recycles;
  d.fs_appends = fs_appends - o.fs_appends;
  d.fs_creates = fs_creates - o.fs_creates;
  d.fs_renames = fs_renames - o.fs_renames;
  d.db_log_records = db_log_records - o.db_log_records;
  d.db_log_bytes = db_log_bytes - o.db_log_bytes;
  d.db_log_busy_s = db_log_busy_s - o.db_log_busy_s;
  d.alloc = Minus(alloc, o.alloc);
  d.core_s = core_s - o.core_s;
  return d;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  device += o.device;
  pool_hits += o.pool_hits;
  pool_misses += o.pool_misses;
  pool_fills += o.pool_fills;
  pool_evictions += o.pool_evictions;
  pool_writebacks += o.pool_writebacks;
  pool_eviction_refusals += o.pool_eviction_refusals;
  pool_frame_allocs += o.pool_frame_allocs;
  pool_frame_recycles += o.pool_frame_recycles;
  fs_appends += o.fs_appends;
  fs_creates += o.fs_creates;
  fs_renames += o.fs_renames;
  db_log_records += o.db_log_records;
  db_log_bytes += o.db_log_bytes;
  db_log_busy_s += o.db_log_busy_s;
  alloc = Plus(alloc, o.alloc);
  core_s += o.core_s;
  return *this;
}

// -- ShardTrace --------------------------------------------------------

ShardTrace::ShardTrace(lor::core::FsRepository* fs,
                       lor::core::DbRepository* db, TimingAllocator* alloc)
    : fs_(fs), db_(db), alloc_(alloc) {
  assert((fs_ == nullptr) != (db_ == nullptr));
  // Construction-time charges (volume format) belong to no phase.
  at_last_fence_ = Read();
}

void ShardTrace::Record(Call call, Clock::time_point start,
                        Clock::time_point end) {
  const double s = Seconds(start, end);
  const size_t i = static_cast<size_t>(call);
  ++calls_[i];
  call_us_[i].push_back(s * 1e6);
  core_s_ += s;
}

void ShardTrace::Fence(Clock::time_point at) {
  last_fence_ = at;
  if (phase_ == Phase::kIdle) return;
  const LayerCounters now = Read();
  phases_[static_cast<size_t>(phase_)] += now - at_last_fence_;
  at_last_fence_ = now;
  phase_ = phase_ == Phase::kAge ? Phase::kRead : Phase::kIdle;
}

LayerCounters ShardTrace::Read() const {
  LayerCounters c;
  lor::core::ObjectRepository* repo =
      fs_ != nullptr ? static_cast<lor::core::ObjectRepository*>(fs_) : db_;
  c.device = repo->device_stats();
  const lor::sim::BufferPoolStats pool = repo->cache_stats();
  c.pool_hits = pool.hits;
  c.pool_misses = pool.misses;
  c.pool_fills = pool.fills;
  c.pool_evictions = pool.evictions;
  c.pool_writebacks = pool.writebacks;
  c.pool_eviction_refusals = pool.eviction_refusals;
  c.pool_frame_allocs = pool.frame_allocs;
  c.pool_frame_recycles = pool.frame_recycles;
  if (fs_ != nullptr) {
    const lor::fs::FileStoreStats& st = fs_->store()->stats();
    c.fs_appends = st.appends;
    c.fs_creates = st.creates;
    c.fs_renames = st.renames;
    c.alloc = alloc_->counters();
  } else {
    const lor::db::BlobStoreStats st = db_->blob_store()->stats();
    c.db_log_records = st.log_records;
    c.db_log_bytes = st.log_bytes;
    c.db_log_busy_s = db_->log_device()->stats().busy_time_s;
  }
  c.core_s = core_s_;
  return c;
}

lor::alloc::FreeSpaceStats ShardTrace::FreeStats() const {
  return alloc_ != nullptr ? alloc_->FreeStats()
                           : lor::alloc::FreeSpaceStats{};
}

// -- TimingRepository --------------------------------------------------

TimingRepository::TimingRepository(
    std::unique_ptr<lor::core::ObjectRepository> inner, ShardTrace* trace)
    : inner_(std::move(inner)), trace_(trace) {}

template <typename Fn>
auto TimingRepository::Timed(Call call, Fn&& fn) const {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  trace_->Record(call, start, Clock::now());
  return result;
}

Status TimingRepository::Put(const std::string& key, uint64_t size,
                             std::span<const uint8_t> data) {
  return Timed(Call::kPut, [&] { return inner_->Put(key, size, data); });
}

Status TimingRepository::SafeWrite(const std::string& key, uint64_t size,
                                   std::span<const uint8_t> data) {
  const Call call =
      trace_->phase() == Phase::kLoad ? Call::kPut : Call::kSafeWrite;
  return Timed(call, [&] { return inner_->SafeWrite(key, size, data); });
}

Status TimingRepository::Get(const std::string& key,
                             std::vector<uint8_t>* out) {
  return Timed(Call::kGet, [&] { return inner_->Get(key, out); });
}

Status TimingRepository::Delete(const std::string& key) {
  return Timed(Call::kOther, [&] { return inner_->Delete(key); });
}

bool TimingRepository::Exists(const std::string& key) const {
  return Timed(Call::kOther, [&] { return inner_->Exists(key); });
}

Result<lor::alloc::ExtentList> TimingRepository::GetLayout(
    const std::string& key) const {
  return Timed(Call::kOther, [&] { return inner_->GetLayout(key); });
}

Result<uint64_t> TimingRepository::GetSize(const std::string& key) const {
  return Timed(Call::kOther, [&] { return inner_->GetSize(key); });
}

Result<ObjectHandle> TimingRepository::Open(const std::string& key) {
  return Timed(Call::kOpen, [&] { return inner_->Open(key); });
}

Result<ObjectHandle> TimingRepository::OpenForWrite(const std::string& key) {
  return Timed(Call::kOpen, [&] { return inner_->OpenForWrite(key); });
}

Status TimingRepository::Release(ObjectHandle* handle) {
  return Timed(Call::kRelease, [&] { return inner_->Release(handle); });
}

Status TimingRepository::Get(const ObjectHandle& handle,
                             std::vector<uint8_t>* out) {
  return Timed(Call::kGet, [&] { return inner_->Get(handle, out); });
}

Status TimingRepository::SafeWrite(const ObjectHandle& handle, uint64_t size,
                                   std::span<const uint8_t> data) {
  const Call call =
      trace_->phase() == Phase::kLoad ? Call::kPut : Call::kSafeWrite;
  return Timed(call, [&] { return inner_->SafeWrite(handle, size, data); });
}

Status TimingRepository::Delete(ObjectHandle* handle) {
  return Timed(Call::kOther, [&] { return inner_->Delete(handle); });
}

Result<lor::alloc::ExtentList> TimingRepository::GetLayout(
    const ObjectHandle& handle) const {
  return Timed(Call::kOther, [&] { return inner_->GetLayout(handle); });
}

Result<uint64_t> TimingRepository::GetSize(const ObjectHandle& handle) const {
  return Timed(Call::kOther, [&] { return inner_->GetSize(handle); });
}

std::vector<std::string> TimingRepository::ListKeys() const {
  return inner_->ListKeys();
}

void TimingRepository::VisitObjects(
    const std::function<void(const std::string& key,
                             const lor::alloc::ExtentList& layout,
                             uint64_t size_bytes)>& visit) const {
  inner_->VisitObjects(visit);
}

const lor::core::FragmentationTracker*
TimingRepository::fragmentation_tracker() const {
  return inner_->fragmentation_tracker();
}

uint64_t TimingRepository::object_count() const {
  return inner_->object_count();
}
uint64_t TimingRepository::live_bytes() const { return inner_->live_bytes(); }
uint64_t TimingRepository::volume_bytes() const {
  return inner_->volume_bytes();
}
uint64_t TimingRepository::free_bytes() const { return inner_->free_bytes(); }
double TimingRepository::now() const { return inner_->now(); }

lor::sim::IoStats TimingRepository::device_stats() const {
  return inner_->device_stats();
}

lor::sim::BufferPoolStats TimingRepository::cache_stats() const {
  return inner_->cache_stats();
}

Status TimingRepository::FlushCache() {
  return Timed(Call::kDrain, [&] { return inner_->FlushCache(); });
}

// Leaving queue depth > 1 drains the queue, so depth changes book to
// the drain class along with DrainIo and SettleIo.
Status TimingRepository::SetQueueDepth(uint32_t depth,
                                       lor::sim::SchedPolicy policy) {
  return Timed(Call::kDrain,
               [&] { return inner_->SetQueueDepth(depth, policy); });
}

Status TimingRepository::DrainIo() {
  return Timed(Call::kDrain, [&] { return inner_->DrainIo(); });
}

Status TimingRepository::SettleIo() {
  const Clock::time_point start = Clock::now();
  Status s = inner_->SettleIo();
  const Clock::time_point end = Clock::now();
  trace_->Record(Call::kDrain, start, end);
  trace_->Fence(end);
  return s;
}

bool TimingRepository::shared_spindle() const {
  return inner_->shared_spindle();
}

const lor::sim::LatencyRecorder* TimingRepository::latency_recorder() const {
  return inner_->latency_recorder();
}

Result<lor::core::MountReport> TimingRepository::Mount() {
  return Timed(Call::kOther, [&] { return inner_->Mount(); });
}

Result<lor::core::FsckReport> TimingRepository::Fsck() {
  return Timed(Call::kOther, [&] { return inner_->Fsck(); });
}

Result<lor::core::ScrubReport> TimingRepository::Scrub(
    const lor::core::ScrubOptions& options) {
  return Timed(Call::kOther, [&] { return inner_->Scrub(options); });
}

Status TimingRepository::CheckConsistency() const {
  return inner_->CheckConsistency();
}

std::string TimingRepository::name() const { return inner_->name(); }

// -- TracedFactory -----------------------------------------------------

TracedFactory::TracedFactory(lor::core::FsRepositoryConfig base)
    : filesystem_(true), fs_base_(std::move(base)) {}

TracedFactory::TracedFactory(lor::core::DbRepositoryConfig base)
    : filesystem_(false), db_base_(std::move(base)) {}

std::unique_ptr<lor::core::ObjectRepository> TracedFactory::Create(
    uint32_t shard, uint32_t shard_count) const {
  assert(shard < shard_count);
  if (shard == 0) traces_.clear();  // A new deployment.
  const uint32_t owners = topology_.owners_per_spindle;
  if (filesystem_) {
    // FsRepositoryFactory::Create, with the allocator FileStore would
    // build by default constructed here and wrapped.
    lor::core::FsRepositoryConfig config = fs_base_;
    config.volume_bytes = fs_base_.volume_bytes / shard_count;
    config.cache.capacity_bytes = fs_base_.cache.capacity_bytes / shard_count;
    config.spindle = PlaneForShard(shard, shard_count, config.volume_bytes,
                                   config.disk, config.data_mode);
    config.spindle_owner = config.spindle != nullptr ? shard % owners : 0;
    const lor::fs::FileStoreOptions& store = config.store;
    const uint64_t clusters = config.volume_bytes / store.cluster_bytes;
    const uint64_t mft_clusters = std::max<uint64_t>(
        1, static_cast<uint64_t>(static_cast<double>(clusters) *
                                 store.mft_zone_fraction));
    auto alloc = std::make_unique<TimingAllocator>(
        std::make_unique<lor::alloc::RunCacheAllocator>(clusters, store.alloc,
                                                        mft_clusters));
    TimingAllocator* alloc_view = alloc.get();
    auto repo = std::make_unique<lor::core::FsRepository>(std::move(config),
                                                          std::move(alloc));
    traces_.push_back(
        std::make_unique<ShardTrace>(repo.get(), nullptr, alloc_view));
    return std::make_unique<TimingRepository>(std::move(repo),
                                              traces_.back().get());
  }
  lor::core::DbRepositoryConfig config = db_base_;
  config.volume_bytes = db_base_.volume_bytes / shard_count;
  config.log_volume_bytes = db_base_.log_volume_bytes / shard_count;
  config.cache.capacity_bytes = db_base_.cache.capacity_bytes / shard_count;
  config.spindle = PlaneForShard(shard, shard_count, config.volume_bytes,
                                 config.disk, config.data_mode);
  config.spindle_owner = config.spindle != nullptr ? shard % owners : 0;
  auto repo = std::make_unique<lor::core::DbRepository>(std::move(config));
  traces_.push_back(std::make_unique<ShardTrace>(nullptr, repo.get(), nullptr));
  return std::make_unique<TimingRepository>(std::move(repo),
                                            traces_.back().get());
}

}  // namespace lorbench
