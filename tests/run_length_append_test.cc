// Exactness of run-length append charging.
//
// FileStore::AppendStream claims and charges each run of in-place tail
// extensions with one allocator call (ExtentAllocator::AllocateRun) and
// one device call (BlockDevice::WriteStreamRun). The 64 KiB request
// stays the modelled unit; only host work changes. These tests run one
// seeded put / safe-write / get stream twice — once on the run path,
// once through an allocator wrapper that does not forward the run hook
// (so every request takes the per-request path) — and require every
// observable to match bit for bit: the clock, every IoStats field, the
// extent lists, the free-space map, FileStoreStats, the fragmentation
// tracker, payload hashes and block checksums, latency histograms,
// buffer-pool counters (when a pool fronts the device, whose appends
// take the run path through BufferPool::WriteStreamRun), crash-cut
// outcomes, and the status of every operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc/run_cache_allocator.h"
#include "core/fs_repository.h"
#include "sim/block_device.h"
#include "sim/fault_injector.h"
#include "sim/io_scheduler.h"
#include "sim/media_fault.h"
#include "sim/spindle_plane.h"
#include "util/fnv.h"
#include "util/random.h"

namespace lor {
namespace {

constexpr uint64_t kVolume = 64 * kMiB;
constexpr uint64_t kRequest = 64 * kKiB;
constexpr uint64_t kObjects = 40;
constexpr uint64_t kSafeWrites = 120;

// ---------------------------------------------------------------------
// Allocator wrappers.
// ---------------------------------------------------------------------

/// Forwards every ExtentAllocator virtual except AllocateRun, so the
/// file store takes its per-request path (as a tracing wrapper that
/// predates the hook does), and counts Allocate calls.
class PerRequestAllocator : public alloc::ExtentAllocator {
 public:
  explicit PerRequestAllocator(std::unique_ptr<alloc::ExtentAllocator> inner)
      : inner_(std::move(inner)) {}

  Status Allocate(uint64_t length, uint64_t extend_hint,
                  alloc::ExtentList* out) override {
    ++allocate_calls_;
    return inner_->Allocate(length, extend_hint, out);
  }
  Status Free(const alloc::Extent& extent) override {
    return inner_->Free(extent);
  }
  void Tick() override { inner_->Tick(); }
  void CommitPending() override { inner_->CommitPending(); }
  uint64_t free_clusters() const override { return inner_->free_clusters(); }
  uint64_t total_unused_clusters() const override {
    return inner_->total_unused_clusters();
  }
  alloc::FreeSpaceStats FreeStats() const override {
    return inner_->FreeStats();
  }
  alloc::FreeSpaceMap* free_map() override { return inner_->free_map(); }
  std::string name() const override { return inner_->name(); }

  uint64_t allocate_calls() const { return allocate_calls_; }
  uint64_t runs_claimed() const { return runs_claimed_; }

 protected:
  std::unique_ptr<alloc::ExtentAllocator> inner_;
  uint64_t allocate_calls_ = 0;
  uint64_t runs_claimed_ = 0;
};

/// The same counters with the run hook forwarded: the run path.
class RunAllocator final : public PerRequestAllocator {
 public:
  using PerRequestAllocator::PerRequestAllocator;

  uint64_t AllocateRun(uint64_t extend_hint, uint64_t request_length,
                       uint64_t max_requests,
                       alloc::ExtentList* out) override {
    const uint64_t n =
        inner_->AllocateRun(extend_hint, request_length, max_requests, out);
    if (n > 0) ++runs_claimed_;
    return n;
  }
};

enum class Path { kRun, kPerRequest };

/// The allocator FileStore would build by default for `config`,
/// wrapped for `path`.
std::unique_ptr<PerRequestAllocator> MakeAllocator(
    const core::FsRepositoryConfig& config, Path path) {
  const fs::FileStoreOptions& store = config.store;
  const uint64_t clusters = config.volume_bytes / store.cluster_bytes;
  const uint64_t mft_clusters = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(clusters) *
                               store.mft_zone_fraction));
  auto inner = std::make_unique<alloc::RunCacheAllocator>(
      clusters, store.alloc, mft_clusters);
  if (path == Path::kRun) {
    return std::make_unique<RunAllocator>(std::move(inner));
  }
  return std::make_unique<PerRequestAllocator>(std::move(inner));
}

// ---------------------------------------------------------------------
// The seeded op stream.
// ---------------------------------------------------------------------

/// Half whole-request sizes (pure runs), half arbitrary byte counts (a
/// partial final request, unaligned sizes).
uint64_t NextSize(Rng* rng) {
  if (rng->Bernoulli(0.5)) return rng->UniformRange(1, 32) * kRequest;
  return rng->UniformRange(1, 2 * kMiB);
}

std::vector<uint8_t> PayloadFor(uint64_t size, uint64_t salt) {
  std::vector<uint8_t> data(size);
  for (uint64_t i = 0; i < size; ++i) {
    data[i] = static_cast<uint8_t>(i * 131 + salt * 7 + (i >> 12));
  }
  return data;
}

std::string Key(uint64_t i) { return "obj" + std::to_string(i); }

/// Drives the stream: `kObjects` puts, then safe writes to random keys
/// with a get after every fifth, until `ops` safe writes were issued or
/// `stop()` holds. Appends one line per operation to `log` (status, and
/// the read payload's hash for gets).
void RunStream(core::ObjectRepository* repo, uint64_t seed, bool payload,
               bool load, uint64_t ops, const std::function<bool()>& stop,
               std::vector<std::string>* log) {
  Rng rng(seed);
  if (load) {
    for (uint64_t i = 0; i < kObjects; ++i) {
      const uint64_t size = NextSize(&rng);
      const std::vector<uint8_t> data =
          payload ? PayloadFor(size, i) : std::vector<uint8_t>();
      log->push_back("put " + Key(i) + " " +
                     repo->Put(Key(i), size, data).ToString());
    }
  }
  for (uint64_t op = 0; op < ops && !(stop && stop()); ++op) {
    const uint64_t victim = rng.Uniform(kObjects);
    const uint64_t size = NextSize(&rng);
    const std::vector<uint8_t> data =
        payload ? PayloadFor(size, op + kObjects) : std::vector<uint8_t>();
    log->push_back("safewrite " + Key(victim) + " " +
                   repo->SafeWrite(Key(victim), size, data).ToString());
    if (op % 5 == 0) {
      std::vector<uint8_t> out;
      Status s = repo->Get(Key(victim), &out);
      log->push_back("get " + Key(victim) + " " + s.ToString() + " " +
                     std::to_string(Fnv(out)));
    }
  }
}

// ---------------------------------------------------------------------
// What must match.
// ---------------------------------------------------------------------

struct FileDigest {
  uint64_t size = 0;
  alloc::ExtentList extents;
  uint64_t allocated_clusters = 0;
  bool hash_valid = false;
  uint64_t payload_hash = 0;
  std::vector<uint64_t> block_sums;
  uint64_t tail_hash = 0;
};

struct StoreDigest {
  double now = 0.0;
  sim::IoStats io;
  std::map<std::string, FileDigest> files;
  std::vector<alloc::Extent> free_runs;
  uint64_t free_clusters = 0;
  uint64_t unused_clusters = 0;
  fs::FileStoreStats stats;
  core::FragmentationReport tracker;
  uint64_t tracker_fragments = 0;
  uint64_t tracker_bytes = 0;
  std::string latency;
  sim::BufferPoolStats cache;
  std::string consistency;
};

StoreDigest Digest(core::FsRepository* repo) {
  StoreDigest d;
  d.now = repo->now();
  d.io = repo->device_stats();
  fs::FileStore* store = repo->store();
  store->VisitFiles([&](const std::string& name, const fs::FileInfo& info) {
    FileDigest f;
    f.size = info.size_bytes;
    f.extents = info.extents;
    f.allocated_clusters = info.allocated_clusters;
    f.hash_valid = info.hash_valid;
    f.payload_hash = info.payload_hash;
    f.block_sums = info.block_sums;
    f.tail_hash = info.tail_hash;
    d.files[name] = std::move(f);
  });
  d.free_runs = store->allocator()->free_map()->Snapshot();
  d.free_clusters = store->allocator()->free_clusters();
  d.unused_clusters = store->allocator()->total_unused_clusters();
  d.stats = store->stats();
  d.tracker = store->fragmentation_tracker().Snapshot();
  d.tracker_fragments = store->fragmentation_tracker().total_fragments();
  d.tracker_bytes = store->fragmentation_tracker().total_bytes();
  d.latency = repo->latency_recorder()->ToString();
  d.cache = repo->cache_stats();
  d.consistency = repo->CheckConsistency().ToString();
  return d;
}

void ExpectSameIo(const sim::IoStats& a, const sim::IoStats& b) {
  // Exact equality on every field, doubles included.
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.sequential_hits, b.sequential_hits);
  EXPECT_EQ(a.vectored_requests, b.vectored_requests);
  EXPECT_EQ(a.coalesced_runs, b.coalesced_runs);
  EXPECT_EQ(a.seek_time_s, b.seek_time_s);
  EXPECT_EQ(a.rotational_time_s, b.rotational_time_s);
  EXPECT_EQ(a.transfer_time_s, b.transfer_time_s);
  EXPECT_EQ(a.busy_time_s, b.busy_time_s);
  EXPECT_EQ(a.interference_seeks, b.interference_seeks);
  EXPECT_EQ(a.interference_seek_time_s, b.interference_seek_time_s);
  EXPECT_EQ(a.queue_wait_s, b.queue_wait_s);
  EXPECT_EQ(a.media_read_errors, b.media_read_errors);
  EXPECT_EQ(a.degraded_requests, b.degraded_requests);
  EXPECT_EQ(a.degraded_time_s, b.degraded_time_s);
}

void ExpectSamePool(const sim::BufferPoolStats& a,
                    const sim::BufferPoolStats& b) {
  // Every counter but index_searches, which counts host work the run
  // path is there to save.
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.fills, b.fills);
  EXPECT_EQ(a.evictions, b.evictions);
  EXPECT_EQ(a.writebacks, b.writebacks);
  EXPECT_EQ(a.invalidations, b.invalidations);
  EXPECT_EQ(a.hit_bytes, b.hit_bytes);
  EXPECT_EQ(a.miss_bytes, b.miss_bytes);
  EXPECT_EQ(a.fill_bytes, b.fill_bytes);
  EXPECT_EQ(a.writeback_bytes, b.writeback_bytes);
  EXPECT_EQ(a.frame_allocs, b.frame_allocs);
  EXPECT_EQ(a.frame_recycles, b.frame_recycles);
  EXPECT_EQ(a.pinned_hits, b.pinned_hits);
  EXPECT_EQ(a.eviction_refusals, b.eviction_refusals);
  EXPECT_EQ(a.write_installs, b.write_installs);
  EXPECT_EQ(a.forced_write_through, b.forced_write_through);
}

void ExpectSameStore(const StoreDigest& a, const StoreDigest& b) {
  EXPECT_EQ(a.now, b.now);
  ExpectSameIo(a.io, b.io);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (const auto& [name, fa] : a.files) {
    auto it = b.files.find(name);
    ASSERT_NE(it, b.files.end()) << name;
    const FileDigest& fb = it->second;
    EXPECT_EQ(fa.size, fb.size) << name;
    EXPECT_EQ(fa.extents, fb.extents) << name;
    EXPECT_EQ(fa.allocated_clusters, fb.allocated_clusters) << name;
    EXPECT_EQ(fa.hash_valid, fb.hash_valid) << name;
    EXPECT_EQ(fa.payload_hash, fb.payload_hash) << name;
    EXPECT_EQ(fa.block_sums, fb.block_sums) << name;
    EXPECT_EQ(fa.tail_hash, fb.tail_hash) << name;
  }
  EXPECT_EQ(a.free_runs, b.free_runs);
  EXPECT_EQ(a.free_clusters, b.free_clusters);
  EXPECT_EQ(a.unused_clusters, b.unused_clusters);
  EXPECT_EQ(a.stats.file_count, b.stats.file_count);
  EXPECT_EQ(a.stats.live_bytes, b.stats.live_bytes);
  EXPECT_EQ(a.stats.creates, b.stats.creates);
  EXPECT_EQ(a.stats.deletes, b.stats.deletes);
  EXPECT_EQ(a.stats.renames, b.stats.renames);
  EXPECT_EQ(a.stats.appends, b.stats.appends);
  EXPECT_EQ(a.stats.reads, b.stats.reads);
  EXPECT_EQ(a.tracker.objects, b.tracker.objects);
  EXPECT_EQ(a.tracker.fragments_per_object, b.tracker.fragments_per_object);
  EXPECT_EQ(a.tracker.max_fragments, b.tracker.max_fragments);
  EXPECT_EQ(a.tracker.p50_fragments, b.tracker.p50_fragments);
  EXPECT_EQ(a.tracker.p99_fragments, b.tracker.p99_fragments);
  EXPECT_EQ(a.tracker.mean_fragment_bytes, b.tracker.mean_fragment_bytes);
  EXPECT_EQ(a.tracker.contiguous_fraction, b.tracker.contiguous_fraction);
  EXPECT_EQ(a.tracker_fragments, b.tracker_fragments);
  EXPECT_EQ(a.tracker_bytes, b.tracker_bytes);
  EXPECT_EQ(a.latency, b.latency);
  ExpectSamePool(a.cache, b.cache);
  EXPECT_EQ(a.consistency, "OK");
  EXPECT_EQ(b.consistency, "OK");
}

// ---------------------------------------------------------------------
// Dedicated-spindle scenarios.
// ---------------------------------------------------------------------

struct Scenario {
  uint32_t queue_depth = 1;
  bool retain = false;  ///< kRetain device, real payload bytes.
  uint64_t cache_bytes = 0;
  bool media_attached = false;   ///< Model attached, never armed.
  bool media_degraded = false;   ///< Armed: degraded regions only.
  bool crash = false;            ///< Armed injector, cut, remount.
  bool preallocate = false;      ///< Safe writes preallocate the temp.
};

struct Outcome {
  std::vector<std::string> log;
  StoreDigest store;
  uint64_t allocate_calls = 0;
  uint64_t runs_claimed = 0;
  sim::CrashReport crash;
  core::MountReport mount;
};

Outcome RunScenario(const Scenario& s, Path path, uint64_t seed) {
  core::FsRepositoryConfig config;
  config.volume_bytes = kVolume;
  config.write_request_bytes = kRequest;
  config.cache.capacity_bytes = s.cache_bytes;
  config.preallocate_on_safe_write = s.preallocate;
  if (s.retain || s.crash) config.data_mode = sim::DataMode::kRetain;
  std::unique_ptr<PerRequestAllocator> alloc = MakeAllocator(config, path);
  PerRequestAllocator* counter = alloc.get();
  core::FsRepository repo(config, std::move(alloc));

  sim::MediaFaultModel media;
  if (s.media_attached || s.media_degraded) {
    repo.device()->AttachMediaFaults(&media);
  }
  if (s.media_degraded) {
    sim::MediaFaultSpec spec;
    spec.seed = seed;
    spec.degraded_rate = 0.2;
    media.Arm(spec);
  }
  sim::FaultInjector injector;
  if (s.crash) repo.device()->AttachFaultInjector(&injector);

  Outcome out;
  const bool payload = s.retain || s.crash;
  EXPECT_TRUE(repo.SetQueueDepth(s.queue_depth).ok());
  if (!s.crash) {
    RunStream(&repo, seed, payload, /*load=*/true, kSafeWrites, nullptr,
              &out.log);
    EXPECT_TRUE(repo.DrainIo().ok());
  } else {
    RunStream(&repo, seed, payload, /*load=*/true, 0, nullptr, &out.log);
    EXPECT_TRUE(repo.DrainIo().ok());
    sim::CrashSpec spec;
    spec.crash_after_writes = 150;
    spec.seed = seed;
    injector.Arm(spec);
    RunStream(&repo, seed + 1, payload, /*load=*/false, kSafeWrites,
              [&] { return injector.tripped(); }, &out.log);
    EXPECT_TRUE(injector.tripped());
    // Recovery rebuilds free space on a fresh allocator: read the
    // counters while the wrapper is still installed.
    out.allocate_calls = counter->allocate_calls();
    out.runs_claimed = counter->runs_claimed();
    out.crash = injector.MaterializeCrash();
    auto mount = repo.Mount();
    EXPECT_TRUE(mount.ok()) << mount.status().ToString();
    if (mount.ok()) out.mount = *mount;
  }
  out.store = Digest(&repo);
  if (!s.crash) {
    out.allocate_calls = counter->allocate_calls();
    out.runs_claimed = counter->runs_claimed();
  }
  return out;
}

void ExpectSameOutcome(const Outcome& run, const Outcome& per_request) {
  EXPECT_EQ(run.log, per_request.log);
  ExpectSameStore(run.store, per_request.store);
  EXPECT_EQ(run.crash.writes_recorded, per_request.crash.writes_recorded);
  EXPECT_EQ(run.crash.durable_writes, per_request.crash.durable_writes);
  EXPECT_EQ(run.crash.torn_writes, per_request.crash.torn_writes);
  EXPECT_EQ(run.crash.lost_writes, per_request.crash.lost_writes);
  EXPECT_EQ(run.crash.lost_bytes, per_request.crash.lost_bytes);
  EXPECT_EQ(run.crash.trip_seq, per_request.crash.trip_seq);
  EXPECT_EQ(run.mount.entries_scanned, per_request.mount.entries_scanned);
  EXPECT_EQ(run.mount.ops_redone, per_request.mount.ops_redone);
  EXPECT_EQ(run.mount.ops_rolled_back, per_request.mount.ops_rolled_back);
  EXPECT_EQ(run.mount.orphan_temps_discarded,
            per_request.mount.orphan_temps_discarded);
  EXPECT_EQ(run.mount.lost_objects, per_request.mount.lost_objects);
  EXPECT_EQ(run.mount.data_loss_bytes, per_request.mount.data_loss_bytes);
  EXPECT_EQ(run.mount.recovery_seconds, per_request.mount.recovery_seconds);
}

using NamedScenario = std::pair<const char*, Scenario>;

// Names the parameter in test listings; without it gtest prints the
// label's address and the scenario's raw bytes.
void PrintTo(const NamedScenario& scenario, std::ostream* os) {
  *os << scenario.first;
}

class RunLengthAppendTest : public ::testing::TestWithParam<NamedScenario> {};

TEST_P(RunLengthAppendTest, RunPathMatchesPerRequestPathBitForBit) {
  const Scenario& s = GetParam().second;
  for (uint64_t seed : {3u, 11u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Outcome run = RunScenario(s, Path::kRun, seed);
    const Outcome per_request = RunScenario(s, Path::kPerRequest, seed);
    ExpectSameOutcome(run, per_request);
    EXPECT_EQ(per_request.runs_claimed, 0u);
    if (!s.preallocate) {
      // The run path must actually have been taken, and saved calls —
      // pool-fronted appends included.
      EXPECT_GT(run.runs_claimed, 0u);
      EXPECT_LT(run.allocate_calls, per_request.allocate_calls);
    }
    if (s.cache_bytes != 0) {
      // The pool saw real traffic: appends parked, frames evicted.
      EXPECT_GT(run.store.cache.write_installs, 0u);
      EXPECT_GT(run.store.cache.evictions, 0u);
      if (s.crash) {
        EXPECT_GT(run.store.cache.forced_write_through, 0u);
      }
    }
  }
}

Scenario Sync() { return {}; }
Scenario Queued() { return {.queue_depth = 8}; }
Scenario Retain() { return {.retain = true}; }
Scenario RetainQueued() { return {.queue_depth = 8, .retain = true}; }
// A 4 MiB pool: 1 MiB eviction domains, and a 1 MiB lazy-writer
// threshold that objects of up to 2 MiB trip in the middle of a run.
constexpr uint64_t kPool = 4 * kMiB;
Scenario Pool() { return {.cache_bytes = kPool}; }
Scenario PoolQueued() { return {.queue_depth = 8, .cache_bytes = kPool}; }
Scenario PoolRetain() { return {.retain = true, .cache_bytes = kPool}; }
Scenario PoolCrash() { return {.cache_bytes = kPool, .crash = true}; }
Scenario MediaDisarmed() { return {.media_attached = true}; }
Scenario MediaDegraded() { return {.media_degraded = true}; }
Scenario Crash() { return {.crash = true}; }
Scenario Preallocate() { return {.preallocate = true}; }

INSTANTIATE_TEST_SUITE_P(
    Scenarios, RunLengthAppendTest,
    ::testing::Values(std::make_pair("sync_qd1", Sync()),
                      std::make_pair("sptf_qd8", Queued()),
                      std::make_pair("retain_payload", Retain()),
                      std::make_pair("retain_payload_qd8", RetainQueued()),
                      std::make_pair("pool", Pool()),
                      std::make_pair("pool_qd8", PoolQueued()),
                      std::make_pair("pool_retain_payload", PoolRetain()),
                      std::make_pair("pool_armed_injector_cut", PoolCrash()),
                      std::make_pair("media_disarmed", MediaDisarmed()),
                      std::make_pair("media_degraded", MediaDegraded()),
                      std::make_pair("armed_injector_cut", Crash()),
                      std::make_pair("preallocated", Preallocate())),
    [](const auto& info) { return std::string(info.param.first); });

// ---------------------------------------------------------------------
// Two owners on one shared spindle.
// ---------------------------------------------------------------------

struct SharedOutcome {
  double hub_now = 0.0;
  std::vector<std::vector<std::string>> logs;
  std::vector<StoreDigest> stores;
  uint64_t runs_claimed = 0;
};

SharedOutcome RunShared(Path path, uint32_t queue_depth,
                        uint64_t cache_bytes = 0) {
  constexpr uint32_t kOwners = 2;
  sim::SpindlePlane::Params params;
  params.region_bytes = kVolume;
  params.owners = kOwners;
  params.policy = sim::SchedPolicy::kSptf;
  params.seed = 5;
  auto plane = std::make_shared<sim::SpindlePlane>(params);

  std::vector<std::unique_ptr<core::FsRepository>> repos;
  std::vector<PerRequestAllocator*> counters;
  for (uint32_t o = 0; o < kOwners; ++o) {
    core::FsRepositoryConfig config;
    config.volume_bytes = kVolume;
    config.write_request_bytes = kRequest;
    config.spindle = plane;
    config.spindle_owner = o;
    config.cache.capacity_bytes = cache_bytes;
    std::unique_ptr<PerRequestAllocator> alloc = MakeAllocator(config, path);
    counters.push_back(alloc.get());
    repos.push_back(
        std::make_unique<core::FsRepository>(config, std::move(alloc)));
  }
  SharedOutcome out;
  out.logs.resize(kOwners);
  std::vector<std::thread> threads;
  for (uint32_t o = 0; o < kOwners; ++o) {
    threads.emplace_back([&, o] {
      core::FsRepository* repo = repos[o].get();
      EXPECT_TRUE(repo->SetQueueDepth(queue_depth).ok());
      RunStream(repo, 100 + o, /*payload=*/false, /*load=*/true, kSafeWrites,
                nullptr, &out.logs[o]);
      EXPECT_TRUE(repo->SettleIo().ok());
    });
  }
  for (std::thread& t : threads) t.join();
  out.hub_now = plane->hub()->clock().now();
  for (uint32_t o = 0; o < kOwners; ++o) {
    out.stores.push_back(Digest(repos[o].get()));
    out.runs_claimed += counters[o]->runs_claimed();
  }
  return out;
}

TEST(RunLengthAppendSharedSpindleTest, TwoOwnersMatchPerRequestBitForBit) {
  for (uint32_t depth : {1u, 8u}) {
    SCOPED_TRACE("queue depth " + std::to_string(depth));
    const SharedOutcome run = RunShared(Path::kRun, depth);
    const SharedOutcome per_request = RunShared(Path::kPerRequest, depth);
    EXPECT_GT(run.runs_claimed, 0u);
    EXPECT_EQ(run.hub_now, per_request.hub_now);
    ASSERT_EQ(run.stores.size(), per_request.stores.size());
    for (size_t o = 0; o < run.stores.size(); ++o) {
      SCOPED_TRACE("owner " + std::to_string(o));
      EXPECT_EQ(run.logs[o], per_request.logs[o]);
      ExpectSameStore(run.stores[o], per_request.stores[o]);
    }
    EXPECT_GT(run.stores[0].io.interference_seeks, 0u);
  }
}

// The shape of a cached shared-spindle workload: two owners, each with
// its own pool, at queue depth 8.
TEST(RunLengthAppendSharedSpindleTest, TwoCachedOwnersAtQd8MatchPerRequest) {
  const SharedOutcome run = RunShared(Path::kRun, 8, 8 * kMiB);
  const SharedOutcome per_request = RunShared(Path::kPerRequest, 8, 8 * kMiB);
  EXPECT_GT(run.runs_claimed, 0u);
  EXPECT_EQ(run.hub_now, per_request.hub_now);
  ASSERT_EQ(run.stores.size(), per_request.stores.size());
  for (size_t o = 0; o < run.stores.size(); ++o) {
    SCOPED_TRACE("owner " + std::to_string(o));
    EXPECT_EQ(run.logs[o], per_request.logs[o]);
    ExpectSameStore(run.stores[o], per_request.stores[o]);
    EXPECT_GT(run.stores[o].cache.write_installs, 0u);
  }
  EXPECT_GT(run.stores[0].io.interference_seeks, 0u);
}

// ---------------------------------------------------------------------
// Streams that start off a cluster boundary, or whose requests are not
// whole clusters, grow the layout unevenly: each request's allocation
// must still match the per-request path.
// ---------------------------------------------------------------------

struct FileStoreOutcome {
  double now = 0.0;
  sim::IoStats io;
  fs::FileStoreStats stats;
  alloc::ExtentList extents;
  std::vector<alloc::Extent> free_runs;
  uint64_t allocate_calls = 0;
};

FileStoreOutcome AppendAfterLead(Path path, uint64_t lead_bytes,
                                 uint64_t request_bytes) {
  sim::BlockDevice device(
      sim::DiskParams::St3400832as().WithCapacity(256 * kMiB));
  core::FsRepositoryConfig config;
  config.volume_bytes = device.capacity();
  std::unique_ptr<PerRequestAllocator> alloc = MakeAllocator(config, path);
  PerRequestAllocator* counter = alloc.get();
  fs::FileStore store(&device, config.store, std::move(alloc));
  EXPECT_TRUE(store.Create("f").ok());
  if (lead_bytes > 0) {
    EXPECT_TRUE(store.Append("f", lead_bytes).ok());
  }
  EXPECT_TRUE(store.AppendStream("f", 3 * kMiB + 777, request_bytes).ok());
  EXPECT_TRUE(store.AppendStream("f", 2 * kMiB, request_bytes).ok());
  FileStoreOutcome out;
  out.now = device.clock().now();
  out.io = device.stats();
  out.stats = store.stats();
  out.extents = store.GetExtents("f").value();
  out.free_runs = store.allocator()->free_map()->Snapshot();
  out.allocate_calls = counter->allocate_calls();
  return out;
}

TEST(RunLengthAppendFileStoreTest, UnevenGrowthMatchesPerRequestPath) {
  struct Case {
    uint64_t lead;
    uint64_t request;
  };
  for (const Case& c : {Case{0, kRequest}, Case{1000, kRequest},
                        Case{4096, kRequest}, Case{0, 6000},
                        Case{0, 64 * kKiB + 512}}) {
    SCOPED_TRACE("lead " + std::to_string(c.lead) + " request " +
                 std::to_string(c.request));
    const FileStoreOutcome run = AppendAfterLead(Path::kRun, c.lead, c.request);
    const FileStoreOutcome per_request =
        AppendAfterLead(Path::kPerRequest, c.lead, c.request);
    EXPECT_EQ(run.now, per_request.now);
    ExpectSameIo(run.io, per_request.io);
    EXPECT_EQ(run.stats.appends, per_request.stats.appends);
    EXPECT_EQ(run.stats.live_bytes, per_request.stats.live_bytes);
    EXPECT_EQ(run.extents, per_request.extents);
    EXPECT_EQ(run.free_runs, per_request.free_runs);
  }
}

// ---------------------------------------------------------------------
// Host work: allocator calls per 10 MiB append.
// ---------------------------------------------------------------------

TEST(RunLengthAppendHostWorkTest, TenMiBAppendMakesFiveTimesFewerAllocateCalls) {
  uint64_t calls[2] = {0, 0};
  StoreDigest digests[2];
  for (Path path : {Path::kRun, Path::kPerRequest}) {
    core::FsRepositoryConfig config;
    config.volume_bytes = 256 * kMiB;
    config.write_request_bytes = kRequest;
    std::unique_ptr<PerRequestAllocator> alloc = MakeAllocator(config, path);
    PerRequestAllocator* counter = alloc.get();
    core::FsRepository repo(config, std::move(alloc));
    ASSERT_TRUE(repo.Put("big", 10 * kMiB).ok());
    const size_t i = path == Path::kRun ? 0 : 1;
    calls[i] = counter->allocate_calls();
    digests[i] = Digest(&repo);
  }
  // 160 requests of 64 KiB: one Allocate each on the per-request path.
  EXPECT_GE(calls[1], 160u);
  EXPECT_GE(calls[1], 5 * calls[0])
      << "run path " << calls[0] << " vs per-request " << calls[1];
  ExpectSameStore(digests[0], digests[1]);
}

// ---------------------------------------------------------------------
// Device entry point: WriteStreamRun against the per-request sequence.
// ---------------------------------------------------------------------

sim::DiskParams SmallDisk() {
  sim::DiskParams p = sim::DiskParams::St3400832as();
  p.capacity_bytes = 64 * kMiB;  // 16 zones of 4 MiB.
  return p;
}

constexpr double kCap = 40.0e6;

struct DeviceRun {
  double now = 0.0;
  sim::IoStats io;
  std::string latency;
  std::vector<uint8_t> bytes;
  uint64_t injector_seq = 0;
};

/// Writes `count` requests of `len` at `offset` (a zone boundary falls
/// inside the run), after one unrelated write so the run starts with a
/// seek, either through WriteStreamRun or request by request.
DeviceRun DriveDevice(bool run, uint32_t depth, bool retain, bool armed) {
  constexpr uint64_t kLen = 64 * kKiB;
  constexpr uint64_t kCount = 24;
  const uint64_t offset = 8 * kMiB - 7 * kLen - 512;  // Straddles 8 MiB.
  sim::BlockDevice dev(SmallDisk(), retain ? sim::DataMode::kRetain
                                           : sim::DataMode::kMetadataOnly);
  sim::LatencyRecorder rec;
  sim::IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  sim::FaultInjector injector;
  dev.AttachFaultInjector(&injector);
  if (armed) {
    sim::CrashSpec spec;
    spec.crash_after_writes = 1000;
    injector.Arm(spec);
  }
  if (depth > 1) {
    EXPECT_TRUE(sched.Engage(depth).ok());
  }
  std::vector<uint8_t> data = PayloadFor(kLen * kCount, 9);
  {
    sim::OpScope scope(&sched, sim::OpClass::kPut);
    EXPECT_TRUE(dev.Write(40 * kMiB, 4096).ok());
    if (run) {
      std::span<const uint8_t> payload =
          retain ? std::span<const uint8_t>(data) : std::span<const uint8_t>();
      EXPECT_TRUE(dev.WriteStreamRun(offset, kLen, kCount, payload, kCap).ok());
    } else {
      for (uint64_t i = 0; i < kCount; ++i) {
        dev.BeginStreamWindow();
        std::span<const uint8_t> slice =
            retain ? std::span<const uint8_t>(data).subspan(i * kLen, kLen)
                   : std::span<const uint8_t>();
        EXPECT_TRUE(dev.Write(offset + i * kLen, kLen, slice).ok());
        dev.EndStreamWindow(kLen, kCap);
      }
    }
  }
  sched.Drain();
  DeviceRun out;
  out.now = dev.clock().now();
  out.io = dev.stats();
  out.latency = rec.ToString();
  out.injector_seq = injector.last_seq();
  if (retain) {
    out.bytes.resize(kLen * kCount);
    dev.ReadView(offset, kLen * kCount, [&, pos = uint64_t{0}](
                                            std::span<const uint8_t> c) mutable {
      std::copy(c.begin(), c.end(), out.bytes.begin() + pos);
      pos += c.size();
    });
    EXPECT_EQ(out.bytes, data);
  }
  return out;
}

TEST(WriteStreamRunTest, MatchesPerRequestSequenceAcrossZoneBoundary) {
  for (uint32_t depth : {1u, 8u}) {
    for (bool retain : {false, true}) {
      for (bool armed : {false, true}) {
        SCOPED_TRACE("depth " + std::to_string(depth) + " retain " +
                     std::to_string(retain) + " armed " +
                     std::to_string(armed));
        const DeviceRun a = DriveDevice(/*run=*/true, depth, retain, armed);
        const DeviceRun b = DriveDevice(/*run=*/false, depth, retain, armed);
        EXPECT_EQ(a.now, b.now);
        ExpectSameIo(a.io, b.io);
        EXPECT_EQ(a.latency, b.latency);
        EXPECT_EQ(a.bytes, b.bytes);
        EXPECT_EQ(a.injector_seq, b.injector_seq);
        EXPECT_EQ(a.io.writes, 25u);
        EXPECT_EQ(a.injector_seq, armed ? 25u : 0u);
      }
    }
  }
}

TEST(WriteStreamRunTest, RejectsOutOfRangeAndMismatchedPayload) {
  sim::BlockDevice dev(SmallDisk());
  EXPECT_FALSE(dev.WriteStreamRun(64 * kMiB - kKiB, kKiB, 2, {}, kCap).ok());
  EXPECT_FALSE(dev.WriteStreamRun(0, ~0ULL / 2, 4, {}, kCap).ok());
  std::vector<uint8_t> short_data(3);
  EXPECT_FALSE(dev.WriteStreamRun(0, 2, 2, short_data, kCap).ok());
  EXPECT_EQ(dev.stats().writes, 0u);
  EXPECT_EQ(dev.clock().now(), 0.0);
  // No requests: nothing charged.
  EXPECT_TRUE(dev.WriteStreamRun(0, kKiB, 0, {}, kCap).ok());
  EXPECT_EQ(dev.clock().now(), 0.0);
}

TEST(TransferMemoTest, MatchesTransferTimeInsideAndAcrossZones) {
  const sim::DiskModel model(SmallDisk());
  sim::TransferMemo memo;
  const uint64_t zone = model.zone_size_bytes();
  for (uint64_t len : {uint64_t{4096}, 64 * kKiB, 3 * kMiB}) {
    for (uint64_t off = 0; off + len <= 3 * zone; off += len / 2 + 512) {
      EXPECT_EQ(memo.Get(model, off, len), model.TransferTime(off, len))
          << off << "+" << len;
    }
  }
}

}  // namespace
}  // namespace lor
