// Tests for PolicyAllocator, RunCacheAllocator, DeferredFreeQueue, and
// BuddyAllocator.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc/buddy_allocator.h"
#include "alloc/deferred_free_queue.h"
#include "alloc/policy_allocator.h"
#include "alloc/run_cache_allocator.h"
#include "util/random.h"

namespace lor {
namespace alloc {
namespace {

TEST(PolicyAllocatorTest, AllocatesAndFrees) {
  PolicyAllocator a(1000, {.policy = FitPolicy::kBestFit});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 100u);
  EXPECT_EQ(a.free_clusters(), 900u);
  for (const Extent& e : out) ASSERT_TRUE(a.Free(e).ok());
  EXPECT_EQ(a.free_clusters(), 1000u);
}

TEST(PolicyAllocatorTest, ReservedZoneNeverAllocated) {
  PolicyAllocator a(1000, {}, /*reserved=*/100);
  ExtentList out;
  ASSERT_TRUE(a.Allocate(900, kNoHint, &out).ok());
  for (const Extent& e : out) EXPECT_GE(e.start, 100u);
  EXPECT_TRUE(a.Allocate(1, kNoHint, &out).IsNoSpace());
}

TEST(PolicyAllocatorTest, HonoursExtendHint) {
  PolicyAllocator a(1000, {.policy = FitPolicy::kBestFit});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(10, kNoHint, &out).ok());
  ASSERT_TRUE(a.Allocate(10, out.back().end(), &out).ok());
  // The extension coalesces into a single extent.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].length, 20u);
}

TEST(PolicyAllocatorTest, ExtensionDisabledIgnoresHint) {
  PolicyAllocator a(1000, {.policy = FitPolicy::kWorstFit,
                           .allow_extension = false});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(10, kNoHint, &out).ok());
  // Carve a hole so worst-fit would choose the far run anyway; the
  // point is just that the hint is not consulted.
  ExtentList out2;
  ASSERT_TRUE(a.Allocate(10, out.back().end(), &out2).ok());
  EXPECT_EQ(TotalLength(out2), 10u);
}

TEST(PolicyAllocatorTest, FragmentsAcrossRunsWhenNeeded) {
  PolicyAllocator a(100, {.policy = FitPolicy::kFirstFit});
  // Allocate everything, then free two separate holes of 10.
  ExtentList all;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({10, 10}).ok());
  ASSERT_TRUE(a.Free({50, 10}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(20, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 20u);
  EXPECT_EQ(CountFragments(out), 2u);
  EXPECT_EQ(a.free_clusters(), 0u);
}

TEST(PolicyAllocatorTest, NoSpaceLeavesOutUntouched) {
  PolicyAllocator a(100, {});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(50, kNoHint, &out).ok());
  const ExtentList before = out;
  EXPECT_TRUE(a.Allocate(60, kNoHint, &out).IsNoSpace());
  EXPECT_EQ(out, before);
}

TEST(PolicyAllocatorTest, DeferredFreeDelaysReuse) {
  PolicyAllocator a(100, {.policy = FitPolicy::kFirstFit,
                          .deferred_free = true,
                          .commit_interval = 4});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  ASSERT_TRUE(a.Free({0, 50}).ok());
  EXPECT_EQ(a.free_clusters(), 0u);
  EXPECT_EQ(a.total_unused_clusters(), 50u);
  for (int i = 0; i < 5; ++i) a.Tick();
  EXPECT_EQ(a.free_clusters(), 50u);
}

TEST(PolicyAllocatorTest, SpacePressureForcesCommit) {
  PolicyAllocator a(100, {.deferred_free = true, .commit_interval = 1000});
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  ASSERT_TRUE(a.Free({0, 100}).ok());
  // Pending only; a new allocation must force the commit rather than
  // failing.
  ExtentList out2;
  EXPECT_TRUE(a.Allocate(80, kNoHint, &out2).ok());
}

TEST(DeferredFreeQueueTest, CommitReleasesAll) {
  FreeSpaceMap map(0);
  DeferredFreeQueue q(2);
  q.Defer({0, 10});
  q.Defer({20, 5});
  EXPECT_EQ(q.pending_clusters(), 15u);
  EXPECT_EQ(q.pending_count(), 2u);
  ASSERT_TRUE(q.Commit(&map).ok());
  EXPECT_EQ(map.free_clusters(), 15u);
  EXPECT_EQ(q.pending_clusters(), 0u);
}

TEST(DeferredFreeQueueTest, TickCommitsAfterInterval) {
  FreeSpaceMap map(0);
  DeferredFreeQueue q(2);
  q.Defer({0, 10});
  ASSERT_TRUE(q.Tick(&map).ok());  // 1
  ASSERT_TRUE(q.Tick(&map).ok());  // 2
  EXPECT_EQ(map.free_clusters(), 0u);
  ASSERT_TRUE(q.Tick(&map).ok());  // 3 > interval: commit.
  EXPECT_EQ(map.free_clusters(), 10u);
}

TEST(RunCacheAllocatorTest, PrefersLowestOffsetFittingRun) {
  RunCacheAllocator a(1000, {.deferred_free = false});
  // Carve: alloc all, free [100,200) and [500,700).
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 100}).ok());
  ASSERT_TRUE(a.Free({500, 200}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(50, kNoHint, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  // Both cached runs fit; the lower-offset one wins (outer band).
  EXPECT_EQ(out[0].start, 100u);
}

TEST(RunCacheAllocatorTest, SweepFragmentsAcrossSmallRuns) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kCursorSweep,
                             .deferred_free = false});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 30}).ok());
  ASSERT_TRUE(a.Free({500, 40}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(60, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 60u);
  EXPECT_EQ(CountFragments(out), 2u);
  // The sweep starts at the first run it encounters and spills into the
  // next one.
  EXPECT_EQ(out[0], (Extent{100, 30}));
  EXPECT_EQ(out[1], (Extent{500, 30}));
}

TEST(RunCacheAllocatorTest, LargestFirstConsumesBigRunsFirst) {
  RunCacheAllocator a(1000, {.selection = RunSelection::kLargestFirst,
                             .deferred_free = false});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 30}).ok());
  ASSERT_TRUE(a.Free({500, 40}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(60, kNoHint, &out).ok());
  EXPECT_EQ(TotalLength(out), 60u);
  EXPECT_EQ(CountFragments(out), 2u);
  // The largest run (40) is consumed whole first.
  EXPECT_EQ(out[0].start, 500u);
}

TEST(RunCacheAllocatorTest, ExtensionKeepsFilesContiguous) {
  RunCacheAllocator a(1000, {.deferred_free = false});
  ExtentList file;
  ASSERT_TRUE(a.Allocate(16, kNoHint, &file).ok());
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(a.Allocate(16, file.back().end(), &file).ok());
  }
  EXPECT_EQ(TotalLength(file), 160u);
  EXPECT_EQ(CountFragments(file), 1u);
}

TEST(RunCacheAllocatorTest, DeferredFreePreventsImmediateReuse) {
  RunCacheAllocator a(200, {.deferred_free = true, .commit_interval = 100});
  ExtentList first;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &first).ok());
  ASSERT_TRUE(a.Free(first[0]).ok());
  ExtentList second;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &second).ok());
  // The replacement cannot land in the hole the delete just opened.
  EXPECT_NE(second[0].start, first[0].start);
}

TEST(RunCacheAllocatorTest, CacheSizeLimitsVisibility) {
  // Largest-first with a cache of 1: only the largest run is visible; a
  // small request lands there even though a snugger, lower-offset run
  // exists.
  RunCacheAllocator a(1000, {.selection = RunSelection::kLargestFirst,
                             .cache_size = 1,
                             .deferred_free = false});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({100, 20}).ok());
  ASSERT_TRUE(a.Free({500, 300}).ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(10, kNoHint, &out).ok());
  EXPECT_EQ(out[0].start, 500u);
}

TEST(RunCacheAllocatorTest, OuterBandPreferredWhenRunFits) {
  // A cached run inside the outer band that fits the request entirely
  // wins over the sweep cursor.
  RunCacheAllocator a(1000, {.deferred_free = false,
                             .outer_band_fraction = 0.5});
  ExtentList all;
  ASSERT_TRUE(a.Allocate(1000, kNoHint, &all).ok());
  ASSERT_TRUE(a.Free({400, 50}).ok());  // In band ([0, 500)).
  ASSERT_TRUE(a.Free({800, 60}).ok());  // Outside band.
  ExtentList out;
  ASSERT_TRUE(a.Allocate(40, kNoHint, &out).ok());
  EXPECT_EQ(out[0].start, 400u);
}

// -- RunCacheAllocator::AllocateRun ------------------------------------
//
// The run hook must claim exactly what the per-request loop of
// Allocate(request, hint) calls claims while each call extends in place,
// and stop at the first request that would not.

/// Clusters parked in the deferred-free queue.
uint64_t Pending(const RunCacheAllocator& a) {
  return a.total_unused_clusters() - a.free_clusters();
}

/// Replays `requests` per-request Allocate calls on `a`, asserting that
/// each one extends in place at `hint + i * request` without a commit.
void PerRequestLoop(RunCacheAllocator* a, uint64_t hint, uint64_t request,
                    uint64_t requests, ExtentList* out) {
  for (uint64_t i = 0; i < requests; ++i) {
    const uint64_t at = hint + i * request;
    const uint64_t pending = Pending(*a);
    ASSERT_TRUE(a->Allocate(request, at, out).ok());
    ASSERT_EQ(out->back().end(), at + request);
    ASSERT_EQ(Pending(*a), pending) << "request " << i << " committed";
  }
}

/// True when one more Allocate(request, hint) on a copy of `a` would
/// also extend fully in place without forcing a commit — i.e. the run
/// hook stopped too early.
bool NextRequestExtendsInPlace(const RunCacheAllocator& a, uint64_t hint,
                               uint64_t request) {
  RunCacheAllocator copy = a;
  ExtentList out;
  const uint64_t pending = Pending(copy);
  if (!copy.Allocate(request, hint, &out).ok()) return false;
  return out.size() == 1 && out.front() == Extent{hint, request} &&
         Pending(copy) == pending;
}

TEST(RunCacheAllocateRunTest, HintInsideFreeRunSplitsLikeExtendAt) {
  RunCacheAllocator run(1000, {});
  RunCacheAllocator loop = run;
  ExtentList run_out, loop_out;
  EXPECT_EQ(run.AllocateRun(100, 10, 5, &run_out), 5u);
  PerRequestLoop(&loop, 100, 10, 5, &loop_out);
  EXPECT_EQ(run_out, (ExtentList{{100, 50}}));
  EXPECT_EQ(run_out, loop_out);
  EXPECT_EQ(run.map().Snapshot(), loop.map().Snapshot());
  EXPECT_EQ(run.map().Snapshot(), (std::vector<Extent>{{0, 100}, {150, 850}}));
  EXPECT_TRUE(run.map().CheckConsistency().ok());
}

TEST(RunCacheAllocateRunTest, RunEndingMidRequestLeavesThatRequest) {
  RunCacheAllocator run(1000, {.deferred_free = false});
  ExtentList file;
  ASSERT_TRUE(run.Allocate(40, kNoHint, &file).ok());
  ASSERT_TRUE(run.mutable_map()->AllocateAt({file.back().end() + 25, 10}).ok());
  RunCacheAllocator loop = run;
  ExtentList loop_file = file;
  const uint64_t hint = file.back().end();
  // 25 free clusters at the tail: two whole 10-cluster requests.
  EXPECT_EQ(run.AllocateRun(hint, 10, 8, &file), 2u);
  PerRequestLoop(&loop, hint, 10, 2, &loop_file);
  EXPECT_EQ(file, loop_file);
  EXPECT_EQ(run.map().Snapshot(), loop.map().Snapshot());
  EXPECT_FALSE(NextRequestExtendsInPlace(run, hint + 20, 10));
}

TEST(RunCacheAllocateRunTest, StopsBeforeTheRequestThatForcesACommit) {
  // Free space within one request of exhaustion, with a deferred free
  // adjacent to the tail's free run: the third per-request Allocate
  // forces the journal commit, after which it extends in place. The
  // hook must not claim it, and must leave the queue alone.
  RunCacheAllocator run(100, {.commit_interval = 1000});
  ExtentList all;
  ASSERT_TRUE(run.Allocate(100, kNoHint, &all).ok());
  ASSERT_TRUE(run.Free({40, 25}).ok());
  run.CommitPending();
  ASSERT_TRUE(run.Free({65, 20}).ok());
  ASSERT_EQ(run.free_clusters(), 25u);
  ASSERT_EQ(Pending(run), 20u);

  RunCacheAllocator loop = run;
  ExtentList file{{0, 40}};
  ExtentList loop_file = file;
  EXPECT_EQ(run.AllocateRun(40, 10, 5, &file), 2u);
  EXPECT_EQ(Pending(run), 20u);
  EXPECT_EQ(run.free_clusters(), 5u);
  PerRequestLoop(&loop, 40, 10, 2, &loop_file);
  EXPECT_EQ(file, loop_file);
  EXPECT_EQ(run.map().Snapshot(), loop.map().Snapshot());

  // The per-request path's third call: commit, then in-place extension.
  ExtentList third = loop_file;
  ASSERT_TRUE(loop.Allocate(10, 60, &third).ok());
  EXPECT_EQ(Pending(loop), 0u);
  EXPECT_EQ(third, (ExtentList{{0, 70}}));
  EXPECT_FALSE(NextRequestExtendsInPlace(run, 60, 10));
}

TEST(RunCacheAllocateRunTest, NoRunWithoutHintOrExtension) {
  RunCacheAllocator run(1000, {});
  ExtentList out;
  EXPECT_EQ(run.AllocateRun(kNoHint, 10, 5, &out), 0u);
  EXPECT_EQ(run.AllocateRun(100, 0, 5, &out), 0u);
  EXPECT_EQ(run.AllocateRun(100, 10, 0, &out), 0u);
  RunCacheAllocator no_extension(1000, {.allow_extension = false});
  EXPECT_EQ(no_extension.AllocateRun(100, 10, 5, &out), 0u);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(run.free_clusters(), 1000u);
  // Allocators without the hook claim nothing.
  PolicyAllocator policy(1000, {});
  EXPECT_EQ(policy.AllocateRun(100, 10, 5, &out), 0u);
}

TEST(RunCacheAllocateRunTest, MatchesPerRequestLoopOnRandomChurn) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RunCacheAllocator a(4096, {.commit_interval = 3}, /*reserved=*/64);
    std::vector<ExtentList> files;
    for (int step = 0; step < 3000; ++step) {
      const uint64_t pick = rng.Uniform(10);
      if (pick < 3 || files.empty()) {
        ExtentList f;
        if (a.Allocate(rng.UniformRange(1, 64), kNoHint, &f).ok()) {
          files.push_back(std::move(f));
        }
      } else if (pick < 5) {
        ExtentList& f = files[rng.Uniform(files.size())];
        Status s = a.Allocate(rng.UniformRange(1, 32), f.back().end(), &f);
        (void)s;
      } else if (pick < 7) {
        const size_t victim = rng.Uniform(files.size());
        for (const Extent& e : files[victim]) ASSERT_TRUE(a.Free(e).ok());
        files.erase(files.begin() + static_cast<std::ptrdiff_t>(victim));
        a.Tick();
      } else {
        // Probe: a file's tail, or any cluster (inside a free run, at a
        // run head, or allocated).
        const bool tail = rng.Bernoulli(0.7) && !files.empty();
        const size_t fi = tail ? rng.Uniform(files.size()) : 0;
        const uint64_t hint =
            tail ? files[fi].back().end() : rng.UniformRange(64, 4095);
        const uint64_t request = rng.UniformRange(1, 24);
        const uint64_t max_requests = rng.UniformRange(1, 40);
        RunCacheAllocator loop = a;
        ExtentList out = tail ? files[fi] : ExtentList{};
        ExtentList loop_out = out;
        const uint64_t n = a.AllocateRun(hint, request, max_requests, &out);
        PerRequestLoop(&loop, hint, request, n, &loop_out);
        ASSERT_EQ(out, loop_out);
        ASSERT_EQ(a.map().Snapshot(), loop.map().Snapshot());
        ASSERT_EQ(a.free_clusters(), loop.free_clusters());
        ASSERT_EQ(a.total_unused_clusters(), loop.total_unused_clusters());
        ASSERT_TRUE(a.map().CheckConsistency().ok());
        if (n < max_requests) {
          ASSERT_FALSE(NextRequestExtendsInPlace(a, hint + n * request,
                                                 request));
        }
        if (tail) {
          files[fi] = std::move(out);
        } else if (n > 0) {
          files.push_back(std::move(out));
        }
      }
    }
  }
}

TEST(BuddyAllocatorTest, RoundsToPowerOfTwo) {
  EXPECT_EQ(BuddyAllocator::OrderFor(1), 0u);
  EXPECT_EQ(BuddyAllocator::OrderFor(2), 1u);
  EXPECT_EQ(BuddyAllocator::OrderFor(3), 2u);
  EXPECT_EQ(BuddyAllocator::OrderFor(1024), 10u);
  EXPECT_EQ(BuddyAllocator::OrderFor(1025), 11u);
}

TEST(BuddyAllocatorTest, AllocateFreeRoundTrip) {
  BuddyAllocator a(1024);
  ExtentList out;
  ASSERT_TRUE(a.Allocate(100, kNoHint, &out).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].length, 128u);  // Rounded up.
  EXPECT_EQ(a.internal_waste_clusters(), 28u);
  EXPECT_EQ(a.free_clusters(), 1024u - 128u);
  ASSERT_TRUE(a.Free(out[0]).ok());
  EXPECT_EQ(a.free_clusters(), 1024u);
  EXPECT_EQ(a.internal_waste_clusters(), 0u);
  EXPECT_TRUE(a.CheckConsistency().ok());
}

TEST(BuddyAllocatorTest, BuddyMergeRestoresLargeBlocks) {
  BuddyAllocator a(1024);
  ExtentList x, y;
  ASSERT_TRUE(a.Allocate(512, kNoHint, &x).ok());
  ASSERT_TRUE(a.Allocate(512, kNoHint, &y).ok());
  EXPECT_EQ(a.free_clusters(), 0u);
  ASSERT_TRUE(a.Free(x[0]).ok());
  ASSERT_TRUE(a.Free(y[0]).ok());
  // After both frees the root block must be restored.
  ExtentList z;
  ASSERT_TRUE(a.Allocate(1024, kNoHint, &z).ok());
  EXPECT_EQ(z[0].start, 0u);
}

TEST(BuddyAllocatorTest, NonPowerOfTwoCapacity) {
  BuddyAllocator a(1000);  // Rounded envelope 1024, tail 24 reserved.
  EXPECT_EQ(a.free_clusters(), 1000u);
  EXPECT_TRUE(a.CheckConsistency().ok());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(512, kNoHint, &out).ok());
  EXPECT_TRUE(a.CheckConsistency().ok());
  // The phantom tail is never handed out.
  for (const Extent& e : out) EXPECT_LE(e.end(), 1000u);
}

TEST(BuddyAllocatorTest, FreeUnknownBlockRejected) {
  BuddyAllocator a(256);
  EXPECT_TRUE(a.Free({0, 16}).IsInvalidArgument());
  ExtentList out;
  ASSERT_TRUE(a.Allocate(16, kNoHint, &out).ok());
  EXPECT_TRUE(a.Free({out[0].start, 8}).IsInvalidArgument());
}

TEST(BuddyAllocatorTest, ObjectsNeverFragmentExternally) {
  // The buddy discipline's selling point (DTSS): every object is one
  // extent, always.
  BuddyAllocator a(1 << 16);
  Rng rng(7);
  std::vector<Extent> live;
  for (int op = 0; op < 2000; ++op) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      ExtentList out;
      Status s = a.Allocate(1 + rng.Uniform(500), kNoHint, &out);
      if (s.IsNoSpace()) continue;
      ASSERT_TRUE(s.ok());
      ASSERT_EQ(out.size(), 1u);
      live.push_back(out[0]);
    } else {
      const size_t i = rng.Uniform(live.size());
      ASSERT_TRUE(a.Free(live[i]).ok());
      live[i] = live.back();
      live.pop_back();
    }
  }
  EXPECT_TRUE(a.CheckConsistency().ok());
}

// Property sweep: every ExtentAllocator implementation conserves
// clusters across random workloads.
struct AllocatorFactory {
  std::string label;
  std::function<std::unique_ptr<ExtentAllocator>(uint64_t)> make;
};

// Names the parameter in test listings; without it gtest prints the
// struct's raw bytes, heap addresses included.
void PrintTo(const AllocatorFactory& factory, std::ostream* os) {
  *os << factory.label;
}

class AllocatorPropertyTest
    : public ::testing::TestWithParam<AllocatorFactory> {};

TEST_P(AllocatorPropertyTest, RandomChurnConservesClusters) {
  constexpr uint64_t kClusters = 1 << 14;
  auto a = GetParam().make(kClusters);
  Rng rng(99);
  std::vector<ExtentList> live;
  uint64_t live_clusters = 0;
  for (int op = 0; op < 3000; ++op) {
    a->Tick();
    if (live.empty() || rng.Bernoulli(0.55)) {
      ExtentList out;
      const uint64_t want = 1 + rng.Uniform(200);
      Status s = a->Allocate(want, kNoHint, &out);
      if (s.IsNoSpace()) continue;
      ASSERT_TRUE(s.ok()) << s.ToString();
      ASSERT_EQ(TotalLength(out), want);
      // Buddy rounds up; account what was actually taken.
      live_clusters += TotalLength(out);
      live.push_back(std::move(out));
    } else {
      const size_t i = rng.Uniform(live.size());
      for (const Extent& e : live[i]) ASSERT_TRUE(a->Free(e).ok());
      live_clusters -= TotalLength(live[i]);
      live[i] = std::move(live.back());
      live.pop_back();
    }
    ASSERT_EQ(a->total_unused_clusters() + live_clusters, kClusters);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAllocators, AllocatorPropertyTest,
    ::testing::Values(
        AllocatorFactory{"firstfit",
                         [](uint64_t n) {
                           return std::make_unique<PolicyAllocator>(
                               n, PolicyAllocatorOptions{
                                      .policy = FitPolicy::kFirstFit});
                         }},
        AllocatorFactory{"bestfit",
                         [](uint64_t n) {
                           return std::make_unique<PolicyAllocator>(
                               n, PolicyAllocatorOptions{
                                      .policy = FitPolicy::kBestFit});
                         }},
        AllocatorFactory{"bestfitdeferred",
                         [](uint64_t n) {
                           return std::make_unique<PolicyAllocator>(
                               n, PolicyAllocatorOptions{
                                      .policy = FitPolicy::kBestFit,
                                      .deferred_free = true});
                         }},
        AllocatorFactory{"runcache",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{});
                         }},
        AllocatorFactory{"runcacheimmediate",
                         [](uint64_t n) {
                           return std::make_unique<RunCacheAllocator>(
                               n, RunCacheOptions{.deferred_free = false});
                         }}),
    [](const auto& info) { return info.param.label; });

}  // namespace
}  // namespace alloc
}  // namespace lor
