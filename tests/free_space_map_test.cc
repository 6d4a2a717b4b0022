// Unit and property tests for alloc::FreeSpaceMap and the extent
// helpers.

#include <gtest/gtest.h>

#include "alloc/extent.h"
#include "alloc/free_space_map.h"
#include "util/random.h"

namespace lor {
namespace alloc {

// Names FreeSpaceMapPropertyTest's parameter in test listings; without
// it gtest prints the enum's raw bytes. It lives in FitPolicy's own
// namespace because argument-dependent lookup skips unnamed ones.
static void PrintTo(FitPolicy policy, std::ostream* os) {
  *os << FitPolicyName(policy);
}

namespace {

TEST(ExtentTest, Basics) {
  Extent e{10, 5};
  EXPECT_EQ(e.end(), 15u);
  EXPECT_FALSE(e.empty());
  EXPECT_TRUE(Extent({0, 0}).empty());
  EXPECT_TRUE(e.Overlaps({14, 1}));
  EXPECT_FALSE(e.Overlaps({15, 1}));
  EXPECT_TRUE(e.AdjacentBefore({15, 3}));
  EXPECT_FALSE(e.AdjacentBefore({16, 3}));
}

TEST(ExtentTest, CountFragmentsMergesAdjacent) {
  ExtentList l{{0, 4}, {4, 4}, {10, 2}};
  EXPECT_EQ(CountFragments(l), 2u);
  EXPECT_EQ(TotalLength(l), 10u);
  CoalesceAdjacent(&l);
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l[0], (Extent{0, 8}));
}

TEST(ExtentTest, AppendCoalescing) {
  ExtentList l;
  AppendCoalescing(&l, {0, 4});
  AppendCoalescing(&l, {4, 4});
  AppendCoalescing(&l, {10, 1});
  AppendCoalescing(&l, {0, 0});  // Empty is dropped.
  ASSERT_EQ(l.size(), 2u);
  EXPECT_EQ(l[0].length, 8u);
}

TEST(ExtentTest, CountFragmentsEmptyAndSingle) {
  EXPECT_EQ(CountFragments({}), 0u);
  EXPECT_EQ(CountFragments({{5, 3}}), 1u);
}

TEST(FreeSpaceMapTest, StartsAsOneRun) {
  FreeSpaceMap m(100);
  EXPECT_EQ(m.free_clusters(), 100u);
  EXPECT_EQ(m.run_count(), 1u);
  EXPECT_EQ(m.largest_run(), 100u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, AllocateContiguousExact) {
  FreeSpaceMap m(100);
  auto e = m.AllocateContiguous(30, FitPolicy::kFirstFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 0u);
  EXPECT_EQ(e->length, 30u);
  EXPECT_EQ(m.free_clusters(), 70u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, AllocateContiguousNoSpace) {
  FreeSpaceMap m(10);
  auto e = m.AllocateContiguous(11, FitPolicy::kBestFit);
  EXPECT_FALSE(e.ok());
  EXPECT_TRUE(e.status().IsNoSpace());
  EXPECT_TRUE(m.AllocateContiguous(0, FitPolicy::kBestFit)
                  .status()
                  .IsInvalidArgument());
}

TEST(FreeSpaceMapTest, FreeCoalescesBothNeighbours) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({20, 30}).ok());
  EXPECT_EQ(m.run_count(), 2u);
  ASSERT_TRUE(m.Free({20, 30}).ok());
  EXPECT_EQ(m.run_count(), 1u);
  EXPECT_EQ(m.largest_run(), 100u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, DoubleFreeRejected) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 10}).ok());
  ASSERT_TRUE(m.Free({10, 10}).ok());
  EXPECT_TRUE(m.Free({10, 10}).IsInvalidArgument());
  EXPECT_TRUE(m.Free({0, 5}).IsInvalidArgument());  // Overlaps free run.
}

TEST(FreeSpaceMapTest, BestFitPicksSmallestSufficientRun) {
  FreeSpaceMap m(1000);
  // Carve free runs of 10, 50, 100 (by allocating the gaps).
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());    // run [0,10)
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());  // run [100,150) len 50
  // remaining run [900,1000) len 100.
  auto e = m.AllocateContiguous(40, FitPolicy::kBestFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 100u);  // 50-run is the tightest fit.
}

TEST(FreeSpaceMapTest, WorstFitPicksLargestRun) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());
  auto e = m.AllocateContiguous(5, FitPolicy::kWorstFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 900u);
}

TEST(FreeSpaceMapTest, FirstFitPicksLowestAddress) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());
  auto e = m.AllocateContiguous(5, FitPolicy::kFirstFit);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->start, 0u);
}

TEST(FreeSpaceMapTest, NextFitAdvancesCursor) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());   // runs: [0,10) [100,...)
  auto a = m.AllocateContiguous(5, FitPolicy::kNextFit);
  ASSERT_TRUE(a.ok());
  auto b = m.AllocateContiguous(5, FitPolicy::kNextFit);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->start, a->end());  // Continues from the cursor.
}

TEST(FreeSpaceMapTest, AllocateUpToTakesShorterRun) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());  // One run [0,10).
  Extent e = m.AllocateUpTo(50, FitPolicy::kBestFit);
  EXPECT_EQ(e.start, 0u);
  EXPECT_EQ(e.length, 10u);
  EXPECT_EQ(m.free_clusters(), 0u);
  EXPECT_TRUE(m.AllocateUpTo(5, FitPolicy::kBestFit).empty());
}

TEST(FreeSpaceMapTest, ExtendAtClaimsFollowingClusters) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({0, 10}).ok());
  EXPECT_EQ(m.ExtendAt(10, 20), 20u);
  EXPECT_EQ(m.free_clusters(), 70u);
  // Extending where space is allocated yields zero.
  EXPECT_EQ(m.ExtendAt(5, 10), 0u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, ExtendAtMidRunSplits) {
  FreeSpaceMap m(100);
  EXPECT_EQ(m.ExtendAt(50, 10), 10u);
  EXPECT_EQ(m.run_count(), 2u);
  EXPECT_TRUE(m.IsFree({0, 50}));
  EXPECT_TRUE(m.IsFree({60, 40}));
  EXPECT_FALSE(m.IsFree({50, 10}));
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, ExtendAtCapsAtRunEnd) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({0, 10}).ok());
  ASSERT_TRUE(m.AllocateAt({30, 70}).ok());
  EXPECT_EQ(m.ExtendAt(10, 100), 20u);  // Only [10,30) is free.
}

TEST(FreeSpaceMapTest, AllocateAtRejectsPartialFree) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({50, 10}).ok());
  EXPECT_TRUE(m.AllocateAt({45, 10}).IsNoSpace());
  EXPECT_TRUE(m.AllocateAt({0, 0}).IsInvalidArgument());
}

TEST(FreeSpaceMapTest, LargestRunsOrdering) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({10, 90}).ok());
  ASSERT_TRUE(m.AllocateAt({150, 750}).ok());
  // Runs: [0,10)=10, [100,150)=50, [900,1000)=100.
  auto runs = m.LargestRuns(2);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].length, 100u);
  EXPECT_EQ(runs[1].length, 50u);
}

TEST(FreeSpaceMapTest, LargestRunsTieBreaksByAddress) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 10}).ok());
  ASSERT_TRUE(m.AllocateAt({30, 60}).ok());
  // Three equal-length runs: [0,10), [20,30), [90,100); ties order by
  // increasing start.
  auto runs = m.LargestRuns(8);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0], (Extent{0, 10}));
  EXPECT_EQ(runs[1], (Extent{20, 10}));
  EXPECT_EQ(runs[2], (Extent{90, 10}));
}

TEST(FreeSpaceMapTest, StatsReflectFragmentation) {
  FreeSpaceMap m(100);
  ASSERT_TRUE(m.AllocateAt({10, 10}).ok());
  FreeSpaceStats s = m.Stats();
  EXPECT_EQ(s.free_clusters, 90u);
  EXPECT_EQ(s.run_count, 2u);
  EXPECT_EQ(s.largest_run, 80u);
  EXPECT_NEAR(s.external_fragmentation, 1.0 - 80.0 / 90.0, 1e-12);
}

TEST(FreeSpaceMapTest, AllocateFromSweepsForward) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({0, 100}).ok());
  ASSERT_TRUE(m.AllocateAt({200, 100}).ok());
  // Free runs: [100,200), [300,1000).
  Extent a = m.AllocateFrom(150, 40);
  EXPECT_EQ(a, (Extent{300, 40}));  // First run starting at/after 150...
  // ...is [300,...) because [100,200) starts before the cursor.
  Extent b = m.AllocateFrom(a.end(), 40);
  EXPECT_EQ(b, (Extent{340, 40}));
  EXPECT_TRUE(m.CheckConsistency().ok());
}

TEST(FreeSpaceMapTest, AllocateFromWrapsToLowestRun) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({500, 500}).ok());  // Free: [0,500).
  Extent e = m.AllocateFrom(900, 64);
  EXPECT_EQ(e, (Extent{0, 64}));
}

TEST(FreeSpaceMapTest, AllocateFromTakesShortRunWhole) {
  FreeSpaceMap m(1000);
  ASSERT_TRUE(m.AllocateAt({0, 100}).ok());
  ASSERT_TRUE(m.AllocateAt({110, 890}).ok());  // Free: [100,110).
  Extent e = m.AllocateFrom(0, 64);
  EXPECT_EQ(e, (Extent{100, 10}));  // Any size qualifies under a sweep.
  EXPECT_TRUE(m.AllocateFrom(0, 1).empty());
}

TEST(FreeSpaceMapTest, PendingResizeVisibleToSizeQueries) {
  // Sequential ExtendAt takes defer the size-index re-key; every
  // size-ordered query must still see the true lengths.
  FreeSpaceMap m(1000);
  EXPECT_EQ(m.ExtendAt(0, 100), 100u);
  EXPECT_EQ(m.largest_run(), 900u);
  EXPECT_EQ(m.ExtendAt(100, 50), 50u);
  auto runs = m.LargestRuns(4);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0], (Extent{150, 850}));
  EXPECT_EQ(m.ExtendAt(150, 10), 10u);
  EXPECT_TRUE(m.CheckConsistency().ok());
  EXPECT_EQ(m.Stats().largest_run, 840u);
}

TEST(FreeSpaceMapTest, MixedExtendFitAndFreeStaysConsistent) {
  // Interleaves the sequential-extension fast path with bucketed
  // first/next-fit selection and coalescing frees; exercises the
  // shrink-position cache and the lazy bucket index together.
  constexpr uint64_t kClusters = 1 << 16;
  FreeSpaceMap m(kClusters);
  Rng rng(31337);
  std::vector<Extent> live;
  uint64_t cursor = 0;
  uint64_t live_clusters = 0;
  for (int op = 0; op < 4000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const uint64_t got = m.ExtendAt(cursor, 1 + rng.Uniform(32));
      if (got > 0) {
        live.push_back({cursor, got});
        live_clusters += got;
        cursor += got;
      } else {
        cursor = rng.Uniform(kClusters);
      }
    } else if (dice < 0.7) {
      const FitPolicy policy = rng.Bernoulli(0.5) ? FitPolicy::kFirstFit
                                                  : FitPolicy::kNextFit;
      Extent e = m.AllocateUpTo(1 + rng.Uniform(64), policy);
      if (!e.empty()) {
        live.push_back(e);
        live_clusters += e.length;
      }
    } else if (!live.empty()) {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(m.Free(live[idx]).ok());
      live_clusters -= live[idx].length;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(m.free_clusters() + live_clusters, kClusters);
    if (op % 200 == 0) {
      ASSERT_TRUE(m.CheckConsistency().ok()) << "op " << op;
    }
  }
  for (const Extent& e : live) ASSERT_TRUE(m.Free(e).ok());
  EXPECT_EQ(m.run_count(), 1u);
  EXPECT_TRUE(m.CheckConsistency().ok());
}

// Property test: random allocate/free cycles keep the map internally
// consistent and conserve clusters, for every policy.
class FreeSpaceMapPropertyTest
    : public ::testing::TestWithParam<FitPolicy> {};

TEST_P(FreeSpaceMapPropertyTest, RandomOpsConserveClusters) {
  constexpr uint64_t kClusters = 4096;
  FreeSpaceMap m(kClusters);
  Rng rng(2024);
  std::vector<Extent> live;
  uint64_t live_clusters = 0;
  for (int op = 0; op < 5000; ++op) {
    if (live.empty() || rng.Bernoulli(0.55)) {
      const uint64_t want = 1 + rng.Uniform(64);
      Extent e = m.AllocateUpTo(want, GetParam());
      if (e.empty()) continue;
      EXPECT_LE(e.length, want);
      live.push_back(e);
      live_clusters += e.length;
    } else {
      const size_t idx = rng.Uniform(live.size());
      ASSERT_TRUE(m.Free(live[idx]).ok());
      live_clusters -= live[idx].length;
      live[idx] = live.back();
      live.pop_back();
    }
    ASSERT_EQ(m.free_clusters() + live_clusters, kClusters);
    if (op % 100 == 0) {
      ASSERT_TRUE(m.CheckConsistency().ok()) << "op " << op;
    }
  }
  for (const Extent& e : live) ASSERT_TRUE(m.Free(e).ok());
  EXPECT_EQ(m.free_clusters(), kClusters);
  EXPECT_EQ(m.run_count(), 1u);  // Everything coalesces back.
  EXPECT_TRUE(m.CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, FreeSpaceMapPropertyTest,
                         ::testing::Values(FitPolicy::kFirstFit,
                                           FitPolicy::kBestFit,
                                           FitPolicy::kWorstFit,
                                           FitPolicy::kNextFit),
                         [](const auto& info) {
                           std::string out;
                           for (char c : FitPolicyName(info.param)) {
                             if (c != '-') out += c;
                           }
                           return out;
                         });

}  // namespace
}  // namespace alloc
}  // namespace lor
