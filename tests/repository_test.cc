// Cross-backend tests of the ObjectRepository interface: both back ends
// must provide the same semantics (the paper's "fair comparison"
// requirement, §4), verified with a parameterized suite, plus
// backend-specific behaviours.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/db_repository.h"
#include "core/fragmentation.h"
#include "core/fs_repository.h"
#include "core/storage_age.h"
#include "util/random.h"

namespace lor {
namespace core {
namespace {

std::vector<uint8_t> Pattern(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.Next());
  return data;
}

using RepoFactory =
    std::function<std::unique_ptr<ObjectRepository>(sim::DataMode)>;

std::unique_ptr<ObjectRepository> MakeFs(sim::DataMode mode) {
  FsRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  config.data_mode = mode;
  return std::make_unique<FsRepository>(config);
}

std::unique_ptr<ObjectRepository> MakeDb(sim::DataMode mode) {
  DbRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  config.data_mode = mode;
  return std::make_unique<DbRepository>(config);
}

struct BackendCase {
  std::string label;
  RepoFactory make;
};

// Names the parameter in test listings; without it gtest prints the
// struct's raw bytes, heap addresses included.
void PrintTo(const BackendCase& backend, std::ostream* os) {
  *os << backend.label;
}

// The basic object lifecycle, parameterized by the back-end label.
class RepositoryLifecycleTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<ObjectRepository> Make() {
    return GetParam() == "filesystem" ? MakeFs(sim::DataMode::kMetadataOnly)
                                      : MakeDb(sim::DataMode::kMetadataOnly);
  }
};

TEST_P(RepositoryLifecycleTest, PutGetDelete) {
  auto repo = Make();
  ASSERT_TRUE(repo->Put("k", 256 * kKiB).ok());
  EXPECT_TRUE(repo->Exists("k"));
  EXPECT_EQ(repo->object_count(), 1u);
  EXPECT_EQ(repo->live_bytes(), 256 * kKiB);
  EXPECT_TRUE(repo->Get("k").ok());
  ASSERT_TRUE(repo->Delete("k").ok());
  EXPECT_FALSE(repo->Exists("k"));
  EXPECT_EQ(repo->live_bytes(), 0u);
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

INSTANTIATE_TEST_SUITE_P(BothBackends, RepositoryLifecycleTest,
                         ::testing::Values("filesystem", "database"),
                         [](const auto& info) { return info.param; });

class RepositoryContractTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  std::unique_ptr<ObjectRepository> Make(
      sim::DataMode mode = sim::DataMode::kMetadataOnly) {
    return GetParam().make(mode);
  }
};

TEST_P(RepositoryContractTest, PutRejectsDuplicates) {
  auto repo = Make();
  ASSERT_TRUE(repo->Put("k", 1024).ok());
  EXPECT_TRUE(repo->Put("k", 1024).IsAlreadyExists());
}

TEST_P(RepositoryContractTest, GetMissingIsNotFound) {
  auto repo = Make();
  EXPECT_TRUE(repo->Get("nope").IsNotFound());
  EXPECT_TRUE(repo->Delete("nope").IsNotFound());
  EXPECT_TRUE(repo->GetLayout("nope").status().IsNotFound());
  EXPECT_TRUE(repo->GetSize("nope").status().IsNotFound());
}

TEST_P(RepositoryContractTest, SafeWriteCreatesAndReplaces) {
  auto repo = Make(sim::DataMode::kRetain);
  const auto v1 = Pattern(200 * kKiB, 1);
  const auto v2 = Pattern(300 * kKiB, 2);
  ASSERT_TRUE(repo->SafeWrite("k", v1.size(), v1).ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(repo->Get("k", &out).ok());
  EXPECT_EQ(out, v1);
  ASSERT_TRUE(repo->SafeWrite("k", v2.size(), v2).ok());
  ASSERT_TRUE(repo->Get("k", &out).ok());
  EXPECT_EQ(out, v2);
  EXPECT_EQ(repo->object_count(), 1u);
  EXPECT_EQ(repo->live_bytes(), v2.size());
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST_P(RepositoryContractTest, DataIntegrityAcrossChurn) {
  auto repo = Make(sim::DataMode::kRetain);
  Rng rng(1234);
  // Seed objects with known contents derived from (key, version).
  std::vector<uint64_t> versions(10, 0);
  for (int i = 0; i < 10; ++i) {
    const auto data = Pattern(64 * kKiB + i * 1000, i * 100);
    ASSERT_TRUE(
        repo->Put("obj" + std::to_string(i), data.size(), data).ok());
  }
  for (int round = 0; round < 50; ++round) {
    const int i = static_cast<int>(rng.Uniform(10));
    versions[i] = round + 1;
    const auto data =
        Pattern(64 * kKiB + i * 1000, i * 100 + versions[i]);
    ASSERT_TRUE(
        repo->SafeWrite("obj" + std::to_string(i), data.size(), data).ok());
  }
  for (int i = 0; i < 10; ++i) {
    const auto expected =
        Pattern(64 * kKiB + i * 1000, i * 100 + versions[i]);
    std::vector<uint8_t> out;
    ASSERT_TRUE(repo->Get("obj" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, expected) << "obj" << i;
  }
  EXPECT_TRUE(repo->CheckConsistency().ok());
}

TEST_P(RepositoryContractTest, LayoutCoversObjectSize) {
  auto repo = Make();
  ASSERT_TRUE(repo->Put("k", 10 * kMiB).ok());
  auto layout = repo->GetLayout("k");
  ASSERT_TRUE(layout.ok());
  EXPECT_GE(alloc::TotalLength(*layout), 10 * kMiB);
  auto size = repo->GetSize("k");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 10 * kMiB);
}

TEST_P(RepositoryContractTest, ClockAdvancesWithWork) {
  auto repo = Make();
  const double t0 = repo->now();
  ASSERT_TRUE(repo->Put("k", kMiB).ok());
  EXPECT_GT(repo->now(), t0);
}

TEST_P(RepositoryContractTest, FreeBytesShrinkWithData) {
  auto repo = Make();
  const uint64_t free0 = repo->free_bytes();
  ASSERT_TRUE(repo->Put("k", 10 * kMiB).ok());
  EXPECT_LT(repo->free_bytes(), free0);
  EXPECT_GT(repo->volume_bytes(), repo->live_bytes());
}

TEST_P(RepositoryContractTest, ListKeysMatchesPopulation) {
  auto repo = Make();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(repo->Put("obj" + std::to_string(i), 64 * kKiB).ok());
  }
  EXPECT_EQ(repo->ListKeys().size(), 5u);
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, RepositoryContractTest,
    ::testing::Values(BackendCase{"filesystem", MakeFs},
                      BackendCase{"database", MakeDb}),
    [](const auto& info) { return info.param.label; });

TEST(FragmentationAnalyzerTest, CleanStoreIsContiguous) {
  auto repo = MakeFs(sim::DataMode::kMetadataOnly);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(repo->Put("obj" + std::to_string(i), kMiB).ok());
  }
  FragmentationReport report = AnalyzeFragmentation(*repo);
  EXPECT_EQ(report.objects, 10u);
  EXPECT_DOUBLE_EQ(report.fragments_per_object, 1.0);
  EXPECT_DOUBLE_EQ(report.contiguous_fraction, 1.0);
  EXPECT_EQ(report.p50_fragments, 1u);
}

TEST(FragmentationAnalyzerTest, EmptyRepository) {
  auto repo = MakeFs(sim::DataMode::kMetadataOnly);
  FragmentationReport report = AnalyzeFragmentation(*repo);
  EXPECT_EQ(report.objects, 0u);
  EXPECT_DOUBLE_EQ(report.fragments_per_object, 0.0);
}

TEST(StorageAgeTest, FollowsPaperDefinition) {
  StorageAgeTracker age;
  age.RecordBulkLoad(1000);
  EXPECT_DOUBLE_EQ(age.age(), 0.0);
  age.MarkBulkLoadComplete();
  EXPECT_DOUBLE_EQ(age.age(), 0.0);
  // Replace all data once: age 1 ("one safe write per object").
  age.RecordReplacement(1000, 1000);
  EXPECT_DOUBLE_EQ(age.age(), 1.0);
  age.RecordReplacement(1000, 1000);
  EXPECT_DOUBLE_EQ(age.age(), 2.0);
}

TEST(StorageAgeTest, TracksLiveByteChanges) {
  StorageAgeTracker age;
  age.RecordBulkLoad(1000);
  age.MarkBulkLoadComplete();
  age.RecordReplacement(500, 1500);  // Store grows to 2000 live bytes.
  EXPECT_EQ(age.live_bytes(), 2000u);
  EXPECT_DOUBLE_EQ(age.age(), 1500.0 / 2000.0);
  age.RecordDelete(2000);
  EXPECT_EQ(age.live_bytes(), 0u);
  EXPECT_DOUBLE_EQ(age.age(), 0.0);  // Guarded division.
}

TEST(DbRepositoryTest, BulkLoadWriteFasterThanFs) {
  // The paper's Fig. 4: during bulk load the database writes faster
  // than the filesystem's safe-write path (17.7 vs 10.1 MB/s for
  // 512 KB objects).
  auto fs = MakeFs(sim::DataMode::kMetadataOnly);
  auto db = MakeDb(sim::DataMode::kMetadataOnly);
  constexpr int kObjects = 100;
  for (int i = 0; i < kObjects; ++i) {
    ASSERT_TRUE(fs->Put("obj" + std::to_string(i), 512 * kKiB).ok());
    ASSERT_TRUE(db->Put("obj" + std::to_string(i), 512 * kKiB).ok());
  }
  EXPECT_LT(db->now(), fs->now());
}

TEST(FsRepositoryTest, JournalBatchingKeepsLayoutsAndSavesMetadataIo) {
  // Batching coalesces the journal records of one safe write (create
  // temp + fsync + replace) into a single lazy-writer commit: fewer
  // device writes and less simulated time, with bit-identical layouts
  // (journal charges never touch the allocator).
  FsRepositoryConfig batched_config;
  batched_config.volume_bytes = 256 * kMiB;
  FsRepositoryConfig unbatched_config = batched_config;
  unbatched_config.store.batch_journal_charges = false;

  FsRepository batched(batched_config);
  FsRepository unbatched(unbatched_config);
  auto churn = [](FsRepository* repo) {
    Rng rng(11);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(repo->SafeWrite("obj" + std::to_string(i), kMiB).ok());
    }
    for (int round = 0; round < 120; ++round) {
      const std::string key = "obj" + std::to_string(rng.Uniform(30));
      ASSERT_TRUE(repo->SafeWrite(key, kMiB).ok());
    }
  };
  churn(&batched);
  churn(&unbatched);

  for (int i = 0; i < 30; ++i) {
    const std::string key = "obj" + std::to_string(i);
    auto a = batched.GetLayout(key);
    auto b = unbatched.GetLayout(key);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << key;
  }
  EXPECT_LT(batched.device()->stats().writes,
            unbatched.device()->stats().writes);
  EXPECT_LT(batched.now(), unbatched.now());
  EXPECT_TRUE(batched.CheckConsistency().ok());
}

TEST(FsRepositoryTest, PreallocationReducesFragmentsUnderChurn) {
  FsRepositoryConfig base;
  base.volume_bytes = 256 * kMiB;
  FsRepositoryConfig prealloc = base;
  prealloc.preallocate_on_safe_write = true;

  auto churn = [](FsRepository* repo) {
    Rng rng(5);
    for (int i = 0; i < 40; ++i) {
      EXPECT_TRUE(
          repo->SafeWrite("obj" + std::to_string(i), 2 * kMiB).ok());
    }
    for (int round = 0; round < 400; ++round) {
      const std::string key = "obj" + std::to_string(rng.Uniform(40));
      EXPECT_TRUE(repo->SafeWrite(key, 2 * kMiB).ok());
    }
  };
  FsRepository plain(base);
  FsRepository hinted(prealloc);
  churn(&plain);
  churn(&hinted);
  const double plain_frags =
      AnalyzeFragmentation(plain).fragments_per_object;
  const double hinted_frags =
      AnalyzeFragmentation(hinted).fragments_per_object;
  EXPECT_LE(hinted_frags, plain_frags);
}

}  // namespace
}  // namespace core
}  // namespace lor
