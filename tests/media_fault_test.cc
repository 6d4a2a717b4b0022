// Media-fault plane tests: the seeded partial-failure model itself
// (latent sector errors, at-rest bit rot, degraded regions), end-to-end
// checksum detection through both repository back ends, the repairing
// scrubber (retry-recovery relocation, quarantine accounting, cursor
// resume, typed-status propagation through repository decorators), and
// the seeded media torture: hundreds of arm/traffic/scrub/heal cycles
// per back end under a byte oracle where a silent corruption — an OK
// read returning wrong bytes — is an immediate failure.
//
// LOR_MEDIA_CYCLES overrides the torture cycle count per configuration
// (the nightly soak runs many more); LOR_MEDIA_SEED shifts the seed.

#include "sim/media_fault.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "sim/block_device.h"
#include "util/fnv.h"
#include "workload/crash_torture.h"
#include "workload/trace.h"

namespace lor {
namespace sim {
namespace {

constexpr uint64_t kRegion = 64 * kKiB;

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

DiskParams SmallDisk(uint64_t capacity) {
  return DiskParams::St3400832as().WithCapacity(capacity);
}

std::vector<uint8_t> Pattern(uint64_t len, uint8_t salt) {
  std::vector<uint8_t> data(len);
  for (uint64_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i * 41 + salt);
  }
  return data;
}

// -- Model unit behavior ----------------------------------------------

TEST(MediaFaultModelTest, DetachedAndDisarmedReadsPass) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  const std::vector<uint8_t> data = Pattern(kRegion, 1);
  ASSERT_TRUE(dev.Write(0, kRegion, data).ok());

  std::vector<uint8_t> back;
  ASSERT_TRUE(dev.Read(0, kRegion, &back).ok());
  EXPECT_EQ(back, data);

  MediaFaultModel media;
  dev.AttachMediaFaults(&media);  // attached but never armed
  ASSERT_TRUE(dev.Read(0, kRegion, &back).ok());
  EXPECT_EQ(back, data);
}

TEST(MediaFaultModelTest, ClassificationIsDeterministicAcrossRearm) {
  BlockDevice dev(SmallDisk(16 * kMiB), DataMode::kRetain);
  MediaFaultModel media;
  dev.AttachMediaFaults(&media);

  MediaFaultSpec spec;
  spec.seed = 77;
  spec.lse_rate = 0.5;
  spec.transient_fraction = 0.0;  // persistent: outcome is stable

  auto failing_regions = [&]() {
    std::vector<bool> failed;
    for (uint64_t off = 0; off < 16 * kMiB; off += kRegion) {
      std::vector<uint8_t> out;
      failed.push_back(!dev.Read(off, kRegion, &out).ok());
    }
    return failed;
  };

  media.Arm(spec);
  const std::vector<bool> first = failing_regions();
  media.Arm(spec);  // same seed: same fault map
  EXPECT_EQ(failing_regions(), first);

  spec.seed = 78;  // new seed: expect a different map
  media.Arm(spec);
  EXPECT_NE(failing_regions(), first);
}

TEST(MediaFaultModelTest, TransientLseClearsAfterBudgetedFailures) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  MediaFaultModel media;
  dev.AttachMediaFaults(&media);

  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 1.0;
  spec.transient_failures = 2;
  media.Arm(spec);

  std::vector<uint8_t> out;
  Status s1 = dev.Read(0, kRegion, &out);
  EXPECT_TRUE(s1.IsIoError()) << s1.ToString();
  Status s2 = dev.Read(0, kRegion, &out);
  EXPECT_TRUE(s2.IsIoError()) << s2.ToString();
  // The drive's internal retry finally wins.
  EXPECT_TRUE(dev.Read(0, kRegion, &out).ok());
  EXPECT_GE(media.stats().transient_clears, 1u);
  EXPECT_EQ(media.stats().read_errors, 2u);
}

TEST(MediaFaultModelTest, PersistentLseHealsOnRewrite) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  MediaFaultModel media;
  dev.AttachMediaFaults(&media);

  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 0.0;
  media.Arm(spec);

  std::vector<uint8_t> out;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(dev.Read(0, kRegion, &out).IsIoError());
  }
  // Writes never fail: the drive remaps from its spare pool, healing
  // the region for subsequent reads.
  const std::vector<uint8_t> data = Pattern(kRegion, 3);
  ASSERT_TRUE(dev.Write(0, kRegion, data).ok());
  ASSERT_TRUE(dev.Read(0, kRegion, &out).ok());
  EXPECT_EQ(out, data);
  EXPECT_GE(media.stats().healed_regions, 1u);
}

TEST(MediaFaultModelTest, DisarmStopsLseButKeepsRotAtRest) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  const std::vector<uint8_t> data = Pattern(4 * kRegion, 5);
  ASSERT_TRUE(dev.Write(0, 4 * kRegion, data).ok());

  MediaFaultModel media;
  dev.AttachMediaFaults(&media);
  MediaFaultSpec spec;
  spec.corruption_rate = 1.0;
  spec.flips_per_region = 8;
  media.Arm(spec);
  EXPECT_GE(media.stats().regions_corrupted, 4u);
  EXPECT_GT(media.stats().bytes_corrupted, 0u);

  // Reads succeed with wrong bytes — only a checksum can tell.
  std::vector<uint8_t> out;
  ASSERT_TRUE(dev.Read(0, 4 * kRegion, &out).ok());
  EXPECT_NE(out, data);

  // Disarm stops injection but never un-flips the platter.
  media.Disarm();
  std::vector<uint8_t> after;
  ASSERT_TRUE(dev.Read(0, 4 * kRegion, &after).ok());
  EXPECT_EQ(after, out);
  EXPECT_NE(after, data);

  // An overwrite restores the bytes (and their regions).
  ASSERT_TRUE(dev.Write(0, 4 * kRegion, data).ok());
  ASSERT_TRUE(dev.Read(0, 4 * kRegion, &after).ok());
  EXPECT_EQ(after, data);
}

TEST(MediaFaultModelTest, SuspendPausesFaultsWithoutLosingState) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  MediaFaultModel media;
  dev.AttachMediaFaults(&media);

  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 0.0;
  media.Arm(spec);

  std::vector<uint8_t> out;
  EXPECT_TRUE(dev.Read(0, kRegion, &out).IsIoError());
  media.set_suspended(true);
  EXPECT_TRUE(dev.Read(0, kRegion, &out).ok());
  media.set_suspended(false);
  EXPECT_TRUE(dev.Read(0, kRegion, &out).IsIoError());
}

TEST(MediaFaultModelTest, DegradedRegionsChargeExtraServiceTime) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  MediaFaultModel media;
  dev.AttachMediaFaults(&media);

  MediaFaultSpec spec;
  spec.degraded_rate = 1.0;
  spec.degraded_multiplier = 4.0;
  media.Arm(spec);

  std::vector<uint8_t> out;
  ASSERT_TRUE(dev.Read(0, kRegion, &out).ok());
  EXPECT_GE(media.stats().degraded_requests, 1u);
  EXPECT_EQ(media.stats().read_errors, 0u);
}

// -- End-to-end checksums through the repositories --------------------

core::FsRepositoryConfig FsConfig(uint64_t volume_bytes) {
  core::FsRepositoryConfig config;
  config.volume_bytes = volume_bytes;
  config.data_mode = DataMode::kRetain;
  return config;
}

core::DbRepositoryConfig DbConfig(uint64_t volume_bytes) {
  core::DbRepositoryConfig config;
  config.volume_bytes = volume_bytes;
  config.log_volume_bytes = volume_bytes / 8;
  config.data_mode = DataMode::kRetain;
  return config;
}

// Loads `count` objects of `bytes` each; returns their payloads.
std::vector<std::vector<uint8_t>> Load(core::ObjectRepository* repo,
                                       uint64_t count, uint64_t bytes) {
  std::vector<std::vector<uint8_t>> payloads;
  for (uint64_t i = 0; i < count; ++i) {
    payloads.push_back(Pattern(bytes, static_cast<uint8_t>(i * 7 + 1)));
    EXPECT_TRUE(
        repo->Put("obj" + std::to_string(i), bytes, payloads.back()).ok());
  }
  return payloads;
}

// Every Get must either deliver exact bytes or fail typed — an OK read
// with wrong bytes is the silent corruption the checksums exist to
// prevent. Returns (ok_reads, corruptions, io_errors).
struct ReadTally {
  uint64_t ok = 0;
  uint64_t corruptions = 0;
  uint64_t io_errors = 0;
};

ReadTally ReadAll(core::ObjectRepository* repo,
                  const std::vector<std::vector<uint8_t>>& payloads) {
  ReadTally tally;
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    std::vector<uint8_t> out;
    const Status s = repo->Get("obj" + std::to_string(i), &out);
    if (s.ok()) {
      ++tally.ok;
      EXPECT_EQ(out, payloads[i]) << "silent corruption on obj" << i;
    } else if (s.IsCorruption()) {
      ++tally.corruptions;
    } else if (s.IsIoError()) {
      ++tally.io_errors;
    } else {
      ADD_FAILURE() << "unexpected status: " << s.ToString();
    }
  }
  return tally;
}

TEST(ChecksumFsTest, AtRestRotIsDetectedNeverSilent) {
  core::FsRepository repo(FsConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 8, 256 * kKiB);

  // Armed with zero rates nothing changes.
  media.Arm(MediaFaultSpec{});
  ReadTally clean = ReadAll(&repo, payloads);
  EXPECT_EQ(clean.ok, payloads.size());

  MediaFaultSpec spec;
  spec.corruption_rate = 1.0;
  spec.flips_per_region = 8;
  media.Arm(spec);
  ReadTally rotted = ReadAll(&repo, payloads);
  EXPECT_EQ(rotted.corruptions, payloads.size());
  EXPECT_EQ(rotted.io_errors, 0u);

  // Detection survives disarm: flips stay at rest, the verify gate
  // only needs an attached model.
  media.Disarm();
  ReadTally disarmed = ReadAll(&repo, payloads);
  EXPECT_EQ(disarmed.corruptions, payloads.size());

  // A client rewrite heals: fresh bytes, fresh checksums.
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(repo.SafeWrite("obj" + std::to_string(i), payloads[i].size(),
                               payloads[i])
                    .ok());
  }
  ReadTally healed = ReadAll(&repo, payloads);
  EXPECT_EQ(healed.ok, payloads.size());
  ASSERT_TRUE(repo.CheckConsistency().ok());
}

TEST(ChecksumDbTest, AtRestRotIsDetectedNeverSilent) {
  core::DbRepository repo(DbConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 8, 256 * kKiB);

  media.Arm(MediaFaultSpec{});
  ReadTally clean = ReadAll(&repo, payloads);
  EXPECT_EQ(clean.ok, payloads.size());

  MediaFaultSpec spec;
  spec.corruption_rate = 1.0;
  spec.flips_per_region = 8;
  media.Arm(spec);
  ReadTally rotted = ReadAll(&repo, payloads);
  EXPECT_EQ(rotted.corruptions, payloads.size());
  EXPECT_EQ(rotted.io_errors, 0u);

  media.Disarm();
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(repo.SafeWrite("obj" + std::to_string(i), payloads[i].size(),
                               payloads[i])
                    .ok());
  }
  ReadTally healed = ReadAll(&repo, payloads);
  EXPECT_EQ(healed.ok, payloads.size());
  ASSERT_TRUE(repo.CheckConsistency().ok());
}

TEST(ChecksumFsTest, PersistentLseSurfacesTypedIoError) {
  core::FsRepository repo(FsConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 6, 128 * kKiB);

  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 0.0;
  media.Arm(spec);
  ReadTally broken = ReadAll(&repo, payloads);
  EXPECT_EQ(broken.io_errors, payloads.size());
  EXPECT_EQ(broken.ok, 0u);

  // Disarm = LSE refusals stop; nothing was flipped, bytes are intact.
  media.Disarm();
  ReadTally after = ReadAll(&repo, payloads);
  EXPECT_EQ(after.ok, payloads.size());
}

TEST(ChecksumDbTest, PersistentLseSurfacesTypedIoError) {
  core::DbRepository repo(DbConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 6, 128 * kKiB);

  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 0.0;
  media.Arm(spec);
  ReadTally broken = ReadAll(&repo, payloads);
  EXPECT_EQ(broken.io_errors, payloads.size());
  EXPECT_EQ(broken.ok, 0u);

  media.Disarm();
  ReadTally after = ReadAll(&repo, payloads);
  EXPECT_EQ(after.ok, payloads.size());
}

// -- Scrubber ---------------------------------------------------------

TEST(ScrubFsTest, TransientLseRepairRelocatesAndQuarantines) {
  core::FsRepository repo(FsConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 12, 64 * kKiB);

  // Every LSE is transient and clears after one failed attempt, so the
  // scrubber's read always recovers within the retry budget — exactly
  // the "suspect but readable" case the redirect repair handles.
  MediaFaultSpec spec;
  spec.seed = 9;
  spec.lse_rate = 0.6;
  spec.transient_fraction = 1.0;
  spec.transient_failures = 1;
  media.Arm(spec);

  auto report = repo.Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->objects_scanned, payloads.size());
  EXPECT_GT(report->repaired, 0u);
  EXPECT_EQ(report->unrecoverable, 0u);
  EXPECT_GT(report->quarantined_units, 0u);
  EXPECT_EQ(repo.store()->quarantined_cluster_count(),
            report->quarantined_units);

  media.Disarm();
  ReadTally after = ReadAll(&repo, payloads);
  EXPECT_EQ(after.ok, payloads.size());

  // Quarantine is deliberate isolation: fsck accounts for it and stays
  // clean, and the consistency checker accepts the diverted clusters.
  auto fsck = repo.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean());
  EXPECT_EQ(fsck->quarantined_units, report->quarantined_units);
  ASSERT_TRUE(repo.CheckConsistency().ok());
}

TEST(ScrubDbTest, TransientLseRepairSupersedesAndQuarantines) {
  core::DbRepository repo(DbConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 12, 64 * kKiB);

  MediaFaultSpec spec;
  spec.seed = 9;
  spec.lse_rate = 0.6;
  spec.transient_fraction = 1.0;
  spec.transient_failures = 1;
  media.Arm(spec);

  auto report = repo.Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->objects_scanned, payloads.size());
  EXPECT_GT(report->repaired, 0u);
  EXPECT_EQ(report->unrecoverable, 0u);
  EXPECT_GT(report->quarantined_units, 0u);
  EXPECT_EQ(repo.blob_store()->quarantined_page_count(),
            report->quarantined_units);

  media.Disarm();
  ReadTally after = ReadAll(&repo, payloads);
  EXPECT_EQ(after.ok, payloads.size());

  auto fsck = repo.Fsck();
  ASSERT_TRUE(fsck.ok());
  EXPECT_TRUE(fsck->clean());
  EXPECT_EQ(fsck->quarantined_units, report->quarantined_units);
  ASSERT_TRUE(repo.CheckConsistency().ok());
}

TEST(ScrubFsTest, RotIsDetectedButUnrecoverableUntilClientRewrite) {
  core::FsRepository repo(FsConfig(64 * kMiB));
  MediaFaultModel media;
  repo.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&repo, 8, 64 * kKiB);

  MediaFaultSpec spec;
  spec.corruption_rate = 1.0;
  media.Arm(spec);

  // The scrubber has no good copy to rewrite from: it reports, and
  // every subsequent read stays a typed error — never silent.
  auto report = repo.Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->corruptions_detected, payloads.size());
  EXPECT_EQ(report->unrecoverable, payloads.size());
  EXPECT_EQ(report->repaired, 0u);

  media.Disarm();
  for (uint64_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(repo.SafeWrite("obj" + std::to_string(i), payloads[i].size(),
                               payloads[i])
                    .ok());
  }
  ReadTally healed = ReadAll(&repo, payloads);
  EXPECT_EQ(healed.ok, payloads.size());
}

// The scrub contract every repository shares (one loop serves them
// all): bounded passes resume strictly after the persistent cursor, in
// sorted key order, and wrap at the end of the key space.
enum class ScrubTarget { kFilesystem, kDatabase, kRecordingFilesystem };

void PrintTo(ScrubTarget target, std::ostream* os) {
  switch (target) {
    case ScrubTarget::kFilesystem:
      *os << "filesystem";
      break;
    case ScrubTarget::kDatabase:
      *os << "database";
      break;
    case ScrubTarget::kRecordingFilesystem:
      *os << "recording_filesystem";
      break;
  }
}

class ScrubContractTest : public ::testing::TestWithParam<ScrubTarget> {};

TEST_P(ScrubContractTest, BoundedPassesResumeFromPersistentCursor) {
  std::unique_ptr<core::VolumeRepository> volume;
  if (GetParam() == ScrubTarget::kDatabase) {
    volume = std::make_unique<core::DbRepository>(DbConfig(64 * kMiB));
  } else {
    volume = std::make_unique<core::FsRepository>(FsConfig(64 * kMiB));
  }
  MediaFaultModel media;
  volume->device()->AttachMediaFaults(&media);
  workload::Trace trace;
  workload::RecordingRepository recorder(volume.get(), &trace);
  core::ObjectRepository* repo = volume.get();
  if (GetParam() == ScrubTarget::kRecordingFilesystem) repo = &recorder;

  // Distinct sizes make each pass's bytes_scanned name the objects it
  // visited.
  constexpr uint64_t kObjects = 12;
  std::map<std::string, uint64_t> sizes;  // Sorted: the scrub order.
  for (uint64_t i = 0; i < kObjects; ++i) {
    const std::string key = "obj" + std::to_string(i);
    sizes[key] = (i + 1) * 16 * kKiB;
    ASSERT_TRUE(repo->Put(key, sizes[key],
                          Pattern(sizes[key], static_cast<uint8_t>(i)))
                    .ok());
  }
  std::vector<uint64_t> sorted_sizes;
  for (const auto& [key, size] : sizes) sorted_sizes.push_back(size);
  media.Arm(MediaFaultSpec{});  // armed, zero rates: pure trickle scan

  core::ScrubOptions options;
  options.max_objects = 5;
  for (uint64_t pass = 0; pass < 3; ++pass) {
    auto report = repo->Scrub(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->objects_scanned, 5u);
    // Pass p covers sorted positions 5p .. 5p+4, wrapping past the
    // twelfth object back to the first.
    uint64_t expected_bytes = 0;
    for (uint64_t i = 0; i < 5; ++i) {
      expected_bytes += sorted_sizes[(pass * 5 + i) % kObjects];
    }
    EXPECT_EQ(report->bytes_scanned, expected_bytes) << "pass " << pass;
    EXPECT_EQ(report->read_errors + report->corruptions_detected, 0u);
  }
  // A pass without a bound covers the whole volume once.
  auto full = repo->Scrub();
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->objects_scanned, kObjects);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ScrubContractTest,
    ::testing::Values(ScrubTarget::kFilesystem, ScrubTarget::kDatabase,
                      ScrubTarget::kRecordingFilesystem),
    [](const auto& info) { return ::testing::PrintToString(info.param); });

// Satellite: typed statuses must survive the decorator stack. The
// RecordingRepository forwards Get/Put/... but inherits the base
// detect-only Scrub, which routes through the wrapper's virtual Get —
// both layers must carry Corruption/IoError untyped-free.
TEST(ScrubPropagationTest, TypedStatusesFlowThroughRecordingRepository) {
  core::FsRepository inner(FsConfig(64 * kMiB));
  MediaFaultModel media;
  inner.device()->AttachMediaFaults(&media);
  const auto payloads = Load(&inner, 8, 64 * kKiB);

  workload::Trace trace;
  workload::RecordingRepository recorder(&inner, &trace);

  MediaFaultSpec spec;
  spec.corruption_rate = 1.0;
  media.Arm(spec);

  // Direct forwarding: the wrapped Get carries the typed Corruption.
  std::vector<uint8_t> out;
  EXPECT_TRUE(recorder.Get("obj0", &out).IsCorruption());

  // Base-class Scrub on the wrapper: name-routed detect-only walk
  // dispatching through the wrapper's virtual Get.
  auto report = recorder.Scrub();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->objects_scanned, payloads.size());
  EXPECT_EQ(report->corruptions_detected, payloads.size());
  EXPECT_EQ(report->repaired, 0u);

  // Same walk under persistent LSEs: typed IoError, not Corruption.
  MediaFaultSpec lse;
  lse.lse_rate = 1.0;
  lse.transient_fraction = 0.0;
  media.Arm(lse);
  EXPECT_TRUE(recorder.Get("obj0", &out).IsIoError());
  auto lse_report = recorder.Scrub();
  ASSERT_TRUE(lse_report.ok());
  EXPECT_EQ(lse_report->read_errors, payloads.size());
}

// -- Seeded media torture ---------------------------------------------

workload::CrashTortureOptions MediaOptions(workload::CrashBackend backend) {
  workload::CrashTortureOptions options;
  options.backend = backend;
  options.volume_bytes = 96 * kMiB;
  options.object_bytes = 48 * kKiB;
  options.objects = 20;
  options.data_mode = DataMode::kRetain;
  options.seed = 1 + EnvOr("LOR_MEDIA_SEED", 0);
  options.media_cycles = EnvOr("LOR_MEDIA_CYCLES", 500);
  options.ops_per_media_cycle = 24;
  options.media.lse_rate = 0.02;
  options.media.transient_fraction = 0.5;
  options.media.corruption_rate = 0.02;
  options.media.degraded_rate = 0.05;
  options.media.flips_per_region = 4;
  return options;
}

workload::MediaTortureSummary RunMediaAndCheck(
    workload::CrashTortureOptions options) {
  workload::CrashTortureRunner runner(options);
  auto summary = runner.RunMedia();
  EXPECT_TRUE(summary.ok()) << summary.status().ToString();
  if (!summary.ok()) return {};
  EXPECT_EQ(summary->cycles_executed, options.media_cycles);
  EXPECT_EQ(summary->silent_corruptions, 0u)
      << "OK reads delivered wrong bytes across " << summary->cycles_executed
      << " media cycles";
  EXPECT_EQ(summary->fsck_dirty_cycles, 0u)
      << "fsck found damage after a heal pass";
  // The mix must actually bite: a soak that never faults proves nothing.
  EXPECT_GT(summary->read_errors + summary->corruptions_detected +
                summary->transient_clears + summary->scrub_repaired,
            0u);
  return *summary;
}

TEST(MediaFaultTortureTest, FsMixedFaultSoak) {
  RunMediaAndCheck(MediaOptions(workload::CrashBackend::kFilesystem));
}

TEST(MediaFaultTortureTest, DbMixedFaultSoak) {
  RunMediaAndCheck(MediaOptions(workload::CrashBackend::kDatabase));
}

// The write-back cache legitimately masks at-rest faults (resident
// frames predate the rot); the oracle still demands that every OK read
// be byte-correct and every miss admission be typed.
TEST(MediaFaultTortureTest, FsCachedSoak) {
  workload::CrashTortureOptions options =
      MediaOptions(workload::CrashBackend::kFilesystem);
  // Smaller than the ~1 MiB working set, so misses (and their media
  // admissions) keep happening alongside the masking hits.
  options.cache_bytes = 256 * kKiB;
  options.media_cycles = EnvOr("LOR_MEDIA_CYCLES", 500) / 5;
  options.seed += 21;
  RunMediaAndCheck(options);
}

TEST(MediaFaultTortureTest, DbCachedSoak) {
  workload::CrashTortureOptions options =
      MediaOptions(workload::CrashBackend::kDatabase);
  options.cache_bytes = 256 * kKiB;
  options.media_cycles = EnvOr("LOR_MEDIA_CYCLES", 500) / 5;
  options.seed += 22;
  RunMediaAndCheck(options);
}

}  // namespace
}  // namespace sim
}  // namespace lor
