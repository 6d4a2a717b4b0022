// BufferPool tests: the pool's own request paths (hit/miss/fill,
// write-back, eviction, pinning, recycling) over a raw device, then
// cache coherence through the repository stack — invalidation on
// delete/replace, clean-remount flushes, forced write-through under an
// armed fault injector, crash torture with the cache on, and a
// randomized cached-vs-uncached parity check (identical layouts and
// payloads; only the charges may differ).

#include "sim/buffer_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "sim/block_device.h"
#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "util/fnv.h"
#include "util/random.h"
#include "workload/crash_torture.h"
#include "workload/getput_runner.h"

namespace lor {
namespace sim {
namespace {

constexpr uint64_t kFrame = 64 * kKiB;

DiskParams SmallDisk(uint64_t capacity) {
  return DiskParams::St3400832as().WithCapacity(capacity);
}

std::vector<uint8_t> Pattern(uint64_t len, uint8_t salt) {
  std::vector<uint8_t> data(len);
  for (uint64_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i * 37 + salt);
  }
  return data;
}

CacheSlice Slice(uint64_t offset, uint64_t length, const uint8_t* src,
                 uint8_t* dst) {
  return {offset, length, src, dst, offset, length};
}

TEST(BufferPoolTest, DisabledPoolIsPassThrough) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPool pool(&dev, {});  // capacity 0
  EXPECT_FALSE(pool.enabled());

  const std::vector<uint8_t> data = Pattern(kFrame, 1);
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);
  // Pass-through never touches frames or counters.
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.stats().hits + pool.stats().misses, 0u);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  // The run-length append entry needs an enabled pool; callers without
  // one charge the device directly.
  EXPECT_FALSE(pool.WriteStreamRun(0, kFrame, 2, {}, 40.0e6).ok());
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(BufferPoolTest, MissFillsThenHitsWithoutDeviceReads) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  EXPECT_TRUE(pool.enabled());

  const std::vector<uint8_t> data = Pattern(kFrame, 2);
  ASSERT_TRUE(dev.Write(0, kFrame, data).ok());

  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().fills, 1u);
  const uint64_t device_reads = dev.stats().reads;
  const double t_hit0 = dev.clock().now();

  std::fill(back.begin(), back.end(), 0);
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(dev.stats().reads, device_reads) << "hit touched the device";
  // The hit still charges host CPU — it is not free, just cheap.
  EXPECT_GT(dev.clock().now(), t_hit0);
}

TEST(BufferPoolTest, ReadAheadFillServesLaterRequests) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(4 * kFrame, 3);
  ASSERT_TRUE(dev.Write(0, 4 * kFrame, data).ok());

  // Request one frame, fill the whole extent run (the read-ahead the
  // stores pass down).
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {
      {0, kFrame, nullptr, back.data(), 0, 4 * kFrame}};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().fill_bytes, 4 * kFrame);

  // The rest of the run is already resident.
  for (uint64_t i = 1; i < 4; ++i) {
    std::vector<CacheSlice> next = {
        Slice(i * kFrame, kFrame, nullptr, back.data())};
    ASSERT_TRUE(pool.ReadThrough(next).ok());
    EXPECT_TRUE(std::equal(back.begin(), back.end(),
                           data.begin() + static_cast<long>(i * kFrame)));
  }
  EXPECT_EQ(pool.stats().hits, 3u);
  EXPECT_EQ(pool.stats().misses, 1u);
}

TEST(BufferPoolTest, SpanningReadHitsAcrossAdjacentFrames) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  options.read_ahead = false;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(2 * kFrame, 4);
  ASSERT_TRUE(dev.Write(0, 2 * kFrame, data).ok());

  std::vector<uint8_t> back(2 * kFrame);
  std::vector<CacheSlice> a = {Slice(0, kFrame, nullptr, back.data())};
  std::vector<CacheSlice> b = {
      Slice(kFrame, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(a).ok());
  ASSERT_TRUE(pool.ReadThrough(b).ok());
  ASSERT_EQ(pool.frame_count(), 2u);

  std::vector<CacheSlice> both = {
      Slice(0, 2 * kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(both).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(pool.stats().hits, 1u) << "contiguous coverage is one hit";
}

TEST(BufferPoolTest, WriteBackParksDirtyThenFlushes) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 5);

  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(dev.stats().writes, 0u) << "write-back reached the device";
  EXPECT_EQ(pool.dirty_bytes(), kFrame);
  EXPECT_EQ(pool.stats().write_installs, 1u);

  // The pool serves its dirty bytes; the arena still has none.
  std::vector<uint8_t> back(kFrame);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(back, data);

  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(pool.dirty_bytes(), 0u);
  EXPECT_GE(pool.stats().writebacks, 1u);
  EXPECT_EQ(pool.stats().writeback_bytes, kFrame);
  bool matches = true;
  uint64_t checked = 0;
  dev.ReadView(0, kFrame, [&](std::span<const uint8_t> chunk) {
    for (uint8_t byte : chunk) {
      matches = matches && byte == data[checked++];
    }
  });
  EXPECT_TRUE(matches && checked == kFrame)
      << "flushed bytes differ from the written payload";
}

TEST(BufferPoolTest, WriteThroughModeWritesImmediately) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  options.write_back = false;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 6);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(dev.stats().writes, 1u);
  EXPECT_EQ(pool.dirty_bytes(), 0u);
}

// A write-through write's device slices belong to that write alone: a
// later all-hit read of the frame it installed must not touch the
// device (no read, no positioning, no clock beyond the hit CPU).
TEST(BufferPoolTest, HitAfterWriteThroughLeavesDeviceUntouched) {
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "armed injector" : "write_back=false");
    BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
    FaultInjector injector;
    dev.AttachFaultInjector(&injector);
    BufferPoolOptions options;
    options.capacity_bytes = 1 * kMiB;
    options.write_back = armed;
    BufferPool pool(&dev, options);
    if (armed) {
      CrashSpec spec;
      spec.crash_after_writes = 1000;  // Far enough to never trip here.
      injector.Arm(spec);
    }
    const std::vector<uint8_t> data = Pattern(2 * kFrame, 11);
    std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr),
                                 Slice(kFrame, kFrame, data.data() + kFrame,
                                       nullptr)};
    ASSERT_TRUE(pool.WriteThrough(w).ok());
    ASSERT_EQ(pool.dirty_bytes(), 0u);

    const IoStats before = dev.stats();
    const double t0 = dev.clock().now();
    std::vector<uint8_t> back(2 * kFrame);
    std::vector<CacheSlice> r = {Slice(0, 2 * kFrame, nullptr, back.data())};
    uint64_t device_bytes = 1;
    ASSERT_TRUE(pool.ReadThrough(r, &device_bytes).ok());
    EXPECT_EQ(back, data);
    EXPECT_EQ(pool.stats().hits, 1u);
    EXPECT_EQ(device_bytes, 0u);
    EXPECT_EQ(dev.stats().reads, before.reads);
    EXPECT_EQ(dev.stats().bytes_read, before.bytes_read);
    EXPECT_EQ(dev.stats().writes, before.writes);
    const double hit_cpu =
        options.hit_cpu_s + static_cast<double>(2 * kFrame) /
                                options.copy_bandwidth;
    EXPECT_NEAR(dev.clock().now() - t0, hit_cpu, 1e-12)
        << "an all-hit read charged more than its host copy";
  }
}

TEST(BufferPoolTest, EvictionRecyclesFrameBuffers) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 2 * kFrame;
  options.shards = 1;
  BufferPool pool(&dev, options);
  ASSERT_TRUE(dev.Write(0, 8 * kFrame).ok());

  std::vector<uint8_t> back(kFrame);
  for (uint64_t i = 0; i < 6; ++i) {
    std::vector<CacheSlice> r = {
        Slice(i * kFrame, kFrame, nullptr, back.data())};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
  }
  EXPECT_GE(pool.stats().evictions, 4u);
  EXPECT_GT(pool.stats().frame_recycles, 0u)
      << "steady-state fills must reuse evicted buffers";
  EXPECT_LE(pool.cached_bytes(), options.capacity_bytes);
}

TEST(BufferPoolTest, PinnedFramesRefuseEviction) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 2 * kFrame;
  options.shards = 1;
  BufferPool pool(&dev, options);
  ASSERT_TRUE(dev.Write(0, 8 * kFrame).ok());

  std::vector<uint8_t> back(kFrame);
  auto read = [&](uint64_t frame) {
    std::vector<CacheSlice> r = {
        Slice(frame * kFrame, kFrame, nullptr, back.data())};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
  };
  read(0);
  read(1);
  EXPECT_EQ(pool.PinRange(0, 2 * kFrame), 2u);

  // The domain is fully pinned: the pool must grow, not evict.
  read(2);
  EXPECT_EQ(pool.stats().evictions, 0u);
  EXPECT_GE(pool.stats().eviction_refusals, 1u);
  EXPECT_GT(pool.cached_bytes(), options.capacity_bytes);

  // Pinned frames still serve (counted) hits.
  const uint64_t pinned_hits = pool.stats().pinned_hits;
  read(0);
  EXPECT_GT(pool.stats().pinned_hits, pinned_hits);

  pool.UnpinRange(0, 2 * kFrame);
  read(3);
  read(4);
  EXPECT_GT(pool.stats().evictions, 0u) << "unpinned frames evict again";
}

TEST(BufferPoolTest, InvalidateDiscardsDirtyContent) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 7);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  ASSERT_EQ(pool.dirty_bytes(), kFrame);

  pool.Invalidate(0, kFrame);
  EXPECT_EQ(pool.frame_count(), 0u);
  EXPECT_EQ(pool.dirty_bytes(), 0u);
  EXPECT_EQ(pool.stats().invalidations, 1u);
  ASSERT_TRUE(pool.FlushAll().ok());
  EXPECT_EQ(dev.stats().writes, 0u)
      << "invalidated dirty bytes must never reach the device";
}

TEST(BufferPoolTest, MetadataOnlyFramesReadZerosAndChargeAlike) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kMetadataOnly);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  ASSERT_TRUE(dev.Write(0, kFrame).ok());

  std::vector<uint8_t> back(kFrame, 0xEE);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(std::all_of(back.begin(), back.end(),
                          [](uint8_t b) { return b == 0; }));
  // Bookkeeping frames spend no payload memory; the device must also
  // hold no slab for the range (kMetadataOnly never materializes one).
  EXPECT_EQ(pool.cached_bytes(), kFrame);
}

TEST(BufferPoolTest, ArmedInjectorForcesWriteThrough) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  FaultInjector injector;
  dev.AttachFaultInjector(&injector);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(kFrame, 8);

  CrashSpec spec;
  spec.crash_after_writes = 1000;  // Far enough to never trip here.
  injector.Arm(spec);
  std::vector<CacheSlice> w = {Slice(0, kFrame, data.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());
  EXPECT_EQ(pool.dirty_bytes(), 0u)
      << "dirty bytes parked in DRAM inside an armed crash window";
  EXPECT_GE(pool.stats().forced_write_through, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
}

TEST(BufferPoolTest, ViewServesDirtyFramesAndArenaGaps) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> on_disk = Pattern(kFrame, 9);
  const std::vector<uint8_t> in_cache = Pattern(kFrame, 10);
  ASSERT_TRUE(dev.Write(0, 2 * kFrame, {}).ok());
  ASSERT_TRUE(dev.Write(kFrame, kFrame, on_disk).ok());
  std::vector<CacheSlice> w = {Slice(0, kFrame, in_cache.data(), nullptr)};
  ASSERT_TRUE(pool.WriteThrough(w).ok());  // Dirty frame at [0, kFrame).

  std::vector<uint8_t> got;
  pool.View(0, 2 * kFrame, [&](std::span<const uint8_t> chunk) {
    got.insert(got.end(), chunk.begin(), chunk.end());
  });
  ASSERT_EQ(got.size(), 2 * kFrame);
  EXPECT_TRUE(std::equal(in_cache.begin(), in_cache.end(), got.begin()))
      << "view missed the dirty frame";
  EXPECT_TRUE(std::equal(on_disk.begin(), on_disk.end(),
                         got.begin() + static_cast<long>(kFrame)))
      << "view missed the arena gap";
}

// A fill that fails its media admission must DROP the installed frame,
// not park it: a parked never-filled frame would serve zeros as a hit
// once the fault clears — a silent corruption manufactured by the
// cache itself.
TEST(BufferPoolTest, FailedFillDropsFrameInsteadOfServingZeros) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);

  const std::vector<uint8_t> data = Pattern(kFrame, 11);
  ASSERT_TRUE(dev.Write(0, kFrame, data).ok());

  MediaFaultModel media;
  dev.AttachMediaFaults(&media);
  MediaFaultSpec spec;
  spec.lse_rate = 1.0;
  spec.transient_fraction = 0.0;
  media.Arm(spec);

  std::vector<uint8_t> back(kFrame, 0xEE);
  std::vector<CacheSlice> r = {Slice(0, kFrame, nullptr, back.data())};
  Status s = pool.ReadThrough(r);
  EXPECT_TRUE(s.IsIoError()) << s.ToString();

  // Fault paused: the retry must go back to the device (no frame may
  // have survived the failed fill) and deliver the real bytes.
  media.set_suspended(true);
  const uint64_t reads_before = dev.stats().reads;
  std::vector<CacheSlice> again = {Slice(0, kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(again).ok());
  EXPECT_EQ(back, data) << "cache served a never-filled frame";
  EXPECT_GT(dev.stats().reads, reads_before);
}

// Two slices of one call: the first hits a resident frame, the second
// misses with a read-ahead fill that overlaps (and so replaces) that
// frame. The first slice's deferred copy must still deliver its bytes.
TEST(BufferPoolTest, LaterFillReplacingAnEarlierSlicesFrameKeepsItsBytes) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 1 * kMiB;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(4 * kFrame, 14);
  ASSERT_TRUE(dev.Write(0, 4 * kFrame, data).ok());
  std::vector<uint8_t> scratch(2 * kFrame);
  std::vector<CacheSlice> warm = {
      Slice(0, 2 * kFrame, nullptr, scratch.data())};
  ASSERT_TRUE(pool.ReadThrough(warm).ok());  // Frame [0, 2*kFrame).

  std::vector<uint8_t> a(4096, 0xEE);
  std::vector<uint8_t> b(kFrame, 0xEE);
  std::vector<CacheSlice> r = {
      Slice(0, 4096, nullptr, a.data()),
      {2 * kFrame, kFrame, nullptr, b.data(), kFrame, 3 * kFrame}};
  ASSERT_TRUE(pool.ReadThrough(r).ok());
  EXPECT_TRUE(std::equal(a.begin(), a.end(), data.begin()));
  EXPECT_TRUE(std::equal(b.begin(), b.end(),
                         data.begin() + static_cast<long>(2 * kFrame)));
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.frame_count(), 1u) << "the fill replaced the warm frame";
  EXPECT_TRUE(pool.CheckConsistency().ok());
}

// Host work: a hit walks its frames from one index descent instead of
// searching once per frame (twice, counting the coverage check).
TEST(BufferPoolTest, HitSliceOverSixteenFramesCostsOneSearch) {
  BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 8 * kMiB;
  options.read_ahead = false;
  BufferPool pool(&dev, options);
  const std::vector<uint8_t> data = Pattern(16 * kFrame, 12);
  ASSERT_TRUE(dev.Write(0, 16 * kFrame, data).ok());

  std::vector<uint8_t> back(16 * kFrame);
  for (uint64_t i = 0; i < 16; ++i) {
    std::vector<CacheSlice> r = {
        Slice(i * kFrame, kFrame, nullptr, back.data() + i * kFrame)};
    ASSERT_TRUE(pool.ReadThrough(r).ok());
  }
  ASSERT_EQ(pool.frame_count(), 16u);

  std::fill(back.begin(), back.end(), 0);
  const uint64_t searches = pool.stats().index_searches;
  const uint64_t hits = pool.stats().hits;
  std::vector<CacheSlice> all = {
      Slice(0, 16 * kFrame, nullptr, back.data())};
  ASSERT_TRUE(pool.ReadThrough(all).ok());
  EXPECT_EQ(pool.stats().hits, hits + 1);
  EXPECT_EQ(pool.stats().index_searches, searches + 1);
  EXPECT_EQ(back, data);
  EXPECT_TRUE(pool.CheckConsistency().ok());
}

// WriteStreamRun is the run-length form of one-slice WriteThrough calls
// inside stream windows: identical clock, device and pool counters and
// bytes — the lazy writer trips after the same request (the ninth) —
// at one index descent for the whole run instead of one per request.
TEST(BufferPoolTest, WriteStreamRunMatchesPerRequestWritesAtOneSearch) {
  constexpr uint64_t kCount = 16;
  constexpr double kCap = 40.0e6;
  const std::vector<uint8_t> data = Pattern(kCount * kFrame, 13);
  struct Side {
    double now = 0.0;
    IoStats io;
    BufferPoolStats pool;
    uint64_t dirty = 0;
    std::vector<uint8_t> bytes;
  };
  auto drive = [&](bool run) {
    BlockDevice dev(SmallDisk(8 * kMiB), DataMode::kRetain);
    BufferPoolOptions options;
    options.capacity_bytes = 8 * kMiB;
    options.dirty_ratio = 1.0 / 16;  // Flush once dirty exceeds 512 KiB.
    BufferPool pool(&dev, options);
    const uint64_t offset = 3 * kMiB + 4096;
    if (run) {
      EXPECT_TRUE(
          pool.WriteStreamRun(offset, kFrame, kCount, data, kCap).ok());
    } else {
      for (uint64_t i = 0; i < kCount; ++i) {
        dev.BeginStreamWindow();
        std::vector<CacheSlice> w = {Slice(offset + i * kFrame, kFrame,
                                           data.data() + i * kFrame,
                                           nullptr)};
        EXPECT_TRUE(pool.WriteThrough(w).ok());
        dev.EndStreamWindow(kFrame, kCap);
      }
    }
    EXPECT_TRUE(pool.CheckConsistency().ok());
    Side side;
    side.now = dev.clock().now();
    side.io = dev.stats();
    side.pool = pool.stats();
    side.dirty = pool.dirty_bytes();
    pool.View(offset, kCount * kFrame, [&](std::span<const uint8_t> c) {
      side.bytes.insert(side.bytes.end(), c.begin(), c.end());
    });
    return side;
  };
  const Side run = drive(true);
  const Side per_request = drive(false);
  EXPECT_EQ(run.now, per_request.now);
  EXPECT_EQ(run.io.writes, per_request.io.writes);
  EXPECT_EQ(run.io.busy_time_s, per_request.io.busy_time_s);
  EXPECT_EQ(run.pool.write_installs, kCount);
  EXPECT_EQ(run.pool.write_installs, per_request.pool.write_installs);
  EXPECT_EQ(run.pool.evictions, 0u);
  EXPECT_EQ(run.pool.writebacks, 9u);
  EXPECT_EQ(run.pool.writebacks, per_request.pool.writebacks);
  EXPECT_EQ(run.dirty, (kCount - 9) * kFrame);
  EXPECT_EQ(run.dirty, per_request.dirty);
  EXPECT_EQ(run.bytes, data);
  EXPECT_EQ(per_request.bytes, data);
  EXPECT_LE(run.pool.index_searches, 2u);
  EXPECT_EQ(per_request.pool.index_searches, kCount);
}

// Seeded churn over every pool entry point on a small two-domain pool:
// the structural invariants hold after every operation, and every byte
// read back (and, at the end, every byte on the platter) matches a
// shadow copy of what was written. Invalidate and a bare Reset discard
// dirty bytes, so the bytes they may touch become unknown until they
// are written again.
// Seeded churn over every pool entry point on a small two-domain pool:
// CheckConsistency after every op, kRetain bytes against a shadow copy,
// and an all-hit read never reaches the device.
void RunChurn(bool write_back) {
  constexpr uint64_t kDevice = 4 * kMiB;
  constexpr uint64_t kMaxLen = 96 * kKiB;
  BlockDevice dev(SmallDisk(kDevice), DataMode::kRetain);
  BufferPoolOptions options;
  options.capacity_bytes = 768 * kKiB;
  options.shards = 2;
  options.write_back = write_back;
  BufferPool pool(&dev, options);

  std::vector<uint8_t> shadow(kDevice, 0);
  std::vector<bool> known(kDevice, true);
  Rng rng(20260521);
  auto forget = [&](uint64_t lo, uint64_t hi) {
    // Any frame overlapping [lo, hi) is at most 3*kMaxLen long (a read
    // fill extends a request by up to kMaxLen on each side).
    lo = lo > 3 * kMaxLen ? lo - 3 * kMaxLen : 0;
    hi = std::min(kDevice, hi + 3 * kMaxLen);
    std::fill(known.begin() + static_cast<long>(lo),
              known.begin() + static_cast<long>(hi), false);
  };
  auto remember = [&](uint64_t off, uint64_t len, const uint8_t* src) {
    for (uint64_t i = 0; i < len; ++i) {
      shadow[off + i] = src == nullptr ? 0 : src[i];
      known[off + i] = true;
    }
  };
  auto expect_bytes = [&](uint64_t off, std::span<const uint8_t> got,
                          uint64_t op) {
    for (uint64_t i = 0; i < got.size(); ++i) {
      if (known[off + i] && got[i] != shadow[off + i]) {
        ADD_FAILURE() << "op " << op << ": byte " << off + i << " is "
                      << int{got[i]} << ", wrote " << int{shadow[off + i]};
        return;
      }
    }
  };
  // Up to three disjoint ranges, in offset order.
  auto draw_ranges = [&](uint64_t n) {
    std::vector<std::pair<uint64_t, uint64_t>> ranges;
    uint64_t pos = rng.Uniform(kDevice / 2);
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t len = rng.UniformRange(1, kMaxLen / 4096) * 4096 -
                           (rng.Bernoulli(0.3) ? rng.Uniform(4096) : 0);
      if (pos + len > kDevice) break;
      ranges.emplace_back(pos, len);
      pos += len + rng.Uniform(2) * rng.Uniform(kMaxLen);
    }
    return ranges;
  };
  std::vector<std::pair<uint64_t, uint64_t>> pins;
  uint64_t salt = 0;
  for (uint64_t op = 0; op < 4000; ++op) {
    const uint64_t kind = rng.Uniform(100);
    if (kind < 30) {
      // Read: up to three slices, most with a read-ahead fill (which
      // may overlap frames an earlier slice of the same call uses).
      auto ranges = draw_ranges(rng.UniformRange(1, 3));
      std::vector<std::vector<uint8_t>> outs(ranges.size());
      std::vector<CacheSlice> slices;
      for (size_t i = 0; i < ranges.size(); ++i) {
        outs[i].assign(ranges[i].second, 0xEE);
        slices.push_back(Slice(ranges[i].first, ranges[i].second, nullptr,
                               outs[i].data()));
      }
      for (CacheSlice& sl : slices) {
        if (rng.Bernoulli(0.3)) continue;  // Fill exactly the request.
        const uint64_t before = rng.Uniform(kMaxLen);
        const uint64_t after = rng.Uniform(kMaxLen);
        sl.fill_offset = sl.offset > before ? sl.offset - before : 0;
        sl.fill_length =
            std::min(kDevice, sl.offset + sl.length + after) - sl.fill_offset;
      }
      const uint64_t reads_before = dev.stats().reads;
      uint64_t device_bytes = 0;
      ASSERT_TRUE(pool.ReadThrough(slices, &device_bytes).ok()) << "op " << op;
      if (device_bytes == 0) {
        EXPECT_EQ(dev.stats().reads, reads_before)
            << "op " << op << ": all-hit read reached the device";
      }
      for (size_t i = 0; i < ranges.size(); ++i) {
        expect_bytes(ranges[i].first, outs[i], op);
      }
    } else if (kind < 55) {
      // Write: several disjoint slices, some timing-only.
      auto ranges = draw_ranges(rng.UniformRange(1, 3));
      std::vector<std::vector<uint8_t>> ins;
      std::vector<CacheSlice> slices;
      for (const auto& [off, len] : ranges) {
        ins.push_back(Pattern(len, static_cast<uint8_t>(++salt)));
        const uint8_t* src = rng.Bernoulli(0.15) ? nullptr : ins.back().data();
        slices.push_back(Slice(off, len, src, nullptr));
      }
      ASSERT_TRUE(pool.WriteThrough(slices).ok()) << "op " << op;
      for (const CacheSlice& sl : slices) remember(sl.offset, sl.length, sl.src);
    } else if (kind < 70) {
      // Append run.
      const uint64_t len = rng.UniformRange(1, 16) * 4096;
      const uint64_t count = rng.UniformRange(1, 12);
      const uint64_t off = rng.Uniform(kDevice - len * count);
      const bool timing_only = rng.Bernoulli(0.15);
      const std::vector<uint8_t> data =
          timing_only ? std::vector<uint8_t>()
                      : Pattern(len * count, static_cast<uint8_t>(++salt));
      ASSERT_TRUE(pool.WriteStreamRun(off, len, count, data, 40.0e6).ok())
          << "op " << op;
      remember(off, len * count, timing_only ? nullptr : data.data());
    } else if (kind < 78) {
      const uint64_t off = rng.Uniform(kDevice - kMaxLen);
      const uint64_t len = rng.UniformRange(1, kMaxLen);
      pool.Invalidate(off, len);
      forget(off, off + len);
    } else if (kind < 86) {
      const uint64_t off = rng.Uniform(kDevice - kMaxLen);
      const uint64_t len = rng.UniformRange(1, 4 * kMaxLen);
      if (pins.size() < 4 && rng.Bernoulli(0.6)) {
        pool.PinRange(off, len);
        pins.emplace_back(off, len);
      } else if (!pins.empty()) {
        pool.UnpinRange(pins.back().first, pins.back().second);
        pins.pop_back();
      }
    } else if (kind < 96) {
      const uint64_t off = rng.Uniform(kDevice - kMaxLen);
      ASSERT_TRUE(pool.FlushRange(off, rng.UniformRange(1, kMaxLen)).ok());
    } else {
      if (rng.Bernoulli(0.5)) {
        ASSERT_TRUE(pool.FlushAll().ok());  // Clean remount: bytes kept.
      } else {
        forget(0, kDevice);  // Crash remount: dirty bytes die.
      }
      pool.Reset();
      pins.clear();
    }
    const Status consistent = pool.CheckConsistency();
    ASSERT_TRUE(consistent.ok()) << "op " << op << ": " << consistent.ToString();
  }
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().hits, 0u);
  if (write_back) {
    EXPECT_GT(pool.stats().writebacks, 0u);
  } else {
    EXPECT_EQ(pool.stats().writebacks, 0u);
    EXPECT_EQ(pool.dirty_bytes(), 0u);
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  uint64_t pos = 0;
  dev.ReadView(0, kDevice, [&](std::span<const uint8_t> chunk) {
    expect_bytes(pos, chunk, 4000);
    pos += chunk.size();
  });
}

TEST(BufferPoolTest, RandomChurnKeepsInvariantsAndBytes) { RunChurn(true); }

TEST(BufferPoolTest, RandomChurnInWriteThroughModeKeepsInvariantsAndBytes) {
  RunChurn(false);
}

}  // namespace
}  // namespace sim

namespace core {
namespace {

constexpr uint64_t kObject = 256 * kKiB;

std::vector<uint8_t> RepoPayload(uint64_t len, uint8_t salt) {
  std::vector<uint8_t> data(len);
  for (uint64_t i = 0; i < len; ++i) {
    data[i] = static_cast<uint8_t>(i * 41 + salt);
  }
  return data;
}

FsRepositoryConfig CachedFsConfig(uint64_t cache_bytes) {
  FsRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  config.cache.capacity_bytes = cache_bytes;
  return config;
}

DbRepositoryConfig CachedDbConfig(uint64_t cache_bytes) {
  DbRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  config.data_mode = sim::DataMode::kRetain;
  config.cache.capacity_bytes = cache_bytes;
  return config;
}

TEST(CacheCoherenceTest, FsReplaceAndDeleteNeverServeStaleBytes) {
  FsRepository repo(CachedFsConfig(8 * kMiB));
  const std::vector<uint8_t> v1 = RepoPayload(kObject, 1);
  const std::vector<uint8_t> v2 = RepoPayload(kObject, 2);

  ASSERT_TRUE(repo.Put("a", kObject, v1).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(repo.Get("a", &got).ok());  // Cached now.
  ASSERT_EQ(got, v1);

  // Replace under an open read handle: the pin window must not keep
  // stale frames alive past the invalidation.
  auto handle = repo.Open("a");
  ASSERT_TRUE(handle.ok());
  ASSERT_TRUE(repo.SafeWrite("a", kObject, v2).ok());
  ASSERT_TRUE(repo.Get("a", &got).ok());
  EXPECT_EQ(got, v2) << "read served the replaced object's stale frames";
  EXPECT_GT(repo.cache_stats().invalidations, 0u);
  ASSERT_TRUE(repo.Release(&*handle).ok());

  // Delete, then land a different object on the freed clusters.
  ASSERT_TRUE(repo.Delete("a").ok());
  const std::vector<uint8_t> v3 = RepoPayload(kObject, 3);
  ASSERT_TRUE(repo.Put("b", kObject, v3).ok());
  ASSERT_TRUE(repo.Get("b", &got).ok());
  EXPECT_EQ(got, v3) << "freed clusters served the deleted object's bytes";
}

TEST(CacheCoherenceTest, DbReplaceAndDeleteNeverServeStaleBytes) {
  DbRepository repo(CachedDbConfig(8 * kMiB));
  const std::vector<uint8_t> v1 = RepoPayload(kObject, 4);
  const std::vector<uint8_t> v2 = RepoPayload(kObject, 5);

  ASSERT_TRUE(repo.Put("a", kObject, v1).ok());
  std::vector<uint8_t> got;
  ASSERT_TRUE(repo.Get("a", &got).ok());
  ASSERT_EQ(got, v1);

  ASSERT_TRUE(repo.SafeWrite("a", kObject, v2).ok());
  ASSERT_TRUE(repo.Get("a", &got).ok());
  EXPECT_EQ(got, v2);
  EXPECT_GT(repo.cache_stats().invalidations, 0u);

  ASSERT_TRUE(repo.Delete("a").ok());
  const std::vector<uint8_t> v3 = RepoPayload(kObject, 6);
  ASSERT_TRUE(repo.Put("b", kObject, v3).ok());
  ASSERT_TRUE(repo.Get("b", &got).ok());
  EXPECT_EQ(got, v3);
}

TEST(CacheCoherenceTest, CleanRemountFlushesDirtyFrames) {
  FsRepository repo(CachedFsConfig(8 * kMiB));
  const std::vector<uint8_t> data = RepoPayload(kObject, 7);
  ASSERT_TRUE(repo.Put("a", kObject, data).ok());

  // The remount resets the pool; the payload must survive it on the
  // platter even if the put's frames were still dirty.
  ASSERT_TRUE(repo.Mount().ok());
  EXPECT_EQ(repo.buffer_pool()->dirty_bytes(), 0u);
  EXPECT_EQ(repo.buffer_pool()->frame_count(), 0u);
  std::vector<uint8_t> got;
  ASSERT_TRUE(repo.Get("a", &got).ok());
  EXPECT_EQ(got, data) << "dirty frames were dropped on a clean remount";
}

TEST(CacheCoherenceTest, FsckSeesThroughDirtyFrames) {
  // Fsck re-hashes every payload; with write-back frames still dirty
  // the verification must read cache-coherently and stay clean.
  FsRepository repo(CachedFsConfig(8 * kMiB));
  for (int i = 0; i < 4; ++i) {
    const std::string key = "obj" + std::to_string(i);
    ASSERT_TRUE(
        repo.Put(key, kObject, RepoPayload(kObject, uint8_t(10 + i))).ok());
  }
  auto report = repo.Fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean()) << "fsck flagged a cache-coherent store";
  EXPECT_GT(report->payloads_hashed, 0u);
}

TEST(CacheCoherenceTest, ArmedWindowForcesWriteThroughAtRepoLevel) {
  FsRepository repo(CachedFsConfig(8 * kMiB));
  sim::FaultInjector injector;
  repo.device()->AttachFaultInjector(&injector);
  ASSERT_TRUE(repo.Put("pre", kObject, RepoPayload(kObject, 20)).ok());
  ASSERT_TRUE(repo.DrainIo().ok());

  sim::CrashSpec spec;
  spec.crash_after_writes = 100000;  // Observe the window, never trip.
  injector.Arm(spec);
  ASSERT_TRUE(repo.Put("armed", kObject, RepoPayload(kObject, 21)).ok());
  EXPECT_EQ(repo.buffer_pool()->dirty_bytes(), 0u)
      << "acked bytes parked in DRAM inside the armed crash window";
  EXPECT_GT(repo.cache_stats().forced_write_through, 0u);
}

TEST(CacheCrashTest, TortureWithWriteBackCacheFs) {
  workload::CrashTortureOptions options;
  options.backend = workload::CrashBackend::kFilesystem;
  options.volume_bytes = 128 * kMiB;
  options.object_bytes = 96 * kKiB;
  options.objects = 24;
  options.cuts = 12;
  options.max_ops_per_window = 24;
  options.data_mode = sim::DataMode::kRetain;
  options.cache_bytes = 16 * kMiB;
  workload::CrashTortureRunner runner(options);
  auto summary = runner.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->committed_lost, 0u)
      << "write-back cache lost committed objects across power cuts";
  EXPECT_EQ(summary->torn_surfaced, 0u);
  EXPECT_EQ(summary->fsck_dirty_cuts, 0u);
}

TEST(CacheCrashTest, TortureWithWriteBackCacheDb) {
  workload::CrashTortureOptions options;
  options.backend = workload::CrashBackend::kDatabase;
  options.volume_bytes = 128 * kMiB;
  options.object_bytes = 96 * kKiB;
  options.objects = 24;
  options.cuts = 12;
  options.max_ops_per_window = 24;
  options.data_mode = sim::DataMode::kRetain;
  options.cache_bytes = 16 * kMiB;
  workload::CrashTortureRunner runner(options);
  auto summary = runner.Run();
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->committed_lost, 0u);
  EXPECT_EQ(summary->torn_surfaced, 0u);
  EXPECT_EQ(summary->fsck_dirty_cuts, 0u);
}

/// Runs the synthetic workload and returns (key -> payload hash) plus
/// (key -> layout) for parity comparison.
template <typename Repo>
void RunWorkloadAndCapture(Repo* repo,
                           std::vector<std::pair<std::string, uint64_t>>* hashes,
                           std::vector<alloc::ExtentList>* layouts) {
  workload::WorkloadConfig config;
  config.sizes = workload::SizeDistribution::Constant(64 * kKiB);
  config.seed = 7;
  config.materialize_reads = true;
  workload::GetPutRunner runner(repo, config);
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());

  std::vector<std::string> keys = repo->ListKeys();
  std::sort(keys.begin(), keys.end());
  std::vector<uint8_t> payload;
  for (const std::string& key : keys) {
    ASSERT_TRUE(repo->Get(key, &payload).ok());
    hashes->emplace_back(key, Fnv(payload));
    auto layout = repo->GetLayout(key);
    ASSERT_TRUE(layout.ok());
    layouts->push_back(*layout);
  }
}

TEST(CacheCoherenceTest, CachedAndUncachedRunsAreBitIdentical) {
  // Same seed, same workload — one store uncached, one fronted by a
  // working-set-sized write-back pool. The pool may change *charges*
  // only: every layout and every payload must be bit-identical.
  for (const bool use_db : {false, true}) {
    std::vector<std::pair<std::string, uint64_t>> hashes_cold, hashes_cached;
    std::vector<alloc::ExtentList> layouts_cold, layouts_cached;
    if (use_db) {
      DbRepository cold(CachedDbConfig(0));
      DbRepository cached(CachedDbConfig(48 * kMiB));
      RunWorkloadAndCapture(&cold, &hashes_cold, &layouts_cold);
      RunWorkloadAndCapture(&cached, &hashes_cached, &layouts_cached);
      EXPECT_GT(cached.cache_stats().write_installs, 0u);
      EXPECT_EQ(cold.cache_stats().hits + cold.cache_stats().misses, 0u);
    } else {
      FsRepository cold(CachedFsConfig(0));
      FsRepository cached(CachedFsConfig(48 * kMiB));
      RunWorkloadAndCapture(&cold, &hashes_cold, &layouts_cold);
      RunWorkloadAndCapture(&cached, &hashes_cached, &layouts_cached);
      EXPECT_GT(cached.cache_stats().write_installs, 0u);
      EXPECT_EQ(cold.cache_stats().hits + cold.cache_stats().misses, 0u);
    }
    ASSERT_FALSE(hashes_cold.empty());
    EXPECT_EQ(hashes_cold, hashes_cached)
        << (use_db ? "db" : "fs") << ": cached payloads diverged";
    EXPECT_EQ(layouts_cold, layouts_cached)
        << (use_db ? "db" : "fs") << ": cached layouts diverged";
  }
}

}  // namespace
}  // namespace core
}  // namespace lor
