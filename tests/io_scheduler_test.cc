// Tests for the submission/completion pipeline: IoScheduler service
// order and closed-loop admission, LatencyRecorder accounting, the
// Submit/SubmitV device API, and queue-depth windows driven through the
// repositories and the workload runners.

#include <gtest/gtest.h>

#include <vector>

#include "core/db_repository.h"
#include "core/fs_repository.h"
#include "core/repository_factory.h"
#include "sim/block_device.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"
#include "workload/getput_runner.h"
#include "workload/sharded_runner.h"

namespace lor {
namespace sim {
namespace {

DiskParams SmallDisk() {
  return DiskParams::St3400832as().WithCapacity(kGiB);
}

// ---------------------------------------------------------------------
// LatencyRecorder

TEST(LatencyRecorderTest, RecordsPerClassAndIgnoresControl) {
  LatencyRecorder rec;
  rec.Record(OpClass::kGet, 0.010);
  rec.Record(OpClass::kGet, 0.020);
  rec.Record(OpClass::kPut, 0.030);
  rec.Record(OpClass::kControl, 0.500);
  EXPECT_EQ(rec.histogram(OpClass::kGet).count(), 2u);
  EXPECT_EQ(rec.histogram(OpClass::kPut).count(), 1u);
  EXPECT_EQ(rec.histogram(OpClass::kSafeWrite).count(), 0u);
  EXPECT_EQ(rec.histogram(OpClass::kDelete).count(), 0u);
  EXPECT_EQ(rec.total_count(), 3u);
}

TEST(LatencyRecorderTest, WritesMergesPutAndSafeWrite) {
  LatencyRecorder rec;
  rec.Record(OpClass::kPut, 0.001);
  rec.Record(OpClass::kSafeWrite, 0.002);
  rec.Record(OpClass::kGet, 0.003);
  const LatencyHistogram writes = rec.writes();
  EXPECT_EQ(writes.count(), 2u);
  EXPECT_DOUBLE_EQ(writes.min(), 0.001);
  EXPECT_DOUBLE_EQ(writes.max(), 0.002);
}

TEST(LatencyRecorderTest, MergeAndSubtractAreExact) {
  LatencyRecorder a, b;
  for (int i = 1; i <= 10; ++i) a.Record(OpClass::kGet, 1e-3 * i);
  for (int i = 1; i <= 5; ++i) b.Record(OpClass::kSafeWrite, 1e-2 * i);
  LatencyRecorder merged = a;
  merged.Merge(b);
  EXPECT_EQ(merged.total_count(), 15u);
  EXPECT_EQ(merged.histogram(OpClass::kGet).count(), 10u);
  EXPECT_EQ(merged.histogram(OpClass::kSafeWrite).count(), 5u);
  // Cumulative-snapshot differencing returns exactly the suffix.
  const LatencyRecorder delta = merged - a;
  EXPECT_EQ(delta.total_count(), 5u);
  EXPECT_EQ(delta.histogram(OpClass::kGet).count(), 0u);
  EXPECT_EQ(delta.histogram(OpClass::kSafeWrite).count(), 5u);
}

TEST(LatencyRecorderTest, OpClassNamesAreStable) {
  EXPECT_STREQ(OpClassName(OpClass::kGet), "get");
  EXPECT_STREQ(OpClassName(OpClass::kPut), "put");
  EXPECT_STREQ(OpClassName(OpClass::kSafeWrite), "safe-write");
  EXPECT_STREQ(OpClassName(OpClass::kDelete), "delete");
}

// ---------------------------------------------------------------------
// IoScheduler, device level

TEST(IoSchedulerTest, SyncOpScopeRecordsElapsedLatency) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  const double t0 = dev.clock().now();
  {
    OpScope scope(&sched, OpClass::kGet);
    ASSERT_TRUE(dev.Read(10 * kMiB, 64 * kKiB).ok());
  }
  const LatencyHistogram& h = rec.histogram(OpClass::kGet);
  ASSERT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), dev.clock().now() - t0);
}

TEST(IoSchedulerTest, NullSchedulerScopeIsNoOp) {
  // Wrapper back ends without a pipeline construct scopes on null.
  OpScope scope(nullptr, OpClass::kPut);
}

TEST(IoSchedulerTest, EngageValidation) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  EXPECT_TRUE(sched.Engage(0).IsInvalidArgument());
  EXPECT_FALSE(sched.engaged());
  {
    OpScope scope(&sched, OpClass::kGet);
    EXPECT_FALSE(sched.Engage(4).ok());  // Mid-op engagement refused.
  }
  ASSERT_TRUE(sched.Engage(4, SchedPolicy::kFifo).ok());
  EXPECT_TRUE(sched.engaged());
  EXPECT_EQ(sched.queue_depth(), 4u);
  EXPECT_EQ(sched.policy(), SchedPolicy::kFifo);
  // Re-engaging drains and switches parameters.
  ASSERT_TRUE(sched.Engage(2, SchedPolicy::kSptf).ok());
  EXPECT_EQ(sched.queue_depth(), 2u);
  ASSERT_TRUE(sched.Disengage().ok());
  EXPECT_FALSE(sched.engaged());
}

TEST(IoSchedulerTest, SubmitCallbackFiresInlineWhenSync) {
  BlockDevice dev(SmallDisk());
  double completion = -1.0;
  IoRequest req;
  req.write = true;
  req.offset = kMiB;
  req.length = 64 * kKiB;
  ASSERT_TRUE(dev.Submit(req, [&](double t, const Status&) { completion = t; }).ok());
  EXPECT_DOUBLE_EQ(completion, dev.clock().now());
  // Zero-length submissions complete immediately without charges.
  req.length = 0;
  completion = -1.0;
  const double before = dev.clock().now();
  ASSERT_TRUE(dev.Submit(req, [&](double t, const Status&) { completion = t; }).ok());
  EXPECT_DOUBLE_EQ(completion, before);
  EXPECT_DOUBLE_EQ(dev.clock().now(), before);
}

TEST(IoSchedulerTest, SubmitVFiresOneCallbackForTheBatch) {
  BlockDevice dev(SmallDisk());
  std::vector<IoRequest> reqs(3);
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].write = true;
    reqs[i].offset = 100 * kMiB + i * 64 * kKiB;  // Sequential runs.
    reqs[i].length = 64 * kKiB;
  }
  int fired = 0;
  double completion = -1.0;
  ASSERT_TRUE(dev.SubmitV(reqs, [&](double t, const Status&) {
                   ++fired;
                   completion = t;
                 }).ok());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(completion, dev.clock().now());
  EXPECT_EQ(dev.stats().vectored_requests, 1u);
  EXPECT_EQ(dev.stats().coalesced_runs, 3u);
}

TEST(IoSchedulerTest, SubmitVEmptyBatchCompletesImmediately) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  for (bool engaged : {false, true}) {
    if (engaged) {
      ASSERT_TRUE(sched.Engage(4, SchedPolicy::kSptf).ok());
    }
    const double before = dev.clock().now();
    int fired = 0;
    ASSERT_TRUE(dev.SubmitV({}, [&](double t, const Status&) {
                     ++fired;
                     EXPECT_DOUBLE_EQ(t, before);
                   }).ok());
    EXPECT_EQ(fired, 1);
    EXPECT_DOUBLE_EQ(dev.clock().now(), before);  // No charges.
    EXPECT_EQ(dev.stats().vectored_requests, 0u);
    // Null-callback form is legal too.
    ASSERT_TRUE(dev.SubmitV({}).ok());
    if (engaged) {
      ASSERT_TRUE(sched.Disengage().ok());
    }
  }
}

TEST(IoSchedulerTest, DrainOnIdleSchedulerIsFree) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  // Disengaged: nothing queued, nothing charged.
  const double t0 = dev.clock().now();
  sched.Drain();
  EXPECT_DOUBLE_EQ(dev.clock().now(), t0);
  // Engaged but idle: still free, and repeatable.
  ASSERT_TRUE(sched.Engage(4, SchedPolicy::kSptf).ok());
  sched.Drain();
  sched.Drain();
  EXPECT_DOUBLE_EQ(dev.clock().now(), t0);
  EXPECT_EQ(dev.stats().writes, 0u);
  ASSERT_TRUE(sched.Disengage().ok());
}

TEST(IoSchedulerTest, CompletionCallbackMaySubmitMoreWork) {
  // A completion that itself submits (the journal-flush-chains-next-
  // entry shape) must not corrupt the queue or lose either completion.
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  ASSERT_TRUE(sched.Engage(2, SchedPolicy::kFifo).ok());

  IoRequest first;
  first.write = true;
  first.offset = 10 * kMiB;
  first.length = 64 * kKiB;
  IoRequest chained;
  chained.write = true;
  chained.offset = 400 * kMiB;
  chained.length = 64 * kKiB;

  double first_done = -1.0;
  double chained_done = -1.0;
  ASSERT_TRUE(dev.Submit(first, [&](double t, const Status&) {
                   first_done = t;
                   ASSERT_TRUE(dev.Submit(chained, [&](double t2, const Status&) {
                                    chained_done = t2;
                                  }).ok());
                 }).ok());
  sched.Drain();
  EXPECT_GT(first_done, 0.0);
  EXPECT_GT(chained_done, first_done);
  EXPECT_EQ(dev.stats().writes, 2u);
  ASSERT_TRUE(sched.Disengage().ok());
}

// Replays the same mixed request sequence against a device; each
// repository-style op is bracketed by an OpScope.
void DriveMixedSequence(BlockDevice* dev, IoScheduler* sched) {
  const uint64_t offsets[] = {200 * kMiB, 4 * kMiB, 700 * kMiB, 4 * kMiB + 256 * kKiB};
  for (uint64_t off : offsets) {
    OpScope scope(sched, OpClass::kPut);
    ASSERT_TRUE(dev->Write(off, 256 * kKiB).ok());
  }
  {
    OpScope scope(sched, OpClass::kControl);
    dev->Flush();
  }
  {
    OpScope scope(sched, OpClass::kControl);
    dev->ChargeCpu(0.0025);
  }
  for (uint64_t off : {500 * kMiB, 4 * kMiB}) {
    OpScope scope(sched, OpClass::kGet);
    ASSERT_TRUE(dev->Read(off, 128 * kKiB).ok());
  }
  {
    // A multi-request chain: write then flush, like a safe write.
    OpScope scope(sched, OpClass::kSafeWrite);
    ASSERT_TRUE(dev->Write(900 * kMiB, 64 * kKiB).ok());
    dev->Flush();
  }
}

TEST(IoSchedulerTest, AsyncQd1FifoMatchesSyncExactly) {
  // Queue depth 1 + FIFO replays the synchronous service order: the
  // clock and every stat must come out bit-identical, not just close.
  BlockDevice sync_dev(SmallDisk());
  LatencyRecorder sync_rec;
  IoScheduler sync_sched(&sync_dev, &sync_rec);
  sync_dev.AttachScheduler(&sync_sched);
  DriveMixedSequence(&sync_dev, &sync_sched);

  BlockDevice async_dev(SmallDisk());
  LatencyRecorder async_rec;
  IoScheduler async_sched(&async_dev, &async_rec);
  async_dev.AttachScheduler(&async_sched);
  ASSERT_TRUE(async_sched.Engage(1, SchedPolicy::kFifo).ok());
  DriveMixedSequence(&async_dev, &async_sched);
  ASSERT_TRUE(async_sched.Disengage().ok());

  EXPECT_EQ(sync_dev.clock().now(), async_dev.clock().now());
  const IoStats& a = sync_dev.stats();
  const IoStats& b = async_dev.stats();
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.bytes_read, b.bytes_read);
  EXPECT_EQ(a.bytes_written, b.bytes_written);
  EXPECT_EQ(a.seeks, b.seeks);
  EXPECT_EQ(a.sequential_hits, b.sequential_hits);
  EXPECT_EQ(a.seek_time_s, b.seek_time_s);
  EXPECT_EQ(a.rotational_time_s, b.rotational_time_s);
  EXPECT_EQ(a.transfer_time_s, b.transfer_time_s);
  EXPECT_EQ(a.busy_time_s, b.busy_time_s);
  // Per-class sample counts agree (latency values differ only in that
  // the sync scope also spans charge-submission bookkeeping).
  EXPECT_EQ(sync_rec.total_count(), async_rec.total_count());
}

TEST(IoSchedulerTest, SptfServicesShortestPositioningFirst) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  ASSERT_TRUE(sched.Engage(4, SchedPolicy::kSptf).ok());

  // Submission order: far, near, mid from the initial head at 0. All
  // three are admitted (depth 4), so the drain chooses service order.
  const uint64_t offsets[] = {300 * kMiB, 10 * kMiB, 100 * kMiB};
  std::vector<int> completion_order;
  std::vector<double> completion_times;
  for (int i = 0; i < 3; ++i) {
    OpScope scope(&sched, OpClass::kGet);
    IoRequest req;
    req.offset = offsets[i];
    req.length = 4 * kKiB;
    ASSERT_TRUE(dev.Submit(req, [&, i](double t, const Status&) {
                     completion_order.push_back(i);
                     completion_times.push_back(t);
                   }).ok());
  }
  sched.Drain();
  ASSERT_EQ(completion_order.size(), 3u);
  // Nearest-first: 10 MB, then 100 MB (head now at ~10 MB), then 300.
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
  EXPECT_EQ(completion_order[2], 0);
  EXPECT_LT(completion_times[0], completion_times[1]);
  EXPECT_LT(completion_times[1], completion_times[2]);
  EXPECT_EQ(sched.completed_ops(), 3u);
  EXPECT_EQ(sched.serviced_requests(), 3u);
}

TEST(IoSchedulerTest, FifoServicesSubmissionOrder) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  ASSERT_TRUE(sched.Engage(4, SchedPolicy::kFifo).ok());
  const uint64_t offsets[] = {300 * kMiB, 10 * kMiB, 100 * kMiB};
  std::vector<int> completion_order;
  for (int i = 0; i < 3; ++i) {
    OpScope scope(&sched, OpClass::kGet);
    IoRequest req;
    req.offset = offsets[i];
    req.length = 4 * kKiB;
    ASSERT_TRUE(
        dev.Submit(req,
                   [&, i](double, const Status&) { completion_order.push_back(i); })
            .ok());
  }
  sched.Drain();
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_EQ(completion_order[0], 0);
  EXPECT_EQ(completion_order[1], 1);
  EXPECT_EQ(completion_order[2], 2);
}

TEST(IoSchedulerTest, InflightNeverExceedsQueueDepth) {
  BlockDevice dev(SmallDisk());
  IoScheduler sched(&dev, nullptr);
  dev.AttachScheduler(&sched);
  ASSERT_TRUE(sched.Engage(2).ok());
  for (int i = 0; i < 8; ++i) {
    OpScope scope(&sched, OpClass::kGet);
    ASSERT_TRUE(dev.Read((i * 97 + 1) * kMiB % (kGiB / 2), 4 * kKiB).ok());
    EXPECT_LE(sched.inflight_ops(), 2u);
  }
  sched.Drain();
  EXPECT_EQ(sched.inflight_ops(), 0u);
  EXPECT_EQ(sched.completed_ops(), 8u);
}

// Issues `n` single-read ops at scattered offsets through a scheduler
// engaged at `depth` and returns the recorder.
LatencyRecorder RunScatteredReads(uint32_t depth, int n) {
  BlockDevice dev(SmallDisk());
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  EXPECT_TRUE(sched.Engage(depth, SchedPolicy::kSptf).ok());
  for (int i = 0; i < n; ++i) {
    OpScope scope(&sched, OpClass::kGet);
    const uint64_t offset = (static_cast<uint64_t>(i) * 37 * kMiB) % (kGiB - kMiB);
    EXPECT_TRUE(dev.Read(offset, 4 * kKiB).ok());
  }
  sched.Drain();
  return rec;
}

TEST(IoSchedulerTest, QueueingDelayVisibleInTailLatency) {
  // At depth 1 an op's completion latency is its own service time; at
  // depth 8 it additionally waits for the ops serviced before it, so
  // the tail must grow by well over the service time itself.
  const LatencyRecorder qd1 = RunScatteredReads(1, 200);
  const LatencyRecorder qd8 = RunScatteredReads(8, 200);
  ASSERT_EQ(qd1.histogram(OpClass::kGet).count(), 200u);
  ASSERT_EQ(qd8.histogram(OpClass::kGet).count(), 200u);
  const double p99_qd1 = qd1.histogram(OpClass::kGet).Quantile(0.99);
  const double p99_qd8 = qd8.histogram(OpClass::kGet).Quantile(0.99);
  EXPECT_GT(p99_qd8, 2.0 * p99_qd1);
  EXPECT_GT(qd8.histogram(OpClass::kGet).mean(),
            qd1.histogram(OpClass::kGet).mean());
}

TEST(IoSchedulerTest, DeterministicAcrossRuns) {
  const LatencyRecorder a = RunScatteredReads(8, 100);
  const LatencyRecorder b = RunScatteredReads(8, 100);
  EXPECT_EQ(a.total_count(), b.total_count());
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_DOUBLE_EQ(a.histogram(OpClass::kGet).Quantile(q),
                     b.histogram(OpClass::kGet).Quantile(q));
  }
  EXPECT_DOUBLE_EQ(a.histogram(OpClass::kGet).sum(),
                   b.histogram(OpClass::kGet).sum());
}

// ---------------------------------------------------------------------
// Repository level

TEST(IoSchedulerTest, RepositoryAsyncQd1MatchesSyncClosely) {
  // The same name-based operation sequence against a synchronous
  // repository and one engaged at depth 1 / FIFO: layouts must be
  // identical (payload moves at submission) and the clocks agree to
  // float-accumulation noise.
  core::FsRepositoryConfig config;
  config.volume_bytes = 256 * kMiB;
  core::FsRepository sync_repo(config);
  core::FsRepository async_repo(config);
  ASSERT_TRUE(async_repo.io_scheduler()->Engage(1, SchedPolicy::kFifo).ok());

  auto drive = [](core::FsRepository* repo) {
    for (int i = 0; i < 24; ++i) {
      const std::string key = "obj" + std::to_string(i);
      ASSERT_TRUE(repo->Put(key, 256 * kKiB).ok());
    }
    for (int i = 0; i < 24; i += 2) {
      const std::string key = "obj" + std::to_string(i);
      ASSERT_TRUE(repo->SafeWrite(key, 256 * kKiB).ok());
    }
    for (int i = 0; i < 24; i += 3) {
      ASSERT_TRUE(repo->Get("obj" + std::to_string(i)).ok());
    }
    for (int i = 1; i < 24; i += 8) {
      ASSERT_TRUE(repo->Delete("obj" + std::to_string(i)).ok());
    }
  };
  drive(&sync_repo);
  drive(&async_repo);
  ASSERT_TRUE(async_repo.SetQueueDepth(1).ok());  // Drain + disengage.

  EXPECT_EQ(sync_repo.object_count(), async_repo.object_count());
  EXPECT_EQ(sync_repo.live_bytes(), async_repo.live_bytes());
  EXPECT_TRUE(sync_repo.CheckConsistency().ok());
  EXPECT_TRUE(async_repo.CheckConsistency().ok());
  for (const std::string& key : sync_repo.ListKeys()) {
    auto a = sync_repo.GetLayout(key);
    auto b = async_repo.GetLayout(key);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << key;
  }
  EXPECT_NEAR(async_repo.now(), sync_repo.now(), 1e-6 * sync_repo.now());
  // Both paths recorded every tracked op.
  EXPECT_EQ(sync_repo.latency_recorder()->total_count(),
            async_repo.latency_recorder()->total_count());
}

TEST(IoSchedulerTest, SetQueueDepthValidation) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 64 * kMiB;
  core::FsRepository repo(config);
  EXPECT_TRUE(repo.SetQueueDepth(0).IsInvalidArgument());
  EXPECT_TRUE(repo.SetQueueDepth(1).ok());
  EXPECT_TRUE(repo.SetQueueDepth(8).ok());
  EXPECT_TRUE(repo.io_scheduler()->engaged());
  EXPECT_TRUE(repo.DrainIo().ok());
  EXPECT_TRUE(repo.SetQueueDepth(1).ok());
  EXPECT_FALSE(repo.io_scheduler()->engaged());
}

// ---------------------------------------------------------------------
// Workload level (QueueDepth* names keep these in the tsan CI subset)

workload::WorkloadConfig SmallWorkload(uint32_t queue_depth) {
  workload::WorkloadConfig config;
  config.sizes = workload::SizeDistribution::Constant(256 * kKiB);
  config.target_occupancy = 0.3;
  config.read_probe_samples = 64;
  config.queue_depth = queue_depth;
  return config;
}

TEST(QueueDepthWorkloadTest, AgedLayoutIndependentOfDepth) {
  // Payload and allocation decisions happen at submission in program
  // order, so a queued run must produce byte-for-byte the layout of the
  // synchronous run; only the timing differs.
  auto run = [](uint32_t qd) {
    core::FsRepositoryConfig config;
    config.volume_bytes = 128 * kMiB;
    auto repo = std::make_unique<core::FsRepository>(config);
    workload::GetPutRunner runner(repo.get(), SmallWorkload(qd));
    EXPECT_TRUE(runner.BulkLoad().ok());
    EXPECT_TRUE(runner.AgeTo(1.0).ok());
    EXPECT_TRUE(runner.MeasureReadThroughput().ok());
    EXPECT_TRUE(repo->CheckConsistency().ok());
    struct Shape {
      uint64_t objects, live, fragments;
    };
    const core::FragmentationReport frag = runner.Fragmentation();
    return Shape{repo->object_count(), repo->live_bytes(),
                 frag.max_fragments};
  };
  const auto sync_shape = run(1);
  const auto queued_shape = run(8);
  EXPECT_EQ(sync_shape.objects, queued_shape.objects);
  EXPECT_EQ(sync_shape.live, queued_shape.live);
  EXPECT_EQ(sync_shape.fragments, queued_shape.fragments);
}

TEST(QueueDepthWorkloadTest, RunnerProducesLatenciesAtDepth4) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  core::FsRepository repo(config);
  workload::GetPutRunner runner(&repo, SmallWorkload(4));
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());
  ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  const LatencyRecorder lat = runner.latency();
  EXPECT_GT(lat.writes().count(), 0u);
  EXPECT_GT(lat.histogram(OpClass::kGet).count(), 0u);
  // The queue-depth window closed behind each phase.
  EXPECT_FALSE(repo.io_scheduler()->engaged());
}

TEST(QueueDepthWorkloadTest, DbBackendRunsQueued) {
  core::DbRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  core::DbRepository repo(config);
  workload::GetPutRunner runner(&repo, SmallWorkload(4));
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());
  ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  ASSERT_TRUE(repo.CheckConsistency().ok());
  EXPECT_GT(runner.latency().total_count(), 0u);
}

TEST(QueueDepthShardedTest, TwoShardsRunQueuedConcurrently) {
  core::FsRepositoryConfig config;
  config.volume_bytes = 128 * kMiB;
  core::FsRepositoryFactory factory(config);
  workload::ShardedRunner runner(factory, SmallWorkload(4), 2);
  ASSERT_TRUE(runner.BulkLoad().ok());
  ASSERT_TRUE(runner.AgeTo(1.0).ok());
  ASSERT_TRUE(runner.MeasureReadThroughput().ok());
  const LatencyRecorder lat = runner.latency();
  EXPECT_GT(lat.total_count(), 0u);
  EXPECT_GT(lat.writes().count(), 0u);
}

}  // namespace
}  // namespace sim
}  // namespace lor
