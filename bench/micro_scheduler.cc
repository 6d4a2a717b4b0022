// Micro-benchmarks for the queued I/O path's host cost (google-benchmark):
// wall time per op (the `per_op` counter) through a two-owner
// shared-spindle plane and through a dedicated engaged scheduler, both
// at queue depth 8 under SPTF, with 48-entry chains (a 1 MiB streamed
// write: 16 requests of 64 KiB, each inside its own stream window).
// Simulated time is not measured here.
//
//   ./build/bench/micro_scheduler --benchmark_min_time=0.3

#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/block_device.h"
#include "sim/io_scheduler.h"
#include "sim/latency_recorder.h"
#include "sim/spindle_plane.h"

namespace lor {
namespace sim {
namespace {

constexpr uint32_t kDepth = 8;
constexpr uint64_t kRegion = 256 * kMiB;
constexpr uint64_t kRequest = 64 * kKiB;
constexpr uint64_t kRequestsPerOp = 16;  // 3 chain entries each
constexpr double kCap = 80e6;

/// One op with a 48-entry chain at the `i`-th of the region's MiB slots.
void StreamedWrite(BlockDevice* dev, IoScheduler* sched, uint64_t i) {
  OpScope scope(sched, OpClass::kPut);
  const uint64_t at = (i * 37 % (kRegion / kMiB - 1)) * kMiB;
  Status s = dev->WriteStreamRun(at, kRequest, kRequestsPerOp, {}, kCap);
  benchmark::DoNotOptimize(s.ok());
}

/// Two owners on one spindle. Owner 0 runs on the benchmark thread and
/// owner 1 on a helper thread; `Both` runs a step on both and waits.
class PlanePair {
 public:
  PlanePair() {
    SpindlePlane::Params params;
    params.region_bytes = kRegion;
    params.owners = 2;
    params.policy = SchedPolicy::kSptf;
    params.seed = 1;
    plane_ = std::make_unique<SpindlePlane>(params);
    for (uint32_t o = 0; o < 2; ++o) {
      views_.push_back(plane_->CreateOwnerDevice(o));
      recorders_.push_back(std::make_unique<LatencyRecorder>());
      scheds_.push_back(std::make_unique<IoScheduler>(views_[o].get(),
                                                      recorders_[o].get()));
      views_[o]->AttachScheduler(scheds_[o].get());
      scheds_[o]->AttachSpindle(plane_.get(), o);
    }
    helper_ = std::thread([this] { HelperLoop(); });
    // Engage fences, so both owners engage on their own threads.
    Both([this](uint32_t o) {
      Status s = scheds_[o]->Engage(kDepth, SchedPolicy::kSptf);
      benchmark::DoNotOptimize(s.ok());
    });
  }

  ~PlanePair() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    helper_.join();
    scheds_.clear();  // retire against the live plane, then drop views
    views_.clear();
  }

  /// Each owner submits `ops` ops and settles.
  void Round(uint64_t ops) {
    Both([this, ops](uint32_t o) {
      for (uint64_t i = 0; i < ops; ++i) {
        StreamedWrite(views_[o].get(), scheds_[o].get(), next_[o]++);
      }
      scheds_[o]->Settle();
    });
  }

 private:
  void Both(const std::function<void(uint32_t)>& step) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      step_ = &step;
      ++posted_;
    }
    cv_.notify_all();
    step(0);
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return finished_ == posted_; });
  }

  void HelperLoop() {
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(uint32_t)>* step = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || posted_ != seen; });
        if (stop_) return;
        seen = posted_;
        step = step_;
      }
      (*step)(1);
      {
        std::lock_guard<std::mutex> lk(mu_);
        finished_ = seen;
      }
      cv_.notify_all();
    }
  }

  std::unique_ptr<SpindlePlane> plane_;
  std::vector<std::unique_ptr<BlockDevice>> views_;
  std::vector<std::unique_ptr<LatencyRecorder>> recorders_;
  std::vector<std::unique_ptr<IoScheduler>> scheds_;
  uint64_t next_[2] = {0, 0};

  std::thread helper_;
  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void(uint32_t)>* step_ = nullptr;
  uint64_t posted_ = 0;
  uint64_t finished_ = 0;
  bool stop_ = false;
};

void BM_PlaneTwoOwnersQd8Sptf(benchmark::State& state) {
  // Eight batches per owner per iteration, so the fence and the thread
  // handshake stay a small share of the measured time.
  constexpr uint64_t kOpsPerOwner = 8 * kDepth;
  PlanePair pair;
  for (auto _ : state) pair.Round(kOpsPerOwner);
  const double ops = static_cast<double>(state.iterations()) * 2 * kOpsPerOwner;
  state.counters["per_op"] = benchmark::Counter(
      ops, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PlaneTwoOwnersQd8Sptf)->UseRealTime();

void BM_DedicatedQd8Sptf(benchmark::State& state) {
  BlockDevice dev(DiskParams::St3400832as().WithCapacity(kRegion));
  LatencyRecorder rec;
  IoScheduler sched(&dev, &rec);
  dev.AttachScheduler(&sched);
  Status s = sched.Engage(kDepth, SchedPolicy::kSptf);
  benchmark::DoNotOptimize(s.ok());
  uint64_t i = 0;
  for (auto _ : state) StreamedWrite(&dev, &sched, i++);
  sched.Drain();
  state.counters["per_op"] = benchmark::Counter(
      static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_DedicatedQd8Sptf);

}  // namespace
}  // namespace sim
}  // namespace lor

BENCHMARK_MAIN();
