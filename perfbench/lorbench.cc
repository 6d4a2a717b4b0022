// lorbench: the repository benchmark program.
//
//   lorbench --workload NAME --seed N --seconds S --trace 0|1
//
// Drives the library from outside, through workload::ShardedRunner over a
// core::RepositoryFactory, on one of three closed-loop workloads (see
// kWorkloads). Every workload bulk-loads the store, then ages it with
// uniform safe-write replacements; each aging checkpoint is followed by
// a read probe (ShardedRunner::AgeAndMeasure) and a fragmentation
// snapshot. The seed reaches the library only as WorkloadConfig::seed.
//
// One repetition is: construct + bulk load (set-up), the checkpoints
// (the run), then an untimed correctness gate. Repetitions cycle through
// kTrajectories workload seeds derived from --seed (the first is --seed
// itself) and repeat until S seconds have passed, at least one per
// trajectory. Host-time metrics are medians over all repetitions, each
// converted to reference speed (see ReferenceKernelSeconds).
// Simulated metrics (sim_*, fragments_per_object) pool the first
// repetition of each trajectory: aged fragmentation at high occupancy
// and the latency tails vary from one trajectory to the next, and
// pooling a fixed set keeps them a pure function of --seed. Every later
// repetition of a trajectory must reproduce its simulated results bit
// for bit.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates
// untraced and traced repetitions of each trajectory (TracedFactory, see
// tracing.h), fails unless every traced repetition reproduces the
// untraced one's simulated results exactly, and prints the per-layer
// metrics of the first trajectory's traced repetition plus the tracing
// overhead (median traced run_s minus median untraced run_s).
//
// Output: one line per metric ("name value unit"), then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exit status: 0 on success, 1 when a repetition fails or its outputs
// are wrong, 2 on a malformed command line.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/fragmentation.h"
#include "core/repository_factory.h"
#include "sim/latency_recorder.h"
#include "tracing.h"
#include "util/histogram.h"
#include "util/units.h"
#include "workload/sharded_runner.h"
#include "workload/size_distribution.h"

namespace lorbench {
namespace {

using lor::kGiB;
using lor::kKiB;
using lor::kMiB;

/// Independent aging trajectories (workload seeds) per run. Each runs
/// at least once whatever --seconds says, so this is also the least
/// number of repetitions (or traced/untraced pairs) in a run.
constexpr size_t kTrajectories = 4;
/// A latency percentile needs this many samples ranked beyond it.
constexpr uint64_t kMinBeyond = 10;

struct Workload {
  const char* name;
  const char* why;
  bool filesystem;
  /// Mean object size; sizes are uniform on [mean/2, 3*mean/2].
  uint64_t object_bytes;
  double occupancy;
  uint64_t volume_bytes;
  /// Shards, all on one SpindlePlane spindle when there are several.
  uint32_t shards;
  uint32_t queue_depth;
  /// A buffer pool sized to the live set; off otherwise.
  bool pool;
  /// Aging checkpoints at storage ages 1, 2, ..., checkpoints.
  int checkpoints;
  /// Read probes per shard per checkpoint; 0 = one per live object.
  uint64_t probes;
  const char* loads;
  const char* bypasses;
};

const Workload kWorkloads[] = {
    {"fs_large_aging",
     "paper Fig 2/6 regime: 10 MiB mean files at 90% full, cold cache; "
     "host time is the per-64 KiB append -> allocator -> device loop",
     true, 10 * kMiB, 0.90, 20 * kGiB, 1, 1, false, 5, 8192,
     "workload, core, fs, alloc, sim device",
     "pool, scheduler queueing, plane, db"},
    {"db_small_aging",
     "paper Fig 1/3 regime: 256 KiB mean BLOBs at 50% full, cold cache; "
     "host time is per-op B-tree, metadata, LOB page and log work",
     false, 256 * kKiB, 0.50, 4 * kGiB, 1, 1, false, 4, 8192,
     "workload, core, db (B-tree, metadata, LOB pages, log), sim device",
     "fs, alloc, pool, scheduler queueing, plane"},
    {"shared_cached_mixed",
     "1 MiB mean files, 2 shards on one spindle at qd 8 SPTF, pool holds "
     "the live set, probes read as many objects as each shard holds",
     true, 1 * kMiB, 0.50, 4 * kGiB, 2, 8, true, 4, 0,
     "workload threads, core, fs, alloc, pool, scheduler, plane, device",
     "db"},
};

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t LiveBytes(const Workload& w) {
  return static_cast<uint64_t>(w.occupancy *
                               static_cast<double>(w.volume_bytes));
}

uint64_t PoolBytes(const Workload& w) { return w.pool ? LiveBytes(w) : 0; }

// -- Command line --------------------------------------------------------

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  bool trace = false;
};

bool ParseUint(const std::string& s, uint64_t* out) {
  if (s.empty() || s.size() > 20) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool Usage(const std::string& why) {
  std::fprintf(stderr,
               "lorbench: %s\nusage: lorbench --workload NAME --seed N "
               "--seconds S --trace 0|1\nworkloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return false;
}

/// Every flag is required exactly once, as "--flag value"; anything
/// unparsable is an error, never a silent default.
bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace") {
      return Usage("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) return Usage(flag + " needs a value");
    if (!flags.emplace(flag, argv[i + 1]).second) {
      return Usage(flag + " given twice");
    }
  }
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (flags.count(flag) == 0) return Usage(std::string(flag) + " missing");
  }
  args->workload = FindWorkload(flags["--workload"]);
  if (args->workload == nullptr) {
    return Usage("unknown workload '" + flags["--workload"] + "'");
  }
  if (!ParseUint(flags["--seed"], &args->seed)) {
    return Usage("--seed must be a non-negative integer");
  }
  if (!ParseUint(flags["--seconds"], &args->seconds) || args->seconds < 1 ||
      args->seconds > 3600) {
    return Usage("--seconds must be an integer from 1 to 3600");
  }
  const std::string& trace = flags["--trace"];
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");
  args->trace = trace == "1";
  return true;
}

// -- Statistics ----------------------------------------------------------

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Nearest-rank percentile of exact samples.
double ExactPercentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))));
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// A latency percentile with its support: `count` samples in all, of
/// which `beyond` rank above the percentile's rank.
struct Percentile {
  double ms = 0.0;
  uint64_t count = 0;
  uint64_t beyond = 0;
  bool supported() const { return beyond >= kMinBeyond; }
};

/// Percentile of a LatencyHistogram, interpolated linearly between the
/// bounds of the bucket holding the target rank (by the target's rank
/// among that bucket's samples) instead of the bucket midpoint
/// Quantile() returns, so the figure moves with the data below bucket
/// resolution. Bucket membership of a rank is read back through
/// Quantile() itself, which keeps this exact against the histogram's
/// own rank rule (target rank = ceil(q * count)).
Percentile HistogramPercentile(const lor::LatencyHistogram& h, double q) {
  Percentile p;
  const uint64_t n = h.count();
  p.count = n;
  if (n == 0) return p;
  const double dn = static_cast<double>(n);
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * dn)));
  p.beyond = n - rank;
  auto bucket_of = [&](uint64_t r) {
    return lor::LatencyHistogram::BucketIndex(
        h.Quantile((static_cast<double>(r) - 0.5) / dn));
  };
  const size_t b = bucket_of(rank);
  if (b == 0 || b + 1 >= lor::LatencyHistogram::bucket_count()) {
    p.ms = h.Quantile(q) * 1e3;  // Under/overflow: no finite bounds.
    return p;
  }
  uint64_t lo = 1;
  uint64_t hi = rank;
  while (lo < hi) {  // First rank in bucket b.
    const uint64_t mid = lo + (hi - lo) / 2;
    if (bucket_of(mid) < b) lo = mid + 1; else hi = mid;
  }
  const uint64_t first = lo;
  lo = rank;
  hi = n;
  while (lo < hi) {  // Last rank in bucket b.
    const uint64_t mid = lo + (hi - lo + 1) / 2;
    if (bucket_of(mid) > b) hi = mid - 1; else lo = mid;
  }
  const uint64_t last = lo;
  const double lower = lor::LatencyHistogram::BucketLowerBound(b);
  const double upper = lor::LatencyHistogram::BucketUpperBound(b);
  const double within = (static_cast<double>(rank - first) + 0.5) /
                        static_cast<double>(last - first + 1);
  p.ms = std::clamp(lower + (upper - lower) * within, h.min(), h.max()) * 1e3;
  return p;
}

double PeakRssMB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// -- Metrics output ------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // Printed in the listing only.
};

void PrintListing(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-42s %16.6f %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// -- Reference speed -----------------------------------------------------

/// Host speed on a shared machine drifts: other tenants' work (on a
/// sibling hyperthread or in shared caches) changes the cost of the same
/// instructions by up to 2x, in phases that last from seconds to
/// minutes. Every repetition is therefore bracketed by this fixed
/// kernel (see ReferenceSeconds), and host-time metrics are reported at
/// reference speed: raw seconds times kReferenceSeconds over the
/// kernel's mean time around the repetition. The kernel mixes the simulator's kinds of host work
/// (ordered-map churn, sorted-vector search and insertion, integer
/// arithmetic) and does not call the library, so a change to the library
/// moves the metrics and leaves the reference alone.
double ReferenceKernelSeconds() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::map<uint64_t, uint64_t> map;
  for (uint64_t i = 0; i < 40000; ++i) {
    map[next() % 30000] += i;
    if (i % 3 == 0) map.erase(next() % 30000);
  }
  std::vector<uint64_t> sorted;
  sorted.reserve(16000);
  for (int i = 0; i < 16000; ++i) {
    const uint64_t key = next() % 1000000;
    const auto it = std::lower_bound(sorted.begin(), sorted.end(), key);
    if (it == sorted.end() || *it != key) sorted.insert(it, key);
  }
  uint64_t a = 1, b = 2, c = 3, d = 4;
  for (int i = 0; i < 1000000; ++i) {
    a = a * 6364136223846793005ull + b;
    b ^= a >> 7;
    c = c * 2862933555777941757ull + d;
    d ^= c >> 9;
  }
  volatile uint64_t sink = map.size() + sorted.size() + a + b + c + d;
  (void)sink;
  return Seconds(t0, Clock::now());
}

/// Runs the kernel on `threads` threads at once, as the runner runs one
/// worker thread per shard, and returns their mean time. Another
/// tenant slows some cores and not others, so the kernel is timed on as
/// many cores as the workload keeps busy.
double ReferenceSeconds(uint32_t threads) {
  std::vector<double> seconds(threads);
  std::vector<std::thread> pool;
  for (uint32_t i = 0; i < threads; ++i) {
    pool.emplace_back([&seconds, i] { seconds[i] = ReferenceKernelSeconds(); });
  }
  for (std::thread& thread : pool) thread.join();
  double sum = 0.0;
  for (const double s : seconds) sum += s;
  return sum / threads;
}

/// The time that defines reference speed: about what the kernel takes
/// on the reference machine (see README.md) when no other tenant is busy.
constexpr double kReferenceSeconds = 0.015;

// -- One repetition ------------------------------------------------------

/// What one repetition measured.
struct Rep {
  bool ok = false;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
  // Host seconds.
  double setup_s = 0.0;
  double run_s = 0.0;
  double age_host_s = 0.0;
  double read_host_s = 0.0;
  double fragmentation_host_s = 0.0;
  double shard_skew_s = 0.0;
  /// Converts this repetition's host seconds to reference speed (see
  /// ReferenceKernelSeconds).
  double scale = 1.0;
  // Simulated results.
  uint64_t load_ops = 0, load_bytes = 0;
  uint64_t age_ops = 0, age_bytes = 0;
  uint64_t read_ops = 0, read_bytes = 0;
  double sim_load_s = 0.0;
  double sim_age_s = 0.0;
  /// The last checkpoint's read probe.
  uint64_t last_read_bytes = 0;
  double sim_last_read_s = 0.0;
  double fragments_per_object = 0.0;
  lor::sim::LatencyRecorder latency;
  /// Per-layer metrics (traced repetitions only).
  std::vector<Metric> layers;
};

std::unique_ptr<lor::core::RepositoryFactory> MakeFactory(const Workload& w,
                                                          bool traced) {
  std::unique_ptr<lor::core::RepositoryFactory> factory;
  if (w.filesystem) {
    lor::core::FsRepositoryConfig config;
    config.volume_bytes = w.volume_bytes;
    config.cache.capacity_bytes = PoolBytes(w);
    if (traced) {
      factory = std::make_unique<TracedFactory>(config);
    } else {
      factory = std::make_unique<lor::core::FsRepositoryFactory>(config);
    }
  } else {
    lor::core::DbRepositoryConfig config;
    config.volume_bytes = w.volume_bytes;
    config.cache.capacity_bytes = PoolBytes(w);
    if (traced) {
      factory = std::make_unique<TracedFactory>(config);
    } else {
      factory = std::make_unique<lor::core::DbRepositoryFactory>(config);
    }
  }
  // One shard per spindle is the factories' default, dedicated layout.
  lor::core::SpindleTopology topology;
  topology.owners_per_spindle = w.shards;
  topology.policy = lor::sim::SchedPolicy::kSptf;
  factory->set_spindle_topology(topology);
  return factory;
}

lor::workload::WorkloadConfig MakeConfig(const Workload& w, uint64_t seed) {
  lor::workload::WorkloadConfig config;
  config.sizes = lor::workload::SizeDistribution::Uniform(w.object_bytes);
  config.target_occupancy = w.occupancy;
  config.seed = seed;
  config.read_probe_samples =
      w.probes != 0 ? w.probes : LiveBytes(w) / w.object_bytes;
  config.queue_depth = w.queue_depth;
  config.queue_policy = lor::sim::SchedPolicy::kSptf;
  return config;
}

std::vector<Metric> LayerMetrics(const Workload& w, const Rep& rep,
                                 const TracedFactory& factory);

/// Untimed correctness gate over every shard: structural consistency,
/// a clean fsck, tracker == full scan, and the population the shard
/// loaded still there with the live bytes its workload wrote.
void Gate(lor::workload::ShardedRunner* runner, Rep* rep) {
  for (uint32_t s = 0; s < runner->shard_count(); ++s) {
    lor::core::ObjectRepository* repo = runner->repository(s);
    const lor::workload::ShardEngine* engine = runner->engine(s);
    const std::string shard = "shard " + std::to_string(s) + ": ";
    const lor::Status consistent = repo->CheckConsistency();
    if (!consistent.ok()) {
      rep->failures.push_back(shard + "CheckConsistency: " +
                              consistent.ToString());
    }
    const lor::Result<lor::core::FsckReport> fsck = repo->Fsck();
    if (!fsck.ok()) {
      rep->failures.push_back(shard + "Fsck: " + fsck.status().ToString());
    } else if (!fsck->clean()) {
      rep->failures.push_back(shard + "Fsck found " +
                              std::to_string(fsck->issues.size()) +
                              " issues, first: " + fsck->issues[0].detail);
    }
    const lor::core::FragmentationReport tracked =
        lor::core::AnalyzeFragmentation(*repo);
    const lor::core::FragmentationReport scanned =
        lor::core::AnalyzeFragmentationFullScan(*repo);
    if (tracked.objects != scanned.objects ||
        tracked.fragments_per_object != scanned.fragments_per_object ||
        tracked.max_fragments != scanned.max_fragments ||
        tracked.p50_fragments != scanned.p50_fragments ||
        tracked.p99_fragments != scanned.p99_fragments ||
        tracked.mean_fragment_bytes != scanned.mean_fragment_bytes ||
        tracked.contiguous_fraction != scanned.contiguous_fraction) {
      rep->failures.push_back(shard + "tracker report differs from full scan");
    }
    const uint64_t loaded = engine->object_count();
    if (repo->object_count() != loaded) {
      rep->failures.push_back(shard + "holds " +
                              std::to_string(repo->object_count()) +
                              " objects, loaded " + std::to_string(loaded));
    }
    // Load bytes plus every replacement's size change.
    const uint64_t written = engine->age_tracker().live_bytes();
    if (repo->live_bytes() != written) {
      rep->failures.push_back(shard + "holds " +
                              std::to_string(repo->live_bytes()) +
                              " live bytes, workload wrote " +
                              std::to_string(written));
    }
  }
}

Rep RunRep(const Workload& w, uint64_t seed, bool traced) {
  Rep rep;
  const double reference_before = ReferenceSeconds(w.shards);
  const Clock::time_point t0 = Clock::now();
  std::unique_ptr<lor::core::RepositoryFactory> factory =
      MakeFactory(w, traced);
  auto* tracer = traced ? static_cast<TracedFactory*>(factory.get()) : nullptr;
  auto set_phase = [&](Phase phase) {
    if (tracer == nullptr) return;
    for (const auto& trace : tracer->traces()) trace->set_phase(phase);
  };
  auto fail = [&](const lor::Status& s) {
    rep.failures.push_back(s.ToString());
    rep.attempted += 1;  // The operation that failed.
    return rep;
  };

  lor::workload::ShardedRunner runner(*factory, MakeConfig(w, seed), w.shards);
  set_phase(Phase::kLoad);
  const lor::Result<lor::workload::ThroughputSample> load = runner.BulkLoad();
  const Clock::time_point t1 = Clock::now();
  if (!load.ok()) return fail(load.status());
  rep.setup_s = Seconds(t0, t1);
  rep.load_ops = load->operations;
  rep.load_bytes = load->bytes;
  rep.sim_load_s = load->seconds;
  rep.attempted += load->operations;
  uint64_t loaded_objects = 0;
  uint64_t loaded_bytes = 0;
  for (uint32_t s = 0; s < runner.shard_count(); ++s) {
    loaded_objects += runner.repository(s)->object_count();
    loaded_bytes += runner.repository(s)->live_bytes();
  }
  if (loaded_objects != load->operations || loaded_bytes != load->bytes) {
    rep.failures.push_back(
        "store holds " + std::to_string(loaded_objects) + " objects / " +
        std::to_string(loaded_bytes) + " bytes after load, workload wrote " +
        std::to_string(load->operations) + " / " +
        std::to_string(load->bytes));
  }

  for (int age = 1; age <= w.checkpoints; ++age) {
    set_phase(Phase::kAge);
    const lor::Result<lor::workload::AgeMeasureSample> sample =
        runner.AgeAndMeasure(static_cast<double>(age));
    if (!sample.ok()) return fail(sample.status());
    if (tracer != nullptr) {
      Clock::time_point first = tracer->traces()[0]->last_fence();
      Clock::time_point last = first;
      for (const auto& trace : tracer->traces()) {
        first = std::min(first, trace->last_fence());
        last = std::max(last, trace->last_fence());
      }
      rep.shard_skew_s += Seconds(first, last);
    }
    const Clock::time_point f0 = Clock::now();
    const lor::core::FragmentationReport frag = runner.Fragmentation();
    rep.fragmentation_host_s += Seconds(f0, Clock::now());
    rep.fragments_per_object = frag.fragments_per_object;
    rep.age_ops += sample->aged.operations;
    rep.age_bytes += sample->aged.bytes;
    rep.sim_age_s += sample->aged.seconds;
    rep.age_host_s += sample->aged.host_seconds;
    rep.read_ops += sample->read.operations;
    rep.read_bytes += sample->read.bytes;
    rep.read_host_s += sample->read.host_seconds;
    rep.last_read_bytes = sample->read.bytes;
    rep.sim_last_read_s = sample->read.seconds;
    rep.attempted += sample->aged.operations + sample->read.operations;
  }
  rep.run_s = Seconds(t1, Clock::now());
  rep.scale = 2.0 * kReferenceSeconds /
              (reference_before + ReferenceSeconds(w.shards));
  rep.latency = runner.latency();
  if (tracer != nullptr) rep.layers = LayerMetrics(w, rep, *tracer);
  Gate(&runner, &rep);
  rep.ok = rep.failures.empty();
  return rep;
}

// -- Metric derivation ---------------------------------------------------

/// The end-to-end metrics that depend only on the workload seed(s), with
/// their percentile support.
struct SimMetrics {
  double load_MiBps = 0.0;
  double age_MiBps = 0.0;
  double read_MiBps = 0.0;
  double fragments_per_object = 0.0;
  Percentile get_p50, get_p99, write_p50, write_p99, write_p999;

  /// What repetitions of one trajectory must reproduce bit for bit.
  std::vector<double> Fingerprint() const {
    return {load_MiBps, age_MiBps, read_MiBps, fragments_per_object,
            get_p50.ms, get_p99.ms, write_p50.ms, write_p99.ms,
            write_p999.ms,
            static_cast<double>(get_p50.count),
            static_cast<double>(write_p50.count)};
  }
};

/// Pools repetitions: bytes over simulated seconds per phase, the mean
/// fragmentation, and percentiles of the merged latency histograms.
SimMetrics SimOf(std::span<const Rep> reps) {
  uint64_t load_bytes = 0, age_bytes = 0, read_bytes = 0;
  double load_s = 0.0, age_s = 0.0, read_s = 0.0, fragments = 0.0;
  lor::sim::LatencyRecorder latency;
  for (const Rep& r : reps) {
    load_bytes += r.load_bytes;
    load_s += r.sim_load_s;
    age_bytes += r.age_bytes;
    age_s += r.sim_age_s;
    read_bytes += r.last_read_bytes;
    read_s += r.sim_last_read_s;
    fragments += r.fragments_per_object;
    latency.Merge(r.latency);
  }
  SimMetrics m;
  m.load_MiBps = Ratio(static_cast<double>(load_bytes) / kMiB, load_s);
  m.age_MiBps = Ratio(static_cast<double>(age_bytes) / kMiB, age_s);
  m.read_MiBps = Ratio(static_cast<double>(read_bytes) / kMiB, read_s);
  m.fragments_per_object = Ratio(fragments, static_cast<double>(reps.size()));
  const lor::LatencyHistogram& gets =
      latency.histogram(lor::sim::OpClass::kGet);
  const lor::LatencyHistogram writes = latency.writes();
  m.get_p50 = HistogramPercentile(gets, 0.50);
  m.get_p99 = HistogramPercentile(gets, 0.99);
  m.write_p50 = HistogramPercentile(writes, 0.50);
  m.write_p99 = HistogramPercentile(writes, 0.99);
  m.write_p999 = HistogramPercentile(writes, 0.999);
  return m;
}

std::string Support(const Percentile& p) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "(n=%llu, beyond=%llu%s)",
                static_cast<unsigned long long>(p.count),
                static_cast<unsigned long long>(p.beyond),
                p.supported() ? "" : ", UNSUPPORTED");
  return buf;
}

std::vector<Metric> EndToEnd(const std::vector<Rep>& reps,
                             const SimMetrics& sim) {
  std::vector<double> setup, run, age, read;
  for (const Rep& r : reps) {
    setup.push_back(r.setup_s * r.scale);
    run.push_back(r.run_s * r.scale);
    age.push_back(Ratio(static_cast<double>(r.age_bytes) / kMiB,
                        r.age_host_s * r.scale));
    read.push_back(Ratio(static_cast<double>(r.read_bytes) / kMiB,
                         r.read_host_s * r.scale));
  }
  const std::string n =
      "median of " + std::to_string(reps.size()) + " at reference speed";
  return {
      {"setup_s", Median(setup), "s", n},
      {"run_s", Median(run), "s", n},
      {"age_host_MiBps", Median(age), "MiB/s", n},
      {"read_host_MiBps", Median(read), "MiB/s", n},
      {"peak_rss_MB", PeakRssMB(), "MB", "max over the process"},
      {"sim_load_MiBps", sim.load_MiBps, "MiB/s", ""},
      {"sim_age_MiBps", sim.age_MiBps, "MiB/s", ""},
      {"sim_read_MiBps", sim.read_MiBps, "MiB/s", "last checkpoint"},
      {"fragments_per_object", sim.fragments_per_object, "fragments",
       "last checkpoint"},
      {"sim_get_p50_ms", sim.get_p50.ms, "ms", Support(sim.get_p50)},
      {"sim_get_p99_ms", sim.get_p99.ms, "ms", Support(sim.get_p99)},
      {"sim_write_p50_ms", sim.write_p50.ms, "ms", Support(sim.write_p50)},
      {"sim_write_p99_ms", sim.write_p99.ms, "ms", Support(sim.write_p99)},
      {"sim_write_p999_ms", sim.write_p999.ms, "ms", Support(sim.write_p999)},
  };
}

std::vector<Metric> LayerMetrics(const Workload& w, const Rep& rep,
                                 const TracedFactory& factory) {
  std::array<LayerCounters, kPhases> phase{};
  double core_total_s = 0.0;
  uint64_t free_runs = 0;
  double external_frag = 0.0;
  std::array<std::vector<double>, kCalls> call_us;
  std::array<uint64_t, kCalls> calls{};
  auto index = [](Call call) { return static_cast<size_t>(call); };
  const auto& traces = factory.traces();
  for (const auto& trace : traces) {
    for (size_t p = 0; p < kPhases; ++p) phase[p] += trace->phases()[p];
    core_total_s += trace->core_s();
    const lor::alloc::FreeSpaceStats free = trace->FreeStats();
    free_runs += free.run_count;
    external_frag += free.external_fragmentation / traces.size();
    for (size_t c = 0; c < kCalls; ++c) {
      const auto& us = trace->call_us(static_cast<Call>(c));
      call_us[c].insert(call_us[c].end(), us.begin(), us.end());
      calls[c] += trace->calls(static_cast<Call>(c));
    }
  }
  const LayerCounters& age = phase[static_cast<size_t>(Phase::kAge)];
  LayerCounters run = age;  // Aging and probes.
  run += phase[static_cast<size_t>(Phase::kRead)];
  const double age_ops = static_cast<double>(rep.age_ops);
  const double run_ops = static_cast<double>(rep.age_ops + rep.read_ops);
  double alloc_s = 0.0;
  for (const LayerCounters& p : phase) {
    alloc_s += p.alloc.allocate_s() + p.alloc.free_s();
  }

  std::vector<Metric> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back({name, value, unit, ""});
  };

  // workload
  add("workload.self_s",
      rep.run_s - rep.fragmentation_host_s - run.core_s / w.shards, "s");
  add("workload.shard_skew_s", rep.shard_skew_s, "s");

  // core
  const std::pair<const char*, Call> timed[] = {
      {"put", Call::kPut}, {"safewrite", Call::kSafeWrite}, {"get", Call::kGet}};
  for (const auto& [name, call] : timed) {
    const auto& us = call_us[index(call)];
    add(std::string("core.") + name + ".calls",
        static_cast<double>(calls[index(call)]), "count");
    add(std::string("core.") + name + ".host_us_p50", ExactPercentile(us, 0.5),
        "us");
    add(std::string("core.") + name + ".host_us_p99",
        ExactPercentile(us, 0.99), "us");
  }
  add("core.open.calls", static_cast<double>(calls[index(Call::kOpen)]),
      "count");
  add("core.release.calls",
      static_cast<double>(calls[index(Call::kRelease)]), "count");
  double drain_us = 0.0;
  for (double us : call_us[index(Call::kDrain)]) drain_us += us;
  add("core.drain.host_s", drain_us * 1e-6, "s");
  add("core.fragmentation.host_s", rep.fragmentation_host_s, "s");
  add("core.self_s", core_total_s - alloc_s, "s");

  // alloc (aging phase; zeros on the database back end)
  add("alloc.allocate.calls_per_op",
      Ratio(static_cast<double>(age.alloc.allocate_calls), age_ops), "count");
  add("alloc.allocate.host_s", age.alloc.allocate_s(), "s");
  add("alloc.free.calls_per_op",
      Ratio(static_cast<double>(age.alloc.free_calls), age_ops), "count");
  add("alloc.extents_per_allocate",
      Ratio(static_cast<double>(age.alloc.extents),
            static_cast<double>(age.alloc.allocate_calls)),
      "count");
  add("alloc.hint_hit_ratio",
      Ratio(static_cast<double>(age.alloc.hint_hits),
            static_cast<double>(age.alloc.hint_calls)),
      "ratio");
  add("alloc.free_runs", static_cast<double>(free_runs), "count");
  add("alloc.external_frag", external_frag, "ratio");

  // fs (aging phase)
  add("fs.appends_per_op", Ratio(static_cast<double>(age.fs_appends), age_ops),
      "count");
  add("fs.creates_per_op", Ratio(static_cast<double>(age.fs_creates), age_ops),
      "count");
  add("fs.renames_per_op", Ratio(static_cast<double>(age.fs_renames), age_ops),
      "count");

  // db (aging phase)
  add("db.log_records_per_op",
      Ratio(static_cast<double>(age.db_log_records), age_ops), "count");
  add("db.log_bytes_per_op",
      Ratio(static_cast<double>(age.db_log_bytes), age_ops), "B");
  add("db.log.busy_s", age.db_log_busy_s, "s");

  // sim device, per phase
  const struct {
    const char* name;
    Phase phase;
    uint64_t ops;
    uint64_t user_bytes_written;
  } phases[] = {{"load", Phase::kLoad, rep.load_ops, rep.load_bytes},
                {"age", Phase::kAge, rep.age_ops, rep.age_bytes},
                {"read", Phase::kRead, rep.read_ops, 0}};
  for (const auto& p : phases) {
    const lor::sim::IoStats& d = phase[static_cast<size_t>(p.phase)].device;
    const double requests = static_cast<double>(d.reads + d.writes);
    const double ops = static_cast<double>(p.ops);
    const std::string pre = std::string("device.") + p.name + ".";
    add(pre + "requests_per_op", Ratio(requests, ops), "count");
    add(pre + "bytes_per_request",
        Ratio(static_cast<double>(d.bytes_read + d.bytes_written), requests),
        "B");
    add(pre + "seeks_per_op", Ratio(static_cast<double>(d.seeks), ops),
        "count");
    add(pre + "sequential_ratio",
        Ratio(static_cast<double>(d.sequential_hits), requests), "ratio");
    add(pre + "busy_s", d.busy_time_s, "s");
    add(pre + "seek_s", d.seek_time_s, "s");
    add(pre + "rotational_s", d.rotational_time_s, "s");
    add(pre + "transfer_s", d.transfer_time_s, "s");
    add(pre + "write_amp",
        Ratio(static_cast<double>(d.bytes_written),
              static_cast<double>(p.user_bytes_written)),
        "ratio");
    add(pre + "coalesced_runs_per_vectored",
        Ratio(static_cast<double>(d.coalesced_runs),
              static_cast<double>(d.vectored_requests)),
        "count");
  }

  // sim scheduler, pool and plane (aging + probes)
  add("scheduler.queue_wait_s", run.device.queue_wait_s, "s");
  add("scheduler.queue_wait_ms_per_op",
      Ratio(run.device.queue_wait_s * 1e3, run_ops), "ms");
  add("pool.hit_rate",
      Ratio(static_cast<double>(run.pool_hits),
            static_cast<double>(run.pool_hits + run.pool_misses)),
      "ratio");
  add("pool.evictions", static_cast<double>(run.pool_evictions), "count");
  add("pool.fills", static_cast<double>(run.pool_fills), "count");
  add("pool.writebacks", static_cast<double>(run.pool_writebacks), "count");
  add("pool.eviction_refusals",
      static_cast<double>(run.pool_eviction_refusals), "count");
  add("pool.frame_recycle_ratio",
      Ratio(static_cast<double>(run.pool_frame_recycles),
            static_cast<double>(run.pool_frame_allocs +
                                run.pool_frame_recycles)),
      "ratio");
  add("plane.interference_seeks",
      static_cast<double>(run.device.interference_seeks), "count");
  add("plane.interference_seek_s", run.device.interference_seek_time_s, "s");
  add("plane.interference_ratio",
      Ratio(static_cast<double>(run.device.interference_seeks),
            static_cast<double>(run.device.seeks)),
      "ratio");
  return m;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  const Workload& w = *args.workload;

  std::printf("workload %s (seed %llu): %s\n", w.name,
              static_cast<unsigned long long>(args.seed), w.why);
  std::printf("  live %.2f GiB, pool %.2f GiB, clients %u (%u shards x qd "
              "%u)\n  loads: %s\n  bypasses: %s\n",
              static_cast<double>(LiveBytes(w)) / kGiB,
              static_cast<double>(PoolBytes(w)) / kGiB,
              w.shards * w.queue_depth, w.shards, w.queue_depth, w.loads,
              w.bypasses);

  const Clock::time_point start = Clock::now();
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  auto elapsed = [&] { return Seconds(start, Clock::now()); };
  auto keep = [&](Rep rep, std::vector<Rep>* into) {
    attempted += rep.attempted;
    if (!rep.ok) {
      ++failed;
      failures.insert(failures.end(), rep.failures.begin(),
                      rep.failures.end());
    }
    into->push_back(std::move(rep));
    return into->back().ok;
  };
  // Trajectory i runs with workload seed --seed + i * golden-ratio
  // constant; repetition n runs trajectory n % kTrajectories.
  auto seed_of = [&](size_t n) {
    return args.seed + 0x9E3779B97F4A7C15ull * (n % kTrajectories);
  };
  const double budget = static_cast<double>(args.seconds);
  if (!args.trace) {
    while (plain.size() < kTrajectories || elapsed() < budget) {
      if (!keep(RunRep(w, seed_of(plain.size()), false), &plain)) break;
    }
  } else {
    while (traced.size() < kTrajectories || elapsed() < budget) {
      const uint64_t seed = seed_of(traced.size());
      if (!keep(RunRep(w, seed, false), &plain)) break;
      if (!keep(RunRep(w, seed, true), &traced)) break;
    }
  }

  // Outputs: every repetition of a trajectory, traced or not, must
  // reproduce its first untraced repetition's simulated results bit for
  // bit, and every reported percentile must be supported.
  bool correct = failed == 0;
  const size_t pooled = std::min<size_t>(plain.size(), kTrajectories);
  const SimMetrics sim = SimOf(std::span<const Rep>(plain).first(pooled));
  for (const std::vector<Rep>* reps : {&plain, &traced}) {
    for (size_t n = 0; n < reps->size(); ++n) {
      const Rep& r = (*reps)[n];
      const size_t first = n % kTrajectories;
      if (!r.ok || first >= plain.size()) continue;
      if (SimOf({&r, 1}).Fingerprint() !=
          SimOf({&plain[first], 1}).Fingerprint()) {
        correct = false;
        failures.push_back(reps == &plain
                               ? "simulated results differ between "
                                 "repetitions of one trajectory"
                               : "a traced repetition's simulated results "
                                 "differ from the untraced one's");
      }
    }
  }
  for (const Percentile* p : {&sim.get_p99, &sim.write_p99, &sim.write_p999}) {
    if (!p->supported()) {
      correct = false;
      failures.push_back("a latency percentile has fewer than " +
                         std::to_string(kMinBeyond) + " samples beyond it");
    }
  }
  if (!correct && failed == 0) failed = 1;

  std::vector<Metric> e2e = EndToEnd(plain, sim);
  e2e.push_back({"failed_op_ratio",
                 Ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)),
                 "ratio", "listing only; the result line carries the counts"});
  PrintListing("end-to-end (untraced)", e2e);
  e2e.pop_back();

  std::vector<Metric> result = e2e;
  if (args.trace) {
    std::vector<Metric> layers;
    if (!traced.empty()) layers = traced.front().layers;
    std::vector<double> plain_run, traced_run;
    for (const Rep& r : plain) plain_run.push_back(r.run_s * r.scale);
    for (const Rep& r : traced) traced_run.push_back(r.run_s * r.scale);
    layers.push_back({"trace.overhead_s",
                      Median(traced_run) - Median(plain_run), "s",
                      "median traced run_s - median untraced run_s, at "
                      "reference speed"});
    PrintListing("per-layer (traced)", layers);
    result = layers;
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "lorbench: FAILED: %s\n", f.c_str());
  }
  PrintResult(correct, attempted, failed, result);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace lorbench

int main(int argc, char** argv) { return lorbench::Main(argc, argv); }
