#include "bench_common.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace lor {
namespace bench {

namespace {

/// Prints why the command line was rejected plus the usage, and exits
/// 2 (the perfbench convention for malformed arguments).
[[noreturn]] void UsageExit(const char* program, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [--scale=small|paper|<positive number>] "
               "[--seed=N] [--csv] [--name-path] [--qd=N] [--sync] "
               "[--cache-mb=N] [--no-overlap] [--wall-repeats=N] "
               "[--owners=N] [--fifo] [--shards=N | --threads=N]\n"
               "environment: LOR_BENCH_SCALE overrides --scale, "
               "LOR_BENCH_SHARDS overrides --shards\n",
               program, why.c_str(), program);
  std::exit(2);
}

/// Strict unsigned decimal: digits only, fully consumed, no overflow.
bool ParseU64(const char* text, uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

/// A count in [1, UINT32_MAX].
bool ParseCount(const char* text, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseU64(text, &v) || v == 0 || v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

/// small | paper | a positive finite number, fully consumed.
bool ParseScale(const char* text, double* out) {
  if (std::strcmp(text, "small") == 0) {
    *out = 0.1;
    return true;
  }
  if (std::strcmp(text, "paper") == 0) {
    *out = 1.0;
    return true;
  }
  if (*text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !std::isfinite(v) || v <= 0.0) return false;
  *out = v;
  return true;
}

}  // namespace

Options Options::FromArgs(int argc, char** argv) {
  Options opts;
  const char* program = argc > 0 ? argv[0] : "bench";
  // `--name=value` flags: matches `arg` against `name` and yields the
  // value, or null when `arg` is a different flag.
  auto value_of = [](const char* arg, const char* name) -> const char* {
    const size_t n = std::strlen(name);
    return std::strncmp(arg, name, n) == 0 ? arg + n : nullptr;
  };
  auto bad = [&](const char* arg, const char* expected) {
    UsageExit(program, std::string("malformed ") + arg + " (expected " +
                           expected + ")");
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if ((v = value_of(arg, "--scale=")) != nullptr) {
      if (!ParseScale(v, &opts.scale)) {
        bad(arg, "small, paper or a positive number");
      }
    } else if ((v = value_of(arg, "--seed=")) != nullptr) {
      if (!ParseU64(v, &opts.seed)) bad(arg, "a non-negative integer");
    } else if (std::strcmp(arg, "--csv") == 0) {
      opts.csv = true;
    } else if (std::strcmp(arg, "--name-path") == 0) {
      opts.name_path = true;
    } else if ((v = value_of(arg, "--qd=")) != nullptr) {
      if (!ParseCount(v, &opts.queue_depth)) bad(arg, "a positive integer");
    } else if (std::strcmp(arg, "--sync") == 0) {
      opts.queue_depth = 1;
    } else if ((v = value_of(arg, "--cache-mb=")) != nullptr) {
      if (!ParseU64(v, &opts.cache_mb)) bad(arg, "a non-negative integer");
    } else if (std::strcmp(arg, "--no-overlap") == 0) {
      opts.no_overlap = true;
    } else if ((v = value_of(arg, "--wall-repeats=")) != nullptr) {
      if (!ParseCount(v, &opts.wall_repeats)) bad(arg, "a positive integer");
    } else if ((v = value_of(arg, "--owners=")) != nullptr) {
      if (!ParseCount(v, &opts.owners_per_spindle)) {
        bad(arg, "a positive integer");
      }
    } else if (std::strcmp(arg, "--fifo") == 0) {
      opts.fifo = true;
    } else if ((v = value_of(arg, "--shards=")) != nullptr ||
               (v = value_of(arg, "--threads=")) != nullptr) {
      if (!ParseCount(v, &opts.shards)) bad(arg, "a positive integer");
      opts.shards_set = true;
    } else {
      UsageExit(program, std::string("unknown argument '") + arg + "'");
    }
  }
  // Environment overrides used by CI sweeps; empty means unset.
  const char* env = std::getenv("LOR_BENCH_SCALE");
  if (env != nullptr && *env != '\0' && !ParseScale(env, &opts.scale)) {
    UsageExit(program, std::string("malformed LOR_BENCH_SCALE='") + env +
                           "' (expected small, paper or a positive number)");
  }
  env = std::getenv("LOR_BENCH_SHARDS");
  if (env != nullptr && *env != '\0') {
    if (!ParseCount(env, &opts.shards)) {
      UsageExit(program, std::string("malformed LOR_BENCH_SHARDS='") + env +
                             "' (expected a positive integer)");
    }
    opts.shards_set = true;
  }
  return opts;
}

uint64_t Options::ScaleBytes(uint64_t paper_bytes) const {
  return static_cast<uint64_t>(static_cast<double>(paper_bytes) * scale);
}

std::unique_ptr<core::RepositoryFactory> MakeRepositoryFactory(
    Backend backend, uint64_t volume_bytes, uint64_t write_request_bytes,
    uint64_t cache_bytes) {
  if (backend == Backend::kFilesystem) {
    core::FsRepositoryConfig config;
    config.volume_bytes = volume_bytes;
    config.write_request_bytes = write_request_bytes;
    config.cache.capacity_bytes = cache_bytes;
    return std::make_unique<core::FsRepositoryFactory>(config);
  }
  core::DbRepositoryConfig config;
  config.volume_bytes = volume_bytes;
  config.store.write_request_bytes = write_request_bytes;
  config.cache.capacity_bytes = cache_bytes;
  return std::make_unique<core::DbRepositoryFactory>(config);
}

std::unique_ptr<core::ObjectRepository> MakeRepository(
    Backend backend, uint64_t volume_bytes, uint64_t write_request_bytes,
    uint64_t cache_bytes) {
  return MakeRepositoryFactory(backend, volume_bytes, write_request_bytes,
                               cache_bytes)
      ->Create(0, 1);
}

namespace {

/// The checkpoint protocol shared by the single-shard and sharded
/// aging drivers: bulk load is the age-0 checkpoint, then every target
/// age records the interval's write sample, an optional read probe,
/// the measured age, and a fragmentation report. `Runner` is
/// GetPutRunner or ShardedRunner (identical phase interface).
template <typename Runner>
Result<std::vector<AgingCheckpoint>> CollectCheckpoints(
    Runner* runner, const std::vector<double>& ages, bool probe_reads,
    uint32_t wall_repeats) {
  std::vector<AgingCheckpoint> checkpoints;

  // Extra timed probe passes purely to steady the host wall clock: keep
  // the min wall, discard the simulated samples (the first pass's stay
  // authoritative). Opt-in because the extra passes draw extra victims
  // from the workload stream.
  auto repeat_probe = [&](AgingCheckpoint* cp) -> Status {
    for (uint32_t r = 1; r < wall_repeats; ++r) {
      LOR_ASSIGN_OR_RETURN(workload::ThroughputSample again,
                           runner->MeasureReadThroughput());
      cp->read.host_seconds = std::min(cp->read.host_seconds,
                                       again.host_seconds);
    }
    return Status::OK();
  };

  auto snapshot = [&](AgingCheckpoint* cp) {
    cp->measured_age = runner->storage_age();
    cp->fragmentation = runner->Fragmentation();
    cp->device = runner->device_stats();
    cp->latency = runner->latency();
    uint64_t hits = 0;
    uint64_t misses = 0;
    bool first = true;
    for (const sim::BufferPoolStats& pool : runner->shard_cache_stats()) {
      hits += pool.hits;
      misses += pool.misses;
      const double rate = pool.hit_rate();
      cp->cache_hit_min = first ? rate : std::min(cp->cache_hit_min, rate);
      cp->cache_hit_max = first ? rate : std::max(cp->cache_hit_max, rate);
      first = false;
    }
    cp->cache_hit = hits + misses == 0
                        ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(hits + misses);
  };

  AgingCheckpoint zero;
  zero.target_age = 0.0;
  LOR_ASSIGN_OR_RETURN(zero.write, runner->BulkLoad());
  if (probe_reads) {
    LOR_ASSIGN_OR_RETURN(zero.read, runner->MeasureReadThroughput());
    LOR_RETURN_IF_ERROR(repeat_probe(&zero));
  }
  snapshot(&zero);
  checkpoints.push_back(std::move(zero));

  for (double age : ages) {
    AgingCheckpoint cp;
    cp.target_age = age;
    if (probe_reads) {
      // One dispatch for age + probe: a shard done aging moves straight
      // into its probe instead of idling at a host barrier. Simulated
      // results are identical to the separate calls.
      LOR_ASSIGN_OR_RETURN(workload::AgeMeasureSample fused,
                           runner->AgeAndMeasure(age));
      cp.write = fused.aged;
      cp.read = fused.read;
      LOR_RETURN_IF_ERROR(repeat_probe(&cp));
    } else {
      LOR_ASSIGN_OR_RETURN(cp.write, runner->AgeTo(age));
    }
    snapshot(&cp);
    checkpoints.push_back(std::move(cp));
  }
  return checkpoints;
}

}  // namespace

Result<std::vector<AgingCheckpoint>> RunAging(
    core::ObjectRepository* repo, const workload::WorkloadConfig& config,
    const std::vector<double>& ages, bool probe_reads,
    uint32_t wall_repeats) {
  workload::GetPutRunner runner(repo, config);
  return CollectCheckpoints(&runner, ages, probe_reads, wall_repeats);
}

Result<std::vector<AgingCheckpoint>> RunShardedAging(
    const core::RepositoryFactory& factory, uint32_t shards,
    const workload::WorkloadConfig& config, const std::vector<double>& ages,
    bool probe_reads, uint32_t wall_repeats) {
  workload::ShardedRunner runner(factory, config, shards);
  return CollectCheckpoints(&runner, ages, probe_reads, wall_repeats);
}

void PrintBanner(const std::string& title, const std::string& paper_ref,
                 const Options& options) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s (Sears & van Ingen, CIDR 2007)\n",
              paper_ref.c_str());
  std::printf("Scale: %.2fx of the paper's volumes (seed %llu)\n\n",
              options.scale, static_cast<unsigned long long>(options.seed));
}

}  // namespace bench
}  // namespace lor
