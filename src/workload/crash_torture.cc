#include "workload/crash_torture.h"

#include <algorithm>
#include <span>

#include "util/fnv.h"

namespace lor {
namespace workload {

namespace {
constexpr uint64_t kKeyMix = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kVersionMix = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kPayloadSalt = 0x94d049bb133111ebULL;
}  // namespace

CrashTortureRunner::CrashTortureRunner(CrashTortureOptions options)
    : options_(std::move(options)), rng_(options_.seed) {}

CrashTortureRunner::~CrashTortureRunner() = default;

std::string CrashTortureRunner::KeyName(uint64_t idx) const {
  return "obj" + std::to_string(idx);
}

uint64_t CrashTortureRunner::SizeFor(uint64_t idx, uint64_t version) const {
  Rng rng(options_.seed ^ (idx * kKeyMix) ^ (version * kVersionMix));
  const uint64_t lo = std::max<uint64_t>(1, options_.object_bytes / 2);
  const uint64_t span = std::max<uint64_t>(1, options_.object_bytes - lo);
  return lo + rng.Uniform(span);
}

std::vector<uint8_t> CrashTortureRunner::PayloadFor(uint64_t idx,
                                                    uint64_t version) const {
  const uint64_t size = SizeFor(idx, version);
  Rng rng(options_.seed ^ (idx * kKeyMix) ^ (version * kVersionMix) ^
          kPayloadSalt);
  std::vector<uint8_t> payload(size);
  uint64_t word = 0;
  for (uint64_t i = 0; i < size; ++i) {
    if (i % 8 == 0) word = rng.Next();
    payload[i] = static_cast<uint8_t>(word >> ((i % 8) * 8));
  }
  return payload;
}

Status CrashTortureRunner::Setup() {
  if (options_.backend == CrashBackend::kFilesystem) {
    core::FsRepositoryConfig cfg;
    cfg.volume_bytes = options_.volume_bytes;
    cfg.data_mode = options_.data_mode;
    cfg.cache.capacity_bytes = options_.cache_bytes;
    cfg.store.batch_journal_charges = options_.batch_journal_charges;
    fs_ = std::make_unique<core::FsRepository>(cfg);
    fs_->device()->AttachFaultInjector(&injector_);
    repo_ = fs_.get();
  } else {
    core::DbRepositoryConfig cfg;
    cfg.volume_bytes = options_.volume_bytes;
    cfg.log_volume_bytes = options_.volume_bytes / 8;
    cfg.data_mode = options_.data_mode;
    cfg.cache.capacity_bytes = options_.cache_bytes;
    cfg.store.bulk_logged = options_.bulk_logged;
    db_ = std::make_unique<core::DbRepository>(cfg);
    // Data and log volumes share one power supply: one injector, one
    // global sequence, one cut.
    db_->device()->AttachFaultInjector(&injector_);
    if (db_->log_device() != nullptr) {
      db_->log_device()->AttachFaultInjector(&injector_);
    }
    repo_ = db_.get();
  }
  if (options_.queue_depth > 1) {
    LOR_RETURN_IF_ERROR(repo_->SetQueueDepth(options_.queue_depth));
  }

  keys_.assign(options_.objects, KeyState{});
  const bool retain = options_.data_mode == sim::DataMode::kRetain;
  auto write_version = [&](uint64_t idx, bool create) -> Status {
    KeyState& ks = keys_[idx];
    const uint64_t version = ++ks.versions_issued;
    const uint64_t size = SizeFor(idx, version);
    std::vector<uint8_t> payload;
    std::span<const uint8_t> data;
    uint64_t hash = 0;
    if (retain) {
      payload = PayloadFor(idx, version);
      data = payload;
      hash = Fnv(payload);
    }
    if (create) {
      LOR_RETURN_IF_ERROR(repo_->Put(KeyName(idx), size, data));
    } else {
      LOR_RETURN_IF_ERROR(repo_->SafeWrite(KeyName(idx), size, data));
    }
    ks.live = true;
    ks.version = version;
    ks.size = size;
    ks.hash = hash;
    return Status::OK();
  };
  for (uint64_t i = 0; i < options_.objects; ++i) {
    LOR_RETURN_IF_ERROR(write_version(i, /*create=*/true));
  }
  const uint64_t aging_ops = options_.aging_rounds * options_.objects;
  for (uint64_t i = 0; i < aging_ops; ++i) {
    LOR_RETURN_IF_ERROR(
        write_version(rng_.Uniform(keys_.size()), /*create=*/false));
  }
  LOR_RETURN_IF_ERROR(repo_->DrainIo());

  // Crash points land inside the window's expected write traffic so a
  // healthy fraction of windows trip mid-operation.
  const uint64_t writes_per_op = options_.object_bytes / (64 * kKiB) + 6;
  writes_horizon_ =
      std::max<uint64_t>(8, options_.max_ops_per_window * writes_per_op / 2);
  return Status::OK();
}

Status CrashTortureRunner::IssueOp(
    std::unordered_map<uint64_t, std::vector<WindowOp>>* window) {
  const uint64_t idx = rng_.Uniform(keys_.size());
  KeyState& ks = keys_[idx];
  // Current liveness as the client sees it: the stable state amended by
  // whatever this window already acked.
  bool live_now = ks.live;
  if (window != nullptr) {
    auto it = window->find(idx);
    if (it != window->end() && !it->second.empty()) {
      live_now = !it->second.back().deleted;
    }
  }
  const uint64_t dice = rng_.Uniform(100);
  if (dice < 15 && live_now) {
    LOR_RETURN_IF_ERROR(repo_->Delete(KeyName(idx)));
    // An op in flight when the power died was never acked: the client
    // cannot expect (or excuse) its effect.
    const bool acked = window == nullptr || !injector_.tripped();
    if (window != nullptr) {
      if (acked) (*window)[idx].push_back({true, 0, 0, 0});
    } else {
      ks.live = false;
    }
    return Status::OK();
  }
  if (dice < 30 && live_now) {
    return repo_->Get(KeyName(idx), nullptr);
  }
  const uint64_t version = ++ks.versions_issued;
  const uint64_t size = SizeFor(idx, version);
  std::vector<uint8_t> payload;
  std::span<const uint8_t> data;
  uint64_t hash = 0;
  if (options_.data_mode == sim::DataMode::kRetain) {
    payload = PayloadFor(idx, version);
    data = payload;
    hash = Fnv(payload);
  }
  LOR_RETURN_IF_ERROR(repo_->SafeWrite(KeyName(idx), size, data));
  const bool acked = window == nullptr || !injector_.tripped();
  if (window != nullptr) {
    if (acked) (*window)[idx].push_back({false, version, size, hash});
  } else {
    ks.live = true;
    ks.version = version;
    ks.size = size;
    ks.hash = hash;
  }
  return Status::OK();
}

void CrashTortureRunner::EndCrashWindowOnStore() {
  if (fs_ != nullptr) fs_->store()->EndCrashWindow();
  if (db_ != nullptr) db_->blob_store()->EndCrashWindow();
}

void CrashTortureRunner::FoldWindowIntoStable() {
  for (auto& [idx, ops] : window_) {
    if (ops.empty()) continue;
    KeyState& ks = keys_[idx];
    const WindowOp& last = ops.back();
    if (last.deleted) {
      ks.live = false;
    } else {
      ks.live = true;
      ks.version = last.version;
      ks.size = last.size;
      ks.hash = last.hash;
    }
  }
  window_.clear();
}

Status CrashTortureRunner::VerifyAfterCrash(CrashCutResult* cut) {
  const bool retain = options_.data_mode == sim::DataMode::kRetain;
  for (auto& [idx, ops] : window_) {
    if (ops.empty()) continue;
    KeyState& ks = keys_[idx];
    // The acceptable post-crash states: the stable pre-window version
    // plus every version acked during the window; absence is acceptable
    // only if the key was not stable-live or an acked delete removed it.
    bool absent_ok = !ks.live;
    WindowOp stable{false, ks.version, ks.size, ks.hash};
    std::vector<const WindowOp*> accept;
    if (ks.live) accept.push_back(&stable);
    for (const WindowOp& op : ops) {
      if (op.deleted) {
        absent_ok = true;
      } else {
        accept.push_back(&op);
      }
    }

    const std::string key = KeyName(idx);
    std::vector<uint8_t> payload;
    const Status read = repo_->Get(key, retain ? &payload : nullptr);
    const bool exists = read.ok();
    const WindowOp* observed = nullptr;
    if (!exists) {
      if (!absent_ok) ++cut->committed_lost;
    } else if (retain) {
      const uint64_t h = Fnv(payload);
      for (const WindowOp* c : accept) {
        if (c->hash == h && c->size == payload.size()) {
          observed = c;
          break;
        }
      }
      if (observed == nullptr) ++cut->torn_surfaced;
    } else {
      LOR_ASSIGN_OR_RETURN(const uint64_t sz, repo_->GetSize(key));
      for (const WindowOp* c : accept) {
        if (c->size == sz) {
          observed = c;
          break;
        }
      }
      if (observed == nullptr) ++cut->torn_surfaced;
    }

    // The data-loss window: acked effects that did not survive.
    const WindowOp& last = ops.back();
    const bool final_survived =
        last.deleted
            ? !exists
            : (observed != nullptr && observed->version == last.version);
    if (!final_survived) ++cut->acked_rolled_back;

    // Adopt the observed state as the new stable truth.
    if (!exists) {
      ks.live = false;
    } else if (observed != nullptr) {
      ks.live = true;
      ks.version = observed->version;
      ks.size = observed->size;
      ks.hash = observed->hash;
    } else {
      // Torn survivor (already counted): absorb it so later cuts don't
      // cascade the mismatch.
      LOR_ASSIGN_OR_RETURN(const uint64_t sz, repo_->GetSize(key));
      ks.live = true;
      ks.version = 0;
      ks.size = sz;
      ks.hash = retain ? Fnv(payload) : 0;
    }
  }
  window_.clear();
  return Status::OK();
}

Result<CrashCutResult> CrashTortureRunner::RunCut() {
  CrashCutResult cut;
  LOR_RETURN_IF_ERROR(repo_->DrainIo());
  sim::CrashSpec spec;
  spec.crash_after_writes = 1 + rng_.Uniform(writes_horizon_);
  spec.seed = rng_.Next();
  injector_.Arm(spec);
  window_.clear();

  uint64_t ops = 0;
  while (!injector_.tripped() && ops < options_.max_ops_per_window) {
    Status s = IssueOp(&window_);
    if (!s.ok()) {
      injector_.Disarm();
      EndCrashWindowOnStore();
      return s;
    }
    ++ops;
  }

  if (!injector_.tripped()) {
    // The window closed before the crash point: drain (making every
    // acked op durable), release rollback holds, fold the oracle.
    LOR_RETURN_IF_ERROR(repo_->DrainIo());
    injector_.Disarm();
    EndCrashWindowOnStore();
    FoldWindowIntoStable();
    return cut;
  }

  cut.tripped = true;
  cut.crash = injector_.MaterializeCrash();
  LOR_ASSIGN_OR_RETURN(cut.mount, repo_->Mount());
  // Abandoning the dead queue leaves the scheduler disengaged; the
  // restarted "machine" re-opens at its configured depth.
  if (options_.queue_depth > 1) {
    LOR_RETURN_IF_ERROR(repo_->SetQueueDepth(options_.queue_depth));
  }
  LOR_ASSIGN_OR_RETURN(core::FsckReport fsck, repo_->Fsck());
  cut.fsck_clean = fsck.clean();
  cut.fsck_issues = fsck.issues.size();
  LOR_RETURN_IF_ERROR(VerifyAfterCrash(&cut));
  LOR_RETURN_IF_ERROR(repo_->CheckConsistency());
  return cut;
}

Status CrashTortureRunner::IssueMediaOp(MediaCycleResult* cycle) {
  const uint64_t idx = rng_.Uniform(keys_.size());
  KeyState& ks = keys_[idx];
  const std::string key = KeyName(idx);
  const uint64_t dice = rng_.Uniform(100);
  ++cycle->ops;
  if (dice < 10 && ks.live) {
    LOR_RETURN_IF_ERROR(repo_->Delete(key));
    ks.live = false;
    return Status::OK();
  }
  if (dice < 60 && ks.live) {
    std::vector<uint8_t> payload;
    const Status read = repo_->Get(key, &payload);
    if (read.ok()) {
      // The one inviolable rule: an acknowledged read delivers the
      // acked bytes or a typed error — never wrong bytes.
      if (payload.size() != ks.size || Fnv(payload) != ks.hash) {
        ++cycle->silent_corruptions;
      }
    } else if (read.IsCorruption()) {
      ++cycle->corruptions_detected;
    } else if (read.IsIoError()) {
      ++cycle->read_errors;
    } else {
      return read;
    }
    return Status::OK();
  }
  const uint64_t version = ++ks.versions_issued;
  const uint64_t size = SizeFor(idx, version);
  const std::vector<uint8_t> payload = PayloadFor(idx, version);
  LOR_RETURN_IF_ERROR(repo_->SafeWrite(key, size, payload));
  ks.live = true;
  ks.version = version;
  ks.size = size;
  ks.hash = Fnv(payload);
  return Status::OK();
}

Result<MediaCycleResult> CrashTortureRunner::RunMediaCycle() {
  MediaCycleResult cycle;
  LOR_RETURN_IF_ERROR(repo_->DrainIo());
  sim::MediaFaultSpec spec = options_.media;
  spec.seed = rng_.Next();
  media_model_.Arm(spec);

  for (uint64_t op = 0; op < options_.ops_per_media_cycle; ++op) {
    LOR_RETURN_IF_ERROR(IssueMediaOp(&cycle));
  }
  if (options_.scrub_between_cycles) {
    LOR_ASSIGN_OR_RETURN(cycle.scrub, repo_->Scrub());
  }

  // Heal with the model disarmed: latent sector errors stop refusing
  // reads, but at-rest flips persist in the arena (Disarm never puts
  // bytes back), so damaged keys still fail their checksums. Rewrite
  // each one from the oracle.
  media_model_.Disarm();
  for (uint64_t idx = 0; idx < keys_.size(); ++idx) {
    KeyState& ks = keys_[idx];
    if (!ks.live) continue;
    std::vector<uint8_t> payload;
    const Status read = repo_->Get(KeyName(idx), &payload);
    if (read.ok() && payload.size() == ks.size && Fnv(payload) == ks.hash) {
      continue;
    }
    if (read.ok()) {
      // Wrong bytes with a clean status slipped past the checksums.
      ++cycle.silent_corruptions;
    } else if (!read.IsCorruption() && !read.IsIoError()) {
      return read;
    }
    const uint64_t version = ++ks.versions_issued;
    const uint64_t size = SizeFor(idx, version);
    const std::vector<uint8_t> fresh = PayloadFor(idx, version);
    LOR_RETURN_IF_ERROR(repo_->SafeWrite(KeyName(idx), size, fresh));
    ks.version = version;
    ks.size = size;
    ks.hash = Fnv(fresh);
    ++cycle.healed;
  }
  cycle.transient_clears = media_model_.stats().transient_clears;

  // After the heal every payload matches its recorded hashes again.
  LOR_ASSIGN_OR_RETURN(const core::FsckReport fsck, repo_->Fsck());
  cycle.fsck_clean = fsck.clean();
  LOR_RETURN_IF_ERROR(repo_->CheckConsistency());
  return cycle;
}

Result<MediaTortureSummary> CrashTortureRunner::RunMedia() {
  if (options_.data_mode != sim::DataMode::kRetain) {
    return Status::InvalidArgument(
        "media torture needs DataMode::kRetain (faults bite real bytes)");
  }
  LOR_RETURN_IF_ERROR(Setup());
  if (fs_ != nullptr) fs_->device()->AttachMediaFaults(&media_model_);
  if (db_ != nullptr) db_->device()->AttachMediaFaults(&media_model_);
  MediaTortureSummary sum;
  for (uint64_t c = 0; c < options_.media_cycles; ++c) {
    LOR_ASSIGN_OR_RETURN(const MediaCycleResult cycle, RunMediaCycle());
    ++sum.cycles_executed;
    sum.ops += cycle.ops;
    sum.read_errors += cycle.read_errors;
    sum.corruptions_detected += cycle.corruptions_detected;
    sum.silent_corruptions += cycle.silent_corruptions;
    sum.scrub_objects_scanned += cycle.scrub.objects_scanned;
    sum.scrub_repaired += cycle.scrub.repaired;
    sum.scrub_unrecoverable += cycle.scrub.unrecoverable;
    sum.healed += cycle.healed;
    sum.transient_clears += cycle.transient_clears;
    if (!cycle.fsck_clean) ++sum.fsck_dirty_cycles;
  }
  if (fs_ != nullptr) {
    sum.quarantined_units = fs_->store()->quarantined_cluster_count();
  }
  if (db_ != nullptr) {
    sum.quarantined_units = db_->blob_store()->quarantined_page_count();
  }
  return sum;
}

Result<CrashTortureSummary> CrashTortureRunner::Run() {
  LOR_RETURN_IF_ERROR(Setup());
  CrashTortureSummary sum;
  uint64_t attempts = 0;
  while (sum.cuts_executed < options_.cuts) {
    if (++attempts > options_.cuts * 8 + 16) {
      return Status::Aborted(
          "crash windows refuse to trip; crash horizon too large for the "
          "workload");
    }
    LOR_ASSIGN_OR_RETURN(CrashCutResult cut, RunCut());
    if (!cut.tripped) {
      ++sum.windows_untripped;
      continue;
    }
    ++sum.cuts_executed;
    sum.committed_lost += cut.committed_lost;
    sum.torn_surfaced += cut.torn_surfaced;
    sum.acked_rolled_back += cut.acked_rolled_back;
    if (!cut.fsck_clean) ++sum.fsck_dirty_cuts;
    sum.entries_replayed += cut.mount.entries_scanned;
    sum.ops_rolled_back += cut.mount.ops_rolled_back;
    sum.data_loss_bytes += cut.mount.data_loss_bytes;
    sum.total_recovery_seconds += cut.mount.recovery_seconds;
    sum.max_recovery_seconds =
        std::max(sum.max_recovery_seconds, cut.mount.recovery_seconds);
  }
  return sum;
}

}  // namespace workload
}  // namespace lor
