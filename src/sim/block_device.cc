#include "sim/block_device.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <utility>

#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "sim/op_cost_model.h"

namespace lor {
namespace sim {

namespace {

/// Shared all-zeros slab backing ReadView/ReadChunk over unwritten
/// ranges (and every range in kMetadataOnly mode). Read-only by
/// contract; allocated once per process.
const uint8_t* ZeroSlab() {
  static const std::unique_ptr<uint8_t[]> zero(
      new uint8_t[BlockDevice::kSlabBytes]());
  return zero.get();
}

}  // namespace

/// Level-2 of the arena page table: a fixed span of lazily allocated
/// contiguous slab extents.
struct BlockDevice::SlabGroup {
  std::array<std::unique_ptr<uint8_t[]>, kSlabsPerGroup> slabs;
};

/// Deep copy of the arena's allocated slabs, group table and all.
struct ArenaSnapshot::Rep {
  std::vector<std::unique_ptr<BlockDevice::SlabGroup>> groups;
};

ArenaSnapshot::ArenaSnapshot() : rep_(std::make_unique<Rep>()) {}
ArenaSnapshot::~ArenaSnapshot() = default;
ArenaSnapshot::ArenaSnapshot(ArenaSnapshot&&) noexcept = default;
ArenaSnapshot& ArenaSnapshot::operator=(ArenaSnapshot&&) noexcept = default;

ArenaSnapshot BlockDevice::SnapshotArena() const {
  ArenaSnapshot snapshot;
  snapshot.rep_->groups.resize(groups_.size());
  for (size_t g = 0; g < groups_.size(); ++g) {
    if (groups_[g] == nullptr) continue;
    auto group = std::make_unique<SlabGroup>();
    for (size_t s = 0; s < kSlabsPerGroup; ++s) {
      const uint8_t* slab = groups_[g]->slabs[s].get();
      if (slab == nullptr) continue;
      group->slabs[s].reset(new uint8_t[kSlabBytes]);
      std::memcpy(group->slabs[s].get(), slab, kSlabBytes);
    }
    snapshot.rep_->groups[g] = std::move(group);
  }
  return snapshot;
}

void BlockDevice::RestoreArena(const ArenaSnapshot& snapshot) {
  for (size_t g = 0; g < groups_.size(); ++g) {
    const SlabGroup* from = g < snapshot.rep_->groups.size()
                                ? snapshot.rep_->groups[g].get()
                                : nullptr;
    if (from == nullptr) {
      groups_[g].reset();  // Written since the snapshot: back to zeros.
      continue;
    }
    if (groups_[g] == nullptr) groups_[g] = std::make_unique<SlabGroup>();
    for (size_t s = 0; s < kSlabsPerGroup; ++s) {
      const uint8_t* slab = from->slabs[s].get();
      if (slab == nullptr) {
        groups_[g]->slabs[s].reset();
        continue;
      }
      if (groups_[g]->slabs[s] == nullptr) {
        groups_[g]->slabs[s].reset(new uint8_t[kSlabBytes]);
      }
      std::memcpy(groups_[g]->slabs[s].get(), slab, kSlabBytes);
    }
  }
}

void BlockDevice::AttachMediaFaults(MediaFaultModel* media) {
  media_ = media;
  if (media_ != nullptr) media_->RegisterDevice(this);
}

Status BlockDevice::CheckMediaRead(uint64_t offset, uint64_t len) {
  if (media_ == nullptr) return Status::OK();
  Status s = media_->CheckRead(this, offset, len);
  if (!s.ok()) ++stats_.media_read_errors;
  return s;
}

void BlockDevice::NoteMediaWrite(uint64_t offset, uint64_t len) {
  if (media_ != nullptr) media_->NoteWrite(this, offset, len);
}

uint64_t BlockDevice::NoteWriteSubmission(uint64_t offset, uint64_t len) {
  if (injector_ == nullptr) return 0;
  return injector_->RecordWrite(this, offset, len);
}

void BlockDevice::NoteWriteServiced(uint64_t tag) {
  if (tag != 0 && injector_ != nullptr) injector_->MarkServiced(tag);
}

BlockDevice::BlockDevice(DiskParams params, DataMode mode)
    : model_(params), mode_(mode) {
  if (mode_ == DataMode::kRetain) {
    const uint64_t slabs = (capacity() + kSlabBytes - 1) / kSlabBytes;
    groups_.resize((slabs + kSlabsPerGroup - 1) / kSlabsPerGroup);
  }
}

BlockDevice::~BlockDevice() = default;

std::unique_ptr<BlockDevice> BlockDevice::CreateOwnerView(
    int32_t owner, uint64_t base, uint64_t region_bytes) {
  DiskParams region_params = model_.params();
  region_params.capacity_bytes = region_bytes;
  auto view =
      std::unique_ptr<BlockDevice>(new BlockDevice(region_params, mode_));
  view->groups_.clear();  // Retained bytes live in the hub's arena.
  view->spindle_ = this;
  view->spindle_base_ = base;
  view->spindle_owner_ = owner;
  return view;
}

void BlockDevice::PreallocateArenaGroups() {
  if (mode_ != DataMode::kRetain) return;
  for (auto& group : groups_) {
    if (group == nullptr) group = std::make_unique<SlabGroup>();
  }
}

uint8_t* BlockDevice::SlabAt(uint64_t slab_index) const {
  if (spindle_ != nullptr) {
    return spindle_->SlabAt(slab_index + spindle_base_ / kSlabBytes);
  }
  const uint64_t group = slab_index / kSlabsPerGroup;
  if (group >= groups_.size() || groups_[group] == nullptr) return nullptr;
  return groups_[group]->slabs[slab_index % kSlabsPerGroup].get();
}

uint8_t* BlockDevice::EnsureSlab(uint64_t slab_index) {
  if (spindle_ != nullptr) {
    return spindle_->EnsureSlab(slab_index + spindle_base_ / kSlabBytes);
  }
  const uint64_t group = slab_index / kSlabsPerGroup;
  if (group >= groups_.size()) return nullptr;  // Beyond capacity: dropped.
  if (groups_[group] == nullptr) {
    groups_[group] = std::make_unique<SlabGroup>();
  }
  std::unique_ptr<uint8_t[]>& slab =
      groups_[group]->slabs[slab_index % kSlabsPerGroup];
  if (slab == nullptr) slab.reset(new uint8_t[kSlabBytes]());  // Zero-filled.
  return slab.get();
}

const uint8_t* BlockDevice::ReadChunk(uint64_t offset, uint64_t len,
                                      uint64_t* chunk) const {
  const uint64_t in_slab = offset % kSlabBytes;
  *chunk = std::min(len, kSlabBytes - in_slab);
  const uint8_t* base = SlabAt(offset / kSlabBytes);
  return (base != nullptr ? base : ZeroSlab()) + in_slab;
}

uint8_t* BlockDevice::WriteChunk(uint64_t offset, uint64_t len,
                                 uint64_t* chunk) {
  const uint64_t in_slab = offset % kSlabBytes;
  *chunk = std::min(len, kSlabBytes - in_slab);
  if (mode_ != DataMode::kRetain) return nullptr;
  uint8_t* base = EnsureSlab(offset / kSlabBytes);
  return base == nullptr ? nullptr : base + in_slab;
}

Status BlockDevice::CheckRange(uint64_t offset, uint64_t len) const {
  if (offset > capacity() || len > capacity() - offset) {
    return Status::InvalidArgument("request beyond device capacity");
  }
  return Status::OK();
}

double BlockDevice::ServiceRequest(bool /*write*/, uint64_t offset,
                                   uint64_t len, TransferMemo* memo) {
  // An owner view services against the hub's head, seek curve, and
  // physical zone layout; dedicated devices resolve hub == this and the
  // arithmetic below is the historical sequence unchanged.
  BlockDevice* hub = spindle_ != nullptr ? spindle_ : this;
  const uint64_t phys = spindle_base_ + offset;
  double t = hub->model_.params().per_request_overhead_s;
  if (hub->head_valid_ && phys == hub->head_) {
    ++stats_.sequential_hits;
  } else {
    const double seek =
        hub->model_.SeekTime(hub->head_valid_ ? hub->head_ : 0, phys);
    const double rot = hub->model_.RotationalLatency();
    stats_.seek_time_s += seek;
    stats_.rotational_time_s += rot;
    t += seek + rot;
    ++stats_.seeks;
    if (spindle_ != nullptr && hub->last_owner_ >= 0 &&
        hub->last_owner_ != spindle_owner_) {
      // The head was left elsewhere by another owner: this seek is
      // contention, not something a dedicated spindle would charge.
      ++stats_.interference_seeks;
      stats_.interference_seek_time_s += seek + rot;
    }
  }
  const double transfer = memo != nullptr
                              ? memo->Get(hub->model_, phys, len)
                              : hub->model_.TransferTime(phys, len);
  stats_.transfer_time_s += transfer;
  t += transfer;
  if (media_ != nullptr) {
    // Degraded-region slowdown, accounted outside the seek/rotation/
    // transfer decomposition so that stays exact.
    const double extra = media_->DegradedExtra(this, offset, len, t);
    if (extra > 0.0) {
      ++stats_.degraded_requests;
      stats_.degraded_time_s += extra;
      t += extra;
    }
  }
  stats_.busy_time_s += t;
  hub->head_ = phys + len;
  hub->head_valid_ = true;
  if (spindle_ != nullptr) hub->last_owner_ = spindle_owner_;
  return t;
}

double BlockDevice::ServiceFlush() {
  BlockDevice* hub = spindle_ != nullptr ? spindle_ : this;
  hub->head_valid_ = false;
  stats_.busy_time_s += kFlushCost;
  return kFlushCost;
}

double BlockDevice::PeekPositioningCost(uint64_t offset) const {
  const BlockDevice* hub = spindle_ != nullptr ? spindle_ : this;
  const uint64_t phys = spindle_base_ + offset;
  if (hub->head_valid_ && phys == hub->head_) return 0.0;
  return hub->model_.SeekTime(hub->head_valid_ ? hub->head_ : 0, phys);
}

bool BlockDevice::AsyncActive() const {
  return scheduler_ != nullptr && scheduler_->ShouldQueue();
}

void BlockDevice::ChargePositioning(uint64_t offset, uint64_t len) {
  clock().Advance(ServiceRequest(false, offset, len));
}

void BlockDevice::StoreBytes(uint64_t offset, const uint8_t* src,
                             uint64_t len) {
  while (len > 0) {
    uint64_t chunk = 0;
    uint8_t* dst = WriteChunk(offset, len, &chunk);
    if (dst != nullptr) {
      if (src != nullptr) {
        std::memcpy(dst, src, chunk);
        src += chunk;
      } else {
        std::memset(dst, 0, chunk);
      }
    }
    offset += chunk;
    len -= chunk;
  }
}

void BlockDevice::LoadBytesInto(uint64_t offset, uint8_t* dst,
                                uint64_t len) const {
  while (len > 0) {
    const uint64_t in_slab = offset % kSlabBytes;
    const uint64_t chunk = std::min(len, kSlabBytes - in_slab);
    const uint8_t* base = SlabAt(offset / kSlabBytes);
    if (base != nullptr) {
      std::memcpy(dst, base + in_slab, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    dst += chunk;
    offset += chunk;
    len -= chunk;
  }
}

Status BlockDevice::Write(uint64_t offset, uint64_t len,
                          std::span<const uint8_t> data) {
  LOR_RETURN_IF_ERROR(CheckRange(offset, len));
  if (!data.empty() && data.size() != len) {
    return Status::InvalidArgument("data size does not match request length");
  }
  if (len == 0) return Status::OK();  // No bytes: no charge, no head move.
  NoteMediaWrite(offset, len);
  const uint64_t tag = NoteWriteSubmission(offset, len);
  if (AsyncActive()) {
    scheduler_->EnqueueRequest(/*write=*/true, offset, len, nullptr, tag);
  } else {
    ChargePositioning(offset, len);
    NoteWriteServiced(tag);
  }
  ++stats_.writes;
  stats_.bytes_written += len;
  if (mode_ == DataMode::kRetain) {
    StoreBytes(offset, data.empty() ? nullptr : data.data(), len);
  }
  return Status::OK();
}

Status BlockDevice::Read(uint64_t offset, uint64_t len,
                         std::vector<uint8_t>* out) {
  LOR_RETURN_IF_ERROR(CheckRange(offset, len));
  if (len == 0) {
    if (out != nullptr) out->clear();
    return Status::OK();
  }
  // Media admission: a failed payload read is known before the head
  // moves — nothing is charged or queued, the caller owns retry cost.
  if (out != nullptr) LOR_RETURN_IF_ERROR(CheckMediaRead(offset, len));
  if (AsyncActive()) {
    scheduler_->EnqueueRequest(/*write=*/false, offset, len, nullptr);
  } else {
    ChargePositioning(offset, len);
  }
  ++stats_.reads;
  stats_.bytes_read += len;
  if (out != nullptr) {
    // Reuse the caller's capacity; every byte of the range is then
    // written exactly once (memcpy where backed, memset where not), so
    // no assign()-style zero-fill precedes the copy.
    out->resize(len);
    LoadBytesInto(offset, out->data(), len);
  }
  return Status::OK();
}

Status BlockDevice::ReadV(std::span<const IoSlice> slices) {
  for (const IoSlice& s : slices) {
    LOR_RETURN_IF_ERROR(CheckRange(s.offset, s.length));
  }
  // Whole-batch media admission before anything is charged: a vectored
  // read fails atomically, like its validation.
  for (const IoSlice& s : slices) {
    if (s.dst != nullptr && s.length != 0) {
      LOR_RETURN_IF_ERROR(CheckMediaRead(s.offset, s.length));
    }
  }
  bool charged = false;
  for (const IoSlice& s : slices) {
    if (s.length == 0) continue;
    if (AsyncActive()) {
      scheduler_->EnqueueRequest(/*write=*/false, s.offset, s.length, nullptr);
    } else {
      ChargePositioning(s.offset, s.length);
    }
    ++stats_.reads;
    stats_.bytes_read += s.length;
    ++stats_.coalesced_runs;
    charged = true;
    if (s.dst != nullptr) LoadBytesInto(s.offset, s.dst, s.length);
  }
  if (charged) ++stats_.vectored_requests;
  return Status::OK();
}

Status BlockDevice::WriteV(std::span<const IoSlice> slices) {
  for (const IoSlice& s : slices) {
    LOR_RETURN_IF_ERROR(CheckRange(s.offset, s.length));
  }
  bool charged = false;
  for (const IoSlice& s : slices) {
    if (s.length == 0) continue;
    NoteMediaWrite(s.offset, s.length);
    const uint64_t tag = NoteWriteSubmission(s.offset, s.length);
    if (AsyncActive()) {
      scheduler_->EnqueueRequest(/*write=*/true, s.offset, s.length, nullptr,
                                 tag);
    } else {
      ChargePositioning(s.offset, s.length);
      NoteWriteServiced(tag);
    }
    ++stats_.writes;
    stats_.bytes_written += s.length;
    ++stats_.coalesced_runs;
    charged = true;
    if (mode_ == DataMode::kRetain) StoreBytes(s.offset, s.src, s.length);
  }
  if (charged) ++stats_.vectored_requests;
  return Status::OK();
}

Status BlockDevice::Submit(const IoRequest& req, IoCompletion done) {
  LOR_RETURN_IF_ERROR(CheckRange(req.offset, req.length));
  if (req.length == 0) {
    if (done) done(clock().now(), Status::OK());
    return Status::OK();
  }
  if (!req.write && req.dst != nullptr) {
    Status media = CheckMediaRead(req.offset, req.length);
    if (!media.ok()) {
      // The completion carries the typed error too, so callers driving
      // everything off callbacks never see a silent drop.
      if (done) done(clock().now(), media);
      return media;
    }
  }
  const bool async = AsyncActive();
  if (req.write) NoteMediaWrite(req.offset, req.length);
  const uint64_t tag =
      req.write ? NoteWriteSubmission(req.offset, req.length) : 0;
  if (async) {
    scheduler_->EnqueueRequest(req.write, req.offset, req.length,
                               std::move(done), tag);
  } else {
    ChargePositioning(req.offset, req.length);
    NoteWriteServiced(tag);
  }
  if (req.write) {
    ++stats_.writes;
    stats_.bytes_written += req.length;
    if (mode_ == DataMode::kRetain) {
      StoreBytes(req.offset, req.src, req.length);
    }
  } else {
    ++stats_.reads;
    stats_.bytes_read += req.length;
    if (req.dst != nullptr) LoadBytesInto(req.offset, req.dst, req.length);
  }
  if (!async && done) done(clock().now(), Status::OK());
  return Status::OK();
}

Status BlockDevice::SubmitV(std::span<const IoRequest> reqs,
                            IoCompletion done) {
  for (const IoRequest& r : reqs) {
    LOR_RETURN_IF_ERROR(CheckRange(r.offset, r.length));
  }
  // Whole-batch media admission (the ReadV rule): fail atomically with
  // nothing charged, reporting through the completion as well.
  for (const IoRequest& r : reqs) {
    if (r.write || r.dst == nullptr || r.length == 0) continue;
    Status media = CheckMediaRead(r.offset, r.length);
    if (!media.ok()) {
      if (done) done(clock().now(), media);
      return media;
    }
  }
  const bool async = AsyncActive();
  // Under the scheduler, the batch callback rides on the last nonzero
  // run — chains service in order, so its completion is the batch's.
  size_t last_nonzero = reqs.size();
  if (async && done) {
    for (size_t i = reqs.size(); i-- > 0;) {
      if (reqs[i].length != 0) {
        last_nonzero = i;
        break;
      }
    }
  }
  bool charged = false;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const IoRequest& r = reqs[i];
    if (r.length == 0) continue;
    if (r.write) NoteMediaWrite(r.offset, r.length);
    const uint64_t tag =
        r.write ? NoteWriteSubmission(r.offset, r.length) : 0;
    if (async) {
      scheduler_->EnqueueRequest(
          r.write, r.offset, r.length,
          i == last_nonzero ? std::move(done) : IoCompletion(), tag);
    } else {
      ChargePositioning(r.offset, r.length);
      NoteWriteServiced(tag);
    }
    if (r.write) {
      ++stats_.writes;
      stats_.bytes_written += r.length;
      if (mode_ == DataMode::kRetain) StoreBytes(r.offset, r.src, r.length);
    } else {
      ++stats_.reads;
      stats_.bytes_read += r.length;
      if (r.dst != nullptr) LoadBytesInto(r.offset, r.dst, r.length);
    }
    ++stats_.coalesced_runs;
    charged = true;
  }
  if (charged) ++stats_.vectored_requests;
  if (done && (!async || last_nonzero == reqs.size())) {
    done(clock().now(), Status::OK());
  }
  return Status::OK();
}

void BlockDevice::Flush() {
  if (AsyncActive()) {
    scheduler_->EnqueueFlush();
    return;
  }
  clock().Advance(ServiceFlush());
}

void BlockDevice::ChargeCpu(double seconds) {
  if (AsyncActive()) {
    scheduler_->EnqueueCpu(seconds);
    return;
  }
  clock().Advance(seconds);
}

void BlockDevice::BeginStreamWindow() {
  if (AsyncActive()) {
    scheduler_->EnqueueWindowBegin();
    return;
  }
  window_t0_ = clock().now();
}

void BlockDevice::EndStreamWindow(uint64_t len,
                                  double bandwidth_cap_bytes_per_s) {
  if (AsyncActive()) {
    scheduler_->EnqueueWindowEnd(len, bandwidth_cap_bytes_per_s);
    return;
  }
  ChargeCpu(OpCostModel::StreamPenalty(len, bandwidth_cap_bytes_per_s,
                                       clock().now() - window_t0_));
}

Status BlockDevice::WriteStreamRun(uint64_t offset, uint64_t len,
                                   uint64_t count,
                                   std::span<const uint8_t> data,
                                   double bandwidth_cap_bytes_per_s) {
  if (len == 0 || count == 0) return Status::OK();
  if (len > capacity() / count) {
    return Status::InvalidArgument("request beyond device capacity");
  }
  LOR_RETURN_IF_ERROR(CheckRange(offset, len * count));
  if (!data.empty() && data.size() != len * count) {
    return Status::InvalidArgument("data size does not match request length");
  }
  // Request by request, the Begin/Write/EndStreamWindow sequence; only
  // the stream penalty's stack term and the transfer time are shared.
  const uint8_t* src = data.empty() ? nullptr : data.data();
  const bool async = AsyncActive();
  SimClock& clk = clock();
  const double stack_s =
      static_cast<double>(len) / bandwidth_cap_bytes_per_s;
  TransferMemo memo;
  for (uint64_t i = 0; i < count; ++i, offset += len) {
    if (async) {
      scheduler_->EnqueueWindowBegin();
    } else {
      window_t0_ = clk.now();
    }
    NoteMediaWrite(offset, len);
    const uint64_t tag = NoteWriteSubmission(offset, len);
    if (async) {
      scheduler_->EnqueueRequest(/*write=*/true, offset, len, nullptr, tag);
    } else {
      clk.Advance(ServiceRequest(/*write=*/true, offset, len, &memo));
      NoteWriteServiced(tag);
    }
    ++stats_.writes;
    stats_.bytes_written += len;
    if (mode_ == DataMode::kRetain) {
      StoreBytes(offset, src == nullptr ? nullptr : src + i * len, len);
    }
    if (async) {
      scheduler_->EnqueueWindowEnd(len, bandwidth_cap_bytes_per_s);
    } else {
      clk.Advance(OpCostModel::StackPenalty(stack_s, clk.now() - window_t0_));
    }
  }
  return Status::OK();
}

}  // namespace sim
}  // namespace lor
