#include "core/volume_repository.h"

#include <cassert>

#include "sim/fault_injector.h"
#include "sim/media_fault.h"
#include "util/fnv.h"

namespace lor {
namespace core {

VolumeRepository::VolumeRepository(const VolumeConfig& config)
    : spindle_(config.spindle), spindle_owner_(config.spindle_owner) {
  if (spindle_ != nullptr) {
    // Shared spindle: the data volume is this owner's region of the
    // plane's hub disk. The store's format still charges synchronously
    // on the hub clock — repositories construct serially, before any
    // plane traffic — and the scheduler is ported only afterwards.
    device_ = spindle_->CreateOwnerDevice(spindle_owner_);
    assert(device_->capacity() == config.volume_bytes &&
           "plane region must match volume_bytes");
  } else {
    device_ = std::make_unique<sim::BlockDevice>(
        config.disk.WithCapacity(config.volume_bytes), config.data_mode);
  }
  pool_ = std::make_unique<sim::BufferPool>(device_.get(), config.cache);
  device_->AttachBufferPool(pool_.get());
}

void VolumeRepository::AttachScheduler() {
  scheduler_ = std::make_unique<sim::IoScheduler>(device_.get(), &latency_);
  device_->AttachScheduler(scheduler_.get());
  if (spindle_ != nullptr) {
    scheduler_->AttachSpindle(spindle_.get(), spindle_owner_);
  }
}

Status VolumeRepository::FlushCache() {
  // In shared-spindle mode the flush must ride an op scope so its
  // charges queue on the plane instead of racing the hub clock.
  sim::OpScope scope(scheduler_->port_mode() ? scheduler_.get() : nullptr,
                     sim::OpClass::kControl);
  return pool_->FlushAll();
}

Status VolumeRepository::SetQueueDepth(uint32_t depth,
                                       sim::SchedPolicy policy) {
  if (depth == 0) {
    return Status::InvalidArgument("queue depth must be at least 1");
  }
  if (depth == 1) return scheduler_->Disengage();
  return scheduler_->Engage(depth, policy);
}

Status VolumeRepository::DrainIo() {
  // Dirty cached frames are in-flight work too: push them onto the
  // queue, then drain it. CrashTortureRunner drains before arming the
  // injector, so the loss window never silently includes lazy
  // write-back state. Drain itself fences outside the flush's scope.
  LOR_RETURN_IF_ERROR(FlushCache());
  scheduler_->Drain();
  return Status::OK();
}

Status VolumeRepository::SettleIo() {
  // Dedicated spindle: a phase that engaged the queue already drained
  // through SetQueueDepth(1), and a synchronous phase has nothing
  // outstanding — nothing to settle, and deliberately no cache flush
  // (phase boundaries never flushed historically).
  if (!scheduler_->port_mode()) return Status::OK();
  scheduler_->SettlePhase();
  return Status::OK();
}

Result<MountReport> VolumeRepository::Mount() {
  if (scheduler_->port_mode()) {
    return Status::NotSupported(
        "crash simulation is per-spindle: Mount is unavailable in "
        "shared-spindle mode");
  }
  const double t0 = device_->clock().now();
  const sim::FaultInjector* injector = device_->fault_injector();
  const bool power_cycled = injector != nullptr && injector->tripped();
  if (power_cycled) {
    // The submission queue died with the power: its uncharged work
    // never happened, and the head position is unknown after restart.
    scheduler_->Abandon();
    device_->NotePowerCycle();
  } else {
    // Clean remount: dirty frames reach the platter before the cache
    // forgets them. After a crash they are (correctly) just lost.
    LOR_RETURN_IF_ERROR(pool_->FlushAll());
  }
  // DRAM died with the power too: mount starts cold.
  pool_->Reset();
  LOR_ASSIGN_OR_RETURN(MountReport report, RecoverStore(power_cycled));
  report.recovery_seconds = device_->clock().now() - t0;
  return report;
}

void VolumeRepository::VerifyPayloads(
    const std::vector<std::pair<std::string, uint64_t>>& hashed,
    const PayloadRead& read, FsckReport* report) {
  std::vector<uint8_t> payload;
  for (const auto& [key, expected] : hashed) {
    payload.clear();
    const Status s = read(key, &payload);
    if (!s.ok()) {
      report->issues.push_back(
          {FsckIssue::Kind::kLostObject, key + ": " + s.ToString()});
      continue;
    }
    ++report->payloads_hashed;
    if (Fnv(payload) != expected) {
      report->issues.push_back(
          {FsckIssue::Kind::kTornPayload, "payload hash mismatch: " + key});
    }
  }
}

uint64_t VolumeRepository::media_read_errors() const {
  const sim::MediaFaultModel* media = device_->media_faults();
  return media != nullptr ? media->stats().read_errors : 0;
}

}  // namespace core
}  // namespace lor
