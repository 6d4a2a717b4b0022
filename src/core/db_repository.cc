#include "core/db_repository.h"

namespace lor {
namespace core {

DbRepository::DbRepository(DbRepositoryConfig config)
    : VolumeRepository(config), config_(std::move(config)) {
  if (config_.log_volume_bytes > 0) {
    log_device_ = std::make_unique<sim::BlockDevice>(
        config_.disk.WithCapacity(config_.log_volume_bytes),
        sim::DataMode::kMetadataOnly);
  }
  store_ = std::make_unique<db::BlobStore>(device_.get(), log_device_.get(),
                                           config_.store);
  AttachScheduler();
}

// -- Handle surface ----------------------------------------------------

Result<ObjectHandle> DbRepository::Open(const std::string& key) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  LOR_ASSIGN_OR_RETURN(db::BlobHandle bh, store_->OpenRead(key));
  return MakeHandle(key, /*writable=*/false, bh.slot, bh.gen);
}

Result<ObjectHandle> DbRepository::OpenForWrite(const std::string& key) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  LOR_ASSIGN_OR_RETURN(db::BlobHandle bh, store_->OpenWrite(key));
  return MakeHandle(key, /*writable=*/true, bh.slot, bh.gen);
}

Status DbRepository::Release(ObjectHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  LOR_RETURN_IF_ERROR(ValidateHandle(*handle));
  LOR_RETURN_IF_ERROR(store_->Close({handle->slot_, handle->gen_}));
  handle->owner_ = nullptr;
  handle->gen_ = 0;
  return Status::OK();
}

Status DbRepository::Get(const ObjectHandle& handle,
                         std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return store_->Get(db::BlobHandle{handle.slot_, handle.gen_}, out);
}

Status DbRepository::SafeWrite(const ObjectHandle& handle, uint64_t size,
                               std::span<const uint8_t> data) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kSafeWrite);
  LOR_RETURN_IF_ERROR(ValidateHandle(handle, /*need_write=*/true));
  return store_->SafeWrite(db::BlobHandle{handle.slot_, handle.gen_}, size,
                           data);
}

Status DbRepository::Delete(ObjectHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kDelete);
  LOR_RETURN_IF_ERROR(ValidateHandle(*handle, /*need_write=*/true));
  LOR_RETURN_IF_ERROR(
      store_->Delete(db::BlobHandle{handle->slot_, handle->gen_}));
  handle->owner_ = nullptr;
  handle->gen_ = 0;
  return Status::OK();
}

Result<alloc::ExtentList> DbRepository::ScaleLayout(
    Result<db::BlobLayout> layout) const {
  if (!layout.ok()) return layout.status();
  alloc::ExtentList bytes;
  bytes.reserve(layout->data_runs.size());
  alloc::AppendScaledBytes(layout->data_runs,
                           store_->page_file().page_bytes(), &bytes);
  return bytes;
}

Result<alloc::ExtentList> DbRepository::GetLayout(
    const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return ScaleLayout(
      store_->GetLayout(db::BlobHandle{handle.slot_, handle.gen_}));
}

Result<uint64_t> DbRepository::GetSize(const ObjectHandle& handle) const {
  LOR_RETURN_IF_ERROR(ValidateHandle(handle));
  return store_->GetSize(db::BlobHandle{handle.slot_, handle.gen_});
}

// -- Name surface: thin open–op–release wrappers -----------------------

Status DbRepository::Put(const std::string& key, uint64_t size,
                         std::span<const uint8_t> data) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kPut);
  LOR_ASSIGN_OR_RETURN(db::BlobHandle h, store_->OpenWrite(key));
  auto bound = store_->HandleBound(h);
  if (!bound.ok() || *bound) {
    Status c = store_->Close(h);
    (void)c;
    if (!bound.ok()) return bound.status();
    return Status::AlreadyExists("object exists: " + key);
  }
  Status s = store_->SafeWrite(h, size, data);
  Status c = store_->Close(h);
  return s.ok() ? c : s;
}

Status DbRepository::SafeWrite(const std::string& key, uint64_t size,
                               std::span<const uint8_t> data) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kSafeWrite);
  LOR_ASSIGN_OR_RETURN(db::BlobHandle h, store_->OpenWrite(key));
  Status s = store_->SafeWrite(h, size, data);
  Status c = store_->Close(h);
  return s.ok() ? c : s;
}

Status DbRepository::Get(const std::string& key, std::vector<uint8_t>* out) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kGet);
  // The store's per-key read already pays the query + row lookup every
  // call — no handle-table entry needed for a single-shot read.
  return store_->Get(key, out);
}

Status DbRepository::Delete(const std::string& key) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kDelete);
  return store_->Delete(key);
}

bool DbRepository::Exists(const std::string& key) const {
  return store_->Exists(key);
}

Result<alloc::ExtentList> DbRepository::GetLayout(
    const std::string& key) const {
  return ScaleLayout(store_->GetLayout(key));
}

Result<uint64_t> DbRepository::GetSize(const std::string& key) const {
  return store_->GetSize(key);
}

std::vector<std::string> DbRepository::ListKeys() const {
  return store_->ListKeys();
}

void DbRepository::VisitObjects(
    const std::function<void(const std::string& key,
                             const alloc::ExtentList& layout,
                             uint64_t size_bytes)>& visit) const {
  const uint64_t unit = store_->page_file().page_bytes();
  alloc::ExtentList bytes;  // Scratch reused across objects.
  store_->VisitBlobs([&](const std::string& key, const db::BlobLayout& layout) {
    bytes.clear();
    alloc::AppendScaledBytes(layout.data_runs, unit, &bytes);
    visit(key, bytes, layout.data_bytes);
  });
}

const FragmentationTracker* DbRepository::fragmentation_tracker() const {
  return &store_->fragmentation_tracker();
}

uint64_t DbRepository::object_count() const {
  return store_->stats().object_count;
}

uint64_t DbRepository::live_bytes() const {
  return store_->stats().live_bytes;
}

uint64_t DbRepository::free_bytes() const {
  // Unused space = free extents inside the file plus the unallocated
  // remainder of the volume.
  return store_->FreeBytes() +
         (device_->capacity() - store_->page_file().file_bytes());
}

Status DbRepository::CheckConsistency() const {
  LOR_RETURN_IF_ERROR(store_->CheckConsistency());
  return pool_->CheckConsistency();
}

// -- Crash recovery & verification -------------------------------------

Result<MountReport> DbRepository::RecoverStore(bool power_cycled) {
  if (power_cycled && log_device_ != nullptr) log_device_->NotePowerCycle();
  LOR_ASSIGN_OR_RETURN(db::BlobRecoveryStats rs, store_->Recover());
  MountReport report;
  report.entries_scanned = rs.entries_scanned;
  report.ops_redone = rs.ops_redone;
  report.ops_rolled_back = rs.ops_rolled_back + rs.torn_rolled_back;
  report.lost_objects = rs.lost_objects;
  report.data_loss_bytes = rs.data_loss_bytes;
  return report;
}

Result<FsckReport> DbRepository::Fsck() {
  LOR_ASSIGN_OR_RETURN(FsckReport report, ObjectRepository::Fsck());

  // Exact page accounting: every page the LOB allocation unit has
  // handed out must be referenced by exactly one live layout (data or
  // pointer page). Held rollback pre-images or forgotten frees surface
  // as leaks; a layout referencing unallocated pages is the double-
  // allocation hazard.
  uint64_t referenced = 0;
  std::vector<std::pair<std::string, uint64_t>> hashed;
  const bool retain = device_->data_mode() == sim::DataMode::kRetain;
  store_->VisitBlobs([&](const std::string& key,
                         const db::BlobLayout& layout) {
    referenced += layout.data_page_count() + layout.pointer_pages.size();
    if (retain && layout.hash_valid && layout.data_bytes > 0) {
      hashed.emplace_back(key, layout.payload_hash);
    }
  });
  const uint64_t allocated = store_->lob_unit().allocated_pages();
  if (allocated > referenced) {
    report.issues.push_back(
        {FsckIssue::Kind::kLeakedExtent,
         std::to_string(allocated - referenced) +
             " allocated LOB pages referenced by no live object"});
  } else if (referenced > allocated) {
    report.issues.push_back(
        {FsckIssue::Kind::kDoubleAllocated,
         std::to_string(referenced - allocated) +
             " live pages beyond the allocation unit's count"});
  }

  // Payload verification: re-read every object written with real bytes
  // and compare against the hash recorded at write time.
  VerifyPayloads(
      hashed,
      [&](const std::string& key, std::vector<uint8_t>* out) {
        return store_->Get(key, out);
      },
      &report);
  report.quarantined_units = store_->quarantined_page_count();
  return report;
}

void DbRepository::RepairRetriedRead(const std::string& key,
                                     std::span<const uint8_t> payload,
                                     ScrubReport* report) {
  sim::OpScope scope(scheduler_.get(), sim::OpClass::kControl);
  const uint64_t quarantined_before = store_->quarantined_page_count();
  if (store_->MarkPendingBad(key).ok() &&
      store_->Replace(key, payload.size(), payload).ok()) {
    ++report->repaired;
  }
  report->quarantined_units +=
      store_->quarantined_page_count() - quarantined_before;
}

}  // namespace core
}  // namespace lor
