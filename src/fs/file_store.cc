#include "fs/file_store.h"

#include <algorithm>

#include "sim/fault_injector.h"

namespace lor {
namespace fs {

namespace {
constexpr uint64_t kMftRecordBytes = 1024;
constexpr uint64_t kJournalRecordBytes = 4096;
}  // namespace

FileStore::FileStore(sim::BlockDevice* device, FileStoreOptions options,
                     std::unique_ptr<alloc::ExtentAllocator> allocator)
    : device_(device), options_(options), allocator_(std::move(allocator)) {
  total_clusters_ = device_->capacity() / options_.cluster_bytes;
  mft_clusters_ = std::max<uint64_t>(
      1, static_cast<uint64_t>(static_cast<double>(total_clusters_) *
                               options_.mft_zone_fraction));
  if (allocator_ == nullptr) {
    allocator_ = std::make_unique<alloc::RunCacheAllocator>(
        total_clusters_, options_.alloc, mft_clusters_);
  }
}

FileInfo* FileStore::Find(const std::string& name) {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

const FileInfo* FileStore::Find(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? nullptr : &it->second;
}

// -- Handle table ------------------------------------------------------

void FileStore::InvalidateHandles(const std::string& name) {
  handles_.InvalidateAll(name);
}

void FileStore::BindHandles(const std::string& name, FileInfo* file) {
  handles_.ForEachOpen(name, [file](OpenFilePayload& payload) {
    if (payload.file == nullptr) payload.file = file;
  });
}

uint64_t FileStore::TakeRecordId() {
  if (options_.recycle_mft_records && !free_record_ids_.empty()) {
    const uint64_t id = free_record_ids_.back();
    free_record_ids_.pop_back();
    return id;
  }
  return next_file_id_++;
}

void FileStore::RecycleRecordId(uint64_t id) {
  if (options_.recycle_mft_records) free_record_ids_.push_back(id);
}

Result<FileHandle> FileStore::OpenRead(const std::string& name) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  // The open-by-name the name-based Read pays per call: open CPU plus
  // the MFT record read. Reads through the handle skip both.
  device_->ChargeCpu(options_.costs.fs_open_s);
  ChargeMftAccess(file->id, /*write=*/false);
  // Open handle = pin window: whatever the opener found cached stays
  // resident until Close (advisory — invalidation still wins).
  PinFileFrames(*file);
  return handles_.Register(name, {file, /*read_session=*/true});
}

Result<FileHandle> FileStore::OpenWrite(const std::string& name) {
  return handles_.Register(name, {Find(name), /*read_session=*/false});
}

Result<FileHandle> FileStore::CreateOpen(const std::string& name) {
  LOR_ASSIGN_OR_RETURN(FileInfo * file, CreateImpl(name));
  return handles_.Register(name, {file, /*read_session=*/false});
}

Status FileStore::Close(FileHandle handle) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.read_session) {
    device_->ChargeCpu(options_.costs.fs_close_s);
    // End of the read session's pin window (frames dropped or replaced
    // meanwhile are skipped; pins never go below zero).
    if (slot->entry.file != nullptr) UnpinFileFrames(*slot->entry.file);
  }
  handles_.Release(handle.slot);
  return Status::OK();
}

Result<bool> FileStore::HandleBound(FileHandle handle) const {
  const OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  return slot->entry.file != nullptr;
}

Status FileStore::ReadAt(FileHandle handle, uint64_t offset, uint64_t length,
                         std::vector<uint8_t>* out) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  return ReadResolved(slot->entry.file, offset, length, out);
}

Status FileStore::ReadAll(FileHandle handle, std::vector<uint8_t>* out) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  return ReadResolved(slot->entry.file, 0, slot->entry.file->size_bytes, out);
}

Status FileStore::AppendStream(FileHandle handle, uint64_t length,
                               uint64_t request_bytes,
                               std::span<const uint8_t> data) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  return AppendStreamResolved(slot->entry.file, length, request_bytes, data);
}

Status FileStore::Preallocate(FileHandle handle, uint64_t final_size) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  return PreallocateResolved(slot->entry.file, final_size);
}

Status FileStore::Fsync(FileHandle handle) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  // Fsync's contract: the file's data is on the platter before the
  // journal flush commits — write-back frames go down first.
  LOR_RETURN_IF_ERROR(FlushFileFrames(*slot->entry.file));
  ChargeJournal(/*flush=*/true);
  return Status::OK();
}

Status FileStore::Replace(FileHandle source, FileHandle target) {
  OpenFileSlot* src_slot = handles_.Resolve(source);
  if (src_slot == nullptr) {
    return Status::InvalidArgument("stale file handle (source)");
  }
  OpenFileSlot* dst_slot = handles_.Resolve(target);
  if (dst_slot == nullptr) {
    return Status::InvalidArgument("stale file handle (target)");
  }
  if (src_slot == dst_slot) {
    return Status::InvalidArgument("replace onto the same handle");
  }
  if (src_slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + src_slot->name);
  }
  auto src = files_.find(src_slot->name);
  // ReplaceImpl consumes every handle on the source name (including
  // `source`) and binds `target` if it was unbound.
  return ReplaceImpl(src, dst_slot->name);
}

Status FileStore::Delete(FileHandle handle) {
  OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  const std::string name = slot->name;  // Delete invalidates the slot.
  return Delete(name);
}

Result<alloc::ExtentList> FileStore::GetExtents(FileHandle handle) const {
  const OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  return slot->entry.file->extents;
}

Result<uint64_t> FileStore::GetSize(FileHandle handle) const {
  const OpenFileSlot* slot = handles_.Resolve(handle);
  if (slot == nullptr) return Status::InvalidArgument("stale file handle");
  if (slot->entry.file == nullptr) {
    return Status::NotFound("no such file: " + slot->name);
  }
  return slot->entry.file->size_bytes;
}

void FileStore::SyncTracker(FileInfo* file) {
  const uint64_t fragments = alloc::CountFragments(file->extents);
  tracker_.Update(file->tracked_fragments, file->tracked_bytes, fragments,
                  file->size_bytes);
  file->tracked_fragments = fragments;
  file->tracked_bytes = file->size_bytes;
}

void FileStore::ChargeMftAccess(uint64_t file_id, bool write) {
  if (!options_.charge_metadata_io) return;
  // MFT records live in the first half of the reserved zone.
  const uint64_t zone_bytes = mft_clusters_ * options_.cluster_bytes / 2;
  const uint64_t slot =
      (file_id * kMftRecordBytes) % std::max<uint64_t>(zone_bytes, 1);
  Status s = write ? device_->Write(slot, kMftRecordBytes)
                   : device_->Read(slot, kMftRecordBytes);
  (void)s;
}

void FileStore::ChargeJournal(bool flush) {
  if (!options_.charge_metadata_io) return;
  if (journal_batch_open_) {
    ++batched_journal_records_;
    batched_journal_flush_ |= flush;
    return;
  }
  // The journal occupies the second half of the reserved zone and is
  // written sequentially with wraparound.
  const uint64_t zone_bytes = mft_clusters_ * options_.cluster_bytes;
  const uint64_t journal_base = zone_bytes / 2;
  const uint64_t journal_size = std::max<uint64_t>(
      2 * kJournalRecordBytes, zone_bytes - journal_base);
  Status s = device_->Write(journal_base + journal_cursor_,
                            kJournalRecordBytes);
  (void)s;
  journal_cursor_ = (journal_cursor_ + kJournalRecordBytes) %
                    (journal_size - kJournalRecordBytes);
  StampRecoveryLog();
  if (flush) device_->Flush();
}

bool FileStore::CrashArmed() const {
  const sim::FaultInjector* injector = device_->fault_injector();
  return injector != nullptr && injector->armed();
}

void FileStore::StampRecoveryLog() {
  const sim::FaultInjector* injector = device_->fault_injector();
  if (injector == nullptr || !injector->armed()) return;
  const uint64_t seq = injector->last_seq();
  for (size_t i = recovery_log_.size(); i-- > 0;) {
    if (recovery_log_[i].commit_seq != 0) break;
    recovery_log_[i].commit_seq = seq;
  }
}

void FileStore::BeginJournalBatch() {
  if (!options_.batch_journal_charges) return;
  journal_batch_open_ = true;
}

void FileStore::EndJournalBatch() {
  if (!journal_batch_open_) return;
  journal_batch_open_ = false;
  const uint32_t records = batched_journal_records_;
  const bool flush = batched_journal_flush_;
  batched_journal_records_ = 0;
  batched_journal_flush_ = false;
  // One lazy-writer record covers every charge batched since Begin.
  if (records > 0) ChargeJournal(flush);
}

void FileStore::NoteNameInsert() {
  if (options_.names_per_index_buffer == 0) return;
  if (++name_inserts_ % options_.names_per_index_buffer != 0) return;
  // An index buffer splits: allocate one cluster for the new buffer.
  alloc::ExtentList buffer;
  if (allocator_->Allocate(1, alloc::kNoHint, &buffer).ok()) {
    index_buffers_.push_back(buffer.front());
    if (options_.charge_metadata_io) {
      Status s = device_->Write(buffer.front().start * options_.cluster_bytes,
                                options_.cluster_bytes);
      (void)s;
    }
  }
}

void FileStore::NoteNameRemove() {
  if (options_.names_per_index_buffer == 0) return;
  if (++name_removes_ % options_.names_per_index_buffer != 0) return;
  if (index_buffers_.empty()) return;
  // Buffers merge as the directory shrinks: free the oldest.
  Status s = FreeExtent(index_buffers_.front());
  (void)s;
  index_buffers_.erase(index_buffers_.begin());
}

Status FileStore::Create(const std::string& name) {
  return CreateImpl(name).status();
}

Result<FileInfo*> FileStore::CreateImpl(const std::string& name) {
  if (Find(name) != nullptr) {
    return Status::AlreadyExists("file exists: " + name);
  }
  FileInfo info;
  info.id = TakeRecordId();
  device_->ChargeCpu(options_.costs.fs_open_s);
  ChargeMftAccess(info.id, /*write=*/true);
  if (CrashArmed()) {
    RecoveryLogEntry entry;
    entry.kind = RecoveryLogEntry::Kind::kCreate;
    entry.name = name;
    entry.file_id = info.id;
    recovery_log_.push_back(std::move(entry));
  }
  ChargeJournal(/*flush=*/false);
  auto [it, inserted] = files_.emplace(name, std::move(info));
  (void)inserted;
  tracker_.Add(0, 0);  // Empty file: no extents, no bytes.
  ++stats_.creates;
  ++stats_.file_count;
  NoteNameInsert();
  allocator_->Tick();
  BindHandles(name, &it->second);
  return &it->second;
}

sim::BufferPool* FileStore::ActivePool() const {
  sim::BufferPool* pool = device_->buffer_pool();
  return pool != nullptr && pool->enabled() ? pool : nullptr;
}

void FileStore::InvalidateExtents(const alloc::ExtentList& extents) {
  sim::BufferPool* pool = ActivePool();
  if (pool == nullptr) return;
  for (const alloc::Extent& e : extents) {
    pool->Invalidate(e.start * options_.cluster_bytes,
                     e.length * options_.cluster_bytes);
  }
}

Status FileStore::FlushFileFrames(const FileInfo& file) {
  sim::BufferPool* pool = ActivePool();
  if (pool == nullptr) return Status::OK();
  for (const alloc::Extent& e : file.extents) {
    LOR_RETURN_IF_ERROR(pool->FlushRange(e.start * options_.cluster_bytes,
                                         e.length * options_.cluster_bytes));
  }
  return Status::OK();
}

void FileStore::PinFileFrames(const FileInfo& file) {
  sim::BufferPool* pool = ActivePool();
  if (pool == nullptr) return;
  for (const alloc::Extent& e : file.extents) {
    pool->PinRange(e.start * options_.cluster_bytes,
                   e.length * options_.cluster_bytes);
  }
}

void FileStore::UnpinFileFrames(const FileInfo& file) {
  sim::BufferPool* pool = ActivePool();
  if (pool == nullptr) return;
  for (const alloc::Extent& e : file.extents) {
    pool->UnpinRange(e.start * options_.cluster_bytes,
                     e.length * options_.cluster_bytes);
  }
}

Status FileStore::FreeExtent(const alloc::Extent& e) {
  if (pending_bad_clusters_.empty()) return allocator_->Free(e);
  // Split the extent around pending-bad clusters: healthy runs return
  // to the allocator, flagged clusters retire to the quarantine list.
  uint64_t run_start = e.start;
  uint64_t run_len = 0;
  for (uint64_t c = e.start; c < e.end(); ++c) {
    auto it = pending_bad_clusters_.find(c);
    if (it != pending_bad_clusters_.end()) {
      if (run_len > 0) {
        LOR_RETURN_IF_ERROR(allocator_->Free({run_start, run_len}));
        run_len = 0;
      }
      pending_bad_clusters_.erase(it);
      quarantined_clusters_.insert(c);
    } else {
      if (run_len == 0) run_start = c;
      ++run_len;
    }
  }
  if (run_len > 0) LOR_RETURN_IF_ERROR(allocator_->Free({run_start, run_len}));
  return Status::OK();
}

Status FileStore::FreeFileClusters(const FileInfo& file) {
  // The clusters are leaving this owner either way (even when a crash
  // window holds them for rollback, rollback reinstates layouts from
  // the device, not from DRAM): cached frames — dirty ones included —
  // die with it, and can never flush over a future owner.
  InvalidateExtents(file.extents);
  if (CrashArmed()) {
    // Rollback window: the clusters stay unallocatable until the window
    // closes (EndCrashWindow frees them; Recover rebuilds wholesale),
    // so an uncommitted delete or replace can always reinstate the old
    // layout without colliding with reuse.
    crash_held_.insert(crash_held_.end(), file.extents.begin(),
                       file.extents.end());
    return Status::OK();
  }
  for (const alloc::Extent& e : file.extents) {
    LOR_RETURN_IF_ERROR(FreeExtent(e));
  }
  return Status::OK();
}

Status FileStore::Delete(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  if (CrashArmed()) {
    RecoveryLogEntry entry;
    entry.kind = RecoveryLogEntry::Kind::kDelete;
    entry.name = name;
    entry.file_id = it->second.id;
    entry.prior = it->second;
    entry.had_prior = true;
    recovery_log_.push_back(std::move(entry));
  }
  LOR_RETURN_IF_ERROR(FreeFileClusters(it->second));
  stats_.live_bytes -= it->second.size_bytes;
  tracker_.Remove(it->second.tracked_fragments, it->second.tracked_bytes);
  ChargeMftAccess(it->second.id, /*write=*/true);
  ChargeJournal(/*flush=*/false);
  device_->ChargeCpu(options_.costs.fs_close_s);
  RecycleRecordId(it->second.id);
  InvalidateHandles(name);
  files_.erase(it);
  ++stats_.deletes;
  --stats_.file_count;
  NoteNameRemove();
  allocator_->Tick();
  return Status::OK();
}

Status FileStore::Replace(const std::string& source,
                          const std::string& target) {
  auto src = files_.find(source);
  if (src == files_.end()) {
    return Status::NotFound("no such file: " + source);
  }
  return ReplaceImpl(src, target);
}

Status FileStore::ReplaceImpl(
    std::unordered_map<std::string, FileInfo>::iterator src,
    const std::string& target) {
  if (src->first == target) {
    // Self-replacement would free the live file and then read the
    // erased node; reject it (also reachable through two handles
    // opened on one name).
    return Status::InvalidArgument("replace onto the same file: " + target);
  }
  device_->ChargeCpu(options_.costs.fs_rename_s);
  auto dst = files_.find(target);
  if (CrashArmed()) {
    RecoveryLogEntry entry;
    entry.kind = RecoveryLogEntry::Kind::kRename;
    entry.name = target;
    entry.source = src->first;
    entry.file_id = src->second.id;
    if (dst != files_.end()) {
      entry.prior = dst->second;
      entry.had_prior = true;
    }
    recovery_log_.push_back(std::move(entry));
  }
  if (dst != files_.end()) {
    LOR_RETURN_IF_ERROR(FreeFileClusters(dst->second));
    stats_.live_bytes -= dst->second.size_bytes;
    tracker_.Remove(dst->second.tracked_fragments,
                    dst->second.tracked_bytes);
    ChargeMftAccess(dst->second.id, /*write=*/true);
    RecycleRecordId(dst->second.id);
    // Assign into the target's node instead of erase + re-emplace: the
    // target FileInfo keeps its address, so handles opened on `target`
    // stay valid across the safe write.
    dst->second = std::move(src->second);
    InvalidateHandles(src->first);
    files_.erase(src);
    --stats_.file_count;
    ChargeMftAccess(dst->second.id, /*write=*/true);
    ChargeJournal(/*flush=*/true);
  } else {
    FileInfo moved = std::move(src->second);
    InvalidateHandles(src->first);
    files_.erase(src);
    ChargeMftAccess(moved.id, /*write=*/true);
    ChargeJournal(/*flush=*/true);
    dst = files_.emplace(target, std::move(moved)).first;
  }
  // First write of a key: bind any write handles opened before the file
  // existed (no-op when the target node already carried them).
  BindHandles(target, &dst->second);
  ++stats_.renames;
  // The rename removes one name from the directory index (source) —
  // the target entry is rewritten in place.
  NoteNameRemove();
  allocator_->Tick();
  return Status::OK();
}

bool FileStore::Exists(const std::string& name) const {
  return Find(name) != nullptr;
}

void FileStore::MapRangeInto(
    const FileInfo& file, uint64_t offset, uint64_t length,
    std::vector<std::pair<uint64_t, uint64_t>>* runs) const {
  runs->clear();
  // Find the extent containing `offset` by walking back from the tail:
  // appends map the file's end, so this is O(extents in the range).
  size_t first = file.extents.size();
  uint64_t logical =
      file.allocated_clusters * options_.cluster_bytes;  // End of layout.
  while (first > 0) {
    const uint64_t ext_bytes =
        file.extents[first - 1].length * options_.cluster_bytes;
    if (logical - ext_bytes <= offset) break;
    logical -= ext_bytes;
    --first;
  }
  if (first > 0) {
    logical -= file.extents[first - 1].length * options_.cluster_bytes;
    --first;
  }
  uint64_t cur = offset;
  uint64_t remaining = length;
  for (size_t i = first; i < file.extents.size(); ++i) {
    if (remaining == 0) break;
    const alloc::Extent& e = file.extents[i];
    const uint64_t ext_bytes = e.length * options_.cluster_bytes;
    const uint64_t ext_end = logical + ext_bytes;
    if (cur < ext_end) {
      const uint64_t in_ext = cur - logical;
      const uint64_t phys = e.start * options_.cluster_bytes + in_ext;
      const uint64_t chunk = std::min(remaining, ext_bytes - in_ext);
      if (!runs->empty() && runs->back().first + runs->back().second == phys) {
        runs->back().second += chunk;
      } else {
        runs->emplace_back(phys, chunk);
      }
      cur += chunk;
      remaining -= chunk;
    }
    logical = ext_end;
  }
}

Status FileStore::Append(const std::string& name, uint64_t length,
                         std::span<const uint8_t> data) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return AppendToFile(file, length, data);
}

Status FileStore::AppendStream(const std::string& name, uint64_t length,
                               uint64_t request_bytes,
                               std::span<const uint8_t> data) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return AppendStreamResolved(file, length, request_bytes, data);
}

Status FileStore::AppendStreamResolved(FileInfo* file, uint64_t length,
                                       uint64_t request_bytes,
                                       std::span<const uint8_t> data) {
  if (request_bytes == 0) {
    return Status::InvalidArgument("zero request size");
  }
  if (!data.empty() && data.size() != length) {
    return Status::InvalidArgument("data size does not match length");
  }
  // Per-request tracker syncs would re-count the whole extent list per
  // chunk (quadratic in extents for a fragmented stream); sync once at
  // the end instead — nothing reads the tracker mid-stream.
  Status status = Status::OK();
  uint64_t written = 0;
  while (written < length) {
    const uint64_t chunk = std::min(request_bytes, length - written);
    std::span<const uint8_t> rest =
        data.empty() ? std::span<const uint8_t>() : data.subspan(written);
    if (chunk == request_bytes) {
      uint64_t appended = 0;
      status = AppendRun(file, request_bytes,
                         (length - written) / request_bytes, rest, &appended);
      if (!status.ok()) break;
      if (appended > 0) {
        written += appended;
        continue;
      }
    }
    status = AppendToFile(file, chunk, rest.first(data.empty() ? 0 : chunk),
                          /*sync_tracker=*/false);
    if (!status.ok()) break;
    written += chunk;
  }
  SyncTracker(file);
  return status;
}

Status FileStore::AppendRun(FileInfo* file, uint64_t request_bytes,
                            uint64_t max_requests,
                            std::span<const uint8_t> data,
                            uint64_t* appended) {
  *appended = 0;
  const uint64_t cluster = options_.cluster_bytes;
  // Every request of the run must grow the layout by the same whole
  // number of clusters at the tail, which holds when the file ends
  // exactly on its allocation (no slack, no preallocation).
  if (file->extents.empty() || request_bytes % cluster != 0 ||
      file->size_bytes != file->allocated_clusters * cluster) {
    return Status::OK();
  }
  const uint64_t tail_end = file->extents.back().end();
  const uint64_t requests = allocator_->AllocateRun(
      tail_end, request_bytes / cluster, max_requests, &file->extents);
  if (requests == 0) return Status::OK();
  const uint64_t bytes = requests * request_bytes;
  file->allocated_clusters += bytes / cluster;
  std::span<const uint8_t> run_data =
      data.empty() ? data : data.first(bytes);
  sim::BufferPool* pool = ActivePool();
  LOR_RETURN_IF_ERROR(
      pool != nullptr
          ? pool->WriteStreamRun(tail_end * cluster, request_bytes, requests,
                                 run_data, options_.costs.fs_stream_bandwidth)
          : device_->WriteStreamRun(tail_end * cluster, request_bytes,
                                    requests, run_data,
                                    options_.costs.fs_stream_bandwidth));
  NoteAppended(file, bytes, requests, run_data);
  *appended = bytes;
  return Status::OK();
}

Status FileStore::AppendToFile(FileInfo* file, uint64_t length,
                               std::span<const uint8_t> data,
                               bool sync_tracker) {
  if (!data.empty() && data.size() != length) {
    return Status::InvalidArgument("data size does not match length");
  }
  if (length == 0) return Status::OK();

  const uint64_t needed = ClustersFor(file->size_bytes + length);
  if (needed > file->allocated_clusters) {
    const uint64_t grow = needed - file->allocated_clusters;
    const uint64_t hint =
        file->extents.empty() ? alloc::kNoHint : file->extents.back().end();
    LOR_RETURN_IF_ERROR(allocator_->Allocate(grow, hint, &file->extents));
    file->allocated_clusters = needed;
  }

  device_->BeginStreamWindow();
  sim::BufferPool* pool = ActivePool();
  // Fast path: the appended range lies entirely inside the tail extent
  // (sequential extension), so it maps to one physical run.
  const alloc::Extent& tail = file->extents.back();
  const uint64_t tail_logical =
      (file->allocated_clusters - tail.length) * options_.cluster_bytes;
  if (tail_logical <= file->size_bytes) {
    const uint64_t phys = tail.start * options_.cluster_bytes +
                          (file->size_bytes - tail_logical);
    if (pool != nullptr) {
      cache_slices_.assign(
          1, {phys, length, data.empty() ? nullptr : data.data(), nullptr,
              phys, length});
      LOR_RETURN_IF_ERROR(pool->WriteThrough(cache_slices_));
    } else {
      LOR_RETURN_IF_ERROR(device_->Write(phys, length, data));
    }
  } else {
    // Fragmented append: the whole run list goes down as one vectored
    // submission (charge-identical to the historical write-per-run
    // loop), payload sliced straight out of the caller's buffer.
    MapRangeInto(*file, file->size_bytes, length, &append_runs_);
    if (pool != nullptr) {
      cache_slices_.clear();
      uint64_t consumed = 0;
      for (const auto& [phys, len] : append_runs_) {
        cache_slices_.push_back(
            {phys, len, data.empty() ? nullptr : data.data() + consumed,
             nullptr, phys, len});
        consumed += len;
      }
      LOR_RETURN_IF_ERROR(pool->WriteThrough(cache_slices_));
    } else {
      io_slices_.clear();
      uint64_t consumed = 0;
      for (const auto& [phys, len] : append_runs_) {
        io_slices_.push_back(
            {phys, len, data.empty() ? nullptr : data.data() + consumed,
             nullptr});
        consumed += len;
      }
      LOR_RETURN_IF_ERROR(device_->WriteV(io_slices_));
    }
  }
  device_->EndStreamWindow(length, options_.costs.fs_stream_bandwidth);
  NoteAppended(file, length, /*requests=*/1, data);
  if (sync_tracker) SyncTracker(file);
  return Status::OK();
}

void FileStore::NoteAppended(FileInfo* file, uint64_t length,
                             uint64_t requests,
                             std::span<const uint8_t> data) {
  // Streamed FNV-1a keeps hash(file) == hash(all appended bytes);
  // timing-only appends carry no bytes, so the hash goes unknowable.
  if (data.empty()) {
    file->hash_valid = false;
  } else if (file->hash_valid) {
    file->payload_hash = FnvUpdate(file->payload_hash, data);
    // Per-block media checksums: carry the partial tail state across
    // appends, sealing one sum whenever a block boundary fills.
    uint64_t pos = file->size_bytes % kChecksumBlockBytes;
    uint64_t consumed = 0;
    while (consumed < data.size()) {
      const uint64_t take =
          std::min<uint64_t>(data.size() - consumed,
                             kChecksumBlockBytes - pos);
      file->tail_hash =
          FnvUpdate(file->tail_hash, data.subspan(consumed, take));
      consumed += take;
      pos += take;
      if (pos == kChecksumBlockBytes) {
        file->block_sums.push_back(file->tail_hash);
        file->tail_hash = kFnvBasis;
        pos = 0;
      }
    }
  }
  file->size_bytes += length;
  stats_.live_bytes += length;
  stats_.appends += requests;
}

Status FileStore::Read(const std::string& name, uint64_t offset,
                       uint64_t length, std::vector<uint8_t>* out) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  if (length > file->size_bytes || offset > file->size_bytes - length) {
    return Status::InvalidArgument("read beyond end of file");
  }
  // The name-based read is an open–read–close session per call.
  device_->ChargeCpu(options_.costs.fs_open_s);
  ChargeMftAccess(file->id, /*write=*/false);
  LOR_RETURN_IF_ERROR(ReadResolved(file, offset, length, out));
  device_->ChargeCpu(options_.costs.fs_close_s);
  return Status::OK();
}

Status FileStore::ReadResolved(FileInfo* file, uint64_t offset,
                               uint64_t length, std::vector<uint8_t>* out) {
  if (length > file->size_bytes || offset > file->size_bytes - length) {
    return Status::InvalidArgument("read beyond end of file");
  }
  if (out != nullptr) out->resize(length);
  Status s = ReadRangeOnce(*file, offset, length, out, /*bypass_pool=*/false);
  // Transient latent sector errors clear after a bounded number of
  // attempts; retry with a charged backoff before surfacing IoError.
  // A failed submission charged nothing, so the backoff CPU charge is
  // the whole cost of a wasted attempt.
  const sim::MediaRetryPolicy& retry = options_.media_retry;
  for (uint32_t attempt = 1; s.IsIoError() && attempt < retry.max_attempts;
       ++attempt) {
    device_->ChargeCpu(retry.backoff_s * attempt);
    s = ReadRangeOnce(*file, offset, length, out, /*bypass_pool=*/false);
  }
  LOR_RETURN_IF_ERROR(s);
  LOR_RETURN_IF_ERROR(VerifyChecksums(file, offset, length, out));
  ++stats_.reads;
  ++file->read_count;
  return Status::OK();
}

Status FileStore::ReadRangeOnce(const FileInfo& file, uint64_t offset,
                                uint64_t length, std::vector<uint8_t>* out,
                                bool bypass_pool) {
  device_->BeginStreamWindow();
  // One vectored submission for the whole run list; the device copies
  // each run's bytes directly into the caller's buffer (no per-run
  // staging vector), reusing whatever capacity it already holds.
  MapRangeInto(file, offset, length, &read_runs_);
  sim::BufferPool* pool = bypass_pool ? nullptr : ActivePool();
  if (pool != nullptr) {
    // Cache-routed read: each physical run is one cache request whose
    // fill range is the whole run (extent-run read-ahead granularity);
    // hits never touch the device, misses batch into one ReadV.
    cache_slices_.clear();
    uint64_t consumed = 0;
    for (const auto& [phys, len] : read_runs_) {
      cache_slices_.push_back(
          {phys, len, nullptr,
           out != nullptr ? out->data() + consumed : nullptr, phys, len});
      consumed += len;
    }
    LOR_RETURN_IF_ERROR(pool->ReadThrough(cache_slices_));
  } else {
    io_slices_.clear();
    uint64_t consumed = 0;
    for (const auto& [phys, len] : read_runs_) {
      io_slices_.push_back(
          {phys, len, nullptr,
           out != nullptr ? out->data() + consumed : nullptr});
      consumed += len;
    }
    LOR_RETURN_IF_ERROR(device_->ReadV(io_slices_));
  }
  device_->EndStreamWindow(length, options_.costs.fs_stream_bandwidth);
  return Status::OK();
}

Status FileStore::VerifyChecksums(FileInfo* file, uint64_t offset,
                                  uint64_t length, std::vector<uint8_t>* out) {
  // Verification needs delivered bytes, valid sums, and a reason to
  // distrust the platter; without a media-fault model attached the
  // read path stays bit-identical to the historical one.
  if (out == nullptr || !file->hash_valid || length == 0) return Status::OK();
  if (device_->media_faults() == nullptr) return Status::OK();
  if (device_->data_mode() != sim::DataMode::kRetain) return Status::OK();
  const uint64_t end = offset + length;
  const uint64_t first = (offset + kChecksumBlockBytes - 1) /
                         kChecksumBlockBytes;
  bool mismatch = false;
  auto verify = [&]() {
    mismatch = false;
    // Full blocks wholly inside the read.
    for (uint64_t b = first;
         b < file->block_sums.size() && (b + 1) * kChecksumBlockBytes <= end;
         ++b) {
      const std::span<const uint8_t> got(
          out->data() + (b * kChecksumBlockBytes - offset),
          kChecksumBlockBytes);
      if (Fnv(got) != file->block_sums[b]) {
        mismatch = true;
        return;
      }
    }
    // The partial tail block, when the read covers it entirely.
    const uint64_t tail_start =
        file->block_sums.size() * kChecksumBlockBytes;
    if (file->size_bytes > tail_start && offset <= tail_start &&
        end >= file->size_bytes) {
      const std::span<const uint8_t> got(out->data() + (tail_start - offset),
                                         file->size_bytes - tail_start);
      if (Fnv(got) != file->tail_hash) mismatch = true;
    }
  };
  verify();
  if (!mismatch) return Status::OK();
  // A cached frame may hold a stale or corrupt fill: drop the range
  // and give the platter one more (charged) chance before declaring
  // the object corrupt.
  sim::BufferPool* pool = ActivePool();
  if (pool != nullptr) {
    MapRangeInto(*file, offset, length, &read_runs_);
    for (const auto& [phys, len] : read_runs_) pool->Invalidate(phys, len);
  }
  LOR_RETURN_IF_ERROR(
      ReadRangeOnce(*file, offset, length, out, /*bypass_pool=*/true));
  verify();
  if (!mismatch) return Status::OK();
  return Status::Corruption("checksum mismatch in file record " +
                            std::to_string(file->id));
}

Status FileStore::ReadAll(const std::string& name,
                          std::vector<uint8_t>* out) {
  const FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return Read(name, 0, file->size_bytes, out);
}

Status FileStore::Preallocate(const std::string& name, uint64_t final_size) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return PreallocateResolved(file, final_size);
}

Status FileStore::PreallocateResolved(FileInfo* file, uint64_t final_size) {
  const uint64_t needed = ClustersFor(final_size);
  if (needed <= file->allocated_clusters) return Status::OK();
  const uint64_t grow = needed - file->allocated_clusters;
  const uint64_t hint =
      file->extents.empty() ? alloc::kNoHint : file->extents.back().end();
  LOR_RETURN_IF_ERROR(allocator_->Allocate(grow, hint, &file->extents));
  file->allocated_clusters = needed;
  SyncTracker(file);
  return Status::OK();
}

Status FileStore::Truncate(const std::string& name, uint64_t new_size) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  if (new_size > file->size_bytes) {
    return Status::InvalidArgument("truncate cannot grow a file");
  }
  const uint64_t keep = ClustersFor(new_size);
  uint64_t have = file->allocated_clusters;
  while (have > keep && !file->extents.empty()) {
    alloc::Extent& tail = file->extents.back();
    const uint64_t drop = std::min(tail.length, have - keep);
    InvalidateExtents({{tail.end() - drop, drop}});
    LOR_RETURN_IF_ERROR(FreeExtent({tail.end() - drop, drop}));
    tail.length -= drop;
    have -= drop;
    if (tail.length == 0) file->extents.pop_back();
  }
  file->allocated_clusters = have;
  stats_.live_bytes -= file->size_bytes - new_size;
  if (new_size != file->size_bytes) {
    // A truncated-to-empty file restarts the hash stream; a mid-file
    // cut leaves no way to rewind FNV, so the hash goes unknowable.
    file->payload_hash = kFnvBasis;
    file->hash_valid = new_size == 0;
    file->block_sums.clear();
    file->tail_hash = kFnvBasis;
  }
  file->size_bytes = new_size;
  SyncTracker(file);
  ChargeMftAccess(file->id, /*write=*/true);
  ChargeJournal(/*flush=*/false);
  return Status::OK();
}

Status FileStore::Fsync(const std::string& name) {
  const FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  LOR_RETURN_IF_ERROR(FlushFileFrames(*file));
  ChargeJournal(/*flush=*/true);
  return Status::OK();
}

Status FileStore::MoveFileData(FileInfo* file, alloc::ExtentList fresh) {
  // The mover reads the old layout straight off the device, so any
  // dirty cached frames must reach the platter first; the old frames
  // are then dropped once the clusters change owner. The new location
  // has no frames (freed ranges are always invalidated), so the direct
  // write below cannot go stale against the cache.
  LOR_RETURN_IF_ERROR(FlushFileFrames(*file));
  // Read the old layout, write the new one (payload preserved in
  // retain mode) — one vectored submission per direction, staged
  // through a single flat buffer instead of per-run chunk vectors.
  const bool retain = device_->data_mode() == sim::DataMode::kRetain;
  std::vector<uint8_t> payload;
  if (retain) payload.resize(file->size_bytes);
  MapRangeInto(*file, 0, file->size_bytes, &read_runs_);
  io_slices_.clear();
  uint64_t consumed = 0;
  for (const auto& [phys, len] : read_runs_) {
    io_slices_.push_back(
        {phys, len, nullptr, retain ? payload.data() + consumed : nullptr});
    consumed += len;
  }
  LOR_RETURN_IF_ERROR(device_->ReadV(io_slices_));
  FileInfo relaid = *file;
  relaid.extents = fresh;
  MapRangeInto(relaid, 0, file->size_bytes, &read_runs_);
  io_slices_.clear();
  uint64_t copied = 0;
  for (const auto& [phys, len] : read_runs_) {
    io_slices_.push_back(
        {phys, len, retain ? payload.data() + copied : nullptr, nullptr});
    copied += len;
  }
  LOR_RETURN_IF_ERROR(device_->WriteV(io_slices_));

  InvalidateExtents(file->extents);
  for (const alloc::Extent& e : file->extents) {
    LOR_RETURN_IF_ERROR(FreeExtent(e));
  }
  file->extents = std::move(fresh);
  SyncTracker(file);
  ChargeMftAccess(file->id, /*write=*/true);
  ChargeJournal(/*flush=*/true);
  return Status::OK();
}

Result<bool> FileStore::DefragmentFile(const std::string& name) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  const uint64_t old_fragments = alloc::CountFragments(file->extents);
  if (old_fragments <= 1 || file->allocated_clusters == 0) return false;

  // Deferred frees hide reusable space from the mover; commit first, as
  // the defragmentation utility runs after quiescing.
  allocator_->CommitPending();

  alloc::ExtentList fresh;
  Status s = allocator_->Allocate(file->allocated_clusters, alloc::kNoHint,
                                  &fresh);
  if (s.IsNoSpace()) return false;
  LOR_RETURN_IF_ERROR(s);
  if (alloc::CountFragments(fresh) >= old_fragments) {
    for (const alloc::Extent& e : fresh) {
      LOR_RETURN_IF_ERROR(FreeExtent(e));
    }
    return false;
  }
  LOR_RETURN_IF_ERROR(MoveFileData(file, std::move(fresh)));
  return true;
}

Result<bool> FileStore::PromoteToOuterZone(const std::string& name) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  if (file->allocated_clusters == 0) return false;
  alloc::FreeSpaceMap* map = allocator_->free_map();
  if (map == nullptr) {
    return Status::NotSupported("allocator exposes no free-space map");
  }
  allocator_->CommitPending();

  // Lowest-addressed free run that holds the whole file.
  alloc::Extent target{};
  for (const alloc::Extent& run : map->Snapshot()) {
    if (run.length >= file->allocated_clusters) {
      target = {run.start, file->allocated_clusters};
      break;
    }
  }
  if (target.empty() || file->extents.empty() ||
      target.start >= file->extents.front().start) {
    return false;  // No better (more outward) placement exists.
  }
  LOR_RETURN_IF_ERROR(map->AllocateAt(target));
  LOR_RETURN_IF_ERROR(MoveFileData(file, {target}));
  return true;
}

Status FileStore::MarkFilePendingBad(const std::string& name) {
  const FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  for (const alloc::Extent& e : file->extents) {
    for (uint64_t c = e.start; c < e.end(); ++c) {
      pending_bad_clusters_.insert(c);
    }
  }
  return Status::OK();
}

Result<bool> FileStore::RelocateFile(const std::string& name) {
  FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  if (file->allocated_clusters == 0) return false;
  // Deferred frees hide reusable space from the mover (same reasoning
  // as DefragmentFile: repair runs after quiescing).
  allocator_->CommitPending();
  alloc::ExtentList fresh;
  Status s = allocator_->Allocate(file->allocated_clusters, alloc::kNoHint,
                                  &fresh);
  if (s.IsNoSpace()) return false;
  LOR_RETURN_IF_ERROR(s);
  LOR_RETURN_IF_ERROR(MoveFileData(file, std::move(fresh)));
  return true;
}

Result<uint64_t> FileStore::GetReadCount(const std::string& name) const {
  const FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return file->read_count;
}

Result<alloc::ExtentList> FileStore::GetExtents(
    const std::string& name) const {
  const FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return file->extents;
}

Result<uint64_t> FileStore::GetSize(const std::string& name) const {
  const FileInfo* file = Find(name);
  if (file == nullptr) return Status::NotFound("no such file: " + name);
  return file->size_bytes;
}

std::vector<std::string> FileStore::ListFiles() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, info] : files_) names.push_back(name);
  return names;
}

void FileStore::VisitFiles(
    const std::function<void(const std::string& name, const FileInfo& info)>&
        visit) const {
  for (const auto& [name, info] : files_) visit(name, info);
}

uint64_t FileStore::FreeBytes() const {
  return allocator_->total_unused_clusters() * options_.cluster_bytes;
}

void FileStore::ReclaimRecordId(uint64_t id) {
  auto it = std::find(free_record_ids_.begin(), free_record_ids_.end(), id);
  if (it != free_record_ids_.end()) free_record_ids_.erase(it);
}

void FileStore::UndoLogEntry(const RecoveryLogEntry& entry,
                             RecoveryStats* out) {
  switch (entry.kind) {
    case RecoveryLogEntry::Kind::kCreate: {
      auto it = files_.find(entry.name);
      if (it == files_.end()) return;  // Undone by a later entry's undo.
      out->data_loss_bytes += it->second.size_bytes;
      stats_.live_bytes -= it->second.size_bytes;
      tracker_.Remove(it->second.tracked_fragments, it->second.tracked_bytes);
      ChargeMftAccess(it->second.id, /*write=*/true);
      RecycleRecordId(it->second.id);
      InvalidateHandles(entry.name);
      files_.erase(it);
      --stats_.file_count;
      break;
    }
    case RecoveryLogEntry::Kind::kDelete: {
      // The delete never committed: resurrect the file. Its clusters
      // were held, never reissued, so the old layout is intact.
      ReclaimRecordId(entry.prior.id);
      auto [it, inserted] = files_.emplace(entry.name, entry.prior);
      if (!inserted) it->second = entry.prior;
      tracker_.Add(entry.prior.tracked_fragments, entry.prior.tracked_bytes);
      stats_.live_bytes += entry.prior.size_bytes;
      ++stats_.file_count;
      ChargeMftAccess(entry.prior.id, /*write=*/true);
      InvalidateHandles(entry.name);
      break;
    }
    case RecoveryLogEntry::Kind::kRename: {
      auto dst = files_.find(entry.name);
      if (dst == files_.end()) return;
      // The streamed temp moves back under its source name; its own
      // (earlier, equally uncommitted) create entry — or the orphan
      // sweep — then disposes of it, which is also where its bytes are
      // counted as lost.
      FileInfo moved = std::move(dst->second);
      if (entry.had_prior) {
        ReclaimRecordId(entry.prior.id);
        dst->second = entry.prior;
        tracker_.Add(entry.prior.tracked_fragments,
                     entry.prior.tracked_bytes);
        stats_.live_bytes += entry.prior.size_bytes;
      } else {
        files_.erase(dst);
        --stats_.file_count;
      }
      files_.emplace(entry.source, std::move(moved));
      ++stats_.file_count;
      ChargeMftAccess(entry.file_id, /*write=*/true);
      InvalidateHandles(entry.name);
      InvalidateHandles(entry.source);
      break;
    }
  }
}

Result<RecoveryStats> FileStore::Recover(
    const std::function<bool(const std::string&)>& is_temp) {
  const sim::FaultInjector* injector = device_->fault_injector();
  RecoveryStats out;
  out.entries_scanned = recovery_log_.size();

  // Journal scan: one sequential read over the region the live records
  // occupy — the first thing a mounting filesystem does.
  const uint64_t zone_bytes = mft_clusters_ * options_.cluster_bytes;
  if (options_.charge_metadata_io) {
    const uint64_t journal_base = zone_bytes / 2;
    const uint64_t journal_size = std::max<uint64_t>(
        2 * kJournalRecordBytes, zone_bytes - journal_base);
    const uint64_t scan = std::min<uint64_t>(
        std::max<uint64_t>(recovery_log_.size(), 1) * kJournalRecordBytes,
        journal_size);
    Status s = device_->Read(journal_base, scan);
    (void)s;
  }

  auto durable = [injector](uint64_t seq) {
    return injector == nullptr || injector->IsDurable(seq);
  };

  // Commit rule: the journal is written sequentially, so the committed
  // operations are exactly the longest prefix of records that reached
  // the platter — the first torn or lost record truncates the log.
  size_t committed = 0;
  while (committed < recovery_log_.size() &&
         durable(recovery_log_[committed].commit_seq)) {
    ++committed;
  }

  // Redo pass. A committed operation's MFT writes preceded its commit
  // record inside the same op chain, so its effects are already on the
  // platter; redo is the idempotency check — one record read each.
  for (size_t i = 0; i < committed; ++i) {
    ChargeMftAccess(recovery_log_[i].file_id, /*write=*/false);
    ++out.ops_redone;
  }

  // Undo pass: everything past the committed prefix rolls back, newest
  // first, so a safe write's rename undoes before its create.
  for (size_t i = recovery_log_.size(); i-- > committed;) {
    UndoLogEntry(recovery_log_[i], &out);
    ++out.ops_rolled_back;
  }

  // Orphan sweep: temps whose create committed but whose rename did
  // not are live files under temp names — discard them.
  for (auto it = files_.begin(); it != files_.end();) {
    if (!is_temp(it->first)) {
      ++it;
      continue;
    }
    out.data_loss_bytes += it->second.size_bytes;
    stats_.live_bytes -= it->second.size_bytes;
    tracker_.Remove(it->second.tracked_fragments, it->second.tracked_bytes);
    ChargeMftAccess(it->second.id, /*write=*/true);
    RecycleRecordId(it->second.id);
    InvalidateHandles(it->first);
    --stats_.file_count;
    ++out.orphan_temps_discarded;
    it = files_.erase(it);
  }

  // Free-space rebuild: a fresh allocator claims exactly the surviving
  // layouts, so held rollback clusters and rolled-back allocations fall
  // out free without per-extent bookkeeping. One MFT record read per
  // live file — recovery time scales with volume age. Note this
  // installs the run-cache default; injected ablation allocators do not
  // survive a crash.
  auto rebuilt = std::make_unique<alloc::RunCacheAllocator>(
      total_clusters_, options_.alloc, mft_clusters_);
  alloc::FreeSpaceMap* map = rebuilt->free_map();
  if (map == nullptr) {
    return Status::NotSupported("recovery requires a free-space map");
  }
  for (auto& [name, file] : files_) {
    ChargeMftAccess(file.id, /*write=*/false);
    for (const alloc::Extent& e : file.extents) {
      LOR_RETURN_IF_ERROR(map->AllocateAt(e));
    }
  }
  for (const alloc::Extent& e : index_buffers_) {
    LOR_RETURN_IF_ERROR(map->AllocateAt(e));
  }
  // Quarantined clusters stay retired across a remount (the bad-sector
  // list is volume metadata, in spirit); pending-bad marks were scrub
  // state in DRAM and die with the power.
  for (const uint64_t c : quarantined_clusters_) {
    LOR_RETURN_IF_ERROR(map->AllocateAt({c, 1}));
  }
  pending_bad_clusters_.clear();
  allocator_ = std::move(rebuilt);

  // Close out: open handles do not survive a power cut; a checkpoint
  // record marks the journal tail replayed.
  for (auto& [name, file] : files_) handles_.InvalidateAll(name);
  crash_held_.clear();
  recovery_log_.clear();
  journal_batch_open_ = false;
  batched_journal_records_ = 0;
  batched_journal_flush_ = false;
  ChargeJournal(/*flush=*/true);
  return out;
}

void FileStore::EndCrashWindow() {
  recovery_log_.clear();
  if (!crash_held_.empty()) {
    for (const alloc::Extent& e : crash_held_) {
      Status s = FreeExtent(e);
      (void)s;
    }
    crash_held_.clear();
    allocator_->Tick();
  }
}

Status FileStore::CheckConsistency() const {
  std::vector<alloc::Extent> all;
  uint64_t allocated = 0;
  for (const auto& [name, file] : files_) {
    uint64_t file_clusters = 0;
    for (const alloc::Extent& e : file.extents) {
      if (e.start < mft_clusters_ || e.end() > total_clusters_) {
        return Status::Corruption("extent outside data zone: " + name);
      }
      file_clusters += e.length;
      all.push_back(e);
    }
    if (file_clusters != file.allocated_clusters) {
      return Status::Corruption("allocated_clusters mismatch: " + name);
    }
    if (file_clusters < ClustersFor(file.size_bytes)) {
      return Status::Corruption("file size exceeds layout: " + name);
    }
    allocated += file_clusters;
  }
  for (const alloc::Extent& e : index_buffers_) {
    if (e.start < mft_clusters_ || e.end() > total_clusters_) {
      return Status::Corruption("index buffer outside data zone");
    }
    all.push_back(e);
    allocated += e.length;
  }
  std::sort(all.begin(), all.end(),
            [](const alloc::Extent& a, const alloc::Extent& b) {
              return a.start < b.start;
            });
  for (size_t i = 1; i < all.size(); ++i) {
    if (all[i].start < all[i - 1].end()) {
      return Status::Corruption("files share clusters");
    }
  }
  // Quarantined clusters are owned by nobody: not a file, not the
  // allocator. They still close the accounting equation.
  for (const uint64_t c : quarantined_clusters_) {
    auto it = std::upper_bound(
        all.begin(), all.end(), c,
        [](uint64_t v, const alloc::Extent& e) { return v < e.start; });
    if (it != all.begin() && std::prev(it)->end() > c) {
      return Status::Corruption("quarantined cluster owned by a live object");
    }
  }
  const uint64_t data_zone = total_clusters_ - mft_clusters_;
  if (allocated + allocator_->total_unused_clusters() +
          quarantined_clusters_.size() !=
      data_zone) {
    return Status::Corruption("cluster accounting mismatch");
  }
  return Status::OK();
}

}  // namespace fs
}  // namespace lor
