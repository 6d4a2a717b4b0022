// DbRepository: the paper's database configuration (§4.2) — objects as
// out-of-row BLOBs in a SQL-Server-like engine running in bulk-logged
// mode, with the log on a dedicated drive.
//
// Access stack: the handle operations are the primary path — Open pins
// the metadata row, the blob layout, and positioned metadata/blob-tree
// cursors in the BlobStore handle table, so Get/SafeWrite through the
// handle skip the per-operation query + row lookup. The name-based
// mutations are thin open–op–release wrappers over the same code (the
// name-based Get is the store's own per-call query + lookup + read),
// charging exactly what the historical per-operation path charged.

#ifndef LOREPO_CORE_DB_REPOSITORY_H_
#define LOREPO_CORE_DB_REPOSITORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/volume_repository.h"
#include "db/blob_store.h"

namespace lor {
namespace core {

/// Configuration of the database-backed repository. The shared-spindle
/// binding covers the *data* volume only: the dedicated log device,
/// when enabled, stays private to this shard — its own spindle, its own
/// clock — matching the paper's log-on-a-separate-drive setup. The
/// buffer pool likewise fronts the data volume only (a strictly-ordered
/// append stream gains nothing from one).
struct DbRepositoryConfig : VolumeConfig {
  /// Dedicated log volume size (0 disables the log device and charges
  /// commits as CPU only).
  uint64_t log_volume_bytes = 4 * kGiB;
  /// Engine tuning (write request size, bulk-logged mode, costs...).
  db::BlobStoreOptions store;
};

/// Database-backed ObjectRepository.
class DbRepository : public VolumeRepository {
 public:
  explicit DbRepository(DbRepositoryConfig config = {});

  // Name-based surface (open–op–release wrappers).
  Status Put(const std::string& key, uint64_t size,
             std::span<const uint8_t> data = {}) override;
  Status SafeWrite(const std::string& key, uint64_t size,
                   std::span<const uint8_t> data = {}) override;
  Status Get(const std::string& key,
             std::vector<uint8_t>* out = nullptr) override;
  Status Delete(const std::string& key) override;
  bool Exists(const std::string& key) const override;
  Result<alloc::ExtentList> GetLayout(const std::string& key) const override;
  Result<uint64_t> GetSize(const std::string& key) const override;

  // Handle surface (BlobStore handle table underneath).
  Result<ObjectHandle> Open(const std::string& key) override;
  Result<ObjectHandle> OpenForWrite(const std::string& key) override;
  Status Release(ObjectHandle* handle) override;
  Status Get(const ObjectHandle& handle,
             std::vector<uint8_t>* out = nullptr) override;
  Status SafeWrite(const ObjectHandle& handle, uint64_t size,
                   std::span<const uint8_t> data = {}) override;
  Status Delete(ObjectHandle* handle) override;
  Result<alloc::ExtentList> GetLayout(
      const ObjectHandle& handle) const override;
  Result<uint64_t> GetSize(const ObjectHandle& handle) const override;

  std::vector<std::string> ListKeys() const override;
  void VisitObjects(
      const std::function<void(const std::string& key,
                               const alloc::ExtentList& layout,
                               uint64_t size_bytes)>& visit) const override;
  const FragmentationTracker* fragmentation_tracker() const override;
  uint64_t object_count() const override;
  uint64_t live_bytes() const override;
  uint64_t free_bytes() const override;
  Status CheckConsistency() const override;
  std::string name() const override { return "database"; }

  /// Adds to the base verifier: payload FNV-1a checks under
  /// DataMode::kRetain (kTornPayload / kLostObject), and exact page
  /// accounting of live layouts against the LOB allocation unit
  /// (kLeakedExtent / kDoubleAllocated). Not meaningful while a crash
  /// window is armed — held pre-images look like leaks.
  Result<FsckReport> Fsck() override;

  db::BlobStore* blob_store() { return store_.get(); }
  /// Null when the configuration disables the dedicated log volume. The
  /// scheduler fronts the data volume only: the log stays a strictly-
  /// ordered synchronous append stream (bulk-logged commits are tiny
  /// and serialized by the engine), with commit waits charged to the
  /// op's chain as CPU.
  sim::BlockDevice* log_device() { return log_device_.get(); }
  const DbRepositoryConfig& config() const { return config_; }

 protected:
  /// Checkpoint + log-tail replay (db::BlobStore::Recover). After a
  /// power cut the log spindle restarts cold too, before recovery
  /// charges anything.
  Result<MountReport> RecoverStore(bool power_cycled) override;

  /// Marks the blob's pages pending-bad and supersedes it with a safe
  /// write; the old pages divert to the allocation unit's quarantine
  /// list when freed.
  void RepairRetriedRead(const std::string& key,
                         std::span<const uint8_t> payload,
                         ScrubReport* report) override;

 private:
  /// Converts a page-run layout into byte extents.
  Result<alloc::ExtentList> ScaleLayout(Result<db::BlobLayout> layout) const;

  DbRepositoryConfig config_;
  std::unique_ptr<sim::BlockDevice> log_device_;
  std::unique_ptr<db::BlobStore> store_;
};

}  // namespace core
}  // namespace lor

#endif  // LOREPO_CORE_DB_REPOSITORY_H_
