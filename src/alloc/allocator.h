// ExtentAllocator: the interface the file store uses to obtain and
// release clusters. Implementations differ in *policy* (which free run a
// request is served from, when freed space becomes reusable) while
// sharing the FreeSpaceMap mechanism.

#ifndef LOREPO_ALLOC_ALLOCATOR_H_
#define LOREPO_ALLOC_ALLOCATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/extent.h"
#include "alloc/free_space_map.h"
#include "util/status.h"

namespace lor {
namespace alloc {

/// Sentinel for "no placement hint".
inline constexpr uint64_t kNoHint = ~0ULL;

/// Abstract cluster allocator.
class ExtentAllocator {
 public:
  virtual ~ExtentAllocator() = default;

  /// Allocates `length` clusters, appending one or more extents to
  /// `out`. If `extend_hint` is a cluster number, the allocator should
  /// first try to allocate starting exactly there (contiguous file
  /// extension). Partial failure is not possible: either all `length`
  /// clusters are allocated or NoSpace is returned and `out` is
  /// unchanged.
  virtual Status Allocate(uint64_t length, uint64_t extend_hint,
                          ExtentList* out) = 0;

  /// Run-length twin of a sequential append loop: claims up to
  /// `max_requests` back-to-back requests of `request_length` clusters
  /// each, extending in place at `extend_hint`, and returns how many it
  /// claimed. The claim is exactly what that many `Allocate(
  /// request_length, hint)` calls would have produced while every one
  /// of them extends the previous one in place (the clusters are
  /// appended to `out` with AppendCoalescing). The first request that
  /// would not — it spills into a new run, or forces a deferred-free
  /// commit — is left unclaimed for the caller's Allocate. The default
  /// claims nothing, so allocators without the hook (and wrappers that
  /// do not forward it) keep the per-request path.
  virtual uint64_t AllocateRun(uint64_t /*extend_hint*/,
                               uint64_t /*request_length*/,
                               uint64_t /*max_requests*/,
                               ExtentList* /*out*/) {
    return 0;
  }

  /// Releases an extent. Depending on the implementation the space may
  /// not be reusable until the next Tick/commit.
  virtual Status Free(const Extent& extent) = 0;

  /// Operation boundary (e.g. one repository op finished). Gives the
  /// allocator a chance to commit deferred frees.
  virtual void Tick() {}

  /// Forces any deferred frees to become reusable immediately.
  virtual void CommitPending() {}

  /// Clusters currently reusable (excludes deferred frees).
  virtual uint64_t free_clusters() const = 0;

  /// Clusters free or pending-free (total unused space).
  virtual uint64_t total_unused_clusters() const { return free_clusters(); }

  virtual FreeSpaceStats FreeStats() const = 0;

  /// Direct access to the underlying free-space map, for maintenance
  /// tools (defragmentation, zone migration) that place data at
  /// explicit addresses. Null when the allocator has no such map (the
  /// buddy system).
  virtual FreeSpaceMap* free_map() { return nullptr; }

  virtual std::string name() const = 0;
};

}  // namespace alloc
}  // namespace lor

#endif  // LOREPO_ALLOC_ALLOCATOR_H_
