#include "sim/buffer_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "sim/fault_injector.h"

namespace lor {
namespace sim {

namespace {

// Power-of-two buffer class helpers for the recycling free lists: a
// buffer recycled into class c has capacity >= 2^c (floor log2), so a
// taker asking ceil-log2(len) is guaranteed a large-enough buffer.
size_t TakeClass(uint64_t len) {
  return len <= 1 ? 0 : static_cast<size_t>(std::bit_width(len - 1));
}
size_t RecycleClass(uint64_t capacity) {
  return capacity <= 1 ? 0 : static_cast<size_t>(std::bit_width(capacity) - 1);
}

}  // namespace

BufferPool::BufferPool(BlockDevice* device, BufferPoolOptions options)
    : device_(device), options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shards_.resize(options_.shards);
}

bool BufferPool::WriteBackActive() const {
  if (!options_.write_back) return false;
  const FaultInjector* injector = device_->fault_injector();
  return injector == nullptr || !injector->armed();
}

BufferPool::Index::const_iterator BufferPool::Seek(uint64_t offset) const {
  auto it = index_.upper_bound(offset);
  if (it != index_.begin()) {
    auto prev = std::prev(it);
    if (FrameOf(prev).end() > offset) return prev;
  }
  return it;
}

BufferPool::Index::iterator BufferPool::Seek(uint64_t offset) {
  ++stats_.index_searches;
  const Index::const_iterator it = std::as_const(*this).Seek(offset);
  return index_.erase(it, it);  // Erases nothing: const -> mutable, O(1).
}

Status BufferPool::InstallFrame(Index::iterator it, uint64_t offset,
                                uint64_t len, uint32_t* slot) {
  const uint64_t end = offset + len;
  uint32_t inherited_pin = 0;
  if (Overlaps(it, end)) {
    // Dirty overlaps hold bytes newer than the device: write them back
    // before they are dropped (a read fill would otherwise resurrect
    // stale device content; a partially-overlapping write would lose
    // the non-overlapped dirty bytes).
    LOR_RETURN_IF_ERROR(FlushOverlapping(it, end));
    while (Overlaps(it, end)) {
      inherited_pin = std::max(inherited_pin, FrameOf(it).pin);
      it = DropFrame(it->second);
    }
  }
  // `it` is now the insertion position. Eviction may erase its frame;
  // only then is the position searched again.
  const uint64_t hint_seq = it == index_.end() ? 0 : FrameOf(it).seq;
  const uint32_t hint_slot = it == index_.end() ? 0 : it->second;
  const uint32_t shard = ShardOf(offset);
  LOR_RETURN_IF_ERROR(EvictFor(shard, len));
  if (hint_seq != 0 && slab_[hint_slot].seq != hint_seq) it = Seek(offset);
  if (free_slots_.empty()) {
    *slot = static_cast<uint32_t>(slab_.size());
    slab_.emplace_back();
  } else {
    *slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Frame& frame = slab_[*slot];
  frame.offset = offset;
  frame.length = len;
  // Replacing a pinned frame keeps its pin (the granularity changed,
  // the protection window did not); UnpinRange guards at zero.
  frame.pin = inherited_pin;
  frame.shard = shard;
  frame.seq = ++install_seq_;
  frame.referenced = true;
  if (RetainData()) frame.data = TakeBuffer(len);
  frame.pos = index_.emplace_hint(it, offset, *slot);
  Shard& sh = shards_[shard];
  sh.used_bytes += len;
  cached_bytes_ += len;
  sh.clock_ring.emplace_back(*slot, frame.seq);
  return Status::OK();
}

Status BufferPool::EvictFor(uint32_t shard, uint64_t incoming) {
  Shard& sh = shards_[shard];
  const uint64_t cap = ShardCapacity();
  while (sh.used_bytes + incoming > cap) {
    bool evicted = false;
    LOR_RETURN_IF_ERROR(EvictOne(shard, &evicted));
    if (!evicted) {
      // Nothing evictable (everything pinned, or the run is simply
      // larger than the domain): grow past the slice rather than fail.
      ++stats_.eviction_refusals;
      break;
    }
  }
  return Status::OK();
}

Status BufferPool::EvictOne(uint32_t shard, bool* evicted) {
  *evicted = false;
  Shard& sh = shards_[shard];
  // CLOCK: sweep the ring, clearing reference bits; pinned frames are
  // skipped, stale entries (seq mismatch) removed in passing. Two full
  // sweeps bound the scan when every frame is referenced.
  size_t scanned = 0;
  const size_t limit = sh.clock_ring.size() * 2 + 2;
  while (!sh.clock_ring.empty() && scanned < limit) {
    if (sh.hand >= sh.clock_ring.size()) sh.hand = 0;
    const auto [slot, seq] = sh.clock_ring[sh.hand];
    Frame& f = slab_[slot];
    if (f.seq != seq) {
      sh.clock_ring[sh.hand] = sh.clock_ring.back();
      sh.clock_ring.pop_back();
      continue;
    }
    if (f.pin > 0) {
      ++sh.hand;
      ++scanned;
      continue;
    }
    if (f.referenced) {
      f.referenced = false;
      ++sh.hand;
      ++scanned;
      continue;
    }
    if (f.dirty) LOR_RETURN_IF_ERROR(WriteBackFrame(&f));
    DropFrame(slot);
    sh.clock_ring[sh.hand] = sh.clock_ring.back();
    sh.clock_ring.pop_back();
    ++stats_.evictions;
    *evicted = true;
    return Status::OK();
  }
  return Status::OK();
}

BufferPool::Index::iterator BufferPool::DropFrame(uint32_t slot) {
  Frame& f = slab_[slot];
  Shard& sh = shards_[f.shard];
  sh.used_bytes -= f.length;
  cached_bytes_ -= f.length;
  if (f.dirty) dirty_bytes_ -= f.length;
  if (!f.data.empty()) RecycleBuffer(std::move(f.data));
  auto next = index_.erase(f.pos);
  f = Frame{};  // seq 0: free (and any unrecycled buffer released).
  free_slots_.push_back(slot);
  return next;
}

Status BufferPool::WriteBackFrame(Frame* frame) {
  IoRequest req;
  req.write = true;
  req.offset = frame->offset;
  req.length = frame->length;
  req.src = frame->data.empty() ? nullptr : frame->data.data();
  LOR_RETURN_IF_ERROR(device_->Submit(req));
  frame->dirty = false;
  dirty_bytes_ -= frame->length;
  ++stats_.writebacks;
  stats_.writeback_bytes += frame->length;
  return Status::OK();
}

Status BufferPool::FlushOverlapping(Index::const_iterator it, uint64_t end) {
  if (dirty_bytes_ == 0) return Status::OK();
  flush_requests_.clear();
  flush_slots_.clear();
  for (; Overlaps(it, end); ++it) {
    const Frame& f = FrameOf(it);
    if (!f.dirty) continue;
    IoRequest req;
    req.write = true;
    req.offset = f.offset;
    req.length = f.length;
    req.src = f.data.empty() ? nullptr : f.data.data();
    flush_requests_.push_back(req);
    flush_slots_.push_back(it->second);
  }
  if (flush_requests_.empty()) return Status::OK();
  // One offset-ordered vectored submission (index order is offset
  // order): the batch rides the IoScheduler and charges like the
  // equivalent scalar sequence, so a big flush pays one positioning per
  // contiguous dirty range.
  LOR_RETURN_IF_ERROR(device_->SubmitV(flush_requests_));
  for (uint32_t slot : flush_slots_) {
    Frame& f = slab_[slot];
    f.dirty = false;
    dirty_bytes_ -= f.length;
    ++stats_.writebacks;
    stats_.writeback_bytes += f.length;
  }
  return Status::OK();
}

Status BufferPool::FlushRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0 || dirty_bytes_ == 0) return Status::OK();
  return FlushOverlapping(Seek(offset), offset + len);
}

Status BufferPool::FlushAll() {
  if (!enabled() || dirty_bytes_ == 0) return Status::OK();
  return FlushOverlapping(index_.begin(), device_->capacity());
}

std::vector<uint8_t> BufferPool::TakeBuffer(uint64_t len) {
  const size_t cls = TakeClass(len);
  if (cls < free_lists_.size() && !free_lists_[cls].empty()) {
    std::vector<uint8_t> buffer = std::move(free_lists_[cls].back());
    free_lists_[cls].pop_back();
    free_list_bytes_ -= buffer.capacity();
    buffer.resize(len);  // Zero-fills within the retained capacity.
    ++stats_.frame_recycles;
    return buffer;
  }
  std::vector<uint8_t> buffer(len);
  ++stats_.frame_allocs;
  return buffer;
}

void BufferPool::RecycleBuffer(std::vector<uint8_t>&& buffer) {
  const uint64_t cap = buffer.capacity();
  if (cap == 0) return;
  // Bound the idle-buffer memory at a quarter of the pool (with a
  // 1 MiB floor so tiny pools still recycle at all).
  constexpr uint64_t kFreeListFloor = 1ull << 20;
  if (free_list_bytes_ + cap > options_.capacity_bytes / 4 + kFreeListFloor) {
    return;
  }
  const size_t cls = RecycleClass(cap);
  if (cls >= free_lists_.size()) free_lists_.resize(cls + 1);
  buffer.clear();
  free_list_bytes_ += cap;
  free_lists_[cls].push_back(std::move(buffer));
}

Status BufferPool::ReadThrough(std::span<const CacheSlice> slices,
                               uint64_t* device_bytes) {
  if (!enabled()) {
    // Pass-through: the disabled pool issues the identical vectored
    // read the caller's historical path would have.
    fill_slices_.clear();
    uint64_t total = 0;
    for (const CacheSlice& s : slices) {
      fill_slices_.push_back({s.offset, s.length, nullptr, s.dst});
      total += s.length;
    }
    if (device_bytes != nullptr) *device_bytes = total;
    return device_->ReadV(fill_slices_);
  }
  for (const CacheSlice& s : slices) {
    if (s.length == 0) continue;
    if (s.offset + s.length > device_->capacity() ||
        s.offset + s.length < s.offset) {
      return Status::InvalidArgument("cache read out of range");
    }
    if (options_.read_ahead && s.fill_length > 0 &&
        (s.fill_offset > s.offset ||
         s.fill_offset + s.fill_length < s.offset + s.length ||
         s.fill_offset + s.fill_length > device_->capacity())) {
      return Status::InvalidArgument("cache fill does not cover request");
    }
  }
  uint64_t filled = 0;
  for (const CacheSlice& s : slices) {
    if (s.length == 0) continue;
    const uint64_t end = s.offset + s.length;
    // One descent, then walk: the slice is a hit when the frames from
    // `first` on tile it without a gap.
    const Index::iterator first = Seek(s.offset);
    bool covered = false;
    uint64_t pos = s.offset;
    for (auto it = first; it != index_.end() && it->first <= pos; ++it) {
      pos = FrameOf(it).end();
      if (pos >= end) {
        covered = true;
        break;
      }
    }
    if (covered) {
      ++stats_.hits;
      stats_.hit_bytes += s.length;
      bool pinned_before = false;
      pos = s.offset;
      for (auto it = first; pos < end; ++it) {
        Frame& f = FrameOf(it);
        if (f.pin > 0) pinned_before = true;
        f.referenced = true;
        const uint64_t chunk = std::min(f.end(), end) - pos;
        CopyJob job;
        job.slot = it->second;
        job.offset_in_frame = pos - f.offset;
        job.dst = s.dst == nullptr ? nullptr : s.dst + (pos - s.offset);
        job.length = chunk;
        copy_jobs_.push_back(job);
        f.pending = true;
        ++f.pin;  // Transient: protects the frame until the copy runs.
        pos += chunk;
      }
      if (pinned_before) ++stats_.pinned_hits;
      // A hit never touches the device: charge only the host-side
      // lookup + copy. ChargeCpu rides the open op scope, so cache
      // hits still appear in the per-op latency percentiles.
      device_->ChargeCpu(options_.hit_cpu_s +
                         static_cast<double>(s.length) /
                             options_.copy_bandwidth);
      continue;
    }
    ++stats_.misses;
    stats_.miss_bytes += s.length;
    // Fill range: the caller's extent-run read-ahead range when
    // enabled, otherwise exactly the request.
    uint64_t fo = s.offset;
    uint64_t fl = s.length;
    if (options_.read_ahead && s.fill_length > 0) {
      fo = s.fill_offset;
      fl = s.fill_length;
    }
    // Seek(fo) without a second descent: the frames between fo and the
    // slice end after fo, and the install drops them anyway.
    Index::iterator at = first;
    while (at != index_.begin() && FrameOf(std::prev(at)).end() > fo) --at;
    // The install drops every frame it overlaps. If an earlier slice of
    // this call still has a copy (or fill) pending on one of them, run
    // the pending batch first, so no job outlives its frame.
    if (PendingOn(at, fo + fl)) {
      LOR_RETURN_IF_ERROR(FinishReads(Status::OK()));
    }
    uint32_t slot = 0;
    const Status installed = InstallFrame(at, fo, fl, &slot);
    if (!installed.ok()) return FinishReads(installed);
    Frame& frame = slab_[slot];
    fill_frames_.emplace_back(slot, frame.seq);
    ++stats_.fills;
    stats_.fill_bytes += fl;
    filled += fl;
    fill_slices_.push_back(
        {fo, fl, nullptr, frame.data.empty() ? nullptr : frame.data.data()});
    CopyJob job;
    job.slot = slot;
    job.offset_in_frame = s.offset - fo;
    job.dst = s.dst;
    job.length = s.length;
    copy_jobs_.push_back(job);
    frame.pending = true;
    ++frame.pin;
  }
  const Status status = FinishReads(Status::OK());
  if (device_bytes != nullptr) *device_bytes = filled;
  return status;
}

bool BufferPool::PendingOn(Index::const_iterator it, uint64_t end) const {
  if (copy_jobs_.empty()) return false;
  for (; Overlaps(it, end); ++it) {
    if (FrameOf(it).pending) return true;
  }
  return false;
}

Status BufferPool::FinishReads(Status status) {
  // One vectored device read fills every missed range (charged exactly
  // like the scalar sequence in this order), then the deferred copies
  // run — hit copies included, so a slice served by an earlier slice's
  // fill never reads an unfilled frame.
  if (status.ok() && !fill_slices_.empty()) {
    status = device_->ReadV(fill_slices_);
  }
  for (const CopyJob& job : copy_jobs_) {
    Frame& f = slab_[job.slot];
    if (status.ok() && job.dst != nullptr) {
      if (f.data.empty()) {
        std::memset(job.dst, 0, job.length);
      } else {
        std::memcpy(job.dst, f.data.data() + job.offset_in_frame,
                    job.length);
      }
    }
    f.pending = false;
    if (f.pin > 0) --f.pin;
  }
  if (!status.ok()) {
    // The fill never happened: drop (do not park) every frame this
    // batch installed, or a stale-zero frame would sit in the index as
    // a valid cache entry and serve wrong bytes to the next hit.
    for (const auto& [slot, seq] : fill_frames_) {
      if (slab_[slot].seq == seq) DropFrame(slot);
    }
  }
  fill_slices_.clear();
  copy_jobs_.clear();
  fill_frames_.clear();
  return status;
}

Status BufferPool::WriteSlice(Index::iterator it, const CacheSlice& s,
                              bool through, uint32_t* slot) {
  if (it != index_.end() && it->first <= s.offset &&
      FrameOf(it).end() >= s.offset + s.length) {
    // In-place update within one resident frame.
    Frame& f = FrameOf(it);
    if (!f.data.empty()) {
      uint8_t* p = f.data.data() + (s.offset - f.offset);
      if (s.src != nullptr) {
        std::memcpy(p, s.src, s.length);
      } else {
        // Timing-only writes store zeros on the device; mirror that.
        std::memset(p, 0, s.length);
      }
    }
    f.referenced = true;
    *slot = it->second;
  } else {
    LOR_RETURN_IF_ERROR(InstallFrame(it, s.offset, s.length, slot));
    Frame& f = slab_[*slot];
    if (!f.data.empty() && s.src != nullptr) {
      std::memcpy(f.data.data(), s.src, s.length);
    }
  }
  ++stats_.write_installs;
  if (through) {
    // The frame's other bytes keep whatever dirtiness they had; the
    // slice itself is now coherent with the device either way.
    write_slices_.push_back({s.offset, s.length, s.src, nullptr});
    return Status::OK();
  }
  Frame& f = slab_[*slot];
  if (!f.dirty) {
    f.dirty = true;
    dirty_bytes_ += f.length;
  }
  device_->ChargeCpu(options_.hit_cpu_s +
                     static_cast<double>(s.length) / options_.copy_bandwidth);
  return Status::OK();
}

Status BufferPool::MaybeLazyFlush() {
  if (static_cast<double>(dirty_bytes_) >
      options_.dirty_ratio * static_cast<double>(options_.capacity_bytes)) {
    // Lazy-writer threshold: one batched, offset-ordered writeback.
    return FlushAll();
  }
  return Status::OK();
}

Status BufferPool::WriteThrough(std::span<const CacheSlice> slices,
                                uint64_t* device_bytes) {
  write_slices_.clear();
  if (!enabled()) {
    uint64_t total = 0;
    for (const CacheSlice& s : slices) {
      write_slices_.push_back({s.offset, s.length, s.src, nullptr});
      total += s.length;
    }
    if (device_bytes != nullptr) *device_bytes = total;
    return device_->WriteV(write_slices_);
  }
  const bool through = !WriteBackActive();
  uint64_t through_bytes = 0;
  for (const CacheSlice& s : slices) {
    if (s.length == 0) continue;
    if (s.offset + s.length > device_->capacity() ||
        s.offset + s.length < s.offset) {
      return Status::InvalidArgument("cache write out of range");
    }
    uint32_t slot = 0;
    LOR_RETURN_IF_ERROR(WriteSlice(Seek(s.offset), s, through, &slot));
    if (through) through_bytes += s.length;
  }
  if (through && !write_slices_.empty()) {
    LOR_RETURN_IF_ERROR(device_->WriteV(write_slices_));
    if (options_.write_back) stats_.forced_write_through += write_slices_.size();
  }
  if (device_bytes != nullptr) *device_bytes = through_bytes;
  if (!through) LOR_RETURN_IF_ERROR(MaybeLazyFlush());
  return Status::OK();
}

Status BufferPool::WriteStreamRun(uint64_t offset, uint64_t len,
                                  uint64_t count,
                                  std::span<const uint8_t> data,
                                  double bandwidth_cap_bytes_per_s) {
  if (!enabled()) {
    return Status::InvalidArgument("stream run through a disabled pool");
  }
  if (len == 0 || count == 0) return Status::OK();
  if (len > device_->capacity() / count ||
      offset > device_->capacity() - len * count) {
    return Status::InvalidArgument("cache write out of range");
  }
  if (!data.empty() && data.size() != len * count) {
    return Status::InvalidArgument("data size does not match request length");
  }
  const uint8_t* src = data.empty() ? nullptr : data.data();
  // Seek position of the next request, walked from the frame the
  // previous request wrote; valid until a write-through request (whose
  // WriteThrough searches on its own).
  Index::iterator next;
  bool walked = false;
  for (uint64_t i = 0; i < count; ++i, offset += len) {
    const CacheSlice s{offset, len, src == nullptr ? nullptr : src + i * len,
                       nullptr, offset, len};
    device_->BeginStreamWindow();
    if (!WriteBackActive()) {
      // Forced (or configured) write-through: the request is exactly a
      // one-slice WriteThrough.
      LOR_RETURN_IF_ERROR(WriteThrough(std::span<const CacheSlice>(&s, 1)));
      walked = false;
    } else {
      uint32_t slot = 0;
      LOR_RETURN_IF_ERROR(
          WriteSlice(walked ? next : Seek(offset), s, false, &slot));
      // Nothing between here and the next request erases a frame (the
      // lazy flush only cleans), so the walked position stays valid.
      const Frame& f = slab_[slot];
      next = f.end() > offset + len ? f.pos : std::next(f.pos);
      walked = true;
      LOR_RETURN_IF_ERROR(MaybeLazyFlush());
    }
    device_->EndStreamWindow(len, bandwidth_cap_bytes_per_s);
  }
  return Status::OK();
}

void BufferPool::Invalidate(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0) return;
  for (auto it = Seek(offset); Overlaps(it, offset + len);) {
    ++stats_.invalidations;
    it = DropFrame(it->second);  // Dirty content dies with the owner.
  }
}

uint64_t BufferPool::PinRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0) return 0;
  uint64_t pinned = 0;
  for (auto it = Seek(offset); Overlaps(it, offset + len); ++it) {
    ++FrameOf(it).pin;
    ++pinned;
  }
  return pinned;
}

void BufferPool::UnpinRange(uint64_t offset, uint64_t len) {
  if (!enabled() || len == 0) return;
  for (auto it = Seek(offset); Overlaps(it, offset + len); ++it) {
    Frame& f = FrameOf(it);
    if (f.pin > 0) --f.pin;
  }
}

void BufferPool::Reset() {
  index_.clear();
  slab_.clear();
  free_slots_.clear();
  shards_.assign(options_.shards, Shard{});
  free_lists_.clear();
  free_list_bytes_ = 0;
  cached_bytes_ = 0;
  dirty_bytes_ = 0;
}

Status BufferPool::CheckConsistency() const {
  if (!enabled()) return Status::OK();
  std::vector<uint64_t> shard_bytes(shards_.size(), 0);
  uint64_t cached = 0;
  uint64_t dirty = 0;
  uint64_t prev_end = 0;
  for (auto it = index_.begin(); it != index_.end(); ++it) {
    if (it->second >= slab_.size()) {
      return Status::Corruption("index entry names no slab slot");
    }
    const Frame& f = FrameOf(it);
    if (f.seq == 0) return Status::Corruption("index entry names a free slot");
    if (f.offset != it->first || f.pos != it) {
      return Status::Corruption("frame disagrees with its index entry");
    }
    if (f.length == 0 || f.end() > device_->capacity() ||
        f.end() < f.offset) {
      return Status::Corruption("frame empty or outside the device");
    }
    if (f.offset < prev_end) return Status::Corruption("overlapping frames");
    prev_end = f.end();
    if (f.shard >= shards_.size() || f.shard != ShardOf(f.offset)) {
      return Status::Corruption("frame in the wrong eviction domain");
    }
    if (f.data.size() != (RetainData() ? f.length : 0)) {
      return Status::Corruption("frame payload size disagrees with length");
    }
    shard_bytes[f.shard] += f.length;
    cached += f.length;
    if (f.dirty) dirty += f.length;
  }
  if (cached != cached_bytes_) {
    return Status::Corruption("cached_bytes disagrees with the frames");
  }
  if (dirty != dirty_bytes_) {
    return Status::Corruption("dirty_bytes disagrees with the dirty frames");
  }
  std::vector<uint32_t> live_entries(slab_.size(), 0);
  for (size_t d = 0; d < shards_.size(); ++d) {
    if (shard_bytes[d] != shards_[d].used_bytes) {
      return Status::Corruption("domain used_bytes disagrees with its frames");
    }
    for (const auto& [slot, seq] : shards_[d].clock_ring) {
      if (slot >= slab_.size()) {
        return Status::Corruption("ring entry names no slab slot");
      }
      const Frame& f = slab_[slot];
      if (f.seq != seq) continue;  // Stale: removed when the hand passes.
      if (f.shard != d) {
        return Status::Corruption("live ring entry in a foreign domain");
      }
      ++live_entries[slot];
    }
  }
  std::vector<bool> is_free(slab_.size(), false);
  for (uint32_t slot : free_slots_) {
    if (slot >= slab_.size() || is_free[slot]) {
      return Status::Corruption("free slot listed twice or out of range");
    }
    if (slab_[slot].seq != 0) {
      return Status::Corruption("slot both resident and free");
    }
    is_free[slot] = true;
  }
  uint64_t resident = 0;
  for (size_t slot = 0; slot < slab_.size(); ++slot) {
    if (slab_[slot].seq == 0) {
      if (!is_free[slot]) return Status::Corruption("slot neither resident nor free");
      continue;
    }
    ++resident;
    if (live_entries[slot] != 1) {
      return Status::Corruption("resident frame without exactly one live ring entry");
    }
  }
  if (resident != index_.size()) {
    return Status::Corruption("resident slots disagree with the index");
  }
  return Status::OK();
}

const uint8_t* BufferPool::ViewChunk(uint64_t offset, uint64_t len,
                                     uint64_t* chunk) const {
  const auto it = Seek(offset);
  const uint64_t end = offset + len;
  if (it != index_.end() && it->first <= offset) {
    const Frame& f = FrameOf(it);
    *chunk = std::min(f.end(), end) - offset;
    if (f.data.empty()) return nullptr;  // Bookkeeping frame: device view.
    return f.data.data() + (offset - f.offset);
  }
  *chunk = (it == index_.end() ? end : std::min(it->first, end)) - offset;
  return nullptr;
}

uint8_t* BufferPool::MutableViewChunk(uint64_t offset, uint64_t len,
                                      uint64_t* chunk, bool through) {
  const auto it = std::as_const(*this).Seek(offset);
  const uint64_t end = offset + len;
  if (it != index_.end() && it->first <= offset) {
    Frame& f = slab_[it->second];
    *chunk = std::min(f.end(), end) - offset;
    if (f.data.empty()) return nullptr;  // Device drops payload anyway.
    if (!through && !f.dirty) {
      f.dirty = true;
      dirty_bytes_ += f.length;
    }
    return f.data.data() + (offset - f.offset);
  }
  *chunk = (it == index_.end() ? end : std::min(it->first, end)) - offset;
  return nullptr;
}

void BufferPool::CopyFrameToDevice(uint64_t offset, const uint8_t* src,
                                   uint64_t len) {
  device_->WriteView(offset, len, [&src](std::span<uint8_t> d) {
    std::memcpy(d.data(), src, d.size());
    src += d.size();
  });
}

}  // namespace sim
}  // namespace lor
