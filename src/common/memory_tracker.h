// Hierarchical memory accounting (DESIGN.md §13).
//
// Every AlignedBuffer allocation in the process is charged to exactly one
// MemoryTracker. Trackers form a tree rooted at the process-wide
// MemoryTracker::Process(); a query charges a per-query child (owned by its
// QueryContext), and charging a child charges every ancestor, so one atomic
// walk enforces both the per-query and the process-wide limit.
//
// The charge/release contract:
//   * charge on grow, release on free — whoever holds bytes holds a charge
//     of exactly the allocated size, and a buffer's charge always matches
//     its live allocation (asserted by the tracker-balance invariant in
//     tests/test_util.h).
//   * a failed TryCharge rolls back completely (no partial ancestor
//     charges) and the caller's buffer is left unchanged, so limit
//     breaches degrade to kResourceExhausted, never to a torn account.
//   * hard limits fail the charge; soft limits never fail — crossing one
//     latches soft_limit_exceeded() for the owner to report.
//
// Binding: allocation sites do not pass trackers around. The executing
// thread binds the query's tracker with a MemoryTrackerScope for the
// duration of a morsel (or a fallback/load call), and AlignedBuffer
// charges whatever CurrentMemoryTracker() returns at grow time. Scratch
// buffers that outlive the query (thread_local arenas) are registered via
// RegisterThreadScratchBuffer; scope exit re-homes their retained charge
// to the process root so a dying query tracker is never left referenced.
#ifndef BIPIE_COMMON_MEMORY_TRACKER_H_
#define BIPIE_COMMON_MEMORY_TRACKER_H_

#include <atomic>
#include <cstddef>

#include "common/status.h"

namespace bipie {

class AlignedBuffer;

class MemoryTracker {
 public:
  // `parent` must outlive this tracker (nullptr for a root).
  explicit MemoryTracker(MemoryTracker* parent = nullptr,
                         const char* label = "tracker")
      : parent_(parent), label_(label) {}

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  // The process-wide root every other tracker chains to. Never destroyed
  // (thread_local scratch buffers release against it at thread exit).
  static MemoryTracker& Process();

  // Accounts `bytes` against this tracker and every ancestor. Returns
  // false — after rolling back completely — when any hard limit on the
  // chain would be exceeded. Crossing a soft limit succeeds and latches
  // soft_limit_exceeded() on the tracker whose limit was crossed.
  [[nodiscard]] bool TryCharge(size_t bytes);

  // As TryCharge but ignores limits: used to transfer an existing charge
  // (the bytes are already allocated; refusing would strand them
  // unaccounted).
  void ForceCharge(size_t bytes);

  // Releases `bytes` from this tracker and every ancestor.
  void Release(size_t bytes);

  // Limits in bytes; 0 = unlimited.
  void set_hard_limit(size_t bytes) {
    hard_limit_.store(bytes, std::memory_order_relaxed);
  }
  void set_soft_limit(size_t bytes) {
    soft_limit_.store(bytes, std::memory_order_relaxed);
  }
  size_t hard_limit() const {
    return hard_limit_.load(std::memory_order_relaxed);
  }
  size_t soft_limit() const {
    return soft_limit_.load(std::memory_order_relaxed);
  }

  size_t used() const { return used_.load(std::memory_order_acquire); }
  size_t peak() const { return peak_.load(std::memory_order_acquire); }
  // Restarts peak tracking from the current usage (bench sampling).
  void ResetPeak() { peak_.store(used(), std::memory_order_release); }

  bool soft_limit_exceeded() const {
    return soft_exceeded_.load(std::memory_order_acquire);
  }
  void reset_soft_limit_exceeded() {
    soft_exceeded_.store(false, std::memory_order_release);
  }

  MemoryTracker* parent() const { return parent_; }
  const char* label() const { return label_; }

 private:
  // Charges one node; returns false on hard-limit breach (node unchanged).
  bool ChargeOne(size_t bytes);
  void ReleaseOne(size_t bytes);

  MemoryTracker* const parent_;
  const char* const label_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
  std::atomic<size_t> hard_limit_{0};
  std::atomic<size_t> soft_limit_{0};
  std::atomic<bool> soft_exceeded_{false};
};

// The tracker new AlignedBuffer growth on this thread is charged to.
// Defaults to the process root; never null.
MemoryTracker* CurrentMemoryTracker();

// Binds `tracker` as the thread-current tracker for the scope's lifetime
// (restores the previous binding on exit). A null tracker is a no-op scope.
// On exit, any registered thread-scratch buffer still charged to the bound
// tracker is re-homed to the process root: the scratch outlives the query,
// so its retained capacity must not keep a reference to the query tracker.
class MemoryTrackerScope {
 public:
  explicit MemoryTrackerScope(MemoryTracker* tracker);
  ~MemoryTrackerScope();

  MemoryTrackerScope(const MemoryTrackerScope&) = delete;
  MemoryTrackerScope& operator=(const MemoryTrackerScope&) = delete;

 private:
  MemoryTracker* bound_;
  MemoryTracker* prev_;
};

// Registers a long-lived (thread_local) scratch buffer with this thread's
// re-home list — see MemoryTrackerScope. Idempotent per buffer; the buffer
// must live until thread exit.
void RegisterThreadScratchBuffer(AlignedBuffer* buffer);

// Explicit accounting for allocations AlignedBuffer cannot see (std::vector
// growth in hash tables and run dictionaries). The owner calls Update with
// its current total footprint at natural checkpoints (per batch, per bind);
// the reservation charges the delta against the thread-current tracker at
// first use and releases everything on destruction.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  ~MemoryReservation() { Reset(); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;
  // Moving transfers the charge; the source is left empty.
  MemoryReservation(MemoryReservation&& other) noexcept
      : tracker_(other.tracker_), bytes_(other.bytes_) {
    other.tracker_ = nullptr;
    other.bytes_ = 0;
  }
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      Reset();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }

  // Adjusts the reservation to `total_bytes`. Shrinking always succeeds;
  // growing returns kResourceExhausted when the tracker's hard limit would
  // be exceeded (the reservation keeps its previous size).
  Status Update(size_t total_bytes);

  // Releases the whole reservation.
  void Reset();

  size_t bytes() const { return bytes_; }

 private:
  MemoryTracker* tracker_ = nullptr;
  size_t bytes_ = 0;
};

}  // namespace bipie

#endif  // BIPIE_COMMON_MEMORY_TRACKER_H_
