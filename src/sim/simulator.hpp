// Discrete-event simulation kernel.
//
// Every action in the reproduction — frame arrivals, decode completions,
// power state transitions, DPM timeouts — is ordered by this kernel's clock
// and sequence counter.  Events fire in timestamp order; ties break in
// scheduling order so runs are fully deterministic.  Events are cancellable
// (a DPM policy cancels its pending sleep transition when a request
// arrives).
//
// Storage is allocation-lean: callbacks live in a generation-checked slot
// pool (recycled LIFO, so steady state touches the same few cache lines),
// an EventId packs (slot, generation) so stale handles are rejected in
// O(1), and the callback type keeps typical captures inline (see
// event_fn.hpp).  Cancelled events stay in the heap as tombstones until
// popped — but the heap compacts lazily whenever tombstones outnumber live
// events, so a cancel-heavy workload (a DPM policy cancelling a pending
// sleep on every arrival) keeps the heap within a constant factor of the
// live event count instead of growing without bound.
//
// A client may also keep frequent actions outside the heap (core::Engine
// does for its per-frame path).  It reserves each action's rank from the
// kernel's sequence counter at the point where it would have scheduled the
// event, and runs its own loop: execute whichever ranks first, the heap top
// (step()) or its own earliest action (advance_to() its time, then run it).
// Because heap events and reserved actions share one counter, the global
// order is exactly the order the same actions would have had as events.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "common/units.hpp"
#include "sim/event_fn.hpp"

namespace dvs::sim {

/// Opaque handle to a scheduled event; valid until the event fires or is
/// cancelled.  Packs (slot, generation) so reuse of storage never aliases
/// a stale handle.
struct EventId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const { return value != 0; }
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

/// Position in the global execution order: timestamp first, then the
/// scheduling sequence number (FIFO among equal timestamps).  The default
/// value is "none", which ranks after every real rank.
struct Rank {
  /// The rank as one unsigned integer: the IEEE-754 bits of `at` above
  /// `seq`.  For a non-negative time (+0.0 up to +inf) the bit pattern
  /// grows with the value, so the key orders by time, then seq, with
  /// none() the largest key.  It is the one definition of the order:
  /// operator< compares keys.  A -0.0 would sort after +inf; the kernel
  /// never hands one out (reserve() and schedule_at() canonicalize it to
  /// +0.0).  Keys compare without a data-dependent branch, which is what a
  /// client's argmin over its pending ranks wants.
  using Key = unsigned __int128;

  double at = std::numeric_limits<double>::infinity();
  std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();

  [[nodiscard]] bool none() const {
    return seq == std::numeric_limits<std::uint64_t>::max();
  }
  [[nodiscard]] Key key() const {
    return (static_cast<Key>(std::bit_cast<std::uint64_t>(at)) << 64) | seq;
  }
  friend bool operator<(const Rank& a, const Rank& b) {
    return a.key() < b.key();
  }
};

/// Kernel-level instrumentation counters (obs::MetricsRegistry feeds on
/// these; tests assert the compaction bound through them).  They count heap
/// events only: actions run from reserved ranks never enter the heap.
struct SimulatorStats {
  std::uint64_t scheduled = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t tombstones_purged = 0;  ///< skipped on pop or compacted away
  std::uint64_t compactions = 0;
  std::size_t max_heap_size = 0;  ///< high-water mark incl. tombstones
};

/// Event-driven simulator with a monotonically advancing clock.
class Simulator {
 public:
  using Callback = EventFn;

  Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at 0.
  [[nodiscard]] Seconds now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (must be >= now()).
  EventId schedule_at(Seconds at, Callback fn);

  /// Schedules `fn` to run `delay` from now (delay must be >= 0).
  EventId schedule_in(Seconds delay, Callback fn);

  /// Cancels a pending event.  Returns true if the event was pending (and is
  /// now guaranteed not to fire); false if it already fired, was already
  /// cancelled, or the id is invalid.
  bool cancel(EventId id);

  /// True if an event with this id is still pending.
  [[nodiscard]] bool pending(EventId id) const;

  /// Reserves the rank an event scheduled at `at` (must be >= now()) would
  /// get right now, without scheduling anything.  The caller executes the
  /// action itself when no heap event ranks before it.
  Rank reserve(Seconds at) {
    DVS_CHECK_MSG(at.value() >= now_.value(), "cannot schedule into the past");
    return Rank{canonical_time(at.value()), next_seq_++};
  }

  /// Rank of the next live heap event (cancelled entries are dropped
  /// first); none() when no event is pending.  The empty test is inline:
  /// a client whose frequent actions live outside the heap usually finds
  /// it empty and never pays the call.
  Rank next_rank() {
    if (heap_.empty()) return Rank{};
    skip_tombstones();
    if (heap_.empty()) return Rank{};
    return heap_.front().rank;
  }

  /// Moves the clock to `at` (must be >= now()) to execute a reserved
  /// action there.
  void advance_to(Seconds at) {
    DVS_CHECK_MSG(at.value() >= now_.value(), "time moved backwards");
    now_ = at;
  }

  /// Number of events waiting to fire.
  [[nodiscard]] std::size_t pending_count() const { return live_; }

  /// Runs a single event.  Returns false if the queue is empty.
  bool step();

  /// Runs until the queue drains or `stop()` is called.
  void run();

  /// Runs events with timestamp <= horizon, then sets the clock to exactly
  /// `horizon` (even if no event lands on it).  Stops early on stop().
  void run_until(Seconds horizon);

  /// Requests that run()/run_until() return after the current event.
  void stop() { stop_requested_ = true; }

  [[nodiscard]] bool stop_requested() const { return stop_requested_; }

  /// Total number of events executed so far (for microbenchmarks and tests).
  [[nodiscard]] std::uint64_t executed_count() const { return stats_.executed; }

  /// Kernel counters for observability.
  [[nodiscard]] const SimulatorStats& stats() const { return stats_; }

  /// Heap entries including tombstones; bounded by the lazy compaction at
  /// < max(2 * pending_count(), compaction floor) + 1.
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

 private:
  struct Scheduled {
    Rank rank;
    std::uint32_t slot;
    std::uint32_t gen;
    // Ordering for a min-heap via std::greater.
    friend bool operator>(const Scheduled& a, const Scheduled& b) {
      return b.rank < a.rank;
    }
  };

  /// Pool slot: the callback of the occupying event plus the generation
  /// that validates EventIds and heap entries against slot reuse.  The
  /// generation bumps on every release (fire or cancel), so a heap entry
  /// or handle whose generation mismatches is dead.
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Maps -0.0 to +0.0 (and leaves every other time alone), so every rank
  /// the kernel hands out has a key that orders like its time.
  static double canonical_time(double at) { return at + 0.0; }

  static EventId pack(std::uint32_t slot, std::uint32_t gen) {
    return EventId{(static_cast<std::uint64_t>(gen) << 32) |
                   (static_cast<std::uint64_t>(slot) + 1)};
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id.value & 0xffffffffu) - 1;
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id.value >> 32);
  }

  /// True when the heap entry still refers to the live occupant of its slot.
  [[nodiscard]] bool live_entry(const Scheduled& s) const {
    return slots_[s.slot].gen == s.gen;
  }

  EventId schedule_impl(double at, Callback fn);
  std::uint32_t claim_slot();
  void release_slot(std::uint32_t slot);
  void execute_next();
  void pop_heap_top();
  void skip_tombstones();
  void maybe_compact();

  Seconds now_{0.0};
  std::uint64_t next_seq_ = 0;
  bool stop_requested_ = false;
  // Min-heap over (at, seq) maintained with std::push_heap/pop_heap so the
  // storage is reachable for compaction.
  std::vector<Scheduled> heap_;
  std::size_t tombstones_ = 0;  ///< heap entries whose event was cancelled
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;  ///< slots currently holding a pending event
  SimulatorStats stats_;
};

}  // namespace dvs::sim
