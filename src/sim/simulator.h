// Deterministic discrete-event simulator.
//
// This is the substrate that replaces the paper's Mininet testbed. All
// protocol stacks in this repository are event-driven state machines wired
// to a Simulator: link transmissions, propagation delays and protocol
// timers are all events on one queue, executed in strict timestamp order
// (FIFO among equal timestamps), so every run is exactly reproducible.
//
// Determinism contract: every pending event is keyed by (when, id) and
// fires in that order. Ids come from one monotonic counter that consumes
// exactly one id per ScheduleAt and one per Timer arm (SetAt/SetIn), so
// the firing order -- and with it every CSV, qlog and digest -- depends
// only on the sequence of those calls.
//
// The queue is one indexed 4-ary min-heap. Each heap slot holds its key
// inline and points at an intrusive node that records its own heap
// index. sim::Timer embeds a node and re-arms it in place (new key, one
// sift, no allocation); one-shot events take a node from a free list.
//
// Schedule control (docs/MODEL_CHECKING.md): events carry an EventKind
// and a scope tag, the pending set is enumerable (PendingEvents), and a
// specific pending event can be fired out of timestamp order (FireEvent)
// or duplicated (DuplicateEvent). Normal runs never use these hooks —
// Run/RunOne keep the strict (timestamp, id) order — but the mpq_model
// explorer uses them to branch over every delivery/timer interleaving a
// bounded amount of jitter could produce.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "common/types.h"

namespace mpq::sim {

/// What an event models — the explorer's choice vocabulary. Deliveries
/// are the adversary's targets (drop/duplicate model wire faults);
/// timers and generic events may only be reordered, never dropped.
enum class EventKind : std::uint8_t { kGeneric = 0, kDelivery = 1, kTimer = 2 };

class Timer;

class Simulator {
 public:
  using EventId = std::uint64_t;
  using Callback = std::function<void()>;

  /// One pending event as the explorer sees it. `scope` is an
  /// independence class assigned at schedule time (deliveries use
  /// 1 + destination node; 0 means "dependent with everything").
  struct PendingEventInfo {
    EventId id = 0;
    TimePoint when = 0;
    EventKind kind = EventKind::kGeneric;
    std::uint32_t scope = 0;
  };

  Simulator() = default;
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint now() const { return now_; }

  /// Schedule `fn` to run `delay` microseconds from now (delay < 0 is
  /// clamped to 0). Returns an id usable with Cancel().
  EventId Schedule(Duration delay, Callback fn,
                   EventKind kind = EventKind::kGeneric,
                   std::uint32_t scope = 0) {
    return ScheduleAt(now_ + (delay < 0 ? 0 : delay), std::move(fn), kind,
                      scope);
  }

  /// Schedule `fn` at absolute time `when` (clamped to now).
  EventId ScheduleAt(TimePoint when, Callback fn,
                     EventKind kind = EventKind::kGeneric,
                     std::uint32_t scope = 0);

  /// Cancel a pending event. Cancelling an already-fired or unknown id is
  /// a harmless no-op. O(n) scan of the queue: only the explorer and a
  /// micro-benchmark cancel by id; protocol code uses sim::Timer.
  void Cancel(EventId id);

  /// Run until the queue is empty or simulated time would exceed `until`.
  /// Returns the number of events executed.
  std::uint64_t Run(TimePoint until = kTimeInfinite);

  /// Execute exactly one runnable event. Returns false if the queue is
  /// empty or the next event is later than `until`.
  bool RunOne(TimePoint until = kTimeInfinite);

  // -- schedule-control hooks (explorer only; see header comment) --------

  /// Snapshot of every pending event, sorted by (when, id) — the same
  /// canonical order Run() would fire them in. O(n log n); the explorer
  /// calls it once per exploration step on tiny queues.
  std::vector<PendingEventInfo> PendingEvents() const;

  /// Execute the pending event `id` now, even if it is not the earliest:
  /// time advances to max(now, its scheduled time), so events skipped
  /// over simply fire late (the jitter interpretation of reordering).
  /// Returns false for unknown/cancelled ids.
  bool FireEvent(EventId id);

  /// Clone a pending event: the copy fires at `when + extra_delay` with a
  /// fresh id (FIFO places it after the original at equal times). Models
  /// wire duplication. Returns 0 for unknown ids.
  EventId DuplicateEvent(EventId id, Duration extra_delay = 0);

  bool empty() const { return heap_.empty(); }
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  friend class Timer;

  static constexpr std::size_t kNotQueued = static_cast<std::size_t>(-1);

  /// What a heap slot points at. Timers embed one; one-shot events own
  /// theirs through `pool_`.
  struct Node {
    std::size_t heap_index = kNotQueued;
    EventKind kind = EventKind::kGeneric;
    std::uint32_t scope = 0;
    bool one_shot = false;  // pooled: the callback is moved out to fire
    Callback fn;
  };
  struct Slot {
    TimePoint when;
    EventId id;
    Node* node;
  };
  static bool Before(const Slot& a, const Slot& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  }

  /// Queue `node` at `when` (clamped to now) under a fresh id, or re-key
  /// it in place if it is already queued. Returns the id.
  EventId Arm(Node& node, TimePoint when);
  TimePoint WhenOf(const Node& node) const {
    return heap_[node.heap_index].when;
  }

  std::size_t Find(EventId id) const;
  void Place(std::size_t index, const Slot& slot) {
    heap_[index] = slot;
    slot.node->heap_index = index;
  }
  void SiftUp(std::size_t index, const Slot& slot);
  void SiftDown(std::size_t index, const Slot& slot);
  /// Take the slot at `index` off the heap and mark its node unqueued.
  void RemoveAt(std::size_t index);
  /// Run a slot already removed from the heap; recycles one-shot nodes.
  void Fire(const Slot& slot);
  void Release(Node* node);

  TimePoint now_ = 0;
  EventId next_id_ = 1;
  std::uint64_t events_executed_ = 0;
  std::vector<Slot> heap_;
  std::deque<Node> pool_;  // every one-shot node (stable addresses)
  std::vector<Node*> free_;
};

}  // namespace mpq::sim
