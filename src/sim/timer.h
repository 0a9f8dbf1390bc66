// One-shot rearmable timer — the idiom every protocol module uses for
// retransmission timeouts, delayed ACKs, idle timers, etc.
#pragma once

#include <functional>
#include <utility>

#include "common/types.h"
#include "sim/simulator.h"

namespace mpq::sim {

/// Set/reset/cancel semantics over the Simulator's event queue. The timer
/// embeds its queue node, which holds the callback; (re-)arming re-keys
/// that node in place, with no allocation. Events are tagged
/// EventKind::kTimer so the model-checking explorer can tell protocol
/// timers from network deliveries (timers reorder but never drop). The
/// timer does not own its callback's context; the owner must outlive any
/// armed timer (owners cancel in their destructors via RAII here).
class Timer {
 public:
  Timer(Simulator& sim, std::function<void()> callback) : sim_(sim) {
    node_.kind = EventKind::kTimer;
    node_.fn = std::move(callback);
  }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { Cancel(); }

  /// Arm (or re-arm) the timer to fire at absolute time `when`. The
  /// Simulator disarms the timer before invoking the callback, so the
  /// callback may re-arm freely.
  void SetAt(TimePoint when) { sim_.Arm(node_, when); }

  /// Arm (or re-arm) the timer to fire `delay` from now.
  void SetIn(Duration delay) { SetAt(sim_.now() + (delay < 0 ? 0 : delay)); }

  void Cancel() {
    if (armed()) sim_.RemoveAt(node_.heap_index);
  }

  bool armed() const { return node_.heap_index != Simulator::kNotQueued; }
  TimePoint deadline() const {
    return armed() ? sim_.WhenOf(node_) : kTimeInfinite;
  }

 private:
  Simulator& sim_;
  Simulator::Node node_;
};

}  // namespace mpq::sim
