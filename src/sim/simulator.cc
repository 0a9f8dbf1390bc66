#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "obs/prof.h"

namespace mpq::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

Simulator::~Simulator() {
  // Timers that outlive their Simulator (teardown paths only) must see
  // themselves disarmed so their destructors do not touch the dead heap.
  for (const Slot& slot : heap_) slot.node->heap_index = kNotQueued;
}

Simulator::EventId Simulator::ScheduleAt(TimePoint when, Callback fn,
                                         EventKind kind, std::uint32_t scope) {
  Node* node = nullptr;
  if (free_.empty()) {
    node = &pool_.emplace_back();
    node->one_shot = true;
  } else {
    node = free_.back();
    free_.pop_back();
  }
  node->kind = kind;
  node->scope = scope;
  node->fn = std::move(fn);
  return Arm(*node, when);
}

Simulator::EventId Simulator::Arm(Node& node, TimePoint when) {
  if (when < now_) when = now_;
  const Slot slot{when, next_id_++, &node};
  if (node.heap_index == kNotQueued) {
    heap_.push_back(slot);
    SiftUp(heap_.size() - 1, slot);
  } else if (Before(slot, heap_[node.heap_index])) {
    SiftUp(node.heap_index, slot);
  } else {
    SiftDown(node.heap_index, slot);
  }
  return slot.id;
}

void Simulator::SiftUp(std::size_t index, const Slot& slot) {
  while (index > 0) {
    const std::size_t parent = (index - 1) / kArity;
    if (!Before(slot, heap_[parent])) break;
    Place(index, heap_[parent]);
    index = parent;
  }
  Place(index, slot);
}

void Simulator::SiftDown(std::size_t index, const Slot& slot) {
  const std::size_t size = heap_.size();
  for (;;) {
    const std::size_t first = kArity * index + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (Before(heap_[child], heap_[best])) best = child;
    }
    if (!Before(heap_[best], slot)) break;
    Place(index, heap_[best]);
    index = best;
  }
  Place(index, slot);
}

void Simulator::RemoveAt(std::size_t index) {
  heap_[index].node->heap_index = kNotQueued;
  const Slot last = heap_.back();
  heap_.pop_back();
  if (index == heap_.size()) return;
  if (index > 0 && Before(last, heap_[(index - 1) / kArity])) {
    SiftUp(index, last);
  } else {
    SiftDown(index, last);
  }
}

void Simulator::Release(Node* node) {
  node->fn = nullptr;
  free_.push_back(node);
}

void Simulator::Fire(const Slot& slot) {
  ++events_executed_;
  // A Timer's callback stays in its node (the callback may re-arm it). A
  // one-shot callback is moved out and its node recycled first, so the
  // callback may freely schedule (and reuse that node) or cancel.
  Callback* fn = &slot.node->fn;
  Callback one_shot;
  if (slot.node->one_shot) {
    one_shot = std::move(*fn);
    Release(slot.node);
    fn = &one_shot;
  }
  // Root span of the engine: every protocol callback (and therefore
  // every nested dispatch/assembly/crypto/recovery span) runs inside
  // one simulated event, so "sim;event" inclusive time ≈ engine wall
  // time and its self time is the uninstrumented remainder.
  MPQ_PROF_SCOPE("sim/event");
  (*fn)();
}

std::size_t Simulator::Find(EventId id) const {
  for (std::size_t i = 0; i < heap_.size(); ++i) {
    if (heap_[i].id == id) return i;
  }
  return kNotQueued;
}

std::vector<Simulator::PendingEventInfo> Simulator::PendingEvents() const {
  std::vector<PendingEventInfo> out;
  out.reserve(heap_.size());
  for (const Slot& slot : heap_) {
    out.push_back({slot.id, slot.when, slot.node->kind, slot.node->scope});
  }
  std::sort(out.begin(), out.end(),
            [](const PendingEventInfo& a, const PendingEventInfo& b) {
              if (a.when != b.when) return a.when < b.when;
              return a.id < b.id;
            });
  return out;
}

bool Simulator::FireEvent(EventId id) {
  const std::size_t index = Find(id);
  if (index == kNotQueued) return false;
  const Slot slot = heap_[index];
  RemoveAt(index);
  if (slot.when > now_) now_ = slot.when;
  Fire(slot);
  return true;
}

Simulator::EventId Simulator::DuplicateEvent(EventId id, Duration extra_delay) {
  const std::size_t index = Find(id);
  if (index == kNotQueued) return 0;
  // The clone is a one-shot event invoking a copy of the callback; a
  // cloned timer leaves the original armed.
  const Slot& slot = heap_[index];
  const TimePoint when = slot.when + (extra_delay < 0 ? 0 : extra_delay);
  return ScheduleAt(when, slot.node->fn, slot.node->kind, slot.node->scope);
}

void Simulator::Cancel(EventId id) {
  const std::size_t index = Find(id);
  if (index == kNotQueued) return;
  Node* node = heap_[index].node;
  RemoveAt(index);
  if (node->one_shot) Release(node);
}

bool Simulator::RunOne(TimePoint until) {
  if (heap_.empty() || heap_[0].when > until) return false;
  const Slot top = heap_[0];
  RemoveAt(0);
  now_ = top.when;
  Fire(top);
  return true;
}

std::uint64_t Simulator::Run(TimePoint until) {
  std::uint64_t executed = 0;
  while (RunOne(until)) ++executed;
  return executed;
}

}  // namespace mpq::sim
