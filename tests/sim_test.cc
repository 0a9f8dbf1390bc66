// Unit tests for the discrete-event simulator and the network model:
// event ordering, timers and the one (when, id) queue they share with
// one-shot events (including the explorer hooks), link bandwidth and
// propagation math, drop-tail queues, random loss, routing, and the
// Fig. 2 topology builder.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "sim/net.h"
#include "sim/simulator.h"
#include "sim/timer.h"
#include "sim/topology.h"

namespace mpq::sim {
namespace {

TEST(Simulator, ExecutesInTimestampOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(300, [&] { order.push_back(3); });
  sim.Schedule(100, [&] { order.push_back(1); });
  sim.Schedule(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 300);
}

TEST(Simulator, FifoAmongEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.Schedule(100, [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, CancelUnknownIdIsNoop) {
  Simulator sim;
  sim.Cancel(999);  // must not crash or affect anything
  EXPECT_TRUE(sim.empty());
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 10) sim.Schedule(10, recurse);
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 90);
}

TEST(Simulator, RunUntilStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.Schedule(i * 100, [&] { ++count; });
  }
  sim.Run(/*until=*/450);
  EXPECT_EQ(count, 4);
  sim.Run();
  EXPECT_EQ(count, 10);
}

TEST(Simulator, PastDeadlineClampsToNow) {
  Simulator sim;
  sim.Schedule(100, [&] {
    TimePoint fired_at = -1;
    sim.ScheduleAt(50, [&, start = sim.now()] { fired_at = sim.now(); });
    (void)fired_at;
  });
  sim.Run();  // must not hang or go backwards
  EXPECT_EQ(sim.now(), 100);
}

TEST(Timer, RearmAndCancel) {
  Simulator sim;
  int fired = 0;
  Timer timer(sim, [&] { ++fired; });
  timer.SetIn(100);
  timer.SetIn(200);  // re-arm replaces the old deadline
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 200);

  timer.SetIn(100);
  timer.Cancel();
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, ArmedStateTracksLifecycle) {
  Simulator sim;
  Timer timer(sim, [] {});
  EXPECT_FALSE(timer.armed());
  timer.SetIn(10);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 10);
  sim.Run();
  EXPECT_FALSE(timer.armed());
}

// ---------------------------------------------------------------------------
// One event queue: Timers and one-shot events share the (when, id) order.

TEST(SimulatorQueue, TimersAndScheduledEventsInterleaveById) {
  Simulator sim;
  std::vector<int> order;
  Timer t1(sim, [&] { order.push_back(1); });
  t1.SetAt(100);  // id 1
  sim.ScheduleAt(100, [&] { order.push_back(2); });  // id 2
  Timer t3(sim, [&] { order.push_back(3); });
  t3.SetAt(100);  // id 3
  sim.ScheduleAt(50, [&] { order.push_back(0); });  // id 4, earlier time
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SimulatorQueue, ReArmConsumesOneIdPerArm) {
  // A timer re-armed n times must consume exactly n ids, which the
  // byte-identity of digests and qlogs depends on.
  Simulator sim;
  Timer timer(sim, [] {});
  timer.SetAt(10);
  timer.SetAt(20);
  timer.SetAt(30);                                  // ids 1, 2, 3
  const auto id = sim.ScheduleAt(40, [] {});        // must be id 4
  EXPECT_EQ(id, 4u);
  sim.Run();
}

TEST(SimulatorQueue, ReArmFromInsideCallback) {
  // Classic periodic timer: the callback re-arms its own Timer. The
  // Simulator dequeues the timer before invoking it, so this must not
  // corrupt the queue.
  Simulator sim;
  int ticks = 0;
  Timer periodic(sim, [&] {
    ++ticks;
    if (ticks < 5) periodic.SetIn(1000);
  });
  periodic.SetIn(1000);
  sim.Run();
  EXPECT_EQ(ticks, 5);
  EXPECT_EQ(sim.now(), 5000);
}

TEST(SimulatorQueue, CancelByEventIdReachesTimer) {
  Simulator sim;
  bool fired = false;
  Timer timer(sim, [&] { fired = true; });
  timer.SetAt(100);
  // The arm consumed id 1; Simulator::Cancel must find the timer by it.
  sim.Cancel(1);
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(timer.armed());
}

TEST(SimulatorQueue, PendingEventsListsTimers) {
  Simulator sim;
  Timer timer(sim, [] {});
  timer.SetAt(500);                                    // id 1
  sim.ScheduleAt(300, [] {}, EventKind::kDelivery, 7); // id 2
  const auto pending = sim.PendingEvents();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, 2u);
  EXPECT_EQ(pending[0].when, 300);
  EXPECT_EQ(pending[0].kind, EventKind::kDelivery);
  EXPECT_EQ(pending[0].scope, 7u);
  EXPECT_EQ(pending[1].id, 1u);
  EXPECT_EQ(pending[1].when, 500);
  EXPECT_EQ(pending[1].kind, EventKind::kTimer);
  EXPECT_EQ(pending[1].scope, 0u);
}

TEST(SimulatorQueue, FireEventOutOfOrderFiresLate) {
  // Explorer semantics: firing the *later* timer first advances time to
  // its deadline; the earlier timer then fires "late" at that same time.
  Simulator sim;
  std::vector<std::pair<int, TimePoint>> fired;
  Timer early(sim, [&] { fired.push_back({1, sim.now()}); });
  Timer late(sim, [&] { fired.push_back({2, sim.now()}); });
  early.SetAt(100);  // id 1
  late.SetAt(900);   // id 2
  ASSERT_TRUE(sim.FireEvent(2));
  ASSERT_TRUE(sim.FireEvent(1));
  EXPECT_EQ(fired, (std::vector<std::pair<int, TimePoint>>{{2, 900},
                                                           {1, 900}}));
  EXPECT_TRUE(sim.empty());
  // Unknown ids are rejected.
  EXPECT_FALSE(sim.FireEvent(99));
}

TEST(SimulatorQueue, DuplicateEventClonesTimer) {
  Simulator sim;
  int fires = 0;
  Timer timer(sim, [&] { ++fires; });
  timer.SetAt(100);  // id 1
  const auto copy = sim.DuplicateEvent(1, 50);
  EXPECT_NE(copy, 0u);
  sim.Run();
  // Original at 100 and the clone at 150 both invoke the callback.
  EXPECT_EQ(fires, 2);
  EXPECT_EQ(sim.now(), 150);
}

TEST(SimulatorQueue, TimerDeadlineTracksArmState) {
  Simulator sim;
  Timer timer(sim, [] {});
  EXPECT_EQ(timer.deadline(), kTimeInfinite);
  timer.SetAt(250);
  EXPECT_TRUE(timer.armed());
  EXPECT_EQ(timer.deadline(), 250);
  sim.Run();
  // After firing the timer reports disarmed/infinite.
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(timer.deadline(), kTimeInfinite);
  timer.SetIn(100);
  timer.Cancel();
  EXPECT_EQ(timer.deadline(), kTimeInfinite);
  EXPECT_FALSE(timer.armed());
}

TEST(SimulatorQueue, ManyTimersFireInDeadlineOrder) {
  // Hundreds of timers with deadlines spread over five decades fire in
  // exact deadline order under Run().
  Simulator sim;
  Rng rng(42);
  std::vector<std::unique_ptr<Timer>> timers;
  std::vector<TimePoint> fired;
  std::vector<TimePoint> expected;
  for (int i = 0; i < 400; ++i) {
    const auto when =
        static_cast<TimePoint>(rng.NextU64() % 100'000'000);  // up to 100 s
    expected.push_back(when);
    timers.push_back(std::make_unique<Timer>(
        sim, [&fired, &sim] { fired.push_back(sim.now()); }));
    timers.back()->SetAt(when);
  }
  sim.Run();
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
}

TEST(SimulatorQueue, DestroyingArmedTimerRemovesItFromQueue) {
  // Timers destroyed while armed leave the queue; everything else still
  // fires in (when, id) order.
  Simulator sim;
  std::vector<int> fired;
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < 40; ++i) {
    timers.push_back(
        std::make_unique<Timer>(sim, [&fired, i] { fired.push_back(i); }));
    timers.back()->SetAt(1000 - 25 * (i % 8));  // ids 1..40, 8 deadlines
  }
  sim.ScheduleAt(900, [&fired] { fired.push_back(100); });  // id 41
  for (int i = 0; i < 40; i += 3) timers[static_cast<std::size_t>(i)].reset();
  EXPECT_EQ(sim.PendingEvents().size(), 40u - 14u + 1u);

  std::vector<std::pair<TimePoint, int>> expected = {{900, 100}};
  for (int i = 0; i < 40; ++i) {
    if (i % 3 != 0) expected.push_back({1000 - 25 * (i % 8), i});
  }
  // Equal deadlines fire by id, and timer i was armed with id i + 1.
  std::sort(expected.begin(), expected.end());
  sim.Run();
  std::vector<int> want;
  for (const auto& [when, tag] : expected) want.push_back(tag);
  EXPECT_EQ(fired, want);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorQueue, TimerMayOutliveItsSimulator) {
  auto sim = std::make_unique<Simulator>();
  Timer timer(*sim, [] {});
  timer.SetAt(100);
  sim.reset();
  EXPECT_FALSE(timer.armed());
}

TEST(SimulatorProperty, TimersMatchNaiveReferenceUnderRandomOps) {
  // Random arm / re-arm earlier / re-arm later / cancel over 64 Timers,
  // mixed with one-shot ScheduleAt events, Cancel(id) and RunOne, against
  // a naive "scan everything" (when, id) reference. Deadlines reach
  // 2^36 us.
  constexpr int kTimers = 64;
  constexpr int kOps = 4000;
  Rng rng(0xABCDEF);
  Simulator sim;
  int fired = -1;
  std::vector<std::unique_ptr<Timer>> timers;
  for (int i = 0; i < kTimers; ++i) {
    timers.push_back(std::make_unique<Timer>(sim, [&fired, i] { fired = i; }));
  }
  struct Ref {
    TimePoint when;
    Simulator::EventId id;
    int tag;  // timer index, or kTimers + n for the n-th one-shot
  };
  std::vector<Ref> pending;
  std::vector<Simulator::EventId> issued;
  Simulator::EventId next_id = 1;
  int one_shots = 0;

  auto drop_tag = [&pending](int tag) {
    std::erase_if(pending, [tag](const Ref& r) { return r.tag == tag; });
  };
  auto earliest = [&pending]() {
    return std::min_element(pending.begin(), pending.end(),
                            [](const Ref& a, const Ref& b) {
                              return a.when != b.when ? a.when < b.when
                                                      : a.id < b.id;
                            });
  };
  auto random_span = [&rng]() {
    const int shift = static_cast<int>(rng.NextU64() % 36);
    return static_cast<Duration>(rng.NextU64() & ((1ULL << shift) | 0xFF));
  };

  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t pick = rng.NextU64() % 100;
    const int i = static_cast<int>(rng.NextU64() % kTimers);
    Timer& timer = *timers[static_cast<std::size_t>(i)];
    if (pick < 40) {
      // Arm, or re-arm earlier / later than the current deadline.
      TimePoint when = sim.now() + random_span();
      if (timer.armed() && pick < 15) {
        when = sim.now() + (timer.deadline() - sim.now()) / 2;
      } else if (timer.armed() && pick < 25) {
        when = timer.deadline() + random_span();
      }
      timer.SetAt(when);
      drop_tag(i);
      pending.push_back({when, next_id, i});
      issued.push_back(next_id++);
    } else if (pick < 50) {
      timer.Cancel();
      drop_tag(i);
    } else if (pick < 65) {
      const TimePoint when = sim.now() + random_span();
      const int tag = kTimers + one_shots++;
      const auto id = sim.ScheduleAt(when, [&fired, tag] { fired = tag; });
      ASSERT_EQ(id, next_id);
      pending.push_back({when, next_id, tag});
      issued.push_back(next_id++);
    } else if (pick < 75) {
      // Cancel by id: a pending timer or one-shot, or a spent id (no-op).
      const auto id = issued[rng.NextU64() % issued.size()];
      sim.Cancel(id);
      std::erase_if(pending, [id](const Ref& r) { return r.id == id; });
    } else {
      const bool ran = sim.RunOne();
      if (pending.empty()) {
        EXPECT_FALSE(ran);
        continue;
      }
      ASSERT_TRUE(ran);
      const auto want = earliest();
      EXPECT_EQ(fired, want->tag);
      EXPECT_EQ(sim.now(), want->when);
      pending.erase(want);
    }
    ASSERT_EQ(sim.PendingEvents().size(), pending.size()) << "op " << op;
    for (int t = 0; t < kTimers; ++t) {
      const bool armed = std::any_of(pending.begin(), pending.end(),
                                     [t](const Ref& r) { return r.tag == t; });
      ASSERT_EQ(timers[static_cast<std::size_t>(t)]->armed(), armed)
          << "op " << op << " timer " << t;
    }
  }
  // The snapshot and the drain both follow the reference order.
  std::sort(pending.begin(), pending.end(), [](const Ref& a, const Ref& b) {
    return a.when != b.when ? a.when < b.when : a.id < b.id;
  });
  const auto snapshot = sim.PendingEvents();
  ASSERT_EQ(snapshot.size(), pending.size());
  for (std::size_t k = 0; k < pending.size(); ++k) {
    EXPECT_EQ(snapshot[k].id, pending[k].id);
    EXPECT_EQ(snapshot[k].when, pending[k].when);
    ASSERT_TRUE(sim.RunOne());
    EXPECT_EQ(fired, pending[k].tag);
  }
  EXPECT_TRUE(sim.empty());
}

// ---------------------------------------------------------------------------
// Links

LinkConfig MakeLink(double mbps, Duration prop, ByteCount queue = ByteCount{1 << 20},
                    double loss = 0.0) {
  LinkConfig c;
  c.capacity_mbps = mbps;
  c.propagation_delay = prop;
  c.queue_capacity_bytes = queue;
  c.random_loss_rate = loss;
  c.per_packet_overhead = ByteCount{0};  // keep the math exact for tests
  return c;
}

TEST(Link, DeliveryDelayIsTransmissionPlusPropagation) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 10 * kMillisecond), Rng(1));
  TimePoint delivered_at = -1;
  link.SetDeliveryHandler([&](Datagram&&) { delivered_at = sim.now(); });
  // 1000 bytes at 8 Mbps = 1 ms serialization + 10 ms propagation.
  link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  sim.Run();
  EXPECT_EQ(delivered_at, 11 * kMillisecond);
}

TEST(Link, BackToBackPacketsSerialize) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 0), Rng(1));
  std::vector<TimePoint> deliveries;
  link.SetDeliveryHandler([&](Datagram&&) { deliveries.push_back(sim.now()); });
  for (int i = 0; i < 3; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  }
  sim.Run();
  ASSERT_EQ(deliveries.size(), 3u);
  EXPECT_EQ(deliveries[0], 1 * kMillisecond);
  EXPECT_EQ(deliveries[1], 2 * kMillisecond);
  EXPECT_EQ(deliveries[2], 3 * kMillisecond);
}

TEST(Link, QueueOverflowDropsTail) {
  Simulator sim;
  // Queue of 3000 bytes: two 1000-byte packets queue (one transmitting,
  // one waiting), subsequent ones drop until space frees.
  Link link(sim, MakeLink(8.0, 0, /*queue=*/ByteCount{3000}), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  }
  sim.Run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(link.stats().dropped_queue_full, 7u);
  EXPECT_EQ(link.stats().offered, 10u);
}

TEST(Link, QueueDrainsOverTime) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 0, /*queue=*/ByteCount{3000}), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  // Offer one packet per 2 ms — well under capacity; nothing must drop.
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(i * 2 * kMillisecond, [&link] {
      link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, 10);
  EXPECT_EQ(link.stats().dropped_queue_full, 0u);
}

TEST(Link, RandomLossRateIsApplied) {
  Simulator sim;
  Link link(sim, MakeLink(1000.0, 0, ByteCount{1 << 24}, /*loss=*/0.3), Rng(5));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sim.Schedule(i * 20, [&link] {
      link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
    });
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(delivered) / n, 0.7, 0.02);
  EXPECT_NEAR(static_cast<double>(link.stats().dropped_random) / n, 0.3,
              0.02);
}

TEST(Link, LossRateChangeMidRunTakesEffect) {
  Simulator sim;
  Link link(sim, MakeLink(1000.0, 0), Rng(5));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  sim.Run();
  EXPECT_EQ(delivered, 1);
  link.SetRandomLossRate(1.0);  // the handover scenario's "path dies"
  for (int i = 0; i < 50; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  }
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Link, PerPacketOverheadCountsOnWire) {
  Simulator sim;
  LinkConfig c = MakeLink(8.0, 0);
  c.per_packet_overhead = ByteCount{28};
  Link link(sim, c, Rng(1));
  TimePoint delivered_at = -1;
  link.SetDeliveryHandler([&](Datagram&&) { delivered_at = sim.now(); });
  link.Transmit({{}, {}, std::vector<std::uint8_t>(972)});  // 1000 on wire
  sim.Run();
  EXPECT_EQ(delivered_at, 1 * kMillisecond);
}

TEST(Link, ZeroCapacityRejected) {
  Simulator sim;
  LinkConfig c = MakeLink(0.0, 0);
  EXPECT_THROW(Link(sim, c, Rng(1)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Network routing and sockets

TEST(Network, RoutesBySourceInterface) {
  Simulator sim;
  Network net(sim, Rng(3));
  const Address a{1, 0}, b{2, 0};
  net.AddDuplexLink(a, b, MakeLink(10, kMillisecond), MakeLink(10, kMillisecond));
  auto* sa = net.CreateSocket(a);
  auto* sb = net.CreateSocket(b);
  int got_at_b = 0, got_at_a = 0;
  sb->SetReceiveHandler([&](const Datagram& d) {
    ++got_at_b;
    EXPECT_EQ(d.src, a);
  });
  sa->SetReceiveHandler([&](const Datagram&) { ++got_at_a; });
  sa->Send(b, std::vector<std::uint8_t>(100));
  sim.Run();
  EXPECT_EQ(got_at_b, 1);
  sb->Send(a, std::vector<std::uint8_t>(100));
  sim.Run();
  EXPECT_EQ(got_at_a, 1);
}

TEST(Network, UnroutableDestinationIsDropped) {
  Simulator sim;
  Network net(sim, Rng(3));
  const Address a{1, 0}, b{2, 0}, c{3, 0};
  net.AddDuplexLink(a, b, MakeLink(10, 0), MakeLink(10, 0));
  auto* sa = net.CreateSocket(a);
  sa->Send(c, std::vector<std::uint8_t>(10));  // no link a->c
  sim.Run();  // must not crash; nothing delivered
  SUCCEED();
}

TEST(Network, DoubleBindThrows) {
  Simulator sim;
  Network net(sim, Rng(3));
  net.CreateSocket({1, 0});
  EXPECT_THROW(net.CreateSocket({1, 0}), std::invalid_argument);
}

TEST(Network, RebindAfterCloseWorks) {
  Simulator sim;
  Network net(sim, Rng(3));
  net.CreateSocket({1, 0});
  net.CloseSocket({1, 0});
  EXPECT_NO_THROW(net.CreateSocket({1, 0}));
}

// ---------------------------------------------------------------------------
// Topology

TEST(Topology, QueueCapacityFromQueuingDelay) {
  // 8 Mbps * 100 ms = 100 KB of buffer.
  EXPECT_EQ(QueueCapacityBytes(8.0, 100 * kMillisecond), 100'000u);
}

TEST(Topology, BuildsTwoDisjointDuplexPaths) {
  Simulator sim;
  Network net(sim, Rng(4));
  std::array<PathParams, 2> params;
  params[0].capacity_mbps = 10;
  params[0].rtt = 40 * kMillisecond;
  params[1].capacity_mbps = 2;
  params[1].rtt = 100 * kMillisecond;
  auto topo = BuildTwoPathTopology(net, params);

  // Propagation is RTT/2 per direction.
  EXPECT_EQ(topo.forward[0]->config().propagation_delay, 20 * kMillisecond);
  EXPECT_EQ(topo.backward[1]->config().propagation_delay, 50 * kMillisecond);

  // End-to-end echo over each path.
  for (int i = 0; i < 2; ++i) {
    auto* cs = net.CreateSocket(topo.client_addr[i]);
    auto* ss = net.CreateSocket(topo.server_addr[i]);
    bool echoed = false;
    ss->SetReceiveHandler([&, ss](const Datagram& d) {
      ss->Send(d.src, std::vector<std::uint8_t>(10));
    });
    cs->SetReceiveHandler([&](const Datagram&) { echoed = true; });
    cs->Send(topo.server_addr[i], std::vector<std::uint8_t>(10));
    sim.Run();
    EXPECT_TRUE(echoed) << "path " << i;
  }
}


TEST(Link, JitterBoundsAndReorders) {
  Simulator sim;
  LinkConfig c = MakeLink(1000.0, 10 * kMillisecond);
  c.jitter = 5 * kMillisecond;
  Link link(sim, c, Rng(9));
  std::vector<int> arrival_order;
  std::vector<TimePoint> send_times;
  int next_tag = 0;
  link.SetDeliveryHandler([&](Datagram&& d) {
    arrival_order.push_back(d.payload[0]);
  });
  // 50 small packets in a burst: with 5 ms of jitter over ~0.8 us
  // serialization gaps, reordering is certain.
  for (int i = 0; i < 50; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(next_tag++)}});
    send_times.push_back(sim.now());
  }
  sim.Run();
  ASSERT_EQ(arrival_order.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < arrival_order.size(); ++i) {
    if (arrival_order[i] < arrival_order[i - 1]) reordered = true;
  }
  EXPECT_TRUE(reordered);
  // Everything still arrives within base + jitter + serialization time.
  EXPECT_LE(sim.now(), 10 * kMillisecond + 5 * kMillisecond +
                           1 * kMillisecond);
}

TEST(Link, DownLinkEatsEverythingUntilUp) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 1 * kMillisecond), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });

  link.SetDown(true);
  for (int i = 0; i < 5; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  }
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().dropped_link_down, 5u);

  link.SetDown(false);
  link.Transmit({{}, {}, std::vector<std::uint8_t>(100)});
  sim.Run();
  EXPECT_EQ(delivered, 1);
}

TEST(Link, DownAppliedMidSerializationEatsPacket) {
  // A packet still on the serializer when the link goes down is lost
  // with it (the wire went dark), exactly like rate-1.0 random loss.
  // 1000 B at 0.8 Mbps = 10 ms serialization; the cut lands at 2 ms.
  Simulator sim;
  Link link(sim, MakeLink(0.8, 10 * kMillisecond), Rng(1));
  int delivered = 0;
  link.SetDeliveryHandler([&](Datagram&&) { ++delivered; });
  link.Transmit({{}, {}, std::vector<std::uint8_t>(1000)});
  sim.Schedule(2 * kMillisecond, [&] { link.SetDown(true); });
  sim.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(link.stats().dropped_link_down, 1u);
}

TEST(Link, GilbertElliottBurstsLoss) {
  // With sticky states (rare transitions) and loss only in the bad
  // state, drops must arrive in runs, not independently.
  Simulator sim;
  LinkConfig config = MakeLink(1000.0, 0);
  config.gilbert_elliott.enabled = true;
  config.gilbert_elliott.good_to_bad = 0.02;
  config.gilbert_elliott.bad_to_good = 0.1;
  config.gilbert_elliott.loss_good = 0.0;
  config.gilbert_elliott.loss_bad = 1.0;
  Link link(sim, config, Rng(7));
  std::vector<bool> outcome;  // true = delivered
  int sent = 0;
  link.SetDeliveryHandler([&](Datagram&& d) {
    outcome[d.payload[0]] = true;
  });
  for (int i = 0; i < 200; ++i) {
    outcome.push_back(false);
    link.Transmit({{}, {}, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(sent++)}});
    sim.Run();
  }
  int losses = 0;
  int loss_runs = 0;
  for (std::size_t i = 0; i < outcome.size(); ++i) {
    if (outcome[i]) continue;
    ++losses;
    if (i == 0 || outcome[i - 1]) ++loss_runs;
  }
  EXPECT_GT(losses, 10);
  EXPECT_LT(losses, 190);
  // Bursty: far fewer runs than losses (independent loss at the same
  // rate would give runs ~= losses).
  EXPECT_LT(loss_runs * 2, losses);
}

TEST(Link, ApplyFaultReconfiguresCapacityAndDelay) {
  Simulator sim;
  Link link(sim, MakeLink(8.0, 10 * kMillisecond), Rng(1));
  LinkFault fault;
  fault.kind = LinkFault::Kind::kReconfigure;
  fault.capacity_mbps = 16.0;
  fault.propagation_delay = 20 * kMillisecond;
  link.ApplyFault(fault);
  EXPECT_EQ(link.config().capacity_mbps, 16.0);
  EXPECT_EQ(link.config().propagation_delay, 20 * kMillisecond);

  // Zero-valued fields leave the current configuration untouched.
  LinkFault partial;
  partial.kind = LinkFault::Kind::kReconfigure;
  partial.propagation_delay = 5 * kMillisecond;
  link.ApplyFault(partial);
  EXPECT_EQ(link.config().capacity_mbps, 16.0);
  EXPECT_EQ(link.config().propagation_delay, 5 * kMillisecond);
}

TEST(Topology, ScheduledFaultsApplyToBothDirectionsAndNotify) {
  Simulator sim;
  Network net(sim, Rng(4));
  std::array<PathParams, 2> params;
  auto topo = BuildTwoPathTopology(net, params);

  FaultSchedule schedule;
  PathFault down;
  down.time = 10 * kMillisecond;
  down.path = 1;
  down.kind = LinkFault::Kind::kDown;
  PathFault up = down;
  up.time = 30 * kMillisecond;
  up.kind = LinkFault::Kind::kUp;
  schedule = {down, up};

  std::vector<std::string> observed;
  SchedulePathFaults(sim, topo, schedule, [&](const PathFault& fault) {
    observed.push_back(std::to_string(fault.path) + ":" +
                       ToString(fault.kind));
  });

  sim.Run(20 * kMillisecond);
  EXPECT_TRUE(topo.forward[1]->down());
  EXPECT_TRUE(topo.backward[1]->down());
  EXPECT_FALSE(topo.forward[0]->down());
  sim.Run(40 * kMillisecond);
  EXPECT_FALSE(topo.forward[1]->down());
  EXPECT_FALSE(topo.backward[1]->down());
  ASSERT_EQ(observed.size(), 2u);
  EXPECT_EQ(observed[0], "1:down");
  EXPECT_EQ(observed[1], "1:up");
}

TEST(Link, ZeroJitterPreservesOrder) {
  Simulator sim;
  Link link(sim, MakeLink(1000.0, 10 * kMillisecond), Rng(9));
  std::vector<int> arrival_order;
  int next_tag = 0;
  link.SetDeliveryHandler([&](Datagram&& d) {
    arrival_order.push_back(d.payload[0]);
  });
  for (int i = 0; i < 20; ++i) {
    link.Transmit({{}, {}, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(next_tag++)}});
  }
  sim.Run();
  for (std::size_t i = 1; i < arrival_order.size(); ++i) {
    EXPECT_GT(arrival_order[i], arrival_order[i - 1]);
  }
}


// ---------------------------------------------------------------------------
// Model-based property test: the Simulator against a naive reference.

TEST(SimulatorProperty, MatchesNaiveReferenceUnderRandomOps) {
  // Random mix of schedule/cancel operations, executed on the real
  // Simulator and on a trivially correct reference (sorted vector with
  // stable FIFO ordering). Firing orders must be identical.
  Rng rng(20260705);
  for (int round = 0; round < 50; ++round) {
    Simulator sim;
    struct RefEvent {
      TimePoint when;
      std::uint64_t seq;
      int tag;
      bool cancelled = false;
    };
    std::vector<RefEvent> reference;
    std::vector<Simulator::EventId> ids;
    std::vector<int> fired_real;
    std::uint64_t seq = 0;

    const int ops = 40;
    for (int op = 0; op < ops; ++op) {
      if (!ids.empty() && rng.NextBool(0.25)) {
        // Cancel a random still-known event (possibly already cancelled —
        // must be harmless in both).
        const std::size_t pick = rng.NextBounded(ids.size());
        sim.Cancel(ids[pick]);
        reference[pick].cancelled = true;
      } else {
        const TimePoint when = static_cast<TimePoint>(rng.NextBounded(500));
        const int tag = static_cast<int>(ids.size());
        ids.push_back(sim.ScheduleAt(
            when, [tag, &fired_real] { fired_real.push_back(tag); }));
        reference.push_back({when, seq++, tag});
      }
    }
    sim.Run();

    std::vector<RefEvent> expected = reference;
    std::erase_if(expected, [](const RefEvent& e) { return e.cancelled; });
    std::stable_sort(expected.begin(), expected.end(),
                     [](const RefEvent& a, const RefEvent& b) {
                       if (a.when != b.when) return a.when < b.when;
                       return a.seq < b.seq;
                     });
    std::vector<int> fired_expected;
    for (const RefEvent& e : expected) fired_expected.push_back(e.tag);
    ASSERT_EQ(fired_real, fired_expected) << "round " << round;
  }
}

TEST(SimulatorProperty, CallbackSchedulingDuringRunIsSound) {
  // Events scheduled from within callbacks (including at the current
  // time) run, in order, and never in the past.
  Simulator sim;
  Rng rng(7);
  int executed = 0;
  TimePoint last = -1;
  std::function<void(int)> chain = [&](int depth) {
    ++executed;
    EXPECT_GE(sim.now(), last);
    last = sim.now();
    if (depth > 0) {
      const Duration d1 = static_cast<Duration>(rng.NextBounded(20));
      const Duration d2 = static_cast<Duration>(rng.NextBounded(20));
      sim.Schedule(d1, [&chain, depth] { chain(depth - 1); });
      sim.Schedule(d2, [&chain, depth] { chain(depth - 1); });
    }
  };
  sim.Schedule(0, [&chain] { chain(6); });
  sim.Run();
  EXPECT_EQ(executed, (1 << 7) - 1);  // full binary tree of depth 6
}

}  // namespace
}  // namespace mpq::sim
