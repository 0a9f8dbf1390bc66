// Event-order regression gate. Every figure, CSV, qlog and digest in
// this repository depends on the simulator firing the same events in the
// same (time, id) order. This test pins the observable result of that
// order on small fixed runs: a change to the event queue, to how timers
// draw ids or to any protocol's scheduling calls that moves an outcome
// shows up here as a changed completion time, event count or per-flow
// FCT. Queue defects these runs do not reach are covered by sim_test.
// The constants were captured at commit
// 2300c1635f8f0fe39d472642489207b914a44280 and must only change together
// with a deliberate, documented behaviour change.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "harness/runner.h"
#include "harness/workload.h"

namespace mpq::harness {
namespace {

// 64-bit FNV-1a over little-endian integer fields.
class Fnv1a {
 public:
  void Add(std::uint64_t value, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// A fixed, lossy, asymmetric two-path pair: loss exercises RTO, ACK and
// pacing timers as well as deliveries.
std::array<sim::PathParams, 2> LossyPaths() {
  std::array<sim::PathParams, 2> paths;
  paths[0].capacity_mbps = 10.0;
  paths[0].rtt = 30 * kMillisecond;
  paths[0].random_loss_rate = 0.01;
  paths[1].capacity_mbps = 4.0;
  paths[1].rtt = 80 * kMillisecond;
  paths[1].random_loss_rate = 0.02;
  for (auto& path : paths) path.max_queue_delay = 60 * kMillisecond;
  return paths;
}

struct TransferCase {
  Protocol protocol;
  Duration completion_time;
};

TEST(EventOrder, TransferCompletionTimesArePinned) {
  const std::array<TransferCase, 4> cases = {{
      {Protocol::kTcp, 2430826},
      {Protocol::kQuic, 987859},
      {Protocol::kMptcp, 2461354},
      {Protocol::kMpquic, 1043505},
  }};
  TransferOptions options;
  options.transfer_size = ByteCount{1024 * 1024};
  options.seed = 3;
  for (const TransferCase& c : cases) {
    const TransferResult result =
        RunTransfer(c.protocol, LossyPaths(), options);
    EXPECT_TRUE(result.completed) << ToString(c.protocol);
    EXPECT_EQ(result.completion_time, c.completion_time)
        << ToString(c.protocol);
  }
}

TEST(EventOrder, WorkloadEventsAndFlowTimesArePinned) {
  WorkloadOptions options;
  options.connections = 200;
  options.multipath = true;
  options.jobs = 1;
  options.seed = 5;
  const WorkloadResult result = RunWorkload(options);

  Fnv1a flows;
  for (const FlowResult& flow : result.flows) {
    flows.Add(flow.index, 4);
    flows.Add(flow.completed ? 1 : 0, 1);
    flows.Add(static_cast<std::uint64_t>(flow.fct), 8);
  }
  EXPECT_EQ(result.completed, 200u);
  EXPECT_EQ(result.total_events, 13058u);
  EXPECT_EQ(flows.value(), 15633156171167403942ULL);
}

}  // namespace
}  // namespace mpq::harness
