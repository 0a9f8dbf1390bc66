#include "harness/workload.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <utility>

#include "common/rng.h"
#include "common/source.h"
#include "common/stats.h"
#include "harness/parallel.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "quic/endpoint.h"
#include "quic/server.h"
#include "sim/net.h"
#include "sim/simulator.h"

namespace mpq::harness {

namespace {

constexpr std::uint16_t kServerNode = 1;
constexpr std::uint16_t kFirstClientNode = 10;

std::uint64_t Mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t x = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

/// Drop-tail queue sized by the max queuing delay, like sim/topology.cc.
ByteCount QueueBytes(double capacity_mbps, Duration max_queue_delay) {
  const double bytes = capacity_mbps * 1e6 / 8.0 *
                       (static_cast<double>(max_queue_delay) /
                        static_cast<double>(kSecond));
  return ByteCount{static_cast<std::uint64_t>(bytes)};
}

sim::LinkConfig MakeLink(double capacity_mbps, Duration one_way,
                         Duration max_queue_delay) {
  sim::LinkConfig config;
  config.capacity_mbps = capacity_mbps;
  config.propagation_delay = one_way;
  config.queue_capacity_bytes = QueueBytes(capacity_mbps, max_queue_delay);
  return config;
}

/// Everything one shard needs to report back; reduced in shard order.
struct ShardOutcome {
  std::vector<FlowResult> flows;  // this shard's flows, arrival order
  std::uint64_t events = 0;
};

ShardOutcome RunShard(const WorkloadOptions& options,
                      const std::vector<FlowSpec>& shard_flows,
                      std::uint32_t shard_index,
                      obs::MetricsRegistry& registry) {
  const int paths = options.multipath ? 2 : 1;

  sim::Simulator sim;
  sim::Network net(sim, Rng(Mix(options.seed, 0xA11CE + shard_index)));

  quic::ConnectionConfig config;
  config.multipath = options.multipath;
  config.congestion = options.multipath ? options.multipath_congestion
                                        : cc::Algorithm::kCubic;

  std::vector<sim::Address> server_locals;
  for (int p = 0; p < paths; ++p) {
    server_locals.push_back(
        sim::Address{kServerNode, static_cast<std::uint16_t>(p)});
  }
  quic::Server server(sim, net, server_locals, config,
                      Mix(options.seed, 0x5E44E4 + shard_index), shard_index,
                      options.shards);
  server.SetAcceptHandler([](quic::Connection& conn) {
    auto request = std::make_shared<std::string>();
    conn.SetStreamDataHandler([&conn, request](
                                  StreamId id, ByteCount,
                                  std::span<const std::uint8_t> data,
                                  bool fin) {
      request->append(data.begin(), data.end());
      if (fin && id == StreamId{3}) {
        const ByteCount size = ByteCount{std::stoull(request->substr(4))};
        conn.SendOnStream(StreamId{3},
                          std::make_unique<PatternSource>(3, size));
      }
    });
  });

  // Topology: per path, a shared bottleneck downlink out of the server
  // (all of this shard's responses contend there) and a dedicated
  // uplink per client. Propagation splits the path RTT evenly.
  for (int p = 0; p < paths; ++p) {
    net.AddSharedLink(server_locals[static_cast<std::size_t>(p)],
                      MakeLink(options.bottleneck_capacity_mbps,
                               options.path_rtt[p] / 2,
                               options.max_queue_delay));
  }
  for (std::size_t j = 0; j < shard_flows.size(); ++j) {
    const auto node = static_cast<std::uint16_t>(kFirstClientNode + j);
    for (int p = 0; p < paths; ++p) {
      net.AddLink(sim::Address{node, static_cast<std::uint16_t>(p)},
                  server_locals[static_cast<std::size_t>(p)],
                  MakeLink(options.access_capacity_mbps,
                           options.path_rtt[p] / 2, options.max_queue_delay));
    }
  }

  struct ClientSlot {
    std::unique_ptr<quic::ClientEndpoint> endpoint;
    ByteCount expect;
    ByteCount received;
    bool completed = false;
    TimePoint completion = 0;
  };
  std::vector<ClientSlot> slots(shard_flows.size());

  obs::Counter& flows_completed =
      registry.GetCounter("workload.flows_completed");
  obs::Counter& bytes_received = registry.GetCounter("workload.bytes_received");
  obs::Histogram& fct_hist = registry.GetHistogram("workload.fct_us");
  registry.GetCounter("workload.flows").Increment(shard_flows.size());

  for (std::size_t j = 0; j < shard_flows.size(); ++j) {
    const FlowSpec& flow = shard_flows[j];
    slots[j].expect = flow.size;
    sim.ScheduleAt(flow.arrival, [&, j] {
      const FlowSpec& spec = shard_flows[j];
      ClientSlot& slot = slots[j];
      const auto node = static_cast<std::uint16_t>(kFirstClientNode + j);
      std::vector<sim::Address> locals;
      for (int p = 0; p < paths; ++p) {
        locals.push_back(sim::Address{node, static_cast<std::uint16_t>(p)});
      }
      slot.endpoint = std::make_unique<quic::ClientEndpoint>(
          sim, net, std::move(locals), config, spec.seed);
      quic::Connection& conn = slot.endpoint->connection();
      conn.SetStreamDataHandler([&, j](StreamId, ByteCount,
                                       std::span<const std::uint8_t> data,
                                       bool fin) {
        ClientSlot& s = slots[j];
        s.received += data.size();
        if (fin && !s.completed) {
          s.completed = true;
          s.completion = sim.now();
          const Duration fct = s.completion - shard_flows[j].arrival;
          flows_completed.Increment();
          bytes_received.Increment(s.received.value());
          fct_hist.Record(fct);
          // Release the connection pair; the periodic sweep frees it.
          s.endpoint->connection().Close(0, "done");
        }
      });
      conn.SetEstablishedHandler([&, j] {
        const std::string request =
            "GET " + std::to_string(slots[j].expect.value());
        slots[j].endpoint->connection().SendOnStream(
            StreamId{3},
            std::make_unique<BufferSource>(
                std::vector<std::uint8_t>(request.begin(), request.end())));
      });
      slot.endpoint->Connect(server_locals[0]);
    });
  }

  // Periodic reap: free closed server connections and finished client
  // endpoints so memory tracks the *concurrent* flow count, not the
  // total. Runs until the time limit; each sweep is O(live connections).
  std::function<void()> sweep = [&] {
    for (ClientSlot& slot : slots) {
      if (slot.completed && slot.endpoint != nullptr &&
          slot.endpoint->connection().closed()) {
        slot.endpoint.reset();
      }
    }
    server.ReapClosed();
    if (sim.now() + options.reap_interval <= options.time_limit) {
      sim.Schedule(options.reap_interval, [&] { sweep(); });
    }
  };
  sim.Schedule(options.reap_interval, [&] { sweep(); });

  sim.Run(options.time_limit);

  ShardOutcome outcome;
  outcome.events = sim.events_executed();
  outcome.flows.reserve(shard_flows.size());
  for (std::size_t j = 0; j < shard_flows.size(); ++j) {
    const FlowSpec& spec = shard_flows[j];
    FlowResult result;
    result.index = spec.index;
    result.shard = spec.shard;
    result.cid = spec.cid;
    result.arrival = spec.arrival;
    result.size = spec.size;
    result.completed = slots[j].completed;
    if (result.completed) {
      result.fct = slots[j].completion - spec.arrival;
      result.goodput_mbps = result.fct > 0
                                ? static_cast<double>(spec.size.value()) *
                                      8.0 / static_cast<double>(result.fct)
                                : 0.0;
    }
    outcome.flows.push_back(result);
  }
  return outcome;
}

void WriteOutputs(const WorkloadOptions& options,
                  const WorkloadResult& result) {
  if (!options.metrics_path.empty()) {
    std::ofstream out(options.metrics_path, std::ios::app);
    for (const FlowResult& flow : result.flows) {
      obs::JsonWriter row;
      row.BeginObject();
      row.Key("label").String(options.metrics_label);
      row.Key("conn").UInt(flow.index);
      row.Key("cid").UInt(flow.cid);
      row.Key("shard").UInt(flow.shard);
      row.Key("arrival_us").Int(flow.arrival);
      row.Key("size_bytes").UInt(flow.size.value());
      row.Key("completed").Bool(flow.completed);
      row.Key("fct_us").Int(flow.fct);
      row.Key("goodput_mbps").Double(flow.goodput_mbps);
      row.EndObject();
      out << row.str() << '\n';
    }
    obs::JsonWriter fleet;
    fleet.BeginObject();
    fleet.Key("label").String(options.metrics_label);
    fleet.Key("fleet");
    fleet.BeginObject();
    fleet.Key("flows").UInt(result.flows.size());
    fleet.Key("completed").UInt(result.completed);
    fleet.Key("bytes").UInt(result.bytes_received.value());
    fleet.Key("goodput_mbps").Double(result.total_goodput_mbps);
    fleet.Key("jain").Double(result.jain_index);
    fleet.Key("fct_us");
    fleet.BeginObject();
    fleet.Key("p50").Double(result.fct_p50_us);
    fleet.Key("p99").Double(result.fct_p99_us);
    fleet.Key("p999").Double(result.fct_p999_us);
    fleet.EndObject();
    fleet.EndObject();
    fleet.EndObject();
    out << fleet.str() << '\n';
  }

  if (!options.qlog_path.empty()) {
    // Flow-level event trace, merged across shards in time order (ties
    // by flow index, arrivals before completions).
    struct Line {
      TimePoint time;
      int order;
      std::uint32_t index;
      std::string text;
    };
    std::vector<Line> lines;
    lines.reserve(result.flows.size() * 2);
    for (const FlowResult& flow : result.flows) {
      obs::JsonWriter arrive;
      arrive.BeginObject();
      arrive.Key("time").Int(flow.arrival);
      arrive.Key("name").String("workload:flow_arrival");
      arrive.Key("data");
      arrive.BeginObject();
      arrive.Key("conn").UInt(flow.index);
      arrive.Key("shard").UInt(flow.shard);
      arrive.Key("size_bytes").UInt(flow.size.value());
      arrive.EndObject();
      arrive.EndObject();
      lines.push_back({flow.arrival, 0, flow.index, arrive.str()});
      if (!flow.completed) continue;
      obs::JsonWriter complete;
      complete.BeginObject();
      complete.Key("time").Int(flow.arrival + flow.fct);
      complete.Key("name").String("workload:flow_complete");
      complete.Key("data");
      complete.BeginObject();
      complete.Key("conn").UInt(flow.index);
      complete.Key("shard").UInt(flow.shard);
      complete.Key("fct_us").Int(flow.fct);
      complete.Key("goodput_mbps").Double(flow.goodput_mbps);
      complete.EndObject();
      complete.EndObject();
      lines.push_back(
          {flow.arrival + flow.fct, 1, flow.index, complete.str()});
    }
    std::sort(lines.begin(), lines.end(), [](const Line& a, const Line& b) {
      if (a.time != b.time) return a.time < b.time;
      if (a.order != b.order) return a.order < b.order;
      return a.index < b.index;
    });
    std::ofstream out(options.qlog_path, std::ios::trunc);
    for (const Line& line : lines) out << line.text << '\n';
  }
}

}  // namespace

double JainIndex(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

std::vector<FlowSpec> GenerateFlows(const WorkloadOptions& options) {
  std::vector<FlowSpec> flows;
  flows.reserve(options.connections);
  Rng master(Mix(options.seed, 0xF10335));
  const std::uint32_t shards = options.shards < 1 ? 1 : options.shards;
  const double min_size = static_cast<double>(options.min_flow_bytes.value());
  const double max_size = static_cast<double>(options.max_flow_bytes.value());
  const double alpha = options.pareto_alpha;
  // Bounded-Pareto inverse CDF: x = min / (1 - u * (1 - (min/max)^a))^(1/a).
  const double tail = 1.0 - std::pow(min_size / max_size, alpha);

  std::vector<ConnectionId> seen;
  TimePoint arrival = 0;
  for (std::uint32_t i = 0; i < options.connections; ++i) {
    FlowSpec flow;
    flow.index = i;
    // Exponential interarrival at the configured Poisson rate.
    const double u_gap = master.NextDouble();
    const double gap_s =
        -std::log(1.0 - u_gap) / std::max(1e-9, options.arrival_rate_per_s);
    arrival += SecondsToDuration(gap_s);
    flow.arrival = arrival;

    const double u_size = master.NextDouble();
    double size = min_size / std::pow(1.0 - u_size * tail, 1.0 / alpha);
    size = std::min(std::max(size, min_size), max_size);
    flow.size = ByteCount{static_cast<std::uint64_t>(size + 0.5)};

    // Per-flow client seed; redraw on the (astronomically rare) CID
    // collision so server demux stays unambiguous. Deterministic: the
    // redraw pattern depends only on the master sequence.
    for (;;) {
      flow.seed = master.NextU64();
      flow.cid = quic::ClientEndpoint::CidForSeed(flow.seed);
      if (std::find(seen.begin(), seen.end(), flow.cid) == seen.end()) break;
    }
    seen.push_back(flow.cid);
    flow.shard = quic::ShardOf(flow.cid, shards);
    flows.push_back(flow);
  }
  std::sort(seen.begin(), seen.end());
  return flows;
}

WorkloadResult RunWorkload(const WorkloadOptions& options) {
  const std::uint32_t shards = options.shards < 1 ? 1 : options.shards;
  const std::vector<FlowSpec> flows = GenerateFlows(options);

  std::vector<std::vector<FlowSpec>> by_shard(shards);
  for (const FlowSpec& flow : flows) {
    by_shard[flow.shard].push_back(flow);
  }

  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries(shards);
  std::vector<ShardOutcome> outcomes(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    registries[s] = std::make_unique<obs::MetricsRegistry>();
  }

  const int jobs = options.jobs == 0 ? DefaultJobs() : options.jobs;
  RunParallel(jobs, shards, [&](std::size_t s) {
    outcomes[s] = RunShard(options, by_shard[s],
                           static_cast<std::uint32_t>(s), *registries[s]);
  });

  // Serial reduction in shard order: byte-identical for any job count.
  WorkloadResult result;
  result.flows.resize(flows.size());
  obs::MetricsRegistry fleet;
  for (std::uint32_t s = 0; s < shards; ++s) {
    result.total_events += outcomes[s].events;
    fleet.MergeFrom(*registries[s]);
    for (const FlowResult& flow : outcomes[s].flows) {
      result.flows[flow.index] = flow;
    }
  }

  TimePoint first_arrival = 0;
  TimePoint last_completion = 0;
  std::vector<double> goodputs;
  std::vector<double> fcts;
  bool any = false;
  for (const FlowResult& flow : result.flows) {
    if (!flow.completed) continue;
    if (!any || flow.arrival < first_arrival) first_arrival = flow.arrival;
    const TimePoint completion = flow.arrival + flow.fct;
    if (!any || completion > last_completion) last_completion = completion;
    any = true;
    result.completed += 1;
    result.bytes_received += flow.size;
    goodputs.push_back(flow.goodput_mbps);
    fcts.push_back(static_cast<double>(flow.fct));
  }
  const Duration span = any ? last_completion - first_arrival : 0;
  result.total_goodput_mbps =
      span > 0 ? static_cast<double>(result.bytes_received.value()) * 8.0 /
                     static_cast<double>(span)
               : 0.0;
  result.jain_index = JainIndex(goodputs);
  result.fct_p50_us = Percentile(fcts, 50.0);
  result.fct_p99_us = Percentile(fcts, 99.0);
  result.fct_p999_us = Percentile(std::move(fcts), 99.9);
  fleet.GetCounter("workload.shards").Increment(shards);
  fleet.GetCounter("workload.events").Increment(result.total_events);
  result.metrics_json = fleet.SnapshotJson();

  WriteOutputs(options, result);
  return result;
}

}  // namespace mpq::harness
