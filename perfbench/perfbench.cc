// Repository benchmark binary. One process runs one workload through the
// public harness entry points, verifies every output, and prints its
// metrics as the last line of stdout (README.md in this directory lists
// the workloads and metric definitions; run.py builds and drives it).
//
//   mpq_perfbench --workload bulk|fleet|wsp_lossy --seed N --seconds S
//                 --trace 0|1 [--scratch DIR]
//
// --trace 0 measures the end-to-end metrics with the profiler off.
// --trace 1 measures the per-layer ledger: profiled and unprofiled
// batches side by side, allocation counts, per-item transfer timings,
// the jobs scaling legs and standalone timings of each layer's public
// functions. Every batch is a fixed amount of simulated work derived from
// the seed; repeating it must reproduce its outputs exactly.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "cc/cubic.h"
#include "cc/olia.h"
#include "common/buf.h"
#include "common/rng.h"
#include "crypto/aead.h"
#include "crypto/cpu.h"
#include "expdesign/scenarios.h"
#include "harness/figures.h"
#include "harness/parallel.h"
#include "harness/runner.h"
#include "harness/workload.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "quic/wire.h"
#include "sim/simulator.h"
#include "sim/timer.h"

#ifndef MPQ_BENCH_BUILD_TYPE
#define MPQ_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace mpq;
using Clock = std::chrono::steady_clock;
using harness::Protocol;

constexpr double kMiB = 1024.0 * 1024.0;
// Set-ups per run; setup_s is their median.
constexpr int kSetUps = 3;
// Timed batches per run at least, however short --seconds is.
constexpr int kMinBatches = 5;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Linearly interpolated quantile, q in [0, 1] (numpy's default).
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double h = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (h - static_cast<double>(lo)) * (values[lo + 1] - values[lo]);
}

/// Nearest-rank percentile: the smallest value with at least p% of the
/// samples at or below it. Exact on the samples, no interpolation.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// Time `fn` (which does `per_sample` operations) over five samples and
/// return the median nanoseconds per operation.
double NsPerOp(std::size_t per_sample, const std::function<void()>& fn) {
  std::vector<double> samples;
  fn();  // warm caches and lazy state
  for (int s = 0; s < 5; ++s) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(SecondsSince(t0) * 1e9 /
                      static_cast<double>(per_sample));
  }
  return Median(std::move(samples));
}

/// FNV-1a over the values a batch must reproduce exactly.
class Digest {
 public:
  void Add(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (value >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  void Add(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    Add(bits);
  }
  void Add(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Verified result of one batch.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double mib = 0.0;       // application MiB delivered and verified
  double quic_mib = 0.0;  // the part carried by QUIC-family transfers
  std::vector<double> fct_ms;  // simulated completion time per transfer
  bool consistent = true;      // aggregate checks beyond per-transfer ones
  Digest digest;

  void AddTransfer(const harness::TransferResult& r, ByteCount size,
                   bool quic_family) {
    ++attempted;
    const bool ok = r.completed && r.bytes_received == size &&
                    r.data_integrity_errors == 0;
    if (!ok) {
      ++failed;
    } else {
      const double mb = static_cast<double>(size.value()) / kMiB;
      mib += mb;
      if (quic_family) quic_mib += mb;
    }
    fct_ms.push_back(static_cast<double>(r.completion_time) /
                     static_cast<double>(kMillisecond));
    digest.Add(static_cast<std::uint64_t>(r.completed));
    digest.Add(static_cast<std::uint64_t>(r.completion_time));
    digest.Add(r.bytes_received.value());
    digest.Add(r.data_integrity_errors);
    digest.Add(r.goodput_mbps);
  }
};

/// One RunTransfer call, as a work item the traced run times on its own.
struct TransferItem {
  Protocol protocol = Protocol::kMpquic;
  std::array<sim::PathParams, 2> paths;
  harness::TransferOptions options;
};

constexpr Protocol kProtocols[] = {Protocol::kTcp, Protocol::kQuic,
                                   Protocol::kMptcp, Protocol::kMpquic};

/// Every protocol from both initial paths over one path pair: the
/// per-protocol items of workloads that have no such mix of their own.
std::vector<TransferItem> ProtocolItems(
    const std::array<sim::PathParams, 2>& paths, ByteCount size,
    std::uint64_t seed) {
  std::vector<TransferItem> items;
  for (int path = 0; path < 2; ++path) {
    for (Protocol protocol : kProtocols) {
      TransferItem item;
      item.protocol = protocol;
      item.paths = paths;
      item.options.transfer_size = size;
      item.options.initial_path = path;
      item.options.seed = seed + 31ULL * static_cast<std::uint64_t>(path);
      items.push_back(item);
    }
  }
  return items;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Derive the inputs from the seed and warm up on a short run of the
  /// same shape: everything before the first timed batch. Returns whether
  /// every warm-up transfer completed.
  virtual bool SetUp() = 0;
  /// Digest of the inputs SetUp derived (differs between seeds).
  virtual std::uint64_t InputDigest() const = 0;
  /// One batch: a fixed amount of simulated work on `jobs` threads.
  virtual Outcome Run(int jobs) = 0;
  /// The batch's work through the harness entry point it stands for,
  /// when the timed batch calls a lower one; must reproduce Run's digest.
  virtual std::optional<Outcome> Reference() { return std::nullopt; }
  /// The work the jobs-scaling legs time (default: the batch itself).
  virtual Outcome RunScaling(int jobs) { return Run(jobs); }
  /// RunTransfer items timed one by one in the traced run.
  virtual std::vector<TransferItem> Items() const = 0;
};

// -- bulk ------------------------------------------------------------------
// One long two-path MPQUIC download with OLIA over two 20 Mbps paths at
// 20/40 ms RTT, no loss: the in-order per-packet datapath, no handshake
// churn, no tcpsim.

class Bulk final : public Workload {
 public:
  explicit Bulk(std::uint64_t seed) : seed_(seed) {}

  bool SetUp() override {
    paths_[0].capacity_mbps = 20.0;
    paths_[1].capacity_mbps = 20.0;
    paths_[0].rtt = 20 * kMillisecond;
    paths_[1].rtt = 40 * kMillisecond;
    // The seed sets the endpoint and network seeds and a size offset of
    // up to 1 MiB, so every seed is a distinct input.
    Rng rng(seed_);
    size_ = ByteCount{kBaseSize + rng.NextU64() % (1u << 20)};
    harness::TransferOptions warm = Options(seed_ + 1);
    warm.transfer_size = ByteCount{4u << 20};
    return harness::RunTransfer(Protocol::kMpquic, paths_, warm).completed;
  }

  std::uint64_t InputDigest() const override {
    Digest d;
    d.Add(seed_);
    d.Add(size_.value());
    return d.value();
  }

  Outcome Run(int jobs) override { return Copies(1, jobs); }
  Outcome RunScaling(int jobs) override { return Copies(4, jobs); }

  std::vector<TransferItem> Items() const override {
    return ProtocolItems(paths_, ByteCount{2u << 20}, seed_);
  }

 private:
  static constexpr std::uint64_t kBaseSize = 32u << 20;

  harness::TransferOptions Options(std::uint64_t seed) const {
    harness::TransferOptions options;
    options.transfer_size = size_;
    options.seed = seed;
    return options;
  }

  /// `copies` independent downloads (seeds seed, seed+1, ...).
  Outcome Copies(std::size_t copies, int jobs) {
    std::vector<harness::TransferResult> results(copies);
    harness::RunParallel(jobs, copies, [&](std::size_t i) {
      results[i] =
          harness::RunTransfer(Protocol::kMpquic, paths_, Options(seed_ + i));
    });
    Outcome out;
    for (const auto& r : results) out.AddTransfer(r, size_, true);
    return out;
  }

  std::uint64_t seed_;
  std::array<sim::PathParams, 2> paths_;
  ByteCount size_;
};

// -- fleet -----------------------------------------------------------------
// RunWorkload over the sharded server engine: open-loop Poisson arrivals
// of bounded-Pareto flows, two-path MPQUIC, 8 shards, one worker thread.
// Per-connection cost: handshakes, Connection churn, server demux and
// timer-wheel churn.

class Fleet final : public Workload {
 public:
  explicit Fleet(std::uint64_t seed) : seed_(seed) {}

  static harness::WorkloadOptions Options(std::uint64_t seed,
                                          std::uint32_t connections) {
    harness::WorkloadOptions options;
    options.connections = connections;
    options.multipath = true;
    options.shards = 8;
    options.jobs = 1;
    options.seed = seed;
    return options;
  }

  bool SetUp() override {
    options_ = Options(seed_, kConnections);
    plan_ = harness::GenerateFlows(options_);
    return harness::RunWorkload(Options(seed_ + 1, 256)).completed == 256;
  }

  std::uint64_t InputDigest() const override {
    Digest d;
    for (const auto& flow : plan_) {
      d.Add(flow.seed);
      d.Add(static_cast<std::uint64_t>(flow.arrival));
      d.Add(flow.size.value());
    }
    return d.value();
  }

  Outcome Run(int jobs) override {
    harness::WorkloadOptions options = options_;
    options.jobs = jobs;
    const harness::WorkloadResult r = harness::RunWorkload(options);
    Outcome out;
    std::uint64_t planned_bytes = 0;
    for (const auto& flow : plan_) planned_bytes += flow.size.value();
    out.consistent = r.flows.size() == plan_.size() &&
                     r.completed == plan_.size() &&
                     r.bytes_received.value() == planned_bytes;
    for (std::size_t i = 0; i < r.flows.size(); ++i) {
      const harness::FlowResult& flow = r.flows[i];
      ++out.attempted;
      const bool ok = flow.completed && i < plan_.size() &&
                      flow.size == plan_[i].size && flow.cid == plan_[i].cid;
      if (ok) {
        out.mib += static_cast<double>(flow.size.value()) / kMiB;
      } else {
        ++out.failed;
      }
      out.fct_ms.push_back(static_cast<double>(flow.fct) /
                           static_cast<double>(kMillisecond));
      out.digest.Add(static_cast<std::uint64_t>(flow.completed));
      out.digest.Add(static_cast<std::uint64_t>(flow.fct));
      out.digest.Add(flow.size.value());
    }
    out.quic_mib = out.mib;
    out.digest.Add(r.total_events);
    out.digest.Add(r.bytes_received.value());
    out.digest.Add(r.metrics_json);
    return out;
  }

  std::vector<TransferItem> Items() const override {
    // One connection alone on the fleet's path shape: 20 Mbps shared
    // downlinks at 30/50 ms RTT.
    std::array<sim::PathParams, 2> paths;
    for (int p = 0; p < 2; ++p) {
      paths[p].capacity_mbps = options_.bottleneck_capacity_mbps;
      paths[p].rtt = options_.path_rtt[p];
      paths[p].max_queue_delay = options_.max_queue_delay;
    }
    return ProtocolItems(paths, ByteCount{2u << 20}, seed_);
  }

  static constexpr std::uint32_t kConnections = 4000;

 private:

  std::uint64_t seed_;
  harness::WorkloadOptions options_;
  std::vector<harness::FlowSpec> plan_;
};

// -- wsp_lossy ---------------------------------------------------------------
// WSP designs of the paper's low-BDP-with-losses class (Figs. 5/6): TCP,
// QUIC, MPTCP and MPQUIC from both initial paths per scenario. The only
// workload that runs tcpsim; loss drives out-of-order reassembly and
// retransmission.
//
// A batch pools kDesigns independent 64-point designs. One design's
// median path capacity swings by about a quarter from seed to seed, and
// the median completion time with it; pooling eight keeps the FCT
// percentiles within a few percent across seeds.
//
// The timed batch runs EvaluateClass's own work items -- (scenario,
// initial path, protocol) with its per-scenario seeds, reduced in its
// order -- through RunTransfer, and every run checks that EvaluateClass
// reproduces the batch exactly. EvaluateClass regenerates its design on
// every call, and that generation costs up to six times more for one
// seed than another (the bisection for the design size hits early or
// runs to its limit): it is set-up work, charged to setup_s, not to
// every batch.

class WspLossy final : public Workload {
 public:
  static constexpr std::size_t kDesigns = 8;
  static constexpr std::size_t kScenarios = 64;

  explicit WspLossy(std::uint64_t seed) : seed_(seed) {}

  static harness::ClassEvalOptions Options(std::uint64_t seed,
                                           std::size_t design) {
    harness::ClassEvalOptions options;
    options.scenario_count = kScenarios;
    options.repetitions = 1;
    options.transfer_size = ByteCount{kTransferSize};
    options.seed = seed * kDesigns + design;
    options.progress = false;
    options.jobs = 1;
    // Generous simulated-time guard: the slowest Table-1 path (0.1 Mbps,
    // 2.5% loss) must still finish every transfer.
    options.time_limit = 4000 * kSecond;
    options.base_options.time_limit = options.time_limit;
    return options;
  }

  bool SetUp() override {
    designs_.clear();
    items_.clear();
    for (std::size_t k = 0; k < kDesigns; ++k) {
      Design design;
      design.options = Options(seed_, k);
      design.scenarios = expdesign::GenerateScenarios(
          kClass, design.options.scenario_count, design.options.seed);
      AppendItems(design, items_);
      designs_.push_back(std::move(design));
    }
    // Warm up on the first half of the transfers. This also keeps the
    // seed-to-seed swing of the generation cost a minor part of setup_s.
    const std::size_t warm_items = items_.size() / 2;
    Outcome warm;
    for (std::size_t i = 0; i < warm_items; ++i) {
      const TransferItem& item = items_[i];
      warm.AddTransfer(
          harness::RunTransfer(item.protocol, item.paths, item.options),
          item.options.transfer_size, false);
    }
    return warm.failed == 0;
  }

  std::uint64_t InputDigest() const override {
    Digest d;
    for (const Design& design : designs_) {
      for (const auto& scenario : design.scenarios) {
        for (const auto& path : scenario.paths) {
          d.Add(path.capacity_mbps);
          d.Add(static_cast<std::uint64_t>(path.rtt));
          d.Add(static_cast<std::uint64_t>(path.max_queue_delay));
          d.Add(path.random_loss_rate);
        }
      }
    }
    return d.value();
  }

  Outcome Run(int jobs) override {
    std::vector<harness::TransferResult> results(items_.size());
    harness::RunParallel(jobs, items_.size(), [&](std::size_t i) {
      const TransferItem& item = items_[i];
      results[i] = harness::RunTransfer(item.protocol, item.paths, item.options);
    });
    Outcome out;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out.AddTransfer(results[i], items_[i].options.transfer_size,
                      harness::IsQuicFamily(items_[i].protocol));
    }
    return out;
  }

  std::optional<Outcome> Reference() override { return RunScaling(1); }

  /// EvaluateClass itself, design by design, on `jobs` threads.
  Outcome RunScaling(int jobs) override {
    Outcome out;
    for (const Design& design : designs_) {
      harness::ClassEvalOptions options = design.options;
      options.jobs = jobs;
      const auto outcomes = harness::EvaluateClass(kClass, options);
      out.consistent &= outcomes.size() == design.scenarios.size();
      const ByteCount size = options.transfer_size;
      for (const auto& o : outcomes) {
        for (int path = 0; path < 2; ++path) {
          out.AddTransfer(o.tcp[path], size, false);
          out.AddTransfer(o.quic[path], size, true);
          out.AddTransfer(o.mptcp[path], size, false);
          out.AddTransfer(o.mpquic[path], size, true);
        }
      }
    }
    return out;
  }

  std::vector<TransferItem> Items() const override { return items_; }

 private:
  static constexpr auto kClass = expdesign::ScenarioClass::kLowBdpLosses;
  static constexpr std::uint64_t kTransferSize = 64u << 10;

  struct Design {
    harness::ClassEvalOptions options;
    std::vector<expdesign::Scenario> scenarios;
  };

  /// EvaluateClass's decomposition of one design, in its reduction order
  /// (repetitions is 1, so each item is its own median).
  static void AppendItems(const Design& design,
                          std::vector<TransferItem>& items) {
    const harness::ClassEvalOptions& options = design.options;
    for (const auto& scenario : design.scenarios) {
      for (int path = 0; path < 2; ++path) {
        for (Protocol protocol : kProtocols) {
          TransferItem item;
          item.protocol = protocol;
          item.paths = scenario.paths;
          item.options = options.base_options;
          item.options.transfer_size = options.transfer_size;
          item.options.time_limit = options.time_limit;
          item.options.initial_path = path;
          item.options.seed =
              options.seed +
              1000003ULL * static_cast<std::uint64_t>(scenario.index);
          items.push_back(item);
        }
      }
    }
  }

  std::uint64_t seed_;
  std::vector<Design> designs_;
  std::vector<TransferItem> items_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "bulk") return std::make_unique<Bulk>(seed);
  if (name == "fleet") return std::make_unique<Fleet>(seed);
  if (name == "wsp_lossy") return std::make_unique<WspLossy>(seed);
  return nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  int cores = 1;  // usable cores, read from the affinity mask at start-up
};

// -- result line -------------------------------------------------------------

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Fail(const std::string& why) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct_ = false;
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::string Json() const {
    obs::JsonWriter w;
    w.BeginObject();
    w.Key("correct").Bool(correct_ && failed == 0 && attempted > 0);
    w.Key("attempted").UInt(attempted);
    w.Key("failed").UInt(failed);
    w.Key("metrics").BeginObject();
    for (const auto& m : metrics_) {
      w.Key(m.name).BeginObject();
      w.Key("value").Double(m.value);
      w.Key("unit").String(m.unit);
      w.EndObject();
    }
    w.EndObject();
    w.EndObject();
    return w.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
  bool correct_ = true;
};

void CheckOutcome(Report& report, const Outcome& o, const char* leg) {
  report.attempted += o.attempted;
  report.failed += o.failed;
  report.Check(o.consistent, std::string(leg) + ": aggregate totals");
  report.Check(o.failed == 0, std::string(leg) + ": failed transfers");
}

int UsableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: the latter keeps the peak of the process that exec'd us.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // KiB -> MiB
    }
  }
  return 0.0;
}

/// Moves the calling thread to the next usable core on each Next(), and
/// back to the original mask when destroyed. On a shared host the cores
/// run at different speeds that drift over minutes; visiting each in turn
/// makes a run's figures independent of the core it happened to start on.
class CoreRotation {
 public:
  CoreRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cores_.push_back(cpu);
    }
  }
  ~CoreRotation() {
    if (!cores_.empty()) sched_setaffinity(0, sizeof original_, &original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void Next() {
    if (cores_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cores_[next_++ % cores_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cores_;
  std::size_t next_ = 0;
};

/// Opens the info line's object and writes what every run records: the
/// run's identity, its input and output digests, and the machine.
void BeginInfo(obs::JsonWriter& w, const Args& args, std::uint64_t inputs,
               std::uint64_t outputs) {
  w.BeginObject();
  w.Key("perfbench").BeginObject();
  w.Key("workload").String(args.workload);
  w.Key("seed").UInt(args.seed);
  w.Key("inputs").String(Hex(inputs));
  w.Key("outputs").String(Hex(outputs));
  w.Key("machine").BeginObject();
  w.Key("usable_cores").UInt(static_cast<std::uint64_t>(args.cores));
  w.Key("hardware_threads").UInt(std::thread::hardware_concurrency());
  w.Key("simd").String(crypto::SimdLevelName(crypto::ActiveSimdLevel()));
  w.Key("build_type").String(MPQ_BENCH_BUILD_TYPE);
  w.Key("prof_compiled_in").Bool(obs::prof::kCompiledIn);
  w.EndObject();
}

// -- standalone timings of each layer's public functions -----------------------

crypto::PacketProtection MakeProtection() {
  crypto::ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  return crypto::PacketProtection(key);
}

double SealNs(std::size_t plaintext) {
  const auto protection = MakeProtection();
  std::vector<std::uint8_t> buf(plaintext + crypto::kAeadTagSize, 0x42);
  const std::uint8_t aad[14] = {};
  constexpr std::size_t kIters = 20000;
  std::uint64_t pn = 1;
  return NsPerOp(kIters, [&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      protection.SealInPlace(PathId{1}, PacketNumber{pn++}, aad, buf);
    }
  });
}

double OpenNs(std::size_t plaintext, Report& report) {
  const auto protection = MakeProtection();
  const std::vector<std::uint8_t> data(plaintext, 0x42);
  const std::uint8_t aad[14] = {};
  const auto sealed = protection.Seal(PathId{1}, PacketNumber{9}, aad, data);
  std::vector<std::uint8_t> out;
  bool ok = true;
  constexpr std::size_t kIters = 20000;
  const double ns = NsPerOp(kIters, [&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      ok &= protection.Open(PathId{1}, PacketNumber{9}, aad, sealed, out);
    }
  });
  report.Check(ok && out == data, "crypto open round trip");
  return ns;
}

quic::PacketHeader WireHeader() {
  quic::PacketHeader header;
  header.cid = 0x1234567890ABCDEFULL;
  header.path_id = PathId{1};
  header.packet_number = PacketNumber{100000};
  header.multipath = true;
  return header;
}

quic::Frame WireFrame() {
  quic::StreamFrame frame;
  frame.stream_id = StreamId{3};
  frame.offset = ByteCount{1 << 20};
  frame.data.assign(1300, 0xAB);
  return quic::Frame{frame};
}

double WireEncodeNs() {
  const quic::PacketHeader header = WireHeader();
  const quic::Frame frame = WireFrame();
  BufWriter w(quic::kMaxPacketSize);
  constexpr std::size_t kIters = 100000;
  return NsPerOp(kIters, [&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      w.Clear();
      quic::EncodeHeader(header, PacketNumber{99990}, w);
      quic::EncodeFrame(frame, w);
    }
  });
}

double WireDecodeNs(Report& report) {
  BufWriter w(quic::kMaxPacketSize);
  quic::EncodeHeader(WireHeader(), PacketNumber{99990}, w);
  quic::EncodeFrame(WireFrame(), w);
  const std::vector<std::uint8_t> packet = w.Take();
  quic::ParsedHeader parsed;
  quic::Frame frame;
  bool ok = true;
  constexpr std::size_t kIters = 100000;
  const double ns = NsPerOp(kIters, [&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      BufReader in(packet);
      ok &= quic::DecodeHeader(in, parsed) && quic::DecodeFrame(in, frame);
    }
  });
  const auto* stream = std::get_if<quic::StreamFrame>(&frame);
  report.Check(ok && stream != nullptr && stream->data.size() == 1300,
               "wire decode round trip");
  return ns;
}

double SimScheduleRunNs() {
  constexpr std::size_t kEvents = 20000;
  std::uint64_t fired = 0;
  return NsPerOp(kEvents, [&] {
    sim::Simulator sim;
    for (std::size_t i = 0; i < kEvents; ++i) {
      sim.Schedule(static_cast<Duration>(i % 97), [&fired] { ++fired; });
    }
    sim.Run();
  });
}

double SimTimerArmCancelNs() {
  sim::Simulator sim;
  sim::Timer timer(sim, [] {});
  constexpr std::size_t kIters = 200000;
  return NsPerOp(kIters, [&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      timer.SetIn(static_cast<Duration>(1000 + i % 5000));
      timer.Cancel();
    }
  });
}

double OnAckNs(cc::CongestionController& controller) {
  constexpr std::size_t kIters = 200000;
  TimePoint now = 0;
  return NsPerOp(kIters, [&] {
    for (std::size_t i = 0; i < kIters; ++i) {
      now += 10;
      controller.OnPacketAcked(now, cc::kDefaultMss, now - 20 * kMillisecond,
                               20 * kMillisecond);
    }
  });
}

/// Median wall milliseconds of `fn` over `samples` runs.
double MedianMs(int samples, const std::function<void()>& fn) {
  std::vector<double> ms;
  for (int s = 0; s < samples; ++s) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(SecondsSince(t0) * 1e3);
  }
  return Median(std::move(ms));
}

// -- profiler spans, grouped by layer ---------------------------------------

struct LayerProfile {
  struct Leaf {
    std::uint64_t count = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::string, Leaf> leaves;               // "crypto;seal" -> sums
  std::map<std::string, std::uint64_t> subsystems;  // "crypto" -> self ns
  std::uint64_t self_ns = 0;

  explicit LayerProfile(const std::vector<obs::prof::SpanStats>& spans) {
    for (const auto& span : spans) {
      Leaf& leaf = leaves[span.leaf];
      leaf.count += span.count;
      leaf.self_ns += span.self_ns;
      subsystems[span.leaf.substr(0, span.leaf.find(';'))] += span.self_ns;
      self_ns += span.self_ns;
    }
  }
  std::uint64_t Count(const std::string& leaf) const {
    const auto it = leaves.find(leaf);
    return it == leaves.end() ? 0 : it->second.count;
  }
  double NsPerCall(const std::string& leaf) const {
    const auto it = leaves.find(leaf);
    if (it == leaves.end() || it->second.count == 0) return 0.0;
    return static_cast<double>(it->second.self_ns) /
           static_cast<double>(it->second.count);
  }
  double Share(const std::string& subsystem, double wall_ns) const {
    const auto it = subsystems.find(subsystem);
    return it == subsystems.end() ? 0.0
                                  : static_cast<double>(it->second) / wall_ns;
  }
};

/// frames_requeued_bytes from one RunTransfer metrics row, or -1.
double RequeuedBytes(const std::string& row) {
  const auto doc = obs::JsonValue::Parse(row);
  if (!doc) return -1.0;
  const obs::JsonValue* metrics = doc->Find("metrics");
  const obs::JsonValue* counters =
      metrics != nullptr ? metrics->Find("counters") : nullptr;
  if (counters == nullptr) return -1.0;
  const obs::JsonValue* bytes = counters->Find("frames_requeued_bytes");
  // A run that never retransmitted has no such counter.
  return bytes != nullptr && bytes->is_number() ? bytes->AsDouble() : 0.0;
}

// -- the two kinds of run ------------------------------------------------------

void EndToEnd(const Args& args, Workload& workload, Report& report) {
  // Set-up, several times: the same seed must derive the same inputs.
  CoreRotation rotation;
  std::vector<double> setups;
  std::uint64_t inputs = 0;
  for (int i = 0; i < kSetUps; ++i) {
    rotation.Next();
    const auto t0 = Clock::now();
    const bool warm = workload.SetUp();
    setups.push_back(SecondsSince(t0));
    report.Check(warm, "set-up warm-up transfers complete");
    if (i == 0) inputs = workload.InputDigest();
    report.Check(workload.InputDigest() == inputs, "set-up is deterministic");
  }

  // Timed batches until --seconds have passed. Every batch does the same
  // work, so throughput is that work over a batch wall time: the 10th
  // percentile of them. On a shared host the slow tail is other tenants'
  // load, which drifts over minutes and moves the median batch of a run
  // about twice as much as its fast tenth.
  std::vector<double> walls;
  Outcome first;
  const auto start = Clock::now();
  for (int batch = 0;
       batch < kMinBatches || SecondsSince(start) < args.seconds; ++batch) {
    rotation.Next();
    const auto t0 = Clock::now();
    Outcome o = workload.Run(1);
    const double wall = SecondsSince(t0);
    CheckOutcome(report, o, "batch");
    walls.push_back(wall);
    if (batch == 0) {
      first = std::move(o);
    } else {
      report.Check(o.digest.value() == first.digest.value(),
                   "batches reproduce their outputs");
    }
  }
  if (const auto reference = workload.Reference()) {
    CheckOutcome(report, *reference, "reference");
    report.Check(reference->digest.value() == first.digest.value(),
                 "the harness entry point reproduces the batch");
  }
  const double fast_wall = Quantile(walls, 0.1);
  std::fprintf(stderr,
               "perfbench: %zu batches, wall min %.4f p10 %.4f median %.4f s\n",
               walls.size(), *std::min_element(walls.begin(), walls.end()),
               fast_wall, Median(walls));

  report.Metric("delivered_mb_per_s", first.mib / fast_wall, "MiB/s");
  report.Metric("transfers_per_s",
                static_cast<double>(first.attempted - first.failed) / fast_wall,
                "1/s");
  report.Metric("fct_p50_ms", Percentile(first.fct_ms, 50), "ms");
  report.Metric("fct_p99_ms", Percentile(first.fct_ms, 99), "ms");
  report.Metric("setup_s", Median(setups), "s");
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  obs::JsonWriter w;
  BeginInfo(w, args, inputs, first.digest.value());
  w.Key("batches").UInt(walls.size());
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

void Traced(const Args& args, Workload& workload, Report& report) {
  if (!obs::prof::kCompiledIn) {
    report.Fail("the traced run needs a build with MPQ_PROF on");
    return;
  }
  report.Check(workload.SetUp(), "set-up warm-up transfers complete");
  const std::uint64_t inputs = workload.InputDigest();

  // Unprofiled and profiled batches, alternating, for about half of
  // --seconds. Spans accumulate over the profiled ones.
  const Outcome reference = workload.Run(1);  // also warms the caches
  CheckOutcome(report, reference, "reference batch");
  if (const auto entry = workload.Reference()) {
    CheckOutcome(report, *entry, "reference");
    report.Check(entry->digest.value() == reference.digest.value(),
                 "the harness entry point reproduces the batch");
  }
  obs::prof::SetEnabled(true);
  CheckOutcome(report, workload.Run(1), "profiler warm-up batch");
  obs::prof::SetEnabled(false);
  obs::prof::Reset();
  std::vector<double> plain_walls;
  std::vector<double> traced_walls;
  const auto start = Clock::now();
  while (traced_walls.size() < 2 || SecondsSince(start) < args.seconds / 2) {
    for (const bool traced : {false, true}) {
      obs::prof::SetEnabled(traced);
      const auto t0 = Clock::now();
      const Outcome o = workload.Run(1);
      (traced ? traced_walls : plain_walls).push_back(SecondsSince(t0));
      obs::prof::SetEnabled(false);
      CheckOutcome(report, o, traced ? "traced batch" : "untraced batch");
      report.Check(o.digest.value() == reference.digest.value(),
                   "traced and untraced batches agree");
    }
  }
  const LayerProfile prof(obs::prof::Snapshot());
  double traced_wall_ns = 0.0;
  for (const double w : traced_walls) traced_wall_ns += w * 1e9;
  const double batches = static_cast<double>(traced_walls.size());
  const double sealed =
      static_cast<double>(prof.Count("crypto;seal")) / batches;
  report.Check(sealed > 0, "the batch sends QUIC packets");

  // Allocations over two unprofiled batches; the counts must repeat.
  perfbench::AllocCounts allocs[2];
  for (auto& counts : allocs) {
    const perfbench::AllocCounts before = perfbench::ReadAllocCounts();
    perfbench::SetAllocCounting(true);
    const Outcome o = workload.Run(1);
    perfbench::SetAllocCounting(false);
    const perfbench::AllocCounts after = perfbench::ReadAllocCounts();
    counts = {after.allocations - before.allocations,
              after.bytes - before.bytes};
    CheckOutcome(report, o, "allocation-counted batch");
  }
  report.Check(allocs[0].allocations == allocs[1].allocations &&
                   allocs[0].bytes == allocs[1].bytes,
               "allocation counts repeat exactly");

  // Jobs scaling, capped at the usable cores, median of three rounds
  // with the job counts interleaved; outputs must not change.
  const int cores = args.cores;
  std::map<int, std::vector<double>> scaling_walls;
  std::uint64_t scaling_digest = 0;
  for (int round = 0; round < 3; ++round) {
    for (const int jobs : {1, 2, 4}) {
      const auto t0 = Clock::now();
      const Outcome o = workload.RunScaling(std::min(jobs, cores));
      scaling_walls[jobs].push_back(SecondsSince(t0));
      CheckOutcome(report, o, "scaling batch");
      if (round == 0 && jobs == 1) scaling_digest = o.digest.value();
      report.Check(o.digest.value() == scaling_digest,
                   "outputs identical at every job count");
    }
  }
  std::map<int, double> scaling_wall;
  for (const auto& [jobs, walls] : scaling_walls) {
    scaling_wall[jobs] = Median(walls);
  }

  // Each RunTransfer item on its own, unprofiled.
  const std::vector<TransferItem> items = workload.Items();
  std::map<Protocol, std::vector<double>> item_ms;
  double tcp_ms = 0.0;
  double all_ms = 0.0;
  Outcome item_outcome;
  for (const TransferItem& item : items) {
    const auto t0 = Clock::now();
    const auto r = harness::RunTransfer(item.protocol, item.paths, item.options);
    const double ms = SecondsSince(t0) * 1e3;
    item_ms[item.protocol].push_back(ms);
    all_ms += ms;
    if (!harness::IsQuicFamily(item.protocol)) tcp_ms += ms;
    item_outcome.AddTransfer(r, item.options.transfer_size,
                             harness::IsQuicFamily(item.protocol));
  }
  CheckOutcome(report, item_outcome, "per-item transfers");

  // Retransmitted bytes over new stream bytes, from the QUIC-family
  // items' metrics rows.
  std::filesystem::create_directories(args.scratch);
  const std::string rows_path = args.scratch + "/retx_metrics.ndjson";
  std::filesystem::remove(rows_path);
  double new_bytes = 0.0;
  std::size_t quic_items = 0;
  for (const TransferItem& item : items) {
    if (!harness::IsQuicFamily(item.protocol)) continue;
    harness::TransferOptions options = item.options;
    options.metrics_path = rows_path;
    harness::RunTransfer(item.protocol, item.paths, options);
    new_bytes += static_cast<double>(options.transfer_size.value());
    ++quic_items;
  }
  double retx_bytes = 0.0;
  {
    std::ifstream rows(rows_path);
    std::string row;
    std::size_t count = 0;
    while (std::getline(rows, row)) {
      const double bytes = RequeuedBytes(row);
      report.Check(bytes >= 0.0, "metrics row parses");
      retx_bytes += std::max(bytes, 0.0);
      ++count;
    }
    report.Check(count == quic_items, "one metrics row per QUIC transfer");
  }
  std::filesystem::remove(rows_path);

  // Standalone timings of each layer's public functions.
  const double seal_1300 = SealNs(1300);
  const double seal_48 = SealNs(48);
  const double open_1300 = OpenNs(1300, report);
  const double encode_1300 = WireEncodeNs();
  const double decode_1300 = WireDecodeNs(report);
  const double schedule_run = SimScheduleRunNs();
  const double arm_cancel = SimTimerArmCancelNs();
  cc::OliaCoordinator coordinator;
  const auto olia = coordinator.CreateController();
  const auto olia_peer = coordinator.CreateController();
  const double olia_ack = OnAckNs(*olia);
  cc::Cubic cubic;
  const double cubic_ack = OnAckNs(cubic);
  // Design generation for wsp_lossy's inputs: its kDesigns designs, and
  // the paper's full 253-point design.
  const double generate_ms = MedianMs(3, [&] {
    for (std::size_t k = 0; k < WspLossy::kDesigns; ++k) {
      const auto options = WspLossy::Options(args.seed, k);
      expdesign::GenerateScenarios(expdesign::ScenarioClass::kLowBdpLosses,
                                   options.scenario_count, options.seed);
    }
  });
  const double generate_253_ms = MedianMs(3, [&] {
    expdesign::GenerateScenarios(expdesign::ScenarioClass::kLowBdpLosses, 253,
                                 WspLossy::Options(args.seed, 0).seed);
  });
  const double flows_ms = MedianMs(5, [&] {
    harness::GenerateFlows(Fleet::Options(args.seed, Fleet::kConnections));
  });

  const double pkts = sealed;
  const double events =
      static_cast<double>(prof.Count("sim;event")) / batches;
  report.Metric("crypto.seal.ns_per_call", prof.NsPerCall("crypto;seal"), "ns");
  report.Metric("crypto.open.ns_per_call", prof.NsPerCall("crypto;open"), "ns");
  report.Metric("crypto.self_share", prof.Share("crypto", traced_wall_ns), "ratio");
  report.Metric("crypto.seal_1300b.ns", seal_1300, "ns");
  report.Metric("crypto.seal_48b.ns", seal_48, "ns");
  report.Metric("crypto.open_1300b.ns", open_1300, "ns");
  report.Metric("wire.encode_1300b.ns", encode_1300, "ns");
  report.Metric("wire.decode_1300b.ns", decode_1300, "ns");
  report.Metric("assembly.packet.ns_per_call", prof.NsPerCall("assembly;packet"), "ns");
  report.Metric("assembly.transmit.ns_per_call", prof.NsPerCall("assembly;transmit"), "ns");
  report.Metric("assembly.build_ack.ns_per_call", prof.NsPerCall("assembly;build_ack"), "ns");
  report.Metric("assembly.self_share", prof.Share("assembly", traced_wall_ns), "ratio");
  report.Metric("quic.allocs_per_pkt",
                static_cast<double>(allocs[0].allocations) / pkts, "count");
  report.Metric("quic.alloc_bytes_per_pkt",
                static_cast<double>(allocs[0].bytes) / pkts, "B");
  report.Metric("quic.pkts_per_mb", pkts / reference.quic_mib, "count/MiB");
  report.Metric("dispatch.packet.ns_per_call", prof.NsPerCall("dispatch;packet"), "ns");
  report.Metric("dispatch.frames.ns_per_call", prof.NsPerCall("dispatch;frames"), "ns");
  report.Metric("dispatch.self_share", prof.Share("dispatch", traced_wall_ns), "ratio");
  report.Metric("recovery.ack.ns_per_call", prof.NsPerCall("recovery;ack"), "ns");
  report.Metric("recovery.retx_timer.calls",
                static_cast<double>(prof.Count("recovery;retx_timer")) / batches,
                "count");
  report.Metric("recovery.retx_bytes_frac", retx_bytes / new_bytes, "ratio");
  report.Metric("scheduler.select.ns_per_call", prof.NsPerCall("scheduler;select"), "ns");
  report.Metric("sim.event.ns_per_call", prof.NsPerCall("sim;event"), "ns");
  report.Metric("sim.events_per_pkt", events / pkts, "count");
  report.Metric("sim.events_per_flow",
                events / static_cast<double>(reference.attempted), "count");
  report.Metric("sim.self_share", prof.Share("sim", traced_wall_ns), "ratio");
  report.Metric("sim.schedule_run.ns", schedule_run, "ns");
  report.Metric("sim.timer_arm_cancel.ns", arm_cancel, "ns");
  report.Metric("cc.olia_on_ack.ns", olia_ack, "ns");
  report.Metric("cc.cubic_on_ack.ns", cubic_ack, "ns");
  report.Metric("tcpsim.wall_share", tcp_ms / all_ms, "ratio");
  const std::pair<Protocol, const char*> kNames[] = {
      {Protocol::kTcp, "tcp"}, {Protocol::kQuic, "quic"},
      {Protocol::kMptcp, "mptcp"}, {Protocol::kMpquic, "mpquic"}};
  for (const auto& [protocol, name] : kNames) {
    report.Metric(std::string("harness.transfer_ms.") + name + ".p50",
                  Median(item_ms[protocol]), "ms");
  }
  report.Metric("expdesign.generate_ms", generate_ms, "ms");
  report.Metric("expdesign.generate_253_ms", generate_253_ms, "ms");
  report.Metric("workload.generate_flows_ms", flows_ms, "ms");
  report.Metric("parallel.speedup_j2", scaling_wall[1] / scaling_wall[2], "x");
  report.Metric("parallel.speedup_j4", scaling_wall[1] / scaling_wall[4], "x");
  report.Metric("prof.coverage",
                static_cast<double>(prof.self_ns) / traced_wall_ns, "ratio");
  report.Metric("prof.overhead_pct",
                100.0 * (Median(traced_walls) / Median(plain_walls) - 1.0), "%");

  // The machine record and the layer ledger: each in-engine cost beside
  // the standalone cost of the same layer's public function.
  obs::JsonWriter w;
  BeginInfo(w, args, inputs, reference.digest.value());
  w.Key("scaling_jobs").BeginArray();
  for (const int jobs : {1, 2, 4}) w.UInt(static_cast<std::uint64_t>(std::min(jobs, cores)));
  w.EndArray();
  w.Key("ledger").BeginArray();
  const struct {
    const char* layer;
    const char* leaf;
    const char* standalone;
    double standalone_ns;
  } kPairs[] = {
      {"crypto", "crypto;seal", "crypto.seal_1300b", seal_1300},
      {"crypto", "crypto;seal", "crypto.seal_48b", seal_48},
      {"crypto", "crypto;open", "crypto.open_1300b", open_1300},
      {"assembly/wire", "assembly;packet", "wire.encode_1300b", encode_1300},
      {"dispatch/wire", "dispatch;packet", "wire.decode_1300b", decode_1300},
      {"sim", "sim;event", "sim.schedule_run", schedule_run},
  };
  for (const auto& pair : kPairs) {
    const double engine_ns = prof.NsPerCall(pair.leaf);
    w.BeginObject();
    w.Key("layer").String(pair.layer);
    w.Key("in_engine").String(pair.leaf);
    w.Key("in_engine_ns").Double(engine_ns);
    w.Key("standalone").String(pair.standalone);
    w.Key("standalone_ns").Double(pair.standalone_ns);
    w.Key("ratio").Double(engine_ns / pair.standalone_ns);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args.trace = value[0] == '1';
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload bulk|fleet|wsp_lossy --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR]\n",
                 argv[0]);
    return 2;
  }
  const auto workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  args.cores = UsableCores();
  Report report;
  if (args.trace) {
    Traced(args, *workload, report);
  } else {
    EndToEnd(args, *workload, report);
  }
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
