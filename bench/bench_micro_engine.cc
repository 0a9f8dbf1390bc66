// Micro-benchmarks (google-benchmark) of the engine hot paths outside the
// codecs: simulator event throughput, received-range tracking, stream
// reassembly, scheduler decisions, and WSP design generation.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cc/newreno.h"
#include "expdesign/wsp.h"
#include "obs/prof.h"
#include "quic/ack_tracker.h"
#include "quic/scheduler.h"
#include "quic/streams.h"
#include "sim/simulator.h"
#include "sim/timer.h"

namespace {

using namespace mpq;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  // Throughput of schedule+dispatch for a batch of timers.
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.Schedule(i % 977, [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

void BM_TimerRearm(benchmark::State& state) {
  // The per-packet timer path: every sent or acked packet re-arms its
  // connection's RTO, ACK and pacing timers to a later deadline. 1000
  // live Timers are re-armed round-robin in place, then drained.
  constexpr int kTimers = 1000;
  for (auto _ : state) {
    sim::Simulator sim;
    int fired = 0;
    std::vector<std::unique_ptr<sim::Timer>> timers;
    timers.reserve(kTimers);
    for (int i = 0; i < kTimers; ++i) {
      timers.push_back(
          std::make_unique<sim::Timer>(sim, [&fired] { ++fired; }));
      timers.back()->SetAt(i);
    }
    for (int i = 0; i < state.range(0); ++i) {
      timers[static_cast<std::size_t>(i % kTimers)]->SetAt(kTimers + i);
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TimerRearm)->Arg(100000);

void BM_ReceivedTrackerInOrder(benchmark::State& state) {
  for (auto _ : state) {
    quic::ReceivedPacketTracker tracker;
    for (PacketNumber pn = PacketNumber{1}; pn <= 10000; ++pn) {
      tracker.OnPacketReceived(pn, static_cast<TimePoint>(pn));
    }
    benchmark::DoNotOptimize(tracker.BuildAckRanges());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ReceivedTrackerInOrder);

void BM_ReceivedTrackerLossy(benchmark::State& state) {
  // Every 10th packet missing: ~1000 live ranges, capped ACK at 256.
  for (auto _ : state) {
    quic::ReceivedPacketTracker tracker;
    for (PacketNumber pn = PacketNumber{1}; pn <= 10000; ++pn) {
      if (pn % 10 == 0) continue;
      tracker.OnPacketReceived(pn, static_cast<TimePoint>(pn));
    }
    benchmark::DoNotOptimize(tracker.BuildAckRanges());
  }
  state.SetItemsProcessed(state.iterations() * 9000);
}
BENCHMARK(BM_ReceivedTrackerLossy);

void BM_RecvStreamReassemblyReversed(benchmark::State& state) {
  // Worst-case arrival order: last chunk first.
  constexpr int kChunks = 512;
  for (auto _ : state) {
    quic::RecvStream stream(StreamId{3});
    ByteCount delivered{};
    stream.SetSink([&delivered](ByteCount, std::span<const std::uint8_t> d,
                                bool) { delivered += d.size(); });
    quic::StreamFrame frame;
    frame.stream_id = StreamId{3};
    frame.data.assign(1300, 7);
    for (int i = kChunks - 1; i >= 0; --i) {
      frame.offset = static_cast<ByteCount>(i) * 1300;
      stream.OnStreamFrame(frame);
    }
    benchmark::DoNotOptimize(delivered);
  }
  state.SetBytesProcessed(state.iterations() * kChunks * 1300);
}
BENCHMARK(BM_RecvStreamReassemblyReversed);

void BM_SchedulerSelect(benchmark::State& state) {
  // Per-packet path-selection cost with 4 measured paths.
  std::vector<std::unique_ptr<quic::Path>> paths;
  std::vector<quic::Path*> pointers;
  for (int i = 0; i < 4; ++i) {
    paths.push_back(std::make_unique<quic::Path>(
        static_cast<PathId>(i), sim::Address{1, 0}, sim::Address{2, 0},
        std::make_unique<cc::NewReno>()));
    paths.back()->rtt().AddSample((10 + i * 15) * kMillisecond, 0);
    pointers.push_back(paths.back().get());
  }
  quic::LowestRttScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.SelectPath(pointers, ByteCount{1350}));
  }
}
BENCHMARK(BM_SchedulerSelect);

void BM_WspDesign253(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(expdesign::WspDesign(8, 253, 42));
  }
}
BENCHMARK(BM_WspDesign253);

void BM_ProfScopeDisabled(benchmark::State& state) {
  // Cost every instrumented call pays in a default build: MPQ_PROF is
  // compiled in but recording is off — one relaxed load and a branch.
  // Everything else in this binary runs under exactly this regime.
  obs::prof::SetEnabled(false);
  for (auto _ : state) {
    MPQ_PROF_SCOPE("bench/disabled");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeDisabled);

void BM_ProfScopeEnabled(benchmark::State& state) {
  // Cost while actively profiling: enter (TLS + child lookup), two
  // timestamp reads, histogram record on exit.
  obs::prof::SetEnabled(true);
  for (auto _ : state) {
    MPQ_PROF_SCOPE("bench/enabled");
  }
  obs::prof::SetEnabled(false);
  obs::prof::Reset();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfScopeEnabled);

}  // namespace

BENCHMARK_MAIN();
