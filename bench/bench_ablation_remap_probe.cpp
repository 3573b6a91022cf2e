// Ablation: cost of one step-4 candidate probe. Since the delta-evaluation
// refactor a probe re-runs steps 2-3 as a delta over the moved layer and its
// neighbours (falling back to the full per-accelerator pass only under
// capacity pressure), reuses knapsack solves through a memoizing cache, and
// evaluates the schedule into IncrementalSchedule's overlay instead of
// journaled apply/undo. This driver isolates those knobs:
//
//   /0  full       — per-probe steps 2-3 re-run both touched accelerators
//   /1  delta      — delta passes, knapsack cache off
//   /2  delta+$    — delta passes, knapsack cache on (the default)
//
// All modes land on bit-identical mappings (asserted by the table up front
// and pinned in test_remapping.cpp). BM_RemapLoop uses the standard catalog
// (large local DRAM: the delta path almost never needs a knapsack);
// BM_RemapLoopPressured shrinks local DRAM below the weight footprint so
// every probe fights the knapsack frontier — the regime the cache exists
// for.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <utility>

#include "h2h.h"

namespace {

using namespace h2h;

struct Prepared {
  ModelGraph model;
  SystemConfig sys;
  Mapping mapping;
  LocalityPlan plan;
};

Prepared prepare(ModelGraph model, SystemConfig sys) {
  const Simulator sim(model, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(model);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);
  return Prepared{std::move(model), std::move(sys), std::move(mapping),
                  std::move(plan)};
}

RemapOptions probe_options(int mode) {
  RemapOptions opts;
  opts.use_delta_locality = mode >= 1;
  opts.use_knapsack_cache = mode >= 2;
  return opts;
}

const char* mode_label(int mode) {
  switch (mode) {
    case 0: return "full-steps23-rerun";
    case 1: return "delta-steps23";
    default: return "delta-steps23+knap-cache";
  }
}

/// A DRAM-starved uniform system: capacity far below any zoo model's weight
/// footprint, so the step-2 knapsack frontier moves on every probe.
SystemConfig pressured_system(std::size_t n, Bytes dram_capacity) {
  std::vector<AcceleratorPtr> accs;
  for (std::size_t i = 0; i < n; ++i) {
    AcceleratorSpec spec;
    spec.name = strformat("P%zu", i);
    spec.description = "DRAM-starved bench accelerator";
    spec.board = "bench";
    spec.style = DataflowStyle::MatrixEngine;
    spec.kinds = KindSupport{true, true, true};
    spec.peak_macs_per_cycle = 100;
    spec.pe = PeArray{10, 10};
    spec.freq_hz = 1e9;
    spec.dram_bandwidth = 10e9;
    spec.dram_capacity = dram_capacity;
    spec.energy_per_mac = picojoules(1);
    spec.energy_per_dram_byte = nanojoules(0.1);
    spec.link_power = 1.0;
    accs.push_back(make_analytical(std::move(spec)));
  }
  HostParams host;
  host.bw_acc = 0.125e9;
  return SystemConfig(std::move(accs), host);
}

void run_loop(benchmark::State& state, Prepared& p, const Simulator& sim) {
  const RemapOptions opts = probe_options(static_cast<int>(state.range(0)));
  std::uint64_t attempts = 0;
  std::uint64_t hits = 0;
  std::uint64_t full_passes = 0;
  for (auto _ : state) {
    Mapping mapping = p.mapping;
    LocalityPlan plan = p.plan;
    const RemapStats stats = data_locality_remapping(sim, mapping, plan, opts);
    attempts += stats.attempts;
    hits += stats.knapsack_hits;
    full_passes += stats.delta_full_passes;
    benchmark::DoNotOptimize(plan.pinned_count());
  }
  state.SetLabel(mode_label(static_cast<int>(state.range(0))));
  state.counters["probes"] = benchmark::Counter(
      static_cast<double>(attempts), benchmark::Counter::kIsRate);
  state.counters["knap_hits"] = benchmark::Counter(
      static_cast<double>(hits), benchmark::Counter::kIsRate);
  state.counters["full_passes"] = benchmark::Counter(
      static_cast<double>(full_passes), benchmark::Counter::kIsRate);
}

void BM_RemapLoop(benchmark::State& state) {
  Prepared p = prepare(make_vlocnet(),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  run_loop(state, p, sim);
}
BENCHMARK(BM_RemapLoop)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_RemapLoopPressured(benchmark::State& state) {
  Prepared p = prepare(make_vlocnet(), pressured_system(6, mib(4)));
  const Simulator sim(p.model, p.sys);
  run_loop(state, p, sim);
}
BENCHMARK(BM_RemapLoopPressured)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

/// Remap-loop seconds for one prepared instance (best of `reps`).
double remap_seconds(const Prepared& p, const Simulator& sim, int mode,
                     RemapStats& stats, int reps = 3) {
  const RemapOptions opts = probe_options(mode);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Mapping mapping = p.mapping;
    LocalityPlan plan = p.plan;
    const auto t0 = std::chrono::steady_clock::now();
    stats = data_locality_remapping(sim, mapping, plan, opts);
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // Profiled runs (--benchmark_filter present) skip the verification
  // preamble: its un-timed setup work used to dominate gprof samples and get
  // misattributed to the benchmarks (bench/README.md). Other --benchmark_*
  // flags (CI smoke's --benchmark_min_time) keep the preamble's assertions.
  bool filtered = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_filter", 18) == 0) filtered = true;

  if (!filtered) {
    TextTable table({"model", "latency (s)", "full23 (ms)", "delta (ms)",
                     "delta+$ (ms)", "speedup", "knap hit/miss",
                     "full passes"},
                    {TextTable::Align::Left});
    for (const ZooInfo& info : zoo_catalog()) {
      Prepared p = prepare(make_model(info.id), pressured_system(6, mib(4)));
      const Simulator sim(p.model, p.sys);

      std::array<RemapStats, 3> stats;
      std::array<double, 3> secs{};
      for (int mode = 0; mode < 3; ++mode)
        secs[mode] = remap_seconds(p, sim, mode, stats[mode]);

      // All strategies must land on the same mapping quality.
      std::array<double, 3> lat{};
      for (int mode = 0; mode < 3; ++mode) {
        Mapping mapping = p.mapping;
        LocalityPlan plan = p.plan;
        (void)data_locality_remapping(sim, mapping, plan, probe_options(mode));
        lat[mode] = sim.simulate(mapping, plan).latency;
      }
      if (lat[0] != lat[1] || lat[0] != lat[2]) {
        std::cerr << "MISMATCH on " << info.key << ": full " << lat[0]
                  << " vs delta " << lat[1] << " vs cached " << lat[2] << '\n';
        return 1;
      }

      table.add_row(
          {std::string(info.key), strformat("%.6f", lat[2]),
           strformat("%.3f", secs[0] * 1e3), strformat("%.3f", secs[1] * 1e3),
           strformat("%.3f", secs[2] * 1e3),
           strformat("%.1fx", secs[0] / std::max(secs[2], 1e-9)),
           strformat("%llu/%llu",
                     static_cast<unsigned long long>(stats[2].knapsack_hits),
                     static_cast<unsigned long long>(stats[2].knapsack_misses)),
           strformat("%llu", static_cast<unsigned long long>(
                                 stats[2].delta_full_passes))});
    }
    std::cout << "step-4 probe cost under DRAM pressure: full steps-2/3 "
                 "re-run vs delta passes vs delta + knapsack cache @ "
                 "0.125 GB/s (latencies asserted equal):\n";
    table.print(std::cout);
    std::cout << '\n';
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
