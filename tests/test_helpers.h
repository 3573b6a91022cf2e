// Shared fixtures for the test suite: deterministic miniature models and
// systems with numbers simple enough to verify by hand, plus random DAG and
// random system generators for property sweeps.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "h2h.h"
#include "util/rng.h"

namespace h2h::testing {

/// Wall-clock budget for the "search time stays under one second" family of
/// assertions (Fig. 5(b)). The paper bound applies to optimized binaries;
/// unoptimized and sanitizer builds run the search many times slower, so
/// they get a proportionally relaxed budget to stay deterministic. The
/// H2H_SEARCH_TIME_BUDGET_S environment variable overrides both (CI sets it
/// on shared runners, where parallel ctest contends for cores).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define H2H_TESTING_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define H2H_TESTING_SANITIZED 1
#endif
#endif

[[nodiscard]] inline double search_time_budget() noexcept {
  if (const char* env = std::getenv("H2H_SEARCH_TIME_BUDGET_S")) {
    if (const double v = std::atof(env); v > 0.0) return v;
  }
  // Ratcheted after the pruned step-1 enumeration (lex-DFS + bound prune +
  // batched sums): the worst case measured locally (zoo x all bandwidths,
  // bench_fig5b_search_time) is ~10 ms optimized (10x headroom). CI
  // additionally enforces the optimized bound in a dedicated serial Release
  // ctest invocation.
#if defined(H2H_TESTING_SANITIZED) || !defined(NDEBUG)
  return 15.0;
#else
  return 0.1;
#endif
}

/// A three-layer linear model: input(1KiB) -> convA -> convB -> fcC.
/// All sizes chosen for easy hand-calculation: 118784 total MACs
/// (73728 + 36864 + 8192) and, on one simple_spec accelerator with zero
/// locality, 29632 host-link bytes. test_fixture_smoke.cpp asserts these
/// and the resulting end-to-end latency/energy.
[[nodiscard]] ModelGraph make_chain_model();

/// A diamond: input -> a -> {b, c} -> add(d) -> fc(e).
/// Hand numbers: 1515520 total MACs (294912 + 2*589824 + 40960) plus 4096
/// eltwise adds; 171400 host-link bytes on one simple_spec accelerator
/// with zero locality (asserted in test_fixture_smoke.cpp).
[[nodiscard]] ModelGraph make_diamond_model();

/// Two-modality mini MMMT model with a fusion concat and two task heads
/// (modality tags 1 and 2 on the branches).
/// Hand numbers: 489728 total MACs (conv 110592 + 294912, LSTM 81920,
/// FCs 2048 + 2*128) plus 10240 pooling ops; 59104 host-link bytes on one
/// simple_spec accelerator with zero locality (test_fixture_smoke.cpp).
[[nodiscard]] ModelGraph make_mini_mmmt_model();

/// A spec with round numbers: 100 MACs/cycle at 1 GHz (1e11 MAC/s), 10 GB/s
/// local DRAM, `dram_capacity` local DRAM, matrix-engine dataflow, supports
/// everything. Energy: 1 pJ/MAC, 0.1 nJ/B DRAM, 1 W link.
[[nodiscard]] AcceleratorSpec simple_spec(const std::string& name,
                                          Bytes dram_capacity);

/// System of `n` identical simple_spec accelerators at `bw_acc` (default
/// 1 GB/s host links).
[[nodiscard]] SystemConfig make_uniform_system(std::size_t n,
                                               double bw_acc = 1e9,
                                               Bytes dram_capacity = gib(1));

/// A 3-accelerator heterogeneous mini system: a fast conv-only design, a
/// generic conv/fc/lstm engine, and an LSTM/FC specialist, with distinct
/// throughputs so computation-prioritized choices are predictable.
[[nodiscard]] SystemConfig make_mini_hetero_system(double bw_acc = 1e9);

/// Random layered DAG with Conv/FC/LSTM/Pool/Eltwise/Concat nodes: always a
/// valid ModelGraph (shapes agree). Node count in [4, 40].
[[nodiscard]] ModelGraph make_random_model(Rng& rng);

/// Random heterogeneous system of 2..8 accelerators with randomized specs
/// (every layer kind supported by at least one accelerator).
[[nodiscard]] SystemConfig make_random_system(Rng& rng);

/// FNV-1a over the accelerator and sequence slot of every layer: a compact
/// fingerprint for tests that pin whole mappings bit for bit.
[[nodiscard]] std::uint64_t mapping_fnv(const ModelGraph& model,
                                        const Mapping& mapping);

}  // namespace h2h::testing
