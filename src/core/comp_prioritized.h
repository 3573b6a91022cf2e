// Step 1 — computation-prioritized mapping (paper §4.1).
//
// Iteratively take the frontier ("all the nodes without predecessors" among
// unmapped layers), enumerate every frontier -> accelerator assignment, and
// commit the one with the smallest system-latency increment. Zero data
// locality is assumed: every layer's weights and activations cross the host
// link, so the choice is driven by compute affinity and queue serialization.
// Waves come from an indegree-counting FrontierWorklist (O(V + E) total) and
// per-candidate durations are cost-table reads — no per-query model
// evaluation.
//
// Enumeration is exact while the candidate product stays within
// `max_candidates`; larger frontiers are split into deterministic chunks
// mapped greedily in sequence. The enumeration itself is a lex-order DFS
// with incremental accelerator tails: subtrees are cut by a
// makespan-lower-bound check, and the last chunk position is scored as one
// sweep over its contiguous duration row (DESIGN.md §10). Ties beyond
// (makespan, finish-sum) keep the assignment a mixed-radix loop with
// choice[0] varying fastest enumerates first — the colexicographically
// smallest choice vector (see comp_prioritized.cpp).
//
// An optional per-layer preference vector collapses a layer's candidates to
// the one accelerator it names: dynamic modality (§4.5) prefers where a
// layer's weights already live, and a frozen replan (freeze_outside in
// core/planner.h) keeps every frozen layer where it is.
#pragma once

#include "system/simulator.h"

namespace h2h {

/// Work accounting of one computation_prioritized_mapping run (benches and
/// tests; zero cost when no sink is attached).
struct CompPrioritizedStats {
  std::uint64_t waves = 0;
  std::uint64_t chunks = 0;
  /// Complete assignments scored against the incumbent.
  std::uint64_t evaluated = 0;
  /// Subtrees cut because even their lower bound lost on makespan.
  std::uint64_t bound_pruned = 0;
};

struct CompPrioritizedOptions {
  /// Upper bound on enumerated assignments per frontier chunk.
  std::uint64_t max_candidates = 200000;
  /// Optional placement preference, indexed by LayerId::value (size >= the
  /// model's layer count when set): a layer whose entry names an accelerator
  /// that supports it has that accelerator as its only candidate; host
  /// means no preference. The dynamic-modality extension (§4.5) prefers
  /// where weights already live; frozen replans (planner.h) keep frozen
  /// layers in place.
  const std::vector<AccId>* preferred = nullptr;
  /// Optional work-accounting sink.
  CompPrioritizedStats* stats = nullptr;
  bool operator==(const CompPrioritizedOptions&) const = default;
};

/// Produce a complete mapping (and execution sequence) for the model.
/// Throws ConfigError if some layer kind is supported by no accelerator.
[[nodiscard]] Mapping computation_prioritized_mapping(
    const Simulator& sim, const CompPrioritizedOptions& options = {});

}  // namespace h2h
