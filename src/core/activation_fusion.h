// Step 3 — activation transfer optimization (paper §4.3).
//
// "If two adjacent layers are mapped to the same accelerator, their
// intermediate IFM and OFM can be reused locally" — such edges are marked
// fused: the consumer reads from local DRAM and the producer skips the host
// write if every consumer is local. Fused buffers share the accelerator's
// local DRAM with pinned weights; with enforce_capacity (default) an edge is
// fused only while M_acc has room (conservative whole-inference liveness).
#pragma once

#include <span>

#include "system/simulator.h"

namespace h2h {

struct FusionOptions {
  /// Require fused activation buffers to fit in M_acc minus pinned weights.
  /// The ablation bench compares against unbounded fusion.
  bool enforce_capacity = true;
  bool operator==(const FusionOptions&) const = default;
};

struct FusionStats {
  std::size_t fused_edges = 0;
  Bytes fused_bytes = 0;
  std::size_t rejected_for_capacity = 0;
};

/// Recompute fusion flags. If `only_accs` is empty all accelerators are
/// re-optimized; otherwise only edges both of whose endpoints are on a
/// listed accelerator are reconsidered (step-4 inner loop).
FusionStats optimize_activation_fusion(const Simulator& sim,
                                       const Mapping& mapping,
                                       LocalityPlan& plan,
                                       const FusionOptions& options = {},
                                       std::span<const AccId> only_accs = {});

/// Single-accelerator pass over an explicit member list (`members` must be
/// Mapping::members(acc)) — the unit the full pass iterates and the step-4
/// delta evaluation falls back to when fused buffers contend for capacity
/// (DESIGN.md §6).
FusionStats optimize_activation_fusion_acc(const CostTable& costs,
                                           const ModelGraph& model,
                                           const Mapping& mapping,
                                           std::span<const LayerId> members,
                                           LocalityPlan& plan,
                                           const FusionOptions& options,
                                           AccId acc);

}  // namespace h2h
