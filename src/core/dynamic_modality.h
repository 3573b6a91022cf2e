// §4.5 extension — dynamic modality change.
//
// Multi-sensor systems toggle modalities at runtime (the paper's example: a
// health monitor enabling/disabling motion sensors several times a second).
// Re-running H2H from scratch would re-load every weight; the extension
// re-uses the previous round's buffered weights:
//  1. step 1 prioritizes mapping a layer onto the accelerator that already
//     holds its weights (the step-1 preference vector), and
//  2. the knapsack is modified so that resident weights are pinned first
//     ("part of the weight allocation is determined").
//
// Both hooks are plain pass options, so a round is just a pipeline
// configuration (mapping_pass.h) run through a Planner: the per-variant
// Simulator/CostTable state is cached in the session cache, and revisited
// modality sets re-plan warm — no cost-table rebuild, no virtual
// AcceleratorModel calls (the Fig. 5b repeated-replanning scenario).
//
// Model variants are derived with subset_model(): inactive branches are
// removed, kept layers keep their shapes (dropped inputs are semantically
// zero-filled), so layer names/weights stay identical across rounds and
// weight residency can be tracked by name.
#pragma once

#include <map>
#include <span>
#include <string>

#include "core/planner.h"

namespace h2h {

/// Sub-model induced by the active modality set (shared tag 0 is always
/// active). Structural layers left without any live producer are dropped
/// transitively. The result intentionally skips full shape validation:
/// a Concat may legitimately keep a single live input.
[[nodiscard]] ModelGraph subset_model(const ModelGraph& full,
                                      std::span<const std::uint32_t> active);

struct DynamicRemapResult {
  PlanResponse h2h;
  Bytes weights_reused = 0;  // pinned bytes already resident on that accelerator
  Bytes weights_loaded = 0;  // pinned bytes that must be (re)loaded
  /// Fraction of pinned weight bytes served from residency.
  [[nodiscard]] double reuse_ratio() const noexcept {
    const Bytes total = weights_reused + weights_loaded;
    return total == 0 ? 0.0
                      : static_cast<double>(weights_reused) /
                            static_cast<double>(total);
  }
};

class DynamicModalityMapper {
 public:
  explicit DynamicModalityMapper(const SystemConfig& sys,
                                 PlanOptions options = {});

  /// Map a model variant, preferring residency from earlier rounds, and
  /// update residency to the new pinned set. Revisited variants are served
  /// from the planner's session cache (h2h.warm is set on the result).
  [[nodiscard]] DynamicRemapResult remap(const ModelGraph& variant);

  /// Forget all resident weights (cold start). The session cache is kept:
  /// residency is a solution property, not cost state.
  void reset_residency() noexcept { resident_.clear(); }

  [[nodiscard]] std::size_t resident_layer_count() const noexcept {
    return resident_.size();
  }

  /// The session cache backing the rounds (hit/miss introspection).
  [[nodiscard]] const Planner& planner() const noexcept { return planner_; }

 private:
  PlanOptions options_;
  Planner planner_;
  std::map<std::string, AccId, std::less<>> resident_;  // layer name -> acc
};

}  // namespace h2h
