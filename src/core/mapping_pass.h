// The composable mapping-pass pipeline behind the Planner facade
// (DESIGN.md §7).
//
// Each of the paper's four steps — and the baseline/dynamic-modality
// variants that used to be bespoke entry points — is a MappingPass: a named
// transformation of the shared PassContext (mapping + locality plan over one
// Simulator). A pipeline is an ordered vector of passes; the driver
// (run_passes in planner.h) executes them in order and records a schedule
// snapshot after each, reproducing the per-step series of Fig. 4 / Table 4.
//
// Ordering invariants (DESIGN.md §7): exactly one seeding pass
// (computation-prioritized, cluster, or warm-start) must run first and leave
// the mapping complete; weight locality must precede activation fusion
// (fusion budgets the DRAM capacity left by pins); remapping must come last
// (it re-runs steps 2-3 internally per move). The builders in planner.h
// enforce this; hand-assembled pipelines are expected to follow it.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/comp_prioritized.h"
#include "core/remapping.h"

namespace h2h {

/// Shared state a pipeline threads through its passes. The simulator is the
/// session's cached cost state (the Planner guarantees it outlives the run);
/// mapping and plan are the solution being grown in place.
struct PassContext {
  const Simulator& sim;
  Mapping& mapping;
  LocalityPlan& plan;
  /// Filled by the remapping pass (zeroes otherwise).
  RemapStats& remap_stats;
  /// Absolute wall-clock deadline for budget-aware passes (remapping);
  /// nullopt runs to convergence.
  std::optional<std::chrono::steady_clock::time_point> deadline;
  /// Set when a budget-aware pass stopped on `deadline` before converging.
  bool stopped_on_budget = false;
};

/// One stage of the pipeline. Implementations must be deterministic (same
/// context in, same context out) — the per-step reproducibility of the
/// paper's tables and the probe/rollback equivalence in step 4 depend on it.
class MappingPass {
 public:
  virtual ~MappingPass() = default;

  /// Snapshot label recorded after the pass runs (e.g. "2: weight
  /// locality"); also the key PlanResponse::baseline_result() matches on.
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  virtual void run(PassContext& ctx) const = 0;

 protected:
  explicit MappingPass(std::string name) : name_(std::move(name)) {}

 private:
  std::string name_;
};

using PassPipeline = std::vector<std::unique_ptr<MappingPass>>;

// Factories for the concrete passes. Every pass takes an optional snapshot
// label so pipeline variants (dynamic modality, cluster baseline) can keep
// their historical step names.

/// Step 1 — computation-prioritized mapping (§4.1). Seeds the mapping; the
/// options carry the optional per-layer placement preference.
[[nodiscard]] std::unique_ptr<MappingPass> make_comp_prioritized_pass(
    CompPrioritizedOptions options = {},
    std::string name = "1: computation-prioritized");

/// Seeding alternative: adopt a complete mapping from a prior PlanResponse
/// (same model, any locality state — pins/fusion are recomputed by the
/// following passes). The mapping is copied at pipeline-build time.
[[nodiscard]] std::unique_ptr<MappingPass> make_warm_start_pass(
    Mapping warm_start, std::string name = "1: warm start");

/// Seeding alternative: communication-prioritized clustering (§2 baseline) —
/// one accelerator per modality backbone, unsupported layers spilled to
/// their fastest supporting accelerator.
[[nodiscard]] std::unique_ptr<MappingPass> make_cluster_mapping_pass(
    std::string name = "cluster mapping");

/// Step 2 — weight locality knapsack (§4.2). Options carry the
/// dynamic-modality force-pin hook.
[[nodiscard]] std::unique_ptr<MappingPass> make_weight_locality_pass(
    WeightLocalityOptions options = {},
    std::string name = "2: weight locality");

/// Step 3 — activation transfer optimization (§4.3).
[[nodiscard]] std::unique_ptr<MappingPass> make_activation_fusion_pass(
    FusionOptions options = {}, std::string name = "3: activation fusion");

/// Step 4 — data-locality-aware remapping (§4.4). Honors the context
/// deadline and reports budget exhaustion through PassContext.
[[nodiscard]] std::unique_ptr<MappingPass> make_remapping_pass(
    RemapOptions options = {},
    std::string name = "4: locality-aware remapping");

}  // namespace h2h
