// Fault-tolerant live repair: warm delta re-plans on a mutating system
// (DESIGN.md §12).
//
// A RepairEngine owns one (model, system) pair plus the live mapping being
// served. Each FaultEvent mutates the owned SystemConfig (availability,
// link degrades, compute derates — the CostTable rebuilds lazily off the
// derate/link fingerprints), then repairs the mapping by re-planning only a
// *damage cone* of affected layers through the existing pass machinery:
//
//  - Forced evictions: every layer whose current accelerator can no longer
//    run it (dead device, capability exclusion) is in the cone.
//  - Event-local opportunity set: the event accelerator's members (they may
//    prefer to leave a degraded/derated device), their graph neighbours for
//    a link degrade (either endpoint of an edge crossing the slowed link
//    may move), and — for improving events — every layer that would now run
//    strictly faster on the event accelerator (step-1 measure).
//
// Everything outside the cone is frozen where it is (freeze_outside and
// frozen_options in core/planner.h): step 1 keeps its accelerator, steps 2
// and 4 keep its pins, and step 4 never moves it — the same frozen replan
// the multi-tenant CoMapper rounds run, with "damage cone" standing in for
// "active tenant span". When the warm repair's latency exceeds a
// configurable multiple of the best reference (the faulted latency when the
// old mapping is still runnable, the pre-fault latency otherwise), a
// from-scratch re-plan runs as fallback and wins if strictly better.
//
// Infeasibility (a dropout leaves a required-caps layer with zero feasible
// accelerators) is reported in-band via RepairResult::outcome — never as an
// exception — so the serve loop can answer `infeasible_repair` and keep
// running. After an infeasible event the engine keeps the stale pre-fault
// mapping; a later improving event (the accelerator returning) makes the
// system repairable again from that same mapping.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/planner.h"
#include "repair/fault.h"

namespace h2h {

struct RepairOptions {
  /// Pass options for both the warm repair and the from-scratch fallback
  /// (including options.time_budget_s per plan).
  PlanOptions plan;
  /// Try a from-scratch re-plan when the warm repair exceeds the bound.
  bool allow_fallback = true;
  /// The bound: warm latency > fallback_ratio x reference triggers the
  /// fallback (reference = faulted latency when the old mapping still runs,
  /// pre-fault latency after a dropout).
  double fallback_ratio = 1.2;
};

enum class RepairOutcome {
  Repaired,    // a valid repaired mapping was adopted
  Infeasible,  // some layer has no feasible accelerator; mapping unchanged
};

[[nodiscard]] std::string_view to_string(RepairOutcome outcome) noexcept;

/// One migrated layer: where it ran before the event, where it runs now,
/// and the weight bytes that must be re-staged to move it.
struct Migration {
  LayerId layer{};
  AccId from{};
  AccId to{};
  Bytes weight_bytes = 0;
};

struct RepairResult {
  FaultEvent event;
  RepairOutcome outcome = RepairOutcome::Repaired;
  /// Human-readable cause when outcome == Infeasible.
  std::string infeasible_reason;

  /// Latency of the plan being served before the event.
  double pre_latency_s = 0;
  /// The old mapping re-simulated on the faulted system — the latency of
  /// *not* repairing. +inf when the old mapping no longer runs (dropout).
  double faulted_latency_s = 0;
  /// Latency of the adopted repaired plan (0 when infeasible).
  double post_latency_s = 0;
  /// Latency of the from-scratch fallback plan (0 unless it ran).
  double scratch_latency_s = 0;
  /// True when the fallback ran and beat the warm repair.
  bool used_fallback = false;

  /// Non-input layers the damage cone freed for re-planning.
  std::size_t cone_layers = 0;
  /// Non-input layers whose accelerator changed, and the weight bytes that
  /// must be re-staged to effect the move.
  std::size_t layers_moved = 0;
  Bytes weight_bytes_moved = 0;
  std::vector<Migration> migrations;

  /// Wall-clock of the whole apply() (cost rebuild + plans). Excluded from
  /// deterministic wire output unless timing emission is requested.
  double repair_seconds = 0;

  /// The adopted plan (engaged only when outcome == Repaired).
  std::optional<PlanResponse> response;
};

class RepairEngine {
 public:
  /// Copies the model and takes ownership of the system (SystemConfig is
  /// move-only); `options.plan` drives every re-plan the engine runs.
  RepairEngine(const ModelGraph& model, SystemConfig sys,
               RepairOptions options = {});
  /// The simulator holds pointers into this object: not copyable/movable.
  RepairEngine(const RepairEngine&) = delete;
  RepairEngine& operator=(const RepairEngine&) = delete;

  /// Plan from scratch on the current system and adopt the result as the
  /// live plan. Bit-identical to Planner::plan on the same model/system.
  PlanResponse plan_initial();
  /// Adopt an externally produced plan (e.g. a serve session's cached
  /// PlanResponse, or a CoMapper union mapping). Validates the mapping
  /// against the owned model/system and simulates it for the live latency.
  void adopt(const Mapping& mapping, const LocalityPlan& plan);
  [[nodiscard]] bool has_plan() const noexcept { return mapping_.has_value(); }

  /// Apply one fault event: mutate the system, derive the damage cone,
  /// warm re-plan (with fallback), adopt the repaired mapping, and report
  /// migration cost. Throws ConfigError on contradictory events (losing a
  /// dead accelerator, returning a live one), on an unknown accelerator,
  /// and when no prior plan exists; capability infeasibility is reported
  /// in-band (outcome == Infeasible), never thrown.
  RepairResult apply(const FaultEvent& event);

  /// Replace the engine's options (a serve session applies each repair
  /// request's own plan knobs and fallback ratio).
  void set_options(RepairOptions options) { options_ = std::move(options); }
  [[nodiscard]] const RepairOptions& options() const noexcept {
    return options_;
  }

  [[nodiscard]] const ModelGraph& model() const noexcept { return model_; }
  [[nodiscard]] const SystemConfig& system() const noexcept { return sys_; }
  /// The live mapping/plan being served. Requires has_plan().
  [[nodiscard]] const Mapping& mapping() const {
    H2H_EXPECTS(has_plan());
    return *mapping_;
  }
  [[nodiscard]] const LocalityPlan& plan() const {
    H2H_EXPECTS(has_plan());
    return *plan_;
  }
  /// Latency of the live plan under the system state it was adopted on.
  [[nodiscard]] double latency() const {
    H2H_EXPECTS(has_plan());
    return latency_;
  }

 private:
  [[nodiscard]] RepairResult infeasible(RepairResult res, std::string reason,
                                        double elapsed_s);

  ModelGraph model_;
  SystemConfig sys_;
  Simulator sim_;  // references model_/sys_; rebuilt lazily via fingerprints
  RepairOptions options_;

  std::optional<Mapping> mapping_;
  std::optional<LocalityPlan> plan_;
  double latency_ = 0;
};

}  // namespace h2h
