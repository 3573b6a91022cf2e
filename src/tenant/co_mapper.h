// Multi-tenant co-mapping (DESIGN.md §11).
//
// N tenant models share one heterogeneous system. Planning them
// independently ("sequential" deployment: each tenant maps as if alone,
// then all run together) ignores contention — two tenants can both claim
// the fastest conv board and both miss their deadlines. The CoMapper plans
// the *union model* (tenant/tenant.h) as a single H2H problem instead, in
// warm per-tenant rounds:
//
//   1. Solo plans: each tenant planned alone on the idle system (a warm
//      shared-system Planner), giving the slack baseline and the
//      sequential-deployment comparison point. Memoized per CoMapper: a
//      repeated (model, batch, PlanOptions) on the same system reuses its
//      solo mapping and latency without planning again.
//   2. Round 1: tenants in deadline-slack order (most urgent first; the
//      mapf-het normalized-slack rule, priority breaking ties) each replan
//      the whole union with every peer layer frozen where it is
//      (freeze_outside + frozen_options, core/planner.h): step 1 keeps its
//      accelerator, steps 2 and 4 keep its pins, step 4 never moves it.
//      Adoption is unconditional: with one tenant nothing is frozen and the
//      result is bit-identical to Planner::plan (pinned by test_tenant.cpp).
//   3. Rounds 2+: the same sweep, adopting a tenant's replan only when the
//      global score — lexicographic (priority-weighted SLO violation
//      seconds, makespan) — strictly improves; stops early when a full
//      round adopts nothing. A replan reads only its Frozen peers, so a
//      tenant whose Frozen value is unchanged since its last replan, and
//      whose last score would not improve the current one, skips the
//      replan: a recompute would reach the same decision.
//   4. Steal round: tenants still missing their SLO replan once more with
//      the peers that comfortably meet theirs unlocked, letting an urgent
//      tenant displace ("steal from") a generous one; adopted only on
//      strict score improvement.
//
// Capability constraints ride on the union model's stamped layer masks:
// CostTable admission (accel/capability.h) gates every candidate list, and
// an unplaceable tenant surfaces as CapabilityError before any round runs.
//
// Both levers are exact, and both are bypassed when the request sets a time
// budget (budgeted results depend on wall time) or any hook or pointer in
// its PlanOptions (DESIGN.md §11).
//
// Thread safety: co_map builds its round state per call; what calls share
// is the Planner and the solo memo, both thread-safe stores, so concurrent
// co_map calls on one CoMapper are safe. The borrowed SystemConfig must stay
// unmutated while calls are in flight, matching the Planner's shared-system
// rule (the memo keys on the system's bandwidth and fingerprints, so a
// mutation between calls never serves a stale solo plan).
#pragma once

#include "core/planner.h"
#include "tenant/tenant.h"

namespace h2h {

struct CoMapOptions {
  /// Per-round pass options (same knobs as a single-tenant PlanRequest).
  PlanOptions plan;
  /// Improvement sweeps after the unconditional round 1 (0 disables them).
  std::uint32_t max_rounds = 3;
  /// Run the final steal round for SLO-missing tenants.
  bool steal_round = true;
  /// Slack normalization window in seconds (the mapf-het rule divides slack
  /// by this before clamping to [0, 1]). 0 auto-selects the largest finite
  /// SLO in the set (1 s when no tenant has one).
  double slack_normalize_s = 0;
};

/// Per-tenant verdict of one co-mapping.
struct TenantOutcome {
  std::string name;
  /// Union-model layer range of this tenant.
  TenantSpan span;
  /// Planned alone on the idle system (round 0's solo plan).
  double solo_latency_s = 0;
  /// Sequential deployment: solo mappings run together (steps 2-3 re-run on
  /// the union so DRAM capacity is shared fairly).
  double seq_latency_s = 0;
  /// Co-mapped latency (finish of the tenant's last layer).
  double latency_s = 0;
  double slo_s = 0;
  /// slo - latency; +infinity when the tenant has no SLO.
  double slack_s = 0;
  /// latency <= slo (always true without an SLO).
  bool met = true;
  std::uint32_t priority = 1;
};

struct CoMapResult {
  /// The union model the mapping below indexes (owned by the result).
  ModelGraph model;
  Mapping mapping;
  LocalityPlan plan;
  ScheduleResult schedule;
  std::vector<TenantOutcome> tenants;

  /// Sequential-deployment comparison point (same union, solo mappings).
  double seq_makespan_s = 0;
  double seq_violation_s = 0;

  /// Priority-weighted SLO violation of the co-mapping, seconds
  /// (sum over tenants of max(1, priority) x max(0, latency - slo)).
  double violation_s = 0;
  /// Improvement sweeps actually run (the unconditional round 1 included).
  std::uint32_t rounds = 0;
  /// True when the steal round ran (some tenant missed after the sweeps).
  bool steal_ran = false;
  bool all_slos_met = true;
  /// Tenant turns in the sweeps, and how many of them were answered by the
  /// reuse rule instead of a replan. Diagnostics only: not on the wire.
  std::uint32_t replans = 0;
  std::uint32_t replans_reused = 0;

  [[nodiscard]] const TenantOutcome& outcome(std::string_view name) const;
};

/// Per-tenant finish times under a union-model schedule: out[i] is the max
/// finish across tenant i's span (the co-mapper's own SLO accounting).
/// Public so live repair (repair/repair.h) can reassess tenant SLOs against
/// a repaired union schedule without re-running the co-mapper.
[[nodiscard]] std::vector<double> tenant_latencies(
    const ScheduleResult& sched, const std::vector<TenantSpan>& spans);

class CoMapper {
 public:
  /// Borrows `sys` for every plan (it must outlive the CoMapper).
  explicit CoMapper(const SystemConfig& sys);
  /// Rvalue systems would dangle (the CoMapper stores a pointer).
  explicit CoMapper(SystemConfig&&) = delete;
  ~CoMapper();  // out of line: the solo memo's types are incomplete here
  /// Move only while no co_map call is in flight.
  CoMapper(CoMapper&&) noexcept;
  CoMapper& operator=(CoMapper&&) noexcept;

  /// Co-map the tenant set. Throws CapabilityError when some tenant's
  /// capability mask excludes every supporting accelerator, ConfigError on
  /// union-constraint violations (tenant/tenant.h).
  [[nodiscard]] CoMapResult co_map(const TenantSet& tenants,
                                   const CoMapOptions& options = {});

  /// The internal shared-system Planner. Only solo plans that miss or
  /// bypass the memo reach it, so its hit/miss counters show memo misses.
  [[nodiscard]] const Planner& planner() const noexcept { return planner_; }

 private:
  struct SoloKey;
  struct SoloKeyHash;
  struct SoloPlan;

  const SystemConfig* sys_;
  Planner planner_;
  /// Solo plans by (model, batch, options, system state), bounded like the
  /// Planner's sessions.
  SessionStore<SoloKey, SoloPlan, SoloKeyHash> solo_;
};

}  // namespace h2h
