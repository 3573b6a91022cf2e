#include "repair/repair.h"

#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::string_view to_string(RepairOutcome outcome) noexcept {
  switch (outcome) {
    case RepairOutcome::Repaired: return "repaired";
    case RepairOutcome::Infeasible: return "infeasible";
  }
  return "?";
}

RepairEngine::RepairEngine(const ModelGraph& model, SystemConfig sys,
                           RepairOptions options)
    : model_(model),
      sys_(std::move(sys)),
      sim_(model_, sys_),
      options_(std::move(options)) {}

PlanResponse RepairEngine::plan_initial() {
  PlanResponse r = run_passes(sim_, make_default_pipeline(options_.plan),
                              options_.plan.time_budget_s);
  adopt(r.mapping, r.plan);
  return r;
}

void RepairEngine::adopt(const Mapping& mapping, const LocalityPlan& plan) {
  mapping.validate(model_, sys_);
  mapping_ = mapping;
  plan_ = plan;
  latency_ = sim_.simulate(*mapping_, *plan_).latency;
}

RepairResult RepairEngine::infeasible(RepairResult res, std::string reason,
                                      double elapsed_s) {
  res.outcome = RepairOutcome::Infeasible;
  res.infeasible_reason = std::move(reason);
  res.repair_seconds = elapsed_s;
  return res;
}

RepairResult RepairEngine::apply(const FaultEvent& event) {
  if (!sys_.contains(event.acc))
    throw ConfigError(strformat(
        "repair: unknown accelerator %u (system has %zu)", event.acc.value,
        sys_.accelerator_count()));
  if (!has_plan())
    throw ConfigError(
        "repair: no prior plan to repair — plan_initial or adopt first");

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed = [t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  RepairResult res;
  res.event = event;
  res.pre_latency_s = latency_;

  // 1. Mutate the owned system. Contradictory availability transitions are
  // caller bugs (the wire layer maps ConfigError to bad_field); the scaled
  // events are absolute restatements and always legal.
  switch (event.kind) {
    case FaultKind::AccLost:
      if (!sys_.available(event.acc))
        throw ConfigError(strformat("repair: accelerator %u is already lost",
                                    event.acc.value));
      sys_.set_available(event.acc, false);
      break;
    case FaultKind::AccReturned:
      if (sys_.available(event.acc))
        throw ConfigError(strformat("repair: accelerator %u is not lost",
                                    event.acc.value));
      sys_.set_available(event.acc, true);
      break;
    case FaultKind::LinkDegraded:
      sys_.set_link_degrade(event.acc, event.scale);  // validates the scale
      break;
    case FaultKind::LinkRestored:
      sys_.set_link_degrade(event.acc, 1.0);
      break;
    case FaultKind::SpecDerated:
      sys_.set_compute_derate(event.acc, event.scale);
      break;
  }

  // 2. Rebuild the cost state. A capability-exhausted build (every
  // kind-capable accelerator for some masked layer gone) is the in-band
  // infeasibility the serve loop must survive.
  const CostTable* costs = nullptr;
  try {
    costs = &sim_.costs();
  } catch (const CapabilityError& e) {
    return infeasible(std::move(res), e.what(), elapsed());
  }

  // 3. Damage cone. Forced evictions first: any layer whose current
  // accelerator can no longer run it (dead, or capability-excluded by the
  // rebuilt candidate sets) must move.
  const Mapping& old = *mapping_;
  std::vector<bool> cone(model_.layer_count(), false);
  std::size_t evicted = 0;
  for (const LayerId id : model_.all_layers()) {
    if (costs->is_input(id)) continue;
    if (!costs->supported(id, old.acc_of(id))) {
      cone[id.value] = true;
      ++evicted;
    }
  }
  // Feasibility pre-check: every evicted layer needs somewhere to go.
  for (const LayerId id : model_.all_layers()) {
    if (!cone[id.value]) continue;
    if (costs->candidates(id, model_.layer(id).kind).empty())
      return infeasible(
          std::move(res),
          strformat("layer '%s' has no feasible accelerator after %s",
                    model_.layer(id).name.c_str(),
                    format_fault(event).c_str()),
          elapsed());
  }

  // Event-local opportunity set: the event accelerator's members may want to
  // leave a slowed device; a link degrade also frees their graph neighbours
  // (either endpoint of an edge crossing the slowed link can move).
  const auto free_layer = [&](LayerId id) {
    if (!costs->is_input(id)) cone[id.value] = true;
  };
  for (const LayerId id : old.members(event.acc)) {
    free_layer(id);
    if (event.kind == FaultKind::LinkDegraded) {
      for (const LayerId p : model_.graph().preds(id)) free_layer(p);
      for (const LayerId s : model_.graph().succs(id)) free_layer(s);
    }
  }
  // Improving events additionally free every layer that would now run
  // strictly faster on the event accelerator (step-1 measure): the repair
  // may spread load back onto a returned/restored/re-rated device.
  if (event.kind == FaultKind::AccReturned ||
      event.kind == FaultKind::LinkRestored ||
      event.kind == FaultKind::SpecDerated) {
    if (sys_.available(event.acc)) {
      for (const LayerId id : model_.all_layers()) {
        if (costs->is_input(id) || cone[id.value]) continue;
        const AccId cur = old.acc_of(id);
        if (!costs->supported(id, event.acc) || !costs->supported(id, cur))
          continue;
        if (costs->unlocalized_duration(id, event.acc) <
            costs->unlocalized_duration(id, cur))
          cone[id.value] = true;
      }
    }
  }
  for (const LayerId id : model_.all_layers())
    if (cone[id.value]) ++res.cone_layers;

  // The latency of *not* repairing: only meaningful while the old mapping
  // still runs on the faulted system.
  res.faulted_latency_s =
      evicted == 0 ? sim_.simulate(old, *plan_).latency : kInf;

  // 4. Warm repair: re-plan with everything outside the cone frozen where
  // it is — the CoMapper's replan shape, with the damage cone standing in
  // for the active tenant span.
  const Frozen frozen = freeze_outside(old, *plan_, cone);
  PlanResponse repaired = run_passes(
      sim_, make_default_pipeline(frozen_options(options_.plan, frozen)),
      options_.plan.time_budget_s);
  double repaired_latency = repaired.final_result().latency;

  // 5. Fallback: when the warm repair lands far from the best reference we
  // have without a second search, pay for a from-scratch re-plan and keep
  // whichever is better.
  const double reference = std::isfinite(res.faulted_latency_s)
                               ? res.faulted_latency_s
                               : res.pre_latency_s;
  if (options_.allow_fallback && reference > 0 &&
      repaired_latency > options_.fallback_ratio * reference) {
    PlanResponse scratch = run_passes(
        sim_, make_default_pipeline(options_.plan), options_.plan.time_budget_s);
    res.scratch_latency_s = scratch.final_result().latency;
    if (res.scratch_latency_s < repaired_latency) {
      repaired = std::move(scratch);
      repaired_latency = res.scratch_latency_s;
      res.used_fallback = true;
    }
  }

  // 6. Migration accounting against the pre-event mapping, then adopt.
  for (const LayerId id : model_.all_layers()) {
    if (costs->is_input(id)) continue;
    const AccId from = old.acc_of(id);
    const AccId to = repaired.mapping.acc_of(id);
    if (from == to) continue;
    ++res.layers_moved;
    const Bytes wb = costs->weight_bytes(id);
    res.weight_bytes_moved += wb;
    res.migrations.push_back(Migration{id, from, to, wb});
  }
  res.post_latency_s = repaired_latency;
  mapping_ = repaired.mapping;
  plan_ = repaired.plan;
  latency_ = repaired_latency;
  res.response = std::move(repaired);
  res.repair_seconds = elapsed();
  return res;
}

}  // namespace h2h
