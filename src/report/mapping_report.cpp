#include "report/mapping_report.h"

#include <cmath>

#include "model/summary.h"
#include "util/str.h"
#include "util/table.h"

namespace h2h {
namespace {

/// Signed human_seconds: negative slack reads "-1.2 ms", not garbage.
[[nodiscard]] std::string signed_seconds(double s) {
  if (s < 0) {
    // Appending (not "-" + ...) sidesteps a GCC 12 -Wrestrict false positive.
    std::string out(1, '-');
    out += human_seconds(-s);
    return out;
  }
  return human_seconds(s);
}

}  // namespace

void print_mapping_report(const ModelGraph& model, const SystemConfig& sys,
                          const PlanResponse& result, std::ostream& out,
                          const MappingReportOptions& options) {
  const ScheduleResult& sched = result.final_result();

  print_model_summary(model, out);
  // Summarize the link topology, not the scalar BW_acc alone — under a
  // mixed/hierarchical Interconnect the system-wide number would be wrong
  // for most pairs. Uniform keeps the single-speed spelling.
  const Interconnect& links = sys.links();
  if (links.min_bandwidth() == links.max_bandwidth()) {
    out << strformat("system: %zu accelerators, %.*s links %.3f GB/s\n\n",
                     sys.accelerator_count(),
                     static_cast<int>(links.shape_name().size()),
                     links.shape_name().data(),
                     links.min_bandwidth() / 1e9);
  } else {
    out << strformat(
        "system: %zu accelerators, %.*s links %.3f-%.3f GB/s\n\n",
        sys.accelerator_count(),
        static_cast<int>(links.shape_name().size()), links.shape_name().data(),
        links.min_bandwidth() / 1e9, links.max_bandwidth() / 1e9);
  }

  out << "pipeline:\n";
  for (const StepSnapshot& step : result.steps) {
    out << strformat("  %-32s latency %-12s energy %8.4f J  comp %s\n",
                     step.name.c_str(),
                     human_seconds(step.result.latency).c_str(),
                     step.result.energy.total(),
                     format_percent(step.result.comp_ratio(), 1).c_str());
  }
  out << strformat(
      "vs baseline (step 2): latency -%s, energy -%s; %u remaps accepted in "
      "%u passes; search %s\n\n",
      format_percent(1.0 - result.latency_vs_baseline(), 1).c_str(),
      format_percent(1.0 - result.energy_vs_baseline(), 1).c_str(),
      result.remap_stats.accepted, result.remap_stats.passes,
      human_seconds(result.search_seconds).c_str());

  // Locality summary.
  Bytes pinned_bytes = 0;
  for (const LayerId id : model.all_layers())
    if (result.plan.pinned(id)) pinned_bytes += model.weight_bytes(id);
  out << strformat(
      "locality: %zu layers pinned (%s of weights), %zu edges fused; host "
      "traffic %s, local traffic %s\n\n",
      result.plan.pinned_count(), human_bytes(pinned_bytes).c_str(),
      result.plan.fused_edge_count(), human_bytes(sched.host_bytes).c_str(),
      human_bytes(sched.local_bytes).c_str());

  // Per-accelerator load.
  TextTable loads_table({"acc", "dataflow", "layers", "busy", "util", "pinned"},
                        {TextTable::Align::Left, TextTable::Align::Left});
  const auto loads = accelerator_loads(model, sys, result.mapping, sched);
  for (const AcceleratorLoad& load : loads) {
    Bytes acc_pinned = 0;
    for (const LayerId id : result.mapping.members(load.acc))
      if (result.plan.pinned(id)) acc_pinned += model.weight_bytes(id);
    loads_table.add_row(
        {sys.spec(load.acc).name,
         std::string(to_string(sys.spec(load.acc).style)),
         strformat("%zu", load.layer_count),
         human_seconds(load.busy_time),
         format_percent(load.utilization(sched.latency), 0),
         human_bytes(acc_pinned)});
  }
  loads_table.print(out);

  // Critical path.
  const CriticalPathBreakdown cp =
      critical_path_breakdown(model, result.mapping, sched);
  out << strformat(
      "\ncritical path %s: %s compute, %s host comm, %s local DRAM, %s "
      "waiting\n",
      human_seconds(cp.total).c_str(),
      format_percent(cp.compute_time / cp.total, 0).c_str(),
      format_percent(cp.host_time / cp.total, 0).c_str(),
      format_percent(cp.local_time / cp.total, 0).c_str(),
      format_percent(cp.wait_time / cp.total, 0).c_str());

  if (options.gantt) {
    out << '\n';
    print_gantt(model, sys, result.mapping, sched, out, options.gantt_width);
  }

  if (options.per_layer) {
    out << '\n';
    TextTable layer_table({"layer", "kind", "acc", "start", "finish",
                           "pinned"},
                          {TextTable::Align::Left, TextTable::Align::Left,
                           TextTable::Align::Left});
    for (const LayerId id : model.all_layers()) {
      const Layer& l = model.layer(id);
      if (l.kind == LayerKind::Input) continue;
      const LayerTiming& t = sched.timings[id.value];
      layer_table.add_row({l.name, std::string(to_string(l.kind)),
                           sys.spec(result.mapping.acc_of(id)).name,
                           human_seconds(t.start), human_seconds(t.finish),
                           result.plan.pinned(id) ? "yes" : "no"});
    }
    layer_table.print(out);
  }
}

void print_comap_report(const SystemConfig& sys, const CoMapResult& result,
                        std::ostream& out,
                        const MappingReportOptions& options) {
  const ModelGraph& model = result.model;
  out << strformat("co-mapping: %zu tenants, %zu union layers on %zu "
                   "accelerators\n\n",
                   result.tenants.size(), model.layer_count(),
                   sys.accelerator_count());

  // Per-tenant verdicts. "solo" is the tenant alone on the idle system,
  // "sequential" is every solo mapping deployed together (the contention
  // nobody planned for), "co-mapped" is this result.
  TextTable table({"tenant", "prio", "slo", "solo", "sequential", "co-mapped",
                   "slack", "slo met"},
                  {TextTable::Align::Left});
  for (const TenantOutcome& t : result.tenants) {
    const bool has_slo = std::isfinite(t.slo_s);
    table.add_row({t.name, strformat("%u", t.priority),
                   has_slo ? human_seconds(t.slo_s) : "-",
                   human_seconds(t.solo_latency_s),
                   human_seconds(t.seq_latency_s),
                   human_seconds(t.latency_s),
                   has_slo ? signed_seconds(t.slack_s) : "-",
                   t.met ? "yes" : "MISS"});
  }
  table.print(out);

  out << strformat(
      "\nmakespan: co-mapped %s vs sequential %s; priority-weighted SLO "
      "violation %s vs %s sequential\n",
      human_seconds(result.schedule.latency).c_str(),
      human_seconds(result.seq_makespan_s).c_str(),
      human_seconds(result.violation_s).c_str(),
      human_seconds(result.seq_violation_s).c_str());
  out << strformat("search: %u round(s)%s; %s\n",
                   result.rounds,
                   result.steal_ran ? " plus the steal round" : "",
                   result.all_slos_met ? "every SLO met"
                                       : "some SLOs still missed");

  if (options.gantt) {
    out << '\n';
    print_gantt(model, sys, result.mapping, result.schedule, out,
                options.gantt_width);
  }

  if (options.per_layer) {
    out << '\n';
    TextTable layer_table({"layer", "kind", "acc", "start", "finish",
                           "pinned"},
                          {TextTable::Align::Left, TextTable::Align::Left,
                           TextTable::Align::Left});
    for (const LayerId id : model.all_layers()) {
      const Layer& l = model.layer(id);
      if (l.kind == LayerKind::Input) continue;
      const LayerTiming& t = result.schedule.timings[id.value];
      layer_table.add_row({l.name, std::string(to_string(l.kind)),
                           sys.spec(result.mapping.acc_of(id)).name,
                           human_seconds(t.start), human_seconds(t.finish),
                           result.plan.pinned(id) ? "yes" : "no"});
    }
    layer_table.print(out);
  }
}

void print_repair_report(const ModelGraph& model, const SystemConfig& sys,
                         const RepairResult& result, std::ostream& out) {
  out << strformat("fault: %s\n", format_fault(result.event).c_str());
  if (result.outcome == RepairOutcome::Infeasible) {
    out << strformat("repair: INFEASIBLE — %s\n",
                     result.infeasible_reason.c_str());
    out << "the pre-fault plan is kept (stale) until a recovery event "
           "arrives\n";
    return;
  }

  out << strformat("latency: %s before the fault",
                   human_seconds(result.pre_latency_s).c_str());
  if (std::isfinite(result.faulted_latency_s)) {
    out << strformat(", %s unrepaired",
                     human_seconds(result.faulted_latency_s).c_str());
  } else {
    out << ", unrunnable unrepaired";
  }
  out << strformat(", %s repaired%s\n",
                   human_seconds(result.post_latency_s).c_str(),
                   result.used_fallback ? " (from-scratch fallback)" : "");
  out << strformat(
      "repair: damage cone %zu layer(s); %zu migrated, %s of weights "
      "re-staged (%.1f ms search)\n",
      result.cone_layers, result.layers_moved,
      human_bytes(result.weight_bytes_moved).c_str(),
      result.repair_seconds * 1e3);

  if (!result.migrations.empty()) {
    TextTable table({"layer", "from", "to", "weights"},
                    {TextTable::Align::Left, TextTable::Align::Left,
                     TextTable::Align::Left});
    for (const Migration& m : result.migrations) {
      table.add_row({model.layer(m.layer).name, sys.spec(m.from).name,
                     sys.spec(m.to).name, human_bytes(m.weight_bytes)});
    }
    table.print(out);
  }
}

}  // namespace h2h
