#include "core/dynamic_modality.h"

#include <algorithm>
#include <set>

#include "graph/algorithms.h"
#include "util/error.h"

namespace h2h {

ModelGraph subset_model(const ModelGraph& full,
                        std::span<const std::uint32_t> active) {
  const std::set<std::uint32_t> active_set(active.begin(), active.end());
  const auto topo = topological_order(full.graph());
  H2H_EXPECTS(topo.has_value());

  std::vector<bool> keep(full.layer_count(), false);
  for (const LayerId id : *topo) {
    const Layer& l = full.layer(id);
    const bool tag_active = l.modality == 0 || active_set.contains(l.modality);
    if (!tag_active) continue;
    if (l.kind == LayerKind::Input) {
      keep[id.value] = true;
      continue;
    }
    // A non-source layer survives only if at least one producer survives.
    const auto preds = full.graph().preds(id);
    keep[id.value] = std::any_of(preds.begin(), preds.end(), [&](LayerId p) {
      return keep[p.value];
    });
  }

  ModelGraph sub(full.name() + "[sub]", full.dtype_bytes());
  std::vector<LayerId> remap(full.layer_count());
  for (const LayerId id : *topo) {
    if (!keep[id.value]) continue;
    std::vector<LayerId> inputs;
    for (const LayerId p : full.graph().preds(id))
      if (keep[p.value]) inputs.push_back(remap[p.value]);
    remap[id.value] = sub.add_layer(full.layer(id), inputs);
  }
  if (sub.layer_count() == 0)
    throw ConfigError("subset_model: no layers remain active");
  return sub;
}

DynamicModalityMapper::DynamicModalityMapper(const SystemConfig& sys,
                                             PlanOptions options)
    : options_(std::move(options)), planner_(sys) {}

DynamicRemapResult DynamicModalityMapper::remap(const ModelGraph& variant) {
  // Step 1 prefers the accelerator a layer's weights already live on, and
  // the modified knapsack pins resident weights first.
  std::vector<AccId> preferred(variant.layer_count(), AccId::host());
  std::vector<bool> force(variant.layer_count(), false);
  for (const LayerId id : variant.all_layers()) {
    const auto it = resident_.find(variant.layer(id).name);
    if (it == resident_.end()) continue;
    preferred[id.value] = it->second;
    force[id.value] = true;
  }
  PlanOptions opts = options_;
  opts.step1.preferred = &preferred;
  opts.weight.force_pin = &force;

  // The round is the standard pipeline with the two hooks threaded through
  // and the historical step labels kept.
  PassPipeline pipeline;
  pipeline.push_back(make_comp_prioritized_pass(
      opts.step1, "1: computation-prioritized (resident-preferred)"));
  if (opts.run_weight_locality)
    pipeline.push_back(make_weight_locality_pass(
        opts.weight, "2: weight locality (modified knapsack)"));
  if (opts.run_fusion)
    pipeline.push_back(make_activation_fusion_pass(opts.fusion));
  if (opts.run_remapping)
    pipeline.push_back(make_remapping_pass(opts.remap));

  // The subset variants keep single-input Concats, so skip full validation.
  // The session cache keys on the variant's structural fingerprint: a
  // revisited modality set re-plans warm on its cached cost table.
  PlanRequest request = PlanRequest::for_graph(variant, /*bw_acc=*/0.0);
  request.validate_model = false;

  DynamicRemapResult out{planner_.plan(request, pipeline), 0, 0};
  PlanResponse& r = out.h2h;

  // Weight-reload accounting and residency update.
  std::map<std::string, AccId, std::less<>> next_resident;
  for (const LayerId id : variant.all_layers()) {
    if (!r.plan.pinned(id)) continue;
    const Bytes wb = variant.weight_bytes(id);
    const std::string& name = variant.layer(id).name;
    const AccId acc = r.mapping.acc_of(id);
    const auto it = resident_.find(name);
    if (it != resident_.end() && it->second == acc) out.weights_reused += wb;
    else out.weights_loaded += wb;
    next_resident.emplace(name, acc);
  }
  resident_ = std::move(next_resident);
  return out;
}

}  // namespace h2h
