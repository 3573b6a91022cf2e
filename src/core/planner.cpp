#include "core/planner.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string_view>
#include <utility>

namespace h2h {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  // FNV-1a over the 8 bytes of v (deterministic across runs, unlike
  // std::hash, so fingerprints are stable diagnostics).
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] std::uint64_t fnv_mix(std::uint64_t h, std::string_view s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Session key of a zoo model: tagged so it can never collide with a graph
/// fingerprint of the same model (the two are distinct sessions by design —
/// a zoo hit must not depend on having fingerprinted a caller's graph).
[[nodiscard]] std::uint64_t zoo_session_key(ZooModel id) {
  return fnv_mix(fnv_mix(1469598103934665603ULL, std::string_view("zoo")),
                 static_cast<std::uint64_t>(id));
}

}  // namespace

std::uint64_t model_fingerprint(const ModelGraph& model) {
  std::uint64_t h = 1469598103934665603ULL;
  h = fnv_mix(h, model.name());
  h = fnv_mix(h, model.dtype_bytes());
  h = fnv_mix(h, model.layer_count());
  for (const LayerId id : model.all_layers()) {
    const Layer& l = model.layer(id);
    h = fnv_mix(h, l.name);
    h = fnv_mix(h, static_cast<std::uint64_t>(l.kind));
    h = fnv_mix(h, l.modality);
    h = fnv_mix(h, l.required_caps);
    h = fnv_mix(h, l.param_count());
    h = fnv_mix(h, l.out_elems());
    h = fnv_mix(h, l.macs());
    h = fnv_mix(h, l.light_ops());
    for (const LayerId p : model.graph().preds(id)) h = fnv_mix(h, p.value);
  }
  return h;
}

PlanRequest PlanRequest::zoo(ZooModel id, double bw_acc, std::uint32_t batch) {
  PlanRequest r;
  r.model = id;
  r.bw_acc = bw_acc;
  r.batch = batch;
  return r;
}

PlanRequest PlanRequest::zoo(ZooModel id, BandwidthSetting bw,
                             std::uint32_t batch) {
  return zoo(id, bandwidth_value(bw), batch);
}

PlanRequest PlanRequest::zoo(ZooModel id, Interconnect links,
                             std::uint32_t batch) {
  PlanRequest r = zoo(id, links.base_bw(), batch);
  r.links = std::move(links);
  return r;
}

PlanRequest PlanRequest::for_graph(const ModelGraph& graph, double bw_acc,
                                   std::uint32_t batch) {
  PlanRequest r;
  r.graph = &graph;
  r.bw_acc = bw_acc;
  r.batch = batch;
  return r;
}

const ScheduleResult* PlanResponse::find_baseline() const {
  for (const StepSnapshot& step : steps) {
    if (step.name.find("weight locality") != std::string::npos)
      return &step.result;
  }
  return nullptr;
}

const ScheduleResult& PlanResponse::baseline_result() const {
  if (const ScheduleResult* baseline = find_baseline()) return *baseline;
  contract_failure("precondition",
                   "baseline_result(): no \"weight locality\" snapshot among "
                   "the executed steps",
                   __FILE__, __LINE__);
}

PassPipeline make_default_pipeline(const PlanOptions& options,
                                   const Mapping* warm_start) {
  PassPipeline pipeline;
  if (warm_start != nullptr) {
    pipeline.push_back(make_warm_start_pass(*warm_start));
  } else {
    pipeline.push_back(make_comp_prioritized_pass(options.step1));
  }
  if (options.run_weight_locality)
    pipeline.push_back(make_weight_locality_pass(options.weight));
  if (options.run_fusion)
    pipeline.push_back(make_activation_fusion_pass(options.fusion));
  if (options.run_remapping)
    pipeline.push_back(make_remapping_pass(options.remap));
  return pipeline;
}

Frozen freeze_outside(const Mapping& mapping, const LocalityPlan& plan,
                      const std::vector<bool>& free) {
  const std::size_t n = free.size();
  Frozen f{std::vector<AccId>(n, AccId::host()), std::vector<bool>(n, false),
           std::vector<bool>(n, false)};
  for (std::uint32_t l = 0; l < n; ++l) {
    if (free[l]) continue;
    f.acc[l] = mapping.acc_of(LayerId{l});
    f.pin[l] = plan.pinned(LayerId{l});
    f.locked[l] = true;
  }
  return f;
}

PlanOptions frozen_options(PlanOptions options, const Frozen& frozen) {
  // Nothing frozen: leave the hooks off. Any force_pin mask, even an empty
  // one, takes step 4 off its knapsack-free delta path (remap_delta.cpp),
  // which doubles a vlocnet plan.
  if (std::find(frozen.locked.begin(), frozen.locked.end(), true) ==
      frozen.locked.end())
    return options;
  options.step1.preferred = &frozen.acc;
  // The step-4 probe re-runs step 2 internally, so it keeps the pins too.
  options.weight.force_pin = &frozen.pin;
  options.remap.weight.force_pin = &frozen.pin;
  options.remap.locked = &frozen.locked;
  return options;
}

PlanResponse run_passes(const Simulator& sim, const PassPipeline& pipeline,
                        std::optional<double> time_budget_s) {
  H2H_EXPECTS(!pipeline.empty());
  const auto t0 = Clock::now();
  const ModelGraph& model = sim.model();

  PlanResponse r{
      Mapping(model), LocalityPlan(model), {}, {}, 0.0, 0.0, false, false};
  r.plan.ensure_acc_count(sim.sys().accelerator_count());

  PassContext ctx{sim, r.mapping, r.plan, r.remap_stats, std::nullopt, false};
  if (time_budget_s) {
    ctx.deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(*time_budget_s));
  }

  for (const std::unique_ptr<MappingPass>& pass : pipeline) {
    pass->run(ctx);
    r.steps.push_back({pass->name(), sim.simulate(r.mapping, r.plan)});
  }

  r.stopped_on_budget = ctx.stopped_on_budget;
  r.search_seconds = seconds_since(t0);
  return r;
}

/// One cached scenario: an owned model copy (at the request batch), the
/// system it runs on (owned at the request BW_acc, or the Planner-wide
/// shared one), and the Simulator whose CostTable is the reusable state.
/// Once built, a session is read-only (the one exception — the shared-system
/// lazy CostTable rebuild — runs under the shard lock in session_for's
/// on-hit callable, before the session is handed out).
struct Planner::Session {
  std::optional<ModelGraph> model;
  std::optional<SystemConfig> owned_sys;
  const SystemConfig* sys = nullptr;
  std::optional<Simulator> sim;
};

/// Shard selector: FNV over the full session key.
struct Planner::SessionKeyHash {
  std::size_t operator()(const SessionKey& k) const noexcept {
    const std::uint64_t h = fnv_mix(
        fnv_mix(fnv_mix(1469598103934665603ULL, k.model), k.batch),
        std::bit_cast<std::uint64_t>(k.bw_acc));
    return fnv_mix(h, k.links_fp);
  }
};

Planner::Planner() : Planner(PlannerOptions{}) {}
Planner::Planner(PlannerOptions options)
    : options_(std::move(options)),
      sessions_(options_.max_sessions, options_.shards) {}
Planner::Planner(const SystemConfig& shared_system) : Planner([&] {
  PlannerOptions options;
  options.shared_system = &shared_system;
  return options;
}()) {}
Planner::~Planner() = default;
// A moved-from Planner may only be destroyed or assigned to.
Planner::Planner(Planner&&) noexcept = default;
Planner& Planner::operator=(Planner&&) noexcept = default;

std::shared_ptr<Planner::Session> Planner::session_for(
    const PlanRequest& request, double& setup_seconds, bool& warm) {
  H2H_EXPECTS(request.model.has_value() != (request.graph != nullptr));

  std::uint32_t batch = request.batch;
  if (batch == 0) batch = request.graph != nullptr ? request.graph->batch() : 1;
  // In shared-system mode the bandwidth/topology are the shared system's
  // business: sessions key on the model alone and follow the system's lazy
  // CostTable-rebuild semantics if its BW_acc moves.
  const bool shared = options_.shared_system != nullptr;
  const SessionKey key{
      request.model ? zoo_session_key(*request.model)
                    : model_fingerprint(*request.graph),
      shared ? 0.0 : request.bw_acc, batch,
      !shared && request.links ? request.links->params_fingerprint() : 0};

  const auto refresh = [&](Session& session) {
    if (session.sim->costs_fresh()) {
      warm = true;
      setup_seconds = 0;
      return;
    }
    // Shared-system mode and the borrowed system's knobs moved (set_bw_acc):
    // rebuild now — under the shard lock, so the handed-out Simulator is
    // always fresh and read-only — billing the cost to setup_seconds, not the
    // search-time window, and the response is not misreported as warm.
    const auto t0 = Clock::now();
    (void)session.sim->costs();
    setup_seconds = seconds_since(t0);
    warm = false;
  };
  if (std::shared_ptr<Session> hit = sessions_.find(key, refresh)) return hit;

  // Cold miss: build the session entirely outside the lock (concurrent
  // misses for different keys construct in parallel) and insert only the
  // finished product — a build that throws leaves the cache untouched.
  const auto t0 = Clock::now();
  auto s = std::make_shared<Session>();
  s->model.emplace(request.model ? make_model(*request.model)
                                 : *request.graph);
  s->model->set_batch(batch);
  if (request.validate_model) s->model->validate();
  if (shared) {
    s->sys = options_.shared_system;
  } else if (request.links) {
    s->owned_sys.emplace(SystemConfig::standard(*request.links));
    s->sys = &*s->owned_sys;
  } else {
    H2H_EXPECTS(request.bw_acc > 0);
    s->owned_sys.emplace(options_.system_factory
                             ? options_.system_factory(request.bw_acc)
                             : SystemConfig::standard(request.bw_acc));
    s->sys = &*s->owned_sys;
  }
  s->sim.emplace(*s->model, *s->sys);  // builds the CostTable eagerly
  setup_seconds = seconds_since(t0);
  // Another thread may have built the same key meanwhile: the first insert
  // stays canonical and ours is discarded (this request still reports the
  // cold build it actually paid).
  return sessions_.insert(key, std::move(s),
                          [](Session& won) { (void)won.sim->costs(); });
}

PlanResponse Planner::plan(const PlanRequest& request) {
  return plan(request, make_default_pipeline(request.options,
                                             request.warm_start));
}

PlanResponse Planner::plan(const PlanRequest& request,
                           const PassPipeline& pipeline) {
  double setup_seconds = 0;
  bool warm = false;
  const std::shared_ptr<Session> session =
      session_for(request, setup_seconds, warm);
  PlanResponse r =
      run_passes(*session->sim, pipeline, request.options.time_budget_s);
  r.setup_seconds = setup_seconds;
  r.warm = warm;
  return r;
}

PlanResponse plan_once(const ModelGraph& model, const SystemConfig& sys,
                       PlanOptions options) {
  model.validate();
  const Simulator sim(model, sys);
  return run_passes(sim, make_default_pipeline(options),
                    options.time_budget_s);
}

}  // namespace h2h
