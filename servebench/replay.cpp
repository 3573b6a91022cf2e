#include "replay.h"

#include <chrono>
#include <memory>
#include <tuple>
#include <variant>

#include "serve/json.h"
#include "serve/protocol.h"
#include "util/error.h"

namespace servebench {
namespace {

using namespace h2h;
using namespace h2h::serve;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Closes its span on scope exit; a no-op without a tracer.
class Scope {
 public:
  Scope(Tracer* tracer, std::string_view name, const std::string& request)
      : tracer_(tracer),
        span_(tracer != nullptr ? tracer->open(name, request) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int span_;
};

/// Wraps one pass of the default pipeline in a span named after its step.
class TracedPass final : public MappingPass {
 public:
  TracedPass(std::unique_ptr<MappingPass> inner, Tracer& tracer,
             const std::string& request)
      : MappingPass(inner->name()),
        inner_(std::move(inner)),
        tracer_(tracer),
        request_(request),
        span_(span_name(name())) {}

  void run(PassContext& ctx) const override {
    const Scope scope(&tracer_, span_, request_);
    inner_->run(ctx);
  }

 private:
  // Snapshot labels start with the step number ("2: weight locality").
  static std::string_view span_name(const std::string& label) {
    static constexpr std::string_view kSteps[] = {"step1", "step2", "step3",
                                                  "step4"};
    const char digit = label.empty() ? '0' : label.front();
    if (digit >= '1' && digit <= '4') return kSteps[digit - '1'];
    return "step.other";
  }

  std::unique_ptr<MappingPass> inner_;
  Tracer& tracer_;
  const std::string& request_;
  std::string_view span_;
};

/// In-process twin of the server's request processor, built from the same
/// public entry points. Single-threaded: the replay measures layers, not
/// contention.
class Processor {
 public:
  explicit Processor(Tracer* tracer)
      : tracer_(tracer), name_sys_(SystemConfig::standard(0.5e9)) {}

  std::string process(const Request& r) {
    const Scope request_scope(tracer_, "request", r.id);
    std::variant<WireRequest, WireTenantsRequest, WireRepairRequest, WireError>
        parsed;
    {
      const Scope scope(tracer_, "serve.parse", r.id);
      parsed = parse_any_request(r.line);
    }
    if (const auto* err = std::get_if<WireError>(&parsed))
      return reject(*err, r.id);
    if (const auto* t = std::get_if<WireTenantsRequest>(&parsed))
      return process_tenants(*t, r.id);
    if (const auto* rep = std::get_if<WireRepairRequest>(&parsed))
      return process_repair(*rep, r.id);
    return process_plan(std::get<WireRequest>(parsed), r.id);
  }

  Counters finish() {
    counters_["planner.session.hits"] =
        static_cast<double>(planner_.cache_hits());
    counters_["planner.session.misses"] =
        static_cast<double>(planner_.cache_misses());
    counters_["planner.session.live"] =
        static_cast<double>(planner_.session_count());
    return counters_;
  }

 private:
  std::string reject(const WireError& err, const std::string& rid) {
    counters_["serve.reject.count"] += 1;
    return write_traced(rid, [&] { return write_error(err); });
  }

  template <typename Write>
  std::string write_traced(const std::string& rid, Write write) {
    const Scope scope(tracer_, "serve.write", rid);
    std::string line = write();
    counters_["serve.write.bytes"] += static_cast<double>(line.size());
    return line;
  }

  std::string process_plan(const WireRequest& req, const std::string& rid) {
    try {
      const PlanResponse response = [&] {
        const Scope scope(tracer_, "planner.plan", rid);
        if (tracer_ == nullptr) return planner_.plan(to_plan_request(req));
        PassPipeline pipeline;
        for (std::unique_ptr<MappingPass>& pass :
             make_default_pipeline(req.options))
          pipeline.push_back(
              std::make_unique<TracedPass>(std::move(pass), *tracer_, rid));
        return planner_.plan(to_plan_request(req), pipeline);
      }();
      record_plan(response);
      record_prior(req, response);
      const ModelGraph& model = model_for(req.model);
      return write_traced(rid, [&] {
        return write_response(req, response, model, name_sys_);
      });
    } catch (const std::exception& e) {
      return reject({ErrorCode::PlanFailed, e.what(), req.id}, rid);
    }
  }

  void record_plan(const PlanResponse& response) {
    counters_["planner.session.setup_ms"] += response.setup_seconds * 1e3;
    const RemapStats& s = response.remap_stats;
    counters_["step4.passes"] += s.passes;
    counters_["step4.attempts"] += s.attempts;
    counters_["step4.accepted"] += s.accepted;
    counters_["step4.retimes"] += static_cast<double>(s.retimes);
    counters_["step4.knapsack_hits"] += static_cast<double>(s.knapsack_hits);
    counters_["step4.knapsack_misses"] +=
        static_cast<double>(s.knapsack_misses);
    counters_["step4.delta_full_passes"] +=
        static_cast<double>(s.delta_full_passes);
  }

  std::string process_tenants(const WireTenantsRequest& req,
                              const std::string& rid) {
    try {
      CoMapSession& session = comap_session(req.bw_gbps);
      const TenantSet set(req.tenants);
      CoMapOptions opts;
      opts.plan = req.options;
      opts.max_rounds = req.max_rounds;
      opts.steal_round = req.steal_round;
      const CoMapResult result = [&] {
        const Scope scope(tracer_, "tenant.co_map", rid);
        return session.comapper.co_map(set, opts);
      }();
      counters_["tenant.rounds"] += result.rounds;
      counters_["tenant.steal_runs"] += result.steal_ran ? 1 : 0;
      if (req.require_slos && !result.all_slos_met)
        return reject(
            {ErrorCode::SloViolated, "co-mapping misses SLOs", req.id}, rid);
      return write_traced(rid, [&] {
        return write_tenants_response(req, result, name_sys_);
      });
    } catch (const CapabilityError& e) {
      return reject({ErrorCode::InfeasibleCapability, e.what(), req.id}, rid);
    } catch (const ConfigError& e) {
      return reject({ErrorCode::BadField, e.what(), req.id}, rid);
    } catch (const std::exception& e) {
      return reject({ErrorCode::PlanFailed, e.what(), req.id}, rid);
    }
  }

  struct RepairKey {
    ZooModel model;
    std::uint32_t batch;
    double bw_gbps;
    std::uint64_t links_fp;
    friend bool operator<(const RepairKey& a, const RepairKey& b) {
      return std::tie(a.model, a.batch, a.bw_gbps, a.links_fp) <
             std::tie(b.model, b.batch, b.bw_gbps, b.links_fp);
    }
  };
  template <typename Req>
  static RepairKey repair_key(const Req& req) {
    return {req.model, req.batch == 0 ? 1u : req.batch, req.bw_gbps,
            req.links ? req.links->params_fingerprint() : 0};
  }

  struct Prior {
    Mapping mapping;
    LocalityPlan plan;
  };
  struct RepairSession {
    ModelGraph model;
    RepairEngine engine;
    RepairSession(ModelGraph m, SystemConfig sys, RepairOptions opts)
        : model(std::move(m)), engine(model, std::move(sys), std::move(opts)) {}
  };

  void record_prior(const WireRequest& req, const PlanResponse& response) {
    const RepairKey key = repair_key(req);
    priors_.insert_or_assign(key, Prior{response.mapping, response.plan});
    repairs_.erase(key);
  }

  std::string process_repair(const WireRepairRequest& req,
                             const std::string& rid) {
    if (req.event.acc.value >= name_sys_.accelerator_count())
      return reject({ErrorCode::UnknownAcc, "repair.acc: no such accelerator",
                     req.id},
                    rid);
    const RepairKey key = repair_key(req);
    RepairOptions opts;
    opts.plan = req.options;
    opts.fallback_ratio = req.fallback_ratio;
    std::unique_ptr<RepairSession>& session = repairs_[key];
    if (session == nullptr) {
      const auto prior = priors_.find(key);
      if (prior == priors_.end()) {
        repairs_.erase(key);
        return reject({ErrorCode::NoPriorPlan, "repair: no prior plan", req.id},
                      rid);
      }
      ModelGraph model = make_model(req.model);
      if (req.batch != 0) model.set_batch(req.batch);
      SystemConfig sys = req.links ? SystemConfig::standard(*req.links)
                                   : SystemConfig::standard(req.bw_gbps * 1e9);
      session = std::make_unique<RepairSession>(std::move(model),
                                                std::move(sys), opts);
      session->engine.adopt(prior->second.mapping, prior->second.plan);
    } else {
      session->engine.set_options(opts);
    }
    try {
      const RepairResult result = [&] {
        const Scope scope(tracer_, "repair.apply", rid);
        return session->engine.apply(req.event);
      }();
      counters_["repair.cone_layers"] +=
          static_cast<double>(result.cone_layers);
      counters_["repair.layers_moved"] +=
          static_cast<double>(result.layers_moved);
      counters_["repair.scratch_runs"] += result.scratch_latency_s > 0 ? 1 : 0;
      counters_["repair.fallbacks"] += result.used_fallback ? 1 : 0;
      if (result.outcome == RepairOutcome::Infeasible) {
        counters_["repair.infeasible"] += 1;
        return reject({ErrorCode::InfeasibleRepair, result.infeasible_reason,
                       req.id},
                      rid);
      }
      return write_traced(rid, [&] {
        return write_repair_response(req, result, session->model, name_sys_);
      });
    } catch (const ConfigError& e) {
      return reject({ErrorCode::BadField, e.what(), req.id}, rid);
    } catch (const std::exception& e) {
      return reject({ErrorCode::PlanFailed, e.what(), req.id}, rid);
    }
  }

  const ModelGraph& model_for(ZooModel id) {
    std::unique_ptr<const ModelGraph>& slot = models_[id];
    if (slot == nullptr)
      slot = std::make_unique<const ModelGraph>(make_model(id));
    return *slot;
  }

  struct CoMapSession {
    SystemConfig sys;
    CoMapper comapper;
    explicit CoMapSession(double bw_gbps)
        : sys(SystemConfig::standard(bw_gbps * 1e9)), comapper(sys) {}
  };
  CoMapSession& comap_session(double bw_gbps) {
    std::unique_ptr<CoMapSession>& slot = comap_[bw_gbps];
    if (slot == nullptr) slot = std::make_unique<CoMapSession>(bw_gbps);
    return *slot;
  }

  Tracer* tracer_;
  Planner planner_;
  SystemConfig name_sys_;
  Counters counters_;
  std::map<ZooModel, std::unique_ptr<const ModelGraph>> models_;
  std::map<double, std::unique_ptr<CoMapSession>> comap_;
  std::map<RepairKey, Prior> priors_;
  std::map<RepairKey, std::unique_ptr<RepairSession>> repairs_;
};

// Every per-layer metric a traced run reports, with its unit. Layers a
// workload does not exercise report 0.
struct LayerMetric {
  std::string_view name;
  std::string_view unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.parse.count", "count"},     {"serve.parse.busy_ms", "ms"},
    {"serve.write.count", "count"},     {"serve.write.busy_ms", "ms"},
    {"serve.write.bytes", "bytes"},     {"serve.reject.count", "count"},
    {"planner.plan.count", "count"},    {"planner.plan.busy_ms", "ms"},
    {"planner.self_ms", "ms"},          {"planner.session.hits", "count"},
    {"planner.session.misses", "count"}, {"planner.session.setup_ms", "ms"},
    {"planner.session.live", "count"},  {"step1.count", "count"},
    {"step1.busy_ms", "ms"},            {"step2.count", "count"},
    {"step2.busy_ms", "ms"},            {"step3.count", "count"},
    {"step3.busy_ms", "ms"},            {"step4.count", "count"},
    {"step4.busy_ms", "ms"},            {"step4.passes", "count"},
    {"step4.attempts", "count"},        {"step4.accepted", "count"},
    {"step4.accept_ratio", "ratio"},    {"step4.retimes", "count"},
    {"step4.knapsack_hit_ratio", "ratio"},
    {"step4.delta_full_passes", "count"},
    {"repair.apply.count", "count"},    {"repair.apply.busy_ms", "ms"},
    {"repair.cone_layers", "count"},    {"repair.layers_moved", "count"},
    {"repair.scratch_runs", "count"},   {"repair.fallbacks", "count"},
    {"repair.infeasible", "count"},     {"tenant.co_map.count", "count"},
    {"tenant.co_map.busy_ms", "ms"},    {"tenant.rounds", "count"},
    {"tenant.steal_runs", "count"},     {"trace.spans", "count"},
    {"trace.self_sum_frac", "ratio"},   {"trace.replay_ms", "ms"},
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

int Tracer::open(std::string_view name, const std::string& request) {
  Span span;
  span.name = name;
  span.request = request;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  H2H_EXPECTS(!stack_.empty() && stack_.back() == span);
  stack_.pop_back();
}

ReplayResult replay(const std::vector<Request>& requests, Tracer* tracer) {
  ReplayResult result;
  result.responses.reserve(requests.size());
  const std::int64_t start = now_ns();
  {
    static const std::string kRoot;
    const Scope root(tracer, "replay", kRoot);
    Processor processor(tracer);
    for (const Request& r : requests)
      result.responses.push_back(processor.process(r));
    result.counters = processor.finish();
  }
  result.wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  return result;
}

Counters layer_metrics(const Tracer& tracer, const Counters& counters,
                       double wall_s, bool& consistent) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  consistent = true;
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) consistent = false;
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) consistent = false;
    child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  Counters m;
  for (const LayerMetric& lm : kLayerMetrics) m[std::string(lm.name)] = 0;
  std::int64_t self_sum = 0, root_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    const std::int64_t self = dur - child_ns[i];
    self_sum += self;
    if (s.parent < 0) root_ns += dur;
    const std::string name(s.name);
    if (m.count(name + ".count") != 0) m[name + ".count"] += 1;
    if (m.count(name + ".busy_ms") != 0)
      m[name + ".busy_ms"] += static_cast<double>(dur) * 1e-6;
    if (name == "planner.plan")
      m["planner.self_ms"] += static_cast<double>(self) * 1e-6;
  }
  for (const auto& [name, value] : counters)
    if (m.count(name) != 0) m[name] = value;
  const auto get = [&counters](const char* k) {
    const auto it = counters.find(k);
    return it == counters.end() ? 0.0 : it->second;
  };
  m["step4.accept_ratio"] =
      ratio(get("step4.accepted"), get("step4.attempts"));
  m["step4.knapsack_hit_ratio"] =
      ratio(get("step4.knapsack_hits"),
            get("step4.knapsack_hits") + get("step4.knapsack_misses"));
  m["trace.spans"] = static_cast<double>(spans.size());
  m["trace.self_sum_frac"] =
      ratio(static_cast<double>(self_sum) * 1e-9, wall_s);
  m["trace.replay_ms"] = static_cast<double>(root_ns) * 1e-6;
  return m;
}

std::string_view layer_metric_unit(std::string_view name) {
  for (const LayerMetric& lm : kLayerMetrics)
    if (lm.name == name) return lm.unit;
  return "ratio";
}

void write_spans(const Tracer& tracer, std::ostream& out) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json::Object o;
    o.set("span", static_cast<unsigned>(i));
    o.set("name", s.name);
    o.set("start_us", static_cast<double>(s.start_ns - t0) * 1e-3);
    o.set("end_us", static_cast<double>(s.end_ns - t0) * 1e-3);
    o.set("self_us",
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-3);
    o.set("parent", s.parent);
    o.set("request", s.request);
    out << json::dump(json::Value(std::move(o))) << '\n';
  }
}

}  // namespace servebench
