#include "tenant/co_mapper.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>

#include "core/activation_fusion.h"
#include "core/weight_locality.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// What the round loop minimizes, lexicographically: priority-weighted SLO
/// violation seconds first, union makespan second.
struct Score {
  double violation = 0;
  double makespan = 0;
};

[[nodiscard]] bool improves(const Score& next, const Score& cur) noexcept {
  if (next.violation < cur.violation) return true;
  if (cur.violation < next.violation) return false;
  return next.makespan < cur.makespan - 1e-12;
}

/// True when a co-map may reuse work whose result is already known: no
/// wall-clock budget (budgeted results depend on timing) and no caller hook
/// or pointer in the options (a reused result would not read or fill it).
[[nodiscard]] bool reusable(const PlanOptions& o) noexcept {
  return !o.time_budget_s && o.step1.preferred == nullptr &&
         o.step1.stats == nullptr && o.weight.force_pin == nullptr &&
         o.remap.weight.force_pin == nullptr && o.remap.locked == nullptr &&
         !o.remap.deadline;
}

[[nodiscard]] Score score_of(const TenantSet& set,
                             const std::vector<double>& latency,
                             double makespan) {
  Score s;
  s.makespan = makespan;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const TenantRequest& t = set.request(i);
    if (!t.has_slo()) continue;
    const double over = latency[i] - t.slo_s;
    if (over > 0)
      s.violation += static_cast<double>(std::max(1u, t.priority)) * over;
  }
  return s;
}

}  // namespace

std::vector<double> tenant_latencies(const ScheduleResult& sched,
                                     const std::vector<TenantSpan>& spans) {
  std::vector<double> out(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i)
    for (std::uint32_t l = spans[i].begin; l < spans[i].end; ++l)
      out[i] = std::max(out[i], sched.timings[l].finish);
  return out;
}

const TenantOutcome& CoMapResult::outcome(std::string_view name) const {
  for (const TenantOutcome& t : tenants)
    if (t.name == name) return t;
  throw ConfigError(
      strformat("no tenant named '%s'", std::string(name).c_str()));
}

/// Everything a solo plan depends on besides the fixed system: the stamped
/// model, its batch, the system's bandwidth and link/derate state, and all
/// of PlanOptions (requests with hooks or pointers bypass the memo).
struct CoMapper::SoloKey {
  std::uint64_t model;
  std::uint32_t batch;
  double bw_acc;
  std::uint64_t links_fp;
  std::uint64_t derate_fp;
  PlanOptions options;
  bool operator==(const SoloKey&) const = default;
};

/// Shard selector: the model and batch spread the keys well enough.
struct CoMapper::SoloKeyHash {
  std::size_t operator()(const SoloKey& k) const noexcept {
    return static_cast<std::size_t>(k.model ^ (k.batch * 0x9E3779B97F4A7C15));
  }
};

/// The two things co_map reads of a solo plan.
struct CoMapper::SoloPlan {
  Mapping mapping;
  double latency_s = 0;
};

CoMapper::CoMapper(const SystemConfig& sys)
    : sys_(&sys),
      planner_(sys),
      solo_(PlannerOptions{}.max_sessions, PlannerOptions{}.shards) {}

CoMapper::~CoMapper() = default;
CoMapper::CoMapper(CoMapper&&) noexcept = default;
CoMapper& CoMapper::operator=(CoMapper&&) noexcept = default;

CoMapResult CoMapper::co_map(const TenantSet& set,
                             const CoMapOptions& options) {
  const std::size_t n = set.size();

  const PlanOptions& opt = options.plan;
  const bool reuse = reusable(opt);

  // Round 0a: solo plans on the idle system, memoized across co_map calls.
  // A miss plans through the shared-system Planner, whose sessions stay
  // warm on the stamped model fingerprint.
  std::vector<std::shared_ptr<SoloPlan>> solo;
  solo.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ModelGraph& m = set.model(i);
    const SoloKey key{model_fingerprint(m),       m.batch(),
                      sys_->host().bw_acc,        sys_->links().fingerprint(),
                      sys_->derate_fingerprint(), opt};
    std::shared_ptr<SoloPlan> plan = reuse ? solo_.find(key) : nullptr;
    if (plan == nullptr) {
      PlanRequest req = PlanRequest::for_graph(m, sys_->host().bw_acc);
      req.options = opt;
      PlanResponse r = planner_.plan(req);
      const double latency = r.final_result().latency;
      plan = std::make_shared<SoloPlan>(
          SoloPlan{std::move(r.mapping), latency});
      if (reuse) plan = solo_.insert(key, std::move(plan));
    }
    solo.push_back(std::move(plan));
  }

  // The union model and the one simulator every round shares. A
  // capability-infeasible tenant throws CapabilityError here (or already in
  // its solo plan above), before any round runs.
  std::vector<TenantSpan> spans;
  ModelGraph model = set.build_union(spans);
  const Simulator sim(model, *sys_);

  // Round 0b: the sequential-deployment baseline — every tenant keeps its
  // solo mapping, copied span-by-span in solo sequence order (which keeps
  // the union sequence topological: components are disjoint and each solo
  // order is). Steps 2-3 then re-run on the union so the shared DRAM
  // capacity is split once instead of double-booked per tenant.
  Mapping seq_mapping(model);
  LocalityPlan seq_plan(model);
  seq_plan.ensure_acc_count(sys_->accelerator_count());
  {
    std::vector<LayerId> order;
    for (std::size_t i = 0; i < n; ++i) {
      const ModelGraph& sm = set.model(i);
      const Mapping& smap = solo[i]->mapping;
      order.clear();
      for (const LayerId sid : sm.all_layers())
        if (sm.layer(sid).kind != LayerKind::Input) order.push_back(sid);
      std::sort(order.begin(), order.end(), [&smap](LayerId a, LayerId b) {
        return smap.seq_of(a) < smap.seq_of(b);
      });
      for (const LayerId sid : order)
        seq_mapping.assign(LayerId{spans[i].begin + sid.value},
                           smap.acc_of(sid));
    }
  }
  if (opt.run_weight_locality)
    optimize_weight_locality(sim, seq_mapping, seq_plan, opt.weight);
  if (opt.run_fusion)
    optimize_activation_fusion(sim, seq_mapping, seq_plan, opt.fusion);
  const ScheduleResult seq_sched = sim.simulate(seq_mapping, seq_plan);
  const std::vector<double> seq_lat = tenant_latencies(seq_sched, spans);
  const Score seq_score = score_of(set, seq_lat, seq_sched.latency);

  // The mapf-het normalization window for slack ordering.
  double normalize = options.slack_normalize_s;
  if (normalize <= 0) {
    for (const TenantRequest& t : set.requests())
      if (t.has_slo()) normalize = std::max(normalize, t.slo_s);
    if (normalize <= 0) normalize = 1.0;
  }

  Mapping cur = seq_mapping;
  LocalityPlan cur_plan = seq_plan;
  ScheduleResult cur_sched = seq_sched;
  std::vector<double> cur_lat = seq_lat;
  Score cur_score = seq_score;

  // Each tenant's span is what its replans leave free.
  std::vector<std::vector<bool>> own(n,
                                     std::vector<bool>(model.layer_count()));
  for (std::size_t i = 0; i < n; ++i)
    for (std::uint32_t l = spans[i].begin; l < spans[i].end; ++l)
      own[i][l] = true;

  // Replan the whole union for one tenant with its peers frozen in place:
  // peer layers keep their accelerators (their step-1 candidate lists
  // collapse to one entry), pins and positions. Reads nothing of the
  // co-mapping beyond `in`, which is what makes the reuse rule below exact.
  // With one tenant nothing is frozen, and the result is bit-identical to
  // Planner::plan (pinned by test_tenant.cpp).
  const auto run_round = [&](const Frozen& in) {
    return run_passes(sim, make_default_pipeline(frozen_options(opt, in)),
                      opt.time_budget_s);
  };

  const auto adopt = [&](PlanResponse&& r) {
    cur_sched = r.final_result();
    cur = std::move(r.mapping);
    cur_plan = std::move(r.plan);
    cur_lat = tenant_latencies(cur_sched, spans);
    cur_score = score_of(set, cur_lat, cur_sched.latency);
  };

  // Round 1 adopts unconditionally (every tenant gets one full replan with
  // its peers fixed); later sweeps only on strict score improvement, so the
  // loop terminates. A turn whose frozen peers match the tenant's last
  // replan would recompute that replan bit for bit, so when its score would
  // not improve the current one the turn is skipped (DESIGN.md §11).
  struct LastReplan {
    Frozen in;
    Score score;
  };
  std::vector<std::optional<LastReplan>> last(n);
  std::uint32_t rounds = 0;
  std::uint32_t replans = 0;
  std::uint32_t reused = 0;
  for (std::uint32_t round = 0; round < 1 + options.max_rounds; ++round) {
    bool adopted = false;
    for (const std::size_t i : slack_order(set, cur_lat, normalize)) {
      ++replans;
      Frozen in = freeze_outside(cur, cur_plan, own[i]);
      if (reuse && last[i] && last[i]->in == in &&
          !improves(last[i]->score, cur_score)) {
        ++reused;
        continue;
      }
      PlanResponse r = run_round(in);
      const ScheduleResult& sched = r.final_result();
      const Score sc =
          score_of(set, tenant_latencies(sched, spans), sched.latency);
      last[i] = LastReplan{std::move(in), sc};
      if (round == 0 || improves(sc, cur_score)) {
        adopt(std::move(r));
        adopted = true;
      }
    }
    ++rounds;
    if (n == 1) break;            // identical replans from here on
    if (round > 0 && !adopted) break;
  }

  // Steal round: a tenant still missing its SLO replans once more with the
  // comfortably-meeting peers unlocked — step 4 may displace their layers.
  bool steal_ran = false;
  if (options.steal_round && n > 1) {
    for (const std::size_t i : slack_order(set, cur_lat, normalize)) {
      const TenantRequest& t = set.request(i);
      if (!t.has_slo() || cur_lat[i] <= t.slo_s) continue;
      steal_ran = true;
      std::vector<bool> locked(model.layer_count(), false);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const TenantRequest& p = set.request(j);
        if (!p.has_slo() || cur_lat[j] <= p.slo_s) continue;  // stealable
        for (std::uint32_t l = spans[j].begin; l < spans[j].end; ++l)
          locked[l] = true;
      }
      PlanOptions po = opt;
      po.remap.locked = &locked;
      PlanResponse r =
          run_passes(sim, make_default_pipeline(po, &cur), po.time_budget_s);
      const ScheduleResult& sched = r.final_result();
      const Score sc =
          score_of(set, tenant_latencies(sched, spans), sched.latency);
      if (improves(sc, cur_score)) adopt(std::move(r));
    }
  }

  CoMapResult res{std::move(model),    std::move(cur), std::move(cur_plan),
                  std::move(cur_sched), {},             seq_sched.latency,
                  seq_score.violation, cur_score.violation,
                  rounds,              steal_ran,       true,
                  replans,             reused};
  res.tenants.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantRequest& t = set.request(i);
    TenantOutcome o;
    o.name = t.name;
    o.span = spans[i];
    o.solo_latency_s = solo[i]->latency_s;
    o.seq_latency_s = seq_lat[i];
    o.latency_s = cur_lat[i];
    o.slo_s = t.slo_s;
    o.slack_s = t.has_slo() ? t.slo_s - cur_lat[i] : kInf;
    o.met = !t.has_slo() || cur_lat[i] <= t.slo_s;
    o.priority = t.priority;
    res.all_slos_met = res.all_slos_met && o.met;
    res.tenants.push_back(std::move(o));
  }
  return res;
}

}  // namespace h2h
