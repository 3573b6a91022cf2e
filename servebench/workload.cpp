#include "workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>

#include "serve/json.h"

namespace servebench {
namespace {

using h2h::ZooModel;
namespace json = h2h::json;

constexpr std::array<double, 5> kCatalogGbps = {0.125, 0.15, 0.25, 0.5, 1.25};

// Standalone plan latency (ms) of each zoo model at the catalog bandwidths
// above, rounded to two digits. Only the SLO draws use it.
struct RefRow {
  ZooModel model;
  std::array<double, 5> ms;
};
constexpr std::array<RefRow, 6> kReference = {{
    {ZooModel::VLocNet, {160, 130, 120, 72, 47}},
    {ZooModel::CasiaSurf, {8.6, 9.5, 6.4, 5.6, 3.1}},
    {ZooModel::Vfs, {76, 75, 74, 74, 73}},
    {ZooModel::FaceBag, {7.2, 6.3, 5.0, 4.7, 3.0}},
    {ZooModel::CnnLstm, {5.1, 4.6, 3.6, 3.3, 3.2}},
    {ZooModel::MoCap, {2.8, 2.7, 2.6, 2.5, 2.4}},
}};

constexpr std::array<ZooModel, 6> kZoo = {
    ZooModel::VLocNet, ZooModel::CasiaSurf, ZooModel::Vfs,
    ZooModel::FaceBag, ZooModel::CnnLstm,   ZooModel::MoCap};
// The key_churn models. Every request builds a cold session; these three
// keep each request near 2 ms. On mocap and cnn-lstm a request took
// 0.4 ms, and at that rate the wake-ups between client, reader and workers
// made the figures follow the host's load more than the program's.
constexpr std::array<ZooModel, 3> kChurnModels = {
    ZooModel::Vfs, ZooModel::CasiaSurf, ZooModel::FaceBag};
// tenant_comap draws its sets from the five models other than vlocnet.
constexpr std::array<ZooModel, 5> kTenantModels = {
    ZooModel::CasiaSurf, ZooModel::Vfs, ZooModel::FaceBag, ZooModel::CnnLstm,
    ZooModel::MoCap};

constexpr double kChurnMinGbps = 0.1;
constexpr double kChurnMaxGbps = 2.0;

// Every 2- and 3-subset of kTenantModels, in lexicographic index order.
std::vector<std::vector<ZooModel>> tenant_sets() {
  std::vector<std::vector<ZooModel>> sets;
  const std::size_t n = kTenantModels.size();
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a + 1; b < n; ++b) {
      sets.push_back({kTenantModels[a], kTenantModels[b]});
      for (std::size_t c = b + 1; c < n; ++c)
        sets.push_back({kTenantModels[a], kTenantModels[b], kTenantModels[c]});
    }
  return sets;
}

json::Object head(const std::string& id) {
  json::Object o;
  o.set("schema_version", 1);
  o.set("id", id);
  return o;
}

json::Object no_timing() {
  json::Object emit;
  emit.set("timing", false);
  return emit;
}

std::string key(ZooModel model) {
  return std::string(h2h::zoo_info(model).key);
}

}  // namespace

std::string_view to_string(WorkloadId id) noexcept {
  switch (id) {
    case WorkloadId::ZooReplan: return "zoo_replan";
    case WorkloadId::KeyChurn: return "key_churn";
    case WorkloadId::FaultRepair: return "fault_repair";
    case WorkloadId::TenantComap: return "tenant_comap";
  }
  return "?";
}

std::optional<WorkloadId> workload_by_name(std::string_view name) {
  for (WorkloadId id : {WorkloadId::ZooReplan, WorkloadId::KeyChurn,
                        WorkloadId::FaultRepair, WorkloadId::TenantComap})
    if (to_string(id) == name) return id;
  return std::nullopt;
}

double reference_latency_s(ZooModel model, double bw_gbps) {
  const RefRow* row = nullptr;
  for (const RefRow& r : kReference)
    if (r.model == model) row = &r;
  const double x = std::log(std::clamp(bw_gbps, kCatalogGbps.front(),
                                       kCatalogGbps.back()));
  std::size_t i = 0;
  while (i + 2 < kCatalogGbps.size() && x > std::log(kCatalogGbps[i + 1])) ++i;
  const double x0 = std::log(kCatalogGbps[i]);
  const double x1 = std::log(kCatalogGbps[i + 1]);
  const double t = (x - x0) / (x1 - x0);
  const double y =
      std::exp(std::log(row->ms[i]) * (1 - t) + std::log(row->ms[i + 1]) * t);
  return y * 1e-3;
}

// ---- FaultMirror -------------------------------------------------------

FaultMirror::FaultMirror(ZooModel model, double bw_gbps)
    : sys_(h2h::SystemConfig::standard(bw_gbps * 1e9)) {
  const h2h::ModelGraph graph = h2h::make_model(model);
  for (const h2h::LayerId id : graph.all_layers()) {
    const h2h::LayerKind kind = graph.layer(id).kind;
    if (kind != h2h::LayerKind::Input &&
        std::find(kinds_.begin(), kinds_.end(), kind) == kinds_.end())
      kinds_.push_back(kind);
  }
}

std::size_t FaultMirror::lost_count() const noexcept {
  return sys_.accelerator_count() - sys_.available_count();
}

bool FaultMirror::can_lose(h2h::AccId acc) const {
  if (!sys_.available(acc) || lost_count() >= kMaxLost) return false;
  for (const h2h::LayerKind kind : kinds_) {
    const std::vector<h2h::AccId> left = sys_.supporting(kind);
    if (left.size() == 1 && left.front() == acc) return false;
  }
  return true;
}

void FaultMirror::apply(const h2h::FaultEvent& e) {
  using h2h::FaultKind;
  switch (e.kind) {
    case FaultKind::AccLost: sys_.set_available(e.acc, false); break;
    case FaultKind::AccReturned: sys_.set_available(e.acc, true); break;
    case FaultKind::LinkDegraded: sys_.set_link_degrade(e.acc, e.scale); break;
    case FaultKind::LinkRestored: sys_.set_link_degrade(e.acc, 1.0); break;
    case FaultKind::SpecDerated: sys_.set_compute_derate(e.acc, e.scale); break;
  }
}

std::size_t Cycle::next(h2h::Rng& rng) {
  if (pos_ == order_.size()) {
    order_.resize(n_);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::shuffle(order_.begin(), order_.end(), rng.engine());
    pos_ = 0;
  }
  return order_[pos_++];
}

double Stratified::draw(h2h::Rng& rng) {
  const double stratum = static_cast<double>(strata_.next(rng));
  const double t = (stratum + rng.uniform_real(0, 1)) /
                   static_cast<double>(strata_.size());
  return lo_ + (hi_ - lo_) * t;
}

// ---- Generator -----------------------------------------------------------

namespace {

std::size_t key_count(WorkloadId w) {
  switch (w) {
    case WorkloadId::ZooReplan: return kZoo.size() * kCatalogGbps.size();
    case WorkloadId::TenantComap:
      return tenant_sets().size() * kCatalogGbps.size();
    default: return 1;
  }
}

// SLO factors: plans should land near the reference, a repaired plan runs
// on a damaged system, and a co-mapped tenant shares it with its peers.
Stratified slo_factors(WorkloadId w) {
  constexpr std::size_t kStrata = 30;
  switch (w) {
    case WorkloadId::FaultRepair: return {1.0, 2.0, kStrata};
    case WorkloadId::TenantComap: return {1.0, 3.0, kStrata};
    default: return {0.9, 1.3, kStrata};
  }
}

}  // namespace

Generator::FaultSession::FaultSession(ZooModel model, double bw)
    : mirror(model, bw),
      bw_gbps(bw),
      lose_order(mirror.system().accelerator_count()),
      tweak_order(mirror.system().accelerator_count()) {}

Generator::Generator(WorkloadId workload, std::uint64_t seed)
    : workload_(workload),
      rng_(seed),
      keys_(key_count(workload)),
      slo_factor_(slo_factors(workload)),
      session_order_(kZoo.size()),
      scale_(0.2, 0.9, 14) {
  switch (workload_) {
    case WorkloadId::ZooReplan:
      // One pass over all 30 keys: every timed request is then warm.
      for (std::size_t i = 0; i < key_count(workload_); ++i) {
        const std::size_t k = keys_.next(rng_);
        warmup_.push_back(plan_request(
            "w" + std::to_string(i), kZoo[k / kCatalogGbps.size()],
            kCatalogGbps[k % kCatalogGbps.size()], 1.0));
      }
      break;
    case WorkloadId::KeyChurn:
      // A short stream of the same shape warms the allocator and code paths;
      // its keys are never reused.
      for (std::size_t i = 0; i < kChurnModels.size(); ++i)
        churn_bw_.emplace_back(0.0, 1.0, 128);
      for (std::size_t i = 0; i < 24; ++i)
        warmup_.push_back(next_churn("w" + std::to_string(i)));
      break;
    case WorkloadId::FaultRepair:
      // One plan per zoo model at 0.5 GB/s: the sessions every repair
      // compounds on. The bandwidth is not seeded: how often a repair falls
      // back to a from-scratch plan swings with it, and with it the cost of
      // the whole stream.
      for (std::size_t i = 0; i < kZoo.size(); ++i) {
        sessions_.emplace_back(kZoo[i], 0.5);
        warmup_.push_back(plan_request("w" + std::to_string(i), kZoo[i],
                                       sessions_.back().bw_gbps, 1.0));
      }
      last_session_ = kZoo.size();
      break;
    case WorkloadId::TenantComap: {
      // Per bandwidth, one 3-set and one 2-set covering all five models, so
      // every solo plan a co-map needs is cached before timing starts.
      std::size_t i = 0;
      for (const double bw : kCatalogGbps) {
        for (const std::vector<ZooModel>& set :
             {std::vector<ZooModel>{kTenantModels[0], kTenantModels[1],
                                    kTenantModels[2]},
              std::vector<ZooModel>{kTenantModels[3], kTenantModels[4]}})
          warmup_.push_back(
              tenants_request("w" + std::to_string(i++), set, bw));
      }
      break;
    }
  }
}

std::size_t Generator::quality_window() const noexcept {
  switch (workload_) {
    case WorkloadId::ZooReplan: return 1800;    // 60 epochs of 30 keys
    case WorkloadId::KeyChurn: return 4000;
    case WorkloadId::FaultRepair: return 3000;  // 50 rounds per session
    case WorkloadId::TenantComap: return 500;   // 5 epochs of 100 keys
  }
  return 0;
}

Request Generator::next() {
  switch (workload_) {
    case WorkloadId::ZooReplan: return next_zoo();
    case WorkloadId::KeyChurn: return next_churn(next_id());
    case WorkloadId::FaultRepair: return next_repair();
    case WorkloadId::TenantComap: return next_tenants();
  }
  return {};
}

Request Generator::plan_request(std::string id, ZooModel model, double bw_gbps,
                                double slo_factor) {
  json::Object o = head(id);
  o.set("model", key(model));
  o.set("bw_gbps", bw_gbps);
  o.set("emit", no_timing());
  Request r;
  r.id = std::move(id);
  r.line = json::dump(json::Value(std::move(o)));
  r.kind = Kind::Plan;
  r.model = model;
  r.bw_gbps = bw_gbps;
  r.slo_s = slo_factor * reference_latency_s(model, bw_gbps);
  return r;
}

Request Generator::next_zoo() {
  const std::size_t k = keys_.next(rng_);
  return plan_request(next_id(), kZoo[k / kCatalogGbps.size()],
                      kCatalogGbps[k % kCatalogGbps.size()],
                      slo_factor_.draw(rng_));
}

Request Generator::next_churn(std::string id) {
  const std::uint64_t n = churn_count_++;
  if (n % 8 == 0) invalid_slot_ = rng_.index(8);
  if (n % 8 == invalid_slot_) return invalid_request(std::move(id));
  // Each model's bandwidths are stratified on a log scale, so no key ever
  // repeats while the spread of bandwidths stays the same from seed to seed.
  const std::size_t m = n % kChurnModels.size();
  double bw = 0;
  do {
    bw = kChurnMinGbps *
         std::pow(kChurnMaxGbps / kChurnMinGbps, churn_bw_[m].draw(rng_));
  } while (!seen_bw_.insert(bw).second);
  return plan_request(std::move(id), kChurnModels[m], bw,
                      slo_factor_.draw(rng_));
}

Request Generator::invalid_request(std::string id) {
  const ZooModel model = kChurnModels[rng_.index(kChurnModels.size())];
  json::Object o = head(id);
  Request r;
  r.kind = Kind::Plan;
  switch (rng_.index(5)) {
    case 0:  // a defined field with an out-of-range value
      o.set("model", key(model));
      o.set("bw_gbps", -rng_.uniform_real(0.1, 2.0));
      r.expect_error = "bad_field";
      break;
    case 1:
      o.set("model", "resnet-" + std::to_string(rng_.uniform_int(18, 152)));
      r.expect_error = "unknown_model";
      break;
    case 2:
      o.set("model", key(model));
      o.set("colour", "red");
      r.expect_error = "unknown_field";
      break;
    case 3:  // truncated JSON: no id can be echoed
      o.set("model", key(model));
      o.set("bw_gbps", 0.5);
      r.expect_error = "parse_error";
      r.echo_id = false;
      break;
    default:
      o = json::Object();
      o.set("schema_version", 2);
      o.set("id", id);
      o.set("model", key(model));
      r.expect_error = "schema_version";
      break;
  }
  r.line = json::dump(json::Value(std::move(o)));
  if (r.expect_error == "parse_error")
    r.line.resize(1 + rng_.index(r.line.size() - 1));
  r.id = std::move(id);
  return r;
}

// A session's events come in rounds of ten that start and end on a healthy
// system: lose a, degrade d, lose b, derate e, lose c (three lost), return
// a, restore d, return b, derate e back to nominal, return c. The
// accelerators cycle through seeded permutations, so over a run every one
// of them is lost, degraded and derated equally often.
h2h::FaultEvent Generator::next_event(FaultSession& s) {
  const auto pick = [&](Cycle& order, auto usable) {
    for (;;) {
      const h2h::AccId acc{static_cast<std::uint32_t>(order.next(rng_))};
      if (usable(acc)) return acc;
    }
  };
  const auto losable = [&](h2h::AccId acc) {
    return s.mirror.can_lose(acc) && acc != s.degraded && acc != s.derated;
  };
  const auto up = [&](h2h::AccId acc) {
    return s.mirror.system().available(acc);
  };
  const std::size_t step = s.step;
  s.step = (s.step + 1) % 10;
  switch (step) {
    case 0:
      s.degraded = s.derated = h2h::AccId{};
      s.lost[0] = pick(s.lose_order, losable);
      return h2h::FaultEvent::lost(s.lost[0]);
    case 1:
      s.degraded = pick(s.tweak_order, up);
      return h2h::FaultEvent::link_degraded(s.degraded, scale_.draw(rng_));
    case 2:
      s.lost[1] = pick(s.lose_order, losable);
      return h2h::FaultEvent::lost(s.lost[1]);
    case 3:
      s.derated = pick(s.tweak_order, up);
      return h2h::FaultEvent::spec_derated(s.derated, scale_.draw(rng_));
    case 4:
      s.lost[2] = pick(s.lose_order, losable);
      return h2h::FaultEvent::lost(s.lost[2]);
    case 5: return h2h::FaultEvent::returned(s.lost[0]);
    case 6: return h2h::FaultEvent::link_restored(s.degraded);
    case 7: return h2h::FaultEvent::returned(s.lost[1]);
    case 8: return h2h::FaultEvent::spec_derated(s.derated, 1.0);
    default: return h2h::FaultEvent::returned(s.lost[2]);
  }
}

Request Generator::next_repair() {
  // Sessions take turns in shuffled epochs, and consecutive requests never
  // share one: with two requests in flight only neighbours can be served
  // concurrently, and a session's repairs compound, so they must arrive one
  // at a time.
  std::size_t s = session_order_.next(rng_);
  while (s == last_session_) s = session_order_.next(rng_);
  last_session_ = s;
  FaultSession& session = sessions_[s];
  const h2h::FaultEvent event = next_event(session);
  session.mirror.apply(event);

  const ZooModel model = kZoo[s];
  std::string id = next_id();
  json::Object o = head(id);
  o.set("model", key(model));
  o.set("bw_gbps", session.bw_gbps);
  json::Object repair;
  repair.set("event", std::string(h2h::to_string(event.kind)));
  repair.set("acc", event.acc.value);
  if (event.has_scale()) repair.set("scale", event.scale);
  o.set("repair", std::move(repair));
  // Every repair also plans from scratch and keeps the better plan, so
  // fallbacks / scratch_runs is the share of repairs the warm path loses.
  // Warm repairs alone take 0.1-0.6 ms, and at that size the lock hand-offs
  // and wake-ups between client, reader and workers made the figures follow
  // the host's load more than the program's.
  o.set("fallback_ratio", 0.0);
  o.set("emit", no_timing());

  Request r;
  r.id = std::move(id);
  r.line = json::dump(json::Value(std::move(o)));
  r.kind = Kind::Repair;
  r.model = model;
  r.bw_gbps = session.bw_gbps;
  r.slo_s = slo_factor_.draw(rng_) * reference_latency_s(model, r.bw_gbps);
  r.event = event;
  return r;
}

Request Generator::tenants_request(std::string id,
                                   const std::vector<ZooModel>& set,
                                   double bw_gbps) {
  json::Object o = head(id);
  json::Array tenants;
  Request r;
  for (const ZooModel model : set) {
    Tenant t;
    t.model = model;
    t.slo_s = slo_factor_.draw(rng_) * reference_latency_s(model, bw_gbps);
    t.priority = static_cast<std::uint32_t>(rng_.uniform_int(1, 3));
    json::Object entry;
    entry.set("name", key(model));  // unique within a set
    entry.set("model", key(model));
    entry.set("slo_s", t.slo_s);
    entry.set("priority", t.priority);
    tenants.push_back(json::Value(std::move(entry)));
    r.tenants.push_back(t);
  }
  o.set("tenants", std::move(tenants));
  o.set("bw_gbps", bw_gbps);
  r.id = std::move(id);
  r.line = json::dump(json::Value(std::move(o)));
  r.kind = Kind::Tenants;
  r.bw_gbps = bw_gbps;
  return r;
}

Request Generator::next_tenants() {
  static const std::vector<std::vector<ZooModel>> sets = tenant_sets();
  const std::size_t k = keys_.next(rng_);
  return tenants_request(next_id(), sets[k / kCatalogGbps.size()],
                         kCatalogGbps[k % kCatalogGbps.size()]);
}

}  // namespace servebench
