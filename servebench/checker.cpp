#include "checker.h"

#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "system/mapping_io.h"
#include "system/simulator.h"
#include "util/str.h"

namespace servebench {
namespace {

namespace json = h2h::json;

/// A response field of the wrong shape: the check fails with this message.
struct Mismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void wrong(std::string_view key, std::string_view what) {
  throw Mismatch("\"" + std::string(key) + "\" " + std::string(what));
}

const json::Value& field(const json::Object& o, std::string_view key) {
  const json::Value* v = o.find(key);
  if (v == nullptr) wrong(key, "missing");
  return *v;
}
double num(const json::Object& o, std::string_view key) {
  const json::Value& v = field(o, key);
  if (!v.is_number()) wrong(key, "not a number");
  return v.as_number();
}
const std::string& str(const json::Object& o, std::string_view key) {
  const json::Value& v = field(o, key);
  if (!v.is_string()) wrong(key, "not a string");
  return v.as_string();
}
bool flag(const json::Object& o, std::string_view key) {
  const json::Value& v = field(o, key);
  if (!v.is_bool()) wrong(key, "not a bool");
  return v.as_bool();
}
const json::Object& obj(const json::Value& v, std::string_view what) {
  if (!v.is_object()) wrong(what, "not an object");
  return v.as_object();
}
const json::Array& arr(const json::Object& o, std::string_view key) {
  const json::Value& v = field(o, key);
  if (!v.is_array()) wrong(key, "not an array");
  return v.as_array();
}

std::string model_key(h2h::ZooModel model) {
  return std::string(h2h::zoo_info(model).key);
}

/// The response's "mapping" object in read_mapping's text format.
std::string mapping_text(const json::Object& response) {
  const json::Object& m = obj(field(response, "mapping"), "mapping");
  std::string text = "h2h-mapping v1\n";
  for (const json::Value& v : arr(m, "layers")) {
    const json::Object& l = obj(v, "mapping layer");
    text += "layer " + str(l, "layer") + " -> " + str(l, "acc");
    if (l.find("pinned") != nullptr && flag(l, "pinned")) text += " pinned";
    text += '\n';
  }
  for (const json::Value& v : arr(m, "fused")) {
    const json::Object& f = obj(v, "fused edge");
    text += "fuse " + str(f, "from") + " -> " + str(f, "to") + '\n';
  }
  return text;
}

/// layer name -> accelerator name of a response's mapping.
std::map<std::string, std::string> placement(const json::Object& response) {
  std::map<std::string, std::string> out;
  const json::Object& m = obj(field(response, "mapping"), "mapping");
  for (const json::Value& v : arr(m, "layers")) {
    const json::Object& l = obj(v, "mapping layer");
    out[str(l, "layer")] = str(l, "acc");
  }
  return out;
}

std::string exact(std::string_view what, double got, double want) {
  return h2h::strformat("%.*s %.17g != re-simulated %.17g",
                        static_cast<int>(what.size()), what.data(), got, want);
}

}  // namespace

struct Checker::ModelInfo {
  h2h::ModelGraph graph;
  std::map<std::string, h2h::LayerId, std::less<>> by_name;
};

Checker::Checker(std::size_t quality_window)
    : quality_window_(quality_window) {}
Checker::~Checker() = default;

const Checker::ModelInfo& Checker::model_info(h2h::ZooModel model) {
  std::unique_ptr<ModelInfo>& slot = models_[model];
  if (slot == nullptr) {
    slot = std::make_unique<ModelInfo>(ModelInfo{h2h::make_model(model), {}});
    for (const h2h::LayerId id : slot->graph.all_layers())
      slot->by_name.emplace(slot->graph.layer(id).name, id);
  }
  return *slot;
}

std::string Checker::check(const Request& request, std::string_view response) {
  counting_ = window_left_ > 0;
  if (counting_) --window_left_;
  std::string why;
  try {
    const json::ParseResult parsed = json::parse(response);
    if (!parsed.value) throw Mismatch("response is not JSON: " + parsed.error);
    const json::Object& o = obj(*parsed.value, "response");
    if (num(o, "schema_version") != 1) throw Mismatch("schema_version != 1");
    const json::Value* id = o.find("id");
    if (request.echo_id) {
      if (id == nullptr || !id->is_string() || id->as_string() != request.id)
        throw Mismatch("id not echoed as \"" + request.id + "\"");
    } else if (id != nullptr) {
      throw Mismatch("unexpected id echo");
    }
    const bool ok = flag(o, "ok");
    if (!request.expect_error.empty()) {
      if (ok) throw Mismatch("expected error " + request.expect_error);
      const std::string& code = str(obj(field(o, "error"), "error"), "code");
      if (code != request.expect_error)
        throw Mismatch("error code " + code + ", expected " +
                       request.expect_error);
    } else if (!ok) {
      throw Mismatch("unexpected error " +
                     str(obj(field(o, "error"), "error"), "code"));
    } else {
      why = check_ok(request, o);
    }
  } catch (const std::exception& e) {
    // Mismatch, or read_mapping's ConfigError on a mapping that does not
    // load or validate.
    why = e.what();
  }
  if (!why.empty()) ++failed_;
  return why;
}

std::string Checker::check_ok(const Request& request, const json::Object& o) {
  switch (request.kind) {
    case Kind::Plan: return check_plan(request, o);
    case Kind::Repair: return check_repair(request, o);
    case Kind::Tenants: return check_tenants(request, o);
  }
  return "unknown request kind";
}

void Checker::record_placement(h2h::ZooModel model,
                               std::map<std::string, std::string> placement,
                               double* moved_bytes) {
  const ModelInfo& info = model_info(model);
  std::map<std::string, std::string>& last = last_placement_[model];
  double moved = 0;
  const bool replan = !last.empty();
  for (const auto& [layer, acc] : placement) {
    const auto it = last.find(layer);
    if (it == last.end() || it->second == acc) continue;
    const auto id = info.by_name.find(layer);
    if (id == info.by_name.end()) throw Mismatch("unknown layer " + layer);
    moved += static_cast<double>(info.graph.weight_bytes(id->second));
  }
  last = std::move(placement);
  if (moved_bytes != nullptr) *moved_bytes = moved;
  if (counting_ && replan) {
    moved_bytes_ += moved;
    ++replans_;
  }
}

std::string Checker::check_plan(const Request& request, const json::Object& o) {
  if (str(o, "model") != model_key(request.model)) return "model not echoed";
  if (num(o, "bw_gbps") != request.bw_gbps) return "bw_gbps not echoed";
  const ModelInfo& info = model_info(request.model);
  const h2h::SystemConfig sys =
      h2h::SystemConfig::standard(request.bw_gbps * 1e9);
  std::istringstream text(mapping_text(o));
  const h2h::LoadedMapping loaded = h2h::read_mapping(text, info.graph, sys);
  const h2h::Simulator sim(info.graph, sys);
  const h2h::ScheduleResult r = sim.simulate(loaded.mapping, loaded.plan);
  const double latency = num(o, "latency_s");
  const double energy = num(o, "energy_j");
  if (latency != r.latency) return exact("latency_s", latency, r.latency);
  if (energy != r.energy.total())
    return exact("energy_j", energy, r.energy.total());
  const json::Value* step2 = nullptr;
  for (const json::Value& s : arr(o, "steps"))
    if (str(obj(s, "step"), "name") == "2: weight locality") step2 = &s;
  if (step2 == nullptr) return "no step-2 snapshot";
  if (latency > num(step2->as_object(), "latency_s"))
    return "final latency above the step-2 snapshot";
  record_placement(request.model, placement(o), nullptr);
  if (counting_) {
    log_latency_.push_back(std::log(latency));
    log_energy_.push_back(std::log(energy));
    slo_met_ += latency <= request.slo_s ? 1 : 0;
    ++slo_total_;
  }
  return {};
}

std::string Checker::check_repair(const Request& request,
                                  const json::Object& o) {
  std::unique_ptr<FaultMirror>& mirror =
      mirrors_[{request.model, request.bw_gbps}];
  if (mirror == nullptr)
    mirror = std::make_unique<FaultMirror>(request.model, request.bw_gbps);
  mirror->apply(*request.event);
  if (str(o, "model") != model_key(request.model)) return "model not echoed";
  if (str(o, "outcome") != "repaired") return "outcome not repaired";
  const ModelInfo& info = model_info(request.model);
  const h2h::SystemConfig& sys = mirror->system();
  std::istringstream text(mapping_text(o));
  const h2h::LoadedMapping loaded = h2h::read_mapping(text, info.graph, sys);
  for (const h2h::LayerId id : info.graph.all_layers())
    if (info.graph.layer(id).kind != h2h::LayerKind::Input &&
        !sys.available(loaded.mapping.acc_of(id)))
      return "layer " + info.graph.layer(id).name + " on a lost accelerator";
  const h2h::Simulator sim(info.graph, sys);
  const h2h::ScheduleResult r = sim.simulate(loaded.mapping, loaded.plan);
  const double latency = num(o, "post_latency_s");
  if (latency != r.latency) return exact("post_latency_s", latency, r.latency);
  double moved = 0;
  record_placement(request.model, placement(o), &moved);
  if (moved != num(o, "weight_bytes_moved"))
    return exact("weight_bytes_moved", num(o, "weight_bytes_moved"), moved);
  if (counting_) {
    log_latency_.push_back(std::log(latency));
    log_energy_.push_back(std::log(r.energy.total()));
    slo_met_ += latency <= request.slo_s ? 1 : 0;
    ++slo_total_;
  }
  return {};
}

std::string Checker::check_tenants(const Request& request,
                                   const json::Object& o) {
  const json::Array& tenants = arr(o, "tenants");
  if (tenants.size() != request.tenants.size()) return "tenant count differs";
  std::map<std::string, std::map<std::string, std::string>> per_tenant;
  for (const auto& [layer, acc] : placement(o)) {
    const std::size_t slash = layer.find('/');
    if (slash == std::string::npos) return "union layer without tenant prefix";
    per_tenant[layer.substr(0, slash)][layer.substr(slash + 1)] = acc;
  }
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const Tenant& want = request.tenants[i];
    const json::Object& t = obj(tenants[i], "tenant");
    const std::string key = model_key(want.model);
    if (str(t, "name") != key || str(t, "model") != key)
      return "tenant " + std::to_string(i) + " not echoed";
    if (num(t, "slo_s") != want.slo_s) return "slo_s not echoed";
    const double latency = num(t, "latency_s");
    const bool met = flag(t, "met");
    if (met != (latency <= want.slo_s))
      return "tenant " + key + ": met disagrees with latency <= slo";
    record_placement(want.model, std::move(per_tenant[key]), nullptr);
    if (counting_) {
      log_latency_.push_back(std::log(latency));
      slo_met_ += met ? 1 : 0;
      ++slo_total_;
    }
  }
  if (counting_) log_energy_.push_back(std::log(num(o, "energy_j")));
  return {};
}

namespace {
double geomean(const std::vector<double>& logs) {
  if (logs.empty()) return 0;
  return std::exp(std::accumulate(logs.begin(), logs.end(), 0.0) /
                  static_cast<double>(logs.size()));
}
}  // namespace

double Checker::latency_geomean_ms() const {
  return geomean(log_latency_) * 1e3;
}
double Checker::energy_geomean_mj() const {
  return geomean(log_energy_) * 1e3;
}
double Checker::migrated_mib_per_replan() const {
  return replans_ == 0 ? 0
                       : moved_bytes_ / static_cast<double>(replans_) /
                             (1024.0 * 1024.0);
}
double Checker::slo_met_frac() const {
  return slo_total_ == 0 ? 0
                         : static_cast<double>(slo_met_) /
                               static_cast<double>(slo_total_);
}

}  // namespace servebench
