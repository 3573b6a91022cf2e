#include "serve/protocol.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "accel/capability.h"
#include "serve/json.h"
#include "util/error.h"
#include "util/str.h"
#include "util/units.h"

namespace h2h::serve {
namespace {

constexpr std::uint32_t kMaxBatch = 4096;
constexpr std::uint32_t kMaxRounds = 64;
constexpr std::uint32_t kMaxTenants = 64;
constexpr std::uint32_t kAnyUint = std::numeric_limits<std::uint32_t>::max();

using AnyRequest = std::variant<WireRequest, WireTenantsRequest,
                                WireRepairRequest, WireError>;

/// The one reader for integer wire fields: a JSON number with no fractional
/// part in [lo, hi], or nullopt for anything else (absent, another type, a
/// fraction, NaN, or out of range). The range check comes before the cast,
/// so an out-of-range double is never converted: past UINT32_MAX that
/// conversion is undefined and in practice wraps onto a real accelerator id.
[[nodiscard]] std::optional<std::uint32_t> read_uint(const json::Value* v,
                                                     std::uint32_t lo,
                                                     std::uint32_t hi) {
  if (v == nullptr || !v->is_number()) return std::nullopt;
  const double d = v->as_number();
  if (!(d >= lo && d <= hi) || d != std::floor(d)) return std::nullopt;
  return static_cast<std::uint32_t>(d);
}

/// "a, b, c".
[[nodiscard]] std::string join(std::span<const std::string_view> keys) {
  std::string out;
  for (const std::string_view key : keys) {
    out.append(out.empty() ? "" : ", ").append(key);
  }
  return out;
}

/// The domain a number field declares.
enum class Sign { Any, Positive, NonNegative };

/// Reads one request line. Each wire field is declared once, at its read:
/// dotted path (the member key is its last segment), JSON type, range, and
/// whether it is required; the reader derives the check and the rejection,
/// bad_field "<path>: expected <type>[ (required)]", from it. The first
/// rejection sticks and makes every later read a no-op, so a schema is
/// straight-line code and the answer names the first fault in reading order.
class Reader {
 public:
  [[nodiscard]] bool ok() const noexcept { return !fault_.has_value(); }

  /// Records a rejection; only the first one is kept.
  void fail(ErrorCode code, std::string message) {
    if (ok()) fault_ = WireError{code, std::move(message), {}};
  }

  /// Records bad_field "<path>: expected <what>[ (required)]".
  void expected(std::string_view path, const std::string& what,
                bool required = false) {
    if (!ok()) return;
    fail(ErrorCode::BadField, std::string(path) + ": expected " + what +
                                  (required ? " (required)" : ""));
  }

  /// Reads `root` as one schema: the head ("id", echoed by any later
  /// rejection, then "schema_version"), then `schema`'s fields. Returns the
  /// request, or the first rejection.
  template <typename Request>
  [[nodiscard]] AnyRequest read(
      const json::Object& root,
      void (*schema)(Reader&, const json::Object&, Request&)) {
    Request req;
    const json::Value* id = root.find("id");
    if (id != nullptr && !id->is_string()) expected("id", "a string");
    if (id != nullptr && id->is_string()) req.id = id->as_string();
    const json::Value* version = find(root, "schema_version");
    if (version == nullptr || !version->is_number() ||
        version->as_number() != static_cast<double>(kSchemaVersion)) {
      fail(ErrorCode::SchemaVersion,
           strformat("%s schema_version (this server speaks %d)",
                     version == nullptr ? "missing" : "unsupported",
                     kSchemaVersion));
    }
    schema(*this, root, req);
    if (ok()) return req;
    fault_->id = std::move(req.id);
    return std::move(*fault_);
  }

  /// The member `path` names; null when absent or once a rejection sticks.
  [[nodiscard]] const json::Value* find(const json::Object& obj,
                                        std::string_view path) const {
    return ok() ? obj.find(path.substr(path.rfind('.') + 1)) : nullptr;
  }

  // Typed reads. An absent field is fine unless `required`; one that fails
  // its check leaves `dst` as it was.
  void boolean(const json::Object& obj, std::string_view path, bool& dst) {
    const json::Value* v = find(obj, path);
    if (v != nullptr && !v->is_bool()) expected(path, "a boolean");
    if (v != nullptr && v->is_bool()) dst = v->as_bool();
  }

  /// A `*_gbps` field must also stay finite once scaled to bytes/s.
  void number(const json::Object& obj, std::string_view path, Sign sign,
              double& dst, bool required = false) {
    const json::Value* v = find(obj, path);
    if (v != nullptr && v->is_number() &&
        (sign != Sign::Positive || v->as_number() > 0) &&
        (sign != Sign::NonNegative || v->as_number() >= 0)) {
      if (path.ends_with("_gbps") && !std::isfinite(gbps(v->as_number()))) {
        return expected(path, "a bandwidth finite in bytes/s", required);
      }
      dst = v->as_number();
    } else if (v != nullptr || required) {
      expected(path,
               sign == Sign::Positive      ? "a positive number"
               : sign == Sign::NonNegative ? "a non-negative number"
                                           : "a number",
               required);
    }
  }

  /// An integer in [lo, hi]. A bounded field names its range; an unbounded
  /// one (an id, a size) is a non-negative or positive integer.
  void integer(const json::Object& obj, std::string_view path,
               std::uint32_t lo, std::uint32_t hi, std::uint32_t& dst,
               bool required = false) {
    const json::Value* v = find(obj, path);
    if (const std::optional<std::uint32_t> n = read_uint(v, lo, hi)) {
      dst = *n;
    } else if (v != nullptr || required) {
      expected(path,
               hi != kAnyUint ? strformat("an integer in [%u, %u]", lo, hi)
               : lo == 0      ? "a non-negative integer"
                              : "a positive integer",
               required);
    }
  }

  [[nodiscard]] const json::Object* object(const json::Object& obj,
                                           std::string_view path) {
    const json::Value* v = find(obj, path);
    if (v != nullptr && !v->is_object()) expected(path, "an object");
    return v != nullptr && v->is_object() ? &v->as_object() : nullptr;
  }

  /// A required zoo key; a string that names no zoo model is unknown_model.
  [[nodiscard]] std::optional<ZooModel> zoo_key(const json::Object& obj,
                                                std::string_view path) {
    const json::Value* v = find(obj, path);
    if (v == nullptr || !v->is_string()) {
      expected(path, "a string zoo key", true);
      return std::nullopt;
    }
    const std::optional<ZooModel> zoo = zoo_model_by_key(v->as_string());
    if (!zoo) {
      std::vector<std::string_view> known;
      for (const ZooInfo& info : zoo_catalog()) known.push_back(info.key);
      fail(ErrorCode::UnknownModel,
           strformat("unknown model '%s' (known: %s)",
                     v->as_string().c_str(), join(known).c_str()));
    }
    return zoo;
  }

  /// Rejects the first member of `obj` that `keys` does not name, as
  /// unknown_field "<prefix><key>: unknown field<tail>".
  void known_keys(const json::Object& obj,
                  std::span<const std::string_view> keys,
                  std::string_view prefix = {}, std::string_view tail = {}) {
    if (!ok()) return;
    for (const json::Object::Member& m : obj.members()) {
      if (std::find(keys.begin(), keys.end(), m.key) == keys.end()) {
        return fail(ErrorCode::UnknownField, std::string(prefix)
                                                 .append(m.key)
                                                 .append(": unknown field")
                                                 .append(tail));
      }
    }
  }

 private:
  std::optional<WireError> fault_;
};

/// The "options" object, declared by the PlanOptionSpec table: a member is
/// found by json_key (not the CLI spelling) and typed by its row, and a Bool
/// or Double value reaches the row spelled as its JSON literal.
void read_options(Reader& r, const json::Object& root, PlanOptions& out) {
  using Kind = PlanOptionSpec::Kind;
  const json::Object* obj = r.object(root, "options");
  if (obj == nullptr) return;
  const std::span<const PlanOptionSpec> specs = plan_option_specs();
  for (const json::Object::Member& m : obj->members()) {
    const auto spec = std::find_if(
        specs.begin(), specs.end(),
        [&m](const PlanOptionSpec& s) { return m.key == s.json_key; });
    if (spec == specs.end()) {
      return r.fail(ErrorCode::UnknownField,
                    "options." + m.key + ": unknown option");
    }
    if (spec->kind == Kind::Bool && !m.value.is_bool()) {
      return r.expected("options." + m.key, "a boolean");
    }
    if (spec->kind == Kind::Double && !m.value.is_number()) {
      return r.expected("options." + m.key, "a number");
    }
    if (spec->kind == Kind::Enum && !m.value.is_string()) {
      return r.expected("options." + m.key,
                        "one of " + std::string(spec->values));
    }
    const std::string spelled =
        m.value.is_string() ? m.value.as_string() : json::dump(m.value);
    if (std::optional<std::string> err = spec->set(out, spelled)) {
      return r.fail(ErrorCode::BadField, "options." + m.key + ": " + *err);
    }
  }
}

/// One "emit" flag: its key and the request member it sets.
struct EmitFlag {
  std::string_view key;
  bool* dst;
};

/// The "emit" object: boolean flags, each schema taking its own subset.
/// Each member is checked for its key, then for its type.
void read_emit(Reader& r, const json::Object& root,
               std::initializer_list<EmitFlag> flags) {
  const json::Object* emit = r.object(root, "emit");
  if (emit == nullptr) return;
  for (const json::Object::Member& m : emit->members()) {
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&m](const EmitFlag& f) { return f.key == m.key; });
    if (flag == flags.end()) {
      std::vector<std::string_view> keys;
      for (const EmitFlag& f : flags) keys.push_back(f.key);
      return r.fail(ErrorCode::UnknownField, "emit." + m.key +
                                                 ": unknown field (valid: " +
                                                 join(keys) + ")");
    }
    r.boolean(*emit, "emit." + m.key, *flag->dst);
  }
}

/// The "links" topology (protocol.h). Its keys depend on its shape, so the
/// shape is read first, then the shape's known keys, then the values;
/// Interconnect's own validation is bad_field. True when `out` was set.
bool read_links(Reader& r, const json::Object& root,
                std::optional<Interconnect>& out) {
  static constexpr std::string_view kUniform[] = {"shape", "bw_gbps"};
  static constexpr std::string_view kMixed[] = {"shape", "bw_gbps",
                                                "overrides"};
  static constexpr std::string_view kHierarchical[] = {
      "shape",       "group_size", "intra_gbps",
      "uplink_gbps", "host_gbps",  "hop_latency_us"};
  static constexpr std::string_view kOverride[] = {"acc", "bw_gbps"};
  const json::Object* links = r.object(root, "links");
  if (links == nullptr) return false;
  const json::Value* shape = r.find(*links, "links.shape");
  if (shape == nullptr || !shape->is_string()) {
    r.expected("links.shape", R"("uniform", "mixed", or "hierarchical")",
               true);
    return false;
  }
  const std::string& kind = shape->as_string();
  std::span<const std::string_view> keys;
  if (kind == "uniform") {
    keys = kUniform;
  } else if (kind == "mixed") {
    keys = kMixed;
  } else if (kind == "hierarchical") {
    keys = kHierarchical;
  } else {
    r.fail(ErrorCode::BadField,
           strformat("links.shape: unknown shape '%s'", kind.c_str()));
    return false;
  }
  r.known_keys(*links, keys, "links.", " for shape " + kind);

  // Numbers in GB/s (or us); a missing required one is named as such. A key
  // of another shape was rejected above, so its read here is a no-op.
  const auto number = [&r, links](std::string_view path, bool required) {
    double v = 0;
    if (required && r.find(*links, path) == nullptr) {
      r.fail(ErrorCode::BadField,
             std::string(path) + ": required for this shape");
    }
    r.number(*links, path, Sign::Any, v);
    return v;
  };
  const bool hier = kind == "hierarchical";
  const double bw = gbps(number("links.bw_gbps", !hier));
  Interconnect::HierarchicalSpec spec;
  r.integer(*links, "links.group_size", 1, kAnyUint, spec.group_size, hier);
  spec.intra_bw = gbps(number("links.intra_gbps", hier));
  spec.uplink_bw = gbps(number("links.uplink_gbps", hier));
  const double host = number("links.host_gbps", false);
  spec.host_bw = host == 0 ? 0 : gbps(host);
  spec.hop_latency_s = number("links.hop_latency_us", false) * 1e-6;
  std::vector<Interconnect::Override> overrides;
  const json::Value* list = r.find(*links, "links.overrides");
  if (list != nullptr && !list->is_array()) {
    r.expected("links.overrides", "an array");
  } else if (list != nullptr) {
    for (const json::Value& entry : list->as_array()) {
      if (!entry.is_object()) {
        r.expected("links.overrides", "objects with acc, bw_gbps");
        break;
      }
      const json::Object& e = entry.as_object();
      r.known_keys(e, kOverride, "links.overrides.");
      std::uint32_t acc = 0;
      double acc_bw = 0;
      r.integer(e, "links.overrides.acc", 0, kAnyUint, acc, true);
      r.number(e, "links.overrides.bw_gbps", Sign::Any, acc_bw, true);
      if (!r.ok()) break;
      overrides.emplace_back(acc, gbps(acc_bw));
    }
  }
  if (!r.ok()) return false;
  try {
    out = hier                ? Interconnect::hierarchical(spec)
          : kind == "uniform" ? Interconnect::uniform(bw)
                              : Interconnect::mixed(bw, std::move(overrides));
  } catch (const ConfigError& e) {
    r.fail(ErrorCode::BadField, strformat("links: %s", e.what()));
  }
  return out.has_value();
}

/// The session key plan and repair requests share (model, bw_gbps or links
/// but never both, batch) and their plan options, spelled identically.
template <typename Request>
void read_session(Reader& r, const json::Object& root, Request& req) {
  req.model = r.zoo_key(root, "model").value_or(req.model);
  if (r.find(root, "bw_gbps") != nullptr && root.find("links") != nullptr) {
    r.fail(ErrorCode::BadField,
           "bw_gbps: conflicts with links (the topology's base bandwidth is "
           "the scalar view; send one or the other)");
  }
  r.number(root, "bw_gbps", Sign::Positive, req.bw_gbps);
  if (read_links(r, root, req.links)) req.bw_gbps = req.links->base_bw() / 1e9;
  r.integer(root, "batch", 1, kMaxBatch, req.batch);
  read_options(r, root, req.options);
}

/// The single-model plan schema.
void read_plan(Reader& r, const json::Object& root, WireRequest& req) {
  static constexpr std::string_view kKeys[] = {
      "schema_version", "id",      "model", "bw_gbps", "links",
      "batch",          "options", "emit"};
  read_session(r, root, req);
  read_emit(r, root,
            {{"mapping", &req.emit_mapping},
             {"steps", &req.emit_steps},
             {"timing", &req.emit_timing}});
  r.known_keys(root, kKeys);
}

/// The "tenants" array. The name rules (no '/', unique) and the caps spec
/// stay hand-written; the other entry fields are declared reads.
void read_tenants(Reader& r, const json::Object& root,
                  std::vector<TenantRequest>& out) {
  static constexpr std::string_view kKeys[] = {"name", "model", "slo_s",
                                               "priority", "caps"};
  const json::Value* list = r.find(root, "tenants");
  if (list == nullptr || !list->is_array() || list->as_array().empty()) {
    return r.expected("tenants", "a non-empty array", true);
  }
  if (list->as_array().size() > kMaxTenants) {
    return r.expected("tenants", strformat("at most %u tenants", kMaxTenants));
  }
  for (const json::Value& entry : list->as_array()) {
    if (!entry.is_object()) {
      return r.expected("tenants", "objects with name, model");
    }
    const json::Object& t = entry.as_object();
    r.known_keys(t, kKeys, "tenants.");
    const json::Value* name = r.find(t, "tenants.name");
    if (name == nullptr || !name->is_string() || name->as_string().empty() ||
        name->as_string().find('/') != std::string::npos) {
      return r.expected("tenants.name", "a non-empty string without '/'",
                        true);
    }
    for (const TenantRequest& seen : out) {
      if (seen.name != name->as_string()) continue;
      return r.fail(ErrorCode::BadField,
                    strformat("tenants.name: duplicate tenant name '%s'",
                              seen.name.c_str()));
    }
    TenantRequest& tenant = out.emplace_back();
    tenant.name = name->as_string();
    tenant.model = r.zoo_key(t, "tenants.model");
    r.number(t, "tenants.slo_s", Sign::Positive, tenant.slo_s);
    r.integer(t, "tenants.priority", 1, 1000000, tenant.priority);
    if (const json::Value* caps = r.find(t, "tenants.caps")) {
      if (!caps->is_string()) {
        return r.expected("tenants.caps", "a capability-spec string");
      }
      try {
        tenant.required_caps = parse_caps_spec(caps->as_string());
      } catch (const ConfigError& e) {
        return r.fail(ErrorCode::BadField,
                      strformat("tenants.caps: %s", e.what()));
      }
    }
  }
}

/// The multi-tenant schema (root "tenants" array; protocol.h).
void read_comap(Reader& r, const json::Object& root, WireTenantsRequest& req) {
  static constexpr std::string_view kKeys[] = {
      "schema_version", "id",          "tenants",      "bw_gbps", "options",
      "max_rounds",     "steal_round", "require_slos", "emit"};
  read_tenants(r, root, req.tenants);
  r.number(root, "bw_gbps", Sign::Positive, req.bw_gbps);
  read_options(r, root, req.options);
  r.integer(root, "max_rounds", 0, kMaxRounds, req.max_rounds);
  r.boolean(root, "steal_round", req.steal_round);
  r.boolean(root, "require_slos", req.require_slos);
  read_emit(r, root, {{"mapping", &req.emit_mapping}});
  r.known_keys(root, kKeys);
}

/// The "repair" event object. Whether "scale" is required or refused
/// depends on the event kind, so that rule stays hand-written.
void read_fault(Reader& r, const json::Object& root, FaultEvent& event) {
  static constexpr std::string_view kKeys[] = {"event", "acc", "scale"};
  const json::Object* ev = r.object(root, "repair");
  if (ev == nullptr) return;
  r.known_keys(*ev, kKeys, "repair.", " (valid: " + join(kKeys) + ")");
  const json::Value* kind = r.find(*ev, "repair.event");
  if (kind == nullptr || !kind->is_string()) {
    return r.expected("repair.event", "a string fault kind", true);
  }
  const std::optional<FaultKind> parsed = parse_fault_kind(kind->as_string());
  if (!parsed) {
    return r.fail(ErrorCode::BadField,
                  strformat("repair.event: unknown fault kind '%s' (valid: "
                            "acc_lost, acc_returned, link_degraded, "
                            "link_restored, spec_derated)",
                            kind->as_string().c_str()));
  }
  event.kind = *parsed;
  r.integer(*ev, "repair.acc", 0, kAnyUint, event.acc.value, true);
  const std::string name(to_string(event.kind));
  const json::Value* scale = r.find(*ev, "repair.scale");
  if (event.has_scale() && scale != nullptr && scale->is_number() &&
      scale->as_number() > 0 && scale->as_number() <= 1) {
    event.scale = scale->as_number();
  } else if (event.has_scale()) {
    r.expected("repair.scale", "a number in (0, 1] (required for " + name +
                                   ")");
  } else if (scale != nullptr) {
    r.fail(ErrorCode::BadField, "repair.scale: not allowed for " + name);
  }
}

/// The live-repair schema (root "repair" object; protocol.h): the event,
/// then the same session key a plan request names.
void read_repair(Reader& r, const json::Object& root, WireRepairRequest& req) {
  static constexpr std::string_view kKeys[] = {
      "schema_version", "id",    "repair",  "model",          "bw_gbps",
      "links",          "batch", "options", "fallback_ratio", "emit"};
  read_fault(r, root, req.event);
  read_session(r, root, req);
  r.number(root, "fallback_ratio", Sign::NonNegative, req.fallback_ratio);
  read_emit(r, root,
            {{"mapping", &req.emit_mapping}, {"timing", &req.emit_timing}});
  r.known_keys(root, kKeys);
}

/// Canonical JSON spelling of a topology (the response echo).
[[nodiscard]] json::Value links_json(const Interconnect& links) {
  json::Object o;
  o.set("shape", std::string(to_string(links.shape())));
  if (links.shape() == LinkShape::Hierarchical) {
    const Interconnect::HierarchicalSpec& h = links.hier();
    o.set("group_size", h.group_size);
    o.set("intra_gbps", h.intra_bw / 1e9);
    o.set("uplink_gbps", h.uplink_bw / 1e9);
    o.set("host_gbps", h.host_bw / 1e9);
    o.set("hop_latency_us", h.hop_latency_s * 1e6);
    return json::Value(std::move(o));
  }
  o.set("bw_gbps", links.base_bw() / 1e9);
  if (links.shape() == LinkShape::Mixed) {
    json::Array overrides;
    for (const Interconnect::Override& ov : links.overrides()) {
      json::Object e;
      e.set("acc", ov.first);
      e.set("bw_gbps", ov.second / 1e9);
      overrides.push_back(json::Value(std::move(e)));
    }
    o.set("overrides", std::move(overrides));
  }
  return json::Value(std::move(o));
}

/// The canonical "options" echo: every knob at its effective value,
/// defaults included, unset optionals omitted. The inverse of read_options:
/// an Enum spelling is a JSON string, a Bool or Double one a JSON literal.
[[nodiscard]] json::Object options_json(const PlanOptions& options) {
  json::Object out;
  for (const PlanOptionSpec& spec : plan_option_specs()) {
    std::string v = spec.get(options);
    if (v.empty()) continue;  // unset optional (time_budget_s)
    std::optional<json::Value> value =
        spec.kind == PlanOptionSpec::Kind::Enum
            ? std::optional<json::Value>(std::move(v))
            : json::parse(v).value;
    H2H_ASSERT(value.has_value());
    out.set(std::string(spec.json_key), std::move(*value));
  }
  return out;
}

/// The "mapping" response object: seq-ordered layer placements plus fused
/// edges (shared by single-model and tenants responses).
[[nodiscard]] json::Value mapping_json(const ModelGraph& model,
                                       const Mapping& mapping,
                                       const LocalityPlan& plan,
                                       const SystemConfig& sys) {
  std::vector<LayerId> order = model.all_layers();
  std::sort(order.begin(), order.end(), [&mapping](LayerId l, LayerId r) {
    return mapping.seq_of(l) < mapping.seq_of(r);
  });
  json::Array layers;
  for (const LayerId id : order) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    json::Object entry;
    entry.set("layer", model.layer(id).name);
    entry.set("acc", sys.spec(mapping.acc_of(id)).name);
    if (plan.pinned(id)) entry.set("pinned", true);
    layers.push_back(json::Value(std::move(entry)));
  }
  json::Array fused;
  for (const LayerId id : order) {
    const auto preds = model.graph().preds(id);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      if (!plan.fused_in(id, i)) continue;
      json::Object edge;
      edge.set("from", model.layer(preds[i]).name);
      edge.set("to", model.layer(id).name);
      fused.push_back(json::Value(std::move(edge)));
    }
  }
  json::Object out;
  out.set("layers", std::move(layers));
  out.set("fused", std::move(fused));
  return json::Value(std::move(out));
}

/// The head of every response line: schema_version, id (when sent), ok.
[[nodiscard]] json::Object response_head(const std::string& id, bool ok) {
  json::Object root;
  root.set("schema_version", kSchemaVersion);
  if (!id.empty()) root.set("id", id);
  root.set("ok", ok);
  return root;
}

/// The session-key echo of plan and repair responses: "links" only for
/// topology requests (scalar responses keep their pinned pre-topology
/// bytes), and every knob at its canonical value, defaults included.
template <typename Request>
void echo_session(json::Object& root, const Request& request) {
  root.set("model", zoo_info(request.model).key);
  root.set("bw_gbps", request.bw_gbps);
  if (request.links) root.set("links", links_json(*request.links));
  root.set("batch", request.batch == 0 ? 1u : request.batch);
  root.set("options", options_json(request.options));
}

}  // namespace

std::string_view to_string(ErrorCode code) noexcept {
  // Indexed by ErrorCode, in declaration order (protocol.h).
  static constexpr std::string_view kNames[] = {
      "parse_error",           "schema_version",    "unknown_field",
      "bad_field",             "unknown_model",     "plan_failed",
      "infeasible_capability", "slo_violated",      "unknown_acc",
      "no_prior_plan",         "infeasible_repair"};
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(ErrorCode::InfeasibleRepair) + 1);
  const auto index = static_cast<std::size_t>(code);
  return index < std::size(kNames) ? kNames[index] : "unknown";
}

AnyRequest parse_any_request(std::string_view line) {
  const json::ParseResult parsed = json::parse(line);
  if (!parsed.value || !parsed.value->is_object()) {
    return WireError{ErrorCode::ParseError,
                     parsed.value ? "request must be a JSON object"
                                  : strformat("byte %zu: %s", parsed.offset,
                                              parsed.error.c_str()),
                     {}};
  }
  const json::Object& root = parsed.value->as_object();
  Reader r;
  if (root.find("tenants") != nullptr) return r.read(root, read_comap);
  if (root.find("repair") != nullptr) return r.read(root, read_repair);
  return r.read(root, read_plan);
}

PlanRequest to_plan_request(const WireRequest& request) {
  PlanRequest plan = PlanRequest::zoo(request.model, request.bw_gbps * 1e9,
                                      request.batch);
  plan.options = request.options;
  plan.links = request.links;  // bw_acc is then only a key component
  return plan;
}

std::string write_response(const WireRequest& request,
                           const PlanResponse& response,
                           const ModelGraph& model, const SystemConfig& sys) {
  json::Object root = response_head(request.id, true);
  echo_session(root, request);

  const ScheduleResult& fin = response.final_result();
  root.set("latency_s", fin.latency);
  root.set("energy_j", fin.energy.total());
  root.set("comp_ratio", fin.comp_ratio());
  root.set("stopped_on_budget", response.stopped_on_budget);

  if (request.emit_steps) {
    json::Array steps;
    for (const StepSnapshot& step : response.steps) {
      json::Object s;
      s.set("name", step.name);
      s.set("latency_s", step.result.latency);
      s.set("energy_j", step.result.energy.total());
      steps.push_back(json::Value(std::move(s)));
    }
    root.set("steps", std::move(steps));
  }

  if (request.emit_mapping) {
    root.set("mapping",
             mapping_json(model, response.mapping, response.plan, sys));
  }

  if (request.emit_timing) {
    json::Object timing;
    timing.set("warm", response.warm);
    timing.set("setup_s", response.setup_seconds);
    timing.set("search_s", response.search_seconds);
    root.set("timing", std::move(timing));
  }
  return json::dump(json::Value(std::move(root)));
}

std::string write_tenants_response(const WireTenantsRequest& request,
                                   const CoMapResult& result,
                                   const SystemConfig& sys) {
  H2H_EXPECTS(result.tenants.size() == request.tenants.size());
  json::Object root = response_head(request.id, true);

  // Canonical tenant echo merged with the per-tenant verdict, in request
  // (= union declaration) order. No-SLO tenants omit slo_s/slack_s rather
  // than carry a non-JSON infinity.
  json::Array tenants;
  for (std::size_t i = 0; i < result.tenants.size(); ++i) {
    const TenantRequest& t = request.tenants[i];
    const TenantOutcome& out = result.tenants[i];
    json::Object entry;
    entry.set("name", out.name);
    entry.set("model", zoo_info(*t.model).key);
    if (t.has_slo()) entry.set("slo_s", t.slo_s);
    entry.set("priority", out.priority);
    if (t.required_caps != 0) entry.set("caps", format_caps(t.required_caps));
    entry.set("solo_latency_s", out.solo_latency_s);
    entry.set("seq_latency_s", out.seq_latency_s);
    entry.set("latency_s", out.latency_s);
    if (t.has_slo()) entry.set("slack_s", out.slack_s);
    entry.set("met", out.met);
    tenants.push_back(json::Value(std::move(entry)));
  }
  root.set("tenants", std::move(tenants));

  root.set("bw_gbps", request.bw_gbps);
  root.set("options", options_json(request.options));
  root.set("max_rounds", request.max_rounds);
  root.set("steal_round", request.steal_round);
  root.set("require_slos", request.require_slos);

  root.set("makespan_s", result.schedule.latency);
  root.set("energy_j", result.schedule.energy.total());
  root.set("violation_s", result.violation_s);
  root.set("seq_makespan_s", result.seq_makespan_s);
  root.set("seq_violation_s", result.seq_violation_s);
  root.set("rounds", result.rounds);
  root.set("steal_ran", result.steal_ran);
  root.set("all_slos_met", result.all_slos_met);

  if (request.emit_mapping) {
    root.set("mapping",
             mapping_json(result.model, result.mapping, result.plan, sys));
  }
  return json::dump(json::Value(std::move(root)));
}

std::string write_repair_response(const WireRepairRequest& request,
                                  const RepairResult& result,
                                  const ModelGraph& model,
                                  const SystemConfig& sys) {
  H2H_EXPECTS(result.outcome == RepairOutcome::Repaired);
  H2H_EXPECTS(result.response.has_value());
  json::Object root = response_head(request.id, true);
  echo_session(root, request);
  root.set("fallback_ratio", request.fallback_ratio);

  json::Object event;
  event.set("event", std::string(to_string(result.event.kind)));
  event.set("acc", result.event.acc.value);
  if (result.event.has_scale()) event.set("scale", result.event.scale);
  root.set("event", std::move(event));

  root.set("outcome", std::string(to_string(result.outcome)));
  root.set("pre_latency_s", result.pre_latency_s);
  // The faulted (repair-nothing) latency is +inf when the old mapping no
  // longer runs at all; JSON has no infinity, so the field is omitted.
  if (std::isfinite(result.faulted_latency_s)) {
    root.set("faulted_latency_s", result.faulted_latency_s);
  }
  root.set("post_latency_s", result.post_latency_s);
  if (result.scratch_latency_s > 0) {
    root.set("scratch_latency_s", result.scratch_latency_s);
  }
  root.set("used_fallback", result.used_fallback);
  root.set("cone_layers", static_cast<unsigned>(result.cone_layers));
  root.set("layers_moved", static_cast<unsigned>(result.layers_moved));
  root.set("weight_bytes_moved",
           static_cast<double>(result.weight_bytes_moved));
  json::Array migrations;
  for (const Migration& m : result.migrations) {
    json::Object entry;
    entry.set("layer", model.layer(m.layer).name);
    entry.set("from", sys.spec(m.from).name);
    entry.set("to", sys.spec(m.to).name);
    entry.set("weight_bytes", static_cast<double>(m.weight_bytes));
    migrations.push_back(json::Value(std::move(entry)));
  }
  root.set("migrations", std::move(migrations));

  if (request.emit_mapping) {
    root.set("mapping", mapping_json(model, result.response->mapping,
                                     result.response->plan, sys));
  }
  if (request.emit_timing) {
    json::Object timing;
    timing.set("repair_s", result.repair_seconds);
    root.set("timing", std::move(timing));
  }
  return json::dump(json::Value(std::move(root)));
}

std::string write_error(const WireError& error) {
  json::Object root = response_head(error.id, false);
  json::Object detail;
  detail.set("code", to_string(error.code));
  detail.set("message", error.message);
  root.set("error", std::move(detail));
  return json::dump(json::Value(std::move(root)));
}

}  // namespace h2h::serve
