// The serve wire protocol (serve/protocol.h): schema validation, versioned
// error responses, and the response serialization contract.
#include <gtest/gtest.h>

#include <string>
#include <variant>

#include "accel/capability.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "test_helpers.h"

namespace h2h {
namespace {

using serve::ErrorCode;
using serve::WireError;
using serve::WireRequest;

[[nodiscard]] WireRequest parse_ok(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireRequest>(parsed)) << line;
  if (const WireError* err = std::get_if<WireError>(&parsed)) {
    ADD_FAILURE() << serve::to_string(err->code) << ": " << err->message;
    return {};
  }
  return std::get<WireRequest>(std::move(parsed));
}

[[nodiscard]] WireError parse_err(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireError>(parsed)) << line;
  if (!std::holds_alternative<WireError>(parsed)) return {};
  return std::get<WireError>(std::move(parsed));
}

TEST(ServeProtocol, ParsesMinimalRequestWithDefaults) {
  const WireRequest req =
      parse_ok(R"({"schema_version":1,"model":"mocap"})");
  EXPECT_EQ(req.model, ZooModel::MoCap);
  EXPECT_TRUE(req.id.empty());
  EXPECT_DOUBLE_EQ(req.bw_gbps, 0.5);
  EXPECT_EQ(req.batch, 0u);
  EXPECT_TRUE(req.options.run_remapping);
  EXPECT_TRUE(req.emit_mapping);
  EXPECT_TRUE(req.emit_steps);
  EXPECT_TRUE(req.emit_timing);
}

TEST(ServeProtocol, ParsesFullRequest) {
  const WireRequest req = parse_ok(
      R"({"schema_version":1,"id":"r-7","model":"vlocnet","bw_gbps":0.125,)"
      R"("batch":4,"options":{"remap":false,"knapsack":"greedy",)"
      R"("objective":"edp","time_budget_s":0.25},)"
      R"("emit":{"mapping":false,"timing":false}})");
  EXPECT_EQ(req.id, "r-7");
  EXPECT_EQ(req.model, ZooModel::VLocNet);
  EXPECT_DOUBLE_EQ(req.bw_gbps, 0.125);
  EXPECT_EQ(req.batch, 4u);
  EXPECT_FALSE(req.options.run_remapping);
  EXPECT_EQ(req.options.weight.algo, KnapsackAlgo::GreedyDensity);
  EXPECT_EQ(req.options.remap.objective,
            RemapObjective::EnergyDelayProduct);
  ASSERT_TRUE(req.options.time_budget_s.has_value());
  EXPECT_DOUBLE_EQ(*req.options.time_budget_s, 0.25);
  EXPECT_FALSE(req.emit_mapping);
  EXPECT_TRUE(req.emit_steps);
  EXPECT_FALSE(req.emit_timing);
}

TEST(ServeProtocol, RejectsMalformedJson) {
  EXPECT_EQ(parse_err("not json").code, ErrorCode::ParseError);
  EXPECT_EQ(parse_err("[1,2,3]").code, ErrorCode::ParseError);
  EXPECT_EQ(parse_err("").code, ErrorCode::ParseError);
}

TEST(ServeProtocol, RejectsMissingOrWrongSchemaVersion) {
  EXPECT_EQ(parse_err(R"({"model":"mocap"})").code,
            ErrorCode::SchemaVersion);
  EXPECT_EQ(parse_err(R"({"schema_version":2,"model":"mocap"})").code,
            ErrorCode::SchemaVersion);
  EXPECT_EQ(parse_err(R"({"schema_version":"1","model":"mocap"})").code,
            ErrorCode::SchemaVersion);
}

TEST(ServeProtocol, RejectsUnknownFieldsEverywhere) {
  const WireError top =
      parse_err(R"({"schema_version":1,"model":"mocap","modle":"x"})");
  EXPECT_EQ(top.code, ErrorCode::UnknownField);
  EXPECT_NE(top.message.find("modle"), std::string::npos);

  const WireError opt = parse_err(
      R"({"schema_version":1,"model":"mocap","options":{"remapp":true}})");
  EXPECT_EQ(opt.code, ErrorCode::UnknownField);

  // The CLI kebab-case spelling is not the wire spelling.
  const WireError cli_spelling = parse_err(
      R"({"schema_version":1,"model":"mocap",)"
      R"("options":{"time-budget":1}})");
  EXPECT_EQ(cli_spelling.code, ErrorCode::UnknownField);

  const WireError emit = parse_err(
      R"({"schema_version":1,"model":"mocap","emit":{"gantt":true}})");
  EXPECT_EQ(emit.code, ErrorCode::UnknownField);
}

TEST(ServeProtocol, RejectsBadFieldValuesAndEchoesId) {
  const WireError bw = parse_err(
      R"({"schema_version":1,"id":"q","model":"mocap","bw_gbps":-1})");
  EXPECT_EQ(bw.code, ErrorCode::BadField);
  EXPECT_EQ(bw.id, "q");

  EXPECT_EQ(parse_err(
                R"({"schema_version":1,"model":"mocap","batch":1.5})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(
                R"({"schema_version":1,"model":"mocap","batch":0})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("options":{"remap":"yes"}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("options":{"time_budget_s":-2}})")
                .code,
            ErrorCode::BadField);
}

TEST(ServeProtocol, AcceptsTheLargestScalableBandwidth) {
  // 1e299 GB/s is still finite in bytes/s; only the overflow is rejected.
  const auto parsed = serve::parse_any_request(
      R"({"schema_version":1,"model":"mocap","bw_gbps":1e299})");
  const auto* req = std::get_if<serve::WireRequest>(&parsed);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->bw_gbps, 1e299);
}

TEST(ServeProtocol, RejectsUnknownModelListingKnownKeys) {
  const WireError err =
      parse_err(R"({"schema_version":1,"model":"resnet"})");
  EXPECT_EQ(err.code, ErrorCode::UnknownModel);
  EXPECT_NE(err.message.find("mocap"), std::string::npos);
  EXPECT_NE(err.message.find("vlocnet"), std::string::npos);
}

/// One rejected request line and the exact (code, message, id) it earns.
struct PinnedRejection {
  const char* line;
  ErrorCode code;
  const char* message;
  const char* id;
};

// Every rejection the wire can give, byte for byte: at least one line per
// distinct check in serve/protocol.cpp, plus lines with several faults that
// pin which one wins (value checks in reading order, the root unknown-key
// check last; "repair" before "model"; "tenants" before "bw_gbps"; the
// bw_gbps/links conflict before either value).
TEST(ServeProtocol, EveryRejectionIsPinned) {
  // clang-format off
  const PinnedRejection kRows[] = {
      // Line level: not JSON, not an object.
      {R"(not json)",
       ErrorCode::ParseError, "byte 0: invalid literal", ""},
      {R"([1,2,3])",
       ErrorCode::ParseError, "request must be a JSON object", ""},
      {R"()",
       ErrorCode::ParseError, "byte 0: unexpected end of input", ""},
      {R"({"schema_version":1,"model":"mocap",})",
       ErrorCode::ParseError, "byte 36: expected object key", ""},
      {R"("just a string")",
       ErrorCode::ParseError, "request must be a JSON object", ""},
      // Head: id, then schema_version, before any schema field.
      {R"({"schema_version":1,"id":7,"model":"mocap"})",
       ErrorCode::BadField, "id: expected a string", ""},
      {R"({"id":"h1","model":"mocap"})",
       ErrorCode::SchemaVersion, "missing schema_version (this server speaks 1)", "h1"},
      {R"({"schema_version":2,"id":"h2","model":"mocap"})",
       ErrorCode::SchemaVersion, "unsupported schema_version (this server speaks 1)", "h2"},
      {R"({"schema_version":"1","id":"h3","model":"mocap"})",
       ErrorCode::SchemaVersion, "unsupported schema_version (this server speaks 1)", "h3"},
      {R"({"schema_version":1.5,"id":"h4"})",
       ErrorCode::SchemaVersion, "unsupported schema_version (this server speaks 1)", "h4"},
      {R"({"id":"h5","tenants":[]})",
       ErrorCode::SchemaVersion, "missing schema_version (this server speaks 1)", "h5"},
      {R"({"id":"h6","schema_version":0,"repair":{}})",
       ErrorCode::SchemaVersion, "unsupported schema_version (this server speaks 1)", "h6"},
      // Single-model schema: model.
      {R"({"schema_version":1,"id":"m1"})",
       ErrorCode::BadField, "model: expected a string zoo key (required)", "m1"},
      {R"({"schema_version":1,"id":"m2","model":3})",
       ErrorCode::BadField, "model: expected a string zoo key (required)", "m2"},
      {R"({"schema_version":1,"id":"m3","model":"resnet"})",
       ErrorCode::UnknownModel, "unknown model 'resnet' (known: vlocnet, casia-surf, vfs, facebag, cnn-lstm, mocap)", "m3"},
      // bw_gbps, and its conflict with links (checked before either value).
      {R"({"schema_version":1,"id":"b1","model":"mocap","bw_gbps":-1})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "b1"},
      {R"({"schema_version":1,"id":"b2","model":"mocap","bw_gbps":0})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "b2"},
      {R"({"schema_version":1,"id":"b3","model":"mocap","bw_gbps":"0.5"})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "b3"},
      {R"({"schema_version":1,"id":"b4","model":"mocap","bw_gbps":0.5,"links":{"shape":"uniform","bw_gbps":0.5}})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "b4"},
      {R"({"schema_version":1,"id":"b5","model":"mocap","bw_gbps":-1,"links":"x"})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "b5"},
      {R"({"schema_version":1,"id":"b6","model":"mocap","links":{"shape":"uniform","bw_gbps":0.5},"bw_gbps":"x"})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "b6"},
      // links: shape, the shape's known keys, then values; Interconnect's own checks last.
      {R"({"schema_version":1,"id":"l1","model":"mocap","links":"uniform"})",
       ErrorCode::BadField, "links: expected an object", "l1"},
      {R"({"schema_version":1,"id":"l2","model":"mocap","links":{"bw_gbps":0.5}})",
       ErrorCode::BadField, "links.shape: expected \"uniform\", \"mixed\", or \"hierarchical\" (required)", "l2"},
      {R"({"schema_version":1,"id":"l3","model":"mocap","links":{"shape":1}})",
       ErrorCode::BadField, "links.shape: expected \"uniform\", \"mixed\", or \"hierarchical\" (required)", "l3"},
      {R"({"schema_version":1,"id":"l4","model":"mocap","links":{"shape":"ring","bw_gbps":0.5}})",
       ErrorCode::BadField, "links.shape: unknown shape 'ring'", "l4"},
      {R"({"schema_version":1,"id":"l5","model":"mocap","links":{"shape":"uniform","bw_gbps":0.5,"latency":1}})",
       ErrorCode::UnknownField, "links.latency: unknown field for shape uniform", "l5"},
      {R"({"schema_version":1,"id":"l6","model":"mocap","links":{"shape":"uniform","bw_gbps":0.5,"group_size":4}})",
       ErrorCode::UnknownField, "links.group_size: unknown field for shape uniform", "l6"},
      {R"({"schema_version":1,"id":"l7","model":"mocap","links":{"shape":"hierarchical","bw_gbps":0.5}})",
       ErrorCode::UnknownField, "links.bw_gbps: unknown field for shape hierarchical", "l7"},
      {R"({"schema_version":1,"id":"l8","model":"mocap","links":{"shape":"mixed","group_size":4}})",
       ErrorCode::UnknownField, "links.group_size: unknown field for shape mixed", "l8"},
      {R"({"schema_version":1,"id":"l9","model":"mocap","links":{"shape":"uniform"}})",
       ErrorCode::BadField, "links.bw_gbps: required for this shape", "l9"},
      {R"({"schema_version":1,"id":"l10","model":"mocap","links":{"shape":"uniform","bw_gbps":"0.5"}})",
       ErrorCode::BadField, "links.bw_gbps: expected a number", "l10"},
      {R"({"schema_version":1,"id":"l11","model":"mocap","links":{"shape":"uniform","bw_gbps":0}})",
       ErrorCode::BadField, "links: interconnect: uniform bandwidth must be > 0", "l11"},
      {R"({"schema_version":1,"id":"l12","model":"mocap","links":{"shape":"mixed"}})",
       ErrorCode::BadField, "links.bw_gbps: required for this shape", "l12"},
      {R"({"schema_version":1,"id":"l13","model":"mocap","links":{"shape":"mixed","bw_gbps":true}})",
       ErrorCode::BadField, "links.bw_gbps: expected a number", "l13"},
      {R"({"schema_version":1,"id":"l14","model":"mocap","links":{"shape":"mixed","bw_gbps":-0.5}})",
       ErrorCode::BadField, "links: interconnect: mixed default bandwidth must be > 0", "l14"},
      {R"({"schema_version":1,"id":"l15","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":{}}})",
       ErrorCode::BadField, "links.overrides: expected an array", "l15"},
      {R"({"schema_version":1,"id":"l16","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[3]}})",
       ErrorCode::BadField, "links.overrides: expected objects with acc, bw_gbps", "l16"},
      {R"({"schema_version":1,"id":"l17","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":0,"bw":1}]}})",
       ErrorCode::UnknownField, "links.overrides.bw: unknown field", "l17"},
      {R"({"schema_version":1,"id":"l18","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"bw_gbps":1}]}})",
       ErrorCode::BadField, "links.overrides.acc: expected a non-negative integer (required)", "l18"},
      {R"({"schema_version":1,"id":"l19","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":-1,"bw_gbps":1}]}})",
       ErrorCode::BadField, "links.overrides.acc: expected a non-negative integer (required)", "l19"},
      {R"({"schema_version":1,"id":"l20","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":1.5,"bw_gbps":1}]}})",
       ErrorCode::BadField, "links.overrides.acc: expected a non-negative integer (required)", "l20"},
      {R"({"schema_version":1,"id":"l21","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":4294967296,"bw_gbps":1}]}})",
       ErrorCode::BadField, "links.overrides.acc: expected a non-negative integer (required)", "l21"},
      {R"({"schema_version":1,"id":"l22","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":0}]}})",
       ErrorCode::BadField, "links.overrides.bw_gbps: expected a number (required)", "l22"},
      {R"({"schema_version":1,"id":"l23","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":0,"bw_gbps":"1"}]}})",
       ErrorCode::BadField, "links.overrides.bw_gbps: expected a number (required)", "l23"},
      {R"({"schema_version":1,"id":"l24","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":0,"bw_gbps":0}]}})",
       ErrorCode::BadField, "links: interconnect: uplink override for acc 0 must be > 0", "l24"},
      {R"({"schema_version":1,"id":"l25","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":1,"bw_gbps":1},{"acc":1,"bw_gbps":2}]}})",
       ErrorCode::BadField, "links: interconnect: duplicate uplink override for acc 1", "l25"},
      {R"({"schema_version":1,"id":"l26","model":"mocap","links":{"shape":"mixed","overrides":[{"acc":-1}]}})",
       ErrorCode::BadField, "links.bw_gbps: required for this shape", "l26"},
      {R"({"schema_version":1,"id":"l27","model":"mocap","links":{"shape":"hierarchical","intra_gbps":1.25,"uplink_gbps":0.25}})",
       ErrorCode::BadField, "links.group_size: expected a positive integer (required)", "l27"},
      {R"({"schema_version":1,"id":"l28","model":"mocap","links":{"shape":"hierarchical","group_size":0,"intra_gbps":1.25,"uplink_gbps":0.25}})",
       ErrorCode::BadField, "links.group_size: expected a positive integer (required)", "l28"},
      {R"({"schema_version":1,"id":"l29","model":"mocap","links":{"shape":"hierarchical","group_size":4294967299,"intra_gbps":1.25,"uplink_gbps":0.25}})",
       ErrorCode::BadField, "links.group_size: expected a positive integer (required)", "l29"},
      {R"({"schema_version":1,"id":"l30","model":"mocap","links":{"shape":"hierarchical","group_size":4,"uplink_gbps":0.25}})",
       ErrorCode::BadField, "links.intra_gbps: required for this shape", "l30"},
      {R"({"schema_version":1,"id":"l31","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25}})",
       ErrorCode::BadField, "links.uplink_gbps: required for this shape", "l31"},
      {R"({"schema_version":1,"id":"l32","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":"1","uplink_gbps":0.25}})",
       ErrorCode::BadField, "links.intra_gbps: expected a number", "l32"},
      {R"({"schema_version":1,"id":"l33","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,"uplink_gbps":0.25,"host_gbps":"x"}})",
       ErrorCode::BadField, "links.host_gbps: expected a number", "l33"},
      {R"({"schema_version":1,"id":"l34","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,"uplink_gbps":0.25,"hop_latency_us":null}})",
       ErrorCode::BadField, "links.hop_latency_us: expected a number", "l34"},
      {R"({"schema_version":1,"id":"l35","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":0,"uplink_gbps":0.25}})",
       ErrorCode::BadField, "links: interconnect: hierarchical intra/uplink bandwidths must be > 0", "l35"},
      {R"({"schema_version":1,"id":"l36","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,"uplink_gbps":0.25,"host_gbps":-1}})",
       ErrorCode::BadField, "links: interconnect: hierarchical host bandwidth must be >= 0", "l36"},
      {R"({"schema_version":1,"id":"l37","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,"uplink_gbps":0.25,"hop_latency_us":-2}})",
       ErrorCode::BadField, "links: interconnect: hop latency must be >= 0", "l37"},
      {R"({"schema_version":1,"id":"l38","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":"x","uplink_gbps":"y"}})",
       ErrorCode::BadField, "links.intra_gbps: expected a number", "l38"},
      {R"({"schema_version":1,"id":"l39","model":"mocap","links":{"group_size":4,"shape":"hierarchical","bogus":1,"intra_gbps":"x"}})",
       ErrorCode::UnknownField, "links.bogus: unknown field for shape hierarchical", "l39"},
      // batch.
      {R"({"schema_version":1,"id":"a1","model":"mocap","batch":0})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "a1"},
      {R"({"schema_version":1,"id":"a2","model":"mocap","batch":1.5})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "a2"},
      {R"({"schema_version":1,"id":"a3","model":"mocap","batch":4097})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "a3"},
      {R"({"schema_version":1,"id":"a4","model":"mocap","batch":"2"})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "a4"},
      {R"({"schema_version":1,"id":"a5","model":"mocap","batch":4294967297})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "a5"},
      // options: per member, unknown option before type before value.
      {R"({"schema_version":1,"id":"o1","model":"mocap","options":[]})",
       ErrorCode::BadField, "options: expected an object", "o1"},
      {R"({"schema_version":1,"id":"o2","model":"mocap","options":{"remapp":true}})",
       ErrorCode::UnknownField, "options.remapp: unknown option", "o2"},
      {R"({"schema_version":1,"id":"o3","model":"mocap","options":{"time-budget":1}})",
       ErrorCode::UnknownField, "options.time-budget: unknown option", "o3"},
      {R"({"schema_version":1,"id":"o4","model":"mocap","options":{"remap":"yes"}})",
       ErrorCode::BadField, "options.remap: expected a boolean", "o4"},
      {R"({"schema_version":1,"id":"o5","model":"mocap","options":{"time_budget_s":"1"}})",
       ErrorCode::BadField, "options.time_budget_s: expected a number", "o5"},
      {R"({"schema_version":1,"id":"o6","model":"mocap","options":{"knapsack":1}})",
       ErrorCode::BadField, "options.knapsack: expected one of exact|greedy", "o6"},
      {R"({"schema_version":1,"id":"o7","model":"mocap","options":{"knapsack":"bogus"}})",
       ErrorCode::BadField, "options.knapsack: expected 'exact' or 'greedy', got 'bogus'", "o7"},
      {R"({"schema_version":1,"id":"o8","model":"mocap","options":{"time_budget_s":-2}})",
       ErrorCode::BadField, "options.time_budget_s: expected a positive number of seconds, got '-2'", "o8"},
      {R"({"schema_version":1,"id":"o9","model":"mocap","options":{"remap":1,"bogus":true}})",
       ErrorCode::BadField, "options.remap: expected a boolean", "o9"},
      {R"({"schema_version":1,"id":"o10","model":"mocap","options":{"bogus":1,"remap":1}})",
       ErrorCode::UnknownField, "options.bogus: unknown option", "o10"},
      {R"({"schema_version":1,"id":"o11","model":"mocap","options":{"objective":"speed"}})",
       ErrorCode::BadField, "options.objective: expected 'latency' or 'edp', got 'speed'", "o11"},
      // emit: per member, unknown key and type interleaved.
      {R"({"schema_version":1,"id":"e1","model":"mocap","emit":true})",
       ErrorCode::BadField, "emit: expected an object", "e1"},
      {R"({"schema_version":1,"id":"e2","model":"mocap","emit":{"gantt":true}})",
       ErrorCode::UnknownField, "emit.gantt: unknown field (valid: mapping, steps, timing)", "e2"},
      {R"({"schema_version":1,"id":"e3","model":"mocap","emit":{"steps":"yes"}})",
       ErrorCode::BadField, "emit.steps: expected a boolean", "e3"},
      {R"({"schema_version":1,"id":"e4","model":"mocap","emit":{"timing":false,"mapping":1,"gantt":true}})",
       ErrorCode::BadField, "emit.mapping: expected a boolean", "e4"},
      {R"({"schema_version":1,"id":"e5","model":"mocap","emit":{"gantt":1,"mapping":1}})",
       ErrorCode::UnknownField, "emit.gantt: unknown field (valid: mapping, steps, timing)", "e5"},
      // Root unknown keys, including other schemas' fields.
      {R"({"schema_version":1,"id":"u1","model":"mocap","modle":"x"})",
       ErrorCode::UnknownField, "modle: unknown field", "u1"},
      {R"({"schema_version":1,"id":"u2","model":"mocap","tenant":[]})",
       ErrorCode::UnknownField, "tenant: unknown field", "u2"},
      {R"({"schema_version":1,"id":"u3","model":"mocap","max_rounds":1})",
       ErrorCode::UnknownField, "max_rounds: unknown field", "u3"},
      {R"({"schema_version":1,"id":"u4","model":"mocap","fallback_ratio":1})",
       ErrorCode::UnknownField, "fallback_ratio: unknown field", "u4"},
      // Precedence: value checks in reading order, the root unknown-key check last; id echoed wherever it sits.
      {R"({"zzz":1,"schema_version":1,"id":"p1","model":"mocap","batch":0})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "p1"},
      {R"({"schema_version":1,"id":"p2","zzz":1,"model":"nope"})",
       ErrorCode::UnknownModel, "unknown model 'nope' (known: vlocnet, casia-surf, vfs, facebag, cnn-lstm, mocap)", "p2"},
      {R"({"schema_version":1,"id":"p3","model":"mocap","emit":{"x":1},"options":{"y":1},"batch":0,"links":{},"bw_gbps":0})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "p3"},
      {R"({"schema_version":1,"id":"p4","model":"mocap","emit":{"x":1},"options":{"y":1},"batch":0,"links":{}})",
       ErrorCode::BadField, "links.shape: expected \"uniform\", \"mixed\", or \"hierarchical\" (required)", "p4"},
      {R"({"schema_version":1,"id":"p5","model":"mocap","emit":{"x":1},"options":{"y":1},"batch":0})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "p5"},
      {R"({"schema_version":1,"id":"p6","model":"mocap","emit":{"x":1},"options":{"y":1}})",
       ErrorCode::UnknownField, "options.y: unknown option", "p6"},
      {R"({"schema_version":1,"id":"p7","model":"nope","bw_gbps":0})",
       ErrorCode::UnknownModel, "unknown model 'nope' (known: vlocnet, casia-surf, vfs, facebag, cnn-lstm, mocap)", "p7"},
      {R"({"model":"mocap","id":"p8","schema_version":1,"bw_gbps":0})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "p8"},
      {R"({"schema_version":1,"model":"mocap","bw_gbps":0,"id":"p9"})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "p9"},
      // Tenants schema: the array, each entry (known keys, name, duplicates, model, slo_s, priority, caps), then root fields in order.
      {R"({"schema_version":1,"id":"t1","tenants":[]})",
       ErrorCode::BadField, "tenants: expected a non-empty array (required)", "t1"},
      {R"({"schema_version":1,"id":"t2","tenants":"a=mocap"})",
       ErrorCode::BadField, "tenants: expected a non-empty array (required)", "t2"},
      {R"({"schema_version":1,"id":"t3","tenants":null})",
       ErrorCode::BadField, "tenants: expected a non-empty array (required)", "t3"},
      {R"({"schema_version":1,"id":"t4","tenants":[42]})",
       ErrorCode::BadField, "tenants: expected objects with name, model", "t4"},
      {R"({"schema_version":1,"id":"t5","tenants":[{"name":"a","model":"mocap","slo":0.01}]})",
       ErrorCode::UnknownField, "tenants.slo: unknown field", "t5"},
      {R"({"schema_version":1,"id":"t6","tenants":[{"model":"mocap"}]})",
       ErrorCode::BadField, "tenants.name: expected a non-empty string without '/' (required)", "t6"},
      {R"({"schema_version":1,"id":"t7","tenants":[{"name":"","model":"mocap"}]})",
       ErrorCode::BadField, "tenants.name: expected a non-empty string without '/' (required)", "t7"},
      {R"({"schema_version":1,"id":"t8","tenants":[{"name":"a/b","model":"mocap"}]})",
       ErrorCode::BadField, "tenants.name: expected a non-empty string without '/' (required)", "t8"},
      {R"({"schema_version":1,"id":"t9","tenants":[{"name":3,"model":"mocap"}]})",
       ErrorCode::BadField, "tenants.name: expected a non-empty string without '/' (required)", "t9"},
      {R"({"schema_version":1,"id":"t10","tenants":[{"name":"a","model":"mocap"},{"name":"a","model":"vfs"}]})",
       ErrorCode::BadField, "tenants.name: duplicate tenant name 'a'", "t10"},
      {R"({"schema_version":1,"id":"t11","tenants":[{"name":"a"}]})",
       ErrorCode::BadField, "tenants.model: expected a string zoo key (required)", "t11"},
      {R"({"schema_version":1,"id":"t12","tenants":[{"name":"a","model":false}]})",
       ErrorCode::BadField, "tenants.model: expected a string zoo key (required)", "t12"},
      {R"({"schema_version":1,"id":"t13","tenants":[{"name":"a","model":"resnet"}]})",
       ErrorCode::UnknownModel, "unknown model 'resnet' (known: vlocnet, casia-surf, vfs, facebag, cnn-lstm, mocap)", "t13"},
      {R"({"schema_version":1,"id":"t14","tenants":[{"name":"a","model":"mocap","slo_s":0}]})",
       ErrorCode::BadField, "tenants.slo_s: expected a positive number", "t14"},
      {R"({"schema_version":1,"id":"t15","tenants":[{"name":"a","model":"mocap","slo_s":"1"}]})",
       ErrorCode::BadField, "tenants.slo_s: expected a positive number", "t15"},
      {R"({"schema_version":1,"id":"t16","tenants":[{"name":"a","model":"mocap","priority":0}]})",
       ErrorCode::BadField, "tenants.priority: expected an integer in [1, 1000000]", "t16"},
      {R"({"schema_version":1,"id":"t17","tenants":[{"name":"a","model":"mocap","priority":1000001}]})",
       ErrorCode::BadField, "tenants.priority: expected an integer in [1, 1000000]", "t17"},
      {R"({"schema_version":1,"id":"t18","tenants":[{"name":"a","model":"mocap","priority":2.5}]})",
       ErrorCode::BadField, "tenants.priority: expected an integer in [1, 1000000]", "t18"},
      {R"({"schema_version":1,"id":"t19","tenants":[{"name":"a","model":"mocap","caps":3}]})",
       ErrorCode::BadField, "tenants.caps: expected a capability-spec string", "t19"},
      {R"({"schema_version":1,"id":"t20","tenants":[{"name":"a","model":"mocap","caps":"warp"}]})",
       ErrorCode::BadField, "tenants.caps: capability spec: unknown token 'warp' (named: conv, fc, lstm, bigmem, fastmem; or a 0x/decimal bit literal)", "t20"},
      {R"({"schema_version":1,"id":"t21","tenants":[{"name":"a","model":"mocap"}],"bw_gbps":0})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "t21"},
      {R"({"schema_version":1,"id":"t22","tenants":[{"name":"a","model":"mocap"}],"options":"fast"})",
       ErrorCode::BadField, "options: expected an object", "t22"},
      {R"({"schema_version":1,"id":"t23","tenants":[{"name":"a","model":"mocap"}],"options":{"remapp":true}})",
       ErrorCode::UnknownField, "options.remapp: unknown option", "t23"},
      {R"({"schema_version":1,"id":"t24","tenants":[{"name":"a","model":"mocap"}],"options":{"remap":0}})",
       ErrorCode::BadField, "options.remap: expected a boolean", "t24"},
      {R"({"schema_version":1,"id":"t25","tenants":[{"name":"a","model":"mocap"}],"max_rounds":-1})",
       ErrorCode::BadField, "max_rounds: expected an integer in [0, 64]", "t25"},
      {R"({"schema_version":1,"id":"t26","tenants":[{"name":"a","model":"mocap"}],"max_rounds":65})",
       ErrorCode::BadField, "max_rounds: expected an integer in [0, 64]", "t26"},
      {R"({"schema_version":1,"id":"t27","tenants":[{"name":"a","model":"mocap"}],"steal_round":1})",
       ErrorCode::BadField, "steal_round: expected a boolean", "t27"},
      {R"({"schema_version":1,"id":"t28","tenants":[{"name":"a","model":"mocap"}],"require_slos":"no"})",
       ErrorCode::BadField, "require_slos: expected a boolean", "t28"},
      {R"({"schema_version":1,"id":"t29","tenants":[{"name":"a","model":"mocap"}],"emit":[]})",
       ErrorCode::BadField, "emit: expected an object", "t29"},
      {R"({"schema_version":1,"id":"t30","tenants":[{"name":"a","model":"mocap"}],"emit":{"steps":true}})",
       ErrorCode::UnknownField, "emit.steps: unknown field (valid: mapping)", "t30"},
      {R"({"schema_version":1,"id":"t31","tenants":[{"name":"a","model":"mocap"}],"emit":{"mapping":"no"}})",
       ErrorCode::BadField, "emit.mapping: expected a boolean", "t31"},
      {R"({"schema_version":1,"id":"t32","tenants":[{"name":"a","model":"mocap"}],"batch":2})",
       ErrorCode::UnknownField, "batch: unknown field", "t32"},
      {R"({"schema_version":1,"id":"t33","tenants":[{"name":"a","model":"mocap"}],"links":{"shape":"uniform","bw_gbps":1}})",
       ErrorCode::UnknownField, "links: unknown field", "t33"},
      {R"({"schema_version":1,"id":"t34","tenants":[{"name":"a","model":"mocap"}],"model":"mocap"})",
       ErrorCode::UnknownField, "model: unknown field", "t34"},
      {R"({"schema_version":1,"id":"t35","tenants":[{"name":"a","model":"mocap"}],"repair":{"event":"acc_lost","acc":0}})",
       ErrorCode::UnknownField, "repair: unknown field", "t35"},
      {R"({"schema_version":1,"id":"t36","model":"mocap","repair":{"event":"acc_lost","acc":0},"tenants":[]})",
       ErrorCode::BadField, "tenants: expected a non-empty array (required)", "t36"},
      {R"({"schema_version":1,"id":"t37","tenants":[{"name":"a","model":"nope","x":1}]})",
       ErrorCode::UnknownField, "tenants.x: unknown field", "t37"},
      {R"({"schema_version":1,"id":"t38","tenants":[{"name":"a/","model":"nope"}]})",
       ErrorCode::BadField, "tenants.name: expected a non-empty string without '/' (required)", "t38"},
      {R"({"schema_version":1,"id":"t39","tenants":[{"name":"a","model":"mocap"},{"name":"a","model":"nope"}]})",
       ErrorCode::BadField, "tenants.name: duplicate tenant name 'a'", "t39"},
      {R"({"schema_version":1,"id":"t40","tenants":[{"name":"a","model":"mocap","slo_s":-1,"priority":0,"caps":"warp"}]})",
       ErrorCode::BadField, "tenants.slo_s: expected a positive number", "t40"},
      {R"({"schema_version":1,"id":"t41","tenants":[{"name":"a","model":"mocap","priority":0,"caps":"warp"}]})",
       ErrorCode::BadField, "tenants.priority: expected an integer in [1, 1000000]", "t41"},
      {R"({"schema_version":1,"id":"t42","tenants":[{"name":"a","model":"mocap"},7],"bw_gbps":0})",
       ErrorCode::BadField, "tenants: expected objects with name, model", "t42"},
      {R"({"schema_version":1,"id":"t43","tenants":[{"name":"a","model":"mocap"}],"zzz":1,"bw_gbps":0,"options":{"x":1},"max_rounds":99,"steal_round":0,"require_slos":0,"emit":{"x":1}})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "t43"},
      {R"({"schema_version":1,"id":"t44","tenants":[{"name":"a","model":"mocap"}],"zzz":1,"options":{"x":1},"max_rounds":99,"steal_round":0,"require_slos":0,"emit":{"x":1}})",
       ErrorCode::UnknownField, "options.x: unknown option", "t44"},
      {R"({"schema_version":1,"id":"t45","tenants":[{"name":"a","model":"mocap"}],"zzz":1,"max_rounds":99,"steal_round":0,"require_slos":0,"emit":{"x":1}})",
       ErrorCode::BadField, "max_rounds: expected an integer in [0, 64]", "t45"},
      {R"({"schema_version":1,"id":"t46","tenants":[{"name":"a","model":"mocap"}],"zzz":1,"steal_round":0,"require_slos":0,"emit":{"x":1}})",
       ErrorCode::BadField, "steal_round: expected a boolean", "t46"},
      {R"({"schema_version":1,"id":"t47","tenants":[{"name":"a","model":"mocap"}],"zzz":1,"require_slos":0,"emit":{"x":1}})",
       ErrorCode::BadField, "require_slos: expected a boolean", "t47"},
      {R"({"schema_version":1,"id":"t48","tenants":[{"name":"a","model":"mocap"}],"zzz":1,"emit":{"x":1}})",
       ErrorCode::UnknownField, "emit.x: unknown field (valid: mapping)", "t48"},
      {R"({"schema_version":1,"id":"t49","tenants":[{"name":"a","model":"mocap"}],"zzz":1})",
       ErrorCode::UnknownField, "zzz: unknown field", "t49"},
      // Repair schema: the event before the session key, then fallback_ratio, emit, root unknown keys.
      {R"({"schema_version":1,"id":"r1","model":"mocap","repair":"acc_lost"})",
       ErrorCode::BadField, "repair: expected an object", "r1"},
      {R"({"schema_version":1,"id":"r2","model":"mocap","repair":{"event":"acc_lost","acc":0,"when":1}})",
       ErrorCode::UnknownField, "repair.when: unknown field (valid: event, acc, scale)", "r2"},
      {R"({"schema_version":1,"id":"r3","model":"mocap","repair":{"acc":0}})",
       ErrorCode::BadField, "repair.event: expected a string fault kind (required)", "r3"},
      {R"({"schema_version":1,"id":"r4","model":"mocap","repair":{"event":2,"acc":0}})",
       ErrorCode::BadField, "repair.event: expected a string fault kind (required)", "r4"},
      {R"({"schema_version":1,"id":"r5","model":"mocap","repair":{"event":"acc_exploded","acc":0}})",
       ErrorCode::BadField, "repair.event: unknown fault kind 'acc_exploded' (valid: acc_lost, acc_returned, link_degraded, link_restored, spec_derated)", "r5"},
      {R"({"schema_version":1,"id":"r6","model":"mocap","repair":{"event":"acc_lost"}})",
       ErrorCode::BadField, "repair.acc: expected a non-negative integer (required)", "r6"},
      {R"({"schema_version":1,"id":"r7","model":"mocap","repair":{"event":"acc_lost","acc":-1}})",
       ErrorCode::BadField, "repair.acc: expected a non-negative integer (required)", "r7"},
      {R"({"schema_version":1,"id":"r8","model":"mocap","repair":{"event":"acc_lost","acc":4294967296}})",
       ErrorCode::BadField, "repair.acc: expected a non-negative integer (required)", "r8"},
      {R"({"schema_version":1,"id":"r9","model":"mocap","repair":{"event":"link_degraded","acc":0}})",
       ErrorCode::BadField, "repair.scale: expected a number in (0, 1] (required for link_degraded)", "r9"},
      {R"({"schema_version":1,"id":"r10","model":"mocap","repair":{"event":"link_degraded","acc":0,"scale":0}})",
       ErrorCode::BadField, "repair.scale: expected a number in (0, 1] (required for link_degraded)", "r10"},
      {R"({"schema_version":1,"id":"r11","model":"mocap","repair":{"event":"spec_derated","acc":0,"scale":1.5}})",
       ErrorCode::BadField, "repair.scale: expected a number in (0, 1] (required for spec_derated)", "r11"},
      {R"({"schema_version":1,"id":"r12","model":"mocap","repair":{"event":"spec_derated","acc":0,"scale":"0.5"}})",
       ErrorCode::BadField, "repair.scale: expected a number in (0, 1] (required for spec_derated)", "r12"},
      {R"({"schema_version":1,"id":"r13","model":"mocap","repair":{"event":"acc_lost","acc":0,"scale":0.5}})",
       ErrorCode::BadField, "repair.scale: not allowed for acc_lost", "r13"},
      {R"({"schema_version":1,"id":"r14","model":"mocap","repair":{"event":"link_restored","acc":0,"scale":1}})",
       ErrorCode::BadField, "repair.scale: not allowed for link_restored", "r14"},
      {R"({"schema_version":1,"id":"r15","repair":{"event":"acc_lost","acc":0}})",
       ErrorCode::BadField, "model: expected a string zoo key (required)", "r15"},
      {R"({"schema_version":1,"id":"r16","model":1,"repair":{"event":"acc_lost","acc":0}})",
       ErrorCode::BadField, "model: expected a string zoo key (required)", "r16"},
      {R"({"schema_version":1,"id":"r17","model":"nope","repair":{"event":"acc_lost","acc":0}})",
       ErrorCode::UnknownModel, "unknown model 'nope' (known: vlocnet, casia-surf, vfs, facebag, cnn-lstm, mocap)", "r17"},
      {R"({"schema_version":1,"id":"r18","model":"mocap","repair":{"event":"acc_lost","acc":0},"bw_gbps":0.5,"links":{"shape":"uniform","bw_gbps":0.5}})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "r18"},
      {R"({"schema_version":1,"id":"r19","model":"mocap","repair":{"event":"acc_lost","acc":0},"bw_gbps":0})",
       ErrorCode::BadField, "bw_gbps: expected a positive number", "r19"},
      {R"({"schema_version":1,"id":"r20","model":"mocap","repair":{"event":"acc_lost","acc":0},"links":5})",
       ErrorCode::BadField, "links: expected an object", "r20"},
      {R"({"schema_version":1,"id":"r21","model":"mocap","repair":{"event":"acc_lost","acc":0},"links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":0,"bw_gbps":1,"x":2}]}})",
       ErrorCode::UnknownField, "links.overrides.x: unknown field", "r21"},
      {R"({"schema_version":1,"id":"r22","model":"mocap","repair":{"event":"acc_lost","acc":0},"batch":0})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "r22"},
      {R"({"schema_version":1,"id":"r23","model":"mocap","repair":{"event":"acc_lost","acc":0},"options":1})",
       ErrorCode::BadField, "options: expected an object", "r23"},
      {R"({"schema_version":1,"id":"r24","model":"mocap","repair":{"event":"acc_lost","acc":0},"options":{"knapsack":"fast"}})",
       ErrorCode::BadField, "options.knapsack: expected 'exact' or 'greedy', got 'fast'", "r24"},
      {R"({"schema_version":1,"id":"r25","model":"mocap","repair":{"event":"acc_lost","acc":0},"fallback_ratio":-0.1})",
       ErrorCode::BadField, "fallback_ratio: expected a non-negative number", "r25"},
      {R"({"schema_version":1,"id":"r26","model":"mocap","repair":{"event":"acc_lost","acc":0},"fallback_ratio":"1"})",
       ErrorCode::BadField, "fallback_ratio: expected a non-negative number", "r26"},
      {R"({"schema_version":1,"id":"r27","model":"mocap","repair":{"event":"acc_lost","acc":0},"emit":0})",
       ErrorCode::BadField, "emit: expected an object", "r27"},
      {R"({"schema_version":1,"id":"r28","model":"mocap","repair":{"event":"acc_lost","acc":0},"emit":{"steps":true}})",
       ErrorCode::UnknownField, "emit.steps: unknown field (valid: mapping, timing)", "r28"},
      {R"({"schema_version":1,"id":"r29","model":"mocap","repair":{"event":"acc_lost","acc":0},"emit":{"timing":"no"}})",
       ErrorCode::BadField, "emit.timing: expected a boolean", "r29"},
      {R"({"schema_version":1,"id":"r30","model":"mocap","repair":{"event":"acc_lost","acc":0},"max_rounds":1})",
       ErrorCode::UnknownField, "max_rounds: unknown field", "r30"},
      {R"({"schema_version":1,"id":"r31","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1})",
       ErrorCode::UnknownField, "zzz: unknown field", "r31"},
      {R"({"schema_version":1,"id":"r32","repair":{"event":"x"}})",
       ErrorCode::BadField, "repair.event: unknown fault kind 'x' (valid: acc_lost, acc_returned, link_degraded, link_restored, spec_derated)", "r32"},
      {R"({"schema_version":1,"id":"r33","model":"nope","repair":{"event":"acc_lost","acc":0,"x":1}})",
       ErrorCode::UnknownField, "repair.x: unknown field (valid: event, acc, scale)", "r33"},
      {R"({"schema_version":1,"id":"r34","model":"mocap","repair":{"x":1,"event":5}})",
       ErrorCode::UnknownField, "repair.x: unknown field (valid: event, acc, scale)", "r34"},
      {R"({"schema_version":1,"id":"r35","model":"mocap","repair":{"event":"link_degraded","acc":-1,"scale":7}})",
       ErrorCode::BadField, "repair.acc: expected a non-negative integer (required)", "r35"},
      {R"({"schema_version":1,"id":"r36","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1,"bw_gbps":-1,"links":7,"batch":0,"options":{"x":1},"fallback_ratio":-1,"emit":{"x":1}})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "r36"},
      {R"({"schema_version":1,"id":"r37","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1,"links":7,"batch":0,"options":{"x":1},"fallback_ratio":-1,"emit":{"x":1}})",
       ErrorCode::BadField, "links: expected an object", "r37"},
      {R"({"schema_version":1,"id":"r38","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1,"batch":0,"options":{"x":1},"fallback_ratio":-1,"emit":{"x":1}})",
       ErrorCode::BadField, "batch: expected an integer in [1, 4096]", "r38"},
      {R"({"schema_version":1,"id":"r39","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1,"options":{"x":1},"fallback_ratio":-1,"emit":{"x":1}})",
       ErrorCode::UnknownField, "options.x: unknown option", "r39"},
      {R"({"schema_version":1,"id":"r40","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1,"fallback_ratio":-1,"emit":{"x":1}})",
       ErrorCode::BadField, "fallback_ratio: expected a non-negative number", "r40"},
      {R"({"schema_version":1,"id":"r41","model":"mocap","repair":{"event":"acc_lost","acc":0},"zzz":1,"emit":{"x":1}})",
       ErrorCode::UnknownField, "emit.x: unknown field (valid: mapping, timing)", "r41"},
      {R"({"schema_version":1,"id":"r42","model":"mocap","repair":{"event":"acc_lost","acc":0},"bw_gbps":"x","links":"y"})",
       ErrorCode::BadField, "bw_gbps: conflicts with links (the topology's base bandwidth is the scalar view; send one or the other)", "r42"},
      {R"({"schema_version":1,"id":"r43","model":"mocap","repair":null})",
       ErrorCode::BadField, "repair: expected an object", "r43"},
      {R"({"schema_version":1,"model":"mocap","repair":{"event":"acc_lost","acc":0},"tenants":[{"name":"a","model":"mocap"}]})",
       ErrorCode::UnknownField, "model: unknown field", ""},
      // A *_gbps value whose bytes/s (x 1e9) is not finite, in every schema and links shape.
      {R"({"schema_version":1,"id":"g1","model":"mocap","bw_gbps":1e300})",
       ErrorCode::BadField, "bw_gbps: expected a bandwidth finite in bytes/s", "g1"},
      {R"({"schema_version":1,"id":"g2","model":"mocap","links":{"shape":"uniform","bw_gbps":1e300}})",
       ErrorCode::BadField, "links.bw_gbps: expected a bandwidth finite in bytes/s", "g2"},
      {R"({"schema_version":1,"id":"g3","model":"mocap","links":{"shape":"mixed","bw_gbps":-1e300}})",
       ErrorCode::BadField, "links.bw_gbps: expected a bandwidth finite in bytes/s", "g3"},
      {R"({"schema_version":1,"id":"g4","model":"mocap","links":{"shape":"mixed","bw_gbps":0.5,"overrides":[{"acc":0,"bw_gbps":1e300}]}})",
       ErrorCode::BadField, "links.overrides.bw_gbps: expected a bandwidth finite in bytes/s (required)", "g4"},
      {R"({"schema_version":1,"id":"g5","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1e300,"uplink_gbps":0.25}})",
       ErrorCode::BadField, "links.intra_gbps: expected a bandwidth finite in bytes/s", "g5"},
      {R"({"schema_version":1,"id":"g6","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,"uplink_gbps":1e300}})",
       ErrorCode::BadField, "links.uplink_gbps: expected a bandwidth finite in bytes/s", "g6"},
      {R"({"schema_version":1,"id":"g7","model":"mocap","links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,"uplink_gbps":0.25,"host_gbps":1e300}})",
       ErrorCode::BadField, "links.host_gbps: expected a bandwidth finite in bytes/s", "g7"},
      {R"({"schema_version":1,"id":"g8","tenants":[{"name":"a","model":"mocap"}],"bw_gbps":1e300})",
       ErrorCode::BadField, "bw_gbps: expected a bandwidth finite in bytes/s", "g8"},
      {R"({"schema_version":1,"id":"g9","model":"mocap","repair":{"event":"acc_lost","acc":0},"bw_gbps":1.8e299})",
       ErrorCode::BadField, "bw_gbps: expected a bandwidth finite in bytes/s", "g9"},
  };
  // clang-format on
  for (const PinnedRejection& row : kRows) {
    SCOPED_TRACE(row.line);
    const auto parsed = serve::parse_any_request(row.line);
    const WireError* err = std::get_if<WireError>(&parsed);
    ASSERT_NE(err, nullptr);
    EXPECT_EQ(serve::to_string(err->code), serve::to_string(row.code));
    EXPECT_EQ(err->message, row.message);
    EXPECT_EQ(err->id, row.id);
  }
}

TEST(ServeProtocol, ErrorResponsesAreVersionedJson) {
  const std::string line = serve::write_error(
      {ErrorCode::UnknownField, "bogus: unknown field", "r1"});
  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  EXPECT_DOUBLE_EQ(obj.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(obj.find("id")->as_string(), "r1");
  EXPECT_FALSE(obj.find("ok")->as_bool());
  const json::Object& error = obj.find("error")->as_object();
  EXPECT_EQ(error.find("code")->as_string(), "unknown_field");
  EXPECT_EQ(error.find("message")->as_string(), "bogus: unknown field");
}

TEST(ServeProtocol, ResponseRoundTripsThroughTheCodec) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const PlanResponse plan = plan_once(model, sys);

  WireRequest req;
  req.id = "resp-1";
  req.model = ZooModel::MoCap;  // names come from `model`, key is echoed
  req.bw_gbps = 1.0;
  const std::string line = serve::write_response(req, plan, model, sys);

  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  EXPECT_DOUBLE_EQ(obj.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(obj.find("id")->as_string(), "resp-1");
  EXPECT_TRUE(obj.find("ok")->as_bool());
  EXPECT_EQ(obj.find("model")->as_string(), "mocap");
  EXPECT_EQ(obj.find("batch")->as_number(), 1.0);
  EXPECT_GT(obj.find("latency_s")->as_number(), 0.0);
  EXPECT_GT(obj.find("energy_j")->as_number(), 0.0);

  // Defaults are echoed at canonical values.
  const json::Object& options = obj.find("options")->as_object();
  EXPECT_TRUE(options.find("remap")->as_bool());
  EXPECT_EQ(options.find("knapsack")->as_string(), "exact");
  EXPECT_EQ(options.find("time_budget_s"), nullptr);  // unset -> omitted

  // Four default pipeline steps, mapping covers every non-input layer.
  EXPECT_EQ(obj.find("steps")->as_array().size(), plan.steps.size());
  const json::Object& mapping = obj.find("mapping")->as_object();
  std::size_t non_input = 0;
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind != LayerKind::Input) ++non_input;
  }
  EXPECT_EQ(mapping.find("layers")->as_array().size(), non_input);

  // Timing present by default, absent when not requested.
  EXPECT_NE(obj.find("timing"), nullptr);
  req.emit_timing = false;
  const std::string quiet = serve::write_response(req, plan, model, sys);
  json::ParseResult quiet_parsed = json::parse(quiet);
  ASSERT_TRUE(quiet_parsed.value.has_value());
  EXPECT_EQ(quiet_parsed.value->as_object().find("timing"), nullptr);

  // And the line itself re-serializes byte-stably.
  EXPECT_EQ(json::dump(*parsed.value), line);
}

TEST(ServeProtocolLinks, ParsesAllThreeShapes) {
  const WireRequest u = parse_ok(
      R"({"schema_version":1,"model":"mocap",)"
      R"("links":{"shape":"uniform","bw_gbps":0.25}})");
  ASSERT_TRUE(u.links.has_value());
  EXPECT_EQ(u.links->shape(), LinkShape::Uniform);
  EXPECT_DOUBLE_EQ(u.bw_gbps, 0.25);  // follows the topology's base

  const WireRequest m = parse_ok(
      R"({"schema_version":1,"model":"mocap",)"
      R"("links":{"shape":"mixed","bw_gbps":0.125,)"
      R"("overrides":[{"acc":2,"bw_gbps":1.25},{"acc":0,"bw_gbps":1.25}]}})");
  ASSERT_TRUE(m.links.has_value());
  EXPECT_EQ(m.links->shape(), LinkShape::Mixed);
  ASSERT_EQ(m.links->overrides().size(), 2u);
  EXPECT_EQ(m.links->overrides()[0].first, 0u);  // canonicalized order

  const WireRequest h = parse_ok(
      R"({"schema_version":1,"model":"mocap",)"
      R"("links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,)"
      R"("uplink_gbps":0.25,"host_gbps":0.5,"hop_latency_us":2}})");
  ASSERT_TRUE(h.links.has_value());
  EXPECT_EQ(h.links->shape(), LinkShape::Hierarchical);
  EXPECT_EQ(h.links->hier().group_size, 4u);
  EXPECT_DOUBLE_EQ(h.links->hier().hop_latency_s, 2e-6);
  EXPECT_DOUBLE_EQ(h.bw_gbps, 0.5);
}

TEST(ServeProtocolLinks, RejectsConflictsAndBadShapes) {
  // links and bw_gbps are mutually exclusive.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap","bw_gbps":0.5,)"
                      R"("links":{"shape":"uniform","bw_gbps":0.5}})")
                .code,
            ErrorCode::BadField);
  // Unknown fields inside links fail loudly.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"uniform","bw_gbps":0.5,)"
                      R"("latency":1}})")
                .code,
            ErrorCode::UnknownField);
  // Fields of another shape are unknown for this one.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"uniform","bw_gbps":0.5,)"
                      R"("group_size":4}})")
                .code,
            ErrorCode::UnknownField);
  // Bad values inside a known shape.
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"uniform","bw_gbps":0}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"ring","bw_gbps":0.5}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"mixed","bw_gbps":0.5,)"
                      R"("overrides":[{"acc":-1,"bw_gbps":1}]}})")
                .code,
            ErrorCode::BadField);
  EXPECT_EQ(parse_err(R"({"schema_version":1,"model":"mocap",)"
                      R"("links":{"shape":"hierarchical","group_size":4,)"
                      R"("intra_gbps":1.25}})")
                .code,
            ErrorCode::BadField);  // uplink missing
}

// Integer fields past UINT32_MAX must not wrap in the double -> uint32
// conversion onto a real accelerator id or group size (2^32 + 3 would alias
// accelerator 3): they answer bad_field before any session sees them.
TEST(ServeProtocolLinks, RejectsIntegersPastUint32) {
  for (const char* n : {"4294967296", "4294967299"}) {
    const WireError ov = parse_err(strformat(
        R"({"schema_version":1,"model":"mocap","links":{"shape":"mixed",)"
        R"("bw_gbps":0.5,"overrides":[{"acc":%s,"bw_gbps":1}]}})",
        n));
    EXPECT_EQ(ov.code, ErrorCode::BadField) << n;
    EXPECT_EQ(ov.message,
              "links.overrides.acc: expected a non-negative integer "
              "(required)");

    const WireError group = parse_err(strformat(
        R"({"schema_version":1,"model":"mocap","links":{)"
        R"("shape":"hierarchical","group_size":%s,"intra_gbps":1.25,)"
        R"("uplink_gbps":0.5}})",
        n));
    EXPECT_EQ(group.code, ErrorCode::BadField) << n;
    EXPECT_EQ(group.message,
              "links.group_size: expected a positive integer (required)");

    const auto repair = serve::parse_any_request(strformat(
        R"({"schema_version":1,"model":"mocap",)"
        R"("repair":{"event":"acc_lost","acc":%s}})",
        n));
    const WireError* err = std::get_if<WireError>(&repair);
    ASSERT_NE(err, nullptr) << n;
    EXPECT_EQ(err->code, ErrorCode::BadField) << n;
    EXPECT_EQ(err->message,
              "repair.acc: expected a non-negative integer (required)");
  }
  // The largest uint32 still parses; the repair session answers it
  // unknown_acc in-band.
  const auto top = serve::parse_any_request(
      R"({"schema_version":1,"model":"mocap",)"
      R"("repair":{"event":"acc_lost","acc":4294967295}})");
  const auto* req = std::get_if<serve::WireRepairRequest>(&top);
  ASSERT_NE(req, nullptr);
  EXPECT_EQ(req->event.acc.value, 4294967295u);
}

TEST(ServeProtocolLinks, ResponseEchoesCanonicalTopology) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const PlanResponse plan = plan_once(model, sys);

  const WireRequest req = parse_ok(
      R"({"schema_version":1,"id":"lk-1","model":"mocap",)"
      R"("links":{"shape":"mixed","bw_gbps":0.125,)"
      R"("overrides":[{"acc":2,"bw_gbps":1.25}]}})");
  const std::string line = serve::write_response(req, plan, model, sys);
  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  const json::Value* links = obj.find("links");
  ASSERT_NE(links, nullptr);
  EXPECT_EQ(links->as_object().find("shape")->as_string(), "mixed");
  EXPECT_DOUBLE_EQ(links->as_object().find("bw_gbps")->as_number(), 0.125);
  const json::Array& ov = links->as_object().find("overrides")->as_array();
  ASSERT_EQ(ov.size(), 1u);
  EXPECT_DOUBLE_EQ(ov[0].as_object().find("acc")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(ov[0].as_object().find("bw_gbps")->as_number(), 1.25);

  // A scalar request's response carries no links object — the pre-topology
  // byte layout is pinned by the serve fixtures.
  WireRequest scalar;
  scalar.model = ZooModel::MoCap;
  const std::string plain = serve::write_response(scalar, plan, model, sys);
  json::ParseResult plain_parsed = json::parse(plain);
  ASSERT_TRUE(plain_parsed.value.has_value());
  EXPECT_EQ(plain_parsed.value->as_object().find("links"), nullptr);
}

TEST(ServeProtocolLinks, ToPlanRequestCarriesTheTopology) {
  const WireRequest req = parse_ok(
      R"({"schema_version":1,"model":"casia-surf",)"
      R"("links":{"shape":"hierarchical","group_size":4,"intra_gbps":1.25,)"
      R"("uplink_gbps":0.25}})");
  const PlanRequest plan = serve::to_plan_request(req);
  ASSERT_TRUE(plan.links.has_value());
  EXPECT_EQ(plan.links->shape(), LinkShape::Hierarchical);
  EXPECT_DOUBLE_EQ(plan.bw_acc, plan.links->base_bw());
}

using serve::WireTenantsRequest;

[[nodiscard]] WireTenantsRequest tenants_ok(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireTenantsRequest>(parsed)) << line;
  if (const WireError* err = std::get_if<WireError>(&parsed)) {
    ADD_FAILURE() << serve::to_string(err->code) << ": " << err->message;
    return {};
  }
  if (!std::holds_alternative<WireTenantsRequest>(parsed)) return {};
  return std::get<WireTenantsRequest>(std::move(parsed));
}

[[nodiscard]] WireError tenants_err(const std::string& line) {
  auto parsed = serve::parse_any_request(line);
  EXPECT_TRUE(std::holds_alternative<WireError>(parsed)) << line;
  if (const WireError* err = std::get_if<WireError>(&parsed)) {
    return *err;
  }
  return {};
}

TEST(ServeProtocolTenants, NewErrorCodesHaveWireNames) {
  EXPECT_EQ(serve::to_string(ErrorCode::InfeasibleCapability),
            "infeasible_capability");
  EXPECT_EQ(serve::to_string(ErrorCode::SloViolated), "slo_violated");
}

TEST(ServeProtocolTenants, DispatchesOnTheTenantsField) {
  // A single-model line still parses to a WireRequest through the
  // dispatcher.
  auto single = serve::parse_any_request(
      R"({"schema_version":1,"model":"mocap"})");
  EXPECT_TRUE(std::holds_alternative<WireRequest>(single));
}

TEST(ServeProtocolTenants, ParsesMinimalAndFullRequests) {
  const WireTenantsRequest minimal = tenants_ok(
      R"({"schema_version":1,"tenants":[{"name":"a","model":"mocap"}]})");
  ASSERT_EQ(minimal.tenants.size(), 1u);
  EXPECT_EQ(minimal.tenants[0].name, "a");
  EXPECT_EQ(minimal.tenants[0].model, ZooModel::MoCap);
  EXPECT_FALSE(minimal.tenants[0].has_slo());
  EXPECT_EQ(minimal.tenants[0].priority, 1u);
  EXPECT_EQ(minimal.tenants[0].required_caps, 0u);
  EXPECT_DOUBLE_EQ(minimal.bw_gbps, 0.5);
  EXPECT_EQ(minimal.max_rounds, 3u);
  EXPECT_TRUE(minimal.steal_round);
  EXPECT_FALSE(minimal.require_slos);
  EXPECT_TRUE(minimal.emit_mapping);

  const WireTenantsRequest full = tenants_ok(
      R"({"schema_version":1,"id":"t-1",)"
      R"("tenants":[{"name":"cam","model":"casia-surf","slo_s":0.012,)"
      R"("priority":3,"caps":"conv+bigmem"},)"
      R"({"name":"emo","model":"mocap"}],)"
      R"("bw_gbps":0.125,"options":{"remap":false},"max_rounds":1,)"
      R"("steal_round":false,"require_slos":true,)"
      R"("emit":{"mapping":false}})");
  EXPECT_EQ(full.id, "t-1");
  ASSERT_EQ(full.tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(full.tenants[0].slo_s, 0.012);
  EXPECT_EQ(full.tenants[0].priority, 3u);
  EXPECT_EQ(full.tenants[0].required_caps, kCapConv | kCapBigMem);
  EXPECT_DOUBLE_EQ(full.bw_gbps, 0.125);
  EXPECT_FALSE(full.options.run_remapping);
  EXPECT_EQ(full.max_rounds, 1u);
  EXPECT_FALSE(full.steal_round);
  EXPECT_TRUE(full.require_slos);
  EXPECT_FALSE(full.emit_mapping);
}

TEST(ServeProtocolTenants, RejectsBadAndUnknownFields) {
  const auto code = [](const std::string& line) {
    return tenants_err(line).code;
  };
  // tenants itself.
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":"a=mocap"})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[42]})"),
            ErrorCode::BadField);
  // Per-tenant fields: strict names, models, values; no typos.
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[{"model":"mocap"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a/b","model":"mocap"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"},)"
                 R"({"name":"a","model":"vfs"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,"tenants":[{"name":"a"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"resnet"}]})"),
            ErrorCode::UnknownModel);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap","slo_s":0}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap",)"
                 R"("priority":0}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap",)"
                 R"("caps":"warp"}]})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap",)"
                 R"("slo":0.01}]})"),
            ErrorCode::UnknownField);
  // Root-level knobs.
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("max_rounds":-1})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("steal_round":1})"),
            ErrorCode::BadField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("batch":2})"),
            ErrorCode::UnknownField);  // single-model-only field
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("links":{"shape":"uniform","bw_gbps":1}})"),
            ErrorCode::UnknownField);
  EXPECT_EQ(code(R"({"schema_version":1,)"
                 R"("tenants":[{"name":"a","model":"mocap"}],)"
                 R"("emit":{"steps":true}})"),
            ErrorCode::UnknownField);
  // The id still echoes on errors.
  const WireError err = tenants_err(
      R"({"schema_version":1,"id":"e-1","tenants":[]})");
  EXPECT_EQ(err.id, "e-1");
}

// A line carries at most 64 tenants: co-mapping time and the duplicate-name
// scan both grow with the count, and one request must not hold a worker for
// long.
TEST(ServeProtocolTenants, AcceptsAtMostSixtyFourTenants) {
  const auto line = [](int count) {
    std::string out = R"({"schema_version":1,"id":"many","tenants":[)";
    for (int i = 0; i < count; ++i) {
      out += strformat(R"(%s{"name":"t%d","model":"mocap"})",
                       i == 0 ? "" : ",", i);
    }
    return out + "]}";
  };
  EXPECT_EQ(tenants_ok(line(64)).tenants.size(), 64u);
  const WireError err = tenants_err(line(65));
  EXPECT_EQ(err.code, ErrorCode::BadField);
  EXPECT_EQ(err.message, "tenants: expected at most 64 tenants");
  EXPECT_EQ(err.id, "many");
}

TEST(ServeProtocolTenants, ResponseEchoesCanonicalTenantsAndVerdicts) {
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  CoMapper comapper(sys);
  WireTenantsRequest req = tenants_ok(
      R"({"schema_version":1,"id":"resp-t",)"
      R"("tenants":[{"name":"solo","model":"mocap","slo_s":0.5,)"
      R"("caps":"lstm"},{"name":"free","model":"vfs"}],)"
      R"("options":{"remap":false},"max_rounds":1,"steal_round":false})");
  const TenantSet set(req.tenants);
  CoMapOptions opts;
  opts.plan = req.options;
  opts.max_rounds = req.max_rounds;
  opts.steal_round = req.steal_round;
  const CoMapResult result = comapper.co_map(set, opts);

  const std::string line =
      serve::write_tenants_response(req, result, sys);
  json::ParseResult parsed = json::parse(line);
  ASSERT_TRUE(parsed.value.has_value()) << line;
  const json::Object& obj = parsed.value->as_object();
  EXPECT_DOUBLE_EQ(obj.find("schema_version")->as_number(), 1.0);
  EXPECT_EQ(obj.find("id")->as_string(), "resp-t");
  EXPECT_TRUE(obj.find("ok")->as_bool());

  const json::Array& tenants = obj.find("tenants")->as_array();
  ASSERT_EQ(tenants.size(), 2u);
  const json::Object& first = tenants[0].as_object();
  EXPECT_EQ(first.find("name")->as_string(), "solo");
  EXPECT_EQ(first.find("model")->as_string(), "mocap");
  EXPECT_DOUBLE_EQ(first.find("slo_s")->as_number(), 0.5);
  EXPECT_EQ(first.find("caps")->as_string(), "lstm");
  EXPECT_GT(first.find("latency_s")->as_number(), 0.0);
  EXPECT_TRUE(first.find("met")->as_bool());
  // No SLO, no caps -> both omitted rather than spelled as infinities.
  const json::Object& second = tenants[1].as_object();
  EXPECT_EQ(second.find("slo_s"), nullptr);
  EXPECT_EQ(second.find("slack_s"), nullptr);
  EXPECT_EQ(second.find("caps"), nullptr);

  EXPECT_GT(obj.find("makespan_s")->as_number(), 0.0);
  EXPECT_TRUE(obj.find("all_slos_met")->as_bool());
  EXPECT_EQ(obj.find("timing"), nullptr);  // never emitted for tenants
  // Union-model mapping covers every placeable layer of both tenants.
  const json::Object& mapping = obj.find("mapping")->as_object();
  std::size_t non_input = 0;
  for (const LayerId id : result.model.all_layers()) {
    if (result.model.layer(id).kind != LayerKind::Input) ++non_input;
  }
  EXPECT_EQ(mapping.find("layers")->as_array().size(), non_input);
  // And the line re-serializes byte-stably.
  EXPECT_EQ(json::dump(*parsed.value), line);

  // emit.mapping=false drops the mapping block.
  req.emit_mapping = false;
  const std::string quiet =
      serve::write_tenants_response(req, result, sys);
  json::ParseResult quiet_parsed = json::parse(quiet);
  ASSERT_TRUE(quiet_parsed.value.has_value());
  EXPECT_EQ(quiet_parsed.value->as_object().find("mapping"), nullptr);
}

}  // namespace
}  // namespace h2h
