#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <thread>

#include "core/plan_options.h"
#include "core/planner.h"
#include "tenant/co_mapper.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

[[nodiscard]] TenantRequest tenant(std::string name, ZooModel model,
                                   double slo_s = std::numeric_limits<
                                       double>::infinity(),
                                   std::uint32_t priority = 1,
                                   CapabilityMask caps = 0) {
  TenantRequest t;
  t.name = std::move(name);
  t.model = model;
  t.slo_s = slo_s;
  t.priority = priority;
  t.required_caps = caps;
  return t;
}

// ---------------------------------------------------------------- grammar

TEST(TenantSpecTest, ParsesFullGrammar) {
  const std::vector<TenantRequest> reqs = parse_tenants_spec(
      "cam=vlocnet:slo=0.05:prio=2;mic=mocap:slo=0.02;aux=vfs:caps=bigmem");
  ASSERT_EQ(reqs.size(), 3u);
  EXPECT_EQ(reqs[0].name, "cam");
  EXPECT_EQ(reqs[0].model, ZooModel::VLocNet);
  EXPECT_DOUBLE_EQ(reqs[0].slo_s, 0.05);
  EXPECT_EQ(reqs[0].priority, 2u);
  EXPECT_EQ(reqs[0].required_caps, 0u);
  EXPECT_EQ(reqs[1].model, ZooModel::MoCap);
  EXPECT_FALSE(reqs[2].has_slo());
  EXPECT_EQ(reqs[2].required_caps, kCapBigMem);
}

TEST(TenantSpecTest, RejectsMalformedSpecs) {
  // Shape errors.
  EXPECT_THROW((void)parse_tenants_spec(""), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("=vlocnet"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam="), ConfigError);
  // Stray separators / trailing junk.
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap;"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec(";cam=mocap"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap::slo=1"), ConfigError);
  // Unknown model / field.
  EXPECT_THROW((void)parse_tenants_spec("cam=resnet9000"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:deadline=1"), ConfigError);
  // Bad values.
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=0"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=-1"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=fast"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=1x"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:prio=two"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:caps=warp"), ConfigError);
  // Duplicate fields.
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:slo=1:slo=2"), ConfigError);
  EXPECT_THROW((void)parse_tenants_spec("cam=mocap:prio=1:prio=2"),
               ConfigError);
}

// --------------------------------------------------------------- TenantSet

TEST(TenantSetTest, ValidatesRequests) {
  EXPECT_THROW(TenantSet({}), ConfigError);
  EXPECT_THROW(TenantSet({tenant("", ZooModel::MoCap)}), ConfigError);
  EXPECT_THROW(TenantSet({tenant("a/b", ZooModel::MoCap)}), ConfigError);
  EXPECT_THROW(TenantSet({tenant("a", ZooModel::MoCap),
                          tenant("a", ZooModel::Vfs)}),
               ConfigError);
  EXPECT_THROW(TenantSet({tenant("a", ZooModel::MoCap, -1.0)}), ConfigError);

  // Exactly one model source.
  TenantRequest none;
  none.name = "x";
  EXPECT_THROW(TenantSet({none}), ConfigError);
  const ModelGraph chain = testing::make_chain_model();
  TenantRequest both = tenant("x", ZooModel::MoCap);
  both.graph = &chain;
  EXPECT_THROW(TenantSet({both}), ConfigError);
}

TEST(TenantSetTest, StampsCapsOnPlaceableLayers) {
  const TenantSet set({tenant("a", ZooModel::MoCap, 1.0, 1, kCapBigMem)});
  for (const LayerId id : set.model(0).all_layers()) {
    const Layer& l = set.model(0).layer(id);
    EXPECT_EQ(l.required_caps, l.kind == LayerKind::Input ? 0u : kCapBigMem);
  }
}

TEST(TenantSetTest, UnionModelConcatenatesSpans) {
  const TenantSet set(
      {tenant("a", ZooModel::MoCap), tenant("b", ZooModel::CnnLstm)});
  std::vector<TenantSpan> spans;
  const ModelGraph u = set.build_union(spans);
  u.validate();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, 0u);
  EXPECT_EQ(spans[0].end, set.model(0).layer_count());
  EXPECT_EQ(spans[1].begin, spans[0].end);
  EXPECT_EQ(spans[1].end, u.layer_count());
  EXPECT_EQ(u.layer_count(),
            set.model(0).layer_count() + set.model(1).layer_count());
  // Names carry the tenant prefix; edges stay within the span.
  for (const LayerId id : u.all_layers()) {
    const bool first = spans[0].contains(id);
    EXPECT_TRUE(u.layer(id).name.rfind(first ? "a/" : "b/", 0) == 0);
    for (const LayerId p : u.graph().preds(id))
      EXPECT_EQ(spans[0].contains(p), first);
  }
}

TEST(TenantSetTest, UnionRejectsBatchDisagreement) {
  ModelGraph batched = make_model(ZooModel::MoCap);
  batched.set_batch(4);
  TenantRequest b;
  b.name = "b";
  b.graph = &batched;
  const TenantSet set({tenant("a", ZooModel::MoCap), b});
  std::vector<TenantSpan> spans;
  EXPECT_THROW((void)set.build_union(spans), ConfigError);
}

// ------------------------------------------------------------ slack order

TEST(TenantSlackTest, NormalizedSlackClampsToUnitWindow) {
  EXPECT_DOUBLE_EQ(normalized_slack(0.4, 0.5, 1.0), 0.1);
  EXPECT_DOUBLE_EQ(normalized_slack(0.9, 0.5, 1.0), 0.0);  // overdue
  EXPECT_DOUBLE_EQ(normalized_slack(0.1, 5.0, 1.0), 1.0);  // saturates
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(normalized_slack(0.1, inf, 1.0), 1.0);  // no SLO
}

TEST(TenantSlackTest, OrdersByUrgencyThenPriorityThenIndex) {
  const TenantSet set({tenant("late", ZooModel::MoCap, 0.1),
                       tenant("easy", ZooModel::MoCap, 10.0),
                       tenant("vip", ZooModel::MoCap, 10.0, /*priority=*/5),
                       tenant("free", ZooModel::MoCap)});
  // Latencies: "late" is overdue; "easy"/"vip" tie on slack; "free" has no
  // SLO and saturates at 1.
  const std::vector<std::size_t> order =
      slack_order(set, {0.2, 0.2, 0.2, 0.2}, 10.0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 2, 1, 3}));
}

// ---------------------------------------------------------------- CoMapper

TEST(CoMapperTest, SingleTenantIsBitIdenticalToPlanner) {
  for (const BandwidthSetting bw :
       {BandwidthSetting::LowMinus, BandwidthSetting::Mid}) {
    const SystemConfig sys = SystemConfig::standard(bw);
    Planner planner(sys);
    CoMapper co(sys);
    for (const ZooInfo& info : zoo_catalog()) {
      const PlanResponse p =
          planner.plan(PlanRequest::zoo(info.id, bandwidth_value(bw)));
      const CoMapResult r = co.co_map(TenantSet({tenant("solo", info.id)}));
      ASSERT_EQ(r.model.layer_count(),
                p.mapping.size());
      for (const LayerId id : r.model.all_layers()) {
        EXPECT_EQ(r.mapping.acc_of(id).value, p.mapping.acc_of(id).value);
        EXPECT_EQ(r.mapping.seq_of(id), p.mapping.seq_of(id));
        EXPECT_EQ(r.plan.pinned(id), p.plan.pinned(id));
      }
      EXPECT_EQ(r.plan.fused_edge_count(), p.plan.fused_edge_count());
      EXPECT_EQ(r.schedule.latency, p.final_result().latency);
      EXPECT_EQ(r.schedule.energy.total(), p.final_result().energy.total());
    }
  }
}

/// Three tenants contending for the shared boards (the tentpole fixture
/// below runs them at Low- bandwidth).
[[nodiscard]] TenantSet contending_set() {
  return TenantSet({tenant("cam", ZooModel::CasiaSurf, 0.012, 3),
                    tenant("act", ZooModel::CnnLstm, 0.010, 2),
                    tenant("emo", ZooModel::MoCap, 0.010, 1)});
}

/// The tentpole fixture: three tenants contending at Low- bandwidth.
/// Sequential deployment (each planned as if alone) leaves "act" and "emo"
/// queued behind "cam" on the shared boards and both miss their SLOs;
/// co-mapping meets all three (numbers surveyed offline; the assertions
/// only use the orderings, not pinned values).
TEST(CoMapperTest, CoMappingMeetsSlosSequentialMisses) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  CoMapper co(sys);
  const CoMapResult r = co.co_map(contending_set());

  EXPECT_GT(r.seq_violation_s, 0.0);  // sequential planning misses SLOs
  EXPECT_DOUBLE_EQ(r.violation_s, 0.0);
  EXPECT_TRUE(r.all_slos_met);
  EXPECT_LT(r.schedule.latency, r.seq_makespan_s);

  EXPECT_GT(r.outcome("act").seq_latency_s, 0.010);
  EXPECT_GT(r.outcome("emo").seq_latency_s, 0.010);
  for (const TenantOutcome& o : r.tenants) {
    EXPECT_TRUE(o.met);
    EXPECT_LE(o.latency_s, o.slo_s);
    EXPECT_GE(o.slack_s, 0.0);
    // Solo latency (idle system) lower-bounds any shared deployment.
    EXPECT_LE(o.solo_latency_s, o.latency_s + 1e-12);
  }
  EXPECT_THROW((void)r.outcome("nobody"), ConfigError);
}

TEST(CoMapperTest, CoMapIsDeterministic) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  CoMapper co(sys);
  const TenantSet set({tenant("a", ZooModel::MoCap, 0.01),
                       tenant("b", ZooModel::CnnLstm, 0.01)});
  const CoMapResult r1 = co.co_map(set);
  const CoMapResult r2 = co.co_map(set);  // warm solo sessions this time
  EXPECT_EQ(r1.schedule.latency, r2.schedule.latency);
  EXPECT_EQ(r1.violation_s, r2.violation_s);
  EXPECT_EQ(r1.rounds, r2.rounds);
  for (const LayerId id : r1.model.all_layers())
    EXPECT_EQ(r1.mapping.acc_of(id).value, r2.mapping.acc_of(id).value);
}

TEST(CoMapperTest, CapabilityConstraintsHoldPerTenant) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  CoMapper co(sys);
  const TenantSet set(
      {tenant("fast", ZooModel::MoCap, /*slo=*/1.0, 1, kCapFastMem),
       tenant("any", ZooModel::CasiaSurf)});
  const CoMapResult r = co.co_map(set);
  const TenantSpan span = r.outcome("fast").span;
  for (std::uint32_t l = span.begin; l < span.end; ++l) {
    const LayerId id{l};
    if (r.model.layer(id).kind == LayerKind::Input) continue;
    EXPECT_TRUE(can_serve(sys.capabilities(r.mapping.acc_of(id)),
                          kCapFastMem));
  }
}

TEST(CoMapperTest, InfeasibleCapabilityThrows) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  CoMapper co(sys);
  const TenantSet set({tenant("ghost", ZooModel::MoCap, 1.0, 1, 0x100)});
  EXPECT_THROW((void)co.co_map(set), CapabilityError);
}


// --------------------------------------------------------- tenant grid pin

/// One co-mapping of the tenant grid, as pinned. Doubles are compared bit
/// for bit (through their %a spelling).
struct GridPin {
  std::uint32_t rounds;
  bool steal_ran;
  std::uint64_t mapping_fnv;  // union acc + seq of every layer
  double latency_s;           // union makespan
  double energy_j;
  double violation_s;
  std::uint64_t tenants_fnv;  // bits of every tenant's co-mapped latency
};

[[nodiscard]] std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    h = (h ^ ((v >> (8 * i)) & 0xFFu)) * 1099511628211ull;
  return h;
}

[[nodiscard]] GridPin grid_pin(const CoMapResult& r) {
  GridPin p{r.rounds, r.steal_ran, 1469598103934665603ull, r.schedule.latency,
            r.schedule.energy.total(), r.violation_s, 1469598103934665603ull};
  for (const LayerId id : r.model.all_layers()) {
    p.mapping_fnv = fnv_fold(p.mapping_fnv, r.mapping.acc_of(id).value);
    p.mapping_fnv = fnv_fold(p.mapping_fnv, r.mapping.seq_of(id));
  }
  for (const TenantOutcome& t : r.tenants)
    p.tenants_fnv =
        fnv_fold(p.tenants_fnv, std::bit_cast<std::uint64_t>(t.latency_s));
  return p;
}

/// The row as it is spelled in kGridPins below.
[[nodiscard]] std::string grid_row(const GridPin& p) {
  return strformat("{%u, %s, 0x%016llxull, %a, %a, %a, 0x%016llxull},",
                   p.rounds, p.steal_ran ? "true" : "false",
                   static_cast<unsigned long long>(p.mapping_fnv), p.latency_s,
                   p.energy_j, p.violation_s,
                   static_cast<unsigned long long>(p.tenants_fnv));
}

/// One row per (bandwidth, set) of the test below: the 20 sets at 0.125 GB/s,
/// then the same 20 at 0.5 GB/s.
// clang-format off
constexpr GridPin kGridPins[] = {
    {3, true, 0x394376021703f569ull, 0x1.373e25b390125p-4, 0x1.fc28ce6798f63p-1, 0x1.1f164bede3195p-6, 0xc3011a1813368209ull},
    {2, true, 0xa3186cb6e6acfdbeull, 0x1.373e25b390125p-4, 0x1.313b7db7c24a9p+0, 0x1.69069b5ad75d9p-5, 0x11e1b9cbd4e25394ull},
    {2, true, 0xea8473c2aed8e1fbull, 0x1.373e25b390125p-4, 0x1.0f952dc5664afp+0, 0x1.1eaa2ededb2dap-5, 0x2cfedeb5892e368bull},
    {3, true, 0x88b770b7169cd81aull, 0x1.373e25b390125p-4, 0x1.0f372228bb5f2p+0, 0x1.6516a35a49161p-6, 0x6533e953ed96707cull},
    {2, true, 0xc6dde0af2eeb6d3cull, 0x1.8023040caefc3p-7, 0x1.bdaf6912d6db2p-3, 0x1.9077fed79d558p-8, 0xd09058735fa9b022ull},
    {2, true, 0x90a6856e584f99e8ull, 0x1.b59c4235ab528p-7, 0x1.319d8e15b8ec3p-2, 0x1.8fc1c6a53545p-8, 0x01cc30f413793ab6ull},
    {4, true, 0x5e4e9350854e5372ull, 0x1.ac2566c78ffcbp-7, 0x1.36b472c7f86e7p-2, 0x1.2f17db807d442p-6, 0xfa8b14084f2b8cddull},
    {2, true, 0xa0e36b33a62c72f3ull, 0x1.8846eefe78dedp-7, 0x1.477897a41d978p-3, 0x1.a2071c7376d1p-9, 0xae4cba14277eca6cull},
    {2, false, 0x0bfcf8a69e08f116ull, 0x1.085fdfca66511p-7, 0x1.38d606030faf1p-3, 0x0p+0, 0x01acd616b138f524ull},
    {2, false, 0x79473b96e09523ccull, 0x1.1d14a85cc9458p-7, 0x1.0a4b05128ab07p-3, 0x0p+0, 0xbf5d45076fec931eull},
    {4, true, 0xb22adf8bb4bb970cull, 0x1.373e25b390125p-4, 0x1.f4033357159dep-1, 0x1.946b1bfb8b734p-5, 0xbb83a401d121d14aull},
    {3, true, 0xd7ad8185598208d3ull, 0x1.373e25b390125p-4, 0x1.290cf826d2dd6p+0, 0x1.b4c21192f3ecdp-5, 0xc62febf0371baa76ull},
    {3, true, 0x415a8b2df559d182ull, 0x1.373e25b390125p-4, 0x1.1d734afe109e6p+0, 0x1.fb634417f9cddp-4, 0xb14aaa9d48815c55ull},
    {2, true, 0x0f840037cc46da28ull, 0x1.373e25b390125p-4, 0x1.b96682004ef2fp-1, 0x1.a95e5275f5b22p-6, 0xe468fc0e4f1db2a9ull},
    {2, true, 0x7f183fad646f79eaull, 0x1.373e25b390125p-4, 0x1.d2c21252ccae6p-1, 0x1.86e2d6b70b3aap-4, 0xa2fc07a49fb2f560ull},
    {2, true, 0xf447f0c1420bab56ull, 0x1.373e25b390125p-4, 0x1.a844dd60b5fbfp-1, 0x1.ca3696e7cb94bp-5, 0x132b54f2da3be523ull},
    {4, true, 0x99463ba98d1d9167ull, 0x1.f8c209395f748p-8, 0x1.05782e3aaa0ddp-3, 0x1.234f1c7d8044p-12, 0x9ef8df6576615675ull},
    {4, true, 0x761bdeb420966885ull, 0x1.ccd2be0463d56p-8, 0x1.1504f5c4a5ff7p-3, 0x1.23619fbc86564p-8, 0xf47c6fbba41c6937ull},
    {2, true, 0xe8e23cde7025f520ull, 0x1.95766fd05c096p-8, 0x1.b5fc5a7dd5bbcp-4, 0x1.e174177cfc338p-11, 0x5609b1d932072d37ull},
    {2, true, 0x4eef992c67583897ull, 0x1.ccd2be0463d56p-8, 0x1.ec9d8374c650fp-5, 0x1.3f1feb156033cp-7, 0x6ac15ed27ff0d3c8ull},
    {2, true, 0x66d6bb0e47698887ull, 0x1.2d46e6217ed83p-4, 0x1.b8da53fce1fcep-1, 0x1.6500a7c729974p-7, 0xf0974f3f5d8f06dfull},
    {3, true, 0x86cfb3ea1876f6e0ull, 0x1.2d46e6217ed83p-4, 0x1.052b0da8bfbbfp+0, 0x1.f310ea1501564p-6, 0xb5c0aa84bbd7fca1ull},
    {2, true, 0x0e3b6f117ac2334aull, 0x1.2d46e6217ed83p-4, 0x1.e0debfa428673p-1, 0x1.546572a580a3ep-9, 0x7860cbe0540d843bull},
    {2, true, 0x483da8f8619a9725ull, 0x1.2d46e6217ed83p-4, 0x1.cc77baba6433ep-1, 0x1.8ad6a7c3fa712p-7, 0x5b2f6f51b1e85112ull},
    {4, false, 0xcfd79dca0690aac2ull, 0x1.aab2a1d78c65ap-8, 0x1.46c000f8d9b46p-3, 0x0p+0, 0xa9cf0d7627ac8d80ull},
    {4, false, 0xedc8bb1ff3a2dff6ull, 0x1.f90250ce41dc6p-8, 0x1.9b7bba44b9b53p-3, 0x0p+0, 0xc82e34be2f2bc8a9ull},
    {4, true, 0xf3bf4a53de38825cull, 0x1.79cc2489134f2p-8, 0x1.64542bddf5bp-3, 0x1.51db2b179a1f8p-11, 0xeac2222a6daac536ull},
    {3, true, 0x7cb523015966c530ull, 0x1.3d35ed387f3cdp-8, 0x1.99bceac64bc33p-4, 0x1.387c4410399f8p-11, 0xb67d64fbbb1c6a30ull},
    {3, true, 0x2c74e11230d44ae9ull, 0x1.75ebbdd8f0287p-8, 0x1.1442c45676d14p-3, 0x1.2e2d45f297694p-9, 0xd7f0ad247419402aull},
    {2, false, 0x322157d1e7c15491ull, 0x1.51dee7143632ep-8, 0x1.8012462a0e221p-4, 0x0p+0, 0x89e5143521aa94b7ull},
    {2, true, 0x01d4bf99228a0374ull, 0x1.2d46e6217ed83p-4, 0x1.bcc2f3b697bfap-1, 0x1.f3be823b55b81p-7, 0x3f54ad1a93f2dc69ull},
    {2, true, 0x75dbc44806e05d52ull, 0x1.2d46e6217ed83p-4, 0x1.ea16ab1ec781p-1, 0x1.b87683c13d1e5p-6, 0x3d398ce9a73510d3ull},
    {2, true, 0x596c2a5132086633ull, 0x1.2d46e6217ed83p-4, 0x1.d8526f2667112p-1, 0x1.8845d157d0455p-7, 0x634cf67aaaa2f9abull},
    {2, false, 0x2d4f75b9c00b8e6dull, 0x1.2d46e6217ed83p-4, 0x1.9ca501edc502bp-1, 0x0p+0, 0x5c53cc369ac3b6a0ull},
    {3, true, 0xa7a02cad86953e78ull, 0x1.2d46e6217ed83p-4, 0x1.abe1b91e6a5c7p-1, 0x1.13acf234c4256p-5, 0xe6e28a7c097a7a65ull},
    {2, true, 0x7077b1fd161797d8ull, 0x1.2d46e6217ed83p-4, 0x1.93ea1147d04a4p-1, 0x1.22c072934d67p-12, 0x1b76b8d74e6e08beull},
    {2, false, 0x31ffa361370cd579ull, 0x1.1961ee3ed1b89p-8, 0x1.65402a0123483p-4, 0x0p+0, 0x943e7d24e66ae0d9ull},
    {2, true, 0x29a229c81010c249ull, 0x1.7547c9869b526p-8, 0x1.fafaece9cf718p-4, 0x1.7fac986a5d2aap-10, 0xe890b6ca3ca76f4cull},
    {2, false, 0x6ce1282f0ecddbd7ull, 0x1.299d7e56501acp-8, 0x1.4d1da94bfccd3p-4, 0x0p+0, 0xe366ed038467cf35ull},
    {2, true, 0x20503d33d540d41dull, 0x1.7547c9869b526p-8, 0x1.98dfc895142abp-5, 0x1.654b9d15bfbebp-8, 0xbe88e7f395f45897ull},
};
// clang-format on

/// Every 2- and 3-set of the five non-vlocnet zoo models at 0.125 and
/// 0.5 GB/s, with SLOs at a cycling factor of each tenant's solo latency and
/// cycling priorities, so some sets adopt in an improvement sweep and some
/// run the steal round. The values were recorded before co_map learnt to
/// reuse rounds and memoize solo plans; both levers must leave every
/// co-mapping bit-identical.
TEST(CoMapGridPin, TenantGridIsBitIdentical) {
  constexpr ZooModel kModels[] = {ZooModel::CasiaSurf, ZooModel::Vfs,
                                  ZooModel::FaceBag, ZooModel::CnnLstm,
                                  ZooModel::MoCap};
  constexpr double kSloFactor[] = {1.05, 1.5, 3.0, 1.2};
  std::vector<std::vector<std::size_t>> sets;
  for (std::size_t a = 0; a < 5; ++a)
    for (std::size_t b = a + 1; b < 5; ++b) {
      sets.push_back({a, b});
      for (std::size_t c = b + 1; c < 5; ++c) sets.push_back({a, b, c});
    }

  std::size_t row = 0;
  std::size_t adopted_in_sweep = 0;
  std::size_t stole = 0;
  for (const double gbps : {0.125, 0.5}) {
    const SystemConfig sys = SystemConfig::standard(gbps * 1e9);
    Planner planner(sys);
    CoMapper co(sys);
    for (const std::vector<std::size_t>& set : sets) {
      std::vector<TenantRequest> reqs;
      for (const std::size_t m : set) {
        const ZooModel model = kModels[m];
        const double solo = planner.plan(PlanRequest::zoo(model, gbps * 1e9))
                                .final_result()
                                .latency;
        const std::size_t k = row + reqs.size();
        reqs.push_back(tenant(std::string(zoo_info(model).key), model,
                              kSloFactor[k % 4] * solo,
                              static_cast<std::uint32_t>(1 + k % 3)));
      }
      const GridPin got = grid_pin(co.co_map(TenantSet(reqs)));
      adopted_in_sweep += got.rounds >= 3 ? 1 : 0;
      stole += got.steal_ran ? 1 : 0;
      ASSERT_LT(row, std::size(kGridPins));
      EXPECT_EQ(grid_row(got), grid_row(kGridPins[row]))
          << "set " << row % sets.size() << " at " << gbps << " GB/s";
      ++row;
    }
  }
  EXPECT_EQ(row, std::size(kGridPins));
  // The grid reaches every branch of the round loop.
  EXPECT_GT(adopted_in_sweep, 0u);
  EXPECT_GT(stole, 0u);
  EXPECT_LT(stole, row);
}

/// Three random tenant graphs on two accelerators whose 6 MiB of DRAM hold
/// only a few weights, so a tenant's step-2 knapsack pins and unpins its
/// peers' layers. Here a round-skip rule that ignores peer pins, or skips
/// whenever nothing was adopted since the tenant's last turn, ends the
/// sweeps a round early. Recorded, like kGridPins, on the code before
/// round reuse existed.
TEST(CoMapGridPin, TightDramRandomSetIsBitIdentical) {
  // clang-format off
  constexpr GridPin kPin = {3, true, 0xa893878497961176ull, 0x1.4869213778467p-7, 0x1.ba7fd37fc9c94p-7, 0x1.39510b23a86d2p-5, 0xbfbf57a16b912c20ull};
  // clang-format on
  Rng rng(525);
  std::vector<ModelGraph> graphs;
  for (int g = 0; g < 3; ++g)
    graphs.push_back(testing::make_random_model(rng));
  std::vector<TenantRequest> reqs(3);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i].name = strformat("t%zu", i);
    reqs[i].graph = &graphs[i];
    reqs[i].slo_s = 1e-5 * static_cast<double>(1 + i);  // always missed
    reqs[i].priority = static_cast<std::uint32_t>(1 + i);
  }
  const SystemConfig sys = testing::make_uniform_system(2, 1e9, mib(6));
  const CoMapResult r = CoMapper(sys).co_map(TenantSet(reqs));
  EXPECT_EQ(grid_row(grid_pin(r)), grid_row(kPin));
}

// ------------------------------------------------------ reuse and solo memo

/// Every pinned value of the grid plus the solo and sequential figures
/// (which are where a stale solo plan would show first).
[[nodiscard]] std::string co_map_digest(const CoMapResult& r) {
  std::string out = grid_row(grid_pin(r));
  out += strformat(" seq %a/%a", r.seq_makespan_s, r.seq_violation_s);
  for (const TenantOutcome& t : r.tenants)
    out += strformat(" %s %a/%a", t.name.c_str(), t.solo_latency_s,
                     t.seq_latency_s);
  return out;
}

TEST(CoMapperMemoTest, SoloMemoKeysOnEveryPlanOption) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  const TenantSet set({tenant("a", ZooModel::Vfs, 0.02, 2),
                       tenant("b", ZooModel::CnnLstm, 0.01)});
  CoMapper shared(sys);
  const auto planned = [&shared] {
    return shared.planner().cache_hits() + shared.planner().cache_misses();
  };
  const std::string base = co_map_digest(shared.co_map(set));

  std::vector<CoMapOptions> variants(4);
  ASSERT_FALSE(apply_plan_option(variants[0].plan, "objective", "edp"));
  ASSERT_FALSE(apply_plan_option(variants[1].plan, "knapsack", "greedy"));
  ASSERT_FALSE(apply_plan_option(variants[2].plan, "remap", "false"));
  variants[3].plan.remap.max_passes = 1;  // a field outside the option table
  for (std::size_t v = 0; v < variants.size(); ++v) {
    const std::string fresh =
        co_map_digest(CoMapper(sys).co_map(set, variants[v]));
    // First time: a memo miss per tenant (the options are part of the key),
    // so the solo plans run through the Planner.
    const std::uint64_t before = planned();
    EXPECT_EQ(co_map_digest(shared.co_map(set, variants[v])), fresh)
        << "variant " << v;
    EXPECT_EQ(planned(), before + set.size()) << "variant " << v;
  }
  // The default request still hits its own entry.
  const std::uint64_t before = planned();
  EXPECT_EQ(co_map_digest(shared.co_map(set)), base);
  EXPECT_EQ(planned(), before);
}

TEST(CoMapperMemoTest, SystemMutationBetweenCallsMissesTheMemo) {
  SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  const TenantSet set({tenant("a", ZooModel::Vfs, 0.02, 2),
                       tenant("b", ZooModel::CnnLstm, 0.01)});
  CoMapper shared(sys);
  (void)shared.co_map(set);
  sys.set_bw_acc(bandwidth_value(BandwidthSetting::LowMinus));
  const CoMapResult r = shared.co_map(set);
  EXPECT_EQ(co_map_digest(r), co_map_digest(CoMapper(sys).co_map(set)));
  // Lose the accelerator running the first tenant's first placed layer.
  const TenantSpan a = r.outcome("a").span;
  AccId victim;
  for (std::uint32_t l = a.begin; l < a.end && !victim.valid(); ++l)
    if (!r.mapping.acc_of(LayerId{l}).is_host())
      victim = r.mapping.acc_of(LayerId{l});
  sys.set_available(victim, false);
  EXPECT_EQ(co_map_digest(shared.co_map(set)),
            co_map_digest(CoMapper(sys).co_map(set)));
}

TEST(CoMapperMemoTest, RepeatedRequestReusesSoloPlansAndRounds) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const TenantSet set = contending_set();
  CoMapper co(sys);
  const CoMapResult first = co.co_map(set);
  // The reuse rule answers some turns of this set's sweeps; a lever that
  // silently switched off would read 0 here.
  EXPECT_GT(first.replans_reused, 0u);
  EXPECT_LT(first.replans_reused, first.replans);
  const std::uint64_t planned =
      co.planner().cache_hits() + co.planner().cache_misses();
  EXPECT_EQ(planned, set.size());

  const CoMapResult again = co.co_map(set);
  EXPECT_EQ(co_map_digest(again), co_map_digest(first));
  EXPECT_EQ(again.replans, first.replans);
  EXPECT_EQ(again.replans_reused, first.replans_reused);
  // Every solo plan came from the memo: the Planner saw no request.
  EXPECT_EQ(co.planner().cache_hits() + co.planner().cache_misses(), planned);
}

TEST(CoMapperMemoTest, BudgetedRequestBypassesBothMemos) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  const TenantSet set = contending_set();
  CoMapper co(sys);
  (void)co.co_map(set);  // fills the solo memo
  const std::uint64_t planned =
      co.planner().cache_hits() + co.planner().cache_misses();

  CoMapOptions budgeted;
  budgeted.plan.time_budget_s = 60.0;
  const CoMapResult r = co.co_map(set, budgeted);
  EXPECT_EQ(r.replans_reused, 0u);
  EXPECT_GT(r.replans, 0u);
  EXPECT_EQ(co.planner().cache_hits() + co.planner().cache_misses(),
            planned + set.size());
}

TEST(CoMapperConcurrency, SharedMapperMatchesFreshMappers) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  const std::vector<TenantSet> sets = {
      contending_set(),
      TenantSet({tenant("a", ZooModel::Vfs, 0.02, 2),
                 tenant("b", ZooModel::CnnLstm, 0.01)}),
      TenantSet({tenant("a", ZooModel::FaceBag, 0.02),
                 tenant("b", ZooModel::MoCap, 0.005, 3)}),
      TenantSet({tenant("a", ZooModel::CasiaSurf, 0.01, 2),
                 tenant("b", ZooModel::FaceBag),
                 tenant("c", ZooModel::MoCap, 0.01)})};
  std::vector<std::string> expected;
  for (const TenantSet& set : sets)
    expected.push_back(co_map_digest(CoMapper(sys).co_map(set)));

  // Each thread co-maps its own set twice (the second call reads the memo
  // while the other threads fill it); worker threads never touch gtest.
  CoMapper shared(sys);
  std::vector<std::vector<std::string>> got(sets.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < sets.size(); ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 2; ++rep)
        got[t].push_back(co_map_digest(shared.co_map(sets[t])));
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < sets.size(); ++t)
    for (const std::string& g : got[t]) EXPECT_EQ(g, expected[t]) << t;
}

}  // namespace
}  // namespace h2h
