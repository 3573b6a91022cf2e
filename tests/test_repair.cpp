// Unit tests for the live-repair subsystem (DESIGN.md §12): system-level
// derating (availability, link degrades, compute derates), the FaultEvent
// model and CLI grammar, the FaultInjector's physically consistent random
// schedules, and the RepairEngine's damage-cone repairs — including the
// warm-migrates-strictly-fewer-layers property against a cold re-plan and
// the in-band capability-infeasibility contract.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "accel/capability.h"
#include "h2h.h"
#include "test_helpers.h"

namespace h2h {
namespace {

constexpr double kBw = 0.5e9;

/// The accelerator hosting the most layers of `m` (ties to the lowest id) —
/// the dropout victim that produces the largest damage cone.
[[nodiscard]] AccId busiest_acc(const Mapping& m, const SystemConfig& sys) {
  AccId best{};
  std::size_t best_n = 0;
  for (const AccId a : sys.all_accelerators()) {
    const std::size_t n = m.members(a).size();
    if (n > best_n) {
      best_n = n;
      best = a;
    }
  }
  EXPECT_GT(best_n, 0u);
  return best;
}

[[nodiscard]] std::size_t diff_count(const ModelGraph& model, const Mapping& a,
                                     const Mapping& b) {
  std::size_t n = 0;
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    if (a.acc_of(id) != b.acc_of(id)) ++n;
  }
  return n;
}

// ---- System-level derating ------------------------------------------------

TEST(SystemDeratingTest, AvailabilityFiltersSupportingAndValidate) {
  const ModelGraph model = make_mocap();
  SystemConfig sys = SystemConfig::standard(kBw);
  const PlanResponse r = plan_once(model, sys);
  const AccId victim = busiest_acc(r.mapping, sys);

  EXPECT_TRUE(sys.available(victim));
  EXPECT_EQ(sys.available_count(), sys.accelerator_count());
  sys.set_available(victim, false);
  EXPECT_FALSE(sys.available(victim));
  EXPECT_EQ(sys.available_count(), sys.accelerator_count() - 1);
  for (std::size_t k = 1; k <= static_cast<std::size_t>(LayerKind::Concat);
       ++k) {
    const auto kind = static_cast<LayerKind>(k);
    for (const AccId a : sys.supporting(kind)) EXPECT_NE(a, victim);
  }
  // The old mapping places layers on the dead accelerator: validate rejects.
  EXPECT_THROW(r.mapping.validate(model, sys), ConfigError);
  sys.set_available(victim, true);
  r.mapping.validate(model, sys);
}

TEST(SystemDeratingTest, AvailabilityInvalidatesCostTable) {
  const ModelGraph model = make_mocap();
  SystemConfig sys = SystemConfig::standard(kBw);
  const Simulator sim(model, sys);
  EXPECT_TRUE(sim.costs_fresh());
  sys.set_available(AccId{0}, false);
  EXPECT_FALSE(sim.costs_fresh());
  const CostTable& rebuilt = sim.costs();
  for (const LayerId id : model.all_layers())
    EXPECT_FALSE(rebuilt.supported(id, AccId{0}));
  EXPECT_TRUE(sim.costs_fresh());
}

TEST(SystemDeratingTest, ComputeDerateStretchesLatencyOnly) {
  const ModelGraph model = make_mocap();
  SystemConfig sys = SystemConfig::standard(kBw);
  const CostTable nominal(model, sys);
  sys.set_compute_derate(AccId{0}, 0.5);
  EXPECT_FALSE(nominal.fresh(model, sys));
  const CostTable derated(model, sys);
  for (const LayerId id : model.all_layers()) {
    if (!nominal.supported(id, AccId{0})) continue;
    // 0.5 is a power of two: the derated latency is exactly double.
    EXPECT_EQ(derated.compute_latency(id, AccId{0}),
              2.0 * nominal.compute_latency(id, AccId{0}));
    EXPECT_EQ(derated.compute_energy(id, AccId{0}),
              nominal.compute_energy(id, AccId{0}));
    if (nominal.supported(id, AccId{1})) {
      EXPECT_EQ(derated.compute_latency(id, AccId{1}),
                nominal.compute_latency(id, AccId{1}));
    }
  }
}

TEST(SystemDeratingTest, LinkDegradeScalesBandwidthByMinEndpoint) {
  SystemConfig sys = SystemConfig::standard(kBw);
  const Interconnect& links = sys.links();
  EXPECT_TRUE(links.uniform_links());
  const std::uint64_t fp0 = links.fingerprint();

  sys.set_link_degrade(AccId{2}, 0.25);
  EXPECT_FALSE(links.uniform_links());
  EXPECT_NE(links.fingerprint(), fp0);
  EXPECT_EQ(links.bandwidth(AccId{2}, AccId::host()), kBw * 0.25);
  EXPECT_EQ(links.bandwidth(AccId{2}, AccId{5}), kBw * 0.25);
  EXPECT_EQ(links.bandwidth(AccId{5}, AccId::host()), kBw);
  EXPECT_EQ(links.min_bandwidth(), kBw * 0.25);

  // Two degraded endpoints: the pair moves at the slower factor.
  sys.set_link_degrade(AccId{5}, 0.5);
  EXPECT_EQ(links.bandwidth(AccId{2}, AccId{5}), kBw * 0.25);
  EXPECT_EQ(links.bandwidth(AccId{5}, AccId::host()), kBw * 0.5);

  // Restoring both returns the exact original fingerprint and uniformity.
  sys.set_link_degrade(AccId{2}, 1.0);
  sys.set_link_degrade(AccId{5}, 1.0);
  EXPECT_TRUE(links.uniform_links());
  EXPECT_EQ(links.fingerprint(), fp0);
}

TEST(SystemDeratingTest, LinkDegradeRejectsBadInputs) {
  SystemConfig sys = SystemConfig::standard(kBw);
  EXPECT_THROW(sys.set_link_degrade(AccId{0}, 0.0), ConfigError);
  EXPECT_THROW(sys.set_link_degrade(AccId{0}, 1.5), ConfigError);
}

// ---- FaultEvent model and CLI grammar ------------------------------------

TEST(FaultModelTest, BuildersValidateAndFormat) {
  EXPECT_EQ(format_fault(FaultEvent::lost(AccId{3})), "acc_lost(3)");
  EXPECT_EQ(format_fault(FaultEvent::link_degraded(AccId{2}, 0.25)),
            "link_degraded(2, x0.25)");
  EXPECT_THROW((void)FaultEvent::link_degraded(AccId{1}, 0.0), ConfigError);
  EXPECT_THROW((void)FaultEvent::spec_derated(AccId{1}, 1.5), ConfigError);
  EXPECT_EQ(parse_fault_kind("acc_lost"), FaultKind::AccLost);
  EXPECT_EQ(parse_fault_kind("spec_derated"), FaultKind::SpecDerated);
  EXPECT_FALSE(parse_fault_kind("melted").has_value());
}

TEST(FaultModelTest, ParsesCliSpecs) {
  const FaultEvent lose = parse_fault_spec("lose:3");
  EXPECT_EQ(lose.kind, FaultKind::AccLost);
  EXPECT_EQ(lose.acc.value, 3u);
  const FaultEvent degrade = parse_fault_spec("degrade:2=0.25");
  EXPECT_EQ(degrade.kind, FaultKind::LinkDegraded);
  EXPECT_EQ(degrade.acc.value, 2u);
  EXPECT_EQ(degrade.scale, 0.25);
  const std::vector<FaultEvent> list =
      parse_fault_list("lose:3,derate:1=0.5,restore:0,return:3");
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[1].kind, FaultKind::SpecDerated);
  EXPECT_EQ(list[2].kind, FaultKind::LinkRestored);
  EXPECT_EQ(list[3].kind, FaultKind::AccReturned);

  EXPECT_THROW((void)parse_fault_spec("lose"), ConfigError);
  EXPECT_THROW((void)parse_fault_spec("melt:3"), ConfigError);
  EXPECT_THROW((void)parse_fault_spec("degrade:3"), ConfigError);
  EXPECT_THROW((void)parse_fault_spec("degrade:3=2"), ConfigError);
  EXPECT_THROW((void)parse_fault_spec("lose:x"), ConfigError);
}

// ---- FaultInjector -------------------------------------------------------

TEST(FaultInjectorTest, RandomSchedulesArePhysicallyConsistent) {
  constexpr std::size_t kAccs = 12;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    FaultScheduleOptions opts;
    opts.min_alive = 3;
    const FaultInjector inj = FaultInjector::random(seed, 40, kAccs, opts);
    ASSERT_EQ(inj.size(), 40u);
    std::vector<bool> alive(kAccs, true);
    std::size_t alive_count = kAccs;
    for (const FaultEvent& e : inj.events()) {
      ASSERT_LT(e.acc.value, kAccs);
      switch (e.kind) {
        case FaultKind::AccLost:
          EXPECT_TRUE(alive[e.acc.value]);
          alive[e.acc.value] = false;
          --alive_count;
          EXPECT_GE(alive_count, opts.min_alive);
          break;
        case FaultKind::AccReturned:
          EXPECT_FALSE(alive[e.acc.value]);
          alive[e.acc.value] = true;
          ++alive_count;
          break;
        case FaultKind::LinkDegraded:
        case FaultKind::SpecDerated:
          EXPECT_TRUE(alive[e.acc.value]);
          EXPECT_GT(e.scale, 0.0);
          EXPECT_LE(e.scale, 1.0);
          break;
        case FaultKind::LinkRestored:
          EXPECT_TRUE(alive[e.acc.value]);
          break;
      }
    }
  }
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  const FaultInjector a = FaultInjector::random(42, 25, 12);
  const FaultInjector b = FaultInjector::random(42, 25, 12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].acc, b.events()[i].acc);
    EXPECT_EQ(a.events()[i].scale, b.events()[i].scale);
  }
  const FaultInjector c = FaultInjector::random(43, 25, 12);
  bool any_diff = false;
  for (std::size_t i = 0; i < c.size(); ++i)
    any_diff = any_diff || c.events()[i].kind != a.events()[i].kind ||
               c.events()[i].acc != a.events()[i].acc;
  EXPECT_TRUE(any_diff);
}

// ---- RepairEngine --------------------------------------------------------

TEST(RepairEngineTest, InitialPlanMatchesPlanOnce) {
  const ModelGraph model = make_mocap();
  RepairEngine engine(model, SystemConfig::standard(kBw));
  EXPECT_FALSE(engine.has_plan());
  const PlanResponse r = engine.plan_initial();
  EXPECT_TRUE(engine.has_plan());
  const PlanResponse ref = plan_once(model, SystemConfig::standard(kBw));
  EXPECT_EQ(r.final_result().latency, ref.final_result().latency);
  EXPECT_EQ(diff_count(model, r.mapping, ref.mapping), 0u);
  EXPECT_EQ(engine.latency(), r.final_result().latency);
}

TEST(RepairEngineTest, DropoutEvictsOnlyMembersAndRepairsValidly) {
  const ModelGraph model = make_mocap();
  RepairEngine engine(model, SystemConfig::standard(kBw));
  (void)engine.plan_initial();
  const Mapping before = engine.mapping();
  const AccId victim = busiest_acc(before, engine.system());
  const std::size_t victim_members = before.members(victim).size();

  const RepairResult res = engine.apply(FaultEvent::lost(victim));
  ASSERT_EQ(res.outcome, RepairOutcome::Repaired);
  ASSERT_TRUE(res.response.has_value());
  // The dropout damage cone is exactly the victim's members.
  EXPECT_EQ(res.cone_layers, victim_members);
  EXPECT_TRUE(std::isinf(res.faulted_latency_s));
  EXPECT_GE(res.layers_moved, victim_members);
  EXPECT_EQ(res.layers_moved, res.migrations.size());
  // Every migration leaves the dead accelerator or re-shuffles the cone;
  // weight bytes tally the moved layers.
  Bytes bytes = 0;
  for (const Migration& m : res.migrations) {
    EXPECT_NE(m.to, victim);
    bytes += m.weight_bytes;
  }
  EXPECT_EQ(bytes, res.weight_bytes_moved);
  engine.mapping().validate(model, engine.system());
  EXPECT_TRUE(engine.mapping().members(victim).empty());
  EXPECT_EQ(engine.latency(), res.post_latency_s);
}

TEST(RepairEngineTest, WarmRepairMigratesStrictlyFewerThanColdReplan) {
  // The acceptance fixtures: a single dropout of the busiest accelerator on
  // two zoo models. The warm repair touches only the damage cone; a cold
  // re-plan re-derives the whole mapping and moves more layers.
  for (const ZooModel zm : {ZooModel::MoCap, ZooModel::CnnLstm}) {
    const ModelGraph model = make_model(zm);
    RepairOptions opts;
    opts.allow_fallback = false;  // compare the pure warm repair
    RepairEngine engine(model, SystemConfig::standard(kBw), opts);
    (void)engine.plan_initial();
    const Mapping before = engine.mapping();
    const AccId victim = busiest_acc(before, engine.system());

    const RepairResult res = engine.apply(FaultEvent::lost(victim));
    ASSERT_EQ(res.outcome, RepairOutcome::Repaired);

    SystemConfig faulted = SystemConfig::standard(kBw);
    faulted.set_available(victim, false);
    const PlanResponse cold = plan_once(model, faulted);
    const std::size_t cold_moved = diff_count(model, before, cold.mapping);
    EXPECT_LT(res.layers_moved, cold_moved)
        << "model " << static_cast<int>(zm) << " victim " << victim.value;
  }
}

TEST(RepairEngineTest, LinkDegradeRepairBeatsNotRepairing) {
  const ModelGraph model = make_vfs();
  RepairEngine engine(model, SystemConfig::standard(kBw));
  (void)engine.plan_initial();
  const AccId victim = busiest_acc(engine.mapping(), engine.system());

  const RepairResult res =
      engine.apply(FaultEvent::link_degraded(victim, 0.2));
  ASSERT_EQ(res.outcome, RepairOutcome::Repaired);
  ASSERT_TRUE(std::isfinite(res.faulted_latency_s));
  EXPECT_GE(res.faulted_latency_s, res.pre_latency_s);
  // The repair never ends worse than leaving the degraded mapping in place
  // (the warm re-plan starts from the current placement and only improves).
  EXPECT_LE(res.post_latency_s, res.faulted_latency_s * (1 + 1e-9));
  engine.mapping().validate(model, engine.system());
}

TEST(RepairEngineTest, DerateAndRestoreRoundTrip) {
  const ModelGraph model = make_mocap();
  RepairEngine engine(model, SystemConfig::standard(kBw));
  (void)engine.plan_initial();
  const double healthy = engine.latency();
  const AccId victim = busiest_acc(engine.mapping(), engine.system());

  const RepairResult hit = engine.apply(FaultEvent::spec_derated(victim, 0.3));
  ASSERT_EQ(hit.outcome, RepairOutcome::Repaired);
  engine.mapping().validate(model, engine.system());

  // Restating the derate at nominal is the recovery event; the benefit cone
  // lets layers flow back and latency returns to the healthy plan's level.
  const RepairResult back =
      engine.apply(FaultEvent::spec_derated(victim, 1.0));
  ASSERT_EQ(back.outcome, RepairOutcome::Repaired);
  engine.mapping().validate(model, engine.system());
  EXPECT_LE(back.post_latency_s, healthy * 1.05);
}

TEST(RepairEngineTest, LoseAndReturnRecoversLatency) {
  const ModelGraph model = make_casia_surf();
  RepairEngine engine(model, SystemConfig::standard(kBw));
  (void)engine.plan_initial();
  const double healthy = engine.latency();
  const AccId victim = busiest_acc(engine.mapping(), engine.system());

  const RepairResult lost = engine.apply(FaultEvent::lost(victim));
  ASSERT_EQ(lost.outcome, RepairOutcome::Repaired);
  const RepairResult ret = engine.apply(FaultEvent::returned(victim));
  ASSERT_EQ(ret.outcome, RepairOutcome::Repaired);
  engine.mapping().validate(model, engine.system());
  EXPECT_LE(ret.post_latency_s, healthy * 1.05);
}

TEST(RepairEngineTest, ContradictoryAndUnknownEventsThrow) {
  const ModelGraph model = make_mocap();
  RepairEngine engine(model, SystemConfig::standard(kBw));
  EXPECT_THROW((void)engine.apply(FaultEvent::lost(AccId{0})), ConfigError);
  (void)engine.plan_initial();
  EXPECT_THROW((void)engine.apply(FaultEvent::lost(AccId{99})), ConfigError);
  EXPECT_THROW((void)engine.apply(FaultEvent::returned(AccId{0})),
               ConfigError);
  (void)engine.apply(FaultEvent::lost(AccId{0}));
  EXPECT_THROW((void)engine.apply(FaultEvent::lost(AccId{0})), ConfigError);
}

TEST(RepairEngineTest, CapabilityExhaustionIsReportedInBand) {
  // Stamp the whole model with a capability only some catalog accelerators
  // provide, then kill the providers one by one: the last kill must come
  // back as an in-band Infeasible result (never an exception), and the
  // engine must keep serving the stale pre-fault plan.
  ModelGraph model = testing::make_mini_mmmt_model();
  model.stamp_required_caps(kCapBigMem);
  SystemConfig probe = SystemConfig::standard(kBw);
  std::vector<AccId> providers;
  for (const AccId a : probe.all_accelerators())
    if (can_serve(probe.capabilities(a), kCapBigMem)) providers.push_back(a);
  ASSERT_GE(providers.size(), 2u);

  // Some provider subset may already be infeasible for a specific layer
  // kind (caps intersect per-kind support), so kill providers until the
  // first in-band Infeasible rather than assuming only the last kill fails.
  RepairEngine engine(model, SystemConfig::standard(kBw));
  (void)engine.plan_initial();
  std::optional<RepairResult> failed;
  AccId last_killed{};
  for (const AccId p : providers) {
    const RepairResult r = engine.apply(FaultEvent::lost(p));
    last_killed = p;
    if (r.outcome == RepairOutcome::Infeasible) {
      failed = r;
      break;
    }
  }
  ASSERT_TRUE(failed.has_value()) << "killing every provider stayed feasible";
  EXPECT_FALSE(failed->infeasible_reason.empty());
  EXPECT_FALSE(failed->response.has_value());
  EXPECT_TRUE(engine.has_plan());

  // The accelerator returning makes the system repairable again from the
  // stale plan.
  const RepairResult back = engine.apply(FaultEvent::returned(last_killed));
  EXPECT_EQ(back.outcome, RepairOutcome::Repaired);
  engine.mapping().validate(model, engine.system());
}

TEST(RepairEngineTest, FallbackEngagesWhenWarmRepairIsLoose) {
  // With a zero fallback ratio every repair exceeds the bound, so the
  // from-scratch re-plan must run; it can only be adopted if strictly
  // better, so the post latency is min(warm, scratch).
  const ModelGraph model = make_mocap();
  RepairOptions opts;
  opts.fallback_ratio = 0.0;
  RepairEngine engine(model, SystemConfig::standard(kBw), opts);
  (void)engine.plan_initial();
  const AccId victim = busiest_acc(engine.mapping(), engine.system());
  const RepairResult res = engine.apply(FaultEvent::lost(victim));
  ASSERT_EQ(res.outcome, RepairOutcome::Repaired);
  EXPECT_GT(res.scratch_latency_s, 0.0);
  if (res.used_fallback)
    EXPECT_EQ(res.post_latency_s, res.scratch_latency_s);
  else
    EXPECT_LE(res.post_latency_s, res.scratch_latency_s);
}

// ---- Repair over a co-mapped union ---------------------------------------

TEST(RepairEngineTest, CoMappedUnionRepairReassessesTenantSlos) {
  // A live repair must compose with multi-tenant serving: the CoMapper's
  // union mapping is adopted into a RepairEngine, an accelerator drops out,
  // and tenant_latencies re-derives per-tenant SLO accounting from the
  // repaired schedule.
  TenantRequest cam;
  cam.name = "cam";
  cam.model = ZooModel::CasiaSurf;
  cam.slo_s = 0.012;
  cam.priority = 3;
  TenantRequest mic;
  mic.name = "mic";
  mic.model = ZooModel::MoCap;
  mic.slo_s = 0.05;
  const TenantSet set({cam, mic});

  const SystemConfig sys = SystemConfig::standard(kBw);
  CoMapper co(sys);
  const CoMapResult r = co.co_map(set);

  std::vector<TenantSpan> spans;
  spans.reserve(r.tenants.size());
  for (const TenantOutcome& t : r.tenants) spans.push_back(t.span);

  // The exported helper reproduces the co-mapper's own accounting exactly.
  const std::vector<double> before = tenant_latencies(r.schedule, spans);
  ASSERT_EQ(before.size(), r.tenants.size());
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], r.tenants[i].latency_s);

  RepairEngine engine(r.model, SystemConfig::standard(kBw));
  engine.adopt(r.mapping, r.plan);
  EXPECT_EQ(engine.latency(), r.schedule.latency);

  const AccId victim = busiest_acc(engine.mapping(), engine.system());
  const RepairResult res = engine.apply(FaultEvent::lost(victim));
  ASSERT_EQ(res.outcome, RepairOutcome::Repaired);
  ASSERT_TRUE(res.response.has_value());
  engine.mapping().validate(r.model, engine.system());

  // Reassessed tenant latencies cover the whole repaired schedule and bound
  // its makespan; each tenant's latency is positive and finite.
  const std::vector<double> after =
      tenant_latencies(res.response->final_result(), spans);
  double worst = 0;
  for (const double lat : after) {
    EXPECT_GT(lat, 0.0);
    EXPECT_TRUE(std::isfinite(lat));
    worst = std::max(worst, lat);
  }
  EXPECT_DOUBLE_EQ(worst, res.post_latency_s);
}

// ---- Repair pin -----------------------------------------------------------

/// One repair of the compounding fault script below, as pinned. The post
/// latency is compared bit for bit (through its %a spelling).
struct RepairPin {
  std::uint32_t acc;  // the event's accelerator
  bool repaired;
  std::uint64_t mapping_fnv;  // live acc + seq of every layer afterwards
  double post_latency_s;
  std::size_t layers_moved;
  Bytes weight_bytes_moved;
  bool used_fallback;
};

/// The row as it is spelled in kRepairPins below.
[[nodiscard]] std::string repair_row(const RepairPin& p) {
  return strformat("{%u, %s, 0x%016llxull, %a, %zu, %llu, %s},", p.acc,
                   p.repaired ? "true" : "false",
                   static_cast<unsigned long long>(p.mapping_fnv),
                   p.post_latency_s, p.layers_moved,
                   static_cast<unsigned long long>(p.weight_bytes_moved),
                   p.used_fallback ? "true" : "false");
}

/// Seven rows per (bandwidth, model) of the test below: the six zoo models
/// at 0.125 GB/s, then the same six at 0.5 GB/s.
// clang-format off
constexpr RepairPin kRepairPins[] = {
    {8, true, 0xd8d7f3ac1ca8ddb1ull, 0x1.30297e4de8c61p-3, 67, 44858752, false},
    {6, true, 0x3b755b7e4f6fa636ull, 0x1.71059b28ceea2p-3, 84, 47561088, false},
    {2, true, 0x2a8f9ba8e03dc5b0ull, 0x1.bb75f6a56c3e7p-3, 62, 28706304, false},
    {8, true, 0x219106f8be011cbdull, 0x1.57338c27757e3p-3, 164, 89553408, false},
    {6, true, 0xe8d21bda98c89538ull, 0x1.8e602ee469242p-3, 96, 53742592, false},
    {2, true, 0x9881a4567e0124b5ull, 0x1.7d11f1be419bdp-3, 9, 5548544, false},
    {8, true, 0x9960734b7d59db78ull, 0x1.86577a51a1d54p-3, 74, 47492096, false},
    {8, true, 0x1cafc47d3cbd758eull, 0x1.5c68755653c51p-7, 29, 16005376, false},
    {6, true, 0x5e4fdbd4b603760aull, 0x1.8653f56da2e8dp-7, 34, 18083584, false},
    {2, true, 0x3aeca927a7c1c2a3ull, 0x1.751b964e505ffp-7, 25, 10991104, false},
    {8, true, 0x15876c16c474a387ull, 0x1.e1d30c6799166p-8, 54, 18786304, false},
    {6, true, 0x38b30dbe5d3a8485ull, 0x1.03b07d39f30cdp-7, 9, 4344576, false},
    {2, true, 0x3a81291963cb71f5ull, 0x1.1b5a5edd5dae9p-7, 68, 22100224, true},
    {8, true, 0x1cafc47d3cbd758eull, 0x1.5c68755653c51p-7, 29, 16005376, false},
    {6, true, 0xd8b6c19ca61259b0ull, 0x1.373e25b390125p-4, 33, 8077184, false},
    {2, true, 0xf612c95b42bb62b0ull, 0x1.373e25b390125p-4, 18, 7823872, false},
    {0, true, 0xec81029fa5f931f2ull, 0x1.373e25b390125p-4, 4, 0, false},
    {6, true, 0x7433442166932536ull, 0x1.373e25b390125p-4, 33, 8077184, false},
    {2, true, 0x7433442166932536ull, 0x1.373e25b390125p-4, 0, 0, false},
    {0, true, 0x7433442166932536ull, 0x1.373e25b390125p-4, 0, 0, false},
    {6, true, 0xd8b6c19ca61259b0ull, 0x1.373e25b390125p-4, 33, 8077184, false},
    {8, true, 0x8d0c29491cb3253cull, 0x1.fa56b9088abc5p-8, 35, 23045184, false},
    {6, true, 0x0213f6a2e276ca78ull, 0x1.27651d743d4ccp-7, 31, 22482432, false},
    {2, true, 0xdfa4d5ea84297363ull, 0x1.45d9842579468p-7, 16, 10939488, false},
    {8, true, 0x8ad7b9eee75930e4ull, 0x1.d83f966d5e7aep-8, 59, 34659008, false},
    {6, true, 0x4a3db087b2794661ull, 0x1.f2f92ebce4d5fp-8, 81, 38701888, true},
    {2, true, 0x19adbfee8fddcf29ull, 0x1.0f9d206f729b4p-7, 16, 7256640, false},
    {8, true, 0x620be95b4ede337bull, 0x1.3c17684376403p-7, 37, 23202816, false},
    {11, true, 0x8fc8b5d0b0c4af8full, 0x1.0448e19b3b046p-4, 8, 26136192, false},
    {9, true, 0xd92d9c1de4fb4252ull, 0x1.04e0f20f9941fp-4, 5, 1230080, false},
    {5, true, 0xd92d9c1de4fb4252ull, 0x1.04e5f2212e8d3p-4, 0, 0, false},
    {11, true, 0x185aae5f92f93fd2ull, 0x1.51cd3ddf829a4p-8, 7, 26136192, false},
    {9, true, 0x185aae5f92f93fd2ull, 0x1.51cd3ddf829a4p-8, 0, 0, false},
    {5, true, 0xbcef4d3f97df1e52ull, 0x1.4e6306949e25fp-8, 2, 0, false},
    {11, true, 0x8fc8b5d0b0c4af8full, 0x1.0448e19b3b046p-4, 8, 26136192, false},
    {11, true, 0x18b0eff67308e5cdull, 0x1.460ebcfbbdf08p-5, 12, 14700812, true},
    {9, true, 0xe019f89f1293564bull, 0x1.4f683a799f497p-5, 6, 3710988, false},
    {5, true, 0x19d82b19970f6addull, 0x1.42313261607c7p-4, 7, 1643020, false},
    {11, true, 0x5f6aa54faaa246c5ull, 0x1.11893b5885ff9p-8, 10, 14577676, false},
    {9, true, 0xb06e5d9769ef5dcdull, 0x1.76129649d47f6p-9, 3, 2067968, false},
    {5, true, 0xb06e5d9769ef5dcdull, 0x1.76129649d47f6p-9, 0, 0, false},
    {11, true, 0x18b0eff67308e5cdull, 0x1.460ebcfbbdf08p-5, 10, 14577676, true},
    {8, true, 0x238ef285d3884b35ull, 0x1.3d028a9e12e4ep-4, 79, 48624896, false},
    {0, true, 0x31866fb23a4c6ff5ull, 0x1.627b33f0fbdedp-4, 76, 53696768, false},
    {6, true, 0xea472826d5697a31ull, 0x1.a19dab2617467p-4, 76, 33244544, false},
    {8, true, 0xb558985a31a707baull, 0x1.332ddc56dfad1p-4, 168, 85275392, false},
    {0, true, 0x9a402fc1b804d074ull, 0x1.2555c6cb06853p-4, 60, 23237248, false},
    {6, true, 0x9555858441bc40b4ull, 0x1.23caec455a875p-4, 82, 55391744, false},
    {8, true, 0xbd8b521e5cbef9b4ull, 0x1.491eb630f6e5ap-4, 77, 50302848, false},
    {8, true, 0x248e4917c09a6703ull, 0x1.742a33a3c1e2ep-8, 27, 17391616, false},
    {6, true, 0x904631c0f38c35c1ull, 0x1.7ecc6495cf837p-8, 32, 16374400, false},
    {0, true, 0xa437eadd61321549ull, 0x1.7feb047aee935p-8, 14, 1270784, false},
    {8, true, 0x1847a9e92a51dba1ull, 0x1.42de26df7a2e7p-8, 58, 20344320, false},
    {6, true, 0x75520f9306d6377dull, 0x1.3e3454fbfdd2cp-8, 31, 11821312, false},
    {0, true, 0x75520f9306d6377dull, 0x1.3e3454fbfdd2cp-8, 0, 0, false},
    {8, true, 0x44fb11e419cfb564ull, 0x1.3c5c5be9b0dap-8, 66, 25048320, true},
    {6, true, 0xd8b6c19ca61259b0ull, 0x1.2d46e6217ed83p-4, 33, 8077184, false},
    {2, true, 0xf612c95b42bb62b0ull, 0x1.2d46e6217ed83p-4, 18, 7823872, false},
    {0, true, 0xec81029fa5f931f2ull, 0x1.2d46e6217ed83p-4, 4, 0, false},
    {6, true, 0x7433442166932536ull, 0x1.2d46e6217ed83p-4, 33, 8077184, false},
    {2, true, 0x7433442166932536ull, 0x1.2d46e6217ed83p-4, 0, 0, false},
    {0, true, 0x7433442166932536ull, 0x1.2d46e6217ed83p-4, 0, 0, false},
    {6, true, 0xd8b6c19ca61259b0ull, 0x1.2d46e6217ed83p-4, 33, 8077184, false},
    {8, true, 0x3696116620a46667ull, 0x1.3d40605b143efp-8, 32, 21670656, false},
    {6, true, 0x1459699e00ef5267ull, 0x1.638a946e8cfc2p-8, 34, 20538432, false},
    {2, true, 0x9575d804a88b5b20ull, 0x1.9261576169554p-8, 22, 13711200, false},
    {8, true, 0xdb35b8d634ae6da4ull, 0x1.47e6fbab2255fp-8, 86, 45729920, false},
    {6, true, 0x63e0b8c6a1a69410ull, 0x1.1dd2c415071e1p-8, 41, 20711424, false},
    {2, true, 0x66b444fb1642cdafull, 0x1.23d0f03eb61cap-8, 18, 7588800, false},
    {8, true, 0x57019951bde3c627ull, 0x1.5aedfd70782bep-8, 39, 25525184, false},
    {11, true, 0x8fc8b5d0b0c4af8full, 0x1.0431ba8d2f281p-4, 8, 26136192, false},
    {9, true, 0xd92d9c1de4fb4252ull, 0x1.0471d0329386cp-4, 5, 1230080, false},
    {5, true, 0x485f9efb6aa4add2ull, 0x1.0448e19b3b046p-4, 6, 19799680, false},
    {11, true, 0xbcef4d3f97df1e52ull, 0x1.ae8e8b611f3ap-9, 8, 26136192, false},
    {9, true, 0xbcef4d3f97df1e52ull, 0x1.ae8e8b611f3ap-9, 0, 0, false},
    {5, true, 0xbcef4d3f97df1e52ull, 0x1.ae8e8b611f3ap-9, 0, 0, false},
    {11, true, 0x8fc8b5d0b0c4af8full, 0x1.0431ba8d2f281p-4, 8, 26136192, false},
    {11, true, 0x18b0eff67308e5cdull, 0x1.4414dad5a12efp-5, 11, 14577676, true},
    {9, true, 0x564d81ce46494888ull, 0x1.447cbf3ab5551p-5, 6, 1643020, false},
    {5, true, 0x5be431c95f99cb82ull, 0x1.e5541c6427157p-5, 8, 9610252, false},
    {11, true, 0x60a7934b5e279c80ull, 0x1.97fad6007cd5ep-9, 9, 12509708, false},
    {9, true, 0x11a4ce319f90c18cull, 0x1.4780e05741a84p-9, 1, 2067968, false},
    {5, true, 0x11a4ce319f90c18cull, 0x1.4780e05741a84p-9, 0, 0, false},
    {11, true, 0x18b0eff67308e5cdull, 0x1.4414dad5a12efp-5, 11, 14577676, true},
};
// clang-format on

/// Every zoo model at 0.125 and 0.5 GB/s runs one compounding fault script
/// on one engine (fallback on): lose the busiest accelerator, degrade the
/// links of the next busiest, derate the next, then return, restore and
/// re-rate them, and finally lose the busiest again. Each event's target is
/// read off the live mapping, so the script follows the repairs. The values
/// were recorded before the warm repair's step-1/2/4 constraints moved into
/// the shared freeze_outside helper; every warm repair, fallback and
/// migration count must stay bit-identical.
TEST(RepairPin, ZooFaultScriptsAreBitIdentical) {
  std::size_t row = 0;
  std::size_t fallbacks = 0;
  for (const double gbps : {0.125, 0.5}) {
    for (const ZooInfo& info : zoo_catalog()) {
      const ModelGraph model = make_model(info.id);
      RepairEngine engine(model, SystemConfig::standard(gbps * 1e9));
      (void)engine.plan_initial();
      const auto busiest = [&] {
        return busiest_acc(engine.mapping(), engine.system());
      };
      const AccId lost = busiest();
      const auto step = [&](const FaultEvent& event) {
        const RepairResult res = engine.apply(event);
        const RepairPin got{
            event.acc.value,
            res.outcome == RepairOutcome::Repaired,
            testing::mapping_fnv(model, engine.mapping()),
            res.post_latency_s,
            res.layers_moved,
            res.weight_bytes_moved,
            res.used_fallback};
        fallbacks += got.used_fallback ? 1 : 0;
        ASSERT_LT(row, std::size(kRepairPins));
        EXPECT_EQ(repair_row(got), repair_row(kRepairPins[row]))
            << info.key << " at " << gbps << " GB/s, event " << row % 7;
        ++row;
      };
      step(FaultEvent::lost(lost));
      const AccId degraded = busiest();
      step(FaultEvent::link_degraded(degraded, 0.25));
      const AccId derated = busiest();
      step(FaultEvent::spec_derated(derated, 0.5));
      step(FaultEvent::returned(lost));
      step(FaultEvent::link_restored(degraded));
      step(FaultEvent::spec_derated(derated, 1.0));
      step(FaultEvent::lost(busiest()));
    }
  }
  EXPECT_EQ(row, std::size(kRepairPins));
  EXPECT_GT(fallbacks, 0u);
}

}  // namespace
}  // namespace h2h
