#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "core/activation_fusion.h"
#include "core/comp_prioritized.h"
#include "core/weight_locality.h"
#include "system/incremental.h"
#include "test_helpers.h"

namespace h2h {
namespace {

void expect_same_timings(const IncrementalSchedule& inc, const Simulator& sim,
                         const Mapping& m, const LocalityPlan& plan) {
  const ScheduleResult full = sim.simulate(m, plan);
  for (std::uint32_t i = 0; i < full.timings.size(); ++i) {
    const LayerTiming& a = inc.timing(LayerId{i});
    const LayerTiming& b = full.timings[i];
    EXPECT_DOUBLE_EQ(a.start, b.start) << "node " << i;
    EXPECT_DOUBLE_EQ(a.finish, b.finish) << "node " << i;
    EXPECT_DOUBLE_EQ(a.duration(), b.duration()) << "node " << i;
  }
  EXPECT_DOUBLE_EQ(inc.latency(), full.latency);
  const ScheduleResult agg = inc.result(m);
  EXPECT_DOUBLE_EQ(agg.energy.total(), full.energy.total());
  EXPECT_DOUBLE_EQ(agg.comp_time, full.comp_time);
  EXPECT_DOUBLE_EQ(agg.host_time, full.host_time);
}

TEST(Incremental, ResetMatchesFullSimulation) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  expect_same_timings(inc, sim, mapping, plan);
}

TEST(Incremental, ComponentRefreshAfterPinning) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  // Pin everything (weight-locality pass) and refresh all layers.
  optimize_weight_locality(sim, mapping, plan);
  const std::vector<LayerId> all = m.all_layers();
  inc.refresh_components(mapping, plan, all);
  expect_same_timings(inc, sim, mapping, plan);
}

TEST(Incremental, RemapMatchesFullSimulation) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  // Move one fc layer between the generic and LSTM accelerators.
  LayerId victim{};
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::FullyConnected) victim = id;
  ASSERT_TRUE(victim.valid());
  const AccId src = mapping.acc_of(victim);
  const AccId dst = src == AccId{1} ? AccId{2} : AccId{1};

  mapping.reassign(victim, dst);
  const std::array<AccId, 2> touched{src, dst};
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  inc.apply_remap(mapping, plan, victim, src);

  expect_same_timings(inc, sim, mapping, plan);
  EXPECT_GT(inc.retime_count(), 0u);
}

// Regression for the static-power accounting drift: both simulators must
// derive the static term from the one shared SystemConfig::static_energy
// helper, so with a nonzero idle power the EnergyBreakdowns have to be
// bit-identical field by field.
TEST(Incremental, EnergyIdenticalToSimulatorUnderStaticPower) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  std::vector<AcceleratorPtr> accs;
  accs.push_back(make_analytical(testing::simple_spec("U0", gib(1))));
  accs.push_back(make_analytical(testing::simple_spec("U1", gib(1))));
  HostParams host;
  host.bw_acc = 1e9;
  host.static_power_w = 1.5;
  const SystemConfig sys(std::move(accs), host);
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  const EnergyBreakdown full = sim.simulate(mapping, plan).energy;
  const EnergyBreakdown agg = inc.result(mapping).energy;
  const EnergyBreakdown fast = inc.energy(mapping);
  EXPECT_GT(full.static_power, 0.0);
  for (const EnergyBreakdown& e : {agg, fast}) {
    EXPECT_DOUBLE_EQ(e.compute, full.compute);
    EXPECT_DOUBLE_EQ(e.link, full.link);
    EXPECT_DOUBLE_EQ(e.dram, full.dram);
    EXPECT_DOUBLE_EQ(e.static_power, full.static_power);
    EXPECT_DOUBLE_EQ(e.total(), full.total());
  }
}

TEST(Incremental, JournalRollbackRestoresScheduleExactly) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  const double latency_before = inc.latency();

  // Probe a move under all three journals, then roll everything back.
  LayerId victim{};
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::FullyConnected) victim = id;
  ASSERT_TRUE(victim.valid());
  const AccId src = mapping.acc_of(victim);
  const AccId dst = src == AccId{1} ? AccId{2} : AccId{1};

  mapping.begin_journal();
  plan.begin_journal();
  inc.begin_journal();
  mapping.reassign(victim, dst);
  const std::array<AccId, 2> touched{src, dst};
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  std::vector<LayerId> dirty;
  plan.journal_touched_layers(m, dirty);
  inc.apply_remap(mapping, plan, victim, src, dirty);
  inc.rollback_journal();
  plan.rollback_journal();
  mapping.rollback_journal();

  EXPECT_EQ(mapping.acc_of(victim), src);
  EXPECT_DOUBLE_EQ(inc.latency(), latency_before);
  expect_same_timings(inc, sim, mapping, plan);

  // The rolled-back schedule must still accept further remaps correctly
  // (queues and positions restored, not just timings).
  mapping.reassign(victim, dst);
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  inc.apply_remap(mapping, plan, victim, src);
  expect_same_timings(inc, sim, mapping, plan);
}

// The overlay probe must return exactly the makespan applying the move
// would produce — bit for bit — while leaving the committed schedule, its
// queues, and its timings untouched (no journal involved at all).
TEST(Incremental, ProbeRemapMatchesApplyAndLeavesStateUntouched) {
  const ModelGraph m = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);
  const double latency_before = inc.latency();

  LayerId victim{};
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::FullyConnected) victim = id;
  ASSERT_TRUE(victim.valid());
  const AccId src = mapping.acc_of(victim);
  const AccId dst = src == AccId{1} ? AccId{2} : AccId{1};
  const std::array<AccId, 2> touched{src, dst};

  // Probe under the mapping/plan journals only — the schedule needs none.
  mapping.begin_journal();
  plan.begin_journal();
  mapping.reassign(victim, dst);
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  std::vector<LayerId> dirty;
  plan.journal_touched_layers(m, dirty);
  const double probed = inc.probe_remap(mapping, plan, victim, src, dirty);
  const double probed_energy = inc.probe_energy(mapping).total();
  EXPECT_DOUBLE_EQ(probed, sim.simulate(mapping, plan).latency);

  // Committed schedule untouched by the probe.
  EXPECT_DOUBLE_EQ(inc.latency(), latency_before);
  plan.rollback_journal();
  mapping.rollback_journal();
  expect_same_timings(inc, sim, mapping, plan);

  // Apply for real: the probed numbers were exact.
  mapping.reassign(victim, dst);
  optimize_weight_locality(sim, mapping, plan, {}, touched);
  optimize_activation_fusion(sim, mapping, plan, {}, touched);
  inc.apply_remap(mapping, plan, victim, src);
  EXPECT_DOUBLE_EQ(inc.latency(), probed);
  EXPECT_DOUBLE_EQ(inc.energy(mapping).total(), probed_energy);
  expect_same_timings(inc, sim, mapping, plan);
}

// Property: a random sequence of remaps tracked incrementally stays
// bit-identical to full re-simulation.
class IncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalProperty, RandomRemapSequenceStaysConsistent) {
  Rng rng(GetParam());
  const ModelGraph m = testing::make_random_model(rng);
  const SystemConfig sys = testing::make_random_system(rng);
  const Simulator sim(m, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(m);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);

  IncrementalSchedule inc(sim);
  inc.reset(mapping, plan);

  const std::vector<LayerId> layers = m.all_layers();
  for (int step = 0; step < 10; ++step) {
    // Pick a random movable layer and a random supporting destination.
    const LayerId node = layers[rng.index(layers.size())];
    if (m.layer(node).kind == LayerKind::Input) continue;
    const auto cands = sys.supporting(m.layer(node).kind);
    const AccId dst = cands[rng.index(cands.size())];
    const AccId src = mapping.acc_of(node);
    if (dst == src) continue;

    mapping.reassign(node, dst);
    const std::array<AccId, 2> touched{src, dst};
    optimize_weight_locality(sim, mapping, plan, {}, touched);
    optimize_activation_fusion(sim, mapping, plan, {}, touched);
    inc.apply_remap(mapping, plan, node, src);

    const ScheduleResult full = sim.simulate(mapping, plan);
    ASSERT_DOUBLE_EQ(inc.latency(), full.latency) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalProperty,
                         ::testing::Range<std::uint64_t>(1, 16));

// Property: the reject_at bound (probe_remap) only ever stops a probe whose
// makespan the unbounded oracle puts at or above the threshold. Seeded
// interleavings of probes, accepted applies, and journaled apply/rollback
// cycles run on every zoo model over uniform, mixed, and hierarchical links;
// every bounded probe either returns the oracle's makespan bit for bit or
// returns +inf while the oracle's makespan is >= reject_at, and never
// re-times more layers than the oracle. The thresholds straddle the exact
// makespan by one ulp, so a bound read from stale bottom levels (an apply or
// a rollback that failed to invalidate them) shows up as a wrong stop.
using RejectBoundParam = std::tuple<std::uint64_t, int>;
class RejectBoundProperty
    : public ::testing::TestWithParam<RejectBoundParam> {};

SystemConfig shaped_system(int shape) {
  switch (shape) {
    case 1: {  // mixed: every third uplink 10x faster
      std::vector<Interconnect::Override> fast;
      for (std::uint32_t i = 0; i < 12; i += 3)
        fast.emplace_back(i, gbps(1.25));
      return SystemConfig::standard(
          Interconnect::mixed(gbps(0.125), std::move(fast)));
    }
    case 2: {  // hierarchical: fast groups, slow fabric, per-hop latency
      Interconnect::HierarchicalSpec spec;
      spec.group_size = 4;
      spec.intra_bw = gbps(1.25);
      spec.uplink_bw = gbps(0.25);
      spec.host_bw = gbps(0.125);
      spec.hop_latency_s = 1e-6;
      return SystemConfig::standard(Interconnect::hierarchical(spec));
    }
    default:
      return SystemConfig::standard(gbps(0.125));
  }
}

TEST_P(RejectBoundProperty, StopsOnlyProbesTheOracleRejects) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const int shape = std::get<1>(GetParam());
  const SystemConfig sys = shaped_system(shape);
  ASSERT_EQ(sys.links().uniform_links(), shape == 0);

  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::uint64_t stopped = 0;
  for (const ZooInfo& info : zoo_catalog()) {
    SCOPED_TRACE(std::string(info.key));
    Rng rng(0xB0DD0000 + 16 * seed + static_cast<std::uint64_t>(info.id));
    const ModelGraph m = make_model(info.id);
    const Simulator sim(m, sys);
    Mapping mapping = computation_prioritized_mapping(sim);
    LocalityPlan plan(m);
    plan.ensure_acc_count(sys.accelerator_count());
    optimize_weight_locality(sim, mapping, plan);
    optimize_activation_fusion(sim, mapping, plan);

    IncrementalSchedule bounded(sim);
    IncrementalSchedule oracle(sim);
    bounded.reset(mapping, plan);
    oracle.reset(mapping, plan);

    const std::vector<LayerId> layers = m.all_layers();
    std::vector<LayerId> dirty;
    // Draws a movable (node, dst) pair; false when the draw is unusable.
    const auto draw = [&](const Mapping& on, LayerId& node, AccId& dst) {
      node = layers[rng.index(layers.size())];
      if (m.layer(node).kind == LayerKind::Input) return false;
      const auto cands = sim.costs().supporting(m.layer(node).kind);
      if (cands.empty()) return false;
      dst = cands[rng.index(cands.size())];
      return dst != on.acc_of(node);
    };
    // Opens the mapping/plan journals on `mv`/`mp`, applies the move with
    // steps 2-3 on the touched pair, and fills `dirty` as the remap loop
    // does.
    const auto open_move = [&](Mapping& mv, LocalityPlan& mp, LayerId node,
                               AccId src, AccId dst) {
      const std::array<AccId, 2> touched{src, dst};
      mv.begin_journal();
      mp.begin_journal();
      mv.reassign(node, dst);
      optimize_weight_locality(sim, mv, mp, {}, touched);
      optimize_activation_fusion(sim, mv, mp, {}, touched);
      dirty.clear();
      mp.journal_touched_layers(m, dirty);
      if (!sim.costs().uniform_links())
        for (const LayerId s : m.graph().succs(node)) dirty.push_back(s);
    };
    // Bounded probes at thresholds around the oracle's makespan.
    const auto check_probes = [&](const Mapping& mv, const LocalityPlan& mp,
                                  LayerId node, AccId src) {
      const std::uint64_t oracle_before = oracle.retime_count();
      const double exact = oracle.probe_remap(mv, mp, node, src, dirty);
      const std::uint64_t oracle_work = oracle.retime_count() - oracle_before;
      ASSERT_LT(exact, kInf);
      const double committed = bounded.latency();
      const std::array<double, 8> thresholds{
          exact,
          std::nextafter(exact, 0.0),
          std::nextafter(exact, kInf),
          committed - 1e-12,  // the remap loop's first threshold
          committed,
          0.5 * exact,
          2.0 * exact,
          rng.uniform_real(0.5 * exact, 1.5 * exact)};
      for (const double reject_at : thresholds) {
        const std::uint64_t before = bounded.retime_count();
        const double got =
            bounded.probe_remap(mv, mp, node, src, dirty, reject_at);
        if (got == kInf) {
          ++stopped;
          ASSERT_GE(exact, reject_at) << "stopped a probe the oracle accepts";
        } else {
          ASSERT_EQ(bits(got), bits(exact)) << "reject_at " << reject_at;
        }
        ASSERT_LE(bounded.retime_count() - before, oracle_work);
      }
    };

    int probes = 0;
    for (int step = 0; step < 40; ++step) {
      LayerId node;
      AccId dst;
      if (!draw(mapping, node, dst)) continue;
      const AccId src = mapping.acc_of(node);
      open_move(mapping, plan, node, src, dst);
      check_probes(mapping, plan, node, src);
      if (::testing::Test::HasFatalFailure()) return;
      ++probes;

      if (step % 3 == 0) {  // accept: the next probe runs right after it
        bounded.apply_remap(mapping, plan, node, src, dirty);
        oracle.apply_remap(mapping, plan, node, src, dirty);
        plan.commit_journal();
        mapping.commit_journal();
        ASSERT_EQ(bits(bounded.latency()), bits(oracle.latency()));
        continue;
      }
      plan.rollback_journal();
      mapping.rollback_journal();
      if (step % 3 == 1) {
        // Journaled apply on a copy, a bounded probe on the applied state
        // (bottom levels rebuilt there), then the schedule rollback: the
        // next probe runs right after it, back on `mapping`/`plan`.
        Mapping applied = mapping;
        LocalityPlan applied_plan = plan;
        open_move(applied, applied_plan, node, src, dst);
        applied_plan.commit_journal();
        applied.commit_journal();
        bounded.begin_journal();
        oracle.begin_journal();
        bounded.apply_remap(applied, applied_plan, node, src, dirty);
        oracle.apply_remap(applied, applied_plan, node, src, dirty);
        LayerId next;
        AccId next_dst;
        if (draw(applied, next, next_dst)) {
          const AccId next_src = applied.acc_of(next);
          open_move(applied, applied_plan, next, next_src, next_dst);
          check_probes(applied, applied_plan, next, next_src);
          if (::testing::Test::HasFatalFailure()) return;
          applied_plan.rollback_journal();
          applied.rollback_journal();
        }
        bounded.rollback_journal();
        oracle.rollback_journal();
      }
    }
    ASSERT_GT(probes, 0);
    // Both schedules committed the same moves; the bound never writes
    // committed state, so the two agree bit for bit and with the simulator.
    const ScheduleResult full = sim.simulate(mapping, plan);
    for (const LayerId id : layers) {
      ASSERT_EQ(bits(bounded.timing(id).start), bits(oracle.timing(id).start));
      ASSERT_EQ(bits(bounded.timing(id).finish),
                bits(oracle.timing(id).finish));
      EXPECT_DOUBLE_EQ(bounded.timing(id).finish, full.timings[id.value].finish)
          << "layer " << id.value;
    }
    EXPECT_DOUBLE_EQ(bounded.latency(), full.latency);
  }
  EXPECT_GT(stopped, 0u);  // the bound fired, so the property was exercised
}

std::string reject_bound_param_name(
    const ::testing::TestParamInfo<RejectBoundParam>& info) {
  const char* shape = "uniform";
  if (std::get<1>(info.param) == 1) shape = "mixed";
  if (std::get<1>(info.param) == 2) shape = "hierarchical";
  return std::string(shape) + "_seed" + std::to_string(std::get<0>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndShapes, RejectBoundProperty,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 6),
                       ::testing::Values(0, 1, 2)),
    reject_bound_param_name);

}  // namespace
}  // namespace h2h
