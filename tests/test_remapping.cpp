#include <gtest/gtest.h>

#include <bit>
#include <tuple>
#include <utility>

#include "core/comp_prioritized.h"
#include "core/remapping.h"
#include "test_helpers.h"

namespace h2h {
namespace {

struct Prepared {
  ModelGraph model;
  SystemConfig sys;
  Mapping mapping;
  LocalityPlan plan;
};

Prepared prepare(ModelGraph model, SystemConfig sys) {
  const Simulator sim(model, sys);
  Mapping mapping = computation_prioritized_mapping(sim);
  LocalityPlan plan(model);
  plan.ensure_acc_count(sys.accelerator_count());
  optimize_weight_locality(sim, mapping, plan);
  optimize_activation_fusion(sim, mapping, plan);
  return Prepared{std::move(model), std::move(sys), std::move(mapping),
                  std::move(plan)};
}

TEST(Remapping, NeverIncreasesLatency) {
  Prepared p = prepare(testing::make_mini_mmmt_model(),
                       testing::make_mini_hetero_system(0.125e9));
  const Simulator sim(p.model, p.sys);
  const double before = sim.simulate(p.mapping, p.plan).latency;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
  const double after = sim.simulate(p.mapping, p.plan).latency;
  EXPECT_LE(after, before);
  EXPECT_GE(stats.passes, 1u);
  EXPECT_GE(stats.attempts, stats.accepted);
}

TEST(Remapping, MappingStaysValidAfterMoves) {
  Prepared p = prepare(make_model(ZooModel::MoCap),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  (void)data_locality_remapping(sim, p.mapping, p.plan);
  EXPECT_NO_THROW(p.mapping.validate(p.model, p.sys));
}

TEST(Remapping, IncrementalAndFullResimAgree) {
  const auto run = [](bool use_inc) {
    Prepared p = prepare(make_model(ZooModel::CnnLstm),
                         SystemConfig::standard(BandwidthSetting::LowMinus));
    const Simulator sim(p.model, p.sys);
    RemapOptions opts;
    opts.use_incremental = use_inc;
    (void)data_locality_remapping(sim, p.mapping, p.plan, opts);
    return sim.simulate(p.mapping, p.plan).latency;
  };
  const double full = run(false);
  const double incremental = run(true);
  EXPECT_NEAR(incremental, full, full * 1e-9);
}

// The delta-evaluated probe path (member lists + delta steps-2/3 + overlay
// schedule probe + knapsack cache) must land on exactly the state the full
// touched-pair re-runs produce: same moves, same pins/fusion, same latency
// bit for bit, across the zoo at both a low and a mid bandwidth point.
TEST(Remapping, DeltaAndFullLocalityPassesAgreeBitExactly) {
  for (const ZooInfo& info : zoo_catalog()) {
    for (const BandwidthSetting bw :
         {BandwidthSetting::LowMinus, BandwidthSetting::Mid}) {
      const auto run = [&](bool use_delta) {
        Prepared p = prepare(make_model(info.id), SystemConfig::standard(bw));
        const Simulator sim(p.model, p.sys);
        RemapOptions opts;
        opts.use_delta_locality = use_delta;
        const RemapStats stats =
            data_locality_remapping(sim, p.mapping, p.plan, opts);
        const double latency = sim.simulate(p.mapping, p.plan).latency;
        return std::tuple{std::move(p), stats, latency};
      };
      const auto [full, full_stats, full_lat] = run(false);
      const auto [delta, delta_stats, delta_lat] = run(true);

      EXPECT_EQ(delta_lat, full_lat) << info.key;  // exact, not approximate
      EXPECT_EQ(delta_stats.attempts, full_stats.attempts) << info.key;
      EXPECT_EQ(delta_stats.accepted, full_stats.accepted) << info.key;
      EXPECT_EQ(delta_stats.passes, full_stats.passes) << info.key;
      for (const LayerId id : full.model.all_layers()) {
        ASSERT_EQ(delta.mapping.acc_of(id), full.mapping.acc_of(id))
            << info.key << " layer " << id.value;
        ASSERT_EQ(delta.plan.pinned(id), full.plan.pinned(id))
            << info.key << " layer " << id.value;
        const auto preds = full.model.graph().preds(id);
        for (std::size_t i = 0; i < preds.size(); ++i)
          ASSERT_EQ(delta.plan.fused_in(id, i), full.plan.fused_in(id, i))
              << info.key << " layer " << id.value << " slot " << i;
      }
      for (const AccId acc : full.sys.all_accelerators())
        ASSERT_EQ(delta.plan.used_dram(acc), full.plan.used_dram(acc))
            << info.key << " acc " << acc.value;
    }
  }
}

// Under DRAM pressure the delta path falls back to real knapsack solves;
// the cache must then serve the repeated source-accelerator instances and
// stay bit-identical to uncached solving.
TEST(Remapping, KnapsackCacheReusesSourceSolvesUnderPressure) {
  // Capacity far below the total weight footprint forces the solver on
  // nearly every probe (the mini MMMT model carries ~25 KiB of weights).
  const auto run = [&](bool use_cache) {
    Prepared p = prepare(testing::make_mini_mmmt_model(),
                         testing::make_uniform_system(3, 0.125e9, kib(8)));
    const Simulator sim(p.model, p.sys);
    RemapOptions opts;
    opts.use_knapsack_cache = use_cache;
    const RemapStats stats =
        data_locality_remapping(sim, p.mapping, p.plan, opts);
    return std::pair{stats, sim.simulate(p.mapping, p.plan).latency};
  };
  const auto [cached, cached_lat] = run(true);
  const auto [uncached, uncached_lat] = run(false);

  EXPECT_GT(cached.delta_full_passes, 0u);  // pressure reached the fallback
  EXPECT_GT(cached.knapsack_misses, 0u);
  EXPECT_GT(cached.knapsack_hits, 0u);  // src solves repeat across probes
  EXPECT_EQ(uncached.knapsack_hits, 0u);
  EXPECT_EQ(uncached.knapsack_misses, 0u);

  // Memoization must not change anything observable.
  EXPECT_EQ(cached_lat, uncached_lat);
  EXPECT_EQ(cached.attempts, uncached.attempts);
  EXPECT_EQ(cached.accepted, uncached.accepted);
}

TEST(Remapping, ReducesHostTrafficAtLowBandwidth) {
  Prepared p = prepare(make_model(ZooModel::CasiaSurf),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  const Bytes host_before = sim.simulate(p.mapping, p.plan).host_bytes;
  (void)data_locality_remapping(sim, p.mapping, p.plan);
  const Bytes host_after = sim.simulate(p.mapping, p.plan).host_bytes;
  EXPECT_LT(host_after, host_before);
}

TEST(Remapping, TerminatesWithinMaxPasses) {
  Prepared p = prepare(make_model(ZooModel::FaceBag),
                       SystemConfig::standard(BandwidthSetting::Low));
  const Simulator sim(p.model, p.sys);
  RemapOptions opts;
  opts.max_passes = 3;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan, opts);
  EXPECT_LE(stats.passes, 3u);
}

TEST(Remapping, NoOpWhenAlreadyOptimal) {
  // Single accelerator: there is nowhere to move anything.
  Prepared p = prepare(testing::make_chain_model(),
                       testing::make_uniform_system(1));
  const Simulator sim(p.model, p.sys);
  const double before = sim.simulate(p.mapping, p.plan).latency;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
  EXPECT_EQ(stats.accepted, 0u);
  EXPECT_DOUBLE_EQ(sim.simulate(p.mapping, p.plan).latency, before);
}

TEST(Remapping, AcceptedMovesMatchLatencyTrajectory) {
  // Strict-decrease acceptance: with zero epsilon tolerance the final
  // latency must be strictly lower than the start when moves were accepted.
  Prepared p = prepare(make_model(ZooModel::MoCap),
                       SystemConfig::standard(BandwidthSetting::LowMinus));
  const Simulator sim(p.model, p.sys);
  const double before = sim.simulate(p.mapping, p.plan).latency;
  const RemapStats stats = data_locality_remapping(sim, p.mapping, p.plan);
  const double after = sim.simulate(p.mapping, p.plan).latency;
  if (stats.accepted > 0) EXPECT_LT(after, before);
  else EXPECT_DOUBLE_EQ(after, before);
}

// Step-4 trajectories recorded before the probe rejection bound and the
// unchanged-layer skip existed, for both objectives. Neither may change a
// decision: passes, accepted moves, final latency and energy (bit for bit),
// and the placement/pinning of every layer must match the recording;
// attempts may only drop (the skip probes fewer layers). The EDP rows run
// unbounded probes, so they pin that the bound stays Latency-only.
TEST(Remapping, TrajectoriesMatchRecordingUnderBothObjectives) {
  constexpr auto kLat = RemapObjective::Latency;
  constexpr auto kEdp = RemapObjective::EnergyDelayProduct;
  constexpr auto kLowMinus = BandwidthSetting::LowMinus;
  constexpr auto kMid = BandwidthSetting::Mid;
  struct Row {
    ZooModel model;
    BandwidthSetting bw;
    RemapObjective objective;
    std::uint32_t passes;
    std::uint32_t accepted;
    std::uint32_t max_attempts;
    std::uint64_t latency_bits;
    std::uint64_t energy_bits;
    std::uint64_t placement_hash;  // FNV-1a over (acc, pinned) per layer
  };
  const Row rows[] = {
      {ZooModel::VLocNet, kLowMinus, kLat, 7, 94, 1632,
       0x3fc4cee9120a53c4, 0x3ffa1f92b5f5d3d4, 0xfe3c2fb12c23e987},
      {ZooModel::VLocNet, kLowMinus, kEdp, 6, 105, 1213,
       0x3fc3ada605ecf1e0, 0x3ff46f53b5d239ea, 0xaf9949e7cd856079},
      {ZooModel::VLocNet, kMid, kLat, 11, 105, 2516,
       0x3fb26deb110b499f, 0x3fee314a0416fb43, 0xfc4946faee846fd2},
      {ZooModel::VLocNet, kMid, kEdp, 8, 110, 1721,
       0x3fb5618de763ef50, 0x3fed159323ad8a0a, 0x59d4616f8a318333},
      {ZooModel::CasiaSurf, kLowMinus, kLat, 6, 46, 508,
       0x3f81b5a5edd5dae9, 0x3fb80a8006d98c9a, 0x43307aaeaf4df148},
      {ZooModel::CasiaSurf, kLowMinus, kEdp, 5, 42, 337,
       0x3f81c5f6a46cb319, 0x3fb4bdd024af02ab, 0xac4f8ab3fe4e4d72},
      {ZooModel::CasiaSurf, kMid, kLat, 4, 20, 316,
       0x3f76d52748bb5ee6, 0x3fb3ab5820640be0, 0xfece165957331716},
      {ZooModel::CasiaSurf, kMid, kEdp, 4, 23, 262,
       0x3f764fad547f36cc, 0x3faf0cd3699e501e, 0x68da4152c5ee49b9},
      {ZooModel::Vfs, kLowMinus, kLat, 2, 2, 80,
       0x3fb373e25b390125, 0x3fe833585183b5e8, 0xf99381dd34a7fd5a},
      {ZooModel::Vfs, kLowMinus, kEdp, 2, 2, 80,
       0x3fb373e25b390125, 0x3fe833585183b5e8, 0xf99381dd34a7fd5a},
      {ZooModel::Vfs, kMid, kLat, 2, 2, 80,
       0x3fb2d46e6217ed83, 0x3fe7ee5d4bcfa815, 0xf99381dd34a7fd5a},
      {ZooModel::Vfs, kMid, kEdp, 2, 2, 80,
       0x3fb2d46e6217ed83, 0x3fe7ee5d4bcfa815, 0xf99381dd34a7fd5a},
      {ZooModel::FaceBag, kLowMinus, kLat, 7, 43, 729,
       0x3f7d80d4c8224ce7, 0x3fb4a1fa40146e7e, 0x76f339daac25e615},
      {ZooModel::FaceBag, kLowMinus, kEdp, 4, 44, 370,
       0x3f7f0cda00559b46, 0x3fb17146b3d56f5b, 0x35c2e7dfe30d9e70},
      {ZooModel::FaceBag, kMid, kLat, 5, 41, 512,
       0x3f736dd70224c4c4, 0x3fadaf591068e118, 0x26fd253dedde7ea4},
      {ZooModel::FaceBag, kMid, kEdp, 5, 43, 381,
       0x3f73421e0ebcbfda, 0x3faab783cbe538d5, 0x8ae1dc77da03f313},
      {ZooModel::CnnLstm, kLowMinus, kLat, 3, 7, 28,
       0x3f74e6306949e25f, 0x3fa1bc3602f1a3fe, 0x32d660a59f5e1abe},
      {ZooModel::CnnLstm, kLowMinus, kEdp, 2, 6, 20,
       0x3f74e6306949e25f, 0x3fa1bc3602f1a3fe, 0x32d660a59f5e1abe},
      {ZooModel::CnnLstm, kMid, kLat, 3, 6, 27,
       0x3f6ae8e8b611f3a0, 0x3f9c532b261690a1, 0x32d660a59f5e1abe},
      {ZooModel::CnnLstm, kMid, kEdp, 2, 5, 19,
       0x3f6ae8e8b611f3a0, 0x3f9c532b261690a1, 0x32d660a59f5e1abe},
      {ZooModel::MoCap, kLowMinus, kLat, 3, 8, 40,
       0x3f66cb53c184c63d, 0x3f9b58ff2377db85, 0x0baa1a7ab7ae2eff},
      {ZooModel::MoCap, kLowMinus, kEdp, 2, 7, 28,
       0x3f66cb53c184c63d, 0x3f9b58ff2377db85, 0x0baa1a7ab7ae2eff},
      {ZooModel::MoCap, kMid, kLat, 2, 5, 26,
       0x3f64780e05741a84, 0x3f96a19a9685174b, 0x0ed7fa5e4d87454c},
      {ZooModel::MoCap, kMid, kEdp, 2, 6, 27,
       0x3f64780e05741a84, 0x3f94eb05b34d68cc, 0x4252905540c39da7},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(std::string(zoo_info(row.model).key) + " @ " +
                 std::string(to_string(row.bw)) +
                 (row.objective == kLat ? " latency" : " edp"));
    Prepared p =
        prepare(make_model(row.model), SystemConfig::standard(row.bw));
    const Simulator sim(p.model, p.sys);
    RemapOptions opts;
    opts.objective = row.objective;
    const RemapStats stats =
        data_locality_remapping(sim, p.mapping, p.plan, opts);
    const ScheduleResult r = sim.simulate(p.mapping, p.plan);
    std::uint64_t hash = 1469598103934665603ull;
    for (const LayerId id : p.model.all_layers()) {
      hash = (hash ^ p.mapping.acc_of(id).value) * 1099511628211ull;
      hash = (hash ^ static_cast<std::uint64_t>(p.plan.pinned(id))) *
             1099511628211ull;
    }
    EXPECT_EQ(stats.passes, row.passes);
    EXPECT_EQ(stats.accepted, row.accepted);
    EXPECT_LE(stats.attempts, row.max_attempts);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.latency), row.latency_bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.energy.total()), row.energy_bits);
    EXPECT_EQ(hash, row.placement_hash);
  }
}

}  // namespace
}  // namespace h2h
