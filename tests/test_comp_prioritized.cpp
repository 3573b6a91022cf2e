#include <gtest/gtest.h>

#include <limits>

#include "core/comp_prioritized.h"
#include "graph/algorithms.h"
#include "test_helpers.h"
#include "util/error.h"

namespace h2h {
namespace {

using testing::make_chain_model;
using testing::make_mini_hetero_system;
using testing::make_mini_mmmt_model;

TEST(CompPrioritized, ProducesCompleteValidMapping) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  EXPECT_TRUE(mapping.complete());
  EXPECT_NO_THROW(mapping.validate(m, sys));
}

TEST(CompPrioritized, SequenceIsTopological) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  for (const LayerId id : m.all_layers())
    for (const LayerId s : m.graph().succs(id))
      EXPECT_LT(mapping.seq_of(id), mapping.seq_of(s));
}

TEST(CompPrioritized, RespectsKindSupport) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  for (const LayerId id : m.all_layers()) {
    const Layer& l = m.layer(id);
    if (l.kind == LayerKind::Input) continue;
    EXPECT_TRUE(sys.accelerator(mapping.acc_of(id)).supports(l.kind))
        << l.name;
  }
  // In the mini system, LSTMs can only live on the LSTM specialist.
  for (const LayerId id : m.all_layers()) {
    if (m.layer(id).kind == LayerKind::Lstm) {
      EXPECT_EQ(mapping.acc_of(id), AccId{2});
    }
  }
}

TEST(CompPrioritized, DeterministicAcrossRuns) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping a = computation_prioritized_mapping(sim);
  const Mapping b = computation_prioritized_mapping(sim);
  for (const LayerId id : m.all_layers()) {
    EXPECT_EQ(a.acc_of(id), b.acc_of(id));
    EXPECT_EQ(a.seq_of(id), b.seq_of(id));
  }
}

TEST(CompPrioritized, PrefersFasterAcceleratorForConv) {
  // A single conv layer must land on the conv champion (acc 0: 1000 MAC/c),
  // not on the generic engine (200 MAC/c).
  const ModelGraph m = make_chain_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  EXPECT_EQ(mapping.acc_of(LayerId{1}), AccId{0});
  EXPECT_EQ(mapping.acc_of(LayerId{2}), AccId{0});
}

TEST(CompPrioritized, ChunkingUnderTinyCandidateBudget) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  CompPrioritizedOptions opts;
  opts.max_candidates = 2;  // forces single-node chunks
  const Mapping mapping = computation_prioritized_mapping(sim, opts);
  EXPECT_TRUE(mapping.complete());
  EXPECT_NO_THROW(mapping.validate(m, sys));
}

TEST(CompPrioritized, ExhaustiveBeatsOrMatchesGreedyChunks) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  const LocalityPlan zero(m);

  CompPrioritizedOptions greedy;
  greedy.max_candidates = 1;
  const double lat_greedy =
      sim.simulate(computation_prioritized_mapping(sim, greedy), zero).latency;
  const double lat_full =
      sim.simulate(computation_prioritized_mapping(sim), zero).latency;
  EXPECT_LE(lat_full, lat_greedy + 1e-12);
}

TEST(CompPrioritized, PreferredHookPinsPlacement) {
  const ModelGraph m = make_chain_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  CompPrioritizedOptions opts;
  // Force the convs onto the slow generic engine; host prefers nothing.
  std::vector<AccId> preferred(m.layer_count(), AccId::host());
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::Conv) preferred[id.value] = AccId{1};
  opts.preferred = &preferred;
  const Mapping mapping = computation_prioritized_mapping(sim, opts);
  EXPECT_EQ(mapping.acc_of(LayerId{1}), AccId{1});
  EXPECT_EQ(mapping.acc_of(LayerId{2}), AccId{1});
}

TEST(CompPrioritized, PreferredHookIgnoredWhenUnsupported) {
  const ModelGraph m = make_chain_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);
  CompPrioritizedOptions opts;
  // Conv-only accelerator cannot take the FC; preference must be dropped.
  const std::vector<AccId> preferred(m.layer_count(), AccId{0});
  opts.preferred = &preferred;
  const Mapping mapping = computation_prioritized_mapping(sim, opts);
  EXPECT_NO_THROW(mapping.validate(m, sys));
  EXPECT_NE(mapping.acc_of(LayerId{3}), AccId{0});
}

TEST(CompPrioritized, ThrowsWhenNoAcceleratorSupportsKind) {
  ModelBuilder b("lstm-only");
  const LayerId in = b.input_seq("in", 8, 4);
  (void)b.lstm("l", in, 8, 1);
  const ModelGraph m = std::move(b).build();

  std::vector<AcceleratorPtr> accs;
  AcceleratorSpec conv_only = testing::simple_spec("C", gib(1));
  conv_only.kinds = KindSupport{true, false, false};
  accs.push_back(make_analytical(std::move(conv_only)));
  const SystemConfig sys(std::move(accs), HostParams{1e9, 0.0});
  const Simulator sim(m, sys);
  EXPECT_THROW((void)computation_prioritized_mapping(sim), ConfigError);
}

TEST(CompPrioritized, TiesKeepTheFirstEnumeratedAssignment) {
  // Two identical branch convs (b, c) on two identical accelerators after a
  // shared predecessor a: assignments (b->1, c->0) and (b->0, c->1) tie
  // exactly on (makespan, finish-sum). The documented rule keeps the FIRST
  // enumerated assignment — enumeration varies b's candidate fastest, so
  // (b->1, c->0) is reached before (b->0, c->1) and must win. (A plain
  // lexicographic choice-index tie-break would pick b->0 instead; this test
  // pins the actual colexicographic rule.)
  const ModelGraph m = testing::make_diamond_model();
  const SystemConfig sys = testing::make_uniform_system(2);
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  // Layer ids: in=0, a=1, b=2, c=3, d=4, e=5.
  EXPECT_EQ(mapping.acc_of(LayerId{1}), AccId{0});  // singleton wave: acc 0
  EXPECT_EQ(mapping.acc_of(LayerId{2}), AccId{1});
  EXPECT_EQ(mapping.acc_of(LayerId{3}), AccId{0});
}

TEST(CompPrioritized, BalancesIndependentBranchesAcrossAccelerators) {
  // Two identical independent conv branches and two identical conv-capable
  // accelerators: the delta-latency rule must parallelize them.
  ModelBuilder b("twin");
  const LayerId i1 = b.input("i1", 8, 32, 32);
  const LayerId i2 = b.input("i2", 8, 32, 32);
  const LayerId c1 = b.conv("c1", i1, 32, 3, 1);
  const LayerId c2 = b.conv("c2", i2, 32, 3, 1);
  (void)c1;
  (void)c2;
  const ModelGraph m = std::move(b).build();
  const SystemConfig sys = testing::make_uniform_system(2);
  const Simulator sim(m, sys);
  const Mapping mapping = computation_prioritized_mapping(sim);
  EXPECT_NE(mapping.acc_of(c1), mapping.acc_of(c2));
}

// A wave of identical parallel convolutions on identical accelerators: every
// permutation of an assignment reaches the same per-accelerator tail vector,
// so (makespan, finish-sum) ties are everywhere and the tie-break decides.
[[nodiscard]] ModelGraph make_symmetric_wave_model(std::uint32_t width) {
  ModelBuilder b("sym-wave");
  const LayerId in = b.input("in", 8, 32, 32);
  std::vector<LayerId> branches;
  for (std::uint32_t i = 0; i < width; ++i)
    branches.push_back(b.conv(strformat("c%u", i), in, 32, 3, 1));
  (void)b.concat("cat", branches);
  return std::move(b).build();
}

// Step 1 written out literally, independent of the pruned DFS: waves from a
// frontier() rescan, the same max_candidates chunk split, then every
// assignment of a chunk enumerated as a mixed-radix counter with choice[0]
// varying fastest. An assignment replaces the incumbent only when strictly
// better on (makespan, finish-sum), so on a tie the first enumerated wins.
[[nodiscard]] Mapping exhaustive_step1(const Simulator& sim,
                                       std::uint64_t max_candidates) {
  const ModelGraph& m = sim.model();
  const CostTable& costs = sim.costs();
  Mapping mapping(m);
  std::vector<bool> done(m.layer_count(), false);
  for (const LayerId id : m.all_layers())
    if (m.layer(id).kind == LayerKind::Input) done[id.value] = true;
  std::vector<double> finish(m.layer_count(), 0.0);
  std::vector<double> acc_tail(sim.sys().accelerator_count(), 0.0);
  double makespan = 0.0;

  for (std::vector<LayerId> front = frontier(m.graph(), done); !front.empty();
       front = frontier(m.graph(), done)) {
    std::vector<std::span<const AccId>> cand;
    std::vector<double> ready;
    for (const LayerId id : front) {
      cand.push_back(costs.candidates(id, m.layer(id).kind));
      double r = 0.0;
      for (const LayerId p : m.graph().preds(id))
        r = std::max(r, finish[p.value]);
      ready.push_back(r);
    }
    for (std::size_t begin = 0, end; begin < front.size(); begin = end) {
      std::uint64_t product = 1;
      for (end = begin; end < front.size(); ++end) {
        const std::uint64_t next = product * cand[end].size();
        if (end > begin && next > max_candidates) break;
        product = next;
      }
      const std::size_t k = end - begin;
      std::vector<std::uint32_t> choice(k, 0), best;
      double best_mk = std::numeric_limits<double>::infinity();
      double best_sum = std::numeric_limits<double>::infinity();
      for (std::uint64_t r = 0; r < product; ++r) {
        std::vector<double> tails = acc_tail;
        double mk = makespan, sum = 0.0;
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t n = begin + i;
          const AccId a = cand[n][choice[i]];
          const double fin = std::max(ready[n], tails[a.value]) +
                             costs.unlocalized_row(front[n])[a.value];
          tails[a.value] = fin;
          mk = std::max(mk, fin);
          sum += fin;
        }
        if (mk < best_mk || (mk == best_mk && sum < best_sum)) {
          best_mk = mk;
          best_sum = sum;
          best = choice;
        }
        for (std::size_t i = 0; i < k; ++i) {  // next, choice[0] fastest
          if (++choice[i] < cand[begin + i].size()) break;
          choice[i] = 0;
        }
      }
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t n = begin + i;
        const AccId a = cand[n][best[i]];
        mapping.assign(front[n], a);
        const double fin = std::max(ready[n], acc_tail[a.value]) +
                           costs.unlocalized_row(front[n])[a.value];
        acc_tail[a.value] = finish[front[n].value] = fin;
        makespan = std::max(makespan, fin);
        done[front[n].value] = true;
      }
    }
  }
  return mapping;
}

void expect_matches_oracle(const Simulator& sim, const std::string& what,
                           std::uint64_t max_candidates =
                               CompPrioritizedOptions{}.max_candidates) {
  CompPrioritizedOptions opt;
  opt.max_candidates = max_candidates;
  const Mapping got = computation_prioritized_mapping(sim, opt);
  const Mapping want = exhaustive_step1(sim, max_candidates);
  for (const LayerId id : sim.model().all_layers()) {
    ASSERT_EQ(got.acc_of(id), want.acc_of(id))
        << what << ": layer " << id.value;
    ASSERT_EQ(got.seq_of(id), want.seq_of(id))
        << what << ": layer " << id.value;
  }
}

// The bound prune and the batched leaf sweep are pure optimizations: step 1
// must land on exactly the mapping the literal enumeration picks.
TEST(CompPrioritized, MatchesExhaustiveOracle) {
  for (const ZooModel zm :
       {ZooModel::VLocNet, ZooModel::CasiaSurf, ZooModel::Vfs,
        ZooModel::FaceBag, ZooModel::CnnLstm, ZooModel::MoCap}) {
    const ModelGraph m = make_model(zm);
    for (const double bw : {0.125e9, 0.5e9}) {
      const SystemConfig sys = SystemConfig::standard(bw);
      expect_matches_oracle(Simulator(m, sys),
                            strformat("%s @ %g", zoo_info(zm).key.data(), bw));
    }
  }
  const SystemConfig three = testing::make_uniform_system(3);
  for (const std::uint32_t width : {4u, 6u})
    expect_matches_oracle(Simulator(make_symmetric_wave_model(width), three),
                          strformat("sym-wave %u", width));
  expect_matches_oracle(
      Simulator(testing::make_diamond_model(), testing::make_uniform_system(2)),
      "diamond");
  const ModelGraph mini = make_mini_mmmt_model();
  const SystemConfig hetero = make_mini_hetero_system();
  for (const std::uint64_t cap : {1u, 2u, 4u})
    expect_matches_oracle(Simulator(mini, hetero),
                          strformat("mini max_candidates=%u", unsigned(cap)),
                          cap);
}

// Stats sanity on a mini model: wave/chunk accounting is exact and
// evaluation counts are positive.
TEST(CompPrioritized, StatsAccounting) {
  const ModelGraph m = make_mini_mmmt_model();
  const SystemConfig sys = make_mini_hetero_system();
  const Simulator sim(m, sys);

  CompPrioritizedOptions opt;
  CompPrioritizedStats st;
  opt.stats = &st;
  (void)computation_prioritized_mapping(sim, opt);
  EXPECT_GT(st.waves, 0u);
  EXPECT_GE(st.chunks, st.waves);
  EXPECT_GT(st.evaluated, 0u);
}

}  // namespace
}  // namespace h2h
