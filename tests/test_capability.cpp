#include <gtest/gtest.h>

#include "accel/capability.h"
#include "accel/catalog.h"
#include "core/planner.h"
#include "system/cost_table.h"
#include "system/simulator.h"
#include "test_helpers.h"
#include "util/error.h"

namespace h2h {
namespace {

TEST(CapabilityTest, CanServeIsSupersetMatch) {
  EXPECT_TRUE(can_serve(0b111, 0b101));
  EXPECT_TRUE(can_serve(0b111, 0));
  EXPECT_TRUE(can_serve(0, 0));
  EXPECT_FALSE(can_serve(0b101, 0b111));
  EXPECT_FALSE(can_serve(0, 1));
}

TEST(CapabilityTest, SpecCapabilitiesDeriveKindAndMemoryBits) {
  AcceleratorSpec spec = testing::simple_spec("caps", gib(8));
  // simple_spec supports every kind at 10 GB/s local DRAM: big memory but
  // not the 16 GB/s fast-memory class.
  const CapabilityMask m = spec_capabilities(spec);
  EXPECT_TRUE(can_serve(m, kCapConv | kCapFc | kCapLstm | kCapBigMem));
  EXPECT_FALSE(can_serve(m, kCapFastMem));

  spec.dram_capacity = gib(1);
  spec.dram_bandwidth = gbps(20);
  const CapabilityMask m2 = spec_capabilities(spec);
  EXPECT_FALSE(can_serve(m2, kCapBigMem));
  EXPECT_TRUE(can_serve(m2, kCapFastMem));

  spec.extra_capabilities = 0x300;
  EXPECT_TRUE(can_serve(spec_capabilities(spec), 0x300));
}

TEST(CapabilityTest, StandardCatalogMemoryClasses) {
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  std::size_t bigmem = 0, fastmem = 0;
  for (const AccId a : sys.all_accelerators()) {
    const CapabilityMask m = sys.capabilities(a);
    EXPECT_EQ(can_serve(m, kCapBigMem), sys.spec(a).dram_capacity >= gib(4));
    EXPECT_EQ(can_serve(m, kCapFastMem),
              sys.spec(a).dram_bandwidth >= gbps(16));
    bigmem += can_serve(m, kCapBigMem);
    fastmem += can_serve(m, kCapFastMem);
  }
  // Table-3 catalog: W.J / Y.G / A.P / S.H / B.L have >= 4 GiB boards.
  EXPECT_EQ(bigmem, 5u);
  EXPECT_EQ(fastmem, 5u);
}

TEST(CapabilityTest, ParseAndFormatRoundTrip) {
  EXPECT_EQ(parse_caps_spec("conv+bigmem"), kCapConv | kCapBigMem);
  EXPECT_EQ(parse_caps_spec("none"), 0u);
  EXPECT_EQ(parse_caps_spec(""), 0u);
  EXPECT_EQ(parse_caps_spec("0x100"), 0x100u);
  EXPECT_EQ(parse_caps_spec("lstm+0x100"), kCapLstm | 0x100u);

  EXPECT_EQ(format_caps(0), "none");
  EXPECT_EQ(format_caps(kCapConv | kCapBigMem), "conv+bigmem");
  EXPECT_EQ(parse_caps_spec(format_caps(kCapFc | kCapFastMem | 0x200)),
            kCapFc | kCapFastMem | 0x200u);

  EXPECT_THROW((void)parse_caps_spec("conv+warp"), ConfigError);
  EXPECT_THROW((void)parse_caps_spec("conv++fc"), ConfigError);
}

TEST(CapabilityTest, ZeroCapsCandidatesAreTheKindSpan) {
  const ModelGraph model = testing::make_mini_mmmt_model();
  const SystemConfig sys = testing::make_mini_hetero_system();
  const CostTable costs(model, sys);
  for (const LayerId id : model.all_layers()) {
    const LayerKind kind = model.layer(id).kind;
    const std::span<const AccId> cand = costs.candidates(id, kind);
    const std::span<const AccId> kind_span = costs.supporting(kind);
    // Same pointer, not just same contents: no CSR exists for mask-free
    // models, so the pre-capability fast path is untouched.
    EXPECT_EQ(cand.data(), kind_span.data());
    EXPECT_EQ(cand.size(), kind_span.size());
  }
}

TEST(CapabilityTest, MaskFiltersCandidatesAndCostCells) {
  ModelGraph model = testing::make_mini_mmmt_model();
  model.stamp_required_caps(kCapBigMem);
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  const CostTable costs(model, sys);
  for (const LayerId id : model.all_layers()) {
    const Layer& layer = model.layer(id);
    if (layer.kind == LayerKind::Input) {
      EXPECT_TRUE(costs.candidates(id, layer.kind).empty());
      continue;
    }
    const std::span<const AccId> cand = costs.candidates(id, layer.kind);
    ASSERT_FALSE(cand.empty());
    for (const AccId a : cand) {
      EXPECT_TRUE(can_serve(sys.capabilities(a), kCapBigMem));
      EXPECT_TRUE(costs.supported(id, a));
    }
    // Excluded accelerators lose their supported bit too, so step 4's
    // neighbour generator and Mapping::validate see the same admission rule.
    for (const AccId a : costs.supporting(layer.kind)) {
      if (!can_serve(sys.capabilities(a), kCapBigMem)) {
        EXPECT_FALSE(costs.supported(id, a));
      }
    }
  }
}

TEST(CapabilityTest, InfeasibleMaskThrowsCapabilityError) {
  ModelGraph model = testing::make_chain_model();
  model.stamp_required_caps(0x100);  // no catalog accelerator has this bit
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  EXPECT_THROW((void)CostTable(model, sys), CapabilityError);
}

TEST(CapabilityTest, PlansRespectTheMask) {
  ModelGraph model = testing::make_mini_mmmt_model();
  model.stamp_required_caps(kCapBigMem);
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  const PlanResponse r = plan_once(model, sys);
  for (const LayerId id : model.all_layers()) {
    if (model.layer(id).kind == LayerKind::Input) continue;
    EXPECT_TRUE(
        can_serve(sys.capabilities(r.mapping.acc_of(id)), kCapBigMem));
  }
  r.mapping.validate(model, sys);
}

TEST(CapabilityTest, ValidateRejectsCapabilityViolations) {
  ModelGraph model = testing::make_chain_model();
  model.stamp_required_caps(kCapFastMem);
  const SystemConfig sys = SystemConfig::standard(0.5e9);
  // J.Q (index 3) supports the chain's conv/fc kinds but is not in the
  // fast-memory class, so the mask check alone must reject the mapping.
  Mapping m(model);
  for (const LayerId id : model.all_layers())
    if (model.layer(id).kind != LayerKind::Input) m.assign(id, AccId{3});
  EXPECT_FALSE(can_serve(sys.capabilities(AccId{3}), kCapFastMem));
  EXPECT_THROW(m.validate(model, sys), CapabilityError);
}

TEST(CapabilityTest, FingerprintSeesTheMask) {
  const ModelGraph plain = testing::make_chain_model();
  ModelGraph stamped = testing::make_chain_model();
  stamped.stamp_required_caps(kCapBigMem);
  EXPECT_NE(model_fingerprint(plain), model_fingerprint(stamped));
}

}  // namespace
}  // namespace h2h
