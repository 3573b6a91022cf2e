#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dynamic_modality.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/str.h"

namespace h2h {
namespace {

TEST(SubsetModel, DropsInactiveBranchesTransitively) {
  const ModelGraph full = testing::make_mini_mmmt_model();
  const std::uint32_t active[] = {1};  // image branch only
  const ModelGraph sub = subset_model(full, active);

  EXPECT_LT(sub.layer_count(), full.layer_count());
  for (const LayerId id : sub.all_layers()) {
    const Layer& l = sub.layer(id);
    EXPECT_NE(l.modality, 2u) << l.name;  // no sequence-branch layers
  }
  // The fusion concat survives with a single live input.
  bool has_concat = false;
  for (const LayerId id : sub.all_layers())
    if (sub.layer(id).kind == LayerKind::Concat) {
      has_concat = true;
      EXPECT_EQ(sub.graph().in_degree(id), 1u);
    }
  EXPECT_TRUE(has_concat);
}

TEST(SubsetModel, PreservesLayerIdentity) {
  const ModelGraph full = make_model(ZooModel::MoCap);
  const std::uint32_t active[] = {1, 2};
  const ModelGraph sub = subset_model(full, active);
  // Every kept layer keeps its exact name and parameter count.
  for (const LayerId id : sub.all_layers()) {
    const Layer& sl = sub.layer(id);
    bool found = false;
    for (const LayerId fid : full.all_layers()) {
      if (full.layer(fid).name == sl.name) {
        found = true;
        EXPECT_EQ(full.layer(fid).param_count(), sl.param_count());
      }
    }
    EXPECT_TRUE(found) << sl.name;
  }
}

TEST(SubsetModel, FullActiveSetIsIdentityShape) {
  const ModelGraph full = testing::make_mini_mmmt_model();
  const std::uint32_t active[] = {1, 2};
  const ModelGraph sub = subset_model(full, active);
  EXPECT_EQ(sub.layer_count(), full.layer_count());
  EXPECT_EQ(sub.graph().edge_count(), full.graph().edge_count());
}

TEST(SubsetModel, RejectsAllInactive) {
  const ModelGraph full = testing::make_mini_mmmt_model();
  const std::uint32_t active[] = {99};
  EXPECT_THROW((void)subset_model(full, active), ConfigError);
}

TEST(DynamicModality, ColdStartLoadsEverythingPinned) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  DynamicModalityMapper mapper(sys);
  const ModelGraph full = make_model(ZooModel::MoCap);
  const DynamicRemapResult r = mapper.remap(full);
  EXPECT_EQ(r.weights_reused, 0u);
  EXPECT_GT(r.weights_loaded, 0u);
  EXPECT_DOUBLE_EQ(r.reuse_ratio(), 0.0);
  EXPECT_GT(mapper.resident_layer_count(), 0u);
}

TEST(DynamicModality, RepeatMappingReusesResidentWeights) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  DynamicModalityMapper mapper(sys);
  const ModelGraph full = make_model(ZooModel::MoCap);
  (void)mapper.remap(full);
  const DynamicRemapResult again = mapper.remap(full);
  // Same model, warm residency: the step-1 preference pins placements, so
  // almost all pinned weights are already where they need to be.
  EXPECT_GT(again.reuse_ratio(), 0.9);
}

TEST(DynamicModality, ModalityToggleKeepsSharedResidency) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  DynamicModalityMapper mapper(sys);
  const ModelGraph full = make_model(ZooModel::MoCap);

  (void)mapper.remap(full);  // round 1: all three modalities
  const std::uint32_t two[] = {1, 2};
  const DynamicRemapResult down = mapper.remap(subset_model(full, two));
  EXPECT_GT(down.reuse_ratio(), 0.5);  // speech+text+fusion stay resident

  const DynamicRemapResult up = mapper.remap(full);  // modality 3 returns
  EXPECT_GT(up.reuse_ratio(), 0.3);
  EXPECT_GT(up.weights_loaded, 0u);  // the mocap branch must reload
}

TEST(DynamicModality, ResetResidencyForgetsWeights) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::LowMinus);
  DynamicModalityMapper mapper(sys);
  const ModelGraph full = make_model(ZooModel::MoCap);
  (void)mapper.remap(full);
  mapper.reset_residency();
  EXPECT_EQ(mapper.resident_layer_count(), 0u);
  const DynamicRemapResult r = mapper.remap(full);
  EXPECT_EQ(r.weights_reused, 0u);
}

TEST(DynamicModality, MappingsStayValid) {
  const SystemConfig sys = SystemConfig::standard(BandwidthSetting::Mid);
  DynamicModalityMapper mapper(sys);
  const ModelGraph full = make_model(ZooModel::CnnLstm);
  const std::uint32_t video_only[] = {1};
  const ModelGraph sub = subset_model(full, video_only);
  const DynamicRemapResult r = mapper.remap(sub);
  for (const LayerId id : sub.all_layers()) {
    const Layer& l = sub.layer(id);
    if (l.kind == LayerKind::Input) continue;
    EXPECT_TRUE(sys.accelerator(r.h2h.mapping.acc_of(id)).supports(l.kind));
  }
}

// ---- Modality-toggle pin ----------------------------------------------------

/// One remap of the toggle sequence below, as pinned.
struct TogglePin {
  std::uint64_t mapping_fnv;  // acc + seq of every variant layer
  double latency_s;
  Bytes weights_loaded;
  Bytes weights_reused;
};

/// The row as it is spelled in kTogglePins below (latency through %a).
[[nodiscard]] std::string toggle_row(const TogglePin& p) {
  return strformat("{0x%016llxull, %a, %llu, %llu},",
                   static_cast<unsigned long long>(p.mapping_fnv), p.latency_s,
                   static_cast<unsigned long long>(p.weights_loaded),
                   static_cast<unsigned long long>(p.weights_reused));
}

/// Six rows per (bandwidth, model) of the test below: the six zoo models at
/// 0.125 GB/s, then the same six at 0.5 GB/s.
// clang-format off
constexpr TogglePin kTogglePins[] = {
    {0x716e09acdfd55038ull, 0x1.4cee9120a53c4p-3, 382075162, 0},
    {0x8e3289460a3a8affull, 0x1.7292edfb91769p-5, 14260224, 299599642},
    {0x79e12e231c05df26ull, 0x1.9931c1ac2c323p-4, 68215296, 313859866},
    {0x9222145d1d934c74ull, 0x1.8c122a608115dp-4, 15718272, 349300890},
    {0xfd1856ae3bc69f7aull, 0x1.8e869dba20df1p-4, 33494784, 331524378},
    {0x9077f2d1f6086936ull, 0x1.3c32ff7c21b99p-3, 41706368, 340368794},
    {0x3a81291963cb71f5ull, 0x1.1b5a5edd5dae9p-7, 27542020, 0},
    {0x6f27670918e41996ull, 0x1.4f8ae2bb57ae7p-9, 2020608, 14424324},
    {0xfb51af6588b4268eull, 0x1.0f93515eb49b3p-7, 11097088, 16444932},
    {0xbb005603e808542cull, 0x1.0295aed4b90dep-7, 3046912, 18934020},
    {0x6f27670918e41996ull, 0x1.157b6c810fbfp-9, 312064, 16120324},
    {0x281e1c4f83af804full, 0x1.055dc20606adbp-7, 11189888, 16352132},
    {0x7433442166932536ull, 0x1.373e25b390125p-4, 746434054, 0},
    {0x95af9892a6062615ull, 0x1.371bc99bbfc4ap-4, 0, 713182854},
    {0x7433442166932536ull, 0x1.373e25b390125p-4, 33251200, 713182854},
    {0xd3af2e5b7bba6056ull, 0x1.d0bf82f98fb53p-6, 33251200, 444661766},
    {0xd3af2e5b7bba6056ull, 0x1.d0bf82f98fb53p-6, 0, 477912966},
    {0xb38a23197a2c5fb8ull, 0x1.a7daf55a38263p-4, 268545792, 477888262},
    {0xd3d2bdd3f99ffe2cull, 0x1.d80d4c8224ce7p-8, 48585284, 0},
    {0x5a0f45cf8123ea77ull, 0x1.72daf55c4600dp-9, 12559296, 10897796},
    {0x33e7f1a2459b2df7ull, 0x1.1c064a71ca94bp-7, 25128192, 23457092},
    {0x678c869d5e0f5e7full, 0x1.a0cc511ff4c33p-8, 10679712, 25332068},
    {0x5a0f45cf8123ea77ull, 0x1.38d0fa27ca75cp-9, 10944576, 12503108},
    {0x2dd3e15232123661ull, 0x1.b13aaab46120ep-8, 25225536, 23359748},
    {0xbcef4d3f97df1e52ull, 0x1.4e6306949e25fp-8, 29238144, 0},
    {0x5b088710567484d8ull, 0x1.4e622183ff63ep-8, 0, 22901632},
    {0xbcef4d3f97df1e52ull, 0x1.4e6306949e25fp-8, 6336512, 22901632},
    {0x6c9d813de264d139ull, 0x1.0575c58fa41f9p-9, 0, 7566592},
    {0x6c9d813de264d139ull, 0x1.0575c58fa41f9p-9, 0, 7566592},
    {0xbcef4d3f97df1e52ull, 0x1.4e6306949e25fp-8, 21671552, 7566592},
    {0xe47b0480d577b9cbull, 0x1.6cb53c184c63dp-9, 14799372, 0},
    {0xd67589e6ef1dac15ull, 0x1.73b6eb1e2a6c4p-10, 0, 6610444},
    {0xe47b0480d577b9cbull, 0x1.6cb53c184c63dp-9, 8188928, 6610444},
    {0x0f3d9b579a3d19dfull, 0x1.31cc5b4e4f77ap-9, 0, 9831948},
    {0xfbcb23e09bab55b6ull, 0x1.a1b97f73099f6p-10, 2289664, 1643020},
    {0x2035a44ff99a8545ull, 0x1.ca8c2f20bd8ep-9, 10866688, 3932684},
    {0x21f911c82aeb11e5ull, 0x1.26deb110b499fp-4, 382075162, 0},
    {0x8e3289460a3a8affull, 0x1.0afd7970e1401p-5, 11523328, 302336538},
    {0x1ef9b46963d460a4ull, 0x1.62b27afcd9d2fp-5, 68234240, 313840922},
    {0x74a80d82602b46f6ull, 0x1.5b696894e77d3p-5, 16664320, 348354842},
    {0xaf1f1ad77ec1eff8ull, 0x1.3e07adb414cbep-5, 31310592, 333708570},
    {0x436cbd9763198df3ull, 0x1.b7a3343e1303cp-5, 30327936, 351747226},
    {0xc623ced4eba35273ull, 0x1.6d52748bb5ee6p-8, 27542020, 0},
    {0x61187a9aa2751196ull, 0x1.1246552bcb9dep-9, 4380928, 12064004},
    {0x91d49ec3a3873539ull, 0x1.5488260780a1bp-8, 11170944, 16371076},
    {0x9f6c7a017eeba364ull, 0x1.95252c2dad6a9p-9, 4009216, 17971716},
    {0x61187a9aa2751196ull, 0x1.ff59449579c6ap-10, 1180160, 15252228},
    {0x23c9478fcad625a3ull, 0x1.23182d04ad201p-8, 11263744, 16278276},
    {0x7433442166932536ull, 0x1.2d46e6217ed83p-4, 746434054, 0},
    {0x95af9892a6062615ull, 0x1.2d3e4f1b8ac4cp-4, 0, 713182854},
    {0x7433442166932536ull, 0x1.2d46e6217ed83p-4, 33251200, 713182854},
    {0xd3af2e5b7bba6056ull, 0x1.cbea68f8a9fe7p-6, 33251200, 444661766},
    {0xd3af2e5b7bba6056ull, 0x1.cbea68f8a9fe7p-6, 0, 477912966},
    {0x03099f32ae70bbb8ull, 0x1.349f46dc162ddp-4, 268774400, 477659654},
    {0x2b26a2d11c607d71ull, 0x1.36dd70224c4c4p-8, 48585284, 0},
    {0xed5a0b92616199f7ull, 0x1.351f9f6e66d3bp-9, 9254592, 14202500},
    {0xee460cef83105cfdull, 0x1.2a90cd62b23dfp-8, 25183968, 23401316},
    {0xb901a69be5887147ull, 0x1.e5df5f02617e5p-9, 10074816, 25936964},
    {0xed5a0b92616199f7ull, 0x1.228b6793247d7p-9, 9957120, 13490564},
    {0xa973969f5fa89d74ull, 0x1.10ddf2d963496p-8, 25137600, 23447684},
    {0xbcef4d3f97df1e52ull, 0x1.ae8e8b611f3ap-9, 29238144, 0},
    {0x5b088710567484d8ull, 0x1.749d7fc71946bp-9, 0, 22901632},
    {0xbcef4d3f97df1e52ull, 0x1.ae8e8b611f3ap-9, 6336512, 22901632},
    {0x6c9d813de264d139ull, 0x1.0372602a6f927p-9, 0, 7566592},
    {0x6c9d813de264d139ull, 0x1.0372602a6f927p-9, 0, 7566592},
    {0xbcef4d3f97df1e52ull, 0x1.ae8e8b611f3ap-9, 21671552, 7566592},
    {0x11a4ce319f90c18cull, 0x1.4780e05741a84p-9, 14799372, 0},
    {0xd67589e6ef1dac15ull, 0x1.671cdc7248af3p-10, 0, 6610444},
    {0x11a4ce319f90c18cull, 0x1.4780e05741a84p-9, 8188928, 6610444},
    {0x285064f4e316cbdfull, 0x1.3f56947190de3p-10, 123136, 9708812},
    {0xfbcb23e09bab55b6ull, 0x1.d90609d66d6aap-11, 2289664, 1643020},
    {0x2035a44ff99a8545ull, 0x1.91ea40e8aae6dp-9, 10866688, 3932684},
};
// clang-format on

/// Every zoo model at 0.125 and 0.5 GB/s toggles its modalities on one
/// mapper: all, only the first, all, all but the first, only the last, all.
/// The values were recorded while the step-1 preference was still a
/// callback; each round's mapping and its weight reload/reuse split must
/// stay bit-identical.
TEST(DynamicModalityPin, ModalityTogglesAreBitIdentical) {
  std::size_t row = 0;
  for (const double gbps : {0.125, 0.5}) {
    const SystemConfig sys = SystemConfig::standard(gbps * 1e9);
    for (const ZooInfo& info : zoo_catalog()) {
      const ModelGraph full = make_model(info.id);
      std::vector<std::uint32_t> all;
      for (const LayerId id : full.all_layers()) {
        const std::uint32_t tag = full.layer(id).modality;
        if (tag != 0 && std::find(all.begin(), all.end(), tag) == all.end())
          all.push_back(tag);
      }
      std::sort(all.begin(), all.end());
      ASSERT_GE(all.size(), 2u) << info.key;
      const std::vector<std::vector<std::uint32_t>> rounds = {
          all,
          {all.front()},
          all,
          std::vector<std::uint32_t>(all.begin() + 1, all.end()),
          {all.back()},
          all};
      DynamicModalityMapper mapper(sys);
      for (const std::vector<std::uint32_t>& active : rounds) {
        const ModelGraph variant = subset_model(full, active);
        const DynamicRemapResult r = mapper.remap(variant);
        const TogglePin got{testing::mapping_fnv(variant, r.h2h.mapping),
                            r.h2h.final_result().latency, r.weights_loaded,
                            r.weights_reused};
        ASSERT_LT(row, std::size(kTogglePins));
        EXPECT_EQ(toggle_row(got), toggle_row(kTogglePins[row]))
            << info.key << " at " << gbps << " GB/s, round " << row % 6;
        ++row;
      }
    }
  }
  EXPECT_EQ(row, std::size(kTogglePins));
}

}  // namespace
}  // namespace h2h
