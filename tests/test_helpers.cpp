#include "test_helpers.h"

#include <array>

#include "accel/analytical_models.h"
#include "util/str.h"

namespace h2h::testing {

ModelGraph make_chain_model() {
  ModelBuilder b("chain");
  const LayerId in = b.input("in", 8, 8, 8);  // 512 elems = 1 KiB @ 2B
  const LayerId a = b.conv("convA", in, 16, 3, 1);
  const LayerId c = b.conv("convB", a, 16, 3, 2);
  (void)b.fc("fcC", c, 32);
  return std::move(b).build();
}

ModelGraph make_diamond_model() {
  ModelBuilder b("diamond");
  const LayerId in = b.input("in", 8, 16, 16);
  const LayerId a = b.conv("a", in, 16, 3, 1);
  const LayerId x = b.conv("b", a, 16, 3, 1);
  const LayerId y = b.conv("c", a, 16, 3, 1);
  const LayerId d = b.eltwise("d", x, y);
  (void)b.fc("e", d, 10);
  return std::move(b).build();
}

ModelGraph make_mini_mmmt_model() {
  ModelBuilder b("mini-mmmt");
  b.set_modality(1);
  const LayerId img = b.input("img", 3, 32, 32);
  const LayerId c1 = b.conv("m1.conv1", img, 16, 3, 2);
  const LayerId c2 = b.conv("m1.conv2", c1, 32, 3, 2);
  const LayerId g1 = b.global_pool("m1.gap", c2);

  b.set_modality(2);
  const LayerId seq = b.input_seq("seq", 16, 8);
  const LayerId l1 = b.lstm("m2.lstm", seq, 32, 1);
  const LayerId g2 = b.global_pool("m2.last", l1);

  b.set_modality(0);
  const LayerId cat = b.concat("fuse.cat", std::array{g1, g2});
  const LayerId f1 = b.fc("fuse.fc", cat, 32);
  (void)b.fc("task.a", f1, 4);
  (void)b.fc("task.b", f1, 4);
  return std::move(b).build();
}

AcceleratorSpec simple_spec(const std::string& name, Bytes dram_capacity) {
  AcceleratorSpec s;
  s.name = name;
  s.description = "uniform test accelerator";
  s.board = "test";
  s.style = DataflowStyle::MatrixEngine;
  s.kinds = KindSupport{true, true, true};
  s.peak_macs_per_cycle = 100;
  s.pe = PeArray{10, 10};
  s.freq_hz = 1e9;
  s.dram_bandwidth = 10e9;
  s.dram_capacity = dram_capacity;
  s.energy_per_mac = picojoules(1);
  s.energy_per_dram_byte = nanojoules(0.1);
  s.link_power = 1.0;
  return s;
}

SystemConfig make_uniform_system(std::size_t n, double bw_acc,
                                 Bytes dram_capacity) {
  std::vector<AcceleratorPtr> accs;
  for (std::size_t i = 0; i < n; ++i)
    accs.push_back(make_analytical(
        simple_spec(strformat("U%zu", i), dram_capacity)));
  HostParams host;
  host.bw_acc = bw_acc;
  return SystemConfig(std::move(accs), host);
}

SystemConfig make_mini_hetero_system(double bw_acc) {
  std::vector<AcceleratorPtr> accs;

  AcceleratorSpec conv = simple_spec("CONV", gib(1));
  conv.style = DataflowStyle::ChannelParallel;
  conv.kinds = KindSupport{true, false, false};
  conv.peak_macs_per_cycle = 1000;  // conv champion
  conv.pe = PeArray{32, 32};
  accs.push_back(make_analytical(std::move(conv)));

  AcceleratorSpec generic = simple_spec("GEN", gib(2));
  generic.peak_macs_per_cycle = 200;
  accs.push_back(make_analytical(std::move(generic)));

  AcceleratorSpec lstm = simple_spec("LSTM", mib(512));
  lstm.style = DataflowStyle::LstmPipeline;
  lstm.kinds = KindSupport{false, true, true};
  lstm.peak_macs_per_cycle = 500;  // recurrent champion
  lstm.pe = PeArray{25, 20};
  accs.push_back(make_analytical(std::move(lstm)));

  HostParams host;
  host.bw_acc = bw_acc;
  return SystemConfig(std::move(accs), host);
}

ModelGraph make_random_model(Rng& rng) {
  ModelBuilder b(strformat("random-%lld", static_cast<long long>(
      rng.uniform_int(0, 1 << 30))));
  // A pool of CHW-shaped layers usable as conv/pool/eltwise producers.
  std::vector<LayerId> chw;
  std::vector<LayerId> flat;

  const int n_inputs = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n_inputs; ++i) {
    b.set_modality(static_cast<std::uint32_t>(i + 1));
    chw.push_back(b.input(strformat("in%d", i),
                          static_cast<std::uint32_t>(rng.uniform_int(1, 8)),
                          32, 32));
  }

  const int n_layers = static_cast<int>(rng.uniform_int(3, 30));
  for (int i = 0; i < n_layers; ++i) {
    b.set_modality(static_cast<std::uint32_t>(rng.uniform_int(0, n_inputs)));
    const std::string name = strformat("l%d", i);
    const int kind = static_cast<int>(rng.uniform_int(0, 5));
    switch (kind) {
      case 0: {  // conv
        const LayerId from = chw[rng.index(chw.size())];
        chw.push_back(b.conv(name, from,
                             static_cast<std::uint32_t>(rng.uniform_int(4, 64)),
                             static_cast<std::uint32_t>(rng.uniform_int(1, 5)),
                             static_cast<std::uint32_t>(rng.uniform_int(1, 2))));
        break;
      }
      case 1: {  // pool
        const LayerId from = chw[rng.index(chw.size())];
        if (b.geometry(from).h >= 2)
          chw.push_back(b.pool(name, from, 2, 2));
        break;
      }
      case 2: {  // fc from anything
        const LayerId from = rng.chance(0.5) || flat.empty()
                                 ? chw[rng.index(chw.size())]
                                 : flat[rng.index(flat.size())];
        flat.push_back(b.fc(name, from,
                            static_cast<std::uint32_t>(rng.uniform_int(4, 256))));
        break;
      }
      case 3: {  // lstm over a CHW tensor's rows
        const LayerId from = chw[rng.index(chw.size())];
        const auto seq = b.geometry(from).h;
        if (seq >= 2)
          flat.push_back(b.lstm(name, from,
                                static_cast<std::uint32_t>(rng.uniform_int(8, 64)),
                                static_cast<std::uint32_t>(rng.uniform_int(1, 2)),
                                seq));
        break;
      }
      case 4: {  // eltwise of two same-shaped tensors (derive one if needed)
        const LayerId x = chw[rng.index(chw.size())];
        const LayerId twin = b.conv(name + ".twin", x,
                                    b.geometry(x).channels, 1, 1);
        chw.push_back(b.eltwise(name, x, twin));
        break;
      }
      case 5: {  // concat of two spatially equal tensors
        const LayerId x = chw[rng.index(chw.size())];
        const LayerId twin = b.conv(name + ".twin", x,
                                    static_cast<std::uint32_t>(rng.uniform_int(4, 32)),
                                    1, 1);
        chw.push_back(b.concat(name, std::array{x, twin}));
        break;
      }
      default: break;
    }
  }
  // Guarantee at least one weighted layer so mapping is non-trivial.
  (void)b.fc("head", chw.back(), 8);
  return std::move(b).build();
}

SystemConfig make_random_system(Rng& rng) {
  const int n = static_cast<int>(rng.uniform_int(2, 8));
  std::vector<AcceleratorPtr> accs;
  for (int i = 0; i < n; ++i) {
    AcceleratorSpec s = simple_spec(
        strformat("R%d", i),
        mib(static_cast<double>(rng.uniform_int(64, 4096))));
    const int style = static_cast<int>(rng.uniform_int(0, 7));
    s.style = static_cast<DataflowStyle>(style);
    const std::uint32_t da = static_cast<std::uint32_t>(rng.uniform_int(2, 64));
    const std::uint32_t db = static_cast<std::uint32_t>(rng.uniform_int(2, 64));
    s.pe = PeArray{da, db};
    s.peak_macs_per_cycle = da * db;
    s.freq_hz = mhz(static_cast<double>(rng.uniform_int(50, 400)));
    s.dram_bandwidth = gbps(rng.uniform_real(2.0, 20.0));
    s.energy_per_mac = picojoules(rng.uniform_real(10, 300));
    s.energy_per_dram_byte = picojoules(rng.uniform_real(50, 250));
    s.link_power = rng.uniform_real(1.0, 4.0);
    // Random support, biased by style.
    const bool lstm_style = s.style == DataflowStyle::LstmPipeline ||
                            s.style == DataflowStyle::GateParallel;
    s.kinds.conv = !lstm_style || rng.chance(0.2);
    s.kinds.fc = rng.chance(0.6);
    s.kinds.lstm = lstm_style || rng.chance(0.3);
    if (!s.kinds.conv && !s.kinds.fc && !s.kinds.lstm) s.kinds.fc = true;
    accs.push_back(make_analytical(std::move(s)));
  }
  // Guarantee full coverage with one generalist.
  accs.push_back(make_analytical(simple_spec("RGEN", gib(1))));
  HostParams host;
  host.bw_acc = gbps(rng.uniform_real(0.1, 2.0));
  return SystemConfig(std::move(accs), host);
}

std::uint64_t mapping_fnv(const ModelGraph& model, const Mapping& mapping) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i)
      h = (h ^ ((v >> (8 * i)) & 0xFFu)) * 1099511628211ull;
  };
  for (const LayerId id : model.all_layers()) {
    fold(mapping.acc_of(id).value);
    fold(mapping.seq_of(id));
  }
  return h;
}

}  // namespace h2h::testing
