// The plug-in accelerator performance-model interface (the paper's P_Acc).
//
// The H2H infrastructure "takes arbitrary accelerators with user-defined
// performance models in a plug-in manner": anything implementing
// AcceleratorModel can join a SystemConfig. The library ships an analytical
// implementation (analytical_models.h) replicating the 12 surveyed designs
// (catalog.h); users can provide custom models (see the custom_accelerator
// example and registry.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "accel/dataflow.h"
#include "accel/tiling.h"
#include "model/layer.h"
#include "util/units.h"

namespace h2h {

/// Which Table-1 layer families an accelerator accelerates. Structural
/// layers (Input/Pool/Eltwise/Concat) are runnable everywhere.
struct KindSupport {
  bool conv = false;
  bool fc = false;
  bool lstm = false;

  [[nodiscard]] bool supports(LayerKind kind) const noexcept {
    switch (kind) {
      case LayerKind::Conv: return conv;
      case LayerKind::FullyConnected: return fc;
      case LayerKind::Lstm: return lstm;
      default: return true;  // structural layers
    }
  }
};

/// Static description of one accelerator: microarchitecture, board-level
/// memory system, and energy coefficients. The numbers in catalog.cpp are
/// calibrated estimates from each design's publication (see DESIGN.md §2).
struct AcceleratorSpec {
  std::string name;         // Table 3 short name, e.g. "C.Z"
  std::string description;  // one-line citation
  std::string board;        // FPGA board, fixes M_acc
  DataflowStyle style = DataflowStyle::ChannelParallel;
  KindSupport kinds;
  std::uint32_t peak_macs_per_cycle = 0;  // physical MAC units
  PeArray pe;                             // array geometry for alignment
  double freq_hz = 0;
  double dram_bandwidth = 0;   // local DRAM, bytes/s
  Bytes dram_capacity = 0;     // M_acc
  double energy_per_mac = 0;   // joules
  double energy_per_dram_byte = 0;  // joules, local DRAM traffic
  double link_power = 0;       // watts while the host link is active
  /// On-chip SRAM budgets for the MAESTRO-style reuse model (tiling.h).
  /// When set, weights that do not fit on chip are re-streamed from local
  /// DRAM per tile/timestep and the re-fetch time rooflines the compute.
  /// Zero disables the memory model (pure-compute accelerator).
  OnChipBuffers buffers{};
  /// Element size the datapath computes in (for the reuse model).
  std::uint32_t arith_bytes = 2;
  /// User-defined capability bits OR'd into the derived mask
  /// (accel/capability.h): bits 0-4 are computed from this spec, higher
  /// bits are free for deployment-specific gating (multi-tenant placement).
  std::uint32_t extra_capabilities = 0;

  void validate() const;  // throws ConfigError on nonsensical values
};

class AcceleratorModel {
 public:
  virtual ~AcceleratorModel() = default;

  AcceleratorModel(const AcceleratorModel&) = delete;
  AcceleratorModel& operator=(const AcceleratorModel&) = delete;

  [[nodiscard]] virtual const AcceleratorSpec& spec() const noexcept = 0;

  /// Can this accelerator execute `kind` at all?
  [[nodiscard]] virtual bool supports(LayerKind kind) const noexcept;

  /// On-chip compute latency of `layer`, seconds. Excludes all data
  /// movement (the system simulator owns transfer terms). Requires
  /// supports(layer.kind).
  [[nodiscard]] virtual double compute_latency(const Layer& layer) const = 0;

  /// Compute energy of `layer`, joules (MAC + vector-op switching energy).
  [[nodiscard]] virtual double compute_energy(const Layer& layer) const;

 protected:
  AcceleratorModel() = default;
};

using AcceleratorPtr = std::unique_ptr<AcceleratorModel>;

}  // namespace h2h
