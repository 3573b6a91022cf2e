// G_sys container: the heterogeneous multi-FPGA system of the paper's §3.
// A star topology — every accelerator connects to the host node through
// Ethernet switches at BW_acc; the host's main memory is the default home of
// all weights and activations (zero-locality assumption of step 1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "accel/accelerator_model.h"
#include "system/acc_id.h"
#include "system/interconnect.h"
#include "util/contracts.h"

namespace h2h {

/// The paper's Fig. 4 bandwidth settings for BW_acc.
enum class BandwidthSetting { LowMinus, Low, MidMinus, Mid, High };

/// 0.125 / 0.15 / 0.25 / 0.5 / 1.25 GB/s.
[[nodiscard]] double bandwidth_value(BandwidthSetting setting) noexcept;
[[nodiscard]] std::string_view to_string(BandwidthSetting setting) noexcept;
[[nodiscard]] std::span<const BandwidthSetting> all_bandwidth_settings() noexcept;

struct HostParams {
  /// System-wide accelerator-to-host bandwidth BW_acc, bytes/s.
  double bw_acc = 0.5e9;
  /// Optional per-accelerator idle power applied for the whole makespan
  /// (ablation knob; 0 reproduces the paper's transfer-dominated energy).
  double static_power_w = 0.0;
};

class SystemConfig {
 public:
  /// Scalar BW_acc: a uniform Interconnect at host.bw_acc.
  SystemConfig(std::vector<AcceleratorPtr> accelerators, HostParams host);

  /// Explicit link topology. The interconnect is bound to the accelerator
  /// count here (validating overrides); host.bw_acc is taken from the
  /// topology's base bandwidth, so the two cannot disagree.
  SystemConfig(std::vector<AcceleratorPtr> accelerators, Interconnect links,
               HostParams host = {});

  /// The paper's evaluation system: all 12 Table-3 accelerators.
  [[nodiscard]] static SystemConfig standard(double bw_acc);
  [[nodiscard]] static SystemConfig standard(BandwidthSetting setting) {
    return standard(bandwidth_value(setting));
  }
  /// Standard catalog on an explicit link topology.
  [[nodiscard]] static SystemConfig standard(Interconnect links);
  /// `count` accelerators (the catalog cycled with name suffixes) on an
  /// explicit topology — the 16/32-accelerator scaling systems.
  [[nodiscard]] static SystemConfig scaled(std::size_t count,
                                           Interconnect links);

  [[nodiscard]] std::size_t accelerator_count() const noexcept {
    return accs_.size();
  }
  [[nodiscard]] bool contains(AccId id) const noexcept {
    return id.valid() && !id.is_host() && id.value < accs_.size();
  }
  [[nodiscard]] const AcceleratorModel& accelerator(AccId id) const {
    H2H_EXPECTS(contains(id));
    return *accs_[id.value];
  }
  [[nodiscard]] const AcceleratorSpec& spec(AccId id) const {
    return accelerator(id).spec();
  }

  /// Effective host-link bandwidth for `id` — the topology's host link.
  [[nodiscard]] double bw_acc(AccId id) const {
    H2H_EXPECTS(contains(id));
    return links_.host_bandwidth(id);
  }

  [[nodiscard]] const HostParams& host() const noexcept { return host_; }
  /// The link topology (bound to this system's accelerator count).
  [[nodiscard]] const Interconnect& links() const noexcept { return links_; }

  /// Idle energy over a makespan: static_power_w × accelerator count ×
  /// latency. The single source of truth for the static-power term, shared
  /// by Simulator::simulate and IncrementalSchedule so the two accountings
  /// cannot drift.
  [[nodiscard]] double static_energy(double latency_s) const noexcept {
    return host_.static_power_w * static_cast<double>(accs_.size()) *
           latency_s;
  }

  /// Sweep helper: change the system-wide BW_acc in place. Moves the
  /// topology's base bandwidth and preserves its shape (mixed overrides and
  /// hierarchical fabric speeds stay put).
  void set_bw_acc(double bw) {
    H2H_EXPECTS(bw > 0);
    host_.bw_acc = bw;
    links_.set_base_bw(bw);
  }

  /// Effective capability mask of `id` (accel/capability.h): the bits
  /// derived from its spec OR'd with the spec's extra_capabilities, cached
  /// at construction. A layer with required_caps `need` may only be placed
  /// where `can_serve(capabilities(id), need)`.
  [[nodiscard]] std::uint32_t capabilities(AccId id) const {
    H2H_EXPECTS(contains(id));
    return caps_[id.value];
  }

  [[nodiscard]] std::vector<AccId> all_accelerators() const;
  /// Accelerators able to run `kind`, in catalog order. Excludes
  /// accelerators marked unavailable (fault repair).
  [[nodiscard]] std::vector<AccId> supporting(LayerKind kind) const;

  // ---- Fault/repair derating (src/repair) ------------------------------
  // Faults never remove an accelerator from the catalog: AccId indexing,
  // names, and link fingerprints stay stable across a dropout so a later
  // AccReturned can splice the device back in. Consumers (CostTable,
  // Mapping::validate) treat an unavailable accelerator as unable to run
  // anything.

  /// Mark an accelerator lost (false) or returned (true).
  void set_available(AccId id, bool available);
  [[nodiscard]] bool available(AccId id) const {
    H2H_EXPECTS(contains(id));
    return avail_.empty() || avail_[id.value] != 0;
  }
  [[nodiscard]] std::size_t available_count() const noexcept;

  /// Spec derate: the accelerator computes at `scale` in (0, 1] of nominal
  /// speed (thermal throttling, partial reconfiguration). Scales compute
  /// latency only; the energy model keeps charging nominal transfer joules.
  void set_compute_derate(AccId id, double scale);
  [[nodiscard]] double compute_derate(AccId id) const {
    H2H_EXPECTS(contains(id));
    return derate_.empty() ? 1.0 : derate_[id.value];
  }

  /// Link derating, forwarded to the bound interconnect (repair hook).
  void set_link_degrade(AccId id, double factor) {
    H2H_EXPECTS(contains(id));
    links_.set_link_degrade(id.value, factor);
  }

  /// Fingerprint over availability + compute derates (link degrades are in
  /// links().fingerprint()). Stays 0 while the fault hooks are untouched,
  /// so CostTable::fresh is byte-for-byte unchanged on non-repair paths.
  [[nodiscard]] std::uint64_t derate_fingerprint() const noexcept {
    return derate_fp_;
  }

 private:
  void validate_accelerators() const;
  void cache_capabilities();
  void refresh_derate_fingerprint();

  std::vector<AcceleratorPtr> accs_;
  HostParams host_;
  Interconnect links_;
  std::vector<std::uint32_t> caps_;   // per acc, spec_capabilities()
  std::vector<std::uint8_t> avail_;   // empty = all available
  std::vector<double> derate_;        // empty = all at nominal speed
  std::uint64_t derate_fp_ = 0;       // 0 until a fault hook first fires
};

}  // namespace h2h
