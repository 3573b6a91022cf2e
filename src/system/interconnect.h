// First-class link topology between accelerators and the host.
//
// The paper's evaluation system is a star: every accelerator reaches the
// host (and, through it, every peer) at one system-wide BW_acc. Real
// multi-FPGA deployments are not that regular — cloud Ethernet spans 1G to
// 10G per card, and switch fabrics give intra-rack pairs a faster path than
// cross-rack ones. This class models the per-pair link structure the
// communication-aware passes and the simulator charge transfers on:
//
//  - uniform(bw): every link (accelerator-accelerator and accelerator-host)
//    runs at `bw`. Reproduces the scalar BW_acc semantics bit-exactly —
//    uniform_links() is true and every consumer (CostTable, Simulator)
//    takes the legacy fast path, so output is hex-identical to the
//    pre-topology code (pinned by test_interconnect_identity.cpp).
//  - mixed(default, overrides): per-accelerator uplinks; a pair transfers
//    at the slower of its two endpoints' uplinks, the host link is the
//    accelerator's own uplink.
//  - hierarchical(spec): a switch/fabric tree. Accelerators are grouped in
//    consecutive runs of `group_size`; same-group pairs transfer at
//    `intra_bw`, cross-group traffic shares the `uplink_bw` fabric, host
//    links run at `host_bw` (0 = follow the uplink). Optional per-hop
//    latency charges `hop_latency_s` per switch hop (1 intra-group, 2 to
//    the host, 3 cross-group); 0 keeps transfers pure-bandwidth.
//
// Bandwidth is symmetric (bandwidth(a, b) == bandwidth(b, a)) and the host
// participates as a regular endpoint via AccId::host(). An Interconnect is
// built unbound (no accelerator count yet); SystemConfig binds it at
// construction, which validates override indices and precomputes the
// uniformity flag, the min/max link speeds, and a content fingerprint used
// by CostTable::fresh and the Planner session key.
#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "system/acc_id.h"
#include "util/contracts.h"

namespace h2h {

enum class LinkShape { Uniform, Mixed, Hierarchical };

[[nodiscard]] std::string_view to_string(LinkShape shape) noexcept;

class Interconnect {
 public:
  /// Per-accelerator uplink override for the mixed shape: (accelerator
  /// index, uplink bandwidth in bytes/s).
  using Override = std::pair<std::uint32_t, double>;

  struct HierarchicalSpec {
    std::uint32_t group_size = 4;  // accelerators per switch group
    double intra_bw = 0;           // same-group pair bandwidth, bytes/s
    double uplink_bw = 0;          // cross-group fabric bandwidth, bytes/s
    double host_bw = 0;            // accelerator-host links; 0 = uplink_bw
    double hop_latency_s = 0;      // per switch hop; 0 = pure bandwidth
  };

  /// Every link at `bw` — the scalar BW_acc star, bit-exact.
  [[nodiscard]] static Interconnect uniform(double bw);
  /// Per-accelerator uplinks: `default_bw` unless overridden. Overrides are
  /// canonicalized (sorted by index, duplicates rejected at bind).
  [[nodiscard]] static Interconnect mixed(double default_bw,
                                          std::vector<Override> overrides);
  [[nodiscard]] static Interconnect hierarchical(const HierarchicalSpec& spec);

  /// Resolve against a concrete accelerator count (SystemConfig calls this
  /// at construction). Validates override indices and group sizes, then
  /// derives uniformity, min/max speeds, and the fingerprint. Throws
  /// ConfigError on out-of-range overrides or duplicate indices.
  void bind(std::size_t acc_count);
  [[nodiscard]] bool bound() const noexcept { return acc_count_ > 0; }
  [[nodiscard]] std::size_t acc_count() const noexcept { return acc_count_; }

  [[nodiscard]] LinkShape shape() const noexcept { return shape_; }
  [[nodiscard]] std::string_view shape_name() const noexcept {
    return to_string(shape_);
  }

  /// True when every link (pairs and host) runs at one speed with zero
  /// latency — the degenerate case consumers may serve from the legacy
  /// scalar fast path. A mixed/hierarchical topology whose parameters all
  /// coincide degrades to uniform here (property-tested for bit-identity).
  [[nodiscard]] bool uniform_links() const {
    H2H_EXPECTS(bound());
    return uniform_;
  }

  /// The shape's base bandwidth: the uniform speed, the mixed default
  /// uplink, or the hierarchical host-link speed.
  [[nodiscard]] double base_bw() const noexcept;
  /// Sweep helper (SystemConfig::set_bw_acc): move the base bandwidth,
  /// preserving the shape — mixed overrides and hierarchical fabric speeds
  /// stay put; for hierarchical shapes this moves the host links only.
  void set_base_bw(double bw);

  /// Fault-repair hook: scale every link touching `acc` by `factor` in
  /// (0, 1]. A pair transfers at the raw shape bandwidth times the smaller
  /// endpoint factor (the host never degrades); factor 1 restores the link
  /// and drops the entry. Degrades participate in min/max/uniform_links and
  /// both fingerprints, so CostTable::fresh sees the mutation. Bound only.
  void set_link_degrade(std::uint32_t acc, double factor);
  /// Current degrade factor for `acc` (1 when undegraded).
  [[nodiscard]] double link_degrade(std::uint32_t acc) const noexcept;
  [[nodiscard]] bool degraded() const noexcept { return !degrades_.empty(); }

  /// Symmetric pair bandwidth, bytes/s. Either endpoint may be
  /// AccId::host(); both being the host is a contract violation.
  [[nodiscard]] double bandwidth(AccId a, AccId b) const;
  /// Per-transfer latency between the endpoints, seconds (0 unless the
  /// shape carries a hop latency).
  [[nodiscard]] double latency(AccId a, AccId b) const;
  /// bandwidth(a, AccId::host()) — the legacy BW_acc of one accelerator.
  [[nodiscard]] double host_bandwidth(AccId a) const {
    return bandwidth(a, AccId::host());
  }

  [[nodiscard]] double min_bandwidth() const {
    H2H_EXPECTS(bound());
    return min_bw_;
  }
  [[nodiscard]] double max_bandwidth() const {
    H2H_EXPECTS(bound());
    return max_bw_;
  }

  /// Content fingerprint (shape + every parameter + the bound count),
  /// stable across runs. CostTable::fresh compares it to detect topology
  /// mutations; the Planner mixes it into the session key. O(1): cached at
  /// bind/set_base_bw.
  [[nodiscard]] std::uint64_t fingerprint() const {
    H2H_EXPECTS(bound());
    return fingerprint_;
  }
  /// Parameter-only fingerprint (no bound count) — usable unbound; the
  /// Planner keys sessions on it before the system exists.
  [[nodiscard]] std::uint64_t params_fingerprint() const noexcept;

  /// Shape parameters, for canonical serialization (serve wire, reports).
  [[nodiscard]] const std::vector<Override>& overrides() const noexcept {
    return overrides_;
  }
  [[nodiscard]] const HierarchicalSpec& hier() const {
    H2H_EXPECTS(shape_ == LinkShape::Hierarchical);
    return hier_;
  }

 private:
  Interconnect() = default;
  void derive();  // recompute uniform_/min_/max_/fingerprint_ (bound only)
  [[nodiscard]] double uplink(std::uint32_t acc) const;  // mixed shape
  [[nodiscard]] std::uint32_t group_of(std::uint32_t acc) const {
    return acc / hier_.group_size;
  }

  LinkShape shape_ = LinkShape::Uniform;
  double base_bw_ = 0;                // uniform speed / mixed default uplink
  std::vector<Override> overrides_;   // mixed; sorted by index
  std::vector<Override> degrades_;    // live link derating; sorted by index
  HierarchicalSpec hier_;

  std::size_t acc_count_ = 0;  // 0 = unbound
  bool uniform_ = true;
  double min_bw_ = 0;
  double max_bw_ = 0;
  std::uint64_t fingerprint_ = 0;
};

/// Parse the CLI spelling of a topology (all bandwidths in GB/s):
///   uniform:0.5
///   mixed:0.125,0=1.25,2=1.25          (default, then acc=uplink overrides)
///   hier:group=4,intra=1.25,uplink=0.25[,host=0.5][,lat_us=2]
/// Throws ConfigError with a usage hint on malformed input.
[[nodiscard]] Interconnect parse_links_spec(std::string_view spec);

}  // namespace h2h
