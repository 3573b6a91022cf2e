// Seeded request generator for the `h2h serve` benchmark.
//
// Every workload is a marked warm-up prefix plus an unbounded timed stream,
// both a pure function of (workload, seed). The server only ever sees
// Request::line; the expected outcome and the context the checker needs
// (model, bandwidth, the caller's SLO, the fault event) stay here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "model/zoo.h"
#include "repair/fault.h"
#include "system/system_config.h"
#include "util/rng.h"

namespace servebench {

enum class WorkloadId { ZooReplan, KeyChurn, FaultRepair, TenantComap };

[[nodiscard]] std::string_view to_string(WorkloadId id) noexcept;
[[nodiscard]] std::optional<WorkloadId> workload_by_name(std::string_view name);

enum class Kind { Plan, Tenants, Repair };

struct Tenant {
  h2h::ZooModel model = h2h::ZooModel::MoCap;
  double slo_s = 0;
  std::uint32_t priority = 1;
};

struct Request {
  std::string id;
  std::string line;          // wire bytes, no trailing newline
  std::string expect_error;  // empty: ok:true expected; else the exact code
  bool echo_id = true;       // false when the line cannot be parsed far enough
  Kind kind = Kind::Plan;
  h2h::ZooModel model = h2h::ZooModel::MoCap;  // plan and repair requests
  double bw_gbps = 0.5;
  /// The caller's latency SLO for plan and repair requests. It is never
  /// sent: those schemas carry no deadline, so the benchmark judges it.
  double slo_s = 0;
  std::vector<Tenant> tenants;          // tenants requests
  std::optional<h2h::FaultEvent> event;  // repair requests
};

/// Latency of the standalone H2H plan of `model` at `bw_gbps`, seconds,
/// interpolated in log-bandwidth between the five catalog settings. SLOs
/// are drawn as multiples of it, so they are fixed inputs, not outputs of
/// the program under test.
[[nodiscard]] double reference_latency_s(h2h::ZooModel model, double bw_gbps);

/// The per-session fault state a repair stream must respect: which
/// accelerators are lost, and which have degraded links.
class FaultMirror {
 public:
  FaultMirror(h2h::ZooModel model, double bw_gbps);

  /// The mirrored system (standard catalog with the faults applied).
  [[nodiscard]] const h2h::SystemConfig& system() const noexcept {
    return sys_;
  }
  [[nodiscard]] std::size_t lost_count() const noexcept;
  /// True when `acc` is up, fewer than kMaxLost accelerators are lost, and
  /// losing it leaves every layer kind of the model an accelerator.
  [[nodiscard]] bool can_lose(h2h::AccId acc) const;
  void apply(const h2h::FaultEvent& event);

  static constexpr std::size_t kMaxLost = 3;

 private:
  std::vector<h2h::LayerKind> kinds_;  // the model's placeable layer kinds
  h2h::SystemConfig sys_;
};

/// A seeded permutation of [0, n), reshuffled each time it is used up.
class Cycle {
 public:
  explicit Cycle(std::size_t n) : n_(n) {}
  [[nodiscard]] std::size_t next(h2h::Rng& rng);
  [[nodiscard]] std::size_t size() const noexcept { return n_; }

 private:
  std::size_t n_;
  std::vector<std::size_t> order_;
  std::size_t pos_ = 0;
};

/// Uniform draws from [lo, hi) stratified over epochs of `strata` draws:
/// each epoch hits every stratum once, in seeded order, so a long run sees
/// the same spread of values from seed to seed.
class Stratified {
 public:
  Stratified(double lo, double hi, std::size_t strata)
      : lo_(lo), hi_(hi), strata_(strata) {}
  [[nodiscard]] double draw(h2h::Rng& rng);

 private:
  double lo_, hi_;
  Cycle strata_;
};

class Generator {
 public:
  Generator(WorkloadId workload, std::uint64_t seed);

  /// The warm-up prefix, sent before timing starts; the same on every call.
  [[nodiscard]] const std::vector<Request>& warmup() const noexcept {
    return warmup_;
  }
  /// The next request of the timed stream.
  [[nodiscard]] Request next();
  /// Timed requests whose responses feed the deterministic plan-quality
  /// metrics and the memory reading; a run always completes at least this
  /// many, so those metrics do not depend on how fast the server is.
  [[nodiscard]] std::size_t quality_window() const noexcept;
  /// fault_repair: the fault mirror of each session (one per zoo model).
  [[nodiscard]] const FaultMirror& mirror(std::size_t session) const {
    return sessions_[session].mirror;
  }
  [[nodiscard]] std::size_t sessions() const noexcept {
    return sessions_.size();
  }

 private:
  [[nodiscard]] Request next_zoo();
  [[nodiscard]] Request next_churn(std::string id);
  [[nodiscard]] Request next_repair();
  [[nodiscard]] Request next_tenants();
  [[nodiscard]] Request plan_request(std::string id, h2h::ZooModel model,
                                     double bw_gbps, double slo_factor);
  [[nodiscard]] Request tenants_request(std::string id,
                                        const std::vector<h2h::ZooModel>& set,
                                        double bw_gbps);
  [[nodiscard]] Request invalid_request(std::string id);
  [[nodiscard]] std::string next_id() { return "r" + std::to_string(count_++); }

  WorkloadId workload_;
  h2h::Rng rng_;
  std::vector<Request> warmup_;
  std::uint64_t count_ = 0;

  // Shuffled epochs over a fixed key set (zoo_replan, tenant_comap): every
  // key appears once per epoch, which keeps the quality metrics nearly
  // independent of the seed.
  Cycle keys_;
  // The callers' SLOs, as multiples of reference_latency_s.
  Stratified slo_factor_;

  // key_churn: lines so far, which slot of the current block of 8 is
  // invalid, each model's bandwidth draws, and every bandwidth used.
  std::uint64_t churn_count_ = 0;
  std::size_t invalid_slot_ = 0;
  std::vector<Stratified> churn_bw_;
  std::unordered_set<double> seen_bw_;

  // fault_repair: one session per zoo model, each cycling through rounds of
  // ten events (see next_event).
  struct FaultSession {
    FaultMirror mirror;
    double bw_gbps;
    Cycle lose_order;   // accelerators in the order they are lost
    Cycle tweak_order;  // accelerators in the order they degrade / derate
    std::size_t step = 0;
    h2h::AccId lost[3], degraded, derated;
    FaultSession(h2h::ZooModel model, double bw);
  };
  [[nodiscard]] h2h::FaultEvent next_event(FaultSession& s);
  std::vector<FaultSession> sessions_;
  Cycle session_order_;
  std::size_t last_session_ = 0;
  Stratified scale_;
};

}  // namespace servebench
