// Output checker for the `h2h serve` benchmark.
//
// Responses are checked in request order after the timed phase. Every plan
// is rebuilt through read_mapping on a fresh Simulator and must reproduce the
// reported latency and energy bit for bit; repairs are re-simulated on a
// mirrored faulted system; co-mapping verdicts are recomputed; rejections
// must carry the exact error code. The checker also accumulates the
// deterministic plan-quality metrics over the generator's quality window.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/json.h"
#include "workload.h"

namespace servebench {

class Checker {
 public:
  /// Quality metrics cover the first `quality_window` checked responses.
  explicit Checker(std::size_t quality_window);
  ~Checker();
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// The next checked response is the first of the quality window.
  void start_quality_window() noexcept { window_left_ = quality_window_; }

  /// Check the next response (responses must arrive in request order).
  /// Returns an empty string when it is the expected outcome, else why not.
  std::string check(const Request& request, std::string_view response);

  /// Responses whose outcome was not the expected one.
  [[nodiscard]] std::size_t failed() const noexcept { return failed_; }

  // Deterministic quality metrics over the quality window.
  /// Geometric mean of mapped latencies (per tenant for co-mappings), ms.
  [[nodiscard]] double latency_geomean_ms() const;
  /// Geometric mean of mapped energies, mJ.
  [[nodiscard]] double energy_geomean_mj() const;
  /// Mean weight MiB re-staged per plan change: the weights of layers whose
  /// accelerator differs from the last plan served for the same model.
  [[nodiscard]] double migrated_mib_per_replan() const;
  /// Share of served models (plans, repairs, tenants) meeting their SLO.
  [[nodiscard]] double slo_met_frac() const;

 private:
  struct ModelInfo;

  [[nodiscard]] std::string check_ok(const Request& request,
                                     const h2h::json::Object& response);
  [[nodiscard]] std::string check_plan(const Request& request,
                                       const h2h::json::Object& response);
  [[nodiscard]] std::string check_repair(const Request& request,
                                         const h2h::json::Object& response);
  [[nodiscard]] std::string check_tenants(const Request& request,
                                          const h2h::json::Object& response);
  const ModelInfo& model_info(h2h::ZooModel model);
  /// Record a served placement (layer name -> accelerator name) of `model`,
  /// counting the weight bytes that moved since its last one.
  void record_placement(h2h::ZooModel model,
                        std::map<std::string, std::string> placement,
                        double* moved_bytes);

  std::size_t quality_window_;
  std::size_t failed_ = 0;
  std::size_t window_left_ = 0;  // quality-window responses still to come
  bool counting_ = false;        // the current response is in the window

  std::vector<double> log_latency_;
  std::vector<double> log_energy_;
  double moved_bytes_ = 0;
  std::size_t replans_ = 0;
  std::size_t slo_met_ = 0;
  std::size_t slo_total_ = 0;

  std::map<h2h::ZooModel, std::unique_ptr<ModelInfo>> models_;
  std::map<h2h::ZooModel, std::map<std::string, std::string>> last_placement_;
  // fault_repair: the mirrored faulted system of each (model, bw) session.
  std::map<std::pair<h2h::ZooModel, double>, std::unique_ptr<FaultMirror>>
      mirrors_;
};

}  // namespace servebench
