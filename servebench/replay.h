// The traced run: the workload's lines replayed in process through the
// layers' public entry points (serve codec, Planner with a span-recording
// pass decorator, CoMapper, RepairEngine), dispatched the way `h2h serve`
// dispatches them.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "workload.h"

namespace servebench {

/// One traced interval. Spans nest: a span's parent was open when it began.
struct Span {
  std::string_view name;  // static storage
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;        // index into the span list; -1 for the root
  std::string request;    // id of the request it served ("" for the root)
};

/// Records spans in memory on one thread; write them out after the run.
class Tracer {
 public:
  /// Opens a span under the innermost open one; returns its index.
  int open(std::string_view name, const std::string& request);
  void close(int span);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Counters read at the layer boundaries during a traced replay.
using Counters = std::map<std::string, double>;

struct ReplayResult {
  std::vector<std::string> responses;  // one per request, in order
  Counters counters;
  double wall_s = 0;
};

/// Replay `requests` on a fresh processor. With a tracer, every layer call
/// is wrapped in a span and counters are collected; without one the same
/// calls run bare, which is what the tracing overhead is measured against.
ReplayResult replay(const std::vector<Request>& requests, Tracer* tracer);

/// Per-layer metrics from a traced replay of `wall_s` seconds: busy and self
/// times per span name, the counters, and the sum of all self times as a
/// share of the wall. Sets `consistent` false when a child span outlives
/// its parent.
Counters layer_metrics(const Tracer& tracer, const Counters& counters,
                       double wall_s, bool& consistent);

/// Unit of a metric returned by layer_metrics.
[[nodiscard]] std::string_view layer_metric_unit(std::string_view name);

/// Spans as JSON lines, with their self times.
void write_spans(const Tracer& tracer, std::ostream& out);

}  // namespace servebench
