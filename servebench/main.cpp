// End-to-end benchmark of `h2h serve`: one client thread drives the server
// over its stdio pipes in a closed loop, checks every response, and prints
// the metrics, last line a JSON object. With --trace 1 it instead replays
// the same lines in process with spans and prints the per-layer metrics.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --server <path to h2h> [--trace-dir <dir>]
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "checker.h"
#include "client.h"
#include "replay.h"
#include "serve/json.h"
#include "workload.h"

namespace servebench {
namespace {

namespace json = h2h::json;

// The server runs two worker threads and the client keeps two requests in
// flight: with the client thread, three of the four cores are busy.
constexpr int kServerThreads = 2;
constexpr std::size_t kWindow = 2;
// Set-up (spawn + warm-up) is repeated and its median reported.
constexpr int kSetups = 9;
// Every timed phase has at least this many requests, so the p99 latency
// has ten samples beyond it.
constexpr std::size_t kMinTimed = 1000;
// CPU steal (time the hypervisor gives to other guests) is sampled every
// kStealWindowS (see timing_metrics).
constexpr double kStealWindowS = 0.05;

struct Args {
  WorkloadId workload = WorkloadId::ZooReplan;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string trace_dir = ".bench_build/traces";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<Metric> metrics;
  std::string first_failure;

  void fail(const std::string& why) {
    correct = false;
    if (first_failure.empty()) first_failure = why;
  }
  void note(const Request& r, const std::string& response,
            const std::string& why) {
    ++failed;
    fail("request " + r.id + ": " + why + "\n  request:  " + r.line +
         "\n  response: " + response.substr(0, 400));
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

// Checks responses[i] against requests[i]; the quality window starts at
// request `quality_from`.
void check_all(Checker& checker, const std::vector<Request>& requests,
               const std::vector<std::string>& responses, Outcome& out,
               std::size_t quality_from = 0) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i == quality_from) checker.start_quality_window();
    const std::string why = checker.check(requests[i], responses[i]);
    if (!why.empty()) out.note(requests[i], responses[i], why);
  }
}

struct StealSample {
  Clock::time_point at;
  CpuTicks ticks;
};

// Throughput and latency percentiles of the timed phase. Other guests on
// the host steal CPU in bursts, and a request that spans one pays for it
// many times over. The figures therefore come from the steal windows in
// which the host stole nothing; when those are fewer than half the
// windows, or hold fewer than kMinTimed responses, the least disturbed of
// the rest are added until both hold. A response belongs to the window it
// arrived in.
void timing_metrics(const LoopResult& run,
                    const std::vector<StealSample>& steal, Outcome& out) {
  struct Window {
    double begin_s, end_s, steal_share;
    std::size_t responses = 0;
  };
  std::vector<Window> windows;
  for (std::size_t w = 1; w < steal.size(); ++w) {
    const CpuTicks& a = steal[w - 1].ticks;
    const CpuTicks& b = steal[w].ticks;
    const double total = static_cast<double>(b.total - a.total);
    windows.push_back(
        {std::chrono::duration<double>(steal[w - 1].at - run.start).count(),
         std::chrono::duration<double>(steal[w].at - run.start).count(),
         total > 0 ? static_cast<double>(b.steal - a.steal) / total : 0.0});
  }
  std::vector<std::size_t> window_of(run.done_s.size());
  for (std::size_t i = 0, w = 0; i < run.done_s.size(); ++i) {
    while (w + 1 < windows.size() && run.done_s[i] > windows[w].end_s) ++w;
    window_of[i] = w;
    ++windows[w].responses;
  }
  std::vector<std::size_t> order(windows.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return windows[a].steal_share < windows[b].steal_share;
                   });
  std::vector<bool> keep(windows.size(), false);
  std::size_t kept = 0, responses = 0;
  double seconds = 0;
  for (const std::size_t w : order) {
    const bool quiet = windows[w].steal_share == 0;
    if (!quiet && 2 * kept >= windows.size() && responses >= kMinTimed) break;
    keep[w] = true;
    ++kept;
    responses += windows[w].responses;
    seconds += windows[w].end_s - windows[w].begin_s;
  }
  std::vector<double> latency;
  for (std::size_t i = 0; i < run.latency_ms.size(); ++i)
    if (keep[window_of[i]]) latency.push_back(run.latency_ms[i]);
  const double all_steal =
      static_cast<double>(steal.back().ticks.steal - steal.front().ticks.steal);
  const double all_ticks =
      static_cast<double>(steal.back().ticks.total - steal.front().ticks.total);
  out.metrics.push_back(
      {"throughput_rps", static_cast<double>(latency.size()) / seconds, "1/s"});
  out.metrics.push_back({"latency_p50_ms", percentile(latency, 0.50), "ms"});
  out.metrics.push_back({"latency_p99_ms", percentile(latency, 0.99), "ms"});
  std::printf("timed: %zu responses; figures from %zu of them in %zu of %zu "
              "steal windows; host steal %.2f%% of CPU time\n",
              run.latency_ms.size(), latency.size(), kept, windows.size(),
              all_ticks > 0 ? 100 * all_steal / all_ticks : 0.0);
}

void check_exit(ServerProcess& server, Outcome& out) {
  const int status = server.finish();
  if (status != 0)
    out.fail("server exited with status " + std::to_string(status));
}

void add_quality(const Checker& checker, Outcome& out) {
  out.metrics.push_back(
      {"mapped_latency_geomean_ms", checker.latency_geomean_ms(), "ms"});
  out.metrics.push_back(
      {"mapped_energy_geomean_mj", checker.energy_geomean_mj(), "mJ"});
  out.metrics.push_back(
      {"migrated_mib_per_repair", checker.migrated_mib_per_replan(), "MiB"});
  out.metrics.push_back({"slo_met_frac", checker.slo_met_frac(), "ratio"});
}

Outcome run_serve(const Args& args) {
  Outcome out;
  Generator gen(args.workload, args.seed);
  const std::vector<Request>& warmup = gen.warmup();
  const std::size_t window = gen.quality_window();
  const auto warm_line = [&warmup](std::size_t i) -> const std::string* {
    return i < warmup.size() ? &warmup[i].line : nullptr;
  };

  // Set-up: spawn to the last warm-up response, kSetups times; the last
  // server goes on to the timed phase.
  std::vector<double> setups;
  std::unique_ptr<ServerProcess> server;
  LoopResult warm;
  for (int s = 0; s < kSetups; ++s) {
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerProcess>(args.server, kServerThreads);
    warm = closed_loop(*server, kWindow, warm_line);
    setups.push_back(seconds_since(t0));
    out.attempted += warmup.size();
    if (s + 1 == kSetups) break;
    Checker checker(0);
    check_all(checker, warmup, warm.responses, out, warmup.size());
    check_exit(*server, out);
  }

  // Timed phase: at least --seconds, one block, and the quality window.
  const std::size_t min_timed = std::max(window, kMinTimed);
  std::vector<Request> timed;
  double rss_mb = 0;
  std::vector<StealSample> steal = {{Clock::now(), read_cpu_ticks()}};
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  const LoopResult run = closed_loop(
      *server, kWindow,
      [&](std::size_t i) -> const std::string* {
        if (i >= min_timed && Clock::now() >= deadline) return nullptr;
        timed.push_back(gen.next());
        return &timed.back().line;
      },
      [&](std::size_t i) {
        if (i + 1 == window) rss_mb = server->peak_rss_mb();
        const Clock::time_point now = Clock::now();
        if (now - steal.back().at >=
            std::chrono::duration<double>(kStealWindowS))
          steal.push_back({now, read_cpu_ticks()});
      });
  steal.push_back({Clock::now(), read_cpu_ticks()});
  check_exit(*server, out);
  out.attempted += timed.size();

  Checker checker(window);
  check_all(checker, warmup, warm.responses, out, warmup.size());
  check_all(checker, timed, run.responses, out);

  timing_metrics(run, steal, out);
  out.metrics.push_back({"setup_s", median(setups), "s"});
  out.metrics.push_back({"peak_rss_mb", rss_mb, "MiB"});
  add_quality(checker, out);
  return out;
}

Outcome run_traced(const Args& args) {
  Outcome out;
  Generator gen(args.workload, args.seed);
  std::vector<Request> requests = gen.warmup();
  const std::size_t window = gen.quality_window();
  for (std::size_t i = 0; i < window; ++i) requests.push_back(gen.next());

  // A throwaway replay of the warm-up prefix first, so one-time process
  // costs land on neither side of the first pair. Then untraced and traced
  // replays in alternating order until --seconds have passed; the overhead
  // is the median over the pairs.
  (void)replay(gen.warmup(), nullptr);
  std::vector<double> overheads;
  Tracer tracer;
  ReplayResult traced;
  const Clock::time_point t0 = Clock::now();
  for (int pair = 0; pair == 0 || seconds_since(t0) < args.seconds; ++pair) {
    Tracer pair_tracer;
    ReplayResult bare, with;
    if (pair % 2 == 0) {
      bare = replay(requests, nullptr);
      with = replay(requests, &pair_tracer);
    } else {
      with = replay(requests, &pair_tracer);
      bare = replay(requests, nullptr);
    }
    overheads.push_back(with.wall_s / bare.wall_s - 1);
    if (bare.responses != with.responses)
      out.fail("traced and untraced replays answered differently");
    if (pair == 0) {
      tracer = std::move(pair_tracer);
      traced = std::move(with);
    }
  }
  out.attempted = requests.size();

  Checker checker(window);
  check_all(checker, requests, traced.responses, out, gen.warmup().size());

  bool consistent = true;
  const Counters layers =
      layer_metrics(tracer, traced.counters, traced.wall_s, consistent);
  for (const auto& [name, value] : layers)
    out.metrics.push_back({name, value, std::string(layer_metric_unit(name))});
  out.metrics.push_back({"trace.overhead_frac", median(overheads), "ratio"});
  if (!consistent) out.fail("a child span outlives its parent");
  if (std::abs(layers.at("trace.self_sum_frac") - 1) > 0.05)
    out.fail("span self times do not sum to the replay wall");

  std::filesystem::create_directories(args.trace_dir);
  const std::string path = args.trace_dir + "/" +
                           std::string(to_string(args.workload)) + "-" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream spans(path);
  write_spans(tracer, spans);
  std::printf("spans: %zu written to %s\n", tracer.spans().size(),
              path.c_str());
  return out;
}

void print(const Outcome& out) {
  for (const Metric& m : out.metrics)
    std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("failed_frac %.6f (%zu of %zu)\n",
              static_cast<double>(out.failed) /
                  static_cast<double>(std::max<std::size_t>(out.attempted, 1)),
              out.failed, out.attempted);
  if (!out.first_failure.empty())
    std::fprintf(stderr, "first mismatch: %s\n", out.first_failure.c_str());
  json::Object metrics;
  for (const Metric& m : out.metrics) {
    json::Object v;
    v.set("value", m.value);
    v.set("unit", m.unit);
    metrics.set(m.name, std::move(v));
  }
  json::Object root;
  root.set("correct", out.correct);
  root.set("attempted", static_cast<double>(out.attempted));
  root.set("failed", static_cast<double>(out.failed));
  root.set("metrics", std::move(metrics));
  std::printf("%s\n", json::dump(json::Value(std::move(root))).c_str());
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "servebench: %s\nusage: servebench --workload <zoo_replan|"
               "key_churn|fault_repair|tenant_comap> --seed <n> --seconds <s> "
               "--trace <0|1> --server <h2h binary> [--trace-dir <dir>]\n",
               why.c_str());
  return 2;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  std::signal(SIGPIPE, SIG_IGN);  // a dead server surfaces as EPIPE
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        const auto w = workload_by_name(value);
        if (!w) return usage("unknown workload " + value);
        args.workload = *w;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--server") {
        args.server = value;
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!args.trace && args.server.empty()) return usage("--server is required");
  try {
    print(args.trace ? run_traced(args) : run_serve(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
  return 0;
}
