#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "serve/protocol.h"
#include "util/error.h"
#include "util/session_store.h"
#include "util/str.h"

#if defined(__unix__) || defined(__APPLE__)
#define H2H_SERVE_HAS_TCP 1
#include <arpa/inet.h>
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#else
#define H2H_SERVE_HAS_TCP 0
#endif

namespace h2h::serve {
namespace {

std::atomic<bool> g_shutdown{false};

[[nodiscard]] bool shutdown_requested() noexcept {
  return g_shutdown.load(std::memory_order_relaxed);
}

#if H2H_SERVE_HAS_TCP

void on_shutdown_signal(int) noexcept {
  g_shutdown.store(true, std::memory_order_relaxed);
}

/// Installs SIGINT/SIGTERM handlers for the lifetime of a serve loop and
/// restores the previous actions on exit. Deliberately no SA_RESTART: the
/// signal must interrupt the blocking read (EINTR -> stream EOF) so the
/// reader stops accepting while the drain path finishes in-flight work.
class SignalGuard {
 public:
  explicit SignalGuard(bool enable) : enabled_(enable) {
    if (!enabled_) return;
    g_shutdown.store(false, std::memory_order_relaxed);
    struct sigaction sa = {};
    sa.sa_handler = on_shutdown_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGINT, &sa, &old_int_);
    ::sigaction(SIGTERM, &sa, &old_term_);
  }
  ~SignalGuard() {
    if (!enabled_) return;
    ::sigaction(SIGINT, &old_int_, nullptr);
    ::sigaction(SIGTERM, &old_term_, nullptr);
  }
  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

 private:
  bool enabled_;
  struct sigaction old_int_ = {};
  struct sigaction old_term_ = {};
};

#else

/// Non-POSIX builds have no signals to guard; handle_signals is a no-op.
class SignalGuard {
 public:
  explicit SignalGuard(bool) {}
};

#endif  // H2H_SERVE_HAS_TCP

/// Everything one request needs besides the line itself: the shared Planner
/// and the name sources write_response reads. Lives across connections so a
/// reconnecting client still hits warm sessions.
class RequestProcessor {
 public:
  explicit RequestProcessor(const PlannerOptions& planner_options)
      : planner_(planner_options),
        name_sys_(SystemConfig::standard(0.5e9)),
        comap_(planner_options.max_sessions, planner_options.shards),
        repairs_(planner_options.max_sessions, planner_options.shards) {}

  struct Outcome {
    std::string line;
    bool ok = false;
  };

  [[nodiscard]] Outcome process(const std::string& line) {
    std::variant<WireRequest, WireTenantsRequest, WireRepairRequest,
                 WireError>
        parsed = parse_any_request(line);
    if (const WireError* err = std::get_if<WireError>(&parsed)) {
      return {write_error(*err), false};
    }
    if (const WireTenantsRequest* treq =
            std::get_if<WireTenantsRequest>(&parsed)) {
      return process_tenants(*treq);
    }
    if (const WireRepairRequest* rreq =
            std::get_if<WireRepairRequest>(&parsed)) {
      return process_repair(*rreq);
    }
    const WireRequest& req = std::get<WireRequest>(parsed);
    try {
      const PlanResponse response = planner_.plan(to_plan_request(req));
      // The new plan replaces its key's slot, dropping compounded repairs.
      auto slot = std::make_shared<RepairSlot>(response.mapping, response.plan);
      repairs_.replace(repair_key(req), std::move(slot));
      return {write_response(req, response, model_for(req.model), name_sys_),
              true};
    } catch (const std::exception& e) {
      // Explicit error responses instead of exceptions crossing the wire:
      // an infeasible request must not take the loop down.
      return {write_error({ErrorCode::PlanFailed, e.what(), req.id}), false};
    }
  }

 private:
  [[nodiscard]] Outcome process_tenants(const WireTenantsRequest& req) {
    try {
      std::shared_ptr<CoMapSession> session = comap_.find(req.bw_gbps);
      if (session == nullptr) {
        session = comap_.insert(req.bw_gbps,
                                std::make_shared<CoMapSession>(req.bw_gbps));
      }
      const TenantSet set(req.tenants);
      CoMapOptions opts;
      opts.plan = req.options;
      opts.max_rounds = req.max_rounds;
      opts.steal_round = req.steal_round;
      const CoMapResult result = session->comapper.co_map(set, opts);
      if (req.require_slos && !result.all_slos_met) {
        std::string missing;
        for (const TenantOutcome& t : result.tenants) {
          if (t.met) continue;
          if (!missing.empty()) missing += ", ";
          missing += strformat("%s (%.6g s > %.6g s)", t.name.c_str(),
                               t.latency_s, t.slo_s);
        }
        return {write_error({ErrorCode::SloViolated,
                             strformat("co-mapping misses SLOs: %s",
                                       missing.c_str()),
                             req.id}),
                false};
      }
      return {write_tenants_response(req, result, name_sys_), true};
    } catch (const CapabilityError& e) {
      return {write_error({ErrorCode::InfeasibleCapability, e.what(),
                           req.id}),
              false};
    } catch (const ConfigError& e) {
      // Request-content problems the parser cannot see (e.g. union
      // dtype/batch disagreement) answer as bad_field, not plan_failed.
      return {write_error({ErrorCode::BadField, e.what(), req.id}), false};
    } catch (const std::exception& e) {
      return {write_error({ErrorCode::PlanFailed, e.what(), req.id}), false};
    }
  }

  /// The repair session key: which live plan a "repair" request repairs.
  /// Mirrors the Planner's session key components (model, batch, topology).
  struct RepairKey {
    ZooModel model = ZooModel::MoCap;
    std::uint32_t batch = 0;
    double bw_gbps = 0;
    std::uint64_t links_fp = 0;  // params fingerprint; 0 = scalar bw
    bool operator==(const RepairKey&) const = default;
  };
  struct RepairKeyHash {
    std::size_t operator()(const RepairKey& k) const noexcept {
      return std::hash<double>{}(k.bw_gbps) ^ k.links_fp ^
             (std::size_t{k.batch} << 8) ^ static_cast<std::size_t>(k.model);
    }
  };

  /// The key of a plan or repair request.
  template <typename Request>
  [[nodiscard]] static RepairKey repair_key(const Request& req) {
    return {req.model, req.batch == 0 ? 1u : req.batch, req.bw_gbps,
            req.links ? req.links->params_fingerprint() : 0};
  }

  /// Per-key repair state: the most recent successful plan (what the first
  /// repair adopts) and the live repair session built by that first repair,
  /// an owned model copy (at the session batch) plus the engine compounding
  /// fault events against it. `mu` serializes repairs of the key; a new
  /// plan replaces the whole slot, dropping any compounded history.
  struct RepairSlot {
    Mapping mapping;
    LocalityPlan plan;
    std::mutex mu;
    std::optional<ModelGraph> model;     // guarded by mu
    std::optional<RepairEngine> engine;  // guarded by mu
  };

  [[nodiscard]] Outcome process_repair(const WireRepairRequest& req) {
    if (req.event.acc.value >= name_sys_.accelerator_count()) {
      return {write_error({ErrorCode::UnknownAcc,
                           strformat("repair.acc: no accelerator %u (catalog "
                                     "has %zu)",
                                     req.event.acc.value,
                                     name_sys_.accelerator_count()),
                           req.id}),
              false};
    }
    // A slot that was never planned or has been evicted: nothing to repair.
    const std::shared_ptr<RepairSlot> slot = repairs_.find(repair_key(req));
    if (slot == nullptr) {
      return {write_error({ErrorCode::NoPriorPlan,
                           "repair: no prior plan for this model/topology/"
                           "batch on this server — send a plan request "
                           "first",
                           req.id}),
              false};
    }
    // Repairs of one key compound state, so they serialize on its slot;
    // other keys, plans and co-maps run concurrently.
    const std::scoped_lock lock(slot->mu);
    RepairOptions opts;
    opts.plan = req.options;
    opts.fallback_ratio = req.fallback_ratio;
    try {
      if (!slot->engine) {
        slot->model.emplace(make_model(req.model));
        if (req.batch != 0) slot->model->set_batch(req.batch);
        slot->engine.emplace(*slot->model,
                             req.links
                                 ? SystemConfig::standard(*req.links)
                                 : SystemConfig::standard(req.bw_gbps * 1e9),
                             opts);
        slot->engine->adopt(slot->mapping, slot->plan);
      } else {
        slot->engine->set_options(opts);
      }
      const RepairResult result = slot->engine->apply(req.event);
      if (result.outcome == RepairOutcome::Infeasible) {
        return {write_error({ErrorCode::InfeasibleRepair,
                             result.infeasible_reason, req.id}),
                false};
      }
      return {write_repair_response(req, result, *slot->model, name_sys_),
              true};
    } catch (const ConfigError& e) {
      // Contradictory transitions (losing a lost accelerator, returning a
      // live one) are request-content errors.
      return {write_error({ErrorCode::BadField, e.what(), req.id}), false};
    } catch (const std::exception& e) {
      return {write_error({ErrorCode::PlanFailed, e.what(), req.id}), false};
    }
  }

  /// Graphs are only needed for layer names in responses; one cached copy
  /// per zoo model serves every request (read-only once built).
  [[nodiscard]] const ModelGraph& model_for(ZooModel id) {
    const std::scoped_lock lock(models_mu_);
    std::unique_ptr<const ModelGraph>& slot = models_[id];
    if (slot == nullptr) {
      slot = std::make_unique<const ModelGraph>(make_model(id));
    }
    return *slot;
  }

  /// One CoMapper per requested bandwidth, kept warm across requests and
  /// connections (the member system must outlive the borrowing CoMapper,
  /// hence the pairing). co_map itself is thread-safe.
  struct CoMapSession {
    SystemConfig sys;
    CoMapper comapper;
    explicit CoMapSession(double bw_gbps)
        : sys(SystemConfig::standard(bw_gbps * 1e9)), comapper(sys) {}
  };

  Planner planner_;
  SystemConfig name_sys_;  // accelerator names only; BW value irrelevant
  std::mutex models_mu_;
  std::map<ZooModel, std::unique_ptr<const ModelGraph>> models_;
  // Bounded like the Planner's sessions, by the same PlannerOptions.
  SessionStore<double, CoMapSession> comap_;
  SessionStore<RepairKey, RepairSlot, RepairKeyHash> repairs_;
};

/// Reorders completed responses back into request order. Whichever thread
/// completes the next-expected sequence number drains everything
/// consecutive, so output needs no dedicated writer thread.
class OrderedEmitter {
 public:
  explicit OrderedEmitter(std::ostream& out) : out_(out) {}

  void emit(std::uint64_t seq, std::string line, bool ok) {
    const std::scoped_lock lock(mu_);
    (ok ? stats_.ok : stats_.errors) += 1;
    ready_.emplace(seq, std::move(line));
    while (!ready_.empty() && ready_.begin()->first == next_) {
      out_ << ready_.begin()->second << '\n';
      out_.flush();
      ready_.erase(ready_.begin());
      ++next_;
    }
  }

  [[nodiscard]] ServeStats stats() const {
    const std::scoped_lock lock(mu_);
    return stats_;
  }

 private:
  std::ostream& out_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, std::string> ready_;
  std::uint64_t next_ = 0;
  ServeStats stats_;
};

enum class LineStatus { Ok, Oversized, Eof };

/// getline with a byte cap: oversized lines are consumed to their newline
/// but truncated in `line`, and reported so the caller can answer with a
/// proper error instead of parsing the truncation.
[[nodiscard]] LineStatus read_line(std::istream& in, std::string& line,
                                   std::size_t cap) {
  line.clear();
  bool over = false;
  bool any = false;
  for (int c = in.get(); c != std::istream::traits_type::eof();
       c = in.get()) {
    any = true;
    if (c == '\n') return over ? LineStatus::Oversized : LineStatus::Ok;
    if (line.size() < cap) {
      line += static_cast<char>(c);
    } else {
      over = true;
    }
  }
  if (!any) return LineStatus::Eof;
  return over ? LineStatus::Oversized : LineStatus::Ok;
}

[[nodiscard]] std::string oversized_error(std::size_t cap) {
  return write_error({ErrorCode::ParseError,
                      strformat("request line exceeds %zu bytes", cap),
                      {}});
}

ServeStats run_loop(RequestProcessor& processor, std::istream& in,
                    std::ostream& out, const ServeOptions& options) {
  OrderedEmitter emitter(out);
  std::string line;
  std::uint64_t seq = 0;  // one per request: every non-empty line

  // A shutdown signal interrupts the blocking read, so the stream reports
  // EOF; a line the signal cut in half must be dropped, not answered as a
  // parse error. (A genuine final line without '\n' is still served when
  // no signal fired.)
  const auto cut_by_signal = [&in, &options](LineStatus status) {
    return status != LineStatus::Eof && options.handle_signals &&
           shutdown_requested() && in.eof();
  };

  std::mutex mu;
  std::condition_variable work_cv;   // workers wait for lines
  std::condition_variable space_cv;  // reader waits for inbox room
  std::deque<std::pair<std::uint64_t, std::string>> inbox;
  bool done = false;
  const std::size_t threads = std::max<std::size_t>(1, options.threads);
  const std::size_t inbox_cap = threads * 8;

  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&] {
      for (;;) {
        std::unique_lock lock(mu);
        work_cv.wait(lock, [&] { return done || !inbox.empty(); });
        if (inbox.empty()) return;
        const std::uint64_t my_seq = inbox.front().first;
        const std::string my_line = std::move(inbox.front().second);
        inbox.pop_front();
        space_cv.notify_one();
        lock.unlock();
        RequestProcessor::Outcome o = processor.process(my_line);
        emitter.emit(my_seq, std::move(o.line), o.ok);
      }
    });
  }

  for (;;) {
    const LineStatus status = read_line(in, line, options.max_line_bytes);
    if (status == LineStatus::Eof || cut_by_signal(status)) break;
    if (status == LineStatus::Ok && line.empty()) continue;
    if (status == LineStatus::Oversized) {
      emitter.emit(seq++, oversized_error(options.max_line_bytes), false);
      continue;
    }
    std::unique_lock lock(mu);
    space_cv.wait(lock, [&] { return inbox.size() < inbox_cap; });
    inbox.emplace_back(seq++, line);
    work_cv.notify_one();
  }
  {
    const std::scoped_lock lock(mu);
    done = true;
  }
  work_cv.notify_all();
  for (std::thread& t : workers) t.join();

  ServeStats totals = emitter.stats();
  totals.requests = seq;
  return totals;
}

#if H2H_SERVE_HAS_TCP

/// Buffered std::streambuf over a connected socket; serves as both the get
/// and put area so one buffer backs the connection's istream and ostream.
///
/// A client that disconnects mid-response must not kill the server: writes
/// go through send(MSG_NOSIGNAL) where available so a dead peer yields
/// EPIPE instead of a process-fatal SIGPIPE, and any write error (EPIPE,
/// ECONNRESET) reports cleanly as a stream failure — the serve loop then
/// finishes the connection and accepts the next one. Platforms without
/// MSG_NOSIGNAL (macOS) get the same guarantee from the SO_NOSIGPIPE
/// socket option, set at accept time.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setp(out_, out_ + sizeof(out_) - 1);
  }
  ~FdStreamBuf() override { sync(); }

 protected:
  int_type underflow() override {
    const ssize_t n = ::read(fd_, in_, sizeof(in_));
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(in_[0]);
  }

  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return flush_out() == 0 ? traits_type::not_eof(ch) : traits_type::eof();
  }

  int sync() override { return flush_out(); }

 private:
  int flush_out() {
    const std::size_t n = static_cast<std::size_t>(pptr() - pbase());
    std::size_t off = 0;
    while (off < n) {
#if defined(MSG_NOSIGNAL)
      const ssize_t w = ::send(fd_, pbase() + off, n - off, MSG_NOSIGNAL);
#else
      const ssize_t w = ::write(fd_, pbase() + off, n - off);
#endif
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) {
        // Drop the unsendable bytes: a dead peer never drains them, and
        // keeping them would fail every later flush (including the one in
        // the destructor).
        pbump(-static_cast<int>(n));
        return -1;
      }
      off += static_cast<std::size_t>(w);
    }
    pbump(-static_cast<int>(n));
    return 0;
  }

  int fd_;
  char in_[4096] = {};
  char out_[4096] = {};
};

/// Opt a just-accepted connection out of SIGPIPE where MSG_NOSIGNAL is not
/// available; no-op elsewhere (the send flag already covers it).
void suppress_sigpipe(int fd) {
#if !defined(MSG_NOSIGNAL) && defined(SO_NOSIGPIPE)
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_NOSIGPIPE, &one, sizeof(one));
#else
  (void)fd;
#endif
}

#endif  // H2H_SERVE_HAS_TCP

}  // namespace

ServeStats serve_jsonl(std::istream& in, std::ostream& out,
                       const ServeOptions& options) {
  const SignalGuard signals(options.handle_signals);
  RequestProcessor processor(options.planner);
  return run_loop(processor, in, out, options);
}

int serve_tcp(const TcpOptions& options, std::ostream& diag,
              TcpStats* stats) {
  TcpStats local;
  if (stats == nullptr) stats = &local;
  *stats = {};
#if H2H_SERVE_HAS_TCP
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    diag << "h2h-serve: socket: " << std::strerror(errno) << '\n';
    return 1;
  }
  const int one = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    diag << "h2h-serve: bind/listen: " << std::strerror(errno) << '\n';
    ::close(listen_fd);
    return 1;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  diag << "h2h-serve listening on 127.0.0.1:" << ntohs(bound.sin_port)
       << std::endl;

  // One processor across connections: a client that reconnects keeps its
  // warm sessions.
  const SignalGuard signals(options.serve.handle_signals);
  RequestProcessor processor(options.serve.planner);
  std::uint32_t accept_failures = 0;  // consecutive transient failures
  for (std::uint64_t served = 0;
       options.max_connections == 0 || served < options.max_connections;
       ++served) {
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        // A shutdown signal interrupts accept; anything else (e.g. a
        // profiler attaching) just retries.
        if (options.serve.handle_signals && shutdown_requested()) break;
        --served;
        continue;
      }
      // Transient failures — the peer aborted its connect, or the process
      // is briefly out of descriptors — back off and retry instead of
      // taking the listener down. Persistent failure still exits 1.
      if ((errno == ECONNABORTED || errno == EMFILE || errno == ENFILE) &&
          accept_failures < options.max_accept_retries) {
        ++accept_failures;
        ++stats->accept_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::int64_t{1} << std::min<std::uint32_t>(accept_failures, 8)));
        --served;
        continue;
      }
      diag << "h2h-serve: accept: " << std::strerror(errno) << '\n';
      ::close(listen_fd);
      return 1;
    }
    accept_failures = 0;
    suppress_sigpipe(conn);
    FdStreamBuf buf(conn);
    std::istream conn_in(&buf);
    std::ostream conn_out(&buf);
    const ServeStats conn_stats =
        run_loop(processor, conn_in, conn_out, options.serve);
    conn_out.flush();
    ::close(conn);
    ++stats->connections;
    diag << "h2h-serve: connection done (" << conn_stats.requests
         << " requests, " << conn_stats.errors << " errors)" << std::endl;
    if (options.serve.handle_signals && shutdown_requested()) break;
  }
  ::close(listen_fd);
  diag << "h2h-serve: served " << stats->connections << " connection(s), "
       << stats->accept_retries << " accept retr"
       << (stats->accept_retries == 1 ? "y" : "ies") << std::endl;
  if (options.serve.handle_signals && shutdown_requested()) {
    diag << "h2h-serve: shutting down on signal" << std::endl;
  }
  return 0;
#else
  (void)options;
  diag << "h2h-serve: TCP serving is not supported on this platform\n";
  return 1;
#endif
}

}  // namespace h2h::serve
