// Planning-as-a-service: the request pipeline behind `h2h serve`
// (DESIGN.md §8).
//
// serve_jsonl reads one request per line, plans it, and writes one response
// per line, *in request order* regardless of worker count — a reader thread
// stamps each line with a sequence number, a small worker pool plans
// concurrently on one shared (thread-safe) Planner, and completed responses
// are held until all predecessors have been written. With emit.timing off,
// multi-threaded output is byte-identical to single-threaded output
// (pinned in test_serve_pipeline.cpp).
//
// Every failure mode becomes an `ok:false` response line: malformed JSON,
// schema violations, and planning exceptions are answered and the loop
// keeps going. Nothing short of losing stdin/stdout stops a serving loop —
// except a graceful shutdown: with ServeOptions::handle_signals set,
// SIGINT/SIGTERM stop the reader, drain in-flight requests, flush the
// ordered output, and return normally.
//
// All three wire schemas are served: single-model requests hit the shared
// Planner; "tenants" requests co-map a TenantSet on a per-bandwidth
// CoMapper (tenant/co_mapper.h), with CapabilityError answered as
// infeasible_capability and require_slos misses as slo_violated; "repair"
// requests repair the latest plan for their session key (repair/repair.h),
// answering unknown_acc, no_prior_plan, or infeasible_repair when they
// cannot. Planner sessions, co-map sessions and repair slots each live in a
// bounded SessionStore (util/session_store.h); ServeOptions::planner
// configures every serve store, so an evicted plan answers no_prior_plan.
//
// serve_tcp accepts loopback TCP connections and runs the same jsonl loop
// over each socket, one connection at a time (requests within a connection
// still fan out across the worker pool). POSIX-only; on other platforms it
// returns an error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/planner.h"

namespace h2h::serve {

struct ServeOptions {
  /// Worker threads planning concurrently (0 counts as 1). Output order
  /// and bytes do not depend on it.
  std::size_t threads = 1;
  /// Configures every serve store: the shared Planner's sessions, and the
  /// co-map sessions and repair slots with the same max_sessions/shards.
  PlannerOptions planner;
  /// Requests longer than this are answered with parse_error (guards the
  /// line buffer against unbounded input).
  std::size_t max_line_bytes = 1 << 20;
  /// Install SIGINT/SIGTERM handlers (POSIX, no SA_RESTART) for graceful
  /// shutdown: the loop stops accepting new lines, drains every request
  /// already read, flushes responses in order, and returns normally (so
  /// `h2h serve` exits 0). A partial line cut mid-read by the signal is
  /// dropped, not answered. Off by default — embedders own their signals.
  bool handle_signals = false;
};

struct ServeStats {
  std::uint64_t requests = 0;  // non-empty lines consumed
  std::uint64_t ok = 0;
  std::uint64_t errors = 0;
};

/// Blocking jsonl request loop: reads `in` to EOF, writes responses to
/// `out`. Empty lines are skipped.
ServeStats serve_jsonl(std::istream& in, std::ostream& out,
                       const ServeOptions& options = {});

struct TcpOptions {
  ServeOptions serve;
  /// Port to bind on 127.0.0.1; 0 asks the kernel for a free port (the
  /// chosen port is announced on `diag`).
  std::uint16_t port = 0;
  /// Stop after serving this many connections; 0 = serve forever.
  std::uint64_t max_connections = 0;
  /// Transient accept failures (ECONNABORTED, EMFILE, ENFILE) are retried
  /// with exponential backoff up to this many consecutive times before the
  /// listener gives up; each retry increments TcpStats::accept_retries.
  std::uint32_t max_accept_retries = 5;
};

/// Listener-level counters, reported through the `stats` out-param of
/// serve_tcp (and summarized on `diag` at shutdown).
struct TcpStats {
  std::uint64_t connections = 0;     // connections fully served
  std::uint64_t accept_retries = 0;  // transient accept failures retried
};

/// Listen and serve. Announces "h2h-serve listening on 127.0.0.1:<port>" on
/// `diag` once ready. Returns 0 on clean shutdown, 1 on socket errors
/// (reported on `diag`). A client disconnecting mid-response never kills
/// the listener (SIGPIPE suppressed, EPIPE handled); transient accept
/// failures back off and retry per TcpOptions::max_accept_retries. When
/// `stats` is non-null it receives the listener counters.
int serve_tcp(const TcpOptions& options, std::ostream& diag,
              TcpStats* stats = nullptr);

}  // namespace h2h::serve
