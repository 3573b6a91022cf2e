// End-to-end serve loop (serve/server.h): jsonl in, jsonl out, errors
// answered in-band, multi-threaded output identical to single-threaded,
// tenants requests sharing the loop, the pinned wire fixtures, and graceful
// shutdown on signals.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "serve/server.h"
#include "test_helpers.h"
#include "util/str.h"

#if defined(__unix__) || defined(__APPLE__)
#define H2H_TEST_HAS_SIGNALS 1
#include <arpa/inet.h>
#include <ext/stdio_sync_filebuf.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <thread>
#else
#define H2H_TEST_HAS_SIGNALS 0
#endif

namespace h2h {
namespace {

/// A request line for `model` with the suite's search budget applied, so
/// sanitizer runs stay inside the tier-1 time budget.
[[nodiscard]] std::string request_line(const std::string& model,
                                       double bw_gbps,
                                       const std::string& id = {}) {
  std::string line = R"({"schema_version":1,)";
  if (!id.empty()) line += strformat(R"("id":"%s",)", id.c_str());
  line += strformat(
      R"("model":"%s","bw_gbps":%g,)"
      R"("options":{"time_budget_s":%g},"emit":{"timing":false}})",
      model.c_str(), bw_gbps, testing::search_time_budget());
  return line;
}

[[nodiscard]] std::vector<std::string> run_serve(
    const std::string& input, const serve::ServeOptions& options,
    serve::ServeStats* stats_out = nullptr) {
  std::istringstream in(input);
  std::ostringstream out;
  const serve::ServeStats stats = serve::serve_jsonl(in, out, options);
  if (stats_out != nullptr) *stats_out = stats;
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  return lines;
}

TEST(ServePipeline, AnswersEveryLineInOrderAndSurvivesErrors) {
  const std::string input = request_line("mocap", 0.5, "a") + "\n" +
                            "{not json\n" +
                            R"({"schema_version":1,"model":"nope"})" + "\n" +
                            "\n" +  // empty line: skipped, not answered
                            request_line("mocap", 0.5, "b") + "\n";
  serve::ServeStats stats;
  const std::vector<std::string> lines = run_serve(input, {}, &stats);

  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.ok, 2u);
  EXPECT_EQ(stats.errors, 2u);

  EXPECT_NE(lines[0].find(R"("id":"a")"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(lines[1].find("parse_error"), std::string::npos);
  EXPECT_NE(lines[2].find("unknown_model"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("id":"b")"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("ok":true)"), std::string::npos);

  // Same scenario planned twice: the warm response's payload is identical
  // to the cold one's apart from the echoed id (timing suppressed).
  std::string a = lines[0], b = lines[3];
  const auto strip_id = [](std::string& s, const std::string& id) {
    const std::string needle = strformat(R"("id":"%s",)", id.c_str());
    const std::size_t at = s.find(needle);
    ASSERT_NE(at, std::string::npos) << s;
    s.erase(at, needle.size());
  };
  strip_id(a, "a");
  strip_id(b, "b");
  EXPECT_EQ(a, b);
}

TEST(ServePipeline, MultiThreadOutputIsByteIdenticalToSingleThread) {
  // A mixed batch: cold and warm requests over two bandwidths, plus error
  // lines wedged between them. With timing suppressed the response payloads
  // are deterministic, so worker scheduling must not be observable.
  std::string input;
  input += request_line("mocap", 0.5, "r0") + "\n";
  input += request_line("mocap", 0.125, "r1") + "\n";
  input += "{broken\n";
  input += request_line("mocap", 0.5, "r3") + "\n";
  input += R"({"schema_version":9,"model":"mocap"})" + std::string("\n");
  input += request_line("mocap", 0.125, "r5") + "\n";
  input += request_line("mocap", 0.5, "r6") + "\n";

  serve::ServeOptions serial;
  serial.threads = 1;
  serve::ServeOptions pooled;
  pooled.threads = 4;

  const std::vector<std::string> want = run_serve(input, serial);
  const std::vector<std::string> got = run_serve(input, pooled);
  ASSERT_EQ(want.size(), 7u);
  EXPECT_EQ(want, got);
}

/// A client that keeps the wire's compounding contract (serve/protocol.h,
/// WireRepairRequest): a "repair" line is sent only once every earlier line
/// has been answered. Other lines stream ahead, so a worker pool still
/// plans them concurrently.
class AwaitingClient {
 public:
  explicit AwaitingClient(std::vector<std::string> lines)
      : requests_(*this, std::move(lines)), responses_(*this) {}

  [[nodiscard]] std::istream& in() { return in_; }
  [[nodiscard]] std::ostream& out() { return out_; }
  [[nodiscard]] std::string received() {
    const std::scoped_lock lock(mu_);
    return received_;
  }

 private:
  class Requests : public std::streambuf {
   public:
    Requests(AwaitingClient& client, std::vector<std::string> lines)
        : client_(client), lines_(std::move(lines)) {}

   protected:
    int_type underflow() override {
      if (next_ == lines_.size()) return traits_type::eof();
      if (lines_[next_].find(R"("repair")") != std::string::npos) {
        std::unique_lock lock(client_.mu_);
        client_.answered_cv_.wait(
            lock, [this] { return client_.answered_ >= next_; });
      }
      current_ = lines_[next_++] + '\n';
      setg(current_.data(), current_.data(),
           current_.data() + current_.size());
      return traits_type::to_int_type(current_.front());
    }

   private:
    AwaitingClient& client_;
    std::vector<std::string> lines_;
    std::size_t next_ = 0;
    std::string current_;
  };

  class Responses : public std::streambuf {
   public:
    explicit Responses(AwaitingClient& client) : client_(client) {}

   protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      {
        const std::scoped_lock lock(client_.mu_);
        client_.received_.append(s, static_cast<std::size_t>(n));
        client_.answered_ +=
            static_cast<std::size_t>(std::count(s, s + n, '\n'));
      }
      client_.answered_cv_.notify_all();
      return n;
    }
    int_type overflow(int_type c) override {
      if (traits_type::eq_int_type(c, traits_type::eof())) return c;
      const char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
      return c;
    }

   private:
    AwaitingClient& client_;
  };

  std::mutex mu_;
  std::condition_variable answered_cv_;
  std::size_t answered_ = 0;
  std::string received_;
  Requests requests_;
  Responses responses_;
  std::istream in_{&requests_};
  std::ostream out_{&responses_};
};

// ci/serve_fixtures in process: every response line byte-identical to the
// pinned expected.jsonl, serially and on a worker pool. CI also diffs these
// lines against the CLI (`h2h map|comap|repair --json`).
TEST(ServeFixtures, ServeJsonlMatchesThePinnedResponses) {
  std::ifstream requests_file(H2H_SERVE_FIXTURES_DIR "/requests.jsonl");
  std::ifstream expected_file(H2H_SERVE_FIXTURES_DIR "/expected.jsonl");
  ASSERT_TRUE(requests_file && expected_file) << H2H_SERVE_FIXTURES_DIR;
  std::vector<std::string> requests;
  for (std::string line; std::getline(requests_file, line);) {
    requests.push_back(line);
  }
  const std::string expected{std::istreambuf_iterator<char>(expected_file),
                             std::istreambuf_iterator<char>()};
  ASSERT_EQ(requests.size(), 8u);

  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    AwaitingClient client(requests);
    serve::ServeOptions options;
    options.threads = threads;
    const serve::ServeStats stats =
        serve::serve_jsonl(client.in(), client.out(), options);
    EXPECT_EQ(stats.requests, requests.size());
    EXPECT_EQ(client.received(), expected);
  }
}

TEST(ServePipeline, TenantsPastStoreCapacityMatchAFreshServer) {
  // More distinct bandwidths than the co-map store holds, revisiting
  // evicted ones: every line is answered byte for byte as a fresh server
  // answers it alone.
  serve::ServeOptions bounded;
  bounded.planner.max_sessions = 2;
  bounded.planner.shards = 1;
  std::vector<std::string> requests;
  for (const double bw : {0.5, 0.25, 0.125, 1.0, 0.5, 0.25}) {
    requests.push_back(strformat(
        R"({"schema_version":1,"id":"t%zu","tenants":[)"
        R"({"name":"a","model":"mocap","slo_s":0.5},)"
        R"({"name":"b","model":"mocap"}],"bw_gbps":%g,)"
        R"("options":{"remap":false},"max_rounds":1})",
        requests.size(), bw));
  }
  std::string input;
  for (const std::string& r : requests) input += r + "\n";
  const std::vector<std::string> lines = run_serve(input, bounded);
  ASSERT_EQ(lines.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<std::string> fresh = run_serve(requests[i] + "\n", {});
    ASSERT_EQ(fresh.size(), 1u);
    EXPECT_EQ(lines[i], fresh.front());
  }
  bounded.threads = 4;
  EXPECT_EQ(run_serve(input, bounded), lines);
}

TEST(ServePipeline, TenantsRequestsShareTheLoopDeterministically) {
  // Tenants and single-model lines interleave on one loop; tenant errors
  // are answered in-band; and because tenants responses carry no timing,
  // worker scheduling must not be observable in the bytes.
  std::string input;
  input += request_line("mocap", 0.5, "s0") + "\n";
  input +=
      R"({"schema_version":1,"id":"t0","tenants":[)"
      R"({"name":"a","model":"mocap","slo_s":0.5},)"
      R"({"name":"b","model":"mocap"}],)"
      R"("options":{"remap":false},"max_rounds":1,"steal_round":false})"
      "\n";
  input +=
      R"({"schema_version":1,"id":"t1","tenants":[)"
      R"({"name":"a","model":"mocap","caps":"0x100"}]})"
      "\n";
  input +=
      R"({"schema_version":1,"id":"t2","tenants":[)"
      R"({"name":"a","model":"mocap","slo_s":1e-9}],)"
      R"("options":{"remap":false},"require_slos":true})"
      "\n";
  input += request_line("mocap", 0.5, "s1") + "\n";

  serve::ServeOptions serial;
  serial.threads = 1;
  serve::ServeStats stats;
  const std::vector<std::string> lines = run_serve(input, serial, &stats);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(stats.ok, 3u);
  EXPECT_EQ(stats.errors, 2u);

  EXPECT_NE(lines[1].find(R"("id":"t0")"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":true)"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("all_slos_met":true)"), std::string::npos);
  EXPECT_NE(lines[2].find("infeasible_capability"), std::string::npos);
  EXPECT_NE(lines[3].find("slo_violated"), std::string::npos);
  EXPECT_NE(lines[3].find(R"("ok":false)"), std::string::npos);
  EXPECT_NE(lines[4].find(R"("id":"s1")"), std::string::npos);

  serve::ServeOptions pooled;
  pooled.threads = 4;
  EXPECT_EQ(lines, run_serve(input, pooled));
}

#if H2H_TEST_HAS_SIGNALS

TEST(ServePipeline, ShutdownSignalDrainsInFlightAndReturns) {
  // A pipe keeps the reader genuinely blocked (an istringstream would just
  // hit EOF), so the SIGTERM has a blocking read to interrupt — exactly
  // the `h2h serve` stdin situation. The stream goes through glibc stdio
  // (stdio_sync_filebuf, std::cin's own buffer class) because fd-level
  // libstdc++ filebufs retry EINTR internally and would never unblock.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  // Pre-set SIGTERM to ignore: the kill loop below may fire before
  // serve_jsonl installs its handler, and the default action would kill
  // the test process.
  struct sigaction ignore = {};
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  struct sigaction old = {};
  ASSERT_EQ(::sigaction(SIGTERM, &ignore, &old), 0);

  std::FILE* read_file = ::fdopen(fds[0], "r");
  ASSERT_NE(read_file, nullptr);
  __gnu_cxx::stdio_sync_filebuf<char> inbuf(read_file);
  std::istream in(&inbuf);
  std::ostringstream out;
  serve::ServeOptions options;
  options.handle_signals = true;

  serve::ServeStats stats;
  std::atomic<bool> done{false};
  std::thread server([&] {
    stats = serve::serve_jsonl(in, out, options);
    done.store(true);
  });

  // One complete request the drain must answer, then a line the signal
  // cuts mid-byte — it must be dropped, not answered as a parse error.
  const std::string req = request_line("mocap", 0.5, "pre") + "\n";
  ASSERT_EQ(::write(fds[1], req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  const std::string partial = R"({"schema_version":1,"model":"mo)";
  ASSERT_EQ(::write(fds[1], partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));

  // Keep signalling until one lands in the blocking read (delivery between
  // reads is absorbed by the handler and simply retried).
  while (!done.load()) {
    ::pthread_kill(server.native_handle(), SIGTERM);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.join();
  ::close(fds[1]);
  std::fclose(read_file);  // also closes fds[0]
  ASSERT_EQ(::sigaction(SIGTERM, &old, nullptr), 0);

  // The complete request was served; the half-line vanished.
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.ok, 1u);
  EXPECT_EQ(stats.errors, 0u);
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  for (std::string line; std::getline(split, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(R"("id":"pre")"), std::string::npos);
  EXPECT_NE(lines[0].find(R"("ok":true)"), std::string::npos);
}

/// Thread-safe diag sink: the test polls it for the announced port while
/// serve_tcp keeps writing connection summaries from its own thread.
class SyncDiagBuf : public std::streambuf {
 public:
  [[nodiscard]] std::string str() const {
    const std::scoped_lock lock(mu_);
    return text_;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      const std::scoped_lock lock(mu_);
      text_ += traits_type::to_char_type(ch);
    }
    return traits_type::not_eof(ch);
  }
  std::streamsize xsputn(const char* p, std::streamsize n) override {
    const std::scoped_lock lock(mu_);
    text_.append(p, static_cast<std::size_t>(n));
    return n;
  }

 private:
  mutable std::mutex mu_;
  std::string text_;
};

[[nodiscard]] int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServePipeline, ClientDisconnectMidResponseDoesNotKillServer) {
  // A client that sends a burst of requests and vanishes without reading a
  // byte forces the server's response writes onto a dead socket — without
  // SIGPIPE suppression that kills the whole process, and without EPIPE
  // handling it wedges the connection loop. The server must finish that
  // connection quietly and serve the next client normally.
  SyncDiagBuf diag_buf;
  std::ostream diag(&diag_buf);
  serve::TcpOptions options;
  options.max_connections = 2;
  options.serve.threads = 1;

  serve::TcpStats tcp_stats;
  int rc = -1;
  std::thread server(
      [&] { rc = serve::serve_tcp(options, diag, &tcp_stats); });

  std::uint16_t port = 0;
  for (int tries = 0; tries < 1000 && port == 0; ++tries) {
    const std::string text = diag_buf.str();
    const std::size_t at = text.find("127.0.0.1:");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port = static_cast<std::uint16_t>(std::stoul(text.substr(at + 10)));
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_NE(port, 0) << "server never announced its port";

  {
    // Connection 1: burst enough requests that the unread responses
    // overflow the loopback socket buffers, then slam the connection shut
    // (close with unread data sends RST) — mid-write failure guaranteed.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    std::string burst;
    for (int i = 0; i < 64; ++i) {
      burst += request_line("mocap", 0.5, strformat("burst%d", i)) + "\n";
    }
    ASSERT_EQ(::write(fd, burst.data(), burst.size()),
              static_cast<ssize_t>(burst.size()));
    // Give the server a moment to start writing into the doomed socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ::close(fd);
  }

  {
    // Connection 2: a normal request must still be answered.
    const int fd = connect_loopback(port);
    ASSERT_GE(fd, 0);
    const std::string req = request_line("mocap", 0.5, "alive") + "\n";
    ASSERT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    std::string response;
    char c = 0;
    while (response.find('\n') == std::string::npos &&
           ::read(fd, &c, 1) == 1) {
      response += c;
    }
    ::close(fd);
    EXPECT_NE(response.find(R"("id":"alive")"), std::string::npos);
    EXPECT_NE(response.find(R"("ok":true)"), std::string::npos);
  }

  server.join();
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(tcp_stats.connections, 2u);
  EXPECT_EQ(tcp_stats.accept_retries, 0u);
}

#endif  // H2H_TEST_HAS_SIGNALS

TEST(ServePipeline, OversizedLinesAreAnsweredNotParsed) {
  serve::ServeOptions options;
  options.max_line_bytes = 128;
  const std::string big(4096, 'x');
  const std::string input =
      big + "\n" + request_line("mocap", 0.5, "after") + "\n";
  serve::ServeStats stats;
  const std::vector<std::string> lines = run_serve(input, options, &stats);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("parse_error"), std::string::npos);
  EXPECT_NE(lines[0].find("128 bytes"), std::string::npos);
  EXPECT_NE(lines[1].find(R"("ok":true)"), std::string::npos);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.ok, 1u);
}

}  // namespace
}  // namespace h2h
