// A `h2h serve` child process driven over its stdio pipes, and the closed
// loop that feeds it.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

/// One spawned `h2h serve --threads <n>`. The destructor closes its stdin
/// and waits for it to exit.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, int threads);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Write one request line (a newline is appended).
  void send(const std::string& line);
  /// Block until the next response line arrives (without its newline).
  /// Throws when the server exits or stays silent for a minute.
  [[nodiscard]] std::string receive();
  /// The server's peak resident set (VmHWM), MiB.
  [[nodiscard]] double peak_rss_mb() const;
  /// Close stdin and wait for the exit (killing the server if it has not
  /// exited within 30 s); returns the exit status (throws on a signal).
  int finish();

 private:
  pid_t pid_ = -1;
  int to_server_ = -1;
  int from_server_ = -1;
  std::string buffer_;
};

/// What a closed loop observed: responses in request order and, per
/// request, the time from writing its line to reading its response and when
/// that response arrived.
struct LoopResult {
  Clock::time_point start;
  std::vector<std::string> responses;
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // when each response arrived, from start
};

/// CPU ticks of the whole machine since boot (/proc/stat): all of them, and
/// those the hypervisor stole for other guests.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// Closed loop with at most `window` requests outstanding. `next(i)` yields
/// the line of request i, or nullptr to stop sending; `on_response(i)` runs
/// after response i is read.
LoopResult closed_loop(
    ServerProcess& server, std::size_t window,
    const std::function<const std::string*(std::size_t)>& next,
    const std::function<void(std::size_t)>& on_response = {});

}  // namespace servebench
