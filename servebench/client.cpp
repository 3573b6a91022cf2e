#include "client.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <stdexcept>

extern char** environ;

namespace servebench {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

// A response that takes longer than this means the server hung.
constexpr int kReceiveTimeoutMs = 60'000;

}  // namespace

ServerProcess::ServerProcess(const std::string& binary, int threads) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0)
    fail("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  const std::string threads_arg = std::to_string(threads);
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>("serve"),
                             const_cast<char*>("--threads"),
                             const_cast<char*>(threads_arg.c_str()), nullptr};
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in[0]);
  ::close(out[1]);
  to_server_ = in[1];
  from_server_ = out[0];
  if (rc != 0) {
    errno = rc;
    ::close(to_server_);
    ::close(from_server_);
    fail("spawning " + binary);
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ <= 0) return;
  try {
    (void)finish();
  } catch (...) {
    // Already reported by the caller's failure path; the child is reaped.
  }
}

void ServerProcess::send(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::write(to_server_, framed.data() + off, framed.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("writing to the server");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string ServerProcess::receive() {
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    pollfd pfd{from_server_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kReceiveTimeoutMs);
    if (ready == 0) throw std::runtime_error("server silent for 60 s");
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail("poll");
    }
    char chunk[1 << 16];
    const ssize_t n = ::read(from_server_, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail("reading from the server");
    }
    if (n == 0) throw std::runtime_error("server closed its output");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

double ServerProcess::peak_rss_mb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  throw std::runtime_error("no VmHWM for the server process");
}

int ServerProcess::finish() {
  if (pid_ <= 0) return 0;
  ::close(to_server_);  // EOF: the server drains and exits
  int status = 0;
  pid_t waited = 0;
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    waited = ::waitpid(pid_, &status, WNOHANG);
    if (waited != 0 && !(waited < 0 && errno == EINTR)) break;
    if (Clock::now() >= give_up) {
      ::kill(pid_, SIGKILL);
      do {
        waited = ::waitpid(pid_, &status, 0);
      } while (waited < 0 && errno == EINTR);
      break;
    }
    ::usleep(1000);
  }
  ::close(from_server_);
  pid_ = -1;
  if (waited < 0) fail("waitpid");
  if (WIFSIGNALED(status))
    throw std::runtime_error("server died on signal " +
                             std::to_string(WTERMSIG(status)));
  return WEXITSTATUS(status);
}

CpuTicks read_cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks ticks;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

LoopResult closed_loop(
    ServerProcess& server, std::size_t window,
    const std::function<const std::string*(std::size_t)>& next,
    const std::function<void(std::size_t)>& on_response) {
  LoopResult result;
  std::vector<Clock::time_point> sent_at;
  bool stopped = false;
  const auto try_send = [&] {
    if (stopped) return;
    const std::string* line = next(sent_at.size());
    if (line == nullptr) {
      stopped = true;
      return;
    }
    sent_at.push_back(Clock::now());
    server.send(*line);
  };
  const Clock::time_point start = Clock::now();
  result.start = start;
  while (!stopped && sent_at.size() < window) try_send();
  for (std::size_t done = 0; done < sent_at.size(); ++done) {
    result.responses.push_back(server.receive());
    const Clock::time_point now = Clock::now();
    result.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(now - sent_at[done]).count());
    result.done_s.push_back(std::chrono::duration<double>(now - start).count());
    if (on_response) on_response(done);
    try_send();
  }
  return result;
}

}  // namespace servebench
