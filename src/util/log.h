// Minimal leveled logger. The mapping algorithm logs its decisions at Debug
// level so tests/benches stay quiet by default while examples can turn on
// tracing. Thread-safe: the level is an atomic (serve workers log while
// another thread may change it), and each message is one fprintf to stderr.
#pragma once

#include <string_view>

namespace h2h {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Process-wide log threshold (default: Warn).
void set_log_level(LogLevel level) noexcept;
[[nodiscard]] LogLevel log_level() noexcept;

/// Emit `msg` to stderr if `level` passes the threshold.
void log_message(LogLevel level, std::string_view msg);

inline void log_debug(std::string_view msg) { log_message(LogLevel::Debug, msg); }
inline void log_info(std::string_view msg) { log_message(LogLevel::Info, msg); }
inline void log_warn(std::string_view msg) { log_message(LogLevel::Warn, msg); }
inline void log_error(std::string_view msg) { log_message(LogLevel::Error, msg); }

}  // namespace h2h
