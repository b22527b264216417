// Minimal leveled logging to stderr.
//
// The simulator libraries never print on their own; benches and the CLI opt
// in — every user-facing warning routes through log_warn instead of raw
// std::cerr, so verbosity and formatting are controlled in one place. Kept
// deliberately tiny — no formatting DSL, no global configuration file — per
// Core Guidelines "keep interfaces minimal".
//
// Optional monotonic-elapsed-ms timestamps ("[red:WARN +12.3ms] ...") use the
// steady clock relative to process start: observe-only wall-clock data that
// never reaches results or artifacts, matching the telemetry determinism
// contract.
#pragma once

#include <string>

namespace red {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Set the minimum level that is emitted (default: kInfo).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Prefix each line with monotonic elapsed milliseconds since process start
/// (default: off).
void set_log_timestamps(bool enabled);
[[nodiscard]] bool log_timestamps();

/// Parse a level name ("debug" | "info" | "warn" | "error"). Throws
/// ConfigError on anything else.
[[nodiscard]] LogLevel log_level_from_name(const std::string& name);

/// Apply the RED_LOG_LEVEL environment override when set and non-empty
/// (unknown value = ConfigError). Called by the CLI and benches at startup;
/// a no-op when the variable is absent.
void apply_log_env();

void log(LogLevel level, const std::string& message);

inline void log_debug(const std::string& m) { log(LogLevel::kDebug, m); }
inline void log_info(const std::string& m) { log(LogLevel::kInfo, m); }
inline void log_warn(const std::string& m) { log(LogLevel::kWarn, m); }
inline void log_error(const std::string& m) { log(LogLevel::kError, m); }

}  // namespace red
