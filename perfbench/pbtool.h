// Shared pieces of the benchmark's native tool (pbtool): the plan file that
// run.py writes, and clock helpers.
//
// The plan is whitespace-separated "key value..." text.  run.py generates
// every input from the workload seed (query boxes, arrival schedule,
// release ids); pbtool only executes it, so the program under test receives
// nothing but generated inputs.
#ifndef PERFBENCH_PBTOOL_H_
#define PERFBENCH_PBTOOL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "spatial/box.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds on the monotonic clock (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic reads), so run.py can subtract its own timestamps.
inline double MonotonicSeconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Plan {
  std::string workload;     ///< query_hot | fit_cold | tiny_frames
  std::string method;       ///< Served release method ("privtree", "ug").
  double epsilon = 1.0;     ///< ε of the served release.
  std::uint64_t release = 1;  ///< Release id (FitSpec seed) of the served release.
  std::size_t boxes_per_frame = 1;
  /// Query frames; request i of a query phase sends frames[i % size].
  std::vector<std::vector<privtree::Box>> frames;
  /// The first rel_frames frames are the boxes rel_error is measured on.
  std::size_t rel_frames = 0;
  /// Open-loop phase: intended send offsets from the phase start.
  std::vector<std::int64_t> open_offsets_us;
  /// Saturation phase: seconds, and requests kept in flight per connection.
  double sat_seconds = 0.0;
  std::size_t sat_window = 1;
  /// fit_cold: closed-loop Fit requests cycling through this ε sweep, with
  /// release ids fit_release_base + i.
  std::vector<double> fit_sweep;
  double fit_seconds = 0.0;
  std::uint64_t fit_release_base = 0;
  /// Number of the n generated points (for Δ = 0.1%·n).
  std::size_t points = 0;

  /// Every box of the rel_error set, in frame order.
  std::vector<privtree::Box> RelBoxes() const;
};

/// Reads a plan written by run.py; exits with a message on malformed input.
Plan ReadPlan(const std::string& path);

/// Reads one double per line (exact answers written by `pbtool gen`).
std::vector<double> ReadDoubles(const std::string& path);

/// Aborts the tool with a message (exit code 1).
[[noreturn]] void Die(const std::string& message);

int GenMain(int argc, char** argv);
int LoadMain(int argc, char** argv);
int WalkMain(int argc, char** argv);

/// Returns the value of "--name=value" among argv, or "".
std::string Flag(int argc, char** argv, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_PBTOOL_H_
