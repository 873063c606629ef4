#pragma once
// Shared declarations of the fleet benchmark.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "fleet.h"
#include "inputs.h"

namespace fleetbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< observations behind the value (0 = one)
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Client-observed busy time (streams + polls) per poll cycle, ms.
  double cycle_busy_ms = 0.0;
  [[nodiscard]] bool correct() const noexcept {
    return attempted > 0 && failed == 0;
  }
};

struct RunOptions {
  FleetOptions fleet;
  double seconds = 10.0;
  /// Chrome trace of the traced run.
  std::filesystem::path trace_out;
};

/// Linear-interpolated percentile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double steady_s();

/// The end-to-end run: drives the fleet through one RetryingClient, checks
/// every poll against the oracle, reports the end-to-end metrics.
RunResult run_end_to_end(const Inputs& inputs, const RunOptions& options);

/// The traced run: replays the inputs through each layer's public functions
/// in-process and reports the per-layer metrics. `e2e_cycle_ms` is the
/// RunResult::cycle_busy_ms of an end-to-end run of the same inputs.
RunResult run_layers(const Inputs& inputs, const RunOptions& options,
                     double e2e_cycle_ms);

/// Self-tests of the benchmark itself; returns the number of failures.
int run_selftest(const RunOptions& options);

}  // namespace fleetbench
