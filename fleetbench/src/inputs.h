#pragma once
// Seeded workload inputs and the single-engine oracle.
//
// Everything here runs before any timing starts: the simulator generates the
// reading stream, and one in-process Middleware + LocalizationEngine (the
// configuration every vire_shardd runs) consumes it to produce the fixes the
// fleet must return, bit for bit, at every poll.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "geom/vec2.h"
#include "sim/types.h"

namespace fleetbench {

using vire::engine::Fix;
using vire::sim::RssiReading;
using vire::sim::SimTime;
using vire::sim::TagId;

/// Shape of one workload. All fields are fixed per workload name; only the
/// seed varies between runs.
/// Simulated seconds streamed during set-up, before the first poll: one
/// full middleware window.
inline constexpr double kWarmupSimS = 10.0;
/// crash_restart: vire_supervisord --checkpoint-every of the daemon that
/// writes the history, so no shard checkpoint is behind it. The restarted
/// daemon runs every flag at its default.
inline constexpr int kHistoryCheckpointEvery = 1000000;

/// Shape of one workload. All fields are fixed per workload name; only the
/// seed varies between runs.
struct WorkloadSpec {
  std::string name;
  int tracked_tags = 0;      ///< localized tags (static, fixed positions)
  int beacon_only_tags = 0;  ///< tags that beacon but are never tracked
  double batch_sim_s = 2.0;  ///< simulated time per streamed batch
  int batches_per_poll = 1;  ///< a poll follows every Nth batch
  /// Open loop when > 0: offered readings per wall second (batches are due
  /// on a schedule derived from this, regardless of how the fleet keeps up).
  double offered_readings_per_s = 0.0;
  /// Closed loop: poll cycles in the timed phase per requested run second.
  double polls_per_second = 0.0;
  /// crash_restart: poll cycles of history written before the crash.
  int history_polls = 0;
  /// Set-up repetitions per run; setup_s is their median.
  int setup_reps = 5;

  [[nodiscard]] bool open_loop() const noexcept { return offered_readings_per_s > 0.0; }
  [[nodiscard]] bool crash() const noexcept { return history_polls > 0; }
};

/// The benchmark's three workloads; throws on an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(const std::string& name);

struct Batch {
  std::vector<RssiReading> readings;
  /// Open loop: seconds after the phase start this batch is due.
  double due_s = 0.0;
  bool poll_after = false;
  SimTime poll_time = 0.0;
  /// Oracle answer for the poll after this batch (when poll_after).
  std::uint64_t oracle_hash = 0;
  std::size_t oracle_fixes = 0;
};

struct Inputs {
  WorkloadSpec spec;
  std::vector<TagId> reference_ids;
  std::vector<std::pair<TagId, std::string>> tracked;
  std::vector<std::pair<TagId, vire::geom::Vec2>> truth;  ///< tracked only
  /// Streamed before the first poll (set-up); its poll is `warmup.back()`.
  std::vector<Batch> warmup;
  /// crash_restart: streamed and acked before the crash (untimed).
  std::vector<Batch> history;
  /// Timed phase. For crash_restart, its first poll cycle is the recovery
  /// probe that ends set-up.
  std::vector<Batch> timed;
  /// FNV-1a over every generated reading, poll time and tag registration.
  std::uint64_t digest = 0;
  std::size_t readings_total = 0;
};

/// Generates the inputs for `spec` at `seed` and runs the oracle over them.
/// `run_seconds` scales the timed phase (polls_per_second * run_seconds poll
/// cycles closed loop, offered rate * run_seconds readings open loop), so
/// the work is a fixed function of (workload, seed, seconds).
[[nodiscard]] Inputs generate_inputs(const WorkloadSpec& spec,
                                     std::uint64_t seed, double run_seconds);

/// Bit-exact hash of a poll's fixes: every field, doubles by bit pattern.
[[nodiscard]] std::uint64_t hash_fixes(const std::vector<Fix>& fixes);

/// The oracle check of one poll: the same number of fixes, bit for bit.
[[nodiscard]] bool matches_oracle(const Batch& batch, const std::vector<Fix>& fixes);

/// Ground-truth error of every valid fix, appended to `errors` (metres).
void fix_errors(const Inputs& inputs, const std::vector<Fix>& fixes,
                std::vector<double>& errors);

}  // namespace fleetbench
