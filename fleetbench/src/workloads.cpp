// End-to-end run: one RetryingClient connection to a live
// vire_supervisord --shards 2 --workers 2 fleet.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "service/client.h"

namespace fleetbench {

namespace fs = std::filesystem;
using vire::service::RetryingClient;

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

namespace {

/// Copies directories and regular files (the fleet root also holds the
/// shards' Unix sockets, which cannot be copied and are recreated anyway).
void copy_tree(const fs::path& from, const fs::path& to) {
  fs::create_directories(to);
  for (const auto& entry : fs::recursive_directory_iterator(from)) {
    const fs::path target = to / fs::relative(entry.path(), from);
    if (entry.is_directory()) {
      fs::create_directories(target);
    } else if (entry.is_regular_file()) {
      fs::copy_file(entry.path(), target, fs::copy_options::overwrite_existing);
    }
  }
}

void sleep_until_s(double when) {
  const auto tp = std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(when)));
  std::this_thread::sleep_until(tp);
}

/// Timed-phase observations of one poll cycle (its batches and the poll).
struct Cycle {
  double first_send = 0.0;
  double returned = 0.0;  ///< when the poll returned
  double poll_ms = 0.0;
  std::vector<double> ingest_to_fix_ms;  ///< one per batch
  std::size_t fixes = 0;
  std::size_t readings = 0;
};

/// The timed phase is cut into this many consecutive segments; timings and
/// rates are the median of their per-segment values, so a stall of the
/// host inside one segment cannot move the result by more than one rank.
constexpr std::size_t kSegments = 5;

/// Median over the segments of `stat(first, last)`, a statistic of the
/// cycles [first, last).
template <typename Stat>
double segment_median(const std::vector<Cycle>& cycles, Stat stat) {
  std::vector<double> values;
  for (std::size_t s = 0; s < kSegments; ++s) {
    const std::size_t first = s * cycles.size() / kSegments;
    const std::size_t last = (s + 1) * cycles.size() / kSegments;
    if (first < last) values.push_back(stat(first, last));
  }
  return median(std::move(values));
}

class LoadClient {
 public:
  LoadClient(const Inputs& inputs, RunResult& result)
      : in_(inputs), res_(result) {}

  void connect(const fs::path& socket) {
    vire::service::ClientConfig config;
    config.read_timeout_s = 120.0;
    config.peer_name = "fleetbench";
    client_ = std::make_unique<RetryingClient>(socket, config);
  }
  void disconnect() { client_.reset(); }

  void register_tags() {
    ++res_.attempted;
    try {
      client_->set_reference_ids(in_.reference_ids);
      for (const auto& [tag, name] : in_.tracked) {
        ++res_.attempted;
        client_->track({tag, name, std::nullopt});
      }
    } catch (const std::exception& e) {
      fail("register", e.what());
    }
  }

  void stream(const Batch& b) {
    ++res_.attempted;
    try {
      client_->stream_sequenced(++sequence_, b.readings);
    } catch (const std::exception& e) {
      fail("stream", e.what());
    }
  }

  /// Polls at the batch's poll time and checks the answer against the
  /// oracle bit for bit. Returns the fixes (empty on failure).
  std::vector<Fix> poll(const Batch& b) {
    ++res_.attempted;
    try {
      std::vector<Fix> fixes = client_->poll(b.poll_time);
      if (!matches_oracle(b, fixes)) {
        char what[160];
        std::snprintf(what, sizeof(what),
                      "poll t=%.3f: %zu fixes differ from the oracle's %zu",
                      b.poll_time, fixes.size(), b.oracle_fixes);
        fail("oracle", what);
      }
      return fixes;
    } catch (const std::exception& e) {
      fail("poll", e.what());
      return {};
    }
  }

  /// Blocks until the fleet reports every streamed batch durably acked.
  void await_acks(double timeout_s) {
    const double deadline = steady_s() + timeout_s;
    for (std::uint64_t probe = 1;; ++probe) {
      const auto ack = client_->heartbeat(probe);
      if (ack.last_ack_sequence + 1 >= ack.wal_next_sequence) return;
      if (steady_s() > deadline) {
        fail("ack", "fleet never acked every batch");
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

 private:
  void fail(const char* op, const std::string& what) {
    ++res_.failed;
    if (res_.failed <= 5) {
      std::fprintf(stderr, "fleetbench: %s failed: %s\n", op, what.c_str());
    }
  }

  const Inputs& in_;
  RunResult& res_;
  std::unique_ptr<RetryingClient> client_;
  std::uint64_t sequence_ = 0;
};

}  // namespace

RunResult run_end_to_end(const Inputs& in, const RunOptions& opt) {
  RunResult res;
  const WorkloadSpec& spec = in.spec;
  const bool crash = spec.crash();
  const FleetOptions& fleet_options = opt.fleet;
  Fleet fleet(fleet_options);
  const fs::path root = fleet_options.root;
  const fs::path snapshot = root.string() + ".crashed";
  const fs::path log = "fleet.log";
  LoadClient load(in, res);

  if (crash) {
    // Untimed fill: a long history with no shard checkpoint behind it,
    // acked by every shard (a handshake, not a sleep), then SIGKILL of the
    // daemon and both shards. Every set-up repetition restarts over a copy
    // of exactly this root, so each replays the same suffix.
    FleetOptions fill_options = fleet_options;
    fill_options.checkpoint_every = kHistoryCheckpointEvery;
    Fleet filler(fill_options);
    fs::remove_all(root);
    filler.spawn(log);
    filler.wait_ready(120.0);
    load.connect(fleet_options.socket);
    load.register_tags();
    load.stream(in.warmup[0]);
    load.poll(in.warmup[0]);
    for (const Batch& b : in.history) {
      load.stream(b);
      if (b.poll_after) load.poll(b);
    }
    load.await_acks(60.0);
    load.disconnect();
    filler.kill_all();
    fs::remove_all(snapshot);
    copy_tree(root, snapshot);
  }

  // crash_restart's set-up ends with the first post-crash poll cycle.
  std::size_t probe_end = 0;
  if (crash) {
    while (!in.timed[probe_end].poll_after) ++probe_end;
    ++probe_end;
  }

  // Set-up, repeated; the last repetition's fleet runs the timed phase.
  std::vector<double> setups;
  const int reps = spec.setup_reps;
  for (int rep = 0; rep < reps; ++rep) {
    fs::remove_all(root);
    if (crash) copy_tree(snapshot, root);
    const double t0 = steady_s();
    fleet.spawn(log);
    fleet.wait_ready(120.0);
    load.connect(fleet_options.socket);
    if (crash) {
      // Recovery probe: the first post-crash poll cycle.
      for (std::size_t i = 0; i < probe_end; ++i) load.stream(in.timed[i]);
      load.poll(in.timed[probe_end - 1]);
    } else {
      load.register_tags();
      load.stream(in.warmup[0]);
      load.poll(in.warmup[0]);
    }
    setups.push_back(steady_s() - t0);
    if (rep + 1 < reps) {
      load.disconnect();
      fleet.stop();
    }
  }

  // Timed phase. Crash-restart's CPU window opens at the restart (its
  // processes are all new); the others' opens here.
  std::vector<std::pair<pid_t, double>> cpu_base;
  for (const pid_t pid : fleet.pids()) {
    cpu_base.emplace_back(pid, crash ? 0.0 : process_cpu_s(pid));
  }
  std::vector<Cycle> cycles;
  std::vector<double> lag_ms, errors, pending_due;
  Cycle cycle;
  double busy_s = 0.0;
  const double start = steady_s();
  for (std::size_t i = probe_end; i < in.timed.size(); ++i) {
    const Batch& b = in.timed[i];
    double due = 0.0;
    if (spec.open_loop()) {
      due = start + b.due_s;
      sleep_until_s(due);
    }
    const double sent = steady_s();
    if (spec.open_loop()) {
      lag_ms.push_back((sent - due) * 1e3);
    } else {
      due = sent;
    }
    if (pending_due.empty()) cycle.first_send = sent;
    load.stream(b);
    cycle.readings += b.readings.size();
    busy_s += steady_s() - sent;
    pending_due.push_back(due);
    if (!b.poll_after) continue;
    const double p0 = steady_s();
    const std::vector<Fix> fixes = load.poll(b);
    const double p1 = steady_s();
    busy_s += p1 - p0;
    cycle.returned = p1;
    cycle.poll_ms = (p1 - p0) * 1e3;
    for (const double d : pending_due) {
      cycle.ingest_to_fix_ms.push_back((p1 - d) * 1e3);
    }
    pending_due.clear();
    cycle.fixes = fixes.size();
    fix_errors(in, fixes, errors);
    cycles.push_back(std::move(cycle));
    cycle = Cycle{};
  }

  double cpu_s = 0.0, rss_mb = 0.0;
  for (const auto& [pid, base] : cpu_base) {
    cpu_s += process_cpu_s(pid) - base;
    rss_mb += process_peak_rss_mb(pid);
  }
  load.disconnect();
  fleet.stop();
  fs::remove_all(snapshot);

  res.cycle_busy_ms = cycles.empty() ? 0.0 : busy_s * 1e3 / cycles.size();
  auto add = [&](const char* name, double value, const char* unit,
                 std::size_t samples) {
    res.metrics.push_back({name, value, unit, samples});
  };
  // Per-segment statistics; the sample counts reported are the totals.
  std::size_t fixes_n = 0, readings_n = 0, batches_n = 0;
  for (const Cycle& c : cycles) {
    fixes_n += c.fixes;
    readings_n += c.readings;
    batches_n += c.ingest_to_fix_ms.size();
  }
  const auto rate = [&](std::size_t Cycle::*count) {
    return segment_median(cycles, [&](std::size_t first, std::size_t last) {
      std::size_t n = 0;
      for (std::size_t c = first; c < last; ++c) n += cycles[c].*count;
      const double wall_s = cycles[last - 1].returned - cycles[first].first_send;
      return static_cast<double>(n) / wall_s;
    });
  };
  const auto poll_pct = [&](double q) {
    return segment_median(cycles, [&](std::size_t first, std::size_t last) {
      std::vector<double> v;
      for (std::size_t c = first; c < last; ++c) v.push_back(cycles[c].poll_ms);
      return percentile(std::move(v), q);
    });
  };
  const auto i2f_pct = [&](double q) {
    return segment_median(cycles, [&](std::size_t first, std::size_t last) {
      std::vector<double> v;
      for (std::size_t c = first; c < last; ++c) {
        v.insert(v.end(), cycles[c].ingest_to_fix_ms.begin(),
                 cycles[c].ingest_to_fix_ms.end());
      }
      return percentile(std::move(v), q);
    });
  };
  add("setup_s", median(setups), "s", setups.size());
  add("fixes_per_s", rate(&Cycle::fixes), "1/s", fixes_n);
  add("readings_per_s", rate(&Cycle::readings), "1/s", readings_n);
  add("poll_p50_ms", poll_pct(0.5), "ms", cycles.size());
  add("poll_p90_ms", poll_pct(0.9), "ms", cycles.size());
  add("ingest_to_fix_p50_ms", i2f_pct(0.5), "ms", batches_n);
  add("ingest_to_fix_p99_ms", i2f_pct(0.99), "ms", batches_n);
  add("fleet_cpu_s", cpu_s, "s", cpu_base.size());
  add("fleet_peak_rss_mb", rss_mb, "MB", cpu_base.size());
  add("fix_error_p50_m", percentile(errors, 0.5), "m", errors.size());
  add("fix_error_p90_m", percentile(errors, 0.9), "m", errors.size());
  add("failed_op_ratio",
      res.attempted > 0 ? static_cast<double>(res.failed) /
                              static_cast<double>(res.attempted)
                        : 1.0,
      "ratio", res.attempted);
  add("gen_lag_p99_ms", percentile(lag_ms, 0.99), "ms", lag_ms.size());
  return res;
}

}  // namespace fleetbench
