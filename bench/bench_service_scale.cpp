// Performance: sharded-service ingest throughput and query latency vs shard
// count. One captured simulator stream is replayed through the full service
// path (router -> shard hosts -> engines, per-shard updates concurrent at
// poll) at each shard count; readings/s covers ingest+poll, and the p99
// latency is measured on latest_fix() queries interleaved with the load.
//
// Honesty rules (docs/benchmarks.md): hardware_threads is reported raw, and
// on a single-hardware-thread machine the shard-count scaling curve is
// REFUSED — every shard's poll task would time-slice one core, so a "curve"
// would measure oversubscription, not sharding. Only shards=1 is measured
// there (that number is still meaningful: it is the service-path overhead
// over the bare engine).
//
// Env knobs: VIRE_TAGS (default 48), VIRE_ROUNDS (poll rounds, default 12),
// VIRE_QUERIES (queries per round, default 200).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "env/environment.h"
#include "obs/bench_report.h"
#include "service/sharded_service.h"
#include "sim/simulator.h"
#include "support/csv.h"
#include "support/rng.h"

namespace {

using namespace vire;

int env_int(const char* name, int fallback) {
  if (const char* s = std::getenv(name)) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

}  // namespace

int main() {
  const int tag_count = env_int("VIRE_TAGS", 48);
  const int rounds = env_int("VIRE_ROUNDS", 12);
  const int queries = env_int("VIRE_QUERIES", 200);
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const bool can_scale = hw_raw > 1;

  std::printf("=== Sharded service throughput vs shard count ===\n");
  std::printf("tags: %d, poll rounds: %d, queries/round: %d, hardware threads: %u%s\n\n",
              tag_count, rounds, queries, hw_raw,
              hw_raw == 0 ? " (undetected)" : "");
  if (!can_scale) {
    std::printf(
        "NOTE: single hardware thread — shard workers would time-slice one\n"
        "core, so the shard scaling curve is refused; only shards=1 (the\n"
        "service-path overhead datum) is measured.\n\n");
  }

  // Capture one reading stream; every shard count replays the identical one.
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = 7;
  sim_config.middleware.window_s = 10.0;
  sim::RfidSimulator simulator(environment, deployment, sim_config);
  sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);
  const auto reference_ids = simulator.add_reference_tags();
  std::vector<sim::TagId> tags;
  std::uint64_t state = 0x243f6a8885a308d3ULL;
  for (int i = 0; i < tag_count; ++i) {
    const double x = -0.5 + 4.0 * (static_cast<double>(support::splitmix64(state) >> 11) /
                                   9007199254740992.0);
    const double y = -0.5 + 4.0 * (static_cast<double>(support::splitmix64(state) >> 11) /
                                   9007199254740992.0);
    tags.push_back(simulator.add_tag({x, y}));
  }
  simulator.run_for(40.0);
  const std::vector<sim::RssiReading> warmup = recorder.take();
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  for (int r = 0; r < rounds; ++r) {
    simulator.run_for(5.0);
    segments.push_back(recorder.take());
    poll_times.push_back(simulator.now());
  }
  std::size_t total_readings = warmup.size();
  for (const auto& s : segments) total_readings += s.size();

  std::vector<int> shard_counts = {1};
  if (can_scale) {
    for (int s = 2; static_cast<unsigned>(s) <= std::min(8u, hw_raw); s *= 2) {
      shard_counts.push_back(s);
    }
  }

  obs::BenchReport report;
  report.name = "service_scale";
  report.git_rev = VIRE_GIT_REV;
  report.config = {{"tags", std::to_string(tag_count)},
                   {"rounds", std::to_string(rounds)},
                   {"queries_per_round", std::to_string(queries)},
                   {"readings", std::to_string(total_readings)},
                   {"hardware_threads", std::to_string(hw_raw)},
                   {"scaling_curve",
                    can_scale ? "measured" : "refused: single hardware thread"}};
  report.throughput_unit = "readings_per_sec";

  support::CsvWriter csv("bench_out/service_scale.csv");
  csv.header({"shards", "readings_per_sec", "query_p99_us"});
  std::printf("%8s %18s %14s\n", "shards", "readings/sec", "query p99 us");

  const auto bench_start = std::chrono::steady_clock::now();
  for (const int shards : shard_counts) {
    service::ServiceConfig config;
    config.shards = shards;
    config.engine.min_refresh_interval_s = 10.0;
    config.middleware.window_s = 10.0;
    service::ShardedService service(deployment, config);
    service.set_reference_ids(reference_ids);
    for (const auto id : tags) service.track(id);

    std::vector<double> query_us;
    query_us.reserve(static_cast<std::size_t>(rounds) * queries);
    const auto start = std::chrono::steady_clock::now();
    service.ingest(warmup);
    for (int r = 0; r < rounds; ++r) {
      service.ingest(segments[static_cast<std::size_t>(r)]);
      (void)service.poll(poll_times[static_cast<std::size_t>(r)]);
      for (int q = 0; q < queries; ++q) {
        const auto t0 = std::chrono::steady_clock::now();
        (void)service.latest_fix(tags[static_cast<std::size_t>(q) % tags.size()]);
        query_us.push_back(1e6 * std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
      }
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    const double readings_per_sec =
        static_cast<double>(total_readings) / std::max(1e-12, seconds);
    std::sort(query_us.begin(), query_us.end());
    const double p99 =
        query_us[static_cast<std::size_t>(0.99 * (query_us.size() - 1))];

    std::printf("%8d %18.0f %14.2f\n", shards, readings_per_sec, p99);
    csv.row({std::to_string(shards), std::to_string(readings_per_sec),
             std::to_string(p99)});
    report.results.emplace_back("readings_per_sec_shards_" + std::to_string(shards),
                                readings_per_sec);
    report.results.emplace_back("query_p99_us_shards_" + std::to_string(shards),
                                p99);
    report.throughput = std::max(report.throughput, readings_per_sec);
  }

  report.wall_ms = 1e3 * std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - bench_start)
                             .count();
  const auto json_path = obs::write_bench_report(report);
  std::printf("\nCSV written to bench_out/service_scale.csv\n");
  std::printf("JSON report written to %s\n", json_path.string().c_str());
  return 0;
}
