// fleetbench: the repository's end-to-end benchmark (see ../README.md).
//
//   fleetbench run --workload NAME --seed N --seconds S --trace 0|1
//                  --bin DIR [--trace-out PATH] [--rev TEXT]
//   fleetbench selftest --bin DIR
//
// Runs in the current directory (fleet root, sockets, logs) and expects the
// vire_supervisord / vire_shardd binaries in --bin. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}; with
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones of the traced run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "service/client.h"

namespace {

using namespace fleetbench;

/// Printed by name but kept out of the JSON. failed_op_ratio and
/// gen_lag_p99_ms are 0 on a healthy run (failures are the JSON's own
/// attempted/failed; the closed loop has no schedule to lag). The
/// ingest-to-fix p99 is a handful of polls per segment: on a shared VM its
/// run-to-run spread exceeds any regression bound, so it is not gated.
const std::set<std::string> kTextOnly = {"failed_op_ratio", "gen_lag_p99_ms",
                                         "ingest_to_fix_p99_ms"};

/// Best-of-3 wall time of a fixed probe run at once on every hardware
/// thread: random reads over a private 16 MiB table per thread, so it is
/// bound by caches and memory as much as by the core. Unlike steal, it also
/// shows cores or memory shared with a busy neighbour, so a slow host can be
/// told apart from a slow program.
double cpu_probe_ms() {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  constexpr std::size_t kWords = std::size_t{1} << 22;
  std::vector<std::vector<std::uint32_t>> tables(
      threads, std::vector<std::uint32_t>(kWords, 1));
  std::vector<std::uint64_t> sinks(threads);
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = steady_s();
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&tables, &sinks, t] {
        const std::vector<std::uint32_t>& table = tables[t];
        std::uint64_t x = 88172645463325252ULL + t;
        std::uint64_t acc = 0;
        for (int i = 0; i < 4000000; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          acc += table[x & (kWords - 1)];
        }
        sinks[t] = acc ^ x;
      });
    }
    for (auto& th : pool) th.join();
    best = std::min(best, (steady_s() - t0) * 1e3);
  }
  std::uint64_t folded = 0;
  for (const std::uint64_t v : sinks) folded ^= v;
  volatile std::uint64_t keep = folded;  // the loops' results are used
  (void)keep;
  return best;
}

int usage() {
  std::fprintf(stderr,
               "usage: fleetbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --bin DIR [--trace-out PATH] [--rev TEXT]\n"
               "       fleetbench selftest --bin DIR\n");
  return 2;
}

void print_metrics(const RunResult& r) {
  for (const Metric& m : r.metrics) {
    std::printf("metric %-28s %14.6f %-6s (n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

void print_json(const RunResult& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const Metric& m : r.metrics) {
    if (kTextOnly.count(m.name) != 0) continue;
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string rev = "unknown";
  std::uint64_t seed = 1;
  int trace = 0;
  RunOptions options;
  std::filesystem::path bin;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") workload = v;
    else if (key == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") options.seconds = std::atof(v);
    else if (key == "--trace") trace = std::atoi(v);
    else if (key == "--bin") bin = v;
    else if (key == "--trace-out") options.trace_out = v;
    else if (key == "--rev") rev = v;
    else return usage();
  }
  if (bin.empty()) return usage();
  options.fleet.supervisord = std::filesystem::absolute(bin / "vire_supervisord");
  options.fleet.shardd = std::filesystem::absolute(bin / "vire_shardd");
  if (options.trace_out.empty()) options.trace_out = "trace.json";
  vire::service::ignore_sigpipe();
  become_subreaper();

  if (mode == "selftest") return run_selftest(options) == 0 ? 0 : 1;
  if (mode != "run" || workload.empty() || options.seconds <= 0.0) return usage();

  try {
    const WorkloadSpec spec = workload_spec(workload);
    const double g0 = steady_s();
    const Inputs inputs = generate_inputs(spec, seed, options.seconds);
    const double gen_s = steady_s() - g0;
    std::printf("workload %s seed %llu: %zu readings, %zu tracked tags, "
                "input digest %016llx (generated + oracle in %.2f s, untimed)\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                inputs.readings_total, inputs.tracked.size(),
                static_cast<unsigned long long>(inputs.digest), gen_s);

    const double probe0 = cpu_probe_ms();
    const HostCpu h0 = host_cpu();
    const double w0 = steady_s();
    RunResult result = run_end_to_end(inputs, options);
    if (trace != 0) {
      std::printf("end-to-end pass: %.3f ms busy per poll cycle\n",
                  result.cycle_busy_ms);
      print_metrics(result);
      RunResult layers = run_layers(inputs, options, result.cycle_busy_ms);
      layers.attempted += result.attempted;
      layers.failed += result.failed;
      result = std::move(layers);
    }
    const HostCpu h1 = host_cpu();
    const double wall_s = steady_s() - w0;
    std::printf("host: %u hardware threads, load %s, build %s, rev %s, "
                "steal %.2f s of %.2f s busy over %.1f s, cpu probe %.1f ms "
                "before / %.1f ms after\n",
                std::thread::hardware_concurrency(), load_average().c_str(),
                FLEETBENCH_BUILD_TYPE, rev.c_str(), h1.steal_s - h0.steal_s,
                h1.busy_s - h0.busy_s, wall_s, probe0, cpu_probe_ms());
    print_metrics(result);
    reap_children();
    print_json(result);
    return result.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleetbench: %s\n", e.what());
    reap_children();
    return 1;
  }
}
