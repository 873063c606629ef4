// The benchmark's own tests (fleetbench selftest, or run.py --selftest):
//   * the input digest is a pure function of (workload, seed, seconds);
//   * the oracle check rejects a fix perturbed by a single bit;
//   * span self-times are duration minus covered children;
//   * on a short live run, the layer self-times plus unaccounted_ms add up
//     to the end-to-end busy time, and every per-layer metric is reported.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "bench.h"
#include "env/deployment.h"
#include "sim/middleware.h"
#include "spans.h"

namespace fleetbench {

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) ++failures;
}

/// The fixes of the warm-up poll, recomputed by a second in-process engine.
std::vector<Fix> recompute_warmup(const Inputs& in) {
  using namespace vire;
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::MiddlewareConfig mw_config;
  mw_config.window_s = 10.0;
  sim::Middleware middleware(deployment.reader_count(), mw_config);
  engine::EngineConfig config;
  config.observability.max_auto_dumps = 0;
  engine::LocalizationEngine engine(deployment, config);
  engine.set_reference_ids(in.reference_ids);
  for (const auto& [tag, name] : in.tracked) engine.track(tag, name);
  const Batch& b = in.warmup[0];
  for (const RssiReading& r : b.readings) middleware.ingest(r);
  middleware.evict_stale(b.poll_time);
  return engine.update(middleware, b.poll_time);
}

void test_digest() {
  const WorkloadSpec spec = workload_spec("dense_poll");
  const Inputs a = generate_inputs(spec, 7, 0.2);
  const Inputs b = generate_inputs(spec, 7, 0.2);
  const Inputs c = generate_inputs(spec, 8, 0.2);
  check(a.digest == b.digest && a.readings_total == b.readings_total,
        "input digest is stable for a given seed");
  check(a.digest != c.digest, "input digest changes with the seed");
}

void test_oracle_check() {
  const Inputs in = generate_inputs(workload_spec("dense_poll"), 3, 0.1);
  std::vector<Fix> fixes = recompute_warmup(in);
  check(matches_oracle(in.warmup[0], fixes), "an identical poll matches the oracle");
  std::size_t valid = 0;
  while (valid < fixes.size() && !fixes[valid].valid) ++valid;
  if (valid == fixes.size()) {
    check(false, "the warm-up poll has a valid fix to perturb");
    return;
  }
  std::vector<Fix> nudged = fixes;
  nudged[valid].position.x = std::nextafter(nudged[valid].position.x, 1e9);
  check(!matches_oracle(in.warmup[0], nudged), "a fix moved by one ulp fails the oracle");
  nudged = fixes;
  nudged[valid].survivor_count += 1;
  check(!matches_oracle(in.warmup[0], nudged),
        "a changed survivor count fails the oracle");
  nudged = fixes;
  nudged.pop_back();
  check(!matches_oracle(in.warmup[0], nudged), "a missing fix fails the oracle");
}

void test_self_time() {
  SpanRecorder rec;
  rec.add("engine.update", 0.0, 10.0, -1, 1);
  rec.add("core.stages", 1.0, 3.0, 0, 1);
  rec.add("core.stages", 4.0, 8.0, 0, 1);
  const auto self = rec.self_time_by_layer();
  check(self.at("engine") == 4.0 && self.at("core") == 6.0,
        "self time is duration minus child spans");
}

void test_layers_add_up(const RunOptions& options) {
  WorkloadSpec spec = workload_spec("dense_poll");
  spec.setup_reps = 1;
  const Inputs in = generate_inputs(spec, 5, 0.5);
  const RunResult e2e = run_end_to_end(in, options);
  check(e2e.correct(), "a short dense_poll run matches the oracle at every poll");
  const RunResult layers = run_layers(in, options, e2e.cycle_busy_ms);
  check(layers.correct(), "the traced replay matches the oracle and the live shard");
  double self_sum = 0.0, unaccounted = NAN, cycle = NAN;
  std::set<std::string> names;
  for (const Metric& m : layers.metrics) {
    names.insert(m.name);
    if (m.name.rfind("self_ms.", 0) == 0) self_sum += m.value;
    if (m.name == "unaccounted_ms") unaccounted = m.value;
    if (m.name == "e2e.cycle_ms") cycle = m.value;
  }
  check(cycle == e2e.cycle_busy_ms && cycle > 0.0,
        "the traced run reports the end-to-end busy time per cycle");
  check(std::fabs(self_sum + unaccounted - cycle) <= 1e-9 * cycle,
        "layer self-times plus unaccounted_ms add up to the end-to-end time");
  bool all = true;
  for (const char* name :
       {"core.locate_us", "engine.serial_ms", "supervisor.fanout_self_ms",
        "shard.poll_rtt_ms", "wire.decode_fixes_us", "client.poll_ms",
        "journal.recover_ms", "wal.frames_per_fsync", "recovery.recover_ms",
        "checkpoint.bytes", "middleware.evict_us", "obs.trace_overhead_pct"}) {
    all = all && names.count(name) != 0;
  }
  check(all, "the traced run reports every layer's metrics");
}

}  // namespace

int run_selftest(const RunOptions& options) {
  test_digest();
  test_oracle_check();
  test_self_time();
  test_layers_add_up(options);
  std::printf("%s: %d failure(s)\n",
              failures == 0 ? "selftest passed" : "selftest FAILED", failures);
  return failures;
}

}  // namespace fleetbench
