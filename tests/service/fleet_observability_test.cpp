// Fleet-wide observability drill (ISSUE 9 acceptance bar): two real
// vire_shardd processes behind a Supervisor with fleet tracing on, each
// process's trace clock deliberately skewed by seconds. The supervisor must
// (a) keep the merged poll stream fix-for-fix BIT-IDENTICAL to the same run
// with tracing off, (b) estimate each shard's clock offset from heartbeat
// round trips and emit ONE merged Chrome trace in which a sampled ingest
// batch's supervisor span contains the owning shard's engine spans on a
// common timeline with correct process metadata, (c) record
// vire_fleet_ingest_to_fix_seconds for every polled fix, and (d) answer
// flight-recorder provenance for the whole fleet over one connection.
//
// Skipped on single-hardware-thread boxes for the same reason as the other
// process-spawning drills (VIRE_FORCE_DRILLS=1 overrides).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "service/supervisor.h"
#include "sim/simulator.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 10;
constexpr double kSkewUs = 3e6;  // 3 s: way past any honest wire latency

bool drills_enabled() {
  if (std::thread::hardware_concurrency() > 1) return true;
  const char* force = std::getenv("VIRE_FORCE_DRILLS");
  return force != nullptr && std::strcmp(force, "1") == 0;
}

#define SKIP_ON_SINGLE_CORE()                                               \
  if (!drills_enabled()) {                                                  \
    GTEST_SKIP() << "single hardware thread: shard processes starve behind " \
                    "the test and the drill flakes on spawn deadlines, not " \
                    "on observability logic (VIRE_FORCE_DRILLS=1 overrides)"; \
  }

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Capture {
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  std::vector<std::vector<engine::Fix>> golden;
  std::vector<sim::TagId> reference_ids;
  std::vector<std::pair<sim::TagId, std::string>> tracked;
};

/// Same scenario family as the chaos drill: golden single engine and the
/// supervised fleet consume an identical capture.
Capture capture_scenario() {
  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  sim::SimulatorConfig sim_config;
  sim_config.seed = kSeed;
  sim_config.middleware.window_s = 10.0;

  sim::RfidSimulator simulator(environment, deployment, sim_config);
  sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);

  Capture capture;
  capture.reference_ids = simulator.add_reference_tags();
  const sim::TagId pallet = simulator.add_tag({1.4, 1.8});
  const sim::TagId forklift = simulator.add_tag({2.3, 1.1});
  const sim::TagId cart = simulator.add_tag({0.9, 2.6});
  capture.tracked = {{pallet, "pallet"}, {forklift, "forklift"}, {cart, "cart"}};

  engine::EngineConfig engine_config;
  engine_config.min_refresh_interval_s = 10.0;
  engine::LocalizationEngine engine(deployment, engine_config);
  simulator.middleware().attach_metrics(engine.metrics());
  engine.set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) engine.track(tag, name);

  simulator.run_for(kWarmupS);
  capture.segments.push_back(recorder.take());
  for (int poll = 0; poll < kPolls; ++poll) {
    simulator.run_for(kPollS);
    capture.segments.push_back(recorder.take());
    const sim::SimTime now = simulator.now();
    capture.poll_times.push_back(now);
    simulator.middleware().evict_stale(now);
    capture.golden.push_back(engine.update(simulator.middleware(), now));
  }
  return capture;
}

const Capture& shared_capture() {
  static const Capture capture = capture_scenario();
  return capture;
}

void expect_poll_identical(const std::vector<engine::Fix>& actual,
                           const std::vector<engine::Fix>& expected, int poll) {
  ASSERT_EQ(actual.size(), expected.size()) << "poll " << poll;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const engine::Fix& a = actual[i];
    const engine::Fix& e = expected[i];
    EXPECT_EQ(a.tag, e.tag) << "poll " << poll;
    EXPECT_EQ(bits(a.time), bits(e.time)) << "poll " << poll;
    EXPECT_EQ(a.valid, e.valid) << "poll " << poll;
    EXPECT_EQ(a.quality, e.quality) << "poll " << poll;
    EXPECT_EQ(bits(a.position.x), bits(e.position.x)) << "poll " << poll;
    EXPECT_EQ(bits(a.position.y), bits(e.position.y)) << "poll " << poll;
    EXPECT_EQ(bits(a.smoothed_position.x), bits(e.smoothed_position.x))
        << "poll " << poll;
    EXPECT_EQ(bits(a.smoothed_position.y), bits(e.smoothed_position.y))
        << "poll " << poll;
    EXPECT_EQ(a.survivor_count, e.survivor_count) << "poll " << poll;
  }
}

SupervisorConfig fleet_config(const fs::path& root) {
  SupervisorConfig config;
  config.shards = 2;
  config.root_dir = root;
  config.shardd_binary = VIRE_SHARDD_PATH;
  config.checkpoint_every_updates = 2;
  config.restart_backoff_initial_s = 0.01;
  config.restart_backoff_max_s = 0.05;
  config.request_retries = 3;
  config.spawn_wait_s = 60.0;
  config.heartbeat_interval_s = 0.02;  // fast clock-offset sampling
  config.seed = 7;
  return config;
}

void register_capture(Supervisor& supervisor, const Capture& capture) {
  supervisor.set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) {
    supervisor.track(tag, name, std::nullopt);
  }
}

// --- parse-lite helpers over the merged Chrome trace ----------------------

/// Top-level objects of the "traceEvents" array, via brace balancing.
std::vector<std::string> split_events(const std::string& json) {
  std::vector<std::string> events;
  const auto array_pos = json.find("\"traceEvents\":[");
  if (array_pos == std::string::npos) return events;
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = array_pos; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) events.push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return events;
}

/// Raw value of `"key":` in one event object ("" when absent).
std::string field(const std::string& event, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = event.find(needle);
  if (pos == std::string::npos) return "";
  const std::size_t begin = pos + needle.size();
  std::size_t end = begin;
  while (end < event.size() && event[end] != ',' && event[end] != '}') ++end;
  return event.substr(begin, end - begin);
}

bool has_process_name(const std::vector<std::string>& events,
                      const std::string& name, const std::string& pid) {
  return std::any_of(events.begin(), events.end(), [&](const std::string& e) {
    return e.find("\"process_name\"") != std::string::npos &&
           e.find("\"name\":\"" + name + "\"") != std::string::npos &&
           field(e, "pid") == pid;
  });
}

TEST(FleetObservabilityTest, SkewedFleetMergesNestedSpansBitIdentically) {
  SKIP_ON_SINGLE_CORE();
  const Capture& capture = shared_capture();
  const env::Deployment deployment = env::Deployment::paper_testbed();

  // Control run: fleet tracing OFF.
  const fs::path off_root = fs::temp_directory_path() / "vire_fleet_obs_off";
  fs::remove_all(off_root);
  fs::create_directories(off_root);
  {
    Supervisor supervisor(deployment, fleet_config(off_root));
    supervisor.start();
    register_capture(supervisor, capture);
    supervisor.ingest(capture.segments[0]);
    for (int poll = 0; poll < kPolls; ++poll) {
      supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      expect_poll_identical(supervisor.poll(capture.poll_times[poll]),
                            capture.golden[poll], poll);
    }
    supervisor.stop();
  }
  fs::remove_all(off_root);

  // Traced run: fleet tracing ON, every shard's trace clock skewed 3 s so a
  // naive merge would scatter its spans far outside the supervisor's.
  const fs::path root = fs::temp_directory_path() / "vire_fleet_obs_on";
  fs::remove_all(root);
  fs::create_directories(root);
  SupervisorConfig config = fleet_config(root);
  config.fleet_tracing = true;
  config.shardd_extra_args = {"--clock-skew-us", "3000000"};

  Supervisor supervisor(deployment, config);
  supervisor.start();
  ASSERT_EQ(supervisor.shard_state(0), ShardState::kUp);
  ASSERT_EQ(supervisor.shard_state(1), ShardState::kUp);
  register_capture(supervisor, capture);

  std::size_t total_fixes = 0;
  supervisor.ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    supervisor.ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = supervisor.poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
    total_fixes += fixes.size();
    // Heartbeats (clock-offset samples) between polls: EWMA smoothing needs
    // more than one round trip per shard.
    supervisor.tick();
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    supervisor.tick();
  }
  ASSERT_GT(total_fixes, 0u);

  // Every polled fix landed in the end-to-end histogram.
  const auto* e2e =
      supervisor.metrics().find_histogram("vire_fleet_ingest_to_fix_seconds");
  ASSERT_NE(e2e, nullptr);
  EXPECT_GE(e2e->count(), total_fixes);

  // Heartbeat RTT histograms and clock-offset gauges are live per shard; the
  // estimated offsets must be dominated by the injected 3 s skew.
  for (const std::string shard : {"0", "1"}) {
    const auto* rtt = supervisor.metrics().find_histogram(
        "vire_fleet_shard_rtt_seconds", "shard=\"" + shard + "\"");
    ASSERT_NE(rtt, nullptr);
    EXPECT_GE(rtt->count(), 2u) << "shard " << shard;
    const auto* offset = supervisor.metrics().find_gauge(
        "vire_fleet_shard_clock_offset_us", "shard=\"" + shard + "\"");
    ASSERT_NE(offset, nullptr);
    EXPECT_GT(offset->value(), kSkewUs / 2.0) << "shard " << shard;
    // One send -> reply-read sample per shard per poll.
    const auto* shard_poll = supervisor.metrics().find_histogram(
        "vire_supervisor_shard_poll_seconds", "shard=\"" + shard + "\"");
    ASSERT_NE(shard_poll, nullptr);
    EXPECT_EQ(shard_poll->count(), static_cast<std::uint64_t>(kPolls))
        << "shard " << shard;
  }

  // One merged Chrome trace with per-process metadata.
  const std::string trace = supervisor.fleet_trace_json();
  const std::vector<std::string> events = split_events(trace);
  ASSERT_FALSE(events.empty());
  EXPECT_TRUE(has_process_name(events, "vire-supervisord", "1"));
  EXPECT_TRUE(has_process_name(events, "vire-shardd-0", "2"));
  EXPECT_TRUE(has_process_name(events, "vire-shardd-1", "3"));

  // The acceptance nesting: a supervisor batch_e2e span (pid 1) must contain
  // the owning shard's engine.update span after rebasing. With 3 s of
  // injected skew this only holds if the offset estimate cancelled it —
  // estimator error is ~RTT/2, orders of magnitude under the envelope.
  struct Span {
    double ts = 0.0;
    double dur = 0.0;
    std::string raw;
  };
  std::vector<Span> batch_spans;
  std::vector<std::pair<int, Span>> engine_updates;  // pid, span
  for (const std::string& event : events) {
    if (field(event, "ph") != "\"X\"") continue;
    Span span;
    span.ts = std::atof(field(event, "ts").c_str());
    span.dur = std::atof(field(event, "dur").c_str());
    span.raw = event;
    const std::string pid = field(event, "pid");
    if (pid == "1" &&
        event.find("\"supervisor.batch_e2e\"") != std::string::npos) {
      batch_spans.push_back(span);
    } else if ((pid == "2" || pid == "3") &&
               event.find("\"engine.update\"") != std::string::npos) {
      engine_updates.emplace_back(pid == "2" ? 0 : 1, span);
    }
  }
  ASSERT_FALSE(batch_spans.empty()) << "no supervisor.batch_e2e spans emitted";
  ASSERT_FALSE(engine_updates.empty()) << "no shard engine.update spans pulled";
  bool nested = false;
  for (const Span& batch : batch_spans) {
    const auto shard_field = field(batch.raw, "shard");
    for (const auto& [shard, update] : engine_updates) {
      if (shard_field != std::to_string(shard)) continue;
      if (update.ts >= batch.ts && update.ts <= batch.ts + batch.dur) {
        nested = true;
        break;
      }
    }
    if (nested) break;
  }
  EXPECT_TRUE(nested) << "no rebased engine.update landed inside its owning "
                         "batch_e2e envelope";

  // Remote provenance: flight-recorder records for the whole fleet over the
  // supervisor connection.
  const auto provenance = supervisor.provenance_json();
  ASSERT_TRUE(provenance.has_value());
  EXPECT_NE(provenance->find("\"fleet\""), std::string::npos);
  EXPECT_NE(provenance->find("\"shard\":0"), std::string::npos);
  EXPECT_NE(provenance->find("\"shard\":1"), std::string::npos);

  // Fleet-health JSON and the merged scrape expose the new series.
  const std::string health = supervisor.snapshot_json();
  EXPECT_NE(health.find("\"fleet\""), std::string::npos);
  EXPECT_NE(health.find("\"state\":\"up\""), std::string::npos);
  EXPECT_NE(health.find("\"clock_offset_us\""), std::string::npos);
  const std::string prom = supervisor.snapshot_prometheus();
  EXPECT_NE(prom.find("vire_fleet_ingest_to_fix_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("vire_fleet_shard_rtt_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(prom.find("vire_fleet_slo_burn_total"), std::string::npos);
  EXPECT_NE(prom.find("vire_supervisor_shard_anomaly_dumps_total"),
            std::string::npos);

  supervisor.stop();
  fs::remove_all(root);
}

}  // namespace
}  // namespace vire::service
