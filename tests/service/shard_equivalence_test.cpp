// The sharded service's core acceptance bar (ISSUE 7): poll() output is
// fix-for-fix BIT-IDENTICAL to a single-engine run over the same reading
// stream and poll schedule, at any shard count x any parallel_workers —
// including after an in-process shard crash+recovery, a full-service
// recovery (construct-with-recover + whole-stream re-feed), a fork+SIGKILL
// whole-process crash, and live add/remove-shard rebalances.
//
// Harness: one simulator run is captured through a ReadingRecorder into
// per-segment reading batches (warmup, then one segment per poll interval);
// the golden single engine and every service configuration consume the
// identical capture, so any divergence is the service's fault.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "engine/localization_engine.h"
#include "env/environment.h"
#include "service/sharded_service.h"
#include "sim/simulator.h"

namespace vire::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSeed = 11;
constexpr double kWarmupS = 40.0;
constexpr double kPollS = 5.0;
constexpr int kPolls = 10;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Capture {
  /// segments[0] = warmup readings; segments[i+1] = readings of poll i's
  /// interval — fed before poll i, exactly as the golden run ingested them.
  std::vector<std::vector<sim::RssiReading>> segments;
  std::vector<sim::SimTime> poll_times;
  std::vector<std::vector<engine::Fix>> golden;
  std::vector<sim::TagId> reference_ids;
  std::vector<std::pair<sim::TagId, std::string>> tracked;
};

engine::EngineConfig engine_config(int workers) {
  engine::EngineConfig config;
  config.parallel_workers = workers;
  config.min_refresh_interval_s = 10.0;
  return config;
}

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

  engine::LocalizationEngine engine(deployment, engine_config(1));
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

ServiceConfig service_config(const Capture& /*capture*/, int shards, int workers,
                             fs::path data_dir = {}) {
  ServiceConfig config;
  config.shards = shards;
  config.engine = engine_config(workers);
  config.middleware.window_s = 10.0;
  config.data_dir = std::move(data_dir);
  config.checkpoint_every_updates = 2;
  return config;
}

std::unique_ptr<ShardedService> make_service(const Capture& capture,
                                             ServiceConfig config) {
  const env::Deployment deployment = env::Deployment::paper_testbed();
  auto service = std::make_unique<ShardedService>(deployment, config);
  service->set_reference_ids(capture.reference_ids);
  for (const auto& [tag, name] : capture.tracked) service->track(tag, name);
  return service;
}

void expect_poll_identical(const std::vector<engine::Fix>& actual,
                           const std::vector<engine::Fix>& expected, int poll) {
  ASSERT_EQ(actual.size(), expected.size()) << "poll " << poll;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const engine::Fix& a = actual[i];
    const engine::Fix& e = expected[i];
    EXPECT_EQ(a.tag, e.tag) << "poll " << poll;
    EXPECT_EQ(a.name, e.name) << "poll " << poll;
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
    EXPECT_EQ(a.used_fallback, e.used_fallback) << "poll " << poll;
    EXPECT_EQ(bits(a.age_s), bits(e.age_s)) << "poll " << poll;
  }
}

TEST(ShardEquivalenceTest, MatrixMatchesSingleEngineBitIdentically) {
  const Capture& capture = shared_capture();
  for (const int shards : {1, 2, 4}) {
    for (const int workers : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      auto service = make_service(capture, service_config(capture, shards, workers));
      service->ingest(capture.segments[0]);
      for (int poll = 0; poll < kPolls; ++poll) {
        service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
        const auto fixes = service->poll(capture.poll_times[poll]);
        expect_poll_identical(fixes, capture.golden[poll], poll);
      }
    }
  }
}

TEST(ShardEquivalenceTest, LatestFixAndExplainServeMergedResults) {
  const Capture& capture = shared_capture();
  auto service = make_service(capture, service_config(capture, 3, 1));
  service->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    (void)service->poll(capture.poll_times[poll]);
  }
  for (const auto& [tag, name] : capture.tracked) {
    const auto fix = service->latest_fix(tag);
    ASSERT_TRUE(fix.has_value()) << name;
    const auto& expected = capture.golden.back();
    const auto it = std::find_if(expected.begin(), expected.end(),
                                 [t = tag](const auto& f) { return f.tag == t; });
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(bits(fix->position.x), bits(it->position.x)) << name;
    const auto record = service->explain(tag);
    ASSERT_TRUE(record.has_value()) << name;
    EXPECT_EQ(record->tag, tag) << name;
  }
}

TEST(ShardEquivalenceTest, InProcessShardCrashRecoversBitIdentically) {
  const Capture& capture = shared_capture();
  const fs::path dir = fs::temp_directory_path() / "vire_shard_crash_inproc";
  fs::remove_all(dir);
  auto service = make_service(capture, service_config(capture, 3, 1, dir));

  constexpr int kCrashAfterPoll = 5;
  const std::uint32_t victim = service->owner_of(capture.tracked[0].first);
  service->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = service->poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
    if (poll == kCrashAfterPoll) {
      service->crash_shard(victim);
      const auto report = service->recover_shard(victim);
      EXPECT_TRUE(report.checkpoint_loaded || report.frames_replayed > 0);
      EXPECT_EQ(bits(report.recovered_time),
                bits(capture.poll_times[poll]))
          << "shard must resume exactly at the last completed poll";
    }
  }
  fs::remove_all(dir);
}

TEST(ShardEquivalenceTest, FullServiceRecoveryReplaysAndContinues) {
  const Capture& capture = shared_capture();
  const fs::path dir = fs::temp_directory_path() / "vire_shard_full_recovery";
  fs::remove_all(dir);
  // Crash one poll past a checkpoint boundary (cadence 2 => checkpoints after
  // polls 1 and 3), so recovery must REPLAY poll 4's update, not just load
  // the checkpoint — that exercises the replayed-fix substitution path.
  constexpr int kCrashAfterPoll = 4;

  {
    auto service = make_service(capture, service_config(capture, 3, 1, dir));
    service->ingest(capture.segments[0]);
    for (int poll = 0; poll <= kCrashAfterPoll; ++poll) {
      service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      (void)service->poll(capture.poll_times[poll]);
    }
    // Dropped without further ceremony — the WAL already holds everything.
  }

  // Recover at a DIFFERENT worker count, re-feed the WHOLE stream from t=0
  // and re-issue every poll. Polls the shards executed before their last
  // checkpoint are gone (fixes are not journaled) and come back incomplete;
  // the replayed poll is served bit-identically from recovered fixes; later
  // polls run live. Resume gates drop every re-fed duplicate reading.
  auto config = service_config(capture, 3, 4, dir);
  config.recover = true;
  auto service = make_service(capture, config);
  const auto report = service->recover();
  ASSERT_EQ(report.shards.size(), 3u);
  for (const auto& shard : report.shards) {
    EXPECT_EQ(bits(shard.resume_time), bits(capture.poll_times[kCrashAfterPoll]))
        << "shard " << shard.shard;
    EXPECT_GE(shard.report.updates_replayed, 1u) << "shard " << shard.shard;
  }

  service->ingest(capture.segments[0]);
  for (int poll = 0; poll < kPolls; ++poll) {
    service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = service->poll(capture.poll_times[poll]);
    if (poll < kCrashAfterPoll) continue;  // pre-checkpoint history: not reproducible
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
  // Every gated poll was answered from recovery state, never re-executed.
  const auto* substituted =
      service->metrics().find_counter("vire_service_poll_substituted_total");
  ASSERT_NE(substituted, nullptr);
  EXPECT_EQ(substituted->value(),
            static_cast<std::uint64_t>(3 * (kCrashAfterPoll + 1)));
  fs::remove_all(dir);
}

TEST(ShardEquivalenceTest, LiveRebalanceKeepsBitIdentity) {
  const Capture& capture = shared_capture();
  for (const bool persistent : {false, true}) {
    SCOPED_TRACE(persistent ? "wal-replay migration" : "window-snapshot migration");
    const fs::path dir =
        persistent ? fs::temp_directory_path() / "vire_shard_rebalance" : fs::path{};
    if (persistent) fs::remove_all(dir);
    auto service = make_service(capture, service_config(capture, 2, 1, dir));

    std::uint32_t added = 0;
    service->ingest(capture.segments[0]);
    for (int poll = 0; poll < kPolls; ++poll) {
      service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      const auto fixes = service->poll(capture.poll_times[poll]);
      expect_poll_identical(fixes, capture.golden[poll], poll);
      if (poll == 3) {
        const auto [id, rebalance] = service->add_shard();
        added = id;
        EXPECT_EQ(service->shard_count(), 3u);
        (void)rebalance;  // moved count depends on the ring; zero is legal
      }
      if (poll == 7) {
        const auto rebalance = service->remove_shard(added);
        EXPECT_EQ(service->shard_count(), 2u);
        (void)rebalance;
      }
    }
    if (persistent) fs::remove_all(dir);
  }
}

TEST(ShardEquivalenceTest, RebalanceMovesTagStateExactly) {
  // Force a migration regardless of ring layout: pin a tracked tag to shard
  // 0, stream half the run, then re-pin to shard 1 via remove/add cycling —
  // instead, simplest deterministic mover: remove the tag's current owner.
  const Capture& capture = shared_capture();
  auto service = make_service(capture, service_config(capture, 3, 1));
  service->ingest(capture.segments[0]);
  for (int poll = 0; poll < 5; ++poll) {
    service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    (void)service->poll(capture.poll_times[poll]);
  }
  const sim::TagId tag = capture.tracked[1].first;
  const std::uint32_t owner = service->owner_of(tag);
  const auto report = service->remove_shard(owner);
  EXPECT_GE(report.moved_tags, 1u);
  EXPECT_NE(service->owner_of(tag), owner);
  for (int poll = 5; poll < kPolls; ++poll) {
    service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = service->poll(capture.poll_times[poll]);
    expect_poll_identical(fixes, capture.golden[poll], poll);
  }
}

TEST(ShardEquivalenceTest, ZonePinsStickThroughRebalance) {
  const Capture& capture = shared_capture();
  auto service = make_service(capture, service_config(capture, 2, 1));
  const sim::TagId pinned = 9001;
  service->pin_zone(2, 1);
  service->track(pinned, "pinned", /*zone=*/2);
  EXPECT_EQ(service->owner_of(pinned), 1u);
  const auto [id, rebalance] = service->add_shard();
  (void)rebalance;
  EXPECT_NE(id, 1u);
  EXPECT_EQ(service->owner_of(pinned), 1u)
      << "zone-pinned tag must not move when the ring changes";
}

// Whole-process crash: fork a child that drives a persistent 2-shard
// service and SIGKILL it at a handshake point, then recover in the parent
// at a different worker count and demand bit-identity for every poll —
// replayed and live alike. The child reports on a pipe right after poll
// kKillAfterPolls (not a checkpoint boundary, so every shard must replay a
// WAL suffix) and blocks reading another pipe until the kill.
TEST(ShardEquivalenceTest, SigkilledServiceRecoversBitIdentically) {
  const fs::path dir = fs::temp_directory_path() / "vire_shard_sigkill";
  fs::remove_all(dir);
  fs::create_directories(dir);
  constexpr int kShards = 2;
  constexpr int kKillAfterPolls = 5;
  static_assert(kKillAfterPolls % 2 != 0, "checkpoint_every_updates is 2");

  int ready[2];
  int hold[2];
  ASSERT_EQ(pipe(ready), 0);
  ASSERT_EQ(pipe(hold), 0);
  // Fork FIRST: no engine/service threads exist in this process yet.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(ready[0]);
    close(hold[1]);
    const Capture capture = capture_scenario();
    auto service = make_service(capture, service_config(capture, kShards, 1, dir));
    service->ingest(capture.segments[0]);
    for (int poll = 0; poll < kKillAfterPolls; ++poll) {
      service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
      (void)service->poll(capture.poll_times[poll]);
    }
    const char byte = 'k';
    if (write(ready[1], &byte, 1) != 1) _exit(3);
    char sink = 0;
    (void)read(hold[0], &sink, 1);  // blocks until SIGKILL
    _exit(4);
  }
  close(ready[1]);
  close(hold[0]);

  // Blocks until the child sits at the kill point (or EOF if it died first).
  char byte = 0;
  const ssize_t got = read(ready[0], &byte, 1);
  close(ready[0]);
  if (got == 1) kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  close(hold[1]);
  ASSERT_EQ(got, 1) << "child exited (status " << status
                    << ") before poll " << kKillAfterPolls;
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  const Capture& capture = shared_capture();
  auto config = service_config(capture, kShards, 4, dir);
  config.recover = true;
  auto service = make_service(capture, config);
  const auto report = service->recover();
  ASSERT_EQ(report.shards.size(), static_cast<std::size_t>(kShards));
  // Everything after the furthest-ahead shard's resume time must
  // replay/continue to bit-identity. Earlier polls are only comparable when
  // every shard can still answer them (checkpoint-truncated history comes
  // back incomplete).
  sim::SimTime max_resume = 0.0;
  for (const auto& shard : report.shards) {
    max_resume = std::max(max_resume, shard.resume_time);
    EXPECT_GE(shard.report.updates_replayed, 1u) << "shard " << shard.shard;
  }
  ASSERT_LT(max_resume, capture.poll_times.back()) << "kill landed too late";

  service->ingest(capture.segments[0]);
  bool compared_live = false;
  for (int poll = 0; poll < kPolls; ++poll) {
    service->ingest(capture.segments[static_cast<std::size_t>(poll) + 1]);
    const auto fixes = service->poll(capture.poll_times[poll]);
    if (capture.poll_times[poll] <= max_resume &&
        fixes.size() != capture.golden[poll].size()) {
      continue;  // pre-checkpoint history on some shard: not reproducible
    }
    expect_poll_identical(fixes, capture.golden[poll], poll);
    if (capture.poll_times[poll] > max_resume) compared_live = true;
  }
  EXPECT_TRUE(compared_live);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace vire::service
