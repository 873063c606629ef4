#include "inputs.h"

#include <algorithm>
#include <condition_variable>
#include <cmath>
#include <cstring>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "env/deployment.h"
#include "env/environment.h"
#include "sim/middleware.h"
#include "sim/simulator.h"
#include "sim/types.h"
#include "support/rng.h"

namespace fleetbench {

namespace {

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
};

/// Static tag positions: a ring on the sensing-area boundary (the paper's
/// weak spot, its Tag 9) and the rest uniform inside.
std::vector<vire::geom::Vec2> tag_positions(int count, vire::support::Rng& rng,
                                            const vire::geom::Aabb& area) {
  std::vector<vire::geom::Vec2> out;
  const int ring = count / 8;
  const double w = area.width();
  const double h = area.hi.y - area.lo.y;
  const double perimeter = 2.0 * (w + h);
  const double offset = rng.uniform(0.0, perimeter);
  for (int i = 0; i < ring; ++i) {
    double s = std::fmod(offset + perimeter * i / ring, perimeter);
    vire::geom::Vec2 p;
    if (s < w) {
      p = {area.lo.x + s, area.lo.y};
    } else if ((s -= w) < h) {
      p = {area.hi.x, area.lo.y + s};
    } else if ((s -= h) < w) {
      p = {area.hi.x - s, area.hi.y};
    } else {
      s -= w;
      p = {area.lo.x, area.hi.y - s};
    }
    out.push_back(p);
  }
  while (static_cast<int>(out.size()) < count) {
    out.push_back({rng.uniform(area.lo.x, area.hi.x),
                   rng.uniform(area.lo.y, area.hi.y)});
  }
  return out;
}

/// Per-batch readings of the concurrent simulators, handed over in batch
/// order while later batches are still being simulated.
class BatchFeed {
 public:
  BatchFeed(std::size_t producers, std::size_t batches)
      : parts_(producers, std::vector<std::vector<RssiReading>>(batches)),
        produced_(producers, 0) {}

  void publish(std::size_t producer, std::size_t batch,
               std::vector<RssiReading> readings) {
    {
      const std::lock_guard lock(mutex_);
      parts_[producer][batch] = std::move(readings);
      produced_[producer] = batch + 1;
    }
    cv_.notify_all();
  }

  void fail(std::exception_ptr error) {
    {
      const std::lock_guard lock(mutex_);
      if (!error_) error_ = std::move(error);
    }
    cv_.notify_all();
  }

  /// Blocks until every producer published `batch` and returns all of its
  /// readings; rethrows a producer's failure.
  std::vector<RssiReading> take(std::size_t batch) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] {
      return error_ || std::all_of(produced_.begin(), produced_.end(),
                                   [batch](std::size_t n) { return n > batch; });
    });
    if (error_) std::rethrow_exception(error_);
    std::vector<RssiReading> out;
    for (auto& part : parts_) {
      out.insert(out.end(), part[batch].begin(), part[batch].end());
      std::vector<RssiReading>().swap(part[batch]);
    }
    return out;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::vector<std::vector<RssiReading>>> parts_;  ///< guarded
  std::vector<std::size_t> produced_;                         ///< guarded
  std::exception_ptr error_;                                  ///< guarded
};

/// Runs one simulator holding every tag of `positions`, of which only every
/// `stride`-th starting at `first` beacons, and publishes the readings of
/// each consecutive span of `durations` to `feed` as producer `first`.
void simulate_beacons(const vire::env::Environment& environment,
                      const vire::env::Deployment& deployment,
                      const vire::sim::SimulatorConfig& config,
                      const std::vector<vire::geom::Vec2>& positions,
                      std::size_t first, std::size_t stride,
                      const std::vector<double>& durations, BatchFeed& feed) {
  vire::sim::RfidSimulator simulator(environment, deployment, config);
  vire::sim::ReadingRecorder recorder;
  simulator.set_interceptor(&recorder);
  vire::sim::TagConfig silent = config.tag_defaults;
  silent.beacon_interval_s = 1e12;  // first beacon far beyond any run
  for (std::size_t id = 0; id < positions.size(); ++id) {
    simulator.add_tag(positions[id],
                      id % stride == first ? config.tag_defaults : silent);
  }
  for (std::size_t b = 0; b < durations.size(); ++b) {
    simulator.run_for(durations[b]);
    feed.publish(first, b, recorder.take());
  }
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec s;
  s.name = name;
  if (name == "dense_poll") {
    s.tracked_tags = 256;
    // 2 s of readings per poll, in two batches. With 2 shards that is 4
    // control-journal appends per cycle, so the supervisor's journal
    // checkpoint (every 1024 appends) lands on 0.4% of polls: outside p99,
    // instead of right at it.
    s.batch_sim_s = 1.0;
    s.batches_per_poll = 2;
    s.polls_per_second = 60.0;
  } else if (name == "stream_ingest") {
    s.tracked_tags = 32;
    s.beacon_only_tags = 992;
    s.batch_sim_s = 0.1;
    s.batches_per_poll = 20;  // one poll per 2 s of simulated time
    s.offered_readings_per_s = 100000.0;
  } else if (name == "crash_restart") {
    s.tracked_tags = 256;
    s.batch_sim_s = 1.0;
    s.batches_per_poll = 2;
    s.polls_per_second = 60.0;
    s.history_polls = 120;
    s.setup_reps = 3;  // each one replays the whole history
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

std::uint64_t hash_fixes(const std::vector<Fix>& fixes) {
  Fnv f;
  f.add(fixes.size());
  for (const Fix& x : fixes) {
    f.add(x.tag);
    f.add(x.name);
    f.add(bits(x.time));
    f.add(x.valid ? 1 : 0);
    f.add(static_cast<std::uint64_t>(x.quality));
    f.add(bits(x.position.x));
    f.add(bits(x.position.y));
    f.add(bits(x.smoothed_position.x));
    f.add(bits(x.smoothed_position.y));
    f.add(x.survivor_count);
    f.add(x.used_fallback ? 1 : 0);
    f.add(bits(x.age_s));
  }
  return f.h;
}

bool matches_oracle(const Batch& batch, const std::vector<Fix>& fixes) {
  return fixes.size() == batch.oracle_fixes && hash_fixes(fixes) == batch.oracle_hash;
}

void fix_errors(const Inputs& inputs, const std::vector<Fix>& fixes,
                std::vector<double>& errors) {
  // Both lists are in tag order (fleet polls merge by tag).
  std::size_t t = 0;
  for (const Fix& fix : fixes) {
    while (t < inputs.truth.size() && inputs.truth[t].first < fix.tag) ++t;
    if (t == inputs.truth.size()) break;
    if (!fix.valid || inputs.truth[t].first != fix.tag) continue;
    const vire::geom::Vec2 d = fix.position - inputs.truth[t].second;
    errors.push_back(std::sqrt(d.x * d.x + d.y * d.y));
  }
}

Inputs generate_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                       double run_seconds) {
  using namespace vire;
  Inputs in;
  in.spec = spec;

  const env::Environment environment =
      env::make_paper_environment(env::PaperEnvironment::kEnv1SemiOpen);
  const env::Deployment deployment = env::Deployment::paper_testbed();

  // The deployment is part of the workload, like the paper's fixed testbed:
  // tag positions and the RF channel (shadowing field) come from a constant
  // layout seed. The run seed drives everything a run varies: each
  // tag's hardware bias and antenna orientation, beacon phases and jitter,
  // fading and measurement noise.
  constexpr std::uint64_t kLayoutSeed = 0x666c656574ULL;
  // Global tag table: references, then tracked, then beacon-only tags.
  std::vector<vire::geom::Vec2> positions = deployment.reference_positions();
  support::Rng rng(kLayoutSeed);
  for (const auto& p : tag_positions(spec.tracked_tags + spec.beacon_only_tags,
                                     rng, deployment.sensing_area())) {
    positions.push_back(p);
  }
  const auto refs = static_cast<TagId>(deployment.reference_positions().size());
  for (TagId id = 0; id < refs; ++id) in.reference_ids.push_back(id);
  for (int i = 0; i < spec.tracked_tags; ++i) {
    const TagId id = refs + static_cast<TagId>(i);
    in.tracked.emplace_back(id, "t" + std::to_string(id));
    in.truth.emplace_back(id, positions[id]);
  }

  // Batch schedule: warm-up, history, timed cycles.
  int timed_polls =
      static_cast<int>(std::lround(spec.polls_per_second * run_seconds));
  if (spec.open_loop()) {
    // Enough poll cycles to fill the run at the offered rate (every tag
    // beacons once per 2 s on each of the deployment's readers).
    const double readings_per_cycle =
        static_cast<double>(positions.size() * deployment.reader_positions().size()) /
        2.0 * spec.batch_sim_s * spec.batches_per_poll;
    timed_polls = static_cast<int>(std::ceil(
        spec.offered_readings_per_s * run_seconds / readings_per_cycle));
  }
  timed_polls = std::max(timed_polls, 2);
  std::vector<double> durations = {kWarmupSimS};
  std::vector<bool> polls = {true};
  for (int p = 0; p < spec.history_polls + timed_polls; ++p) {
    for (int k = 0; k < spec.batches_per_poll; ++k) {
      durations.push_back(spec.batch_sim_s);
      polls.push_back(k + 1 == spec.batches_per_poll);
    }
  }

  // Beacons are split over kSubSims independent simulators run
  // concurrently. Every simulator holds every tag at its position, so the
  // tag-density interference (which counts co-located tags) and the RF
  // channel (one shared channel seed) are those of the whole deployment;
  // each tag beacons in exactly one of them and is silent in the others.
  // Readings are merged per batch in (time, tag, reader) order, and the
  // oracle below consumes each batch while the simulators run ahead. The
  // split is fixed, so the inputs do not depend on the machine.
  constexpr std::size_t kSubSims = 4;
  std::uint64_t mix = kLayoutSeed;
  const std::uint64_t channel_seed = support::splitmix64(mix) | 1;

  // The oracle: one engine + middleware configured as every vire_shardd
  // (daemon defaults: 10 s window, default EngineConfig). Worker count does
  // not change fixes, so it runs on every hardware thread.
  sim::MiddlewareConfig mw_config;
  mw_config.window_s = 10.0;
  sim::Middleware middleware(deployment.reader_count(), mw_config);
  engine::EngineConfig engine_config;
  engine_config.parallel_workers = 0;
  engine_config.observability.flight_recorder_fixes = 0;
  engine_config.observability.max_auto_dumps = 0;
  engine::LocalizationEngine oracle(deployment, engine_config);
  oracle.set_reference_ids(in.reference_ids);
  for (const auto& [tag, name] : in.tracked) oracle.track(tag, name);

  Fnv digest;
  for (const TagId id : in.reference_ids) digest.add(id);
  for (const auto& [tag, name] : in.tracked) {
    digest.add(tag);
    digest.add(name);
  }
  SimTime now = 0.0;
  const auto history_end =
      static_cast<std::size_t>(spec.history_polls * spec.batches_per_poll);
  BatchFeed feed(kSubSims, durations.size());
  std::vector<std::thread> threads;
  // The simulators never wait on the consumer, so joining them always ends.
  const auto join_all = [&threads] {
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  };
  try {
    for (std::size_t k = 0; k < kSubSims; ++k) {
      threads.emplace_back([&, k] {
        try {
          sim::SimulatorConfig config;
          config.seed = seed * kSubSims + k;
          config.channel_seed = channel_seed;
          simulate_beacons(environment, deployment, config, positions, k, kSubSims,
                           durations, feed);
        } catch (...) {
          feed.fail(std::current_exception());
        }
      });
    }
    for (std::size_t b = 0; b < durations.size(); ++b) {
      now += durations[b];
      Batch batch;
      batch.readings = feed.take(b);
      std::sort(batch.readings.begin(), batch.readings.end(),
                [](const RssiReading& x, const RssiReading& y) {
                  return std::tie(x.time, x.tag, x.reader) <
                         std::tie(y.time, y.tag, y.reader);
                });
      for (const RssiReading& r : batch.readings) {
        middleware.ingest(r);
        digest.add(bits(r.time));
        digest.add(r.tag);
        digest.add(r.reader);
        digest.add(bits(r.rssi_dbm));
      }
      in.readings_total += batch.readings.size();
      if (polls[b]) {
        batch.poll_after = true;
        batch.poll_time = now;
        digest.add(bits(now));
        middleware.evict_stale(now);
        const std::vector<Fix> fixes = oracle.update(middleware, now);
        batch.oracle_hash = hash_fixes(fixes);
        batch.oracle_fixes = fixes.size();
      }
      if (b == 0) {
        in.warmup.push_back(std::move(batch));
      } else if (b <= history_end) {
        in.history.push_back(std::move(batch));
      } else {
        in.timed.push_back(std::move(batch));
      }
    }
  } catch (...) {
    join_all();
    throw;
  }
  join_all();
  if (spec.open_loop()) {
    std::size_t before = 0;
    for (Batch& b : in.timed) {
      b.due_s = static_cast<double>(before) / spec.offered_readings_per_s;
      before += b.readings.size();
    }
  }
  in.digest = digest.h;
  return in;
}

}  // namespace fleetbench
