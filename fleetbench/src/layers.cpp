// Traced run: replays a workload's exact inputs through the public functions
// of each layer, in-process and configured as vire_supervisord and
// vire_shardd configure them, and times every call from here. Nothing inside
// the program is instrumented for this; engine stage times come from the
// histograms engine.metrics() already keeps, and the supervisor's per-shard
// poll split from the spans its own tracer already records.
//
// Three passes over the same inputs:
//   A  the shard pipelines (wire, router, control journal, middleware, WAL,
//      engine, core, checkpoints) of both shards, once untraced and once
//      traced (their difference is obs.trace_overhead_pct); the traced one
//      gives the layer self-times that, with unaccounted_ms, add up to the
//      end-to-end busy time per poll cycle;
//   B  an in-process Supervisor over two real vire_shardd processes;
//   C  a ServiceClient against one vire_shardd fed shard 0's stream.

#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "bench.h"
#include "core/vire_localizer.h"
#include "env/deployment.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "service/client.h"
#include "service/control_journal.h"
#include "service/shard_router.h"
#include "service/sharded_service.h"
#include "service/supervisor.h"
#include "service/wire.h"
#include "sim/middleware.h"
#include "spans.h"

namespace fleetbench {

namespace {

namespace fs = std::filesystem;
using namespace vire;

constexpr std::uint32_t kShards = 2;
constexpr int kEngineWorkers = 2;
constexpr double kWindowS = 10.0;       // vire_supervisord --window default
constexpr int kDefaultCheckpointEvery = 8;  // --checkpoint-every default

/// Layers whose self-times add up (with unaccounted_ms) to the end-to-end
/// busy time of a poll cycle.
const char* const kLayers[] = {"wire",       "router", "journal", "middleware",
                               "wal",        "engine", "core",    "checkpoint"};


std::vector<const Batch*> all_batches(const Inputs& in) {
  std::vector<const Batch*> out;
  for (const auto* list : {&in.warmup, &in.history, &in.timed}) {
    for (const Batch& b : *list) out.push_back(&b);
  }
  return out;
}

double us_since(double t0_us) { return SpanRecorder::now_us() - t0_us; }

std::uintmax_t dir_bytes(const fs::path& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file()) total += e.file_size();
  }
  return total;
}

engine::EngineConfig shard_engine_config(const fs::path& dir) {
  engine::EngineConfig config;
  config.parallel_workers = kEngineWorkers;
  config.observability.anomaly_dump_dir = dir / "obs";
  return config;
}

double histogram_sum(const engine::LocalizationEngine& e, const char* stage) {
  const obs::Histogram* h = e.metrics().find_histogram(
      "vire_engine_stage_seconds", std::string("stage=\"") + stage + "\"");
  return h == nullptr ? 0.0 : h->sum();
}

double counter(const engine::LocalizationEngine& e, const char* name,
               const char* labels = "") {
  const obs::Counter* c = e.metrics().find_counter(name, labels);
  return c == nullptr ? 0.0 : static_cast<double>(c->value());
}

/// One shard of pass A, built as ShardedService builds a vire_shardd's.
struct ShardPipe {
  fs::path dir;
  std::vector<std::pair<TagId, std::string>> tags;  ///< tracked here
  std::unique_ptr<sim::Middleware> mw;
  std::unique_ptr<engine::LocalizationEngine> engine;
  std::unique_ptr<persist::WalWriter> wal;
  std::unique_ptr<persist::CheckpointStore> checkpoints;
  obs::Tracer wal_tracer;  ///< counts the WAL's persist.wal_fsync spans
  int since_checkpoint = 0;
  std::vector<Fix> last_fixes;
};

persist::Checkpoint make_checkpoint(const ShardPipe& s, SimTime now) {
  persist::Checkpoint c;
  c.config_fingerprint = persist::engine_config_fingerprint(s.engine->config());
  c.wal_sequence = s.wal->next_sequence();
  c.sim_time = now;
  c.engine = s.engine->snapshot();
  c.middleware = s.mw->snapshot();
  c.counters = persist::sample_counters(s.engine->metrics());
  return c;
}

std::vector<RssiReading> decode_frame(const std::string& frame) {
  service::FrameDecoder decoder;
  decoder.feed(frame);
  const auto f = decoder.next();
  if (!f.has_value()) throw std::runtime_error("frame did not decode");
  auto batch = service::decode_ingest_seq(f->payload);
  if (!batch.has_value()) throw std::runtime_error("batch did not decode");
  return std::move(batch->readings);
}

std::vector<Fix> decode_fixes_or_throw(const std::string& payload) {
  auto fixes = service::decode_fixes(payload);
  if (!fixes.has_value()) throw std::runtime_error("fixes did not decode");
  return std::move(*fixes);
}

struct Values {
  std::map<std::string, std::vector<double>> v;
  void add(const std::string& name, double x) { v[name].push_back(x); }
  [[nodiscard]] double med(const std::string& name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0.0 : median(it->second);
  }
  [[nodiscard]] double mean(const std::string& name) const {
    const auto it = v.find(name);
    if (it == v.end() || it->second.empty()) return 0.0;
    double s = 0.0;
    for (const double x : it->second) s += x;
    return s / static_cast<double>(it->second.size());
  }
  [[nodiscard]] std::size_t n(const std::string& name) const {
    const auto it = v.find(name);
    return it == v.end() ? 0 : it->second.size();
  }
};

/// Reads each shard's WAL and recovers it into a fresh engine, as a
/// restarted vire_shardd does; the replay must end on the live fixes.
void recover_shards(const Inputs& in,
                    const std::vector<std::unique_ptr<ShardPipe>>& shards,
                    const fs::path& dir, Values& values, RunResult& res) {
  const env::Deployment deployment = env::Deployment::paper_testbed();
  for (std::uint32_t k = 0; k < kShards; ++k) {
    const ShardPipe& sp = *shards[k];
    const double t0 = SpanRecorder::now_us();
    (void)persist::read_wal(sp.dir / "wal");
    values.add("wal.read_ms", us_since(t0) / 1e3);

    const fs::path scratch = dir / ("recovered-" + std::to_string(k));
    sim::Middleware mw(deployment.reader_count(), sim::MiddlewareConfig{kWindowS});
    engine::LocalizationEngine engine(deployment, shard_engine_config(scratch));
    engine.set_reference_ids(in.reference_ids);
    for (const auto& [tag, name] : sp.tags) engine.track(tag, name);
    persist::RecoveryManager manager({sp.dir / "wal", sp.dir / "checkpoints"});
    const double r0 = SpanRecorder::now_us();
    const persist::RecoveryReport report = manager.recover(engine, mw);
    values.add("recovery.recover_ms", us_since(r0) / 1e3);
    ++res.attempted;
    if (report.updates_replayed > 0 &&
        hash_fixes(report.replayed_fixes.back()) != hash_fixes(sp.last_fixes)) {
      ++res.failed;
      std::fprintf(stderr,
                   "fleetbench: shard %u recovery diverged from the live pipeline\n", k);
    }
  }
}

struct PassA {
  double loop_us = 0.0;   ///< replay wall time, sampling and recovery excluded
  int cycles = 0;
  std::map<std::string, double> self_us;  ///< per layer, cycle loop only
  std::vector<std::uint64_t> shard0_hashes;  ///< shard 0's fixes per poll
};

/// Pass A over `dir`. With `values` null the pass is the untraced
/// reference: the recorder is off and nothing is sampled.
PassA replay_pipeline(const Inputs& in, const fs::path& dir, SpanRecorder& rec,
                      const service::ShardRouter& router, Values* values,
                      RunResult& res) {
  PassA out;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const env::Deployment deployment = env::Deployment::paper_testbed();
  const std::set<TagId> refs(in.reference_ids.begin(), in.reference_ids.end());
  // crash_restart's history was written by a daemon with rare checkpoints;
  // everything after it runs the daemon default.
  const bool crash = in.spec.crash();
  const std::size_t history_end = in.warmup.size() + in.history.size();

  auto journal = std::make_unique<service::ControlJournal>(
      service::ControlJournalConfig{dir / "journal"});
  (void)journal->recover();
  journal->record_set_reference(in.reference_ids);
  for (const auto& [tag, name] : in.tracked) {
    journal->record_track(tag, name, std::nullopt);
  }

  std::vector<std::unique_ptr<ShardPipe>> shards;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    auto s = std::make_unique<ShardPipe>();
    s->dir = dir / ("shard-" + std::to_string(k));
    s->mw = std::make_unique<sim::Middleware>(deployment.reader_count(),
                                              sim::MiddlewareConfig{kWindowS});
    s->engine = std::make_unique<engine::LocalizationEngine>(
        deployment, shard_engine_config(s->dir));
    s->mw->attach_metrics(s->engine->metrics());
    s->engine->set_reference_ids(in.reference_ids);
    for (const auto& [tag, name] : in.tracked) {
      if (router.route(tag) != k) continue;
      s->engine->track(tag, name);
      s->tags.emplace_back(tag, name);
    }
    persist::WalConfig wal;
    wal.dir = s->dir / "wal";
    wal.fsync = service::ServiceConfig{}.fsync;
    s->wal = std::make_unique<persist::WalWriter>(wal);
    s->wal_tracer.set_enabled(true);
    s->wal->attach_tracer(&s->wal_tracer);
    persist::CheckpointStoreConfig store;
    store.dir = s->dir / "checkpoints";
    s->checkpoints = std::make_unique<persist::CheckpointStore>(store);
    shards.push_back(std::move(s));
  }

  const std::vector<const Batch*> batches = all_batches(in);
  std::uint64_t seq = 0;
  std::uint64_t batch_records = 0;
  double excluded_us = 0.0;
  int cycle_span = -1;
  core::VireLocalizer localizer(deployment.reference_grid(),
                                core::recommended_vire_config());
  const double loop_start = SpanRecorder::now_us();
  for (const Batch* b : batches) {
    const bool in_history = seq < history_end;
    const int cadence =
        crash && in_history ? kHistoryCheckpointEvery : kDefaultCheckpointEvery;
    ++seq;
    if (cycle_span < 0) cycle_span = rec.begin("cycle", seq);
    std::string frame;
    {
      Scoped s(rec, "wire.encode_ingest", seq);
      frame = service::encode_frame(
          service::MsgType::kIngestSeq,
          service::encode_ingest_seq(seq, obs::TraceContext{seq, seq}, b->readings));
    }
    if (values != nullptr) {
      values->add("wire.ingest_bytes", static_cast<double>(frame.size()));
    }
    std::vector<RssiReading> readings;
    {
      Scoped s(rec, "wire.decode_ingest", seq);
      readings = decode_frame(frame);
    }
    std::vector<RssiReading> parts[kShards];
    {
      Scoped s(rec, "router.route", seq);
      for (const RssiReading& r : readings) {
        if (refs.count(r.tag) != 0) {
          for (auto& p : parts) p.push_back(r);
        } else {
          parts[router.route(r.tag)].push_back(r);
        }
      }
    }
    for (std::uint32_t k = 0; k < kShards; ++k) {
      if (parts[k].empty()) continue;
      ShardPipe& sp = *shards[k];
      {
        Scoped s(rec, "journal.append", seq);
        journal->record_batch(k, seq, parts[k]);
      }
      ++batch_records;
      std::string shard_frame;
      {
        Scoped s(rec, "wire.encode_shard", seq);
        shard_frame = service::encode_frame(
            service::MsgType::kIngestSeq,
            service::encode_ingest_seq(seq, obs::TraceContext{seq, seq}, parts[k]));
      }
      {
        Scoped s(rec, "wire.decode_shard", seq);
        parts[k] = decode_frame(shard_frame);
      }
      {
        Scoped s(rec, "middleware.ingest", seq);
        for (const RssiReading& r : parts[k]) sp.mw->ingest(r);
      }
      {
        Scoped s(rec, "wal.append", seq);
        for (const RssiReading& r : parts[k]) sp.wal->on_accepted(r);
        sp.wal->append_ack_marker(seq);
      }
    }
    if (!b->poll_after) continue;

    const SimTime now = b->poll_time;
    std::vector<Fix> merged;
    for (std::uint32_t k = 0; k < kShards; ++k) {
      ShardPipe& sp = *shards[k];
      {
        Scoped s(rec, "middleware.evict", seq);
        sp.mw->evict_stale(now);
      }
      {
        Scoped s(rec, "wal.mark", seq);
        sp.wal->on_evict(now);
        sp.wal->append_update_marker(now);
      }
      const double core0 = histogram_sum(*sp.engine, "interpolation") +
                           histogram_sum(*sp.engine, "locate");
      const int h = rec.begin("engine.update", seq);
      const double u0 = SpanRecorder::now_us();
      sp.last_fixes = sp.engine->update(*sp.mw, now);
      const double core_us = (histogram_sum(*sp.engine, "interpolation") +
                              histogram_sum(*sp.engine, "locate") - core0) * 1e6;
      rec.add("core.stages", u0, u0 + core_us, h, seq);
      rec.end(h);
      if (++sp.since_checkpoint >= cadence) {
        sp.since_checkpoint = 0;
        Scoped s(rec, "checkpoint.write", seq);
        sp.checkpoints->write(make_checkpoint(sp, now));
      }
      std::string payload;
      {
        Scoped s(rec, "wire.encode_fixes_shard", seq);
        payload = service::encode_fixes(sp.last_fixes);
      }
      std::vector<Fix> fixes;
      {
        Scoped s(rec, "wire.decode_fixes_shard", seq);
        fixes = decode_fixes_or_throw(payload);
      }
      if (k == 0) out.shard0_hashes.push_back(hash_fixes(fixes));
      merged.insert(merged.end(), fixes.begin(), fixes.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const Fix& x, const Fix& y) { return x.tag < y.tag; });
    std::string reply;
    {
      Scoped s(rec, "wire.encode_fixes", seq);
      reply = service::encode_fixes(merged);
    }
    std::vector<Fix> answer;
    {
      Scoped s(rec, "wire.decode_fixes", seq);
      answer = decode_fixes_or_throw(reply);
    }
    ++res.attempted;
    if (!matches_oracle(*b, answer)) {
      ++res.failed;
      std::fprintf(stderr,
                   "fleetbench: in-process poll t=%.3f differs from the oracle\n", now);
    }
    rec.end(cycle_span);
    cycle_span = -1;
    ++out.cycles;

    // crash_restart: recover the shards where the crash happens, over the
    // whole un-checkpointed history; the restarted shards count their
    // checkpoint cadence from zero.
    if (crash && seq == history_end) {
      const double t0 = SpanRecorder::now_us();
      if (values != nullptr) recover_shards(in, shards, dir, *values, res);
      for (auto& sp : shards) sp->since_checkpoint = 0;
      excluded_us += us_since(t0);
    }

    // Core, sampled every 8th cycle on shard 0 outside the cycle spans: the
    // localizer's own calls over the current windows.
    if (values != nullptr && out.cycles % 8 == 1) {
      const double t0 = SpanRecorder::now_us();
      const ShardPipe& sp = *shards[0];
      std::vector<sim::RssiVector> reference_rssi;
      for (const TagId id : in.reference_ids) {
        const double r0 = SpanRecorder::now_us();
        reference_rssi.push_back(sp.mw->rssi_vector(id));
        values->add("middleware.rssi_vector_us", us_since(r0));
      }
      const double c0 = SpanRecorder::now_us();
      localizer.set_reference_rssi(reference_rssi);
      values->add("core.refresh_us", us_since(c0));
      const std::size_t nodes = localizer.virtual_tag_count();
      for (std::size_t i = 0; i < sp.tags.size() && i < 32; ++i) {
        const double r0 = SpanRecorder::now_us();
        const sim::RssiVector v = sp.mw->rssi_vector(sp.tags[i].first);
        values->add("middleware.rssi_vector_us", us_since(r0));
        const double l0 = SpanRecorder::now_us();
        const auto result = localizer.locate(v);
        values->add("core.locate_us", us_since(l0));
        if (result.has_value()) {
          values->add("core.refinement_steps", result->elimination.refinement_steps);
          values->add("core.survivor_ratio",
                      static_cast<double>(result->survivor_count()) /
                          static_cast<double>(nodes));
        }
      }
      excluded_us += us_since(t0);
    }
  }
  if (cycle_span >= 0) rec.end(cycle_span);
  out.loop_us = us_since(loop_start) - excluded_us;
  if (values == nullptr) return out;

  out.self_us = rec.self_time_by_layer();

  // Durations by span name for the per-operation medians.
  std::map<std::string, std::vector<double>> spans_us;
  std::vector<double> child_us(rec.spans().size(), 0.0);
  for (const Span& s : rec.spans()) {
    spans_us[s.name].push_back(s.end_us - s.start_us);
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const Span& s = rec.spans()[i];
    if (s.name == "engine.update") {
      values->add("engine.serial_ms", (s.end_us - s.start_us - child_us[i]) / 1e3);
    }
  }
  for (const auto& [name, durations] : spans_us) {
    for (const double d : durations) values->add("span:" + name, d);
  }

  // Engine counters, WAL fsyncs, journal size.
  double rebuilds = 0.0, skips = 0.0, fsyncs = 0.0, frames = 0.0;
  for (const auto& sp : shards) {
    const auto& e = *sp->engine;
    rebuilds += counter(e, "vire_engine_grid_rebuilds_total") +
                counter(e, "vire_engine_grid_partial_rebuilds_total");
    for (const char* reason : {"reason=\"rate_limited\"", "reason=\"unchanged\""}) {
      skips += counter(e, "vire_engine_grid_rebuild_skips_total", reason);
    }
    fsyncs += static_cast<double>(sp->wal_tracer.recorded());
    frames += static_cast<double>(sp->wal->appended_count());
  }
  values->add("engine.grid_rebuilds", rebuilds);
  values->add("engine.refresh_skip_ratio",
              rebuilds + skips > 0 ? skips / (rebuilds + skips) : 0.0);
  values->add("wal.fsyncs", fsyncs);
  values->add("wal.frames_per_fsync", fsyncs > 0 ? frames / fsyncs : frames);
  values->add("journal.bytes_per_batch",
              static_cast<double>(dir_bytes(dir / "journal")) /
                  static_cast<double>(std::max<std::uint64_t>(batch_records, 1)));

  // One more checkpoint per shard, into a side store so recovery below
  // still starts from the cadence checkpoints.
  for (const auto& sp : shards) {
    persist::CheckpointStoreConfig store;
    store.dir = sp->dir / "checkpoint-probe";
    persist::CheckpointStore probe(store);
    const double t0 = SpanRecorder::now_us();
    probe.write(make_checkpoint(*sp, batches.back()->poll_time));
    values->add("span:checkpoint.write", us_since(t0));
    values->add("checkpoint.bytes",
                static_cast<double>(dir_bytes(sp->dir / "checkpoint-probe")));
  }

  // Read side: the journal, the WALs and full shard recovery, as a
  // restarted supervisor and restarted shards run them.
  journal.reset();
  for (auto& sp : shards) sp->wal.reset();
  {
    service::ControlJournal reread(service::ControlJournalConfig{dir / "journal"});
    const double t0 = SpanRecorder::now_us();
    (void)reread.recover();
    values->add("journal.recover_ms", us_since(t0) / 1e3);
  }
  if (!crash) recover_shards(in, shards, dir, *values, res);
  return out;
}

/// Pass B: Supervisor::ingest/poll in-process over two vire_shardd children.
void replay_supervisor(const Inputs& in, const RunOptions& opt,
                       const fs::path& dir, Values& values, RunResult& res) {
  fs::remove_all(dir);
  service::SupervisorConfig config;
  config.shards = static_cast<int>(kShards);
  config.root_dir = dir;
  config.shardd_binary = opt.fleet.shardd;
  config.engine_workers = kEngineWorkers;
  config.middleware_window_s = kWindowS;
  config.checkpoint_every_updates = kDefaultCheckpointEvery;
  service::Supervisor sup(env::Deployment::paper_testbed(), config);
  sup.start();
  // The supervisor's own tracer (not fleet tracing: shards stay untraced)
  // records one supervisor.batch_e2e span per shard at each poll, ending
  // when that shard's reply was merged.
  sup.tracer().set_enabled(true);
  sup.set_reference_ids(in.reference_ids);
  for (const auto& [tag, name] : in.tracked) sup.track(tag, name, std::nullopt);
  for (const Batch* b : all_batches(in)) {
    const double t0 = SpanRecorder::now_us();
    sup.ingest(b->readings);
    values.add("supervisor.ingest_us", us_since(t0));
    if (!b->poll_after) continue;
    sup.tracer().clear();
    const double p0 = sup.tracer().now_us();
    const std::vector<Fix> fixes = sup.poll(b->poll_time);
    const double p1 = sup.tracer().now_us();
    std::vector<double> ends;
    for (const auto& ev : sup.tracer().snapshot()) {
      if (ev.name == "supervisor.batch_e2e") ends.push_back(ev.ts_us + ev.dur_us);
    }
    std::sort(ends.begin(), ends.end());
    ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
    values.add("supervisor.poll_ms", (p1 - p0) / 1e3);
    if (ends.size() == kShards) {
      double previous = p0;
      for (const double end : ends) {
        values.add("shard.poll_rtt_ms", (end - previous) / 1e3);
        previous = end;
      }
      values.add("supervisor.fanout_self_ms", (p1 - ends.back()) / 1e3);
    }
    ++res.attempted;
    if (!matches_oracle(*b, fixes)) {
      ++res.failed;
      std::fprintf(stderr,
                   "fleetbench: in-process supervisor poll t=%.3f differs from "
                   "the oracle\n",
                   b->poll_time);
    }
    sup.tick();
  }
  sup.stop();
}

/// Pass C: a ServiceClient against one vire_shardd fed shard 0's stream.
void replay_client(const Inputs& in, const RunOptions& opt, const fs::path& dir,
                   const service::ShardRouter& router,
                   const std::vector<std::uint64_t>& shard0_hashes,
                   Values& values, RunResult& res) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path socket = "shard.sock";
  fs::remove(socket);
  const pid_t pid = spawn_process(
      {opt.fleet.shardd.string(), "--socket", socket.string(), "--data-dir",
       (dir / "data").string(), "--workers", std::to_string(kEngineWorkers),
       "--window", "10", "--checkpoint-every",
       std::to_string(kDefaultCheckpointEvery)},
      dir / "shardd.log");
  service::ClientConfig config;
  config.read_timeout_s = 60.0;
  std::unique_ptr<service::ServiceClient> client;
  const double deadline = steady_s() + 60.0;
  while (client == nullptr) {
    try {
      client = std::make_unique<service::ServiceClient>(socket, config);
    } catch (const service::TransportError&) {
      if (steady_s() > deadline) {
        stop_process(pid, 5.0);
        throw;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const std::set<TagId> refs(in.reference_ids.begin(), in.reference_ids.end());
  client->set_reference_ids(in.reference_ids);
  for (const auto& [tag, name] : in.tracked) {
    if (router.route(tag) == 0) client->track({tag, name, std::nullopt});
  }
  (void)client->recover_now();
  std::uint64_t seq = 0;
  std::size_t poll = 0;
  for (const Batch* b : all_batches(in)) {
    std::vector<RssiReading> part;
    for (const RssiReading& r : b->readings) {
      if (refs.count(r.tag) != 0 || router.route(r.tag) == 0) part.push_back(r);
    }
    const double t0 = SpanRecorder::now_us();
    client->stream_sequenced(++seq, part);
    values.add("client.stream_us", us_since(t0));
    if (!b->poll_after) continue;
    const double p0 = SpanRecorder::now_us();
    const std::vector<Fix> fixes = client->poll(b->poll_time);
    values.add("client.poll_ms", us_since(p0) / 1e3);
    ++res.attempted;
    if (poll >= shard0_hashes.size() || hash_fixes(fixes) != shard0_hashes[poll]) {
      ++res.failed;
      std::fprintf(stderr,
                   "fleetbench: shardd poll t=%.3f differs from the in-process shard\n",
                   b->poll_time);
    }
    ++poll;
  }
  client.reset();
  stop_process(pid, 10.0);
}

}  // namespace

RunResult run_layers(const Inputs& in, const RunOptions& opt,
                     double e2e_cycle_ms) {
  RunResult res;
  Values values;
  service::ShardRouter router(service::SupervisorConfig{}.router);
  for (std::uint32_t k = 0; k < kShards; ++k) router.add_shard(k);

  SpanRecorder untraced;
  untraced.set_enabled(false);
  const PassA off = replay_pipeline(in, "layers-a0", untraced, router, nullptr, res);
  SpanRecorder rec;
  const PassA on = replay_pipeline(in, "layers-a1", rec, router, &values, res);
  rec.write_chrome_trace(opt.trace_out);
  std::printf("traced run: %zu spans -> %s\n", rec.spans().size(),
              opt.trace_out.string().c_str());
  replay_supervisor(in, opt, "layers-b", values, res);
  replay_client(in, opt, "layers-c", router, on.shard0_hashes, values, res);

  auto add = [&](const std::string& name, double value, const char* unit,
                 std::size_t samples) {
    res.metrics.push_back({name, value, unit, samples});
  };
  auto med = [&](const std::string& name, const char* unit, double scale = 1.0) {
    add(name, values.med(name) * scale, unit, values.n(name));
  };
  auto span_med = [&](const std::string& name, const std::string& span,
                      const char* unit, double scale) {
    add(name, values.med("span:" + span) * scale, unit, values.n("span:" + span));
  };
  med("core.locate_us", "us");
  add("core.refinement_steps", values.mean("core.refinement_steps"), "count",
      values.n("core.refinement_steps"));
  add("core.survivor_ratio", values.mean("core.survivor_ratio"), "ratio",
      values.n("core.survivor_ratio"));
  med("core.refresh_us", "us");
  span_med("engine.update_ms", "engine.update", "ms", 1e-3);
  med("engine.serial_ms", "ms");
  med("engine.grid_rebuilds", "count");
  med("engine.refresh_skip_ratio", "ratio");
  med("supervisor.poll_ms", "ms");
  med("shard.poll_rtt_ms", "ms");
  med("supervisor.fanout_self_ms", "ms");
  med("supervisor.ingest_us", "us");
  span_med("router.route_us", "router.route", "us", 1.0);
  span_med("wire.encode_ingest_us", "wire.encode_ingest", "us", 1.0);
  span_med("wire.decode_ingest_us", "wire.decode_ingest", "us", 1.0);
  med("wire.ingest_bytes", "bytes");
  span_med("wire.encode_fixes_us", "wire.encode_fixes", "us", 1.0);
  span_med("wire.decode_fixes_us", "wire.decode_fixes", "us", 1.0);
  med("client.stream_us", "us");
  med("client.poll_ms", "ms");
  span_med("journal.append_us", "journal.append", "us", 1.0);
  med("journal.bytes_per_batch", "bytes");
  med("journal.recover_ms", "ms");
  span_med("wal.append_us", "wal.append", "us", 1.0);
  med("wal.fsyncs", "count");
  med("wal.frames_per_fsync", "ratio");
  med("wal.read_ms", "ms");
  med("recovery.recover_ms", "ms");
  span_med("checkpoint.write_ms", "checkpoint.write", "ms", 1e-3);
  med("checkpoint.bytes", "bytes");
  span_med("middleware.ingest_us", "middleware.ingest", "us", 1.0);
  span_med("middleware.evict_us", "middleware.evict", "us", 1.0);
  med("middleware.rssi_vector_us", "us");
  add("obs.trace_overhead_pct", (on.loop_us - off.loop_us) / off.loop_us * 100.0,
      "%", 2);

  // Layer self-times per poll cycle; what they leave of the end-to-end busy
  // time is IPC, scheduling and the processes' own glue.
  const double cycles = std::max(on.cycles, 1);
  double layers_ms = 0.0;
  for (const char* layer : kLayers) {
    const auto it = on.self_us.find(layer);
    const double ms = it == on.self_us.end() ? 0.0 : it->second / 1e3 / cycles;
    layers_ms += ms;
    add(std::string("self_ms.") + layer, ms, "ms", static_cast<std::size_t>(cycles));
  }
  add("e2e.cycle_ms", e2e_cycle_ms, "ms", static_cast<std::size_t>(cycles));
  add("unaccounted_ms", e2e_cycle_ms - layers_ms, "ms",
      static_cast<std::size_t>(cycles));
  for (const char* dir : {"layers-a0", "layers-a1", "layers-b", "layers-c"}) {
    fs::remove_all(dir);
  }
  return res;
}

}  // namespace fleetbench
