#include "service/shard_host.h"

#include <algorithm>
#include <bit>
#include <exception>
#include <stdexcept>

#include "obs/exporters.h"

namespace vire::service {

namespace {

std::uint64_t time_key(sim::SimTime t) noexcept {
  return std::bit_cast<std::uint64_t>(t);
}

}  // namespace

std::vector<sim::RssiReading> wal_window_readings(
    const std::filesystem::path& wal_dir, sim::TagId tag, sim::SimTime horizon) {
  std::vector<sim::RssiReading> readings;
  for (const auto& frame : persist::read_wal(wal_dir).frames) {
    if (frame.type != persist::FrameType::kReading) continue;
    if (frame.reading.tag != tag || frame.reading.time <= horizon) continue;
    readings.push_back(frame.reading);
  }
  return readings;
}

ShardHost::ShardHost(const env::Deployment& deployment, const ServiceConfig& config,
                     std::uint32_t id, obs::MetricsRegistry* front_metrics)
    : config_(config), id_(id) {
  if (config_.recover && !persistent()) {
    throw std::invalid_argument("ShardHost: recover requires a data_dir");
  }
  engine_ = std::make_unique<engine::LocalizationEngine>(deployment, config_.engine);
  if (config_.obs_clock_skew_us != 0.0) {
    engine_->tracer().set_clock_skew_us(config_.obs_clock_skew_us);
  }
  middleware_ = std::make_unique<sim::Middleware>(deployment.reader_count(),
                                                  config_.middleware);
  middleware_->attach_metrics(engine_->metrics());
  if (persistent()) {
    persist::CheckpointStoreConfig store;
    store.dir = checkpoint_dir(config_.data_dir, id_);
    checkpoints_ = std::make_unique<persist::CheckpointStore>(store);
    checkpoints_->attach_metrics(engine_->metrics());
    if (!config_.recover) attach_wal();
  }
  awaiting_recovery_ = config_.recover;

  obs::MetricsRegistry& registry =
      front_metrics != nullptr ? *front_metrics : engine_->metrics();
  readings_gated_ =
      &registry.counter("vire_service_readings_gated_total", {},
                        "Re-fed readings dropped by a recovered shard's resume gate");
  polls_substituted_ =
      &registry.counter("vire_service_poll_substituted_total", {},
                        "Per-shard poll contributions served from replayed fixes");
  recoveries_total_ = &registry.counter("vire_service_recoveries_total", {},
                                        "Shard recoveries completed");
  checkpoint_failures_ =
      &registry.counter("vire_service_checkpoint_failures_total", {},
                        "Shard checkpoints that failed to write");
}

ShardHost::~ShardHost() {
  // The middleware holds the journal pointer; drop it before the WAL.
  middleware_.reset();
}

std::filesystem::path ShardHost::dir(const std::filesystem::path& data_dir,
                                     std::uint32_t id) {
  return data_dir / ("shard-" + std::to_string(id));
}

void ShardHost::ensure_ready() const {
  if (awaiting_recovery_) {
    throw std::logic_error("ShardHost: constructed for recovery — call recover() first");
  }
}

void ShardHost::attach_wal() {
  persist::WalConfig wal;
  wal.dir = wal_dir(config_.data_dir, id_);
  wal.fsync = config_.fsync;
  wal_ = std::make_unique<persist::WalWriter>(wal);
  wal_->attach_metrics(engine_->metrics());
  middleware_->attach_journal(wal_.get());
}

void ShardHost::set_reference_ids(std::vector<sim::TagId> ids) {
  reference_ids_ = std::move(ids);
  reference_set_.clear();
  reference_set_.insert(reference_ids_.begin(), reference_ids_.end());
  // While awaiting recovery, recover() applies them before replay.
  if (!awaiting_recovery_) engine_->set_reference_ids(reference_ids_);
}

void ShardHost::track(sim::TagId tag, std::string name,
                      std::optional<std::uint32_t> /*zone*/) {
  if (!awaiting_recovery_) engine_->track(tag, name);
  tags_[tag] = std::move(name);
}

void ShardHost::untrack(sim::TagId tag) {
  if (!awaiting_recovery_) engine_->untrack(tag);
  tags_.erase(tag);
  latest_.erase(tag);
}

void ShardHost::ingest(const sim::RssiReading& reading) {
  if (gated_ && reading.time <= resume_time_) {
    readings_gated_->inc();
    return;
  }
  middleware_->ingest(reading);
}

void ShardHost::ingest(const std::vector<sim::RssiReading>& readings) {
  ensure_ready();
  for (const auto& reading : readings) ingest(reading);
}

void ShardHost::ack(std::uint64_t sequence) {
  if (wal_ != nullptr) wal_->append_ack_marker(sequence);
  acked_ = sequence;
}

void ShardHost::ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                                 std::uint64_t sequence) {
  ensure_ready();
  // Redelivery of a batch already journaled with its ack: drop it whole. (A
  // batch past the cursor re-ingests; the middleware's last-write-wins
  // duplicate policy and the resume gate absorb overlap.)
  if (sequence != 0 && sequence <= acked_) return;
  ingest(readings);
  // Ack marker strictly AFTER the batch's readings.
  ack(sequence);
}

void ShardHost::note_batch_context(const obs::TraceContext& ctx,
                                   std::uint64_t sequence) {
  obs::Tracer& tracer = engine_->tracer();
  if (ctx.trace_id == 0 || awaiting_recovery_ || !tracer.enabled()) return;
  tracer.instant("wire.ingest_batch",
                 "{\"trace_id\":" + std::to_string(ctx.trace_id) +
                     ",\"parent_span\":" + std::to_string(ctx.parent_span_id) +
                     ",\"sequence\":" + std::to_string(sequence) + "}");
}

void ShardHost::ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                                 std::uint64_t sequence,
                                 const obs::TraceContext& ctx) {
  // Capture-only adoption: localization output is bit-identical with or
  // without a context.
  note_batch_context(ctx, sequence);
  ingest_sequenced(readings, sequence);
}

std::vector<engine::Fix> ShardHost::poll(sim::SimTime now) {
  ensure_ready();
  std::vector<engine::Fix> fixes;
  if (gated_ && now <= resume_time_) {
    // Replayed poll: this shard already executed the update before the
    // crash; serve the recovered fixes instead of re-running it.
    polls_substituted_->inc();
    if (const auto it = replayed_.find(time_key(now)); it != replayed_.end()) {
      fixes = it->second;
    }
  } else {
    middleware_->evict_stale(now);
    // Marker journaled BEFORE the update: a crash mid-update replays it.
    if (wal_ != nullptr) wal_->append_update_marker(now);
    fixes = engine_->update(*middleware_, now);
    if (checkpoints_ != nullptr && config_.checkpoint_every_updates > 0 &&
        ++updates_since_checkpoint_ >= config_.checkpoint_every_updates) {
      checkpoint(now);
    }
    gated_ = false;
    replayed_.clear();
  }
  for (const auto& fix : fixes) latest_[fix.tag] = fix;
  return fixes;
}

void ShardHost::checkpoint(sim::SimTime now) {
  if (checkpoints_ == nullptr) return;
  updates_since_checkpoint_ = 0;
  try {
    persist::Checkpoint ckpt;
    ckpt.config_fingerprint = persist::engine_config_fingerprint(config_.engine);
    ckpt.wal_sequence = wal_ != nullptr ? wal_->next_sequence() : 0;
    ckpt.sim_time = now;
    ckpt.engine = engine_->snapshot();
    ckpt.middleware = middleware_->snapshot();
    ckpt.counters = persist::sample_counters(engine_->metrics());
    checkpoints_->write(ckpt);
  } catch (const std::exception&) {
    // A failed checkpoint only lengthens a future replay; never fail the
    // update over it.
    checkpoint_failures_->inc();
  }
}

std::optional<engine::Fix> ShardHost::latest_fix(sim::TagId tag) const {
  const auto it = latest_.find(tag);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

std::optional<obs::FixRecord> ShardHost::explain(sim::TagId tag) const {
  if (awaiting_recovery_ || tags_.count(tag) == 0) return std::nullopt;
  return engine_->flight_recorder().last_for_tag(tag);
}

std::optional<std::string> ShardHost::explain_json(sim::TagId tag) {
  const auto record = explain(tag);
  if (!record.has_value()) return std::nullopt;
  return obs::to_json(*record);
}

std::string ShardHost::snapshot_prometheus() const {
  return obs::to_prometheus(engine_->metrics());
}

std::string ShardHost::snapshot_json() const {
  return obs::to_json(engine_->metrics());
}

persist::RecoveryReport ShardHost::recover() {
  if (!awaiting_recovery_) {
    throw std::logic_error("ShardHost::recover: not awaiting recovery");
  }
  // The fresh engine must know the reference ids and the tag registry
  // BEFORE replay: registration is not journaled, and a cold start (no
  // checkpoint yet) replays the WAL through whatever is registered here.
  // When a checkpoint loads, its own tracked set — the same tags — replaces
  // this.
  if (!reference_ids_.empty()) engine_->set_reference_ids(reference_ids_);
  for (const auto& [tag, name] : tags_) engine_->track(tag, name);
  persist::RecoveryManager manager(
      {wal_dir(config_.data_dir, id_), checkpoint_dir(config_.data_dir, id_)});
  persist::RecoveryReport report = manager.recover(*engine_, *middleware_);
  attach_wal();  // resumes after the valid prefix replay stopped at

  resume_time_ = report.recovered_time;
  gated_ = report.checkpoint_loaded || report.frames_replayed > 0;
  acked_ = report.last_ack_sequence;
  replayed_.clear();
  for (const auto& fixes : report.replayed_fixes) {
    if (!fixes.empty()) replayed_.emplace(time_key(fixes[0].time), fixes);
  }
  awaiting_recovery_ = false;
  updates_since_checkpoint_ = 0;
  recoveries_total_->inc();
  return report;
}

std::uint64_t ShardHost::recover_now() {
  if (awaiting_recovery_) recover();
  return acked_;
}

HeartbeatInfo ShardHost::heartbeat() {
  HeartbeatInfo info;
  if (awaiting_recovery_) return info;
  info.wal_next_sequence = wal_ != nullptr ? wal_->next_sequence() : 0;
  info.last_ack_sequence = acked_;
  info.mono_now_us = engine_->tracer().now_us();
  info.anomaly_dumps =
      static_cast<std::uint64_t>(std::max(0, engine_->auto_dump_count()));
  return info;
}

obs::TraceDump ShardHost::trace_dump(std::size_t max_events) {
  if (awaiting_recovery_) return {};
  return engine_->tracer().dump(max_events);
}

std::string ShardHost::provenance_entry_json() const {
  return "{\"shard\":" + std::to_string(id_) + ",\"provenance\":" +
         obs::to_json(engine_->flight_recorder()) + "}";
}

std::optional<std::string> ShardHost::provenance_json() {
  if (awaiting_recovery_) return "{\"shards\":[]}";
  return "{\"shards\":[" + provenance_entry_json() + "]}";
}

std::optional<engine::TagStateSnapshot> ShardHost::export_tag_state(sim::TagId tag) {
  ensure_ready();
  if (tags_.count(tag) == 0) {
    throw std::invalid_argument("ShardHost::export_tag_state: unknown tag");
  }
  auto exported = engine_->export_tag(tag);
  untrack(tag);
  return exported;
}

void ShardHost::import_tag_state(sim::TagId tag, std::optional<std::uint32_t> zone,
                                 const engine::TagStateSnapshot& state) {
  ensure_ready();
  track(tag, state.name, zone);
  engine_->import_tag(tag, state);
}

std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot>
ShardHost::seed_export() {
  ensure_ready();
  // Per-tag state stays behind — migration moves it tag by tag.
  engine::EngineStateSnapshot engine_seed = engine_->snapshot();
  engine_seed.tracked.clear();
  engine_seed.trackers.clear();
  engine_seed.last_good.clear();
  engine_seed.last_quality.clear();
  sim::Middleware::Snapshot window = middleware_->snapshot();
  sim::Middleware::Snapshot middleware_seed;
  for (auto& link : window.links) {
    if (reference_set_.count(link.tag) != 0) {
      middleware_seed.links.push_back(std::move(link));
    }
  }
  return {std::move(engine_seed), std::move(middleware_seed)};
}

void ShardHost::seed_import(const engine::EngineStateSnapshot& engine_seed,
                            const sim::Middleware::Snapshot& middleware_seed) {
  ensure_ready();
  engine_->restore(engine_seed);
  middleware_->restore(middleware_seed);
}

std::vector<sim::RssiReading> ShardHost::window_readings(sim::TagId tag,
                                                         sim::SimTime horizon) const {
  if (persistent()) return wal_window_readings(wal_dir(config_.data_dir, id_), tag, horizon);
  // No WAL: lift the tag's window straight out of the middleware.
  const sim::Middleware::Snapshot window = middleware_->snapshot();
  std::vector<sim::RssiReading> readings;
  for (const auto& link : window.links) {
    if (link.tag != tag) continue;
    for (const auto& sample : link.samples) {
      if (sample.time <= horizon) continue;
      readings.push_back({sample.time, link.tag, link.reader, sample.rssi_dbm});
    }
  }
  return readings;
}

}  // namespace vire::service
