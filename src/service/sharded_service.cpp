#include "service/sharded_service.h"

#include <algorithm>
#include <future>
#include <limits>
#include <set>
#include <stdexcept>

#include "obs/exporters.h"

namespace vire::service {

std::uint32_t zone_for_position(const env::Deployment& deployment,
                                geom::Vec2 position) noexcept {
  const geom::Aabb area = deployment.sensing_area();
  const double cx = 0.5 * (area.lo.x + area.hi.x);
  const double cy = 0.5 * (area.lo.y + area.hi.y);
  const std::uint32_t col = position.x >= cx ? 1 : 0;
  const std::uint32_t row = position.y >= cy ? 1 : 0;
  return row * 2 + col;
}

ShardedService::ShardedService(const env::Deployment& deployment,
                               ServiceConfig config)
    : deployment_(deployment), config_(std::move(config)), router_(config_.router) {
  if (config_.shards <= 0) {
    throw std::invalid_argument("ShardedService: shards must be positive");
  }
  if (config_.recover && config_.data_dir.empty()) {
    throw std::invalid_argument("ShardedService: recover requires a data_dir");
  }
  readings_total_ = &metrics_.counter("vire_service_readings_total", {},
                                      "Readings accepted by the service front door");
  broadcasts_total_ =
      &metrics_.counter("vire_service_reference_broadcasts_total", {},
                        "Reference-tag readings broadcast to every shard");
  batches_total_ = &metrics_.counter("vire_service_batches_total", {},
                                     "Reading batches routed to shards");
  readings_lost_ = &metrics_.counter("vire_service_readings_lost_total", {},
                                     "Readings addressed to a crashed shard");
  polls_total_ = &metrics_.counter("vire_service_polls_total", {},
                                   "poll() calls served");
  rebalance_moved_tags_ = &metrics_.counter("vire_service_rebalance_moved_tags_total",
                                            {}, "Tags migrated between shards");
  rebalance_replayed_ =
      &metrics_.counter("vire_service_rebalance_replayed_readings_total", {},
                        "Readings replayed into a moved tag's new owner");
  shards_gauge_ = &metrics_.gauge("vire_service_shards", {}, "Live shard count");
  poll_seconds_ = &metrics_.histogram("vire_service_poll_seconds",
                                      obs::default_latency_buckets_s(), {},
                                      "Wall time of poll(): per-shard updates + merge");

  for (int i = 0; i < config_.shards; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    router_.add_shard(id);
    make_host(id, config_.recover);
  }
  next_shard_id_ = static_cast<std::uint32_t>(config_.shards);
}

ShardedService::~ShardedService() = default;

ShardHost& ShardedService::make_host(std::uint32_t id, bool recover) {
  ServiceConfig host_config = config_;
  host_config.recover = recover;
  auto& slot = hosts_[id];
  slot.reset();  // a crashed host's files close before its successor opens them
  slot = std::make_unique<ShardHost>(deployment_, host_config, id, &metrics_);
  if (!reference_ids_.empty()) slot->set_reference_ids(reference_ids_);
  shards_gauge_->set(static_cast<double>(hosts_.size()));
  return *slot;
}

void ShardedService::ensure_ready() const {
  if (config_.recover && !recovered_) {
    throw std::logic_error(
        "ShardedService: constructed for recovery — call recover() first");
  }
}

void ShardedService::set_reference_ids(std::vector<sim::TagId> ids) {
  reference_ids_ = std::move(ids);
  reference_set_.clear();
  reference_set_.insert(reference_ids_.begin(), reference_ids_.end());
  for (auto& [id, h] : hosts_) h->set_reference_ids(reference_ids_);
}

void ShardedService::track(sim::TagId tag, std::string name,
                           std::optional<std::uint32_t> zone) {
  tags_[tag] = {name, zone};
  host(router_.route(tag, zone)).track(tag, std::move(name), zone);
}

void ShardedService::untrack(sim::TagId tag) {
  const auto it = tags_.find(tag);
  if (it == tags_.end()) return;
  host(router_.route(tag, it->second.zone)).untrack(tag);
  tags_.erase(it);
  latest_.erase(tag);
}

void ShardedService::pin_zone(std::uint32_t zone, std::uint32_t shard) {
  router_.pin_zone(zone, shard);
}

void ShardedService::pin_tag(sim::TagId tag, std::uint32_t shard) {
  router_.pin_tag(tag, shard);
}

void ShardedService::route(ShardHost& h, const sim::RssiReading& reading) {
  if (h.awaiting_recovery()) {
    readings_lost_->inc();
    return;
  }
  h.ingest(reading);
}

void ShardedService::ingest(const sim::RssiReading& reading) {
  ensure_ready();
  readings_total_->inc();
  if (reference_set_.count(reading.tag) != 0) {
    broadcasts_total_->inc();
    for (auto& [id, h] : hosts_) route(*h, reading);
    return;
  }
  std::optional<std::uint32_t> zone;
  if (const auto it = tags_.find(reading.tag); it != tags_.end()) {
    zone = it->second.zone;
  }
  route(host(router_.route(reading.tag, zone)), reading);
}

void ShardedService::ingest(const std::vector<sim::RssiReading>& readings) {
  batches_total_->inc();
  for (const auto& reading : readings) ingest(reading);
}

void ShardedService::ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                                      std::uint64_t sequence) {
  ensure_ready();
  // Redelivery of a batch every live shard already journaled an ack for:
  // drop it whole. (A batch past the cursor re-ingests; the middleware's
  // last-write-wins duplicate policy and the resume gates absorb overlap.)
  if (sequence != 0 && sequence <= last_ack_sequence()) return;
  ingest(readings);
  for (auto& [id, h] : hosts_) {
    if (!h->awaiting_recovery()) h->ack(sequence);
  }
}

void ShardedService::ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                                      std::uint64_t sequence,
                                      const obs::TraceContext& ctx) {
  for (auto& [id, h] : hosts_) h->note_batch_context(ctx, sequence);
  ingest_sequenced(readings, sequence);
}

std::uint64_t ShardedService::last_ack_sequence() const {
  std::uint64_t min_ack = std::numeric_limits<std::uint64_t>::max();
  bool any = false;
  for (const auto& [id, h] : hosts_) {
    if (h->awaiting_recovery()) continue;
    any = true;
    min_ack = std::min(min_ack, h->last_ack_sequence());
  }
  return any ? min_ack : 0;
}

HeartbeatInfo ShardedService::heartbeat() {
  HeartbeatInfo info;
  info.last_ack_sequence = last_ack_sequence();
  for (auto& [id, h] : hosts_) {
    if (h->awaiting_recovery()) continue;
    const HeartbeatInfo one = h->heartbeat();
    info.wal_next_sequence = std::max(info.wal_next_sequence, one.wal_next_sequence);
    if (info.mono_now_us == 0.0) info.mono_now_us = one.mono_now_us;
    info.anomaly_dumps += one.anomaly_dumps;
  }
  return info;
}

obs::TraceDump ShardedService::trace_dump(std::size_t max_events) {
  for (auto& [id, h] : hosts_) {
    if (!h->awaiting_recovery()) return h->trace_dump(max_events);
  }
  return {};
}

std::optional<std::string> ShardedService::provenance_json() {
  std::string out = "{\"shards\":[";
  bool first = true;
  for (auto& [id, h] : hosts_) {
    if (h->awaiting_recovery()) continue;
    if (!first) out += ",";
    first = false;
    out += h->provenance_entry_json();
  }
  out += "]}";
  return out;
}

std::vector<engine::Fix> ShardedService::poll(sim::SimTime now) {
  ensure_ready();
  const obs::ScopedTimer timer(poll_seconds_);
  std::vector<ShardHost*> live;
  for (auto& [id, h] : hosts_) {
    if (!h->awaiting_recovery()) live.push_back(h.get());
  }
  // One task per host; the first runs here. Hosts share nothing, and each
  // is touched by exactly one thread until the joins below.
  std::vector<std::future<std::vector<engine::Fix>>> others;
  others.reserve(live.size());
  for (std::size_t i = 1; i < live.size(); ++i) {
    others.push_back(std::async(std::launch::async,
                                [h = live[i], now] { return h->poll(now); }));
  }
  std::vector<engine::Fix> merged;
  if (!live.empty()) merged = live.front()->poll(now);
  for (auto& task : others) {
    auto fixes = task.get();
    merged.insert(merged.end(), std::make_move_iterator(fixes.begin()),
                  std::make_move_iterator(fixes.end()));
  }
  // Tag order — exactly the order a single engine (iterating its tag map)
  // emits, so the merged vector is directly diffable against it.
  std::sort(merged.begin(), merged.end(),
            [](const engine::Fix& a, const engine::Fix& b) { return a.tag < b.tag; });

  for (const auto& fix : merged) latest_[fix.tag] = fix;
  last_poll_time_ = now;
  polls_total_->inc();
  return merged;
}

std::optional<engine::Fix> ShardedService::latest_fix(sim::TagId tag) const {
  const auto it = latest_.find(tag);
  if (it == latest_.end()) return std::nullopt;
  return it->second;
}

std::optional<obs::FixRecord> ShardedService::explain(sim::TagId tag) {
  const auto info = tags_.find(tag);
  if (info == tags_.end()) return std::nullopt;
  return host(router_.route(tag, info->second.zone)).explain(tag);
}

std::optional<std::string> ShardedService::explain_json(sim::TagId tag) {
  const auto record = explain(tag);
  if (!record.has_value()) return std::nullopt;
  return obs::to_json(*record);
}

ServiceRecoveryReport ShardedService::recover() {
  if (!config_.recover) {
    throw std::logic_error("ShardedService::recover: not constructed for recovery");
  }
  if (recovered_) {
    throw std::logic_error("ShardedService::recover: already recovered");
  }
  ServiceRecoveryReport report;
  for (auto& [id, h] : hosts_) {
    ServiceRecoveryReport::ShardRecovery one;
    one.shard = id;
    one.report = h->recover();
    one.resume_time = h->resume_time();
    report.shards.push_back(std::move(one));
  }
  recovered_ = true;
  return report;
}

std::uint64_t ShardedService::recover_now() {
  if (config_.recover && !recovered_) recover();
  return last_ack_sequence();
}

void ShardedService::crash_shard(std::uint32_t shard_id) {
  ensure_ready();
  if (config_.data_dir.empty()) {
    throw std::logic_error("ShardedService::crash_shard: requires persistence");
  }
  host(shard_id);  // throws std::out_of_range for an unknown shard
  // A fresh host over the same directories: everything in memory is gone —
  // exactly the loss profile of a killed process. Like a restarted
  // vire_shardd, it is re-registered before it recovers.
  ShardHost& fresh = make_host(shard_id, /*recover=*/true);
  for (const auto& [tag, info] : tags_) {
    if (router_.route(tag, info.zone) == shard_id) fresh.track(tag, info.name, info.zone);
  }
}

persist::RecoveryReport ShardedService::recover_shard(std::uint32_t shard_id) {
  ensure_ready();
  ShardHost& h = host(shard_id);
  if (!h.awaiting_recovery()) {
    throw std::logic_error("ShardedService::recover_shard: shard is not crashed");
  }
  return h.recover();
}

void ShardedService::migrate_tag(sim::TagId tag, const TrackedTag& info,
                                 ShardHost& source, ShardHost& destination,
                                 RebalanceReport& report) {
  const auto readings =
      source.window_readings(tag, last_poll_time_ - config_.middleware.window_s);
  std::optional<engine::TagStateSnapshot> state;
  if (source.awaiting_recovery()) {
    source.untrack(tag);  // crashed: its tracker state is gone
  } else {
    state = source.export_tag_state(tag);
  }
  if (!state.has_value()) {
    engine::TagStateSnapshot fresh;
    fresh.name = info.name;
    state = fresh;
  }
  // The normal update path: readings re-enter through ingest (journaled
  // into the destination's WAL), then the exported per-tag state lands.
  destination.ingest(readings);
  destination.import_tag_state(tag, info.zone, *state);
  report.moved_tags += 1;
  report.replayed_readings += readings.size();
  rebalance_moved_tags_->inc();
  rebalance_replayed_->inc(readings.size());
}

std::pair<std::uint32_t, RebalanceReport> ShardedService::add_shard() {
  ensure_ready();
  std::map<sim::TagId, std::uint32_t> old_owner;
  for (const auto& [tag, info] : tags_) {
    old_owner[tag] = router_.route(tag, info.zone);
  }
  ShardHost* donor = nullptr;
  for (auto& [id, h] : hosts_) {
    if (!h->awaiting_recovery()) {
      donor = h.get();
      break;
    }
  }
  const std::uint32_t id = next_shard_id_++;
  router_.add_shard(id);
  ShardHost& destination = make_host(id, /*recover=*/false);
  if (donor != nullptr) {
    const auto [engine_seed, middleware_seed] = donor->seed_export();
    destination.seed_import(engine_seed, middleware_seed);
  }

  RebalanceReport report;
  report.shard = id;
  std::set<std::uint32_t> touched;
  for (const auto& [tag, info] : tags_) {
    const std::uint32_t now_owner = router_.route(tag, info.zone);
    if (now_owner == old_owner.at(tag)) continue;
    migrate_tag(tag, info, host(old_owner.at(tag)), host(now_owner), report);
    touched.insert(old_owner.at(tag));
    touched.insert(now_owner);
  }
  touched.insert(id);  // the seeded reference state must survive a crash too
  for (const auto t : touched) host(t).checkpoint(last_poll_time_);
  return {id, report};
}

RebalanceReport ShardedService::remove_shard(std::uint32_t shard_id) {
  ensure_ready();
  if (hosts_.count(shard_id) == 0) {
    throw std::invalid_argument("ShardedService::remove_shard: unknown shard");
  }
  if (hosts_.size() <= 1) {
    throw std::logic_error("ShardedService::remove_shard: last shard");
  }
  std::vector<sim::TagId> moved;
  for (const auto& [tag, info] : tags_) {
    if (router_.route(tag, info.zone) == shard_id) moved.push_back(tag);
  }
  router_.remove_shard(shard_id);

  ShardHost& source = host(shard_id);
  RebalanceReport report;
  report.shard = shard_id;
  std::set<std::uint32_t> touched;
  for (const auto tag : moved) {
    const TrackedTag& info = tags_.at(tag);
    const std::uint32_t dest = router_.route(tag, info.zone);
    migrate_tag(tag, info, source, host(dest), report);
    touched.insert(dest);
  }
  for (const auto t : touched) host(t).checkpoint(last_poll_time_);
  hosts_.erase(shard_id);  // its data dir stays on disk
  shards_gauge_->set(static_cast<double>(hosts_.size()));
  return report;
}

std::vector<std::uint32_t> ShardedService::shard_ids() const {
  std::vector<std::uint32_t> ids;
  ids.reserve(hosts_.size());
  for (const auto& [id, h] : hosts_) ids.push_back(id);
  return ids;
}

std::uint32_t ShardedService::owner_of(sim::TagId tag) const {
  std::optional<std::uint32_t> zone;
  if (const auto it = tags_.find(tag); it != tags_.end()) zone = it->second.zone;
  return router_.route(tag, zone);
}

std::vector<obs::MetricSnapshot> ShardedService::merged_snapshots() const {
  auto snaps = metrics_.snapshot();
  for (const auto& [id, h] : hosts_) {
    const std::string label = "shard=\"" + std::to_string(id) + "\"";
    for (auto& snap : h->metrics().snapshot()) {
      snap.labels = snap.labels.empty() ? label : snap.labels + "," + label;
      snaps.push_back(std::move(snap));
    }
  }
  return snaps;
}

std::string ShardedService::merged_prometheus() const {
  return obs::to_prometheus(merged_snapshots());
}

std::string ShardedService::merged_json() const {
  return obs::to_json(merged_snapshots());
}

}  // namespace vire::service
