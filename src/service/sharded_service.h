#pragma once
// ShardedService: N ShardHosts behind one ingest + query front door
// (docs/service.md) — in-process sharding for tests, benches and demos. In
// a deployment each shard is a vire_shardd process serving one ShardHost,
// and vire_supervisord routes across them.
//
// Architecture (all on the caller's thread except the per-host updates):
//   ingest(reading) -> ShardRouter -> owning ShardHost
//     (reference-tag readings broadcast to every host)
//   poll(now) -> every host's evict+update at once, one task per host,
//     joined before the tag-order merge
//   latest_fix / explain / merged metrics -> query API
//
// Determinism contract (the core acceptance bar, locked by
// tests/service/shard_equivalence_test.cpp): a sharded run's poll() output
// is fix-for-fix BIT-IDENTICAL to a single-engine run over the same reading
// stream and poll schedule, at any shard count and any parallel_workers —
// including after crash+recovery and across live rebalances. Mechanism:
//   * reference-tag readings are broadcast to every shard, so every shard
//     evolves the same reader-health state and the same virtual grid;
//   * tracked-tag readings are partitioned by the router, and per-tag
//     locate() depends only on the grid plus that tag's own window;
//   * each host ingests in stream order on the calling thread, so its engine
//     sees ingest/evict/update in exactly the stream order;
//   * poll() merges the per-shard fix vectors in tag order — the same order
//     a single engine (which iterates its tag map) would emit.
//
// Threading model: all public methods must be called from ONE thread (the
// UDS server's event loop when served). Metrics export is the
// exception — registries are internally synchronized, so
// merged_prometheus()/merged_json() may be called from anywhere.
//
// Crash recovery: construct with ServiceConfig::recover = true over the
// same data_dir and call recover() before use; each host recovers from its
// own checkpoint + WAL suffix and carries its own resume gate (see
// service/shard_host.h). Tag registration is not journaled — register tags
// before streaming; the service re-applies its registry to recovered hosts
// before replay. Rebalancing and crash drills move state with the same
// ShardHost export/import/seed calls the supervisor makes over the wire.

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "env/deployment.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "persist/recovery.h"
#include "service/frontend.h"
#include "service/shard_host.h"
#include "service/shard_router.h"
#include "sim/types.h"

namespace vire::service {

/// Quadrant zone of a position within the deployment's sensing area (2x2
/// zones, row-major: 0 = lower-left .. 3 = upper-right). The default zone id
/// source for zone-affinity pins; callers with richer floor plans can supply
/// their own ids — the router only matches them.
[[nodiscard]] std::uint32_t zone_for_position(const env::Deployment& deployment,
                                              geom::Vec2 position) noexcept;

struct RebalanceReport {
  /// The shard added or removed.
  std::uint32_t shard = 0;
  std::size_t moved_tags = 0;
  /// Readings replayed from source WALs (or middleware windows when
  /// persistence is off) into the moved tags' new owners.
  std::uint64_t replayed_readings = 0;
};

struct ServiceRecoveryReport {
  struct ShardRecovery {
    std::uint32_t shard = 0;
    persist::RecoveryReport report;
    /// The shard's resume gate: polls at or before this time are served
    /// from replayed fixes; later polls run live.
    sim::SimTime resume_time = 0.0;
  };
  std::vector<ShardRecovery> shards;
};

class ShardedService : public Frontend {
 public:
  ShardedService(const env::Deployment& deployment, ServiceConfig config);
  ~ShardedService() override;

  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Reference tag ids (broadcast set), forwarded to every shard.
  void set_reference_ids(std::vector<sim::TagId> ids) override;

  /// Registers a tag for localization. `zone` (see zone_for_position) makes
  /// the tag eligible for zone-affinity pins. Register tags and pins before
  /// streaming readings — registration is not journaled.
  void track(sim::TagId tag, std::string name = {},
             std::optional<std::uint32_t> zone = std::nullopt) override;
  void untrack(sim::TagId tag);

  /// Affinity pins (ShardRouter precedence: tag pin > zone pin > ring).
  void pin_zone(std::uint32_t zone, std::uint32_t shard);
  void pin_tag(sim::TagId tag, std::uint32_t shard);

  /// Routes one reading (or a batch) to its shard — reference-tag readings
  /// broadcast to every shard. Readings to a crashed shard are counted as
  /// lost; readings at or before a recovered shard's resume time are dropped
  /// by its resume gate (the shard already holds them).
  void ingest(const sim::RssiReading& reading);
  void ingest(const std::vector<sim::RssiReading>& readings) override;
  /// Sequenced ingest (kIngestSeq): ingests the batch, then journals a
  /// FrameType::kAck marker behind its readings on every live shard's WAL —
  /// so heartbeat()'s last_ack_sequence reports exactly the batches whose
  /// readings are durably journaled. A batch at or below the current ack
  /// cursor is dropped whole (idempotent redelivery after a sender retry).
  void ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                        std::uint64_t sequence) override;
  /// Sequenced ingest with an adopted trace context (wire v3): records a
  /// capture-only "wire.ingest_batch" instant carrying the sender's trace id
  /// on each shard's tracer, then ingests normally. Localization output is
  /// bit-identical with or without a context.
  void ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                        std::uint64_t sequence,
                        const obs::TraceContext& ctx) override;

  /// Runs evict_stale + update on every shard at `now` (concurrently, one
  /// task per shard) and returns the merged fixes in tag order —
  /// bit-identical to a single engine polled at the same times over the
  /// same stream.
  std::vector<engine::Fix> poll(sim::SimTime now) override;

  /// Latest fix of a tag from the most recent poll that produced one.
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const override;

  /// Flight-recorder provenance of the tag's most recent fix, fetched from
  /// the owning shard (nullopt when unknown/disabled/crashed).
  [[nodiscard]] std::optional<obs::FixRecord> explain(sim::TagId tag);
  std::optional<std::string> explain_json(sim::TagId tag) override;

  /// Recovers every shard after a crash (ServiceConfig::recover must be
  /// set). Call once, before any ingest/poll.
  ServiceRecoveryReport recover();
  /// Idempotent wire-facing recovery (kRecover): runs recover() when this
  /// service was constructed for recovery and has not recovered yet, then
  /// returns last_ack_sequence(). Safe to call on an already-live service.
  std::uint64_t recover_now() override;

  /// Durability cursor: highest kAck marker durably journaled by EVERY live
  /// shard (0 when none). Batches at or below it survive any crash.
  [[nodiscard]] std::uint64_t last_ack_sequence() const;
  /// Liveness + durability cursor served to kHeartbeat, plus the first
  /// shard engine's trace clock (for supervisor clock alignment) and the
  /// summed anomaly auto-dump count.
  HeartbeatInfo heartbeat() override;

  /// Span ring of the first live shard's engine tracer (kTraceDump). Each
  /// engine tracer has its own epoch, so mixing shards would interleave
  /// unrelated clocks.
  obs::TraceDump trace_dump(std::size_t max_events) override;

  /// Flight-recorder provenance of every shard, merged as
  /// {"shards":[{"shard":N,"provenance":{...}},...]} (kProvenanceDump).
  std::optional<std::string> provenance_json() override;

  /// Simulates a hard shard failure: in-memory state is discarded (exactly
  /// what a SIGKILL loses); the shard's WAL/checkpoints stay on disk and the
  /// shard stops contributing until recover_shard().
  void crash_shard(std::uint32_t shard);
  /// Rebuilds a crashed shard from its own disk state and re-arms it.
  persist::RecoveryReport recover_shard(std::uint32_t shard);

  /// Live rebalancing. add_shard() brings up a new shard (seeded with the
  /// fleet's reference/health state), moves every tag the ring now assigns
  /// to it, and replays each moved tag's WAL suffix through the new owner's
  /// normal ingest path. remove_shard() migrates the doomed shard's tags
  /// out, then retires it (its data dir is left on disk). Post-rebalance
  /// fixes stay bit-identical to the single-engine run.
  std::pair<std::uint32_t, RebalanceReport> add_shard();
  RebalanceReport remove_shard(std::uint32_t shard);

  [[nodiscard]] std::size_t shard_count() const noexcept { return hosts_.size(); }
  [[nodiscard]] std::vector<std::uint32_t> shard_ids() const;
  /// Current owner of a tag (tracked tags use their registered zone).
  [[nodiscard]] std::uint32_t owner_of(sim::TagId tag) const;
  [[nodiscard]] const ShardRouter& router() const noexcept { return router_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::size_t tracked_count() const noexcept { return tags_.size(); }

  /// Service-level metrics (routing, polls, rebalances, plus the hosts'
  /// vire_service_* counters). Per-shard engine metrics live in each host's
  /// own registry; merged_* exports concatenate them with a shard="<id>"
  /// label appended to every series.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept override {
    return metrics_;
  }
  [[nodiscard]] std::string merged_prometheus() const;
  [[nodiscard]] std::string merged_json() const;
  std::string snapshot_prometheus() const override { return merged_prometheus(); }
  std::string snapshot_json() const override { return merged_json(); }

 private:
  struct TrackedTag {
    std::string name;
    std::optional<std::uint32_t> zone;
  };

  void ensure_ready() const;
  ShardHost& make_host(std::uint32_t id, bool recover);
  ShardHost& host(std::uint32_t id) { return *hosts_.at(id); }
  void route(ShardHost& host, const sim::RssiReading& reading);
  void migrate_tag(sim::TagId tag, const TrackedTag& info, ShardHost& source,
                   ShardHost& destination, RebalanceReport& report);
  [[nodiscard]] std::vector<obs::MetricSnapshot> merged_snapshots() const;

  env::Deployment deployment_;
  ServiceConfig config_;
  ShardRouter router_;
  std::vector<sim::TagId> reference_ids_;
  std::unordered_set<sim::TagId> reference_set_;
  std::map<sim::TagId, TrackedTag> tags_;
  std::map<sim::TagId, engine::Fix> latest_;
  sim::SimTime last_poll_time_ = 0.0;
  std::uint32_t next_shard_id_ = 0;
  bool recovered_ = false;

  /// Declared before the hosts, which hold counters registered in it.
  obs::MetricsRegistry metrics_;
  obs::Counter* readings_total_ = nullptr;
  obs::Counter* broadcasts_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* readings_lost_ = nullptr;
  obs::Counter* polls_total_ = nullptr;
  obs::Counter* rebalance_moved_tags_ = nullptr;
  obs::Counter* rebalance_replayed_ = nullptr;
  obs::Gauge* shards_gauge_ = nullptr;
  obs::Histogram* poll_seconds_ = nullptr;

  std::map<std::uint32_t, std::unique_ptr<ShardHost>> hosts_;  ///< id order
};

}  // namespace vire::service
