#pragma once
// ShardHost: exactly one localization shard — engine, middleware, WAL,
// checkpoints and crash recovery — behind the Frontend interface
// (docs/service.md). vire_shardd serves one over the wire; ShardedService
// routes across several in one process.
//
// A host runs on ONE thread: every call, including the engine update inside
// poll(), executes on the caller's thread. There is no queue and no worker;
// callers that drive several hosts at once (ShardedService::poll) give each
// host to exactly one thread at a time. Metrics export is the exception —
// registries are internally synchronized.
//
// Persistence (config.data_dir non-empty) lives under
// <data_dir>/shard-<id>/{wal,checkpoints}: every accepted reading, evict,
// update boundary and ingest-batch ack is journaled to the WAL, and the host
// checkpoints every config.checkpoint_every_updates polls.
//
// Crash recovery: construct with config.recover = true, register reference
// ids and tracked tags (registration is not journaled), then call recover().
// The host restores its newest checkpoint and replays the WAL suffix through
// the normal pipeline. It then carries a resume gate: re-fed readings at or
// before the resume time are dropped (the host already holds them), and a
// poll at or before it is answered from the replayed fixes instead of
// re-running the update.

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "engine/localization_engine.h"
#include "env/deployment.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/recovery.h"
#include "persist/wal.h"
#include "service/frontend.h"
#include "service/shard_router.h"
#include "sim/middleware.h"
#include "sim/types.h"

namespace vire::service {

/// Shared by ShardHost and ShardedService; `shards` and `router` are read by
/// ShardedService only.
struct ServiceConfig {
  int shards = 1;
  engine::EngineConfig engine;
  sim::MiddlewareConfig middleware;
  ShardRouterConfig router;
  /// Persistence root (shard-<id>/{wal,checkpoints} under it); empty
  /// disables persistence.
  std::filesystem::path data_dir;
  /// Checkpoint every N update boundaries per shard (0 = never; the WAL
  /// alone still recovers, just with a longer replay).
  int checkpoint_every_updates = 8;
  persist::FsyncPolicy fsync = persist::FsyncPolicy::kEveryN;
  /// Construct for crash recovery: WAL writers stay detached until
  /// recover() has replayed each shard (requires a non-empty data_dir).
  bool recover = false;
  /// Test seam for fleet clock alignment: shifts every shard engine's trace
  /// clock by this constant (obs::Tracer::set_clock_skew_us), simulating a
  /// host whose monotonic clock disagrees with the supervisor's.
  double obs_clock_skew_us = 0.0;
};

/// The host id vire_shardd serves. Each shard process owns exactly one
/// shard, so its state lives under <data-dir>/shard-0 whatever id the
/// supervisor knows it by.
inline constexpr std::uint32_t kProcessHostId = 0;

/// Readings of `tag` journaled in the WAL under `wal_dir` with
/// time > `horizon`, in journal order. With horizon = last poll time minus
/// the middleware window this is exactly the tag's live window (evict_stale
/// keeps a strict half-open window), which a tag migration re-feeds into the
/// tag's new owner.
[[nodiscard]] std::vector<sim::RssiReading> wal_window_readings(
    const std::filesystem::path& wal_dir, sim::TagId tag, sim::SimTime horizon);

class ShardHost final : public Frontend {
 public:
  /// `front_metrics` receives the host's vire_service_* counters (gated
  /// readings, substituted polls, recoveries, checkpoint failures); nullptr
  /// keeps them in the host's own engine registry.
  ShardHost(const env::Deployment& deployment, const ServiceConfig& config,
            std::uint32_t id, obs::MetricsRegistry* front_metrics = nullptr);
  ~ShardHost() override;

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  [[nodiscard]] static std::filesystem::path dir(
      const std::filesystem::path& data_dir, std::uint32_t id);
  [[nodiscard]] static std::filesystem::path wal_dir(
      const std::filesystem::path& data_dir, std::uint32_t id) {
    return dir(data_dir, id) / "wal";
  }
  [[nodiscard]] static std::filesystem::path checkpoint_dir(
      const std::filesystem::path& data_dir, std::uint32_t id) {
    return dir(data_dir, id) / "checkpoints";
  }

  // -- Frontend ----------------------------------------------------------
  void set_reference_ids(std::vector<sim::TagId> ids) override;
  /// Registers a tag; `zone` is a routing concern and ignored here.
  void track(sim::TagId tag, std::string name,
             std::optional<std::uint32_t> zone) override;
  void ingest(const std::vector<sim::RssiReading>& readings) override;
  /// Drops a batch at or below the ack cursor whole (idempotent redelivery),
  /// else ingests it and journals its ack marker behind its readings.
  void ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                        std::uint64_t sequence) override;
  void ingest_sequenced(const std::vector<sim::RssiReading>& readings,
                        std::uint64_t sequence,
                        const obs::TraceContext& ctx) override;
  /// evict_stale + update at `now` (update marker journaled first), or the
  /// replayed fixes while the resume gate covers `now`.
  std::vector<engine::Fix> poll(sim::SimTime now) override;
  [[nodiscard]] std::optional<engine::Fix> latest_fix(
      sim::TagId tag) const override;
  std::optional<std::string> explain_json(sim::TagId tag) override;
  std::string snapshot_prometheus() const override;
  std::string snapshot_json() const override;
  /// Idempotent: recovers when constructed for recovery and not yet
  /// recovered; returns the ack cursor.
  std::uint64_t recover_now() override;
  HeartbeatInfo heartbeat() override;
  obs::TraceDump trace_dump(std::size_t max_events) override;
  /// {"shards":[provenance_entry_json()]}.
  std::optional<std::string> provenance_json() override;
  /// Exports and untracks one tag (throws std::invalid_argument when the
  /// tag is not tracked here).
  std::optional<engine::TagStateSnapshot> export_tag_state(
      sim::TagId tag) override;
  void import_tag_state(sim::TagId tag, std::optional<std::uint32_t> zone,
                        const engine::TagStateSnapshot& state) override;
  /// Engine + middleware snapshot stripped to reference-only state. Every
  /// shard carries identical reference/health/grid state (reference readings
  /// are broadcast), so any host seeds a newcomer.
  std::pair<engine::EngineStateSnapshot, sim::Middleware::Snapshot> seed_export()
      override;
  void seed_import(const engine::EngineStateSnapshot& engine_seed,
                   const sim::Middleware::Snapshot& middleware_seed) override;
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept override {
    return engine_->metrics();
  }

  // -- host operations ---------------------------------------------------
  void ingest(const sim::RssiReading& reading);
  void untrack(sim::TagId tag);
  /// Journals an ingest-batch ack marker and advances the ack cursor.
  void ack(std::uint64_t sequence);
  /// Records the sender's trace context as a capture-only instant.
  void note_batch_context(const obs::TraceContext& ctx, std::uint64_t sequence);
  /// Restores the newest checkpoint, replays the WAL suffix and arms the
  /// resume gate (construct with config.recover first).
  persist::RecoveryReport recover();
  /// Writes a checkpoint stamped `now` (no-op without persistence).
  void checkpoint(sim::SimTime now);
  /// The tag's window readings newer than `horizon`: from the WAL when
  /// persistent, else from the middleware.
  [[nodiscard]] std::vector<sim::RssiReading> window_readings(
      sim::TagId tag, sim::SimTime horizon) const;
  /// {"shard":<id>,"provenance":<flight recorder>}.
  [[nodiscard]] std::string provenance_entry_json() const;
  [[nodiscard]] std::optional<obs::FixRecord> explain(sim::TagId tag) const;

  [[nodiscard]] bool awaiting_recovery() const noexcept { return awaiting_recovery_; }
  [[nodiscard]] std::uint64_t last_ack_sequence() const noexcept { return acked_; }
  [[nodiscard]] sim::SimTime resume_time() const noexcept { return resume_time_; }

 private:
  [[nodiscard]] bool persistent() const noexcept { return !config_.data_dir.empty(); }
  void ensure_ready() const;
  void attach_wal();

  ServiceConfig config_;
  std::uint32_t id_ = 0;
  /// Owns the host's metrics registry; declared first so every component
  /// that registered metrics is destroyed before it.
  std::unique_ptr<engine::LocalizationEngine> engine_;
  std::unique_ptr<persist::WalWriter> wal_;
  std::unique_ptr<persist::CheckpointStore> checkpoints_;
  std::unique_ptr<sim::Middleware> middleware_;

  std::vector<sim::TagId> reference_ids_;
  std::unordered_set<sim::TagId> reference_set_;
  /// Tag registry (name per tag), re-applied to the engine before replay.
  std::map<sim::TagId, std::string> tags_;
  std::map<sim::TagId, engine::Fix> latest_;

  bool awaiting_recovery_ = false;
  int updates_since_checkpoint_ = 0;
  std::uint64_t acked_ = 0;  ///< highest ack marker journaled
  /// Resume gate (see file comment); -inf when the host never recovered.
  sim::SimTime resume_time_ = -std::numeric_limits<double>::infinity();
  bool gated_ = false;
  /// Replayed update fixes keyed by the update time's bit pattern.
  std::map<std::uint64_t, std::vector<engine::Fix>> replayed_;

  obs::Counter* readings_gated_ = nullptr;
  obs::Counter* polls_substituted_ = nullptr;
  obs::Counter* recoveries_total_ = nullptr;
  obs::Counter* checkpoint_failures_ = nullptr;
};

}  // namespace vire::service
