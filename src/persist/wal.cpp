#include "persist/wal.h"

#include <stdexcept>
#include <string>

#include "persist/binary_io.h"

namespace vire::persist {

namespace {

FramedLogFormat wal_format() {
  FramedLogFormat format;
  format.magic[0] = 'V';
  format.magic[1] = 'W';
  format.magic[2] = 'A';
  format.magic[3] = 'L';
  format.version = kWalVersion;
  format.file_prefix = "wal";
  return format;
}

bool decode_payload(std::uint8_t type, std::string_view payload, WalFrame& frame) {
  ByteReader r(payload);
  frame.type = static_cast<FrameType>(type);
  switch (frame.type) {
    case FrameType::kReading: {
      const auto time = r.f64();
      const auto tag = r.u32();
      const auto reader = r.u16();
      const auto rssi = r.f64();
      if (!r.exhausted() || !time || !tag || !reader || !rssi) return false;
      frame.reading = {*time, *tag, *reader, *rssi};
      return true;
    }
    case FrameType::kEvict:
    case FrameType::kUpdate: {
      const auto now = r.f64();
      if (!r.exhausted() || !now) return false;
      frame.time = *now;
      return true;
    }
    case FrameType::kAck: {
      const auto ack = r.u64();
      if (!r.exhausted() || !ack) return false;
      frame.ack_sequence = *ack;
      return true;
    }
  }
  return false;
}

FramedLogConfig log_config(const WalConfig& config) {
  if (config.dir.empty()) {
    throw std::invalid_argument("WalWriter: dir must be set");
  }
  if (config.segment_max_frames == 0) {
    throw std::invalid_argument("WalWriter: segment_max_frames must be >= 1");
  }
  FramedLogConfig log;
  log.dir = config.dir;
  log.format = wal_format();
  log.segment_max_records = config.segment_max_frames;
  log.fsync = config.fsync;
  log.fsync_every_n = config.fsync_every_n;
  log.fsync_interval_s = config.fsync_interval_s;
  log.fault_hook = config.fault_hook;
  // An undecodable payload ends the log exactly like a torn frame, so the
  // writer truncates at the same frame read_wal stops at.
  log.validate = [](std::uint8_t type, std::string_view payload) {
    WalFrame frame;
    return decode_payload(type, payload, frame);
  };
  return log;
}

}  // namespace

WalReadResult read_wal(const std::filesystem::path& dir,
                       std::uint64_t from_sequence) {
  WalReadResult result;
  const FramedLogScan scan = scan_framed_log(
      dir, wal_format(),
      [&](std::uint64_t sequence, std::uint8_t type, std::string_view payload) {
        WalFrame frame;
        if (!decode_payload(type, payload, frame)) return false;
        if (sequence >= from_sequence) {
          frame.sequence = sequence;
          result.frames.push_back(frame);
        }
        return true;
      });
  result.corrupt_frames = scan.corrupt_records;
  result.next_sequence = scan.next_sequence;
  return result;
}

WalWriter::WalWriter(WalConfig config)
    : config_(std::move(config)), log_(log_config(config_)) {}

WalWriter::~WalWriter() = default;

void WalWriter::attach_metrics(obs::MetricsRegistry& registry) {
  appended_metric_ =
      &registry.counter("vire_persist_wal_appended_total", {},
                        "Frames appended to the write-ahead journal");
  obs::Counter& corrupt = registry.counter(
      "vire_persist_wal_corrupt_total", {},
      "Torn/corrupt WAL frames dropped (truncated at open or skipped at read)");
  appended_metric_->inc(log_.appended_count());
  corrupt.inc(log_.truncated_records());
}

void WalWriter::append(FrameType type, std::string_view payload) {
  log_.append(static_cast<std::uint8_t>(type), payload);
  if (appended_metric_ != nullptr) appended_metric_->inc();
}

void WalWriter::on_accepted(const sim::RssiReading& reading) {
  ByteWriter w;
  w.f64(reading.time);
  w.u32(reading.tag);
  w.u16(reading.reader);
  w.f64(reading.rssi_dbm);
  append(FrameType::kReading, w.bytes());
}

void WalWriter::on_evict(sim::SimTime now) {
  ByteWriter w;
  w.f64(now);
  append(FrameType::kEvict, w.bytes());
}

void WalWriter::append_update_marker(sim::SimTime now) {
  ByteWriter w;
  w.f64(now);
  append(FrameType::kUpdate, w.bytes());
}

void WalWriter::append_ack_marker(std::uint64_t ack_sequence) {
  ByteWriter w;
  w.u64(ack_sequence);
  append(FrameType::kAck, w.bytes());
}

}  // namespace vire::persist
