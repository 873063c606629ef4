#include "persist/framed_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "persist/binary_io.h"
#include "support/log.h"

namespace vire::persist {

namespace {

constexpr std::size_t kHeaderSize = 4 + 4 + 8;      // magic + version + start_seq
constexpr std::size_t kRecordOverhead = 4 + 1 + 4;  // len + type + crc

double monotonic_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::filesystem::path segment_path(const std::filesystem::path& dir,
                                   const FramedLogFormat& format,
                                   std::uint64_t start_sequence) {
  char digits[24];
  std::snprintf(digits, sizeof(digits), "%012llu",
                static_cast<unsigned long long>(start_sequence));
  return dir / (format.file_prefix + "-" + digits + ".log");
}

/// Parses `<prefix>-<digits>.log`; nullopt for anything else.
std::optional<std::uint64_t> segment_start(const FramedLogFormat& format,
                                           const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  const std::string prefix = format.file_prefix + "-";
  if (name.size() < prefix.size() + 5 || name.rfind(prefix, 0) != 0 ||
      name.substr(name.size() - 4) != ".log") {
    return std::nullopt;
  }
  const std::string digits =
      name.substr(prefix.size(), name.size() - prefix.size() - 4);
  if (digits.empty() ||
      digits.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return std::stoull(digits);
}

std::vector<std::pair<std::uint64_t, std::filesystem::path>> list_segments(
    const std::filesystem::path& dir, const FramedLogFormat& format) {
  std::vector<std::pair<std::uint64_t, std::filesystem::path>> segments;
  if (!std::filesystem::exists(dir)) return segments;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    if (const auto start = segment_start(format, entry.path())) {
      segments.emplace_back(*start, entry.path());
    }
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

std::string encode_record(std::uint8_t type, std::string_view payload) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.u8(type);
  w.raw(payload);
  // The CRC covers the type byte and the payload, which sit contiguously
  // after the length prefix.
  w.u32(crc32(std::string_view(w.bytes()).substr(4)));
  return w.take();
}

struct SegmentScan {
  std::uint64_t start_sequence = 0;
  std::uint64_t records = 0;        ///< valid records
  std::size_t valid_bytes = 0;      ///< header + valid records
  bool corrupt_tail = false;        ///< bytes after the valid prefix
  bool gap = false;                 ///< header start != expected; nothing visited
};

/// Scans one segment file: validates the header, then walks records until
/// the first CRC failure, visitor veto or EOF. A segment that does not start
/// at `expected_start` (0 = any) is reported as a gap before any record is
/// visited. Returns nullopt when the header itself is unreadable (the whole
/// segment is then treated as corrupt).
std::optional<SegmentScan> scan_segment(const std::filesystem::path& path,
                                        const FramedLogFormat& format,
                                        std::uint64_t expected_start,
                                        const RecordVisitor& visit) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string data = buf.str();

  if (data.size() < kHeaderSize ||
      std::memcmp(data.data(), format.magic, 4) != 0) {
    return std::nullopt;
  }
  ByteReader header(std::string_view(data).substr(4, kHeaderSize - 4));
  const auto version = header.u32();
  const auto start_sequence = header.u64();
  if (!version || *version != format.version || !start_sequence) {
    return std::nullopt;
  }

  SegmentScan scan;
  scan.start_sequence = *start_sequence;
  scan.valid_bytes = kHeaderSize;
  if (expected_start != 0 && scan.start_sequence != expected_start) {
    scan.gap = true;
    return scan;
  }
  std::size_t pos = kHeaderSize;
  const std::string_view view(data);
  while (pos < data.size()) {
    if (data.size() - pos < kRecordOverhead) {
      scan.corrupt_tail = true;
      break;
    }
    ByteReader len_reader(view.substr(pos, 4));
    const std::uint32_t payload_len = *len_reader.u32();
    if (data.size() - pos < kRecordOverhead + payload_len) {
      scan.corrupt_tail = true;
      break;
    }
    const std::string_view checked = view.substr(pos + 4, 1 + payload_len);
    ByteReader crc_reader(view.substr(pos + 4 + 1 + payload_len, 4));
    if (crc32(checked) != *crc_reader.u32()) {
      scan.corrupt_tail = true;
      break;
    }
    const auto type = static_cast<std::uint8_t>(checked[0]);
    if (visit && !visit(scan.start_sequence + scan.records, type, checked.substr(1))) {
      scan.corrupt_tail = true;
      break;
    }
    ++scan.records;
    pos += kRecordOverhead + payload_len;
    scan.valid_bytes = pos;
  }
  return scan;
}

}  // namespace

FramedLogScan scan_framed_log(const std::filesystem::path& dir,
                              const FramedLogFormat& format,
                              const RecordVisitor& visit) {
  FramedLogScan result;
  for (const auto& [start, path] : list_segments(dir, format)) {
    // Sequence continuity: a gap between segments (rotation lost to a crash
    // before any record was appended is fine; missing records are not)
    // ends the log.
    const auto scan = scan_segment(path, format, result.next_sequence, visit);
    if (!scan) {
      // Unreadable header: the whole segment is one corrupt unit.
      ++result.corrupt_records;
      break;
    }
    if (scan->gap) break;
    result.next_sequence = scan->start_sequence + scan->records;
    if (scan->corrupt_tail) {
      ++result.corrupt_records;
      break;
    }
  }
  return result;
}

FramedLogReadResult read_framed_log(
    const std::filesystem::path& dir, const FramedLogFormat& format,
    std::uint64_t from_sequence,
    const std::function<bool(std::uint8_t, std::string_view)>& validate) {
  FramedLogReadResult result;
  const FramedLogScan scan = scan_framed_log(
      dir, format,
      [&](std::uint64_t sequence, std::uint8_t type, std::string_view payload) {
        if (validate && !validate(type, payload)) return false;
        if (sequence >= from_sequence) {
          result.records.push_back({sequence, type, std::string(payload)});
        }
        return true;
      });
  result.corrupt_records = scan.corrupt_records;
  result.next_sequence = scan.next_sequence;
  return result;
}

FramedLog::FramedLog(FramedLogConfig config) : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw std::invalid_argument("FramedLog: dir must be set");
  }
  if (config_.segment_max_records == 0) {
    throw std::invalid_argument("FramedLog: segment_max_records must be >= 1");
  }
  std::filesystem::create_directories(config_.dir);

  // Resume after the valid prefix of any existing log: truncate the first
  // torn segment at its last valid record and drop every later segment, so
  // appended records extend a log read_framed_log() fully accepts.
  const auto segments = list_segments(config_.dir, config_.format);
  std::uint64_t resume_start = 1;  // sequences are 1-based; 0 = "no records"
  std::uint64_t resume_records = 0;
  std::filesystem::path resume_path;
  bool broken = false;
  for (const auto& [start, path] : segments) {
    if (broken) {
      std::filesystem::remove(path);
      continue;
    }
    const auto scan = scan_segment(
        path, config_.format,
        resume_path.empty() ? 0 : resume_start + resume_records,
        [this](std::uint64_t, std::uint8_t type, std::string_view payload) {
          return !config_.validate || config_.validate(type, payload);
        });
    if (!scan) {
      // Unreadable header: drop this and every later segment.
      ++truncated_;
      std::filesystem::remove(path);
      broken = true;
      continue;
    }
    if (scan->gap) {
      // Sequence gap: records are missing, the log ends at the previous segment.
      std::filesystem::remove(path);
      broken = true;
      continue;
    }
    resume_start = scan->start_sequence;
    resume_records = scan->records;
    resume_path = path;
    if (scan->corrupt_tail) {
      ++truncated_;
      std::filesystem::resize_file(path, scan->valid_bytes);
      broken = true;
    }
  }

  if (!resume_path.empty()) {
    sequence_ = resume_start + resume_records;
    if (resume_records < config_.segment_max_records) {
      // Keep appending to the (now clean) last segment.
      fd_ = ::open(resume_path.c_str(), O_WRONLY | O_APPEND);
      if (fd_ < 0) {
        throw std::runtime_error("FramedLog: open(" + resume_path.string() +
                                 "): " + std::strerror(errno));
      }
      segment_records_ = resume_records;
    } else {
      open_segment(sequence_);
    }
  } else {
    sequence_ = 1;
    open_segment(sequence_);
  }
  last_sync_monotonic_s_ = monotonic_seconds();
}

FramedLog::~FramedLog() {
  if (fd_ >= 0 && config_.fsync != FsyncPolicy::kOff && unsynced_ > 0) {
    ::fsync(fd_);
  }
  close_segment();
}

void FramedLog::open_segment(std::uint64_t start_sequence) {
  close_segment();
  const std::filesystem::path path =
      segment_path(config_.dir, config_.format, start_sequence);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("FramedLog: open(" + path.string() +
                             "): " + std::strerror(errno));
  }
  ByteWriter header;
  header.raw(std::string_view(config_.format.magic, 4));
  header.u32(config_.format.version);
  header.u64(start_sequence);
  physical_write(header.bytes());
  segment_records_ = 0;
}

void FramedLog::close_segment() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void FramedLog::physical_write(std::string_view bytes) {
  std::string_view buffer = bytes;
  std::string corrupted;  // only a kCorruptByte fault copies the bytes
  std::size_t write_len = buffer.size();
  bool fail_after_write = false;
  if (config_.fault_hook != nullptr) {
    if (const auto fault = config_.fault_hook->on_write(buffer.size())) {
      switch (fault->kind) {
        case support::IoFaultKind::kShortWrite:
          write_len = buffer.empty() ? 0 : fault->offset % buffer.size();
          fail_after_write = true;
          break;
        case support::IoFaultKind::kEnospc:
          throw std::runtime_error("FramedLog: write: No space left on device "
                                   "(fault injected)");
        case support::IoFaultKind::kCorruptByte:
          // Silent media corruption: the append "succeeds"; only the CRC at
          // read time reveals it.
          if (!buffer.empty()) {
            corrupted.assign(buffer);
            corrupted[fault->offset % corrupted.size()] ^= 0x40;
            buffer = corrupted;
          }
          break;
      }
    }
  }
  std::size_t written = 0;
  while (written < write_len) {
    const ssize_t n = ::write(fd_, buffer.data() + written, write_len - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("FramedLog: write: ") +
                               std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
  if (fail_after_write) {
    throw std::runtime_error("FramedLog: short write (fault injected)");
  }
}

std::uint64_t FramedLog::append(std::uint8_t type, std::string_view payload) {
  if (segment_records_ >= config_.segment_max_records) {
    if (config_.fsync != FsyncPolicy::kOff && unsynced_ > 0) {
      ::fsync(fd_);
      unsynced_ = 0;
    }
    open_segment(sequence_);
  }
  physical_write(encode_record(type, payload));
  const std::uint64_t assigned = sequence_;
  ++sequence_;
  ++segment_records_;
  ++appended_;
  ++unsynced_;
  maybe_fsync();
  return assigned;
}

void FramedLog::maybe_fsync() {
  bool due = false;
  switch (config_.fsync) {
    case FsyncPolicy::kOff:
      return;
    case FsyncPolicy::kEveryN:
      due = unsynced_ >= config_.fsync_every_n;
      break;
    case FsyncPolicy::kInterval:
      due = monotonic_seconds() - last_sync_monotonic_s_ >= config_.fsync_interval_s;
      break;
  }
  if (due) sync();
}

void FramedLog::sync() {
  if (fd_ < 0 || unsynced_ == 0) return;
  const obs::TraceSpan span(tracer_, fsync_span_name_.c_str());
  if (::fsync(fd_) != 0) {
    support::log_warn("FramedLog: fsync failed: %s", std::strerror(errno));
  }
  unsynced_ = 0;
  last_sync_monotonic_s_ = monotonic_seconds();
}

std::size_t FramedLog::prune(std::uint64_t up_to_sequence) {
  std::size_t removed = 0;
  const auto segments = list_segments(config_.dir, config_.format);
  // The next segment's start is this segment's end, so a segment goes only
  // when it lies wholly before the checkpoint. The open segment is the last
  // in sorted order and is never a candidate.
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first <= up_to_sequence) {
      std::filesystem::remove(segments[i].second);
      ++removed;
    }
  }
  return removed;
}

}  // namespace vire::persist
