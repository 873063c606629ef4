// Write-ahead journal: append/read round trips, segment rotation with
// sequence continuity, torn-tail tolerance (reader stops, writer truncates
// and resumes), pruning, deterministic disk faults, and a checked-in
// on-disk fixture that pins the byte format across refactors.
//
// The fixture pair under tests/persist/fixtures/ (wal_torn/: three segments
// whose last frame is torn; wal_torn_appended/: the same log after a writer
// reopened it and appended kFixtureAppended more frames) is committed
// bytes. Regenerate only for a deliberate format change (kWalVersion bump):
//   VIRE_REGEN_WAL_FIXTURE=1 ./wal_test --gtest_filter='*Fixture*'

#include "persist/wal.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "fault/disk_fault.h"
#include "obs/metrics.h"

#ifndef VIRE_FIXTURE_DIR
#error "VIRE_FIXTURE_DIR must point at tests/persist/fixtures"
#endif

namespace vire::persist {
namespace {

namespace fs = std::filesystem;

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

void flip_byte_at_end(const fs::path& file, std::streamoff back_offset) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const std::streamoff size = f.tellg();
  ASSERT_GE(size, back_offset);
  const std::streamoff target = size - back_offset;
  f.seekg(target);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(target);
  f.write(&byte, 1);
}

void shrink_by(const fs::path& file, std::uintmax_t bytes) {
  fs::resize_file(file, fs::file_size(file) - bytes);
}

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vire_wal_" + std::string(::testing::UnitTest::GetInstance()
                                          ->current_test_info()
                                          ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  WalConfig config(std::uint64_t segment_max_frames = 8192) const {
    WalConfig c;
    c.dir = dir_;
    c.segment_max_frames = segment_max_frames;
    c.fsync = FsyncPolicy::kOff;  // tests exercise logic, not durability
    return c;
  }

  /// The first segment a fresh writer creates (sequences are 1-based).
  fs::path first_segment() const { return dir_ / "wal-000000000001.log"; }

  /// Appends `n` deterministic reading frames plus one evict + one update.
  static void append_scripted(WalWriter& wal, int n, double base_time) {
    for (int i = 0; i < n; ++i) {
      wal.on_accepted({base_time + 0.25 * i, static_cast<sim::TagId>(100 + i),
                       static_cast<sim::ReaderId>(i % 4), -52.5 - i});
    }
    wal.on_evict(base_time + 10.0);
    wal.append_update_marker(base_time + 10.0);
  }

  fs::path dir_;
};

TEST_F(WalTest, EmptyDirectoryReadsAsEmptyLog) {
  const WalReadResult result = read_wal(dir_);
  EXPECT_TRUE(result.frames.empty());
  EXPECT_EQ(result.corrupt_frames, 0u);
  EXPECT_EQ(result.next_sequence, 0u);
}

TEST_F(WalTest, AppendReadRoundTripIsBitIdentical) {
  {
    WalWriter wal(config());
    EXPECT_EQ(wal.next_sequence(), 1u);
    append_scripted(wal, 3, 100.0);
    EXPECT_EQ(wal.next_sequence(), 6u);  // 3 readings + evict + update
    EXPECT_EQ(wal.appended_count(), 5u);
  }
  const WalReadResult result = read_wal(dir_);
  ASSERT_EQ(result.frames.size(), 5u);
  EXPECT_EQ(result.corrupt_frames, 0u);
  EXPECT_EQ(result.next_sequence, 6u);

  for (std::size_t i = 0; i < 3; ++i) {
    const WalFrame& frame = result.frames[i];
    EXPECT_EQ(frame.type, FrameType::kReading);
    EXPECT_EQ(frame.sequence, i + 1);
    EXPECT_EQ(bits(frame.reading.time),
              bits(100.0 + 0.25 * static_cast<double>(i)));
    EXPECT_EQ(frame.reading.tag, 100u + static_cast<sim::TagId>(i));
    EXPECT_EQ(frame.reading.reader, static_cast<sim::ReaderId>(i % 4));
    EXPECT_EQ(bits(frame.reading.rssi_dbm),
              bits(-52.5 - static_cast<double>(i)));
  }
  EXPECT_EQ(result.frames[3].type, FrameType::kEvict);
  EXPECT_EQ(bits(result.frames[3].time), bits(110.0));
  EXPECT_EQ(result.frames[4].type, FrameType::kUpdate);
  EXPECT_EQ(result.frames[4].sequence, 5u);
}

TEST_F(WalTest, RotationKeepsSequenceContinuity) {
  {
    WalWriter wal(config(/*segment_max_frames=*/4));
    append_scripted(wal, 8, 0.0);  // 10 frames -> 3 segments (4+4+2)
  }
  std::size_t segments = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++segments;
  }
  EXPECT_EQ(segments, 3u);

  const WalReadResult result = read_wal(dir_);
  ASSERT_EQ(result.frames.size(), 10u);
  for (std::size_t i = 0; i < result.frames.size(); ++i) {
    EXPECT_EQ(result.frames[i].sequence, i + 1);
  }
  EXPECT_EQ(result.next_sequence, 11u);
}

TEST_F(WalTest, FromSequenceSkipsTheCheckpointedPrefix) {
  {
    WalWriter wal(config(4));
    append_scripted(wal, 8, 0.0);
  }
  const WalReadResult suffix = read_wal(dir_, /*from_sequence=*/7);
  ASSERT_EQ(suffix.frames.size(), 4u);  // sequences 7..10
  EXPECT_EQ(suffix.frames.front().sequence, 7u);
  EXPECT_EQ(suffix.frames.back().sequence, 10u);
  EXPECT_EQ(suffix.next_sequence, 11u);
}

TEST_F(WalTest, CorruptedTailStopsTheReadAndCounts) {
  {
    WalWriter wal(config());
    append_scripted(wal, 5, 0.0);  // 7 frames
  }
  // Flip a byte inside the last frame's CRC: that frame is lost, the rest
  // survives.
  flip_byte_at_end(first_segment(), 2);
  const WalReadResult result = read_wal(dir_);
  EXPECT_EQ(result.frames.size(), 6u);
  EXPECT_EQ(result.corrupt_frames, 1u);
  EXPECT_EQ(result.next_sequence, 7u);
}

TEST_F(WalTest, TornTailFromPartialWriteIsTolerated) {
  {
    WalWriter wal(config());
    append_scripted(wal, 5, 0.0);
  }
  // Simulate a crash mid-write(): the file ends inside the last frame.
  shrink_by(first_segment(), 3);
  const WalReadResult result = read_wal(dir_);
  EXPECT_EQ(result.frames.size(), 6u);
  EXPECT_EQ(result.corrupt_frames, 1u);
}

TEST_F(WalTest, ReopenTruncatesTornTailAndResumesSequence) {
  {
    WalWriter wal(config());
    append_scripted(wal, 5, 0.0);  // sequences 1..7
  }
  shrink_by(first_segment(), 3);  // tear the update marker
  {
    WalWriter wal(config());
    EXPECT_EQ(wal.truncated_frames(), 1u);
    EXPECT_EQ(wal.next_sequence(), 7u);  // resumes after the valid prefix
    wal.append_update_marker(12.0);
  }
  const WalReadResult result = read_wal(dir_);
  ASSERT_EQ(result.frames.size(), 7u);
  EXPECT_EQ(result.corrupt_frames, 0u);  // the log is clean again
  EXPECT_EQ(result.frames.back().type, FrameType::kUpdate);
  EXPECT_EQ(bits(result.frames.back().time), bits(12.0));
  EXPECT_EQ(result.frames.back().sequence, 7u);
}

TEST_F(WalTest, ReopenAfterRotationContinuesTheLastSegment) {
  {
    WalWriter wal(config(4));
    append_scripted(wal, 8, 0.0);  // 10 frames, last segment holds 2
  }
  {
    WalWriter wal(config(4));
    EXPECT_EQ(wal.next_sequence(), 11u);
    append_scripted(wal, 1, 20.0);  // 3 more frames
  }
  const WalReadResult result = read_wal(dir_);
  ASSERT_EQ(result.frames.size(), 13u);
  for (std::size_t i = 0; i < result.frames.size(); ++i) {
    EXPECT_EQ(result.frames[i].sequence, i + 1);
  }
}

TEST_F(WalTest, PruneDropsSegmentsFullyBelowTheCheckpoint) {
  WalWriter wal(config(4));
  append_scripted(wal, 8, 0.0);  // segments starting at 1, 5, 9
  // A checkpoint at sequence 9 makes segments [1..4] and [5..8] dead weight.
  EXPECT_EQ(wal.prune(9), 2u);
  const WalReadResult rest = read_wal(dir_, 9);
  ASSERT_EQ(rest.frames.size(), 2u);
  EXPECT_EQ(rest.frames.front().sequence, 9u);
  // The open segment is never pruned, even when the checkpoint passes it.
  EXPECT_EQ(wal.prune(1000), 0u);
  wal.append_update_marker(30.0);  // still writable
}

TEST_F(WalTest, InjectedCorruptByteIsCaughtByCrcAtRead) {
  fault::DiskFaultPlan plan;
  // Write 0 is the segment header; corrupt the 3rd frame's bytes.
  plan.corrupt_byte_at(3, /*offset=*/6);
  fault::DiskFaultInjector injector(std::move(plan));
  {
    WalConfig c = config();
    c.fault_hook = &injector;
    WalWriter wal(c);
    append_scripted(wal, 5, 0.0);
  }
  EXPECT_EQ(injector.faults_imposed(), 1u);
  const WalReadResult result = read_wal(dir_);
  EXPECT_EQ(result.frames.size(), 2u);  // frames before the corrupted one
  EXPECT_EQ(result.corrupt_frames, 1u);
}

TEST_F(WalTest, InjectedEnospcSurfacesAsAnException) {
  fault::DiskFaultPlan plan;
  plan.enospc_at(2);
  fault::DiskFaultInjector injector(std::move(plan));
  WalConfig c = config();
  c.fault_hook = &injector;
  WalWriter wal(c);
  wal.on_accepted({1.0, 100, 0, -50.0});
  EXPECT_THROW(wal.on_accepted({2.0, 100, 0, -50.0}), std::runtime_error);
  // The log up to the failure is still a valid prefix.
  wal.sync();
}

TEST_F(WalTest, AttachMetricsReportsAppendsAndTruncations) {
  {
    WalWriter wal(config());
    append_scripted(wal, 5, 0.0);
  }
  shrink_by(first_segment(), 3);

  obs::MetricsRegistry registry;
  WalWriter wal(config());
  wal.attach_metrics(registry);  // back-fills this writer's tallies
  wal.append_update_marker(15.0);

  const obs::Counter* appended =
      registry.find_counter("vire_persist_wal_appended_total", {});
  const obs::Counter* corrupt =
      registry.find_counter("vire_persist_wal_corrupt_total", {});
  ASSERT_NE(appended, nullptr);
  ASSERT_NE(corrupt, nullptr);
  EXPECT_EQ(appended->value(), 1u);
  EXPECT_EQ(corrupt->value(), 1u);
}

// -- on-disk fixture ---------------------------------------------------------

constexpr std::uint64_t kFixtureSegmentFrames = 8;
constexpr int kFixtureFrames = 20;    ///< written; the last one is torn
constexpr int kFixtureAppended = 10;  ///< appended after the reopen

fs::path fixture_root() { return fs::path(VIRE_FIXTURE_DIR); }
fs::path torn_fixture() { return fixture_root() / "wal_torn"; }
fs::path appended_fixture() { return fixture_root() / "wal_torn_appended"; }

/// Frame `i` (0-based) of the fixture script: every frame type, with values
/// whose bit patterns are distinct per frame.
WalFrame fixture_frame(int i) {
  WalFrame frame;
  frame.sequence = static_cast<std::uint64_t>(i) + 1;
  const double t = 3.0 + 0.125 * i;
  switch (i % 5) {
    case 0:
    case 1:
      frame.type = FrameType::kReading;
      frame.reading = {t, static_cast<sim::TagId>(500 + i),
                       static_cast<sim::ReaderId>(i % 4), -40.0 - 0.5 * i};
      break;
    case 2:
      frame.type = FrameType::kEvict;
      frame.time = t;
      break;
    case 3:
      frame.type = FrameType::kUpdate;
      frame.time = t;
      break;
    default:
      frame.type = FrameType::kAck;
      frame.ack_sequence = 1000 + static_cast<std::uint64_t>(i);
      break;
  }
  return frame;
}

void append_fixture_frame(WalWriter& wal, int i) {
  const WalFrame frame = fixture_frame(i);
  switch (frame.type) {
    case FrameType::kReading: wal.on_accepted(frame.reading); break;
    case FrameType::kEvict: wal.on_evict(frame.time); break;
    case FrameType::kUpdate: wal.append_update_marker(frame.time); break;
    case FrameType::kAck: wal.append_ack_marker(frame.ack_sequence); break;
  }
}

WalConfig fixture_config(const fs::path& dir) {
  WalConfig c;
  c.dir = dir;
  c.segment_max_frames = kFixtureSegmentFrames;
  c.fsync = FsyncPolicy::kOff;
  return c;
}

std::map<std::string, std::string> read_dir_bytes(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::string(std::istreambuf_iterator<char>(in), {});
  }
  return files;
}

/// Writes the fixture pair with the current writer.
void generate_wal_fixture() {
  fs::remove_all(torn_fixture());
  fs::remove_all(appended_fixture());
  {
    WalWriter wal(fixture_config(torn_fixture()));
    for (int i = 0; i < kFixtureFrames; ++i) append_fixture_frame(wal, i);
  }
  // Tear the last frame mid-write: the newest segment ends inside it.
  shrink_by(torn_fixture() / "wal-000000000017.log", 5);
  fs::copy(torn_fixture(), appended_fixture());
  WalWriter wal(fixture_config(appended_fixture()));
  for (int i = 0; i < kFixtureAppended; ++i) {
    append_fixture_frame(wal, kFixtureFrames - 1 + i);
  }
}

void expect_same_frame(const WalFrame& got, const WalFrame& want) {
  EXPECT_EQ(got.sequence, want.sequence);
  ASSERT_EQ(got.type, want.type) << "sequence " << want.sequence;
  switch (want.type) {
    case FrameType::kReading:
      EXPECT_EQ(bits(got.reading.time), bits(want.reading.time));
      EXPECT_EQ(got.reading.tag, want.reading.tag);
      EXPECT_EQ(got.reading.reader, want.reading.reader);
      EXPECT_EQ(bits(got.reading.rssi_dbm), bits(want.reading.rssi_dbm));
      break;
    case FrameType::kEvict:
    case FrameType::kUpdate:
      EXPECT_EQ(bits(got.time), bits(want.time));
      break;
    case FrameType::kAck:
      EXPECT_EQ(got.ack_sequence, want.ack_sequence);
      break;
  }
}

TEST_F(WalTest, CommittedFixtureReadsBackAndReopensByteIdentically) {
  if (std::getenv("VIRE_REGEN_WAL_FIXTURE") != nullptr) {
    generate_wal_fixture();
    GTEST_SKIP() << "regenerated " << torn_fixture();
  }
  ASSERT_TRUE(fs::exists(torn_fixture() / "wal-000000000001.log"));

  // Frame for frame: everything before the torn frame, nothing after it.
  const WalReadResult read = read_wal(torn_fixture());
  ASSERT_EQ(read.frames.size(), static_cast<std::size_t>(kFixtureFrames - 1));
  EXPECT_EQ(read.corrupt_frames, 1u);
  EXPECT_EQ(read.next_sequence, static_cast<std::uint64_t>(kFixtureFrames));
  for (int i = 0; i < kFixtureFrames - 1; ++i) {
    expect_same_frame(read.frames[static_cast<std::size_t>(i)], fixture_frame(i));
  }

  // Reopen a copy (truncating the torn tail) and append: the files must be
  // exactly the bytes the fixture's writer produced.
  fs::copy(torn_fixture(), dir_);
  {
    WalWriter wal(fixture_config(dir_));
    EXPECT_EQ(wal.truncated_frames(), 1u);
    EXPECT_EQ(wal.next_sequence(), static_cast<std::uint64_t>(kFixtureFrames));
    for (int i = 0; i < kFixtureAppended; ++i) {
      append_fixture_frame(wal, kFixtureFrames - 1 + i);
    }
  }
  EXPECT_EQ(read_dir_bytes(dir_), read_dir_bytes(appended_fixture()));
}

}  // namespace
}  // namespace vire::persist
