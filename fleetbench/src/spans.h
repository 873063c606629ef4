#pragma once
// In-memory span recorder for the traced run. Spans are recorded around the
// calls the benchmark makes into each layer (nothing inside the program is
// instrumented); they are written out as a Chrome trace when the run ends.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

struct Span {
  std::string name;       ///< "<layer>.<what>", e.g. "wal.append"
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;        ///< index of the enclosing span, -1 at the root
  std::uint64_t op = 0;   ///< one id per batch or poll cycle
};

/// Layer of a span: the text before the first '.'.
[[nodiscard]] std::string layer_of(const std::string& name);

class SpanRecorder {
 public:
  [[nodiscard]] static double now_us() {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Disabled recorders keep nothing; begin() still returns a usable handle.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span under the innermost open one.
  int begin(const std::string& name, std::uint64_t op);
  void end(int handle);
  /// Records a finished span with explicit times under `parent`.
  void add(const std::string& name, double start_us, double end_us, int parent,
           std::uint64_t op);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Self time (duration minus the part covered by child spans), summed per
  /// layer, in microseconds. Root spans (parent -1) are the benchmark's own
  /// glue and are reported under their own layer like any other.
  [[nodiscard]] std::map<std::string, double> self_time_by_layer() const;

  /// Chrome trace-event JSON ("X" events; args carry op and parent).
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  [[nodiscard]] int current() const noexcept {
    return open_.empty() ? -1 : open_.back();
  }

  bool enabled_ = true;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const std::string& name, std::uint64_t op)
      : rec_(rec), handle_(rec.begin(name, op)) {}
  ~Scoped() { rec_.end(handle_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
  int handle_;
};

}  // namespace fleetbench
