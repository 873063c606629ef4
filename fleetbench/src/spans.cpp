#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace fleetbench {

std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('.'));
}

int SpanRecorder::begin(const std::string& name, std::uint64_t op) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = current();
  s.op = op;
  spans_.push_back(std::move(s));
  const int handle = static_cast<int>(spans_.size()) - 1;
  open_.push_back(handle);
  return handle;
}

void SpanRecorder::end(int handle) {
  if (handle < 0) return;
  spans_[static_cast<std::size_t>(handle)].end_us = now_us();
  // Spans close in LIFO order; tolerate a handle closed out of order.
  const auto it = std::find(open_.rbegin(), open_.rend(), handle);
  if (it != open_.rend()) open_.erase(std::next(it).base(), open_.end());
}

void SpanRecorder::add(const std::string& name, double start_us, double end_us,
                       int parent, std::uint64_t op) {
  if (!enabled_) return;
  spans_.push_back({name, start_us, end_us, parent, op});
}

std::map<std::string, double> SpanRecorder::self_time_by_layer() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[layer_of(s.name)] += (s.end_us - s.start_us) - child_us[i];
  }
  return out;
}

void SpanRecorder::write_chrome_trace(const std::filesystem::path& path) const {
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path.string());
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_us;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"" << layer_of(s.name) << "\",\"ph\":\"X\",\"ts\":"
        << (s.start_us - t0) << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"pid\":1,\"tid\":1,\"args\":{\"op\":" << s.op
        << ",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace fleetbench
