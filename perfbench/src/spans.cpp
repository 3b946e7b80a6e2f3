#include "spans.hpp"

#include <sstream>

#include "host.hpp"

namespace perfbench {

std::size_t SpanRecorder::open(const std::string& name, std::uint64_t call) {
  Span s;
  s.name = name;
  s.call = call;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  spans_.back().start_ns = now_ns();
  return spans_.size() - 1;
}

void SpanRecorder::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::scale_from(std::size_t first, double scale) {
  for (std::size_t i = first; i < spans_.size(); ++i) spans_[i].scale = scale;
}

std::map<std::string, double> SpanRecorder::totals_from(
    std::size_t first) const {
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-6 * s.scale;
  }
  return out;
}

std::string SpanRecorder::jsonl() const {
  std::ostringstream out;
  for (const Span& s : spans_)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"call\":" << s.call << ",\"scale\":" << s.scale << "}\n";
  return out.str();
}

}  // namespace perfbench
