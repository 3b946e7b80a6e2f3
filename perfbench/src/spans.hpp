// In-memory span recorder for the traced run. Spans are recorded from
// the benchmark's own files around calls into hcep's public functions;
// nothing inside the program is instrumented by them. Layer spans are
// leaves under one root per call, so a layer's self time is its span's
// duration.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the recorder, -1 for a root
  std::uint64_t call = 0;    ///< spans of one call share this id
  double scale = 1.0;        ///< host normalization for this span's call
};

class SpanRecorder {
 public:
  /// Opens a span under the innermost open span; returns its index.
  std::size_t open(const std::string& name, std::uint64_t call);
  void close(std::size_t index);
  /// Sets the host-normalization factor of spans [first, end).
  void scale_from(std::size_t first, double scale);
  /// Name -> summed host-normalized ms of spans [first, end).
  [[nodiscard]] std::map<std::string, double> totals_from(
      std::size_t first) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// One JSON object per line: name, start/end ns, parent, call, scale.
  [[nodiscard]] std::string jsonl() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name, std::uint64_t call)
      : rec_(rec), index_(rec.open(name, call)) {}
  ~ScopedSpan() { rec_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t index_;
};

}  // namespace perfbench
