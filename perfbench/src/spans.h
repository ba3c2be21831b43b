#ifndef GAMMA_PERFBENCH_SPANS_H_
#define GAMMA_PERFBENCH_SPANS_H_

// In-memory span recorder for the traced run. Spans wrap the benchmark's own
// calls into each layer of the library; they nest strictly (one thread), so a
// span's self time is its duration minus the summed durations of its direct
// children. Spans are kept in memory and written out once, at exit.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gammadb::perfbench {

/// Monotonic host clock in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    /// Index of the enclosing span, -1 at top level.
    int parent = -1;
    /// Statement the span belongs to (-1 outside any statement).
    int64_t stmt = -1;
    /// Summed durations of direct children (for self time).
    int64_t child_ns = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span; returns its index (-1 when disabled).
  int Begin(const char* name, int64_t stmt);
  void End(int index);

  /// Self time per layer in seconds; a layer is the span name up to its
  /// first '.', which matches the module names under src/.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// Writes every span as a JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// RAII span; a no-op when the recorder is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, int64_t stmt = -1)
      : recorder_(recorder), index_(recorder.Begin(name, stmt)) {}
  ~ScopedSpan() { recorder_.End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

}  // namespace gammadb::perfbench

#endif  // GAMMA_PERFBENCH_SPANS_H_
