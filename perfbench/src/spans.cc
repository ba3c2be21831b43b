#include "spans.h"

#include <cstdio>

namespace gammadb::perfbench {

int SpanRecorder::Begin(const char* name, int64_t stmt) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_;
  span.stmt = stmt < 0 && open_ >= 0 ? spans_[static_cast<size_t>(open_)].stmt
                                     : stmt;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = NowNs();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].child_ns +=
        span.end_ns - span.start_ns;
  }
  open_ = span.parent;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  std::map<std::string, double> self;
  for (const Span& span : spans_) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    self[layer] += static_cast<double>(span.end_ns - span.start_ns -
                                       span.child_ns) *
                   1e-9;
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"stmt\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 i, s.name.c_str(),
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin), s.parent,
                 static_cast<long long>(s.stmt),
                 static_cast<long long>(s.end_ns - s.start_ns - s.child_ns),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace gammadb::perfbench
