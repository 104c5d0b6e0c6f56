#include "griddb/obs/trace.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace griddb::obs {

namespace {
// Innermost live span per thread. The tracer pointer disambiguates when
// several tracers run in one process (every JClarens server owns one):
// implicit parenting only crosses spans of the same tracer, so a server
// handling a call inline (the simulated network dispatches on the
// caller's thread) cannot accidentally parent into the caller's tracer —
// cross-server parentage only happens through the explicit wire context.
thread_local Tracer* tls_tracer = nullptr;
thread_local SpanContext tls_ctx;
}  // namespace

Span& Span::operator=(Span&& other) noexcept {
  if (this == &other) return *this;
  End();
  tracer_ = other.tracer_;
  ctx_ = other.ctx_;
  parent_span_id_ = other.parent_span_id_;
  name_ = std::move(other.name_);
  clock_ = other.clock_;
  start_ms_ = other.start_ms_;
  error_ = other.error_;
  note_ = std::move(other.note_);
  attrs_ = std::move(other.attrs_);
  prev_tracer_ = other.prev_tracer_;
  prev_ctx_ = other.prev_ctx_;
  other.tracer_ = nullptr;
  return *this;
}

void Span::AddAttr(std::string key, std::string value) {
  if (!tracer_) return;
  attrs_.emplace_back(std::move(key), std::move(value));
}

void Span::SetError(std::string note) {
  if (!tracer_) return;
  error_ = true;
  note_ = std::move(note);
}

void Span::End() {
  if (!tracer_) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  tracer->FinishSpan(*this);
}

void Tracer::Reseed(uint64_t seed) {
  seed_ = seed;
  next_id_.store(1, std::memory_order_relaxed);
}

Span Tracer::StartSpan(std::string name, SpanClock clock) {
  return StartSpanUnder(std::move(name), CurrentContext(), clock);
}

Span Tracer::StartSpanUnder(std::string name, const SpanContext& parent,
                            SpanClock clock) {
  if (!enabled()) return Span();
  Span span;
  span.tracer_ = this;
  span.name_ = std::move(name);
  if (parent.valid()) {
    span.ctx_.trace_id = parent.trace_id;
    span.parent_span_id_ = parent.span_id;
  } else {
    span.ctx_.trace_id = NextId();
  }
  span.ctx_.span_id = NextId();
  span.clock_ = clock;
  span.start_ms_ = clock.NowMs();
  span.prev_tracer_ = tls_tracer;
  span.prev_ctx_ = tls_ctx;
  tls_tracer = this;
  tls_ctx = span.ctx_;
  return span;
}

SpanContext Tracer::CurrentContext() const {
  return tls_tracer == this ? tls_ctx : SpanContext{};
}

void Tracer::FinishSpan(Span& span) {
  // Pop this span from the thread's stack — but only on the thread that
  // still has it innermost; a span moved to (and ended on) another
  // thread must not clobber that thread's stack.
  if (tls_tracer == this && tls_ctx.span_id == span.ctx_.span_id) {
    tls_tracer = span.prev_tracer_;
    tls_ctx = span.prev_ctx_;
  }
  SpanRecord record;
  record.trace_id = span.ctx_.trace_id;
  record.span_id = span.ctx_.span_id;
  record.parent_span_id = span.parent_span_id_;
  record.name = std::move(span.name_);
  record.start_ms = span.start_ms_;
  record.duration_ms = std::max(0.0, span.clock_.NowMs() - span.start_ms_);
  record.error = span.error_;
  record.note = std::move(span.note_);
  record.attrs = std::move(span.attrs_);
  Import(std::move(record));
}

void Tracer::Import(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finished_.size() >= kMaxFinished) {
    finished_.erase(finished_.begin());
    ++dropped_;
  }
  finished_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_;
}

std::vector<SpanRecord> Tracer::Drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.swap(finished_);
  return out;
}

std::vector<SpanRecord> Tracer::TakeTrace(uint64_t trace_id) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  auto keep = finished_.begin();
  for (auto it = finished_.begin(); it != finished_.end(); ++it) {
    if (it->trace_id == trace_id) {
      out.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  finished_.erase(keep, finished_.end());
  return out;
}

size_t Tracer::finished_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return finished_.size();
}

size_t Tracer::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.clear();
  dropped_ = 0;
}

namespace {
void FormatSubtree(const std::map<uint64_t, const SpanRecord*>& by_id,
                   const std::map<uint64_t, std::vector<const SpanRecord*>>&
                       children,
                   const SpanRecord& record, int depth, std::ostringstream& out) {
  for (int i = 0; i < depth; ++i) out << "  ";
  out << record.name;
  if (!record.host.empty()) out << " @" << record.host;
  out << " [span " << std::hex << record.span_id << std::dec << "]";
  out << " start=" << record.start_ms << "ms dur=" << record.duration_ms
      << "ms";
  for (const auto& [key, value] : record.attrs) {
    out << " " << key << "=" << value;
  }
  if (record.error) out << " ERROR(" << record.note << ")";
  out << "\n";
  auto it = children.find(record.span_id);
  if (it == children.end()) return;
  for (const SpanRecord* child : it->second) {
    FormatSubtree(by_id, children, *child, depth + 1, out);
  }
}
}  // namespace

std::string Tracer::FormatTrace(uint64_t trace_id) const {
  std::vector<SpanRecord> records;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& record : finished_) {
      if (record.trace_id == trace_id) records.push_back(record);
    }
  }
  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& record : records) by_id[record.span_id] = &record;
  std::map<uint64_t, std::vector<const SpanRecord*>> children;
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& record : records) {
    if (record.parent_span_id != 0 && by_id.count(record.parent_span_id)) {
      children[record.parent_span_id].push_back(&record);
    } else {
      roots.push_back(&record);
    }
  }
  auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start_ms != b->start_ms ? a->start_ms < b->start_ms
                                      : a->span_id < b->span_id;
  };
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_start);
  }
  std::sort(roots.begin(), roots.end(), by_start);
  std::ostringstream out;
  out << "trace " << std::hex << trace_id << std::dec << " (" << records.size()
      << " spans)\n";
  for (const SpanRecord* root : roots) {
    FormatSubtree(by_id, children, *root, 1, out);
  }
  return out.str();
}

}  // namespace griddb::obs
