// Hierarchical distributed tracing on the queries' cost ledgers.
//
// A Tracer hands out RAII Span handles; finished spans accumulate as
// SpanRecords that can be drained, rendered as an indented tree, or
// shipped across the XML-RPC wire so a query forwarded to a remote
// JClarens server continues the same trace (the remote's child spans
// come back in the response and are Import()ed here).
//
// Determinism: trace and span ids come from a seeded counter — no
// wall clock, no randomness — so a test replaying the same call
// sequence sees the same ids. Timestamps come from the cost ledger of
// the work a span covers (a query's net::Cost, see SpanClock), read at
// start and at end, so span durations add up to the query's simulated
// time; a span opened without one reads 0.
//
// Parenting: each thread tracks its innermost live span; StartSpan
// parents to it implicitly when it belongs to the same tracer. Work
// fanned out to other threads (parallel sub-queries) captures the
// parent context before submit and opens children with StartSpanUnder,
// which is also how a server continues a trace from a remote caller's
// wire context.
//
// A disabled tracer (the default) returns inactive spans: no ids are
// drawn, nothing is recorded, nothing rides the wire — the fault-free
// paper benchmarks stay byte-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace griddb::obs {

/// What crosses process (and wire) boundaries: enough to parent remote
/// child spans into the caller's trace.
struct SpanContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

/// One finished span.
struct SpanRecord {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  ///< 0 = root of its trace.
  std::string name;
  std::string host;     ///< Producing server; empty = this process.
  double start_ms = 0;  ///< Ledger instant (virtual ms) at StartSpan.
  double duration_ms = 0;
  bool error = false;
  std::string note;  ///< Error detail when `error`.
  std::vector<std::pair<std::string, std::string>> attrs;
};

class Tracer;

/// Where a span reads its start and end instants: the cost ledger of the
/// work it covers (net::Cost, or anything with `double now_ms() const`).
/// obs/ sits below net/, so the ledger is seen through this two-word
/// view; the ledger must outlive the span. A default SpanClock reads 0.
class SpanClock {
 public:
  SpanClock() = default;
  template <typename Ledger>
  SpanClock(const Ledger* ledger)  // NOLINT: implicit, StartSpan(n, &cost)
      : ledger_(ledger), read_(&Read<Ledger>) {}

  double NowMs() const { return ledger_ ? read_(ledger_) : 0.0; }

 private:
  template <typename Ledger>
  static double Read(const void* ledger) {
    return static_cast<const Ledger*>(ledger)->now_ms();
  }

  const void* ledger_ = nullptr;
  double (*read_)(const void*) = nullptr;
};

/// RAII span handle. Inactive (no-op) when the tracer was disabled at
/// StartSpan time. Ends at destruction or an explicit End(); ending
/// restores the thread's previous innermost span.
class Span {
 public:
  Span() = default;
  ~Span() { End(); }
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const { return tracer_ != nullptr; }
  SpanContext context() const { return ctx_; }

  void AddAttr(std::string key, std::string value);
  void SetError(std::string note);

  /// Finishes the span (idempotent): records it with the tracer and
  /// pops it from the thread's span stack.
  void End();

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  SpanContext ctx_;
  uint64_t parent_span_id_ = 0;
  std::string name_;
  SpanClock clock_;
  double start_ms_ = 0;
  bool error_ = false;
  std::string note_;
  std::vector<std::pair<std::string, std::string>> attrs_;
  // Thread-local stack linkage restored by End().
  Tracer* prev_tracer_ = nullptr;
  SpanContext prev_ctx_;
};

class Tracer {
 public:
  explicit Tracer(uint64_t seed = 0x0b5e7aced) : seed_(seed) {}

  /// Re-seeds the id stream and restarts the counter. Call before any
  /// spans are started.
  void Reseed(uint64_t seed);
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// New span, implicitly parented to this thread's innermost live span
  /// of this tracer (a new root trace otherwise), timed on `clock`.
  Span StartSpan(std::string name, SpanClock clock = {});
  /// New span under an explicit parent — cross-thread fan-out, or a
  /// remote caller's wire context. An invalid parent starts a new root.
  Span StartSpanUnder(std::string name, const SpanContext& parent,
                      SpanClock clock = {});
  /// This thread's innermost live span of this tracer (invalid if none).
  SpanContext CurrentContext() const;

  /// Records a span finished elsewhere (a remote server's child spans).
  void Import(SpanRecord record);

  /// Finished spans, oldest first (copy / destructive / per-trace take).
  std::vector<SpanRecord> Finished() const;
  std::vector<SpanRecord> Drain();
  /// Removes and returns every finished span of `trace_id` — what a
  /// server ships back to the caller that sent the trace context.
  std::vector<SpanRecord> TakeTrace(uint64_t trace_id);
  size_t finished_count() const;
  /// Total spans evicted because the finished buffer was full.
  size_t dropped_count() const;
  void Clear();

  /// Renders a trace's span tree as indented text (the slow-query dump
  /// format documented in docs/OPERATIONS.md).
  std::string FormatTrace(uint64_t trace_id) const;

 private:
  friend class Span;
  uint64_t NextId() {
    return seed_ + next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void FinishSpan(Span& span);

  /// Finished-span buffer cap; the oldest spans are evicted beyond it so
  /// an un-drained tracer cannot grow without bound.
  static constexpr size_t kMaxFinished = 8192;

  uint64_t seed_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRecord> finished_;
  size_t dropped_ = 0;
};

}  // namespace griddb::obs
