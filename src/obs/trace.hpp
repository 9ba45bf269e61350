#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wknng::obs {

// Virtual "thread" (track) ids in the exported trace. Build phases render on
// one lane, kernel launches on a second, serve batches on a third, and
// optional per-warp-group spans fan out over a bounded set of extra lanes so
// arbitrarily wide launches don't explode the track count.
inline constexpr std::uint32_t kTrackBuild = 0;
inline constexpr std::uint32_t kTrackLaunch = 1;
inline constexpr std::uint32_t kTrackServe = 2;
inline constexpr std::uint32_t kTrackShard = 3;
inline constexpr std::uint32_t kTrackDynamic = 4;
inline constexpr std::uint32_t kTrackWarpBase = 16;
inline constexpr std::uint32_t kNumWarpTracks = 32;

/// Category salts keeping span ids from colliding across kinds even when the
/// underlying (phase, launch, warp) indices coincide.
enum class SpanSalt : std::uint64_t {
  kBuild = 1,
  kPhase = 2,
  kLaunch = 3,
  kWarp = 4,
  kServeBatch = 5,
  kCheckpoint = 6,
  kInstant = 7,
  kShardJob = 8,
  kDynamicOp = 9,
};

/// One Chrome trace-event. `args` values are raw JSON fragments (already
/// quoted/escaped by the producer) so numeric stats need no re-parsing.
struct TraceEvent {
  std::string name;
  std::string cat;
  char ph = 'X';  // 'X' complete span, 'i' instant
  std::uint64_t id = 0;
  std::uint32_t tid = kTrackBuild;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Span tracer with deterministic ids. Timestamps and durations come from a
/// steady clock (they describe *when*, and may vary run to run); span *ids*
/// never do — they are counter-hashed from (phase index, launch index, warp
/// index, salt), so the id structure of a build trace is a pure function of
/// the schedule. Two identical builds produce the identical multiset of
/// (name, cat, id) triples, which tests assert.
///
/// Recording takes one mutex append; the disabled path is a single relaxed
/// pointer load (see active_tracer), mirroring the race/fault hook pattern.
class Tracer {
 public:
  explicit Tracer(bool warp_spans = false);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool warp_spans() const { return warp_spans_; }

  /// Microseconds since this tracer was constructed (steady clock).
  double now_us() const;

  void record(TraceEvent ev);
  void instant(const std::string& name, const std::string& cat,
               std::uint32_t tid,
               std::vector<std::pair<std::string, std::string>> args = {});

  /// Deterministic id: chained splitmix64 over the salt and the three
  /// indices, injective in each index when the others are fixed.
  static std::uint64_t span_id(std::uint64_t a, std::uint64_t b,
                               std::uint64_t c, SpanSalt salt);

  /// Enter a new top-level phase ("forest", "leaf", "refine_round", ...).
  /// Returns the phase's ordinal. Launch counters observed by launch_warps
  /// attribute to the current phase.
  std::uint64_t begin_phase(const char* name);
  std::uint64_t current_phase() const {
    return phase_index_.load(std::memory_order_acquire);
  }
  /// Next launch ordinal (global, monotone — launches are sequential within
  /// a build so this doubles as a per-phase order).
  std::uint64_t next_launch() {
    return launch_counter_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Next serve-batch ordinal.
  std::uint64_t next_batch() {
    return batch_counter_.fetch_add(1, std::memory_order_relaxed);
  }

  std::size_t event_count() const;
  std::vector<TraceEvent> events() const;

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — Chrome trace-event JSON,
  /// loadable in Perfetto / chrome://tracing. Events are sorted by (ts, tid)
  /// so the output is stable for a given set of spans.
  std::string to_chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  const bool warp_spans_;
  const std::chrono::steady_clock::time_point origin_;
  std::atomic<std::uint64_t> phase_index_{0};
  std::atomic<std::uint64_t> launch_counter_{0};
  std::atomic<std::uint64_t> batch_counter_{0};
  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
};

namespace trace_detail {
// Process-global active tracer, installed via ScopedTracing. Same shape as
// fault_detail::g_active / the race-detector hook: one relaxed/acquire load
// plus a predicted-not-taken branch when disabled.
inline std::atomic<Tracer*> g_active{nullptr};
}  // namespace trace_detail

/// The currently-installed tracer, or nullptr when tracing is off.
inline Tracer* active_tracer() {
  return trace_detail::g_active.load(std::memory_order_acquire);
}

/// RAII installer. Only one tracer may be active at a time; nesting throws.
class ScopedTracing {
 public:
  explicit ScopedTracing(Tracer& tracer);
  ~ScopedTracing();

  ScopedTracing(const ScopedTracing&) = delete;
  ScopedTracing& operator=(const ScopedTracing&) = delete;
};

/// RAII span: captures the start time at construction and records a complete
/// ('X') event at destruction. A null tracer makes every method a no-op, so
/// call sites write straight-line code and pay nothing when tracing is off.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::string cat, std::uint64_t id,
       std::uint32_t tid)
      : tracer_(tracer) {
    if (!tracer_) return;
    ev_.name = std::move(name);
    ev_.cat = std::move(cat);
    ev_.id = id;
    ev_.tid = tid;
    ev_.ts_us = tracer_->now_us();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { finish(); }

  /// Attach a raw-JSON argument (caller guarantees `json` is valid JSON).
  void arg(const std::string& key, std::string json) {
    if (tracer_) ev_.args.emplace_back(key, std::move(json));
  }
  void arg_num(const std::string& key, double v);
  void arg_num(const std::string& key, std::uint64_t v);
  void arg_str(const std::string& key, const std::string& v);

  /// Record the span now instead of at destruction (idempotent).
  void finish() {
    if (!tracer_) return;
    ev_.dur_us = tracer_->now_us() - ev_.ts_us;
    tracer_->record(std::move(ev_));
    tracer_ = nullptr;
  }

 private:
  Tracer* tracer_;
  TraceEvent ev_;
};

}  // namespace wknng::obs
