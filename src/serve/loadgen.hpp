#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "serve/engine.hpp"

namespace wknng::serve {

/// Deterministic load generator over a ServeEngine.
///
/// Two modes:
///  - kClosed: `concurrency` submitter threads, each with exactly one request
///    outstanding (thread t handles requests t, t+C, t+2C, ...). Measures the
///    engine's saturated throughput at a given parallelism.
///  - kOpen: requests arrive on a precomputed Poisson schedule at `rate_qps`.
///    Inter-arrival gaps are exponential draws keyed by (seed, index) — a
///    counter-hash, so the schedule is a pure function of the config and no
///    wall-clock reading ever influences *which* requests exist or how they
///    are tagged. Open-loop arrivals keep coming when the engine falls
///    behind, which is what forces the deadline/shed paths under overload.
///
/// Determinism: request i always carries tag i and query row i % queries.rows.
/// The neighbors in every response are a pure function of (snapshot,
/// config) — identical across runs, worker counts, and batch compositions. `LoadGenReport::result_hash` folds every
/// response with a commutative combine, so equal hashes mean equal per-request
/// results regardless of completion order.
///
/// Write mix: `mutate_fraction` of the request slots are classified as
/// mutations instead of reads, each slot's kind drawn from its own
/// counter-hashed (seed, index) stream — like arrivals, the classification
/// is a pure function of the config, never of the clock or of completion
/// order. Mutation slots invoke the caller's MutationHooks inline on the
/// submitting thread; read slots keep their original tag i, so at
/// mutate_fraction == 0 the run (and its result_hash) is bit-identical to a
/// read-only one.
struct LoadGenConfig {
  enum class Mode : std::uint8_t { kClosed, kOpen };

  Mode mode = Mode::kClosed;
  std::uint64_t seed = 42;
  std::size_t requests = 1024;
  double rate_qps = 10000.0;      ///< open-loop arrival rate
  std::size_t concurrency = 4;    ///< closed-loop submitter threads
  std::uint64_t deadline_us = 0;  ///< per-request deadline; 0 = engine default

  /// Fraction of request slots that are mutations (0 = read-only). Slots
  /// classified as mutations with no matching hook degrade to reads.
  double mutate_fraction = 0.0;
  /// Of the mutation slots, the fraction that are deletes (rest: inserts).
  double delete_fraction = 0.25;
};

/// What a mutation slot does — supplied by the harness that owns the mutable
/// index (e.g. a dynamic::DynamicKnng wired to the engine via on_publish).
/// Each hook receives the slot's request index; everything else it needs it
/// derives deterministically (the CLI inserts query row i and deletes
/// counter-chosen ids). Hooks run inline on the submitting thread.
struct MutationHooks {
  std::function<void(std::size_t request_index)> insert;
  std::function<void(std::size_t request_index)> erase;
};

/// The kind request slot i resolves to under `config` — exposed so tests and
/// harnesses can reproduce the classification without running the load.
enum class RequestKind : std::uint8_t { kRead, kInsert, kDelete };
RequestKind request_kind(const LoadGenConfig& config, std::size_t i);

/// Aggregated outcome of one load-generation run. Counters and result_hash
/// are deterministic for a fixed (snapshot, config) when no deadline forces
/// timing-dependent statuses; wall_seconds / achieved_qps are measurements.
struct LoadGenReport {
  std::size_t requests = 0;
  std::size_t ok = 0;
  std::size_t timed_out = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;
  std::size_t reads = 0;             ///< slots served as queries
  std::size_t inserts = 0;           ///< slots that invoked hooks.insert
  std::size_t deletes = 0;           ///< slots that invoked hooks.erase
  std::size_t mutation_failures = 0; ///< hook invocations that threw
  double wall_seconds = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t points_visited = 0;  ///< summed over executed requests
  std::uint64_t result_hash = 0;     ///< order-independent response digest
                                     ///< (read slots only)

  /// Exact sample quantiles (nearest-rank over the sorted per-request
  /// total_us of every read slot) — no bucket interpolation, unlike the
  /// engine histogram's 1-2-5-bucket percentiles (see DESIGN.md for that
  /// estimator's error bound). 0 when no read slot completed.
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_max_us = 0.0;

  std::string to_json() const;
};

/// Nearest-rank sample quantile: the smallest element with at least ⌈p·n⌉
/// of the sample at or below it. `sorted_us` must be ascending; returns 0 on
/// an empty sample. Exposed for tests and for report post-processing.
double exact_quantile(const std::vector<double>& sorted_us, double p);

/// The open-loop arrival schedule: requests[i] arrives at offset_us[i] after
/// the run starts. Exponential gaps with mean 1/rate_qps, each drawn from an
/// Rng stream keyed by (seed, index) — no generator state threads through the
/// schedule, so any prefix is stable under config.requests changes.
std::vector<double> open_loop_schedule(std::uint64_t seed, std::size_t requests,
                                       double rate_qps);

/// Runs the configured load against `engine`, pulling query vectors
/// round-robin from the rows of `queries`. Blocks until every response
/// arrives (the engine is left running). `hooks` supplies the mutation
/// half of a mixed workload; the hook-less overload is the read-only path
/// (mutation slots degrade to reads).
LoadGenReport run_load(ServeEngine& engine, const FloatMatrix& queries,
                       const LoadGenConfig& config,
                       const MutationHooks& hooks);

LoadGenReport run_load(ServeEngine& engine, const FloatMatrix& queries,
                       const LoadGenConfig& config);

}  // namespace wknng::serve
