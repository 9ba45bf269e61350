#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/builder.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "dynamic/dynamic_knng.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "obs/build_info.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "load.hpp"
#include "opt/optimize.hpp"
#include "serve/engine.hpp"
#include "serve/snapshot.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

namespace core = wknng::core;
namespace data = wknng::data;
namespace dyn = wknng::dynamic;
namespace exact = wknng::exact;
namespace obs = wknng::obs;
namespace opt = wknng::opt;
namespace serve = wknng::serve;
using wknng::FloatMatrix;
using wknng::KnnGraph;
using wknng::Neighbor;
using wknng::ThreadPool;

// Trace lanes of the benchmark's own spans (the library uses 0-4 and 16+;
// load.cpp puts its submit spans on lane 9).
constexpr std::uint32_t kTrackBench = 8;
constexpr std::uint32_t kTrackWrite = 10;

constexpr float kSpread = 0.08f;           // cluster std-dev of every input
constexpr float kQuerySigma = 0.02f;       // query perturbation per coordinate
constexpr std::size_t kRecallK = 10;       // every recall is recall@10
constexpr std::size_t kTruthSample = 500;  // sampled build ground truth
constexpr std::size_t kQueryRows = 2000;   // query pool of every serve phase
constexpr std::size_t kFinalQueries = 500;  // re-answered for recall/digest
constexpr std::uint64_t kFinalTagBase = 1'000'000'000;
constexpr double kAccountingTolUs = 100.0;  // queue+service vs total, absolute
constexpr double kAccountingTolFrac = 0.05;  // ... plus this share of total
constexpr double kPhaseSumTol = 0.05;        // sum of build phases vs build wall
// Set-ups per untraced run; setup_s (and serve-churn's build_s) is their
// median.
constexpr std::size_t kSetups = 5;
// Builds of the build workloads: one untimed warm-up, then one timed build
// per measured round, at least this many.
constexpr std::size_t kMinTimedBuilds = 3;
// The closed-loop throughput is the median answer rate over blocks of this
// many consecutive answers (32 micro-batches of 32).
constexpr std::size_t kRateBlock = 1024;
// Share of --seconds spent in measured rounds.
constexpr double kMeasureShare = 0.8;
// Open-loop phase of the traced run: its offered rate, and the growth of
// the outstanding count, from the midpoint of the send window to its end,
// past which its backlog counts as growing (two full micro-batches).
constexpr double kOpenLoopQps = 2000.0;
constexpr std::size_t kBacklogSlack = 64;

enum class Kind { kBuild, kServeChurn };

struct Spec {
  std::string name;
  Kind kind = Kind::kBuild;
  std::size_t n = 0;
  std::size_t dim = 0;
  std::size_t clusters = 0;
  core::BuildParams build;
  serve::ServeOptions serve;
  // Each measured round's slices of the one-caller latency loop and the
  // saturating throughput loop.
  double latency_slice_s = 0.0;
  double throughput_slice_s = 0.0;
  double write_rate = 0.0;        // writes per second (churn only)
  std::size_t insert_pool = 0;    // rows generated for inserts (churn only)
  double build_recall_floor = 0.0;
  double query_recall_floor = 0.0;
};

core::BuildParams build_params(std::size_t k, core::Strategy strategy) {
  core::BuildParams p;
  p.k = k;
  p.strategy = strategy;
  p.num_trees = 8;
  p.leaf_size = 64;
  p.refine_iters = 1;
  return p;
}

// The build workloads' n/256 clusters leave the K-NNG in many disconnected
// islands; a query finds its own only if entry sampling lands in it, so they
// sample far more entries than the engine default (256).
constexpr std::size_t kWideEntrySample = 4096;

std::vector<Spec> all_specs() {
  std::vector<Spec> specs;
  {
    Spec s;
    s.name = "build-d16-atomic";
    s.kind = Kind::kBuild;
    s.n = 131072;
    s.dim = 16;
    s.clusters = s.n / 256;
    s.build = build_params(10, core::Strategy::kAtomic);
    s.serve.search.entry_sample = kWideEntrySample;
    s.latency_slice_s = 0.6;
    s.throughput_slice_s = 0.9;
    s.build_recall_floor = 0.90;
    s.query_recall_floor = 0.85;
    specs.push_back(s);
  }
  {
    // Served through the pruned, relaid-out layout: the build's tiled leaf
    // pass and the optimized read path are both measured here.
    Spec s;
    s.name = "build-d128-tiled";
    s.kind = Kind::kBuild;
    s.n = 65536;
    s.dim = 128;
    s.clusters = s.n / 256;
    s.build = build_params(10, core::Strategy::kTiled);
    s.serve.optimize = true;
    s.serve.search.entry_sample = kWideEntrySample / 2;  // 256 clusters
    // Below k, so occlusion pruning has edges to drop.
    s.serve.optimize_options.min_degree = 6;
    s.latency_slice_s = 0.6;
    s.throughput_slice_s = 0.9;
    s.build_recall_floor = 0.85;
    s.query_recall_floor = 0.85;
    specs.push_back(s);
  }
  {
    Spec s;
    s.name = "serve-churn";
    s.kind = Kind::kServeChurn;
    s.n = 65536;
    s.dim = 64;
    s.clusters = 64;
    s.build = build_params(10, core::recommended_strategy(64));
    s.latency_slice_s = 1.0;
    s.throughput_slice_s = 1.5;
    s.write_rate = 10.0;
    s.insert_pool = 4096;
    s.build_recall_floor = 0.70;
    s.query_recall_floor = 0.75;
    specs.push_back(s);
  }
  for (Spec& s : specs) s.serve.search.k = kRecallK;
  return specs;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "\"0x%016llx\"",
                static_cast<unsigned long long>(v));
  return buf;
}

/// SplitMix64's output: a bijection of its input.
std::uint64_t mix64(std::uint64_t z) { return wknng::SplitMix64(z).next(); }

/// Order-independent digest of tag-keyed answers: a wrapping sum of one hash
/// per (tag, neighbor ids) row, so batching and completion order cannot
/// change it while any changed id does.
std::uint64_t answer_digest(const std::vector<std::uint64_t>& tags,
                            const std::vector<std::vector<std::uint32_t>>& ids) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    std::uint64_t h = mix64(tags[i] + 0x9E3779B97F4A7C15ull);
    for (const std::uint32_t id : ids[i]) h = mix64(h ^ (id + 0x632BE59BD9B4E019ull));
    sum += h;
  }
  return sum;
}

/// Benchmark-side tracing: one Tracer for the whole traced run, installed
/// process-wide only while a traced section runs, so the library's own spans
/// (build phases, launches, serve_batch, dynamic ops) land beside ours.
class Tracing {
 public:
  explicit Tracing(bool enabled) {
    if (enabled) tracer_.emplace(/*warp_spans=*/false);
  }
  bool enabled() const { return tracer_.has_value(); }
  void install() {
    if (!tracer_ || scope_) return;
    scope_.emplace(*tracer_);
    active_.store(&*tracer_, std::memory_order_release);
  }
  void uninstall() {
    active_.store(nullptr, std::memory_order_release);
    scope_.reset();
  }
  /// The tracer spans should go to right now (null outside traced sections).
  obs::Tracer* active() const { return active_.load(std::memory_order_acquire); }
  obs::Tracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }
  obs::Span span(const char* name, std::uint32_t tid) {
    // mix64 is a bijection: one id per span, never a collision.
    return obs::Span(active(), name, "bench", mix64(next_.fetch_add(1) + 1), tid);
  }

 private:
  std::optional<obs::Tracer> tracer_;
  std::optional<obs::ScopedTracing> scope_;
  std::atomic<obs::Tracer*> active_{nullptr};
  std::atomic<std::uint64_t> next_{0};
};

FloatMatrix perturbed_rows(const FloatMatrix& base, std::size_t count,
                           float sigma, std::uint64_t seed) {
  wknng::Rng rng(seed, 11);
  FloatMatrix q(count, base.cols());
  for (std::size_t i = 0; i < count; ++i) {
    const auto src = base.row(rng.next_below(base.rows()));
    auto dst = q.row(i);
    for (std::size_t d = 0; d < base.cols(); ++d) {
      dst[d] = src[d] + sigma * rng.next_gaussian();
    }
  }
  return q;
}

FloatMatrix first_rows(const FloatMatrix& m, std::size_t count) {
  count = std::min(count, m.rows());
  FloatMatrix out(count, m.cols());
  std::copy(m.data(), m.data() + count * m.cols(), out.data());
  return out;
}

/// Mean recall@10 of sampled graph rows against exact rows.
double sampled_recall_at_10(const KnnGraph& g, const exact::SampledTruth& t) {
  double sum = 0.0;
  for (std::size_t j = 0; j < t.ids.size(); ++j) {
    const auto approx = g.row(t.ids[j]);
    sum += exact::row_recall(approx.first(std::min(kRecallK, approx.size())),
                             t.graph.row(j));
  }
  return t.ids.empty() ? 0.0 : sum / static_cast<double>(t.ids.size());
}

/// Everything a set-up produces; the last set-up's copy is measured.
struct Setup {
  FloatMatrix base;
  FloatMatrix inserts;
  FloatMatrix queries;
  exact::SampledTruth truth;
  double generate_s = 0.0;
  double truth_s = 0.0;
  // serve-churn: the dynamic index and how long it took to build
  std::unique_ptr<dyn::DynamicKnng> dynamic;
  double build_s = 0.0;
  double build_cpu_util = 0.0;
  wknng::simt::Stats dynamic_build_stats;
  double total_s = 0.0;
};

/// One timed build of a build workload.
struct TimedBuild {
  core::BuildResult result;
  double wall_s = 0.0;
  double cpu_util = 0.0;
};

TimedBuild timed_build(ThreadPool& pool, const FloatMatrix& points,
                       const core::BuildParams& params, Tracing& tracing) {
  TimedBuild tb;
  const double cpu0 = process_cpu_s();
  const auto t0 = std::chrono::steady_clock::now();
  {
    obs::Span span = tracing.span("bench.build_knng", kTrackBench);
    tb.result = core::build_knng(pool, points, params);
  }
  tb.wall_s = seconds_since(t0);
  tb.cpu_util = (process_cpu_s() - cpu0) /
                (tb.wall_s * static_cast<double>(pool.thread_count()));
  return tb;
}

double phase_sum_s(const core::BuildResult& r) {
  return r.forest_seconds + r.leaf_seconds + r.refine_seconds +
         r.rerank_seconds + r.extract_seconds;
}

/// Traced run: core::build_knng's phase timings must add up to the build's wall
/// time measured around the call.
void check_phase_sum(const core::BuildResult& r, double wall_s, Report& report) {
  const double gap = 1.0 - phase_sum_s(r) / wall_s;
  std::ostringstream os;
  os << "1 - sum(phases)/build wall = " << gap << ", tolerance " << kPhaseSumTol;
  report.check("phase_sum_matches_build", std::abs(gap) <= kPhaseSumTol, os.str());
}

/// Per-request queue + service accounting of a traced serve phase: joins the
/// flight recorder's per-request stamps to the serve_batch spans by span id
/// and returns the residual total − (queue + batch span) per request.
std::vector<double> accounting_residuals(const obs::Tracer& tracer,
                                         const obs::FlightRecorder& flight) {
  std::unordered_map<std::uint64_t, double> batch_us;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name == "serve_batch") batch_us[ev.id] = ev.dur_us;
  }
  std::vector<double> residuals;
  for (const obs::FlightRecord& rec : flight.ring()) {
    if (rec.status != static_cast<std::uint8_t>(serve::QueryStatus::kOk)) continue;
    const auto it = batch_us.find(rec.span_id);
    if (it == batch_us.end()) continue;
    residuals.push_back(rec.total_us - (rec.queue_us + it->second));
  }
  return residuals;
}

std::size_t serve_pool_threads(std::size_t engine_workers) {
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  return cores > engine_workers ? cores - engine_workers : 1;
}

class Runner {
 public:
  Runner(const Spec& spec, const RunOptions& options, Report& report)
      : spec_(spec), opt_(options), report_(report), tracing_(options.trace) {}

  void run();

 private:
  Setup setup_once(std::size_t rep);
  void setup();
  void prepare_served();
  void note_build(const TimedBuild& tb, const std::string& name);
  void serve_phase();
  void measure(serve::ServeEngine& engine);
  void final_answers(serve::ServeEngine& engine);
  void open_loop_phase(serve::ServeEngine& engine);
  void finish();

  struct Writes {
    std::vector<double> write_us;   // scheduled time -> return
    std::vector<double> insert_us;  // call duration
    std::vector<double> erase_us;
    std::size_t attempted = 0;
    std::size_t failed = 0;
  };
  void run_writer(std::chrono::steady_clock::time_point start,
                  std::size_t count, Writes& out);
  /// Starts the churn writer on its fixed schedule for a phase of `seconds`
  /// (no thread on the other workloads).
  std::thread start_writer(double seconds, Writes& out);

  const Spec& spec_;
  const RunOptions& opt_;
  Report& report_;
  Tracing tracing_;
  ThreadPool pool_;
  // Serving keeps one core free for the client. Each engine worker joins its
  // own batch's parallel_for, so a pool of (nproc - workers) threads has at
  // most nproc - 1 threads computing; more would let the scheduler park a
  // server or client thread for milliseconds, and those stalls, not the
  // engine, would own the latency.
  ThreadPool serve_pool_{serve_pool_threads(spec_.serve.workers)};
  // serve-churn's dynamic index (its build and every write) gets the cores
  // the serving pool leaves, so writes beside reads do not oversubscribe the
  // host.
  ThreadPool write_pool_{std::max<std::size_t>(
      1, std::max(1u, std::thread::hardware_concurrency()) -
             serve_pool_.thread_count())};
  Setup s_;
  std::vector<double> setup_s_;
  std::vector<double> build_walls_;
  std::vector<double> build_cpu_;
  std::vector<double> build_recalls_;
  std::optional<core::BuildResult> last_build_;
  std::vector<std::uint64_t> evals_;  // distance evaluations of every build
  std::shared_ptr<const serve::GraphSnapshot> served_;
  double optimize_s_ = 0.0;
  double trace_overhead_ = 0.0;
  std::atomic<serve::ServeEngine*> publish_to_{nullptr};
  std::vector<double> publish_us_;  // written by the writer thread only
  Writes writes_;                   // every write of the run
  // Churn writer state, carried across phases: the live ids erases pick
  // from, the next insert row, and the write sequence number that keys each
  // write's kind.
  std::vector<std::uint32_t> live_;
  std::size_t next_insert_ = 0;
  std::size_t write_seq_ = 0;
};

Setup Runner::setup_once(std::size_t rep) {
  Setup s;
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span span = tracing_.span("bench.setup", kTrackBench);

  auto t = std::chrono::steady_clock::now();
  data::DatasetSpec ds;
  ds.kind = data::DatasetKind::kClusters;
  ds.n = spec_.n + spec_.insert_pool;
  ds.dim = spec_.dim;
  ds.clusters = spec_.clusters;
  ds.cluster_spread = kSpread;
  ds.seed = opt_.seed;
  FloatMatrix all = data::generate(ds);
  if (spec_.insert_pool > 0) {
    s.base = first_rows(all, spec_.n);
    s.inserts = FloatMatrix(spec_.insert_pool, spec_.dim);
    std::copy(all.data() + spec_.n * spec_.dim,
              all.data() + all.rows() * spec_.dim, s.inserts.data());
  } else {
    s.base = std::move(all);
  }
  s.queries = perturbed_rows(s.base, kQueryRows, kQuerySigma,
                             opt_.seed ^ 0xA5A5u);
  s.generate_s = seconds_since(t);

  t = std::chrono::steady_clock::now();
  s.truth = exact::sampled_ground_truth(pool_, s.base, kRecallK, kTruthSample,
                                        opt_.seed + 17);
  s.truth_s = seconds_since(t);

  if (spec_.kind == Kind::kServeChurn) {
    const std::string dir =
        opt_.work_dir + "/dynamic-" + std::to_string(rep);
    std::filesystem::remove_all(dir);
    dyn::DynamicParams dp;
    dp.on_publish = [this](std::shared_ptr<const serve::GraphSnapshot> snap) {
      serve::ServeEngine* engine = publish_to_.load(std::memory_order_acquire);
      if (engine == nullptr) return;
      obs::Span ps = tracing_.span("bench.publish", kTrackWrite);
      const auto p0 = std::chrono::steady_clock::now();
      engine->publish(std::move(snap));
      publish_us_.push_back(1e6 * seconds_since(p0));
    };
    const double cpu0 = process_cpu_s();
    t = std::chrono::steady_clock::now();
    {
      obs::Span ds_span = tracing_.span("bench.dynamic_build", kTrackBench);
      s.dynamic = std::make_unique<dyn::DynamicKnng>(write_pool_, spec_.build, s.base,
                                                     dir, std::move(dp));
    }
    s.build_s = seconds_since(t);
    s.build_cpu_util = (process_cpu_s() - cpu0) /
                       (s.build_s * static_cast<double>(write_pool_.thread_count()));
    s.dynamic_build_stats = s.dynamic->stats();
  }
  s.total_s = seconds_since(t0);
  return s;
}

void Runner::setup() {
  // Set up several times and keep the median: a later change that moves
  // work into set-up shows in setup_s. A traced run sets up once.
  const std::size_t reps = opt_.trace ? 1 : kSetups;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    if (opt_.trace) tracing_.install();
    // Release the previous set-up first so peak RSS measures one copy.
    s_ = Setup{};
    s_ = setup_once(rep);
    setup_s_.push_back(s_.total_s);
    if (s_.dynamic) {
      build_walls_.push_back(s_.build_s);
      build_cpu_.push_back(s_.build_cpu_util);
      const KnnGraph& g = s_.dynamic->snapshot()->graph;
      build_recalls_.push_back(sampled_recall_at_10(g, s_.truth));
      report_.check(std::string("graph_invariants.setup") += std::to_string(rep),
                    g.check_invariants(), "served graph rows sorted, unique, no self loops");
    }
  }
}

void Runner::prepare_served() {
  // Build workloads serve the graph of an untimed warm-up build (the first
  // build of a process pays first-touch page faults for every arena it
  // grows), relaid out for serving when the workload serves the optimized
  // layout. serve-churn serves its dynamic index's snapshot.
  if (spec_.kind != Kind::kBuild) {
    served_ = s_.dynamic->snapshot();
    return;
  }
  // Untraced: the traced run's one library build is its round-1 build.
  tracing_.uninstall();
  TimedBuild warm = timed_build(pool_, s_.base, spec_.build, tracing_);
  if (opt_.trace) tracing_.install();
  note_build(warm, "build0");
  auto snap = std::make_shared<serve::GraphSnapshot>(1, s_.base, warm.result.graph);
  if (spec_.serve.optimize) {
    const auto t = std::chrono::steady_clock::now();
    obs::Span span = tracing_.span("bench.optimize_serving", kTrackBench);
    snap->serving = std::make_shared<const opt::ServingGraph>(opt::optimize_serving(
        pool_, snap->base, snap->graph, spec_.serve.optimize_options));
    optimize_s_ = seconds_since(t);
  }
  served_ = std::move(snap);
  last_build_ = std::move(warm.result);
}

void Runner::note_build(const TimedBuild& tb, const std::string& name) {
  evals_.push_back(tb.result.stats.distance_evals);
  report_.count_ops(1, tb.result.health.degraded ? 1 : 0);
  report_.check("graph_invariants." + name, tb.result.graph.check_invariants(),
                "built graph rows sorted, unique, no self loops");
}

void Runner::run_writer(std::chrono::steady_clock::time_point start,
                        std::size_t count, Writes& out) {
  // Writes follow their own fixed schedule on this thread: three single-row
  // inserts, then an erase of a live id picked by counter hash, so every
  // stretch of the schedule has the same 75/25 mix and the graph after the
  // closed-loop phases is a pure function of the seed and --seconds.
  dyn::DynamicKnng& index = *s_.dynamic;
  if (write_seq_ == 0) {
    live_.resize(spec_.n);
    for (std::size_t i = 0; i < live_.size(); ++i) {
      live_[i] = static_cast<std::uint32_t>(i);
    }
  }
  const double gap_us = 1e6 / spec_.write_rate;
  for (std::size_t j = 0; j < count; ++j) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::micro>(
                                     gap_us * static_cast<double>(j)));
    wait_until(due);
    const bool erase = write_seq_ % 4 == 3;
    const std::uint64_t h = mix64(opt_.seed * 0x100000001B3ull + write_seq_++);
    const auto c0 = std::chrono::steady_clock::now();
    bool ok = true;
    try {
      if (erase) {
        obs::Span span = tracing_.span("bench.erase", kTrackWrite);
        const std::size_t pick = h % live_.size();
        const std::uint32_t id = live_[pick];
        live_[pick] = live_.back();
        live_.pop_back();
        ok = index.erase(std::span<const std::uint32_t>(&id, 1)) == 1;
      } else {
        obs::Span span = tracing_.span("bench.insert", kTrackWrite);
        FloatMatrix row(1, spec_.dim);
        const auto src = s_.inserts.row(next_insert_++ % s_.inserts.rows());
        std::copy(src.begin(), src.end(), row.row(0).begin());
        const std::vector<std::uint32_t> ids = index.insert(row);
        ok = ids.size() == 1;
        if (ok) live_.push_back(ids.front());
      }
    } catch (const std::exception&) {
      ok = false;
    }
    const auto done = std::chrono::steady_clock::now();
    const double call_us = std::chrono::duration<double, std::micro>(done - c0).count();
    (erase ? out.erase_us : out.insert_us).push_back(call_us);
    out.write_us.push_back(
        std::chrono::duration<double, std::micro>(done - due).count());
    ++out.attempted;
    if (!ok) ++out.failed;
  }
}

std::thread Runner::start_writer(double seconds, Writes& out) {
  if (spec_.kind != Kind::kServeChurn) return {};
  const auto start = std::chrono::steady_clock::now();
  const auto count =
      static_cast<std::size_t>(std::llround(spec_.write_rate * seconds));
  return std::thread([this, start, count, &out] { run_writer(start, count, out); });
}

void Runner::measure(serve::ServeEngine& engine) {
  // Rounds until the measured share of --seconds is spent: each round runs
  // one timed build (build workloads), a latency slice and a throughput
  // slice, so every end-to-end figure samples the whole run and a slow
  // stretch of the host weighs on all of them alike. The churn writer keeps
  // its fixed schedule through every round.
  //
  // A traced run traces round 1 only; its build (or, on serve-churn, its
  // latency p50) against the untraced rounds' median is the tracing
  // overhead, and its trace holds exactly one library build.
  const double budget_s = kMeasureShare * opt_.seconds;
  const std::size_t min_rounds = spec_.kind == Kind::kBuild ? kMinTimedBuilds : 2;
  std::thread writer = start_writer(budget_s, writes_);
  std::vector<double> lat;
  std::vector<double> rates;
  std::vector<double> untraced_walls, untraced_p50s;
  double traced_wall = 0.0, traced_p50 = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t round = 0;
       round < min_rounds || seconds_since(t0) < budget_s; ++round) {
    const bool traced = opt_.trace && round == 1;
    if (traced) tracing_.install(); else tracing_.uninstall();

    if (spec_.kind == Kind::kBuild) {
      TimedBuild tb = timed_build(pool_, s_.base, spec_.build, tracing_);
      note_build(tb, "build" + std::to_string(round + 1));
      build_walls_.push_back(tb.wall_s);
      build_cpu_.push_back(tb.cpu_util);
      build_recalls_.push_back(sampled_recall_at_10(tb.result.graph, s_.truth));
      if (traced) {
        traced_wall = tb.wall_s;
        check_phase_sum(tb.result, tb.wall_s, report_);
      } else {
        untraced_walls.push_back(tb.wall_s);
      }
      last_build_ = std::move(tb.result);
    }

    // Latency: one caller waiting for each answer before it asks again.
    {
      obs::Span span = tracing_.span("bench.serve_latency", kTrackBench);
      ClosedLoopConfig cfg;
      cfg.outstanding = 1;
      cfg.seconds = spec_.latency_slice_s;
      cfg.tag_base = round * 10'000'000ull;
      const ClosedLoopResult r = run_closed_loop(engine, s_.queries, cfg);
      report_.count_ops(r.attempted, r.failed);
      const double p50 = median(r.latency_us);
      if (traced) traced_p50 = p50; else untraced_p50s.push_back(p50);
      lat.insert(lat.end(), r.latency_us.begin(), r.latency_us.end());
    }
    // Throughput: enough callers that every engine worker always finds a
    // full micro-batch waiting (two more queued behind each running one);
    // serve.closed_loop_qps is the median answer rate over blocks of answers.
    {
      obs::Span span = tracing_.span("bench.serve_throughput", kTrackBench);
      ClosedLoopConfig cfg;
      cfg.outstanding = 3 * spec_.serve.max_batch * spec_.serve.workers;
      cfg.seconds = spec_.throughput_slice_s;
      cfg.tag_base = 500'000'000ull + round * 10'000'000ull;
      const ClosedLoopResult r = run_closed_loop(engine, s_.queries, cfg);
      report_.count_ops(r.attempted, r.failed);
      const std::vector<double> b = block_rates(r.done_us, kRateBlock, cfg.seconds * 1e6);
      rates.insert(rates.end(), b.begin(), b.end());
    }
  }
  if (writer.joinable()) writer.join();
  if (opt_.trace) {
    tracing_.install();
    trace_overhead_ = spec_.kind == Kind::kBuild
                          ? traced_wall / median(untraced_walls) - 1.0
                          : traced_p50 / median(untraced_p50s) - 1.0;
  }
  if (spec_.kind == Kind::kBuild) {
    const bool repeat = std::all_of(evals_.begin(), evals_.end(), [&](std::uint64_t e) {
      return e == evals_.front();
    });
    if (spec_.build.strategy == core::Strategy::kTiled) {
      report_.check("distance_evals_repeat", repeat,
                    "tiled builds of one input evaluate the same distances");
    }
    report_.meta("distance_evals", std::to_string(evals_.front()));
  }
  report_.metric("query_p50_us", median(lat), "us");
  report_.metric("query_p99_us", quantile(lat, 0.99), "us");
  report_.meta_num("latency_samples", static_cast<double>(lat.size()));
  report_.metric("serve.closed_loop_qps", median(rates), "1/s");
  std::ostringstream bj;
  bj << "[";
  for (std::size_t i = 0; i < rates.size(); ++i) bj << (i ? "," : "") << rates[i];
  bj << "]";
  report_.meta("throughput_block_qps", bj.str());
}

void Runner::final_answers(serve::ServeEngine& engine) {
  // The final snapshot re-answers the first queries through the engine; the
  // same snapshot searched directly must give the same ids, and brute force
  // over its live rows scores them.
  obs::Span final_span = tracing_.span("bench.serve_final", kTrackBench);
  const auto snap = engine.snapshot();
  FloatMatrix finalq = first_rows(s_.queries, kFinalQueries);
  std::vector<std::uint64_t> tags(finalq.rows());
  std::vector<std::future<serve::QueryResult>> futs;
  for (std::size_t i = 0; i < finalq.rows(); ++i) {
    tags[i] = kFinalTagBase + i;
    const auto row = finalq.row(i);
    futs.push_back(engine.submit(std::vector<float>(row.begin(), row.end()), 0,
                                 tags[i]));
  }
  std::vector<std::vector<std::uint32_t>> served(finalq.rows());
  std::size_t final_failed = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const serve::QueryResult qr = futs[i].get();
    if (qr.status != serve::QueryStatus::kOk) ++final_failed;
    for (const Neighbor& nb : qr.neighbors) served[i].push_back(nb.id);
  }
  report_.count_ops(finalq.rows(), final_failed);
  final_span.finish();

  // Direct calls on the same snapshot, with the engine's parameters.
  core::SearchScratch scratch;
  auto to_ids = [&](const core::BatchSearchResult& r) {
    std::vector<std::vector<std::uint32_t>> ids(r.results.num_points());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const auto row = r.results.row(i);
      for (std::size_t j = 0; j < r.results.row_size(i); ++j) {
        ids[i].push_back(snap->external_id(row[j].id));
      }
    }
    return ids;
  };
  std::vector<double> raw_us;
  core::BatchSearchResult raw_result;
  for (int rep = 0; rep < 3; ++rep) {
    obs::Span span = tracing_.span("bench.graph_search_batch", kTrackBench);
    const auto t0 = std::chrono::steady_clock::now();
    raw_result = core::graph_search_batch(serve_pool_, snap->base, snap->graph, finalq,
                                          tags, spec_.serve.search, &scratch, nullptr,
                                          nullptr, snap->exclusion_mask());
    raw_us.push_back(1e6 * seconds_since(t0) / static_cast<double>(finalq.rows()));
  }
  report_.metric("core.search_us_per_query", median(raw_us), "us");
  std::vector<std::vector<std::uint32_t>> direct = to_ids(raw_result);

  const opt::ServingGraph* layout = snap->serving_layout();
  if (layout != nullptr) {
    core::SearchParams p = spec_.serve.search;
    p.patience = spec_.serve.patience;
    p.visit_budget = spec_.serve.visit_budget;
    std::vector<double> opt_us;
    core::BatchSearchResult r;
    for (int rep = 0; rep < 3; ++rep) {
      obs::Span span = tracing_.span("bench.serving_search_batch", kTrackBench);
      const auto t0 = std::chrono::steady_clock::now();
      r = core::serving_search_batch(serve_pool_, *layout, finalq, tags, p,
                                     snap->serving_exclusion(), &scratch);
      opt_us.push_back(1e6 * seconds_since(t0) / static_cast<double>(finalq.rows()));
    }
    double visits = 0.0;
    for (const std::uint64_t v : r.visits) visits += static_cast<double>(v);
    report_.metric("opt.search_us_per_query", median(opt_us), "us");
    report_.metric("opt.visits_per_query",
                   visits / static_cast<double>(finalq.rows()), "count");
    report_.metric("opt.edges_kept_frac",
                   static_cast<double>(layout->edges_after) /
                       static_cast<double>(layout->edges_before),
                   "ratio");
    direct = to_ids(r);
  } else {
    report_.metric("opt.search_us_per_query", 0.0, "us");
    report_.metric("opt.visits_per_query", 0.0, "count");
    report_.metric("opt.edges_kept_frac", 0.0, "ratio");
  }
  const std::uint64_t engine_digest = answer_digest(tags, served);
  const std::uint64_t direct_digest = answer_digest(tags, direct);
  report_.check("answers_match_direct_search", engine_digest == direct_digest,
                "digest of engine answers equals the direct search's");
  report_.meta("answers_digest", hex(engine_digest));

  // Recall against brute force over the snapshot's live rows.
  const auto mask = snap->exclusion_mask();
  std::vector<std::uint32_t> live_ext;
  for (std::size_t r = 0; r < snap->base.rows(); ++r) {
    if (mask.empty() || mask[r] == 0) live_ext.push_back(snap->external_id(static_cast<std::uint32_t>(r)));
  }
  FloatMatrix live(live_ext.size(), snap->base.cols());
  for (std::size_t r = 0, j = 0; r < snap->base.rows(); ++r) {
    if (!mask.empty() && mask[r] != 0) continue;
    const auto src = snap->base.row(r);
    std::copy(src.begin(), src.end(), live.row(j++).begin());
  }
  const KnnGraph truth = exact::brute_force_knn(pool_, live, finalq, kRecallK);
  double recall_sum = 0.0;
  for (std::size_t i = 0; i < finalq.rows(); ++i) {
    std::size_t hit = 0;
    const auto trow = truth.row(i);
    for (std::size_t j = 0; j < truth.row_size(i); ++j) {
      const std::uint32_t want = live_ext[trow[j].id];
      hit += std::count(served[i].begin(), served[i].end(), want) > 0 ? 1 : 0;
    }
    recall_sum += static_cast<double>(hit) / static_cast<double>(kRecallK);
  }
  const double qrecall = recall_sum / static_cast<double>(finalq.rows());
  report_.metric("query_recall_at_10", qrecall, "ratio");
  std::ostringstream os;
  os << "query recall@10 " << qrecall << " >= floor " << spec_.query_recall_floor;
  report_.check("query_recall_floor", qrecall >= spec_.query_recall_floor, os.str());
}

void Runner::open_loop_phase(serve::ServeEngine& engine) {
  // Traced run only, after the final answers (so its writes cannot change
  // the graph they pin): independent users at a fixed offered rate, each
  // request timed from when it was due. It gives the serve layer's queue and
  // service split, the generator's lateness, and the per-request accounting
  // check against the serve_batch spans.
  const serve::ServeMetrics& em = engine.metrics();
  const std::uint64_t batches0 = em.batches.value();
  const std::uint64_t bsize_n0 = em.batch_size.count();
  const double bsize_sum0 = em.batch_size.sum();
  const std::uint64_t shed0 = em.shed.value();
  const std::uint64_t timed0 = em.timed_out.value();

  const double seconds = 0.2 * opt_.seconds;
  std::thread writer = start_writer(seconds, writes_);
  obs::FlightOptions fo;
  fo.capacity = 1u << 18;
  obs::FlightRecorder flight(fo);
  OpenLoopResult r;
  {
    obs::Span span = tracing_.span("bench.serve_open_loop", kTrackBench);
    obs::ScopedFlightRecording rec(flight);
    OpenLoopConfig cfg;
    cfg.rate_qps = kOpenLoopQps;
    cfg.seconds = seconds;
    cfg.seed = opt_.seed * 7919;
    cfg.tag_base = 300'000'000ull;
    cfg.tracer = tracing_.active();
    r = run_open_loop(engine, s_.queries, cfg);
  }
  if (writer.joinable()) writer.join();

  std::size_t failed = 0;
  std::vector<double> queue_us;
  std::vector<double> service_us;
  for (const RequestSample& x : r.samples) {
    if (!x.ok) {
      ++failed;
      continue;
    }
    queue_us.push_back(x.queue_us);
    service_us.push_back(x.total_us - x.queue_us);
  }
  report_.count_ops(r.samples.size(), failed);
  const std::vector<double> lat = latencies_from_due(r.samples);
  const double p50 = quantile(lat, 0.5);
  const double lag_p99 = quantile(send_lags(r.samples), 0.99);
  report_.metric("driver.offered_qps", kOpenLoopQps, "1/s");
  report_.metric("driver.achieved_qps",
                 static_cast<double>(r.samples.size()) / (r.elapsed_us * 1e-6), "1/s");
  report_.metric("driver.send_lag_p99_us", lag_p99, "us");
  report_.metric("driver.open_loop_p50_us", p50, "us");
  report_.metric("driver.open_loop_p99_us", quantile(lat, 0.99), "us");
  report_.meta_num("open_loop_samples", static_cast<double>(r.samples.size()));
  if (lag_p99 > 0.5 * p50) {
    report_.warn("generator send lag p99 rivals the open-loop p50: those "
                 "latencies are dominated by the load generator, not the engine");
  }
  if (backlog_growing(r.samples, r.window_us, kBacklogSlack)) {
    report_.warn("the open-loop phase grew a backlog: its offered rate is past "
                 "the engine's capacity on this host");
  }
  report_.metric("serve.queue_us_p50", quantile(queue_us, 0.5), "us");
  report_.metric("serve.queue_us_p99", quantile(queue_us, 0.99), "us");
  report_.metric("serve.service_us_p50", quantile(service_us, 0.5), "us");
  const std::uint64_t bsize_n = em.batch_size.count() - bsize_n0;
  report_.metric("serve.batch_size_mean",
                 bsize_n == 0 ? 0.0 : (em.batch_size.sum() - bsize_sum0) /
                                          static_cast<double>(bsize_n),
                 "count");
  report_.metric("serve.batches", static_cast<double>(em.batches.value() - batches0),
                 "count");
  report_.metric("serve.shed", static_cast<double>(em.shed.value() - shed0), "count");
  report_.metric("serve.timed_out",
                 static_cast<double>(em.timed_out.value() - timed0), "count");

  const std::vector<double> res = accounting_residuals(*tracing_.tracer(), flight);
  std::vector<double> abs_res;
  for (const double x : res) abs_res.push_back(std::abs(x));
  // p95, not p99: a host stall during one batch's fan-out stretches that
  // batch's span past its requests' answers, and says nothing about the
  // accounting.
  const double p95_res = res.empty() ? kInf : quantile(abs_res, 0.95);
  const double tol = kAccountingTolUs + kAccountingTolFrac * p50;
  std::ostringstream os;
  os << res.size() << " requests joined to serve_batch spans; |total - "
     << "(queue + batch span)| p95 = " << p95_res << " us, tolerance " << tol
     << " us";
  report_.check("queue_plus_service_equals_total", !res.empty() && p95_res <= tol,
                os.str());
}

void Runner::serve_phase() {
  // On serve-churn every write republishes the served snapshot.
  serve::ServeEngine engine(serve_pool_, spec_.serve, served_);
  publish_to_.store(&engine, std::memory_order_release);

  const std::uint64_t wal0 = s_.dynamic ? s_.dynamic->metrics().wal_bytes.value() : 0;
  const std::uint64_t repairs0 = s_.dynamic ? s_.dynamic->metrics().repairs.value() : 0;
  const std::uint64_t compactions0 =
      s_.dynamic ? s_.dynamic->metrics().compactions.value() : 0;

  measure(engine);
  final_answers(engine);
  if (opt_.trace) open_loop_phase(engine);
  report_.count_ops(writes_.attempted, writes_.failed);
  report_.metric("serve.publish_us_p50",
                 publish_us_.empty() ? 0.0 : median(publish_us_), "us");

  if (s_.dynamic) {
    report_.metric("dynamic.write_p50_us", quantile(writes_.write_us, 0.5), "us");
    report_.metric("dynamic.write_p95_us", quantile(writes_.write_us, 0.95), "us");
    report_.metric("dynamic.insert_us_p50", quantile(writes_.insert_us, 0.5), "us");
    report_.metric("dynamic.erase_us_p50", quantile(writes_.erase_us, 0.5), "us");
    const dyn::DynamicMetrics& dm = s_.dynamic->metrics();
    const auto snap = s_.dynamic->snapshot();
    report_.metric("dynamic.publish_bytes",
                   static_cast<double>(snap->base.rows()) *
                       (4.0 * static_cast<double>(spec_.dim) +
                        8.0 * static_cast<double>(spec_.build.k)),
                   "bytes");
    report_.metric("dynamic.repairs", static_cast<double>(dm.repairs.value() - repairs0),
                   "count");
    report_.metric("dynamic.compactions",
                   static_cast<double>(dm.compactions.value() - compactions0), "count");
    report_.metric("dynamic.wal_bytes_per_write",
                   writes_.attempted == 0
                       ? 0.0
                       : static_cast<double>(dm.wal_bytes.value() - wal0) /
                             static_cast<double>(writes_.attempted),
                   "bytes");
    report_.meta_num("writes", static_cast<double>(writes_.attempted));
  } else {
    for (const char* name : {"dynamic.write_p50_us", "dynamic.write_p95_us",
                             "dynamic.insert_us_p50", "dynamic.erase_us_p50"}) {
      report_.metric(name, 0.0, "us");
    }
    report_.metric("dynamic.publish_bytes", 0.0, "bytes");
    report_.metric("dynamic.repairs", 0.0, "count");
    report_.metric("dynamic.compactions", 0.0, "count");
    report_.metric("dynamic.wal_bytes_per_write", 0.0, "bytes");
  }

  publish_to_.store(nullptr, std::memory_order_release);
  engine.stop();
}

void Runner::finish() {
  report_.metric("setup_s", median(setup_s_), "s");
  report_.metric("build_s", median(build_walls_), "s");
  const double brecall = median(build_recalls_);
  report_.metric("build_recall_at_10", brecall, "ratio");
  {
    std::ostringstream os;
    os << "build recall@10 " << brecall << " >= floor " << spec_.build_recall_floor;
    report_.check("build_recall_floor", brecall >= spec_.build_recall_floor,
                  os.str());
  }
  report_.metric("peak_rss_mb", peak_rss_mb(), "MB");
  const double attempted = static_cast<double>(report_.attempted());
  report_.metric("success_rate",
                 attempted == 0 ? 0.0
                                : 1.0 - static_cast<double>(report_.failed()) / attempted,
                 "ratio");

  // Layer ledger.
  wknng::simt::Stats st;
  if (last_build_) {
    const core::BuildResult& b = *last_build_;
    st = b.stats;
    report_.metric("core.forest_s", b.forest_seconds, "s");
    report_.metric("core.leaf_s", b.leaf_seconds, "s");
    report_.metric("core.refine_s", b.refine_seconds, "s");
    report_.metric("core.extract_s", b.extract_seconds, "s");
    const double wall = build_walls_.back();
    report_.metric("core.phase_gap_frac", 1.0 - phase_sum_s(b) / wall, "ratio");
    report_.metric("core.buckets", static_cast<double>(b.num_buckets), "count");
  } else {
    // The dynamic index builds through the pipeline functions directly and
    // reports no per-phase timings.
    st = s_.dynamic_build_stats;
    for (const char* name :
         {"core.forest_s", "core.leaf_s", "core.refine_s", "core.extract_s"}) {
      report_.metric(name, 0.0, "s");
    }
    report_.metric("core.phase_gap_frac", 0.0, "ratio");
    report_.metric("core.buckets", 0.0, "count");
  }
  report_.metric("simt.distance_evals", static_cast<double>(st.distance_evals), "count");
  report_.metric("simt.atomic_ops", static_cast<double>(st.atomic_ops), "count");
  report_.metric("simt.cas_retries", static_cast<double>(st.cas_retries), "count");
  report_.metric("simt.cas_retry_ratio",
                 st.atomic_ops == 0 ? 0.0
                                    : static_cast<double>(st.cas_retries) /
                                          static_cast<double>(st.atomic_ops),
                 "ratio");
  report_.metric("simt.lock_spins", static_cast<double>(st.lock_spins), "count");
  report_.metric("simt.global_read_bytes", static_cast<double>(st.global_reads), "bytes");
  report_.metric("simt.global_write_bytes", static_cast<double>(st.global_writes), "bytes");
  report_.metric("simt.warp_collectives", static_cast<double>(st.warp_collectives), "count");
  report_.metric("simt.warps_executed", static_cast<double>(st.warps_executed), "count");
  report_.metric("kernels.flops", static_cast<double>(st.flops), "count");
  const double bytes = static_cast<double>(st.global_reads + st.global_writes);
  report_.metric("kernels.flops_per_byte",
                 bytes == 0.0 ? 0.0 : static_cast<double>(st.flops) / bytes,
                 "ratio");
  report_.metric("common.cpu_util", median(build_cpu_), "ratio");
  report_.metric("data.generate_s", s_.generate_s, "s");
  report_.metric("exact.truth_s", s_.truth_s, "s");
  report_.metric("opt.optimize_s", optimize_s_, "s");
  report_.metric("obs.trace_overhead_frac", trace_overhead_, "ratio");

  // Host and run metadata.
  report_.meta_str("workload", spec_.name);
  report_.meta_num("seed", static_cast<double>(opt_.seed));
  report_.meta_num("seconds", opt_.seconds);
  report_.meta("trace", opt_.trace ? "true" : "false");
  report_.meta_num("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report_.meta_num("pool_threads", static_cast<double>(pool_.thread_count()));
  report_.meta_num("serve_pool_threads",
                   static_cast<double>(serve_pool_.thread_count()));
  report_.meta_num("write_pool_threads",
                   static_cast<double>(write_pool_.thread_count()));
  report_.meta("build_info", obs::to_json(obs::build_info()));
  // Every field that can change the graph or the answers; run.py keys the
  // answer fingerprint by them (builds and setups excepted).
  std::ostringstream sizes;
  sizes << "{\"n\":" << spec_.n << ",\"dim\":" << spec_.dim
        << ",\"clusters\":" << spec_.clusters << ",\"spread\":" << kSpread
        << ",\"k\":" << spec_.build.k << ",\"strategy\":\""
        << core::strategy_name(spec_.build.strategy) << "\",\"trees\":"
        << spec_.build.num_trees << ",\"leaf\":" << spec_.build.leaf_size
        << ",\"refine_iters\":" << spec_.build.refine_iters
        << ",\"beam\":" << spec_.serve.search.beam
        << ",\"entry_sample\":" << spec_.serve.search.entry_sample
        << ",\"optimize\":" << (spec_.serve.optimize ? "true" : "false")
        << ",\"min_degree\":" << spec_.serve.optimize_options.min_degree
        << ",\"write_rate\":" << spec_.write_rate
        << ",\"writes_before_final\":"
        << std::llround(spec_.write_rate * kMeasureShare * opt_.seconds)
        << ",\"builds\":" << build_walls_.size()
        << ",\"setups\":" << setup_s_.size() << "}";
  report_.meta("sizes", sizes.str());
  std::ostringstream walls;
  walls << "{\"setup_s\":[";
  for (std::size_t i = 0; i < setup_s_.size(); ++i) walls << (i ? "," : "") << setup_s_[i];
  walls << "],\"build_s\":[";
  for (std::size_t i = 0; i < build_walls_.size(); ++i) walls << (i ? "," : "") << build_walls_[i];
  walls << "]}";
  report_.meta("repetitions", walls.str());
}

/// Traced run: the library's spans must sit inside the benchmark's spans
/// around the public calls that caused them (by start time), and the trace
/// must hold launch and serve_batch spans.
void check_trace_nesting(const obs::Tracer& tracer, bool expect_build,
                         Report& report) {
  const std::vector<obs::TraceEvent> events = tracer.events();
  std::vector<const obs::TraceEvent*> bench;
  for (const obs::TraceEvent& ev : events) {
    // Only the spans the library's spans must nest in: one per build and serve
    // phase, not one per request.
    if (ev.cat == "bench" && (ev.name.rfind("bench.build_knng", 0) == 0 ||
                              ev.name.rfind("bench.serve_", 0) == 0)) {
      bench.push_back(&ev);
    }
  }
  const auto inside = [&](const obs::TraceEvent& ev, const std::string& prefix) {
    for (const obs::TraceEvent* b : bench) {
      if (b->name.rfind(prefix, 0) == 0 && b->ts_us <= ev.ts_us &&
          ev.ts_us <= b->ts_us + b->dur_us) {
        return true;
      }
    }
    return false;
  };
  std::size_t builds = 0, builds_in = 0, batches = 0, batches_in = 0, launches = 0;
  for (const obs::TraceEvent& ev : events) {
    if (ev.cat == "launch") ++launches;
    if (ev.name == "build" && ev.cat != "bench") {
      ++builds;
      builds_in += inside(ev, "bench.build_knng") ? 1 : 0;
    } else if (ev.name == "serve_batch") {
      ++batches;
      batches_in += inside(ev, "bench.serve_") ? 1 : 0;
    }
  }
  std::ostringstream os;
  os << builds_in << "/" << builds << " library build spans inside bench.build_knng, "
     << batches_in << "/" << batches << " serve_batch spans inside bench.serve_*, "
     << launches << " launch spans";
  const bool ok = (expect_build ? builds == 1 && builds_in == 1 : builds == 0) &&
                  batches > 0 && batches_in == batches && launches > 0;
  report.check("trace_nesting", ok, os.str());
}

void Runner::run() {
  setup();
  prepare_served();
  serve_phase();
  s_.dynamic.reset();
  finish();
  tracing_.uninstall();
  if (tracing_.enabled()) {
    check_trace_nesting(*tracing_.tracer(), spec_.kind == Kind::kBuild, report_);
    tracing_.tracer()->write_chrome_json(opt_.trace_path);
  }
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Spec& s : all_specs()) names.push_back(s.name);
  return names;
}

void run_workload(const RunOptions& options, Report& report) {
  for (const Spec& s : all_specs()) {
    if (s.name != options.workload) continue;
    Runner runner(s, options, report);
    runner.run();
    return;
  }
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
