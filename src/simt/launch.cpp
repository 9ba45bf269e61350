#include "simt/launch.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <optional>

#include "obs/trace.hpp"
#include "simt/fault.hpp"
#include "simt/race.hpp"

namespace wknng::simt {

namespace {

/// One scratch arena per worker thread, reused across launches.
WarpScratch& thread_scratch(std::size_t capacity) {
  thread_local WarpScratch scratch;
  scratch.set_budget(capacity);  // exact budget: small launches must not
                                 // inherit a previous launch's headroom
  return scratch;
}

/// Binds/unbinds the running thread to a warp in the race detector, safely
/// across exceptions thrown by the kernel body.
class WarpBinding {
 public:
  WarpBinding(RaceDetector* det, std::uint32_t warp_id, Stats* stats)
      : det_(det) {
    if (det_ != nullptr) det_->enter_warp(warp_id, stats);
  }
  ~WarpBinding() {
    if (det_ != nullptr) det_->exit_warp();
  }

 private:
  RaceDetector* det_;
};

/// Same, for the fault injector: bound warps draw per-warp fault decisions
/// instead of sharing the host opportunity counter.
class FaultWarpBinding {
 public:
  FaultWarpBinding(FaultInjector* inj, std::uint32_t warp_id) : inj_(inj) {
    if (inj_ != nullptr) inj_->enter_warp(warp_id);
  }
  ~FaultWarpBinding() {
    if (inj_ != nullptr) inj_->exit_warp();
  }

 private:
  FaultInjector* inj_;
};

/// The Stats of the warps one thread ran in one launch, added to the
/// launch's accumulator once, when the thread leaves the launch (normally or
/// by exception). Stats merge by integer sums and a max, so the totals equal
/// a per-warp flush while the accumulator's mutex is taken once per thread
/// instead of once per warp.
class ThreadTotal {
 public:
  explicit ThreadTotal(StatsAccumulator* acc) : acc_(acc) {}
  ~ThreadTotal() {
    if (acc_ != nullptr && sum_.warps_executed != 0) acc_->flush(sum_);
  }

  ThreadTotal(const ThreadTotal&) = delete;
  ThreadTotal& operator=(const ThreadTotal&) = delete;

  void add(const Stats& warp) {
    if (acc_ != nullptr) sum_ += warp;
  }

 private:
  StatsAccumulator* acc_;
  Stats sum_;
};

}  // namespace

void launch_warps(ThreadPool& pool, std::size_t num_warps,
                  const LaunchConfig& config, StatsAccumulator* acc,
                  const std::function<void(Warp&)>& body) {
  RaceDetector* det = active_race_detector();
  if (det != nullptr) det->begin_epoch();  // a launch is a device-wide barrier

  FaultInjector* inj = active_fault_injector();
  if (inj != nullptr) {
    // Register the launch before the allocation fault point: a retried
    // launch gets a new launch index and thus fresh fault decisions.
    inj->begin_launch();
    fault_maybe_throw(FaultSite::kLaunchAlloc);  // "device OOM" at grid setup
  }

  // Same hook shape as the race/fault detectors: one acquire load, and a
  // null tracer keeps the whole block dead.
  obs::Tracer* tr = obs::active_tracer();
  std::uint64_t phase_idx = 0;
  std::uint64_t launch_idx = 0;
  std::optional<obs::Span> launch_span;
  if (tr != nullptr) {
    phase_idx = tr->current_phase();
    launch_idx = tr->next_launch();
    launch_span.emplace(
        tr, config.trace_label != nullptr ? config.trace_label : "launch",
        "launch",
        obs::Tracer::span_id(phase_idx, launch_idx, 0, obs::SpanSalt::kLaunch),
        obs::kTrackLaunch);
    launch_span->arg_num("num_warps", static_cast<std::uint64_t>(num_warps));
  }

  const auto run_one = [&](std::size_t warp_id, ThreadTotal& total) {
    WarpScratch& scratch = thread_scratch(config.scratch_bytes);
    scratch.reset();
    scratch.reset_peak();

    // Optional per-warp span: consecutive grains share a warp-group track so
    // wide launches stay readable. The span opens before the body (so its
    // duration covers the kernel) and closes with the warp's stats attached.
    std::optional<obs::Span> ws;
    if (tr != nullptr && tr->warp_spans()) {
      const std::uint64_t group =
          warp_id / (config.grain > 0 ? config.grain : 1);
      ws.emplace(tr, "warp", "warp",
                 obs::Tracer::span_id(phase_idx, launch_idx, warp_id,
                                      obs::SpanSalt::kWarp),
                 obs::kTrackWarpBase +
                     static_cast<std::uint32_t>(group % obs::kNumWarpTracks));
    }

    Stats local;
    Warp warp(static_cast<std::uint32_t>(warp_id), scratch, local);
    {
      WarpBinding binding(det, static_cast<std::uint32_t>(warp_id), &local);
      FaultWarpBinding fault_binding(inj,
                                     static_cast<std::uint32_t>(warp_id));
      body(warp);
    }

    local.warps_executed = 1;
    local.scratch_bytes_peak = scratch.peak_used();

    if (ws) {
      ws->arg_num("warp_id", static_cast<std::uint64_t>(warp_id));
      ws->arg("stats", local.to_json());
      ws->finish();
    }

    total.add(local);
  };

  if (!is_deterministic(config.schedule)) {
    // One task per pool thread, each claiming `grain` consecutive warp ids
    // at a time from the launch's cursor until the grid is drained — the
    // pool's own dynamic claiming, with the thread's Stats kept across its
    // warps. As in the pool, a throwing warp skips the rest of its claimed
    // block, the other blocks still run, and the first error is rethrown.
    const std::size_t grain = std::max<std::size_t>(1, config.grain);
    const std::size_t blocks = (num_warps + grain - 1) / grain;
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    pool.parallel_for(std::min(pool.thread_count(), blocks), [&](std::size_t) {
      ThreadTotal total(acc);
      for (;;) {
        const std::size_t begin =
            cursor.fetch_add(grain, std::memory_order_relaxed);
        if (begin >= num_warps) return;
        const std::size_t end = std::min(begin + grain, num_warps);
        try {
          for (std::size_t w = begin; w < end; ++w) run_one(w, total);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!error) error = std::current_exception();
        }
      }
    });
    if (error) std::rethrow_exception(error);
    return;
  }
  // Deterministic replay: the policy's order, one warp at a time on the
  // calling thread. Shadow state still flags lock-discipline violations
  // (detection is access-set based, not interleaving based), and any
  // order-dependence of the kernel's result reproduces on every run.
  ThreadTotal total(acc);
  for (const std::size_t warp_id :
       schedule_order(num_warps, config.grain, config.schedule)) {
    run_one(warp_id, total);
  }
}

}  // namespace wknng::simt
