#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/thread_pool.hpp"
#include "simt/schedule.hpp"
#include "simt/scratch.hpp"
#include "simt/stats.hpp"
#include "simt/warp.hpp"

namespace wknng::simt {

/// Launch-time configuration of a warp grid — the substrate's analogue of
/// CUDA's <<<grid, block, smem>>> triple, reduced to what a warp-centric
/// kernel needs: how many warps, how much scratch each owns, how many
/// warp tasks one worker claims at a time (scheduling granularity), and
/// which schedule policy orders the warp tasks (see simt/schedule.hpp).
struct LaunchConfig {
  std::size_t scratch_bytes = WarpScratch::kDefaultBytes;
  std::size_t grain = 1;  ///< consecutive warp ids claimed per scheduling step
  ScheduleSpec schedule;  ///< kDynamic (default) or a deterministic replay
  /// Kernel name shown on launch spans when a tracer is active (obs/trace.hpp);
  /// a null label traces as "launch". Must point at a string literal or
  /// storage outliving the launch.
  const char* trace_label = nullptr;
};

/// Executes `body(warp)` for warp ids [0, num_warps) on the thread pool.
///
/// Scheduling model: the pool's workers are the SM's warp slots; warps are
/// claimed dynamically (like greedy-then-oldest hardware scheduling, this
/// absorbs the skewed leaf sizes of an RP forest). Each worker thread owns a
/// persistent WarpScratch (its shared-memory partition) that is reset before
/// every warp task. Each warp counts into its own Stats (what race/fault
/// bindings and per-warp trace spans see); a thread sums the Stats of the
/// warps it ran and flushes the sum into `acc` (if non-null) once per
/// launch, so instrumentation takes the accumulator's lock once per thread,
/// not once per warp. A warp that throws contributes nothing.
///
/// With a deterministic SchedulePolicy the warps are instead replayed one at
/// a time on the calling thread in the policy's order — the schedule fuzzer:
/// running the same kernel under several policies/seeds surfaces
/// order-dependent results deterministically. Either way, an installed
/// RaceDetector (simt/race.hpp) is notified of the launch barrier and every
/// warp task is bound to it.
///
/// Kernels requiring a device-wide barrier are expressed as consecutive
/// launches, exactly as on real hardware.
void launch_warps(ThreadPool& pool, std::size_t num_warps,
                  const LaunchConfig& config, StatsAccumulator* acc,
                  const std::function<void(Warp&)>& body);

/// Overload with default config.
inline void launch_warps(ThreadPool& pool, std::size_t num_warps,
                         StatsAccumulator* acc,
                         const std::function<void(Warp&)>& body) {
  launch_warps(pool, num_warps, LaunchConfig{}, acc, body);
}

}  // namespace wknng::simt
