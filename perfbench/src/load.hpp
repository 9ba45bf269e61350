#pragma once
// Request generators of the benchmark; both only read, writes (if any) run
// on their own thread in the caller.
//
// Closed loop: callers that each wait for their answer before sending the
// next request, a fixed number of them. The end-to-end serving metrics come
// from it: a host stall delays only the requests in flight, so medians over
// a run stay put on a shared host.
//
// Open loop: independent users arriving as a Poisson process at a fixed
// offered rate; every request carries the time it was due, so latency is
// charged from the schedule, not from whenever the generator got round to
// sending it. The send loop never waits for an answer, so a slow answer
// cannot delay the next send. The traced run uses it for the serve layer's
// queue/service split and the generator's own lateness.

#include <chrono>
#include <cstdint>
#include <vector>

#include "common/matrix.hpp"
#include "stats.hpp"

namespace wknng::obs {
class Tracer;
}  // namespace wknng::obs

namespace wknng::serve {
class ServeEngine;
}  // namespace wknng::serve

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Exponential inter-arrival schedule (serve::open_loop_schedule) cut at the
/// window: due times in microseconds from the phase start for every arrival
/// before `seconds`, a pure function of (rate, seconds, seed).
std::vector<double> poisson_schedule(double rate_qps, double seconds,
                                     std::uint64_t seed);

/// Sleeps (coarse) then yields (fine) until `due`; returns the actual time.
Clock::time_point wait_until(Clock::time_point due);

struct OpenLoopConfig {
  double rate_qps = 1000.0;
  double seconds = 1.0;
  std::uint64_t seed = 1;
  /// Request i is query row (i % rows) and runs under tag tag_base + i.
  std::uint64_t tag_base = 0;
  /// When set, every submit call is recorded as a "bench.submit" span.
  wknng::obs::Tracer* tracer = nullptr;
};

struct OpenLoopResult {
  std::vector<RequestSample> samples;  ///< in send order
  double window_us = 0.0;              ///< length of the send schedule
  double elapsed_us = 0.0;             ///< phase start -> last answer
};

/// Runs one open-loop phase against `engine` and waits for every answer.
OpenLoopResult run_open_loop(wknng::serve::ServeEngine& engine,
                             const wknng::FloatMatrix& queries,
                             const OpenLoopConfig& config);

struct ClosedLoopConfig {
  /// Requests kept in flight: each answer is followed by the next request.
  std::size_t outstanding = 1;
  /// No request is sent after this long; the phase ends at the last answer.
  double seconds = 1.0;
  /// Request i is query row (i % rows) and runs under tag tag_base + i.
  std::uint64_t tag_base = 0;
};

struct ClosedLoopResult {
  std::vector<double> latency_us;  ///< submit -> answer seen, answered requests
  std::vector<double> done_us;     ///< answer seen, us from the phase start
  std::size_t attempted = 0;
  std::size_t failed = 0;          ///< shed, timed out or failed
};

/// Runs one closed-loop phase against `engine`. The client waits for the
/// oldest request in flight, so with one outstanding request the latency is
/// exact and with more it is an upper bound (only throughput is read then).
ClosedLoopResult run_closed_loop(wknng::serve::ServeEngine& engine,
                                 const wknng::FloatMatrix& queries,
                                 const ClosedLoopConfig& config);

}  // namespace perfbench
