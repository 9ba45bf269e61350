#include "load.hpp"

#include <algorithm>
#include <future>
#include <thread>
#include <utility>

#include "common/rng.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "serve/loadgen.hpp"

namespace perfbench {

namespace {

double us_since(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Trace lane of the submit spans (the library uses 0-4 and 16+).
constexpr std::uint32_t kSubmitTrack = 9;

}  // namespace

std::vector<double> poisson_schedule(double rate_qps, double seconds,
                                     std::uint64_t seed) {
  if (rate_qps <= 0.0 || seconds <= 0.0) return {};
  const double window_us = seconds * 1e6;
  // Draw past the expected count until the window is covered (a prefix of
  // the library's schedule does not depend on its length), then cut.
  std::size_t count = static_cast<std::size_t>(rate_qps * seconds * 1.2) + 64;
  std::vector<double> due;
  while (true) {
    due = wknng::serve::open_loop_schedule(seed, count, rate_qps);
    if (due.back() >= window_us) break;
    count *= 2;
  }
  due.erase(std::lower_bound(due.begin(), due.end(), window_us), due.end());
  return due;
}

Clock::time_point wait_until(Clock::time_point due) {
  using std::chrono::microseconds;
  auto now = Clock::now();
  // Coarse sleep while far from due (timer slack is tens of microseconds),
  // then yield-spin only the last stretch: a longer spin would keep a core
  // busy at high rates and slow the server it is measuring.
  while (due - now > microseconds(80)) {
    std::this_thread::sleep_for(due - now - microseconds(60));
    now = Clock::now();
  }
  while (now < due) {
    std::this_thread::yield();
    now = Clock::now();
  }
  return now;
}

OpenLoopResult run_open_loop(wknng::serve::ServeEngine& engine,
                             const wknng::FloatMatrix& queries,
                             const OpenLoopConfig& config) {
  const std::vector<double> due =
      poisson_schedule(config.rate_qps, config.seconds, config.seed);
  OpenLoopResult out;
  out.samples.resize(due.size());
  out.window_us = config.seconds * 1e6;

  std::vector<std::future<wknng::serve::QueryResult>> futures;
  futures.reserve(due.size());
  const Clock::time_point start = Clock::now();
  const std::size_t rows = queries.rows();
  for (std::size_t i = 0; i < due.size(); ++i) {
    const auto due_tp =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::micro>(due[i]));
    const Clock::time_point sent = wait_until(due_tp);
    const auto row = queries.row(i % rows);
    out.samples[i].due_us = due[i];
    out.samples[i].sent_us = us_since(start, sent);
    const std::uint64_t tag = config.tag_base + i;
    // SplitMix64's output is a bijection of its seed, so distinct tags give
    // distinct span ids.
    wknng::obs::Span span(config.tracer, "bench.submit", "bench",
                          wknng::SplitMix64(tag).next(), kSubmitTrack);
    futures.push_back(
        engine.submit(std::vector<float>(row.begin(), row.end()), 0, tag));
  }
  // Answers are read only after the last send: latency comes from the
  // engine's own enqueue-relative stamps, so no collector thread has to wake
  // per answer and compete with the server for a core.
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const wknng::serve::QueryResult qr = futures[i].get();
    RequestSample& s = out.samples[i];
    s.queue_us = qr.queue_us;
    s.total_us = qr.total_us;
    s.ok = qr.status == wknng::serve::QueryStatus::kOk;
    out.elapsed_us = std::max(out.elapsed_us, completion_us(s));
  }
  return out;
}

ClosedLoopResult run_closed_loop(wknng::serve::ServeEngine& engine,
                                 const wknng::FloatMatrix& queries,
                                 const ClosedLoopConfig& config) {
  struct InFlight {
    std::future<wknng::serve::QueryResult> answer;
    Clock::time_point sent;
  };
  ClosedLoopResult out;
  const std::size_t rows = queries.rows();
  const Clock::time_point start = Clock::now();
  const auto stop_sending =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<InFlight> ring(std::max<std::size_t>(1, config.outstanding));
  std::size_t sent = 0;
  const auto send = [&](InFlight& slot) {
    const auto row = queries.row(sent % rows);
    const std::uint64_t tag = config.tag_base + sent;
    slot.sent = Clock::now();
    slot.answer = engine.submit(std::vector<float>(row.begin(), row.end()), 0, tag);
    ++sent;
  };
  for (InFlight& slot : ring) send(slot);
  // Round-robin over the ring is oldest-first: every slot is refilled in
  // the order it was sent.
  for (std::size_t i = 0, live = ring.size(); live > 0; i = (i + 1) % ring.size()) {
    InFlight& slot = ring[i];
    if (!slot.answer.valid()) continue;
    const wknng::serve::QueryResult qr = slot.answer.get();
    const Clock::time_point seen = Clock::now();
    ++out.attempted;
    if (qr.status == wknng::serve::QueryStatus::kOk) {
      out.latency_us.push_back(us_since(slot.sent, seen));
      out.done_us.push_back(us_since(start, seen));
    } else {
      ++out.failed;
    }
    if (seen < stop_sending) {
      send(slot);
    } else {
      --live;
    }
  }
  return out;
}

}  // namespace perfbench
