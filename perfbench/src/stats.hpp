#pragma once
// Pure statistics of the benchmark driver: quantiles, open-loop due-time
// accounting, backlog detection and closed-loop throughput blocks. Everything here
// works on plain latency tables so tests/test_stats.cpp can pin it on
// synthetic data without running the library.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "serve/loadgen.hpp"

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile (serve::exact_quantile) of an unsorted table: the
/// smallest sample with at least p of the samples at or below it. An empty
/// table gives NaN. +inf samples (lost requests) sort last, so a quantile
/// reaching them is +inf.
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  return wknng::serve::exact_quantile(v, p);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// One open-loop request, all times in microseconds from the phase start.
/// `due_us` is when the schedule said to send it, `sent_us` when the
/// generator actually called submit; `queue_us`/`total_us` are the engine's
/// own enqueue-relative stamps. `ok` is false for shed, timed-out and failed
/// requests.
struct RequestSample {
  double due_us = 0.0;
  double sent_us = 0.0;
  double queue_us = 0.0;
  double total_us = 0.0;
  bool ok = true;
};

/// Latency a user sees: from the scheduled send time to the answer, so a
/// stalled generator's lateness is charged to the requests it delayed. A
/// request that did not succeed counts as +inf (it misses every limit).
inline double latency_from_due_us(const RequestSample& s) {
  if (!s.ok) return kInf;
  return (s.sent_us - s.due_us) + s.total_us;
}

/// When the answer arrived, relative to the phase start.
inline double completion_us(const RequestSample& s) {
  return s.sent_us + s.total_us;
}

inline std::vector<double> latencies_from_due(
    const std::vector<RequestSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const RequestSample& s : samples) out.push_back(latency_from_due_us(s));
  return out;
}

/// How late the generator sent each request (never negative).
inline std::vector<double> send_lags(const std::vector<RequestSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const RequestSample& s : samples) {
    out.push_back(std::max(0.0, s.sent_us - s.due_us));
  }
  return out;
}

/// Requests sent by `t` but not yet answered at `t`.
inline std::size_t outstanding_at(const std::vector<RequestSample>& samples,
                                  double t_us) {
  std::size_t n = 0;
  for (const RequestSample& s : samples) {
    if (s.sent_us <= t_us && completion_us(s) > t_us) ++n;
  }
  return n;
}

/// A backlog grows when the number of outstanding requests at the end of the
/// send window exceeds the number at its midpoint by more than `slack`
/// requests: the server answered slower than the schedule offered. The slack
/// absorbs one partly filled micro-batch of jitter.
inline bool backlog_growing(const std::vector<RequestSample>& samples,
                            double window_us, std::size_t slack) {
  if (samples.empty()) return false;
  const std::size_t mid = outstanding_at(samples, 0.5 * window_us);
  const std::size_t end = outstanding_at(samples, window_us);
  return end > mid + slack;
}

/// Answers per second of each block of `block` consecutive answers of a
/// closed-loop phase, from the times (us from the phase start, any order) at
/// which they arrived: block / (time of the block's last answer - time of
/// the answer before the block). Answers after `until_us`, when the load was
/// tapering off, are left out, and so is the partial last block. Blocks of
/// answers rather than windows of time keep every digit of the rate.
inline std::vector<double> block_rates(std::vector<double> done_us,
                                       std::size_t block, double until_us) {
  std::vector<double> out;
  if (block == 0) return out;
  std::sort(done_us.begin(), done_us.end());
  done_us.erase(std::upper_bound(done_us.begin(), done_us.end(), until_us),
                done_us.end());
  for (std::size_t i = block; i < done_us.size(); i += block) {
    const double span_us = done_us[i] - done_us[i - block];
    out.push_back(span_us > 0.0 ? static_cast<double>(block) * 1e6 / span_us : kInf);
  }
  return out;
}

}  // namespace perfbench
