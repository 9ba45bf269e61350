// Unit tests of the benchmark driver's statistics on synthetic latency
// tables: quantiles, due-time accounting, backlog detection, closed-loop
// throughput blocks and the arrival schedule. Build and run:
//   cmake --build .bench_build/perfbench --target perfbench_tests
//   .bench_build/perfbench/perfbench_tests

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "load.hpp"
#include "stats.hpp"

namespace {

int g_failures = 0;
int g_checks = 0;

void expect(bool ok, const char* what, int line) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)
#define EXPECT_NEAR(a, b, tol) expect(std::abs((a) - (b)) <= (tol), #a " ~= " #b, __LINE__)

using namespace perfbench;

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_quantile() {
  const std::vector<double> v = one_to(100);
  EXPECT(quantile(v, 0.50) == 50.0);
  EXPECT(quantile(v, 0.99) == 99.0);
  EXPECT(quantile(v, 1.00) == 100.0);
  EXPECT(quantile(v, 0.00) == 1.0);
  EXPECT(quantile(one_to(1000), 0.99) == 990.0);  // ten samples beyond it
  EXPECT(quantile({7.0}, 0.99) == 7.0);
  EXPECT(std::isnan(quantile({}, 0.5)));
  EXPECT(median({3.0, 1.0, 2.0}) == 2.0);
  // A lost request is +inf and sorts last: p99 of 100 with two lost is inf.
  std::vector<double> lost = one_to(98);
  lost.push_back(kInf);
  lost.push_back(kInf);
  EXPECT(std::isinf(quantile(lost, 0.99)));
  EXPECT(quantile(lost, 0.50) == 50.0);
}

void test_due_time_accounting() {
  RequestSample on_time{.due_us = 100, .sent_us = 100, .queue_us = 40,
                        .total_us = 250, .ok = true};
  EXPECT(latency_from_due_us(on_time) == 250.0);
  // The generator sent 900 us late: the user waited those 900 us too.
  RequestSample late{.due_us = 100, .sent_us = 1000, .queue_us = 40,
                     .total_us = 250, .ok = true};
  EXPECT(latency_from_due_us(late) == 1150.0);
  EXPECT(completion_us(late) == 1250.0);
  RequestSample shed{.due_us = 0, .sent_us = 0, .queue_us = 0, .total_us = 5,
                     .ok = false};
  EXPECT(std::isinf(latency_from_due_us(shed)));
  // Lag is never negative (a send can land a hair before its stamp).
  RequestSample early{.due_us = 100, .sent_us = 99.5, .queue_us = 0,
                      .total_us = 1, .ok = true};
  const std::vector<double> lags = send_lags({on_time, late, early});
  EXPECT(lags[0] == 0.0 && lags[1] == 900.0 && lags[2] == 0.0);
}

std::vector<RequestSample> steady(double gap_us, double service_us,
                                  double growth_per_request) {
  std::vector<RequestSample> out;
  for (int i = 0; i < 1000; ++i) {
    const double t = i * gap_us;
    out.push_back({.due_us = t, .sent_us = t, .queue_us = 0,
                   .total_us = service_us + i * growth_per_request, .ok = true});
  }
  return out;
}

void test_backlog() {
  // 1000 requests over 100 ms, each answered in 200 us: ~2 outstanding.
  const auto flat = steady(100.0, 200.0, 0.0);
  EXPECT(outstanding_at(flat, 50'000.0) == 2);
  EXPECT(!backlog_growing(flat, 100'000.0, 64));
  // Service time grows by 20 us per request: the queue builds linearly.
  const auto growing = steady(100.0, 200.0, 20.0);
  EXPECT(outstanding_at(growing, 100'000.0) > outstanding_at(growing, 50'000.0));
  EXPECT(backlog_growing(growing, 100'000.0, 64));
  // Slack absorbs small jitter.
  const auto mild = steady(100.0, 200.0, 0.05);
  EXPECT(!backlog_growing(mild, 100'000.0, 64));
  EXPECT(!backlog_growing({}, 100'000.0, 0));
}

void test_block_rates() {
  // An answer every 1000 us: blocks of 100 answers read 1000 answers/s.
  std::vector<double> done;
  for (int i = 0; i < 1001; ++i) done.push_back(i * 1000.0 + 500.0);
  const std::vector<double> r = block_rates(done, 100, kInf);
  EXPECT(r.size() == 10);
  bool all = true;
  for (const double x : r) all &= std::abs(x - 1000.0) < 1e-9;
  EXPECT(all);
  // The partial last block and answers after the cut are dropped.
  EXPECT(block_rates(done, 300, kInf).size() == 3);
  EXPECT(block_rates(done, 100, 500'500.0).size() == 5);
  // A 100 ms stall slows the block it falls in, not the median.
  std::vector<double> stalled = done;
  for (double& t : stalled) t += t > 300'000.0 ? 100'000.0 : 0.0;
  const std::vector<double> s = block_rates(stalled, 100, kInf);
  EXPECT(std::abs(s[2] - 500.0) < 1e-9);
  EXPECT(std::abs(median(s) - 1000.0) < 1e-9);
  // A uniformly slower server moves every block.
  std::vector<double> slower = done;
  for (double& t : slower) t *= 2.0;
  EXPECT(std::abs(median(block_rates(slower, 100, kInf)) - 500.0) < 1e-9);
  // Order of the answers does not matter; a burst of equal times is +inf.
  std::vector<double> reversed(done.rbegin(), done.rend());
  EXPECT(block_rates(reversed, 100, kInf) == r);
  EXPECT(std::isinf(block_rates(std::vector<double>(3, 7.0), 2, kInf)[0]));
  EXPECT(block_rates(done, 0, kInf).empty());
  EXPECT(block_rates({}, 100, kInf).empty());
}

void test_poisson_schedule() {
  const std::vector<double> a = poisson_schedule(4000.0, 2.0, 42);
  const std::vector<double> b = poisson_schedule(4000.0, 2.0, 42);
  const std::vector<double> c = poisson_schedule(4000.0, 2.0, 43);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(std::abs(static_cast<double>(a.size()) - 8000.0) < 400.0);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  EXPECT(ascending);
  EXPECT(a.front() >= 0.0 && a.back() < 2e6);
  EXPECT(poisson_schedule(0.0, 1.0, 1).empty());
}

}  // namespace

int main() {
  test_quantile();
  test_due_time_accounting();
  test_backlog();
  test_block_rates();
  test_poisson_schedule();
  std::printf("perfbench_tests: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}
