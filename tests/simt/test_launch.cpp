#include "simt/launch.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

namespace wknng::simt {
namespace {

TEST(Launch, RunsEveryWarpOnce) {
  ThreadPool pool(4);
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  launch_warps(pool, n, nullptr,
               [&](Warp& w) { hits[w.id()].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(Launch, WarpIdsAreDense) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> id_sum{0};
  launch_warps(pool, 100, nullptr, [&](Warp& w) {
    id_sum.fetch_add(w.id(), std::memory_order_relaxed);
  });
  EXPECT_EQ(id_sum.load(), 99u * 100u / 2);
}

TEST(Launch, StatsAreAggregatedAcrossWarps) {
  ThreadPool pool(4);
  StatsAccumulator acc;
  launch_warps(pool, 64, &acc, [&](Warp& w) {
    w.count_read(10);
    w.stats().flops += 3;
  });
  const Stats total = acc.total();
  EXPECT_EQ(total.global_reads, 640u);
  EXPECT_EQ(total.flops, 192u);
  EXPECT_EQ(total.warps_executed, 64u);
}

TEST(Launch, ScratchIsResetBetweenWarps) {
  ThreadPool pool(1);  // single worker: the same scratch is reused
  launch_warps(pool, 10, nullptr, [&](Warp& w) {
    EXPECT_EQ(w.scratch().used(), 0u);
    (void)w.scratch().alloc<float>(100);
  });
}

TEST(Launch, ScratchHonoursLaunchConfigCapacity) {
  ThreadPool pool(1);
  LaunchConfig config;
  config.scratch_bytes = 256 * 1024;
  launch_warps(pool, 2, config, nullptr, [&](Warp& w) {
    EXPECT_GE(w.scratch().capacity(), 256u * 1024u);
    (void)w.scratch().alloc<float>(60000);
  });
}

TEST(Launch, PeakScratchIsReported) {
  ThreadPool pool(1);
  StatsAccumulator acc;
  launch_warps(pool, 1, &acc, [&](Warp& w) {
    (void)w.scratch().alloc<std::uint8_t>(1234);
  });
  EXPECT_EQ(acc.total().scratch_bytes_peak, 1234u);
}

TEST(Launch, ZeroWarpsIsANoop) {
  ThreadPool pool(2);
  StatsAccumulator acc;
  launch_warps(pool, 0, &acc, [&](Warp&) { FAIL(); });
  EXPECT_EQ(acc.total().warps_executed, 0u);
}

TEST(Launch, ExceptionsPropagate) {
  ThreadPool pool(2);
  EXPECT_THROW(launch_warps(pool, 10, nullptr,
                            [&](Warp& w) {
                              if (w.id() == 5) throw Error("kernel fault");
                            }),
               Error);
}

TEST(Launch, AccumulatedTotalsEqualSumOfPerWarpStats) {
  // Each warp charges counters that are a function of its id; warps with
  // id % 7 == 3 throw. The accumulator must hold exactly the sum (and the
  // scratch max) of the warps that completed, whatever thread ran them.
  constexpr std::size_t kWarps = 500;
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t grain : {1u, 3u}) {
      for (const bool throwing : {false, true}) {
        ThreadPool pool(threads);
        StatsAccumulator acc;
        std::vector<std::atomic<bool>> completed(kWarps);
        LaunchConfig config;
        config.grain = grain;
        const auto launch = [&] {
          launch_warps(pool, kWarps, config, &acc, [&](Warp& w) {
            const std::uint64_t id = w.id();
            w.count_read(id + 1);
            w.count_write(2 * id);
            w.stats().flops += 3 * id + 1;
            w.stats().cas_retries += id % 5;
            (void)w.scratch().alloc<std::uint8_t>(8 * (id % 11) + 8);
            if (throwing && id % 7 == 3) throw Error("warp fault");
            completed[id].store(true);
          });
        };
        if (throwing) {
          EXPECT_THROW(launch(), Error);
        } else {
          launch();
        }

        Stats expect;
        for (std::uint64_t id = 0; id < kWarps; ++id) {
          if (!completed[id].load()) continue;
          Stats s;
          s.global_reads = id + 1;
          s.global_writes = 2 * id;
          s.flops = 3 * id + 1;
          s.cas_retries = id % 5;
          s.scratch_bytes_peak = 8 * (id % 11) + 8;
          s.warps_executed = 1;
          expect += s;
        }
        const Stats got = acc.total();
        const std::string where = "threads " + std::to_string(threads) +
                                  " grain " + std::to_string(grain) +
                                  (throwing ? " throwing" : "");
        EXPECT_EQ(got.to_json(), expect.to_json()) << where;
        if (!throwing) EXPECT_EQ(got.warps_executed, kWarps) << where;
      }
    }
  }
}

TEST(Launch, DeterministicReplayTotalsIncludeWarpsBeforeAThrow) {
  ThreadPool pool(2);
  StatsAccumulator acc;
  LaunchConfig config;
  config.schedule.policy = SchedulePolicy::kSequential;
  EXPECT_THROW(launch_warps(pool, 10, config, &acc,
                            [&](Warp& w) {
                              if (w.id() == 6) throw Error("warp fault");
                              w.stats().flops += 1;
                            }),
               Error);
  EXPECT_EQ(acc.total().warps_executed, 6u);
  EXPECT_EQ(acc.total().flops, 6u);
}

TEST(StatsAccumulator, ResetClearsTotals) {
  StatsAccumulator acc;
  Stats s;
  s.flops = 10;
  acc.flush(s);
  EXPECT_EQ(acc.total().flops, 10u);
  acc.reset();
  EXPECT_EQ(acc.total().flops, 0u);
}

TEST(Stats, PlusEqualsAggregates) {
  Stats a, b;
  a.distance_evals = 1;
  a.scratch_bytes_peak = 10;
  b.distance_evals = 2;
  b.scratch_bytes_peak = 5;
  b.cas_retries = 3;
  a += b;
  EXPECT_EQ(a.distance_evals, 3u);
  EXPECT_EQ(a.cas_retries, 3u);
  EXPECT_EQ(a.scratch_bytes_peak, 10u);  // max, not sum
}

}  // namespace
}  // namespace wknng::simt
