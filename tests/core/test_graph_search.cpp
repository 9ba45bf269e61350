#include "core/graph_search.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <queue>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"

namespace wknng::core {
namespace {

struct Fixture {
  ThreadPool pool{2};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;

  explicit Fixture(std::size_t n = 2000, std::size_t dim = 16,
                   std::size_t nq = 40) {
    base = data::make_clusters(n, dim, 16, 0.08f, 3);
    // Held-out queries: perturbed base points.
    queries.resize(nq, dim);
    Rng rng(17);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto src = base.row(rng.next_below(n));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    BuildParams params;
    params.k = 16;
    params.num_trees = 8;
    params.refine_iters = 1;
    graph = build_knng(pool, base, params).graph;
  }
};

TEST(GraphSearch, HighRecallOnClusteredData) {
  Fixture f;
  SearchParams sp;
  sp.k = 10;
  SearchStats stats;
  const KnnGraph got = graph_search(f.pool, f.base, f.graph, f.queries, sp, &stats);
  const KnnGraph truth = exact::brute_force_knn(f.pool, f.base, f.queries, 10);
  EXPECT_GT(exact::recall(got, truth), 0.9);
  EXPECT_EQ(stats.queries, f.queries.rows());
  // Navigation must touch far less than the whole base per query.
  EXPECT_LT(static_cast<double>(stats.points_visited) /
                static_cast<double>(stats.queries),
            0.3 * static_cast<double>(f.base.rows()));
}

TEST(GraphSearch, ResultsAreSortedAndValid) {
  Fixture f(500, 8, 10);
  SearchParams sp;
  sp.k = 5;
  const KnnGraph got = graph_search(f.pool, f.base, f.graph, f.queries, sp);
  EXPECT_TRUE(got.check_invariants());
  for (std::size_t qi = 0; qi < got.num_points(); ++qi) {
    EXPECT_EQ(got.row_size(qi), 5u);
    for (const Neighbor& nb : got.row(qi)) {
      const float expect = exact::l2_sq(f.queries.row(qi), f.base.row(nb.id));
      EXPECT_FLOAT_EQ(nb.dist, expect);
    }
  }
}

TEST(GraphSearch, WiderBeamNeverHurtsRecall) {
  Fixture f(1500, 12, 30);
  const KnnGraph truth = exact::brute_force_knn(f.pool, f.base, f.queries, 10);
  SearchParams narrow;
  narrow.k = 10;
  narrow.beam = 12;
  SearchParams wide = narrow;
  wide.beam = 96;
  const double r_narrow = exact::recall(
      graph_search(f.pool, f.base, f.graph, f.queries, narrow), truth);
  const double r_wide = exact::recall(
      graph_search(f.pool, f.base, f.graph, f.queries, wide), truth);
  EXPECT_GE(r_wide + 1e-9, r_narrow);
}

TEST(GraphSearch, DeterministicForFixedSeed) {
  Fixture f(800, 8, 10);
  SearchParams sp;
  sp.k = 6;
  const KnnGraph a = graph_search(f.pool, f.base, f.graph, f.queries, sp);
  const KnnGraph b = graph_search(f.pool, f.base, f.graph, f.queries, sp);
  for (std::size_t qi = 0; qi < a.num_points(); ++qi) {
    for (std::size_t s = 0; s < a.k(); ++s) {
      ASSERT_EQ(a.row(qi)[s], b.row(qi)[s]);
    }
  }
}

TEST(GraphSearch, EntrySampleLargerThanBaseIsSafe) {
  Fixture f(100, 6, 5);
  SearchParams sp;
  sp.k = 4;
  sp.entry_sample = 10000;
  EXPECT_NO_THROW(graph_search(f.pool, f.base, f.graph, f.queries, sp));
}

TEST(GraphSearch, RejectsMismatchedShapes) {
  Fixture f(200, 6, 5);
  SearchParams sp;
  FloatMatrix wrong_dim(3, 7);
  EXPECT_THROW(graph_search(f.pool, f.base, f.graph, wrong_dim, sp), Error);
  KnnGraph wrong_graph(10, 4);
  EXPECT_THROW(graph_search(f.pool, f.base, wrong_graph, f.queries, sp), Error);
}

// check_invariants() forbids row i containing id i (a self-loop in a K-NNG),
// but a query result row legitimately may: query ids and base ids are
// different spaces. Check the remaining row invariants directly.
void expect_valid_result_rows(const KnnGraph& g) {
  for (std::size_t qi = 0; qi < g.num_points(); ++qi) {
    auto row = g.row(qi);
    const std::size_t valid = g.row_size(qi);
    for (std::size_t s = valid; s < row.size(); ++s) {
      EXPECT_EQ(row[s].id, KnnGraph::kInvalid);  // valid prefix only
    }
    for (std::size_t s = 1; s < valid; ++s) {
      EXPECT_TRUE(row[s - 1] < row[s]) << "row " << qi;  // sorted, no dups
    }
  }
}

TEST(GraphSearch, KLargerThanBaseReturnsClampedRows) {
  // k beyond the base size must clamp, not throw or overrun: every row gets
  // all base points except (possibly) none, with invalid tail slots.
  ThreadPool pool(2);
  FloatMatrix base = data::make_clusters(12, 6, 2, 0.1f, 5);
  BuildParams bp;
  bp.k = 4;
  bp.num_trees = 2;
  const KnnGraph graph = build_knng(pool, base, bp).graph;
  FloatMatrix queries(3, 6);
  SearchParams sp;
  sp.k = 50;  // > 12 base points
  sp.entry_sample = 64;
  const KnnGraph got = graph_search(pool, base, graph, queries, sp);
  expect_valid_result_rows(got);
  for (std::size_t qi = 0; qi < got.num_points(); ++qi) {
    EXPECT_LE(got.row_size(qi), base.rows());
    EXPECT_GT(got.row_size(qi), 0u);
    for (std::size_t s = 0; s < got.row_size(qi); ++s) {
      EXPECT_LT(got.row(qi)[s].id, base.rows());
    }
  }
}

TEST(GraphSearch, ZeroQueriesReturnsEmptyResult) {
  Fixture f(300, 8, 5);
  FloatMatrix none(0, 8);
  SearchParams sp;
  sp.k = 5;
  SearchStats stats;
  const KnnGraph got = graph_search(f.pool, f.base, f.graph, none, sp, &stats);
  EXPECT_EQ(got.num_points(), 0u);
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.points_visited, 0u);
}

TEST(GraphSearch, EntryKeepLargerThanSampleIsClamped) {
  Fixture f(400, 8, 8);
  SearchParams sp;
  sp.k = 5;
  sp.entry_sample = 4;
  sp.entry_keep = 1000;  // > entry_sample
  KnnGraph got;
  ASSERT_NO_THROW(got = graph_search(f.pool, f.base, f.graph, f.queries, sp));
  expect_valid_result_rows(got);
  for (std::size_t qi = 0; qi < got.num_points(); ++qi) {
    EXPECT_GT(got.row_size(qi), 0u);
  }
}

TEST(GraphSearch, StatsDeterministicAcrossThreadCounts) {
  // points_visited is merged per query in index order, so the totals (and
  // the results) must be bit-identical for any pool size and across repeats.
  Fixture f(1200, 12, 25);
  SearchParams sp;
  sp.k = 8;
  SearchStats ref;
  const KnnGraph expect =
      graph_search(f.pool, f.base, f.graph, f.queries, sp, &ref);
  for (const std::size_t threads : {1u, 3u, 8u}) {
    ThreadPool other(threads);
    for (int rep = 0; rep < 2; ++rep) {
      SearchStats stats;
      const KnnGraph got =
          graph_search(other, f.base, f.graph, f.queries, sp, &stats);
      ASSERT_EQ(stats.points_visited, ref.points_visited)
          << "threads=" << threads << " rep=" << rep;
      ASSERT_EQ(stats.queries, ref.queries);
      for (std::size_t qi = 0; qi < expect.num_points(); ++qi) {
        for (std::size_t s = 0; s < expect.k(); ++s) {
          ASSERT_EQ(expect.row(qi)[s], got.row(qi)[s]);
        }
      }
    }
  }
}

TEST(GraphSearch, TagKeyedResultsIndependentOfBatching) {
  // The serving determinism contract: a query's result does not depend on
  // its position in the batch. Searching rows one at a time (tagged, as the
  // engine does) must reproduce the full-batch results.
  Fixture f(900, 10, 12);
  SearchParams sp;
  sp.k = 6;
  const BatchSearchResult full = graph_search_batch(
      f.pool, f.base, f.graph, f.queries, {}, sp, nullptr, nullptr);
  SearchScratch scratch;
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    FloatMatrix one(1, f.queries.cols());
    std::copy(f.queries.row(qi).begin(), f.queries.row(qi).end(),
              one.row(0).begin());
    const std::uint64_t tag = qi;
    const BatchSearchResult single = graph_search_batch(
        f.pool, f.base, f.graph, one, std::span(&tag, 1), sp, &scratch,
        nullptr);
    ASSERT_EQ(single.visits[0], full.visits[qi]) << "query " << qi;
    for (std::size_t s = 0; s < sp.k; ++s) {
      ASSERT_EQ(single.results.row(0)[s], full.results.row(qi)[s])
          << "query " << qi << " slot " << s;
    }
  }
}

TEST(GraphSearch, ZeroEntrySampleIsRejectedAtAdmission) {
  // entry_sample == 0 would seed no descent and silently return empty rows;
  // historically it was clamped into the entry_keep bound and slipped
  // through. It must now fail typed, at admission, before any kernel runs.
  Fixture f(200, 6, 4);
  SearchParams sp;
  sp.k = 4;
  sp.entry_sample = 0;
  EXPECT_THROW(validate_search_params(sp), SearchParamError);
  EXPECT_THROW(graph_search(f.pool, f.base, f.graph, f.queries, sp),
               SearchParamError);
  EXPECT_THROW(graph_search_batch(f.pool, f.base, f.graph, f.queries, {}, sp),
               SearchParamError);
  SearchParams zero_k;
  zero_k.k = 0;
  EXPECT_THROW(validate_search_params(zero_k), SearchParamError);
}

TEST(GraphSearch, EntrySampleOfOneIsTheSmallestValidConfig) {
  // The boundary right above the rejection: one sampled entry still seeds a
  // full descent and yields valid, non-empty rows.
  Fixture f(200, 6, 4);
  SearchParams sp;
  sp.k = 4;
  sp.entry_sample = 1;
  sp.entry_keep = 1;
  KnnGraph got;
  ASSERT_NO_THROW(got = graph_search(f.pool, f.base, f.graph, f.queries, sp));
  expect_valid_result_rows(got);
  for (std::size_t qi = 0; qi < got.num_points(); ++qi) {
    EXPECT_GT(got.row_size(qi), 0u);
  }
}

TEST(FrontierHeap, PopOrderMatchesPriorityQueueDifferentially) {
  // The bounded heap replaced a std::priority_queue on the serving path; for
  // any push/pop interleaving of distinct elements the pop sequence must be
  // identical. Randomized differential run, unbounded capacity (no eviction).
  struct MinCmp {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return b < a;
    }
  };
  Rng rng(404);
  std::vector<Neighbor> storage;
  FrontierHeap ours(storage, 1u << 20);
  std::priority_queue<Neighbor, std::vector<Neighbor>, MinCmp> ref;
  for (int step = 0; step < 5000; ++step) {
    if (ref.empty() || rng.next_below(3) != 0) {
      const Neighbor nb{static_cast<float>(rng.next_below(1u << 16)) * 0.5f,
                        static_cast<std::uint32_t>(step)};
      ours.push(nb, std::numeric_limits<float>::infinity());
      ref.push(nb);
    } else {
      const Neighbor got = ours.pop();
      ASSERT_EQ(got, ref.top()) << "step " << step;
      ref.pop();
    }
    ASSERT_EQ(ours.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(ours.pop(), ref.top());
    ref.pop();
  }
  EXPECT_TRUE(ours.empty());
}

TEST(FrontierHeap, EvictionUnderBoundPreservesElementsAtOrBelowBound) {
  // At capacity, push may drop only elements strictly above the caller's
  // bound — those the descent could never expand anyway. Everything at or
  // below the bound must still pop, in order.
  std::vector<Neighbor> storage;
  FrontierHeap heap(storage, 4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    heap.push(Neighbor{10.0f + static_cast<float>(i), i}, 100.0f);
  }
  // Capacity hit; bound 11.5 evicts {12, 13} before admitting the new one.
  heap.push(Neighbor{1.0f, 9}, 11.5f);
  EXPECT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.pop(), (Neighbor{1.0f, 9}));
  EXPECT_EQ(heap.pop(), (Neighbor{10.0f, 0}));
  EXPECT_EQ(heap.pop(), (Neighbor{11.0f, 1}));
  EXPECT_TRUE(heap.empty());

  // With an infinite bound nothing is evictable: the heap grows instead of
  // dropping work.
  FrontierHeap grow(storage, 4);
  for (std::uint32_t i = 0; i < 8; ++i) {
    grow.push(Neighbor{static_cast<float>(i), i},
              std::numeric_limits<float>::infinity());
  }
  EXPECT_EQ(grow.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) {
    EXPECT_EQ(grow.pop().id, i);
  }
}

TEST(GraphSearch, WorkCountersAccumulate) {
  Fixture f(500, 8, 10);
  SearchParams sp;
  sp.k = 5;
  simt::StatsAccumulator acc;
  (void)graph_search(f.pool, f.base, f.graph, f.queries, sp, nullptr, &acc);
  EXPECT_GT(acc.total().distance_evals, 0u);
  EXPECT_EQ(acc.total().warps_executed, f.queries.rows());
}

}  // namespace
}  // namespace wknng::core
