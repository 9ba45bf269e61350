#include "core/entry_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/graph_search.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "opt/optimize.hpp"

namespace wknng::core {
namespace {

struct Fixture {
  ThreadPool pool{2};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;

  explicit Fixture(std::size_t n = 1200, std::size_t dim = 12,
                   std::size_t nq = 24) {
    base = data::make_clusters(n, dim, 12, 0.08f, 31);
    queries.resize(nq, dim);
    Rng rng(37);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto src = base.row(rng.next_below(n));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    BuildParams params;
    params.k = 10;
    params.num_trees = 4;
    params.refine_iters = 1;
    graph = build_knng(pool, base, params).graph;
  }
};

void expect_same_table(const EntryTable& a, const EntryTable& b) {
  ASSERT_EQ(a.ids, b.ids);
  ASSERT_EQ(a.norms, b.norms);
  ASSERT_EQ(a.rows.rows(), b.rows.rows());
  ASSERT_EQ(a.rows.cols(), b.rows.cols());
  EXPECT_TRUE(std::equal(a.rows.data(), a.rows.data() + a.rows.size(),
                         b.rows.data()));
}

void expect_same_results(const BatchSearchResult& a,
                         const BatchSearchResult& b) {
  ASSERT_EQ(a.results.num_points(), b.results.num_points());
  ASSERT_EQ(a.visits, b.visits);
  for (std::size_t qi = 0; qi < a.results.num_points(); ++qi) {
    for (std::size_t s = 0; s < a.results.k(); ++s) {
      ASSERT_EQ(a.results.row(qi)[s], b.results.row(qi)[s])
          << "query " << qi << " slot " << s;
    }
  }
}

TEST(EntryTable, RowsAreTheSampledBaseRowsWithTheirNorms) {
  Fixture f;
  const EntryTable t = build_entry_table(f.base, 7, 256);
  ASSERT_GT(t.size(), 200u);  // 256 draws from 1200 rows, duplicates dropped
  ASSERT_LE(t.size(), 256u);
  std::vector<std::uint32_t> sorted = t.ids;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (std::size_t i = 0; i < t.size(); ++i) {
    ASSERT_LT(t.ids[i], f.base.rows());
    const auto want = f.base.row(t.ids[i]);
    const auto got = t.rows.row(i);
    ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin()));
  }
  if (!kernels::strict_mode()) {
    ASSERT_EQ(t.norms.size(), t.size());
    EXPECT_EQ(t.norms[0], kernels::norm_sq(t.rows.row(0)));
  }
}

TEST(EntryTable, PureFunctionOfRowsSeedAndSample) {
  Fixture f;
  expect_same_table(build_entry_table(f.base, 7, 256),
                    build_entry_table(f.base, 7, 256));
  EXPECT_NE(build_entry_table(f.base, 7, 256).ids,
            build_entry_table(f.base, 8, 256).ids);
  // A larger sample extends the same stream: the smaller table is a prefix.
  const EntryTable small = build_entry_table(f.base, 7, 64);
  const EntryTable large = build_entry_table(f.base, 7, 256);
  ASSERT_LE(small.size(), large.size());
  EXPECT_TRUE(std::equal(small.ids.begin(), small.ids.end(),
                         large.ids.begin()));
}

TEST(EntryTable, EntrySampleBeyondTheBaseClampsToN) {
  Fixture f(150, 8, 4);
  const EntryTable t = build_entry_table(f.base, 7, 150 * 64);
  ASSERT_EQ(t.size(), 150u);
  std::vector<std::uint32_t> sorted = t.ids;
  std::sort(sorted.begin(), sorted.end());
  for (std::uint32_t i = 0; i < 150; ++i) ASSERT_EQ(sorted[i], i);

  // The search clamps with it: every query still answers k rows.
  SearchParams sp;
  sp.k = 5;
  sp.entry_sample = 150 * 64;
  const BatchSearchResult r =
      graph_search_batch(f.pool, f.base, f.graph, f.queries, {}, sp);
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    EXPECT_EQ(r.results.row_size(qi), sp.k);
    EXPECT_GE(r.visits[qi], 150u);
  }
}

TEST(EntryTable, LayoutTableHoldsTheRawTablesPointsInOrder) {
  Fixture f;
  const opt::ServingGraph sg = opt::optimize_serving(f.pool, f.base, f.graph);
  const EntryTable raw = build_entry_table(f.base, 7, 256);
  const EntryTable lay = build_entry_table(sg.base, 7, 256, sg.old_to_new);
  ASSERT_EQ(lay.size(), raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(lay.ids[i], sg.old_to_new[raw.ids[i]]);
  }
  EXPECT_TRUE(std::equal(raw.rows.data(), raw.rows.data() + raw.rows.size(),
                         lay.rows.data()));
  EXPECT_EQ(raw.norms, lay.norms);
}

TEST(EntryTable, CacheBuildsOncePerKeyAndRejectsOtherRows) {
  Fixture f;
  SearchCache cache;
  const EntryTable& a = cache.entry_table(f.base, 7, 256);
  EXPECT_EQ(&cache.entry_table(f.base, 7, 256), &a);
  const EntryTable& b = cache.entry_table(f.base, 9, 256);
  EXPECT_NE(&b, &a);
  expect_same_table(a, build_entry_table(f.base, 7, 256));
  const FloatMatrix other(f.base.rows() + 1, f.base.cols());
  EXPECT_THROW(cache.entry_table(other, 7, 256), Error);

  // A copy starts empty: it rebuilds rather than aliasing the source's table.
  SearchCache copy = cache;
  EXPECT_NE(&copy.entry_table(f.base, 7, 256), &a);
}

TEST(EntryTable, TableAndAnswersIdenticalForPoolSizes) {
  Fixture f;
  SearchParams sp;
  sp.k = 6;
  SearchCache ref_cache;
  const BatchSearchResult ref = graph_search_batch(
      f.pool, f.base, f.graph, f.queries, {}, sp, nullptr, nullptr, nullptr,
      {}, &ref_cache);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    SearchCache cache;
    warm_search_cache(f.base, cache, sp);
    expect_same_table(cache.entry_table(f.base, sp.seed, sp.entry_sample),
                      ref_cache.entry_table(f.base, sp.seed, sp.entry_sample));
    expect_same_results(
        graph_search_batch(pool, f.base, f.graph, f.queries, {}, sp, nullptr,
                           nullptr, nullptr, {}, &cache),
        ref);
  }
}

TEST(EntryTable, AnswersDoNotDependOnTheCacheOrTheTags) {
  Fixture f;
  SearchParams sp;
  sp.k = 6;
  const BatchSearchResult uncached =
      graph_search_batch(f.pool, f.base, f.graph, f.queries, {}, sp);
  SearchCache cache;
  std::vector<std::uint64_t> tags(f.queries.rows());
  for (std::size_t i = 0; i < tags.size(); ++i) tags[i] = 1000 + 7 * i;
  expect_same_results(
      graph_search_batch(f.pool, f.base, f.graph, f.queries, tags, sp,
                         nullptr, nullptr, nullptr, {}, &cache),
      uncached);

  const opt::ServingGraph sg = opt::optimize_serving(f.pool, f.base, f.graph);
  const BatchSearchResult warm =
      serving_search_batch(f.pool, sg, f.queries, {}, sp);
  const opt::ServingGraph cold = sg;  // a copy starts with an empty cache
  expect_same_results(serving_search_batch(f.pool, cold, f.queries, tags, sp),
                      warm);
}

TEST(EntryTable, OnlyKeptEntriesAreMarkedVisited) {
  // Points on a line at x = 0, 1, ..., 63, navigated by the exact 4-NN
  // graph. Every point is in the table and only the best one is kept: the
  // rest of the top-k are table rows the descent reaches from it. Were the
  // whole table marked visited, the query would answer its kept entry alone.
  ThreadPool pool(2);
  const std::size_t n = 64;
  FloatMatrix base(n, 4);
  for (std::size_t i = 0; i < n; ++i) base(i, 0) = static_cast<float>(i);
  const KnnGraph graph = exact::brute_force_knng(pool, base, 4);
  FloatMatrix queries(1, 4);
  queries(0, 0) = 10.2f;

  SearchParams sp;
  sp.k = 5;
  sp.entry_sample = n * 64;
  sp.entry_keep = 1;
  ASSERT_EQ(build_entry_table(base, sp.seed, sp.entry_sample).size(), n);
  const BatchSearchResult r =
      graph_search_batch(pool, base, graph, queries, {}, sp);
  const KnnGraph truth = exact::brute_force_knn(pool, base, queries, sp.k);
  ASSERT_EQ(r.results.row_size(0), sp.k);
  for (std::size_t s = 0; s < sp.k; ++s) {
    EXPECT_EQ(r.results.row(0)[s].id, truth.row(0)[s].id) << "slot " << s;
  }
  // The whole table once, then the descent re-scores reached table rows.
  EXPECT_GT(r.visits[0], n);
}

}  // namespace
}  // namespace wknng::core
