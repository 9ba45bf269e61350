#include "core/graph_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "opt/optimize.hpp"

namespace wknng::core {
namespace {

struct Fixture {
  ThreadPool pool{4};
  FloatMatrix base;
  FloatMatrix queries;
  KnnGraph graph;
  opt::ServingGraph sg;

  explicit Fixture(std::size_t n = 2000, std::size_t dim = 16,
                   std::size_t nq = 40) {
    base = data::make_clusters(n, dim, 16, 0.08f, 3);
    queries.resize(nq, dim);
    Rng rng(17);
    for (std::size_t qi = 0; qi < nq; ++qi) {
      const auto src = base.row(rng.next_below(n));
      auto dst = queries.row(qi);
      for (std::size_t d = 0; d < dim; ++d) {
        dst[d] = src[d] + 0.02f * rng.next_gaussian();
      }
    }
    BuildParams bp;
    bp.k = 16;
    bp.num_trees = 8;
    bp.refine_iters = 1;
    graph = build_knng(pool, base, bp).graph;
    sg = opt::optimize_serving(pool, base, graph, {});
  }
};

/// The two search entry points, run over the same fixture: the raw builder
/// graph and its pruned, reordered serving layout. Both drive one kernel, so
/// every behavioral test below runs over each.
enum class EntryPoint { kRaw, kLayout };
constexpr EntryPoint kEntryPoints[] = {EntryPoint::kRaw, EntryPoint::kLayout};

const char* entry_name(EntryPoint ep) {
  return ep == EntryPoint::kRaw ? "graph_search_batch"
                                : "serving_search_batch";
}

/// Searches `queries` through `ep`. `exclude` is in the caller's id space;
/// the layout run permutes a well-sized mask into the layout's id space (and
/// passes a malformed one through, so size checks stay observable).
BatchSearchResult search(EntryPoint ep, Fixture& f, const FloatMatrix& queries,
                         const SearchParams& sp,
                         const std::vector<std::uint8_t>& exclude = {}) {
  if (ep == EntryPoint::kRaw) {
    return graph_search_batch(f.pool, f.base, f.graph, queries, {}, sp,
                              nullptr, nullptr, nullptr, exclude);
  }
  std::vector<std::uint8_t> permuted = exclude;
  if (exclude.size() == f.sg.n()) {
    for (std::size_t old_id = 0; old_id < exclude.size(); ++old_id) {
      permuted[f.sg.old_to_new[old_id]] = exclude[old_id];
    }
  }
  return serving_search_batch(f.pool, f.sg, queries, {}, sp, permuted);
}

TEST(ServingSearch, PrunedLayoutKeepsRecallWithinAPoint) {
  Fixture f;
  SearchParams sp;
  sp.k = 10;
  const KnnGraph truth = exact::brute_force_knn(f.pool, f.base, f.queries, 10);
  const BatchSearchResult raw =
      graph_search_batch(f.pool, f.base, f.graph, f.queries, {}, sp);
  const BatchSearchResult optimized =
      serving_search_batch(f.pool, f.sg, f.queries, {}, sp);
  const double r_raw = exact::recall(raw.results, truth);
  const double r_opt = exact::recall(optimized.results, truth);
  EXPECT_GT(r_opt, 0.9);
  EXPECT_GE(r_opt, r_raw - 0.01) << "pruning cost more than a point of recall";

  // Pruning must actually save work: fewer candidates scored per query.
  std::uint64_t visits_raw = 0;
  std::uint64_t visits_opt = 0;
  for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
    visits_raw += raw.visits[qi];
    visits_opt += optimized.visits[qi];
  }
  EXPECT_LT(visits_opt, visits_raw);
}

TEST(ServingSearch, ResultDistancesAreExactAndRowsSorted) {
  Fixture f(800, 10, 12);
  SearchParams sp;
  sp.k = 6;
  for (const EntryPoint ep : kEntryPoints) {
    SCOPED_TRACE(entry_name(ep));
    const BatchSearchResult got = search(ep, f, f.queries, sp);
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      const auto row = got.results.row(qi);
      const std::size_t valid = got.results.row_size(qi);
      ASSERT_GT(valid, 0u);
      for (std::size_t s = 0; s < valid; ++s) {
        ASSERT_LT(row[s].id, f.base.rows());  // old id space
        const float expect =
            exact::l2_sq(f.queries.row(qi), f.base.row(row[s].id));
        EXPECT_FLOAT_EQ(row[s].dist, expect) << "query " << qi;
        if (s > 0) EXPECT_TRUE(row[s - 1] < row[s]);
      }
    }
  }
}

TEST(ServingSearch, VisitBudgetCapsWorkAndFlagsCappedQueries) {
  Fixture f;
  SearchParams sp;
  sp.k = 10;
  // Entry scoring counts toward the budget, so keep the sample below the cap
  // to leave the descent room (a budget under entry_sample caps immediately).
  sp.entry_sample = 32;
  for (const EntryPoint ep : kEntryPoints) {
    SCOPED_TRACE(entry_name(ep));
    sp.visit_budget = 0;
    const BatchSearchResult free_run = search(ep, f, f.queries, sp);
    for (const std::uint8_t c : free_run.capped) {
      EXPECT_EQ(c, 0u);  // no budget -> nothing capped
    }

    sp.visit_budget = 64;  // far below the free-running visit counts
    const BatchSearchResult budgeted = search(ep, f, f.queries, sp);
    std::size_t capped = 0;
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      // Budget is checked at hop granularity: one row of expansions of slack.
      EXPECT_LE(budgeted.visits[qi], sp.visit_budget + f.graph.k())
          << "query " << qi;
      EXPECT_LE(budgeted.visits[qi], free_run.visits[qi]);
      if (budgeted.capped[qi]) {
        ++capped;
        EXPECT_GE(budgeted.visits[qi], sp.visit_budget);
      }
      EXPECT_GT(budgeted.results.row_size(qi), 0u);  // capped, never empty
    }
    EXPECT_GT(capped, 0u) << "a 64-visit budget must cap some query";
  }
}

TEST(ServingSearch, PatienceTerminatesEarlyWithoutCorruptingRows) {
  Fixture f;
  SearchParams sp;
  sp.k = 10;
  for (const EntryPoint ep : kEntryPoints) {
    SCOPED_TRACE(entry_name(ep));
    sp.patience = 0;
    const BatchSearchResult free_run = search(ep, f, f.queries, sp);
    sp.patience = 1;
    const BatchSearchResult impatient = search(ep, f, f.queries, sp);
    std::uint64_t visits_free = 0;
    std::uint64_t visits_impatient = 0;
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      visits_free += free_run.visits[qi];
      visits_impatient += impatient.visits[qi];
      EXPECT_GT(impatient.results.row_size(qi), 0u);
      EXPECT_LE(impatient.visits[qi], free_run.visits[qi]) << "query " << qi;
    }
    EXPECT_LT(visits_impatient, visits_free);
  }
}

TEST(ServingSearch, ExcludeOverrideReplacesTheBakedMask) {
  Fixture f(900, 10, 16);
  SearchParams sp;
  sp.k = 8;
  for (const EntryPoint ep : kEntryPoints) {
    SCOPED_TRACE(entry_name(ep));
    const BatchSearchResult unmasked = search(ep, f, f.queries, sp);

    // Exclude every point the unmasked run returned for query 0 — none may
    // reappear, for any query. On the layout the mask is passed permuted, as
    // an override of the layout's baked (empty) mask.
    std::vector<std::uint8_t> exclude(f.base.rows(), 0);
    for (const Neighbor& nb : unmasked.results.row(0)) {
      if (nb.id == KnnGraph::kInvalid) break;
      exclude[nb.id] = 1;
    }
    const BatchSearchResult masked = search(ep, f, f.queries, sp, exclude);
    for (std::size_t qi = 0; qi < f.queries.rows(); ++qi) {
      EXPECT_GT(masked.results.row_size(qi), 0u);
      for (const Neighbor& nb : masked.results.row(qi)) {
        if (nb.id == KnnGraph::kInvalid) break;
        EXPECT_EQ(exclude[nb.id], 0u)
            << "query " << qi << " returned an excluded point";
      }
    }
    EXPECT_THROW(search(ep, f, f.queries, sp, std::vector<std::uint8_t>(3, 0)),
                 Error);
  }
}

TEST(ServingSearch, AdmissionErrorsAreTypedAndEarly) {
  Fixture f(300, 8, 4);
  for (const EntryPoint ep : kEntryPoints) {
    SCOPED_TRACE(entry_name(ep));
    SearchParams sp;
    sp.k = 0;
    EXPECT_THROW(search(ep, f, f.queries, sp), SearchParamError);
    sp.k = 4;
    sp.entry_sample = 0;
    EXPECT_THROW(search(ep, f, f.queries, sp), SearchParamError);
    FloatMatrix wrong(2, f.base.cols() + 1);
    sp.entry_sample = 64;
    EXPECT_THROW(search(ep, f, wrong, sp), Error);
  }
}

TEST(ServingSearch, ZeroQueriesIsAnEmptyResult) {
  Fixture f(300, 8, 4);
  FloatMatrix none(0, 8);
  SearchParams sp;
  sp.k = 4;
  for (const EntryPoint ep : kEntryPoints) {
    SCOPED_TRACE(entry_name(ep));
    const BatchSearchResult got = search(ep, f, none, sp);
    EXPECT_EQ(got.results.num_points(), 0u);
    EXPECT_TRUE(got.visits.empty());
    EXPECT_TRUE(got.capped.empty());
  }
}

}  // namespace
}  // namespace wknng::core
