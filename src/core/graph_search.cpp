#include "core/graph_search.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "common/topk.hpp"
#include "core/params.hpp"
#include "kernels/kernels.hpp"
#include "simt/launch.hpp"
#include "simt/warp_distance.hpp"

// Software prefetch for the layout adapter's frontier pipeline: a hint, never
// a semantic — compilers without the builtin just skip it.
#if defined(__GNUC__) || defined(__clang__)
#define WKNNG_PREFETCH(addr) __builtin_prefetch((addr), 0, 1)
#else
#define WKNNG_PREFETCH(addr) ((void)0)
#endif

namespace wknng::core {

using simt::kWarpSize;
using simt::Lanes;
using simt::Warp;

namespace {

/// Soft capacity of the frontier heap: generous enough that eviction is rare
/// (evictable elements are the ones the descent could never expand anyway),
/// small enough that a slot's storage stays cache-resident.
std::size_t frontier_capacity(const SearchParams& params) {
  return std::max<std::size_t>(2 * (params.beam + kWarpSize), 128);
}

/// Adjacency adapter over the raw builder graph: fixed-width KnnGraph rows
/// cut at kInvalid, ids are the caller's ids throughout, and no prefetch
/// hints (source order gives them nothing to stream). The norms come from
/// the caller's SearchCache, or are computed on the fly without one.
struct RawAdjacency {
  static constexpr const char* kTraceLabel = "graph_search";
  const FloatMatrix& base;
  const KnnGraph& graph;

  std::span<const float> norms;  ///< base-row norms; empty = on the fly

  std::size_t n() const { return base.rows(); }

  /// Calls `f` on every neighbor of `id`; returns the row bytes read.
  template <class F>
  std::size_t for_each_neighbor(std::uint32_t id, F&& f) const {
    for (const Neighbor& nb : graph.row(id)) {
      if (nb.id == KnnGraph::kInvalid) break;
      f(nb.id);
    }
    return graph.k() * sizeof(Neighbor);
  }

  void prefetch_row(std::uint32_t) const {}
  void prefetch_tile(const std::vector<std::uint32_t>&, std::size_t) const {}
  void emit(std::vector<Neighbor>&) const {}
};

/// Adjacency adapter over an optimized serving layout: CSR rows in BFS
/// order over base rows gathered to match. Results are mapped back through
/// `new_to_old`. It prefetches the frontier head's row and the next tile's
/// base rows, which pays off because the BFS order makes the rows a descent
/// walks near-adjacent.
struct LayoutAdjacency {
  static constexpr const char* kTraceLabel = "serving_search";
  const opt::ServingGraph& sg;
  const FloatMatrix& base = sg.base;
  // The layout carries its own norm cache, gathered into the permuted order
  // at build time (empty when built in strict mode — the scalar backend
  // ignores caches either way, per the kernels contract).
  std::span<const float> norms = sg.norms;

  std::size_t n() const { return sg.n(); }

  template <class F>
  std::size_t for_each_neighbor(std::uint32_t id, F&& f) const {
    const auto row = sg.row(id);
    for (const std::uint32_t nb : row) f(nb);
    return row.size() * sizeof(std::uint32_t);
  }

  void prefetch_row(std::uint32_t id) const {
    WKNNG_PREFETCH(sg.neighbors.data() + sg.offsets[id]);
  }
  void prefetch_tile(const std::vector<std::uint32_t>& ids,
                     std::size_t t0) const {
    const std::size_t end = std::min(ids.size(), t0 + kWarpSize);
    for (std::size_t i = t0; i < end; ++i) {
      const float* r = base.row(ids[i]).data();
      for (std::size_t d = 0; d < sg.dim; d += 16) WKNNG_PREFETCH(r + d);
    }
  }

  /// Back to the caller's id space. The remap can reorder equal-distance
  /// ties, so re-establish the row invariant (sorted by (dist, id)).
  void emit(std::vector<Neighbor>& found) const {
    for (Neighbor& nb : found) nb.id = sg.new_to_old[nb.id];
    std::sort(found.begin(), found.end());
  }
};

/// The warp-per-query beam search behind every entry point: scored entry
/// table, FrontierHeap descent with patience and visit budget, optional sq8
/// descent with exact rerank, exclusion mask, top-k emission. `adj` decides
/// how rows are read and ids mapped; `table` holds ids in adj's id space;
/// inputs are validated by the caller.
template <class Adjacency>
BatchSearchResult search_kernel(ThreadPool& pool, const Adjacency& adj,
                                const EntryTable& table,
                                const FloatMatrix& queries,
                                const SearchParams& params,
                                std::span<const std::uint8_t> exclude,
                                const kernels::Sq8View* sq8,
                                SearchScratch* scratch,
                                simt::StatsAccumulator* acc) {
  const std::size_t n = adj.n();
  const std::size_t nq = queries.rows();
  const FloatMatrix& base = adj.base;

  BatchSearchResult out;
  out.results = KnnGraph(nq, params.k);
  out.visits.assign(nq, 0);
  out.capped.assign(nq, 0);
  if (nq == 0 || n == 0) return out;  // nothing to search; no launch

  // Degenerate-parameter clamps (see header): results never exceed the base,
  // and the entry heap never outgrows the sample feeding it. entry_sample is
  // known positive — admission validation rejected zero.
  const bool use_sq8 = sq8 != nullptr && sq8->valid();
  const std::size_t k_eff = std::min(params.k, n);
  const std::size_t entry_keep = std::max<std::size_t>(
      1, std::min(params.entry_keep, params.entry_sample));
  // Compressed path: how many sq8-ranked survivors get the exact rescore.
  // Zero on the uncompressed path, so the result-heap size is untouched.
  const std::size_t rr_eff =
      use_sq8 ? std::min(effective_rerank_depth(k_eff, params.rerank_depth), n)
              : 0;
  const std::size_t frontier_cap = frontier_capacity(params);

  SearchScratch local_scratch;
  SearchScratch& scr = scratch != nullptr ? *scratch : local_scratch;

  simt::LaunchConfig search_config;
  search_config.trace_label = Adjacency::kTraceLabel;
  simt::launch_warps(pool, nq, search_config, acc, [&](Warp& w) {
    const std::size_t qi = w.id();
    const auto query = queries.row(qi);

    SearchScratch::Slot& slot = scr.local();
    slot.begin(n);
    // Tombstone check: one byte load on candidate admission; an empty mask
    // compiles down to the constant-false branch.
    const bool has_exclude = !exclude.empty();
    auto is_excluded = [&](std::uint32_t id) {
      return has_exclude && exclude[id] != 0;
    };
    std::uint64_t visits = 0;
    bool capped = false;
    FrontierHeap frontier(slot.frontier, frontier_cap);
    // The compressed path widens the result heap to the rerank depth so the
    // exact rescore has a pool to re-order (rr_eff is 0 otherwise).
    TopK best(std::max(std::max(k_eff, params.beam), rr_eff));

    // Compressed path: prepare the query once per warp (one fp32 row read);
    // every candidate after this streams 1 byte/dim of code data.
    kernels::Sq8Query sq8_q;
    if (use_sq8) {
      sq8_q = simt::warp_sq8_prepare(w, query, sq8->codebook(), slot.qprep);
    }

    // Scores ids[t0, t0 + kWarpSize) as one warp-tile of candidates.
    auto score_tile = [&](const std::vector<std::uint32_t>& ids,
                          std::size_t t0, Lanes<std::uint32_t>& lane_ids) {
      const std::size_t cnt = std::min<std::size_t>(kWarpSize, ids.size() - t0);
      Lanes<bool> active{};
      for (std::size_t l = 0; l < cnt; ++l) {
        lane_ids[l] = ids[t0 + l];
        active[l] = true;
      }
      return use_sq8 ? simt::warp_sq8_l2_batch(
                           w, sq8_q, lane_ids, active,
                           [&](std::uint32_t p) { return sq8->row(p); },
                           sq8->terms)
                     : simt::warp_l2_batch(
                           w, query, lane_ids, active,
                           [&](std::uint32_t p) { return base.row(p); },
                           adj.norms);
    };

    // Entry scoring: the packed entry table, streamed as contiguous 32-row
    // tiles (lane ids are table slots; the sq8 path gathers code rows by id).
    TopK entries(entry_keep);
    for (std::size_t t0 = 0; t0 < table.size(); t0 += kWarpSize) {
      const std::size_t cnt =
          std::min<std::size_t>(kWarpSize, table.size() - t0);
      Lanes<std::uint32_t> lane_ids{};
      Lanes<float> d;
      if (use_sq8) {
        d = score_tile(table.ids, t0, lane_ids);
      } else {
        Lanes<bool> active{};
        for (std::size_t l = 0; l < cnt; ++l) {
          lane_ids[l] = static_cast<std::uint32_t>(t0 + l);
          active[l] = true;
        }
        d = simt::warp_l2_batch(
            w, query, lane_ids, active,
            [&](std::uint32_t t) { return table.rows.row(t); }, table.norms);
      }
      for (std::size_t l = 0; l < cnt; ++l) {
        entries.push(d[l], table.ids[t0 + l]);
      }
    }
    visits += table.size();
    // Only the kept entries are marked visited: the rest of the table stays
    // ordinary nodes the descent may reach (and score again).
    for (const Neighbor& e : entries.take_sorted()) {
      slot.test_and_set(e.id);
      frontier.push(e, best.worst());  // excluded entries still navigate
      if (!is_excluded(e.id)) best.push(e.dist, e.id);
    }

    // Best-first descent over the graph.
    std::vector<std::uint32_t>& expand = slot.expand;
    std::size_t stale_hops = 0;  // hops since the result heap last improved
    while (!frontier.empty()) {
      const Neighbor cur = frontier.pop();
      if (cur.dist > best.worst()) break;
      if (params.visit_budget != 0 && visits >= params.visit_budget) {
        capped = true;  // the frontier still held a useful candidate
        break;
      }
      // The heap's new head is the likely next expansion.
      if (!frontier.empty()) adj.prefetch_row(frontier.top().id);
      expand.clear();
      w.count_read(adj.for_each_neighbor(cur.id, [&](std::uint32_t nb) {
        if (!slot.test_and_set(nb)) expand.push_back(nb);
      }));
      // While one tile is scored, the next tile's rows are on their way.
      adj.prefetch_tile(expand, 0);
      bool improved = false;
      for (std::size_t t0 = 0; t0 < expand.size(); t0 += kWarpSize) {
        adj.prefetch_tile(expand, t0 + kWarpSize);
        Lanes<std::uint32_t> lane_ids{};
        const Lanes<float> d = score_tile(expand, t0, lane_ids);
        const std::size_t cnt =
            std::min<std::size_t>(kWarpSize, expand.size() - t0);
        for (std::size_t l = 0; l < cnt; ++l) {
          if (d[l] < best.worst()) {
            frontier.push({d[l], lane_ids[l]}, best.worst());
            if (!is_excluded(lane_ids[l])) {
              best.push(d[l], lane_ids[l]);
              improved = true;
            }
          }
        }
        visits += cnt;
      }
      if (params.patience != 0) {
        stale_hops = improved ? 0 : stale_hops + 1;
        if (stale_hops >= params.patience) break;
      }
    }

    auto found = best.take_sorted();
    if (use_sq8) {
      // Exact rerank: rescore the top rr_eff sq8-ranked survivors against the
      // fp32 base rows so the emitted top-k carries exact distances in exact
      // order. Approximation error only matters below the rerank horizon.
      if (found.size() > rr_eff) found.resize(rr_eff);
      TopK exact(k_eff);
      for (std::size_t t0 = 0; t0 < found.size(); t0 += kWarpSize) {
        const std::size_t cnt =
            std::min<std::size_t>(kWarpSize, found.size() - t0);
        Lanes<std::uint32_t> lane_ids{};
        Lanes<bool> active{};
        for (std::size_t l = 0; l < cnt; ++l) {
          lane_ids[l] = found[t0 + l].id;
          active[l] = true;
        }
        const Lanes<float> d = simt::warp_l2_batch(
            w, query, lane_ids, active,
            [&](std::uint32_t p) { return base.row(p); }, adj.norms);
        for (std::size_t l = 0; l < cnt; ++l) exact.push(d[l], lane_ids[l]);
        visits += cnt;
      }
      found = exact.take_sorted();
    }
    if (found.size() > k_eff) found.resize(k_eff);
    adj.emit(found);
    auto row = out.results.row(qi);
    std::copy(found.begin(), found.end(), row.begin());
    out.visits[qi] = visits;  // this warp's slot only: no shared accumulator
    out.capped[qi] = capped ? 1 : 0;
  });

  return out;
}

/// The layout's entry table: drawn in the source id space and mapped in
/// through `old_to_new`, so it holds the raw graph's table points in the
/// raw graph's order.
const EntryTable& layout_entry_table(const opt::ServingGraph& sg,
                                     const SearchParams& params) {
  return sg.search_cache.entry_table(sg.base, params.seed,
                                     params.entry_sample, sg.old_to_new);
}

}  // namespace

void validate_search_params(const SearchParams& params) {
  if (params.k == 0) {
    throw SearchParamError("SearchParams: k must be positive");
  }
  if (params.entry_sample == 0) {
    throw SearchParamError(
        "SearchParams: entry_sample must be positive — with no scored entry "
        "sample the descent has no seeds and every query would come back "
        "empty");
  }
}

SearchScratch::Slot& SearchScratch::local() {
  const std::thread::id tid = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mutex_);
  std::unique_ptr<Slot>& slot = slots_[tid];
  if (!slot) slot = std::make_unique<Slot>();
  return *slot;
}

BatchSearchResult graph_search_batch(ThreadPool& pool, const FloatMatrix& base,
                                     const KnnGraph& graph,
                                     const FloatMatrix& queries,
                                     std::span<const std::uint64_t> tags,
                                     const SearchParams& params,
                                     SearchScratch* scratch,
                                     simt::StatsAccumulator* acc,
                                     const kernels::Sq8View* sq8,
                                     std::span<const std::uint8_t> exclude,
                                     SearchCache* cache) {
  WKNNG_CHECK(base.cols() == queries.cols());
  WKNNG_CHECK_MSG(exclude.empty() || exclude.size() == base.rows(),
                  "exclusion mask size " << exclude.size() << " != base "
                                         << base.rows());
  WKNNG_CHECK(graph.num_points() == base.rows());
  validate_search_params(params);
  if (sq8 != nullptr && sq8->valid()) {
    WKNNG_CHECK_MSG(sq8->matrix->rows() == base.rows() &&
                        sq8->matrix->dim() == base.cols(),
                    "sq8 codes are " << sq8->matrix->rows() << "x"
                        << sq8->matrix->dim() << ", base is " << base.rows()
                        << "x" << base.cols());
  }
  WKNNG_CHECK_MSG(tags.empty() || tags.size() == queries.rows(),
                  "tags size " << tags.size() << " != queries "
                               << queries.rows());
  // Without an owning artifact the identical table is built for this call
  // and the base norms are computed on the fly.
  SearchCache call_cache;
  SearchCache& c = cache != nullptr ? *cache : call_cache;
  const std::span<const float> norms =
      cache != nullptr ? cache->norms(base) : std::span<const float>{};
  return search_kernel(pool, RawAdjacency{base, graph, norms},
                       c.entry_table(base, params.seed, params.entry_sample),
                       queries, params, exclude, sq8, scratch, acc);
}

BatchSearchResult serving_search_batch(ThreadPool& pool,
                                       const opt::ServingGraph& sg,
                                       const FloatMatrix& queries,
                                       std::span<const std::uint64_t> tags,
                                       const SearchParams& params,
                                       std::span<const std::uint8_t> exclude,
                                       SearchScratch* scratch,
                                       simt::StatsAccumulator* acc) {
  WKNNG_CHECK_MSG(sg.dim == queries.cols(),
                  "serving layout dim " << sg.dim << " != query dim "
                                        << queries.cols());
  WKNNG_CHECK_MSG(sg.offsets.size() == sg.n() + 1,
                  "serving layout CSR malformed");
  WKNNG_CHECK_MSG(exclude.empty() || exclude.size() == sg.n(),
                  "exclusion override size " << exclude.size()
                                             << " != layout rows " << sg.n());
  validate_search_params(params);
  WKNNG_CHECK_MSG(tags.empty() || tags.size() == queries.rows(),
                  "tags size " << tags.size() << " != queries "
                               << queries.rows());
  // Caller override first (fresh tombstones, already permuted), the layout's
  // baked mask otherwise. SQ8 codes are stored in source order, so the
  // layout is searched uncompressed.
  const std::span<const std::uint8_t> mask =
      !exclude.empty() ? exclude : std::span<const std::uint8_t>(sg.exclude);
  return search_kernel(pool, LayoutAdjacency{sg}, layout_entry_table(sg, params),
                       queries, params, mask, nullptr, scratch, acc);
}

void warm_search_cache(const FloatMatrix& base, SearchCache& cache,
                       const SearchParams& params) {
  (void)cache.norms(base);
  (void)cache.entry_table(base, params.seed, params.entry_sample);
}

void warm_search_cache(const opt::ServingGraph& sg,
                       const SearchParams& params) {
  (void)layout_entry_table(sg, params);
}

KnnGraph graph_search(ThreadPool& pool, const FloatMatrix& base,
                      const KnnGraph& graph, const FloatMatrix& queries,
                      const SearchParams& params, SearchStats* stats,
                      simt::StatsAccumulator* acc,
                      const kernels::Sq8View* sq8) {
  BatchSearchResult batch = graph_search_batch(pool, base, graph, queries, {},
                                               params, nullptr, acc, sq8);
  if (stats != nullptr) {
    // Sequential index-order merge: the total is identical for every pool
    // size and schedule, unlike a racing shared counter.
    for (const std::uint64_t v : batch.visits) stats->points_visited += v;
    stats->queries += queries.rows();
  }
  return std::move(batch.results);
}

}  // namespace wknng::core
