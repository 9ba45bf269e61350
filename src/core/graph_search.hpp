#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "common/topk.hpp"
#include "core/entry_table.hpp"
#include "kernels/sq8.hpp"
#include "opt/serving_graph.hpp"
#include "simt/stats.hpp"

namespace wknng::core {

/// The descent's candidate frontier: a min-heap over borrowed storage, popped
/// in ascending (dist, id) order — the exact pop sequence of the
/// std::priority_queue it replaced (all elements are distinct, since the
/// visited marks admit each id once, so the order is total and bit-identical
/// regardless of internal heap layout). Two properties matter on the serving
/// path:
///
///  - *No per-query allocation*: the storage vector lives in a
///    SearchScratch::Slot and keeps its capacity across queries; `reset`
///    only clears the length.
///  - *Bounded*: when the heap reaches its capacity, `push` first evicts
///    every element whose distance exceeds the caller's current pruning
///    bound (the result heap's worst). Such elements can never be expanded:
///    the descent breaks at the first popped candidate above the bound, and
///    the bound only tightens — so evicting them is behavior-identical, it
///    just reaches the "frontier exhausted" exit instead of the "bound
///    crossed" exit. If nothing is evictable (bound still +inf), the storage
///    grows — correctness over the cap, amortized by slot reuse.
class FrontierHeap {
 public:
  /// Binds to `storage` (cleared) with a soft capacity of `capacity`.
  FrontierHeap(std::vector<Neighbor>& storage, std::size_t capacity)
      : heap_(&storage), cap_(capacity < 4 ? 4 : capacity) {
    heap_->clear();
  }

  bool empty() const { return heap_->empty(); }
  std::size_t size() const { return heap_->size(); }

  /// The minimum element (undefined when empty).
  const Neighbor& top() const { return heap_->front(); }

  /// Inserts `nb`; `bound` is the caller's current pruning threshold
  /// (elements strictly above it are evictable, see class comment).
  void push(Neighbor nb, float bound) {
    if (heap_->size() >= cap_) compact(bound);
    heap_->push_back(nb);
    std::push_heap(heap_->begin(), heap_->end(), Cmp{});
  }

  /// Removes and returns the minimum element.
  Neighbor pop() {
    std::pop_heap(heap_->begin(), heap_->end(), Cmp{});
    const Neighbor nb = heap_->back();
    heap_->pop_back();
    return nb;
  }

 private:
  // std::*_heap build a max-heap under the comparator; "greater" makes the
  // front the minimum Neighbor — the same (dist, id) pop order as the old
  // MinHeapCmp priority_queue.
  struct Cmp {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return b < a;
    }
  };

  /// Drops every element with dist > bound, then re-heapifies. Quadratic-free
  /// single pass; a no-op when bound is +inf.
  void compact(float bound) {
    auto it = std::remove_if(
        heap_->begin(), heap_->end(),
        [bound](const Neighbor& nb) { return nb.dist > bound; });
    if (it == heap_->end()) return;  // nothing evictable: grow instead
    heap_->erase(it, heap_->end());
    std::make_heap(heap_->begin(), heap_->end(), Cmp{});
  }

  std::vector<Neighbor>* heap_;
  std::size_t cap_;
};

/// Out-of-sample query answering over a built K-NN graph (GNNS-style
/// best-first descent; Hajebi et al., IJCAI 2011) — the "similarity search"
/// application the abstract motivates, as a library facility.
///
/// A K-NN graph is only weakly navigable across cluster boundaries, so the
/// search seeds itself from the best of a scored random sample
/// (`entry_sample`) instead of raw random entries, then descends greedily
/// with a bounded frontier (`beam`).
struct SearchParams {
  std::size_t k = 10;             ///< results per query
  /// Random draws behind the entry table (see EntryTable): one seeded
  /// sample of the searched rows, shared by every query, of which each
  /// query scores all and keeps the best `entry_keep`.
  std::size_t entry_sample = 256;
  std::size_t entry_keep = 8;     ///< best entries that seed the frontier
  std::size_t beam = 48;          ///< result/frontier width during descent
  std::uint64_t seed = 7;         ///< entry table seed

  /// Adaptive early termination: stop the descent once `patience` consecutive
  /// hop expansions admit nothing into the result/beam heap (the top-k has
  /// stopped improving). 0 disables the check — the descent runs until the
  /// frontier's best candidate is worse than the heap's worst, exactly the
  /// pre-existing stopping rule, so the default is bit-identical to before.
  std::size_t patience = 0;

  /// Per-query distance-evaluation budget: the descent stops expanding once
  /// `visits` reaches this many scored candidates (checked at hop
  /// granularity, so a query may overshoot by one row of expansions). A query
  /// stopped by its budget while the frontier still held a useful candidate
  /// is flagged in BatchSearchResult::capped — the signal the serving side's
  /// bucket learner escalates on. 0 = unlimited (bit-identical to before).
  std::size_t visit_budget = 0;

  /// Compressed-tier rerank depth: how many sq8-scored candidates survive
  /// to the exact fp32 rerank before the top-k is emitted. 0 = auto (2*k);
  /// explicit values are clamped up to k. Ignored unless an Sq8View is
  /// supplied to the search.
  std::size_t rerank_depth = 0;
};

struct SearchStats {
  std::uint64_t points_visited = 0;   ///< distance evaluations, total
  std::uint64_t queries = 0;
};

/// Admission validation shared by every search entry point (and by
/// serve::ServeEngine at construction, so a misconfigured engine fails at
/// setup instead of at the first query). Throws wknng::SearchParamError on a
/// configuration that cannot produce meaningful results:
///  - `k == 0` (no results requested)
///  - `entry_sample == 0` (nothing would seed the descent; every query would
///    silently come back empty — historically this was clamped into the
///    entry_keep bound and slipped through)
/// `entry_keep > entry_sample` remains a clamp, not an error: the keep heap
/// simply cannot outgrow the sample feeding it.
void validate_search_params(const SearchParams& params);

/// Reusable per-worker search scratch — the arena a serving loop hands to
/// every `graph_search_batch` call so the hot path stops paying an O(n)
/// visited-array allocation+clear per query. Each worker thread lazily
/// acquires a private slot (one mutex-protected lookup per query); inside a
/// slot, visited marks are epoch-stamped so "clear" is a counter bump. The
/// scratch holds nothing derived from the searched rows, so one scratch may
/// serve any sequence of snapshots; row-derived caches live on the artifact
/// (SearchCache).
class SearchScratch {
 public:
  struct Slot {
    std::vector<std::uint32_t> mark;  ///< epoch stamp per base point
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> expand;
    std::vector<float> qprep;  ///< prepared-query buffer (sq8 path only)
    std::vector<Neighbor> frontier;  ///< FrontierHeap storage (capacity reused)

    /// Starts one query over a base of `n` points: grows `mark` if needed
    /// and invalidates every previous mark by bumping the epoch.
    void begin(std::size_t n) {
      if (mark.size() < n) {
        mark.assign(n, 0);
        epoch = 0;
      }
      if (++epoch == 0) {  // epoch wrapped: hard-clear once every 2^32 queries
        std::fill(mark.begin(), mark.end(), 0);
        epoch = 1;
      }
    }

    /// Returns whether `id` was already visited this query; marks it either way.
    bool test_and_set(std::uint32_t id) {
      if (mark[id] == epoch) return true;
      mark[id] = epoch;
      return false;
    }
  };

  /// The calling thread's slot (created on first use).
  Slot& local();

 private:
  std::mutex mutex_;
  std::unordered_map<std::thread::id, std::unique_ptr<Slot>> slots_;
};

/// Result of a batched search: one KnnGraph row per query plus each query's
/// distance-evaluation count. `visits` is written per query by its own warp
/// (no shared accumulator), so summing it is deterministic regardless of
/// worker count or schedule.
struct BatchSearchResult {
  KnnGraph results;
  std::vector<std::uint64_t> visits;

  /// capped[i] != 0 when query i was stopped by `SearchParams::visit_budget`
  /// while the frontier still held a candidate inside the result heap's
  /// bound — i.e. the budget, not convergence, ended the search. All zeros
  /// when no budget is set. The serving engine's bucket controller escalates
  /// exactly these queries to the next budget rung.
  std::vector<std::uint8_t> capped;
};

/// The two batched search entry points. Both run one warp-per-query beam
/// search kernel (entry scoring, best-first FrontierHeap descent, patience,
/// visit budget, exclusion mask, top-k emission); they differ only in the
/// adjacency adapter the kernel reads rows through:
///
///  - `graph_search_batch` searches the raw builder graph: fixed-width
///    KnnGraph rows cut at kInvalid, ids are the caller's ids throughout,
///    no prefetch hints.
///  - `serving_search_batch` searches an optimized layout
///    (opt::optimize_serving): pruned CSR rows in BFS order over base rows
///    gathered to match. While one warp-tile of candidates is scored, the
///    next tile's base rows and the frontier head's CSR row are prefetched,
///    so the descent streams instead of pointer-chasing. The layout's entry
///    table is drawn in the *pre-permutation* space and mapped through
///    `sg.old_to_new`, and every emitted neighbor is mapped back through
///    `sg.new_to_old` — so with pruning disabled and no early termination,
///    results are externally identical to graph_search_batch over the source
///    graph (tie-breaks between equal-distance points are the only possible
///    difference).
///
/// Entry scoring: every query scores the artifact's EntryTable — one seeded
/// sample of `params.entry_sample` draws, its rows packed contiguously — as
/// 32-row tiles, keeps the best `params.entry_keep`, and marks only those
/// visited; the other table rows stay ordinary nodes the descent may reach.
/// `visits` counts every distance evaluation: the whole table, then each
/// descent candidate (a table row reached again is scored again). The table
/// lives in a SearchCache on the artifact that owns the rows: `sg`'s own
/// cache on the layout entry point, the caller's `cache` (GraphSnapshot
/// holds one) on the raw entry point. With a null `cache` the raw entry
/// point builds the identical table for the call, so answers do not depend
/// on whether a cache was supplied.
///
/// Results are a pure function of (base, graph or layout, params, query
/// vector) — independent of how requests were batched together, which
/// worker ran them, what else was in the batch, or the cache. `tags` is kept
/// for callers that label requests (it must be empty or one per query) and
/// does not affect answers. This is the determinism contract `serve::ServeEngine` relies on, so replays and
/// re-batched runs return bit-identical neighbors.
///
/// Degenerate inputs are clamped, never UB:
///  - zero queries → an empty result, no kernel launch
///  - `k > base.rows()` → rows carry all base points, tail slots invalid
///  - `entry_keep > entry_sample` → keep clamped to the sample size
///  - `entry_sample` larger than the base → the table stops at n points
///
/// `params.patience` / `params.visit_budget` behave identically on both.
/// `scratch` may be null (a private arena is used for the call).
///
/// `sq8` (raw entry point only), when valid, is the base's compressed tier
/// (kernels::Sq8View over codes aligned with `base` rows): every candidate
/// distance during entry scoring and descent streams the u8 code rows
/// asymmetrically, and the top `params.rerank_depth` survivors are rescored
/// against the fp32 base rows before the exact top-k is emitted. A
/// null/invalid view leaves the search bit-identical to the uncompressed
/// path. The layout entry point takes no view: the codes stay in source
/// order, so serving falls back to the raw path when a snapshot carries both.
///
/// `exclude`, when non-empty, has one byte per base point; points with a
/// non-zero byte (tombstones in the dynamic index) are *never admitted to
/// the result top-k* (nor to the sq8 exact rerank) but remain navigable: the
/// descent still walks through them, so a graph whose edges have not yet
/// been repaired after a delete keeps its connectivity. An empty span is "no
/// exclusions". On the layout entry point the mask is *in the permuted id
/// space* and replaces the layout's baked `sg.exclude` — the dynamic index
/// uses this to serve delete-only publications through a reused layout by
/// re-permuting the fresh tombstone vector instead of rebuilding the layout;
/// empty = use `sg.exclude` as built. Baked tombstones are why a layout must
/// never outlive the snapshot version it was built from — see
/// opt::ServingGraph::source_version.
BatchSearchResult graph_search_batch(ThreadPool& pool, const FloatMatrix& base,
                                     const KnnGraph& graph,
                                     const FloatMatrix& queries,
                                     std::span<const std::uint64_t> tags,
                                     const SearchParams& params,
                                     SearchScratch* scratch = nullptr,
                                     simt::StatsAccumulator* acc = nullptr,
                                     const kernels::Sq8View* sq8 = nullptr,
                                     std::span<const std::uint8_t> exclude = {},
                                     SearchCache* cache = nullptr);

BatchSearchResult serving_search_batch(ThreadPool& pool,
                                       const opt::ServingGraph& sg,
                                       const FloatMatrix& queries,
                                       std::span<const std::uint64_t> tags,
                                       const SearchParams& params,
                                       std::span<const std::uint8_t> exclude = {},
                                       SearchScratch* scratch = nullptr,
                                       simt::StatsAccumulator* acc = nullptr);

/// Builds, ahead of the first query, what a search with `params` reads from
/// an artifact's SearchCache: the base norms and entry table of a raw graph's
/// `base`, or the entry table of layout `sg`. ServeEngine calls these when a
/// snapshot is installed, so no query pays for a cold cache.
void warm_search_cache(const FloatMatrix& base, SearchCache& cache,
                       const SearchParams& params);
void warm_search_cache(const opt::ServingGraph& sg, const SearchParams& params);

/// Answers every query against `base` using `graph` for navigation; one
/// warp per query on the SIMT substrate. Returns a KnnGraph with one row per
/// query (ids refer to base points). Thin wrapper over `graph_search_batch`
/// without a cache; `stats` totals are merged per-query in index order
/// (deterministic for any pool size).
KnnGraph graph_search(ThreadPool& pool, const FloatMatrix& base,
                      const KnnGraph& graph, const FloatMatrix& queries,
                      const SearchParams& params,
                      SearchStats* stats = nullptr,
                      simt::StatsAccumulator* acc = nullptr,
                      const kernels::Sq8View* sq8 = nullptr);

}  // namespace wknng::core
