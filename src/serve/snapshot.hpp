#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "core/entry_table.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "opt/serving_graph.hpp"

namespace wknng {
class ThreadPool;
}  // namespace wknng

namespace wknng::serve {

/// One immutable (base points, K-NN graph) pair served to queries. Builders
/// (core::build_knng, dynamic::DynamicKnng) construct a snapshot off to the
/// side and publish it whole; the serving path never sees a half-updated
/// graph. `version` is the publisher's monotonic label — responses carry it
/// so a client (or a test) can say exactly which graph answered them.
///
/// A snapshot may additionally carry the base's SQ8 compressed tier (the
/// code matrix the builder trained under `compression=sq8`, plus the
/// per-row term cache). When present, batch executors score candidates
/// against the compressed rows and rerank exactly; when absent, serving is
/// bit-identical to the uncompressed path.
/// A snapshot published by the dynamic index (src/dynamic) additionally
/// carries the mutable-lifecycle metadata frozen at publish time:
/// `tombstones` (one byte per base row; non-zero = deleted, the executor
/// hands it to the search kernel as the exclusion mask so deleted points are
/// invisible to results the moment the snapshot lands) and `external_ids`
/// (internal row -> stable client-facing id; the executor remaps every
/// emitted neighbor, so ids survive compaction's row rewrites). Both are
/// null on static snapshots, which serve exactly as before.
struct GraphSnapshot {
  std::uint64_t version = 0;
  FloatMatrix base;
  KnnGraph graph;
  std::shared_ptr<const kernels::Sq8Matrix> sq8;  ///< optional compressed tier
  std::vector<float> sq8_terms;  ///< per-row term cache (empty in strict mode)
  std::shared_ptr<const std::vector<std::uint8_t>> tombstones;
  std::shared_ptr<const std::vector<std::uint32_t>> external_ids;

  /// Optional optimized serving layout (opt::optimize_serving over this
  /// snapshot's graph): pruned edges, BFS/CSR relayout, gathered base rows.
  /// Batch executors search it through core::serving_search_batch (the
  /// kernel's layout adapter) when present and no sq8 tier is carried; null
  /// serves through core::graph_search_batch over `graph`.
  std::shared_ptr<const opt::ServingGraph> serving;

  /// Tombstones re-permuted into `serving`'s id space, frozen at publish.
  /// Lets the dynamic index reuse a structurally-valid layout across
  /// delete-only publications: the mask is rebuilt (O(n) permute) every
  /// publish while the layout itself is rebuilt only on structural change.
  /// Null → the layout's own baked `exclude` applies.
  std::shared_ptr<const std::vector<std::uint8_t>> serving_exclude;

  /// Base norms and entry tables of raw-path searches over this snapshot
  /// (the layout path reads `serving`'s own cache). Built once per snapshot
  /// — ServeEngine warms it when the snapshot is installed — and gone with
  /// it, so a later snapshot of the same shape never sees stale norms. A
  /// copied snapshot starts with an empty cache.
  mutable core::SearchCache search_cache;

  GraphSnapshot() = default;
  GraphSnapshot(std::uint64_t v, FloatMatrix b, KnnGraph g)
      : version(v), base(std::move(b)), graph(std::move(g)) {}
  GraphSnapshot(std::uint64_t v, FloatMatrix b, KnnGraph g,
                std::shared_ptr<const kernels::Sq8Matrix> codes)
      : version(v), base(std::move(b)), graph(std::move(g)),
        sq8(std::move(codes)) {
    if (sq8 != nullptr && !kernels::strict_mode()) {
      sq8_terms = kernels::sq8_code_terms(*sq8);
    }
  }

  /// Borrowed view of the compressed tier; `!valid()` when the snapshot has
  /// no codes. The view aliases this snapshot — readers keep the snapshot
  /// pinned (shared_ptr) for as long as they score through the view.
  kernels::Sq8View sq8_view() const {
    if (sq8 == nullptr) return {};
    return {sq8.get(), sq8_terms};
  }

  /// The exclusion mask batch executors pass to the search kernel: empty for
  /// static snapshots or when the mask's shape does not match the base.
  std::span<const std::uint8_t> exclusion_mask() const {
    if (tombstones == nullptr || tombstones->size() != base.rows()) return {};
    return {tombstones->data(), tombstones->size()};
  }

  /// Maps an internal row id to its stable external id (identity when the
  /// snapshot carries no mapping).
  std::uint32_t external_id(std::uint32_t internal) const {
    if (external_ids == nullptr || internal >= external_ids->size()) {
      return internal;
    }
    return (*external_ids)[internal];
  }

  /// The optimized layout to serve through, or null when the snapshot
  /// carries none or the layout's shape does not match this snapshot's base
  /// (a layout from another graph is never served). The sq8 fallback is the
  /// executor's call, not this accessor's.
  const opt::ServingGraph* serving_layout() const {
    if (serving == nullptr) return nullptr;
    if (serving->dim != base.cols() || serving->n() != base.rows()) {
      return nullptr;
    }
    return serving.get();
  }

  /// The exclusion mask for the optimized path, in the layout's permuted id
  /// space: the publish-time re-permuted tombstones when present, the
  /// layout's baked mask otherwise.
  std::span<const std::uint8_t> serving_exclusion() const {
    if (serving == nullptr) return {};
    if (serving_exclude != nullptr &&
        serving_exclude->size() == serving->n()) {
      return {serving_exclude->data(), serving_exclude->size()};
    }
    return {serving->exclude.data(), serving->exclude.size()};
  }
};

/// The single-slot publication point between one writer (the build / insert
/// side) and many readers (batch executors). Readers pin the current
/// snapshot with a shared_ptr copy (once per submit and once per batch); a
/// publish swaps the pointer, after which new batches run on the new graph
/// while in-flight batches finish on the old one — it stays alive until its
/// last reader drops it. The pointer sits under a mutex held only for the
/// copy or the swap, not std::atomic<std::shared_ptr>: libstdc++ guards that
/// with a lock bit ThreadSanitizer does not model, so the serving path could
/// not be race-checked. The replaced snapshot is released after the lock is
/// dropped, so a writer never frees a graph inside the critical section.
class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  explicit SnapshotSlot(std::shared_ptr<const GraphSnapshot> initial)
      : slot_(std::move(initial)) {}

  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  std::shared_ptr<const GraphSnapshot> current() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slot_;
  }

  void publish(std::shared_ptr<const GraphSnapshot> next) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      slot_.swap(next);
    }
    // `next` now holds the previous snapshot; it is dropped here, outside
    // the lock.
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const GraphSnapshot> slot_;
};

/// Convenience: snapshot the current state of an already-built graph.
inline std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::uint64_t version, const FloatMatrix& base, const KnnGraph& graph) {
  return std::make_shared<const GraphSnapshot>(version, base, graph);
}

/// Same, carrying the compressed tier (e.g. BuildResult::sq8). A null
/// `codes` degrades to the uncompressed snapshot.
inline std::shared_ptr<const GraphSnapshot> make_snapshot(
    std::uint64_t version, const FloatMatrix& base, const KnnGraph& graph,
    std::shared_ptr<const kernels::Sq8Matrix> codes) {
  return std::make_shared<const GraphSnapshot>(version, base, graph,
                                               std::move(codes));
}

/// Returns a copy of `snap` carrying an optimized serving layout built from
/// its graph: occlusion pruning + BFS/CSR relayout (opt::optimize_serving),
/// with the snapshot's tombstones baked in and source_version stamped to the
/// snapshot's version. The original snapshot is untouched; publish the
/// returned one to serve through the optimized path. Building is the
/// publisher's cost — query threads never see a half-built layout.
std::shared_ptr<const GraphSnapshot> with_serving_layout(
    ThreadPool& pool, const std::shared_ptr<const GraphSnapshot>& snap,
    const opt::OptimizeOptions& options = {});

}  // namespace wknng::serve
