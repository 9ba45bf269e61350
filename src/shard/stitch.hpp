#pragma once

#include <cstdint>
#include <vector>

#include "common/knn_graph.hpp"
#include "common/matrix.hpp"
#include "common/thread_pool.hpp"
#include "core/graph_search.hpp"
#include "shard/partition.hpp"

namespace wknng::shard {

/// The cross-shard neighbor-exchange round run after the per-shard graphs
/// are merged: a sharded build only ever scores intra-shard pairs, so a
/// point sitting near a shard boundary is missing its true neighbors on the
/// other side. The stitch finds those points (their second-nearest shard
/// centroid is almost as close as their own), searches the neighboring
/// shard's graph for candidates, and offers each candidate edge to *both*
/// endpoints' merged rows (a bounded insert that keeps rows sorted).
struct StitchParams {
  bool enabled = true;

  /// A point is a boundary point iff d2 <= boundary_ratio * d1, where d1/d2
  /// are its squared distances to its own and second-nearest shard centroid.
  /// 1.0 stitches almost nothing; larger ratios stitch deeper into shard
  /// interiors (at the cost of more foreign searches).
  double boundary_ratio = 4.0;

  /// Foreign candidates retrieved per boundary point (0 = the graph's k).
  std::size_t candidates = 0;

  /// Search knobs for the foreign-shard descent (k is overridden by
  /// `candidates`; results are a pure function of the point — batching- and
  /// schedule-independent).
  core::SearchParams search;
};

struct StitchStats {
  std::uint64_t boundary_points = 0;
  std::uint64_t stitched_edges = 0;  ///< offers actually inserted
};

/// Offers `cand` to the bounded sorted row `row` (ascending (dist, id),
/// valid prefix). Returns true when inserted. Rejects self-loops, duplicate
/// ids, non-finite distances, and candidates worse than a full row's tail.
bool offer_edge(std::span<Neighbor> row, std::uint32_t self, Neighbor cand);

/// Runs one stitch round over `merged` in place. `shard_bases[s]` /
/// `shard_graphs[s]` are shard s's gathered rows and local-id graph
/// (quarantined shards may be empty: they are skipped as search targets but
/// their points still receive offered edges). Deterministic in its inputs:
/// offers are generated shard-by-shard and applied in ascending
/// (target shard, point, candidate-rank) order on one thread.
StitchStats stitch_graph(ThreadPool& pool, const FloatMatrix& points,
                         const ShardPartition& part,
                         const std::vector<FloatMatrix>& shard_bases,
                         const std::vector<KnnGraph>& shard_graphs,
                         KnnGraph& merged, const StitchParams& params);

}  // namespace wknng::shard
