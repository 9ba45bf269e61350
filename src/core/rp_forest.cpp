#include "core/rp_forest.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "simt/launch.hpp"
#include "simt/warp.hpp"

namespace wknng::core {

void Buckets::append(const Buckets& other) {
  const std::uint32_t base = offsets.back();
  ids.insert(ids.end(), other.ids.begin(), other.ids.end());
  offsets.reserve(offsets.size() + other.num_buckets());
  for (std::size_t b = 1; b < other.offsets.size(); ++b) {
    offsets.push_back(base + other.offsets[b]);
  }
}

namespace {

/// A node still being split: the half-open range [begin, end) of `perm`.
struct Segment {
  std::uint32_t begin;
  std::uint32_t end;

  std::uint32_t size() const { return end - begin; }
};

/// One warp's worth of projection work: 32 consecutive perm slots of one
/// segment, all projected onto that segment's direction.
struct Chunk {
  std::uint32_t perm_begin;
  std::uint32_t count;
  std::uint32_t segment;  // index into the level's direction matrix
};

/// The projection kernel body, shared by both tree builds: one warp
/// projects up to 32 rows `ids[0, count)` of `points` onto `dir` with one
/// dot_batch call (candidate-parallel dot products), out[l] = x_ids[l] . dir.
/// Charges the direction staged once per warp (shared-memory resident on
/// HW), every row read and one float written per point.
void project_warp(simt::Warp& w, const FloatMatrix& points,
                  const std::uint32_t* ids, std::size_t count,
                  const float* dir, float* out) {
  const std::size_t dim = points.cols();
  const float* rows[simt::kWarpSize];
  for (std::size_t l = 0; l < count; ++l) rows[l] = points.row(ids[l]).data();
  kernels::ops().dot_batch(dir, rows, count, dim, out);
  w.stats().flops += 2 * dim * count;
  w.count_read((count + 1) * dim * sizeof(float));
  w.count_write(count * sizeof(float));
}

}  // namespace

Buckets build_rp_tree(ThreadPool& pool, const FloatMatrix& points,
                      std::size_t leaf_size, std::uint64_t seed,
                      std::size_t tree_index, simt::StatsAccumulator* acc) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  WKNNG_CHECK_MSG(leaf_size >= 2, "leaf_size must be >= 2");

  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<float> proj(n, 0.0f);

  Buckets out;
  std::vector<Segment> active;
  if (n > leaf_size) {
    active.push_back({0, static_cast<std::uint32_t>(n)});
  } else {
    out.ids = perm;
    out.offsets.push_back(static_cast<std::uint32_t>(n));
    return out;
  }

  std::size_t level = 0;
  while (!active.empty()) {
    // Draw one Gaussian direction per active node, on the pool. The stream
    // id folds in (tree, level, node), so every split is an independent
    // projection and no draw depends on the order the nodes are visited.
    FloatMatrix dirs(active.size(), dim);
    pool.parallel_for(active.size(), [&](std::size_t s) {
      Rng rng(seed, (tree_index << 40) ^ (level << 20) ^ s);
      for (float& v : dirs.row(s)) v = rng.next_gaussian();
    });

    // Flatten the level into warp-sized chunks and project with one launch
    // (the level-synchronous GPU structure: one kernel per tree level).
    std::vector<Chunk> chunks;
    for (std::size_t s = 0; s < active.size(); ++s) {
      const Segment& seg = active[s];
      for (std::uint32_t b = seg.begin; b < seg.end; b += simt::kWarpSize) {
        const std::uint32_t cnt =
            std::min<std::uint32_t>(simt::kWarpSize, seg.end - b);
        chunks.push_back({b, cnt, static_cast<std::uint32_t>(s)});
      }
    }

    simt::LaunchConfig config;
    config.trace_label = "rp_forest_level";
    simt::launch_warps(pool, chunks.size(), config, acc, [&](simt::Warp& w) {
      const Chunk& c = chunks[w.id()];
      const std::uint32_t* ids = perm.data() + c.perm_begin;
      float dots[simt::kWarpSize];
      project_warp(w, points, ids, c.count, dirs.row(c.segment).data(), dots);
      // proj is keyed by point id (each point appears in exactly one active
      // node per level, so there is no aliasing).
      for (std::uint32_t l = 0; l < c.count; ++l) proj[ids[l]] = dots[l];
    });

    // Split: exact balanced median split of every node, on the pool.
    // nth_element partitions the node's ids around the positional median of
    // their projections, so both children get floor/ceil(m/2) points even
    // under duplicate projections — the tree depth is always
    // ceil(log2(n / leaf_size)). Nodes are disjoint ranges of perm, so each
    // split sees exactly the input a serial pass would give it.
    pool.parallel_for(active.size(), [&](std::size_t s) {
      const Segment& seg = active[s];
      auto begin = perm.begin() + seg.begin;
      std::nth_element(begin, begin + seg.size() / 2, perm.begin() + seg.end,
                       [&](std::uint32_t a, std::uint32_t b) {
                         return proj[a] < proj[b];
                       });
    });

    // Leaves are appended and the next level's nodes queued in node order,
    // so the buckets do not depend on the pool.
    std::vector<Segment> next;
    for (const Segment& seg : active) {
      const std::uint32_t mid = seg.size() / 2;
      const Segment left{seg.begin, seg.begin + mid};
      const Segment right{seg.begin + mid, seg.end};
      for (const Segment& child : {left, right}) {
        if (child.size() <= leaf_size) {
          out.ids.insert(out.ids.end(), perm.begin() + child.begin,
                         perm.begin() + child.end);
          out.offsets.push_back(static_cast<std::uint32_t>(out.ids.size()));
        } else {
          next.push_back(child);
        }
      }
    }
    active = std::move(next);
    ++level;
  }

  return out;
}

namespace {

/// Computes projections of `ids` onto `dir` with one SIMT launch of the
/// shared projection kernel (warp per 32-id chunk). Used by the spill-tree
/// build, which cannot use the in-place permutation representation.
std::vector<float> project_ids(ThreadPool& pool, const FloatMatrix& points,
                               std::span<const std::uint32_t> ids,
                               std::span<const float> dir,
                               simt::StatsAccumulator* acc) {
  std::vector<float> proj(ids.size());
  const std::size_t num_chunks =
      (ids.size() + simt::kWarpSize - 1) / simt::kWarpSize;
  simt::LaunchConfig config;
  config.trace_label = "rp_forest_project";
  simt::launch_warps(pool, num_chunks, config, acc, [&](simt::Warp& w) {
    const std::size_t begin = static_cast<std::size_t>(w.id()) * simt::kWarpSize;
    const std::size_t cnt =
        std::min<std::size_t>(simt::kWarpSize, ids.size() - begin);
    project_warp(w, points, ids.data() + begin, cnt, dir.data(),
                 proj.data() + begin);
  });
  return proj;
}

}  // namespace

Buckets build_rp_tree_spill(ThreadPool& pool, const FloatMatrix& points,
                            std::size_t leaf_size, float spill,
                            std::uint64_t seed, std::size_t tree_index,
                            simt::StatsAccumulator* acc) {
  WKNNG_CHECK_MSG(spill >= 0.0f && spill < 0.45f,
                  "spill must be in [0, 0.45): " << spill);
  if (spill == 0.0f) {
    return build_rp_tree(pool, points, leaf_size, seed, tree_index, acc);
  }
  WKNNG_CHECK_MSG(leaf_size >= 2, "leaf_size must be >= 2");
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();

  Buckets out;
  // Nodes own explicit id vectors — children overlap, so the permutation
  // trick of the non-spill build does not apply.
  struct Node {
    std::vector<std::uint32_t> ids;
    std::size_t depth;
  };
  std::vector<Node> stack;
  {
    std::vector<std::uint32_t> all(n);
    std::iota(all.begin(), all.end(), 0u);
    stack.push_back({std::move(all), 0});
  }

  std::size_t node_counter = 0;
  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    if (node.ids.size() <= leaf_size) {
      out.ids.insert(out.ids.end(), node.ids.begin(), node.ids.end());
      out.offsets.push_back(static_cast<std::uint32_t>(out.ids.size()));
      continue;
    }

    // Direction seeded by (tree, running node index) — deterministic for a
    // fixed traversal order.
    Rng rng(seed, (tree_index << 40) ^ 0x5B1LL ^ node_counter++);
    std::vector<float> dir(dim);
    for (auto& v : dir) v = rng.next_gaussian();

    const std::vector<float> proj = project_ids(pool, points, node.ids, dir, acc);

    // Order ids by projection; children take overlapping halves.
    std::vector<std::uint32_t> order(node.ids.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
      if (proj[a] != proj[b]) return proj[a] < proj[b];
      return node.ids[a] < node.ids[b];  // deterministic tiebreak
    });

    const std::size_t m = node.ids.size();
    const std::size_t mid = m / 2;
    const auto spill_count = static_cast<std::size_t>(spill * static_cast<float>(m));

    Node left{{}, node.depth + 1}, right{{}, node.depth + 1};
    left.ids.reserve(mid + spill_count);
    right.ids.reserve(m - mid + spill_count);
    for (std::size_t i = 0; i < std::min(m, mid + spill_count); ++i) {
      left.ids.push_back(node.ids[order[i]]);
    }
    for (std::size_t i = mid >= spill_count ? mid - spill_count : 0; i < m; ++i) {
      right.ids.push_back(node.ids[order[i]]);
    }
    stack.push_back(std::move(left));
    stack.push_back(std::move(right));
  }
  return out;
}

Buckets build_rp_forest(ThreadPool& pool, const FloatMatrix& points,
                        std::size_t num_trees, std::size_t leaf_size,
                        std::uint64_t seed, simt::StatsAccumulator* acc,
                        float spill) {
  WKNNG_CHECK(num_trees > 0);
  Buckets forest;
  for (std::size_t t = 0; t < num_trees; ++t) {
    Buckets tree =
        spill > 0.0f
            ? build_rp_tree_spill(pool, points, leaf_size, spill, seed, t, acc)
            : build_rp_tree(pool, points, leaf_size, seed, t, acc);
    if (t == 0) {
      forest = std::move(tree);
    } else {
      forest.append(tree);
    }
  }
  return forest;
}

}  // namespace wknng::core
