#include "core/rp_forest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "data/synthetic.hpp"
#include "exact/brute_force.hpp"
#include "exact/recall.hpp"
#include "kernels/kernels.hpp"

namespace wknng::core {
namespace {

/// The forest as it was built before levels ran on the pool, kept as the
/// reference: serial direction draws, the serial projection loop
/// (`acc += x[j] * dir[j]`, no FMA — tests are built without it) and one
/// nth_element after another. Under the scalar backend the pooled build must
/// reproduce it bit for bit.
Buckets serial_reference_tree(const FloatMatrix& points, std::size_t leaf_size,
                              std::uint64_t seed, std::size_t tree_index) {
  const std::size_t n = points.rows();
  const std::size_t dim = points.cols();
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::vector<float> proj(n, 0.0f);
  Buckets out;
  if (n <= leaf_size) {
    out.ids = perm;
    out.offsets.push_back(static_cast<std::uint32_t>(n));
    return out;
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> active{
      {0u, static_cast<std::uint32_t>(n)}};
  for (std::size_t level = 0; !active.empty(); ++level) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> next;
    for (std::size_t s = 0; s < active.size(); ++s) {
      Rng rng(seed, (tree_index << 40) ^ (level << 20) ^ s);
      std::vector<float> dir(dim);
      for (float& v : dir) v = rng.next_gaussian();
      const auto [b, e] = active[s];
      for (std::uint32_t i = b; i < e; ++i) {
        auto x = points.row(perm[i]);
        float acc = 0.0f;
        for (std::size_t j = 0; j < dim; ++j) acc += x[j] * dir[j];
        proj[perm[i]] = acc;
      }
    }
    for (const auto& [b, e] : active) {
      const std::uint32_t mid = (e - b) / 2;
      std::nth_element(perm.begin() + b, perm.begin() + b + mid,
                       perm.begin() + e, [&](std::uint32_t x, std::uint32_t y) {
                         return proj[x] < proj[y];
                       });
      for (const auto& child : {std::pair{b, b + mid}, std::pair{b + mid, e}}) {
        if (child.second - child.first <= leaf_size) {
          out.ids.insert(out.ids.end(), perm.begin() + child.first,
                         perm.begin() + child.second);
          out.offsets.push_back(static_cast<std::uint32_t>(out.ids.size()));
        } else {
          next.push_back(child);
        }
      }
    }
    active = std::move(next);
  }
  return out;
}

std::vector<kernels::Backend> available_backends() {
  std::vector<kernels::Backend> out;
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kSse2,
        kernels::Backend::kAvx2}) {
    if (kernels::ops_for(b) != nullptr) out.push_back(b);
  }
  return out;
}

/// Every tree must partition the point set: each id appears exactly once.
void expect_partition(const Buckets& b, std::size_t n) {
  std::vector<int> seen(n, 0);
  for (std::uint32_t id : b.ids) {
    ASSERT_LT(id, n);
    ++seen[id];
  }
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(seen[i], 1) << "point " << i;
  }
}

TEST(RpTree, LeavesPartitionThePointSet) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(500, 10, 8, 0.1f, 3);
  const Buckets b = build_rp_tree(pool, pts, 32, 7, 0);
  expect_partition(b, 500);
}

TEST(RpTree, RespectsLeafSize) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(777, 6, 5);
  for (std::size_t leaf : {8u, 33u, 128u}) {
    const Buckets b = build_rp_tree(pool, pts, leaf, 7, 0);
    EXPECT_LE(b.max_bucket_size(), leaf) << "leaf_size " << leaf;
    expect_partition(b, 777);
  }
}

TEST(RpTree, BalancedSplitsGiveTightBucketRange) {
  // Median splits halve exactly, so bucket sizes live in
  // (leaf_size/2, leaf_size] for n > leaf_size.
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(1000, 4, 9);
  const std::size_t leaf = 64;
  const Buckets b = build_rp_tree(pool, pts, leaf, 11, 0);
  for (std::size_t i = 0; i < b.num_buckets(); ++i) {
    const std::size_t sz = b.bucket(i).size();
    EXPECT_GT(sz, leaf / 2 - 1);
    EXPECT_LE(sz, leaf);
  }
}

TEST(RpTree, SmallInputIsSingleBucket) {
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(20, 3, 1);
  const Buckets b = build_rp_tree(pool, pts, 32, 7, 0);
  EXPECT_EQ(b.num_buckets(), 1u);
  EXPECT_EQ(b.bucket(0).size(), 20u);
  expect_partition(b, 20);
}

TEST(RpTree, DeterministicForSameSeed) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 2);
  const Buckets a = build_rp_tree(pool, pts, 16, 42, 1);
  const Buckets c = build_rp_tree(pool, pts, 16, 42, 1);
  EXPECT_EQ(a.ids, c.ids);
  EXPECT_EQ(a.offsets, c.offsets);
}

TEST(RpTree, DifferentTreeIndicesDiffer) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 2);
  const Buckets a = build_rp_tree(pool, pts, 16, 42, 0);
  const Buckets c = build_rp_tree(pool, pts, 16, 42, 1);
  EXPECT_NE(a.ids, c.ids);
}

TEST(RpTree, DuplicatePointsDoNotBreakSplitting) {
  // All-identical points make every projection equal; positional median
  // splits must still terminate and produce a valid partition.
  FloatMatrix pts(200, 5);
  for (std::size_t i = 0; i < pts.size(); ++i) pts.data()[i] = 1.0f;
  ThreadPool pool(2);
  const Buckets b = build_rp_tree(pool, pts, 16, 3, 0);
  expect_partition(b, 200);
  EXPECT_LE(b.max_bucket_size(), 16u);
}

TEST(RpTree, GroupsNearbyPointsTogether) {
  // With well-separated tight clusters smaller than the leaf size, most
  // points should share a bucket with same-cluster points only.
  ThreadPool pool(2);
  data::DatasetSpec spec;
  spec.kind = data::DatasetKind::kClusters;
  spec.n = 256;
  spec.dim = 8;
  spec.clusters = 8;  // 32 points per cluster
  spec.cluster_spread = 1e-3f;
  spec.seed = 21;
  const FloatMatrix pts = data::generate(spec);
  const Buckets b = build_rp_tree(pool, pts, 64, 5, 0);

  std::size_t pure_pairs = 0, total_pairs = 0;
  for (std::size_t bi = 0; bi < b.num_buckets(); ++bi) {
    const auto ids = b.bucket(bi);
    for (std::size_t x = 0; x < ids.size(); ++x) {
      for (std::size_t y = x + 1; y < ids.size(); ++y) {
        ++total_pairs;
        pure_pairs += (ids[x] % 8 == ids[y] % 8) ? 1 : 0;
      }
    }
  }
  // Random bucketing would give ~1/8 purity; a 64-point leaf drawn from a
  // good tree holds ~2 whole clusters (purity ~0.49), so demand well above
  // the random baseline.
  EXPECT_GT(static_cast<double>(pure_pairs) / total_pairs, 0.3);
}

TEST(RpForest, ConcatenatesAllTrees) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(200, 5, 6);
  const Buckets f = build_rp_forest(pool, pts, 4, 32, 9);
  EXPECT_EQ(f.ids.size(), 4u * 200u);
  // Each tree individually partitions the set.
  std::vector<int> seen(200, 0);
  for (std::uint32_t id : f.ids) ++seen[id];
  for (int c : seen) EXPECT_EQ(c, 4);
}

TEST(RpForest, ScalarForestMatchesSerialReferenceBitForBit) {
  kernels::ScopedBackend strict(kernels::Backend::kScalar);
  ThreadPool pool(4);
  // Shapes straddle the 32-point warp chunk and the SIMD widths; the
  // duplicated rows give equal projections, which the positional median
  // must split exactly as the serial pass did.
  FloatMatrix dup = data::make_clusters(700, 9, 6, 0.2f, 8);
  for (std::size_t r = 0; r < 100; ++r) {
    std::copy(dup.row(r).begin(), dup.row(r).end(), dup.row(r + 300).begin());
  }
  const FloatMatrix shapes[] = {data::make_clusters(2000, 16, 16, 0.1f, 4),
                                data::make_uniform(1500, 33, 12), dup};
  for (const FloatMatrix& pts : shapes) {
    for (const std::size_t leaf : {24u, 64u}) {
      Buckets expect;
      for (std::size_t t = 0; t < 3; ++t) {
        const Buckets tree = serial_reference_tree(pts, leaf, 77, t);
        if (t == 0) {
          expect = tree;
        } else {
          expect.append(tree);
        }
      }
      const Buckets got = build_rp_forest(pool, pts, 3, leaf, 77);
      EXPECT_EQ(got.ids, expect.ids) << pts.cols() << "d leaf " << leaf;
      EXPECT_EQ(got.offsets, expect.offsets) << pts.cols() << "d leaf " << leaf;
    }
  }
}

TEST(RpForest, IdenticalForEveryPoolSizeOnEveryBackend) {
  const FloatMatrix pts = data::make_clusters(3000, 20, 12, 0.1f, 6);
  for (const kernels::Backend b : available_backends()) {
    kernels::ScopedBackend use(b);
    std::optional<Buckets> first;
    std::optional<Buckets> first_spill;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      const Buckets f = build_rp_forest(pool, pts, 4, 40, 5);
      const Buckets s = build_rp_forest(pool, pts, 2, 40, 5, nullptr, 0.1f);
      if (!first) {
        first = f;
        first_spill = s;
        continue;
      }
      const std::string where = std::string(kernels::backend_name(b)) +
                                " threads " + std::to_string(threads);
      EXPECT_EQ(f.ids, first->ids) << where;
      EXPECT_EQ(f.offsets, first->offsets) << where;
      EXPECT_EQ(s.ids, first_spill->ids) << where << " spill";
      EXPECT_EQ(s.offsets, first_spill->offsets) << where << " spill";
    }
  }
}

TEST(RpForest, BuiltGraphIdenticalForEveryPoolSizeAndSchedule) {
  // The forest inside a build: the tiled graph (order-independent given its
  // buckets) must not move with the pool size or a deterministic replay of
  // the build's other kernels, on any backend.
  const FloatMatrix pts = data::make_clusters(400, 20, 6, 0.15f, 21);
  BuildParams params;
  params.k = 8;
  params.strategy = Strategy::kTiled;
  params.num_trees = 3;
  params.leaf_size = 40;
  params.refine_iters = 1;
  std::vector<simt::ScheduleSpec> schedules{simt::ScheduleSpec{}};
  for (const simt::ScheduleSpec& s : simt::fuzzing_schedules(1)) {
    schedules.push_back(s);
  }
  for (const kernels::Backend b : available_backends()) {
    kernels::ScopedBackend use(b);
    std::optional<KnnGraph> first;
    for (const std::size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      for (const simt::ScheduleSpec& spec : schedules) {
        params.schedule = spec;
        KnnGraph g = build_knng(pool, pts, params).graph;
        if (!first) {
          first = std::move(g);
          continue;
        }
        for (std::size_t p = 0; p < pts.rows(); ++p) {
          ASSERT_TRUE(std::ranges::equal(g.row(p), first->row(p)))
              << kernels::backend_name(b) << " threads " << threads << " "
              << simt::schedule_policy_name(spec.policy) << "/" << spec.seed
              << " row " << p;
        }
      }
    }
  }
}

TEST(RpForest, StatsAreAccumulated) {
  ThreadPool pool(2);
  simt::StatsAccumulator acc;
  const FloatMatrix pts = data::make_uniform(300, 12, 6);
  (void)build_rp_forest(pool, pts, 2, 32, 9, &acc);
  const simt::Stats s = acc.total();
  EXPECT_GT(s.flops, 0u);
  EXPECT_GT(s.global_reads, 0u);
  EXPECT_GT(s.warps_executed, 0u);
}

TEST(Buckets, AppendPreservesBucketBoundaries) {
  Buckets a;
  a.ids = {0, 1, 2};
  a.offsets = {0, 2, 3};
  Buckets b;
  b.ids = {3, 4};
  b.offsets = {0, 2};
  a.append(b);
  ASSERT_EQ(a.num_buckets(), 3u);
  EXPECT_EQ(a.bucket(0).size(), 2u);
  EXPECT_EQ(a.bucket(1).size(), 1u);
  EXPECT_EQ(a.bucket(2).size(), 2u);
  EXPECT_EQ(a.bucket(2)[0], 3u);
}


TEST(SpillTree, ZeroSpillMatchesPlainTree) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(300, 8, 2);
  const Buckets plain = build_rp_tree(pool, pts, 32, 42, 0);
  const Buckets spill = build_rp_tree_spill(pool, pts, 32, 0.0f, 42, 0);
  EXPECT_EQ(plain.ids, spill.ids);
  EXPECT_EQ(plain.offsets, spill.offsets);
}

TEST(SpillTree, EveryPointCoveredAtLeastOnce) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_clusters(400, 10, 8, 0.1f, 5);
  const Buckets b = build_rp_tree_spill(pool, pts, 32, 0.15f, 7, 0);
  std::vector<int> seen(400, 0);
  for (std::uint32_t id : b.ids) {
    ASSERT_LT(id, 400u);
    ++seen[id];
  }
  std::size_t duplicated = 0;
  for (int c : seen) {
    EXPECT_GE(c, 1);
    duplicated += c > 1 ? 1 : 0;
  }
  EXPECT_GT(duplicated, 0u);  // spill must actually duplicate someone
}

TEST(SpillTree, RespectsLeafSize) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(500, 6, 9);
  const Buckets b = build_rp_tree_spill(pool, pts, 48, 0.2f, 11, 0);
  EXPECT_LE(b.max_bucket_size(), 48u);
}

TEST(SpillTree, Deterministic) {
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(250, 8, 13);
  const Buckets a = build_rp_tree_spill(pool, pts, 24, 0.1f, 3, 1);
  const Buckets c = build_rp_tree_spill(pool, pts, 24, 0.1f, 3, 1);
  EXPECT_EQ(a.ids, c.ids);
  EXPECT_EQ(a.offsets, c.offsets);
}

TEST(SpillTree, RejectsExcessiveSpill) {
  ThreadPool pool(1);
  const FloatMatrix pts = data::make_uniform(50, 4, 1);
  EXPECT_THROW(build_rp_tree_spill(pool, pts, 16, 0.5f, 1, 0), Error);
  EXPECT_THROW(build_rp_tree_spill(pool, pts, 16, -0.1f, 1, 0), Error);
}

TEST(SpillTree, ImprovesSingleTreeRecall) {
  // One tree with spill must beat one tree without (same everything else):
  // boundary-separated neighbor pairs are recovered.
  ThreadPool pool(2);
  const FloatMatrix pts = data::make_uniform(600, 12, 17);
  const std::size_t k = 8;
  const KnnGraph truth = exact::brute_force_knng(pool, pts, k);

  auto recall_with_spill = [&](float spill) {
    BuildParams params;
    params.k = k;
    params.num_trees = 1;
    params.refine_iters = 0;
    params.spill = spill;
    return exact::recall(build_knng(pool, pts, params).graph, truth);
  };
  const double plain = recall_with_spill(0.0f);
  const double spilled = recall_with_spill(0.25f);
  EXPECT_GT(spilled, plain);
}

}  // namespace
}  // namespace wknng::core
