#pragma once

// Internal shared kernel of the tiled strategy: computes one 32x32 distance
// block between two point tiles with scratch-staged coordinate chunks, then
// merges the block's sorted row/column runs into the k-NN sets. Used by the
// leaf kernel (tiles within an RP-forest bucket) and by the warp-centric
// exact brute force (tiles over the whole dataset).

#include <algorithm>
#include <cstring>
#include <span>

#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "core/knn_set.hpp"
#include "kernels/kernels.hpp"
#include "kernels/sq8.hpp"
#include "simt/fault.hpp"
#include "simt/packed.hpp"
#include "simt/sort.hpp"
#include "simt/warp.hpp"

namespace wknng::core::detail {

/// Per-warp state of the tiled kernel's compressed (SQ8) path: the borrowed
/// dataset view plus reusable buffers for one tile of prepared queries. The
/// prepared-query staging lives on the heap rather than in warp scratch —
/// like the fp32 kernel's query rows it models register/scratch-resident
/// data, and the scratch plan's budget keeps being charged against the
/// coordinate staging buffers it was sized for.
struct Sq8TileState {
  const kernels::Sq8View* view = nullptr;
  std::vector<float> w;                      ///< kWarpSize x dim pre-scaled rows
  std::vector<kernels::Sq8Query> queries;    ///< one prepared handle per A row

  bool active() const { return view != nullptr && view->valid(); }
};

/// Scratch plan of the tiled kernel; allocate once per warp task.
struct TileBuffers {
  std::span<float> block;    ///< 32 x 32 distance accumulator
  std::span<float> a_stage;  ///< 32 x chunk_dims coordinates of tile A
  std::span<float> b_stage;  ///< 32 x chunk_dims coordinates of tile B
  std::size_t chunk_dims = 0;
};

/// Chooses how many dimensions one staging chunk holds so that the working
/// set (A-stage + B-stage + distance block + merge buffer) fits the budget.
inline std::size_t tiled_chunk_dims(std::size_t scratch_capacity,
                                    std::size_t dim, std::size_t k) {
  const std::size_t reserve =
      simt::kWarpSize * simt::kWarpSize * sizeof(float)  // distance block
      + k * sizeof(std::uint64_t)                        // merge buffer
      + 512;                                             // alignment slack
  WKNNG_CHECK_MSG(
      scratch_capacity > reserve + 2 * simt::kWarpSize * sizeof(float) * 8,
      "scratch too small for tiled kernel: " << scratch_capacity);
  const std::size_t dc =
      (scratch_capacity - reserve) / (2 * simt::kWarpSize * sizeof(float));
  // Not std::clamp: its precondition lo <= hi fails for dim < 8.
  return std::min(std::max<std::size_t>(dc, 8), dim);
}

/// Allocates the kernel's scratch buffers out of the warp's arena.
inline TileBuffers alloc_tile_buffers(simt::Warp& w, std::size_t dim,
                                      std::size_t k) {
  TileBuffers buf;
  buf.chunk_dims = tiled_chunk_dims(w.scratch().capacity(), dim, k);
  buf.block = w.scratch().alloc<float>(simt::kWarpSize * simt::kWarpSize);
  buf.a_stage = w.scratch().alloc<float>(simt::kWarpSize * buf.chunk_dims);
  buf.b_stage = w.scratch().alloc<float>(simt::kWarpSize * buf.chunk_dims);
  return buf;
}

/// Processes one tile pair: computes the squared-distance block with the
/// dispatched `l2_tile` micro-kernel (register-blocked norm trick on the
/// SIMD backends, the original serial accumulation on the strict scalar
/// backend), then submits each block row to the A-side point and each block
/// column to the B-side point as sorted 32-candidate runs. Diagonal pairs
/// (the same tile on both sides) use the upper triangle for rows and its
/// mirror for columns, so every ordered pair is submitted exactly once.
///
/// `a_id(i)` / `b_id(j)` map tile-local indices to point ids; `na`, `nb`
/// are the tile occupancies (<= 32). `norms_by_id`, when non-empty, is a
/// squared-norm cache indexed by point id (see kernels::row_norms); the
/// strict backend ignores it.
///
/// When `sq8` is active, the distance block comes from the compressed tier
/// instead: the A-side rows are prepared as asymmetric queries and scored
/// against the B-side u8 code rows with the dispatched `sq8_l2_tile`
/// micro-kernel (candidate traffic drops to 1 byte/dim). Block values are
/// then the asymmetric approximation d(a_fp32, decode(b)) for both the row
/// and the mirrored column runs — the builder's exact rerank phase restores
/// full-precision ordering before the final graph is emitted.
template <typename AIdFn, typename BIdFn>
void process_tile_pair(simt::Warp& w, const FloatMatrix& points, AIdFn&& a_id,
                       std::size_t na, BIdFn&& b_id, std::size_t nb,
                       bool diagonal, KnnSetArray& sets, const TileBuffers& buf,
                       std::span<const float> norms_by_id = {},
                       Sq8TileState* sq8 = nullptr) {
  using simt::kWarpSize;
  using simt::Lanes;
  using simt::Packed;

  const std::size_t dim = points.cols();
  const std::size_t pairs = diagonal ? na * (na - 1) / 2 : na * nb;

  if (sq8 != nullptr && sq8->active()) {
    const kernels::Sq8View& view = *sq8->view;
    const std::uint8_t* code_rows[kWarpSize];
    float b_terms[kWarpSize];
    const bool have_terms = !view.terms.empty();
    for (std::size_t j = 0; j < nb; ++j) {
      const auto id =
          static_cast<std::uint32_t>(diagonal ? a_id(j) : b_id(j));
      code_rows[j] = view.row(id).data();
      if (have_terms) b_terms[j] = view.terms[id];
    }
    // Stage one prepared query per A row into slices of the reusable warp
    // buffer; preparation reads the full-precision row once (charged below).
    sq8->w.resize(kWarpSize * dim);
    sq8->queries.resize(na);
    for (std::size_t i = 0; i < na; ++i) {
      sq8->queries[i] = kernels::sq8_prepare_into(
          points.row(a_id(i)), view.codebook(), sq8->w.data() + i * dim);
    }
    kernels::ops().sq8_l2_tile(sq8->queries.data(), na, code_rows,
                               have_terms ? b_terms : nullptr, nb,
                               buf.block.data(), kWarpSize);

    // Query rows are read at full precision once for preparation; candidate
    // traffic is the compressed tier's whole point — 1 byte/dim per code row.
    w.count_read(na * dim * sizeof(float));
    w.count_read(nb * dim * sizeof(std::uint8_t));
    w.stats().distance_evals += pairs;
    w.stats().flops += 3 * dim * na + 4 * dim * pairs;
  } else {
    // Gather the tile's row pointers (and cached norms, when provided). The
    // scratch staging buffers of `buf` still reserve the modeled per-warp
    // footprint — the space constraint the chunking plan is sized against —
    // but the arithmetic streams the rows through the micro-kernel directly.
    const float* a_rows[kWarpSize];
    const float* b_rows[kWarpSize];
    float a_norms[kWarpSize];
    float b_norms[kWarpSize];
    for (std::size_t i = 0; i < na; ++i) {
      a_rows[i] = points.row(a_id(i)).data();
      if (!norms_by_id.empty()) a_norms[i] = norms_by_id[a_id(i)];
    }
    if (diagonal) {
      for (std::size_t j = 0; j < nb; ++j) {
        b_rows[j] = a_rows[j];
        if (!norms_by_id.empty()) b_norms[j] = a_norms[j];
      }
    } else {
      for (std::size_t j = 0; j < nb; ++j) {
        b_rows[j] = points.row(b_id(j)).data();
        if (!norms_by_id.empty()) b_norms[j] = norms_by_id[b_id(j)];
      }
    }

    const bool have_norms = !norms_by_id.empty();
    kernels::ops().l2_tile(a_rows, have_norms ? a_norms : nullptr, na, b_rows,
                           have_norms ? b_norms : nullptr, nb, dim,
                           buf.block.data(), kWarpSize);

    // Same global traffic as the staged-chunk plan: each tile row is read
    // once per tile pair (A and B tiles alias on the diagonal).
    w.count_read(na * dim * sizeof(float));
    if (!diagonal) w.count_read(nb * dim * sizeof(float));

    w.stats().distance_evals += pairs;
    w.stats().flops += 3 * dim * pairs;
  }

  // Row runs: candidates for A-side points.
  for (std::size_t i = 0; i < na; ++i) {
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    const std::size_t j_begin = diagonal ? i + 1 : 0;
    if (j_begin >= nb) continue;
    for (std::size_t j = j_begin; j < nb; ++j) {
      run[j] =
          Packed::make(simt::fault_corrupt_distance(buf.block[i * kWarpSize + j]),
                       static_cast<std::uint32_t>(b_id(j)));
    }
    simt::bitonic_sort_lanes(w, run);
    sets.merge_sorted_tile(w, static_cast<std::uint32_t>(a_id(i)), run);
  }

  // Column runs: candidates for B-side points (mirror of the block).
  for (std::size_t j = 0; j < nb; ++j) {
    Lanes<std::uint64_t> run;
    run.fill(Packed::kEmpty);
    const std::size_t i_end = diagonal ? j : na;
    if (i_end == 0) continue;
    for (std::size_t i = 0; i < i_end; ++i) {
      run[i] =
          Packed::make(simt::fault_corrupt_distance(buf.block[i * kWarpSize + j]),
                       static_cast<std::uint32_t>(a_id(i)));
    }
    simt::bitonic_sort_lanes(w, run);
    sets.merge_sorted_tile(w, static_cast<std::uint32_t>(b_id(j)), run);
  }
}

}  // namespace wknng::core::detail
