// AVX2+FMA backend: 8-wide distance kernels. This TU is the only one built
// with -mavx2 -mfma (see src/kernels/CMakeLists.txt); dispatch.cpp refuses to
// hand out this table unless cpuid confirms the running CPU has both.
//
// Bit-consistency design (mirrors the SSE2 TU at twice the width): one
// shared norm/dot core — a single vector FMA accumulator per quantity, whole
// 8-float blocks, one fixed horizontal-sum tree, then a serial scalar tail.
// All scalar tails use std::fmaf so the tail contraction is pinned down
// explicitly (this TU is compiled with FMA available, so a bare a*b+c could
// legally contract at some call sites and not others). Every primitive and
// every norm cache therefore produces identical bits for the same pair.

#include "kernels/backend_detail.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <cmath>
#include <immintrin.h>

namespace wknng::kernels {
namespace {

constexpr std::size_t kVec = 8;

/// Fixed reduction tree: fold high lane onto low, then the SSE tree.
inline float hsum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 sum4 = _mm_add_ps(lo, hi);               // v0+v4 .. v3+v7
  __m128 hi2 = _mm_movehl_ps(sum4, sum4);
  __m128 sum2 = _mm_add_ps(sum4, hi2);
  __m128 hi1 = _mm_shuffle_ps(sum2, sum2, 1);
  return _mm_cvtss_f32(_mm_add_ss(sum2, hi1));
}

/// ||x||^2 — the canonical accumulation every norm cache on this backend is
/// built with.
float avx2_norm_sq(const float* x, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t blocks = dim & ~(kVec - 1);
  for (std::size_t d = 0; d < blocks; d += kVec) {
    const __m256 v = _mm256_loadu_ps(x + d);
    acc = _mm256_fmadd_ps(v, v, acc);
  }
  float res = hsum(acc);
  for (std::size_t d = blocks; d < dim; ++d) res = std::fmaf(x[d], x[d], res);
  return res;
}

/// x . y with the same skeleton as avx2_norm_sq.
inline float dot(const float* x, const float* y, std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  const std::size_t blocks = dim & ~(kVec - 1);
  for (std::size_t d = 0; d < blocks; d += kVec) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(x + d), _mm256_loadu_ps(y + d), acc);
  }
  float res = hsum(acc);
  for (std::size_t d = blocks; d < dim; ++d) res = std::fmaf(x[d], y[d], res);
  return res;
}

/// 1x4 register block: `a` broadcast against four rows b[0..3], four
/// independent FMA chains. Each chain follows exactly the dot() sequence, so
/// the bits match the unblocked primitives pair-for-pair.
inline void dot4(const float* a, const float* const* b, std::size_t dim,
                 float* out) {
  const float* b0 = b[0];
  const float* b1 = b[1];
  const float* b2 = b[2];
  const float* b3 = b[3];
  __m256 acc0 = _mm256_setzero_ps(), acc1 = _mm256_setzero_ps();
  __m256 acc2 = _mm256_setzero_ps(), acc3 = _mm256_setzero_ps();
  const std::size_t blocks = dim & ~(kVec - 1);
  for (std::size_t d = 0; d < blocks; d += kVec) {
    const __m256 av = _mm256_loadu_ps(a + d);
    acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b0 + d), acc0);
    acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b1 + d), acc1);
    acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b2 + d), acc2);
    acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(b3 + d), acc3);
  }
  float d0 = hsum(acc0), d1 = hsum(acc1), d2 = hsum(acc2), d3 = hsum(acc3);
  for (std::size_t d = blocks; d < dim; ++d) {
    d0 = std::fmaf(a[d], b0[d], d0);
    d1 = std::fmaf(a[d], b1[d], d1);
    d2 = std::fmaf(a[d], b2[d], d2);
    d3 = std::fmaf(a[d], b3[d], d3);
  }
  out[0] = d0;
  out[1] = d1;
  out[2] = d2;
  out[3] = d3;
}

/// Norm-trick epilogue; 2*d is exact, so contraction cannot change the bits,
/// and the clamp keeps cancellation from going (tiny) negative.
inline float l2_from(float nx, float ny, float d) {
  const float r = nx + ny - 2.0f * d;
  return r < 0.0f ? 0.0f : r;
}

float avx2_l2_pair(const float* x, const float* y, std::size_t dim) {
  return l2_from(avx2_norm_sq(x, dim), avx2_norm_sq(y, dim), dot(x, y, dim));
}

void avx2_l2_batch(const float* q, const float* const* rows,
                   const float* row_norms, std::size_t count, std::size_t dim,
                   float* out) {
  const float nq = avx2_norm_sq(q, dim);
  for (std::size_t i = 0; i < count; ++i) {
    const float nr =
        row_norms != nullptr ? row_norms[i] : avx2_norm_sq(rows[i], dim);
    out[i] = l2_from(nq, nr, dot(q, rows[i], dim));
  }
}

void avx2_l2_tile(const float* const* a_rows, const float* a_norms,
                  std::size_t na, const float* const* b_rows,
                  const float* b_norms, std::size_t nb, std::size_t dim,
                  float* out, std::size_t ld) {
  float bn_stack[64];
  std::vector<float> bn_heap;
  const float* bn = b_norms;
  if (bn == nullptr) {
    float* buf = bn_stack;
    if (nb > 64) {
      bn_heap.resize(nb);
      buf = bn_heap.data();
    }
    for (std::size_t j = 0; j < nb; ++j) buf[j] = avx2_norm_sq(b_rows[j], dim);
    bn = buf;
  }
  for (std::size_t i = 0; i < na; ++i) {
    const float* a = a_rows[i];
    const float nx = a_norms != nullptr ? a_norms[i] : avx2_norm_sq(a, dim);
    std::size_t j = 0;
    for (; j + 4 <= nb; j += 4) {
      float d[4];
      dot4(a, b_rows + j, dim, d);
      for (std::size_t c = 0; c < 4; ++c) {
        out[i * ld + j + c] = l2_from(nx, bn[j + c], d[c]);
      }
    }
    for (; j < nb; ++j) {
      out[i * ld + j] = l2_from(nx, bn[j], dot(a, b_rows[j], dim));
    }
  }
}

void avx2_dot_batch(const float* dir, const float* const* rows,
                    std::size_t count, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) dot4(dir, rows + i, dim, out + i);
  for (; i < count; ++i) out[i] = dot(dir, rows[i], dim);
}

bool avx2_has_nonfinite(const float* x, std::size_t count) {
  // Exponent-all-ones test in the integer domain.
  const __m256i exp_mask = _mm256_set1_epi32(0x7F800000);
  const std::size_t blocks = count & ~(kVec - 1);
  for (std::size_t i = 0; i < blocks; i += kVec) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i bad =
        _mm256_cmpeq_epi32(_mm256_and_si256(v, exp_mask), exp_mask);
    if (_mm256_movemask_epi8(bad) != 0) return true;
  }
  for (std::size_t i = blocks; i < count; ++i) {
    union {
      float f;
      std::uint32_t u;
    } pun{x[i]};
    if ((pun.u & 0x7F800000U) == 0x7F800000U) return true;
  }
  return false;
}

constexpr KernelOps kAvx2Ops = {
    Backend::kAvx2, "avx2",        avx2_l2_pair,   avx2_l2_pair,
    avx2_l2_batch,  avx2_l2_tile,  avx2_dot_batch, avx2_norm_sq,
    avx2_has_nonfinite,
    detail::sq8_avx2_one,  detail::sq8_avx2_batch,
    detail::sq8_avx2_tile, detail::sq8_avx2_term,
};

}  // namespace

namespace detail {
const KernelOps* avx2_ops() { return &kAvx2Ops; }
}  // namespace detail

}  // namespace wknng::kernels

#else  // compiler could not target AVX2+FMA: backend compiled out.

namespace wknng::kernels::detail {
const KernelOps* avx2_ops() { return nullptr; }
}  // namespace wknng::kernels::detail

#endif
