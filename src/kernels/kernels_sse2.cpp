// SSE2 backend: 4-wide distance kernels, compiled with the x86-64 baseline
// flags (no extra -m options needed). This is the portable fast path for
// CPUs without AVX2 and the mid rung of the WKNNG_KERNEL matrix.
//
// Bit-consistency design (shared with the AVX2 TU): every primitive is
// assembled from the same norm/dot cores — one vector accumulator per
// quantity, whole 4-float blocks, a fixed horizontal-sum tree, then a serial
// scalar tail. The same point pair therefore produces the same bits no
// matter which primitive scored it or whether its norms came from a cache.
// This TU is compiled without FMA, so the compiler cannot contract the
// scalar tails either — codegen is order-preserving everywhere.

#include "kernels/backend_detail.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace wknng::kernels {
namespace {

constexpr std::size_t kVec = 4;

/// Fixed reduction tree: (v0+v2, v1+v3) then +. One definition per TU so
/// every primitive reduces identically.
inline float hsum(__m128 v) {
  __m128 hi = _mm_movehl_ps(v, v);              // v2, v3
  __m128 sum2 = _mm_add_ps(v, hi);              // v0+v2, v1+v3
  __m128 hi1 = _mm_shuffle_ps(sum2, sum2, 1);   // v1+v3
  return _mm_cvtss_f32(_mm_add_ss(sum2, hi1));
}

/// ||x||^2 with the backend's canonical accumulation (norm caches are built
/// from this, so cached and on-the-fly norms agree bit-exactly).
float sse2_norm_sq(const float* x, std::size_t dim) {
  __m128 acc = _mm_setzero_ps();
  const std::size_t blocks = dim & ~(kVec - 1);
  for (std::size_t d = 0; d < blocks; d += kVec) {
    const __m128 v = _mm_loadu_ps(x + d);
    acc = _mm_add_ps(acc, _mm_mul_ps(v, v));
  }
  float res = hsum(acc);
  for (std::size_t d = blocks; d < dim; ++d) res += x[d] * x[d];
  return res;
}

/// x . y with the same skeleton as sse2_norm_sq.
inline float dot(const float* x, const float* y, std::size_t dim) {
  __m128 acc = _mm_setzero_ps();
  const std::size_t blocks = dim & ~(kVec - 1);
  for (std::size_t d = 0; d < blocks; d += kVec) {
    acc = _mm_add_ps(acc, _mm_mul_ps(_mm_loadu_ps(x + d), _mm_loadu_ps(y + d)));
  }
  float res = hsum(acc);
  for (std::size_t d = blocks; d < dim; ++d) res += x[d] * y[d];
  return res;
}

/// 1x4 register block: `a` streamed against four rows b[0..3]. Each pair's
/// accumulator follows exactly the dot() sequence, so the bits match the
/// unblocked primitives.
inline void dot4(const float* a, const float* const* b, std::size_t dim,
                 float* out) {
  const float* b0 = b[0];
  const float* b1 = b[1];
  const float* b2 = b[2];
  const float* b3 = b[3];
  __m128 acc0 = _mm_setzero_ps(), acc1 = _mm_setzero_ps();
  __m128 acc2 = _mm_setzero_ps(), acc3 = _mm_setzero_ps();
  const std::size_t blocks = dim & ~(kVec - 1);
  for (std::size_t d = 0; d < blocks; d += kVec) {
    const __m128 av = _mm_loadu_ps(a + d);
    acc0 = _mm_add_ps(acc0, _mm_mul_ps(av, _mm_loadu_ps(b0 + d)));
    acc1 = _mm_add_ps(acc1, _mm_mul_ps(av, _mm_loadu_ps(b1 + d)));
    acc2 = _mm_add_ps(acc2, _mm_mul_ps(av, _mm_loadu_ps(b2 + d)));
    acc3 = _mm_add_ps(acc3, _mm_mul_ps(av, _mm_loadu_ps(b3 + d)));
  }
  float d0 = hsum(acc0), d1 = hsum(acc1), d2 = hsum(acc2), d3 = hsum(acc3);
  for (std::size_t d = blocks; d < dim; ++d) {
    d0 += a[d] * b0[d];
    d1 += a[d] * b1[d];
    d2 += a[d] * b2[d];
    d3 += a[d] * b3[d];
  }
  out[0] = d0;
  out[1] = d1;
  out[2] = d2;
  out[3] = d3;
}

/// Norm-trick epilogue. 2*d is exact (power-of-two multiply), so the value
/// cannot depend on whether the compiler contracts the expression; the clamp
/// absorbs the small negatives cancellation can produce (Packed::make
/// requires non-negative distances).
inline float l2_from(float nx, float ny, float d) {
  const float r = nx + ny - 2.0f * d;
  return r < 0.0f ? 0.0f : r;
}

float sse2_l2_pair(const float* x, const float* y, std::size_t dim) {
  return l2_from(sse2_norm_sq(x, dim), sse2_norm_sq(y, dim), dot(x, y, dim));
}

void sse2_l2_batch(const float* q, const float* const* rows,
                   const float* row_norms, std::size_t count, std::size_t dim,
                   float* out) {
  const float nq = sse2_norm_sq(q, dim);
  for (std::size_t i = 0; i < count; ++i) {
    const float nr =
        row_norms != nullptr ? row_norms[i] : sse2_norm_sq(rows[i], dim);
    out[i] = l2_from(nq, nr, dot(q, rows[i], dim));
  }
}

void sse2_l2_tile(const float* const* a_rows, const float* a_norms,
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
    for (std::size_t j = 0; j < nb; ++j) buf[j] = sse2_norm_sq(b_rows[j], dim);
    bn = buf;
  }
  for (std::size_t i = 0; i < na; ++i) {
    const float* a = a_rows[i];
    const float nx = a_norms != nullptr ? a_norms[i] : sse2_norm_sq(a, dim);
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

void sse2_dot_batch(const float* dir, const float* const* rows,
                    std::size_t count, std::size_t dim, float* out) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4) dot4(dir, rows + i, dim, out + i);
  for (; i < count; ++i) out[i] = dot(dir, rows[i], dim);
}

bool sse2_has_nonfinite(const float* x, std::size_t count) {
  // Exponent-all-ones test in the integer domain: robust against any float
  // optimization assumptions.
  const __m128i exp_mask = _mm_set1_epi32(0x7F800000);
  const std::size_t blocks = count & ~(kVec - 1);
  for (std::size_t i = 0; i < blocks; i += kVec) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i bad =
        _mm_cmpeq_epi32(_mm_and_si128(v, exp_mask), exp_mask);
    if (_mm_movemask_epi8(bad) != 0) return true;
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

constexpr KernelOps kSse2Ops = {
    Backend::kSse2, "sse2",        sse2_l2_pair,   sse2_l2_pair,
    sse2_l2_batch,  sse2_l2_tile,  sse2_dot_batch, sse2_norm_sq,
    sse2_has_nonfinite,
    detail::sq8_sse2_one,  detail::sq8_sse2_batch,
    detail::sq8_sse2_tile, detail::sq8_sse2_term,
};

}  // namespace

namespace detail {
const KernelOps* sse2_ops() { return &kSse2Ops; }
}  // namespace detail

}  // namespace wknng::kernels

#else  // !defined(__SSE2__)

namespace wknng::kernels::detail {
const KernelOps* sse2_ops() { return nullptr; }
}  // namespace wknng::kernels::detail

#endif
