// Scalar SQ8 rows — the strict reference. Every shape evaluates the direct
// dequantize-subtract form with one serial accumulator, bit-identical to
// sq8_l2_sq_ref, and term caches are deliberately ignored:
// the expanded decomposition reassociates the arithmetic, and strictness
// means "the original bits" (same policy as the fp32 scalar backend and its
// norm caches).

#include "kernels/backend_detail.hpp"
#include "kernels/sq8.hpp"

namespace wknng::kernels::detail {

namespace {

/// Direct form, serial order — must stay in lockstep with sq8_l2_sq_ref.
float direct(const Sq8Query& q, const std::uint8_t* code) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < q.dim; ++d) {
    const float decoded = q.bias[d] + q.scale[d] * static_cast<float>(code[d]);
    const float diff = q.q[d] - decoded;
    acc += diff * diff;
  }
  return acc;
}

}  // namespace

float sq8_scalar_one(const Sq8Query& q, const std::uint8_t* code) {
  return direct(q, code);
}

void sq8_scalar_batch(const Sq8Query& q, const std::uint8_t* const* rows,
                      const float* /*code_terms*/, std::size_t count,
                      float* out) {
  for (std::size_t i = 0; i < count; ++i) out[i] = direct(q, rows[i]);
}

void sq8_scalar_tile(const Sq8Query* a, std::size_t na,
                     const std::uint8_t* const* b_rows,
                     const float* /*b_terms*/, std::size_t nb, float* out,
                     std::size_t ld) {
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      out[i * ld + j] = direct(a[i], b_rows[j]);
    }
  }
}

float sq8_scalar_term(const float* scale, const std::uint8_t* code,
                      std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t d = 0; d < dim; ++d) {
    const float t = scale[d] * static_cast<float>(code[d]);
    acc += t * t;
  }
  return acc;
}

}  // namespace wknng::kernels::detail
