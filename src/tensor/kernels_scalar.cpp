// Scalar kernel arm: the pre-SIMD loops, verbatim. This arm is the
// ground truth for the parity tests and the fallback selected by
// BAFFLE_FORCE_SCALAR or on CPUs without AVX2+FMA, so its arithmetic
// (accumulation order, double-precision reductions) must not change.

#include <algorithm>
#include <cmath>
#include <limits>

#include "tensor/kernels.hpp"
#include "util/contracts.hpp"

namespace baffle::kernels {
namespace {

// Inner-dimension panel: a kKBlock-row slice of B (kKBlock * n floats)
// stays hot in L1/L2 while a block of output rows streams over it.
constexpr std::size_t kKBlock = 128;

// Column panel for the abt kernel: bounds the slice of B rows reused
// across an output-row block.
constexpr std::size_t kJBlock = 128;

void gemm_ab_rows(const GemmRowArgs& g, std::size_t r0, std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  const std::size_t k = g.k, n = g.n;
  for (std::size_t i = r0; i < r1; ++i) {
    std::fill_n(g.c + i * g.ldc, n, 0.0f);
  }
  for (std::size_t p0 = 0; p0 < k; p0 += kKBlock) {
    const std::size_t p1 = std::min(k, p0 + kKBlock);
    // Four output rows at a time: each B row loaded from cache is
    // reused across four independent accumulation chains.
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      const float* a0 = g.a + i * g.lda;
      const float* a1 = g.a + (i + 1) * g.lda;
      const float* a2 = g.a + (i + 2) * g.lda;
      const float* a3 = g.a + (i + 3) * g.lda;
      float* o0 = g.c + i * g.ldc;
      float* o1 = g.c + (i + 1) * g.ldc;
      float* o2 = g.c + (i + 2) * g.ldc;
      float* o3 = g.c + (i + 3) * g.ldc;
      for (std::size_t p = p0; p < p1; ++p) {
        const float* b_row = g.b + p * g.ldb;
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        for (std::size_t j = 0; j < n; ++j) {
          const float bv = b_row[j];
          o0[j] += av0 * bv;
          o1[j] += av1 * bv;
          o2[j] += av2 * bv;
          o3[j] += av3 * bv;
        }
      }
    }
    for (; i < r1; ++i) {
      const float* a_row = g.a + i * g.lda;
      float* out_row = g.c + i * g.ldc;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = a_row[p];
        const float* b_row = g.b + p * g.ldb;
        for (std::size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
      }
    }
  }
}

void gemm_atb_rows(const GemmRowArgs& g, std::size_t r0, std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  const std::size_t k = g.k, n = g.n;
  for (std::size_t i = r0; i < r1; ++i) {
    std::fill_n(g.c + i * g.ldc, n, 0.0f);
  }
  for (std::size_t p0 = 0; p0 < k; p0 += kKBlock) {
    const std::size_t p1 = std::min(k, p0 + kKBlock);
    // Same four-row micro-kernel as gemm_ab; the A element for output
    // row i sits at a[p * lda + i] because A enters transposed.
    std::size_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      float* o0 = g.c + i * g.ldc;
      float* o1 = g.c + (i + 1) * g.ldc;
      float* o2 = g.c + (i + 2) * g.ldc;
      float* o3 = g.c + (i + 3) * g.ldc;
      for (std::size_t p = p0; p < p1; ++p) {
        const float* a_row = g.a + p * g.lda;
        const float* b_row = g.b + p * g.ldb;
        const float av0 = a_row[i], av1 = a_row[i + 1];
        const float av2 = a_row[i + 2], av3 = a_row[i + 3];
        for (std::size_t j = 0; j < n; ++j) {
          const float bv = b_row[j];
          o0[j] += av0 * bv;
          o1[j] += av1 * bv;
          o2[j] += av2 * bv;
          o3[j] += av3 * bv;
        }
      }
    }
    for (; i < r1; ++i) {
      float* out_row = g.c + i * g.ldc;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = g.a[p * g.lda + i];
        const float* b_row = g.b + p * g.ldb;
        for (std::size_t j = 0; j < n; ++j) out_row[j] += av * b_row[j];
      }
    }
  }
}

void gemm_abt_rows(const GemmRowArgs& g, std::size_t r0, std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  const std::size_t k = g.k, n = g.n;
  for (std::size_t j0 = 0; j0 < n; j0 += kJBlock) {
    const std::size_t j1 = std::min(n, j0 + kJBlock);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* a_row = g.a + i * g.lda;
      float* out_row = g.c + i * g.ldc;
      // Four dot products at a time: each A element loaded is reused
      // across four independent reduction chains, which also breaks
      // the serial-accumulation latency bound of a lone dot product.
      std::size_t j = j0;
      for (; j + 4 <= j1; j += 4) {
        const float* b0 = g.b + j * g.ldb;
        const float* b1 = g.b + (j + 1) * g.ldb;
        const float* b2 = g.b + (j + 2) * g.ldb;
        const float* b3 = g.b + (j + 3) * g.ldb;
        float acc0 = 0.0f, acc1 = 0.0f, acc2 = 0.0f, acc3 = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
          const float av = a_row[p];
          acc0 += av * b0[p];
          acc1 += av * b1[p];
          acc2 += av * b2[p];
          acc3 += av * b3[p];
        }
        out_row[j] = acc0;
        out_row[j + 1] = acc1;
        out_row[j + 2] = acc2;
        out_row[j + 3] = acc3;
      }
      for (; j < j1; ++j) {
        const float* b_row = g.b + j * g.ldb;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
        out_row[j] = acc;
      }
    }
  }
}

// Packed-panel kernel for the scalar arm: only reached through the
// explicit gemm_ab_packed entry point (the packed-vs-plain parity tests
// under BAFFLE_FORCE_SCALAR), so clarity beats throughput here.
void gemm_packed_rows(const PackedGemmArgs& g, std::size_t r0,
                      std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  const std::size_t panels = (g.n + kPanelCols - 1) / kPanelCols;
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const float* panel = g.bp + jp * g.k * kPanelCols;
    const std::size_t j0 = jp * kPanelCols;
    const std::size_t cols = std::min(kPanelCols, g.n - j0);
    for (std::size_t i = r0; i < r1; ++i) {
      const float* a_row = g.a + i * g.a_row_stride;
      float acc[kPanelCols] = {};
      for (std::size_t p = 0; p < g.k; ++p) {
        const float av = a_row[p * g.a_p_stride];
        const float* b_row = panel + p * kPanelCols;
        for (std::size_t c = 0; c < kPanelCols; ++c) acc[c] += av * b_row[c];
      }
      float* out_row = g.c + i * g.ldc + j0;
      for (std::size_t c = 0; c < cols; ++c) out_row[c] = acc[c];
    }
  }
}

double dot(const float* a, const float* b, std::size_t n) {
  // Accumulate in double: parameter vectors reach ~10^5 entries and the
  // cosine-similarity baselines (FoolsGold) are sensitive to cancellation.
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_l2(const float* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return acc;
}

double squared_l2_distance(const float* a, const float* b, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

float cosine_similarity(const float* a, const float* b, std::size_t n) {
  // Structured like the pre-SIMD code: norms rounded through
  // float(sqrt(double)) and a float dot before the division.
  const float na = static_cast<float>(std::sqrt(squared_l2(a, n)));
  const float nb = static_cast<float>(std::sqrt(squared_l2(b, n)));
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return static_cast<float>(dot(a, b, n)) / (na * nb);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void scale_add(float* y, float beta, const float* x, float alpha,
               std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = beta * y[i] + alpha * x[i];
}

void scale_into(float* out, float alpha, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = alpha * x[i];
}

void abs_into(float* out, const float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(x[i]);
}

float max_value(const float* x, std::size_t n) {
  return *std::max_element(x, x + n);
}

void relu_forward(float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void relu_backward(const float* activated, float* grad, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (activated[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void add_u64(std::uint64_t* acc, const std::uint64_t* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] += x[i];
}

// std::mersenne_twister_engine's algorithm as [rand.eng.mers] states it:
// seed the state, then per block of kMtWords outputs twist every word
// and temper it on the way out.
std::uint64_t mt_twist_word(std::uint64_t cur, std::uint64_t next,
                            std::uint64_t far) {
  const std::uint64_t y = (cur & kMtUpperMask) | (next & ~kMtUpperMask);
  return far ^ (y >> 1) ^ ((y & 1) != 0 ? kMtMatrix : 0);
}

template <bool kSubtract>
void add_mt19937_64_blocks(std::uint64_t* acc, std::size_t n,
                           std::uint64_t engine_seed) {
  constexpr std::size_t kLow = kMtWords - kMtShift;
  std::uint64_t mt[kMtWords];
  mt[0] = engine_seed;
  for (std::size_t i = 1; i < kMtWords; ++i) {
    mt[i] = kMtInitMult * (mt[i - 1] ^ (mt[i - 1] >> 62)) + i;
  }
  for (std::size_t off = 0; off < n; off += kMtWords) {
    for (std::size_t i = 0; i < kLow; ++i) {
      mt[i] = mt_twist_word(mt[i], mt[i + 1], mt[i + kMtShift]);
    }
    for (std::size_t i = kLow; i + 1 < kMtWords; ++i) {
      mt[i] = mt_twist_word(mt[i], mt[i + 1], mt[i - kLow]);
    }
    mt[kMtWords - 1] =
        mt_twist_word(mt[kMtWords - 1], mt[0], mt[kMtShift - 1]);
    const std::size_t len = std::min(kMtWords, n - off);
    for (std::size_t i = 0; i < len; ++i) {
      std::uint64_t w = mt[i];
      w ^= (w >> 29) & kMtTemperD;
      w ^= (w << 17) & kMtTemperB;
      w ^= (w << 37) & kMtTemperC;
      w ^= w >> 43;
      acc[off + i] = kSubtract ? acc[off + i] - w : acc[off + i] + w;
    }
  }
}

void add_mt19937_64(std::uint64_t* acc, std::size_t n,
                    std::uint64_t engine_seed, bool subtract) {
  if (subtract) {
    add_mt19937_64_blocks<true>(acc, n, engine_seed);
  } else {
    add_mt19937_64_blocks<false>(acc, n, engine_seed);
  }
}

double sum_d(const double* x, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i];
  return acc;
}

double sum_sq_diff_d(const double* x, double center, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    acc += (x[i] - center) * (x[i] - center);
  }
  return acc;
}

// ---- Batched multi-model evaluation (DESIGN.md §14) ----

// Fold-left over p from a zero accumulator with one multiply-add per
// step and a single bias add afterwards: the exact accumulation pattern
// of gemm_ab_rows + add_row_bias above, so a fused evaluation produces
// bit-identical activations to the sequential per-model forward pass on
// this arm.
void eval_layer_f32(const EvalLayerArgs& g) {
  for (std::size_t i = 0; i < g.n_out; ++i) {
    const float* a_row = g.a + i * g.a_row_stride;
    float acc[kPanelCols] = {};
    for (std::size_t p = 0; p < g.k; ++p) {
      const float av = a_row[p * g.a_p_stride];
      const float* in_row = g.in + p * kPanelCols;
      for (std::size_t c = 0; c < kPanelCols; ++c) acc[c] += av * in_row[c];
    }
    float* out_row = g.out + i * kPanelCols;
    const float b = g.bias[i];
    for (std::size_t c = 0; c < kPanelCols; ++c) {
      float v = acc[c] + b;
      if (g.relu && v < 0.0f) v = 0.0f;
      out_row[c] = v;
    }
  }
}

void argmax_margin_panel(const ArgmaxMarginArgs& g) {
  for (std::size_t c = 0; c < g.cols; ++c) {
    // Strict > keeps the first maximum, as std::max_element does.
    float best = g.in[c];
    float second = -std::numeric_limits<float>::infinity();
    std::size_t bi = 0;
    for (std::size_t i = 1; i < g.n_rows; ++i) {
      const float x = g.in[i * kPanelCols + c];
      if (x > best) {
        second = best;
        best = x;
        bi = i;
      } else if (x > second) {
        second = x;
      }
    }
    g.preds[c] = bi;
    if (g.margins != nullptr) g.margins[c] = best - second;
  }
}

constexpr KernelTable kTable = {
    "scalar",
    /*prefer_packed=*/false,
    gemm_ab_rows,
    gemm_atb_rows,
    gemm_abt_rows,
    gemm_packed_rows,
    dot,
    squared_l2,
    squared_l2_distance,
    cosine_similarity,
    axpy,
    scale,
    scale_add,
    scale_into,
    abs_into,
    max_value,
    relu_forward,
    relu_backward,
    add_u64,
    add_mt19937_64,
    sum_d,
    sum_sq_diff_d,
    eval_layer_f32,
    argmax_margin_panel,
};

}  // namespace

const KernelTable& scalar_table() { return kTable; }

}  // namespace baffle::kernels
