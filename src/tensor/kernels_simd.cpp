// Vector kernel arm: packed-panel GEMM microkernels and 8-wide
// primitives written against tensor/simd.hpp. This translation unit is
// the only one compiled with -mavx2 -mfma -ffp-contract=fast (see
// src/CMakeLists.txt), which is why the kernels live behind the
// function-pointer table instead of in a header: nothing here may be
// inlined into code that must run on non-AVX2 CPUs.
//
// Numeric contract: the dot/norm/distance family keeps the scalar
// arm's double-precision accumulation (via 4-wide double lanes), so the
// two arms differ only by reassociation and FMA rounding — within the
// parity-test tolerance — while relu/abs/max, the u64 adds and the
// mt19937_64 mask stream are bit-exact.

#include "tensor/kernels.hpp"
#include "tensor/simd.hpp"
#include "util/contracts.hpp"

#if BAFFLE_SIMD_VEC_EXT && defined(BAFFLE_SIMD_TARGET_AVX2) && \
    defined(__x86_64__)

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(BAFFLE_HAVE_AVX512F_TARGET)
#include <immintrin.h>  // zmm fp32 layer kernel (vector-ext types elsewhere)
#endif

namespace baffle::kernels {
namespace {

using simd::f32x8;
using simd::f64x4;
using simd::hsum4;
using simd::i32x8;
using simd::kFloatLanes;
using simd::loada8;
using simd::loadu4d;
using simd::loadu4u;
using simd::loadu8;
using simd::splat8;
using simd::storeu4u;
using simd::storeu8;
using simd::u64x4;
using simd::vabs8;
using simd::vmax8;
using simd::vrelu8;
using simd::widen_hi;
using simd::widen_lo;

/// One MR x 16 register tile: MR rows of C against one packed B panel.
/// MR <= 6 keeps 2*MR accumulators + 2 panel loads + 1 broadcast within
/// the 16 ymm registers. A is addressed through the stride pair so the
/// same tile serves gemm_ab (a_p_stride=1) and gemm_atb (a_row_stride=1).
template <int MR>
BAFFLE_ALWAYS_INLINE void micro_tile(const PackedGemmArgs& g,
                                     const float* panel, std::size_t i0,
                                     std::size_t j0, std::size_t cols) {
  f32x8 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = f32x8{};
    acc1[r] = f32x8{};
  }
  const float* a0 = g.a + i0 * g.a_row_stride;
  for (std::size_t p = 0; p < g.k; ++p) {
    const f32x8 b0 = loada8(panel + p * kPanelCols);
    const f32x8 b1 = loada8(panel + p * kPanelCols + kFloatLanes);
    const float* ap = a0 + p * g.a_p_stride;
    for (int r = 0; r < MR; ++r) {
      const f32x8 av = splat8(ap[r * g.a_row_stride]);
      acc0[r] += av * b0;  // contracts to FMA under -ffp-contract=fast
      acc1[r] += av * b1;
    }
  }
  if (cols == kPanelCols) {
    for (int r = 0; r < MR; ++r) {
      float* out = g.c + (i0 + r) * g.ldc + j0;
      storeu8(out, acc0[r]);
      storeu8(out + kFloatLanes, acc1[r]);
    }
  } else {
    // Tail panel: spill the registers to an aligned staging row and
    // copy only the live columns, so we never write past row end.
    alignas(32) float tmp[kPanelCols];
    for (int r = 0; r < MR; ++r) {
      *reinterpret_cast<f32x8*>(tmp) = acc0[r];
      *reinterpret_cast<f32x8*>(tmp + kFloatLanes) = acc1[r];
      float* out = g.c + (i0 + r) * g.ldc + j0;
      for (std::size_t c = 0; c < cols; ++c) out[c] = tmp[c];
    }
  }
}

void gemm_packed_rows(const PackedGemmArgs& g, std::size_t r0,
                      std::size_t r1) {
  BAFFLE_DCHECK(r0 <= r1, "kernel row range must be ordered");
  BAFFLE_DCHECK(r0 == r1 || g.c != nullptr,
                "kernel output pointer must be set for a non-empty range");
  BAFFLE_DCHECK(
      reinterpret_cast<std::uintptr_t>(g.bp) % simd::kAlignment == 0,
      "packed panels must be cache-line aligned");
  const std::size_t panels = (g.n + kPanelCols - 1) / kPanelCols;
  // Panel-outer: one k x 16 panel (16 KiB at k=256) stays L1-resident
  // while every row tile in [r0, r1) streams over it.
  for (std::size_t jp = 0; jp < panels; ++jp) {
    const float* panel = g.bp + jp * g.k * kPanelCols;
    const std::size_t j0 = jp * kPanelCols;
    const std::size_t cols = std::min(kPanelCols, g.n - j0);
    std::size_t i = r0;
    for (; i + 6 <= r1; i += 6) micro_tile<6>(g, panel, i, j0, cols);
    switch (r1 - i) {
      case 5: micro_tile<5>(g, panel, i, j0, cols); break;
      case 4: micro_tile<4>(g, panel, i, j0, cols); break;
      case 3: micro_tile<3>(g, panel, i, j0, cols); break;
      case 2: micro_tile<2>(g, panel, i, j0, cols); break;
      case 1: micro_tile<1>(g, panel, i, j0, cols); break;
      default: break;
    }
  }
}

// The double-widening reductions are unrolled 4x (32 floats, eight
// independent f64x4 chains per iteration): the loop is bound by FMA
// latency (~4-5 cycles on 2 ports), so it takes 8+ in-flight chains to
// reach multiply-add throughput. Two chains measured 1.28x/1.58x over
// scalar for dot/distance; eight chains roughly double that.

double dot(const float* a, const float* b, std::size_t n) {
  f64x4 lo0{}, hi0{}, lo1{}, hi1{}, lo2{}, hi2{}, lo3{}, hi3{};
  std::size_t i = 0;
  for (; i + 4 * kFloatLanes <= n; i += 4 * kFloatLanes) {
    const f32x8 a0 = loadu8(a + i);
    const f32x8 b0 = loadu8(b + i);
    const f32x8 a1 = loadu8(a + i + kFloatLanes);
    const f32x8 b1 = loadu8(b + i + kFloatLanes);
    const f32x8 a2 = loadu8(a + i + 2 * kFloatLanes);
    const f32x8 b2 = loadu8(b + i + 2 * kFloatLanes);
    const f32x8 a3 = loadu8(a + i + 3 * kFloatLanes);
    const f32x8 b3 = loadu8(b + i + 3 * kFloatLanes);
    lo0 += widen_lo(a0) * widen_lo(b0);
    hi0 += widen_hi(a0) * widen_hi(b0);
    lo1 += widen_lo(a1) * widen_lo(b1);
    hi1 += widen_hi(a1) * widen_hi(b1);
    lo2 += widen_lo(a2) * widen_lo(b2);
    hi2 += widen_hi(a2) * widen_hi(b2);
    lo3 += widen_lo(a3) * widen_lo(b3);
    hi3 += widen_hi(a3) * widen_hi(b3);
  }
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    const f32x8 av = loadu8(a + i);
    const f32x8 bv = loadu8(b + i);
    lo0 += widen_lo(av) * widen_lo(bv);
    hi0 += widen_hi(av) * widen_hi(bv);
  }
  double acc =
      hsum4(((lo0 + lo1) + (lo2 + lo3)) + ((hi0 + hi1) + (hi2 + hi3)));
  for (; i < n; ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double squared_l2(const float* x, std::size_t n) {
  f64x4 lo0{}, hi0{}, lo1{}, hi1{}, lo2{}, hi2{}, lo3{}, hi3{};
  std::size_t i = 0;
  for (; i + 4 * kFloatLanes <= n; i += 4 * kFloatLanes) {
    const f32x8 v0 = loadu8(x + i);
    const f32x8 v1 = loadu8(x + i + kFloatLanes);
    const f32x8 v2 = loadu8(x + i + 2 * kFloatLanes);
    const f32x8 v3 = loadu8(x + i + 3 * kFloatLanes);
    const f64x4 dl0 = widen_lo(v0), dh0 = widen_hi(v0);
    const f64x4 dl1 = widen_lo(v1), dh1 = widen_hi(v1);
    const f64x4 dl2 = widen_lo(v2), dh2 = widen_hi(v2);
    const f64x4 dl3 = widen_lo(v3), dh3 = widen_hi(v3);
    lo0 += dl0 * dl0;
    hi0 += dh0 * dh0;
    lo1 += dl1 * dl1;
    hi1 += dh1 * dh1;
    lo2 += dl2 * dl2;
    hi2 += dh2 * dh2;
    lo3 += dl3 * dl3;
    hi3 += dh3 * dh3;
  }
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    const f32x8 v = loadu8(x + i);
    const f64x4 dl = widen_lo(v), dh = widen_hi(v);
    lo0 += dl * dl;
    hi0 += dh * dh;
  }
  double acc =
      hsum4(((lo0 + lo1) + (lo2 + lo3)) + ((hi0 + hi1) + (hi2 + hi3)));
  for (; i < n; ++i) {
    acc += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return acc;
}

double squared_l2_distance(const float* a, const float* b, std::size_t n) {
  f64x4 lo0{}, hi0{}, lo1{}, hi1{}, lo2{}, hi2{}, lo3{}, hi3{};
  std::size_t i = 0;
  for (; i + 4 * kFloatLanes <= n; i += 4 * kFloatLanes) {
    const f32x8 a0 = loadu8(a + i);
    const f32x8 b0 = loadu8(b + i);
    const f32x8 a1 = loadu8(a + i + kFloatLanes);
    const f32x8 b1 = loadu8(b + i + kFloatLanes);
    const f32x8 a2 = loadu8(a + i + 2 * kFloatLanes);
    const f32x8 b2 = loadu8(b + i + 2 * kFloatLanes);
    const f32x8 a3 = loadu8(a + i + 3 * kFloatLanes);
    const f32x8 b3 = loadu8(b + i + 3 * kFloatLanes);
    const f64x4 dl0 = widen_lo(a0) - widen_lo(b0);
    const f64x4 dh0 = widen_hi(a0) - widen_hi(b0);
    const f64x4 dl1 = widen_lo(a1) - widen_lo(b1);
    const f64x4 dh1 = widen_hi(a1) - widen_hi(b1);
    const f64x4 dl2 = widen_lo(a2) - widen_lo(b2);
    const f64x4 dh2 = widen_hi(a2) - widen_hi(b2);
    const f64x4 dl3 = widen_lo(a3) - widen_lo(b3);
    const f64x4 dh3 = widen_hi(a3) - widen_hi(b3);
    lo0 += dl0 * dl0;
    hi0 += dh0 * dh0;
    lo1 += dl1 * dl1;
    hi1 += dh1 * dh1;
    lo2 += dl2 * dl2;
    hi2 += dh2 * dh2;
    lo3 += dl3 * dl3;
    hi3 += dh3 * dh3;
  }
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    const f32x8 av = loadu8(a + i);
    const f32x8 bv = loadu8(b + i);
    const f64x4 dl = widen_lo(av) - widen_lo(bv);
    const f64x4 dh = widen_hi(av) - widen_hi(bv);
    lo0 += dl * dl;
    hi0 += dh * dh;
  }
  double acc =
      hsum4(((lo0 + lo1) + (lo2 + lo3)) + ((hi0 + hi1) + (hi2 + hi3)));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    acc += d * d;
  }
  return acc;
}

float cosine_similarity(const float* a, const float* b, std::size_t n) {
  // One fused pass: the scalar arm makes three (norm, norm, dot).
  // Reductions and the norm/zero handling match it structurally, so the
  // results agree to reassociation rounding.
  f64x4 d_lo{}, d_hi{}, na_lo{}, na_hi{}, nb_lo{}, nb_hi{};
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    const f32x8 av = loadu8(a + i);
    const f32x8 bv = loadu8(b + i);
    const f64x4 al = widen_lo(av), ah = widen_hi(av);
    const f64x4 bl = widen_lo(bv), bh = widen_hi(bv);
    d_lo += al * bl;
    d_hi += ah * bh;
    na_lo += al * al;
    na_hi += ah * ah;
    nb_lo += bl * bl;
    nb_hi += bh * bh;
  }
  double d = hsum4(d_lo + d_hi);
  double na2 = hsum4(na_lo + na_hi);
  double nb2 = hsum4(nb_lo + nb_hi);
  for (; i < n; ++i) {
    const double av = a[i], bv = b[i];
    d += av * bv;
    na2 += av * av;
    nb2 += bv * bv;
  }
  const float na = static_cast<float>(std::sqrt(na2));
  const float nb = static_cast<float>(std::sqrt(nb2));
  if (na == 0.0f || nb == 0.0f) return 0.0f;
  return static_cast<float>(d) / (na * nb);
}

void axpy(float alpha, const float* x, float* y, std::size_t n) {
  const f32x8 av = splat8(alpha);
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(y + i, loadu8(y + i) + av * loadu8(x + i));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale(float* x, float alpha, std::size_t n) {
  const f32x8 av = splat8(alpha);
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(x + i, loadu8(x + i) * av);
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void scale_add(float* y, float beta, const float* x, float alpha,
               std::size_t n) {
  const f32x8 bv = splat8(beta);
  const f32x8 av = splat8(alpha);
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(y + i, bv * loadu8(y + i) + av * loadu8(x + i));
  }
  for (; i < n; ++i) y[i] = beta * y[i] + alpha * x[i];
}

void scale_into(float* out, float alpha, const float* x, std::size_t n) {
  const f32x8 av = splat8(alpha);
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(out + i, av * loadu8(x + i));
  }
  for (; i < n; ++i) out[i] = alpha * x[i];
}

void abs_into(float* out, const float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(out + i, vabs8(loadu8(x + i)));
  }
  for (; i < n; ++i) out[i] = std::fabs(x[i]);
}

float max_value(const float* x, std::size_t n) {
  std::size_t i = 0;
  float best = x[0];
  if (n >= kFloatLanes) {
    f32x8 acc = loadu8(x);
    for (i = kFloatLanes; i + kFloatLanes <= n; i += kFloatLanes) {
      acc = vmax8(acc, loadu8(x + i));
    }
    best = acc[0];
    for (std::size_t l = 1; l < kFloatLanes; ++l) {
      if (acc[l] > best) best = acc[l];
    }
  }
  for (; i < n; ++i) {
    if (x[i] > best) best = x[i];
  }
  return best;
}

void relu_forward(float* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    storeu8(x + i, vrelu8(loadu8(x + i)));
  }
  for (; i < n; ++i) {
    if (x[i] < 0.0f) x[i] = 0.0f;
  }
}

void relu_backward(const float* activated, float* grad, std::size_t n) {
  const f32x8 zero{};
  std::size_t i = 0;
  for (; i + kFloatLanes <= n; i += kFloatLanes) {
    // keep where NOT (activated <= 0): a NaN activation keeps its
    // gradient, exactly like the scalar `if (a <= 0) g = 0`.
    const i32x8 keep = ~(loadu8(activated + i) <= zero);
    const f32x8 g = loadu8(grad + i);
    storeu8(grad + i, __builtin_bit_cast(
                          f32x8, __builtin_bit_cast(i32x8, g) & keep));
  }
  for (; i < n; ++i) {
    if (activated[i] <= 0.0f) grad[i] = 0.0f;
  }
}

void add_u64(std::uint64_t* acc, const std::uint64_t* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + simd::kDoubleLanes <= n; i += simd::kDoubleLanes) {
    storeu4u(acc + i, loadu4u(acc + i) + loadu4u(x + i));
  }
  for (; i < n; ++i) acc[i] += x[i];
}

BAFFLE_ALWAYS_INLINE u64x4 splat4u(std::uint64_t x) {
  return u64x4{x, x, x, x};
}

// Words [0, kMtLow) of a twist read only old state; words [kMtLow,
// kMtWords) read the words [0, kMtShift) the first loop just wrote. Both
// distances are multiples of 4, so no 4-word step reads a word that its
// own step writes. Slot mt[kMtWords] mirrors the new mt[0], which the
// last step reads as its (i + 1) wrap.
constexpr std::size_t kMtLow = kMtWords - kMtShift;
static_assert(kMtLow % simd::kDoubleLanes == 0 &&
              kMtShift % simd::kDoubleLanes == 0);

void twist_mt19937_64(std::uint64_t* mt) {
  const u64x4 upper = splat4u(kMtUpperMask), matrix = splat4u(kMtMatrix),
              one = splat4u(1);
  const auto step = [&](std::size_t i, std::size_t src) {
    const u64x4 y =
        (loadu4u(mt + i) & upper) | (loadu4u(mt + i + 1) & ~upper);
    storeu4u(mt + i, loadu4u(mt + src) ^ (y >> 1) ^
                         ((u64x4{} - (y & one)) & matrix));
  };
  for (std::size_t i = 0; i < kMtLow; i += simd::kDoubleLanes) {
    step(i, i + kMtShift);
  }
  mt[kMtWords] = mt[0];
  for (std::size_t i = kMtLow; i < kMtWords; i += simd::kDoubleLanes) {
    step(i, i - kMtLow);
  }
}

// Tempers mt[0, len) and applies it to acc, len <= kMtWords. A tail of
// fewer than 4 words goes through a zero-padded copy of acc.
template <bool kSubtract>
void apply_tempered(std::uint64_t* acc, const std::uint64_t* mt,
                    std::size_t len) {
  const u64x4 d = splat4u(kMtTemperD), b = splat4u(kMtTemperB),
              c = splat4u(kMtTemperC);
  const auto apply4 = [&](std::uint64_t* dst, const std::uint64_t* src) {
    u64x4 w = loadu4u(src);
    w ^= (w >> 29) & d;
    w ^= (w << 17) & b;
    w ^= (w << 37) & c;
    w ^= w >> 43;
    const u64x4 a = loadu4u(dst);
    storeu4u(dst, kSubtract ? a - w : a + w);
  };
  std::size_t i = 0;
  for (; i + simd::kDoubleLanes <= len; i += simd::kDoubleLanes) {
    apply4(acc + i, mt + i);
  }
  if (i < len) {
    std::uint64_t tail[simd::kDoubleLanes] = {};
    std::copy(acc + i, acc + len, tail);
    apply4(tail, mt + i);
    std::copy(tail, tail + (len - i), acc + i);
  }
}

template <bool kSubtract>
void add_mt19937_64_blocks(std::uint64_t* acc, std::size_t n,
                           std::uint64_t engine_seed) {
  std::uint64_t mt[kMtWords + 1];
  mt[0] = engine_seed;
  for (std::size_t i = 1; i < kMtWords; ++i) {
    mt[i] = kMtInitMult * (mt[i - 1] ^ (mt[i - 1] >> 62)) + i;
  }
  for (std::size_t off = 0; off < n; off += kMtWords) {
    twist_mt19937_64(mt);
    apply_tempered<kSubtract>(acc + off, mt, std::min(kMtWords, n - off));
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
  f64x4 acc{};
  std::size_t i = 0;
  for (; i + simd::kDoubleLanes <= n; i += simd::kDoubleLanes) {
    acc += loadu4d(x + i);
  }
  double s = hsum4(acc);
  for (; i < n; ++i) s += x[i];
  return s;
}

double sum_sq_diff_d(const double* x, double center, std::size_t n) {
  const f64x4 cv = {center, center, center, center};
  f64x4 acc{};
  std::size_t i = 0;
  for (; i + simd::kDoubleLanes <= n; i += simd::kDoubleLanes) {
    const f64x4 d = loadu4d(x + i) - cv;
    acc += d * d;
  }
  double s = hsum4(acc);
  for (; i < n; ++i) s += (x[i] - center) * (x[i] - center);
  return s;
}

// ---- Batched multi-model evaluation (DESIGN.md §14) ----

BAFFLE_ALWAYS_INLINE f32x8 vmin8(f32x8 a, f32x8 b) {
  const i32x8 m = a < b;  // all-ones where a < b
  return __builtin_bit_cast(f32x8, (__builtin_bit_cast(i32x8, a) & m) |
                                       (__builtin_bit_cast(i32x8, b) & ~m));
}

/// Fused-layer variant of micro_tile: same accumulation (per-p FMA into
/// zero-initialized registers, so bit-identical to gemm_packed_rows),
/// but with the bias add and optional ReLU applied while the tile is
/// still in registers, and the output written panel-packed. The bias
/// add matches the sequential path's add_row_bias (axpy alpha=1: a
/// single correctly-rounded add), and vrelu8 matches relu_forward.
template <int MR>
BAFFLE_ALWAYS_INLINE void eval_tile_f32(const EvalLayerArgs& g,
                                        std::size_t i0) {
  f32x8 acc0[MR], acc1[MR];
  for (int r = 0; r < MR; ++r) {
    acc0[r] = f32x8{};
    acc1[r] = f32x8{};
  }
  const float* a0 = g.a + i0 * g.a_row_stride;
  for (std::size_t p = 0; p < g.k; ++p) {
    const f32x8 b0 = loada8(g.in + p * kPanelCols);
    const f32x8 b1 = loada8(g.in + p * kPanelCols + kFloatLanes);
    const float* ap = a0 + p * g.a_p_stride;
    for (int r = 0; r < MR; ++r) {
      const f32x8 av = splat8(ap[r * g.a_row_stride]);
      acc0[r] += av * b0;  // contracts to FMA under -ffp-contract=fast
      acc1[r] += av * b1;
    }
  }
  for (int r = 0; r < MR; ++r) {
    const f32x8 bv = splat8(g.bias[i0 + r]);
    f32x8 v0 = acc0[r] + bv;
    f32x8 v1 = acc1[r] + bv;
    if (g.relu) {
      v0 = vrelu8(v0);
      v1 = vrelu8(v1);
    }
    float* out = g.out + (i0 + r) * kPanelCols;
    storeu8(out, v0);
    storeu8(out + kFloatLanes, v1);
  }
}

void eval_layer_f32(const EvalLayerArgs& g) {
  std::size_t i = 0;
  for (; i + 6 <= g.n_out; i += 6) eval_tile_f32<6>(g, i);
  switch (g.n_out - i) {
    case 5: eval_tile_f32<5>(g, i); break;
    case 4: eval_tile_f32<4>(g, i); break;
    case 3: eval_tile_f32<3>(g, i); break;
    case 2: eval_tile_f32<2>(g, i); break;
    case 1: eval_tile_f32<1>(g, i); break;
    default: break;
  }
}

#if defined(BAFFLE_HAVE_AVX512F_TARGET)

// AVX-512 fused-layer variant: one zmm covers the full 16-column panel
// row, so each output row needs ONE accumulator and ONE panel load per
// k step instead of two — half the issue slots of the ymm tile.
// BIT-IDENTICAL by construction: every output element is an
// independent lane computing fma(a_p, in[p][c], acc) in the same p
// order from a zero accumulator, one post-sum bias add, and vrelu's
// exact `x < 0 ? 0 : x` semantics (the NLT mask keeps NaN/+0/-0 lanes
// like the scalar code) — lane width cannot change any per-element
// result, so runtime selection only changes speed.

#define BAFFLE_TARGET_AVX512F __attribute__((target("avx512f")))

template <int MR>
BAFFLE_TARGET_AVX512F BAFFLE_ALWAYS_INLINE void eval_tile_f32_zmm(
    const EvalLayerArgs& g, std::size_t i0) {
  __m512 acc[MR];
  for (int r = 0; r < MR; ++r) acc[r] = _mm512_setzero_ps();
  const float* a0 = g.a + i0 * g.a_row_stride;
  for (std::size_t p = 0; p < g.k; ++p) {
    const __m512 b = _mm512_loadu_ps(g.in + p * kPanelCols);
    const float* ap = a0 + p * g.a_p_stride;
    for (int r = 0; r < MR; ++r) {
      acc[r] =
          _mm512_fmadd_ps(_mm512_set1_ps(ap[r * g.a_row_stride]), b, acc[r]);
    }
  }
  for (int r = 0; r < MR; ++r) {
    __m512 v = _mm512_add_ps(acc[r], _mm512_set1_ps(g.bias[i0 + r]));
    if (g.relu) {
      const __mmask16 keep =
          _mm512_cmp_ps_mask(v, _mm512_setzero_ps(), _CMP_NLT_US);
      v = _mm512_maskz_mov_ps(keep, v);
    }
    _mm512_storeu_ps(g.out + (i0 + r) * kPanelCols, v);
  }
}

BAFFLE_TARGET_AVX512F void eval_layer_f32_zmm(const EvalLayerArgs& g) {
  std::size_t i = 0;
  for (; i + 8 <= g.n_out; i += 8) eval_tile_f32_zmm<8>(g, i);
  for (; i + 4 <= g.n_out; i += 4) eval_tile_f32_zmm<4>(g, i);
  switch (g.n_out - i) {
    case 3: eval_tile_f32_zmm<3>(g, i); break;
    case 2: eval_tile_f32_zmm<2>(g, i); break;
    case 1: eval_tile_f32_zmm<1>(g, i); break;
    default: break;
  }
}

#endif  // BAFFLE_HAVE_AVX512F_TARGET

/// Column argmax + top-2 margin over a packed panel, 16 lanes at once.
/// The strict > mask keeps the first maximum (matching the scalar arm
/// and std::max_element), and `second = max(second, min(x, best))` is
/// the branch-free form of the scalar top-2 update: every lane op is an
/// exact copy/compare, so preds and margins are bit-identical across
/// arms for finite logits.
void argmax_margin_panel(const ArgmaxMarginArgs& g) {
  f32x8 best0 = loada8(g.in);
  f32x8 best1 = loada8(g.in + kFloatLanes);
  const f32x8 ninf = splat8(-std::numeric_limits<float>::infinity());
  f32x8 sec0 = ninf, sec1 = ninf;
  i32x8 idx0{}, idx1{};
  for (std::size_t i = 1; i < g.n_rows; ++i) {
    const f32x8 x0 = loada8(g.in + i * kPanelCols);
    const f32x8 x1 = loada8(g.in + i * kPanelCols + kFloatLanes);
    const i32x8 m0 = x0 > best0;
    const i32x8 m1 = x1 > best1;
    sec0 = vmax8(sec0, vmin8(x0, best0));
    sec1 = vmax8(sec1, vmin8(x1, best1));
    best0 = __builtin_bit_cast(
        f32x8, (__builtin_bit_cast(i32x8, x0) & m0) |
                   (__builtin_bit_cast(i32x8, best0) & ~m0));
    best1 = __builtin_bit_cast(
        f32x8, (__builtin_bit_cast(i32x8, x1) & m1) |
                   (__builtin_bit_cast(i32x8, best1) & ~m1));
    const i32x8 iv = i32x8{} + static_cast<std::int32_t>(i);
    idx0 = (iv & m0) | (idx0 & ~m0);
    idx1 = (iv & m1) | (idx1 & ~m1);
  }
  alignas(32) float bests[kPanelCols];
  alignas(32) float seconds[kPanelCols];
  alignas(32) std::int32_t idxs[kPanelCols];
  *reinterpret_cast<f32x8*>(bests) = best0;
  *reinterpret_cast<f32x8*>(bests + kFloatLanes) = best1;
  *reinterpret_cast<f32x8*>(seconds) = sec0;
  *reinterpret_cast<f32x8*>(seconds + kFloatLanes) = sec1;
  *reinterpret_cast<i32x8*>(idxs) = idx0;
  *reinterpret_cast<i32x8*>(idxs + kFloatLanes) = idx1;
  for (std::size_t c = 0; c < g.cols; ++c) {
    g.preds[c] = static_cast<std::size_t>(idxs[c]);
    if (g.margins != nullptr) g.margins[c] = bests[c] - seconds[c];
  }
}

KernelTable make_table() {
  KernelTable t = scalar_table();
  t.name = "avx2";
  t.prefer_packed = true;
  // The natural-layout row kernels stay on the scalar implementations:
  // with prefer_packed set, ops.cpp routes every gemm through the
  // packed path, so those entries only serve as a safety net.
  // scalar-inherited: gemm_ab_rows, gemm_atb_rows, gemm_abt_rows
  t.gemm_packed_rows = gemm_packed_rows;
  t.dot = dot;
  t.squared_l2 = squared_l2;
  t.squared_l2_distance = squared_l2_distance;
  t.cosine_similarity = cosine_similarity;
  t.axpy = axpy;
  t.scale = scale;
  t.scale_add = scale_add;
  t.scale_into = scale_into;
  t.abs_into = abs_into;
  t.max_value = max_value;
  t.relu_forward = relu_forward;
  t.relu_backward = relu_backward;
  t.add_u64 = add_u64;
  t.add_mt19937_64 = add_mt19937_64;
  t.sum_d = sum_d;
  t.sum_sq_diff_d = sum_sq_diff_d;
  t.eval_layer_f32 = eval_layer_f32;
#if defined(BAFFLE_HAVE_AVX512F_TARGET)
  if (__builtin_cpu_supports("avx512f")) {
    t.eval_layer_f32 = eval_layer_f32_zmm;
  }
#endif
  t.argmax_margin_panel = argmax_margin_panel;
  return t;
}

}  // namespace

const KernelTable* vector_table() {
  // CPUID check once; the answer cannot change while the process runs.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (!supported) return nullptr;
  static const KernelTable table = make_table();
  return &table;
}

}  // namespace baffle::kernels

#else  // vector arm not compiled in

namespace baffle::kernels {
const KernelTable* vector_table() { return nullptr; }
}  // namespace baffle::kernels

#endif
