#pragma once
// Internal dispatch table between the scalar and vector kernel arms.
//
// Everything here operates on raw pointers + strides so the same entry
// points can be implemented twice: tensor/kernels_scalar.cpp keeps the
// pre-SIMD loops (and is the ground truth the parity tests compare
// against), tensor/kernels_simd.cpp provides the packed AVX2/FMA
// microkernels and vectorized primitives. tensor/ops.cpp and
// tensor/primitives.cpp do the shape checking, packing and thread-pool
// splitting, then call through active_table().

#include <cstddef>
#include <cstdint>

namespace baffle::kernels {

/// Columns per packed-B panel: two 8-float vectors. Panels are stored
/// contiguously (k rows x 16 floats each, 64-byte aligned, tail panel
/// zero-padded), so one panel row is exactly one cache line.
inline constexpr std::size_t kPanelCols = 16;

/// std::mt19937_64's parameters ([rand.predef]): state words, shift
/// offset, twist matrix, and the mask that splits each word at bit r=31.
/// The add_mt19937_64 arms both generate from these.
inline constexpr std::size_t kMtWords = 312;
inline constexpr std::size_t kMtShift = 156;
inline constexpr std::uint64_t kMtMatrix = 0xb5026f5aa96619e9ULL;
inline constexpr std::uint64_t kMtUpperMask = ~std::uint64_t{0} << 31;
inline constexpr std::uint64_t kMtInitMult = 6364136223846793005ULL;
/// Tempering masks (d, b, c); the shifts are u=29, s=17, t=37, l=43.
inline constexpr std::uint64_t kMtTemperD = 0x5555555555555555ULL;
inline constexpr std::uint64_t kMtTemperB = 0x71d67fffeda60000ULL;
inline constexpr std::uint64_t kMtTemperC = 0xfff7eee000000000ULL;

/// Row-range GEMM over the operands in their natural layout (the
/// scalar arm's form; also used by the vector arm's fallback-free
/// callers via ops.cpp orchestration).
struct GemmRowArgs {
  const float* a = nullptr;  // A base; meaning of strides depends on kernel
  std::size_t lda = 0;       // row stride of the A matrix as stored
  const float* b = nullptr;  // B base (natural layout)
  std::size_t ldb = 0;       // row stride of B as stored
  float* c = nullptr;        // output base
  std::size_t ldc = 0;       // row stride of C
  std::size_t k = 0;         // inner dimension
  std::size_t n = 0;         // output columns
};

/// Row-range GEMM against a packed-B panel buffer. A is addressed as
/// a[i * a_row_stride + p * a_p_stride] for output row i and inner
/// index p, which expresses both the normal (ab/abt) and transposed
/// (atb) A operand without a separate kernel.
struct PackedGemmArgs {
  const float* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_p_stride = 0;
  const float* bp = nullptr;  // packed panels, 64-byte aligned
  float* c = nullptr;
  std::size_t ldc = 0;
  std::size_t k = 0;
  std::size_t n = 0;
};

// ---- Batched multi-model evaluation kernels (DESIGN.md §14) ----
//
// The validator's forward passes run over the evaluation set packed
// ONCE as Xᵀ panels (pack_bt_panels layout: k rows x kPanelCols sample
// columns, 64-byte aligned, zero-padded tail). Per model and per panel,
// eval_layer_f32 computes one dense layer transposed — out = Wᵀ·in —
// with the bias add (and optionally ReLU) fused into the register
// epilogue and the output written in the same packed layout, so layers
// chain panel-by-panel without leaving the cache.

/// Fused transposed layer over one packed fp32 panel. A = Wᵀ is
/// addressed a[i * a_row_stride + p * a_p_stride] like PackedGemmArgs
/// (a_row_stride=1, a_p_stride=n_out reads a row-major W in place).
struct EvalLayerArgs {
  const float* a = nullptr;
  std::size_t a_row_stride = 0;
  std::size_t a_p_stride = 0;
  const float* bias = nullptr;  // n_out entries, one add post-sum
  const float* in = nullptr;    // packed input panel, k x kPanelCols
  float* out = nullptr;         // packed output panel, n_out x kPanelCols
  std::size_t k = 0;
  std::size_t n_out = 0;
  bool relu = false;
};

/// Column argmax over a packed panel with a first-max tie-break (the
/// lowest class index among equal maxima, as std::max_element), plus (when `margins` is non-null) the top-2
/// margin per column — the parity tests compare margins bit for bit to
/// check the tiled evaluation beyond the argmax.
struct ArgmaxMarginArgs {
  const float* in = nullptr;     // packed panel, n_rows x kPanelCols
  std::size_t n_rows = 0;        // >= 1
  std::size_t cols = 0;          // live columns <= kPanelCols
  std::size_t* preds = nullptr;  // cols entries
  float* margins = nullptr;      // nullable; cols entries, +inf if n_rows==1
};

struct KernelTable {
  const char* name;
  /// True when gemm_* entry points should pack B and use
  /// gemm_packed_rows (the vector arm); false to use the legacy row
  /// kernels on the natural layout (the scalar arm).
  bool prefer_packed;

  void (*gemm_ab_rows)(const GemmRowArgs&, std::size_t r0, std::size_t r1);
  void (*gemm_atb_rows)(const GemmRowArgs&, std::size_t r0, std::size_t r1);
  void (*gemm_abt_rows)(const GemmRowArgs&, std::size_t r0, std::size_t r1);
  void (*gemm_packed_rows)(const PackedGemmArgs&, std::size_t r0,
                           std::size_t r1);

  // Flat-vector primitives. All length arguments are element counts.
  // The reductions return their raw double accumulator so the public
  // wrappers can round exactly where the pre-SIMD code did (e.g.
  // l2_norm takes sqrt in double, then casts).
  double (*dot)(const float*, const float*, std::size_t);
  double (*squared_l2)(const float*, std::size_t);
  double (*squared_l2_distance)(const float*, const float*, std::size_t);
  float (*cosine_similarity)(const float*, const float*, std::size_t);
  void (*axpy)(float alpha, const float*, float*, std::size_t);
  void (*scale)(float*, float alpha, std::size_t);
  // y = beta * y + alpha * x
  void (*scale_add)(float* y, float beta, const float* x, float alpha,
                    std::size_t);
  // out = alpha * x
  void (*scale_into)(float* out, float alpha, const float* x, std::size_t);
  void (*abs_into)(float* out, const float* x, std::size_t);
  float (*max_value)(const float*, std::size_t);  // n > 0
  void (*relu_forward)(float*, std::size_t);
  void (*relu_backward)(const float* activated, float* grad, std::size_t);
  void (*add_u64)(std::uint64_t* acc, const std::uint64_t*, std::size_t);
  // acc[i] += w_i (or -= when `subtract`) in Z_2^64, where w_0, w_1, ...
  // is exactly the output of std::mt19937_64(engine_seed): the state is
  // twisted kMtWords words per block and each word tempered and applied
  // in one pass (the secure-aggregation pair masks).
  void (*add_mt19937_64)(std::uint64_t* acc, std::size_t n,
                         std::uint64_t engine_seed, bool subtract);
  double (*sum_d)(const double*, std::size_t);
  double (*sum_sq_diff_d)(const double*, double center, std::size_t);

  // Batched multi-model evaluation: fused transposed layers, panel
  // argmax.
  void (*eval_layer_f32)(const EvalLayerArgs&);
  void (*argmax_margin_panel)(const ArgmaxMarginArgs&);
};

/// Always available; arithmetic identical to the pre-SIMD code.
const KernelTable& scalar_table();
/// AVX2/FMA arm, or nullptr when not compiled in / not supported by
/// the running CPU.
const KernelTable* vector_table();
/// The arm selected by simd::active_isa() (env + CPUID + force_isa).
const KernelTable& active_table();

}  // namespace baffle::kernels
