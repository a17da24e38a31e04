// Scalar-vs-SIMD parity: every dispatched kernel must agree between the
// two arms, across shapes chosen to hit full vectors, masked tails and
// degenerate operands. The scalar arm is the ground truth (it preserves
// the pre-SIMD arithmetic); the vector arm may differ only by
// FMA/reassociation rounding, bounded by the tolerances here.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/aligned.hpp"
#include "tensor/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/primitives.hpp"
#include "tensor/simd.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// Shapes that cover: single element, sub-vector, exactly one vector,
// vector+1, tails of every panel width, and multi-panel/multi-tile.
const std::size_t kDims[] = {1, 3, 7, 8, 9, 31, 129};
const std::size_t kLens[] = {0, 1, 3, 7, 8, 9, 31, 129, 1000};

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& x : m.flat()) x = static_cast<float>(rng.normal());
  return m;
}

void expect_matrices_near(const Matrix& ref, const Matrix& got, float rel) {
  ASSERT_EQ(ref.rows(), got.rows());
  ASSERT_EQ(ref.cols(), got.cols());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const float r = ref.flat()[i];
    ASSERT_NEAR(got.flat()[i], r, rel * (std::abs(r) + 1.0f))
        << "flat index " << i;
  }
}

void expect_spans_near(std::span<const float> ref, std::span<const float> got,
                       float rel) {
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_NEAR(got[i], ref[i], rel * (std::abs(ref[i]) + 1.0f))
        << "index " << i;
  }
}

// Skips when the vector arm cannot be exercised: either it was not
// compiled in / the CPU lacks AVX2+FMA, or BAFFLE_FORCE_SCALAR pins the
// scalar arm (the forced-scalar CI leg must stay scalar-only, so the
// parity suite does not override the pin via force_isa()).
class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (simd::scalar_forced_by_env()) {
      GTEST_SKIP() << "BAFFLE_FORCE_SCALAR pins the scalar arm";
    }
    if (!simd::isa_available(simd::Isa::kVector)) {
      GTEST_SKIP() << "vector kernels unavailable on this build/CPU";
    }
  }
  void TearDown() override { simd::reset_isa(); }
};

enum class GemmKind { kAb, kAtb, kAbt };

void run_gemm(GemmKind kind, const Matrix& a, const Matrix& b, Matrix& out) {
  switch (kind) {
    case GemmKind::kAb:
      gemm_ab(a, b, out);
      break;
    case GemmKind::kAtb:
      gemm_atb(a, b, out);
      break;
    case GemmKind::kAbt:
      gemm_abt(a, b, out);
      break;
  }
}

void gemm_parity_over_shapes(GemmKind kind) {
  Rng rng(11);
  for (std::size_t m : kDims) {
    for (std::size_t n : kDims) {
      for (std::size_t k : kDims) {
        SCOPED_TRACE(::testing::Message()
                     << "m=" << m << " n=" << n << " k=" << k);
        const Matrix a = (kind == GemmKind::kAtb) ? random_matrix(k, m, rng)
                                                  : random_matrix(m, k, rng);
        const Matrix b = (kind == GemmKind::kAbt) ? random_matrix(n, k, rng)
                                                  : random_matrix(k, n, rng);
        Matrix ref(m, n), got(m, n);
        ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
        run_gemm(kind, a, b, ref);
        ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
        run_gemm(kind, a, b, got);
        expect_matrices_near(ref, got, 1e-4f);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, GemmAbMatchesScalar) {
  gemm_parity_over_shapes(GemmKind::kAb);
}

TEST_F(SimdParity, GemmAtbMatchesScalar) {
  gemm_parity_over_shapes(GemmKind::kAtb);
}

TEST_F(SimdParity, GemmAbtMatchesScalar) {
  gemm_parity_over_shapes(GemmKind::kAbt);
}

TEST_F(SimdParity, GemmHandlesEmptyOperands) {
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kVector}) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));

    // k == 0: the inner dimension is empty, C must be all zeros.
    Matrix out(2, 3, 123.0f);
    gemm_ab(Matrix(2, 0), Matrix(0, 3), out);
    for (float x : out.flat()) EXPECT_EQ(x, 0.0f);

    out.fill(123.0f);
    gemm_atb(Matrix(0, 2), Matrix(0, 3), out);
    for (float x : out.flat()) EXPECT_EQ(x, 0.0f);

    out.fill(123.0f);
    gemm_abt(Matrix(2, 0), Matrix(3, 0), out);
    for (float x : out.flat()) EXPECT_EQ(x, 0.0f);

    // m == 0 / n == 0: empty output, no touching of the operands.
    Matrix empty_rows(0, 3);
    gemm_ab(Matrix(0, 4), Matrix(4, 3), empty_rows);
    EXPECT_EQ(empty_rows.rows(), 0u);
    Matrix empty_cols(2, 0);
    gemm_ab(Matrix(2, 4), Matrix(4, 0), empty_cols);
    EXPECT_EQ(empty_cols.cols(), 0u);
  }
}

TEST_F(SimdParity, GemmPropagatesNanAndInf) {
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kVector}) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));

    Matrix a(2, 9, 1.0f);
    a.at(0, 3) = kNan;  // row 0 -> every output NaN
    a.at(1, 5) = kInf;  // row 1 -> every output +inf (B is all ones)
    const Matrix b(9, 5, 1.0f);
    Matrix out(2, 5);
    gemm_ab(a, b, out);
    for (std::size_t j = 0; j < out.cols(); ++j) {
      EXPECT_TRUE(std::isnan(out.at(0, j))) << "col " << j;
      EXPECT_TRUE(std::isinf(out.at(1, j))) << "col " << j;
    }
  }
}

TEST_F(SimdParity, PackedGemmAgreesWithPlainOnBothArms) {
  Rng rng(5);
  const Matrix a = random_matrix(9, 31, rng);
  const Matrix b = random_matrix(31, 17, rng);
  for (simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kVector}) {
    SCOPED_TRACE(simd::isa_name(isa));
    ASSERT_TRUE(simd::force_isa(isa));
    Matrix ref(9, 17);
    gemm_ab(a, b, ref);
    PackedB bp;
    pack_b_panels(b, bp);
    ASSERT_EQ(bp.k(), 31u);
    ASSERT_EQ(bp.n(), 17u);
    Matrix got(9, 17);
    gemm_ab_packed(a, bp, got);
    expect_matrices_near(ref, got, 1e-4f);
  }
}

TEST_F(SimdParity, PackedPanelsAlignedAndZeroPadded) {
  Rng rng(6);
  const Matrix b = random_matrix(3, 5, rng);
  PackedB bp;
  pack_b_panels(b, bp);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(bp.data()) % simd::kAlignment,
            0u);
  // One 16-column panel, k rows: live columns match B, the tail is
  // zero so the microkernel's full-width FMAs contribute nothing.
  ASSERT_EQ(bp.k(), 3u);
  ASSERT_EQ(bp.n(), 5u);
  for (std::size_t p = 0; p < 3; ++p) {
    for (std::size_t c = 0; c < kernels::kPanelCols; ++c) {
      const float want = c < 5 ? b.at(p, c) : 0.0f;
      EXPECT_EQ(bp.data()[p * kernels::kPanelCols + c], want)
          << "p=" << p << " c=" << c;
    }
  }
}

TEST_F(SimdParity, MatrixStorageIsCacheLineAligned) {
  const Matrix m(7, 9, 1.0f);
  EXPECT_EQ(
      reinterpret_cast<std::uintptr_t>(m.flat().data()) % simd::kAlignment,
      0u);
  const AlignedFloatVec v(5, 1.0f);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % simd::kAlignment,
            0u);
}

TEST_F(SimdParity, ReductionsMatchScalar) {
  Rng rng(21);
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::vector<float> a = random_vec(n, rng);
    const std::vector<float> b = random_vec(n, rng);

    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    const float dot_ref = dot(a, b);
    const float norm_ref = l2_norm(a);
    const float dist_ref = l2_distance(a, b);
    const float sq_ref = squared_l2_distance(a, b);
    const float cos_ref = cosine_similarity(a, b);

    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    // Both arms accumulate in double, so only summation order differs.
    EXPECT_NEAR(dot(a, b), dot_ref, 1e-5f * (std::abs(dot_ref) + 1.0f));
    EXPECT_NEAR(l2_norm(a), norm_ref, 1e-5f * (norm_ref + 1.0f));
    EXPECT_NEAR(l2_distance(a, b), dist_ref, 1e-5f * (dist_ref + 1.0f));
    EXPECT_NEAR(squared_l2_distance(a, b), sq_ref, 1e-5f * (sq_ref + 1.0f));
    EXPECT_NEAR(cosine_similarity(a, b), cos_ref, 1e-5f);
  }
}

TEST_F(SimdParity, ElementwisePrimitivesMatchScalar) {
  Rng rng(22);
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    const std::vector<float> x = random_vec(n, rng);
    const std::vector<float> y0 = random_vec(n, rng);

    std::vector<float> ref_axpy = y0, ref_sadd = y0, ref_scale = x;
    std::vector<float> ref_sinto(n), ref_abs(n);
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    axpy(0.75f, x, ref_axpy);
    scale_add(ref_sadd, 0.9f, x, 1.0f);
    scale(ref_scale, -1.25f);
    scale_into(ref_sinto, 0.5f, x);
    abs_into(ref_abs, x);

    std::vector<float> got_axpy = y0, got_sadd = y0, got_scale = x;
    std::vector<float> got_sinto(n), got_abs(n);
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    axpy(0.75f, x, got_axpy);
    scale_add(got_sadd, 0.9f, x, 1.0f);
    scale(got_scale, -1.25f);
    scale_into(got_sinto, 0.5f, x);
    abs_into(got_abs, x);

    // FMA contraction may shave one rounding off axpy/scale_add.
    expect_spans_near(ref_axpy, got_axpy, 1e-6f);
    expect_spans_near(ref_sadd, got_sadd, 1e-6f);
    // Pure products round identically: exact.
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got_scale[i], ref_scale[i]) << "scale index " << i;
      ASSERT_EQ(got_sinto[i], ref_sinto[i]) << "scale_into index " << i;
      ASSERT_EQ(got_abs[i], ref_abs[i]) << "abs_into index " << i;
    }
  }
}

TEST_F(SimdParity, ReluMatchesScalarIncludingNanAndSignedZero) {
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = (static_cast<float>(i) - static_cast<float>(n) / 2.0f) * 0.5f;
    }
    if (n >= 4) {
      x[0] = kNan;       // `if (x < 0) x = 0` leaves NaN alone
      x[1] = -0.0f;      // -0 < 0 is false: -0 passes through
      x[2] = -kInf;      // clamped to 0
      x[3] = kInf;
    }
    std::vector<float> grad0(n, 2.0f);

    std::vector<float> ref_x = x, ref_g = grad0;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    relu_forward(ref_x);
    relu_backward(x, ref_g);

    std::vector<float> got_x = x, got_g = grad0;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    relu_forward(got_x);
    relu_backward(x, got_g);

    for (std::size_t i = 0; i < n; ++i) {
      if (std::isnan(ref_x[i])) {
        ASSERT_TRUE(std::isnan(got_x[i])) << "index " << i;
      } else {
        ASSERT_EQ(got_x[i], ref_x[i]) << "index " << i;
        ASSERT_EQ(std::signbit(got_x[i]), std::signbit(ref_x[i]))
            << "index " << i;
      }
      ASSERT_EQ(got_g[i], ref_g[i]) << "grad index " << i;
    }
    if (n >= 4) {
      // NaN activation keeps its gradient on both arms (a <= 0 is false).
      EXPECT_EQ(ref_g[0], 2.0f);
      EXPECT_EQ(got_g[0], 2.0f);
    }
  }
}

TEST_F(SimdParity, AddU64MatchesScalarWithWraparound) {
  Rng rng(23);
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<std::uint64_t> acc0(n), x(n);
    for (std::size_t i = 0; i < n; ++i) {
      acc0[i] = rng.next_u64() | (1ull << 63);  // force some wraparound
      x[i] = rng.next_u64();
    }
    std::vector<std::uint64_t> ref = acc0, got = acc0;
    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    add_u64(ref, x);
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    add_u64(got, x);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], ref[i]) << "index " << i;
    }
  }
}

// add_prg_mask must reproduce std::mt19937_64 word for word, on every
// arm: lengths straddle the 312-word twist block and include the vision
// (2762) and FEMNIST (10718) model sizes. The random base makes about
// half of the adds and subtracts wrap around 2^64.
const std::size_t kMaskLens[] = {0, 1, 311, 312, 313, 624, 2762, 10718};

void expect_prg_mask_matches_mt19937_64() {
  Rng base_rng(29);
  for (std::uint64_t seed : {0ull, 1ull, 99ull, 0x9e3779b97f4a7c15ull, ~0ull}) {
    for (std::size_t n : kMaskLens) {
      for (bool subtract : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " n=" << n
                                          << " subtract=" << subtract);
        std::vector<std::uint64_t> got(n);
        for (auto& v : got) v = base_rng.next_u64();
        std::vector<std::uint64_t> want = got;
        std::mt19937_64 engine(Rng::split_mix(seed));
        for (auto& v : want) {
          const std::uint64_t w = engine();
          v = subtract ? v - w : v + w;
        }
        add_prg_mask(got, seed, subtract);
        ASSERT_EQ(got, want);
      }
    }
  }
}

// Runs on whichever arm is dispatched, so the forced-scalar CI leg checks
// the scalar arm against the standard engine too.
TEST(SimdParityActiveArm, PrgMaskMatchesMt19937_64) {
  expect_prg_mask_matches_mt19937_64();
}

TEST_F(SimdParity, PrgMaskMatchesMt19937_64OnBothArms) {
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  expect_prg_mask_matches_mt19937_64();
  ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
  expect_prg_mask_matches_mt19937_64();
}

TEST_F(SimdParity, DoubleSumsMatchScalar) {
  Rng rng(24);
  for (std::size_t n : kLens) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<double> xs(n);
    for (auto& v : xs) v = rng.normal(3.0, 2.0);

    ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
    const double sum_ref = sum(xs);
    const double ssd_ref = sum_sq_diff(xs, 3.0);
    ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
    EXPECT_NEAR(sum(xs), sum_ref, 1e-9 * (std::abs(sum_ref) + 1.0));
    EXPECT_NEAR(sum_sq_diff(xs, 3.0), ssd_ref, 1e-9 * (ssd_ref + 1.0));
  }
}

TEST_F(SimdParity, MaxValueMatchesScalar) {
  const kernels::KernelTable* vec = kernels::vector_table();
  ASSERT_NE(vec, nullptr);
  Rng rng(25);
  for (std::size_t n : kLens) {
    if (n == 0) continue;  // max_value requires n > 0
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> x = random_vec(n, rng);
    EXPECT_EQ(vec->max_value(x.data(), n),
              kernels::scalar_table().max_value(x.data(), n));
    // All-negative input: catches a zero-initialized accumulator.
    for (auto& v : x) v = -std::abs(v) - 1.0f;
    EXPECT_EQ(vec->max_value(x.data(), n),
              kernels::scalar_table().max_value(x.data(), n));
  }
}

TEST_F(SimdParity, SoftmaxXentRowsMatchesScalar) {
  Rng rng(26);
  const Matrix logits = random_matrix(5, 13, rng);
  const std::vector<int> labels = {0, 12, 7, 3, 9};

  Matrix ref = logits;
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  const double loss_ref = softmax_xent_rows(ref, labels);

  Matrix got = logits;
  ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
  const double loss_got = softmax_xent_rows(got, labels);

  EXPECT_NEAR(loss_got, loss_ref, 1e-9);
  expect_matrices_near(ref, got, 1e-6f);
}

// ---- batched-eval kernels (DESIGN.md §14) ----
//
// The fused eval kernels are compared table-entry against table-entry:
// the scalar arm is ground truth; the fp32 vector tiles may differ only
// by FMA contraction, while the panel argmax must match bit-for-bit.

AlignedFloatVec random_panel(std::size_t k, Rng& rng) {
  AlignedFloatVec p(k * kernels::kPanelCols);
  for (auto& x : p) x = static_cast<float>(rng.normal());
  return p;
}

TEST_F(SimdParity, EvalLayerF32MatchesScalarWithinFma) {
  const kernels::KernelTable* vec = kernels::vector_table();
  ASSERT_NE(vec, nullptr);
  Rng rng(31);
  for (std::size_t k : kDims) {
    for (std::size_t n_out : kDims) {
      for (bool relu : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "k=" << k << " n_out=" << n_out << " relu=" << relu);
        const std::vector<float> w = random_vec(k * n_out, rng);
        const std::vector<float> bias = random_vec(n_out, rng);
        const AlignedFloatVec in = random_panel(k, rng);
        AlignedFloatVec ref(n_out * kernels::kPanelCols);
        AlignedFloatVec got(n_out * kernels::kPanelCols);
        kernels::EvalLayerArgs args{w.data(), 1,  n_out, bias.data(),
                                    in.data(), ref.data(), k, n_out, relu};
        kernels::scalar_table().eval_layer_f32(args);
        args.out = got.data();
        vec->eval_layer_f32(args);
        expect_spans_near(ref, got, 1e-4f);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST_F(SimdParity, ArgmaxMarginPanelMatchesScalarExactly) {
  const kernels::KernelTable* vec = kernels::vector_table();
  ASSERT_NE(vec, nullptr);
  Rng rng(36);
  for (std::size_t n_rows : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                             std::size_t{10}, std::size_t{13}}) {
    for (std::size_t cols : {std::size_t{1}, std::size_t{7}, std::size_t{16}}) {
      SCOPED_TRACE(::testing::Message()
                   << "n_rows=" << n_rows << " cols=" << cols);
      AlignedFloatVec in = random_panel(n_rows, rng);
      if (n_rows >= 3) {
        // Exact ties: first-max tie-breaking must agree across arms.
        in[0 * kernels::kPanelCols + 0] = 2.5f;
        in[2 * kernels::kPanelCols + 0] = 2.5f;
        in[1 * kernels::kPanelCols + 3] = in[0 * kernels::kPanelCols + 3];
      }
      std::vector<std::size_t> ref_p(cols, 99), got_p(cols, 99);
      std::vector<float> ref_m(cols), got_m(cols);
      kernels::ArgmaxMarginArgs args{in.data(), n_rows, cols, ref_p.data(),
                                     ref_m.data()};
      kernels::scalar_table().argmax_margin_panel(args);
      args.preds = got_p.data();
      args.margins = got_m.data();
      vec->argmax_margin_panel(args);
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(got_p[c], ref_p[c]) << "pred col " << c;
        ASSERT_EQ(got_m[c], ref_m[c]) << "margin col " << c;
        if (n_rows == 1) {
          ASSERT_TRUE(std::isinf(ref_m[c])) << "col " << c;
        }
      }
      // margins are optional: a null pointer only skips the writes.
      args.margins = nullptr;
      args.preds = got_p.data();
      vec->argmax_margin_panel(args);
      for (std::size_t c = 0; c < cols; ++c) {
        ASSERT_EQ(got_p[c], ref_p[c]) << "pred(no margin) col " << c;
      }
    }
  }
}

TEST_F(SimdParity, ForcedIsaIsObservable) {
  ASSERT_TRUE(simd::force_isa(simd::Isa::kVector));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kVector);
  EXPECT_STREQ(simd::isa_name(simd::active_isa()), "avx2");
  ASSERT_TRUE(simd::force_isa(simd::Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  EXPECT_STREQ(simd::isa_name(simd::active_isa()), "scalar");
}

}  // namespace
}  // namespace baffle
