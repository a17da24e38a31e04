#pragma once
// Numeric kernels on Matrix and flat float spans.
//
// GEMM comes in the three transpose configurations backprop needs:
//   forward:   Y  = X  W      -> gemm_ab
//   dW:        dW = Xᵀ dY     -> gemm_atb
//   dX:        dX = dY Wᵀ     -> gemm_abt
// Each entry point dispatches between two kernel arms (see
// tensor/simd.hpp): the scalar arm runs the cache-blocked row kernels
// on the operands in place, the SIMD arm first packs B into
// 64-byte-aligned column panels (thread_local scratch, reused across
// calls) and runs FMA register-tile microkernels over them. Either way
// the multiply is split over row blocks on the global thread pool once
// it is large enough to amortize the dispatch; small multiplies (the
// per-batch training shapes) run inline on the caller. NaN/Inf inputs
// propagate to the output — a diverged model must not be masked by a
// sparsity shortcut.
//
// The flat-vector primitives (dot/axpy/norms/...) live in
// tensor/primitives.hpp, included here so existing callers keep
// compiling unchanged.

#include <span>

#include "tensor/aligned.hpp"
#include "tensor/matrix.hpp"
#include "tensor/primitives.hpp"

namespace baffle {

/// B operand packed into contiguous 16-column panels for the SIMD GEMM
/// microkernels (layout described in tensor/kernels.hpp). Move-only: a
/// pack is per-call scratch (the GEMM entry points lease one per nesting
/// level) or owned by one engine (MultiModelEval's packed inputs).
class PackedB {
 public:
  PackedB() = default;
  PackedB(const PackedB&) = delete;
  PackedB& operator=(const PackedB&) = delete;
  PackedB(PackedB&&) = default;
  PackedB& operator=(PackedB&&) = default;

  bool empty() const { return data_.empty(); }
  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }
  const float* data() const { return data_.data(); }

 private:
  friend void pack_b_panels(const Matrix& b, PackedB& out);
  friend void pack_bt_panels(const Matrix& b, PackedB& out);

  AlignedFloatVec data_;
  std::size_t k_ = 0;
  std::size_t n_ = 0;
};

/// Packs B (k x n, natural layout) into panels.
void pack_b_panels(const Matrix& b, PackedB& out);

/// Packs Bᵀ for gemm_abt: b is (n, k) and the panels hold its columns.
void pack_bt_panels(const Matrix& b, PackedB& out);

/// out = a * bp where bp packs B (k,n). Shapes: (m,k) x (k,n) -> (m,n).
void gemm_ab_packed(const Matrix& a, const PackedB& bp, Matrix& out);

/// out = a * b. Shapes: (m,k) x (k,n) -> (m,n).
void gemm_ab(const Matrix& a, const Matrix& b, Matrix& out);

/// out = aᵀ * b. Shapes: (k,m) x (k,n) -> (m,n).
void gemm_atb(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * bᵀ. Shapes: (m,k) x (n,k) -> (m,n).
void gemm_abt(const Matrix& a, const Matrix& b, Matrix& out);

/// Adds bias (length = m.cols()) to every row of m.
void add_row_bias(Matrix& m, std::span<const float> bias);

/// Column-wise sum of m into out (length = m.cols()).
void col_sum(const Matrix& m, std::span<float> out);

/// In-place row-wise softmax (numerically stabilized).
void softmax_rows(Matrix& m);

}  // namespace baffle
