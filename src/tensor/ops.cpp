#include "tensor/ops.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/kernels.hpp"
#include "util/contracts.hpp"
#include "tensor/simd.hpp"
#include "util/metrics.hpp"
#include "util/scratch_lease.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

namespace {
// Multiply-accumulate count above which a GEMM is split into row-block
// tasks on the global thread pool (and its time/flops reported to the
// metrics registry). Below it the pool dispatch costs more than it
// saves — the per-batch training shapes (32x64x10 and friends) all stay
// inline on the caller.
constexpr std::size_t kParallelMacs = std::size_t{1} << 20;

/// Runs fn(r0, r1) over row ranges covering [0, m): in parallel row
/// blocks on the global pool when the kernel is worth it, inline
/// otherwise. Blocks write disjoint output rows, so tasks never alias.
template <typename Fn>
void for_each_row_block(std::size_t m, std::size_t macs, const Fn& fn) {
  if (macs < kParallelMacs || m < 2) {
    fn(std::size_t{0}, m);
    return;
  }
  ThreadPool& pool = ThreadPool::global();
  const std::size_t max_tasks = std::max<std::size_t>(1, 4 * pool.size());
  const std::size_t row_block =
      std::max<std::size_t>(1, (m + max_tasks - 1) / max_tasks);
  const std::size_t blocks = (m + row_block - 1) / row_block;
  pool.parallel_for(blocks, [&](std::size_t blk) {
    const std::size_t r0 = blk * row_block;
    fn(r0, std::min(m, r0 + row_block));
  });
}

/// RAII reporter for the large-kernel path: accumulates wall-clock and
/// flop counters so GFLOP/s is derivable from the metrics dump. No-op
/// (and no clock reads) for small kernels.
class GemmReport {
 public:
  GemmReport(std::size_t macs, bool enabled) : enabled_(enabled) {
    if (enabled_) {
      flops_ = 2 * macs;
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~GemmReport() {
    if (!enabled_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    MetricsRegistry& registry = MetricsRegistry::global();
    registry.add_timer("gemm.large",
                       std::chrono::duration<double>(elapsed).count());
    registry.add_counter("gemm.large_flops", flops_);
  }

 private:
  bool enabled_;
  std::size_t flops_ = 0;
  std::chrono::steady_clock::time_point start_;
};

/// Aliasing precondition of every GEMM kernel: the output may overlap
/// neither input (rows are zero-filled and accumulated in place).
[[maybe_unused]] bool disjoint(const float* a, std::size_t a_len,
                               const float* b, std::size_t b_len) {
  const auto a0 = reinterpret_cast<std::uintptr_t>(a);
  const auto b0 = reinterpret_cast<std::uintptr_t>(b);
  return a0 + a_len * sizeof(float) <= b0 ||
         b0 + b_len * sizeof(float) <= a0;
}

/// Packing scratch, one buffer per (thread, GEMM nesting depth): a
/// large GEMM fans its row blocks out through parallel_for, whose waiter
/// help-drains and can run a nested GEMM on this thread while remote
/// workers still read the outer call's panels.
using PackScratchLease = ScratchLease<PackedB>;

/// Packed-path executor shared by the three transpose configurations.
void run_packed(const kernels::KernelTable& kt, const float* a,
                std::size_t a_row_stride, std::size_t a_p_stride,
                const PackedB& bp, Matrix& out, std::size_t m,
                std::size_t macs) {
  BAFFLE_DCHECK(
      reinterpret_cast<std::uintptr_t>(bp.data()) % simd::kAlignment == 0,
      "packed panels must be cache-line aligned");
  kernels::PackedGemmArgs args;
  args.a = a;
  args.a_row_stride = a_row_stride;
  args.a_p_stride = a_p_stride;
  args.bp = bp.data();
  args.c = out.flat().data();
  args.ldc = out.cols();
  args.k = bp.k();
  args.n = bp.n();
  for_each_row_block(m, macs, [&](std::size_t r0, std::size_t r1) {
    kt.gemm_packed_rows(args, r0, r1);
  });
}

void run_rows(void (*kernel)(const kernels::GemmRowArgs&, std::size_t,
                             std::size_t),
              const kernels::GemmRowArgs& args, std::size_t m,
              std::size_t macs) {
  for_each_row_block(m, macs, [&](std::size_t r0, std::size_t r1) {
    kernel(args, r0, r1);
  });
}
}  // namespace

void pack_b_panels(const Matrix& b, PackedB& out) {
  constexpr std::size_t pc = kernels::kPanelCols;
  const std::size_t k = b.rows(), n = b.cols();
  const std::size_t panels = (n + pc - 1) / pc;
  out.data_.resize(panels * k * pc);
  for (std::size_t jp = 0; jp < panels; ++jp) {
    float* panel = out.data_.data() + jp * k * pc;
    const std::size_t j0 = jp * pc;
    const std::size_t cols = std::min(pc, n - j0);
    for (std::size_t p = 0; p < k; ++p) {
      const float* src = b.row(p).data() + j0;
      float* dst = panel + p * pc;
      std::copy_n(src, cols, dst);
      std::fill_n(dst + cols, pc - cols, 0.0f);  // zero-padded tail
    }
  }
  out.k_ = k;
  out.n_ = n;
}

void pack_bt_panels(const Matrix& b, PackedB& out) {
  // Effective operand is bᵀ: panels hold columns of bᵀ, i.e. rows of b,
  // gathered with a transposing copy (sequential reads of each b row,
  // 16-strided writes into the panel).
  constexpr std::size_t pc = kernels::kPanelCols;
  const std::size_t k = b.cols(), n = b.rows();
  const std::size_t panels = (n + pc - 1) / pc;
  out.data_.resize(panels * k * pc);
  const auto pack_panel = [&](std::size_t jp) {
    float* panel = out.data_.data() + jp * k * pc;
    const std::size_t j0 = jp * pc;
    const std::size_t cols = std::min(pc, n - j0);
    for (std::size_t c = 0; c < cols; ++c) {
      const float* src = b.row(j0 + c).data();
      for (std::size_t p = 0; p < k; ++p) panel[p * pc + c] = src[p];
    }
    for (std::size_t c = cols; c < pc; ++c) {
      for (std::size_t p = 0; p < k; ++p) panel[p * pc + c] = 0.0f;
    }
  };
  // Validation-sized packs (MultiModelEval::bind over a whole holdout)
  // fan the panels out across the pool — each panel is a disjoint write
  // with identical per-element copies, so the pack is byte-identical to
  // the serial loop for any thread count. Training-sized packs (a batch
  // inside gemm_abt) stay inline: the gather is cheaper than a task.
  constexpr std::size_t kParallelPackElems = std::size_t{1} << 18;
  if (panels * k * pc >= kParallelPackElems) {
    ThreadPool::global().parallel_for(panels, pack_panel);
  } else {
    for (std::size_t jp = 0; jp < panels; ++jp) pack_panel(jp);
  }
  out.k_ = k;
  out.n_ = n;
}

void gemm_ab_packed(const Matrix& a, const PackedB& bp, Matrix& out) {
  BAFFLE_CHECK(a.cols() == bp.k(), "gemm_ab: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.rows() && out.cols() == bp.n(),
        "gemm_ab: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = bp.n();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), m * k),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const GemmReport report(macs, macs >= kParallelMacs);
  run_packed(kernels::active_table(), a.flat().data(), /*a_row_stride=*/k,
             /*a_p_stride=*/1, bp, out, m, macs);
}

void gemm_ab(const Matrix& a, const Matrix& b, Matrix& out) {
  BAFFLE_CHECK(a.cols() == b.rows(), "gemm_ab: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.rows() && out.cols() == b.cols(),
        "gemm_ab: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), m * k),
                "GEMM output must not alias an input");
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), b.flat().data(), b.size()),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const GemmReport report(macs, macs >= kParallelMacs);
  const kernels::KernelTable& kt = kernels::active_table();
  if (kt.prefer_packed) {
    // Packing happens on the caller thread before any row-block fan-out;
    // the per-depth scratch is reused (and regrown monotonically).
    const PackScratchLease scratch;
    pack_b_panels(b, *scratch);
    run_packed(kt, a.flat().data(), /*a_row_stride=*/k, /*a_p_stride=*/1, *scratch,
               out, m, macs);
    return;
  }
  kernels::GemmRowArgs args;
  args.a = a.flat().data();
  args.lda = k;
  args.b = b.flat().data();
  args.ldb = n;
  args.c = out.flat().data();
  args.ldc = n;
  args.k = k;
  args.n = n;
  run_rows(kt.gemm_ab_rows, args, m, macs);
}

void gemm_atb(const Matrix& a, const Matrix& b, Matrix& out) {
  BAFFLE_CHECK(a.rows() == b.rows(), "gemm_atb: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.cols() && out.cols() == b.cols(),
        "gemm_atb: output shape mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), a.size()),
                "GEMM output must not alias an input");
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), b.flat().data(), b.size()),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const GemmReport report(macs, macs >= kParallelMacs);
  const kernels::KernelTable& kt = kernels::active_table();
  if (kt.prefer_packed) {
    const PackScratchLease scratch;
    pack_b_panels(b, *scratch);
    // A enters transposed: output row i reads column i of a.
    run_packed(kt, a.flat().data(), /*a_row_stride=*/1, /*a_p_stride=*/m,
               *scratch, out, m, macs);
    return;
  }
  kernels::GemmRowArgs args;
  args.a = a.flat().data();
  args.lda = m;
  args.b = b.flat().data();
  args.ldb = n;
  args.c = out.flat().data();
  args.ldc = n;
  args.k = k;
  args.n = n;
  run_rows(kt.gemm_atb_rows, args, m, macs);
}

void gemm_abt(const Matrix& a, const Matrix& b, Matrix& out) {
  BAFFLE_CHECK(a.cols() == b.cols(), "gemm_abt: inner dimension mismatch");
  BAFFLE_CHECK(out.rows() == a.rows() && out.cols() == b.rows(),
        "gemm_abt: output shape mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (m == 0 || n == 0) return;
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), a.flat().data(), a.size()),
                "GEMM output must not alias an input");
  BAFFLE_DCHECK(disjoint(out.flat().data(), out.size(), b.flat().data(), b.size()),
                "GEMM output must not alias an input");
  const std::size_t macs = m * k * n;
  const kernels::KernelTable& kt = kernels::active_table();
  if (kt.prefer_packed) {
    const GemmReport report(macs, macs >= kParallelMacs);
    const PackScratchLease scratch;
    pack_bt_panels(b, *scratch);
    run_packed(kt, a.flat().data(), /*a_row_stride=*/k, /*a_p_stride=*/1,
               *scratch, out, m, macs);
    return;
  }
  if (macs >= kParallelMacs) {
    // Large multiplies: pack Bᵀ once — O(n·k) against O(m·n·k) compute —
    // so the inner loop walks contiguous memory and runs through the
    // blocked ab kernel instead of n serial dot-product reductions.
    Matrix bt(k, n);
    for (std::size_t j = 0; j < n; ++j) {
      const float* b_row = b.row(j).data();
      for (std::size_t p = 0; p < k; ++p) bt.at(p, j) = b_row[p];
    }
    gemm_ab(a, bt, out);
    return;
  }
  const GemmReport report(macs, macs >= kParallelMacs);
  kernels::GemmRowArgs args;
  args.a = a.flat().data();
  args.lda = k;
  args.b = b.flat().data();
  args.ldb = k;
  args.c = out.flat().data();
  args.ldc = n;
  args.k = k;
  args.n = n;
  run_rows(kt.gemm_abt_rows, args, m, macs);
}

void add_row_bias(Matrix& m, std::span<const float> bias) {
  BAFFLE_CHECK(bias.size() == m.cols(), "add_row_bias: bias length mismatch");
  const kernels::KernelTable& kt = kernels::active_table();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    kt.axpy(1.0f, bias.data(), m.row(r).data(), m.cols());
  }
}

void col_sum(const Matrix& m, std::span<float> out) {
  BAFFLE_CHECK(out.size() == m.cols(), "col_sum: output length mismatch");
  std::fill(out.begin(), out.end(), 0.0f);
  const kernels::KernelTable& kt = kernels::active_table();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    kt.axpy(1.0f, m.row(r).data(), out.data(), m.cols());
  }
}

void softmax_rows(Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    const float mx = *std::max_element(row.begin(), row.end());
    float total = 0.0f;
    for (float& x : row) {
      x = std::exp(x - mx);
      total += x;
    }
    for (float& x : row) x /= total;
  }
}

}  // namespace baffle
