#pragma once
// Batched multi-model evaluation engine: the ONE inference path
// (DESIGN.md §8, §14, §17). Mlp is the training model; every prediction
// — validator rounds, per-round accuracy tracking, evaluate_confusion,
// backdoor_accuracy, evaluate_accuracy and the adaptive attacker's
// behaviour cloning — runs through this engine.
//
// The validator evaluates ℓ+1 models per round against ONE fixed
// dataset, so the engine inverts the usual loop: the features are
// packed ONCE as Xᵀ panels (pack_bt_panels: 16 sample-columns per
// panel) at bind() time, and every model is evaluated by streaming its
// layers over the shared panels with fused transposed-layer kernels —
// out = Wᵀ·in with the bias add and ReLU applied while the tile is
// still in registers, the weights read in place from the flat parameter
// vector (no set_parameters, no per-model packing), and each panel's
// activations chained entirely in cache.
//
// Parallel execution (DESIGN.md §17): predict_many decomposes into
// independent (model-chunk × panel-block) tiles on the global thread
// pool. Every tile reads the shared immutable Xᵀ pack plus the models'
// flat parameters and writes a DISJOINT slice of predictions/margins
// with the exact per-element arithmetic of the serial loop — no
// reductions are reordered — so the output is byte-identical for any
// pool size. All mutable per-call state lives in per-(thread,
// nesting-depth) leased scratch; the engine itself is immutable after
// bind().
//
// Parity contract: predictions are BIT-IDENTICAL to the training
// forward (Mlp::forward_train) followed by a first-max argmax, on the
// same kernel arm. The fused kernels keep Dense::forward_eval's
// accumulation order (fold-left over the inner dimension from a zero
// accumulator, one post-sum bias add, the same ReLU / std::tanh and
// first-max argmax), so error records, votes, φ, τ and accuracies are
// unchanged byte-for-byte.

#include <span>
#include <vector>

#include "nn/mlp.hpp"
#include "tensor/aligned.hpp"
#include "tensor/ops.hpp"

namespace baffle {

/// One model of a batched evaluation: flat parameters (Mlp layout:
/// per layer, weights row-major then bias) plus the destination for its
/// per-sample predictions (size = bound sample count). `margins`, when
/// non-empty (size = bound sample count), receives the per-sample top-2
/// logit margin — the parity tests use it to compare the parallel
/// tiling against the serial loop beyond the argmax.
struct MultiEvalModel {
  std::span<const float> params;
  std::span<std::size_t> preds;
  std::span<float> margins = {};
};

class MultiModelEval {
 private:
  struct LayerView {
    const float* w = nullptr;     // (d_in, d_out) row-major
    const float* bias = nullptr;  // d_out
    std::size_t d_in = 0;
    std::size_t d_out = 0;
  };

 public:
  explicit MultiModelEval(MlpConfig config);

  // Movable so enclosing validators can be returned by value during
  // single-threaded setup.
  MultiModelEval(MultiModelEval&&) noexcept = default;
  MultiModelEval& operator=(MultiModelEval&&) noexcept = default;
  MultiModelEval(const MultiModelEval&) = delete;
  MultiModelEval& operator=(const MultiModelEval&) = delete;

  /// Packs the evaluation features Xᵀ once. `x` is (samples, dim) with
  /// dim = layer_dims.front(); the reference is not retained. Rebinding
  /// replaces the pack.
  /// Setup-time only: bind() must not run concurrently with predicts.
  void bind(const Matrix& x);
  bool bound() const { return samples_ > 0; }
  std::size_t bound_samples() const { return samples_; }

  /// Evaluates a batch of models over (model-chunk × panel-block)
  /// tiles: each tile streams a block of packed X panels through a
  /// chunk of models, so the shared operand's memory traffic is paid
  /// once per block instead of once per model, and the tiles fan out
  /// across ThreadPool::global(). Results are byte-identical at any
  /// pool size. Waits on the pool, so it must not run under a lock
  /// that a pool task may take.
  void predict_many(std::span<const MultiEvalModel> models);

  /// Models per tile: the model-side unit of the tile decomposition.
  static constexpr std::size_t kModelChunk = 16;
  /// Packed X panels per tile (16 panels × 16 columns = 256 samples):
  /// one model's weights are fetched once per tile and stay L1-hot
  /// across the tile's panels, while the X block is re-read per model
  /// as a cheap sequential L2 stream.
  static constexpr std::size_t kPanelBlock = 16;

  // Internal scratch payloads. Public ONLY so the .cpp's thread-local
  // lease storage (per-(thread, nesting-depth) slots,
  // util/scratch_lease.hpp) can default-construct them; they are not
  // part of the API.
  //
  // PanelScratch is leased per tile by whichever worker runs it: the
  // activation ping-pong panels.
  struct PanelScratch {
    AlignedFloatVec panel_a;
    AlignedFloatVec panel_b;
  };
  // CallScratch is leased once per predict_many by the calling thread
  // and shared read-only by its tiles: the per-model layer views.
  struct CallScratch {
    std::vector<LayerView> views;  // models × num_layers
  };

 private:
  /// Fills `out[0 .. num_layers_)` with the layer views of one flat
  /// parameter vector (Mlp layout: per layer, weights row-major then
  /// bias).
  void fill_layer_views(std::span<const float> params, LayerView* out) const;

  /// Runs one model over one panel, leaving the logits panel in the
  /// leased scratch buffer it returns.
  const float* eval_panel_fp32(std::span<const LayerView> layers,
                               const float* xpanel, PanelScratch& ps) const;

  /// One (model-chunk × panel-block) tile: models [m0, mend) over
  /// packed panels [jb, jend), writing the disjoint prediction/margin
  /// slices of exactly those (model, sample) pairs.
  void run_tile(std::span<const MultiEvalModel> models, std::size_t m0,
                std::size_t mend, std::size_t jb, std::size_t jend,
                const CallScratch& cs, PanelScratch& ps) const;

  MlpConfig config_;
  std::size_t num_layers_ = 0;  // dense layers (= layer_dims - 1)
  std::size_t num_params_ = 0;
  std::size_t max_width_ = 0;   // widest layer (incl. input)
  std::size_t samples_ = 0;
  std::size_t panels_ = 0;

  PackedB xpack_;  // fp32 Xᵀ panels — present once bound
};

/// Scratch for one-shot evaluations of an Mlp: its flat parameters and
/// the predictions. Reusing one workspace keeps both buffers warm; the
/// features are bound afresh on every call.
struct MlpEvalWorkspace {
  std::vector<float> params;
  std::vector<std::size_t> predictions;
};

/// Predicted class per row of `x` under `model`: binds `x` to a
/// throwaway engine and evaluates the model's parameters once. Returns
/// ws.predictions, resized to x.rows(). Throws std::invalid_argument
/// when x's width is not the model's input dimension.
std::span<const std::size_t> predict_once(const Mlp& model, const Matrix& x,
                                          MlpEvalWorkspace& ws);

}  // namespace baffle
