#include "nn/multi_eval.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/kernels.hpp"
#include "util/contracts.hpp"
#include "util/metrics.hpp"
#include "util/scratch_lease.hpp"
#include "util/thread_pool.hpp"

namespace baffle {

namespace {
constexpr std::size_t kPC = kernels::kPanelCols;

// A thread blocked in one predict_many help-drains the pool and can
// run another validator's predict_many (or one of its tiles) in the
// middle of its own, so both scratch kinds are leased per nesting level.
using PanelLease = ScratchLease<MultiModelEval::PanelScratch>;
using CallLease = ScratchLease<MultiModelEval::CallScratch>;

}  // namespace

MultiModelEval::MultiModelEval(MlpConfig config) : config_(std::move(config)) {
  BAFFLE_CHECK(config_.layer_dims.size() >= 2,
               "MultiModelEval: need at least input and output dims");
  num_layers_ = config_.layer_dims.size() - 1;
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const std::size_t d_in = config_.layer_dims[l];
    const std::size_t d_out = config_.layer_dims[l + 1];
    BAFFLE_CHECK(d_in > 0 && d_out > 0,
                 "MultiModelEval: zero-width layer");
    num_params_ += d_in * d_out + d_out;
  }
  for (std::size_t d : config_.layer_dims) max_width_ = std::max(max_width_, d);
}

void MultiModelEval::fill_layer_views(std::span<const float> params,
                                      LayerView* out) const {
  BAFFLE_CHECK(params.size() == num_params_,
               "MultiModelEval: parameter count mismatch");
  const float* p = params.data();
  for (std::size_t l = 0; l < num_layers_; ++l) {
    const std::size_t d_in = config_.layer_dims[l];
    const std::size_t d_out = config_.layer_dims[l + 1];
    out[l].w = p;
    p += d_in * d_out;
    out[l].bias = p;
    p += d_out;
    out[l].d_in = d_in;
    out[l].d_out = d_out;
  }
}

void MultiModelEval::bind(const Matrix& x) {
  BAFFLE_CHECK(x.cols() == config_.layer_dims.front(),
               "MultiModelEval::bind: input dim mismatch");
  const ScopedTimer bind_timer("multi_eval.bind");
  // pack_bt_panels parallelizes its transposing gather internally for
  // validation-sized inputs (disjoint panels, identical arithmetic).
  pack_bt_panels(x, xpack_);
  samples_ = x.rows();
  panels_ = (samples_ + kPC - 1) / kPC;
}

const float* MultiModelEval::eval_panel_fp32(std::span<const LayerView> layers,
                                             const float* xpanel,
                                             PanelScratch& ps) const {
  const kernels::KernelTable& t = kernels::active_table();
  const float* in = xpanel;
  float* cur = ps.panel_a.data();
  float* nxt = ps.panel_b.data();
  const float* last = nullptr;
  for (std::size_t l = 0; l < layers.size(); ++l) {
    const LayerView& lv = layers[l];
    const bool hidden = l + 1 < layers.size();
    const bool relu = hidden && config_.hidden_activation == Activation::kRelu;
    kernels::EvalLayerArgs a{lv.w,  1,   lv.d_out, lv.bias, in,
                             cur,   lv.d_in,       lv.d_out, relu};
    t.eval_layer_f32(a);
    if (hidden && config_.hidden_activation == Activation::kTanh) {
      // Same element-wise std::tanh as activation_forward, applied to
      // per-arm-identical inputs: stays bit-identical to the
      // training forward.
      for (std::size_t i = 0; i < lv.d_out * kPC; ++i) {
        cur[i] = std::tanh(cur[i]);
      }
    }
    last = cur;
    in = cur;
    std::swap(cur, nxt);
  }
  return last;
}

void MultiModelEval::run_tile(std::span<const MultiEvalModel> models,
                              std::size_t m0, std::size_t mend,
                              std::size_t jb, std::size_t jend,
                              const CallScratch& cs, PanelScratch& ps) const {
  const kernels::KernelTable& t = kernels::active_table();
  const std::size_t d = config_.layer_dims.front();
  const std::size_t classes = config_.layer_dims.back();
  ps.panel_a.resize(max_width_ * kPC);
  ps.panel_b.resize(max_width_ * kPC);
  for (std::size_t mi = m0; mi < mend; ++mi) {
    std::span<const LayerView> views{cs.views.data() + mi * num_layers_,
                                     num_layers_};
    float* mg = models[mi].margins.empty() ? nullptr
                                           : models[mi].margins.data();
    for (std::size_t jp = jb; jp < jend; ++jp) {
      const std::size_t j0 = jp * kPC;
      const std::size_t cols = std::min(kPC, samples_ - j0);
      const float* logits =
          eval_panel_fp32(views, xpack_.data() + jp * d * kPC, ps);
      kernels::ArgmaxMarginArgs am{logits, classes, cols,
                                   models[mi].preds.data() + j0,
                                   mg != nullptr ? mg + j0 : nullptr};
      t.argmax_margin_panel(am);
    }
  }
}

void MultiModelEval::predict_many(std::span<const MultiEvalModel> models) {
  BAFFLE_CHECK(!xpack_.empty() || samples_ == 0,
               "MultiModelEval: bind() before predict");
  for (const MultiEvalModel& m : models) {
    BAFFLE_CHECK(m.preds.size() == samples_,
                 "MultiModelEval: prediction span size mismatch");
    BAFFLE_CHECK(m.margins.empty() || m.margins.size() == samples_,
                 "MultiModelEval: margin span size mismatch");
  }
  if (samples_ == 0 || models.empty()) return;
  const ScopedTimer run_timer("multi_eval.run");

  const std::size_t nmodels = models.size();

  CallLease call;
  CallScratch& cs = *call;
  cs.views.resize(nmodels * num_layers_);
  for (std::size_t i = 0; i < nmodels; ++i) {
    fill_layer_views(models[i].params, cs.views.data() + i * num_layers_);
  }

  // The tile sweep. Every (model-chunk × panel-block) tile
  // writes the disjoint prediction/margin slice of its (model, sample)
  // rectangle with the serial loop's per-element arithmetic, so any
  // schedule — any pool size — produces the same bytes.
  const std::size_t nchunks = (nmodels + kModelChunk - 1) / kModelChunk;
  const std::size_t nblocks = (panels_ + kPanelBlock - 1) / kPanelBlock;
  const std::size_t ntiles = nchunks * nblocks;
  const auto tile_fn = [&](std::size_t tile) {
    const std::size_t m0 = (tile / nblocks) * kModelChunk;
    const std::size_t jb = (tile % nblocks) * kPanelBlock;
    PanelLease lease;
    run_tile(models, m0, std::min(nmodels, m0 + kModelChunk), jb,
             std::min(panels_, jb + kPanelBlock), cs, *lease);
  };
  ThreadPool::global().parallel_for(ntiles, tile_fn);
  MetricsRegistry::global().add_counter("multi_eval.tiles", ntiles);
}

std::span<const std::size_t> predict_once(const Mlp& model, const Matrix& x,
                                          MlpEvalWorkspace& ws) {
  MultiModelEval engine(model.config());
  engine.bind(x);
  ws.params.resize(model.num_params());
  model.parameters_into(ws.params);
  ws.predictions.resize(x.rows());
  const MultiEvalModel one{ws.params, ws.predictions};
  engine.predict_many({&one, 1});
  return ws.predictions;
}

}  // namespace baffle
