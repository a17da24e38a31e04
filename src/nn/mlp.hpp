#pragma once
// Multi-layer perceptron classifier: the training model. Inference
// runs through MultiModelEval (nn/multi_eval.hpp), bit-identical to
// forward_train plus a first-max argmax.
//
// FL treats models as flat parameter vectors (for averaging, scaling and
// secure aggregation), so the Mlp exposes get/set of a contiguous
// std::vector<float> of all weights and biases, in a fixed layer order.

#include <memory>
#include <span>
#include <vector>

#include "nn/dense.hpp"

namespace baffle {

/// Architecture spec: layer widths [in, h1, ..., out] plus the hidden
/// activation (output layer is always linear; softmax lives in the loss).
struct MlpConfig {
  std::vector<std::size_t> layer_dims;           // >= 2 entries
  Activation hidden_activation = Activation::kRelu;
};

/// Scratch buffers for the training path. One SGD step gathers a batch,
/// runs forward, loss, backward and the optimizer step entirely inside
/// these buffers, so a workspace reused across steps (and across
/// clients) makes the steady-state training loop allocation-free after
/// warm-up — the per-round client-side cost BaFFLe argues must stay
/// cheap.
struct TrainWorkspace {
  Matrix batch;                    // gathered minibatch (rows = samples)
  std::vector<int> batch_labels;
  std::vector<Matrix> acts;        // per-layer outputs; back() = logits
  Matrix dlogits;                  // loss gradient w.r.t. logits
  Matrix dx;                       // backward ping-pong buffer
  std::vector<float> grad;         // flat gradient (optimizer scratch)
  std::vector<float> delta;        // flat update (optimizer scratch)
  std::vector<float> params;       // flat params (weight-decay scratch)
  std::vector<std::size_t> order;  // epoch shuffle order
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  /// Re-randomize all parameters.
  void init(Rng& rng);

  /// Training forward pass through workspace buffers: ws.acts[i] holds
  /// layer i's activated output, so nothing is cached in the layers and
  /// nothing is allocated once the workspace is warm. Returns the logits
  /// (= ws.acts.back()).
  const Matrix& forward_train(const Matrix& x, TrainWorkspace& ws) const;

  /// Backward pass from ws.dlogits using the activations left in `ws` by
  /// forward_train on the same `x`. OVERWRITES the layers' gradient
  /// buffers (exactly one backward per step). Throws std::logic_error
  /// when no forward_train has filled `ws`.
  void backward_train(const Matrix& x, TrainWorkspace& ws);

  std::size_t num_params() const { return num_params_; }
  std::size_t input_dim() const { return config_.layer_dims.front(); }
  std::size_t output_dim() const { return config_.layer_dims.back(); }
  const MlpConfig& config() const { return config_; }

  /// Flat parameter (or gradient) access, layer-major: for each layer,
  /// weights row-major then bias.
  std::vector<float> parameters() const;
  void set_parameters(std::span<const float> flat);

  /// Allocation-free variants: write the flat vector into a caller-owned
  /// buffer (out.size() == num_params()).
  void parameters_into(std::span<float> out) const;
  void gradients_into(std::span<float> out) const;

  /// parameters += delta (used by the server when applying aggregated
  /// updates, and by SGD).
  void add_to_parameters(std::span<const float> delta);

  std::vector<Dense>& layers() { return layers_; }
  const std::vector<Dense>& layers() const { return layers_; }

 private:
  MlpConfig config_;
  std::vector<Dense> layers_;
  std::size_t num_params_ = 0;
};

}  // namespace baffle
