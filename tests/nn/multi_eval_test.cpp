#include "nn/multi_eval.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "data/synth.hpp"
#include "nn/mlp.hpp"

namespace baffle {
namespace {

// Random-walk chain of ℓ models from one seeded init, mimicking the
// validator's history window.
std::vector<std::vector<float>> model_chain(const MlpConfig& arch, Rng& rng,
                                            std::size_t count) {
  Mlp model(arch);
  model.init(rng);
  std::vector<float> params = model.parameters();
  std::vector<std::vector<float>> chain;
  for (std::size_t v = 0; v < count; ++v) {
    for (float& p : params) p += static_cast<float>(rng.normal(0.0, 0.05));
    chain.push_back(params);
  }
  return chain;
}

Matrix features_matrix(std::size_t test_per_class, std::size_t dim,
                       std::uint64_t seed) {
  Rng rng(seed);
  SynthTaskConfig cfg = synth_vision10_config();
  cfg.train_per_class = 1;
  cfg.test_per_class = test_per_class;
  cfg.dim = dim;
  SynthTask task = make_synth_task(cfg, rng);
  return task.test.features();
}

std::vector<std::size_t> sequential_preds(const MlpConfig& arch,
                                          const std::vector<float>& params,
                                          const Matrix& x) {
  Mlp model(arch);
  model.set_parameters(params);
  MlpEvalWorkspace ws;
  std::vector<std::size_t> preds(x.rows());
  model.predict_into(x, preds, ws);
  return preds;
}

TEST(MultiModelEval, Fp32BitParityWithSequentialPath) {
  const MlpConfig arch{{32, 24, 10}, Activation::kRelu};
  Rng rng(7);
  const auto chain = model_chain(arch, rng, 5);
  // 330 samples: 20 full panels plus a 10-column tail panel.
  const Matrix x = features_matrix(33, 32, 11);
  MultiModelEval engine(arch);
  engine.bind(x);
  ASSERT_EQ(engine.bound_samples(), x.rows());

  MlpEvalWorkspace ws;
  std::vector<std::size_t> batched(x.rows());
  for (const auto& params : chain) {
    engine.predict_into(params, batched, ws);
    EXPECT_EQ(batched, sequential_preds(arch, params, x));
  }
}

TEST(MultiModelEval, Fp32ParityMultiLayerTanh) {
  const MlpConfig arch{{16, 12, 14, 6}, Activation::kTanh};
  Rng rng(9);
  const auto chain = model_chain(arch, rng, 3);
  const Matrix x = features_matrix(20, 16, 13);
  MultiModelEval engine(arch);
  engine.bind(x);

  MlpEvalWorkspace ws;
  std::vector<std::size_t> batched(x.rows());
  for (const auto& params : chain) {
    engine.predict_into(params, batched, ws);
    EXPECT_EQ(batched, sequential_preds(arch, params, x));
  }
}

TEST(MultiModelEval, SingleSampleAndSingleRowPanels) {
  const MlpConfig arch{{8, 6, 4}, Activation::kRelu};
  Rng rng(21);
  const auto chain = model_chain(arch, rng, 2);
  Rng data_rng(22);
  Matrix x(1, 8);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));

  MultiModelEval engine(arch);
  engine.bind(x);
  MlpEvalWorkspace ws;
  std::vector<std::size_t> batched(1);
  for (const auto& params : chain) {
    engine.predict_into(params, batched, ws);
    EXPECT_EQ(batched, sequential_preds(arch, params, x));
  }
}

TEST(MultiModelEval, PredictManySpansModelChunks) {
  const MlpConfig arch{{12, 10, 5}, Activation::kRelu};
  Rng rng(31);
  // More models than kModelChunk, so the chunked panel-outer loop runs
  // at least twice.
  const std::size_t count = MultiModelEval::kModelChunk + 5;
  const auto chain = model_chain(arch, rng, count);
  Rng data_rng(32);
  Matrix x(50, 12);
  for (float& v : x.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));

  MultiModelEval engine(arch);
  engine.bind(x);
  std::vector<std::vector<std::size_t>> preds(
      count, std::vector<std::size_t>(x.rows()));
  std::vector<MultiEvalModel> models;
  for (std::size_t v = 0; v < count; ++v) {
    models.push_back({chain[v], preds[v]});
  }
  MlpEvalWorkspace ws;
  engine.predict_many(models, ws);
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ(preds[v], sequential_preds(arch, chain[v], x));
  }
}

TEST(MultiModelEval, RebindReplacesDataset) {
  const MlpConfig arch{{10, 8, 3}, Activation::kRelu};
  Rng rng(41);
  const auto chain = model_chain(arch, rng, 1);
  Rng data_rng(42);
  Matrix x1(30, 10), x2(17, 10);
  for (float& v : x1.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));
  for (float& v : x2.flat()) v = static_cast<float>(data_rng.normal(0.0, 1.0));

  MultiModelEval engine(arch);
  MlpEvalWorkspace ws;
  engine.bind(x1);
  std::vector<std::size_t> preds1(x1.rows());
  engine.predict_into(chain[0], preds1, ws);
  EXPECT_EQ(preds1, sequential_preds(arch, chain[0], x1));

  engine.bind(x2);
  EXPECT_EQ(engine.bound_samples(), 17u);
  std::vector<std::size_t> preds2(x2.rows());
  engine.predict_into(chain[0], preds2, ws);
  EXPECT_EQ(preds2, sequential_preds(arch, chain[0], x2));
}

// Thread-count invariance (DESIGN.md §17): the pool-parallel tile sweep
// must produce BYTE-identical predictions and margins to the serial
// tile loop — same tile function, disjoint output slices, no reordered
// reductions — at whatever pool size this process runs with. The ctest
// entries multi_eval_parallel_parity_t{1,4} re-run this suite with
// BAFFLE_THREADS pinned to 1 and 4, so the identity is checked across
// pool sizes, not just within one.
struct ParallelRun {
  std::vector<std::size_t> preds;  // model-major, models × samples
  std::vector<float> margins;      // model-major, models × samples
};

ParallelRun run_engine(MultiModelEval& engine,
                       const std::vector<std::vector<float>>& chain,
                       std::size_t samples, bool parallel) {
  ParallelRun run;
  run.preds.assign(chain.size() * samples, 0);
  run.margins.assign(chain.size() * samples, 0.0f);
  std::vector<MultiEvalModel> models;
  for (std::size_t v = 0; v < chain.size(); ++v) {
    models.push_back(
        {chain[v],
         std::span<std::size_t>(run.preds).subspan(v * samples, samples),
         std::span<float>(run.margins).subspan(v * samples, samples)});
  }
  MlpEvalWorkspace ws;
  ws.parallel = parallel;
  engine.predict_many(models, ws);
  return run;
}

TEST(MultiModelEvalParallelParity, Fp32BytesEqualSerialAndSequential) {
  const MlpConfig arch{{32, 24, 10}, Activation::kRelu};
  Rng rng(55);
  // Two model chunks × three panel blocks, so the parallel sweep has
  // genuinely independent tiles in both dimensions.
  const std::size_t count = MultiModelEval::kModelChunk + 5;
  const auto chain = model_chain(arch, rng, count);
  const Matrix x = features_matrix(60, 32, 56);  // 600 samples, 38 panels
  MultiModelEval engine(arch);
  engine.bind(x);

  const ParallelRun serial = run_engine(engine, chain, x.rows(), false);
  const ParallelRun parallel = run_engine(engine, chain, x.rows(), true);
  EXPECT_EQ(parallel.preds, serial.preds);
  // Margins are floats: require bit equality, not approximate equality.
  ASSERT_EQ(parallel.margins.size(), serial.margins.size());
  EXPECT_EQ(std::memcmp(parallel.margins.data(), serial.margins.data(),
                        serial.margins.size() * sizeof(float)),
            0);
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ(std::vector<std::size_t>(
                  serial.preds.begin() + static_cast<std::ptrdiff_t>(
                                             v * x.rows()),
                  serial.preds.begin() + static_cast<std::ptrdiff_t>(
                                             (v + 1) * x.rows())),
              sequential_preds(arch, chain[v], x));
  }
}

}  // namespace
}  // namespace baffle
