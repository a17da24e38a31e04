#include "nn/multi_eval.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "attack/backdoor.hpp"
#include "data/synth.hpp"
#include "exp/scenario.hpp"
#include "metrics/confusion.hpp"
#include "nn/mlp.hpp"
#include "nn/train.hpp"
#include "tensor/simd.hpp"
#include "util/thread_pool.hpp"

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

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(rows, cols);
  for (float& v : x.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  return x;
}

// The parity reference: the training forward (Mlp::forward_train) on the
// whole matrix, then the first maximum of each logit row.
std::vector<std::size_t> reference_preds(const MlpConfig& arch,
                                         const std::vector<float>& params,
                                         const Matrix& x) {
  Mlp model(arch);
  model.set_parameters(params);
  TrainWorkspace ws;
  const Matrix& logits = model.forward_train(x, ws);
  std::vector<std::size_t> preds(x.rows());
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto row = logits.row(r);
    std::size_t best = 0;
    for (std::size_t c = 1; c < row.size(); ++c) {
      if (row[c] > row[best]) best = c;
    }
    preds[r] = best;
  }
  return preds;
}

std::vector<std::size_t> engine_preds(MultiModelEval& engine,
                                      const std::vector<float>& params) {
  std::vector<std::size_t> preds(engine.bound_samples());
  const MultiEvalModel model{params, preds};
  engine.predict_many({&model, 1});
  return preds;
}

// Runs `body` once per dispatch arm this process may select: scalar
// always, the vector arm when it is compiled in, the CPU has it and
// BAFFLE_FORCE_SCALAR does not pin the scalar arm.
void for_each_arm(const std::function<void()>& body) {
  std::vector<simd::Isa> arms{simd::Isa::kScalar};
  if (!simd::scalar_forced_by_env() &&
      simd::isa_available(simd::Isa::kVector)) {
    arms.push_back(simd::Isa::kVector);
  }
  struct ResetIsa {
    ~ResetIsa() { simd::reset_isa(); }
  } reset;
  for (const simd::Isa arm : arms) {
    SCOPED_TRACE(simd::isa_name(arm));
    ASSERT_TRUE(simd::force_isa(arm));
    body();
  }
}

void expect_chain_parity(const MlpConfig& arch, std::size_t models,
                         const Matrix& x, std::uint64_t seed) {
  Rng rng(seed);
  const auto chain = model_chain(arch, rng, models);
  for_each_arm([&] {
    MultiModelEval engine(arch);
    engine.bind(x);
    ASSERT_EQ(engine.bound_samples(), x.rows());
    for (const auto& params : chain) {
      EXPECT_EQ(engine_preds(engine, params),
                reference_preds(arch, params, x));
    }
  });
}

TEST(MultiModelEval, Fp32BitParityWithSequentialPath) {
  // 330 samples: 20 full panels plus a 10-column tail panel.
  expect_chain_parity({{32, 24, 10}, Activation::kRelu}, 5,
                      features_matrix(33, 32, 11), 7);
}

TEST(MultiModelEval, Fp32ParityMultiLayerTanh) {
  expect_chain_parity({{16, 12, 14, 6}, Activation::kTanh}, 3,
                      features_matrix(20, 16, 13), 9);
}

TEST(MultiModelEval, Fp32ParityIdentityHidden) {
  // 37 samples: two full panels plus a 5-column tail.
  expect_chain_parity({{10, 9, 7, 4}, Activation::kIdentity}, 3,
                      random_matrix(37, 10, 17), 15);
}

TEST(MultiModelEval, SingleSampleAndSingleRowPanels) {
  expect_chain_parity({{8, 6, 4}, Activation::kRelu}, 2,
                      random_matrix(1, 8, 22), 21);
}

TEST(MultiModelEval, PredictReturnsArgmaxClass) {
  // A linear model whose class-2 bias dominates every input.
  const MlpConfig arch{{2, 3}, Activation::kRelu};
  Mlp model(arch);
  std::vector<float> params(model.num_params(), 0.0f);
  params[model.num_params() - 1] = 10.0f;  // bias of class 2
  MultiModelEval engine(arch);
  engine.bind(Matrix(4, 2, 1.0f));
  for (std::size_t p : engine_preds(engine, params)) EXPECT_EQ(p, 2u);
}

TEST(MultiModelEval, TiesPickTheFirstMaximum) {
  // Classes 1 and 3 share the largest logit on every input: the
  // first-max rule (std::max_element's) must pick class 1 on both arms.
  const MlpConfig arch{{3, 4}, Activation::kRelu};
  Mlp model(arch);
  std::vector<float> params(model.num_params(), 0.0f);
  params[model.num_params() - 3] = 2.0f;  // bias of class 1
  params[model.num_params() - 1] = 2.0f;  // bias of class 3
  const Matrix x = random_matrix(21, 3, 5);
  for_each_arm([&] {
    MultiModelEval engine(arch);
    engine.bind(x);
    for (std::size_t p : engine_preds(engine, params)) EXPECT_EQ(p, 1u);
  });
}

TEST(MultiModelEval, ValidatesShapes) {
  const MlpConfig arch{{4, 6, 3}, Activation::kRelu};
  MultiModelEval engine(arch);
  EXPECT_THROW(engine.bind(Matrix(3, 5)), std::invalid_argument);
  engine.bind(Matrix(3, 4));
  Mlp model(arch);
  const std::vector<float> params(model.num_params(), 0.0f);
  std::vector<std::size_t> short_out(2);
  const MultiEvalModel short_model{params, short_out};
  EXPECT_THROW(engine.predict_many({&short_model, 1}), std::invalid_argument);
  const std::vector<float> wrong_params(model.num_params() - 1, 0.0f);
  std::vector<std::size_t> out(3);
  const MultiEvalModel wrong_model{wrong_params, out};
  EXPECT_THROW(engine.predict_many({&wrong_model, 1}), std::invalid_argument);

  MlpEvalWorkspace ws;
  EXPECT_THROW(predict_once(model, Matrix(3, 5), ws), std::invalid_argument);
}

TEST(MultiModelEval, PredictOnceReusesWorkspaceAcrossModels) {
  const MlpConfig arch{{4, 6, 3}, Activation::kRelu};
  Mlp a(arch), b(arch);
  Rng rng(6);
  a.init(rng);
  b.init(rng);
  const Matrix x = random_matrix(8, 4, 7);
  MlpEvalWorkspace ws;
  const auto span_a = predict_once(a, x, ws);
  const std::vector<std::size_t> out_a(span_a.begin(), span_a.end());
  const auto out_b = predict_once(b, x, ws);  // same workspace
  EXPECT_EQ(out_a, reference_preds(arch, a.parameters(), x));
  EXPECT_EQ(std::vector<std::size_t>(out_b.begin(), out_b.end()),
            reference_preds(arch, b.parameters(), x));
}

TEST(MultiModelEval, PredictManySpansModelChunks) {
  const MlpConfig arch{{12, 10, 5}, Activation::kRelu};
  Rng rng(31);
  // More models than kModelChunk, so the chunked panel-outer loop runs
  // at least twice.
  const std::size_t count = MultiModelEval::kModelChunk + 5;
  const auto chain = model_chain(arch, rng, count);
  const Matrix x = random_matrix(50, 12, 32);

  MultiModelEval engine(arch);
  engine.bind(x);
  std::vector<std::vector<std::size_t>> preds(
      count, std::vector<std::size_t>(x.rows()));
  std::vector<MultiEvalModel> models;
  for (std::size_t v = 0; v < count; ++v) {
    models.push_back({chain[v], preds[v]});
  }
  engine.predict_many(models);
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ(preds[v], reference_preds(arch, chain[v], x));
  }
}

TEST(MultiModelEval, RebindReplacesDataset) {
  const MlpConfig arch{{10, 8, 3}, Activation::kRelu};
  Rng rng(41);
  const auto chain = model_chain(arch, rng, 1);
  const Matrix x1 = random_matrix(30, 10, 42);
  const Matrix x2 = random_matrix(17, 10, 43);

  MultiModelEval engine(arch);
  engine.bind(x1);
  EXPECT_EQ(engine_preds(engine, chain[0]), reference_preds(arch, chain[0], x1));

  engine.bind(x2);
  EXPECT_EQ(engine.bound_samples(), 17u);
  EXPECT_EQ(engine_preds(engine, chain[0]), reference_preds(arch, chain[0], x2));
}

// The real evaluation sets: each task's test and backdoor test sets as
// the experiments build them, scored by a model trained on the task.
// Engine predictions must equal the training-forward reference on both
// arms, and evaluate_confusion / backdoor_accuracy / evaluate_accuracy
// must equal counts taken from that reference.
void expect_real_set_parity(const ScenarioConfig& config) {
  Rng rng(1000);
  const Scenario scenario = build_scenario(config, rng);
  Mlp model(scenario.arch);
  model.init(rng);
  TrainConfig train;
  train.epochs = 1;
  train.batch_size = 64;
  train.sgd.learning_rate = 0.05f;
  train_sgd(model, scenario.task.train.features(),
            scenario.task.train.labels(), train, rng);
  const std::vector<float> params = model.parameters();
  const Dataset& test = scenario.task.test;
  const Dataset& backdoor = scenario.task.backdoor_test;
  const int target = scenario.backdoor.target_class;
  ASSERT_FALSE(test.empty());
  ASSERT_FALSE(backdoor.empty());

  for_each_arm([&] {
    for (const Dataset* set : {&test, &backdoor}) {
      MultiModelEval engine(scenario.arch);
      engine.bind(set->features());
      EXPECT_EQ(engine_preds(engine, params),
                reference_preds(scenario.arch, params, set->features()));
    }

    const auto test_ref = reference_preds(scenario.arch, params,
                                          test.features());
    ConfusionMatrix expected(test.num_classes());
    std::size_t correct = 0;
    for (std::size_t i = 0; i < test.size(); ++i) {
      expected.record(test.labels()[i], static_cast<int>(test_ref[i]));
      if (test_ref[i] == static_cast<std::size_t>(test.labels()[i])) ++correct;
    }
    const ConfusionMatrix cm = evaluate_confusion(model, test);
    for (std::size_t t = 0; t < test.num_classes(); ++t) {
      for (std::size_t p = 0; p < test.num_classes(); ++p) {
        ASSERT_EQ(cm.count(static_cast<int>(t), static_cast<int>(p)),
                  expected.count(static_cast<int>(t), static_cast<int>(p)));
      }
    }
    EXPECT_EQ(evaluate_accuracy(model, test.features(), test.labels()),
              static_cast<double>(correct) /
                  static_cast<double>(test.size()));

    const auto backdoor_ref = reference_preds(scenario.arch, params,
                                              backdoor.features());
    const auto hits = static_cast<std::size_t>(
        std::count(backdoor_ref.begin(), backdoor_ref.end(),
                   static_cast<std::size_t>(target)));
    EXPECT_EQ(backdoor_accuracy(model, backdoor, target),
              static_cast<double>(hits) /
                  static_cast<double>(backdoor.size()));
  });
}

TEST(MultiModelEvalRealSets, VisionTestAndBackdoorSets) {
  expect_real_set_parity(vision_scenario());
}

TEST(MultiModelEvalRealSets, FemnistTestAndBackdoorSets) {
  expect_real_set_parity(femnist_scenario());
}

// Thread-count invariance (DESIGN.md §17): the pool-parallel tile sweep
// must produce BYTE-identical predictions and margins at every pool
// size — same tile function, disjoint output slices, no reordered
// reductions. The reference is the engine on a pinned 1-worker pool,
// where parallel_for runs every tile inline in index order; pools of 2,
// 3 and 4 workers must match it byte for byte.
struct ParallelRun {
  std::vector<std::size_t> preds;  // model-major, models × samples
  std::vector<float> margins;      // model-major, models × samples
};

ParallelRun run_engine(MultiModelEval& engine,
                       const std::vector<std::vector<float>>& chain,
                       std::size_t samples, std::size_t workers) {
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
  ThreadPool pool(workers);
  const GlobalPoolPin pin(pool);
  engine.predict_many(models);
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

  const ParallelRun serial = run_engine(engine, chain, x.rows(), 1);
  for (std::size_t workers : {2, 3, 4}) {
    SCOPED_TRACE(workers);
    const ParallelRun parallel = run_engine(engine, chain, x.rows(), workers);
    EXPECT_EQ(parallel.preds, serial.preds);
    // Margins are floats: require bit equality, not approximate equality.
    ASSERT_EQ(parallel.margins.size(), serial.margins.size());
    EXPECT_EQ(std::memcmp(parallel.margins.data(), serial.margins.data(),
                          serial.margins.size() * sizeof(float)),
              0);
  }
  for (std::size_t v = 0; v < count; ++v) {
    EXPECT_EQ(std::vector<std::size_t>(
                  serial.preds.begin() + static_cast<std::ptrdiff_t>(
                                             v * x.rows()),
                  serial.preds.begin() + static_cast<std::ptrdiff_t>(
                                             (v + 1) * x.rows())),
              reference_preds(arch, chain[v], x));
  }
}

}  // namespace
}  // namespace baffle
