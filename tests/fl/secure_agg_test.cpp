#include "fl/secure_agg.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "tensor/ops.hpp"
#include "tensor/primitives.hpp"
#include "util/rng.hpp"

namespace baffle {
namespace {

SecureAggConfig config(std::uint64_t key = 99) {
  SecureAggConfig c;
  c.round_key = key;
  return c;
}

std::vector<std::size_t> ids(std::initializer_list<std::size_t> v) {
  return {v};
}

TEST(SecureAgg, QuantizationRoundTrip) {
  const SecureAggregation sa(config());
  for (float x : {0.0f, 1.0f, -1.0f, 0.123f, -17.5f}) {
    EXPECT_NEAR(sa.decode_sum(sa.encode(x)), x, 1e-6f);
  }
}

TEST(SecureAgg, SumOfTwoMaskedVectorsIsExact) {
  const SecureAggregation sa(config());
  const ParamVec a{1.0f, 2.0f, -3.0f};
  const ParamVec b{0.5f, -1.5f, 4.0f};
  const auto participants = ids({3, 7});
  const auto ma = sa.mask_update(a, 3, participants);
  const auto mb = sa.mask_update(b, 7, participants);
  const ParamVec total = sa.unmask_sum({ma, mb}, participants, participants, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(total[i], a[i] + b[i], 1e-5f);
  }
}

TEST(SecureAgg, MasksAreLarge) {
  // A masked vector must look nothing like the plaintext encoding: for a
  // zero update the mask should dominate.
  const SecureAggregation sa(config());
  const ParamVec zero(8, 0.0f);
  const auto masked = sa.mask_update(zero, 0, ids({0, 1}));
  std::size_t nonzero = 0;
  for (auto v : masked) {
    if (v != 0) ++nonzero;
  }
  EXPECT_EQ(nonzero, 8u);
}

TEST(SecureAgg, TenClientSumMatchesPlainSum) {
  const SecureAggregation sa(config(1234));
  Rng rng(5);
  const std::size_t n = 10, dim = 64;
  std::vector<std::size_t> participants(n);
  for (std::size_t i = 0; i < n; ++i) participants[i] = 10 + i;
  std::vector<ParamVec> updates(n, ParamVec(dim));
  ParamVec expected(dim, 0.0f);
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.normal());
    axpy(1.0f, u, expected);
  }
  std::vector<MaskedVec> masked;
  for (std::size_t i = 0; i < n; ++i) {
    masked.push_back(sa.mask_update(updates[i], participants[i], participants));
  }
  const ParamVec total = sa.unmask_sum(masked, participants, participants, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(total[i], expected[i], 1e-4f);
  }
}

TEST(SecureAgg, DropoutRecovery) {
  // 4 participants mask; one never sends. The sum of the survivors must
  // come out exactly after the server cancels the dropped client's
  // pairwise masks.
  const SecureAggregation sa(config(777));
  const auto participants = ids({0, 1, 2, 3});
  const std::vector<ParamVec> updates{
      {1.0f, 1.0f}, {2.0f, -1.0f}, {3.0f, 0.5f}, {4.0f, 9.0f}};
  std::vector<MaskedVec> masked;
  std::vector<std::size_t> senders;
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == 2) continue;  // client 2 drops after key agreement
    masked.push_back(sa.mask_update(updates[i], i, participants));
    senders.push_back(i);
  }
  const ParamVec total = sa.unmask_sum(masked, senders, participants, 2);
  EXPECT_NEAR(total[0], 1.0f + 2.0f + 4.0f, 1e-5f);
  EXPECT_NEAR(total[1], 1.0f - 1.0f + 9.0f, 1e-5f);
}

TEST(SecureAgg, MultipleDropouts) {
  const SecureAggregation sa(config(42));
  const auto participants = ids({0, 1, 2, 3, 4});
  std::vector<MaskedVec> masked;
  std::vector<std::size_t> senders;
  float expected = 0.0f;
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 1 || i == 3) continue;
    const ParamVec u{static_cast<float>(i)};
    masked.push_back(sa.mask_update(u, i, participants));
    senders.push_back(i);
    expected += static_cast<float>(i);
  }
  const ParamVec total = sa.unmask_sum(masked, senders, participants, 1);
  EXPECT_NEAR(total[0], expected, 1e-5f);
}

TEST(SecureAgg, DifferentRoundKeysGiveDifferentMasks) {
  const SecureAggregation sa1(config(1)), sa2(config(2));
  const ParamVec u{1.0f, 2.0f};
  const auto p = ids({0, 1});
  EXPECT_NE(sa1.mask_update(u, 0, p), sa2.mask_update(u, 0, p));
}

TEST(SecureAgg, SelfMustBeParticipant) {
  const SecureAggregation sa(config());
  const ParamVec u{1.0f};
  EXPECT_THROW(sa.mask_update(u, 9, ids({0, 1})), std::invalid_argument);
}

TEST(SecureAgg, UnmaskRejectsMalformedInput) {
  const SecureAggregation sa(config());
  const auto p = ids({0, 1});
  const auto m = sa.mask_update({1.0f}, 0, p);
  EXPECT_THROW(sa.unmask_sum({m}, {0, 1}, p, 1), std::invalid_argument);
  EXPECT_THROW(sa.unmask_sum({}, {}, p, 1), std::invalid_argument);
  EXPECT_THROW(sa.unmask_sum({m}, {0}, p, 2), std::invalid_argument);
}

TEST(SecureAgg, SingleParticipantDegenerate) {
  // With one participant there are no pairwise masks; the "masked"
  // vector is the plain quantization and the sum is the value itself.
  const SecureAggregation sa(config());
  const ParamVec u{2.5f};
  const auto p = ids({4});
  const auto m = sa.mask_update(u, 4, p);
  const ParamVec total = sa.unmask_sum({m}, {4}, p, 1);
  EXPECT_NEAR(total[0], 2.5f, 1e-6f);
}

// The masking as it was before block generation: a fresh Rng per pair,
// one next_u64() per word. Kept here only as the oracle the dispatched
// kernel must reproduce byte for byte.
std::uint64_t oracle_pair_seed(std::uint64_t round_key, std::size_t a,
                               std::size_t b) {
  const std::size_t lo = std::min(a, b), hi = std::max(a, b);
  std::uint64_t s = round_key;
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(lo) + 1));
  s = Rng::split_mix(s ^ (static_cast<std::uint64_t>(hi) + 1) << 1);
  return s;
}

void oracle_add_pair_mask(MaskedVec& vec, std::uint64_t round_key,
                          std::size_t self_id, std::size_t other_id,
                          bool subtract) {
  Rng prg(oracle_pair_seed(round_key, self_id, other_id));
  for (auto& slot : vec) {
    const std::uint64_t m = prg.next_u64();
    slot = subtract ? slot - m : slot + m;
  }
}

MaskedVec oracle_mask_update(const SecureAggregation& sa,
                             std::uint64_t round_key, const ParamVec& update,
                             std::size_t self_id,
                             const std::vector<std::size_t>& participants) {
  MaskedVec out(update.size());
  for (std::size_t i = 0; i < update.size(); ++i) out[i] = sa.encode(update[i]);
  for (std::size_t other : participants) {
    if (other != self_id) {
      oracle_add_pair_mask(out, round_key, self_id, other, self_id > other);
    }
  }
  return out;
}

std::vector<ParamVec> random_updates(std::size_t n, std::size_t dim,
                                     Rng& rng) {
  std::vector<ParamVec> updates(n, ParamVec(dim));
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.normal(0.0, 0.1));
  }
  return updates;
}

TEST(SecureAgg, MaskedBytesMatchPerWordRngOracle) {
  // Unsorted ids, lengths around the 312-word generator block, and the
  // vision model's parameter count.
  const std::vector<std::size_t> participants{9, 2, 14, 5};
  Rng rng(61);
  for (std::uint64_t key : {0ull, 99ull, 0xdeadbeefcafef00dull}) {
    const SecureAggregation sa(config(key));
    for (std::size_t dim : {1, 311, 313, 2762}) {
      SCOPED_TRACE(::testing::Message() << "key=" << key << " dim=" << dim);
      const auto updates = random_updates(participants.size(), dim, rng);
      for (std::size_t i = 0; i < participants.size(); ++i) {
        ASSERT_EQ(sa.mask_update(updates[i], participants[i], participants),
                  oracle_mask_update(sa, key, updates[i], participants[i],
                                     participants));
      }
    }
  }
}

TEST(SecureAgg, MaskedBytesMatchRecordedGolden) {
  // Recorded from the per-word Rng loop; pins the stream independently
  // of the oracle above.
  const SecureAggregation sa(config());
  const MaskedVec masked =
      sa.mask_update({0.5f, -1.25f, 3.0f}, 3, ids({1, 3, 8}));
  const MaskedVec golden{0x60ff40e5ff2a80e5ull, 0x6a59ab89c88b8633ull,
                         0x12b9ac4cf7fbddf8ull};
  EXPECT_EQ(masked, golden);
}

TEST(SecureAgg, DropoutSumMatchesPerWordRngOracle) {
  const std::uint64_t key = 4242;
  const SecureAggregation sa(config(key));
  const std::vector<std::size_t> participants{0, 3, 4, 7, 11, 12};
  const std::size_t dim = 700;
  Rng rng(62);
  const auto updates = random_updates(participants.size(), dim, rng);
  std::vector<MaskedVec> masked;
  std::vector<std::size_t> senders;
  MaskedVec total(dim, 0);
  for (std::size_t i = 0; i < participants.size(); ++i) {
    if (participants[i] == 3 || participants[i] == 11) continue;  // dropped
    masked.push_back(sa.mask_update(updates[i], participants[i], participants));
    senders.push_back(participants[i]);
    add_u64(total, masked.back());
  }
  for (std::size_t dropped : {std::size_t{3}, std::size_t{11}}) {
    for (std::size_t survivor : senders) {
      oracle_add_pair_mask(total, key, survivor, dropped, survivor < dropped);
    }
  }
  ParamVec want(dim);
  for (std::size_t i = 0; i < dim; ++i) want[i] = sa.decode_sum(total[i]);
  const ParamVec got = sa.unmask_sum(masked, senders, participants, dim);
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), dim * sizeof(float)), 0);
}

TEST(SecureAgg, MaskRejectsUnencodableValuesByIndex) {
  const SecureAggregation sa(config());  // frac_bits = 24
  const auto p = ids({0, 1});
  const float edge = std::ldexp(1.0f, 63 - 24);  // edge * 2^24 == 2^63
  for (float bad : {std::numeric_limits<float>::quiet_NaN(),
                    std::numeric_limits<float>::infinity(),
                    -std::numeric_limits<float>::infinity(), edge, -edge}) {
    SCOPED_TRACE(::testing::Message() << "value=" << bad);
    EXPECT_THROW(sa.encode(bad), std::invalid_argument);
    try {
      sa.mask_update({0.0f, 1.0f, bad}, 0, p);
      ADD_FAILURE() << "mask_update accepted an unencodable value";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("update[2]"), std::string::npos)
          << e.what();
    }
  }
  // The largest float below the edge still encodes, and round-trips.
  const float below = std::nextafter(edge, 0.0f);
  EXPECT_EQ(sa.decode_sum(sa.encode(below)), below);
  EXPECT_EQ(sa.decode_sum(sa.encode(-below)), -below);
}

TEST(SecureAgg, MaskRejectsDuplicateParticipant) {
  const SecureAggregation sa(config());
  EXPECT_THROW(sa.mask_update({1.0f}, 0, ids({0, 1, 1})),
               std::invalid_argument);
}

TEST(SecureAgg, UnmaskRejectsDuplicateSender) {
  const SecureAggregation sa(config());
  const auto p = ids({0, 1});
  const auto m = sa.mask_update({1.0f}, 0, p);
  EXPECT_THROW(sa.unmask_sum({m, m}, {0, 0}, p, 1), std::invalid_argument);
}

TEST(SecureAgg, UnmaskRejectsSenderOutsideParticipants) {
  const SecureAggregation sa(config());
  const auto p = ids({0, 1});
  const auto m0 = sa.mask_update({1.0f}, 0, p);
  const auto m1 = sa.mask_update({1.0f}, 1, p);
  EXPECT_THROW(sa.unmask_sum({m0, m1}, {0, 2}, p, 1), std::invalid_argument);
}

TEST(SecureAgg, UnmaskRejectsDuplicateParticipant) {
  const SecureAggregation sa(config());
  const auto m = sa.mask_update({1.0f}, 0, ids({0, 1}));
  EXPECT_THROW(sa.unmask_sum({m}, {0}, ids({0, 1, 1}), 1),
               std::invalid_argument);
}

/// Property sweep: exact cancellation for many (n, dim, key) combos.
class SecureAggProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(SecureAggProperty, MaskedSumEqualsPlainSum) {
  const auto [n, dim] = GetParam();
  const SecureAggregation sa(config(n * 1000 + dim));
  Rng rng(n * 31 + dim);
  std::vector<std::size_t> participants(n);
  for (std::size_t i = 0; i < n; ++i) participants[i] = i * 3 + 1;
  std::vector<ParamVec> updates(n, ParamVec(dim));
  ParamVec expected(dim, 0.0f);
  for (auto& u : updates) {
    for (float& x : u) x = static_cast<float>(rng.uniform(-5.0, 5.0));
    axpy(1.0f, u, expected);
  }
  std::vector<MaskedVec> masked;
  for (std::size_t i = 0; i < n; ++i) {
    masked.push_back(
        sa.mask_update(updates[i], participants[i], participants));
  }
  const ParamVec total =
      sa.unmask_sum(masked, participants, participants, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(total[i], expected[i], 1e-4f) << "dim " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SecureAggProperty,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 5, 10, 17),
                       ::testing::Values<std::size_t>(1, 8, 33)));

}  // namespace
}  // namespace baffle
