#pragma once
// Simulated secure aggregation (Bonawitz et al., CCS'17) via pairwise
// additive masking over fixed-point integers.
//
// Each pair of round participants (i, j) shares a seed; client i adds
// PRG(seed) to its (quantized) update when i < j and subtracts it when
// i > j, so all masks cancel in the sum and the server learns *only* the
// aggregate. Working in uint64 arithmetic (wrap-around group Z_2^64)
// makes the cancellation exact — a property the tests assert bit-for-bit.
//
// The PRG is std::mt19937_64 seeded as Rng(seed) seeds it. Masks are
// block-generated by the dispatched add_prg_mask kernel (tensor/
// primitives.hpp), which twists the state 312 words at a time and
// tempers and applies each word in one pass; its output is bit-identical
// to the engine's, on both kernel arms.
//
// Simulated vs. real protocol: key agreement and Shamir-shared seed
// recovery are replaced by deterministic per-pair seeds derived from a
// per-round key; dropout handling reconstructs the dropped clients'
// pairwise masks the way the real protocol does after seed recovery.
// The arithmetic — which is what the BaFFLe compatibility claim rests
// on — is faithful.

#include <cstdint>
#include <vector>

#include "fl/update.hpp"

namespace baffle {

struct SecureAggConfig {
  /// Fixed-point scale: floats are encoded as round(x * 2^frac_bits).
  unsigned frac_bits = 24;
  /// Per-round key from which pairwise seeds derive (stands in for the
  /// Diffie-Hellman agreement of the real protocol).
  std::uint64_t round_key = 0;
};

using MaskedVec = std::vector<std::uint64_t>;

class SecureAggregation {
 public:
  explicit SecureAggregation(SecureAggConfig config) : config_(config) {}

  /// Client-side: quantize `update` and add the pairwise masks of
  /// `self_id` against every other id in `participants`. Throws
  /// std::invalid_argument when `self_id` is not a participant, an id
  /// repeats, or an entry of `update` cannot be encoded (see encode).
  MaskedVec mask_update(const ParamVec& update, std::size_t self_id,
                        const std::vector<std::size_t>& participants) const;

  /// Server-side: sum the survivors' masked vectors, cancel the masks of
  /// dropped participants (ids in `participants` without a masked
  /// vector; the real protocol reconstructs their seeds from Shamir
  /// shares), and dequantize. `senders[k]` is the id that produced
  /// `masked[k]`. Throws std::invalid_argument on a length mismatch, a
  /// repeated sender or participant, or a sender outside `participants`.
  ParamVec unmask_sum(const std::vector<MaskedVec>& masked,
                      const std::vector<std::size_t>& senders,
                      const std::vector<std::size_t>& participants,
                      std::size_t vec_len) const;

  /// Exact quantization helpers (exposed for tests). encode throws
  /// std::invalid_argument for NaN, ±Inf, or |x| * 2^frac_bits >= 2^63,
  /// which have no int64 fixed-point value. decode_sum interprets the
  /// wrapped uint64 as a signed fixed-point sum.
  std::uint64_t encode(float x) const;
  float decode_sum(std::uint64_t total) const;

 private:
  bool try_encode(float x, std::uint64_t& out) const;
  std::uint64_t pair_seed(std::size_t a, std::size_t b) const;

  SecureAggConfig config_;
};

}  // namespace baffle
