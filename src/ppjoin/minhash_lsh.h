// MinHash + LSH approximate set-similarity self-join.
//
// The paper's related work (Gionis, Indyk, Motwani [12]) frames an
// alternative formulation: "return partial answers, by using the idea of
// locality sensitive hashing". This module implements that alternative so
// the exact/approximate trade-off can be reproduced:
//
//   * each record gets a MinHash signature of num_bands * rows_per_band
//     independent permutation minima (E[signature agreement] = Jaccard);
//   * signatures are cut into bands; records agreeing on all rows of any
//     band land in the same bucket and become a candidate pair;
//   * candidates are verified exactly, so precision is 1 — only RECALL is
//     approximate. P(candidate | jaccard = s) = 1 - (1 - s^rows)^bands.
//
// Compared with the prefix-filter kernels this trades a recall guarantee
// for insensitivity to token-frequency skew; bench_lsh measures the
// trade-off against PPJoin+ on the same data.
#pragma once

#include <cstdint>
#include <vector>

#include "ppjoin/token_set.h"
#include "similarity/similarity.h"

namespace fj::ppjoin {

struct MinHashLshOptions {
  size_t num_bands = 16;
  size_t rows_per_band = 4;
  uint64_t seed = 0x5eed;
};

/// Statistics of one LSH join run.
struct MinHashLshStats {
  uint64_t candidate_pairs = 0;  ///< distinct pairs sharing >= 1 bucket
  uint64_t verified = 0;
  uint64_t results = 0;
};

/// Probability that a pair with the given Jaccard similarity becomes a
/// candidate: 1 - (1 - s^rows)^bands. Useful for picking parameters.
double LshCandidateProbability(double jaccard, const MinHashLshOptions& opts);

/// Approximate self-join: returns verified pairs with sim(x,y) >= tau
/// (Jaccard only — MinHash estimates Jaccard). Output is exact-precision
/// but may MISS pairs (recall < 1); sorted, duplicate-free, canonical.
std::vector<SimilarPair> MinHashLshSelfJoin(
    const std::vector<TokenSetRecord>& records,
    const sim::SimilaritySpec& spec, const MinHashLshOptions& options = {},
    MinHashLshStats* stats = nullptr);

/// Computes the MinHash signature of one token set (exposed for tests).
std::vector<uint64_t> MinHashSignature(const TokenSetRecord& record,
                                       size_t hashes, uint64_t seed);

/// One bucket key per band: the combined hash of the band's signature
/// rows. `signature` must hold num_bands * rows_per_band slots. The keys
/// are deterministic functions of (signature, options) with no
/// per-process state, so they are stable across runs and machines.
std::vector<uint64_t> BandKeys(const std::vector<uint64_t>& signature,
                               const MinHashLshOptions& options);

}  // namespace fj::ppjoin
