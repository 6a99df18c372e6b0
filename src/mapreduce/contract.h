// Contract checking for user-supplied job hooks — the layer that *proves*
// the JobSpec contract instead of trusting it.
//
// Every algorithm in the paper is expressed through user-supplied sort and
// group comparators, partitioners, and combiners (BTO's swapped sort keys,
// PK's partition-on-group / sort-on-(group, length) split, stage 1's
// algebraic count combiner). The engine's correctness theorems all assume
// those hooks are lawful:
//
//   - sort_less is a strict weak order (irreflexive, asymmetric,
//     transitive, with transitive incomparability);
//   - group_equal is reflexive, symmetric, and COARSER than the sort
//     order's equivalence (sort-equal keys must be group-equal), and
//     group-equal keys must be contiguous under sort_less;
//   - the partitioner sends group-equal keys to the same partition and
//     stays inside [0, num_partitions);
//   - the combiner is algebraic: associative, order-insensitive, and
//     idempotent over its own output (it runs once per spill, so its
//     output is re-fed to the reducer and possibly to itself).
//
// A hook that silently breaks one of these does not crash — it drops or
// duplicates join pairs (Hadoop's classic RawComparator bug). With
// JobSpec::check_contracts on, the engine samples emitted keys into a
// bounded pool and verifies the axioms on pairs and triples drawn from it,
// verifies the partitioner at emit time, property-tests the combiner on
// sampled key groups, and fingerprints group keys across reduce calls to
// catch both non-contiguous groups and reducers that mutate keys
// mid-group. The first violation latches a structured FailedPrecondition
// Status naming the offending key pair; the job fails with it instead of
// committing a wrong answer. Checks are metered (ContractStats /
// TaskMetrics::contract_checks) and priced by the cluster model like
// integrity verification.
//
// Sampling bounds: every kth emitted key (JobSpec::contract_sample_every)
// enters a pool of kContractPoolCap keys; each sampled key is checked
// against the whole pool (pairs) and at most kContractTripleCap triples.
// Every predicate evaluation counts one contract check.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "mapreduce/integrity.h"
#include "mapreduce/job_spec.h"

namespace fj::mr {

/// Pool of sampled keys each new sample is checked against.
inline constexpr size_t kContractPoolCap = 12;
/// Transitivity triples examined per sampled key.
inline constexpr size_t kContractTripleCap = 24;
/// Combiner key groups property-tested per spill.
inline constexpr size_t kContractCombinerGroupsPerSpill = 4;

/// Builds the structured violation Status: FailedPrecondition with
/// "job 'name': contract violation [rule]: detail".
Status ContractViolation(const std::string& job_name, const std::string& rule,
                         const std::string& detail);

/// Work performed by the checker, folded into TaskMetrics::contract_checks
/// and priced by kContractChecksPerSecondPerNode (cluster_model.h).
struct ContractStats {
  uint64_t keys_observed = 0;   ///< emitted keys seen (range check each)
  uint64_t keys_sampled = 0;    ///< keys that entered the axiom pool
  uint64_t checks = 0;          ///< predicate evaluations + key hashes
  uint64_t combiner_groups_checked = 0;
};

namespace contract_internal {

template <typename T, typename = void>
struct HasAdlDebugString : std::false_type {};

template <typename T>
struct HasAdlDebugString<
    T, std::void_t<decltype(FjDebugString(std::declval<const T&>()))>>
    : std::true_type {};

std::string QuoteForDebug(const std::string& s);

template <typename T>
std::string DebugKey(const T& value);

template <typename A, typename B>
std::string DebugKey(const std::pair<A, B>& value) {
  return "(" + DebugKey(value.first) + ", " + DebugKey(value.second) + ")";
}

template <typename... Ts>
std::string DebugKey(const std::tuple<Ts...>& value) {
  std::string out = "(";
  bool first = true;
  std::apply(
      [&out, &first](const Ts&... parts) {
        ((out += (first ? "" : ", ") + DebugKey(parts), first = false), ...);
      },
      value);
  return out + ")";
}

template <typename T>
std::string DebugKey(const T& value) {
  if constexpr (HasAdlDebugString<T>::value) {
    return FjDebugString(value);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return QuoteForDebug(value);
  } else if constexpr (std::is_integral_v<T>) {
    return std::to_string(value);
  } else if constexpr (std::is_enum_v<T>) {
    return std::to_string(static_cast<int64_t>(value));
  } else if constexpr (std::is_floating_point_v<T>) {
    return std::to_string(value);
  } else {
    // Opaque key type: identify it by content hash so the violation still
    // names a concrete, reproducible key.
    char buf[24];
    std::snprintf(buf, sizeof(buf), "key#%016llx",
                  static_cast<unsigned long long>(ContentHashOf(value)));
    return buf;
  }
}

}  // namespace contract_internal

/// Map-emit-side checker: verifies partition range on every emitted key and
/// the comparator / partitioner axioms on a sampled pool. One instance per
/// map-task attempt (attempt-scoped like counters, so a crashed attempt's
/// latched state is dropped with it). `Ordering` must expose SortLess,
/// GroupEqual, and PartitionOf — SpecOrdering does.
template <typename K, typename Ordering>
class KeyContractChecker {
 public:
  KeyContractChecker(const Ordering* ordering, size_t num_partitions,
                     uint32_t sample_every, std::string job_name)
      : ordering_(ordering),
        num_partitions_(num_partitions),
        sample_every_(sample_every == 0 ? 1 : sample_every),
        job_name_(std::move(job_name)) {
    pool_.reserve(kContractPoolCap);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  ContractStats& stats() { return stats_; }
  const std::string& job_name() const { return job_name_; }
  uint32_t sample_every() const { return sample_every_; }

  /// Latches a violation found outside the emit path (e.g. by the
  /// combiner property test); first violation wins.
  void Latch(Status violation) {
    if (status_.ok() && !violation.ok()) status_ = std::move(violation);
  }

  /// Observes one emitted key and the partition the job computed for it.
  /// Latches the first violation; once latched everything is a no-op and
  /// the caller should stop emitting (the job fails with status()).
  void ObserveEmit(const K& key, size_t partition) {
    if (!status_.ok()) return;
    stats_.keys_observed++;
    if (partition >= num_partitions_) {
      status_ = ContractViolation(
          job_name_, "partition out of range",
          "partitioner returned " + std::to_string(partition) + " for key " +
              contract_internal::DebugKey(key) + " but the job has only " +
              std::to_string(num_partitions_) + " partitions");
      return;
    }
    if (stats_.keys_observed % sample_every_ != 0) return;
    stats_.keys_sampled++;
    CheckSampledKey(key, partition);
    if (!status_.ok()) return;
    // Deterministic replacement keeps the pool a moving sample of the
    // emitted key stream without ever growing it.
    if (pool_.size() < kContractPoolCap) {
      pool_.push_back(Sample{key, partition});
    } else {
      pool_[HashInt64(stats_.keys_sampled) % pool_.size()] =
          Sample{key, partition};
    }
  }

 private:
  struct Sample {
    K key;
    size_t partition;
  };

  bool Less(const K& a, const K& b) {
    stats_.checks++;
    return ordering_->SortLess(a, b);
  }
  bool GroupEq(const K& a, const K& b) {
    stats_.checks++;
    return ordering_->GroupEqual(a, b);
  }

  void Violate(const std::string& rule, const std::string& detail) {
    if (status_.ok()) status_ = ContractViolation(job_name_, rule, detail);
  }

  /// Pairwise and triple-wise axioms of the new sample against the pool.
  void CheckSampledKey(const K& key, size_t partition) {
    if (Less(key, key)) {
      Violate("sort_less not irreflexive",
              "sort_less(k, k) is true for key k = " +
                  contract_internal::DebugKey(key));
      return;
    }
    if (!GroupEq(key, key)) {
      Violate("group comparator not reflexive",
              "group_equal(k, k) is false for key k = " +
                  contract_internal::DebugKey(key));
      return;
    }
    for (const Sample& sample : pool_) {
      const K& p = sample.key;
      const bool kp = Less(key, p);
      const bool pk = Less(p, key);
      if (kp && pk) {
        Violate("sort_less not asymmetric",
                "sort_less orders both a < b and b < a for a = " +
                    contract_internal::DebugKey(key) + ", b = " +
                    contract_internal::DebugKey(p));
        return;
      }
      const bool group_eq = GroupEq(key, p);
      if (group_eq != GroupEq(p, key)) {
        Violate("group comparator not symmetric",
                "group_equal(a, b) != group_equal(b, a) for a = " +
                    contract_internal::DebugKey(key) + ", b = " +
                    contract_internal::DebugKey(p));
        return;
      }
      if (!kp && !pk && !group_eq) {
        Violate("group comparator finer than sort order",
                "keys equal under sort_less are not group-equal: a = " +
                    contract_internal::DebugKey(key) + ", b = " +
                    contract_internal::DebugKey(p) +
                    " (the group comparator must be coarser than the sort "
                    "equivalence or groups fragment nondeterministically)");
        return;
      }
      if (group_eq && partition != sample.partition) {
        Violate("partitioner splits a key group",
                "group-equal keys landed in different partitions: a = " +
                    contract_internal::DebugKey(key) + " -> partition " +
                    std::to_string(partition) + ", b = " +
                    contract_internal::DebugKey(p) + " -> partition " +
                    std::to_string(sample.partition) +
                    " (their reduce group would be processed twice)");
        return;
      }
    }
    // Transitivity over sampled triples (key, pool[i], pool[j]) — both of
    // the classic strict-weak-order laws: transitivity of < and
    // transitivity of incomparability (the one subtly broken comparators
    // actually fail).
    size_t triples = 0;
    for (size_t i = 0; i < pool_.size() && triples < kContractTripleCap; ++i) {
      for (size_t j = i + 1; j < pool_.size() && triples < kContractTripleCap;
           ++j) {
        ++triples;
        const K& a = key;
        const K& b = pool_[i].key;
        const K& c = pool_[j].key;
        if (!CheckTriple(a, b, c) || !CheckTriple(b, a, c) ||
            !CheckTriple(b, c, a)) {
          return;
        }
      }
    }
  }

  /// Checks the two transitivity laws on one ordered triple (a, b, c).
  /// Returns false when a violation was latched.
  bool CheckTriple(const K& a, const K& b, const K& c) {
    const bool ab = Less(a, b);
    const bool bc = Less(b, c);
    if (ab && bc && !Less(a, c)) {
      Violate("sort_less not transitive",
              "a < b and b < c but not a < c for a = " +
                  contract_internal::DebugKey(a) + ", b = " +
                  contract_internal::DebugKey(b) + ", c = " +
                  contract_internal::DebugKey(c));
      return false;
    }
    if (!ab && !bc && !Less(b, a) && !Less(c, b) &&
        (Less(a, c) || Less(c, a))) {
      Violate("sort equivalence not transitive",
              "a ~ b and b ~ c (incomparable) but a and c compare unequal "
              "for a = " +
                  contract_internal::DebugKey(a) + ", b = " +
                  contract_internal::DebugKey(b) + ", c = " +
                  contract_internal::DebugKey(c) +
                  " (not a strict weak order: sorted runs will interleave "
                  "equal keys unpredictably)");
      return false;
    }
    return true;
  }

  const Ordering* ordering_;
  size_t num_partitions_;
  uint32_t sample_every_;
  std::string job_name_;
  Status status_;
  ContractStats stats_;
  std::vector<Sample> pool_;
};

/// Reduce-side checker: fingerprints the stream of group keys handed to
/// Reduce. Catches (1) group-equal keys that were NOT contiguous under the
/// sort order — the same logical group split across two reduce calls,
/// which silently duplicates or drops pairs; (2) a merged key stream that
/// regresses under sort_less (an inconsistent comparator); and (3) a
/// reducer (or combiner) that mutates the group key mid-call through the
/// const view. One instance per reduce-task attempt.
template <typename K, typename Ordering>
class GroupContractChecker {
 public:
  GroupContractChecker(const Ordering* ordering, std::string job_name)
      : ordering_(ordering), job_name_(std::move(job_name)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  ContractStats& stats() { return stats_; }

  /// Called with the first key of each group BEFORE Reduce runs. Returns
  /// the key's content fingerprint for the post-call mutation check.
  uint64_t ObserveGroup(const K& key) {
    stats_.checks += 2;
    if (!status_.ok()) return 0;
    if (has_prev_) {
      if (ordering_->GroupEqual(prev_, key)) {
        status_ = ContractViolation(
            job_name_, "key group not contiguous",
            "two consecutive reduce groups have group-equal keys: " +
                contract_internal::DebugKey(prev_) + " and " +
                contract_internal::DebugKey(key) +
                " (keys equal under group_equal must be contiguous under "
                "sort_less; this group was split across reduce calls)");
        return 0;
      }
      if (ordering_->SortLess(key, prev_)) {
        status_ = ContractViolation(
            job_name_, "merged keys out of sort order",
            "group key " + contract_internal::DebugKey(key) +
                " sorts before the previous group key " +
                contract_internal::DebugKey(prev_) +
                " (sort_less answered inconsistently across comparisons)");
        return 0;
      }
    }
    prev_ = key;
    has_prev_ = true;
    stats_.checks++;
    return ContentHashOf(key);
  }

  /// Called with the same key AFTER Reduce returned; `fingerprint` is
  /// ObserveGroup's return value.
  void CheckKeyUnchanged(const K& key, uint64_t fingerprint) {
    if (!status_.ok()) return;
    stats_.checks++;
    if (ContentHashOf(key) != fingerprint) {
      status_ = ContractViolation(
          job_name_, "reducer mutated the group key",
          "the group key changed while Reduce ran; it is now " +
              contract_internal::DebugKey(key) +
              " (user code must treat keys as immutable mid-group: the "
              "merge order and the remaining group span depend on them)");
    }
  }

 private:
  const Ordering* ordering_;
  std::string job_name_;
  Status status_;
  ContractStats stats_;
  K prev_{};
  bool has_prev_ = false;
};

namespace contract_internal {

/// Collects combiner output for the property tests.
template <typename K, typename V>
class CaptureEmitter : public Emitter<K, V> {
 public:
  void Emit(K key, V value) override {
    pairs_.emplace_back(std::move(key), std::move(value));
  }
  const std::vector<std::pair<K, V>>& pairs() const { return pairs_; }

 private:
  std::vector<std::pair<K, V>> pairs_;
};

/// Multiset fingerprint of emitted pairs: sorted content hashes, so two
/// outputs compare equal regardless of emit order.
template <typename K, typename V>
std::vector<uint64_t> PairFingerprints(
    const std::vector<std::pair<K, V>>& pairs) {
  std::vector<uint64_t> hashes;
  hashes.reserve(pairs.size());
  for (const auto& pair : pairs) hashes.push_back(ContentHashOf(pair));
  std::sort(hashes.begin(), hashes.end());
  return hashes;
}

}  // namespace contract_internal

/// Property-tests the combiner on one sampled key group. The combiner runs
/// once per spill (Hadoop semantics), so its output is re-fed to the
/// reducer — and, across multiple spills, conceptually to itself. The test
/// verifies, on the group's real values:
///
///   order-insensitivity  combine(k, reverse(vs)) == combine(k, vs)
///   associativity        combine(k, {combine(front), combine(back)})
///                        == combine(k, vs)   (partial aggregates compose)
///   idempotence          combine over its own single-pair output is a
///                        fixed point
///   key immutability     the combiner must not mutate its input key
///
/// The associativity / idempotence re-feeds only apply when the partial
/// outputs are single pairs whose keys stay in the input key's group (the
/// algebraic-aggregation shape every lawful combiner has; a multi-pair or
/// group-escaping output is itself reported). Outputs are compared as
/// multisets of content hashes. Returns OK or the first violation.
template <typename K, typename V, typename Ordering>
Status CheckCombinerContract(
    const std::function<void(const K&, std::vector<V>&&, Emitter<K, V>*)>&
        combiner,
    const Ordering& ordering, const K& key, const std::vector<V>& values,
    const std::string& job_name, ContractStats* stats) {
  using contract_internal::CaptureEmitter;
  using contract_internal::DebugKey;
  using contract_internal::PairFingerprints;
  if constexpr (!std::is_copy_constructible_v<V>) {
    (void)combiner;
    (void)ordering;
    (void)key;
    (void)values;
    (void)job_name;
    (void)stats;
    return Status::OK();  // cannot replay move-only values
  } else {
    stats->combiner_groups_checked++;
    const uint64_t key_fingerprint = ContentHashOf(key);
    auto run = [&combiner, stats](const K& k, std::vector<V> vs) {
      stats->checks++;
      CaptureEmitter<K, V> capture;
      combiner(k, std::move(vs), &capture);
      return capture.pairs();
    };

    const auto baseline = run(key, values);
    stats->checks++;
    if (ContentHashOf(key) != key_fingerprint) {
      return ContractViolation(
          job_name, "combiner mutated the group key",
          "the input key changed while the combiner ran; it is now " +
              DebugKey(key));
    }
    const auto baseline_prints = PairFingerprints(baseline);

    // Order-insensitivity: the buffer's stable sort only fixes KEY order;
    // equal keys arrive in emit order, which differs between spills.
    std::vector<V> reversed(values.rbegin(), values.rend());
    if (PairFingerprints(run(key, std::move(reversed))) != baseline_prints) {
      return ContractViolation(
          job_name, "combiner order-sensitive",
          "combining the values of key " + DebugKey(key) +
              " in reverse order changed the output (spill order is not "
              "deterministic across buffer budgets)");
    }

    // Associativity / idempotence re-feeds need partial aggregates that
    // stay single pairs in the input key's group.
    auto single_in_group =
        [&ordering, &key, stats](const std::vector<std::pair<K, V>>& out) {
          stats->checks++;
          return out.size() == 1 && ordering.GroupEqual(out.front().first, key);
        };

    if (values.size() >= 2) {
      const size_t mid = values.size() / 2;
      const auto front = run(key, {values.begin(), values.begin() + mid});
      const auto back = run(key, {values.begin() + mid, values.end()});
      if (single_in_group(front) && single_in_group(back)) {
        const auto refed = run(
            key, {front.front().second, back.front().second});
        if (PairFingerprints(refed) != baseline_prints) {
          return ContractViolation(
              job_name, "combiner not associative",
              "combining the partial aggregates of key " + DebugKey(key) +
                  " differs from combining all values at once (the "
                  "combiner runs once per spill, so partial aggregates "
                  "must compose)");
        }
      }
    }
    if (single_in_group(baseline)) {
      const auto refed =
          run(baseline.front().first, {baseline.front().second});
      if (PairFingerprints(refed) != baseline_prints) {
        return ContractViolation(
            job_name, "combiner not idempotent",
            "re-combining the combined value of key " + DebugKey(key) +
                " changed it (multi-spill runs feed combiner output back "
                "through the combiner)");
      }
    }
    return Status::OK();
  }
}

}  // namespace fj::mr
