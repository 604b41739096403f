// Self-test of the benchmark's decorators.
//
//  1. Forwarding: every Bounder and DistanceOracle virtual called on a
//     TimedBounder / TimedOracle reaches the wrapped object exactly once.
//  2. Equivalence: on all three workloads at small sizes, a decorated
//     (traced) repetition produces the same outputs, the same integer
//     ResolverStats and the same per-session oracle_calls as an
//     undecorated one, and both match the oracle-only reference.
//
// Exit code 0 when every check passes. Run: python3 perfbench/run.py
// --selftest (builds first), or .bench_build/perfbench_selftest [WORK_DIR]
// (work files go to WORK_DIR, default ./perfbench-selftest).
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "check/certificate.h"
#include "core/bounder.h"
#include "core/oracle.h"
#include "core/stats.h"
#include "decorators.h"
#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace mp = metricprox;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

// Records which verbs were invoked; overrides every virtual so no default
// implementation can route one verb through another.
class VerbLog final : public mp::Bounder {
 public:
  std::map<std::string, int> calls;

  std::string_view name() const override { return "verb-log"; }
  mp::Interval Bounds(mp::ObjectId, mp::ObjectId) override {
    ++calls["Bounds"];
    return mp::Interval::Unbounded();
  }
  void OnEdgeResolved(mp::ObjectId, mp::ObjectId, double) override {
    ++calls["OnEdgeResolved"];
  }
  void OnEdgesResolved(std::span<const mp::ResolvedEdge>) override {
    ++calls["OnEdgesResolved"];
  }
  std::optional<bool> DecideLessThan(mp::ObjectId, mp::ObjectId,
                                     double) override {
    ++calls["DecideLessThan"];
    return std::nullopt;
  }
  std::optional<bool> DecideGreaterThan(mp::ObjectId, mp::ObjectId,
                                        double) override {
    ++calls["DecideGreaterThan"];
    return std::nullopt;
  }
  void DecideBatch(std::span<const mp::IdPair>, std::span<const double>,
                   std::span<std::optional<bool>>) override {
    ++calls["DecideBatch"];
  }
  std::optional<bool> DecidePairLess(mp::ObjectId, mp::ObjectId, mp::ObjectId,
                                     mp::ObjectId) override {
    ++calls["DecidePairLess"];
    return std::nullopt;
  }
  bool CertifyBounds(mp::ObjectId, mp::ObjectId,
                     mp::BoundCertificate*) override {
    ++calls["CertifyBounds"];
    return false;
  }
  std::optional<bool> DecideLessThanCertified(mp::ObjectId, mp::ObjectId,
                                              double,
                                              mp::BoundCertificate*) override {
    ++calls["DecideLessThanCertified"];
    return std::nullopt;
  }
  std::optional<bool> DecideGreaterThanCertified(
      mp::ObjectId, mp::ObjectId, double, mp::BoundCertificate*) override {
    ++calls["DecideGreaterThanCertified"];
    return std::nullopt;
  }
  std::optional<bool> DecidePairLessCertified(mp::ObjectId, mp::ObjectId,
                                              mp::ObjectId, mp::ObjectId,
                                              mp::BoundCertificate*) override {
    ++calls["DecidePairLessCertified"];
    return std::nullopt;
  }
  void ObserveSlackLessThan(mp::ObjectId, mp::ObjectId, double,
                            const mp::Interval&, double, bool) override {
    ++calls["ObserveSlackLessThan"];
  }
  void ObserveSlackPairLess(mp::ObjectId, mp::ObjectId, mp::ObjectId,
                            mp::ObjectId, const mp::Interval&,
                            const mp::Interval&, double, bool) override {
    ++calls["ObserveSlackPairLess"];
  }
  void ObserveWeakLessThan(mp::ObjectId, mp::ObjectId, double,
                           const mp::WeakModel&, bool) override {
    ++calls["ObserveWeakLessThan"];
  }
  void ObserveWeakGreaterThan(mp::ObjectId, mp::ObjectId, double,
                              const mp::WeakModel&, bool) override {
    ++calls["ObserveWeakGreaterThan"];
  }
  void ObserveWeakPairLess(mp::ObjectId, mp::ObjectId, mp::ObjectId,
                           mp::ObjectId, const mp::WeakModel&,
                           const mp::WeakModel&, bool) override {
    ++calls["ObserveWeakPairLess"];
  }
};

class OracleLog final : public mp::DistanceOracle {
 public:
  std::map<std::string, int> calls;
  unsigned workers = 0;

  double Distance(mp::ObjectId, mp::ObjectId) override {
    ++calls["Distance"];
    return 1.0;
  }
  void BatchDistance(std::span<const mp::IdPair>,
                     std::span<double>) override {
    ++calls["BatchDistance"];
  }
  mp::StatusOr<double> TryDistance(mp::ObjectId, mp::ObjectId) override {
    ++calls["TryDistance"];
    return 1.0;
  }
  mp::Status TryBatchDistance(std::span<const mp::IdPair>, std::span<double>,
                              std::span<mp::Status>) override {
    ++calls["TryBatchDistance"];
    return mp::Status::OK();
  }
  mp::ObjectId num_objects() const override { return 4; }
  std::string_view name() const override { return "oracle-log"; }
  void set_batch_workers(unsigned w) override {
    ++calls["set_batch_workers"];
    workers = w;
  }
  unsigned batch_workers() const override { return workers; }
};

void TestBounderForwarding() {
  VerbLog inner;
  SpanRecorder spans;
  TimedBounder timed(&inner, &spans);
  const mp::IdPair pair{0, 1};
  const double threshold = 1.0;
  std::optional<bool> out;
  const mp::ResolvedEdge edge{0, 1, 1.0};
  const mp::WeakModel model;
  const mp::Interval interval = mp::Interval::Unbounded();
  {
    ScopedSpan span(&spans, "test", kLayerResidual);
    timed.Bounds(0, 1);
    timed.OnEdgeResolved(0, 1, 1.0);
    timed.OnEdgesResolved({&edge, 1});
    timed.DecideLessThan(0, 1, 1.0);
    timed.DecideGreaterThan(0, 1, 1.0);
    timed.DecideBatch({&pair, 1}, {&threshold, 1}, {&out, 1});
    timed.DecidePairLess(0, 1, 2, 3);
    timed.CertifyBounds(0, 1, nullptr);
    timed.DecideLessThanCertified(0, 1, 1.0, nullptr);
    timed.DecideGreaterThanCertified(0, 1, 1.0, nullptr);
    timed.DecidePairLessCertified(0, 1, 2, 3, nullptr);
    timed.ObserveSlackLessThan(0, 1, 1.0, interval, 0.1, true);
    timed.ObserveSlackPairLess(0, 1, 2, 3, interval, interval, 0.1, true);
    timed.ObserveWeakLessThan(0, 1, 1.0, model, true);
    timed.ObserveWeakGreaterThan(0, 1, 1.0, model, true);
    timed.ObserveWeakPairLess(0, 1, 2, 3, model, model, true);
  }
  const char* verbs[] = {
      "Bounds", "OnEdgeResolved", "OnEdgesResolved", "DecideLessThan",
      "DecideGreaterThan", "DecideBatch", "DecidePairLess", "CertifyBounds",
      "DecideLessThanCertified", "DecideGreaterThanCertified",
      "DecidePairLessCertified", "ObserveSlackLessThan",
      "ObserveSlackPairLess", "ObserveWeakLessThan", "ObserveWeakGreaterThan",
      "ObserveWeakPairLess"};
  for (const char* verb : verbs) {
    Expect(inner.calls[verb] == 1,
           std::string("TimedBounder forwards ") + verb + " once");
  }
  Expect(inner.calls.size() == std::size(verbs),
         "TimedBounder calls no other verb");
  Expect(timed.calls() == std::size(verbs), "TimedBounder counts every verb");
  Expect(timed.name() == "verb-log", "TimedBounder forwards name()");
  const std::vector<Span> recorded = spans.Spans();
  Expect(recorded.size() == 1 && recorded[0].bounds_s > 0.0,
         "bounder time is summed into the open span");
}

void TestOracleForwarding() {
  OracleLog inner;
  TimedOracle timed(&inner);
  const mp::IdPair pairs[2] = {{0, 1}, {2, 3}};
  double out[2] = {0.0, 0.0};
  mp::Status statuses[2];
  timed.Distance(0, 1);
  timed.BatchDistance(pairs, out);
  (void)timed.TryDistance(0, 1);
  (void)timed.TryBatchDistance(pairs, out, statuses);
  timed.set_batch_workers(3);
  for (const char* verb : {"Distance", "BatchDistance", "TryDistance",
                           "TryBatchDistance", "set_batch_workers"}) {
    Expect(inner.calls[verb] == 1,
           std::string("TimedOracle forwards ") + verb + " once");
  }
  Expect(timed.batch_workers() == 3, "TimedOracle forwards batch_workers()");
  Expect(timed.pairs() == 6 && timed.trips() == 4,
         "TimedOracle counts 6 pairs in 4 round trips");
}

bool SameIntegerStats(const mp::ResolverStats& a, const mp::ResolverStats& b,
                      std::string* diff) {
  bool same = true;
#define PERFBENCH_COMPARE(type, field)                          \
  if constexpr (std::is_integral_v<type>) {                     \
    if (a.field != b.field) {                                   \
      same = false;                                             \
      *diff += std::string(" ") + #field + ":" +                \
               std::to_string(a.field) + "!=" +                 \
               std::to_string(b.field);                         \
    }                                                           \
  }
  METRICPROX_RESOLVER_STATS_FIELDS(PERFBENCH_COMPARE)
#undef PERFBENCH_COMPARE
  return same;
}

void TestEquivalence(const std::string& name, const WorkloadOptions& options) {
  std::unique_ptr<Workload> workload = MakeWorkload(name, options);
  const Rep plain = workload->RunOnce(nullptr);
  SpanRecorder spans;
  const Rep traced = workload->RunOnce(&spans);
  const Reference reference = workload->BuildReference();

  Expect(plain.ops > 0 && plain.op_digests.size() == plain.ops,
         name + ": undecorated run produced every output");
  Expect(traced.op_digests == plain.op_digests,
         name + ": decorated outputs equal undecorated outputs");
  std::string diff;
  Expect(SameIntegerStats(plain.stats, traced.stats, &diff),
         name + ": identical integer ResolverStats" + diff);
  Expect(traced.session_calls == plain.session_calls,
         name + ": identical per-session oracle_calls");
  Expect(plain.identity_ok && traced.identity_ok,
         name + ": comparison counter identity holds");
  Expect(traced.bounds_calls > 0 && spans.size() > 0,
         name + ": decorated run recorded bounder calls and spans");
  bool matches = true;
  for (size_t k = 0; k < plain.op_digests.size(); ++k) {
    const size_t slot = plain.op_keys.empty() ? k : plain.op_keys[k];
    matches = matches && plain.op_digests[k] == reference.op_digests[slot];
  }
  Expect(matches, name + ": outputs equal the oracle-only reference");
  if (!reference.unshared_calls.empty()) {
    Expect(plain.session_calls == reference.unshared_calls,
           name + ": per-session oracle_calls equal unshared runs");
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::WorkloadOptions;
  perfbench::TestBounderForwarding();
  perfbench::TestOracleForwarding();
  const std::string work_dir = argc > 1 ? argv[1] : "perfbench-selftest";
  perfbench::TestEquivalence("knn-vec", WorkloadOptions{7, 200, work_dir});
  perfbench::TestEquivalence("mst-dna", WorkloadOptions{7, 120, work_dir});
  perfbench::TestEquivalence("serve-road", WorkloadOptions{7, 200, work_dir});
  std::filesystem::remove_all(work_dir);
  std::printf("%s: %d failure(s)\n",
              perfbench::g_failures == 0 ? "OK" : "FAILED",
              perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
