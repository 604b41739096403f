// Decision-transcript pin: every comparison verb's observable behaviour —
// outputs, integer counters, certificate counters, failure status and the
// full trace — frozen across the matrix
//   workload (one per verb family) x scheme x policy x weak x transport,
// with audit on for every scalar-transport row. A change to the resolver's
// decision pipeline that reorders a trace event, moves a counter or changes
// a single answer shows up here as a row mismatch; the test prints the
// mismatching rows in the table's own syntax.
//
// Workloads and the verbs they drive:
//   prim       PrimMst      FilterLessThan (+inf thresholds, batch sweep)
//   prim_lazy  PrimMstLazy  PairLess
//   boruvka    BoruvkaMst   ProvenGreaterThan (incl. +inf) and
//                           ProvenGreaterOrEqual
//   knn        BuildKnnGraph  Bounds and ProvenGreaterThan
//   pam        PamCluster   LessThan
//
// The budget rows cap the oracle at half the workload calls of the matching
// exact row (the cap is part of the row key), so they exercise forced slack
// and, where no finite interval is left, the ResourceExhausted failure.
// kernel_dispatch is left out of the pinned fields: it is the SIMD tier
// gauge, and the transcript must not depend on the tier.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "algo/boruvka.h"
#include "algo/knn_graph.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "bounds/scheme.h"
#include "core/stats.h"
#include "data/datasets.h"
#include "harness/experiment.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace metricprox {
namespace {

/// 64-bit FNV-1a over the decision-relevant fields of every event: kind,
/// ids, count and the bit patterns of threshold/lb/ub/value. seq, t_ns,
/// seconds and span ids are clock- or allocation-dependent and skipped.
/// Also tallies the +inf short-circuit decisions, which the counters alone
/// cannot tell apart from scheme decisions.
class DigestTraceSink final : public TraceSink {
 public:
  void Emit(const TraceEvent& e) override {
    std::lock_guard<std::mutex> lock(mu_);
    Mix(static_cast<uint64_t>(e.kind), 1);
    Mix(e.i, 4);
    Mix(e.j, 4);
    Mix(e.count, 8);
    for (const double v : {e.threshold, e.lb, e.ub, e.value}) {
      Mix(std::bit_cast<uint64_t>(v), 8);
    }
    if (e.kind == TraceEventKind::kDecidedByBounds &&
        e.threshold == kInfDistance) {
      ++inf_decisions_;
    }
  }

  uint64_t digest() const { return hash_; }
  uint64_t inf_decisions() const { return inf_decisions_; }

 private:
  void Mix(uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      hash_ ^= (value >> (8 * b)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::mutex mu_;
  uint64_t hash_ = 0xcbf29ce484222325ull;
  uint64_t inf_decisions_ = 0;
};

/// One pinned row. `stats` lists the nonzero integer ResolverStats fields
/// (kernel_dispatch excluded) as `name=value`, in declaration order; every
/// field not listed is pinned to zero.
struct PinRow {
  const char* key;
  const char* status;
  uint64_t checksum_bits;
  uint64_t inf_decisions;
  uint64_t trace_digest;
  const char* stats;
};

struct Actual {
  std::string key;
  std::string status;
  uint64_t checksum_bits = 0;
  std::string stats;
  uint64_t inf_decisions = 0;
  uint64_t trace_digest = 0;
  ResolverStats raw;
  uint64_t workload_calls = 0;  // oracle calls after construction
};

std::string IntegerStats(const ResolverStats& s) {
  std::string out;
  auto add = [&out](const char* name, uint64_t value) {
    if (value == 0 || std::string(name) == "kernel_dispatch") return;
    if (!out.empty()) out += ' ';
    out += std::string(name) + "=" + std::to_string(value);
  };
#define METRICPROX_PIN_FIELD(type, name)                     \
  if constexpr (std::is_same_v<type, uint64_t>) {            \
    add(#name, s.name);                                      \
  }
  METRICPROX_RESOLVER_STATS_FIELDS(METRICPROX_PIN_FIELD)
#undef METRICPROX_PIN_FIELD
  return out;
}

std::string FormatRow(const Actual& a) {
  char head[512];
  std::snprintf(head, sizeof(head),
                "    {\"%s\", \"%s\",\n     0x%016llxull, %llu, 0x%016llxull,",
                a.key.c_str(), a.status.c_str(),
                static_cast<unsigned long long>(a.checksum_bits),
                static_cast<unsigned long long>(a.inf_decisions),
                static_cast<unsigned long long>(a.trace_digest));
  // The stats string wraps into adjacent literals of at most ~70 columns.
  std::string row = head;
  std::string line;
  size_t begin = 0;
  while (begin <= a.stats.size()) {
    size_t end = a.stats.find(' ', begin);
    if (end == std::string::npos) end = a.stats.size();
    const std::string word = a.stats.substr(begin, end - begin + 1);
    if (!line.empty() && line.size() + word.size() > 68) {
      row += "\n     \"" + line + "\"";
      line.clear();
    }
    line += word;
    begin = end + 1;
  }
  return row + "\n     \"" + line + "\"},";
}

struct WorkloadCase {
  const char* name;
  Workload run;
};

std::vector<WorkloadCase> Workloads() {
  return {
      {"prim", [](BoundedResolver* r) { return PrimMst(r).total_weight; }},
      {"prim_lazy",
       [](BoundedResolver* r) { return PrimMstLazy(r).total_weight; }},
      {"boruvka",
       [](BoundedResolver* r) { return BoruvkaMst(r).total_weight; }},
      {"knn",
       [](BoundedResolver* r) {
         double sum = 0.0;
         for (const auto& row : BuildKnnGraph(r, KnnGraphOptions{3})) {
           for (const KnnNeighbor& nb : row) sum += nb.distance * (nb.id + 1);
         }
         return sum;
       }},
      {"pam",
       [](BoundedResolver* r) {
         PamOptions options;
         options.num_medoids = 3;
         const ClusteringResult c = PamCluster(r, options);
         double sum = c.total_deviation;
         for (const ObjectId m : c.medoids) sum = sum * 31.0 + m;
         return sum;
       }},
  };
}

struct SchemeCase {
  const char* name;
  SchemeKind kind;
  bool bootstrap;
  bool small;  // n = 8 instead of 32 (DFT solves an LP per decision)
};

const SchemeCase kSchemes[] = {
    {"tri_boot", SchemeKind::kTri, true, false},
    {"splub", SchemeKind::kSplub, false, false},
    {"laesa", SchemeKind::kLaesa, false, false},
    {"dft", SchemeKind::kDft, false, true},
};

Actual RunRow(const Dataset& dataset, const WorkloadCase& workload,
              const SchemeCase& scheme, const std::string& key, double eps,
              uint64_t budget, bool weak, bool batch, bool audit) {
  DigestTraceSink sink;
  Telemetry telemetry;
  telemetry.sink = &sink;
  WorkloadConfig config;
  config.scheme = scheme.kind;
  config.bootstrap = scheme.bootstrap;
  config.max_distance = dataset.max_distance;
  config.seed = 5;
  config.batch_transport = batch;
  config.eps = eps;
  config.oracle_budget = budget;
  config.weak_alpha = weak ? 1.5 : 0.0;
  config.audit = audit;
  config.telemetry = &telemetry;
  const StatusOr<WorkloadResult> result =
      TryRunWorkload(dataset.oracle.get(), config, workload.run);

  Actual a;
  a.key = key;
  a.status = std::string(StatusCodeToString(result.status().code()));
  if (result.ok()) {
    a.checksum_bits = std::bit_cast<uint64_t>(result->value);
    a.raw = result->stats;
    a.stats = IntegerStats(result->stats);
    a.workload_calls = result->total_calls - result->construction_calls;
  }
  a.inf_decisions = sink.inf_decisions();
  a.trace_digest = sink.digest();
  return a;
}

std::vector<Actual> RunMatrixOnce() {
  const Dataset large = MakeClusteredEuclidean(32, 2, 4, 0.05, 9);
  const Dataset small = MakeClusteredEuclidean(8, 2, 2, 0.05, 9);
  std::vector<Actual> rows;
  for (const WorkloadCase& workload : Workloads()) {
    for (const SchemeCase& scheme : kSchemes) {
      const Dataset& dataset = scheme.small ? small : large;
      for (const bool weak : {false, true}) {
        for (const bool batch : {true, false}) {
          const bool audit = !batch;
          const std::string suffix = std::string(weak ? "/weak" : "/strong") +
                                     (batch ? "/batch" : "/scalar/audit");
          const std::string base =
              std::string(workload.name) + "/" + scheme.name;
          const Actual exact =
              RunRow(dataset, workload, scheme, base + "/exact" + suffix, 0.0,
                     0, weak, batch, audit);
          rows.push_back(exact);
          rows.push_back(RunRow(dataset, workload, scheme,
                                base + "/eps" + suffix, 0.05, 0, weak, batch,
                                audit));
          const uint64_t budget =
              std::max<uint64_t>(1, exact.workload_calls / 2);
          rows.push_back(RunRow(dataset, workload, scheme,
                                base + "/eps+b" + std::to_string(budget) +
                                    suffix,
                                0.05, budget, weak, batch, audit));
        }
      }
    }
  }
  return rows;
}

/// The matrix runs once per test binary; both tests read the same rows.
const std::vector<Actual>& Matrix() {
  static const std::vector<Actual> rows = RunMatrixOnce();
  return rows;
}

// Generated from the resolver this test was introduced against; a
// behaviour-neutral refactor must reproduce it verbatim.
const PinRow kExpected[] = {
    {"prim/tri_boot/exact/strong/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0x1c61cd2b14497c3eull,
     "oracle_calls=352 decided_by_bounds=256 decided_by_cache=114 "
     "decided_by_oracle=126 comparisons=496 bound_queries=351 "
     "batch_calls=29 batch_resolved_pairs=207"},
    {"prim/tri_boot/eps/strong/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0x9a782e51ecd4329full,
     "oracle_calls=341 decided_by_bounds=254 decided_by_cache=114 "
     "decided_by_oracle=107 decided_by_slack=21 comparisons=496 "
     "bound_queries=479 batch_calls=29 batch_resolved_pairs=196"},
    {"prim/tri_boot/eps+b103/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x022d8f38f4a0537bull,
     ""},
    {"prim/tri_boot/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x8df588b32577189dull,
     "oracle_calls=352 decided_by_bounds=256 decided_by_cache=114 "
     "decided_by_oracle=126 comparisons=496 bound_queries=351 "
     "certs_emitted=225 certs_verified=225"},
    {"prim/tri_boot/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0xd4219fc955741918ull,
     "oracle_calls=341 decided_by_bounds=254 decided_by_cache=114 "
     "decided_by_oracle=107 decided_by_slack=21 comparisons=496 "
     "bound_queries=479 certs_emitted=244 certs_verified=244"},
    {"prim/tri_boot/eps+b103/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 31, 0xa98defdb7421cfdfull,
     ""},
    {"prim/tri_boot/exact/weak/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xe43e669efd44cfd9ull,
     "oracle_calls=350 decided_by_bounds=256 decided_by_cache=114 "
     "decided_by_oracle=98 decided_by_weak=28 weak_calls=126 "
     "comparisons=496 bound_queries=477 batch_calls=37 "
     "batch_resolved_pairs=205"},
    {"prim/tri_boot/eps/weak/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xc6befc50bcc63902ull,
     "oracle_calls=340 decided_by_bounds=254 decided_by_cache=114 "
     "decided_by_oracle=80 decided_by_slack=21 decided_by_weak=27 "
     "weak_calls=128 comparisons=496 bound_queries=479 batch_calls=37 "
     "batch_resolved_pairs=195"},
    {"prim/tri_boot/eps+b102/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 31, 0xe4085a14919f18caull,
     ""},
    {"prim/tri_boot/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x115e95f70a60181eull,
     "oracle_calls=350 decided_by_bounds=256 decided_by_cache=114 "
     "decided_by_oracle=98 decided_by_weak=28 weak_calls=126 "
     "comparisons=496 bound_queries=477 certs_emitted=253 "
     "certs_verified=253"},
    {"prim/tri_boot/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x53e8d4907e7137fdull,
     "oracle_calls=340 decided_by_bounds=254 decided_by_cache=114 "
     "decided_by_oracle=80 decided_by_slack=21 decided_by_weak=27 "
     "weak_calls=128 comparisons=496 bound_queries=479 certs_emitted=271 "
     "certs_verified=271"},
    {"prim/tri_boot/eps+b102/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 31, 0xef2c871a8c0248fbull,
     ""},
    {"prim/splub/exact/strong/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xaad2d77895a461ebull,
     "oracle_calls=361 decided_by_bounds=166 decided_by_oracle=330 "
     "comparisons=496 bound_queries=465 batch_calls=29 "
     "batch_resolved_pairs=361"},
    {"prim/splub/eps/strong/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xc2c1827d5378c222ull,
     "oracle_calls=361 decided_by_bounds=162 decided_by_oracle=330 "
     "decided_by_slack=4 comparisons=496 bound_queries=799 batch_calls=29 "
     "batch_resolved_pairs=361"},
    {"prim/splub/eps+b180/strong/batch", "OK",
     0x402ffe174c1055c9ull, 31, 0x806b19961f30b5ecull,
     "oracle_calls=180 decided_by_bounds=56 decided_by_oracle=149 "
     "decided_by_slack=291 budget_exhausted=289 comparisons=496 "
     "bound_queries=905 batch_calls=7 batch_resolved_pairs=180"},
    {"prim/splub/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x20edaa383434a748ull,
     "oracle_calls=361 decided_by_bounds=166 decided_by_oracle=330 "
     "comparisons=496 bound_queries=465 certs_emitted=135 "
     "certs_verified=135"},
    {"prim/splub/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0xdde0d6db218bdf24ull,
     "oracle_calls=361 decided_by_bounds=162 decided_by_oracle=330 "
     "decided_by_slack=4 comparisons=496 bound_queries=799 "
     "certs_emitted=135 certs_verified=135"},
    {"prim/splub/eps+b180/strong/scalar/audit", "OK",
     0x402ffe174c1055c9ull, 31, 0xc6aa0c6f2358b7e8ull,
     "oracle_calls=180 decided_by_bounds=56 decided_by_oracle=149 "
     "decided_by_slack=291 budget_exhausted=289 comparisons=496 "
     "bound_queries=905 certs_emitted=316 certs_verified=316"},
    {"prim/splub/exact/weak/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xa8b32adeb5d816e6ull,
     "oracle_calls=355 decided_by_bounds=161 decided_by_oracle=273 "
     "decided_by_weak=62 weak_calls=335 comparisons=496 bound_queries=800 "
     "batch_calls=46 batch_resolved_pairs=355"},
    {"prim/splub/eps/weak/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xe69f1349896ae674ull,
     "oracle_calls=354 decided_by_bounds=157 decided_by_oracle=272 "
     "decided_by_slack=4 decided_by_weak=63 weak_calls=339 "
     "comparisons=496 bound_queries=804 batch_calls=46 "
     "batch_resolved_pairs=354"},
    {"prim/splub/eps+b177/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x368a4c48c8575863ull,
     ""},
    {"prim/splub/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x17db1893e804f7cfull,
     "oracle_calls=355 decided_by_bounds=161 decided_by_oracle=273 "
     "decided_by_weak=62 weak_calls=335 comparisons=496 bound_queries=800 "
     "certs_emitted=192 certs_verified=192"},
    {"prim/splub/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x5a210da6bef05a19ull,
     "oracle_calls=354 decided_by_bounds=157 decided_by_oracle=272 "
     "decided_by_slack=4 decided_by_weak=63 weak_calls=339 "
     "comparisons=496 bound_queries=804 certs_emitted=193 "
     "certs_verified=193"},
    {"prim/splub/eps+b177/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x4f9e6fcd519c3393ull,
     ""},
    {"prim/laesa/exact/strong/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0x3dc1a828b14a7f03ull,
     "oracle_calls=366 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=140 comparisons=496 bound_queries=351 "
     "batch_calls=30 batch_resolved_pairs=221"},
    {"prim/laesa/eps/strong/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0xc7f5b6283a29d68eull,
     "oracle_calls=357 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=125 decided_by_slack=15 comparisons=496 "
     "bound_queries=491 batch_calls=30 batch_resolved_pairs=212"},
    {"prim/laesa/eps+b110/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x5adb167f5fa3393eull,
     ""},
    {"prim/laesa/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0x52a9d0227c389ab0ull,
     "oracle_calls=366 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=140 comparisons=496 bound_queries=351 "
     "certs_emitted=211 certs_verified=211"},
    {"prim/laesa/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0xdd6ee00300a0475full,
     "oracle_calls=357 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=125 decided_by_slack=15 comparisons=496 "
     "bound_queries=491 certs_emitted=226 certs_verified=226"},
    {"prim/laesa/eps+b110/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x1cf154af7d7f69d0ull,
     ""},
    {"prim/laesa/exact/weak/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0x0f77a3997364e8b3ull,
     "oracle_calls=362 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=110 decided_by_weak=30 weak_calls=140 "
     "comparisons=496 bound_queries=491 batch_calls=38 "
     "batch_resolved_pairs=217"},
    {"prim/laesa/eps/weak/batch", "OK",
     0x4003bb7bbb535cddull, 31, 0x1e41328567c260daull,
     "oracle_calls=353 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=95 decided_by_slack=15 decided_by_weak=30 "
     "weak_calls=140 comparisons=496 bound_queries=491 batch_calls=38 "
     "batch_resolved_pairs=208"},
    {"prim/laesa/eps+b108/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x75d83f6ad7a35b98ull,
     ""},
    {"prim/laesa/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0xd9418846f9d5798full,
     "oracle_calls=362 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=110 decided_by_weak=30 weak_calls=140 "
     "comparisons=496 bound_queries=491 certs_emitted=241 "
     "certs_verified=241"},
    {"prim/laesa/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 31, 0xe46191c53a329c28ull,
     "oracle_calls=353 decided_by_bounds=242 decided_by_cache=114 "
     "decided_by_oracle=95 decided_by_slack=15 decided_by_weak=30 "
     "weak_calls=140 comparisons=496 bound_queries=491 certs_emitted=256 "
     "certs_verified=256"},
    {"prim/laesa/eps+b108/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 31, 0x95195ea8fd52ed3dull,
     ""},
    {"prim/dft/exact/strong/batch", "OK",
     0x3feb746484f30588ull, 7, 0xb679d14d6f6137e2ull,
     "oracle_calls=25 decided_by_bounds=10 decided_by_oracle=18 "
     "comparisons=28 bound_queries=21 batch_calls=7 "
     "batch_resolved_pairs=25"},
    {"prim/dft/eps/strong/batch", "OK",
     0x3feb746484f30588ull, 7, 0x51b17c7644a988ecull,
     "oracle_calls=25 decided_by_bounds=10 decided_by_oracle=18 "
     "comparisons=28 bound_queries=39 batch_calls=7 "
     "batch_resolved_pairs=25"},
    {"prim/dft/eps+b12/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 7, 0x878826697f2732f6ull,
     ""},
    {"prim/dft/exact/strong/scalar/audit", "OK",
     0x3feb746484f30588ull, 7, 0x27b9fd2234363193ull,
     "oracle_calls=25 decided_by_bounds=10 decided_by_oracle=18 "
     "comparisons=28 bound_queries=21 certs_emitted=3 certs_verified=3"},
    {"prim/dft/eps/strong/scalar/audit", "OK",
     0x3feb746484f30588ull, 7, 0x9d1da57a60e60ee5ull,
     "oracle_calls=25 decided_by_bounds=10 decided_by_oracle=18 "
     "comparisons=28 bound_queries=39 certs_emitted=3 certs_verified=3"},
    {"prim/dft/eps+b12/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 7, 0x44e56cd942d6bc27ull,
     ""},
    {"prim/dft/exact/weak/batch", "OK",
     0x3feb746484f30588ull, 7, 0x5da506178f7721d8ull,
     "oracle_calls=24 decided_by_bounds=10 decided_by_oracle=13 "
     "decided_by_weak=5 weak_calls=18 comparisons=28 bound_queries=39 "
     "batch_calls=8 batch_resolved_pairs=24"},
    {"prim/dft/eps/weak/batch", "OK",
     0x3feb746484f30588ull, 7, 0xb8ed40095b47b1e2ull,
     "oracle_calls=24 decided_by_bounds=10 decided_by_oracle=13 "
     "decided_by_weak=5 weak_calls=18 comparisons=28 bound_queries=39 "
     "batch_calls=8 batch_resolved_pairs=24"},
    {"prim/dft/eps+b12/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 7, 0xea3f6ff3a89c5907ull,
     ""},
    {"prim/dft/exact/weak/scalar/audit", "OK",
     0x3feb746484f30588ull, 7, 0x9c2b41ce585a0f90ull,
     "oracle_calls=24 decided_by_bounds=10 decided_by_oracle=13 "
     "decided_by_weak=5 weak_calls=18 comparisons=28 bound_queries=39 "
     "certs_emitted=8 certs_verified=8"},
    {"prim/dft/eps/weak/scalar/audit", "OK",
     0x3feb746484f30588ull, 7, 0xa65aefe826fc54daull,
     "oracle_calls=24 decided_by_bounds=10 decided_by_oracle=13 "
     "decided_by_weak=5 weak_calls=18 comparisons=28 bound_queries=39 "
     "certs_emitted=8 certs_verified=8"},
    {"prim/dft/eps+b12/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 7, 0x7c2e6a5afb3ed583ull,
     ""},
    {"prim_lazy/tri_boot/exact/strong/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x65f99a1742b7145dull,
     "oracle_calls=328 decided_by_bounds=321 decided_by_cache=457 "
     "decided_by_oracle=152 comparisons=930 bound_queries=473"},
    {"prim_lazy/tri_boot/eps/strong/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x84a24355b2779cf1ull,
     "oracle_calls=286 decided_by_bounds=349 decided_by_cache=419 "
     "decided_by_oracle=123 decided_by_slack=39 comparisons=930 "
     "bound_queries=720"},
    {"prim_lazy/tri_boot/eps+b91/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x2f87c114a1fe5928ull,
     ""},
    {"prim_lazy/tri_boot/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x65f99a1742b7145dull,
     "oracle_calls=328 decided_by_bounds=321 decided_by_cache=457 "
     "decided_by_oracle=152 comparisons=930 bound_queries=473 "
     "certs_emitted=321 certs_verified=321"},
    {"prim_lazy/tri_boot/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x84a24355b2779cf1ull,
     "oracle_calls=286 decided_by_bounds=349 decided_by_cache=419 "
     "decided_by_oracle=123 decided_by_slack=39 comparisons=930 "
     "bound_queries=720 certs_emitted=388 certs_verified=388"},
    {"prim_lazy/tri_boot/eps+b91/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x2f87c114a1fe5928ull,
     ""},
    {"prim_lazy/tri_boot/exact/weak/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x5b9f5574fcb39bc4ull,
     "oracle_calls=318 decided_by_bounds=366 decided_by_cache=387 "
     "decided_by_oracle=128 decided_by_weak=49 weak_calls=230 "
     "comparisons=930 bound_queries=773"},
    {"prim_lazy/tri_boot/eps/weak/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x1df5403ead9eb020ull,
     "oracle_calls=276 decided_by_bounds=389 decided_by_cache=353 "
     "decided_by_oracle=99 decided_by_slack=39 decided_by_weak=50 "
     "weak_calls=258 comparisons=930 bound_queries=835"},
    {"prim_lazy/tri_boot/eps+b86/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xb6f96bda7e84dbddull,
     ""},
    {"prim_lazy/tri_boot/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x5b9f5574fcb39bc4ull,
     "oracle_calls=318 decided_by_bounds=366 decided_by_cache=387 "
     "decided_by_oracle=128 decided_by_weak=49 weak_calls=230 "
     "comparisons=930 bound_queries=773 certs_emitted=415 "
     "certs_verified=415"},
    {"prim_lazy/tri_boot/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x1df5403ead9eb020ull,
     "oracle_calls=276 decided_by_bounds=389 decided_by_cache=353 "
     "decided_by_oracle=99 decided_by_slack=39 decided_by_weak=50 "
     "weak_calls=258 comparisons=930 bound_queries=835 certs_emitted=478 "
     "certs_verified=478"},
    {"prim_lazy/tri_boot/eps+b86/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xb6f96bda7e84dbddull,
     ""},
    {"prim_lazy/splub/exact/strong/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0xe00d427f7e295e59ull,
     "oracle_calls=361 decided_by_bounds=135 decided_by_cache=435 "
     "decided_by_oracle=360 comparisons=930 bound_queries=495"},
    {"prim_lazy/splub/eps/strong/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0xdbd6fe5d28a847a4ull,
     "oracle_calls=361 decided_by_bounds=131 decided_by_cache=435 "
     "decided_by_oracle=360 decided_by_slack=4 comparisons=930 "
     "bound_queries=860"},
    {"prim_lazy/splub/eps+b180/strong/batch", "OK",
     0x402ff9ddba4edf37ull, 0, 0xe55c03098cbffe9full,
     "oracle_calls=180 decided_by_bounds=25 decided_by_cache=435 "
     "decided_by_oracle=179 decided_by_slack=291 budget_exhausted=289 "
     "comparisons=930 bound_queries=966"},
    {"prim_lazy/splub/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0xe00d427f7e295e59ull,
     "oracle_calls=361 decided_by_bounds=135 decided_by_cache=435 "
     "decided_by_oracle=360 comparisons=930 bound_queries=495 "
     "certs_emitted=135 certs_verified=135"},
    {"prim_lazy/splub/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0xdbd6fe5d28a847a4ull,
     "oracle_calls=361 decided_by_bounds=131 decided_by_cache=435 "
     "decided_by_oracle=360 decided_by_slack=4 comparisons=930 "
     "bound_queries=860 certs_emitted=135 certs_verified=135"},
    {"prim_lazy/splub/eps+b180/strong/scalar/audit", "OK",
     0x402ff9ddba4edf37ull, 0, 0xe55c03098cbffe9full,
     "oracle_calls=180 decided_by_bounds=25 decided_by_cache=435 "
     "decided_by_oracle=179 decided_by_slack=291 budget_exhausted=289 "
     "comparisons=930 bound_queries=966 certs_emitted=316 "
     "certs_verified=316"},
    {"prim_lazy/splub/exact/weak/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x794b11385936fc53ull,
     "oracle_calls=347 decided_by_bounds=180 decided_by_cache=346 "
     "decided_by_oracle=297 decided_by_weak=107 weak_calls=464 "
     "comparisons=930 bound_queries=1048"},
    {"prim_lazy/splub/eps/weak/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0xb22e396d8c5bf1fbull,
     "oracle_calls=346 decided_by_bounds=177 decided_by_cache=346 "
     "decided_by_oracle=296 decided_by_slack=3 decided_by_weak=108 "
     "weak_calls=467 comparisons=930 bound_queries=1051"},
    {"prim_lazy/splub/eps+b173/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xf1226c5484b911b8ull,
     ""},
    {"prim_lazy/splub/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x794b11385936fc53ull,
     "oracle_calls=347 decided_by_bounds=180 decided_by_cache=346 "
     "decided_by_oracle=297 decided_by_weak=107 weak_calls=464 "
     "comparisons=930 bound_queries=1048 certs_emitted=287 "
     "certs_verified=287"},
    {"prim_lazy/splub/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0xb22e396d8c5bf1fbull,
     "oracle_calls=346 decided_by_bounds=177 decided_by_cache=346 "
     "decided_by_oracle=296 decided_by_slack=3 decided_by_weak=108 "
     "weak_calls=467 comparisons=930 bound_queries=1051 certs_emitted=288 "
     "certs_verified=288"},
    {"prim_lazy/splub/eps+b173/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xf1226c5484b911b8ull,
     ""},
    {"prim_lazy/laesa/exact/strong/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0xc578af9b87a64ff2ull,
     "oracle_calls=349 decided_by_bounds=295 decided_by_cache=469 "
     "decided_by_oracle=166 comparisons=930 bound_queries=461"},
    {"prim_lazy/laesa/eps/strong/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x158e6b5eb5c3a9bdull,
     "oracle_calls=304 decided_by_bounds=330 decided_by_cache=426 "
     "decided_by_oracle=139 decided_by_slack=35 comparisons=930 "
     "bound_queries=727"},
    {"prim_lazy/laesa/eps+b102/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x8992b0f1f9ffcefaull,
     ""},
    {"prim_lazy/laesa/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0xc578af9b87a64ff2ull,
     "oracle_calls=349 decided_by_bounds=295 decided_by_cache=469 "
     "decided_by_oracle=166 comparisons=930 bound_queries=461 "
     "certs_emitted=295 certs_verified=295"},
    {"prim_lazy/laesa/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x158e6b5eb5c3a9bdull,
     "oracle_calls=304 decided_by_bounds=330 decided_by_cache=426 "
     "decided_by_oracle=139 decided_by_slack=35 comparisons=930 "
     "bound_queries=727 certs_emitted=365 certs_verified=365"},
    {"prim_lazy/laesa/eps+b102/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x8992b0f1f9ffcefaull,
     ""},
    {"prim_lazy/laesa/exact/weak/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x6d39adce4e452f6full,
     "oracle_calls=338 decided_by_bounds=335 decided_by_cache=400 "
     "decided_by_oracle=141 decided_by_weak=54 weak_calls=256 "
     "comparisons=930 bound_queries=786"},
    {"prim_lazy/laesa/eps/weak/batch", "OK",
     0x4003bb7bbb535cddull, 0, 0x05fd3b34053b9fe5ull,
     "oracle_calls=293 decided_by_bounds=367 decided_by_cache=360 "
     "decided_by_oracle=114 decided_by_slack=35 decided_by_weak=54 "
     "weak_calls=275 comparisons=930 bound_queries=845"},
    {"prim_lazy/laesa/eps+b96/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x447392dead8a93ddull,
     ""},
    {"prim_lazy/laesa/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x6d39adce4e452f6full,
     "oracle_calls=338 decided_by_bounds=335 decided_by_cache=400 "
     "decided_by_oracle=141 decided_by_weak=54 weak_calls=256 "
     "comparisons=930 bound_queries=786 certs_emitted=389 "
     "certs_verified=389"},
    {"prim_lazy/laesa/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cddull, 0, 0x05fd3b34053b9fe5ull,
     "oracle_calls=293 decided_by_bounds=367 decided_by_cache=360 "
     "decided_by_oracle=114 decided_by_slack=35 decided_by_weak=54 "
     "weak_calls=275 comparisons=930 bound_queries=845 certs_emitted=456 "
     "certs_verified=456"},
    {"prim_lazy/laesa/eps+b96/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x447392dead8a93ddull,
     ""},
    {"prim_lazy/dft/exact/strong/batch", "OK",
     0x3feb746484f30588ull, 0, 0x782b748ba35b0819ull,
     "oracle_calls=25 decided_by_bounds=3 decided_by_cache=15 "
     "decided_by_oracle=24 comparisons=42 bound_queries=27"},
    {"prim_lazy/dft/eps/strong/batch", "OK",
     0x3feb746484f30588ull, 0, 0x782b748ba35b0819ull,
     "oracle_calls=25 decided_by_bounds=3 decided_by_cache=15 "
     "decided_by_oracle=24 comparisons=42 bound_queries=52"},
    {"prim_lazy/dft/eps+b12/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x94dfb37add0ae0f0ull,
     ""},
    {"prim_lazy/dft/exact/strong/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x782b748ba35b0819ull,
     "oracle_calls=25 decided_by_bounds=3 decided_by_cache=15 "
     "decided_by_oracle=24 comparisons=42 bound_queries=27 "
     "certs_emitted=3 certs_verified=3"},
    {"prim_lazy/dft/eps/strong/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x782b748ba35b0819ull,
     "oracle_calls=25 decided_by_bounds=3 decided_by_cache=15 "
     "decided_by_oracle=24 comparisons=42 bound_queries=52 "
     "certs_emitted=3 certs_verified=3"},
    {"prim_lazy/dft/eps+b12/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x94dfb37add0ae0f0ull,
     ""},
    {"prim_lazy/dft/exact/weak/batch", "OK",
     0x3feb746484f30588ull, 0, 0x165fadd8134b33a6ull,
     "oracle_calls=24 decided_by_bounds=5 decided_by_cache=10 "
     "decided_by_oracle=17 decided_by_weak=10 weak_calls=35 "
     "comparisons=42 bound_queries=67"},
    {"prim_lazy/dft/eps/weak/batch", "OK",
     0x3feb746484f30588ull, 0, 0x165fadd8134b33a6ull,
     "oracle_calls=24 decided_by_bounds=5 decided_by_cache=10 "
     "decided_by_oracle=17 decided_by_weak=10 weak_calls=35 "
     "comparisons=42 bound_queries=67"},
    {"prim_lazy/dft/eps+b12/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xf827083dd4c21cafull,
     ""},
    {"prim_lazy/dft/exact/weak/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x165fadd8134b33a6ull,
     "oracle_calls=24 decided_by_bounds=5 decided_by_cache=10 "
     "decided_by_oracle=17 decided_by_weak=10 weak_calls=35 "
     "comparisons=42 bound_queries=67 certs_emitted=15 certs_verified=14 "
     "certs_failed=1"},
    {"prim_lazy/dft/eps/weak/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x165fadd8134b33a6ull,
     "oracle_calls=24 decided_by_bounds=5 decided_by_cache=10 "
     "decided_by_oracle=17 decided_by_weak=10 weak_calls=35 "
     "comparisons=42 bound_queries=67 certs_emitted=15 certs_verified=14 "
     "certs_failed=1"},
    {"prim_lazy/dft/eps+b12/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xf827083dd4c21cafull,
     ""},
    {"boruvka/tri_boot/exact/strong/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd55dfac54469c3e8ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/tri_boot/eps/strong/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd55dfac54469c3e8ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/tri_boot/eps+b27/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xe957ce8216497ff0ull,
     ""},
    {"boruvka/tri_boot/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0xf43560825c81d295ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/tri_boot/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0xf43560825c81d295ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/tri_boot/eps+b27/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x88657c2ad4b63ed8ull,
     ""},
    {"boruvka/tri_boot/exact/weak/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd55dfac54469c3e8ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/tri_boot/eps/weak/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd55dfac54469c3e8ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/tri_boot/eps+b27/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xe957ce8216497ff0ull,
     ""},
    {"boruvka/tri_boot/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0xf43560825c81d295ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/tri_boot/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0xf43560825c81d295ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/tri_boot/eps+b27/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x88657c2ad4b63ed8ull,
     ""},
    {"boruvka/splub/exact/strong/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0x180726dbea2a4eaaull,
     "oracle_calls=171 decided_by_bounds=1867 undecided=203 "
     "comparisons=2070 bound_queries=2070 batch_calls=11 "
     "batch_resolved_pairs=171"},
    {"boruvka/splub/eps/strong/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0x180726dbea2a4eaaull,
     "oracle_calls=171 decided_by_bounds=1867 undecided=203 "
     "comparisons=2070 bound_queries=2070 batch_calls=11 "
     "batch_resolved_pairs=171"},
    {"boruvka/splub/eps+b85/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x7edd9109601c868eull,
     ""},
    {"boruvka/splub/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x4220a15747caf2c8ull,
     "oracle_calls=171 decided_by_bounds=1867 undecided=203 "
     "comparisons=2070 bound_queries=2070 certs_emitted=1867 "
     "certs_verified=1867"},
    {"boruvka/splub/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x4220a15747caf2c8ull,
     "oracle_calls=171 decided_by_bounds=1867 undecided=203 "
     "comparisons=2070 bound_queries=2070 certs_emitted=1867 "
     "certs_verified=1867"},
    {"boruvka/splub/eps+b85/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x0419d1392a9bd7cbull,
     ""},
    {"boruvka/splub/exact/weak/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xe8720958119463c1ull,
     "oracle_calls=170 decided_by_bounds=1866 undecided=201 "
     "decided_by_weak=3 weak_calls=204 comparisons=2070 "
     "bound_queries=2274 batch_calls=11 batch_resolved_pairs=170"},
    {"boruvka/splub/eps/weak/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xe8720958119463c1ull,
     "oracle_calls=170 decided_by_bounds=1866 undecided=201 "
     "decided_by_weak=3 weak_calls=204 comparisons=2070 "
     "bound_queries=2274 batch_calls=11 batch_resolved_pairs=170"},
    {"boruvka/splub/eps+b85/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x19ef16dd08c92021ull,
     ""},
    {"boruvka/splub/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x0e866ff984ce70a1ull,
     "oracle_calls=170 decided_by_bounds=1866 undecided=201 "
     "decided_by_weak=3 weak_calls=204 comparisons=2070 "
     "bound_queries=2274 certs_emitted=1869 certs_verified=1869"},
    {"boruvka/splub/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x0e866ff984ce70a1ull,
     "oracle_calls=170 decided_by_bounds=1866 undecided=201 "
     "decided_by_weak=3 weak_calls=204 comparisons=2070 "
     "bound_queries=2274 certs_emitted=1869 certs_verified=1869"},
    {"boruvka/splub/eps+b85/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xad76b90e099bac22ull,
     ""},
    {"boruvka/laesa/exact/strong/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd3eb4e8b051faaa0ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/laesa/eps/strong/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd3eb4e8b051faaa0ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/laesa/eps+b27/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x98c63cf8f3031f7cull,
     ""},
    {"boruvka/laesa/exact/strong/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x732104bd4e3c1795ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/laesa/eps/strong/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x732104bd4e3c1795ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 "
     "comparisons=1742 bound_queries=1742 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/laesa/eps+b27/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xbc63fde88be71ec4ull,
     ""},
    {"boruvka/laesa/exact/weak/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd3eb4e8b051faaa0ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/laesa/eps/weak/batch", "OK",
     0x4003bb7bbb535cdfull, 0, 0xd3eb4e8b051faaa0ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 batch_calls=10 "
     "batch_resolved_pairs=55"},
    {"boruvka/laesa/eps+b27/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x98c63cf8f3031f7cull,
     ""},
    {"boruvka/laesa/exact/weak/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x732104bd4e3c1795ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/laesa/eps/weak/scalar/audit", "OK",
     0x4003bb7bbb535cdfull, 0, 0x732104bd4e3c1795ull,
     "oracle_calls=200 decided_by_bounds=1661 undecided=81 weak_calls=81 "
     "comparisons=1742 bound_queries=1823 certs_emitted=1661 "
     "certs_verified=1661"},
    {"boruvka/laesa/eps+b27/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xbc63fde88be71ec4ull,
     ""},
    {"boruvka/dft/exact/strong/batch", "OK",
     0x3feb746484f30588ull, 0, 0x12852eae73c003fbull,
     "oracle_calls=28 decided_by_bounds=13 undecided=29 comparisons=42 "
     "bound_queries=42 batch_calls=2 batch_resolved_pairs=28"},
    {"boruvka/dft/eps/strong/batch", "OK",
     0x3feb746484f30588ull, 0, 0x12852eae73c003fbull,
     "oracle_calls=28 decided_by_bounds=13 undecided=29 comparisons=42 "
     "bound_queries=42 batch_calls=2 batch_resolved_pairs=28"},
    {"boruvka/dft/eps+b14/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xe8c5c2d4dbf75b5bull,
     ""},
    {"boruvka/dft/exact/strong/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x769e2c78cfd72b93ull,
     "oracle_calls=28 decided_by_bounds=13 undecided=29 comparisons=42 "
     "bound_queries=42 certs_emitted=13 certs_verified=13"},
    {"boruvka/dft/eps/strong/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x769e2c78cfd72b93ull,
     "oracle_calls=28 decided_by_bounds=13 undecided=29 comparisons=42 "
     "bound_queries=42 certs_emitted=13 certs_verified=13"},
    {"boruvka/dft/eps+b14/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x1eb35db66a6752c6ull,
     ""},
    {"boruvka/dft/exact/weak/batch", "OK",
     0x3feb746484f30588ull, 0, 0xf9933bb5022db48aull,
     "oracle_calls=26 decided_by_bounds=15 undecided=25 decided_by_weak=4 "
     "weak_calls=29 comparisons=44 bound_queries=73 batch_calls=2 "
     "batch_resolved_pairs=26"},
    {"boruvka/dft/eps/weak/batch", "OK",
     0x3feb746484f30588ull, 0, 0xf9933bb5022db48aull,
     "oracle_calls=26 decided_by_bounds=15 undecided=25 decided_by_weak=4 "
     "weak_calls=29 comparisons=44 bound_queries=73 batch_calls=2 "
     "batch_resolved_pairs=26"},
    {"boruvka/dft/eps+b13/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x1ba6281689137d4eull,
     ""},
    {"boruvka/dft/exact/weak/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x87f9eddd98448d81ull,
     "oracle_calls=26 decided_by_bounds=15 undecided=25 decided_by_weak=4 "
     "weak_calls=29 comparisons=44 bound_queries=73 certs_emitted=19 "
     "certs_verified=19"},
    {"boruvka/dft/eps/weak/scalar/audit", "OK",
     0x3feb746484f30588ull, 0, 0x87f9eddd98448d81ull,
     "oracle_calls=26 decided_by_bounds=15 undecided=25 decided_by_weak=4 "
     "weak_calls=29 comparisons=44 bound_queries=73 certs_emitted=19 "
     "certs_verified=19"},
    {"boruvka/dft/eps+b13/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x58525dde31fb4ec3ull,
     ""},
    {"knn/tri_boot/exact/strong/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0x66b714d079786c10ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 batch_calls=25 "
     "batch_resolved_pairs=46"},
    {"knn/tri_boot/eps/strong/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0x66b714d079786c10ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 batch_calls=25 "
     "batch_resolved_pairs=46"},
    {"knn/tri_boot/eps+b23/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x68476912a4497182ull,
     ""},
    {"knn/tri_boot/exact/strong/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0xc568a8923e34fcc3ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 certs_emitted=617 "
     "certs_verified=617"},
    {"knn/tri_boot/eps/strong/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0xc568a8923e34fcc3ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 certs_emitted=617 "
     "certs_verified=617"},
    {"knn/tri_boot/eps+b23/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x146eacadc274d334ull,
     ""},
    {"knn/tri_boot/exact/weak/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0x66b714d079786c10ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "batch_calls=25 batch_resolved_pairs=46"},
    {"knn/tri_boot/eps/weak/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0x66b714d079786c10ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "batch_calls=25 batch_resolved_pairs=46"},
    {"knn/tri_boot/eps+b23/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x68476912a4497182ull,
     ""},
    {"knn/tri_boot/exact/weak/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0xc568a8923e34fcc3ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "certs_emitted=617 certs_verified=617"},
    {"knn/tri_boot/eps/weak/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0xc568a8923e34fcc3ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "certs_emitted=617 certs_verified=617"},
    {"knn/tri_boot/eps+b23/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x146eacadc274d334ull,
     ""},
    {"knn/splub/exact/strong/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0xc2b278ef608a09e1ull,
     "oracle_calls=120 decided_by_bounds=769 decided_by_cache=67 "
     "undecided=60 comparisons=896 bound_queries=1718 batch_calls=40 "
     "batch_resolved_pairs=120"},
    {"knn/splub/eps/strong/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0xc2b278ef608a09e1ull,
     "oracle_calls=120 decided_by_bounds=769 decided_by_cache=67 "
     "undecided=60 comparisons=896 bound_queries=1718 batch_calls=40 "
     "batch_resolved_pairs=120"},
    {"knn/splub/eps+b60/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xbba3e2ad11b20e8bull,
     ""},
    {"knn/splub/exact/strong/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0x141da53a00890dc1ull,
     "oracle_calls=120 decided_by_bounds=769 decided_by_cache=67 "
     "undecided=60 comparisons=896 bound_queries=1718 certs_emitted=775 "
     "certs_verified=775"},
    {"knn/splub/eps/strong/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0x141da53a00890dc1ull,
     "oracle_calls=120 decided_by_bounds=769 decided_by_cache=67 "
     "undecided=60 comparisons=896 bound_queries=1718 certs_emitted=775 "
     "certs_verified=775"},
    {"knn/splub/eps+b60/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x2d584eeb6f3a3eebull,
     ""},
    {"knn/splub/exact/weak/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0x8a31d14045053910ull,
     "oracle_calls=115 decided_by_bounds=761 decided_by_cache=64 "
     "undecided=55 decided_by_weak=16 weak_calls=65 comparisons=896 "
     "bound_queries=1789 batch_calls=39 batch_resolved_pairs=115"},
    {"knn/splub/eps/weak/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0x8a31d14045053910ull,
     "oracle_calls=115 decided_by_bounds=761 decided_by_cache=64 "
     "undecided=55 decided_by_weak=16 weak_calls=65 comparisons=896 "
     "bound_queries=1789 batch_calls=39 batch_resolved_pairs=115"},
    {"knn/splub/eps+b57/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x9d86f29249baed03ull,
     ""},
    {"knn/splub/exact/weak/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0xfda9d172ca451ddcull,
     "oracle_calls=115 decided_by_bounds=761 decided_by_cache=64 "
     "undecided=55 decided_by_weak=16 weak_calls=65 comparisons=896 "
     "bound_queries=1789 certs_emitted=783 certs_verified=783"},
    {"knn/splub/eps/weak/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0xfda9d172ca451ddcull,
     "oracle_calls=115 decided_by_bounds=761 decided_by_cache=64 "
     "undecided=55 decided_by_weak=16 weak_calls=65 comparisons=896 "
     "bound_queries=1789 certs_emitted=783 certs_verified=783"},
    {"knn/splub/eps+b57/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xf93af738fc54108bull,
     ""},
    {"knn/laesa/exact/strong/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0xf311ee95e98b3ed0ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 batch_calls=25 "
     "batch_resolved_pairs=46"},
    {"knn/laesa/eps/strong/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0xf311ee95e98b3ed0ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 batch_calls=25 "
     "batch_resolved_pairs=46"},
    {"knn/laesa/eps+b23/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x68476912a4497182ull,
     ""},
    {"knn/laesa/exact/strong/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0x77ace2e3c98b8053ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 certs_emitted=617 "
     "certs_verified=617"},
    {"knn/laesa/eps/strong/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0x77ace2e3c98b8053ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 comparisons=896 bound_queries=1283 certs_emitted=617 "
     "certs_verified=617"},
    {"knn/laesa/eps+b23/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x146eacadc274d334ull,
     ""},
    {"knn/laesa/exact/weak/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0xf311ee95e98b3ed0ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "batch_calls=25 batch_resolved_pairs=46"},
    {"knn/laesa/eps/weak/batch", "OK",
     0x4054d01ec0a57363ull, 0, 0xf311ee95e98b3ed0ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "batch_calls=25 batch_resolved_pairs=46"},
    {"knn/laesa/eps+b23/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x68476912a4497182ull,
     ""},
    {"knn/laesa/exact/weak/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0x77ace2e3c98b8053ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "certs_emitted=617 certs_verified=617"},
    {"knn/laesa/eps/weak/scalar/audit", "OK",
     0x4054d01ec0a57363ull, 0, 0x77ace2e3c98b8053ull,
     "oracle_calls=191 decided_by_bounds=617 decided_by_cache=276 "
     "undecided=3 weak_calls=3 comparisons=896 bound_queries=1286 "
     "certs_emitted=617 certs_verified=617"},
    {"knn/laesa/eps+b23/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x146eacadc274d334ull,
     ""},
    {"knn/dft/exact/strong/batch", "OK",
     0x4029669c258245f3ull, 0, 0xc37a94ba05421ff5ull,
     "oracle_calls=28 decided_by_bounds=10 decided_by_cache=12 "
     "undecided=10 comparisons=32 bound_queries=58 batch_calls=10 "
     "batch_resolved_pairs=28"},
    {"knn/dft/eps/strong/batch", "OK",
     0x4029669c258245f3ull, 0, 0xc37a94ba05421ff5ull,
     "oracle_calls=28 decided_by_bounds=10 decided_by_cache=12 "
     "undecided=10 comparisons=32 bound_queries=58 batch_calls=10 "
     "batch_resolved_pairs=28"},
    {"knn/dft/eps+b14/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xd1bba55e46102ff2ull,
     ""},
    {"knn/dft/exact/strong/scalar/audit", "OK",
     0x4029669c258245f3ull, 0, 0xce50f564ab6680e1ull,
     "oracle_calls=28 decided_by_bounds=10 decided_by_cache=12 "
     "undecided=10 comparisons=32 bound_queries=58 certs_emitted=13 "
     "certs_verified=13"},
    {"knn/dft/eps/strong/scalar/audit", "OK",
     0x4029669c258245f3ull, 0, 0xce50f564ab6680e1ull,
     "oracle_calls=28 decided_by_bounds=10 decided_by_cache=12 "
     "undecided=10 comparisons=32 bound_queries=58 certs_emitted=13 "
     "certs_verified=13"},
    {"knn/dft/eps+b14/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x81289381d63bfa92ull,
     ""},
    {"knn/dft/exact/weak/batch", "OK",
     0x4029669c258245f3ull, 0, 0x1a19f81a0f442a7aull,
     "oracle_calls=28 decided_by_bounds=7 decided_by_cache=12 "
     "undecided=11 decided_by_weak=2 weak_calls=5 comparisons=32 "
     "bound_queries=62 batch_calls=11 batch_resolved_pairs=28"},
    {"knn/dft/eps/weak/batch", "OK",
     0x4029669c258245f3ull, 0, 0x1a19f81a0f442a7aull,
     "oracle_calls=28 decided_by_bounds=7 decided_by_cache=12 "
     "undecided=11 decided_by_weak=2 weak_calls=5 comparisons=32 "
     "bound_queries=62 batch_calls=11 batch_resolved_pairs=28"},
    {"knn/dft/eps+b14/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x2b5c952723db426dull,
     ""},
    {"knn/dft/exact/weak/scalar/audit", "OK",
     0x4029669c258245f3ull, 0, 0x11389812d88e465dull,
     "oracle_calls=28 decided_by_bounds=7 decided_by_cache=12 "
     "undecided=11 decided_by_weak=2 weak_calls=5 comparisons=32 "
     "bound_queries=62 certs_emitted=17 certs_verified=17"},
    {"knn/dft/eps/weak/scalar/audit", "OK",
     0x4029669c258245f3ull, 0, 0x11389812d88e465dull,
     "oracle_calls=28 decided_by_bounds=7 decided_by_cache=12 "
     "undecided=11 decided_by_weak=2 weak_calls=5 comparisons=32 "
     "bound_queries=62 certs_emitted=17 certs_verified=17"},
    {"knn/dft/eps+b14/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x68b5d9c45cc8123bull,
     ""},
    {"pam/tri_boot/exact/strong/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0xc2a520507df49ce8ull,
     "oracle_calls=431 decided_by_bounds=1436 decided_by_cache=4327 "
     "decided_by_oracle=23 comparisons=5786 bound_queries=2826 "
     "batch_calls=39 batch_resolved_pairs=125"},
    {"pam/tri_boot/eps/strong/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0xbfccfb611c6fef33ull,
     "oracle_calls=429 decided_by_bounds=1490 decided_by_cache=4269 "
     "decided_by_oracle=10 decided_by_slack=17 comparisons=5786 "
     "bound_queries=2911 batch_calls=35 batch_resolved_pairs=123"},
    {"pam/tri_boot/eps+b143/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x3baccbade3f319e5ull,
     ""},
    {"pam/tri_boot/exact/strong/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0xcefd50461fa39b2bull,
     "oracle_calls=431 decided_by_bounds=1436 decided_by_cache=4327 "
     "decided_by_oracle=23 comparisons=5786 bound_queries=2826 "
     "certs_emitted=1436 certs_verified=1436"},
    {"pam/tri_boot/eps/strong/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0xd6136c3d7dbc0a9aull,
     "oracle_calls=429 decided_by_bounds=1490 decided_by_cache=4269 "
     "decided_by_oracle=10 decided_by_slack=17 comparisons=5786 "
     "bound_queries=2911 certs_emitted=1507 certs_verified=1507"},
    {"pam/tri_boot/eps+b143/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x3baccbade3f319e5ull,
     ""},
    {"pam/tri_boot/exact/weak/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0x255cd1dacd863c72ull,
     "oracle_calls=431 decided_by_bounds=1436 decided_by_cache=4327 "
     "decided_by_oracle=19 decided_by_weak=4 weak_calls=23 "
     "comparisons=5786 bound_queries=2849 batch_calls=40 "
     "batch_resolved_pairs=125"},
    {"pam/tri_boot/eps/weak/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0x4463d0015d244c75ull,
     "oracle_calls=429 decided_by_bounds=1490 decided_by_cache=4269 "
     "decided_by_oracle=6 decided_by_slack=17 decided_by_weak=4 "
     "weak_calls=27 comparisons=5786 bound_queries=2911 batch_calls=36 "
     "batch_resolved_pairs=123"},
    {"pam/tri_boot/eps+b143/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x3baccbade3f319e5ull,
     ""},
    {"pam/tri_boot/exact/weak/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0x30bebe800090901cull,
     "oracle_calls=431 decided_by_bounds=1436 decided_by_cache=4327 "
     "decided_by_oracle=19 decided_by_weak=4 weak_calls=23 "
     "comparisons=5786 bound_queries=2849 certs_emitted=1440 "
     "certs_verified=1440"},
    {"pam/tri_boot/eps/weak/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0xea2586fc62fd8d51ull,
     "oracle_calls=429 decided_by_bounds=1490 decided_by_cache=4269 "
     "decided_by_oracle=6 decided_by_slack=17 decided_by_weak=4 "
     "weak_calls=27 comparisons=5786 bound_queries=2911 "
     "certs_emitted=1511 certs_verified=1511"},
    {"pam/tri_boot/eps+b143/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x3baccbade3f319e5ull,
     ""},
    {"pam/splub/exact/strong/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0x031e683124d6b022ull,
     "oracle_calls=418 decided_by_bounds=1778 decided_by_cache=4002 "
     "decided_by_oracle=46 comparisons=5826 bound_queries=3642 "
     "batch_calls=52 batch_resolved_pairs=165"},
    {"pam/splub/eps/strong/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0xb9dcb58189a5177eull,
     "oracle_calls=417 decided_by_bounds=1800 decided_by_cache=3978 "
     "decided_by_oracle=36 decided_by_slack=12 comparisons=5826 "
     "bound_queries=3714 batch_calls=49 batch_resolved_pairs=164"},
    {"pam/splub/eps+b209/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xaa64c26a46795241ull,
     ""},
    {"pam/splub/exact/strong/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0x7a9098c5f429558full,
     "oracle_calls=418 decided_by_bounds=1778 decided_by_cache=4002 "
     "decided_by_oracle=46 comparisons=5826 bound_queries=3642 "
     "certs_emitted=1778 certs_verified=1778"},
    {"pam/splub/eps/strong/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0xc8ae6bc83aa0bf7full,
     "oracle_calls=417 decided_by_bounds=1800 decided_by_cache=3978 "
     "decided_by_oracle=36 decided_by_slack=12 comparisons=5826 "
     "bound_queries=3714 certs_emitted=1812 certs_verified=1812"},
    {"pam/splub/eps+b209/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0xaa64c26a46795241ull,
     ""},
    {"pam/splub/exact/weak/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0x332f5659ee078e84ull,
     "oracle_calls=417 decided_by_bounds=1788 decided_by_cache=3991 "
     "decided_by_oracle=38 decided_by_weak=9 weak_calls=47 "
     "comparisons=5826 bound_queries=3700 batch_calls=52 "
     "batch_resolved_pairs=164"},
    {"pam/splub/eps/weak/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0xabd55a002acea424ull,
     "oracle_calls=416 decided_by_bounds=1810 decided_by_cache=3967 "
     "decided_by_oracle=28 decided_by_slack=12 decided_by_weak=9 "
     "weak_calls=49 comparisons=5826 bound_queries=3726 batch_calls=49 "
     "batch_resolved_pairs=163"},
    {"pam/splub/eps+b208/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x9427caf0fa983b79ull,
     ""},
    {"pam/splub/exact/weak/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0x221b6136d34abb80ull,
     "oracle_calls=417 decided_by_bounds=1788 decided_by_cache=3991 "
     "decided_by_oracle=38 decided_by_weak=9 weak_calls=47 "
     "comparisons=5826 bound_queries=3700 certs_emitted=1797 "
     "certs_verified=1797"},
    {"pam/splub/eps/weak/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0x5d99e0f102a36f9eull,
     "oracle_calls=416 decided_by_bounds=1810 decided_by_cache=3967 "
     "decided_by_oracle=28 decided_by_slack=12 decided_by_weak=9 "
     "weak_calls=49 comparisons=5826 bound_queries=3726 "
     "certs_emitted=1831 certs_verified=1831"},
    {"pam/splub/eps+b208/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x9427caf0fa983b79ull,
     ""},
    {"pam/laesa/exact/strong/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0xea96c90ca58f6d6cull,
     "oracle_calls=436 decided_by_bounds=1252 decided_by_cache=4486 "
     "decided_by_oracle=48 comparisons=5786 bound_queries=2630 "
     "batch_calls=42 batch_resolved_pairs=121"},
    {"pam/laesa/eps/strong/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0x53f28d6efaa6f9b0ull,
     "oracle_calls=435 decided_by_bounds=1273 decided_by_cache=4464 "
     "decided_by_oracle=41 decided_by_slack=8 comparisons=5786 "
     "bound_queries=2701 batch_calls=41 batch_resolved_pairs=120"},
    {"pam/laesa/eps+b145/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x37371870504f2611ull,
     ""},
    {"pam/laesa/exact/strong/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0x37a8d2d7c84b286bull,
     "oracle_calls=436 decided_by_bounds=1252 decided_by_cache=4486 "
     "decided_by_oracle=48 comparisons=5786 bound_queries=2630 "
     "certs_emitted=1252 certs_verified=1252"},
    {"pam/laesa/eps/strong/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0xeeb41ea163c47493ull,
     "oracle_calls=435 decided_by_bounds=1273 decided_by_cache=4464 "
     "decided_by_oracle=41 decided_by_slack=8 comparisons=5786 "
     "bound_queries=2701 certs_emitted=1281 certs_verified=1281"},
    {"pam/laesa/eps+b145/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x37371870504f2611ull,
     ""},
    {"pam/laesa/exact/weak/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0xe6b3c048a3b2879eull,
     "oracle_calls=436 decided_by_bounds=1252 decided_by_cache=4486 "
     "decided_by_oracle=42 decided_by_weak=6 weak_calls=48 "
     "comparisons=5786 bound_queries=2678 batch_calls=44 "
     "batch_resolved_pairs=121"},
    {"pam/laesa/eps/weak/batch", "OK",
     0x40ff5baa90372e1cull, 0, 0x3f6e44eee2eaf5f0ull,
     "oracle_calls=435 decided_by_bounds=1273 decided_by_cache=4464 "
     "decided_by_oracle=35 decided_by_slack=8 decided_by_weak=6 "
     "weak_calls=49 comparisons=5786 bound_queries=2701 batch_calls=43 "
     "batch_resolved_pairs=120"},
    {"pam/laesa/eps+b145/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x37371870504f2611ull,
     ""},
    {"pam/laesa/exact/weak/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0xbd94384141938a99ull,
     "oracle_calls=436 decided_by_bounds=1252 decided_by_cache=4486 "
     "decided_by_oracle=42 decided_by_weak=6 weak_calls=48 "
     "comparisons=5786 bound_queries=2678 certs_emitted=1258 "
     "certs_verified=1258"},
    {"pam/laesa/eps/weak/scalar/audit", "OK",
     0x40ff5baa90372e1cull, 0, 0x88c198ec67efc10bull,
     "oracle_calls=435 decided_by_bounds=1273 decided_by_cache=4464 "
     "decided_by_oracle=35 decided_by_slack=8 decided_by_weak=6 "
     "weak_calls=49 comparisons=5786 bound_queries=2701 "
     "certs_emitted=1287 certs_verified=1287"},
    {"pam/laesa/eps+b145/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x37371870504f2611ull,
     ""},
    {"pam/dft/exact/strong/batch", "OK",
     0x40cf77c3b65996e6ull, 0, 0x288f1636f552cb53ull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=4 comparisons=178 bound_queries=51 batch_calls=1 "
     "batch_resolved_pairs=1"},
    {"pam/dft/eps/strong/batch", "OK",
     0x40cf77c3b65996e6ull, 0, 0x288f1636f552cb53ull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=4 comparisons=178 bound_queries=55 batch_calls=1 "
     "batch_resolved_pairs=1"},
    {"pam/dft/eps+b14/strong/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x1de86f496381da80ull,
     ""},
    {"pam/dft/exact/strong/scalar/audit", "OK",
     0x40cf77c3b65996e6ull, 0, 0x53e766c3b9fe95ddull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=4 comparisons=178 bound_queries=51 "
     "certs_emitted=4 certs_verified=4"},
    {"pam/dft/eps/strong/scalar/audit", "OK",
     0x40cf77c3b65996e6ull, 0, 0x53e766c3b9fe95ddull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=4 comparisons=178 bound_queries=55 "
     "certs_emitted=4 certs_verified=4"},
    {"pam/dft/eps+b14/strong/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x1de86f496381da80ull,
     ""},
    {"pam/dft/exact/weak/batch", "OK",
     0x40cf77c3b65996e6ull, 0, 0x8098be0cb67969e8ull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=3 decided_by_weak=1 weak_calls=4 comparisons=178 "
     "bound_queries=55 batch_calls=1 batch_resolved_pairs=1"},
    {"pam/dft/eps/weak/batch", "OK",
     0x40cf77c3b65996e6ull, 0, 0x8098be0cb67969e8ull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=3 decided_by_weak=1 weak_calls=4 comparisons=178 "
     "bound_queries=55 batch_calls=1 batch_resolved_pairs=1"},
    {"pam/dft/eps+b14/weak/batch", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x1de86f496381da80ull,
     ""},
    {"pam/dft/exact/weak/scalar/audit", "OK",
     0x40cf77c3b65996e6ull, 0, 0x0e7e0414a176de52ull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=3 decided_by_weak=1 weak_calls=4 comparisons=178 "
     "bound_queries=55 certs_emitted=5 certs_verified=5"},
    {"pam/dft/eps/weak/scalar/audit", "OK",
     0x40cf77c3b65996e6ull, 0, 0x0e7e0414a176de52ull,
     "oracle_calls=28 decided_by_bounds=4 decided_by_cache=170 "
     "decided_by_oracle=3 decided_by_weak=1 weak_calls=4 comparisons=178 "
     "bound_queries=55 certs_emitted=5 certs_verified=5"},
    {"pam/dft/eps+b14/weak/scalar/audit", "ResourceExhausted",
     0x0000000000000000ull, 0, 0x1de86f496381da80ull,
     ""},
};

TEST(DecisionPinTest, TranscriptMatchesPinnedTable) {
  const std::vector<Actual>& rows = Matrix();
  const size_t expected = sizeof(kExpected) / sizeof(kExpected[0]);
  std::string mismatches;
  size_t mismatch_count = 0;
  for (size_t r = 0; r < rows.size(); ++r) {
    const Actual& a = rows[r];
    const bool match =
        r < expected && a.key == kExpected[r].key &&
        a.status == kExpected[r].status &&
        a.checksum_bits == kExpected[r].checksum_bits &&
        a.stats == kExpected[r].stats &&
        a.inf_decisions == kExpected[r].inf_decisions &&
        a.trace_digest == kExpected[r].trace_digest;
    if (!match) {
      ++mismatch_count;
      mismatches += FormatRow(a) + "\n";
    }
  }
  EXPECT_EQ(rows.size(), expected);
  EXPECT_EQ(mismatch_count, 0u) << "actual rows that differ from the table:\n"
                                << mismatches;
}

// The matrix is only a pin if it reaches every decision source: each must
// fire in at least one row.
TEST(DecisionPinTest, MatrixCoversEverySource) {
  uint64_t cache = 0, inf = 0, scheme = 0, weak = 0, slack = 0, forced = 0,
           oracle = 0, undecided = 0, failed = 0, certs = 0;
  for (const Actual& a : Matrix()) {
    inf += a.inf_decisions;
    if (a.status != "OK") ++failed;
    cache += a.raw.decided_by_cache;
    scheme += a.raw.decided_by_bounds - std::min(a.raw.decided_by_bounds,
                                                 a.inf_decisions);
    weak += a.raw.decided_by_weak;
    slack += a.raw.decided_by_slack - a.raw.budget_exhausted;
    forced += a.raw.budget_exhausted;
    oracle += a.raw.decided_by_oracle;
    undecided += a.raw.undecided;
    certs += a.raw.certs_emitted;
  }
  EXPECT_GT(cache, 0u);
  EXPECT_GT(inf, 0u);
  EXPECT_GT(scheme, 0u);
  EXPECT_GT(weak, 0u);
  EXPECT_GT(slack, 0u);
  EXPECT_GT(forced, 0u);
  EXPECT_GT(oracle, 0u);
  EXPECT_GT(undecided, 0u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(certs, 0u);
}

}  // namespace
}  // namespace metricprox
