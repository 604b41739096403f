// Kernel-tier equivalence: the runtime-dispatched SIMD bound kernels
// (core/simd.h) must be drop-in replacements for their scalar references —
// bit-identical intervals from the kernels themselves, and byte-identical
// outputs, decisions and counters from full workload runs under every tier
// the host supports. Two layers of pinning:
//
//  1. Direct kernel A/B: random operands through pivot_scan / tri_reduce /
//     batch_distance on every supported tier, compared to the scalar tier
//     as raw doubles (EXPECT_EQ, no tolerance). Lengths sweep across the
//     vector width so full blocks, tails and empty inputs are all hit.
//  2. The audit-matrix discipline of trace_equivalence_test: each
//     kNN/Prim/Borůvka/PAM x Tri/SPLUB/LAESA cell runs once per tier from
//     a fresh graph, and the scalar run's output blob and every decision
//     counter must match exactly. TLAESA rides along as a fifth scheme
//     since its base scan shares the pivot kernel.
//
// Tiers the hardware cannot execute are skipped (SetTier clamps), so the
// test is green on any host while proving as much as the host allows.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algo/boruvka.h"
#include "algo/knn_graph.h"
#include "algo/pam.h"
#include "algo/prim.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "bounds/tri.h"
#include "core/logging.h"
#include "core/simd.h"
#include "data/datasets.h"
#include "graph/partial_graph.h"

namespace metricprox {
namespace {

/// Restores the entry tier on scope exit so tier switches cannot leak into
/// other tests in the same process.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::SetTier(saved_); }

 private:
  simd::Tier saved_;
};

std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier : simd::kAllTiers) {
    if (tier <= simd::DetectedTier()) tiers.push_back(tier);
  }
  return tiers;
}

std::vector<double> RandomRow(std::mt19937_64* rng, size_t len) {
  std::uniform_real_distribution<double> dist(0.0, 2.0);
  std::vector<double> row(len);
  for (double& v : row) v = dist(*rng);
  // Sprinkle exact ties and zeros — the regime where a sloppy kernel's
  // -0.0 or NaN handling would surface.
  if (len > 2) {
    row[len / 2] = row[0];
    row[len - 1] = 0.0;
  }
  return row;
}

TEST(KernelBitIdentityTest, PivotScanMatchesScalarOnEveryTier) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  std::mt19937_64 rng(7);
  for (size_t len = 0; len <= 67; ++len) {
    const std::vector<double> a = RandomRow(&rng, len);
    const std::vector<double> b = RandomRow(&rng, len);
    const Interval want = scalar.pivot_scan(a.data(), b.data(), len);
    for (const simd::Tier tier : SupportedTiers()) {
      const Interval got =
          simd::KernelsForTier(tier).pivot_scan(a.data(), b.data(), len);
      EXPECT_EQ(got.lo, want.lo) << simd::TierName(tier) << " len=" << len;
      EXPECT_EQ(got.hi, want.hi) << simd::TierName(tier) << " len=" << len;
    }
  }
}

TEST(KernelBitIdentityTest, TriReduceMatchesScalarOnEveryTier) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  std::mt19937_64 rng(11);
  for (const double rho : {1.0, 2.0}) {
    const double inv_rho = 1.0 / rho;
    for (size_t len = 0; len <= 67; ++len) {
      const std::vector<double> di = RandomRow(&rng, len);
      const std::vector<double> dj = RandomRow(&rng, len);
      const Interval want =
          scalar.tri_reduce(di.data(), dj.data(), len, rho, inv_rho);
      for (const simd::Tier tier : SupportedTiers()) {
        const Interval got = simd::KernelsForTier(tier).tri_reduce(
            di.data(), dj.data(), len, rho, inv_rho);
        EXPECT_EQ(got.lo, want.lo)
            << simd::TierName(tier) << " len=" << len << " rho=" << rho;
        EXPECT_EQ(got.hi, want.hi)
            << simd::TierName(tier) << " len=" << len << " rho=" << rho;
      }
    }
  }
}

TEST(KernelBitIdentityTest, BatchDistanceMatchesScalarOnEveryTier) {
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  std::mt19937_64 rng(13);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  for (const size_t dim : {1u, 2u, 3u, 7u, 16u}) {
    const ObjectId n = 10;
    std::vector<double> points(static_cast<size_t>(n) * dim);
    for (double& v : points) v = coord(rng);
    for (const size_t count : {0u, 1u, 2u, 3u, 4u, 5u, 9u, 33u}) {
      std::vector<IdPair> pairs(count);
      for (IdPair& p : pairs) {
        p.i = static_cast<ObjectId>(rng() % n);
        p.j = static_cast<ObjectId>(rng() % n);
      }
      for (const simd::DistanceKind kind :
           {simd::DistanceKind::kL2, simd::DistanceKind::kSquaredL2,
            simd::DistanceKind::kL1, simd::DistanceKind::kLinf}) {
        std::vector<double> want(count, -1.0);
        scalar.batch_distance(points.data(), dim, pairs.data(), count,
                              want.data(), kind);
        for (const simd::Tier tier : SupportedTiers()) {
          std::vector<double> got(count, -2.0);
          simd::KernelsForTier(tier).batch_distance(
              points.data(), dim, pairs.data(), count, got.data(), kind);
          for (size_t k = 0; k < count; ++k) {
            EXPECT_EQ(got[k], want[k])
                << simd::TierName(tier) << " dim=" << dim
                << " count=" << count << " kind=" << static_cast<int>(kind)
                << " k=" << k;
          }
        }
      }
    }
  }
}

// The historical templated lambda walk over ForEachCommonNeighbor,
// verbatim: the reference every anchored TriBounder interval must match
// bit for bit.
Interval LambdaWalkTriBounds(const PartialDistanceGraph& graph, ObjectId i,
                             ObjectId j, double rho) {
  const double inv_rho = 1.0 / rho;
  double lb = 0.0;
  double ub = kInfDistance;
  graph.ForEachCommonNeighbor(i, j, [&](ObjectId, double di, double dj) {
    const double gap_ij = di * inv_rho - dj;
    const double gap_ji = dj * inv_rho - di;
    const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
    if (gap > lb) lb = gap;
    const double sum = rho * (di + dj);
    if (sum < ub) ub = sum;
  });
  if (lb > ub) lb = ub;
  return Interval{lb, ub};
}

void ExpectMatchesLambdaWalk(TriBounder* bounder,
                             const PartialDistanceGraph& graph, ObjectId i,
                             ObjectId j, const std::string& where) {
  const Interval want = LambdaWalkTriBounds(graph, i, j, bounder->rho());
  const Interval got = bounder->Bounds(i, j);
  EXPECT_EQ(got.lo, want.lo) << where << " (" << i << "," << j << ")";
  EXPECT_EQ(got.hi, want.hi) << where << " (" << i << "," << j << ")";
}

std::string TierLabel(simd::Tier tier, double rho) {
  return std::string(simd::TierName(tier)) + " rho=" + std::to_string(rho);
}

/// A partially resolved graph with overlapping neighborhoods.
void FillRandom(PartialDistanceGraph* graph, uint64_t seed, int keep_one_in) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(0.1, 1.0);
  for (ObjectId i = 0; i < graph->num_objects(); ++i) {
    for (ObjectId j = i + 1; j < graph->num_objects(); ++j) {
      if (rng() % keep_one_in != 0) continue;
      graph->Insert(i, j, dist(rng));
    }
  }
}

TEST(KernelBitIdentityTest, AnchoredTriBoundsMatchLambdaWalkOnEveryTier) {
  TierGuard guard;
  const ObjectId n = 24;
  PartialDistanceGraph graph(n);
  FillRandom(&graph, /*seed=*/17, /*keep_one_in=*/3);
  for (const double rho : {1.0, 2.0}) {
    for (const simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      const std::string where = TierLabel(tier, rho);
      TriBounder bounder(&graph, rho);
      // Fixed-endpoint sweeps: i stays anchored while j varies, and every
      // reversed call (j == anchor) takes the swap path.
      for (ObjectId i = 0; i < n; ++i) {
        for (ObjectId j = 0; j < n; ++j) {
          if (i == j) continue;
          ExpectMatchesLambdaWalk(&bounder, graph, i, j, where + " sweep");
          ExpectMatchesLambdaWalk(&bounder, graph, j, i, where + " swapped");
        }
      }
      // Random pairs: a re-anchor on nearly every call.
      std::mt19937_64 rng(29);
      for (int q = 0; q < 400; ++q) {
        const ObjectId i = static_cast<ObjectId>(rng() % n);
        const ObjectId j = static_cast<ObjectId>(rng() % n);
        if (i == j) continue;
        ExpectMatchesLambdaWalk(&bounder, graph, i, j, where + " random");
      }
    }
  }
}

TEST(KernelBitIdentityTest, AnchoredTriBoundsFollowAnchorGrowth) {
  TierGuard guard;
  const ObjectId n = 20;
  for (const double rho : {1.0, 2.0}) {
    for (const simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      const std::string where = TierLabel(tier, rho);
      PartialDistanceGraph graph(n);
      FillRandom(&graph, /*seed=*/5, /*keep_one_in=*/4);
      TriBounder bounder(&graph, rho);
      std::mt19937_64 rng(41);
      std::uniform_real_distribution<double> dist(0.1, 1.0);
      const ObjectId anchor = 3;
      for (int round = 0; round < 12; ++round) {
        for (ObjectId j = 0; j < n; ++j) {
          if (j != anchor) {
            ExpectMatchesLambdaWalk(&bounder, graph, anchor, j,
                                    where + " round " + std::to_string(round));
          }
        }
        // Grow the anchor between sweeps, alternating Insert and
        // InsertEdges, and sometimes with the anchor as the second
        // endpoint of the next call.
        std::vector<WeightedEdge> batch;
        const ObjectId start = static_cast<ObjectId>(rng() % n);
        for (ObjectId step = 0; step < n && batch.size() < 2; ++step) {
          const ObjectId other = (start + step) % n;
          if (other == anchor || graph.Has(anchor, other)) continue;
          batch.push_back(WeightedEdge{other, anchor, dist(rng)});
        }
        if (batch.empty()) break;
        if (round % 2 == 0) {
          for (const WeightedEdge& e : batch) graph.Insert(e.u, e.v, e.weight);
        } else {
          graph.InsertEdges(batch);
        }
        const ObjectId probe = (anchor + 1 + static_cast<ObjectId>(round)) % n;
        if (probe != anchor && !graph.Has(anchor, probe)) {
          ExpectMatchesLambdaWalk(&bounder, graph, probe, anchor,
                                  where + " grown, anchor as j");
        }
      }
    }
  }
}

TEST(KernelBitIdentityTest, AnchoredTriBoundsSurviveReanchoringBackAndForth) {
  TierGuard guard;
  const ObjectId n = 18;
  for (const double rho : {1.0, 2.0}) {
    for (const simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      const std::string where = TierLabel(tier, rho);
      PartialDistanceGraph graph(n);
      FillRandom(&graph, /*seed=*/9, /*keep_one_in=*/3);
      TriBounder bounder(&graph, rho);
      std::mt19937_64 rng(43);
      std::uniform_real_distribution<double> dist(0.1, 1.0);
      const ObjectId a = 2;
      const ObjectId b = 11;
      for (int round = 0; round < 10; ++round) {
        // Alternate anchors; stale entries of the previous anchor's row
        // would show up as phantom triangles here.
        for (ObjectId j = 0; j < n; ++j) {
          if (j != a) ExpectMatchesLambdaWalk(&bounder, graph, a, j, where);
          if (j != b) ExpectMatchesLambdaWalk(&bounder, graph, b, j, where);
        }
        // Grow whichever anchor is not current, then come back to it.
        const ObjectId grown = round % 2 == 0 ? a : b;
        const ObjectId other = static_cast<ObjectId>(rng() % n);
        if (other != grown && !graph.Has(grown, other)) {
          graph.Insert(grown, other, dist(rng));
        }
      }
    }
  }
}

TEST(KernelBitIdentityTest, AnchoredTriBoundsOfEmptyIntersectionAreVacuous) {
  TierGuard guard;
  for (const double rho : {1.0, 2.0}) {
    for (const simd::Tier tier : SupportedTiers()) {
      simd::SetTier(tier);
      const std::string where = TierLabel(tier, rho);
      // 0-1-2 is a path and 3-4 a disjoint edge; 5 is isolated. (0, 3)
      // and (1, 4) share no neighbor, and an isolated anchor has no row.
      PartialDistanceGraph graph(6);
      graph.Insert(0, 1, 0.5);
      graph.Insert(1, 2, 0.25);
      graph.Insert(3, 4, 0.75);
      TriBounder bounder(&graph, rho);
      for (const auto& [i, j] : std::vector<std::pair<ObjectId, ObjectId>>{
               {0, 3}, {3, 0}, {1, 4}, {5, 0}, {0, 5}, {5, 4}}) {
        const Interval got = bounder.Bounds(i, j);
        EXPECT_EQ(got.lo, 0.0) << where << " (" << i << "," << j << ")";
        EXPECT_EQ(got.hi, kInfDistance) << where << " (" << i << "," << j
                                        << ")";
        ExpectMatchesLambdaWalk(&bounder, graph, i, j, where);
      }
      // The one real triangle still appears right after the empty ones.
      ExpectMatchesLambdaWalk(&bounder, graph, 0, 2, where);
      EXPECT_EQ(bounder.Bounds(0, 2).hi, rho * (0.5 + 0.25)) << where;
    }
  }
}

TEST(KernelDispatchTest, EnvOverrideParsesAndClamps) {
  TierGuard guard;
  EXPECT_EQ(simd::TierName(simd::Tier::kScalar), "scalar");
  EXPECT_EQ(simd::TierName(simd::Tier::kSse2), "sse2");
  EXPECT_EQ(simd::TierName(simd::Tier::kAvx2), "avx2");
  ASSERT_TRUE(simd::ParseTier("scalar").ok());
  ASSERT_TRUE(simd::ParseTier("sse2").ok());
  ASSERT_TRUE(simd::ParseTier("avx2").ok());
  EXPECT_FALSE(simd::ParseTier("auto").ok());  // "auto" is the caller's job
  EXPECT_FALSE(simd::ParseTier("AVX2").ok());
  EXPECT_FALSE(simd::ParseTier("").ok());
  // SetTier clamps to the hardware and reports what it applied.
  const simd::Tier applied = simd::SetTier(simd::Tier::kAvx2);
  EXPECT_LE(applied, simd::DetectedTier());
  EXPECT_EQ(applied, simd::ActiveTier());
  EXPECT_EQ(simd::SetTier(simd::Tier::kScalar), simd::Tier::kScalar);
  EXPECT_EQ(simd::ActiveTier(), simd::Tier::kScalar);
}

// ---------------------------------------------------------------------------
// Workload matrix: full runs per tier, compared to the scalar run.
// ---------------------------------------------------------------------------

struct RunOutput {
  std::vector<double> blob;  // flattened algorithm output
  ResolverStats stats;
};

RunOutput RunOnce(const Dataset& dataset, const std::string& algorithm,
                  SchemeKind scheme, uint64_t seed) {
  PartialDistanceGraph graph(dataset.oracle->num_objects());
  BoundedResolver resolver(dataset.oracle.get(), &graph);
  // Batch transport so vector datasets route undecided pairs through the
  // batch-distance kernel, not just the bounder-side kernels.
  resolver.SetBatchTransport(true);

  RunOutput run;
  auto push_edge = [&run](const WeightedEdge& e) {
    run.blob.push_back(e.u);
    run.blob.push_back(e.v);
    run.blob.push_back(e.weight);
  };
  std::unique_ptr<Bounder> bounder_keepalive;
  const StatusOr<double> outcome =
      resolver.RunFallible([&](BoundedResolver* r) -> double {
        SchemeOptions options;
        options.seed = seed;
        options.max_distance = dataset.max_distance;
        StatusOr<std::unique_ptr<Bounder>> bounder =
            MakeAndAttachScheme(scheme, r, options);
        CHECK(bounder.ok()) << bounder.status();
        bounder_keepalive = std::move(bounder).value();

        if (algorithm == "prim") {
          for (const WeightedEdge& e : PrimMst(r).edges) push_edge(e);
        } else if (algorithm == "boruvka") {
          for (const WeightedEdge& e : BoruvkaMst(r).edges) push_edge(e);
        } else if (algorithm == "knn") {
          for (const auto& row : BuildKnnGraph(r, KnnGraphOptions{3})) {
            for (const KnnNeighbor& nb : row) {
              run.blob.push_back(nb.id);
              run.blob.push_back(nb.distance);
            }
          }
        } else {  // pam
          PamOptions options_pam;
          options_pam.num_medoids = 4;
          const ClusteringResult c = PamCluster(r, options_pam);
          for (const ObjectId m : c.medoids) run.blob.push_back(m);
          for (const uint32_t a : c.assignment) run.blob.push_back(a);
          run.blob.push_back(c.total_deviation);
        }
        return 0.0;
      });
  CHECK(outcome.ok()) << outcome.status();
  run.stats = resolver.stats();
  return run;
}

void ExpectIdentical(const RunOutput& scalar, const RunOutput& tiered,
                     simd::Tier tier, const std::string& context) {
  // Byte-identical outputs: compare the raw doubles, not within tolerance.
  ASSERT_EQ(scalar.blob.size(), tiered.blob.size()) << context;
  for (size_t k = 0; k < scalar.blob.size(); ++k) {
    EXPECT_EQ(scalar.blob[k], tiered.blob[k])
        << context << " blob[" << k << "]";
  }
  const ResolverStats& a = scalar.stats;
  const ResolverStats& b = tiered.stats;
  EXPECT_EQ(a.oracle_calls, b.oracle_calls) << context;
  EXPECT_EQ(a.comparisons, b.comparisons) << context;
  EXPECT_EQ(a.decided_by_bounds, b.decided_by_bounds) << context;
  EXPECT_EQ(a.decided_by_cache, b.decided_by_cache) << context;
  EXPECT_EQ(a.decided_by_oracle, b.decided_by_oracle) << context;
  EXPECT_EQ(a.undecided, b.undecided) << context;
  EXPECT_EQ(a.bound_queries, b.bound_queries) << context;
  EXPECT_EQ(a.batch_calls, b.batch_calls) << context;
  EXPECT_EQ(a.batch_resolved_pairs, b.batch_resolved_pairs) << context;
  // The one field that SHOULD differ: it records the executed tier.
  EXPECT_EQ(a.kernel_dispatch,
            static_cast<uint64_t>(simd::Tier::kScalar)) << context;
  EXPECT_EQ(b.kernel_dispatch, static_cast<uint64_t>(tier)) << context;
}

Dataset MakeNamedDataset(const std::string& name, ObjectId n, uint64_t seed) {
  if (name == "sf") return MakeSfPoiLike(n, seed);
  return MakeRandomMetric(n, seed);
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(KernelEquivalenceTest, TierSwitchIsByteIdentical) {
  TierGuard guard;
  const std::string dataset_name = std::get<0>(GetParam());
  const std::string algorithm = std::get<1>(GetParam());
  const uint64_t seed = 42;
  // "sf" is a vector-space (Euclidean) oracle, so its batch path exercises
  // the batch-distance kernel; "random" is a matrix oracle, isolating the
  // bounder-side kernels.
  const ObjectId n = dataset_name == "sf" ? 40 : 32;
  const Dataset dataset = MakeNamedDataset(dataset_name, n, seed);

  for (const SchemeKind scheme :
       {SchemeKind::kTri, SchemeKind::kSplub, SchemeKind::kLaesa,
        SchemeKind::kTlaesa}) {
    const std::string scheme_name(SchemeKindName(scheme));
    ASSERT_EQ(simd::SetTier(simd::Tier::kScalar), simd::Tier::kScalar);
    const RunOutput scalar = RunOnce(dataset, algorithm, scheme, seed);
    for (const simd::Tier tier : SupportedTiers()) {
      if (tier == simd::Tier::kScalar) continue;
      ASSERT_EQ(simd::SetTier(tier), tier);
      const RunOutput tiered = RunOnce(dataset, algorithm, scheme, seed);
      ExpectIdentical(scalar, tiered, tier,
                      dataset_name + "/" + algorithm + "/" + scheme_name +
                          "/" + std::string(simd::TierName(tier)));
    }
  }
  if (SupportedTiers().size() == 1) {
    GTEST_SKIP() << "host has no SIMD tier; scalar-only run proves nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AuditMatrix, KernelEquivalenceTest,
    ::testing::Combine(::testing::Values("sf", "random"),
                       ::testing::Values("prim", "boruvka", "knn", "pam")),
    [](const ::testing::TestParamInfo<KernelEquivalenceTest::ParamType>&
           info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

}  // namespace
}  // namespace metricprox
