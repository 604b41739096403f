// Google-benchmark microbenchmarks for the per-operation costs behind
// Figure 3c: a single bound query / update under each scheme, plus the
// graph and Dijkstra substrate operations they decompose into — and a
// per-kernel scalar-vs-dispatched A/B (pivot-scan, tri-merge reduction,
// batch-distance) emitted through BenchJson so the SIMD dispatch layer's
// payoff is tracked run over run.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <vector>

#include "bench/common.h"
#include "bounds/adm.h"
#include "core/simd.h"
#include "bounds/laesa.h"
#include "bounds/pivots.h"
#include "bounds/splub.h"
#include "bounds/tlaesa.h"
#include "bounds/tri.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "data/datasets.h"
#include "graph/dijkstra.h"

namespace metricprox {
namespace {

constexpr ObjectId kN = 256;

// Shared fixture state: an SF-like dataset with ~8% of pairs resolved.
struct Fixture {
  Fixture() : dataset(MakeSfPoiLike(kN, 42)), graph(kN) {
    BoundedResolver resolver(dataset.oracle.get(), &graph);
    BootstrapWithLandmarks(&resolver, DefaultNumLandmarks(kN), 1);
    std::mt19937_64 rng(2);
    while (graph.num_edges() <
           static_cast<size_t>(kN) * (kN - 1) / 2 / 12) {
      const ObjectId i = static_cast<ObjectId>(rng() % kN);
      const ObjectId j = static_cast<ObjectId>(rng() % kN);
      if (i == j || graph.Has(i, j)) continue;
      resolver.Distance(i, j);
    }
  }

  std::pair<ObjectId, ObjectId> RandomUnknownPair(std::mt19937_64* rng) const {
    while (true) {
      const ObjectId i = static_cast<ObjectId>((*rng)() % kN);
      const ObjectId j = static_cast<ObjectId>((*rng)() % kN);
      if (i != j && !graph.Has(i, j)) return {i, j};
    }
  }

  Dataset dataset;
  PartialDistanceGraph graph;
};

Fixture& SharedFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_TriBoundsQuery(benchmark::State& state) {
  Fixture& f = SharedFixture();
  TriBounder tri(&f.graph);
  std::mt19937_64 rng(3);
  for (auto _ : state) {
    const auto [i, j] = f.RandomUnknownPair(&rng);
    benchmark::DoNotOptimize(tri.Bounds(i, j));
  }
}
BENCHMARK(BM_TriBoundsQuery);

// The access pattern of every sweep (kNN candidate ordering, Prim's key
// updates, range search): one endpoint fixed while the other runs over
// every other node. Reported per bound, so it sits beside the random-pair
// row above.
void BM_TriBoundsSweep(benchmark::State& state) {
  Fixture& f = SharedFixture();
  TriBounder tri(&f.graph);
  std::mt19937_64 rng(13);
  int64_t bounds = 0;
  for (auto _ : state) {
    const ObjectId i = static_cast<ObjectId>(rng() % kN);
    for (ObjectId j = 0; j < kN; ++j) {
      if (j == i || f.graph.Has(i, j)) continue;
      benchmark::DoNotOptimize(tri.Bounds(i, j));
      ++bounds;
    }
  }
  state.SetItemsProcessed(bounds);
  state.counters["s_per_bound"] = benchmark::Counter(
      static_cast<double>(bounds),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TriBoundsSweep);

// The same sweep one layer up, through the resolver's decision pipeline:
// a fixed query against every other node, reported per comparison. The
// proof verb never resolves, so the shared graph stays untouched; the
// threshold is the fixture's median resolved distance, so the sweep mixes
// cache hits, scheme proofs and "not proven".
double MedianResolvedDistance(const PartialDistanceGraph& graph) {
  std::vector<double> weights;
  for (const WeightedEdge& e : graph.edges()) weights.push_back(e.weight);
  std::nth_element(weights.begin(), weights.begin() + weights.size() / 2,
                   weights.end());
  return weights[weights.size() / 2];
}

void BM_ResolverProvenSweep(benchmark::State& state) {
  Fixture& f = SharedFixture();
  BoundedResolver resolver(f.dataset.oracle.get(), &f.graph);
  TriBounder tri(&f.graph);
  resolver.SetBounder(&tri);
  const double t = MedianResolvedDistance(f.graph);
  std::mt19937_64 rng(17);
  int64_t comparisons = 0;
  for (auto _ : state) {
    const ObjectId i = static_cast<ObjectId>(rng() % kN);
    for (ObjectId j = 0; j < kN; ++j) {
      if (j == i) continue;
      benchmark::DoNotOptimize(resolver.ProvenGreaterThan(i, j, t));
      ++comparisons;
    }
  }
  state.SetItemsProcessed(comparisons);
  state.counters["s_per_comparison"] = benchmark::Counter(
      static_cast<double>(comparisons),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ResolverProvenSweep);

// The batch verb over the same sweep: cache sweep, one DecideBatch, the
// per-survivor tail and one batched resolution. Resolution mutates the
// graph, so each iteration starts from a fresh copy (untimed).
void BM_ResolverFilterLessThanSweep(benchmark::State& state) {
  Fixture& f = SharedFixture();
  const double t = MedianResolvedDistance(f.graph);
  std::mt19937_64 rng(19);
  int64_t comparisons = 0;
  for (auto _ : state) {
    state.PauseTiming();
    PartialDistanceGraph graph = f.graph;
    BoundedResolver resolver(f.dataset.oracle.get(), &graph);
    TriBounder tri(&graph);
    resolver.SetBounder(&tri);
    const ObjectId i = static_cast<ObjectId>(rng() % kN);
    std::vector<IdPair> pairs;
    for (ObjectId j = 0; j < kN; ++j) {
      if (j != i) pairs.push_back(IdPair{i, j});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(resolver.FilterLessThan(pairs, t));
    comparisons += static_cast<int64_t>(pairs.size());
  }
  state.SetItemsProcessed(comparisons);
  state.counters["s_per_comparison"] = benchmark::Counter(
      static_cast<double>(comparisons),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_ResolverFilterLessThanSweep);

void BM_SplubBoundsQuery(benchmark::State& state) {
  Fixture& f = SharedFixture();
  SplubBounder splub(&f.graph);
  std::mt19937_64 rng(4);
  for (auto _ : state) {
    const auto [i, j] = f.RandomUnknownPair(&rng);
    benchmark::DoNotOptimize(splub.Bounds(i, j));
  }
}
BENCHMARK(BM_SplubBoundsQuery);

void BM_AdmBoundsQuery(benchmark::State& state) {
  Fixture& f = SharedFixture();
  static AdmBounder* adm = new AdmBounder(&f.graph);  // O(n^2 m) build, once
  std::mt19937_64 rng(5);
  for (auto _ : state) {
    const auto [i, j] = f.RandomUnknownPair(&rng);
    benchmark::DoNotOptimize(adm->Bounds(i, j));
  }
}
BENCHMARK(BM_AdmBoundsQuery);

void BM_AdmUpdate(benchmark::State& state) {
  Fixture& f = SharedFixture();
  AdmBounder adm(&f.graph);
  std::mt19937_64 rng(6);
  for (auto _ : state) {
    const auto [i, j] = f.RandomUnknownPair(&rng);
    // Measures the O(n^2) relaxation pass; the value is synthetic but
    // valid (below any existing upper bound path or not — both realistic).
    adm.OnEdgeResolved(i, j, 1.0);
  }
}
BENCHMARK(BM_AdmUpdate);

void BM_LaesaBoundsQuery(benchmark::State& state) {
  Fixture& f = SharedFixture();
  static std::unique_ptr<LaesaBounder> laesa = LaesaBounder::Build(
      kN, DefaultNumLandmarks(kN),
      [&](ObjectId a, ObjectId b) { return f.dataset.oracle->Distance(a, b); },
      7);
  std::mt19937_64 rng(8);
  for (auto _ : state) {
    const auto [i, j] = f.RandomUnknownPair(&rng);
    benchmark::DoNotOptimize(laesa->Bounds(i, j));
  }
}
BENCHMARK(BM_LaesaBoundsQuery);

void BM_TlaesaBoundsQuery(benchmark::State& state) {
  Fixture& f = SharedFixture();
  static std::unique_ptr<TlaesaBounder> tlaesa = [] {
    Fixture& fx = SharedFixture();
    TlaesaBounder::Options options;
    options.seed = 9;
    return TlaesaBounder::Build(kN, options, [&fx](ObjectId a, ObjectId b) {
      return fx.dataset.oracle->Distance(a, b);
    });
  }();
  std::mt19937_64 rng(10);
  for (auto _ : state) {
    const auto [i, j] = f.RandomUnknownPair(&rng);
    benchmark::DoNotOptimize(tlaesa->Bounds(i, j));
  }
}
BENCHMARK(BM_TlaesaBoundsQuery);

void BM_GraphInsertAndLookup(benchmark::State& state) {
  std::mt19937_64 rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    PartialDistanceGraph graph(kN);
    state.ResumeTiming();
    for (int e = 0; e < 512; ++e) {
      const ObjectId i = static_cast<ObjectId>(rng() % kN);
      const ObjectId j = static_cast<ObjectId>(rng() % kN);
      if (i == j || graph.Has(i, j)) continue;
      graph.Insert(i, j, 1.0);
    }
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_GraphInsertAndLookup);

// Prim's batch shape at full density (mst-dna): each step resolves the node
// just added to the tree against every node still outside it, so one
// endpoint is shared by the whole batch, and the graph grows to complete.
// Reported per inserted edge.
void BM_GraphInsertEdgesPrimBatch(benchmark::State& state) {
  constexpr ObjectId kPrimN = 1000;
  std::vector<ObjectId> order(kPrimN);
  std::iota(order.begin(), order.end(), ObjectId{0});
  std::mt19937_64 rng(14);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::vector<WeightedEdge>> batches(kPrimN - 1);
  for (size_t t = 0; t + 1 < order.size(); ++t) {
    for (size_t s = t + 1; s < order.size(); ++s) {
      batches[t].push_back(WeightedEdge{
          order[t], order[s], 1.0 + static_cast<double>(rng() % 1000)});
    }
  }
  int64_t edges = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto graph = std::make_unique<PartialDistanceGraph>(kPrimN);
    state.ResumeTiming();
    for (const std::vector<WeightedEdge>& batch : batches) {
      graph->InsertEdges(batch);
    }
    edges += static_cast<int64_t>(graph->num_edges());
    state.PauseTiming();
    graph.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(edges);
  state.counters["s_per_edge"] = benchmark::Counter(
      static_cast<double>(edges),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GraphInsertEdgesPrimBatch)->Unit(benchmark::kMillisecond);

void BM_DijkstraOverPartialGraph(benchmark::State& state) {
  Fixture& f = SharedFixture();
  DijkstraSolver solver(kN);
  std::vector<double> out;
  std::mt19937_64 rng(12);
  for (auto _ : state) {
    solver.Solve(f.graph, static_cast<ObjectId>(rng() % kN), &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_DijkstraOverPartialGraph);

}  // namespace

// ---------------------------------------------------------------------------
// Kernel dispatch A/B: the same operands through the scalar reference and
// the dispatched (hardware-best) kernel, best-of-R wall time per call.
// ---------------------------------------------------------------------------

namespace {

// Sized like a generous LAESA configuration / a well-resolved Tri
// neighborhood — big enough that vector width matters, small enough to stay
// realistic for the n=256 fixture above.
constexpr size_t kKernelLen = 48;
constexpr size_t kKernelRows = 64;
constexpr int kKernelRounds = 7;

double BestOfNs(int iters_per_round, const std::function<void()>& body) {
  double best = 1e300;
  for (int round = 0; round < kKernelRounds; ++round) {
    const auto start = std::chrono::steady_clock::now();
    for (int it = 0; it < iters_per_round; ++it) body();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        iters_per_round;
    if (ns < best) best = ns;
  }
  return best;
}

void EmitKernelSpeedups() {
  const simd::Tier tier = simd::DetectedTier();
  const simd::KernelTable& scalar = simd::KernelsForTier(simd::Tier::kScalar);
  const simd::KernelTable& dispatched = simd::KernelsForTier(tier);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(0.0, 2.0);

  // Shared operand pool: kKernelRows rows of kKernelLen doubles.
  std::vector<std::vector<double>> rows(kKernelRows);
  for (auto& row : rows) {
    row.resize(kKernelLen);
    for (double& v : row) v = dist(rng);
  }

  benchutil::BenchJson json("Micro kernel dispatch");
  std::printf("\nKernel dispatch (scalar vs %s, len=%zu)\n",
              std::string(simd::TierName(tier)).c_str(), kKernelLen);

  const auto emit = [&](const char* kernel, double scalar_ns,
                        double dispatched_ns) {
    const double speedup = scalar_ns / dispatched_ns;
    json.NewRow()
        .Add("kernel", std::string(kernel))
        .Add("tier", std::string(simd::TierName(tier)))
        .Add("scalar_ns", scalar_ns)
        .Add("dispatched_ns", dispatched_ns)
        .Add("speedup", speedup);
    std::printf("  %-16s scalar %8.1f ns   dispatched %8.1f ns   %.2fx\n",
                kernel, scalar_ns, dispatched_ns, speedup);
  };

  {
    size_t k = 0;
    double sink = 0.0;
    const auto run = [&](const simd::KernelTable& table) {
      const Interval iv =
          table.pivot_scan(rows[k % kKernelRows].data(),
                           rows[(k + 1) % kKernelRows].data(), kKernelLen);
      sink += iv.lo;
      ++k;
    };
    const double s = BestOfNs(20000, [&] { run(scalar); });
    const double d = BestOfNs(20000, [&] { run(dispatched); });
    benchmark::DoNotOptimize(sink);
    emit("pivot_scan", s, d);
  }

  {
    size_t k = 0;
    double sink = 0.0;
    const double rho = 2.0;
    const auto run = [&](const simd::KernelTable& table) {
      const Interval iv = table.tri_reduce(
          rows[k % kKernelRows].data(), rows[(k + 1) % kKernelRows].data(),
          kKernelLen, rho, 1.0 / rho);
      sink += iv.hi;
      ++k;
    };
    const double s = BestOfNs(20000, [&] { run(scalar); });
    const double d = BestOfNs(20000, [&] { run(dispatched); });
    benchmark::DoNotOptimize(sink);
    emit("tri_merge", s, d);
  }

  {
    constexpr size_t kDim = 4;
    constexpr size_t kPairs = 256;
    std::vector<double> points(static_cast<size_t>(kN) * kDim);
    for (double& v : points) v = dist(rng);
    std::vector<IdPair> pairs(kPairs);
    for (IdPair& p : pairs) {
      p.i = static_cast<ObjectId>(rng() % kN);
      p.j = static_cast<ObjectId>(rng() % kN);
    }
    std::vector<double> out(kPairs);
    const auto run = [&](const simd::KernelTable& table) {
      table.batch_distance(points.data(), kDim, pairs.data(), kPairs,
                           out.data(), simd::DistanceKind::kL2);
    };
    const double s = BestOfNs(200, [&] { run(scalar); }) / kPairs;
    const double d = BestOfNs(200, [&] { run(dispatched); }) / kPairs;
    benchmark::DoNotOptimize(out.data());
    emit("batch_distance", s, d);
  }

  json.Write();
}

}  // namespace
}  // namespace metricprox

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  metricprox::EmitKernelSpeedups();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
