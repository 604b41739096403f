// ConcurrentDistanceGraph: the striped shared data plane of the session
// layer. These tests pin (a) exact semantic parity with the single-threaded
// PartialDistanceGraph (duplicate skip, conflicting-edge CHECK, adjacency
// contents), (b) linearizable final state under concurrent writers over
// disjoint and overlapping shards, and (c) the snapshot invariants bound
// scans rely on — sorted, consistent columns and per-node batch atomicity —
// while a writer hammers the same node. The last two tests are the
// regression layer for the satellite bugfix: the SIMD dispatch tier is read
// concurrently with SetTier (fails under TSan on the pre-atomic layout),
// and per-bounder Tri scratch and anchor rows never alias across bounders
// sharing a thread or across threads.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bounds/tri.h"
#include "core/simd.h"
#include "core/types.h"
#include "graph/concurrent_graph.h"
#include "graph/partial_graph.h"

namespace metricprox {
namespace {

/// Deterministic pseudo-distance for edge (u, v): strictly positive and a
/// pure function of the pair, so racing threads inserting the same edge
/// always agree (the exact-duplicate case, never the conflicting one).
double EdgeWeight(ObjectId u, ObjectId v) {
  const EdgeKey key(u, v);
  return 1.0 + static_cast<double>(key.lo()) * 0.25 +
         static_cast<double>(key.hi()) * 0.0625;
}

std::vector<WeightedEdge> CompleteGraphEdges(ObjectId n) {
  std::vector<WeightedEdge> edges;
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v = u + 1; v < n; ++v) {
      edges.push_back(WeightedEdge{u, v, EdgeWeight(u, v)});
    }
  }
  return edges;
}

/// Orients every edge lo -> hi and sorts by (lo, hi): the canonical form
/// ConcurrentDistanceGraph::Edges() returns.
std::vector<WeightedEdge> CanonicalSort(std::vector<WeightedEdge> edges) {
  for (WeightedEdge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return EdgeKey(a.u, a.v) < EdgeKey(b.u, b.v);
            });
  return edges;
}

/// Checks the concurrent graph holds exactly the same state the
/// single-threaded graph reaches from the same edge set.
void ExpectParity(const ConcurrentDistanceGraph& got,
                  const PartialDistanceGraph& want) {
  ASSERT_EQ(got.num_objects(), want.num_objects());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  const std::vector<WeightedEdge> got_edges = got.Edges();
  const std::vector<WeightedEdge> want_edges = CanonicalSort(want.edges());
  ASSERT_EQ(got_edges.size(), want_edges.size());
  for (size_t k = 0; k < got_edges.size(); ++k) {
    EXPECT_EQ(got_edges[k].u, want_edges[k].u);
    EXPECT_EQ(got_edges[k].v, want_edges[k].v);
    EXPECT_EQ(got_edges[k].weight, want_edges[k].weight);
  }
  for (ObjectId i = 0; i < got.num_objects(); ++i) {
    const ConcurrentDistanceGraph::Snapshot snap = got.AdjacencySnapshot(i);
    const PartialDistanceGraph::AdjacencyColumns cols = want.AdjacencyView(i);
    ASSERT_EQ(snap->ids.size(), cols.ids.size()) << "node " << i;
    for (size_t k = 0; k < cols.ids.size(); ++k) {
      EXPECT_EQ(snap->ids[k], cols.ids[k]) << "node " << i;
      EXPECT_EQ(snap->distances[k], cols.distances[k]) << "node " << i;
    }
  }
}

TEST(ConcurrentGraphTest, SingleThreadedParityWithPartialGraph) {
  const ObjectId n = 24;
  const std::vector<WeightedEdge> edges = CompleteGraphEdges(n);
  ConcurrentDistanceGraph concurrent(n, /*num_shards=*/4);
  PartialDistanceGraph reference(n);
  EXPECT_EQ(concurrent.InsertEdges(edges), edges.size());
  reference.InsertEdges(std::vector<ResolvedEdge>(edges.begin(), edges.end()));
  ExpectParity(concurrent, reference);
  EXPECT_TRUE(concurrent.Has(0, 1));
  EXPECT_FALSE(concurrent.Has(0, 0));
  EXPECT_EQ(concurrent.Get(2, 7), EdgeWeight(2, 7));
  EXPECT_EQ(concurrent.Degree(0), static_cast<size_t>(n - 1));
}

TEST(ConcurrentGraphTest, DuplicateSemanticsMatchSingleThreadedGraph) {
  ConcurrentDistanceGraph graph(8);
  EXPECT_TRUE(graph.Insert(1, 2, 3.5));
  // Exact duplicate (either orientation): skipped, reported as stale.
  EXPECT_FALSE(graph.Insert(1, 2, 3.5));
  EXPECT_FALSE(graph.Insert(2, 1, 3.5));
  EXPECT_EQ(graph.num_edges(), 1u);
  EXPECT_EQ(graph.Degree(1), 1u);
  // A batch replay mixing stale and fresh edges counts only the fresh ones,
  // exactly like PartialDistanceGraph::InsertEdges.
  const std::vector<WeightedEdge> batch = {
      {1, 2, 3.5}, {2, 3, 1.0}, {3, 4, 2.0}};
  EXPECT_EQ(graph.InsertEdges(batch), 2u);
  EXPECT_EQ(graph.num_edges(), 3u);
}

TEST(ConcurrentGraphDeathTest, ConflictingDuplicateChecks) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  ConcurrentDistanceGraph graph(8);
  ASSERT_TRUE(graph.Insert(1, 2, 3.5));
  EXPECT_DEATH(graph.Insert(1, 2, 4.0), "conflicting duplicate edge");
  EXPECT_DEATH(graph.Insert(2, 1, 4.0), "conflicting duplicate edge");
  EXPECT_DEATH(graph.Insert(3, 3, 1.0), "self-edge");
  EXPECT_DEATH(graph.Insert(1, 2, -1.0), "negative distance");
}

TEST(ConcurrentGraphTest, ConcurrentDisjointShardInserts) {
  // Each worker owns a disjoint node range, so its node shards (i % shards)
  // and edge keys never collide with another worker's: the pure
  // partitioned-write case.
  const ObjectId nodes_per_worker = 16;
  const unsigned workers = 4;
  const ObjectId n = nodes_per_worker * workers;
  ConcurrentDistanceGraph graph(n, /*num_shards=*/workers* nodes_per_worker);
  std::vector<std::thread> threads;
  std::vector<size_t> fresh(workers, 0);
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      const ObjectId base = w * nodes_per_worker;
      std::vector<WeightedEdge> mine;
      for (ObjectId u = base; u < base + nodes_per_worker; ++u) {
        for (ObjectId v = u + 1; v < base + nodes_per_worker; ++v) {
          mine.push_back(WeightedEdge{u, v, EdgeWeight(u, v)});
        }
      }
      fresh[w] = graph.InsertEdges(mine);
    });
  }
  for (std::thread& t : threads) t.join();

  PartialDistanceGraph reference(n);
  size_t expected = 0;
  for (unsigned w = 0; w < workers; ++w) {
    const ObjectId base = w * nodes_per_worker;
    for (ObjectId u = base; u < base + nodes_per_worker; ++u) {
      for (ObjectId v = u + 1; v < base + nodes_per_worker; ++v) {
        reference.Insert(u, v, EdgeWeight(u, v));
        ++expected;
      }
    }
    EXPECT_EQ(fresh[w], nodes_per_worker * (nodes_per_worker - 1) / 2u);
  }
  EXPECT_EQ(graph.num_edges(), expected);
  ExpectParity(graph, reference);
}

TEST(ConcurrentGraphTest, ConcurrentOverlappingExactDuplicates) {
  // Every worker inserts the SAME complete graph: the racing-sessions case.
  // Exactly one thread wins each edge, the rest observe a silent skip, and
  // the final state equals a single sequential insertion.
  const ObjectId n = 20;
  const unsigned workers = 4;
  const std::vector<WeightedEdge> edges = CompleteGraphEdges(n);
  ConcurrentDistanceGraph graph(n, /*num_shards=*/3);  // forced collisions
  std::vector<size_t> fresh(workers, 0);
  std::vector<std::thread> threads;
  for (unsigned w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      // Different insertion orders maximize interleavings.
      std::vector<WeightedEdge> mine = edges;
      if (w % 2 == 1) std::reverse(mine.begin(), mine.end());
      fresh[w] = graph.InsertEdges(mine);
    });
  }
  for (std::thread& t : threads) t.join();

  size_t total_fresh = 0;
  for (const size_t f : fresh) total_fresh += f;
  EXPECT_EQ(total_fresh, edges.size());  // each edge won exactly once
  PartialDistanceGraph reference(n);
  reference.InsertEdges(std::vector<ResolvedEdge>(edges.begin(), edges.end()));
  ExpectParity(graph, reference);
}

TEST(ConcurrentGraphTest, SharedEndpointAndSplitBatchParity) {
  // Both graph classes insert through the same sorted-column splice: feed
  // them the batch shapes Prim and the coalescer produce — one endpoint
  // shared by the whole batch (shuffled, with reversed repeats), one batch
  // split across several InsertEdges calls, and single inserts landing
  // inside long columns — and require identical state after each step.
  const ObjectId n = 48;
  std::mt19937_64 rng(53);
  ConcurrentDistanceGraph graph(n, /*num_shards=*/5);
  PartialDistanceGraph reference(n);
  size_t fresh = 0;
  const auto insert_both = [&](const std::vector<WeightedEdge>& batch) {
    fresh += graph.InsertEdges(batch);
    reference.InsertEdges(batch);
    EXPECT_EQ(fresh, reference.num_edges());
  };
  for (ObjectId hub = 0; hub < n; hub += 7) {
    std::vector<WeightedEdge> batch;
    for (ObjectId v = 0; v < n; ++v) {
      if (v != hub && v % 3 != hub % 3) {
        batch.push_back(WeightedEdge{hub, v, EdgeWeight(hub, v)});
      }
    }
    const size_t unique = batch.size();
    for (size_t k = 0; k < unique; k += 2) {
      batch.push_back(WeightedEdge{batch[k].v, hub, batch[k].weight});
    }
    std::shuffle(batch.begin(), batch.end(), rng);
    insert_both(batch);
    ExpectParity(graph, reference);
  }
  // One shuffled batch of every remaining pair, split into uneven chunks.
  std::vector<WeightedEdge> rest;
  for (const WeightedEdge& e : CompleteGraphEdges(n)) {
    if (!reference.Has(e.u, e.v)) rest.push_back(e);
  }
  std::shuffle(rest.begin(), rest.end(), rng);
  const size_t singles = 16;
  for (size_t begin = singles; begin < rest.size();) {
    const size_t len = std::min<size_t>(1 + rng() % 97, rest.size() - begin);
    insert_both(std::vector<WeightedEdge>(rest.begin() + begin,
                                          rest.begin() + begin + len));
    begin += len;
  }
  ExpectParity(graph, reference);
  // The held-back pairs go in one at a time, into full-length columns.
  for (size_t k = 0; k < singles; ++k) {
    EXPECT_TRUE(graph.Insert(rest[k].u, rest[k].v, rest[k].weight));
    reference.Insert(rest[k].u, rest[k].v, rest[k].weight);
  }
  ExpectParity(graph, reference);
  EXPECT_EQ(graph.num_edges(), static_cast<size_t>(n) * (n - 1) / 2);
  for (ObjectId i = 0; i < n; ++i) {
    EXPECT_EQ(graph.Degree(i), static_cast<size_t>(n - 1));
  }
}

TEST(ConcurrentGraphTest, SnapshotInvariantsUnderHammeringWriter) {
  // A writer inserts batches of edges incident to node 0 — each batch
  // tagged by its weight — while readers snapshot node 0 continuously.
  // Every snapshot must be sorted and consistent, sizes must only grow, and
  // a batch must appear atomically (all of its edges or none).
  const ObjectId batch_size = 8;
  const ObjectId batches = 40;
  const ObjectId n = 1 + batch_size * batches;
  ConcurrentDistanceGraph graph(n, /*num_shards=*/4);
  std::atomic<bool> done{false};

  auto batch_of = [&](ObjectId id) { return (id - 1) / batch_size; };
  auto weight_of = [&](ObjectId id) {
    return 1.0 + static_cast<double>(batch_of(id));
  };

  std::vector<std::thread> readers;
  std::atomic<uint64_t> snapshots_seen{0};
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      size_t last_size = 0;
      while (!done.load(std::memory_order_acquire)) {
        const ConcurrentDistanceGraph::Snapshot snap =
            graph.AdjacencySnapshot(0);
        ASSERT_EQ(snap->ids.size(), snap->distances.size());
        ASSERT_GE(snap->ids.size(), last_size);  // columns only grow
        last_size = snap->ids.size();
        ASSERT_EQ(snap->ids.size() % batch_size, 0u)
            << "snapshot observed a half-inserted batch";
        std::vector<ObjectId> per_batch(batches, 0);
        for (size_t k = 0; k < snap->ids.size(); ++k) {
          if (k > 0) {
            ASSERT_LT(snap->ids[k - 1], snap->ids[k])
                << "snapshot ids not strictly ascending";
          }
          ASSERT_EQ(snap->distances[k], weight_of(snap->ids[k]))
              << "snapshot pairs a neighbor with another batch's distance";
          ++per_batch[batch_of(snap->ids[k])];
        }
        for (ObjectId g = 0; g < batches; ++g) {
          ASSERT_TRUE(per_batch[g] == 0 || per_batch[g] == batch_size)
              << "batch " << g << " observed partially (" << per_batch[g]
              << " of " << batch_size << " edges)";
        }
        snapshots_seen.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (ObjectId g = 0; g < batches; ++g) {
    std::vector<WeightedEdge> batch;
    for (ObjectId k = 0; k < batch_size; ++k) {
      const ObjectId v = 1 + g * batch_size + k;
      batch.push_back(WeightedEdge{0, v, weight_of(v)});
    }
    ASSERT_EQ(graph.InsertEdges(batch), batch.size());
  }
  // The writer can outrun a cold reader; keep readers sampling the (now
  // complete) columns until every one of them has reported snapshots.
  while (snapshots_seen.load(std::memory_order_relaxed) < 10) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(snapshots_seen.load(), 0u);
  EXPECT_EQ(graph.Degree(0), static_cast<size_t>(batch_size * batches));
  // A snapshot taken before the writer finished stays frozen even though
  // the graph moved on — immutability of published epochs.
  const ConcurrentDistanceGraph::Snapshot final_snap =
      graph.AdjacencySnapshot(0);
  graph.Insert(1, 2, EdgeWeight(1, 2));
  EXPECT_EQ(final_snap->ids.size(), static_cast<size_t>(batch_size * batches));
}

// ---------------------------------------------------------------------------
// Satellite-bugfix regression layer: mutable state on the bound path.
// ---------------------------------------------------------------------------

// The SIMD dispatch tier is process-global and read on every bound scan;
// SetTier may legitimately run while other threads (concurrent sessions)
// are scanning. On the pre-fix layout the tier lived in a plain static and
// this test is a data race under TSan; with the atomic tier every reader
// observes either the old or the new tier — both valid kernel tables.
TEST(SimdDispatchRaceTest, ConcurrentSetTierAndBoundScans) {
  const simd::Tier original = simd::ActiveTier();
  PartialDistanceGraph graph(16);
  for (ObjectId u = 0; u < 16; ++u) {
    for (ObjectId v = u + 1; v < 16; ++v) {
      graph.Insert(u, v, EdgeWeight(u, v));
    }
  }
  // The unique correct answer, computed before any concurrency: tri merges
  // only the COMMON neighbors of (0, 1), so the interval is not a point
  // even though the direct edge exists — but it is bit-identical on every
  // tier, so scans racing a tier switch must reproduce it exactly.
  TriBounder reference_bounder(&graph);
  const Interval reference = reference_bounder.Bounds(0, 1);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> scans{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 3; ++t) {
    scanners.emplace_back([&] {
      TriBounder bounder(&graph);
      while (!done.load(std::memory_order_acquire)) {
        const simd::Tier tier = simd::ActiveTier();
        bool valid = false;
        for (const simd::Tier known : simd::kAllTiers) {
          valid = valid || tier == known;
        }
        // EXPECT (not ASSERT): a failing scanner must keep looping and
        // bumping `scans`, or the main thread below could spin forever.
        EXPECT_TRUE(valid);
        const Interval bounds = bounder.Bounds(0, 1);
        EXPECT_EQ(bounds.lo, reference.lo);
        EXPECT_EQ(bounds.hi, reference.hi);
        scans.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Keep flipping until every scanner had real work overlapping the flips —
  // otherwise fast main-thread scheduling ends the test before a single
  // racing scan happened and the assertions above are vacuous.
  int flip = 0;
  while (flip < 200 || scans.load(std::memory_order_relaxed) < 30) {
    simd::SetTier(simd::kAllTiers[flip % 3]);
    ++flip;
    if (flip >= 200) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : scanners) t.join();
  EXPECT_GE(scans.load(), 30u);
  simd::SetTier(original);
}

// Two TriBounders driven alternately from ONE thread must not share Tri
// scratch: with the old thread_local buffers both bounders aliased the same
// per-thread vectors (harmless then, a lifetime trap under sessions); the
// scratch is now owned per bounder instance. Interleaved scans must equal
// fresh isolated scans bit for bit.
TEST(TriScratchTest, InterleavedBoundersDoNotShareScratch) {
  PartialDistanceGraph a(8);
  PartialDistanceGraph b(8);
  for (ObjectId u = 0; u < 8; ++u) {
    for (ObjectId v = u + 1; v < 8; ++v) {
      if ((u + v) % 3 != 0) a.Insert(u, v, EdgeWeight(u, v));
      if ((u + v) % 2 != 0) b.Insert(u, v, 2.0 * EdgeWeight(u, v));
    }
  }
  TriBounder bounder_a(&a);
  TriBounder bounder_b(&b);
  for (ObjectId u = 0; u < 8; ++u) {
    for (ObjectId v = u + 1; v < 8; ++v) {
      const Interval ia = bounder_a.Bounds(u, v);
      const Interval ib = bounder_b.Bounds(u, v);  // interleaved on purpose
      TriBounder fresh_a(&a);
      TriBounder fresh_b(&b);
      const Interval ra = fresh_a.Bounds(u, v);
      const Interval rb = fresh_b.Bounds(u, v);
      EXPECT_EQ(ia.lo, ra.lo);
      EXPECT_EQ(ia.hi, ra.hi);
      EXPECT_EQ(ib.lo, rb.lo);
      EXPECT_EQ(ib.hi, rb.hi);
    }
  }
}

// And from MANY threads: one TriBounder per thread over a shared immutable
// graph, scanning concurrently while the dispatch tier flips. Each thread
// runs fixed-endpoint sweeps from its own starting anchor, in both
// orientations, so every bounder's anchor row is scattered, read through
// the swap path and cleared over and over. TSan-clean only with
// per-instance scratch and anchor rows and the atomic tier.
TEST(TriScratchTest, ConcurrentPerSessionBoundersAreRaceFree) {
  const simd::Tier original = simd::ActiveTier();
  const ObjectId n = 24;
  PartialDistanceGraph graph(n);
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v = u + 1; v < n; ++v) {
      if ((u * 7 + v) % 5 != 0) graph.Insert(u, v, EdgeWeight(u, v));
    }
  }
  // Reference intervals computed single-threaded, one fresh bounder per
  // pair so no anchor is reused.
  std::vector<Interval> want(static_cast<size_t>(n) * n);
  for (ObjectId u = 0; u < n; ++u) {
    for (ObjectId v = 0; v < n; ++v) {
      if (u == v) continue;
      TriBounder bounder(&graph);
      want[static_cast<size_t>(u) * n + v] = bounder.Bounds(u, v);
    }
  }
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      TriBounder bounder(&graph);
      for (int pass = 0; pass < 3; ++pass) {
        for (ObjectId step = 0; step < n; ++step) {
          const ObjectId u = (static_cast<ObjectId>(5 * t + pass) + step) % n;
          for (ObjectId v = 0; v < n; ++v) {
            if (u == v) continue;
            const Interval got = bounder.Bounds(u, v);
            const Interval& ref = want[static_cast<size_t>(u) * n + v];
            ASSERT_EQ(got.lo, ref.lo);
            ASSERT_EQ(got.hi, ref.hi);
            const Interval swapped = bounder.Bounds(v, u);  // j == anchor
            const Interval& ref_swapped = want[static_cast<size_t>(v) * n + u];
            ASSERT_EQ(swapped.lo, ref_swapped.lo);
            ASSERT_EQ(swapped.hi, ref_swapped.hi);
          }
        }
      }
    });
  }
  std::thread flipper([&] {
    for (int flip = 0; flip < 100; ++flip) {
      simd::SetTier(simd::kAllTiers[flip % 3]);
    }
  });
  for (std::thread& t : threads) t.join();
  flipper.join();
  simd::SetTier(original);
}

}  // namespace
}  // namespace metricprox
