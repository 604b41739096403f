#include "graph/partial_graph.h"

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace metricprox {
namespace {

TEST(PartialGraphTest, EmptyGraphHasNoEdges) {
  PartialDistanceGraph g(5);
  EXPECT_EQ(g.num_objects(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.Has(0, 1));
  EXPECT_FALSE(g.Get(0, 1).has_value());
  EXPECT_TRUE(g.AdjacencyView(0).ids.empty());
  EXPECT_TRUE(g.AdjacencyView(0).distances.empty());
}

TEST(PartialGraphTest, InsertIsSymmetric) {
  PartialDistanceGraph g(4);
  g.Insert(2, 0, 0.75);
  EXPECT_TRUE(g.Has(0, 2));
  EXPECT_TRUE(g.Has(2, 0));
  EXPECT_DOUBLE_EQ(*g.Get(0, 2), 0.75);
  EXPECT_DOUBLE_EQ(*g.Get(2, 0), 0.75);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(2), 1u);
  EXPECT_EQ(g.Degree(1), 0u);
}

TEST(PartialGraphTest, AdjacencySortedById) {
  PartialDistanceGraph g(6);
  g.Insert(3, 5, 0.1);
  g.Insert(3, 1, 0.2);
  g.Insert(3, 4, 0.3);
  g.Insert(3, 0, 0.4);
  const PartialDistanceGraph::AdjacencyColumns nbrs = g.AdjacencyView(3);
  ASSERT_EQ(nbrs.ids.size(), 4u);
  ASSERT_EQ(nbrs.distances.size(), 4u);
  for (size_t i = 1; i < nbrs.ids.size(); ++i) {
    EXPECT_LT(nbrs.ids[i - 1], nbrs.ids[i]);
  }
}

TEST(PartialGraphTest, EdgesListPreservesInsertionOrder) {
  PartialDistanceGraph g(4);
  g.Insert(0, 1, 0.5);
  g.Insert(2, 3, 0.6);
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_EQ(g.edges()[0].u, 0u);
  EXPECT_EQ(g.edges()[1].weight, 0.6);
}

TEST(PartialGraphTest, DuplicateInsertDies) {
  PartialDistanceGraph g(6);
  g.Insert(0, 1, 0.5);
  EXPECT_DEATH(g.Insert(1, 0, 0.7), "duplicate");
  // The duplicate check searches the shorter column — node 3's single
  // entry, not the hub's — whichever way round the pair is given.
  for (ObjectId v = 2; v < 6; ++v) g.Insert(0, v, 0.5);
  EXPECT_DEATH(g.Insert(0, 3, 0.5), "duplicate");
  EXPECT_DEATH(g.Insert(3, 0, 0.5), "duplicate");
}

TEST(PartialGraphTest, NegativeDistanceDies) {
  PartialDistanceGraph g(3);
  EXPECT_DEATH(g.Insert(0, 1, -0.1), "negative");
}

TEST(PartialGraphTest, SelfEdgeDies) {
  PartialDistanceGraph g(3);
  EXPECT_DEATH(g.Insert(1, 1, 0.5), "self-edge");
}

TEST(PartialGraphTest, InsertEdgesMatchesSequentialInserts) {
  std::mt19937_64 rng(11);
  const ObjectId n = 25;
  std::vector<WeightedEdge> batch;
  std::set<std::pair<ObjectId, ObjectId>> used;
  while (batch.size() < 80) {
    ObjectId a = static_cast<ObjectId>(rng() % n);
    ObjectId b = static_cast<ObjectId>(rng() % n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!used.insert({a, b}).second) continue;
    batch.push_back(
        WeightedEdge{a, b, 0.01 * static_cast<double>(rng() % 100 + 1)});
  }

  PartialDistanceGraph bulk(n);
  bulk.InsertEdges(batch);
  PartialDistanceGraph sequential(n);
  for (const WeightedEdge& e : batch) sequential.Insert(e.u, e.v, e.weight);

  ASSERT_EQ(bulk.num_edges(), sequential.num_edges());
  for (size_t k = 0; k < batch.size(); ++k) {
    EXPECT_EQ(bulk.edges()[k], sequential.edges()[k]);
  }
  for (ObjectId i = 0; i < n; ++i) {
    const PartialDistanceGraph::AdjacencyColumns a = bulk.AdjacencyView(i);
    const PartialDistanceGraph::AdjacencyColumns b =
        sequential.AdjacencyView(i);
    ASSERT_EQ(a.ids.size(), b.ids.size()) << "node " << i;
    ASSERT_EQ(a.distances.size(), b.distances.size()) << "node " << i;
    for (size_t k = 0; k < a.ids.size(); ++k) {
      EXPECT_EQ(a.ids[k], b.ids[k]);
      EXPECT_DOUBLE_EQ(a.distances[k], b.distances[k]);
    }
    for (ObjectId j = 0; j < n; ++j) {
      if (i == j) continue;
      ASSERT_EQ(bulk.Get(i, j), sequential.Get(i, j));
    }
  }
}

TEST(PartialGraphTest, InsertEdgesExactDuplicateWithinBatchIsNoOp) {
  PartialDistanceGraph g(4);
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 0.5},
                                           WeightedEdge{1, 0, 0.5}};
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Get(0, 1), 0.5);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(PartialGraphTest, InsertEdgesExactDuplicateOfExistingIsNoOp) {
  PartialDistanceGraph g(4);
  g.Insert(2, 3, 0.25);
  const std::vector<WeightedEdge> batch = {WeightedEdge{3, 2, 0.25},
                                           WeightedEdge{0, 2, 0.75}};
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Get(2, 3), 0.25);
  EXPECT_EQ(g.Get(0, 2), 0.75);
  // The columns stay sorted and duplicate-free after the skip.
  ASSERT_EQ(g.Degree(2), 2u);
  ASSERT_EQ(g.AdjacencyView(2).ids.size(), 2u);
  EXPECT_EQ(g.AdjacencyView(2).ids[0], 0u);
  EXPECT_EQ(g.AdjacencyView(2).ids[1], 3u);
}

TEST(PartialGraphTest, InsertEdgesRepeatedBulkLoadIsIdempotent) {
  // The store warm-start path loads the same edge set at every run; the
  // second load must leave the graph bit-for-bit unchanged.
  PartialDistanceGraph g(5);
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 1.0},
                                           WeightedEdge{1, 2, 2.0},
                                           WeightedEdge{3, 4, 0.5}};
  g.InsertEdges(batch);
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_EQ(g.Degree(1), 2u);
}

TEST(PartialGraphTest, InsertEdgesConflictingDuplicateDies) {
  PartialDistanceGraph g(4);
  g.Insert(2, 3, 0.25);
  const std::vector<WeightedEdge> batch = {WeightedEdge{3, 2, 0.75}};
  EXPECT_DEATH(g.InsertEdges(batch), "conflicting duplicate");
}

TEST(PartialGraphTest, InsertEdgesConflictingWithinBatchDies) {
  PartialDistanceGraph g(5);
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 0.5},
                                           WeightedEdge{1, 0, 0.6}};
  EXPECT_DEATH(g.InsertEdges(batch), "conflicting duplicate");
  // Conflicting copies that are neither adjacent nor first in the span.
  const std::vector<WeightedEdge> spread = {
      WeightedEdge{2, 3, 0.5}, WeightedEdge{1, 4, 0.25},
      WeightedEdge{0, 2, 0.75}, WeightedEdge{4, 1, 0.3}};
  EXPECT_DEATH(g.InsertEdges(spread), "conflicting duplicate");
  // An exact duplicate of a graph edge, then a conflicting copy of it.
  g.Insert(0, 1, 0.5);
  const std::vector<WeightedEdge> against_graph = {WeightedEdge{1, 0, 0.5},
                                                   WeightedEdge{0, 1, 0.6}};
  EXPECT_DEATH(g.InsertEdges(against_graph), "conflicting duplicate");
}

// The columns (AdjacencyView) are the graph's only adjacency and the
// operand the SIMD tri-kernel reads, so after every mutation path they must
// equal an independent reference rebuilt from edges(): per node, strictly
// ascending ids (the merge-intersection kernel requires it), a distance
// column of the same length, and each edge present at both endpoints with
// the bitwise-identical distance.
void ExpectColumnsMatchEdges(const PartialDistanceGraph& g) {
  const ObjectId n = g.num_objects();
  std::vector<std::map<ObjectId, double>> reference(n);
  for (const WeightedEdge& e : g.edges()) {
    ASSERT_TRUE(reference[e.u].emplace(e.v, e.weight).second)
        << "edges() repeats (" << e.u << ", " << e.v << ")";
    ASSERT_TRUE(reference[e.v].emplace(e.u, e.weight).second);
  }
  for (ObjectId i = 0; i < n; ++i) {
    const PartialDistanceGraph::AdjacencyColumns view = g.AdjacencyView(i);
    ASSERT_EQ(view.ids.size(), view.distances.size()) << "node " << i;
    ASSERT_EQ(view.ids.size(), reference[i].size()) << "node " << i;
    EXPECT_EQ(g.Degree(i), view.ids.size()) << "node " << i;
    size_t slot = 0;
    for (const auto& [id, d] : reference[i]) {
      EXPECT_EQ(view.ids[slot], id) << "node " << i << " slot " << slot;
      // Bitwise: the columns hold the inserted doubles, not recomputed ones.
      EXPECT_EQ(view.distances[slot], d) << "node " << i << " slot " << slot;
      ++slot;
    }
    for (size_t k = 1; k < view.ids.size(); ++k) {
      EXPECT_LT(view.ids[k - 1], view.ids[k]) << "node " << i;
    }
    // Symmetry, read off the columns themselves: i appears in the column
    // of each of its neighbors with the same distance.
    for (size_t k = 0; k < view.ids.size(); ++k) {
      const PartialDistanceGraph::AdjacencyColumns other =
          g.AdjacencyView(view.ids[k]);
      const auto it = std::lower_bound(other.ids.begin(), other.ids.end(), i);
      ASSERT_TRUE(it != other.ids.end() && *it == i)
          << "(" << i << ", " << view.ids[k] << ") is one-sided";
      EXPECT_EQ(other.distances[static_cast<size_t>(it - other.ids.begin())],
                view.distances[k]);
    }
  }
}

TEST(PartialGraphTest, AdjacencyViewEmptyForIsolatedNodes) {
  PartialDistanceGraph g(3);
  for (ObjectId i = 0; i < 3; ++i) {
    const auto view = g.AdjacencyView(i);
    EXPECT_TRUE(view.ids.empty());
    EXPECT_TRUE(view.distances.empty());
  }
  g.Insert(0, 2, 0.5);
  EXPECT_TRUE(g.AdjacencyView(1).ids.empty());
  ASSERT_EQ(g.AdjacencyView(0).ids.size(), 1u);
  EXPECT_EQ(g.AdjacencyView(0).ids[0], 2u);
  EXPECT_EQ(g.AdjacencyView(0).distances[0], 0.5);
  ASSERT_EQ(g.AdjacencyView(2).ids.size(), 1u);
  EXPECT_EQ(g.AdjacencyView(2).ids[0], 0u);
}

TEST(PartialGraphTest, AdjacencyViewConsistentAfterInterleavedMutations) {
  // Interleave single inserts with bulk loads the way resolver + warm-start
  // do in a real run, checking the columns every tenth step.
  std::mt19937_64 rng(23);
  const ObjectId n = 20;
  PartialDistanceGraph g(n);
  std::set<std::pair<ObjectId, ObjectId>> used;
  std::vector<WeightedEdge> pending;
  for (int step = 0; step < 120; ++step) {
    ObjectId a = static_cast<ObjectId>(rng() % n);
    ObjectId b = static_cast<ObjectId>(rng() % n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!used.insert({a, b}).second) continue;
    const double d = 0.01 * static_cast<double>(rng() % 100 + 1);
    if (rng() % 2 == 0) {
      g.Insert(a, b, d);
    } else {
      pending.push_back(WeightedEdge{a, b, d});
      if (pending.size() == 5) {
        g.InsertEdges(pending);
        pending.clear();
      }
    }
    if (step % 10 == 0) ExpectColumnsMatchEdges(g);
  }
  if (!pending.empty()) g.InsertEdges(pending);
  ExpectColumnsMatchEdges(g);
}

TEST(PartialGraphTest, AdjacencyViewConsistentThroughDuplicateSkip) {
  // The exact-duplicate skip path in InsertEdges must leave the columns
  // untouched, including when the duplicate shares a batch with new edges.
  PartialDistanceGraph g(5);
  g.Insert(1, 3, 0.25);
  const std::vector<WeightedEdge> batch = {
      WeightedEdge{3, 1, 0.25}, WeightedEdge{1, 0, 0.5},
      WeightedEdge{0, 1, 0.5}};
  g.InsertEdges(batch);
  EXPECT_EQ(g.num_edges(), 2u);
  ExpectColumnsMatchEdges(g);
  ASSERT_EQ(g.AdjacencyView(1).ids.size(), 2u);
  EXPECT_EQ(g.AdjacencyView(1).ids[0], 0u);
  EXPECT_EQ(g.AdjacencyView(1).ids[1], 3u);
}

TEST(PartialGraphTest, AdjacencyViewConsistentAfterWarmStartReload) {
  // Store warm start bulk-loads the same edges every run; the second load
  // must leave the columns bit-for-bit unchanged.
  const std::vector<WeightedEdge> batch = {WeightedEdge{0, 1, 1.0},
                                           WeightedEdge{1, 2, 2.0},
                                           WeightedEdge{3, 4, 0.5}};
  PartialDistanceGraph g(5);
  g.InsertEdges(batch);
  std::vector<std::vector<ObjectId>> ids_before(5);
  std::vector<std::vector<double>> dist_before(5);
  for (ObjectId i = 0; i < 5; ++i) {
    const auto view = g.AdjacencyView(i);
    ids_before[i].assign(view.ids.begin(), view.ids.end());
    dist_before[i].assign(view.distances.begin(), view.distances.end());
  }
  g.InsertEdges(batch);
  ExpectColumnsMatchEdges(g);
  for (ObjectId i = 0; i < 5; ++i) {
    const auto view = g.AdjacencyView(i);
    ASSERT_EQ(view.ids.size(), ids_before[i].size());
    for (size_t k = 0; k < view.ids.size(); ++k) {
      EXPECT_EQ(view.ids[k], ids_before[i][k]);
      EXPECT_EQ(view.distances[k], dist_before[i][k]);
    }
  }
}

// Lookups binary-search the shorter of the two sorted id columns, so every
// pair is checked from both sides, including the skewed case where one
// endpoint is a hub and the other has a single neighbor.
TEST(PartialGraphTest, LookupsAreSymmetricAndAgreeWithNeighbors) {
  std::mt19937_64 rng(31);
  const ObjectId n = 40;
  PartialDistanceGraph g(n);
  for (ObjectId v = 1; v < n; ++v) g.Insert(0, v, 0.001 * v);  // hub
  for (int step = 0; step < 200; ++step) {
    const ObjectId a = static_cast<ObjectId>(1 + rng() % (n - 1));
    const ObjectId b = static_cast<ObjectId>(1 + rng() % (n - 1));
    if (a == b || g.Has(a, b)) continue;
    const WeightedEdge e{a, b, 0.01 * static_cast<double>(rng() % 100 + 1)};
    if (step % 3 == 0) {
      g.InsertEdges(std::span<const WeightedEdge>(&e, 1));
    } else {
      g.Insert(e.u, e.v, e.weight);
    }
  }
  ExpectColumnsMatchEdges(g);
  for (ObjectId i = 0; i < n; ++i) {
    std::vector<std::optional<double>> expected(n);
    const PartialDistanceGraph::AdjacencyColumns view = g.AdjacencyView(i);
    for (size_t k = 0; k < view.ids.size(); ++k) {
      expected[view.ids[k]] = view.distances[k];
    }
    for (ObjectId j = 0; j < n; ++j) {
      EXPECT_EQ(g.Get(i, j), expected[j]) << "(" << i << ", " << j << ")";
      EXPECT_EQ(g.Get(j, i), expected[j]) << "(" << j << ", " << i << ")";
      EXPECT_EQ(g.Has(i, j), expected[j].has_value());
      EXPECT_EQ(g.Has(j, i), expected[j].has_value());
    }
  }
}

TEST(PartialGraphTest, InsertEdgesSkipsRepeatsAndKeepsSpanOrder) {
  // Exact repeats against the graph and within the batch (in both
  // orientations, not adjacent in the span) are skipped; the first copy of
  // each new pair is the one recorded, and edges() keeps span order.
  PartialDistanceGraph g(8);
  g.Insert(5, 6, 0.125);
  const std::vector<WeightedEdge> batch = {
      WeightedEdge{3, 1, 0.5},  WeightedEdge{6, 5, 0.125},
      WeightedEdge{0, 7, 0.25}, WeightedEdge{1, 3, 0.5},
      WeightedEdge{2, 4, 1.0},  WeightedEdge{7, 0, 0.25},
      WeightedEdge{3, 1, 0.5}};
  g.InsertEdges(batch);
  const std::vector<WeightedEdge> want = {
      WeightedEdge{5, 6, 0.125}, WeightedEdge{3, 1, 0.5},
      WeightedEdge{0, 7, 0.25}, WeightedEdge{2, 4, 1.0}};
  EXPECT_EQ(g.edges(), want);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.Degree(5), 1u);
  EXPECT_EQ(g.Get(7, 0), 0.25);
  ExpectColumnsMatchEdges(g);
}

TEST(PartialGraphTest, InsertEdgesSharedEndpointBatchMatchesInserts) {
  // Prim's batches share one endpoint: a batch of every (u, v) for one u,
  // shuffled, with every edge repeated once, must equal plain inserts.
  const ObjectId n = 300;
  std::mt19937_64 rng(37);
  std::vector<WeightedEdge> batch;
  for (ObjectId v = 1; v < n; ++v) {
    batch.push_back(WeightedEdge{0, v, 0.01 * static_cast<double>(v)});
  }
  std::shuffle(batch.begin(), batch.end(), rng);
  const std::vector<WeightedEdge> unique = batch;
  for (const WeightedEdge& e : unique) {
    batch.push_back(WeightedEdge{e.v, e.u, e.weight});
  }
  PartialDistanceGraph bulk(n);
  bulk.InsertEdges(batch);
  PartialDistanceGraph sequential(n);
  for (const WeightedEdge& e : unique) sequential.Insert(e.u, e.v, e.weight);
  EXPECT_EQ(bulk.edges(), sequential.edges());
  EXPECT_EQ(bulk.Degree(0), static_cast<size_t>(n - 1));
  ExpectColumnsMatchEdges(bulk);
}

TEST(PartialGraphTest, InsertEdgesInterleavedWithInsertMatchesOneByOne) {
  // Every batch shape the resolver and the store produce, interleaved with
  // single inserts: Prim-shaped batches (one fixed endpoint against a
  // shuffled run of others, some already known), random batches, and
  // batches with exact repeats in both orientations. The graph must equal a
  // reference fed only the fresh edges, one Insert at a time, in span
  // order: same edges(), same columns bit for bit.
  const ObjectId n = 64;
  std::mt19937_64 rng(41);
  // A pure function of the pair, so every repeat is exact.
  const auto weight = [](ObjectId a, ObjectId b) {
    const EdgeKey key(a, b);
    return 0.5 + 0.125 * static_cast<double>(key.lo()) +
           0.0078125 * static_cast<double>(key.hi());
  };
  const auto random_node = [&] { return static_cast<ObjectId>(rng() % n); };
  PartialDistanceGraph g(n);
  PartialDistanceGraph reference(n);
  const auto feed_reference = [&](std::span<const WeightedEdge> batch) {
    for (const WeightedEdge& e : batch) {
      if (!reference.Has(e.u, e.v)) reference.Insert(e.u, e.v, e.weight);
    }
  };
  for (int round = 0; round < 60; ++round) {
    std::vector<WeightedEdge> batch;
    switch (round % 3) {
      case 0: {  // Prim-shaped: one fixed endpoint, either orientation.
        const ObjectId u = random_node();
        for (ObjectId v = 0; v < n; ++v) {
          if (v == u || rng() % 3 == 0) continue;
          batch.push_back(rng() % 2 == 0 ? WeightedEdge{u, v, weight(u, v)}
                                         : WeightedEdge{v, u, weight(u, v)});
        }
        std::shuffle(batch.begin(), batch.end(), rng);
        break;
      }
      case 1:  // Random pairs, possibly known or repeated by chance.
        while (batch.size() < 40) {
          const ObjectId a = random_node();
          const ObjectId b = random_node();
          if (a != b) batch.push_back(WeightedEdge{a, b, weight(a, b)});
        }
        break;
      default: {  // Exact repeats: fresh pairs, each copied in reverse.
        while (batch.size() < 12) {
          const ObjectId a = random_node();
          const ObjectId b = random_node();
          if (a != b) batch.push_back(WeightedEdge{a, b, weight(a, b)});
        }
        const std::vector<WeightedEdge> firsts = batch;
        for (const WeightedEdge& e : firsts) {
          batch.push_back(WeightedEdge{e.v, e.u, e.weight});
        }
        std::shuffle(batch.begin(), batch.end(), rng);
        break;
      }
    }
    g.InsertEdges(batch);
    feed_reference(batch);
    // A few single inserts between batches.
    for (int s = 0; s < 5; ++s) {
      const ObjectId a = random_node();
      const ObjectId b = random_node();
      if (a == b || g.Has(a, b)) continue;
      g.Insert(a, b, weight(a, b));
      reference.Insert(a, b, weight(a, b));
    }
    ASSERT_EQ(g.edges(), reference.edges()) << "round " << round;
    for (ObjectId i = 0; i < n; ++i) {
      const PartialDistanceGraph::AdjacencyColumns got = g.AdjacencyView(i);
      const PartialDistanceGraph::AdjacencyColumns want =
          reference.AdjacencyView(i);
      ASSERT_TRUE(std::equal(got.ids.begin(), got.ids.end(), want.ids.begin(),
                             want.ids.end()))
          << "round " << round << " node " << i;
      ASSERT_TRUE(std::equal(got.distances.begin(), got.distances.end(),
                             want.distances.begin(), want.distances.end()))
          << "round " << round << " node " << i;
    }
  }
  // The run must have filled a good share of the graph for the Prim-shaped
  // splices to have landed in the middle of long columns.
  EXPECT_GT(g.num_edges(), static_cast<size_t>(n) * (n - 1) / 4);
  ExpectColumnsMatchEdges(g);
}

TEST(PartialGraphTest, CommonNeighborMergeFindsExactlyTheTriangles) {
  PartialDistanceGraph g(7);
  // Common neighbors of (0, 1): 2 and 5. Neighbor 3 only touches 0,
  // neighbor 4 only touches 1.
  g.Insert(0, 2, 0.1);
  g.Insert(1, 2, 0.2);
  g.Insert(0, 3, 0.3);
  g.Insert(1, 4, 0.4);
  g.Insert(0, 5, 0.5);
  g.Insert(1, 5, 0.6);

  std::set<ObjectId> found;
  g.ForEachCommonNeighbor(0, 1, [&](ObjectId c, double d0, double d1) {
    found.insert(c);
    if (c == 2) {
      EXPECT_DOUBLE_EQ(d0, 0.1);
      EXPECT_DOUBLE_EQ(d1, 0.2);
    } else {
      EXPECT_DOUBLE_EQ(d0, 0.5);
      EXPECT_DOUBLE_EQ(d1, 0.6);
    }
  });
  EXPECT_EQ(found, (std::set<ObjectId>{2, 5}));
}

TEST(PartialGraphTest, CommonNeighborsMatchBruteForceOnRandomGraphs) {
  std::mt19937_64 rng(7);
  const ObjectId n = 30;
  PartialDistanceGraph g(n);
  std::set<std::pair<ObjectId, ObjectId>> inserted;
  for (int e = 0; e < 150; ++e) {
    ObjectId a = static_cast<ObjectId>(rng() % n);
    ObjectId b = static_cast<ObjectId>(rng() % n);
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    if (!inserted.insert({a, b}).second) continue;
    g.Insert(a, b, 0.01 * static_cast<double>(rng() % 100 + 1));
  }
  for (ObjectId i = 0; i < n; ++i) {
    for (ObjectId j = i + 1; j < n; ++j) {
      std::set<ObjectId> merged;
      g.ForEachCommonNeighbor(i, j,
                              [&](ObjectId c, double, double) { merged.insert(c); });
      std::set<ObjectId> brute;
      for (ObjectId c = 0; c < n; ++c) {
        if (c != i && c != j && g.Has(i, c) && g.Has(j, c)) brute.insert(c);
      }
      ASSERT_EQ(merged, brute) << "pair (" << i << ", " << j << ")";
    }
  }
}

}  // namespace
}  // namespace metricprox
