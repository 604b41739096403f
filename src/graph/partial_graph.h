#ifndef METRICPROX_GRAPH_PARTIAL_GRAPH_H_
#define METRICPROX_GRAPH_PARTIAL_GRAPH_H_

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/types.h"

namespace metricprox {

/// The evolving partial graph of resolved distances (the paper's data model,
/// Section 3.1): nodes are the n objects; an edge (i, j, d) exists once the
/// oracle has been asked for dist(i, j) = d.
///
/// Representation:
///  * per-node adjacency lists sorted by neighbor id, so the Tri Scheme can
///    intersect two lists with a linear merge (the role played by the
///    balanced BSTs in the paper; a flat sorted array gives the same
///    O(deg_i + deg_j) intersection with better constants);
///  * a CSR-style SoA mirror of those lists — per-node contiguous
///    (neighbor_ids[], distances[]) column pairs, maintained incrementally
///    on every insert — so the bound kernels (core/simd.h) can stream ids
///    and distances separately instead of striding over Neighbor structs;
///  * an append-only edge list for SPLUB's scan over known edges.
///
/// There is no hash map: Get, Has and the duplicate checks of Insert and
/// InsertEdges binary-search the shorter of the two endpoints' sorted id
/// columns, O(log min(deg_i, deg_j)). Insertion cost is O(deg) for the
/// sorted-vector splices; all bench workloads are read-dominated.
class PartialDistanceGraph {
 public:
  struct Neighbor {
    ObjectId id;
    double distance;
  };

  /// One node's adjacency in SoA form: ids[k] and distances[k] describe the
  /// k-th resolved neighbor, sorted ascending by id. Spans point into the
  /// graph's own columns and are invalidated by any insert.
  struct AdjacencyColumns {
    std::span<const ObjectId> ids;
    std::span<const double> distances;
  };

  explicit PartialDistanceGraph(ObjectId num_objects)
      : adjacency_(num_objects),
        csr_ids_(num_objects),
        csr_dist_(num_objects) {}

  ObjectId num_objects() const {
    return static_cast<ObjectId>(adjacency_.size());
  }
  size_t num_edges() const { return edges_.size(); }

  bool Has(ObjectId i, ObjectId j) const { return Find(i, j) != nullptr; }

  /// The resolved distance, or nullopt if (i, j) is still unknown.
  std::optional<double> Get(ObjectId i, ObjectId j) const {
    const double* d = Find(i, j);
    if (d == nullptr) return std::nullopt;
    return *d;
  }

  /// Records dist(i, j) = d. CHECK-fails on duplicates, self-edges and
  /// negative distances (a metric oracle can never produce them).
  void Insert(ObjectId i, ObjectId j, double d);

  /// Bulk form of Insert for the batch resolution path and the store's
  /// warm start: records every edge, but splices each touched adjacency
  /// list once instead of once per edge. Unlike Insert, an exact duplicate
  /// (same pair, same distance) — against the graph or within the batch —
  /// is skipped silently, so a warm-start load followed by a resolver
  /// insert of an already-known edge is a no-op; a duplicate with a
  /// *different* distance still CHECK-fails. Repeats within the batch are
  /// found by sorting (pair, index) once, so a batch sharing one endpoint
  /// costs O(b log b), not O(b^2). For duplicate-free batches the final
  /// state (sorted adjacency, lookups, edges() in span order) is identical
  /// to inserting the edges one by one.
  void InsertEdges(std::span<const WeightedEdge> batch);

  /// Neighbors of i sorted ascending by id.
  const std::vector<Neighbor>& Neighbors(ObjectId i) const {
    DCHECK_LT(i, adjacency_.size());
    return adjacency_[i];
  }

  /// Number of resolved edges incident to i.
  size_t Degree(ObjectId i) const { return Neighbors(i).size(); }

  /// SoA view of Neighbors(i): the same neighbors in the same (ascending-id)
  /// order, as two parallel contiguous columns. This is the layout the
  /// dispatched bound kernels consume; the invariant that it mirrors
  /// Neighbors() exactly across every insert path is pinned by
  /// partial_graph_test.
  AdjacencyColumns AdjacencyView(ObjectId i) const {
    DCHECK_LT(i, csr_ids_.size());
    return AdjacencyColumns{csr_ids_[i], csr_dist_[i]};
  }

  /// All resolved edges in insertion order.
  const std::vector<WeightedEdge>& edges() const { return edges_; }

  /// Calls fn(c, dist(i,c), dist(j,c)) for every common resolved neighbor c
  /// of i and j, i.e. every triangle whose missing edge is (i, j). Linear
  /// merge over the two sorted adjacency lists.
  template <typename Fn>
  void ForEachCommonNeighbor(ObjectId i, ObjectId j, Fn&& fn) const {
    const std::vector<Neighbor>& a = Neighbors(i);
    const std::vector<Neighbor>& b = Neighbors(j);
    size_t x = 0;
    size_t y = 0;
    while (x < a.size() && y < b.size()) {
      if (a[x].id == b[y].id) {
        fn(a[x].id, a[x].distance, b[y].distance);
        ++x;
        ++y;
      } else if (a[x].id < b[y].id) {
        ++x;
      } else {
        ++y;
      }
    }
  }

 private:
  /// Address of the stored dist(i, j) inside the shorter endpoint's
  /// distance column, or nullptr if (i, j) is unknown. Invalidated by any
  /// insert.
  const double* Find(ObjectId i, ObjectId j) const {
    DCHECK_LT(i, csr_ids_.size());
    DCHECK_LT(j, csr_ids_.size());
    if (csr_ids_[i].size() > csr_ids_[j].size()) std::swap(i, j);
    const std::vector<ObjectId>& ids = csr_ids_[i];
    const auto it = std::lower_bound(ids.begin(), ids.end(), j);
    if (it == ids.end() || *it != j) return nullptr;
    return &csr_dist_[i][static_cast<size_t>(it - ids.begin())];
  }

  /// Re-derives node i's SoA columns from its (already sorted) AoS list.
  /// O(deg) copy — the same cost as the sort or splice that preceded it.
  void RebuildColumns(ObjectId i);

  std::vector<std::vector<Neighbor>> adjacency_;
  // SoA mirror of adjacency_ (see AdjacencyView). Kept alongside the AoS
  // lists rather than replacing them: Dijkstra-style consumers want the
  // (id, distance) pairs interleaved, the kernels want them separated, and
  // the duplication is bounded by the resolved-edge count.
  std::vector<std::vector<ObjectId>> csr_ids_;
  std::vector<std::vector<double>> csr_dist_;
  std::vector<WeightedEdge> edges_;
};

}  // namespace metricprox

#endif  // METRICPROX_GRAPH_PARTIAL_GRAPH_H_
