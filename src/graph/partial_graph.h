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
/// Representation — one adjacency layout:
///  * per node, two parallel columns (neighbor_ids[], distances[]) sorted
///    ascending by neighbor id. The Tri Scheme intersects two nodes' id
///    columns with a linear merge (the role played by the balanced BSTs in
///    the paper; a flat sorted array gives the same O(deg_i + deg_j)
///    intersection with better constants), the bound kernels (core/simd.h)
///    stream ids and distances separately, and Dijkstra relaxes over them;
///  * an append-only edge list for SPLUB's scan over known edges.
///
/// There is no hash map: Get, Has and the duplicate checks of Insert and
/// InsertEdges binary-search the shorter of the two endpoints' sorted id
/// columns, O(log min(deg_i, deg_j)). Every insert path goes through
/// SpliceSortedRun, so adding a run of `a` neighbors to a node costs
/// O(deg + a); all bench workloads are read-dominated.
class PartialDistanceGraph {
 public:
  /// One node's adjacency: ids[k] and distances[k] describe the k-th
  /// resolved neighbor, sorted ascending by id. Spans point into the
  /// graph's own columns and are invalidated by any insert.
  struct AdjacencyColumns {
    std::span<const ObjectId> ids;
    std::span<const double> distances;
  };

  explicit PartialDistanceGraph(ObjectId num_objects)
      : csr_ids_(num_objects), csr_dist_(num_objects) {}

  ObjectId num_objects() const {
    return static_cast<ObjectId>(csr_ids_.size());
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
  /// warm start: records every edge, but splices each touched node's
  /// columns once instead of once per edge. Unlike Insert, an exact
  /// duplicate (same pair, same distance) — against the graph or within the
  /// batch — is skipped silently, so a warm-start load followed by a
  /// resolver insert of an already-known edge is a no-op; a duplicate with
  /// a *different* distance still CHECK-fails. Repeats within the batch are
  /// found by sorting (pair, index) once, and the surviving half-edges are
  /// grouped per node by one more sort, so a batch sharing one endpoint
  /// costs O(b log b), not O(b^2). For duplicate-free batches the final
  /// state (sorted columns, lookups, edges() in span order) is identical to
  /// inserting the edges one by one.
  void InsertEdges(std::span<const WeightedEdge> batch);

  /// Number of resolved edges incident to i.
  size_t Degree(ObjectId i) const {
    DCHECK_LT(i, csr_ids_.size());
    return csr_ids_[i].size();
  }

  /// Node i's adjacency as two parallel columns in ascending-id order: the
  /// layout every reader consumes. partial_graph_test pins, after every
  /// insert path, that the columns are strictly ascending, parallel,
  /// symmetric and equal to a reference rebuilt from edges().
  AdjacencyColumns AdjacencyView(ObjectId i) const {
    DCHECK_LT(i, csr_ids_.size());
    return AdjacencyColumns{csr_ids_[i], csr_dist_[i]};
  }

  /// All resolved edges in insertion order.
  const std::vector<WeightedEdge>& edges() const { return edges_; }

  /// Calls fn(c, dist(i,c), dist(j,c)) for every common resolved neighbor c
  /// of i and j, i.e. every triangle whose missing edge is (i, j). Linear
  /// merge over the two sorted id columns.
  template <typename Fn>
  void ForEachCommonNeighbor(ObjectId i, ObjectId j, Fn&& fn) const {
    const AdjacencyColumns a = AdjacencyView(i);
    const AdjacencyColumns b = AdjacencyView(j);
    size_t x = 0;
    size_t y = 0;
    while (x < a.ids.size() && y < b.ids.size()) {
      if (a.ids[x] == b.ids[y]) {
        fn(a.ids[x], a.distances[x], b.distances[y]);
        ++x;
        ++y;
      } else if (a.ids[x] < b.ids[y]) {
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

  // csr_ids_[i] / csr_dist_[i]: node i's sorted columns (see AdjacencyView).
  std::vector<std::vector<ObjectId>> csr_ids_;
  std::vector<std::vector<double>> csr_dist_;
  std::vector<WeightedEdge> edges_;
};

namespace internal {

/// The sorted-column splice both graph classes insert through. `run` holds
/// half-edges (node, neighbor, distance) of one node — run[k].u is that
/// node, run[k].v the neighbor — strictly ascending by neighbor and absent
/// from `ids`. A backward merge grows both columns once and moves each
/// existing entry at most once: O(deg + a) for a run of length a.
void SpliceSortedRun(std::span<const WeightedEdge> run,
                     std::vector<ObjectId>* ids,
                     std::vector<double>* distances);

/// Groups the two half-edges {u, v, d} and {v, u, d} of every edge in
/// `edges` (duplicate-free) by node and calls fn(node, run) once per
/// touched node, with the run sorted by neighbor, ready for
/// SpliceSortedRun. One sort of 2 * edges.size() half-edges.
template <typename Fn>
void ForEachNodeRun(std::span<const WeightedEdge> edges, Fn&& fn) {
  std::vector<WeightedEdge> halves;
  halves.reserve(2 * edges.size());
  for (const WeightedEdge& e : edges) {
    halves.push_back(e);
    halves.push_back(WeightedEdge{e.v, e.u, e.weight});
  }
  std::sort(halves.begin(), halves.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.u != b.u ? a.u < b.u : a.v < b.v;
            });
  const std::span<const WeightedEdge> all(halves);
  for (size_t begin = 0; begin < all.size();) {
    size_t end = begin + 1;
    while (end < all.size() && all[end].u == all[begin].u) ++end;
    fn(all[begin].u, all.subspan(begin, end - begin));
    begin = end;
  }
}

}  // namespace internal

}  // namespace metricprox

#endif  // METRICPROX_GRAPH_PARTIAL_GRAPH_H_
