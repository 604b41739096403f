#include "graph/partial_graph.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace metricprox {

namespace {

/// Splices (id, d) into the AoS list and the SoA columns at the same rank,
/// keeping all three sorted by id in lockstep.
void InsertSorted(std::vector<PartialDistanceGraph::Neighbor>* list,
                  std::vector<ObjectId>* ids, std::vector<double>* dists,
                  ObjectId id, double d) {
  auto it = std::lower_bound(
      list->begin(), list->end(), id,
      [](const PartialDistanceGraph::Neighbor& n, ObjectId key) {
        return n.id < key;
      });
  const size_t rank = static_cast<size_t>(it - list->begin());
  list->insert(it, PartialDistanceGraph::Neighbor{id, d});
  ids->insert(ids->begin() + rank, id);
  dists->insert(dists->begin() + rank, d);
}

}  // namespace

void PartialDistanceGraph::Insert(ObjectId i, ObjectId j, double d) {
  CHECK_NE(i, j) << "self-edge";
  CHECK_LT(i, num_objects());
  CHECK_LT(j, num_objects());
  CHECK_GE(d, 0.0) << "negative distance from oracle";
  CHECK(Find(i, j) == nullptr) << "duplicate edge (" << i << ", " << j << ")";
  InsertSorted(&adjacency_[i], &csr_ids_[i], &csr_dist_[i], j, d);
  InsertSorted(&adjacency_[j], &csr_ids_[j], &csr_dist_[j], i, d);
  edges_.push_back(WeightedEdge{i, j, d});
}

void PartialDistanceGraph::InsertEdges(std::span<const WeightedEdge> batch) {
  // Sorting (pair, index) puts every repeat of a pair right after its first
  // occurrence in the batch, which is the copy that gets inserted.
  std::vector<std::pair<uint64_t, size_t>> order;
  order.reserve(batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    const WeightedEdge& e = batch[k];
    CHECK_NE(e.u, e.v) << "self-edge";
    CHECK_LT(e.u, num_objects());
    CHECK_LT(e.v, num_objects());
    CHECK_GE(e.weight, 0.0) << "negative distance from oracle";
    order.emplace_back(EdgeKey(e.u, e.v).packed(), k);
  }
  std::sort(order.begin(), order.end());
  std::vector<char> skip(batch.size(), 0);
  for (size_t r = 0; r < order.size(); ++r) {
    const WeightedEdge& e = batch[order[r].second];
    const bool repeat = r > 0 && order[r - 1].first == order[r].first;
    const double* known =
        repeat ? &batch[order[r - 1].second].weight : Find(e.u, e.v);
    if (known == nullptr) continue;
    // Exact duplicates are no-ops so a warm-start bulk load composes with
    // edges the graph already holds (checkpoint resume, repeated loads).
    // A *conflicting* distance still dies: two values for one pair means
    // the edges come from different metric spaces.
    CHECK_EQ(*known, e.weight)
        << "conflicting duplicate edge (" << e.u << ", " << e.v << ")";
    skip[order[r].second] = 1;
  }
  std::vector<ObjectId> touched;
  touched.reserve(2 * batch.size());
  for (size_t k = 0; k < batch.size(); ++k) {
    if (skip[k]) continue;
    const WeightedEdge& e = batch[k];
    adjacency_[e.u].push_back(Neighbor{e.v, e.weight});
    adjacency_[e.v].push_back(Neighbor{e.u, e.weight});
    touched.push_back(e.u);
    touched.push_back(e.v);
    edges_.push_back(e);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (const ObjectId id : touched) {
    std::sort(adjacency_[id].begin(), adjacency_[id].end(),
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
    RebuildColumns(id);
  }
}

void PartialDistanceGraph::RebuildColumns(ObjectId i) {
  const std::vector<Neighbor>& list = adjacency_[i];
  std::vector<ObjectId>& ids = csr_ids_[i];
  std::vector<double>& dists = csr_dist_[i];
  ids.resize(list.size());
  dists.resize(list.size());
  for (size_t k = 0; k < list.size(); ++k) {
    ids[k] = list[k].id;
    dists[k] = list[k].distance;
  }
}

}  // namespace metricprox
