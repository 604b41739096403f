#include "graph/partial_graph.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace metricprox {

void internal::SpliceSortedRun(std::span<const WeightedEdge> run,
                               std::vector<ObjectId>* ids,
                               std::vector<double>* distances) {
  DCHECK_EQ(ids->size(), distances->size());
  size_t x = ids->size();
  size_t out = x + run.size();
  ids->resize(out);
  distances->resize(out);
  // Fill from the back: the larger of the two tails moves into the free
  // slot. Once the run is used up, the remaining prefix is already in place.
  for (size_t y = run.size(); y > 0;) {
    --out;
    if (x > 0 && (*ids)[x - 1] > run[y - 1].v) {
      --x;
      (*ids)[out] = (*ids)[x];
      (*distances)[out] = (*distances)[x];
    } else {
      --y;
      DCHECK(x == 0 || (*ids)[x - 1] != run[y].v) << "duplicate neighbor";
      (*ids)[out] = run[y].v;
      (*distances)[out] = run[y].weight;
    }
  }
}

void PartialDistanceGraph::Insert(ObjectId i, ObjectId j, double d) {
  CHECK_NE(i, j) << "self-edge";
  CHECK_LT(i, num_objects());
  CHECK_LT(j, num_objects());
  CHECK_GE(d, 0.0) << "negative distance from oracle";
  CHECK(Find(i, j) == nullptr) << "duplicate edge (" << i << ", " << j << ")";
  const WeightedEdge to_i{i, j, d};
  const WeightedEdge to_j{j, i, d};
  internal::SpliceSortedRun({&to_i, 1}, &csr_ids_[i], &csr_dist_[i]);
  internal::SpliceSortedRun({&to_j, 1}, &csr_ids_[j], &csr_dist_[j]);
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
  const size_t first_new = edges_.size();
  for (size_t k = 0; k < batch.size(); ++k) {
    if (!skip[k]) edges_.push_back(batch[k]);
  }
  internal::ForEachNodeRun(
      std::span<const WeightedEdge>(edges_).subspan(first_new),
      [this](ObjectId node, std::span<const WeightedEdge> run) {
        internal::SpliceSortedRun(run, &csr_ids_[node], &csr_dist_[node]);
      });
}

}  // namespace metricprox
