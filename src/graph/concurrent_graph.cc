#include "graph/concurrent_graph.h"

#include <algorithm>

namespace metricprox {

namespace {

/// The shared epoch returned for nodes that have never been touched, so
/// AdjacencySnapshot never hands out null.
const ConcurrentDistanceGraph::Snapshot& EmptyColumns() {
  static const ConcurrentDistanceGraph::Snapshot empty =
      std::make_shared<const ConcurrentDistanceGraph::NodeColumns>();
  return empty;
}

}  // namespace

ConcurrentDistanceGraph::ConcurrentDistanceGraph(ObjectId num_objects,
                                                 size_t num_shards)
    : num_objects_(num_objects),
      num_shards_(num_shards == 0 ? 1 : num_shards),
      edge_shards_(num_shards_),
      node_shards_(num_shards_),
      columns_(num_objects) {}

bool ConcurrentDistanceGraph::Has(ObjectId i, ObjectId j) const {
  return Get(i, j).has_value();
}

std::optional<double> ConcurrentDistanceGraph::Get(ObjectId i,
                                                   ObjectId j) const {
  if (i == j) return std::nullopt;  // as PartialDistanceGraph: never stored
  const EdgeKey key(i, j);
  const EdgeShard& shard = edge_shards_[EdgeShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.edges.find(key);
  if (it == shard.edges.end()) return std::nullopt;
  return it->second;
}

void ConcurrentDistanceGraph::ValidateEdge(ObjectId i, ObjectId j,
                                           double d) const {
  CHECK_NE(i, j) << "self-edge";
  CHECK_LT(i, num_objects_);
  CHECK_LT(j, num_objects_);
  CHECK_GE(d, 0.0) << "negative distance from oracle";
}

bool ConcurrentDistanceGraph::EmplaceEdge(ObjectId i, ObjectId j, double d) {
  const EdgeKey key(i, j);
  EdgeShard& shard = edge_shards_[EdgeShardOf(key)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto [it, inserted] = shard.edges.emplace(key, d);
  if (!inserted) {
    CHECK_EQ(it->second, d)
        << "conflicting duplicate edge (" << i << ", " << j << ")";
  }
  return inserted;
}

void ConcurrentDistanceGraph::PublishNeighbors(
    ObjectId i, std::span<const WeightedEdge> run) {
  NodeShard& shard = node_shards_[NodeShardOf(i)];
  std::lock_guard<std::mutex> lock(shard.mu);
  const Snapshot& current = columns_[i] ? columns_[i] : EmptyColumns();
  // The new epoch is fully built before the swap below makes it visible.
  auto next = std::make_shared<NodeColumns>();
  next->ids.reserve(current->ids.size() + run.size());
  next->distances.reserve(current->distances.size() + run.size());
  next->ids.assign(current->ids.begin(), current->ids.end());
  next->distances.assign(current->distances.begin(),
                         current->distances.end());
  internal::SpliceSortedRun(run, &next->ids, &next->distances);
  columns_[i] = std::move(next);
}

bool ConcurrentDistanceGraph::Insert(ObjectId i, ObjectId j, double d) {
  ValidateEdge(i, j, d);
  if (!EmplaceEdge(i, j, d)) return false;
  const WeightedEdge to_i{i, j, d};
  const WeightedEdge to_j{j, i, d};
  PublishNeighbors(i, {&to_i, 1});
  PublishNeighbors(j, {&to_j, 1});
  return true;
}

size_t ConcurrentDistanceGraph::InsertEdges(
    std::span<const WeightedEdge> batch) {
  // Claim edges in the striped map first (the authority for duplicates),
  // then group the fresh ones per node so each node's adjacency is
  // published in exactly one epoch swap.
  std::vector<WeightedEdge> fresh;
  fresh.reserve(batch.size());
  for (const WeightedEdge& e : batch) {
    ValidateEdge(e.u, e.v, e.weight);
    if (EmplaceEdge(e.u, e.v, e.weight)) fresh.push_back(e);
  }
  internal::ForEachNodeRun(
      fresh, [this](ObjectId node, std::span<const WeightedEdge> run) {
        PublishNeighbors(node, run);
      });
  return fresh.size();
}

ConcurrentDistanceGraph::Snapshot ConcurrentDistanceGraph::AdjacencySnapshot(
    ObjectId i) const {
  DCHECK_LT(i, columns_.size());
  const NodeShard& shard = node_shards_[NodeShardOf(i)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return columns_[i] ? columns_[i] : EmptyColumns();
}

size_t ConcurrentDistanceGraph::num_edges() const {
  size_t total = 0;
  for (const EdgeShard& shard : edge_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.edges.size();
  }
  return total;
}

std::vector<WeightedEdge> ConcurrentDistanceGraph::Edges() const {
  std::vector<WeightedEdge> out;
  for (const EdgeShard& shard : edge_shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    out.reserve(out.size() + shard.edges.size());
    for (const auto& [key, d] : shard.edges) {
      out.push_back(WeightedEdge{key.lo(), key.hi(), d});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return EdgeKey(a.u, a.v) < EdgeKey(b.u, b.v);
            });
  return out;
}

}  // namespace metricprox
