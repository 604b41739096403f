#ifndef METRICPROX_BOUNDS_TRI_H_
#define METRICPROX_BOUNDS_TRI_H_

#include <string_view>
#include <utility>
#include <vector>

#include "check/certificate.h"
#include "core/bounder.h"
#include "core/simd.h"
#include "core/types.h"
#include "graph/partial_graph.h"

namespace metricprox {

/// The paper's Tri Scheme (Algorithm 2): bounds from triangles only.
///
/// For an unknown pair (i, j), every common resolved neighbor c forms a
/// triangle whose two known sides constrain the missing one:
///     lb = max_c |dist(i,c) - dist(j,c)|
///     ub = min_c (dist(i,c) + dist(j,c))
/// Expected O(m/n) per lookup (Theorem 4.2). Updates are the graph
/// insertion itself, so OnEdgeResolved is a no-op here.
///
/// Every sweep (kNN candidate ordering, Prim's key updates, range search)
/// holds one endpoint fixed while the other varies, so the bounder keeps a
/// dense *anchor row*: n doubles holding the anchor's resolved distances,
/// -1 for unknown pairs. A bound against the anchor is then one pass over
/// the other endpoint's adjacency — O(deg j) — gathering row[c] and keeping
/// the triangles whose row entry is known. Moving the anchor costs
/// O(deg old + deg new) to clear and re-scatter the row. The row is
/// allocated on the first bound (n x 8 bytes per bounder) and refreshed
/// whenever the anchor's degree changes, since edges are only ever added.
///
/// Bounds are looser than SPLUB's (paths longer than 2 are ignored) but the
/// scheme is the paper's recommended practical plug-in for large inputs.
///
/// The paper's Characteristic 1 admits *relaxed* triangle inequalities:
///     dist(i, j) <= rho * (dist(i, c) + dist(c, j)),  rho >= 1
/// (squared Euclidean distance is such a semimetric with rho = 2). Because
/// Tri only ever uses paths of length two, the relaxation enters each bound
/// exactly once:
///     ub = rho * (d(i,c) + d(j,c))
///     lb = max(d(i,c)/rho - d(j,c),  d(j,c)/rho - d(i,c))
/// so a TriBounder constructed with the space's rho stays valid — and the
/// framework's exactness guarantee carries over unchanged. (SPLUB/ADM/DFT
/// compose the inequality along longer paths and require rho = 1.)
///
/// The anchor row and the triangle scratch are per instance, not per
/// thread: concurrent sessions each driving their own TriBounder share no
/// mutable state, but one instance must not be driven from two threads at
/// once (the same contract as the resolver that owns it).
class TriBounder : public Bounder {
 public:
  explicit TriBounder(const PartialDistanceGraph* graph, double rho = 1.0)
      : graph_(graph), rho_(rho) {
    CHECK(graph != nullptr);
    CHECK_GE(rho, 1.0) << "relaxation factor must be >= 1";
  }

  std::string_view name() const override { return "tri"; }

  /// Anchors the row at i (or at j, when j already is the anchor), then
  /// compacts the triangles over the other endpoint's adjacency without a
  /// branch and reduces them through the dispatched tri-reduce kernel.
  /// The triangles arrive in the ascending-c order of
  /// PartialDistanceGraph::ForEachCommonNeighbor, and max, min, the gap and
  /// the sum are all symmetric in (i, j), so the interval is bit-identical
  /// to that walk's on every tier (see core/simd.h).
  Interval Bounds(ObjectId i, ObjectId j) override {
    if (j == anchor_) std::swap(i, j);
    Anchor(i);
    const PartialDistanceGraph::AdjacencyColumns other =
        graph_->AdjacencyView(j);
    const size_t degree = other.ids.size();
    if (di_.size() < degree) {
      di_.resize(degree);
      dj_.resize(degree);
    }
    const double* row = row_.data();
    size_t m = 0;
    for (size_t k = 0; k < degree; ++k) {
      const double known = row[other.ids[k]];
      di_[m] = known;
      dj_[m] = other.distances[k];
      m += known >= 0.0 ? 1 : 0;
    }
    return simd::ActiveKernels().tri_reduce(di_.data(), dj_.data(), m, rho_,
                                            1.0 / rho_);
  }

  void OnEdgeResolved(ObjectId, ObjectId, double) override {}

  /// The merge walk over both adjacency lists with argbest tracking: the
  /// interval equals Bounds() bit for bit, and the best triangle becomes
  /// the witness — the 2-edge path i-c-j for the upper bound, the
  /// better-oriented wrap of one triangle side for the lower bound.
  bool CertifyBounds(ObjectId i, ObjectId j,
                     BoundCertificate* cert) override {
    double lb = 0.0;
    double ub = kInfDistance;
    ObjectId ub_c = kInvalidObject;
    ObjectId lb_c = kInvalidObject;
    bool lb_is_ij = true;
    const double inv_rho = 1.0 / rho_;
    graph_->ForEachCommonNeighbor(
        i, j, [&](ObjectId c, double di, double dj) {
          const double gap_ij = di * inv_rho - dj;
          const double gap_ji = dj * inv_rho - di;
          const double gap = gap_ij > gap_ji ? gap_ij : gap_ji;
          if (gap > lb) {
            lb = gap;
            lb_c = c;
            lb_is_ij = gap_ij > gap_ji;
          }
          const double sum = rho_ * (di + dj);
          if (sum < ub) {
            ub = sum;
            ub_c = c;
          }
        });
    if (lb > ub) lb = ub;
    cert->kind = BoundCertificate::Kind::kInterval;
    cert->lb = lb;
    cert->ub = ub;
    cert->has_upper = ub_c != kInvalidObject;
    if (cert->has_upper) {
      cert->upper.nodes = {i, ub_c, j};
      cert->upper.rho = rho_;
    }
    cert->has_lower = lb_c != kInvalidObject;
    if (cert->has_lower) {
      cert->lower.rho = rho_;
      if (lb_is_ij) {
        // gap_ij = d(i,c)/rho - d(j,c): wrap the edge (i, c).
        cert->lower.u = i;
        cert->lower.v = lb_c;
        cert->lower.path_iu = {i};
        cert->lower.path_vj = {lb_c, j};
      } else {
        // gap_ji = d(c,j)/rho - d(i,c): wrap the edge (c, j).
        cert->lower.u = lb_c;
        cert->lower.v = j;
        cert->lower.path_iu = {i, lb_c};
        cert->lower.path_vj = {j};
      }
    }
    return true;
  }

  double rho() const { return rho_; }

 private:
  /// Makes row_ hold exactly i's resolved distances. A no-op while i is
  /// the anchor and its degree is unchanged.
  void Anchor(ObjectId i) {
    const size_t degree = graph_->Degree(i);
    if (i == anchor_ && degree == anchor_degree_) return;
    if (row_.empty()) row_.assign(graph_->num_objects(), -1.0);
    if (i != anchor_ && anchor_ != kInvalidObject) {
      for (const ObjectId c : graph_->AdjacencyView(anchor_).ids) {
        row_[c] = -1.0;
      }
    }
    const PartialDistanceGraph::AdjacencyColumns view =
        graph_->AdjacencyView(i);
    for (size_t k = 0; k < degree; ++k) row_[view.ids[k]] = view.distances[k];
    anchor_ = i;
    anchor_degree_ = degree;
  }

  const PartialDistanceGraph* graph_;  // not owned
  double rho_;
  // row_[c] = d(anchor_, c), or -1 when (anchor_, c) is unknown.
  std::vector<double> row_;
  ObjectId anchor_ = kInvalidObject;
  size_t anchor_degree_ = 0;
  // Kept triangle sides (anchor side, other side) for one tri_reduce call.
  std::vector<double> di_;
  std::vector<double> dj_;
};

}  // namespace metricprox

#endif  // METRICPROX_BOUNDS_TRI_H_
