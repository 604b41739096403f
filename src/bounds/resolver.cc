#include "bounds/resolver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>

#include "bounds/weak.h"
#include "core/logging.h"
#include "core/simd.h"
#include "obs/span.h"

namespace metricprox {

namespace {

Status BudgetExhausted(uint64_t spent, uint64_t budget, uint64_t requested) {
  return Status::ResourceExhausted(
      "oracle budget exhausted: " + std::to_string(spent) + "/" +
      std::to_string(budget) + " calls spent, " + std::to_string(requested) +
      " more needed with no slack fallback");
}

Status WeakModelViolated(const std::string& detail) {
  return Status::FailedPrecondition(
      "weak oracle violated its advertised error model: " + detail);
}

}  // namespace

BoundedResolver::BoundedResolver(DistanceOracle* oracle,
                                 PartialDistanceGraph* graph)
    : oracle_(oracle), graph_(graph), bounder_(&null_bounder_) {
  CHECK(oracle != nullptr);
  CHECK(graph != nullptr);
  CHECK_EQ(oracle->num_objects(), graph->num_objects());
  StampKernelDispatch();
}

void BoundedResolver::StampKernelDispatch() {
  stats_.kernel_dispatch = static_cast<uint64_t>(simd::ActiveTier());
}

void BoundedResolver::SetBounder(Bounder* bounder) {
  bounder_ = bounder != nullptr ? bounder : &null_bounder_;
}

void BoundedResolver::SetPolicy(const ResolutionPolicy& policy) {
  CHECK(std::isfinite(policy.eps)) << "eps must be finite";
  CHECK_GE(policy.eps, 0.0) << "eps must be non-negative";
  CHECK_LT(policy.eps, 1.0) << "eps must be below 1";
  policy_ = policy;
  budget_spent_ = 0;
}

Interval BoundedResolver::SlackBounds(ObjectId i, ObjectId j) {
  ++stats_.bound_queries;
  Stopwatch watch;
  const Interval bounds = bounder_->Bounds(i, j);
  stats_.bounder_seconds += watch.ElapsedSeconds();
  return bounds;
}

Interval BoundedResolver::WeakIntersect(ObjectId i, ObjectId j,
                                        const Interval& b) {
  ++stats_.weak_calls;
  const Interval w = weak_->Bounds(i, j);
  if (telemetry_ != nullptr) {
    telemetry_->weak_interval_width.Record(SlackRelativeGap(w));
  }
  if (w.lo > b.hi + BoundDecisionMargin(b.hi) ||
      b.lo > w.hi + BoundDecisionMargin(w.hi)) {
    // The scheme's interval is certified, so a weak interval that misses it
    // entirely proves the weak oracle broke its advertised error model.
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "weak interval [%.17g, %.17g] for pair (%u, %u) is disjoint "
                  "from the scheme's certified interval [%.17g, %.17g]",
                  w.lo, w.hi, i, j, b.lo, b.hi);
    Fail(WeakModelViolated(buf));
  }
  double lo = std::max(w.lo, b.lo);
  double hi = std::min(w.hi, b.hi);
  if (lo > hi) lo = hi;  // sub-margin fp disagreement; clamp like Hybrid
  return Interval(lo, hi);
}

void BoundedResolver::NotifyWeakResolved(ObjectId i, ObjectId j, double d) {
  if (weak_ == nullptr) return;
  weak_->OnEdgeResolved(i, j, d);
  if (weak_->violated()) Fail(WeakModelViolated(weak_->violation_detail()));
}

void BoundedResolver::DieOnBadId(ObjectId id) const {
  CHECK_LT(id, graph_->num_objects()) << "object id out of range";
  std::abort();  // unreachable: the CHECK above fails
}

void BoundedResolver::Fail(Status status) {
  oracle_status_ = status;
  if (fallible_depth_ > 0) {
    throw internal::OracleTransportError{std::move(status)};
  }
  const char* what = "oracle transport failed";
  if (oracle_status_.code() == StatusCode::kResourceExhausted) {
    what = "oracle budget exhausted";
  } else if (oracle_status_.code() == StatusCode::kFailedPrecondition) {
    what = "resolution precondition failed";
  }
  CHECK(false) << what << " outside RunFallible: " << oracle_status_;
  std::abort();  // unreachable; keeps [[noreturn]] honest for the compiler
}

StatusOr<double> BoundedResolver::RunFallible(
    const std::function<double(BoundedResolver*)>& body) {
  CHECK(body != nullptr);
  oracle_status_ = Status::OK();
  ++fallible_depth_;
  try {
    const double value = body(this);
    --fallible_depth_;
    return value;
  } catch (const internal::OracleTransportError& error) {
    --fallible_depth_;
    return error.status;
  }
}

double BoundedResolver::Distance(ObjectId i, ObjectId j) {
  CheckId(i);
  CheckId(j);
  if (i == j) return 0.0;
  if (const std::optional<double> cached = graph_->Get(i, j)) {
    return *cached;
  }
  if (BudgetActive() && BudgetRemaining() == 0) {
    Fail(BudgetExhausted(budget_spent_, policy_.oracle_budget, 1));
  }
  Stopwatch oracle_watch;
  StatusOr<double> resolved = oracle_->TryDistance(i, j);
  const double oracle_elapsed = oracle_watch.ElapsedSeconds();
  stats_.oracle_seconds += oracle_elapsed;
  if (!resolved.ok()) {
    ++stats_.oracle_failures;
    Fail(resolved.status());
  }
  const double d = resolved.value();
  ++stats_.oracle_calls;
  ++budget_spent_;
  if (telemetry_ != nullptr) {
    telemetry_->oracle_latency_seconds.Record(oracle_elapsed);
    TraceEvent event;
    event.kind = TraceEventKind::kOracleCall;
    event.i = i;
    event.j = j;
    event.value = d;
    event.seconds = oracle_elapsed;
    telemetry_->Emit(event);
  }

  graph_->Insert(i, j, d);
  Stopwatch bounder_watch;
  bounder_->OnEdgeResolved(i, j, d);
  stats_.bounder_seconds += bounder_watch.ElapsedSeconds();
  // Every paid resolution doubles as a free ground-truth check of the weak
  // oracle's advertised interval for this pair.
  NotifyWeakResolved(i, j, d);
  return d;
}

Interval BoundedResolver::Bounds(ObjectId i, ObjectId j) {
  CheckId(i);
  CheckId(j);
  if (i == j) return Interval::Exact(0.0);
  if (const std::optional<double> cached = graph_->Get(i, j)) {
    return Interval::Exact(*cached);
  }
  ++stats_.bound_queries;
  Stopwatch watch;
  const Interval bounds = bounder_->Bounds(i, j);
  stats_.bounder_seconds += watch.ElapsedSeconds();
  return bounds;
}

bool BoundedResolver::LessThan(ObjectId i, ObjectId j, double t) {
  Query q{i, j, t};
  return Decide(q);
}

bool BoundedResolver::ProvenGreaterThan(ObjectId i, ObjectId j, double t) {
  Query q{i, j, t, Side::kGreater};
  return Decide(q);
}

bool BoundedResolver::ProvenGreaterOrEqual(ObjectId i, ObjectId j, double t) {
  Query q{i, j, t, Side::kGreaterOrEqual};
  return Decide(q);
}

bool BoundedResolver::PairLess(ObjectId i, ObjectId j, ObjectId k,
                               ObjectId l) {
  // The trace carries the left pair; there is no scalar threshold.
  Query q{i, j, TraceEvent::kUnset, Side::kLess, true, k, l};
  return Decide(q);
}

// The stages a scalar verb runs are forced inline, so each verb compiles
// to its own straight-line cascade with the side and the pair shape folded
// to constants. Left to the inliner, some stages stayed out of line and
// ProvenGreaterThan cost 8-10% more per comparison in
// BM_ResolverProvenSweep.
[[gnu::always_inline]] inline bool BoundedResolver::Decide(Query& q) {
  if (const std::optional<bool> known = Open(q)) return *known;
  Evidence ev;
  if (const std::optional<bool> decided = Tail(q, SchemeVerdict(q), &ev)) {
    return *decided;
  }
  // Not proven (either disproven or undecidable). No oracle call happens
  // here — the caller typically resolves next, and *that* comparison is the
  // one charged to the oracle.
  if (q.side != Side::kLess) return Settle(Source::kUndecided, q, false);
  const uint64_t needed = (q.dij ? 0u : 1u) + (q.pair && !q.dkl ? 1u : 0u);
  if (BudgetActive() && BudgetRemaining() < needed) {
    return ForceSlack(q, ev, needed);
  }
  Settle(Source::kOracle, q, false);
  const double a = q.dij ? *q.dij : Distance(q.i, q.j);
  if (!q.pair) return a < q.t;
  return a < (q.dkl ? *q.dkl : Distance(q.k, q.l));
}

[[gnu::always_inline]] inline std::optional<bool> BoundedResolver::Open(
    Query& q) {
  CheckId(q.i);
  CheckId(q.j);
  if (q.pair) {
    CheckId(q.k);
    CheckId(q.l);
  }
  ++stats_.comparisons;
  Trace(TraceEventKind::kComparison, q.i, q.j, q.t);
  if (q.t == kInfDistance && q.side != Side::kGreater) {
    // Any finite metric distance is below +inf (and so never reaches it);
    // deciding here keeps an infinite right-hand side out of scheme
    // internals (notably DFT's LP). ProvenGreaterThan asks its scheme verb.
    return Settle(Source::kBounds, q, q.side == Side::kLess);
  }
  q.dij = q.i == q.j ? std::optional<double>(0.0) : graph_->Get(q.i, q.j);
  if (q.pair) {
    q.dkl = q.k == q.l ? std::optional<double>(0.0) : graph_->Get(q.k, q.l);
    if (!q.dij || !q.dkl) return std::nullopt;
    return Settle(Source::kCache, q, *q.dij < *q.dkl);
  }
  if (!q.dij) return std::nullopt;
  const double d = *q.dij;
  const bool outcome = q.side == Side::kLess      ? d < q.t
                       : q.side == Side::kGreater ? d > q.t
                                                  : d >= q.t;
  return Settle(Source::kCache, q, outcome);
}

[[gnu::always_inline]] inline std::optional<bool>
BoundedResolver::SchemeVerdict(const Query& q) {
  ++stats_.bound_queries;
  Stopwatch watch;
  std::optional<bool> verdict;
  if (!q.pair) {
    verdict = q.side == Side::kGreater
                  ? bounder_->DecideGreaterThan(q.i, q.j, q.t)
                  : bounder_->DecideLessThan(q.i, q.j, q.t);
  } else if (q.dkl) {
    // Right side known: `dist(i,j) < t`.
    verdict = bounder_->DecideLessThan(q.i, q.j, *q.dkl);
  } else if (q.dij) {
    // Left side known: `dist(k,l) > t` (not the negation of LessThan —
    // equality must resolve to false here and the scheme must stay exact).
    verdict = bounder_->DecideGreaterThan(q.k, q.l, *q.dij);
  } else {
    verdict = bounder_->DecidePairLess(q.i, q.j, q.k, q.l);
  }
  stats_.bounder_seconds += watch.ElapsedSeconds();
  // dist(i, j) < t provably false is dist(i, j) >= t.
  if (verdict && q.side == Side::kGreaterOrEqual) verdict = !*verdict;
  return verdict;
}

[[gnu::always_inline]] inline std::optional<bool> BoundedResolver::Tail(
    const Query& q, std::optional<bool> verdict, Evidence* ev) {
  const bool two_sided = q.side == Side::kLess;
  // A proof verb takes only a proof; a disproof is "not proven".
  if (verdict && (two_sided || *verdict)) {
    return Settle(Source::kBounds, q, *verdict);
  }
  // The proof verbs consult the weak oracle only when the scheme could not
  // decide, and are never slack-decided (they are one-sided and already
  // conservative).
  const bool weak = WeakActive() && (two_sided || !verdict);
  const bool slack = two_sided && PolicyActive();
  if (!weak && !slack) return std::nullopt;
  return WeakOrSlack(q, weak, slack, ev);
}

std::optional<bool> BoundedResolver::WeakOrSlack(const Query& q, bool weak,
                                                 bool slack, Evidence* ev) {
  ev->bij = q.dij ? Interval::Exact(*q.dij) : SlackBounds(q.i, q.j);
  if (q.pair) {
    ev->bkl = q.dkl ? Interval::Exact(*q.dkl) : SlackBounds(q.k, q.l);
  }
  ev->eij = ev->bij;
  if (weak) {
    // Weak before slack: a weak decision is exact (when the model holds),
    // a slack decision is not. A resolved side is exact; only unresolved
    // sides consult the weak oracle.
    if (!q.dij) ev->eij = WeakIntersect(q.i, q.j, ev->bij);
    const Interval ekl =
        q.pair && !q.dkl ? WeakIntersect(q.k, q.l, ev->bkl) : ev->bkl;
    // The right-hand side is the threshold, or the right pair's interval
    // with the margin Bounder::DecidePairLess uses.
    const double rlo = q.pair ? ekl.lo : q.t;
    const double rhi = q.pair ? ekl.hi : q.t;
    const double scale =
        !q.pair ? q.t
        : std::min(ev->eij.hi, ekl.hi) == kInfDistance
            ? std::max(ev->eij.lo, ekl.lo)
            : std::min(ev->eij.hi, ekl.hi);
    const double margin = BoundDecisionMargin(scale);
    std::optional<bool> by_weak;
    if (q.side == Side::kLess) {
      if (ev->eij.hi < rlo - margin) {
        by_weak = true;
      } else if (ev->eij.lo >= rhi + margin) {
        by_weak = false;
      }
    } else if (q.side == Side::kGreater ? ev->eij.lo > rhi + margin
                                        : ev->eij.lo >= rhi + margin) {
      by_weak = true;
    }
    if (by_weak) return Settle(Source::kWeak, q, *by_weak, ev);
  }
  if (slack) {
    // The realized error of a slack pair decision is the worse of the two
    // relative gaps (a resolved side is exact: gap 0).
    ev->gap = SlackRelativeGap(ev->bij);
    if (q.pair) ev->gap = std::max(ev->gap, SlackRelativeGap(ev->bkl));
    if (SlackActive() && ev->gap <= policy_.eps) {
      return Settle(Source::kSlack, q, SlackOutcome(q, *ev), ev);
    }
  }
  return std::nullopt;
}

bool BoundedResolver::ForceSlack(const Query& q, const Evidence& ev,
                                 uint64_t needed) {
  if (!std::isfinite(ev.bij.hi) || (q.pair && !std::isfinite(ev.bkl.hi))) {
    Fail(BudgetExhausted(budget_spent_, policy_.oracle_budget, needed));
  }
  return Settle(Source::kForcedSlack, q, SlackOutcome(q, ev), &ev);
}

[[gnu::always_inline]] inline bool BoundedResolver::Settle(
    Source source, const Query& q, bool outcome, const Evidence* ev) {
  TraceEventKind kind = TraceEventKind::kDecidedByCache;
  switch (source) {
    case Source::kCache:
      ++stats_.decided_by_cache;
      break;
    case Source::kBounds:
      ++stats_.decided_by_bounds;
      kind = TraceEventKind::kDecidedByBounds;
      break;
    case Source::kWeak:
      ++stats_.decided_by_weak;
      kind = TraceEventKind::kDecidedByWeak;
      break;
    case Source::kForcedSlack:
      ++stats_.budget_exhausted;
      [[fallthrough]];
    case Source::kSlack:
      ++stats_.decided_by_slack;
      if (telemetry_ != nullptr) {
        telemetry_->slack_realized_error.Record(ev->gap);
      }
      kind = TraceEventKind::kDecidedBySlack;
      break;
    case Source::kOracle:
      ++stats_.decided_by_oracle;
      // The gap probe must run before the resolution collapses the interval
      // to the exact value; a pair comparison has no threshold to probe.
      if (!q.pair) ProbeBoundGap(q.i, q.j, q.t);
      kind = TraceEventKind::kDecidedByOracle;
      break;
    case Source::kUndecided:
      ++stats_.undecided;
      ProbeBoundGap(q.i, q.j, q.t);
      kind = TraceEventKind::kUndecided;
      break;
  }
  Trace(kind, q.i, q.j, q.t);
  if (ev != nullptr) Observe(source, q, *ev, outcome);
  return outcome;
}

void BoundedResolver::Observe(Source source, const Query& q,
                              const Evidence& ev, bool outcome) {
  // The observation channels let the audit shim certify the decisions no
  // scheme verb made.
  Stopwatch watch;
  if (source != Source::kWeak) {
    if (q.pair) {
      bounder_->ObserveSlackPairLess(q.i, q.j, q.k, q.l, ev.bij, ev.bkl,
                                     policy_.eps, outcome);
    } else {
      bounder_->ObserveSlackLessThan(q.i, q.j, q.t, ev.bij, policy_.eps,
                                     outcome);
    }
  } else if (q.pair) {
    // A resolved side is reported as the degenerate model {d, 1, 0}.
    const WeakModel mij =
        q.dij ? WeakModel{*q.dij, 1.0, 0.0} : weak_->ModelFor(q.i, q.j);
    const WeakModel mkl =
        q.dkl ? WeakModel{*q.dkl, 1.0, 0.0} : weak_->ModelFor(q.k, q.l);
    bounder_->ObserveWeakPairLess(q.i, q.j, q.k, q.l, mij, mkl, outcome);
  } else if (q.side == Side::kGreater) {
    bounder_->ObserveWeakGreaterThan(q.i, q.j, q.t, weak_->ModelFor(q.i, q.j),
                                     outcome);
  } else {
    // A >= proof travels the LessThan channel with outcome=false
    // (`dist(i, j) < t` provably false).
    bounder_->ObserveWeakLessThan(q.i, q.j, q.t, weak_->ModelFor(q.i, q.j),
                                  q.side == Side::kLess ? outcome : !outcome);
  }
  stats_.bounder_seconds += watch.ElapsedSeconds();
}

void BoundedResolver::ResolveAll(std::span<const IdPair> pairs) {
  // Dedup sweep: keep the first occurrence of each unresolved unordered
  // pair, so a pair that appears twice (or as both (i,j) and (j,i)) costs
  // one oracle call, never two.
  std::vector<IdPair> unique;
  unique.reserve(pairs.size());
  std::unordered_set<EdgeKey, EdgeKeyHash> seen;
  for (const IdPair& p : pairs) {
    CheckId(p.i);
    CheckId(p.j);
    if (p.i == p.j) continue;
    if (graph_->Has(p.i, p.j)) continue;
    if (!seen.insert(EdgeKey(p.i, p.j)).second) continue;
    unique.push_back(p);
  }
  if (unique.empty()) return;
  // The session-side root of the causal chain: resolve -> (oracle per-pair
  // or coalesce_submit -> oracle_rtt) nest under this span on this thread.
  ScopedSpan resolve_span(telemetry_, "resolve", unique.size());
  // Resolution verbs are all-or-nothing under a budget: there is no slack
  // fallback for a caller that demanded exact distances. (FilterLessThan
  // pre-partitions its remainder to fit, so it never trips this.)
  if (BudgetActive() && unique.size() > BudgetRemaining()) {
    Fail(BudgetExhausted(budget_spent_, policy_.oracle_budget,
                         unique.size()));
  }
  if (telemetry_ != nullptr) {
    // Recorded under both transports: this histogram measures the
    // algorithm's batching structure (unique unresolved pairs per verb),
    // not the wire protocol.
    telemetry_->batch_size.Record(static_cast<double>(unique.size()));
  }

  if (!batch_transport_) {
    // Scalar transport: the legacy per-pair path, byte for byte (Distance
    // counts oracle_calls and notifies the bounder edge by edge).
    for (const IdPair& p : unique) Distance(p.i, p.j);
    return;
  }

  // Batch transport: one oracle round-trip, one bulk insert, one bulk
  // bounder notification.
  std::vector<double> distances(unique.size());
  std::vector<Status> statuses(unique.size());
  Stopwatch oracle_watch;
  const Status batch_status =
      oracle_->TryBatchDistance(unique, distances, statuses);
  const double oracle_elapsed = oracle_watch.ElapsedSeconds();
  stats_.oracle_seconds += oracle_elapsed;
  stats_.batch_oracle_seconds += oracle_elapsed;
  if (!batch_status.ok()) {
    // The run is aborting: even the pairs that did succeed are dropped, so
    // a later re-run pays for them again. Charging a failure per failed
    // pair (not per batch) keeps the counter comparable across transports.
    for (const Status& s : statuses) {
      if (!s.ok()) ++stats_.oracle_failures;
    }
    Fail(batch_status);
  }
  stats_.oracle_calls += unique.size();
  budget_spent_ += unique.size();
  ++stats_.batch_calls;
  stats_.batch_resolved_pairs += unique.size();
  if (telemetry_ != nullptr) {
    // One latency sample per round-trip (the scalar transport samples per
    // pair inside Distance() instead).
    telemetry_->oracle_latency_seconds.Record(oracle_elapsed);
    TraceEvent event;
    event.kind = TraceEventKind::kBatchShipped;
    event.count = unique.size();
    event.seconds = oracle_elapsed;
    telemetry_->Emit(event);
  }

  std::vector<ResolvedEdge> edges(unique.size());
  for (size_t k = 0; k < unique.size(); ++k) {
    edges[k] = ResolvedEdge{unique[k].i, unique[k].j, distances[k]};
  }
  graph_->InsertEdges(edges);
  Stopwatch bounder_watch;
  bounder_->OnEdgesResolved(edges);
  stats_.bounder_seconds += bounder_watch.ElapsedSeconds();
  if (weak_ != nullptr) {
    for (const ResolvedEdge& e : edges) NotifyWeakResolved(e.u, e.v, e.weight);
  }
}

std::vector<bool> BoundedResolver::FilterLessThan(
    std::span<const IdPair> pairs, std::span<const double> thresholds) {
  CHECK_EQ(pairs.size(), thresholds.size());
  std::vector<bool> out(pairs.size());

  // Cache sweep: Open answers i == j, already-resolved pairs and the
  // t == +inf short-circuit; everything else survives into the bounder
  // sweep.
  std::vector<size_t> sweep;
  std::vector<IdPair> sweep_pairs;
  std::vector<double> sweep_thresholds;
  for (size_t k = 0; k < pairs.size(); ++k) {
    Query q{pairs[k].i, pairs[k].j, thresholds[k]};
    if (const std::optional<bool> known = Open(q)) {
      out[k] = *known;
      continue;
    }
    sweep.push_back(k);
    sweep_pairs.push_back(pairs[k]);
    sweep_thresholds.push_back(thresholds[k]);
  }

  // Bounder sweep: one DecideBatch over every survivor. Decisions are made
  // before any resolution, so they are independent of the transport.
  std::vector<std::optional<bool>> decided(sweep.size());
  if (!sweep.empty()) {
    ScopedSpan bound_span(telemetry_, "bound", sweep.size());
    stats_.bound_queries += sweep.size();
    Stopwatch watch;
    bounder_->DecideBatch(sweep_pairs, sweep_thresholds, decided);
    stats_.bounder_seconds += watch.ElapsedSeconds();
  }

  // Each survivor runs the scalar verbs' tail; what it leaves undecided is
  // charged to the oracle and shipped in one batch, its answer read back
  // from the cache. Attribution mirrors the scalar LessThan loop: only the
  // first occurrence of an unordered pair triggers a resolution
  // (ResolveAll dedups); a repeat — duplicate or symmetric — would have hit
  // the cache in the scalar loop, so it is charged to the cache here.
  struct Pending {
    size_t s;
    Evidence ev;
  };
  std::vector<Pending> pending;
  std::vector<size_t> shipped;
  std::vector<IdPair> remainder;
  std::unordered_set<EdgeKey, EdgeKeyHash> charged;
  const auto charge = [&] {
    // Budget partition over the unique pending pairs (duplicates of a
    // shipped pair read the cache, costing nothing extra): as many ship as
    // the remaining budget covers, widest weak-informed gap first (a wide
    // interval gains the most information per call), and the starved rest
    // settles by forced slack.
    std::unordered_set<EdgeKey, EdgeKeyHash> starved;
    if (BudgetActive()) {
      struct Rep {
        EdgeKey key;
        double gap;
      };
      std::vector<Rep> reps;
      std::unordered_set<EdgeKey, EdgeKeyHash> seen;
      for (const Pending& w : pending) {
        const EdgeKey key(sweep_pairs[w.s].i, sweep_pairs[w.s].j);
        if (seen.insert(key).second) {
          reps.push_back({key, SlackRelativeGap(w.ev.eij)});
        }
      }
      const uint64_t capacity = BudgetRemaining();
      if (reps.size() > capacity) {
        // Stable, so equal gaps keep first-occurrence order and the
        // partition is deterministic.
        std::stable_sort(
            reps.begin(), reps.end(),
            [](const Rep& a, const Rep& b) { return a.gap > b.gap; });
        for (size_t r = capacity; r < reps.size(); ++r) {
          starved.insert(reps[r].key);
        }
      }
    }
    for (const Pending& w : pending) {
      const IdPair p = sweep_pairs[w.s];
      const Query q{p.i, p.j, sweep_thresholds[w.s]};
      const EdgeKey key(p.i, p.j);
      if (starved.count(key) != 0) {
        out[sweep[w.s]] = ForceSlack(q, w.ev, 1);
        continue;
      }
      Settle(charged.insert(key).second ? Source::kOracle : Source::kCache, q,
             false);
      shipped.push_back(w.s);
      remainder.push_back(p);
    }
    pending.clear();
  };
  for (size_t s = 0; s < sweep.size(); ++s) {
    // No resolution happens during this sweep, so repeats of a pair see
    // the same intervals and weak-/slack-decide identically.
    const Query q{sweep_pairs[s].i, sweep_pairs[s].j, sweep_thresholds[s]};
    Evidence ev;
    if (const std::optional<bool> by_tail = Tail(q, decided[s], &ev)) {
      out[sweep[s]] = *by_tail;
      continue;
    }
    pending.push_back({s, ev});
    // Exact mode charges in sweep order; a policy charges once the whole
    // sweep is known, because the budget partition ranks all of it.
    if (!PolicyActive()) charge();
  }
  charge();
  ResolveAll(remainder);
  for (const size_t s : shipped) {
    const IdPair p = sweep_pairs[s];
    out[sweep[s]] = *graph_->Get(p.i, p.j) < sweep_thresholds[s];
  }
  return out;
}

std::vector<bool> BoundedResolver::FilterLessThan(std::span<const IdPair> pairs,
                                                  double t) {
  const std::vector<double> thresholds(pairs.size(), t);
  return FilterLessThan(pairs, thresholds);
}

void BoundedResolver::TraceSlow(TraceEventKind kind, ObjectId i, ObjectId j,
                                double threshold) {
  TraceEvent event;
  event.kind = kind;
  event.i = i;
  event.j = j;
  event.threshold = threshold;
  telemetry_->Emit(event);
}

void BoundedResolver::ProbeBoundGapSlow(ObjectId i, ObjectId j, double t) {
  // Stats-neutral observation of the interval the scheme held at the
  // moment a comparison fell through: the bounder is read directly, so
  // bound_queries and bounder_seconds do not move, and reading bounds
  // never resolves anything, so oracle_calls cannot move either — a
  // telemetry-enabled run keeps counters identical to a disabled one
  // (pinned by the trace equivalence test).
  const Interval bounds = bounder_->Bounds(i, j);
  telemetry_->bound_gap.Record(RelativeBoundGap(bounds));
  TraceEvent event;
  event.kind = TraceEventKind::kBoundInterval;
  event.i = i;
  event.j = j;
  event.lb = bounds.lo;
  event.ub = bounds.hi;
  event.threshold = t;
  telemetry_->Emit(event);
}

}  // namespace metricprox
