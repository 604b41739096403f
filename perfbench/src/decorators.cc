#include "decorators.h"

#include <chrono>
#include <thread>

#include "spans.h"

namespace perfbench {

using metricprox::BoundCertificate;
using metricprox::IdPair;
using metricprox::Interval;
using metricprox::ObjectId;
using metricprox::ResolvedEdge;
using metricprox::Status;
using metricprox::StatusOr;
using metricprox::WeakModel;

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

/// One round trip: opens the span, sleeps the modeled latency, and on
/// destruction bills the pairs and the elapsed time.
class TimedOracle::Trip {
 public:
  Trip(TimedOracle* oracle, size_t pairs)
      : oracle_(oracle),
        pairs_(pairs),
        span_(oracle->spans_, "oracle.trip", kLayerOracle),
        start_ns_(NowNs()) {
    if (oracle_->trip_latency_s_ > 0.0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(oracle_->trip_latency_s_));
    }
  }
  ~Trip() {
    oracle_->busy_ns_.fetch_add(NowNs() - start_ns_);
    oracle_->pairs_.fetch_add(pairs_);
    oracle_->trips_.fetch_add(1);
  }
  Trip(const Trip&) = delete;
  Trip& operator=(const Trip&) = delete;

 private:
  TimedOracle* oracle_;
  size_t pairs_;
  ScopedSpan span_;
  uint64_t start_ns_;
};

TimedOracle::TimedOracle(metricprox::DistanceOracle* inner,
                         double trip_latency_s, SpanRecorder* spans)
    : inner_(inner), trip_latency_s_(trip_latency_s), spans_(spans) {}

double TimedOracle::Distance(ObjectId i, ObjectId j) {
  Trip trip(this, 1);
  return inner_->Distance(i, j);
}

void TimedOracle::BatchDistance(std::span<const IdPair> pairs,
                                std::span<double> out) {
  Trip trip(this, pairs.size());
  inner_->BatchDistance(pairs, out);
}

StatusOr<double> TimedOracle::TryDistance(ObjectId i, ObjectId j) {
  Trip trip(this, 1);
  return inner_->TryDistance(i, j);
}

Status TimedOracle::TryBatchDistance(std::span<const IdPair> pairs,
                                     std::span<double> out,
                                     std::span<Status> statuses) {
  Trip trip(this, pairs.size());
  return inner_->TryBatchDistance(pairs, out, statuses);
}

/// One scheme call: bills the elapsed time to the bounder and, with spans
/// attached, to the caller's innermost open span.
class TimedBounder::Call {
 public:
  explicit Call(TimedBounder* bounder, bool update = false)
      : bounder_(bounder), update_(update), start_ns_(NowNs()) {}
  ~Call() {
    const uint64_t elapsed = NowNs() - start_ns_;
    ++bounder_->calls_;
    bounder_->busy_ns_ += elapsed;
    if (update_) bounder_->update_ns_ += elapsed;
    if (bounder_->spans_ != nullptr) bounder_->spans_->AddBounds(elapsed * 1e-9);
  }
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

 private:
  TimedBounder* bounder_;
  bool update_;
  uint64_t start_ns_;
};

Interval TimedBounder::Bounds(ObjectId i, ObjectId j) {
  Call call(this);
  return inner_->Bounds(i, j);
}

void TimedBounder::OnEdgeResolved(ObjectId i, ObjectId j, double d) {
  Call call(this, /*update=*/true);
  inner_->OnEdgeResolved(i, j, d);
}

void TimedBounder::OnEdgesResolved(std::span<const ResolvedEdge> edges) {
  Call call(this, /*update=*/true);
  inner_->OnEdgesResolved(edges);
}

std::optional<bool> TimedBounder::DecideLessThan(ObjectId i, ObjectId j,
                                                 double t) {
  Call call(this);
  return inner_->DecideLessThan(i, j, t);
}

std::optional<bool> TimedBounder::DecideGreaterThan(ObjectId i, ObjectId j,
                                                    double t) {
  Call call(this);
  return inner_->DecideGreaterThan(i, j, t);
}

void TimedBounder::DecideBatch(std::span<const IdPair> pairs,
                               std::span<const double> thresholds,
                               std::span<std::optional<bool>> out) {
  Call call(this);
  inner_->DecideBatch(pairs, thresholds, out);
}

std::optional<bool> TimedBounder::DecidePairLess(ObjectId i, ObjectId j,
                                                 ObjectId k, ObjectId l) {
  Call call(this);
  return inner_->DecidePairLess(i, j, k, l);
}

bool TimedBounder::CertifyBounds(ObjectId i, ObjectId j,
                                 BoundCertificate* cert) {
  Call call(this);
  return inner_->CertifyBounds(i, j, cert);
}

std::optional<bool> TimedBounder::DecideLessThanCertified(
    ObjectId i, ObjectId j, double t, BoundCertificate* cert) {
  Call call(this);
  return inner_->DecideLessThanCertified(i, j, t, cert);
}

std::optional<bool> TimedBounder::DecideGreaterThanCertified(
    ObjectId i, ObjectId j, double t, BoundCertificate* cert) {
  Call call(this);
  return inner_->DecideGreaterThanCertified(i, j, t, cert);
}

std::optional<bool> TimedBounder::DecidePairLessCertified(
    ObjectId i, ObjectId j, ObjectId k, ObjectId l, BoundCertificate* cert) {
  Call call(this);
  return inner_->DecidePairLessCertified(i, j, k, l, cert);
}

void TimedBounder::ObserveSlackLessThan(ObjectId i, ObjectId j, double t,
                                        const Interval& bounds, double eps,
                                        bool outcome) {
  Call call(this);
  inner_->ObserveSlackLessThan(i, j, t, bounds, eps, outcome);
}

void TimedBounder::ObserveSlackPairLess(ObjectId i, ObjectId j, ObjectId k,
                                        ObjectId l, const Interval& bij,
                                        const Interval& bkl, double eps,
                                        bool outcome) {
  Call call(this);
  inner_->ObserveSlackPairLess(i, j, k, l, bij, bkl, eps, outcome);
}

void TimedBounder::ObserveWeakLessThan(ObjectId i, ObjectId j, double t,
                                       const WeakModel& model, bool outcome) {
  Call call(this);
  inner_->ObserveWeakLessThan(i, j, t, model, outcome);
}

void TimedBounder::ObserveWeakGreaterThan(ObjectId i, ObjectId j, double t,
                                          const WeakModel& model,
                                          bool outcome) {
  Call call(this);
  inner_->ObserveWeakGreaterThan(i, j, t, model, outcome);
}

void TimedBounder::ObserveWeakPairLess(ObjectId i, ObjectId j, ObjectId k,
                                       ObjectId l, const WeakModel& mij,
                                       const WeakModel& mkl, bool outcome) {
  Call call(this);
  inner_->ObserveWeakPairLess(i, j, k, l, mij, mkl, outcome);
}

}  // namespace perfbench
