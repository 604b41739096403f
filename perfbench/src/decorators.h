// Bench-side decorators: the benchmark times the library's layers from
// outside, through its public interfaces only. Both wrappers forward every
// virtual to the wrapped object, so a decorated run makes exactly the
// decisions and oracle calls of an undecorated one (checked by
// perfbench_selftest).
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "core/bounder.h"
#include "core/oracle.h"
#include "core/status.h"
#include "core/types.h"

namespace perfbench {

class SpanRecorder;

/// Forwards the four oracle verbs and the batch-worker knob to `inner`.
/// Counts pairs and round trips (one Distance or one BatchDistance call is
/// one trip) and times each trip. With `trip_latency_s > 0` it sleeps that
/// long once per trip, not per pair, to model a remote API. With a span
/// recorder attached, every trip becomes an `oracle.trip` span.
///
/// Trips may arrive from any one thread at a time (the library serializes
/// base-oracle calls); the counters are atomic so other threads may read
/// them while a run is in flight.
class TimedOracle final : public metricprox::DistanceOracle {
 public:
  explicit TimedOracle(metricprox::DistanceOracle* inner,
                       double trip_latency_s = 0.0,
                       SpanRecorder* spans = nullptr);

  double Distance(metricprox::ObjectId i, metricprox::ObjectId j) override;
  void BatchDistance(std::span<const metricprox::IdPair> pairs,
                     std::span<double> out) override;
  metricprox::StatusOr<double> TryDistance(metricprox::ObjectId i,
                                           metricprox::ObjectId j) override;
  metricprox::Status TryBatchDistance(
      std::span<const metricprox::IdPair> pairs, std::span<double> out,
      std::span<metricprox::Status> statuses) override;
  metricprox::ObjectId num_objects() const override {
    return inner_->num_objects();
  }
  std::string_view name() const override { return inner_->name(); }
  void set_batch_workers(unsigned workers) override {
    inner_->set_batch_workers(workers);
  }
  unsigned batch_workers() const override { return inner_->batch_workers(); }

  uint64_t pairs() const { return pairs_.load(); }
  uint64_t trips() const { return trips_.load(); }
  double busy_seconds() const { return busy_ns_.load() * 1e-9; }

 private:
  class Trip;

  metricprox::DistanceOracle* inner_;  // not owned
  double trip_latency_s_;
  SpanRecorder* spans_;  // not owned; nullptr = no spans
  std::atomic<uint64_t> pairs_{0};
  std::atomic<uint64_t> trips_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

/// Forwards every Bounder virtual to `inner` — the plain, batch, certified
/// and observation verbs — so scheme overrides still run, and sums the
/// time spent in them. Bounder calls are far too many to record one span
/// each: with a span recorder attached their durations are added to the
/// innermost open span of the calling thread instead.
///
/// Like the schemes it wraps, one instance is driven by one thread.
class TimedBounder final : public metricprox::Bounder {
 public:
  explicit TimedBounder(metricprox::Bounder* inner,
                        SpanRecorder* spans = nullptr)
      : inner_(inner), spans_(spans) {}

  std::string_view name() const override { return inner_->name(); }
  metricprox::Interval Bounds(metricprox::ObjectId i,
                              metricprox::ObjectId j) override;
  void OnEdgeResolved(metricprox::ObjectId i, metricprox::ObjectId j,
                      double d) override;
  void OnEdgesResolved(
      std::span<const metricprox::ResolvedEdge> edges) override;
  std::optional<bool> DecideLessThan(metricprox::ObjectId i,
                                     metricprox::ObjectId j,
                                     double t) override;
  std::optional<bool> DecideGreaterThan(metricprox::ObjectId i,
                                        metricprox::ObjectId j,
                                        double t) override;
  void DecideBatch(std::span<const metricprox::IdPair> pairs,
                   std::span<const double> thresholds,
                   std::span<std::optional<bool>> out) override;
  std::optional<bool> DecidePairLess(metricprox::ObjectId i,
                                     metricprox::ObjectId j,
                                     metricprox::ObjectId k,
                                     metricprox::ObjectId l) override;
  bool CertifyBounds(metricprox::ObjectId i, metricprox::ObjectId j,
                     metricprox::BoundCertificate* cert) override;
  std::optional<bool> DecideLessThanCertified(
      metricprox::ObjectId i, metricprox::ObjectId j, double t,
      metricprox::BoundCertificate* cert) override;
  std::optional<bool> DecideGreaterThanCertified(
      metricprox::ObjectId i, metricprox::ObjectId j, double t,
      metricprox::BoundCertificate* cert) override;
  std::optional<bool> DecidePairLessCertified(
      metricprox::ObjectId i, metricprox::ObjectId j, metricprox::ObjectId k,
      metricprox::ObjectId l, metricprox::BoundCertificate* cert) override;
  void ObserveSlackLessThan(metricprox::ObjectId i, metricprox::ObjectId j,
                            double t, const metricprox::Interval& bounds,
                            double eps, bool outcome) override;
  void ObserveSlackPairLess(metricprox::ObjectId i, metricprox::ObjectId j,
                            metricprox::ObjectId k, metricprox::ObjectId l,
                            const metricprox::Interval& bij,
                            const metricprox::Interval& bkl, double eps,
                            bool outcome) override;
  void ObserveWeakLessThan(metricprox::ObjectId i, metricprox::ObjectId j,
                           double t, const metricprox::WeakModel& model,
                           bool outcome) override;
  void ObserveWeakGreaterThan(metricprox::ObjectId i, metricprox::ObjectId j,
                              double t, const metricprox::WeakModel& model,
                              bool outcome) override;
  void ObserveWeakPairLess(metricprox::ObjectId i, metricprox::ObjectId j,
                           metricprox::ObjectId k, metricprox::ObjectId l,
                           const metricprox::WeakModel& mij,
                           const metricprox::WeakModel& mkl,
                           bool outcome) override;

  /// Calls into the scheme, every verb counted once.
  uint64_t calls() const { return calls_; }
  /// Time inside the scheme, updates included.
  double busy_seconds() const { return busy_ns_ * 1e-9; }
  /// Time inside OnEdgeResolved / OnEdgesResolved (the UPDATE problem).
  double update_seconds() const { return update_ns_ * 1e-9; }

 private:
  class Call;

  metricprox::Bounder* inner_;  // not owned
  SpanRecorder* spans_;         // not owned; nullptr = no spans
  uint64_t calls_ = 0;
  uint64_t busy_ns_ = 0;
  uint64_t update_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
