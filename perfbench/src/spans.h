// In-memory span recorder for the traced benchmark run. Spans are kept in
// memory while the run is timed and written out once it ends, so tracing
// does no I/O inside the measured phase.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double Now();

/// Layer names used for self-time attribution. Each span belongs to one
/// layer; time a span carves out of its own duration without child spans
/// (summed bounder calls, the wait on the session pool) goes to the
/// layer named by the carve-out.
inline constexpr const char* kLayerData = "data";
inline constexpr const char* kLayerBounds = "bounds";
inline constexpr const char* kLayerOracle = "oracle";
inline constexpr const char* kLayerService = "service";
inline constexpr const char* kLayerStore = "store";
inline constexpr const char* kLayerResidual = "residual";
inline constexpr const char* kLayerBench = "bench";

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by the spans of one query; 0 = none
  const char* name = "";
  const char* layer = "";
  uint32_t thread = 0;
  double start = 0.0;
  double end = 0.0;
  double bounds_s = 0.0;   // summed bounder time inside this span
  double service_s = 0.0;  // wait on the session pool inside this span
};

/// Records spans from any number of threads. The open-span stack is
/// thread-local, so at most one recorder may be active in a process at a
/// time (the benchmark makes one per traced repetition); a thread's stack
/// resets when it first records into a newer recorder.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread, parented to the thread's
  /// innermost open span, or to `parent` when the thread has none.
  uint64_t Begin(const char* name, const char* layer, uint64_t request = 0,
                 uint64_t parent = 0);
  /// Closes the calling thread's innermost open span.
  void End();

  /// Adds time to the calling thread's innermost open span.
  void AddBounds(double seconds);
  void AddService(double seconds);

  std::vector<Span> Spans() const;
  size_t size() const;

  /// Self time per layer over the spans whose root ancestor is `root`:
  /// each span's duration minus its children's durations and carve-outs,
  /// plus the carve-outs under their own layer names. Spans are grouped
  /// per thread, so concurrent threads' spans under one root add up to
  /// thread-seconds, not wall seconds.
  std::map<std::string, double> SelfTimes(uint64_t root) const;

  /// Writes every span as one JSON line.
  bool WriteJsonl(const std::string& path) const;

 private:
  const uint64_t generation_;  // keys the thread-local open-span stacks
  mutable std::mutex mu_;
  std::vector<Span> done_;  // guarded by mu_
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint32_t> next_thread_{1};
};

/// RAII span on the calling thread; inert with a null recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* spans, const char* name, const char* layer,
             uint64_t request = 0, uint64_t parent = 0)
      : spans_(spans) {
    if (spans_ != nullptr) id_ = spans_->Begin(name, layer, request, parent);
  }
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanRecorder* spans_;
  uint64_t id_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
