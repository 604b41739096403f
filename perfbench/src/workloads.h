// The benchmark's three workloads. Each repetition builds its inputs from
// the seed (setup), runs the timed phase through the library's public API,
// and tears down; outputs are checked against oracle-only references
// after the timed phases. See perfbench/README.md for why each workload
// exists and which layers it is meant to move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "spans.h"

namespace perfbench {

struct WorkloadOptions {
  uint64_t seed = 1;
  /// Objects; 0 = the workload's default size.
  uint32_t n = 0;
  /// Writable directory for per-repetition work files (the store).
  std::string work_dir;
};

/// What one repetition measured. Counters are per repetition; on
/// serve-road resolver counters are summed over the sessions.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;  // data build + (serve-road) store/pool set-up and close
  double data_build_s = 0.0;
  double wall_s = 0.0;   // bootstrap / scheme construction to final output
  double construct_s = 0.0;
  uint64_t ops = 0;      // k-NN rows, MSTs or queries
  uint64_t failed = 0;   // ops with a non-OK Status
  bool identity_ok = true;
  std::vector<double> latencies_ms;   // one per request
  std::vector<uint64_t> op_digests;   // one per op, in op order
  std::vector<uint32_t> op_keys;      // serve-road: query object per op
  metricprox::ResolverStats stats;    // summed over sessions
  std::vector<uint64_t> session_calls;  // serve-road: oracle_calls per session
  uint64_t remote_pairs = 0;
  uint64_t oracle_trips = 0;
  double oracle_busy_s = 0.0;
  uint64_t bounds_calls = 0;
  double bounds_busy_s = 0.0;
  double bounds_update_s = 0.0;
  uint64_t graph_edges = 0;
  double rss_growth_b = 0.0;
  double service_resolve_s = 0.0;  // sessions' time waiting on the pool
  uint64_t shared_graph_hits = 0;
  uint64_t coalesced_batches = 0;
  uint64_t dedup_hits = 0;
  double store_open_s = 0.0;
  double store_close_s = 0.0;
  uint64_t store_hits = 0;
  uint64_t store_appends = 0;
  uint64_t obs_spans = 0;
  /// Traced repetitions: self time per layer over the timed phase, and the
  /// independently measured time it must add up to (wall_s, or the summed
  /// query latencies on serve-road).
  std::map<std::string, double> ledger;
  double ledger_measured_s = 0.0;
};

/// Oracle-only reference for one seed: a digest per op (serve-road: per
/// query object, 0 for objects never queried) and, on serve-road, each
/// session's oracle_calls when its queries run on an unshared resolver.
struct Reference {
  std::vector<uint64_t> op_digests;
  std::vector<uint64_t> unshared_calls;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Identifies the input shape, for the reference cache key.
  virtual std::string shape() const = 0;
  /// One full repetition: setup, timed phase (with `spans` when traced)
  /// and teardown.
  virtual Rep RunOnce(SpanRecorder* spans) = 0;
  /// Builds the oracle-only reference. Runs outside every timed phase.
  virtual Reference BuildReference() = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options);

/// Order-sensitive digest of a byte range (FNV-1a, 64 bit).
uint64_t Digest(const void* data, size_t size, uint64_t seed = 0);

/// Resident and peak resident set sizes of this process, in bytes.
double CurrentRssBytes();
double PeakRssBytes();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
