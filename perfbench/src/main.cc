// perfbench: runs one workload for a fixed time, checks every output
// against the oracle-only reference, and prints one JSON result line.
//
//   perfbench --workload knn-vec|mst-dna|serve-road --seed N --seconds S
//             --trace 0|1 [--work-dir DIR]
//             [--cache-dir DIR] [--trace-out FILE]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced repetitions and prints the per-layer metrics. The line before
// the result carries the run's context (nproc, build type, SIMD tier,
// repetitions, latency sample count).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simd.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  WorkloadOptions options;
  std::string cache_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int k = 1; k < argc; ++k) {
    const std::string key = argv[k];
    if (key.rfind("--", 0) != 0 || k + 1 >= argc) {
      *error = "expected --flag value pairs, got '" + key + "'";
      return false;
    }
    values[key.substr(2)] = argv[++k];
  }
  try {
    for (const auto& [key, value] : values) {
      if (key == "workload") {
        args->workload = value;
      } else if (key == "seed") {
        args->seed = std::stoull(value);
      } else if (key == "seconds") {
        args->seconds = std::stod(value);
      } else if (key == "trace") {
        args->trace = std::stoi(value);
      } else if (key == "work-dir") {
        args->options.work_dir = value;
      } else if (key == "cache-dir") {
        args->cache_dir = value;
      } else if (key == "trace-out") {
        args->trace_out = value;
      } else {
        *error = "unknown flag --" + key;
        return false;
      }
    }
  } catch (const std::exception&) {
    *error = "malformed number in flags";
    return false;
  }
  if (args->workload.empty() || args->trace < 0 || args->trace > 1 ||
      !(args->seconds > 0.0)) {
    *error = "need --workload, --seed, --seconds > 0 and --trace 0|1";
    return false;
  }
  if (args->options.work_dir.empty()) args->options.work_dir = ".";
  args->options.seed = args->seed;
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Linear interpolation between order statistics.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

template <typename Fn>
double MedianOf(const std::vector<const Rep*>& reps, Fn fn) {
  std::vector<double> values;
  for (const Rep* rep : reps) values.push_back(fn(*rep));
  return Median(values);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Reference cache: one text file per (workload, shape, seed). Line 1 holds
// the unshared per-session call counts, line 2 the op digests.
bool LoadReference(const std::string& path, Reference* reference) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  for (std::vector<uint64_t>* target :
       {&reference->unshared_calls, &reference->op_digests}) {
    if (!std::getline(in, line)) return false;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    for (uint64_t v; fields >> v;) target->push_back(v);
  }
  return !reference->op_digests.empty();
}

void SaveReference(const std::string& path, const Reference& reference) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << "unshared";
    for (uint64_t v : reference.unshared_calls) out << ' ' << v;
    out << "\nops";
    for (uint64_t v : reference.op_digests) out << ' ' << v;
    out << '\n';
  }
  std::filesystem::rename(tmp, path);
}

// Counts the ops of `rep` whose output differs from the reference.
uint64_t Mismatches(const Rep& rep, const Reference& reference) {
  uint64_t bad = 0;
  for (size_t k = 0; k < rep.op_digests.size(); ++k) {
    const size_t slot = rep.op_keys.empty() ? k : rep.op_keys[k];
    if (slot >= reference.op_digests.size() ||
        rep.op_digests[k] != reference.op_digests[slot]) {
      ++bad;
    }
  }
  return bad + (rep.ops - std::min<uint64_t>(rep.ops, rep.op_digests.size()));
}

struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
};

// Compares every repetition's outputs with the oracle-only reference and
// checks that oracle_calls repeats across repetitions, across runs at one
// seed (through the cache) and, per session, against unshared replays.
Verdict Verify(const Args& args, Workload* workload,
               const std::vector<Rep>& reps) {
  Verdict verdict;
  Reference reference;
  std::string cache_path;
  if (!args.cache_dir.empty()) {
    std::filesystem::create_directories(args.cache_dir);
    cache_path = args.cache_dir + "/" + workload->name() + "-" +
                 workload->shape() + "-seed" + std::to_string(args.seed);
  }
  if (cache_path.empty() || !LoadReference(cache_path + ".ref", &reference)) {
    reference = workload->BuildReference();
    if (!cache_path.empty()) SaveReference(cache_path + ".ref", reference);
  }
  const Rep& first = reps.front();
  for (const Rep& rep : reps) {
    uint64_t bad = std::max(rep.failed, Mismatches(rep, reference));
    const bool same_calls =
        rep.stats.oracle_calls == first.stats.oracle_calls &&
        rep.session_calls == first.session_calls;
    if (!same_calls) verdict.deterministic = false;
    if (!rep.identity_ok || !same_calls) bad = rep.ops;
    if (!reference.unshared_calls.empty() &&
        rep.session_calls != reference.unshared_calls) {
      bad = rep.ops;
    }
    verdict.attempted += rep.ops;
    verdict.failed += std::min(bad, rep.ops);
  }
  if (!cache_path.empty()) {
    const std::string calls_path = cache_path + ".calls";
    std::ifstream in(calls_path);
    uint64_t recorded = 0;
    if (in >> recorded) {
      if (recorded != first.stats.oracle_calls) {
        verdict.deterministic = false;
        verdict.failed = verdict.attempted;
      }
    } else {
      std::ofstream(calls_path) << first.stats.oracle_calls << '\n';
    }
  }
  if (!verdict.deterministic) {
    std::fprintf(stderr, "perfbench: oracle_calls differ between repetitions "
                         "or runs at one seed\n");
  }
  return verdict;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatResult(bool correct, uint64_t attempted, uint64_t failed,
                         const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t k = 0; k < metrics.size(); ++k) {
    if (k > 0) out << ", ";
    out << '"' << metrics[k].name << "\": {\"value\": " << metrics[k].value
        << ", \"unit\": \"" << metrics[k].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(args.workload, args.options);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // Repetitions until the time is up; a traced run alternates untraced and
  // traced repetitions and always ends on a traced one.
  std::vector<Rep> reps;
  std::unique_ptr<SpanRecorder> first_trace;
  const double begin = Now();
  const size_t min_reps = args.trace == 1 ? 2 : 1;
  while (reps.size() < min_reps || Now() - begin < args.seconds ||
         (args.trace == 1 && reps.size() % 2 == 1)) {
    const bool traced = args.trace == 1 && reps.size() % 2 == 1;
    auto spans = traced ? std::make_unique<SpanRecorder>() : nullptr;
    reps.push_back(workload->RunOnce(spans.get()));
    std::fprintf(stderr, "perfbench: rep %zu%s setup %.4f s wall %.4f s\n",
                 reps.size(), traced ? " (traced)" : "", reps.back().setup_s,
                 reps.back().wall_s);
    if (traced && first_trace == nullptr) first_trace = std::move(spans);
  }
  const double peak_rss_mb = PeakRssBytes() / (1024.0 * 1024.0);

  // Correctness, outside every timed phase.
  Verdict verdict;
  {
    ScopedSpan span(first_trace.get(), "verify", kLayerBench);
    verdict = Verify(args, workload.get(), reps);
  }
  const uint64_t attempted = verdict.attempted;
  const uint64_t failed = verdict.failed;
  const Rep& first = reps.front();
  const bool correct = failed == 0 && verdict.deterministic;

  std::vector<const Rep*> plain;
  std::vector<const Rep*> traced;
  for (const Rep& rep : reps) (rep.traced ? traced : plain).push_back(&rep);
  size_t latency_samples = 0;
  for (const Rep* rep : plain) latency_samples += rep->latencies_ms.size();
  // Latency percentiles are taken per repetition, then the median across
  // repetitions, so one disturbed repetition does not set the tail.
  auto latency = [&](double p) {
    return MedianOf(plain, [p](const Rep& r) {
      return Percentile(r.latencies_ms, p);
    });
  };

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    const auto& s = first.stats;
    metrics = {
        {"wall_s", MedianOf(plain, [](const Rep& r) { return r.wall_s; }), "s"},
        {"setup_s", MedianOf(plain, [](const Rep& r) { return r.setup_s; }),
         "s"},
        {"oracle_calls", static_cast<double>(s.oracle_calls), "count"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"ok_frac", 1.0 - Ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)),
         "ratio"},
        {"queries_per_s",
         MedianOf(plain,
                  [](const Rep& r) {
                    return Ratio(static_cast<double>(r.ops), r.wall_s);
                  }),
         "1/s"},
        {"query_p50_ms", latency(0.50), "ms"},
        {"remote_pairs",
         MedianOf(plain,
                  [](const Rep& r) {
                    return static_cast<double>(r.remote_pairs);
                  }),
         "count"},
    };
  } else {
    const Rep& t = *traced.front();
    const auto& s = t.stats;
    auto med = [&](auto fn) { return MedianOf(traced, fn); };
    auto ledger = [](const Rep& r, const char* layer) {
      auto it = r.ledger.find(layer);
      return it == r.ledger.end() ? 0.0 : it->second;
    };
    const double bounds_busy = med([](const Rep& r) { return r.bounds_busy_s; });
    const double oracle_busy = med([](const Rep& r) { return r.oracle_busy_s; });
    const double ledger_bounds =
        med([&](const Rep& r) { return ledger(r, kLayerBounds); });
    const double ledger_oracle =
        med([&](const Rep& r) { return ledger(r, kLayerOracle); });
    const double ledger_service =
        med([&](const Rep& r) { return ledger(r, kLayerService); });
    const double residual =
        med([&](const Rep& r) { return ledger(r, kLayerResidual); });
    const double ledger_wall =
        med([](const Rep& r) { return r.ledger_measured_s; });
    const double accounted = med([&](const Rep& r) {
      double sum = 0.0;
      for (const auto& [layer, seconds] : r.ledger) sum += seconds;
      return 100.0 * Ratio(sum, r.ledger_measured_s);
    });
    const double plain_wall =
        MedianOf(plain, [](const Rep& r) { return r.wall_s; });
    const double traced_wall = med([](const Rep& r) { return r.wall_s; });
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    metrics = {
        {"data.build_s",
         MedianOf(plain, [](const Rep& r) { return r.data_build_s; }), "s"},
        {"bounds.construct_s", med([](const Rep& r) { return r.construct_s; }),
         "s"},
        {"bounds.calls", count(t.bounds_calls), "count"},
        {"bounds.busy_s", bounds_busy, "s"},
        {"bounds.ns_per_call", 1e9 * Ratio(bounds_busy, count(t.bounds_calls)),
         "ns"},
        {"bounds.update_s", med([](const Rep& r) { return r.bounds_update_s; }),
         "s"},
        {"bounds.hit_ratio",
         Ratio(count(s.decided_by_bounds), count(s.bound_queries)), "ratio"},
        {"resolver.comparisons", count(s.comparisons), "count"},
        {"resolver.cache_hits", count(s.decided_by_cache), "count"},
        {"resolver.bound_queries_per_comparison",
         Ratio(count(s.bound_queries), count(s.comparisons)), "ratio"},
        {"resolver.residual_s", residual, "s"},
        {"graph.edges", count(t.graph_edges), "count"},
        {"graph.rss_per_edge_b",
         Ratio(first.rss_growth_b, count(first.graph_edges)), "B"},
        {"oracle.pairs", count(t.remote_pairs), "count"},
        {"oracle.round_trips", count(t.oracle_trips), "count"},
        {"oracle.busy_s", oracle_busy, "s"},
        {"oracle.us_per_pair", 1e6 * Ratio(oracle_busy, count(t.remote_pairs)),
         "us"},
        {"oracle.pairs_per_trip",
         Ratio(count(t.remote_pairs), count(t.oracle_trips)), "ratio"},
        {"service.resolve_s",
         med([](const Rep& r) { return r.service_resolve_s; }), "s"},
        {"service.shared_graph_hits", count(t.shared_graph_hits), "count"},
        {"service.coalesced_batches", count(t.coalesced_batches), "count"},
        {"service.dedup_hits", count(t.dedup_hits), "count"},
        {"service.query_p99_ms", latency(0.99), "ms"},
        {"store.open_s", med([](const Rep& r) { return r.store_open_s; }), "s"},
        {"store.close_s", med([](const Rep& r) { return r.store_close_s; }),
         "s"},
        {"store.hits", count(t.store_hits), "count"},
        {"store.appends", count(t.store_appends), "count"},
        {"obs.spans", count(t.obs_spans), "count"},
        {"ledger.wall_s", ledger_wall, "s"},
        {"ledger.bounds_s", ledger_bounds, "s"},
        {"ledger.oracle_s", ledger_oracle, "s"},
        {"ledger.service_s", ledger_service, "s"},
        {"ledger.accounted_pct", accounted, "%"},
        {"bench.trace_overhead_pct",
         100.0 * (Ratio(traced_wall, plain_wall) - 1.0), "%"},
    };
    if (!args.trace_out.empty() && first_trace != nullptr) {
      std::filesystem::path out(args.trace_out);
      if (out.has_parent_path()) {
        std::filesystem::create_directories(out.parent_path());
      }
      if (!first_trace->WriteJsonl(args.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.trace_out.c_str());
      }
    }
  }

  std::printf(
      "{\"run_info\": {\"workload\": \"%s\", \"shape\": \"%s\", \"seed\": "
      "%llu, \"nproc\": %u, \"build_type\": \"%s\", \"simd_tier\": \"%s\", "
      "\"repetitions\": %zu, \"traced_repetitions\": %zu, "
      "\"latency_samples\": %zu}}\n",
      workload->name(), workload->shape().c_str(),
      static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
      std::string(metricprox::simd::TierName(metricprox::simd::ActiveTier()))
          .c_str(),
      reps.size(), traced.size(), latency_samples);
  std::printf("%s\n", FormatResult(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 2;
  }
  return perfbench::Run(args);
}
