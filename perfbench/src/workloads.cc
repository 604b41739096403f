#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>

#include "algo/knn_graph.h"
#include "algo/prim.h"
#include "algo/reference.h"
#include "algo/search.h"
#include "bounds/pivots.h"
#include "bounds/resolver.h"
#include "bounds/scheme.h"
#include "bounds/tri.h"
#include "core/logging.h"
#include "data/datasets.h"
#include "decorators.h"
#include "graph/partial_graph.h"
#include "obs/hub.h"
#include "oracle/matrix_oracle.h"
#include "service/session.h"
#include "store/distance_store.h"
#include "store/persistent_oracle.h"

namespace perfbench {

namespace mp = metricprox;

namespace {

constexpr uint32_t kNeighbors = 10;

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

uint64_t DigestRow(const std::vector<mp::KnnNeighbor>& row) {
  uint64_t h = Digest(nullptr, 0);
  for (const mp::KnnNeighbor& nb : row) {
    h = Digest(&nb.id, sizeof(nb.id), h);
    h = Digest(&nb.distance, sizeof(nb.distance), h);
  }
  return h;
}

uint64_t DigestMst(const mp::MstResult& mst) {
  uint64_t h = Digest(&mst.total_weight, sizeof(mst.total_weight));
  for (const mp::WeightedEdge& e : mst.edges) {
    h = Digest(&e.u, sizeof(e.u), h);
    h = Digest(&e.v, sizeof(e.v), h);
    h = Digest(&e.weight, sizeof(e.weight), h);
  }
  return h;
}

// The resolver's counter identity: every comparison is decided by exactly
// one source.
bool IdentityHolds(const mp::ResolverStats& s) {
  return s.comparisons == s.decided_by_cache + s.decided_by_bounds +
                              s.decided_by_oracle + s.undecided +
                              s.decided_by_slack + s.decided_by_weak;
}

// The full distance matrix, resolved in parallel batches through the
// dataset's own oracle. The references run on it so they share nothing
// with the bound-augmented path but the ground-truth distances.
mp::MatrixOracle FullMatrix(mp::DistanceOracle* oracle) {
  const mp::ObjectId n = oracle->num_objects();
  oracle->set_batch_workers(Nproc());
  std::vector<double> matrix(static_cast<size_t>(n) * n, 0.0);
  std::vector<mp::IdPair> pairs;
  std::vector<double> out;
  for (mp::ObjectId i = 0; i < n; ++i) {
    pairs.clear();
    for (mp::ObjectId j = i + 1; j < n; ++j) pairs.push_back({i, j});
    out.assign(pairs.size(), 0.0);
    oracle->BatchDistance(pairs, out);
    for (size_t k = 0; k < pairs.size(); ++k) {
      matrix[static_cast<size_t>(i) * n + pairs[k].j] = out[k];
      matrix[static_cast<size_t>(pairs[k].j) * n + i] = out[k];
    }
  }
  return mp::MatrixOracle(std::move(matrix), n);
}

// "n<n>-<label><value>", the input shape in reference-cache keys.
std::string ShapeKey(uint32_t n, const char* label, uint64_t value) {
  std::string key = "n";
  key += std::to_string(n);
  key += '-';
  key += label;
  key += std::to_string(value);
  return key;
}

// Wraps the attached scheme in a TimedBounder when tracing.
std::unique_ptr<TimedBounder> WrapScheme(mp::BoundedResolver* resolver,
                                         SpanRecorder* spans) {
  if (spans == nullptr) return nullptr;
  auto timed = std::make_unique<TimedBounder>(&resolver->bounder(), spans);
  resolver->SetBounder(timed.get());
  return timed;
}

void FillBoundsLayer(const TimedBounder* timed, Rep* rep) {
  if (timed == nullptr) return;
  rep->bounds_calls += timed->calls();
  rep->bounds_busy_s += timed->busy_seconds();
  rep->bounds_update_s += timed->update_seconds();
}

// knn-vec and mst-dna: one algorithm run over one dataset, Tri with
// landmark bootstrap, straight on the resolver (no session pool).
class BatchWorkload : public Workload {
 public:
  explicit BatchWorkload(const WorkloadOptions& options)
      : options_(options) {}

  Rep RunOnce(SpanRecorder* spans) override {
    Rep rep;
    rep.traced = spans != nullptr;
    const double setup_start = Now();
    mp::Dataset dataset;
    {
      ScopedSpan span(spans, "setup", kLayerData);
      dataset = MakeData();
    }
    rep.data_build_s = rep.setup_s = Now() - setup_start;

    const mp::ObjectId n = dataset.oracle->num_objects();
    TimedOracle oracle(dataset.oracle.get(), 0.0, spans);
    mp::PartialDistanceGraph graph(n);
    mp::BoundedResolver resolver(&oracle, &graph);
    std::unique_ptr<mp::Bounder> scheme;
    std::unique_ptr<TimedBounder> timed;
    std::vector<uint64_t> digests;
    uint64_t phase_id = 0;
    const double rss_before = CurrentRssBytes();
    const double start = Now();
    {
      ScopedSpan phase(spans, "workload", kLayerResidual);
      phase_id = phase.id();
      const mp::StatusOr<double> status =
          resolver.RunFallible([&](mp::BoundedResolver* r) {
            {
              ScopedSpan construct(spans, "construct", kLayerBounds);
              const double construct_start = Now();
              mp::BootstrapWithLandmarks(r, mp::DefaultNumLandmarks(n),
                                         options_.seed);
              auto made = mp::MakeAndAttachScheme(mp::SchemeKind::kTri, r,
                                                  mp::SchemeOptions{});
              CHECK(made.ok()) << made.status().ToString();
              scheme = std::move(made).value();
              timed = WrapScheme(r, spans);
              rep.construct_s = Now() - construct_start;
            }
            digests = Solve(r);
            return 0.0;
          });
      if (!status.ok()) digests.clear();
    }
    rep.wall_s = Now() - start;
    rep.rss_growth_b = CurrentRssBytes() - rss_before;

    rep.ops = ops(n);
    rep.op_digests = digests;
    rep.failed = digests.size() == rep.ops ? 0 : rep.ops;
    rep.latencies_ms.push_back(rep.wall_s * 1e3);
    rep.stats = resolver.stats();
    rep.identity_ok = IdentityHolds(rep.stats);
    rep.remote_pairs = oracle.pairs();
    rep.oracle_trips = oracle.trips();
    rep.oracle_busy_s = oracle.busy_seconds();
    rep.graph_edges = graph.num_edges();
    FillBoundsLayer(timed.get(), &rep);
    if (spans != nullptr) {
      rep.ledger = spans->SelfTimes(phase_id);
      rep.ledger_measured_s = rep.wall_s;
    }
    return rep;
  }

  Reference BuildReference() override {
    mp::Dataset dataset = MakeData();
    mp::MatrixOracle matrix = FullMatrix(dataset.oracle.get());
    return Reference{ReferenceDigests(&matrix), {}};
  }

 protected:
  virtual mp::Dataset MakeData() const = 0;
  virtual uint64_t ops(mp::ObjectId n) const = 0;
  /// Runs the algorithm; returns one digest per op.
  virtual std::vector<uint64_t> Solve(mp::BoundedResolver* resolver) = 0;
  virtual std::vector<uint64_t> ReferenceDigests(mp::DistanceOracle* truth) = 0;

  WorkloadOptions options_;
};

// 10-NN graph over 256-d Gaussian-mixture vectors: bound scans dominate and
// the oracle is nearly free.
class KnnVec final : public BatchWorkload {
 public:
  static constexpr uint32_t kDefaultN = 2000;
  static constexpr uint32_t kDim = 256;

  explicit KnnVec(const WorkloadOptions& options) : BatchWorkload(options) {
    if (options_.n == 0) options_.n = kDefaultN;
  }
  const char* name() const override { return "knn-vec"; }
  std::string shape() const override {
    return ShapeKey(options_.n, "d", kDim);
  }

 protected:
  mp::Dataset MakeData() const override {
    return mp::MakeFlickrLike(options_.n, kDim, options_.seed);
  }
  uint64_t ops(mp::ObjectId n) const override { return n; }
  std::vector<uint64_t> Solve(mp::BoundedResolver* resolver) override {
    std::vector<uint64_t> digests;
    for (const auto& row :
         mp::BuildKnnGraph(resolver, mp::KnnGraphOptions{kNeighbors})) {
      digests.push_back(DigestRow(row));
    }
    return digests;
  }
  std::vector<uint64_t> ReferenceDigests(mp::DistanceOracle* truth) override {
    std::vector<uint64_t> digests;
    for (const auto& row : mp::ReferenceKnnGraph(truth, kNeighbors)) {
      digests.push_back(DigestRow(row));
    }
    return digests;
  }
};

// Prim MST over DNA-like strings under Levenshtein: little triangle
// structure, so nearly every pair reaches a CPU-bound oracle through the
// parallel batch transport and the graph becomes dense.
class MstDna final : public BatchWorkload {
 public:
  static constexpr uint32_t kDefaultN = 1000;
  static constexpr size_t kLength = 80;

  explicit MstDna(const WorkloadOptions& options) : BatchWorkload(options) {
    if (options_.n == 0) options_.n = kDefaultN;
  }
  const char* name() const override { return "mst-dna"; }
  std::string shape() const override {
    return ShapeKey(options_.n, "len", kLength);
  }

 protected:
  mp::Dataset MakeData() const override {
    mp::Dataset dataset = mp::MakeDnaLike(options_.n, kLength, options_.seed);
    dataset.oracle->set_batch_workers(Nproc());
    return dataset;
  }
  uint64_t ops(mp::ObjectId) const override { return 1; }
  std::vector<uint64_t> Solve(mp::BoundedResolver* resolver) override {
    return {DigestMst(mp::PrimMst(resolver))};
  }
  std::vector<uint64_t> ReferenceDigests(mp::DistanceOracle* truth) override {
    return {DigestMst(mp::ReferencePrimMst(truth))};
  }
};

// A closed loop of three sessions in one SessionPool over a road network,
// each sending its next 10-NN query only after the previous one returned.
// Coalescer on, a DistanceStore prefilled from earlier queries, an
// in-memory ObservabilityHub, and a fixed sleep per base-oracle round trip
// modelling a remote map API. The map is the same for every seed, as one
// deployed service serves one map; the seed draws the query traffic (which
// objects are prefilled, repeated and new, and in which order). Drawing a
// new map per seed made the per-seed spread of oracle_calls and
// remote_pairs too wide to gate.
class ServeRoad final : public Workload {
 public:
  static constexpr uint32_t kDefaultN = 2000;
  static constexpr uint32_t kSessions = 3;
  static constexpr uint32_t kPrefillQueries = 300;
  static constexpr double kTripLatencySeconds = 0.0005;
  static constexpr uint64_t kMapSeed = 1;

  explicit ServeRoad(const WorkloadOptions& options) : options_(options) {
    if (options_.n == 0) options_.n = kDefaultN;
    MakeSchedule();
  }
  const char* name() const override { return "serve-road"; }
  std::string shape() const override {
    return ShapeKey(options_.n, "s", kSessions);
  }

  Rep RunOnce(SpanRecorder* spans) override {
    Rep rep;
    rep.traced = spans != nullptr;
    const double setup_start = Now();
    mp::Dataset dataset;
    {
      ScopedSpan span(spans, "setup", kLayerData);
      dataset = mp::MakeUrbanGbLike(options_.n, kMapSeed);
    }
    rep.data_build_s = Now() - setup_start;

    const std::string dir =
        options_.work_dir + "/store-" + std::to_string(::getpid()) + "-" +
        std::to_string(rep_counter_++);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string base_path = dir + "/distances";
    const mp::StoreFingerprint fingerprint = mp::MakeStoreFingerprint(
        "perfbench;dataset=urbangb;seed=" + std::to_string(kMapSeed),
        options_.n);
    // fsync_every = 0: WAL appends are never fsynced explicitly, so query
    // latency does not depend on the host's disk; Close() still compacts
    // with its own fsync.
    mp::StoreOptions store_options;
    store_options.fsync_every = 0;
    Prefill(dataset.oracle.get(), base_path, fingerprint, store_options,
            spans);

    std::unique_ptr<mp::DistanceStore> store;
    {
      ScopedSpan span(spans, "store.open", kLayerStore);
      const double open_start = Now();
      auto opened = mp::DistanceStore::Open(base_path, fingerprint,
                                            store_options);
      CHECK(opened.ok()) << opened.status().ToString();
      store = std::move(opened).value();
      rep.store_open_s = Now() - open_start;
    }
    TimedOracle remote(dataset.oracle.get(), kTripLatencySeconds, spans);
    remote.set_batch_workers(1);
    auto hub = std::make_unique<mp::ObservabilityHub>();
    mp::SessionPoolOptions pool_options;
    pool_options.enable_coalescer = true;
    pool_options.store = store.get();
    pool_options.hub = hub.get();
    auto pool = std::make_unique<mp::SessionPool>(&remote, pool_options);
    std::vector<std::unique_ptr<mp::ResolverSession>> sessions;
    for (uint32_t s = 0; s < kSessions; ++s) {
      sessions.push_back(
          pool->OpenSession(mp::SessionOptions{"client-" + std::to_string(s)}));
    }
    rep.setup_s = Now() - setup_start;

    struct ClientResult {
      std::vector<uint64_t> digests;
      std::vector<double> latencies_ms;
      double construct_s = 0.0;
      uint64_t failed = 0;
      std::unique_ptr<TimedBounder> timed;
    };
    std::vector<ClientResult> clients(kSessions);
    uint64_t phase_id = 0;
    const double rss_before = CurrentRssBytes();
    const double start = Now();
    {
      ScopedSpan phase(spans, "workload", kLayerBench);
      phase_id = phase.id();
      std::vector<std::thread> threads;
      for (uint32_t s = 0; s < kSessions; ++s) {
        threads.emplace_back([&, s] {
          mp::ResolverSession& session = *sessions[s];
          ClientResult& client = clients[s];
          // Runs `body` on the session's resolver inside a span, carving
          // the session's wait on the pool out as service time.
          struct Outcome {
            double seconds;
            bool ok;
          };
          auto call = [&](const char* name, const char* layer,
                          uint64_t request, auto&& body) {
            const double call_start = Now();
            ScopedSpan span(spans, name, layer, request, phase_id);
            const double waited = session.resolver().stats().oracle_seconds;
            const mp::StatusOr<double> status =
                session.resolver().RunFallible([&](mp::BoundedResolver* r) {
                  body(r);
                  return 0.0;
                });
            if (spans != nullptr) {
              spans->AddService(session.resolver().stats().oracle_seconds -
                                waited);
            }
            return Outcome{Now() - call_start, status.ok()};
          };
          const std::vector<uint32_t>& queries = schedule_[s];
          const Outcome booted = call("construct", kLayerBounds, 0,
                                      [&](mp::BoundedResolver* r) {
                                        Bootstrap(r);
                                      });
          client.construct_s = booted.seconds;
          if (!booted.ok) client.failed = queries.size();
          session.UseTriBounds();
          client.timed = WrapScheme(&session.resolver(), spans);
          for (size_t k = 0; k < queries.size(); ++k) {
            std::vector<mp::KnnNeighbor> result;
            const Outcome done = call(
                "query", kLayerResidual, (uint64_t{s} << 32) | (k + 1),
                [&](mp::BoundedResolver* r) {
                  result = mp::KnnSearch(r, queries[k], kNeighbors);
                });
            if (!done.ok) ++client.failed;
            client.latencies_ms.push_back(done.seconds * 1e3);
            client.digests.push_back(DigestRow(result));
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    rep.wall_s = Now() - start;
    rep.rss_growth_b = CurrentRssBytes() - rss_before;

    double service_s = 0.0;
    for (uint32_t s = 0; s < kSessions; ++s) {
      const mp::ResolverStats& stats = sessions[s]->resolver().stats();
      rep.stats += stats;
      rep.identity_ok = rep.identity_ok && IdentityHolds(stats);
      rep.session_calls.push_back(stats.oracle_calls);
      rep.graph_edges += sessions[s]->graph().num_edges();
      service_s += stats.oracle_seconds;
      ClientResult& client = clients[s];
      rep.failed += std::min<uint64_t>(client.failed, schedule_[s].size());
      rep.construct_s += client.construct_s;
      rep.op_digests.insert(rep.op_digests.end(), client.digests.begin(),
                            client.digests.end());
      rep.op_keys.insert(rep.op_keys.end(), schedule_[s].begin(),
                         schedule_[s].end());
      rep.latencies_ms.insert(rep.latencies_ms.end(),
                              client.latencies_ms.begin(),
                              client.latencies_ms.end());
      FillBoundsLayer(client.timed.get(), &rep);
    }
    rep.ops = rep.op_digests.size();
    rep.service_resolve_s = service_s;
    const mp::SessionPoolCounters pool_counters = pool->counters();
    rep.shared_graph_hits = pool_counters.shared_graph_hits;
    rep.store_hits = pool_counters.store_hits;
    const mp::CoalescerCounters coalescer = pool->coalescer()->counters();
    rep.coalesced_batches = coalescer.batches_shipped;
    rep.dedup_hits = coalescer.dedup_hits;
    mp::ResolverStats hub_stats;
    hub->AccumulateStats(&hub_stats);
    rep.obs_spans = hub_stats.spans_emitted;
    rep.store_appends = store->counters().wal_appends;
    rep.remote_pairs = remote.pairs();
    rep.oracle_trips = remote.trips();
    rep.oracle_busy_s = remote.busy_seconds();
    if (spans != nullptr) {
      rep.ledger = spans->SelfTimes(phase_id);
      rep.ledger.erase(kLayerBench);  // the main thread waiting on clients
      rep.ledger_measured_s = rep.construct_s;
      for (double ms : rep.latencies_ms) rep.ledger_measured_s += ms * 1e-3;
    }

    // Teardown: close the sessions and the pool, then the store (which
    // compacts what the run appended). Counted in setup_s.
    const double teardown_start = Now();
    sessions.clear();
    pool.reset();
    hub.reset();
    {
      ScopedSpan span(spans, "store.close", kLayerStore);
      const double close_start = Now();
      const mp::Status closed = store->Close();
      CHECK(closed.ok()) << closed.ToString();
      rep.store_close_s = Now() - close_start;
    }
    store.reset();
    rep.setup_s += Now() - teardown_start;
    std::filesystem::remove_all(dir);
    return rep;
  }

  Reference BuildReference() override {
    mp::Dataset dataset = mp::MakeUrbanGbLike(options_.n, kMapSeed);
    mp::MatrixOracle truth = FullMatrix(dataset.oracle.get());
    Reference reference;
    reference.op_digests.assign(options_.n, 0);
    const mp::KnnGraph rows = mp::ReferenceKnnGraph(&truth, kNeighbors);
    for (const std::vector<uint32_t>& queries : schedule_) {
      for (uint32_t q : queries) reference.op_digests[q] = DigestRow(rows[q]);
    }
    // Each session's queries on an unshared resolver, one thread per
    // session over the read-only matrix: per-session oracle_calls must not
    // depend on sharing.
    reference.unshared_calls.assign(kSessions, 0);
    std::vector<std::thread> replays;
    for (uint32_t s = 0; s < kSessions; ++s) {
      replays.emplace_back([&, s] {
        mp::PartialDistanceGraph graph(options_.n);
        mp::BoundedResolver resolver(&truth, &graph);
        Bootstrap(&resolver);
        mp::TriBounder tri(&graph);
        resolver.SetBounder(&tri);
        for (uint32_t q : schedule_[s]) mp::KnnSearch(&resolver, q, kNeighbors);
        reference.unshared_calls[s] = resolver.stats().oracle_calls;
      });
    }
    for (std::thread& t : replays) t.join();
    return reference;
  }

 private:
  // The prefill queries are the first kPrefillQueries objects of a seeded
  // permutation; the other objects are dealt round-robin to the sessions.
  // Each session asks every prefill object twice (the store is read) and
  // each of its dealt objects once (the store is written), in seeded order,
  // so about half its queries are repeats. Sampling without replacement
  // keeps the per-seed spread of the call counts small.
  void MakeSchedule() {
    std::mt19937_64 rng(options_.seed * 0x9E3779B97F4A7C15ULL + 17);
    std::vector<uint32_t> objects(options_.n);
    for (uint32_t i = 0; i < options_.n; ++i) objects[i] = i;
    Shuffle(&objects, &rng);
    const uint32_t prefill = std::min(kPrefillQueries, options_.n / 2);
    prefill_.assign(objects.begin(), objects.begin() + prefill);
    schedule_.assign(kSessions, {});
    for (uint32_t s = 0; s < kSessions; ++s) {
      std::vector<uint32_t>& queries = schedule_[s];
      queries.insert(queries.end(), prefill_.begin(), prefill_.end());
      queries.insert(queries.end(), prefill_.begin(), prefill_.end());
      for (uint32_t k = prefill + s; k < options_.n; k += kSessions) {
        queries.push_back(objects[k]);
      }
      Shuffle(&queries, &rng);
    }
  }

  // Every serve-road resolver starts as a fresh client does: a landmark
  // bootstrap, then Tri bounds.
  void Bootstrap(mp::BoundedResolver* resolver) const {
    mp::BootstrapWithLandmarks(resolver, mp::DefaultNumLandmarks(options_.n),
                               kMapSeed);
  }

  static void Shuffle(std::vector<uint32_t>* v, std::mt19937_64* rng) {
    for (size_t k = v->size(); k > 1; --k) {
      std::swap((*v)[k - 1], (*v)[(*rng)() % k]);
    }
  }

  // The earlier queries whose distances the store holds when a
  // repetition starts.
  void Prefill(mp::DistanceOracle* oracle, const std::string& base_path,
               const mp::StoreFingerprint& fingerprint,
               const mp::StoreOptions& store_options, SpanRecorder* spans) {
    ScopedSpan span(spans, "store.prefill", kLayerStore);
    auto opened =
        mp::DistanceStore::Open(base_path, fingerprint, store_options);
    CHECK(opened.ok()) << opened.status().ToString();
    std::unique_ptr<mp::DistanceStore> store = std::move(opened).value();
    mp::PersistentOracle persistent(oracle, store.get());
    mp::PartialDistanceGraph graph(options_.n);
    mp::BoundedResolver resolver(&persistent, &graph);
    Bootstrap(&resolver);
    mp::TriBounder tri(&graph);
    resolver.SetBounder(&tri);
    for (uint32_t q : prefill_) mp::KnnSearch(&resolver, q, kNeighbors);
    const mp::Status closed = store->Close();
    CHECK(closed.ok()) << closed.ToString();
  }

  WorkloadOptions options_;
  std::vector<uint32_t> prefill_;
  std::vector<std::vector<uint32_t>> schedule_;
  uint64_t rep_counter_ = 0;
};

double ReadStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  const size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      kb = std::strtod(line + key_len, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadOptions& options) {
  if (name == "knn-vec") return std::make_unique<KnnVec>(options);
  if (name == "mst-dna") return std::make_unique<MstDna>(options);
  if (name == "serve-road") return std::make_unique<ServeRoad>(options);
  return nullptr;
}

uint64_t Digest(const void* data, size_t size, uint64_t seed) {
  uint64_t h = seed != 0 ? seed : 1469598103934665603ULL;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t k = 0; k < size; ++k) {
    h ^= bytes[k];
    h *= 1099511628211ULL;
  }
  return h;
}

double CurrentRssBytes() { return ReadStatusKb("VmRSS:") * 1024.0; }
double PeakRssBytes() { return ReadStatusKb("VmHWM:") * 1024.0; }

}  // namespace perfbench
