#include "spans.h"

#include <chrono>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

double Now() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {

// Open spans of the calling thread, innermost last, and the thread's small
// id in the active recorder (0 = not yet assigned).
struct ThreadState {
  std::vector<Span> open;
  uint32_t thread = 0;
  uint64_t generation = 0;
};

std::atomic<uint64_t> g_generation{0};

ThreadState& State(uint64_t generation) {
  thread_local ThreadState state;
  if (state.generation != generation) {
    state = ThreadState{};
    state.generation = generation;
  }
  return state;
}

}  // namespace

SpanRecorder::SpanRecorder() : generation_(g_generation.fetch_add(1) + 1) {
  done_.reserve(1 << 16);
}

uint64_t SpanRecorder::Begin(const char* name, const char* layer,
                             uint64_t request, uint64_t parent) {
  ThreadState& state = State(generation_);
  if (state.thread == 0) state.thread = next_thread_.fetch_add(1);
  Span span;
  span.id = next_id_.fetch_add(1);
  span.parent = state.open.empty() ? parent : state.open.back().id;
  span.request = request != 0 || state.open.empty()
                     ? request
                     : state.open.back().request;
  span.name = name;
  span.layer = layer;
  span.thread = state.thread;
  span.start = Now();
  state.open.push_back(span);
  return span.id;
}

void SpanRecorder::End() {
  ThreadState& state = State(generation_);
  if (state.open.empty()) return;
  Span span = state.open.back();
  state.open.pop_back();
  span.end = Now();
  std::lock_guard<std::mutex> lock(mu_);
  done_.push_back(span);
}

void SpanRecorder::AddBounds(double seconds) {
  ThreadState& state = State(generation_);
  if (!state.open.empty()) state.open.back().bounds_s += seconds;
}

void SpanRecorder::AddService(double seconds) {
  ThreadState& state = State(generation_);
  if (!state.open.empty()) state.open.back().service_s += seconds;
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_.size();
}

std::map<std::string, double> SpanRecorder::SelfTimes(uint64_t root) const {
  const std::vector<Span> spans = Spans();
  std::unordered_map<uint64_t, size_t> index;
  for (size_t k = 0; k < spans.size(); ++k) index[spans[k].id] = k;

  // A span is under `root` when following parents reaches it.
  std::vector<int> under(spans.size(), -1);
  auto is_under = [&](size_t k) {
    std::vector<size_t> path;
    size_t cur = k;
    int verdict = 0;
    while (true) {
      if (under[cur] >= 0) {
        verdict = under[cur];
        break;
      }
      path.push_back(cur);
      if (spans[cur].id == root) {
        verdict = 1;
        break;
      }
      auto it = index.find(spans[cur].parent);
      if (spans[cur].parent == 0 || it == index.end()) break;
      cur = it->second;
    }
    for (size_t p : path) under[p] = verdict;
    return verdict == 1;
  };

  std::vector<double> child_time(spans.size(), 0.0);
  for (size_t k = 0; k < spans.size(); ++k) {
    auto it = index.find(spans[k].parent);
    if (it == index.end()) continue;
    if (spans[it->second].thread == spans[k].thread) {
      child_time[it->second] += spans[k].end - spans[k].start;
    }
  }

  std::map<std::string, double> self;
  for (size_t k = 0; k < spans.size(); ++k) {
    if (!is_under(k)) continue;
    const Span& s = spans[k];
    self[s.layer] +=
        (s.end - s.start) - child_time[k] - s.bounds_s - s.service_s;
    if (s.bounds_s > 0.0) self[kLayerBounds] += s.bounds_s;
    if (s.service_s > 0.0) self[kLayerService] += s.service_s;
  }
  return self;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : Spans()) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"layer\":\"%s\",\"thread\":%u,"
                 "\"start\":%.9f,\"end\":%.9f,\"bounds_s\":%.9f,"
                 "\"service_s\":%.9f}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name, s.layer,
                 s.thread, s.start, s.end, s.bounds_s, s.service_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
