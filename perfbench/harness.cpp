#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

std::atomic<bool> gEnabled{false};
std::atomic<std::int64_t> gRound{-1};
std::atomic<std::uint32_t> gNextThread{0};
std::mutex gMutex;
std::vector<Span> gSpans; // guarded by gMutex

struct ThreadState {
  std::uint32_t id = gNextThread.fetch_add(1);
  std::vector<std::int64_t> open; // indices of this thread's open spans
};
thread_local ThreadState tState;

} // namespace

void Spans::enable(bool on) { gEnabled.store(on); }
bool Spans::enabled() { return gEnabled.load(std::memory_order_relaxed); }
void Spans::setRound(std::int64_t round) { gRound.store(round); }

std::vector<Span> Spans::snapshot() {
  std::lock_guard lock(gMutex);
  return gSpans;
}

void Spans::writeJson(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    throw std::runtime_error("cannot write " + path);
  }
  std::lock_guard lock(gMutex);
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < gSpans.size(); ++i) {
    const Span& s = gSpans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                 "\"parent\":%lld,\"op\":%llu,\"round\":%lld,"
                 "\"thread\":%u}%s\n",
                 s.name, (unsigned long long)s.startNs,
                 (unsigned long long)s.endNs, (long long)s.parent,
                 (unsigned long long)s.op, (long long)s.round, s.thread,
                 i + 1 < gSpans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t op) {
  if (!Spans::enabled()) {
    return;
  }
  Span span;
  span.name = name;
  span.parent = tState.open.empty() ? -1 : tState.open.back();
  span.round = gRound.load();
  span.thread = tState.id;
  span.startNs = wallNs();
  std::lock_guard lock(gMutex);
  span.op = op != 0 || span.parent < 0 ? op : gSpans[std::size_t(span.parent)].op;
  index_ = std::int64_t(gSpans.size());
  gSpans.push_back(span);
  tState.open.push_back(index_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ < 0) {
    return;
  }
  const std::uint64_t end = wallNs();
  tState.open.pop_back();
  std::lock_guard lock(gMutex);
  gSpans[std::size_t(index_)].endNs = end;
}

std::map<std::string, double> selfMsByName(const std::vector<Span>& spans,
                                           std::int64_t round) {
  std::vector<double> childNs(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      childNs[std::size_t(s.parent)] += double(s.endNs - s.startNs);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].round != round) {
      continue;
    }
    const double total = double(spans[i].endNs - spans[i].startNs);
    self[spans[i].name] += (total - childNs[i]) * 1e-6;
  }
  return self;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q / 100.0 * double(values.size()));
  const std::size_t index =
      std::min(values.size() - 1, std::size_t(std::max(rank, 1.0)) - 1);
  return values[index];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double tailPercentile(std::size_t count) {
  for (double q : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (double(count) * (1.0 - q / 100.0) >= 10.0) {
      return q;
    }
  }
  return 50.0;
}

void Digest::add(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    state_ = (state_ ^ p[i]) * 0x100000001b3ULL;
  }
}

} // namespace perfbench
