#include "helpers.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "mcfs/common/random.h"

namespace perfbench {

int64_t NearestRank(int64_t n, double q) {
  if (n <= 0) return 0;
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<int64_t>(rank, 1, n);
}

int64_t SamplesBeyond(int64_t n, double q) { return n - NearestRank(n, q); }

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const int64_t rank = NearestRank(static_cast<int64_t>(samples.size()), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[static_cast<size_t>(rank - 1)];
}

bool PercentileSupported(int64_t n, double q) {
  return n > 0 && SamplesBeyond(n, q) >= kMinSamplesBeyond;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed) {
  std::vector<double> due;
  const auto count = static_cast<int64_t>(std::llround(rate * duration));
  if (count <= 0) return due;
  mcfs::Rng rng(seed);
  // count + 1 exponential gaps; the last one runs past the end.
  double t = 0.0;
  for (int64_t i = 0; i <= count; ++i) {
    // 1 - u lies in (0, 1], so the logarithm is finite.
    t += -std::log(1.0 - rng.NextDouble());
    due.push_back(t);
  }
  const double scale = duration / due.back();
  due.pop_back();
  for (double& d : due) d *= scale;
  return due;
}

namespace {

// Length of the union of [lo, hi) intervals (sorts `intervals`).
double UnionLength(std::vector<std::pair<double, double>>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  double length = 0.0;
  double reach = -INFINITY;
  for (const auto& [lo, hi] : intervals) {
    if (hi <= reach) continue;
    length += hi - std::max(lo, reach);
    reach = hi;
  }
  return length;
}

}  // namespace

OpenLoopSummary SummarizeOpenLoop(const std::vector<OpenLoopTiming>& timings) {
  OpenLoopSummary summary;
  std::vector<double> lag_ms;
  std::vector<std::pair<double, double>> in_flight;
  // +1 at each submission, -1 at each completion; a completion at the
  // same instant as a submission is processed first.
  std::vector<std::pair<double, int>> events;
  for (const OpenLoopTiming& t : timings) {
    summary.latency_ms.push_back(1e3 * t.Latency());
    lag_ms.push_back(1e3 * std::max(0.0, t.Lag()));
    events.emplace_back(t.sent, +1);
    events.emplace_back(t.done, -1);
    in_flight.emplace_back(t.due, t.done);
  }
  summary.busy_seconds = UnionLength(in_flight);
  std::sort(events.begin(), events.end());
  int64_t outstanding = 0;
  for (const auto& [time, delta] : events) {
    outstanding += delta;
    summary.backlog_max = std::max(summary.backlog_max, outstanding);
  }
  summary.lag_p99_ms = Percentile(lag_ms, 0.99);
  return summary;
}

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int SpanLog::Begin(const std::string& name, int parent, int64_t op) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, op, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(index)].end = now;
}

int SpanLog::Add(const std::string& name, int parent, int64_t op,
                 double start, double end) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, parent, op, start, end});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::AddPhases(
    int parent, double start,
    const std::vector<std::pair<std::string, double>>& phases) {
  std::lock_guard<std::mutex> lock(mutex_);
  const Span outer = spans_[static_cast<size_t>(parent)];
  const int first = static_cast<int>(spans_.size());
  double cursor = std::clamp(start, outer.start, outer.end);
  for (const auto& [name, seconds] : phases) {
    const double end = std::min(outer.end, cursor + std::max(0.0, seconds));
    spans_.push_back({name, parent, outer.op, cursor, end});
    cursor = end;
  }
  return first;
}

Span SpanLog::span(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_[static_cast<size_t>(index)];
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> covered(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const double lo = std::max(span.start, parent.start);
    const double hi = std::min(span.end, parent.end);
    if (hi > lo) covered[static_cast<size_t>(span.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = std::max(0.0, spans[i].Duration() - UnionLength(covered[i]));
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MeasuredLine(bool correct, int64_t attempted, int64_t failed,
                         const std::map<std::string, double>& values) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    out << (first ? "" : ", ") << JsonString(name) << ": " << JsonNumber(value);
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
