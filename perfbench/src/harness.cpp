#include "harness.h"

#include <pthread.h>
#include <time.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

std::vector<int> usable_cpus() {
  std::vector<int> out;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  if (out.empty()) out.push_back(0);
  return out;
}

// --- RefTeam -----------------------------------------------------------------

RefTeam::RefTeam(const std::vector<int>& cpus) {
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    loops_.push_back(std::make_unique<RefLoop>());
  }
  seconds_.assign(cpus.size(), 0.0);
  for (std::size_t i = 1; i < cpus.size(); ++i) {
    threads_.emplace_back(&RefTeam::worker, this, static_cast<int>(i),
                          cpus[i]);
  }
}

RefTeam::~RefTeam() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void RefTeam::worker(int lane, int cpu) {
  pin_to_cpu(cpu);
  std::uint64_t seen = 0;
  for (;;) {
    int units = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      units = units_;
    }
    const double s = loops_[static_cast<std::size_t>(lane)]->run(units);
    {
      std::lock_guard<std::mutex> lock(mu_);
      seconds_[static_cast<std::size_t>(lane)] = s;
      --pending_;
    }
    cv_.notify_all();
  }
}

RefTeam::Times RefTeam::run(int units) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    units_ = units;
    pending_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  cv_.notify_all();
  seconds_[0] = loops_[0]->run(units);
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_ == 0; });
  double sum = 0.0;
  for (const double s : seconds_) sum += s;
  return {seconds_[0] / units,
          sum / static_cast<double>(seconds_.size()) / units};
}

// --- Yardstick ---------------------------------------------------------------

double Yardstick::single_unit_s(int units) {
  return team_->lane0().run(units) / units;
}

RefTeam::Times Yardstick::team_unit_s(int units) {
  // A pool that keeps its threads spinning after the call returned would
  // slow the loop below and so look faster; give it time to park first.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  return team_->run(units);
}

namespace {

// ref, op, ref, op, ..., op, ref: each operation is scaled by the mean of
// the reference measurements just before and just after it.
void interleaved(Series& out, int count, double nominal,
                 const std::function<double()>& ref,
                 const std::function<void(int)>& op) {
  double prev = ref();
  for (int i = 0; i < count; ++i) {
    const auto t0 = Clock::now();
    op(i);
    const double ms = ms_between(t0, Clock::now());
    const double next = ref();
    out.raw.push_back(ms);
    out.scaled.push_back(ms * nominal / (0.5 * (prev + next)));
    prev = next;
  }
}

}  // namespace

void Yardstick::single_round(Series& out, int count, int units,
                             const std::function<void(int)>& op) {
  interleaved(out, count, kNominalUnitS, [&] { return single_unit_s(units); },
              op);
}

void Yardstick::team_round(Series& out, int count, int units,
                           const std::function<void(int)>& op) {
  interleaved(out, count, kNominalTeamUnitS,
              [&] { return team_unit_s(units).caller_unit_s; }, op);
}

SetupTime setup_time(const Options& opts, Yardstick& ys,
                     Clock::time_point ready) {
  SetupTime t;
  t.raw_s = std::chrono::duration<double>(ready - opts.setup_start).count();
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  t.cpu_s = static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  const double after = ys.single_unit_s(kSetupRefUnits);
  t.ref_before_s = opts.setup_ref_unit_s;
  t.ref_after_s = after;
  t.scaled_s =
      t.raw_s * kNominalUnitS / (0.5 * (opts.setup_ref_unit_s + after));
  return t;
}

// --- Checks ------------------------------------------------------------------

void Checks::require(bool ok, const std::string& name,
                     const std::string& detail) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ok) {
    ++passed_;
    return;
  }
  ++failures_;
  if (failures_ <= 20) {
    std::fprintf(stderr, "CHECK FAILED: %s%s%s\n", name.c_str(),
                 detail.empty() ? "" : ": ", detail.c_str());
  }
}

// --- Tracer ------------------------------------------------------------------

namespace {
thread_local std::vector<int> t_open_spans;

int thread_index() {
  static std::mutex mu;
  static std::map<std::thread::id, int> ids;
  std::lock_guard<std::mutex> lock(mu);
  const auto [it, inserted] = ids.emplace(std::this_thread::get_id(),
                                          static_cast<int>(ids.size()));
  (void)inserted;
  return it->second;
}
}  // namespace

int Tracer::begin(const char* name, std::int64_t request) {
  const int parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  const int tid = thread_index();
  const std::int64_t start = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 Clock::now() - origin_)
                                 .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, start, parent, request, tid});
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open_spans.push_back(index);
  return index;
}

void Tracer::end(int index) {
  const std::int64_t stop = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - origin_)
                                .count();
  if (!t_open_spans.empty()) t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = stop;
}

std::vector<Tracer::SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::int64_t Tracer::count(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t n = 0;
  for (const SpanRec& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

void Tracer::print_table(std::FILE* out) const {
  const std::vector<SpanRec> all = spans();
  std::vector<double> child(all.size(), 0.0);
  for (const SpanRec& s : all) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  struct Row {
    std::int64_t n = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::vector<double> each;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double d = static_cast<double>(all[i].end_ns - all[i].start_ns);
    Row& r = rows[all[i].name];
    ++r.n;
    r.total_ms += d * 1e-6;
    r.self_ms += (d - child[i]) * 1e-6;
    r.each.push_back(d * 1e-6);
  }
  std::fprintf(out, "\n%-34s %8s %12s %12s %12s\n", "span", "count",
               "median ms", "total ms", "self ms");
  for (const auto& [name, r] : rows) {
    std::fprintf(out, "%-34s %8lld %12.4f %12.2f %12.2f\n", name.c_str(),
                 static_cast<long long>(r.n), median(r.each), r.total_ms,
                 r.self_ms);
  }
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  const std::vector<SpanRec> all = spans();
  os << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRec& s = all[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%lld}}%s\n",
                  s.name, s.tid, static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<long long>(s.request),
                  i + 1 < all.size() ? "," : "");
    os << buf;
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

// --- Report ------------------------------------------------------------------

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, value, unit});
}

void Report::print(bool correct, std::int64_t attempted,
                   std::int64_t failed) const {
  std::fprintf(stderr, "\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Entry& e : entries_) {
    std::fprintf(stderr, "%-34s %16.6f  %s\n", e.name.c_str(), e.value,
                 e.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", e.value);
    line += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + e.unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void print_series(const char* name, const Series& s) {
  std::fprintf(stderr, "%-26s raw median %10.4f ms   scaled median %10.4f ms   (n=%zu)\n",
               name, median(s.raw), median(s.scaled), s.raw.size());
}

}  // namespace perfbench
