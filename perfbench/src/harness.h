// harness.h — timing, reference scaling, checks, tracing and the result
// line shared by the three workloads.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ref_loop.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double median(std::vector<double> v);

// Pins the calling thread to one CPU (best effort).
bool pin_to_cpu(int cpu);
// The CPUs this process may run on, in increasing order.
std::vector<int> usable_cpus();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Set-up is timed from here: the process's start, plus only the
  // reference measurement main() makes first (setup_ref_unit_s).
  Clock::time_point setup_start;
  double setup_ref_unit_s = 0.0;
  std::string out_dir;  // traces and artifacts
  std::vector<int> cpus;  // usable CPUs; the main thread runs on cpus[0]
};

// --- reference scaling -------------------------------------------------------

// Nominal seconds per RefLoop unit on the host the README's figures come
// from: one thread alone, and every usable CPU running one loop at once.
inline constexpr double kNominalUnitS = 0.50e-3;
inline constexpr double kNominalTeamUnitS = 0.55e-3;
// Reference units timed right after set-up, to scale setup_s.
inline constexpr int kSetupRefUnits = 40;

// One RefLoop per usable CPU, each on its own pinned thread (the caller
// runs lane 0 and must already be pinned to cpus[0]). run() releases every
// lane at once.
class RefTeam {
 public:
  explicit RefTeam(const std::vector<int>& cpus);
  ~RefTeam();
  RefTeam(const RefTeam&) = delete;
  RefTeam& operator=(const RefTeam&) = delete;

  struct Times {
    double caller_unit_s;  // lane 0: the calling thread's CPU
    double mean_unit_s;    // mean over every lane
  };
  Times run(int units);
  [[nodiscard]] int size() const { return static_cast<int>(loops_.size()); }
  [[nodiscard]] RefLoop& lane0() { return *loops_[0]; }

 private:
  void worker(int lane, int cpu);

  std::vector<std::unique_ptr<RefLoop>> loops_;
  std::vector<double> seconds_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  int units_ = 0;
  bool stop_ = false;
};

// Set-up time from opts.setup_start to `ready`, raw and scaled by the
// reference loop measured just before set-up began and just after `ready`.
struct SetupTime {
  double raw_s = 0.0;
  double scaled_s = 0.0;
  double ref_before_s = 0.0;  // seconds per reference unit
  double ref_after_s = 0.0;
  double cpu_s = 0.0;  // process CPU time at `ready`
};

// Raw and scaled samples of one timed quantity.
struct Series {
  std::vector<double> raw;
  std::vector<double> scaled;
};

// Times operations against the reference loop: the loop runs on the timing
// thread(s) just before and just after each operation, and the operation's
// time is scaled by nominal / measured reference speed.
class Yardstick {
 public:
  explicit Yardstick(RefTeam& team) : team_(&team) {}

  // Seconds per unit of the single-thread loop on the calling thread.
  double single_unit_s(int units);
  // Seconds per unit with the loop running on every usable CPU at once,
  // after giving a multi-worker pool time to stop spinning and park.
  RefTeam::Times team_unit_s(int units);

  // Runs `count` calls of op() on the calling thread, each between two
  // reference measurements, and appends raw and scaled milliseconds to
  // `out`.
  void single_round(Series& out, int count, int units,
                    const std::function<void(int)>& op);
  // Same, for calls that run across a multi-worker pool: the loop runs on
  // every CPU, and the calling thread's lane sets the scale. A pipelined
  // run's critical path (head, join, serial tail) stays on the calling
  // thread, and on the host in README.md the other lanes' swings did not
  // show in its time.
  void team_round(Series& out, int count, int units,
                  const std::function<void(int)>& op);

 private:
  RefTeam* team_;
};

SetupTime setup_time(const Options& opts, Yardstick& ys,
                     Clock::time_point ready);

// --- checks ------------------------------------------------------------------

class Checks {
 public:
  // Records a check; a failure names the check and stays failed.
  void require(bool ok, const std::string& name, const std::string& detail = {});
  [[nodiscard]] bool ok() const { return failures_ == 0; }
  [[nodiscard]] std::int64_t passed() const { return passed_; }

 private:
  std::mutex mu_;
  std::int64_t passed_ = 0;
  std::int64_t failures_ = 0;
};

// --- tracing -----------------------------------------------------------------

// In-memory spans around the benchmark's calls into the program. Each span
// has a name, start, end, parent (the enclosing span on the same thread)
// and request id; spans are written as Chrome trace-event JSON at the end.
class Tracer {
 public:
  struct SpanRec {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    std::int64_t request;
    int tid;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int begin(const char* name, std::int64_t request);
  void end(int index);

  [[nodiscard]] std::vector<SpanRec> spans() const;
  [[nodiscard]] std::int64_t count(const std::string& name) const;
  // Per-name table: count, median, total and self time (duration minus the
  // part covered by child spans).
  void print_table(std::FILE* out) const;
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* t, const char* name, std::int64_t request = -1)
      : t_(t), index_(t ? t->begin(name, request) : -1) {}
  ~Span() {
    if (t_) t_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int index_;
};

// --- result ------------------------------------------------------------------

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  // Prints the human-readable table to stderr and the result JSON as the
  // last line of stdout.
  void print(bool correct, std::int64_t attempted, std::int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

// Prints "name  raw median  scaled median  (n)" for a series.
void print_series(const char* name, const Series& s);

}  // namespace perfbench
