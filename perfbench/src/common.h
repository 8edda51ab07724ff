// Shared plumbing of the end-to-end benchmark: arguments, the span tracer,
// the per-run report, and small statistics helpers.
//
// Every number the benchmark reports is measured from outside the library:
// the workloads call the modules' public functions and time those calls.
// With --trace 1 each timed call also records a span (name, start, end,
// parent span, request id); spans live in memory and are written to
// .bench_out/ when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_bin;  ///< path of the semsim_serve daemon binary
  std::string out_dir = ".bench_out";
};

/// Worker threads (or client connections) any workload may use.
constexpr unsigned kThreads = 4;

// ---- tracing ---------------------------------------------------------------

struct Span {
  const char* name = "";
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span store. Disabled tracers record nothing and cost one
/// branch per scope.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const noexcept { return enabled_; }

  /// Opens a span; returns its id (-1 when disabled). `parent` -1 means the
  /// innermost open span of the calling thread.
  std::int64_t begin(const char* name, std::uint64_t request,
                     std::int64_t parent = -1);
  void end(std::int64_t id);

  /// Summed duration [s] / count / durations of every span called `name`.
  double total(const char* name) const;
  std::size_t count(const char* name) const;
  std::vector<double> durations(const char* name) const;

  /// Writes every span as one JSON document.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// The tracers one measurement repeats under: `off` always, plus `tracer`
/// when tracing is on, so traced and untraced repetitions interleave.
inline std::vector<Tracer*> modes(Tracer& off, Tracer& tracer) {
  if (tracer.enabled()) return {&off, &tracer};
  return {&off};
}

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request = 0,
        std::int64_t parent = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
  std::int64_t saved_;
};

// ---- report ----------------------------------------------------------------

/// What one workload run produced: metric values by name, the operation
/// tally behind `failed`, and human-readable lines printed before the JSON.
struct Report {
  std::map<std::string, double> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> lines;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one operation; a false `ok` counts it failed and records why.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { lines.push_back(line); }
};

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v);
/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v);
double sum(const std::vector<double>& v);

/// Cumulative steal and total jiffies of all CPUs (/proc/stat): time the
/// hypervisor ran something else while this machine wanted to run.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks cpu_ticks();

/// Peak resident set of a process [MiB] from /proc/<pid>/status (VmHWM);
/// pid 0 = this process.
double peak_rss_mib(int pid = 0);

std::string format(const char* fmt, ...);

/// Whole file as text; throws std::runtime_error when it cannot be read.
std::string read_text_file(const std::string& path);
/// Throws std::runtime_error(what) unless `ok`.
void require_text(bool ok, const std::string& what);

}  // namespace perfbench
