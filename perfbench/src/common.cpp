#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

thread_local std::int64_t t_current_span = -1;

}  // namespace

std::int64_t Tracer::begin(const char* name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = seconds_since(t0_);
  s.parent = parent >= 0 ? parent : t_current_span;
  s.request = request;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const double t = seconds_since(t0_);
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = t;
}

double Tracer::total(const char* name) const {
  return sum(durations(name));
}

std::size_t Tracer::count(const char* name) const {
  return durations(name).size();
}

std::vector<double> Tracer::durations(const char* name) const {
  const std::string key = name;
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (key == s.name) out.push_back(s.end - s.start);
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream f(path);
  f << "{\"schema\":\"perfbench.spans/v1\",\"spans\":[";
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    f << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\"" << s.name
      << "\",\"start\":" << format("%.9f", s.start)
      << ",\"end\":" << format("%.9f", s.end) << ",\"parent\":" << s.parent
      << ",\"request\":" << s.request << "}";
  }
  f << "\n]}\n";
}

Scope::Scope(Tracer& t, const char* name, std::uint64_t request,
             std::int64_t parent)
    : tracer_(t), id_(t.begin(name, request, parent)), saved_(t_current_span) {
  if (id_ >= 0) t_current_span = id_;
}

Scope::~Scope() {
  if (id_ < 0) return;
  tracer_.end(id_);
  t_current_span = saved_;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the log short when a systematic failure repeats.
    if (failed <= 5) lines.push_back("FAILED: " + what);
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
  return v[idx];
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

double mean(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : sum(v) / static_cast<double>(v.size());
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  f >> cpu;
  for (int i = 0; i < 8 && f; ++i) {
    double v = 0.0;
    f >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double peak_rss_mib(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return std::nan("");
}

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

std::string read_text_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  require_text(f.good(), "cannot read " + path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

void require_text(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

}  // namespace perfbench
