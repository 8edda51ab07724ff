// The serve probe of logic_delay's traced run: the daemon as it ships
// with --spool (journal, spool and result cache on), 2 executor threads, a
// Unix socket, serving the same SET family as examples/service/sweep.sem.
// Two closed-loop ServeClient clients issue cold requests (a fresh seed:
// engine work plus journal fsync) and cached ones (resubmitting the
// fingerprint they just finished, answered from the result cache). A
// request is timed from submit until the result bytes arrive; cold
// requests poll `status` with a fixed 1 ms pause, as callers of
// `semsim_submit --wait` wait for their reply.
//
// It is a probe, not a workload with end-to-end bounds: every request
// crosses several thread wake-ups, so its latency follows the host's steal
// time (cold p50 11 ms at 1 % steal, 25-36 ms at 20-25 %).
//
// After the loop every served document is compared byte for byte with the
// canonical document of a direct run() of the same request.
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "analysis/api.h"
#include "base/error.h"
#include "base/random.h"
#include "base/thread_pool.h"
#include "io/json.h"
#include "netlist/electrostatics.h"
#include "serve/client.h"
#include "workloads.h"

using namespace semsim;

namespace perfbench {
namespace {

/// examples/service/sweep.sem: an 11-point SET I-V sweep.
constexpr const char* kNetlist =
    "num ext 3\n"
    "num nodes 4\n"
    "junc 1 1 4 1meg 1a\n"
    "junc 2 4 2 1meg 1a\n"
    "cap 3 4 3a\n"
    "vdc 3 0.0\n"
    "symm 2\n"
    "temp 5\n"
    "record 1 2\n"
    "jumps 2000\n"
    "sweep 1 0.01 0.002\n";
constexpr int kClients = 2;
constexpr const char* kDaemonThreads = "2";
constexpr auto kPollPause = std::chrono::milliseconds(1);
/// Completed requests of each class (cold, cached) per probe: a
/// nearest-rank p99 over 1000 samples has 10 samples beyond it.
constexpr std::uint64_t kRequestsPerClass = 1000;
/// The daemon keeps growing while it serves, so its peak resident set is
/// read after a fixed number of cold requests, not at the end of the loop.
constexpr std::uint64_t kRssAfterColdRequests = 100;

class Daemon {
 public:
  /// Starts semsim_serve on a fresh spool directory; returns once it
  /// answers `ping`.
  Daemon(const std::string& bin, const std::string& dir) : dir_(dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir + "/spool");
    const std::string sock = dir + "/sock";
    const std::string spool = dir + "/spool";
    const std::string log = dir + "/daemon.log";
    pid_ = ::fork();
    require_text(pid_ >= 0, "fork failed");
    if (pid_ == 0) {
      // Never outlive the benchmark, even if it crashes.
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      // The daemon's chatter must not reach the benchmark's stdout.
      if (std::freopen(log.c_str(), "w", stdout) == nullptr ||
          std::freopen(log.c_str(), "a", stderr) == nullptr) {
        ::_exit(127);
      }
      ::execl(bin.c_str(), bin.c_str(), "--socket", sock.c_str(), "--spool",
              spool.c_str(), "--threads", kDaemonThreads,
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    client_.emplace(ServeClient::unix_socket(sock));
    RequestEnvelope ping;
    ping.verb = RequestEnvelope::Verb::kPing;
    const auto t0 = Clock::now();
    for (;;) {
      try {
        client_->call(ping);
        return;
      } catch (const Error&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("semsim_serve exited during start-up; see " +
                                   log);
        }
        if (seconds_since(t0) > 30.0) {
          stop();
          throw std::runtime_error("semsim_serve did not answer ping");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const ServeClient& client() const { return *client_; }
  int pid() const { return pid_; }

  /// Asks the daemon to shut down and reaps it; kills it after 10 s.
  void stop() {
    if (pid_ <= 0) return;
    try {
      RequestEnvelope bye;
      bye.verb = RequestEnvelope::Verb::kShutdown;
      client_->call(bye);
    } catch (const Error&) {
      ::kill(pid_, SIGTERM);
    }
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10.0) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    pid_ = -1;
    std::filesystem::remove_all(dir_);
  }

 private:
  std::string dir_;
  pid_t pid_ = -1;
  std::optional<ServeClient> client_;
};

RequestEnvelope submit_envelope(std::uint64_t seed, int client) {
  RequestEnvelope env;
  env.verb = RequestEnvelope::Verb::kSubmit;
  env.netlist = kNetlist;
  env.seed = seed;
  env.client = "perfbench-" + std::to_string(client);
  return env;
}

RunRequest direct_request(std::uint64_t seed) {
  RunRequest req;
  req.input = parse_simulation_input(kNetlist);
  req.seed = seed;
  return req;
}

struct Served {
  std::uint64_t seed = 0;
  bool cold = true;
  bool ok = false;
  double latency_s = 0.0;
  std::string doc;
};

// One request: submit, poll status until the job is terminal, fetch the
// result. Every call is one connection, as ServeClient makes them.
Served request(const ServeClient& c, std::uint64_t seed, bool cold,
               int client, std::uint64_t id, Tracer& tracer) {
  Served out;
  out.seed = seed;
  out.cold = cold;
  const auto t0 = Clock::now();
  const Scope req_span(tracer, cold ? "serve.cold" : "serve.cached", id);
  std::string state;
  std::uint64_t job = 0;
  {
    const Scope span(tracer, "serve.submit", id);
    out.doc = c.call(submit_envelope(seed, client));
    const JsonValue r = JsonValue::parse(out.doc);
    if (!r.at("ok").as_bool()) return out;
    job = static_cast<std::uint64_t>(r.at("job").as_number());
    state = r.at("state").as_string();
  }
  RequestEnvelope probe;
  probe.job_id = job;
  while (state == "queued" || state == "running") {
    std::this_thread::sleep_for(kPollPause);
    const Scope span(tracer, "serve.status", id);
    probe.verb = RequestEnvelope::Verb::kStatus;
    out.doc = c.call(probe);
    const JsonValue r = JsonValue::parse(out.doc);
    if (!r.at("ok").as_bool()) return out;
    state = r.at("state").as_string();
  }
  if (state != "done") return out;
  {
    const Scope span(tracer, "serve.result", id);
    probe.verb = RequestEnvelope::Verb::kResult;
    out.doc = c.call(probe);
  }
  out.latency_s = seconds_since(t0);
  out.ok = true;
  return out;
}

struct LoopResult {
  std::vector<Served> served;  ///< per client in order, clients back to back
  double rss_mib = 0.0;  ///< daemon peak RSS after kRssAfterColdRequests
  double seconds = 0.0;  ///< wall time of the loop
};

// Both clients until each has sent kRequestsPerClass / kClients requests of
// each class. Each client issues its requests in pairs of
// one cold and one cached request, the order within a pair drawn from the
// client's own seeded stream: half the requests are cold, yet the two
// clients cannot phase-lock (a fixed alternation makes them collide on
// every cold job in some runs and never in others). A cached request
// resubmits the client's latest cold seed.
LoopResult client_loop(const Daemon& d, std::uint64_t seed, Tracer& tracer) {
  std::vector<std::vector<Served>> per_client(kClients);
  std::atomic<std::uint64_t> cold_done{0};
  std::atomic<double> rss{0.0};
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      try {
        Xoshiro256 mix(derive_stream_seed(seed, 2 * i + 1));
        std::uint64_t last_cold = 0;
        bool cold_first = true;
        for (std::uint64_t k = 0; k < 2 * kRequestsPerClass / kClients; ++k) {
          if (k % 2 == 0 && k > 0) cold_first = mix.uniform01() < 0.5;
          const bool cold = (k % 2 == 0) == cold_first;
          // Envelope integers travel as JSON numbers: at most 2^53.
          if (cold) {
            last_cold = derive_stream_seed(derive_stream_seed(seed, 2 * i), k) >> 11;
          }
          const std::uint64_t id = (static_cast<std::uint64_t>(i) << 32) | k;
          per_client[i].push_back(
              request(d.client(), last_cold, cold, i, id, tracer));
          if (cold && cold_done.fetch_add(1) + 1 == kRssAfterColdRequests) {
            rss = peak_rss_mib(d.pid());
          }
        }
      } catch (const std::exception& e) {
        Served failed;
        failed.doc = e.what();
        per_client[i].push_back(failed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopResult out;
  for (auto& v : per_client) {
    out.served.insert(out.served.end(), v.begin(), v.end());
  }
  out.rss_mib = rss.load();
  out.seconds = seconds_since(t0);
  return out;
}

}  // namespace

void probe_serve(const Args& args, Tracer& tracer, Report& report) {
  require_text(!args.serve_bin.empty(), "--serve-bin is required");
  const std::string dir =
      args.out_dir + "/serve-" + std::to_string(::getpid());
  std::optional<Daemon> daemon;
  {
    const Scope span(tracer, "serve.start");
    daemon.emplace(args.serve_bin, dir);
  }
  const LoopResult loop = client_loop(*daemon, args.seed, tracer);
  const std::vector<Served>& all = loop.served;
  RequestEnvelope stats_env;
  stats_env.verb = RequestEnvelope::Verb::kStats;
  const JsonValue stats = JsonValue::parse(daemon->client().call(stats_env));
  daemon.reset();

  // Byte-for-byte check of every served document against direct run().
  const ParallelExecutor exec(kThreads);
  const std::vector<char> same = exec.map<char>(all.size(), [&](std::size_t i) {
    return static_cast<char>(
        !all[i].ok || !all[i].cold ||
        run(direct_request(all[i].seed)).to_json(true) == all[i].doc);
  });
  std::vector<double> cold_s, cached_s;
  const std::string* cold_doc = nullptr;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Served& s = all[i];
    if (!s.ok) {
      report.check(false, "request failed or was rejected: " + s.doc);
      continue;
    }
    if (s.cold) {
      report.check(same[i] != 0,
                   "served document differs from the direct run() document");
      cold_doc = &s.doc;
      cold_s.push_back(s.latency_s);
    } else {
      // A cached request resubmits the client's latest cold request.
      report.check(cold_doc != nullptr && s.doc == *cold_doc,
                   "cached document differs from the cold one");
      cached_s.push_back(s.latency_s);
    }
  }

  // The engine floor under a cold request: the same request run directly.
  std::vector<double> direct_s;
  for (std::uint64_t k = 0; k < 20; ++k) {
    const RunRequest req = direct_request(derive_stream_seed(args.seed, k));
    const auto t0 = Clock::now();
    run(req).to_json(true);
    direct_s.push_back(seconds_since(t0));
  }

  const double hits = stats.at("cache").at("hits").as_number();
  const double misses = stats.at("cache").at("misses").as_number();
  report.set("serve.cold_p50_ms", 1e3 * median(cold_s));
  report.set("serve.cold_p99_ms", 1e3 * percentile(cold_s, 99));
  report.set("serve.cached_p50_ms", 1e3 * median(cached_s));
  report.set("serve.cached_p99_ms", 1e3 * percentile(cached_s, 99));
  report.set("serve.submit_ms", 1e3 * median(tracer.durations("serve.submit")));
  report.set("serve.status_ms", 1e3 * median(tracer.durations("serve.status")));
  report.set("serve.result_ms", 1e3 * median(tracer.durations("serve.result")));
  report.set("serve.polls_per_job",
             static_cast<double>(tracer.count("serve.status")) /
                 static_cast<double>(cold_s.size()));
  report.set("serve.cache_hit_frac", hits / (hits + misses));
  report.note(format("serve probe: daemon start %.3f ms; cold p50 %.3f ms "
                     "p99 %.3f ms (%zu requests); cached p50 %.3f ms p99 "
                     "%.3f ms (%zu requests); direct run() %.3f ms",
                     1e3 * median(tracer.durations("serve.start")),
                     1e3 * median(cold_s), 1e3 * percentile(cold_s, 99),
                     cold_s.size(), 1e3 * median(cached_s),
                     1e3 * percentile(cached_s, 99), cached_s.size(),
                     1e3 * median(direct_s)));
  report.note(format("serve probe: %.1f requests/s, daemon peak RSS %.2f MiB "
                     "after %llu cold requests",
                     static_cast<double>(all.size()) / loop.seconds,
                     loop.rss_mib,
                     static_cast<unsigned long long>(kRssAfterColdRequests)));
}

}  // namespace perfbench
