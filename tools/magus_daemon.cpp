// magus-daemon: the deployable MAGUS runtime (the paper's ~400-line
// artifact, section 4). Launched once by the administrator, it runs in the
// background, samples memory throughput every 0.2 s, and rewrites the MSR
// 0x620 max-ratio field. Users never interact with it.
//
//   magus-daemon --simulate [--app unet]
//                [--metrics-port N] [--events-out file]
//       Demonstration mode: runs the identical control loop against the
//       simulated Intel+A100 node and prints each decision. Works anywhere.
//       With --metrics-port the daemon serves Prometheus /metrics (and
//       /healthz) during the run and keeps serving until SIGINT/SIGTERM.
//
//   magus-daemon --throughput-file /run/pcm/dram_mb [--interval 0.2]
//                [--min-ghz 0.8] [--max-ghz 2.2] [--sockets 0,40] [--dry-run]
//                [--metrics-port N] [--events-out file]
//                [--max-sample-failures N]
//       Real mode: reads cumulative DRAM traffic (MB) published by a PCM
//       exporter from a file, drives /dev/cpu/<cpu>/msr. Requires root and
//       the msr kernel module; refuses to start otherwise. The uncore max
//       limit is restored on ANY exit path (signal, error, exception), and
//       the daemon gives up after N consecutive failed samples (default 25)
//       instead of retrying forever.
//
//   magus-daemon --fleet --metrics-port N [--jobs N] [--events-out file]
//       Fleet service mode: accepts fleet jobs over HTTP and simulates them
//       on the shared worker pool, one job at a time.
//         POST /fleet/jobs    body = fleet manifest JSONL; an empty body
//                             with ?nodes=64&seed=7 submits a synthetic
//                             fleet. ?fault_rate=P&fault_seed=S turns on
//                             deterministic backend fault injection.
//                             ?power_budget=W&budget_epoch=S water-fills a
//                             global power budget across the nodes;
//                             ?policy=NAME&power_cap=W rewrite every node.
//                             Replies 202 with the queued job id.
//                             Any other query key is a 400 naming it.
//         GET  /fleet/status  live progress (job id, state, nodes done) and
//                             the last finished job's rollup line.
//       Progress also lands on /metrics as magus_fleet_* series.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstring>
#include <deque>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/common/parse.hpp"
#include "magus/common/thread_annotations.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/core/runtime.hpp"
#include "magus/hw/file_counter.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/hw/linux_backend.hpp"
#include "magus/sim/engine.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/http_exporter.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"

namespace {

using namespace magus;

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

int usage() {
  std::cerr << "usage:\n"
            << "  magus-daemon --simulate [--app unet]\n"
            << "               [--metrics-port N] [--events-out file]\n"
            << "  magus-daemon --fleet --metrics-port N [--jobs N] [--events-out file]\n"
            << "  magus-daemon --throughput-file <path> [--interval 0.2]\n"
            << "               [--min-ghz 0.8] [--max-ghz 2.2] [--sockets 0,40] "
               "[--dry-run]\n"
            << "               [--metrics-port N] [--events-out file]\n"
            << "               [--max-sample-failures N]\n";
  return 1;
}

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw common::ConfigError(std::string("expected flag, got '") + argv[i] + "'");
    }
    const std::string key = argv[i] + 2;
    if (key == "simulate" || key == "dry-run" || key == "fleet") {
      // Move-assign a temporary: GCC 12 at -O3 misreports the const char*
      // assignment here as an overlapping memcpy (-Werror=restrict).
      flags[key] = std::string("1");
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    } else {
      throw common::ConfigError("flag --" + key + " needs a value");
    }
  }
  return flags;
}

/// Rejects any flag the selected mode does not read (a typo such as
/// `--metrics-prot` must not silently run without an exporter). The first
/// known flag names the mode.
void check_flags(const std::map<std::string, std::string>& flags,
                 std::initializer_list<std::string_view> known) {
  for (const auto& [name, value] : flags) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      throw common::ConfigError("--" + name + ": unknown flag for magus-daemon --" +
                                std::string(*known.begin()));
    }
  }
}

/// An integer flag in [lo, hi]; a bad value is a ConfigError naming the flag
/// ("--jobs: invalid finite number 'abc'").
int int_flag(const std::map<std::string, std::string>& flags, const std::string& name,
             int lo, int hi) {
  return common::parse_named("--" + name, flags.at(name), [lo, hi](const std::string& v) {
    return common::parse_int_in_range(v, lo, hi);
  });
}

std::vector<int> parse_cpu_list(const std::string& s) {
  const std::vector<int> cpus = common::parse_int_list(s);
  for (int cpu : cpus) {
    if (cpu < 0) {
      throw common::ConfigError("--sockets: cpu id must be >= 0, got " +
                                std::to_string(cpu));
    }
  }
  return cpus;
}

/// Shared observability plumbing for both modes.
struct Telemetry {
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events;
  std::unique_ptr<telemetry::HttpExporter> exporter;
  std::string events_out;

  explicit Telemetry(const std::map<std::string, std::string>& flags) {
    if (flags.count("events-out")) events_out = flags.at("events-out");
    common::default_pool().attach_telemetry(registry);
    if (flags.count("metrics-port")) {
      const int port = int_flag(flags, "metrics-port", 0, 65535);
      exporter = std::make_unique<telemetry::HttpExporter>(
          registry, static_cast<std::uint16_t>(port));
      std::cout << "[magus-daemon] serving /metrics and /healthz on port "
                << exporter->port() << "\n";
    }
  }

  ~Telemetry() {
    // The shared pool outlives this registry; detach before it is destroyed.
    common::default_pool().attach_telemetry(telemetry::null_registry());
  }

  void flush_events() {
    if (!events_out.empty() && events.size() > 0) events.flush_to_file(events_out);
  }

  /// Keep the exporter reachable after the workload finishes so scrapers
  /// (and the CI smoke test) can read the final state.
  void linger() {
    if (!exporter) return;
    std::cout << "[magus-daemon] still serving /metrics on port " << exporter->port()
              << "; SIGINT/SIGTERM to exit\n";
    while (!g_stop) ::usleep(100'000);
  }
};

/// Restores the uncore max-ratio limit on destruction, so an unhandled
/// exception (not just a clean signal exit) can no longer leave the machine
/// pinned at a lowered uncore ceiling.
class UncoreRestoreGuard {
 public:
  UncoreRestoreGuard(hw::IMsrDevice& msr, const hw::UncoreFreqLadder& ladder, bool armed)
      : msr_(msr), ladder_(ladder), armed_(armed) {}
  UncoreRestoreGuard(const UncoreRestoreGuard&) = delete;
  UncoreRestoreGuard& operator=(const UncoreRestoreGuard&) = delete;
  ~UncoreRestoreGuard() {
    if (!armed_) return;
    try {
      hw::UncoreFreqController restore(msr_, ladder_);
      restore.set_max_ghz_all(ladder_.max_ghz());
      std::cerr << "[magus-daemon] uncore max limit restored to " << ladder_.max_ghz()
                << " GHz\n";
    } catch (...) {
      std::cerr << "[magus-daemon] WARNING: failed to restore uncore max limit\n";
    }
  }

 private:
  hw::IMsrDevice& msr_;
  const hw::UncoreFreqLadder& ladder_;
  bool armed_;
};

/// One-at-a-time fleet job executor behind the HTTP exporter: POST
/// /fleet/jobs enqueues a validated manifest, a background worker simulates
/// it on the shared pool, GET /fleet/status reports live progress.
class FleetService {
 public:
  FleetService(telemetry::MetricsRegistry& reg, telemetry::EventLog* events)
      : registry_(reg), events_(events) {
    m_jobs_submitted_ = reg.counter("magus_fleet_jobs_submitted_total",
                                    "Fleet jobs accepted over HTTP");
    m_jobs_completed_ = reg.counter("magus_fleet_jobs_completed_total",
                                    "Fleet jobs simulated to completion");
    m_jobs_failed_ = reg.counter("magus_fleet_jobs_failed_total",
                                 "Fleet jobs that threw during simulation");
    worker_ = std::thread([this] { work_loop(); });
  }

  ~FleetService() { stop(); }
  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  void attach(telemetry::HttpExporter& http) {
    http.add_route("POST", "/fleet/jobs", [this](const telemetry::HttpRequest& req) {
      return submit(req);
    });
    http.add_route("GET", "/fleet/status", [this](const telemetry::HttpRequest&) {
      return status();
    });
  }

  void stop() MAGUS_EXCLUDES(mutex_) {
    {
      const common::LockGuard lock(mutex_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  /// True while a job is queued or running (lets the daemon drain on exit).
  [[nodiscard]] bool busy() MAGUS_EXCLUDES(mutex_) {
    const common::LockGuard lock(mutex_);
    return !queue_.empty() || state_ == "running";
  }

 private:
  struct Job {
    std::uint64_t id = 0;
    fleet::FleetManifest manifest;
  };

  /// The documented POST /fleet/jobs query keys.
  static constexpr std::array<std::string_view, 8> kQueryKeys = {
      "nodes", "seed", "fault_rate", "fault_seed", "power_budget", "budget_epoch",
      "policy", "power_cap"};

  /// key=value pairs separated by '&' (the first occurrence of a key wins);
  /// values are plain numbers or policy names, so no percent-decoding is
  /// needed. A key outside kQueryKeys is a ConfigError naming it (HTTP 400).
  static std::map<std::string, std::string> parse_query(const std::string& query) {
    std::map<std::string, std::string> params;
    std::size_t pos = 0;
    while (pos < query.size()) {
      std::size_t amp = query.find('&', pos);
      if (amp == std::string::npos) amp = query.size();
      const std::string pair = query.substr(pos, amp - pos);
      pos = amp + 1;
      if (pair.empty()) continue;
      const std::size_t eq = pair.find('=');
      const std::string key = pair.substr(0, eq);
      if (std::find(kQueryKeys.begin(), kQueryKeys.end(), key) == kQueryKeys.end()) {
        throw common::ConfigError("unknown query parameter '" + key + "'");
      }
      params.emplace(key, eq == std::string::npos ? "" : pair.substr(eq + 1));
    }
    return params;
  }

  // Numeric query parameters go through the strict parsers, so a bad value
  // is a ConfigError naming the parameter (and an HTTP 400), never a foreign
  // exception.
  static std::uint64_t u64_param(const std::string& key, const std::string& value) {
    return common::parse_named(key, value, common::parse_u64);
  }
  static double real_param(const std::string& key, const std::string& value) {
    return common::parse_named(key, value, common::parse_finite_double);
  }

  telemetry::HttpResponse submit(const telemetry::HttpRequest& req) MAGUS_EXCLUDES(mutex_) {
    telemetry::HttpResponse res;
    fleet::FleetManifest manifest;
    try {
      const std::map<std::string, std::string> params = parse_query(req.query);
      // An absent key reads as "" (as does `key=`): the default applies.
      auto query_param = [&params](const std::string& key) {
        const auto it = params.find(key);
        return it == params.end() ? std::string() : it->second;
      };
      if (!req.body.empty()) {
        manifest = fleet::FleetManifest::from_jsonl(req.body);
      } else {
        const std::string nodes = query_param("nodes");
        if (nodes.empty()) {
          res.status = 400;
          res.body = "POST a fleet manifest (JSONL) or pass ?nodes=N[&seed=S]\n";
          return res;
        }
        const std::string seed = query_param("seed");
        manifest = fleet::synth_fleet(common::parse_named("nodes", nodes, common::parse_int),
                                      seed.empty() ? 2025 : u64_param("seed", seed));
      }
      // Fault weather applies to posted manifests too: query params override
      // whatever the manifest carries.
      const std::string fault_rate = query_param("fault_rate");
      if (!fault_rate.empty()) manifest.fault_rate(real_param("fault_rate", fault_rate));
      const std::string fault_seed = query_param("fault_seed");
      if (!fault_seed.empty()) manifest.fault_seed(u64_param("fault_seed", fault_seed));
      // Power budgeting, same override contract: ?power_budget=W water-fills
      // a global budget per ?budget_epoch=S of simulated time; ?policy=NAME
      // and ?power_cap=W rewrite every node, so a stored fleet can be
      // replayed under a cap-aware comparator.
      const std::string power_budget = query_param("power_budget");
      if (!power_budget.empty()) {
        manifest.power_budget_w(real_param("power_budget", power_budget));
      }
      const std::string budget_epoch = query_param("budget_epoch");
      if (!budget_epoch.empty()) {
        manifest.budget_epoch_s(real_param("budget_epoch", budget_epoch));
      }
      const std::string policy = query_param("policy");
      const std::string power_cap = query_param("power_cap");
      if (!policy.empty() || !power_cap.empty()) {
        const double cap_w = power_cap.empty() ? 0.0 : real_param("power_cap", power_cap);
        manifest.mutate_nodes([&](fleet::NodeSpec& node) {
          if (!policy.empty()) node.policy(policy);
          if (!power_cap.empty()) node.power_cap_w(cap_w);
        });
      }
      manifest.validate_or_throw();
    } catch (const common::Error& e) {
      res.status = 400;
      res.body = std::string(e.what()) + "\n";
      return res;
    }

    std::uint64_t id = 0;
    {
      const common::LockGuard lock(mutex_);
      id = next_job_id_++;
      queue_.push_back(Job{id, std::move(manifest)});
    }
    cv_.notify_one();
    telemetry::inc(m_jobs_submitted_);

    res.status = 202;
    res.content_type = "application/json";
    res.body = telemetry::Event(0.0, "fleet_job_queued")
                   .str("job", std::to_string(id))
                   .num("nodes", static_cast<double>(res_nodes(id)))
                   .to_json() +
               "\n";
    return res;
  }

  /// Total node count of the queued/running job `id` (0 if already gone).
  std::size_t res_nodes(std::uint64_t id) MAGUS_EXCLUDES(mutex_) {
    const common::LockGuard lock(mutex_);
    for (const Job& job : queue_) {
      if (job.id == id) return job.manifest.total_nodes();
    }
    return job_id_ == id ? nodes_total_ : 0;
  }

  telemetry::HttpResponse status() MAGUS_EXCLUDES(mutex_) {
    const common::LockGuard lock(mutex_);
    std::size_t completed = nodes_completed_;
    if (active_) completed = active_->nodes_completed();
    telemetry::Event ev(0.0, "fleet_status");
    ev.str("state", state_)
        .str("job", job_id_ ? std::to_string(job_id_) : "")
        .num("queued_jobs", static_cast<double>(queue_.size()))
        .num("nodes_total", static_cast<double>(nodes_total_))
        .num("nodes_completed", static_cast<double>(completed));
    if (!last_error_.empty()) ev.str("error", last_error_);
    telemetry::HttpResponse res;
    res.content_type = "application/json";
    res.body = ev.to_json() + "\n";
    if (!last_rollup_.empty()) res.body += last_rollup_;
    return res;
  }

  void work_loop() MAGUS_EXCLUDES(mutex_) {
    for (;;) {
      Job job;
      {
        common::UniqueLock lock(mutex_);
        while (!stopping_ && queue_.empty()) cv_.wait(lock);
        if (stopping_) return;
        job = std::move(queue_.front());
        queue_.pop_front();
        state_ = "running";
        job_id_ = job.id;
        nodes_total_ = job.manifest.total_nodes();
        nodes_completed_ = 0;
        last_error_.clear();
      }
      try {
        fleet::FleetRunner runner(std::move(job.manifest));
        // Registers magus_fleet_* families — takes the registry's
        // registration mutex. Deliberately outside the job lock: the
        // hierarchy says mutex_ -> registry mutex is the only legal nesting,
        // and here neither is held while the other is taken.
        runner.attach_telemetry(registry_, events_);
        {
          const common::LockGuard lock(mutex_);
          active_ = &runner;
        }
        const fleet::FleetResult result = runner.run();
        std::string rollup = result.header_jsonl();
        const common::LockGuard lock(mutex_);
        active_ = nullptr;
        state_ = "done";
        nodes_completed_ = result.nodes_total;
        last_rollup_ = std::move(rollup);
        telemetry::inc(m_jobs_completed_);
      } catch (const std::exception& e) {
        const common::LockGuard lock(mutex_);
        active_ = nullptr;
        state_ = "failed";
        last_error_ = e.what();
        telemetry::inc(m_jobs_failed_);
      }
    }
  }

  telemetry::MetricsRegistry& registry_;
  telemetry::EventLog* events_;
  telemetry::Counter* m_jobs_submitted_ = nullptr;
  telemetry::Counter* m_jobs_completed_ = nullptr;
  telemetry::Counter* m_jobs_failed_ = nullptr;

  /// Job-service lock. Lock hierarchy (DESIGN.md §14): when nested with the
  /// telemetry registration mutex, this one is taken FIRST — equivalently,
  /// never call a registry registration method with mutex_ held (updates
  /// through Counter*/Gauge* handles are atomic and lock-free, so they are
  /// fine under the lock). Today the nesting never actually happens
  /// (registration sites all run unlocked); the attribute pins the order so
  /// a future regression is a -Wthread-safety-beta diagnostic, not a
  /// deadlock hunt.
  common::AnnotatedMutex mutex_ MAGUS_ACQUIRED_BEFORE(registry_.registration_mutex());
  common::CondVar cv_;
  std::deque<Job> queue_ MAGUS_GUARDED_BY(mutex_);
  bool stopping_ MAGUS_GUARDED_BY(mutex_) = false;
  std::uint64_t next_job_id_ MAGUS_GUARDED_BY(mutex_) = 1;

  // Status snapshot (all guarded by mutex_). `active_` points at the
  // worker-stack runner only while run() executes; its atomic progress
  // counter is safe to read under the lock.
  std::string state_ MAGUS_GUARDED_BY(mutex_) = "idle";
  std::uint64_t job_id_ MAGUS_GUARDED_BY(mutex_) = 0;
  std::size_t nodes_total_ MAGUS_GUARDED_BY(mutex_) = 0;
  std::size_t nodes_completed_ MAGUS_GUARDED_BY(mutex_) = 0;
  std::string last_rollup_ MAGUS_GUARDED_BY(mutex_);
  std::string last_error_ MAGUS_GUARDED_BY(mutex_);
  fleet::FleetRunner* active_ MAGUS_GUARDED_BY(mutex_) = nullptr;

  std::thread worker_;
};

int run_fleet(const std::map<std::string, std::string>& flags) {
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (flags.count("jobs")) {
    const int jobs = int_flag(flags, "jobs", 1, static_cast<int>(common::kMaxWorkers));
    common::set_default_jobs(static_cast<std::size_t>(jobs));
  }

  Telemetry tel(flags);
  if (!tel.exporter) {
    throw common::ConfigError("--fleet needs --metrics-port (the job API is HTTP)");
  }

  FleetService service(tel.registry, &tel.events);
  service.attach(*tel.exporter);
  std::cout << "[magus-daemon] fleet service on port " << tel.exporter->port()
            << ": POST /fleet/jobs, GET /fleet/status, " << common::default_pool().size()
            << " worker(s); SIGINT/SIGTERM to exit\n";
  while (!g_stop) {
    ::usleep(100'000);
    tel.flush_events();
  }
  // Let an in-flight job finish so its rollup is not lost mid-simulation.
  while (service.busy()) ::usleep(100'000);
  service.stop();
  tel.flush_events();
  std::cout << "[magus-daemon] stopped\n";
  return 0;
}

int run_simulated(const std::map<std::string, std::string>& flags) {
  const std::string app = flags.count("app") ? flags.at("app") : "unet";
  std::cout << "[magus-daemon] simulation mode: app=" << app
            << " on intel_a100 (identical control loop, simulated backends)\n";

  // Install before the run so a signal during the simulation is not lost
  // (or fatal) and the linger loop below still exits promptly.
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  Telemetry tel(flags);

  sim::SimEngine engine(sim::intel_a100(), wl::make_workload(app));
  engine.attach_telemetry(tel.registry);
  const hw::UncoreFreqLadder ladder(0.8, 2.2);
  core::MagusRuntime magus(engine.mem_counter(), engine.msr(), ladder);
  magus.attach_telemetry(tel.registry, &tel.events);

  sim::PolicyHook hook;
  hook.name = magus.name();
  hook.period_s = magus.period_s();
  hook.on_start = [&](magus::common::Seconds t) { magus.on_start(t); };
  hook.on_sample = [&](magus::common::Seconds t) { magus.on_sample(t); };
  const auto result = engine.run(hook);

  for (const auto& rec : magus.controller().log()) {
    if (!rec.target) continue;
    std::cout << "  t=" << rec.t.value() << "s throughput=" << rec.throughput.value() / 1000.0
              << " GB/s" << (rec.high_freq ? " [high-freq]" : "") << " -> uncore "
              << rec.target->value() << " GHz\n";
  }
  std::cout << "[magus-daemon] app completed in " << result.duration_s << " s; "
            << result.invocations << " monitoring cycles, avg invocation "
            << result.avg_invocation_s() << " s\n";

  tel.flush_events();
  tel.linger();
  return 0;
}

int run_real(const std::map<std::string, std::string>& flags) {
  const auto caps = hw::probe_host();
  if (!caps.msr_dev) {
    std::cerr << "[magus-daemon] /dev/cpu/0/msr not accessible -- load the msr "
                 "module and run as root, or use --simulate\n";
    return 2;
  }

  auto real_flag = [&flags](const std::string& name, double fallback) {
    return flags.count(name) ? common::parse_named("--" + name, flags.at(name),
                                                   common::parse_finite_double)
                             : fallback;
  };
  const double interval = real_flag("interval", 0.2);
  const double min_ghz = real_flag("min-ghz", 0.8);
  const double max_ghz = real_flag("max-ghz", 2.2);
  const int max_failures =
      flags.count("max-sample-failures")
          ? int_flag(flags, "max-sample-failures", 1, std::numeric_limits<int>::max())
          : 25;
  const std::vector<int> cpus =
      flags.count("sockets") ? parse_cpu_list(flags.at("sockets")) : std::vector<int>{0};

  Telemetry tel(flags);

  hw::FileMemThroughputCounter counter(flags.at("throughput-file"));
  hw::LinuxMsrDevice msr(cpus);
  const hw::UncoreFreqLadder ladder(min_ghz, max_ghz);
  core::MagusConfig cfg;
  cfg.period = common::Seconds(interval);
  cfg.scaling_enabled = !flags.count("dry-run");
  core::MagusRuntime magus(counter, msr, ladder, cfg);
  magus.attach_telemetry(tel.registry, &tel.events);
  // On real hardware a retry should actually back off (the simulator leaves
  // this hook unset so virtual time never stalls).
  magus.set_backoff_sleeper([](common::Seconds delay) {
    ::usleep(static_cast<useconds_t>(delay.value() * 1e6));
  });

  telemetry::Counter* failures_total = tel.registry.counter(
      "magus_daemon_sample_failures_total", "Sample cycles that raised a DeviceError");
  telemetry::Gauge* consecutive_failures =
      tel.registry.gauge("magus_daemon_consecutive_sample_failures",
                         "Current run of back-to-back failed samples");

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // Armed before the first MSR write; covers signals AND exceptions.
  UncoreRestoreGuard restore_guard(msr, ladder, cfg.scaling_enabled);

  std::cout << "[magus-daemon] running: interval=" << interval << "s, ladder ["
            << ladder.min_ghz() << ", " << ladder.max_ghz() << "] GHz, "
            << cpus.size() << " socket(s)" << (cfg.scaling_enabled ? "" : " (dry run)")
            << "\n";

  double now = 0.0;
  int consecutive = 0;
  magus.on_start(magus::common::Seconds(now));
  while (!g_stop) {
    ::usleep(static_cast<useconds_t>(interval * 1e6));
    now += interval;
    try {
      magus.on_sample(magus::common::Seconds(now));
      consecutive = 0;
    } catch (const common::DeviceError& e) {
      ++consecutive;
      telemetry::inc(failures_total);
      tel.events.emit(telemetry::Event(now, "device_read_failure")
                          .str("what", e.what())
                          .num("consecutive", consecutive));
      if (consecutive >= max_failures) {
        std::cerr << "[magus-daemon] " << consecutive
                  << " consecutive sample failures (last: " << e.what()
                  << "); giving up\n";
        telemetry::set(consecutive_failures, consecutive);
        tel.flush_events();
        return 3;
      }
      std::cerr << "[magus-daemon] sample failed (" << e.what() << "); retrying ("
                << consecutive << "/" << max_failures << ")\n";
    }
    telemetry::set(consecutive_failures, consecutive);
    tel.flush_events();
  }
  std::cout << "[magus-daemon] stopped\n";
  tel.flush_events();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto flags = parse_flags(argc, argv);
    if (flags.count("simulate")) {
      check_flags(flags, {"simulate", "app", "metrics-port", "events-out"});
      return run_simulated(flags);
    }
    if (flags.count("fleet")) {
      check_flags(flags, {"fleet", "metrics-port", "jobs", "events-out"});
      return run_fleet(flags);
    }
    if (flags.count("throughput-file")) {
      check_flags(flags, {"throughput-file", "interval", "min-ghz", "max-ghz", "sockets",
                          "dry-run", "metrics-port", "events-out", "max-sample-failures"});
      return run_real(flags);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
