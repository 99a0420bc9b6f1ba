// perfbench: the host cost of simulating the paper's workloads.
//
//   perfbench --workload fig4|mesh100|parsim --seed N --seconds S
//             --trace 0|1 [--spans PATH] [--violate]
//
// --trace 0 first times set-up alone for a twentieth of S, in a child
// forked from the fresh process; then, after one untimed warm-up
// iteration on fixed inputs, it repeats whole iterations (set-up,
// simulated span, result extraction) until S host seconds have passed,
// each in a child forked from the same warmed-up heap, and reports the
// medians of the end-to-end metrics. --trace 1
// warms up the same way, then runs an untraced and a traced iteration per
// input variant in this process (for parsim also the parallel arm) for S
// seconds and reports the per-layer metrics; the first traced
// iteration's spans go to PATH as JSON lines.
// Either way every iteration's correctness checks run, and the last line
// of stdout is one JSON object with the metric values, the request
// counts, the checks and the sim_digest. run.py builds this binary and
// turns that object into the benchmark's result.

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "trace.h"
#include "util/json.h"
#include "workloads.h"

namespace {

using perfbench::Iteration;
using perfbench::Options;

/// setup_s is the median of set-up-only repetitions made first, for this
/// share of the run's seconds (at least kMinSetupSamples of them).
constexpr double kSetupShare = 0.05;
constexpr std::size_t kMinSetupSamples = 7;
constexpr std::size_t kMaxSetupSamples = 100000;
/// A run cycles through this many input variants derived from its seed,
/// at least once each, so its medians span several inputs: host cost
/// differs between inputs more than the simulated work does (fig4's page
/// faults, which follow glibc's heap layout, by 2x between two inputs).
constexpr std::size_t kVariants = 16;
/// Seed of the warm-up iteration every run starts with.
constexpr std::uint64_t kWarmupSeed = 0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans;
  bool violate = false;
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig4|mesh100|parsim --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--violate]\n",
               problem.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--violate") {
      args.violate = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0') args.seconds = 0.0;
    } else if (flag == "--trace") {
      args.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--spans") {
      args.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  if (args.trace < 0) usage("--trace must be 0 or 1");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

template <typename Fn>
double median_of(const std::vector<Iteration>& its, Fn&& fn) {
  std::vector<double> values;
  for (const Iteration& it : its) values.push_back(fn(it));
  return median(values);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double run_s(const Iteration& it) { return it.run.wall_s; }

/// The per-layer metrics of a traced run. Counts are deterministic and
/// read from the first traced iteration; host ratios are medians over the
/// untraced iterations, so the window reads do not inflate them; window
/// times come from the traced iterations.
std::map<std::string, double> per_layer(
    const std::vector<Iteration>& untraced,
    const std::vector<Iteration>& traced,
    const std::vector<Iteration>& parallel) {
  using namespace perfbench;
  const Iteration& t = traced.front();
  const Counters& all = t.all;
  const auto n = [&](CounterId id) { return static_cast<double>(all[id]); };
  std::vector<double> windows;
  for (const Iteration& it : traced) {
    windows.insert(windows.end(), it.window_ms.begin(), it.window_ms.end());
  }

  std::map<std::string, double> m;
  m["sim.events"] = n(kEvents);
  m["sim.ns_per_event"] = median_of(untraced, [](const Iteration& it) {
    return ratio(it.run.wall_s * 1e9,
                 static_cast<double>(it.in_run[kEvents]));
  });
  m["sim.task_heap_alloc_ratio"] = ratio(n(kTaskHeapAllocs), n(kEvents));
  m["sim.cancel_ratio"] = ratio(n(kCancelled), n(kScheduled));
  m["sim.max_queue_depth"] = static_cast<double>(t.max_queue_depth);
  m["sim.window_host_ms_p50"] = median(windows);
  m["sim.window_host_ms_max"] =
      windows.empty() ? 0.0 : *std::max_element(windows.begin(), windows.end());

  m["host.allocs_per_event"] = median_of(untraced, [](const Iteration& it) {
    return ratio(static_cast<double>(it.run.allocs),
                 static_cast<double>(it.in_run[kEvents]));
  });
  m["host.sys_share"] = median_of(untraced, [](const Iteration& it) {
    return ratio(it.run.sys_s, it.run.cpu_s());
  });
  m["host.minflt"] = median_of(untraced, [](const Iteration& it) {
    return static_cast<double>(it.run.minflt);
  });

  m["net.packets"] = n(kPackets);
  m["net.bytes"] = n(kBytes);
  m["net.payload_pool_miss_ratio"] =
      ratio(n(kPoolMisses), n(kPoolHits) + n(kPoolMisses));
  m["net.payload_unpooled"] = n(kPoolUnpooled);
  m["net.bottleneck_util"] = t.model_value("net.bottleneck_util");
  m["net.qdisc_drops"] = n(kQdiscDrops);

  m["transport.connections"] = n(kConnections);
  m["transport.segments"] = n(kSegments);
  m["transport.retransmit_ratio"] = ratio(n(kRetransmits), n(kSegments));

  m["mesh.requests"] = n(kMeshRequests);
  m["mesh.retries"] = n(kMeshRetries);
  m["mesh.host_us_per_request"] = median_of(untraced, [](const Iteration& it) {
    return ratio(it.run.wall_s * 1e6,
                 static_cast<double>(it.in_run[kMeshRequests]));
  });

  m["tls.handshakes_full"] = n(kTlsFull);
  m["tls.handshakes_resumed"] = n(kTlsResumed);
  m["tls.resume_ratio"] = ratio(n(kTlsResumed), n(kTlsFull) + n(kTlsResumed));
  m["tls.records"] = n(kTlsRecords);

  m["cp.pushes"] = n(kCpPushes);
  m["cp.push_kb"] = n(kCpPushBytes) / 1024.0;
  m["cp.noop_skip_ratio"] = ratio(n(kCpSkipped), n(kCpSkipped) + n(kCpAttempts));

  m["core.classified"] = t.model_value("core.classified");
  m["core.high_band_share"] = t.model_value("core.high_band_share");

  m["setup.build_s"] =
      median_of(untraced, [](const Iteration& it) { return it.build_s; });
  m["setup.install_s"] =
      median_of(untraced, [](const Iteration& it) { return it.install_s; });
  m["setup.converge_s"] =
      median_of(untraced, [](const Iteration& it) { return it.converge_s; });
  m["cluster.endpoints_per_sidecar"] =
      t.model_value("cluster.endpoints_per_sidecar");

  m["obs.snapshot_ms"] =
      median_of(untraced, [](const Iteration& it) { return it.snapshot_ms; });

  m["parallel.epochs"] = t.model_value("parallel.epochs");
  m["parallel.messages"] = t.model_value("parallel.messages");
  m["parallel.events_per_shard_epoch"] =
      t.model_value("parallel.events_per_shard_epoch");
  m["parallel.speedup"] =
      parallel.empty()
          ? 0.0
          : ratio(median_of(untraced, run_s), median_of(parallel, run_s));

  m["model.ls_p50_sim_ms"] = t.model_value("model.ls_p50_sim_ms");
  m["model.ls_p99_sim_ms"] = t.model_value("model.ls_p99_sim_ms");
  m["model.li_p99_sim_ms"] = t.model_value("model.li_p99_sim_ms");

  m["trace.overhead"] =
      ratio(median_of(traced, run_s), median_of(untraced, run_s));
  return m;
}

char hex_digit(unsigned v) { return "0123456789abcdef"[v & 0xfu]; }

std::string hex(std::uint64_t v) {
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = hex_digit(static_cast<unsigned>(v));
  }
  return out;
}

/// The fields of a forked iteration that the end-to-end metrics and the
/// checks use, as they cross the pipe from the child.
meshnet::util::Json to_json(const Iteration& it) {
  using meshnet::util::Json;
  Json out = Json::object();
  out.set("build_s", it.build_s);
  out.set("install_s", it.install_s);
  out.set("converge_s", it.converge_s);
  out.set("wall_s", it.run.wall_s);
  out.set("user_s", it.run.user_s);
  out.set("sys_s", it.run.sys_s);
  out.set("minflt", it.run.minflt);
  out.set("allocs", it.run.allocs);
  out.set("attempted", it.attempted);
  out.set("failed", it.failed);
  out.set("digest", hex(it.digest));
  Json checks = Json::object();
  for (const perfbench::Check& check : it.checks) checks.set(check.name, check.ok);
  out.set("checks", std::move(checks));
  return out;
}

Iteration from_json(const meshnet::util::Json& in) {
  const auto number = [&](const char* key) {
    const meshnet::util::Json* value = in.find(key);
    return value != nullptr ? value->number_or(0.0) : 0.0;
  };
  Iteration it;
  it.build_s = number("build_s");
  it.install_s = number("install_s");
  it.converge_s = number("converge_s");
  it.run.wall_s = number("wall_s");
  it.run.user_s = number("user_s");
  it.run.sys_s = number("sys_s");
  it.run.minflt = static_cast<std::int64_t>(number("minflt"));
  it.run.allocs = static_cast<std::uint64_t>(number("allocs"));
  it.attempted = static_cast<std::uint64_t>(number("attempted"));
  it.failed = static_cast<std::uint64_t>(number("failed"));
  if (const meshnet::util::Json* digest = in.find("digest")) {
    it.digest = std::strtoull(digest->string_or("").c_str(), nullptr, 16);
  }
  if (const meshnet::util::Json* checks = in.find("checks")) {
    for (const auto& [name, ok] : checks->members()) {
      it.checks.push_back({name, ok.bool_or(false)});
    }
  }
  return it;
}

struct Forked {
  Iteration it;
  double peak_rss_mb = 0.0;  ///< the child's own high-water mark
};

bool read_exact(int fd, void* data, std::size_t size) {
  auto* bytes = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = read(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_exact(int fd, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = write(fd, bytes, size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Runs `body` in a child forked from this process and returns the value
/// it returns. The value crosses a pipe as raw bytes, so this process
/// allocates nothing and keeps nothing `body` allocated. Exits the program
/// if the child fails.
template <typename T, typename Body>
T in_child(Body&& body) {
  static_assert(std::is_trivially_copyable_v<T>);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no process behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(1);
    close(fds[0]);
    const T value = body();
    _exit(write_exact(fds[1], &value, sizeof value) ? 0 : 1);
  }
  close(fds[1]);
  T value{};
  const bool ok = read_exact(fds[0], &value, sizeof value);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: forked child failed\n");
    std::exit(1);
  }
  return value;
}

/// Forks the timed iterations, each from the same allocator state. One
/// server process is forked right after the warm-up; for every iteration
/// it forks a child that runs the iteration, waits for it and reports its
/// resident high-water mark. The server allocates nothing after it
/// starts, so every child inherits the same warmed-up heap. glibc's mmap
/// and trim thresholds adapt to each large block freed: iterations run in
/// one process carried them over and made fig4's page faults on one input
/// vary 4x, and children forked from this process, whose heap moves a
/// little with each result it collects, still varied by a third.
class IterationServer {
 public:
  IterationServer(const std::string& workload, const Options& options) {
    int request[2], result[2], reply[2];
    if (pipe(request) != 0 || pipe(result) != 0 || pipe(reply) != 0) {
      std::perror("perfbench: pipe");
      std::exit(1);
    }
    std::fflush(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) {
      std::perror("perfbench: fork");
      std::exit(1);
    }
    if (pid_ == 0) {
      // Die with the parent, so a killed run leaves no process behind.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(1);
      close(request[1]);
      close(result[0]);
      close(reply[0]);
      serve(workload, options, request[0], result[1], reply[1]);
    }
    close(request[0]);
    close(result[1]);
    close(reply[1]);
    request_fd_ = request[1];
    result_fd_ = result[0];
    reply_fd_ = reply[0];
  }

  IterationServer(const IterationServer&) = delete;
  IterationServer& operator=(const IterationServer&) = delete;

  /// Closing the request pipe ends the server; waits until it has.
  ~IterationServer() { stop(); }

  /// Runs one iteration on `seed`. Exits the program if it fails.
  Forked run(std::uint64_t seed) {
    Reply reply{};
    std::uint64_t size = 0;
    std::string text;
    bool ok = write_exact(request_fd_, &seed, sizeof seed) &&
              read_exact(reply_fd_, &reply, sizeof reply) && reply.ok &&
              read_exact(result_fd_, &size, sizeof size);
    if (ok) {
      text.resize(size);
      ok = read_exact(result_fd_, text.data(), text.size());
    }
    const std::optional<meshnet::util::Json> json =
        ok ? meshnet::util::Json::parse(text) : std::nullopt;
    if (!json) {
      std::fprintf(stderr, "perfbench: forked iteration failed\n");
      kill(pid_, SIGKILL);
      stop();
      std::exit(1);
    }
    return Forked{from_json(*json),
                  static_cast<double>(reply.max_rss_kb) / 1024.0};
  }

 private:
  struct Reply {
    bool ok;
    long max_rss_kb;
  };

  /// The server's loop: reads a seed, forks the iteration's child, waits
  /// for it. The child writes its result, size first, straight to the
  /// parent; it is far smaller than a pipe's buffer, so the child never
  /// blocks on it while the parent waits for the reply.
  [[noreturn]] static void serve(const std::string& workload,
                                 const Options& options, int request_fd,
                                 int result_fd, int reply_fd) {
    const pid_t server = getpid();
    for (;;) {
      std::uint64_t seed = 0;
      if (!read_exact(request_fd, &seed, sizeof seed)) _exit(0);
      const pid_t pid = fork();
      if (pid < 0) _exit(1);
      if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != server) _exit(1);
        Options o = options;
        o.seed = seed;
        const std::string text =
            to_json(perfbench::run_workload(workload, o, nullptr)).dump();
        const std::uint64_t size = text.size();
        _exit(write_exact(result_fd, &size, sizeof size) &&
                      write_exact(result_fd, text.data(), text.size())
                  ? 0
                  : 1);
      }
      int status = 0;
      rusage usage{};
      while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
      }
      const Reply reply{WIFEXITED(status) && WEXITSTATUS(status) == 0,
                        usage.ru_maxrss};  // KiB
      if (!write_exact(reply_fd, &reply, sizeof reply)) _exit(1);
    }
  }

  void stop() {
    if (pid_ < 0) return;
    close(request_fd_);
    close(result_fd_);
    close(reply_fd_);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int request_fd_ = -1;
  int result_fd_ = -1;
  int reply_fd_ = -1;
};

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  Options options;
  options.violate = args.violate;
  // Iteration i simulates variant i % kVariants of the run's inputs.
  const auto variant = [&](std::size_t i) {
    Options o = options;
    o.seed = args.seed * kVariants + i % kVariants;
    return o;
  };
  const auto run = [&](const Options& o, perfbench::SpanLog* log) {
    return perfbench::run_workload(args.workload, o, log);
  };

  std::vector<Iteration> untraced;
  std::vector<Iteration> traced;
  std::vector<Iteration> parallel;  ///< parsim on parallel_threads()
  const bool has_parallel_arm =
      args.workload == "parsim" && perfbench::parallel_threads() > 1;
  const auto run_parallel_arm = [&](std::size_t i) {
    Options o = variant(i);
    o.threads = perfbench::parallel_threads();
    return run(o, nullptr);
  };
  std::vector<double> peak_rss;
  const double start = perfbench::wall_now();
  const auto time_left = [&] {
    return perfbench::wall_now() - start < args.seconds;
  };
  // Set-up repetitions come first, while the heap is still fresh, so
  // every run times them from the same starting state. They run in a
  // child: how many fit in the time varies, and so would the heap they
  // leave to the warm-up, which every timed iteration inherits.
  struct SetupTimes {
    double median_s = 0.0;
    bool ok = true;
  };
  SetupTimes setup;
  if (args.trace == 0) {
    setup = in_child<SetupTimes>([&] {
      Options setup_only = variant(0);
      setup_only.setup_only = true;
      std::vector<double> samples;
      SetupTimes times;
      while (samples.size() < kMaxSetupSamples &&
             (samples.size() < kMinSetupSamples ||
              perfbench::wall_now() - start < kSetupShare * args.seconds)) {
        const Iteration it = run(setup_only, nullptr);
        samples.push_back(it.setup_s());
        times.ok = times.ok && it.checks_pass();
      }
      times.median_s = median(samples);
      return times;
    });
  }
  // Warm-up: one untimed iteration on fixed inputs, so first-use costs
  // (allocator arenas and thresholds, page-ins) land outside the timing.
  Options warmup = options;
  warmup.seed = kWarmupSeed;
  const Iteration warmed = run(warmup, nullptr);

  if (args.trace == 0) {
    IterationServer server(args.workload, options);
    // Untimed, and first, so that it comes out of the run's seconds: only
    // its digests are used, for the thread-count check.
    for (std::size_t i = 0; i < kVariants && has_parallel_arm; ++i) {
      parallel.push_back(run_parallel_arm(i));
    }
    for (std::size_t i = 0; i < kVariants || time_left(); ++i) {
      Forked forked = server.run(variant(i).seed);
      // Per-iteration host cost, for judging a run's steadiness.
      std::fprintf(stderr,
                   "perfbench: iteration %zu variant %zu: wall %.4f s, user "
                   "%.4f s, sys %.4f s, minflt %lld, peak rss %.3f MB\n",
                   i, i % kVariants, forked.it.run.wall_s,
                   forked.it.run.user_s, forked.it.run.sys_s,
                   static_cast<long long>(forked.it.run.minflt),
                   forked.peak_rss_mb);
      untraced.push_back(std::move(forked.it));
      peak_rss.push_back(forked.peak_rss_mb);
    }
  } else {
    std::optional<perfbench::SpanLog> first_log;
    for (std::size_t i = 0; i < kVariants || time_left(); ++i) {
      untraced.push_back(run(variant(i), nullptr));
      perfbench::SpanLog log(args.workload);
      traced.push_back(run(variant(i), &log));
      if (!first_log) first_log.emplace(std::move(log));
      if (has_parallel_arm) parallel.push_back(run_parallel_arm(i));
    }
    if (!args.spans.empty() && !first_log->write(args.spans)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans.c_str());
      return 1;
    }
  }

  // A failed check fails every request of its iteration. Every iteration
  // of one variant must reproduce that variant's digest, traced or not;
  // the parallel arm must reproduce the 1-thread digest (the workload
  // surface may not depend on thread count). Otherwise the whole run fails.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = warmed.checks_pass() && setup.ok;
  std::map<std::string, bool> checks;
  std::vector<std::uint64_t> digests;
  bool digest_stable = true;
  bool thread_invariant = true;
  for (const auto* group : {&untraced, &traced, &parallel}) {
    for (std::size_t i = 0; i < group->size(); ++i) {
      const Iteration& it = (*group)[i];
      attempted += it.attempted;
      failed += it.checks_pass() ? it.failed : it.attempted;
      correct = correct && it.checks_pass();
      for (const perfbench::Check& check : it.checks) {
        auto [entry, inserted] = checks.emplace(check.name, check.ok);
        if (!inserted) entry->second = entry->second && check.ok;
      }
      if (digests.size() < kVariants) digests.push_back(it.digest);
      const bool same = it.digest == digests[i % kVariants];
      if (group == &parallel) {
        thread_invariant = thread_invariant && same;
      } else {
        digest_stable = digest_stable && same;
      }
    }
  }
  checks["sim_digest.stable"] = digest_stable;
  if (!parallel.empty()) checks["parsim.thread_invariant"] = thread_invariant;
  if (!digest_stable || !thread_invariant) {
    correct = false;
    failed = attempted;
  }
  perfbench::Digest run_digest;
  for (const std::uint64_t d : digests) run_digest.add(d);

  std::map<std::string, double> metrics;
  if (args.trace == 0) {
    metrics["setup_s"] = setup.median_s;
    metrics["run_s"] = median_of(untraced, run_s);
    metrics["cpu_s"] =
        median_of(untraced, [](const Iteration& it) { return it.run.cpu_s(); });
    metrics["peak_rss_mb"] = median(peak_rss);
  } else {
    metrics = per_layer(untraced, traced, parallel);
  }

  using meshnet::util::Json;
  Json out = Json::object();
  out.set("workload", args.workload);
  out.set("seed", args.seed);
  out.set("parallel_threads",
          has_parallel_arm ? perfbench::parallel_threads() : 0);
  out.set("iterations", static_cast<std::uint64_t>(untraced.size() +
                                                   traced.size() +
                                                   parallel.size()));
  out.set("correct", correct);
  out.set("attempted", attempted);
  out.set("failed", failed);
  out.set("sim_digest", hex(run_digest.value()));
  Json check_json = Json::object();
  for (const auto& [name, ok] : checks) check_json.set(name, ok);
  out.set("checks", std::move(check_json));
  Json metric_json = Json::object();
  for (const auto& [name, value] : metrics) metric_json.set(name, value);
  out.set("metrics", std::move(metric_json));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
