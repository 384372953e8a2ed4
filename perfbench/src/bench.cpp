// perfbench: the repository benchmark. One process runs one named workload
// from a seed, checks every output against a reference, and prints one JSON
// result line. It measures the library from outside only: it times calls
// into public functions and reads public counters.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>] [--git-sha <sha>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 re-runs the workload
// with a span trace and reports the per-layer metrics derived from it (plus
// the tracing overhead). See perfbench/README.md for every metric.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/optimizer.hpp"
#include "kernels/dispatch.hpp"
#include "models/metrics.hpp"
#include "ops/lookup.hpp"
#include "runtime/request_queue.hpp"
#include "serialize/artifact.hpp"
#include "serving/load_control.hpp"
#include "serving/server.hpp"
#include "workloads/music.hpp"
#include "workloads/workload.hpp"

#include "measure.hpp"
#include "trace.hpp"

using namespace willump;
namespace pb = perfbench;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

void pause_cpu() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Busy-wait until `t_ns`. The dispatcher never sleeps: on a virtual
/// machine an idle CPU can take milliseconds to be rescheduled, which would
/// make the generator, not the system, late.
void wait_until_ns(std::int64_t t_ns) {
  while (now_ns() < t_ns) pause_cpu();
}

/// CPU placement: the dispatcher gets one CPU of its own and the server's
/// workers (which inherit the mask of the thread that creates the server)
/// get the rest, so the spinning generator never competes with the engine.
struct CpuPlan {
  bool ok = false;
  cpu_set_t dispatcher, workers;
};

CpuPlan plan_cpus() {
  CpuPlan p;
  cpu_set_t all;
  CPU_ZERO(&all);
  if (sched_getaffinity(0, sizeof all, &all) != 0 || CPU_COUNT(&all) < 2) {
    return p;
  }
  CPU_ZERO(&p.dispatcher);
  CPU_ZERO(&p.workers);
  bool first = true;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &all)) continue;
    CPU_SET(c, first ? &p.dispatcher : &p.workers);
    first = false;
  }
  p.ok = true;
  return p;
}

const CpuPlan& cpus() {
  static const CpuPlan plan = plan_cpus();
  return plan;
}

void pin_self(bool dispatcher) {
  if (!cpus().ok) return;
  const cpu_set_t& set = dispatcher ? cpus().dispatcher : cpus().workers;
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

// ---------------------------------------------------------------------------
// Fixed workload parameters (perfbench/README.md lists them per workload).
// ---------------------------------------------------------------------------

constexpr std::size_t kSetupRepeats = 9;     // setup_s is their median
constexpr std::size_t kWorkers = 3;          // + 1 dispatcher = 4 threads
constexpr double kLateLimitUs = 200.0;       // median generator lateness bound
constexpr std::size_t kTopK = 100;          // K of the top-K layer replay
constexpr double kTopKPrecisionFloor = 0.9;  // top_k vs exact full-model top-K
constexpr std::size_t kWindows = 5;  // latency/throughput reported as the
                                     // median over this many windows
constexpr double kLimitUs = 5000.0;  // p99 latency limit of the rate ladder
constexpr double kLadderRatio = 1.5; // ladder rungs: fixed_qps * ratio^k
constexpr std::size_t kLadderRungs = 5;
constexpr double kLadderStepS = 1.0; // seconds per rung

struct ServedSpec {
  std::string name;
  bool remote = false;          // simulated-remote tables
  std::size_t cache_capacity = 0;  // per-IFV feature cache; 0 = no cache
  std::size_t replicas = 1;
  double fixed_qps = 0.0;       // the one fixed open-loop rate
  std::size_t sat_requests = 0; // closed-loop saturation phase
  std::size_t sat_window = 0;   // requests kept in flight there

  double rung_qps(std::size_t k) const {
    return fixed_qps * std::pow(kLadderRatio, static_cast<double>(k));
  }
};

const std::vector<ServedSpec>& served_specs() {
  static const std::vector<ServedSpec> specs{
      {.name = "music-lowload",
       .fixed_qps = 1000.0,
       .sat_requests = 200000,
       .sat_window = 32},
      {.name = "music-remote-cache",
       .remote = true,
       .cache_capacity = 128,
       .replicas = kWorkers,
       .fixed_qps = 1000.0,
       .sat_requests = 100000,
       .sat_window = 48},
  };
  return specs;
}

// ---------------------------------------------------------------------------
// Output: metrics, failures by type, and the run record.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Failures {
  std::size_t mismatch = 0;      // served prediction != reference bits
  std::size_t rejected = 0;      // typed admission rejection
  std::size_t expired = 0;       // typed kExpired
  std::size_t exception = 0;     // any other error delivered
  std::size_t missing = 0;       // never completed
  std::size_t topk = 0;          // top-K precision below the floor
  std::size_t total() const {
    return mismatch + rejected + expired + exception + missing + topk;
  }
  void add(const Failures& o) {
    mismatch += o.mismatch;
    rejected += o.rejected;
    expired += o.expired;
    exception += o.exception;
    missing += o.missing;
    topk += o.topk;
  }
};

struct Run {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";

  std::vector<Metric> metrics;
  Failures failures;
  std::size_t attempted = 0;
  std::vector<std::string> invalid;  // reasons the run is not valid
  std::vector<std::string> autotune; // picks of every setup, in order
  std::map<std::string, double> params;  // fixed knobs, echoed in the record

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) o.push_back(c);
  }
  return o;
}

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string autotune_summary(const kernels::AutotuneReport& r) {
  auto kc = [](const kernels::KernelConfig& c) {
    std::ostringstream o;
    o << kernels::variant_name(c.dot) << "/" << kernels::variant_name(c.tree)
      << "/" << c.tree_block << "/" << c.sparse_cutoff;
    return o.str();
  };
  std::ostringstream o;
  o << "full=" << (r.tuned ? kc(r.full) : "untuned");
  if (r.has_small) o << " small=" << kc(r.small);
  if (r.tuned_ops) {
    o << " ops=" << kernels::variant_name(r.ops.lookup) << "/"
      << r.ops.block_rows << "/" << (r.ops.zero_copy ? "zc" : "copy") << "/"
      << kernels::variant_name(r.ops.onehot);
  }
  return o.str();
}

/// Print the run record (machine fingerprint, picks, metrics) as a comment
/// line, store it under <out>/results, then print the one result line.
int finish(Run& run) {
  const bool correct = run.failures.total() == 0 && run.invalid.empty();
  std::ostringstream rec;
  rec << "{\"workload\":\"" << run.workload << "\",\"seed\":" << run.seed
      << ",\"seconds\":" << fmt_num(run.seconds)
      << ",\"trace\":" << (run.trace ? 1 : 0) << ",\"git_sha\":\""
      << json_escape(run.git_sha) << "\",\"machine\":{\"cpu\":\""
      << json_escape(cpu_model())
      << "\",\"cores\":" << std::thread::hardware_concurrency()
      << ",\"isa\":\""
      << kernels::variant_name(kernels::best_supported_dot()) << "\"}"
      << ",\"autotune\":[";
  for (std::size_t i = 0; i < run.autotune.size(); ++i) {
    rec << (i ? "," : "") << "\"" << json_escape(run.autotune[i]) << "\"";
  }
  rec << "],\"params\":{";
  bool first = true;
  for (const auto& [k, v] : run.params) {
    rec << (first ? "" : ",") << "\"" << k << "\":" << fmt_num(v);
    first = false;
  }
  rec << "},\"failures\":{\"mismatch\":" << run.failures.mismatch
      << ",\"rejected\":" << run.failures.rejected
      << ",\"expired\":" << run.failures.expired
      << ",\"exception\":" << run.failures.exception
      << ",\"missing\":" << run.failures.missing
      << ",\"topk\":" << run.failures.topk << "},\"invalid\":[";
  for (std::size_t i = 0; i < run.invalid.size(); ++i) {
    rec << (i ? "," : "") << "\"" << json_escape(run.invalid[i]) << "\"";
  }
  rec << "],\"metrics\":{";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    rec << (i ? "," : "") << "\"" << m.name << "\":{\"value\":"
        << fmt_num(m.value) << ",\"unit\":\"" << m.unit << "\"}";
  }
  rec << "}}";
  std::printf("# record %s\n", rec.str().c_str());

  const std::string dir = run.out_dir + "/results";
  ::mkdir(dir.c_str(), 0755);
  std::ofstream(dir + "/" + run.workload + "-seed" + std::to_string(run.seed) +
                "-trace" + (run.trace ? "1" : "0") + ".json")
      << rec.str() << "\n";

  for (const auto& why : run.invalid) {
    std::fprintf(stderr, "perfbench: invalid run: %s\n", why.c_str());
  }
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << std::max<std::size_t>(run.attempted, 1)
       << ", \"failed\": " << run.failures.total() << ", \"metrics\": {";
  if (correct) {
    for (std::size_t i = 0; i < run.metrics.size(); ++i) {
      const Metric& m = run.metrics[i];
      line << (i ? ", " : "") << "\"" << m.name
           << "\": {\"value\": " << fmt_num(m.value) << ", \"unit\": \""
           << m.unit << "\"}";
    }
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Inputs: Poisson arrivals and fresh Zipf-popular queries, all from the seed.
// ---------------------------------------------------------------------------

struct Stream {
  data::Batch batch;                    // one row per request
  std::vector<std::int64_t> offset_ns;  // due time relative to the start
  std::vector<double> labels;           // per request; empty when unlabeled
};

/// Poisson arrivals at `qps` for `seconds`, each a fresh query drawn by the
/// workload's own `query_sampler` (its Zipf entity popularity), so caches
/// see genuine repetition rather than test-set reuse.
Stream make_stream(const workloads::Workload& wl, double qps, double seconds,
                   std::uint64_t seed) {
  Stream s;
  common::Rng gaps(seed ^ 0x9E3779B97F4A7C15ULL);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - gaps.next_double()) / qps;
    if (t >= seconds) break;
    s.offset_ns.push_back(static_cast<std::int64_t>(t * 1e9));
  }
  common::Rng queries(seed);
  s.batch = wl.query_sampler(s.offset_ns.size(), queries);
  return s;
}

/// Every labeled test row once, in order (served closed loop): the served
/// predictions' accuracy against the test labels.
Stream labeled_stream(const workloads::Workload& wl) {
  Stream s;
  s.batch = wl.test.inputs;
  s.labels = wl.test.targets;
  s.offset_ns.assign(s.batch.num_rows(), 0);
  return s;
}

/// The reference predictions: OptimizedPipeline::predict over `rows`, with
/// the feature cache off (an uncached copy of the same fitted parts) when
/// the served pipeline has one.
std::vector<double> reference_of(const core::OptimizedPipeline& p,
                                 const data::Batch& rows) {
  if (p.cache() == nullptr) return p.predict(rows);
  core::OptimizedPipeline::Parts parts;
  parts.executor = p.executor_ptr();
  parts.cascade = p.cascade();
  parts.use_cascades = p.use_cascades();
  parts.topk = p.topk_config();
  parts.parallel_threads = p.parallel_threads();
  parts.autotune = p.autotune_report();
  return core::OptimizedPipeline(parts).predict(rows);
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t phase) {
  return seed * 1000003ULL + phase * 7919ULL + 17ULL;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ---------------------------------------------------------------------------
// Open-loop phase: the benchmark's own dispatcher. Every request is built
// before the clock starts; latency runs from the request's due time (not
// from the actual submit) to its completion callback, so a stalled
// dispatcher shows up as latency instead of hiding it.
// ---------------------------------------------------------------------------

enum Outcome : std::uint8_t { kPending, kServed, kRejected, kExpired, kError };

struct Completions {
  std::vector<std::int64_t> done_ns;
  std::vector<double> pred;
  std::vector<std::uint8_t> outcome;  // Outcome
  std::atomic<std::size_t> completed{0};
};

struct PhaseOut {
  std::size_t n = 0;
  std::vector<double> lat_us;    // due -> completion; +inf when not served
  std::vector<double> late_us;   // due -> start of the submit call
  std::vector<std::int64_t> due_ns, submit_begin_ns, submit_end_ns, done_ns;
  Failures failures;
  std::size_t label_hits = 0;    // served predictions matching the label
  double offered_qps = 0.0;      // arrivals / (last due - first due)
  double achieved_qps = 0.0;     // arrivals / (last completion - first due)
  double wall_s = 0.0;           // first due -> last completion
};

/// Open loop (window 0): submit each request at its due time. Closed loop
/// (window > 0): keep `window` requests in flight, each due the moment a
/// slot frees, which measures the engine's saturation throughput.
/// `ref` holds the reference prediction of every stream row.
PhaseOut run_phase(serving::Server& srv, const Stream& st,
                   const std::vector<double>& ref, std::size_t window = 0) {
  const std::size_t n = st.offset_ns.size();
  PhaseOut out;
  out.n = n;
  std::vector<data::Batch> reqs;
  reqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) reqs.push_back(st.batch.row(i));
  Completions c;
  c.done_ns.assign(n, 0);
  c.pred.assign(n, 0.0);
  c.outcome.assign(n, kPending);
  out.due_ns.resize(n);
  out.submit_begin_ns.resize(n);
  out.submit_end_ns.resize(n);

  const std::int64_t t0 = now_ns() + 2'000'000;
  for (std::size_t i = 0; i < n; ++i) out.due_ns[i] = t0 + st.offset_ns[i];
  Completions* cp = &c;
  for (std::size_t i = 0; i < n; ++i) {
    if (window == 0) {
      wait_until_ns(out.due_ns[i]);
    } else {
      while (i - c.completed.load(std::memory_order_acquire) >= window) {
        pause_cpu();
      }
      out.due_ns[i] = now_ns();
    }
    out.submit_begin_ns[i] = now_ns();
    srv.submit("m", std::move(reqs[i]),
               [cp, i](double p, std::exception_ptr err) {
                 Outcome o = kServed;
                 if (err) {
                   o = kError;
                   try {
                     std::rethrow_exception(err);
                   } catch (const serving::RejectedError& e) {
                     o = e.reason() == serving::RejectReason::kExpired
                             ? kExpired
                             : kRejected;
                   } catch (...) {
                   }
                 }
                 cp->pred[i] = p;
                 cp->outcome[i] = o;
                 cp->done_ns[i] = now_ns();
                 cp->completed.fetch_add(1, std::memory_order_release);
               });
    out.submit_end_ns[i] = now_ns();
  }
  const std::int64_t give_up = now_ns() + 30'000'000'000LL;
  while (c.completed.load(std::memory_order_acquire) < n &&
         now_ns() < give_up) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  if (c.completed.load(std::memory_order_acquire) < n) {
    // Drain before the completion slots go out of scope.
    srv.shutdown();
  }

  // Hand the phase's freed request memory back before the next phase, so
  // the process high-water mark does not depend on how earlier phases
  // fragmented the heap.
  reqs.clear();
  reqs.shrink_to_fit();
  ::malloc_trim(0);

  out.lat_us.resize(n);
  out.late_us.resize(n);
  out.done_ns = c.done_ns;
  std::int64_t last_done = t0;
  for (std::size_t i = 0; i < n; ++i) {
    out.late_us[i] = static_cast<double>(out.submit_begin_ns[i] - out.due_ns[i]) * 1e-3;
    out.lat_us[i] = pb::kInf;
    switch (c.outcome[i]) {
      case kPending: ++out.failures.missing; break;
      case kRejected: ++out.failures.rejected; break;
      case kExpired: ++out.failures.expired; break;
      case kError: ++out.failures.exception; break;
      default: {
        if (!same_bits(c.pred[i], ref[i])) {
          ++out.failures.mismatch;
          break;
        }
        out.lat_us[i] = static_cast<double>(c.done_ns[i] - out.due_ns[i]) * 1e-3;
        last_done = std::max(last_done, c.done_ns[i]);
        if (!st.labels.empty() &&
            models::predicted_label(c.pred[i]) == st.labels[i]) {
          ++out.label_hits;
        }
      }
    }
  }
  if (n >= 2) {
    const double span_s = std::max(
        1e-9, static_cast<double>(out.due_ns.back() - out.due_ns.front()) * 1e-9);
    out.offered_qps = static_cast<double>(n - 1) / span_s;
    out.wall_s = static_cast<double>(last_done - out.due_ns.front()) * 1e-9;
    out.achieved_qps = static_cast<double>(n - 1) / out.wall_s;
  }
  return out;
}

void account(Run& run, const PhaseOut& ph) {
  run.attempted += ph.n;
  run.failures.add(ph.failures);
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

// ---------------------------------------------------------------------------
// Set-up: optimize, save, cold-start through the server, first prediction.
// ---------------------------------------------------------------------------

/// Every distinct table client behind the pipeline's lookup ops.
std::vector<const store::TableClient*> table_clients(
    const core::OptimizedPipeline& p) {
  std::vector<const store::TableClient*> out;
  const core::Graph& g = p.executor().graph();
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto* op = dynamic_cast<const ops::TableLookupOp*>(
        g.node(static_cast<int>(i)).op.get());
    if (op == nullptr) continue;
    const store::TableClient* c = &op->client();
    if (std::find(out.begin(), out.end(), c) == out.end()) out.push_back(c);
  }
  return out;
}

struct StoreCount {
  std::uint64_t round_trips = 0, keys = 0;
};

StoreCount store_count(const std::vector<const store::TableClient*>& clients) {
  StoreCount s;
  for (auto* c : clients) {
    s.round_trips += c->stats().round_trips.load();
    s.keys += c->stats().keys_fetched.load();
  }
  return s;
}

std::size_t file_bytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::size_t>(st.st_size) : 0;
}

struct ServedSetup {
  std::unique_ptr<serving::Server> server;
  std::shared_ptr<const core::OptimizedPipeline> pipe;
  std::vector<const store::TableClient*> clients;
  double setup_s = 0.0, optimize_s = 0.0, save_s = 0.0, load_s = 0.0,
         first_s = 0.0;
};

ServedSetup setup_served(const workloads::Workload& wl, const ServedSpec& spec,
                         const std::string& path) {
  ServedSetup s;
  core::OptimizeOptions opts;
  opts.cascades = true;
  opts.feature_cache = spec.cache_capacity > 0;
  opts.cache_capacity = spec.cache_capacity;

  const std::int64_t t0 = now_ns();
  const auto optimized =
      core::WillumpOptimizer::optimize(wl.pipeline, wl.train, wl.valid, opts);
  const std::int64_t t1 = now_ns();
  serialize::save_pipeline(optimized, path);
  const std::int64_t t2 = now_ns();

  serving::ServerConfig scfg;
  scfg.num_workers = kWorkers;
  serving::ModelConfig mcfg;
  mcfg.replicas = spec.replicas;
  s.server = std::make_unique<serving::Server>(scfg);
  // The artifact carries the tables' network model (the workload's tables
  // are remote before optimize on the remote workload), so the loaded
  // clients are remote too.
  s.server->load_model("m", path, mcfg);
  const std::int64_t t3 = now_ns();
  (void)s.server->submit("m", wl.test.inputs.row(0)).get();
  const std::int64_t t4 = now_ns();
  s.pipe = s.server->pipeline_snapshot("m");
  s.clients = table_clients(*s.pipe);

  s.setup_s = static_cast<double>(t4 - t0) * 1e-9;
  s.optimize_s = static_cast<double>(t1 - t0) * 1e-9;
  s.save_s = static_cast<double>(t2 - t1) * 1e-9;
  s.load_s = static_cast<double>(t3 - t2) * 1e-9;
  s.first_s = static_cast<double>(t4 - t3) * 1e-9;
  return s;
}

// ---------------------------------------------------------------------------
// Isolated runtime probes and layer replays (traced run only).
// ---------------------------------------------------------------------------

/// `RequestQueue::pop_until` on an empty queue with a deadline already past.
void trace_pop_until_past(pb::Trace& tr, std::size_t reps) {
  runtime::RequestQueue<int> q;
  const auto root = tr.new_root();
  const std::int64_t r0 = now_ns();
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto past = Clock::now() - std::chrono::microseconds(1);
    const std::int64_t a = now_ns();
    (void)q.pop_until(past);
    iv.emplace_back(a, now_ns());
  }
  const auto parent = tr.add(root, -1, "replay.runtime", r0, now_ns());
  for (auto [a, b] : iv) tr.add(root, parent, "runtime.pop_until_past", a, b);
}

/// push -> pop across two threads, the consumer parked in pop().
void trace_handoff(pb::Trace& tr, std::size_t reps) {
  runtime::RequestQueue<std::int64_t> q;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  iv.reserve(reps);
  std::thread consumer([&] {
    pin_self(false);
    while (auto v = q.pop()) iv.emplace_back(*v, now_ns());
  });
  const std::int64_t r0 = now_ns();
  for (std::size_t i = 0; i < reps; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
    q.push(now_ns());
  }
  q.close();
  consumer.join();
  const auto root = tr.new_root();
  const auto parent = tr.add(root, -1, "replay.runtime", r0, now_ns());
  for (auto [a, b] : iv) tr.add(root, parent, "runtime.handoff", a, b);
}

/// Time `fn` `reps` times as children of one replay root.
template <typename F>
void trace_calls(pb::Trace& tr, const std::string& name, std::size_t reps,
                 F&& fn) {
  const auto root = tr.new_root();
  const std::int64_t r0 = now_ns();
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < reps; ++i) {
    const std::int64_t a = now_ns();
    fn(i);
    iv.emplace_back(a, now_ns());
  }
  const auto parent = tr.add(root, -1, "replay", r0, now_ns());
  for (auto [a, b] : iv) tr.add(root, parent, name, a, b);
}

data::Batch rows_of(const data::Batch& pool, std::size_t start, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = (start + i) % pool.num_rows();
  return pool.select_rows(idx);
}

/// Per-layer replays shared by every workload: feature assembly, the two
/// models on precomputed matrices, artifact load, and the runtime probes.
void trace_layers(pb::Trace& tr, const core::OptimizedPipeline& p,
                  const data::Batch& pool, const std::string& artifact,
                  std::size_t replay_rows, Run& run) {
  const data::Batch batch = rows_of(pool, 0, replay_rows);
  const core::Executor& ex = p.executor();
  trace_calls(tr, "core.compute_matrix", 20,
              [&](std::size_t) { (void)ex.compute_matrix(batch); });
  const data::FeatureMatrix full_x = ex.compute_matrix(batch);
  std::vector<double> out(replay_rows);
  trace_calls(tr, "models.full.predict_into", 20, [&](std::size_t) {
    p.full_model().predict_into(full_x, out);
  });
  const auto& cas = p.cascade();
  if (cas.small_model) {
    core::ExecOptions eff;
    eff.fg_mask = cas.efficient_mask;
    const data::FeatureMatrix small_x = ex.compute_matrix(batch, eff);
    trace_calls(tr, "models.small.predict_into", 20, [&](std::size_t) {
      cas.small_model->predict_into(small_x, out);
    });
  }
  trace_calls(tr, "serialize.load_pipeline", 3, [&](std::size_t) {
    (void)serialize::load_pipeline(artifact);
  });
  trace_pop_until_past(tr, 200);
  trace_handoff(tr, 200);

  const double rows = static_cast<double>(replay_rows);
  run.metric("core.features_us_per_row",
             tr.median_us("core.compute_matrix") / rows, "us");
  run.metric("models.full_us_per_row",
             tr.median_us("models.full.predict_into") / rows, "us");
  run.metric("models.small_us_per_row",
             tr.median_us("models.small.predict_into") / rows, "us");
  run.metric("serialize.load_s", tr.median_us("serialize.load_pipeline") * 1e-6,
             "s");
  run.metric("serialize.artifact_bytes",
             static_cast<double>(file_bytes(artifact)), "bytes");
  run.metric("runtime.pop_until_past_us",
             tr.median_us("runtime.pop_until_past"), "us");
  run.metric("runtime.handoff_us", tr.median_us("runtime.handoff"), "us");
}

void write_trace(const pb::Trace& tr, const Run& run) {
  const std::string path = run.out_dir + "/spans-" + run.workload + "-seed" +
                           std::to_string(run.seed) + ".csv";
  if (!tr.write_csv(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Served workloads: music-lowload, music-remote-cache.
// ---------------------------------------------------------------------------

/// The generator's lateness (due -> start of submit), median over windows
/// of each window's `pct` percentile.
double lateness_of(const PhaseOut& ph, double pct) {
  return pb::window_median(ph.late_us, kWindows, [pct](const auto& c) {
    return pb::percentile_sorted(c, pct);
  });
}

/// A generator whose median lateness exceeds the bound could not offer the
/// phase's rate: the run measured the generator, so it is invalid rather
/// than slow. Occasional preemption of the dispatcher shows in the tail of
/// the lateness (reported as bench.generator_late_us), not in its median.
void check_generator(const PhaseOut& ph, const char* phase, Run& run) {
  const double late = lateness_of(ph, 50.0);
  if (late > kLateLimitUs) {
    run.invalid.push_back(std::string(phase) + ": generator median lateness " +
                          std::to_string(late) + " us exceeds " +
                          std::to_string(kLateLimitUs) + " us");
  }
}

/// The tail percentile `target` of each window (lowered where a window has
/// fewer than 10 samples beyond it), median over windows.
double tail_of(const std::vector<double>& lat, double target,
               std::size_t windows, Run& run, const char* what) {
  double pct = 0.0;
  bool ok = true;
  const double v = pb::window_median(lat, windows, [&](const auto& c) {
    const auto t = pb::tail_pick(c.size(), target);
    ok = ok && t.ok;
    pct = t.pct;
    return t.ok ? c[t.index] : 0.0;
  });
  if (!ok) run.invalid.push_back(std::string(what) + ": too few samples for a tail");
  run.params[std::string(what) + ".tail_pct"] = pct;
  return v;
}

double p50_of(const std::vector<double>& lat) {
  return pb::window_median(lat, kWindows, [](const auto& c) {
    return pb::percentile_sorted(c, 50.0);
  });
}

/// Completions per second, median over windows of completion order.
double throughput_of(const PhaseOut& ph) {
  std::vector<std::int64_t> done = ph.done_ns;
  std::sort(done.begin(), done.end());
  std::vector<double> rates;
  for (std::size_t w = 0; w < kWindows; ++w) {
    const std::size_t a = done.size() * w / kWindows;
    const std::size_t b = done.size() * (w + 1) / kWindows - 1;
    if (b > a && done[b] > done[a]) {
      rates.push_back(static_cast<double>(b - a) /
                      (static_cast<double>(done[b] - done[a]) * 1e-9));
    }
  }
  return pb::median_of(rates);
}

/// Every stream a run serves, pre-generated from the seed before any clock
/// starts. The traced-run streams stay empty on an untraced run.
struct Streams {
  Stream labeled;                        // accuracy: every test row once
  std::vector<Stream> warmup, measured;  // one each per set-up
  Stream plain, traced, saturation;      // traced run: serving layer
  std::vector<Stream> ladder;            // traced run: one per rung
};

Streams make_streams(const workloads::Workload& wl, const ServedSpec& spec,
                     const Run& run) {
  Streams s;
  s.labeled = labeled_stream(wl);
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::uint64_t phase = 10 * (i + 1);
    s.warmup.push_back(make_stream(wl, spec.fixed_qps, 0.2,
                                   stream_seed(run.seed, phase)));
    if (!run.trace) {
      s.measured.push_back(make_stream(wl, spec.fixed_qps,
                                       run.seconds / kSetupRepeats,
                                       stream_seed(run.seed, phase + 1)));
    }
  }
  if (run.trace) {
    const double phase_s = run.seconds * 0.2;
    s.plain = make_stream(wl, spec.fixed_qps, phase_s, stream_seed(run.seed, 1));
    s.traced = make_stream(wl, spec.fixed_qps, phase_s, stream_seed(run.seed, 2));
    s.saturation = make_stream(wl, static_cast<double>(spec.sat_requests), 1.0,
                               stream_seed(run.seed, 3));
    for (std::size_t k = 0; k < kLadderRungs; ++k) {
      s.ladder.push_back(make_stream(wl, spec.rung_qps(k), kLadderStepS,
                                     stream_seed(run.seed, 100 + k)));
    }
  }
  return s;
}

/// A phase checked against the reference predictions of `p` over the
/// stream's rows (computed before the phase starts).
PhaseOut serve(serving::Server& srv, const core::OptimizedPipeline& p,
               const Stream& st, std::size_t window = 0) {
  return run_phase(srv, st, reference_of(p, st.batch), window);
}

/// The offered-rate ladder: ascending rungs until the first one that
/// misses the latency limit, grows a backlog, or outruns the generator.
/// Returns the achieved rate of the highest passing rung (0 if none).
double run_ladder(serving::Server& srv, const core::OptimizedPipeline& p,
                  const std::vector<Stream>& rungs, const ServedSpec& spec,
                  double budget_s, Run& run) {
  std::vector<pb::LadderStep> steps;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t k = 0; k < rungs.size(); ++k) {
    if (!steps.empty() &&
        now_ns() + static_cast<std::int64_t>(kLadderStepS * 1e9) > end) {
      break;
    }
    const PhaseOut ph = serve(srv, p, rungs[k]);
    account(run, ph);
    pb::LadderStep st;
    st.offered_qps = ph.offered_qps;
    st.achieved_qps = ph.achieved_qps;
    st.p99_us = pb::percentile_sorted(sorted(ph.lat_us), 99.0);
    st.generator_late = lateness_of(ph, 50.0) > kLateLimitUs;
    steps.push_back(st);
    std::printf("# ladder %s rung=%.0f offered=%.1f achieved=%.1f "
                "p99_us=%.1f verdict=%d\n",
                spec.name.c_str(), spec.rung_qps(k), st.offered_qps,
                st.achieved_qps, st.p99_us,
                static_cast<int>(pb::step_verdict(st, kLimitUs)));
    if (pb::step_verdict(st, kLimitUs) != pb::StepVerdict::kPass) break;
  }
  const int best = pb::ladder_max_index(steps, kLimitUs);
  run.params["ladder_rungs_run"] = static_cast<double>(steps.size());
  run.params["ladder_ended_by_generator"] =
      !steps.empty() && steps.back().generator_late ? 1.0 : 0.0;
  return best >= 0 ? steps[static_cast<std::size_t>(best)].achieved_qps : 0.0;
}

// ---------------------------------------------------------------------------
// Traced run: every per-layer metric, on every workload.
// ---------------------------------------------------------------------------

/// Serving layer: an untraced and a traced open-loop phase at the spec's
/// fixed rate. The traced phase becomes spans (a `request` root from due
/// time to completion, with generator-lateness and `Server::submit`
/// children); the server's, cascade's, cache's and tables' counters cover
/// it. Returns the mean batch size the server formed.
double trace_serving(pb::Trace& tr, serving::Server& srv,
                     const core::OptimizedPipeline& p,
                     const std::vector<const store::TableClient*>& clients,
                     const ServedSpec& spec, const Streams& in, Run& run) {
  const PhaseOut plain = serve(srv, p, in.plain);
  account(run, plain);
  check_generator(plain, "untraced phase", run);

  const std::vector<double> ref = reference_of(p, in.traced.batch);
  srv.reset_stats();
  p.run_stats() = core::CascadeRunStats{};
  const StoreCount st0 = store_count(clients);
  const std::size_t hits0 = p.cache() ? p.cache()->total_hits() : 0;
  const std::size_t miss0 = p.cache() ? p.cache()->total_misses() : 0;
  const PhaseOut tp = run_phase(srv, in.traced, ref);
  account(run, tp);
  check_generator(tp, "traced phase", run);
  const serving::ModelStats ms = srv.stats("m");
  const core::CascadeRunStats cs = p.run_stats();
  const StoreCount st1 = store_count(clients);
  const std::size_t hits = p.cache() ? p.cache()->total_hits() - hits0 : 0;
  const std::size_t misses = p.cache() ? p.cache()->total_misses() - miss0 : 0;

  for (std::size_t i = 0; i < tp.n; ++i) {
    if (tp.done_ns[i] == 0) continue;
    const auto root = tr.new_root();
    const auto r = tr.add(root, -1, "request", tp.due_ns[i], tp.done_ns[i]);
    tr.add(root, r, "bench.generator_late", tp.due_ns[i], tp.submit_begin_ns[i]);
    tr.add(root, r, "serving.submit", tp.submit_begin_ns[i], tp.submit_end_ns[i]);
  }
  // Saturation: a closed loop keeping every replica's batch full.
  const PhaseOut sat = serve(srv, p, in.saturation, spec.sat_window);
  account(run, sat);
  run.metric("serving.saturation_qps", throughput_of(sat), "1/s");

  const double p50_traced = p50_of(tp.lat_us);
  const double pipeline_us =
      ms.batches ? ms.inference_seconds * 1e6 / static_cast<double>(ms.batches)
                 : 0.0;
  const double wall = tp.wall_s > 0.0 ? tp.wall_s : 1.0;
  const double requests = static_cast<double>(std::max<std::size_t>(tp.n, 1));
  run.metric("bench.generator_late_us", lateness_of(tp, 99.0), "us");
  run.metric("bench.tracing_overhead_us", p50_traced - p50_of(plain.lat_us), "us");
  run.metric("bench.samples", static_cast<double>(tp.n), "count");
  run.metric("serving.p90_us", tail_of(tp.lat_us, 90.0, kWindows, run, "traced"),
             "us");
  run.metric("serving.p99_us", tail_of(tp.lat_us, 99.0, kWindows, run, "traced"),
             "us");
  run.metric("serving.submit_us", tr.median_us("serving.submit"), "us");
  run.metric("serving.submit_p99_us",
             pb::percentile_sorted(sorted(tr.durations_us("serving.submit")), 99.0),
             "us");
  run.metric("serving.after_submit_us", tr.median_us("request", true), "us");
  run.metric("serving.pipeline_us_per_batch", pipeline_us, "us");
  run.metric("serving.outside_pipeline_us", p50_traced - pipeline_us, "us");
  run.metric("serving.mean_batch_rows", ms.mean_batch_rows(), "rows");
  run.metric("serving.busy_frac",
             ms.inference_seconds / (wall * static_cast<double>(spec.replicas)),
             "ratio");
  run.metric("serving.requests", static_cast<double>(tp.n), "count");
  run.metric("serving.rejected", static_cast<double>(ms.total_shed()), "count");
  run.metric("serving.expired", static_cast<double>(ms.expired), "count");
  run.metric("serving.error_frac",
             static_cast<double>(tp.failures.total()) / requests, "ratio");
  run.metric("core.cascade_short_circuit_frac", cs.short_circuit_rate(), "ratio");
  run.metric("core.cascade_total_rows", static_cast<double>(cs.total_rows), "count");
  run.metric("core.feature_cache_hit_frac",
             hits + misses ? static_cast<double>(hits) /
                                 static_cast<double>(hits + misses)
                           : 0.0,
             "ratio");
  run.metric("store.round_trips_per_query",
             static_cast<double>(st1.round_trips - st0.round_trips) / requests,
             "count");
  run.metric("store.keys_per_query",
             static_cast<double>(st1.keys - st0.keys) / requests, "count");
  return ms.mean_batch_rows();
}

/// Top-K layer, with the cascade's small model as the filter: `top_k`
/// queries over `batch` (one root span each), each scored against the exact
/// full-model top-K, then the filter and the re-rank replayed through
/// public calls: efficient-IFV features + filter model over all N rows,
/// then all-IFV features + full model over the subset the filter keeps.
void trace_topk(pb::Trace& tr, const core::OptimizedPipeline& p,
                const data::Batch& batch, double seconds, Run& run) {
  const core::Executor& ex = p.executor();
  const std::vector<double> exact =
      p.full_model().predict(ex.compute_matrix(batch));
  std::vector<double> lat, precision;
  std::size_t subset_rows = 0, batch_rows = 0;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < end || lat.size() < 11) {
    const std::int64_t a = now_ns();
    const std::vector<std::size_t> got = p.top_k(batch, kTopK);
    const std::int64_t b = now_ns();
    tr.add(tr.new_root(), -1, "topk.query", a, b);
    lat.push_back(static_cast<double>(b - a) * 1e-3);
    subset_rows += p.topk_stats().subset_size;
    batch_rows += p.topk_stats().batch_size;
    precision.push_back(pb::precision_at_k(got, exact, kTopK));
    ++run.attempted;
    if (precision.back() < kTopKPrecisionFloor) ++run.failures.topk;
  }
  const double subset_frac =
      static_cast<double>(subset_rows) / static_cast<double>(batch_rows);

  const auto& cas = p.cascade();
  core::ExecOptions eff;
  eff.fg_mask = cas.efficient_mask;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto root = tr.new_root();
    const std::int64_t r0 = now_ns();
    std::vector<double> scores(batch.num_rows());
    if (cas.small_model) {
      cas.small_model->predict_into(ex.compute_matrix(batch, eff), scores);
    }
    const std::int64_t f1 = now_ns();
    const auto keep = models::top_k_indices(
        scores, std::max<std::size_t>(
                    1, static_cast<std::size_t>(
                           subset_frac * static_cast<double>(batch.num_rows()))));
    const data::Batch sub = batch.select_rows(keep);
    std::vector<double> full(sub.num_rows());
    const std::int64_t g0 = now_ns();
    p.full_model().predict_into(ex.compute_matrix(sub), full);
    const std::int64_t g1 = now_ns();
    const auto parent = tr.add(root, -1, "topk.replay", r0, g1);
    tr.add(root, parent, "core.topk_filter", r0, f1);
    tr.add(root, parent, "core.topk_rerank", g0, g1);
  }
  run.metric("core.topk_filter_ms", tr.median_us("core.topk_filter") * 1e-3, "ms");
  run.metric("core.topk_rerank_ms", tr.median_us("core.topk_rerank") * 1e-3, "ms");
  run.metric("core.topk_p90_ms", tail_of(lat, 90.0, 1, run, "topk") * 1e-3, "ms");
  run.metric("core.topk_subset_frac", subset_frac, "ratio");
  run.metric("core.topk_precision",
             *std::min_element(precision.begin(), precision.end()), "ratio");
}

/// Every per-layer metric: the serving layer and the rate ladder through
/// `srv`, `predict_into` replayed at the batch size the server formed, the
/// top-K layer over the labeled test rows, and the shared layer replays.
int traced_run(Run& run, serving::Server& srv, const core::OptimizedPipeline& p,
               const std::vector<const store::TableClient*>& clients,
               const ServedSpec& spec, const Streams& in,
               const std::vector<double>& optimize_s,
               const std::string& artifact) {
  pb::Trace tr;
  const std::size_t b = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             trace_serving(tr, srv, p, clients, spec, in, run))));
  run.metric("serving.ladder_max_qps",
             run_ladder(srv, p, in.ladder, spec, 0.3 * run.seconds, run), "1/s");

  const data::Batch& queries = in.traced.batch;
  std::vector<data::Batch> replay;
  for (std::size_t i = 0; i < 64; ++i) replay.push_back(rows_of(queries, i * b, b));
  std::vector<double> out(b);
  trace_calls(tr, "core.predict_into", 400, [&](std::size_t i) {
    p.predict_into(replay[i % replay.size()], out);
  });
  run.metric("core.predict_us_per_row",
             tr.median_us("core.predict_into") / static_cast<double>(b), "us");
  trace_topk(tr, p, in.labeled.batch, run.seconds * 0.15, run);
  trace_layers(tr, p, queries, artifact, 256, run);
  run.metric("core.optimize_s", pb::median_of(optimize_s), "s");
  run.metric("bench.peak_rss_mb", peak_rss_mb(), "MB");
  write_trace(tr, run);
  std::remove(artifact.c_str());
  return finish(run);
}

int run_served(const ServedSpec& spec, Run& run) {
  run.params["fixed_qps"] = spec.fixed_qps;
  run.params["limit_us"] = kLimitUs;
  run.params["cache_capacity"] = static_cast<double>(spec.cache_capacity);
  run.params["replicas"] = static_cast<double>(spec.replicas);
  run.params["workers"] = static_cast<double>(kWorkers);

  auto wl = workloads::make_music({});
  // Remote before optimize: the cost model, the cascade's efficient-IFV
  // choice and the cache then see remote lookup costs, and the artifact
  // carries the network model to the loaded pipeline.
  if (spec.remote) wl.tables->set_network(workloads::default_remote_network());
  const Streams in = make_streams(wl, spec, run);
  const std::string artifact =
      run.out_dir + "/" + run.workload + "-" + std::to_string(::getpid()) + ".wlmp";

  // Each set-up serves its own share of the measured phases, and the
  // metrics are medians over set-ups: an autotuner pick that flips between
  // set-ups moves one of kSetupRepeats values, not the result.
  std::vector<double> setup_s, optimize_s, save_s, load_s, first_s, p50s;
  std::size_t label_hits = 0, labeled = 0;
  ServedSetup s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    s = ServedSetup{};  // shut the previous server down first
    pin_self(false);    // the new server's workers inherit the worker CPUs
    s = setup_served(wl, spec, artifact);
    pin_self(true);
    setup_s.push_back(s.setup_s);
    optimize_s.push_back(s.optimize_s);
    save_s.push_back(s.save_s);
    load_s.push_back(s.load_s);
    first_s.push_back(s.first_s);
    run.autotune.push_back(autotune_summary(s.pipe->autotune_report()));
    std::printf("# setup %zu setup_s=%.4f optimize_s=%.4f save_s=%.4f "
                "load_s=%.4f first_s=%.5f\n",
                i, s.setup_s, s.optimize_s, s.save_s, s.load_s, s.first_s);

    // Accuracy: every labeled test row served once (closed loop), then a
    // warm-up at the fixed rate; both checked, neither timed.
    const PhaseOut acc = serve(*s.server, *s.pipe, in.labeled, spec.sat_window);
    account(run, acc);
    label_hits += acc.label_hits;
    labeled += acc.n;
    account(run, serve(*s.server, *s.pipe, in.warmup[i]));
    if (run.trace) continue;

    const PhaseOut fx = serve(*s.server, *s.pipe, in.measured[i]);
    account(run, fx);
    check_generator(fx, "fixed-rate phase", run);
    p50s.push_back(p50_of(fx.lat_us));
    std::printf("# fixed-rate %zu p50_us=%.3f\n", i, p50s.back());
    run.params["samples"] += static_cast<double>(fx.n);
  }
  run.params["setup.optimize_s"] = pb::median_of(optimize_s);
  run.params["setup.save_s"] = pb::median_of(save_s);
  run.params["setup.load_s"] = pb::median_of(load_s);
  run.params["setup.first_s"] = pb::median_of(first_s);

  if (!run.trace) {
    run.metric("setup_s", pb::median_of(setup_s), "s");
    run.metric("p50_us", pb::median_of(p50s), "us");
    run.metric("accuracy",
               static_cast<double>(label_hits) / static_cast<double>(labeled),
               "ratio");
    std::remove(artifact.c_str());
    return finish(run);
  }
  return traced_run(run, *s.server, *s.pipe, s.clients, spec, in, optimize_s,
                    artifact);
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") run.workload = v;
    else if (k == "--seed") run.seed = std::stoull(v);
    else if (k == "--seconds") run.seconds = std::stod(v);
    else if (k == "--trace") run.trace = v == "1";
    else if (k == "--out") run.out_dir = v;
    else if (k == "--git-sha") run.git_sha = v;
    else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", k.c_str());
      return 2;
    }
  }
  if (run.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be positive\n");
    return 2;
  }
  try {
    for (const auto& spec : served_specs()) {
      if (spec.name == run.workload) return run_served(spec, run);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", run.workload.c_str());
  return 2;
}
