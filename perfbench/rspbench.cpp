// End-to-end benchmark binary: boots a real 5-server θ(3,5) node::TcpCluster
// in this process and drives it open-loop from one KvClient (one loop thread,
// one I/O thread). Every arrival is generated up front from --seed; the
// cluster only ever sees the resulting put/get calls.
//
// One invocation: set the cluster up (start, leaders of every group elected,
// every key preloaded), warm up, measure one window of --seconds, then run the
// correctness gate. With --trace 1 a second, freshly set-up cluster then runs
// the CPU comparison: kRounds rounds of three short sub-windows, one per mode
//   plain      — as the measured window,
//   tracer-off — the program's built-in commit tracer disabled,
//   spans      — the benchmark's own request spans recorded,
// each round replaying one arrival schedule in all three modes, in an order
// rotated from round to round. Timed probes of the ec, storage and net public
// functions follow. Set-ups are repeated until kSetups have been timed;
// setup_s is their median.
//
// Output: one JSON object on stdout with raw measurements (percentiles,
// counts, registry deltas). perfbench/run.py derives the named metrics from
// it. Exit code 1 when the correctness gate fails or the ec probe decodes
// wrong bytes, 2 on a setup failure.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "ec/policy.h"
#include "net/tcp_transport.h"
#include "node/tcp_cluster.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/file_wal.h"

#ifndef RSPBENCH_BUILD_TYPE
#define RSPBENCH_BUILD_TYPE "unknown"
#endif

using namespace rspaxos;
namespace fs = std::filesystem;

namespace {

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr int kKeys = 1024;
/// Cluster set-ups per run; setup_s is their median.
constexpr int kSetups = 7;
/// Rounds of the traced run's CPU comparison (each mode is first, second and
/// third in the round order four times).
constexpr int kRounds = 12;
static_assert(4 + kRounds <= 16, "each window needs its own arrival slot under the seed");
/// Arrivals finding this many ops already queued behind the client window
/// are shed (counted as failed). Far above anything a healthy run reaches.
constexpr size_t kMaxClientQueue = 4096;

struct Workload {
  const char* name;
  uint32_t groups;
  size_t value_bytes;
  double put_qps;
  double get_qps;
  double zipf_s;  // 0 = uniform keys
};

// Offered rates keep the host's 4 cores at most about half busy: near
// saturation the latency of a shared host does not repeat from run to run.
// The put workloads carry a get stream so every workload reports both put and
// get latency.
const Workload kWorkloads[] = {
    {"put-1k", 1, 1024, 5000, 1000, 0.0},
    {"put-64k", 1, 64 * 1024, 500, 500, 0.0},
    {"read-zipf", 4, 1024, 500, 4500, 0.99},
};

struct Args {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_data";
  std::string spans_out;
};

// ---------------------------------------------------------------------------
// Self-describing values: "rspb;k-<key>;<tag><seq>;" over a body taken from a
// seeded pool, so any value read back names the key and write it came from
// and its body can be checked byte for byte.

class Values {
 public:
  Values(size_t size, uint64_t seed) : size_(size) {
    Rng rng(seed ^ 0x76616c756573ULL);
    for (auto& b : pool_) {
      b.resize(size);
      rng.fill(b.data(), size);
    }
  }

  Bytes make(uint32_t key, char tag, uint64_t seq) const {
    Bytes v = pool_[seq % pool_.size()];
    char hdr[64];
    int n = std::snprintf(hdr, sizeof(hdr), "rspb;k-%u;%c%llu;", key, tag,
                          static_cast<unsigned long long>(seq));
    std::memcpy(v.data(), hdr, static_cast<size_t>(n));
    return v;
  }

  /// True iff `v` is an intact value written for `key`; fills tag and seq.
  bool check(uint32_t key, BytesView v, char* tag, uint64_t* seq) const {
    if (v.size() != size_) return false;
    size_t n = std::min<size_t>(v.size(), 63);
    char hdr[64];
    std::memcpy(hdr, v.data(), n);
    hdr[n] = '\0';
    unsigned k = 0;
    char t = 0;
    unsigned long long s = 0;
    int used = 0;
    if (std::sscanf(hdr, "rspb;k-%u;%c%llu;%n", &k, &t, &s, &used) != 3 || used == 0) {
      return false;
    }
    if (k != key) return false;
    const Bytes& body = pool_[s % pool_.size()];
    if (std::memcmp(v.data() + used, body.data() + used, size_ - static_cast<size_t>(used)) !=
        0) {
      return false;
    }
    *tag = t;
    *seq = s;
    return true;
  }

  std::string key_name(uint32_t key) const { return "k-" + std::to_string(key); }

 private:
  size_t size_;
  std::array<Bytes, 16> pool_;
};

// ---------------------------------------------------------------------------
// Arrival schedule: two independent Poisson streams (puts, gets), merged.

struct Arrival {
  int64_t t_ns;  // offset from the phase start
  uint32_t key;
  bool get;
};

class KeyPicker {
 public:
  KeyPicker(double zipf_s) {
    if (zipf_s <= 0) return;
    cdf_.resize(kKeys);
    double sum = 0;
    for (int r = 0; r < kKeys; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
      cdf_[static_cast<size_t>(r)] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }
  uint32_t pick(Rng& rng) const {
    if (cdf_.empty()) return static_cast<uint32_t>(rng.next_below(kKeys));
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double());
    if (it == cdf_.end()) --it;
    return static_cast<uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::vector<Arrival> make_arrivals(const Workload& w, double seconds, uint64_t seed) {
  KeyPicker keys(w.zipf_s);
  std::vector<Arrival> out;
  const int64_t end = static_cast<int64_t>(seconds * 1e9);
  auto stream = [&](double qps, bool get, uint64_t s) {
    if (qps <= 0) return;
    Rng rng(s);
    double mean_ns = 1e9 / qps;
    double t = rng.exponential(mean_ns);
    while (t < static_cast<double>(end)) {
      out.push_back(Arrival{static_cast<int64_t>(t), keys.pick(rng), get});
      t += rng.exponential(mean_ns);
    }
  };
  stream(w.put_qps, false, seed * 0x9e3779b97f4a7c15ULL + 1);
  stream(w.get_qps, true, seed * 0x9e3779b97f4a7c15ULL + 2);
  std::stable_sort(out.begin(), out.end(),
                   [](const Arrival& a, const Arrival& b) { return a.t_ns < b.t_ns; });
  return out;
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (traced run only): kept in memory, written once.

struct Span {
  uint64_t trace;
  uint64_t id;
  uint64_t parent;  // 0 = root
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
};

struct SpanLog {
  std::vector<Span> spans;
  uint64_t next_id = 1;

  uint64_t add(uint64_t trace, uint64_t parent, const char* name, int64_t s, int64_t e) {
    uint64_t id = next_id++;
    spans.push_back(Span{trace, id, parent, name, s, e});
    return id;
  }
};

// ---------------------------------------------------------------------------
// Cluster rig: cluster + one client endpoint + one KvClient.

struct Rig {
  std::unique_ptr<node::TcpCluster> cluster;
  net::TcpNode* cnode = nullptr;
  std::unique_ptr<kv::KvClient> client;
  fs::path dir;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Runs `fn` on the client loop and waits for it.
  template <typename Fn>
  void on_loop(Fn fn) {
    std::promise<void> done;
    auto fut = done.get_future();
    cnode->loop().post([&fn, &done] {
      fn();
      done.set_value();
    });
    fut.wait();
  }

  /// TcpCluster's destructor frees the transport before the WALs, so an
  /// append still being flushed at teardown completes onto a destroyed
  /// endpoint (a use-after-free in the program, not the benchmark). Appends
  /// only follow protocol traffic, so once the client is quiet the WALs go
  /// idle within milliseconds: wait until no flush lands for 60 ms.
  static void wait_wal_idle() {
    auto& reg = obs::MetricsRegistry::global();
    obs::Counter& flushes = reg.counter("rsp_wal_flush_total", "");
    uint64_t last = flushes.value();
    int quiet = 0;
    for (int i = 0; i < 100 && quiet < 3; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      uint64_t now = flushes.value();
      quiet = now == last ? quiet + 1 : 0;
      last = now;
    }
  }

  ~Rig() {
    if (cnode != nullptr && client) {
      kv::KvClient* c = client.get();
      net::TcpNode* n = cnode;
      // Quiesce and detach on the loop so no reply reaches a dying client.
      on_loop([c, n] {
        c->cancel_all(Status::timeout("bench teardown"));
        n->set_handler(nullptr);
      });
      on_loop([] {});
    }
    wait_wal_idle();
    client.reset();
    cluster.reset();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
      settle_fs(dir.parent_path());
    }
  }

  /// Commits the filesystem journal now, so the cost of freeing this run's
  /// WAL blocks (online discard on ext4 mounted with `discard`) is paid here,
  /// outside every timed region, not by the next cluster's first fsyncs.
  static void settle_fs(const fs::path& dir) {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return;
    ::syncfs(fd);
    ::close(fd);
  }
};

node::TcpClusterOptions cluster_options(const Workload& w, const fs::path& dir) {
  node::TcpClusterOptions o;
  o.num_servers = 5;
  o.f = 1;  // θ(3,5), QR = QW = 4
  o.rs_mode = true;
  o.num_groups = w.groups;
  o.reactors = 1;
  o.num_clients = 1;
  o.data_dir = dir.string();
  o.kv.batch_window = 200;  // µs
  return o;
}

/// Start → leaders of every group elected → every key preloaded.
std::unique_ptr<Rig> setup(const Args& a, const Values& vals, int index, double* secs) {
  auto rig = std::make_unique<Rig>();
  rig->dir = fs::absolute(fs::path(a.data_dir) /
                          ("run-" + std::to_string(::getpid()) + "-" + std::to_string(index)));
  std::error_code ec;
  fs::remove_all(rig->dir, ec);

  int64_t t0 = now_ns();
  for (int attempt = 0; attempt < 5 && !rig->cluster; ++attempt) {
    auto started = node::TcpCluster::start(cluster_options(*a.w, rig->dir));
    if (started.is_ok()) {
      rig->cluster = std::move(started).value();
    } else {
      std::fprintf(stderr, "rspbench: cluster start failed (%s), retrying\n",
                   started.status().to_string().c_str());
      fs::remove_all(rig->dir, ec);
    }
  }
  if (!rig->cluster) return nullptr;

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (uint32_t g = 0; g < a.w->groups; ++g) {
    while (rig->cluster->leader_server_of(g) < 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        std::fprintf(stderr, "rspbench: no leader for group %u\n", g);
        return nullptr;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  auto cnode = rig->cluster->start_client();
  if (!cnode.is_ok()) return nullptr;
  rig->cnode = cnode.value();
  rig->client = std::make_unique<kv::KvClient>(rig->cnode, rig->cluster->routing(),
                                               kv::KvClient::Options{});
  kv::KvClient* c = rig->client.get();
  net::TcpNode* n = rig->cnode;
  rig->on_loop([n, c] { n->set_handler(c); });

  std::atomic<int> acked{0};
  std::atomic<int> bad{0};
  std::promise<void> all;
  auto fut = all.get_future();
  rig->on_loop([&] {
    for (uint32_t k = 0; k < kKeys; ++k) {
      c->put(vals.key_name(k), vals.make(k, 'p', k), [&](Status s) {
        if (!s.is_ok()) bad.fetch_add(1);
        if (acked.fetch_add(1) + 1 == kKeys) all.set_value();
      });
    }
  });
  if (fut.wait_for(std::chrono::seconds(90)) != std::future_status::ready || bad.load() != 0) {
    std::fprintf(stderr, "rspbench: preload failed (%d acked, %d bad)\n", acked.load(),
                 bad.load());
    // The rig destructor cancels what is still outstanding; the callbacks
    // above must not outlive this frame, so cancel explicitly first.
    rig->on_loop([c] { c->cancel_all(Status::timeout("preload abort")); });
    return nullptr;
  }
  *secs = static_cast<double>(now_ns() - t0) / 1e9;
  return rig;
}

// ---------------------------------------------------------------------------
// One open-loop phase over a pre-generated schedule. All mutation happens on
// the client loop; the main thread only starts it and waits.

enum OpState : uint8_t { kPending, kOk, kFailed, kShed, kCancelled, kWrongValue };

struct OpRec {
  int64_t call_ns = 0;
  int64_t done_ns = 0;
  uint32_t bytes = 0;
  uint8_t state = kPending;
};

class Phase {
 public:
  Phase(Rig& rig, const Values& vals, std::vector<Arrival> arrivals, char tag,
        uint64_t seq_base, SpanLog* spans)
      : rig_(rig),
        vals_(vals),
        arr_(std::move(arrivals)),
        recs_(arr_.size()),
        tag_(tag),
        seq_base_(seq_base),
        spans_(spans) {}

  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Runs the phase to completion. Ops still open `drain_s` after the last
  /// arrival are cancelled (they count as failed). Returns when every op is
  /// resolved and no timer of this phase remains armed.
  void run(double nominal_s, double drain_s) {
    auto fut = done_.get_future();
    if (arr_.empty()) return;
    rig_.cnode->loop().post([this] {
      start_ns_ = now_ns() + 1000000;  // first arrival no earlier than +1 ms
      arm(1000);
    });
    auto limit = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(static_cast<int64_t>((nominal_s + drain_s) * 1e3));
    if (fut.wait_until(limit) != std::future_status::ready) {
      std::fprintf(stderr, "rspbench: phase drain timeout, cancelling\n");
      kv::KvClient* c = rig_.client.get();
      rig_.on_loop([this, c] {
        stopped_ = true;
        if (timer_ != 0) rig_.cnode->loop().cancel(timer_);
        timer_ = 0;
        for (size_t i = next_; i < arr_.size(); ++i) resolve(i, kCancelled, 0, 0);
        next_ = arr_.size();
        c->cancel_all(Status::timeout("phase drain deadline"));
      });
      fut.wait();
    }
    // resolve() can complete the phase from inside pump(); let that task
    // return before the caller destroys this object.
    rig_.on_loop([] {});
  }

  const std::vector<Arrival>& arrivals() const { return arr_; }
  const std::vector<OpRec>& recs() const { return recs_; }
  int64_t start_ns() const { return start_ns_; }
  int64_t last_call_ns() const { return last_call_ns_; }

 private:
  void arm(int64_t delay_us) {
    timer_ = rig_.cnode->loop().schedule(delay_us, [this] {
      timer_ = 0;
      pump();
    });
  }

  void pump() {
    if (stopped_) return;
    int64_t now = now_ns();
    while (next_ < arr_.size() && start_ns_ + arr_[next_].t_ns <= now) send_op(next_++);
    if (next_ < arr_.size()) {
      int64_t wait_us = (start_ns_ + arr_[next_].t_ns - now_ns()) / 1000;
      arm(std::max<int64_t>(0, wait_us));
    }
  }

  void send_op(size_t i) {
    const Arrival& a = arr_[i];
    kv::KvClient* c = rig_.client.get();
    int64_t call = now_ns();
    recs_[i].call_ns = call;
    last_call_ns_ = call;
    if (c->queued() >= kMaxClientQueue) {
      resolve(i, kShed, call, 0);
      return;
    }
    if (a.get) {
      c->get(vals_.key_name(a.key), [this, i](StatusOr<Bytes> r) {
        int64_t done = now_ns();
        if (!r.is_ok()) {
          resolve(i, kFailed, done, 0);
          return;
        }
        char tag = 0;
        uint64_t seq = 0;
        bool good = vals_.check(arr_[i].key, r.value(), &tag, &seq);
        resolve(i, good ? kOk : kWrongValue, done, static_cast<uint32_t>(r.value().size()));
      });
    } else {
      Bytes v = vals_.make(a.key, tag_, seq_base_ + i);
      uint32_t size = static_cast<uint32_t>(v.size());
      c->put(vals_.key_name(a.key), std::move(v), [this, i, size](Status s) {
        resolve(i, s.is_ok() ? kOk : kFailed, now_ns(), size);
      });
    }
  }

  void resolve(size_t i, uint8_t state, int64_t done, uint32_t bytes) {
    OpRec& r = recs_[i];
    if (r.state != kPending) return;
    r.state = state;
    r.done_ns = done;
    r.bytes = bytes;
    if (spans_ != nullptr && state == kOk) {
      int64_t intended = start_ns_ + arr_[i].t_ns;
      uint64_t trace = seq_base_ + i + 1;
      uint64_t root = spans_->add(trace, 0, "request", intended, done);
      spans_->add(trace, root, "client_wait", intended, r.call_ns);
      spans_->add(trace, root, "service", r.call_ns, done);
    }
    if (++resolved_ == arr_.size()) done_.set_value();
  }

  Rig& rig_;
  const Values& vals_;
  std::vector<Arrival> arr_;
  std::vector<OpRec> recs_;
  char tag_;
  uint64_t seq_base_;
  SpanLog* spans_;
  std::promise<void> done_;
  int64_t start_ns_ = 0;
  int64_t last_call_ns_ = 0;
  size_t next_ = 0;
  size_t resolved_ = 0;
  bool stopped_ = false;
  EventLoop::TimerId timer_ = 0;
};

// ---------------------------------------------------------------------------
// Registry deltas: counters are summed over every label set and differenced;
// histogram families are reset at the window start and read at its end.

const char* const kCounters[] = {
    "rsp_net_bytes_sent",
    "rsp_net_msgs_sent",
    "rsp_net_send_drops_total",
    "rsp_net_reconnects_total",
    "rsp_wal_bytes_durable",
    "rsp_wal_flush_total",
    "rsp_consensus_commits_total",
    "rsp_consensus_accepts_sent_total",
    "rsp_consensus_elections_started_total",
    "rsp_kv_puts_total",
    "rsp_kv_batches_committed_total",
    "rsp_kv_fast_reads_total",
    "rsp_kv_consistent_reads_total",
    "rsp_kv_recovery_reads_total",
    "rsp_kv_redirects_total",
    "rsp_kv_wrong_shard_total",
    "rsp_admission_shed_total",
    "rsp_client_overload_backoffs_total",
    "rsp_ec_encode_total",
    "rsp_ec_encode_bytes",
    "rsp_ec_decode_total",
};

const char* const kHistograms[] = {
    "rsp_commit_quorum_wait_us", "rsp_commit_apply_us",   "rsp_commit_total_us",
    "rsp_ec_encode_us",          "rsp_wal_fsync_us",      "rsp_wal_batch_records",
    "rsp_net_frames_per_writev", "rsp_net_send_stall_us",
};

std::map<std::string, uint64_t> counter_sums() {
  auto& reg = obs::MetricsRegistry::global();
  std::map<std::string, uint64_t> out;
  for (const char* name : kCounters) {
    uint64_t sum = 0;
    reg.counter_family(name, "").for_each(
        [&sum](const std::vector<std::string>&, const obs::Counter& c) { sum += c.value(); });
    out[name] = sum;
  }
  return out;
}

void reset_histograms() {
  auto& reg = obs::MetricsRegistry::global();
  for (const char* name : kHistograms) reg.histogram_family(name, "").reset();
}

Histogram histogram_total(const char* name) {
  Histogram h;
  obs::MetricsRegistry::global().histogram_family(name, "").for_each(
      [&h](const std::vector<std::string>&, const obs::HistogramMetric& m) {
        h.merge(m.snapshot());
      });
  return h;
}

double cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// JSON output helpers.

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string o = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o + "\"";
}

/// Exact percentile (linear interpolation between closest ranks) of a sorted
/// sample, in µs.
double pct_us(const std::vector<int64_t>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0;
  double pos = q * static_cast<double>(sorted_ns.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, sorted_ns.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(sorted_ns[lo]) * (1 - frac) +
          static_cast<double>(sorted_ns[hi]) * frac) /
         1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::string dist_json(std::vector<int64_t> ns) {
  std::sort(ns.begin(), ns.end());
  return "{\"p50\": " + num(pct_us(ns, 0.50)) + ", \"p90\": " + num(pct_us(ns, 0.90)) +
         ", \"p99\": " + num(pct_us(ns, 0.99)) + ", \"p999\": " + num(pct_us(ns, 0.999)) +
         ", \"count\": " + std::to_string(ns.size()) + "}";
}

struct WindowStats {
  std::string json;
  double cpu_us = 0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t wrong_values = 0;
};

/// Summary of one measured window: client-side latencies and counts, process
/// CPU, and registry deltas.
WindowStats summarize(const Phase& p, const Workload& w, double seconds, double cpu0,
                      double cpu1, const std::map<std::string, uint64_t>& c0,
                      const std::map<std::string, uint64_t>& c1, uint64_t timeouts) {
  std::vector<int64_t> put_ns, get_ns, wait_ns, serv_ns;
  uint64_t ok = 0, failed = 0, shed = 0, cancelled = 0, wrong = 0;
  uint64_t puts_ok = 0, gets_ok = 0, put_bytes = 0, get_bytes = 0;
  const auto& arr = p.arrivals();
  const auto& recs = p.recs();
  for (size_t i = 0; i < arr.size(); ++i) {
    const OpRec& r = recs[i];
    int64_t intended = p.start_ns() + arr[i].t_ns;
    switch (r.state) {
      case kOk:
        ++ok;
        (arr[i].get ? get_ns : put_ns).push_back(r.done_ns - intended);
        wait_ns.push_back(r.call_ns - intended);
        serv_ns.push_back(r.done_ns - r.call_ns);
        if (arr[i].get) {
          ++gets_ok;
          get_bytes += r.bytes;
        } else {
          ++puts_ok;
          put_bytes += r.bytes;
        }
        break;
      case kShed: ++shed; break;
      case kCancelled: ++cancelled; break;
      case kWrongValue: ++wrong; break;
      default: ++failed; break;
    }
  }
  double active_s = p.last_call_ns() > p.start_ns()
                        ? static_cast<double>(p.last_call_ns() - p.start_ns()) / 1e9
                        : seconds;
  std::string j = "{";
  j += "\"seconds\": " + num(seconds);
  j += ", \"target_qps\": " + num(w.put_qps + w.get_qps);
  j += ", \"offered_qps\": " + num(static_cast<double>(arr.size()) / active_s);
  j += ", \"attempted\": " + std::to_string(arr.size());
  j += ", \"ok\": " + std::to_string(ok);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"client_shed\": " + std::to_string(shed);
  j += ", \"cancelled\": " + std::to_string(cancelled);
  j += ", \"wrong_values\": " + std::to_string(wrong);
  j += ", \"puts_ok\": " + std::to_string(puts_ok);
  j += ", \"gets_ok\": " + std::to_string(gets_ok);
  j += ", \"put_value_bytes\": " + std::to_string(put_bytes);
  j += ", \"get_value_bytes\": " + std::to_string(get_bytes);
  j += ", \"cpu_us\": " + num(cpu1 - cpu0);
  j += ", \"client_timeouts\": " + std::to_string(timeouts);
  j += ", \"put_us\": " + dist_json(std::move(put_ns));
  j += ", \"get_us\": " + dist_json(std::move(get_ns));
  j += ", \"client_wait_us\": " + dist_json(std::move(wait_ns));
  j += ", \"service_us\": " + dist_json(std::move(serv_ns));
  j += ", \"counters\": {";
  bool first = true;
  for (const auto& [name, v1] : c1) {
    uint64_t v0 = c0.count(name) ? c0.at(name) : 0;
    j += (first ? "" : ", ") + quoted(name) + ": " + std::to_string(v1 - v0);
    first = false;
  }
  j += "}, \"histograms\": {";
  first = true;
  for (const char* name : kHistograms) {
    Histogram h = histogram_total(name);
    j += (first ? "" : ", ") + quoted(name) + ": {\"p50\": " +
         std::to_string(h.value_at(0.5)) + ", \"p99\": " + std::to_string(h.value_at(0.99)) +
         ", \"count\": " + std::to_string(h.count()) + ", \"sum\": " + num(h.sum()) + "}";
    first = false;
  }
  j += "}}";
  return WindowStats{std::move(j), cpu1 - cpu0, arr.size(), ok, wrong};
}

/// Runs one window of `seconds` on `rig`, with arrivals drawn from
/// `arrival_seed`, and summarizes it. `phase_no` keeps the values written and
/// the span trace ids of every window distinct.
WindowStats measure(Rig& rig, const Values& vals, const Workload& w, double seconds,
                    uint64_t arrival_seed, uint64_t phase_no, SpanLog* spans,
                    std::set<uint32_t>* touched) {
  std::vector<Arrival> arr = make_arrivals(w, seconds, arrival_seed);
  for (const Arrival& x : arr) {
    if (!x.get) touched->insert(x.key);
  }
  Phase phase(rig, vals, std::move(arr), 'w', phase_no << 32, spans);
  uint64_t to0 = 0, to1 = 0;
  kv::KvClient* c = rig.client.get();
  rig.on_loop([&] { to0 = c->stats().timeouts; });
  reset_histograms();
  auto c0 = counter_sums();
  double cpu0 = cpu_us();
  phase.run(seconds, 30);
  double cpu1 = cpu_us();
  auto c1 = counter_sums();
  rig.on_loop([&] { to1 = c->stats().timeouts; });
  return summarize(phase, w, seconds, cpu0, cpu1, c0, c1, to1 - to0);
}

// ---------------------------------------------------------------------------
// Correctness gate: a distinct value to every touched key, then a
// consistent_get of every key in every group.

struct GateResult {
  bool ok = true;
  uint64_t writes = 0;
  uint64_t reads = 0;
  uint64_t failed_ops = 0;
  uint64_t mismatches = 0;

  GateResult& operator+=(const GateResult& o) {
    ok = ok && o.ok;
    writes += o.writes;
    reads += o.reads;
    failed_ops += o.failed_ops;
    mismatches += o.mismatches;
    return *this;
  }
};

GateResult run_gate(Rig& rig, const Values& vals, const std::set<uint32_t>& touched) {
  GateResult g;
  kv::KvClient* c = rig.client.get();
  std::vector<uint32_t> keys(touched.begin(), touched.end());
  std::atomic<size_t> left{keys.size()};
  std::atomic<uint64_t> failed{0};
  {
    std::promise<void> all;
    auto fut = all.get_future();
    if (keys.empty()) all.set_value();
    rig.on_loop([&] {
      for (uint32_t k : keys) {
        c->put(vals.key_name(k), vals.make(k, 'g', k), [&](Status s) {
          if (!s.is_ok()) failed.fetch_add(1);
          if (left.fetch_sub(1) == 1) all.set_value();
        });
      }
    });
    if (fut.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      rig.on_loop([c] { c->cancel_all(Status::timeout("gate writes")); });
    }
  }
  g.writes = keys.size();

  std::vector<int> verdict(kKeys, 0);  // 1 ok, 2 failed read, 3 mismatch
  std::atomic<int> reads_left{kKeys};
  {
    std::promise<void> all;
    auto fut = all.get_future();
    rig.on_loop([&] {
      for (uint32_t k = 0; k < kKeys; ++k) {
        c->consistent_get(vals.key_name(k), [&, k](StatusOr<Bytes> r) {
          int v = 2;
          if (r.is_ok()) {
            char tag = 0;
            uint64_t seq = 0;
            bool want_gate = touched.count(k) != 0;
            bool good = vals.check(k, r.value(), &tag, &seq) && seq == k &&
                        tag == (want_gate ? 'g' : 'p');
            v = good ? 1 : 3;
          }
          verdict[k] = v;
          if (reads_left.fetch_sub(1) == 1) all.set_value();
        });
      }
    });
    if (fut.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
      rig.on_loop([c] { c->cancel_all(Status::timeout("gate reads")); });
    }
  }
  g.reads = kKeys;
  g.failed_ops = failed.load();
  for (uint32_t k = 0; k < kKeys; ++k) {
    if (verdict[k] == 3) {
      ++g.mismatches;
      if (g.mismatches <= 5) std::fprintf(stderr, "rspbench: gate mismatch on k-%u\n", k);
    } else if (verdict[k] != 1) {
      ++g.failed_ops;
    }
  }
  g.ok = g.failed_ops == 0 && g.mismatches == 0;
  return g;
}

// ---------------------------------------------------------------------------
// Probes of the layers' public functions at the workload's shape (traced run).

/// Times `fn` `iters` times, one span each; returns the median in µs.
template <typename Fn>
double timed(SpanLog& log, const char* name, int iters, Fn fn) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(iters));
  uint64_t trace = log.next_id;
  for (int i = 0; i < iters; ++i) {
    int64_t s = now_ns();
    fn();
    int64_t e = now_ns();
    log.add(trace, 0, name, s, e);
    us.push_back(static_cast<double>(e - s) / 1e3);
  }
  return median(std::move(us));
}

/// Probe results. A probe that could not run, or whose call went wrong,
/// leaves its value NaN (written as null) and records why in `errors`.
struct Probes {
  static constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
  double encode_us = kNone, encode_mbps = kNone, decode_us = kNone, append_us = kNone,
         rtt_us = kNone;
  bool decode_intact = true;  // false: decode returned wrong bytes (a program fault)
  std::map<std::string, std::string> errors;  // raw probe key -> reason
};

void probe_ec(const Workload& w, SpanLog& log, Probes* out) {
  const ec::EcPolicy& pol = ec::PolicyCache::get(ec::CodeId::kRs, 3, 5);
  Bytes value(w.value_bytes);
  Rng(7).fill(value.data(), value.size());
  size_t share = pol.share_size(value.size());
  std::vector<Bytes> shares(5, Bytes(share));
  std::vector<uint8_t*> dsts;
  for (auto& s : shares) dsts.push_back(s.data());
  int iters = w.value_bytes >= 65536 ? 400 : 4000;
  out->encode_us = timed(log, "probe_ec_encode", iters,
                         [&] { pol.encode_into(BytesView(value), dsts.data()); });
  out->encode_mbps = static_cast<double>(value.size()) / out->encode_us;  // bytes/µs = MB/s
  // Shares 0, 1 (systematic) and 3 (parity): the solve kernel must run.
  std::map<int, Bytes> have{{0, shares[0]}, {1, shares[1]}, {3, shares[3]}};
  bool failed = false;
  double us = timed(log, "probe_ec_decode", iters, [&] {
    auto r = pol.decode(have, value.size());
    if (!r.is_ok()) {
      failed = true;
    } else if (r.value() != value) {
      out->decode_intact = false;
    }
  });
  if (failed) {
    out->errors["ec_decode_us"] = "EcPolicy::decode returned an error";
  } else if (!out->decode_intact) {
    out->errors["ec_decode_us"] = "EcPolicy::decode returned bytes that differ from the value";
  } else {
    out->decode_us = us;
  }
}

void probe_wal(const Workload& w, const fs::path& dir, SpanLog& log, Probes* out) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  auto wal = storage::FileWal::open((dir / "probe.wal").string());
  if (!wal.is_ok()) {
    out->errors["wal_append_us"] = "FileWal::open failed: " + wal.status().to_string();
    return;
  }
  size_t record = ec::PolicyCache::get(ec::CodeId::kRs, 3, 5).share_size(w.value_bytes);
  Bytes rec(record, 0x5a);
  std::string err;
  double us = timed(log, "probe_wal_append", 200, [&] {
    if (!err.empty()) return;
    auto durable = std::make_shared<std::promise<Status>>();
    auto fut = durable->get_future();
    wal.value()->append(rec, [durable](Status st) { durable->set_value(st); });
    if (fut.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
      err = "a FileWal append was not durable within 10 s";
    } else if (Status st = fut.get(); !st.is_ok()) {
      err = "FileWal append failed: " + st.to_string();
    }
  });
  if (err.empty()) {
    out->append_us = us;
  } else {
    out->errors["wal_append_us"] = err;
  }
}

/// Echo handler for the loopback round-trip probe.
class Echo final : public MessageHandler {
 public:
  explicit Echo(NodeContext* self) : self_(self) {}
  void on_message(NodeId from, MsgType type, BytesView payload) override {
    if (type == MsgType::kTestPing) {
      self_->send(from, MsgType::kTestPong, Bytes(payload.begin(), payload.end()));
    } else if (type == MsgType::kTestPong && pong_ != nullptr) {
      pong_->set_value();
    }
  }
  std::promise<void>* pong_ = nullptr;  // set by the prober between round trips

 private:
  NodeContext* self_;
};

void probe_net(const Workload& w, SpanLog& log, Probes* out) {
  auto ports = net::TcpTransport::free_ports(2);
  if (ports.size() != 2) {
    out->errors["net_rtt_us"] = "no free loopback ports";
    return;
  }
  std::map<net::HostId, net::PeerAddr> addrs{{0, {"127.0.0.1", ports[0]}},
                                              {1, {"127.0.0.1", ports[1]}}};
  auto t = std::make_unique<net::TcpTransport>(addrs);
  auto a = t->start_node(0);
  auto b = t->start_node(1);
  if (!a.is_ok() || !b.is_ok()) {
    out->errors["net_rtt_us"] =
        "TcpTransport::start_node failed: " + (a.is_ok() ? b : a).status().to_string();
    return;
  }
  Echo ea(a.value()), eb(b.value());
  a.value()->set_handler(&ea);
  b.value()->set_handler(&eb);
  size_t frame = ec::PolicyCache::get(ec::CodeId::kRs, 3, 5).share_size(w.value_bytes);
  Bytes payload(frame, 0x33);
  net::TcpNode* an = a.value();
  bool lost = false;
  double us = timed(log, "probe_net_rtt", 500, [&] {
    if (lost) return;
    std::promise<void> pong;
    auto fut = pong.get_future();
    an->loop().post([&] {
      ea.pong_ = &pong;
      an->send(1, MsgType::kTestPing, payload);
    });
    if (fut.wait_for(std::chrono::seconds(2)) != std::future_status::ready) lost = true;
    std::promise<void> cleared;
    an->loop().post([&] {
      ea.pong_ = nullptr;
      cleared.set_value();
    });
    cleared.get_future().wait();
  });
  if (lost) {
    out->errors["net_rtt_us"] = "a loopback round trip got no reply within 2 s";
  } else {
    out->rtt_us = us;
  }
  a.value()->set_handler(nullptr);
  b.value()->set_handler(nullptr);
  t.reset();  // join the I/O threads while the echo handlers still exist
}

// ---------------------------------------------------------------------------

std::string fs_type(const fs::path& p) {
  struct statfs sb {};
  if (::statfs(p.c_str(), &sb) != 0) return "unknown";
  switch (static_cast<unsigned long>(sb.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(sb.f_type));
      return buf;
    }
  }
}

const char* sanitizers() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

std::string span_tree_json(const SpanLog& log, size_t from, size_t to) {
  std::string j;
  for (size_t i = from; i < to; ++i) {
    const Span& s = log.spans[i];
    if (!j.empty()) j += ", ";
    j += "{\"trace\": " + std::to_string(s.trace) + ", \"id\": " + std::to_string(s.id) +
         ", \"parent\": " + std::to_string(s.parent) + ", \"name\": " + quoted(s.name) +
         ", \"start_ns\": " + std::to_string(s.start_ns) +
         ", \"dur_us\": " + num(static_cast<double>(s.end_ns - s.start_ns) / 1e3) + "}";
  }
  return j;
}

/// Writes the request spans of the slowest 32 requests plus every 1000th,
/// all probe spans, and the program's slowest built-in commit traces of the
/// same cluster's comparison windows.
void write_spans(const std::string& path, const SpanLog& req, const SpanLog& probes,
                 const std::string& slowest_commits) {
  if (path.empty()) return;
  std::vector<size_t> roots;  // index of each "request" span (3 spans per request)
  for (size_t i = 0; i + 2 < req.spans.size(); i += 3) roots.push_back(i);
  std::vector<size_t> slow = roots;
  auto dur = [&](size_t i) { return req.spans[i].end_ns - req.spans[i].start_ns; };
  size_t k = std::min<size_t>(32, slow.size());
  std::partial_sort(slow.begin(), slow.begin() + static_cast<long>(k), slow.end(),
                    [&](size_t x, size_t y) { return dur(x) > dur(y); });
  slow.resize(k);
  for (size_t i = 0; i < roots.size(); i += 1000) slow.push_back(roots[i]);
  std::string j = "{\"request_spans\": {\"recorded\": " + std::to_string(req.spans.size()) +
                  ", \"slowest_and_sampled\": [";
  for (size_t n = 0; n < slow.size(); ++n) {
    j += (n ? ", [" : "[") + span_tree_json(req, slow[n], slow[n] + 3) + "]";
  }
  j += "]}, \"probe_spans\": [" + span_tree_json(probes, 0, probes.spans.size()) + "]";
  j += ", \"builtin_slowest_commits\": " + slowest_commits + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(j.data(), 1, j.size(), f);
  std::fclose(f);
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    std::string v = argv[i + 1];
    if (k == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a->w = &w;
      }
    } else if (k == "--seed") {
      a->seed = std::stoull(v);
    } else if (k == "--seconds") {
      a->seconds = std::stod(v);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--spans-out") {
      a->spans_out = v;
    } else {
      return false;
    }
  }
  return a->w != nullptr && a->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: rspbench --workload put-1k|put-64k|read-zipf --seed N --seconds S "
                 "[--trace 0|1] [--data-dir D] [--spans-out F]\n");
    return 2;
  }
  std::error_code ec;
  fs::create_directories(a.data_dir, ec);
  Values vals(a.w->value_bytes, a.seed);
  const bool builtin_tracer = obs::Tracer::global().enabled();

  // Sets a cluster up as `rig`, tearing the previous one down first.
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  auto fresh_rig = [&] {
    rig.reset();
    double s = 0;
    rig = setup(a, vals, static_cast<int>(setup_s.size()), &s);
    if (!rig) {
      std::fprintf(stderr, "rspbench: setup %zu failed\n", setup_s.size());
      return false;
    }
    setup_s.push_back(s);
    return true;
  };

  // Warm-up at the workload's rates, then the measured window, then the
  // correctness gate, all on `rig`. Every window replays arrivals drawn from
  // the seed, and each arrival schedule has its own slot under it.
  const double warmup_s = std::min(2.0, a.seconds / 5);
  auto arrival_seed = [&](uint64_t slot) { return a.seed * 16 + slot; };
  GateResult gate;
  std::set<uint32_t> touched;
  auto warm_up = [&](uint64_t slot) {
    measure(*rig, vals, *a.w, warmup_s, arrival_seed(slot), slot, nullptr, &touched);
  };

  // The measured window runs on the process's first cluster, so its memory
  // and CPU do not depend on what earlier clusters left in the allocator.
  if (!fresh_rig()) return 2;
  const int reactors = rig->cluster->reactors();
  warm_up(1);
  WindowStats plain = measure(*rig, vals, *a.w, a.seconds, arrival_seed(2), 2, nullptr, &touched);
  gate += run_gate(*rig, vals, touched);
  double rss = peak_rss_mb();

  SpanLog req_spans, probe_spans;
  std::string traced_json;
  bool decode_intact = true;
  if (a.trace) {
    // CPU comparison on one fresh cluster: every round replays one arrival
    // schedule in all three modes, so a paired difference within a round is
    // free of the drift between rounds and of the cluster's position in the
    // process; the rotated order balances what drift is left within a round.
    const char* const kModes[] = {"plain", "tracer_off", "spans"};
    const double sub_s = a.seconds / (3 * kRounds);
    req_spans.spans.reserve(
        static_cast<size_t>(3 * (a.w->put_qps + a.w->get_qps) * sub_s * kRounds * 1.1) + 64);
    if (!fresh_rig()) return 2;
    touched.clear();
    warm_up(3);
    obs::Tracer::global().clear();
    std::string rounds;
    for (int r = 0; r < kRounds; ++r) {
      for (int k = 0; k < 3; ++k) {
        const int mode = (k + r) % 3;
        obs::Tracer::global().set_enabled(mode == 1 ? false : builtin_tracer);
        uint64_t phase = 16 + 3 * static_cast<uint64_t>(r) + static_cast<uint64_t>(mode);
        WindowStats st = measure(*rig, vals, *a.w, sub_s, arrival_seed(4 + r), phase,
                                 mode == 2 ? &req_spans : nullptr, &touched);
        rounds += std::string(rounds.empty() ? "" : ", ") + "{\"round\": " +
                  std::to_string(r) + ", \"mode\": " + quoted(kModes[mode]) +
                  ", \"cpu_us\": " + num(st.cpu_us) +
                  ", \"attempted\": " + std::to_string(st.attempted) +
                  ", \"ok\": " + std::to_string(st.ok) +
                  ", \"wrong_values\": " + std::to_string(st.wrong_values) + "}";
      }
    }
    obs::Tracer::global().set_enabled(builtin_tracer);
    std::string slowest_commits = obs::Tracer::global().slowest_json(16);
    gate += run_gate(*rig, vals, touched);
    rig.reset();

    Probes probes;
    fs::path probe_dir =
        fs::absolute(fs::path(a.data_dir) / ("probe-" + std::to_string(::getpid())));
    probe_ec(*a.w, probe_spans, &probes);
    probe_wal(*a.w, probe_dir, probe_spans, &probes);
    probe_net(*a.w, probe_spans, &probes);
    fs::remove_all(probe_dir, ec);
    std::string errors;
    for (const auto& [key, why] : probes.errors) {
      errors += (errors.empty() ? "" : ", ") + quoted(key) + ": " + quoted(why);
    }
    traced_json = ", \"cpu_compare\": {\"sub_window_s\": " + num(sub_s) +
                  ", \"windows\": [" + rounds + "]}" +
                  ", \"probes\": {\"ec_encode_us\": " + num(probes.encode_us) +
                  ", \"ec_encode_mbps\": " + num(probes.encode_mbps) +
                  ", \"ec_decode_us\": " + num(probes.decode_us) +
                  ", \"wal_append_us\": " + num(probes.append_us) +
                  ", \"net_rtt_us\": " + num(probes.rtt_us) +
                  ", \"ec_decode_intact\": " + (probes.decode_intact ? "true" : "false") +
                  ", \"errors\": {" + errors + "}}";
    decode_intact = probes.decode_intact;
    write_spans(a.spans_out, req_spans, probe_spans, slowest_commits);
  }

  while (static_cast<int>(setup_s.size()) < kSetups) {
    if (!fresh_rig()) return 2;
  }
  rig.reset();

  std::string out = "{\"header\": {" + bench::bench_meta_json(reactors);
  out += ", \"workload\": " + quoted(a.w->name) + ", \"seed\": " + std::to_string(a.seed);
  out += ", \"build_type\": " + quoted(RSPBENCH_BUILD_TYPE);
  out += ", \"sanitizers\": " + quoted(sanitizers());
  out += ", \"data_dir_fs\": " + quoted(fs_type(fs::absolute(a.data_dir)));
  out += ", \"builtin_tracer\": " + std::string(builtin_tracer ? "true" : "false");
  out += ", \"servers\": 5, \"code\": \"rs theta(3,5)\", \"groups\": " +
         std::to_string(a.w->groups) + ", \"batch_window_us\": 200";
  out += ", \"value_bytes\": " + std::to_string(a.w->value_bytes) +
         ", \"keys\": " + std::to_string(kKeys);
  out += ", \"put_qps\": " + num(a.w->put_qps) + ", \"get_qps\": " + num(a.w->get_qps) +
         ", \"zipf_s\": " + num(a.w->zipf_s) + "}";
  out += ", \"setup_s\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) out += (i ? ", " : "") + num(setup_s[i]);
  out += "], \"peak_rss_mb\": " + num(rss);
  out += ", \"window\": " + plain.json + traced_json;
  out += ", \"gate\": {\"ok\": " + std::string(gate.ok ? "true" : "false") +
         ", \"writes\": " + std::to_string(gate.writes) +
         ", \"reads\": " + std::to_string(gate.reads) +
         ", \"failed_ops\": " + std::to_string(gate.failed_ops) +
         ", \"mismatches\": " + std::to_string(gate.mismatches) + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return gate.ok && decode_intact ? 0 : 1;
}
