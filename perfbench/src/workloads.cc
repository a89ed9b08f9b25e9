#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "api/engine.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/codec/store_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "timed_store.h"
#include "tools/archive.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using aec::Bytes;
using aec::BytesView;
using aec::tools::Archive;

constexpr const char* kCodec = "AE(3,2,5)";
constexpr std::size_t kBlockSize = 4096;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kChunkBytes = 1u << 20;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;

// Blocks live in the in-memory "mem" store. On a shared VM, creating,
// syncing and deleting tens of thousands of 4 KiB block files spreads
// set-up and rebuild times by more than any gate bound allows (the
// file-backed store's own benches cover that path).
constexpr const char* kStore = "mem";

// ingest: per repetition a fresh archive behind an in-process aecd
// Server, which set-up fills with one 4 MiB base file; then one timed
// 32 MiB PUT through a Client, the path `aecc put` takes.
constexpr std::size_t kIngestFileBytes = 32u << 20;
constexpr std::size_t kIngestBaseBytes = 4u << 20;
// serve: 8 × 4 MiB preloaded; 1 closed-loop GET connection + 1 open-loop
// PING probe at 100/s. The archive executor runs one request at a time,
// so a PING waits behind the GET in flight; more GET connections only
// lengthen that queue, not the throughput. The measured time is split
// over kServeSegments fresh archives, so set-up is repeated and its
// median reported like the other workloads.
constexpr int kServeFiles = 8;
constexpr std::size_t kServeFileBytes = 4u << 20;
constexpr int kServeGetConnections = 1;
constexpr double kPingIntervalS = 0.010;
constexpr int kServeSegments = 10;
constexpr auto kServeWarmup = std::chrono::milliseconds(250);
// node_loss: 4 × 8 MiB on a 4-node strand-placed cluster.
constexpr int kLossFiles = 4;
constexpr std::size_t kLossFileBytes = 8u << 20;
constexpr std::uint32_t kLossNodes = 4;
constexpr int kLossArchives = 4;

// Repetition bounds: at least kMinReps (one traced and one untraced
// ingest repetition in a traced run), and no new repetition once the run
// has used kWallCapS.
constexpr int kMinReps = 2;
constexpr double kWallCapS = 120.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string store_spec(bool timed) {
  return timed ? std::string("timed(") + kStore + ")" : kStore;
}

std::string cluster_spec(bool timed) {
  return "cluster(4,strand," + store_spec(timed) + ")";
}

/// Every archive gets its own Engine, so the worker threads' placement on
/// the cores is drawn again for every segment or archive of a run.
std::shared_ptr<aec::Engine> make_engine() {
  aec::EngineConfig config;
  config.threads = kWorkers;
  return std::make_shared<aec::Engine>(config);
}

/// File `index` of the run: bytes drawn from the seed alone.
Bytes seeded_file(std::uint64_t seed, std::uint64_t index, std::size_t bytes) {
  aec::Rng rng(seed * 0x9e3779b97f4a7c15ULL + index + 1);
  return rng.random_block(bytes);
}

std::string file_name(int index) {
  std::string name = "f";
  name += std::to_string(index);
  return name;
}

/// Streams `content` through a FileWriter in 1 MiB chunks (no close).
void write_chunks(aec::tools::FileWriter& writer, BytesView content,
                  std::vector<double>* chunk_us) {
  for (std::size_t off = 0; off < content.size(); off += kChunkBytes) {
    const std::size_t n = std::min(kChunkBytes, content.size() - off);
    const auto start = Clock::now();
    {
      OpSpan span("archive.write");
      writer.write(content.subspan(off, n));
    }
    if (chunk_us != nullptr)
      chunk_us->push_back(seconds_between(start, Clock::now()) * 1e6);
  }
}

/// Reads `name` back through a FileReader and compares every byte with
/// `expected`. Chunk latencies go to `chunk_us`.
bool read_and_verify(Archive& archive, const std::string& name,
                     BytesView expected, std::vector<double>* chunk_us) {
  aec::tools::FileReader reader = archive.open_reader(name);
  std::size_t offset = 0;
  for (;;) {
    const auto start = Clock::now();
    std::optional<BytesView> chunk;
    {
      OpSpan span("archive.read_chunk");
      chunk = reader.next_chunk();
    }
    if (!chunk) return false;
    if (chunk->empty()) break;
    if (chunk_us != nullptr)
      chunk_us->push_back(seconds_between(start, Clock::now()) * 1e6);
    if (offset + chunk->size() > expected.size() ||
        std::memcmp(chunk->data(), expected.data() + offset, chunk->size()) !=
            0)
      return false;
    offset += chunk->size();
  }
  return offset == expected.size();
}

/// Per-layer accounting of the traced repetitions of a run.
struct Trace {
  RegistryDelta registry;
  // Over the traced preloads of node_loss, which are not timed regions.
  RegistryDelta preload;
  std::vector<Span> spans;
  double region_s = 0.0;  // summed wall time of the traced regions
  std::vector<double> write_chunk_us, read_chunk_us, commit_ms, rebuild_ms;
  std::vector<double> client_get_us, client_ping_us, client_put_ms;
  double probe_max_late_us = 0.0;
  std::uint64_t survivor_read_bytes = 0;
  std::uint64_t rebuilt_bytes = 0;
  double peak_node_read_share = 0.0;
};

/// One timed region. When `traced`, spans are recorded and registry
/// deltas accumulated into `trace` for its duration.
class Region {
 public:
  Region(Trace& trace, bool traced) : trace_(trace), traced_(traced) {
    if (!traced_) return;
    trace_.registry.begin();
    SpanLog::global().set_recording(true);
    start_ = Clock::now();
  }
  ~Region() {
    if (!traced_) return;
    trace_.region_s += seconds_between(start_, Clock::now());
    SpanLog::global().set_recording(false);
    trace_.registry.end();
    std::vector<Span> spans = SpanLog::global().take();
    trace_.spans.insert(trace_.spans.end(), spans.begin(), spans.end());
  }
  Region(const Region&) = delete;
  Region& operator=(const Region&) = delete;

 private:
  Trace& trace_;
  bool traced_;
  Clock::time_point start_{};
};

/// Total length of the union of [start, end) intervals.
double union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  std::int64_t lo = 0, hi = -1;
  for (const auto& [start, end] : spans) {
    if (start > hi) {
      if (hi > lo) total += static_cast<double>(hi - lo);
      lo = start;
      hi = end;
    } else {
      hi = std::max(hi, end);
    }
  }
  if (hi > lo) total += static_cast<double>(hi - lo);
  return total;
}

std::vector<Metric> layer_metrics(const Trace& t) {
  std::vector<Metric> out;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    out.push_back({name, value, unit});
  };

  // tools.archive
  add("archive.write_chunk_us.p50", quantile(t.write_chunk_us, 0.50), "us");
  add("archive.write_chunk_us.p99", quantile(t.write_chunk_us, 0.99), "us");
  add("archive.commit_ms", median(t.commit_ms), "ms");
  add("archive.read_chunk_us.p50", quantile(t.read_chunk_us, 0.50), "us");
  add("archive.read_chunk_us.p99", quantile(t.read_chunk_us, 0.99), "us");
  add("archive.rebuild_ms", median(t.rebuild_ms), "ms");

  // core.codec store, from the timed(…) wrapper's spans.
  struct StoreCalls {
    std::uint64_t calls = 0, blocks = 0;
    double busy_ns = 0.0;
    std::vector<double> us;
  };
  std::map<std::string, StoreCalls> store;
  std::vector<std::pair<std::int64_t, std::int64_t>> store_intervals;
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : t.spans) {
    if (s.op != 0) continue;
    StoreCalls& c = store[s.name];
    ++c.calls;
    c.blocks += s.blocks;
    c.busy_ns += static_cast<double>(s.end_ns - s.start_ns);
    c.us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    store_intervals.emplace_back(s.start_ns, s.end_ns);
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  for (const char* method :
       {"put", "put_batch", "get_batch", "get_copy", "flush", "drop_cache"}) {
    const std::string key = std::string("store.") + method;
    const StoreCalls& c = store[key];
    add(key + ".calls", static_cast<double>(c.calls), "count");
    add(key + ".blocks", static_cast<double>(c.blocks), "count");
    add(key + ".busy_s", c.busy_ns / 1e9, "s");
    add(key + ".p50_us", quantile(c.us, 0.50), "us");
    add(key + ".p99_us", quantile(c.us, 0.99), "us");
  }
  add("store.busy_share",
      t.region_s > 0.0 ? union_ns(store_intervals) / 1e9 / t.region_s : 0.0,
      "ratio");

  // api.session + pipeline: parent-call time not covered by store calls.
  // On ingest the parent is the client's PUT, so this also holds the wire
  // and the server's queueing.
  double self_ns = 0.0;
  for (const Span& s : t.spans) {
    if (s.op == 0 || (std::strncmp(s.name, "archive.", 8) != 0 &&
                      std::strcmp(s.name, "net.put") != 0))
      continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> clipped;
    const auto it = children.find(s.op);
    if (it != children.end())
      for (const auto& [start, end] : it->second)
        clipped.emplace_back(std::max(start, s.start_ns),
                             std::min(end, s.end_ns));
    self_ns += static_cast<double>(s.end_ns - s.start_ns) - union_ns(clipped);
  }
  add("session.self_s", self_ns / 1e9, "s");
  const RegistryDelta& r = t.registry;
  // Encode figures also cover the traced preloads; serve has none, so its
  // zero shows that its timed regions bypass encode.
  RegistryDelta write_path = t.registry;
  write_path.merge(t.preload);
  add("encode.batches",
      static_cast<double>(write_path.counter("encode.batches")), "count");
  add("encode.batch_us.p50", write_path.hist_quantile("encode.batch_us", 0.50),
      "us");
  add("pool.tasks_submitted",
      static_cast<double>(r.counter("pool.tasks_submitted")), "count");
  add("pool.queue_wait_us.p50", r.hist_quantile("pool.queue_wait_us", 0.50),
      "us");
  add("pool.queue_wait_us.p99", r.hist_quantile("pool.queue_wait_us", 0.99),
      "us");
  add("repair.waves", static_cast<double>(r.counter("repair.waves")), "count");
  add("repair.steps", static_cast<double>(r.counter("repair.steps")), "count");
  add("repair.wave_us.p50", r.hist_quantile("repair.wave_us", 0.50), "us");
  add("read.prefetch.issued",
      static_cast<double>(r.counter("read.prefetch.issued")), "count");
  add("read.prefetch.hit", static_cast<double>(r.counter("read.prefetch.hit")),
      "count");
  add("read.prefetch.wasted",
      static_cast<double>(r.counter("read.prefetch.wasted")), "count");
  add("read.prefetch.fetch_wait_us.p50",
      r.hist_quantile("read.prefetch.fetch_wait_us", 0.50), "us");

  // net: client-side latency against the server's own request latency.
  // Server quantiles are interpolated inside coarse histogram buckets, so
  // wire + reactor time is the difference of the exact means.
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (double x : v) sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  add("net.client.get_us.p50", quantile(t.client_get_us, 0.50), "us");
  add("net.server.get_us.p50",
      r.hist_quantile("net.req.latency_us.get_file", 0.50), "us");
  add("net.wire_get_us.mean",
      t.client_get_us.empty()
          ? 0.0
          : mean(t.client_get_us) -
                r.hist_mean("net.req.latency_us.get_file"),
      "us");
  add("net.wire_ping_us.mean",
      t.client_ping_us.empty()
          ? 0.0
          : mean(t.client_ping_us) - r.hist_mean("net.req.latency_us.ping"),
      "us");
  add("net.client.ping_us.p50", quantile(t.client_ping_us, 0.50), "us");
  add("net.client.ping_us.p99", quantile(t.client_ping_us, 0.99), "us");
  add("net.server.ping_us.p50", r.hist_quantile("net.req.latency_us.ping", 0.50),
      "us");
  add("net.server.ping_us.p99", r.hist_quantile("net.req.latency_us.ping", 0.99),
      "us");
  add("net.client.put_ms.p50", quantile(t.client_put_ms, 0.50), "ms");
  add("net.server.put_chunk_us.p50",
      r.hist_quantile("net.req.latency_us.put_chunk", 0.50), "us");
  add("net.server.put_chunk_us.p99",
      r.hist_quantile("net.req.latency_us.put_chunk", 0.99), "us");
  add("net.server.put_end_us.p50",
      r.hist_quantile("net.req.latency_us.put_end", 0.50), "us");
  add("net.req.rejected", static_cast<double>(r.counter("net.req.rejected")),
      "count");
  add("net.probe.max_late_us", t.probe_max_late_us, "us");

  // cluster
  add("cluster.survivor_read_bytes",
      static_cast<double>(t.survivor_read_bytes), "bytes");
  add("cluster.rebuilt_bytes", static_cast<double>(t.rebuilt_bytes), "bytes");
  add("cluster.repair_read_amp",
      t.rebuilt_bytes > 0 ? static_cast<double>(t.survivor_read_bytes) /
                                static_cast<double>(t.rebuilt_bytes)
                          : 0.0,
      "ratio");
  add("cluster.peak_node_read_share", t.peak_node_read_share, "ratio");

  // process
  const CpuTimes cpu = cpu_now();
  add("proc.user_s", cpu.user_s, "s");
  add("proc.sys_s", cpu.sys_s, "s");
  add("proc.peak_rss_mib", peak_rss_mib(), "MiB");
  add("hw_cores", static_cast<double>(std::thread::hardware_concurrency()),
      "count");

  add("trace.spans", static_cast<double>(t.spans.size()), "count");
  return out;
}

/// What the repetitions of one kind (untraced or traced) of a run measured.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> op_s;      // primary-op latencies
  double op_bytes = 0.0;         // bytes moved by the primary ops
  std::vector<double> op_mb_s;   // rate of each primary op (serve: segment)
  double op_cpu_s = 0.0;         // process CPU over the primary ops
  double read_bytes = 0.0;       // file bytes read back through the archive
  double read_s = 0.0;
  std::vector<double> probe_us;  // latency probe samples

  double mb_s() const { return median(op_mb_s); }
  double cpu_s_per_gib() const {
    return op_bytes > 0.0 ? op_cpu_s / (op_bytes / kGiB) : 0.0;
  }
};

/// The gated end-to-end metrics; README.md lists what each means on each
/// workload.
std::vector<Metric> end_to_end_metrics(const Samples& s) {
  return {
      {"setup_s", median(s.setup_s), "s"},
      {"mb_s", s.mb_s(), "MiB/s"},
      {"cpu_s_per_gib", s.cpu_s_per_gib(), "s/GiB"},
  };
}

/// Ungated end-to-end figures from the untraced repetitions of a traced
/// run, and the tracing overhead.
void add_untraced_metrics(const Samples& plain, const Samples& traced,
                          std::vector<Metric>& out) {
  out.push_back({"untraced.mb_s", plain.mb_s(), "MiB/s"});
  out.push_back({"untraced.op_p50_ms", quantile(plain.op_s, 0.50) * 1e3, "ms"});
  out.push_back({"untraced.op_p90_ms", quantile(plain.op_s, 0.90) * 1e3, "ms"});
  out.push_back({"untraced.cpu_s_per_gib", plain.cpu_s_per_gib(), "s/GiB"});
  out.push_back({"untraced.probe_p50_us", quantile(plain.probe_us, 0.50), "us"});
  out.push_back({"untraced.probe_p90_us", quantile(plain.probe_us, 0.90), "us"});
  out.push_back({"untraced.read_mb_s",
                 plain.read_s > 0.0 ? plain.read_bytes / kMiB / plain.read_s
                                    : 0.0,
                 "MiB/s"});
  // Positive when tracing slows the primary op down.
  out.push_back({"trace.overhead_share",
                 traced.mb_s() > 0.0 ? plain.mb_s() / traced.mb_s() - 1.0 : 0.0,
                 "ratio"});
}

struct RunState {
  const Options& options;
  ScratchDir scratch;
  Trace trace;
  Samples plain, traced_samples;
  Outcome outcome;
  Clock::time_point run_start = Clock::now();
  double measured_s = 0.0;

  explicit RunState(const Options& o) : options(o) {}

  Samples& at(bool traced) { return traced ? traced_samples : plain; }
  /// ingest alternates untraced and traced repetitions in a traced run.
  bool traced(int rep) const { return options.trace && rep % 2 == 1; }
  /// Traced repetitions and fault-injection runs use the timed(…) store.
  bool wrapped(int rep) const {
    return traced(rep) || options.inject_corruption;
  }
  /// Whether to start another repetition: until `until_s` of measured
  /// time, at least kMinReps, and none once the run has used kWallCapS.
  bool more(int rep, double until_s) const {
    return rep < kMinReps ||
           (measured_s < until_s &&
            seconds_between(run_start, Clock::now()) < kWallCapS);
  }
  void check(bool ok) {
    ++outcome.attempted;
    if (!ok) ++outcome.failed;
  }
  /// A timed read of `bytes` file bytes: its chunk latencies are the
  /// probe (ingest, node_loss), and traced ones also the layer view.
  void add_read(bool traced, double bytes, double seconds,
                const std::vector<double>& chunk_us) {
    Samples& s = at(traced);
    s.read_bytes += bytes;
    s.read_s += seconds;
    measured_s += seconds;
    s.probe_us.insert(s.probe_us.end(), chunk_us.begin(), chunk_us.end());
    if (traced)
      trace.read_chunk_us.insert(trace.read_chunk_us.end(), chunk_us.begin(),
                                 chunk_us.end());
  }
  /// One primary op (put, rebuild) moving `bytes` in `seconds`.
  void add_op(bool traced, double bytes, double seconds, double cpu_s) {
    std::fprintf(stderr, "perfbench: %s op %.3f s\n",
                 options.workload.c_str(), seconds);
    Samples& s = at(traced);
    s.op_s.push_back(seconds);
    s.op_bytes += bytes;
    s.op_mb_s.push_back(seconds > 0.0 ? bytes / kMiB / seconds : 0.0);
    s.op_cpu_s += cpu_s;
    measured_s += seconds;
  }
  /// One root's set-up time.
  void add_setup(bool traced, double setup_s) {
    std::fprintf(stderr, "perfbench: set-up %.3f s\n", setup_s);
    at(traced).setup_s.push_back(setup_s);
  }
  /// Whether segment (serve) or archive (node_loss) `part` of a traced
  /// run is traced: every other one, and by seed parity either the first
  /// or the second, so the traced parts do not always run later.
  bool traced_part(int part) const {
    return options.trace && part % 2 == static_cast<int>(options.seed % 2);
  }
};

/// An in-process aecd Server over `archive`, run on its own thread. It is
/// stopped and joined on every exit from the owner's scope, before the
/// archive it serves is destroyed.
class ServedArchive {
 public:
  explicit ServedArchive(Archive* archive)
      : server_(archive), thread_([this] { server_.run(); }) {}
  ~ServedArchive() {
    server_.shutdown();
    thread_.join();
  }
  ServedArchive(const ServedArchive&) = delete;
  ServedArchive& operator=(const ServedArchive&) = delete;

  aec::net::ClientConfig client_config() const {
    aec::net::ClientConfig config;
    config.port = server_.port();
    config.timeout_ms = 60'000;
    return config;
  }

 private:
  aec::net::Server server_;
  std::thread thread_;
};

/// Creates an archive at `root` over `spec` and writes `sources` into it
/// as files f0, f1, …. With `trace`, the write path is traced: chunk
/// latencies, each close (the commit of a file's last window) and the
/// registry deltas, but no spans.
std::unique_ptr<Archive> preload(const fs::path& root, const std::string& spec,
                                 const std::vector<Bytes>& sources,
                                 Trace* trace) {
  std::unique_ptr<Archive> archive =
      Archive::create(root, kCodec, kBlockSize, make_engine(), spec);
  if (trace != nullptr) trace->preload.begin();
  for (std::size_t f = 0; f < sources.size(); ++f) {
    aec::tools::FileWriter writer =
        archive->begin_file(file_name(static_cast<int>(f)));
    write_chunks(writer, sources[f],
                 trace != nullptr ? &trace->write_chunk_us : nullptr);
    const auto close_start = Clock::now();
    writer.close();
    if (trace != nullptr)
      trace->commit_ms.push_back(
          seconds_between(close_start, Clock::now()) * 1e3);
  }
  if (trace != nullptr) trace->preload.end();
  return archive;
}

// --- ingest -----------------------------------------------------------------
//
// Per repetition: fresh root + create + Server + Client + the base file's
// PUT (set-up); a timed PUT of the seeded file, from PUT_BEGIN until the
// server's PUT_END reply (the writer is closed); then, with the server
// stopped, a byte-checked read-back of both files through the archive,
// whose chunk latencies are the probe.
void run_ingest(RunState& st) {
  // Every repetition puts the same file into a new archive; the codec's
  // cost does not depend on the bytes, so a new file per repetition
  // would only add generation time to the run.
  const Bytes base =
      seeded_file(st.options.seed, 1, kIngestBaseBytes);
  const Bytes source = seeded_file(st.options.seed, 0, kIngestFileBytes);
  for (int rep = 0; st.more(rep, st.options.seconds); ++rep) {
    const bool traced = st.traced(rep);
    const std::string name = file_name(rep);

    const auto setup_start = Clock::now();
    const fs::path root = st.scratch.fresh_root("ingest", rep);
    std::unique_ptr<Archive> archive = Archive::create(
        root, kCodec, kBlockSize, make_engine(), store_spec(st.wrapped(rep)));
    {
      const ServedArchive served(archive.get());
      aec::net::Client client(served.client_config());
      st.check(client.put_bytes("base", base).bytes == base.size());
      st.add_setup(traced, seconds_between(setup_start, Clock::now()));

      Region region(st.trace, traced);
      const CpuTimes cpu0 = cpu_now();
      const auto start = Clock::now();
      aec::net::PutResult put;
      {
        OpSpan span("net.put");
        put = client.put_bytes(name, source);
      }
      const double put_s = seconds_between(start, Clock::now());
      st.check(put.bytes == source.size());
      st.add_op(traced, static_cast<double>(source.size()), put_s,
                cpu_now().total() - cpu0.total());
      if (traced) st.trace.client_put_ms.push_back(put_s * 1e3);
    }

    {
      Region region(st.trace, traced);
      if (st.options.inject_corruption) arm_payload_corruption();
      std::vector<double> chunk_us;
      const auto start = Clock::now();
      st.check(read_and_verify(*archive, name, source, &chunk_us));
      st.add_read(traced, static_cast<double>(source.size()),
                  seconds_between(start, Clock::now()), chunk_us);
    }
    st.check(read_and_verify(*archive, "base", base, nullptr));
  }
}

// --- serve ------------------------------------------------------------------

/// One whole-file GET of file `f`, compared byte for byte with `expected`;
/// `got` is the byte count the server sent.
bool get_and_verify(aec::net::Client& client, std::size_t f,
                    BytesView expected, std::uint64_t& got) {
  std::size_t offset = 0;
  bool same = true;
  got = client.get(file_name(static_cast<int>(f)), [&](BytesView chunk) {
    same = same && offset + chunk.size() <= expected.size() &&
           std::memcmp(chunk.data(), expected.data() + offset, chunk.size()) ==
               0;
    offset += chunk.size();
  });
  return same && got == expected.size();
}

// kServeSegments segments, each over a fresh preloaded archive behind an
// in-process Server: kServeGetConnections closed-loop GET connections
// over a seeded file order (every GET byte-checked) and one open-loop
// PING connection every kPingIntervalS, timed from each ping's intended
// send instant. Each segment gives one GET rate, one CPU cost per GiB and
// one median PING latency.
void run_serve(RunState& st) {
  std::vector<Bytes> sources;
  for (int f = 0; f < kServeFiles; ++f)
    sources.push_back(seeded_file(st.options.seed,
                                  static_cast<std::uint64_t>(f),
                                  kServeFileBytes));
  const auto segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(st.options.seconds / kServeSegments));

  for (int seg = 0; seg < kServeSegments; ++seg) {
    const bool traced = st.traced_part(seg);
    const bool wrapped = traced || st.options.inject_corruption;

    const auto setup_start = Clock::now();
    const fs::path root = st.scratch.fresh_root("serve", seg);
    // Untraced even in a traced run, so that serve's encode figures show
    // that the served load bypasses encode.
    std::unique_ptr<Archive> archive =
        preload(root, store_spec(wrapped), sources, nullptr);
    // Warm-up: one byte-checked read of every file.
    for (int f = 0; f < kServeFiles; ++f)
      st.check(read_and_verify(*archive, file_name(f),
                               sources[static_cast<std::size_t>(f)], nullptr));

    double setup_s = 0.0;
    Clock::time_point teardown_start{};
    std::mutex mu;  // guards the sample vectors and counters below
    std::vector<double> get_s, ping_us;
    std::uint64_t gets = 0, get_failures = 0, pings = 0, ping_failures = 0;
    double get_bytes = 0.0, max_late_us = 0.0;
    {
      const ServedArchive served(archive.get());
      const aec::net::ClientConfig client_config = served.client_config();
      setup_s = seconds_between(setup_start, Clock::now());

      // Warm-up through the server, byte-checked but untimed. Its length
      // is fixed, so it stays out of setup_s.
      {
        aec::net::Client client(client_config);
        const auto until = Clock::now() + kServeWarmup;
        for (std::size_t f = 0; Clock::now() < until; ++f) {
          std::uint64_t got = 0;
          st.check(get_and_verify(client, f % kServeFiles,
                                  sources[f % kServeFiles], got));
        }
      }

      Region region(st.trace, traced);
      if (st.options.inject_corruption) arm_payload_corruption();
      const CpuTimes cpu0 = cpu_now();
      const auto start = Clock::now();
      const auto deadline = start + segment;
      std::vector<std::thread> threads;
      for (int c = 0; c < kServeGetConnections; ++c) {
        threads.emplace_back([&, c] {
          aec::Rng order(st.options.seed * 131 +
                         static_cast<std::uint64_t>(seg * 16 + c));
          std::vector<double> local_s;
          std::uint64_t local_gets = 0, local_failures = 0;
          double local_bytes = 0.0;
          try {
            aec::net::Client client(client_config);
            while (Clock::now() < deadline) {
              const auto f = static_cast<std::size_t>(order.uniform(kServeFiles));
              const auto t0 = Clock::now();
              std::uint64_t got = 0;
              bool same = false;
              {
                OpSpan span("net.get", false);
                same = get_and_verify(client, f, sources[f], got);
              }
              local_s.push_back(seconds_between(t0, Clock::now()));
              ++local_gets;
              if (!same) ++local_failures;
              local_bytes += static_cast<double>(got);
            }
          } catch (const std::exception& e) {
            std::fprintf(stderr, "serve: GET connection %d: %s\n", c, e.what());
            ++local_gets;
            ++local_failures;
          }
          std::lock_guard lock(mu);
          get_s.insert(get_s.end(), local_s.begin(), local_s.end());
          gets += local_gets;
          get_failures += local_failures;
          get_bytes += local_bytes;
        });
      }
      threads.emplace_back([&] {
        std::vector<double> local_us;
        std::uint64_t local_pings = 0, local_failures = 0;
        double local_late = 0.0;
        try {
          aec::net::Client client(client_config);
          for (int k = 0;; ++k) {
            const auto intended =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(kPingIntervalS * k));
            if (intended >= deadline) break;
            std::this_thread::sleep_until(intended);
            local_late = std::max(
                local_late, seconds_between(intended, Clock::now()) * 1e6);
            ++local_pings;
            {
              OpSpan span("net.ping", false);
              client.ping();
            }
            local_us.push_back(seconds_between(intended, Clock::now()) * 1e6);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "serve: PING connection: %s\n", e.what());
          ++local_failures;
        }
        std::lock_guard lock(mu);
        ping_us = std::move(local_us);
        pings = local_pings;
        ping_failures = local_failures;
        max_late_us = local_late;
      });
      for (std::thread& t : threads) t.join();
      const double wall_s = seconds_between(start, Clock::now());
      Samples& samples = st.at(traced);
      samples.op_cpu_s += cpu_now().total() - cpu0.total();
      samples.op_bytes += get_bytes;
      samples.op_mb_s.push_back(get_bytes / kMiB / wall_s);
      samples.read_bytes += get_bytes;
      samples.read_s += wall_s;
      st.measured_s += wall_s;
      teardown_start = Clock::now();
    }

    Samples& samples = st.at(traced);
    samples.op_s.insert(samples.op_s.end(), get_s.begin(), get_s.end());
    samples.probe_us.insert(samples.probe_us.end(), ping_us.begin(),
                            ping_us.end());
    std::fprintf(stderr,
                 "perfbench: serve segment %d: %llu GETs, p50 %.3f ms, "
                 "%.1f MiB/s, ping p50 %.0f us\n",
                 seg, static_cast<unsigned long long>(gets),
                 median(get_s) * 1e3, samples.op_mb_s.back(),
                 median(ping_us));
    if (traced) {
      for (double s : get_s) st.trace.client_get_us.push_back(s * 1e6);
      st.trace.client_ping_us.insert(st.trace.client_ping_us.end(),
                                     ping_us.begin(), ping_us.end());
      st.trace.probe_max_late_us =
          std::max(st.trace.probe_max_late_us, max_late_us);
    }
    st.outcome.attempted += gets + pings;
    st.outcome.failed += get_failures + ping_failures;

    archive.reset();
    st.add_setup(traced,
                 setup_s + seconds_between(teardown_start, Clock::now()));
  }
}

// --- node_loss --------------------------------------------------------------
//
// kLossArchives fresh cluster(4,strand,mem) archives per run, each
// holding 4 × 8 MiB. Each repetition on an archive, with node k = rep mod 4:
//   fail_node(k) → timed byte-checked read of every file → heal_node(k);
//   fail_node(k) → timed rebuild_node(k) → node k must match its
//   pre-failure fingerprint and nothing may stay unrecovered.
// The two steps are separate fail cycles: degraded reads stage repairs
// that replace_node would flush, which would shrink the rebuild's work. A
// checked rebuild leaves the archive as it was before the failure, so the
// next repetition starts from the same content.
void run_node_loss(RunState& st) {
  std::vector<Bytes> sources;
  for (int f = 0; f < kLossFiles; ++f)
    sources.push_back(seeded_file(st.options.seed,
                                  static_cast<std::uint64_t>(f),
                                  kLossFileBytes));

  int rep = 0;
  for (int a = 0; a < kLossArchives; ++a) {
    const bool traced = st.traced_part(a);
    const bool wrapped = traced || st.options.inject_corruption;

    const auto setup_start = Clock::now();
    const fs::path root = st.scratch.fresh_root("node_loss", a);
    // A traced archive's preload gives the write-path layer figures.
    std::unique_ptr<Archive> archive = preload(
        root, cluster_spec(wrapped), sources, traced ? &st.trace : nullptr);
    aec::cluster::ClusterStore& cluster = *archive->cluster();
    std::vector<std::map<std::string, std::uint64_t>> before;
    for (std::uint32_t k = 0; k < kLossNodes; ++k)
      before.push_back(cluster.fingerprint(k));
    cluster.drop_payload_cache();  // fingerprint's get_copy filled it
    const double setup_s = seconds_between(setup_start, Clock::now());

    const double until_s =
        st.options.seconds * (a + 1) / static_cast<double>(kLossArchives);
    for (int on_archive = 0; on_archive == 0 || st.more(rep, until_s);
         ++on_archive, ++rep) {
      const std::uint32_t node = static_cast<std::uint32_t>(rep) % kLossNodes;

      archive->fail_node(node);
      {  // degraded reads
        Region region(st.trace, traced);
        if (st.options.inject_corruption) arm_payload_corruption();
        std::vector<double> chunk_us;
        const auto start = Clock::now();
        for (int f = 0; f < kLossFiles; ++f)
          st.check(read_and_verify(*archive, file_name(f),
                                   sources[static_cast<std::size_t>(f)],
                                   &chunk_us));
        st.add_read(traced, static_cast<double>(kLossFiles * kLossFileBytes),
                    seconds_between(start, Clock::now()), chunk_us);
      }
      archive->heal_node(node);
      // Make the step's writes visible outside the timed regions, so a
      // child store that queues writes does not charge them to the next
      // step.
      cluster.flush();

      archive->fail_node(node);
      const std::vector<aec::cluster::NodeTraffic> traffic0 =
          cluster.traffic();
      aec::RepairReport report;
      double rebuild_s = 0.0, rebuild_cpu_s = 0.0;
      {
        Region region(st.trace, traced);
        const CpuTimes cpu0 = cpu_now();
        const auto start = Clock::now();
        {
          OpSpan span("archive.rebuild");
          report = archive->rebuild_node(node);
          // A rebuilt block a child store still queues has not landed:
          // the rebuild ends when every one has.
          cluster.flush();
        }
        rebuild_s = seconds_between(start, Clock::now());
        rebuild_cpu_s = cpu_now().total() - cpu0.total();
      }
      const std::vector<aec::cluster::NodeTraffic> traffic1 =
          cluster.traffic();
      const std::uint64_t rebuilt =
          traffic1[node].bytes_written - traffic0[node].bytes_written;
      std::uint64_t survivor = 0, peak = 0;
      for (std::uint32_t k = 0; k < kLossNodes; ++k) {
        if (k == node) continue;
        const std::uint64_t read =
            traffic1[k].bytes_read - traffic0[k].bytes_read;
        survivor += read;
        peak = std::max(peak, read);
      }
      st.add_op(traced, static_cast<double>(rebuilt), rebuild_s, rebuild_cpu_s);
      if (traced) {
        st.trace.rebuild_ms.push_back(rebuild_s * 1e3);
        st.trace.survivor_read_bytes += survivor;
        st.trace.rebuilt_bytes += rebuilt;
        st.trace.peak_node_read_share = std::max(
            st.trace.peak_node_read_share,
            survivor > 0 ? static_cast<double>(peak) /
                               static_cast<double>(survivor)
                         : 0.0);
      }
      const bool lost_none =
          report.nodes_unrecovered == 0 && report.edges_unrecovered == 0;
      st.check(lost_none && rebuilt > 0 &&
               cluster.fingerprint(node) == before[node]);
      cluster.drop_payload_cache();
    }

    const auto teardown_start = Clock::now();
    archive.reset();
    st.add_setup(traced,
                 setup_s + seconds_between(teardown_start, Clock::now()));
  }
}

void write_spans(const Options& options, const std::vector<Span>& spans) {
  const fs::path dir = fs::current_path() / ".bench_build" / "traces";
  fs::create_directories(dir);
  const fs::path path = dir / (options.workload + "-seed" +
                               std::to_string(options.seed) + ".jsonl");
  std::ofstream out(path);
  for (const Span& s : spans)
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"blocks\":" << s.blocks << "}\n";
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
               path.c_str());
}

/// key → FNV-1a of every block a sharded(8) store at `root` holds.
std::map<std::string, std::uint64_t> block_set(const fs::path& root) {
  const std::unique_ptr<aec::BlockStore> store =
      aec::make_store("sharded(8)", root);
  std::vector<aec::BlockKey> keys;
  AEC_CHECK(store->for_each_key([&](const aec::BlockKey& k) { keys.push_back(k); }));
  std::map<std::string, std::uint64_t> out;
  for (const aec::BlockKey& key : keys) {
    const std::optional<Bytes> payload = store->get_copy(key);
    if (payload) out[aec::to_string(key)] = aec::fnv1a64(*payload);
  }
  return out;
}

}  // namespace

Outcome run_workload(const Options& options) {
  register_timed_family();
  RunState st(options);
  if (options.workload == "ingest") {
    run_ingest(st);
  } else if (options.workload == "serve") {
    run_serve(st);
  } else if (options.workload == "node_loss") {
    run_node_loss(st);
  } else {
    throw std::invalid_argument("unknown workload '" + options.workload + "'");
  }
  Outcome outcome = std::move(st.outcome);
  outcome.correct = outcome.failed == 0;
  if (options.trace) {
    outcome.metrics = layer_metrics(st.trace);
    add_untraced_metrics(st.plain, st.traced_samples, outcome.metrics);
    write_spans(options, st.trace.spans);
  } else {
    outcome.metrics = end_to_end_metrics(st.plain);
  }
  return outcome;
}

// The selftest wraps the file-backed store: there an Archive reopens from
// disk, so a notification or block the wrapper lost would show.
int run_wrapper_selftest(std::uint64_t seed) {
  register_timed_family();
  ScratchDir scratch;
  const std::shared_ptr<aec::Engine> engine = make_engine();
  const Bytes source = seeded_file(seed, 0, 8u << 20);
  const fs::path plain = scratch.fresh_root("plain", 0);
  const fs::path timed = scratch.fresh_root("timed", 0);

  bool ok = aec::make_store("timed(sharded(8))", scratch.path() / "probe")
                ->thread_safe();
  std::printf("timed store thread_safe: %s\n", ok ? "yes" : "NO");
  std::uint64_t missing[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const fs::path& root = i == 0 ? plain : timed;
    SpanLog::global().set_recording(i == 1);
    {
      auto archive = Archive::create(root, kCodec, kBlockSize, engine,
                                     i == 1 ? "timed(sharded(8))"
                                            : "sharded(8)");
      aec::tools::FileWriter writer = archive->begin_file("f");
      write_chunks(writer, source, nullptr);
      writer.close();
    }
    SpanLog::global().set_recording(false);
    auto archive = Archive::open(root, engine);
    ok = ok && read_and_verify(*archive, "f", source, nullptr);
    archive->inject_damage(0.05, seed);
    missing[i] = archive->missing_blocks();
  }
  const std::size_t spans = SpanLog::global().take().size();
  std::printf("missing_blocks after damage: plain %llu, timed %llu\n",
              static_cast<unsigned long long>(missing[0]),
              static_cast<unsigned long long>(missing[1]));
  std::printf("timed ingest recorded %zu store spans\n", spans);
  ok = ok && missing[0] == missing[1] && missing[0] > 0 && spans > 0;
  const auto plain_blocks = block_set(plain);
  const bool same_blocks = plain_blocks == block_set(timed);
  std::printf("block sets (%zu blocks): %s\n", plain_blocks.size(),
              same_blocks ? "identical" : "DIFFERENT");
  ok = ok && same_blocks && !plain_blocks.empty();
  std::printf("selftest %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace perfbench
