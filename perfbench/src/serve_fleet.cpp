// serve_fleet: the aggregation daemon under a closed-loop shipper fleet.
//
// The traffic has the shape of the repository's shipping caller,
// `commscope replay <trace> --epochs=512 --ship-to=<socket>`
// (maybe_ship_epochs in tools/commscope.cpp): one session per profiled run,
// which connects with hello, ship()s the run's whole sealed timeline, waits
// for the ack and says bye. Payloads are real timelines: once per run,
// ocean_cp and water_nsq (the README's --ship-to examples) are recorded at
// simsmall on 4 threads (record_small) and replayed through a Profiler whose
// flight recorder re-slices the trace into 512 epochs, as `replay --epochs`
// does; 512 is the recorder's default ring depth. Each pass opens an
// in-process ServeServer in a fresh state dir (WAL, default per-n fsync);
// three shipper threads each run a seeded sequence of such sessions back to
// back, each waiting for its ack before the next starts. After shipping, the
// daemon is stopped and re-opened on the same state dir to time recovery.
// Reference passes, which ship the same sessions to a bare endpoint that
// only acknowledges each frame, alternate with the daemon passes, so
// `slowdown` is what the daemon adds to the same traffic.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "core/epoch_io.hpp"
#include "core/profiler.hpp"
#include "core/timeline_report.hpp"
#include "instrument/trace.hpp"
#include "serve/frame.hpp"
#include "serve/journal.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "serve/shipper.hpp"
#include "record.hpp"
#include "spans.hpp"
#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace cc = commscope::core;
namespace ci = commscope::instrument;
namespace csv = commscope::serve;
namespace ctl = commscope::telemetry;
namespace fs = std::filesystem;

constexpr int kShippers = 3;
/// Sessions (profiled runs) each shipper thread ships per pass.
constexpr int kSessionsPerShipper = 100;
/// Epochs per payload timeline: `replay --epochs=512`, the recorder's
/// default ring depth (core::kDefaultEpochRing).
constexpr std::uint32_t kEpochs = 512;
constexpr const char* kPayloadReplicas[] = {"ocean_cp", "water_nsq"};
constexpr const char* kStages[] = {"decode", "dedupe", "merge",
                                   "journal", "ack", "e2e"};

struct Payload {
  std::string name;
  cc::EpochTimeline timeline;  ///< every epoch the recorder sealed
};

struct Pool {
  std::vector<Payload> payloads;
  double profiler_mb = 0.0;  ///< largest payload profiler's memory_bytes()
  std::vector<double> construct_ms;
};

/// Records each payload replica and re-slices its replay into kEpochs
/// epochs, configured as `commscope replay --epochs=512` configures it.
Pool make_pool(Outcome& out) {
  Pool pool;
  for (const char* name : kPayloadReplicas) {
    const std::vector<ci::TraceEvent> events = record_small(name, out);
    std::uint64_t accesses = 0;
    for (const ci::TraceEvent& e : events) {
      if (e.kind == ci::TraceEvent::Kind::kAccess) ++accesses;
    }
    cc::ProfilerOptions o;
    o.max_threads = kThreads;
    o.epoch_accesses =
        std::max<std::uint64_t>(1, (accesses + kEpochs - 1) / kEpochs);
    o.epoch_ring = kEpochs + 1;
    o.epoch_replay = true;
    std::unique_ptr<cc::Profiler> prof;
    pool.construct_ms.push_back(
        time_s([&] { prof = std::make_unique<cc::Profiler>(o); }) * 1e3);
    ci::replay(events, *prof);
    Payload p;
    p.name = name;
    p.timeline = prof->epoch_timeline();
    // Seals land on coalescing-stride multiples, so the count is about,
    // not exactly, kEpochs.
    out.check(p.timeline.dropped == 0 && p.timeline.epochs.size() > kEpochs / 2,
              std::string(name) + ": payload recorder sealed too few epochs");
    pool.profiler_mb = std::max(
        pool.profiler_mb,
        static_cast<double>(prof->memory_bytes()) / 1048576.0);
    pool.payloads.push_back(std::move(p));
  }
  return pool;
}

/// One shipper's traffic for one pass: which payload each of its sessions
/// ships, drawn by the seeded generator.
std::vector<std::size_t> make_traffic(const Pool& pool, std::uint64_t seed) {
  commscope::support::SplitMix64 rng(seed);
  std::vector<std::size_t> sessions(kSessionsPerShipper);
  for (std::size_t& k : sessions) k = rng.next() % pool.payloads.size();
  return sessions;
}

csv::ShipperOptions shipper_options(const std::string& socket,
                                    const fs::path& dir, std::uint64_t id) {
  csv::ShipperOptions o;
  o.socket_path = socket;
  o.session_id = id;
  o.threads = kThreads;
  o.spill_path = (dir / ("spill-" + std::to_string(id) + ".epochs")).string();
  return o;
}

/// Which payload each session of each shipper ships in one pass.
using Traffic = std::vector<std::vector<std::size_t>>;

Traffic pass_traffic(const Pool& pool, std::uint64_t seed,
                     std::uint64_t pass) {
  Traffic traffic;
  for (int s = 0; s < kShippers; ++s) {
    traffic.push_back(make_traffic(
        pool, seed ^ (pass * 0x9e3779b97f4a7c15ull) ^ (0x51ull << s)));
  }
  return traffic;
}

/// Session ids are unique within a pass: the daemon refuses a sealed id.
std::uint64_t session_id(std::uint64_t pass, int shipper, int k) {
  return pass * 1'000'000ull +
         static_cast<std::uint64_t>(shipper) * 100'000ull +
         static_cast<std::uint64_t>(k) + 1;
}

/// The reference endpoint of `slowdown`: it accepts the shippers'
/// connections and acknowledges each epochs frame once the frame is
/// complete, without parsing, merging or journaling it. Shipping the same
/// sessions to it costs the shippers' own work and the socket round trips.
class BareAcker {
 public:
  explicit BareAcker(const std::string& path) : path_(path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0 || path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("reference endpoint: cannot use " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
            0 ||
        ::listen(fd_, 64) != 0) {
      ::close(fd_);
      throw std::runtime_error("reference endpoint: cannot listen on " + path);
    }
    thread_ = std::thread([this] { loop(); });
  }
  ~BareAcker() {
    stop_ = true;
    thread_.join();
    ::close(fd_);
    ::unlink(path_.c_str());
  }
  BareAcker(const BareAcker&) = delete;
  BareAcker& operator=(const BareAcker&) = delete;

 private:
  struct Conn {
    int fd;
    csv::FrameDecoder rx;
  };

  void loop() {
    // Shippers read only the ack's frame type, not its count.
    const std::string ack =
        csv::encode_frame(csv::FrameType::kAck, "0 accepted");
    std::vector<std::unique_ptr<Conn>> conns;
    std::vector<char> buf(1u << 16);
    while (!stop_) {
      std::vector<pollfd> fds{{fd_, POLLIN, 0}};
      for (const auto& c : conns) fds.push_back({c->fd, POLLIN, 0});
      if (::poll(fds.data(), fds.size(), 20) <= 0) continue;
      for (std::size_t i = 1; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Conn& c = *conns[i - 1];
        const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
        bool open = n > 0 && c.rx.feed(buf.data(), static_cast<std::size_t>(n));
        while (open) {
          const std::optional<csv::Frame> f = c.rx.next();
          if (!f) break;
          if (f->type == csv::FrameType::kEpochs) open = send_all(c.fd, ack);
        }
        if (!open) {
          ::close(c.fd);
          c.fd = -1;
        }
      }
      std::erase_if(conns, [](const auto& c) { return c->fd < 0; });
      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd >= 0) {
          conns.push_back(
              std::make_unique<Conn>(Conn{fd, csv::FrameDecoder()}));
        }
      }
    }
    for (const auto& c : conns) ::close(c->fd);
  }

  static bool send_all(int fd, const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  std::string path_;
  int fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Fleet {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< process CPU time while the fleet shipped
  std::vector<double> ack_ms;
  std::uint64_t retries = 0;
  bool failed = false;
};

/// Three shipper threads ship their sessions of `traffic` to `socket`, each
/// session a fresh EpochShipper: ship() (connect, hello, the whole timeline,
/// wait for the ack), then bye(). `traced` records a span per ship() and per
/// bye(); otherwise each thread's session loop is one span.
Fleet ship_fleet(const Pool& pool, const Traffic& traffic,
                 const std::string& socket, const fs::path& dir,
                 std::uint64_t pass, bool traced) {
  Fleet fleet;
  std::vector<std::vector<double>> acks(kShippers);
  std::atomic<int> ready{0};
  std::atomic<bool> failed{false};
  std::atomic<std::uint64_t> retries{0};
  const spans::Span span("serve.fleet", pass, spans::kContainer);
  const std::int64_t parent = span.id();
  std::vector<std::thread> threads;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  for (int s = 0; s < kShippers; ++s) {
    threads.emplace_back([&, s] {
      const spans::Adopt adopt(parent);
      ready.fetch_add(1);
      while (ready.load() < kShippers) std::this_thread::yield();
      std::optional<spans::Span> sessions;
      if (!traced) sessions.emplace("serve.shipper.sessions", pass);
      const std::vector<std::size_t>& mine =
          traffic[static_cast<std::size_t>(s)];
      for (int k = 0; k < kSessionsPerShipper; ++k) {
        const std::uint64_t id = session_id(pass, s, k);
        const cc::EpochTimeline& t =
            pool.payloads[mine[static_cast<std::size_t>(k)]].timeline;
        csv::EpochShipper shipper(shipper_options(socket, dir, id));
        const auto ship = [&] {
          if (!shipper.ship(t)) failed = true;
        };
        double ms = 0.0;
        if (traced) {
          {
            const spans::Span span_ship("serve.shipper.ship", id);
            ms = time_s(ship) * 1e3;
          }
          const spans::Span span_bye("serve.shipper.bye", id);
          shipper.bye();
        } else {
          ms = time_s(ship) * 1e3;
          shipper.bye();
        }
        retries += shipper.stats().retries;
        acks[static_cast<std::size_t>(s)].push_back(ms);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  fleet.wall_s = seconds_since(t0);
  fleet.cpu_s = process_cpu_s() - cpu0;
  for (const std::vector<double>& a : acks) {
    fleet.ack_ms.insert(fleet.ack_ms.end(), a.begin(), a.end());
  }
  fleet.retries = retries.load();
  fleet.failed = failed.load();
  return fleet;
}

/// One reference pass: `traffic` shipped to a BareAcker.
Fleet run_reference(const Pool& pool, const fs::path& dir, std::uint64_t pass,
                    const Traffic& traffic, Outcome& out) {
  const fs::path socket = dir / ("s" + std::to_string(pass) + ".sock");
  fs::remove(socket);
  const BareAcker acker(socket.string());
  const Fleet fleet = ship_fleet(pool, traffic, socket.string(), dir, pass,
                                 false);
  out.check(!fleet.failed, "a ship() to the reference endpoint failed");
  return fleet;
}

struct PassResult {
  double setup_s = 0.0;
  Fleet fleet;
  double output_s = 0.0;
  double recovery_s = 0.0;
  std::uint64_t epochs = 0;
  csv::ServeStats stats;
  double wal_bytes = 0.0;
  double wal_replay_mb_per_s = 0.0;
};

/// One daemon pass: a durable ServeServer in a fresh state dir, the fleet,
/// the output, the WAL checks and the restart.
PassResult run_pass(const Pool& pool, const fs::path& dir, std::uint64_t pass,
                    const Traffic& traffic, bool traced, Outcome& out) {
  PassResult res;
  const fs::path state = dir / ("state-" + std::to_string(pass));
  const fs::path socket = dir / ("s" + std::to_string(pass) + ".sock");
  fs::remove_all(state);
  fs::remove(socket);
  csv::ServeOptions so;
  so.socket_path = socket.string();
  so.state_dir = state.string();

  auto server = std::make_unique<csv::ServeServer>(so);
  {
    const spans::Span span("serve.server.open", pass);
    res.setup_s += time_s([&] {
      if (!server->open()) {
        throw std::runtime_error("serve open failed: " + server->last_error());
      }
    });
  }
  // Stops and joins the event loop on every exit path.
  struct Loop {
    csv::ServeServer* server;
    std::thread thread;
    ~Loop() {
      if (thread.joinable()) {
        server->stop();
        thread.join();
      }
    }
  } loop{server.get(), std::thread([&] { server->run(); })};

  // Set-up: each shipper's first connect + hello, in a session that only
  // says hello and bye.
  for (int s = 0; s < kShippers; ++s) {
    csv::EpochShipper hello(shipper_options(
        so.socket_path, dir, session_id(pass, s, kSessionsPerShipper)));
    {
      const spans::Span span("serve.shipper.hello", pass);
      res.setup_s += time_s([&] { hello.heartbeat(); });
    }
    const spans::Span span("serve.shipper.bye", pass);
    hello.bye();
  }

  res.fleet = ship_fleet(pool, traffic, so.socket_path, dir, pass, traced);
  out.check(!res.fleet.failed, "a ship() was not acknowledged");

  // Exactly once: the merge must equal every shipped session's epochs,
  // each counted once.
  std::vector<std::uint64_t> shipped(pool.payloads.size(), 0);
  for (const std::vector<std::size_t>& sessions : traffic) {
    for (const std::size_t k : sessions) ++shipped[k];
  }
  cc::Matrix truth(kThreads);
  for (std::size_t k = 0; k < pool.payloads.size(); ++k) {
    const cc::EpochTimeline& t = pool.payloads[k].timeline;
    res.epochs += shipped[k] * t.epochs.size();
    for (const cc::EpochSample& e : t.epochs) {
      for (const cc::EpochCell& cell : e.cells) {
        truth.at(cell.producer, cell.consumer) += cell.bytes * shipped[k];
      }
    }
  }

  {
    const spans::Span span("core.output", pass);
    res.output_s = time_s([&] {
      cc::ReportModel model;
      model.title = "serve_fleet";
      model.timeline = server->merged_timeline();
      model.program = server->merged_matrix();
      model.has_program = true;
      std::ofstream ep(dir / "merged.epochs");
      cc::write_epochs(ep, model.timeline);
      std::ofstream html(dir / "merged.html");
      cc::render_html(html, model);
      if (!ep || !html) throw std::runtime_error("cannot write serve output");
    });
  }

  // Every ship was acknowledged, so its record is in the WAL; a graceful
  // stop compacts the WAL into the snapshot, hence the copy before stopping.
  std::string wal_image;
  {
    const spans::Span span("bench.wal_copy", pass);
    wal_image = read_file(state / "wal.log");
  }

  cc::Matrix before;
  {
    const spans::Span span("serve.server.stop", pass);
    server->stop();
    loop.thread.join();
    res.stats = server->snapshot();
    before = server->merged_matrix();
    server.reset();
  }
  out.check(res.stats.epochs_merged == res.epochs,
            "merged " + std::to_string(res.stats.epochs_merged) + " of " +
                std::to_string(res.epochs) + " shipped epochs");
  out.check(before.trimmed(kThreads) == truth,
            "merged matrix is not the sum of the shipped epochs");

  {
    res.wal_bytes = static_cast<double>(wal_image.size());
    {
      const spans::Span span("serve.journal.replay", pass);
      std::uint64_t records = 0;
      csv::WalStop stop = csv::WalStop::kBad;
      const double s = time_s([&] {
        csv::WalReader reader(wal_image);
        while (reader.next()) ++records;
        stop = reader.stop();
      });
      out.check(records > 0 && stop == csv::WalStop::kClean,
                "WAL image does not replay cleanly");
      res.wal_replay_mb_per_s =
          s > 0.0 ? static_cast<double>(wal_image.size()) / 1048576.0 / s : 0.0;
      std::string().swap(wal_image);
    }
    const spans::Span span("serve.server.recover", pass);
    csv::ServeServer again(so);
    bool opened = false;
    res.recovery_s = time_s([&] { opened = again.open(); });
    out.check(opened, "re-open on the populated state dir failed");
    out.check(again.merged_matrix() == before,
              "recovered matrix differs from the matrix before restart");
  }
  fs::remove_all(state);
  fs::remove(socket);
  return res;
}

/// Bare-call probes over one pass's payloads: write_epochs, frame decode,
/// read_epochs, Aggregate::merge and Journal::append, each timed from
/// outside.
struct PayloadProbe {
  double write_ms = 0.0;
  double decode_us = 0.0;
  double parse_us = 0.0;
  double merge_us = 0.0;
  double append_us = 0.0;
  double mb = 0.0;
};

PayloadProbe probe_payloads(const Pool& pool, const fs::path& dir,
                            std::uint64_t seed) {
  const spans::Span span("probe.payloads");
  PayloadProbe p;
  const std::vector<std::size_t> sessions = make_traffic(pool, seed);
  std::vector<std::string> docs;
  double write_s = 0.0;
  for (const std::size_t k : sessions) {
    std::ostringstream os;
    write_s += time_s([&] { cc::write_epochs(os, pool.payloads[k].timeline); });
    docs.push_back(os.str());
    p.mb += static_cast<double>(docs.back().size()) / 1048576.0;
  }
  p.mb /= static_cast<double>(docs.size());
  p.write_ms = write_s * 1e3 / static_cast<double>(docs.size());

  double decode_s = 0.0, parse_s = 0.0, merge_s = 0.0;
  std::uint64_t merged = 0;
  csv::Aggregate agg(512, nullptr);
  for (const std::string& d : docs) {
    const std::string frame = csv::encode_frame(csv::FrameType::kEpochs, d);
    csv::FrameDecoder dec;
    std::optional<csv::Frame> f;
    decode_s += time_s([&] {
      dec.feed(frame.data(), frame.size());
      f = dec.next();
    });
    if (!f) throw std::runtime_error("frame probe: decoder returned nothing");
    cc::EpochTimeline t;
    parse_s += time_s([&] { t = cc::read_epochs(f->payload); });
    merge_s += time_s([&] {
      for (const cc::EpochSample& e : t.epochs) agg.merge(t, e);
    });
    merged += t.epochs.size();
  }
  const double n = static_cast<double>(docs.size());
  p.decode_us = decode_s * 1e6 / n;
  p.parse_us = parse_s * 1e6 / n;
  p.merge_us = merged > 0 ? merge_s * 1e6 / static_cast<double>(merged) : 0.0;

  const fs::path jdir = dir / "journal-probe";
  fs::remove_all(jdir);
  {
    csv::JournalOptions jo;
    jo.dir = jdir.string();
    csv::Journal j(jo);
    std::string snapshot, err;
    std::vector<csv::WalRecord> tail;
    if (!j.recover(snapshot, tail, err) || !j.open(err)) {
      throw std::runtime_error("journal probe: " + err);
    }
    double append_s = 0.0;
    for (const std::string& d : docs) {
      append_s += time_s([&] {
        if (!j.append(csv::WalRecordType::kEpochs, "session 1\n", d, true)) {
          throw std::runtime_error("journal probe: append failed");
        }
      });
    }
    p.append_us = append_s * 1e6 / n;
  }
  fs::remove_all(jdir);
  return p;
}

}  // namespace

Outcome run_serve_fleet(const RunConfig& cfg) {
  Outcome out;
  const fs::path dir = cfg.work_dir / "serve";
  fs::create_directories(dir);
  Pool pool;
  {
    const spans::Span span("serve.payloads");
    pool = make_pool(out);
  }
  std::vector<std::size_t> cells_hist(kThreads * kThreads + 1, 0);
  double cells = 0.0, epochs = 0.0;
  for (const Payload& p : pool.payloads) {
    for (const cc::EpochSample& e : p.timeline.epochs) {
      ++cells_hist[std::min(e.cells.size(), cells_hist.size() - 1)];
      cells += static_cast<double>(e.cells.size());
    }
    epochs += static_cast<double>(p.timeline.epochs.size());
  }
  const double cells_per_epoch = ratio(cells, epochs);
  ctl::reset_all();

  std::vector<PassResult> daemon, plain_daemon, traced_daemon;
  std::vector<double> slowdown;
  const Clock::time_point t_start = Clock::now();
  for (std::uint64_t pass = 0;
       pass < 6 || seconds_since(t_start) < cfg.seconds; ++pass) {
    const spans::Span span("serve.pass", pass, spans::kContainer);
    // Untraced runs alternate daemon passes with reference passes that ship
    // the previous pass's sessions to a BareAcker; traced runs alternate
    // traced and untraced daemon passes.
    if (!cfg.trace && pass % 2 == 1) {
      const Fleet ref = run_reference(
          pool, dir, pass, pass_traffic(pool, cfg.seed, pass - 1), out);
      slowdown.push_back(daemon.back().fleet.wall_s / ref.wall_s);
      continue;
    }
    const bool traced = cfg.trace && pass % 2 == 0;
    Traffic traffic;
    {
      const spans::Span traffic_span("bench.traffic", pass);
      traffic = pass_traffic(pool, cfg.seed, pass);
    }
    PassResult r = run_pass(pool, dir, pass, traffic, traced, out);
    if (cfg.trace) (traced ? traced_daemon : plain_daemon).push_back(r);
    daemon.push_back(std::move(r));
  }

  std::vector<double> setup, cpu_rate, wall_rate, output, recovery, ack;
  for (const PassResult& r : daemon) {
    setup.push_back(r.setup_s);
    cpu_rate.push_back(static_cast<double>(r.epochs) / r.fleet.cpu_s);
    wall_rate.push_back(static_cast<double>(r.epochs) / r.fleet.wall_s);
    output.push_back(r.output_s);
    recovery.push_back(r.recovery_s);
    ack.insert(ack.end(), r.fleet.ack_ms.begin(), r.fleet.ack_ms.end());
  }

  std::printf("serve_fleet: %zu daemon passes, %d shippers x %d sessions "
              "(hello, one ship() of a whole timeline, bye)\n",
              daemon.size(), kShippers, kSessionsPerShipper);
  for (const Payload& p : pool.payloads) {
    std::printf("  payload %s: %zu epochs\n", p.name.c_str(),
                p.timeline.epochs.size());
  }
  std::printf("  cells-per-epoch histogram (mean %.2f):", cells_per_epoch);
  for (std::size_t i = 0; i < cells_hist.size(); ++i) {
    if (cells_hist[i] > 0) std::printf(" %zu:%zu", i, cells_hist[i]);
  }
  std::printf("\n");

  if (!cfg.trace) {
    out.put("setup_s", median(setup), "s");
    out.put("slowdown", median(slowdown), "x");
    out.put("profiler_mb", pool.profiler_mb, "MB");
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    out.note("merged_epochs_per_s", median(wall_rate), "1/s");
    out.note("merged_epochs_per_cpu_s", median(cpu_rate), "1/s");
    out.note("output_s", median(output), "s");
    out.note("ack_p50_ms", quantile(ack, 0.5), "ms");
    out.note("ack_p99_ms", quantile(ack, 0.99), "ms");
    out.note("ack_samples", static_cast<double>(ack.size()), "count");
    out.note("recovery_s", median(recovery), "s");
    return out;
  }

  std::vector<double> traced_ack, traced_wall, plain_wall, wal_mb, replay_rate;
  double retries = 0.0, ships = 0.0, fsyncs = 0.0, merged = 0.0, dups = 0.0;
  for (const PassResult& r : traced_daemon) {
    traced_ack.insert(traced_ack.end(), r.fleet.ack_ms.begin(),
                      r.fleet.ack_ms.end());
    traced_wall.push_back(r.fleet.wall_s);
  }
  for (const PassResult& r : plain_daemon) plain_wall.push_back(r.fleet.wall_s);
  for (const PassResult& r : daemon) {
    retries += static_cast<double>(r.fleet.retries);
    ships += static_cast<double>(r.fleet.ack_ms.size());
    fsyncs += static_cast<double>(r.stats.wal_fsyncs);
    merged += static_cast<double>(r.stats.epochs_merged);
    dups += static_cast<double>(r.stats.epochs_deduped);
    wal_mb.push_back(r.wal_bytes / 1048576.0);
    replay_rate.push_back(r.wal_replay_mb_per_s);
  }
  const PayloadProbe probe = probe_payloads(pool, dir, cfg.seed);

  out.put("core.profiler.construct_ms", median(pool.construct_ms), "ms");
  out.put("core.recorder.epochs", epochs, "count");
  out.put("core.recorder.cells_per_epoch", cells_per_epoch, "count");
  out.put("core.epoch_io.write_ms", probe.write_ms, "ms");
  out.put("core.epoch_io.mb", probe.mb, "MB");
  out.put("core.epoch_io.parse_us", probe.parse_us, "us");
  out.put("core.report.render_ms", median(output) * 1e3, "ms");
  out.put("serve.shipper.ship_ms", median(traced_ack), "ms");
  out.put("serve.shipper.retry_share", ratio(retries, ships), "ratio");
  out.put("serve.frame.decode_us", probe.decode_us, "us");
  out.put("serve.session.merge_us", probe.merge_us, "us");
  out.put("serve.server.dup_share", ratio(dups, merged + dups), "ratio");
  out.put("serve.journal.append_us", probe.append_us, "us");
  out.put("serve.journal.fsyncs_per_kepoch", ratio(1e3 * fsyncs, merged),
          "count");
  out.put("serve.journal.wal_mb", median(wal_mb), "MB");
  out.put("serve.journal.replay_mb_per_s", median(replay_rate), "MB/s");
  out.put("serve.ack_p50_ms", quantile(ack, 0.5), "ms");
  out.put("serve.ack_p99_ms", quantile(ack, 0.99), "ms");
  out.put("serve.ack_samples", static_cast<double>(ack.size()), "count");
  out.put("serve.recovery_s", median(recovery), "s");
  // The daemon's own stage histograms, read from the registry as a
  // cross-check of the timings taken from outside.
  for (const ctl::MetricSnapshot& m : ctl::snapshot_all()) {
    for (const char* stage : kStages) {
      if (m.name == std::string("serve.stage.") + stage + "_us") {
        out.put(m.name, static_cast<double>(m.p50), "us");
      }
    }
  }
  out.put("trace.overhead", ratio(median(traced_wall), median(plain_wall)),
          "x");
  return out;
}

}  // namespace perfbench
