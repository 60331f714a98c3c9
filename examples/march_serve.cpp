// march_serve — batch/streaming front end of the mission-service runtime.
//
// Batch mode (default): reads newline-delimited JSON planning requests
// (stdin or --input FILE), executes them on the sharded service runtime
// with planner caching, and writes one JSON result line per request to
// stdout, in input order. See src/io/job_io.h for the schema.
//
// Streaming mode (--stream / --listen): a long-lived frontend speaking
// length-prefixed frames (src/io/frame_io.h) with per-request deadlines
// and SLO-driven admission control (src/runtime/admission.h): full
// service while healthy, shedding to the degraded baseline plan as
// pressure builds, typed kRejectedOverload beyond that.
//
// Usage:
//   march_serve [--threads N] [--intra-threads N] [--queue N] [--reject]
//               [--cache N] [--shards N] [--random-routing]
//               [--kill-shard K@J] [--drain-shard K@J] [--revive-shard K@J]
//               [--input FILE] [--stats] [--metrics FILE]
//               [--stream] [--listen PATH] [--slo S]
//               [--shed-pressure X] [--reject-pressure Y]
//
//   --threads N    worker threads (default: hardware concurrency).
//                  With --shards this is PER SHARD (default then 2).
//   --intra-threads N
//                  arena threads *inside* each plan (parallel rotation
//                  search / harmonic sweep / interpolation / centroids;
//                  default 1). Plans are byte-identical at every value —
//                  this trades job-level for plan-level parallelism.
//                  The ANR_THREADS environment variable sets the library
//                  default for standalone (non-service) planner use.
//   --queue N      bounded queue capacity (default 256)
//   --reject       shed load when the queue is full instead of blocking
//   --cache N      planner cache capacity (default 64)
//   --shards N     run N independent service shards behind the
//                  consistent-hash router (src/shard/). Without it (or
//                  with N <= 1) the router fronts a single shard.
//   --random-routing
//                  route uniformly at random instead of by cache affinity
//                  (the control baseline; requires --shards)
//   --kill-shard K@J / --drain-shard K@J / --revive-shard K@J
//                  fault drills: after the J-th request has been
//                  submitted, kill / drain / revive shard K. Repeatable;
//                  drills fire in submission order. Requires --shards.
//   --input FILE   read requests from FILE instead of stdin
//   --stats        print a service-stats JSON snapshot to stderr at exit:
//                  router totals + per-shard breakdown (one shard without
//                  --shards); in streaming mode also gateway
//                  accept/shed/reject counts
//   --metrics FILE write the run's metrics to FILE at exit — Prometheus
//                  text, or NDJSON when FILE ends in ".ndjson"; "-"
//                  writes text to stderr. Also written on SIGTERM/SIGINT,
//                  so a killed run still leaves a complete snapshot.
//   --stream       serve framed requests on stdin/stdout until EOF
//   --listen PATH  serve framed requests on a unix socket at PATH,
//                  one connection at a time, until terminated
//   --slo S        streaming admission SLO: target p99 end-to-end
//                  latency over every shard's full-service jobs, seconds
//                  (default 1.0)
//   --shed-pressure X / --reject-pressure Y
//                  admission thresholds over pressure =
//                  max(queue occupancy, p99/SLO), where occupancy is the
//                  fullest live shard's queue depth over --queue; shed
//                  at X (default 0.75), reject at Y (default 1.5)
//
// Example (sharded, with a mid-batch kill drill):
//   ./build/examples/march_serve --shards 4 --threads 1 --kill-shard 2@5
//       --revive-shard 2@9 --stats --input jobs.ndjson
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "anr/anr.h"

namespace {

using namespace anr;

struct Drill {
  enum class Action { kKill, kDrain, kRevive } action;
  int shard = 0;
  std::size_t after_jobs = 0;  ///< fires once this many requests submitted
};

struct ServeOptions {
  runtime::ServiceOptions service;
  int shards = 1;
  bool random_routing = false;
  std::vector<Drill> drills;
  std::string input;
  std::string metrics;
  bool stats = false;
  bool threads_set = false;
  bool stream = false;
  std::string listen;
  double slo = 1.0;
  double shed_pressure = 0.75;
  double reject_pressure = 1.5;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--threads N] [--intra-threads N] [--queue N] [--reject]"
               " [--cache N] [--shards N] [--random-routing]"
               " [--kill-shard K@J] [--drain-shard K@J] [--revive-shard K@J]"
               " [--input FILE] [--stats] [--metrics FILE]"
               " [--stream] [--listen PATH] [--slo S]"
               " [--shed-pressure X] [--reject-pressure Y]\n";
  std::exit(2);
}

Drill parse_drill(Drill::Action action, const std::string& spec,
                  const char* argv0) {
  // "K@J": shard K, after J submissions.
  Drill d;
  d.action = action;
  std::size_t at = spec.find('@');
  try {
    if (at == std::string::npos) usage_and_exit(argv0);
    d.shard = std::stoi(spec.substr(0, at));
    d.after_jobs = std::stoul(spec.substr(at + 1));
  } catch (const std::exception&) {
    usage_and_exit(argv0);
  }
  return d;
}

ServeOptions parse(int argc, char** argv) {
  ServeOptions opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    if (arg == "--threads") {
      opt.service.threads = std::stoi(need_value());
      opt.threads_set = true;
    } else if (arg == "--intra-threads") {
      opt.service.intra_threads = std::stoi(need_value());
    } else if (arg == "--queue") {
      opt.service.queue_capacity =
          static_cast<std::size_t>(std::stoul(need_value()));
    } else if (arg == "--reject") {
      opt.service.overflow = runtime::OverflowPolicy::kReject;
    } else if (arg == "--cache") {
      opt.service.cache_capacity =
          static_cast<std::size_t>(std::stoul(need_value()));
    } else if (arg == "--shards") {
      opt.shards = std::stoi(need_value());
    } else if (arg == "--random-routing") {
      opt.random_routing = true;
    } else if (arg == "--kill-shard") {
      opt.drills.push_back(
          parse_drill(Drill::Action::kKill, need_value(), argv[0]));
    } else if (arg == "--drain-shard") {
      opt.drills.push_back(
          parse_drill(Drill::Action::kDrain, need_value(), argv[0]));
    } else if (arg == "--revive-shard") {
      opt.drills.push_back(
          parse_drill(Drill::Action::kRevive, need_value(), argv[0]));
    } else if (arg == "--input") {
      opt.input = need_value();
    } else if (arg == "--stats") {
      opt.stats = true;
    } else if (arg == "--metrics") {
      opt.metrics = need_value();
    } else if (arg == "--stream") {
      opt.stream = true;
    } else if (arg == "--listen") {
      opt.listen = need_value();
    } else if (arg == "--slo") {
      opt.slo = std::stod(need_value());
    } else if (arg == "--shed-pressure") {
      opt.shed_pressure = std::stod(need_value());
    } else if (arg == "--reject-pressure") {
      opt.reject_pressure = std::stod(need_value());
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.shards <= 1 && (!opt.drills.empty() || opt.random_routing)) {
    std::cerr << "march_serve: --kill/--drain/--revive-shard and"
                 " --random-routing require --shards N (N > 1)\n";
    std::exit(2);
  }
  if (opt.stream && !opt.listen.empty()) {
    std::cerr << "march_serve: --stream and --listen are exclusive\n";
    std::exit(2);
  }
  for (const Drill& d : opt.drills) {
    if (d.shard < 0 || d.shard >= opt.shards) {
      std::cerr << "march_serve: drill shard " << d.shard
                << " out of range for --shards " << opt.shards << "\n";
      std::exit(2);
    }
  }
  return opt;
}

const char* drill_name(Drill::Action a) {
  switch (a) {
    case Drill::Action::kKill: return "kill";
    case Drill::Action::kDrain: return "drain";
    case Drill::Action::kRevive: return "revive";
  }
  return "?";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Writes the metrics snapshot in the format the file name asks for.
/// Safe to call from the signal-watcher thread: Registry::snapshot()
/// takes only the registry mutex, which no planning hot path holds.
bool write_metrics_file(const obs::Registry& registry,
                        const std::string& path) {
  std::string text;
  if (ends_with(path, ".ndjson")) {
    std::ostringstream os;
    write_metrics_ndjson(registry, os);
    text = os.str();
  } else {
    text = metrics_text_exposition(registry);
  }
  if (path == "-") {
    std::cerr << "/metricsz\n" << text;
    return true;
  }
  std::ofstream mf(path);
  if (!mf) {
    std::cerr << "march_serve: cannot write " << path << "\n";
    return false;
  }
  mf << text;
  mf.flush();
  return static_cast<bool>(mf);
}

/// std::streambuf over a raw fd, enough for the framed protocol on a
/// unix socket (blocking reads/writes, 8 KiB buffers).
class FdStreambuf : public std::streambuf {
 public:
  explicit FdStreambuf(int fd) : fd_(fd) {
    setg(ibuf_, ibuf_, ibuf_);
    setp(obuf_, obuf_ + sizeof(obuf_));
  }
  ~FdStreambuf() override { sync(); }

 protected:
  int underflow() override {
    ssize_t n;
    do {
      n = ::read(fd_, ibuf_, sizeof(ibuf_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(ibuf_, ibuf_, ibuf_ + n);
    return traits_type::to_int_type(ibuf_[0]);
  }

  int overflow(int ch) override {
    if (flush_buffer() != 0) return traits_type::eof();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch == traits_type::eof() ? 0 : ch;
  }

  int sync() override { return flush_buffer(); }

 private:
  int flush_buffer() {
    const char* p = pbase();
    while (p < pptr()) {
      ssize_t n = ::write(fd_, p, static_cast<std::size_t>(pptr() - p));
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
    }
    setp(obuf_, obuf_ + sizeof(obuf_));
    return 0;
  }

  int fd_;
  char ibuf_[8192];
  char obuf_[8192];
};

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opt = parse(argc, argv);
  const bool streaming = opt.stream || !opt.listen.empty();

  // Block termination signals before any thread exists so every worker
  // inherits the mask; a dedicated watcher consumes them with sigwait.
  sigset_t term_set;
  sigemptyset(&term_set);
  sigaddset(&term_set, SIGTERM);
  sigaddset(&term_set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &term_set, nullptr);

  std::ifstream file;
  if (!opt.input.empty()) {
    file.open(opt.input);
    if (!file) {
      std::cerr << "march_serve: cannot open " << opt.input << "\n";
      return 1;
    }
  }
  std::istream& in = opt.input.empty() ? std::cin : file;

  obs::Registry registry;
  if (!opt.metrics.empty()) opt.service.registry = &registry;

  // One front door: every submission goes through the consistent-hash
  // router, which without --shards fronts a single shard.
  shard::ShardedServiceOptions so;
  so.shards = std::max(1, opt.shards);
  so.shard = opt.service;
  // Hardware-concurrency-per-shard multiplies by N; default to a
  // deliberate 2 per shard unless the user chose.
  if (!opt.threads_set && opt.shards > 1) so.shard.threads = 2;
  if (opt.random_routing) so.routing = shard::RoutingPolicy::kRandom;
  so.registry = opt.service.registry;
  shard::ShardedMissionService service(so);

  auto print_stats = [&] {
    if (!opt.stats) return;
    std::cerr << shard::sharded_stats_to_json(service.stats()).dump(2)
              << "\n";
  };

  // flush_output is the one exit path for observability artifacts; both
  // the clean end of main and the signal watcher funnel through it, the
  // once_flag keeps a racing SIGTERM from double-writing.
  std::once_flag flush_once;
  auto flush_output = [&] {
    std::call_once(flush_once, [&] {
      print_stats();
      if (!opt.metrics.empty()) {
        if (write_metrics_file(registry, opt.metrics) &&
            opt.metrics != "-") {
          std::cerr << "/metricsz -> " << opt.metrics << " ("
                    << registry.snapshot().size() << " series)\n";
        }
      }
    });
  };

  // The watcher thread turns SIGTERM/SIGINT into a flush-and-exit: even
  // a run killed mid-batch leaves complete stats and metrics behind.
  std::thread([&flush_output, term_set] {
    int sig = 0;
    sigwait(&term_set, &sig);
    flush_output();
    std::cerr.flush();
    std::_Exit(sig == SIGINT ? 130 : 143);
  }).detach();

  if (streaming) {
    // Admission-controlled streaming through the router's own gateway
    // backend (latency watch and fullest-shard pressure probe).
    runtime::AdmissionOptions ao;
    ao.slo_seconds = opt.slo;
    ao.shed_pressure = opt.shed_pressure;
    ao.reject_pressure = opt.reject_pressure;
    ao.queue_capacity = opt.service.queue_capacity *
                        static_cast<std::size_t>(service.shard_count());
    ao.registry = &registry;
    runtime::AdmissionController controller(ao);
    runtime::ServingGateway gateway(service.gateway_backend(), &controller);
    runtime::StreamFrontend frontend(&gateway);

    auto report = [&](const runtime::StreamStats& ss) {
      std::cerr << "stream: " << ss.requests << " requests, "
                << ss.responses << " responses (" << ss.plan_frames
                << " with binary plans), " << ss.bad_requests
                << " bad, " << ss.protocol_errors << " protocol errors\n";
      if (opt.stats) {
        std::cerr << runtime::gateway_stats_to_json(gateway.stats()).dump(2)
                  << "\n";
      }
    };

    if (opt.stream) {
      runtime::StreamStats ss = frontend.serve(in, std::cout);
      report(ss);
    } else {
      int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listen_fd < 0) {
        std::cerr << "march_serve: socket() failed\n";
        return 1;
      }
      ::unlink(opt.listen.c_str());
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (opt.listen.size() >= sizeof(addr.sun_path)) {
        std::cerr << "march_serve: socket path too long\n";
        return 1;
      }
      std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                    opt.listen.c_str());
      if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0 ||
          ::listen(listen_fd, 8) != 0) {
        std::cerr << "march_serve: cannot listen on " << opt.listen << "\n";
        return 1;
      }
      std::cerr << "listening on " << opt.listen << "\n";
      for (;;) {
        int conn = ::accept(listen_fd, nullptr, nullptr);
        if (conn < 0) {
          if (errno == EINTR) continue;
          break;
        }
        FdStreambuf buf_in(conn), buf_out(conn);
        std::istream cin_fd(&buf_in);
        std::ostream cout_fd(&buf_out);
        runtime::StreamStats ss = frontend.serve(cin_fd, cout_fd);
        report(ss);
        ::close(conn);
      }
      ::close(listen_fd);
      ::unlink(opt.listen.c_str());
    }
    service.shutdown();
    flush_output();
    return 0;
  }

  std::map<std::string, std::vector<Vec2>> deployments;

  // Submit as we read — with kBlock backpressure the reader naturally
  // throttles to the pool; results are printed in input order afterward.
  // Fault drills fire between submissions once their trigger count is
  // reached, in submission order.
  std::vector<std::future<runtime::JobResult>> futures;
  std::vector<bool> include_plan;
  std::string line;
  std::size_t lineno = 0;
  std::size_t submitted = 0;
  std::size_t next_drill = 0;
  auto fire_due_drills = [&] {
    while (next_drill < opt.drills.size() &&
           opt.drills[next_drill].after_jobs <= submitted) {
      const Drill& d = opt.drills[next_drill++];
      std::cerr << "drill: " << drill_name(d.action) << " shard " << d.shard
                << " after " << submitted << " submissions\n";
      switch (d.action) {
        case Drill::Action::kKill: service.kill(d.shard); break;
        case Drill::Action::kDrain: service.drain(d.shard); break;
        case Drill::Action::kRevive: service.revive(d.shard); break;
      }
    }
  };
  fire_due_drills();  // "@0" drills precede the first job
  while (std::getline(in, line)) {
    ++lineno;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      JobRequest req = job_from_json(json::parse(line), &deployments);
      if (req.job.id.empty()) req.job.id = "line-" + std::to_string(lineno);
      include_plan.push_back(req.include_plan);
      futures.push_back(service.submit(std::move(req.job)));
      ++submitted;
      fire_due_drills();
    } catch (const std::exception& e) {
      // Malformed request: emit an error result for this line without
      // losing position or stopping the batch. Echo the caller's id when
      // the line at least parsed as JSON carrying one.
      runtime::JobResult bad;
      bad.id = "line-" + std::to_string(lineno);
      try {
        const json::Value v = json::parse(line);
        if (v.is_object() && v.as_object().count("id") &&
            v.at("id").is_string() && !v.at("id").as_string().empty()) {
          bad.id = v.at("id").as_string();
        }
      } catch (...) {
        // not JSON at all: keep the positional id
      }
      bad.ok = false;
      bad.status = runtime::JobStatus::kRejectedInvalid;
      bad.error = std::string("bad request: ") + e.what();
      std::promise<runtime::JobResult> p;
      p.set_value(std::move(bad));
      include_plan.push_back(false);
      futures.push_back(p.get_future());
    }
  }

  int failures = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    runtime::JobResult r = futures[i].get();
    if (!r.ok) ++failures;
    std::cout << result_to_json(r, include_plan[i]).dump() << "\n";
  }
  std::cout.flush();

  service.shutdown();
  flush_output();
  return failures == 0 ? 0 : 1;
}
