// dpload -- open-loop load generator for dpserved.
//
// Fires analyze requests at a target QPS from a fixed schedule (open
// loop: a slow server does not slow the arrival process, it just gets
// deeper queues -- which is exactly the admission-control behavior the
// bench measures), records per-request latency (from the request's due
// time, so queueing behind busy connections counts) split into COLD (the
// server computed the profile) and WARM (served from the resident
// cache, per the response's "cached" flag), and writes a dp.served.v1
// document that bench/validate_metrics accepts.
//
//   dpload --unix PATH | --host IP --port N   attach to a running server
//   dpload --spawn PATH/TO/dpserved           fork+exec a private server
//                                             on a temp socket, SIGTERM
//                                             it at the end, and require
//                                             a clean drain (exit 0)
//
//   --qps Q           target arrival rate (default 20)
//   --requests N      schedule length (default 60)
//   --connections C   sender threads = max in-flight (default 4)
//   --circuits LIST   comma-separated round-robin mix (default
//                     c17,alu181)
//   --model M         sa | bf.and | bf.or | hybrid (default sa)
//   --jobs N          per-request engine jobs (default 1)
//   --deadline-ms N   attach a deadline to every request (default none)
//   --out PATH        output document (default BENCH_served.json)
//   --assert-warm-faster   exit 1 unless warm p50/p99 < cold p50/p99
//   --workers/--queue-depth/--cache-dir  forwarded to --spawn'd server
//   --quiet / --version
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cli_common.hpp"
#include "obs/json.hpp"
#include "serve/client.hpp"

using dp::obs::JsonValue;
using Clock = std::chrono::steady_clock;

namespace {

int usage() {
  std::cerr
      << "usage: dpload (--unix PATH | --host IP --port N | --spawn "
         "DPSERVED)\n"
         "              [--qps Q] [--requests N] [--connections C]\n"
         "              [--circuits a,b,c] [--model sa|bf.and|bf.or|hybrid]\n"
         "              [--jobs N] [--deadline-ms N] [--out PATH]\n"
         "              [--workers N] [--queue-depth N] [--cache-dir PATH]\n"
         "              [--assert-warm-faster] [--quiet] [--version]\n";
  return 2;
}

struct Sample {
  double latency_ms = 0.0;
  bool ok = false;
  bool cached = false;
  std::string error_code;  ///< non-empty for ok=false responses
};

/// Nearest-rank percentile over an unsorted copy: the smallest value with
/// at least p% of the values at or below it, i.e. index ceil(p/100 * n) - 1
/// (the rule ParallelStats uses).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(v.size() - 1, i)];
}

JsonValue latency_block(const std::vector<double>& v) {
  JsonValue j = JsonValue::object();
  j["count"] = v.size();
  j["p50_ms"] = percentile(v, 50.0);
  j["p90_ms"] = percentile(v, 90.0);
  j["p99_ms"] = percentile(v, 99.0);
  j["max_ms"] = v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  dp::cli::handle_version_flag(args, "dpload");

  std::string unix_path, host = "127.0.0.1", spawn, out = "BENCH_served.json";
  std::string circuits_arg = "c17,alu181", model = "sa";
  std::string spawn_cache_dir;
  int port = -1;
  double qps = 20.0;
  std::size_t requests = 60, connections = 4, jobs = 1;
  std::size_t spawn_workers = 2, spawn_queue_depth = 64;
  std::uint64_t deadline_ms = 0;
  bool assert_warm_faster = false, quiet = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= args.size()) {
        std::cerr << "error: " << flag << " requires a value\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (args[i] == "--unix") {
      unix_path = value("--unix");
    } else if (args[i] == "--host") {
      host = value("--host");
    } else if (args[i] == "--port") {
      port = static_cast<int>(dp::cli::parse_count("--port", value("--port")));
    } else if (args[i] == "--spawn") {
      spawn = value("--spawn");
    } else if (args[i] == "--qps") {
      const std::string v = value("--qps");
      char* end = nullptr;
      qps = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || qps <= 0.0) {
        std::cerr << "error: --qps expects a positive number\n";
        return 2;
      }
    } else if (args[i] == "--requests") {
      requests = dp::cli::parse_count("--requests", value("--requests"));
    } else if (args[i] == "--connections") {
      connections =
          dp::cli::parse_count("--connections", value("--connections"));
    } else if (args[i] == "--circuits") {
      circuits_arg = value("--circuits");
    } else if (args[i] == "--model") {
      model = value("--model");
    } else if (args[i] == "--jobs") {
      jobs = dp::cli::parse_count("--jobs", value("--jobs"));
    } else if (args[i] == "--deadline-ms") {
      deadline_ms =
          dp::cli::parse_count("--deadline-ms", value("--deadline-ms"));
    } else if (args[i] == "--out") {
      out = value("--out");
    } else if (args[i] == "--workers") {
      spawn_workers = dp::cli::parse_count("--workers", value("--workers"));
    } else if (args[i] == "--queue-depth") {
      spawn_queue_depth =
          dp::cli::parse_count("--queue-depth", value("--queue-depth"));
    } else if (args[i] == "--cache-dir") {
      spawn_cache_dir = value("--cache-dir");
    } else if (args[i] == "--assert-warm-faster") {
      assert_warm_faster = true;
    } else if (args[i] == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "error: unknown flag '" << args[i] << "'\n";
      return usage();
    }
  }
  if (connections == 0) connections = 1;

  std::vector<std::string> circuits;
  for (std::size_t start = 0; start <= circuits_arg.size();) {
    const std::size_t comma = circuits_arg.find(',', start);
    const std::string name = circuits_arg.substr(
        start, comma == std::string::npos ? std::string::npos
                                          : comma - start);
    if (!name.empty()) circuits.push_back(name);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (circuits.empty()) {
    std::cerr << "error: --circuits needs at least one name\n";
    return 2;
  }

  // --spawn: run a private dpserved on a temp Unix socket. The socket
  // lives in /tmp because sun_path caps at ~107 bytes -- a build-tree
  // path can exceed that.
  pid_t child = -1;
  if (!spawn.empty()) {
    if (!unix_path.empty() || port >= 0) {
      std::cerr << "error: --spawn conflicts with --unix/--port\n";
      return 2;
    }
    unix_path = "/tmp/dpload." + std::to_string(::getpid()) + ".sock";
    child = ::fork();
    if (child < 0) {
      std::cerr << "dpload: fork: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (child == 0) {
      std::vector<std::string> cargs = {
          spawn,          "--unix",        unix_path,
          "--workers",    std::to_string(spawn_workers),
          "--queue-depth", std::to_string(spawn_queue_depth),
          "--jobs",       std::to_string(jobs),
          "--quiet"};
      if (!spawn_cache_dir.empty()) {
        cargs.push_back("--cache-dir");
        cargs.push_back(spawn_cache_dir);
      }
      std::vector<char*> cargv;
      for (std::string& a : cargs) cargv.push_back(a.data());
      cargv.push_back(nullptr);
      ::execv(spawn.c_str(), cargv.data());
      std::cerr << "dpload: exec " << spawn << ": " << std::strerror(errno)
                << "\n";
      ::_exit(127);
    }
    // Readiness: poll-connect until the socket answers a ping.
    bool up = false;
    for (int attempt = 0; attempt < 300; ++attempt) {
      std::string err;
      if (auto probe = dp::serve::Client::connect_unix(unix_path, &err)) {
        JsonValue ping = JsonValue::object();
        ping["type"] = "ping";
        JsonValue resp;
        if (probe->call(ping, &resp, &err)) {
          up = true;
          break;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (!up) {
      std::cerr << "dpload: spawned server never became ready\n";
      ::kill(child, SIGKILL);
      return 1;
    }
  }
  if (unix_path.empty() && port < 0) return usage();

  auto connect = [&](std::string* err) {
    return unix_path.empty()
               ? dp::serve::Client::connect_tcp(host, port, err)
               : dp::serve::Client::connect_unix(unix_path, err);
  };

  // Open-loop schedule: request i is DUE at start + i/qps; sender
  // threads claim indices atomically and sleep until the due time, so
  // lateness never compresses later arrivals. Latency runs from the due
  // time, not the send time: a request sent late because every connection
  // was busy still counts the wait it suffered.
  std::vector<Sample> samples(requests);
  std::atomic<std::size_t> next{0};
  std::atomic<bool> transport_failed{false};
  const auto start_time = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> senders;
  senders.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    senders.emplace_back([&] {
      std::string err;
      auto client = connect(&err);
      if (!client) {
        std::cerr << "dpload: " << err << "\n";
        transport_failed.store(true);
        return;
      }
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= requests) return;
        const auto due =
            start_time + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 static_cast<double>(i) / qps));
        std::this_thread::sleep_until(due);
        JsonValue req = JsonValue::object();
        req["id"] = static_cast<long long>(i);
        req["type"] = "analyze";
        req["circuit"] = circuits[i % circuits.size()];
        if (deadline_ms > 0) req["deadline_ms"] = deadline_ms;
        JsonValue opts = JsonValue::object();
        opts["model"] = model;
        opts["jobs"] = jobs;
        req["options"] = std::move(opts);
        JsonValue resp;
        if (!client->call(req, &resp, &err)) {
          samples[i].error_code = "transport:" + err;
          transport_failed.store(true);
          return;
        }
        samples[i].latency_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - due)
                .count();
        samples[i].ok = resp.is_object() && resp.find("ok") &&
                        resp.at("ok").as_bool();
        if (samples[i].ok) {
          samples[i].cached = resp.find("cached") != nullptr &&
                              resp.at("cached").as_bool();
        } else if (const JsonValue* e = resp.find("error")) {
          samples[i].error_code = e->at("code").as_string();
        }
      }
    });
  }
  for (std::thread& t : senders) t.join();
  const double elapsed_s =
      std::chrono::duration<double>(Clock::now() - start_time).count();

  // Pull the server's own counters (queue high-water, rejections,
  // cache hits) into the document, then shut a spawned server down and
  // require a clean drain.
  JsonValue server_metrics;
  {
    std::string err;
    if (auto client = connect(&err)) {
      JsonValue req = JsonValue::object();
      req["type"] = "metrics";
      JsonValue resp;
      if (client->call(req, &resp, &err) && resp.find("document")) {
        server_metrics = resp.at("document");
      }
    }
  }
  int server_exit = -1;
  if (child > 0) {
    ::kill(child, SIGTERM);
    int status = 0;
    if (::waitpid(child, &status, 0) == child && WIFEXITED(status)) {
      server_exit = WEXITSTATUS(status);
    }
    ::unlink(unix_path.c_str());
  }

  // Aggregate.
  std::vector<double> cold, warm;
  std::size_t ok_count = 0;
  std::map<std::string, std::size_t> errors;
  for (const Sample& s : samples) {
    if (s.ok) {
      ++ok_count;
      (s.cached ? warm : cold).push_back(s.latency_ms);
    } else if (!s.error_code.empty()) {
      ++errors[s.error_code];
    }
  }

  JsonValue doc = JsonValue::object();
  doc["schema"] = "dp.served.v1";
  doc["tool"] = "dpload";
  doc["model"] = model;
  JsonValue mix = JsonValue::array();
  for (const std::string& c : circuits) mix.push_back(c);
  doc["circuits"] = std::move(mix);
  doc["connections"] = connections;
  doc["target_qps"] = qps;
  doc["requests"] = requests;
  doc["ok"] = ok_count;
  doc["achieved_qps"] =
      elapsed_s > 0.0 ? static_cast<double>(ok_count) / elapsed_s : 0.0;
  JsonValue latency = JsonValue::object();
  latency["cold"] = latency_block(cold);
  latency["warm"] = latency_block(warm);
  doc["latency"] = std::move(latency);
  JsonValue errs = JsonValue::object();
  for (const auto& [code, n] : errors) errs[code] = n;
  doc["errors"] = std::move(errs);
  if (!server_metrics.is_null()) doc["server"] = server_metrics;
  if (child > 0) doc["server_exit"] = server_exit;

  std::string werr;
  if (!dp::obs::write_json_file_atomic(out, doc, &werr)) {
    std::cerr << "dpload: FAILED to write " << out << ": " << werr << "\n";
    return 1;
  }
  if (!quiet) {
    std::cout << "dpload: " << ok_count << "/" << requests << " ok, "
              << doc.at("achieved_qps").as_double() << " qps achieved "
              << "(target " << qps << ")\n"
              << "  cold: n=" << cold.size() << " p50="
              << percentile(cold, 50.0) << "ms p99="
              << percentile(cold, 99.0) << "ms\n"
              << "  warm: n=" << warm.size() << " p50="
              << percentile(warm, 50.0) << "ms p99="
              << percentile(warm, 99.0) << "ms\n"
              << "  wrote " << out << "\n";
    for (const auto& [code, n] : errors) {
      std::cout << "  error " << code << ": " << n << "\n";
    }
  }

  int rc = 0;
  if (transport_failed.load()) {
    std::cerr << "dpload: transport failure during the run\n";
    rc = 1;
  }
  if (child > 0 && server_exit != 0) {
    std::cerr << "dpload: spawned server exited " << server_exit
              << " (expected a clean drain)\n";
    rc = 1;
  }
  if (assert_warm_faster) {
    const bool have = !cold.empty() && !warm.empty();
    const bool faster = have &&
                        percentile(warm, 50.0) < percentile(cold, 50.0) &&
                        percentile(warm, 99.0) < percentile(cold, 99.0);
    if (!faster) {
      std::cerr << "dpload: --assert-warm-faster FAILED (cold n="
                << cold.size() << " warm n=" << warm.size() << ")\n";
      rc = 1;
    }
  }
  return rc;
}
