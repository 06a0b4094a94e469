// dpserved serving-layer tests: protocol framing, request dispatch, the
// field-identity contract between served and in-process analysis,
// admission control (queue_full / deadline_exceeded), the resident
// profile cache, and graceful drain.
#include <gtest/gtest.h>

#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/hybrid.hpp"
#include "analysis/ndetect.hpp"
#include "analysis/profile_io.hpp"
#include "analysis/profiles.hpp"
#include "fault/bridging.hpp"
#include "fault/stuck_at.hpp"
#include "netlist/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sim/wide_sim.hpp"
#include "store/hash.hpp"

namespace dp::serve {
namespace {

using obs::JsonValue;

// ---- protocol framing --------------------------------------------------

TEST(ProtocolTest, FrameRoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string error;
  ASSERT_TRUE(write_frame(fds[0], R"({"type":"ping"})", &error)) << error;
  std::string payload;
  ASSERT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Ok)
      << error;
  EXPECT_EQ(payload, R"({"type":"ping"})");
  // Empty payload is a legal frame.
  ASSERT_TRUE(write_frame(fds[0], "", &error));
  ASSERT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Ok);
  EXPECT_TRUE(payload.empty());
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ProtocolTest, CleanCloseIsEofMidFrameIsError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);
  std::string payload, error;
  EXPECT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Eof);
  ::close(fds[1]);

  // Header cut off after 3 bytes: truncation, not clean EOF.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], "dps", 3, 0), 3);
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Error);
  ::close(fds[1]);
}

TEST(ProtocolTest, FrameLargerThanTheSocketBufferRoundTrips) {
  // 3 MiB cannot fit a socketpair's buffer, so the writer blocks in
  // sendmsg while the reader drains the other end. A handler installed
  // without SA_RESTART interrupts it over and over: write_frame sees
  // EINTR and short writes and must resume mid-header or mid-payload.
  struct sigaction interrupt {}, old {};
  interrupt.sa_handler = [](int) {};
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &old), 0);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string big(3u << 20, '\0');
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<char>('a' + (i * 7919) % 26);
  }
  bool wrote = false;
  std::string write_error;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    wrote = write_frame(fds[0], big, &write_error);
    wrote = wrote && write_frame(fds[0], "tail", &write_error);
    done.store(true);
  });
  std::thread interrupter([&] {
    while (!done.load()) {
      ::pthread_kill(writer.native_handle(), SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::string payload, error;
  EXPECT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Ok)
      << error;
  EXPECT_TRUE(payload == big);
  EXPECT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Ok)
      << error;
  EXPECT_EQ(payload, "tail");
  ::close(fds[1]);  // a writer stuck behind a broken stream gets EPIPE
  interrupter.join();
  writer.join();
  EXPECT_TRUE(wrote) << write_error;
  ::close(fds[0]);
  ::sigaction(SIGUSR1, &old, nullptr);
}

TEST(ProtocolTest, BadMagicAndOversizedLengthRejected) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[0], "HTTP/1.1", 8, 0), 8);
  std::string payload, error;
  EXPECT_EQ(read_frame(fds[1], &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Error);
  EXPECT_NE(error.find("magic"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);

  // Hostile length field: rejected by the cap before any allocation.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char huge[8] = {'d', 'p', 's', '1', 0xff, 0xff, 0xff, 0x7f};
  ASSERT_EQ(::send(fds[0], huge, 8, 0), 8);
  EXPECT_EQ(read_frame(fds[1], &payload, /*max_payload=*/1 << 20, &error),
            ReadStatus::Error);
  EXPECT_NE(error.find("exceeds"), std::string::npos);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---- in-process service dispatch ---------------------------------------

JsonValue req(const char* type, const char* circuit = nullptr) {
  JsonValue r = JsonValue::object();
  r["type"] = type;
  if (circuit) r["circuit"] = circuit;
  return r;
}

/// Service::handle returns the response frame's text; parse it.
JsonValue handled(Service& service, const JsonValue& request) {
  return JsonValue::parse(service.handle(request));
}

TEST(ServiceTest, PingHashAndUnknownType) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  EXPECT_TRUE(handled(service, req("ping")).at("ok").as_bool());

  JsonValue h = handled(service, req("hash", "c17"));
  ASSERT_TRUE(h.at("ok").as_bool());
  EXPECT_EQ(h.at("hash").as_string().size(), 32u);

  JsonValue bad = handled(service, req("frobnicate"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").at("code").as_string(), "bad_request");
}

TEST(ServiceTest, UnknownCircuitAndUnknownOptionAreBadRequests) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  JsonValue r = handled(service, req("analyze", "not_a_circuit"));
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("error").at("code").as_string(), "bad_request");

  JsonValue typo = req("analyze", "c17");
  JsonValue opts = JsonValue::object();
  opts["colapse"] = true;  // misspelled: must fail, not silently default
  typo["options"] = std::move(opts);
  r = handled(service, typo);
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(r.at("error").at("message").as_string().find("colapse"),
            std::string::npos);
}

TEST(ServiceTest, InlineBenchTextIsAccepted) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  JsonValue r = JsonValue::object();
  r["type"] = "analyze";
  r["bench"] = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n";
  JsonValue resp = handled(service, r);
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);
  EXPECT_GT(resp.at("profile").at("faults").size(), 0u);

  r["bench"] = "INPUT(a\n";  // malformed inline netlist
  resp = handled(service, r);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
}

TEST(ServiceTest, GradeMatchesDirectWideSim) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  JsonValue r = req("grade", "c95");
  JsonValue opts = JsonValue::object();
  opts["patterns"] = 512;
  opts["seed"] = 7;
  r["options"] = std::move(opts);
  JsonValue resp = handled(service, r);
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);

  const netlist::Circuit c = netlist::make_benchmark("c95");
  const auto faults = fault::collapse_checkpoint_faults(c);
  const auto grade =
      sim::WideFaultSimulator(c).grade_random(faults, 512, 7, {});
  EXPECT_EQ(static_cast<std::size_t>(resp.at("total").as_int()),
            grade.total);
  EXPECT_EQ(static_cast<std::size_t>(resp.at("detected").as_int()),
            grade.detected());
  EXPECT_EQ(static_cast<std::uint64_t>(resp.at("events").as_int()),
            grade.events());
}

TEST(ServiceTest, ProfileCacheHitsEvictsAndLruBound) {
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.profile_cache_entries = 2;
  Service service(options, &metrics);

  JsonValue r1 = handled(service, req("analyze", "c17"));
  ASSERT_TRUE(r1.at("ok").as_bool());
  EXPECT_FALSE(r1.at("cached").as_bool());
  JsonValue r2 = handled(service, req("analyze", "c17"));
  ASSERT_TRUE(r2.at("ok").as_bool());
  EXPECT_TRUE(r2.at("cached").as_bool());
  // The cached response carries the identical profile document.
  EXPECT_EQ(r1.at("profile").dump(0), r2.at("profile").dump(0));
  EXPECT_EQ(metrics.counter("serve.profile_cache.hits").value(), 1u);

  // Two more distinct keys through a 2-entry LRU evict the c17 profile.
  JsonValue bf = req("analyze", "c17");
  JsonValue opts = JsonValue::object();
  opts["model"] = "bf.and";
  bf["options"] = std::move(opts);
  ASSERT_TRUE(handled(service, bf).at("ok").as_bool());
  ASSERT_TRUE(handled(service, req("analyze", "fulladder")).at("ok").as_bool());
  EXPECT_EQ(service.profile_cache_size(), 2u);
  EXPECT_TRUE(metrics.counter("serve.profile_cache.evictions").value() >= 1u);

  JsonValue r3 = handled(service, req("analyze", "c17"));
  EXPECT_FALSE(r3.at("cached").as_bool());  // was evicted, recomputed
  EXPECT_EQ(r1.at("profile").dump(0), r3.at("profile").dump(0));

  JsonValue ev = handled(service, req("evict"));
  ASSERT_TRUE(ev.at("ok").as_bool());
  EXPECT_EQ(service.profile_cache_size(), 0u);
}

TEST(ServiceTest, ConcurrentAnalyzesShareOneFrozenForest) {
  // Two concurrent requests against the same circuit but different fault
  // models miss the profile cache independently, yet must share one
  // resident frozen forest: exactly one build, at least one reuse.
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);

  JsonValue sa = req("analyze", "c17");
  JsonValue bf = req("analyze", "c17");
  JsonValue opts = JsonValue::object();
  opts["model"] = "bf.and";
  bf["options"] = std::move(opts);

  JsonValue resp_sa, resp_bf;
  std::thread t1([&] { resp_sa = handled(service, sa); });
  std::thread t2([&] { resp_bf = handled(service, bf); });
  t1.join();
  t2.join();

  ASSERT_TRUE(resp_sa.at("ok").as_bool());
  ASSERT_TRUE(resp_bf.at("ok").as_bool());
  EXPECT_EQ(metrics.counter("serve.forest.builds").value(), 1u);
  EXPECT_GE(metrics.counter("serve.forest.reuses").value(), 1u);
  EXPECT_EQ(service.resident_counts().forests, 1u);

  // A third model on the same circuit reuses the resident forest again.
  JsonValue hy = req("analyze", "c17");
  JsonValue hopts = JsonValue::object();
  hopts["model"] = "bf.or";
  hy["options"] = std::move(hopts);
  ASSERT_TRUE(handled(service, hy).at("ok").as_bool());
  EXPECT_EQ(metrics.counter("serve.forest.builds").value(), 1u);
  EXPECT_GE(metrics.counter("serve.forest.reuses").value(), 2u);
}

/// An ndetect request for `circuit` with options {"n": 2} and no client
/// vectors: top-up on, collapsed faults.
JsonValue ndetect_top_up_req(const char* circuit) {
  JsonValue r = req("ndetect", circuit);
  JsonValue opts = JsonValue::object();
  opts["n"] = 2;
  r["options"] = std::move(opts);
  return r;
}

/// The end of ndetect_top_up_req's response frame, computed in process:
/// its payload members and the closing brace.
std::string ndetect_top_up_tail(const netlist::Circuit& circuit) {
  store::KeyBuilder kb;
  kb.str(analysis::kNDetectSchema);
  kb.str(store::circuit_content_hash(circuit));
  kb.u64(2);
  kb.flag(true);  // topup
  kb.flag(true);  // collapse
  kb.u64(0);      // no client vectors
  analysis::NDetectAnalyzer analyzer(
      circuit, fault::collapse_checkpoint_faults(circuit));
  std::vector<std::vector<bool>> vectors;
  const std::size_t minted = analyzer.top_up(vectors, 2);
  analysis::NDetectReport report = analyzer.report(vectors, 2);
  report.minted_vectors = minted;
  JsonValue minted_vectors = JsonValue::array();
  for (const auto& v : vectors) {
    std::string bits;
    for (const bool b : v) bits += b ? '1' : '0';
    minted_vectors.push_back(bits);
  }
  return "\"report\":" +
         analysis::ndetect_report_to_json(report, kb.hex()).dump(0) +
         ",\"minted_vectors\":" + minted_vectors.dump(0) + "}";
}

/// A cold bf analyze of c95: 40 bridges drawn with `seed`.
JsonValue bf_req(const char* model, long long seed) {
  JsonValue r = req("analyze", "c95");
  JsonValue opts = JsonValue::object();
  opts["model"] = model;
  opts["bridge_count"] = 40;
  opts["bridge_seed"] = seed;
  r["options"] = std::move(opts);
  return r;
}

TEST(ServiceTest, BridgeSweepsShareOneResidentObservabilityLayer) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  const netlist::Circuit circuit = netlist::make_benchmark("c95");
  auto in_process = [&](fault::BridgeType type, const char* model,
                        long long seed) {
    analysis::AnalysisOptions a;
    a.sampling.target_count = 40;
    a.sampling.seed = static_cast<std::uint64_t>(seed);
    return "\"profile\":" +
           analysis::profile_to_json(
               analysis::analyze_bridging(circuit, type, a),
               analysis::profile_cache_key(circuit, model, a))
               .dump(0) +
           "}";
  };

  // A stuck-at sweep never builds the layer; the first bridge sweep does.
  ASSERT_TRUE(handled(service, req("analyze", "c95")).at("ok").as_bool());
  EXPECT_EQ(service.resident_counts().observabilities, 0u);
  const std::string and_miss = service.handle(bf_req("bf.and", 1));
  EXPECT_EQ(metrics.counter("serve.observabilities.builds").value(), 1u);
  EXPECT_EQ(service.resident_counts().observabilities, 1u);

  // Another model and a fresh sample adopt it and chase nothing.
  obs::SpanCollector spans;
  obs::SpanCollector::install(&spans);
  const std::string or_miss = service.handle(bf_req("bf.or", 2));
  obs::SpanCollector::install(nullptr);
  EXPECT_EQ(metrics.counter("serve.observabilities.builds").value(), 1u);
  EXPECT_GE(metrics.counter("serve.observabilities.reuses").value(), 1u);
  for (const obs::SpanRecord& span : spans.snapshot().spans) {
    EXPECT_NE(span.name, "dp.observe");
  }

  // Responses are the in-process results (each sweep there builds its own
  // layer), hit and miss alike.
  EXPECT_TRUE(and_miss.ends_with(in_process(fault::BridgeType::And,
                                            "bf.and", 1)));
  EXPECT_TRUE(or_miss.ends_with(in_process(fault::BridgeType::Or,
                                           "bf.or", 2)));
  std::string and_hit = service.handle(bf_req("bf.and", 1));
  const std::string warm = "\"cached\":true";
  and_hit.replace(and_hit.find(warm), warm.size(), "\"cached\":false");
  EXPECT_EQ(and_hit, and_miss);

  // The layered universe now serves every other kind of miss: a stuck-at
  // sweep over the uncollapsed faults, a hybrid DP remainder and an
  // ndetect sweep each adopt it and answer the in-process payload.
  JsonValue sa = req("analyze", "c95");
  JsonValue sa_opts = JsonValue::object();
  sa_opts["model"] = "sa";
  sa_opts["collapse"] = false;
  sa["options"] = std::move(sa_opts);
  analysis::AnalysisOptions full;
  full.collapse = false;
  EXPECT_TRUE(service.handle(sa).ends_with(
      "\"profile\":" +
      analysis::profile_to_json(analysis::analyze_stuck_at(circuit, full),
                                analysis::profile_cache_key(circuit, "sa",
                                                            full))
          .dump(0) +
      "}"));
  JsonValue hy = req("analyze", "c95");
  JsonValue hy_opts = JsonValue::object();
  hy_opts["model"] = "hybrid";
  hy_opts["prefilter_patterns"] = 16;  // leaves a DP remainder
  hy["options"] = std::move(hy_opts);
  analysis::HybridOptions h;
  h.prefilter_patterns = 16;
  const analysis::HybridProfile hybrid =
      analysis::analyze_stuck_at_hybrid(circuit, {}, h);
  EXPECT_GT(hybrid.dp_resolved(), 0u);
  EXPECT_TRUE(service.handle(hy).ends_with(
      "\"profile\":" + analysis::hybrid_profile_to_json(hybrid).dump(0) +
      "}"));
  EXPECT_TRUE(service.handle(ndetect_top_up_req("c95"))
                  .ends_with(ndetect_top_up_tail(circuit)));
  EXPECT_EQ(service.resident_counts().forests, 1u);
  EXPECT_EQ(service.resident_counts().observabilities, 1u);
  EXPECT_EQ(metrics.counter("serve.forest.builds").value(), 1u);
  EXPECT_EQ(metrics.counter("serve.observabilities.builds").value(), 1u);

  // Evicting the circuit unpins the layer; the next bridge sweep rebuilds
  // it, to the same response.
  ASSERT_TRUE(handled(service, req("evict", "c95")).at("ok").as_bool());
  EXPECT_EQ(service.resident_counts().observabilities, 0u);
  EXPECT_EQ(service.handle(bf_req("bf.and", 1)), and_miss);
  EXPECT_EQ(metrics.counter("serve.observabilities.builds").value(), 2u);
  EXPECT_EQ(service.resident_counts().observabilities, 1u);
}

/// An ndetect request for `circuit` with `bits` as its one client vector.
JsonValue ndetect_req(const char* circuit, const std::string& bits) {
  JsonValue r = req("ndetect", circuit);
  JsonValue vecs = JsonValue::array();
  vecs.push_back(bits);
  r["vectors"] = std::move(vecs);
  JsonValue opts = JsonValue::object();
  opts["n"] = 2;
  r["options"] = std::move(opts);
  return r;
}

TEST(ServiceTest, EvictingOneCircuitDropsItsWholeResidentEntry) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  for (const char* c : {"c17", "alu181"}) {
    ASSERT_TRUE(handled(service, req("analyze", c)).at("ok").as_bool());
  }
  ASSERT_TRUE(handled(service, ndetect_req("c17", "01010")).at("ok").as_bool());
  ASSERT_TRUE(handled(service, ndetect_req("alu181", std::string(14, '1')))
                  .at("ok")
                  .as_bool());
  ASSERT_TRUE(handled(service, req("hash", "c95")).at("ok").as_bool());
  Service::ResidentCounts counts = service.resident_counts();
  EXPECT_EQ(counts.circuits, 3u);
  EXPECT_EQ(counts.forests, 2u);
  EXPECT_EQ(counts.test_sets, 2u);

  JsonValue ev = req("evict", "c17");
  ASSERT_TRUE(handled(service, ev).at("ok").as_bool());
  counts = service.resident_counts();
  EXPECT_EQ(counts.circuits, 2u);
  EXPECT_EQ(counts.forests, 1u);
  EXPECT_EQ(counts.test_sets, 1u);

  // c17 comes back cold: its forest and test sets are built again, and
  // alu181's survive untouched.
  ASSERT_TRUE(handled(service, ndetect_req("c17", "11111")).at("ok").as_bool());
  EXPECT_EQ(metrics.counter("serve.forest.builds").value(), 3u);
  EXPECT_EQ(metrics.counter("serve.ndetect.test_sets.builds").value(), 3u);
  ASSERT_TRUE(handled(service, ndetect_req("alu181", std::string(14, '0')))
                  .at("ok")
                  .as_bool());
  EXPECT_EQ(metrics.counter("serve.ndetect.test_sets.builds").value(), 3u);

  ASSERT_TRUE(handled(service, req("evict")).at("ok").as_bool());
  counts = service.resident_counts();
  EXPECT_EQ(counts.circuits, 0u);
  EXPECT_EQ(counts.forests, 0u);
  EXPECT_EQ(counts.test_sets, 0u);
}

TEST(ServiceTest, ConcurrentColdNDetectsBuildOnce) {
  // Two threads ask for the same cold circuit at once: one builds the
  // forest and the test sets, the other waits on the entry and adopts
  // them. Distinct vectors keep both out of the response cache.
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  const std::string ones(14, '1'), zeros(14, '0');
  JsonValue r1, r2;
  std::thread t1([&] { r1 = handled(service, ndetect_req("alu181", ones)); });
  std::thread t2([&] { r2 = handled(service, ndetect_req("alu181", zeros)); });
  t1.join();
  t2.join();
  ASSERT_TRUE(r1.at("ok").as_bool()) << r1.dump(0);
  ASSERT_TRUE(r2.at("ok").as_bool()) << r2.dump(0);
  EXPECT_EQ(metrics.counter("serve.forest.builds").value(), 1u);
  EXPECT_EQ(metrics.counter("serve.ndetect.test_sets.builds").value(), 1u);
  EXPECT_EQ(metrics.counter("serve.ndetect.test_sets.reuses").value(), 1u);
  const Service::ResidentCounts counts = service.resident_counts();
  EXPECT_EQ(counts.circuits, 1u);
  EXPECT_EQ(counts.forests, 1u);
  EXPECT_EQ(counts.test_sets, 1u);
}

TEST(ServiceTest, NDetectReusesResidentTestSets) {
  // Two requests with different vectors miss the response cache, so both
  // answer fresh (cached: false); only the first sweeps, under one
  // serve.ndetect.build span, and the second adopts its test sets.
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  obs::SpanCollector spans;
  obs::SpanCollector::install(&spans);
  const JsonValue first = handled(service, ndetect_req("c95", "01100110"));
  const JsonValue second = handled(service, ndetect_req("c95", "10011001"));
  obs::SpanCollector::install(nullptr);
  ASSERT_TRUE(first.at("ok").as_bool()) << first.dump(0);
  ASSERT_TRUE(second.at("ok").as_bool()) << second.dump(0);
  EXPECT_FALSE(first.at("cached").as_bool());
  EXPECT_FALSE(second.at("cached").as_bool());
  EXPECT_EQ(metrics.counter("serve.ndetect.test_sets.builds").value(), 1u);
  EXPECT_GE(metrics.counter("serve.ndetect.test_sets.reuses").value(), 1u);
  std::size_t builds = 0;
  for (const obs::SpanRecord& s : spans.snapshot().spans) {
    builds += s.name == "serve.ndetect.build" ? 1 : 0;
  }
  EXPECT_EQ(builds, 1u);
}

TEST(ServiceTest, EvictDuringInFlightAnalyzeIsSafe) {
  // The forest cache hands out shared_ptrs: evicting a resident circuit
  // mid-request only unpins the cache entry; the in-flight analysis keeps
  // its forest alive and completes normally. (The TSan rerun of this
  // suite is the race check; functionally the response must stay exact.)
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);

  // Reference result, computed without any eviction interference.
  JsonValue expected = handled(service, req("analyze", "alu181"));
  ASSERT_TRUE(expected.at("ok").as_bool());
  handled(service, req("evict"));
  ASSERT_EQ(service.resident_counts().forests, 0u);

  std::atomic<bool> done{false};
  JsonValue got;
  std::thread analyzer([&] {
    got = handled(service, req("analyze", "alu181"));
    done.store(true);
  });
  while (!done.load()) {
    handled(service, req("evict"));
    std::this_thread::yield();
  }
  analyzer.join();

  ASSERT_TRUE(got.at("ok").as_bool());
  EXPECT_EQ(expected.at("profile").dump(0), got.at("profile").dump(0));
}

// ---- served vs in-process field identity -------------------------------

/// One in-process server on a Unix socket in /tmp (sun_path caps at ~107
/// bytes; a build-tree path can blow it).
struct TestServer {
  obs::MetricsRegistry metrics;
  std::unique_ptr<Service> service;
  std::unique_ptr<Server> server;
  std::string path;

  explicit TestServer(std::size_t workers, std::size_t queue_depth = 64,
                      std::size_t cache_entries = 64) {
    path = "/tmp/dp_serve_test." + std::to_string(::getpid()) + "." +
           std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xffff) +
           ".sock";
    ServiceOptions sopts;
    sopts.profile_cache_entries = cache_entries;
    service = std::make_unique<Service>(sopts, &metrics);
    ServerOptions opts;
    opts.unix_path = path;
    opts.workers = workers;
    opts.queue_depth = queue_depth;
    server = std::make_unique<Server>(opts, service.get(), &metrics);
    std::string error;
    if (!server->start(&error)) {
      ADD_FAILURE() << "server start failed: " << error;
    }
  }

  Client connect() {
    std::string error;
    auto c = Client::connect_unix(path, &error);
    EXPECT_TRUE(c.has_value()) << error;
    return std::move(*c);
  }

  ~TestServer() {
    server->initiate_drain();
    server->wait();
  }
};

JsonValue call(Client& client, const JsonValue& request) {
  JsonValue resp;
  std::string error;
  EXPECT_TRUE(client.call(request, &resp, &error)) << error;
  return resp;
}

JsonValue analyze_req(const std::string& circuit, const std::string& model,
                      std::size_t jobs) {
  JsonValue r = JsonValue::object();
  r["type"] = "analyze";
  r["circuit"] = circuit;
  JsonValue opts = JsonValue::object();
  opts["model"] = model;
  opts["jobs"] = jobs;
  if (model == "bf.and" || model == "bf.or") opts["bridge_count"] = 40;
  if (model == "hybrid") opts["prefilter_patterns"] = 512;
  r["options"] = std::move(opts);
  return r;
}

/// The acceptance contract: a served analyze response's profile document
/// equals serializing the in-process engine result, byte for byte, at
/// request-level worker counts 1 and 4 (engine jobs follow the worker
/// count; sweeps are jobs-invariant, doubles round-trip exactly).
class FieldIdentityTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FieldIdentityTest, ServedEqualsInProcessAtWorkers1And4) {
  const std::string circuit_name = GetParam();
  const netlist::Circuit circuit = netlist::make_benchmark(circuit_name);

  // sa/hybrid requests send no sampling options, so the in-process
  // reference uses default AnalysisOptions; the bridging request caps
  // bridge_count at 40 (test runtime), mirrored here.
  analysis::AnalysisOptions a;
  analysis::AnalysisOptions a_bf;
  a_bf.sampling.target_count = 40;
  analysis::HybridOptions h;
  h.prefilter_patterns = 512;

  const JsonValue expected_sa = analysis::profile_to_json(
      analysis::analyze_stuck_at(circuit, a),
      analysis::profile_cache_key(circuit, "sa", a));
  const JsonValue expected_bf = analysis::profile_to_json(
      analysis::analyze_bridging(circuit, fault::BridgeType::And, a_bf),
      analysis::profile_cache_key(circuit, "bf.and", a_bf));
  const JsonValue expected_hy = analysis::hybrid_profile_to_json(
      analysis::analyze_stuck_at_hybrid(circuit, a, h));

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    TestServer ts(workers);
    Client client = ts.connect();
    JsonValue sa =
        call(client, analyze_req(circuit_name, "sa", workers));
    ASSERT_TRUE(sa.at("ok").as_bool()) << sa.dump(0);
    EXPECT_EQ(sa.at("profile").dump(0), expected_sa.dump(0))
        << circuit_name << " sa, workers=" << workers;

    JsonValue bf =
        call(client, analyze_req(circuit_name, "bf.and", workers));
    ASSERT_TRUE(bf.at("ok").as_bool()) << bf.dump(0);
    EXPECT_EQ(bf.at("profile").dump(0), expected_bf.dump(0))
        << circuit_name << " bf.and, workers=" << workers;

    JsonValue hy =
        call(client, analyze_req(circuit_name, "hybrid", workers));
    ASSERT_TRUE(hy.at("ok").as_bool()) << hy.dump(0);
    EXPECT_EQ(hy.at("profile").dump(0), expected_hy.dump(0))
        << circuit_name << " hybrid, workers=" << workers;
  }
}

INSTANTIATE_TEST_SUITE_P(Suite, FieldIdentityTest,
                         ::testing::Values("c17", "alu181", "c432"));

TEST(ServeIdentityTest, NDetectServedEqualsInProcessAtWorkers1And4) {
  // The served n-detect report must serialize byte-for-byte to the
  // in-process NDetectAnalyzer result, including the cache key (computed
  // here the way the service computes it: jobs excluded, everything the
  // counts depend on included), at worker counts 1 and 4 -- satcounts of
  // canonical functions are jobs-invariant by construction.
  const std::string circuit_name = "alu181";
  const netlist::Circuit circuit = netlist::make_benchmark(circuit_name);
  const auto faults = fault::collapse_checkpoint_faults(circuit);
  const std::size_t n = 2;

  store::KeyBuilder kb;
  kb.str(analysis::kNDetectSchema);
  kb.str(store::circuit_content_hash(circuit));
  kb.u64(n);
  kb.flag(true);   // topup
  kb.flag(true);   // collapse
  kb.u64(0);       // no client vectors
  const std::string key = kb.hex();

  analysis::NDetectAnalyzer analyzer(circuit, faults);
  std::vector<std::vector<bool>> vectors;
  const std::size_t minted = analyzer.top_up(vectors, n);
  analysis::NDetectReport report = analyzer.report(vectors, n);
  report.minted_vectors = minted;
  const JsonValue expected = analysis::ndetect_report_to_json(report, key);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    TestServer ts(workers);
    Client client = ts.connect();
    JsonValue r = JsonValue::object();
    r["type"] = "ndetect";
    r["circuit"] = circuit_name;
    JsonValue opts = JsonValue::object();
    opts["n"] = static_cast<long long>(n);
    opts["jobs"] = static_cast<long long>(workers);
    r["options"] = std::move(opts);
    JsonValue resp = call(client, r);
    ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);
    EXPECT_EQ(resp.at("key").as_string(), key) << "workers=" << workers;
    EXPECT_EQ(resp.at("report").dump(0), expected.dump(0))
        << "workers=" << workers;
    EXPECT_EQ(resp.at("minted_vectors").size(), minted)
        << "workers=" << workers;

    // Second identical request: a cache hit with the identical payload.
    JsonValue again = JsonValue::object();
    again["type"] = "ndetect";
    again["circuit"] = circuit_name;
    JsonValue opts2 = JsonValue::object();
    opts2["n"] = static_cast<long long>(n);
    opts2["jobs"] = static_cast<long long>(workers);
    again["options"] = std::move(opts2);
    JsonValue resp2 = call(client, again);
    ASSERT_TRUE(resp2.at("ok").as_bool()) << resp2.dump(0);
    EXPECT_TRUE(resp2.at("cached").as_bool());
    EXPECT_EQ(resp2.at("report").dump(0), expected.dump(0))
        << "workers=" << workers;
  }
}

TEST(ServiceTest, NDetectUnknownOptionAndBadVectorsAreBadRequests) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);

  JsonValue r = req("ndetect", "c17");
  JsonValue opts = JsonValue::object();
  opts["frobnicate"] = true;  // unknown key: reject, never silently ignore
  r["options"] = std::move(opts);
  JsonValue resp = handled(service, r);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(resp.at("error").at("message").as_string().find("frobnicate"),
            std::string::npos);

  // A vector of the wrong width must bounce before any analysis runs.
  JsonValue bad = req("ndetect", "c17");
  JsonValue vecs = JsonValue::array();
  vecs.push_back(std::string("01"));  // c17 has 5 inputs
  bad["vectors"] = std::move(vecs);
  resp = handled(service, bad);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
}

TEST(ServeIdentityTest, BfOrServedEqualsInProcess) {
  analysis::AnalysisOptions a;
  a.sampling.target_count = 40;
  const netlist::Circuit circuit = netlist::make_benchmark("alu181");
  const JsonValue expected = analysis::profile_to_json(
      analysis::analyze_bridging(circuit, fault::BridgeType::Or, a),
      analysis::profile_cache_key(circuit, "bf.or", a));
  TestServer ts(2);
  Client client = ts.connect();
  JsonValue resp = call(client, analyze_req("alu181", "bf.or", 2));
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);
  EXPECT_EQ(resp.at("profile").dump(0), expected.dump(0));
}

/// The cache holds each payload as serialized text and splices it into
/// the frame: for every cached request kind, the hit frame is the miss
/// frame with "cached" flipped, both end in the in-process serialization
/// of the payload, and LRU eviction and "evict" still drop the entry.
class CachedFrameTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CachedFrameTest, HitEqualsMissAndBothCarryTheInProcessPayload) {
  const std::string model = GetParam();
  const netlist::Circuit circuit = netlist::make_benchmark("c95");
  JsonValue request;
  std::string expected_tail;  // the payload members and the closing brace
  if (model == "ndetect") {
    request = ndetect_top_up_req("c95");
    expected_tail = ndetect_top_up_tail(circuit);
  } else {
    request = analyze_req("c95", model, 1);
    analysis::AnalysisOptions a;
    JsonValue expected;
    if (model == "sa") {
      expected = analysis::profile_to_json(
          analysis::analyze_stuck_at(circuit, a),
          analysis::profile_cache_key(circuit, "sa", a));
    } else if (model == "hybrid") {
      analysis::HybridOptions h;
      h.prefilter_patterns = 512;
      expected = analysis::hybrid_profile_to_json(
          analysis::analyze_stuck_at_hybrid(circuit, a, h));
    } else {
      a.sampling.target_count = 40;
      expected = analysis::profile_to_json(
          analysis::analyze_bridging(circuit,
                                     model == "bf.and"
                                         ? fault::BridgeType::And
                                         : fault::BridgeType::Or,
                                     a),
          analysis::profile_cache_key(circuit, model, a));
    }
    expected_tail = "\"profile\":" + expected.dump(0) + "}";
  }

  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.profile_cache_entries = 1;
  Service service(options, &metrics);
  const std::string miss = service.handle(request);
  const std::string hit = service.handle(request);
  const std::string cold = "\"cached\":false";
  const std::size_t at = miss.find(cold);
  ASSERT_NE(at, std::string::npos) << miss.substr(0, 200);
  std::string miss_as_hit = miss;
  miss_as_hit.replace(at, cold.size(), "\"cached\":true");
  EXPECT_EQ(hit, miss_as_hit);
  EXPECT_TRUE(miss.ends_with(expected_tail)) << miss.substr(0, 200);
  EXPECT_TRUE(hit.ends_with(expected_tail)) << hit.substr(0, 200);
  EXPECT_TRUE(JsonValue::parse(hit).at("ok").as_bool());
  EXPECT_EQ(service.profile_cache_size(), 1u);

  // Another key through the one-entry LRU evicts this payload; the next
  // request recomputes it cold, to the same frame.
  ASSERT_TRUE(handled(service, req("analyze", "c17")).at("ok").as_bool());
  EXPECT_EQ(service.profile_cache_size(), 1u);
  EXPECT_EQ(metrics.counter("serve.profile_cache.evictions").value(), 1u);
  EXPECT_EQ(service.handle(request), miss);
  ASSERT_TRUE(handled(service, req("evict")).at("ok").as_bool());
  EXPECT_EQ(service.profile_cache_size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Models, CachedFrameTest,
                         ::testing::Values("sa", "bf.and", "bf.or", "hybrid",
                                           "ndetect"));

// ---- admission control, deadlines, drain -------------------------------

JsonValue sleep_req(std::uint64_t ms) {
  JsonValue r = JsonValue::object();
  r["type"] = "sleep";
  JsonValue opts = JsonValue::object();
  opts["ms"] = static_cast<long long>(ms);
  r["options"] = std::move(opts);
  return r;
}

TEST(ServeAdmissionTest, QueueFullReturnsStructuredBackpressure) {
  TestServer ts(/*workers=*/1, /*queue_depth=*/1);
  Client blocker = ts.connect();
  Client queued = ts.connect();
  Client rejected = ts.connect();

  // Occupy the only worker...
  std::thread t1([&] {
    JsonValue resp = call(blocker, sleep_req(700));
    EXPECT_TRUE(resp.at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // ...fill the one queue slot...
  std::thread t2([&] {
    JsonValue resp = call(queued, sleep_req(5));
    EXPECT_TRUE(resp.at("ok").as_bool());  // admitted: must complete
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  // ...and the next arrival must bounce immediately.
  JsonValue resp = call(rejected, sleep_req(5));
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "queue_full");
  t1.join();
  t2.join();
  EXPECT_GE(ts.metrics.counter("serve.rejected.queue_full").value(), 1u);
}

TEST(ServeAdmissionTest, DeadlineExpiredInQueueIsNotExecuted) {
  TestServer ts(/*workers=*/1);
  Client blocker = ts.connect();
  Client impatient = ts.connect();

  std::thread t1([&] {
    JsonValue resp = call(blocker, sleep_req(600));
    EXPECT_TRUE(resp.at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  JsonValue r = sleep_req(5);
  r["deadline_ms"] = 100;  // expires ~350ms before the worker frees up
  JsonValue resp = call(impatient, r);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "deadline_exceeded");
  t1.join();
  EXPECT_GE(ts.metrics.counter("serve.rejected.deadline").value(), 1u);
}

TEST(ServeAdmissionTest, NDetectBehindBlockerHonorsDeadline) {
  // Admission control is request-type agnostic: an ndetect request whose
  // deadline expires while a blocker occupies the only worker must come
  // back deadline_exceeded without ever reaching the analyzer.
  TestServer ts(/*workers=*/1);
  Client blocker = ts.connect();
  Client impatient = ts.connect();

  std::thread t1([&] {
    JsonValue resp = call(blocker, sleep_req(600));
    EXPECT_TRUE(resp.at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  JsonValue r = JsonValue::object();
  r["type"] = "ndetect";
  r["circuit"] = "c432";
  JsonValue opts = JsonValue::object();
  opts["n"] = 3;
  r["options"] = std::move(opts);
  r["deadline_ms"] = 100;  // expires ~350ms before the worker frees up
  JsonValue resp = call(impatient, r);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "deadline_exceeded");
  t1.join();
  EXPECT_EQ(ts.metrics.counter("serve.requests.ndetect").value(), 0u);
}

TEST(ServeDrainTest, ShutdownFinishesInFlightAndRejectsLateArrivals) {
  auto ts = std::make_unique<TestServer>(/*workers=*/1);
  Client worker_conn = ts->connect();
  Client ctl = ts->connect();

  std::thread t1([&] {
    // Admitted before the drain: must complete despite the shutdown.
    JsonValue resp = call(worker_conn, sleep_req(500));
    EXPECT_TRUE(resp.at("ok").as_bool());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  JsonValue shutdown = JsonValue::object();
  shutdown["type"] = "shutdown";
  JsonValue ack = call(ctl, shutdown);
  EXPECT_TRUE(ack.at("ok").as_bool());
  EXPECT_TRUE(ts->server->draining());

  // Late arrival on a still-open connection: structured rejection.
  JsonValue late = call(ctl, sleep_req(5));
  EXPECT_FALSE(late.at("ok").as_bool());
  EXPECT_EQ(late.at("error").at("code").as_string(), "shutting_down");

  t1.join();
  ts->server->wait();  // returns only when drained
  ts.reset();
}

TEST(ServeTransportTest, TcpLoopbackAndEphemeralPort) {
  obs::MetricsRegistry metrics;
  Service service(ServiceOptions{}, &metrics);
  ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.workers = 1;
  Server server(opts, &service, &metrics);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_GT(server.tcp_port(), 0);

  auto client = Client::connect_tcp("127.0.0.1", server.tcp_port(), &error);
  ASSERT_TRUE(client.has_value()) << error;
  JsonValue resp = call(*client, req("ping"));
  EXPECT_TRUE(resp.at("ok").as_bool());
  server.initiate_drain();
  server.wait();
}

TEST(ServeTransportTest, MalformedJsonGetsBadRequestAndStreamSurvives) {
  TestServer ts(1);
  Client client = ts.connect();
  std::string error;
  ASSERT_TRUE(write_frame(client.fd(), "{not json", &error)) << error;
  std::string payload;
  ASSERT_EQ(read_frame(client.fd(), &payload, kDefaultMaxFrameBytes, &error),
            ReadStatus::Ok)
      << error;
  JsonValue resp = JsonValue::parse(payload);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("error").at("code").as_string(), "bad_request");
  // Frame boundaries were respected, so the connection still works.
  JsonValue pong = call(client, req("ping"));
  EXPECT_TRUE(pong.at("ok").as_bool());
}

TEST(ServeMetricsTest, MetricsRequestReturnsValidatableDocument) {
  TestServer ts(1);
  Client client = ts.connect();
  ASSERT_TRUE(call(client, req("ping")).at("ok").as_bool());
  JsonValue resp = call(client, req("metrics"));
  ASSERT_TRUE(resp.at("ok").as_bool());
  const JsonValue& doc = resp.at("document");
  EXPECT_EQ(doc.at("schema").as_string(), "dp.metrics.v1");
  EXPECT_EQ(doc.at("tool").as_string(), "dpserved");
  EXPECT_TRUE(doc.at("metrics").at("counters").contains("serve.admitted"));
}

}  // namespace
}  // namespace dp::serve
