// Streaming serve path: frame codec robustness, the StreamFrontend
// request/response loop end to end over in-memory streams, and the
// march_serve SIGTERM contract (a killed batch still flushes a complete,
// valid NDJSON metrics snapshot and exits 143).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <future>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "io/frame_io.h"
#include "io/job_io.h"
#include "io/json.h"
#include "io/plan_codec.h"
#include "runtime/admission.h"
#include "runtime/mission_service.h"
#include "runtime/stream_frontend.h"

namespace anr {
namespace {

// ---------------------------------------------------------------------
// Frame codec.

TEST(FrameIo, RoundTripAndCleanEof) {
  std::stringstream s;
  ASSERT_TRUE(write_frame(s, FrameType::kRequest, "{\"id\":\"a\"}"));
  ASSERT_TRUE(write_frame(s, FrameType::kResponse, ""));
  ASSERT_TRUE(write_frame(s, FrameType::kError, std::string("b\0in", 4)));

  Frame f;
  std::string err;
  ASSERT_EQ(read_frame(s, &f, &err), FrameReadStatus::kFrame) << err;
  EXPECT_EQ(f.type, FrameType::kRequest);
  EXPECT_EQ(f.payload, "{\"id\":\"a\"}");
  ASSERT_EQ(read_frame(s, &f, &err), FrameReadStatus::kFrame) << err;
  EXPECT_EQ(f.type, FrameType::kResponse);
  EXPECT_TRUE(f.payload.empty());
  ASSERT_EQ(read_frame(s, &f, &err), FrameReadStatus::kFrame) << err;
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_EQ(f.payload, std::string("b\0in", 4));  // binary-safe payloads
  EXPECT_EQ(read_frame(s, &f, &err), FrameReadStatus::kEof);
}

TEST(FrameIo, TruncationsAreTypedErrors) {
  const std::string whole = encode_frame(FrameType::kRequest, "payload");
  // EOF exactly at a boundary is clean; anywhere mid-frame is an error.
  for (std::size_t len = 1; len < whole.size(); ++len) {
    std::stringstream s(whole.substr(0, len));
    Frame f;
    std::string err;
    EXPECT_EQ(read_frame(s, &f, &err), FrameReadStatus::kError)
        << "prefix of " << len << " bytes";
    EXPECT_FALSE(err.empty());
  }
  std::stringstream empty;
  Frame f;
  EXPECT_EQ(read_frame(empty, &f), FrameReadStatus::kEof);
}

TEST(FrameIo, HostileLengthAndTypeAreRejected) {
  // A length word beyond kMaxFramePayload must fail before any buffer is
  // sized to it.
  std::string oversized;
  const std::uint64_t huge = kMaxFramePayload + 1;
  for (int i = 0; i < 4; ++i) {
    oversized.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  }
  oversized.push_back(1);  // kRequest
  std::stringstream s1(oversized);
  Frame f;
  std::string err;
  EXPECT_EQ(read_frame(s1, &f, &err), FrameReadStatus::kError);
  EXPECT_NE(err.find("payload"), std::string::npos);

  std::string unknown_type = encode_frame(FrameType::kRequest, "x");
  unknown_type[4] = 9;  // not a FrameType
  std::stringstream s2(unknown_type);
  EXPECT_EQ(read_frame(s2, &f, &err), FrameReadStatus::kError);
}

TEST(FrameIo, ResponsePlanPayloadSplits) {
  const std::string json = "{\"id\":\"x\",\"ok\":true}";
  const std::string plan = std::string("ANRPLANB") + std::string(16, '\0');
  const std::string payload = make_response_plan_payload(json, plan);

  std::string_view got_json, got_plan;
  std::string err;
  ASSERT_TRUE(split_response_plan_payload(payload, &got_json, &got_plan, &err))
      << err;
  EXPECT_EQ(got_json, json);
  EXPECT_EQ(got_plan, plan);

  // Malformed: shorter than its own length prefix / missing prefix.
  EXPECT_FALSE(split_response_plan_payload(payload.substr(0, 3), &got_json,
                                           &got_plan, &err));
  std::string overrun = payload.substr(0, 4 + json.size() - 1);
  EXPECT_FALSE(
      split_response_plan_payload(overrun, &got_json, &got_plan, &err));
}

// ---------------------------------------------------------------------
// StreamFrontend end to end over in-memory streams.

struct Serving {
  runtime::MissionService service;
  runtime::AdmissionController controller;
  runtime::ServingGateway gateway;
  runtime::StreamFrontend frontend;

  Serving()
      : service(small_service()),
        controller(runtime::AdmissionOptions{}),
        gateway(backend(), &controller),
        frontend(&gateway) {}

  static runtime::ServiceOptions small_service() {
    runtime::ServiceOptions so;
    so.threads = 2;
    return so;
  }

  runtime::GatewayBackend backend() {
    runtime::GatewayBackend b;
    b.submit = [this](runtime::PlanJob j) {
      return service.submit(std::move(j));
    };
    b.queue_depth = [this] { return service.queue_depth(); };
    return b;
  }
};

std::string small_request(const std::string& id, const char* extra) {
  return "{\"id\":\"" + id +
         "\",\"scenario\":1,\"robots\":24,\"separation\":12,"
         "\"options\":{\"grid_points\":250,\"cvt_samples\":1000,"
         "\"max_adjust_steps\":2}" +
         extra + "}";
}

TEST(StreamFrontendTest, ServesRequestsInOrderWithBinaryPlan) {
  Serving s;
  std::stringstream in;
  write_frame(in, FrameType::kRequest, small_request("first", ""));
  write_frame(in, FrameType::kRequest,
              small_request("second",
                            ",\"include_plan\":true,"
                            "\"plan_encoding\":\"binary\""));
  write_frame(in, FrameType::kRequest, "{\"scenario\": not-json");
  std::stringstream out;

  const runtime::StreamStats stats = s.frontend.serve(in, out);
  EXPECT_EQ(stats.frames_read, 3u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.bad_requests, 1u);
  EXPECT_EQ(stats.responses, 3u);
  EXPECT_EQ(stats.plan_frames, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);

  Frame f;
  std::string err;

  // Response 1: plain result for "first".
  ASSERT_EQ(read_frame(out, &f, &err), FrameReadStatus::kFrame) << err;
  ASSERT_EQ(f.type, FrameType::kResponse);
  json::Value r1 = json::parse(f.payload);
  EXPECT_EQ(r1.at("id").as_string(), "first");
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_EQ(r1.as_object().count("plan"), 0u);

  // Response 2: kResponsePlan with a decodable binary plan document.
  ASSERT_EQ(read_frame(out, &f, &err), FrameReadStatus::kFrame) << err;
  ASSERT_EQ(f.type, FrameType::kResponsePlan);
  std::string_view headline, plan_bytes;
  ASSERT_TRUE(split_response_plan_payload(f.payload, &headline, &plan_bytes,
                                          &err))
      << err;
  json::Value r2 = json::parse(std::string(headline));
  EXPECT_EQ(r2.at("id").as_string(), "second");
  EXPECT_TRUE(r2.at("ok").as_bool());
  ASSERT_TRUE(looks_like_binary_plan(plan_bytes));
  std::optional<MarchPlan> plan = decode_plan(plan_bytes, &err);
  ASSERT_TRUE(plan.has_value()) << err;
  EXPECT_EQ(plan->trajectories.size(), 24u);

  // Response 3: the malformed request answered in-band, stream survived.
  ASSERT_EQ(read_frame(out, &f, &err), FrameReadStatus::kFrame) << err;
  ASSERT_EQ(f.type, FrameType::kResponse);
  json::Value r3 = json::parse(f.payload);
  EXPECT_FALSE(r3.at("ok").as_bool());
  EXPECT_EQ(r3.at("status").as_string(), "rejected_invalid");

  EXPECT_EQ(read_frame(out, &f, &err), FrameReadStatus::kEof);
}

TEST(StreamFrontendTest, NonRequestFrameIsTerminalProtocolError) {
  Serving s;
  std::stringstream in;
  write_frame(in, FrameType::kResponse, "{}");  // clients must not do this
  std::stringstream out;

  const runtime::StreamStats stats = s.frontend.serve(in, out);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.protocol_errors, 1u);

  Frame f;
  std::string err;
  ASSERT_EQ(read_frame(out, &f, &err), FrameReadStatus::kFrame) << err;
  EXPECT_EQ(f.type, FrameType::kError);
  EXPECT_NE(f.payload.find("response"), std::string::npos);
}

// ---------------------------------------------------------------------
// Stream decoder fuzz: a three-frame client stream, every truncation and
// every single-byte change, through read_frame and through the frontend.

// The frames of one byte stream: whole frames, then a clean EOF or one
// typed error.
struct Decoded {
  std::vector<Frame> frames;
  bool error = false;
};

Decoded decode_all(const std::string& bytes) {
  std::stringstream in(bytes);
  Decoded d;
  for (;;) {
    Frame f;
    std::string err;
    const FrameReadStatus st = read_frame(in, &f, &err);
    if (st == FrameReadStatus::kEof) return d;
    if (st == FrameReadStatus::kError) {
      EXPECT_FALSE(err.empty());
      d.error = true;
      return d;
    }
    d.frames.push_back(std::move(f));
  }
}

// Two valid requests around one without geometry. The valid ones carry
// their positions and "robots":0, so a change that breaks the positions
// key fails fast instead of generating a deployment.
const std::vector<std::string>& fuzz_payloads() {
  static const std::vector<std::string> payloads{
      R"({"id":"a","scenario":1,"robots":0,"positions":{"x":[0],"y":[0]}})",
      R"({"id":"b"})",
      R"({"id":"c","scenario":2,"robots":0,"positions":{"x":[5],"y":[5]}})"};
  return payloads;
}

std::string fuzz_stream() {
  std::string s;
  for (const std::string& p : fuzz_payloads()) {
    append_frame(&s, FrameType::kRequest, p);
  }
  return s;
}

// Every truncation, then every single-byte change (all 255 XOR masks at
// every offset), of the fuzz stream.
void for_each_damaged_stream(
    const std::function<void(const std::string&)>& visit) {
  const std::string whole = fuzz_stream();
  for (std::size_t len = 0; len < whole.size(); ++len) {
    visit(whole.substr(0, len));
  }
  for (std::size_t i = 0; i < whole.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string bad = whole;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      visit(bad);
    }
  }
}

TEST(FrameIo, ThreeFrameStreamSurvivesTruncationAndByteChanges) {
  const std::string whole = fuzz_stream();
  const std::vector<std::string>& payloads = fuzz_payloads();
  const Decoded clean = decode_all(whole);
  ASSERT_FALSE(clean.error);
  ASSERT_EQ(clean.frames.size(), payloads.size());

  // Truncations: the frames that fit whole, then an error unless the cut
  // falls on a frame boundary.
  std::size_t boundary = 0, whole_frames = 0;
  for (std::size_t len = 0; len < whole.size(); ++len) {
    if (whole_frames < payloads.size() &&
        len == boundary + 5 + payloads[whole_frames].size()) {
      boundary = len;
      ++whole_frames;
    }
    const Decoded d = decode_all(whole.substr(0, len));
    SCOPED_TRACE(testing::Message() << "prefix of " << len << " bytes");
    EXPECT_EQ(d.error, len != boundary);
    ASSERT_EQ(d.frames.size(), whole_frames);
    for (std::size_t k = 0; k < d.frames.size(); ++k) {
      EXPECT_EQ(d.frames[k].payload, payloads[k]);
    }
  }

  // Byte changes: every decoded frame has a known type and fits in the
  // input; a change inside a payload leaves the framing intact.
  int errors = 0, reframed = 0;
  for (std::size_t i = 0; i < whole.size(); ++i) {
    for (int mask = 1; mask < 256; ++mask) {
      std::string bad = whole;
      bad[i] = static_cast<char>(bad[i] ^ mask);
      const Decoded d = decode_all(bad);
      SCOPED_TRACE(testing::Message() << "byte " << i << " ^ " << mask);
      std::size_t consumed = 0;
      for (const Frame& f : d.frames) {
        const int type = static_cast<int>(f.type);
        EXPECT_TRUE(type >= 1 && type <= 4) << type;
        consumed += 5 + f.payload.size();
      }
      EXPECT_LE(consumed, bad.size());
      std::size_t start = 0, frame = 0;
      while (frame < payloads.size() &&
             i >= start + 5 + payloads[frame].size()) {
        start += 5 + payloads[frame].size();
        ++frame;
      }
      if (i >= start + 5) {
        ASSERT_FALSE(d.error);
        ASSERT_EQ(d.frames.size(), payloads.size());
        std::string want = payloads[frame];
        want[i - start - 5] = bad[i];
        EXPECT_EQ(d.frames[frame].payload, want);
      } else if (d.error) {
        ++errors;
      } else {
        ++reframed;
      }
    }
  }
  EXPECT_GT(errors, 0);
  EXPECT_GT(reframed, 0);
}

TEST(StreamFrontendTest, SurvivesTruncatedAndChangedStreams) {
  // A backend that answers at once, so each damaged stream costs only its
  // parsing.
  runtime::GatewayBackend backend;
  backend.submit = [](runtime::PlanJob job) {
    runtime::JobResult r;
    r.id = job.id;
    r.status = runtime::JobStatus::kRejectedOverload;
    r.error = "stub backend";
    std::promise<runtime::JobResult> done;
    done.set_value(std::move(r));
    return done.get_future();
  };
  backend.queue_depth = [] { return std::size_t{0}; };
  runtime::AdmissionController controller{runtime::AdmissionOptions{}};
  runtime::ServingGateway gateway(backend, &controller);
  runtime::StreamFrontend frontend(&gateway);

  std::uint64_t sessions = 0, answered = 0, terminated = 0;
  for_each_damaged_stream([&](const std::string& bytes) {
    std::stringstream in(bytes), out;
    const runtime::StreamStats stats = frontend.serve(in, out);
    ++sessions;
    // The frontend reads the request frames up to the first damaged or
    // non-request one and answers each; damage ends the session with one
    // kError frame.
    const Decoded input = decode_all(bytes);
    std::size_t requests = 0;
    while (requests < input.frames.size() &&
           input.frames[requests].type == FrameType::kRequest) {
      ++requests;
    }
    const bool damaged = input.error || requests < input.frames.size();
    const Decoded output = decode_all(out.str());
    ASSERT_FALSE(output.error) << "response stream cut mid-frame";
    ASSERT_EQ(output.frames.size(), requests + (damaged ? 1 : 0));
    for (std::size_t k = 0; k < requests; ++k) {
      ASSERT_EQ(output.frames[k].type, FrameType::kResponse);
      const json::Value r = json::parse(output.frames[k].payload);
      EXPECT_FALSE(r.at("ok").as_bool());
    }
    if (damaged) {
      EXPECT_EQ(output.frames.back().type, FrameType::kError);
      ++terminated;
    }
    EXPECT_EQ(stats.requests + stats.bad_requests, requests);
    EXPECT_EQ(stats.responses, requests);
    EXPECT_EQ(stats.protocol_errors, damaged ? 1u : 0u);
    answered += stats.requests;
  });
  EXPECT_GT(answered, sessions);  // most changes leave valid requests
  EXPECT_GT(terminated, 0u);
}

// ---------------------------------------------------------------------
// march_serve SIGTERM contract. The binary path arrives via
// ANR_MARCH_SERVE_BIN (wired in tests/CMakeLists.txt); the test forks
// it on a long batch, SIGTERMs it mid-run, and requires exit 143 plus a
// complete, parseable NDJSON metrics file.

TEST(MarchServeSignal, SigtermMidBatchFlushesValidNdjsonMetrics) {
  const char* bin = std::getenv("ANR_MARCH_SERVE_BIN");
#ifdef ANR_MARCH_SERVE_BIN_DEFAULT
  if (bin == nullptr || bin[0] == '\0') bin = ANR_MARCH_SERVE_BIN_DEFAULT;
#endif
  if (bin == nullptr || bin[0] == '\0') {
    GTEST_SKIP() << "ANR_MARCH_SERVE_BIN not set";
  }
  if (access(bin, X_OK) != 0) {
    GTEST_SKIP() << "march_serve binary not built at " << bin;
  }

  const std::string input_path = "sigterm_jobs.ndjson";
  const std::string metrics_path = "sigterm_metrics.ndjson";
  std::remove(metrics_path.c_str());
  {
    std::ofstream jobs(input_path);
    ASSERT_TRUE(jobs.good());
    for (int i = 0; i < 400; ++i) {
      jobs << "{\"id\":\"sig-" << i
           << "\",\"scenario\":1,\"robots\":36,\"separation\":12,"
              "\"options\":{\"grid_points\":300,\"cvt_samples\":1500,"
              "\"max_adjust_steps\":3}}\n";
    }
  }

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: silence stdout (hundreds of result lines), keep stderr.
    const int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) dup2(devnull, STDOUT_FILENO);
    execl(bin, bin, "--threads", "1", "--input", input_path.c_str(),
          "--metrics", metrics_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Give the batch time to start planning, then kill it mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(2000));
  ASSERT_EQ(kill(pid, SIGTERM), 0);

  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "march_serve did not exit cleanly";
  EXPECT_EQ(WEXITSTATUS(wstatus), 143) << "expected the SIGTERM exit code";

  // The flushed metrics file must be complete, valid NDJSON with the
  // service's job counters present.
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good()) << "no metrics file flushed on SIGTERM";
  std::string line;
  int lines = 0;
  bool saw_jobs_total = false;
  while (std::getline(metrics, line)) {
    if (line.empty()) continue;
    ++lines;
    json::Value v;
    ASSERT_NO_THROW(v = json::parse(line))
        << "metrics line " << lines << " is not valid JSON: " << line;
    ASSERT_TRUE(v.is_object());
    EXPECT_GT(v.as_object().count("name"), 0u);
    if (v.at("name").as_string() == "anr_jobs_total") saw_jobs_total = true;
  }
  EXPECT_GT(lines, 0) << "metrics file is empty";
  EXPECT_TRUE(saw_jobs_total) << "anr_jobs_total series missing";

  std::remove(input_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
}  // namespace anr
