// Socket-backed shuffle: frames, fault plans, worker servers, the socket
// transport's retry/liveness machinery, and the job engine's escalation
// ladder on top of it. Everything here runs real loopback TCP (in-process
// worker servers) — no mocks between the transport and the bytes.
//
// The invariant under test at every layer: moving the shuffle onto a
// faulty wire may change HOW bytes arrive (retries, redundant local
// reads, map re-runs) but never WHAT the job produces — and a byte
// flipped in transit is always a detected DataLoss, never silent output
// corruption.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "mapreduce/dfs.h"
#include "mapreduce/job.h"
#include "mapreduce/shuffle_segment.h"
#include "mapreduce/shuffle_transport.h"
#include "mapreduce/worker_net.h"

namespace fj::mr {
namespace {

using net::Frame;
using net::FrameType;
using net::RecvFrame;
using net::Request;
using net::Response;
using net::SendFrame;
using net::WorkerPool;
using net::WorkerServer;
using net::WorkerServerOptions;

// --- frames ---------------------------------------------------------------

TEST(FrameTest, RoundTripOverPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string payload = "segment bytes \x00\xff with binary";
  ASSERT_TRUE(SendFrame(fds[1], FrameType::kPut, payload).ok());
  auto frame = RecvFrame(fds[0]);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->type, FrameType::kPut);
  EXPECT_EQ(frame->payload, payload);
  close(fds[0]);
  close(fds[1]);
}

TEST(FrameTest, CorruptPayloadIsDataLoss) {
  std::string wire;
  net::AppendFrame(&wire, FrameType::kOk, "response payload");
  wire[wire.size() - 3] ^= 0x20;  // flip a payload byte after hashing
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(net::WriteAllFd(fds[1], wire).ok());
  auto frame = RecvFrame(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);
  close(fds[0]);
  close(fds[1]);
}

TEST(FrameTest, PeerCloseMidFrameIsUnavailable) {
  std::string wire;
  net::AppendFrame(&wire, FrameType::kOk, "truncated in flight");
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  ASSERT_TRUE(net::WriteAllFd(fds[1], wire.substr(0, wire.size() / 2)).ok());
  close(fds[1]);  // peer dies mid-frame
  auto frame = RecvFrame(fds[0]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
  close(fds[0]);
}

TEST(FrameTest, RequestAndResponseCodecsRoundTrip) {
  Request request;
  request.job = "job-a";
  request.map_task = 7;
  request.partition = 3;
  request.attempt = 2;
  request.body = std::string("\x01\x02\x00payload", 10);
  std::string payload;
  net::EncodeRequest(request, &payload);
  Request decoded;
  ASSERT_TRUE(net::DecodeRequest(payload, &decoded));
  EXPECT_EQ(decoded.job, request.job);
  EXPECT_EQ(decoded.map_task, request.map_task);
  EXPECT_EQ(decoded.partition, request.partition);
  EXPECT_EQ(decoded.attempt, request.attempt);
  EXPECT_EQ(decoded.body, request.body);
  // Truncation at any depth must fail the decode, not read garbage.
  for (size_t cut : {size_t{0}, payload.size() / 2, payload.size() - 1}) {
    Request ignored;
    EXPECT_FALSE(net::DecodeRequest(payload.substr(0, cut), &ignored));
  }

  Response response;
  response.status = Status::NotFound("no such segment");
  response.body = "partial";
  std::string encoded;
  net::EncodeResponse(response, &encoded);
  Response back;
  ASSERT_TRUE(net::DecodeResponse(encoded, &back));
  EXPECT_EQ(back.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(back.status.message(), "no such segment");
  EXPECT_EQ(back.body, "partial");
}

// --- fault plans ----------------------------------------------------------

TEST(NetFaultPlanTest, SerializeRoundTrip) {
  NetFaultPlan plan;
  plan.seed = 99;
  plan.drop_probability = 0.25;
  plan.truncate_probability = 0.125;
  plan.corrupt_probability = 0.5;
  plan.stall_probability = 0.0625;
  plan.delay_probability = 1.0;
  plan.refuse_connect_probability = 0.75;
  plan.delay_ms = 7;
  plan.stall_ms = 1234;
  plan.fault_attempts = 5;
  NetFaultPlan back;
  ASSERT_TRUE(NetFaultPlan::Deserialize(plan.Serialize(), &back));
  EXPECT_EQ(back.Serialize(), plan.Serialize());
  EXPECT_EQ(back.seed, plan.seed);
  EXPECT_EQ(back.corrupt_probability, plan.corrupt_probability);
  EXPECT_EQ(back.stall_ms, plan.stall_ms);
  EXPECT_EQ(back.fault_attempts, plan.fault_attempts);

  EXPECT_FALSE(NetFaultPlan::Deserialize("", &back));
  EXPECT_FALSE(NetFaultPlan::Deserialize("1:2:3", &back));
  EXPECT_FALSE(NetFaultPlan::Deserialize("x:0:0:0:0:0:0:20:400:2", &back));
  // Probabilities outside [0, 1] are rejected.
  EXPECT_FALSE(NetFaultPlan::Deserialize("1:1.5:0:0:0:0:0:20:400:2", &back));

  EXPECT_TRUE(NetFaultPlan{}.Empty());
  EXPECT_FALSE(plan.Empty());
}

TEST(NetFaultPlanTest, DrawIsDeterministicPerCoordinate) {
  NetFaultPlan plan;
  plan.seed = 3;
  const double a =
      NetFaultDraw(plan, "job", 1, 2, 0, NetOp::kFetch, /*salt=*/1);
  EXPECT_EQ(a, NetFaultDraw(plan, "job", 1, 2, 0, NetOp::kFetch, 1));
  EXPECT_GE(a, 0.0);
  EXPECT_LT(a, 1.0);
  // Any coordinate change moves the draw.
  EXPECT_NE(a, NetFaultDraw(plan, "job", 1, 2, 1, NetOp::kFetch, 1));
  EXPECT_NE(a, NetFaultDraw(plan, "job", 1, 3, 0, NetOp::kFetch, 1));
  EXPECT_NE(a, NetFaultDraw(plan, "job", 1, 2, 0, NetOp::kPush, 1));
  EXPECT_NE(a, NetFaultDraw(plan, "job2", 1, 2, 0, NetOp::kFetch, 1));
  EXPECT_NE(a, NetFaultDraw(plan, "job", 1, 2, 0, NetOp::kFetch, 2));
  NetFaultPlan reseeded = plan;
  reseeded.seed = 4;
  EXPECT_NE(a, NetFaultDraw(reseeded, "job", 1, 2, 0, NetOp::kFetch, 1));
}

TEST(TransportKindTest, ParseAndName) {
  TransportKind kind;
  ASSERT_TRUE(ParseTransportKind("inproc", &kind));
  EXPECT_EQ(kind, TransportKind::kInproc);
  ASSERT_TRUE(ParseTransportKind("socket", &kind));
  EXPECT_EQ(kind, TransportKind::kSocket);
  EXPECT_FALSE(ParseTransportKind("carrier-pigeon", &kind));
  EXPECT_STREQ(TransportKindName(TransportKind::kSocket), "socket");
  EXPECT_STREQ(TransportKindName(TransportKind::kInproc), "inproc");
}

// --- segments -------------------------------------------------------------

TEST(ShuffleSegmentTest, EncodeDecodePreservesRunOrderAndMetadata) {
  MapTaskOutput<std::string, uint64_t> output;
  output.spills.resize(2);
  output.spills[0].resize(2);
  output.spills[1].resize(2);
  SortedRun<std::string, uint64_t>& first = output.spills[0][1];
  first.pairs = {{"alpha", 1}, {"beta", 2}};
  first.record_count = 2;
  first.bytes = 40;
  SortedRun<std::string, uint64_t>& second = output.spills[1][1];
  second.pairs = {{"gamma", 3}};
  second.record_count = 1;
  second.bytes = 20;

  std::string segment;
  EncodeShuffleSegment(output, /*partition=*/1, /*verify=*/true, &segment);
  std::vector<SortedRun<std::string, uint64_t>> runs;
  ASSERT_TRUE(DecodeShuffleSegment(segment, &runs).ok());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].record_count, 2u);
  EXPECT_EQ(runs[1].record_count, 1u);
  EXPECT_EQ(runs[0].bytes, 40u);
  EXPECT_FALSE(runs[0].encoded.empty());
  // Partition 0 is empty in both spills: zero runs, still decodable.
  std::string empty_segment;
  EncodeShuffleSegment(output, /*partition=*/0, true, &empty_segment);
  ASSERT_TRUE(DecodeShuffleSegment(empty_segment, &runs).ok());
  EXPECT_TRUE(runs.empty());
}

TEST(ShuffleSegmentTest, AnyFlippedByteIsDataLoss) {
  MapTaskOutput<std::string, uint64_t> output;
  output.spills.resize(1);
  output.spills[0].resize(1);
  output.spills[0][0].pairs = {{"key", 9}};
  output.spills[0][0].record_count = 1;
  std::string segment;
  EncodeShuffleSegment(output, 0, true, &segment);
  std::vector<SortedRun<std::string, uint64_t>> runs;
  for (size_t i = 0; i < segment.size(); ++i) {
    std::string corrupt = segment;
    corrupt[i] ^= 0x01;
    EXPECT_EQ(DecodeShuffleSegment(corrupt, &runs).code(),
              StatusCode::kDataLoss)
        << "byte " << i;
  }
  // Truncation too.
  EXPECT_EQ(DecodeShuffleSegment(std::string_view(segment).substr(
                                     0, segment.size() - 1),
                                 &runs)
                .code(),
            StatusCode::kDataLoss);
}

// --- worker server over real sockets --------------------------------------

Result<Response> Exchange(int port, FrameType type, const Request& request) {
  FJ_ASSIGN_OR_RETURN(int fd, net::DialTcpLoopback(port, 500, 2000));
  std::string payload;
  net::EncodeRequest(request, &payload);
  Status sent = SendFrame(fd, type, payload);
  if (!sent.ok()) {
    net::CloseFd(fd);
    return sent;
  }
  auto frame = RecvFrame(fd);
  net::CloseFd(fd);
  FJ_RETURN_IF_ERROR(frame.status());
  Response response;
  if (!net::DecodeResponse(frame->payload, &response)) {
    return Status::DataLoss("malformed response payload");
  }
  return response;
}

TEST(WorkerServerTest, ServesPutGetPingDropJob) {
  WorkerServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  Request put;
  put.job = "j";
  put.map_task = 4;
  put.partition = 2;
  put.body = "the segment";
  auto stored = Exchange(server.port(), FrameType::kPut, put);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  EXPECT_TRUE(stored->status.ok());
  EXPECT_EQ(server.segments_stored(), 1u);

  Request get = put;
  get.body.clear();
  auto fetched = Exchange(server.port(), FrameType::kGet, get);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(fetched->status.ok());
  EXPECT_EQ(fetched->body, "the segment");

  Request missing = get;
  missing.partition = 9;
  auto not_found = Exchange(server.port(), FrameType::kGet, missing);
  ASSERT_TRUE(not_found.ok());
  EXPECT_EQ(not_found->status.code(), StatusCode::kNotFound);

  auto ping = Exchange(server.port(), FrameType::kPing, Request{});
  ASSERT_TRUE(ping.ok());
  EXPECT_TRUE(ping->status.ok());

  Request drop;
  drop.job = "j";
  auto dropped = Exchange(server.port(), FrameType::kDropJob, drop);
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped->status.ok());
  EXPECT_EQ(server.segments_stored(), 0u);
  EXPECT_GE(server.requests_served(), 5u);
  server.Stop();
}

// Stop must not race the accept thread: it shuts the listener down, joins
// the thread, and only then closes the fd (a TSan build reports a race on
// the listening fd otherwise). A client keeps dialing throughout.
TEST(WorkerServerTest, RestartsWhileAClientConnects) {
  WorkerServer server;
  for (int round = 0; round < 20; ++round) {
    ASSERT_TRUE(server.Start().ok());
    const int port = server.port();
    std::atomic<bool> stopped{false};
    std::atomic<int> dials{0};
    // lint: allow-thread (a client racing the server's own threads)
    std::thread client([port, &stopped, &dials] {
      for (int i = 0; i < 20 && !stopped.load(); ++i) {
        Result<int> fd = net::DialTcpLoopback(port, 200, 200);
        if (fd.ok()) net::CloseFd(*fd);
        dials.fetch_add(1);
      }
    });
    while (dials.load() == 0) std::this_thread::yield();
    server.Stop();
    stopped.store(true);
    client.join();
  }
  server.Stop();  // a second Stop is a no-op
}

// --- transports -----------------------------------------------------------

TEST(InprocTransportTest, PublishFetchDropJob) {
  InprocTransport transport;
  NetCallStats stats;
  ShuffleSegmentKey key{"job", 1, 2};
  ASSERT_TRUE(transport.Publish(key, "bytes", &stats).ok());
  auto fetched = transport.Fetch(key, &stats);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, "bytes");
  // Unknown key and dropped job both read back as Unavailable.
  EXPECT_EQ(transport.Fetch({"job", 9, 9}, &stats).status().code(),
            StatusCode::kUnavailable);
  transport.DropJob("job");
  EXPECT_FALSE(transport.Fetch(key, &stats).ok());
  EXPECT_EQ(transport.worker_losses(), 0u);
}

SocketTransportOptions FastClientOptions() {
  SocketTransportOptions options;
  options.connect_timeout_ms = 500;
  options.io_timeout_ms = 300;
  options.max_attempts_per_op = 6;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 8;
  options.heartbeat_interval_ms = 0;  // liveness tested separately
  return options;
}

TEST(SocketTransportTest, PublishFetchAcrossWorkers) {
  auto pool = WorkerPool::StartInProcess(3, NetFaultPlan{});
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto transport =
      MakeSocketTransport((*pool)->ports(), nullptr, FastClientOptions());
  NetCallStats stats;
  for (uint64_t m = 0; m < 6; ++m) {
    ShuffleSegmentKey key{"job", m, 0};
    ASSERT_TRUE(
        transport->Publish(key, "seg" + std::to_string(m), &stats).ok());
  }
  for (uint64_t m = 0; m < 6; ++m) {
    auto fetched = transport->Fetch({"job", m, 0}, &stats);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(*fetched, "seg" + std::to_string(m));
  }
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  // Ring placement: segments land spread over the workers.
  uint64_t stored = 0;
  for (size_t i = 0; i < (*pool)->size(); ++i) {
    EXPECT_GT((*pool)->server(i)->segments_stored(), 0u);
    stored += (*pool)->server(i)->segments_stored();
  }
  EXPECT_EQ(stored, 6u);
  // A key nobody published is a definitive Unavailable, not a retry storm.
  NetCallStats miss_stats;
  EXPECT_EQ(transport->Fetch({"job", 99, 0}, &miss_stats).status().code(),
            StatusCode::kUnavailable);
  transport->DropJob("job");
  EXPECT_FALSE(transport->Fetch({"job", 0, 0}, &stats).ok());
}

TEST(SocketTransportTest, RecoversFromEveryServerFaultKind) {
  struct Case {
    const char* name;
    NetFaultPlan plan;
  };
  std::vector<Case> cases;
  {
    Case drop{"drop", {}};
    drop.plan.seed = 11;
    drop.plan.drop_probability = 1.0;
    cases.push_back(drop);
    Case truncate{"truncate", {}};
    truncate.plan.seed = 12;
    truncate.plan.truncate_probability = 1.0;
    cases.push_back(truncate);
    Case corrupt{"corrupt", {}};
    corrupt.plan.seed = 13;
    corrupt.plan.corrupt_probability = 1.0;
    cases.push_back(corrupt);
    Case stall{"stall", {}};
    stall.plan.seed = 14;
    stall.plan.stall_probability = 1.0;
    stall.plan.stall_ms = 800;  // > io_timeout_ms: the client must time out
    cases.push_back(stall);
    Case delay{"delay", {}};
    delay.plan.seed = 15;
    delay.plan.delay_probability = 1.0;
    delay.plan.delay_ms = 10;
    cases.push_back(delay);
  }
  for (auto& c : cases) {
    c.plan.fault_attempts = 2;  // attempts 0 and 1 fault; attempt 2 is clean
    auto pool = WorkerPool::StartInProcess(2, c.plan);
    ASSERT_TRUE(pool.ok()) << c.name;
    auto transport =
        MakeSocketTransport((*pool)->ports(), nullptr, FastClientOptions());
    NetCallStats stats;
    ShuffleSegmentKey key{"job", 0, 0};
    ASSERT_TRUE(transport->Publish(key, "payload", &stats).ok()) << c.name;
    auto fetched = transport->Fetch(key, &stats);
    ASSERT_TRUE(fetched.ok()) << c.name << ": " << fetched.status().ToString();
    EXPECT_EQ(*fetched, "payload") << c.name;
    if (std::string(c.name) != "delay") {
      EXPECT_GT(stats.retries, 0u) << c.name;
      EXPECT_GT((*pool)->server(0)->faults_injected() +
                    (*pool)->server(1)->faults_injected(),
                0u)
          << c.name;
    }
    if (std::string(c.name) == "corrupt") {
      // The flipped byte was caught at the frame boundary, not passed on.
      EXPECT_GT(stats.corrupt_frames, 0u);
    }
  }
}

TEST(SocketTransportTest, ClientSideRefuseConnectRetries) {
  NetFaultPlan server_plan;  // servers stay clean
  auto pool = WorkerPool::StartInProcess(2, server_plan);
  ASSERT_TRUE(pool.ok());
  auto client_plan = std::make_shared<const NetFaultPlan>([] {
    NetFaultPlan plan;
    plan.seed = 21;
    plan.refuse_connect_probability = 1.0;
    plan.fault_attempts = 2;
    return plan;
  }());
  auto transport = MakeSocketTransport((*pool)->ports(), client_plan,
                                       FastClientOptions());
  NetCallStats stats;
  ShuffleSegmentKey key{"job", 1, 1};
  ASSERT_TRUE(transport->Publish(key, "x", &stats).ok());
  EXPECT_GT(stats.retries, 0u);
  auto fetched = transport->Fetch(key, &stats);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, "x");
}

TEST(SocketTransportTest, PermanentFaultExhaustsRetryBudget) {
  NetFaultPlan plan;
  plan.seed = 31;
  plan.drop_probability = 1.0;
  plan.fault_attempts = 1000;  // never recovers within any budget
  auto pool = WorkerPool::StartInProcess(1, plan);
  ASSERT_TRUE(pool.ok());
  auto options = FastClientOptions();
  options.max_attempts_per_op = 3;
  auto transport = MakeSocketTransport((*pool)->ports(), nullptr, options);
  NetCallStats stats;
  EXPECT_FALSE(transport->Publish({"job", 0, 0}, "x", &stats).ok());
  EXPECT_GE(stats.retries, 2u);
  EXPECT_GE(transport->worker_losses(), 1u);
}

TEST(SocketTransportTest, KilledWorkerIsLostAndRepublishReroutes) {
  auto pool = WorkerPool::StartInProcess(2, NetFaultPlan{});
  ASSERT_TRUE(pool.ok());
  auto options = FastClientOptions();
  options.max_attempts_per_op = 2;
  auto transport = MakeSocketTransport((*pool)->ports(), nullptr, options);
  NetCallStats stats;
  ShuffleSegmentKey key{"job", 0, 0};  // ring home: worker 0
  ASSERT_TRUE(transport->Publish(key, "payload", &stats).ok());
  ASSERT_EQ((*pool)->server(0)->segments_stored(), 1u);

  (*pool)->KillWorker(0);
  EXPECT_FALSE(transport->Fetch(key, &stats).ok());
  EXPECT_GE(transport->worker_losses(), 1u);

  // The engine's recovery path re-publishes the deterministic bytes; the
  // ring skips the lost worker and the fetch lands on the survivor.
  ASSERT_TRUE(transport->Publish(key, "payload", &stats).ok());
  EXPECT_EQ((*pool)->server(1)->segments_stored(), 1u);
  auto fetched = transport->Fetch(key, &stats);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, "payload");
}

TEST(SocketTransportTest, HeartbeatDeclaresDeadWorkerLost) {
  auto pool = WorkerPool::StartInProcess(2, NetFaultPlan{});
  ASSERT_TRUE(pool.ok());
  auto options = FastClientOptions();
  options.heartbeat_interval_ms = 20;
  options.heartbeat_misses_to_loss = 2;
  auto transport = MakeSocketTransport((*pool)->ports(), nullptr, options);
  (*pool)->KillWorker(1);
  // The heartbeat needs a couple of intervals to accumulate misses.
  for (int i = 0; i < 100 && transport->worker_losses() == 0; ++i) {
    usleep(20 * 1000);
  }
  EXPECT_GE(transport->worker_losses(), 1u);
}

// --- the job engine over transports ---------------------------------------

using K = std::string;
using V = uint64_t;

std::vector<std::string> WordLines() {
  std::vector<std::string> lines;
  for (int i = 0; i < 120; ++i) {
    lines.push_back("w" + std::to_string(i % 17) + " w" +
                    std::to_string(i % 5) + " w" + std::to_string(i % 3));
  }
  return lines;
}

JobSpec<K, V> WordCountSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "net-wordcount";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_map_tasks = 5;
  spec.num_reduce_tasks = 3;
  spec.mapper_factory = [] {
    return std::make_unique<LambdaMapper<K, V>>(
        [](const InputRecord& record, Emitter<K, V>* out, TaskContext*) {
          for (const auto& w : Split(*record.line, ' ')) {
            if (!w.empty()) out->Emit(w, 1);
          }
        });
  };
  spec.reducer_factory = [] {
    return std::make_unique<LambdaReducer<K, V>>(
        [](const K& key, std::span<const std::pair<K, V>> group,
           OutputEmitter* out, TaskContext*) {
          uint64_t total = 0;
          for (const auto& [k, v] : group) total += v;
          out->Emit(key + "\t" + std::to_string(total));
        });
  };
  return spec;
}

JobMetrics RunOrDie(Dfs* dfs, JobSpec<K, V> spec) {
  Job<K, V> job(dfs, std::move(spec));
  auto metrics = job.Run();
  EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
  return metrics.ok() ? *metrics : JobMetrics{};
}

const std::vector<std::string>& Output(const Dfs& dfs,
                                       const std::string& file) {
  auto lines = dfs.ReadFile(file);
  EXPECT_TRUE(lines.ok());
  return *lines.value();
}

TEST(JobTransportTest, InprocTransportMatchesDirectHandOff) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());

  for (RecordFormat format : {RecordFormat::kText, RecordFormat::kBinary}) {
    // Committed counters depend on the record format (binary meters
    // encoded bytes), so the direct baseline uses the same format.
    const std::string tag =
        format == RecordFormat::kBinary ? "bin" : "text";
    auto direct_spec = WordCountSpec("in", "direct-" + tag);
    direct_spec.record_format = format;
    auto direct = RunOrDie(&dfs, std::move(direct_spec));
    EXPECT_EQ(direct.net_fetches, 0u);

    const std::string out = "inproc-" + tag;
    auto spec = WordCountSpec("in", out);
    spec.record_format = format;
    spec.shuffle_transport = std::make_shared<InprocTransport>();
    auto routed = RunOrDie(&dfs, std::move(spec));
    EXPECT_EQ(Output(dfs, "direct-" + tag), Output(dfs, out));
    EXPECT_GT(routed.net_segments, 0u);
    EXPECT_EQ(routed.net_fetches, routed.net_segments);
    EXPECT_GT(routed.net_bytes_pushed, 0u);
    EXPECT_GT(routed.net_bytes_fetched, 0u);
    EXPECT_EQ(routed.net_map_reruns, 0u);
    EXPECT_EQ(routed.net_fetch_latency.count(), routed.net_fetches);
    // The committed data-path counters are transport-invariant.
    EXPECT_EQ(routed.shuffle_bytes, direct.shuffle_bytes);
    EXPECT_EQ(routed.shuffle_records, direct.shuffle_records);
    EXPECT_EQ(routed.map_output_records, direct.map_output_records);
  }
}

TEST(JobTransportTest, SocketTransportMatchesDirectHandOff) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
  auto direct = RunOrDie(&dfs, WordCountSpec("in", "direct"));

  auto pool = WorkerPool::StartInProcess(2, NetFaultPlan{});
  ASSERT_TRUE(pool.ok());
  auto transport = std::shared_ptr<ShuffleTransport>(
      MakeSocketTransport((*pool)->ports(), nullptr, FastClientOptions()));
  auto spec = WordCountSpec("in", "socket");
  spec.shuffle_transport = transport;
  spec.local_threads = 4;
  auto routed = RunOrDie(&dfs, std::move(spec));
  EXPECT_EQ(Output(dfs, "direct"), Output(dfs, "socket"));
  EXPECT_GT(routed.net_fetches, 0u);
  EXPECT_EQ(routed.net_worker_losses, 0u);
  // The engine dropped the job's segments from the workers when it
  // finished.
  EXPECT_EQ((*pool)->server(0)->segments_stored(), 0u);
  EXPECT_EQ((*pool)->server(1)->segments_stored(), 0u);
}

TEST(JobTransportTest, WireCorruptionIsDetectedAndRetried) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
  auto direct = RunOrDie(&dfs, WordCountSpec("in", "direct"));

  NetFaultPlan plan;
  plan.seed = 41;
  plan.corrupt_probability = 0.5;
  plan.drop_probability = 0.2;
  plan.fault_attempts = 2;
  auto pool = WorkerPool::StartInProcess(2, plan);
  ASSERT_TRUE(pool.ok());
  auto spec = WordCountSpec("in", "chaos");
  spec.shuffle_transport = MakeSocketTransport((*pool)->ports(), nullptr,
                                       FastClientOptions());
  spec.local_threads = 4;
  auto routed = RunOrDie(&dfs, std::move(spec));
  EXPECT_EQ(Output(dfs, "direct"), Output(dfs, "chaos"));
  EXPECT_GT(routed.net_fetch_retries, 0u);
  EXPECT_GT(routed.net_corruption_detected, 0u);
  EXPECT_EQ(routed.net_map_reruns, 0u);  // transport retries absorbed it all
}

// A transport wrapper that makes the first `fail_per_key` Fetch calls for
// every key fail — the deterministic trigger for the engine's escalation
// ladder (the real transport only degrades like this when workers die).
class FlakyFetchTransport : public ShuffleTransport {
 public:
  FlakyFetchTransport(std::shared_ptr<ShuffleTransport> inner,
                      int fail_per_key)
      : inner_(std::move(inner)), fail_per_key_(fail_per_key) {}

  const char* name() const override { return "flaky"; }

  Status Publish(const ShuffleSegmentKey& key, std::string segment,
                 NetCallStats* stats) override {
    return inner_->Publish(key, std::move(segment), stats);
  }

  Result<std::string> Fetch(const ShuffleSegmentKey& key,
                            NetCallStats* stats) override {
    {
      MutexLock lock(&mu_);
      int& failures =
          failures_[{key.job, key.map_task, key.partition}];
      if (failures < fail_per_key_) {
        ++failures;
        ++total_failures_;
        return Status::Unavailable("injected fetch failure");
      }
    }
    return inner_->Fetch(key, stats);
  }

  void DropJob(const std::string& job) override { inner_->DropJob(job); }

  uint64_t total_failures() const {
    MutexLock lock(&mu_);
    return total_failures_;
  }

 private:
  std::shared_ptr<ShuffleTransport> inner_;
  const int fail_per_key_;
  mutable Mutex mu_{"test.flaky_transport"};
  std::map<std::tuple<std::string, uint64_t, uint64_t>, int> failures_
      FJ_GUARDED_BY(mu_);
  uint64_t total_failures_ FJ_GUARDED_BY(mu_) = 0;
};

TEST(JobTransportTest, Rung2ServesUnfetchableSegmentFromLocalSpill) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
  auto direct = RunOrDie(&dfs, WordCountSpec("in", "direct"));

  auto flaky = std::make_shared<FlakyFetchTransport>(
      std::make_shared<InprocTransport>(), /*fail_per_key=*/1000);
  auto spec = WordCountSpec("in", "rung2");
  spec.shuffle_transport = flaky;
  spec.net_fetch_local_fallback = true;
  auto routed = RunOrDie(&dfs, std::move(spec));
  EXPECT_EQ(Output(dfs, "direct"), Output(dfs, "rung2"));
  EXPECT_GT(routed.net_redundant_fetches, 0u);
  EXPECT_EQ(routed.net_map_reruns, 0u);  // rung 2 already recovered
}

TEST(JobTransportTest, Rung3RerunsMapTaskWhenFallbackDisabled) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
  auto direct = RunOrDie(&dfs, WordCountSpec("in", "direct"));

  auto flaky = std::make_shared<FlakyFetchTransport>(
      std::make_shared<InprocTransport>(), /*fail_per_key=*/1);
  auto spec = WordCountSpec("in", "rung3");
  spec.shuffle_transport = flaky;
  spec.net_fetch_local_fallback = false;
  auto routed = RunOrDie(&dfs, std::move(spec));
  EXPECT_EQ(Output(dfs, "direct"), Output(dfs, "rung3"));
  EXPECT_GT(routed.net_map_reruns, 0u);
  EXPECT_EQ(routed.net_redundant_fetches, 0u);
  EXPECT_GT(flaky->total_failures(), 0u);
}

TEST(JobTransportTest, UnrecoverableFetchFailsTheJobCleanly) {
  Dfs dfs;
  ASSERT_TRUE(dfs.WriteFile("in", WordLines()).ok());
  auto flaky = std::make_shared<FlakyFetchTransport>(
      std::make_shared<InprocTransport>(), /*fail_per_key=*/1000000);
  auto spec = WordCountSpec("in", "doomed");
  spec.shuffle_transport = flaky;
  spec.net_fetch_local_fallback = false;
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace fj::mr
