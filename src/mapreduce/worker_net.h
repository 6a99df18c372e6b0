// Length-framed loopback TCP for the socket shuffle — the only file pair
// in the tree allowed to touch raw POSIX sockets (tools/lint.py
// no-raw-socket). Dependency-free: <sys/socket.h> and friends, nothing
// else.
//
// Layers, bottom up:
//
//   frames     — every message is [magic 'FJNT' | type u8 | varlen u64 |
//                payload hash u64 | payload]. The hash (64-bit FNV over
//                the payload) makes a flipped wire byte a structured
//                DataLoss at the frame boundary; short reads and expired
//                SO_RCVTIMEO deadlines surface as DeadlineExceeded /
//                Unavailable. All reads/writes loop on EINTR and treat
//                EAGAIN as the deadline.
//   requests   — one connection carries one request/response exchange:
//                PUT/GET/PING/DROPJOB/QUIT with (job, map task,
//                partition, attempt) coordinates, so the server can
//                resolve its NetFaultPlan deterministically per RPC.
//   WorkerServer — the shuffle node: stores published segments in memory
//                and serves fetches, applying its fault plan to real
//                response bytes (drop / delay / truncate / bit-flip /
//                stall mid-stream). Runs its accept loop and per-
//                connection handlers on raw threads (waived: this IS the
//                network layer the executor's tasks talk to).
//   WorkerPool — the coordinator's view of N workers: either in-process
//                servers on threads (tests, benches) or spawned worker
//                subprocesses re-execing /proc/self/exe with the
//                kShuffleWorkerSentinel argv (CLI, chaos CI). Port
//                handshake over a pipe; a life pipe tears workers down
//                when the coordinator exits, even on a crash.
//
// fuzzyjoin_worker (tools/worker_main.cc) wraps RunShuffleWorkerMain as a
// standalone binary; any host binary that wants to spawn process workers
// calls MaybeRunShuffleWorker first thing in main().
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"
#include "mapreduce/shuffle_transport.h"

namespace fj::mr::net {

// ---------------------------------------------------------------------------
// Process-wide I/O hygiene shared with the serving driver.

/// Ignores SIGPIPE process-wide so a peer closing mid-write surfaces as
/// EPIPE from the write, never a process kill. Idempotent.
void IgnoreSigpipe();

/// Writes all of `data` to `fd`, looping on EINTR and short writes and
/// polling through EAGAIN. EPIPE (peer gone) returns Unavailable; other
/// errors IOError.
Status WriteAllFd(int fd, std::string_view data);

// ---------------------------------------------------------------------------
// Frames.

inline constexpr uint32_t kFrameMagic = 0x464a4e54;  // "FJNT"

enum class FrameType : uint8_t {
  kPut = 1,
  kGet = 2,
  kPing = 3,
  kDropJob = 4,
  kQuit = 5,
  kOk = 0x80,
  kError = 0x81,
};

struct Frame {
  FrameType type = FrameType::kOk;
  std::string payload;
};

/// Serializes one frame (header + payload hash + payload) into `*out`.
void AppendFrame(std::string* out, FrameType type, std::string_view payload);

/// Sends one frame on `fd` under the socket's send deadline.
Status SendFrame(int fd, FrameType type, std::string_view payload);

/// Receives one frame under the socket's receive deadline, verifying the
/// payload hash (mismatch = DataLoss — the wire integrity contract).
Result<Frame> RecvFrame(int fd);

/// One request as carried in a PUT/GET/PING/DROPJOB frame payload.
struct Request {
  std::string job;
  uint64_t map_task = 0;
  uint64_t partition = 0;
  /// Per-operation attempt number, part of the server's fault coordinate.
  uint64_t attempt = 0;
  std::string body;  ///< PUT: the segment bytes; otherwise empty
};

void EncodeRequest(const Request& request, std::string* out);
bool DecodeRequest(std::string_view payload, Request* request);

/// One response: a Status plus (for GET) the segment bytes.
struct Response {
  Status status;
  std::string body;
};

void EncodeResponse(const Response& response, std::string* out);
bool DecodeResponse(std::string_view payload, Response* response);

// ---------------------------------------------------------------------------
// Sockets (loopback only).

/// Binds and listens on 127.0.0.1:`*port` (0 = ephemeral; the chosen port
/// is written back). Returns the listening fd.
Result<int> ListenTcpLoopback(int* port);

/// Connects to 127.0.0.1:`port` with a connect deadline, then arms
/// `io_timeout_ms` as the socket's send/receive deadline.
Result<int> DialTcpLoopback(int port, uint32_t connect_timeout_ms,
                            uint32_t io_timeout_ms);

void CloseFd(int fd);

// ---------------------------------------------------------------------------
// WorkerServer: one shuffle node.

struct WorkerServerOptions {
  /// Server-side fault plan applied to PUT/GET responses (PING and
  /// DROPJOB stay clean so liveness is orthogonal to data-path chaos).
  NetFaultPlan faults;
  /// Receive deadline for reading a request off an accepted connection.
  uint32_t request_timeout_ms = 5000;
};

class WorkerServer {
 public:
  explicit WorkerServer(WorkerServerOptions options = {});
  ~WorkerServer();

  WorkerServer(const WorkerServer&) = delete;
  WorkerServer& operator=(const WorkerServer&) = delete;

  /// Binds an ephemeral loopback port and starts the accept thread.
  /// Start and Stop are called from one thread at a time; a stopped
  /// server may be started again.
  Status Start();
  /// Stops accepting, joins every handler, drops stored segments.
  void Stop();

  int port() const { return port_; }

  // Observability for tests and the worker main's exit log.
  uint64_t requests_served() const;
  uint64_t faults_injected() const;
  uint64_t segments_stored() const;

 private:
  void AcceptLoop(int listen_fd);
  void HandleConnection(int fd);
  /// Builds the response for one decoded request (storage side effects
  /// included); wire faults are applied later, at send time.
  Response Execute(const Request& request, FrameType type);
  /// Sends `response`, applying the fault plan's server-side faults for
  /// this request's coordinate. Returns true when a fault fired.
  bool SendWithFaults(int fd, const Request& request, FrameType type,
                      const Response& response);

  WorkerServerOptions options_;
  int listen_fd_ = -1;  ///< touched by Start and Stop only
  int port_ = 0;
  std::thread accept_thread_;  // lint: allow-thread (network layer, not task work)

  mutable Mutex mu_{"worker_net.server", lock_rank::kTransport};
  bool stopping_ FJ_GUARDED_BY(mu_) = false;
  std::map<std::tuple<std::string, uint64_t, uint64_t>, std::string> segments_
      FJ_GUARDED_BY(mu_);
  std::vector<std::thread> handlers_  // lint: allow-thread (one per connection)
      FJ_GUARDED_BY(mu_);
  uint64_t requests_served_ FJ_GUARDED_BY(mu_) = 0;
  uint64_t faults_injected_ FJ_GUARDED_BY(mu_) = 0;
};

// ---------------------------------------------------------------------------
// WorkerPool: the coordinator's N workers.

class WorkerPool {
 public:
  /// N in-process WorkerServers on threads — real loopback TCP without
  /// subprocess machinery (tests, benches).
  static Result<std::unique_ptr<WorkerPool>> StartInProcess(
      size_t workers, const NetFaultPlan& faults);

  /// N worker subprocesses, each re-execing /proc/self/exe with the
  /// kShuffleWorkerSentinel argv — the host binary's main() must call
  /// MaybeRunShuffleWorker() first. Ports are handed back over a pipe;
  /// workers exit when the coordinator closes the life pipe (or dies).
  static Result<std::unique_ptr<WorkerPool>> SpawnProcesses(
      size_t workers, const NetFaultPlan& faults);

  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::vector<int> ports() const;
  size_t size() const;

  /// Chaos hook: hard-kills worker `index` (SIGKILL for subprocesses,
  /// Stop() for in-process servers). Its stored segments are gone; the
  /// transport's liveness layer must notice and the engine must recover.
  void KillWorker(size_t index);

  /// In-process pools only: the underlying server (test observability).
  WorkerServer* server(size_t index);

 private:
  WorkerPool() = default;

  struct ProcessWorker {
    int64_t pid = -1;
    int port = 0;
    int life_fd = -1;  ///< write end; closing it tells the worker to exit
  };
  std::vector<std::unique_ptr<WorkerServer>> servers_;
  std::vector<ProcessWorker> processes_;
};

// ---------------------------------------------------------------------------
// Worker process mode.

/// argv[1] sentinel that turns any cooperating binary into a shuffle
/// worker process.
inline constexpr const char* kShuffleWorkerSentinel = "fj-shuffle-worker";

/// The worker process body: parses --port_fd/--life_fd/--net_faults flags,
/// serves until the life pipe closes, returns the process exit code.
int RunShuffleWorkerMain(int argc, char** argv);

/// Call first thing in main(): when argv names the worker sentinel, runs
/// the worker and returns its exit code; otherwise returns nullopt and
/// the host binary proceeds normally.
std::optional<int> MaybeRunShuffleWorker(int argc, char** argv);

}  // namespace fj::mr::net
