// All raw POSIX socket / fork-exec machinery for the socket shuffle lives
// in this translation unit (tools/lint.py bans these calls elsewhere).
#include "mapreduce/worker_net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "common/varint.h"

namespace fj::mr::net {
namespace {

// magic u32 | type u8 | len u64 | hash u64, all little-endian.
constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 8;
// A shuffle segment is bounded by map-task output; 1 GiB is far above any
// legitimate frame and catches a corrupted length field before we try to
// allocate it.
constexpr uint64_t kMaxFramePayload = uint64_t{1} << 30;

void PutU32(char* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void PutU64(char* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

uint32_t GetU32(const char* in) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

uint64_t GetU64(const char* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(in[i])) << (8 * i);
  }
  return v;
}

/// Reads exactly `len` bytes. Peer close mid-message is Unavailable; an
/// expired SO_RCVTIMEO deadline is DeadlineExceeded.
Status ReadFullFd(int fd, char* out, size_t len) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::read(fd, out + done, len - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::Unavailable("peer closed mid-message");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::DeadlineExceeded("socket read deadline expired");
    }
    return Status::IOError(std::string("read: ") + std::strerror(errno));
  }
  return Status::OK();
}

void AppendLengthPrefixed(std::string* out, std::string_view s) {
  AppendVarint(out, s.size());
  out->append(s);
}

bool DecodeLengthPrefixed(std::string_view buf, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!DecodeVarint(buf, pos, &len) || len > buf.size() - *pos) return false;
  s->assign(buf.data() + *pos, static_cast<size_t>(len));
  *pos += static_cast<size_t>(len);
  return true;
}

Status SetSocketDeadlines(int fd, uint32_t io_timeout_ms) {
  timeval tv;
  tv.tv_sec = io_timeout_ms / 1000;
  tv.tv_usec = static_cast<long>(io_timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(std::string("setsockopt(SO_*TIMEO): ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

void SleepMs(uint32_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

/// Writes raw bytes, tolerating failure: fault injection sends truncated
/// and stalled responses where the peer may hang up at any point.
void BestEffortWrite(int fd, std::string_view data) {
  (void)WriteAllFd(fd, data);
}

}  // namespace

// ---------------------------------------------------------------------------
// Process-wide I/O hygiene.

void IgnoreSigpipe() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

Status WriteAllFd(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Non-blocking fd (the serve driver's stdout can be): wait for
      // writability rather than spinning.
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 1000);
      continue;
    }
    if (n < 0 && errno == EPIPE) {
      return Status::Unavailable("peer closed the pipe (EPIPE)");
    }
    return Status::IOError(std::string("write: ") + std::strerror(errno));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Frames.

void AppendFrame(std::string* out, FrameType type, std::string_view payload) {
  char header[kFrameHeaderBytes];
  PutU32(header, kFrameMagic);
  header[4] = static_cast<char>(type);
  PutU64(header + 5, payload.size());
  PutU64(header + 13, HashString(payload));
  out->append(header, sizeof(header));
  out->append(payload);
}

Status SendFrame(int fd, FrameType type, std::string_view payload) {
  std::string wire;
  wire.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(&wire, type, payload);
  return WriteAllFd(fd, wire);
}

Result<Frame> RecvFrame(int fd) {
  char header[kFrameHeaderBytes];
  FJ_RETURN_IF_ERROR(ReadFullFd(fd, header, sizeof(header)));
  if (GetU32(header) != kFrameMagic) {
    return Status::DataLoss("frame magic mismatch");
  }
  const uint64_t len = GetU64(header + 5);
  if (len > kMaxFramePayload) {
    return Status::DataLoss("frame length implausible (corrupt header)");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(static_cast<uint8_t>(header[4]));
  frame.payload.resize(static_cast<size_t>(len));
  FJ_RETURN_IF_ERROR(ReadFullFd(fd, frame.payload.data(), frame.payload.size()));
  if (GetU64(header + 13) != HashString(frame.payload)) {
    return Status::DataLoss("frame payload hash mismatch");
  }
  return frame;
}

void EncodeRequest(const Request& request, std::string* out) {
  AppendLengthPrefixed(out, request.job);
  AppendVarint(out, request.map_task);
  AppendVarint(out, request.partition);
  AppendVarint(out, request.attempt);
  AppendLengthPrefixed(out, request.body);
}

bool DecodeRequest(std::string_view payload, Request* request) {
  size_t pos = 0;
  return DecodeLengthPrefixed(payload, &pos, &request->job) &&
         DecodeVarint(payload, &pos, &request->map_task) &&
         DecodeVarint(payload, &pos, &request->partition) &&
         DecodeVarint(payload, &pos, &request->attempt) &&
         DecodeLengthPrefixed(payload, &pos, &request->body) &&
         pos == payload.size();
}

void EncodeResponse(const Response& response, std::string* out) {
  AppendVarint(out, static_cast<uint64_t>(response.status.code()));
  AppendLengthPrefixed(out, response.status.message());
  AppendLengthPrefixed(out, response.body);
}

bool DecodeResponse(std::string_view payload, Response* response) {
  size_t pos = 0;
  uint64_t code = 0;
  std::string message;
  if (!DecodeVarint(payload, &pos, &code) ||
      !DecodeLengthPrefixed(payload, &pos, &message) ||
      !DecodeLengthPrefixed(payload, &pos, &response->body) ||
      pos != payload.size()) {
    return false;
  }
  response->status = code == 0 ? Status::OK()
                               : Status(static_cast<StatusCode>(code),
                                        std::move(message));
  return true;
}

// ---------------------------------------------------------------------------
// Sockets.

Result<int> ListenTcpLoopback(int* port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  (void)setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(*port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status err = Status::IOError(std::string("bind: ") + std::strerror(errno));
    CloseFd(fd);
    return err;
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    Status err =
        Status::IOError(std::string("getsockname: ") + std::strerror(errno));
    CloseFd(fd);
    return err;
  }
  *port = ntohs(addr.sin_port);
  if (::listen(fd, 128) != 0) {
    Status err =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    CloseFd(fd);
    return err;
  }
  return fd;
}

Result<int> DialTcpLoopback(int port, uint32_t connect_timeout_ms,
                            uint32_t io_timeout_ms) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  // Non-blocking connect so a dead peer costs connect_timeout_ms, not the
  // kernel's SYN retry budget.
  int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    Status err =
        Status::Unavailable(std::string("connect: ") + std::strerror(errno));
    CloseFd(fd);
    return err;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(connect_timeout_ms));
    if (ready <= 0) {
      CloseFd(fd);
      return Status::DeadlineExceeded("connect deadline expired");
    }
    int soerr = 0;
    socklen_t soerr_len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &soerr_len) != 0 ||
        soerr != 0) {
      Status err = Status::Unavailable(std::string("connect: ") +
                                       std::strerror(soerr ? soerr : errno));
      CloseFd(fd);
      return err;
    }
  }
  (void)::fcntl(fd, F_SETFL, flags);
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  Status deadline = SetSocketDeadlines(fd, io_timeout_ms);
  if (!deadline.ok()) {
    CloseFd(fd);
    return deadline;
  }
  return fd;
}

void CloseFd(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

// ---------------------------------------------------------------------------
// WorkerServer.

WorkerServer::WorkerServer(WorkerServerOptions options)
    : options_(std::move(options)) {}

WorkerServer::~WorkerServer() { Stop(); }

Status WorkerServer::Start() {
  IgnoreSigpipe();
  int port = 0;
  FJ_ASSIGN_OR_RETURN(listen_fd_, ListenTcpLoopback(&port));
  port_ = port;
  {
    MutexLock lock(&mu_);
    stopping_ = false;
  }
  // The accept thread gets the fd by value and never reads listen_fd_.
  accept_thread_ = std::thread(  // lint: allow-thread
      [this, fd = listen_fd_] { AcceptLoop(fd); });
  return Status::OK();
}

void WorkerServer::Stop() {
  if (listen_fd_ < 0) return;  // never started, or already stopped
  {
    MutexLock lock(&mu_);
    stopping_ = true;
  }
  // Shutting the listener down wakes the accept thread. The fd is closed
  // only after the join, so its number cannot be reused by another socket
  // while the thread may still pass it to ::accept.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::thread> handlers;  // lint: allow-thread (joining the wire layer's own handlers)
  {
    MutexLock lock(&mu_);
    handlers.swap(handlers_);
    segments_.clear();
  }
  for (auto& t : handlers) {
    if (t.joinable()) t.join();
  }
}

uint64_t WorkerServer::requests_served() const {
  MutexLock lock(&mu_);
  return requests_served_;
}

uint64_t WorkerServer::faults_injected() const {
  MutexLock lock(&mu_);
  return faults_injected_;
}

uint64_t WorkerServer::segments_stored() const {
  MutexLock lock(&mu_);
  return segments_.size();
}

void WorkerServer::AcceptLoop(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down by Stop(), or fatal — either way, done
    }
    MutexLock lock(&mu_);
    if (stopping_) {
      CloseFd(fd);
      return;
    }
    handlers_.emplace_back(  // lint: allow-thread
        [this, fd] { HandleConnection(fd); });
  }
}

void WorkerServer::HandleConnection(int fd) {
  Status deadline = SetSocketDeadlines(fd, options_.request_timeout_ms);
  if (!deadline.ok()) {
    CloseFd(fd);
    return;
  }
  Result<Frame> frame = RecvFrame(fd);
  if (!frame.ok()) {
    CloseFd(fd);
    return;
  }
  Request request;
  Response response;
  bool decoded = true;
  if (frame->type == FrameType::kPut || frame->type == FrameType::kGet ||
      frame->type == FrameType::kPing || frame->type == FrameType::kDropJob) {
    decoded = DecodeRequest(frame->payload, &request);
  }
  if (!decoded) {
    response.status = Status::InvalidArgument("malformed shuffle request");
  } else {
    response = Execute(request, frame->type);
  }
  {
    MutexLock lock(&mu_);
    requests_served_++;
  }
  if (SendWithFaults(fd, request, frame->type, response)) {
    MutexLock lock(&mu_);
    faults_injected_++;
  }
  CloseFd(fd);
}

Response WorkerServer::Execute(const Request& request, FrameType type) {
  Response response;
  MutexLock lock(&mu_);
  switch (type) {
    case FrameType::kPut:
      segments_[{request.job, request.map_task, request.partition}] =
          request.body;
      break;
    case FrameType::kGet: {
      auto it =
          segments_.find({request.job, request.map_task, request.partition});
      if (it == segments_.end()) {
        response.status = Status::NotFound(
            "shuffle segment not stored on this worker");
      } else {
        response.body = it->second;
      }
      break;
    }
    case FrameType::kPing:
      break;
    case FrameType::kDropJob: {
      auto it = segments_.lower_bound({request.job, 0, 0});
      while (it != segments_.end() && std::get<0>(it->first) == request.job) {
        it = segments_.erase(it);
      }
      break;
    }
    case FrameType::kQuit:
      break;  // life-pipe closure is the real shutdown signal
    default:
      response.status = Status::InvalidArgument("unexpected frame type");
      break;
  }
  return response;
}

bool WorkerServer::SendWithFaults(int fd, const Request& request,
                                  FrameType type, const Response& response) {
  std::string payload;
  EncodeResponse(response, &payload);
  const FrameType out_type =
      response.status.ok() ? FrameType::kOk : FrameType::kError;
  std::string wire;
  wire.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(&wire, out_type, payload);

  const NetFaultPlan& plan = options_.faults;
  const bool data_op = type == FrameType::kPut || type == FrameType::kGet;
  if (!plan.Empty() && data_op && request.attempt < plan.fault_attempts) {
    const NetOp op =
        type == FrameType::kPut ? NetOp::kPush : NetOp::kFetch;
    auto draw = [&](uint64_t salt) {
      return NetFaultDraw(plan, request.job, request.map_task,
                          request.partition, request.attempt, op, salt);
    };
    // Fixed precedence so a plan with several probabilities stays
    // deterministic: drop > truncate > stall > corrupt > delay.
    if (draw(1) < plan.drop_probability) {
      return true;  // close without any response
    }
    if (draw(2) < plan.truncate_probability) {
      // Header promises the full payload; deliver only part and hang up.
      const size_t cut = kFrameHeaderBytes + payload.size() / 2;
      BestEffortWrite(fd, std::string_view(wire).substr(0, cut));
      return true;
    }
    if (draw(3) < plan.stall_probability) {
      // Half the frame, then silence longer than the client's deadline.
      const size_t half = wire.size() / 2;
      BestEffortWrite(fd, std::string_view(wire).substr(0, half));
      SleepMs(plan.stall_ms);
      BestEffortWrite(fd, std::string_view(wire).substr(half));
      return true;
    }
    if (draw(4) < plan.corrupt_probability && !payload.empty()) {
      // Flip one payload byte AFTER the header hash was computed: the
      // client must catch the mismatch at the frame boundary.
      const size_t victim =
          kFrameHeaderBytes +
          static_cast<size_t>(draw(7) * static_cast<double>(payload.size()));
      wire[std::min(victim, wire.size() - 1)] ^= 0x40;
      BestEffortWrite(fd, wire);
      return true;
    }
    if (draw(5) < plan.delay_probability) {
      SleepMs(plan.delay_ms);
      BestEffortWrite(fd, wire);
      return true;
    }
  }
  BestEffortWrite(fd, wire);
  return false;
}

// ---------------------------------------------------------------------------
// WorkerPool.

Result<std::unique_ptr<WorkerPool>> WorkerPool::StartInProcess(
    size_t workers, const NetFaultPlan& faults) {
  auto pool = std::unique_ptr<WorkerPool>(new WorkerPool());
  for (size_t i = 0; i < workers; ++i) {
    WorkerServerOptions options;
    options.faults = faults;
    auto server = std::make_unique<WorkerServer>(options);
    FJ_RETURN_IF_ERROR(server->Start());
    pool->servers_.push_back(std::move(server));
  }
  return pool;
}

Result<std::unique_ptr<WorkerPool>> WorkerPool::SpawnProcesses(
    size_t workers, const NetFaultPlan& faults) {
  IgnoreSigpipe();
  auto pool = std::unique_ptr<WorkerPool>(new WorkerPool());
  const std::string faults_flag = "--net_faults=" + faults.Serialize();
  for (size_t i = 0; i < workers; ++i) {
    int port_pipe[2] = {-1, -1};
    int life_pipe[2] = {-1, -1};
    if (::pipe(port_pipe) != 0 || ::pipe(life_pipe) != 0) {
      CloseFd(port_pipe[0]);
      CloseFd(port_pipe[1]);
      return Status::IOError(std::string("pipe: ") + std::strerror(errno));
    }
    pid_t pid = ::fork();
    if (pid < 0) {
      CloseFd(port_pipe[0]);
      CloseFd(port_pipe[1]);
      CloseFd(life_pipe[0]);
      CloseFd(life_pipe[1]);
      return Status::IOError(std::string("fork: ") + std::strerror(errno));
    }
    if (pid == 0) {
      // Child: become a shuffle worker by re-execing this binary with the
      // sentinel argv. The exec keeps only the two handshake fds.
      CloseFd(port_pipe[0]);
      CloseFd(life_pipe[1]);
      const std::string port_fd_flag =
          "--port_fd=" + std::to_string(port_pipe[1]);
      const std::string life_fd_flag =
          "--life_fd=" + std::to_string(life_pipe[0]);
      const char* argv[] = {"/proc/self/exe",
                            kShuffleWorkerSentinel,
                            port_fd_flag.c_str(),
                            life_fd_flag.c_str(),
                            faults_flag.c_str(),
                            nullptr};
      ::execv("/proc/self/exe", const_cast<char* const*>(argv));
      ::_exit(127);  // exec failed
    }
    CloseFd(port_pipe[1]);
    CloseFd(life_pipe[0]);
    // Port handshake: the worker writes "<port>\n" once it is listening.
    std::string line;
    char ch = 0;
    for (;;) {
      ssize_t n = ::read(port_pipe[0], &ch, 1);
      if (n == 1 && ch != '\n') {
        line.push_back(ch);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    CloseFd(port_pipe[0]);
    ProcessWorker worker;
    worker.pid = pid;
    worker.life_fd = life_pipe[1];
    worker.port = line.empty() ? 0 : std::atoi(line.c_str());
    pool->processes_.push_back(worker);
    if (worker.port <= 0) {
      return Status::Internal("shuffle worker " + std::to_string(i) +
                              " failed to report a port");
    }
  }
  return pool;
}

WorkerPool::~WorkerPool() {
  for (auto& worker : processes_) {
    if (worker.pid < 0) continue;
    CloseFd(worker.life_fd);  // HUP tells the worker to exit
    worker.life_fd = -1;
    const auto pid = static_cast<pid_t>(worker.pid);
    bool reaped = false;
    for (int spin = 0; spin < 200; ++spin) {  // ~2s grace, then SIGKILL
      int status = 0;
      pid_t done = ::waitpid(pid, &status, WNOHANG);
      if (done == pid || (done < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      SleepMs(10);
    }
    if (!reaped) {
      ::kill(pid, SIGKILL);
      int status = 0;
      (void)::waitpid(pid, &status, 0);
    }
    worker.pid = -1;
  }
}

std::vector<int> WorkerPool::ports() const {
  std::vector<int> ports;
  for (const auto& server : servers_) ports.push_back(server->port());
  for (const auto& worker : processes_) ports.push_back(worker.port);
  return ports;
}

size_t WorkerPool::size() const {
  return servers_.size() + processes_.size();
}

void WorkerPool::KillWorker(size_t index) {
  if (index < servers_.size()) {
    servers_[index]->Stop();
    return;
  }
  index -= servers_.size();
  if (index >= processes_.size()) return;
  auto& worker = processes_[index];
  if (worker.pid < 0) return;
  const auto pid = static_cast<pid_t>(worker.pid);
  ::kill(pid, SIGKILL);
  int status = 0;
  (void)::waitpid(pid, &status, 0);
  CloseFd(worker.life_fd);
  worker.life_fd = -1;
  worker.pid = -1;
}

WorkerServer* WorkerPool::server(size_t index) {
  return index < servers_.size() ? servers_[index].get() : nullptr;
}

// ---------------------------------------------------------------------------
// Worker process mode.

int RunShuffleWorkerMain(int argc, char** argv) {
  IgnoreSigpipe();
  int port_fd = STDOUT_FILENO;
  int life_fd = STDIN_FILENO;
  WorkerServerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--port_fd=", 0) == 0) {
      port_fd = std::atoi(argv[i] + 10);
    } else if (arg.rfind("--life_fd=", 0) == 0) {
      life_fd = std::atoi(argv[i] + 10);
    } else if (arg.rfind("--net_faults=", 0) == 0) {
      if (!NetFaultPlan::Deserialize(arg.substr(13), &options.faults)) {
        std::fprintf(stderr, "fj-shuffle-worker: bad --net_faults\n");
        return 2;
      }
    } else if (arg == kShuffleWorkerSentinel) {
      // the dispatch sentinel itself
    } else {
      std::fprintf(stderr, "fj-shuffle-worker: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  WorkerServer server(options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "fj-shuffle-worker: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  const std::string port_line = std::to_string(server.port()) + "\n";
  if (!WriteAllFd(port_fd, port_line).ok()) return 1;
  if (port_fd != STDOUT_FILENO) CloseFd(port_fd);
  // Serve until the coordinator closes the life pipe (or dies, which
  // closes it too) — read() returning 0 is the shutdown signal.
  char ch = 0;
  for (;;) {
    ssize_t n = ::read(life_fd, &ch, 1);
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  server.Stop();
  return 0;
}

std::optional<int> MaybeRunShuffleWorker(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == kShuffleWorkerSentinel) {
    return RunShuffleWorkerMain(argc, argv);
  }
  return std::nullopt;
}

}  // namespace fj::mr::net
