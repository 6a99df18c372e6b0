// The shuffle transport: how committed map-output partition segments
// travel from the map side to the reduce side of a job.
//
// Until PR 9 the hand-off was a function call — map tasks published their
// sorted runs into in-memory slots and reduce tasks read them in place, so
// every "network" fault the engine survived was injected. This layer makes
// the movement real and failure-prone:
//
//   - ShuffleTransport is the seam the engine programs against: Publish()
//     one encoded segment per (map task x reduce partition) at map commit,
//     Fetch() it back before the partition's reduce_inputs_pending
//     countdown may fire. The reduce side consumes the FETCHED bytes, so
//     a byte flipped in transit must be detected (frame + segment
//     checksums) or it would poison the join output.
//   - InprocTransport is a mutex-guarded in-memory segment store with the
//     same observable semantics, used by single-process tests. It is not
//     what `--transport=inproc` runs: there MakeRunTransport
//     (fuzzyjoin/driver.cc) installs no transport, and the engine hands
//     each segment to the reduce side directly.
//   - SocketTransport (MakeSocketTransport) moves segments over
//     length-framed loopback TCP to a set of shuffle-worker endpoints
//     (worker_net.h): segment (m, r) lives on worker m % N. Robustness
//     core: per-operation deadlines, bounded retry budgets with
//     exponential backoff + deterministic jitter, heartbeat-based peer
//     liveness, and worker-loss handling (a lost worker's segments are
//     re-routed to the next live worker in the ring when the engine
//     re-publishes them). Escalation beyond the transport — re-reading
//     the locally committed spill, ultimately re-running the map attempt
//     — lives in job.cc (JobRun::Shuffle), next to the retry machinery.
//   - NetFaultPlan is the deterministic network chaos injector: drop,
//     delay, truncate, bit-flip, stall mid-stream, and refuse-connect
//     faults, each seed-hashed per (job, map task, partition, attempt,
//     op) so chaos runs reproduce bit-for-bit. Server-side faults mangle
//     real response bytes on a real socket; only refuse-connect is
//     simulated client-side (a SYN that never lands has no server to
//     misbehave).
//
// Determinism contract: the transport moves bytes, it never reorders the
// shuffle — segments are keyed by (map task, partition) and decoded back
// into map-task-then-spill rank order (shuffle_segment.h), so join output
// is byte-identical across transports, worker counts, and fault plans.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/sync.h"

namespace fj::mr {

/// Which shuffle transport a run uses. Inproc is the default: the
/// in-process segment store with no sockets involved.
enum class TransportKind : uint8_t {
  kInproc = 0,
  kSocket = 1,
};

const char* TransportKindName(TransportKind kind);
/// Parses "inproc"/"socket". Returns false on unknown names.
bool ParseTransportKind(std::string_view name, TransportKind* kind);

/// Deterministic network fault injector: which shuffle RPCs misbehave and
/// how. Every (job, map task, partition, attempt, op, fault kind)
/// coordinate hashes — with the seed — to a uniform draw, so the same plan
/// produces the same faults regardless of timing, thread count, or worker
/// scheduling. Server-side faults (drop/delay/truncate/corrupt/stall)
/// mangle real response bytes on the wire; refuse-connect is applied
/// client-side before dialing.
struct NetFaultPlan {
  uint64_t seed = 0;

  /// Close the connection without sending any response.
  double drop_probability = 0;
  /// Send a response frame that claims more bytes than follow, then close.
  double truncate_probability = 0;
  /// Flip one byte of the response payload AFTER the frame hash was
  /// computed — the receiver must detect the mismatch at the frame
  /// boundary and retry.
  double corrupt_probability = 0;
  /// Send half the response, then go silent for stall_ms (longer than the
  /// client's I/O deadline) before finishing — the client must time out
  /// mid-stream and retry.
  double stall_probability = 0;
  /// Sleep delay_ms before responding (bounded; the response still lands).
  double delay_probability = 0;
  /// Client-side: the connection attempt is refused outright.
  double refuse_connect_probability = 0;

  uint32_t delay_ms = 20;
  uint32_t stall_ms = 400;

  /// Faults only fire on per-operation attempt numbers below this bound,
  /// mirroring FaultPlan::crash_failing_attempts: a retry budget >= the
  /// bound always recovers. Set it above the budget to model a permanent
  /// network fault (and exercise the escalation ladder).
  uint32_t fault_attempts = 2;

  bool Empty() const;

  /// One-flag serialization for shipping the plan to worker subprocesses
  /// (colon-separated scalar fields).
  std::string Serialize() const;
  static bool Deserialize(std::string_view text, NetFaultPlan* plan);
};

/// The operation being faulted / performed, part of the fault coordinate.
enum class NetOp : uint8_t {
  kPush = 1,   ///< map side publishing a segment to its owner worker
  kFetch = 2,  ///< reduce side fetching a segment back
};

/// Deterministic uniform draw in [0, 1) for one fault coordinate.
double NetFaultDraw(const NetFaultPlan& plan, std::string_view job,
                    uint64_t map_task, uint64_t partition, uint64_t attempt,
                    NetOp op, uint64_t salt);

/// Identity of one shuffle segment: the partition-`partition` slice of map
/// task `map_task`'s committed output in job `job`.
struct ShuffleSegmentKey {
  std::string job;
  uint64_t map_task = 0;
  uint64_t partition = 0;
};

/// Wire-activity counters for one Publish/Fetch call, aggregated by the
/// engine into JobMetrics (metrics.h net_* fields).
struct NetCallStats {
  uint64_t rpcs = 0;            ///< round trips attempted (retries included)
  uint64_t retries = 0;         ///< attempts after the first, per operation
  uint64_t corrupt_frames = 0;  ///< frame/segment checksum mismatches caught
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

/// The seam between the job engine and the bytes-moving layer. All methods
/// are thread-safe: map tasks publish and fetch concurrently.
class ShuffleTransport {
 public:
  virtual ~ShuffleTransport() = default;

  virtual const char* name() const = 0;

  /// Stores `segment` under `key`, replacing any previous bytes (publish
  /// is idempotent: re-publishing after a worker loss or a map re-run
  /// writes the same deterministic bytes).
  virtual Status Publish(const ShuffleSegmentKey& key, std::string segment,
                         NetCallStats* stats) = 0;

  /// Retrieves the bytes published under `key`, checksum-verified end to
  /// end. A non-OK result means the transport exhausted its own retry
  /// budget — the caller escalates (local spill, map re-run).
  virtual Result<std::string> Fetch(const ShuffleSegmentKey& key,
                                    NetCallStats* stats) = 0;

  /// Frees every segment of `job` (jobs in a pipeline run sequentially;
  /// the engine drops its shuffle when the job completes).
  virtual void DropJob(const std::string& job) = 0;

  /// Workers declared dead so far (heartbeat misses or exhausted
  /// connection retries). Always 0 for the in-process transport.
  virtual uint64_t worker_losses() const { return 0; }
};

/// A mutex-guarded in-process segment map, for tests. A job without a
/// transport (the `--transport=inproc` default) skips it and hands its
/// segments off directly.
class InprocTransport : public ShuffleTransport {
 public:
  const char* name() const override { return "inproc"; }
  Status Publish(const ShuffleSegmentKey& key, std::string segment,
                 NetCallStats* stats) override;
  Result<std::string> Fetch(const ShuffleSegmentKey& key,
                            NetCallStats* stats) override;
  void DropJob(const std::string& job) override;

 private:
  Mutex mu_{"transport.inproc", lock_rank::kTransport};
  std::map<std::tuple<std::string, uint64_t, uint64_t>, std::string> segments_
      FJ_GUARDED_BY(mu_);
};

/// Client-side policy knobs of the socket transport.
struct SocketTransportOptions {
  /// Deadline for one connect attempt.
  uint32_t connect_timeout_ms = 500;
  /// Deadline for one frame send/receive (SO_SNDTIMEO/SO_RCVTIMEO): a
  /// stalled peer trips this and the operation retries.
  uint32_t io_timeout_ms = 1000;
  /// Attempts per operation against one worker before it is declared
  /// lost (Publish moves on to the next live worker in the ring; Fetch
  /// reports Unavailable and the engine escalates).
  uint32_t max_attempts_per_op = 5;
  /// Exponential backoff between attempts: base * 2^attempt, capped, plus
  /// deterministic jitter in [0, base) hashed from the fault coordinate.
  uint32_t backoff_base_ms = 5;
  uint32_t backoff_max_ms = 100;
  /// Background heartbeat (PING) cadence per worker; 0 disables the
  /// heartbeat thread (losses are then only detected on demand).
  uint32_t heartbeat_interval_ms = 100;
  /// Consecutive heartbeat misses before a worker is declared lost.
  uint32_t heartbeat_misses_to_loss = 3;
};

/// A socket transport speaking the worker_net.h frame protocol to shuffle
/// workers listening on 127.0.0.1:`ports[i]`. `fault_plan` (may be null)
/// drives only the CLIENT-side refuse-connect fault — server-side faults
/// belong to the workers' own plan. The returned transport owns a
/// heartbeat thread; destroy it before tearing the workers down.
std::unique_ptr<ShuffleTransport> MakeSocketTransport(
    std::vector<int> ports, std::shared_ptr<const NetFaultPlan> fault_plan,
    const SocketTransportOptions& options = {});

}  // namespace fj::mr
