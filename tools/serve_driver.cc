// fuzzyjoin_serve — line-protocol server driver for the serving subsystem.
//
//   fuzzyjoin_serve [--load=RECORDS [--ordering=TOKENS]]
//                   [--snapshot_in=FILE] [--snapshot_out=FILE]
//                   [--tau_floor=0.5] [--function=jaccard]
//                   [--compact_fraction=0.25]
//                   [--threads=2] [--queue_depth=1024] [--batch=64]
//                   [--cache=4096] [--stats]
//
// Reads one request per line from stdin, answers one line per request on
// stdout (diagnostics go to stderr). Requests run through the full
// QueryService path — bounded queue, batching on the executor, result
// cache — exactly like production traffic:
//
//   insert <rid> <text...>    index the tokenized text under rid
//   remove <rid>              tombstone rid
//   probe <tau> <text...>     all records with sim >= tau (rid asc)
//   topk <k> <text...>        k most similar records (sim desc, rid asc)
//   compact                   flush + compact the index now
//   stats                     dump index/service stats to stderr
//   quit                      exit (EOF also exits)
//
// Responses: "OK insert <rid>", "OK probe <n> rid:sim ...",
// "ERR <CodeName> <message>". Similarities print with 4 decimals.
//
// --load seeds the index from a data::Record file (the offline corpus);
// --ordering supplies the stage-1 "token<TAB>count" ranking so online
// tokenization matches the batch pipeline (derived from the corpus when
// omitted). --snapshot_in/--snapshot_out round-trip the seeded index
// through the binary snapshot format instead. A snapshot carries the
// index's function, floor and compaction fraction, so --snapshot_in
// refuses --tau_floor, --function, --compact_fraction, --load and
// --ordering (exit status 2, naming the flag).
//
// An unknown flag, a malformed number, a bad count or a --tau_floor
// outside (0, 1] is a usage error: exit status 2, naming the flag.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/executor.h"
#include "common/flags.h"
#include "common/varint.h"
#include "serve/query_service.h"
#include "serve/serving_index.h"
#include "text/tokenizer.h"

namespace {

using fj::Flags;
using fj::Result;
using fj::Status;

// Prints `status` and returns `exit_code`: 2 for a usage error such as a
// bad flag, 1 for a run that failed.
int Fail(const Status& status, int exit_code = 1) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return exit_code;
}

/// Ignores SIGPIPE process-wide so a peer closing mid-write surfaces as
/// EPIPE from the write, never a process kill. Idempotent.
void IgnoreSigpipe() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

/// Writes all of `data` to `fd`, looping on EINTR and short writes and
/// polling through EAGAIN. EPIPE (peer gone) returns Unavailable; other
/// errors IOError.
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

// Responses go to stdout through the EINTR/EAGAIN-safe fd writer rather
// than std::cout: when the client is a pipe that closes mid-probe (head,
// a killed client), a buffered stream would either die on SIGPIPE or
// silently lose the error. Returns false when the client went away —
// a normal way for a serving session to end, not an error.
bool EmitLine(std::string line) {
  line.push_back('\n');
  return WriteAllFd(1, line).ok();
}

// Probes carry a rid no real record uses so self-exclusion never triggers.
constexpr uint64_t kQueryRid = ~uint64_t{0};

// Snapshot files: 4-byte magic, then varint-length-framed blocks.
constexpr char kSnapshotMagic[4] = {'F', 'J', 'S', 'N'};

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(std::move(line));
  return lines;
}

Result<std::vector<std::string>> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < sizeof(kSnapshotMagic) ||
      !std::equal(kSnapshotMagic, kSnapshotMagic + sizeof(kSnapshotMagic),
                  bytes.begin())) {
    return Status::DataLoss("not a snapshot file: " + path);
  }
  std::vector<std::string> blocks;
  size_t pos = sizeof(kSnapshotMagic);
  while (pos < bytes.size()) {
    uint64_t len = 0;
    if (!fj::DecodeVarint(bytes, &pos, &len) || len > bytes.size() - pos) {
      return Status::DataLoss("corrupt snapshot file: " + path);
    }
    blocks.push_back(bytes.substr(pos, static_cast<size_t>(len)));
    pos += static_cast<size_t>(len);
  }
  return blocks;
}

Status WriteSnapshotFile(const std::string& path,
                         const std::vector<std::string>& blocks) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(kSnapshotMagic, sizeof(kSnapshotMagic));
  std::string frame;
  for (const auto& block : blocks) {
    frame.clear();
    fj::AppendVarint(&frame, block.size());
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    out.write(block.data(), static_cast<std::streamsize>(block.size()));
  }
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

std::string FormatResults(const char* verb,
                          const std::vector<fj::serve::ProbeResult>& results) {
  std::ostringstream line;
  line << "OK " << verb << ' ' << results.size();
  char sim[16];
  for (const auto& r : results) {
    std::snprintf(sim, sizeof(sim), "%.4f", r.similarity);
    line << ' ' << r.rid << ':' << sim;
  }
  return line.str();
}

void PrintServeStats(const fj::serve::ServingIndex& index,
                     const fj::serve::QueryService& service) {
  const auto& is = index.stats();
  std::fprintf(stderr,
               "index: %zu live, %zu tombstones, %llu/%llu live/arena "
               "tokens, epoch %llu\n",
               index.live_records(), index.tombstones(),
               static_cast<unsigned long long>(index.live_tokens()),
               static_cast<unsigned long long>(index.arena_tokens()),
               static_cast<unsigned long long>(index.write_epoch()));
  std::fprintf(stderr,
               "  writes: %llu inserts, %llu removes, %llu compactions "
               "(%llu tombstones purged)\n",
               static_cast<unsigned long long>(is.inserts),
               static_cast<unsigned long long>(is.removes),
               static_cast<unsigned long long>(is.compactions),
               static_cast<unsigned long long>(is.tombstones_purged));
  std::fprintf(stderr,
               "  probes: %llu probes, %llu candidates, %llu positional / "
               "%llu bitmap pruned, %llu verified, %llu results\n",
               static_cast<unsigned long long>(is.probes),
               static_cast<unsigned long long>(is.candidates),
               static_cast<unsigned long long>(is.positional_pruned),
               static_cast<unsigned long long>(is.bitmap_pruned),
               static_cast<unsigned long long>(is.verified),
               static_cast<unsigned long long>(is.results));
  const auto ss = service.stats();
  std::fprintf(stderr,
               "service: %llu accepted, %llu rejected (%llu depth, %llu "
               "bytes), %llu completed in %llu batches\n",
               static_cast<unsigned long long>(ss.accepted),
               static_cast<unsigned long long>(ss.rejected()),
               static_cast<unsigned long long>(ss.rejected_queue_depth),
               static_cast<unsigned long long>(ss.rejected_bytes),
               static_cast<unsigned long long>(ss.completed),
               static_cast<unsigned long long>(ss.batches));
  std::fprintf(stderr,
               "  cache: %llu hits, %llu stale, %llu misses\n",
               static_cast<unsigned long long>(ss.cache_hits),
               static_cast<unsigned long long>(ss.cache_stale),
               static_cast<unsigned long long>(ss.cache_misses));
  std::fprintf(stderr, "  probe latency: %s\n",
               ss.probe_latency.Summary().c_str());
  std::fprintf(stderr, "  write latency: %s\n",
               ss.write_latency.Summary().c_str());
  // batch_size counts requests in the histogram's integer domain; print
  // it as counts, not durations.
  std::fprintf(stderr,
               "  batch size:    n=%llu mean=%.1f p50=%.0f max=%.0f\n",
               static_cast<unsigned long long>(ss.batch_size.count()),
               ss.batch_size.mean_seconds() * 1e9,
               ss.batch_size.Quantile(0.5) * 1e9,
               ss.batch_size.max_seconds() * 1e9);
}

int Run(const Flags& flags) {
  fj::serve::ServingIndexOptions index_options;
  index_options.tau_floor = flags.GetDouble("tau_floor", 0.5);
  index_options.compact_tombstone_fraction =
      flags.GetDouble("compact_fraction", 0.25);
  const std::string snapshot_in = flags.GetString("snapshot_in", "");
  const std::string snapshot_out = flags.GetString("snapshot_out", "");
  const std::string load = flags.GetString("load", "");
  const std::string ordering_path = flags.GetString("ordering", "");
  const bool stats = flags.Has("stats");
  // Count flags keep the option structs' defaults when absent.
  size_t threads = 2;
  fj::serve::QueryServiceOptions service_options;
  Status usage = [&]() -> Status {
    FJ_RETURN_IF_ERROR(flags.GetCount("threads", &threads));
    FJ_RETURN_IF_ERROR(
        flags.GetCount("queue_depth", &service_options.max_queue_depth));
    FJ_RETURN_IF_ERROR(flags.GetCount("batch", &service_options.max_batch));
    FJ_RETURN_IF_ERROR(
        flags.GetCount("cache", &service_options.cache_capacity));
    if (threads > fj::Executor::kMaxWorkers) {
      return Status::InvalidArgument(
          "--threads=" + std::to_string(threads) + ": at most " +
          std::to_string(fj::Executor::kMaxWorkers));
    }
    const std::string function = flags.GetString("function", "jaccard");
    auto parsed_function = fj::sim::SimilarityFunctionFromName(function);
    if (!parsed_function.ok()) {
      return Status::InvalidArgument("unknown --function: " + function);
    }
    index_options.function = *parsed_function;
    FJ_RETURN_IF_ERROR(flags.Check());
    // A snapshot carries the index's function, floor and compaction
    // fraction, and the records and ordering it was built from.
    for (const char* flag :
         {"tau_floor", "function", "compact_fraction", "load", "ordering"}) {
      if (!snapshot_in.empty() && flags.Has(flag)) {
        return Status::InvalidArgument(
            std::string("--") + flag +
            " cannot be combined with --snapshot_in: the snapshot "
            "supplies it");
      }
    }
    // The range LoadSnapshot accepts; SimilaritySpec requires it too.
    if (!(index_options.tau_floor > 0.0) || index_options.tau_floor > 1.0) {
      return Status::InvalidArgument("--tau_floor=" +
                                     flags.GetString("tau_floor", "") +
                                     ": must lie in (0, 1]");
    }
    return Status::OK();
  }();
  if (!usage.ok()) return Fail(usage, 2);

  // --- Seed the index: snapshot beats corpus beats empty. ---
  fj::serve::SeededIndex seeded;
  const fj::text::WordTokenizer tokenizer;
  if (!snapshot_in.empty()) {
    auto blocks = ReadSnapshotFile(snapshot_in);
    if (!blocks.ok()) return Fail(blocks.status());
    auto loaded = fj::serve::LoadSnapshot(*blocks);
    if (!loaded.ok()) return Fail(loaded.status());
    seeded = std::move(loaded).value();
  } else {
    std::vector<std::string> record_lines;
    std::vector<std::string> ordering_lines;
    if (!load.empty()) {
      auto lines = ReadLines(load);
      if (!lines.ok()) return Fail(lines.status());
      record_lines = std::move(lines).value();
    }
    if (!ordering_path.empty()) {
      auto lines = ReadLines(ordering_path);
      if (!lines.ok()) return Fail(lines.status());
      ordering_lines = std::move(lines).value();
    }
    auto built = fj::serve::BuildFromJoinOutput(ordering_lines, record_lines,
                                                tokenizer, index_options);
    if (!built.ok()) return Fail(built.status());
    seeded = std::move(built).value();
  }
  const fj::serve::ServingIndexOptions& served = seeded.index->options();
  std::fprintf(stderr, "serving %zu records (tau_floor=%.2f, %s)\n",
               seeded.index->live_records(), served.tau_floor,
               fj::sim::SimilarityFunctionName(served.function));

  fj::Executor executor(threads);
  fj::serve::QueryService service(seeded.index.get(), &executor,
                                  service_options);

  // --- Request loop. ---
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb.empty()) continue;
    if (verb == "quit") break;
    if (verb == "compact") {
      service.Flush();  // nothing in flight while the index rewrites itself
      seeded.index->CompactNow();
      if (!EmitLine("OK compact")) break;
      continue;
    }
    if (verb == "stats") {
      service.Flush();
      PrintServeStats(*seeded.index, service);
      if (!EmitLine("OK stats")) break;
      continue;
    }
    fj::serve::Request request;
    std::string error;
    if (verb == "insert") {
      request.kind = fj::serve::RequestKind::kInsert;
      if (!(in >> request.record.rid)) error = "insert needs: rid text...";
    } else if (verb == "remove") {
      request.kind = fj::serve::RequestKind::kRemove;
      if (!(in >> request.rid)) error = "remove needs: rid";
    } else if (verb == "probe") {
      request.kind = fj::serve::RequestKind::kProbeThreshold;
      request.record.rid = kQueryRid;
      if (!(in >> request.threshold)) error = "probe needs: tau text...";
    } else if (verb == "topk") {
      request.kind = fj::serve::RequestKind::kProbeTopK;
      request.record.rid = kQueryRid;
      if (!(in >> request.top_k)) error = "topk needs: k text...";
    } else {
      error = "unknown request: " + verb;
    }
    if (error.empty() && verb != "remove") {
      std::string text;
      std::getline(in, text);
      request.record.tokens =
          seeded.ordering.ToSortedIds(tokenizer.Tokenize(text));
      if (request.record.tokens.empty()) error = "empty token set";
    }
    if (!error.empty()) {
      if (!EmitLine("ERR InvalidArgument " + error)) break;
      continue;
    }
    const uint64_t echo_rid =
        verb == "remove" ? request.rid : request.record.rid;
    fj::serve::ServeResponse response = service.ExecuteSync(request);
    if (!response.status.ok()) {
      if (!EmitLine(std::string("ERR ") +
                    fj::StatusCodeName(response.status.code()) + ' ' +
                    std::string(response.status.message()))) {
        break;
      }
      continue;
    }
    if (verb == "insert" || verb == "remove") {
      if (!EmitLine("OK " + verb + ' ' + std::to_string(echo_rid))) break;
    } else {
      if (!EmitLine(FormatResults(verb.c_str(), response.results))) break;
    }
  }

  service.Flush();
  if (stats) PrintServeStats(*seeded.index, service);
  if (!snapshot_out.empty()) {
    auto status = WriteSnapshotFile(
        snapshot_out, fj::serve::SaveSnapshot(*seeded.index, seeded.ordering));
    if (!status.ok()) return Fail(status);
    std::fprintf(stderr, "snapshot -> %s\n", snapshot_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A client that disconnects mid-response (closed pipe, killed reader)
  // must not kill the server with SIGPIPE; the write path reports the
  // broken pipe as a status and the session winds down normally.
  IgnoreSigpipe();
  Flags flags(argc, argv);
  return Run(flags);
}
