#include "mapreduce/record_format.h"

#include <array>
#include <bit>
#include <cstring>
#include <memory>

namespace fj::mr {

namespace {

// fjlz stream constants. The format is the LZ4 block idiom: a token byte
// whose high nibble is the literal length and low nibble the match length
// minus the 4-byte minimum; nibble value 15 means "read 255-continuation
// extension bytes". Literals follow the token; a 2-byte little-endian
// offset and the match extensions follow the literals. The final sequence
// of a stream is literals-only — the decoder stops once the declared raw
// size is produced, so no sentinel match is needed.
constexpr size_t kFjlzMinMatch = 4;
constexpr size_t kFjlzMaxOffset = 65535;
constexpr unsigned kFjlzHashBits = 13;
// The decompressor copies a literal run or match no longer than this as
// one fixed-size block when both buffers have room: the bytes copied past
// the sequence's end are rewritten by the sequences after it (or cut off
// when decoding fails), and a match copied this way lies at least this
// far back, so it never reads a byte it writes.
constexpr size_t kFjlzShortCopy = 16;

uint32_t FjlzHash4(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kFjlzHashBits);
}

// Bytes from `cur` on (up to `end`) that equal those from the earlier
// `ref` on; eight at a time where the host is little-endian.
size_t FjlzMatchLength(const char* cur, const char* ref, const char* end) {
  const char* const start = cur;
  if constexpr (std::endian::native == std::endian::little) {
    while (end - cur >= 8) {
      uint64_t a = 0;
      uint64_t b = 0;
      std::memcpy(&a, cur, sizeof(a));
      std::memcpy(&b, ref, sizeof(b));
      if (a != b) {
        return static_cast<size_t>(cur - start) +
               static_cast<size_t>(std::countr_zero(a ^ b)) / 8;
      }
      cur += 8;
      ref += 8;
    }
  }
  while (cur < end && *cur == *ref) {
    ++cur;
    ++ref;
  }
  return static_cast<size_t>(cur - start);
}

// Largest stream FjlzCompress can produce from `n` bytes: each sequence
// with a match costs at most its input plus one byte per 255 literals,
// and the final literals-only sequence at most two bytes more.
size_t FjlzBound(size_t n) { return n + n / 255 + 16; }

char* FjlzWriteLength(char* op, size_t len) {
  // Extension bytes for a nibble that saturated at 15.
  len -= 15;
  while (len >= 255) {
    *op++ = static_cast<char>(0xff);
    len -= 255;
  }
  *op++ = static_cast<char>(len);
  return op;
}

// Writes one sequence at `op` and returns the end of what it wrote:
// `lit_len` literals starting at `lit`, then (when `match_len` > 0) a
// back-reference of `match_len >= kFjlzMinMatch` bytes at distance
// `offset`.
char* FjlzEmit(char* op, const char* lit, size_t lit_len, size_t match_len,
               size_t offset) {
  size_t match_code = match_len == 0 ? 0 : match_len - kFjlzMinMatch;
  *op++ = static_cast<char>((lit_len < 15 ? lit_len : 15) << 4 |
                            (match_code < 15 ? match_code : 15));
  if (lit_len >= 15) op = FjlzWriteLength(op, lit_len);
  std::memcpy(op, lit, lit_len);
  op += lit_len;
  if (match_len == 0) return op;
  *op++ = static_cast<char>(offset & 0xff);
  *op++ = static_cast<char>((offset >> 8) & 0xff);
  if (match_code >= 15) op = FjlzWriteLength(op, match_code);
  return op;
}

// Reads the 255-continuation extension of a saturated nibble.
bool FjlzReadLength(std::string_view src, size_t* pos, size_t* len) {
  while (true) {
    if (*pos >= src.size()) return false;
    auto byte = static_cast<uint8_t>(src[(*pos)++]);
    *len += byte;
    if (byte != 0xff) return true;
  }
}

}  // namespace

// The compressor's hash table of recent positions, reused by every
// compression of one CodecScratch. Each call stamps the slots it writes
// with its generation, so a slot left by an earlier call reads as empty —
// the same as the freshly filled table of a one-table-per-call
// compressor, without filling 8,192 slots per block. The 8-bit generation
// wraps every 255 calls; the table is cleared then, which costs nothing
// amortized.
class FjlzMatchTable {
 public:
  struct Slot {
    uint32_t pos = 0;
    uint8_t generation = 0;  // 0: never written
  };

  /// Starts a call and returns the generation it stamps; every slot an
  /// earlier call wrote now reads as empty.
  uint8_t NextGeneration() {
    if (++generation_ == 0) {
      slots_.fill(Slot{});
      generation_ = 1;
    }
    return generation_;
  }

  Slot& operator[](uint32_t hash) { return slots_[hash]; }

 private:
  std::array<Slot, size_t{1} << kFjlzHashBits> slots_{};
  uint8_t generation_ = 0;
};

CodecScratch::CodecScratch() = default;
CodecScratch::~CodecScratch() = default;

void FjlzCompress(std::string_view src, CodecScratch* scratch,
                  std::string* out) {
  const size_t n = src.size();
  if (n == 0) {
    out->clear();
    return;
  }
  // The greedy parse: probe every literal position, skip the positions
  // inside a match. The stream is written through `op` into a buffer
  // sized for the worst case, then trimmed.
  out->resize(FjlzBound(n));
  char* const begin = out->data();
  char* op = begin;
  const char* const base = src.data();
  if (!scratch->match_table) {
    scratch->match_table = std::make_unique<FjlzMatchTable>();
  }
  FjlzMatchTable& table = *scratch->match_table;
  const uint8_t generation = table.NextGeneration();
  size_t anchor = 0;
  size_t i = 0;
  while (i + kFjlzMinMatch <= n) {
    FjlzMatchTable::Slot& slot = table[FjlzHash4(base + i)];
    const bool live = slot.generation == generation;
    const size_t cand = slot.pos;
    slot = {static_cast<uint32_t>(i), generation};
    if (live && i - cand <= kFjlzMaxOffset &&
        std::memcmp(base + cand, base + i, kFjlzMinMatch) == 0) {
      const size_t match =
          kFjlzMinMatch + FjlzMatchLength(base + i + kFjlzMinMatch,
                                          base + cand + kFjlzMinMatch,
                                          base + n);
      op = FjlzEmit(op, base + anchor, i - anchor, match, i - cand);
      i += match;
      anchor = i;
    } else {
      ++i;
    }
  }
  if (anchor < n) op = FjlzEmit(op, base + anchor, n - anchor, 0, 0);
  out->resize(static_cast<size_t>(op - begin));
}

Status FjlzDecompress(std::string_view src, size_t raw_size,
                      std::string* out) {
  out->resize(raw_size);
  char* const dst = out->data();
  size_t produced = 0;
  // Every exit leaves `out` holding exactly the bytes produced so far.
  auto fail = [out, &produced](const char* message) {
    out->resize(produced);
    return Status::DataLoss(message);
  };
  size_t pos = 0;
  while (produced < raw_size) {
    if (pos >= src.size()) {
      return fail("fjlz stream truncated before token");
    }
    auto token = static_cast<uint8_t>(src[pos++]);
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !FjlzReadLength(src, &pos, &lit_len)) {
      return fail("fjlz stream truncated in literal length");
    }
    if (lit_len > src.size() - pos) {
      return fail("fjlz literal run exceeds stream");
    }
    if (lit_len > raw_size - produced) {
      return fail("fjlz literal run exceeds declared raw size");
    }
    if (lit_len <= kFjlzShortCopy && src.size() - pos >= kFjlzShortCopy &&
        raw_size - produced >= kFjlzShortCopy) {
      std::memcpy(dst + produced, src.data() + pos, kFjlzShortCopy);
    } else {
      std::memcpy(dst + produced, src.data() + pos, lit_len);
    }
    produced += lit_len;
    pos += lit_len;
    if (produced == raw_size) break;  // final literals-only sequence
    if (src.size() - pos < 2) {
      return fail("fjlz stream truncated before match offset");
    }
    size_t offset = static_cast<uint8_t>(src[pos]) |
                    static_cast<size_t>(static_cast<uint8_t>(src[pos + 1]))
                        << 8;
    pos += 2;
    if (offset == 0 || offset > produced) {
      return fail("fjlz match offset outside produced output");
    }
    size_t match_code = token & 0x0f;
    if (match_code == 15 && !FjlzReadLength(src, &pos, &match_code)) {
      return fail("fjlz stream truncated in match length");
    }
    size_t match_len = match_code + kFjlzMinMatch;
    if (match_len > raw_size - produced) {
      return fail("fjlz match exceeds declared raw size");
    }
    char* const to = dst + produced;
    const char* const from = to - offset;
    if (match_len <= kFjlzShortCopy && offset >= kFjlzShortCopy &&
        raw_size - produced >= kFjlzShortCopy) {
      std::memcpy(to, from, kFjlzShortCopy);
    } else if (offset >= match_len) {
      std::memcpy(to, from, match_len);
    } else {
      // The match overlaps its own output (RLE-style): byte by byte, so
      // each byte copied is available as a source further on.
      for (size_t k = 0; k < match_len; ++k) to[k] = from[k];
    }
    produced += match_len;
  }
  if (pos != src.size()) {
    return Status::DataLoss("trailing bytes after fjlz stream");
  }
  return Status::OK();
}

void EncodeBlock(BlockCodec codec, uint64_t record_count,
                 std::string_view raw_payload, CodecScratch* scratch,
                 std::string* out) {
  out->clear();
  std::string_view payload = raw_payload;
  if (codec == BlockCodec::kFjlz) {
    FjlzCompress(raw_payload, scratch, &scratch->compressed);
    if (scratch->compressed.size() < raw_payload.size()) {
      payload = scratch->compressed;
    } else {
      codec = BlockCodec::kNone;  // incompressible: store raw
    }
  }
  out->reserve(payload.size() + 2 * kMaxVarintBytes + 1);
  out->push_back(static_cast<char>(codec));
  AppendVarint(out, record_count);
  AppendVarint(out, raw_payload.size());
  out->append(payload);
}

Status DecodeBlock(std::string_view block, CodecScratch* scratch,
                   uint64_t* record_count, std::string_view* raw_payload) {
  if (block.empty()) return Status::DataLoss("empty run block");
  auto codec_byte = static_cast<uint8_t>(block[0]);
  if (codec_byte > static_cast<uint8_t>(BlockCodec::kFjlz)) {
    return Status::DataLoss("run block names an unknown codec");
  }
  size_t pos = 1;
  uint64_t count = 0;
  uint64_t raw_size = 0;
  if (!DecodeVarint(block, &pos, &count) ||
      !DecodeVarint(block, &pos, &raw_size)) {
    return Status::DataLoss("truncated run block header");
  }
  std::string_view payload = block.substr(pos);
  if (static_cast<BlockCodec>(codec_byte) == BlockCodec::kNone) {
    if (raw_size != payload.size()) {
      return Status::DataLoss("run block payload size mismatch");
    }
    *raw_payload = payload;
  } else {
    // fjlz expands at most ~255x per stream byte; a declared raw size
    // beyond that is a corrupt header — reject before reserving.
    if (raw_size > 16 + payload.size() * 256) {
      return Status::DataLoss("run block declares implausible raw size");
    }
    FJ_RETURN_IF_ERROR(FjlzDecompress(payload, static_cast<size_t>(raw_size),
                                      &scratch->decoded));
    *raw_payload = scratch->decoded;
  }
  *record_count = count;
  return Status::OK();
}

const char* RecordFormatName(RecordFormat format) {
  switch (format) {
    case RecordFormat::kText:
      return "text";
    case RecordFormat::kBinary:
      return "binary";
  }
  return "unknown";
}

const char* BlockCodecName(BlockCodec codec) {
  switch (codec) {
    case BlockCodec::kNone:
      return "none";
    case BlockCodec::kFjlz:
      return "fjlz";
  }
  return "unknown";
}

bool ParseRecordFormat(std::string_view name, RecordFormat* format) {
  if (name == "text") {
    *format = RecordFormat::kText;
    return true;
  }
  if (name == "binary") {
    *format = RecordFormat::kBinary;
    return true;
  }
  return false;
}

bool ParseBlockCodec(std::string_view name, BlockCodec* codec) {
  if (name == "none") {
    *codec = BlockCodec::kNone;
    return true;
  }
  if (name == "fjlz") {
    *codec = BlockCodec::kFjlz;
    return true;
  }
  return false;
}

}  // namespace fj::mr
