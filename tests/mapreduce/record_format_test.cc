// The binary record format, bottom up: varint primitives, the typed
// content codec, the fjlz block codec and run-block framing — plus an
// end-to-end job proving the binary path produces byte-identical output
// to text. The decode-side
// tests are deliberately hostile: every truncation prefix and random
// byte-flip must come back as `false`/Status, never UB (the job layer
// relies on that to turn corrupted shuffle blocks into failed attempts).
#include "mapreduce/record_format.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "common/varint.h"
#include "fuzzyjoin/projection.h"
#include "mapreduce/dfs.h"
#include "mapreduce/job.h"

namespace fj::mr {
namespace {

// --- layer 0: varints ---------------------------------------------------

TEST(VarintTest, RoundTripsEdgeValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             300,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             1ull << 63,
                             std::numeric_limits<uint64_t>::max()};
  for (uint64_t v : values) {
    std::string buf;
    AppendVarint(&buf, v);
    EXPECT_LE(buf.size(), kMaxVarintBytes);
    EXPECT_EQ(buf.size(), VarintLen(v));
    size_t pos = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(DecodeVarint(buf, &pos, &decoded)) << v;
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(pos, buf.size());
  }
}

TEST(VarintTest, FuzzRoundTrip) {
  std::mt19937_64 rng(20260808);
  std::string buf;
  std::vector<uint64_t> values;
  for (int i = 0; i < 2000; ++i) {
    // Bias toward small values (shift by a random bit width) so every
    // encoded length 1..10 is exercised.
    uint64_t v = rng() >> (rng() % 64);
    values.push_back(v);
    AppendVarint(&buf, v);
  }
  size_t pos = 0;
  for (uint64_t expected : values) {
    uint64_t decoded = 0;
    ASSERT_TRUE(DecodeVarint(buf, &pos, &decoded));
    EXPECT_EQ(decoded, expected);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(VarintTest, EveryTruncationPrefixFailsWithPosUntouched) {
  std::string buf;
  AppendVarint(&buf, std::numeric_limits<uint64_t>::max());  // 10 bytes
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view prefix(buf.data(), cut);
    size_t pos = 0;
    uint64_t v = 0;
    EXPECT_FALSE(DecodeVarint(prefix, &pos, &v)) << cut;
    EXPECT_EQ(pos, 0u) << "pos must be untouched on failure";
  }
}

TEST(VarintTest, OverlongEncodingRejected) {
  // 11 continuation bytes can never be a valid varint.
  std::string buf(11, '\x80');
  size_t pos = 0;
  uint64_t v = 0;
  EXPECT_FALSE(DecodeVarint(buf, &pos, &v));
}

TEST(VarintTest, TenthByteWorthTwoToTheSixtyFourOrMoreRejected) {
  // Ten-byte encodings whose last byte carries bits at 2^64 and above:
  // 80x9 02 would wrap to 0 and ffx9 7f to 2^64-1 if the excess bits were
  // dropped. Both are corruption, and the cursor stays put.
  for (const char last : {'\x02', '\x7f'}) {
    for (const char filler : {'\x80', '\xff'}) {
      std::string buf(9, filler);
      buf.push_back(last);
      size_t pos = 0;
      uint64_t v = 7;
      EXPECT_FALSE(DecodeVarint(buf, &pos, &v))
          << static_cast<int>(filler) << " " << static_cast<int>(last);
      EXPECT_EQ(pos, 0u);
      EXPECT_EQ(v, 7u);
    }
  }
  // 0x01 in the tenth byte is bit 63, the largest legal value there.
  std::string top(9, '\x80');
  top.push_back('\x01');
  size_t pos = 0;
  uint64_t v = 0;
  ASSERT_TRUE(DecodeVarint(top, &pos, &v));
  EXPECT_EQ(v, uint64_t{1} << 63);
  EXPECT_EQ(pos, kMaxVarintBytes);
}

TEST(VarintTest, ZigZagRoundTripsSignedEdges) {
  const int64_t values[] = {0,
                            -1,
                            1,
                            -64,
                            63,
                            -65,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes map to small codes (the point of zigzag).
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
}

// --- layer 1: typed content codec ---------------------------------------

template <typename T>
void ExpectContentRoundTrip(const T& value) {
  std::string buf = "prefix";  // encoding appends, decoding starts mid-buffer
  EncodeContent(value, &buf);
  size_t pos = 6;
  T decoded{};
  ASSERT_TRUE(DecodeContent(buf, &pos, &decoded));
  EXPECT_EQ(decoded, value);
  EXPECT_EQ(pos, buf.size());
}

TEST(ContentCodecTest, RoundTripsScalarsStringsAndComposites) {
  ExpectContentRoundTrip(std::string());
  ExpectContentRoundTrip(std::string("hello\tworld"));
  ExpectContentRoundTrip(std::string("embedded\0nul", 12));
  ExpectContentRoundTrip(std::string(100000, 'x'));  // max-length record
  ExpectContentRoundTrip(uint64_t{0});
  ExpectContentRoundTrip(std::numeric_limits<uint64_t>::max());
  ExpectContentRoundTrip(int64_t{-123456789});
  ExpectContentRoundTrip(uint8_t{7});
  ExpectContentRoundTrip(true);
  ExpectContentRoundTrip(false);
  ExpectContentRoundTrip(3.14159265358979);
  ExpectContentRoundTrip(-0.0);
  ExpectContentRoundTrip(std::make_pair(std::string("k"), uint64_t{9}));
  ExpectContentRoundTrip(
      std::make_tuple(uint64_t{1}, std::string("two"), 3.0));
  ExpectContentRoundTrip(std::vector<uint64_t>{});
  ExpectContentRoundTrip(std::vector<uint64_t>{1, 127, 128, 1ull << 40});
  ExpectContentRoundTrip(std::vector<std::string>{"", "a", "bb"});
}

TEST(ContentCodecTest, DoubleRoundTripIsExactBits) {
  // 1/3 has no short decimal rendering; the fixed64 path must preserve
  // the exact bit pattern, not a formatted approximation.
  double v = 1.0 / 3.0;
  std::string buf;
  EncodeContent(v, &buf);
  ASSERT_EQ(buf.size(), 8u);
  size_t pos = 0;
  double decoded = 0;
  ASSERT_TRUE(DecodeContent(buf, &pos, &decoded));
  EXPECT_EQ(decoded, v);  // bitwise, not approximate
}

TEST(ContentCodecTest, NarrowIntegerRangeChecked) {
  std::string buf;
  EncodeContent(uint64_t{300}, &buf);
  size_t pos = 0;
  uint8_t narrow = 0;
  EXPECT_FALSE(DecodeContent(buf, &pos, &narrow));
  EXPECT_EQ(pos, 0u);
}

TEST(ContentCodecTest, EveryTruncationPrefixFails) {
  std::string buf;
  EncodeContent(std::make_tuple(uint64_t{12345}, std::string("payload"),
                                0.25),
                &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    std::string_view prefix(buf.data(), cut);
    size_t pos = 0;
    std::tuple<uint64_t, std::string, double> out;
    EXPECT_FALSE(DecodeContent(prefix, &pos, &out)) << cut;
  }
}

TEST(ContentCodecTest, VectorCountBeyondBufferRejectedBeforeReserve) {
  // A corrupted element count must be rejected by the sanity bound, not
  // fed to reserve() (which could attempt a huge allocation).
  std::string buf;
  AppendVarint(&buf, std::numeric_limits<uint64_t>::max());
  size_t pos = 0;
  std::vector<uint64_t> out;
  EXPECT_FALSE(DecodeContent(buf, &pos, &out));
}

TEST(ContentCodecTest, TokenSetRecordDeltaVarintRoundTrip) {
  using fj::join::TokenSetRecord;
  std::mt19937_64 rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    TokenSetRecord record;
    record.rid = rng();
    size_t n = rng() % 50;  // includes empty token sets
    uint64_t token = 0;
    for (size_t i = 0; i < n; ++i) {
      token += rng() % 1000;  // ascending, as stage 2 produces them
      record.tokens.push_back(token);
    }
    std::string buf;
    EncodeContent(record, &buf);
    // Ascending token ids delta-encode far below the text estimate.
    if (n > 0) {
      EXPECT_LT(buf.size(), 10 + 10 * n);
    }
    size_t pos = 0;
    TokenSetRecord decoded;
    ASSERT_TRUE(DecodeContent(buf, &pos, &decoded));
    EXPECT_EQ(decoded.rid, record.rid);
    EXPECT_EQ(decoded.tokens, record.tokens);
    EXPECT_EQ(pos, buf.size());
    for (size_t cut = 0; cut + 1 < buf.size(); ++cut) {
      size_t p = 0;
      TokenSetRecord t;
      EXPECT_FALSE(DecodeContent(std::string_view(buf.data(), cut), &p, &t));
    }
  }
}

// --- layer 2: fjlz and run blocks ----------------------------------------

std::string CompressibleBytes(size_t n) {
  std::string s;
  s.reserve(n);
  while (s.size() < n) s += "the quick brown fox jumps over the lazy dog ";
  s.resize(n);
  return s;
}

std::string RandomBytes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng() & 0xff);
  return s;
}

TEST(FjlzTest, RoundTripsEmptyCompressibleAndRandom) {
  CodecScratch scratch;
  for (const std::string& raw :
       {std::string(), CompressibleBytes(10000), RandomBytes(5000, 1),
        std::string(4096, 'A'),  // pure RLE
        RandomBytes(3, 2)}) {    // below min-match length
    std::string compressed;
    FjlzCompress(raw, &scratch, &compressed);
    std::string decompressed;
    auto status = FjlzDecompress(compressed, raw.size(), &decompressed);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decompressed, raw);
  }
}

TEST(FjlzTest, CompressesRepetitiveData) {
  std::string raw = CompressibleBytes(16384);
  CodecScratch scratch;
  std::string compressed;
  FjlzCompress(raw, &scratch, &compressed);
  EXPECT_LT(compressed.size() * 2, raw.size());
}

TEST(FjlzTest, TruncationAndBitFlipsNeverUB) {
  std::string raw = CompressibleBytes(2000);
  CodecScratch scratch;
  std::string compressed;
  FjlzCompress(raw, &scratch, &compressed);
  std::string out;
  for (size_t cut = 0; cut < compressed.size(); ++cut) {
    // Either a clean error or (for a cut that lands on a token boundary)
    // a short output — both fine; UB/overread is what the sanitizer
    // builds are watching for.
    (void)FjlzDecompress(std::string_view(compressed.data(), cut), raw.size(),
                         &out);
  }
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    std::string mutated = compressed;
    mutated[rng() % mutated.size()] ^= static_cast<char>(1 + rng() % 255);
    if (FjlzDecompress(mutated, raw.size(), &out).ok()) {
      EXPECT_EQ(out.size(), raw.size());
    }
  }
}

// --- the fjlz oracle ------------------------------------------------------
//
// The original byte-at-a-time fjlz codec, kept as the reference the
// production codec must match: identical compressed bytes for every input
// (byte counters, encoded-block checksums and shuffle bytes all depend on
// them — a codec that merely round-trips would pass every join check while
// those drifted), and identical Status and partial output on every
// malformed stream.
namespace oracle {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr unsigned kHashBits = 13;
constexpr uint32_t kNoPos = 0xffffffffu;

uint32_t Hash4(const char* p) {
  uint32_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return (v * 2654435761u) >> (32 - kHashBits);
}

void AppendLength(std::string* out, size_t len) {
  len -= 15;
  while (len >= 255) {
    out->push_back(static_cast<char>(0xff));
    len -= 255;
  }
  out->push_back(static_cast<char>(len));
}

void Emit(std::string* out, const char* lit, size_t lit_len, size_t match_len,
          size_t offset) {
  size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  uint8_t token =
      static_cast<uint8_t>((lit_len < 15 ? lit_len : 15) << 4 |
                           (match_code < 15 ? match_code : 15));
  out->push_back(static_cast<char>(token));
  if (lit_len >= 15) AppendLength(out, lit_len);
  out->append(lit, lit_len);
  if (match_len == 0) return;
  out->push_back(static_cast<char>(offset & 0xff));
  out->push_back(static_cast<char>((offset >> 8) & 0xff));
  if (match_code >= 15) AppendLength(out, match_code);
}

bool ReadLength(std::string_view src, size_t* pos, size_t* len) {
  while (true) {
    if (*pos >= src.size()) return false;
    auto byte = static_cast<uint8_t>(src[(*pos)++]);
    *len += byte;
    if (byte != 0xff) return true;
  }
}

void Compress(std::string_view src, std::string* out) {
  out->clear();
  const size_t n = src.size();
  if (n == 0) return;
  out->reserve(n / 2 + 16);
  std::vector<uint32_t> table(size_t{1} << kHashBits, kNoPos);
  size_t anchor = 0;
  size_t i = 0;
  while (i + kMinMatch <= n) {
    uint32_t h = Hash4(src.data() + i);
    uint32_t cand = table[h];
    table[h] = static_cast<uint32_t>(i);
    if (cand != kNoPos && i - cand <= kMaxOffset &&
        std::memcmp(src.data() + cand, src.data() + i, kMinMatch) == 0) {
      size_t match = kMinMatch;
      while (i + match < n && src[cand + match] == src[i + match]) ++match;
      Emit(out, src.data() + anchor, i - anchor, match, i - cand);
      i += match;
      anchor = i;
    } else {
      ++i;
    }
  }
  if (anchor < n) Emit(out, src.data() + anchor, n - anchor, 0, 0);
}

Status Decompress(std::string_view src, size_t raw_size, std::string* out) {
  out->clear();
  out->reserve(raw_size);
  size_t pos = 0;
  while (out->size() < raw_size) {
    if (pos >= src.size()) {
      return Status::DataLoss("fjlz stream truncated before token");
    }
    auto token = static_cast<uint8_t>(src[pos++]);
    size_t lit_len = token >> 4;
    if (lit_len == 15 && !ReadLength(src, &pos, &lit_len)) {
      return Status::DataLoss("fjlz stream truncated in literal length");
    }
    if (lit_len > src.size() - pos) {
      return Status::DataLoss("fjlz literal run exceeds stream");
    }
    if (lit_len > raw_size - out->size()) {
      return Status::DataLoss("fjlz literal run exceeds declared raw size");
    }
    out->append(src.data() + pos, lit_len);
    pos += lit_len;
    if (out->size() == raw_size) break;
    if (src.size() - pos < 2) {
      return Status::DataLoss("fjlz stream truncated before match offset");
    }
    size_t offset = static_cast<uint8_t>(src[pos]) |
                    static_cast<size_t>(static_cast<uint8_t>(src[pos + 1]))
                        << 8;
    pos += 2;
    if (offset == 0 || offset > out->size()) {
      return Status::DataLoss("fjlz match offset outside produced output");
    }
    size_t match_code = token & 0x0f;
    if (match_code == 15 && !ReadLength(src, &pos, &match_code)) {
      return Status::DataLoss("fjlz stream truncated in match length");
    }
    size_t match_len = match_code + kMinMatch;
    if (match_len > raw_size - out->size()) {
      return Status::DataLoss("fjlz match exceeds declared raw size");
    }
    size_t from = out->size() - offset;
    for (size_t k = 0; k < match_len; ++k) out->push_back((*out)[from + k]);
  }
  if (pos != src.size()) {
    return Status::DataLoss("trailing bytes after fjlz stream");
  }
  return Status::OK();
}

}  // namespace oracle

// The five input shapes the oracle comparison draws from.
enum class InputKind { kRandom, kWords, kByteRuns, kTwoLetters, kNoisyWords };

std::string WordText(size_t n, std::mt19937_64& rng) {
  static const char* const kWords[] = {
      "the",    "quick",   "brown", "fox",       "jumps", "over",
      "lazy",   "dog",     "join",  "similarity", "set",  "token",
      "prefix", "filter",  "map",   "reduce",     "record", "stage"};
  std::string s;
  s.reserve(n + 16);
  while (s.size() < n) {
    s += kWords[rng() % std::size(kWords)];
    s += rng() % 9 == 0 ? '\t' : ' ';
  }
  s.resize(n);
  return s;
}

std::string MakeInput(InputKind kind, size_t n, std::mt19937_64& rng) {
  std::string s;
  switch (kind) {
    case InputKind::kRandom:
      s = RandomBytes(n, rng());
      break;
    case InputKind::kWords:
      s = WordText(n, rng);
      break;
    case InputKind::kByteRuns:
      while (s.size() < n) {
        s.append(1 + rng() % 300, static_cast<char>(rng() & 0xff));
      }
      s.resize(n);
      break;
    case InputKind::kTwoLetters:
      s.resize(n);
      for (char& c : s) c = rng() % 2 == 0 ? 'a' : 'b';
      break;
    case InputKind::kNoisyWords:
      s = WordText(n, rng);
      for (char& c : s) {
        if (rng() % 16 == 0) c = static_cast<char>(rng() & 0xff);
      }
      break;
  }
  return s;
}

// `scratch` is reused across calls, as a task reuses its scratch.
void ExpectSameStreamAsOracle(const std::string& raw, CodecScratch* scratch,
                              const std::string& what) {
  std::string expected;
  oracle::Compress(raw, &expected);
  std::string actual = "stale bytes from an earlier call";
  FjlzCompress(raw, scratch, &actual);
  ASSERT_EQ(actual, expected) << what << " size=" << raw.size();
  std::string decompressed;
  ASSERT_TRUE(FjlzDecompress(actual, raw.size(), &decompressed).ok()) << what;
  ASSERT_EQ(decompressed, raw) << what;
}

TEST(FjlzOracleTest, SeededInputsCompressToTheOracleStream) {
  // Thousands of calls through one scratch, so the compressor's reused
  // match table carries entries from call to call (and its generation
  // counter wraps many times over).
  CodecScratch scratch;
  std::mt19937_64 rng(20261017);
  const size_t kLimits[] = {64, 1024, 16 << 10, 70 << 10};
  for (int i = 0; i < 2500; ++i) {
    const auto kind = static_cast<InputKind>(i % 5);
    const size_t n = rng() % (kLimits[rng() % std::size(kLimits)] + 1);
    ExpectSameStreamAsOracle(MakeInput(kind, n, rng), &scratch,
                             "input " + std::to_string(i));
  }
  // Every kind past 64 KiB, where match offsets meet the 65,535 limit.
  for (int k = 0; k < 5; ++k) {
    const size_t n = (66 << 10) + rng() % (4 << 10);
    ExpectSameStreamAsOracle(MakeInput(static_cast<InputKind>(k), n, rng),
                             &scratch, "long input kind " + std::to_string(k));
  }
}

TEST(FjlzOracleTest, MatchOffsetStopsAt65535) {
  // A 64-byte random prefix repeats after a run of 'z' that puts its copy
  // exactly 65,535 (reachable) or 65,536 (too far) bytes later.
  const std::string prefix = RandomBytes(64, 5);
  CodecScratch scratch;
  size_t stream_size[2] = {0, 0};
  for (size_t distance : {size_t{65535}, size_t{65536}}) {
    std::string raw = prefix;
    raw.append(distance - prefix.size(), 'z');
    raw += prefix;
    ExpectSameStreamAsOracle(raw, &scratch,
                             "distance " + std::to_string(distance));
    std::string compressed;
    FjlzCompress(raw, &scratch, &compressed);
    stream_size[distance - 65535] = compressed.size();
  }
  // Only the reachable copy is a back-reference; the far one is literals.
  EXPECT_LT(stream_size[0] + prefix.size() / 2, stream_size[1]);
}

TEST(FjlzOracleTest, EarlierCallsNeverLeakMatches) {
  // Inputs built from one vocabulary share many 4-byte windows, so an
  // entry left in the reused table by an earlier call would point at a
  // plausible match. Cycling through them must still give each input the
  // stream a fresh table gives it.
  std::mt19937_64 rng(99);
  std::vector<std::string> inputs;
  std::vector<std::string> expected;
  for (int i = 0; i < 7; ++i) {
    inputs.push_back(WordText(40 + rng() % 3000, rng));
    expected.emplace_back();
    oracle::Compress(inputs.back(), &expected.back());
  }
  CodecScratch scratch;
  std::string actual;
  for (int call = 0; call < 3000; ++call) {
    const size_t k = (call * 5 + call / 7) % inputs.size();
    FjlzCompress(inputs[k], &scratch, &actual);
    ASSERT_EQ(actual, expected[k]) << "call " << call;
  }
}

TEST(FjlzOracleTest, GenerationWrapForgetsEarlierCalls) {
  // The first call leaves "BCDX" in the match table at position 5. The
  // 254 one-byte calls after it write no slot but advance the 8-bit
  // generation (period 255) back to the first call's value. The last
  // input skips its own "BCDX" at position 5 (inside a match) and probes
  // the one at 16 first, so a slot that survived the wrap would become a
  // back-reference the oracle never makes.
  CodecScratch scratch;
  std::string out;
  FjlzCompress("-----BCDX", &scratch, &out);
  for (int call = 0; call < 254; ++call) FjlzCompress("x", &scratch, &out);
  const std::string last = "ABCDABCDX1234567BCDX";
  std::string expected;
  oracle::Compress(last, &expected);
  FjlzCompress(last, &scratch, &out);
  EXPECT_EQ(out, expected);
}

TEST(FjlzOracleTest, MalformedStreamsFailLikeTheOracle) {
  std::mt19937_64 rng(4242);
  auto expect_same = [](std::string_view stream, size_t raw_size,
                        const std::string& what) {
    std::string expected_out;
    const Status expected = oracle::Decompress(stream, raw_size, &expected_out);
    std::string actual_out = "stale";
    const Status actual = FjlzDecompress(stream, raw_size, &actual_out);
    EXPECT_EQ(actual, expected) << what;
    EXPECT_EQ(actual_out, expected_out) << what;
  };
  for (int k = 0; k < 5; ++k) {
    const std::string raw =
        MakeInput(static_cast<InputKind>(k), 300 + rng() % 700, rng);
    std::string stream;
    oracle::Compress(raw, &stream);
    const std::string what = "kind " + std::to_string(k);
    for (size_t cut = 0; cut <= stream.size(); ++cut) {
      expect_same(std::string_view(stream.data(), cut), raw.size(),
                  what + " cut " + std::to_string(cut));
    }
    for (int flip = 0; flip < 300; ++flip) {
      std::string mutated = stream;
      mutated[rng() % mutated.size()] ^= static_cast<char>(1 + rng() % 255);
      expect_same(mutated, raw.size(), what + " flip " + std::to_string(flip));
    }
    for (size_t wrong : {size_t{0}, size_t{1}, raw.size() - 1, raw.size() + 1,
                         raw.size() * 2, raw.size() + 4096}) {
      expect_same(stream, wrong, what + " raw size " + std::to_string(wrong));
    }
  }
}

TEST(RunBlockTest, RoundTripsThroughBothCodecs) {
  CodecScratch scratch;
  using Pair = std::pair<std::string, uint64_t>;
  std::vector<Pair> pairs;
  for (int i = 0; i < 500; ++i) {
    pairs.emplace_back("token" + std::to_string(i % 37), i);
  }
  for (BlockCodec codec : {BlockCodec::kNone, BlockCodec::kFjlz}) {
    std::string encoded;
    uint64_t logical = 0;
    EncodeRunBlock(codec, pairs, &scratch, &encoded, &logical);
    EXPECT_GT(logical, 0u);
    if (codec == BlockCodec::kFjlz) {
      EXPECT_LT(encoded.size(), logical);
    }
    std::vector<Pair> decoded;
    auto status = DecodeRunBlock(encoded, &scratch, &decoded);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, pairs);
  }
}

TEST(RunBlockTest, EmptyRunRoundTrips) {
  CodecScratch scratch;
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  std::string encoded;
  uint64_t logical = 0;
  EncodeRunBlock(BlockCodec::kFjlz, pairs, &scratch, &encoded, &logical);
  EXPECT_EQ(logical, 0u);
  std::vector<std::pair<uint64_t, uint64_t>> decoded{{1, 2}};
  ASSERT_TRUE(DecodeRunBlock(encoded, &scratch, &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(RunBlockTest, EveryTruncationPrefixIsStatusNotUB) {
  CodecScratch scratch;
  std::vector<std::pair<std::string, uint64_t>> pairs{
      {"alpha", 1}, {"beta", 2}, {"gamma", 3}};
  for (BlockCodec codec : {BlockCodec::kNone, BlockCodec::kFjlz}) {
    std::string encoded;
    uint64_t logical = 0;
    EncodeRunBlock(codec, pairs, &scratch, &encoded, &logical);
    for (size_t cut = 0; cut < encoded.size(); ++cut) {
      std::vector<std::pair<std::string, uint64_t>> decoded;
      EXPECT_FALSE(DecodeRunBlock(std::string_view(encoded.data(), cut),
                                  &scratch, &decoded)
                       .ok())
          << "codec=" << BlockCodecName(codec) << " cut=" << cut;
    }
  }
}

TEST(RunBlockTest, RecordCountBeyondHalfThePayloadRejected) {
  CodecScratch scratch;
  // Five (0, 0) pairs: two bytes each, so ten payload bytes hold at most
  // five records. A header claiming six is corrupt before any decoding.
  std::vector<std::pair<uint64_t, uint64_t>> pairs(5, {0, 0});
  std::string payload;
  for (const auto& pair : pairs) {
    EncodeContent(pair.first, &payload);
    EncodeContent(pair.second, &payload);
  }
  ASSERT_EQ(payload.size(), 10u);
  std::vector<std::pair<uint64_t, uint64_t>> decoded;
  std::string block;
  EncodeBlock(BlockCodec::kNone, 5, payload, &scratch, &block);
  ASSERT_TRUE(DecodeRunBlock(block, &scratch, &decoded).ok());
  EXPECT_EQ(decoded, pairs);
  EncodeBlock(BlockCodec::kNone, 6, payload, &scratch, &block);
  const Status status = DecodeRunBlock(block, &scratch, &decoded);
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(status.message(), "run block record count exceeds payload");
}

TEST(RunBlockTest, UnknownCodecByteRejected) {
  CodecScratch scratch;
  std::vector<std::pair<uint64_t, uint64_t>> pairs{{1, 2}};
  std::string encoded;
  uint64_t logical = 0;
  EncodeRunBlock(BlockCodec::kNone, pairs, &scratch, &encoded, &logical);
  encoded[0] = '\x7e';
  std::vector<std::pair<uint64_t, uint64_t>> decoded;
  EXPECT_FALSE(DecodeRunBlock(encoded, &scratch, &decoded).ok());
}

TEST(RunBlockTest, IncompressiblePayloadFallsBackToStored) {
  CodecScratch scratch;
  std::vector<std::pair<std::string, uint64_t>> pairs;
  std::mt19937_64 rng(99);
  for (int i = 0; i < 50; ++i) pairs.emplace_back(RandomBytes(64, rng()), i);
  std::string encoded;
  uint64_t logical = 0;
  EncodeRunBlock(BlockCodec::kFjlz, pairs, &scratch, &encoded, &logical);
  // Framing overhead only — incompressible data must not blow up.
  EXPECT_LE(encoded.size(), logical + 2 * kMaxVarintBytes + 1);
  std::vector<std::pair<std::string, uint64_t>> decoded;
  ASSERT_TRUE(DecodeRunBlock(encoded, &scratch, &decoded).ok());
  EXPECT_EQ(decoded, pairs);
}

TEST(RecordFormatTest, NamesAndParsersAgree) {
  RecordFormat format = RecordFormat::kText;
  EXPECT_TRUE(ParseRecordFormat("binary", &format));
  EXPECT_EQ(format, RecordFormat::kBinary);
  EXPECT_TRUE(ParseRecordFormat("text", &format));
  EXPECT_EQ(format, RecordFormat::kText);
  EXPECT_FALSE(ParseRecordFormat("avro", &format));
  BlockCodec codec = BlockCodec::kNone;
  EXPECT_TRUE(ParseBlockCodec("fjlz", &codec));
  EXPECT_EQ(codec, BlockCodec::kFjlz);
  EXPECT_TRUE(ParseBlockCodec("none", &codec));
  EXPECT_FALSE(ParseBlockCodec("zstd", &codec));
  EXPECT_STREQ(RecordFormatName(RecordFormat::kBinary), "binary");
  EXPECT_STREQ(BlockCodecName(BlockCodec::kFjlz), "fjlz");
}

// --- end to end: a binary job matches the text job byte for byte ---------

using K = std::string;
using V = uint64_t;

JobSpec<K, V> WordCountSpec(const std::string& in, const std::string& out) {
  JobSpec<K, V> spec;
  spec.name = "format-wordcount";
  spec.input_files = {in};
  spec.output_file = out;
  spec.num_map_tasks = 4;
  spec.num_reduce_tasks = 3;
  spec.sort_buffer_bytes = 256;  // force real spills through the codec
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

TEST(RecordFormatTest, BinaryJobOutputIsByteIdenticalToText) {
  Dfs dfs;
  std::vector<std::string> lines;
  for (int i = 0; i < 300; ++i) {
    lines.push_back("w" + std::to_string(i % 31) + " w" +
                    std::to_string(i % 11) + " w" + std::to_string(i % 5));
  }
  ASSERT_TRUE(dfs.WriteFile("in", std::move(lines)).ok());

  auto RunWith = [&](const std::string& out, RecordFormat format,
                     BlockCodec codec) {
    auto spec = WordCountSpec("in", out);
    spec.record_format = format;
    spec.block_codec = codec;
    Job<K, V> job(&dfs, std::move(spec));
    auto metrics = job.Run();
    EXPECT_TRUE(metrics.ok()) << metrics.status().ToString();
    return *metrics;
  };

  auto text = RunWith("out_text", RecordFormat::kText, BlockCodec::kNone);
  auto binary = RunWith("out_bin", RecordFormat::kBinary, BlockCodec::kNone);
  auto packed = RunWith("out_fjlz", RecordFormat::kBinary, BlockCodec::kFjlz);

  auto text_out = dfs.ReadFile("out_text");
  auto bin_out = dfs.ReadFile("out_bin");
  auto packed_out = dfs.ReadFile("out_fjlz");
  ASSERT_TRUE(text_out.ok() && bin_out.ok() && packed_out.ok());
  EXPECT_EQ(*text_out.value(), *bin_out.value());
  EXPECT_EQ(*text_out.value(), *packed_out.value());

  // Text meters estimates and never exercises the codec.
  EXPECT_EQ(text.codec_logical_bytes, 0u);
  EXPECT_EQ(text.codec_encoded_bytes, 0u);
  // Binary meters real encoded bytes across spill + reduce boundaries.
  EXPECT_GT(binary.codec_logical_bytes, 0u);
  EXPECT_GT(binary.codec_encoded_bytes, 0u);
  EXPECT_GT(binary.spill_count, 0u);
  // fjlz must shrink this highly repetitive shuffle.
  EXPECT_LT(packed.codec_encoded_bytes, packed.codec_logical_bytes);
  EXPECT_LT(packed.spilled_bytes, binary.spilled_bytes);
}

TEST(RecordFormatTest, CorruptedEncodedBlockIsDetectedAndRetried) {
  Dfs dfs;
  std::vector<std::string> lines;
  for (int i = 0; i < 100; ++i) {
    lines.push_back("a" + std::to_string(i % 13) + " b" +
                    std::to_string(i % 7));
  }
  ASSERT_TRUE(dfs.WriteFile("in", std::move(lines)).ok());

  auto spec = WordCountSpec("in", "out");
  spec.record_format = RecordFormat::kBinary;
  spec.block_codec = BlockCodec::kFjlz;
  spec.verify_integrity = true;
  spec.max_task_attempts = 4;
  auto plan = std::make_shared<FaultPlan>();
  plan->seed = 5;
  plan->corrupt_probability = 1.0;  // flip a byte in every eligible attempt
  plan->corrupt_failing_attempts = 2;
  spec.fault_plan = plan;
  Job<K, V> job(&dfs, std::move(spec));
  auto metrics = job.Run();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // The flips hit *encoded* (compressed) block bytes; the checksum over
  // those bytes must still catch every one.
  EXPECT_GT(metrics->corruption_detected, 0u);

  Dfs clean_dfs;
  std::vector<std::string> clean_lines;
  for (int i = 0; i < 100; ++i) {
    clean_lines.push_back("a" + std::to_string(i % 13) + " b" +
                          std::to_string(i % 7));
  }
  ASSERT_TRUE(clean_dfs.WriteFile("in", std::move(clean_lines)).ok());
  auto clean_spec = WordCountSpec("in", "out");
  clean_spec.record_format = RecordFormat::kBinary;
  clean_spec.block_codec = BlockCodec::kFjlz;
  Job<K, V> clean_job(&clean_dfs, std::move(clean_spec));
  ASSERT_TRUE(clean_job.Run().ok());
  auto faulted = dfs.ReadFile("out");
  auto clean = clean_dfs.ReadFile("out");
  ASSERT_TRUE(faulted.ok() && clean.ok());
  EXPECT_EQ(*faulted.value(), *clean.value());
}

}  // namespace
}  // namespace fj::mr
