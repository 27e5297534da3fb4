// Unit + property tests for the wire codec: primitives, message round-trips,
// and defensive decoding of malformed inputs.

#include <gtest/gtest.h>

#include "dsm/codec/codec.h"
#include "dsm/codec/message.h"
#include "dsm/common/rng.h"
#include "dsm/objects/opcodes.h"

namespace dsm {
namespace {

// ------------------------------------------------------------ primitives --

TEST(Codec, VarintSmallValuesAreOneByte) {
  ByteWriter w;
  w.u64(0);
  w.u64(127);
  EXPECT_EQ(w.size(), 2u);
}

TEST(Codec, VarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {0,    1,    127,  128,   16383, 16384,
                                 1u << 20, ~std::uint64_t{0} >> 1, ~std::uint64_t{0}};
  ByteWriter w;
  for (const auto v : cases) w.u64(v);
  ByteReader r{w.buffer()};
  for (const auto v : cases) {
    const auto decoded = r.u64();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, ZigZagRoundTrip) {
  const std::int64_t cases[] = {0, -1, 1, -2, 2, INT64_MIN, INT64_MAX, -123456789};
  for (const auto v : cases) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
  }
  // Small magnitudes map to small codes (the point of zig-zag).
  EXPECT_LE(zigzag_encode(-1), 2u);
  EXPECT_LE(zigzag_encode(1), 2u);
}

TEST(Codec, I64RoundTrip) {
  ByteWriter w;
  w.i64(-42);
  w.i64(INT64_MIN);
  ByteReader r{w.buffer()};
  EXPECT_EQ(r.i64().value(), -42);
  EXPECT_EQ(r.i64().value(), INT64_MIN);
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, StringRoundTrip) {
  ByteWriter w;
  w.str("");
  w.str("hello, \"world\"\n");
  ByteReader r{w.buffer()};
  EXPECT_EQ(r.str().value(), "");
  EXPECT_EQ(r.str().value(), "hello, \"world\"\n");
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, U64VecRoundTrip) {
  ByteWriter w;
  w.u64_vec(std::vector<std::uint64_t>{});
  w.u64_vec(std::vector<std::uint64_t>{1, 0, 99999999999ULL});
  ByteReader r{w.buffer()};
  EXPECT_TRUE(r.u64_vec().value().empty());
  EXPECT_EQ(r.u64_vec().value(), (std::vector<std::uint64_t>{1, 0, 99999999999ULL}));
  EXPECT_TRUE(r.exhausted());
}

TEST(Codec, TruncatedInputFailsCleanly) {
  ByteWriter w;
  w.u64(1u << 30);
  auto bytes = w.buffer();
  bytes.pop_back();
  ByteReader r{bytes};
  EXPECT_FALSE(r.u64().has_value());
  EXPECT_FALSE(r.ok());
  // Subsequent reads keep failing; no UB, no partial state.
  EXPECT_FALSE(r.u8().has_value());
}

TEST(Codec, StringLengthBeyondBufferFails) {
  ByteWriter w;
  w.u64(1000);  // claims a 1000-byte string
  w.u8('x');
  ByteReader r{w.buffer()};
  EXPECT_FALSE(r.str().has_value());
}

TEST(Codec, OverlongVarintRejected) {
  // 11 continuation bytes is not a canonical varint.
  const std::vector<std::uint8_t> bytes(11, 0x80);
  ByteReader r{bytes};
  EXPECT_FALSE(r.u64().has_value());
}

TEST(Codec, U32RejectsOutOfRange) {
  ByteWriter w;
  w.u64(1ULL << 40);
  ByteReader r{w.buffer()};
  EXPECT_FALSE(r.u32().has_value());
}

// -------------------------------------------------------------- messages --

WriteUpdate sample_write_update() {
  WriteUpdate m;
  m.sender = 2;
  m.var = 7;
  m.value = -99;
  m.write_seq = 41;
  m.run = 3;
  m.clock = VectorClock{{5, 0, 41, 2}};
  return m;
}

TEST(Message, WriteUpdateRoundTrip) {
  const WriteUpdate original = sample_write_update();
  const auto bytes = encode_message(Message{original});
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* m = std::get_if<WriteUpdate>(&*decoded);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(*m, original);
}

TEST(Message, TokenGrantRoundTrip) {
  const TokenGrant original{12345, 4};
  const auto bytes = encode_message(Message{original});
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TokenGrant>(*decoded), original);
}

TEST(Message, BatchUpdateRoundTrip) {
  BatchUpdate original;
  original.sender = 1;
  original.round = 9;
  original.entries = {{0, 10, 3, 2}, {5, -7, 4, 0}};
  const auto bytes = encode_message(Message{original});
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<BatchUpdate>(*decoded), original);
}

TEST(Message, EmptyBatchRoundTrip) {
  BatchUpdate original;
  original.sender = 0;
  original.round = 0;
  const auto bytes = encode_message(Message{original});
  const auto decoded = decode_message(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<BatchUpdate>(*decoded).entries.empty());
}

TEST(Message, UnknownTagRejected) {
  std::vector<std::uint8_t> bytes = {0x7F, 0x00};
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Message, EmptyBufferRejected) {
  EXPECT_FALSE(decode_message(std::vector<std::uint8_t>{}).has_value());
}

TEST(Message, TrailingGarbageRejected) {
  auto bytes = encode_message(Message{sample_write_update()});
  bytes.push_back(0x00);
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Message, TruncationAnywhereRejected) {
  const auto bytes = encode_message(Message{sample_write_update()});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> prefix(bytes.begin(),
                                           bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(decode_message(prefix).has_value()) << "cut=" << cut;
  }
}

// ------------------------------------------------ typed-object trailer --
// The (spec, opcode, arg2) trailer rides behind flag bit 1 of the WriteUpdate
// flags byte (codec/message.cpp).  Register frames must stay byte-identical
// to the pre-typed encoding; anything else must round-trip or reject cleanly.

WriteUpdate sample_typed_update(SpecId spec, OpCode opcode, Value arg2 = 0) {
  WriteUpdate m = sample_write_update();
  m.spec = static_cast<std::uint8_t>(spec);
  m.opcode = static_cast<std::uint8_t>(opcode);
  m.arg2 = arg2;
  return m;
}

TEST(Message, TypedWriteUpdateRoundTripsEveryMutationOpcode) {
  const struct {
    SpecId spec;
    OpCode opcode;
    Value arg2;
  } cases[] = {
      {SpecId::kCounter, OpCode::kInc, 0},
      {SpecId::kCounter, OpCode::kDec, 0},
      {SpecId::kCasRegister, OpCode::kWrite, 0},
      {SpecId::kCasRegister, OpCode::kCas, 99},
      {SpecId::kCasRegister, OpCode::kCas, -99},
      {SpecId::kLog, OpCode::kAppend, 0},
      {SpecId::kSet, OpCode::kAdd, 0},
      {SpecId::kSet, OpCode::kRemove, 0},
      // Degenerate-but-flagged shapes: any nonzero field forces the trailer.
      {SpecId::kRegister, OpCode::kWrite, 7},
  };
  for (const auto& c : cases) {
    const WriteUpdate original = sample_typed_update(c.spec, c.opcode, c.arg2);
    const auto decoded = decode_message(encode_message(Message{original}));
    ASSERT_TRUE(decoded.has_value()) << to_string(c.spec);
    EXPECT_EQ(std::get<WriteUpdate>(*decoded), original) << to_string(c.spec);
  }
}

TEST(Message, RegisterFrameIsByteIdenticalToPreTypedEncoding) {
  // A plain register write (spec 0, opcode 0, arg2 0) must ship with the
  // typed flag clear and no trailer — the wire format promise that lets old
  // and new builds interoperate on register-only workloads.
  const WriteUpdate plain = sample_write_update();
  const auto plain_bytes = encode_message(Message{plain});
  const auto typed_bytes = encode_message(
      Message{sample_typed_update(SpecId::kCounter, OpCode::kInc, 1)});
  // The typed frame differs (flag bit + u8 spec + u8 opcode + 1-byte arg2)...
  EXPECT_EQ(typed_bytes.size(), plain_bytes.size() + 3);
  // ...and zeroing the typed fields restores the original bytes exactly.
  WriteUpdate rezeroed = sample_typed_update(SpecId::kCounter, OpCode::kInc, 1);
  rezeroed.spec = 0;
  rezeroed.opcode = 0;
  rezeroed.arg2 = 0;
  EXPECT_EQ(encode_message(Message{rezeroed}), plain_bytes);
}

TEST(Message, TypedTrailerRejectsAccessorOpcodes) {
  // Only mutations travel as WriteUpdates; an accessor opcode in the trailer
  // is a protocol violation the decoder must refuse.
  for (const auto op :
       {OpCode::kRead, OpCode::kGet, OpCode::kScan, OpCode::kContains}) {
    const auto bytes =
        encode_message(Message{sample_typed_update(SpecId::kSet, op)});
    EXPECT_FALSE(decode_message(bytes).has_value()) << to_string(op);
  }
}

TEST(Message, TypedTrailerRejectsUnknownSpecAndOpcode) {
  WriteUpdate m = sample_write_update();
  m.spec = 7;  // beyond kSpecCount
  m.opcode = static_cast<std::uint8_t>(OpCode::kAdd);
  EXPECT_FALSE(decode_message(encode_message(Message{m})).has_value());
  m.spec = static_cast<std::uint8_t>(SpecId::kSet);
  m.opcode = 23;  // beyond kOpCodeCount
  EXPECT_FALSE(decode_message(encode_message(Message{m})).has_value());
}

TEST(Message, AllZeroTrailerWithTypedFlagRejected) {
  // The degenerate register triple must ship flag-less (byte-identity); a
  // frame carrying the flag with a zero trailer is malformed by fiat.
  // Craft one by zeroing the 3 trailer bytes of a valid typed frame (arg2=1
  // zig-zags to a single byte, so the trailer is exactly the last 3 bytes).
  auto bytes = encode_message(
      Message{sample_typed_update(SpecId::kCounter, OpCode::kInc, 1)});
  const auto plain = encode_message(Message{sample_write_update()});
  ASSERT_EQ(bytes.size(), plain.size() + 3);
  bytes[bytes.size() - 3] = 0;
  bytes[bytes.size() - 2] = 0;
  bytes[bytes.size() - 1] = 0;
  EXPECT_FALSE(decode_message(bytes).has_value());
}

TEST(Message, UnknownFlagBitsRejected) {
  // A typed frame is the plain frame with the typed flag bit set and a
  // trailer appended, so the flags byte is the one byte of the common prefix
  // that differs.  Bit 0 (once a per-copy marker) and bit 2 are reserved: a
  // frame carrying either must be refused rather than ignored.
  const auto plain = encode_message(Message{sample_write_update()});
  const auto typed = encode_message(
      Message{sample_typed_update(SpecId::kCounter, OpCode::kInc, 1)});
  ASSERT_GT(typed.size(), plain.size());
  std::size_t flags_at = plain.size();
  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (plain[i] != typed[i]) {
      ASSERT_EQ(flags_at, plain.size()) << "more than one differing byte";
      flags_at = i;
    }
  }
  ASSERT_LT(flags_at, plain.size());
  ASSERT_EQ(plain[flags_at], 0);
  for (const std::uint8_t reserved : {std::uint8_t{1}, std::uint8_t{4}}) {
    auto bytes = plain;
    bytes[flags_at] = reserved;
    EXPECT_FALSE(decode_message(bytes).has_value())
        << "bit " << (reserved == 1 ? 0 : 2);
  }
}

// -------------------------- property sweep: random message round-trips -----

class MessageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzz, RandomWriteUpdatesRoundTrip) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 500; ++iter) {
    WriteUpdate m;
    m.sender = static_cast<ProcessId>(rng.below(64));
    m.var = static_cast<VarId>(rng.below(1024));
    m.value = rng.between(INT64_MIN, INT64_MAX);
    m.write_seq = rng.below(1'000'000) + 1;
    m.run = rng.below(8);
    std::vector<std::uint64_t> clock(rng.below(16) + 1);
    for (auto& c : clock) c = rng.below(1'000'000);
    m.clock = VectorClock{std::move(clock)};
    if (rng.below(2) == 0) {
      // Half the population carries a valid typed trailer: a random spec and
      // a random MUTATING opcode (the decoder rejects accessors by design).
      constexpr OpCode kMutations[] = {OpCode::kWrite,  OpCode::kInc,
                                       OpCode::kDec,    OpCode::kCas,
                                       OpCode::kAppend, OpCode::kAdd,
                                       OpCode::kRemove};
      m.spec = static_cast<std::uint8_t>(rng.below(kSpecCount));
      m.opcode = static_cast<std::uint8_t>(
          kMutations[rng.below(std::size(kMutations))]);
      m.arg2 = rng.between(INT64_MIN, INT64_MAX);
    }

    const auto bytes = encode_message(Message{m});
    const auto decoded = decode_message(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(std::get<WriteUpdate>(*decoded), m);
  }
}

TEST_P(MessageFuzz, RandomByteBlobsNeverCrashDecoder) {
  Rng rng(GetParam() ^ 0xF00D);
  for (int iter = 0; iter < 2'000; ++iter) {
    std::vector<std::uint8_t> blob(rng.below(64));
    for (auto& b : blob) b = static_cast<std::uint8_t>(rng.below(256));
    // Must either decode to something or return nullopt — never crash.
    (void)decode_message(blob);
  }
}

// Corruption fuzz: start from VALID encodings of every message shape and
// mutate them — bit flips, truncations, junk extensions, and splices of two
// encodings.  Unlike pure random blobs, mutated-valid inputs exercise the
// deep decode paths (correct tags, plausible varints, container lengths just
// past their guards).  Contract: never crash, and anything the decoder does
// accept must re-encode into bytes the decoder accepts again (no
// internally-inconsistent messages escape).
std::vector<std::vector<std::uint8_t>> sample_encodings() {
  std::vector<std::vector<std::uint8_t>> out;
  out.push_back(encode_message(Message{sample_write_update()}));
  out.push_back(encode_message(
      Message{sample_typed_update(SpecId::kCasRegister, OpCode::kCas, -7)}));
  out.push_back(encode_message(Message{TokenGrant{12345, 4}}));
  BatchUpdate batch;
  batch.sender = 1;
  batch.round = 9;
  batch.entries = {{0, 10, 3, 2}, {5, -7, 4, 0}, {1, 1, 1, 1}};
  out.push_back(encode_message(Message{batch}));
  CatchUpRequest req;
  req.requester = 2;
  req.have = VectorClock{{3, 0, 7}};
  out.push_back(encode_message(Message{req}));
  CatchUpReply rep;
  rep.replier = 0;
  rep.have = VectorClock{{9, 9, 9}};
  rep.writes = {sample_write_update(), sample_write_update()};
  out.push_back(encode_message(Message{rep}));
  return out;
}

std::vector<std::uint8_t> mutate(const std::vector<std::vector<std::uint8_t>>& pool,
                                 Rng& rng) {
  auto bytes = pool[rng.below(pool.size())];
  switch (rng.below(4)) {
    case 0:  // flip 1–8 random bits
      for (std::uint64_t i = 0, n = rng.below(8) + 1; i < n; ++i) {
        const auto pos = rng.below(bytes.size());
        bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    case 1:  // truncate to a strict prefix
      bytes.resize(rng.below(bytes.size()));
      break;
    case 2: {  // extend with junk bytes
      const auto extra = rng.below(16) + 1;
      for (std::uint64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.below(256)));
      }
      break;
    }
    default: {  // splice: head of one encoding, tail of another
      const auto& other = pool[rng.below(pool.size())];
      const auto keep = rng.below(bytes.size());
      const auto from = rng.below(other.size());
      bytes.resize(keep);
      bytes.insert(bytes.end(),
                   other.begin() + static_cast<std::ptrdiff_t>(from),
                   other.end());
      break;
    }
  }
  return bytes;
}

TEST_P(MessageFuzz, CorruptedValidEncodingsNeverCrashOrLie) {
  Rng rng(GetParam() ^ 0xC0881017);
  const auto pool = sample_encodings();
  for (int iter = 0; iter < 4'000; ++iter) {
    const auto bytes = mutate(pool, rng);
    const auto decoded = decode_message(bytes);
    if (!decoded) continue;
    // Whatever survived corruption must itself be a well-formed message.
    const auto reencoded = encode_message(*decoded);
    EXPECT_TRUE(decode_message(reencoded).has_value()) << "iter=" << iter;
  }
}

TEST(Message, TruncationAnywhereRejectedAllShapes) {
  for (const auto& bytes : sample_encodings()) {
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const std::vector<std::uint8_t> prefix(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(cut));
      EXPECT_FALSE(decode_message(prefix).has_value()) << "cut=" << cut;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace dsm
