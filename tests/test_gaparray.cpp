// Gap-array decoder (Rivera et al.) and the container-format evolution it
// rides on: overflow fallback, optional-field round-trips,
// backward/forward compatibility (golden PHF2 containers, unknown-tag
// skip), forged metadata rejection, tier selection in decode_auto, and
// mid-decode cancellation. Its equivalence with every other decoder lives in
// test_equivalence.cpp. Suite names carry "Decode" so the CI sanitizer and
// repeat-until-fail jobs pick them up.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/decode_selfsync.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/tree.hpp"
#include "data/datasets.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "data/quant.hpp"
#include "obs/metrics.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "rpc/transport_inmem.hpp"
#include "svc/service.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "container_digest.hpp"
#include "golden_phf2.hpp"

namespace parhuff {
namespace {

using util::Clock;
using util::VirtualClock;

template <typename Sym>
std::vector<u64> hist_of(const std::vector<Sym>& v, std::size_t nbins) {
  std::vector<u64> h(nbins, 0);
  for (Sym s : v) ++h[static_cast<std::size_t>(s)];
  return h;
}

std::span<const u8> bytes_of(const unsigned char* p, std::size_t n) {
  return std::span<const u8>(reinterpret_cast<const u8*>(p), n);
}

// --- Kernel round-trips. -----------------------------------------------------

TEST(GapDecode, FallsBackOnOverflowChunks) {
  const auto input = data::generate_nyx_quant(200000, 7);
  const Codebook cb = build_codebook_serial(hist_of(input, 1024));
  ReduceShuffleStats est;
  auto enc = encode_reduceshuffle_simt<u16>(
      input, cb, ReduceShuffleConfig{10, 6}, nullptr, &est);
  ASSERT_GT(est.breaking_groups, 0u);
  annotate_gaps(enc, cb);
  GapArrayStats st;
  EXPECT_EQ(decode_gaparray<u16>(enc, cb, nullptr, &st), input);
  EXPECT_GT(st.fallback_chunks, 0u);
}

class GapDecodeSubseq : public ::testing::TestWithParam<u32> {};

TEST_P(GapDecodeSubseq, AllSubsequenceSizes) {
  const auto input = data::generate_text(200000, 9);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  auto enc = encode_serial<u8>(input, cb, 2048);
  annotate_gaps(enc, cb, GetParam());
  EXPECT_EQ(decode_gaparray<u8>(enc, cb), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GapDecodeSubseq,
                         ::testing::Values(64u, 128u, 1024u, 4096u, 32768u));

TEST(GapDecode, AnnotationIsIdempotent) {
  const auto input = data::generate_text(50000, 13);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  auto enc = encode_serial<u8>(input, cb, 1024);
  annotate_gaps(enc, cb, 512);
  const auto gaps = enc.gaps;
  const auto counts = enc.gap_counts;
  annotate_gaps(enc, cb, 512);
  EXPECT_EQ(enc.gaps, gaps);
  EXPECT_EQ(enc.gap_counts, counts);
  // Re-annotating at another granularity replaces, not appends.
  annotate_gaps(enc, cb, 2048);
  EXPECT_EQ(enc.gap_subseq_bits, 2048u);
  EXPECT_LT(enc.gaps.size(), gaps.size());
  EXPECT_EQ(decode_gaparray<u8>(enc, cb), input);
}

TEST(GapDecode, RejectsStreamsWithoutMetadata) {
  const auto input = data::generate_text(10000, 15);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  const auto enc = encode_serial<u8>(input, cb, 1024);
  EXPECT_THROW((void)decode_gaparray<u8>(enc, cb), std::invalid_argument);
}

TEST(GapDecode, RejectsBadSubsequenceSizes) {
  const auto input = data::generate_text(10000, 17);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  auto enc = encode_serial<u8>(input, cb, 1024);
  EXPECT_THROW(annotate_gaps(enc, cb, 16), std::invalid_argument);
  EXPECT_THROW(annotate_gaps(enc, cb, 65536), std::invalid_argument);
  // Long codes: S must exceed twice the longest codeword.
  const auto freq = data::exponential_histogram(40, 2.0, 1);
  const Codebook deep = build_codebook_serial(freq);  // max_len > 32
  EXPECT_THROW(annotate_gaps(enc, deep, 64), std::invalid_argument);
}

TEST(GapDecode, ForgedInMemoryMetadataFailsTyped) {
  // The container parser rejects most of these shapes first; a caller's
  // in-memory stream reaches the decoder's own checks.
  const auto input = data::generate_text(20000, 19);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  EncodedStream enc = encode_serial<u8>(input, cb, 4096);
  annotate_gaps(enc, cb);
  ASSERT_GE(enc.gap_subsequences(0), 2u);
  ASSERT_EQ(decode_gaparray<u8>(enc, cb), input);
  const auto fails_with = [&](const char* what, auto&& forge) {
    EncodedStream s = enc;
    forge(s);
    try {
      (void)decode_gaparray<u8>(s, cb);
      ADD_FAILURE() << "decoded despite: " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::strstr(e.what(), what), nullptr) << e.what();
    }
  };
  fails_with("invalid subsequence size",
             [](EncodedStream& s) { s.gap_subseq_bits = 32; });
  fails_with("metadata size mismatch", [](EncodedStream& s) {
    s.gaps.pop_back();
    s.gap_counts.pop_back();
  });
  fails_with("count on codeword-free subsequence",
             [](EncodedStream& s) { s.gaps[1] = EncodedStream::kNoGap; });
  fails_with("corrupt gap entry", [&](EncodedStream& s) {
    s.gaps[1] = static_cast<u8>(cb.max_len);
  });
  fails_with("symbol count mismatch",
             [](EncodedStream& s) { ++s.gap_counts[1]; });

  // Annotation decodes the stream itself: a chunk whose recorded length
  // overstates its codewords fails there.
  EncodedStream longer = encode_serial<u8>(input, cb, 4096);
  longer.chunk_bits[0] += 1;
  try {
    annotate_gaps(longer, cb);
    ADD_FAILURE() << "annotated a chunk of the wrong length";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::strstr(e.what(), "chunk bit length mismatch"), nullptr)
        << e.what();
  }
}

TEST(GapDecode, EmptyAndTinyInputs) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  EncodedStream empty;
  empty.chunk_symbols = 1024;
  annotate_gaps(empty, cb);
  EXPECT_TRUE(decode_gaparray<u8>(empty, cb).empty());

  const std::vector<u8> tiny = {0, 1, 1, 0, 1};
  auto enc = encode_serial<u8>(tiny, cb, 1024);
  annotate_gaps(enc, cb);
  EXPECT_EQ(decode_gaparray<u8>(enc, cb), tiny);
}

TEST(GapDecode, FlippedPayloadBitsDetected) {
  // With encoder-recorded boundaries every subsequence must chain exactly
  // into its successor; a flipped payload bit either desynchronizes the
  // walk (chain check) or corrupts a codeword (decode throw). Unlike the
  // self-sync decoder there is no re-synchronization to hide behind, so
  // detection is the norm.
  const auto input = data::generate_text(100000, 11);
  const Codebook cb = build_codebook_serial(hist_of(input, 256));
  auto enc = encode_serial<u8>(input, cb, 4096);
  annotate_gaps(enc, cb);
  Xoshiro256 rng(5);
  int detected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    auto broken = enc;
    broken.payload[rng.below(broken.payload.size())] ^=
        word_t{1} << rng.below(32);
    try {
      const auto got = decode_gaparray<u8>(broken, cb);
      EXPECT_EQ(got.size(), input.size());
    } catch (const std::exception&) {
      ++detected;
    }
  }
  EXPECT_GT(detected, 0);
}

// --- Container-format evolution. ---------------------------------------------

PipelineConfig gap_config(std::size_t nbins = 256) {
  PipelineConfig cfg;
  cfg.nbins = nbins;
  cfg.gap_subseq_bits = 1024;
  return cfg;
}

/// Offset of the optional-field region (the n_fields u32) in a serialized
/// container: magic + sym width + the two sections.
template <typename Sym>
std::size_t field_region_at(const Compressed<Sym>& blob) {
  ByteWriter w;
  write_codebook(w, blob.codebook);
  write_stream(w, blob.stream);
  return 5 + w.size();
}

TEST(GapDecodeFormat, Phf4RoundTrip) {
  const auto input = data::generate_text(120000, 21);
  const auto blob = compress<u8>(input, gap_config());
  ASSERT_TRUE(blob.stream.has_gaps());
  const auto bytes = serialize(blob);
  ASSERT_GE(bytes.size(), 4u);
  EXPECT_EQ(std::memcmp(bytes.data(), "PHF4", 4), 0);
  const auto back = deserialize<u8>(bytes);
  EXPECT_EQ(back.stream.gap_subseq_bits, blob.stream.gap_subseq_bits);
  EXPECT_EQ(back.stream.gaps, blob.stream.gaps);
  EXPECT_EQ(back.stream.gap_counts, blob.stream.gap_counts);
  EXPECT_EQ(decompress(back), input);
}

TEST(GapDecodeFormat, Phf4WrittenWithAnEmptyFieldRegion) {
  // One layout: a stream with no optional metadata still gets the region,
  // holding n_fields = 0 and nothing else.
  const auto input = data::generate_text(120000, 21);
  PipelineConfig cfg;
  const auto blob = compress<u8>(input, cfg);
  const auto bytes = serialize(blob);
  EXPECT_EQ(std::memcmp(bytes.data(), "PHF4", 4), 0);
  ASSERT_EQ(bytes.size(), field_region_at(blob) + 4);
  u32 n_fields = 1;
  std::memcpy(&n_fields, bytes.data() + field_region_at(blob), 4);
  EXPECT_EQ(n_fields, 0u);
  EXPECT_EQ(decompress(deserialize<u8>(bytes)), input);
}

/// A frozen PHF2 container written again: PHF4 differs from it only in the
/// magic, the stream digest and the 4-byte empty field region.
void expect_rewritten_as_phf4(std::span<const u8> phf2,
                              const std::vector<u8>& phf4) {
  ASSERT_EQ(std::memcmp(phf4.data(), "PHF4", 4), 0);
  ASSERT_EQ(phf4.size(), phf2.size() + 4);
  EXPECT_TRUE(std::equal(phf2.begin() + 4, phf2.end() - 8, phf4.begin() + 4));
  u32 n_fields = 1;
  std::memcpy(&n_fields, phf4.data() + phf2.size(), 4);
  EXPECT_EQ(n_fields, 0u);
}

TEST(GapDecodeFormat, GoldenPhf2U8StillDecodesBitExactly) {
  const auto bytes = bytes_of(testdata::kGoldenPhf2U8,
                              sizeof(testdata::kGoldenPhf2U8));
  const auto blob = deserialize<u8>(bytes);
  EXPECT_FALSE(blob.stream.has_gaps());
  const std::vector<u8> expect(
      testdata::kGoldenPhf2U8Input,
      testdata::kGoldenPhf2U8Input + sizeof(testdata::kGoldenPhf2U8Input));
  EXPECT_EQ(decompress(blob), expect);
  expect_rewritten_as_phf4(bytes, serialize(blob));
}

TEST(GapDecodeFormat, GoldenPhf2U16WithOverflowStillDecodesBitExactly) {
  const auto bytes = bytes_of(testdata::kGoldenPhf2U16,
                              sizeof(testdata::kGoldenPhf2U16));
  const auto blob = deserialize<u16>(bytes);
  ASSERT_FALSE(blob.stream.overflow.empty());
  std::vector<u16> expect(sizeof(testdata::kGoldenPhf2U16InputLE) / 2);
  std::memcpy(expect.data(), testdata::kGoldenPhf2U16InputLE,
              sizeof(testdata::kGoldenPhf2U16InputLE));
  EXPECT_EQ(decompress(blob), expect);
  expect_rewritten_as_phf4(bytes, serialize(blob));
}

TEST(GapDecodeFormat, AnnotatedStreamDecodesIdenticallyToPlain) {
  // Gap metadata must never change WHAT decodes — only how fast.
  const auto input = data::generate_nyx_quant(150000, 23);
  PipelineConfig plain;
  plain.nbins = 1024;
  auto cfg = gap_config(1024);
  const auto a = compress<u16>(input, plain);
  const auto b = compress<u16>(input, cfg);
  EXPECT_EQ(a.stream.payload, b.stream.payload);
  EXPECT_EQ(decompress(a), decompress(b));
}

/// Append an optional field (tag | len | payload | digest) and bump
/// n_fields in place; the digest is the one the container's magic names.
template <typename Sym>
std::vector<u8> with_extra_field(std::vector<u8> bytes,
                                 const Compressed<Sym>& blob, u32 tag,
                                 std::span<const u8> payload) {
  const std::size_t region = field_region_at(blob);
  u32 n_fields = 0;
  std::memcpy(&n_fields, bytes.data() + region, 4);
  ++n_fields;
  std::memcpy(bytes.data() + region, &n_fields, 4);
  const std::size_t at = bytes.size();
  bytes.resize(at + 4 + 8 + payload.size() + 8);
  std::memcpy(bytes.data() + at, &tag, 4);
  const u64 len = payload.size();
  std::memcpy(bytes.data() + at + 4, &len, 8);
  if (!payload.empty()) {
    std::memcpy(bytes.data() + at + 12, payload.data(), payload.size());
  }
  const u64 digest = digest_for(bytes, payload);
  std::memcpy(bytes.data() + at + 12 + payload.size(), &digest, 8);
  return bytes;
}

TEST(GapDecodeFormat, UnknownOptionalFieldIsSkipped) {
  const auto input = data::generate_text(60000, 25);
  const auto blob = compress<u8>(input, gap_config());
  auto bytes = serialize(blob);
  const std::vector<u8> junk = {1, 2, 3, 4, 5};
  bytes = with_extra_field(std::move(bytes), blob, 0x5A5A5A5Au, junk);
  const auto back = deserialize<u8>(bytes);
  EXPECT_TRUE(back.stream.has_gaps());  // GAP1 still parsed
  EXPECT_EQ(decompress(back), input);
}

TEST(GapDecodeFormat, StreamWithOnlyUnknownFieldsFallsBackToOlderTiers) {
  // Forward compatibility in action: a container whose only field is
  // one this reader does not understand deserializes to a gap-free stream
  // that decodes through self-sync / host exactly like an old container —
  // the documented fallback-to-self-sync semantics.
  const auto input = data::generate_text(60000, 27);
  const auto blob = compress<u8>(input, gap_config());
  auto bytes = serialize(blob);
  // Overwrite the GAP1 tag with an unknown one (the field checksum covers
  // only the payload, so the container stays valid).
  const u32 unknown = 0x30585858u;  // "XXX0"
  std::memcpy(bytes.data() + field_region_at(blob) + 4, &unknown, 4);
  const auto back = deserialize<u8>(bytes);
  EXPECT_FALSE(back.stream.has_gaps());
  EXPECT_THROW((void)decode_gaparray<u8>(back.stream, back.codebook),
               std::invalid_argument);
  EXPECT_EQ(decode_selfsync<u8>(back.stream, back.codebook, {}), input);
  EXPECT_EQ(decompress(back), input);  // decode_auto falls back
}

// --- Forged / corrupted metadata. --------------------------------------------

class GapDecodeForged : public ::testing::Test {
 protected:
  void SetUp() override {
    input_ = data::generate_text(80000, 31);
    blob_ = compress<u8>(input_, gap_config());
    bytes_ = serialize(blob_);
    region_ = field_region_at(blob_);
    // Region layout: u32 n_fields | u32 tag | u64 len | payload | u64 sum.
    payload_at_ = region_ + 4 + 4 + 8;
    payload_len_ = static_cast<std::size_t>(
        blob_.stream.gaps.size() + 2 * blob_.stream.gap_counts.size() + 12);
  }

  /// Recompute the GAP1 field checksum after a deliberate payload forge.
  void fix_field_digest(std::vector<u8>& b) const {
    const u64 d = digest_for(
        b, std::span<const u8>(b.data() + payload_at_, payload_len_));
    std::memcpy(b.data() + payload_at_ + payload_len_, &d, 8);
  }

  std::vector<u8> input_;
  Compressed<u8> blob_;
  std::vector<u8> bytes_;
  std::size_t region_ = 0;
  std::size_t payload_at_ = 0;
  std::size_t payload_len_ = 0;
};

TEST_F(GapDecodeForged, BitFlipCaughtByFieldChecksum) {
  auto b = bytes_;
  b[payload_at_ + payload_len_ / 2] ^= 0x40;
  EXPECT_THROW((void)deserialize<u8>(b), std::runtime_error);
}

TEST_F(GapDecodeForged, TruncatedFieldRejected) {
  auto b = bytes_;
  b.resize(b.size() - 9);  // into the field checksum / payload
  EXPECT_THROW((void)deserialize<u8>(b), std::runtime_error);
  auto c = bytes_;
  c.resize(region_ + 2);  // into n_fields itself
  EXPECT_THROW((void)deserialize<u8>(c), std::runtime_error);
}

TEST_F(GapDecodeForged, TrailingGarbageRejected) {
  auto b = bytes_;
  b.insert(b.end(), {0xDE, 0xAD});
  EXPECT_THROW((void)deserialize<u8>(b), std::runtime_error);
}

TEST_F(GapDecodeForged, OutOfRangeSubseqBitsRejected) {
  for (const u32 forged : {0u, 16u, 65536u, 0xFFFFFFFFu}) {
    auto b = bytes_;
    std::memcpy(b.data() + payload_at_, &forged, 4);  // subseq_bits
    fix_field_digest(b);
    // The repaired digest lets the forgery reach the field's parser.
    try {
      (void)deserialize<u8>(b);
      ADD_FAILURE() << "forged subseq_bits " << forged << " parsed";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::strstr(e.what(), "gap subsequence size out of range"),
                nullptr)
          << e.what();
    }
  }
}

TEST_F(GapDecodeForged, EntryCountMismatchRejected) {
  // A valid subseq size whose implied entry count disagrees with the
  // stream geometry must be rejected before the arrays are materialized.
  const u32 forged = 2048;  // metadata arrays still sized for 1024
  auto b = bytes_;
  std::memcpy(b.data() + payload_at_, &forged, 4);
  fix_field_digest(b);
  EXPECT_THROW((void)deserialize<u8>(b), std::runtime_error);
}

TEST_F(GapDecodeForged, ForgedCountsWithValidChecksumCaughtAtDecode) {
  // Move a symbol from one subsequence's count to another: sizes, bounds
  // and checksums all stay valid, so the deserializer accepts it — the
  // kernel's chain/count validation must throw instead of mis-indexing.
  const std::size_t n = blob_.stream.gap_counts.size();
  ASSERT_GE(n, 2u);
  auto b = bytes_;
  const std::size_t counts_at = payload_at_ + 12 + blob_.stream.gaps.size();
  u16 c0 = 0, c1 = 0;
  std::memcpy(&c0, b.data() + counts_at, 2);
  std::memcpy(&c1, b.data() + counts_at + 2, 2);
  ASSERT_GT(c0, 0u);
  --c0;
  ++c1;
  std::memcpy(b.data() + counts_at, &c0, 2);
  std::memcpy(b.data() + counts_at + 2, &c1, 2);
  fix_field_digest(b);
  const auto back = deserialize<u8>(b);  // passes structural validation
  EXPECT_THROW((void)decode_gaparray<u8>(back.stream, back.codebook),
               std::runtime_error);
}

TEST_F(GapDecodeForged, ForgedGapsWithValidChecksumNeverCrash) {
  // Nudge individual gap values while keeping them structurally in range.
  // A shifted start usually fails the chain check; occasionally the
  // Huffman walk re-synchronizes and the chunk decodes to consistent but
  // WRONG symbols — acceptable (same contract as payload bit flips), as
  // long as nothing crashes or reads out of bounds and the checks fire on
  // most forgeries.
  const std::size_t gaps_at = payload_at_ + 12;
  const std::size_t n = blob_.stream.gaps.size();
  ASSERT_GE(n, 8u);
  int detected = 0;
  for (std::size_t i = 1; i < n; i += n / 8) {
    auto b = bytes_;
    b[gaps_at + i] += 1;
    fix_field_digest(b);
    try {
      const auto back = deserialize<u8>(b);
      const auto got = decode_gaparray<u8>(back.stream, back.codebook);
      EXPECT_EQ(got.size(), input_.size());
    } catch (const std::runtime_error&) {
      ++detected;  // parse range check or decode chain check
    }
  }
  EXPECT_GT(detected, 0);
}

TEST_F(GapDecodeForged, DuplicateGapFieldRejected) {
  const auto field = std::vector<u8>(bytes_.begin() + payload_at_,
                                     bytes_.begin() + payload_at_ +
                                         payload_len_);
  const auto b =
      with_extra_field(bytes_, blob_, kContainerFieldGap, field);
  EXPECT_THROW((void)deserialize<u8>(b), std::runtime_error);
}

// --- Tier selection & cancellation. ------------------------------------------

TEST(GapDecodeAuto, SelectsGapArrayWhenMetadataPresent) {
  auto& reg = obs::MetricsRegistry::global();
  const auto input = data::generate_text(100000, 33);
  const auto with = compress<u8>(input, gap_config());
  const auto without = compress<u8>(input, PipelineConfig{});

  const u64 gap0 = reg.counter("decode.gaparray");
  const u64 host0 = reg.counter("decode.host");
  EXPECT_EQ(decode_auto<u8>(with.stream, with.codebook), input);
  EXPECT_EQ(reg.counter("decode.gaparray"), gap0 + 1);
  EXPECT_EQ(reg.counter("decode.host"), host0);
  EXPECT_EQ(decode_auto<u8>(without.stream, without.codebook), input);
  EXPECT_EQ(reg.counter("decode.host"), host0 + 1);
  EXPECT_GE(reg.counter("decode.symbols"), 2 * input.size());
}

// The service's read path routes through decode_auto: a result whose
// stream was annotated (gap_subseq_bits set at compress time) must take
// the gap-array tier with no caller-side opt-in.
TEST(GapDecodeAuto, ServiceDecompressPicksGapArray) {
  auto& reg = obs::MetricsRegistry::global();
  const auto input = data::generate_text(90000, 41);
  auto blob = compress<u8>(input, gap_config());
  svc::CompressResult<u8> r;
  r.codebook = std::make_shared<const Codebook>(blob.codebook);
  r.stream = std::move(blob.stream);
  const u64 gap0 = reg.counter("decode.gaparray");
  EXPECT_EQ(svc::decompress(r), input);
  EXPECT_EQ(reg.counter("decode.gaparray"), gap0 + 1);
}

// End to end over the wire: a client that compressed with gap metadata
// gets the gap-array tier on the server's decompress verb — the GAP1
// field is the only signal, the protocol is unchanged.
TEST(GapDecodeAuto, RpcDecompressPicksGapArray) {
  auto& reg = obs::MetricsRegistry::global();
  rpc::LoopbackHub hub;
  rpc::RpcServer server(hub.listener());
  rpc::RpcClient cli([&] { return hub.connect(); });

  const auto input = data::generate_text(70000, 43);
  const auto blob = compress<u8>(input, gap_config());
  const auto bytes = serialize(blob);
  ASSERT_EQ(std::memcmp(bytes.data(), "PHF4", 4), 0);

  const u64 gap0 = reg.counter("decode.gaparray");
  EXPECT_EQ(cli.decompress(bytes).result.get(), input);
  EXPECT_EQ(reg.counter("decode.gaparray"), gap0 + 1);
}

TEST(GapDecodeCancel, PreCancelledTokenAbortsImmediately) {
  const auto input = data::generate_text(200000, 37);
  const auto blob = compress<u8>(input, gap_config());
  CancelToken tok;
  tok.request();
  EXPECT_THROW((void)decode_gaparray<u8>(blob.stream, blob.codebook, nullptr,
                                         nullptr, &tok),
               OperationCancelled);
}

TEST(GapDecodeCancel, DeadlineExpiresMidDecode) {
  // auto_advance_every(1, 1ms): each token poll advances the virtual clock
  // a millisecond, so a deadline a few "polls" out expires mid-kernel
  // regardless of real wall time.
  const auto input = data::generate_text(1 << 20, 39);
  const auto blob = compress<u8>(input, gap_config());
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(5e-3), vc);
  EXPECT_THROW((void)decode_gaparray<u8>(blob.stream, blob.codebook, nullptr,
                                         nullptr, &tok),
               DeadlineExpired);
}

TEST(GapDecodeCancel, FarDeadlineDecodesBitExactly) {
  const auto input = data::generate_text(300000, 41);
  const auto blob = compress<u8>(input, gap_config());
  VirtualClock vc;
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(3600.0), vc);
  EXPECT_EQ(decode_gaparray<u8>(blob.stream, blob.codebook, nullptr, nullptr,
                                &tok),
            input);
}

TEST(GapDecodeCancel, DeadlineThroughDecodeAuto) {
  const auto input = data::generate_text(1 << 20, 43);
  const auto blob = compress<u8>(input, gap_config());
  VirtualClock vc;
  vc.auto_advance_every(1, Clock::dur(1e-3));
  CancelToken tok;
  tok.arm_deadline(vc.peek() + Clock::dur(5e-3), vc);
  EXPECT_THROW(
      (void)decode_auto<u8>(blob.stream, blob.codebook, 0, &tok),
      DeadlineExpired);
}

}  // namespace
}  // namespace parhuff
