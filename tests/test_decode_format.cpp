// Decoder robustness, random access, and container tamper rejection.
// Container round trips on every encoder's stream live in
// test_equivalence.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/decode.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_serial.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"
#include "golden_phf2.hpp"
#include "golden_phf3.hpp"
#include "golden_phs2.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

TEST(Decode, CorruptStreamThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  // A stream of all-ones longer than any valid code path: 111 decodes to
  // symbol 3, so feed a stream that ends mid-codeword instead.
  std::vector<word_t> words = {0xC0000000u};  // "11" then exhausted
  BitReader br(words, 2);
  u8 out[4];
  EXPECT_THROW(decode_symbols<u8>(br, cb, 1, out), std::runtime_error);
}

TEST(Decode, TruncatedChunkThrows) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 2, 3, 3});
  const std::vector<u8> input = {3, 3, 3, 3};
  EncodedStream enc = encode_serial<u8>(input, cb, 1024);
  enc.chunk_bits[0] -= 2;  // truncate
  EXPECT_THROW((void)decode_stream<u8>(enc, cb, 1), std::runtime_error);
}

TEST(DecodeSimt, EmptyStream) {
  const Codebook cb = canonize_from_lengths(std::vector<u8>{1, 1});
  EncodedStream s;
  s.chunk_symbols = 1024;
  EXPECT_TRUE(decode_simt<u8>(s, cb, nullptr).empty());
}

/// One container of every version the readers accept: the frozen PHF2,
/// PHF3 and PHS2 bytes, and PHF4/PHS3 as written today.
struct VersionRow {
  const char* magic;
  std::vector<u8> bytes;
  const char* relabel;  ///< the magic whose digest function differs

  [[nodiscard]] bool streamed() const { return magic[2] == 'S'; }
  /// The failure message of reading `b` whole with this row's reader
  /// (the streamed-container reader or deserialize), or "" when it decodes.
  [[nodiscard]] std::string failure(const std::vector<u8>& b) const;
};

std::vector<VersionRow> version_rows() {
  const auto frozen = [](const unsigned char* p, std::size_t n) {
    return std::vector<u8>(p, p + n);
  };
  const auto input = data::generate_text(3000, 8);
  PipelineConfig cfg;
  cfg.gap_subseq_bits = 1024;
  StreamingCompressor<u8> sc(cfg);
  sc.observe(input);
  sc.freeze();
  std::vector<u8> phs3 = sc.header();
  const std::vector<u8> frame = sc.encode_segment(input);
  phs3.insert(phs3.end(), frame.begin(), frame.end());
  return {
      {"PHF2",
       frozen(testdata::kGoldenPhf2U8, sizeof(testdata::kGoldenPhf2U8)),
       "PHF4"},
      {"PHF3", frozen(testdata::kGoldenPhf3, sizeof(testdata::kGoldenPhf3)),
       "PHF4"},
      {"PHF4", serialize(compress<u8>(input, cfg)), "PHF3"},
      {"PHS2", frozen(testdata::kGoldenPhs2, sizeof(testdata::kGoldenPhs2)),
       "PHS3"},
      {"PHS3", std::move(phs3), "PHS2"},
  };
}

std::string VersionRow::failure(const std::vector<u8>& b) const {
  try {
    if (streamed()) {
      StreamReader<u8> reader;
      (void)reader.push(b);
      reader.finish();
    } else {
      (void)decompress(deserialize<u8>(b));
    }
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

/// Expects `failure` to name `what`.
void expect_names(const std::string& failure, const char* what) {
  EXPECT_NE(failure.find(what), std::string::npos) << failure;
}

TEST(Format, RejectsBadMagic) {
  for (const VersionRow& row : version_rows()) {
    SCOPED_TRACE(row.magic);
    ASSERT_EQ(std::memcmp(row.bytes.data(), row.magic, 4), 0);
    EXPECT_EQ(is_streamed_container(row.bytes), row.streamed());
    EXPECT_EQ(row.failure(row.bytes), "");
    auto bytes = row.bytes;
    bytes[0] = 'X';
    expect_names(row.failure(bytes),
                 row.streamed() ? "streamed container" : "bad magic");
  }
}

TEST(Format, RejectsTheDigestOfTheOtherVersion) {
  // Relabelled as the version with the other digest function, a container
  // fails at its first digest.
  for (const VersionRow& row : version_rows()) {
    SCOPED_TRACE(row.magic);
    auto bytes = row.bytes;
    std::memcpy(bytes.data(), row.relabel, 4);
    expect_names(row.failure(bytes), "checksum mismatch");
  }

  // Fields follow the magic too: a PHF3 container relabelled PHF4 whose
  // stream digest is repaired with container_digest still fails on its
  // fnv1a field digests.
  const std::vector<u8> phf3(
      testdata::kGoldenPhf3,
      testdata::kGoldenPhf3 + sizeof(testdata::kGoldenPhf3));
  const Compressed<u8> blob = deserialize<u8>(phf3);
  ASSERT_TRUE(blob.stream.has_gaps() && blob.stream.has_rle());
  ByteWriter sections;
  write_codebook(sections, blob.codebook);
  const std::size_t stream_at = 5 + sections.size();
  write_stream(sections, blob.stream);
  const std::size_t digest_at = 5 + sections.size() - 8;
  auto forged = phf3;
  std::memcpy(forged.data(), "PHF4", 4);
  const u64 d = container_digest(
      std::span<const u8>(forged.data() + stream_at, digest_at - stream_at));
  std::memcpy(forged.data() + digest_at, &d, 8);
  try {
    (void)deserialize<u8>(forged);
    ADD_FAILURE() << "fnv1a field digests verified under PHF4";
  } catch (const std::runtime_error& e) {
    expect_names(e.what(), "optional field checksum mismatch");
  }
}

/// Offset in `bytes` of the first 8-byte lane of the PHF4/PHS3 stream
/// section at `stream_at` that lies wholly inside the Huffman payload,
/// with a second payload lane after it; `digest_at` receives the offset
/// of the section's digest.
std::size_t payload_lane(const std::vector<u8>& bytes, std::size_t stream_at,
                         std::size_t& digest_at) {
  ByteReader r(std::span<const u8>(bytes).subspan(stream_at));
  const EncodedStream s = read_stream(r, SectionDigest::kLanes);
  digest_at = stream_at + r.position() - 8;
  // u64 n_symbols | u32 chunk_symbols | u32 reduce | u8 per-chunk flag |
  // u32 n_chunks | u64 chunk_bits[] | u8 chunk_reduce[] | u64 n_words.
  const std::size_t payload_at =
      29 + 8 * s.chunks() + s.chunk_reduce.size();
  const std::size_t lane = (payload_at + 7) / 8 * 8;
  EXPECT_LE(lane + 16, payload_at + s.payload.size() * sizeof(word_t));
  return stream_at + lane;
}

TEST(Format, PairedTopBitFlipsFailTheDigest) {
  // Bit 7 of byte 7 of a lane is the lane's bit 63. A lane digest whose
  // mixing only multiplies keeps a difference there in bit 63, so two such
  // flips (in two lanes, or in a lane and the stored digest's top byte)
  // would cancel and the container would decode to wrong symbols. The
  // flips sit in payload words: the reader's geometry checks do not see
  // them, only the digest does.
  const auto input = data::generate_text(3000, 8);
  PipelineConfig cfg;
  cfg.gap_subseq_bits = 1024;
  const auto flipped = [](std::vector<u8> b, std::size_t i, std::size_t j) {
    b[i] ^= 0x80;
    b[j] ^= 0x80;
    return b;
  };

  const VersionRow phf4_row{"PHF4", serialize(compress<u8>(input, cfg)),
                            "PHF3"};
  const std::vector<u8>& phf4 = phf4_row.bytes;
  ASSERT_EQ(std::memcmp(phf4.data(), "PHF4", 4), 0);
  ByteReader r(std::span<const u8>(phf4).subspan(5));
  (void)read_codebook(r);
  std::size_t digest_at = 0;
  const std::size_t lane_at = payload_lane(phf4, 5 + r.position(), digest_at);
  expect_names(phf4_row.failure(flipped(phf4, lane_at + 7, lane_at + 15)),
               "checksum mismatch");
  expect_names(phf4_row.failure(flipped(phf4, lane_at + 7, digest_at + 7)),
               "checksum mismatch");
  // The region: u32 n_fields | u32 tag | u64 len | payload | u64 digest.
  const std::size_t field_at = digest_at + 8 + 4 + 4 + 8;
  u64 field_len = 0;
  std::memcpy(&field_len, phf4.data() + field_at - 8, 8);
  ASSERT_GE(field_len, 8u);
  expect_names(phf4_row.failure(flipped(phf4, field_at + 7,
                                        field_at + field_len + 7)),
               "optional field checksum mismatch");

  // A PHS3 frame's stream section follows the frame preamble.
  StreamingCompressor<u8> sc(cfg);
  sc.observe(input);
  sc.freeze();
  VersionRow phs3_row{"PHS3", sc.header(), "PHS2"};
  std::vector<u8>& phs3 = phs3_row.bytes;
  const std::size_t frame_stream_at = phs3.size() + 12;
  const std::vector<u8> frame = sc.encode_segment(input);
  phs3.insert(phs3.end(), frame.begin(), frame.end());
  const std::size_t frame_lane_at =
      payload_lane(phs3, frame_stream_at, digest_at);
  ASSERT_EQ(digest_at + 8, phs3.size());
  expect_names(phs3_row.failure(flipped(phs3, frame_lane_at + 7,
                                        frame_lane_at + 15)),
               "checksum mismatch");
  expect_names(phs3_row.failure(flipped(phs3, frame_lane_at + 7,
                                        digest_at + 7)),
               "checksum mismatch");
}

TEST(Format, RejectsSymbolWidthMismatch) {
  const auto input = data::generate_text(1000, 1);
  PipelineConfig cfg;
  const auto bytes = serialize(compress<u8>(input, cfg));
  EXPECT_THROW((void)deserialize<u16>(bytes), std::runtime_error);
}

TEST(Format, RejectsTruncation) {
  const auto input = data::generate_text(5000, 2);
  PipelineConfig cfg;
  auto bytes = serialize(compress<u8>(input, cfg));
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() / 2,
                                std::size_t{10}}) {
    std::vector<u8> t(bytes.begin(),
                      bytes.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)deserialize<u8>(t), std::runtime_error) << cut;
  }
}

TEST(Format, RejectsTrailingGarbage) {
  for (const VersionRow& row : version_rows()) {
    SCOPED_TRACE(row.magic);
    auto bytes = row.bytes;
    bytes.push_back(0);
    expect_names(row.failure(bytes), row.streamed()
                                         ? "incomplete header/segment"
                                         : "trailing bytes");
  }
}

TEST(Format, RejectsCorruptLengths) {
  const auto input = data::generate_text(1000, 5);
  PipelineConfig cfg;
  auto bytes = serialize(compress<u8>(input, cfg));
  // The lengths array starts at offset 10 (magic, symbol width, max_len,
  // nbins); zeroing the entry of a symbol that is certainly present ('e')
  // breaks Kraft completeness.
  bytes[10 + 'e'] = 0;
  EXPECT_ANY_THROW((void)deserialize<u8>(bytes));
}

TEST(DecodeRange, SlicesMatchFullDecode) {
  const auto input = data::generate_nyx_quant(50000, 12);
  PipelineConfig cfg;
  cfg.nbins = 1024;
  const auto blob = compress<u16>(input, cfg);
  const auto& s = blob.stream;
  const auto& cb = blob.codebook;
  struct Range {
    std::size_t first, count;
  };
  for (const Range r : {Range{0, 50000}, Range{0, 1}, Range{49999, 1},
                        Range{1000, 1024}, Range{1023, 2}, Range{512, 3000},
                        Range{12345, 6789}, Range{0, 0}, Range{50000, 0}}) {
    const auto slice = decode_range<u16>(s, cb, r.first, r.count, 1);
    ASSERT_EQ(slice.size(), r.count);
    for (std::size_t i = 0; i < r.count; ++i) {
      ASSERT_EQ(slice[i], input[r.first + i])
          << "first=" << r.first << " count=" << r.count << " i=" << i;
    }
  }
}

TEST(DecodeRange, RejectsOutOfRange) {
  const std::vector<u8> input = {0, 1, 0, 1};
  PipelineConfig cfg;
  cfg.nbins = 2;
  const auto blob = compress<u8>(input, cfg);
  EXPECT_THROW(
      (void)decode_range<u8>(blob.stream, blob.codebook, 3, 2, 1),
      std::out_of_range);
  EXPECT_THROW((void)decode_range<u8>(blob.stream, blob.codebook,
                                      static_cast<std::size_t>(-1), 2, 1),
               std::out_of_range);
}

TEST(Format, ChecksumCatchesPayloadFlips) {
  const auto input = data::generate_text(50000, 21);
  PipelineConfig cfg;
  cfg.nbins = 256;
  auto bytes = serialize(compress<u8>(input, cfg));
  // Flip one bit somewhere in the back half (payload region): the stream
  // checksum must reject it even when the structure still parses.
  Xoshiro256 rng(3);
  int rejected = 0;
  for (int trial = 0; trial < 16; ++trial) {
    auto bad = bytes;
    const std::size_t pos =
        bytes.size() / 2 + rng.below(bytes.size() / 2 - 16);
    bad[pos] ^= static_cast<u8>(1u << rng.below(8));
    try {
      (void)deserialize<u8>(bad);
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 16);
}

TEST(Format, FileRoundTrip) {
  const auto input = data::generate_text(30000, 6);
  PipelineConfig cfg;
  const auto bytes = serialize(compress<u8>(input, cfg));
  const std::string path = "/tmp/parhuff_test_container.phf";
  write_file(path, bytes);
  const auto read = read_file(path);
  EXPECT_EQ(read, bytes);
  EXPECT_EQ(decompress(deserialize<u8>(read), 2), input);
}

}  // namespace
}  // namespace parhuff
