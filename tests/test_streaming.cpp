// Streaming (multi-segment, shared-codebook) compression API.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

/// Runs `f` and checks that it throws E with `what` in its message.
template <typename E, typename F>
void expect_throw_with(F&& f, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << "no throw; expected \"" << what << "\"";
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "got \"" << e.what() << "\", expected \"" << what << "\"";
  }
}

std::vector<std::vector<u8>> text_segments(std::size_t n_segments,
                                           std::size_t each, u64 seed) {
  std::vector<std::vector<u8>> out;
  for (std::size_t i = 0; i < n_segments; ++i) {
    out.push_back(data::generate_text(each, seed + i));
  }
  return out;
}

TEST(Streaming, MultiSegmentRoundTrip) {
  const auto segments = text_segments(5, 60000, 100);
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  for (const auto& seg : segments) sc.observe(seg);
  sc.freeze();

  const auto header = sc.header();
  std::vector<std::vector<u8>> frames;
  for (const auto& seg : segments) frames.push_back(sc.encode_segment(seg));

  StreamingDecompressor<u8> sd(header);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(sd.decode_segment(frames[i]), segments[i]) << "segment " << i;
  }
}

TEST(Streaming, HeaderShipsCodebookOnce) {
  const auto segments = text_segments(8, 40000, 7);
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  for (const auto& seg : segments) sc.observe(seg);
  sc.freeze();
  const std::size_t header_bytes = sc.header().size();
  std::size_t frame_bytes = 0;
  for (const auto& seg : segments) {
    frame_bytes += sc.encode_segment(seg).size();
  }
  // The per-frame overhead excludes the codebook: total must be well below
  // 8x(standalone container) for 8 segments.
  EXPECT_LT(header_bytes, 3000u);
  EXPECT_GT(frame_bytes, header_bytes * 8);
}

TEST(Streaming, SplitFramesFromConcatenation) {
  const auto segments = text_segments(4, 20000, 55);
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  for (const auto& seg : segments) sc.observe(seg);
  sc.freeze();
  std::vector<u8> blob;
  for (const auto& seg : segments) {
    const auto f = sc.encode_segment(seg);
    blob.insert(blob.end(), f.begin(), f.end());
  }
  StreamingDecompressor<u8> sd(sc.header());
  const auto frames = StreamingDecompressor<u8>::split_frames(blob);
  ASSERT_EQ(frames.size(), segments.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(sd.decode_segment(frames[i]), segments[i]);
  }
}

TEST(Streaming, MultiByteSymbolsWithAdaptiveEncoder) {
  PipelineConfig cfg;
  cfg.nbins = 1024;
  cfg.encoder = EncoderKind::kAdaptiveSimt;
  StreamingCompressor<u16> sc(cfg);
  std::vector<std::vector<u16>> segments;
  for (int i = 0; i < 3; ++i) {
    segments.push_back(data::generate_nyx_quant(80000, 200 + i));
  }
  for (const auto& seg : segments) sc.observe(seg);
  sc.freeze();
  StreamingDecompressor<u16> sd(sc.header());
  for (const auto& seg : segments) {
    EXPECT_EQ(sd.decode_segment(sc.encode_segment(seg)), seg);
  }
}

TEST(Streaming, ProtocolMisuseThrows) {
  PipelineConfig cfg;
  cfg.nbins = 0;
  expect_throw_with<std::invalid_argument>(
      [&] { StreamingCompressor<u8> empty_alphabet(cfg); },
      "nbins must be positive");
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const std::vector<u8> seg = {1, 2, 3};
  expect_throw_with<std::logic_error>([&] { (void)sc.header(); },
                                      "header() before freeze()");
  expect_throw_with<std::logic_error>([&] { (void)sc.codebook(); },
                                      "codebook() before freeze()");
  expect_throw_with<std::logic_error>([&] { (void)sc.encode_segment(seg); },
                                      "encode_segment() before freeze()");
  expect_throw_with<std::logic_error>([&] { sc.freeze(); },
                                      "freeze() before observe()");
  sc.observe(seg);
  sc.freeze();
  expect_throw_with<std::logic_error>([&] { sc.freeze(); }, "double freeze()");
  expect_throw_with<std::logic_error>([&] { sc.observe(seg); },
                                      "observe() after freeze()");
}

TEST(Streaming, SmoothingMakesUnseenSymbolsEncodable) {
  PipelineConfig cfg;
  cfg.nbins = 16;
  StreamingCompressor<u8> sc(cfg);
  sc.observe(std::vector<u8>{0, 1, 0, 1, 1, 0});
  sc.smooth();
  sc.freeze();
  const std::vector<u8> alien = {0, 1, 9, 15, 3};
  StreamingDecompressor<u8> sd(sc.header());
  EXPECT_EQ(sd.decode_segment(sc.encode_segment(alien)), alien);
  // Smoothing after freeze is a protocol error.
  expect_throw_with<std::logic_error>([&] { sc.smooth(); },
                                      "smooth() after freeze()");
}

TEST(Streaming, UnseenSymbolInSegmentThrows) {
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const std::vector<u8> observed = {0, 1, 0, 1, 1};
  sc.observe(observed);
  sc.freeze();
  const std::vector<u8> alien = {0, 1, 9};
  EXPECT_THROW((void)sc.encode_segment(alien), std::runtime_error);
}

TEST(Streaming, DecoderRejectsBadHeaderAndFrames) {
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const auto seg = data::generate_text(5000, 1);
  sc.observe(seg);
  sc.freeze();
  auto header = sc.header();
  auto frame = sc.encode_segment(seg);

  auto bad_header = header;
  bad_header[0] = 'X';
  expect_throw_with<std::runtime_error>(
      [&] { StreamingDecompressor<u8> sd(bad_header); }, "bad header magic");
  expect_throw_with<std::runtime_error>(
      [&] { StreamingDecompressor<u16> sd16(header); },
      "symbol width mismatch");

  StreamingDecompressor<u8> sd(header);
  auto bad_frame = frame;
  bad_frame[0] ^= 0xFF;
  expect_throw_with<std::runtime_error>(
      [&] { (void)sd.decode_segment(bad_frame); }, "bad frame magic");
  auto truncated = frame;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)sd.decode_segment(truncated), std::runtime_error);

  // One byte past the header or past a frame's stream section: the
  // sections parse whole, and the trailing byte is what fails.
  auto long_header = header;
  long_header.push_back(0);
  expect_throw_with<std::runtime_error>(
      [&] { StreamingDecompressor<u8> sd2(long_header); },
      "trailing header bytes");
  auto long_frame = frame;
  long_frame.push_back(0);
  expect_throw_with<std::runtime_error>(
      [&] { (void)sd.decode_segment(long_frame); }, "frame length mismatch");
  u64 body_len = 0;  // the preamble's body length, raised to match
  std::memcpy(&body_len, long_frame.data() + sizeof(u32), sizeof(body_len));
  ++body_len;
  std::memcpy(long_frame.data() + sizeof(u32), &body_len, sizeof(body_len));
  expect_throw_with<std::runtime_error>(
      [&] { (void)sd.decode_segment(long_frame); }, "frame length mismatch");
}

TEST(Streaming, WrappingFrameLengthFailsTyped) {
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const auto seg = data::generate_text(5000, 1);
  sc.observe(seg);
  sc.freeze();
  const auto header = sc.header();
  const auto frame = sc.encode_segment(seg);
  // The preamble is a u32 magic and a u64 body length.
  const auto with_body_len = [&](u64 body_len) {
    auto f = frame;
    std::memcpy(f.data() + sizeof(u32), &body_len, sizeof(body_len));
    return f;
  };
  constexpr std::size_t kPreamble = sizeof(u32) + sizeof(u64);
  constexpr u64 kBound = u64{1} << 20;

  // 12 + (2^64 − 5) would wrap to a 7-byte frame, which a bounded reader
  // would take for a short frame inside its bound. Every reader names the
  // body length instead.
  const auto forged = with_body_len(~u64{0} - 4);
  for (const u64 bound : {kBound, ~u64{0}}) {
    StreamReader<u8> rd(bound);
    EXPECT_TRUE(rd.push(header).empty());
    expect_throw_with<std::runtime_error>([&] { (void)rd.push(forged); },
                                          "frame body length overflows");
  }
  expect_throw_with<std::runtime_error>(
      [&] { (void)StreamingDecompressor<u8>::split_frames(forged); },
      "frame body length overflows");
  StreamingDecompressor<u8> sd(header);
  expect_throw_with<std::runtime_error>(
      [&] { (void)sd.decode_segment(forged); },
      "frame body length overflows");

  // The largest body length whose total still fits is read as a
  // SIZE_MAX-byte frame: past a bounded reader's bound, a truncation to
  // an unbounded one and to split_frames.
  const auto widest = with_body_len(SIZE_MAX - kPreamble);
  StreamReader<u8> bounded(kBound);
  EXPECT_TRUE(bounded.push(header).empty());
  expect_throw_with<std::invalid_argument>(
      [&] { (void)bounded.push(widest); },
      "stream segment exceeds the buffering bound");
  StreamReader<u8> unbounded;
  EXPECT_TRUE(unbounded.push(header).empty());
  EXPECT_TRUE(unbounded.push(widest).empty());
  expect_throw_with<std::invalid_argument>(
      [&] { unbounded.finish(); },
      "stream ended with " + std::to_string(widest.size()) + " bytes");
  EXPECT_THROW((void)StreamingDecompressor<u8>::split_frames(widest),
               std::runtime_error);
}

/// A streamed container (header, then one frame per segment) with the
/// offsets a split test cuts at.
template <typename Sym>
struct StreamedContainer {
  std::vector<u8> bytes;
  std::vector<Sym> symbols;  // every segment's, in order
  std::size_t header_bytes = 0;
  std::vector<std::size_t> frame_starts;
  std::size_t largest_frame = 0;
};

template <typename Sym>
StreamedContainer<Sym> streamed_container(
    const std::vector<std::vector<Sym>>& segments, u32 nbins) {
  PipelineConfig cfg;
  cfg.nbins = nbins;
  StreamingCompressor<Sym> sc(cfg);
  for (const auto& seg : segments) sc.observe(seg);
  sc.freeze();
  StreamedContainer<Sym> c;
  c.bytes = sc.header();
  c.header_bytes = c.bytes.size();
  for (const auto& seg : segments) {
    c.frame_starts.push_back(c.bytes.size());
    const std::vector<u8> f = sc.encode_segment(seg);
    c.bytes.insert(c.bytes.end(), f.begin(), f.end());
    c.symbols.insert(c.symbols.end(), seg.begin(), seg.end());
    c.largest_frame = std::max(c.largest_frame, f.size());
  }
  return c;
}

/// Pushes `bytes` into `rd` as pieces that start at each of `cuts`
/// (ascending, inside the container) and returns the decoded symbols.
template <typename Sym>
std::vector<Sym> push_pieces(StreamReader<Sym>& rd, std::span<const u8> bytes,
                             std::vector<std::size_t> cuts) {
  cuts.push_back(bytes.size());
  std::vector<u8> out;
  std::size_t at = 0;
  for (const std::size_t cut : cuts) {
    const std::vector<u8> got =
        rd.push(std::vector<u8>(bytes.begin() + at, bytes.begin() + cut));
    out.insert(out.end(), got.begin(), got.end());
    at = cut;
  }
  std::vector<Sym> syms(out.size() / sizeof(Sym));
  if (!out.empty()) std::memcpy(syms.data(), out.data(), out.size());
  return syms;
}

template <typename Sym>
void expect_every_split_decodes(const StreamedContainer<Sym>& c) {
  const std::size_t n = c.bytes.size();
  const std::size_t second = c.frame_starts.at(1);
  std::vector<std::pair<std::string, std::vector<std::size_t>>> splits = {
      {"whole", {}},
      {"inside the magic", {3}},
      {"after the magic", {4}},
      {"inside the header", {c.header_bytes / 2, c.header_bytes - 1}},
      {"at the header's end", {c.header_bytes}},
      {"inside a frame preamble", {second + 4, second + 11}},
      {"one byte into a frame", {second + 1}},
  };
  std::vector<std::size_t> bytewise(n - 1);
  for (std::size_t i = 0; i < bytewise.size(); ++i) bytewise[i] = i + 1;
  splits.emplace_back("1-byte pieces", bytewise);
  Xoshiro256 rng(0x5EED);
  for (int k = 0; k < 24; ++k) {
    std::vector<std::size_t> cuts(1 + rng.below(12));
    for (std::size_t& cut : cuts) cut = 1 + rng.below(n - 1);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    splits.emplace_back("random #" + std::to_string(k), cuts);
  }

  const std::span<const u8> whole(c.bytes);
  for (const auto& [name, cuts] : splits) {
    SCOPED_TRACE(name);
    StreamReader<Sym> rd;
    EXPECT_EQ(push_pieces(rd, whole, cuts), c.symbols);
    EXPECT_NO_THROW(rd.finish());
    if (cuts.size() == n - 1) {
      // Byte by byte, the buffer holds at most the header or one frame.
      EXPECT_EQ(rd.buffered_high_water(),
                std::max(c.header_bytes, c.largest_frame));
    }

    // The same pieces with the last one a byte short: the final frame
    // never completes, and finish() names what is left over.
    std::vector<std::size_t> short_cuts = cuts;
    if (!short_cuts.empty() && short_cuts.back() == n - 1) {
      short_cuts.pop_back();
    }
    StreamReader<Sym> truncated;
    const std::vector<Sym> prefix =
        push_pieces(truncated, whole.first(n - 1), short_cuts);
    EXPECT_LT(prefix.size(), c.symbols.size());
    EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), c.symbols.begin()));
    expect_throw_with<std::invalid_argument>(
        [&] { truncated.finish(); },
        "bytes of an incomplete header/segment");
  }
}

TEST(Streaming, ReaderDecodesEverySplitOfAU8Container) {
  std::vector<std::vector<u8>> segments = text_segments(4, 1500, 31);
  segments.insert(segments.begin() + 2, std::vector<u8>{});  // empty frame
  expect_every_split_decodes(streamed_container<u8>(segments, 256));
}

TEST(Streaming, ReaderDecodesEverySplitOfAU16Container) {
  std::vector<std::vector<u16>> segments;
  for (u64 i = 0; i < 4; ++i) {
    segments.push_back(data::generate_nyx_quant(1200, 700 + i));
  }
  expect_every_split_decodes(streamed_container<u16>(segments, 1024));
}

TEST(Streaming, ReaderBoundsAndLeftoversFailTyped) {
  const auto c = streamed_container<u8>(text_segments(3, 4000, 9), 256);
  const std::span<const u8> whole(c.bytes);
  const std::span<const u8> header = whole.first(c.header_bytes);

  // Not PHS2: decided as soon as four bytes are in, not at the bound.
  StreamReader<u8> phf;
  EXPECT_TRUE(phf.push({'P', 'H', 'F'}).empty());
  expect_throw_with<std::invalid_argument>(
      [&] { (void)phf.push({'2'}); }, "stream is not a PHS2 streamed container");

  // A header that parses for another width is waited on until the bound.
  StreamReader<u16> wrong_width(c.header_bytes);
  EXPECT_TRUE(
      wrong_width.push(std::vector<u8>(header.begin(), header.end())).empty());
  expect_throw_with<std::invalid_argument>(
      [&] { (void)wrong_width.push({0}); },
      "stream header unparsable within the buffering bound");

  // A frame larger than the unit bound fails as soon as its preamble is in.
  ASSERT_GT(c.largest_frame, c.header_bytes);
  StreamReader<u8> small_unit(c.largest_frame - 1);
  expect_throw_with<std::invalid_argument>(
      [&] { (void)push_pieces(small_unit, whole, {}); },
      "stream segment exceeds the buffering bound");

  // One push may not decode past the output bound; smaller pieces do.
  StreamReader<u8> small_output(~u64{0}, 6000);
  expect_throw_with<std::invalid_argument>(
      [&] { (void)push_pieces(small_output, whole, {}); },
      "chunk decodes beyond the response bound");
  StreamReader<u8> piecewise(~u64{0}, 6000);
  EXPECT_EQ(push_pieces(piecewise, whole, c.frame_starts), c.symbols);

  // A damaged frame fails typed through the reader.
  std::vector<u8> bad = c.bytes;
  bad[c.frame_starts[1]] ^= 0xFF;
  StreamReader<u8> damaged;
  expect_throw_with<std::runtime_error>(
      [&] { (void)damaged.push(std::move(bad)); }, "bad frame magic");

  // A stream that ends inside its header.
  StreamReader<u8> headless;
  EXPECT_TRUE(
      headless.push(std::vector<u8>(header.begin(), header.end() - 1)).empty());
  expect_throw_with<std::invalid_argument>(
      [&] { headless.finish(); },
      "stream ended with " + std::to_string(c.header_bytes - 1) + " bytes");
}

TEST(Streaming, ResetReturnsCompressorToObserving) {
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);

  const auto first = data::generate_text(30000, 11);
  sc.observe(first);
  sc.freeze();
  StreamingDecompressor<u8> sd1(sc.header());
  EXPECT_EQ(sd1.decode_segment(sc.encode_segment(first)), first);

  sc.reset();
  EXPECT_FALSE(sc.frozen());
  EXPECT_THROW((void)sc.header(), std::logic_error);  // back to OBSERVING
  EXPECT_THROW(sc.freeze(), std::logic_error);        // histogram cleared

  // The same object trains and serves a second, unrelated stream.
  const auto second = data::generate_text(30000, 99);
  sc.observe(second);
  sc.freeze();
  StreamingDecompressor<u8> sd2(sc.header());
  EXPECT_EQ(sd2.decode_segment(sc.encode_segment(second)), second);
}

TEST(Streaming, ConcurrentSegmentDecodeFromOneDecompressor) {
  const auto segments = text_segments(16, 20000, 400);
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  for (const auto& seg : segments) sc.observe(seg);
  sc.freeze();
  std::vector<std::vector<u8>> frames;
  for (const auto& seg : segments) frames.push_back(sc.encode_segment(seg));

  // One decompressor shared by many threads: decode_segment is const and
  // reads only the immutable codebook, so this must be race-free.
  StreamingDecompressor<u8> sd(sc.header());
  std::vector<std::vector<u8>> out(segments.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) <
           frames.size();) {
        out[i] = sd.decode_segment(frames[i]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(out[i], segments[i]) << "segment " << i;
  }
}

TEST(Streaming, EmptySegment) {
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  sc.observe(std::vector<u8>{5, 6, 7});
  sc.freeze();
  StreamingDecompressor<u8> sd(sc.header());
  const auto frame = sc.encode_segment(std::vector<u8>{});
  EXPECT_TRUE(sd.decode_segment(frame).empty());
}

}  // namespace
}  // namespace parhuff
