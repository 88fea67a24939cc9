// Streaming (multi-segment, shared-codebook) compression API.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"

namespace parhuff {
namespace {

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
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const std::vector<u8> seg = {1, 2, 3};
  EXPECT_THROW((void)sc.header(), std::logic_error);
  EXPECT_THROW((void)sc.encode_segment(seg), std::logic_error);
  EXPECT_THROW(sc.freeze(), std::logic_error);  // nothing observed
  sc.observe(seg);
  sc.freeze();
  EXPECT_THROW(sc.freeze(), std::logic_error);
  EXPECT_THROW(sc.observe(seg), std::logic_error);
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
  EXPECT_THROW(sc.smooth(), std::logic_error);
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
  EXPECT_THROW(StreamingDecompressor<u8> sd(bad_header), std::runtime_error);
  EXPECT_THROW(StreamingDecompressor<u16> sd16(header), std::runtime_error);

  StreamingDecompressor<u8> sd(header);
  auto bad_frame = frame;
  bad_frame[0] ^= 0xFF;
  EXPECT_THROW((void)sd.decode_segment(bad_frame), std::runtime_error);
  auto truncated = frame;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW((void)sd.decode_segment(truncated), std::runtime_error);

  // One byte past the header or past a frame's stream section: the
  // sections parse whole, and the trailing byte is what fails.
  auto long_header = header;
  long_header.push_back(0);
  EXPECT_THROW(StreamingDecompressor<u8> sd2(long_header), std::runtime_error);
  auto long_frame = frame;
  long_frame.push_back(0);
  EXPECT_THROW((void)sd.decode_segment(long_frame), std::runtime_error);
  u64 body_len = 0;  // the preamble's body length, raised to match
  std::memcpy(&body_len, long_frame.data() + sizeof(u32), sizeof(body_len));
  ++body_len;
  std::memcpy(long_frame.data() + sizeof(u32), &body_len, sizeof(body_len));
  EXPECT_THROW((void)sd.decode_segment(long_frame), std::runtime_error);
}

TEST(Streaming, WrappingFrameLengthFailsTyped) {
  PipelineConfig cfg;
  cfg.nbins = 256;
  StreamingCompressor<u8> sc(cfg);
  const auto seg = data::generate_text(5000, 1);
  sc.observe(seg);
  sc.freeze();
  const auto frame = sc.encode_segment(seg);
  // The preamble is a u32 magic and a u64 body length.
  const auto with_body_len = [&](u64 body_len) {
    auto f = frame;
    std::memcpy(f.data() + sizeof(u32), &body_len, sizeof(body_len));
    return f;
  };
  constexpr std::size_t kPreamble = sizeof(u32) + sizeof(u64);

  // 12 + (2^64 − 5) would wrap to a 7-byte frame.
  const auto forged = with_body_len(~u64{0} - 4);
  std::size_t total = 0;
  try {
    (void)StreamingDecompressor<u8>::frame_length(forged, &total);
    FAIL() << "a wrapping body length must fail typed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("body length"), std::string::npos);
  }
  EXPECT_EQ(total, 0u);
  EXPECT_THROW((void)StreamingDecompressor<u8>::split_frames(forged),
               std::runtime_error);
  StreamingDecompressor<u8> sd(sc.header());
  EXPECT_THROW((void)sd.decode_segment(forged), std::runtime_error);

  // The largest body length whose total still fits is only a truncation.
  const auto widest = with_body_len(SIZE_MAX - kPreamble);
  ASSERT_TRUE(StreamingDecompressor<u8>::frame_length(widest, &total));
  EXPECT_EQ(total, SIZE_MAX);
  EXPECT_THROW((void)StreamingDecompressor<u8>::split_frames(widest),
               std::runtime_error);
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
