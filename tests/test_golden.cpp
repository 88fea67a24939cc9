// Format stability: a fixed input must serialize to the same bytes on
// every build (the on-disk format is a compatibility contract). If a
// deliberate format change breaks this test, bump the container magic,
// freeze the old bytes (golden_*.hpp) and refresh the golden digest.
// Frozen bytes of every read-only version must keep decoding to the same
// output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/format.hpp"
#include "core/histogram.hpp"
#include "core/pipeline.hpp"
#include "core/streaming.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "expect_tally.hpp"
#include "golden_phf3.hpp"
#include "golden_phl2.hpp"
#include "golden_phl3.hpp"
#include "golden_phs2.hpp"
#include "lossy/fused.hpp"
#include "lossy/lossy.hpp"
#include "proptest.hpp"
#include "svc/service.hpp"
#include "util/clock.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/work_steal.hpp"

namespace parhuff {
namespace {

std::vector<u8> golden_input() {
  // Deterministic, structure-rich: runs, alternations, all-of-alphabet.
  std::vector<u8> v;
  for (int rep = 0; rep < 50; ++rep) {
    for (int s = 0; s < 16; ++s) {
      for (int k = 0; k <= s; ++k) v.push_back(static_cast<u8>(s));
    }
  }
  return v;
}

TEST(Golden, ContainerBytesAreStable) {
  PipelineConfig cfg;
  cfg.nbins = 16;
  cfg.magnitude = 8;
  cfg.encoder = EncoderKind::kReduceShuffleSimt;
  cfg.reduce_factor = 2;
  const auto input = golden_input();
  const auto bytes = serialize(compress<u8>(input, cfg));
  ASSERT_EQ(std::memcmp(bytes.data(), "PHF4", 4), 0);

  // Self-consistency first (protects the digest's meaning).
  EXPECT_EQ(decompress(deserialize<u8>(bytes)), input);

  // The frozen digest of the serialized container. Regenerate with:
  //   printf '0x%016llx\n' <fnv1a of the bytes>
  const u64 digest = fnv1a(bytes);
  constexpr u64 kGoldenDigest = 0xe705fb031fe6ac7full;
  if (kGoldenDigest != 0) {
    EXPECT_EQ(digest, kGoldenDigest)
        << "serialized container changed; if intentional, bump the format "
           "magic and refresh kGoldenDigest (new value: 0x" << std::hex
        << digest << ")";
  } else {
    // Bootstrap mode: print the digest so it can be frozen.
    std::printf("golden digest: 0x%016llx size=%zu\n",
                static_cast<unsigned long long>(digest), bytes.size());
  }
}

TEST(Golden, AdaptiveContainerBytesAreStable) {
  PipelineConfig cfg;
  cfg.nbins = 16;
  cfg.magnitude = 8;
  cfg.encoder = EncoderKind::kAdaptiveSimt;
  const auto input = golden_input();
  const auto bytes = serialize(compress<u8>(input, cfg));
  ASSERT_EQ(std::memcmp(bytes.data(), "PHF4", 4), 0);
  EXPECT_EQ(decompress(deserialize<u8>(bytes)), input);
  const u64 digest = fnv1a(bytes);
  constexpr u64 kGoldenDigest = 0x9ea1e0f9ae279b98ull;
  if (kGoldenDigest != 0) {
    EXPECT_EQ(digest, kGoldenDigest);
  } else {
    std::printf("golden adaptive digest: 0x%016llx size=%zu\n",
                static_cast<unsigned long long>(digest), bytes.size());
  }
}

TEST(Golden, StreamedContainerBytesAreStable) {
  // A PHS3 stream on the wire: the header, then two encode_segment frames
  // over the halves of golden_input(), under one observed codebook.
  PipelineConfig cfg;
  cfg.nbins = 16;
  cfg.magnitude = 8;
  cfg.encoder = EncoderKind::kReduceShuffleSimt;
  cfg.reduce_factor = 2;
  const auto input = golden_input();
  const std::span<const u8> all(input);
  const auto first = all.first(input.size() / 2);
  const auto second = all.subspan(input.size() / 2);
  StreamingCompressor<u8> sc(cfg);
  sc.observe(all);
  sc.freeze();
  const std::vector<u8> header = sc.header();
  const std::vector<u8> f1 = sc.encode_segment(first);
  const std::vector<u8> f2 = sc.encode_segment(second);

  const StreamingDecompressor<u8> sd(header);
  EXPECT_EQ(StreamingDecompressor<u8>::header_length(header), header.size());
  const auto d1 = sd.decode_segment(f1);
  const auto d2 = sd.decode_segment(f2);
  EXPECT_TRUE(std::equal(d1.begin(), d1.end(), first.begin(), first.end()));
  EXPECT_TRUE(std::equal(d2.begin(), d2.end(), second.begin(), second.end()));

  std::vector<u8> bytes = header;
  bytes.insert(bytes.end(), f1.begin(), f1.end());
  bytes.insert(bytes.end(), f2.begin(), f2.end());
  ASSERT_EQ(std::memcmp(bytes.data(), "PHS3", 4), 0);
  const u64 digest = fnv1a(bytes);
  constexpr u64 kGoldenDigest = 0x25e667ad86229d8aull;
  EXPECT_EQ(bytes.size(), 3728u);  // PHS2's size: only the digests moved
  EXPECT_EQ(digest, kGoldenDigest)
      << "streamed bytes changed; if intentional, bump the PHS3 magic and "
         "refresh kGoldenDigest (new value: 0x" << std::hex << digest << ")";
}

TEST(Golden, FrozenPhs2DecodesToTheSameSymbols) {
  // StreamReader reads the same bytes cut anywhere
  // (Streaming.ReaderDecodesEverySplitOfTheFrozenPhs2Container).
  const std::span<const u8> bytes(testdata::kGoldenPhs2,
                                  sizeof(testdata::kGoldenPhs2));
  ASSERT_EQ(fnv1a(bytes), testdata::kGoldenPhs2Digest);
  ASSERT_EQ(std::memcmp(bytes.data(), "PHS2", 4), 0);
  const std::size_t hl = StreamingDecompressor<u8>::header_length(bytes);
  const StreamingDecompressor<u8> sd(bytes.first(hl));
  std::vector<u8> symbols;
  for (const auto frame :
       StreamingDecompressor<u8>::split_frames(bytes.subspan(hl))) {
    const std::vector<u8> part = sd.decode_segment(frame);
    symbols.insert(symbols.end(), part.begin(), part.end());
  }
  EXPECT_EQ(fnv1a(symbols), testdata::kGoldenPhs2SymbolsDigest)
      << "the PHS2 reader decodes the frozen bytes to different symbols "
         "(new digest: 0x" << std::hex << fnv1a(symbols) << ")";
  EXPECT_EQ(symbols, golden_input());
}

// ---------------------------------------------------------------------------
// The lossy contracts frozen here:
//  1. The PHL3 container (and the RLE1 optional field inside its embedded
//     PHF4 stream) serializes to stable bytes — the fused format is on
//     disk.
//  2. The lossy reader decodes the frozen PHL2 bytes (golden_phl2.hpp) and
//     the frozen PHL3-around-PHF3 bytes (golden_phl3.hpp) to exactly the
//     floats it always did.
//  3. A PHF4 container *without* RLE carries no trace of the field: a
//     stream that does not use an optional field is written without it.

/// Deterministic field whose fused container carries both RLE runs and a
/// residual stream: a structured prefix over a constant bulk. No RNG — the
/// bytes must be identical on every build.
std::vector<float> golden_field(data::Dims dims) {
  std::vector<float> f(dims.total(), 4.5f);
  for (std::size_t i = 0; i < f.size() / 4; ++i) {
    f[i] = static_cast<float>(std::sin(static_cast<double>(i) * 0.05) * 3.0);
  }
  return f;
}

TEST(Golden, ModeledTalliesAreStable) {
  // The modeled V100 numbers are a function of these three tallies. A
  // kernel-vs-host equivalence test cannot see a drift both forms share;
  // these frozen values can. Fields in MemTally declaration order.
  {
    PipelineConfig cfg;
    cfg.nbins = 16;
    cfg.magnitude = 8;
    cfg.encoder = EncoderKind::kReduceShuffleSimt;
    cfg.reduce_factor = 2;
    PipelineReport rep;
    (void)compress<u8>(golden_input(), cfg, &rep);
    SCOPED_TRACE("u8 golden input");
    expect_tally("histogram", rep.hist_tally,
                 {6800, 0, 317, 0, 81408, 2534, 50680, 6800, 20400, 1, 0,
                  159, 0, 0, 0});
    expect_tally("codebook", rep.codebook_tally,
                 {1424, 256, 228, 8, 0, 16, 24, 0, 0, 1, 48, 0, 0, 392, 715});
    expect_tally("encode", rep.encode_tally,
                 {10328, 3272, 337, 108, 334308, 0, 0, 0, 0, 2, 0, 270, 1701,
                  438912, 0});
  }
  {
    PipelineConfig cfg;
    cfg.nbins = 1024;
    PipelineReport rep;
    (void)compress<u16>(data::generate_nyx_quant(std::size_t{1} << 18, 7),
                        cfg, &rep);
    SCOPED_TRACE("u16 NYX-like input");
    EXPECT_EQ(rep.reduce_factor, 3u);
    expect_tally("histogram", rep.hist_tally,
                 {524288, 0, 16634, 0, 5242880, 163840, 3276800, 262144,
                  270301, 1, 0, 160, 0, 0, 0});
    expect_tally("codebook", rep.codebook_tally,
                 {300, 80, 41, 8, 0, 5, 7, 0, 0, 1, 19, 0, 0, 80, 404});
    expect_tally("encode", rep.encode_tally,
                 {574788, 34116, 18576, 1680, 12493832, 0, 0, 0, 0, 2, 0,
                  3072, 32512, 14942208, 0});
  }
  {
    // The histogram branches the two runs above do not take: 65536 bins
    // need multipass rounds, or global atomics without them.
    std::vector<u16> wide(100'003);
    Xoshiro256 rng(9);
    for (auto& s : wide) s = static_cast<u16>(rng.below(65536));
    SimtHistogramConfig cfg;
    simt::MemTally multipass, atomics;
    (void)histogram_simt<u16>(wide, 65536, &multipass, cfg);
    cfg.allow_multipass = false;
    (void)histogram_simt<u16>(wide, 65536, &atomics, cfg);
    expect_tally("multipass histogram", multipass,
                 {1200036, 0, 38340, 0, 0, 600018, 12000360, 100644, 110226,
                  1, 0, 1920, 0, 0, 0});
    expect_tally("global-atomic histogram", atomics,
                 {200006, 0, 6390, 0, 0, 100003, 400012, 0, 0, 1, 0, 0, 0, 0,
                  0});
  }
  {
    // The adaptive kernel's per-chunk r: Width 32 through compress(),
    // Width 64 through the simulated kernel.
    PipelineConfig cfg;
    cfg.nbins = 16;
    cfg.magnitude = 8;
    cfg.encoder = EncoderKind::kAdaptiveSimt;
    PipelineReport rep;
    (void)compress<u8>(golden_input(), cfg, &rep);
    expect_tally("adaptive encode, width 32", rep.encode_tally,
                 {10328, 3299, 337, 109, 320484, 0, 0, 0, 0, 2, 0, 270, 1701,
                  445824, 0});
    const std::vector<u16> nyx =
        data::generate_nyx_quant(std::size_t{1} << 16, 7);
    const Codebook cb =
        build_codebook_serial(histogram_serial<u16>(nyx, 1024));
    simt::MemTally wide;
    (void)encode_adaptive_simt<u16, 64>(nyx, cb, AdaptiveConfig{}, &wide);
    expect_tally("adaptive encode, width 64", wide,
                 {156220, 8828, 5100, 494, 3175196, 0, 0, 0, 0, 2, 0, 768, 1984,
                  6651904, 0});
  }
}

/// The fused config of the pinned PHL3 bytes (and of golden_phl3.hpp).
lossy::FusedConfig golden_lossy_config() {
  lossy::FusedConfig cfg;
  cfg.abs_error_bound = 0.01;
  cfg.nbins = 256;
  cfg.rle_min_run = 64;
  cfg.pipeline.magnitude = 8;
  cfg.pipeline.reduce_factor = 2;
  return cfg;
}

TEST(Golden, LossyFusedContainerBytesAreStable) {
  const data::Dims dims{24, 24, 16};
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(
      golden_field(dims), dims, golden_lossy_config(), &rep);
  ASSERT_GE(rep.rle_runs, 1u);  // the digest must cover RLE1 bytes

  // Self-consistency first (protects the digest's meaning).
  const auto back = lossy::decompress_field(bytes);
  ASSERT_EQ(back.values.size(), dims.total());

  ASSERT_EQ(std::memcmp(bytes.data(), "PHL3", 4), 0);

  const u64 digest = fnv1a(bytes);
  constexpr u64 kGoldenDigest = 0xbfefc697e1469a1dull;
  if (kGoldenDigest != 0) {
    EXPECT_EQ(digest, kGoldenDigest)
        << "PHL3 container bytes changed; if intentional, bump the magic "
           "and refresh kGoldenDigest (new value: 0x" << std::hex << digest
        << ")";
  } else {
    std::printf("golden lossy digest: 0x%016llx size=%zu\n",
                static_cast<unsigned long long>(digest), bytes.size());
  }
}

TEST(Golden, FrozenPhl2DecodesToTheSameFloats) {
  const std::span<const u8> bytes(testdata::kGoldenPhl2,
                                  sizeof(testdata::kGoldenPhl2));
  ASSERT_EQ(fnv1a(bytes), testdata::kGoldenPhl2Digest);
  const auto back = lossy::decompress_field(bytes);
  EXPECT_EQ(back.dims.nx, testdata::kGoldenPhl2Nx);
  EXPECT_EQ(back.dims.ny, testdata::kGoldenPhl2Ny);
  EXPECT_EQ(back.dims.nz, testdata::kGoldenPhl2Nz);
  EXPECT_DOUBLE_EQ(back.error_bound, 0.01);
  const u64 values = fnv1a(std::span<const u8>(
      reinterpret_cast<const u8*>(back.values.data()),
      back.values.size() * sizeof(float)));
  EXPECT_EQ(values, testdata::kGoldenPhl2ValuesDigest)
      << "the PHL2 reader decodes the frozen bytes to different floats "
         "(new digest: 0x" << std::hex << values << ")";
  // And those floats still meet the bound on the field they came from.
  EXPECT_LE(proptest::max_abs_error(golden_field(back.dims), back.values),
            0.01);
}

TEST(Golden, FrozenPhl3WithAPhf3InsideDecodesToTheSameFloats) {
  const std::span<const u8> bytes(testdata::kGoldenPhl3,
                                  sizeof(testdata::kGoldenPhl3));
  ASSERT_EQ(fnv1a(bytes), testdata::kGoldenPhl3Digest);
  ASSERT_EQ(std::memcmp(bytes.data(), "PHL3", 4), 0);
  const std::size_t huff_at = 53 + 76 * 8;  // header + 76 outliers
  ASSERT_EQ(std::memcmp(bytes.data() + huff_at + 8, "PHF3", 4), 0);
  const data::Dims dims{24, 24, 16};
  const auto back = lossy::decompress_field(bytes);
  EXPECT_EQ(back.dims.nx, dims.nx);
  EXPECT_EQ(back.dims.ny, dims.ny);
  EXPECT_EQ(back.dims.nz, dims.nz);
  EXPECT_DOUBLE_EQ(back.error_bound, 0.01);
  const u64 values = fnv1a(std::span<const u8>(
      reinterpret_cast<const u8*>(back.values.data()),
      back.values.size() * sizeof(float)));
  EXPECT_EQ(values, testdata::kGoldenPhl3ValuesDigest)
      << "the PHL3 reader decodes the frozen bytes to different floats "
         "(new digest: 0x" << std::hex << values << ")";
  EXPECT_LE(proptest::max_abs_error(golden_field(dims), back.values), 0.01);

  // The writer's PHL3 differs only in its inner container's version: the
  // same field decodes to the same floats from either.
  const auto fresh = lossy::compress_field_fused(golden_field(dims), dims,
                                                 golden_lossy_config());
  ASSERT_EQ(fresh.size(), bytes.size());
  ASSERT_EQ(std::memcmp(fresh.data() + huff_at + 8, "PHF4", 4), 0);
  EXPECT_EQ(lossy::decompress_field(fresh).values, back.values);
}

TEST(Golden, FrozenPhf3DecodesToTheSameSymbols) {
  const std::span<const u8> bytes(testdata::kGoldenPhf3,
                                  sizeof(testdata::kGoldenPhf3));
  ASSERT_EQ(fnv1a(bytes), testdata::kGoldenPhf3Digest);
  ASSERT_EQ(std::memcmp(bytes.data(), "PHF3", 4), 0);
  const Compressed<u8> blob = deserialize<u8>(bytes);
  ASSERT_TRUE(blob.stream.has_gaps());
  ASSERT_TRUE(blob.stream.has_rle());
  EXPECT_EQ(blob.stream.gap_subseq_bits, 1024u);
  EXPECT_EQ(blob.stream.gaps.size(), 23u);
  EXPECT_EQ(blob.stream.rle_symbol, 128u);
  EXPECT_EQ(blob.stream.rle_run_pos.size(), 1u);
  EXPECT_EQ(blob.stream.rle_orig_symbols, 9216u);
  const std::vector<u8> symbols = decompress(blob);  // the gap-array tier
  EXPECT_EQ(symbols.size(), 2880u);
  EXPECT_EQ(fnv1a(symbols), testdata::kGoldenPhf3SymbolsDigest)
      << "the PHF3 reader decodes the frozen bytes to different symbols "
         "(new digest: 0x" << std::hex << fnv1a(symbols) << ")";
  EXPECT_EQ(decode_stream<u8>(blob.stream, blob.codebook, 1), symbols);

  // Written again it is a PHF4 container of the same size that reads back
  // to the same stream, fields included.
  const std::vector<u8> again = serialize(blob);
  ASSERT_EQ(std::memcmp(again.data(), "PHF4", 4), 0);
  EXPECT_EQ(again.size(), bytes.size());
  const Compressed<u8> back = deserialize<u8>(again);
  EXPECT_EQ(back.stream.gaps, blob.stream.gaps);
  EXPECT_EQ(back.stream.gap_counts, blob.stream.gap_counts);
  EXPECT_EQ(back.stream.rle_run_pos, blob.stream.rle_run_pos);
  EXPECT_EQ(back.stream.rle_run_len, blob.stream.rle_run_len);
  EXPECT_EQ(decompress(back), symbols);
}

TEST(Golden, RleFieldByteLayoutIsPinned) {
  // Walk the PHL3 container and its serialized RLE1 field by hand, offset
  // arithmetic and all — this is the byte-layout contract readers of
  // every future version must honor. PHL3: "PHL3" | u64 nx, ny, nz |
  // f64 eb | u32 nbins | u8 sym_bytes | f32 anchor | u64 n_outliers |
  // {u32 index, f32 value}[n] | u64 huff_len | embedded container. RLE1:
  // tag 'RLE1' | u64 len | { u32 run_symbol | u64 orig_symbols |
  // u64 n_runs | u64 pos[n] asc | u32 len[n] } | u64 container_digest.
  const data::Dims dims{24, 24, 16};
  lossy::FusedConfig cfg;
  cfg.abs_error_bound = 0.01;
  cfg.nbins = 256;
  cfg.rle_min_run = 64;
  lossy::FusedReport rep;
  const auto bytes =
      lossy::compress_field_fused(golden_field(dims), dims, cfg, &rep);

  const auto get = [&](std::size_t at, auto value) {
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    return value;
  };
  ASSERT_EQ(std::memcmp(bytes.data(), "PHL3", 4), 0);
  EXPECT_EQ(get(4, u64{}), dims.nx);
  EXPECT_EQ(get(12, u64{}), dims.ny);
  EXPECT_EQ(get(20, u64{}), dims.nz);
  EXPECT_EQ(get(28, double{}), rep.error_bound);
  EXPECT_EQ(get(36, u32{}), cfg.nbins);
  EXPECT_EQ(get(40, u8{}), 1);  // u8 residual alphabet
  EXPECT_EQ(get(41, float{}), golden_field(dims)[0]);  // the first finite value
  EXPECT_EQ(get(45, u64{}), rep.outliers);
  const std::size_t huff_at = 53 + rep.outliers * 8;
  ASSERT_LE(huff_at + 12, bytes.size());
  EXPECT_EQ(huff_at + 8 + get(huff_at, u64{}), bytes.size());
  ASSERT_EQ(std::memcmp(bytes.data() + huff_at + 8, "PHF4", 4), 0);

  static constexpr u8 kTag[4] = {'R', 'L', 'E', '1'};
  const auto it =
      std::search(bytes.begin() + static_cast<std::ptrdiff_t>(huff_at),
                  bytes.end(), std::begin(kTag), std::end(kTag));
  ASSERT_NE(it, bytes.end());
  const std::size_t tag_at = static_cast<std::size_t>(it - bytes.begin());

  u64 field_len = 0;
  std::memcpy(&field_len, bytes.data() + tag_at + 4, 8);
  const std::size_t payload_at = tag_at + 12;
  ASSERT_LE(payload_at + field_len + 8, bytes.size());

  u32 run_symbol = 0;
  u64 orig_symbols = 0, n_runs = 0;
  std::memcpy(&run_symbol, bytes.data() + payload_at, 4);
  std::memcpy(&orig_symbols, bytes.data() + payload_at + 4, 8);
  std::memcpy(&n_runs, bytes.data() + payload_at + 12, 8);
  EXPECT_EQ(run_symbol, cfg.nbins / 2);  // the perfect-prediction code
  EXPECT_EQ(orig_symbols, dims.total());
  EXPECT_EQ(n_runs, rep.rle_runs);
  EXPECT_EQ(field_len, 20 + n_runs * 12);  // fixed part + pos[] + len[]

  // Runs: ascending, non-overlapping, each >= rle_min_run, summing to the
  // report's extracted-symbol count.
  u64 prev_end = 0, total_run = 0;
  for (u64 i = 0; i < n_runs; ++i) {
    u64 pos = 0;
    u32 len = 0;
    std::memcpy(&pos, bytes.data() + payload_at + 20 + i * 8, 8);
    std::memcpy(&len, bytes.data() + payload_at + 20 + n_runs * 8 + i * 4, 4);
    EXPECT_GE(len, cfg.rle_min_run);
    if (i > 0) {
      EXPECT_GE(pos, prev_end);
    }
    prev_end = pos + len;
    total_run += len;
  }
  EXPECT_EQ(total_run, rep.rle_run_symbols);
  EXPECT_LE(prev_end, orig_symbols);

  // The per-field digest is container_digest over the payload alone.
  u64 stored = 0;
  std::memcpy(&stored, bytes.data() + payload_at + field_len, 8);
  const std::span<const u8> payload(bytes.data() + payload_at, field_len);
  EXPECT_EQ(stored, container_digest(payload));
  EXPECT_NE(stored, fnv1a(payload));
}

TEST(Golden, Phf4WithoutRleStaysByteIdentical) {
  // A gap-annotated container that carries no RLE field has one field and
  // no trace of RLE1: same magic, same field count, same digest on every
  // build.
  PipelineConfig cfg;
  cfg.nbins = 16;
  cfg.magnitude = 8;
  cfg.encoder = EncoderKind::kReduceShuffleSimt;
  cfg.reduce_factor = 2;
  cfg.gap_subseq_bits = 1024;
  const auto input = golden_input();
  const auto bytes = serialize(compress<u8>(input, cfg));
  ASSERT_EQ(std::memcmp(bytes.data(), "PHF4", 4), 0);
  EXPECT_EQ(decompress(deserialize<u8>(bytes)), input);

  // No RLE1 tag anywhere in the container.
  static constexpr u8 kTag[4] = {'R', 'L', 'E', '1'};
  EXPECT_EQ(std::search(bytes.begin(), bytes.end(), std::begin(kTag),
                        std::end(kTag)),
            bytes.end());

  const u64 digest = fnv1a(bytes);
  constexpr u64 kGoldenDigest = 0x2b0941b38d11f6e9ull;
  if (kGoldenDigest != 0) {
    EXPECT_EQ(digest, kGoldenDigest)
        << "PHF4-without-RLE bytes changed — the optional-field evolution "
           "rule is violated (new value: 0x" << std::hex << digest << ")";
  } else {
    std::printf("golden phf4 digest: 0x%016llx size=%zu\n",
                static_cast<unsigned long long>(digest), bytes.size());
  }
}

TEST(Golden, HotSwappedBookSerializesIdenticallyToColdBuild) {
  // The adaptive lifecycle's hot-swap path (svc/codebook_manager.hpp)
  // feeds build_codebook a rounded snapshot of its traffic window. With
  // window_decay = 0 the window IS the last batch's integral histogram,
  // and round_window() must hand it back exactly — so the swapped-in book,
  // encoded and gap-annotated into a PHF4 container, must serialize byte
  // for byte like a book built cold from the same histogram. Any rounding
  // or normalization sneaking into the swap path breaks this pin.
  PipelineConfig cfg;
  cfg.nbins = 64;
  cfg.codebook = CodebookKind::kSerialTree;
  proptest::DriftSpec spec;
  const proptest::DriftSource src(spec, proptest::case_seed(0x901dful, 1));
  const std::vector<u64> h0 = src.histogram(0);
  const std::vector<u64> last = src.histogram(spec.batches - 1);

  svc::AdaptivePolicy policy;
  policy.enabled = true;
  policy.window_decay = 0;  // window == latest batch, exactly integral
  policy.min_window_symbols = 256;
  policy.divergence_high_bits = 0.02;
  policy.divergence_low_bits = 0.01;
  policy.max_rebuilds_per_period = 0;

  svc::CodebookCache cache;
  WorkStealExecutor pool(2);
  util::VirtualClock vc;
  svc::CodebookManager mgr(policy, cache, pool, vc);
  const svc::Fingerprint fp =
      svc::fingerprint_histogram(h0, svc::cache_seed(cfg));
  const auto book0 = std::make_shared<const Codebook>(build_codebook(h0, cfg));
  cache.insert(fp, book0);
  mgr.observe(fp, h0, book0, cfg, false);
  mgr.observe(fp, last, book0, cfg, true);
  mgr.quiesce();
  ASSERT_EQ(mgr.counters().rebuilds_applied, 1u);
  const std::shared_ptr<const Codebook> swapped = cache.find(fp);
  ASSERT_NE(swapped, nullptr);
  ASSERT_NE(swapped.get(), book0.get()) << "the swap never landed";

  const Codebook cold = build_codebook(last, cfg);
  const std::vector<u16> data = src.batch<u16>(spec.batches - 1);
  auto container_bytes = [&](const Codebook& cb) {
    Compressed<u16> blob;
    blob.codebook = cb;
    blob.stream = encode_reduceshuffle_simt<u16>(
        data, cb, ReduceShuffleConfig{8, 2}, nullptr, nullptr);
    annotate_gaps(blob.stream, cb, 1024);
    return serialize(blob);
  };
  const std::vector<u8> hot = container_bytes(*swapped);
  const std::vector<u8> cold_bytes = container_bytes(cold);
  ASSERT_EQ(std::memcmp(hot.data(), "PHF4", 4), 0);
  EXPECT_EQ(hot, cold_bytes)
      << "hot-swapped book's container diverged from the cold build";
  EXPECT_EQ(decompress(deserialize<u16>(hot), 2), data);
}

}  // namespace
}  // namespace parhuff
