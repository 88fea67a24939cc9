// Decoder-tier comparison across the paper's six datasets (docs/decode.md):
//   bit-serial — decode_symbols chunk by chunk, one thread (the reference)
//   host       — decode_stream pinned to one thread: the table-driven,
//                4-lane interleaved core every tier runs on
//   self-sync  — CUHD-style kernel: tentative decode + Jacobi sync passes
//   gap-array  — Rivera-style kernel driven by encoder-recorded metadata
// The streams are identical (serial encoder, no overflow groups), so the
// comparison isolates the decode algorithm. GPU columns are modeled from
// the simulator tallies on the V100 spec; host columns are measured. The
// self-sync decoder pays ~3 bit-serial walks over the payload where the
// gap array pays one, which is the whole story the table tells.
//
// Emits BENCH_decode.json (parhuff-metrics-v1): one record per dataset
// with the modeled/measured throughput of each tier, speedup_vs_selfsync
// (modeled) and host_speedup_vs_bitserial (measured), plus the global
// registry snapshot carrying the decode.* counters and stage timers
// accumulated through decode_auto.

#include "common.hpp"
#include "core/decode.hpp"
#include "core/decode_gaparray.hpp"
#include "core/decode_selfsync.hpp"
#include "core/encode_serial.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"

namespace parhuff {
namespace {

constexpr int kReps = 3;
constexpr u32 kChunkSymbols = 4096;

template <typename Sym>
void run_case(bench::Driver& run, TextTable& t, const data::DatasetInfo& info,
              const std::vector<Sym>& syms) {
  const std::size_t bytes = syms.size() * sizeof(Sym);
  const auto freq = histogram_serial<Sym>(syms, info.nbins);
  const Codebook cb = build_codebook_serial(freq);
  auto enc = encode_serial<Sym>(syms, cb, kChunkSymbols);
  annotate_gaps(enc, cb, kDefaultGapSubseqBits);
  const double meta_overhead =
      static_cast<double>(enc.gaps.size() + 2 * enc.gap_counts.size()) /
      static_cast<double>(enc.payload.size() * sizeof(word_t));

  // --- Bit-serial reference and host tier: measured, one thread. ---------
  std::vector<Sym> bitserial(syms.size());
  double bitserial_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    Timer tm;
    for (std::size_t c = 0; c < enc.chunks(); ++c) {
      BitReader br = enc.chunk_reader(c);
      decode_symbols(br, cb, enc.chunk_size(c),
                     bitserial.data() + c * enc.chunk_symbols);
    }
    bitserial_s = std::min(bitserial_s, tm.seconds());
  }
  if (bitserial != syms) std::exit(1);
  double host_s = 1e30;
  if (decode_stream<Sym>(enc, cb, 1) != syms) std::exit(1);
  for (int r = 0; r < kReps; ++r) {
    Timer tm;
    (void)decode_stream<Sym>(enc, cb, 1);
    host_s = std::min(host_s, tm.seconds());
  }

  // --- Self-sync tier: modeled from one tallied run, timed without. ------
  simt::MemTally ss_tally;
  SelfSyncStats ss_st;
  if (decode_selfsync<Sym>(enc, cb, {}, &ss_tally, &ss_st) != syms) {
    std::exit(1);
  }
  double selfsync_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    Timer tm;
    (void)decode_selfsync<Sym>(enc, cb, {});
    selfsync_s = std::min(selfsync_s, tm.seconds());
  }
  const double ss_gbps = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull,
                                               ss_tally, bench::v100());

  // --- Gap-array tier: modeled likewise; timed through decode_auto so the
  // document's registry snapshot carries the decode.* counters/stages. ----
  simt::MemTally ga_tally;
  GapArrayStats ga_st;
  if (decode_gaparray<Sym>(enc, cb, &ga_tally, &ga_st) != syms) std::exit(1);
  double gaparray_s = 1e30;
  for (int r = 0; r < kReps; ++r) {
    Timer tm;
    (void)decode_auto<Sym>(enc, cb);
    gaparray_s = std::min(gaparray_s, tm.seconds());
  }
  const double ga_gbps = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull,
                                               ga_tally, bench::v100());

  const double gb = static_cast<double>(bytes) / 1e9;
  const double speedup = ga_gbps / ss_gbps;
  t.row({info.name, fmt(gb / bitserial_s, 2), fmt(gb / host_s, 2),
         fmt(bitserial_s / host_s, 2) + "x", fmt(ss_gbps, 1),
         fmt(gb / selfsync_s, 2), fmt(ga_gbps, 1), fmt(gb / gaparray_s, 2),
         fmt(speedup, 2) + "x", fmt_pct(meta_overhead, 2)});
  run.record(
      obs::Json::object()
          .set("dataset", info.name)
          .set("input_bytes", static_cast<u64>(bytes))
          .set("bitserial_host_gbps", gb / bitserial_s)
          .set("host_gbps", gb / host_s)
          .set("host_speedup_vs_bitserial", bitserial_s / host_s)
          .set("selfsync_v100_gbps", ss_gbps)
          .set("selfsync_host_gbps", gb / selfsync_s)
          .set("selfsync_sync_passes", ss_st.sync_passes)
          .set("gaparray_v100_gbps", ga_gbps)
          .set("gaparray_host_gbps", gb / gaparray_s)
          .set("gaparray_subsequences", ga_st.subsequences)
          .set("gaparray_fallback_chunks", ga_st.fallback_chunks)
          .set("gap_metadata_overhead", meta_overhead)
          .set("speedup_vs_selfsync", speedup));
}

}  // namespace
}  // namespace parhuff

int main(int argc, char** argv) {
  using namespace parhuff;
  bench::Driver run("decode", argc, argv);
  bench::banner(
      "Decode tiers: bit-serial vs host vs self-sync vs gap-array "
      "(docs/decode.md)");
  run.config()
      .set("chunk_symbols", static_cast<u64>(kChunkSymbols))
      .set("gap_subseq_bits", static_cast<u64>(kDefaultGapSubseqBits))
      .set("reps", static_cast<u64>(kReps));

  TextTable t("decode throughput by tier (six paper datasets)");
  t.header({"dataset", "bit-serial host GB/s", "host GB/s",
            "host vs bit-serial", "self-sync V100 GB/s",
            "self-sync host GB/s", "gap-array V100 GB/s",
            "gap-array host GB/s", "gap vs self-sync", "meta overhead"});
  for (const auto& info : data::paper_datasets()) {
    const auto ds =
        data::generate(info.name, bench::scaled_bytes(info.paper_bytes), 1);
    if (ds.info.width == data::SymbolWidth::kByte) {
      run_case<u8>(run, t, ds.info, ds.bytes8);
    } else {
      run_case<u16>(run, t, ds.info, ds.syms16);
    }
  }
  t.print();
  std::printf(
      "\nThe modeled gap (one payload walk vs the self-sync decoder's\n"
      "tentative + correction + emit walks) is the Rivera et al. result;\n"
      "metadata costs ~%u bits per %u-bit subsequence on the wire.\n",
      24u, kDefaultGapSubseqBits);
  return run.finish();
}
