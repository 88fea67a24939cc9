// Ablations of the design choices DESIGN.md calls out (extensions beyond
// the paper's tables, clearly labeled):
//   A. Fixed global reduce factor (Fig. 3 rule) vs adaptive per-chunk
//      factors (§VII future work) on locally-varying data.
//   B. Cell width: the paper's uint32_t cells vs uint64_t cells.
//   C. Histogram shared-memory replication degree (Gómez-Luna's knob).
//   D. Decode throughput of the chunk-parallel decoder across chunk sizes.

#include "common.hpp"
#include "core/decode.hpp"
#include "core/decode_selfsync.hpp"
#include "core/decode_simt.hpp"
#include "core/encode_adaptive.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/entropy.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

std::vector<u16> bimodal_stream(std::size_t n, u64 seed) {
  Xoshiro256 rng(seed);
  std::vector<u16> v;
  v.reserve(n);
  while (v.size() < n) {
    const std::size_t calm = 2000 + rng.below(4000);
    for (std::size_t i = 0; i < calm && v.size() < n; ++i) {
      v.push_back(static_cast<u16>(rng.below(3)));
    }
    const std::size_t burst = 500 + rng.below(2000);
    for (std::size_t i = 0; i < burst && v.size() < n; ++i) {
      v.push_back(static_cast<u16>(3 + rng.below(1021)));
    }
  }
  return v;
}

void ablation_adaptive(bench::Driver& run) {
  const std::size_t n = 4u << 20;
  struct Input {
    const char* name;
    std::vector<u16> syms;
  };
  std::vector<Input> inputs;
  inputs.push_back({"nyx-quant (uniform stats)", data::generate_nyx_quant(n, 1)});
  inputs.push_back({"bimodal calm/burst", bimodal_stream(n, 2)});

  TextTable t("A. fixed (Fig. 3) vs adaptive per-chunk reduce factor");
  t.header({"input", "scheme", "breaking", "compressed KB",
            "modeled V100 GB/s"});
  for (auto& in : inputs) {
    const auto freq = histogram_serial<u16>(in.syms, 1024);
    const Codebook cb = build_codebook_serial(freq);
    const double avg = average_bitwidth(cb, freq);
    const std::size_t bytes = in.syms.size() * 2;
    {
      simt::MemTally tally;
      ReduceShuffleStats st;
      const auto enc = encode_reduceshuffle_simt<u16>(
          in.syms, cb,
          ReduceShuffleConfig{10, decide_reduce_factor(avg, 10)}, &tally,
          &st);
      if (decode_stream<u16>(enc, cb, 0) != in.syms) std::exit(1);
      const double g = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull,
                                             tally, bench::v100());
      t.row({in.name, "fixed r", fmt_pct(enc.breaking_fraction(), 4),
             fmt(static_cast<double>(enc.stored_bytes()) / 1e3, 0),
             fmt(g, 1)});
      run.record(obs::Json::object()
                     .set("ablation", "adaptive_reduce")
                     .set("input", in.name)
                     .set("scheme", "fixed_r")
                     .set("breaking_fraction", enc.breaking_fraction())
                     .set("compressed_bytes",
                          static_cast<u64>(enc.stored_bytes()))
                     .set("v100_gbps", g));
    }
    {
      simt::MemTally tally;
      AdaptiveStats st;
      const auto enc =
          encode_adaptive_simt<u16, 32>(in.syms, cb, {}, &tally, &st);
      if (decode_stream<u16>(enc, cb, 0) != in.syms) std::exit(1);
      const double g = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull,
                                             tally, bench::v100());
      t.row({in.name, "adaptive r", fmt_pct(enc.breaking_fraction(), 4),
             fmt(static_cast<double>(enc.stored_bytes()) / 1e3, 0),
             fmt(g, 1)});
      run.record(obs::Json::object()
                     .set("ablation", "adaptive_reduce")
                     .set("input", in.name)
                     .set("scheme", "adaptive_r")
                     .set("breaking_fraction", enc.breaking_fraction())
                     .set("compressed_bytes",
                          static_cast<u64>(enc.stored_bytes()))
                     .set("v100_gbps", g));
    }
  }
  t.print();
  std::printf("\n");
}

void ablation_width(bench::Driver& run) {
  // Nyx-Quant at an aggressive pinned r = 5 (32 symbols/group, expected
  // ~33 merged bits): right at the uint32 cell boundary, where the wider
  // cell shows its value.
  const auto syms = data::generate_nyx_quant(4u << 20, 7);
  const auto freq = histogram_serial<u16>(syms, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const std::size_t bytes = syms.size() * 2;

  TextTable t("B. merge-cell width (pinned r = 5 on Nyx-Quant)");
  t.header({"width", "breaking", "payload KB", "modeled V100 GB/s"});
  AdaptiveConfig pinned;
  pinned.min_reduce = pinned.max_reduce = 5;
  {
    simt::MemTally tally;
    AdaptiveStats st;
    const auto enc =
        encode_adaptive_simt<u16, 32>(syms, cb, pinned, &tally, &st);
    if (decode_stream<u16>(enc, cb, 0) != syms) std::exit(1);
    const double g = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull, tally,
                                           bench::v100());
    t.row({"uint32 (paper)", fmt_pct(enc.breaking_fraction(), 4),
           fmt(static_cast<double>(enc.stored_bytes()) / 1e3, 0), fmt(g, 1)});
    run.record(obs::Json::object()
                   .set("ablation", "cell_width")
                   .set("width_bits", 32)
                   .set("breaking_fraction", enc.breaking_fraction())
                   .set("compressed_bytes", static_cast<u64>(enc.stored_bytes()))
                   .set("v100_gbps", g));
  }
  {
    simt::MemTally tally;
    AdaptiveStats st;
    const auto enc =
        encode_adaptive_simt<u16, 64>(syms, cb, pinned, &tally, &st);
    if (decode_stream<u16>(enc, cb, 0) != syms) std::exit(1);
    const double g = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull, tally,
                                           bench::v100());
    t.row({"uint64", fmt_pct(enc.breaking_fraction(), 4),
           fmt(static_cast<double>(enc.stored_bytes()) / 1e3, 0), fmt(g, 1)});
    run.record(obs::Json::object()
                   .set("ablation", "cell_width")
                   .set("width_bits", 64)
                   .set("breaking_fraction", enc.breaking_fraction())
                   .set("compressed_bytes", static_cast<u64>(enc.stored_bytes()))
                   .set("v100_gbps", g));
  }
  t.print();
  std::printf("\n");
}

void ablation_histogram(bench::Driver& run) {
  const auto text = data::generate_text(8u << 20, 3);
  TextTable t("C. histogram shared-memory replication degree");
  t.header({"budget KiB", "replicas", "modeled V100 GB/s",
            "shared atomic conflicts / sym"});
  for (const std::size_t kib : {1, 2, 4, 8, 48}) {
    SimtHistogramConfig cfg;
    cfg.shared_budget_bytes = kib * 1024;
    simt::MemTally tally;
    const auto h = histogram_simt_kernel<u8>(text, 256, &tally, cfg);
    u64 total = 0;
    for (u64 f : h) total += f;
    if (total != text.size()) std::exit(1);
    const std::size_t replicas =
        std::min<std::size_t>(8, cfg.shared_budget_bytes / (256 * 4));
    const double g = perf::modeled_gbps_at(text.size(), 95 * 1000 * 1000ull,
                                           tally, bench::v100());
    const double conflicts = static_cast<double>(tally.shared_atomic_conflicts) /
                             static_cast<double>(text.size());
    t.row({std::to_string(kib), std::to_string(replicas), fmt(g, 1),
           fmt(conflicts, 3)});
    run.record(obs::Json::object()
                   .set("ablation", "histogram_replication")
                   .set("shared_budget_kib", static_cast<u64>(kib))
                   .set("replicas", static_cast<u64>(replicas))
                   .set("v100_gbps", g)
                   .set("shared_atomic_conflicts_per_symbol", conflicts));
  }
  t.print();
  std::printf("\n");
}

void ablation_decode(bench::Driver& run) {
  const auto syms = data::generate_nyx_quant(4u << 20, 9);
  const auto freq = histogram_serial<u16>(syms, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const std::size_t bytes = syms.size() * 2;

  TextTable t("D. decode strategies (extension; not a paper table)");
  t.header({"decoder", "chunk symbols", "modeled V100 GB/s", "host ms",
            "notes"});
  for (const u32 chunk_mag : {10u, 12u}) {
    const auto enc = encode_reduceshuffle_simt<u16>(
        syms, cb, ReduceShuffleConfig{chunk_mag, 3}, nullptr, nullptr);
    {
      simt::MemTally tally;
      Timer timer;
      const auto back = decode_simt<u16>(enc, cb, &tally);
      const double host_ms = timer.millis();
      if (back != syms) std::exit(1);
      const double g = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull,
                                             tally, bench::v100());
      t.row({"thread-per-chunk", std::to_string(1u << chunk_mag), fmt(g, 1),
             fmt(host_ms, 1), "-"});
      run.record(obs::Json::object()
                     .set("ablation", "decode")
                     .set("decoder", "thread_per_chunk")
                     .set("chunk_symbols", u64{1} << chunk_mag)
                     .set("v100_gbps", g)
                     .set("host_ms", host_ms));
    }
    {
      simt::MemTally tally;
      SelfSyncStats st;
      Timer timer;
      const auto back = decode_selfsync<u16>(enc, cb, {}, &tally, &st);
      const double host_ms = timer.millis();
      if (back != syms) std::exit(1);
      const double g = perf::modeled_gbps_at(bytes, 256 * 1000 * 1000ull,
                                             tally, bench::v100());
      const double passes = static_cast<double>(st.sync_passes) /
                            static_cast<double>(enc.chunks());
      t.row({"self-sync (CUHD-style)", std::to_string(1u << chunk_mag),
             fmt(g, 1), fmt(host_ms, 1), fmt(passes, 1) + " passes/chunk"});
      run.record(obs::Json::object()
                     .set("ablation", "decode")
                     .set("decoder", "self_sync")
                     .set("chunk_symbols", u64{1} << chunk_mag)
                     .set("v100_gbps", g)
                     .set("host_ms", host_ms)
                     .set("sync_passes_per_chunk", passes));
    }
  }
  t.print();
}

}  // namespace
}  // namespace parhuff

int main(int argc, char** argv) {
  using namespace parhuff;
  bench::Driver run("ablation", argc, argv);
  bench::banner("ABLATIONS: adaptive reduce factor, cell width, histogram "
                "replication, decode");
  ablation_adaptive(run);
  ablation_width(run);
  ablation_histogram(run);
  ablation_decode(run);
  return run.finish();
}
