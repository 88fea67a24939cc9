// Google-benchmark microbenchmarks + ablations for the design choices
// DESIGN.md calls out: bitstream throughput, merge-path partitioning,
// histogram privatization degree, codebook construction strategies, and
// the encoders' host-side cost.

#include <benchmark/benchmark.h>

#include <sstream>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "core/bitstream.hpp"
#include "core/decode.hpp"
#include "core/decode_selfsync.hpp"
#include "core/decode_table.hpp"
#include "core/encode_reduceshuffle.hpp"
#include "core/encode_serial.hpp"
#include "core/executor.hpp"
#include "core/histogram.hpp"
#include "core/merge_path.hpp"
#include "core/par_codebook.hpp"
#include "core/sort.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"
#include "data/synth_hist.hpp"
#include "data/textgen.hpp"
#include "util/rng.hpp"

namespace parhuff {
namespace {

// --- Bitstream. -------------------------------------------------------------

void BM_BitWriterPut(benchmark::State& state) {
  const unsigned len = static_cast<unsigned>(state.range(0));
  Xoshiro256 rng(1);
  std::vector<u64> vals(4096);
  for (auto& v : vals) v = rng.next() & ((u64{1} << len) - 1);
  for (auto _ : state) {
    BitWriter bw;
    for (u64 v : vals) bw.put(v, len);
    benchmark::DoNotOptimize(bw.finish());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BitWriterPut)->Arg(1)->Arg(5)->Arg(16)->Arg(31);

void BM_AppendBits(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  std::vector<word_t> src(words_for_bits(bits), 0xA5A5A5A5u);
  std::vector<word_t> dst(words_for_bits(2 * bits) + 2, 0);
  for (auto _ : state) {
    std::fill(dst.begin(), dst.end(), 0);
    append_bits(dst.data(), 13, src.data(), bits);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<i64>(bits / 8));
}
BENCHMARK(BM_AppendBits)->Arg(64)->Arg(1024)->Arg(32768);

// --- Merge path: partition-count ablation. ----------------------------------

void BM_MergePathPartitions(benchmark::State& state) {
  const std::size_t parts = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(2);
  std::vector<u64> a(8192), b(8192);
  for (auto& x : a) x = rng.below(1 << 20);
  for (auto& x : b) x = rng.below(1 << 20);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<u64> out(a.size() + b.size());
  OmpExec exec(0);
  for (auto _ : state) {
    merge_path(
        exec, a.size(), b.size(),
        [&](std::size_t i, std::size_t j) { return a[i] <= b[j]; },
        [&](std::size_t k, bool fa, std::size_t s) {
          out[k] = fa ? a[s] : b[s];
        },
        parts);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_MergePathPartitions)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

// --- Radix sort vs std::sort (the Thrust-substitute justification). ----------

void BM_RadixSort(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Xoshiro256 rng(3);
  std::vector<u64> keys(n);
  std::vector<u32> vals(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = rng.below(u64{1} << 40);
    vals[i] = static_cast<u32>(i);
  }
  for (auto _ : state) {
    auto k = keys;
    auto v = vals;
    radix_sort_by_key(k, v);
    benchmark::DoNotOptimize(k.data());
  }
}
BENCHMARK(BM_RadixSort)->Arg(1024)->Arg(8192)->Arg(65536);

// --- Histogram: the product, the simulated kernel, the serial count. ---------

// What compress() runs: a host count charging the kernel's tally.
void BM_HistogramSimt(benchmark::State& state) {
  const auto data = data::generate_text(4u << 20, 4);
  for (auto _ : state) {
    simt::MemTally tally;
    benchmark::DoNotOptimize(histogram_simt<u8>(data, 256, &tally));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_HistogramSimt);

// The model it charges: the privatized kernel, simulated.
void BM_HistogramSimtKernel(benchmark::State& state) {
  const auto data = data::generate_text(4u << 20, 4);
  for (auto _ : state) {
    simt::MemTally tally;
    benchmark::DoNotOptimize(histogram_simt_kernel<u8>(data, 256, &tally));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_HistogramSimtKernel);

void BM_HistogramSerial(benchmark::State& state) {
  const auto data = data::generate_text(4u << 20, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(histogram_serial<u8>(data, 256));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_HistogramSerial);

// --- Codebook construction strategies. ---------------------------------------

void BM_CodebookSerial(benchmark::State& state) {
  const auto freq = data::normal_histogram(
      static_cast<std::size_t>(state.range(0)), u64{1} << 26, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_codebook_serial(freq));
  }
}
BENCHMARK(BM_CodebookSerial)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_CodebookParallelSeqExec(benchmark::State& state) {
  const auto freq = data::normal_histogram(
      static_cast<std::size_t>(state.range(0)), u64{1} << 26, 1);
  SeqExec exec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_codebook_parallel(exec, freq));
  }
}
BENCHMARK(BM_CodebookParallelSeqExec)->Arg(1024)->Arg(8192)->Arg(65536);

void BM_CodebookParallelOmp(benchmark::State& state) {
  const auto freq = data::normal_histogram(
      static_cast<std::size_t>(state.range(0)), u64{1} << 26, 1);
  OmpExec exec(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_codebook_parallel(exec, freq));
  }
}
BENCHMARK(BM_CodebookParallelOmp)
    ->Args({1024, 2})
    ->Args({8192, 2})
    ->Args({65536, 2});

// --- Encoders (host wall time; the GPU numbers live in bench_table*). ---------

void BM_EncodeSerial(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  for (auto _ : state) {
    benchmark::DoNotOptimize(encode_serial<u16>(codes, cb, 1024));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_EncodeSerial);

void BM_EncodeReduceShuffle(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const ReduceShuffleConfig cfg{10, static_cast<u32>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        encode_reduceshuffle_simt<u16>(codes, cb, cfg, nullptr, nullptr));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_EncodeReduceShuffle)->Arg(2)->Arg(3)->Arg(4);

// The same stream from the host emitter compress() runs. Args: r, and
// whether to charge the kernel's MemTally as compress() does (1) or skip it
// like the kernel benchmark above (0).
void BM_EmitReduceShuffle(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const ReduceShuffleConfig cfg{10, static_cast<u32>(state.range(0))};
  simt::MemTally tally;
  simt::MemTally* charge = state.range(1) != 0 ? &tally : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        emit_reduceshuffle<u16>(codes, cb, cfg, charge, nullptr));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
// Args: r, and whether the kernel's tally is charged (a report was given).
BENCHMARK(BM_EmitReduceShuffle)
    ->ArgNames({"r", "tally"})
    ->Args({2, 0})
    ->Args({2, 1})
    ->Args({3, 0})
    ->Args({3, 1})
    ->Args({4, 0});

void BM_Decode(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const auto enc = encode_serial<u16>(codes, cb, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_stream<u16>(enc, cb, 0));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_Decode);

void BM_DecodeTableDriven(benchmark::State& state) {
  const unsigned k = static_cast<unsigned>(state.range(0));
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const auto enc = encode_serial<u16>(codes, cb, 1024);
  const DecodeTable<u16> table(cb, k);
  std::vector<u16> out(enc.n_symbols);
  // The interleaved core alone, one thread: the chunk plan is built once.
  const std::vector<std::size_t> index = overflow_index(enc);
  SegmentPlan<u16> plan;
  for (std::size_t c = 0; c < enc.chunks(); ++c) {
    plan_chunk(enc, index, c, out.data() + c * enc.chunk_symbols, plan);
  }
  for (auto _ : state) {
    decode_segments(table, plan);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_DecodeTableDriven)->Arg(8)->Arg(kDecodeTableBits)->Arg(12);

// Table construction alone at the production width: arg 0 is an
// enwik-like u8 book, arg 1 the NYX-QUANT u16 book.
void BM_DecodeTableBuild(benchmark::State& state) {
  const auto build = [&]<typename Sym>(const std::vector<Sym>& input,
                                       std::size_t nbins) {
    const Codebook cb =
        build_codebook_serial(histogram_serial<Sym>(input, nbins));
    for (auto _ : state) {
      const DecodeTable<Sym> table(cb);
      benchmark::DoNotOptimize(table.data());
    }
  };
  if (state.range(0) == 0) {
    build(data::generate_text(1u << 20, 5), 256);
  } else {
    build(data::generate_nyx_quant(1u << 20, 5), 1024);
  }
}
BENCHMARK(BM_DecodeTableBuild)->Arg(0)->Arg(1);

// A short decode, table build included: decode_stream of 4 KiB of text,
// the size of a small RPC request.
void BM_DecodeSmall(benchmark::State& state) {
  const auto text = data::generate_text(4096, 5);
  const Codebook cb = build_codebook_serial(histogram_serial<u8>(text, 256));
  const auto enc = encode_serial<u8>(text, cb, 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_stream<u8>(enc, cb, 1));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(text.size()));
}
BENCHMARK(BM_DecodeSmall);

void BM_DecodeSelfSync(benchmark::State& state) {
  const auto codes = data::generate_nyx_quant(1u << 21, 5);
  const auto freq = histogram_serial<u16>(codes, 1024);
  const Codebook cb = build_codebook_serial(freq);
  const auto enc = encode_serial<u16>(codes, cb, 4096);
  for (auto _ : state) {
    benchmark::DoNotOptimize(decode_selfsync<u16>(enc, cb, {}));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<i64>(codes.size() * 2));
}
BENCHMARK(BM_DecodeSelfSync);

}  // namespace
}  // namespace parhuff

// Custom main instead of BENCHMARK_MAIN(): the driver flags
// (--json-out/--no-json/--trace-out) are peeled off before
// benchmark::Initialize sees argv, and the google-benchmark JSON report is
// captured and embedded record-by-record in the parhuff-metrics-v1 envelope
// (BENCH_micro.json) so all bench outputs share one schema.
int main(int argc, char** argv) {
  using namespace parhuff;
  std::vector<char*> ours{argv[0]}, gb_args{argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool takes_value = a == "--json-out" || a == "--trace-out";
    const bool is_ours = takes_value || a == "--no-json" ||
                         a.substr(0, 11) == "--json-out=" ||
                         a.substr(0, 12) == "--trace-out=";
    if (is_ours) {
      ours.push_back(argv[i]);
      if (takes_value && i + 1 < argc) ours.push_back(argv[++i]);
    } else {
      gb_args.push_back(argv[i]);
    }
  }
  bench::Driver run("micro", static_cast<int>(ours.size()), ours.data());

  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) {
    return 1;
  }

  // Under --no-json no document keeps the report, so it goes to the
  // console instead.
  if (!run.emits_json()) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return run.finish();
  }

  // The JSON reporter must be the *display* reporter — a file reporter
  // makes google-benchmark demand --benchmark_out. Its stream is captured
  // so the console keeps quiet and the JSON lands in our document.
  std::ostringstream captured;
  benchmark::JSONReporter json_reporter;
  json_reporter.SetOutputStream(&captured);
  json_reporter.SetErrorStream(&captured);
  benchmark::RunSpecifiedBenchmarks(&json_reporter);
  benchmark::Shutdown();

  try {
    const obs::Json gb = obs::Json::parse(captured.str());
    if (gb.has("context")) run.config().set("google_benchmark", gb.at("context"));
    if (gb.has("benchmarks")) {
      for (const obs::Json& b : gb.at("benchmarks").elements()) run.record(b);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "warning: could not embed google-benchmark JSON: %s\n",
                 e.what());
  }
  return run.finish();
}
