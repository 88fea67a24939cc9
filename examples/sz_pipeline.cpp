// Error-bounded lossy compression of a scientific field — the paper's
// motivating scenario (§I): a cuSZ-style pipeline where Huffman encoding of
// multi-byte quantization codes is the throughput-critical stage. Uses the
// fused parhuff::lossy compressor (one pass of prediction + quantization +
// histogram + run extraction, then Huffman + container) end to end and
// verifies the exact error bound on the reconstruction.
//
// Run: ./sz_pipeline [rel_error_bound]

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "data/quant.hpp"
#include "lossy/fused.hpp"
#include "perf/gpu_model.hpp"
#include "simt/spec.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace parhuff;
  const double rel_eb = argc > 1 ? std::atof(argv[1]) : 1e-2;

  const data::Dims dims{192, 192, 128};
  std::printf("generating %zux%zux%zu cosmology-like field (%s of f32)...\n\n",
              dims.nx, dims.ny, dims.nz,
              fmt_bytes(dims.total() * sizeof(float)).c_str());
  const auto field = data::generate_cosmo_field(dims, 2027);

  lossy::FusedConfig cfg;
  cfg.rel_error_bound = rel_eb;
  cfg.pipeline.encoder = EncoderKind::kAdaptiveSimt;
  lossy::FusedReport rep;
  const auto bytes = lossy::compress_field_fused(field, dims, cfg, &rep);

  TextTable t("cuSZ-style lossy compression");
  t.header({"stage", "result"});
  t.row({"abs error bound", fmt(rep.error_bound, 6)});
  t.row({"predict + quantize (host)",
         fmt(rep.quantize_seconds * 1e3, 1) + " ms"});
  t.row({"outliers", std::to_string(rep.outliers)});
  t.row({"run-length symbols", std::to_string(rep.rle_run_symbols) + " in " +
                                   std::to_string(rep.rle_runs) + " runs"});
  t.row({"huffman-coded symbols", std::to_string(rep.residual_symbols)});
  t.row({"avg codeword", fmt(rep.huffman.avg_bits, 4) + " bits"});
  t.row({"huffman encode (host)",
         fmt(rep.huffman.encode_seconds * 1e3, 1) + " ms"});
  t.row({"huffman encode (modeled V100)",
         fmt(perf::modeled_gbps(rep.residual_symbols * sizeof(u16),
                                rep.huffman.encode_tally,
                                simt::DeviceSpec::v100()),
             1) +
             " GB/s"});
  t.row({"float size", fmt_bytes(rep.raw_bytes)});
  t.row({"compressed", fmt_bytes(rep.compressed_bytes)});
  t.row({"overall ratio", fmt(rep.ratio(), 1) + "x"});
  t.print();

  // Decompress and verify the bound end to end.
  const auto back = lossy::decompress_field(bytes);
  double worst = 0;
  for (std::size_t i = 0; i < field.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(field[i]) -
                                     static_cast<double>(back.values[i])));
  }
  const bool within = worst <= rep.error_bound;
  std::printf("\nmax reconstruction error: %.4g (bound %.4g) — %s\n", worst,
              rep.error_bound, within ? "WITHIN BOUND" : "VIOLATED");
  return within ? 0 : 1;
}
