// Figure 3 reproduction: the average-bitwidth → reduction-factor decision.
// For each dataset: measured avg codeword bitwidth, the expected merged
// width β·2^r for candidate r, which r the rule picks, and why (the
// merged word must land in [W/2, W) for W = 32).

#include "common.hpp"
#include "core/entropy.hpp"
#include "core/histogram.hpp"
#include "core/tree.hpp"
#include "data/quant.hpp"

int main(int argc, char** argv) {
  using namespace parhuff;
  bench::Driver run("fig3", argc, argv);
  bench::banner("FIGURE 3: reduction-factor decision from average bitwidth");

  TextTable t("merged bitwidth beta*2^r per candidate r (W = 32 bits)");
  t.header({"dataset", "entropy", "avg bits", "r=1", "r=2", "r=3", "r=4",
            "r=5", "rule r", "used r (paper)"});

  for (const auto& info : data::paper_datasets()) {
    const auto ds =
        data::generate(info.name, bench::scaled_bytes(info.paper_bytes), 13);
    std::vector<u64> freq;
    double avg = 0, ent = 0;
    if (info.width == data::SymbolWidth::kByte) {
      freq = histogram_serial<u8>(ds.bytes8, 256);
    } else {
      freq = histogram_serial<u16>(ds.syms16, 1024);
    }
    const Codebook cb = build_codebook_serial(freq);
    avg = cb.average_bits(freq);
    ent = shannon_entropy(freq);

    std::vector<std::string> row = {info.name, fmt(ent, 4), fmt(avg, 4)};
    const u32 rule = reduce_factor_rule(avg);
    for (u32 r = 1; r <= 5; ++r) {
      const double w = merged_bitwidth(avg, r);
      std::string cell = fmt(w, 1);
      if (r == rule) cell += " <";       // rule's pick
      else if (w >= 32.0) cell += " !";  // would overflow the cell
      row.push_back(cell);
    }
    row.push_back(std::to_string(rule));
    row.push_back(std::to_string(info.paper_reduce_factor));
    t.row(row);
    obs::Json merged = obs::Json::object();
    for (u32 r = 1; r <= 5; ++r) {
      // Appended rather than `"r" + to_string(r)`: GCC 12 reports a false
      // -Wrestrict overlap on that concatenation at -O3.
      std::string key = "r";
      key += std::to_string(r);
      merged.set(key, merged_bitwidth(avg, r));
    }
    run.record(obs::Json::object()
                   .set("dataset", info.name)
                   .set("entropy_bits", ent)
                   .set("avg_bits", avg)
                   .set("merged_bitwidth", std::move(merged))
                   .set("rule_r", rule)
                   .set("paper_r", info.paper_reduce_factor));
  }
  t.print();

  std::printf(
      "\n'<' marks the rule's choice (floor(log beta) + r + 1 = log W: the\n"
      "merged codeword expected in [16, 32) bits); '!' marks factors that\n"
      "would overflow the 32-bit cell. The paper caps the deployed r at 3\n"
      "(Table II shows M=10, r=3 beating r=4 on Nyx-Quant because breaking\n"
      "handling outweighs the bandwidth gain).\n");
  return run.finish();
}
