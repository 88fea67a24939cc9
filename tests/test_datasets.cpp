// Dataset generators: determinism, size contracts, and entropy profiles in
// the band of the paper's measured average bitwidths (Table V).
#include <gtest/gtest.h>

#include <ostream>

#include "core/entropy.hpp"
#include "core/histogram.hpp"
#include "data/datasets.hpp"
#include "data/dnagen.hpp"
#include "data/synth_hist.hpp"

namespace parhuff {
namespace {

double byte_entropy(const std::vector<u8>& bytes) {
  const auto h = histogram_serial<u8>(bytes, 256);
  return shannon_entropy(h);
}

struct ProfileCase {
  const char* name;
  double lo, hi;  // acceptable entropy band around the paper's avg bits
};

// Printed by name and band, not as raw bytes: the bytes hold a pointer,
// and gtest puts the printed parameter into each test's name.
std::ostream& operator<<(std::ostream& os, const ProfileCase& pc) {
  return os << pc.name << " (" << pc.lo << ", " << pc.hi << ")";
}

class DatasetProfile : public ::testing::TestWithParam<ProfileCase> {};

TEST_P(DatasetProfile, EntropyInPaperBand) {
  const auto& pc = GetParam();
  const auto ds = data::generate(pc.name, 2 * MiB, 7);
  ASSERT_FALSE(ds.bytes8.empty());
  const double ent = byte_entropy(ds.bytes8);
  EXPECT_GT(ent, pc.lo) << pc.name;
  EXPECT_LT(ent, pc.hi) << pc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, DatasetProfile,
    ::testing::Values(ProfileCase{"ENWIK8", 4.2, 5.8},
                      ProfileCase{"ENWIK9", 4.2, 5.8},
                      ProfileCase{"MR", 3.0, 5.0},
                      ProfileCase{"NCI", 1.9, 3.6},
                      ProfileCase{"FLAN_1565", 3.2, 5.0}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Datasets, SizesExact) {
  for (const char* name : {"ENWIK8", "MR", "NCI", "FLAN_1565"}) {
    const auto ds = data::generate(name, 123456, 1);
    EXPECT_EQ(ds.bytes8.size(), 123456u) << name;
  }
  const auto nyx = data::generate("NYX-QUANT", 100000, 1);
  EXPECT_EQ(nyx.syms16.size(), 50000u);
}

TEST(Datasets, Deterministic) {
  const auto a = data::generate("NCI", 50000, 42);
  const auto b = data::generate("NCI", 50000, 42);
  const auto c = data::generate("NCI", 50000, 43);
  EXPECT_EQ(a.bytes8, b.bytes8);
  EXPECT_NE(a.bytes8, c.bytes8);
}

TEST(Datasets, UnknownNameThrows) {
  EXPECT_THROW((void)data::generate("NOPE", 100, 1), std::invalid_argument);
}

TEST(Datasets, RegistryHasSixPaperRows) {
  const auto& reg = data::paper_datasets();
  ASSERT_EQ(reg.size(), 6u);
  EXPECT_EQ(reg[0].name, "ENWIK8");
  EXPECT_EQ(reg[5].name, "NYX-QUANT");
  for (const auto& d : reg) {
    EXPECT_GT(d.paper_avg_bits, 0.5);
    EXPECT_GT(d.paper_encode_v100, d.paper_encode_rtx);
  }
}

TEST(Kmer, PackUnpackRoundTrip) {
  const auto bytes = data::generate_genbank(100000, 9);
  for (unsigned k : {3u, 4u, 5u}) {
    const auto s = data::kmer_pack(bytes, k);
    EXPECT_EQ(s.symbols.size(), (bytes.size() + k - 1) / k);
    EXPECT_GE(s.nbins, s.distinct);
    const auto back = data::kmer_unpack(s, k, bytes.size());
    EXPECT_EQ(back, bytes) << "k=" << k;
  }
}

TEST(Kmer, AlphabetGrowsWithK) {
  const auto bytes = data::generate_genbank(2 * MiB, 5);
  const auto s3 = data::kmer_pack(bytes, 3);
  const auto s4 = data::kmer_pack(bytes, 4);
  const auto s5 = data::kmer_pack(bytes, 5);
  EXPECT_LT(s3.distinct, s4.distinct);
  EXPECT_LT(s4.distinct, s5.distinct);
  // The Table III regime: thousands of symbols by k=4..5.
  EXPECT_GT(s4.distinct, 1000u);
  EXPECT_GT(s5.distinct, 2000u);
}

TEST(Kmer, RejectsBadK) {
  const std::vector<u8> bytes = {1, 2, 3};
  EXPECT_THROW((void)data::kmer_pack(bytes, 0), std::invalid_argument);
  EXPECT_THROW((void)data::kmer_pack(bytes, 9), std::invalid_argument);
}

TEST(SynthHist, ShapesAndSizes) {
  const auto n = data::normal_histogram(4096, 1 << 24, 1);
  EXPECT_EQ(n.size(), 4096u);
  for (u64 f : n) EXPECT_GE(f, 1u);
  // Normal: center bins dominate edges.
  EXPECT_GT(n[2048], n[10] * 4);

  const auto e = data::exponential_histogram(32, 2.0, 1);
  EXPECT_LT(e[0], e[31]);

  const auto z = data::zipf_histogram(1000, 1.2, 1 << 22, 1);
  EXPECT_EQ(z.size(), 1000u);

  const auto km = data::kmer_like_histogram(2048, 1 << 22, 1);
  std::size_t populated = 0;
  for (u64 f : km) populated += f > 0 ? 1 : 0;
  EXPECT_EQ(populated, 2048u);  // exactly nbins populated symbols
}

}  // namespace
}  // namespace parhuff
