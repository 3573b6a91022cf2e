#include <gtest/gtest.h>

#include <sstream>

#include "util/contracts.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/str.h"
#include "util/table.h"
#include "util/units.h"

namespace h2h {
namespace {

TEST(Contracts, ViolationThrowsWithLocation) {
  try {
    H2H_EXPECTS(1 == 2);
    FAIL() << "expected ContractViolation";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("precondition"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_util.cpp"), std::string::npos);
  }
}

TEST(Contracts, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(H2H_EXPECTS(true));
  EXPECT_NO_THROW(H2H_ENSURES(2 + 2 == 4));
  EXPECT_NO_THROW(H2H_ASSERT(!false));
}

TEST(Units, BinaryMemoryAndDecimalBandwidth) {
  EXPECT_EQ(kib(1), 1024u);
  EXPECT_EQ(mib(1), 1024u * 1024u);
  EXPECT_EQ(gib(2), 2ull * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(gbps(1.25), 1.25e9);
  EXPECT_DOUBLE_EQ(mbps(125), 0.125e9);
  EXPECT_DOUBLE_EQ(mhz(200), 2e8);
  EXPECT_DOUBLE_EQ(picojoules(1000), 1e-9);
  EXPECT_DOUBLE_EQ(nanojoules(1), 1e-9);
}

TEST(Str, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 1.239), "1.24");
  // Long outputs are sized correctly (vsnprintf two-pass).
  const std::string big = strformat("%0512d", 7);
  EXPECT_EQ(big.size(), 512u);
  EXPECT_EQ(big.back(), '7');
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512 B");
  EXPECT_EQ(human_bytes(kib(2)), "2.00 KiB");
  EXPECT_EQ(human_bytes(mib(1.5)), "1.50 MiB");
  EXPECT_EQ(human_bytes(gib(8)), "8.00 GiB");
}

TEST(Str, HumanSeconds) {
  EXPECT_EQ(human_seconds(2.5), "2.500 s");
  EXPECT_EQ(human_seconds(12e-3), "12.000 ms");
  EXPECT_EQ(human_seconds(3.25e-6), "3.250 us");
  EXPECT_EQ(human_seconds(5e-10), "0.500 ns");
}

TEST(Str, PercentAndJoin) {
  EXPECT_EQ(format_percent(0.6584), "65.84%");
  EXPECT_EQ(format_percent(1.0, 0), "100%");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_TRUE(starts_with("vlocnet@low", "vlocnet"));
  EXPECT_FALSE(starts_with("vl", "vlocnet"));
}

TEST(Csv, EscapesSpecialFields) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"x", "y"});
  csv.row({"1", "two,three"});
  EXPECT_EQ(out.str(), "x,y\n1,\"two,three\"\n");
}

TEST(Table, AlignsColumns) {
  TextTable t({"name", "value"}, {TextTable::Align::Left});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header, separator, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("    1"), std::string::npos);  // right-aligned number
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double r = rng.uniform_real(0.25, 0.75);
    EXPECT_GE(r, 0.25);
    EXPECT_LT(r, 0.75);
    EXPECT_LT(rng.index(3), 3u);
  }
  EXPECT_THROW((void)rng.uniform_int(2, 1), ContractViolation);
  EXPECT_THROW((void)rng.index(0), ContractViolation);
}

}  // namespace
}  // namespace h2h
