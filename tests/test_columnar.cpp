// Columnar sink round-trips: the hard contract is that decoding a .col
// stream back to CSV (or JSONL) is byte-identical to having written the
// text format directly — for synthetic rows with every escaping edge case,
// for real sweep rows and for real campaign rows, at any chunk size.
#include "service/columnar.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "reliability/campaign.hpp"
#include "report/sink.hpp"
#include "runner/sweep_runner.hpp"
#include "service/wire.hpp"

namespace laec::service {
namespace {

using Rows = std::vector<std::vector<std::string>>;

const std::vector<std::string> kHeaders = {"name", "value", "note"};

/// Rows exercising every CsvWriter escaping path: commas, quotes,
/// embedded newlines, empty fields, UTF-8, leading zeros, u64 extremes.
Rows tricky_rows() {
  return {
      {"plain", "42", "no escaping"},
      {"comma,inside", "0", ""},
      {"quote\"inside", "18446744073709551615", "max u64"},
      {"line\nbreak", "18446744073709551616", "one past max"},
      {"", "007", "leading zeros stay text"},
      {"unicode \xc3\xa9\xe2\x82\xac", "-3", "negatives stay text"},
      {"both\",\nat once", "1e3", "exponent stays text"},
  };
}

std::string csv_of(const std::vector<std::string>& headers, const Rows& rows) {
  std::ostringstream out;
  report::CsvWriter w(out);
  w.begin(headers);
  for (const auto& r : rows) w.row(r);
  w.end();
  return out.str();
}

std::string jsonl_of(const std::vector<std::string>& headers,
                     const Rows& rows) {
  std::ostringstream out;
  report::JsonLinesWriter w(out);
  w.begin(headers);
  for (const auto& r : rows) w.row(r);
  w.end();
  return out.str();
}

std::string col_of(const std::vector<std::string>& headers, const Rows& rows,
                   std::size_t chunk_rows = ColumnarWriter::kDefaultChunkRows) {
  std::ostringstream out;
  ColumnarWriter w(out, chunk_rows);
  w.begin(headers);
  for (const auto& r : rows) w.row(r);
  w.end();
  return out.str();
}

std::string decode_to_csv(const std::string& col, u64* rows_out = nullptr) {
  std::istringstream in(col);
  std::ostringstream out;
  report::CsvWriter w(out);
  const u64 n = read_columnar(in, w);
  w.end();
  if (rows_out != nullptr) *rows_out = n;
  return out.str();
}

TEST(Columnar, CanonicalU64Predicate) {
  EXPECT_TRUE(is_canonical_u64("0"));
  EXPECT_TRUE(is_canonical_u64("7"));
  EXPECT_TRUE(is_canonical_u64("18446744073709551615"));
  EXPECT_FALSE(is_canonical_u64(""));
  EXPECT_FALSE(is_canonical_u64("007"));
  EXPECT_FALSE(is_canonical_u64("00"));
  EXPECT_FALSE(is_canonical_u64("-3"));
  EXPECT_FALSE(is_canonical_u64("1e3"));
  EXPECT_FALSE(is_canonical_u64("42 "));
  EXPECT_FALSE(is_canonical_u64("18446744073709551616"));  // max + 1
  EXPECT_FALSE(is_canonical_u64("99999999999999999999"));  // 20 digits, over
  EXPECT_FALSE(is_canonical_u64("184467440737095516150"));  // 21 digits
}

TEST(Columnar, RoundTripsTrickyRowsToCsvByteIdentically) {
  const Rows rows = tricky_rows();
  u64 decoded = 0;
  EXPECT_EQ(decode_to_csv(col_of(kHeaders, rows), &decoded),
            csv_of(kHeaders, rows));
  EXPECT_EQ(decoded, rows.size());
}

TEST(Columnar, RoundTripsToJsonlByteIdentically) {
  const Rows rows = tricky_rows();
  std::istringstream in(col_of(kHeaders, rows));
  std::ostringstream out;
  report::JsonLinesWriter w(out);
  (void)read_columnar(in, w);
  w.end();
  EXPECT_EQ(out.str(), jsonl_of(kHeaders, rows));
}

TEST(Columnar, ChunkBoundariesDoNotChangeTheDecode) {
  // 10 rows across chunk sizes 1, 3, 4, 1000: every split decodes to the
  // same CSV (the chunking is an encoding detail, not a row boundary).
  Rows rows;
  for (int i = 0; i < 10; ++i) {
    rows.push_back({"row" + std::to_string(i), std::to_string(i * 1000),
                    i % 2 == 0 ? "even" : "odd,\"quoted\""});
  }
  const std::string want = csv_of(kHeaders, rows);
  for (const std::size_t chunk : {1u, 3u, 4u, 1000u}) {
    EXPECT_EQ(decode_to_csv(col_of(kHeaders, rows, chunk)), want)
        << "chunk_rows=" << chunk;
  }
}

TEST(Columnar, EmptyTableRoundTrips) {
  const Rows none;
  u64 decoded = 99;
  EXPECT_EQ(decode_to_csv(col_of(kHeaders, none), &decoded),
            csv_of(kHeaders, none));
  EXPECT_EQ(decoded, 0u);
}

TEST(Columnar, MixedNumericAndDictColumnsPerChunk) {
  // First chunk all-canonical in column 1 (fixed-width), second chunk has
  // a non-canonical cell (dictionary) — decode must be identical anyway.
  Rows rows;
  for (int i = 0; i < 4; ++i) rows.push_back({"a", std::to_string(i), "x"});
  rows.push_back({"a", "007", "x"});
  EXPECT_EQ(decode_to_csv(col_of(kHeaders, rows, 4)), csv_of(kHeaders, rows));
}

TEST(Columnar, RejectsCorruptStreams) {
  const std::string good = col_of(kHeaders, tricky_rows());
  report::CsvWriter sink(std::cout);

  {  // bad magic
    std::string bad = good;
    bad[0] = 'X';
    std::istringstream in(bad);
    EXPECT_THROW((void)read_columnar(in, sink), WireError);
  }
  {  // unsupported version (bytes 8..11 are the u32 version)
    std::string bad = good;
    bad[8] = 99;
    std::istringstream in(bad);
    EXPECT_THROW((void)read_columnar(in, sink), WireError);
  }
  {  // truncation (drop the footer and half the last chunk)
    std::string bad = good.substr(0, good.size() - 12);
    std::istringstream in(bad);
    EXPECT_THROW((void)read_columnar(in, sink), WireError);
  }
  {  // bit rot inside a chunk payload -> checksum mismatch
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x40);
    std::istringstream in(bad);
    EXPECT_THROW((void)read_columnar(in, sink), WireError);
  }
  {  // a foreign file entirely
    std::istringstream in("not a columnar file at all");
    EXPECT_THROW((void)read_columnar(in, sink), WireError);
  }
}

// --- real row streams -------------------------------------------------------

TEST(Columnar, SweepRowsRoundTripByteIdentically) {
  runner::SweepGrid grid;
  grid.workloads({"a2time"}).schemes({"no-ecc", "laec"});
  const auto points = grid.points();

  std::ostringstream direct;
  {
    report::CsvWriter w(direct);
    runner::SweepOptions o;
    o.threads = 1;
    o.sink = &w;
    (void)runner::run_sweep(points, o);
  }

  std::ostringstream col;
  {
    ColumnarWriter w(col);
    runner::SweepOptions o;
    o.threads = 1;
    o.sink = &w;
    (void)runner::run_sweep(points, o);
  }

  EXPECT_EQ(decode_to_csv(col.str()), direct.str());
}

TEST(Columnar, CampaignRowsRoundTripByteIdentically) {
  reliability::CampaignGrid grid;
  grid.workloads({"a2time"}).schemes({"laec"});
  grid.rates({*reliability::tech_preset("40nm")});
  reliability::CampaignSpec spec;
  spec.trials = 6;
  spec.min_trials = 3;
  spec.batch = 3;

  const auto run_with = [&](report::RowWriter& w) {
    reliability::CampaignOptions o;
    o.threads = 1;
    o.sink = &w;
    (void)reliability::run_campaign(grid.cells(), spec, o);
  };

  std::ostringstream direct;
  report::CsvWriter cw(direct);
  run_with(cw);

  std::ostringstream col;
  ColumnarWriter xw(col);
  run_with(xw);

  EXPECT_EQ(decode_to_csv(col.str()), direct.str());
}

}  // namespace
}  // namespace laec::service
