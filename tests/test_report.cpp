#include "report/table.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "report/chronogram.hpp"
#include "report/sink.hpp"

namespace laec::report {
namespace {

// -------------------------------------------------------------- CSV sink --

TEST(CsvSink, QuotesOnlyFieldsThatNeedIt) {
  // A field is quoted iff it holds a comma, a quote, \n or \r; a quote
  // inside is doubled. Everything else, spaces and UTF-8 included, goes out
  // verbatim. The header takes the same rule.
  std::ostringstream os;
  CsvWriter w(os);
  w.begin({"plain", "empty", "a,b", "say \"hi\"", "utf8"});
  w.row({"two words", "", "1,5", "\"", "caf\xc3\xa9 \xe6\xbc\xa2"});
  w.row({"x", "line1\nline2", "a\rb", "\"q\",\"", "\xf0\x9d\x84\x9e"});
  w.end();
  EXPECT_EQ(os.str(),
            "plain,empty,\"a,b\",\"say \"\"hi\"\"\",utf8\n"
            "two words,,\"1,5\",\"\"\"\",caf\xc3\xa9 \xe6\xbc\xa2\n"
            "x,\"line1\nline2\",\"a\rb\",\"\"\"q\"\",\"\"\","
            "\xf0\x9d\x84\x9e\n");
}

// ------------------------------------------------------------ JSONL sink --

/// Minimal strict JSON parser for the flat {"key":"value",...} objects the
/// JSONL sink emits. Decodes \uXXXX escapes (including surrogate pairs) to
/// UTF-8. Returns nullopt on ANY malformed input — the round-trip tests
/// lean on that strictness.
std::optional<std::vector<std::pair<std::string, std::string>>> parse_jsonl(
    const std::string& line) {
  std::vector<std::pair<std::string, std::string>> fields;
  std::size_t i = 0;
  const auto fail = std::nullopt;
  const auto append_utf8 = [](std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  };
  const auto parse_hex4 = [&](unsigned& out) {
    if (i + 4 > line.size()) return false;
    out = 0;
    for (int k = 0; k < 4; ++k) {
      const char c = line[i++];
      out <<= 4;
      if (c >= '0' && c <= '9') out |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') out |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') out |= static_cast<unsigned>(c - 'A' + 10);
      else return false;
    }
    return true;
  };
  const auto parse_string = [&](std::string& out) {
    if (i >= line.size() || line[i] != '"') return false;
    ++i;
    while (i < line.size()) {
      const unsigned char c = static_cast<unsigned char>(line[i]);
      if (c == '"') {
        ++i;
        return true;
      }
      if (c < 0x20) return false;  // raw control char = malformed JSON
      if (c == '\\') {
        if (++i >= line.size()) return false;
        const char e = line[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xd800 && cp <= 0xdbff) {  // high surrogate
              if (i + 2 > line.size() || line[i] != '\\' || line[i + 1] != 'u')
                return false;
              i += 2;
              unsigned lo = 0;
              if (!parse_hex4(lo) || lo < 0xdc00 || lo > 0xdfff) return false;
              cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
            } else if (cp >= 0xdc00 && cp <= 0xdfff) {
              return false;  // lone low surrogate
            }
            append_utf8(out, cp);
            break;
          }
          default: return false;
        }
      } else {
        out += static_cast<char>(c);
        ++i;
      }
    }
    return false;  // unterminated
  };

  if (i >= line.size() || line[i] != '{') return fail;
  ++i;
  if (i < line.size() && line[i] == '}') return fields;  // empty object
  for (;;) {
    std::string key, value;
    if (!parse_string(key)) return fail;
    if (i >= line.size() || line[i] != ':') return fail;
    ++i;
    if (!parse_string(value)) return fail;
    fields.emplace_back(std::move(key), std::move(value));
    if (i >= line.size()) return fail;
    if (line[i] == ',') {
      ++i;
      continue;
    }
    if (line[i] == '}') return fields;
    return fail;
  }
}

/// Every row the sink emits must parse as strict JSON and decode back to
/// the input (with invalid UTF-8 bytes replaced by U+FFFD).
std::string sanitize(const std::string& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size();) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    std::size_t len = 1;
    bool ok = c < 0x80;
    unsigned char lo = 0x80, hi = 0xbf;
    std::size_t cont = 0;
    if (c >= 0xc2 && c <= 0xdf) cont = 1;
    else if (c == 0xe0) cont = 2, lo = 0xa0;
    else if ((c >= 0xe1 && c <= 0xec) || c == 0xee || c == 0xef) cont = 2;
    else if (c == 0xed) cont = 2, hi = 0x9f;
    else if (c == 0xf0) cont = 3, lo = 0x90;
    else if (c >= 0xf1 && c <= 0xf3) cont = 3;
    else if (c == 0xf4) cont = 3, hi = 0x8f;
    if (!ok && cont > 0 && i + cont < s.size()) {
      const unsigned char c1 = static_cast<unsigned char>(s[i + 1]);
      ok = c1 >= lo && c1 <= hi;
      for (std::size_t k = 2; ok && k <= cont; ++k) {
        const unsigned char ck = static_cast<unsigned char>(s[i + k]);
        ok = ck >= 0x80 && ck <= 0xbf;
      }
      if (ok) len = cont + 1;
    }
    if (ok) {
      out.append(s, i, len);
      i += len;
    } else {
      out += "\xef\xbf\xbd";  // U+FFFD
      ++i;
    }
  }
  return out;
}

TEST(JsonLinesSink, EveryEmittedRowParsesAndRoundTrips) {
  const std::vector<std::string> headers = {"plain", "quote", "ctrl", "del",
                                            "utf8", "bad"};
  const std::vector<std::string> cells = {
      "hello world",
      "she said \"hi\" \\ done",
      std::string("a\x01"
                  "b\x1f"
                  "c\n\t\r"),
      std::string("x") + '\x7f' + "y",
      "caf\xc3\xa9 \xe6\xbc\xa2 \xf0\x9d\x84\x9e",  // é 漢 𝄞
      // Invalid UTF-8 zoo: lone continuation, truncated lead, overlong
      // C0 AF, surrogate half ED A0 80, out-of-range F5.
      std::string("a\x80"
                  "b\xc3") +
          "|\xc0\xaf|\xed\xa0\x80|\xf5"
          "z",
  };
  std::ostringstream os;
  JsonLinesWriter w(os);
  w.begin(headers);
  w.row(cells);
  const std::string out = os.str();
  ASSERT_FALSE(out.empty());
  ASSERT_EQ(out.back(), '\n');

  const auto parsed = parse_jsonl(out.substr(0, out.size() - 1));
  ASSERT_TRUE(parsed.has_value()) << out;
  ASSERT_EQ(parsed->size(), headers.size());
  for (std::size_t i = 0; i < headers.size(); ++i) {
    EXPECT_EQ((*parsed)[i].first, headers[i]);
    EXPECT_EQ((*parsed)[i].second, sanitize(cells[i])) << headers[i];
  }
  // The emitted line itself never carries a raw control byte or DEL.
  for (const char c : out) {
    const unsigned char uc = static_cast<unsigned char>(c);
    EXPECT_TRUE(uc >= 0x20 || c == '\n');
    EXPECT_NE(uc, 0x7fu);
  }
}

TEST(JsonLinesSink, ExhaustiveSingleBytesNeverEmitMalformedJson) {
  // Every possible single byte as a one-cell row: each line must parse.
  for (int b = 0; b < 256; ++b) {
    std::ostringstream os;
    JsonLinesWriter w(os);
    w.begin({"k"});
    w.row({std::string(1, static_cast<char>(b))});
    const std::string line = os.str();
    ASSERT_EQ(line.back(), '\n');
    const auto parsed = parse_jsonl(line.substr(0, line.size() - 1));
    ASSERT_TRUE(parsed.has_value()) << "byte " << b << ": " << line;
    ASSERT_EQ(parsed->size(), 1u);
    EXPECT_EQ((*parsed)[0].second,
              sanitize(std::string(1, static_cast<char>(b))))
        << "byte " << b;
  }
}

TEST(Table, TextLayoutAligns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_text();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(Table, NumberFormatters) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
  EXPECT_EQ(Table::pct(0.173, 1), "17.3%");
  EXPECT_EQ(Table::pct(0.039, 1), "3.9%");
}

TEST(Chronogram, RecordsAndCompacts) {
  ChronogramRecorder rec;
  rec.set_enabled(true);
  rec.record(0, "load", 1, "F");
  rec.record(0, "load", 2, "D");
  rec.record(0, "load", 3, "Exe");
  rec.record(0, "load", 4, "Exe");
  EXPECT_EQ(rec.compact(0), "F D Exe Exe");
  EXPECT_EQ(rec.compact(99), "");
}

TEST(Chronogram, DisabledRecorderIgnores) {
  ChronogramRecorder rec;
  rec.record(0, "x", 1, "F");
  EXPECT_TRUE(rec.rows().empty());
}

TEST(Chronogram, EraseRemovesSquashedRows) {
  ChronogramRecorder rec;
  rec.set_enabled(true);
  rec.record(0, "a", 1, "F");
  rec.record(1, "b", 2, "F");
  rec.erase(1);
  EXPECT_EQ(rec.rows().size(), 1u);
  EXPECT_EQ(rec.compact(1), "");
}

TEST(Chronogram, LabelUpgradedAfterFetch) {
  ChronogramRecorder rec;
  rec.set_enabled(true);
  rec.record(0, "(fetch)", 1, "F");
  rec.record(0, "r1 = load(r2+r3)", 2, "F");
  EXPECT_EQ(rec.rows()[0].label, "r1 = load(r2+r3)");
}

TEST(Chronogram, GridHasCycleHeader) {
  ChronogramRecorder rec;
  rec.set_enabled(true);
  rec.record(0, "i0", 5, "F");
  rec.record(0, "i0", 6, "D");
  rec.record(1, "i1", 6, "F");
  const std::string g = render_grid(rec);
  EXPECT_NE(g.find("cycle"), std::string::npos);
  EXPECT_NE(g.find("i0"), std::string::npos);
  // Cycles re-based to 1 at the earliest recorded cycle.
  EXPECT_NE(g.find("1"), std::string::npos);
}

}  // namespace
}  // namespace laec::report
