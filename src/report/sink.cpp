#include "report/sink.hpp"

#include <cstdio>

namespace laec::report {

std::string CsvWriter::escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::line(const std::vector<std::string>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << escape(cells[i]);
  }
  out_ << '\n';
}

void CsvWriter::begin(const std::vector<std::string>& headers) {
  line(headers);
}

void CsvWriter::row(const std::vector<std::string>& cells) { line(cells); }

namespace {

/// Length of a well-formed UTF-8 sequence starting at s[i] (2-4 bytes,
/// shortest-form, no surrogates, <= U+10FFFF), or 0 when the bytes are not
/// valid UTF-8. Continuation-range narrowing per the Unicode table: the
/// FIRST continuation byte's legal range depends on the lead byte (rejects
/// overlongs like C0 AF, surrogates ED A0.., and F4 90.. > U+10FFFF).
std::size_t utf8_sequence_len(const std::string& s, std::size_t i) {
  const auto at = [&s](std::size_t k) {
    return static_cast<unsigned char>(s[k]);
  };
  const unsigned char lead = at(i);
  std::size_t cont = 0;
  unsigned char lo = 0x80, hi = 0xbf;
  if (lead >= 0xc2 && lead <= 0xdf) {
    cont = 1;
  } else if (lead == 0xe0) {
    cont = 2, lo = 0xa0;
  } else if ((lead >= 0xe1 && lead <= 0xec) || lead == 0xee || lead == 0xef) {
    cont = 2;
  } else if (lead == 0xed) {
    cont = 2, hi = 0x9f;
  } else if (lead == 0xf0) {
    cont = 3, lo = 0x90;
  } else if (lead >= 0xf1 && lead <= 0xf3) {
    cont = 3;
  } else if (lead == 0xf4) {
    cont = 3, hi = 0x8f;
  } else {
    return 0;  // lone continuation byte, overlong lead (C0/C1), F5..FF
  }
  if (i + cont >= s.size()) return 0;  // truncated sequence
  if (at(i + 1) < lo || at(i + 1) > hi) return 0;
  for (std::size_t k = 2; k <= cont; ++k) {
    if (at(i + k) < 0x80 || at(i + k) > 0xbf) return 0;
  }
  return cont + 1;
}

}  // namespace

std::string JsonLinesWriter::escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (std::size_t i = 0; i < s.size();) {
    const char c = s[i];
    const unsigned char uc = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; ++i; continue;
      case '\\': out += "\\\\"; ++i; continue;
      case '\n': out += "\\n"; ++i; continue;
      case '\r': out += "\\r"; ++i; continue;
      case '\t': out += "\\t"; ++i; continue;
      default: break;
    }
    if (uc < 0x20 || uc == 0x7f) {
      // Control characters INCLUDING DEL escape numerically. The cast
      // matters: a signed char would sign-extend and print garbage hex.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(uc));
      out += buf;
      ++i;
    } else if (uc < 0x80) {
      out += c;
      ++i;
    } else if (const std::size_t len = utf8_sequence_len(s, i); len > 0) {
      // Well-formed multi-byte UTF-8 passes through verbatim.
      out.append(s, i, len);
      i += len;
    } else {
      // Invalid byte: substitute U+FFFD (as an escape, so the emitted line
      // is pure ASCII JSON) and resync at the next byte. Emitting the raw
      // byte would make the whole row malformed JSON.
      out += "\\ufffd";
      ++i;
    }
  }
  return out;
}

void JsonLinesWriter::begin(const std::vector<std::string>& headers) {
  headers_ = headers;
}

void JsonLinesWriter::row(const std::vector<std::string>& cells) {
  out_ << '{';
  for (std::size_t i = 0; i < cells.size() && i < headers_.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << '"' << escape(headers_[i]) << "\":\"" << escape(cells[i]) << '"';
  }
  out_ << "}\n";
}

std::unique_ptr<RowWriter> make_row_writer(const std::string& format,
                                           std::ostream& out) {
  if (format == "csv") return std::make_unique<CsvWriter>(out);
  if (format == "jsonl") return std::make_unique<JsonLinesWriter>(out);
  return nullptr;
}

}  // namespace laec::report
