// Streaming row sinks for experiment results.
//
// A RowWriter receives a header once and then one row at a time; CsvWriter
// emits RFC-4180-style CSV and JsonLinesWriter one JSON object per row
// (easy to cat into pandas / jq). These two are the library's only row
// emitters: sweeps, campaigns and daemon clients all write through them.
// Writers are not thread-safe: drivers that run points concurrently
// (runner::run_sweep) serialize emission and keep rows in deterministic
// grid order regardless of thread count. A write error (ENOSPC, EIO) sets
// the stream's sticky badbit; the caller that owns the stream checks it
// once after the run.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace laec::report {

class RowWriter {
 public:
  virtual ~RowWriter() = default;

  /// Emit the header. Must be called exactly once, before any row.
  virtual void begin(const std::vector<std::string>& headers) = 0;

  /// Emit one row; `cells` must match the header arity.
  virtual void row(const std::vector<std::string>& cells) = 0;

  /// Flush any trailing output (idempotent). run_sweep, run_campaign and
  /// service::submit_job call it once their last row is out.
  virtual void end() {}
};

/// CSV with minimal quoting (fields containing `,` `"` or newlines are
/// quoted, embedded quotes doubled).
class CsvWriter final : public RowWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(out) {}
  void begin(const std::vector<std::string>& headers) override;
  void row(const std::vector<std::string>& cells) override;
  void end() override { out_.flush(); }

  [[nodiscard]] static std::string escape(const std::string& field);

 private:
  void line(const std::vector<std::string>& cells);
  std::ostream& out_;
};

/// One JSON object per line ("JSON Lines"); keys come from the header.
class JsonLinesWriter final : public RowWriter {
 public:
  explicit JsonLinesWriter(std::ostream& out) : out_(out) {}
  void begin(const std::vector<std::string>& headers) override;
  void row(const std::vector<std::string>& cells) override;
  void end() override { out_.flush(); }

  [[nodiscard]] static std::string escape(const std::string& s);

 private:
  std::ostream& out_;
  std::vector<std::string> headers_;
};

/// Factory: `format` is "csv" or "jsonl". Returns nullptr for any other
/// name.
[[nodiscard]] std::unique_ptr<RowWriter> make_row_writer(
    const std::string& format, std::ostream& out);

}  // namespace laec::report
