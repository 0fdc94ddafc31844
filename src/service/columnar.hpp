// Compact binary columnar result sink ("--format=col").
//
// Million-row campaigns spend real time re-parsing CSV text on every
// aggregation pass; the columnar sink stores the same rows as typed
// columns instead. Layout:
//
//   magic "LAECCOL1"                         (8 bytes)
//   u32 version (=1)
//   u32 ncols, ncols x (u32 len + bytes)     column names
//   chunk*:                                  ('C' frames)
//     u8 'C', u32 payload_len, payload, u64 fnv1a(payload)
//     payload: u32 nrows, then per column:
//       u8 kind 0 (dictionary strings): u32 dict_size,
//          dict_size x (u32 len + bytes), nrows x u32 dict index
//       u8 kind 1 (fixed-width u64):    nrows x u64 little-endian
//   footer: u8 'E', u64 total_rows
//
// A column is stored fixed-width (kind 1) for a chunk when EVERY cell in
// that chunk is a canonical decimal u64 (digits only, no leading zeros,
// fits in 64 bits) — counters and cycle columns compress to 8 bytes flat
// and decode with std::to_string, reproducing the original text EXACTLY.
// Everything else (workload names, scheme keys, %.6g floats) is
// dictionary-encoded: campaign columns like "workload" or "rate" carry a
// handful of distinct values over millions of rows, so each row costs a
// u32 index. The hard contract, enforced by tests and a CI gate: decoding
// a .col file back to CSV is byte-identical to having written CSV
// directly.
//
// Per-chunk checksums plus the row-count footer mean truncation, bit rot
// and foreign files surface as service::WireError, never as silently
// wrong rows.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "report/sink.hpp"

namespace laec::service {

inline constexpr char kColumnarMagic[8] = {'L', 'A', 'E', 'C',
                                           'C', 'O', 'L', '1'};
inline constexpr u32 kColumnarVersion = 1;

/// Is `s` a canonical decimal u64 (round-trips through std::to_string)?
/// Exposed for tests; this predicate decides fixed-width vs dictionary
/// encoding per chunk.
[[nodiscard]] bool is_canonical_u64(const std::string& s);

/// report::RowWriter emitting the columnar format. The stream must be
/// binary-clean (open files with std::ios::binary). Not thread-safe, like
/// every RowWriter. end() flushes the last partial chunk and the footer;
/// forgetting it truncates the file, which readers then reject.
class ColumnarWriter final : public report::RowWriter {
 public:
  static constexpr std::size_t kDefaultChunkRows = 4096;

  explicit ColumnarWriter(std::ostream& out,
                          std::size_t chunk_rows = kDefaultChunkRows);

  void begin(const std::vector<std::string>& headers) override;
  void row(const std::vector<std::string>& cells) override;
  void end() override;
  [[nodiscard]] bool ok() const override;

 private:
  void flush_chunk();

  std::ostream& out_;
  std::size_t chunk_rows_;
  std::size_t ncols_ = 0;
  std::vector<std::vector<std::string>> pending_;
  u64 total_rows_ = 0;
  bool begun_ = false;
  bool ended_ = false;
};

/// Decode a columnar stream, replaying header + rows into `out` (any
/// RowWriter: CsvWriter for `laec_cli cat`, JsonLinesWriter, even another
/// ColumnarWriter). Returns the decoded row count. Throws WireError for
/// bad magic, unsupported version, checksum mismatch, truncation, or a
/// dictionary index out of range.
u64 read_columnar(std::istream& in, report::RowWriter& out);

}  // namespace laec::service
