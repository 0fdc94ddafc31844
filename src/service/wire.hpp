// Byte-level wire codec shared by the on-disk and on-socket formats
// (checkpoint files, golden-run snapshots, the daemon's framing protocol).
//
// Everything is explicit little-endian regardless of host byte order, so a
// checkpoint written on one host resumes on another and a submit client
// can talk to a daemon across machine types. Doubles travel as their IEEE
// bit patterns (std::bit_cast), never as formatted text — the campaign's
// byte-identical-resume contract needs exact accumulator round-trips.
//
// ByteReader is bounds-checked and throws service::WireError instead of
// reading past the end: every consumer (checkpoint load, snapshot restore,
// daemon frame decode) treats truncated or hostile input as a hard error,
// never as garbage values.
#pragma once

#include <bit>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/types.hpp"

namespace laec::service {

/// Malformed / truncated wire data (bad magic, short buffer, oversized
/// length field). Deliberately a distinct type so callers can map it to
/// "this file/peer is corrupt" rather than a programming error.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only little-endian encoder over a std::string buffer.
class ByteWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(static_cast<char>(v)); }

  void put_u32(u32 v) { put_block(&v, 1); }
  void put_u64(u64 v) { put_block(&v, 1); }

  /// IEEE-754 bit pattern: exact round-trip, no formatting loss.
  void put_double(double v) { put_u64(std::bit_cast<u64>(v)); }

  /// u32 length prefix + raw bytes.
  void put_string(std::string_view s) {
    put_u32(static_cast<u32>(s.size()));
    buf_.append(s.data(), s.size());
  }

  /// Bulk little-endian array of integers (no length prefix — the
  /// caller's framing carries the count). One memcpy on little-endian
  /// hosts; the byte loop elsewhere. Snapshot capture serializes whole
  /// cache arrays and memory pages through this, so it must not cost a
  /// call per element.
  template <class T>
  void put_block(const T* v, std::size_t n) {
    static_assert(std::is_integral_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
      buf_.append(reinterpret_cast<const char*>(v), n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t b = 0; b < sizeof(T); ++b) {
          buf_.push_back(static_cast<char>((v[i] >> (8 * b)) & 0xff));
        }
      }
    }
  }

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian decoder over a byte view.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] u8 get_u8() {
    need(1);
    return static_cast<u8>(data_[pos_++]);
  }

  [[nodiscard]] u32 get_u32() {
    u32 v = 0;
    get_block(&v, 1);
    return v;
  }

  [[nodiscard]] u64 get_u64() {
    u64 v = 0;
    get_block(&v, 1);
    return v;
  }

  [[nodiscard]] double get_double() { return std::bit_cast<double>(get_u64()); }

  [[nodiscard]] std::string get_string() {
    const u32 n = get_u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  /// Bulk inverse of ByteWriter::put_block.
  template <class T>
  void get_block(T* out, std::size_t n) {
    static_assert(std::is_integral_v<T>);
    need(n * sizeof(T));
    if (n == 0) return;  // `out` may be null (an empty vector's data())
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data() + pos_, n * sizeof(T));
      pos_ += n * sizeof(T);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        T v = 0;
        for (std::size_t b = 0; b < sizeof(T); ++b) {
          v |= static_cast<T>(static_cast<T>(get_u8()) << (8 * b));
        }
        out[i] = v;
      }
    }
  }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }

  /// Consumers that expect to use the WHOLE payload call this last, so a
  /// frame with trailing junk is rejected rather than silently accepted.
  void expect_end() const {
    if (!at_end()) throw WireError("trailing bytes after decoded payload");
  }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) [[unlikely]] truncated(n);
  }

  [[noreturn]] void truncated(std::size_t n) const {
    throw WireError("truncated wire data (wanted " + std::to_string(n) +
                    " more bytes, have " + std::to_string(data_.size() - pos_) +
                    ")");
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace laec::service
