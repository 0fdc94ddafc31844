// Sparse byte-addressable main memory.
//
// Main memory (and everything beyond the bus) is assumed ECC-clean: the
// paper's fault model concerns the on-chip L1 arrays, and L2/memory are
// SECDED-protected substrates whose check latency is folded into their
// access latency (paper §II.A).
#pragma once

#include <array>
#include <unordered_map>

#include "common/types.hpp"

namespace laec::mem {

class MainMemory {
 public:
  static constexpr unsigned kPageBits = 12;  // 4 KiB pages
  static constexpr Addr kPageSize = 1u << kPageBits;

  [[nodiscard]] u8 read_u8(Addr a) const;
  [[nodiscard]] u16 read_u16(Addr a) const;
  [[nodiscard]] u32 read_u32(Addr a) const;
  void write_u8(Addr a, u8 v);
  void write_u16(Addr a, u16 v);
  void write_u32(Addr a, u32 v);

  /// Bulk ops used by cache line refills/writebacks.
  void read_block(Addr a, u8* dst, unsigned len) const;
  void write_block(Addr a, const u8* src, unsigned len);

  /// Number of resident 4 KiB pages (for tests).
  [[nodiscard]] std::size_t resident_pages() const { return pages_.size(); }

  /// Snapshot field list (protocol: sim/snapshot.hpp).
  template <class V>
  void visit_state(V& v) {
    v("pages", pages_);
  }

 private:
  struct Page {
    std::array<u8, kPageSize> bytes{};

    template <class V>
    void visit_state(V& v) {
      v.shape("page_bytes", kPageSize);
      v("bytes", bytes);
    }
  };

  [[nodiscard]] const u8* page_for_read(Addr a) const;
  [[nodiscard]] u8* page_for_write(Addr a);

  std::unordered_map<Addr, Page> pages_;  ///< keyed by page number
  static const u8 kZeroPage[kPageSize];
};

}  // namespace laec::mem
