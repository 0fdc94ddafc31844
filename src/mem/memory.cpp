#include "mem/memory.hpp"

namespace laec::mem {

const u8 MainMemory::kZeroPage[MainMemory::kPageSize] = {};

const u8* MainMemory::page_for_read(Addr a) const {
  auto it = pages_.find(a >> kPageBits);
  return it == pages_.end() ? kZeroPage : it->second.bytes.data();
}

u8* MainMemory::page_for_write(Addr a) {
  return pages_.try_emplace(a >> kPageBits).first->second.bytes.data();
}

u8 MainMemory::read_u8(Addr a) const {
  return page_for_read(a)[a & (kPageSize - 1)];
}

u16 MainMemory::read_u16(Addr a) const {
  return static_cast<u16>(read_u8(a) | (read_u8(a + 1) << 8));
}

u32 MainMemory::read_u32(Addr a) const {
  return static_cast<u32>(read_u8(a)) | (static_cast<u32>(read_u8(a + 1)) << 8) |
         (static_cast<u32>(read_u8(a + 2)) << 16) |
         (static_cast<u32>(read_u8(a + 3)) << 24);
}

void MainMemory::write_u8(Addr a, u8 v) {
  page_for_write(a)[a & (kPageSize - 1)] = v;
}

void MainMemory::write_u16(Addr a, u16 v) {
  write_u8(a, static_cast<u8>(v & 0xff));
  write_u8(a + 1, static_cast<u8>(v >> 8));
}

void MainMemory::write_u32(Addr a, u32 v) {
  write_u8(a, static_cast<u8>(v & 0xff));
  write_u8(a + 1, static_cast<u8>((v >> 8) & 0xff));
  write_u8(a + 2, static_cast<u8>((v >> 16) & 0xff));
  write_u8(a + 3, static_cast<u8>((v >> 24) & 0xff));
}

void MainMemory::read_block(Addr a, u8* dst, unsigned len) const {
  for (unsigned i = 0; i < len; ++i) dst[i] = read_u8(a + i);
}

void MainMemory::write_block(Addr a, const u8* src, unsigned len) {
  for (unsigned i = 0; i < len; ++i) write_u8(a + i, src[i]);
}

}  // namespace laec::mem
