#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string_view>

#include "ecc/registry.hpp"

namespace laec::mem {
namespace {

CacheConfig small_cfg(std::string_view codec = "none") {
  CacheConfig c;
  c.name = "t";
  c.size_bytes = 1024;
  c.line_bytes = 32;
  c.ways = 2;
  c.codec = ecc::make_codec(codec);
  return c;
}

std::vector<u8> line_of(u32 seed) {
  std::vector<u8> v(32);
  for (int i = 0; i < 32; ++i) v[static_cast<std::size_t>(i)] = static_cast<u8>(seed + i);
  return v;
}

TEST(Cache, FillThenHit) {
  SetAssocCache c(small_cfg());
  EXPECT_FALSE(c.contains(0x100));
  const auto data = line_of(5);
  c.fill(0x100, data.data(), false);
  EXPECT_TRUE(c.contains(0x100));
  EXPECT_TRUE(c.contains(0x11f));   // same line
  EXPECT_FALSE(c.contains(0x120));  // next line
}

TEST(Cache, ReadExtractsBytes) {
  SetAssocCache c(small_cfg());
  std::vector<u8> data(32, 0);
  const u32 word = 0xa1b2c3d4;
  std::memcpy(data.data() + 8, &word, 4);
  c.fill(0x200, data.data(), false);
  EXPECT_EQ(c.read(0x208, 4).value, 0xa1b2c3d4u);
  EXPECT_EQ(c.read(0x208, 2).value, 0xc3d4u);
  EXPECT_EQ(c.read(0x20a, 2).value, 0xa1b2u);
  EXPECT_EQ(c.read(0x20b, 1).value, 0xa1u);
}

TEST(Cache, SubWordWriteMerges) {
  SetAssocCache c(small_cfg("secded-39-32"));
  std::vector<u8> data(32, 0);
  c.fill(0x300, data.data(), false);
  c.write(0x308, 4, 0x11223344, true);
  c.write(0x309, 1, 0xaa, true);
  EXPECT_EQ(c.read(0x308, 4).value, 0x1122aa44u);
  EXPECT_EQ(c.read(0x308, 4).check, ecc::CheckStatus::kOk);
}

TEST(Cache, DirtyTrackingWriteBack) {
  SetAssocCache c(small_cfg());
  const auto data = line_of(1);
  c.fill(0x400, data.data(), false);
  EXPECT_FALSE(c.line_dirty(0x400));
  c.write(0x400, 4, 1, true);
  EXPECT_TRUE(c.line_dirty(0x400));
}

TEST(Cache, WriteThroughNeverDirty) {
  auto cfg = small_cfg();
  cfg.write_policy = WritePolicy::kWriteThrough;
  SetAssocCache c(cfg);
  const auto data = line_of(1);
  c.fill(0x400, data.data(), false);
  c.write(0x400, 4, 1, true);
  EXPECT_FALSE(c.line_dirty(0x400));
}

TEST(Cache, LruEviction) {
  SetAssocCache c(small_cfg());  // 2 ways, 16 sets, 32B lines
  const auto d = line_of(0);
  // Three lines mapping to set 0 (stride = 16 sets * 32 B = 512).
  c.fill(0x0000, d.data(), false);
  c.fill(0x0200, d.data(), false);
  c.read(0x0000, 4);  // touch line 0 -> line at 0x200 becomes LRU
  const auto ev = c.fill(0x0400, d.data(), false);
  EXPECT_FALSE(ev.has_value());  // victim was clean
  EXPECT_TRUE(c.contains(0x0000));
  EXPECT_FALSE(c.contains(0x0200));
  EXPECT_TRUE(c.contains(0x0400));
}

TEST(Cache, DirtyEvictionReturnsData) {
  SetAssocCache c(small_cfg());
  const auto d = line_of(9);
  c.fill(0x0000, d.data(), false);
  c.write(0x0004, 4, 0xfeedface, true);
  c.fill(0x0200, d.data(), false);
  const auto ev = c.fill(0x0400, d.data(), false);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0x0000u);
  u32 w;
  std::memcpy(&w, ev->data.data() + 4, 4);
  EXPECT_EQ(w, 0xfeedfaceu);
}

TEST(Cache, SecdedCorrectsInjectedSingleBit) {
  SetAssocCache c(small_cfg("secded-39-32"));
  ecc::FaultInjector inj;
  c.set_injector(&inj);
  std::vector<u8> data(32, 0);
  const u32 word = 0x5555aaaa;
  std::memcpy(data.data(), &word, 4);
  c.fill(0x500, data.data(), false);
  // Flip data bit 3 of the first word of the line.
  inj.script_flip((0x500 / 4) + 0, 3);
  const auto r = c.read(0x500, 4);
  EXPECT_EQ(r.check, ecc::CheckStatus::kCorrected);
  EXPECT_EQ(r.value, 0x5555aaaau);
  // Scrubbing repaired the array: the next read is clean.
  EXPECT_EQ(c.read(0x500, 4).check, ecc::CheckStatus::kOk);
  EXPECT_EQ(c.stats().value("ecc_corrected"), 1u);
}

TEST(Cache, SecdedDetectsDoubleBit) {
  SetAssocCache c(small_cfg("secded-39-32"));
  ecc::FaultInjector inj;
  c.set_injector(&inj);
  std::vector<u8> data(32, 0x77);
  c.fill(0x600, data.data(), false);
  inj.script_flip(0x600 / 4, 2);
  inj.script_flip(0x600 / 4, 17);
  EXPECT_EQ(c.read(0x600, 4).check,
            ecc::CheckStatus::kDetectedUncorrectable);
  EXPECT_EQ(c.stats().value("ecc_detected_uncorrectable"), 1u);
}

TEST(Cache, ParityDetectsSingleBit) {
  SetAssocCache c(small_cfg("parity-32"));
  ecc::FaultInjector inj;
  c.set_injector(&inj);
  std::vector<u8> data(32, 0x10);
  c.fill(0x700, data.data(), false);
  inj.script_flip(0x700 / 4, 12);
  EXPECT_EQ(c.read(0x700, 4).check,
            ecc::CheckStatus::kDetectedUncorrectable);
}

TEST(Cache, CheckBitFlipAlsoCorrected) {
  SetAssocCache c(small_cfg("secded-39-32"));
  ecc::FaultInjector inj;
  c.set_injector(&inj);
  std::vector<u8> data(32, 0x42);
  c.fill(0x800, data.data(), false);
  inj.script_flip(0x800 / 4, 32 + 3);  // a check bit
  const auto r = c.read(0x800, 4);
  EXPECT_EQ(r.check, ecc::CheckStatus::kCorrected);
  EXPECT_EQ(r.value, 0x42424242u);
}

TEST(Cache, InvalidateAndPeek) {
  SetAssocCache c(small_cfg());
  const auto d = line_of(3);
  c.fill(0x900, d.data(), false);
  EXPECT_EQ(c.peek_line(0x900), d);
  EXPECT_TRUE(c.invalidate(0x900));
  EXPECT_FALSE(c.contains(0x900));
  EXPECT_FALSE(c.invalidate(0x900));
}

TEST(Cache, FlushDirtyVisitsDirtyLinesOnly) {
  SetAssocCache c(small_cfg());
  const auto d = line_of(1);
  c.fill(0x000, d.data(), false);
  c.fill(0x020, d.data(), false);
  c.write(0x020, 4, 0x99, true);
  int visited = 0;
  c.flush_dirty([&](Addr a, const u8*) {
    ++visited;
    EXPECT_EQ(a, 0x020u);
  });
  EXPECT_EQ(visited, 1);
  EXPECT_FALSE(c.line_dirty(0x020));
}

TEST(Cache, WritebacksLeaveInCorrectedViewEvenWithoutScrub) {
  // scrub_on_correct=false keeps corrupted raw bytes in the array, but the
  // writeback read re-runs the codec (as hardware does): dirty evictions,
  // flush_dirty and peek_line must all deliver the corrected view, never
  // the raw flipped bits.
  CacheConfig cfg = small_cfg("secded-39-32");
  cfg.scrub_on_correct = false;
  SetAssocCache c(cfg);
  std::vector<u8> data(32, 0);
  const u32 word = 0x600df00d;
  std::memcpy(data.data(), &word, 4);
  c.fill(0x100, data.data(), /*dirty=*/true);

  ecc::FaultInjector inj;
  c.set_injector(&inj);
  inj.script_flip(0x100 / 4, 3);
  EXPECT_EQ(c.read(0x100, 4).check, ecc::CheckStatus::kCorrected);
  // Unscrubbed: a re-read still sees (and re-corrects) the same flip.
  EXPECT_EQ(c.read(0x100, 4).check, ecc::CheckStatus::kCorrected);

  const auto peek = c.peek_line(0x100);
  u32 got;
  std::memcpy(&got, peek.data(), 4);
  EXPECT_EQ(got, word);

  bool flushed = false;
  c.flush_dirty([&](Addr base, const u8* bytes) {
    EXPECT_EQ(base, 0x100u);
    std::memcpy(&got, bytes, 4);
    flushed = true;
  });
  EXPECT_TRUE(flushed);
  EXPECT_EQ(got, word);
}

TEST(Cache, SubWordWriteCorrectsBeforeMergingWithoutScrub) {
  // A standing (unscrubbed) correctable error must not be re-encoded under
  // fresh check bits by a byte store's read-modify-write — that would
  // launder the flip into a valid codeword no later read could repair.
  CacheConfig cfg = small_cfg("secded-39-32");
  cfg.scrub_on_correct = false;
  SetAssocCache c(cfg);
  std::vector<u8> data(32, 0);
  const u32 word = 0x11223344;
  std::memcpy(data.data(), &word, 4);
  c.fill(0x100, data.data(), /*dirty=*/true);

  ecc::FaultInjector inj;
  c.set_injector(&inj);
  inj.script_flip(0x100 / 4, 12);  // lands in byte 1
  EXPECT_EQ(c.read(0x100, 4).check, ecc::CheckStatus::kCorrected);

  // Overwrite byte 0 only; bytes 1-3 must come out of the codec, clean.
  c.write(0x100, 1, 0xaa, /*mark_dirty=*/true);
  const auto after = c.read(0x100, 4);
  EXPECT_EQ(after.check, ecc::CheckStatus::kOk);
  EXPECT_EQ(after.value, 0x112233aau);
}

TEST(Cache, ImpossibleGeometryThrowsInsteadOfAsserting) {
  // Geometry reaches the cache from CLI flags and daemon job bytes, so
  // every bound must hold in Release builds too: no division by zero, no
  // silently truncated set count.
  struct Case {
    const char* what;
    void (*tweak)(CacheConfig&);
  };
  const Case cases[] = {
      {"zero ways", [](CacheConfig& c) { c.ways = 0; }},
      {"3 ways", [](CacheConfig& c) { c.ways = 3; }},
      {"more ways than lines", [](CacheConfig& c) { c.ways = 64; }},
      {"3 KB", [](CacheConfig& c) { c.size_bytes = 3 * 1024; }},
      {"zero size", [](CacheConfig& c) { c.size_bytes = 0; }},
      {"24 B lines", [](CacheConfig& c) { c.line_bytes = 24; }},
      {"2 B lines", [](CacheConfig& c) { c.line_bytes = 2; }},
      {"512 B lines",
       [](CacheConfig& c) {
         c.size_bytes = 64 * 1024;
         c.line_bytes = 512;
       }},
  };
  for (const Case& k : cases) {
    CacheConfig c = small_cfg("secded-39-32");
    k.tweak(c);
    EXPECT_THROW({ SetAssocCache cache(c); }, std::invalid_argument)
        << k.what;
  }
  EXPECT_NO_THROW({ SetAssocCache cache(small_cfg()); });
}

}  // namespace
}  // namespace laec::mem
