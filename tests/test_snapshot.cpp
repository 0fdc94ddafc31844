// Simulation state snapshots: the frame save_system_state/restore_system_state
// round-trips the COMPLETE deterministic state of a sim::System, and the
// budgeted SnapshotStore thins deterministically.
//
// The fast-forward contract (sim/snapshot.hpp) says a snapshot taken by the
// golden run at consultation ordinal C is bit-identical to the state of any
// trial whose first delivery is at or after C. These tests pin the two
// halves of that claim: (1) restoring a blob into a freshly-constructed
// system and re-serializing reproduces the blob byte for byte — restore
// loses nothing save captured; (2) resuming from EVERY captured snapshot
// and running the suffix fault-free lands on exactly the golden run's final
// stats and architectural memory — save captures everything the suffix
// depends on. Corrupt, truncated, version-skewed and geometry-mismatched
// blobs must be rejected loudly, and no cut or corrupted blob may crash the
// decoder. Reference blobs pin the byte layout, and the stats-free digest
// and field diff derived from the same field lists see exactly the fields
// they should. Blobs carry no cache check bits (v3): one golden blob serves
// every codec of its timing class.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/simulator.hpp"
#include "ecc/injector.hpp"
#include "mem/residency.hpp"
#include "runner/sweep_runner.hpp"
#include "service/wire.hpp"
#include "sim/snapshot.hpp"
#include "sim/system.hpp"
#include "workloads/eembc.hpp"
#include "workloads/synthetic.hpp"

namespace laec::sim {
namespace {

core::SimConfig config_for(const std::string& scheme) {
  core::SimConfig cfg;
  cfg.set_scheme(scheme);
  cfg.dl1_size_bytes = 2 * 1024;
  return cfg;
}

struct Golden {
  core::SimConfig cfg;
  runner::PointResult result;
  std::unique_ptr<SnapshotStore> store;
};

/// One fault-free golden run of `workload` under `scheme`, capturing
/// snapshots every `every` injector consultations (unlimited budget).
Golden make_golden(const std::string& workload, const std::string& scheme,
                   u64 every) {
  Golden g;
  g.cfg = config_for(scheme);
  g.store = std::make_unique<SnapshotStore>(every, 0);
  runner::SweepPoint p;
  p.workload = workload;
  p.config = g.cfg;
  p.mode = runner::RunMode::kProgram;
  mem::ResidencyRecorder rec;
  g.result = runner::run_golden_point(p, 0x1aec, &rec, g.store.get());
  return g;
}

/// Two cores, a stride predictor and three co-runner traffic generators
/// (one per bus operation) on a 1 KB DL1. A few thousand cycles in, the bus
/// holds queued transactions, the generators and the second core are
/// mid-flight, and under write-through the write buffer is occupied.
core::SimConfig contended_config(const std::string& scheme) {
  core::SimConfig cfg;
  cfg.set_scheme(scheme);
  cfg.dl1_size_bytes = 1024;
  cfg.num_cores = 2;
  cfg.stride_predictor = true;
  TrafficPattern t;
  t.gap_cycles = 0;
  t.op = mem::BusOp::kReadLine;
  cfg.traffic.push_back(t);
  t.gap_cycles = 3;
  t.op = mem::BusOp::kWriteLine;
  t.base = 0x4010'0000;
  cfg.traffic.push_back(t);
  t.gap_cycles = 7;
  t.op = mem::BusOp::kWriteWord;
  t.base = 0x4020'0000;
  cfg.traffic.push_back(t);
  return cfg;
}

/// A contended system running iirflt on core 0, ticked `cycles` times.
std::unique_ptr<System> contended_system(const std::string& scheme,
                                         int cycles) {
  auto sys = std::make_unique<System>(
      core::make_system_config(contended_config(scheme)));
  sys->load_program(workloads::kernel_by_name("iirflt").build().program);
  for (int i = 0; i < cycles; ++i) sys->tick();
  return sys;
}

/// Flip check bit 0 of the resident L1I word at `pc` the way a storm does:
/// through a replay injector, on a read. The L1I's parity code detects the
/// flip and never scrubs, so the stored check bit stays flipped. The read
/// updates LRU state exactly as a clean read of the same word would.
void flip_l1i_check_bit(System& s, Addr pc) {
  auto storm = std::make_shared<ecc::TrialSchedule>();
  ecc::FlipSet check_bit_0;
  check_bit_0.push(32);
  storm->deliveries.push_back({0, check_bit_0});
  ecc::InjectorConfig icfg;
  icfg.schedule = storm;
  ecc::FaultInjector injector(icfg);
  mem::SetAssocCache& l1i = s.core(0).l1i().cache();
  l1i.set_injector(&injector);
  (void)l1i.read(pc, 4);
  l1i.set_injector(nullptr);
}

std::string describe(const std::vector<FieldDiff>& diffs) {
  std::string out;
  for (std::size_t i = 0; i < diffs.size() && i < 8; ++i) {
    out += "\n  " + diffs[i].path + ": " + diffs[i].a + " vs " + diffs[i].b;
  }
  return out;
}

// ------------------------------------------------------------- tier 1 ----

TEST(Snapshot, RestoreReserializesByteIdenticalPerHierarchyKey) {
  // Restore into a system that never ran a cycle, then re-save: the bytes
  // must reproduce the blob exactly. Anything restore fails to apply (or
  // save fails to capture symmetrically) shows up as a byte diff. One
  // representative key per deployment shape: the paper's policy, a plain
  // codec, a wider codec, and a compound per-level hierarchy key.
  for (const std::string scheme :
       {"laec", "secded-39-32", "sec-daec-39-32", "laec+l2:sec-daec-39-32"}) {
    const Golden g = make_golden("puwmod", scheme, 2048);
    ASSERT_TRUE(g.result.stats.completed) << scheme;
    ASSERT_GE(g.store->size(), 2u) << scheme;
    for (const auto& e : g.store->entries()) {
      System fresh(core::make_system_config(g.cfg, /*trace_mode=*/false));
      restore_system_state(fresh, *e->blob);
      EXPECT_EQ(save_system_state(fresh), *e->blob)
          << scheme << " @ ordinal " << e->ordinal;
    }
  }
}

TEST(Snapshot, GoldenCaptureIsDeterministic) {
  const Golden a = make_golden("puwmod", "laec", 2048);
  const Golden b = make_golden("puwmod", "laec", 2048);
  ASSERT_EQ(a.store->size(), b.store->size());
  ASSERT_GE(a.store->size(), 2u);
  for (std::size_t i = 0; i < a.store->size(); ++i) {
    const auto& x = *a.store->entries()[i];
    const auto& y = *b.store->entries()[i];
    EXPECT_EQ(x.ordinal, y.ordinal) << i;
    EXPECT_EQ(x.cycle, y.cycle) << i;
    EXPECT_EQ(*x.blob, *y.blob) << i;
  }
}

TEST(Snapshot, ResumeFromEverySnapshotMatchesGoldenCompletion) {
  // The actual fast-forward soundness claim: restore at ordinal C, attach a
  // replay injector with an EMPTY schedule (the fault-free trial), run the
  // suffix — the final state, every field and counter, and every
  // architecturally-final word must equal the golden run's. A single field
  // missing from the frame diverges here.
  const core::SimConfig cfg = config_for("laec");
  const auto& built = workloads::kernel_by_name("puwmod").build();
  SnapshotStore store(2048, 0);
  mem::ResidencyRecorder rec;
  const auto golden =
      core::run_program_keep_system(cfg, built.program, &rec, &store);
  ASSERT_TRUE(golden.stats.completed);
  ASSERT_GE(store.size(), 2u);

  core::SimConfig replay = cfg;
  ecc::InjectorConfig inj;
  inj.schedule = std::make_shared<ecc::TrialSchedule>();
  replay.faults = inj;

  for (const auto& e : store.entries()) {
    // A golden run that kept only this snapshot: the replay restores it
    // and, with nothing to deliver, simulates the whole suffix unchecked.
    SnapshotStore only(store.every(), 0);
    ASSERT_TRUE(only.begin_capture());
    only.add(e->ordinal, e->cycle, *e->blob);
    auto r = core::run_program_replay(replay, built.program, only,
                                      golden.stats);
    ASSERT_TRUE(r.stats.completed) << "ordinal " << e->ordinal;
    const auto diffs = diff_system_state(*golden.system, *r.system);
    EXPECT_TRUE(diffs.empty()) << "ordinal " << e->ordinal << describe(diffs);
    for (const auto& [addr, expect] : built.expected) {
      ASSERT_EQ(r.system->read_word_final(addr), expect)
          << "ordinal " << e->ordinal << " addr " << addr;
    }
  }
}

TEST(Snapshot, RestoreIntoAFinishedSystemMatchesAFreshOne) {
  // A restore overwrites a used system completely: its final-memory view
  // (flushed at the end of its own run) must not survive, so reading the
  // restored mid-run state flushes it exactly as a fresh system does.
  const core::SimConfig cfg = config_for("laec");
  const auto& built = workloads::kernel_by_name("puwmod").build();
  SnapshotStore store(4096, 0);
  mem::ResidencyRecorder rec;
  auto used = core::run_program_keep_system(cfg, built.program, &rec, &store);
  ASSERT_GE(store.size(), 1u);
  for (const auto& [addr, expect] : built.expected) {
    ASSERT_EQ(used.system->read_word_final(addr), expect);
  }
  const std::string& blob = *store.entries().front()->blob;
  restore_system_state(*used.system, blob);
  System fresh(core::make_system_config(cfg, /*trace_mode=*/false));
  restore_system_state(fresh, blob);
  EXPECT_EQ(state_digest(*used.system), state_digest(fresh));
  for (const auto& [addr, expect] : built.expected) {
    ASSERT_EQ(used.system->read_word_final(addr), fresh.read_word_final(addr))
        << "addr " << addr;
  }
}

TEST(Snapshot, TraceDrivenSystemRoundTrips) {
  // The synthetic-trace workload class: tick a trace-mode system mid-run,
  // save, restore into a fresh system, re-save — byte-identical. (The trace
  // source itself is external to the system and not part of the frame.)
  core::SimConfig cfg = config_for("laec");
  workloads::SyntheticParams params;
  params.num_ops = 50'000;
  workloads::SyntheticTrace trace(params);
  System sys(core::make_system_config(cfg, /*trace_mode=*/true), &trace);
  for (int i = 0; i < 5'000; ++i) sys.tick();
  const std::string blob = save_system_state(sys);

  workloads::SyntheticTrace unused(params);
  System fresh(core::make_system_config(cfg, /*trace_mode=*/true), &unused);
  restore_system_state(fresh, blob);
  EXPECT_EQ(save_system_state(fresh), blob);
}

TEST(Snapshot, ContendedMulticoreSystemRoundTrips) {
  // Bus queues and slots, traffic generators, the stride predictor and a
  // second core only hold state under contention; restore and re-save it
  // at several points of a write-through and a write-back run.
  for (const std::string scheme : {"wt-parity", "laec"}) {
    for (const int cycles : {1499, 14990}) {
      const auto sys = contended_system(scheme, cycles);
      const std::string blob = save_system_state(*sys);
      System fresh(core::make_system_config(contended_config(scheme)));
      restore_system_state(fresh, blob);
      EXPECT_EQ(save_system_state(fresh), blob) << scheme << " @ " << cycles;
      const auto diffs = diff_system_state(*sys, fresh);
      EXPECT_TRUE(diffs.empty()) << scheme << " @ " << cycles << describe(diffs);
    }
  }
}

TEST(Snapshot, ReferenceBlobsPinTheLayout) {
  // FNV-1a of whole reference blobs. The snapshot layout is the identity
  // of kSnapshotVersion: a change here must come with a version bump and
  // new pins (a deliberate change to what the simulator computes moves
  // them too).
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 1u);
  const auto& first = *g.store->entries().front();
  EXPECT_EQ(first.ordinal, 2048u);
  EXPECT_EQ(first.cycle, 18252u);
  EXPECT_EQ(first.blob->size(), 20749u);
  EXPECT_EQ(fnv1a(*first.blob), 0x215dce06a9502d7cull);

  const std::string wt = save_system_state(*contended_system("wt-parity", 1499));
  EXPECT_EQ(wt.size(), 28818u);
  EXPECT_EQ(fnv1a(wt), 0xd312536b086adedaull);
  const std::string wb = save_system_state(*contended_system("laec", 14990));
  EXPECT_EQ(wb.size(), 55250u);
  EXPECT_EQ(fnv1a(wb), 0x95d7e6e70329cbd7ull);
}

TEST(Snapshot, InvalidatedLinesLeaveNoTrace) {
  // State is what a run can observe. An invalidated line's words and check
  // bits stay in the array until the next fill rewrites them, but nothing
  // reads them: two systems that differ only there must save the same
  // bytes, digest alike and diff empty.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 1u);
  const std::string& blob = *g.store->entries().front()->blob;
  const Addr addr = workloads::kernel_by_name("puwmod").build().program.data_base;
  const auto make = [&](u32 value) {
    auto s = std::make_unique<System>(
        core::make_system_config(g.cfg, /*trace_mode=*/false));
    restore_system_state(*s, blob);
    mem::SetAssocCache& l2 = s->memsys().l2();
    EXPECT_TRUE(l2.contains(addr));
    l2.write(addr, 4, value, /*mark_dirty=*/true);
    EXPECT_TRUE(l2.invalidate(addr));
    return s;
  };
  const auto a = make(0x1234'5678);
  const auto b = make(0x9abc'def0);
  // (Compared as a bool: a mismatch would print two whole blobs.)
  EXPECT_TRUE(save_system_state(*a) == save_system_state(*b));
  EXPECT_EQ(state_digest(*a), state_digest(*b));
  const auto diffs = diff_system_state(*a, *b);
  EXPECT_TRUE(diffs.empty()) << describe(diffs);
}

TEST(Snapshot, DigestExcludesStatisticsAndDiffNamesTheField) {
  const Golden g = make_golden("puwmod", "laec", 4096);
  ASSERT_GE(g.store->size(), 1u);
  const std::string& blob = *g.store->entries().front()->blob;
  const auto make = [&] {
    auto s = std::make_unique<System>(
        core::make_system_config(g.cfg, /*trace_mode=*/false));
    restore_system_state(*s, blob);
    return s;
  };
  const auto a = make();
  const auto b = make();
  EXPECT_EQ(state_digest(*a), state_digest(*b));
  EXPECT_TRUE(diff_system_state(*a, *b).empty());

  // A counter is saved, diffed and tagged as a statistic, but the digest
  // does not see it.
  ++b->core(0).pipeline().stats().counter("loads");
  EXPECT_NE(save_system_state(*a), save_system_state(*b));
  EXPECT_EQ(state_digest(*a), state_digest(*b));
  auto diffs = diff_system_state(*a, *b);
  ASSERT_EQ(diffs.size(), 1u) << describe(diffs);
  EXPECT_EQ(diffs[0].path, "cores[0].pipeline.stats.loads");
  EXPECT_TRUE(diffs[0].stats);
  EXPECT_EQ(std::stoull(diffs[0].b), std::stoull(diffs[0].a) + 1);

  // A memory byte is state: the digest moves and the diff points at it.
  const Addr addr = workloads::kernel_by_name("puwmod").build().program.data_base + 5;
  mem::MainMemory& mem_b = b->memsys().memory();
  mem_b.write_u8(addr, static_cast<u8>(~mem_b.read_u8(addr)));
  EXPECT_NE(state_digest(*a), state_digest(*b));
  diffs = diff_system_state(*a, *b);
  ASSERT_EQ(diffs.size(), 2u) << describe(diffs);
  const std::string page = std::to_string(addr >> mem::MainMemory::kPageBits);
  const std::string byte =
      std::to_string(addr & (mem::MainMemory::kPageSize - 1));
  EXPECT_EQ(diffs[1].path, "memsys.memory.pages[" + page + "].bytes[" + byte + "]");
  EXPECT_FALSE(diffs[1].stats);

  // The cycle counter is state too.
  const u64 before = state_digest(*a);
  a->tick();
  EXPECT_NE(state_digest(*a), before);
}

/// Where a frame's payload starts: the 8-byte magic, the u32 version and
/// the u64 checksum come first.
constexpr std::size_t kPayloadAt = 8 + 4 + 8;

/// A resident word of `cache` at or after `from`.
Addr resident_word(const mem::SetAssocCache& cache, Addr from) {
  for (Addr a = from; a < from + (1u << 16); a += 4) {
    if (cache.contains(a)) return a;
  }
  ADD_FAILURE() << "no resident word past " << from;
  return from;
}

/// The state leaves (statistics left out) on which two systems differ.
std::vector<std::string> state_diff_paths(const System& a, const System& b) {
  std::vector<std::string> out;
  for (const auto& d : diff_system_state(a, b)) {
    if (!d.stats) out.push_back(d.path);
  }
  return out;
}

TEST(Snapshot, StateMatchesIsExact) {
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 1u);
  const std::string& blob = *g.store->entries().front()->blob;
  const auto restored = [&] {
    auto s = std::make_unique<System>(
        core::make_system_config(g.cfg, /*trace_mode=*/false));
    restore_system_state(*s, blob);
    return s;
  };
  const auto a = restored();
  EXPECT_TRUE(state_matches(*a, blob));
  const auto busy = contended_system("laec", 14990);
  EXPECT_TRUE(state_matches(*busy, save_system_state(*busy)));

  // A statistic is not state.
  {
    const auto b = restored();
    ++b->core(0).pipeline().stats().counter("loads");
    ++b->memsys().l2().stats().counter("reads");
    EXPECT_TRUE(state_matches(*b, blob));
  }

  // The cycle counter leads the payload.
  {
    std::string bad = blob;
    u64 now = 0;
    std::memcpy(&now, bad.data() + kPayloadAt, sizeof now);
    ASSERT_EQ(now, a->now());
    bad[kPayloadAt] ^= 0x01;
    EXPECT_FALSE(state_matches(*a, bad));
  }

  const Addr data =
      workloads::kernel_by_name("puwmod").build().program.data_base;
  // One state leaf changed on the system's side.
  const auto expect_miss = [&](const std::string& what, const System& b,
                               const std::string& leaf) {
    const auto paths = state_diff_paths(*a, b);
    ASSERT_FALSE(paths.empty()) << what;
    EXPECT_EQ(paths.front().substr(paths.front().size() - leaf.size()), leaf)
        << what;
    EXPECT_FALSE(state_matches(b, blob)) << what;
  };
  {
    const auto b = restored();
    cpu::Pipeline& pipe = b->core(0).pipeline();
    pipe.set_reg(5, pipe.reg(5) ^ 0x10);
    ASSERT_EQ(state_diff_paths(*a, *b).size(), 1u);
    expect_miss("pipeline register", *b, "pipeline.regs[5]");
  }
  {
    const auto b = restored();
    mem::MainMemory& m = b->memsys().memory();
    const Addr at = data + 3;
    m.write_u8(at, static_cast<u8>(m.read_u8(at) ^ 0x04));
    ASSERT_EQ(state_diff_paths(*a, *b).size(), 1u);
    expect_miss("memory byte", *b,
                "pages[" + std::to_string(at >> mem::MainMemory::kPageBits) +
                    "].bytes[" +
                    std::to_string(at & (mem::MainMemory::kPageSize - 1)) +
                    "]");
  }
  {
    // The invalid way's other fields drop out of the list with it.
    const auto b = restored();
    mem::SetAssocCache& dl1 = b->core(0).dl1().cache();
    ASSERT_TRUE(dl1.invalidate(resident_word(dl1, data)));
    expect_miss("valid bit", *b, ".valid");
  }

  // Both sides changed alike but for one leaf, compared against a save of
  // the first.
  {
    const auto x = restored();
    const auto y = restored();
    mem::PendingStore st{data, 4, 0x1234, false, true};
    x->core(0).wbuf().push(st);
    st.value ^= 0x100;
    y->core(0).wbuf().push(st);
    ASSERT_EQ(state_diff_paths(*x, *y).size(), 1u);
    EXPECT_TRUE(state_matches(*x, save_system_state(*x)));
    EXPECT_FALSE(state_matches(*y, save_system_state(*x)))
        << "write-buffer entry";
  }
  // A cache write changes a word and its check bits; a save carries the
  // word only. Patching the word's first differing byte into a save
  // changes one leaf.
  {
    const auto x = restored();
    const auto y = restored();
    mem::SetAssocCache& dl1x = x->core(0).dl1().cache();
    const Addr at = resident_word(dl1x, data);
    dl1x.write(at, 4, 0x5a5a'0f0f, /*mark_dirty=*/true);
    y->core(0).dl1().cache().write(at, 4, 0x5a5a'0f0f ^ 0x0100,
                                   /*mark_dirty=*/true);
    const auto paths = state_diff_paths(*x, *y);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_NE(paths[0].find(".words["), std::string::npos) << paths[0];
    EXPECT_NE(paths[1].find(".check["), std::string::npos) << paths[1];
    const std::string sx = save_system_state(*x);
    const std::string sy = save_system_state(*y);
    ASSERT_EQ(sx.size(), sy.size());
    std::size_t first = sx.size();
    for (std::size_t i = kPayloadAt; i < sx.size() && first == sx.size(); ++i) {
      if (sx[i] != sy[i]) first = i;
    }
    ASSERT_LT(first, sx.size());
    std::string patched = sx;
    patched[first] = sy[first];
    EXPECT_TRUE(state_matches(*x, sx));
    EXPECT_FALSE(state_matches(*x, patched)) << "DL1 word";
  }
  // A live check bit is state though no blob carries it: the match wants
  // every live check word to be the encoding of its live word, so a check
  // bit a storm left flipped fails it.
  {
    const auto x = restored();
    const auto y = restored();
    const Addr pc = resident_word(
        x->core(0).l1i().cache(),
        workloads::kernel_by_name("puwmod").build().program.text_base);
    (void)x->core(0).l1i().cache().read(pc, 4);
    flip_l1i_check_bit(*y, pc);
    const auto paths = state_diff_paths(*x, *y);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_NE(paths[0].find("l1i.cache.ways["), std::string::npos) << paths[0];
    EXPECT_NE(paths[0].find(".check["), std::string::npos) << paths[0];
    const std::string sx = save_system_state(*x);
    EXPECT_TRUE(state_matches(*x, sx));
    EXPECT_FALSE(state_matches(*y, sx)) << "L1I check bit";
  }

  // A blob that lists a page twice has as many pages as the system, all of
  // them the system's, yet lacks one of the system's pages. Two twins with
  // two fresh zero pages each differ in the last page's key alone; writing
  // the previous page's key over it yields such a blob.
  {
    const auto with_pages = [&](Addr second) {
      auto s = restored();
      s->memsys().memory().write_u8(0x7000'0000, 0);
      s->memsys().memory().write_u8(second, 0);
      return s;
    };
    const auto x = with_pages(0x7000'1000);
    const std::string sx = save_system_state(*x);
    const std::string sy = save_system_state(*with_pages(0x7000'2000));
    ASSERT_EQ(sx.size(), sy.size());
    std::size_t at = kPayloadAt;
    while (at < sx.size() && sx[at] == sy[at]) ++at;
    ASSERT_LT(at, sx.size());
    ASSERT_EQ(sx[at], 0x01);  // low byte of page 0x70001
    std::string twice = sx;
    twice[at] = 0x00;  // page 0x70000, listed just before it
    EXPECT_TRUE(state_matches(*x, sx));
    EXPECT_FALSE(state_matches(*x, twice));
  }

  // Short, foreign and other-geometry blobs: false, without throwing or
  // reading past the end (each cut lives in a buffer of exactly its size,
  // so the sanitizer job sees any over-read).
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{7}, std::size_t{8}, std::size_t{19},
        kPayloadAt, kPayloadAt + 1, std::size_t{100}, blob.size() / 2,
        blob.size() - 1}) {
    const auto cut = std::make_unique<char[]>(n);
    std::memcpy(cut.get(), blob.data(), n);
    EXPECT_FALSE(state_matches(*a, std::string_view(cut.get(), n))) << n;
  }
  EXPECT_FALSE(state_matches(*a, blob + std::string(1, '\0')));
  {
    std::string bad = blob;
    bad[0] ^= 0x40;  // magic
    EXPECT_FALSE(state_matches(*a, bad));
    bad = blob;
    bad[8] ^= 0x01;  // version
    EXPECT_FALSE(state_matches(*a, bad));
  }
  core::SimConfig wide = g.cfg;
  wide.dl1_size_bytes = 4 * 1024;
  System other(core::make_system_config(wide, /*trace_mode=*/false));
  other.load_program(workloads::kernel_by_name("puwmod").build().program);
  for (int i = 0; i < 2000; ++i) other.tick();
  EXPECT_FALSE(state_matches(*a, save_system_state(other)));
  EXPECT_FALSE(state_matches(other, blob));
}

TEST(Snapshot, DigestSeesPairedTopBitFlips) {
  // state_digest folds 8-byte chunks. Unmixed, a flip of bit 63 of a chunk
  // only ever flips bit 63 of the hash, so two of them cancel: flipping
  // bit 7 of two memory bytes 8 apart collides at one of the 8 byte
  // phases. Each chunk is mixed before it is folded in.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 1u);
  System s(core::make_system_config(g.cfg, /*trace_mode=*/false));
  restore_system_state(s, *g.store->entries().front()->blob);
  const u64 clean = state_digest(s);
  const Addr data =
      workloads::kernel_by_name("puwmod").build().program.data_base;
  mem::MainMemory& m = s.memsys().memory();
  const auto flip = [&](Addr a) {
    m.write_u8(a, static_cast<u8>(m.read_u8(a) ^ 0x80));
  };
  for (Addr phase = 0; phase < 8; ++phase) {
    flip(data + phase);
    flip(data + phase + 8);
    EXPECT_NE(state_digest(s), clean) << "phase " << phase;
    flip(data + phase);
    flip(data + phase + 8);
    ASSERT_EQ(state_digest(s), clean);
  }
}

TEST(Snapshot, OneGoldenBlobServesEveryCodecOfItsTimingClass) {
  // laec and sec-daec-39-32 differ in the DL1's codec alone, so their
  // fault-free runs are one run: the blobs (which carry no check bits) are
  // equal, and a laec blob restored into a sec-daec-39-32 system derives
  // that codec's check bits, giving exactly the state of the scheme's own
  // golden run.
  const Golden laec = make_golden("puwmod", "laec", 2048);
  const Golden sd = make_golden("puwmod", "sec-daec-39-32", 2048);
  ASSERT_GE(laec.store->size(), 2u);
  ASSERT_EQ(laec.store->size(), sd.store->size());
  const Addr pc = workloads::kernel_by_name("puwmod").build().program.text_base;
  for (std::size_t i = 0; i < sd.store->size(); ++i) {
    const std::string& blob = *laec.store->entries()[i]->blob;
    const std::string& own_blob = *sd.store->entries()[i]->blob;
    EXPECT_TRUE(blob == own_blob) << i;
    System own(core::make_system_config(sd.cfg, /*trace_mode=*/false));
    restore_system_state(own, own_blob);
    System from_laec(core::make_system_config(sd.cfg, /*trace_mode=*/false));
    restore_system_state(from_laec, blob);
    EXPECT_EQ(state_digest(from_laec), state_digest(own)) << i;
    EXPECT_TRUE(state_matches(from_laec, own_blob)) << i;
    // The digest walks the check bits: laec's own system holds SECDED's.
    System under_laec(core::make_system_config(laec.cfg, /*trace_mode=*/false));
    restore_system_state(under_laec, blob);
    EXPECT_NE(state_digest(under_laec), state_digest(from_laec)) << i;
    // After one read of an L1I word, a twin that read it clean matches
    // the scheme's own state; one whose read met a storm that flipped a
    // check bit does not.
    const Addr at = resident_word(own.core(0).l1i().cache(), pc);
    (void)own.core(0).l1i().cache().read(at, 4);
    const std::string after = save_system_state(own);
    System twin(core::make_system_config(sd.cfg, /*trace_mode=*/false));
    restore_system_state(twin, blob);
    (void)twin.core(0).l1i().cache().read(at, 4);
    EXPECT_TRUE(state_matches(twin, after)) << i;
    flip_l1i_check_bit(from_laec, at);
    EXPECT_FALSE(state_matches(from_laec, after)) << i;
  }
}

TEST(Snapshot, SaveRefusesAnArrayThatHadAnInjector) {
  // A blob leaves check bits out because a clean array's are derivable;
  // once an injector was attached they may hold faults, so save refuses
  // (even after a detach). A digest and a diff still describe the system.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 1u);
  System s(core::make_system_config(g.cfg, /*trace_mode=*/false));
  restore_system_state(s, *g.store->entries().front()->blob);
  (void)save_system_state(s);
  ecc::InjectorConfig icfg;
  icfg.schedule = std::make_shared<ecc::TrialSchedule>();
  ecc::FaultInjector injector(icfg);
  s.memsys().l2().set_injector(&injector);
  s.memsys().l2().set_injector(nullptr);
  try {
    (void)save_system_state(s);
    FAIL() << "an array that had an injector was saved";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("l2"), std::string::npos)
        << err.what();
  }
  EXPECT_NO_THROW((void)state_digest(s));
  EXPECT_TRUE(diff_system_state(s, s).empty());
}

/// The v3 frame checksum, restated: FNV-1a over the payload's 8-byte
/// little-endian chunks (then its tail bytes), each through mix64 first.
u64 v3_checksum(std::string_view payload) {
  u64 h = kFnvPinnedOffset;
  std::size_t i = 0;
  for (; i + 8 <= payload.size(); i += 8) {
    u64 chunk = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      chunk |= u64{static_cast<u8>(payload[i + b])} << (8 * b);
    }
    h = (h ^ mix64(chunk)) * kFnvPrime;
  }
  for (; i < payload.size(); ++i) {
    h = (h ^ mix64(static_cast<u8>(payload[i]))) * kFnvPrime;
  }
  return h;
}

/// `frame` with its checksum recomputed over its payload, so a restore
/// gets past the checksum and decodes the payload.
std::string rechecksummed(std::string frame) {
  const u64 sum = v3_checksum(std::string_view(frame).substr(kPayloadAt));
  for (std::size_t b = 0; b < 8; ++b) {
    frame[12 + b] = static_cast<char>(sum >> (8 * b));
  }
  return frame;
}

TEST(Snapshot, ChecksumSeesPairedTopBitFlips) {
  // Unmixed, the checksum of two payloads that differ in bit 63 of two
  // 8-byte chunks is the same (v2 accepted such a blob). Every chunk is
  // mixed first, so the pair is a checksum mismatch wherever it lands.
  const Golden g = make_golden("puwmod", "laec", 2048);
  ASSERT_GE(g.store->size(), 1u);
  const std::string& good = *g.store->entries().front()->blob;
  EXPECT_TRUE(rechecksummed(good) == good);  // the restated checksum holds
  const std::size_t chunks = (good.size() - kPayloadAt) / 8;
  ASSERT_GE(chunks, 16u);
  System s(core::make_system_config(g.cfg, /*trace_mode=*/false));
  for (const auto& [c1, c2] :
       {std::pair<std::size_t, std::size_t>{0, 1}, {0, chunks / 2},
        {chunks / 3, chunks - 1}, {chunks - 2, chunks - 1}}) {
    std::string bad = good;
    bad[kPayloadAt + 8 * c1 + 7] ^= static_cast<char>(0x80);
    bad[kPayloadAt + 8 * c2 + 7] ^= static_cast<char>(0x80);
    try {
      restore_system_state(s, bad);
      ADD_FAILURE() << "chunks " << c1 << ", " << c2 << ": accepted";
    } catch (const service::WireError& err) {
      EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos)
          << "chunks " << c1 << ", " << c2 << ": " << err.what();
    }
  }
}

/// One decode attempt on `bytes`, held in a buffer of exactly its size so
/// the sanitizer job sees any read past it: restore ends in success or a
/// WireError (anything else fails the test), and state_matches returns.
void decode_hostile(System& target, const System& golden,
                    std::string_view bytes, std::size_t& accepted) {
  const auto buf = std::make_unique<char[]>(std::max<std::size_t>(bytes.size(), 1));
  std::memcpy(buf.get(), bytes.data(), bytes.size());
  const std::string_view blob(buf.get(), bytes.size());
  try {
    restore_system_state(target, blob);
    ++accepted;
  } catch (const service::WireError&) {
  }
  (void)state_matches(golden, blob);
}

TEST(Snapshot, DecoderSurvivesEveryCutFlipAndLyingField) {
  // A small golden system (1 KB L1s, 8 KB L2, a few thousand cycles of
  // puwmod), so every length and every byte is tried within the tier-1
  // budget. Each corruption is re-checksummed, so the decoder itself meets
  // it: every cut, one flipped bit in every byte, and a lying u32 at every
  // offset (every size and shape field among them), set to 0xffffffff at
  // even offsets and to its value plus one at odd ones.
  core::SimConfig cfg = config_for("laec");
  cfg.dl1_size_bytes = 1024;
  cfg.l1i_size_bytes = 1024;
  sim::SystemConfig sc = core::make_system_config(cfg, /*trace_mode=*/false);
  sc.memsys.l2.cache.size_bytes = 8 * 1024;
  System golden(sc);
  golden.load_program(workloads::kernel_by_name("puwmod").build().program);
  for (int i = 0; i < 3000; ++i) golden.tick();
  const std::string good = save_system_state(golden);
  ASSERT_GT(good.size(), kPayloadAt + 64);
  ASSERT_LT(good.size(), 16'000u);  // the fuzz's time budget
  System target(sc);
  std::size_t accepted = 0;

  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::string cut = good.substr(0, n);
    decode_hostile(target, golden, cut, accepted);
    if (n >= kPayloadAt) decode_hostile(target, golden, rechecksummed(cut), accepted);
  }
  EXPECT_EQ(accepted, 0u) << "a cut blob was accepted";

  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] ^= static_cast<char>(1u << (i % 8));
    decode_hostile(target, golden, i >= kPayloadAt ? rechecksummed(bad) : bad,
                   accepted);
  }
  for (std::size_t i = kPayloadAt; i + 4 <= good.size(); ++i) {
    u32 lie = 0;
    std::memcpy(&lie, good.data() + i, 4);
    lie = i % 2 == 0 ? 0xffff'ffffu : lie + 1;
    std::string bad = good;
    std::memcpy(bad.data() + i, &lie, 4);
    decode_hostile(target, golden, rechecksummed(bad), accepted);
  }
  // The good blob still restores into the target the fuzz went through.
  restore_system_state(target, good);
  EXPECT_TRUE(state_matches(target, good));
}

TEST(Snapshot, CorruptAndSkewedBlobsAreRejected) {
  const Golden g = make_golden("puwmod", "laec", 4096);
  ASSERT_GE(g.store->size(), 1u);
  const std::string good = *g.store->entries().front()->blob;
  const auto fresh = [&] {
    return System(core::make_system_config(g.cfg, /*trace_mode=*/false));
  };

  {  // bad magic
    std::string bad = good;
    bad[0] ^= 0x40;
    auto s = fresh();
    EXPECT_THROW(restore_system_state(s, bad), service::WireError);
  }
  {  // version skew (version field sits right after the 8-byte magic)
    std::string bad = good;
    bad[8] ^= 0x01;
    auto s = fresh();
    try {
      restore_system_state(s, bad);
      FAIL() << "version-skewed blob accepted";
    } catch (const service::WireError& err) {
      EXPECT_NE(std::string(err.what()).find("version"), std::string::npos);
    }
  }
  {  // payload corruption caught by the checksum
    std::string bad = good;
    bad[bad.size() / 2] ^= 0x10;
    auto s = fresh();
    try {
      restore_system_state(s, bad);
      FAIL() << "corrupt blob accepted";
    } catch (const service::WireError& err) {
      EXPECT_NE(std::string(err.what()).find("checksum"), std::string::npos);
    }
  }
  {  // truncation
    auto s = fresh();
    EXPECT_THROW(restore_system_state(s, std::string_view(good).substr(0, 16)),
                 service::WireError);
  }
}

TEST(Snapshot, GeometryMismatchIsRejected) {
  const Golden g = make_golden("puwmod", "laec", 4096);
  ASSERT_GE(g.store->size(), 1u);
  core::SimConfig other = g.cfg;
  other.dl1_size_bytes = 4 * 1024;
  System sys(core::make_system_config(other, /*trace_mode=*/false));
  try {
    restore_system_state(sys, *g.store->entries().front()->blob);
    FAIL() << "geometry-mismatched blob accepted";
  } catch (const service::WireError& err) {
    // The message names the field whose shape differs: the DL1 way count.
    EXPECT_NE(std::string(err.what()).find("ways"), std::string::npos)
        << err.what();
  }
}

TEST(Snapshot, StoreThinsDeterministicallyUnderBudget) {
  // 300-byte blobs under a 1000-byte budget: the keep stride must double
  // exactly when the budget would overflow, survivors are the on-stride
  // capture sequence, and the surviving set depends only on that sequence.
  const auto build = [] {
    SnapshotStore s(/*every=*/1, /*budget_bytes=*/1000);
    u64 ordinal = 3;
    for (int i = 0; i < 8; ++i) {
      if (s.begin_capture()) {
        s.add(ordinal, ordinal * 10, std::string(300, 'x'));
      }
      ordinal += 5;
    }
    return s;
  };
  const SnapshotStore s = build();
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(s.stride(), 4u);
  EXPECT_EQ(s.bytes(), 600u);
  ASSERT_EQ(s.entries().size(), 2u);
  EXPECT_EQ(s.entries()[0]->ordinal, 3u);   // capture seq 0
  EXPECT_EQ(s.entries()[1]->ordinal, 23u);  // capture seq 4

  EXPECT_EQ(s.best_at_or_before(2), nullptr);
  EXPECT_EQ(s.best_at_or_before(3)->ordinal, 3u);
  EXPECT_EQ(s.best_at_or_before(22)->ordinal, 3u);
  EXPECT_EQ(s.best_at_or_before(23)->ordinal, 23u);
  EXPECT_EQ(s.best_at_or_before(~u64{0})->ordinal, 23u);

  // Determinism: an identical capture sequence reproduces the store.
  const SnapshotStore t = build();
  ASSERT_EQ(t.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(t.entries()[i]->ordinal, s.entries()[i]->ordinal);
  }
}

}  // namespace
}  // namespace laec::sim
