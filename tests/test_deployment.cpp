// HierarchyDeployment: compound-key parsing, canonicalization round-trips,
// backward compatibility of every pre-existing single-level key, the
// timing class, and the SimConfig -> SystemConfig wiring of all three
// cache levels and of every machine parameter's one default.
#include "core/deployment.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "core/simulator.hpp"
#include "ecc/registry.hpp"

namespace laec {
namespace {

using core::HierarchyDeployment;
using core::InjectTarget;
using core::LevelDeployment;
using mem::RecoveryPolicy;

void expect_same_deployment(const HierarchyDeployment& a,
                            const HierarchyDeployment& b) {
  EXPECT_TRUE(a.dl1 == b.dl1);
  EXPECT_EQ(a.timing, b.timing);
  EXPECT_EQ(a.write_policy, b.write_policy);
  EXPECT_EQ(a.alloc_policy, b.alloc_policy);
  EXPECT_TRUE(a.l1i == b.l1i);
  EXPECT_TRUE(a.l2 == b.l2);
  EXPECT_EQ(a.name, b.name);
}

TEST(HierarchyDeploymentParse, RoundTripsEveryKeyShape) {
  std::vector<std::string> keys = HierarchyDeployment::policy_keys();
  for (const auto& codec : ecc::registered_codecs()) {
    if (ecc::make_codec(codec)->data_bits() == 32) keys.push_back(codec);
  }
  keys.insert(keys.end(),
              {"extra-stage:sec-daec-39-32", "laec+l2:sec-daec-39-32",
               "laec+l1i:secded-39-32+l2:sec-daec-39-32",
               "sec-daec-39-32+l1i:parity-i2-32",
               "wt-parity+l2:sec-daec-39-32:no-scrub",
               "dl1:secded-39-32:no-scrub+l2:secded-39-32:refetch",
               "laec:no-scrub", "laec+l1i:secded-39-32:refetch"});
  for (const auto& key : keys) {
    SCOPED_TRACE(key);
    const auto d = HierarchyDeployment::parse(key);
    EXPECT_EQ(d.name, d.canonical_key());
    const auto again = HierarchyDeployment::parse(d.canonical_key());
    expect_same_deployment(d, again);
  }
}

TEST(HierarchyDeploymentParse, SingleLevelKeysKeepTheirOldDl1Meaning) {
  // PR 2's single-level grammar must parse to the identical DL1
  // arrangement (and canonicalize to itself, so CSV "ecc" values hold).
  const auto laec = HierarchyDeployment::parse("laec");
  EXPECT_EQ(laec.name, "laec");
  EXPECT_EQ(laec.dl1.codec, "secded-39-32");
  EXPECT_EQ(laec.timing, cpu::EccPolicy::kLaec);
  EXPECT_EQ(laec.write_policy, mem::WritePolicy::kWriteBack);
  EXPECT_TRUE(laec.dl1.scrub_on_correct);
  EXPECT_EQ(laec.dl1.recovery, RecoveryPolicy::kCorrectInPlace);

  const auto daec = HierarchyDeployment::parse("sec-daec-39-32");
  EXPECT_EQ(daec.name, "sec-daec-39-32");
  EXPECT_EQ(daec.timing, cpu::EccPolicy::kLaec);

  // A bare codec key keeps its codec spelling even though it expands to
  // the same arrangement as a policy key — "secded-39-32" and "laec" are
  // distinct sweep-axis values (the CSV "ecc" column must tell them
  // apart), exactly as in the single-level grammar.
  const auto secded = HierarchyDeployment::parse("secded-39-32");
  EXPECT_EQ(secded.name, "secded-39-32");
  EXPECT_EQ(secded.timing, cpu::EccPolicy::kLaec);
  EXPECT_EQ(HierarchyDeployment::parse("secded-39-32+l2:none").name,
            "secded-39-32+l2:none");

  const auto placed = HierarchyDeployment::parse("extra-stage:sec-daec-39-32");
  EXPECT_EQ(placed.name, "extra-stage:sec-daec-39-32");
  EXPECT_EQ(placed.timing, cpu::EccPolicy::kExtraStage);
  EXPECT_EQ(placed.dl1.codec, "sec-daec-39-32");

  const auto wt = HierarchyDeployment::parse("wt-parity");
  EXPECT_EQ(wt.name, "wt-parity");
  EXPECT_EQ(wt.dl1.recovery, RecoveryPolicy::kInvalidateRefetch);
}

TEST(HierarchyDeploymentParse, UnnamedLevelsKeepCanonicalDefaults) {
  for (const auto& key : {"laec", "sec-daec-39-32", "no-ecc",
                          "extra-stage:sec-daec-39-32"}) {
    SCOPED_TRACE(key);
    const auto d = HierarchyDeployment::parse(key);
    EXPECT_TRUE(d.l1i == HierarchyDeployment::l1i_default());
    EXPECT_TRUE(d.l2 == HierarchyDeployment::l2_default());
  }
  EXPECT_EQ(HierarchyDeployment::l1i_default().codec, "parity-32");
  EXPECT_EQ(HierarchyDeployment::l1i_default().recovery,
            RecoveryPolicy::kInvalidateRefetch);
  EXPECT_EQ(HierarchyDeployment::l2_default().codec, "secded-39-32");
  EXPECT_EQ(HierarchyDeployment::l2_default().recovery,
            RecoveryPolicy::kCorrectInPlace);
}

TEST(HierarchyDeploymentParse, LevelOverridesLandOnTheirLevel) {
  const auto d = HierarchyDeployment::parse(
      "laec+l1i:secded-39-32+l2:sec-daec-39-32");
  EXPECT_EQ(d.dl1.codec, "secded-39-32");  // DL1 untouched by level segments
  EXPECT_EQ(d.l1i.codec, "secded-39-32");
  EXPECT_TRUE(d.l1i.scrub_on_correct);  // derived: correcting codec
  EXPECT_EQ(d.l1i.recovery, RecoveryPolicy::kCorrectInPlace);
  EXPECT_EQ(d.l2.codec, "sec-daec-39-32");
  EXPECT_EQ(d.name, "laec+l1i:secded-39-32+l2:sec-daec-39-32");

  // Restating a level's default is legal and canonicalizes away.
  const auto redundant = HierarchyDeployment::parse("laec+l1i:parity-32");
  EXPECT_EQ(redundant.name, "laec");

  // Flags override the codec-derived defaults.
  const auto flagged =
      HierarchyDeployment::parse("laec+l2:secded-39-32:no-scrub:refetch");
  EXPECT_FALSE(flagged.l2.scrub_on_correct);
  EXPECT_EQ(flagged.l2.recovery, RecoveryPolicy::kInvalidateRefetch);
  EXPECT_EQ(flagged.name, "laec+l2:secded-39-32:no-scrub:refetch");
}

TEST(HierarchyDeploymentParse, MalformedCompoundKeysThrow) {
  using core::HierarchyDeployment;
  // Duplicate levels / duplicate DL1 segments.
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+l2:none+l2:none"),
               std::invalid_argument);
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+sec-daec-39-32"),
               std::invalid_argument);
  // No DL1 segment at all.
  EXPECT_THROW((void)HierarchyDeployment::parse("l2:sec-daec-39-32"),
               std::invalid_argument);
  // Unknown level, unknown codec, 64-bit geometry, empty segment.
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+l3:secded-39-32"),
               std::invalid_argument);
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+l2:quantum-ecc"),
               std::invalid_argument);
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+l2:sec-daec-72-64"),
               std::invalid_argument);
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+"),
               std::invalid_argument);
  // Correct-in-place recovery needs a correcting codec.
  EXPECT_THROW((void)HierarchyDeployment::parse("laec+l1i:parity-32:correct"),
               std::invalid_argument);
  // Conflicting (or duplicate) flags of one kind are rejected, not
  // silently resolved.
  EXPECT_THROW((void)HierarchyDeployment::parse(
                   "laec+l2:secded-39-32:scrub:no-scrub"),
               std::invalid_argument);
  EXPECT_THROW((void)HierarchyDeployment::parse(
                   "laec+l2:secded-39-32:correct:refetch"),
               std::invalid_argument);
}

TEST(HierarchyDeploymentLevel, EachTargetNamesItsLevel) {
  const auto d = HierarchyDeployment::parse(
      "sec-daec-39-32+l1i:parity-i2-32+l2:dec-bch-45-32");
  EXPECT_EQ(&d.level(InjectTarget::kDl1), &d.dl1);
  EXPECT_EQ(&d.level(InjectTarget::kL1i), &d.l1i);
  EXPECT_EQ(&d.level(InjectTarget::kL2), &d.l2);
  EXPECT_EQ(d.level(InjectTarget::kL2).codec, "dec-bch-45-32");
}

TEST(HierarchyDeploymentTimingClass, OnlyTimingFieldsMoveTheClass) {
  // A fault-free run sees the DL1 placement and its write and allocate
  // policies, never a level's codec, scrub or recovery, nor a name.
  const auto base = HierarchyDeployment::parse("laec");
  const auto cls = base.timing_class();
  const auto same_class = [&](const HierarchyDeployment& d) {
    return d.timing_class() == cls;
  };
  for (LevelDeployment HierarchyDeployment::*level :
       {&HierarchyDeployment::dl1, &HierarchyDeployment::l1i,
        &HierarchyDeployment::l2}) {
    HierarchyDeployment d = base;
    (d.*level).codec = "sec-daec-39-32";
    EXPECT_TRUE(same_class(d));
    d = base;
    (d.*level).scrub_on_correct = !(d.*level).scrub_on_correct;
    EXPECT_TRUE(same_class(d));
    d = base;
    (d.*level).recovery = (d.*level).recovery == RecoveryPolicy::kCorrectInPlace
                              ? RecoveryPolicy::kInvalidateRefetch
                              : RecoveryPolicy::kCorrectInPlace;
    EXPECT_TRUE(same_class(d));
  }
  HierarchyDeployment named = base;
  named.name = "something-else";
  named.dl1_key = "sec-daec-39-32";
  EXPECT_TRUE(same_class(named));

  HierarchyDeployment d = base;
  d.timing = cpu::EccPolicy::kExtraStage;
  EXPECT_FALSE(same_class(d));
  d = base;
  d.write_policy = mem::WritePolicy::kWriteThrough;
  EXPECT_FALSE(same_class(d));
  d = base;
  d.alloc_policy = mem::AllocPolicy::kNoWriteAllocate;
  EXPECT_FALSE(same_class(d));

  // The same through parsed keys: codec changes on every level stay in
  // LAEC's class, another placement leaves it.
  EXPECT_TRUE(same_class(HierarchyDeployment::parse(
      "sec-daec-39-32:no-scrub+l1i:secded-39-32+l2:none")));
  EXPECT_FALSE(same_class(HierarchyDeployment::parse("extra-stage")));
  EXPECT_FALSE(same_class(HierarchyDeployment::parse("wt-parity")));
}

TEST(HierarchyDeploymentWiring, SystemConfigCarriesAllThreeLevels) {
  core::SimConfig cfg;
  cfg.set_scheme("laec+l1i:parity-i2-32+l2:sec-daec-39-32:no-scrub");
  const auto sc = core::make_system_config(cfg);
  ASSERT_NE(sc.core.dl1.cache.codec, nullptr);
  EXPECT_EQ(sc.core.dl1.cache.codec->name(), "secded-39-32");
  EXPECT_TRUE(sc.core.dl1.cache.scrub_on_correct);
  EXPECT_EQ(sc.core.l1i.cache.codec->name(), "parity-i2-32");
  EXPECT_EQ(sc.core.l1i.cache.recovery, RecoveryPolicy::kInvalidateRefetch);
  EXPECT_EQ(sc.memsys.l2.cache.codec->name(), "sec-daec-39-32");
  EXPECT_FALSE(sc.memsys.l2.cache.scrub_on_correct);
  EXPECT_EQ(sc.memsys.l2.cache.recovery, RecoveryPolicy::kCorrectInPlace);
}

TEST(HierarchyDeploymentWiring, DefaultHierarchyMatchesPreRefactorMachine) {
  // The default scheme (LAEC) must build the paper's machine: SECDED DL1,
  // parity L1I, SECDED L2.
  core::SimConfig cfg;
  const auto sc = core::make_system_config(cfg);
  EXPECT_EQ(sc.core.dl1.cache.codec->name(), "secded-39-32");
  EXPECT_EQ(sc.core.l1i.cache.codec->name(), "parity-32");
  EXPECT_EQ(sc.memsys.l2.cache.codec->name(), "secded-39-32");
  EXPECT_TRUE(sc.memsys.l2.cache.scrub_on_correct);
}

TEST(HierarchyDeploymentWiring, DefaultSimConfigBuildsTheComponentDefaults) {
  // Each machine parameter has one default, in its component struct: a
  // default SimConfig must build the machine those structs describe, in
  // both modes.
  const sim::SystemConfig defaults;
  for (const bool trace_mode : {false, true}) {
    SCOPED_TRACE(trace_mode ? "trace mode" : "program mode");
    const sim::SystemConfig sc =
        core::make_system_config(core::SimConfig{}, trace_mode);
    for (const auto& [built, want] :
         {std::pair{&sc.core.dl1.cache, &defaults.core.dl1.cache},
          std::pair{&sc.core.l1i.cache, &defaults.core.l1i.cache}}) {
      SCOPED_TRACE(want->name);
      EXPECT_EQ(built->size_bytes, want->size_bytes);
      EXPECT_EQ(built->ways, want->ways);
      EXPECT_EQ(built->line_bytes, want->line_bytes);
    }
    EXPECT_EQ(sc.core.wbuf.depth, defaults.core.wbuf.depth);
    EXPECT_EQ(sc.core.pipeline.mul_latency,
              defaults.core.pipeline.mul_latency);
    EXPECT_EQ(sc.core.pipeline.div_latency,
              defaults.core.pipeline.div_latency);
    EXPECT_EQ(sc.memsys.bus.request_cycles, defaults.memsys.bus.request_cycles);
    EXPECT_EQ(sc.memsys.bus.response_cycles,
              defaults.memsys.bus.response_cycles);
    EXPECT_EQ(sc.memsys.l2.hit_cycles, defaults.memsys.l2.hit_cycles);
    EXPECT_EQ(sc.memsys.l2.write_cycles, defaults.memsys.l2.write_cycles);
    EXPECT_EQ(sc.memsys.l2.memory_cycles, defaults.memsys.l2.memory_cycles);
    EXPECT_EQ(sc.core.dl1.oracle.miss_cycles,
              defaults.core.dl1.oracle.miss_cycles);
    EXPECT_EQ(sc.core.dl1.oracle.enabled, trace_mode);
    EXPECT_EQ(sc.max_cycles, defaults.max_cycles);
  }
}

}  // namespace
}  // namespace laec
