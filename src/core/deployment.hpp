// HierarchyDeployment: ECC protection for the whole cache hierarchy,
// fully described.
//
// The NGMP-like machine stores real check bits in three arrays — the DL1,
// the L1I and the shared L2 — and every one of them is a deployment slot
// for any registered ecc::Codec. A HierarchyDeployment names, per cache:
// WHICH codec protects the array (a registry key), whether corrections are
// scrubbed back into the array, and HOW detected errors are recovered
// (correct-in-place vs invalidate-and-refetch). For the DL1 it additionally
// fixes the paper's two pipeline-facing choices: the cache write policy
// (write-back vs write-through) and WHERE the check lands in the pipeline
// (the timing placement the cpu::EccPolicy enum models). Everything
// downstream — SimConfig, the sweep grid, CSV rows, the CLI — selects
// schemes by deployment key, so a new codec rides through the whole stack
// without touching an enum.
//
// Keys accepted by parse() are '+'-separated segments. The first segment
// describes the DL1:
//   * a policy name        — "no-ecc", "extra-cycle", "extra-stage",
//                            "laec", "wt-parity": the paper's deployments
//                            with their canonical codecs;
//   * a codec name         — e.g. "sec-daec-39-32": that codec in the
//                            write-back DL1 under the LAEC placement
//                            (detect-only codecs get the write-through
//                            parity arrangement instead);
//   * "placement:codec"    — e.g. "extra-stage:sec-daec-39-32": explicit
//                            placement with an explicit codec.
// Later segments override the other levels ("l1i:<codec>", "l2:<codec>")
// or the DL1 ("dl1:<codec>"); unnamed levels keep their canonical defaults
// (L1I: parity-32 with invalidate-and-refetch, L2: secded-39-32 with
// correct-in-place), so every pre-existing single-level key still parses.
// Any codec-carrying segment accepts trailing option flags:
//   :scrub / :no-scrub     — write corrected words back into the array;
//   :correct / :refetch    — recovery policy (":correct" needs a
//                            correcting codec).
// Example: "laec+l1i:secded-39-32+l2:sec-daec-39-32:no-scrub".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cpu/pipeline_config.hpp"
#include "mem/cache.hpp"

namespace laec::core {

/// Protection of one non-DL1 cache level (the DL1's extra pipeline-facing
/// knobs live on HierarchyDeployment itself).
struct LevelDeployment {
  /// Registry key of the level's word codec (ecc::make_codec(codec)).
  std::string codec = "none";
  bool scrub_on_correct = false;
  mem::RecoveryPolicy recovery = mem::RecoveryPolicy::kInvalidateRefetch;

  [[nodiscard]] bool operator==(const LevelDeployment&) const = default;
};

struct HierarchyDeployment {
  /// Canonical scheme key (what CSV rows report as "ecc"). Single-level
  /// keys canonicalize to themselves — a bare codec key keeps its codec
  /// spelling even when it expands to the same arrangement as a policy key
  /// ("secded-39-32" never aliases to "laec"); redundant level segments
  /// that merely restate a default are dropped.
  std::string name = "no-ecc";

  // --- DL1 ----------------------------------------------------------------
  /// The DL1 segment's base spelling (policy name, codec name, or
  /// "placement:codec", flags excluded) — what canonical_key() rebuilds
  /// the key from.
  std::string dl1_key = "no-ecc";
  /// Registry key of the DL1 word codec.
  std::string codec = "none";
  /// Pipeline stage placement of the DL1 check (the legacy enum, kept as
  /// the timing-model shim).
  cpu::EccPolicy timing = cpu::EccPolicy::kNoEcc;
  mem::WritePolicy write_policy = mem::WritePolicy::kWriteBack;
  mem::AllocPolicy alloc_policy = mem::AllocPolicy::kWriteAllocate;
  bool scrub_on_correct = false;
  mem::RecoveryPolicy recovery = mem::RecoveryPolicy::kInvalidateRefetch;

  // --- the other protected arrays ----------------------------------------
  LevelDeployment l1i = l1i_default();
  LevelDeployment l2 = l2_default();

  /// The canonical deployment behind one of the paper's five policies.
  [[nodiscard]] static HierarchyDeployment from_policy(cpu::EccPolicy p);

  /// Parse a compound scheme key (see file comment). Throws
  /// std::invalid_argument with the known choices when a segment names
  /// neither a policy, a registered codec, a valid placement:codec
  /// combination, nor a level override.
  [[nodiscard]] static HierarchyDeployment parse(std::string_view key);

  /// The five built-in policy keys, baseline first (Fig. 8 order plus the
  /// write-through motivation row).
  [[nodiscard]] static const std::vector<std::string>& policy_keys();

  /// Canonical defaults of the unnamed levels: the LEON-style parity L1I
  /// and the SECDED L2 every deployment ships with unless overridden.
  [[nodiscard]] static const LevelDeployment& l1i_default();
  [[nodiscard]] static const LevelDeployment& l2_default();

  /// Canonical compound key: the DL1 segment plus one segment per level
  /// that differs from its default. parse(canonical_key()) reproduces this
  /// deployment exactly (the round-trip the sweep CSV relies on).
  [[nodiscard]] std::string canonical_key() const;
};

[[nodiscard]] inline std::string_view to_string(const HierarchyDeployment& d) {
  return d.name;
}

}  // namespace laec::core
