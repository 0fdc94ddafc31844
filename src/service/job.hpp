// CampaignJob — the portable description of a reliability campaign.
//
// One serialization, two consumers: the campaign daemon receives a job
// over the socket (protocol.hpp) and must rebuild exactly the campaign a
// local `laec_cli campaign` run would execute, and the checkpoint layer
// hashes the same canonical bytes into the identity that guards resumes
// (resuming under a changed grid, seed, shard or machine geometry is a
// hard error, not silently mixed statistics).
//
// The SimConfig portion covers the CLI-settable surface (geometry,
// latencies, hazard rule, LUT/stride toggles). Per-cell scheme and fault
// configuration are NOT part of it — run_campaign derives those from each
// cell's scheme key and rate point, which the cells carry themselves.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "reliability/campaign.hpp"

namespace laec::service {

/// v2: spec.prune + recorder version; v3: fast-forward mode (flag, snapshot
/// cadence/budget, snapshot frame version); v4: the fixed exposure window
/// is gone (storms are drawn over recorded per-window gaps).
inline constexpr u32 kJobVersion = 4;

struct CampaignJob {
  reliability::CampaignSpec spec;            ///< incl. base SimConfig subset
  std::vector<reliability::CampaignCell> cells;  ///< full expanded grid
  u64 base_seed = 0x1aec;
  /// Shard slice this job covers: cells with index % count == index are
  /// run, exactly like CampaignOptions sharding — so N submit clients
  /// with --shard=0/N .. (N-1)/N together cover the grid once.
  unsigned shard_index = 0;
  unsigned shard_count = 1;
};

/// Canonical byte serialization (versioned, little-endian).
[[nodiscard]] std::string serialize_job(const CampaignJob& job);

/// Inverse of serialize_job. Throws WireError for truncated/alien bytes,
/// an unsupported job version, an invalid shard or an inject-target or
/// hazard-rule byte outside its enumerators.
[[nodiscard]] CampaignJob parse_job(std::string_view bytes);

/// Identity hash of a campaign configuration: FNV-1a over the canonical
/// serialization. Two runs with the same identity produce the same rows;
/// checkpoints embed it and refuse to resume under any other.
[[nodiscard]] u64 campaign_identity(const CampaignJob& job);

}  // namespace laec::service
