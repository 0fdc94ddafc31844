// Versioned campaign checkpoint files: durable per-cell trial cursors.
//
// A campaign checkpoint is the set of reliability::CellProgress cursors a
// run_campaign on_round hook last reported, bound to the campaign's
// identity hash (service::campaign_identity — grid, spec, seed, shard,
// machine geometry). Because trial seeds derive from (base_seed, workload
// identity, trial index) and never from wall-clock or layout, restoring
// the cursors and continuing is bit-for-bit the run that was interrupted:
// the hard contract is that an interrupted-then-resumed campaign emits
// byte-identical rows to an uninterrupted one.
//
// File layout ("LAECCKP1", little-endian):
//   magic (8 bytes) | u64 fnv1a(payload) | payload
//   payload: u32 version | u64 identity | u32 ncells | cells
//   cell: u64 index | u32 done | u8 finished | 12 x u64 counters
//         | u64 device_hours IEEE bits (the counters in
//         reliability::visit_counters order)
//   (version 2 appended the `pruned` counter to the u64 block; version 3
//   appended `fast_forwarded` and `cycles_skipped`)
//
// Writes are atomic (tmp file + rename), so a power cut mid-save leaves
// the previous checkpoint intact. Loads verify magic, checksum, version
// and identity and throw service::WireError on any mismatch — a corrupt
// or foreign checkpoint can never silently seed a campaign.
#pragma once

#include <string>
#include <vector>

#include "reliability/campaign.hpp"

namespace laec::service {

inline constexpr char kCheckpointMagic[8] = {'L', 'A', 'E', 'C',
                                             'C', 'K', 'P', '1'};
inline constexpr u32 kCheckpointVersion = 3;

/// Serialize cursors to `path` atomically (write `path`.tmp, rename).
/// Throws std::runtime_error when the file cannot be written.
void save_checkpoint(const std::string& path, u64 identity,
                     const std::vector<reliability::CellProgress>& cells);

/// Load and validate a checkpoint. Throws WireError for a missing/corrupt/
/// truncated file, an unsupported version, or an identity mismatch
/// (checkpoint was taken under a different campaign configuration).
[[nodiscard]] std::vector<reliability::CellProgress> load_checkpoint(
    const std::string& path, u64 identity);

}  // namespace laec::service
