#include "service/job.hpp"

#include "common/hash.hpp"
#include "mem/residency.hpp"
#include "service/wire.hpp"
#include "sim/snapshot.hpp"

namespace laec::service {

namespace {

/// Read an enum byte, refusing any value past `last`: job bytes come off a
/// socket, and a campaign run under an unknown enumerator yields a row
/// that describes no real configuration.
template <class E>
E get_enum(ByteReader& r, E last, const char* what) {
  const u8 v = r.get_u8();
  if (v > static_cast<u8>(last)) {
    throw WireError(std::string("campaign job names ") + what + " " +
                    std::to_string(v) + ", which this build does not know");
  }
  return static_cast<E>(v);
}

void put_config(ByteWriter& w, const core::SimConfig& c) {
  // The CLI-settable SimConfig surface, in a fixed order. Fields the
  // campaign overwrites per cell (scheme/deployment, faults,
  // inject_target) are deliberately absent.
  w.put_u8(static_cast<u8>(c.hazard_rule));
  w.put_u8(c.stride_predictor ? 1 : 0);
  w.put_u8(c.lut_decode ? 1 : 0);
  w.put_u8(c.force_generic_ecc_path ? 1 : 0);
  w.put_u32(c.dl1_size_bytes);
  w.put_u32(c.dl1_ways);
  w.put_u32(c.dl1_line_bytes);
  w.put_u32(c.l1i_size_bytes);
  w.put_u32(c.write_buffer_depth);
  w.put_u32(c.mul_latency);
  w.put_u32(c.div_latency);
  w.put_u32(c.bus_request_cycles);
  w.put_u32(c.bus_response_cycles);
  w.put_u32(c.l2_hit_cycles);
  w.put_u32(c.l2_write_cycles);
  w.put_u32(c.memory_cycles);
  w.put_u32(c.num_cores);
  w.put_u64(c.max_cycles);
}

void get_config(ByteReader& r, core::SimConfig& c) {
  c.hazard_rule = get_enum(r, cpu::HazardRule::kPaperLiteral, "hazard rule");
  c.stride_predictor = r.get_u8() != 0;
  c.lut_decode = r.get_u8() != 0;
  c.force_generic_ecc_path = r.get_u8() != 0;
  c.dl1_size_bytes = r.get_u32();
  c.dl1_ways = r.get_u32();
  c.dl1_line_bytes = r.get_u32();
  c.l1i_size_bytes = r.get_u32();
  c.write_buffer_depth = r.get_u32();
  c.mul_latency = r.get_u32();
  c.div_latency = r.get_u32();
  c.bus_request_cycles = r.get_u32();
  c.bus_response_cycles = r.get_u32();
  c.l2_hit_cycles = r.get_u32();
  c.l2_write_cycles = r.get_u32();
  c.memory_cycles = r.get_u32();
  c.num_cores = r.get_u32();
  c.max_cycles = r.get_u64();
}

void put_cell(ByteWriter& w, const reliability::CampaignCell& c) {
  w.put_u64(static_cast<u64>(c.index));
  w.put_string(c.workload);
  w.put_string(c.scheme);
  w.put_string(c.rate.label);
  w.put_double(c.rate.fit_per_mbit);
  w.put_double(c.rate.patterns.single);
  w.put_double(c.rate.patterns.adjacent_double);
  w.put_double(c.rate.patterns.adjacent_triple);
  w.put_double(c.rate.patterns.clustered);
}

reliability::CampaignCell get_cell(ByteReader& r) {
  reliability::CampaignCell c;
  c.index = static_cast<std::size_t>(r.get_u64());
  c.workload = r.get_string();
  c.scheme = r.get_string();
  c.rate.label = r.get_string();
  c.rate.fit_per_mbit = r.get_double();
  c.rate.patterns.single = r.get_double();
  c.rate.patterns.adjacent_double = r.get_double();
  c.rate.patterns.adjacent_triple = r.get_double();
  c.rate.patterns.clustered = r.get_double();
  return c;
}

}  // namespace

std::string serialize_job(const CampaignJob& job) {
  ByteWriter w;
  w.put_u32(kJobVersion);
  w.put_u64(job.base_seed);
  w.put_u32(job.shard_index);
  w.put_u32(job.shard_count);

  const reliability::CampaignSpec& s = job.spec;
  w.put_double(s.accel);
  w.put_double(s.freq_mhz);
  w.put_u32(s.trials);
  w.put_u32(s.min_trials);
  w.put_u32(s.batch);
  w.put_double(s.confidence);
  w.put_double(s.target_half_width);
  w.put_u8(static_cast<u8>(s.target));
  // The prune mode is part of the identity (a --prune run never silently
  // resumes a --no-prune checkpoint), and so is the recorder revision: the
  // recorded windows define every trial's RNG stream, so cursors taken
  // under different recording semantics are a different campaign.
  w.put_u8(s.prune ? 1 : 0);
  w.put_u32(mem::ResidencyRecorder::kVersion);
  // Fast-forward mode is identity the same way prune is (a --ff run never
  // silently resumes a --no-ff checkpoint — the rows are byte-identical but
  // the operator asked for a specific reference mode), and the snapshot
  // cadence/budget and frame revision pin WHICH snapshots existed.
  w.put_u8(s.fast_forward ? 1 : 0);
  w.put_u32(s.snapshot_every);
  w.put_u32(s.snapshot_mem_mb);
  w.put_u32(sim::kSnapshotVersion);
  put_config(w, s.base);

  w.put_u64(static_cast<u64>(job.cells.size()));
  for (const auto& c : job.cells) put_cell(w, c);
  return w.take();
}

CampaignJob parse_job(std::string_view bytes) {
  ByteReader r(bytes);
  const u32 version = r.get_u32();
  if (version != kJobVersion) {
    throw WireError("campaign job version " + std::to_string(version) +
                    " unsupported (this build speaks " +
                    std::to_string(kJobVersion) + ")");
  }
  CampaignJob job;
  job.base_seed = r.get_u64();
  job.shard_index = r.get_u32();
  job.shard_count = r.get_u32();
  if (job.shard_count == 0 || job.shard_index >= job.shard_count) {
    throw WireError("campaign job shard_index/shard_count invalid");
  }

  reliability::CampaignSpec& s = job.spec;
  s.accel = r.get_double();
  s.freq_mhz = r.get_double();
  s.trials = r.get_u32();
  s.min_trials = r.get_u32();
  s.batch = r.get_u32();
  s.confidence = r.get_double();
  s.target_half_width = r.get_double();
  s.target = get_enum(r, core::InjectTarget::kL2, "inject target");
  s.prune = r.get_u8() != 0;
  const u32 recorder_version = r.get_u32();
  if (recorder_version != mem::ResidencyRecorder::kVersion) {
    throw WireError("campaign job recorded with residency recorder v" +
                    std::to_string(recorder_version) +
                    " (this build records v" +
                    std::to_string(mem::ResidencyRecorder::kVersion) + ")");
  }
  s.fast_forward = r.get_u8() != 0;
  s.snapshot_every = r.get_u32();
  s.snapshot_mem_mb = r.get_u32();
  const u32 snapshot_version = r.get_u32();
  if (snapshot_version != sim::kSnapshotVersion) {
    throw WireError("campaign job built against snapshot frame v" +
                    std::to_string(snapshot_version) +
                    " (this build captures v" +
                    std::to_string(sim::kSnapshotVersion) + ")");
  }
  get_config(r, s.base);

  const u64 n = r.get_u64();
  // A cell costs tens of bytes on the wire; anything claiming more cells
  // than remaining bytes is corrupt, not big.
  if (n > r.remaining()) {
    throw WireError("campaign job claims an implausible cell count");
  }
  job.cells.reserve(static_cast<std::size_t>(n));
  for (u64 i = 0; i < n; ++i) job.cells.push_back(get_cell(r));
  r.expect_end();
  return job;
}

u64 campaign_identity(const CampaignJob& job) {
  return fnv1a(serialize_job(job));
}

}  // namespace laec::service
