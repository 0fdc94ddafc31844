#include "service/job.hpp"

#include <type_traits>

#include "common/hash.hpp"
#include "mem/residency.hpp"
#include "service/wire.hpp"
#include "sim/snapshot.hpp"

namespace laec::service {

namespace {

/// Call v on every field of the job's wire format, in wire order (const or
/// mutable `job`): serialize_job walks it with a JobWriter, parse_job with
/// a JobReader. Besides plain fields, v sees
///   * v.pinned(value, what): a version this build writes and must read
///     back unchanged;
///   * v.enumerator(field, last, what): an enum sent as one byte, at most
///     `last`;
///   * v.check(ok, what): a condition on the fields read so far;
///   * v.count(vector): a vector's length, before its elements.
template <class Job, class V>
void visit_job(Job& job, V& v) {
  v.pinned(kJobVersion, "version");
  v(job.base_seed);
  v(job.shard_index);
  v(job.shard_count);
  v.check(job.shard_count != 0 && job.shard_index < job.shard_count,
          "shard_index/shard_count invalid");

  auto& s = job.spec;
  v(s.accel);
  v(s.freq_mhz);
  v(s.trials);
  v(s.min_trials);
  v(s.batch);
  v(s.confidence);
  v(s.target_half_width);
  v.enumerator(s.target, core::InjectTarget::kL2, "inject target");
  // The prune mode is part of the identity (a --prune run never silently
  // resumes a --no-prune checkpoint), and so is the recorder revision: the
  // recorded windows define every trial's RNG stream, so cursors taken
  // under different recording semantics are a different campaign.
  v(s.prune);
  v.pinned(mem::ResidencyRecorder::kVersion, "residency recorder version");
  // Fast-forward mode is identity the same way prune is (a --ff run never
  // silently resumes a --no-ff checkpoint — the rows are byte-identical but
  // the operator asked for a specific reference mode), and the snapshot
  // cadence/budget and frame revision pin WHICH snapshots existed.
  v(s.fast_forward);
  v(s.snapshot_every);
  v(s.snapshot_mem_mb);
  v.pinned(sim::kSnapshotVersion, "snapshot frame version");

  // The SimConfig fields a job carries (see job.hpp). The campaign sets
  // the deployment, faults and inject_target per cell.
  auto& c = s.base;
  v.enumerator(c.hazard_rule, cpu::HazardRule::kPaperLiteral, "hazard rule");
  v(c.stride_predictor);
  v(c.lut_decode);
  v(c.force_generic_ecc_path);
  v(c.dl1_size_bytes);
  v(c.dl1_ways);
  v(c.write_buffer_depth);
  v(c.div_latency);
  v(c.memory_cycles);
  v(c.num_cores);
  v(c.max_cycles);

  v.count(job.cells);
  for (auto& cell : job.cells) {
    v(cell.index);
    v(cell.workload);
    v(cell.scheme);
    v(cell.rate.label);
    v(cell.rate.fit_per_mbit);
    v(cell.rate.patterns.single);
    v(cell.rate.patterns.adjacent_double);
    v(cell.rate.patterns.adjacent_triple);
    v(cell.rate.patterns.clustered);
  }
}

/// Integers travel at their own width; only 32- and 64-bit ones occur.
template <class T>
constexpr bool kWireInt = std::is_unsigned_v<T> && !std::is_same_v<T, bool> &&
                          (sizeof(T) == 4 || sizeof(T) == 8);

struct JobWriter {
  ByteWriter& w;

  void operator()(bool b) { w.put_u8(b ? 1 : 0); }
  void operator()(double d) { w.put_double(d); }
  void operator()(const std::string& s) { w.put_string(s); }
  template <class T>
    requires kWireInt<T>
  void operator()(T x) {
    if constexpr (sizeof(T) == 4) {
      w.put_u32(x);
    } else {
      w.put_u64(x);
    }
  }
  void pinned(u32 value, const char*) { w.put_u32(value); }
  template <class E>
  void enumerator(E e, E, const char*) {
    w.put_u8(static_cast<u8>(e));
  }
  void check(bool, const char*) {}
  template <class T>
  void count(const std::vector<T>& v) {
    w.put_u64(static_cast<u64>(v.size()));
  }
};

/// Job bytes come off a socket: every read is bounds-checked, and every
/// value that would make a row describe no real configuration is refused
/// with WireError.
struct JobReader {
  ByteReader& r;

  void operator()(bool& b) { b = r.get_u8() != 0; }
  void operator()(double& d) { d = r.get_double(); }
  void operator()(std::string& s) { s = r.get_string(); }
  template <class T>
    requires kWireInt<T>
  void operator()(T& x) {
    if constexpr (sizeof(T) == 4) {
      x = r.get_u32();
    } else {
      x = r.get_u64();
    }
  }
  void pinned(u32 value, const char* what) {
    const u32 got = r.get_u32();
    if (got != value) {
      throw WireError(std::string("campaign job ") + what + " " +
                      std::to_string(got) + " unsupported (this build speaks " +
                      std::to_string(value) + ")");
    }
  }
  template <class E>
  void enumerator(E& e, E last, const char* what) {
    const u8 v = r.get_u8();
    if (v > static_cast<u8>(last)) {
      throw WireError(std::string("campaign job names ") + what + " " +
                      std::to_string(v) + ", which this build does not know");
    }
    e = static_cast<E>(v);
  }
  void check(bool ok, const char* what) {
    if (!ok) throw WireError(std::string("campaign job ") + what);
  }
  template <class T>
  void count(std::vector<T>& v) {
    const u64 n = r.get_u64();
    // An element costs bytes on the wire; anything claiming more elements
    // than remaining bytes is corrupt, not big.
    if (n > r.remaining()) {
      throw WireError("campaign job claims an implausible cell count");
    }
    v.resize(static_cast<std::size_t>(n));
  }
};

}  // namespace

std::string serialize_job(const CampaignJob& job) {
  ByteWriter w;
  JobWriter writer{w};
  visit_job(job, writer);
  return w.take();
}

CampaignJob parse_job(std::string_view bytes) {
  ByteReader r(bytes);
  JobReader reader{r};
  CampaignJob job;
  visit_job(job, reader);
  r.expect_end();
  return job;
}

u64 campaign_identity(const CampaignJob& job) {
  return fnv1a(serialize_job(job));
}

}  // namespace laec::service
