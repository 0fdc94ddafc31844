// Event-based energy model supporting the paper's §IV.A power paragraph:
//
//  * the proposal's *dynamic* power adder (two extra register-file read
//    ports and a 32-bit adder, exercised only on anticipated loads) is
//    under 1% of core energy;
//  * *leakage* energy grows proportionally to execution time, so each
//    scheme's leakage overhead mirrors its slowdown (~17% / ~10% / <4%).
//
// The per-event energies are synthetic but proportioned like CACTI 65 nm
// numbers for a 16 KB 4-way SRAM and a 1 KB register file (the technology
// point the paper cites); DESIGN.md records this substitution. Absolute
// joules are not meaningful — ratios are.
#pragma once

#include "core/simulator.hpp"

namespace laec::energy {

struct EnergyParams {
  double freq_mhz = 150.0;        ///< LEON4-class clock (Table I)
  double leak_core_mw = 18.0;     ///< core + L1 arrays leakage power

  // Per-event dynamic energies (pJ).
  double dl1_read_pj = 18.0;
  double dl1_write_pj = 22.0;
  double secded_check_pj = 1.8;   ///< 7 syndrome XOR trees + corrector
  double secded_encode_pj = 1.5;
  double parity_pj = 0.35;
  double rf_read_port_pj = 0.45;  ///< one extra early register read
  double agen_adder_pj = 0.25;    ///< the dedicated RA-stage adder
  double base_inst_pj = 24.0;     ///< everything else per instruction
};

struct EnergyBreakdown {
  double dynamic_uj = 0.0;
  double leakage_uj = 0.0;
  double laec_adder_uj = 0.0;  ///< dynamic energy added by LAEC hardware
  /// Per-level ECC (check + encode) energy, already folded into dynamic_uj.
  double dl1_ecc_uj = 0.0;
  double l1i_ecc_uj = 0.0;
  double l2_ecc_uj = 0.0;
  [[nodiscard]] double total_uj() const { return dynamic_uj + leakage_uj; }
  /// LAEC hardware adder as a fraction of total dynamic energy.
  [[nodiscard]] double laec_dynamic_fraction() const {
    return dynamic_uj <= 0 ? 0.0 : laec_adder_uj / dynamic_uj;
  }
};

/// Per-access check / encode energies of one codec. Known registry codecs
/// use a calibrated table (gate-counted relative to the 7-tree (39,32)
/// SECDED reference the CACTI-like numbers were drawn for); anything else
/// falls back to scaling the reference linearly by check-bit (syndrome
/// XOR tree) count.
struct CodecEnergy {
  double check_pj = 0.0;
  double encode_pj = 0.0;
};
[[nodiscard]] CodecEnergy codec_energy(const EnergyParams& p,
                                       const ecc::Codec& codec);

/// Deployment-aware energy digest across the hierarchy: each cache level's
/// codec sets that level's per-access check/encode energies (calibrated
/// table, geometry-scaling fallback — see codec_energy), and the LAEC
/// placement adds the look-ahead hardware energy.
[[nodiscard]] EnergyBreakdown compute(const EnergyParams& p,
                                      const core::RunStats& stats,
                                      const core::HierarchyDeployment& deployment);

}  // namespace laec::energy
