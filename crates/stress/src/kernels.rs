//! Hand-coded stress kernels (paper §3.D: the StressLog workload suite
//! includes kernels "hand-coded to stress specific components").
//!
//! Each kernel is expressed as a [`VirusGenome`] (so its excitations are
//! derived, not asserted) plus a ready-made [`WorkloadProfile`]. They
//! bracket the GA: the droop resonator is near-optimal for the PDN, the
//! cache and memory hammers target SRAM/DRAM instead.

use uniserver_platform::workload::WorkloadProfile;

use crate::genetic::{BlockKind, VirusGenome};

/// A power virus: sustained maximum switching activity (thermal/IR
/// stress, not resonance).
#[must_use]
pub(crate) fn power_virus() -> WorkloadProfile {
    VirusGenome::new(vec![BlockKind::Simd; 64]).to_profile("power-virus")
}

/// A droop resonator: SIMD/idle square wave at the PDN resonance period.
/// This is the "pathogenic worst case scenario that is unlikely to be
/// encountered in real-life workloads" (§3.B).
#[must_use]
pub fn droop_resonator() -> WorkloadProfile {
    VirusGenome::resonant_square_wave(64).to_profile("droop-resonator")
}

/// A cache thrasher: pointer chases that hammer the LLC with misses,
/// keeping SRAM peripheral circuits busy at low voltage.
#[must_use]
pub(crate) fn cache_thrash() -> WorkloadProfile {
    let blocks = (0..64)
        .map(|i| if i % 2 == 0 { BlockKind::Miss } else { BlockKind::Mem })
        .collect();
    VirusGenome::new(blocks).to_profile("cache-thrash")
}

/// A memory hammer: streaming writes that maximize DRAM bandwidth and
/// row activations (retention-test companion).
#[must_use]
pub(crate) fn memory_hammer() -> WorkloadProfile {
    let blocks = (0..64)
        .map(|i| if i % 8 == 7 { BlockKind::Alu } else { BlockKind::Mem })
        .collect();
    VirusGenome::new(blocks).to_profile("memory-hammer")
}

/// The full hand-coded suite, in a stable order.
#[must_use]
pub fn suite() -> Vec<WorkloadProfile> {
    vec![power_virus(), droop_resonator(), cache_thrash(), memory_hammer()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_silicon::droop::DroopModel;

    #[test]
    fn resonator_droops_hardest() {
        let pdn = DroopModel::typical_server_pdn();
        let resonator = droop_resonator().droop_fraction(&pdn);
        for k in suite() {
            assert!(
                k.droop_fraction(&pdn) <= resonator,
                "{} out-droops the resonator",
                k.name
            );
        }
    }

    #[test]
    fn resonator_beats_spec_by_a_margin() {
        let pdn = DroopModel::typical_server_pdn();
        let resonator = droop_resonator().droop_fraction(&pdn);
        let worst_spec = WorkloadProfile::spec2006_subset()
            .iter()
            .map(|w| w.droop_fraction(&pdn))
            .fold(f64::MIN, f64::max);
        // "Safety margins are more pessimistic than these worst-case
        // viruses" and real workloads droop much less (§3.B).
        assert!(resonator > 1.3 * worst_spec, "resonator {resonator} vs worst SPEC {worst_spec}");
    }

    #[test]
    fn power_virus_has_max_activity_but_no_resonance() {
        let v = power_virus();
        assert!(v.activity > 0.9);
        assert!(v.resonance < 0.05);
        assert!(v.didt < 0.05);
    }

    #[test]
    fn hammers_target_memory() {
        assert!(cache_thrash().cache_mpki > 30.0);
        assert!(memory_hammer().mem_bw_util > 0.8);
    }

    #[test]
    fn suite_is_stable() {
        let names: Vec<String> = suite().into_iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names, ["power-virus", "droop-resonator", "cache-thrash", "memory-hammer"]);
    }
}
