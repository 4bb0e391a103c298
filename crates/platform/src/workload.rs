//! Workload profiles.
//!
//! The paper's CPU characterization uses eight SPEC CPU2006 benchmarks
//! "with diverse behaviors" (§6.A); its DRAM experiments use random test
//! patterns; its hypervisor experiments use an LDBC graph-database
//! workload. A workload matters to the models only through what it
//! *excites*: switching activity, current transients (di/dt), resonance
//! alignment, IPC, cache pressure and memory bandwidth. A profile
//! captures exactly those knobs.
//!
//! Profile values are stylized from published characterizations of the
//! SPEC suite (memory-bound `mcf`/`milc` vs compute-bound `namd`/`hmmer`,
//! droop-prone `zeusmp`, …); the experiments only rely on the *diversity*
//! of the set, not on any single value.

use std::sync::Arc;

use uniserver_silicon::droop::DroopModel;

/// A workload's excitation profile.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Workload name (as it appears in tables). Shared (`Arc<str>`) so
    /// the serving tick and crash records can carry the name without
    /// allocating.
    pub name: Arc<str>,
    /// Mean switching activity in `[0, 1]`.
    pub activity: f64,
    /// Current-transient intensity in `[0, 1]`.
    pub didt: f64,
    /// PDN-resonance alignment in `[0, 1]`.
    pub resonance: f64,
    /// Instructions per cycle on the reference core.
    pub ipc: f64,
    /// Last-level-cache misses per kilo-instruction.
    pub cache_mpki: f64,
    /// Memory bandwidth utilization in `[0, 1]`.
    pub mem_bw_util: f64,
    /// Resident memory footprint in MiB per instance.
    pub footprint_mib: u64,
}

impl WorkloadProfile {
    /// Builds a custom profile.
    ///
    /// # Panics
    ///
    /// Panics if any of the `[0, 1]` excitation fields is out of range or
    /// `ipc` is non-positive.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        name: impl Into<Arc<str>>,
        activity: f64,
        didt: f64,
        resonance: f64,
        ipc: f64,
        cache_mpki: f64,
        mem_bw_util: f64,
        footprint_mib: u64,
    ) -> Self {
        for (label, v) in
            [("activity", activity), ("didt", didt), ("resonance", resonance), ("mem_bw_util", mem_bw_util)]
        {
            assert!((0.0..=1.0).contains(&v), "{label} must be in [0, 1], got {v}");
        }
        assert!(ipc > 0.0, "ipc must be positive, got {ipc}");
        assert!(cache_mpki >= 0.0, "cache_mpki must be non-negative");
        WorkloadProfile {
            name: name.into(),
            activity,
            didt,
            resonance,
            ipc,
            cache_mpki,
            mem_bw_util,
            footprint_mib,
        }
    }

    /// An idle machine: background OS noise only.
    #[must_use]
    pub fn idle() -> Self {
        WorkloadProfile::new("idle", 0.03, 0.02, 0.0, 0.3, 0.1, 0.01, 64)
    }

    /// `401.bzip2` — integer compression, moderate everything.
    #[must_use]
    pub fn spec_bzip2() -> Self {
        WorkloadProfile::new("bzip2", 0.55, 0.35, 0.15, 1.4, 3.2, 0.25, 856)
    }

    /// `429.mcf` — combinatorial optimization, heavily memory-bound.
    #[must_use]
    pub fn spec_mcf() -> Self {
        WorkloadProfile::new("mcf", 0.35, 0.25, 0.10, 0.45, 38.0, 0.75, 1_716)
    }

    /// `444.namd` — molecular dynamics, dense FP compute.
    #[must_use]
    pub fn spec_namd() -> Self {
        WorkloadProfile::new("namd", 0.80, 0.30, 0.10, 2.1, 0.4, 0.08, 191)
    }

    /// `433.milc` — lattice QCD, streaming memory with FP bursts.
    #[must_use]
    pub fn spec_milc() -> Self {
        WorkloadProfile::new("milc", 0.50, 0.55, 0.35, 0.75, 22.0, 0.65, 679)
    }

    /// `456.hmmer` — profile HMM search, tight integer loops.
    #[must_use]
    pub(crate) fn spec_hmmer() -> Self {
        WorkloadProfile::new("hmmer", 0.75, 0.25, 0.05, 2.3, 0.8, 0.10, 62)
    }

    /// `464.h264ref` — video encoding, bursty SIMD-ish activity.
    #[must_use]
    pub(crate) fn spec_h264ref() -> Self {
        WorkloadProfile::new("h264ref", 0.70, 0.50, 0.30, 1.8, 1.9, 0.20, 113)
    }

    /// `445.gobmk` — game tree search, branchy with phase changes.
    #[must_use]
    pub(crate) fn spec_gobmk() -> Self {
        WorkloadProfile::new("gobmk", 0.60, 0.45, 0.25, 1.1, 2.7, 0.18, 128)
    }

    /// `434.zeusmp` — CFD with strong current swings (droop-prone).
    #[must_use]
    pub fn spec_zeusmp() -> Self {
        WorkloadProfile::new("zeusmp", 0.65, 0.70, 0.55, 1.0, 9.5, 0.50, 501)
    }

    /// The paper's eight-benchmark SPEC CPU2006 subset (§6.A), in the
    /// order listed there.
    #[must_use]
    pub fn spec2006_subset() -> Vec<WorkloadProfile> {
        vec![
            Self::spec_bzip2(),
            Self::spec_mcf(),
            Self::spec_namd(),
            Self::spec_milc(),
            Self::spec_hmmer(),
            Self::spec_h264ref(),
            Self::spec_gobmk(),
            Self::spec_zeusmp(),
        ]
    }

    /// An LDBC-SNB-on-graph-database VM workload (Figure 3's driver):
    /// stresses CPU, disk I/O and network with a large, growing heap.
    #[must_use]
    pub fn ldbc_graph_vm() -> Self {
        WorkloadProfile::new("ldbc-snb", 0.58, 0.40, 0.20, 0.9, 14.0, 0.55, 2_048)
    }

    /// Worst-case droop this workload can provoke, per the PDN model.
    #[must_use]
    pub fn droop_fraction(&self, pdn: &DroopModel) -> f64 {
        pdn.droop_fraction(self.activity, self.didt, self.resonance)
    }

    /// Normalized stress scalar in `[0, 1]` relative to the PDN's virus
    /// ceiling; the Vmin model consumes this.
    #[must_use]
    pub fn stress_scalar(&self, pdn: &DroopModel) -> f64 {
        pdn.stress_scalar(self.droop_fraction(pdn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subset_matches_paper_list() {
        let names: Vec<Arc<str>> =
            WorkloadProfile::spec2006_subset().into_iter().map(|w| w.name).collect();
        let expected = ["bzip2", "mcf", "namd", "milc", "hmmer", "h264ref", "gobmk", "zeusmp"];
        assert!(names.iter().map(|n| &**n).eq(expected), "subset names {names:?}");
    }

    #[test]
    fn profiles_are_diverse_in_stress() {
        let pdn = DroopModel::typical_server_pdn();
        let stresses: Vec<f64> =
            WorkloadProfile::spec2006_subset().iter().map(|w| w.stress_scalar(&pdn)).collect();
        let min = stresses.iter().cloned().fold(f64::MAX, f64::min);
        let max = stresses.iter().cloned().fold(f64::MIN, f64::max);
        // Diversity is the property the paper's Table 2 depends on: the
        // quiet/loud gap drives the min/max crash-point spread.
        assert!(max - min > 0.25, "stress spread {min}..{max} too narrow");
        assert!(max <= 1.0 && min >= 0.0);
    }

    #[test]
    fn zeusmp_is_the_droopiest_spec_member() {
        let pdn = DroopModel::typical_server_pdn();
        let zeusmp = WorkloadProfile::spec_zeusmp().droop_fraction(&pdn);
        for w in WorkloadProfile::spec2006_subset() {
            assert!(w.droop_fraction(&pdn) <= zeusmp, "{} out-droops zeusmp", w.name);
        }
    }

    #[test]
    fn idle_is_quieter_than_everything() {
        let pdn = DroopModel::typical_server_pdn();
        let idle = WorkloadProfile::idle().droop_fraction(&pdn);
        for w in WorkloadProfile::spec2006_subset() {
            assert!(idle < w.droop_fraction(&pdn));
        }
    }

    #[test]
    fn mcf_is_memory_bound_namd_is_not() {
        let mcf = WorkloadProfile::spec_mcf();
        let namd = WorkloadProfile::spec_namd();
        assert!(mcf.cache_mpki > 10.0 * namd.cache_mpki);
        assert!(mcf.ipc < namd.ipc);
    }

    #[test]
    #[should_panic(expected = "activity must be in [0, 1]")]
    fn invalid_activity_panics() {
        let _ = WorkloadProfile::new("bad", 1.2, 0.0, 0.0, 1.0, 0.0, 0.0, 0);
    }

    #[test]
    #[should_panic(expected = "ipc must be positive")]
    fn invalid_ipc_panics() {
        let _ = WorkloadProfile::new("bad", 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0);
    }
}
