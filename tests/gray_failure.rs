//! Contracts of the gray-failure subsystem: a gray-profile run's JSON
//! summary is a pure function of its configuration whatever the worker
//! count, and the health watchdog's hysteresis never readmits a node
//! that has not produced a full probation streak of clean probes —
//! whatever probe sequence the node throws at it.

use proptest::prelude::*;

use uniserver_bench::cluster::{scenario, summary_to_json, Profile};
use uniserver_orchestrator::watchdog::{ProbeWindow, Verdict, PROBATION_PASSES};
use uniserver_orchestrator::{run, OrchestratorConfig};

/// A CI-sized gray scenario: the full gray headline (gray onsets,
/// watchdog, power cap) shrunk to a 10-minute horizon, as
/// `fleet_sim --profile gray --secs 600` builds it (the brownout window
/// is re-derived to land inside the run).
fn gray_smoke(nodes: usize, seed: u64) -> OrchestratorConfig {
    scenario(Profile::Gray, nodes, seed, Some(600.0), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Whole-run byte stability under gray failure: quarantines,
    /// budgeted drains, readmissions and power-cap sheds must all land
    /// identically whatever the worker count.
    #[test]
    fn gray_summary_is_byte_identical_for_any_worker_count(
        seed in 0u64..200,
        nodes in 6usize..12,
        workers in 2usize..6,
    ) {
        let mut config = gray_smoke(nodes, seed);
        config.threads = 1;
        let sequential = run(&config);
        config.threads = workers;
        let sharded = run(&config);
        prop_assert!(sequential.gray.is_some(), "gray profile must report a gray outcome");
        prop_assert_eq!(
            summary_to_json(&sequential, true),
            summary_to_json(&sharded, true),
            "gray run diverged between 1 and {} workers", workers
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hysteresis safety: whatever the probe sequence, `Readmit` is only
    /// ever issued after `PROBATION_PASSES` **consecutive** clean probes
    /// while quarantined — a still-failing (or flapping) node can never
    /// sneak back into the placement pool.
    #[test]
    fn watchdog_never_readmits_without_a_full_clean_streak(
        probes in proptest::collection::vec(0u8..2, 1..200),
    ) {
        let mut window = ProbeWindow::default();

        let mut clean_streak = 0u32;
        let mut quarantined = false;
        for (i, &draw) in probes.iter().enumerate() {
            let failed = draw == 1;
            let verdict = window.observe(quarantined, failed);
            if quarantined {
                clean_streak = if failed { 0 } else { clean_streak + 1 };
            }
            match verdict {
                Verdict::Readmit => {
                    prop_assert!(quarantined, "readmit without quarantine at probe {}", i);
                    prop_assert!(!failed, "readmitted on a failing probe at probe {}", i);
                    prop_assert!(
                        clean_streak >= PROBATION_PASSES,
                        "readmitted after only {} clean probes (need {}) at probe {}",
                        clean_streak, PROBATION_PASSES, i
                    );
                    quarantined = false;
                    clean_streak = 0;
                }
                Verdict::Quarantine => {
                    prop_assert!(!quarantined, "double quarantine at probe {}", i);
                    quarantined = true;
                    clean_streak = 0;
                }
                Verdict::None => {}
            }
        }
    }
}
