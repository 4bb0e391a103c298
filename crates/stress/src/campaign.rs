//! Characterization campaigns: the pre-deployment stress tests that
//! reveal Extended Operating Points (paper §3).
//!
//! * [`ShmooCampaign`] reproduces the paper's §6.A methodology: for each
//!   core, for each benchmark, for several consecutive runs, lower the
//!   voltage in small steps until the system crashes, recording cache
//!   ECC corrections on the way down. [`Table2Summary`] condenses the
//!   raw results into exactly the rows of Table 2.
//!
//!   By default the descent is **two-pass**: a coarse ladder (a
//!   [`ShmooCampaign::coarse_factor`] multiple of `step_mv` per step)
//!   finds the crash region quickly, then the sweep reboots, backtracks
//!   to the last safe coarse point and refines at `step_mv` on the same
//!   fine lattice a single-pass sweep would have visited. Deployment
//!   characterization gets ~`coarse_factor`× fewer dwell intervals per
//!   ladder while the reported crash offset stays within one fine step
//!   (statistically) of the single-pass methodology, which remains
//!   available via [`ShmooCampaign::single_pass`].
//! * [`RefreshSweep`] reproduces §6.B: relax the refresh interval of a
//!   DIMM step by step, run pattern tests, and record raw bit errors,
//!   BER and the refresh power recovered.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use uniserver_units::{BitErrorRate, Celsius, Seconds, Volts, Watts};

use uniserver_platform::dram::MemorySystem;
use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::power::DramPowerModel;
use uniserver_silicon::{ErrorSeverity, FaultKind};

use crate::patterns::TestPattern;

/// Configuration of an undervolting shmoo campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooCampaign {
    /// Voltage step between points (the paper's offsets move in small
    /// steps; 5 mV here).
    pub step_mv: f64,
    /// Dwell time per step.
    pub dwell: Seconds,
    /// Consecutive runs per (core, benchmark) pair — the paper uses 3.
    pub runs: usize,
    /// Fractional offset where the sweep starts (safely above any crash).
    pub start_offset_fraction: f64,
    /// Fractional offset where the sweep gives up.
    pub max_offset_fraction: f64,
    /// Coarse-pass step multiplier of the two-pass (coarse→fine)
    /// descent. `1` selects the legacy single-pass ladder; the default
    /// methodology uses `4` (20 mV coarse steps refined at 5 mV).
    pub coarse_factor: usize,
}

impl ShmooCampaign {
    /// The paper's §6.A methodology. The sweep starts essentially at
    /// nominal: a part that crashes at the very first step must be
    /// certified with *zero* safe margin, not with the sweep's entry
    /// offset (outlier dies crash shallower than any fixed entry point).
    #[must_use]
    pub fn paper_methodology() -> Self {
        ShmooCampaign {
            step_mv: 5.0,
            dwell: Seconds::from_millis(500.0),
            runs: 3,
            start_offset_fraction: 0.005,
            max_offset_fraction: 0.30,
            coarse_factor: 4,
        }
    }

    /// The paper's literal single-pass descent: every point on the fine
    /// lattice is dwelled on. Kept for equivalence tests against the
    /// two-pass default and as the conservative fallback.
    #[must_use]
    pub fn single_pass() -> Self {
        ShmooCampaign { coarse_factor: 1, ..ShmooCampaign::paper_methodology() }
    }

    /// Runs the campaign for a part instance (manufactured
    /// deterministically from `seed`) over the given workloads.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or the configuration is degenerate.
    #[must_use]
    pub fn run(&self, spec: &PartSpec, seed: u64, workloads: &[WorkloadProfile]) -> ShmooResult {
        let mut node = ServerNode::new(spec.clone(), seed);
        self.run_on(&mut node, workloads)
    }

    /// Runs the campaign on an *existing* node — the StressLog daemon's
    /// entry point when re-characterizing a deployed machine.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or the configuration is degenerate.
    #[must_use]
    pub fn run_on(&self, node: &mut ServerNode, workloads: &[WorkloadProfile]) -> ShmooResult {
        assert!(!workloads.is_empty(), "need at least one workload");
        assert!(self.step_mv > 0.0, "step must be positive");
        assert!(self.runs >= 1, "need at least one run");
        assert!(self.coarse_factor >= 1, "coarse factor must be at least 1");
        assert!(
            self.start_offset_fraction < self.max_offset_fraction,
            "start offset must be below the bail-out offset"
        );

        let spec = node.part().clone();
        let nominal_mv = spec.nominal_voltage.as_millivolts();
        let mut results = Vec::new();
        // Shallowest crash observed so far per core: later ladders on
        // the same core warm-start their coarse pass just above it
        // instead of re-walking the whole safe region (with a full
        // rescan fallback if the warm start proves too deep).
        let mut shallowest: Vec<Option<f64>> = vec![None; node.core_count()];

        for (core, shallowest) in shallowest.iter_mut().enumerate() {
            // Pin the benchmark to the core under test, as the paper does
            // per-core: everything else is parked.
            for other in 0..node.core_count() {
                if other != core {
                    node.isolate_core(other);
                }
            }
            for workload in workloads {
                for run in 0..self.runs {
                    let r = self.sweep_one(node, core, workload, run, nominal_mv, *shallowest);
                    *shallowest =
                        Some(shallowest.map_or(r.crash_offset_mv, |s| s.min(r.crash_offset_mv)));
                    results.push(r);
                }
            }
            for other in 0..node.core_count() {
                node.restore_core(other);
            }
        }
        node.reboot();
        ShmooResult {
            part_name: spec.name.clone(),
            nominal: spec.nominal_voltage,
            step_mv: self.step_mv,
            runs: results,
        }
    }

    /// One downward voltage ladder on one core: coarse→fine two-pass by
    /// default, single-pass when `coarse_factor == 1`.
    ///
    /// `warm_hint` is the shallowest crash offset already observed on
    /// this core (any workload/run). The coarse pass then enters two
    /// coarse steps above it — on the same fine lattice — instead of
    /// walking the whole safe region. A warm entry that crashes at its
    /// very first probe proves nothing about the points above it, so the
    /// sweep falls back to a full rescan from the true start. The
    /// guarantee is statistical, like the coarse→fine equivalence
    /// itself: a crash surface genuinely shallower than the warm entry
    /// crashes that first probe with near-certainty (the crash sigmoid
    /// saturates within a few mV), and a surface close enough to the
    /// entry to survive the probe can only shift the certified offset by
    /// that same few-mV transition width — within one fine step.
    fn sweep_one(
        &self,
        node: &mut ServerNode,
        core: usize,
        workload: &WorkloadProfile,
        run: usize,
        nominal_mv: f64,
        warm_hint: Option<f64>,
    ) -> CoreRunResult {
        node.reboot();
        let start_mv = nominal_mv * self.start_offset_fraction;
        // The sweep range is a fraction of nominal, but the MSR offset
        // field saturates at a fixed hardware limit; high-nominal parts
        // would otherwise request offsets the register cannot express.
        let max_mv = (nominal_mv * self.max_offset_fraction).min(node.msr.offset_limit_mv());
        let mut ce = CeTrack::default();

        let crash_mv = if self.coarse_factor <= 1 {
            // The paper's literal methodology ignores warm hints: every
            // single-pass ladder walks the full range.
            self.ladder(node, core, workload, start_mv, self.step_mv, max_mv, &mut ce)
        } else {
            let coarse_mv = self.step_mv * self.coarse_factor as f64;
            let mut coarse_start = match warm_hint {
                // Snap the warm entry onto the fine lattice so every
                // probed point matches one a single-pass sweep visits.
                Some(hint) => {
                    let steps = ((hint - 2.0 * coarse_mv - start_mv) / self.step_mv).floor();
                    start_mv + steps.max(0.0) * self.step_mv
                }
                None => start_mv,
            };
            loop {
                match self.ladder(node, core, workload, coarse_start, coarse_mv, max_mv, &mut ce) {
                    // Never crashed even in coarse steps: nothing to refine.
                    None => break None,
                    Some(coarse_crash_mv) => {
                        if coarse_crash_mv == coarse_start && coarse_start > start_mv {
                            // Crash on the warm entry point itself: the
                            // hint was too deep. Rescan from the top.
                            ce = CeTrack::default();
                            node.reboot();
                            coarse_start = start_mv;
                            continue;
                        }
                        // Backtrack to one fine step past the last *safe*
                        // coarse point and refine. Because `coarse_mv` is
                        // an exact multiple of `step_mv`, the fine pass
                        // walks the same lattice a single-pass sweep
                        // would have, so the refined crash offset lands
                        // within one fine step of the single-pass
                        // methodology. Should the fine pass stochastically
                        // survive past the coarse crash point all the way
                        // to the bail-out, the coarse crash is still a
                        // *witnessed* crash — certify it rather than
                        // reporting the run crash-free.
                        node.reboot();
                        let fine_start = (coarse_crash_mv - coarse_mv + self.step_mv).max(start_mv);
                        break self
                            .ladder(node, core, workload, fine_start, self.step_mv, max_mv, &mut ce)
                            .or(Some(coarse_crash_mv));
                    }
                }
            }
        };

        let crash_offset_mv = crash_mv.unwrap_or(max_mv);
        CoreRunResult {
            core,
            workload: workload.name.clone(),
            run,
            crash_offset_mv,
            crash_offset_fraction: crash_offset_mv / nominal_mv,
            cache_ce_total: ce.total,
            ce_window_mv: ce.first_offset_mv.map(|f| crash_offset_mv - f),
        }
    }

    /// One monotone descent from `start_mv` in `step` increments.
    /// Returns the crash offset, or `None` when the ladder bails at
    /// `max_mv` without crashing. Cache-CE statistics accumulate into
    /// `ce` across passes.
    #[allow(clippy::too_many_arguments)]
    fn ladder(
        &self,
        node: &mut ServerNode,
        core: usize,
        workload: &WorkloadProfile,
        start_mv: f64,
        step: f64,
        max_mv: f64,
        ce: &mut CeTrack,
    ) -> Option<f64> {
        let mut offset_mv = start_mv;
        loop {
            node.msr
                .set_voltage_offset(core, offset_mv)
                .expect("campaign offsets stay within MSR limits");
            let report = node.run_interval(workload, self.dwell);
            let ces: u64 = report
                .errors
                .iter()
                .filter(|e| e.kind == FaultKind::CacheBit && e.severity == ErrorSeverity::Corrected)
                .map(|e| e.count)
                .sum();
            if ces > 0 {
                ce.total += ces;
                // The *shallowest* offset that ever exposed a CE defines
                // the window start, across both passes.
                ce.first_offset_mv =
                    Some(ce.first_offset_mv.map_or(offset_mv, |f: f64| f.min(offset_mv)));
            }
            if report.crash.is_some() {
                return Some(offset_mv);
            }
            offset_mv += step;
            if offset_mv > max_mv {
                return None;
            }
        }
    }
}

/// Cache-CE bookkeeping carried across the passes of one ladder.
#[derive(Debug, Default)]
struct CeTrack {
    total: u64,
    first_offset_mv: Option<f64>,
}

impl Default for ShmooCampaign {
    fn default() -> Self {
        ShmooCampaign::paper_methodology()
    }
}

/// Outcome of one voltage ladder: one (core, benchmark, run) triple.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreRunResult {
    /// Core under test.
    pub core: usize,
    /// Benchmark name (shared with the workload profile).
    pub workload: Arc<str>,
    /// Run index within the triple of consecutive runs.
    pub run: usize,
    /// Offset below nominal at which the system crashed, in millivolts.
    pub crash_offset_mv: f64,
    /// The same offset as a fraction of nominal.
    pub crash_offset_fraction: f64,
    /// Total cache corrected errors observed during the ladder.
    pub cache_ce_total: u64,
    /// Width of the CE window: millivolts between the first observed CE
    /// and the crash point (`None` when no CE was ever observed).
    pub ce_window_mv: Option<f64>,
}

/// Raw result of a shmoo campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooResult {
    /// Part the campaign ran on.
    pub part_name: String,
    /// Nominal voltage of the part.
    pub nominal: Volts,
    /// Voltage step used.
    pub step_mv: f64,
    /// All ladder outcomes.
    pub runs: Vec<CoreRunResult>,
}

impl ShmooResult {
    /// Distinct benchmark names, in first-seen order.
    #[must_use]
    pub(crate) fn workloads(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = Vec::new();
        for r in &self.runs {
            // The distinct-name count is tiny (the paper uses 8), so a
            // linear probe on shared pointers beats hashing and, unlike
            // a HashMap, keeps iteration order deterministic.
            if !names.iter().any(|n| n == &r.workload) {
                names.push(r.workload.clone());
            }
        }
        names
    }

    /// Distinct core indices, ascending.
    #[must_use]
    pub fn cores(&self) -> Vec<usize> {
        let mut cores: Vec<usize> = self.runs.iter().map(|r| r.core).collect();
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Groups the runs into per-(benchmark, core) mean crash-offset
    /// cells in one pass: `(workloads, cores, cell means)` with cells
    /// indexed `[workload][core position]`. Every aggregation over the
    /// raw runs (Table 2, margin vectors) goes through this instead of
    /// rescanning the run list per cell.
    #[must_use]
    pub(crate) fn mean_offset_cells(&self) -> (Vec<Arc<str>>, Vec<usize>, Vec<Vec<f64>>) {
        let workloads = self.workloads();
        let cores = self.cores();
        let core_pos = |core: usize| cores.binary_search(&core).expect("core seen in first pass");
        let windex = |name: &Arc<str>| {
            workloads.iter().position(|n| n == name).expect("workload seen in first pass")
        };
        let mut sums = vec![vec![(0.0f64, 0u32); cores.len()]; workloads.len()];
        for r in &self.runs {
            let cell = &mut sums[windex(&r.workload)][core_pos(r.core)];
            cell.0 += r.crash_offset_fraction;
            cell.1 += 1;
        }
        let means = sums
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(sum, n)| {
                        assert!(n > 0, "every (benchmark, core) cell needs at least one run");
                        sum / f64::from(n)
                    })
                    .collect()
            })
            .collect();
        (workloads, cores, means)
    }
}

/// The condensed Table 2 rows for one part.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Summary {
    /// Part the summary describes.
    pub part_name: String,
    /// Min over benchmarks of the mean crash offset, as a percentage.
    pub crash_min_pct: f64,
    /// Max over benchmarks of the mean crash offset, as a percentage.
    pub crash_max_pct: f64,
    /// Min over benchmarks of the core-to-core crash spread, percent.
    pub core_var_min_pct: f64,
    /// Max over benchmarks of the core-to-core crash spread, percent.
    pub core_var_max_pct: f64,
    /// Fewest cache CEs seen in any run that saw at least one (None when
    /// the part never exposes CEs, like the high-end i7).
    pub cache_ce_min: Option<u64>,
    /// Most cache CEs seen in any run.
    pub cache_ce_max: Option<u64>,
    /// Mean CE window (mV above crash where CEs begin), when observed.
    pub mean_ce_window_mv: Option<f64>,
}

impl Table2Summary {
    /// Builds the summary exactly the way the paper describes: "the
    /// crash points present the minimum and maximum offset (as
    /// percentage) from the nominal voltage"; "the core-to-core variation
    /// presents the minimum and maximum variability among all available
    /// cores for the same benchmark. The min and max values refer to the
    /// benchmark that provided the least and the most variability."
    ///
    /// # Panics
    ///
    /// Panics if the result set is empty.
    #[must_use]
    pub fn from_shmoo(result: &ShmooResult) -> Self {
        let (workloads, cores, cells) = result.mean_offset_cells();
        assert!(!workloads.is_empty() && !cores.is_empty(), "empty shmoo result");

        let mut bench_means = Vec::with_capacity(workloads.len());
        let mut bench_spreads = Vec::with_capacity(workloads.len());
        for per_core in &cells {
            let mean = per_core.iter().sum::<f64>() / per_core.len() as f64;
            let spread = per_core.iter().cloned().fold(f64::MIN, f64::max)
                - per_core.iter().cloned().fold(f64::MAX, f64::min);
            bench_means.push(mean);
            bench_spreads.push(spread);
        }

        let ce_runs: Vec<u64> =
            result.runs.iter().map(|r| r.cache_ce_total).filter(|&c| c > 0).collect();
        let windows: Vec<f64> = result.runs.iter().filter_map(|r| r.ce_window_mv).collect();

        Table2Summary {
            part_name: result.part_name.clone(),
            crash_min_pct: bench_means.iter().cloned().fold(f64::MAX, f64::min) * 100.0,
            crash_max_pct: bench_means.iter().cloned().fold(f64::MIN, f64::max) * 100.0,
            core_var_min_pct: bench_spreads.iter().cloned().fold(f64::MAX, f64::min) * 100.0,
            core_var_max_pct: bench_spreads.iter().cloned().fold(f64::MIN, f64::max) * 100.0,
            cache_ce_min: ce_runs.iter().min().copied(),
            cache_ce_max: ce_runs.iter().max().copied(),
            mean_ce_window_mv: if windows.is_empty() {
                None
            } else {
                Some(windows.iter().sum::<f64>() / windows.len() as f64)
            },
        }
    }
}

/// One point of a refresh-interval sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshPoint {
    /// Refresh interval under test.
    pub interval: Seconds,
    /// Raw failing bits across all passes.
    pub raw_bit_errors: u64,
    /// Failures actually detected by the pattern.
    pub detected_errors: u64,
    /// Cumulative bit-error rate over all scanned bits.
    pub ber: BitErrorRate,
    /// Module refresh power at this interval.
    pub refresh_power: Watts,
    /// Total module power at this interval (full utilization).
    pub module_power: Watts,
}

/// A refresh-relaxation campaign over one DIMM (paper §6.B).
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshSweep {
    /// Intervals to test, ascending.
    pub intervals: Vec<Seconds>,
    /// DIMM temperature during the sweep.
    pub temp: Celsius,
    /// Test passes per interval.
    pub passes: u32,
    /// Pattern written before each retention wait.
    pub pattern: TestPattern,
    /// Power model used to report the recovered refresh power.
    pub power: DramPowerModel,
}

impl RefreshSweep {
    /// The paper's sweep: 64 ms nominal up to the extreme 5 s point, with
    /// random patterns, on a DIMM at server-room operating temperature.
    #[must_use]
    pub fn paper_sweep() -> Self {
        RefreshSweep {
            intervals: [0.064, 0.128, 0.256, 0.512, 1.0, 1.5, 2.0, 3.0, 5.0]
                .into_iter()
                .map(Seconds::new)
                .collect(),
            temp: Celsius::new(45.0),
            passes: 4,
            pattern: TestPattern::Random { seed: 0x0DD5 },
            power: DramPowerModel::ddr3_8gb(),
        }
    }

    /// Runs the sweep on one DIMM of a memory system.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no intervals or zero passes.
    #[must_use]
    pub fn run(&self, memory: &mut MemorySystem, dimm: usize, seed: u64) -> Vec<RefreshPoint> {
        assert!(!self.intervals.is_empty(), "sweep needs intervals");
        assert!(self.passes >= 1, "sweep needs at least one pass");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(self.intervals.len());
        for &interval in &self.intervals {
            let mut raw = 0u64;
            let mut detected = 0u64;
            let mut bits = 0u64;
            for _ in 0..self.passes {
                let scan = memory.scan_dimm(dimm, interval, self.temp, &mut rng);
                raw += scan.raw_bit_errors;
                detected += self.pattern.detected_failures(scan.raw_bit_errors, &mut rng);
                bits += scan.bits;
            }
            points.push(RefreshPoint {
                interval,
                raw_bit_errors: raw,
                detected_errors: detected,
                ber: BitErrorRate::from_counts(raw, bits),
                refresh_power: self.power.refresh_power(interval),
                module_power: self.power.module_power(interval, 1.0),
            });
        }
        points
    }

    /// Longest tested interval with zero *detected* errors.
    #[must_use]
    pub fn max_safe_interval(points: &[RefreshPoint]) -> Option<Seconds> {
        points
            .iter()
            .filter(|p| p.detected_errors == 0)
            .map(|p| p.interval)
            .fold(None, |acc, i| Some(acc.map_or(i, |a: Seconds| a.max(i))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_campaign() -> ShmooCampaign {
        ShmooCampaign { dwell: Seconds::from_millis(200.0), ..ShmooCampaign::paper_methodology() }
    }

    #[test]
    fn i5_summary_lands_in_table2_bands() {
        let shmoo = quick_campaign().run(&PartSpec::i5_4200u(), 2018, &WorkloadProfile::spec2006_subset());
        let t2 = Table2Summary::from_shmoo(&shmoo);
        // Paper: min -10 %, max -11.2 %.
        assert!((9.0..11.5).contains(&t2.crash_min_pct), "crash min {}", t2.crash_min_pct);
        assert!((10.0..13.0).contains(&t2.crash_max_pct), "crash max {}", t2.crash_max_pct);
        assert!(t2.crash_min_pct < t2.crash_max_pct);
        // Paper: core-to-core 0 %…2.7 %.
        assert!(t2.core_var_min_pct >= 0.0);
        assert!(t2.core_var_max_pct <= 4.0, "core var max {}", t2.core_var_max_pct);
        // Paper: 1…17 cache ECC errors, ~15 mV window. The two-pass
        // sweep re-dwells inside the CE window (coarse pass + fine
        // refinement), so per-ladder totals run up to ~2× the paper's
        // single-pass counts.
        let ce_max = t2.cache_ce_max.expect("i5 exposes CEs");
        assert!((1..=64).contains(&ce_max), "ce max {ce_max}");
        let window = t2.mean_ce_window_mv.expect("CE window observed");
        assert!((5.0..30.0).contains(&window), "CE window {window} mV");
    }

    #[test]
    fn i7_summary_lands_in_table2_bands() {
        let shmoo = quick_campaign().run(&PartSpec::i7_3970x(), 2012, &WorkloadProfile::spec2006_subset());
        let t2 = Table2Summary::from_shmoo(&shmoo);
        // Paper: min -8.4 %, max -15.4 %.
        assert!((6.5..11.5).contains(&t2.crash_min_pct), "crash min {}", t2.crash_min_pct);
        assert!((13.0..18.5).contains(&t2.crash_max_pct), "crash max {}", t2.crash_max_pct);
        // Paper: core-to-core 3.7 %…8 %.
        assert!(t2.core_var_max_pct >= 2.0 && t2.core_var_max_pct <= 10.0,
            "core var max {}", t2.core_var_max_pct);
        // Paper: the high-end part never shows cache ECC errors.
        assert_eq!(t2.cache_ce_min, None);
        assert_eq!(t2.cache_ce_max, None);
    }

    #[test]
    fn i7_varies_more_than_i5() {
        let i5 = Table2Summary::from_shmoo(
            &quick_campaign().run(&PartSpec::i5_4200u(), 7, &WorkloadProfile::spec2006_subset()),
        );
        let i7 = Table2Summary::from_shmoo(
            &quick_campaign().run(&PartSpec::i7_3970x(), 7, &WorkloadProfile::spec2006_subset()),
        );
        assert!(i7.core_var_max_pct > i5.core_var_max_pct);
        assert!(
            i7.crash_max_pct - i7.crash_min_pct > i5.crash_max_pct - i5.crash_min_pct,
            "i7 spans a wider crash band"
        );
    }

    #[test]
    fn shmoo_is_deterministic() {
        let w = vec![WorkloadProfile::spec_bzip2()];
        let a = quick_campaign().run(&PartSpec::i5_4200u(), 99, &w);
        let b = quick_campaign().run(&PartSpec::i5_4200u(), 99, &w);
        assert_eq!(a, b);
    }

    #[test]
    fn refresh_sweep_matches_paper_shape() {
        let mut mem = MemorySystem::commodity_server(false); // paper: ECC disabled
        let sweep = RefreshSweep::paper_sweep();
        let points = sweep.run(&mut mem, 3, 11);
        assert_eq!(points.len(), 9);

        // Errors at 64 ms…1.5 s: none (or a stray singleton at 1.5 s).
        for p in points.iter().take(5) {
            assert_eq!(p.raw_bit_errors, 0, "errors at {}", p.interval);
        }
        let p1_5 = &points[5];
        assert!(p1_5.raw_bit_errors <= 2, "1.5 s errors {}", p1_5.raw_bit_errors);

        // 5 s: BER in the order of 1e-9.
        let p5 = points.last().unwrap();
        assert!(p5.raw_bit_errors > 0);
        assert!(p5.ber.value() > 1e-10 && p5.ber.value() < 1e-8, "BER {}", p5.ber);
        assert!(p5.ber.is_correctable_by_secded());

        // Refresh power falls monotonically with relaxation.
        for w in points.windows(2) {
            assert!(w[1].refresh_power <= w[0].refresh_power);
        }
        // The safe interval found is at least the paper's 1.5 s.
        let safe = RefreshSweep::max_safe_interval(&points).expect("some safe interval");
        assert!(safe >= Seconds::new(1.5), "safe interval {safe}");
    }

    #[test]
    fn summary_rejects_empty_results() {
        let empty = ShmooResult {
            part_name: "x".into(),
            nominal: Volts::new(1.0),
            step_mv: 5.0,
            runs: vec![],
        };
        let r = std::panic::catch_unwind(|| Table2Summary::from_shmoo(&empty));
        assert!(r.is_err());
    }
}
