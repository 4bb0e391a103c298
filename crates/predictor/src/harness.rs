//! Labeled-sample generation.
//!
//! The Predictor trains on the record the HealthLog/StressLog pipeline
//! accumulates: operating points that were tried, and whether the node
//! survived them. The harness replays that process in bulk: it sweeps
//! nodes across undervolt depths and workloads and labels each interval
//! with its outcome.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniserver_units::Seconds;

use uniserver_platform::node::ServerNode;
use uniserver_platform::part::PartSpec;
use uniserver_platform::workload::WorkloadProfile;

use crate::features::FeatureVector;

/// One labeled training sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Input features.
    pub features: FeatureVector,
    /// Whether the node crashed during the labeled interval.
    pub crashed: bool,
}

/// A labeled dataset.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    /// The samples, in generation order.
    pub samples: Vec<Sample>,
}

impl FromIterator<Sample> for Dataset {
    fn from_iter<I: IntoIterator<Item = Sample>>(iter: I) -> Self {
        Dataset { samples: iter.into_iter().collect() }
    }
}

/// Sweeps nodes across operating points to label outcomes.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingHarness {
    /// Part to exercise.
    pub spec: PartSpec,
    /// Workloads to mix.
    pub workloads: Vec<WorkloadProfile>,
    /// Undervolt depths (fractions of nominal) to explore.
    pub offsets: Vec<f64>,
    /// Intervals per (offset, workload) cell.
    pub intervals_per_cell: usize,
    /// Interval length.
    pub dwell: Seconds,
    /// Base RNG seed.
    pub seed: u64,
}

impl TrainingHarness {
    /// A harness spanning safe, marginal and fatal depths on the ARM
    /// micro-server part.
    #[must_use]
    pub(crate) fn standard() -> Self {
        TrainingHarness {
            spec: PartSpec::arm_microserver(),
            workloads: WorkloadProfile::spec2006_subset(),
            offsets: (0..14).map(|i| 0.01 + 0.01 * i as f64).collect(),
            intervals_per_cell: 6,
            dwell: Seconds::from_millis(250.0),
            seed: 0xBEEF,
        }
    }

    /// A reduced harness for tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        TrainingHarness {
            workloads: vec![
                WorkloadProfile::spec_bzip2(),
                WorkloadProfile::spec_zeusmp(),
                WorkloadProfile::spec_namd(),
            ],
            offsets: vec![0.02, 0.06, 0.09, 0.11, 0.13, 0.15, 0.17],
            intervals_per_cell: 4,
            ..TrainingHarness::standard()
        }
    }

    /// Generates a dataset from `chips` distinct manufactured nodes.
    ///
    /// # Panics
    ///
    /// Panics if the harness has no offsets/workloads or `chips` is zero.
    #[must_use]
    pub fn generate(&self, chips: usize) -> Dataset {
        assert!(chips > 0, "need at least one chip");
        assert!(!self.offsets.is_empty() && !self.workloads.is_empty(), "empty harness");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut samples = Vec::new();
        for chip in 0..chips {
            let mut node = ServerNode::new(self.spec.clone(), self.seed ^ (chip as u64) << 8);
            let nominal_mv = self.spec.nominal_voltage.as_millivolts();
            // The CE-rate and temperature features must be *prior*
            // information (what the HealthLog knew before the interval),
            // not the interval's own measurements — that would leak the
            // label through the crash-time CE burst.
            let mut prev_ce_rate = 0.0;
            let mut prev_temp = uniserver_units::Celsius::new(25.0);
            for &offset in &self.offsets {
                for workload in &self.workloads {
                    for _ in 0..self.intervals_per_cell {
                        if node.is_crashed() {
                            node.reboot();
                            prev_ce_rate = 0.0;
                        }
                        node.msr
                            .set_voltage_offset_all(offset * nominal_mv)
                            .expect("harness offsets stay within MSR limits");
                        let features = FeatureVector::from_observables(
                            offset,
                            workload.stress_scalar(&self.spec.pdn),
                            prev_temp,
                            prev_ce_rate,
                        );
                        let report = node.run_interval(workload, self.dwell);
                        let errors: u64 = report.errors.iter().map(|e| e.count).sum();
                        prev_ce_rate = errors as f64 * 60.0 / self.dwell.as_secs().max(1e-9);
                        prev_temp =
                            node.last_sensors().expect("an interval just ran").max_core_temp();
                        samples.push(Sample { features, crashed: report.crash.is_some() });
                    }
                }
            }
        }
        // Shuffle so batches are i.i.d.-ish while keeping determinism.
        for i in (1..samples.len()).rev() {
            let j = rng.gen_range(0..=i);
            samples.swap(i, j);
        }
        Dataset { samples }
    }
}

#[cfg(test)]
impl Dataset {
    /// Splits into (train, test) at the given fraction, preserving
    /// generation order (time-based split, as a deployed predictor
    /// would face).
    pub(crate) fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        let cut = ((self.samples.len() as f64) * train_fraction) as usize;
        (
            Dataset { samples: self.samples[..cut].to_vec() },
            Dataset { samples: self.samples[cut..].to_vec() },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_covers_both_classes() {
        let data = TrainingHarness::quick().generate(2);
        assert!(data.samples.len() > 100);
        let crashed = data.samples.iter().filter(|s| s.crashed).count();
        let rate = crashed as f64 / data.samples.len() as f64;
        assert!(rate > 0.05 && rate < 0.75, "positive rate {rate}");
    }

    #[test]
    fn deeper_offsets_crash_more() {
        let data = TrainingHarness::quick().generate(2);
        let crash_rate = |lo: f64, hi: f64| {
            let in_band: Vec<&Sample> = data
                .samples
                .iter()
                .filter(|s| s.features.values[0] >= lo * 10.0 && s.features.values[0] < hi * 10.0)
                .collect();
            in_band.iter().filter(|s| s.crashed).count() as f64 / in_band.len().max(1) as f64
        };
        let shallow = crash_rate(0.0, 0.10);
        let deep = crash_rate(0.13, 0.20);
        assert!(deep > shallow + 0.3, "deep {deep} vs shallow {shallow}");
    }

    #[test]
    fn split_preserves_counts() {
        let data = TrainingHarness::quick().generate(1);
        let (train, test) = data.split(0.8);
        assert_eq!(train.samples.len() + test.samples.len(), data.samples.len());
        assert!(train.samples.len() > test.samples.len());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TrainingHarness::quick().generate(1);
        let b = TrainingHarness::quick().generate(1);
        assert_eq!(a, b);
    }
}
