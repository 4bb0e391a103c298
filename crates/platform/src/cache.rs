//! Last-level-cache banks under undervolting.
//!
//! Each bank has its own manufactured Vmin offset (paper §3.A: "for each
//! cache memory bank UniServer will reveal the minimum voltage that
//! allows correct operation"). As supply voltage approaches a bank's
//! onset point, SECDED begins correcting read failures — the CE stream
//! the paper counts in Table 2. Banks that misbehave persistently can be
//! isolated (taken out of the allocation map) by the hypervisor.

use rand::Rng;
use uniserver_units::Volts;

use uniserver_silicon::rng::{deviate_bound, normal_radius, skip_normal};
use uniserver_silicon::variation::ChipProfile;
use uniserver_silicon::vmin::VminModel;

/// State of one cache bank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheBankState {
    /// Bank index on the die.
    pub index: usize,
    /// Manufactured fractional Vmin offset (chip + bank components).
    pub weakness: f64,
    /// Whether the bank has been isolated by software.
    pub isolated: bool,
}

/// Corrected-error sample for one bank over one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BankCeSample {
    /// Bank index.
    pub bank: usize,
    /// Corrected errors observed in the interval.
    pub corrected: u64,
}

/// The cache subsystem of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheSubsystem {
    banks: Vec<CacheBankState>,
}

impl CacheSubsystem {
    /// Builds the subsystem from a manufactured chip profile. Bank
    /// weakness carries only the bank-*local* variation component: the
    /// chip-level Vmin shift is already reflected in the core crash
    /// reference that onset voltages are anchored to.
    #[must_use]
    pub(crate) fn from_chip(chip: &ChipProfile) -> Self {
        let banks = chip
            .banks
            .iter()
            .map(|b| CacheBankState { index: b.index, weakness: b.vmin_offset, isolated: false })
            .collect();
        CacheSubsystem { banks }
    }

    /// Number of banks still in service.
    #[must_use]
    pub fn active_banks(&self) -> usize {
        self.banks.iter().filter(|b| !b.isolated).count()
    }

    /// Iterates over bank states.
    pub fn iter(&self) -> impl Iterator<Item = &CacheBankState> {
        self.banks.iter()
    }

    /// Isolates a bank (removes it from service).
    ///
    /// # Panics
    ///
    /// Panics if the bank does not exist.
    pub fn isolate(&mut self, bank: usize) {
        self.banks[bank].isolated = true;
    }

    /// Whether a bank has been isolated.
    ///
    /// # Panics
    ///
    /// Panics if the bank does not exist.
    #[must_use]
    pub fn is_isolated(&self, bank: usize) -> bool {
        self.banks[bank].isolated
    }

    /// Samples corrected errors for every in-service bank over one
    /// interval at supply voltage `v`, given the interval's reference
    /// core crash voltage (bank onsets are anchored to it; see
    /// [`VminModel::cache_onset_voltage`]). Banks with zero CEs are
    /// omitted, mirroring how MCA only reports actual events.
    ///
    /// The exact reference costs the caller a replay, so it arrives as
    /// `crash_reference`, called at most once, together with an upper
    /// bound `reference_bound` on it. A bank whose onset, bounded by its
    /// deviate's radius and `reference_bound`, is at or below `v` logs
    /// nothing: it only steps the stream past its onset draw, which is
    /// all the exact path would draw. Only a bank the bound cannot rule
    /// out rewinds and samples exactly.
    pub(crate) fn sample_interval<R: Rng + Clone>(
        &self,
        v: Volts,
        nominal: Volts,
        reference_bound: Volts,
        mut crash_reference: impl FnMut() -> Volts,
        vmin: &VminModel,
        rng: &mut R,
    ) -> Vec<BankCeSample> {
        // Outgoing manufacturing test rejects parts that log corrected
        // errors at stock settings, so a shipped bank's onset is always
        // strictly below nominal no matter how weak the die: screen the
        // sampled onset to just under the stock voltage.
        let screened = Volts::from_millivolts(nominal.as_millivolts() - 1.0);
        let in_service = self.banks.iter().filter(|b| !b.isolated);
        if v >= screened {
            // Every screened onset sits at or below `v`: no bank can log
            // a CE, so only step the stream past each onset draw.
            for _ in in_service {
                skip_normal(rng, vmin.cache_onset_sigma_mv);
            }
            return Vec::new();
        }
        let mut reference = None;
        let mut out = Vec::new();
        for bank in in_service {
            let at_bank = rng.clone();
            if let Some(radius) = normal_radius(rng, vmin.cache_onset_sigma_mv) {
                let bound = vmin
                    .cache_onset_bound(reference_bound, bank.weakness, deviate_bound(radius))
                    .min(screened);
                if v >= bound {
                    continue;
                }
            }
            *rng = at_bank;
            let crash = *reference.get_or_insert_with(&mut crash_reference);
            let onset = vmin.cache_onset_voltage(crash, bank.weakness, rng).min(screened);
            let corrected = vmin.cache_ce_count(v, onset, rng);
            if corrected > 0 {
                out.push(BankCeSample { bank: bank.index, corrected });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use uniserver_silicon::variation::VariationParams;

    fn subsystem() -> CacheSubsystem {
        let mut rng = StdRng::seed_from_u64(21);
        let chip = VariationParams::server_28nm().sample_chip(0, 2, 4, &mut rng);
        CacheSubsystem::from_chip(&chip)
    }

    #[test]
    fn banks_inherit_chip_variation() {
        let s = subsystem();
        assert_eq!(s.banks.len(), 4);
        let weaknesses: Vec<f64> = s.iter().map(|b| b.weakness).collect();
        assert!(weaknesses.windows(2).any(|w| w[0] != w[1]), "banks must differ");
    }

    #[test]
    fn isolation_removes_banks_from_sampling() {
        let mut s = subsystem();
        s.isolate(0);
        s.isolate(1);
        assert_eq!(s.active_banks(), 2);
        let mut rng = StdRng::seed_from_u64(3);
        // Deep undervolt: every active bank produces CEs.
        let crash = Volts::from_millivolts(760.0);
        let samples =
            s.sample_interval(Volts::from_millivolts(700.0), Volts::from_millivolts(844.0), crash, || crash, &VminModel::default(), &mut rng);
        assert!(samples.iter().all(|c| c.bank >= 2), "isolated banks must stay silent");
        assert!(!samples.is_empty());
    }

    #[test]
    fn no_ces_at_nominal_voltage() {
        let s = subsystem();
        let mut rng = StdRng::seed_from_u64(5);
        let crash = Volts::from_millivolts(760.0);
        let samples =
            s.sample_interval(Volts::from_millivolts(844.0), Volts::from_millivolts(844.0), crash, || crash, &VminModel::default(), &mut rng);
        assert!(samples.is_empty(), "nominal voltage must be CE-free, got {samples:?}");
    }

    /// Every in-service bank through the onset and CE draws, with no
    /// early exit and no bound: the reference both shortcuts must match.
    fn sample_every_bank(
        s: &CacheSubsystem,
        v: Volts,
        nominal: Volts,
        crash: Volts,
        vmin: &VminModel,
        rng: &mut StdRng,
    ) -> Vec<BankCeSample> {
        let screened = Volts::from_millivolts(nominal.as_millivolts() - 1.0);
        s.iter()
            .filter(|b| !b.isolated)
            .filter_map(|b| {
                let onset = vmin.cache_onset_voltage(crash, b.weakness, rng).min(screened);
                let corrected = vmin.cache_ce_count(v, onset, rng);
                (corrected > 0).then_some(BankCeSample { bank: b.index, corrected })
            })
            .collect()
    }

    #[test]
    fn screened_exit_and_onset_bound_match_the_full_path() {
        let nominal = Volts::from_millivolts(844.0);
        let crash = Volts::from_millivolts(760.0);
        let mut isolated = subsystem();
        isolated.isolate(1);
        let models = [
            VminModel::default(),
            VminModel { cache_onset_sigma_mv: 0.0, ..VminModel::default() },
            // Raw onsets above nominal: only the screen keeps them below.
            VminModel { cache_onset_above_crash_mv: 200.0, ..VminModel::default() },
        ];
        for s in [subsystem(), isolated] {
            for vmin in &models {
                // At and above the screened onset (843 mV), then below
                // it: past the bound, across the onset window and deep.
                for v_mv in [843.0, 844.0, 900.0, 842.0, 800.0, 780.0, 775.0, 770.0, 700.0] {
                    // The exact reference, and looser bounds on it.
                    for slack_mv in [0.0, 0.5, 20.0] {
                        let v = Volts::from_millivolts(v_mv);
                        let bound = Volts::from_millivolts(crash.as_millivolts() + slack_mv);
                        for seed in 0..8 {
                            let mut fast = StdRng::seed_from_u64(seed);
                            let mut full = fast.clone();
                            let mut replays = 0;
                            let reference = || {
                                replays += 1;
                                crash
                            };
                            assert_eq!(
                                s.sample_interval(v, nominal, bound, reference, vmin, &mut fast),
                                sample_every_bank(&s, v, nominal, crash, vmin, &mut full),
                                "samples at {v_mv} mV, bound +{slack_mv} mV"
                            );
                            assert_eq!(fast, full, "stream position at {v_mv} mV, bound +{slack_mv} mV");
                            assert!(replays <= 1, "the exact reference is computed at most once");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ces_grow_as_voltage_drops() {
        use uniserver_silicon::variation::{BankProfile, ChipProfile, CoreProfile};
        // A chip with zero manufactured offsets so the onset window sits
        // exactly cache_onset_above_crash_mv above the crash reference.
        let chip = ChipProfile {
            chip_id: 0,
            speed_factor: 0.0,
            leakage_factor: 1.0,
            vmin_shift: 0.0,
            cores: vec![CoreProfile { index: 0, speed_offset: 0.0, vmin_offset: 0.0 }],
            banks: (0..4).map(|index| BankProfile { index, vmin_offset: 0.0 }).collect(),
        };
        let s = CacheSubsystem::from_chip(&chip);
        let mut rng = StdRng::seed_from_u64(7);
        let vmin = VminModel::default();
        let crash = Volts::from_millivolts(760.0);
        let total = |v_mv: f64, rng: &mut StdRng| -> u64 {
            (0..50)
                .map(|_| {
                    s.sample_interval(Volts::from_millivolts(v_mv), Volts::from_millivolts(844.0), crash, || crash, &vmin, rng)
                        .iter()
                        .map(|c| c.corrected)
                        .sum::<u64>()
                })
                .sum()
        };
        let shallow = total(772.0, &mut rng);
        let deep = total(762.0, &mut rng);
        assert!(deep > shallow, "deep {deep} vs shallow {shallow}");
    }
}
