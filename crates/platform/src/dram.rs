//! DIMMs, refresh domains and retention-error generation (paper §6.B).
//!
//! The paper's framework "separated the main memory into domains (based
//! on the available channels) whose refresh-rate can be set
//! independently", placing critical kernel state in a *reliable* domain
//! at nominal refresh while relaxing the rest. This module reproduces
//! that topology: DIMMs belong to refresh domains controlled through the
//! MSR file; retention failures are sampled from the calibrated
//! lognormal model; failing words are pushed through the real
//! SECDED(72,64) codec when ECC is enabled (the paper's DRAM experiment
//! ran with ECC *disabled*, which [`MemoryScan`] reports as raw bit
//! errors).

use rand::Rng;
use uniserver_units::{Bytes, Celsius, Seconds, Watts};

use uniserver_silicon::ecc::{DecodeOutcome, Secded72};
use uniserver_silicon::power::DramPowerModel;
use uniserver_silicon::retention::RetentionModel;
use uniserver_silicon::rng::{poisson, PoissonLimit};
use uniserver_silicon::{ErrorSeverity, FaultKind};

use crate::mca::{ErrorOrigin, MceRecord};
use crate::msr::{DomainId, MsrFile};

/// Static configuration of one DIMM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DimmConfig {
    /// Usable capacity.
    pub capacity: Bytes,
    /// Whether SECDED ECC is enabled for this DIMM.
    pub ecc_enabled: bool,
    /// Refresh domain the DIMM belongs to.
    pub domain: DomainId,
}

/// One DIMM with its lifetime error counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Dimm {
    /// Static configuration.
    pub config: DimmConfig,
    /// Lifetime corrected errors.
    pub corrected: u64,
    /// Lifetime uncorrected errors.
    pub uncorrected: u64,
    /// Lifetime raw (ECC-off) bit corruptions.
    pub raw_corruptions: u64,
}

impl Dimm {
    /// Creates a DIMM from its configuration.
    #[must_use]
    pub fn new(config: DimmConfig) -> Self {
        Dimm { config, corrected: 0, uncorrected: 0, raw_corruptions: 0 }
    }

    /// Number of 64-bit words on the DIMM.
    #[must_use]
    pub(crate) fn words(&self) -> u64 {
        self.config.capacity.bits() / 64
    }
}

/// Result of a full-memory test pass at one refresh setting — what the
/// paper's random-pattern experiments measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryScan {
    /// Refresh interval under test.
    pub refresh: Seconds,
    /// DIMM temperature during the scan.
    pub temp: Celsius,
    /// Bits scanned.
    pub bits: u64,
    /// Raw failing bits found (before any ECC).
    pub raw_bit_errors: u64,
    /// Errors ECC corrected (0 when ECC is off).
    pub corrected: u64,
    /// Errors ECC detected but could not correct.
    pub uncorrected: u64,
}

/// The memory system of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct MemorySystem {
    dimms: Vec<Dimm>,
    retention: RetentionModel,
    power: DramPowerModel,
}

impl MemorySystem {
    /// Builds a memory system from DIMM configurations.
    ///
    /// # Panics
    ///
    /// Panics if `dimms` is empty.
    #[must_use]
    pub fn new(dimms: Vec<DimmConfig>, retention: RetentionModel, power: DramPowerModel) -> Self {
        assert!(!dimms.is_empty(), "a node needs memory");
        MemorySystem { dimms: dimms.into_iter().map(Dimm::new).collect(), retention, power }
    }

    /// The paper's commodity-server setup: four 8 GB DDR3 DIMMs across
    /// two channels/domains. Domain 0 is the *reliable* domain (kernel
    /// code and stack data, nominal refresh); domain 1 is the relaxed
    /// domain. ECC is configurable per experiment; the characterization
    /// ran with ECC disabled, so that is the default here.
    #[must_use]
    pub fn commodity_server(ecc_enabled: bool) -> Self {
        let mk = |domain| DimmConfig { capacity: Bytes::gib(8), ecc_enabled, domain };
        MemorySystem::new(
            vec![mk(DomainId(0)), mk(DomainId(0)), mk(DomainId(1)), mk(DomainId(1))],
            RetentionModel::ddr3_server(),
            DramPowerModel::ddr3_8gb(),
        )
    }

    /// Capacity belonging to one refresh domain.
    #[must_use]
    pub fn domain_capacity(&self, domain: DomainId) -> Bytes {
        self.dimms
            .iter()
            .filter(|d| d.config.domain == domain)
            .map(|d| d.config.capacity)
            .sum()
    }

    /// All distinct refresh domains present.
    #[must_use]
    pub(crate) fn domains(&self) -> Vec<DomainId> {
        let mut ds: Vec<DomainId> = self.dimms.iter().map(|d| d.config.domain).collect();
        ds.sort();
        ds.dedup();
        ds
    }

    /// Immutable view of the DIMMs.
    #[must_use]
    pub fn dimms(&self) -> &[Dimm] {
        &self.dimms
    }

    /// Module power summed over DIMMs at the domain refresh settings in
    /// `msr` and the given utilization.
    #[must_use]
    pub(crate) fn power(&self, msr: &MsrFile, utilization: f64) -> Watts {
        self.dimms
            .iter()
            .map(|d| self.power.module_power(msr.refresh_interval(d.config.domain), utilization))
            .fold(Watts::ZERO, |a, b| a + b)
    }

    /// Performs a full test pass over one DIMM at an explicit refresh
    /// interval (the characterization primitive: write pattern, wait,
    /// read back, count flips). Exercises the SECDED codec for real when
    /// ECC is on.
    ///
    /// # Panics
    ///
    /// Panics if `dimm` is out of range.
    pub fn scan_dimm<R: Rng + ?Sized>(
        &mut self,
        dimm: usize,
        refresh: Seconds,
        temp: Celsius,
        rng: &mut R,
    ) -> MemoryScan {
        let words = self.dimms[dimm].words();
        let bits = words * 64;
        let expected = self.retention.expected_failures(refresh, temp, bits);
        let raw = poisson(rng, expected);

        // Distribute failing bits over words; collisions within a word
        // matter to ECC (two flips in one word defeat SECDED).
        let mut per_word: std::collections::HashMap<u64, Vec<u8>> = std::collections::HashMap::new();
        for _ in 0..raw {
            let word = rng.gen_range(0..words);
            let bit = rng.gen_range(0..64u8);
            per_word.entry(word).or_default().push(bit);
        }

        let (mut corrected, mut uncorrected) = (0u64, 0u64);
        if self.dimms[dimm].config.ecc_enabled {
            // The scan exercises the real SECDED codec, but its inputs
            // repeat: the base pattern is constant and almost every
            // failing word carries exactly one flip. Run the codec once
            // per process for those cases and reuse the outcomes — a
            // characterization sweep decodes tens of failing words per
            // DIMM, which dominated its cost.
            static BASE_AND_SINGLES: std::sync::OnceLock<(u128, [bool; 64])> =
                std::sync::OnceLock::new();
            let (base_code, single_corrects) = BASE_AND_SINGLES.get_or_init(|| {
                let code = Secded72::encode(0x5555_5555_5555_5555);
                let mut corrects = [false; 64];
                for (b, entry) in corrects.iter_mut().enumerate() {
                    *entry = matches!(
                        Secded72::decode(Secded72::flip_bit(code, b as u8)),
                        DecodeOutcome::Corrected { .. }
                    );
                }
                (code, corrects)
            });
            for bits_in_word in per_word.values() {
                match bits_in_word[..] {
                    // Single flip: the precomputed codec outcome.
                    [b] if single_corrects[b as usize] => corrected += 1,
                    [_] => uncorrected += 1,
                    // Multi-flip words (rare collisions): run the codec.
                    _ => {
                        let mut code = *base_code;
                        for &b in bits_in_word {
                            // Map the data-bit index onto a codeword
                            // position by flipping through the encoder's
                            // data layout: flipping any distinct codeword
                            // bits is equivalent for SECDED behaviour.
                            code = Secded72::flip_bit(code, b);
                        }
                        match Secded72::decode(code) {
                            DecodeOutcome::Clean { .. } => {}
                            DecodeOutcome::Corrected { .. } => corrected += 1,
                            DecodeOutcome::Uncorrectable => uncorrected += 1,
                        }
                    }
                }
            }
        }

        let d = &mut self.dimms[dimm];
        d.corrected += corrected;
        d.uncorrected += uncorrected;
        if !d.config.ecc_enabled {
            d.raw_corruptions += raw;
        }
        MemoryScan { refresh, temp, bits, raw_bit_errors: raw, corrected, uncorrected }
    }

    /// Expected retention failures on DIMM `dimm` per refresh window at
    /// refresh `interval` and DIMM temperature `temp`: the pure term of
    /// the runtime error stream.
    ///
    /// # Panics
    ///
    /// Panics if `dimm` is out of range or `interval` is zero.
    #[must_use]
    pub(crate) fn window_failures(&self, dimm: usize, interval: Seconds, temp: Celsius) -> f64 {
        self.retention.expected_failures(interval, temp, self.dimms[dimm].words() * 64)
    }

    /// Samples runtime retention errors over a deployment interval into a
    /// caller-provided buffer of machine-check records (nominal intervals
    /// produce no records, so no buffer ever grows). Each refresh window
    /// re-exposes the weak cells; `touch_fraction` models how much of
    /// memory the workload actually reads (undiscovered corruption stays
    /// silent, exactly the hazard the hypervisor's reliable domain
    /// avoids). `window_failures` holds each DIMM's
    /// [`MemorySystem::window_failures`] at the current refresh settings
    /// and temperature (the serving tick memoizes them), and `limits`
    /// each DIMM's Poisson zero limit, kept on the bits of the DIMM's
    /// expected hits: a steady interval repeats them, and the hit
    /// count draws exactly as [`poisson`] does.
    ///
    /// # Panics
    ///
    /// Panics if `touch_fraction` is outside `[0, 1]`, or
    /// `window_failures` or `limits` does not hold one term per DIMM.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_errors_into<R: Rng + ?Sized>(
        &mut self,
        msr: &MsrFile,
        window_failures: &[f64],
        limits: &mut [PoissonLimit],
        duration: Seconds,
        now: Seconds,
        touch_fraction: f64,
        rng: &mut R,
        records: &mut Vec<MceRecord>,
    ) {
        assert!((0.0..=1.0).contains(&touch_fraction), "touch fraction must be in [0, 1]");
        assert_eq!(window_failures.len(), self.dimms.len(), "one failure term per DIMM");
        assert_eq!(limits.len(), self.dimms.len(), "one Poisson limit per DIMM");
        for (i, (&per_window, limit)) in window_failures.iter().zip(limits).enumerate() {
            let (interval, words, ecc) = {
                let d = &self.dimms[i];
                (msr.refresh_interval(d.config.domain), d.words(), d.config.ecc_enabled)
            };
            let windows = (duration.as_secs() / interval.as_secs()).max(0.0);
            let expected = per_window * windows * touch_fraction;
            let hits = limit.sample(rng, expected);
            if hits == 0 {
                continue;
            }
            let d = &mut self.dimms[i];
            let dram = |severity, word, count| MceRecord {
                at: now,
                kind: FaultKind::DramBit,
                severity,
                origin: ErrorOrigin::Dimm { dimm: i, word },
                count,
            };
            if ecc {
                // Single retention failure per word per window: SECDED
                // corrects it. One counted record stands for the DIMM's
                // interval; every hit still draws its word, so the
                // stream advances as it would for one record per hit.
                let first = rng.gen_range(0..words);
                for _ in 1..hits {
                    rng.gen_range(0..words);
                }
                d.corrected += hits;
                records.push(dram(ErrorSeverity::Corrected, first, hits));
            } else {
                // Raw corruption: containment retires each word's page.
                d.raw_corruptions += hits;
                records.extend(
                    (0..hits).map(|_| dram(ErrorSeverity::Uncorrected, rng.gen_range(0..words), 1)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    fn msr_with(relaxed: Seconds) -> MsrFile {
        let mut m = MsrFile::new(uniserver_units::Volts::new(0.98), 2, 2);
        m.set_refresh_interval(DomainId(1), relaxed).unwrap();
        m
    }

    #[test]
    fn commodity_topology_matches_paper() {
        let mem = MemorySystem::commodity_server(false);
        assert_eq!(mem.domains(), vec![DomainId(0), DomainId(1)]);
        assert_eq!(mem.domain_capacity(DomainId(0)), Bytes::gib(16));
        assert_eq!(mem.domain_capacity(DomainId(1)), Bytes::gib(16));
    }

    #[test]
    fn scan_at_nominal_refresh_is_clean() {
        let mut mem = MemorySystem::commodity_server(false);
        let scan = mem.scan_dimm(0, Seconds::from_millis(64.0), Celsius::new(45.0), &mut rng());
        assert_eq!(scan.raw_bit_errors, 0);
    }

    #[test]
    fn scan_at_1_5s_is_usually_clean_and_5s_is_order_1e9() {
        let mut mem = MemorySystem::commodity_server(false);
        let mut r = rng();
        let temp = Celsius::new(45.0);
        let mut errors_1_5 = 0u64;
        let mut errors_5 = 0u64;
        for _ in 0..20 {
            errors_1_5 += mem.scan_dimm(2, Seconds::new(1.5), temp, &mut r).raw_bit_errors;
            errors_5 += mem.scan_dimm(2, Seconds::new(5.0), temp, &mut r).raw_bit_errors;
        }
        assert!(errors_1_5 <= 5, "1.5 s should be (nearly) error-free, got {errors_1_5}");
        // 20 scans × ~68.7 expected failures ≈ 1374.
        assert!(errors_5 > 500 && errors_5 < 3_000, "5 s errors {errors_5}");
    }

    #[test]
    fn ecc_corrects_isolated_retention_failures() {
        let mut mem = MemorySystem::commodity_server(true);
        let mut r = rng();
        let scan = mem.scan_dimm(3, Seconds::new(8.0), Celsius::new(55.0), &mut r);
        assert!(scan.raw_bit_errors > 0, "this aggressive point must produce raw errors");
        assert!(scan.corrected > 0);
        // At these densities nearly every failing word has exactly one
        // failing bit, so corrections dominate.
        assert!(scan.corrected >= scan.uncorrected * 10);
    }

    /// One serving interval's retention errors at 45 °C, sampled the way
    /// `ServerNode` does: each DIMM's window failures at its domain's
    /// refresh interval, then `sample_errors_into`.
    fn step_errors(
        mem: &mut MemorySystem,
        msr: &MsrFile,
        duration: Seconds,
        touch_fraction: f64,
        rng: &mut StdRng,
    ) -> Vec<MceRecord> {
        let temp = Celsius::new(45.0);
        let window_failures: Vec<f64> = (0..mem.dimms.len())
            .map(|i| mem.window_failures(i, msr.refresh_interval(mem.dimms[i].config.domain), temp))
            .collect();
        let mut limits = vec![PoissonLimit::default(); window_failures.len()];
        let mut records = Vec::new();
        mem.sample_errors_into(
            msr,
            &window_failures,
            &mut limits,
            duration,
            Seconds::ZERO,
            touch_fraction,
            rng,
            &mut records,
        );
        records
    }

    #[test]
    fn step_errors_only_in_relaxed_domain() {
        let mut mem = MemorySystem::commodity_server(false);
        let msr = msr_with(Seconds::new(5.0));
        let mut r = rng();
        let recs = step_errors(&mut mem, &msr, Seconds::new(60.0), 1.0, &mut r);
        assert!(!recs.is_empty(), "a minute at 5 s refresh must surface errors");
        for rec in &recs {
            let ErrorOrigin::Dimm { dimm, .. } = rec.origin else {
                panic!("unexpected origin {:?}", rec.origin)
            };
            assert!(dimm >= 2, "reliable-domain DIMM {dimm} produced an error");
            assert_eq!(rec.severity, ErrorSeverity::Uncorrected, "ECC off means raw corruption");
        }
    }

    #[test]
    fn touch_fraction_scales_discovery() {
        let mut mem_full = MemorySystem::commodity_server(false);
        let mut mem_idle = MemorySystem::commodity_server(false);
        let msr = msr_with(Seconds::new(5.0));
        let mut r = rng();
        let full: usize = (0..20)
            .map(|_| {
                step_errors(&mut mem_full, &msr, Seconds::new(30.0), 1.0, &mut r).len()
            })
            .sum();
        let idle: usize = (0..20)
            .map(|_| {
                step_errors(&mut mem_idle, &msr, Seconds::new(30.0), 0.05, &mut r).len()
            })
            .sum();
        assert!(idle * 5 < full, "idle {idle} should be far below full {full}");
    }

    /// A copy of the sampling loop before counted records: one record
    /// per hit, each drawing its word.
    fn per_hit_errors(
        mem: &mut MemorySystem,
        msr: &MsrFile,
        window_failures: &[f64],
        duration: Seconds,
        rng: &mut StdRng,
    ) -> Vec<MceRecord> {
        let mut records = Vec::new();
        for (i, &per_window) in window_failures.iter().enumerate() {
            let d = &mut mem.dimms[i];
            let interval = msr.refresh_interval(d.config.domain);
            let windows = (duration.as_secs() / interval.as_secs()).max(0.0);
            for _ in 0..poisson(rng, per_window * windows) {
                let word = rng.gen_range(0..d.words());
                let severity = if d.config.ecc_enabled {
                    d.corrected += 1;
                    ErrorSeverity::Corrected
                } else {
                    d.raw_corruptions += 1;
                    ErrorSeverity::Uncorrected
                };
                records.push(MceRecord {
                    at: Seconds::ZERO,
                    kind: FaultKind::DramBit,
                    severity,
                    origin: ErrorOrigin::Dimm { dimm: i, word },
                    count: 1,
                });
            }
        }
        records
    }

    #[test]
    fn counted_sampling_draws_like_one_record_per_hit() {
        let msr = msr_with(Seconds::new(5.0));
        let duration = Seconds::new(5.0);
        // Expected hits per DIMM on both sides of poisson's normal
        // cutoff at 30, and none.
        let terms = [0.0, 0.8, 6.0, 30.0, 31.0, 450.0];
        for ecc in [true, false] {
            for seed in 0..40u64 {
                let mut r = StdRng::seed_from_u64(seed);
                let failures: Vec<f64> =
                    (0..4).map(|_| terms[r.gen_range(0..terms.len())]).collect();
                let mut counted = MemorySystem::commodity_server(ecc);
                let mut single = counted.clone();
                let mut rng_counted = r.clone();
                let mut records = Vec::new();
                counted.sample_errors_into(
                    &msr,
                    &failures,
                    &mut [PoissonLimit::default(); 4],
                    duration,
                    Seconds::ZERO,
                    1.0,
                    &mut rng_counted,
                    &mut records,
                );
                let singles = per_hit_errors(&mut single, &msr, &failures, duration, &mut r);
                assert_eq!(rng_counted, r, "stream position: ecc {ecc}, failures {failures:?}");
                assert_eq!(counted.dimms, single.dimms, "DIMM counters: ecc {ecc}");
                if !ecc {
                    assert_eq!(records, singles, "uncorrected errors stay one record per word");
                    continue;
                }
                // One record per DIMM that had hits, carrying the
                // count and the first hit's word.
                let dimm_of = |rec: &MceRecord| match rec.origin {
                    ErrorOrigin::Dimm { dimm, .. } => dimm,
                    other => panic!("unexpected origin {other:?}"),
                };
                let mut expected: Vec<MceRecord> = Vec::new();
                for rec in singles {
                    match expected.last_mut() {
                        Some(last) if dimm_of(last) == dimm_of(&rec) => last.count += 1,
                        _ => expected.push(rec),
                    }
                }
                assert_eq!(records, expected, "counted records: failures {failures:?}");
            }
        }
    }

    #[test]
    fn dram_power_drops_with_relaxed_refresh() {
        let mem = MemorySystem::commodity_server(false);
        let nominal = mem.power(&msr_with(Seconds::from_millis(64.0)), 0.5);
        let relaxed = mem.power(&msr_with(Seconds::new(1.5)), 0.5);
        assert!(relaxed < nominal);
    }

    #[test]
    #[should_panic(expected = "needs memory")]
    fn empty_memory_panics() {
        let _ = MemorySystem::new(vec![], RetentionModel::ddr3_server(), DramPowerModel::ddr3_8gb());
    }
}
