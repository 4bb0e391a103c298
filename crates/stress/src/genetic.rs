//! Genetic generation of stress viruses (paper §3.B, after AUDIT-style
//! automatic stress testing).
//!
//! A virus genome is a sequence of instruction-block kinds, each with a
//! characteristic power draw. The phenotype's droop excitations derive
//! from the *structure* of the sequence:
//!
//! * **activity** — mean power level of the blocks;
//! * **di/dt** — mean step between consecutive block power levels;
//! * **resonance** — spectral energy of the power waveform at the PDN's
//!   resonant period.
//!
//! Maximizing droop therefore requires discovering a square-wave rhythm
//! of high/low-power blocks at the resonance period — a genuinely
//! non-trivial search, which is why the paper reaches for a GA rather
//! than hand enumeration.

use rand::Rng;

use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::droop::DroopModel;

/// Period (in blocks) at which the modeled PDN resonates.
pub const RESONANCE_PERIOD: usize = 8;

/// One instruction block kind and its characteristic power level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// A stall/NOP stretch.
    Idle,
    /// Scalar integer work.
    Alu,
    /// Wide SIMD bursts (maximum switching).
    Simd,
    /// Streaming memory accesses.
    Mem,
    /// Pointer-chasing cache misses (low activity, long stalls).
    Miss,
}

impl BlockKind {
    /// All block kinds.
    pub const ALL: [BlockKind; 5] =
        [BlockKind::Idle, BlockKind::Alu, BlockKind::Simd, BlockKind::Mem, BlockKind::Miss];

    /// Normalized power level of the block in `[0, 1]`.
    #[must_use]
    pub fn power_level(self) -> f64 {
        match self {
            BlockKind::Idle => 0.04,
            BlockKind::Alu => 0.55,
            BlockKind::Simd => 0.97,
            BlockKind::Mem => 0.45,
            BlockKind::Miss => 0.25,
        }
    }

    /// Samples a uniformly random kind.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::ALL[rng.gen_range(0..Self::ALL.len())]
    }
}

/// A stress-virus genome: a loop of instruction blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirusGenome {
    blocks: Vec<BlockKind>,
}

impl VirusGenome {
    /// Creates a genome from explicit blocks.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` has fewer than two entries (no waveform).
    #[must_use]
    pub fn new(blocks: Vec<BlockKind>) -> Self {
        assert!(blocks.len() >= 2, "a virus needs at least two blocks");
        VirusGenome { blocks }
    }

    /// Samples a uniformly random genome of the given length.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> Self {
        assert!(len >= 2, "a virus needs at least two blocks");
        VirusGenome { blocks: (0..len).map(|_| BlockKind::random(rng)).collect() }
    }

    /// The hand-crafted optimum: a square wave of SIMD bursts and idles
    /// at the resonance period. Used as a reference ceiling in tests.
    #[must_use]
    pub fn resonant_square_wave(len: usize) -> Self {
        assert!(len >= 2, "a virus needs at least two blocks");
        let half = RESONANCE_PERIOD / 2;
        let blocks = (0..len)
            .map(|i| if (i / half).is_multiple_of(2) { BlockKind::Simd } else { BlockKind::Idle })
            .collect();
        VirusGenome { blocks }
    }

    /// The genome's blocks.
    #[must_use]
    pub fn blocks(&self) -> &[BlockKind] {
        &self.blocks
    }

    /// Mean power level (the activity excitation).
    #[must_use]
    pub fn activity(&self) -> f64 {
        self.blocks.iter().map(|b| b.power_level()).sum::<f64>() / self.blocks.len() as f64
    }

    /// Current-swing excitation: the peak-to-peak amplitude of the power
    /// waveform *at the PDN's timescale*, i.e. after smoothing over a
    /// half resonance period (the package inductance cannot see
    /// per-block jitter, only sustained swings). Normalized so an ideal
    /// square wave at the resonance period scores 1.
    #[must_use]
    pub fn didt(&self) -> f64 {
        let n = self.blocks.len();
        let w = (RESONANCE_PERIOD / 2).max(1);
        let max_step = BlockKind::Simd.power_level() - BlockKind::Idle.power_level();
        let mut lo = f64::MAX;
        let mut hi = f64::MIN;
        for start in 0..n {
            let mean: f64 = (0..w)
                .map(|k| self.blocks[(start + k) % n].power_level())
                .sum::<f64>()
                / w as f64;
            lo = lo.min(mean);
            hi = hi.max(mean);
        }
        ((hi - lo) / max_step).clamp(0.0, 1.0)
    }

    /// Spectral energy of the power waveform at [`RESONANCE_PERIOD`],
    /// normalized to `[0, 1]` (the resonance excitation). A square wave
    /// at the period scores ~1; white noise scores near 0.
    #[must_use]
    pub fn resonance(&self) -> f64 {
        let n = self.blocks.len() as f64;
        let omega = 2.0 * std::f64::consts::PI / RESONANCE_PERIOD as f64;
        let (mut re, mut im) = (0.0, 0.0);
        for (i, b) in self.blocks.iter().enumerate() {
            let p = b.power_level();
            re += p * (omega * i as f64).cos();
            im += p * (omega * i as f64).sin();
        }
        let magnitude = (re * re + im * im).sqrt() * 2.0 / n;
        // The fundamental of an ideal square wave of amplitude a/2 is
        // (2/π)·a; normalize against that ceiling.
        let ceiling = (2.0 / std::f64::consts::PI)
            * (BlockKind::Simd.power_level() - BlockKind::Idle.power_level());
        (magnitude / ceiling).clamp(0.0, 1.0)
    }

    /// Derives the phenotype as a workload profile usable anywhere the
    /// platform accepts workloads.
    #[must_use]
    pub fn to_profile(&self, name: impl Into<std::sync::Arc<str>>) -> WorkloadProfile {
        let miss_frac = self
            .blocks
            .iter()
            .filter(|b| matches!(b, BlockKind::Miss | BlockKind::Mem))
            .count() as f64
            / self.blocks.len() as f64;
        WorkloadProfile::new(
            name,
            self.activity(),
            self.didt(),
            self.resonance(),
            (0.2 + 2.2 * self.activity()).max(0.1),
            40.0 * miss_frac,
            miss_frac.min(1.0),
            16,
        )
    }

    /// The droop this virus provokes under a PDN model — the GA fitness.
    #[must_use]
    pub fn fitness(&self, pdn: &DroopModel) -> f64 {
        pdn.droop_fraction(self.activity(), self.didt(), self.resonance())
    }
}

/// Genetic-algorithm configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Genome length in blocks.
    pub genome_len: usize,
    /// Population size.
    pub population: usize,
    /// Number of generations to run.
    pub generations: usize,
    /// Tournament size for selection.
    pub tournament: usize,
    /// Per-gene mutation probability.
    pub mutation_rate: f64,
    /// Number of elites copied unchanged each generation.
    pub elites: usize,
}

impl GaConfig {
    /// A configuration adequate to converge on the resonant square wave.
    #[must_use]
    pub fn standard() -> Self {
        GaConfig {
            genome_len: 64,
            population: 80,
            generations: 120,
            tournament: 3,
            mutation_rate: 0.02,
            elites: 2,
        }
    }

    /// A fast configuration for tests and doc examples.
    #[must_use]
    pub fn quick() -> Self {
        GaConfig { generations: 25, population: 40, ..GaConfig::standard() }
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::standard()
    }
}

/// Result of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvolutionReport {
    /// The fittest genome found.
    pub best: VirusGenome,
    /// Best fitness per generation (monotonic thanks to elitism).
    pub best_fitness_history: Vec<f64>,
}

impl EvolutionReport {
    /// Final best fitness.
    ///
    /// # Panics
    ///
    /// Panics if the report is empty (cannot happen for runs with at
    /// least one generation).
    #[must_use]
    pub fn best_fitness(&self) -> f64 {
        *self.best_fitness_history.last().expect("at least one generation")
    }
}

/// Runs the genetic algorithm, evolving a stress virus against the given
/// PDN model.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero population/elites
/// exceeding population/zero generations).
pub fn evolve<R: Rng + ?Sized>(config: &GaConfig, pdn: &DroopModel, rng: &mut R) -> EvolutionReport {
    assert!(config.population >= 2, "population must hold at least two genomes");
    assert!(config.generations >= 1, "need at least one generation");
    assert!(config.elites < config.population, "elites must leave room for offspring");
    assert!(config.tournament >= 1, "tournament size must be at least 1");

    let mut population: Vec<VirusGenome> =
        (0..config.population).map(|_| VirusGenome::random(config.genome_len, rng)).collect();
    let mut history = Vec::with_capacity(config.generations);

    for _ in 0..config.generations {
        let mut scored: Vec<(f64, &VirusGenome)> =
            population.iter().map(|g| (g.fitness(pdn), g)).collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("fitness is finite"));
        history.push(scored[0].0);

        let mut next: Vec<VirusGenome> =
            scored.iter().take(config.elites).map(|(_, g)| (*g).clone()).collect();

        while next.len() < config.population {
            let a = tournament_pick(&scored, config.tournament, rng);
            let b = tournament_pick(&scored, config.tournament, rng);
            let mut child = crossover(a, b, rng);
            mutate(&mut child, config.mutation_rate, rng);
            next.push(child);
        }
        population = next;
    }

    let best = population
        .into_iter()
        .max_by(|a, b| a.fitness(pdn).partial_cmp(&b.fitness(pdn)).expect("finite"))
        .expect("population is non-empty");
    history.push(best.fitness(pdn));
    EvolutionReport { best, best_fitness_history: history }
}

fn tournament_pick<'a, R: Rng + ?Sized>(
    scored: &[(f64, &'a VirusGenome)],
    k: usize,
    rng: &mut R,
) -> &'a VirusGenome {
    let mut best: Option<(f64, &VirusGenome)> = None;
    for _ in 0..k {
        let pick = scored[rng.gen_range(0..scored.len())];
        if best.is_none() || pick.0 > best.expect("set").0 {
            best = Some(pick);
        }
    }
    best.expect("tournament picked at least one").1
}

fn crossover<R: Rng + ?Sized>(a: &VirusGenome, b: &VirusGenome, rng: &mut R) -> VirusGenome {
    let n = a.blocks().len().min(b.blocks().len());
    let cut = rng.gen_range(1..n);
    let blocks = a.blocks()[..cut].iter().chain(&b.blocks()[cut..n]).copied().collect();
    VirusGenome::new(blocks)
}

fn mutate<R: Rng + ?Sized>(genome: &mut VirusGenome, rate: f64, rng: &mut R) {
    for i in 0..genome.blocks.len() {
        if rng.gen::<f64>() < rate {
            genome.blocks[i] = BlockKind::random(rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x5EED1)
    }

    #[test]
    fn square_wave_maximizes_structure_metrics() {
        let sq = VirusGenome::resonant_square_wave(64);
        assert!(sq.resonance() > 0.9, "resonance {}", sq.resonance());
        assert!(sq.didt() > 0.2, "didt {}", sq.didt());
        // Uniform SIMD has zero didt and zero resonance despite max activity.
        let flat = VirusGenome::new(vec![BlockKind::Simd; 64]);
        assert!(flat.didt() < 1e-9);
        assert!(flat.resonance() < 0.05);
        assert!(flat.activity() > sq.activity());
    }

    #[test]
    fn random_genomes_score_below_square_wave() {
        let pdn = DroopModel::typical_server_pdn();
        let sq = VirusGenome::resonant_square_wave(64).fitness(&pdn);
        let mut r = rng();
        for _ in 0..50 {
            let g = VirusGenome::random(64, &mut r);
            assert!(g.fitness(&pdn) < sq, "random genome out-scored the square wave");
        }
    }

    #[test]
    fn evolution_improves_fitness() {
        let pdn = DroopModel::typical_server_pdn();
        let mut r = rng();
        let report = evolve(&GaConfig::quick(), &pdn, &mut r);
        let first = report.best_fitness_history[0];
        let last = report.best_fitness();
        assert!(last > first, "GA failed to improve: {first} -> {last}");
    }

    #[test]
    fn elitism_makes_progress_monotonic() {
        let pdn = DroopModel::typical_server_pdn();
        let mut r = rng();
        let report = evolve(&GaConfig::quick(), &pdn, &mut r);
        for w in report.best_fitness_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12, "fitness regressed: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn evolved_virus_beats_every_spec_workload() {
        let pdn = DroopModel::typical_server_pdn();
        let mut r = rng();
        let report = evolve(&GaConfig::standard(), &pdn, &mut r);
        let virus_droop = report.best_fitness();
        for w in uniserver_platform::workload::WorkloadProfile::spec2006_subset() {
            let d = w.droop_fraction(&pdn);
            assert!(
                virus_droop > d,
                "virus ({virus_droop:.3}) must out-droop {} ({d:.3})",
                w.name
            );
        }
        // And it approaches the square-wave ceiling.
        let ceiling = VirusGenome::resonant_square_wave(64).fitness(&pdn);
        assert!(virus_droop > 0.9 * ceiling, "virus {virus_droop} vs ceiling {ceiling}");
    }

    #[test]
    fn phenotype_is_a_valid_workload() {
        let mut r = rng();
        let g = VirusGenome::random(32, &mut r);
        let w = g.to_profile("ga-virus");
        assert_eq!(&*w.name, "ga-virus");
        assert!((0.0..=1.0).contains(&w.activity));
        assert!((0.0..=1.0).contains(&w.didt));
        assert!((0.0..=1.0).contains(&w.resonance));
    }

    #[test]
    fn determinism_from_seed() {
        let pdn = DroopModel::typical_server_pdn();
        let a = evolve(&GaConfig::quick(), &pdn, &mut StdRng::seed_from_u64(5));
        let b = evolve(&GaConfig::quick(), &pdn, &mut StdRng::seed_from_u64(5));
        assert_eq!(a.best, b.best);
        assert_eq!(a.best_fitness_history, b.best_fitness_history);
    }

    #[test]
    #[should_panic(expected = "at least two blocks")]
    fn degenerate_genome_panics() {
        let _ = VirusGenome::new(vec![BlockKind::Idle]);
    }
}
