//! The assembled server node.
//!
//! A [`ServerNode`] binds a manufactured chip instance (sampled from the
//! part's variation model) to the MSR control plane, cache and memory
//! subsystems, sensors and machine-check banks, and advances them in
//! discrete intervals. The stress campaigns, daemons and hypervisor all
//! drive nodes exclusively through this interface — the same observables
//! the paper's stack gets from real hardware.
//!
//! An interval does only the work whose result is read, yet draws the
//! same RNG values in the same order as the full model: it steps over
//! the sensor sweep (rebuilt on demand by [`ServerNode::last_sensors`])
//! and the onset draws of a cache that cannot log a CE, and it memoizes
//! the pure power and retention terms on the bit patterns of their
//! inputs.
//!
//! The crash dice and the cache onsets are bounded skips. Each core
//! memoizes, per Box–Muller radius (on first use), the highest crash
//! voltage its run jitter can reach and the crash probability there. An interval reads
//! each core's normal uniforms untransformed, picks the radius they
//! fall in and draws the bernoulli uniform: at or above the bounded
//! probability the core cannot crash. Each cache bank's onset is
//! bounded the same way, from the highest per-core crash bound. Only a
//! core or bank the bound cannot rule out rewinds to its saved stream
//! position and runs the exact Box–Muller, sigmoid and onset math.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use uniserver_units::{Celsius, Joules, Seconds, Volts, Watts};

use uniserver_silicon::aging::AgingModel;
use uniserver_silicon::rng::{bernoulli, deviate_bound, normal_radius, NORMAL_RADII};
use uniserver_silicon::variation::ChipProfile;
use uniserver_silicon::vmin::VminModel;
use uniserver_silicon::{ErrorSeverity, FaultKind};

use crate::cache::CacheSubsystem;
use crate::dram::MemorySystem;
use crate::mca::{ErrorOrigin, McaBanks, MceRecord};
use crate::msr::MsrFile;
use crate::part::PartSpec;
use crate::sensors::{SensorBlock, SensorSnapshot};
use crate::workload::WorkloadProfile;

/// A node crash: which core went down, when, and at what voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashEvent {
    /// Core whose logic failed first.
    pub core: usize,
    /// Simulation time of the crash.
    pub at: Seconds,
    /// Effective supply voltage at the moment of the crash.
    pub voltage: Volts,
    /// Name of the workload running (shared with the profile — building
    /// a crash record never allocates).
    pub workload: Arc<str>,
}

/// Everything observed during one simulated interval. The interval's
/// sensor sweep is read separately, through [`ServerNode::last_sensors`].
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalReport {
    /// Simulation time at the *end* of the interval.
    pub at: Seconds,
    /// Interval length.
    pub duration: Seconds,
    /// A crash, if one occurred (the interval still reports telemetry up
    /// to the crash).
    pub crash: Option<CrashEvent>,
    /// Machine-check records raised during the interval.
    pub errors: Vec<MceRecord>,
    /// Mean node power over the interval (cores + DRAM).
    pub power: Watts,
    /// Energy consumed over the interval.
    pub energy: Joules,
}

/// Upper bounds on one core's crash dice, one slot per radius of
/// [`NORMAL_RADII`], each filled on first use: a run whose jitter
/// deviate lies within the radius crashes at no higher voltage than the
/// slot's, hence with at most the slot's probability.
type CrashBounds = [Option<(Volts, f64)>; NORMAL_RADII.len()];

/// State of one core within a node, with the interval memos keyed on it.
#[derive(Debug, Clone, PartialEq)]
struct CoreState {
    /// Manufactured fractional Vmin weakness (chip + core).
    weakness: f64,
    /// Isolated cores neither run work nor crash the node.
    isolated: bool,
    /// Power and supply voltage over the last interval: the truths the
    /// sensor sweep reads. `power` is also a memo of the part's power
    /// model, computed from the (voltage, activity, temperature) bit
    /// patterns in `power_key`.
    power: Watts,
    power_key: Option<[u64; 3]>,
    voltage: Volts,
    /// The crash-dice bounds, computed from the (effective voltage,
    /// weakness + aging, stress) bit patterns in `bounds_key`.
    bounds: CrashBounds,
    bounds_key: Option<[u64; 3]>,
}

/// The exact crash reference of an interval (the highest per-core crash
/// voltage), replayed from the stream position its crash loop started
/// at. The loop drew a bernoulli uniform after each active core's
/// normal up to and including the `crashed` core, and none after.
fn replay_crash_reference(
    cores: &[CoreState],
    vmin: &VminModel,
    nominal: Volts,
    aging: f64,
    stress: f64,
    crashed: Option<usize>,
    mut rng: StdRng,
) -> Volts {
    let mut reference = Volts::ZERO;
    for (idx, core) in cores.iter().enumerate().filter(|(_, core)| !core.isolated) {
        reference = reference.max(vmin.crash_voltage(nominal, core.weakness + aging, stress, &mut rng));
        if crashed.is_none_or(|c| idx <= c) {
            let _: f64 = rng.gen();
        }
    }
    reference
}

/// The simulated server node.
#[derive(Debug, Clone)]
pub struct ServerNode {
    spec: PartSpec,
    chip: ChipProfile,
    /// Software-visible control registers.
    pub msr: MsrFile,
    cores: Vec<CoreState>,
    cache: CacheSubsystem,
    /// The memory subsystem (public: the hypervisor manages domains).
    /// Its DIMM set and power/retention models are fixed when the node
    /// is built: the interval memos key on refresh settings,
    /// utilization and temperature only.
    pub memory: MemorySystem,
    sensors: SensorBlock,
    mca: McaBanks,
    clock: Seconds,
    crashed: bool,
    reboots: u64,
    /// Crash events since the last drain — the cluster orchestrator's
    /// failure feed. Bounded: a crash halts the node until reboot, the
    /// hypervisor drains the feed when it recovers the crash, and the
    /// StressLog drains its own intentional characterization crashes.
    pending_crashes: Vec<CrashEvent>,
    aging: AgingModel,
    age_months: f64,
    rng: StdRng,
    /// The seed the node was manufactured from (daemons derive their own
    /// per-node sub-streams from it).
    seed: u64,
    /// DRAM module power, computed from the bit patterns of the
    /// utilization and each DIMM's refresh interval in `dram_power_key`.
    dram_power: Watts,
    dram_power_key: Vec<u64>,
    /// Each DIMM's expected retention failures per refresh window,
    /// computed from the (refresh interval, DIMM temperature) bit
    /// patterns in `window_failures_key`.
    window_failures: Vec<f64>,
    window_failures_key: Vec<Option<[u64; 2]>>,
    /// The RNG at the last interval's sensor-sweep position, and the
    /// ambient the sweep read (`None` before the first interval).
    sweep: Option<(StdRng, Celsius)>,
}

impl ServerNode {
    /// Manufactures a node: samples a chip from the part's variation
    /// model (deterministically from `seed`) and assembles the
    /// subsystems. DRAM ECC is enabled — the production configuration;
    /// characterization experiments that need ECC off build their memory
    /// system explicitly via [`ServerNode::with_memory`].
    #[must_use]
    pub fn new(spec: PartSpec, seed: u64) -> Self {
        Self::with_memory(spec, MemorySystem::commodity_server(true), seed)
    }

    /// Quiet-workload crash margin (fraction of nominal voltage) a chip
    /// must hold on its weakest core to ship. Dice below this would
    /// crash at stock settings once workload stress and service aging
    /// eat into the margin — manufacturers discard them with the
    /// binning rejects (Figure 1's lost yield), so server fleets never
    /// see them.
    const SHIP_QUIET_MARGIN: f64 = 0.05;

    /// Manufactures a node with an explicit memory system.
    #[must_use]
    pub fn with_memory(spec: PartSpec, memory: MemorySystem, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        // Manufacturing screening: resample rejects (rare tail dice)
        // from the same stream, so shippable first draws consume exactly
        // the RNG they always did.
        let mut chip = spec.variation.sample_chip(seed, spec.cores, spec.cache_banks, &mut rng);
        for _ in 0..32 {
            let margin = spec.vmin.base_crash_offset
                - spec.vmin.core_gain * chip.worst_core_vmin_offset();
            if margin >= Self::SHIP_QUIET_MARGIN {
                break;
            }
            chip = spec.variation.sample_chip(seed, spec.cores, spec.cache_banks, &mut rng);
        }
        let cores = (0..spec.cores)
            .map(|c| CoreState {
                weakness: chip.core_vmin_offset(c),
                isolated: false,
                power: Watts::ZERO,
                power_key: None,
                voltage: Volts::ZERO,
                bounds: [None; NORMAL_RADII.len()],
                bounds_key: None,
            })
            .collect();
        let cache = CacheSubsystem::from_chip(&chip);
        let msr = MsrFile::new(spec.nominal_voltage, spec.cores, memory.domains().len().max(1));
        let dimm_count = memory.dimms().len();
        ServerNode {
            spec,
            chip,
            msr,
            cores,
            cache,
            memory,
            sensors: SensorBlock::server_room(),
            mca: McaBanks::default(),
            clock: Seconds::ZERO,
            crashed: false,
            reboots: 0,
            pending_crashes: Vec::new(),
            aging: AgingModel::typical_nbti(),
            age_months: 0.0,
            rng,
            seed,
            dram_power: Watts::ZERO,
            dram_power_key: Vec::new(),
            window_failures: vec![0.0; dimm_count],
            window_failures_key: vec![None; dimm_count],
            sweep: None,
        }
    }

    /// The seed this node's silicon was manufactured from. Daemons that
    /// need per-node randomness (e.g. the StressLog's DRAM sweep) derive
    /// their streams from this, so distinct nodes of the same part get
    /// distinct draws.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the ambient (inlet) temperature the node's sensors reference
    /// — set per node by the rack deploy's ambient spread.
    pub fn set_ambient(&mut self, ambient: Celsius) {
        self.sensors.ambient = ambient;
    }

    /// The current ambient (inlet) temperature.
    #[must_use]
    pub fn ambient(&self) -> Celsius {
        self.sensors.ambient
    }

    /// The noisy sensor sweep taken at the end of the last interval
    /// (`None` before the first one). The interval itself only steps the
    /// RNG past the sweep's draws; this replays them from the saved
    /// stream position over the interval's power and voltage truths and
    /// ambient, so the readings are exactly those an in-line sweep would
    /// have taken.
    #[must_use]
    pub fn last_sensors(&self) -> Option<SensorSnapshot> {
        let (rng, ambient) = self.sweep.as_ref()?;
        let sensors = SensorBlock { ambient: *ambient, ..self.sensors.clone() };
        let powers: Vec<Watts> = self.cores.iter().map(|c| c.power).collect();
        let voltages: Vec<Volts> = self.cores.iter().map(|c| c.voltage).collect();
        Some(sensors.sample(&powers, &voltages, &mut rng.clone()))
    }

    /// The part specification of this node.
    #[must_use]
    pub fn part(&self) -> &PartSpec {
        &self.spec
    }

    /// The manufactured chip identity (what characterization discovers).
    #[must_use]
    pub fn chip(&self) -> &ChipProfile {
        &self.chip
    }

    /// Number of cores on the node.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Whether the node is currently down.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Times the node has been rebooted.
    #[must_use]
    pub fn reboots(&self) -> u64 {
        self.reboots
    }

    /// Crash events recorded since the last drain (read-only view).
    #[must_use]
    pub fn pending_crashes(&self) -> &[CrashEvent] {
        &self.pending_crashes
    }

    /// Drains the crash events recorded since the last drain — how the
    /// cluster orchestrator learns *which* core failed, at what voltage
    /// and under which workload, rather than just "the node went down".
    pub fn take_crash_events(&mut self) -> Vec<CrashEvent> {
        std::mem::take(&mut self.pending_crashes)
    }

    /// Ages the silicon by `months` of deployment: NBTI-style drift
    /// raises every core's Vmin, eroding characterized margins — the
    /// reason StressLog re-runs "several times over the lifetime of a
    /// server" (§3.D).
    ///
    /// # Panics
    ///
    /// Panics if `months` is negative.
    pub fn age_by_months(&mut self, months: f64) {
        assert!(months >= 0.0, "cannot rejuvenate silicon");
        self.age_months += months;
    }

    /// Accumulated deployment age in months.
    #[must_use]
    pub fn age_months(&self) -> f64 {
        self.age_months
    }

    /// The aging-induced Vmin drift at the current age, as a fraction of
    /// nominal voltage (added to every core's manufactured weakness).
    #[must_use]
    pub fn aging_weakness(&self) -> f64 {
        self.aging.drift_mv(self.age_months) / self.spec.nominal_voltage.as_millivolts()
    }

    /// Current simulation time.
    #[must_use]
    pub fn now(&self) -> Seconds {
        self.clock
    }

    /// Read-only machine-check banks.
    #[must_use]
    pub fn mca(&self) -> &McaBanks {
        &self.mca
    }

    /// Marks a core as isolated: it stops running work and stops being
    /// able to crash the node (the hypervisor's containment action).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn isolate_core(&mut self, core: usize) {
        self.cores[core].isolated = true;
    }

    /// Returns an isolated core to service.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn restore_core(&mut self, core: usize) {
        self.cores[core].isolated = false;
    }

    /// Whether a core is isolated.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn is_isolated(&self, core: usize) -> bool {
        self.cores[core].isolated
    }

    /// Cache subsystem view.
    #[must_use]
    pub fn cache(&self) -> &CacheSubsystem {
        &self.cache
    }

    /// Mutable cache subsystem (for isolation decisions).
    pub fn cache_mut(&mut self) -> &mut CacheSubsystem {
        &mut self.cache
    }

    /// Reboots a crashed node at *nominal* settings (undervolt offsets
    /// are cleared by firmware on the way up, exactly like a real
    /// machine coming back from a crash).
    pub fn reboot(&mut self) {
        if self.crashed {
            self.reboots += 1;
        }
        self.crashed = false;
        self.msr
            .set_voltage_offset_all(0.0)
            .expect("zero offset is always within limits");
    }

    /// DRAM module power at `utilization` under the current refresh
    /// settings, recomputed only when the utilization or a DIMM's
    /// refresh interval changed since the last call.
    fn dram_power(&mut self, utilization: f64) -> Watts {
        let msr = &self.msr;
        let key = std::iter::once(utilization.to_bits()).chain(
            self.memory
                .dimms()
                .iter()
                .map(|d| msr.refresh_interval(d.config.domain).as_secs().to_bits()),
        );
        if !self.dram_power_key.iter().copied().eq(key.clone()) {
            self.dram_power_key.clear();
            self.dram_power_key.extend(key);
            self.dram_power = self.memory.power(&self.msr, utilization);
        }
        self.dram_power
    }

    /// Runs the node for one interval of `workload` on all active cores.
    ///
    /// # Panics
    ///
    /// Panics if the node is crashed (call [`ServerNode::reboot`] first)
    /// or `duration` is zero.
    pub fn run_interval(&mut self, workload: &WorkloadProfile, duration: Seconds) -> IntervalReport {
        assert!(!self.crashed, "node is crashed; call reboot() before running");
        assert!(duration.as_secs() > 0.0, "interval must be positive");
        let (crash, errors) = self.roll_logic_and_cache(workload, duration);
        self.finish_interval(workload, duration, crash, errors)
    }

    /// The interval's crash dice and cache CE draws, as bounded skips
    /// on the exact model's stream. Returns the crash, if any, and the
    /// cache's corrected-error records.
    fn roll_logic_and_cache(
        &mut self,
        workload: &WorkloadProfile,
        duration: Seconds,
    ) -> (Option<CrashEvent>, Vec<MceRecord>) {
        let stress = workload.stress_scalar(&self.spec.pdn);
        let aging = self.aging_weakness();
        let nominal = self.spec.nominal_voltage;
        let vmin = &self.spec.vmin;
        let mut crash: Option<CrashEvent> = None;

        // --- Core logic: per-run crash voltages, checked for a crash.
        let at_loop = self.rng.clone();
        let mut min_active_voltage = nominal;
        let mut reference_bound = Volts::ZERO;
        let mut active = 0usize;
        for (idx, core) in self.cores.iter_mut().enumerate() {
            if core.isolated {
                continue;
            }
            active += 1;
            let v = self.msr.effective_voltage(idx);
            min_active_voltage = min_active_voltage.min(v);
            let weakness = core.weakness + aging;
            let key = Some([v.as_volts().to_bits(), weakness.to_bits(), stress.to_bits()]);
            if core.bounds_key != key {
                core.bounds_key = key;
                core.bounds = [None; NORMAL_RADII.len()];
            }
            let at_core = self.rng.clone();
            if let Some(r) = normal_radius(&mut self.rng, vmin.run_jitter_sigma) {
                let (crash_v_max, p_max) = *core.bounds[r].get_or_insert_with(|| {
                    let crash_v = vmin.crash_voltage_bound(nominal, weakness, stress, deviate_bound(r));
                    (crash_v, vmin.crash_probability(v, crash_v))
                });
                reference_bound = reference_bound.max(crash_v_max);
                // After a crash the exact loop draws only the normal.
                if crash.is_some() || self.rng.gen::<f64>() >= p_max {
                    continue;
                }
            }
            // The bound cannot rule a crash out: rewind and roll exactly.
            self.rng = at_core;
            let crash_v = vmin.crash_voltage(nominal, weakness, stress, &mut self.rng);
            reference_bound = reference_bound.max(crash_v);
            let p = vmin.crash_probability(v, crash_v);
            if crash.is_none() && bernoulli(&mut self.rng, p) {
                crash = Some(CrashEvent {
                    core: idx,
                    at: self.clock + duration,
                    voltage: v,
                    workload: workload.name.clone(),
                });
            }
        }
        if active == 0 {
            // A fully isolated node idles; nothing can crash it.
            reference_bound = nominal.scaled(1.0 - vmin.base_crash_offset);
        }

        // --- Cache banks: corrected errors in the onset window, anchored
        // to the exact crash reference only where the bound cannot rule
        // a CE out.
        let cores = &self.cores;
        let crashed = crash.as_ref().map(|ev| ev.core);
        let exact_reference = || match active {
            0 => reference_bound,
            _ => replay_crash_reference(cores, vmin, nominal, aging, stress, crashed, at_loop.clone()),
        };
        let samples = self.cache.sample_interval(
            min_active_voltage,
            nominal,
            reference_bound,
            exact_reference,
            vmin,
            &mut self.rng,
        );
        let at = self.clock + duration;
        // One allocation for the interval's CE records, not one regrowth
        // per doubling.
        let count: u64 = samples.iter().map(|s| s.corrected).sum();
        let mut errors: Vec<MceRecord> = Vec::with_capacity(count as usize);
        for sample in samples {
            let record = MceRecord {
                at,
                kind: FaultKind::CacheBit,
                severity: ErrorSeverity::Corrected,
                origin: ErrorOrigin::CacheBank(sample.bank),
            };
            errors.extend(std::iter::repeat_n(record, sample.corrected as usize));
        }
        (crash, errors)
    }

    /// The rest of an interval after its crash dice and cache draws:
    /// power, DRAM retention errors, the sensor-sweep skip, and posting
    /// the interval's machine checks.
    fn finish_interval(
        &mut self,
        workload: &WorkloadProfile,
        duration: Seconds,
        crash: Option<CrashEvent>,
        mut errors: Vec<MceRecord>,
    ) -> IntervalReport {
        let nominal = self.spec.nominal_voltage;

        // --- Power & thermals. A core's power is a pure function of its
        // voltage, activity and temperature: recompute it only when one
        // of them changed since the last interval.
        let temp = self.sensors.true_core_temp(Watts::new(5.0)); // first-order estimate
        for (idx, core) in self.cores.iter_mut().enumerate() {
            let v = self.msr.effective_voltage(idx);
            let activity = if core.isolated { 0.02 } else { workload.activity };
            let key = Some([v.as_volts().to_bits(), activity.to_bits(), temp.as_celsius().to_bits()]);
            if core.power_key != key {
                core.power_key = key;
                core.power = self.spec.power.total(
                    v,
                    self.spec.nominal_frequency,
                    activity,
                    temp,
                    nominal,
                    self.chip.leakage_factor,
                );
            }
            core.voltage = v;
        }
        let core_power = self.cores.iter().fold(Watts::ZERO, |a, c| a + c.power);
        let dram_power = self.dram_power(workload.mem_bw_util);
        let package = core_power + dram_power;
        let energy = package * duration;

        // --- DRAM retention errors at the current refresh settings. The
        // expected failures per refresh window are pure in the refresh
        // interval and the DIMM temperature.
        let dimm_temp = self.sensors.true_dimm_temp(package);
        for (i, dimm) in self.memory.dimms().iter().enumerate() {
            let interval = self.msr.refresh_interval(dimm.config.domain);
            let key = Some([interval.as_secs().to_bits(), dimm_temp.as_celsius().to_bits()]);
            if self.window_failures_key[i] != key {
                self.window_failures_key[i] = key;
                self.window_failures[i] = self.memory.window_failures(i, interval, dimm_temp);
            }
        }
        let touch = (workload.mem_bw_util * 0.8 + 0.02).min(1.0);
        self.memory.sample_errors_into(
            &self.msr,
            &self.window_failures,
            duration,
            self.clock + duration,
            touch,
            &mut self.rng,
            &mut errors,
        );

        // --- Sensor sweep. Nothing on the serving path reads it: keep
        // the stream position for `last_sensors` and step past its draws.
        self.sweep = Some((self.rng.clone(), self.sensors.ambient));
        self.sensors.skip(self.cores.len(), core_power, &mut self.rng);

        // --- Post MCEs to the banks; a crash posts a fatal record.
        if let Some(ev) = &crash {
            errors.push(MceRecord {
                at: ev.at,
                kind: FaultKind::CoreLogic,
                severity: ErrorSeverity::Fatal,
                origin: ErrorOrigin::Core(ev.core),
            });
            self.crashed = true;
            self.pending_crashes.push(ev.clone());
        }
        for rec in &errors {
            self.mca.post(*rec);
        }

        self.clock = self.clock + duration;
        IntervalReport { at: self.clock, duration, crash, errors, power: package, energy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DimmConfig;
    use crate::msr::DomainId;
    use uniserver_silicon::power::DramPowerModel;
    use uniserver_silicon::retention::RetentionModel;
    use uniserver_units::Bytes;

    fn node() -> ServerNode {
        ServerNode::new(PartSpec::arm_microserver(), 7)
    }

    #[test]
    fn nominal_operation_is_stable_and_clean() {
        let mut n = node();
        let w = WorkloadProfile::spec_bzip2();
        for _ in 0..50 {
            let r = n.run_interval(&w, Seconds::from_millis(200.0));
            assert!(r.crash.is_none(), "crash at nominal settings");
            assert!(r.errors.is_empty(), "errors at nominal settings: {:?}", r.errors);
        }
        assert!((n.now().as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deep_undervolt_crashes_quickly() {
        let mut n = node();
        // 20 % below nominal is well past the ~13 % crash point.
        let off = n.part().offset_mv(0.20);
        n.msr.set_voltage_offset_all(off).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        let mut crashed = false;
        for _ in 0..20 {
            if n.run_interval(&w, Seconds::from_millis(100.0)).crash.is_some() {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "a 20 % undervolt must crash");
        assert!(n.is_crashed());
        assert_eq!(n.mca().fatal_total(), 1);
    }

    #[test]
    #[should_panic(expected = "call reboot()")]
    fn running_a_crashed_node_panics() {
        let mut n = node();
        n.msr.set_voltage_offset_all(n.part().offset_mv(0.25)).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        for _ in 0..200 {
            n.run_interval(&w, Seconds::from_millis(100.0));
        }
    }

    #[test]
    fn reboot_restores_nominal_settings() {
        let mut n = node();
        n.msr.set_voltage_offset_all(n.part().offset_mv(0.25)).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        while n.run_interval(&w, Seconds::from_millis(100.0)).crash.is_none() {}
        n.reboot();
        assert!(!n.is_crashed());
        assert_eq!(n.reboots(), 1);
        assert_eq!(n.msr.voltage_offset_mv(0), 0.0, "firmware clears offsets");
        // And it runs again.
        let r = n.run_interval(&w, Seconds::from_millis(100.0));
        assert!(r.crash.is_none());
    }

    #[test]
    fn crash_events_are_surfaced_and_drained() {
        let mut n = node();
        assert!(n.pending_crashes().is_empty());
        n.msr.set_voltage_offset_all(n.part().offset_mv(0.22)).unwrap();
        let w = WorkloadProfile::spec_zeusmp();
        while n.run_interval(&w, Seconds::from_millis(100.0)).crash.is_none() {}
        assert_eq!(n.pending_crashes().len(), 1, "one crash, one surfaced event");
        let events = n.take_crash_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].workload.as_ref(), w.name.as_ref());
        assert!(n.pending_crashes().is_empty(), "drain empties the feed");
        // Reboot + clean running adds nothing.
        n.reboot();
        let r = n.run_interval(&w, Seconds::from_millis(100.0));
        if r.crash.is_none() {
            assert!(n.pending_crashes().is_empty());
        }
    }

    #[test]
    fn moderate_undervolt_saves_power() {
        let mut a = ServerNode::new(PartSpec::arm_microserver(), 7);
        let mut b = ServerNode::new(PartSpec::arm_microserver(), 7);
        b.msr.set_voltage_offset_all(b.part().offset_mv(0.08)).unwrap();
        let w = WorkloadProfile::spec_hmmer();
        let pa = a.run_interval(&w, Seconds::new(1.0)).power;
        let pb = b.run_interval(&w, Seconds::new(1.0)).power;
        assert!(
            pb.as_watts() < pa.as_watts() * 0.95,
            "8 % undervolt should save ≥5 % power ({pb} vs {pa})"
        );
    }

    #[test]
    fn isolated_cores_do_not_crash_the_node() {
        let mut n = node();
        // Undervolt only core 0 deep into its crash region, then isolate it.
        n.msr.set_voltage_offset(0, n.part().offset_mv(0.22)).unwrap();
        n.isolate_core(0);
        let w = WorkloadProfile::spec_zeusmp();
        for _ in 0..50 {
            let r = n.run_interval(&w, Seconds::from_millis(100.0));
            assert!(r.crash.is_none(), "isolated core crashed the node");
        }
        assert!(n.is_isolated(0));
    }

    #[test]
    fn interval_report_is_internally_consistent() {
        let mut n = node();
        let w = WorkloadProfile::spec_mcf();
        let r = n.run_interval(&w, Seconds::new(2.0));
        assert_eq!(r.at, Seconds::new(2.0));
        assert!((r.energy.as_joules() - r.power.as_watts() * 2.0).abs() < 1e-9);
        assert_eq!(n.last_sensors().expect("an interval ran").core_temps.len(), n.core_count());
    }

    #[test]
    fn last_sensors_replays_the_skipped_sweep() {
        let mut n = node();
        assert_eq!(n.last_sensors(), None, "no sweep before the first interval");
        let r = n.run_interval(&WorkloadProfile::spec_mcf(), Seconds::from_millis(200.0));
        assert!(r.crash.is_none());
        let snap = n.last_sensors().expect("an interval ran");
        // Nothing draws after the sweep in a crash-free interval: the
        // saved position plus one skipped sweep is the node's stream.
        let (mut at_sweep, _) = n.sweep.clone().expect("an interval ran");
        let core_power = n.cores.iter().fold(Watts::ZERO, |a, c| a + c.power);
        n.sensors.skip(n.core_count(), core_power, &mut at_sweep);
        assert_eq!(at_sweep, n.rng);
        // The sweep belongs to the interval: later input changes do not
        // move it.
        n.set_ambient(Celsius::new(40.0));
        n.msr.set_voltage_offset_all(10.0).unwrap();
        assert_eq!(n.last_sensors(), Some(snap));
    }

    /// The node with every memo cleared: its next interval recomputes
    /// each pure term from the models.
    fn cold(n: &ServerNode) -> ServerNode {
        let mut c = n.clone();
        c.cores.iter_mut().for_each(|core| core.power_key = None);
        c.dram_power_key.clear();
        c.window_failures_key.fill(None);
        c
    }

    #[test]
    fn memoized_terms_follow_every_input() {
        type Step = fn(&mut ServerNode, &mut WorkloadProfile);
        let steps: [(&str, Step); 10] = [
            ("the first interval", |_, _| {}),
            ("an unchanged interval", |_, _| {}),
            ("set_ambient", |n, _| n.set_ambient(Celsius::new(35.0))),
            ("a voltage offset", |n, _| n.msr.set_voltage_offset(1, 20.0).unwrap()),
            ("isolate_core", |n, _| n.isolate_core(2)),
            ("restore_core", |n, _| n.restore_core(2)),
            ("a refresh change", |n, _| {
                n.msr.set_refresh_interval(DomainId(1), Seconds::new(5.0)).unwrap();
            }),
            // Swapped refresh settings leave the DRAM power sum, hence
            // the DIMM temperature, bit-identical: only the refresh keys
            // see the change.
            ("a refresh swap", |n, _| {
                n.msr.set_refresh_interval(DomainId(0), Seconds::new(5.0)).unwrap();
                n.msr.set_refresh_interval(DomainId(1), Seconds::from_millis(64.0)).unwrap();
            }),
            ("a workload change", |_, w| *w = WorkloadProfile::spec_hmmer()),
            ("reboot", |n, _| n.reboot()),
        ];
        // One DIMM per refresh domain.
        let dimm = |domain| DimmConfig { capacity: Bytes::gib(8), ecc_enabled: true, domain };
        let memory = MemorySystem::new(
            vec![dimm(DomainId(0)), dimm(DomainId(1))],
            RetentionModel::ddr3_server(),
            DramPowerModel::ddr3_8gb(),
        );
        let mut n = ServerNode::with_memory(PartSpec::arm_microserver(), memory, 7);
        let mut w = WorkloadProfile::spec_mcf();
        let dt = Seconds::new(60.0);
        for (what, change) in steps {
            change(&mut n, &mut w);
            let mut reference = cold(&n);
            let r = n.run_interval(&w, dt);
            assert!(r.crash.is_none(), "crash after {what}");
            let temp = n.sensors.true_core_temp(Watts::new(5.0));
            let cores = (0..n.core_count())
                .map(|c| {
                    let activity = if n.is_isolated(c) { 0.02 } else { w.activity };
                    n.spec.power.total(
                        n.msr.effective_voltage(c),
                        n.spec.nominal_frequency,
                        activity,
                        temp,
                        n.spec.nominal_voltage,
                        n.chip.leakage_factor,
                    )
                })
                .fold(Watts::ZERO, |a, b| a + b);
            let power = cores + n.memory.power(&n.msr, w.mem_bw_util);
            assert_eq!(r.power, power, "stale power after {what}");
            assert_eq!(r, reference.run_interval(&w, dt), "report diverged after {what}");
            assert_eq!(n.window_failures, reference.window_failures, "stale retention after {what}");
            assert_eq!(n.rng, reference.rng, "stream diverged after {what}");
        }
    }

    /// A copy of the crash loop and cache path before the bounded
    /// skips: every active core through Box–Muller, the sigmoid and a
    /// bernoulli (none after a crash), and below the screened onset
    /// every in-service bank through its exact onset and CE draws.
    fn exact_logic_and_cache(
        n: &mut ServerNode,
        workload: &WorkloadProfile,
        duration: Seconds,
    ) -> (Option<CrashEvent>, Vec<MceRecord>) {
        let stress = workload.stress_scalar(&n.spec.pdn);
        let nominal = n.spec.nominal_voltage;
        let mut errors: Vec<MceRecord> = Vec::new();
        let mut crash: Option<CrashEvent> = None;
        let aging = n.aging_weakness();
        let mut min_active_voltage = nominal;
        let mut crash_reference = Volts::ZERO;
        let mut active = 0usize;
        for (idx, core) in n.cores.iter().enumerate() {
            if core.isolated {
                continue;
            }
            active += 1;
            let v = n.msr.effective_voltage(idx);
            min_active_voltage = min_active_voltage.min(v);
            let weakness = core.weakness + aging;
            let crash_v = n.spec.vmin.crash_voltage(nominal, weakness, stress, &mut n.rng);
            crash_reference = crash_reference.max(crash_v);
            let p = n.spec.vmin.crash_probability(v, crash_v);
            if crash.is_none() && bernoulli(&mut n.rng, p) {
                crash = Some(CrashEvent {
                    core: idx,
                    at: n.clock + duration,
                    voltage: v,
                    workload: workload.name.clone(),
                });
            }
        }
        if active == 0 {
            crash_reference = nominal.scaled(1.0 - n.spec.vmin.base_crash_offset);
        }
        let vmin = &n.spec.vmin;
        let screened = Volts::from_millivolts(nominal.as_millivolts() - 1.0);
        for bank in n.cache.iter().filter(|b| !b.isolated) {
            if min_active_voltage >= screened {
                uniserver_silicon::rng::skip_normal(&mut n.rng, vmin.cache_onset_sigma_mv);
                continue;
            }
            let onset = vmin.cache_onset_voltage(crash_reference, bank.weakness, &mut n.rng).min(screened);
            for _ in 0..vmin.cache_ce_count(min_active_voltage, onset, &mut n.rng) {
                errors.push(MceRecord {
                    at: n.clock + duration,
                    kind: FaultKind::CacheBit,
                    severity: ErrorSeverity::Corrected,
                    origin: ErrorOrigin::CacheBank(bank.index),
                });
            }
        }
        (crash, errors)
    }

    /// What crash and CE volume a run of intervals saw.
    #[derive(Debug, Default)]
    struct Seen {
        intervals: usize,
        crashes: usize,
        ces: usize,
    }

    /// Runs one interval on `n` and on a clone through the exact loop,
    /// and asserts the two agree on the report, the stream position and
    /// the crash feed. A crashed node is rebooted (offsets cleared).
    fn interval_matches_exact(n: &mut ServerNode, w: &WorkloadProfile, seen: &mut Seen, what: &str) {
        let dt = Seconds::from_millis(100.0);
        let mut exact = n.clone();
        let report = n.run_interval(w, dt);
        let (crash, errors) = exact_logic_and_cache(&mut exact, w, dt);
        assert_eq!(report, exact.finish_interval(w, dt, crash, errors), "report: {what}");
        assert_eq!(n.rng, exact.rng, "stream position: {what}");
        assert_eq!(n.pending_crashes, exact.pending_crashes, "crash feed: {what}");
        seen.intervals += 1;
        seen.ces += report.errors.iter().filter(|e| e.severity == ErrorSeverity::Corrected).count();
        if report.crash.is_some() {
            seen.crashes += 1;
            n.reboot();
        }
    }

    /// Sweeps every core of `n` from nominal to 20 % below it in 0.4 %
    /// steps, once under a quiet and once under a stressful workload:
    /// within a sweep only the voltage moves the bounds.
    fn sweep_matches_exact(n: &mut ServerNode, what: &str) -> Seen {
        let mut seen = Seen::default();
        for w in [WorkloadProfile::spec_bzip2(), WorkloadProfile::spec_zeusmp()] {
            for step in 0..=50 {
                let fraction = f64::from(step) * 0.004;
                for i in 0..3 {
                    n.msr.set_voltage_offset_all(n.part().offset_mv(fraction).min(250.0)).unwrap();
                    let what = format!("{what}, {}, {fraction:.3} below, interval {i}", w.name);
                    interval_matches_exact(n, &w, &mut seen, &what);
                }
            }
        }
        seen
    }

    #[test]
    fn bounded_dice_match_the_exact_loop_across_a_voltage_sweep() {
        for (part, seed) in [
            (PartSpec::arm_microserver(), 7),
            (PartSpec::arm_microserver(), 4),
            (PartSpec::i5_4200u(), 11),
            (PartSpec::i7_3970x(), 3),
        ] {
            let name = part.name.clone();
            let seen = sweep_matches_exact(&mut ServerNode::new(part, seed), &name);
            assert!(seen.crashes > 0, "{name}: the sweep must reach the crash point: {seen:?}");
            if !name.contains("i7") {
                assert!(seen.ces > 0, "{name}: the sweep must cross the cache onset: {seen:?}");
            }
        }
    }

    #[test]
    fn bounded_dice_match_the_exact_loop_with_isolation() {
        let mut some = node();
        some.isolate_core(0);
        some.isolate_core(3);
        some.cache_mut().isolate(1);
        let seen = sweep_matches_exact(&mut some, "cores 0 and 3 isolated");
        assert!(seen.crashes > 0 && seen.ces > 0, "{seen:?}");

        let mut all = node();
        for core in 0..all.core_count() {
            all.isolate_core(core);
        }
        let seen = sweep_matches_exact(&mut all, "every core isolated");
        assert_eq!(seen.crashes, 0, "a fully isolated node cannot crash");
    }

    #[test]
    fn bounded_dice_match_the_exact_loop_without_noise() {
        let mut quiet_jitter = node();
        quiet_jitter.spec.vmin.run_jitter_sigma = 0.0;
        let seen = sweep_matches_exact(&mut quiet_jitter, "zero run jitter");
        assert!(seen.crashes > 0 && seen.ces > 0, "{seen:?}");

        let mut fixed_onset = node();
        fixed_onset.spec.vmin.cache_onset_sigma_mv = 0.0;
        let seen = sweep_matches_exact(&mut fixed_onset, "zero onset sigma");
        assert!(seen.crashes > 0 && seen.ces > 0, "{seen:?}");
    }

    #[test]
    fn bounded_dice_follow_aging_and_stress_at_a_fixed_voltage() {
        // At a fixed undervolt only the weakness (aging) or the stress
        // (workload) moves the bounds: a memo that missed either would
        // keep ruling out the crashes and CEs the exact loop draws.
        let quiet = WorkloadProfile::spec_bzip2();
        let loud = WorkloadProfile::spec_zeusmp();
        let mut seen = Seen::default();
        for step in 0..=20 {
            let fraction = 0.01 + f64::from(step) * 0.004;
            let mut aged = node();
            let mut stressed = node();
            for i in 0..12 {
                // Fresh silicon for the first interval, four years of
                // drift from the second on.
                if i == 1 {
                    aged.age_by_months(48.0);
                }
                aged.msr.set_voltage_offset_all(aged.part().offset_mv(fraction)).unwrap();
                interval_matches_exact(&mut aged, &quiet, &mut seen, &format!("{fraction} below, aged, interval {i}"));
                // The quiet workload first, the stressful one after.
                let w = if i == 0 { &quiet } else { &loud };
                stressed.msr.set_voltage_offset_all(stressed.part().offset_mv(fraction)).unwrap();
                interval_matches_exact(&mut stressed, w, &mut seen, &format!("{fraction} below, stressed, interval {i}"));
            }
        }
        assert!(seen.crashes > 0 && seen.ces > 0, "{seen:?}");
    }

    #[test]
    fn after_a_crash_later_cores_draw_only_their_normal() {
        let mut n = node();
        let mut seen = Seen::default();
        for i in 0..20 {
            // Core 0 far past its crash point, every other core nominal.
            n.msr.set_voltage_offset(0, n.part().offset_mv(0.25)).unwrap();
            interval_matches_exact(&mut n, &WorkloadProfile::spec_zeusmp(), &mut seen, &format!("core 0 crash {i}"));
            assert_eq!(n.take_crash_events().first().map(|ev| ev.core), Some(0), "core 0 crashes the node");
        }
    }

    #[test]
    fn same_seed_same_behaviour() {
        let mut a = ServerNode::new(PartSpec::i7_3970x(), 123);
        let mut b = ServerNode::new(PartSpec::i7_3970x(), 123);
        let w = WorkloadProfile::spec_milc();
        for _ in 0..10 {
            let ra = a.run_interval(&w, Seconds::from_millis(250.0));
            let rb = b.run_interval(&w, Seconds::from_millis(250.0));
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn aging_erodes_margins() {
        // A fresh node survives a mid-depth undervolt; after years of
        // drift the same operating point crashes.
        let offset_fraction = 0.105;
        let w = WorkloadProfile::spec_bzip2();

        // Chip seed 4 draws a strong die under the workspace RNG: the
        // fresh part holds a >10.5 % margin, so any crash delta is pure
        // aging drift (a weak draw saturates both counters at the cap).
        let mut fresh = ServerNode::new(PartSpec::arm_microserver(), 4);
        fresh.msr.set_voltage_offset_all(fresh.part().offset_mv(offset_fraction)).unwrap();
        let mut fresh_crashes = 0;
        for _ in 0..60 {
            if fresh.run_interval(&w, Seconds::from_millis(250.0)).crash.is_some() {
                fresh_crashes += 1;
                fresh.reboot();
                fresh.msr.set_voltage_offset_all(fresh.part().offset_mv(offset_fraction)).unwrap();
            }
        }

        let mut aged = ServerNode::new(PartSpec::arm_microserver(), 4);
        aged.age_by_months(48.0);
        assert!(aged.aging_weakness() > 0.02, "4-year drift {:.4}", aged.aging_weakness());
        aged.msr.set_voltage_offset_all(aged.part().offset_mv(offset_fraction)).unwrap();
        let mut aged_crashes = 0;
        for _ in 0..60 {
            if aged.run_interval(&w, Seconds::from_millis(250.0)).crash.is_some() {
                aged_crashes += 1;
                aged.reboot();
                aged.msr.set_voltage_offset_all(aged.part().offset_mv(offset_fraction)).unwrap();
            }
        }
        assert!(
            aged_crashes > fresh_crashes,
            "aged part must crash more at the same point ({aged_crashes} vs {fresh_crashes})"
        );
    }

    #[test]
    #[should_panic(expected = "rejuvenate")]
    fn negative_aging_panics() {
        ServerNode::new(PartSpec::arm_microserver(), 1).age_by_months(-1.0);
    }

    #[test]
    fn manufacturing_screens_out_doa_dice() {
        // Over many manufactured nodes, no shipped chip's weakest core
        // may sit inside the screened margin: such dice crash at stock
        // settings and are binning rejects, not servers.
        for seed in 0..512 {
            let n = ServerNode::new(PartSpec::arm_microserver(), seed);
            let margin = n.part().vmin.base_crash_offset
                - n.part().vmin.core_gain * n.chip().worst_core_vmin_offset();
            assert!(
                margin >= ServerNode::SHIP_QUIET_MARGIN - 1e-12,
                "seed {seed} shipped a reject (quiet margin {margin:.4})"
            );
        }
    }

    #[test]
    fn different_chips_differ() {
        let a = ServerNode::new(PartSpec::i7_3970x(), 1);
        let b = ServerNode::new(PartSpec::i7_3970x(), 2);
        assert_ne!(a.chip().speed_factor, b.chip().speed_factor);
    }
}
