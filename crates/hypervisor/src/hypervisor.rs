//! The hypervisor proper: VM lifecycle, error masking, isolation,
//! the V-F-R governor and availability accounting.

use std::collections::BTreeMap;

use uniserver_units::{Bytes, Joules, Seconds, Watts};

use uniserver_healthlog::{HealthAction, HealthLog, LedgerKey};
use uniserver_platform::mca::ErrorOrigin;
use uniserver_platform::node::{CrashEvent, ServerNode};
use uniserver_platform::workload::WorkloadProfile;
use uniserver_silicon::ErrorSeverity;
use uniserver_stresslog::MarginVector;

use crate::memdomain::{MemoryMap, Placement, PlacementError};
use crate::objects::ObjectInventory;
use crate::protect::ProtectionPolicy;
use crate::vm::{Vm, VmConfig, VmId};

/// Host kernel + KVM baseline footprint.
const BASE_FOOTPRINT: Bytes = Bytes::mib(160);
/// Fixed per-VM overhead (QEMU process, vhost rings).
const PER_VM_FIXED: Bytes = Bytes::mib(32);
/// Per-VM overhead proportional to guest memory (shadow page tables,
/// memslots).
const PER_VM_FRACTION: f64 = 0.015;
/// Downtime charged per full node crash (reboot + VM restart), in
/// seconds.
const REBOOT_PENALTY_SECS: f64 = 120.0;
/// The most critical object categories, protected with shadows.
const PROTECTED_CATEGORIES: usize = 3;

/// What happened during one hypervisor tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickOutcome {
    /// End-of-tick node time.
    pub at: Seconds,
    /// The node crashed and was rebooted this tick.
    pub node_crashed: bool,
    /// The platform's crash events for this tick, drained on recovery —
    /// which core failed, at what voltage, under which workload. Empty
    /// on clean ticks; cluster managers feed these to failure-driven
    /// recovery.
    pub crash_events: Vec<CrashEvent>,
    /// Corrected errors masked from guests this tick.
    pub masked_corrected: u64,
    /// Uncorrected errors contained by killing/restarting a VM.
    pub contained_uncorrected: u64,
    /// Pages retired this tick.
    pub pages_retired: u64,
    /// VMs restarted this tick (after UE kills or a node crash).
    pub vm_restarts: u64,
    /// Resources isolated this tick on HealthLog advice.
    pub isolations: u64,
    /// Whether the HealthLog asked for a StressLog cycle.
    pub recharacterization_requested: bool,
    /// Node power over the tick.
    pub power: Watts,
    /// Energy over the tick.
    pub energy: Joules,
}

/// One sample of the Figure 3 footprint series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FootprintSample {
    /// Node time of the sample.
    pub at: Seconds,
    /// Hypervisor's own footprint.
    pub hypervisor: Bytes,
    /// Guest-OS footprint across VMs (baseline + resident sets).
    pub vms: Bytes,
    /// Application heaps across VMs.
    pub application: Bytes,
}

/// The error-resilient hypervisor.
#[derive(Debug, Clone)]
pub struct Hypervisor {
    node: ServerNode,
    /// Every VM here is running: a UE kill and its restart both happen
    /// inside one tick, and a stopped VM is dropped.
    vms: BTreeMap<VmId, Vm>,
    /// vCPUs of the VMs in `vms`, kept exact by launch and stop so
    /// placement checks never walk the map.
    committed: usize,
    next_vm: u32,
    memory: MemoryMap,
    /// Static-object inventory, shared read-only across hypervisors
    /// (rack scale: thousands of instances, all booting the identical
    /// 16 820-object set).
    inventory: std::sync::Arc<ObjectInventory>,
    health: HealthLog,
    uptime: Seconds,
    downtime: Seconds,
    crashes: u64,
    masked_corrected_total: u64,
    /// Cached merge of the guests' profiles. The guest set changes
    /// only at launch and stop, which clear it; the next tick
    /// recomputes it.
    merged_cache: Option<WorkloadProfile>,
}

impl Hypervisor {
    /// Boots a hypervisor on a node.
    #[must_use]
    pub fn new(node: ServerNode) -> Self {
        let reliable = node.memory.domain_capacity(uniserver_platform::msr::DomainId(0));
        let relaxed = node.memory.domain_capacity(uniserver_platform::msr::DomainId(1));
        let memory = MemoryMap::new(reliable, relaxed);
        let inventory = ObjectInventory::standard_shared();
        let health = HealthLog::new();
        Hypervisor {
            node,
            vms: BTreeMap::new(),
            committed: 0,
            next_vm: 0,
            memory,
            inventory,
            health,
            uptime: Seconds::ZERO,
            downtime: Seconds::ZERO,
            crashes: 0,
            masked_corrected_total: 0,
            merged_cache: None,
        }
    }

    /// The underlying node (read-only).
    #[must_use]
    pub fn node(&self) -> &ServerNode {
        &self.node
    }

    /// Mutable node access — the governor's escape hatch for direct MSR
    /// programming (used by the EOP manager).
    pub fn node_mut(&mut self) -> &mut ServerNode {
        &mut self.node
    }

    /// The embedded HealthLog.
    #[must_use]
    pub fn health(&self) -> &HealthLog {
        &self.health
    }

    /// Launches a VM, placing its guest memory in the relaxed domain.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] when the relaxed domain cannot fit the
    /// guest.
    pub fn launch_vm(&mut self, config: VmConfig) -> Result<VmId, PlacementError> {
        self.memory.allocate(Placement::Relaxed, config.memory)?;
        // The hypervisor's own per-VM overhead lives in the reliable
        // domain — that is the whole point of the placement strategy.
        let overhead = Self::per_vm_overhead(&config);
        if let Err(e) = self.memory.allocate(Placement::Reliable, overhead) {
            self.memory.free(Placement::Relaxed, config.memory);
            return Err(e);
        }
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        self.committed += config.vcpus;
        self.merged_cache = None;
        self.vms.insert(id, Vm::launch(id, config));
        Ok(id)
    }

    /// Whether [`Hypervisor::launch_vm`] would succeed for `config`
    /// right now: the guest fits the relaxed domain *and* the
    /// hypervisor's own per-VM overhead fits the reliable domain.
    /// Capacity-only filters that check just the relaxed side admit
    /// nodes whose reliable domain is exhausted; packing policies use
    /// this exact predicate so a full node drops out of the candidate
    /// walk instead of failing every launch aimed at it.
    #[must_use]
    pub fn can_host(&self, config: &VmConfig) -> bool {
        self.memory.available(Placement::Relaxed) >= config.memory
            && self.memory.available(Placement::Reliable) >= Self::per_vm_overhead(config)
    }

    /// Stops a VM, releases its memory and drops its record — a
    /// long-running node's per-tick work stays proportional to its
    /// *live* guests, not to every VM it ever hosted. Idempotent:
    /// stopping an unknown (or already-stopped-and-dropped) id is a
    /// no-op returning false, so double stops can never corrupt the
    /// memory-domain accounting.
    pub fn stop_vm(&mut self, id: VmId) -> bool {
        let Some(vm) = self.vms.remove(&id) else {
            return false;
        };
        self.committed -= vm.config.vcpus;
        self.merged_cache = None;
        let overhead = Self::per_vm_overhead(&vm.config);
        self.memory.free(Placement::Relaxed, vm.config.memory);
        self.memory.free(Placement::Reliable, overhead);
        true
    }

    /// A VM by id.
    #[must_use]
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// All VMs.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// vCPUs committed across the VMs (a counter, not a walk).
    #[must_use]
    pub fn committed_vcpus(&self) -> usize {
        self.committed
    }

    /// Capacity of the relaxed (guest) domain, fixed at boot.
    #[must_use]
    pub fn relaxed_capacity(&self) -> Bytes {
        self.memory.relaxed_capacity
    }

    fn per_vm_overhead(config: &VmConfig) -> Bytes {
        PER_VM_FIXED + Bytes::new((config.memory.as_u64() as f64 * PER_VM_FRACTION) as u64)
    }

    /// The hypervisor's own footprint: baseline + per-VM overheads +
    /// static objects + protection shadows. This is the red line of
    /// Figure 3 and it lives entirely in the reliable domain.
    #[must_use]
    pub(crate) fn own_footprint(&self) -> Bytes {
        let vm_overheads: Bytes = self.vms.values().map(|vm| Self::per_vm_overhead(&vm.config)).sum();
        BASE_FOOTPRINT
            + vm_overheads
            + self.inventory.total_size()
            + ProtectionPolicy::top_categories(PROTECTED_CATEGORIES).overhead()
    }

    /// A Figure 3 footprint sample at the current instant.
    #[must_use]
    pub fn footprint_sample(&self) -> FootprintSample {
        let vms: Bytes = self.vms.values().map(|vm| vm.os_baseline() + vm.config.resident_set).sum();
        let application: Bytes = self.vms.values().map(Vm::application_heap).sum();
        FootprintSample { at: self.node.now(), hypervisor: self.own_footprint(), vms, application }
    }

    /// Applies a StressLog margin vector: per-core undervolts (clamped
    /// by an extra policy slack) and the relaxed-domain refresh. The
    /// reliable domain always stays at nominal refresh.
    ///
    /// # Panics
    ///
    /// Panics if the margin vector does not match the node's core count.
    pub fn apply_margins(&mut self, margins: &MarginVector) {
        assert_eq!(
            margins.per_core_safe_offset_mv.len(),
            self.node.core_count(),
            "margin vector does not match node topology"
        );
        for (core, &offset_mv) in margins.per_core_safe_offset_mv.iter().enumerate() {
            self.node
                .msr
                .set_voltage_offset(core, offset_mv.min(250.0))
                .expect("validated offsets are within MSR limits");
        }
        let relaxed = self.memory.relaxed_domain;
        self.node
            .msr
            .set_refresh_interval(relaxed, margins.safe_refresh)
            .expect("safe refresh within controller range");
        // Reliable domain: pinned at nominal.
        self.node
            .msr
            .set_refresh_interval(self.memory.reliable_domain, Seconds::from_millis(64.0))
            .expect("nominal refresh is always valid");
    }

    /// Runs the node for one interval under the merged guest workload
    /// and performs all resilience duties.
    pub fn tick(&mut self, duration: Seconds) -> TickOutcome {
        if self.merged_cache.is_none() {
            self.merged_cache = Some(self.merged_workload());
        }
        let workload = self.merged_cache.as_ref().expect("cache populated above");
        debug_assert!(*workload == self.merged_workload(), "stale cached workload");
        let report = self.node.run_interval(workload, duration);

        let mut outcome = TickOutcome {
            at: report.at,
            node_crashed: false,
            crash_events: Vec::new(),
            masked_corrected: 0,
            contained_uncorrected: 0,
            pages_retired: 0,
            vm_restarts: 0,
            isolations: 0,
            recharacterization_requested: false,
            power: report.power,
            energy: report.energy,
        };
        let crashed = report.crash.is_some();

        // --- Error masking and containment. Each UE victim is listed
        // once; it restarts at the end of the tick.
        let mut killed: Vec<VmId> = Vec::new();
        for err in &report.errors {
            match err.severity {
                ErrorSeverity::Corrected => {
                    // Masked: guests never see corrected errors.
                    outcome.masked_corrected += err.count;
                    self.masked_corrected_total += err.count;
                }
                ErrorSeverity::Uncorrected => {
                    if let ErrorOrigin::Dimm { word, .. } = err.origin {
                        if self.memory.retire_page_of_word(word) {
                            outcome.pages_retired += 1;
                        }
                        // Contain: the UE hit a guest page; kill exactly
                        // that VM instead of the whole machine.
                        let n = self.vms.len() as u64;
                        if let Some(&victim) = self.vms.keys().nth((word % n.max(1)) as usize) {
                            if !killed.contains(&victim) {
                                killed.push(victim);
                                outcome.contained_uncorrected += 1;
                            }
                        }
                    }
                }
                ErrorSeverity::Fatal => { /* handled via report.crash below */ }
            }
        }

        // --- HealthLog ingest: the containment pass above was the last
        // other reader of the report. Ingest ordering relative to the
        // containment pass is immaterial — the HealthLog never touches
        // VM or memory state, and containment never touches the log.
        let actions = self.health.ingest_owned(report);

        // --- HealthLog recommendations: isolation & re-characterization.
        for action in actions {
            match action {
                HealthAction::TriggerStressTest => outcome.recharacterization_requested = true,
                HealthAction::IsolateResource(LedgerKey::Core(c)) => {
                    if !self.node.is_isolated(*c) {
                        self.node.isolate_core(*c);
                        outcome.isolations += 1;
                    }
                }
                HealthAction::IsolateResource(LedgerKey::CacheBank(b)) => {
                    if !self.node.cache().is_isolated(*b) {
                        self.node.cache_mut().isolate(*b);
                        outcome.isolations += 1;
                    }
                }
            }
        }

        // --- Crash recovery: reboot, restart every VM, charge downtime.
        if crashed {
            outcome.node_crashed = true;
            outcome.crash_events = self.node.take_crash_events();
            self.crashes += 1;
            self.node.reboot();
            self.downtime = self.downtime + Seconds::new(REBOOT_PENALTY_SECS);
            for vm in self.vms.values_mut() {
                vm.restart();
            }
            outcome.vm_restarts = self.vms.len() as u64;
        } else {
            self.uptime = self.uptime + duration;
            // Restart the VMs UE containment killed this tick.
            for id in &killed {
                self.vms.get_mut(id).expect("victims are hosted VMs").restart();
            }
            outcome.vm_restarts = killed.len() as u64;
            for vm in self.vms.values_mut() {
                vm.advance(duration);
            }
        }

        outcome
    }

    /// Merges the guests' workload profiles into the node-level
    /// excitation (plus idle background when no guest runs).
    fn merged_workload(&self) -> WorkloadProfile {
        if self.vms.is_empty() {
            return WorkloadProfile::idle();
        }
        let n = self.vms.len() as f64;
        let avg = |f: fn(&WorkloadProfile) -> f64| {
            self.vms.values().map(|vm| f(&vm.config.workload)).sum::<f64>() / n
        };
        WorkloadProfile::new(
            "merged-guests",
            avg(|w| w.activity).clamp(0.0, 1.0),
            avg(|w| w.didt).clamp(0.0, 1.0),
            avg(|w| w.resonance).clamp(0.0, 1.0),
            avg(|w| w.ipc).max(0.1),
            avg(|w| w.cache_mpki),
            avg(|w| w.mem_bw_util).clamp(0.0, 1.0),
            self.vms.values().map(|vm| vm.config.workload.footprint_mib).sum(),
        )
    }

    /// Node availability so far: uptime / (uptime + downtime).
    #[must_use]
    pub fn availability(&self) -> f64 {
        let total = self.uptime.as_secs() + self.downtime.as_secs();
        if total == 0.0 {
            1.0
        } else {
            self.uptime.as_secs() / total
        }
    }

    /// Full node crashes observed.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Lifetime corrected errors masked from guests.
    #[must_use]
    pub fn masked_corrected_total(&self) -> u64 {
        self.masked_corrected_total
    }
}

impl Hypervisor {
    /// Test/reporting helper: bytes allocated in the relaxed domain.
    #[must_use]
    pub fn memory_used_relaxed(&self) -> Bytes {
        self.memory.used(Placement::Relaxed)
    }

    /// Test/reporting helper: retired page count.
    #[must_use]
    pub fn memory_retired_pages(&self) -> usize {
        self.memory.retired_page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::dram::{DimmConfig, MemorySystem};
    use uniserver_platform::msr::DomainId;
    use uniserver_platform::part::PartSpec;
    use uniserver_silicon::power::DramPowerModel;
    use uniserver_silicon::retention::RetentionModel;

    fn hypervisor() -> Hypervisor {
        Hypervisor::new(ServerNode::new(PartSpec::arm_microserver(), 42))
    }

    #[test]
    fn can_host_predicts_launch_across_both_domains() {
        // A 128 MiB reliable DIMM holds one guest's ~93 MiB overhead,
        // not two, while the 8 GiB relaxed domain still has room — the
        // divergence a relaxed-only capacity check cannot see.
        let mk = |capacity, domain| DimmConfig { capacity, ecc_enabled: true, domain };
        let memory = MemorySystem::new(
            vec![mk(Bytes::mib(128), DomainId(0)), mk(Bytes::gib(8), DomainId(1))],
            RetentionModel::ddr3_server(),
            DramPowerModel::ddr3_8gb(),
        );
        let mut hv = Hypervisor::new(ServerNode::with_memory(PartSpec::arm_microserver(), memory, 42));
        let guest = VmConfig::ldbc_benchmark();
        assert!(hv.can_host(&guest));
        hv.launch_vm(guest.clone()).unwrap();
        assert!(
            hv.memory.available(Placement::Relaxed) >= guest.memory,
            "the relaxed domain must still have room for the second guest"
        );
        assert!(!hv.can_host(&guest), "the reliable domain is exhausted");
        assert!(hv.launch_vm(guest).is_err(), "can_host must mirror launch_vm");
    }

    #[test]
    fn fresh_footprint_charges_the_default_protection() {
        // The Figure 3 red line of an idle hypervisor: baseline, static
        // objects and the shadows of the 7 300 fs/kernel/net objects.
        let hv = hypervisor();
        assert_eq!(hv.own_footprint(), BASE_FOOTPRINT + hv.inventory.total_size() + Bytes::new(58_400));
    }

    #[test]
    fn vm_lifecycle_and_memory_accounting() {
        let mut hv = hypervisor();
        let id = hv.launch_vm(VmConfig::ldbc_benchmark()).expect("fits");
        assert!(hv.vm(id).is_some());
        assert_eq!(hv.memory_used_relaxed(), Bytes::gib(4));
        assert!(hv.stop_vm(id));
        assert_eq!(hv.memory_used_relaxed(), Bytes::ZERO);
        // Idempotent: a second stop must not double-free the accounting.
        assert!(!hv.stop_vm(id));
        assert_eq!(hv.memory_used_relaxed(), Bytes::ZERO);
    }

    #[test]
    fn relaxed_domain_capacity_is_enforced() {
        let mut hv = hypervisor();
        // The commodity server has 16 GiB relaxed; five 4 GiB guests
        // cannot fit.
        let mut launched = 0;
        for _ in 0..5 {
            if hv.launch_vm(VmConfig::ldbc_benchmark()).is_ok() {
                launched += 1;
            }
        }
        assert_eq!(launched, 4);
    }

    #[test]
    fn figure3_hypervisor_share_stays_below_7_percent() {
        let mut hv = hypervisor();
        for _ in 0..4 {
            hv.launch_vm(VmConfig::ldbc_benchmark()).expect("4 VMs fit");
        }
        let mut max_share: f64 = 0.0;
        for _ in 0..240 {
            hv.tick(Seconds::new(2.5));
            let sample = hv.footprint_sample();
            let total = sample.hypervisor + sample.vms + sample.application;
            max_share = max_share.max(sample.hypervisor.as_gib() / total.as_gib());
        }
        assert!(
            max_share < 0.07,
            "hypervisor share peaked at {:.1} % (paper: always <7 %)",
            max_share * 100.0
        );
        assert!(max_share > 0.01, "share {max_share} suspiciously small");
    }

    #[test]
    fn nominal_ticks_are_clean_and_available() {
        let mut hv = hypervisor();
        hv.launch_vm(VmConfig::ldbc_benchmark()).unwrap();
        for _ in 0..50 {
            let out = hv.tick(Seconds::new(1.0));
            assert!(!out.node_crashed);
        }
        assert_eq!(hv.availability(), 1.0);
        assert_eq!(hv.crashes(), 0);
    }

    #[test]
    fn ue_is_contained_at_vm_granularity() {
        // ECC off + aggressively relaxed refresh => UEs in the relaxed
        // domain; the hypervisor must kill/restart VMs, never the node.
        let node = ServerNode::with_memory(
            PartSpec::arm_microserver(),
            uniserver_platform::dram::MemorySystem::commodity_server(false),
            7,
        );
        let mut hv = Hypervisor::new(node);
        hv.node_mut().msr.set_refresh_interval(DomainId(1), Seconds::new(10.0)).unwrap();
        for _ in 0..2 {
            hv.launch_vm(VmConfig::ldbc_benchmark()).unwrap();
        }
        let mut contained = 0;
        let mut restarts = 0;
        for _ in 0..100 {
            let out = hv.tick(Seconds::new(2.0));
            assert!(!out.node_crashed, "UEs must not take the node down");
            contained += out.contained_uncorrected;
            restarts += out.vm_restarts;
        }
        assert!(contained > 0, "expected UE containment events");
        assert!(restarts >= contained);
        assert!(hv.memory_retired_pages() > 0, "pages with UEs must be retired");
        assert_eq!(hv.availability(), 1.0, "containment preserves node availability");
    }

    #[test]
    fn deep_undervolt_crash_is_recovered_with_downtime() {
        let mut hv = hypervisor();
        hv.launch_vm(VmConfig::ldbc_benchmark()).unwrap();
        let deep = hv.node().part().offset_mv(0.20);
        hv.node_mut().msr.set_voltage_offset_all(deep).unwrap();
        let mut crashed = false;
        for _ in 0..50 {
            let out = hv.tick(Seconds::new(1.0));
            if out.node_crashed {
                crashed = true;
                assert!(out.vm_restarts > 0, "VMs restart after a node crash");
                break;
            }
        }
        assert!(crashed, "a 20 % undervolt must crash");
        assert!(hv.availability() < 1.0);
        assert!(hv.vm(VmId(0)).is_some(), "VM is back after recovery");
        // Reboot cleared the offsets: ticks are stable again.
        for _ in 0..20 {
            assert!(!hv.tick(Seconds::new(1.0)).node_crashed);
        }
    }

    #[test]
    fn margins_from_stresslog_hold_in_production() {
        let mut node = ServerNode::new(PartSpec::arm_microserver(), 21);
        let margins = uniserver_stresslog::characterize(&mut node);
        let mut hv = Hypervisor::new(node);
        hv.launch_vm(VmConfig::ldbc_benchmark()).unwrap();
        hv.apply_margins(&margins);
        let before = hv.tick(Seconds::new(1.0)).power;
        for _ in 0..100 {
            let out = hv.tick(Seconds::new(1.0));
            assert!(!out.node_crashed, "crashed under StressLog margins");
        }
        // And the margins actually save power vs nominal.
        let mut nominal = Hypervisor::new(ServerNode::new(PartSpec::arm_microserver(), 21));
        nominal.launch_vm(VmConfig::ldbc_benchmark()).unwrap();
        let nominal_power = nominal.tick(Seconds::new(1.0)).power;
        assert!(
            before.as_watts() < nominal_power.as_watts(),
            "EOP must save power: {before} vs {nominal_power}"
        );
    }

    /// The counters must equal a walk of the VM map and the DIMMs.
    fn assert_counters_match_a_walk(hv: &Hypervisor) {
        assert_eq!(hv.committed_vcpus(), hv.vms().map(|vm| vm.config.vcpus).sum::<usize>());
        let relaxed = hv.node().memory.domain_capacity(DomainId(1));
        assert_eq!(hv.relaxed_capacity(), relaxed);
    }

    #[test]
    fn committed_vcpus_and_relaxed_capacity_track_launch_stop_and_tick() {
        // ECC off and a 10 s relaxed refresh make UEs (VM kills and
        // restarts); a deep undervolt re-applied every 25 steps (reboots
        // clear it) forces node crashes.
        let node = ServerNode::with_memory(
            PartSpec::arm_microserver(),
            uniserver_platform::dram::MemorySystem::commodity_server(false),
            7,
        );
        let mut hv = Hypervisor::new(node);
        hv.node_mut().msr.set_refresh_interval(DomainId(1), Seconds::new(10.0)).unwrap();
        let deep = hv.node().part().offset_mv(0.20);
        let mut live = Vec::new();
        let (mut contained, mut crashes) = (0, 0);
        let mut draw = 17u64;
        assert_counters_match_a_walk(&hv);
        for step in 0..400 {
            draw = uniserver_silicon::rng::splitmix64(draw);
            match draw % 4 {
                0 => {
                    let config = if draw & 16 == 0 {
                        VmConfig::ldbc_benchmark()
                    } else {
                        VmConfig::idle_guest()
                    };
                    if let Ok(id) = hv.launch_vm(config) {
                        live.push(id);
                    }
                }
                1 if !live.is_empty() => {
                    let id = live.swap_remove((draw >> 8) as usize % live.len());
                    assert!(hv.stop_vm(id));
                }
                _ => {
                    if step % 25 == 0 {
                        hv.node_mut().msr.set_voltage_offset_all(deep).unwrap();
                    }
                    let before: Vec<u64> = hv.vms().map(|vm| vm.restarts).collect();
                    let out = hv.tick(Seconds::new(2.0));
                    let restarted: Vec<&Vm> =
                        hv.vms().zip(&before).filter(|&(vm, &r)| vm.restarts > r).map(|(vm, _)| vm).collect();
                    assert!(hv.vms().zip(&before).all(|(vm, &r)| vm.restarts <= r + 1), "one restart per tick");
                    if out.node_crashed {
                        // A crash restarts every VM and advances none.
                        assert_eq!(out.vm_restarts, before.len() as u64);
                        assert_eq!(restarted.len(), before.len());
                        assert!(hv.vms().all(|vm| vm.phase == Seconds::ZERO));
                    } else {
                        // Each UE victim restarts once, then advances
                        // with the rest of the guests.
                        assert_eq!(out.contained_uncorrected, restarted.len() as u64);
                        assert_eq!(out.vm_restarts, restarted.len() as u64);
                        assert!(restarted.iter().all(|vm| vm.phase == Seconds::new(2.0)));
                    }
                    contained += out.contained_uncorrected;
                    crashes += u64::from(out.node_crashed);
                }
            }
            assert_counters_match_a_walk(&hv);
        }
        assert!(contained > 0, "the sequence must contain UE kills");
        assert!(crashes > 0, "the sequence must contain node crashes");
    }

    #[test]
    fn a_ce_storm_counts_each_isolation_once() {
        // 2 % below nominal this die logs cache CEs every interval: the
        // ledger keeps recommending every bank past the threshold on
        // every later ingest, but each resource is isolated only once.
        let mut hv = Hypervisor::new(ServerNode::new(PartSpec::arm_microserver(), 7));
        hv.launch_vm(VmConfig::ldbc_benchmark()).unwrap();
        let offset = hv.node().part().offset_mv(0.02);
        let threshold = uniserver_healthlog::ISOLATE_ORIGIN_ERRORS;
        let (mut isolations, mut hot_ticks) = (0, 0);
        for _ in 0..300 {
            // A crash reboots at nominal: put the undervolt back.
            hv.node_mut().msr.set_voltage_offset_all(offset).unwrap();
            isolations += hv.tick(Seconds::new(1.0)).isolations;
            hot_ticks += u64::from(!hv.health().ledger().hot_origins(threshold).is_empty());
        }
        let node = hv.node();
        let isolated = (0..node.core_count()).filter(|&c| node.is_isolated(c)).count()
            + node.cache().iter().filter(|b| b.isolated).count();
        assert!(isolated > 0, "the storm must isolate a resource");
        assert!(hot_ticks > 100, "isolation advice must repeat: {hot_ticks} hot ticks");
        assert_eq!(isolations, isolated as u64);
    }

    #[test]
    fn stopping_unknown_vm_is_a_noop() {
        let mut hv = hypervisor();
        assert!(!hv.stop_vm(VmId(99)));
        assert_eq!(hv.memory_used_relaxed(), Bytes::ZERO);
    }

    #[test]
    fn stopped_vms_are_dropped_from_the_map() {
        // High-churn cluster workloads stop thousands of VMs per node;
        // per-tick cost must track live guests, not lifetime launches.
        let mut hv = hypervisor();
        for _ in 0..64 {
            let id = hv.launch_vm(VmConfig::idle_guest()).expect("fits");
            assert!(hv.stop_vm(id));
        }
        assert_eq!(hv.vms().count(), 0);
        assert_eq!(hv.memory_used_relaxed(), Bytes::ZERO);
    }
}
