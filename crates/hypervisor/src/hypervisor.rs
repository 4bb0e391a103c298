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
use crate::vm::{Vm, VmConfig, VmId, VmState};

/// Static hypervisor configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HypervisorConfig {
    /// Host kernel + KVM baseline footprint.
    pub base_footprint: Bytes,
    /// Fixed per-VM overhead (QEMU process, vhost rings).
    pub per_vm_fixed: Bytes,
    /// Per-VM overhead proportional to guest memory (shadow page
    /// tables, memslots).
    pub per_vm_fraction: f64,
    /// Downtime charged per full node crash (reboot + VM restart).
    pub reboot_penalty: Seconds,
    /// Categories of hypervisor objects to protect with shadows.
    pub protection: ProtectionPolicy,
}

impl Default for HypervisorConfig {
    fn default() -> Self {
        HypervisorConfig {
            base_footprint: Bytes::mib(160),
            per_vm_fixed: Bytes::mib(32),
            per_vm_fraction: 0.015,
            reboot_penalty: Seconds::new(120.0),
            protection: ProtectionPolicy::top_categories(3),
        }
    }
}

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
    config: HypervisorConfig,
    vms: BTreeMap<VmId, Vm>,
    /// vCPUs of the running VMs in `vms`, kept exact by every state
    /// change so placement checks never walk the map.
    committed: usize,
    /// Bumped wherever `committed` changes (launch, stop of a running
    /// VM, UE kill, restart): the running set can only move there.
    running_generation: u64,
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
    /// Cached merge of the running guests' profiles, keyed by the
    /// running generation it was computed at: the serving tick
    /// recomputes it (and rewrites the id list) only when the generation
    /// moved. After that check the list is the tick's start-of-tick
    /// running set, which also names UE victims.
    merged_cache: Option<(u64, WorkloadProfile)>,
    merged_cache_vms: Vec<VmId>,
}

impl Hypervisor {
    /// Boots a hypervisor on a node with the default configuration.
    #[must_use]
    pub fn new(node: ServerNode) -> Self {
        Hypervisor::with_config(node, HypervisorConfig::default())
    }

    /// Boots with an explicit configuration.
    #[must_use]
    pub fn with_config(node: ServerNode, config: HypervisorConfig) -> Self {
        let reliable = node.memory.domain_capacity(uniserver_platform::msr::DomainId(0));
        let relaxed = node.memory.domain_capacity(uniserver_platform::msr::DomainId(1));
        let memory = MemoryMap::new(reliable, relaxed);
        let inventory = ObjectInventory::standard_shared();
        let health = HealthLog::new();
        Hypervisor {
            node,
            config,
            vms: BTreeMap::new(),
            committed: 0,
            running_generation: 0,
            next_vm: 0,
            memory,
            inventory,
            health,
            uptime: Seconds::ZERO,
            downtime: Seconds::ZERO,
            crashes: 0,
            masked_corrected_total: 0,
            merged_cache: None,
            merged_cache_vms: Vec::new(),
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
        let overhead = self.per_vm_overhead(&config);
        if let Err(e) = self.memory.allocate(Placement::Reliable, overhead) {
            self.memory.free(Placement::Relaxed, config.memory);
            return Err(e);
        }
        let id = VmId(self.next_vm);
        self.next_vm += 1;
        self.committed += config.vcpus;
        self.running_generation += 1;
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
            && self.memory.available(Placement::Reliable) >= self.per_vm_overhead(config)
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
        if vm.is_running() {
            self.committed -= vm.config.vcpus;
            self.running_generation += 1;
        }
        let overhead = self.per_vm_overhead(&vm.config);
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

    /// vCPUs committed across running VMs (a counter, not a walk).
    #[must_use]
    pub fn committed_vcpus(&self) -> usize {
        self.committed
    }

    /// Capacity of the relaxed (guest) domain, fixed at boot.
    #[must_use]
    pub fn relaxed_capacity(&self) -> Bytes {
        self.memory.relaxed_capacity
    }

    fn per_vm_overhead(&self, config: &VmConfig) -> Bytes {
        self.config.per_vm_fixed
            + Bytes::new((config.memory.as_u64() as f64 * self.config.per_vm_fraction) as u64)
    }

    /// The hypervisor's own footprint: baseline + per-VM overheads +
    /// static objects + protection shadows. This is the red line of
    /// Figure 3 and it lives entirely in the reliable domain.
    #[must_use]
    pub(crate) fn own_footprint(&self) -> Bytes {
        // Stopped VMs are dropped from the map, so every record counts.
        let vm_overheads: Bytes =
            self.vms.values().map(|vm| self.per_vm_overhead(&vm.config)).sum();
        self.config.base_footprint
            + vm_overheads
            + self.inventory.total_size()
            + self.config.protection.overhead()
    }

    /// A Figure 3 footprint sample at the current instant.
    #[must_use]
    pub fn footprint_sample(&self) -> FootprintSample {
        let vms: Bytes = self
            .vms
            .values()
            .filter(|vm| vm.is_running())
            .map(|vm| vm.os_baseline() + vm.config.resident_set)
            .sum();
        let application: Bytes =
            self.vms.values().filter(|vm| vm.is_running()).map(Vm::application_heap).sum();
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
        if self.merged_cache.as_ref().map(|&(generation, _)| generation) != Some(self.running_generation) {
            self.merged_cache_vms.clear();
            self.merged_cache_vms.extend(self.vms.values().filter(|vm| vm.is_running()).map(|vm| vm.id));
            self.merged_cache = Some((self.running_generation, self.merged_workload()));
        }
        debug_assert!(
            self.vms.values().filter(|vm| vm.is_running()).map(|vm| vm.id).eq(self.merged_cache_vms.iter().copied()),
            "stale cached running set"
        );
        let (_, workload) = self.merged_cache.as_ref().expect("cache populated above");
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

        // --- Error masking and containment (`merged_cache_vms` holds the
        // start-of-tick running set: run_interval cannot change VM
        // states, and kills below do not rewrite the list).
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
                        let running = &self.merged_cache_vms;
                        if !running.is_empty() {
                            let victim = running[(word % running.len() as u64) as usize];
                            if let Some(vm) = self.vms.get_mut(&victim) {
                                if vm.is_running() {
                                    vm.kill();
                                    self.committed -= vm.config.vcpus;
                                    self.running_generation += 1;
                                    outcome.contained_uncorrected += 1;
                                }
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
            self.downtime = self.downtime + self.config.reboot_penalty;
            for vm in self.vms.values_mut() {
                if !vm.is_running() {
                    self.committed += vm.config.vcpus;
                    self.running_generation += 1;
                }
                vm.kill();
                vm.restart();
                outcome.vm_restarts += 1;
            }
        } else {
            self.uptime = self.uptime + duration;
            // Restart any VM killed by UE containment this tick.
            for vm in self.vms.values_mut() {
                if vm.state == VmState::Failed {
                    vm.restart();
                    self.committed += vm.config.vcpus;
                    self.running_generation += 1;
                    outcome.vm_restarts += 1;
                }
            }
            for vm in self.vms.values_mut() {
                vm.advance(duration);
            }
        }

        outcome
    }

    /// Merges the running guests' workload profiles into the node-level
    /// excitation (plus idle background when no guest runs).
    fn merged_workload(&self) -> WorkloadProfile {
        let running: Vec<&Vm> = self.vms.values().filter(|vm| vm.is_running()).collect();
        if running.is_empty() {
            return WorkloadProfile::idle();
        }
        let n = running.len() as f64;
        let avg = |f: fn(&WorkloadProfile) -> f64| {
            running.iter().map(|vm| f(&vm.config.workload)).sum::<f64>() / n
        };
        WorkloadProfile::new(
            "merged-guests",
            avg(|w| w.activity).clamp(0.0, 1.0),
            avg(|w| w.didt).clamp(0.0, 1.0),
            avg(|w| w.resonance).clamp(0.0, 1.0),
            avg(|w| w.ipc).max(0.1),
            avg(|w| w.cache_mpki),
            avg(|w| w.mem_bw_util).clamp(0.0, 1.0),
            running.iter().map(|vm| vm.config.workload.footprint_mib).sum(),
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
    use uniserver_platform::msr::DomainId;
    use uniserver_platform::part::PartSpec;

    fn hypervisor() -> Hypervisor {
        Hypervisor::new(ServerNode::new(PartSpec::arm_microserver(), 42))
    }

    #[test]
    fn can_host_predicts_launch_across_both_domains() {
        // Inflate the fixed per-VM overhead so the *reliable* domain
        // (16 GiB) exhausts after one guest while the relaxed domain
        // still has room — the divergence a relaxed-only capacity check
        // cannot see.
        let config =
            HypervisorConfig { per_vm_fixed: Bytes::gib(9), ..HypervisorConfig::default() };
        let mut hv =
            Hypervisor::with_config(ServerNode::new(PartSpec::arm_microserver(), 42), config);
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
        let config = HypervisorConfig::default();
        assert_eq!(
            hv.own_footprint(),
            config.base_footprint + hv.inventory.total_size() + Bytes::new(58_400)
        );
    }

    #[test]
    fn vm_lifecycle_and_memory_accounting() {
        let mut hv = hypervisor();
        let id = hv.launch_vm(VmConfig::ldbc_benchmark()).expect("fits");
        assert!(hv.vm(id).unwrap().is_running());
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
        assert!(hv.vm(VmId(0)).unwrap().is_running(), "VM is back after recovery");
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
        let running: usize = hv
            .vms()
            .filter(|vm| vm.is_running())
            .map(|vm| vm.config.vcpus)
            .sum();
        assert_eq!(hv.committed_vcpus(), running);
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
                    let out = hv.tick(Seconds::new(2.0));
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
