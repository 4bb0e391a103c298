//! Virtual machines and their memory-footprint dynamics.
//!
//! Figure 3 plots the memory footprint of the hypervisor, the VMs and
//! the application over repeated executions of the LDBC Social Network
//! Benchmark (on Sparksee) inside four VMs. The footprint model here
//! reproduces those dynamics: a guest OS baseline plus an application
//! heap that grows through each benchmark execution and resets when the
//! run restarts.

use uniserver_units::{Bytes, Seconds};

use uniserver_platform::workload::WorkloadProfile;

/// Identifier of a VM within one hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u32);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Static configuration of a VM.
#[derive(Debug, Clone, PartialEq)]
pub struct VmConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: usize,
    /// Configured guest memory.
    pub memory: Bytes,
    /// Guest workload profile.
    pub workload: WorkloadProfile,
    /// Long-lived application resident set (e.g. the loaded graph
    /// database), which survives across benchmark executions.
    pub resident_set: Bytes,
    /// Application heap ceiling within the guest (per-execution working
    /// set on top of the resident set).
    pub heap_ceiling: Bytes,
    /// Wall-clock length of one benchmark execution before the
    /// application restarts (heap resets).
    pub execution_period: Seconds,
}

impl VmConfig {
    /// The Figure 3 guest: LDBC SNB on a graph database. Stresses CPU,
    /// disk I/O and network; heap grows to a couple of GiB per
    /// execution.
    #[must_use]
    pub fn ldbc_benchmark() -> Self {
        VmConfig {
            name: "ldbc-snb-sparksee".into(),
            vcpus: 2,
            memory: Bytes::gib(4),
            workload: WorkloadProfile::ldbc_graph_vm(),
            resident_set: Bytes::new(3 * Bytes::gib(1).as_u64() / 2),
            heap_ceiling: Bytes::gib(2),
            execution_period: Seconds::new(120.0),
        }
    }

    /// A small idle guest (control group in tests).
    #[must_use]
    pub fn idle_guest() -> Self {
        VmConfig {
            name: "idle-guest".into(),
            vcpus: 1,
            memory: Bytes::gib(1),
            workload: WorkloadProfile::idle(),
            resident_set: Bytes::mib(32),
            heap_ceiling: Bytes::mib(64),
            execution_period: Seconds::new(3600.0),
        }
    }
}

/// A live VM. A hypervisor holds only running VMs: a UE kill and its
/// restart happen inside one tick, and a stopped VM is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Vm {
    /// Identifier within the hypervisor.
    pub id: VmId,
    /// Static configuration.
    pub config: VmConfig,
    /// Time spent inside the current benchmark execution.
    pub phase: Seconds,
    /// Completed benchmark executions.
    pub executions_completed: u64,
    /// Times this VM was killed and restarted after errors.
    pub restarts: u64,
}

impl Vm {
    /// Creates a freshly launched VM.
    #[must_use]
    pub fn launch(id: VmId, config: VmConfig) -> Self {
        Vm { id, config, phase: Seconds::ZERO, executions_completed: 0, restarts: 0 }
    }

    /// Always `true`: every VM a hypervisor holds is running. Kept for
    /// the benchmark replay's running-guest filter until that filter
    /// goes.
    #[must_use]
    pub fn is_running(&self) -> bool {
        true
    }

    /// Advances the VM's internal phase clock.
    pub fn advance(&mut self, dur: Seconds) {
        self.phase = self.phase + dur;
        while self.phase >= self.config.execution_period {
            self.phase = self.phase - self.config.execution_period;
            self.executions_completed += 1;
        }
    }

    /// Guest-OS baseline footprint (kernel, daemons, page cache floor).
    #[must_use]
    pub(crate) fn os_baseline(&self) -> Bytes {
        // ~12 % of configured memory, floor of 192 MiB.
        Bytes::new(((self.config.memory.as_u64() as f64 * 0.12) as u64).max(Bytes::mib(192).as_u64()))
    }

    /// Application heap at the current execution phase: fast growth
    /// early in the run that saturates towards the ceiling (graph load,
    /// then query working set).
    #[must_use]
    pub(crate) fn application_heap(&self) -> Bytes {
        let t = self.phase.as_secs() / self.config.execution_period.as_secs();
        // Saturating growth: 1 - e^(-4t) reaches ~98 % by the period end.
        let fill = 1.0 - (-4.0 * t).exp();
        Bytes::new((self.config.heap_ceiling.as_u64() as f64 * fill) as u64)
    }

    /// Total utilized guest footprint (baseline + resident set + heap).
    #[must_use]
    pub fn utilized_footprint(&self) -> Bytes {
        self.os_baseline() + self.config.resident_set + self.application_heap()
    }

    /// Restarts the VM after a UE kill or a node crash: the restart is
    /// counted and the heap resets.
    pub(crate) fn restart(&mut self) {
        self.restarts += 1;
        self.phase = Seconds::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_grows_within_an_execution_and_resets() {
        let mut vm = Vm::launch(VmId(0), VmConfig::ldbc_benchmark());
        let early = vm.application_heap();
        vm.advance(Seconds::new(30.0));
        let mid = vm.application_heap();
        vm.advance(Seconds::new(60.0));
        let late = vm.application_heap();
        assert!(early < mid && mid < late, "{early} < {mid} < {late}");
        // Crossing the execution boundary resets the heap.
        vm.advance(Seconds::new(40.0));
        assert_eq!(vm.executions_completed, 1);
        assert!(vm.application_heap() < mid);
    }

    #[test]
    fn heap_saturates_below_ceiling() {
        let mut vm = Vm::launch(VmId(0), VmConfig::ldbc_benchmark());
        vm.advance(Seconds::new(119.0));
        assert!(vm.application_heap() <= vm.config.heap_ceiling);
        assert!(vm.application_heap().as_u64() > vm.config.heap_ceiling.as_u64() * 9 / 10);
    }

    #[test]
    fn footprint_is_baseline_plus_heap() {
        let mut vm = Vm::launch(VmId(1), VmConfig::ldbc_benchmark());
        vm.advance(Seconds::new(60.0));
        assert_eq!(
            vm.utilized_footprint(),
            vm.os_baseline() + vm.config.resident_set + vm.application_heap()
        );
        assert!(vm.os_baseline() >= Bytes::mib(192));
    }

    #[test]
    fn restart_counts_and_resets_the_execution() {
        let mut vm = Vm::launch(VmId(2), VmConfig::ldbc_benchmark());
        vm.advance(Seconds::new(130.0));
        assert_eq!(vm.executions_completed, 1);
        vm.restart();
        assert_eq!(vm.restarts, 1);
        assert_eq!(vm.phase, Seconds::ZERO);
        assert_eq!(vm.executions_completed, 1, "a restart keeps the completed executions");
        assert_eq!(vm.utilized_footprint(), vm.os_baseline() + vm.config.resident_set);
    }
}
