//! Live migration: the proactive response to predicted failures.
//!
//! Pre-copy live migration: iteratively copy dirty pages over the
//! management network until the residual set fits a stop-and-copy
//! window. The model predicts total traffic and downtime, and the
//! cluster uses it to cost proactive migrations ("proactively migrate
//! the running workloads on the healthy nodes", §5.B).

use uniserver_units::{Bytes, Seconds};

use uniserver_hypervisor::vm::Vm;

/// Migration network/behaviour parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationModel {
    /// Management network bandwidth.
    pub bandwidth_bytes_per_sec: f64,
    /// Guest page-dirtying rate as a fraction of its working set per
    /// second.
    pub dirty_fraction_per_sec: f64,
    /// Stop-and-copy threshold: residual bytes that may be copied with
    /// the VM paused.
    pub stop_copy_threshold: Bytes,
    /// Maximum pre-copy rounds before forcing stop-and-copy.
    pub max_rounds: u32,
}

impl MigrationModel {
    /// 10 GbE management network, modestly dirty guests — the model the
    /// cluster costs every move with.
    #[must_use]
    pub const fn ten_gbe() -> Self {
        MigrationModel {
            bandwidth_bytes_per_sec: 1.1e9,
            dirty_fraction_per_sec: 0.02,
            stop_copy_threshold: Bytes::mib(64),
            max_rounds: 8,
        }
    }
}

/// Predicted cost of one migration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationCost {
    /// Total bytes moved (all pre-copy rounds + stop-and-copy).
    pub traffic: Bytes,
    /// Total wall-clock duration.
    pub duration: Seconds,
    /// VM pause (blackout) time during stop-and-copy.
    pub downtime: Seconds,
    /// Pre-copy rounds used.
    pub rounds: u32,
}

impl MigrationCost {
    /// When a migration started at `now` finishes — the completion event
    /// an event-queue driver schedules.
    #[must_use]
    pub fn completes_at(&self, now: Seconds) -> Seconds {
        now + self.duration
    }
}

impl MigrationModel {
    /// Predicts the cost of migrating `vm` given its current footprint.
    #[must_use]
    pub fn cost(&self, vm: &Vm) -> MigrationCost {
        let working_set = vm.utilized_footprint().as_u64() as f64;
        let mut to_copy = working_set;
        let mut traffic = 0.0;
        let mut duration = 0.0;
        let mut rounds = 0;

        // Pre-copy rounds: copying to_copy bytes takes t; meanwhile the
        // guest dirties ws·rate·t bytes, which seeds the next round.
        while rounds < self.max_rounds && to_copy > self.stop_copy_threshold.as_u64() as f64 {
            let t = to_copy / self.bandwidth_bytes_per_sec;
            traffic += to_copy;
            duration += t;
            to_copy = (working_set * self.dirty_fraction_per_sec * t).min(working_set);
            rounds += 1;
        }
        // Stop-and-copy the residue.
        let downtime = to_copy / self.bandwidth_bytes_per_sec;
        traffic += to_copy;
        duration += downtime;

        MigrationCost {
            traffic: Bytes::new(traffic as u64),
            duration: Seconds::new(duration),
            downtime: Seconds::new(downtime),
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_hypervisor::vm::{VmConfig, VmId};

    fn ldbc_vm() -> Vm {
        let mut vm = Vm::launch(VmId(0), VmConfig::ldbc_benchmark());
        vm.advance(Seconds::new(60.0));
        vm
    }

    #[test]
    fn migration_converges_quickly_on_fast_networks() {
        let cost = MigrationModel::ten_gbe().cost(&ldbc_vm());
        assert!(cost.rounds <= 3, "rounds {}", cost.rounds);
        // Blackout well below a second.
        assert!(cost.downtime.as_secs() < 0.2, "downtime {}", cost.downtime);
        // Total duration a few seconds for ~4 GiB of state.
        assert!(cost.duration.as_secs() < 10.0, "duration {}", cost.duration);
        assert!(cost.traffic >= ldbc_vm().utilized_footprint());
    }

    #[test]
    fn dirty_guests_cost_more() {
        let calm = MigrationModel { dirty_fraction_per_sec: 0.01, ..MigrationModel::ten_gbe() };
        let dirty = MigrationModel { dirty_fraction_per_sec: 0.3, ..MigrationModel::ten_gbe() };
        let vm = ldbc_vm();
        let a = calm.cost(&vm);
        let b = dirty.cost(&vm);
        assert!(b.traffic > a.traffic);
        assert!(b.downtime >= a.downtime);
    }

    #[test]
    fn slow_network_forces_stop_copy_cap() {
        let slow = MigrationModel {
            bandwidth_bytes_per_sec: 5e7, // ~400 Mb/s
            dirty_fraction_per_sec: 0.5,
            ..MigrationModel::ten_gbe()
        };
        let cost = slow.cost(&ldbc_vm());
        assert_eq!(cost.rounds, slow.max_rounds, "divergent pre-copy must hit the round cap");
        assert!(cost.downtime.as_secs() > 1.0, "and pay real blackout: {}", cost.downtime);
    }
}
