//! Reduce-side bookkeeping of the serving loop.
//!
//! The per-node phase of a tick is sharded across workers (see
//! [`uniserver_cloudmgr::cluster::Cluster::tick`]); everything
//! in this module runs **after** the parallel phase, sequentially, on
//! the orchestrator's thread — event drains, SLA charging and
//! failure-driven recovery are placement-mutating and stay serial so a
//! run is a pure function of its configuration. The orchestrator's
//! serve loop is the only code that drives a VM stream into a
//! [`Cluster`], and every offer — first-time or re-offer from the
//! retry queue — goes through one submit step here.
//!
//! Accounting rules that live here and are locked by tests:
//!
//! * **count once** — admission and SLA outcomes are counted per class
//!   only ([`crate::summary::ClassStats`]); the summary's totals are
//!   their sums, and the run checks `offered = placed + abandoned` per
//!   class and in total. The chaos, power and gray counts are kept in
//!   the summary's own outcome structs, which the summary copies and
//!   completes with the fields it derives;
//! * **crash events vs. crashed nodes** — `crashes` / `part_crashes`
//!   count *events* (one per platform-surfaced [`CrashEvent`]), but a
//!   node surfacing several events in one tick recovers — and backs off
//!   its operating point — exactly **once**; compounding the 25 % EOP
//!   backoff per event would overdrive healthy margins back to nominal.
//! * **end-of-horizon drain** — the in-loop drain fires events due at
//!   each tick *start*, so departures and settlements due in the final
//!   `(last tick start, horizon]` window are drained once more after
//!   the loop; without it `completed` / `migrations_settled`
//!   undercount and the `placed = completed + evicted + live_at_end`
//!   tie-out only balances through `live_at_end`.

use std::collections::VecDeque;

use uniserver_cloudmgr::cluster::{Cluster, Placement};
use uniserver_cloudmgr::lifecycle::draw_mttr;
use uniserver_cloudmgr::node::NodeId;
use uniserver_cloudmgr::sla::SlaClass;
use uniserver_cloudmgr::stream::Arrival;
use uniserver_core::eop::OperatingPoint;
use uniserver_platform::node::CrashEvent;
use uniserver_telemetry::{Telemetry, TraceEvent};
use uniserver_units::Seconds;

use crate::config::{AdmissionPolicy, MarginPolicy, OrchestratorConfig, RETRY_QUEUE_DEPTH};
use crate::events::{Event, EventQueue};
use crate::summary::{ChaosOutcome, ClassStats, GrayOutcome, PowerOutcome};

/// Index of a class in the gold/silver/bronze accounting arrays.
pub(crate) fn class_idx(class: SlaClass) -> usize {
    match class {
        SlaClass::Gold => 0,
        SlaClass::Silver => 1,
        SlaClass::Bronze => 2,
    }
}

/// Class labels in accounting-array order, for telemetry payloads.
pub(crate) const CLASS_NAMES: [&str; 3] = ["gold", "silver", "bronze"];

/// How far a crashed node's operating point is scaled back towards
/// nominal (0.0 = reapply unchanged, 1.0 = fall back to nominal for
/// good).
const CRASH_BACKOFF: f64 = 0.25;

/// Per-class time-to-abandon histogram names (telemetry keys are
/// `&'static str`, so the class rides in the name).
const ABANDON_WAIT: [&str; 3] =
    ["abandon_wait_ticks_gold", "abandon_wait_ticks_silver", "abandon_wait_ticks_bronze"];

/// One rejected arrival waiting in the re-admission queue.
#[derive(Debug)]
pub(crate) struct PendingArrival {
    pub arrival: Arrival,
    /// Re-offer attempts remaining before it is abandoned.
    pub retries_left: u32,
    /// Tick the original offer was rejected on — queue-wait and
    /// time-to-abandon telemetry measure from here.
    pub offered_tick: u64,
}

/// The bounded per-class re-admission queue behind an
/// [`AdmissionPolicy`]. Rejections whose class has a non-zero retry
/// budget wait here and are re-offered at the start of each subsequent
/// tick, gold first; [`AdmissionPolicy::DropAll`] keeps every queue
/// permanently empty.
#[derive(Debug)]
pub(crate) struct RetryQueue {
    policy: AdmissionPolicy,
    pending: [VecDeque<PendingArrival>; 3],
}

impl RetryQueue {
    pub(crate) fn new(policy: AdmissionPolicy) -> Self {
        RetryQueue { policy, pending: [VecDeque::new(), VecDeque::new(), VecDeque::new()] }
    }

    /// Rejections currently waiting, across all classes.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.iter().map(VecDeque::len).sum()
    }
}

/// The serving loop's running totals — everything the summary reports
/// that is not an end-of-run fleet metric. Admission and SLA counts are
/// kept per class only; [`ServeCounters::total`] sums them. The chaos,
/// power and gray outcomes are counted in place; the summary fills in
/// only their derived fields.
#[derive(Debug, Default)]
pub(crate) struct ServeCounters {
    pub completed: u64,
    pub evicted: u64,
    /// Platform-surfaced crash *events* (a node can surface several in
    /// one tick; recovery still runs once per node).
    pub crashes: u64,
    pub settled: u64,
    pub per_class: [ClassStats; 3],
    /// Crash events attributed per part-mix entry.
    pub part_crashes: Vec<u64>,
    pub energy_j: f64,
    pub chaos: ChaosOutcome,
    pub power: PowerOutcome,
    pub gray: GrayOutcome,
}

/// What one offer to the scheduler came to.
enum Offer {
    Placed,
    /// No feasible node. Carries the arrival back when the caller asked
    /// to keep it for a re-offer.
    Rejected(Option<Arrival>),
}

impl ServeCounters {
    /// Zeroed counters for a rack drawn from `parts` part-mix entries.
    pub(crate) fn new(parts: usize) -> Self {
        ServeCounters { part_crashes: vec![0; parts], ..ServeCounters::default() }
    }

    /// One per-class count summed over the classes.
    pub(crate) fn total(&self, field: fn(&ClassStats) -> u64) -> u64 {
        self.per_class.iter().map(field).sum()
    }

    /// Fires every event due at or before `until`, earliest first:
    /// departures terminate their placement (completions), settlements
    /// close their migration's books. Returns the completions fired by
    /// this drain (the per-tick series' `completed` column). Called
    /// once per tick with the tick-start time and once after the loop
    /// with the horizon, so events due in the final partial window
    /// still fire.
    pub(crate) fn drain_due(
        &mut self,
        queue: &mut EventQueue,
        cluster: &mut Cluster,
        until: Seconds,
    ) -> u64 {
        let mut completed_now = 0;
        while let Some((_, event)) = queue.pop_due(until) {
            match event {
                Event::Departure(id) => {
                    // False = the placement was evicted earlier; the
                    // eviction already accounted for it.
                    if cluster.terminate_by_id(id) {
                        self.completed += 1;
                        completed_now += 1;
                    }
                }
                Event::MigrationSettled(_) => self.settled += 1,
            }
        }
        completed_now
    }

    /// Offers one first-time arrival to the scheduler. A placement
    /// schedules its departure and returns `true`; a rejection is
    /// counted and then either queued for re-admission (class budget
    /// and queue depth permitting) or abandoned on the spot — the
    /// legacy drop-on-rejection path is exactly the zero-budget case.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn admit(
        &mut self,
        retry: &mut RetryQueue,
        cluster: &mut Cluster,
        queue: &mut EventQueue,
        arrival: Arrival,
        now: Seconds,
        tick: u64,
        tel: &mut Telemetry,
    ) -> bool {
        let class = class_idx(arrival.class);
        self.per_class[class].offered += 1;
        tel.inc("arrivals");
        tel.emit(&TraceEvent::Arrival { class: CLASS_NAMES[class] });
        let budget = retry.policy.retry_budget(class);
        match self.offer(cluster, queue, arrival, budget > 0, now, 0, None, tel) {
            Offer::Placed => return true,
            Offer::Rejected(Some(arrival)) if retry.pending[class].len() < RETRY_QUEUE_DEPTH => {
                retry.pending[class].push_back(PendingArrival {
                    arrival,
                    retries_left: budget,
                    offered_tick: tick,
                });
            }
            // Budget zero or queue full: dropped for good.
            Offer::Rejected(_) => self.abandon(class, 0, tel),
        }
        false
    }

    /// Re-offers queued rejections at the start of a tick, gold first,
    /// into whatever capacity departures and crash recovery just freed.
    /// Only the entries queued before this call are drained; a re-offer
    /// that fails again burns one unit of budget and requeues behind
    /// them for the next tick (or abandons at zero). Returns the
    /// placements made, for the per-tick series.
    ///
    /// Graceful degradation: a premium re-offer that fails *while nodes
    /// are offline* sheds one lower-class placement — bronze first — so
    /// the next tick's re-offer lands in the freed slot; a shed counts
    /// as an eviction, so the SLA books still tie out. Only the failure
    /// lifecycle (a run with a fault plan) takes nodes offline, so
    /// without it nothing is shed.
    pub(crate) fn reoffer_pending(
        &mut self,
        retry: &mut RetryQueue,
        cluster: &mut Cluster,
        queue: &mut EventQueue,
        now: Seconds,
        tick: u64,
        tel: &mut Telemetry,
    ) -> u64 {
        let mut placed_now = 0;
        for (class, label) in CLASS_NAMES.into_iter().enumerate() {
            let budget = retry.policy.retry_budget(class);
            let waiting = retry.pending[class].len();
            for _ in 0..waiting {
                let Some(p) = retry.pending[class].pop_front() else { break };
                self.per_class[class].retried += 1;
                tel.inc("reoffered");
                tel.emit(&TraceEvent::Reoffer {
                    class: label,
                    retries_left: u64::from(p.retries_left - 1),
                });
                let wait = tick - p.offered_tick;
                let depth = u64::from(budget - p.retries_left + 1);
                let keep = p.retries_left > 1;
                match self.offer(cluster, queue, p.arrival, keep, now, wait, Some(depth), tel) {
                    Offer::Placed => placed_now += 1,
                    Offer::Rejected(Some(arrival)) => {
                        retry.pending[class].push_back(PendingArrival {
                            arrival,
                            retries_left: p.retries_left - 1,
                            offered_tick: p.offered_tick,
                        });
                        // Degraded capacity plus a premium arrival
                        // still waiting: make room.
                        if class < 2 && cluster.offline_count() > 0 {
                            self.shed_lowest(cluster, class, tel);
                        }
                    }
                    Offer::Rejected(None) => self.abandon(class, wait, tel),
                }
            }
        }
        placed_now
    }

    /// The submit step every offer shares, first or re-offer: a
    /// placement schedules its departure and records its queue wait
    /// (`wait` ticks, 0 first-try), lifetime and — for re-offers — its
    /// `retry_depth`; a rejection is counted, and with `keep` set hands
    /// the arrival back for the caller to requeue. Only a kept offer
    /// pays for the config clone a re-offer needs.
    #[allow(clippy::too_many_arguments)]
    fn offer(
        &mut self,
        cluster: &mut Cluster,
        queue: &mut EventQueue,
        arrival: Arrival,
        keep: bool,
        now: Seconds,
        wait: u64,
        retry_depth: Option<u64>,
        tel: &mut Telemetry,
    ) -> Offer {
        let Arrival { config, class: sla, lifetime } = arrival;
        let class = class_idx(sla);
        let label = CLASS_NAMES[class];
        let backup = keep.then(|| config.clone());
        match cluster.submit(config, sla) {
            Some(placement) => {
                self.per_class[class].placed += 1;
                queue.schedule(now + lifetime, Event::Departure(placement.id));
                tel.inc("placed");
                tel.record("queue_wait_ticks", wait);
                tel.record("vm_lifetime_ticks", tel.lifetime_ticks(lifetime.as_secs()));
                if let Some(depth) = retry_depth {
                    tel.record("retry_depth", depth);
                }
                tel.emit(&TraceEvent::Place {
                    class: label,
                    node: u64::from(placement.node.0),
                    placement: placement.id.0,
                    wait_ticks: wait,
                });
                Offer::Placed
            }
            None => {
                self.per_class[class].rejected += 1;
                tel.inc("rejected");
                tel.emit(&TraceEvent::Reject { class: label });
                Offer::Rejected(backup.map(|config| Arrival { config, class: sla, lifetime }))
            }
        }
    }

    /// Sheds one placement of the lowest class below `above_class` —
    /// bronze before silver, and within a class the youngest placement
    /// (highest [`Placement`] id) — stopping its VM early. The shed is
    /// charged as an eviction (it *is* an SLA violation) and its later
    /// departure event no-ops. Returns whether a victim existed.
    fn shed_lowest(&mut self, cluster: &mut Cluster, above_class: usize, tel: &mut Telemetry) -> bool {
        for class in ((above_class + 1)..3).rev() {
            let victim = cluster
                .placements()
                .iter()
                .filter(|p| class_idx(p.class) == class)
                .max_by_key(|p| p.id)
                .cloned();
            if let Some(victim) = victim {
                let terminated = cluster.terminate_by_id(victim.id);
                debug_assert!(terminated, "a tracked placement terminates exactly once");
                self.per_class[class].shed += 1;
                tel.inc("shed");
                tel.emit(&TraceEvent::Shed {
                    class: CLASS_NAMES[class],
                    node: u64::from(victim.node.0),
                    placement: victim.id.0,
                });
                self.charge_eviction(&victim, tel);
                return true;
            }
        }
        false
    }

    /// Sheds up to `count` placements bronze-first to pull the fleet
    /// back under a brownout power cap. Each shed goes through the same
    /// books as a capacity shed — charged as an eviction (the cap *is*
    /// an SLA event) — plus the power-cap counter. Returns how many
    /// victims actually existed.
    pub(crate) fn shed_for_powercap(
        &mut self,
        cluster: &mut Cluster,
        count: usize,
        tel: &mut Telemetry,
    ) -> u64 {
        let mut done = 0u64;
        for _ in 0..count {
            // above_class 0: bronze then silver are fair game, gold is
            // never shed for power.
            if !self.shed_lowest(cluster, 0, tel) {
                break;
            }
            self.gray.powercap_sheds += 1;
            done += 1;
        }
        done
    }

    /// Abandons everything still queued — called once when the horizon
    /// ends, so `offered = placed + abandoned` ties out. These drops are
    /// counted separately from budget-exhausted abandons: the horizon
    /// expired them while they were still waiting for a verdict.
    pub(crate) fn flush_pending(
        &mut self,
        retry: &mut RetryQueue,
        final_tick: u64,
        tel: &mut Telemetry,
    ) {
        for class in 0..3 {
            while let Some(p) = retry.pending[class].pop_front() {
                self.abandon(class, final_tick.saturating_sub(p.offered_tick), tel);
                self.per_class[class].expired_at_horizon += 1;
                tel.inc("expired_at_horizon");
            }
        }
    }

    fn abandon(&mut self, class: usize, wait_ticks: u64, tel: &mut Telemetry) {
        self.per_class[class].abandoned += 1;
        tel.inc("abandoned");
        tel.record(ABANDON_WAIT[class], wait_ticks);
    }

    /// Charges one lost placement: an eviction is an SLA violation
    /// whatever the class promised.
    pub(crate) fn charge_eviction(&mut self, lost: &Placement, tel: &mut Telemetry) {
        self.evicted += 1;
        self.per_class[class_idx(lost.class)].violations += 1;
        tel.inc("evictions");
    }

    /// Failure-driven recovery for one tick's surfaced crash events.
    ///
    /// `crashes` / `part_crashes` count per *event*; recovery — and the
    /// EOP backoff or the offline transition — runs once per crashed
    /// *node* (deduplicated in first-observation order), so a node
    /// surfacing several events in one tick is not backed off towards
    /// nominal multiple times, nor offlined twice.
    ///
    /// With the failure lifecycle disabled (legacy), an Extended node
    /// recovers in place and re-deploys at a backed-off point. Enabled,
    /// the crash has a *cost in capacity*: the node is evacuated and
    /// taken offline for a seeded MTTR window, and its operating point
    /// is left alone — the rejoin re-characterization pass, not a
    /// geometric backoff, decides where it comes back.
    ///
    /// Returns the migrations performed (the per-tick series' column).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn recover_crashes(
        &mut self,
        cluster: &mut Cluster,
        queue: &mut EventQueue,
        points: &mut [OperatingPoint],
        node_parts: &[Option<usize>],
        crashes: &[(NodeId, CrashEvent)],
        tick_end: Seconds,
        tick: u64,
        config: &OrchestratorConfig,
        tel: &mut Telemetry,
    ) -> u64 {
        let mut crashed: Vec<NodeId> = Vec::new();
        for (node_id, event) in crashes {
            self.crashes += 1;
            tel.inc("crash_events");
            tel.emit_at(
                event.at.as_secs(),
                &TraceEvent::Crash { node: u64::from(node_id.0), workload: &event.workload },
            );
            if let Some(p) = node_parts[node_id.0 as usize] {
                self.part_crashes[p] += 1;
            }
            if !crashed.contains(node_id) {
                crashed.push(*node_id);
            }
        }
        let lifecycle = config.chaos.is_some();
        let mut migrations = 0;
        for node_id in crashed {
            if lifecycle {
                cluster.mark_crashed(node_id);
            }
            let recovery = cluster.recover_from_crash(node_id);
            for (moved, cost) in &recovery.migrated {
                migrations += 1;
                queue.schedule(cost.completes_at(tick_end), Event::MigrationSettled(moved.id));
                tel.inc("crash_migrations");
                tel.emit(&TraceEvent::Migration {
                    class: CLASS_NAMES[class_idx(moved.class)],
                    placement: moved.id.0,
                    from: u64::from(node_id.0),
                    to: u64::from(moved.node.0),
                });
                // Gold/Silver promise continuity; a crash-forced move
                // interrupted them.
                if moved.class != SlaClass::Bronze {
                    self.per_class[class_idx(moved.class)].violations += 1;
                }
            }
            for lost in &recovery.evicted {
                self.charge_eviction(lost, tel);
            }
            if lifecycle {
                // The crash costs capacity, not margin: the node leaves
                // the fleet for its repair window and the rejoin
                // re-shmoo re-derives its operating point honestly.
                let mttr = draw_mttr(config.seed, node_id, tick);
                cluster.begin_repair(node_id, mttr);
                self.chaos.nodes_offlined += 1;
                tel.inc("nodes_offlined");
                tel.record("mttr_ticks", u64::from(mttr));
                tel.emit(&TraceEvent::Offline {
                    node: u64::from(node_id.0),
                    mttr_ticks: u64::from(mttr),
                });
            } else if config.margins == MarginPolicy::Extended {
                // Reboot firmware cleared the undervolts: re-deploy the
                // node at a backed-off point instead of silently running
                // nominal (or leave nominal racks alone).
                let idx = node_id.0 as usize;
                points[idx] = points[idx].backed_off(CRASH_BACKOFF);
                points[idx].apply_to(cluster.server_mut(node_id));
            }
        }
        migrations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use uniserver_faultinject::chaos::ChaosPlan;
    use uniserver_hypervisor::vm::VmConfig;
    use uniserver_telemetry::MetricsRegistry;
    use uniserver_units::Volts;

    use crate::deploy::deploy_cluster;

    fn crash_event(at: f64) -> CrashEvent {
        CrashEvent { core: 0, at: Seconds::new(at), voltage: Volts::new(0.9), workload: Arc::from("ldbc") }
    }

    fn gold_arrival() -> Arrival {
        Arrival {
            config: VmConfig::idle_guest(),
            class: SlaClass::Gold,
            lifetime: Seconds::new(60.0),
        }
    }

    /// Deploys a 2-node rack and packs it until the scheduler rejects.
    fn overloaded_rack(seed: u64) -> Cluster {
        let config = OrchestratorConfig::smoke(2, seed);
        let (mut cluster, _, _, _) = deploy_cluster(&config);
        while cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).is_some() {}
        cluster
    }

    #[test]
    fn gold_rejection_abandons_only_after_retries_exhaust() {
        let mut cluster = overloaded_rack(7);
        let mut queue = EventQueue::new();
        let mut retry = RetryQueue::new(AdmissionPolicy::GoldPriority);
        let mut c = ServeCounters::new(1);
        let mut tel = Telemetry::disabled();

        assert!(!c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel));
        assert_eq!(c.per_class[0].rejected, 1);
        assert_eq!(c.per_class[0].abandoned, 0, "a gold rejection must queue, not drop");
        assert_eq!(retry.pending_len(), 1);

        // Re-offer against a still-full rack: each tick burns one unit
        // of the gold budget (4), and only exhaustion abandons.
        for attempt in 1..=4u64 {
            let placed = c.reoffer_pending(
                &mut retry,
                &mut cluster,
                &mut queue,
                Seconds::new(attempt as f64 * 5.0),
                attempt,
                &mut tel,
            );
            assert_eq!(placed, 0);
            assert_eq!(c.per_class[0].retried, attempt);
            if attempt < 4 {
                assert_eq!(c.per_class[0].abandoned, 0, "gold must not abandon before its budget is spent");
            }
        }
        assert_eq!(c.per_class[0].abandoned, 1, "budget exhausted: now it abandons");
        assert_eq!(c.per_class[0].rejected, 5, "the initial rejection plus four failed re-offers");
        assert_eq!(retry.pending_len(), 0);
        assert_eq!(c.total(|s| s.offered), c.total(|s| s.placed) + c.total(|s| s.abandoned), "the lifecycle invariant must tie out");
    }

    #[test]
    fn queued_gold_places_into_freed_capacity() {
        let mut cluster = overloaded_rack(13);
        let mut queue = EventQueue::new();
        let mut retry = RetryQueue::new(AdmissionPolicy::GoldPriority);
        let mut c = ServeCounters::new(1);
        let mut tel = Telemetry::disabled();

        assert!(!c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel));
        assert_eq!(retry.pending_len(), 1);

        // A departure frees capacity before the budget runs out …
        let victim = cluster.placements()[0].id;
        assert!(cluster.terminate_by_id(victim));
        // … and the next re-offer claims it.
        let placed =
            c.reoffer_pending(&mut retry, &mut cluster, &mut queue, Seconds::new(5.0), 1, &mut tel);
        assert_eq!(placed, 1);
        assert_eq!(c.per_class[0].placed, 1);
        assert_eq!(c.per_class[0].retried, 1);
        assert_eq!(c.per_class[0].abandoned, 0);
        assert_eq!(retry.pending_len(), 0);
        assert_eq!(c.total(|s| s.offered), c.total(|s| s.placed) + c.total(|s| s.abandoned));
    }

    #[test]
    fn drop_all_policy_abandons_rejections_immediately() {
        let mut cluster = overloaded_rack(21);
        let mut queue = EventQueue::new();
        let mut retry = RetryQueue::new(AdmissionPolicy::DropAll);
        let mut c = ServeCounters::new(1);
        let mut tel = Telemetry::disabled();

        assert!(!c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel));
        assert_eq!(c.per_class[0].rejected, 1);
        assert_eq!(c.per_class[0].abandoned, 1, "zero budget is the legacy drop path");
        assert_eq!(c.total(|s| s.retried), 0);
        assert_eq!(retry.pending_len(), 0);
    }

    #[test]
    fn full_retry_queue_abandons_a_first_offer_at_once() {
        let mut cluster = overloaded_rack(45);
        let mut queue = EventQueue::new();
        let mut retry = RetryQueue::new(AdmissionPolicy::GoldPriority);
        let mut c = ServeCounters::new(1);
        let mut tel = Telemetry::disabled();
        tel.metrics = Some(MetricsRegistry::new());

        // Fill the gold queue to its depth; every rejection queues.
        for _ in 0..RETRY_QUEUE_DEPTH {
            assert!(!c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel));
        }
        assert_eq!(retry.pending_len(), RETRY_QUEUE_DEPTH, "every gold rejection queues");
        assert_eq!(c.per_class[0].abandoned, 0);

        // Same tick, queue already at depth: the budget is there but
        // the queue is not, so the next rejection abandons on the spot.
        assert!(!c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel));
        assert_eq!(
            retry.pending_len(),
            RETRY_QUEUE_DEPTH,
            "an overflowing rejection must not queue"
        );
        assert_eq!(c.per_class[0].rejected, RETRY_QUEUE_DEPTH as u64 + 1);
        assert_eq!(c.per_class[0].abandoned, 1);
        let metrics = tel.metrics.as_ref().expect("metrics registry was enabled");
        let waited = metrics.histogram("abandon_wait_ticks_gold").expect("the abandon was recorded");
        assert_eq!((waited.count, waited.max), (1, 0), "an overflow abandons after zero ticks");
    }

    #[test]
    fn horizon_flush_abandons_whatever_is_still_queued() {
        let mut cluster = overloaded_rack(33);
        let mut queue = EventQueue::new();
        let mut retry = RetryQueue::new(AdmissionPolicy::GoldPriority);
        let mut c = ServeCounters::new(1);
        let mut tel = Telemetry::disabled();

        for _ in 0..3 {
            c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel);
        }
        assert_eq!(retry.pending_len(), 3);
        c.flush_pending(&mut retry, 60, &mut tel);
        assert_eq!(retry.pending_len(), 0);
        assert_eq!(c.total(|s| s.abandoned), 3);
        assert_eq!(c.total(|s| s.expired_at_horizon), 3, "horizon drops are annotated as expirations");
        assert_eq!(c.per_class[0].expired_at_horizon, 3);
        assert_eq!(c.total(|s| s.offered), c.total(|s| s.placed) + c.total(|s| s.abandoned));
    }

    #[test]
    fn duplicate_same_tick_crash_events_recover_and_back_off_once() {
        let config = OrchestratorConfig::smoke(3, 11);
        let (mut cluster, records, _, _) = deploy_cluster(&config);
        let mut points: Vec<OperatingPoint> = records.iter().map(|r| r.point.clone()).collect();
        let node_parts: Vec<Option<usize>> = records
            .iter()
            .map(|r| config.cluster.part_mix.iter().position(|p| p.spec.name == r.part))
            .collect();
        for _ in 0..3 {
            cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
        }
        let victim = cluster.placements()[0].node;
        let on_victim = cluster.placements_on(victim).len() as u64;
        assert!(on_victim > 0);

        let before = points[victim.0 as usize].clone();
        let mut queue = EventQueue::new();
        let mut counters = ServeCounters::new(config.cluster.part_mix.len());
        let mut tel = Telemetry::disabled();
        // The node surfaced TWO crash events in the same tick.
        let crashes = vec![(victim, crash_event(5.0)), (victim, crash_event(5.1))];
        let migrations = counters.recover_crashes(
            &mut cluster,
            &mut queue,
            &mut points,
            &node_parts,
            &crashes,
            Seconds::new(5.0),
            1,
            &config,
            &mut tel,
        );

        assert_eq!(counters.crashes, 2, "crashes counts events, not nodes");
        assert_eq!(counters.part_crashes.iter().sum::<u64>(), 2);
        let once = before.backed_off(CRASH_BACKOFF);
        let twice = once.backed_off(CRASH_BACKOFF);
        assert_eq!(
            points[victim.0 as usize].min_offset_mv(),
            once.min_offset_mv(),
            "the EOP backoff must apply once per crashed node, not once per event"
        );
        assert!(
            points[victim.0 as usize].min_offset_mv() > twice.min_offset_mv(),
            "compounded backoff would overdrive the margin towards nominal"
        );
        assert!(cluster.placements_on(victim).is_empty(), "recovery still clears the node");
        let crash_migrations = cluster.fleet_metrics().crash_migrations;
        assert_eq!(crash_migrations + counters.evicted, on_victim);
        assert_eq!(migrations, crash_migrations);
    }

    #[test]
    fn consecutive_tick_double_crash_backs_off_twice_but_never_past_nominal() {
        let config = OrchestratorConfig::smoke(3, 11);
        let (mut cluster, records, _, _) = deploy_cluster(&config);
        let mut points: Vec<OperatingPoint> = records.iter().map(|r| r.point.clone()).collect();
        let node_parts = vec![None; records.len()];
        let victim = NodeId(0);
        let before = points[0].clone();
        let mut queue = EventQueue::new();
        let mut counters = ServeCounters::new(config.cluster.part_mix.len());
        let mut tel = Telemetry::disabled();
        // The same node crashes on two CONSECUTIVE ticks — each tick's
        // dedup set is fresh, so the backoff legitimately compounds …
        for tick in 1..=2u64 {
            counters.recover_crashes(
                &mut cluster,
                &mut queue,
                &mut points,
                &node_parts,
                &[(victim, crash_event(tick as f64 * 5.0))],
                Seconds::new(tick as f64 * 5.0),
                tick,
                &config,
                &mut tel,
            );
        }
        let twice = before.backed_off(CRASH_BACKOFF).backed_off(CRASH_BACKOFF);
        assert_eq!(
            points[0].min_offset_mv(),
            twice.min_offset_mv(),
            "consecutive-tick crashes compound the backoff once per tick"
        );
        // … but however many times it crashes, the clamped backoff can
        // never overdrive any core's offset past nominal (> 0 mV).
        for _ in 0..50 {
            points[0] = points[0].backed_off(CRASH_BACKOFF);
        }
        assert!(
            points[0].core_offsets_mv.iter().all(|&mv| mv >= 0.0),
            "repeated crashes must converge to nominal, never overshoot it"
        );
    }

    #[test]
    fn lifecycle_crash_takes_the_node_offline_and_skips_the_backoff() {
        let config = OrchestratorConfig {
            chaos: Some(ChaosPlan::RackAndFlash),
            ..OrchestratorConfig::smoke(3, 17)
        };
        let (mut cluster, records, _, _) = deploy_cluster(&config);
        let mut points: Vec<OperatingPoint> = records.iter().map(|r| r.point.clone()).collect();
        let node_parts = vec![None; records.len()];
        for _ in 0..3 {
            cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze);
        }
        let victim = cluster.placements()[0].node;
        let on_victim = cluster.placements_on(victim).len() as u64;
        assert!(on_victim > 0);
        let before = points[victim.0 as usize].clone();

        let mut queue = EventQueue::new();
        let mut counters = ServeCounters::new(config.cluster.part_mix.len());
        let mut tel = Telemetry::disabled();
        counters.recover_crashes(
            &mut cluster,
            &mut queue,
            &mut points,
            &node_parts,
            &[(victim, crash_event(5.0))],
            Seconds::new(5.0),
            1,
            &config,
            &mut tel,
        );

        assert!(!cluster.nodes()[victim.0 as usize].is_online(), "the crashed node must be offline");
        assert!(cluster.placements_on(victim).is_empty(), "the offline node must be evacuated");
        assert_eq!(counters.chaos.nodes_offlined, 1);
        assert_eq!(
            points[victim.0 as usize].min_offset_mv(),
            before.min_offset_mv(),
            "the lifecycle replaces the geometric backoff with the rejoin re-shmoo"
        );
        assert_eq!(cluster.fleet_metrics().crash_migrations + counters.evicted, on_victim);
        // The scheduler must refuse the offline node while it repairs.
        for _ in 0..8 {
            if let Some(p) = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze) {
                assert_ne!(p.node, victim, "no placement may land on an offline node");
            }
        }
    }

    #[test]
    fn degraded_reoffer_sheds_bronze_to_free_capacity_for_gold() {
        let config = OrchestratorConfig::smoke(3, 29);
        let (mut cluster, _, _, _) = deploy_cluster(&config);
        while cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).is_some() {}
        let mut queue = EventQueue::new();
        let mut retry = RetryQueue::new(AdmissionPolicy::GoldPriority);
        let mut c = ServeCounters::new(1);
        let mut tel = Telemetry::disabled();

        // Gold rejected against the packed rack: it queues.
        assert!(!c.admit(&mut retry, &mut cluster, &mut queue, gold_arrival(), Seconds::new(0.0), 0, &mut tel));

        // With every node healthy, a failed re-offer sheds nothing —
        // degradation only under degradation.
        c.reoffer_pending(&mut retry, &mut cluster, &mut queue, Seconds::new(5.0), 1, &mut tel);
        assert_eq!(c.total(|s| s.shed), 0, "no shedding while the fleet is at full capacity");

        // A node goes offline; the still-queued gold re-offer now sheds
        // one bronze victim (youngest first) to make room …
        cluster.mark_crashed(NodeId(0));
        let _ = cluster.recover_from_crash(NodeId(0));
        cluster.begin_repair(NodeId(0), 12);
        let bronze_before = cluster.placements().len();
        c.reoffer_pending(&mut retry, &mut cluster, &mut queue, Seconds::new(10.0), 2, &mut tel);
        assert_eq!(c.total(|s| s.shed), 1, "degraded capacity plus a waiting gold must shed");
        assert_eq!(c.per_class[2].shed, 1, "bronze is shed first");
        assert_eq!(c.evicted, 1, "a shed is charged as an eviction");
        assert_eq!(cluster.placements().len(), bronze_before - 1);

        // … and the next tick's re-offer places into the freed slot.
        let placed =
            c.reoffer_pending(&mut retry, &mut cluster, &mut queue, Seconds::new(15.0), 3, &mut tel);
        assert_eq!(placed, 1, "the freed capacity admits the queued gold next tick");
        assert_eq!(c.per_class[0].placed, 1);
        assert_eq!(c.total(|s| s.offered), c.total(|s| s.placed) + c.total(|s| s.abandoned));
    }

    #[test]
    fn nominal_racks_never_back_off_points() {
        let config = OrchestratorConfig { margins: MarginPolicy::Nominal, ..OrchestratorConfig::smoke(2, 5) };
        let (mut cluster, records, _, _) = deploy_cluster(&config);
        let mut points: Vec<OperatingPoint> = records.iter().map(|r| r.point.clone()).collect();
        let node_parts = vec![None; records.len()];
        let mut queue = EventQueue::new();
        let mut counters = ServeCounters::new(config.cluster.part_mix.len());
        let mut tel = Telemetry::disabled();
        counters.recover_crashes(
            &mut cluster,
            &mut queue,
            &mut points,
            &node_parts,
            &[(NodeId(0), crash_event(1.0))],
            Seconds::new(5.0),
            1,
            &config,
            &mut tel,
        );
        assert_eq!(counters.crashes, 1);
        assert_eq!(points[0].min_offset_mv(), 0.0, "nominal points stay nominal");
    }

    #[test]
    fn drain_fires_departures_due_in_the_final_window() {
        let config = OrchestratorConfig::smoke(2, 3);
        let (mut cluster, _, _, _) = deploy_cluster(&config);
        let placed = cluster.submit(VmConfig::idle_guest(), SlaClass::Bronze).expect("placed");
        let mut queue = EventQueue::new();
        // Due strictly after the last tick start (295 s) but within the
        // 300 s horizon — exactly the window the loop used to drop.
        queue.schedule(Seconds::new(297.5), Event::Departure(placed.id));
        let mut counters = ServeCounters::new(1);
        assert_eq!(counters.drain_due(&mut queue, &mut cluster, Seconds::new(295.0)), 0);
        assert_eq!(counters.drain_due(&mut queue, &mut cluster, Seconds::new(300.0)), 1);
        assert_eq!(counters.completed, 1);
        assert!(cluster.placements().is_empty());
        // A departure for an already-evicted placement completes nothing.
        queue.schedule(Seconds::new(299.0), Event::Departure(placed.id));
        assert_eq!(counters.drain_due(&mut queue, &mut cluster, Seconds::new(300.0)), 0);
        assert_eq!(counters.completed, 1);
    }
}
