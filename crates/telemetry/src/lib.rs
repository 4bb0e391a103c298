//! Deterministic telemetry core for the UniServer workspace.
//!
//! Three instruments, with a hard line between the domains they live
//! in:
//!
//! * [`MetricsRegistry`] — **sim-domain**, deterministic. Counters,
//!   min/max gauges and fixed-log2-bucket histograms over integer
//!   tick-domain values, accumulated by the sequential phases of the
//!   serve loop in node-index order. Byte-identical across worker
//!   counts and event permutations within a tick.
//! * [`TraceSink`] — **sim-domain**, deterministic. An opt-in NDJSON
//!   stream of sim-time-stamped events with stable field ordering: the
//!   replayable audit trail of a run.
//! * [`StageProfiler`] — **machine-local wall-clock**. Scoped spans
//!   attributing serve time to the orchestrator loop's phases; lands
//!   in the non-deterministic timing block of `BENCH_*.json`, never in
//!   a deterministic artefact.
//!
//! [`Telemetry`] bundles the two deterministic instruments behind
//! no-op-when-disabled calls, so the serving hot path stays free of
//! `Option` plumbing and the default build pays one branch per site.

pub mod json;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use metrics::{Gauge, Histogram, MetricsRegistry};
pub use profile::{Stage, StageProfiler, StageSpan};
pub use trace::{TraceEvent, TraceSink};

/// The per-run telemetry bundle threaded through the serving loop.
///
/// Both instruments are optional and independent; with both `None`
/// every call is a cheap early-out, which is how the default
/// `fleet_sim` run keeps its stdout (and its hot path) untouched.
#[derive(Debug, Default)]
pub struct Telemetry {
    /// The deterministic metrics registry, when enabled.
    pub metrics: Option<MetricsRegistry>,
    /// The event trace sink, when enabled.
    pub trace: Option<TraceSink>,
    tick: u64,
    now_secs: f64,
    dt_secs: f64,
}

impl Telemetry {
    /// A bundle with both instruments off — the default path.
    #[must_use]
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Announces the run's tick length, for duration→tick conversion.
    pub fn begin_run(&mut self, dt_secs: f64) {
        self.dt_secs = dt_secs;
    }

    /// Stamps the current tick; subsequent traces carry it.
    pub fn begin_tick(&mut self, tick: u64, now_secs: f64) {
        self.tick = tick;
        self.now_secs = now_secs;
    }

    /// The current tick index.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// A sim duration in whole ticks (rounded up; minimum 1 for any
    /// positive duration), for lifetime-style histograms.
    #[must_use]
    pub fn lifetime_ticks(&self, secs: f64) -> u64 {
        if self.dt_secs <= 0.0 || secs <= 0.0 {
            return 0;
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let ticks = (secs / self.dt_secs).ceil() as u64;
        ticks.max(1)
    }

    /// Increments a counter (no-op when metrics are off).
    pub fn inc(&mut self, name: &'static str) {
        if let Some(m) = &mut self.metrics {
            m.inc(name);
        }
    }

    /// Adds to a counter (no-op when metrics are off).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        if let Some(m) = &mut self.metrics {
            m.add(name, delta);
        }
    }

    /// Records a histogram value (no-op when metrics are off).
    pub fn record(&mut self, name: &'static str, value: u64) {
        if let Some(m) = &mut self.metrics {
            m.record(name, value);
        }
    }

    /// Folds a gauge sample (no-op when metrics are off).
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if let Some(m) = &mut self.metrics {
            m.observe(name, value);
        }
    }

    /// Emits a trace event at the current tick stamp (no-op when the
    /// trace is off).
    pub fn emit(&mut self, event: &TraceEvent<'_>) {
        if let Some(sink) = &mut self.trace {
            sink.emit(self.tick, self.now_secs, event);
        }
    }

    /// Emits a trace event at an explicit sim time within the current
    /// tick (crash events carry their own sub-tick timestamps).
    pub fn emit_at(&mut self, at_secs: f64, event: &TraceEvent<'_>) {
        if let Some(sink) = &mut self.trace {
            sink.emit(self.tick, at_secs, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_bundle_noops_everywhere() {
        let mut tel = Telemetry::disabled();
        tel.begin_run(5.0);
        tel.begin_tick(3, 15.0);
        tel.inc("x");
        tel.add("x", 2);
        tel.record("h", 9);
        tel.observe("g", 1);
        tel.emit(&TraceEvent::Arrival { class: "gold" });
        assert!(tel.metrics.is_none());
        assert!(tel.trace.is_none());
    }

    #[test]
    fn enabled_bundle_stamps_ticks_and_records() {
        let mut tel =
            Telemetry { metrics: Some(MetricsRegistry::new()), trace: Some(TraceSink::buffered()), ..Telemetry::disabled() };
        tel.begin_run(5.0);
        tel.begin_tick(2, 10.0);
        tel.inc("arrivals");
        tel.record("wait", 0);
        tel.emit(&TraceEvent::Arrival { class: "gold" });
        tel.emit_at(12.5, &TraceEvent::Crash { node: 1, workload: "ldbc" });
        let m = tel.metrics.take().unwrap();
        assert_eq!(m.counter("arrivals"), 1);
        let text = tel.trace.take().unwrap().into_string();
        assert!(text.starts_with("{\"tick\":2,\"at\":10.0,\"ev\":\"arrival\""));
        assert!(text.contains("{\"tick\":2,\"at\":12.5,\"ev\":\"crash\""));
    }

    #[test]
    fn lifetime_ticks_rounds_up_with_a_floor_of_one() {
        let mut tel = Telemetry::disabled();
        tel.begin_run(5.0);
        assert_eq!(tel.lifetime_ticks(0.0), 0);
        assert_eq!(tel.lifetime_ticks(0.1), 1);
        assert_eq!(tel.lifetime_ticks(5.0), 1);
        assert_eq!(tel.lifetime_ticks(5.1), 2);
        assert_eq!(tel.lifetime_ticks(60.0), 12);
    }
}
