//! The hierarchical stage profiler: wall-clock scoped spans in the
//! style of `tracing::instrument`, attributing serve time to the
//! phases of the orchestrator loop.
//!
//! Timings are **machine-local wall-clock** and deliberately live
//! outside every deterministic artefact — they land next to `cores` in
//! the non-deterministic timing block of `BENCH_*.json`. Every addition
//! runs on the serve thread: the sharded per-node phase hands its chunk
//! timings back to the caller, which adds them.

use std::time::Instant;

/// One phase of an orchestrated run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Repair-clock ticking and rejoin re-characterization.
    Rejoin,
    /// Draining due departures/settlements from the event queue.
    Events,
    /// Re-offering queued rejections (the retry queue).
    RetryQueue,
    /// First-time arrival admission (placement decisions).
    Placement,
    /// The whole node-advance phase (wall-clock of the tick, fan-out
    /// and reduce included; parent of `NodeTick`, `Predictor` and
    /// `Reduce`).
    Tick,
    /// Per-node hypervisor ticking, summed across workers (child of
    /// `Tick`).
    NodeTick,
    /// Per-node predictor scoring, summed across workers (child of
    /// `Tick`).
    Predictor,
    /// The tick's sequential reduce and proactive-migration pass, on
    /// the caller's thread (child of `Tick`).
    Reduce,
    /// Failure-driven recovery (crash migration/eviction).
    Recovery,
}

/// Number of stages: `Recovery` is the last variant.
const STAGE_COUNT: usize = Stage::Recovery as usize + 1;

/// Wall-clock accumulator per stage; spans add their elapsed
/// nanoseconds on drop.
#[derive(Debug, Clone, Default)]
pub struct StageProfiler {
    /// Indexed by the stage's discriminant.
    nanos: [u64; STAGE_COUNT],
}

impl StageProfiler {
    /// A zeroed profiler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a scoped span: the elapsed wall-clock between this call
    /// and the guard's drop is added to `stage`.
    #[must_use]
    pub fn scoped(&mut self, stage: Stage) -> StageSpan<'_> {
        StageSpan { profiler: self, stage, start: Instant::now() }
    }

    /// Adds pre-measured nanoseconds to a stage (the sharded paths
    /// time each chunk and add once per chunk).
    pub fn add_nanos(&mut self, stage: Stage, nanos: u64) {
        self.nanos[stage as usize] += nanos;
    }

    /// Nanoseconds accumulated on a stage.
    #[must_use]
    pub fn nanos(&self, stage: Stage) -> u64 {
        self.nanos[stage as usize]
    }

    /// Milliseconds accumulated on a stage.
    #[must_use]
    pub fn ms(&self, stage: Stage) -> f64 {
        self.nanos(stage) as f64 / 1e6
    }
}

/// RAII span guard returned by [`StageProfiler::scoped`].
#[derive(Debug)]
pub struct StageSpan<'a> {
    profiler: &'a mut StageProfiler,
    stage: Stage,
    start: Instant,
}

impl Drop for StageSpan<'_> {
    fn drop(&mut self) {
        #[allow(clippy::cast_possible_truncation)]
        let nanos = self.start.elapsed().as_nanos() as u64;
        self.profiler.add_nanos(self.stage, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_and_add_nanos_composes() {
        let mut p = StageProfiler::new();
        {
            let _span = p.scoped(Stage::Placement);
            std::hint::black_box(0u64);
        }
        p.add_nanos(Stage::Placement, 1_000_000);
        assert!(p.nanos(Stage::Placement) >= 1_000_000);
        assert!(p.ms(Stage::Placement) >= 1.0);
        assert_eq!(p.nanos(Stage::Recovery), 0);
    }
}
