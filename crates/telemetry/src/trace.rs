//! The opt-in structured event trace: one NDJSON line per sim event.
//!
//! Every line is a single JSON object with `tick` and `at` (sim-time
//! seconds) first, then `ev` naming the event, then the event's own
//! fields in a fixed order — so two runs of the same scenario produce
//! byte-identical traces whatever the worker count, and a chaos
//! campaign's audit trail diffs cleanly across machines.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use crate::json::JsonWriter;

/// One sim-domain event. All payload fields are deterministic: ids,
/// tick counts and class labels — never wall-clock.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent<'a> {
    /// A first-time VM arrival was offered to the scheduler.
    Arrival {
        /// SLA class label (`"gold"` / `"silver"` / `"bronze"`).
        class: &'static str,
    },
    /// An offer (first-time or re-offer) was placed.
    Place {
        /// SLA class label.
        class: &'static str,
        /// Hosting node index.
        node: u64,
        /// Stable placement id.
        placement: u64,
        /// Ticks the arrival waited in the retry queue (0 first-try).
        wait_ticks: u64,
    },
    /// An offer found no feasible node.
    Reject {
        /// SLA class label.
        class: &'static str,
    },
    /// A queued rejection was re-offered.
    Reoffer {
        /// SLA class label.
        class: &'static str,
        /// Re-offer attempts remaining after this one.
        retries_left: u64,
    },
    /// A placement was shed (stopped early) to free degraded capacity.
    Shed {
        /// SLA class label of the victim.
        class: &'static str,
        /// Node the victim ran on.
        node: u64,
        /// The victim's placement id.
        placement: u64,
    },
    /// The platform surfaced a crash event on a node.
    Crash {
        /// Crashed node index.
        node: u64,
        /// Workload the crashing core ran (`"chaos"` for injected
        /// events).
        workload: &'a str,
    },
    /// A crashed node was taken offline for repair.
    Offline {
        /// Node index.
        node: u64,
        /// Seeded repair window, in ticks.
        mttr_ticks: u64,
    },
    /// A repaired node rejoined the fleet.
    Rejoin {
        /// Node index.
        node: u64,
    },
    /// A placement moved nodes (crash-driven recovery).
    Migration {
        /// SLA class label.
        class: &'static str,
        /// The placement id (stable across the move).
        placement: u64,
        /// Source node index.
        from: u64,
        /// Destination node index.
        to: u64,
    },
    /// A node silently went gray: capacity capped, CE rate elevated,
    /// still serving.
    GrayOnset {
        /// Node index.
        node: u64,
        /// Seeded fault duration, in ticks.
        duration_ticks: u64,
    },
    /// The health watchdog quarantined a degraded node.
    Quarantine {
        /// Node index.
        node: u64,
    },
    /// A quarantined node survived probation and was readmitted.
    Readmit {
        /// Node index.
        node: u64,
    },
}

impl TraceEvent<'_> {
    /// The `ev` field value naming this event.
    #[must_use]
    pub(crate) fn name(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Place { .. } => "place",
            TraceEvent::Reject { .. } => "reject",
            TraceEvent::Reoffer { .. } => "reoffer",
            TraceEvent::Shed { .. } => "shed",
            TraceEvent::Crash { .. } => "crash",
            TraceEvent::Offline { .. } => "offline",
            TraceEvent::Rejoin { .. } => "rejoin",
            TraceEvent::Migration { .. } => "migration",
            TraceEvent::GrayOnset { .. } => "gray_onset",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::Readmit { .. } => "readmit",
        }
    }

    fn render(&self, w: &mut JsonWriter) {
        w.field_str("ev", self.name());
        match self {
            TraceEvent::Arrival { class } | TraceEvent::Reject { class } => {
                w.field_str("class", class);
            }
            TraceEvent::Place { class, node, placement, wait_ticks } => {
                w.field_str("class", class);
                w.field_u64("node", *node);
                w.field_u64("placement", *placement);
                w.field_u64("wait_ticks", *wait_ticks);
            }
            TraceEvent::Reoffer { class, retries_left } => {
                w.field_str("class", class);
                w.field_u64("retries_left", *retries_left);
            }
            TraceEvent::Shed { class, node, placement } => {
                w.field_str("class", class);
                w.field_u64("node", *node);
                w.field_u64("placement", *placement);
            }
            TraceEvent::Crash { node, workload } => {
                w.field_u64("node", *node);
                w.field_str("workload", workload);
            }
            TraceEvent::Offline { node, mttr_ticks } => {
                w.field_u64("node", *node);
                w.field_u64("mttr_ticks", *mttr_ticks);
            }
            TraceEvent::Rejoin { node }
            | TraceEvent::Quarantine { node }
            | TraceEvent::Readmit { node } => {
                w.field_u64("node", *node);
            }
            TraceEvent::GrayOnset { node, duration_ticks } => {
                w.field_u64("node", *node);
                w.field_u64("duration_ticks", *duration_ticks);
            }
            TraceEvent::Migration { class, placement, from, to } => {
                w.field_str("class", class);
                w.field_u64("placement", *placement);
                w.field_u64("from", *from);
                w.field_u64("to", *to);
            }
        }
    }
}

#[derive(Debug)]
enum Out {
    File(BufWriter<File>),
    Buffer(Vec<u8>),
}

/// Sink for the NDJSON event stream. IO errors are stored on first
/// occurrence and surfaced by [`TraceSink::finish`], so the hot loop
/// never branches on a `Result`.
#[derive(Debug)]
pub struct TraceSink {
    out: Out,
    lines: u64,
    err: Option<io::Error>,
}

impl TraceSink {
    /// Creates (truncating) the trace file at `path` — the upfront
    /// writability check the CLI contract wants.
    ///
    /// # Errors
    ///
    /// Returns the underlying error when the file cannot be created.
    pub fn create(path: &str) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(TraceSink { out: Out::File(BufWriter::new(file)), lines: 0, err: None })
    }

    /// An in-memory sink, for tests.
    #[must_use]
    pub fn buffered() -> Self {
        TraceSink { out: Out::Buffer(Vec::new()), lines: 0, err: None }
    }

    /// Emits one event line stamped `tick` / `at` (sim seconds).
    pub fn emit(&mut self, tick: u64, at_secs: f64, event: &TraceEvent<'_>) {
        let mut w = JsonWriter::object();
        w.field_u64("tick", tick);
        w.field_f64("at", at_secs);
        event.render(&mut w);
        let line = w.finish();
        let result = match &mut self.out {
            Out::File(f) => writeln!(f, "{line}"),
            Out::Buffer(b) => writeln!(b, "{line}"),
        };
        match result {
            Ok(()) => self.lines += 1,
            Err(e) => {
                if self.err.is_none() {
                    self.err = Some(e);
                }
            }
        }
    }

    /// Flushes and closes the sink, surfacing the first write error if
    /// any occurred. Returns the line count on success.
    ///
    /// # Errors
    ///
    /// Returns the first stored write error, or the flush error.
    pub fn finish(self) -> io::Result<u64> {
        if let Some(err) = self.err {
            return Err(err);
        }
        if let Out::File(mut f) = self.out {
            f.flush()?;
        }
        Ok(self.lines)
    }

    /// The buffered NDJSON text (tests only).
    ///
    /// # Panics
    ///
    /// Panics when the sink is file-backed or buffered invalid UTF-8.
    #[must_use]
    pub fn into_string(self) -> String {
        match self.out {
            Out::Buffer(b) => String::from_utf8(b).expect("trace lines are UTF-8"),
            Out::File(_) => panic!("into_string is for buffered sinks"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_have_stable_field_order() {
        let mut sink = TraceSink::buffered();
        sink.emit(3, 15.0, &TraceEvent::Arrival { class: "gold" });
        sink.emit(
            3,
            15.0,
            &TraceEvent::Place { class: "gold", node: 7, placement: 41, wait_ticks: 2 },
        );
        sink.emit(9, 45.5, &TraceEvent::Crash { node: 7, workload: "chaos" });
        assert_eq!(sink.lines, 3);
        assert_eq!(
            sink.into_string(),
            "{\"tick\":3,\"at\":15.0,\"ev\":\"arrival\",\"class\":\"gold\"}\n\
             {\"tick\":3,\"at\":15.0,\"ev\":\"place\",\"class\":\"gold\",\"node\":7,\
             \"placement\":41,\"wait_ticks\":2}\n\
             {\"tick\":9,\"at\":45.5,\"ev\":\"crash\",\"node\":7,\"workload\":\"chaos\"}\n"
        );
    }

    #[test]
    fn every_event_renders_its_name() {
        let events = [
            TraceEvent::Arrival { class: "gold" },
            TraceEvent::Place { class: "gold", node: 0, placement: 0, wait_ticks: 0 },
            TraceEvent::Reject { class: "silver" },
            TraceEvent::Reoffer { class: "silver", retries_left: 1 },
            TraceEvent::Shed { class: "bronze", node: 1, placement: 2 },
            TraceEvent::Crash { node: 3, workload: "ldbc" },
            TraceEvent::Offline { node: 3, mttr_ticks: 12 },
            TraceEvent::Rejoin { node: 3 },
            TraceEvent::Migration { class: "gold", placement: 5, from: 3, to: 4 },
            TraceEvent::GrayOnset { node: 6, duration_ticks: 40 },
            TraceEvent::Quarantine { node: 6 },
            TraceEvent::Readmit { node: 6 },
        ];
        let mut sink = TraceSink::buffered();
        for ev in &events {
            sink.emit(0, 0.0, ev);
        }
        let text = sink.into_string();
        for ev in &events {
            assert!(
                text.contains(&format!("\"ev\":\"{}\"", ev.name())),
                "missing {} in {text}",
                ev.name()
            );
        }
    }

    #[test]
    fn unwritable_path_errors_upfront() {
        assert!(TraceSink::create("/nonexistent_dir_hopefully/x.ndjson").is_err());
    }
}
