//! How wide one tick's per-node phase fans out.
//!
//! A mostly idle rack's per-tick node work can cost less than spawning
//! and joining a thread for it. [`FanOut`] keeps two measured figures
//! and picks each tick's width `w ≤ cap` from them:
//!
//! * the **per-node cost**, from the time the caller's own chunk took
//!   per awake node on recent ticks (an exponential moving average);
//! * the **fan-out cost** per extra worker, from ticks that fanned out:
//!   scope wall minus the caller's chunk time, over `w − 1`. It keeps
//!   the minimum of the last [`WINDOW`] samples, since host noise only
//!   ever inflates a sample, so one slow spawn cannot pin a rack
//!   inline.
//!
//! The tick fans out only when `work/w + (w−1)·cost < work`; otherwise
//! it runs on the calling thread. Until the window is full, and once
//! every [`PROBE_EVERY`] inline ticks, it fans out at the cap to take a
//! fresh cost sample. Chunks are cut by awake-node count ([`awake_cuts`]),
//! because asleep and offline nodes cost nothing.
//!
//! Every figure here is wall-clock and machine-local. Which width runs
//! never changes a tick's result: the reduce stays in node order.

use std::time::Duration;

/// Fan-out cost samples the windowed minimum covers.
const WINDOW: usize = 8;

/// Inline ticks after which the next tick fans out anyway, to refresh
/// the fan-out cost window.
const PROBE_EVERY: u32 = 256;

/// Measured per-node and fan-out costs, plus the widths used so far.
#[derive(Debug, Clone, Default)]
pub(crate) struct FanOut {
    /// Moving average of the caller's chunk time per awake node, in ns.
    node_ns: f64,
    /// The last [`WINDOW`] per-extra-worker fan-out costs, in ns (a
    /// ring indexed by `samples % WINDOW`).
    cost_ns: [u64; WINDOW],
    /// Fan-out cost samples taken so far.
    samples: usize,
    /// Inline ticks since the last fan-out.
    since_fanout: u32,
    /// Chunk ends of the current fan-out, reused across ticks.
    pub(crate) cuts: Vec<usize>,
    /// Sum of the widths used, over `ticks`.
    width_sum: u64,
    /// Ticks recorded.
    ticks: u64,
    /// Overrides the measured decision (still clamped to the cap and
    /// the awake count), so tests can drive every width.
    #[cfg(test)]
    pub(crate) forced: Option<usize>,
}

impl FanOut {
    /// The width to run a tick with `awake` awake nodes under `cap`.
    pub(crate) fn width(&self, awake: usize, cap: usize) -> usize {
        let max = cap.min(awake).max(1);
        #[cfg(test)]
        {
            if let Some(forced) = self.forced {
                return forced.clamp(1, max);
            }
        }
        if max == 1 {
            return 1;
        }
        if self.samples < WINDOW || self.since_fanout >= PROBE_EVERY {
            return max;
        }
        let work = awake as f64 * self.node_ns;
        let cost = self.cost_ns.iter().copied().min().unwrap_or(0) as f64;
        (2..=max)
            .map(|w| (w, work / w as f64 + (w - 1) as f64 * cost))
            .filter(|&(_, span)| span < work)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map_or(1, |(w, _)| w)
    }

    /// Records a tick run at `width` without timing it (the cap-1 path).
    pub(crate) fn record(&mut self, width: usize) {
        self.width_sum += width as u64;
        self.ticks += 1;
    }

    /// Records an inline tick whose `awake` nodes took `chunk`.
    pub(crate) fn observe_inline(&mut self, awake: usize, chunk: Duration) {
        self.record(1);
        self.since_fanout = self.since_fanout.saturating_add(1);
        self.observe_chunk(awake, chunk);
    }

    /// Records a tick that fanned out over `self.cuts`: the caller's
    /// chunk held `caller_awake` awake nodes and took `chunk`, and the
    /// whole scope took `wall`.
    pub(crate) fn observe_fanout(&mut self, caller_awake: usize, chunk: Duration, wall: Duration) {
        let width = self.cuts.len();
        self.record(width);
        self.since_fanout = 0;
        self.observe_chunk(caller_awake, chunk);
        let extra = wall.saturating_sub(chunk).as_nanos() / (width.max(2) - 1) as u128;
        self.cost_ns[self.samples % WINDOW] = u64::try_from(extra).unwrap_or(u64::MAX);
        self.samples += 1;
    }

    fn observe_chunk(&mut self, awake: usize, chunk: Duration) {
        if awake == 0 {
            return;
        }
        let per_node = chunk.as_nanos() as f64 / awake as f64;
        self.node_ns =
            if self.node_ns == 0.0 { per_node } else { self.node_ns + (per_node - self.node_ns) / 4.0 };
    }

    /// Mean width over the recorded ticks (0 before the first).
    pub(crate) fn mean_width(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.width_sum as f64 / self.ticks as f64
        }
    }
}

/// Cuts `0..flags.len()` into contiguous chunks for `width` workers and
/// writes each chunk's end into `cuts`. `flags` holds one entry per
/// node, `true` for awake, and `awake` is their count. Each chunk but
/// the last holds `⌈awake / width⌉` awake nodes and the last takes the
/// rest, so the asleep and offline nodes between two awake ones ride
/// with the later chunk. `width` clamps to `awake`, and no awake node
/// gives one chunk.
pub(crate) fn awake_cuts(
    flags: impl ExactSizeIterator<Item = bool>,
    awake: usize,
    width: usize,
    cuts: &mut Vec<usize>,
) {
    cuts.clear();
    let n = flags.len();
    if awake > 0 {
        let per = awake.div_ceil(width.clamp(1, awake));
        let mut seen = 0;
        for (i, is_awake) in flags.enumerate() {
            if is_awake {
                seen += 1;
                if seen % per == 0 && seen < awake {
                    cuts.push(i + 1);
                }
            }
        }
    }
    cuts.push(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cut(flags: &[bool], width: usize) -> Vec<usize> {
        let awake = flags.iter().filter(|&&a| a).count();
        let mut cuts = Vec::new();
        awake_cuts(flags.iter().copied(), awake, width, &mut cuts);
        cuts
    }

    /// Awake nodes in each chunk the cuts describe.
    fn awake_per_chunk(flags: &[bool], cuts: &[usize]) -> Vec<usize> {
        let mut start = 0;
        cuts.iter()
            .map(|&end| {
                let count = flags[start..end].iter().filter(|&&a| a).count();
                start = end;
                count
            })
            .collect()
    }

    /// A deterministic mask with about one awake node in three.
    fn mask(n: usize, salt: u64) -> Vec<bool> {
        (0..n as u64).map(|i| (i.wrapping_mul(0x9E37_79B9) ^ salt).is_multiple_of(3)).collect()
    }

    #[test]
    fn chunks_cover_the_rack_contiguously() {
        for n in 1..40 {
            for width in 1..6 {
                let flags = mask(n, n as u64 * 7 + width as u64);
                let cuts = cut(&flags, width);
                assert_eq!(cuts.last(), Some(&n), "the last chunk ends at the rack's end");
                assert!(cuts.windows(2).all(|w| w[0] < w[1]), "chunks are non-empty and ordered: {cuts:?}");
                assert!(cuts[0] > 0, "the first chunk is non-empty");
            }
        }
    }

    #[test]
    fn each_chunk_but_the_last_holds_the_ceiling_share() {
        for n in 1..40 {
            for width in 1..6 {
                let flags = mask(n, n as u64 * 13 + width as u64);
                let awake = flags.iter().filter(|&&a| a).count();
                if awake == 0 {
                    continue;
                }
                let per = awake.div_ceil(width.min(awake));
                let counts = awake_per_chunk(&flags, &cut(&flags, width));
                let (last, rest) = counts.split_last().expect("at least one chunk");
                assert!(rest.iter().all(|&c| c == per), "{counts:?} for {awake} awake at width {width}");
                assert!((1..=per).contains(last), "{counts:?}");
                assert_eq!(counts.iter().sum::<usize>(), awake);
            }
        }
    }

    #[test]
    fn width_clamps_to_the_awake_count() {
        let flags = [false, true, false, false, true, true, false];
        let cuts = cut(&flags, 8);
        assert_eq!(cuts, vec![2, 5, 7], "three awake nodes make three chunks");
        assert_eq!(awake_per_chunk(&flags, &cuts), vec![1, 1, 1]);
    }

    #[test]
    fn no_awake_node_gives_one_chunk() {
        assert_eq!(cut(&[false; 5], 3), vec![5]);
        assert_eq!(cut(&[true, true], 1), vec![2]);
    }

    #[test]
    fn cheap_work_runs_inline_and_heavy_work_fans_out() {
        let mut fan = FanOut::default();
        assert_eq!(fan.width(64, 2), 2, "an empty window probes at the cap");
        assert_eq!(fan.width(1, 4), 1, "one awake node never fans out");
        // Fill the window: each fan-out's scope costs 100 µs above its
        // caller's 50 µs chunk of 32 awake nodes.
        fan.cuts = vec![32, 64];
        for _ in 0..WINDOW {
            fan.observe_fanout(32, Duration::from_micros(50), Duration::from_micros(150));
        }
        // 64 nodes × 1.56 µs ≈ 100 µs of work: halving it saves 50 µs,
        // less than the 100 µs a second worker costs.
        assert_eq!(fan.width(64, 2), 1);
        // 512 nodes ≈ 800 µs: two workers take 500 µs, three 467 µs.
        assert_eq!(fan.width(512, 2), 2);
        assert_eq!(fan.width(512, 3), 3);
        assert!((fan.mean_width() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_slow_sample_cannot_pin_a_rack_inline() {
        let mut fan = FanOut { cuts: vec![32, 64], ..FanOut::default() };
        for _ in 0..WINDOW {
            fan.observe_fanout(32, Duration::from_micros(50), Duration::from_micros(150));
        }
        fan.observe_fanout(32, Duration::from_micros(50), Duration::from_millis(50));
        assert_eq!(fan.width(512, 2), 2, "the window's minimum ignores the outlier");
    }

    #[test]
    fn a_long_inline_streak_probes_again() {
        let mut fan = FanOut { cuts: vec![32, 64], ..FanOut::default() };
        for _ in 0..WINDOW {
            fan.observe_fanout(32, Duration::from_micros(50), Duration::from_micros(150));
        }
        for _ in 0..PROBE_EVERY {
            assert_eq!(fan.width(64, 2), 1);
            fan.observe_inline(64, Duration::from_micros(100));
        }
        assert_eq!(fan.width(64, 2), 2, "the probe refreshes the cost window");
    }
}
