//! RAIDR-style retention-aware refresh binning (paper ref \[26\],
//! Liu et al., ISCA'12) — the DESIGN.md §7 extension.
//!
//! UniServer's §6.B experiment relaxes the refresh of a whole domain to
//! one interval bounded by its *weakest* cell. RAIDR instead profiles
//! rows into retention bins and refreshes each bin at its own rate, so
//! one weak row no longer taxes the other million. This module
//! implements the binning policy over the same calibrated retention
//! model, giving the reproduction an ablation: flat relaxation (the
//! paper's §6.B) vs retention-aware binning (its ref \[26\]).

use rand::Rng;
use uniserver_units::{Bytes, Celsius, Seconds};

use uniserver_silicon::retention::RetentionModel;
use uniserver_silicon::rng::poisson;

/// Rows per 8 GB module (64 KiB rows, the usual DDR3 geometry).
const ROW_BYTES: u64 = 64 * 1024;

/// One refresh bin: rows whose weakest cell retains at least
/// `interval`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefreshBin {
    /// Refresh interval applied to the bin.
    pub interval: Seconds,
    /// Number of rows assigned to the bin.
    pub rows: u64,
}

/// A profiled, binned module.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedModule {
    /// Bins, ascending by interval; the last bin holds the strong bulk.
    pub bins: Vec<RefreshBin>,
    /// Module capacity.
    pub capacity: Bytes,
    /// Profiling temperature (bins are only valid up to this + guard).
    pub profiled_at: Celsius,
}

impl BinnedModule {
    /// Profiles a module into retention bins at the given temperature.
    ///
    /// For each candidate interval (shortest first), rows whose weakest
    /// cell would leak within the *next* candidate are pinned to it.
    /// Row weakest-cell sampling uses the calibrated per-bit retention
    /// tail: a row of `b` bits has a weak cell for interval `t` with
    /// probability `1 - (1 - p(t))^b ≈ b·p(t)`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or not strictly ascending.
    pub fn profile<R: Rng + ?Sized>(
        retention: &RetentionModel,
        capacity: Bytes,
        candidates: &[Seconds],
        temp: Celsius,
        rng: &mut R,
    ) -> Self {
        assert!(!candidates.is_empty(), "need candidate intervals");
        assert!(
            candidates.windows(2).all(|w| w[0] < w[1]),
            "candidate intervals must be strictly ascending"
        );
        let total_rows = capacity.as_u64() / ROW_BYTES;
        let row_bits = ROW_BYTES * 8;
        let mut remaining = total_rows;
        let mut bins = Vec::with_capacity(candidates.len());

        // Rows failing *within* candidate k+1 but not within candidate k
        // land in bin k.
        for (i, &interval) in candidates.iter().enumerate() {
            if i + 1 == candidates.len() {
                bins.push(RefreshBin { interval, rows: remaining });
                break;
            }
            let p_next = retention.fail_probability(candidates[i + 1], temp);
            let p_this = retention.fail_probability(interval, temp);
            // Expected rows whose weakest cell fails in (this, next].
            let p_row = ((p_next - p_this).max(0.0) * row_bits as f64).min(1.0);
            let expected = p_row * remaining as f64;
            let weak_rows = poisson(rng, expected).min(remaining);
            bins.push(RefreshBin { interval, rows: weak_rows });
            remaining -= weak_rows;
        }
        BinnedModule { bins, capacity, profiled_at: temp }
    }

    /// Total rows across bins.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.bins.iter().map(|b| b.rows).sum()
    }

    /// Refresh *operations per second* of the binned schedule, relative
    /// to refreshing everything at `baseline` (1.0 = no change; 0.05 =
    /// 20× fewer refresh operations).
    ///
    /// # Panics
    ///
    /// Panics if the module has no rows.
    #[must_use]
    pub fn refresh_rate_vs(&self, baseline: Seconds) -> f64 {
        let total = self.total_rows();
        assert!(total > 0, "empty module");
        let binned: f64 =
            self.bins.iter().map(|b| b.rows as f64 / b.interval.as_secs()).sum();
        let flat = total as f64 / baseline.as_secs();
        binned / flat
    }

    /// The interval protecting the weakest *populated* bin — what a flat
    /// (paper §6.B) policy would have to use for the whole module.
    #[must_use]
    pub fn flat_equivalent_interval(&self) -> Seconds {
        self.bins
            .iter()
            .find(|b| b.rows > 0)
            .map(|b| b.interval)
            .unwrap_or_else(|| Seconds::from_millis(64.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn candidates() -> Vec<Seconds> {
        vec![
            Seconds::from_millis(64.0),
            Seconds::new(1.0),
            Seconds::new(2.0),
            Seconds::new(4.0),
            Seconds::new(8.0),
        ]
    }

    fn profiled(seed: u64) -> BinnedModule {
        let mut rng = StdRng::seed_from_u64(seed);
        BinnedModule::profile(
            &RetentionModel::ddr3_server(),
            Bytes::gib(8),
            &candidates(),
            Celsius::new(45.0),
            &mut rng,
        )
    }

    #[test]
    fn bins_conserve_rows() {
        let m = profiled(1);
        assert_eq!(m.total_rows(), Bytes::gib(8).as_u64() / ROW_BYTES);
        assert_eq!(m.bins.len(), 5);
    }

    #[test]
    fn bulk_lands_in_the_longest_bin() {
        let m = profiled(1);
        let last = m.bins.last().unwrap();
        assert!(
            last.rows as f64 / m.total_rows() as f64 > 0.98,
            "almost all rows retain past 8 s at 45 °C; got {}",
            last.rows
        );
        // And the 64 ms bin is empty — no cell in a single module is
        // that weak under the calibrated tail.
        assert_eq!(m.bins[0].rows, 0);
    }

    #[test]
    fn binning_beats_flat_relaxation() {
        let m = profiled(2);
        // Flat policy must protect the weakest populated bin; RAIDR
        // refreshes only that bin fast.
        let flat = m.flat_equivalent_interval();
        let ratio = m.refresh_rate_vs(flat);
        assert!(
            ratio < 0.6,
            "binned schedule should cut refresh operations well below the flat policy (got {ratio})"
        );
        // And against the *nominal* 64 ms baseline the cut is enormous.
        assert!(m.refresh_rate_vs(Seconds::from_millis(64.0)) < 0.02);
    }

    #[test]
    fn hotter_profiling_moves_rows_into_faster_bins() {
        let mut rng = StdRng::seed_from_u64(3);
        let cool = BinnedModule::profile(
            &RetentionModel::ddr3_server(),
            Bytes::gib(8),
            &candidates(),
            Celsius::new(45.0),
            &mut rng,
        );
        let hot = BinnedModule::profile(
            &RetentionModel::ddr3_server(),
            Bytes::gib(8),
            &candidates(),
            Celsius::new(75.0),
            &mut rng,
        );
        let weak_rows = |m: &BinnedModule| -> u64 {
            m.bins.iter().take(m.bins.len() - 1).map(|b| b.rows).sum()
        };
        assert!(weak_rows(&hot) > weak_rows(&cool), "heat must populate the fast bins");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_candidates_panic() {
        let mut rng = StdRng::seed_from_u64(4);
        let _ = BinnedModule::profile(
            &RetentionModel::ddr3_server(),
            Bytes::gib(8),
            &[Seconds::new(2.0), Seconds::new(1.0)],
            Celsius::new(45.0),
            &mut rng,
        );
    }
}
