//! Per-origin error accounting.
//!
//! The hypervisor isolates "problematic processing and memory resources
//! experiencing high error rates, as reported by the HealthLog" (§4.A).
//! The ledger is the data structure behind that report: lifetime
//! corrected/uncorrected counts per physical origin.

use uniserver_platform::mca::{ErrorOrigin, MceRecord};
use uniserver_silicon::ErrorSeverity;

/// Aggregated error counts for one origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OriginStats {
    /// Corrected errors attributed to the origin.
    pub corrected: u64,
    /// Uncorrected errors attributed to the origin.
    pub uncorrected: u64,
    /// Fatal events attributed to the origin.
    pub fatal: u64,
}

impl OriginStats {
    /// Total error count regardless of severity.
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.corrected + self.uncorrected + self.fatal
    }
}

/// Ledger origins are coarsened so DIMM word addresses collapse onto the
/// DIMM (isolation happens at resource granularity, not per word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LedgerKey {
    /// A CPU core.
    Core(usize),
    /// A cache bank.
    CacheBank(usize),
    /// A DIMM.
    Dimm(usize),
}

impl std::fmt::Display for LedgerKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LedgerKey::Core(c) => write!(f, "core{c}"),
            LedgerKey::CacheBank(b) => write!(f, "l3bank{b}"),
            LedgerKey::Dimm(d) => write!(f, "dimm{d}"),
        }
    }
}

/// One resource kind's slots and the constructor of its keys.
type Slots<'a> = (&'a [OriginStats], fn(usize) -> LedgerKey);

/// The per-origin error ledger: one dense slot vector per resource kind
/// (cores, cache banks, DIMMs), indexed by the origin's index and grown
/// on demand. A slot whose total is zero counts as never recorded.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ErrorLedger {
    cores: Vec<OriginStats>,
    banks: Vec<OriginStats>,
    dimms: Vec<OriginStats>,
    /// Largest per-origin total: nothing is hot below it.
    max_total: u64,
}

impl ErrorLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        ErrorLedger::default()
    }

    /// Records one machine-check record: its `count` errors.
    pub(crate) fn record(&mut self, rec: &MceRecord) {
        let (slots, index) = match rec.origin {
            ErrorOrigin::Core(c) => (&mut self.cores, c),
            ErrorOrigin::CacheBank(b) => (&mut self.banks, b),
            ErrorOrigin::Dimm { dimm, .. } => (&mut self.dimms, dimm),
        };
        if index >= slots.len() {
            slots.resize(index + 1, OriginStats::default());
        }
        let entry = &mut slots[index];
        match rec.severity {
            ErrorSeverity::Corrected => entry.corrected += rec.count,
            ErrorSeverity::Uncorrected => entry.uncorrected += rec.count,
            ErrorSeverity::Fatal => entry.fatal += rec.count,
        }
        self.max_total = self.max_total.max(entry.total());
    }

    /// The slot vectors with their key constructors, in [`LedgerKey`]
    /// order.
    fn kinds(&self) -> [Slots<'_>; 3] {
        [(&self.cores, LedgerKey::Core), (&self.banks, LedgerKey::CacheBank), (&self.dimms, LedgerKey::Dimm)]
    }

    /// Origins whose total error count reaches `threshold`, sorted by
    /// descending total, ties in key order — the isolation candidates.
    /// Allocates nothing when no origin qualifies.
    #[must_use]
    pub fn hot_origins(&self, threshold: u64) -> Vec<(LedgerKey, OriginStats)> {
        if self.max_total < threshold {
            return Vec::new();
        }
        // A zero-total slot was never recorded.
        let floor = threshold.max(1);
        let kinds = self.kinds();
        let mut hot = Vec::with_capacity(kinds.iter().map(|(slots, _)| slots.len()).sum());
        for (slots, key) in kinds {
            for (index, stats) in slots.iter().enumerate() {
                if stats.total() >= floor {
                    hot.push((key(index), *stats));
                }
            }
        }
        // Stable: equal totals keep key order.
        hot.sort_by_key(|(_, stats)| std::cmp::Reverse(stats.total()));
        hot
    }
}

#[cfg(test)]
impl ErrorLedger {
    /// Stats for one origin (zeros if never seen).
    pub(crate) fn stats(&self, key: LedgerKey) -> OriginStats {
        let (slots, index) = match key {
            LedgerKey::Core(c) => (&self.cores, c),
            LedgerKey::CacheBank(b) => (&self.banks, b),
            LedgerKey::Dimm(d) => (&self.dimms, d),
        };
        slots.get(index).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uniserver_platform::mca::ErrorOrigin;
    use uniserver_silicon::FaultKind;
    use uniserver_units::Seconds;

    fn rec(origin: ErrorOrigin, severity: ErrorSeverity) -> MceRecord {
        MceRecord { at: Seconds::ZERO, kind: FaultKind::DramBit, severity, origin, count: 1 }
    }

    #[test]
    fn words_collapse_onto_dimms() {
        let mut ledger = ErrorLedger::new();
        ledger.record(&rec(ErrorOrigin::Dimm { dimm: 1, word: 10 }, ErrorSeverity::Corrected));
        ledger.record(&rec(ErrorOrigin::Dimm { dimm: 1, word: 99 }, ErrorSeverity::Corrected));
        assert_eq!(ledger.stats(LedgerKey::Dimm(1)).corrected, 2);
    }

    #[test]
    fn hot_origins_sorted_and_filtered() {
        let mut ledger = ErrorLedger::new();
        for _ in 0..5 {
            ledger.record(&rec(ErrorOrigin::CacheBank(0), ErrorSeverity::Corrected));
        }
        for _ in 0..2 {
            ledger.record(&rec(ErrorOrigin::Core(1), ErrorSeverity::Uncorrected));
        }
        ledger.record(&rec(ErrorOrigin::CacheBank(3), ErrorSeverity::Corrected));

        let hot = ledger.hot_origins(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, LedgerKey::CacheBank(0));
        assert_eq!(hot[1].0, LedgerKey::Core(1));
        assert_eq!(ledger.hot_origins(0).iter().map(|(_, s)| s.total()).sum::<u64>(), 8);
    }

    #[test]
    fn unseen_origin_reads_zero() {
        let ledger = ErrorLedger::new();
        assert_eq!(ledger.stats(LedgerKey::Core(5)).total(), 0);
    }

    #[test]
    fn severities_are_separated() {
        let mut ledger = ErrorLedger::new();
        ledger.record(&rec(ErrorOrigin::Core(0), ErrorSeverity::Corrected));
        ledger.record(&rec(ErrorOrigin::Core(0), ErrorSeverity::Uncorrected));
        ledger.record(&rec(ErrorOrigin::Core(0), ErrorSeverity::Fatal));
        let s = ledger.stats(LedgerKey::Core(0));
        assert_eq!((s.corrected, s.uncorrected, s.fatal), (1, 1, 1));
    }

    mod property {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Decodes one drawn word into a record: a core, cache-bank or
        /// DIMM origin with index up to 40, any severity and a count of
        /// 1 to 8. Three in four records land on indices 0..3, so some
        /// origins pass every tested threshold.
        fn decode(word: u64) -> MceRecord {
            let spread = if word >> 62 == 0 { 41 } else { 3 };
            let index = (word / 3 % spread) as usize;
            let origin = match word % 3 {
                0 => ErrorOrigin::Core(index),
                1 => ErrorOrigin::CacheBank(index),
                _ => ErrorOrigin::Dimm { dimm: index, word: word >> 16 },
            };
            let severity = match word / 123 % 3 {
                0 => ErrorSeverity::Corrected,
                1 => ErrorSeverity::Uncorrected,
                _ => ErrorSeverity::Fatal,
            };
            MceRecord { count: (word >> 32) % 8 + 1, ..rec(origin, severity) }
        }

        /// Coarsens a machine-check origin onto a ledger key.
        fn key_of(origin: ErrorOrigin) -> LedgerKey {
            match origin {
                ErrorOrigin::Core(c) => LedgerKey::Core(c),
                ErrorOrigin::CacheBank(b) => LedgerKey::CacheBank(b),
                ErrorOrigin::Dimm { dimm, .. } => LedgerKey::Dimm(dimm),
            }
        }

        /// The map-backed ledger the dense one replaced.
        fn reference(records: &[MceRecord]) -> BTreeMap<LedgerKey, OriginStats> {
            let mut map: BTreeMap<LedgerKey, OriginStats> = BTreeMap::new();
            for r in records {
                let entry = map.entry(key_of(r.origin)).or_default();
                let stat = match r.severity {
                    ErrorSeverity::Corrected => &mut entry.corrected,
                    ErrorSeverity::Uncorrected => &mut entry.uncorrected,
                    ErrorSeverity::Fatal => &mut entry.fatal,
                };
                *stat += r.count;
            }
            map
        }

        fn feed<'a>(records: impl IntoIterator<Item = &'a MceRecord>) -> ErrorLedger {
            let mut ledger = ErrorLedger::new();
            for r in records {
                ledger.record(r);
            }
            ledger
        }

        proptest! {
            #[test]
            fn dense_ledger_matches_a_map(
                words in collection::vec(0u64..u64::MAX, 0..400),
                rotate in 0usize..400,
            ) {
                let records: Vec<MceRecord> = words.into_iter().map(decode).collect();
                let ledger = feed(&records);
                let map = reference(&records);
                for index in 0..45 {
                    for key in [LedgerKey::Core(index), LedgerKey::CacheBank(index), LedgerKey::Dimm(index)] {
                        prop_assert_eq!(ledger.stats(key), map.get(&key).copied().unwrap_or_default());
                    }
                }
                for threshold in [0, 1, 5, 20] {
                    let mut hot: Vec<(LedgerKey, OriginStats)> = map
                        .iter()
                        .filter(|(_, s)| s.total() >= threshold)
                        .map(|(k, s)| (*k, *s))
                        .collect();
                    hot.sort_by(|a, b| b.1.total().cmp(&a.1.total()).then(a.0.cmp(&b.0)));
                    prop_assert_eq!(ledger.hot_origins(threshold), hot);
                }

                // The ledger is a function of the error multiset: a
                // counted record equals its errors recorded one by one.
                let single =
                    |r: &MceRecord| std::iter::repeat_n(MceRecord { count: 1, ..*r }, r.count as usize);
                let singles: Vec<MceRecord> = records.iter().flat_map(single).collect();
                prop_assert_eq!(&feed(&singles), &ledger);
                prop_assert_eq!(&feed(records.iter().rev()), &ledger);
                let mut rotated = records.clone();
                if !rotated.is_empty() {
                    let by = rotate % rotated.len();
                    rotated.rotate_left(by);
                }
                prop_assert_eq!(&feed(&rotated), &ledger);
            }
        }
    }
}
