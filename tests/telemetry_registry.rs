//! Determinism contract of the telemetry metrics registry: sharded
//! accumulation merged in shard order must be byte-identical to
//! sequential accumulation, for any worker count and any chunking of
//! the event stream — and because every fold (counter add, gauge
//! min/max, histogram bucket counts) is commutative and associative,
//! merging the shard registries in *any* order must render the same
//! JSON. This is the property the orchestrator leans on when
//! `Cluster::tick` accumulates one registry per node chunk on its
//! worker thread and the reduce merges them in node-index order.

use proptest::prelude::*;

use uniserver_telemetry::MetricsRegistry;

/// Counter/gauge/histogram names the generated ops draw from.
const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

/// One generated telemetry operation, decoded from two u64 draws (the
/// compat proptest has no `prop_oneof`, so the variant rides in the
/// first draw).
fn apply(registry: &mut MetricsRegistry, op: u64, value: u64) {
    let name = NAMES[(op / 4) as usize % NAMES.len()];
    match op % 4 {
        0 => registry.inc(name),
        1 => registry.add(name, value),
        2 => registry.observe(name, value),
        _ => registry.record(name, value),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_merge_is_byte_identical_to_sequential(
        ops in proptest::collection::vec(0u64..1024, 1..200),
        values in proptest::collection::vec(0u64..u64::MAX, 1..200),
        workers in 1usize..7,
    ) {
        let events: Vec<(u64, u64)> = ops
            .iter()
            .zip(values.iter().cycle())
            .map(|(&op, &v)| (op, v))
            .collect();

        // Sequential reference: one registry, event order.
        let mut sequential = MetricsRegistry::new();
        for &(op, v) in &events {
            apply(&mut sequential, op, v);
        }

        // Sharded: contiguous chunks, one registry per worker, merged
        // in shard (index) order — the Cluster::tick reduce shape.
        let chunk = events.len().div_ceil(workers);
        let shards: Vec<MetricsRegistry> = events
            .chunks(chunk)
            .map(|evs| {
                let mut m = MetricsRegistry::new();
                for &(op, v) in evs {
                    apply(&mut m, op, v);
                }
                m
            })
            .collect();
        let mut merged = MetricsRegistry::new();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(
            sequential.to_json(),
            merged.to_json(),
            "shard merge diverged at {} workers over {} events",
            workers,
            events.len()
        );

        // Merge order must not matter either: reversing the shards is
        // the adversarial permutation (every pair swapped).
        let mut reversed = MetricsRegistry::new();
        for shard in shards.iter().rev() {
            reversed.merge(shard);
        }
        prop_assert_eq!(
            merged.to_json(),
            reversed.to_json(),
            "merge must be commutative"
        );
    }

    #[test]
    fn histogram_stats_survive_any_event_permutation(
        values in proptest::collection::vec(0u64..u64::MAX, 2..64),
        rotation in 1usize..63,
    ) {
        let mut in_order = MetricsRegistry::new();
        for &v in &values {
            in_order.record("h", v);
        }
        // A rotation composed with a reversal reaches enough of the
        // permutation group to catch order-dependent folds (sum, min,
        // max, bucket counts are all order-free).
        let k = rotation % values.len();
        let mut permuted = MetricsRegistry::new();
        for &v in values[k..].iter().chain(values[..k].iter()).rev() {
            permuted.record("h", v);
        }
        prop_assert_eq!(in_order.to_json(), permuted.to_json());
        let h = in_order.histogram("h").expect("histogram recorded");
        prop_assert_eq!(h.count, values.len() as u64);
        prop_assert_eq!(h.min, *values.iter().min().unwrap());
        prop_assert_eq!(h.max, *values.iter().max().unwrap());
    }
}
