//! Purity contract of the traffic engine: every arrival batch is a pure
//! function of `(stream, seed, tick, node count)`, so the order ticks
//! are drawn in — and the number of worker threads drawing them — can
//! never change a stream. This extends the unit-level
//! `tick_arrivals_are_pure_and_order_independent` to the property
//! level: random seeds, rack sizes, horizons, flat *and* flash-crowd
//! shapes, arbitrary tick permutations, and real thread fan-out all
//! reproduce the sequential reference byte for byte.

use proptest::prelude::*;

use uniserver_cloudmgr::stream::{Arrival, VmStream};
use uniserver_units::Seconds;

/// Renders batches to the byte string the determinism contract compares
/// (Debug covers every field of every arrival, lifetimes included).
fn render(batches: &[Vec<Arrival>]) -> String {
    format!("{batches:?}")
}

/// Draws all `ticks` batches sequentially, in tick order.
fn sequential(stream: &VmStream, seed: u64, ticks: u64, dt: Seconds, nodes: usize) -> Vec<Vec<Arrival>> {
    (0..ticks).map(|t| stream.tick_arrivals_scaled(seed, t, dt, nodes)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generator_is_pure_for_any_tick_order_and_worker_count(
        seed in 0u64..10_000,
        nodes in 1usize..96,
        ticks in 4u64..16,
        flash in 0u64..2,
        rotation in 0u64..16,
        workers in 1usize..6,
    ) {
        let stream =
            if flash == 1 { VmStream::FlashCrowd } else { VmStream::Flat { arrival_rate: 3.0 } };
        let dt = Seconds::new(5.0);
        let reference = render(&sequential(&stream, seed, ticks, dt, nodes));

        // Purity: drawing the same ticks again reproduces the stream.
        let again = render(&sequential(&stream, seed, ticks, dt, nodes));
        prop_assert_eq!(&reference, &again, "a second pass must reproduce the stream");

        // Order independence: draw the ticks in a permuted order (a
        // seeded rotation, reversed on odd rotations), then sort the
        // batches back by tick index.
        let mut order: Vec<u64> = (0..ticks).collect();
        order.rotate_left((rotation % ticks) as usize);
        if rotation % 2 == 1 {
            order.reverse();
        }
        let mut permuted: Vec<(u64, Vec<Arrival>)> = order
            .iter()
            .map(|&t| (t, stream.tick_arrivals_scaled(seed, t, dt, nodes)))
            .collect();
        permuted.sort_by_key(|&(t, _)| t);
        let batches: Vec<Vec<Arrival>> = permuted.into_iter().map(|(_, b)| b).collect();
        prop_assert_eq!(&reference, &render(&batches), "tick order must not matter");

        // Thread independence: fan the ticks out across `workers` real
        // threads (tick t on worker t % workers), merge by tick index.
        let threaded = std::thread::scope(|scope| {
            let stream = &stream;
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        (0..ticks)
                            .filter(|t| (*t as usize) % workers == w)
                            .map(|t| (t, stream.tick_arrivals_scaled(seed, t, dt, nodes)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let mut merged: Vec<(u64, Vec<Arrival>)> =
                handles.into_iter().flat_map(|h| h.join().expect("worker")).collect();
            merged.sort_by_key(|&(t, _)| t);
            merged.into_iter().map(|(_, b)| b).collect::<Vec<_>>()
        });
        prop_assert_eq!(&reference, &render(&threaded), "worker count must not matter");
    }

    #[test]
    fn capacity_scaling_is_monotone_in_expectation(
        seed in 0u64..1_000,
        nodes in 1usize..64,
    ) {
        // The flash-crowd stream offered a four-times larger rack must
        // offer more traffic over an hour of ticks — the capacity
        // scaling that scenario leans on.
        let count = |stream: VmStream, nodes: usize| -> usize {
            sequential(&stream, seed, 720, Seconds::new(5.0), nodes).iter().map(Vec::len).sum()
        };
        prop_assert!(count(VmStream::FlashCrowd, 4 * nodes) > count(VmStream::FlashCrowd, nodes));
        // And the flat legacy stream must ignore capacity entirely.
        let flat = VmStream::Flat { arrival_rate: 3.0 };
        let a = flat.tick_arrivals_scaled(seed, 3, Seconds::new(5.0), nodes);
        let b = flat.tick_arrivals_scaled(seed, 3, Seconds::new(5.0), 0);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
