//! Micro-benchmarks of the placement hot path: the reference
//! `Scheduler::place_linear` full-rack scan against the incremental
//! `PlacementIndex` read through `RackView::best` under the reference
//! policy, at the headline rack sizes (256 and 10⁴ nodes).
//!
//! The linear scan re-weighs every node per request (~10⁸ filter/weigh
//! evaluations per simulated hour at 10⁴ nodes); the index walks a
//! sorted candidate set and re-scores only dirty nodes. The third
//! variant measures the steady-state serving pattern: a handful of
//! nodes dirtied per request (what launches/departures actually touch),
//! flushed and placed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use uniserver_cloudmgr::index::PlacementIndex;
use uniserver_cloudmgr::node::{ManagedNode, NodeId};
use uniserver_cloudmgr::{PolicyKind, RackView, Scheduler, SlaClass};
use uniserver_hypervisor::vm::VmConfig;
use uniserver_platform::part::PartSpec;

const RACK_SIZES: [usize; 2] = [256, 10_000];

fn rack(n: usize) -> Vec<ManagedNode> {
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)]
            let id = NodeId(i as u32);
            ManagedNode::provision(id, PartSpec::arm_microserver(), i as u64)
        })
        .collect()
}

fn bench_placement(c: &mut Criterion) {
    let scheduler = Scheduler::BALANCED;
    let policy = PolicyKind::EnergySla;
    let cfg = VmConfig::ldbc_benchmark();
    for nodes in RACK_SIZES {
        let ns = rack(nodes);

        let mut g = c.benchmark_group("scheduler_place");
        g.sample_size(10);
        g.bench_with_input(BenchmarkId::new("linear", nodes), &ns, |b, ns| {
            b.iter(|| black_box(scheduler.place_linear(ns.iter(), &cfg, SlaClass::Silver)));
        });

        let mut index = PlacementIndex::new(nodes);
        index.flush(&scheduler, &ns);
        g.bench_with_input(BenchmarkId::new("indexed", nodes), &ns, |b, ns| {
            b.iter(|| {
                black_box(RackView::new(ns, &index).best(policy, &cfg, SlaClass::Silver, &[]))
            });
        });

        // The serving steady state: each request dirties a few nodes
        // (a launch here, a departure there) before the next placement.
        g.bench_with_input(BenchmarkId::new("indexed_dirty4", nodes), &ns, |b, ns| {
            b.iter(|| {
                for i in 0..4u32 {
                    index.mark(NodeId(i * 7 % ns.len() as u32));
                }
                index.flush(&scheduler, ns);
                black_box(RackView::new(ns, &index).best(policy, &cfg, SlaClass::Silver, &[]))
            });
        });
        g.finish();
    }
}

criterion_group!(placement_benches, bench_placement);
criterion_main!(placement_benches);
