//! Collective-engine microbenchmarks: allreduce and barrier latency
//! per transport at P ∈ {2, 4}.
//!
//! Run: `cargo bench -p hpgmxp-bench --bench collectives`
//!
//! Each configuration builds one persistent world (thread or shmem —
//! both in-process, one OS thread per rank) and drives it from
//! rank 0's thread. The helper ranks run a control loop keyed off a
//! tiny *control allreduce*: rank 0 contributes 0.0 while measuring
//! and −P to stop, so every rank executes exactly the same collective
//! sequence without any side channel that could skew the timing.
//!
//! * `allreduce_*` benches time exactly one engine allreduce per
//!   iteration (the control allreduce IS the measured op).
//! * `barrier_*` benches time one control allreduce plus
//!   [`BARRIERS_PER_STEP`] barriers per iteration, so the barrier cost
//!   dominates and the control overhead stays in the noise.
//!
//! On a single box this measures the *total scheduling work* of the
//! recursive-doubling schedule, not the at-scale critical path: on a
//! 1-core host all P ranks serialize. The numbers are for spotting
//! regressions in the engine itself.

use criterion::{criterion_group, criterion_main, Criterion};
use hpgmxp_comm::{Comm, ReduceOp, ShmemWorld, ThreadWorld};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

/// Barriers per measured iteration of the `barrier_*` benches.
const BARRIERS_PER_STEP: usize = 8;

/// One control step: the control allreduce (rank 0 contributes
/// `signal`, helpers 0.0), then `barriers` barriers unless the summed
/// signal said stop. Returns `true` to keep going.
fn step<C: Comm>(c: &C, signal: f64, barriers: usize) -> bool {
    let mut v = [signal];
    c.allreduce(&mut v, ReduceOp::Sum);
    if v[0] < -0.5 {
        return false;
    }
    for _ in 0..barriers {
        c.barrier().unwrap();
    }
    true
}

/// Helper ranks loop the control step until rank 0 signals stop.
fn helper_loop<C: Comm>(c: &C, barriers: usize) {
    while step(c, 0.0, barriers) {}
}

/// Build a world via `build`, bench `steps` iterations from rank 0's
/// thread, then stop the helpers and tear the world down.
fn bench_world<C, B>(g: &mut criterion::BenchmarkGroup<'_>, id: String, barriers: usize, build: B)
where
    C: Comm,
    B: FnOnce() -> (C, Vec<JoinHandle<()>>),
{
    let (root, helpers) = build();
    g.bench_function(id, |b| {
        b.iter(|| {
            let went = step(&root, 0.0, barriers);
            assert!(went, "stop signal cannot appear mid-measurement");
        })
    });
    let stopped = !step(&root, -1.0, barriers);
    assert!(stopped);
    for h in helpers {
        h.join().expect("helper rank panicked");
    }
    drop(root);
}

/// A process-unique shmem world id per bench configuration, so a
/// world's `/dev/shm` file can never collide with its successor's.
fn fresh_shm_id() -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    format!("bench-{}-{}", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed))
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("coll");
    g.warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .sample_size(10);

    for p in [2usize, 4] {
        for (op, barriers) in [("allreduce", 0), ("barrier", BARRIERS_PER_STEP)] {
            let label = |transport: &str| format!("{op}/{transport}/P{p}");

            bench_world(&mut g, label("thread"), barriers, || {
                let mut comms = ThreadWorld::connect(p);
                let root = comms.remove(0);
                let helpers = comms
                    .into_iter()
                    .map(|c| std::thread::spawn(move || helper_loop(&c, barriers)))
                    .collect();
                (root, helpers)
            });

            bench_world(&mut g, label("shmem"), barriers, || {
                let shm_id = fresh_shm_id();
                let helpers = (1..p)
                    .map(|rank| {
                        let id = shm_id.clone();
                        std::thread::spawn(move || {
                            helper_loop(&ShmemWorld::connect(rank, p, &id), barriers)
                        })
                    })
                    .collect();
                (ShmemWorld::connect(0, p, &shm_id), helpers)
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_collectives);
criterion_main!(benches);
