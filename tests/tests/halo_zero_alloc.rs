//! Steady-state halo exchanges — and the distributed kernels built on
//! them — perform **zero heap allocations**.
//!
//! The comm-v2 redesign gives `HaloExchange` persistent per-neighbor
//! staging buffers and both transports recycled buffer pools
//! (`ThreadWorld`: a world-shared pool; `ShmemWorld`: per-peer pools
//! plus per-link staging), so after a warm-up phase (which grows
//! every buffer to its steady-state capacity) an exchange at any
//! precision touches the allocator exactly zero times. This test pins
//! that property with a counting global allocator: all ranks warm up,
//! synchronize, and then run N more exchanges while the allocation
//! counter must not move.
//!
//! The counter is process-global, so *every* rank arms, reads, and
//! asserts it: thread ranks share one counter (arming is idempotent,
//! the barriers fence the measured window); under `hpgmxp-launch`
//! each rank process has its own counter
//! and independently asserts its own transport stack stayed quiet.
//!
//! A second window runs the optimized `dist_gs_sweep` (both directions)
//! and `dist_spmv` at f64 and f32 inside a 1-thread pool: the slab-tile
//! traversal under them builds no per-call tile list and no heap
//! accumulator. A third, in the same pool, runs `cgs2` over a whole
//! restart cycle (k = 1..=m) at f64 and f32 on a basis several
//! projection tiles long: the tile partials and the coefficient buffers
//! live in `Basis`, and the normalisation's pairwise tree allocates no
//! partials vector. A fourth, in the same pool, runs the end of a
//! GMRES restart cycle at f32 on a two-level problem: the least-squares
//! solve, the basis combination, the V-cycle `M⁻¹` and the f64 solution
//! update, all in buffers the cycle workspace and the QR own.
//!
//! This file must stay a single-test binary: the global allocator and
//! its counter are process-wide, and a concurrently running unrelated
//! test would pollute the counted window.

use hpgmxp_comm::{run_spmd, Comm, ReduceOp::Sum, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::{gmres_cycle, restart_end, CycleWorkspace, GmresOptions};
use hpgmxp_core::motifs::MotifStats;
use hpgmxp_core::ops::{axpy_lo_mixed_op, dist_gs_sweep, dist_spmv, OpCtx, SweepDir};
use hpgmxp_core::ortho::cgs2;
use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::{ProcGrid, Stencil27};
use hpgmxp_sparse::blas::{Basis, DOT_BLOCK};
use hpgmxp_sparse::Scalar;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Counts every allocator entry (alloc/realloc) while armed.
struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LAST_SIZE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LAST_SIZE.store(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LAST_SIZE.store((1 << 62) | new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Run `measured` on every rank with the counter armed, fenced by
/// barriers so no rank's set-up or teardown leaks into the window;
/// returns `(allocations, last size tag)` seen during it.
fn counted_window<C: Comm>(c: &C, measured: impl FnOnce()) -> (u64, u64) {
    c.barrier().unwrap();
    ALLOCATIONS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    c.barrier().unwrap();
    measured();
    c.barrier().unwrap();
    ARMED.store(false, Ordering::SeqCst);
    let seen = (ALLOCATIONS.load(Ordering::SeqCst), LAST_SIZE.load(Ordering::SeqCst));
    c.barrier().unwrap();
    seen
}

#[test]
fn steady_state_exchange_allocates_nothing() {
    // Span tracing is part of the zero-allocation contract: with the
    // recorder armed, every halo span mirrors into the preallocated
    // global ring and every transport counter is a bare atomic, so
    // the measured window below must stay quiet even while fully
    // instrumented. (Metric/ring registration allocates once, on
    // first use — inside warm-up, never in steady state.)
    hpgmxp_trace::set_mode_override(hpgmxp_trace::Mode::Spans);
    const WARMUP: usize = 100;
    const MEASURED: usize = 50;
    let ranks = hpgmxp_comm::launched_world_size().unwrap_or(4);
    let procs = match ranks {
        2 => ProcGrid::new(2, 1, 1),
        4 => ProcGrid::new(2, 2, 1),
        8 => ProcGrid::new(2, 2, 2),
        p => panic!("no process grid for {p} ranks"),
    };

    let counted = run_spmd(ranks, move |c| {
        let prob = assemble_with_policy(
            &ProblemSpec {
                local: (6, 6, 6),
                procs,
                stencil: Stencil27::symmetric(),
                mg_levels: 1,
                seed: 11,
            },
            c.rank(),
            // The fine level carries f64 and f32 matrices: the kernel
            // window runs both.
            &PrecisionPolicy::f32(),
        );
        let l = &prob.levels[0];
        let tl = Timeline::disabled();
        let mut x64 = vec![0.5f64; l.vec_len()];
        let mut x32 = vec![0.5f32; l.vec_len()];

        // Warm-up: grow the staging buffers, transport pools, and
        // mailbox deques to steady-state capacity at both precisions.
        // The per-round barrier bounds the number of simultaneously
        // in-flight pool buffers to one round's worth, so the pool's
        // high-water mark reached here deterministically covers the
        // measured phase below (which keeps the same per-round bound);
        // without it a fast rank can set a new in-flight record — and
        // force one pool growth — mid-measurement, scheduler-dependent.
        // Neither transport's barrier touches the allocator once warm.
        for i in 0..WARMUP as u64 {
            l.halo.exchange_wire_checked(&c, 2 * i, &mut x64, f64::BYTES, &tl).unwrap();
            l.halo.exchange_wire_checked(&c, 2 * i + 1, &mut x32, f32::BYTES, &tl).unwrap();
            c.barrier().unwrap();
        }

        // Transport pools may still hold buffers that only ever
        // carried the smaller (f32) messages; grow them to the widest
        // message once, while nothing is in flight, so no stale buffer
        // can trigger a realloc at a scheduler-dependent moment
        // mid-measurement. Every rank prewarms: under threads the
        // world pool is shared (idempotent), launched each
        // process owns its pools and must do its own.
        c.barrier().unwrap();
        let widest = l.halo.plan().neighbors.iter().map(|n| n.staging_bytes(8)).max().unwrap_or(0);
        c.prewarm_pool(widest);
        let exchanges = counted_window(&c, || {
            for i in 0..MEASURED as u64 {
                let tag = (WARMUP as u64 + i) * 2;
                l.halo.exchange_wire_checked(&c, tag, &mut x64, f64::BYTES, &tl).unwrap();
                l.halo.exchange_wire_checked(&c, tag + 1, &mut x32, f32::BYTES, &tl).unwrap();
                c.barrier().unwrap();
            }
        });

        // One round of the optimized smoother and SpMV at both
        // precisions, each with its embedded halo exchange.
        let ctx = OpCtx::new(&c, ImplVariant::Optimized, &tl);
        let mut stats = MotifStats::new();
        let (r64, r32) = (vec![0.25f64; l.n_local()], vec![0.25f32; l.n_local()]);
        let (mut y64, mut y32) = (vec![0.0f64; l.n_local()], vec![0.0f32; l.n_local()]);
        let mut kernels = |round: u64| {
            let tag = 1_000_000 + 8 * round;
            dist_gs_sweep(&ctx, l, &mut stats, tag, SweepDir::Forward, &r64, &mut x64);
            dist_gs_sweep(&ctx, l, &mut stats, tag + 1, SweepDir::Backward, &r64, &mut x64);
            dist_spmv(&ctx, l, &mut stats, tag + 2, &mut x64, &mut y64);
            dist_gs_sweep(&ctx, l, &mut stats, tag + 3, SweepDir::Forward, &r32, &mut x32);
            dist_gs_sweep(&ctx, l, &mut stats, tag + 4, SweepDir::Backward, &r32, &mut x32);
            dist_spmv(&ctx, l, &mut stats, tag + 5, &mut x32, &mut y32);
            c.barrier().unwrap();
        };
        let pool = rayon::ThreadPool::new(1);
        let kernel_calls = pool.install(|| {
            for round in 0..WARMUP as u64 {
                kernels(round);
            }
            counted_window(&c, || {
                for round in 0..MEASURED as u64 {
                    kernels(WARMUP as u64 + round);
                }
            })
        });

        // CGS2 over one restart cycle at both precisions, the multi-tile
        // projection and the normalisation included, over this rank's
        // comm (one k-value all-reduce per pass).
        let (mut q64, mut q32) = (filled_basis::<f64>(), filled_basis::<f32>());
        let mut cycle = || {
            for k in 1..=CYCLE {
                cgs2(&c, &mut stats, &mut q64, k);
                cgs2(&c, &mut stats, &mut q32, k);
            }
        };
        let ortho_calls = pool.install(|| {
            for _ in 0..2 {
                cycle();
            }
            counted_window(&c, || {
                for _ in 0..3 {
                    cycle();
                }
            })
        });

        // The end of one restart cycle, after a cycle has built the
        // basis and the QR it reads.
        let policy = PrecisionPolicy::f32();
        let prob = assemble_with_policy(
            &ProblemSpec {
                local: (8, 8, 8),
                procs,
                stencil: Stencil27::symmetric(),
                mg_levels: 2,
                seed: 11,
            },
            c.rank(),
            &policy,
        );
        let n = prob.n_local();
        let widest = prob.levels[0].halo.plan().neighbors.iter().map(|n| n.staging_bytes(8));
        c.prewarm_pool(widest.max().unwrap_or(0));
        let ctx = OpCtx::with_prec(&c, ImplVariant::Optimized, &tl, policy.ctx());
        let opts = GmresOptions::default();
        let mut ws: CycleWorkspace<f32> = CycleWorkspace::new(&prob.levels, opts.restart);
        let rho = c.allreduce_scalar(prob.b.iter().map(|v| v * v).sum(), Sum).unwrap().sqrt();
        let r_unit: Vec<f32> = prob.b.iter().map(|v| (v / rho) as f32).collect();
        let mut x = vec![0.0f64; n];
        let mut end = |ws: &mut CycleWorkspace<f32>| {
            restart_end(&ctx, &prob, &mut stats, ws, &opts).unwrap();
            axpy_lo_mixed_op(&mut stats, 1.0, ws.update(), &mut x);
        };
        let restart_end_calls = pool.install(|| {
            let mut cycle_stats = MotifStats::new();
            gmres_cycle(&ctx, &prob, &mut cycle_stats, &mut ws, &opts, &r_unit, rho, rho, 30)
                .unwrap();
            for _ in 0..2 {
                end(&mut ws);
            }
            counted_window(&c, || {
                for _ in 0..3 {
                    end(&mut ws);
                }
            })
        });
        (exchanges, kernel_calls, ortho_calls, restart_end_calls)
    });

    // Thread mode returns all ranks (one shared counter), a launched rank
    // this process's rank alone (its own counter) — every entry must
    // be zero either way.
    for (exchange, kernel, ortho, cycle_end) in counted {
        let ((allocations, last_size), (kernel_allocations, kernel_last_size)) = (exchange, kernel);
        let (ortho_allocations, ortho_last_size) = ortho;
        assert_eq!(
            allocations, 0,
            "steady-state halo exchange must not touch the allocator: \
             {allocations} allocations across {MEASURED} exchange rounds on {ranks} ranks \
             (last size tag: {last_size:#x})"
        );
        assert_eq!(
            kernel_allocations, 0,
            "steady-state dist_gs_sweep/dist_spmv must not touch the allocator: \
             {kernel_allocations} allocations across {MEASURED} kernel rounds on {ranks} ranks \
             (last size tag: {kernel_last_size:#x})"
        );
        assert_eq!(
            ortho_allocations, 0,
            "steady-state cgs2 must not touch the allocator: {ortho_allocations} allocations \
             across 3 restart cycles on {ranks} ranks (last size tag: {ortho_last_size:#x})"
        );
        let (end_allocations, end_last_size) = cycle_end;
        assert_eq!(
            end_allocations, 0,
            "a restart cycle's end (solve, combine, M⁻¹, update) must not touch the allocator: \
             {end_allocations} allocations across 3 on {ranks} ranks \
             (last size tag: {end_last_size:#x})"
        );
    }
}

/// Columns in the CGS2 window's restart cycle.
const CYCLE: usize = 8;

/// A basis three full projection tiles plus a ragged one long, with
/// linearly independent columns.
fn filled_basis<S: Scalar>() -> Basis<S> {
    let mut q = Basis::new(3 * DOT_BLOCK + 17, CYCLE + 1);
    for j in 0..=CYCLE {
        for (i, v) in q.col_mut(j).iter_mut().enumerate() {
            *v = S::from_f64(((i * (j + 3)) % 101) as f64 * 0.01 + 0.5);
        }
    }
    q
}
