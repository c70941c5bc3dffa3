//! Criterion benchmarks of the composed solver components: the
//! multigrid V-cycle (both variants and precisions) and full GMRES /
//! GMRES-IR fixed-iteration runs — the measured analog of the paper's
//! figure 5 "total" speedup on this machine.
//!
//! Run: `cargo bench -p hpgmxp-bench --bench solvers`

use criterion::{criterion_group, criterion_main, Criterion};
use hpgmxp_bench::single_rank_problem;
use hpgmxp_comm::{SelfComm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::{gmres_solve_f64, GmresOptions};
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::mg::{apply_mg, MgWorkspace, SmootherKind};
use hpgmxp_core::motifs::MotifStats;
use hpgmxp_core::ops::OpCtx;
use hpgmxp_core::PrecisionPolicy;
use std::hint::black_box;
use std::time::Duration;

fn bench_mg_cycle(c: &mut Criterion) {
    let prob = single_rank_problem(32, 4, &PrecisionPolicy::f64());
    let prob32 = single_rank_problem(32, 4, &PrecisionPolicy::f32());
    let comm = SelfComm;
    let tl = Timeline::disabled();
    let rhs = prob.b.clone();
    let rhs32: Vec<f32> = rhs.iter().map(|&v| v as f32).collect();

    let mut g = c.benchmark_group("mg_vcycle_32cubed");
    g.warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for variant in [ImplVariant::Optimized, ImplVariant::Reference] {
        let ctx = OpCtx::new(&comm, variant, &tl);
        g.bench_function(format!("{:?} fp64", variant), |b| {
            let mut stats = MotifStats::new();
            let mut ws: MgWorkspace<f64> = MgWorkspace::new(&prob.levels);
            let mut out = vec![0.0f64; prob.n_local()];
            b.iter(|| {
                apply_mg(
                    &ctx,
                    &prob.levels,
                    &mut stats,
                    &mut ws,
                    1,
                    1,
                    SmootherKind::Forward,
                    black_box(&rhs),
                    &mut out,
                )
            })
        });
        g.bench_function(format!("{:?} fp32", variant), |b| {
            let mut stats = MotifStats::new();
            let mut ws: MgWorkspace<f32> = MgWorkspace::new(&prob32.levels);
            let mut out = vec![0.0f32; prob32.n_local()];
            b.iter(|| {
                apply_mg(
                    &ctx,
                    &prob32.levels,
                    &mut stats,
                    &mut ws,
                    1,
                    1,
                    SmootherKind::Forward,
                    black_box(&rhs32),
                    &mut out,
                )
            })
        });
    }
    g.finish();
}

fn bench_full_solvers(c: &mut Criterion) {
    // The headline measured comparison: 30 fixed iterations of double
    // GMRES vs mixed GMRES-IR on a 32³ problem.
    let prob = single_rank_problem(32, 4, &PrecisionPolicy::f64());
    let mxp = PrecisionPolicy::f32();
    let prob32 = single_rank_problem(32, 4, &mxp);
    let comm = SelfComm;
    let tl = Timeline::disabled();
    let opts = GmresOptions { max_iters: 30, tol: 0.0, ..Default::default() };

    let mut g = c.benchmark_group("gmres_30_iterations_32cubed");
    g.warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    g.bench_function("double", |b| b.iter(|| black_box(gmres_solve_f64(&comm, &prob, &opts, &tl))));
    g.bench_function("mxp (GMRES-IR)", |b| {
        b.iter(|| black_box(gmres_ir_solve_policy(&comm, &prob32, &mxp, &opts, &tl)))
    });
    g.finish();
}

criterion_group!(benches, bench_mg_cycle, bench_full_solvers);
criterion_main!(benches);
