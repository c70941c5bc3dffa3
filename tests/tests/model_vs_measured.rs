//! Links between the performance model and the measured benchmark:
//! both sides use the same FLOP accounting, so cross-checks keep the
//! model honest.

use hpgmxp_core::benchmark::run_phase;
use hpgmxp_core::config::{BenchmarkParams, ImplVariant};
use hpgmxp_core::motifs::Motif;
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_machine::memory::{footprint, StorageConfig};
use hpgmxp_machine::simulate::{simulate, SimConfig};
use hpgmxp_machine::workload::Workload;
use hpgmxp_machine::{MachineModel, NetworkModel};

fn tiny_params() -> BenchmarkParams {
    BenchmarkParams {
        local_dims: (8, 8, 8),
        mg_levels: 2,
        max_iters_per_solve: 30,
        benchmark_solves: 1,
        ..Default::default()
    }
}

#[test]
fn modeled_flops_per_iteration_match_measured_counts() {
    // Run the real double-precision benchmark phase for exactly 30
    // iterations (one full restart cycle) and compare the per-iteration
    // FLOP count against the model built from the same workload shape.
    let params = tiny_params();
    let ranks = 1usize;
    let phase = run_phase(&params, ImplVariant::Optimized, ranks, &PrecisionPolicy::f64());
    let measured_per_iter: f64 =
        phase.motif_flops.iter().map(|(_, v)| v).sum::<f64>() / phase.iters as f64;

    let cfg = SimConfig {
        local: params.local_dims,
        mg_levels: params.mg_levels,
        restart: params.restart,
        variant: ImplVariant::Optimized,
        penalty: 1.0,
        policy: PrecisionPolicy::f64(),
    };
    let m = MachineModel::cpu_socket();
    let n = NetworkModel::shared_memory();
    let sim = simulate(&cfg, &m, &n, ranks);
    let modeled_per_iter = sim.per_iter.total_flops();

    let rel = (measured_per_iter - modeled_per_iter).abs() / measured_per_iter;
    assert!(
        rel < 0.25,
        "model {} vs measured {} FLOPs/iter ({}% off)",
        modeled_per_iter,
        measured_per_iter,
        rel * 100.0
    );
}

#[test]
fn workload_shape_matches_measured_problem_dimensions() {
    use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
    let params = tiny_params();
    let spec = ProblemSpec::from_params(&params, 8);
    let procs = spec.procs;
    let mid = procs.rank_of(procs.px / 2, procs.py / 2, procs.pz / 2);
    let prob = assemble_with_policy(&spec, mid as usize, &PrecisionPolicy::f64());

    // Resident operator bytes vs the capacity model, read before
    // `schedule()` below builds the reference forms (see StoredMixed's
    // doc for why `f32` undercuts the model).
    let resident = |p: &hpgmxp_core::problem::LocalProblem| -> f64 {
        p.levels.iter().map(|l| (l.value_bytes() + l.index_bytes()) as f64).sum()
    };
    let model = |config| footprint(params.local_dims, params.mg_levels, params.restart, config);
    let (measured, modeled) = (resident(&prob), model(StorageConfig::StoredDouble).matrices);
    assert!(
        (measured - modeled).abs() <= 0.1 * modeled,
        "f64 policy: resident {measured} vs modeled stored-double {modeled} bytes"
    );
    let p32 = assemble_with_policy(&spec, mid as usize, &PrecisionPolicy::f32());
    let (measured, modeled) = (resident(&p32), model(StorageConfig::StoredMixed).matrices);
    assert!(measured < modeled, "f32 policy: resident {measured} vs stored-mixed {modeled} bytes");

    let wl = Workload::build(params.local_dims, params.mg_levels, params.restart, 8);
    for (lvl, shape) in prob.levels.iter().zip(wl.levels.iter()) {
        assert_eq!(lvl.n_local() as f64, shape.n);
        assert_eq!(lvl.nnz() as f64, shape.nnz);
        assert_eq!(lvl.halo.plan().neighbors.len(), shape.halo_msgs);
        assert_eq!(lvl.halo.send_volume() as f64, shape.halo_values);
        assert_eq!(lvl.schedule().num_levels(), shape.sched_stages);
    }
}

#[test]
fn halo_bytes_reconcile_measured_vs_model_per_precision() {
    // One byte accounting for figure 9 and the roofline: the bytes the
    // halo engine actually puts on the wire (timeline overlap records),
    // the bytes `HaloExchange::send_bytes::<S>()` claims, and the bytes
    // the network model is charged (`halo_values × S::BYTES` in
    // trace/simulate) must agree — at fp64, fp32, and fp16 ghosts.
    use hpgmxp_comm::{run_spmd, Comm, Timeline};
    use hpgmxp_core::problem::{assemble_with_policy, ProblemSpec};
    use hpgmxp_geometry::{ProcGrid, Stencil27};
    use hpgmxp_sparse::{Half, Scalar};

    fn measured_bytes<S: Scalar + 'static>(ranks: u32, local: u32) -> (usize, usize, f64) {
        let procs = ProcGrid::factor(ranks);
        let mid = procs.rank_of(procs.px / 2, procs.py / 2, procs.pz / 2) as usize;
        let results = run_spmd(ranks as usize, move |c| {
            let prob = assemble_with_policy(
                &ProblemSpec {
                    local: (local, local, local),
                    procs,
                    stencil: Stencil27::symmetric(),
                    mg_levels: 1,
                    seed: 3,
                },
                c.rank(),
                &PrecisionPolicy::f64(),
            );
            let l = &prob.levels[0];
            let tl = Timeline::enabled();
            let mut x = vec![S::ZERO; l.vec_len()];
            l.halo.exchange_wire_checked(&c, 0, &mut x, S::BYTES, &tl).unwrap();
            let wire: usize = tl.overlap_records().iter().map(|r| r.bytes_sent).sum();
            let recv: usize = tl.overlap_records().iter().map(|r| r.bytes_received).sum();
            assert_eq!(
                wire,
                l.halo.send_bytes::<S>(),
                "engine accounting != wire bytes on rank {}",
                c.rank()
            );
            (c.rank(), wire, recv)
        });
        let wl = Workload::build((local, local, local), 1, 30, ranks as usize);
        let modeled = wl.fine().halo_values * S::BYTES as f64;
        let &(_, wire, recv) = results.iter().find(|(r, _, _)| *r == mid).unwrap();
        (wire, recv, modeled)
    }

    for (wire, recv, modeled) in [
        measured_bytes::<f64>(8, 4),
        measured_bytes::<f32>(8, 4),
        measured_bytes::<Half>(8, 4),
        measured_bytes::<f64>(2, 6),
        measured_bytes::<f32>(4, 3),
    ] {
        assert_eq!(wire as f64, modeled, "wire bytes must equal the network model's charge");
        assert_eq!(recv as f64, modeled, "received bytes must equal sent bytes (congruent boxes)");
    }
}

#[test]
fn model_time_is_monotone_in_problem_size_and_scale() {
    let m = MachineModel::mi250x_gcd();
    let n = NetworkModel::frontier_slingshot();
    let mk = |edge: u32| SimConfig {
        local: (edge, edge, edge),
        ..SimConfig::paper_policy(PrecisionPolicy::f32(), 1.0)
    };
    // More points per rank => more time per iteration.
    let t64 = simulate(&mk(64), &m, &n, 64).time_per_iter;
    let t128 = simulate(&mk(128), &m, &n, 64).time_per_iter;
    let t320 = simulate(&mk(320), &m, &n, 64).time_per_iter;
    assert!(t64 < t128 && t128 < t320);
    // More ranks => no faster per-iteration (weak scaling).
    let base = simulate(&mk(128), &m, &n, 8).time_per_iter;
    for p in [64usize, 512, 8192, 75_264] {
        assert!(simulate(&mk(128), &m, &n, p).time_per_iter >= base);
    }
}

#[test]
fn overlap_never_hurts() {
    // Optimized (overlapped) must never be slower than the same
    // workload with the reference (blocking) communication, all else
    // equal — compare at identical storage via the model's variants.
    let m = MachineModel::mi250x_gcd();
    let n = NetworkModel::frontier_slingshot();
    for p in [8usize, 512, 8192] {
        let opt = simulate(&SimConfig::paper_mxp(), &m, &n, p);
        let rf = simulate(
            &SimConfig { variant: ImplVariant::Reference, ..SimConfig::paper_mxp() },
            &m,
            &n,
            p,
        );
        assert!(opt.time_per_iter < rf.time_per_iter);
    }
}

#[test]
fn measured_motif_flops_agree_between_variants() {
    // Optimized vs reference differ in *time*, not in the benchmark's
    // FLOP accounting — except restriction, where the fused kernel
    // legitimately does ~8x less work (§3.2.4's updated accounting).
    let params = tiny_params();
    let opt = run_phase(&params, ImplVariant::Optimized, 1, &PrecisionPolicy::f64());
    let rf = run_phase(&params, ImplVariant::Reference, 1, &PrecisionPolicy::f64());
    assert_eq!(opt.iters, rf.iters);
    for m in [Motif::GaussSeidel, Motif::SpMV, Motif::Ortho] {
        let fo = opt.flops_of(m);
        let fr = rf.flops_of(m);
        assert!((fo - fr).abs() / fr < 1e-9, "{:?}: {} vs {}", m, fo, fr);
    }
    let restr_ratio = rf.flops_of(Motif::Restriction) / opt.flops_of(Motif::Restriction);
    assert!(
        restr_ratio > 4.0,
        "reference restriction must count ~8x the work, got {}",
        restr_ratio
    );
}
