//! What a child process does: one workload in one mode, reported as
//! one JSON line on stdout. The rayon pool size and the program's
//! `HPGMXP_TRACE` mode are latched per process, so the parent starts a
//! fresh child for every (workload, mode).

use crate::adapter::{self, Comm, LayerOps, Problem, RankBody, Shape, SolveOut, Stop};
use crate::catalog::{Dims, Workload, MIN_PAIRS, MIN_TOL_SOLVES, SETUP_REPS, TOL_SHARE};
use crate::host;
use crate::json::{int, num, obj, summary, text, Value};
use crate::spans::{chrome_trace, Spans};
use crate::stats::{median, summarize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One workload with the seed its problem is generated from and the
/// seconds its timed loop measures for.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub w: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
}

impl Run {
    fn shape(&self) -> Shape {
        Shape { n: self.w.n, procs: self.w.procs, seed: self.seed }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    MxpFixed,
    DoubleFixed,
    MxpTol,
    DoubleTol,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::MxpFixed => "core.solve_mxp_fixed",
            Kind::DoubleFixed => "core.solve_double_fixed",
            Kind::MxpTol => "core.solve_mxp_tol",
            Kind::DoubleTol => "core.solve_double_tol",
        }
    }

    fn fixed(self) -> bool {
        matches!(self, Kind::MxpFixed | Kind::DoubleFixed)
    }
}

struct Record {
    kind: Kind,
    out: SolveOut,
}

/// One solve of `kind` on `p` (the mixed or the double problem, to
/// match), ranks lined up first so a multi-rank time is the slowest
/// rank's time of the same solve.
fn solve<C: Comm>(comm: &C, sp: &mut Spans, kind: Kind, p: &Problem, record: bool) -> Record {
    adapter::allreduce_max(comm, 0.0);
    let span = sp.begin(kind.name());
    let stop = if kind.fixed() { Stop::FixedCycle } else { Stop::Tolerance };
    let out = match kind {
        Kind::MxpFixed | Kind::MxpTol => adapter::solve_mxp(comm, p, stop, record),
        Kind::DoubleFixed | Kind::DoubleTol => adapter::solve_double(comm, p, stop, record),
    };
    sp.end(span);
    Record { kind, out }
}

/// Solves attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Why solve `i` (one record per rank) fails, if it does. `first` is
/// rank 0's earliest record of the same kind: solves are deterministic,
/// so every repeat must reproduce its residual bit for bit.
fn failure(i: usize, ranks: &[&Record], first: &Record) -> Option<String> {
    let r0 = &ranks[0].out;
    let same = |a: &SolveOut, b: &SolveOut| {
        a.iters == b.iters
            && a.converged == b.converged
            && a.final_relres.to_bits() == b.final_relres.to_bits()
    };
    let why = if ranks.iter().any(|r| !same(&r.out, r0)) {
        "ranks disagree on iterations or residual".to_string()
    } else if !r0.final_relres.is_finite() {
        format!("residual {}", r0.final_relres)
    } else if !same(r0, &first.out) {
        format!(
            "not bit-identical to its first repeat: {} iters relres {:e} vs {} iters relres {:e}",
            r0.iters, r0.final_relres, first.out.iters, first.out.final_relres
        )
    } else if ranks[0].kind.fixed() {
        if r0.iters == adapter::FIXED_ITERS {
            return None;
        }
        format!("ran {} iterations, not {}", r0.iters, adapter::FIXED_ITERS)
    } else {
        let max_err = ranks.iter().map(|r| r.out.max_err).fold(0.0f64, f64::max);
        if !r0.converged || r0.final_relres > adapter::TOLERANCE {
            format!("did not converge: relres {:e}", r0.final_relres)
        } else if max_err > 1e-6 {
            format!("max |x - 1| = {max_err:e} > 1e-6")
        } else {
            return None;
        }
    };
    Some(format!("solve {i} ({}): {why}", ranks[0].kind.name()))
}

fn verify(by_rank: &[Vec<Record>]) -> Verdict {
    let mut v = Verdict::default();
    for i in 0..by_rank[0].len() {
        let ranks: Vec<&Record> = by_rank.iter().map(|r| &r[i]).collect();
        let first = by_rank[0].iter().find(|r| r.kind == ranks[0].kind).expect("record i itself");
        v.attempted += 1;
        if let Some(why) = failure(i, &ranks, first) {
            v.failed += 1;
            v.failures.push(why);
        }
    }
    v
}

/// Slowest rank's seconds of each solve of `kind`, in run order.
fn times(by_rank: &[Vec<Record>], kind: Kind) -> Vec<f64> {
    (0..by_rank[0].len())
        .filter(|&i| by_rank[0][i].kind == kind)
        .map(|i| by_rank.iter().map(|r| r[i].out.wall_s).fold(0.0f64, f64::max))
        .collect()
}

fn iters_of(records: &[Record], kind: Kind) -> f64 {
    records.iter().find(|r| r.kind == kind).expect("a solve of every kind").out.iters as f64
}

fn finish(kind: &str, run: &Run, v: Verdict, started: Instant, rest: Vec<(&str, Value)>) -> Value {
    let mut pairs = vec![
        ("kind", text(kind)),
        ("workload", text(run.w.name)),
        ("attempted", int(v.attempted)),
        ("failed", int(v.failed)),
        ("failures", Value::Arr(v.failures.into_iter().map(text).collect())),
        ("simd", text(adapter::simd_descriptor())),
        ("wall_s", num(started.elapsed().as_secs_f64())),
    ];
    pairs.extend(rest);
    obj(pairs)
}

/// Connect a world and assemble the mixed problem on every rank;
/// seconds from before the connect to the slowest rank's last row.
struct Setup<'a> {
    run: &'a Run,
    t0: Instant,
}

impl RankBody for Setup<'_> {
    type Out = f64;
    fn run<C: Comm>(&self, comm: &C) -> f64 {
        let p = adapter::assemble(&self.run.shape(), comm.rank(), self.run.w.policy);
        let s = self.t0.elapsed().as_secs_f64();
        drop(p);
        s
    }
}

fn setup_once(run: &Run) -> f64 {
    let body = Setup { run, t0: Instant::now() };
    adapter::run_world(run.w.ranks(), &body).into_iter().fold(0.0f64, f64::max)
}

struct Untraced<'a> {
    run: &'a Run,
    t0: Instant,
}

struct UntracedOut {
    setup_s: f64,
    rss_mib: f64,
    records: Vec<Record>,
}

impl RankBody for Untraced<'_> {
    type Out = UntracedOut;
    fn run<C: Comm>(&self, comm: &C) -> UntracedOut {
        let run = self.run;
        let sp = &mut Spans::new(self.t0, 0);
        let mxp = adapter::assemble(&run.shape(), comm.rank(), run.w.policy);
        let setup_s = self.t0.elapsed().as_secs_f64();

        // Warm-up; then the peak resident set, before the double
        // problem exists.
        let mut records = vec![solve(comm, sp, Kind::MxpFixed, &mxp, false)];
        adapter::allreduce_max(comm, 0.0);
        let rss_mib = host::vm_hwm_mib();
        adapter::allreduce_max(comm, 0.0);
        let dbl = adapter::assemble(&run.shape(), comm.rank(), "f64");

        // Pairs of fixed-iteration solves, alternating which goes first
        // so drift over the run falls on both sides alike. Every rank
        // must reach the same decision to stop, hence the reduction.
        let phase = Instant::now();
        for pair in 0.. {
            let order = if pair % 2 == 0 {
                [(Kind::MxpFixed, &mxp), (Kind::DoubleFixed, &dbl)]
            } else {
                [(Kind::DoubleFixed, &dbl), (Kind::MxpFixed, &mxp)]
            };
            for (kind, p) in order {
                records.push(solve(comm, sp, kind, p, false));
            }
            let elapsed = adapter::allreduce_max(comm, phase.elapsed().as_secs_f64());
            if pair + 1 >= MIN_PAIRS && elapsed >= run.seconds {
                break;
            }
        }
        let phase = Instant::now();
        for solved in 1.. {
            records.push(solve(comm, sp, Kind::MxpTol, &mxp, false));
            let elapsed = adapter::allreduce_max(comm, phase.elapsed().as_secs_f64());
            if solved >= MIN_TOL_SOLVES && elapsed >= run.seconds * TOL_SHARE {
                break;
            }
        }
        records.push(solve(comm, sp, Kind::DoubleTol, &dbl, false));
        UntracedOut { setup_s, rss_mib, records }
    }
}

/// The end-to-end pass: every timing as median, quartiles and count.
pub fn untraced(run: &Run) -> Value {
    let started = Instant::now();
    let mut setup: Vec<f64> = (1..SETUP_REPS).map(|_| setup_once(run)).collect();
    let body = Untraced { run, t0: Instant::now() };
    let outs = adapter::run_world(run.w.ranks(), &body);
    setup.push(outs.iter().map(|o| o.setup_s).fold(0.0f64, f64::max));
    let rss = outs.iter().map(|o| o.rss_mib).fold(0.0f64, f64::max);
    let by_rank: Vec<Vec<Record>> = outs.into_iter().map(|o| o.records).collect();

    // Few enough samples to keep every one next to its summary.
    let with_samples = |seconds: &[f64]| {
        let mut v = summary(&summarize(seconds));
        crate::json::set(&mut v, "samples", Value::Arr(seconds.iter().map(|&s| num(s)).collect()));
        v
    };
    let pairs = times(&by_rank, Kind::DoubleFixed).len();
    let rest = vec![
        (
            "timings",
            obj([
                // The first fixed mixed solve warmed the process up.
                ("solve_s_mxp", with_samples(&times(&by_rank, Kind::MxpFixed)[1..])),
                ("solve_s_double", with_samples(&times(&by_rank, Kind::DoubleFixed))),
                ("tol_solve_s_mxp", with_samples(&times(&by_rank, Kind::MxpTol))),
                ("tol_solve_s_double", with_samples(&times(&by_rank, Kind::DoubleTol))),
                ("setup_s", with_samples(&setup)),
            ]),
        ),
        (
            "values",
            obj([
                ("iters_to_tol_mxp", num(iters_of(&by_rank[0], Kind::MxpTol))),
                ("iters_to_tol_double", num(iters_of(&by_rank[0], Kind::DoubleTol))),
                ("rss_mxp_mib", num(rss)),
            ]),
        ),
        ("pairs", int(pairs as u64)),
    ];
    finish("untraced", run, verify(&by_rank), started, rest)
}

/// Spans one rank's buffer holds: a replay loop records at most
/// `MAX_CALLS` and there are about forty loops.
const SPAN_CAPACITY: usize = 1 << 18;
/// Calls in one replay loop.
const MIN_CALLS: usize = 5;
const MAX_CALLS: usize = 4096;
/// Share of `--seconds` one replay loop measures for.
const REPLAY_SHARE: f64 = 0.025;
/// Times the assembly pieces are replayed for a median.
const SETUP_PIECE_REPS: usize = 3;
/// Timed fixed solves of the in-situ part, mixed and double.
const IN_SITU_MXP: usize = 3;
const IN_SITU_DOUBLE: usize = 2;

/// Seconds of every call of every replay loop, by loop name.
type Samples = BTreeMap<&'static str, Vec<f64>>;
const ALLREDUCE: &str = "comm.allreduce";

/// Call `call` on `target` for about `box_s` seconds and time each
/// call; `prep` runs before each call, outside the clock. The number of
/// calls comes from a three-call calibration reduced over the ranks, so
/// ranks that communicate inside `call` stay in step.
#[allow(clippy::too_many_arguments)]
fn replay_prepped<C: Comm, T: ?Sized>(
    comm: &C,
    sp: &mut Spans,
    samples: &mut Samples,
    name: &'static str,
    box_s: f64,
    target: &mut T,
    prep: impl Fn(&mut T),
    call: impl Fn(&mut T),
) {
    adapter::allreduce_max(comm, 0.0);
    let t0 = Instant::now();
    for _ in 0..3 {
        prep(target);
        call(target);
    }
    let per_call = adapter::allreduce_max(comm, t0.elapsed().as_secs_f64() / 3.0);
    let calls = ((box_s / per_call) as usize).clamp(MIN_CALLS, MAX_CALLS);
    let mut seconds = Vec::with_capacity(calls);
    let outer = sp.begin("replay");
    for _ in 0..calls {
        prep(target);
        let span = sp.begin(name);
        let t0 = Instant::now();
        call(target);
        seconds.push(t0.elapsed().as_secs_f64());
        sp.end(span);
    }
    sp.end(outer);
    samples.insert(name, seconds);
}

/// [`replay_prepped`] with nothing to prepare.
fn replay<C: Comm, T: ?Sized>(
    comm: &C,
    sp: &mut Spans,
    samples: &mut Samples,
    name: &'static str,
    box_s: f64,
    target: &mut T,
    call: impl Fn(&mut T),
) {
    replay_prepped(comm, sp, samples, name, box_s, target, |_| {}, call);
}

/// Span and sample names of the layer calls under one precision mapping.
struct Names {
    spmv: &'static str,
    gs_sweep: &'static str,
    restrict: &'static str,
    dot: &'static str,
    waxpby: &'static str,
    vcycle: &'static str,
    cgs2: &'static str,
    halo: &'static str,
}

const LO: Names = Names {
    spmv: "sparse.spmv.lo",
    gs_sweep: "sparse.gs_sweep.lo",
    restrict: "sparse.restrict.lo",
    dot: "sparse.dot.lo",
    waxpby: "sparse.waxpby.lo",
    vcycle: "core.vcycle.lo",
    cgs2: "core.cgs2.lo",
    halo: "comm.halo_exchange.lo",
};

const F64: Names = Names {
    spmv: "sparse.spmv.f64",
    gs_sweep: "sparse.gs_sweep.f64",
    restrict: "sparse.restrict.f64",
    dot: "sparse.dot.f64",
    waxpby: "sparse.waxpby.f64",
    vcycle: "core.vcycle.f64",
    cgs2: "core.cgs2.f64",
    halo: "comm.halo_exchange.f64",
};

fn replay_layers<C: Comm>(
    comm: &C,
    sp: &mut Spans,
    samples: &mut Samples,
    box_s: f64,
    names: &Names,
    p: &Problem,
    lo: bool,
) {
    let mut bench = adapter::layer_bench(comm, p, lo);
    let ops: &mut (dyn LayerOps<C> + '_) = &mut *bench;
    replay(comm, sp, samples, names.spmv, box_s, ops, |o| o.spmv(comm, p));
    replay(comm, sp, samples, names.gs_sweep, box_s, ops, |o| o.gs_sweep(comm, p));
    replay(comm, sp, samples, names.restrict, box_s, ops, |o| o.restrict(comm, p));
    replay(comm, sp, samples, names.dot, box_s, ops, |o| o.dot());
    replay(comm, sp, samples, names.waxpby, box_s, ops, |o| o.waxpby());
    replay(comm, sp, samples, names.vcycle, box_s, ops, |o| o.vcycle(comm, p));
    let (reset, cgs2) = (
        |o: &mut (dyn LayerOps<C> + '_)| o.cgs2_reset(),
        |o: &mut (dyn LayerOps<C> + '_)| o.cgs2(comm),
    );
    replay_prepped(comm, sp, samples, names.cgs2, box_s, ops, reset, cgs2);
    replay(comm, sp, samples, names.halo, box_s, ops, |o| o.halo_exchange(comm, p));
}

struct Layers<'a> {
    run: &'a Run,
    t0: Instant,
}

struct LayersOut {
    spans: Spans,
    samples: Samples,
    /// Seconds of the single-shot steps (assembly and its pieces).
    scalars: BTreeMap<&'static str, f64>,
    dims_lo: Dims,
    dims_f64: Dims,
    halo_bytes: usize,
    convert_bytes: usize,
    /// The last one ran under `Timeline::enabled()`.
    records: Vec<Record>,
    /// Allreduces and collective bytes of the timed mixed solves.
    coll: Option<(u64, u64)>,
}

impl RankBody for Layers<'_> {
    type Out = LayersOut;
    fn run<C: Comm>(&self, comm: &C) -> LayersOut {
        let (run, rank) = (self.run, comm.rank());
        let mut spans = Spans::new(self.t0, SPAN_CAPACITY);
        let sp = &mut spans;
        let mut samples = Samples::new();
        let mut scalars = BTreeMap::new();
        let root = sp.begin("workload");

        let mut assemble = |sp: &mut Spans, name, policy| {
            let span = sp.begin(name);
            let t0 = Instant::now();
            let p = adapter::assemble(&run.shape(), rank, policy);
            scalars.insert(name, t0.elapsed().as_secs_f64());
            sp.end(span);
            p
        };
        let mxp = assemble(sp, "core.assemble", run.w.policy);
        let dbl = assemble(sp, "core.assemble_double", "f64");

        let mut pieces: [Vec<f64>; 4] = Default::default();
        for _ in 0..SETUP_PIECE_REPS {
            let span = sp.begin("setup_pieces");
            let (hierarchy, plan) = adapter::time_geometry(&run.shape(), rank);
            let (coloring, ell) = adapter::time_sparse_setup(&mxp, run.seed);
            sp.end(span);
            for (list, s) in pieces.iter_mut().zip([hierarchy, plan, coloring, ell]) {
                list.push(s);
            }
        }
        let piece_names =
            ["geometry.hierarchy", "geometry.halo_plan", "sparse.coloring", "sparse.ell_build"];
        for (name, list) in piece_names.into_iter().zip(&pieces) {
            scalars.insert(name, median(list));
        }

        let box_s = run.seconds * REPLAY_SHARE;
        replay_layers(comm, sp, &mut samples, box_s, &LO, &mxp, true);
        replay_layers(comm, sp, &mut samples, box_s, &F64, &dbl, false);
        let mut buf = [1.0f64; adapter::ALLREDUCE_LEN];
        replay(comm, sp, &mut samples, ALLREDUCE, box_s, &mut buf, |b| {
            adapter::allreduce_once(comm, b)
        });
        let dims_lo = mxp.fine_dims(true);
        let mut convert = adapter::ConvertBench::new(dims_lo.rows * dims_lo.ell_width);
        replay(comm, sp, &mut samples, "sparse.widen_f16", box_s, &mut convert, |c| c.widen());
        replay(comm, sp, &mut samples, "sparse.narrow_f16", box_s, &mut convert, |c| c.narrow());

        // In situ: the converged solves warm each side up and give the
        // iteration penalty; the fixed ones are read for what the
        // program reports about itself.
        let span = sp.begin("in_situ");
        let mut records = vec![
            solve(comm, sp, Kind::MxpTol, &mxp, false),
            solve(comm, sp, Kind::DoubleTol, &dbl, false),
        ];
        let coll_before = adapter::coll_counts(comm);
        for _ in 0..IN_SITU_MXP {
            records.push(solve(comm, sp, Kind::MxpFixed, &mxp, false));
        }
        let coll = coll_before.zip(adapter::coll_counts(comm)).map(|(a, b)| (b.0 - a.0, b.1 - a.1));
        for _ in 0..IN_SITU_DOUBLE {
            records.push(solve(comm, sp, Kind::DoubleFixed, &dbl, false));
        }
        // Last: the one solve under `Timeline::enabled()`.
        records.push(solve(comm, sp, Kind::MxpFixed, &mxp, true));
        sp.end(span);
        sp.end(root);

        LayersOut {
            samples,
            scalars,
            dims_lo,
            dims_f64: dbl.fine_dims(false),
            halo_bytes: mxp.halo_send_bytes(true),
            convert_bytes: convert.bytes_per_call(),
            records,
            coll,
            spans,
        }
    }
}

/// The bandwidth ceiling the parent measured in this run.
#[derive(Debug, Clone, Copy)]
pub struct Ceiling {
    pub triad_gibs_t1: f64,
    pub triad_gibs_tw: f64,
    pub llc_bytes: f64,
    pub array_bytes: f64,
}

/// Per-call microseconds of loop `name`, each call the slowest rank's.
fn slowest_us(ranks: &[&Samples], name: &str) -> Vec<f64> {
    let per_rank: Vec<&Vec<f64>> = ranks.iter().map(|s| &s[name]).collect();
    (0..per_rank[0].len())
        .map(|i| per_rank.iter().map(|s| s[i]).fold(0.0f64, f64::max) * 1e6)
        .collect()
}

/// The per-layer pass: replay every layer call under the benchmark's
/// own spans, read the in-situ solves, write the Chrome trace.
pub fn layers(run: &Run, ceiling: &Ceiling, trace_path: &std::path::Path) -> Value {
    let started = Instant::now();
    let body = Layers { run, t0: started };
    let mut outs = adapter::run_world(run.w.ranks(), &body);
    let ranks = outs.len() as f64;
    let samples: Vec<Samples> = outs.iter_mut().map(|o| std::mem::take(&mut o.samples)).collect();
    let samples: Vec<&Samples> = samples.iter().collect();

    let mut metrics: Vec<(String, Value)> = vec![
        ("host.triad_gibs_t1".into(), num(ceiling.triad_gibs_t1)),
        ("host.triad_gibs_tw".into(), num(ceiling.triad_gibs_tw)),
        ("host.llc_bytes".into(), num(ceiling.llc_bytes)),
        ("host.triad_array_bytes".into(), num(ceiling.array_bytes)),
    ];
    let mut timings: Vec<(String, Value)> = Vec::new();
    let mut metric = |name: String, v: f64| metrics.push((name, num(v)));

    // Replay loops: median microseconds per call, keyed like the metric;
    // where the kernel's bytes are computable, achieved GiB/s of all
    // ranks over the ceiling.
    let (lo, f64_) = (outs[0].dims_lo, outs[0].dims_f64);
    let bytes: [(&Names, Dims); 2] = [(&LO, lo), (&F64, f64_)];
    for (names, d) in bytes {
        let loops = [
            (names.spmv, Some(d.spmv())),
            (names.gs_sweep, Some(d.gs_sweep())),
            (names.dot, Some(d.dot())),
            (names.waxpby, Some(d.waxpby())),
            (names.restrict, None),
            (names.vcycle, None),
            (names.cgs2, Some(d.cgs2(adapter::CGS2_K))),
            (names.halo, None),
        ];
        for (name, bytes) in loops {
            let us = summarize(&slowest_us(&samples, name));
            metric(format!("{name}_us"), us.median);
            if let Some(bytes) = bytes {
                let gibs = ranks * bytes as f64 / (us.median / 1e6) / host::GIB;
                metric(format!("{name}_roof"), gibs / ceiling.triad_gibs_tw);
            }
            timings.push((format!("{name}_us"), summary(&us)));
        }
    }
    let allreduce = summarize(&slowest_us(&samples, ALLREDUCE));
    metric("comm.allreduce_us".into(), allreduce.median);
    timings.push(("comm.allreduce_us".into(), summary(&allreduce)));
    let convert_us: f64 = ["sparse.widen_f16", "sparse.narrow_f16"]
        .iter()
        .map(|name| median(&slowest_us(&samples, name)))
        .sum();
    let convert_bytes = 2.0 * ranks * outs[0].convert_bytes as f64;
    metric("sparse.convert_f16.gibs".into(), convert_bytes / (convert_us / 1e6) / host::GIB);

    let slowest_scalar = |name: &str| outs.iter().map(|o| o.scalars[name]).fold(0.0f64, f64::max);
    metric("core.assemble_s".into(), slowest_scalar("core.assemble"));
    metric("core.assemble_double_s".into(), slowest_scalar("core.assemble_double"));
    for name in ["sparse.coloring", "sparse.ell_build", "geometry.hierarchy", "geometry.halo_plan"]
    {
        metric(format!("{name}_ms"), slowest_scalar(name) * 1e3);
    }

    // Program-reported, from the `SolveStats` the solve calls return.
    let by_rank: Vec<Vec<Record>> =
        outs.iter_mut().map(|o| std::mem::take(&mut o.records)).collect();
    let solve_s_mxp = median(&times(&by_rank, Kind::MxpFixed)[..IN_SITU_MXP]);
    let solve_s_double = median(&times(&by_rank, Kind::DoubleFixed));
    let sum_over_ranks = |kind: Kind, f: fn(&SolveOut) -> f64| -> f64 {
        by_rank.iter().map(|r| f(&r.iter().find(|r| r.kind == kind).expect("kind ran").out)).sum()
    };
    let fixed = adapter::FIXED_ITERS as f64;
    let mut unattributed = 1.0;
    for (m, name) in adapter::MOTIF_NAMES.iter().enumerate() {
        // Mean over the ranks of the motif's share of that rank's solve.
        let share = by_rank
            .iter()
            .map(|r| {
                let out = &r.iter().find(|r| r.kind == Kind::MxpFixed).expect("kind ran").out;
                out.motif_seconds[m] / out.wall_s
            })
            .sum::<f64>()
            / ranks;
        unattributed -= share;
        metric(format!("core.motif_share.{name}"), share);
    }
    metric("core.motif_share.unattributed".into(), unattributed);
    let bytes_mxp = sum_over_ranks(Kind::MxpFixed, |o| o.bytes) / fixed;
    let bytes_double = sum_over_ranks(Kind::DoubleFixed, |o| o.bytes) / fixed;
    let flops = sum_over_ranks(Kind::MxpFixed, |o| o.flops) / fixed;
    let (n_ir, n_d) = (iters_of(&by_rank[0], Kind::MxpTol), iters_of(&by_rank[0], Kind::DoubleTol));
    let penalty = (n_d / n_ir).min(1.0);
    metric("core.bytes_per_iter.mxp".into(), bytes_mxp);
    metric("core.bytes_per_iter.double".into(), bytes_double);
    metric("core.bytes_ratio".into(), bytes_double / bytes_mxp);
    metric("core.flops_per_iter".into(), flops);
    metric("core.penalty".into(), penalty);
    metric("core.speedup_penalized".into(), penalty * solve_s_double / solve_s_mxp);
    metric("core.gflops_penalized".into(), penalty * flops * fixed / solve_s_mxp / 1e9);

    metric("comm.halo_bytes".into(), outs[0].halo_bytes as f64);
    let recorded = by_rank.iter().map(|r| &r.last().expect("solves ran").out);
    let wait = recorded.clone().map(|o| o.exposed_wait_s.unwrap_or(0.0) / o.wall_s);
    metric("comm.exposed_wait_share".into(), wait.fold(0.0f64, f64::max));
    // No exchange recorded (one rank) means nothing was exposed.
    let hidden = recorded.map(|o| o.overlap_efficiency.unwrap_or(1.0));
    metric("comm.overlap_efficiency".into(), hidden.fold(1.0f64, f64::min));
    let (allreduces, coll_bytes) = outs[0].coll.unwrap_or((0, 0));
    let iters = (IN_SITU_MXP * adapter::FIXED_ITERS) as f64;
    metric("comm.allreduces_per_iter".into(), allreduces as f64 / iters);
    metric("comm.coll_bytes_per_iter".into(), coll_bytes as f64 / iters);

    let all_spans: Vec<Spans> = outs.into_iter().map(|o| o.spans).collect();
    std::fs::write(trace_path, chrome_trace(&all_spans, run.w.name))
        .unwrap_or_else(|e| panic!("writing {}: {e}", trace_path.display()));
    let span_totals = all_spans[0].totals().into_iter().map(|(name, t)| {
        let totals =
            [("count", int(t.count)), ("total_s", num(t.total_s)), ("self_s", num(t.self_s))];
        (name, obj(totals))
    });
    let rest = vec![
        ("metrics", Value::Obj(metrics)),
        ("timings", Value::Obj(timings)),
        ("solve_s_mxp", num(solve_s_mxp)),
        ("spans_rank0", obj(span_totals)),
        ("spans_dropped", int(all_spans.iter().map(Spans::dropped).sum())),
    ];
    finish("layers", run, verify(&by_rank), started, rest)
}

/// Timed fixed solves of the `HPGMXP_TRACE=spans` pass.
const SPANS_MODE_SOLVES: usize = 2;

struct SpansMode<'a> {
    run: &'a Run,
}

impl RankBody for SpansMode<'_> {
    type Out = (Vec<Record>, usize);
    fn run<C: Comm>(&self, comm: &C) -> Self::Out {
        let sp = &mut Spans::new(Instant::now(), 0);
        let mxp = adapter::assemble(&self.run.shape(), comm.rank(), self.run.w.policy);
        let mut records = vec![solve(comm, sp, Kind::MxpFixed, &mxp, false)];
        adapter::allreduce_max(comm, 0.0);
        let before = adapter::trace_ring_counts().0;
        for _ in 0..SPANS_MODE_SOLVES {
            records.push(solve(comm, sp, Kind::MxpFixed, &mxp, false));
        }
        adapter::allreduce_max(comm, 0.0);
        (records, adapter::trace_ring_counts().0 - before)
    }
}

/// The same fixed solve with the program's own span recording armed
/// (the parent set `HPGMXP_TRACE=spans`): what it costs, what it
/// records, what its ring drops.
pub fn spans_mode(run: &Run) -> Value {
    let started = Instant::now();
    let outs = adapter::run_world(run.w.ranks(), &SpansMode { run });
    let events = outs[0].1;
    let by_rank: Vec<Vec<Record>> = outs.into_iter().map(|o| o.0).collect();
    let rest = vec![
        ("solve_s_mxp", num(median(&times(&by_rank, Kind::MxpFixed)[1..]))),
        ("events_per_solve", num(events as f64 / SPANS_MODE_SOLVES as f64)),
        ("dropped_events", num(adapter::trace_ring_counts().1 as f64)),
    ];
    finish("spans", run, verify(&by_rank), started, rest)
}

/// Fixed solves of the shared-memory pass.
const SHMEM_SOLVES: usize = 5;

struct Shmem<'a> {
    run: &'a Run,
}

impl RankBody for Shmem<'_> {
    type Out = (Vec<Record>, Samples);
    fn run<C: Comm>(&self, comm: &C) -> Self::Out {
        let run = self.run;
        let sp = &mut Spans::new(Instant::now(), 0);
        let mut samples = Samples::new();
        let mxp = adapter::assemble(&run.shape(), comm.rank(), run.w.policy);
        let records =
            (0..=SHMEM_SOLVES).map(|_| solve(comm, sp, Kind::MxpFixed, &mxp, false)).collect();
        let box_s = run.seconds * REPLAY_SHARE;
        let mut bench = adapter::layer_bench(comm, &mxp, true);
        let ops: &mut (dyn LayerOps<C> + '_) = &mut *bench;
        replay(comm, sp, &mut samples, LO.halo, box_s, ops, |o| o.halo_exchange(comm, &mxp));
        let mut buf = [1.0f64; adapter::ALLREDUCE_LEN];
        replay(comm, sp, &mut samples, ALLREDUCE, box_s, &mut buf, |b| {
            adapter::allreduce_once(comm, b)
        });
        (records, samples)
    }
}

/// The multi-rank workload again over in-process `ShmemWorld` ranks.
/// Writes `/dev/shm`, so only the full human run starts it.
pub fn shmem(run: &Run) -> Value {
    let started = Instant::now();
    let shm_id = format!("benchmark-{}", std::process::id());
    let outs = adapter::run_world_shmem(run.w.ranks(), &shm_id, &Shmem { run });
    let samples: Vec<&Samples> = outs.iter().map(|o| &o.1).collect();
    let halo = summarize(&slowest_us(&samples, LO.halo));
    let allreduce = summarize(&slowest_us(&samples, ALLREDUCE));
    let by_rank: Vec<Vec<Record>> = outs.into_iter().map(|o| o.0).collect();
    let rest = vec![(
        "timings",
        obj([
            ("comm.shmem.solve_s_mxp", summary(&summarize(&times(&by_rank, Kind::MxpFixed)[1..]))),
            ("comm.shmem.halo_exchange_us", summary(&halo)),
            ("comm.shmem.allreduce_us", summary(&allreduce)),
        ]),
    )];
    finish("shmem", run, verify(&by_rank), started, rest)
}
