//! End-to-end trace round-trip: a 2-rank GMRES-IR solve with span
//! tracing armed, dumped through the binary per-rank trace file and
//! merged into Chrome trace-event JSON, which must be valid by
//! construction — globally time-sorted, every `"B"` balanced by an
//! `"E"` on the same (pid, tid) track, and with span counts that
//! agree with the solver's own `SolveStats` accounting.
//!
//! This file must stay a single-test binary: the span ring and the
//! mode override are process-global, so a concurrently running test
//! would leak spans into the counted window.

use hpgmxp_comm::{run_spmd, Comm, Timeline};
use hpgmxp_core::config::ImplVariant;
use hpgmxp_core::gmres::GmresOptions;
use hpgmxp_core::gmres_ir::gmres_ir_solve_policy;
use hpgmxp_core::PrecisionPolicy;
use hpgmxp_geometry::ProcGrid;
use hpgmxp_integration_tests::dist_problem;
use hpgmxp_trace::chrome::{merge, summary_table, ChromeTrace};
use hpgmxp_trace::{global, read_trace_file, write_trace_file, Mode};
use std::collections::{HashMap, HashSet};

#[test]
fn two_rank_solve_round_trips_into_valid_chrome_json() {
    hpgmxp_trace::set_mode_override(Mode::Spans);
    let procs = ProcGrid::new(2, 1, 1);
    let per_rank = run_spmd(2, move |c| {
        let mxp = PrecisionPolicy::f32();
        let prob = dist_problem(8, procs, c.rank(), 2, &mxp);
        let tl = Timeline::disabled();
        let opts =
            GmresOptions { max_iters: 200, variant: ImplVariant::Optimized, ..Default::default() };
        let (_, st) = gmres_ir_solve_policy(&c, &prob, &mxp, &opts, &tl);
        (st.converged, st.restarts)
    });
    assert!(per_rank.iter().all(|(conv, _)| *conv), "solve must converge: {per_rank:?}");
    let total_restarts: usize = per_rank.iter().map(|(_, r)| r).sum();

    // Under the thread transport both ranks mirror into this process's
    // one global ring (distinct tids), so one trace file holds the
    // whole job.
    let rec = global();
    assert_eq!(rec.dropped(), 0, "ring wrapped; span counts would be partial");
    let dir = std::env::temp_dir().join(format!("hpgmxp-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace-rank0.bin");
    write_trace_file(&path, 0, rec).unwrap();
    let tf = read_trace_file(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let doc = merge(std::slice::from_ref(&tf));
    assert!(!doc.traceEvents.is_empty());

    // Valid JSON by construction: the document survives a serde
    // round-trip unchanged.
    let json = serde_json::to_string(&doc).unwrap();
    let back: ChromeTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(doc, back);

    // Globally sorted by timestamp.
    assert!(doc.traceEvents.windows(2).all(|w| w[0].ts <= w[1].ts), "ts must be monotone");

    // Balanced B/E nesting per (pid, tid) track, legal phases only.
    let mut depth: HashMap<(u64, u64), i64> = HashMap::new();
    for ev in &doc.traceEvents {
        match ev.ph.as_str() {
            "B" => *depth.entry((ev.pid, ev.tid)).or_insert(0) += 1,
            "E" => {
                let d = depth.entry((ev.pid, ev.tid)).or_insert(0);
                *d -= 1;
                assert!(*d >= 0, "E before B on pid {} tid {}", ev.pid, ev.tid);
            }
            "i" => {}
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(depth.values().all(|d| *d == 0), "unbalanced spans per track: {depth:?}");

    // The solver's own accounting cross-checks the trace: one
    // "gmres cycle" span per restart cycle per rank.
    let cycles = doc.traceEvents.iter().filter(|e| e.ph == "B" && e.name == "gmres cycle").count();
    assert_eq!(cycles, total_restarts, "span count must match SolveStats.restarts");

    // Every instrumented layer shows up: solver, MG, motif kernels,
    // halo engine, collectives.
    let names: HashSet<&str> = doc.traceEvents.iter().map(|e| e.name.as_str()).collect();
    for expected in
        ["gmres cycle", "MG level 0", "SpMV interior", "halo pack", "halo unpack", "allreduce"]
    {
        assert!(names.contains(expected), "missing span {expected:?}; got {names:?}");
    }

    // And the CLI's summary view aggregates them.
    let table = summary_table(&[tf]);
    assert!(table.contains("gmres cycle"), "{table}");
}
