//! The parent process: scrubs the environment, measures the bandwidth
//! ceiling, starts one fresh child per (workload, mode), checks and
//! prints what they report.

use crate::catalog::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use crate::child::Ceiling;
use crate::host;
use crate::json::{self, f64_at, int, num, obj, text, Value};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Where results and traces go, relative to the repo root `run.sh`
/// changes into.
const OUT_DIR: &str = "benchmark/out";
/// STREAM passes per thread count; the best one counts.
const TRIAD_PASSES: usize = 3;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Request {
    pub seed: u64,
    pub seconds: f64,
}

/// Start `--child <mode>` for `w` in a scrubbed environment, the
/// program's own tracing `off` or recording `spans`, and parse the JSON
/// line it prints last.
fn run_child(
    mode: &str,
    w: &Workload,
    req: &Request,
    program_trace: &str,
    extra: &[String],
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", mode, "--workload", w.name])
        .args(["--seed", &req.seed.to_string(), "--seconds", &req.seconds.to_string()])
        .args(extra);
    // Nothing inherited may steer the program: its knobs are all
    // `HPGMXP_*`, the pool size is `RAYON_NUM_THREADS`.
    for name in scrubbed_names() {
        cmd.env_remove(name);
    }
    cmd.env("RAYON_NUM_THREADS", w.threads.to_string()).env("HPGMXP_TRACE", program_trace);
    let out = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {mode} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {mode} child of {} ended with {}", w.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).unwrap_or("");
    let mut v =
        json::parse(line).map_err(|e| format!("the {mode} child printed no result: {e}"))?;
    let env =
        [("RAYON_NUM_THREADS", text(w.threads.to_string())), ("HPGMXP_TRACE", text(program_trace))];
    json::set(&mut v, "env", obj(env));
    Ok(v)
}

/// Names of the inherited variables no child may see.
fn scrubbed_names() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("HPGMXP_") || k == "RAYON_NUM_THREADS")
        .collect();
    names.sort();
    names
}

/// Triad rates at 1 and 2 threads, measured once per parent process.
pub struct Host {
    llc_bytes: u64,
    array_bytes: u64,
    triad_t1: f64,
    triad_t2: f64,
}

pub fn measure_host() -> Host {
    // Without sysfs or procfs, assume a 32 MiB cache and 4 GiB free.
    let llc_bytes = host::llc_bytes().unwrap_or(32 << 20);
    let array_bytes =
        host::triad_array_bytes(llc_bytes, host::mem_available_bytes().unwrap_or(4 << 30));
    let t0 = Instant::now();
    let rates = host::triad_gibs(&[1, 2], array_bytes, TRIAD_PASSES);
    eprintln!(
        "[benchmark] STREAM triad: {:.2} GiB/s at 1 thread, {:.2} GiB/s at 2, arrays of {} MiB \
         (LLC {} MiB), {:.1} s",
        rates[0],
        rates[1],
        array_bytes >> 20,
        llc_bytes >> 20,
        t0.elapsed().as_secs_f64()
    );
    Host { llc_bytes, array_bytes, triad_t1: rates[0], triad_t2: rates[1] }
}

impl Host {
    fn ceiling(&self, w: &Workload) -> Ceiling {
        Ceiling {
            triad_gibs_t1: self.triad_t1,
            triad_gibs_tw: if w.compute_threads() == 1 { self.triad_t1 } else { self.triad_t2 },
            llc_bytes: self.llc_bytes as f64,
            array_bytes: self.array_bytes as f64,
        }
    }
}

/// Every end-to-end metric of an untraced child's report, by name.
pub fn end_to_end_metrics(untraced: &Value) -> Vec<(String, f64)> {
    let timings = untraced.get("timings").expect("timings");
    let values = untraced.get("values").expect("values");
    END_TO_END
        .iter()
        .map(|(name, _)| {
            let v = match timings.get(name) {
                Some(t) => f64_at(t, "median"),
                None => f64_at(values, name),
            };
            (name.to_string(), v)
        })
        .collect()
}

/// Every per-layer metric: the layers child's own, plus what the
/// `HPGMXP_TRACE=spans` child adds by comparison with it.
pub fn per_layer_metrics(layers: &Value, spans: &Value) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = json::pairs(layers.get("metrics").expect("metrics"))
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64().expect("a number")))
        .collect();
    let overhead = f64_at(spans, "solve_s_mxp") / f64_at(layers, "solve_s_mxp") - 1.0;
    out.push(("trace.overhead_frac".into(), overhead));
    out.push(("trace.events_per_solve".into(), f64_at(spans, "events_per_solve")));
    out.push(("trace.dropped_events".into(), f64_at(spans, "dropped_events")));
    out
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
}

fn ops(children: &[&Value]) -> (u64, u64) {
    let sum = |key| children.iter().map(|c| f64_at(c, key) as u64).sum();
    (sum("attempted"), sum("failed"))
}

fn print_failures(children: &[&Value]) {
    for c in children {
        for f in c.get("failures").and_then(Value::as_arr).unwrap_or(&[]) {
            println!("  FAILED {}", f.as_str().unwrap_or("?"));
        }
    }
}

/// Quartiles, sample count and, when given, p95 of a summarized timing.
fn spread(t: &Value) -> String {
    let p95 =
        t.get("p95").and_then(Value::as_f64).map(|v| format!(" p95 {v:.6}")).unwrap_or_default();
    format!("[q1 {:.6} q3 {:.6} n={}{p95}]", f64_at(t, "q1"), f64_at(t, "q3"), f64_at(t, "n"))
}

/// One printed line: workload, name, value, unit, then any detail.
fn print_row(w: &Workload, name: &str, value: impl std::fmt::Display, unit: &str, detail: &str) {
    println!("{:<18} {name:<32} {value:>16} {unit:<8} {detail}", w.name);
}

fn print_metrics(w: &Workload, metrics: &[(String, f64)], timings: Option<&Value>) {
    for (name, v) in metrics {
        let detail = timings.and_then(|t| t.get(name)).map(spread).unwrap_or_default();
        print_row(w, name, format!("{v:.6}"), unit_of(name), &detail);
    }
}

fn stamp(w: &Workload, req: &Request) -> Value {
    obj([
        ("workload", text(w.name)),
        ("policy", text(w.policy)),
        ("local_n", int(w.n as u64)),
        ("ranks", int(w.ranks() as u64)),
        ("seed", int(req.seed)),
        ("seconds", num(req.seconds)),
        ("nproc", int(host::nproc() as u64)),
        ("git_rev", text(std::env::var("BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into()))),
        ("scrubbed_env", Value::Arr(scrubbed_names().into_iter().map(text).collect())),
    ])
}

/// Merge `sections` into `benchmark/out/<workload>.json`, keeping what
/// an earlier pass of the same workload wrote.
fn write_out(w: &Workload, req: &Request, sections: Vec<(&str, Value)>) {
    let path = Path::new(OUT_DIR).join(format!("{}.json", w.name));
    let mut doc = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
        .filter(|v| matches!(v, Value::Obj(_)))
        .unwrap_or_else(|| obj::<String>([]));
    json::set(&mut doc, "stamp", stamp(w, req));
    for (key, v) in sections {
        json::set(&mut doc, key, v);
    }
    std::fs::write(&path, json::pretty(&doc) + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn metrics_value(metrics: &[(String, f64)]) -> Value {
    obj(metrics
        .iter()
        .map(|(name, v)| (name.clone(), obj([("value", num(*v)), ("unit", text(unit_of(name)))]))))
}

/// What one pass over one workload produced.
pub struct Pass {
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

/// The end-to-end pass of `w`: tracing off everywhere.
pub fn untraced_pass(w: &Workload, req: &Request) -> Result<Pass, String> {
    let child = run_child("untraced", w, req, "off", &[])?;
    let metrics = end_to_end_metrics(&child);
    print_metrics(w, &metrics, child.get("timings"));
    let (attempted, failed) = ops(&[&child]);
    print_row(w, "ops_attempted", attempted, "count", "");
    print_row(w, "ops_failed", failed, "count", "");
    let pairs = format!("[{} pairs]", f64_at(&child, "pairs"));
    print_row(w, "wall_s", format!("{:.3}", f64_at(&child, "wall_s")), "s", &pairs);
    print_failures(&[&child]);
    write_out(w, req, vec![("end_to_end", metrics_value(&metrics)), ("untraced", child)]);
    Ok(Pass { metrics, attempted, failed })
}

/// The per-layer pass of `w`: the benchmark's own spans around every
/// layer call, then the same solve with the program's spans armed.
pub fn traced_pass(w: &Workload, req: &Request, host: &Host) -> Result<Pass, String> {
    let c = host.ceiling(w);
    let trace_path = PathBuf::from(OUT_DIR).join(format!("{}.trace.json", w.name));
    let extra = [
        "--ceiling".to_string(),
        format!("{},{},{},{}", c.triad_gibs_t1, c.triad_gibs_tw, c.llc_bytes, c.array_bytes),
        "--trace-path".to_string(),
        trace_path.display().to_string(),
    ];
    let layers = run_child("layers", w, req, "off", &extra)?;
    let spans = run_child("spans", w, req, "spans", &[])?;
    let metrics = per_layer_metrics(&layers, &spans);
    print_metrics(w, &metrics, layers.get("timings"));
    let (attempted, failed) = ops(&[&layers, &spans]);
    print_row(w, "ops_attempted(traced)", attempted, "count", "");
    print_row(w, "ops_failed(traced)", failed, "count", "");
    let wall = f64_at(&layers, "wall_s") + f64_at(&spans, "wall_s");
    let trace = format!("[{}]", trace_path.display());
    print_row(w, "wall_s(traced)", format!("{wall:.3}"), "s", &trace);
    print_failures(&[&layers, &spans]);
    let sections =
        vec![("per_layer", metrics_value(&metrics)), ("layers", layers), ("spans", spans)];
    write_out(w, req, sections);
    Ok(Pass { metrics, attempted, failed })
}

/// The line the contract's driver reads: last on stdout.
pub fn print_contract_line(pass: &Pass) {
    let line = obj([
        ("correct", Value::Bool(pass.failed == 0)),
        ("attempted", int(pass.attempted)),
        ("failed", int(pass.failed)),
        ("metrics", metrics_value(&pass.metrics)),
    ]);
    println!("{}", json::compact(&line));
}

fn value_of(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("{name} not measured")).1
}

/// The multi-rank workload once more over `ShmemWorld` (ungated: single
/// shmem solves spread ~20% on two cores), so the `FramedMesh` merge of
/// ROADMAP item 3 has a before and an after.
fn shmem_pass(w: &Workload, req: &Request) -> Result<u64, String> {
    let child = run_child("shmem", w, req, "off", &[])?;
    for (name, t) in json::pairs(child.get("timings").expect("timings")) {
        let unit = if name.ends_with("_us") { "us" } else { "s" };
        let detail = format!("{} ungated, not in BENCHMARK.json", spread(t));
        print_row(w, name, format!("{:.6}", f64_at(t, "median")), unit, &detail);
    }
    print_failures(&[&child]);
    let failed = ops(&[&child]).1;
    write_out(w, req, vec![("shmem", child)]);
    Ok(failed)
}

/// Every workload, both passes, then what only the set of them shows.
pub fn full_run(req: &Request) -> Result<u64, String> {
    let host = measure_host();
    let mut failed = 0;
    let mut e2e: Vec<(&Workload, Vec<(String, f64)>)> = Vec::new();
    for w in &WORKLOADS {
        println!("{}: {}", w.name, w.why);
        let untraced = untraced_pass(w, req)?;
        let traced = traced_pass(w, req, &host)?;
        failed += untraced.failed + traced.failed;
        if w.ranks() > 1 {
            failed += shmem_pass(w, req)?;
        }
        e2e.push((w, untraced.metrics));
    }
    let of = |workload: &str, metric: &str| {
        value_of(&e2e.iter().find(|(w, _)| w.name == workload).expect("ran").1, metric)
    };
    println!("derived, ungated:");
    println!(
        "  weak-scaling efficiency 1 -> 2 ranks at 32^3 per rank (solve_s_mxp n32_p1_f32 / \
         n32_p2_thread_f32): {:.4}",
        of("n32_p1_f32", "solve_s_mxp") / of("n32_p2_thread_f32", "solve_s_mxp")
    );
    // The stencil's values are exact in fp16, so fp16 storage must not
    // change a single iteration.
    for metric in ["iters_to_tol_mxp", "iters_to_tol_double"] {
        let (a, b) = (of("n64_p1_f32", metric), of("n64_p1_f16s", metric));
        let verdict = if a == b { "match" } else { "DRIFT: a bug" };
        println!("  {metric} n64_p1_f32 {a} vs n64_p1_f16s {b}: {verdict}");
        failed += (a != b) as u64;
    }
    Ok(failed)
}

/// Bound of every end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text)?;
    let list = doc.get("end_to_end").and_then(Value::as_arr).ok_or("no end_to_end list")?;
    Ok(list
        .iter()
        .map(|m| {
            (m.get("name").and_then(Value::as_str).unwrap_or("").to_string(), f64_at(m, "bound"))
        })
        .collect())
}

/// Run every workload's end-to-end pass twice on this build; fail if a
/// metric of the second run is off the first by more than its bound, or
/// an iteration count differs at all.
pub fn selfcheck(req: &Request) -> Result<u64, String> {
    let bounds = bounds()?;
    let mut runs = Vec::new();
    for round in ["first", "second"] {
        println!("selfcheck: {round} run");
        let mut run = Vec::new();
        for w in &WORKLOADS {
            run.push(untraced_pass(w, req)?);
        }
        runs.push(run);
    }
    let mut off = 0;
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (w, (a, b)) in WORKLOADS.iter().zip(runs[0].iter().zip(&runs[1])) {
        off += a.failed + b.failed;
        for (name, bound) in &bounds {
            let (x, y) = (value_of(&a.metrics, name), value_of(&b.metrics, name));
            let diff = (y - x) / x;
            let exact = unit_of(name) == "iters";
            let bad = diff.abs() > *bound || (exact && x != y);
            off += bad as u64;
            let flag = if bad { "  OUT OF BOUND" } else { "" };
            println!(
                "{:<18} {name:<22} {x:>14.6} {y:>14.6} {:>8.2}% {:>6.0}%{flag}",
                w.name,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(off)
}

pub fn ensure_out_dir() -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))
}
