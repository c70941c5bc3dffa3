//! The repo benchmark. `benchmark/run.sh` builds and starts this binary
//! from the repo root; see `benchmark/README.md` for the protocol, the
//! workloads and what every metric means.
//!
//! ```text
//! run.sh                                  every workload, both passes, printed
//! run.sh --workload W --trace 0|1         one pass of one workload, then the
//!        [--seed N] [--seconds S]         contract's JSON line last on stdout
//! run.sh --selfcheck                      end-to-end passes twice, compared
//! ```

mod adapter;
mod catalog;
mod child;
mod driver;
mod host;
mod json;
mod spans;
mod stats;

use catalog::{workload, DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS};
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    selfcheck: bool,
    /// Set by the parent only.
    child: Option<String>,
    ceiling: Option<String>,
    trace_path: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad("outside (0, 60]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                })
            }
            "--child" => args.child = Some(value),
            "--ceiling" => args.ceiling = Some(value),
            "--trace-path" => args.trace_path = Some(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn parse_ceiling(s: &str) -> Option<child::Ceiling> {
    let v: Vec<f64> = s.split(',').map(|x| x.parse().ok()).collect::<Option<_>>()?;
    let [triad_gibs_t1, triad_gibs_tw, llc_bytes, array_bytes] = v[..] else { return None };
    Some(child::Ceiling { triad_gibs_t1, triad_gibs_tw, llc_bytes, array_bytes })
}

fn run(args: Args) -> Result<u64, String> {
    let req = driver::Request {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
    };
    let w = match &args.workload {
        Some(name) => Some(workload(name).ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("no workload {name:?}; there are {names:?}")
        })?),
        None => None,
    };

    if let Some(mode) = &args.child {
        let run = child::Run {
            w: w.ok_or("--child needs --workload")?,
            seed: req.seed,
            seconds: req.seconds,
        };
        let report = match mode.as_str() {
            "untraced" => child::untraced(&run),
            "layers" => {
                let ceiling =
                    args.ceiling.as_deref().and_then(parse_ceiling).ok_or("bad --ceiling")?;
                let path = args.trace_path.ok_or("layers needs --trace-path")?;
                child::layers(&run, &ceiling, std::path::Path::new(&path))
            }
            "spans" => child::spans_mode(&run),
            "shmem" => child::shmem(&run),
            _ => return Err(format!("unknown child mode {mode}")),
        };
        println!("{}", json::compact(&report));
        return Ok(0);
    }

    // Two ranks, or two pool threads, on one core would time the
    // scheduler, not the program.
    if host::nproc() < 2 {
        return Err(format!("the workloads need 2 cores; this host offers {}", host::nproc()));
    }
    driver::ensure_out_dir()?;
    match (w, args.selfcheck) {
        (_, true) => driver::selfcheck(&req),
        (None, false) => driver::full_run(&req),
        (Some(w), false) => {
            let traced = args.trace.ok_or("--workload needs --trace 0 or --trace 1")?;
            let pass = if traced {
                driver::traced_pass(w, &req, &driver::measure_host())?
            } else {
                driver::untraced_pass(w, &req)?
            };
            driver::print_contract_line(&pass);
            // The line reports failed solves itself; the run completed.
            Ok(0)
        }
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(run) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(failed) => {
            eprintln!("[benchmark] {failed} check(s) failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[benchmark] {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalog::{Workload, END_TO_END, PER_LAYER};
    use json::Value;

    /// The workloads' code paths at a size a test can afford.
    static TINY_P1: Workload = Workload {
        name: "tiny_p1",
        n: 16,
        procs: (1, 1, 1),
        threads: 1,
        policy: "f16s-f32c",
        why: "",
    };
    static TINY_P2: Workload =
        Workload { name: "tiny_p2", n: 16, procs: (2, 1, 1), threads: 1, policy: "f32", why: "" };

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn strings<'a>(list: &'a Value, key: &str) -> Vec<&'a str> {
        list.as_arr().unwrap().iter().map(|m| m.get(key).unwrap().as_str().unwrap()).collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_catalog_does() {
        let doc = benchmark_json();
        let workloads = doc.get("workloads").unwrap();
        assert_eq!(strings(workloads, "name"), WORKLOADS.map(|w| w.name));
        assert_eq!(strings(workloads, "why"), WORKLOADS.map(|w| w.why));

        let e2e = doc.get("end_to_end").unwrap();
        assert_eq!(strings(e2e, "name"), END_TO_END.map(|m| m.0));
        assert_eq!(strings(e2e, "unit"), END_TO_END.map(|m| m.1));
        assert!(strings(e2e, "better").iter().all(|&b| b == "lower"));
        let bounds: Vec<f64> =
            e2e.as_arr().unwrap().iter().map(|m| json::f64_at(m, "bound")).collect();
        assert!(bounds.iter().all(|b| (0.0..=0.25).contains(b)), "{bounds:?}");
        let setup = END_TO_END.iter().position(|m| m.0 == "setup_s").unwrap();
        assert_eq!(bounds[setup], bounds.iter().copied().fold(0.0, f64::max), "largest bound");

        let per_layer = doc.get("per_layer").unwrap();
        assert_eq!(strings(per_layer, "name"), PER_LAYER.map(|m| m.0));
        assert_eq!(strings(per_layer, "unit"), PER_LAYER.map(|m| m.1));
        let better = PER_LAYER.map(|m| if m.2 { "higher" } else { "lower" });
        assert_eq!(strings(per_layer, "better"), better);

        assert_eq!(json::f64_at(&doc, "run_seconds"), DEFAULT_SECONDS);
        let paths = doc.get("paths").unwrap().as_arr().unwrap();
        assert_eq!(paths.iter().map(|p| p.as_str().unwrap()).collect::<Vec<_>>(), ["benchmark"]);
    }

    fn assert_names_and_values(metrics: &[(String, f64)], declared: &[&str]) {
        let names: Vec<&str> = metrics.iter().map(|m| m.0.as_str()).collect();
        let (mut got, mut want) = (names.clone(), declared.to_vec());
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for (name, v) in metrics {
            assert!(v.is_finite(), "{name} = {v}");
        }
    }

    #[test]
    fn every_declared_metric_is_emitted_on_one_rank_and_on_two() {
        for w in [&TINY_P1, &TINY_P2] {
            let run = child::Run { w, seed: 7, seconds: 0.05 };
            let untraced = child::untraced(&run);
            assert_eq!(json::f64_at(&untraced, "failed"), 0.0, "{untraced:?}");
            let e2e = driver::end_to_end_metrics(&untraced);
            assert_names_and_values(&e2e, &END_TO_END.map(|m| m.0));
            assert!(e2e.iter().all(|m| m.1 > 0.0), "end-to-end metrics are never 0: {e2e:?}");

            let ceiling = child::Ceiling {
                triad_gibs_t1: 10.0,
                triad_gibs_tw: 20.0,
                llc_bytes: 1e6,
                array_bytes: 4e6,
            };
            let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
            std::fs::create_dir_all(&out).unwrap();
            let trace_path = out.join(format!("test-{}.trace.json", w.name));
            let layers = child::layers(&run, &ceiling, &trace_path);
            assert_eq!(json::f64_at(&layers, "failed"), 0.0, "{layers:?}");
            assert_eq!(json::f64_at(&layers, "spans_dropped"), 0.0);
            let trace = json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
            std::fs::remove_file(&trace_path).unwrap();
            let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
            let lanes = events.iter().map(|e| json::f64_at(e, "tid") as usize).max().unwrap() + 1;
            assert_eq!(lanes, w.ranks(), "one lane per rank");

            let spans = child::spans_mode(&run);
            let per_layer = driver::per_layer_metrics(&layers, &spans);
            assert_names_and_values(&per_layer, &PER_LAYER.map(|m| m.0));
        }
    }

    #[test]
    fn computed_bytes_match_what_the_library_reports() {
        let shape = adapter::Shape { n: 16, procs: (1, 1, 1), seed: 1 };
        for (policy, lo) in [("f32", true), ("f16s-f32c", true), ("f64", false)] {
            let p = adapter::assemble(&shape, 0, policy);
            let d = p.fine_dims(lo);
            let (value_bytes, matrix_bytes) = p.fine_ell_bytes(lo);
            assert_eq!(d.rows * d.ell_width * d.value_bytes, value_bytes, "{policy}");
            assert_eq!(d.ell_matrix(), matrix_bytes, "{policy}");
            assert_eq!((d.rows, d.ell_width), (16 * 16 * 16, 27));
        }
        let half = adapter::assemble(&shape, 0, "f16s-f32c").fine_dims(true);
        assert_eq!((half.value_bytes, half.vec_bytes), (2, 4), "fp16 stored, f32 computed");
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload n32_p1_f32 --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("n32_p1_f32"), Some(9), Some(2.5), Some(true))
        );
        assert!(parse("--selfcheck").unwrap().selfcheck);
        for bad in
            ["--seed", "--seed x", "--seconds 0", "--seconds 61", "--trace 2", "--frobnicate 1"]
        {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
