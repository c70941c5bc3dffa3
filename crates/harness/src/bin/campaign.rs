//! The campaign driver: run a declarative experiment spec end to end.
//!
//! ```text
//! cargo run --release -p hpgmxp-harness --bin campaign -- campaigns/policy_sweep.json
//! cargo run --release -p hpgmxp-harness --bin campaign -- campaigns/smoke.json --out smoke.json
//! hpgmxp-launch -n 2 -- target/release/campaign campaigns/smoke.json --out smoke-socket.json
//! cargo run --release -p hpgmxp-harness --bin campaign -- compare a.json b.json
//! ```
//!
//! Prints the aligned-text tables to stdout and writes the versioned
//! JSON report (default: `<campaign-name>.campaign.json` in the
//! current directory; `--out PATH` overrides). Exit status is non-zero
//! on spec errors, execution failures, or a Hybrid byte-reconciliation
//! mismatch — CI treats the reconciliation as an assertion.
//!
//! Under `HPGMXP_COMM=socket` every rank process executes the campaign
//! (the measured cells are SPMD), but only rank 0 prints and writes
//! the report — the others produce identical cells and stay quiet.
//!
//! The `compare` subcommand pins transport independence: it diffs the
//! *deterministic* fields of two reports (solver trajectories, byte
//! counters, statuses — everything except wall-clock-derived rates and
//! the transport stamps themselves) and exits non-zero on any drift,
//! printing each report's `HPGMXP_COMM` configuration. CI runs it
//! across thread/socket/shmem reports of the same campaign.

use hpgmxp_harness::{run_campaign, CampaignReport, CampaignSpec, CellReport};
use std::process::ExitCode;

fn usage() -> String {
    "usage: campaign <spec.json> [--out report.json] [--no-json]\n       \
     campaign compare <a.json> <b.json>"
        .to_string()
}

/// Is this process a non-zero rank of a multi-process (socket or
/// shmem) job? (Rank 0 — and the thread transport — own the terminal
/// and the report file.)
fn quiet_socket_rank() -> bool {
    hpgmxp_comm::Transport::from_env().is_process_per_rank()
        && std::env::var("HPGMXP_RANK").ok().and_then(|v| v.parse::<usize>().ok()) != Some(0)
}

/// The fields of a cell that must not depend on the transport (or the
/// wall clock): identity, solver trajectory, byte counters, verdicts.
/// Rates (`gflops_*`, `total_pflops`), `overlap_efficiency`,
/// `motif_gflops` values, and the `transport` stamp itself are
/// legitimately different between runs.
fn deterministic_view(c: &CellReport) -> impl PartialEq + std::fmt::Debug {
    (
        (c.series.clone(), c.mode, c.policy.clone(), c.nodes, c.ranks, c.status),
        (c.nd, c.nir, c.penalty.map(f64::to_bits)),
        (
            c.bytes_per_iter_rank.map(f64::to_bits),
            c.spmv_value_bytes.map(f64::to_bits),
            c.reconciled,
        ),
        (c.motif_gflops.iter().map(|(l, _)| l.clone()).collect::<Vec<_>>(), c.note.clone()),
    )
}

fn compare(a_path: &str, b_path: &str) -> Result<(), String> {
    let load = |p: &str| -> Result<CampaignReport, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))?;
        CampaignReport::from_json(&text)
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    if a.schema != b.schema {
        return Err(format!(
            "schema mismatch: {a_path} has v{}, {b_path} has v{}",
            a.schema, b.schema
        ));
    }
    if a.campaign != b.campaign {
        return Err(format!(
            "campaign mismatch: {a_path} ran `{}`, {b_path} ran `{}`",
            a.campaign, b.campaign
        ));
    }
    if a.cells.len() != b.cells.len() {
        return Err(format!(
            "cell count mismatch: {a_path} has {}, {b_path} has {}",
            a.cells.len(),
            b.cells.len()
        ));
    }
    let mut transports = (Vec::new(), Vec::new());
    for (i, (ca, cb)) in a.cells.iter().zip(b.cells.iter()).enumerate() {
        let (va, vb) = (deterministic_view(ca), deterministic_view(cb));
        if va != vb {
            return Err(format!(
                "cell {i} (series `{}`, policy `{}`) differs in deterministic fields:\n\
                 {a_path}: {va:#?}\n{b_path}: {vb:#?}",
                ca.series, ca.policy
            ));
        }
        if !transports.0.contains(&ca.transport) {
            transports.0.push(ca.transport.clone());
        }
        if !transports.1.contains(&cb.transport) {
            transports.1.push(cb.transport.clone());
        }
    }
    println!(
        "campaign compare: `{}` — {} cells reconcile identically \
         ({} [comm {}] vs {} [comm {}])",
        a.campaign,
        a.cells.len(),
        transports.0.join("+"),
        a.host.transport,
        transports.1.join("+"),
        b.host.transport,
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = args.as_slice() else { return Err(usage()) };
        return compare(a, b);
    }
    let mut spec_path: Option<String> = None;
    let mut out_path: Option<String> = None;
    let mut write_json = true;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = Some(it.next().ok_or_else(usage)?.clone());
            }
            "--no-json" => write_json = false,
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag {flag}\n{}", usage()))
            }
            path => {
                if spec_path.replace(path.to_string()).is_some() {
                    return Err(usage());
                }
            }
        }
    }
    let spec_path = spec_path.ok_or_else(usage)?;
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let spec =
        CampaignSpec::from_json(&text).map_err(|e| format!("cannot parse {spec_path}: {e}"))?;

    let report = run_campaign(&spec)?;
    if quiet_socket_rank() {
        // This process was one rank of the SPMD job; rank 0 reports.
        return Ok(());
    }
    print!("{}", report.to_text());

    if write_json {
        let out = out_path.unwrap_or_else(|| format!("{}.campaign.json", spec.name));
        std::fs::write(&out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("\nJSON report (schema v{}): {out}", report.schema);
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("campaign: {e}");
            ExitCode::FAILURE
        }
    }
}
