//! `msx` — regenerate the paper's tables and figures, and run
//! fleet-scale scenarios.
//!
//! ```text
//! msx table1 [--quick] [--seeds N]
//! msx fig8   [--quick] [--seeds N]
//! msx fig9   [--quick] [--seeds N] [--max-n N]
//! msx fig10  [--quick] [--seeds N]
//! msx ablate [--quick]
//! msx all    [--quick] [--seeds N] [--max-n N]
//! msx scenarios list
//! msx scenarios run --profile <stadium|commute|flash-crowd|lossy-wifi|metro> [--seed N] [--threads N] [--sanitize] [--weather NAME]
//! msx scenarios matrix [--smoke] [--seed N] [--threads N]
//! msx lint [--rules] [--root DIR]
//! ```
//!
//! Text tables print to stdout; JSON copies land in `./results/`
//! (fleet reports under `./results/scenarios/`).

use std::num::NonZeroU64;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use experiments::report::{Cell, Table};
use experiments::{fleet, weather, ExpOptions, ARTIFACTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let quick = args.iter().any(|a| a == "--quick");
    let seeds: Option<NonZeroU64> = arg(&args, "--seeds");
    let max_n: u32 = arg(&args, "--max-n").unwrap_or(8);

    let mut opts = if quick {
        ExpOptions::quick()
    } else {
        ExpOptions::default()
    };
    if let Some(s) = seeds {
        opts.seeds = s.get();
    }

    let out = PathBuf::from("results");
    let started = std::time::Instant::now();

    match cmd {
        "scenarios" => scenarios_cmd(&args, &out),
        "lint" => lint_cmd(&args),
        _ => {
            let chosen: Vec<_> = ARTIFACTS
                .into_iter()
                .filter(|&(name, _)| cmd == "all" || cmd == name)
                .collect();
            if chosen.is_empty() {
                eprintln!(
                    "unknown command '{cmd}'; use table1|fig8|fig9|fig10|ablate|scenarios|lint|all"
                );
                std::process::exit(2);
            }
            for (name, run) in chosen {
                eprintln!("[msx] {name}...");
                for (json, t) in run(opts, max_n) {
                    println!("{}", t.render());
                    if let Err(e) = t.save_json(&out, &json) {
                        eprintln!("[msx] cannot write {}/{json}.json: {e}", out.display());
                        std::process::exit(1);
                    }
                }
            }
        }
    }
    eprintln!("[msx] done in {:.1}s", started.elapsed().as_secs_f64());
}

/// The value following `name` in `args`: `None` when the flag is
/// absent, an error naming the flag when its value is missing or does
/// not parse as a `T`.
fn flag<T: FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid value '{v}' for {name}")),
        None => Err(format!("{name} needs a value")),
    }
}

/// [`flag`], exiting with status 2 on a missing or malformed value.
fn arg<T: FromStr>(args: &[String], name: &str) -> Option<T> {
    flag(args, name).unwrap_or_else(|e| {
        eprintln!("[msx] {e}");
        std::process::exit(2)
    })
}

/// `msx lint [--rules] [--root DIR]` — run the determinism lint pass
/// over every `crates/*/src` file. Exits 1 on any finding, 2 if the
/// workspace cannot be read. See `crates/simlint` and the README's
/// "Determinism rules" section for the rule catalogue.
fn lint_cmd(args: &[String]) {
    if args.iter().any(|a| a == "--rules") {
        println!("simlint rules:");
        for r in simlint::RULES {
            println!("  {}  {}", r.id, r.summary);
            println!("        {}", r.rationale);
        }
        println!("  L100  an allow directive that suppressed nothing");
        println!("  L101  a malformed allow directive");
        println!("\nsuppress with a comment: simlint::allow(RULE): reason");
        return;
    }
    let root: PathBuf = arg(args, "--root").unwrap_or_else(|| PathBuf::from("."));
    match simlint::lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("[msx] lint clean: no determinism findings");
        }
        Ok(findings) => {
            for f in &findings {
                eprintln!("{f}");
            }
            eprintln!("[msx] lint: {} finding(s)", findings.len());
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!(
                "[msx] lint: cannot read workspace at {}: {e}",
                root.display()
            );
            std::process::exit(2);
        }
    }
}

fn scenarios_cmd(args: &[String], out: &Path) {
    let sub = args.get(1).map(String::as_str).unwrap_or("list");
    match sub {
        "list" => {
            println!("available scenario profiles:");
            for name in fleet::PROFILE_NAMES {
                let cfg = fleet::profile(name, 1).expect("built-in profile");
                println!(
                    "  {name:<12} {} regions × {} phones = {} total, {:.0}s sim",
                    cfg.regions.len(),
                    cfg.regions.first().map(|r| r.phones).unwrap_or(0),
                    cfg.total_phones(),
                    cfg.duration.as_secs_f64(),
                );
            }
            println!("available weather programs (see README, \"Fault model & network weather\"):");
            for name in weather::WEATHER_NAMES {
                println!("  {name}");
            }
        }
        "run" => {
            let name: String = arg(args, "--profile").unwrap_or_else(|| "stadium".into());
            let seed: u64 = arg(args, "--seed").unwrap_or(1);
            let threads: usize = arg(args, "--threads").unwrap_or(1);
            let Some(mut cfg) = fleet::profile(&name, seed) else {
                eprintln!(
                    "unknown profile '{name}'; available: {}",
                    fleet::PROFILE_NAMES.join(", ")
                );
                std::process::exit(2);
            };
            cfg.threads = threads.max(1);
            cfg.sanitize = args.iter().any(|a| a == "--sanitize");
            if let Some(wname) = arg::<String>(args, "--weather") {
                let Some(program) = weather::weather(&wname, seed, cfg.topo()) else {
                    eprintln!(
                        "unknown weather '{wname}'; available: {}",
                        weather::WEATHER_NAMES.join(", ")
                    );
                    std::process::exit(2);
                };
                cfg.weather = Some(program);
            }
            eprintln!(
                "[msx] scenario '{name}' seed {seed}: {} regions × ~{} phones ({} total), {:.0}s sim...",
                cfg.regions.len(),
                cfg.regions.first().map(|r| r.phones).unwrap_or(0),
                cfg.total_phones(),
                cfg.duration.as_secs_f64(),
            );
            let r = fleet::run_fleet(&cfg);
            if cfg.sanitize {
                eprintln!(
                    "[msx] causality sanitizer: {} windows clean, ledger {:#018x}",
                    r.sanitizer_windows, r.sanitizer_ledger
                );
            }
            println!("{}", fleet_table(&r).render());
            let dir = out.join("scenarios");
            match r.save_json(&dir) {
                Ok(path) => eprintln!(
                    "[msx] report: {} (digest {:#018x})",
                    path.display(),
                    r.digest
                ),
                Err(e) => eprintln!("[msx] failed to write report: {e}"),
            }
            let faults = report_faults(&r);
            if !faults.is_empty() {
                for f in &faults {
                    eprintln!("[msx] FAIL: {f}");
                }
                std::process::exit(1);
            }
        }
        "matrix" => matrix_cmd(args, out),
        other => {
            eprintln!("unknown scenarios subcommand '{other}'; use list|run|matrix");
            std::process::exit(2);
        }
    }
}

/// The per-report conditions that make `scenarios run`/`matrix` fail:
/// causality violations, pool aliasing, a missed recovery SLO, or a
/// round committed twice across a heal.
fn report_faults(r: &fleet::FleetReport) -> Vec<String> {
    let mut faults = Vec::new();
    if r.sanitizer_violations > 0 {
        faults.push(format!(
            "causality sanitizer recorded {} violation(s)",
            r.sanitizer_violations
        ));
    }
    if r.pool_aliasing > 0 {
        faults.push(format!(
            "event pool recorded {} generation mismatch(es) (aliased slot)",
            r.pool_aliasing
        ));
    }
    if r.slo_violations > 0 {
        faults.push(format!(
            "{} fault window(s) missed the {:.0}s recovery SLO",
            r.slo_violations, r.recovery_slo_s
        ));
    }
    if r.duplicate_commits > 0 {
        faults.push(format!(
            "{} checkpoint round(s) committed more than once",
            r.duplicate_commits
        ));
    }
    faults
}

/// `msx scenarios matrix [--smoke] [--seed N] [--threads N]`
///
/// Runs the full profile × weather grid. Every cell runs twice under
/// the causality sanitizer — once single-threaded, once with
/// `--threads` workers (default 4) — and the two digests must be
/// bit-identical. Emits a per-cell regression table (commit rate,
/// recovery p50/p99, cellular drops/rejects) plus a machine-readable
/// `results/scenarios/matrix.json` whose fields are all deterministic,
/// so two runs of the same binary can be diffed byte-for-byte.
/// `--smoke` shrinks every profile to 3 regions × ≤8 phones over 360 s
/// for CI. Exits nonzero on any digest mismatch, sanitizer violation,
/// missed recovery SLO, or double-committed round.
fn matrix_cmd(args: &[String], out: &Path) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 = arg(args, "--seed").unwrap_or(1);
    let threads = arg::<usize>(args, "--threads").unwrap_or(4).max(2);
    eprintln!(
        "[msx] scenario matrix: {} profiles × {} weathers, seed {seed}, digests at 1 vs {threads} threads{}...",
        fleet::PROFILE_NAMES.len(),
        weather::WEATHER_NAMES.len(),
        if smoke { " (smoke scale)" } else { "" },
    );

    let mut labels = Vec::new();
    let mut jobs = Vec::new();
    for &pname in fleet::PROFILE_NAMES {
        for &wname in weather::WEATHER_NAMES {
            labels.push((pname, wname));
            jobs.push(move || {
                let mut cfg = fleet::profile(pname, seed).expect("built-in profile");
                if smoke {
                    cfg.shrink_to_smoke();
                }
                cfg.weather = weather::weather(wname, seed, cfg.topo());
                cfg.sanitize = true;
                cfg.threads = 1;
                let r1 = fleet::run_fleet(&cfg);
                let mut cfg_n = cfg.clone();
                cfg_n.threads = threads;
                let rn = fleet::run_fleet(&cfg_n);
                (r1, rn)
            });
        }
    }
    // Full-scale cells are too big to overlap safely; smoke cells fan
    // out across cores.
    let results = experiments::run_jobs(smoke, jobs);

    let mut t = Table::new(
        format!("scenario matrix (seed {seed})"),
        vec![
            "profile/weather".into(),
            "commits/s".into(),
            "rec p50 s".into(),
            "rec p99 s".into(),
            "drops".into(),
            "rejects".into(),
            "slo miss".into(),
            "dup".into(),
        ],
    );
    let num_or_dash = |x: f64| if x >= 0.0 { Cell::Num(x) } else { Cell::Dash };
    let mut cells_json = Vec::new();
    let mut failures = Vec::new();
    for ((pname, wname), (r1, rn)) in labels.iter().zip(&results) {
        let label = format!("{pname}/{wname}");
        if r1.digest != rn.digest {
            failures.push(format!(
                "{label}: digest {:#018x} at 1 thread vs {:#018x} at {threads}",
                r1.digest, rn.digest
            ));
        }
        // Pooled slots never cross shards, so recycling is a pure
        // function of the schedule — any divergence means the pool
        // leaked into the parallel schedule.
        if r1.pool_recycled != rn.pool_recycled {
            failures.push(format!(
                "{label}: pool recycling diverged: {} at 1 thread vs {} at {threads}",
                r1.pool_recycled, rn.pool_recycled
            ));
        }
        for (tag, r) in [("1 thread", r1), ("multi-thread", rn)] {
            for f in report_faults(r) {
                failures.push(format!("{label} ({tag}): {f}"));
            }
        }
        t.row(
            label.as_str(),
            vec![
                Cell::Num(r1.checkpoint_commits as f64 / r1.sim_secs.max(1e-9)),
                num_or_dash(r1.recovery_p50_s),
                num_or_dash(r1.recovery_p99_s),
                Cell::Num(r1.cell_drops as f64),
                Cell::Num(r1.cell_rejects as f64),
                Cell::Num(r1.slo_violations as f64),
                Cell::Num(r1.duplicate_commits as f64),
            ],
        );
        // Deterministic fields only, so matrix.json diffs clean across
        // runs of the same binary (no wall-clock, no host data).
        cells_json.push(serde_json::json!({
            "profile": pname,
            "weather": wname,
            "events": r1.events_processed,
            "digest": format!("{:#018x}", r1.digest),
            "digest_threads_equal": r1.digest == rn.digest,
            "checkpoint_commits": r1.checkpoint_commits,
            "weather_injections": r1.weather_injections,
            "fault_windows": r1.fault_timelines.len(),
            "recovery_p50_s": r1.recovery_p50_s,
            "recovery_p99_s": r1.recovery_p99_s,
            "cell_drops": r1.cell_drops,
            "cell_rejects": r1.cell_rejects,
            "cell_severed_sends": r1.cell_severed_sends,
            "severed_observed": r1.severed_observed,
            "slo_violations": r1.slo_violations,
            "duplicate_commits": r1.duplicate_commits,
            "sanitizer_violations": r1.sanitizer_violations.max(rn.sanitizer_violations),
            "pool_recycled": r1.pool_recycled,
            "pool_aliasing": r1.pool_aliasing.max(rn.pool_aliasing),
        }));
    }
    println!("{}", t.render());

    let dir = out.join("scenarios");
    let doc = serde_json::json!({
        "seed": seed,
        "smoke": smoke,
        "threads_compared": vec![1usize, threads],
        "cells": cells_json,
        "failures": failures,
    });
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("[msx] cannot create {}: {e}", dir.display());
    } else {
        let path = dir.join("matrix.json");
        match std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serialize matrix") + "\n",
        ) {
            Ok(()) => eprintln!("[msx] matrix report: {}", path.display()),
            Err(e) => eprintln!("[msx] failed to write {}: {e}", path.display()),
        }
    }

    if failures.is_empty() {
        println!(
            "[msx] matrix OK: {} cells, digests thread-count-invariant, no sanitizer/SLO/commit faults",
            results.len()
        );
    } else {
        for f in &failures {
            eprintln!("[msx] FAIL: {f}");
        }
        std::process::exit(1);
    }
}

fn fleet_table(r: &fleet::FleetReport) -> Table {
    let mut t = Table::new(
        format!("scenario '{}' (seed {})", r.profile, r.seed),
        vec!["metric".into(), "value".into()],
    );
    t.row("regions", vec![Cell::Num(r.regions as f64)]);
    t.row("phones", vec![Cell::Num(r.phones as f64)]);
    t.row("sim seconds", vec![Cell::Num(r.sim_secs)]);
    t.row(
        "events processed",
        vec![Cell::Num(r.events_processed as f64)],
    );
    t.row("events/sec (wall)", vec![Cell::Num(r.events_per_sec)]);
    t.row("churn: failures", vec![Cell::Num(r.churn_failures as f64)]);
    t.row(
        "churn: departures",
        vec![Cell::Num(r.churn_departures as f64)],
    );
    t.row("churn: rejoins", vec![Cell::Num(r.churn_rejoins as f64)]);
    t.row("sink outputs", vec![Cell::Num(r.outputs as f64)]);
    t.row("mean tput (tuple/s)", vec![Cell::Num(r.mean_throughput)]);
    t.row(
        "mean latency (s)",
        vec![if r.mean_latency_s >= 0.0 {
            Cell::Num(r.mean_latency_s)
        } else {
            Cell::Dash
        }],
    );
    t.row("recoveries", vec![Cell::Num(r.recoveries as f64)]);
    t.row("mean recovery (s)", vec![Cell::Num(r.mean_recovery_s)]);
    t.row(
        "departures handled",
        vec![Cell::Num(r.departures_handled as f64)],
    );
    t.row("region stops", vec![Cell::Num(r.region_stops as f64)]);
    t.row(
        "checkpoint commits",
        vec![Cell::Num(r.checkpoint_commits as f64)],
    );
    t.row("wifi MB", vec![Cell::Num(r.wifi_total_bytes as f64 / 1e6)]);
    t.row(
        "cellular MB",
        vec![Cell::Num(r.cell_total_bytes as f64 / 1e6)],
    );
    t.row("cellular drops", vec![Cell::Num(r.cell_drops as f64)]);
    t.row(
        "cellular max queue KB",
        vec![Cell::Num(r.cell_max_queue_depth as f64 / 1024.0)],
    );
    for (i, (&d, &q)) in r
        .per_region_cell_drops
        .iter()
        .zip(&r.per_region_cell_max_queue_depth)
        .enumerate()
    {
        t.row(
            format!("  region {i} drops / maxq KB"),
            vec![Cell::Num(d as f64), Cell::Num(q as f64 / 1024.0)],
        );
    }
    if !r.weather.is_empty() {
        let num_or_dash = |x: f64| if x >= 0.0 { Cell::Num(x) } else { Cell::Dash };
        t.row(
            format!("weather '{}' injections", r.weather),
            vec![Cell::Num(r.weather_injections as f64)],
        );
        t.row(
            "severed episodes seen",
            vec![Cell::Num(r.severed_observed as f64)],
        );
        t.row(
            "cell severed sends",
            vec![Cell::Num(r.cell_severed_sends as f64)],
        );
        t.row(
            "cell queue-drop KB",
            vec![Cell::Num(r.cell_queue_drop_bytes as f64 / 1024.0)],
        );
        t.row("cell rejects", vec![Cell::Num(r.cell_rejects as f64)]);
        t.row("recovery SLO (s)", vec![num_or_dash(r.recovery_slo_s)]);
        t.row(
            "recovery p50 / p99 (s)",
            vec![num_or_dash(r.recovery_p50_s), num_or_dash(r.recovery_p99_s)],
        );
        t.row("SLO violations", vec![Cell::Num(r.slo_violations as f64)]);
        t.row(
            "duplicate commits",
            vec![Cell::Num(r.duplicate_commits as f64)],
        );
        for tl in &r.fault_timelines {
            t.row(
                format!(
                    "  region {} fault {:.0}s heal {:.0}s: recovery s",
                    tl.region, tl.fault_at_s, tl.heal_at_s
                ),
                vec![num_or_dash(tl.recovery_s)],
            );
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flag_parses_present_values_and_ignores_absent_flags() {
        let a = args("fig9 --quick --seeds 2 --max-n 3");
        assert_eq!(flag::<u64>(&a, "--seeds"), Ok(Some(2)));
        assert_eq!(flag::<u32>(&a, "--max-n"), Ok(Some(3)));
        assert_eq!(flag::<usize>(&a, "--threads"), Ok(None));
        let p = args("scenarios run --profile metro");
        assert_eq!(flag::<String>(&p, "--profile"), Ok(Some("metro".into())));
    }

    #[test]
    fn flag_rejects_malformed_missing_and_zero_values_by_name() {
        for line in ["fig8 --seeds x", "fig8 --quick --seeds 0", "fig8 --seeds"] {
            let err = flag::<NonZeroU64>(&args(line), "--seeds").expect_err(line);
            assert!(err.contains("--seeds"), "{line}: {err}");
        }
        let err = flag::<u32>(&args("fig9 --max-n -1"), "--max-n").unwrap_err();
        assert!(err.contains("--max-n"), "{err}");
        let err = flag::<usize>(&args("scenarios run --threads zero"), "--threads").unwrap_err();
        assert!(err.contains("--threads") && err.contains("zero"), "{err}");
    }
}
