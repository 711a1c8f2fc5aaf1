//! Command line: the contract run of one workload, `all` (every
//! workload, each in its own process), `check` (two sets, A/A) and
//! `manifest` (print the `BENCHMARK.json` the registry renders to).

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Value};

use crate::bench::{run, Metric, RunArgs, RunResult};
use crate::host::host_block;
use crate::registry::{manifest, COUNT_METRICS, END_TO_END, RUN_SECONDS};
use crate::stats::{compare, Quartiles, Verdict};
use crate::workloads::Workload;

const USAGE: &str = "usage:
  msbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run of one workload
  msbench all   [--seed <n>] [--seconds <s>] [--trace <0|1>]         every workload, own process each
  msbench check [--seed <n>] [--seconds <s>]                         two full sets (A/A) compared
  msbench manifest                                                   regenerate BENCHMARK.json from the registry
workloads: stadium, stadium-2t, testbed-sweep, commute-storm";

/// Where results and traces are written, relative to the working
/// directory (the checkout root; `results/` is git-ignored).
const RESULTS_DIR: &str = "results/msbench";

/// Marks the line of a run's output that carries its full detail.
const DETAIL_TAG: &str = "MSBENCH-DETAIL ";

/// Parsed flags.
#[derive(Debug, Clone, PartialEq)]
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                flags.workload =
                    Some(Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                flags.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                flags.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                flags.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(flags)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (sub, rest) = match args.first().map(String::as_str) {
        Some(s @ ("all" | "check" | "manifest")) => (s, &args[1..]),
        _ => ("run", args),
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("msbench: {e}\n{USAGE}");
            return 2;
        }
    };
    match (sub, flags.workload) {
        ("manifest", _) => {
            println!("{}", manifest().render_pretty(2));
            0
        }
        ("all", _) => exit_code(all(&flags)),
        ("check", _) => exit_code(check(&flags)),
        (_, Some(workload)) => exit_code(run_one(workload, &flags)),
        (_, None) => {
            eprintln!("msbench: --workload is required\n{USAGE}");
            2
        }
    }
}

/// 0 when everything ran and every check passed.
fn exit_code(outcome: Result<bool, String>) -> i32 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("msbench: {e}");
            1
        }
    }
}

// ---------------------------------------------------------------------
// One run

fn hex(words: &[u64]) -> Vec<String> {
    words.iter().map(|w| format!("{w:016x}")).collect()
}

fn metric_json(m: &Metric) -> Value {
    let mut obj = vec![
        ("value".to_string(), json!(m.value)),
        ("unit".to_string(), json!(m.unit)),
    ];
    if let Some(q) = m.quartiles {
        obj.push(("q1".to_string(), json!(q.q1)));
        obj.push(("q3".to_string(), json!(q.q3)));
        obj.push(("n".to_string(), json!(q.n as u64)));
    }
    Value::Obj(obj)
}

/// The contract's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric exactly `value` and `unit`.
pub fn result_line(r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            )
        })
        .collect();
    json!({
        "correct": r.correct(),
        "attempted": r.attempted,
        "failed": r.failures.len() as u64,
        "metrics": Value::Obj(metrics),
    })
    .render()
}

fn detail_line(workload: Workload, flags: &Flags, host: &Value, r: &RunResult) -> String {
    let metrics = r
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), metric_json(m)))
        .collect();
    json!({
        "workload": workload.name(),
        "seed": flags.seed,
        "seconds": flags.seconds,
        "trace": flags.trace,
        "correct": r.correct(),
        "attempted": r.attempted,
        "failed": r.failures.len() as u64,
        "failures": r.failures,
        "fingerprints": hex(&r.fingerprints),
        "digests": hex(&r.digests),
        "host": host,
        "metrics": Value::Obj(metrics),
    })
    .render()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One run of one workload; whether every rep was correct.
fn run_one(workload: Workload, flags: &Flags) -> Result<bool, String> {
    let host = host_block();
    println!(
        "msbench {} --seed {} --seconds {} --trace {}   host {}",
        workload.name(),
        flags.seed,
        flags.seconds,
        u8::from(flags.trace),
        host.render()
    );
    let result = run(&RunArgs {
        sims_of: &|seed| workload.sims(seed),
        seed: flags.seed,
        seconds: flags.seconds,
        trace: flags.trace,
    });
    println!(
        "canonical digests (sub-seed 0): {}",
        hex(&result.digests).join(" ")
    );
    println!("fingerprints: {}", hex(&result.fingerprints).join(" "));
    for m in &result.metrics {
        match m.quartiles {
            Some(q) => println!(
                "{:40} {:>16.6} {:6} q1 {:.6} q3 {:.6} n {}{}",
                m.name,
                m.value,
                m.unit,
                q.q1,
                q.q3,
                q.n,
                bound_note(m.name, &q)
            ),
            None => println!("{:40} {:>16.6} {}", m.name, m.value, m.unit),
        }
    }
    println!(
        "reps attempted {} failed {}",
        result.attempted,
        result.failures.len()
    );
    for f in &result.failures {
        println!("FAILED {f}");
    }
    if let Some(spans) = &result.spans {
        let path = PathBuf::from(RESULTS_DIR).join(format!(
            "trace-{}-seed{}.json",
            workload.name(),
            flags.seed
        ));
        write_file(&path, &spans.render())?;
        println!("spans written to {}", path.display());
    }
    println!(
        "{DETAIL_TAG}{}",
        detail_line(workload, flags, &host, &result)
    );
    println!("{}", result_line(&result));
    Ok(result.correct())
}

/// `  unresolved` when the reps' own spread exceeds the metric's bound.
fn bound_note(name: &str, q: &Quartiles) -> &'static str {
    match END_TO_END.iter().find(|m| m.name == name) {
        Some(m) if q.spread() > m.bound => "  unresolved (inter-quartile range exceeds the bound)",
        _ => "",
    }
}

// ---------------------------------------------------------------------
// Sets of runs

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

/// The parsed detail of one workload's runs within a set.
struct Runs {
    workload: Workload,
    plain: Value,
    traced: Option<Value>,
}

/// Run one workload in a child process of this same binary. A run with
/// a failed rep exits non-zero but still prints its detail, which is
/// what a set reports; only a run without detail is an error.
fn spawn_run(w: Workload, flags: &Flags, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &flags.seed.to_string()])
        .args(["--seconds", &flags.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_TAG))
        .ok_or(format!(
            "{} exited with {} and no detail line: {}",
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ))?;
    serde_json::from_str(detail).map_err(|e| format!("{} detail: {e}", w.name()))
}

/// Check what only a set can check, write the set's JSON and print its
/// summary; whether the set is sound.
fn finish_set(runs: &[Runs], flags: &Flags, label: &str) -> Result<bool, String> {
    let mut ok = true;
    for Runs {
        workload,
        plain,
        traced,
    } in runs
    {
        ok &= plain["correct"] == Value::Bool(true);
        if let Some(t) = traced {
            ok &= t["correct"] == Value::Bool(true);
            // The traced reps simulate sub-seed 0: same fingerprint.
            let same = matches!(
                (&plain["fingerprints"], &t["fingerprints"]),
                (Value::Arr(p), Value::Arr(t)) if !p.is_empty() && p.first() == t.first()
            );
            if !same {
                println!(
                    "FAILED {}: traced fingerprint differs from untraced",
                    workload.name()
                );
                ok = false;
            }
        }
    }
    let fp = |w: Workload| {
        runs.iter()
            .find(|r| r.workload == w)
            .map(|r| &r.plain["fingerprints"])
    };
    if fp(Workload::Stadium) != fp(Workload::Stadium2t) {
        println!("FAILED stadium-2t: fingerprints differ from stadium's");
        ok = false;
    }

    let doc = Value::Obj(
        runs.iter()
            .map(|r| {
                (
                    r.workload.name().to_string(),
                    json!({"end_to_end": r.plain, "per_layer": r.traced}),
                )
            })
            .collect(),
    );
    let path = PathBuf::from(RESULTS_DIR).join(format!("{label}-seed{}.json", flags.seed));
    write_file(&path, &doc.render_pretty(2))?;
    println!("\n== {label}: results written to {}", path.display());
    for r in runs {
        print!("{:14}", r.workload.name());
        for m in END_TO_END {
            let v = num(&r.plain["metrics"][m.name]["value"]).unwrap_or(f64::NAN);
            print!(" {} {v:.5}", m.name);
        }
        println!(
            "  failed {}/{}",
            num(&r.plain["failed"]).unwrap_or(f64::NAN),
            num(&r.plain["attempted"]).unwrap_or(f64::NAN),
        );
    }
    println!("== {label}: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// Every workload (untraced, and traced when asked), one process at a
/// time.
fn all(flags: &Flags) -> Result<bool, String> {
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        runs.push(Runs {
            workload,
            plain: spawn_run(workload, flags, false)?,
            traced: flags
                .trace
                .then(|| spawn_run(workload, flags, true))
                .transpose()?,
        });
    }
    finish_set(&runs, flags, "all")
}

/// The quartiles a run reported for a metric (a single value is its
/// own quartiles).
fn quartiles_of(metric: &Value) -> Option<Quartiles> {
    let value = num(&metric["value"])?;
    Some(
        match (num(&metric["q1"]), num(&metric["q3"]), num(&metric["n"])) {
            (Some(q1), Some(q3), Some(n)) => Quartiles {
                q1,
                median: value,
                q3,
                n: n as usize,
            },
            _ => Quartiles::of(&[value])?,
        },
    )
}

/// A/A: two full sets of the same code must agree within the
/// benchmark's own bounds.
fn check(flags: &Flags) -> Result<bool, String> {
    // This host's speed drifts by tens of percent over minutes, so the
    // two sets interleave: A's and B's run of a workload are back to
    // back and the drift lands on both.
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for workload in Workload::ALL {
        let plain_a = spawn_run(workload, flags, false)?;
        let plain_b = spawn_run(workload, flags, false)?;
        let traced_a = spawn_run(workload, flags, true)?;
        let traced_b = spawn_run(workload, flags, true)?;
        a.push(Runs {
            workload,
            plain: plain_a,
            traced: Some(traced_a),
        });
        b.push(Runs {
            workload,
            plain: plain_b,
            traced: Some(traced_b),
        });
    }
    let mut ok = finish_set(&a, flags, "check-a")?;
    ok &= finish_set(&b, flags, "check-b")?;
    println!("\n== check: set A against set B");
    for (ra, rb) in a.iter().zip(&b) {
        let w = ra.workload;
        for m in END_TO_END {
            let (ma, mb) = (&ra.plain["metrics"][m.name], &rb.plain["metrics"][m.name]);
            let (verdict, pass) = if m.host {
                let (qa, qb) = quartiles_of(ma).zip(quartiles_of(mb)).ok_or(format!(
                    "{} {}: value missing",
                    w.name(),
                    m.name
                ))?;
                // Neither set may be worse than the other by the bound.
                match (
                    compare(&qa, &qb, m.better, m.bound),
                    compare(&qb, &qa, m.better, m.bound),
                ) {
                    (Verdict::Worse, _) | (_, Verdict::Worse) => ("OUTSIDE BOUND", false),
                    (Verdict::Within, Verdict::Within) => ("within bound", true),
                    _ => ("unresolved", true),
                }
            } else if ma["value"] == mb["value"] {
                ("exact", true)
            } else {
                ("NOT EXACT", false)
            };
            ok &= pass;
            let (va, vb) = (
                num(&ma["value"]).unwrap_or(f64::NAN),
                num(&mb["value"]).unwrap_or(f64::NAN),
            );
            println!(
                "{:14} {:18} A {va:>12.6} B {vb:>12.6} {:4} {:+6.1} % of a {:.0} % bound  {verdict}",
                w.name(),
                m.name,
                m.unit,
                (vb - va) / va * 100.0,
                m.bound * 100.0,
            );
        }
        let differing: Vec<&str> = COUNT_METRICS
            .iter()
            .map(|&(name, _, _)| name)
            // Host time per event is the one timing among the counts.
            .filter(|&name| name != "simkernel.ns_per_event")
            .filter(|&name| match (&ra.traced, &rb.traced) {
                (Some(ta), Some(tb)) => {
                    ta["metrics"][name]["value"] != tb["metrics"][name]["value"]
                }
                _ => true,
            })
            .collect();
        let same_fp = ra.plain["fingerprints"] == rb.plain["fingerprints"];
        println!(
            "{:14} counts {}  fingerprints {}",
            w.name(),
            if differing.is_empty() {
                "exact".to_string()
            } else {
                format!("NOT EXACT: {}", differing.join(" "))
            },
            if same_fp { "equal" } else { "DIFFER" }
        );
        ok &= differing.is_empty() && same_fp;
    }
    println!("== check: {}", if ok { "passed" } else { "FAILED" });
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_the_contract_command_line() {
        let f = parse_flags(&strs(&[
            "--workload",
            "stadium-2t",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            f,
            Flags {
                workload: Some(Workload::Stadium2t),
                seed: 7,
                seconds: 20.0,
                trace: true
            }
        );
        let f = parse_flags(&strs(&["--trace", "0", "--seed", "3"])).unwrap();
        assert!(!f.trace && f.seed == 3 && f.seconds == RUN_SECONDS as f64);
        assert!(parse_flags(&strs(&["--trace"])).is_err());
        assert!(parse_flags(&strs(&["--trace", "yes"])).is_err());
        assert!(parse_flags(&strs(&["--workload", "metro"])).is_err());
        assert!(parse_flags(&strs(&["--seconds", "-1"])).is_err());
        assert!(parse_flags(&strs(&["--seed"])).is_err());
        assert!(parse_flags(&strs(&["--frobnicate"])).is_err());
    }
}
