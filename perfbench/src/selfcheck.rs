//! `perf --selfcheck <sets> <runs> [out.json]`: the benchmark measured
//! against itself. Each set runs every workload `runs` times, one seed per
//! run (1, 2, ...; every set uses the same seeds), workloads in alternating
//! order so none always runs on a warm or a cold host. For every end-to-end
//! metric it prints the spread of each set (quartile distance over median,
//! as the acceptance check computes it) and the gap between set medians,
//! next to the metric's bound, and flags what is too noisy to gate on.

use std::process::Command;

use crate::json::{self, Value};
use crate::spec::{Better, Metric, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{median, spread};

pub fn parse_args(args: &[String]) -> Result<(usize, usize, Option<String>), String> {
    let num = |i: usize, what: &str| -> Result<usize, String> {
        args.get(i)
            .and_then(|s| s.parse().ok())
            .filter(|&n| n >= 2)
            .ok_or(format!(
                "--selfcheck <sets> <runs> [out.json]: {what} must be a number >= 2"
            ))
    };
    Ok((num(0, "sets")?, num(1, "runs")?, args.get(2).cloned()))
}

/// One untraced run in a child process; its metrics by name.
fn child_run(workload: &str, seed: usize) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("run printed nothing")?;
    let doc = json::parse(line)?;
    if !out.status.success() || doc.get("correct") != Some(&Value::Bool(true)) {
        return Err(format!(
            "{workload} seed {seed}: run failed or incorrect: {line}"
        ));
    }
    let Some(Value::Object(metrics)) = doc.get("metrics") else {
        return Err("result line has no metrics".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric without value")?;
            Ok((name.clone(), v))
        })
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worsening(m: &Metric, a: f64, b: f64) -> f64 {
    match m.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn run(sets: usize, runs: usize, out_path: Option<String>) -> bool {
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    for (set, set_values) in values.iter_mut().enumerate() {
        for run in 0..runs {
            let mut order: Vec<usize> = (0..WORKLOADS.len()).collect();
            if (set + run) % 2 == 1 {
                order.reverse();
            }
            for w in order {
                eprintln!("selfcheck: set {set} run {run} {}", WORKLOADS[w].name);
                let metrics = match child_run(WORKLOADS[w].name, run + 1) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("selfcheck: {e}");
                        return false;
                    }
                };
                for (i, m) in END_TO_END.iter().enumerate() {
                    let v = metrics
                        .iter()
                        .find(|(name, _)| name == m.name)
                        .expect("every metric")
                        .1;
                    set_values[w][i].push(v);
                }
            }
        }
    }

    let mut ok = true;
    let mut noise = Vec::new();
    println!("| workload | metric | bound | median | spread per set | worst gap between set medians | verdict |");
    println!("|---|---|---|---|---|---|---|");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (i, m) in END_TO_END.iter().enumerate() {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let per_set: Vec<&Vec<f64>> = values.iter().map(|s| &s[w][i]).collect();
            let spreads: Vec<f64> = per_set.iter().map(|v| spread(v)).collect();
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            let gap = medians
                .windows(2)
                .map(|p| worsening(m, p[0], p[1]).abs())
                .fold(0.0, f64::max);
            let max_spread = spreads.iter().copied().fold(0.0, f64::max);
            // `setup_s` is exempt from the spread check, not from the gap.
            let spread_fails = m.name != "setup_s" && max_spread > bound;
            let verdict = if spread_fails || gap > bound {
                ok = false;
                "FAIL: over its bound"
            } else if gap > bound / 2.0 {
                "DEMOTE: gap over half the bound"
            } else if m.name != "setup_s" && max_spread > bound / 3.0 {
                "wide: spread over a third of the bound"
            } else {
                "ok"
            };
            let pct = |x: f64| format!("{:.2}%", x * 100.0);
            println!(
                "| {} | {} | {} | {:.4} {} | {} | {} | {} |",
                workload.name,
                m.name,
                pct(bound),
                medians[0],
                m.unit,
                spreads
                    .iter()
                    .map(|&s| pct(s))
                    .collect::<Vec<_>>()
                    .join(" / "),
                pct(gap),
                verdict
            );
            noise.push(Value::Object(vec![
                ("workload".into(), Value::Str(workload.name.into())),
                ("metric".into(), Value::Str(m.name.into())),
                ("bound".into(), Value::Num(bound)),
                (
                    "medians".into(),
                    Value::Array(medians.iter().map(|&x| Value::Num(x)).collect()),
                ),
                (
                    "spreads".into(),
                    Value::Array(spreads.iter().map(|&x| Value::Num(x)).collect()),
                ),
                ("gap".into(), Value::Num(gap)),
                ("verdict".into(), Value::Str(verdict.into())),
            ]));
        }
    }
    if let Some(path) = out_path {
        let doc = Value::Object(vec![
            ("sets".into(), Value::Num(sets as f64)),
            ("runs".into(), Value::Num(runs as f64)),
            ("run_seconds".into(), Value::Num(RUN_SECONDS as f64)),
            ("noise".into(), Value::Array(noise)),
        ]);
        if let Err(e) = std::fs::write(&path, doc.pretty()) {
            eprintln!("selfcheck: cannot write {path}: {e}");
            return false;
        }
    }
    ok
}
