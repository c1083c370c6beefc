//! `perf`: the repository's benchmark (contract in `BENCHMARK.json`, design
//! in this directory's README).
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf --list | --emit-benchmark-json | --smoke | --selfcheck <sets> <runs> [out.json]
//! ```
//!
//! A run prints a table of every metric (value, unit, sample count) and, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics of an untraced run; `--trace 1` is a separate, traced run that
//! reports the per-layer metrics and writes a span file.

mod inputs;
mod json;
mod layers;
mod report;
mod run;
mod selfcheck;
mod spec;
mod stats;
mod trace;
mod verify;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::OnceLock;

use run::RunConfig;
use spec::Scale;

/// Where the run may write: next to the executable, which the driver keeps
/// inside the checkout (`CARGO_TARGET_DIR`). Span files go here.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    exe.parent()
        .expect("executable has a directory")
        .join("perfbench-out")
}

static SCRATCH: OnceLock<PathBuf> = OnceLock::new();

/// A per-process directory under [`out_dir`] for the page files of
/// `StoreMode::File`: the service puts them in `$TMPDIR`, so that is pointed
/// here, once, before the first service is built.
fn scratch_dir() -> &'static PathBuf {
    SCRATCH.get_or_init(|| {
        let dir = out_dir().join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        std::env::set_var("TMPDIR", &dir);
        dir
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 42,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if spec::workload(&out.workload).is_none() {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(out)
}

/// One run; prints the table and the result line. `true` when correct.
fn run_once(cfg: &RunConfig, trace: bool) -> bool {
    scratch_dir();
    let result = if trace {
        layers::traced_run(cfg)
    } else {
        let mut tracer = trace::Tracer::new(false);
        let mut fin = run::execute(cfg, &mut tracer);
        run::extra_setups(cfg, &mut fin);
        report::end_to_end(&fin.obs)
    };
    print!("{}", result.table());
    println!("{}", result.json_line());
    result.correct
}

/// `--smoke`: every workload, traced and untraced, on a 2,000-node network
/// with verification on — a few seconds.
fn smoke() -> bool {
    spec::WORKLOADS.iter().all(|workload| {
        [false, true].into_iter().all(|trace| {
            let cfg = RunConfig {
                workload,
                seed: 42,
                seconds: 0.5,
                scale: Scale::SMOKE,
            };
            eprintln!("== smoke {} trace={}", workload.name, trace as u8);
            run_once(&cfg, trace)
        })
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", spec::list());
            true
        }
        Some("--emit-benchmark-json") => {
            print!("{}", spec::benchmark_json());
            true
        }
        Some("--smoke") => smoke(),
        Some("--selfcheck") => match selfcheck::parse_args(&args[1..]) {
            Ok((sets, runs, out)) => selfcheck::run(sets, runs, out),
            Err(e) => {
                eprintln!("perf: {e}");
                return ExitCode::from(2);
            }
        },
        _ => match parse_run_args(&args) {
            Ok(a) => {
                let cfg = RunConfig {
                    workload: spec::workload(&a.workload).expect("checked by parse_run_args"),
                    seed: a.seed,
                    seconds: a.seconds,
                    scale: Scale::FULL,
                };
                // The result line carries `correct`; a run that printed
                // one has done its job.
                run_once(&cfg, a.trace);
                true
            }
            Err(e) => {
                eprintln!("perf: {e}\nusage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       perf --list | --emit-benchmark-json | --smoke | --selfcheck <sets> <runs> [out.json]");
                return ExitCode::from(2);
            }
        },
    };
    if let Some(dir) = SCRATCH.get() {
        let _ = std::fs::remove_dir_all(dir);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    fn smoke_cfg(name: &str, seed: u64) -> RunConfig {
        RunConfig {
            workload: spec::workload(name).expect("known workload"),
            seed,
            seconds: 0.2,
            scale: Scale::SMOKE,
        }
    }

    fn observe(name: &str, seed: u64) -> run::Observed {
        scratch_dir();
        run::execute(&smoke_cfg(name, seed), &mut trace::Tracer::new(false)).obs
    }

    #[test]
    fn same_seed_repeats_counts_and_outputs_exactly() {
        // `sig_cold` faults on a real file; `sharded_k4` rebuilds its
        // regions on parallel threads at every publish.
        for name in ["sig_cold", "sharded_k4"] {
            let (a, b, c) = (observe(name, 42), observe(name, 42), observe(name, 7));
            assert_eq!(a.failed(), 0, "{name}");
            assert!(a.tally.checked > 0 && a.hot.io.logical > 0, "{name}");
            assert_eq!(a.hot.io.logical, b.hot.io.logical, "{name} pages");
            assert_eq!(a.hot.io.faults, b.hot.io.faults, "{name} faults");
            assert_eq!(a.cold.io.faults, b.cold.io.faults, "{name} cold faults");
            assert_eq!(a.index_bytes_per_node, b.index_bytes_per_node, "{name}");
            assert_eq!(a.output_digest, b.output_digest, "{name} outputs");
            assert_ne!(
                a.output_digest, c.output_digest,
                "{name}: seed 7 served the same outputs"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let cfg = smoke_cfg("oracle_hl", 3);
        scratch_dir();
        let mut fin = run::execute(&cfg, &mut trace::Tracer::new(false));
        run::extra_setups(&cfg, &mut fin);
        let result = report::end_to_end(&fin.obs);
        assert!(result.correct);
        let doc = json::parse(&result.json_line()).expect("result line parses");
        let Value::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let table: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, table);
        for (m, (_, reading)) in spec::END_TO_END.iter().zip(metrics) {
            assert_eq!(reading.get("unit"), Some(&Value::Str(m.unit.into())));
            // End-to-end metrics are never 0.
            assert!(
                reading
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("a number")
                    > 0.0,
                "{}",
                m.name
            );
        }
        assert_eq!(fin.obs.samples.get("setup_s").len(), 3);
    }

    #[test]
    fn smoke_covers_every_workload_traced_and_untraced() {
        let started = std::time::Instant::now();
        assert!(smoke());
        // The 10 s budget is for the optimised build.
        if !cfg!(debug_assertions) {
            assert!(
                started.elapsed().as_secs_f64() < 10.0,
                "{:?}",
                started.elapsed()
            );
        }
        let spans = out_dir().join("spans-sharded_k4-42.json");
        let doc = json::parse(&std::fs::read_to_string(spans).expect("span file written"))
            .expect("span file parses");
        let Some(Value::Array(spans)) = doc.get("spans") else {
            panic!("no spans")
        };
        assert!(spans.len() > 100);
    }

    #[test]
    fn benchmark_json_is_generated_from_the_table_and_within_the_contract() {
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            text,
            spec::benchmark_json(),
            "regenerate with --emit-benchmark-json"
        );
        assert!(text.len() <= 64 * 1024);
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Value::Object(fields) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        for w in &spec::WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in spec::END_TO_END.iter().chain(&spec::PER_LAYER) {
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            names.push(m.name);
        }
        assert!(names.iter().all(|n| name_ok(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!((2..=8).contains(&spec::WORKLOADS.len()));
        assert!(spec::END_TO_END.len() <= 16 && spec::PER_LAYER.len() <= 128);
        assert!(spec::END_TO_END
            .iter()
            .all(|m| matches!(m.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = &spec::END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", spec::Better::Lower)
        );
        let widest = spec::END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&spec::RUN_SECONDS));
    }

    #[test]
    fn run_arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_run_args(&args("--workload sig_cold --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sig_cold", 9, 12.0, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload sig_hot --seed -1",
            "--workload sig_hot --seconds 0",
            "--workload sig_hot --trace 2",
            "--workload sig_hot --trace",
            "--workload sig_hot --bogus 1",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
