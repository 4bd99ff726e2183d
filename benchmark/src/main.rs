//! The repo's benchmark: one round-latency benchmark over five
//! workloads, with end-to-end metrics from an untraced pass and a
//! per-layer ledger from a traced one. See `README.md` beside this
//! package and `BENCHMARK.json` at the repo root.

mod alloc;
mod check;
mod host;
mod layers;
mod measure;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use ssa_bench::json::{self, Value};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Exit code of a workload this host cannot run (automake's "skipped").
const SKIPPED: u8 = 77;

const USAGE: &str = "\
usage: benchmark run [--workload W] [--trace 0|1] [--seed S] [--seconds N] [--quick]
       benchmark check-repeat [--seed S] [--quick]

run           `--workload W --trace T` runs that one pass of that one workload
              in this process: the untraced pass (0) for the end-to-end
              metrics or the traced pass (1) for the per-layer ledger. Without
              either, every workload and both passes run, each pass in a
              process of its own, and summary tables close the report
check-repeat  runs the untraced set twice and compares every end-to-end metric
              against its bound; exits non-zero on any disagreement
--seconds N   accepted because the acceptance driver passes it; run length is
              fixed by the benchmark (rounds and repetitions per workload), so
              that every run of every commit is measured the same way
--quick       smoke mode: 100k instead of 1M advertisers, 300 rounds, one
              repetition; the numbers are not comparable with a full run";

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    trace: Option<bool>,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        command: args.first().cloned().ok_or("missing command")?,
        workload: None,
        seed: workloads::DEFAULT_SEED,
        trace: None,
        quick: false,
    };
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let mut value = || {
            rest.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |what: &str| format!("{flag}: {what}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.to_string()),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|_| bad("not a number"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad("out of range"));
                }
            }
            "--trace" => {
                parsed.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            "--quick" => parsed.quick = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    alloc::pin_heap();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_str(), &args.workload, args.trace) {
        ("run", Some(name), Some(trace)) => run_one(name, trace, &args),
        ("run", ..) => run_all(&args),
        ("check-repeat", ..) => check_repeat(&args),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where the traced pass writes its spans: `benchmark/out` from the repo
/// root, `out` from inside the package.
fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// Runs one pass of one workload in this process and prints its report;
/// the last line of stdout is the result object.
fn run_one(name: &str, trace: bool, args: &Args) -> ExitCode {
    let nproc = ssa_bench::host::cores();
    let Some(spec) = workloads::spec(name, args.seed, args.quick, nproc) else {
        eprintln!(
            "benchmark: unknown workload {name}; one of {}",
            workloads::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    println!("# workload {} — {}", spec.name, spec.why);
    println!(
        "# host {} commit={} seed={}{}",
        ssa_bench::host::host_metadata().to_string_compact(),
        host::commit(),
        args.seed,
        if args.quick {
            " QUICK (smoke mode: not comparable with a full run)"
        } else {
            ""
        }
    );
    if spec.name == workloads::UNGATED {
        println!("# not in BENCHMARK.json: reported here, no change is gated on it");
    }
    if spec.sharded && nproc < 2 {
        // A sharded run on one core would be a serial run under another
        // name; say so instead of reporting it.
        println!("{}: skipped (needs 2 cores, host has {nproc})", spec.name);
        return ExitCode::from(SKIPPED);
    }

    print!("{}", report_one(&spec, args.quick, trace));
    ExitCode::SUCCESS
}

/// Runs one pass of one workload and renders the report: a line per
/// metric, the notes, and the result object as the last line.
fn report_one(spec: &workloads::Spec, quick: bool, trace: bool) -> String {
    let mut out = String::new();
    let pass = if trace {
        out.push_str("## per-layer (traced pass)\n");
        layers::traced(spec, quick, &out_dir())
    } else {
        out.push_str("## end-to-end (untraced pass)\n");
        measure::untraced(spec, quick)
    };
    out.push_str(&report::metric_lines(&pass.metrics));
    if !trace {
        // Reported through `attempted` and `failed`, not as a metric: it
        // must be 0, and a bounded metric must never be.
        out.push_str(&format!(
            "{:<40} {:>16.6} {:<6} samples={}\n",
            "failed_rounds_share",
            pass.failed as f64 / pass.attempted.max(1) as f64,
            "ratio",
            pass.attempted
        ));
    }
    for note in &pass.notes {
        out.push_str(&format!("# {note}\n"));
    }
    out.push_str(&report::result_line(
        pass.correct,
        pass.attempted.max(1),
        pass.failed,
        &pass.metrics,
    ));
    out.push('\n');
    out
}

/// What the child runs of one workload reported.
struct ChildResult {
    skipped: bool,
    correct: bool,
    values: Vec<(String, f64)>,
}

impl ChildResult {
    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Runs one pass of one workload in a child process (so `peak_rss_mb` is
/// that pass's alone, and the traced pass starts on a fresh heap), echoes
/// its report, waits for it, and adds the result object off its last line
/// to `into`.
fn run_child(name: &str, trace: bool, args: &Args, into: &mut ChildResult) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", name])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &args.seed.to_string()]);
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if output.status.code() == Some(i32::from(SKIPPED)) {
        into.skipped = true;
        return Ok(());
    }
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = json::parse(last).map_err(|e| format!("{name}: {e}"))?;
    let Some(Value::Object(metrics)) = result.get("metrics") else {
        return Err(format!("{name}: result has no metrics"));
    };
    into.correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
    into.values.extend(
        metrics
            .iter()
            .filter_map(|(n, m)| Some((n.clone(), m.get("value")?.as_f64()?))),
    );
    Ok(())
}

/// Runs `passes` of every workload (or the one asked for), each pass in
/// its own process.
fn run_set(args: &Args, passes: &[bool]) -> Result<Vec<(String, ChildResult)>, String> {
    let names: Vec<String> = match &args.workload {
        Some(name) => vec![name.clone()],
        None => workloads::NAMES.map(String::from).to_vec(),
    };
    let mut results = Vec::new();
    for name in names {
        let mut result = ChildResult {
            skipped: false,
            correct: true,
            values: Vec::new(),
        };
        for &trace in passes {
            if !result.skipped {
                run_child(&name, trace, args, &mut result)?;
            }
        }
        results.push((name, result));
    }
    Ok(results)
}

/// Prints `rows` (metric names) × workloads as one table.
fn print_table(title: &str, rows: &[String], results: &[(String, ChildResult)]) {
    println!("\n## {title}");
    print!("{:<40}", "");
    for (name, _) in results {
        print!(" {name:>20}");
    }
    println!();
    for row in rows {
        print!("{row:<40}");
        for (_, result) in results {
            match result.value(row) {
                Some(v) => print!(" {v:>20.4}"),
                None if result.skipped => print!(" {:>20}", "skipped"),
                None => print!(" {:>20}", "-"),
            }
        }
        println!();
    }
}

/// Runs the asked-for workloads and passes and closes with the end-to-end
/// and layer-share tables.
fn run_all(args: &Args) -> ExitCode {
    let passes: &[bool] = match args.trace {
        Some(true) => &[true],
        Some(false) => &[false],
        None => &[false, true],
    };
    let results = match run_set(args, passes) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    if passes.contains(&false) {
        let rows: Vec<String> = report::END_TO_END
            .iter()
            .map(|(name, ..)| name.to_string())
            .collect();
        print_table("end-to-end, per workload", &rows, &results);
    }
    if passes.contains(&true) {
        let rows: Vec<String> = [
            "engine.throttle_share",
            "engine.wd_share",
            "engine.settle_share",
            "engine.residual_share",
        ]
        .map(String::from)
        .into_iter()
        .chain(layers::LAYERS.iter().map(|l| format!("share.{l}")))
        .chain(["trace.coverage_ratio", "twin.sharing_speedup"].map(String::from))
        .collect();
        print_table(
            "layer shares of engine.round, per workload",
            &rows,
            &results,
        );
    }
    let correct = results.iter().all(|(_, r)| r.correct);
    println!("\nall workloads correct: {correct}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the untraced set twice and checks that the two agree within each
/// end-to-end metric's bound.
fn check_repeat(args: &Args) -> ExitCode {
    let sets = match (run_set(args, &[false]), run_set(args, &[false])) {
        (Ok(first), Ok(second)) => [first, second],
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("\n## check-repeat: two sets of runs of the same code");
    println!(
        "{:<22} {:<26} {:>14} {:>14} {:>9} {:>6}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    let mut agree = true;
    for ((name, first), (_, second)) in sets[0].iter().zip(&sets[1]) {
        if first.skipped || second.skipped {
            println!("{name:<22} skipped");
            continue;
        }
        agree &= first.correct && second.correct;
        for (metric, _, _, bound) in report::END_TO_END {
            let (Some(a), Some(b)) = (first.value(metric), second.value(metric)) else {
                println!("{name:<22} {metric:<26} missing  disagree");
                agree = false;
                continue;
            };
            let diff = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let verdict = if diff <= bound { "agree" } else { "disagree" };
            agree &= diff <= bound;
            println!(
                "{name:<22} {metric:<26} {a:>14.4} {b:>14.4} {diff:>9.4} {bound:>6.2}  {verdict}"
            );
        }
    }
    if agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn text(m: &Value, key: &str) -> String {
        m.get(key).unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn benchmark_json_declares_what_the_code_reports() {
        let doc = benchmark_json();
        let list = |key: &str| doc.get(key).and_then(Value::as_array).unwrap();
        let declared: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better"),
                    m.get("bound").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        let reported: Vec<(String, String, String, f64)> = report::END_TO_END
            .iter()
            .map(|&(n, u, b, bound)| (n.to_string(), u.to_string(), b.to_string(), bound))
            .collect();
        assert_eq!(declared, reported);
        let names: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        let gated: Vec<&str> = workloads::NAMES
            .into_iter()
            .filter(|&name| name != workloads::UNGATED)
            .collect();
        assert_eq!(names, gated);
        for w in list("workloads") {
            let spec = workloads::spec(&text(w, "name"), 1, false, 2).unwrap();
            assert_eq!(text(w, "why"), spec.why);
        }
    }

    /// The tiny-input end-to-end run: `run --quick --workload tight_bounds`
    /// prints every metric `BENCHMARK.json` declares exactly once — the
    /// end-to-end ones in the untraced pass, the per-layer ones in the
    /// traced pass — with the declared unit, and nothing else.
    #[test]
    fn quick_run_prints_every_declared_metric_once() {
        let doc = benchmark_json();
        let spec = workloads::spec("tight_bounds", workloads::DEFAULT_SEED, true, 2).unwrap();
        for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
            let report = report_one(&spec, true, trace);
            let result = json::parse(report.lines().last().unwrap()).unwrap();
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let Some(Value::Object(reported)) = result.get("metrics") else {
                panic!("the result has metrics");
            };
            let declared = doc.get(key).and_then(Value::as_array).unwrap();
            for m in declared {
                let name = text(m, "name");
                let lines = report
                    .lines()
                    .filter(|l| l.split_whitespace().next() == Some(&name))
                    .count();
                assert_eq!(lines, 1, "{name} printed {lines} times");
                let unit = result.get("metrics").unwrap().get(&name).unwrap();
                assert_eq!(text(unit, "unit"), text(m, "unit"));
            }
            assert_eq!(
                reported.len(),
                declared.len(),
                "a reported metric is not declared under {key}"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_args(&args(&[
            "run",
            "--workload",
            "x",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!((ok.seed, ok.trace, ok.quick), (9, Some(true), false));
        assert!(parse_args(&args(&["run", "--seed"])).is_err());
        assert!(parse_args(&args(&["run", "--seconds", "0"])).is_err());
        assert!(parse_args(&args(&["run", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["run", "--rounds", "10"])).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
