//! The command line: one workload per process (the mode the CI driver
//! uses), `--all` to run every workload in child processes and write
//! `out/results.json`, `--repeat` for run-to-run spread, `--compare` to set
//! two result files side by side, `--manifest` to print `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{self, Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats;
use crate::sys;
use crate::workloads::{self, Outcome, RunArgs, Scale};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: gxplug-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
       gxplug-benchmark --all [--seed N] [--seconds S] [--repeat K] [--smoke]
       gxplug-benchmark --smoke            (= --all on miniature inputs, 1 s boxes)
       gxplug-benchmark --compare BASE.json CHANGE.json
       gxplug-benchmark --manifest         (prints BENCHMARK.json)";

#[derive(Debug, Default)]
struct Options {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    manifest: bool,
    compare: Option<(String, String)>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    repeat: usize,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        repeat: 1,
        ..Options::default()
    };
    let mut rest = args.iter();
    let value = |flag: &str, rest: &mut std::slice::Iter<'_, String>| {
        rest.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--workload" => options.workload = Some(value(flag, &mut rest)?),
            "--all" => options.all = true,
            "--smoke" => options.smoke = true,
            "--manifest" => options.manifest = true,
            "--compare" => {
                options.compare = Some((value(flag, &mut rest)?, value(flag, &mut rest)?))
            }
            "--seed" => {
                options.seed = Some(
                    value(flag, &mut rest)?
                        .parse()
                        .map_err(|_| "--seed takes a whole number")?,
                )
            }
            "--seconds" => {
                let seconds: f64 = value(flag, &mut rest)?
                    .parse()
                    .map_err(|_| "--seconds takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                options.seconds = Some(seconds);
            }
            "--trace" => {
                options.trace = match value(flag, &mut rest)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--repeat" => {
                options.repeat = value(flag, &mut rest)?
                    .parse()
                    .ok()
                    .filter(|k| (1..=100).contains(k))
                    .ok_or("--repeat takes a count from 1 to 100")?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(options)
}

/// Entry point of the binary.
pub fn main(args: &[String]) -> ExitCode {
    let options = match parse(args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if options.manifest {
        print!("{}", spec::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((base, change)) = &options.compare {
        return compare(base, change);
    }
    let scale = if options.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let seconds = options.seconds.unwrap_or(match scale {
        Scale::Full => spec::RUN_SECONDS as f64,
        Scale::Smoke => 1.0,
    });
    let seed = options.seed.unwrap_or(1);
    match &options.workload {
        Some(name) => run_one(
            name,
            RunArgs {
                scale,
                seed,
                seconds,
                trace: options.trace,
            },
        ),
        None if options.all || options.smoke => run_all(scale, seed, seconds, options.repeat),
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// One workload in this process
// ---------------------------------------------------------------------------

/// Runs the workload, prints every metric as `name unit value n`, then the
/// result line: one JSON object with `correct`, `attempted`, `failed` and
/// `metrics` — the end-to-end set for a plain run, the per-layer set for a
/// traced one.
fn run_one(name: &str, args: RunArgs) -> ExitCode {
    let Some(outcome) = workloads::run(name, args) else {
        eprintln!(
            "unknown workload {name}; known: {}",
            workload_names().join(", ")
        );
        return ExitCode::from(2);
    };
    let specs: &[MetricSpec] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for metric in specs {
        let sample = outcome.samples.iter().find(|s| s.name == metric.name);
        // A layer the workload does not exercise reads 0 over 0 samples;
        // an end-to-end metric must always be there.
        assert!(
            sample.is_some() || args.trace,
            "{name} did not report {}",
            metric.name
        );
        let (value, n) = sample.map_or((0.0, 0), |s| (s.value, s.n));
        println!("{} {} {value} {n}", metric.name, metric.unit);
        metrics.push((
            metric.name,
            Json::obj([
                ("value", Json::Num(value)),
                ("unit", Json::str(metric.unit)),
            ]),
        ));
    }
    let correct = outcome.failed == 0;
    println!("{}", result_line(&outcome, correct, metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_line(outcome: &Outcome, correct: bool, metrics: Vec<(&str, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted.max(1) as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn workload_names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

// ---------------------------------------------------------------------------
// Every workload, each in its own child process
// ---------------------------------------------------------------------------

/// `metric -> (value, samples)` as one child printed it.
type Printed = BTreeMap<String, (f64, usize)>;

struct ChildRun {
    printed: Printed,
    attempted: u64,
    failed: u64,
}

/// Runs one workload in a child process (so `peak_rss_mb` is the workload's
/// own) and reads its metric lines and result line back.
fn child(
    workload: &str,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if scale == Scale::Smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut printed = Printed::new();
    let mut result = None;
    for line in stdout.lines() {
        if line.starts_with('{') {
            result = Some(Json::parse(line)?);
        } else if let [name, _unit, value, n] = line.split(' ').collect::<Vec<_>>()[..] {
            let value = value
                .parse()
                .map_err(|_| format!("bad metric line: {line}"))?;
            let n = n.parse().map_err(|_| format!("bad metric line: {line}"))?;
            printed.insert(name.to_string(), (value, n));
        }
    }
    let result = result.ok_or_else(|| {
        format!(
            "{workload} (trace {}) printed no result line; exit {}",
            trace as u8, output.status
        )
    })?;
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildRun {
        printed,
        attempted: count("attempted"),
        failed: count("failed"),
    })
}

/// Runs the whole set `repeat` times, prints every metric with its spread,
/// writes `out/results.json`, and fails if any workload reported a failure.
fn run_all(scale: Scale, seed: u64, seconds: f64, repeat: usize) -> ExitCode {
    let mut failed_total = 0;
    let mut workloads_json = Vec::new();
    for workload in workload_names() {
        // metric -> one value per repeat
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut samples: BTreeMap<String, usize> = BTreeMap::new();
        let (mut attempted, mut failed) = (0, 0);
        for round in 0..repeat {
            // Every repeat uses its own seed, as the acceptance runs do.
            for trace in [false, true] {
                match child(workload, scale, seed + round as u64, seconds, trace) {
                    Ok(run) => {
                        attempted += run.attempted;
                        failed += run.failed;
                        for (name, (value, n)) in run.printed {
                            values.entry(name.clone()).or_default().push(value);
                            *samples.entry(name).or_default() += n;
                        }
                    }
                    Err(error) => {
                        eprintln!("{error}");
                        attempted += 1;
                        failed += 1;
                    }
                }
            }
        }
        failed_total += failed;
        println!("== {workload}: attempted {attempted}, failed {failed}");
        let mut metrics = Vec::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let Some(runs) = values.get(metric.name) else {
                continue;
            };
            let median = stats::median(runs);
            let n = samples[metric.name];
            let spread = stats::spread(runs);
            match spread {
                Some(spread) => println!(
                    "{} {} {median} {n} spread {:.4} over {} runs",
                    metric.name,
                    metric.unit,
                    spread,
                    runs.len()
                ),
                None => println!("{} {} {median} {n}", metric.name, metric.unit),
            }
            metrics.push((
                metric.name,
                Json::obj([
                    ("value", Json::Num(median)),
                    ("unit", Json::str(metric.unit)),
                    ("n", Json::Num(n as f64)),
                    ("spread", spread.map_or(Json::Null, Json::Num)),
                    (
                        "runs",
                        Json::Arr(runs.iter().map(|v| Json::Num(*v)).collect()),
                    ),
                ]),
            ));
        }
        workloads_json.push((
            workload,
            Json::obj([
                ("attempted", Json::Num(attempted as f64)),
                ("failed", Json::Num(failed as f64)),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }
    let results = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(repeat as f64)),
        (
            "scale",
            Json::str(if scale == Scale::Smoke {
                "smoke"
            } else {
                "full"
            }),
        ),
        ("commit", Json::Str(sys::commit())),
        ("rustc", Json::Str(sys::rustc_version())),
        (
            "available_parallelism",
            Json::Num(sys::available_parallelism() as f64),
        ),
        ("workloads", Json::obj(workloads_json)),
    ]);
    let path = crate::out_dir(scale).join("results.json");
    let written = std::fs::create_dir_all(crate::out_dir(scale))
        .and_then(|()| std::fs::write(&path, results.pretty()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
    if failed_total == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

// ---------------------------------------------------------------------------
// Two result files side by side
// ---------------------------------------------------------------------------

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One row per (workload, bounded metric): both medians, the bound and a
/// verdict — `ok`, `worse` (the change's median is worse than the base's by
/// more than the bound) or `unresolved` (either side's run-to-run spread is
/// wider than the bound, so the medians settle nothing).
fn compare(base_path: &str, change_path: &str) -> ExitCode {
    let (base, change) = match (load(base_path), load(change_path)) {
        (Ok(base), Ok(change)) => (base, change),
        (base, change) => {
            for error in [base.err(), change.err()].into_iter().flatten() {
                eprintln!("{error}");
            }
            return ExitCode::from(2);
        }
    };
    // Threaded arms mean different things on different core counts.
    let cores = |file: &Json| file.get("available_parallelism").and_then(Json::as_f64);
    if cores(&base) != cores(&change) {
        eprintln!(
            "refusing to compare: available_parallelism differs ({:?} vs {:?})",
            cores(&base),
            cores(&change)
        );
        return ExitCode::from(2);
    }
    let metric = |file: &Json, workload: &str, name: &str| -> Option<(f64, Option<f64>)> {
        let entry = file
            .get("workloads")?
            .get(workload)?
            .get("metrics")?
            .get(name)?;
        Some((
            entry.get("value")?.as_f64()?,
            entry.get("spread").and_then(Json::as_f64),
        ))
    };
    println!("workload metric unit base change bound verdict");
    let mut worse = 0;
    for workload in workload_names() {
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            let Some(bound) = spec.bound else { continue };
            let (Some((old, old_spread)), Some((new, new_spread))) = (
                metric(&base, workload, spec.name),
                metric(&change, workload, spec.name),
            ) else {
                continue;
            };
            if old == 0.0 && new == 0.0 {
                // The workload does not have this metric.
                continue;
            }
            let loss = match spec.better {
                Better::Lower => (new - old) / old.abs(),
                Better::Higher => (old - new) / old.abs(),
            };
            let spread = old_spread.into_iter().chain(new_spread).fold(0.0, f64::max);
            // A bound of 0 marks a cost-model figure that repeats exactly on
            // a seed; its spread over seeds is the inputs', not noise.
            let verdict = if bound > 0.0 && spread > bound {
                "unresolved"
            } else if loss > bound {
                worse += 1;
                "worse"
            } else {
                "ok"
            };
            println!(
                "{workload} {} {} {old} {new} {bound} {verdict}",
                spec.name, spec.unit
            );
        }
    }
    if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
