//! The carve benchmark.
//!
//! `carve-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process and prints its metrics, the last line
//! being one JSON object (`correct`, `attempted`, `failed`, `metrics`).
//! Without `--workload` it runs every workload, each in a child process of
//! its own, and `--selfcheck` runs that set twice and compares the two.
//!
//! See `README.md` beside this package for what is measured and why.

mod api;
mod layers;
mod machine;
mod metrics;
mod serve;
mod trace;
mod workloads;

use api::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{RunConfig, RunOutput, WORKLOADS};

/// Seed used when `--seed` is not given. Claims of a gain must also hold on
/// [`SECOND_SEED`], which no change was tuned on.
const DEFAULT_SEED: u64 = 20211114;
const SECOND_SEED: u64 = 90125;
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: u64 = 24;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        spec: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--selfcheck" => args.selfcheck = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Removes every `CARVE_*` variable and pins the traversal to one thread
/// per rank, so that the program's own knobs cannot leak into a run.
fn clean_environment() {
    let ours: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CARVE_"))
        .collect();
    for k in ours {
        std::env::remove_var(k);
    }
    std::env::set_var("CARVE_PAR_THREADS", "1");
}

fn resolved_config(args: &Args) -> Json {
    Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("ranks".into(), Json::Num(workloads::RANKS as f64)),
        ("par_threads".into(), Json::Num(1.0)),
        ("batch_width".into(), Json::Num(api::BATCH_WIDTH as f64)),
        (
            "carve_obs".into(),
            Json::Str("off outside the obs.* probe".into()),
        ),
        ("carve_chaos".into(), Json::Str("off".into())),
    ])
}

/// Where result and trace files go: the cargo target directory the binary
/// was built into (`target/benchmark` by default), which git ignores.
fn output_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn one_line(j: &Json) -> String {
    j.to_string_pretty()
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join("")
}

/// The contract's result line. `None` if a metric is missing or not finite.
fn result_line(out: &RunOutput, names: &[(&'static str, &'static str)]) -> Option<String> {
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = out.metrics.get(name).filter(|v| v.is_finite())?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Some(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.checks.failed == 0,
        out.checks.attempted,
        out.checks.failed,
        fields.join(", ")
    ))
}

/// Runs one workload in this process; prints its metrics and, last, the
/// result line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let config = resolved_config(args);
    let stamp = machine::stamp();
    println!("# carve benchmark: workload {name}");
    println!("# config {}", one_line(&config));
    println!("# machine {}", one_line(&stamp));

    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
    };
    let tracer = Tracer::new(args.trace, Instant::now(), 0);
    let started = Instant::now();
    let out = if args.trace {
        layers::run(name, &cfg, &tracer)
    } else {
        workloads::run(name, &cfg, &tracer)
    };
    let Some(out) = out else {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("unknown workload {name:?}; known: {known:?}");
        return ExitCode::from(2);
    };
    let wall_s = started.elapsed().as_secs_f64();

    let names: Vec<(&'static str, &'static str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (metric, unit) in &names {
        match out.metrics.get(metric) {
            Some(v) => println!("metric {metric} = {v} {unit}"),
            None => println!("metric {metric} is missing"),
        }
    }
    for (key, value) in &out.exact {
        println!("exact {key} = {value}");
    }
    for (key, value) in &out.info {
        println!("info {key} = {value}");
    }
    for note in &out.checks.notes {
        println!("check failed: {note}");
    }
    let failed_frac = out.checks.failed as f64 / out.checks.attempted.max(1) as f64;
    println!(
        "ops_failed_frac = {failed_frac} ({} of {})",
        out.checks.failed, out.checks.attempted
    );
    println!("wall_s = {wall_s}");

    let numbers = |pairs: &[(String, f64)]| -> Vec<(String, Json)> {
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect()
    };
    let mut exact = numbers(&out.exact);
    exact.push(("digest".into(), Json::Str(format!("{:016x}", out.digest))));
    let exact = Json::Obj(exact);
    let info = Json::Obj(numbers(&out.info));
    println!("# exact {}", one_line(&exact));

    let dir = output_dir();
    let suffix = if args.trace { "-trace" } else { "" };
    let result = Json::Obj(vec![
        ("workload".into(), Json::Str(name.into())),
        ("config".into(), config),
        ("machine".into(), stamp),
        ("wall_s".into(), Json::Num(wall_s)),
        ("attempted".into(), Json::Num(out.checks.attempted as f64)),
        ("failed".into(), Json::Num(out.checks.failed as f64)),
        ("exact".into(), exact),
        ("info".into(), info),
        (
            "metrics".into(),
            Json::Obj(
                out.metrics
                    .0
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    let write = |file: String, body: &Json| {
        let path = dir.join(file);
        if let Err(e) = std::fs::write(&path, body.to_string_pretty()) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    };
    write(format!("result-{name}{suffix}.json"), &result);
    if args.trace {
        write(
            format!("trace-{name}.json"),
            &trace::spans_to_json(&tracer.into_spans()),
        );
    }

    match result_line(&out, &names) {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("a metric is missing or not finite; no result printed");
            ExitCode::FAILURE
        }
    }
}

/// What a child process reported: its result line and its `# exact` line.
struct ChildResult {
    result: Json,
    exact: Json,
}

/// Runs one workload in a child process of this executable, echoing what it
/// prints.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("workload {name} exited with {}", output.status));
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let result = Json::parse(last).map_err(|e| format!("{name}: bad result line: {e:?}"))?;
    let exact = stdout
        .lines()
        .find_map(|l| l.strip_prefix("# exact "))
        .and_then(|l| Json::parse(l).ok())
        .unwrap_or(Json::Null);
    Ok(ChildResult { result, exact })
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload once (untraced, then traced if asked). Returns the
/// untraced results, or the failures.
fn run_suite(
    args: &Args,
    traced_too: bool,
) -> Result<Vec<(&'static str, ChildResult)>, Vec<String>> {
    let mut results = Vec::new();
    let mut failures = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            if trace && !traced_too {
                continue;
            }
            println!(
                "== {} ({})",
                w.name,
                if trace { "traced" } else { "untraced" }
            );
            match run_child(w.name, args, trace) {
                Ok(r) => {
                    if r.result.get("correct").and_then(Json::as_bool) != Some(true) {
                        failures.push(format!("{}: output checks failed", w.name));
                    }
                    if !trace {
                        results.push((w.name, r));
                    }
                }
                Err(e) => failures.push(e),
            }
        }
    }
    if failures.is_empty() {
        Ok(results)
    } else {
        Err(failures)
    }
}

/// Two untraced sets back to back: every end-to-end metric must agree within
/// its bound and every exact count must match.
fn selfcheck(args: &Args) -> ExitCode {
    let (a, b) = match (run_suite(args, false), run_suite(args, false)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for f in a.err().into_iter().chain(b.err()).flatten() {
                eprintln!("selfcheck: {f}");
            }
            return ExitCode::FAILURE;
        }
    };
    println!(
        "== selfcheck (seed {}): |a - b| / a per metric, beside its bound",
        args.seed
    );
    let mut bad = 0;
    for ((name, ra), (_, rb)) in a.iter().zip(&b) {
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_value(&ra.result, m.name),
                metric_value(&rb.result, m.name),
            ) else {
                println!("{name:>10} {:<16} missing", m.name);
                bad += 1;
                continue;
            };
            let diff = (va - vb).abs() / va.abs();
            // Counts must repeat exactly; times within the bound.
            let limit = if m.unit == "count" { 0.0 } else { m.bound };
            let ok = diff <= limit;
            println!(
                "{name:>10} {:<16} a={va:<14.6} b={vb:<14.6} diff={diff:.4} bound={limit:.2} {}",
                m.name,
                if ok { "ok" } else { "EXCEEDED" }
            );
            bad += usize::from(!ok);
        }
        // Digest, sizes, iterations, hit ratio, evictions, message counts.
        let same = ra.exact == rb.exact;
        println!(
            "{name:>10} exact counts and digest {}",
            if same { "identical" } else { "DIFFER" }
        );
        bad += usize::from(!same);
    }
    if bad == 0 {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck failed: {bad} disagreements");
        ExitCode::FAILURE
    }
}

/// `BENCHMARK.json`, generated from the metric and workload tables.
fn spec() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = rows(
        WORKLOADS
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
            .collect(),
    );
    let end_to_end = rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.as_str(),
                    m.bound
                )
            })
            .collect(),
    );
    let per_layer = rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.as_str()
                )
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \
         \"end_to_end\": [\n{end_to_end}\n  ],\n  \"per_layer\": [\n{per_layer}\n  ]\n}}"
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                 [--selfcheck] [--spec]\n  default seed {DEFAULT_SEED}; second seed for claims {SECOND_SEED}"
            );
            return ExitCode::from(2);
        }
    };
    if args.spec {
        println!("{}", spec());
        return ExitCode::SUCCESS;
    }
    clean_environment();
    if let Some(name) = &args.workload {
        return run_one(name, &args);
    }
    if args.selfcheck {
        return selfcheck(&args);
    }
    match run_suite(&args, args.trace) {
        Ok(_) => ExitCode::SUCCESS,
        Err(failures) => {
            for f in failures {
                eprintln!("{f}");
            }
            ExitCode::FAILURE
        }
    }
}
