//! Same-host benchmark of the C-ARQ reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs untraced, pass after pass, for the
//! given seconds, and each end-to-end metric is the value of the fastest
//! decile of the passes (median and tail go to standard error). With `--trace 1` the traced run reports the per-layer metrics.
//! Either way every output is checked, the provenance line and a summary
//! go out first, spans are written to the results directory, and the last
//! line of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md`.

mod adapter;
mod alloc;
mod catalog;
mod stats;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use catalog::Metric;
use stats::{self_time_ns, summarize, SpanLog};
use workloads::{fresh_dir, Checks, Iteration, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The simulation threads every engine is given.
const THREADS: usize = 1;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Escapes `text` as a JSON string literal.
fn json_str(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs `program args` and returns its trimmed standard output.
fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let output = std::process::Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
}

/// The git revision of the working directory, with `-dirty` for uncommitted
/// changes, or `unknown` when the directory is not the root of a git
/// checkout.
fn git_revision() -> String {
    let here = std::env::current_dir().and_then(|d| d.canonicalize()).ok();
    let top = command_output("git", &["rev-parse", "--show-toplevel"])
        .and_then(|t| PathBuf::from(t).canonicalize().ok());
    if here.is_none() || here != top {
        return "unknown".into();
    }
    let Some(revision) = command_output("git", &["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match command_output("git", &["status", "--porcelain"]) {
        Some(status) if !status.is_empty() => format!("{revision}-dirty"),
        _ => revision,
    }
}

/// The host fingerprint and run identity every result carries.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let rustc = command_output("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cpu_model\": {}, \"nproc\": {nproc}, \"rustc\": {}, \"git_revision\": {}, \
         \"workload\": {}, \"seed\": {}, \"threads\": {THREADS}, \"trace\": {}, \
         \"seconds\": {}, \"comparable\": \"only with runs on the same cpu_model, nproc and rustc\"}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&git_revision()),
        json_str(&args.workload),
        args.seed,
        args.trace,
        args.seconds,
    )
}

/// Quantile of pass values a metric reports: the fastest decile.
///
/// The work of every pass is identical and deterministic, so a pass can
/// only be slowed by the host. On a shared 2-vCPU Xeon VM the slowdown
/// comes in phases of seconds that make the CPU up to 1.5x slower, which
/// moves a median by whole phases; the fastest decile tracks the program.
const FAST_DECILE: f64 = 0.1;

/// The fast-decile value over passes of `value(pass)`, where `better` says
/// which end is fast, plus every pass's value.
fn fast_decile(
    iterations: &[Iteration],
    better: &str,
    value: impl Fn(&Iteration) -> f64,
) -> (f64, Vec<f64>) {
    let values: Vec<f64> = iterations.iter().map(value).collect();
    let q = if better == "higher" { 1.0 - FAST_DECILE } else { FAST_DECILE };
    (stats::quantile(&values, q).expect("at least one pass ran"), values)
}

/// Runs the workload untraced and returns its end-to-end metrics.
fn untraced(args: &Args, dir: &Path, spans: &mut SpanLog, checks: &mut Checks) -> Vec<Metric> {
    let prepare = spans.open("prepare", None);
    let mut workload = workloads::build(&args.workload, args.seed, dir, checks);
    spans.close(prepare);
    let mut iterations = Vec::new();
    let started = Instant::now();
    while iterations.is_empty() || started.elapsed().as_secs_f64() < args.seconds {
        let pass_dir = fresh_dir(&dir.join("pass"));
        let root = spans.open("pass", None);
        let (iteration, _) = workload.iterate(&pass_dir, spans, root, checks);
        spans.close(root);
        iterations.push(iteration);
    }
    let finish = spans.open("finish", None);
    workload.finish(dir, checks);
    spans.close(finish);

    let volume = workload.volume();
    checks.check(volume.rounds > 0 && volume.events > 0, || {
        format!("{}: no rounds behind the export", args.workload)
    });
    let busy = |it: &Iteration| (it.export_s - it.setup_s).max(f64::MIN_POSITIVE);
    let per_pass = |name: &str, it: &Iteration| match name {
        "rounds_per_s" => volume.rounds as f64 / busy(it),
        "events_per_s" => volume.events as f64 / busy(it),
        "time_to_export_s" => it.export_s,
        "setup_s" => it.setup_s,
        "heap_peak_mb" => it.heap_peak_bytes as f64 / 1e6,
        other => unreachable!("no per-pass value for {other}"),
    };
    let series: Vec<_> = catalog::END_TO_END
        .iter()
        .map(|&(name, unit, better, _)| {
            (name, unit, fast_decile(&iterations, better, |it| per_pass(name, it)))
        })
        .collect();
    eprintln!(
        "{}: {} pass(es), {} round(s) and {} event(s) behind each export",
        args.workload,
        iterations.len(),
        volume.rounds,
        volume.events
    );
    series
        .into_iter()
        .map(|(name, unit, (value, values))| {
            let summary = summarize(&values).expect("at least one pass ran");
            eprintln!("  {name} [{unit}]: fast decile {value:.6}; {summary}");
            Metric { name, unit, value }
        })
        .collect()
}

/// Renders the span log with each span's self time.
fn spans_json(spans: &SpanLog) -> String {
    let all = spans.spans();
    let mut out = String::from("[");
    for (id, span) in all.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "\n  {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start_ns\": {}, \
             \"end_ns\": {}, \"self_ns\": {}}}",
            json_str(span.name),
            span.start_ns,
            span.end_ns,
            self_time_ns(all, id)
        );
    }
    out.push_str("\n]");
    out
}

/// Prints the self time of each top-level span and its children.
fn print_self_times(spans: &SpanLog) {
    let all = spans.spans();
    let mut totals: Vec<(&str, u64, u64)> = Vec::new();
    for (id, span) in all.iter().enumerate() {
        let depth_ok = span.parent.is_none_or(|p| all[p].parent.is_none());
        if !depth_ok {
            continue;
        }
        let self_ns = self_time_ns(all, id);
        match totals.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += span.duration_ns();
                entry.2 += self_ns;
            }
            None => totals.push((span.name, span.duration_ns(), self_ns)),
        }
    }
    for (name, total, self_ns) in totals {
        eprintln!(
            "  span {name}: total {:.3} ms, self {:.3} ms",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    let mode = if args.trace { 1 } else { 0 };
    let tag = format!("{}-seed{}-trace{mode}", args.workload, args.seed);
    let work =
        fresh_dir(&target.join("perfbench-work").join(format!("{tag}-{}", std::process::id())));
    let results = target.join("perfbench-results");
    std::fs::create_dir_all(&results).expect("the results directory is writable");

    let provenance = provenance(&args);
    println!("{{\"provenance\": {provenance}}}");

    let mut spans = SpanLog::default();
    let mut checks = Checks::default();
    let mut metrics = if args.trace {
        traced::run(&args.workload, args.seed, args.seconds, &work, &mut spans, &mut checks)
    } else {
        untraced(&args, &work, &mut spans, &mut checks)
    };
    print_self_times(&spans);

    // Every metric printed must be in the catalogue, with its unit, and
    // every catalogued metric of the mode must be printed.
    let mut expected: Vec<(&str, &str)> = if args.trace {
        catalog::PER_LAYER.iter().map(|m| (m.0, m.1)).collect()
    } else {
        catalog::END_TO_END.iter().map(|m| (m.0, m.1)).collect()
    };
    for metric in &mut metrics {
        if !metric.value.is_finite() {
            checks.check(false, || format!("{} is not finite", metric.name));
            metric.value = 0.0;
        }
    }
    let mut printed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
    printed.sort_unstable();
    expected.sort_unstable();
    assert_eq!(printed, expected, "the metrics printed must match the catalogue");

    let mut body = String::new();
    for (i, metric) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(metric.name),
            metric.value,
            json_str(metric.unit)
        );
    }
    let line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    );
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let record = format!(
        "{{\"provenance\": {provenance},\n\"result\": {line},\n\"failures\": [{}],\n\"spans\": {}}}\n",
        failures.join(", "),
        spans_json(&spans)
    );
    std::fs::write(results.join(format!("{tag}.json")), record)
        .expect("the results file is writable");
    let _ = std::fs::remove_dir_all(&work);
    println!("{line}");
    ExitCode::SUCCESS
}
