//! fvbench: four long closed-loop workloads against a live `fvtool serve`,
//! median-based end-to-end metrics, and a staged per-layer trace.
//!
//! ```text
//! fvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fvbench report   [--seed n] [--seconds s]      every workload, both passes
//! fvbench repeat   [--runs n] [--seed n] [--seconds s]
//! fvbench selftest                               all four, tiny, in seconds
//! fvbench manifest                               print BENCHMARK.json
//! ```
//!
//! The first form is the benchmark contract: its last stdout line is one
//! JSON object. See `README.md` next to this crate for the tables.

#![forbid(unsafe_code)]

mod calib;
mod child;
mod gen;
mod harness;
mod layers;
mod manifest;
mod procfs;
mod stats;
mod trace;
mod wire;
mod workloads;

/// Everything that can go wrong is reported as text and ends the run.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

use calib::Reference;
use harness::{run_window, stop, timed_setups, Env, SetupTime, Until, Window, Workload};
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;
use workloads::interactive::Interactive;
use workloads::recluster::Recluster;
use workloads::restore::Restore;
use workloads::wallstream::Wallstream;

/// Default timed window; the contract's `--seconds` overrides it.
const DEFAULT_SECONDS: f64 = 30.0;
/// Windows shorter than this are flagged `short`: interference on a
/// shared box comes in bursts of about ten seconds.
const SHORT_WINDOW_S: f64 = 20.0;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS_PER_RUN: usize = 3;
/// Share of `--seconds` each half of the traced wire pass gets (one half
/// with spans off, one with spans on); the rest of the budget goes to the
/// staged pass.
const TRACED_WINDOW_SHARE: f64 = 0.2;

/// One named measurement. Its unit is whatever `manifest` declares for
/// the name, so output and `BENCHMARK.json` cannot disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
}

pub fn metric(name: &str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        value,
    }
}

/// The six end-to-end metrics, from one untraced window.
fn end_to_end(window: &Window, setups: &[SetupTime]) -> Vec<Metric> {
    let ops = window.lat_ms.len().max(1) as f64;
    let setup_s: Vec<f64> = setups.iter().map(|s| s.norm_s).collect();
    // Whether a 2 MB buffer doubles once more is decided by socket timing
    // early in a server's life (one `wallstream` server in four peaks
    // 1.5 MB lower), so the peak is taken over all of the run's servers.
    let rss_peak_mib = setups
        .iter()
        .map(|s| s.rss_peak_mib)
        .fold(window.rss_peak_mib, f64::max);
    vec![
        metric("setup_s", stats::median(&setup_s)),
        metric("ops_per_s", stats::median_block_rate(&window.blocks)),
        metric("lat_p50_ms", stats::median(&window.lat_ms)),
        metric("cpu_ms_per_op", window.cpu_ms / ops),
        metric("rss_peak_mb", rss_peak_mib),
        metric("wire_kb_per_op", window.wire_bytes as f64 / 1024.0 / ops),
    ]
}

/// Result of one contract run.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn window_note(name: &str, what: &str, w: &Window) -> String {
    format!(
        "{name} {what}: {} ops in {} blocks over {:.1} s, failed {} ({:.2} % of attempted), \
         latency samples {}",
        w.attempted,
        w.blocks.len(),
        w.elapsed_s,
        w.failed,
        100.0 * w.failed as f64 / w.attempted.max(1) as f64,
        w.lat_ms.len(),
    )
}

fn short_note(until: Until) -> Option<String> {
    match until {
        Until::Seconds(s) if s < SHORT_WINDOW_S => {
            Some(format!("short: a {s} s window is under {SHORT_WINDOW_S} s"))
        }
        _ => None,
    }
}

/// The untraced pass: the six end-to-end metrics.
fn run_e2e<W: Workload>(env: &Env, until: Until, setups: usize) -> Result<RunResult, Error> {
    let plan = W::plan(env)?;
    let reference = Reference::new();
    let (mut w, setup_times) = timed_setups::<W>(env, &plan, setups, &reference)?;
    let mut off = Tracer::new(false);
    let window = run_window(&mut w, &plan, until, &reference, &mut off)?;
    let verify = w.verify(&plan)?;
    stop(w)?;
    let correct = window.mismatches == 0 && verify.is_empty() && window.failed == 0;
    let raw_setups: Vec<f64> = setup_times.iter().map(|s| s.raw_s).collect();
    let mut notes = vec![
        window_note(W::NAME, "window", &window),
        format!(
            "as the wall clock saw it: setup {:.3} s, lat p50 {:.3} ms, cpu {:.3} ms/op; \
             machine slowness median {:.3} (1.0 = reference speed)",
            stats::median(&raw_setups),
            stats::median(&window.raw_lat_ms),
            window.raw_cpu_ms / window.raw_lat_ms.len().max(1) as f64,
            stats::median(&window.slowness),
        ),
    ];
    notes.extend(short_note(until));
    notes.extend(window.problems.iter().cloned());
    notes.extend(verify);
    Ok(RunResult {
        correct,
        attempted: window.attempted,
        failed: window.failed,
        metrics: end_to_end(&window, &setup_times),
        notes,
    })
}

/// The traced pass: a short wire pass with client-side spans (half of it
/// with spans off, to price the tracing), the workload's staged pass, and
/// the layer suite. Writes the span file and prints the self-time table.
fn run_traced<W: Workload>(env: &Env, until: Until) -> Result<RunResult, Error> {
    let half = match until {
        Until::Seconds(s) => Until::Seconds(s * TRACED_WINDOW_SHARE),
        blocks => blocks,
    };
    let plan = W::plan(env)?;
    let reference = Reference::new();
    let (mut w, _) = timed_setups::<W>(env, &plan, 1, &reference)?;
    let mut tracer = Tracer::new(false);
    let plain = run_window(&mut w, &plan, half, &reference, &mut tracer)?;
    tracer.set_enabled(true);
    let traced = run_window(&mut w, &plan, half, &reference, &mut tracer)?;
    let verify = w.verify(&plan)?;
    stop(w)?;

    // The staged pass is all CPU, run seconds after the wire pass: price
    // both at reference speed before comparing them.
    let before = reference.slowness();
    let staged_ns = W::staged(env, &plan, &mut tracer)?;
    let staged_ns = staged_ns / ((before + reference.slowness()) / 2.0);
    let layers = layers::layer_suite(&mut tracer, env)?;

    let wire_p50_ms = stats::median(&traced.raw_lat_ms);
    let plain_p50_ms = stats::median(&plain.raw_lat_ms);
    let stall_ns = layers.get("net.client.stall_ms") * 1e6;
    let connect_ns = layers.get("net.connect_us") * 1e3;
    let accounted_ns =
        staged_ns + W::CLIENT_STALLS as f64 * stall_ns.max(0.0) + W::CONNECTS as f64 * connect_ns;
    let covered = accounted_ns / (stats::median(&traced.lat_ms) * 1e6).max(1.0);

    let mut metrics = layers.metrics;
    let s = &traced.stats;
    for (name, value) in [
        ("net.stats.requests", s.requests),
        ("net.stats.runs", s.runs),
        ("net.stats.busy", s.busy_rejections),
        ("net.stats.stream_frames", s.stream.frames),
        ("net.stats.stream_coalesced", s.stream.coalesced),
        ("net.stats.stream_dropped", s.stream.dropped),
        ("net.stats.cache_hits", s.cache_hits),
        ("net.stats.cache_misses", s.cache_misses),
    ] {
        metrics.push(metric(name, value as f64));
    }
    let sorted = stats::sorted(&traced.raw_lat_ms);
    let tail = stats::tail_percentile(sorted.len());
    let rates: Vec<f64> = traced.blocks.iter().map(|b| b.rate()).collect();
    metrics.push(metric(
        "driver.lat_tail_ms",
        stats::percentile(&sorted, tail.unwrap_or(1.0)),
    ));
    metrics.push(metric(
        "driver.lat_max_ms",
        sorted.last().copied().unwrap_or(0.0),
    ));
    metrics.push(metric("driver.block_rate_iqr", stats::iqr_share(&rates)));
    metrics.push(metric(
        "driver.trace_overhead_pct",
        100.0 * (wire_p50_ms - plain_p50_ms) / plain_p50_ms.max(1e-9),
    ));
    metrics.push(metric(
        "driver.ref_slowness",
        stats::median(&traced.slowness),
    ));
    metrics.push(metric("driver.coverage", covered));

    // Print exactly the declared per-layer set, in the declared order.
    let mut declared = Vec::with_capacity(manifest::PER_LAYER.len());
    for (name, _, _) in manifest::PER_LAYER {
        match metrics.iter().find(|m| m.name == name) {
            Some(m) => declared.push(m.clone()),
            None => return Err(format!("traced run produced no {name}").into()),
        }
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| !manifest::PER_LAYER.iter().any(|(n, _, _)| *n == m.name))
    {
        return Err(format!("traced run produced undeclared metric {}", extra.name).into());
    }
    let metrics = declared;

    let dir = PathBuf::from("artifacts").join("fvbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.jsonl", W::NAME));
    std::fs::write(&path, trace::to_jsonl(tracer.spans()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let mut notes = vec![
        window_note(W::NAME, "wire pass, spans off", &plain),
        window_note(W::NAME, "wire pass, spans on", &traced),
        format!(
            "latency tail is p{} of {} samples; at reference speed: staged op {:.3} ms + {} \
             client stall(s) of {:.3} ms + {} connect(s) = {:.3} ms against wire p50 {:.3} ms",
            tail.map_or("max".to_string(), |p| format!("{}", p * 100.0)),
            sorted.len(),
            staged_ns / 1e6,
            W::CLIENT_STALLS,
            stall_ns / 1e6,
            W::CONNECTS,
            accounted_ns / 1e6,
            stats::median(&traced.lat_ms),
        ),
        format!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
    ];
    notes.extend(plain.problems.iter().chain(&traced.problems).cloned());
    notes.extend(verify.iter().cloned());
    for line in trace::render_self_time(&trace::self_time_table(tracer.spans())).lines() {
        notes.push(line.to_string());
    }
    let failed = plain.failed + traced.failed;
    Ok(RunResult {
        correct: plain.mismatches + traced.mismatches == 0 && verify.is_empty() && failed == 0,
        attempted: plain.attempted + traced.attempted,
        failed,
        metrics,
        notes,
    })
}

/// Which of the two passes a run makes.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// Tracing off: the end-to-end metrics, `setup_s` over this many set-ups.
    EndToEnd { setups: usize },
    /// Tracing on: the per-layer metrics.
    Traced,
}

fn dispatch(workload: &str, env: &Env, until: Until, pass: Pass) -> Result<RunResult, Error> {
    fn run<W: Workload>(env: &Env, until: Until, pass: Pass) -> Result<RunResult, Error> {
        match pass {
            Pass::EndToEnd { setups } => run_e2e::<W>(env, until, setups),
            Pass::Traced => run_traced::<W>(env, until),
        }
    }
    match workload {
        Interactive::NAME => run::<Interactive>(env, until, pass),
        Recluster::NAME => run::<Recluster>(env, until, pass),
        Wallstream::NAME => run::<Wallstream>(env, until, pass),
        Restore::NAME => run::<Restore>(env, until, pass),
        other => Err(format!("unknown workload {other:?}").into()),
    }
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                manifest::unit_of(&m.name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// A finite float with all its digits; a non-finite value (which no
/// metric should produce) degrades to 0 rather than to invalid JSON.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

fn print_result(r: &RunResult) {
    for note in &r.notes {
        println!("# {note}");
    }
    for m in &r.metrics {
        println!(
            "{:<36} {:>16.4} {}",
            m.name,
            m.value,
            manifest::unit_of(&m.name)
        );
    }
}

fn locate_fvtool() -> Result<PathBuf, Error> {
    if let Some(path) = std::env::var_os("FVBENCH_FVTOOL") {
        return Ok(PathBuf::from(path));
    }
    let exe = std::env::current_exe()?;
    let sibling = exe.with_file_name("fvtool");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "no fvtool next to {} (build it into the same target directory, or set FVBENCH_FVTOOL)",
            exe.display()
        )
        .into())
    }
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    blocks: Option<usize>,
    trace: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, Error> {
    let mut out = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        blocks: None,
        trace: false,
        runs: 5,
    };
    let mut it = args.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            out.command = it.next().cloned();
        }
    }
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value"))
                .cloned()
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value()?),
            "--seed" => out.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => out.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--blocks" => out.blocks = Some(value()?.parse().map_err(|_| "bad --blocks")?),
            "--trace" => out.trace = value()? != "0",
            "--runs" => out.runs = value()?.parse().map_err(|_| "bad --runs")?,
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 || out.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(out)
}

impl Args {
    fn until(&self) -> Until {
        match self.blocks {
            Some(n) => Until::Blocks(n.max(1)),
            None => Until::Seconds(self.seconds),
        }
    }
}

/// `report`: every workload, untraced then traced, every metric by name
/// with its unit.
fn report(env: &Env, until: Until) -> Result<bool, Error> {
    let mut all_correct = true;
    for (name, why) in workloads::WORKLOADS {
        println!("== {name}: {why}");
        let contract = Pass::EndToEnd {
            setups: SETUPS_PER_RUN,
        };
        for pass in [contract, Pass::Traced] {
            let r = dispatch(name, env, until, pass)?;
            print_result(&r);
            println!(
                "   correct={} attempted={} failed={}",
                r.correct, r.attempted, r.failed
            );
            all_correct &= r.correct;
        }
    }
    Ok(all_correct)
}

/// `repeat`: two sets of `runs` full untraced passes on the same seeds.
/// Prints per-metric min/median/max of each set, the quartile spread, and
/// how far the two set medians disagree. Fails when any end-to-end metric
/// disagrees (in the worse direction or not) by more than half its bound,
/// or spreads wider than its bound.
fn repeat(env: &Env, until: Until, runs: usize) -> Result<bool, Error> {
    let mut ok = true;
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<12} {:<16} {:>4} {:>12} {:>12} {:>12} {:>9} {:>9} {:>7}",
        "workload", "metric", "set", "min", "median", "max", "iqr/med", "disagree", "bound"
    );
    for (name, _) in workloads::WORKLOADS {
        // sets[set][metric] = values
        let mut sets: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); manifest::END_TO_END.len()]; 2];
        for set in sets.iter_mut() {
            for run in 0..runs {
                let run_env = Env {
                    seed: env.seed + run as u64,
                    ..env.clone()
                };
                let contract = Pass::EndToEnd {
                    setups: SETUPS_PER_RUN,
                };
                let r = dispatch(name, &run_env, until, contract)?;
                if !r.correct {
                    ok = false;
                    println!("# {name} seed {} was not correct", run_env.seed);
                    for note in &r.notes {
                        println!("#   {note}");
                    }
                }
                for (k, spec) in manifest::END_TO_END.iter().enumerate() {
                    let value = r
                        .metrics
                        .iter()
                        .find(|m| m.name == spec.name)
                        .map_or(0.0, |m| m.value);
                    set[k].push(value);
                }
            }
        }
        for (k, spec) in manifest::END_TO_END.iter().enumerate() {
            let medians = [stats::median(&sets[0][k]), stats::median(&sets[1][k])];
            let disagree = (medians[1] - medians[0]).abs() / medians[0].abs().max(1e-12);
            for (s, set) in sets.iter().enumerate() {
                let v = stats::sorted(&set[k]);
                let spread = stats::iqr_share(&v);
                let _ = writeln!(
                    table,
                    "{:<12} {:<16} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>8.2}% {:>8.2}% {:>6.0}%",
                    name,
                    spec.name,
                    s + 1,
                    v.first().copied().unwrap_or(0.0),
                    medians[s],
                    v.last().copied().unwrap_or(0.0),
                    100.0 * spread,
                    100.0 * disagree,
                    100.0 * spec.bound,
                );
                if spec.name != "setup_s" && spread > spec.bound {
                    ok = false;
                    let _ = writeln!(table, "  ^ spread exceeds the bound");
                }
            }
            if disagree > spec.bound / 2.0 {
                ok = false;
                let _ = writeln!(
                    table,
                    "  ^ set medians disagree by more than half the bound"
                );
            }
        }
    }
    print!("{table}");
    println!("repeat: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

/// `selftest`: all four workloads end to end on tiny inputs, one block
/// each, untraced; proves set-up, ops, oracle and teardown in seconds.
fn selftest(env: &Env) -> Result<bool, Error> {
    let tiny = Env {
        sizes: gen::Sizes::TINY,
        ..env.clone()
    };
    let mut ok = true;
    for (name, _) in workloads::WORKLOADS {
        let started = std::time::Instant::now();
        let r = dispatch(name, &tiny, Until::Blocks(1), Pass::EndToEnd { setups: 1 })?;
        println!(
            "selftest {name}: correct={} attempted={} failed={} in {:.2} s",
            r.correct,
            r.attempted,
            r.failed,
            started.elapsed().as_secs_f64()
        );
        if !r.correct {
            for note in &r.notes {
                println!("#   {note}");
            }
        }
        ok &= r.correct && r.metrics.iter().all(|m| m.value > 0.0);
    }
    println!("selftest: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

fn real_main() -> Result<bool, Error> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if args.command.as_deref() == Some("manifest") {
        print!("{}", manifest::benchmark_json());
        return Ok(true);
    }
    let scratch = child::Scratch::create()?;
    let env = Env {
        fvtool: locate_fvtool()?,
        scratch: scratch.path().to_path_buf(),
        seed: args.seed,
        sizes: gen::Sizes::FULL,
    };
    match args.command.as_deref() {
        Some("report") => report(&env, args.until()),
        Some("repeat") => repeat(&env, args.until(), args.runs),
        Some("selftest") => selftest(&env),
        Some(other) => Err(format!("unknown command {other:?}").into()),
        None => {
            let workload = args.workload.as_deref().ok_or("--workload is required")?;
            let pass = if args.trace {
                Pass::Traced
            } else {
                Pass::EndToEnd {
                    setups: SETUPS_PER_RUN,
                }
            };
            let result = dispatch(workload, &env, args.until(), pass)?;
            print_result(&result);
            // The contract: the last line of stdout is the result object.
            println!("{}", result_json(&result));
            Ok(true)
        }
    }
}

fn main() {
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("fvbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_has_exactly_the_contract_keys() {
        let r = RunResult {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![metric("lat_p50_ms", 1.2034), metric("setup_s", 0.8127)],
            notes: Vec::new(),
        };
        assert_eq!(
            result_json(&r),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"lat_p50_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(3.0), "3.0");
    }

    #[test]
    fn arguments_follow_the_contract() {
        let argv: Vec<String> = "--workload restore --seed 9 --seconds 20 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!(a.workload.as_deref(), Some("restore"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 20.0, true));
        assert!(a.command.is_none());
        let argv: Vec<String> = "repeat --runs 3".split(' ').map(String::from).collect();
        let a = parse_args(&argv).unwrap();
        assert_eq!((a.command.as_deref(), a.runs), (Some("repeat"), 3));
        assert!(parse_args(&["--bogus".to_string()]).is_err());
        assert!(parse_args(&["--seconds".to_string(), "0".to_string()]).is_err());
    }
}
