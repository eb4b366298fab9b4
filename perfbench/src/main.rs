//! The repository benchmark: four workloads over the MATADOR toolflow
//! and serving stack, each timed from outside by calling the layers'
//! public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_mnist|serve_batch|front_poisson|front_chaos> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! report the workload's own figures and which datapath ran. A traced
//! run also writes its spans to `perfbench/out/`. The process exits 1
//! when any output disagrees with its reference, 2 on a usage or
//! program error.

mod common;
mod front;
mod serve_batch;
mod table1;
mod trace;

use common::Outcome;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = [
    "table1_mnist",
    "serve_batch",
    "front_poisson",
    "front_chaos",
];

/// Every end-to-end metric, reported by every workload.
const E2E: [&str; 10] = [
    "setup_s",
    "peak_rss_mb",
    "flow_s",
    "host_ops_s",
    "tm_accuracy",
    "design_luts",
    "design_inf_s",
    "latency_p50_cycles",
    "latency_p999_cycles",
    "goodput",
];

/// Every figure the report names, gated or not, with its unit; a
/// workload that has no such figure prints `n/a`.
const NAMED: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("flow_s", "s"),
    ("table1_s", "s"),
    ("tm_accuracy", "fraction"),
    ("design_luts", "LUTs"),
    ("design_inf_s", "inf/s"),
    ("batch_inf_s", "inf/s"),
    ("front_req_s", "req/s"),
    ("latency_p50_cycles", "cycles"),
    ("latency_p999_cycles", "cycles"),
    ("max_util_pct", "%"),
    ("goodput", "fraction"),
    ("failed_frac", "fraction"),
];

/// Every per-layer metric with its unit. A workload that never calls
/// into a layer reports 0 for it.
const LAYERS: [(&str, &str); 34] = [
    ("datasets.generate_s", "s"),
    ("tsetlin.fit_s", "s"),
    ("core.generate_s", "s"),
    ("synth.implement_s", "s"),
    ("rtl.emit_s", "s"),
    ("core.verify_s", "s"),
    ("sim.characterize_s", "s"),
    ("baselines.train_s", "s"),
    ("baselines.sample_steps", "count"),
    ("logic.and2_gates", "count"),
    ("rtl.verilog_bytes", "bytes"),
    ("serve.pool_build_s", "s"),
    ("sim.turbo_s", "s"),
    ("serve.serve_s", "s"),
    ("serve.overhead_frac", "fraction"),
    ("par.chunk_workers", "workers"),
    ("sim.tape_instructions", "count"),
    ("sim.strips", "count"),
    ("pool.consolidated_frac", "fraction"),
    ("serve.submit_s", "s"),
    ("serve.advance_s", "s"),
    ("serve.drain_s", "s"),
    ("front.batch_fill", "fraction"),
    ("front.batches.fill", "count"),
    ("front.batches.pressure", "count"),
    ("front.batches.idle", "count"),
    ("front.batches.drain", "count"),
    ("pool.retries", "count"),
    ("pool.redirects", "count"),
    ("faults.injected", "count"),
    ("faults.detected", "count"),
    ("health.transitions", "count"),
    ("pool.redirect_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

fn usage(msg: &str) -> String {
    format!(
        "{msg}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| usage(&format!("{flag} requires a value")))?;
        let bad = || usage(&format!("bad value '{value}' for {flag}"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(bad)?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--workload" => return Err(bad()),
            _ => return Err(usage(&format!("unknown flag '{flag}'"))),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed: seed.ok_or_else(|| usage("--seed is required"))?,
        seconds: seconds.ok_or_else(|| usage("--seconds is required"))?,
        trace: trace.ok_or_else(|| usage("--trace is required"))?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Outcome::default();
    trace::set_enabled(args.trace);
    trace::set_iteration(None);
    let result = match args.workload.as_str() {
        "table1_mnist" => table1::run(&args, &mut out),
        "serve_batch" => serve_batch::run(&args, &mut out),
        "front_poisson" => front::run_poisson(&args, &mut out),
        _ => front::run_chaos(&args, &mut out),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    out.e2e("peak_rss_mb", common::peak_rss_mb(), "MB");
    if args.trace {
        if let Err(e) = write_trace(&args) {
            eprintln!("error: writing the trace: {e}");
            return ExitCode::from(2);
        }
    }
    print_result(&args, &out);
    for m in &out.mismatches {
        eprintln!("MISMATCH: {m}");
    }
    if out.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn write_trace(args: &Args) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::to_json(&args.workload, args.seed))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn print_result(args: &Args, out: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &out.report {
        println!("{line}");
    }
    let facts: Vec<String> = out.facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("path: {}", facts.join(" "));
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "failed_frac {failed_frac} ({} of {} attempted)",
        out.failed, out.attempted
    );
    let mut named = String::from("metrics:");
    for (name, unit) in NAMED {
        let value = match name {
            "failed_frac" => Some(failed_frac),
            _ => out.e2e.get(name).or(out.own.get(name)).map(|m| m.value),
        };
        match value {
            Some(v) => write!(named, " {name}={v} {unit}"),
            None => write!(named, " {name}=n/a {unit}"),
        }
        .expect("writing to a String cannot fail");
    }
    println!("{named}");
    let mut e2e_line = String::from("end-to-end:");
    for name in E2E {
        let m = out
            .e2e
            .get(name)
            .expect("every workload reports every metric");
        let _ = write!(e2e_line, " {name}={} {}", m.value, m.unit);
    }
    println!("{e2e_line}");
    if args.trace {
        for (layer, s) in trace::self_time_by_layer() {
            println!("self time {layer}: {s:.6} s");
        }
    }

    let mut metrics = String::new();
    let mut push = |name: &str, value: f64, unit: &str| {
        let comma = if metrics.is_empty() { "" } else { ", " };
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(
            metrics,
            "{comma}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    };
    if args.trace {
        for (name, unit) in LAYERS {
            push(name, out.layer.get(name).map_or(0.0, |m| m.value), unit);
        }
    } else {
        for name in E2E {
            let m = out.e2e[name];
            push(name, m.value, m.unit);
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.mismatches.is_empty(),
        out.attempted,
        out.failed
    );
}
