//! The repository's benchmark: four workloads over the k-way plan, the
//! aggregation service and SUMMA, measured end to end, with a separate
//! traced run for per-layer metrics. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload kway_rmat_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero when any op failed or its output was wrong.

mod harness;
mod trace;
mod workloads;

use harness::{beyond, peak_rss_mb, quantile, run_phase, timed_setup, Limits, Metrics};
use trace::TraceSummary;

/// Set-up runs this many times per invocation; its median is reported.
const SETUP_REPEATS: usize = 5;
/// At most this many ops are traced (see [`Limits::max_traced`]).
const MAX_TRACED_OPS: u64 = 256;
/// The timed phase is split into this many windows of equal op wall time;
/// each latency, throughput and CPU metric is the median over the windows
/// of its value in each (see [`harness::Phase::windowed`]).
const WINDOWS: usize = 5;

/// Every end-to-end metric and its unit, as in BENCHMARK.json.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_latency_p50_ms", "ms"),
    ("op_latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Every per-layer metric and its unit, as in BENCHMARK.json. A traced
/// run reports all of them; a metric of a layer the workload does not use
/// reads 0.
const PER_LAYER: [(&str, &str); 39] = [
    ("plan.execute_ms_per_op", "ms"),
    ("plan.fingerprint_ms_per_op", "ms"),
    ("plan.symbolic_ms_per_op", "ms"),
    ("plan.numeric_ms_per_op", "ms"),
    ("plan.residual_ms_per_op", "ms"),
    ("plan.workspace_allocs_per_op", "count"),
    ("plan.parallel_efficiency_pct", "%"),
    ("pattern.hit_ratio", "ratio"),
    ("pattern.lookups_per_op", "count"),
    ("kway.numeric_ns_per_input_nnz", "ns/nnz"),
    ("kway.computed_bytes_per_input_nnz", "B/nnz"),
    ("kway.cf", "ratio"),
    ("kway.input_nnz_per_op", "count"),
    ("kway.output_nnz_per_op", "count"),
    ("kway.chunks.hash", "count"),
    ("kway.chunks.spa", "count"),
    ("kway.chunks.heap", "count"),
    ("kway.chunks.sliding-hash", "count"),
    ("kway.chunks.sliding-spa", "count"),
    ("service.submit_ms_per_op", "ms"),
    ("service.finalize_ms_per_op", "ms"),
    ("service.step_residual_ms_per_op", "ms"),
    ("service.flush_latency_p50_ms", "ms"),
    ("service.queue_depth_max", "count"),
    ("service.slices_routed_per_op", "count"),
    ("service.batches_flushed_per_op", "count"),
    ("summa.multiply_cpu_ms_per_op", "ms"),
    ("summa.reduce_cpu_ms_per_op", "ms"),
    ("summa.reduce_max_ms_per_op", "ms"),
    ("summa.residual_ms_per_op", "ms"),
    ("summa.bytes_broadcast_per_op", "count"),
    ("obs.tracing_overhead_pct", "%"),
    ("obs.dropped_spans", "count"),
    ("obs.traced_ops", "count"),
    ("obs.residual_violations", "count"),
    ("bench.latency_samples", "count"),
    ("bench.latency_beyond_p90", "count"),
    ("host.nproc", "count"),
    ("host.llc_mib", "MiB"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag);
        at.and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let parse_num = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse::<u64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = parse_num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: parse_num("--seed")?,
        seconds: seconds as f64,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workloads::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(failed) => std::process::exit(if failed { 1 } else { 0 }),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one invocation and prints its result; `Ok(true)` when any op
/// failed.
fn run(args: &Args) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let llc = spkadd::CacheConfig::detect().llc_bytes;
    // Every workload runs on one CPU; see `workloads::build`.
    let cpu = harness::pin_to_one_cpu()?;
    println!(
        "workload {} seed {} seconds {} trace {} | nproc {nproc} llc {:.1} MiB | pinned to cpu {cpu}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        llc as f64 / (1 << 20) as f64
    );
    let mut w = workloads::build(&args.workload, args.seed, nproc)?;
    let setup_s = timed_setup(w.as_mut(), SETUP_REPEATS)?;
    let mut next_op = 0;
    let limits = Limits {
        seconds: args.seconds,
        max_traced: MAX_TRACED_OPS,
    };

    if !args.trace {
        let (phase, _) = run_phase(w.as_mut(), &mut next_op, &limits, None);
        let per_window = |f: fn(&[f64], &[f64]) -> f64| phase.windowed(WINDOWS, f);
        let m = Metrics::from([
            (
                "ops_per_s",
                per_window(|l, _| l.len() as f64 / l.iter().sum::<f64>()),
            ),
            (
                "op_latency_p50_ms",
                per_window(|l, _| quantile(l, 0.5) * 1e3),
            ),
            (
                "op_latency_p90_ms",
                per_window(|l, _| quantile(l, 0.9) * 1e3),
            ),
            (
                "cpu_ms_per_op",
                per_window(|_, c| c.iter().sum::<f64>() * 1e3 / c.len() as f64),
            ),
            ("peak_rss_mb", peak_rss_mb()),
            ("setup_s", setup_s),
        ]);
        println!(
            "samples {} in {WINDOWS} windows ({} beyond p90 over the run) | failed_ops_ratio {} ({} of {})",
            phase.lats.len(),
            beyond(&phase.lats, 0.9),
            phase.failed as f64 / phase.attempted as f64,
            phase.failed,
            phase.attempted
        );
        return Ok(emit(&END_TO_END, &m, phase.attempted, phase.failed));
    }

    // Traced run: untraced and traced ops alternate.
    w.begin_traced();
    spk_obs::take_spans();
    let mut summary = TraceSummary::default();
    let (plain, traced) = run_phase(w.as_mut(), &mut next_op, &limits, Some(&mut summary));
    let dropped = spk_obs::dropped_spans();
    print!("{}", summary.table());

    let mut m = Metrics::new();
    w.layer_metrics(&summary, &mut m);
    let overhead = (plain.ops_per_s() / traced.ops_per_s() - 1.0) * 100.0;
    m.insert("obs.tracing_overhead_pct", overhead);
    m.insert("obs.dropped_spans", dropped as f64);
    m.insert("obs.traced_ops", summary.ops as f64);
    m.insert("bench.latency_samples", plain.lats.len() as f64);
    m.insert("bench.latency_beyond_p90", beyond(&plain.lats, 0.9) as f64);
    m.insert("host.nproc", nproc as f64);
    m.insert("host.llc_mib", llc as f64 / (1 << 20) as f64);
    let mut failed = plain.failed + traced.failed;
    match w.parallel_efficiency(args.seconds / 4.0) {
        Some(Ok(eff)) => {
            m.insert("plan.parallel_efficiency_pct", eff);
        }
        Some(Err(e)) => {
            eprintln!("parallel-efficiency baseline failed: {e}");
            failed += 1;
        }
        None => {}
    }
    if dropped > 0 {
        eprintln!("warning: {dropped} spans dropped; the traced numbers do not count");
    }
    Ok(emit(
        &PER_LAYER,
        &m,
        plain.attempted + traced.attempted,
        failed,
    ))
}

/// Prints every metric of `catalogue` as a line (0 when `m` lacks it),
/// then the JSON result line; returns whether anything failed.
fn emit(catalogue: &[(&str, &str)], m: &Metrics, attempted: u64, failed: u64) -> bool {
    for name in m.keys() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} missing from the catalogue"
        );
    }
    let mut json = Vec::with_capacity(catalogue.len());
    for &(name, unit) in catalogue {
        let v = m
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        println!("{name:<36} {v:>16.6} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        json.join(", "),
    );
    failed > 0
}
