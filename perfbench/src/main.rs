//! The repository's benchmark: one command, three workloads (`voter`,
//! `telemetry`, `bikeshare`), each driven through the public API from a
//! single client thread with inputs generated from `--seed`, and checked
//! against models computed apart from the engine.
//!
//! ```text
//! perfbench --workload <voter|telemetry|bikeshare> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the last line of standard output is the result with
//! the end-to-end metrics ([`END_TO_END`]); with `--trace 1` it carries
//! the per-layer metrics every workload reports ([`PER_LAYER`]) from a
//! traced run. Every per-layer metric that applies to the workload is
//! also written, with the benchmark's spans and the program's phase
//! histograms, to `<out>/<workload>-seed<n>-trace.json`. See README.md.

mod bikeshare;
mod layers;
mod measure;
mod telemetry;
mod voter;

use layers::ProcessCounters;
use measure::{peak_rss_mb, RunResult, Samples, SpanLog};
use std::path::PathBuf;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "throughput_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "cpu_us_per_op",
    "peak_rss_mb",
    "recovery_s",
    "durable_mb",
];

/// The per-layer metrics every workload reports with `--trace 1`: those
/// read from counters and timers all three workloads drive. The result
/// line carries exactly these; the trace file also carries the metrics
/// of layers only one workload drives (see README.md).
pub const PER_LAYER: &[&str] = &[
    "txn.tes_per_op",
    "txn.user_aborts_per_op",
    "engine.statements_per_op",
    "engine.pe_ee_trips_per_op",
    "engine.ee_triggers_per_op",
    "engine.stream_appends_per_op",
    "engine.rows_gcd_per_op",
    "storage.state_mb",
    "common.row.deep_copies_per_op",
    "common.row.cow_breaks_per_op",
    "common.codec.tree_encodes_per_op",
    "common.obs.trace_cost_us_per_op",
];

/// Spans a traced run keeps in memory (all are counted).
const SPAN_CAP: usize = 200_000;
/// Length of the slices a timed phase is cut into, in seconds of timed
/// wall time.
pub const SLICE_S: f64 = 1.0;

/// What one invocation runs.
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed phase, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch space for durable directories (removed at exit).
    pub work_dir: PathBuf,
    /// Scale of simulated lengths (1 in real runs; smaller in tests).
    pub scale: f64,
}

impl RunCtx {
    /// `n` scaled by the run's scale, at least 1.
    pub fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale) as u64).max(1)
    }

    #[cfg(test)]
    pub fn for_test(workload: &str, seconds: f64) -> RunCtx {
        RunCtx {
            workload: workload.into(),
            seed: 1,
            seconds,
            trace: false,
            work_dir: test_dir(workload),
            scale: 0.25,
        }
    }
}

#[cfg(test)]
pub fn test_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()))
}

/// Derive an independent seed for the `salt`-th input stream of a run
/// (splitmix64 finaliser).
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a timed phase measured, in the terms of the end-to-end metrics.
///
/// Throughput counts only the time the host let the benchmark's CPU run.
/// The latency quantiles are computed per slice of about `slice_s` of
/// timed wall time, and the phase reports their interquartile mean over
/// the slices (see README.md, "Host noise"). Latency samples are kept only for the
/// slice in progress, so the benchmark's own memory stays small beside
/// the program's.
pub struct Phase {
    /// Operations completed in the timed phase.
    pub ops: u64,
    pub wall_s: f64,
    /// Host steal during the timed wall time ([`measure::steal_s`]).
    pub steal_s: f64,
    pub cpu_s: f64,
    /// Latency samples of the slice in progress.
    pub latency_ms: Samples,
    /// Slice length in seconds ([`SLICE_S`] unless the workload sets it).
    pub slice_s: f64,
    /// Timed wall time at the end of the last closed slice.
    slice_start_s: f64,
    /// p50 and p99 of each closed slice.
    slice_p50: Samples,
    slice_p99: Samples,
    pub setup_s: Samples,
    /// The benchmark's own spans (traced runs only).
    pub spans: Option<SpanLog>,
    /// Process-wide counters at the start and end of the phase.
    pub process: Option<(ProcessCounters, ProcessCounters)>,
}

impl Phase {
    pub fn new(traced: bool) -> Phase {
        Phase {
            ops: 0,
            wall_s: 0.0,
            steal_s: 0.0,
            cpu_s: 0.0,
            latency_ms: Samples::with_capacity(1 << 16),
            slice_s: SLICE_S,
            slice_start_s: 0.0,
            slice_p50: Samples::default(),
            slice_p99: Samples::default(),
            setup_s: Samples::default(),
            spans: traced.then(|| SpanLog::new(SPAN_CAP)),
            process: None,
        }
    }

    /// Close the current slice if it has lasted `slice_s` of timed wall
    /// time (`wall_s` is the phase's timed wall time so far), given the
    /// slice's latency samples (cleared when the slice closes).
    pub fn mark_slice_at(&mut self, wall_s: f64, latency_ms: &mut Samples) {
        if wall_s - self.slice_start_s < self.slice_s {
            return;
        }
        // A slice whose every sample was left out for host steal has no
        // latency figures.
        if !latency_ms.is_empty() {
            self.slice_p50.push(latency_ms.median());
            self.slice_p99.push(latency_ms.quantile(0.99));
        }
        self.slice_start_s = wall_s;
        latency_ms.clear();
    }

    /// [`Phase::mark_slice_at`] with the phase's own running totals.
    pub fn mark_slice(&mut self) {
        let mut latency_ms = std::mem::take(&mut self.latency_ms);
        self.mark_slice_at(self.wall_s, &mut latency_ms);
        self.latency_ms = latency_ms;
    }

    /// The end-to-end metrics a phase gives (all but `recovery_s` and
    /// `durable_mb`, which come from the workload's durable state), and
    /// the host steal taken out of its times.
    pub fn end_to_end(&self, res: &mut RunResult) {
        // The unfinished last slice counts when it is at least half a
        // slice long or the only one.
        let (mut p50, mut p99) = (self.slice_p50.clone(), self.slice_p99.clone());
        let tail_counts = self.wall_s - self.slice_start_s >= self.slice_s / 2.0;
        if !self.latency_ms.is_empty() && (p50.is_empty() || tail_counts) {
            p50.push(self.latency_ms.median());
            p99.push(self.latency_ms.quantile(0.99));
        }
        // Steal is counted in 10 ms ticks; never let it take more than
        // half of the timed time.
        res.steal_s = self.steal_s.clamp(0.0, self.wall_s / 2.0);
        let run_s = self.wall_s - res.steal_s;
        let m = &mut res.metrics;
        m.put("setup_s", self.setup_s.median(), "s");
        m.put("throughput_per_s", self.ops as f64 / run_s, "1/s");
        m.put("latency_p50_ms", p50.interquartile_mean(), "ms");
        m.put("latency_p99_ms", p99.interquartile_mean(), "ms");
        m.put("cpu_us_per_op", self.cpu_s * 1e6 / self.ops as f64, "us");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
    }

    pub fn wall_us_per_op(&self) -> f64 {
        self.wall_s * 1e6 / self.ops.max(1) as f64
    }

    pub fn spans_json(&self) -> String {
        self.spans
            .as_ref()
            .map_or_else(|| "null".into(), SpanLog::to_json)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <voter|telemetry|bikeshare> --seed <n> \
         --seconds <s> --trace <0|1> [--out <dir>]"
    );
    std::process::exit(64);
}

fn parse_args() -> (RunCtx, PathBuf) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 0.0f64, false);
    let mut out = PathBuf::from("perfbench/out");
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            "--out" => out = PathBuf::from(value),
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !["voter", "telemetry", "bikeshare"].contains(&workload.as_str()) || seconds <= 0.0 {
        usage();
    }
    let work_dir = out.join(format!("run-{}", std::process::id()));
    let ctx = RunCtx {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        scale: 1.0,
    };
    (ctx, out)
}

/// The traced run's file: per-layer metrics, the program's registry
/// phase histograms, and whatever the workload adds (spans, the
/// cluster's observability report).
fn write_trace_file(
    ctx: &RunCtx,
    out: &std::path::Path,
    res: &RunResult,
) -> std::io::Result<PathBuf> {
    let mut phases = String::from("{");
    let registry = sstore_core::common::obs::registry_snapshot();
    for (i, (name, h)) in registry.histograms.iter().enumerate() {
        let r = h.report();
        if i > 0 {
            phases.push_str(", ");
        }
        phases.push_str(&format!(
            "\"{name}\": {{\"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            r.count, r.mean_us, r.p50_us, r.p99_us, r.max_us
        ));
    }
    phases.push('}');
    let mut doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"cpus\": {}, \
         \"correct\": {}, \"metrics\": {}, \"phases\": {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        res.correct(),
        res.metrics.to_json(),
        phases
    );
    for (key, json) in &res.trace_extra {
        doc.push_str(&format!(", \"{key}\": {json}"));
    }
    doc.push_str("}\n");
    let path = out.join(format!("{}-seed{}-trace.json", ctx.workload, ctx.seed));
    std::fs::write(&path, doc)?;
    Ok(path)
}

fn run_workload(ctx: &RunCtx) -> RunResult {
    match ctx.workload.as_str() {
        "voter" => voter::run(ctx),
        "telemetry" => telemetry::run(ctx),
        _ => bikeshare::run(ctx),
    }
}

fn main() {
    let (ctx, out) = parse_args();
    sstore_core::common::obs::set_enabled(false);
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        std::process::exit(1);
    }
    let res = run_workload(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    for f in &res.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    if ctx.trace {
        match write_trace_file(&ctx, &out, &res) {
            Ok(path) => eprintln!("perfbench: traced run written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write the traced run: {e}"),
        }
    }
    let metrics = match res
        .metrics
        .only(if ctx.trace { PER_LAYER } else { END_TO_END })
    {
        Ok(m) => m,
        Err(name) => {
            eprintln!("perfbench: metric {name} missing");
            std::process::exit(1);
        }
    };
    if !ctx.trace {
        println!("host_steal_s {}", res.steal_s);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        res.correct(),
        res.attempted,
        res.failed,
        metrics.to_json()
    );
    if !res.correct() {
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name`s of one metric list of BENCHMARK.json, in order.
    fn manifest_names(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = text
            .find(&format!("\"{list}\""))
            .unwrap_or_else(|| panic!("no {list} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list ends")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("a quoted name").to_string())
            .collect()
    }

    #[test]
    fn the_manifest_lists_the_reported_metrics() {
        assert_eq!(manifest_names("end_to_end"), END_TO_END);
        assert_eq!(manifest_names("per_layer"), PER_LAYER);
    }

    #[test]
    fn every_workload_reports_every_per_layer_metric_when_traced() {
        for (workload, seconds) in [("voter", 0.05), ("telemetry", 0.3), ("bikeshare", 0.05)] {
            let mut ctx = RunCtx::for_test(workload, seconds);
            ctx.trace = true;
            // Apart from the untraced self-tests, which may run meanwhile.
            ctx.work_dir = test_dir(&format!("{workload}-traced"));
            let res = run_workload(&ctx);
            let _ = std::fs::remove_dir_all(&ctx.work_dir);
            assert!(res.correct(), "{workload}: {:?}", res.failures);
            if let Err(name) = res.metrics.only(PER_LAYER) {
                panic!("{workload} does not report {name}");
            }
        }
    }
}
