//! `telemetry`: the IoT dataflow of `sstore_slt::telemetry` on a durable
//! two-partition cluster with range routing on `device`.
//!
//! Devices are grouped by gateway; most batches carry one gateway's
//! readings and land on one partition (fast path, coalescing, pipelined
//! acks), one in [`STRADDLE_EVERY`] straddles both partitions and commits
//! under 2PC, and about one in [`POISON_EVERY`] carries a poison reading
//! and aborts as designed. Every reading is re-keyed by area onto the
//! `area_feed` edge, which crosses partitions. Log retention cuts full
//! and delta snapshots during the run, and the run ends with
//! `Cluster::recover` on the durable state it left.
//!
//! The client is one thread that keeps [`WINDOW`] tickets outstanding.
//! Expected state comes from `TelemetryOracle`, a closed-form fold of the
//! submitted batches.

use crate::layers::{per_op_metrics, Applies, PartCounters, ProcessCounters};
use crate::measure::{
    dir_bytes, files_bytes, process_cpu_s, steal_s, timed, Metrics, RunResult, Samples, MB,
};
use crate::{derive_seed, Phase, RunCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sstore_core::common::obs::{self, HistogramSnapshot};
use sstore_core::common::{Row, Value};
use sstore_core::{read_log, Cluster, RouteSpec, SStoreBuilder, Ticket, TxnStatus};
use sstore_slt::telemetry::{deploy_telemetry, TelemetryOracle, POISON_TEMP, TELEMETRY_EDGES};
use std::collections::{BTreeMap, VecDeque};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const PARTITIONS: usize = 2;
pub const DEVICES: i64 = 256;
pub const GATEWAYS: i64 = 16;
pub const AREAS: i64 = 16;
pub const BATCH_ROWS: usize = 32;
/// One batch in this many straddles both partitions.
pub const STRADDLE_EVERY: u32 = 8;
/// About one batch in this many carries a poison reading.
pub const POISON_EVERY: u32 = 8;
/// Tickets the client keeps outstanding.
pub const WINDOW: usize = 8;
pub const QUEUE_DEPTH: usize = 64;
pub const GROUP_COMMIT: usize = 64;
/// Committed TEs between retention snapshots.
pub const RETENTION_COMMITS: u64 = 1_000;
/// Set-up traffic: enough batches to create every device and area row
/// and fill the sliding window.
pub const WARMUP_BATCHES: usize = 256;
/// Delta images the epilogue cuts, and the batches before each.
pub const EPILOGUE_DELTAS: usize = 4;
pub const EPILOGUE_SEGMENT: usize = 64;
/// Batches the epilogue leaves in the command log for recovery to replay.
pub const EPILOGUE_TAIL: usize = 512;
/// Set-ups before the timed phase and again after the recoveries;
/// `setup_s` is the median of all of them.
const SETUPS: usize = 6;
/// Recoveries per run; `recovery_s` is their median.
const RECOVERIES: usize = 8;

/// One generated border batch and what the generator knows of it.
pub struct GenBatch {
    pub rows: Vec<Row>,
    pub straddles: bool,
    pub poison: bool,
}

/// The seeded batch generator.
pub struct Gen(StdRng);

impl Gen {
    pub fn new(seed: u64) -> Gen {
        Gen(StdRng::seed_from_u64(seed))
    }

    pub fn next_batch(&mut self) -> GenBatch {
        let rng = &mut self.0;
        let straddles = rng.random_range(0..STRADDLE_EVERY) == 0;
        let per_gateway = DEVICES / GATEWAYS;
        let gateway = rng.random_range(0..GATEWAYS);
        let half = DEVICES / 2;
        let mut rows: Vec<Row> = (0..BATCH_ROWS)
            .map(|i| {
                let device = if !straddles {
                    gateway * per_gateway + rng.random_range(0..per_gateway)
                } else if i % 2 == 0 {
                    rng.random_range(0..half)
                } else {
                    rng.random_range(half..DEVICES)
                };
                Row::new(vec![
                    Value::Int(device),
                    Value::Int(rng.random_range(0..AREAS)),
                    Value::Int(rng.random_range(50..111)),
                ])
            })
            .collect();
        let poison = rng.random_range(0..POISON_EVERY) == 0;
        if poison {
            let victim = rng.random_range(0..rows.len());
            let mut v = rows[victim].to_values();
            v[2] = Value::Int(POISON_TEMP - 1);
            rows[victim] = Row::new(v);
        }
        GenBatch {
            rows,
            straddles,
            poison,
        }
    }
}

fn route() -> RouteSpec {
    RouteSpec::range(0, vec![DEVICES / 2])
}

fn builder(dir: &Path) -> SStoreBuilder {
    SStoreBuilder::new()
        .durability(dir, GROUP_COMMIT)
        .log_retention(RETENTION_COMMITS)
}

fn build(dir: &Path) -> Cluster {
    Cluster::with_edges(
        PARTITIONS,
        route(),
        QUEUE_DEPTH,
        &builder(dir),
        deploy_telemetry,
        TELEMETRY_EDGES,
    )
    .expect("build telemetry cluster")
}

fn recover_cluster(dir: &Path) -> Cluster {
    Cluster::recover(
        PARTITIONS,
        route(),
        QUEUE_DEPTH,
        &builder(dir),
        deploy_telemetry,
        TELEMETRY_EDGES,
    )
    .expect("recover telemetry cluster")
}

/// True when a resolved ticket shows the whole batch committed.
fn committed(outcome: &sstore_core::common::Result<Vec<sstore_core::PartitionOutcomes>>) -> bool {
    outcome.as_ref().is_ok_and(|parts| {
        parts
            .iter()
            .all(|p| p.outcomes.iter().all(|o| o.status == TxnStatus::Committed))
    })
}

fn sorted_rows(cluster: &Cluster, sql: &str) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = cluster
        .query_all(sql, &[])
        .expect("scatter-gather read")
        .iter()
        .map(|r| r.to_values())
        .collect();
    rows.sort();
    rows
}

/// Check a cluster's state against the oracle: both statistics tables
/// equal their closed form, and every reading was counted exactly once
/// on each side of the edge.
pub fn check_state(cluster: &Cluster, oracle: &TelemetryOracle) -> Result<(), String> {
    let device = sorted_rows(cluster, "SELECT device, n, total, hot FROM device_stats");
    if device != oracle.device_rows() {
        return Err(format!(
            "device_stats differs from the oracle ({} rows vs {})",
            device.len(),
            oracle.device.len()
        ));
    }
    let area = sorted_rows(cluster, "SELECT area, n, total, maxt FROM area_stats");
    if area != oracle.area_rows() {
        return Err(format!(
            "area_stats differs from the oracle ({} rows vs {})",
            area.len(),
            oracle.area.len()
        ));
    }
    let n = |rows: &[Vec<Value>]| -> i64 {
        rows.iter()
            .map(|r| if let Value::Int(v) = r[1] { v } else { 0 })
            .sum()
    };
    if n(&device) != n(&area) {
        return Err(format!(
            "sum(area_stats.n) = {} but sum(device_stats.n) = {}",
            n(&area),
            n(&device)
        ));
    }
    Ok(())
}

/// Sum of the partitions' PE/EE counters, each read on its worker.
fn counters(cluster: &Cluster) -> PartCounters {
    (0..cluster.len())
        .map(|i| {
            cluster
                .with_partition(i, |db| PartCounters::of(db))
                .expect("partition counters")
        })
        .fold(PartCounters::default(), |a, b| a.plus(&b))
}

struct Pending {
    ticket: Option<Ticket>,
    start: Instant,
    /// Host steal ([`steal_s`]) as last read before the submit.
    steal0: f64,
    poison: bool,
}

/// The client loop's state: outstanding tickets and what it measured.
struct Client<'a> {
    cluster: &'a Cluster,
    gen: &'a mut Gen,
    oracle: &'a mut TelemetryOracle,
    inflight: VecDeque<Pending>,
    /// Host steal at the last [`Client::read_steal`].
    steal_now: f64,
    /// Resolved batches' latencies and `steal0`, not yet sorted into
    /// `latency_ms` or `stolen`.
    unsorted: Vec<(f64, f64)>,
    latency_ms: Samples,
    /// Batches left out of `latency_ms` because the host's steal counter
    /// advanced while they were in flight.
    stolen: u64,
    submit_fast_us: Samples,
    submit_2pc_us: Samples,
    ticket_wait_us: Samples,
    batches: u64,
    readings: u64,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
}

impl Client<'_> {
    fn submit_next(&mut self, spans: Option<&mut crate::measure::SpanLog>) {
        let b = self.gen.next_batch();
        self.oracle.apply(&b.rows);
        self.batches += 1;
        self.readings += b.rows.len() as u64;
        self.attempted += 1;
        let start = Instant::now();
        let (ticket, ns) = timed(|| self.cluster.submit_batch_async("ingest", b.rows));
        if b.straddles {
            self.submit_2pc_us.push(ns as f64 / 1e3);
        } else {
            self.submit_fast_us.push(ns as f64 / 1e3);
        }
        if let Some(spans) = spans {
            let name = if b.straddles {
                "cluster.submit_batch_async.2pc"
            } else {
                "cluster.submit_batch_async.fast"
            };
            spans.record(name, start, ns);
        }
        let ticket = match ticket {
            Ok(t) => Some(t),
            // A straddling poison batch may be refused by the 2PC round
            // itself; any other submission error is a failed operation.
            Err(_) if b.poison => None,
            Err(e) => {
                self.fail(format!("submit failed: {e}"));
                return;
            }
        };
        self.inflight.push_back(Pending {
            ticket,
            start,
            steal0: self.steal_now,
            poison: b.poison,
        });
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 8 {
            self.mismatches.push(what);
        }
    }

    fn resolve_oldest(&mut self, spans: Option<&mut crate::measure::SpanLog>) {
        let Some(p) = self.inflight.pop_front() else {
            return;
        };
        let ok = match p.ticket {
            Some(t) => {
                let w0 = Instant::now();
                let outcome = t.wait();
                let ns = w0.elapsed().as_nanos() as u64;
                self.ticket_wait_us.push(ns as f64 / 1e3);
                if let Some(spans) = spans {
                    spans.record("ticket.wait", w0, ns);
                }
                committed(&outcome)
            }
            None => false,
        };
        self.unsorted
            .push((p.start.elapsed().as_secs_f64() * 1e3, p.steal0));
        if ok == p.poison {
            self.fail(format!(
                "a {} batch {}",
                if p.poison { "poison" } else { "clean" },
                if ok { "committed" } else { "did not commit" }
            ));
        }
    }

    fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.resolve_oldest(None);
        }
    }

    /// Read the host's steal and sort the batches resolved since the last
    /// read: a batch during whose flight the host took this CPU measures
    /// the host, not the program, and is left out of the latencies.
    fn read_steal(&mut self) {
        self.steal_now = steal_s();
        for (latency, steal0) in self.unsorted.drain(..) {
            if self.steal_now > steal0 {
                self.stolen += 1;
            } else {
                self.latency_ms.push(latency);
            }
        }
    }
}

/// One set-up: a fresh durable cluster plus the warm-up batches.
fn setup(dir: &Path, seed: u64, res: &mut RunResult) -> (Cluster, TelemetryOracle, f64) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create durable dir");
    let steal0 = steal_s();
    let t = Instant::now();
    let cluster = build(dir);
    let mut gen = Gen::new(derive_seed(seed, 0x5e7));
    let mut oracle = TelemetryOracle::default();
    let mut client = Client::new(&cluster, &mut gen, &mut oracle);
    for _ in 0..WARMUP_BATCHES {
        client.submit_next(None);
        if client.inflight.len() >= WINDOW {
            client.resolve_oldest(None);
        }
    }
    client.drain();
    cluster.quiesce().expect("quiesce after warm-up");
    // Host steal out, as for a recovery: set-up runs four threads on one
    // CPU for about 0.2 s, long enough for whole ticks of steal.
    let secs = t.elapsed().as_secs_f64();
    let secs = secs - (steal_s() - steal0).clamp(0.0, secs / 2.0);
    res.attempted += client.attempted;
    res.failed += client.failed;
    res.failures.extend(client.mismatches);
    (cluster, oracle, secs)
}

impl<'a> Client<'a> {
    fn new(cluster: &'a Cluster, gen: &'a mut Gen, oracle: &'a mut TelemetryOracle) -> Self {
        Client {
            cluster,
            gen,
            oracle,
            inflight: VecDeque::with_capacity(WINDOW + 1),
            steal_now: steal_s(),
            unsorted: Vec::with_capacity(4 * WINDOW),
            latency_ms: Samples::default(),
            stolen: 0,
            submit_fast_us: Samples::default(),
            submit_2pc_us: Samples::default(),
            ticket_wait_us: Samples::default(),
            batches: 0,
            readings: 0,
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }
}

/// Give the durable state a fixed shape before it is measured and
/// recovered: a full image, [`EPILOGUE_DELTAS`] delta images each after
/// [`EPILOGUE_SEGMENT`] batches, then a log tail of [`EPILOGUE_TAIL`]
/// batches. Where a time-bounded run stops in the retention cycle is
/// otherwise a matter of chance, and with it the delta chain and the log
/// that recovery replays.
fn epilogue(cluster: &Cluster, seed: u64, oracle: &mut TelemetryOracle, res: &mut RunResult) {
    let snapshot_all = |want_full: bool, res: &mut RunResult| {
        for i in 0..cluster.len() {
            let done = cluster.with_partition(i, move |db| -> sstore_core::common::Result<()> {
                let full0 = db.stats().snapshots_full;
                // Deltas chain up to a cap; past it the next image is full.
                for _ in 0..64 {
                    db.snapshot()?;
                    if !want_full || db.stats().snapshots_full > full0 {
                        break;
                    }
                }
                Ok(())
            });
            if !matches!(done, Ok(Ok(()))) {
                res.failures
                    .push(format!("epilogue snapshot of partition {i}: {done:?}"));
            }
        }
    };
    let mut gen = Gen::new(derive_seed(seed, 0xe91));
    let mut run_batches = |n: usize, res: &mut RunResult| {
        let mut client = Client::new(cluster, &mut gen, oracle);
        for _ in 0..n {
            client.submit_next(None);
            if client.inflight.len() >= WINDOW {
                client.resolve_oldest(None);
            }
        }
        client.drain();
        res.attempted += client.attempted;
        res.failed += client.failed;
        res.failures.append(&mut client.mismatches);
        cluster.quiesce().expect("quiesce in the epilogue");
    };
    snapshot_all(true, res);
    for _ in 0..EPILOGUE_DELTAS {
        run_batches(EPILOGUE_SEGMENT, res);
        snapshot_all(false, res);
    }
    run_batches(EPILOGUE_TAIL, res);
}

/// Phase timers recorded by the program during one call of `f`.
fn phases_during(f: impl FnOnce()) -> BTreeMap<String, HistogramSnapshot> {
    let before = obs::registry_snapshot().histograms;
    f();
    obs::registry_snapshot()
        .histograms
        .into_iter()
        .map(|(name, h)| {
            let delta = match before.get(&name) {
                Some(b) => h.since(b),
                None => h,
            };
            (name, delta)
        })
        .collect()
}

fn phase_max_ms(phases: &BTreeMap<String, HistogramSnapshot>, name: &str) -> f64 {
    phases.get(name).map_or(0.0, |h| h.max() as f64 / 1e6)
}

/// Mean bytes per command-log record, from the partitions' logs on disk.
fn log_bytes_per_record(dir: &Path) -> f64 {
    let (mut bytes, mut records) = (0u64, 0u64);
    for i in 0..PARTITIONS {
        let path: PathBuf = dir.join(format!("p{i}")).join("command.log");
        bytes += std::fs::metadata(&path).map_or(0, |m| m.len());
        records += read_log(&path).map_or(0, |r| r.len() as u64);
    }
    bytes as f64 / records.max(1) as f64
}

/// Everything one telemetry run (set-up, timed phase, recoveries)
/// measured.
struct Measured {
    phase: Phase,
    readings: u64,
    batches: u64,
    submit_fast_us: Samples,
    submit_2pc_us: Samples,
    ticket_wait_us: Samples,
    quiesce_ms: f64,
    counters: PartCounters,
    /// The partitions' tables at the end of the timed phase.
    state_mb: f64,
    coord: (u64, u64),
    coalesced: u64,
    forwards: u64,
    forwards_deduped: u64,
    skew: f64,
    report_json: String,
    stages: Vec<(String, f64, f64)>,
    durable_mb: f64,
    snapshot_mb: f64,
    log_bytes_per_record: f64,
    recovery_s: Samples,
    recovery_phases: BTreeMap<String, HistogramSnapshot>,
}

fn run_once(ctx: &RunCtx, res: &mut RunResult, traced: bool) -> Measured {
    obs::set_enabled(traced);
    let dir = ctx.work_dir.join("telemetry-durable");
    let mut phase = Phase::new(traced);

    // Set up SETUPS times; keep the last cluster for the timed phase.
    let setups = if ctx.trace { 1 } else { SETUPS };
    let mut kept = None;
    for _ in 0..setups {
        drop(kept.take());
        let (cluster, oracle, secs) = setup(&dir, ctx.seed, res);
        phase.setup_s.push(secs);
        kept = Some((cluster, oracle));
    }
    let (cluster, mut oracle) = kept.expect("at least one set-up");

    let metrics_before = cluster.metrics();
    let counters_before = counters(&cluster);
    let coord_before = cluster.coordinator_stats();
    let process_before = ProcessCounters::now();
    let mut gen = Gen::new(derive_seed(ctx.seed, 0x7e1));
    let mut client = Client::new(&cluster, &mut gen, &mut oracle);
    let cpu0 = process_cpu_s();
    let steal0 = steal_s();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        client.read_steal();
        for _ in 0..WINDOW {
            client.submit_next(phase.spans.as_mut());
            if client.inflight.len() >= WINDOW {
                client.resolve_oldest(phase.spans.as_mut());
            }
        }
        let wall_s = t0.elapsed().as_secs_f64();
        phase.mark_slice_at(wall_s, &mut client.latency_ms);
    }
    client.drain();
    client.read_steal();
    phase.wall_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: {} of {} batches left out of the latency samples for host steal",
        client.stolen, client.batches
    );
    phase.steal_s = steal_s() - steal0;
    phase.cpu_s = process_cpu_s() - cpu0;
    let (_, quiesce_ns) = timed(|| cluster.quiesce().expect("quiesce"));
    let process_after = ProcessCounters::now();
    phase.process = Some((process_before, process_after));
    phase.ops = client.readings;
    phase.latency_ms = std::mem::take(&mut client.latency_ms);
    res.attempted += client.attempted;
    res.failed += client.failed;
    res.failures.append(&mut client.mismatches);
    let (readings, batches) = (client.readings, client.batches);
    let submit_fast_us = std::mem::take(&mut client.submit_fast_us);
    let submit_2pc_us = std::mem::take(&mut client.submit_2pc_us);
    let ticket_wait_us = std::mem::take(&mut client.ticket_wait_us);
    drop(client);

    let counters = counters(&cluster).since(&counters_before);
    let state_mb = (0..cluster.len())
        .map(|i| {
            cluster
                .with_partition(i, |db| db.engine().db().approx_bytes())
                .expect("partition state size")
        })
        .sum::<usize>() as f64
        / MB;
    let coord_after = cluster.coordinator_stats();
    let metrics_after = cluster.metrics();
    let sum = |m: &sstore_core::ClusterMetrics, f: fn(&sstore_core::PartitionMetrics) -> u64| {
        m.partitions.iter().map(f).sum::<u64>()
    };
    let coalesced = sum(&metrics_after, |p| p.batches_coalesced)
        - sum(&metrics_before, |p| p.batches_coalesced);
    let forwards = sum(&metrics_after, |p| p.forwards_in) - sum(&metrics_before, |p| p.forwards_in);
    let forwards_deduped =
        sum(&metrics_after, |p| p.forwards_deduped) - sum(&metrics_before, |p| p.forwards_deduped);
    let report = cluster.observability_report();
    let stages = report
        .stages
        .iter()
        .map(|(name, h)| (name.clone(), h.p50_us, h.p99_us))
        .collect();

    if let Err(e) = check_state(&cluster, &oracle) {
        res.failures.push(format!("live cluster: {e}"));
    }
    epilogue(&cluster, ctx.seed, &mut oracle, res);
    if let Err(e) = check_state(&cluster, &oracle) {
        res.failures.push(format!("after the epilogue: {e}"));
    }
    drop(cluster);
    obs::set_enabled(false);

    let durable_mb = dir_bytes(&dir) as f64 / MB;
    let snapshot_mb = files_bytes(&dir, &|name| name.starts_with("snapshot")) as f64 / MB;
    let log_bytes_per_record = log_bytes_per_record(&dir);

    let mut recovery_s = Samples::default();
    let mut recovery_phases = BTreeMap::new();
    for i in 0..RECOVERIES {
        let mut recovered = None;
        let mut secs = 0.0;
        let phases = phases_during(|| {
            let steal0 = steal_s();
            let t = Instant::now();
            let cluster = recover_cluster(&dir);
            let answered = cluster.query_all("SELECT COUNT(*) FROM gauge", &[]);
            secs = t.elapsed().as_secs_f64();
            secs -= (steal_s() - steal0).clamp(0.0, secs / 2.0);
            recovered = Some((cluster, answered.is_ok()));
        });
        let (cluster, answered) = recovered.expect("recovered");
        recovery_s.push(secs);
        res.check(answered, || {
            format!("recovery {i}: the cluster answers no query")
        });
        if let Err(e) = cluster
            .quiesce()
            .map_err(|e| e.to_string())
            .and_then(|_| check_state(&cluster, &oracle))
        {
            res.failures.push(format!("recovery {i}: {e}"));
        }
        if i == 0 {
            recovery_phases = phases;
        }
    }
    // More set-ups at the end of the run, so that `setup_s` samples the
    // host at both ends of it.
    for _ in 0..if ctx.trace { 0 } else { SETUPS } {
        let (_, _, secs) = setup(&dir, ctx.seed, res);
        phase.setup_s.push(secs);
    }
    let _ = std::fs::remove_dir_all(&dir);

    Measured {
        phase,
        readings,
        batches,
        submit_fast_us,
        submit_2pc_us,
        ticket_wait_us,
        quiesce_ms: quiesce_ns as f64 / 1e6,
        counters,
        state_mb,
        coord: (
            coord_after.multi_partition_txns - coord_before.multi_partition_txns,
            coord_after.single_partition_fast_path - coord_before.single_partition_fast_path,
        ),
        coalesced,
        forwards,
        forwards_deduped,
        skew: metrics_after.skew(),
        report_json: report.to_json(),
        stages,
        durable_mb,
        snapshot_mb,
        log_bytes_per_record,
        recovery_s,
        recovery_phases,
    }
}

pub fn run(ctx: &RunCtx) -> RunResult {
    let mut res = RunResult::default();
    if !ctx.trace {
        let m = run_once(ctx, &mut res, false);
        m.phase.end_to_end(&mut res);
        res.metrics.put("recovery_s", m.recovery_s.median(), "s");
        res.metrics.put("durable_mb", m.durable_mb, "MB");
        return res;
    }
    let plain = run_once(ctx, &mut res, false);
    let t = run_once(ctx, &mut res, true);
    let m: &mut Metrics = &mut res.metrics;
    let per_batch = |v: u64| v as f64 / t.batches.max(1) as f64;
    m.put("core.submit_fast_us_p50", t.submit_fast_us.median(), "us");
    m.put("core.submit_2pc_us_p50", t.submit_2pc_us.median(), "us");
    m.put(
        "core.submit_2pc_us_p99",
        t.submit_2pc_us.quantile(0.99),
        "us",
    );
    m.put("core.ticket_wait_us_p50", t.ticket_wait_us.median(), "us");
    m.put("core.quiesce_ms", t.quiesce_ms, "ms");
    m.put("core.twopc_per_batch", per_batch(t.coord.0), "count");
    m.put("core.fast_path_per_batch", per_batch(t.coord.1), "count");
    m.put("core.coalesced_per_batch", per_batch(t.coalesced), "count");
    m.put("core.forwards_per_batch", per_batch(t.forwards), "count");
    m.put("core.forwards_deduped", t.forwards_deduped as f64, "count");
    m.put("core.skew", t.skew, "ratio");
    for (name, p50, p99) in &t.stages {
        m.put(format!("core.stage.{name}_p50_us"), *p50, "us");
        m.put(format!("core.stage.{name}_p99_us"), *p99, "us");
    }
    m.put(
        "core.recovery.parallel_join_ms",
        phase_max_ms(&t.recovery_phases, "recovery.parallel_join"),
        "ms",
    );
    let (before, after) = t.phase.process.expect("process counters");
    per_op_metrics(
        m,
        &t.counters,
        &before,
        &after,
        t.readings as f64,
        Applies {
            pe_triggers: false,
            client_trips: false,
            windows: true,
        },
    );
    let records_per_batch = per_batch(t.counters.log_records);
    m.put("txn.log.records_per_batch", records_per_batch, "count");
    m.put(
        "txn.log.syncs_per_batch",
        per_batch(t.counters.log_syncs),
        "count",
    );
    m.put(
        "txn.log.bytes_per_batch",
        records_per_batch * t.log_bytes_per_record,
        "B",
    );
    m.put(
        "txn.snapshots_full",
        t.counters.snapshots_full as f64,
        "count",
    );
    m.put(
        "txn.snapshots_delta",
        t.counters.snapshots_delta as f64,
        "count",
    );
    m.put(
        "txn.recovery.log_replay_ms",
        phase_max_ms(&t.recovery_phases, "recovery.log_replay"),
        "ms",
    );
    m.put(
        "storage.snapshot.base_image_ms",
        phase_max_ms(&t.recovery_phases, "recovery.base_image"),
        "ms",
    );
    m.put(
        "storage.snapshot.delta_apply_ms",
        phase_max_ms(&t.recovery_phases, "recovery.delta_apply"),
        "ms",
    );
    m.put("storage.snapshot_mb", t.snapshot_mb, "MB");
    m.put("storage.state_mb", t.state_mb, "MB");
    m.put(
        "common.obs.trace_cost_us_per_op",
        t.phase.wall_us_per_op() - plain.phase.wall_us_per_op(),
        "us",
    );
    res.trace_extra
        .push(("observability_report".into(), t.report_json));
    res.trace_extra.push(("spans".into(), t.phase.spans_json()));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_passes_its_checks() {
        let ctx = RunCtx::for_test("telemetry", 0.3);
        let res = run(&ctx);
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        assert!(res.correct(), "{:?}", res.failures);
        assert_eq!(res.failed, 0);
        for name in crate::END_TO_END {
            assert!(res.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn the_generator_keeps_its_stated_shape() {
        let mut gen = Gen::new(3);
        let batches: Vec<GenBatch> = (0..4000).map(|_| gen.next_batch()).collect();
        let straddle = batches.iter().filter(|b| b.straddles).count() as f64 / 4000.0;
        let poison = batches.iter().filter(|b| b.poison).count() as f64 / 4000.0;
        assert!((straddle - 0.125).abs() < 0.02, "{straddle}");
        assert!((poison - 0.125).abs() < 0.02, "{poison}");
        let router = sstore_core::Router::new(route(), PARTITIONS).unwrap();
        for b in &batches {
            let shards = router.shard(b.rows.clone()).unwrap();
            let used = shards.iter().filter(|s| !s.is_empty()).count();
            assert_eq!(used > 1, b.straddles);
        }
    }

    #[test]
    fn the_state_check_rejects_a_wrong_expectation() {
        let dir = crate::test_dir("telemetry-check");
        let mut res = RunResult::default();
        let (cluster, oracle, _) = setup(&dir, 1, &mut res);
        assert!(res.correct() && res.failed == 0, "{:?}", res.failures);
        check_state(&cluster, &oracle).unwrap();
        let copy = || TelemetryOracle {
            device: oracle.device.clone(),
            area: oracle.area.clone(),
        };
        let mut wrong = copy();
        wrong.device.get_mut(&0).expect("device 0 seen").1 += 1;
        assert!(check_state(&cluster, &wrong).is_err());
        let mut wrong = copy();
        wrong.area.get_mut(&0).expect("area 0 seen").2 += 1;
        assert!(check_state(&cluster, &wrong).is_err());
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_outcome_check_rejects_a_wrong_prediction() {
        let dir = crate::test_dir("telemetry-outcome");
        let mut res = RunResult::default();
        let (cluster, mut oracle, _) = setup(&dir, 2, &mut res);
        let mut gen = Gen::new(11);
        let mut client = Client::new(&cluster, &mut gen, &mut oracle);
        // Submit batches, then flip the generator's poison prediction of
        // each pending batch before it resolves: every one must be
        // reported as a failed operation.
        for _ in 0..WINDOW {
            client.submit_next(None);
        }
        for p in client.inflight.iter_mut() {
            p.poison = !p.poison;
        }
        client.drain();
        assert_eq!(client.failed, WINDOW as u64);
        drop(client);
        drop(cluster);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
