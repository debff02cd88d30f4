//! `bikeshare`: the paper's §3.2 `CitySim` on one in-memory partition,
//! plus a dashboard read mix sent through `SStore::query` every
//! simulated second.
//!
//! A run is a series of rounds. Each round is a fresh city (set-up: build,
//! install, and [`WARMUP_SECONDS`] simulated seconds of its own traffic)
//! followed by [`ROUND_SECONDS`] timed simulated seconds, so every round
//! has the same shape even though the cost of a second grows within it
//! (the `discounts` table is never pruned). One operation is one
//! simulated second: the simulator's OLTP `invoke`s and GPS border batch
//! plus the [`DASHBOARD`] reads.
//!
//! Checks, per round: `verify_invariants`, the client-side `SimReport`
//! against the tables, and the dashboard reads on the default executor
//! against the row executor (the vector path's oracle).

use crate::layers::{per_op_metrics, Applies, PartCounters, ProcessCounters};
use crate::measure::{dir_bytes, steal_s, thread_cpu_ns, timed, RunResult, Samples, MB};
use crate::{derive_seed, Phase, RunCtx, SLICE_S};
use sstore_bikeshare::{install, verify_invariants, BikeConfig, CitySim, SimReport};
use sstore_core::common::Value;
use sstore_core::{recover, ExecPath, SStore, SStoreBuilder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Simulated seconds of set-up traffic per round.
pub const WARMUP_SECONDS: u64 = 60;
/// Timed simulated seconds per round.
pub const ROUND_SECONDS: u64 = 400;
/// Probability an idle rider starts a trip in a given second.
pub const P_START: f64 = 0.05;
/// Probability a trip is a theft.
pub const P_THEFT: f64 = 0.005;
/// Simulated seconds the durable leg runs before its recoveries.
const DURABLE_SECONDS: u64 = 60;
const DURABLE_GROUP_COMMIT: usize = 8;
/// Share of a timed second's wall time off the CPU beyond which the
/// second is left out of the latency samples.
const HELD_SHARE: f64 = 0.01;

/// The dashboard read mix, run in this order every simulated second.
pub const DASHBOARD: &[(&str, &str)] = &[
    (
        "stations_with_bikes",
        "SELECT COUNT(*) FROM stations WHERE bikes_available > 0",
    ),
    (
        "open_offers_per_station",
        "SELECT station_id, COUNT(*) FROM discounts WHERE status = 0 GROUP BY station_id",
    ),
    (
        "bikes_in_use",
        "SELECT COUNT(*) FROM bikes WHERE status = 1",
    ),
    (
        "revenue",
        "SELECT COUNT(*), SUM(charged) FROM rides WHERE end_ts IS NOT NULL",
    ),
];

type Rows = Vec<Vec<Value>>;

fn read(db: &mut SStore, sql: &str) -> Rows {
    let mut rows: Rows = db
        .query(sql, &[])
        .expect("dashboard read")
        .rows
        .iter()
        .map(|r| r.to_values())
        .collect();
    rows.sort();
    rows
}

/// Every dashboard read on the default executor, with each read's time
/// in nanoseconds.
fn dashboard(db: &mut SStore) -> (Vec<Rows>, Vec<u64>) {
    DASHBOARD
        .iter()
        .map(|(_, sql)| timed(|| read(db, sql)))
        .unzip()
}

/// [`dashboard`] on the row executor.
fn dashboard_on_row_path(db: &mut SStore) -> (Vec<Rows>, Vec<u64>) {
    db.engine_mut().set_exec_path(ExecPath::Row);
    let out = dashboard(db);
    db.engine_mut().set_exec_path(ExecPath::session_default());
    out
}

/// Compare dashboard results against the row executor's.
pub fn check_dashboard(got: &[Rows], row_path: &[Rows]) -> Result<(), String> {
    for (((name, _), g), r) in DASHBOARD.iter().zip(got).zip(row_path) {
        if g != r {
            return Err(format!(
                "dashboard read {name}: default executor {g:?} != row executor {r:?}"
            ));
        }
    }
    Ok(())
}

fn scalar(db: &mut SStore, sql: &str) -> i64 {
    db.query(sql, &[])
        .expect("check read")
        .rows
        .first()
        .and_then(|r| r[0].as_int().ok())
        .unwrap_or(0)
}

/// The client-side report against the tables, and the demo's
/// transactional invariants.
pub fn check_city(db: &mut SStore, cfg: &BikeConfig, report: &SimReport) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| verify_invariants(db, cfg)))
        .map_err(|p| {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("invariant violated: {msg}")
        })?
        .map_err(|e| format!("invariant check failed: {e}"))?;
    let pairs = [
        (
            "rides",
            "SELECT COUNT(*) FROM rides",
            report.checkouts as i64,
        ),
        (
            "returns",
            "SELECT COUNT(*) FROM rides WHERE end_ts IS NOT NULL",
            report.returns as i64,
        ),
        (
            "total_charged",
            "SELECT SUM(charged) FROM rides WHERE end_ts IS NOT NULL",
            report.total_charged,
        ),
        (
            "accepted discounts",
            "SELECT COUNT(*) FROM discounts WHERE rider_id IS NOT NULL",
            report.accepts as i64,
        ),
    ];
    for (what, sql, expected) in pairs {
        let got = scalar(db, sql);
        if got != expected {
            return Err(format!(
                "{what}: tables say {got}, the client counted {expected}"
            ));
        }
    }
    Ok(())
}

fn city(builder: SStoreBuilder, seed: u64) -> (SStore, CitySim) {
    let cfg = BikeConfig::default();
    let mut db = builder.build().expect("build bikeshare partition");
    install(&mut db, &cfg).expect("install bikeshare");
    let mut sim = CitySim::new(&mut db, cfg, seed).expect("city sim");
    sim.p_start = P_START;
    sim.p_theft = P_THEFT;
    (db, sim)
}

struct RoundsPhase {
    phase: Phase,
    counters: PartCounters,
    state_mb: Samples,
    discounts_rows: Samples,
    read_us: Samples,
    row_path_us: Samples,
    /// Timed seconds left out of the latency samples because the host or
    /// another process held this CPU for more than [`HELD_SHARE`] of them.
    held_steps: u64,
    /// Step time by position in the round, one bag per tenth.
    deciles_ms: Vec<Samples>,
}

fn run_rounds(
    ctx: &RunCtx,
    res: &mut RunResult,
    traced: bool,
    mut durable: Option<&mut DurableCity>,
) -> RoundsPhase {
    sstore_core::common::obs::set_enabled(traced);
    let cfg = BikeConfig::default();
    let round_seconds = ctx.scaled(ROUND_SECONDS);
    // One simulated second takes milliseconds, so a one-second slice
    // holds too few of them for its p99: a slice here is five seconds,
    // about a thousand simulated seconds.
    let mut phase = Phase::new(traced);
    phase.slice_s = 5.0 * SLICE_S;
    let mut out = RoundsPhase {
        phase,
        counters: PartCounters::default(),
        state_mb: Samples::default(),
        discounts_rows: Samples::default(),
        read_us: Samples::default(),
        row_path_us: Samples::default(),
        held_steps: 0,
        deciles_ms: vec![Samples::default(); 10],
    };
    let proc_before = ProcessCounters::now();
    let mut round = 0u64;
    while out.phase.wall_s < ctx.seconds || round == 0 {
        let t = Instant::now();
        let (mut db, mut sim) = city(SStoreBuilder::new(), derive_seed(ctx.seed, round));
        round += 1;
        for _ in 0..ctx.scaled(WARMUP_SECONDS) {
            res.attempted += 1;
            if sim.step(&mut db).is_err() {
                res.failed += 1;
            }
        }
        out.phase.setup_s.push(t.elapsed().as_secs_f64());

        let c0 = PartCounters::of(&db);
        for i in 0..round_seconds {
            let step_steal0 = steal_s();
            let cpu0 = thread_cpu_ns();
            let start = Instant::now();
            let (ok, sim_ns) = timed(|| sim.step(&mut db).is_ok());
            let (got, read_ns) = dashboard(&mut db);
            let step_ns = sim_ns + read_ns.iter().sum::<u64>();
            let cpu_ns = thread_cpu_ns() - cpu0;
            let held_ns = (start.elapsed().as_nanos() as u64).saturating_sub(cpu_ns);
            out.phase.cpu_s += cpu_ns as f64 / 1e9;
            let step_ms = step_ns as f64 / 1e6;
            // A step neither blocks nor sleeps, so wall time it spent off
            // the CPU is time the host, or another process on this CPU,
            // held it. Such a second measures the host, not the program:
            // it counts toward throughput (with host steal subtracted) but
            // not toward the latency quantiles.
            if held_ns as f64 > HELD_SHARE * step_ns as f64 {
                out.held_steps += 1;
            } else {
                out.phase.latency_ms.push(step_ms);
            }
            let stolen = steal_s() - step_steal0;
            out.phase.steal_s += stolen;
            out.phase.wall_s += step_ns as f64 / 1e9;
            out.phase.ops += 1;
            out.phase.mark_slice();
            out.deciles_ms[(i * 10 / round_seconds) as usize].push(step_ms);
            res.attempted += 1;
            if !ok {
                res.failed += 1;
            }
            if let Some(spans) = out.phase.spans.as_mut() {
                spans.record("bikeshare.second", start, step_ns);
            }
            // The traced run also times every read on the row executor
            // (outside the step's time) and checks it each second.
            if traced {
                let (row_path, row_ns) = dashboard_on_row_path(&mut db);
                for (ns, row_ns) in read_ns.iter().zip(&row_ns) {
                    out.read_us.push(*ns as f64 / 1e3);
                    out.row_path_us.push(*row_ns as f64 / 1e3);
                }
                if let Err(e) = check_dashboard(&got, &row_path) {
                    res.failures.push(format!("round {round} second {i}: {e}"));
                }
            }
        }
        out.counters = out.counters.plus(&PartCounters::of(&db).since(&c0));
        out.state_mb
            .push(db.engine().db().approx_bytes() as f64 / MB);
        out.discounts_rows
            .push(scalar(&mut db, "SELECT COUNT(*) FROM discounts") as f64);

        if let Err(e) = check_city(&mut db, &cfg, sim.report()) {
            res.failures.push(format!("round {round}: {e}"));
        }
        let (got, _) = dashboard(&mut db);
        if let Err(e) = check_dashboard(&got, &dashboard_on_row_path(&mut db).0) {
            res.failures.push(format!("round {round}: {e}"));
        }
        if let Some(d) = durable.as_deref_mut() {
            d.recover_once(res);
        }
    }
    out.phase.process = Some((proc_before, ProcessCounters::now()));
    eprintln!(
        "perfbench: {} of {} timed seconds left out of the latency samples: the CPU was held",
        out.held_steps, out.phase.ops
    );
    sstore_core::common::obs::set_enabled(false);
    out
}

/// The durable leg behind `recovery_s` and `durable_mb`: the first
/// [`DURABLE_SECONDS`] simulated seconds of the run's first city on a
/// durable partition, recovered after every round (untimed there) so that
/// the recoveries span the run.
struct DurableCity {
    dir: std::path::PathBuf,
    builder: SStoreBuilder,
    report: SimReport,
    durable_mb: f64,
    recovery_s: Samples,
}

impl DurableCity {
    fn write(ctx: &RunCtx, res: &mut RunResult) -> DurableCity {
        let dir = ctx.work_dir.join("bikeshare-durable");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create durable dir");
        let builder = SStoreBuilder::new().durability(&dir, DURABLE_GROUP_COMMIT);
        let (mut db, mut sim) = city(builder.clone(), derive_seed(ctx.seed, 0));
        for _ in 0..ctx.scaled(DURABLE_SECONDS) {
            res.attempted += 1;
            if sim.step(&mut db).is_err() {
                res.failed += 1;
            }
        }
        drop(db);
        let durable_mb = dir_bytes(&dir) as f64 / MB;
        DurableCity {
            dir,
            builder,
            report: sim.report().clone(),
            durable_mb,
            recovery_s: Samples::default(),
        }
    }

    /// One recovery, timed up to a store that answers a query, with the
    /// host's steal in that time subtracted, then checked.
    fn recover_once(&mut self, res: &mut RunResult) {
        let cfg = BikeConfig::default();
        let i = self.recovery_s.len();
        let steal0 = steal_s();
        let t = Instant::now();
        let mut db = recover(self.builder.config().clone(), |db| install(db, &cfg))
            .expect("recover bikeshare");
        let answered = db.query("SELECT COUNT(*) FROM stations", &[]).is_ok();
        let secs = t.elapsed().as_secs_f64();
        self.recovery_s
            .push(secs - (steal_s() - steal0).clamp(0.0, secs / 2.0));
        res.check(answered, || {
            format!("recovery {i}: the recovered store answers no query")
        });
        if let Err(e) = check_city(&mut db, &cfg, &self.report) {
            res.failures.push(format!("recovery {i}: {e}"));
        }
    }
}

impl Drop for DurableCity {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn run(ctx: &RunCtx) -> RunResult {
    let mut res = RunResult::default();
    if !ctx.trace {
        let mut durable = DurableCity::write(ctx, &mut res);
        let rounds = run_rounds(ctx, &mut res, false, Some(&mut durable));
        rounds.phase.end_to_end(&mut res);
        res.metrics
            .put("recovery_s", durable.recovery_s.median(), "s");
        res.metrics.put("durable_mb", durable.durable_mb, "MB");
        return res;
    }
    let plain = run_rounds(ctx, &mut res, false, None);
    let t = run_rounds(ctx, &mut res, true, None);
    let m = &mut res.metrics;
    let (before, after) = t.phase.process.expect("process counters");
    per_op_metrics(
        m,
        &t.counters,
        &before,
        &after,
        t.phase.ops as f64,
        Applies {
            pe_triggers: false,
            client_trips: true,
            windows: false,
        },
    );
    m.put("storage.state_mb", t.state_mb.median(), "MB");
    m.put("storage.discounts_rows", t.discounts_rows.median(), "count");
    m.put("sql.read_us_p50", t.read_us.median(), "us");
    m.put("sql.read_us_p99", t.read_us.quantile(0.99), "us");
    m.put("vector.read_row_path_us_p50", t.row_path_us.median(), "us");
    let deciles: Vec<f64> = t.deciles_ms.iter().map(Samples::mean).collect();
    m.put("bikeshare.step_ms_first_decile", deciles[0], "ms");
    m.put("bikeshare.step_ms_last_decile", deciles[9], "ms");
    m.put(
        "common.obs.trace_cost_us_per_op",
        t.phase.wall_us_per_op() - plain.phase.wall_us_per_op(),
        "us",
    );
    let deciles: Vec<String> = deciles.iter().map(f64::to_string).collect();
    res.trace_extra.push((
        "step_ms_by_decile".into(),
        format!("[{}]", deciles.join(", ")),
    ));
    res.trace_extra.push(("spans".into(), t.phase.spans_json()));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_passes_its_checks() {
        let ctx = RunCtx::for_test("bikeshare", 0.05);
        let res = run(&ctx);
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        assert!(res.correct(), "{:?}", res.failures);
        assert_eq!(res.failed, 0);
        for name in crate::END_TO_END {
            assert!(res.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn the_city_check_rejects_a_wrong_expectation() {
        let (mut db, mut sim) = city(SStoreBuilder::new(), 4);
        sim.run(&mut db, 200).unwrap();
        let cfg = BikeConfig::default();
        let report = sim.report().clone();
        check_city(&mut db, &cfg, &report).unwrap();
        assert!(report.checkouts > 0 && report.returns > 0 && report.accepts > 0);
        for wrong in [
            SimReport {
                checkouts: report.checkouts + 1,
                ..report.clone()
            },
            SimReport {
                returns: report.returns - 1,
                ..report.clone()
            },
            SimReport {
                total_charged: report.total_charged + 10,
                ..report.clone()
            },
            SimReport {
                accepts: report.accepts + 1,
                ..report.clone()
            },
        ] {
            assert!(check_city(&mut db, &cfg, &wrong).is_err(), "{wrong:?}");
        }
        let wrong_cfg = BikeConfig {
            bikes: cfg.bikes + 1,
            ..cfg.clone()
        };
        assert!(check_city(&mut db, &wrong_cfg, &report).is_err());
    }

    #[test]
    fn the_dashboard_check_rejects_a_wrong_expectation() {
        let (mut db, mut sim) = city(SStoreBuilder::new(), 6);
        sim.run(&mut db, 120).unwrap();
        let (got, _) = dashboard(&mut db);
        let (row_path, _) = dashboard_on_row_path(&mut db);
        check_dashboard(&got, &row_path).unwrap();
        let mut wrong = row_path.clone();
        wrong[0][0][0] = Value::Int(-1);
        assert!(check_dashboard(&got, &wrong).is_err());
    }
}
