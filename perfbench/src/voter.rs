//! `voter`: the paper's §3.1 leaderboard workflow on one in-memory
//! `SStore`, one vote per border batch, as a series of complete shows.
//!
//! Each show runs on a fresh partition at the paper's parameters (25
//! contestants, one elimination per 100 counted votes) until a single
//! contestant is left. Its votes are generated from the seed, and its
//! expected end state comes from `voter::Oracle`, a model of the rules
//! that shares no code with the engine. The first [`WARMUP_VOTES`] votes
//! of a show are its set-up (they fill the trending window and make the
//! first eliminations); the rest are timed, one `submit_batch` call each.

use crate::layers::{per_op_metrics, Applies, PartCounters, ProcessCounters};
use crate::measure::{dir_bytes, steal_s, thread_cpu_ns, timed, RunResult, Samples, MB};
use crate::{derive_seed, Phase, RunCtx, SLICE_S};
use sstore_core::common::Value;
use sstore_core::{recover, SStore, SStoreBuilder, TxnStatus};
use sstore_voter::checker::oracle_state;
use sstore_voter::workload::Vote;
use sstore_voter::{
    capture_state, diff_states, install, Oracle, VoteGen, VoterConfig, VoterState, WindowImpl,
};
use std::time::Instant;

/// Votes of each show that belong to its set-up, not to the timed phase.
pub const WARMUP_VOTES: usize = 200;
/// Group-commit size of the durable replay that `recovery_s` measures.
const DURABLE_GROUP_COMMIT: usize = 8;
/// Timed wall time between two recoveries of the durable replay.
const RECOVERY_EVERY_S: f64 = 1.0;

/// One show's input and its expected end state.
pub struct Show {
    pub votes: Vec<Vote>,
    pub expected: VoterState,
}

/// Generate a show from `seed`: votes until the oracle has one
/// contestant left.
pub fn gen_show(seed: u64) -> Show {
    let cfg = VoterConfig::default();
    let mut gen = VoteGen::new(seed, cfg.num_contestants);
    let mut oracle = Oracle::new(cfg);
    let mut votes = Vec::with_capacity(4096);
    while oracle.contestants.len() > 1 {
        let v = gen.next_vote();
        oracle.feed(v.phone, v.contestant);
        votes.push(v);
    }
    Show {
        votes,
        expected: oracle_state(&oracle),
    }
}

fn install_voter(db: &mut SStore) -> sstore_core::common::Result<()> {
    install(db, WindowImpl::Native, &VoterConfig::default())
}

fn fresh_store() -> SStore {
    let mut db = SStoreBuilder::new().build().expect("build voter partition");
    install_voter(&mut db).expect("install voter");
    db
}

/// Submit one vote; false when the submission errored or a TE failed
/// (rejected votes are committed or user-aborted TEs, both expected).
fn submit(db: &mut SStore, v: &Vote) -> bool {
    let ok = match db.submit_batch(
        "validate",
        vec![vec![Value::Int(v.phone), Value::Int(v.contestant)]],
    ) {
        Ok(outcomes) => outcomes.iter().all(|o| o.status != TxnStatus::Failed),
        Err(_) => false,
    };
    db.advance_clock(1_000);
    ok
}

/// Compare a show's end state with the oracle's.
pub fn check_show(expected: &VoterState, actual: &VoterState) -> Result<(), String> {
    let d = diff_states(expected, actual);
    if d.is_clean() {
        Ok(())
    } else {
        Err(format!("voter state differs from the oracle: {d:?}"))
    }
}

/// What one timed phase (a series of shows) measured.
struct ShowsPhase {
    phase: Phase,
    counters: PartCounters,
    state_mb: Samples,
}

fn run_shows(
    ctx: &RunCtx,
    res: &mut RunResult,
    traced: bool,
    mut durable: Option<&mut DurableShow>,
) -> ShowsPhase {
    sstore_core::common::obs::set_enabled(traced);
    // A slice's median vote can fall on either side of a gap in the
    // latency distribution (see README.md): short slices, so that the
    // mean over them averages many such draws.
    let mut phase = Phase::new(traced);
    phase.slice_s = SLICE_S / 4.0;
    let mut counters = PartCounters::default();
    let mut state_mb = Samples::default();
    let proc_before = ProcessCounters::now();
    let mut show_idx = 0u64;
    while phase.wall_s < ctx.seconds || show_idx == 0 {
        // Show 0's seed is the durable leg's; timed shows start at 1.
        let show = gen_show(derive_seed(ctx.seed, 1 + show_idx));
        show_idx += 1;
        let warmup = WARMUP_VOTES.min(show.votes.len());

        let t = Instant::now();
        let mut db = fresh_store();
        for v in &show.votes[..warmup] {
            res.attempted += 1;
            if !submit(&mut db, v) {
                res.failed += 1;
            }
        }
        phase.setup_s.push(t.elapsed().as_secs_f64());

        let c0 = PartCounters::of(&db);
        let cpu0 = thread_cpu_ns();
        let steal0 = steal_s();
        let t0 = Instant::now();
        for v in &show.votes[warmup..] {
            let start = Instant::now();
            let (ok, ns) = timed(|| submit(&mut db, v));
            phase.latency_ms.push(ns as f64 / 1e6);
            if let Some(spans) = phase.spans.as_mut() {
                spans.record("voter.submit_batch", start, ns);
            }
            res.attempted += 1;
            if !ok {
                res.failed += 1;
            }
        }
        phase.wall_s += t0.elapsed().as_secs_f64();
        phase.steal_s += steal_s() - steal0;
        phase.cpu_s += (thread_cpu_ns() - cpu0) as f64 / 1e9;
        phase.ops += (show.votes.len() - warmup) as u64;
        phase.mark_slice();
        if let Some(d) = durable.as_deref_mut() {
            if phase.wall_s >= d.recovery_s.len() as f64 * RECOVERY_EVERY_S {
                d.recover_once(res);
            }
        }
        counters = counters.plus(&PartCounters::of(&db).since(&c0));
        state_mb.push(db.engine().db().approx_bytes() as f64 / MB);

        let actual = capture_state(&mut db).expect("capture voter state");
        if let Err(e) = check_show(&show.expected, &actual) {
            res.failures.push(format!("show {show_idx}: {e}"));
        }
    }
    phase.process = Some((proc_before, ProcessCounters::now()));
    sstore_core::common::obs::set_enabled(false);
    ShowsPhase {
        phase,
        counters,
        state_mb,
    }
}

/// The durable leg behind `recovery_s` and `durable_mb`: the run's first
/// show again on a durable partition, recovered once per
/// [`RECOVERY_EVERY_S`] of the timed phase (untimed there) so that the
/// recoveries span the run.
struct DurableShow {
    dir: std::path::PathBuf,
    builder: SStoreBuilder,
    expected: VoterState,
    durable_mb: f64,
    recovery_s: Samples,
}

impl DurableShow {
    fn write(ctx: &RunCtx, res: &mut RunResult) -> DurableShow {
        let show = gen_show(derive_seed(ctx.seed, 0));
        let dir = ctx.work_dir.join("voter-durable");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create durable dir");
        let builder = SStoreBuilder::new().durability(&dir, DURABLE_GROUP_COMMIT);
        {
            let mut db = builder.clone().build().expect("build durable voter");
            install_voter(&mut db).expect("install voter");
            for v in &show.votes {
                res.attempted += 1;
                if !submit(&mut db, v) {
                    res.failed += 1;
                }
            }
        }
        let durable_mb = dir_bytes(&dir) as f64 / MB;
        DurableShow {
            dir,
            builder,
            expected: show.expected,
            durable_mb,
            recovery_s: Samples::default(),
        }
    }

    /// One recovery, timed up to a store that answers a query, with the
    /// host's steal in that time subtracted, then checked.
    fn recover_once(&mut self, res: &mut RunResult) {
        let i = self.recovery_s.len();
        let steal0 = steal_s();
        let t = Instant::now();
        let mut db = recover(self.builder.config().clone(), install_voter).expect("recover voter");
        let answered = db.query("SELECT COUNT(*) FROM votes", &[]).is_ok();
        let secs = t.elapsed().as_secs_f64();
        self.recovery_s
            .push(secs - (steal_s() - steal0).clamp(0.0, secs / 2.0));
        res.check(answered, || {
            format!("recovery {i}: the recovered store answers no query")
        });
        let actual = capture_state(&mut db).expect("capture recovered state");
        if let Err(e) = check_show(&self.expected, &actual) {
            res.failures.push(format!("recovery {i}: {e}"));
        }
    }
}

impl Drop for DurableShow {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

pub fn run(ctx: &RunCtx) -> RunResult {
    let mut res = RunResult::default();
    if !ctx.trace {
        let mut durable = DurableShow::write(ctx, &mut res);
        let shows = run_shows(ctx, &mut res, false, Some(&mut durable));
        shows.phase.end_to_end(&mut res);
        res.metrics
            .put("recovery_s", durable.recovery_s.median(), "s");
        res.metrics.put("durable_mb", durable.durable_mb, "MB");
        return res;
    }
    let plain = run_shows(ctx, &mut res, false, None);
    let traced = run_shows(ctx, &mut res, true, None);
    let m = &mut res.metrics;
    let ops = traced.phase.ops as f64;
    let (before, after) = traced.phase.process.expect("process counters");
    per_op_metrics(
        m,
        &traced.counters,
        &before,
        &after,
        ops,
        Applies {
            pe_triggers: true,
            client_trips: false,
            windows: true,
        },
    );
    m.put("storage.state_mb", traced.state_mb.median(), "MB");
    m.put(
        "common.obs.trace_cost_us_per_op",
        traced.phase.wall_us_per_op() - plain.phase.wall_us_per_op(),
        "us",
    );
    res.trace_extra
        .push(("spans".into(), traced.phase.spans_json()));
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_passes_its_checks() {
        let ctx = RunCtx::for_test("voter", 0.05);
        let res = run(&ctx);
        let _ = std::fs::remove_dir_all(&ctx.work_dir);
        assert!(res.correct(), "{:?}", res.failures);
        assert_eq!(res.failed, 0);
        assert!(res.attempted > 3000);
        for name in crate::END_TO_END {
            assert!(res.metrics.get(name).is_some_and(|v| v > 0.0), "{name}");
        }
    }

    #[test]
    fn the_show_check_rejects_a_wrong_expectation() {
        let show = gen_show(5);
        let mut db = fresh_store();
        for v in &show.votes {
            assert!(submit(&mut db, v));
        }
        let actual = capture_state(&mut db).unwrap();
        check_show(&show.expected, &actual).unwrap();
        let mut wrong = show.expected.clone();
        wrong.total += 1;
        assert!(check_show(&wrong, &actual).is_err());
        let mut wrong = show.expected.clone();
        wrong.eliminated.swap(0, 1);
        assert!(check_show(&wrong, &actual).is_err());
    }

    #[test]
    fn shows_run_to_a_single_winner() {
        let show = gen_show(9);
        assert_eq!(show.expected.contestants.len(), 1);
        assert_eq!(show.expected.eliminated.len(), 24);
        assert!(show.votes.len() > WARMUP_VOTES * 5);
        assert_eq!(gen_show(9).votes, show.votes, "same seed, same show");
    }
}
