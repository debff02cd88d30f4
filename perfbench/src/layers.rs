//! Per-layer counters read from the program before and after a timed
//! phase: `PeStats` (txn), `EeStats` (engine), and the process-wide
//! `RowMetrics` and `CodecMetrics` (common). The deltas become the
//! `*_per_op` and `*_per_batch` metrics of a traced run.

use crate::measure::Metrics;
use sstore_core::common::{CodecMetrics, RowMetrics};
use sstore_core::SStore;

/// Summable PE + EE counters of one or more partitions.
#[derive(Debug, Default, Clone, Copy)]
pub struct PartCounters {
    pub tes: u64,
    pub user_aborts: u64,
    pub pe_triggers: u64,
    pub client_trips: u64,
    pub log_records: u64,
    pub log_syncs: u64,
    pub snapshots_full: u64,
    pub snapshots_delta: u64,
    pub statements: u64,
    pub pe_ee_trips: u64,
    pub ee_triggers: u64,
    pub window_slides: u64,
    pub window_evictions: u64,
    pub stream_appends: u64,
    pub rows_gcd: u64,
}

impl PartCounters {
    pub fn of(p: &SStore) -> PartCounters {
        let s = p.stats();
        let e = *p.engine().stats();
        PartCounters {
            tes: s.total_tes(),
            user_aborts: s.user_aborts,
            pe_triggers: s.pe_trigger_firings,
            client_trips: s.client_pe_trips,
            log_records: s.log_records,
            log_syncs: s.log_syncs,
            snapshots_full: s.snapshots_full,
            snapshots_delta: s.snapshots_delta,
            statements: e.statements,
            pe_ee_trips: e.pe_ee_trips,
            ee_triggers: e.insert_trigger_firings,
            window_slides: e.window_slides,
            window_evictions: e.window_evictions,
            stream_appends: e.stream_appends,
            rows_gcd: e.rows_gcd,
        }
    }

    fn zip(&self, o: &PartCounters, f: impl Fn(u64, u64) -> u64) -> PartCounters {
        PartCounters {
            tes: f(self.tes, o.tes),
            user_aborts: f(self.user_aborts, o.user_aborts),
            pe_triggers: f(self.pe_triggers, o.pe_triggers),
            client_trips: f(self.client_trips, o.client_trips),
            log_records: f(self.log_records, o.log_records),
            log_syncs: f(self.log_syncs, o.log_syncs),
            snapshots_full: f(self.snapshots_full, o.snapshots_full),
            snapshots_delta: f(self.snapshots_delta, o.snapshots_delta),
            statements: f(self.statements, o.statements),
            pe_ee_trips: f(self.pe_ee_trips, o.pe_ee_trips),
            ee_triggers: f(self.ee_triggers, o.ee_triggers),
            window_slides: f(self.window_slides, o.window_slides),
            window_evictions: f(self.window_evictions, o.window_evictions),
            stream_appends: f(self.stream_appends, o.stream_appends),
            rows_gcd: f(self.rows_gcd, o.rows_gcd),
        }
    }

    pub fn plus(&self, o: &PartCounters) -> PartCounters {
        self.zip(o, |a, b| a + b)
    }

    pub fn since(&self, earlier: &PartCounters) -> PartCounters {
        self.zip(earlier, |a, b| a.saturating_sub(b))
    }
}

/// Process-wide row and codec counters.
#[derive(Debug, Clone, Copy)]
pub struct ProcessCounters {
    rows: RowMetrics,
    codec: CodecMetrics,
}

impl ProcessCounters {
    pub fn now() -> ProcessCounters {
        ProcessCounters {
            rows: RowMetrics::snapshot(),
            codec: CodecMetrics::snapshot(),
        }
    }
}

/// Which of the shared per-op metrics a workload reports (a metric that
/// does not apply to a workload is left out).
pub struct Applies {
    pub pe_triggers: bool,
    pub client_trips: bool,
    pub windows: bool,
}

/// The txn, engine and common per-operation metrics every workload
/// reports, from counter deltas over `ops` operations.
pub fn per_op_metrics(
    m: &mut Metrics,
    d: &PartCounters,
    before: &ProcessCounters,
    after: &ProcessCounters,
    ops: f64,
    applies: Applies,
) {
    let per = |v: u64| v as f64 / ops.max(1.0);
    m.put("txn.tes_per_op", per(d.tes), "count");
    m.put("txn.user_aborts_per_op", per(d.user_aborts), "count");
    if applies.pe_triggers {
        m.put("txn.pe_triggers_per_op", per(d.pe_triggers), "count");
    }
    if applies.client_trips {
        m.put("txn.client_trips_per_op", per(d.client_trips), "count");
    }
    m.put("engine.statements_per_op", per(d.statements), "count");
    m.put("engine.pe_ee_trips_per_op", per(d.pe_ee_trips), "count");
    if applies.windows {
        m.put("engine.window_slides_per_op", per(d.window_slides), "count");
        m.put(
            "engine.window_evictions_per_op",
            per(d.window_evictions),
            "count",
        );
    }
    m.put("engine.ee_triggers_per_op", per(d.ee_triggers), "count");
    m.put(
        "engine.stream_appends_per_op",
        per(d.stream_appends),
        "count",
    );
    m.put("engine.rows_gcd_per_op", per(d.rows_gcd), "count");
    let rows = after.rows.since(&before.rows);
    let codec = after.codec.since(&before.codec);
    m.put(
        "common.row.deep_copies_per_op",
        per(rows.deep_copies),
        "count",
    );
    m.put(
        "common.row.cow_breaks_per_op",
        per(rows.cow_breaks),
        "count",
    );
    m.put(
        "common.codec.tree_encodes_per_op",
        per(codec.tree_encodes),
        "count",
    );
}
