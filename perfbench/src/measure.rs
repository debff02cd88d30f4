//! Measurement plumbing shared by the workloads: latency samples and
//! their quantiles, CPU time, peak RSS, directory sizes, the metric list
//! a run reports, and the in-memory span log of a traced run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// A bag of measurements (microseconds, milliseconds, ... — the caller
/// knows the unit).
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.sum() / self.0.len() as f64
    }

    /// Quantile `q` in `[0, 1]`, linearly interpolated between the two
    /// nearest order statistics (0 for an empty bag).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the middle half of the bag: the values left when the
    /// lowest and highest quarter are set aside (at least one value is
    /// kept; 0 for an empty bag).
    pub fn interquartile_mean(&self) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let cut = v.len() / 4;
        Samples(v[cut..v.len() - cut].to_vec()).mean()
    }
}

/// CPU time of the calling thread in nanoseconds
/// (`CLOCK_THREAD_CPUTIME_ID`; 0 where it cannot be read). The voter and
/// bikeshare workloads run entirely on the client thread, so this is
/// their whole CPU cost. The clock stops while the host or another
/// process holds the CPU, so a step that neither blocks nor sleeps was
/// kept from running for its wall time less its CPU time.
pub fn thread_cpu_ns() -> u64 {
    use std::os::raw::{c_int, c_long};
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of the whole process (every thread, live or exited) in
/// seconds, from `/proc/self/stat` (clock-tick resolution, 10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> f64 { fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0) };
    (tick(11) + tick(12)) / 100.0
}

/// Time in seconds the hypervisor kept the CPUs this process may run on
/// from running while they had work (the `steal` column of
/// `/proc/stat`, summed over the CPUs in `Cpus_allowed_list`; 0 where
/// the host does not report it). The benchmark runs pinned to one CPU,
/// so this is the time its own work waited for the host.
pub fn steal_s() -> f64 {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    let allowed = ALLOWED.get_or_init(allowed_cpus);
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: u64 = stat
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let cpu: usize = f.next()?.strip_prefix("cpu")?.parse().ok()?;
            if !allowed.contains(&cpu) {
                return None;
            }
            f.nth(7)?.parse::<u64>().ok()
        })
        .sum();
    ticks as f64 / 100.0
}

/// The CPUs this process may run on (`Cpus_allowed_list`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(|list| {
            list.trim()
                .split(',')
                .flat_map(|part| {
                    let (lo, hi) = part.split_once('-').unwrap_or((part, part));
                    let lo = lo.trim().parse().unwrap_or(0);
                    let hi = hi.trim().parse().unwrap_or(lo);
                    lo..=hi
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total size in bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    files_bytes(dir, &|_| true)
}

/// Bytes of the files under `dir` (recursively) whose name satisfies
/// `keep`.
pub fn files_bytes(dir: &Path, keep: &dyn Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => files_bytes(&e.path(), keep),
            Ok(m) if keep(&e.file_name().to_string_lossy()) => m.len(),
            _ => 0,
        })
        .sum()
}

pub const MB: f64 = 1024.0 * 1024.0;

/// The named metrics one run reports, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The metrics named in `names`, in that order; `Err` names the first
    /// one this run did not report.
    pub fn only(&self, names: &[&str]) -> Result<Metrics, String> {
        names
            .iter()
            .map(|name| {
                self.0
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .cloned()
                    .ok_or_else(|| name.to_string())
            })
            .collect::<Result<Vec<_>, _>>()
            .map(Metrics)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push('}');
        s
    }
}

/// One timed public call of a traced run.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Start, ns since the span log was created.
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory during a traced run and written out when it
/// ends. Holds at most `cap` spans; the count of every span is kept.
pub struct SpanLog {
    origin: Instant,
    cap: usize,
    spans: Vec<Span>,
    total: u64,
}

impl SpanLog {
    pub fn new(cap: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            total: 0,
        }
    }

    /// Record a span that started at `start` and lasted `dur_ns`.
    pub fn record(&mut self, name: &'static str, start: Instant, dur_ns: u64) {
        self.total += 1;
        if self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns,
            });
        }
    }

    /// `{"total": n, "kept": k, "spans": [[name, start_ns, dur_ns], ...]}`
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"total\": {}, \"kept\": {}, \"spans\": [",
            self.total,
            self.spans.len()
        );
        for (i, sp) in self.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "[\"{}\",{},{}]", sp.name, sp.start_ns, sp.dur_ns);
        }
        s.push_str("]}");
        s
    }
}

/// Time `f`, returning its result and the elapsed nanoseconds.
#[inline]
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Outcome of one workload run: the counts the result line carries, the
/// metrics, and the failed checks (empty when every check passed).
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Host steal subtracted from the timed phase, in seconds.
    pub steal_s: f64,
    /// Extra JSON (`"key": value` members) for the traced run's file.
    pub trace_extra: Vec<(String, String)>,
}

impl RunResult {
    /// Record a check: a failed check is kept with its description.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert!((s.quantile(0.99) - 4.96).abs() < 1e-9);
        assert_eq!(s.interquartile_mean(), 3.0);
        s.push(100.0);
        s.push(-100.0);
        assert_eq!(s.interquartile_mean(), 3.0);
        assert_eq!(Samples::default().interquartile_mean(), 0.0);
    }

    #[test]
    fn metrics_render_as_json() {
        let mut m = Metrics::default();
        m.put("a", 1.5, "ms");
        m.put("b", f64::NAN, "s");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0, \"unit\": \"s\"}}"
        );
        assert_eq!(
            m.only(&["b", "a"]).unwrap().to_json(),
            "{\"b\": {\"value\": 0, \"unit\": \"s\"}, \"a\": {\"value\": 1.5, \"unit\": \"ms\"}}"
        );
        assert_eq!(m.only(&["a", "c"]).unwrap_err(), "c");
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(x != 1);
        let cpu = thread_cpu_ns();
        assert!(cpu > 0);
        // A sleep takes wall time but no CPU time.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(thread_cpu_ns() - cpu < 10_000_000);
        assert!(process_cpu_s() >= 0.0);
        assert!(steal_s() >= 0.0);
    }
}
