//! Metric bookkeeping, the result stamp, and the JSON lines printed at
//! the end of a run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use vsim_index::{CostModel, IoSnapshot};

/// One measured value with its unit and the samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

#[derive(Debug, Default)]
pub struct Report {
    /// The declared end-to-end metrics (printed in the result line of
    /// an untraced run).
    pub end_to_end: Vec<Metric>,
    /// The declared per-layer metrics (result line of a traced run).
    pub per_layer: Vec<Metric>,
    /// Workload-specific numbers that are not declared because the
    /// other workloads have no such operation; report line only.
    pub extra: Vec<Metric>,
    /// Run facts for the stamp (pool pages, file pages, chosen path).
    pub facts: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, in words. Empty means correct.
    pub problems: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.end_to_end.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.per_layer.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.extra.push(Metric { name: name.into(), value, unit, samples });
    }

    pub fn fact(&mut self, key: &str, value: impl ToString) {
        self.facts.push((key.into(), value.to_string()));
    }

    /// Record a failed check (and keep going, so every problem shows).
    pub fn problem(&mut self, msg: String) {
        eprintln!("[check] FAILED: {msg}");
        self.problems.push(msg);
    }

    pub fn require(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        if !ok {
            self.problem(msg());
        }
    }
}

pub fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives; non-finite values (never expected) become `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metric_map(ms: &[Metric], with_samples: bool) -> String {
    let mut s = String::from("{");
    for (i, m) in ms.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ =
            write!(s, "\"{}\":{{\"value\":{},\"unit\":\"{}\"", esc(&m.name), num(m.value), m.unit);
        if with_samples {
            let _ = write!(s, ",\"samples\":{}", m.samples);
        }
        s.push('}');
    }
    s.push('}');
    s
}

/// The full report line: stamp, every metric with its sample count,
/// and the checks.
pub fn report_line(stamp: &[(String, String)], r: &Report) -> String {
    let mut s = String::from("{\"stamp\":{");
    for (i, (k, v)) in stamp.iter().chain(&r.facts).enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\"{}\":\"{}\"", esc(k), esc(v));
    }
    let _ = write!(
        s,
        "}},\"end_to_end\":{},\"per_layer\":{},\"extra\":{},\"problems\":[{}]}}",
        metric_map(&r.end_to_end, true),
        metric_map(&r.per_layer, true),
        metric_map(&r.extra, true),
        r.problems.iter().map(|p| format!("\"{}\"", esc(p))).collect::<Vec<_>>().join(",")
    );
    s
}

/// The result line: exactly `correct`, `attempted`, `failed` and the
/// declared metrics of this run's kind.
pub fn result_line(r: &Report, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    let correct = r.problems.is_empty() && metrics.iter().all(|m| m.value.is_finite());
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        r.attempted,
        r.failed,
        metric_map(metrics, false)
    )
}

/// One closed-loop request: its dispatch number and its start and end,
/// in ns from the loop's start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub n: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Throughput and latency of a closed loop over a request list,
/// summarised per pass over the list. Every pass runs the same
/// requests, so passes differ only by what the host did meanwhile. The
/// host is shared: other tenants slow stretches of seconds down by up
/// to a half, and only ever slow them down. So the declared numbers
/// come from the fastest quarter of the complete passes, pooled; the
/// latency percentiles over all complete passes are kept beside them,
/// so tail effects that hit only some passes still show.
pub struct Passes {
    pub qps: f64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Requests in the fastest quarter of the passes.
    pub samples: u64,
    pub all_p50_ns: u64,
    pub all_p99_ns: u64,
    /// Requests in all complete passes.
    pub all_samples: u64,
}

fn pooled(passes: &[(u64, &Vec<Sample>)]) -> Vec<u64> {
    let mut lat: Vec<u64> =
        passes.iter().flat_map(|w| w.1.iter().map(|s| s.end_ns - s.start_ns)).collect();
    lat.sort_unstable();
    lat
}

pub fn passes(samples: &[Sample], list: usize) -> Passes {
    let mut per: Vec<Vec<Sample>> = Vec::new();
    for s in samples {
        let p = s.n as usize / list;
        if per.len() <= p {
            per.resize(p + 1, Vec::new());
        }
        per[p].push(*s);
    }
    let mut whole: Vec<(u64, &Vec<Sample>)> = per
        .iter()
        .filter(|p| p.len() == list)
        .map(|p| {
            let first = p.iter().map(|s| s.start_ns).min().unwrap_or(0);
            (p.iter().map(|s| s.end_ns).max().unwrap_or(0) - first, p)
        })
        .collect();
    whole.sort_by_key(|w| w.0);
    let fastest = &whole[..whole.len().div_ceil(4)];
    let span: u64 = fastest.iter().map(|w| w.0).sum();
    let lat = pooled(fastest);
    let all = pooled(&whole);
    Passes {
        qps: lat.len() as f64 * 1e9 / span.max(1) as f64,
        p50_ns: percentile(&lat, 0.5),
        p99_ns: percentile(&lat, 0.99),
        samples: lat.len() as u64,
        all_p50_ns: percentile(&all, 0.5),
        all_p99_ns: percentile(&all, 0.99),
        all_samples: all.len() as u64,
    }
}

/// Run `f` until `budget` has passed and it ran at least `min` times.
pub fn repeat_for(budget: Duration, min: usize, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed() < budget {
        f();
        n += 1;
    }
}

/// The median of the fastest quarter of repeated set-up times. Like
/// the closed loop's throughput, a set-up is only ever slowed down by
/// the host's other tenants, for stretches longer than one set-up.
pub fn setup_median(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    median_f64(&v[..v.len().div_ceil(4)])
}

/// Median latency of every sample whose list position is below
/// `prefix`: the untraced counterpart of a traced replay of that prefix.
pub fn prefix_p50_ns(samples: &[Sample], list: usize, prefix: usize) -> u64 {
    let mut lat: Vec<u64> = samples
        .iter()
        .filter(|s| (s.n as usize % list) < prefix)
        .map(|s| s.end_ns - s.start_ns)
        .collect();
    lat.sort_unstable();
    percentile(&lat, 0.5)
}

/// Mean simulated I/O per query under the paper's cost model. Mean
/// pages and bytes are each one correctly rounded division of exact
/// integer totals, so whole passes over a list with per-query costs
/// that repeat give the same bits however many passes ran.
pub fn sim_io_ms(io: IoSnapshot, queries: u64) -> f64 {
    let cm = CostModel::default();
    let n = queries.max(1) as f64;
    io.pages as f64 / n * cm.ms_per_page + io.bytes as f64 / n * cm.ns_per_byte * 1e-6
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median_f64(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process high-water resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn passes_use_the_fastest_quarter() {
        // Passes of two requests: 10 ns, 40 ns, 20 ns, 30 ns; then half a pass.
        let s: Vec<Sample> = [(0, 0, 4), (1, 2, 10), (2, 10, 30), (3, 20, 50), (4, 50, 60)]
            .into_iter()
            .chain([(5, 55, 70), (6, 70, 90), (7, 80, 100), (8, 100, 200)])
            .map(|(n, start_ns, end_ns)| Sample { n, start_ns, end_ns })
            .collect();
        let p = passes(&s, 2);
        assert_eq!((p.samples, p.all_samples), (2, 8));
        assert_eq!(p.qps, 2.0 * 1e9 / 10.0);
        assert_eq!((p.p50_ns, p.p99_ns), (4, 8));
        // Latencies 4 8 | 20 30 | 10 15 | 20 20, pooled.
        assert_eq!((p.all_p50_ns, p.all_p99_ns), (15, 30));
        assert_eq!(setup_median(&[5.0, 1.0, 2.0, 9.0, 7.0, 3.0, 8.0, 4.0]), 1.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.e2e("setup_s", 0.5, "s", 3);
        r.layer("query.refinements_per_q", 12.0, "count", 3);
        assert_eq!(
            result_line(&r, false),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\
             \"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
        r.problem("x".into());
        assert!(result_line(&r, true).starts_with("{\"correct\":false"));
        assert!(peak_rss_mb() > 0.0);
    }
}
