//! Measurement plumbing shared by the workloads: the run clock, metric
//! records, percentile read-out, peak memory, and the span log of the
//! traced build.

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

use cds_bench::json::Json;
use cds_bench::LatencyHistogram;
use cds_obs::{Event, Kind, Snapshot};

/// True in the traced build (`--features telemetry`). Every span the
/// benchmark records is behind this constant, so the untraced build
/// compiles the recording away.
pub(crate) const TRACED: bool = cfg!(feature = "telemetry");

/// Spans kept in memory per recording thread. The log holds the start of
/// the first segment's window; the per-layer histograms see every span.
pub(crate) const SPAN_LOG_CAP: usize = 16_384;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub(crate) fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// How one run is driven: the seed, the timed window and the warm-up
/// before it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunConfig {
    /// Workload seed; every generated input derives from it.
    pub(crate) seed: u64,
    /// Length of the timed window, seconds.
    pub(crate) seconds: f64,
    /// Untimed warm-up before each segment's window, seconds.
    pub(crate) warmup: f64,
    /// Threads the host offers (`available_parallelism`).
    pub(crate) nproc: usize,
    /// Parts the window is cut into. Each part sets the structure or pool
    /// up afresh, warms it up and times `seconds / segments`; the
    /// end-to-end figures are medians over the parts, so one unlucky
    /// allocation or thread placement moves them less.
    pub(crate) segments: usize,
}

impl RunConfig {
    /// Timed length of one segment, seconds.
    pub(crate) fn segment_seconds(&self) -> f64 {
        self.seconds / self.segments.max(1) as f64
    }
}

/// The end-to-end figures of one segment. It keeps the two percentiles
/// rather than the histogram, so the run's bookkeeping does not grow with
/// its length and show in `peak_rss_mb`.
#[derive(Debug)]
pub(crate) struct Segment {
    /// Completed operations per second over the segment's window.
    pub(crate) throughput: f64,
    /// Median and 99th percentile of the window's sampled operation (or
    /// batch) latencies, ns.
    pub(crate) p50_ns: f64,
    pub(crate) p99_ns: f64,
    /// Number of latency samples in the window.
    pub(crate) samples: u64,
    /// Share of the host's CPU time the hypervisor stole during the window
    /// (`None` where `/proc/stat` is unreadable).
    pub(crate) steal_frac: Option<f64>,
}

impl Segment {
    pub(crate) fn new(
        throughput: f64,
        latency: &LatencyHistogram,
        steal_frac: Option<f64>,
    ) -> Self {
        Segment {
            throughput,
            p50_ns: percentile_ns(latency, 50.0),
            p99_ns: percentile_ns(latency, 99.0),
            samples: latency.count(),
            steal_frac,
        }
    }
}

/// Largest stolen share of CPU time for which a segment counts as quiet.
/// On a shared virtual machine other tenants take whole milliseconds from
/// a vCPU; a segment that lost more than this measures them, not the
/// program (on a 2-vCPU Xeon virtual machine the `scatter-gather` batch p99
/// of such segments was 1.5–6× that of quiet ones).
pub(crate) const MAX_STEAL_FRAC: f64 = 0.02;

/// The segments whose timings count: the quiet ones, as long as at least
/// a quarter of the run was quiet, and otherwise all of them.
fn timed_segments(segments: &[Segment]) -> Vec<&Segment> {
    let quiet: Vec<&Segment> = segments
        .iter()
        .filter(|s| s.steal_frac.is_none_or(|f| f <= MAX_STEAL_FRAC))
        .collect();
    if !quiet.is_empty() && quiet.len() * 4 >= segments.len() {
        quiet
    } else {
        segments.iter().collect()
    }
}

/// Median throughput over the segments whose timings count.
pub(crate) fn median_throughput(segments: &[Segment]) -> f64 {
    median(
        &timed_segments(segments)
            .iter()
            .map(|s| s.throughput)
            .collect::<Vec<_>>(),
    )
}

/// The end-to-end metrics of a run: throughput and latency percentiles
/// are medians over the segments whose timings count, `setup_s` the median
/// of every set-up timed in the run, and `peak_rss_mb` the process's peak.
pub(crate) fn end_to_end(segments: &[Segment], setup_times: &[f64]) -> Vec<Metric> {
    let used = timed_segments(segments);
    let samples = used.iter().map(|s| s.samples).sum();
    let pct_us = |name: &str, pct: fn(&Segment) -> f64| {
        let per_segment: Vec<f64> = used.iter().map(|s| pct(s)).collect();
        Metric {
            samples: Some(samples),
            ..Metric::new(name, median(&per_segment) / 1e3, "us")
        }
    };
    vec![
        Metric::new("throughput_ops_s", median_throughput(segments), "1/s"),
        pct_us("latency_p50_us", |s| s.p50_ns),
        pct_us("latency_p99_us", |s| s.p99_ns),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB"),
        Metric::new("setup_s", median(setup_times), "s"),
    ]
}

/// The run record's view of the segments.
pub(crate) fn segment_record(segments: &[Segment]) -> Vec<(String, Json)> {
    let nums = |f: &dyn Fn(&Segment) -> Json| Json::Arr(segments.iter().map(f).collect());
    vec![
        ("segments".into(), Json::Num(segments.len() as f64)),
        (
            "segments_timed".into(),
            Json::Num(timed_segments(segments).len() as f64),
        ),
        (
            "segment_throughputs".into(),
            nums(&|s| Json::Num(s.throughput)),
        ),
        (
            "segment_steal_fracs".into(),
            nums(&|s| s.steal_frac.map_or(Json::Null, Json::Num)),
        ),
    ]
}

/// Measures the share of the host's CPU time the hypervisor stole over an
/// interval, from the `steal` column of `/proc/stat`.
pub(crate) struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub(crate) fn start() -> Self {
        StealMeter(cpu_ticks())
    }

    /// Stolen share of CPU time since [`start`](Self::start).
    pub(crate) fn frac(&self) -> Option<f64> {
        let ((steal0, total0), (steal1, total1)) = (self.0?, cpu_ticks()?);
        (total1 > total0).then(|| (steal1 - steal0) as f64 / (total1 - total0) as f64)
    }
}

/// `(steal, total)` CPU ticks over all CPUs: the first eight columns of
/// the `cpu` line of `/proc/stat` (user … steal; guest time is already
/// counted in user).
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// `cds-obs` counters summed over several windows (high-water marks take
/// the maximum).
#[derive(Debug, Clone)]
pub(crate) struct Counters([u64; Event::COUNT]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0; Event::COUNT])
    }
}

impl Counters {
    pub(crate) fn add(&mut self, delta: &Snapshot) {
        for (e, v) in delta.iter() {
            let c = &mut self.0[e as usize];
            *c = match e.kind() {
                Kind::Sum => *c + v,
                Kind::Max => (*c).max(v),
            };
        }
    }

    pub(crate) fn get(&self, e: Event) -> u64 {
        self.0[e as usize]
    }
}

/// Every per-layer metric a traced run reports, with its unit, in the
/// order of `BENCHMARK.json` (the runner adds `trace.overhead_frac`).
/// A span metric of a layer the workload does not reach reads 0 with 0
/// samples; the counter ratios are measured on every workload.
pub(crate) const PER_LAYER: [(&str, &str); 30] = [
    ("map.get.p50_ns", "ns"),
    ("map.get.p99_ns", "ns"),
    ("map.insert.p50_ns", "ns"),
    ("map.remove.p50_ns", "ns"),
    ("map.get.hit_frac", "ratio"),
    ("map.setup.doublings", "count"),
    ("list.contains.p50_ns", "ns"),
    ("list.insert.p50_ns", "ns"),
    ("list.remove.p50_ns", "ns"),
    ("list.insert.p99_ns", "ns"),
    ("list.remove.p99_ns", "ns"),
    ("list.insert.ok_frac", "ratio"),
    ("list.remove.ok_frac", "ratio"),
    ("atomic.cas.failure_frac", "ratio"),
    ("list.retry_per_op", "ratio"),
    ("sync.backoff_rounds_per_op", "ratio"),
    ("reclaim.retired_per_op", "ratio"),
    ("reclaim.freed_frac", "ratio"),
    ("reclaim.peak_garbage", "count"),
    ("reclaim.backlog_max", "count"),
    ("exec.dispatch_wait.p50_ns", "ns"),
    ("exec.task_gap.p50_ns", "ns"),
    ("chan.gather_wake.p50_ns", "ns"),
    ("chan.gather_wake.p99_ns", "ns"),
    ("exec.task_run.p50_ns", "ns"),
    ("exec.parks_per_batch", "ratio"),
    ("chan.recv_parks_per_batch", "ratio"),
    ("exec.injector_overflow_frac", "ratio"),
    ("queue.ms.retry_per_task", "ratio"),
    ("reclaim.retired_per_task", "ratio"),
];

/// The per-layer metrics read from the `cds-obs` counters of the timed
/// windows. `ops` counts operations (jobs for `scatter-gather`) and
/// `batches` the `scoped` calls; `backlog_max` is the largest
/// `Ebr::retired_backlog()` the main thread sampled.
pub(crate) fn counter_metrics(
    c: &Counters,
    ops: u64,
    batches: u64,
    backlog_max: usize,
) -> Vec<Metric> {
    let retired = c.get(Event::RetiredEbr);
    vec![
        Metric::ratio(
            "atomic.cas.failure_frac",
            c.get(Event::CasFailure),
            c.get(Event::CasAttempt),
        ),
        Metric::ratio("list.retry_per_op", c.get(Event::HarrisMichaelRetry), ops),
        Metric::ratio(
            "sync.backoff_rounds_per_op",
            c.get(Event::BackoffRound),
            ops,
        ),
        Metric::ratio("reclaim.retired_per_op", retired, ops),
        Metric::ratio("reclaim.freed_frac", c.get(Event::FreedEbr), retired),
        Metric::new(
            "reclaim.peak_garbage",
            c.get(Event::PeakGarbageEbr) as f64,
            "count",
        ),
        Metric::new("reclaim.backlog_max", backlog_max as f64, "count"),
        Metric::ratio("exec.parks_per_batch", c.get(Event::ExecParks), batches),
        Metric::ratio(
            "chan.recv_parks_per_batch",
            c.get(Event::ChanParksRecv),
            batches,
        ),
        Metric::ratio(
            "exec.injector_overflow_frac",
            c.get(Event::ExecInjectorOverflow),
            c.get(Event::ExecTasksSpawned),
        ),
        Metric::ratio("queue.ms.retry_per_task", c.get(Event::MsQueueRetry), ops),
        Metric::ratio("reclaim.retired_per_task", retired, ops),
    ]
}

/// Puts `measured` into [`PER_LAYER`] order, drops what the list does not
/// name, and adds each missing span metric as 0 with 0 samples.
pub(crate) fn per_layer(mut measured: Vec<Metric>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(
            |&(name, unit)| match measured.iter().position(|m| m.name == name) {
                Some(i) => measured.swap_remove(i),
                None => Metric {
                    samples: Some(0),
                    ..Metric::new(name, 0.0, unit)
                },
            },
        )
        .collect()
}

/// One named figure with its unit and, for timings, its sample count.
#[derive(Debug, Clone)]
pub(crate) struct Metric {
    pub(crate) name: String,
    pub(crate) value: f64,
    pub(crate) unit: &'static str,
    pub(crate) samples: Option<u64>,
}

impl Metric {
    pub(crate) fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A percentile of `h` in nanoseconds, carrying the sample count.
    pub(crate) fn ns(name: impl Into<String>, h: &LatencyHistogram, p: f64) -> Self {
        Metric {
            samples: Some(h.count()),
            ..Metric::new(name, percentile_ns(h, p), "ns")
        }
    }

    /// `num / den`, or 0 when nothing was counted.
    pub(crate) fn ratio(name: impl Into<String>, num: u64, den: u64) -> Self {
        let value = if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        };
        Metric::new(name, value, "ratio")
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Operations issued, warm-up included.
    pub(crate) attempted: u64,
    /// Operations that failed a correctness check, panicked, or are
    /// missing from a conservation total.
    pub(crate) failed: u64,
    /// End-to-end metrics (untraced build) or per-layer metrics (traced).
    pub(crate) metrics: Vec<Metric>,
    /// Throughput of the timed window, also kept in the traced run so the
    /// runner can compute the tracing overhead.
    pub(crate) throughput_ops_s: f64,
    /// Thread counts and other facts of the run.
    pub(crate) record: Vec<(String, Json)>,
    /// The traced build's span log.
    pub(crate) spans: Vec<Span>,
}

/// Linearly interpolated percentile of `h`, in nanoseconds.
///
/// [`LatencyHistogram::percentile`] answers with a bucket midpoint, so it
/// moves in steps of 1/32 of an octave (about 3%) and a drift smaller than
/// a bucket would not show. This places the requested rank inside its
/// bucket instead: it finds the bucket's first and last rank by bisection
/// over `percentile` and interpolates between the bucket's bounds (the
/// layout documented in `cds_bench::hist`: exact below 32 ns, 32 linear
/// sub-buckets per power of two above).
pub(crate) fn percentile_ns(h: &LatencyHistogram, p: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at_rank = |r: u64| h.percentile((r as f64 - 0.5) * 100.0 / n as f64);
    let target = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as u64;
    let mid = at_rank(target);
    if mid < 32 {
        return mid as f64;
    }
    // First rank whose value reaches `mid`, and last rank not beyond it.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let m = (lo + hi) / 2;
        if at_rank(m) >= mid {
            hi = m;
        } else {
            lo = m + 1;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let m = (lo + hi).div_ceil(2);
        if at_rank(m) <= mid {
            lo = m;
        } else {
            hi = m - 1;
        }
    }
    let last = lo;
    let octave = 63 - mid.leading_zeros();
    let width = 1u64 << (octave - 5);
    let low = mid - width / 2;
    let within = (target - first) as f64 + 0.5;
    low as f64 + width as f64 * within / (last - first + 1) as f64
}

/// Median of `xs` (mean of the middle pair for an even count).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span. Spans of one batch share `batch`; the batch's root
/// span (the `scoped` call, or none for the keyed workloads' op chunks)
/// is the parent of the others.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) batch: u64,
    pub(crate) name: &'static str,
    pub(crate) thread: u32,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

/// A bounded in-memory span log, one per recording thread.
#[derive(Debug, Default)]
pub(crate) struct SpanLog {
    pub(crate) spans: Vec<Span>,
}

impl SpanLog {
    #[inline]
    pub(crate) fn push(&mut self, span: Span) {
        if TRACED && self.spans.len() < SPAN_LOG_CAP {
            self.spans.push(span);
        }
    }
}

/// Writes `spans` as JSON lines, one span per line.
pub(crate) fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 80);
    for s in spans {
        let _ = writeln!(
            out,
            r#"{{"batch":{},"name":"{}","thread":{},"start_ns":{},"end_ns":{}}}"#,
            s.batch, s.name, s.thread, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolated_percentile_stays_in_the_bucket_and_moves_with_rank() {
        let mut h = LatencyHistogram::new();
        for v in 1000..2000u64 {
            h.record(v);
        }
        let p50 = percentile_ns(&h, 50.0);
        assert!((1450.0..1550.0).contains(&p50), "p50 {p50}");
        let coarse = h.percentile(50.0) as f64;
        assert!((p50 - coarse).abs() <= 16.0, "p50 {p50} vs bucket {coarse}");
        // A shift smaller than a bucket still moves the interpolated value.
        let mut g = h.clone();
        for _ in 0..20 {
            g.record(1990);
        }
        assert!(percentile_ns(&g, 50.0) > p50);
        assert!(percentile_ns(&h, 99.0) > percentile_ns(&h, 90.0));
    }

    #[test]
    fn exact_region_and_empty_histogram() {
        let mut h = LatencyHistogram::new();
        assert_eq!(percentile_ns(&h, 50.0), 0.0);
        for v in [3u64, 5, 7] {
            h.record(v);
        }
        assert_eq!(percentile_ns(&h, 50.0), 5.0);
    }

    #[test]
    fn per_layer_list_matches_the_benchmark_description() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed: Vec<(&str, &str)> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap(),
                    m.get("unit").unwrap().as_str().unwrap(),
                )
            })
            .filter(|(name, _)| *name != "trace.overhead_frac")
            .collect();
        assert_eq!(listed, PER_LAYER);
    }

    #[test]
    fn per_layer_orders_drops_and_fills() {
        let out = per_layer(vec![
            Metric::new("reclaim.freed_frac", 0.5, "ratio"),
            Metric::new("not.listed", 1.0, "count"),
        ]);
        assert_eq!(out.len(), PER_LAYER.len());
        for (m, (name, unit)) in out.iter().zip(PER_LAYER) {
            assert_eq!((m.name.as_str(), m.unit), (name, unit));
        }
        let freed = out.iter().find(|m| m.name == "reclaim.freed_frac").unwrap();
        assert_eq!(freed.value, 0.5);
        assert_eq!(out[0].samples, Some(0));
    }

    fn segment(throughput: f64, steal_frac: Option<f64>) -> Segment {
        Segment::new(throughput, &LatencyHistogram::new(), steal_frac)
    }

    #[test]
    fn stolen_segments_are_left_out_while_a_quarter_is_quiet() {
        let mixed = [
            segment(10.0, Some(0.0)),
            segment(11.0, Some(0.01)),
            segment(1.0, Some(0.3)),
            segment(2.0, Some(0.2)),
            segment(3.0, None),
        ];
        assert_eq!(median_throughput(&mixed), 10.0);
        let mostly_stolen = [
            segment(10.0, Some(0.0)),
            segment(1.0, Some(0.3)),
            segment(2.0, Some(0.2)),
            segment(3.0, Some(0.1)),
            segment(4.0, Some(0.1)),
        ];
        assert_eq!(median_throughput(&mostly_stolen), 3.0);
        assert!(StealMeter::start()
            .frac()
            .is_none_or(|f| (0.0..=1.0).contains(&f)));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
