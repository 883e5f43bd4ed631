//! The `scatter-gather` workload: one caller thread repeatedly hands a
//! batch of tiny jobs to `Executor::scoped` on a pool of `nproc − 1`
//! workers and checks every result.

use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

use cds_bench::json::Json;
use cds_bench::LatencyHistogram;
use cds_exec::Executor;
use cds_obs::Snapshot;
use cds_reclaim::{Ebr, Reclaimer};

#[cfg(feature = "telemetry")]
use crate::measure::Span;
use crate::measure::{
    counter_metrics, end_to_end, median_throughput, now_ns, per_layer, segment_record, Counters,
    Metric, Outcome, RunConfig, Segment, SpanLog, StealMeter, TRACED,
};

/// Jobs per `scoped` call: twice the executor's default 256-slot injector,
/// so batches spill into the unbounded overflow queue (only the jobs the
/// worker has not drained yet do; `exec.injector_overflow_frac` says how
/// many).
pub(crate) const BATCH: usize = 512;

/// Pool starts timed for `setup_s` per segment (the last pool runs).
pub(crate) const SETUP_REPS: usize = 5;

/// The value job `i` of a batch returns.
#[inline]
pub(crate) fn job_value(seed: u64, i: usize) -> u64 {
    (seed ^ i as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .rotate_left(29)
}

/// What a job hands back: its value, plus where and when it ran in the
/// traced build.
#[cfg(feature = "telemetry")]
pub(crate) type JobOut = (u64, JobSpan);
#[cfg(not(feature = "telemetry"))]
pub(crate) type JobOut = u64;

/// Worker index and run interval of one job (traced build).
#[cfg(feature = "telemetry")]
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobSpan {
    pub(crate) worker: u32,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

#[cfg(feature = "telemetry")]
fn worker_index() -> u32 {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU32, Ordering};
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static INDEX: Cell<u32> = const { Cell::new(u32::MAX) });
    INDEX.with(|c| {
        if c.get() == u32::MAX {
            c.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

#[cfg(feature = "telemetry")]
fn job(seed: u64, i: usize) -> JobOut {
    let start_ns = now_ns();
    let v = std::hint::black_box(job_value(seed, i));
    let span = JobSpan {
        worker: worker_index(),
        start_ns,
        end_ns: now_ns(),
    };
    (v, span)
}

#[cfg(not(feature = "telemetry"))]
fn job(seed: u64, i: usize) -> JobOut {
    std::hint::black_box(job_value(seed, i))
}

#[cfg(feature = "telemetry")]
fn value_of(o: &JobOut) -> u64 {
    o.0
}

#[cfg(not(feature = "telemetry"))]
fn value_of(o: &JobOut) -> u64 {
    *o
}

/// Results of a batch that are missing or differ from their expected
/// value. A batch that returned nothing (a job panicked) fails whole.
pub(crate) fn batch_failures(seed: u64, values: Option<&[u64]>) -> u64 {
    match values {
        None => BATCH as u64,
        Some(v) => {
            let wrong = v
                .iter()
                .enumerate()
                .filter(|&(i, &x)| x != job_value(seed, i))
                .count();
            (wrong + BATCH.saturating_sub(v.len())) as u64
        }
    }
}

/// Per-layer histograms of the traced build, from the jobs' spans.
struct Layers {
    dispatch_wait: LatencyHistogram,
    task_gap: LatencyHistogram,
    gather_wake: LatencyHistogram,
    task_run: LatencyHistogram,
}

impl Layers {
    fn record(&mut self, t0: u64, t1: u64, out: &[JobOut], log: &mut SpanLog, batch: u64) {
        #[cfg(feature = "telemetry")]
        {
            let mut spans: Vec<JobSpan> = out.iter().map(|o| o.1).collect();
            let first = spans.iter().map(|s| s.start_ns).min().unwrap_or(t0);
            let last = spans.iter().map(|s| s.end_ns).max().unwrap_or(t1);
            self.dispatch_wait.record(first.saturating_sub(t0));
            self.gather_wake.record(t1.saturating_sub(last));
            log.push(Span {
                batch,
                name: "scoped",
                thread: u32::MAX,
                start_ns: t0,
                end_ns: t1,
            });
            spans.sort_by_key(|s| (s.worker, s.start_ns));
            for (k, s) in spans.iter().enumerate() {
                self.task_run.record(s.end_ns - s.start_ns);
                if k > 0 && spans[k - 1].worker == s.worker {
                    self.task_gap
                        .record(s.start_ns.saturating_sub(spans[k - 1].end_ns));
                }
                log.push(Span {
                    batch,
                    name: "job",
                    thread: s.worker,
                    start_ns: s.start_ns,
                    end_ns: s.end_ns,
                });
            }
        }
        #[cfg(not(feature = "telemetry"))]
        let _ = (t0, t1, out, log, batch);
    }
}

/// One batch: scatter `BATCH` jobs, gather and check their results.
/// Returns the `scoped` call's interval, the results and the failures.
fn run_batch(pool: &Executor, seed: u64) -> (u64, u64, Vec<JobOut>, u64) {
    let jobs: Vec<_> = (0..BATCH).map(|i| move || job(seed, i)).collect();
    let t0 = now_ns();
    let out = std::panic::catch_unwind(AssertUnwindSafe(|| pool.scoped(jobs)));
    let t1 = now_ns();
    let out = out.unwrap_or_default();
    let values: Vec<u64> = out.iter().map(value_of).collect();
    let failed = batch_failures(seed, (out.len() == BATCH).then_some(&values[..]));
    (t0, t1, out, failed)
}

/// Runs `scatter-gather` and reports its end-to-end metrics (untraced
/// build) or per-layer metrics (traced build).
pub(crate) fn run(cfg: &RunConfig) -> Outcome {
    let workers = cfg.nproc.saturating_sub(1).max(1);
    let mut setup_times = Vec::new();
    let mut segments = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut batch = 0u64;
    let mut timed_batches = 0u64;
    let mut layers = Layers {
        dispatch_wait: LatencyHistogram::new(),
        task_gap: LatencyHistogram::new(),
        gather_wake: LatencyHistogram::new(),
        task_run: LatencyHistogram::new(),
    };
    let mut counters = Counters::default();
    let mut log = SpanLog::default();
    let mut backlog_max = 0usize;

    for _ in 0..cfg.segments.max(1) {
        // Set-up: start the pool `SETUP_REPS` times; the last one runs.
        let mut pool = None;
        for _ in 0..SETUP_REPS {
            drop(pool.take());
            let t0 = Instant::now();
            let p = Executor::new(workers);
            setup_times.push(t0.elapsed().as_secs_f64());
            pool = Some(p);
        }
        let pool = pool.expect("SETUP_REPS > 0");

        let warm_end = Instant::now() + Duration::from_secs_f64(cfg.warmup);
        while Instant::now() < warm_end {
            failed += run_batch(&pool, cfg.seed ^ batch << 16).3;
            attempted += BATCH as u64;
            batch += 1;
        }
        cds_obs::reset();
        let base = Snapshot::take();
        let mut latency = LatencyHistogram::new();
        let mut jobs = 0u64;
        let steal = StealMeter::start();
        let start = Instant::now();
        let window_end = start + Duration::from_secs_f64(cfg.segment_seconds());
        while Instant::now() < window_end {
            let (t0, t1, out, f) = run_batch(&pool, cfg.seed ^ batch << 16);
            failed += f;
            attempted += BATCH as u64;
            latency.record(t1 - t0);
            if TRACED {
                layers.record(t0, t1, &out, &mut log, batch);
                if timed_batches.is_multiple_of(64) {
                    backlog_max = backlog_max.max(Ebr::retired_backlog());
                }
            }
            batch += 1;
            timed_batches += 1;
            jobs += BATCH as u64;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let steal_frac = steal.frac();
        pool.quiesce();
        counters.add(&Snapshot::take().delta(&base));
        failed += pool.spawned().abs_diff(pool.executed());
        segments.push(Segment::new(jobs as f64 / elapsed, &latency, steal_frac));
    }

    let jobs = timed_batches * BATCH as u64;
    let metrics = if TRACED {
        let mut m = counter_metrics(&counters, jobs, timed_batches, backlog_max);
        m.extend([
            Metric::ns("exec.dispatch_wait.p50_ns", &layers.dispatch_wait, 50.0),
            Metric::ns("exec.task_gap.p50_ns", &layers.task_gap, 50.0),
            Metric::ns("chan.gather_wake.p50_ns", &layers.gather_wake, 50.0),
            Metric::ns("chan.gather_wake.p99_ns", &layers.gather_wake, 99.0),
            Metric::ns("exec.task_run.p50_ns", &layers.task_run, 50.0),
        ]);
        per_layer(m)
    } else {
        end_to_end(&segments, &setup_times)
    };
    Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        throughput_ops_s: median_throughput(&segments),
        record: vec![
            ("threads".into(), Json::Num(workers as f64 + 1.0)),
            ("workers".into(), Json::Num(workers as f64)),
            ("batch".into(), Json::Num(BATCH as f64)),
            ("setups".into(), Json::Num(setup_times.len() as f64)),
            ("timed_batches".into(), Json::Num(timed_batches as f64)),
        ]
        .into_iter()
        .chain(segment_record(&segments))
        .collect(),
        spans: log.spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_checker_counts_a_planted_wrong_result() {
        let good: Vec<u64> = (0..BATCH).map(|i| job_value(9, i)).collect();
        assert_eq!(batch_failures(9, Some(&good)), 0);
        let mut bad = good.clone();
        bad[17] ^= 1;
        assert_eq!(batch_failures(9, Some(&bad)), 1);
        assert_eq!(batch_failures(9, Some(&good[..BATCH - 3])), 3);
        assert_eq!(batch_failures(9, None), BATCH as u64);
    }

    #[test]
    fn job_values_depend_on_seed_and_index_only() {
        assert_eq!(job_value(5, 3), job_value(5, 3));
        assert_ne!(job_value(5, 3), job_value(5, 4));
        assert_ne!(job_value(5, 3), job_value(6, 3));
    }

    #[test]
    fn short_run_is_correct_and_conserves() {
        let cfg = RunConfig {
            seed: 11,
            seconds: 0.1,
            warmup: 0.01,
            nproc: 2,
            segments: 2,
        };
        let out = run(&cfg);
        assert_eq!(out.failed, 0);
        assert!(out.attempted >= BATCH as u64 && out.throughput_ops_s > 0.0);
    }
}
