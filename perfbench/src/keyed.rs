//! The keyed workloads, `map-read` and `set-churn` (and the unlisted
//! `skiplist-churn`): a closed loop of read/insert/remove operations on
//! `nproc` threads against one shared structure, for a fixed duration.

use std::collections::hash_map::DefaultHasher;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cds_bench::json::Json;
use cds_bench::{LatencyHistogram, MixedOp, OpStream, Workload, LATENCY_SAMPLE_EVERY};
use cds_core::{ConcurrentMap, ConcurrentSet};
use cds_list::HarrisMichaelList;
use cds_map::ResizingMap;
use cds_obs::Snapshot;
use cds_reclaim::{Ebr, Reclaimer};
use cds_skiplist::LockFreeSkipList;

use crate::measure::{
    counter_metrics, end_to_end, median_throughput, now_ns, per_layer, segment_record, Counters,
    Metric, Outcome, RunConfig, Segment, Span, SpanLog, StealMeter, TRACED,
};

/// Operations a worker runs between two looks at the phase flag.
const CHUNK: u64 = 256;

/// How long the main thread waits for the workers to stop once a window
/// closes. A chunk takes well under a millisecond, so a worker still
/// running after this is stuck (a corrupted structure can loop forever).
const STOP_GRACE: Duration = Duration::from_secs(10);

const WARMUP: u8 = 0;
const TIMED: u8 = 1;
const STOP: u8 = 2;

/// A fixed (unkeyed SipHash) hasher, so the map's shard and bucket layout
/// is the same on every run.
pub(crate) type FixedHasher = BuildHasherDefault<DefaultHasher>;

/// The map of `map-read`.
pub(crate) type Map = ResizingMap<u64, u64, FixedHasher, Ebr>;
/// The set of `set-churn`.
pub(crate) type Set = HarrisMichaelList<u64, Ebr>;
/// The set of `skiplist-churn`, which `BENCHMARK.json` does not list: it
/// reproduces a known defect of `LockFreeSkipList` (see the README).
pub(crate) type SkipSet = LockFreeSkipList<u64, Ebr>;

/// Outcome of one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Read {
    Hit,
    Miss,
    /// A hit whose value is not the one stored under the key.
    Wrong,
}

/// The structure under test, as the workload loop sees it.
pub(crate) trait Keyed: Sized + Send + Sync + 'static {
    /// Metric prefix of the structure's layer.
    const LAYER: &'static str;
    /// Name of the read operation.
    const READ: &'static str;
    /// Builds the structure and prefills it; returns it with the number of
    /// keys the prefill inserted.
    fn build(w: &Workload) -> (Self, usize);
    fn read(&self, k: u64) -> Read;
    fn insert(&self, k: u64) -> bool;
    fn remove(&self, k: u64) -> bool;
    fn len(&self) -> usize;
    /// Per-layer figures the structure itself exposes after set-up.
    fn setup_metrics(&self) -> Vec<Metric> {
        Vec::new()
    }
}

impl Keyed for Map {
    const LAYER: &'static str = "map";
    const READ: &'static str = "get";
    fn build(w: &Workload) -> (Self, usize) {
        let m = Map::with_hasher(FixedHasher::default());
        let n = cds_bench::prefill_map(&m, w);
        (m, n)
    }
    #[inline]
    fn read(&self, k: u64) -> Read {
        match self.get(&k) {
            Some(v) if v == k => Read::Hit,
            Some(_) => Read::Wrong,
            None => Read::Miss,
        }
    }
    #[inline]
    fn insert(&self, k: u64) -> bool {
        ConcurrentMap::insert(self, k, k)
    }
    #[inline]
    fn remove(&self, k: u64) -> bool {
        ConcurrentMap::remove(self, &k)
    }
    fn len(&self) -> usize {
        ConcurrentMap::len(self)
    }
    fn setup_metrics(&self) -> Vec<Metric> {
        vec![Metric::new(
            "map.setup.doublings",
            self.doublings() as f64,
            "count",
        )]
    }
}

/// `Keyed` for a `ConcurrentSet<u64>` whose layer is named `$layer`.
macro_rules! keyed_set {
    ($set:ty, $layer:literal) => {
        impl Keyed for $set {
            const LAYER: &'static str = $layer;
            const READ: &'static str = "contains";
            fn build(w: &Workload) -> (Self, usize) {
                let s = <$set>::with_reclaimer();
                let n = cds_bench::prefill_set(&s, w);
                (s, n)
            }
            #[inline]
            fn read(&self, k: u64) -> Read {
                if self.contains(&k) {
                    Read::Hit
                } else {
                    Read::Miss
                }
            }
            #[inline]
            fn insert(&self, k: u64) -> bool {
                ConcurrentSet::insert(self, k)
            }
            #[inline]
            fn remove(&self, k: u64) -> bool {
                ConcurrentSet::remove(self, &k)
            }
            fn len(&self) -> usize {
                ConcurrentSet::len(self)
            }
        }
    };
}

keyed_set!(Set, "list");
keyed_set!(SkipSet, "skiplist");

/// One keyed workload: its operation mix and set-up repetitions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyedSpec {
    /// Key range, mix percentages and prefill (`threads` and
    /// `ops_per_thread` are set per run / unused).
    pub(crate) mix: Workload,
    /// Set-ups timed for `setup_s` per segment (the last one is run).
    pub(crate) setup_reps: usize,
}

/// `map-read`: 90% get, 5% insert, 5% remove over 2^20 keys, half of
/// them prefilled into an initially empty resizing map.
pub(crate) const MAP_READ: KeyedSpec = KeyedSpec {
    mix: Workload {
        threads: 0,
        ops_per_thread: 0,
        key_range: 1 << 20,
        read_pct: 90,
        insert_pct: 5,
        prefill: 1 << 19,
    },
    setup_reps: 1,
};

/// `set-churn`: 10% contains, 45% insert, 45% remove over 512 keys, half
/// of them prefilled into a Harris–Michael list.
pub(crate) const SET_CHURN: KeyedSpec = KeyedSpec {
    mix: Workload {
        threads: 0,
        ops_per_thread: 0,
        key_range: 512,
        read_pct: 10,
        insert_pct: 45,
        prefill: 256,
    },
    setup_reps: 20,
};

/// `skiplist-churn`: the `set-churn` mix over 4096 keys, half of them
/// prefilled.
pub(crate) const WIDE_CHURN: KeyedSpec = KeyedSpec {
    mix: Workload {
        key_range: 4096,
        prefill: 2048,
        ..SET_CHURN.mix
    },
    setup_reps: 5,
};

/// Seed of worker `t`'s operation stream.
pub(crate) fn thread_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(1 << 10).wrapping_add(t as u64 + 1)
}

/// Per-thread operation counts. Reads, inserts and removes are indexed
/// by [`kind`].
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    pub(crate) ops: [u64; 3],
    pub(crate) ok: [u64; 3],
    pub(crate) wrong_reads: u64,
    pub(crate) timed_ops: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        for i in 0..3 {
            self.ops[i] += o.ops[i];
            self.ok[i] += o.ok[i];
        }
        self.wrong_reads += o.wrong_reads;
        self.timed_ops += o.timed_ops;
    }

    fn total(&self) -> u64 {
        self.ops.iter().sum()
    }
}

/// Index of an operation kind in [`Tally`] and the per-kind histograms.
#[inline]
pub(crate) fn kind(op: &MixedOp) -> usize {
    match op {
        MixedOp::Read(_) => 0,
        MixedOp::Insert(_) => 1,
        MixedOp::Remove(_) => 2,
    }
}

/// Keys missing from, or extra in, the structure at the end of a run:
/// `|prefill + successful inserts − successful removes − len|`. Each unit
/// counts as one failed operation.
pub(crate) fn conservation_failures(
    prefill: usize,
    inserted: u64,
    removed: u64,
    len: usize,
) -> u64 {
    let expected = prefill as i128 + inserted as i128 - removed as i128;
    (expected - len as i128).unsigned_abs() as u64
}

struct WorkerOut {
    tally: Tally,
    start: Instant,
    end: Instant,
    latency: LatencyHistogram,
    per_kind: [LatencyHistogram; 3],
    spans: SpanLog,
}

fn worker<S: Keyed>(
    s: &S,
    mix: &Workload,
    seed: u64,
    t: usize,
    phase: &AtomicU8,
    start_line: &Barrier,
) -> WorkerOut {
    let mut stream = OpStream::new(seed, mix);
    let mut out = WorkerOut {
        tally: Tally::default(),
        start: Instant::now(),
        end: Instant::now(),
        latency: LatencyHistogram::new(),
        per_kind: std::array::from_fn(|_| LatencyHistogram::new()),
        spans: SpanLog::default(),
    };
    let mut started = false;
    let mut chunk_id = (t as u64) << 40;
    start_line.wait();
    loop {
        let p = phase.load(Ordering::Acquire);
        if p == STOP {
            break;
        }
        let timed = p == TIMED;
        if timed && !started {
            started = true;
            out.start = Instant::now();
        }
        for i in 0..CHUNK {
            let op = stream.next_op();
            let k = kind(&op);
            let sampled = timed && i % LATENCY_SAMPLE_EVERY as u64 == 0;
            let t0 = if sampled || TRACED { now_ns() } else { 0 };
            let ok = match op {
                MixedOp::Read(key) => match s.read(key) {
                    Read::Hit => true,
                    Read::Miss => false,
                    Read::Wrong => {
                        out.tally.wrong_reads += 1;
                        true
                    }
                },
                MixedOp::Insert(key) => s.insert(key),
                MixedOp::Remove(key) => s.remove(key),
            };
            if sampled || TRACED {
                let t1 = now_ns();
                if sampled {
                    out.latency.record(t1 - t0);
                }
                if TRACED && timed {
                    out.per_kind[k].record(t1 - t0);
                    out.spans.push(Span {
                        batch: chunk_id,
                        name: ["read", "insert", "remove"][k],
                        thread: t as u32,
                        start_ns: t0,
                        end_ns: t1,
                    });
                }
            }
            out.tally.ops[k] += 1;
            out.tally.ok[k] += ok as u64;
        }
        chunk_id += 1;
        if timed {
            out.tally.timed_ops += CHUNK;
        }
    }
    out.end = Instant::now();
    out
}

/// What one segment's timed window produced.
struct Window {
    tally: Tally,
    latency: LatencyHistogram,
    per_kind: [LatencyHistogram; 3],
    spans: Vec<Span>,
    delta: Snapshot,
    backlog_max: usize,
    throughput: f64,
    steal_frac: Option<f64>,
    /// Workers that panicked or did not stop within [`STOP_GRACE`].
    lost: u64,
}

/// Runs the mix on `threads` workers against `s`: warm-up, then the timed
/// window of one segment.
fn window<S: Keyed>(s: &Arc<S>, mix: &Workload, cfg: &RunConfig, seg: usize) -> Window {
    let threads = mix.threads;
    let phase = Arc::new(AtomicU8::new(WARMUP));
    let start_line = Arc::new(Barrier::new(threads + 1));
    cds_obs::reset();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let (s, phase, start_line) =
                (Arc::clone(s), Arc::clone(&phase), Arc::clone(&start_line));
            let seed = thread_seed(cfg.seed, seg * threads + t);
            let mix = *mix;
            std::thread::spawn(move || worker(&*s, &mix, seed, t, &phase, &start_line))
        })
        .collect();
    start_line.wait();
    std::thread::sleep(Duration::from_secs_f64(cfg.warmup));
    let base = Snapshot::take();
    let steal = StealMeter::start();
    phase.store(TIMED, Ordering::Release);
    let window_end = Instant::now() + Duration::from_secs_f64(cfg.segment_seconds());
    let mut backlog_max = 0usize;
    while Instant::now() < window_end {
        if TRACED {
            backlog_max = backlog_max.max(Ebr::retired_backlog());
            std::thread::sleep(Duration::from_millis(5));
        } else {
            std::thread::sleep(window_end.saturating_duration_since(Instant::now()));
        }
    }
    phase.store(STOP, Ordering::Release);
    let steal_frac = steal.frac();

    let deadline = Instant::now() + STOP_GRACE;
    while handles.iter().any(|h| !h.is_finished()) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    // A worker still running now is stuck inside the structure: its handle
    // is dropped (the thread ends with the process) instead of joined.
    let joined: Vec<_> = handles
        .into_iter()
        .map(|h| if h.is_finished() { h.join().ok() } else { None })
        .collect();
    let mut w = Window {
        tally: Tally::default(),
        latency: LatencyHistogram::new(),
        per_kind: std::array::from_fn(|_| LatencyHistogram::new()),
        spans: Vec::new(),
        delta: Snapshot::take().delta(&base),
        backlog_max,
        throughput: 0.0,
        steal_frac,
        lost: 0,
    };
    let (mut first_start, mut last_end) = (None::<Instant>, None::<Instant>);
    for o in joined {
        let Some(o) = o else {
            w.lost += 1;
            continue;
        };
        w.tally.add(&o.tally);
        w.latency.merge(&o.latency);
        for (a, b) in w.per_kind.iter_mut().zip(&o.per_kind) {
            a.merge(b);
        }
        w.spans.extend(o.spans.spans);
        first_start = Some(first_start.map_or(o.start, |f| f.min(o.start)));
        last_end = Some(last_end.map_or(o.end, |e| e.max(o.end)));
    }
    if let (Some(a), Some(b)) = (first_start, last_end) {
        w.throughput = w.tally.timed_ops as f64 / b.duration_since(a).as_secs_f64();
    }
    w
}

/// Runs one keyed workload and reports its end-to-end metrics (untraced
/// build) or per-layer metrics (traced build).
pub(crate) fn run<S: Keyed>(spec: &KeyedSpec, cfg: &RunConfig) -> Outcome {
    let threads = cfg.nproc.max(1);
    let mix = Workload {
        threads,
        ..spec.mix
    };
    let mut setup_times = Vec::new();
    let mut setup_metrics = Vec::new();
    let mut segments = Vec::new();
    let mut tally = Tally::default();
    let mut per_kind: [LatencyHistogram; 3] = std::array::from_fn(|_| LatencyHistogram::new());
    let mut counters = Counters::default();
    let mut spans = Vec::new();
    let mut backlog_max = 0;
    let mut failed = 0;
    let mut final_lens = Vec::new();
    let mut aborted_at = None;

    for seg in 0..cfg.segments.max(1) {
        // Set-up: build and prefill `setup_reps` times; the last one runs.
        let mut built = None;
        for _ in 0..spec.setup_reps {
            drop(built.take());
            let t0 = Instant::now();
            let b = S::build(&mix);
            setup_times.push(t0.elapsed().as_secs_f64());
            built = Some(b);
        }
        let (s, prefilled) = built.expect("setup_reps > 0");
        if seg == 0 {
            setup_metrics = s.setup_metrics();
        }
        let s = Arc::new(s);
        let w = window(&s, &mix, cfg, seg);
        failed += (spec.mix.prefill as u64).abs_diff(prefilled as u64);
        failed += w.tally.wrong_reads + w.lost;
        tally.add(&w.tally);
        if w.lost > 0 {
            // A worker died or is stuck inside the structure, which may be
            // corrupt: it is neither walked nor dropped, and the run ends
            // here with the failure counted.
            eprintln!(
                "perfbench: segment {seg}: {} worker(s) panicked or stuck",
                w.lost
            );
            std::mem::forget(s);
            aborted_at = Some(seg);
            break;
        }
        let len = s.len();
        let mismatch = conservation_failures(prefilled, w.tally.ok[1], w.tally.ok[2], len);
        if mismatch > 0 {
            eprintln!(
                "perfbench: segment {seg}: prefill {prefilled} + inserted {} - removed {} != len {len}",
                w.tally.ok[1], w.tally.ok[2]
            );
        }
        failed += mismatch;
        final_lens.push(Json::Num(len as f64));

        for (a, b) in per_kind.iter_mut().zip(&w.per_kind) {
            a.merge(b);
        }
        counters.add(&w.delta);
        if seg == 0 {
            spans = w.spans;
        }
        backlog_max = backlog_max.max(w.backlog_max);
        segments.push(Segment::new(w.throughput, &w.latency, w.steal_frac));
    }

    let metrics = if TRACED {
        let l = S::LAYER;
        let mut m = counter_metrics(&counters, tally.timed_ops, 0, backlog_max);
        let kinds = [
            (S::READ, "hit_frac"),
            ("insert", "ok_frac"),
            ("remove", "ok_frac"),
        ];
        for (k, (op, frac)) in kinds.into_iter().enumerate() {
            m.push(Metric::ns(format!("{l}.{op}.p50_ns"), &per_kind[k], 50.0));
            m.push(Metric::ns(format!("{l}.{op}.p99_ns"), &per_kind[k], 99.0));
            m.push(Metric::ratio(
                format!("{l}.{op}.{frac}"),
                tally.ok[k],
                tally.ops[k],
            ));
        }
        m.extend(setup_metrics);
        per_layer(m)
    } else {
        end_to_end(&segments, &setup_times)
    };

    let nums = |v: &mut dyn Iterator<Item = f64>| Json::Arr(v.map(Json::Num).collect());
    Outcome {
        attempted: tally.total().max(1),
        failed,
        metrics,
        throughput_ops_s: median_throughput(&segments),
        record: vec![
            ("threads".into(), Json::Num(threads as f64)),
            ("setups".into(), Json::Num(setup_times.len() as f64)),
            ("prefill".into(), Json::Num(spec.mix.prefill as f64)),
            ("final_lens".into(), Json::Arr(final_lens)),
            (
                "aborted_at_segment".into(),
                aborted_at.map_or(Json::Null, |seg| Json::Num(seg as f64)),
            ),
            ("timed_ops".into(), Json::Num(tally.timed_ops as f64)),
            (
                "ops_read_insert_remove".into(),
                nums(&mut tally.ops.iter().map(|&x| x as f64)),
            ),
            (
                "ok_read_insert_remove".into(),
                nums(&mut tally.ok.iter().map(|&x| x as f64)),
            ),
        ]
        .into_iter()
        .chain(segment_record(&segments))
        .collect(),
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(spec: &KeyedSpec, seed: u64, n: usize) -> Vec<MixedOp> {
        let mut s = OpStream::new(thread_seed(seed, 0), &spec.mix);
        (0..n).map(|_| s.next_op()).collect()
    }

    #[test]
    fn same_seed_gives_identical_op_streams() {
        for spec in [&MAP_READ, &SET_CHURN] {
            assert_eq!(ops(spec, 7, 10_000), ops(spec, 7, 10_000));
            assert_ne!(ops(spec, 7, 10_000), ops(spec, 8, 10_000));
        }
        assert_ne!(thread_seed(7, 0), thread_seed(7, 1));
    }

    #[test]
    fn realised_mix_is_within_one_point_of_the_stated_one() {
        for spec in [&MAP_READ, &SET_CHURN] {
            for seed in [1, 2, 3] {
                let n = 200_000;
                let mut counts = [0usize; 3];
                for op in ops(spec, seed, n) {
                    counts[kind(&op)] += 1;
                }
                let stated = [
                    spec.mix.read_pct,
                    spec.mix.insert_pct,
                    100 - spec.mix.read_pct - spec.mix.insert_pct,
                ];
                for (c, want) in counts.iter().zip(stated) {
                    let pct = 100.0 * *c as f64 / n as f64;
                    assert!(
                        (pct - want as f64).abs() <= 1.0,
                        "{pct} vs {want} for {:?}",
                        spec.mix
                    );
                }
            }
        }
    }

    #[test]
    fn conservation_counts_a_planted_mismatch() {
        assert_eq!(conservation_failures(2048, 100, 40, 2108), 0);
        assert_eq!(conservation_failures(2048, 100, 40, 2107), 1);
        assert_eq!(conservation_failures(2048, 100, 40, 2109), 1);
        assert_eq!(conservation_failures(0, 0, 5, 0), 5);
    }

    const SHORT: RunConfig = RunConfig {
        seed: 3,
        seconds: 0.1,
        warmup: 0.01,
        nproc: 2,
        segments: 2,
    };

    fn small(base: &KeyedSpec) -> KeyedSpec {
        KeyedSpec {
            mix: Workload {
                key_range: 256,
                prefill: 128,
                ..base.mix
            },
            setup_reps: 2,
        }
    }

    #[test]
    fn short_run_is_correct_and_conserves() {
        for out in [
            run::<Set>(&small(&SET_CHURN), &SHORT),
            run::<Map>(&small(&MAP_READ), &SHORT),
        ] {
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 1000 && out.throughput_ops_s > 0.0);
        }
    }

    /// A set whose removes of key 7 panic, standing in for a structure
    /// that crashes a worker.
    struct Crashing(Set);

    impl Keyed for Crashing {
        const LAYER: &'static str = "list";
        const READ: &'static str = "contains";
        fn build(w: &Workload) -> (Self, usize) {
            let (s, n) = Set::build(w);
            (Crashing(s), n)
        }
        fn read(&self, k: u64) -> Read {
            Keyed::read(&self.0, k)
        }
        fn insert(&self, k: u64) -> bool {
            Keyed::insert(&self.0, k)
        }
        fn remove(&self, k: u64) -> bool {
            assert_ne!(k, 7, "planted crash");
            Keyed::remove(&self.0, k)
        }
        fn len(&self) -> usize {
            Keyed::len(&self.0)
        }
    }

    #[test]
    fn a_crashed_worker_fails_the_run_and_ends_it() {
        let out = run::<Crashing>(&small(&SET_CHURN), &SHORT);
        assert!(out.failed >= 1);
        let aborted = out.record.iter().find(|(k, _)| k == "aborted_at_segment");
        assert_eq!(aborted.map(|(_, v)| v.clone()), Some(Json::Num(0.0)));
    }
}
