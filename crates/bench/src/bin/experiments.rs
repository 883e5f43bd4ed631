//! Regenerates the evaluation tables (experiments E1–E14 of DESIGN.md) and
//! emits the machine-readable measurement file.
//!
//! ```text
//! cargo run -p cds-bench --release --bin experiments -- all
//! cargo run -p cds-bench --release --bin experiments -- e4 e5
//! cargo run -p cds-bench --release --bin experiments -- all --quick --json BENCH_experiments.json
//! cargo run -p cds-bench --release --bin experiments -- check BENCH_experiments.json
//! ```
//!
//! Output: one Markdown table per experiment, rows = implementations,
//! columns = thread counts (for ratio sweeps, one table per read ratio).
//! Numbers are million operations per second (higher is better). With
//! `--json <path>`, every measured cell is also recorded as a
//! [`Sample`](cds_bench::Sample) — throughput plus p50/p90/p99/p99.9
//! sampled latency — and written as a schema-versioned JSON document
//! (see `cds_bench::report` for the schema). `check <path>` validates an
//! existing document and exits non-zero on schema violations or missing
//! experiments; CI runs it after the smoke run.

use std::sync::Arc;

use cds_bench::json::Json;
use cds_bench::{
    counter_run, lock_run, map_run, pq_run, queue_run, report, set_run, stack_run, Report,
    RunStats, Sample, Warmup, Workload,
};
use cds_core::{ConcurrentMap, ConcurrentSet, ConcurrentStack};
use cds_sync::RawLock;

const THREAD_SWEEP: &[usize] = &[1, 2, 4, 8];

struct Scale {
    ops: usize,
    list_ops: usize,
}

/// Shared run state: workload scale, warmup policy, and the sample sink.
struct Ctx {
    scale: Scale,
    warm: Warmup,
    report: Report,
}

impl Ctx {
    /// Records one measured cell into the report and returns its Mops/s.
    fn record(&mut self, experiment: &str, impl_name: &str, w: &Workload, stats: &RunStats) -> f64 {
        self.report
            .push(Sample::from_stats(experiment, impl_name, w, stats));
        stats.mops
    }

    /// Records one measured cell tagged with its reclamation backend.
    fn record_backend(
        &mut self,
        experiment: &str,
        impl_name: &str,
        backend: &str,
        w: &Workload,
        stats: &RunStats,
    ) -> f64 {
        self.report
            .push(Sample::from_stats(experiment, impl_name, w, stats).with_reclaimer(backend));
        stats.mops
    }

    /// Records one measured cell with its contention-telemetry delta (if
    /// the bench binary was built with the `telemetry` feature).
    fn record_telemetry(
        &mut self,
        experiment: &str,
        impl_name: &str,
        w: &Workload,
        stats: &RunStats,
        telemetry: Option<report::TelemetryRecord>,
    ) -> f64 {
        let mut sample = Sample::from_stats(experiment, impl_name, w, stats);
        if let Some(t) = telemetry {
            sample = sample.with_telemetry(t);
        }
        self.report.push(sample);
        stats.mops
    }
}

fn header(title: &str) {
    println!("\n### {title}\n");
    print!("| implementation |");
    for t in THREAD_SWEEP {
        print!(" {t} thr |");
    }
    println!();
    print!("|---|");
    for _ in THREAD_SWEEP {
        print!("---|");
    }
    println!();
}

fn row(name: &str, cells: &[f64]) {
    print!("| {name} |");
    for c in cells {
        print!(" {c:.3} |");
    }
    println!();
}

fn e1_counters(ctx: &mut Ctx) {
    header("E1 — counter throughput (increment-only, Mops/s)");
    macro_rules! bench {
        ($name:expr, $ctor:expr) => {{
            let cells: Vec<f64> = THREAD_SWEEP
                .iter()
                .map(|&t| {
                    let w = Workload::ops_only(t, ctx.scale.ops / t);
                    let stats = counter_run(Arc::new($ctor), w, ctx.warm);
                    ctx.record("e1", $name, &w, &stats)
                })
                .collect();
            row($name, &cells);
        }};
    }
    bench!("lock", cds_counter::LockCounter::new());
    bench!("atomic", cds_counter::AtomicCounter::new());
    bench!("sharded", cds_counter::ShardedCounter::new());
    bench!("combining-tree", cds_counter::CombiningTreeCounter::new());
    bench!("flat-combining", cds_counter::FcCounter::new());
}

fn e2_stacks(ctx: &mut Ctx) {
    header("E2 — stack throughput (50/50 push/pop, Mops/s)");
    macro_rules! bench {
        ($name:expr, $ctor:expr) => {{
            let cells: Vec<f64> = THREAD_SWEEP
                .iter()
                .map(|&t| {
                    let w = Workload::fifty_fifty(t, ctx.scale.ops / t, 1024);
                    let stats = stack_run(Arc::new($ctor), w, ctx.warm);
                    ctx.record("e2", $name, &w, &stats)
                })
                .collect();
            row($name, &cells);
        }};
    }
    bench!("coarse", cds_stack::CoarseStack::new());
    bench!("flat-combining", cds_stack::FcStack::new());
    bench!("treiber (EBR)", cds_stack::TreiberStack::new());
    bench!(
        "treiber (HP)",
        cds_stack::TreiberStack::<u64, cds_reclaim::Hazard>::with_reclaimer()
    );
    bench!("elimination", cds_stack::EliminationBackoffStack::new());
    // Ablation (DESIGN.md decision #4): elimination parameters.
    bench!(
        "elimination (1 slot, 16 spins)",
        cds_stack::EliminationBackoffStack::with_params(1, 16)
    );
    bench!(
        "elimination (8 slots, 256 spins)",
        cds_stack::EliminationBackoffStack::with_params(8, 256)
    );
}

fn e3_queues(ctx: &mut Ctx) {
    header("E3 — queue throughput (50/50 enq/deq, Mops/s)");
    macro_rules! bench {
        ($name:expr, $ctor:expr) => {{
            let cells: Vec<f64> = THREAD_SWEEP
                .iter()
                .map(|&t| {
                    let w = Workload::fifty_fifty(t, ctx.scale.ops / t, 1024);
                    let stats = queue_run(Arc::new($ctor), w, ctx.warm);
                    ctx.record("e3", $name, &w, &stats)
                })
                .collect();
            row($name, &cells);
        }};
    }
    bench!("coarse", cds_queue::CoarseQueue::new());
    bench!("flat-combining", cds_queue::FcQueue::new());
    bench!("two-lock", cds_queue::TwoLockQueue::new());
    bench!("michael-scott", cds_queue::MsQueue::new());
    bench!(
        "bounded (vyukov)",
        cds_queue::BoundedQueue::with_capacity(1 << 16)
    );
}

/// One measured set cell: runs, records, returns the table entry.
fn run_set<S>(
    ctx: &mut Ctx,
    experiment: &str,
    name: &str,
    set: Arc<S>,
    w: Workload,
) -> (String, f64)
where
    S: ConcurrentSet<u64> + 'static,
{
    let stats = set_run(set, w, ctx.warm);
    (name.to_string(), ctx.record(experiment, name, &w, &stats))
}

/// One measured map cell: runs, records, returns the table entry.
fn run_map<M>(
    ctx: &mut Ctx,
    experiment: &str,
    name: &str,
    map: Arc<M>,
    w: Workload,
) -> (String, f64)
where
    M: ConcurrentMap<u64, u64> + 'static,
{
    let stats = map_run(map, w, ctx.warm);
    (name.to_string(), ctx.record(experiment, name, &w, &stats))
}

fn ratio_sweep<F>(
    ctx: &mut Ctx,
    experiment: &str,
    title: &str,
    ops: usize,
    key_range: u64,
    mut make_rows: F,
) where
    F: FnMut(&mut Ctx, &str, Workload) -> Vec<(String, f64)>,
{
    for &(read_pct, insert_pct, label) in &[
        (0u8, 50u8, "0% reads"),
        (50, 25, "50% reads"),
        (90, 5, "90% reads"),
    ] {
        header(&format!("{title} — {label}"));
        // Collect per-implementation rows across the thread sweep.
        let mut table: Vec<(String, Vec<f64>)> = Vec::new();
        for &t in THREAD_SWEEP {
            let w = Workload {
                threads: t,
                ops_per_thread: ops / t,
                key_range,
                read_pct,
                insert_pct,
                prefill: (key_range / 2) as usize,
            };
            for (i, (name, mops)) in make_rows(ctx, experiment, w).into_iter().enumerate() {
                if table.len() <= i {
                    table.push((name, Vec::new()));
                }
                table[i].1.push(mops);
            }
        }
        for (name, cells) in &table {
            row(name, cells);
        }
    }
}

fn e4_lists(ctx: &mut Ctx) {
    let ops = ctx.scale.list_ops;
    ratio_sweep(
        ctx,
        "e4",
        "E4 — list-based sets (Mops/s)",
        ops,
        512,
        |ctx, e, w| {
            vec![
                run_set(ctx, e, "coarse", Arc::new(cds_list::CoarseList::new()), w),
                run_set(
                    ctx,
                    e,
                    "fine (hand-over-hand)",
                    Arc::new(cds_list::FineList::new()),
                    w,
                ),
                run_set(
                    ctx,
                    e,
                    "optimistic",
                    Arc::new(cds_list::OptimisticList::new()),
                    w,
                ),
                run_set(ctx, e, "lazy", Arc::new(cds_list::LazyList::new()), w),
                run_set(
                    ctx,
                    e,
                    "harris-michael",
                    Arc::new(cds_list::HarrisMichaelList::new()),
                    w,
                ),
            ]
        },
    );
}

fn e5_maps(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    ratio_sweep(
        ctx,
        "e5",
        "E5 — hash maps (Mops/s)",
        ops,
        65_536,
        |ctx, e, w| {
            vec![
                run_map(ctx, e, "coarse", Arc::new(cds_map::CoarseMap::new()), w),
                run_map(
                    ctx,
                    e,
                    "striped",
                    Arc::new(cds_map::StripedHashMap::new()),
                    w,
                ),
                run_map(
                    ctx,
                    e,
                    "split-ordered",
                    Arc::new(cds_map::SplitOrderedHashMap::new()),
                    w,
                ),
            ]
        },
    );
}

fn e6_skiplists(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    ratio_sweep(
        ctx,
        "e6",
        "E6 — skiplist sets (Mops/s)",
        ops,
        65_536,
        |ctx, e, w| {
            vec![
                run_set(
                    ctx,
                    e,
                    "coarse",
                    Arc::new(cds_skiplist::CoarseSkipList::new()),
                    w,
                ),
                run_set(
                    ctx,
                    e,
                    "lazy",
                    Arc::new(cds_skiplist::LazySkipList::new()),
                    w,
                ),
                run_set(
                    ctx,
                    e,
                    "lock-free",
                    Arc::new(cds_skiplist::LockFreeSkipList::new()),
                    w,
                ),
            ]
        },
    );
}

fn e7_trees(ctx: &mut Ctx) {
    let ops = ctx.scale.ops;
    ratio_sweep(
        ctx,
        "e7",
        "E7 — binary search trees (Mops/s)",
        ops,
        65_536,
        |ctx, e, w| {
            vec![
                run_set(ctx, e, "coarse", Arc::new(cds_tree::CoarseBst::new()), w),
                run_set(
                    ctx,
                    e,
                    "fine (external)",
                    Arc::new(cds_tree::FineBst::new()),
                    w,
                ),
                run_set(
                    ctx,
                    e,
                    "ellen (lock-free)",
                    Arc::new(cds_tree::LockFreeBst::new()),
                    w,
                ),
            ]
        },
    );
}

fn e8_priority_queues(ctx: &mut Ctx) {
    header("E8 — priority queues (50/50 insert/remove-min, Mops/s)");
    macro_rules! bench {
        ($name:expr, $ctor:expr) => {{
            let cells: Vec<f64> = THREAD_SWEEP
                .iter()
                .map(|&t| {
                    let w = Workload::pq_default(t, ctx.scale.ops / t);
                    let stats = pq_run(Arc::new($ctor), w, ctx.warm);
                    ctx.record("e8", $name, &w, &stats)
                })
                .collect();
            row($name, &cells);
        }};
    }
    bench!("coarse-heap", cds_prio::CoarseBinaryHeap::new());
    bench!(
        "skiplist (lotan-shavit)",
        cds_prio::SkipListPriorityQueue::new()
    );
}

fn e9_locks(ctx: &mut Ctx) {
    header("E9 — lock acquisition under contention (M acquisitions/s)");

    fn bench_raw<L: RawLock + 'static>(ctx: &mut Ctx, name: &str) {
        let ops = ctx.scale.ops;
        let cells: Vec<f64> = THREAD_SWEEP
            .iter()
            .map(|&t| {
                let w = Workload::ops_only(t, ops / t);
                let lock = Arc::new(cds_sync::Lock::<L, u64>::new(0));
                let stats = lock_run(t, ops / t, ctx.warm, move || {
                    *lock.lock() += 1;
                });
                ctx.record("e9", name, &w, &stats)
            })
            .collect();
        row(name, &cells);
    }

    bench_raw::<cds_sync::TasLock>(ctx, "tas");
    bench_raw::<cds_sync::TtasLock>(ctx, "ttas+backoff");
    bench_raw::<cds_sync::TicketLock>(ctx, "ticket");
    bench_raw::<cds_sync::ClhLock>(ctx, "clh");
    bench_raw::<cds_sync::McsLock>(ctx, "mcs");

    let std_cells: Vec<f64> = THREAD_SWEEP
        .iter()
        .map(|&t| {
            let w = Workload::ops_only(t, ctx.scale.ops / t);
            let lock = Arc::new(std::sync::Mutex::new(0u64));
            let stats = lock_run(t, w.ops_per_thread, ctx.warm, move || {
                *lock.lock().unwrap() += 1;
            });
            ctx.record("e9", "std::sync::Mutex", &w, &stats)
        })
        .collect();
    row("std::sync::Mutex", &std_cells);
}

fn e10_reclamation(ctx: &mut Ctx) {
    use cds_reclaim::{DebugReclaim, Ebr, Hazard, Leak, Reclaimer};

    // Structure × backend sweep: each lock-free structure instantiated
    // against every reclamation backend. Rows are backends (`R::NAME`);
    // samples carry the structure as `impl` and the backend as
    // `reclaimer`, which `experiments check` validates for full coverage.

    fn stack_rows<R: Reclaimer>(ctx: &mut Ctx) {
        let cells: Vec<f64> = THREAD_SWEEP
            .iter()
            .map(|&t| {
                let w = Workload::fifty_fifty(t, ctx.scale.ops / t, 1024);
                let stack = Arc::new(cds_stack::TreiberStack::<u64, R>::with_reclaimer());
                let stats = stack_run(stack, w, ctx.warm);
                ctx.record_backend("e10", "treiber", R::NAME, &w, &stats)
            })
            .collect();
        row(R::NAME, &cells);
    }

    fn queue_rows<R: Reclaimer>(ctx: &mut Ctx) {
        let cells: Vec<f64> = THREAD_SWEEP
            .iter()
            .map(|&t| {
                let w = Workload::fifty_fifty(t, ctx.scale.ops / t, 1024);
                let queue = Arc::new(cds_queue::MsQueue::<u64, R>::with_reclaimer());
                let stats = queue_run(queue, w, ctx.warm);
                ctx.record_backend("e10", "michael-scott", R::NAME, &w, &stats)
            })
            .collect();
        row(R::NAME, &cells);
    }

    fn list_rows<R: Reclaimer>(ctx: &mut Ctx) {
        let ops = ctx.scale.list_ops;
        let cells: Vec<f64> = THREAD_SWEEP
            .iter()
            .map(|&t| {
                let w = Workload {
                    threads: t,
                    ops_per_thread: ops / t,
                    key_range: 512,
                    read_pct: 50,
                    insert_pct: 25,
                    prefill: 256,
                };
                let list = Arc::new(cds_list::HarrisMichaelList::<u64, R>::with_reclaimer());
                let stats = set_run(list, w, ctx.warm);
                ctx.record_backend("e10", "harris-michael", R::NAME, &w, &stats)
            })
            .collect();
        row(R::NAME, &cells);
    }

    header("E10 — Treiber stack × reclamation backend (50/50 push/pop, Mops/s)");
    stack_rows::<Ebr>(ctx);
    stack_rows::<Hazard>(ctx);
    stack_rows::<Leak>(ctx);
    stack_rows::<DebugReclaim>(ctx);

    header("E10 — Michael–Scott queue × reclamation backend (50/50 enq/deq, Mops/s)");
    queue_rows::<Ebr>(ctx);
    queue_rows::<Hazard>(ctx);
    queue_rows::<Leak>(ctx);
    queue_rows::<DebugReclaim>(ctx);

    header("E10 — Harris–Michael list × reclamation backend (50% reads, Mops/s)");
    list_rows::<Ebr>(ctx);
    list_rows::<Hazard>(ctx);
    list_rows::<Leak>(ctx);
    list_rows::<DebugReclaim>(ctx);

    // Bounded-garbage evidence for hazard pointers: churn hard, then
    // report the domain's retired-but-not-yet-freed backlog.
    let hp = Arc::new(cds_stack::TreiberStack::<u64, Hazard>::with_reclaimer());
    for i in 0..100_000u64 {
        hp.push(i);
        std::hint::black_box(hp.pop());
    }
    Hazard::collect();
    let backlog = Hazard::retired_backlog();
    println!("\nhazard-pointer garbage backlog after 100k churn ops: {backlog} nodes (bounded by design)");
    ctx.report
        .push_extra("e10_hazard_garbage_after_100k_churn", backlog as f64);
}

fn e11_resize(ctx: &mut Ctx) {
    use cds_reclaim::Ebr;
    use std::hash::RandomState;

    // Resize sweep: a growth workload that starts from a deliberately
    // small table and inserts enough distinct keys that every shard must
    // double at least three times while the benchmark threads keep
    // operating. Three rows:
    //
    //   resizing             — 8 shards × 8 buckets, grows cooperatively
    //                          through incremental migration (no
    //                          stop-the-world pause);
    //   resizing (pre-sized) — same map born at final geometry, isolating
    //                          the cost of migration itself;
    //   striped              — the lock-striped map pre-sized to the
    //                          matched final capacity so it never takes
    //                          its all-stripe resize: the fixed-capacity
    //                          baseline of the acceptance bound.
    //
    // The mix is insert-heavy (20% reads / 70% inserts / 10% removes)
    // with no prefill, so the doublings happen under load, interleaved
    // with the measured operations rather than in a setup phase.
    let ops = ctx.scale.ops;
    let key_range = 16_384u64;
    header("E11 — resizable map growth sweep (20% reads / 70% inserts, Mops/s)");
    let mut table: Vec<(String, Vec<f64>)> = Vec::new();
    let mut max_doublings = 0usize;
    for &t in THREAD_SWEEP {
        let w = Workload {
            threads: t,
            ops_per_thread: ops / t,
            key_range,
            read_pct: 20,
            insert_pct: 70,
            prefill: 0,
        };
        // ~13k resident keys over 8 shards trigger growth past 4 entries
        // per bucket until each shard holds 512 buckets: 6 doublings per
        // shard from the 8-bucket start.
        let growing =
            Arc::new(cds_map::ResizingMap::<u64, u64, RandomState, Ebr>::with_config(8, 8));
        let rows = vec![
            run_map(ctx, "e11", "resizing", Arc::clone(&growing), w),
            run_map(
                ctx,
                "e11",
                "resizing (pre-sized)",
                Arc::new(cds_map::ResizingMap::<u64, u64, RandomState, Ebr>::with_config(8, 512)),
                w,
            ),
            run_map(
                ctx,
                "e11",
                "striped",
                Arc::new(cds_map::StripedHashMap::with_config(16, 4096)),
                w,
            ),
        ];
        max_doublings = max_doublings.max(growing.doublings());
        for (i, (name, mops)) in rows.into_iter().enumerate() {
            if table.len() <= i {
                table.push((name, Vec::new()));
            }
            table[i].1.push(mops);
        }
    }
    for (name, cells) in &table {
        row(name, cells);
    }
    println!("\nresizing-map bucket-array doublings under load: {max_doublings} (cooperative, no stop-the-world)");
    ctx.report
        .push_extra("e11_resizing_doublings", max_doublings as f64);
}

/// The counter delta since `base` as a sample record, nonzero entries
/// only; `None` when telemetry is compiled out. Shared by the telemetry
/// sweeps (E12 contention, E13 executor).
fn capture(base: &cds_obs::Snapshot) -> Option<report::TelemetryRecord> {
    if !cds_obs::enabled() {
        return None;
    }
    let delta = cds_obs::Snapshot::take().delta(base);
    Some(report::TelemetryRecord {
        counters: delta
            .iter()
            .filter(|&(_, v)| v != 0)
            .map(|(e, v)| (e.name().to_string(), v))
            .collect(),
    })
}

fn e12_contention(ctx: &mut Ctx) {
    use cds_bench::report::TelemetryRecord;

    // Contention sweep: three representative structures — a CAS-retry
    // stack, a CAS-retry queue, and a spinning lock — re-measured with
    // the `cds-obs` counter delta captured around each cell. With the
    // default build the counters compile to no-ops and the samples carry
    // no telemetry (the throughput table is all this prints); with
    // `--features telemetry` every cell records its CAS attempt/failure
    // and spin-iteration counts, from which the failure-rate and
    // spins-per-acquisition tables below are derived. The delta spans
    // warmup plus the timed section, so the ratios are the meaningful
    // reading, not the absolute counts.

    /// One implementation row: runs every thread count, recording each
    /// cell with its telemetry, and returns the per-cell records for the
    /// derived tables. The reset keeps per-cell peaks (max-kind events)
    /// from accumulating across cells; no worker threads are live between
    /// runs, so it cannot race a recorder.
    fn sweep(
        ctx: &mut Ctx,
        name: &str,
        mut cell: impl FnMut(usize) -> (Workload, RunStats),
    ) -> Vec<Option<TelemetryRecord>> {
        let mut cells = Vec::new();
        let mut tels = Vec::new();
        for &t in THREAD_SWEEP {
            cds_obs::reset();
            let base = cds_obs::Snapshot::take();
            let (w, stats) = cell(t);
            let tel = capture(&base);
            cells.push(ctx.record_telemetry("e12", name, &w, &stats, tel.clone()));
            tels.push(tel);
        }
        row(name, &cells);
        tels
    }

    let ops = ctx.scale.ops;
    let warm = ctx.warm;

    header("E12 — contention sweep throughput (Mops/s)");
    let treiber = sweep(ctx, "treiber", |t| {
        let w = Workload::fifty_fifty(t, ops / t, 1024);
        let stats = stack_run(Arc::new(cds_stack::TreiberStack::new()), w, warm);
        (w, stats)
    });
    let ms = sweep(ctx, "michael-scott", |t| {
        let w = Workload::fifty_fifty(t, ops / t, 1024);
        let stats = queue_run(Arc::new(cds_queue::MsQueue::new()), w, warm);
        (w, stats)
    });
    let ttas = sweep(ctx, "ttas+backoff", |t| {
        let w = Workload::ops_only(t, ops / t);
        let lock = Arc::new(cds_sync::Lock::<cds_sync::TtasLock, u64>::new(0));
        let stats = lock_run(t, ops / t, warm, move || {
            *lock.lock() += 1;
        });
        (w, stats)
    });

    if cds_obs::enabled() {
        let ratio = |tel: &Option<TelemetryRecord>, num: &str, den: &str, scale: f64| {
            tel.as_ref().map_or(0.0, |t| {
                let d = t.get(den);
                if d == 0 {
                    0.0
                } else {
                    scale * t.get(num) as f64 / d as f64
                }
            })
        };
        header("E12 — CAS failure rate (% of attempts)");
        for (name, tels) in [("treiber", &treiber), ("michael-scott", &ms)] {
            let cells: Vec<f64> = tels
                .iter()
                .map(|t| ratio(t, "cas_failure", "cas_attempt", 100.0))
                .collect();
            row(name, &cells);
        }
        header("E12 — TTAS spin iterations per acquisition");
        let cells: Vec<f64> = ttas
            .iter()
            .map(|t| ratio(t, "ttas_spin", "ttas_acquire", 1.0))
            .collect();
        row("ttas+backoff", &cells);
    }
}

fn e13_executor(ctx: &mut Ctx) {
    use cds_bench::report::TelemetryRecord;
    use cds_bench::{LatencyHistogram, LATENCY_SAMPLE_EVERY};
    use cds_exec::Executor;
    use std::time::Instant;

    // Work-stealing executor sweep: the pool owns its worker threads, so
    // the generic `measured_run` harness (which spawns the sweep's
    // threads itself) does not apply; each cell instead builds a fresh
    // `t`-worker pool and the driver thread pushes tasks through it. Two
    // workloads: "spawn-throughput" (flat external spawns, all traffic
    // through the injector) and "fork-join" (roots forking children from
    // inside the pool, exercising the local-deque fast path and stealing).
    // Throughput is tasks completed per second; the latency histogram
    // samples the driver-side cost of every `LATENCY_SAMPLE_EVERY`-th
    // `spawn` call (the submission path, including injector overflow to
    // the unbounded queue). With `--features telemetry` the per-cell
    // counter deltas additionally yield the steal hit-rate and parking
    // tables, and `check` enforces the spawned == executed conservation
    // invariant on every cell.

    /// One measured pool cell: a fresh `t`-worker pool, `warm.max_iters`
    /// reduced-size warmup rounds, then one timed round of ~`total` tasks
    /// driven by `drive` (which returns the exact task count it spawned).
    /// Every round ends in `quiesce`, so at capture time the telemetry
    /// delta satisfies spawned == executed. No steady-state CoV test:
    /// pool construction is part of what E13 characterizes, and the
    /// fixed warmup keeps cells cheap.
    fn pool_cell(
        t: usize,
        total: usize,
        warm: Warmup,
        drive: impl Fn(&Executor, usize, &mut LatencyHistogram) -> usize,
    ) -> (RunStats, Option<TelemetryRecord>) {
        cds_obs::reset();
        let base = cds_obs::Snapshot::take();
        let pool = Executor::new(t);
        let mut scratch = LatencyHistogram::new();
        let warm_total = (total / warm.ops_divisor.max(1)).max(1);
        for _ in 0..warm.max_iters {
            drive(&pool, warm_total, &mut scratch);
            pool.quiesce();
        }
        let mut hist = LatencyHistogram::new();
        let start = Instant::now();
        let actual = drive(&pool, total, &mut hist);
        pool.quiesce();
        let span = start.elapsed().as_secs_f64();
        let tel = capture(&base);
        pool.shutdown();
        (
            RunStats {
                mops: actual as f64 / span / 1e6,
                duration_s: span,
                total_ops: actual,
                warmup_iters: warm.max_iters,
                hist,
            },
            tel,
        )
    }

    /// One workload row across the thread sweep, recording each cell with
    /// its telemetry delta (mirrors the E12 sweep helper).
    fn sweep(
        ctx: &mut Ctx,
        name: &str,
        drive: impl Fn(&Executor, usize, &mut LatencyHistogram) -> usize,
    ) -> Vec<Option<TelemetryRecord>> {
        let ops = ctx.scale.ops;
        let warm = ctx.warm;
        let mut cells = Vec::new();
        let mut tels = Vec::new();
        for &t in THREAD_SWEEP {
            let (stats, tel) = pool_cell(t, ops, warm, &drive);
            let w = Workload::ops_only(t, ops / t);
            cells.push(ctx.record_telemetry("e13", name, &w, &stats, tel.clone()));
            tels.push(tel);
        }
        row(name, &cells);
        tels
    }

    /// Spawns `task` onto the pool, sampling the submission latency for
    /// every `LATENCY_SAMPLE_EVERY`-th call.
    fn timed_spawn(
        pool: &Executor,
        i: usize,
        hist: &mut LatencyHistogram,
        task: impl FnOnce() + Send + 'static,
    ) {
        if i.is_multiple_of(LATENCY_SAMPLE_EVERY) {
            let t0 = Instant::now();
            pool.spawn(task);
            hist.record(t0.elapsed().as_nanos() as u64);
        } else {
            pool.spawn(task);
        }
    }

    header("E13 — work-stealing executor task throughput (Mtasks/s)");
    let st = sweep(ctx, "spawn-throughput", |pool, n, hist| {
        for i in 0..n {
            timed_spawn(pool, i, hist, move || {
                std::hint::black_box(i);
            });
        }
        n
    });
    let fj = sweep(ctx, "fork-join", |pool, n, hist| {
        const FAN: usize = 7;
        let roots = (n / (FAN + 1)).max(1);
        for i in 0..roots {
            let handle = pool.handle();
            timed_spawn(pool, i, hist, move || {
                for c in 0..FAN {
                    handle.spawn(move || {
                        std::hint::black_box(c);
                    });
                }
            });
        }
        roots * (FAN + 1)
    });

    if cds_obs::enabled() {
        let cells = |tels: &[Option<TelemetryRecord>], f: &dyn Fn(&TelemetryRecord) -> f64| {
            tels.iter()
                .map(|t| t.as_ref().map_or(0.0, f))
                .collect::<Vec<f64>>()
        };
        header("E13 — steal hit rate (% of steal attempts)");
        for (name, tels) in [("spawn-throughput", &st), ("fork-join", &fj)] {
            let c = cells(tels, &|t| {
                let hit = t.get("exec_steal_hit") as f64;
                let miss = t.get("exec_steal_miss") as f64;
                if hit + miss == 0.0 {
                    0.0
                } else {
                    100.0 * hit / (hit + miss)
                }
            });
            row(name, &c);
        }
        header("E13 — parks per 1k executed tasks");
        for (name, tels) in [("spawn-throughput", &st), ("fork-join", &fj)] {
            let c = cells(tels, &|t| {
                let executed = t.get("exec_tasks_executed");
                if executed == 0 {
                    0.0
                } else {
                    1000.0 * t.get("exec_parks") as f64 / executed as f64
                }
            });
            row(name, &c);
        }
    }
}

fn e14_channel(ctx: &mut Ctx) {
    use cds_atomic::raw::{AtomicUsize, Ordering};
    use cds_bench::report::TelemetryRecord;
    use cds_bench::{LatencyHistogram, LATENCY_SAMPLE_EVERY};
    use std::time::Instant;

    // Blocking MPMC channel sweep: the bounded (Vyukov-ring) and
    // unbounded (Michael–Scott) channels moving messages end to end.
    // Each cell splits its `t` threads into `t/2` producers and `t -
    // t/2` consumers (the t=1 column is a single thread ping-ponging
    // send/recv, so nothing ever blocks there); producers `send` their
    // quota, the last one to finish closes the channel, and consumers
    // `recv` until `Closed`, so every cell exercises the park/unpark
    // paths — senders on a full ring, receivers on an empty buffer —
    // and ends with the channel fully drained. Throughput is messages
    // moved end-to-end per second (each message is one send plus one
    // recv); the latency histogram samples the blocking-send cost on
    // the driver thread, which doubles as producer 0. With `--features
    // telemetry` the per-cell counter deltas additionally yield the
    // park-rate tables, and `check` enforces message conservation
    // (sent == received + drained-at-drop) on every cell.

    /// Moves `per * producers` messages through `ch` and consumes it:
    /// the last producer to finish closes the channel, consumers drain
    /// until `Closed`. The driver thread is producer 0 and samples its
    /// own send latency; `consumers == 0` means single-thread ping-pong.
    fn drive(
        ch: &cds_chan::Channel<u64>,
        producers: usize,
        consumers: usize,
        per: usize,
        hist: &mut LatencyHistogram,
    ) -> usize {
        let send = |ch: &cds_chan::Channel<u64>, i: usize, hist: &mut LatencyHistogram| {
            if i.is_multiple_of(LATENCY_SAMPLE_EVERY) {
                let t0 = Instant::now();
                ch.send(i as u64)
                    .expect("channel closed under a live producer");
                hist.record(t0.elapsed().as_nanos() as u64);
            } else {
                ch.send(i as u64)
                    .expect("channel closed under a live producer");
            }
        };
        if consumers == 0 {
            for i in 0..per {
                send(ch, i, hist);
                ch.recv().expect("just sent");
            }
            ch.close();
            return per;
        }
        let live = AtomicUsize::new(producers);
        std::thread::scope(|s| {
            for _ in 0..consumers {
                s.spawn(|| while ch.recv().is_ok() {});
            }
            for _ in 1..producers {
                s.spawn(|| {
                    for i in 0..per {
                        ch.send(i as u64)
                            .expect("channel closed under a live producer");
                    }
                    if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                        ch.close();
                    }
                });
            }
            for i in 0..per {
                send(ch, i, hist);
            }
            if live.fetch_sub(1, Ordering::AcqRel) == 1 {
                ch.close();
            }
        });
        per * producers
    }

    /// One measured channel cell: fresh channels for warmup and for the
    /// timed round (each fully drained and dropped before the telemetry
    /// capture, so the conservation invariant is checkable). No
    /// steady-state CoV test: parking behaviour is load-dependent and
    /// the fixed warmup keeps cells cheap (mirrors the E13 pool cells).
    fn chan_cell(
        t: usize,
        total: usize,
        warm: Warmup,
        make: &dyn Fn() -> cds_chan::Channel<u64>,
    ) -> (RunStats, Option<TelemetryRecord>) {
        let (producers, consumers) = if t == 1 { (1, 0) } else { (t / 2, t - t / 2) };
        cds_obs::reset();
        let base = cds_obs::Snapshot::take();
        let mut scratch = LatencyHistogram::new();
        let warm_per = ((total / warm.ops_divisor.max(1)).max(1) / producers).max(1);
        for _ in 0..warm.max_iters {
            drive(&make(), producers, consumers, warm_per, &mut scratch);
        }
        let per = (total / producers).max(1);
        let mut hist = LatencyHistogram::new();
        let start = Instant::now();
        let ch = make();
        let moved = drive(&ch, producers, consumers, per, &mut hist);
        drop(ch);
        let span = start.elapsed().as_secs_f64();
        let tel = capture(&base);
        (
            RunStats {
                mops: moved as f64 / span / 1e6,
                duration_s: span,
                total_ops: moved,
                warmup_iters: warm.max_iters,
                hist,
            },
            tel,
        )
    }

    /// One channel variant across the thread sweep, recording each cell
    /// with its telemetry delta (mirrors the E12/E13 sweep helpers).
    fn sweep(
        ctx: &mut Ctx,
        name: &str,
        make: &dyn Fn() -> cds_chan::Channel<u64>,
    ) -> Vec<Option<TelemetryRecord>> {
        let ops = ctx.scale.ops;
        let warm = ctx.warm;
        let mut cells = Vec::new();
        let mut tels = Vec::new();
        for &t in THREAD_SWEEP {
            let (stats, tel) = chan_cell(t, ops, warm, make);
            let w = Workload::ops_only(t, ops / t);
            cells.push(ctx.record_telemetry("e14", name, &w, &stats, tel.clone()));
            tels.push(tel);
        }
        row(name, &cells);
        tels
    }

    // Capacity well below the per-producer quota so bounded senders
    // actually hit the full-ring park path under consumer lag.
    const BOUNDED_CAP: usize = 1 << 10;

    header("E14 — blocking MPMC channel throughput (Mmsgs/s, t/2 producers : t/2 consumers)");
    let bounded = sweep(ctx, "bounded", &|| cds_chan::bounded::<u64>(BOUNDED_CAP));
    let unbounded = sweep(ctx, "unbounded", &|| cds_chan::unbounded::<u64>());

    if cds_obs::enabled() {
        let per_1k = |tels: &[Option<TelemetryRecord>], num: &str, den: &str| {
            tels.iter()
                .map(|t| {
                    t.as_ref().map_or(0.0, |t| {
                        let d = t.get(den);
                        if d == 0 {
                            0.0
                        } else {
                            1000.0 * t.get(num) as f64 / d as f64
                        }
                    })
                })
                .collect::<Vec<f64>>()
        };
        header("E14 — sender parks per 1k sends");
        for (name, tels) in [("bounded", &bounded), ("unbounded", &unbounded)] {
            row(name, &per_1k(tels, "chan_parks_send", "chan_sends"));
        }
        header("E14 — receiver parks per 1k receives");
        for (name, tels) in [("bounded", &bounded), ("unbounded", &unbounded)] {
            row(name, &per_1k(tels, "chan_parks_recv", "chan_recvs"));
        }
    }
}

/// Validates an existing report file; returns an error description on any
/// schema violation or missing experiment. With `partial`, e1–e14
/// coverage is not required (for single-experiment runs), but any e10
/// samples present must still sweep every reclamation backend, any e11
/// samples must cover both resize-sweep implementations with three or
/// more recorded doublings, any e12 samples must cover the contention
/// sweep (with telemetry records when `extras.telemetry_enabled` is 1),
/// any e13 samples must cover both executor workloads and — under
/// telemetry — satisfy the spawned == executed conservation invariant,
/// and any e14 samples must cover both channel variants and — under
/// telemetry — satisfy the message conservation invariant.
fn check_file(path: &str, partial: bool) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: invalid JSON: {e}"))?;
    let samples = report::validate_schema(&doc).map_err(|e| format!("{path}: {e}"))?;
    if !partial {
        report::validate_coverage(&samples).map_err(|e| format!("{path}: {e}"))?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e10") {
        report::validate_e10_backends(&samples).map_err(|e| format!("{path}: {e}"))?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e11") {
        report::validate_e11_resize(&doc, &samples).map_err(|e| format!("{path}: {e}"))?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e12") {
        report::validate_e12_contention(&doc, &samples).map_err(|e| format!("{path}: {e}"))?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e13") {
        report::validate_e13_executor(&doc, &samples).map_err(|e| format!("{path}: {e}"))?;
    }
    if !partial || samples.iter().any(|s| s.experiment == "e14") {
        report::validate_e14_channel(&doc, &samples).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(samples.len())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `experiments -- check [--partial] <path>`: validate and exit.
    if args.first().map(String::as_str) == Some("check") {
        let partial = args.iter().any(|a| a == "--partial");
        let path = args
            .iter()
            .skip(1)
            .find(|a| *a != "--partial")
            .map(String::as_str)
            .unwrap_or("BENCH_experiments.json");
        match check_file(path, partial) {
            Ok(n) => {
                println!(
                    "{path}: schema v{} OK, {n} samples, {}e10 backends swept",
                    report::SCHEMA_VERSION,
                    if partial { "" } else { "e1–e14 covered, " },
                );
                return;
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    let quick = args.iter().any(|a| a == "--quick");
    // `--json [path]`: the path operand (when present) must not be
    // mistaken for an experiment id below.
    let json_flag_idx = args.iter().position(|a| a == "--json");
    let json_flag_with_operand =
        json_flag_idx.filter(|i| args.get(i + 1).is_some_and(|p| !p.starts_with("--")));
    let json_path: Option<String> = json_flag_idx.map(|_| match json_flag_with_operand {
        Some(i) => args[i + 1].clone(),
        None => "BENCH_experiments.json".to_string(),
    });
    let wanted: Vec<String> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && json_flag_with_operand.map(|j| j + 1) != Some(*i))
        .map(|(_, a)| a.to_lowercase())
        .collect();
    let run_all = wanted.is_empty() || wanted.iter().any(|a| a == "all");
    let want = |id: &str| run_all || wanted.iter().any(|a| a == id);

    let scale = if quick {
        Scale {
            ops: 40_000,
            list_ops: 8_000,
        }
    } else {
        Scale {
            ops: 400_000,
            list_ops: 40_000,
        }
    };
    let warm = if quick {
        Warmup::quick()
    } else {
        Warmup::standard()
    };
    let mut ctx = Ctx {
        scale,
        warm,
        report: Report::new(if quick { "quick" } else { "full" }, warm),
    };

    println!("# cds experiment tables");
    println!(
        "\nhost: {} hardware threads; sweep {:?}; {} ops/experiment{}",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        THREAD_SWEEP,
        ctx.scale.ops,
        if quick { " (--quick)" } else { "" }
    );

    if want("e1") {
        e1_counters(&mut ctx);
    }
    if want("e2") {
        e2_stacks(&mut ctx);
    }
    if want("e3") {
        e3_queues(&mut ctx);
    }
    if want("e4") {
        e4_lists(&mut ctx);
    }
    if want("e5") {
        e5_maps(&mut ctx);
    }
    if want("e6") {
        e6_skiplists(&mut ctx);
    }
    if want("e7") {
        e7_trees(&mut ctx);
    }
    if want("e8") {
        e8_priority_queues(&mut ctx);
    }
    if want("e9") {
        e9_locks(&mut ctx);
    }
    if want("e10") {
        e10_reclamation(&mut ctx);
    }
    if want("e11") {
        e11_resize(&mut ctx);
    }
    if want("e12") {
        e12_contention(&mut ctx);
    }
    if want("e13") {
        e13_executor(&mut ctx);
    }
    if want("e14") {
        e14_channel(&mut ctx);
    }

    // Recorded once here (not inside an experiment) so any run that emits
    // JSON — including single-experiment `e12`–`e14` runs whose checks
    // read it — carries the flag.
    ctx.report.push_extra(
        "telemetry_enabled",
        if cds_obs::enabled() { 1.0 } else { 0.0 },
    );

    if let Some(path) = json_path {
        if let Err(e) = ctx.report.write_file(&path) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        // Self-check: the file we just wrote must parse and satisfy the
        // schema (and cover e1–e14 when the full suite ran).
        let text = std::fs::read_to_string(&path).expect("just wrote it");
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path}: emitted invalid JSON: {e}");
            std::process::exit(1);
        });
        let samples = report::validate_schema(&doc).unwrap_or_else(|e| {
            eprintln!("{path}: emitted schema-invalid document: {e}");
            std::process::exit(1);
        });
        if run_all {
            if let Err(e) = report::validate_coverage(&samples)
                .and_then(|()| report::validate_e10_backends(&samples))
                .and_then(|()| report::validate_e11_resize(&doc, &samples))
                .and_then(|()| report::validate_e12_contention(&doc, &samples))
                .and_then(|()| report::validate_e13_executor(&doc, &samples))
                .and_then(|()| report::validate_e14_channel(&doc, &samples))
            {
                eprintln!("{path}: {e}");
                std::process::exit(1);
            }
        }
        println!(
            "\nwrote {path}: schema v{}, {} samples",
            report::SCHEMA_VERSION,
            samples.len()
        );
    }
}
