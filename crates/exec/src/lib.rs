//! A fixed-size work-stealing thread pool built from the `cds` structure
//! zoo — the runtime the scheduler literature motivates work-stealing
//! deques with.
//!
//! # Architecture
//!
//! * One [`cds_queue::ChaseLevDeque`] **worker** per pool thread holds its
//!   local tasks (LIFO for the owner — cache-warm child tasks run first);
//!   every other thread holds that deque's [`cds_queue::Stealer`].
//! * External submissions land in a shared bounded **injector**
//!   ([`cds_queue::BoundedQueue`]); when it is full, [`Executor::spawn`]
//!   falls through to an unbounded lock-free **overflow** queue
//!   ([`cds_queue::MsQueue`]) instead of blocking — `spawn` never waits.
//! * Idle workers probe victims in seeded-random order with
//!   [`cds_queue::Stealer::steal_batch_and_pop`] (up to half the victim's
//!   tasks, amortizing the probe), escalate through
//!   [`cds_sync::Backoff`], and finally **park** on an eventcount whose
//!   prepare / re-check / commit protocol is lost-wakeup-free (see
//!   [`Parker` protocol](#parker-protocol) below).
//! * The whole pool is generic over `R:`[`Reclaimer`] like the structures
//!   it composes, so the deque buffers and overflow nodes are managed by
//!   whichever backend the application standardized on.
//!
//! # Parker protocol
//!
//! Parking uses an *eventcount* (`epoch` counter + mutex/condvar):
//!
//! 1. **prepare**: the worker increments the parked-waiter count and
//!    reads the current epoch as its ticket;
//! 2. **re-check**: it re-examines every task source (injector, overflow,
//!    every stealer) *after* the prepare — if anything is visible it
//!    cancels and rescans;
//! 3. **commit**: it blocks until the epoch moves past its ticket.
//!
//! A spawner makes its task visible, then (behind a `SeqCst` fence)
//! checks the waiter count and bumps the epoch. The two orders close both
//! races: an unpark *after* a worker's prepare changes the epoch so the
//! commit falls through; an unpark *before* the prepare implies the task
//! was already visible to the worker's re-check. Under an active
//! [`cds_core::stress`] scheduler the commit spins through yield points
//! instead of blocking in the kernel (the harness determinism rule), so
//! the PCT scheduler can interleave park/unpark decisions
//! deterministically.
//!
//! # Termination detection
//!
//! [`Steal::Retry`] is never treated as emptiness (the
//! [`Steal`](cds_queue::Steal) contract): a worker only exits on shutdown
//! after a scan in which every source reported empty and every steal
//! returned `Empty` — a `Retry` means another thread took the element, so
//! the worker rescans.
//!
//! # Example
//!
//! ```
//! use cds_exec::Executor;
//! use cds_atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let pool = Executor::new(2);
//! let hits = Arc::new(AtomicU64::new(0));
//! for _ in 0..100 {
//!     let hits = Arc::clone(&hits);
//!     pool.spawn(move || {
//!         hits.fetch_add(1, Ordering::Relaxed);
//!     });
//! }
//! pool.quiesce();
//! assert_eq!(hits.load(Ordering::Relaxed), 100);
//! assert_eq!(pool.spawned(), pool.executed());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cds_atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::cell::Cell;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;

use cds_core::stress;
use cds_core::ConcurrentQueue;
use cds_obs::Event;
use cds_queue::{BoundedQueue, ChaseLevDeque, MsQueue, Steal, Stealer, Worker};
use cds_reclaim::{Ebr, Reclaimer};
use cds_sync::Backoff;

/// A unit of work: a boxed closure run exactly once on some pool thread.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// Pool geometry and seeding.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Number of worker threads (must be positive).
    pub threads: usize,
    /// Seed of the per-worker victim-selection RNG streams; two pools
    /// with the same seed and thread count probe victims in the same
    /// order, which is what makes scheduled executor runs replayable.
    pub seed: u64,
    /// Capacity of the bounded injector (rounded up to a power of two).
    /// Spawns that find it full overflow into the unbounded queue.
    pub injector_capacity: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            threads: 4,
            seed: 0,
            injector_capacity: 256,
        }
    }
}

/// The eventcount the workers park on — the shared
/// [`cds_sync::Parker`], re-exported so the protocol has one audited
/// home (PR-9 moved it down to `cds-sync`, where `cds-chan` reuses it
/// for blocking channel sends/receives). See the crate docs for the
/// prepare / re-check / commit pairing with `Shared::spawn_task`'s
/// fence, and the `cds_sync` parker docs for the lost-wakeup argument.
///
/// Public so the lincheck suite can model-check the protocol directly
/// (an eventcount spec runs it under both the PCT and the systematic
/// exploration schedulers); executor users never need it.
pub use cds_sync::Parker;

/// Range tasks per pool thread that [`Executor::scoped`] splits a batch
/// into. A few per thread leave stealing room to even out uneven ranges;
/// many more pay again the per-task dispatch cost the split amortizes.
/// With 512-job batches on one worker of a 2-vCPU VM (single 10 s
/// runs), 1 and 4 per thread gave 19.0 and 19.5 M jobs/s, 16 gave 15.1 M
/// and 64 gave 7.5 M.
const SCOPED_RANGES_PER_THREAD: usize = 4;

/// State shared by the pool handle and every worker thread.
struct Shared<R: Reclaimer> {
    injector: BoundedQueue<Task>,
    overflow: MsQueue<Task, R>,
    stealers: Vec<Stealer<Task, R>>,
    parker: Parker,
    spawned: AtomicU64,
    executed: AtomicU64,
    shutdown: AtomicBool,
    seed: u64,
}

impl<R: Reclaimer> Shared<R> {
    /// Submits a task: local deque when called from a worker of this
    /// pool, else the bounded injector, else the overflow queue. Never
    /// blocks.
    fn spawn_task(self: &Arc<Self>, task: Task) {
        self.spawned.fetch_add(1, Ordering::SeqCst);
        cds_obs::count(Event::ExecTasksSpawned);
        stress::yield_point();
        if let Some(slot) = self.local_slot() {
            // SAFETY: the slot is published only while the worker loop
            // (and thus the pointed-to deque owner) is live on this very
            // thread, and cleared before it exits.
            unsafe { (slot.push)(slot.worker, task) };
        } else if let Err(t) = self.injector.try_enqueue(task) {
            cds_obs::count(Event::ExecInjectorOverflow);
            self.overflow.enqueue(t);
        }
        // Pairs with the waiter increment in `Parker::prepare`: the task
        // made visible above is ordered before the waiter-count read
        // inside `unpark_all`.
        fence(Ordering::SeqCst);
        self.parker.unpark_all();
    }

    /// This thread's worker hook, if the calling thread is one of this
    /// pool's workers.
    fn local_slot(self: &Arc<Self>) -> Option<LocalSlot> {
        let pool = Arc::as_ptr(self) as *const () as usize;
        LOCAL.with(Cell::get).filter(|slot| slot.pool == pool)
    }

    /// Whether any task source is visibly non-empty. Used by the park
    /// re-check; all the emptiness reads are racy, which is fine — work
    /// arriving after the prepare is covered by the epoch protocol.
    fn has_visible_work(&self, own_index: usize) -> bool {
        if !self.injector.is_empty() || !self.overflow.is_empty() {
            return true;
        }
        self.stealers
            .iter()
            .enumerate()
            .any(|(i, s)| i != own_index && !s.is_empty())
    }
}

impl<R: Reclaimer> fmt::Debug for Shared<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Shared")
            .field("workers", &self.stealers.len())
            .field("spawned", &self.spawned.load(Ordering::Relaxed))
            .field("executed", &self.executed.load(Ordering::Relaxed))
            .field("reclaimer", &R::NAME)
            .finish()
    }
}

/// The worker-thread hook `spawn` uses to detect "called from inside
/// this pool" and push to the local deque, and `scoped` uses to run the
/// local deque's tasks while it waits. Type-erased so the thread-local
/// does not depend on `R`.
#[derive(Clone, Copy)]
struct LocalSlot {
    /// Identity of the owning pool (`Arc::as_ptr` of its `Shared`).
    pool: usize,
    /// Type-erased `*const Worker<Task, R>` owned by this thread's loop.
    worker: *const (),
    push: unsafe fn(*const (), Task),
    pop: unsafe fn(*const ()) -> Option<Task>,
}

thread_local! {
    static LOCAL: Cell<Option<LocalSlot>> = const { Cell::new(None) };
}

/// # Safety
/// `worker` must point to a live `Worker<Task, R>` owned by the calling
/// thread.
unsafe fn push_local<R: Reclaimer>(worker: *const (), task: Task) {
    // SAFETY: per the caller contract; the worker loop publishes the
    // pointer only for its own thread's lifetime.
    unsafe { (*worker.cast::<Worker<Task, R>>()).push(task) }
}

/// # Safety
/// Same contract as [`push_local`].
unsafe fn pop_local<R: Reclaimer>(worker: *const ()) -> Option<Task> {
    // SAFETY: per the caller contract.
    unsafe { (*worker.cast::<Worker<Task, R>>()).pop() }
}

/// Clears the thread-local spawn hook on scope exit (including panic),
/// before the deque it points into is dropped.
struct LocalGuard;

impl Drop for LocalGuard {
    fn drop(&mut self) {
        LOCAL.with(|l| l.set(None));
    }
}

/// One scan over every task source.
enum ScanOutcome {
    /// Got a task.
    Found(Task),
    /// Nothing obtained, but some steal returned [`Steal::Retry`] — work
    /// may remain, so the worker must rescan before idling or exiting.
    Contended,
    /// Every source empty and every steal returned [`Steal::Empty`].
    Empty,
}

/// One pass over the task sources: local deque, injector, overflow, then
/// every other worker's deque in seeded-random rotation (batch steals).
fn scan<R: Reclaimer>(
    shared: &Shared<R>,
    worker: &Worker<Task, R>,
    index: usize,
    rng: &mut stress::SplitMix64,
) -> ScanOutcome {
    if let Some(task) = worker.pop() {
        return ScanOutcome::Found(task);
    }
    if let Some(task) = shared.injector.try_dequeue() {
        return ScanOutcome::Found(task);
    }
    if let Some(task) = shared.overflow.dequeue() {
        return ScanOutcome::Found(task);
    }
    let n = shared.stealers.len();
    let start = rng.below(n as u64) as usize;
    let mut contended = false;
    for k in 0..n {
        let victim = (start + k) % n;
        if victim == index {
            continue;
        }
        match shared.stealers[victim].steal_batch_and_pop(worker) {
            Steal::Success(task) => {
                cds_obs::count(Event::ExecStealHit);
                return ScanOutcome::Found(task);
            }
            Steal::Retry => contended = true,
            Steal::Empty => {}
        }
    }
    cds_obs::count(Event::ExecStealMiss);
    if contended {
        ScanOutcome::Contended
    } else {
        ScanOutcome::Empty
    }
}

fn run_task<R: Reclaimer>(shared: &Shared<R>, task: Task) {
    // A panicking task must not take its worker thread (and the pool's
    // conservation invariant) down with it; the panic is contained to
    // the task and the completion is still counted.
    let _ = std::panic::catch_unwind(AssertUnwindSafe(task));
    // Telemetry before the completion count: `quiesce` returns as soon as
    // a reader observes the final `executed` increment, and anything
    // sequenced after it (on the worker) may not be visible to a snapshot
    // taken right after quiesce — which would break the spawned ==
    // executed conservation invariant the telemetry otherwise satisfies
    // at every quiescent point.
    cds_obs::count(Event::ExecTasksExecuted);
    shared.executed.fetch_add(1, Ordering::SeqCst);
}

fn worker_loop<R: Reclaimer>(
    shared: Arc<Shared<R>>,
    worker: Worker<Task, R>,
    index: usize,
    start: Arc<Barrier>,
) {
    // Register with a live stress scheduler (inert otherwise) and
    // rendezvous before touching shared state, so schedules depend on
    // the seed rather than on OS thread-start timing.
    let _slot = stress::register(index);
    start.wait();

    LOCAL.with(|l| {
        l.set(Some(LocalSlot {
            pool: Arc::as_ptr(&shared) as *const () as usize,
            worker: std::ptr::addr_of!(worker).cast(),
            push: push_local::<R>,
            pop: pop_local::<R>,
        }))
    });
    let _cleanup = LocalGuard;

    let mut rng =
        stress::SplitMix64::new(stress::mix_seed(shared.seed, 0x5eed_0000 + index as u64));
    let backoff = Backoff::new();
    loop {
        match scan(&shared, &worker, index, &mut rng) {
            ScanOutcome::Found(task) => {
                backoff.reset();
                run_task(&shared, task);
            }
            ScanOutcome::Contended => {
                // Someone else is making progress; never park (and never
                // exit) off a Retry — the Steal termination contract.
                backoff.snooze();
            }
            ScanOutcome::Empty => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !backoff.is_completed() {
                    backoff.snooze();
                    continue;
                }
                // Backoff exhausted: prepare-park, re-check every task
                // source (and the shutdown flag), then commit.
                stress::yield_point();
                let ticket = shared.parker.prepare();
                if shared.shutdown.load(Ordering::SeqCst) || shared.has_visible_work(index) {
                    shared.parker.cancel();
                    backoff.reset();
                    continue;
                }
                cds_obs::count(Event::ExecParks);
                shared.parker.park(ticket);
                backoff.reset();
            }
        }
    }
}

/// A fixed-size work-stealing thread pool; see the crate docs for the
/// architecture and protocols.
///
/// Dropping the pool shuts it down: in-flight tasks (including tasks they
/// spawn) are drained, then the worker threads are joined.
///
/// # Stress scheduling
///
/// Under an installed [`cds_core::stress`] scheduler the workers register
/// as threads `0..threads`, so a test driving the pool should register
/// its own thread at an index `>= threads` and must not run a second
/// registered pool concurrently.
pub struct Executor<R: Reclaimer = Ebr> {
    shared: Arc<Shared<R>>,
    handles: Vec<JoinHandle<()>>,
}

impl Executor<Ebr> {
    /// Creates a pool of `threads` workers on the default ([`Ebr`])
    /// backend.
    pub fn new(threads: usize) -> Self {
        Executor::with_config(ExecConfig {
            threads,
            ..ExecConfig::default()
        })
    }
}

impl<R: Reclaimer> Executor<R> {
    /// Creates a pool on the reclamation backend `R`.
    ///
    /// Construction returns only after every worker has registered (see
    /// the type docs) and passed the start barrier, so a scheduled test
    /// observes a fully-assembled pool.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.threads` is zero.
    pub fn with_config(cfg: ExecConfig) -> Self {
        assert!(cfg.threads > 0, "executor needs at least one worker");
        let mut workers = Vec::with_capacity(cfg.threads);
        let mut stealers = Vec::with_capacity(cfg.threads);
        for _ in 0..cfg.threads {
            let (w, s) = ChaseLevDeque::<Task, R>::with_reclaimer();
            workers.push(w);
            stealers.push(s);
        }
        let shared = Arc::new(Shared {
            injector: BoundedQueue::with_capacity(cfg.injector_capacity.max(1)),
            overflow: MsQueue::with_reclaimer(),
            stealers,
            parker: Parker::new(),
            spawned: AtomicU64::new(0),
            executed: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            seed: cfg.seed,
        });
        let start = Arc::new(Barrier::new(cfg.threads + 1));
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, worker)| {
                let shared = Arc::clone(&shared);
                let start = Arc::clone(&start);
                std::thread::Builder::new()
                    .name(format!("cds-exec-{index}"))
                    .spawn(move || worker_loop(shared, worker, index, start))
                    .expect("spawn executor worker")
            })
            .collect();
        start.wait();
        Executor { shared, handles }
    }

    /// Submits a task. Never blocks: a full injector overflows into the
    /// unbounded queue. Called from inside one of this pool's own tasks,
    /// the task goes to that worker's local (LIFO) deque instead.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.shared.spawn_task(Box::new(f));
    }

    /// A cloneable, `Send` submission handle — what tasks capture to
    /// spawn children (fork/join style).
    pub fn handle(&self) -> Handle<R> {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Scoped fork-join over a [`cds_chan`] channel: runs every job on
    /// the pool and blocks until all results are in, returned in
    /// submission order.
    ///
    /// The batch is known up front, so it is not submitted job by job:
    /// `scoped` splits the `n` jobs into `min(n, 4 × threads())`
    /// contiguous ranges whose lengths differ by at most one, and spawns
    /// one task per range. A range task runs its jobs in index order on
    /// one worker, each under its own `catch_unwind`, and sends all its
    /// results as one `(start, results)` message over a bounded channel
    /// sized to the range count (so sends never block). The caller plays
    /// consumer, gathering one message per range and placing each by its
    /// offset. [`spawned`](Self::spawned) and [`executed`](Self::executed)
    /// grow by the range count, not by `n`.
    ///
    /// Called from inside one of this pool's own tasks, `scoped` does not
    /// park: the ranges land in the calling worker's local deque, so it
    /// runs that deque's tasks between non-blocking receives until every
    /// range has reported.
    ///
    /// # Panics
    ///
    /// If a job panics, the panic is re-raised here once every range has
    /// reported. The worker thread survives, as with
    /// [`spawn`](Self::spawn), and the other jobs of that range still run.
    ///
    /// # Example
    ///
    /// ```
    /// let pool = cds_exec::Executor::new(2);
    /// let squares = pool.scoped((0..8u64).map(|i| move || i * i).collect());
    /// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
    /// assert_eq!(pool.spawned(), 8); // min(8, 4 × 2) range tasks
    /// ```
    pub fn scoped<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let ranges = n.min(SCOPED_RANGES_PER_THREAD * self.threads());
        let results = cds_chan::bounded::<(usize, Vec<Option<T>>)>(ranges.max(1));
        let mut jobs = jobs.into_iter();
        let mut start = 0;
        for r in 0..ranges {
            // The first `n % ranges` ranges take one extra job.
            let len = n / ranges + usize::from(r < n % ranges);
            let range: Vec<F> = jobs.by_ref().take(len).collect();
            let tx = results.clone();
            self.spawn(move || {
                let out = range
                    .into_iter()
                    .map(|job| std::panic::catch_unwind(AssertUnwindSafe(job)).ok())
                    .collect();
                // A closed channel would mean the caller gave up; it
                // never does, but a lost send must not panic the worker.
                let _ = tx.send((start, out));
            });
            start += len;
        }
        let local = self.shared.local_slot();
        let mut parts: Vec<_> = (0..ranges).map(|_| self.gather(&results, local)).collect();
        parts.sort_unstable_by_key(|&(start, _)| start);
        parts
            .into_iter()
            .flat_map(|(_, out)| out)
            .map(|slot| slot.expect("scoped job panicked"))
            .collect()
    }

    /// Receives one `scoped` range message. A caller outside the pool
    /// parks in `recv`. A worker of this pool must not: its ranges may
    /// sit in its own local deque, which only it pops, so it runs local
    /// tasks between non-blocking receives instead.
    fn gather<M: Send + 'static>(
        &self,
        results: &cds_chan::Channel<M>,
        local: Option<LocalSlot>,
    ) -> M {
        let Some(slot) = local else {
            return results.recv().expect("scoped channel closed early");
        };
        let backoff = Backoff::new();
        loop {
            if let Ok(message) = results.try_recv() {
                return message;
            }
            // SAFETY: `local_slot` returned this thread's own hook, and
            // the worker loop that published it is suspended in the task
            // running this call, so its deque outlives the call.
            match unsafe { (slot.pop)(slot.worker) } {
                Some(task) => {
                    backoff.reset();
                    run_task(&self.shared, task);
                }
                None => backoff.snooze(),
            }
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.stealers.len()
    }

    /// Total tasks submitted so far. A [`scoped`](Self::scoped) batch
    /// counts one task per range, not one per job.
    pub fn spawned(&self) -> u64 {
        self.shared.spawned.load(Ordering::SeqCst)
    }

    /// Total tasks that finished executing so far; like
    /// [`spawned`](Self::spawned), one per range of a
    /// [`scoped`](Self::scoped) batch.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::SeqCst)
    }

    /// Waits until every task spawned so far — transitively including
    /// tasks spawned by tasks — has executed (`spawned == executed`,
    /// the conservation invariant). The caller must ensure no *other*
    /// thread keeps spawning concurrently, or quiesce may chase the
    /// moving target indefinitely.
    pub fn quiesce(&self) {
        let backoff = Backoff::new();
        loop {
            // `executed` is read first: it trails `spawned` (a task is
            // counted spawned before it can run), so an equal pair here
            // cannot be a torn in-between state.
            let executed = self.shared.executed.load(Ordering::SeqCst);
            let spawned = self.shared.spawned.load(Ordering::SeqCst);
            if executed == spawned {
                return;
            }
            stress::yield_point();
            backoff.snooze();
        }
    }

    /// Drains all outstanding tasks, stops the workers, and joins them.
    /// Equivalent to dropping the pool, but explicit.
    pub fn shutdown(mut self) {
        self.shutdown_impl();
    }

    fn shutdown_impl(&mut self) {
        if self.handles.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.parker.force_unpark_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<R: Reclaimer> Drop for Executor<R> {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl<R: Reclaimer> fmt::Debug for Executor<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor")
            .field("shared", &self.shared)
            .finish()
    }
}

/// A cloneable submission handle to an [`Executor`]; see
/// [`Executor::handle`].
///
/// Holding a handle does not keep the workers alive — once the pool is
/// shut down, spawned tasks are counted but never run, so handles should
/// not outlive their pool's useful life.
pub struct Handle<R: Reclaimer = Ebr> {
    shared: Arc<Shared<R>>,
}

impl<R: Reclaimer> Handle<R> {
    /// Submits a task; identical semantics to [`Executor::spawn`].
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        self.shared.spawn_task(Box::new(f));
    }
}

impl<R: Reclaimer> Clone for Handle<R> {
    fn clone(&self) -> Self {
        Handle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<R: Reclaimer> fmt::Debug for Handle<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("shared", &self.shared)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cds_atomic::AtomicU64 as Counter;
    use std::time::Duration;

    #[test]
    fn runs_every_task_once() {
        let pool = Executor::new(4);
        let hits = Arc::new(Counter::new(0));
        for _ in 0..1_000 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 1_000);
        assert_eq!(pool.spawned(), 1_000);
        assert_eq!(pool.executed(), 1_000);
        pool.shutdown();
    }

    #[test]
    fn fork_join_from_tasks_conserves() {
        // Each root task forks children from inside the pool (exercising
        // the local-deque spawn path); quiesce waits for the transitive
        // closure.
        let pool = Executor::new(3);
        let hits = Arc::new(Counter::new(0));
        let handle = pool.handle();
        for _ in 0..64 {
            let hits = Arc::clone(&hits);
            let handle = handle.clone();
            pool.spawn(move || {
                for _ in 0..8 {
                    let hits = Arc::clone(&hits);
                    handle.spawn(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 64 * 9);
        assert_eq!(pool.spawned(), 64 * 9);
        assert_eq!(pool.executed(), 64 * 9);
    }

    #[test]
    fn tiny_injector_overflows_without_blocking_or_loss() {
        let pool: Executor = Executor::with_config(ExecConfig {
            threads: 2,
            seed: 7,
            injector_capacity: 2,
        });
        let hits = Arc::new(Counter::new(0));
        // Far more spawns than injector slots: the overflow queue must
        // absorb the excess and the workers must drain both.
        for _ in 0..5_000 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 5_000);
    }

    #[test]
    fn drop_drains_outstanding_tasks() {
        let hits = Arc::new(Counter::new(0));
        {
            let pool = Executor::new(2);
            for _ in 0..500 {
                let hits = Arc::clone(&hits);
                pool.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            // No quiesce: Drop must still run everything before joining.
        }
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn panicking_task_is_contained() {
        let pool = Executor::new(2);
        let hits = Arc::new(Counter::new(0));
        pool.spawn(|| panic!("task panic must not kill the worker"));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.spawn(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(pool.executed(), 101);
    }

    #[test]
    fn runs_on_every_reclamation_backend() {
        fn run<R: Reclaimer>() {
            let pool: Executor<R> = Executor::with_config(ExecConfig {
                threads: 3,
                seed: 1,
                injector_capacity: 8,
            });
            let hits = Arc::new(Counter::new(0));
            let handle = pool.handle();
            for _ in 0..200 {
                let hits = Arc::clone(&hits);
                let handle = handle.clone();
                pool.spawn(move || {
                    let hits2 = Arc::clone(&hits);
                    handle.spawn(move || {
                        hits2.fetch_add(1, Ordering::Relaxed);
                    });
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.quiesce();
            assert_eq!(hits.load(Ordering::Relaxed), 400, "{} backend", R::NAME);
            pool.shutdown();
            R::collect();
        }
        run::<Ebr>();
        run::<cds_reclaim::Hazard>();
        run::<cds_reclaim::Leak>();
        run::<cds_reclaim::DebugReclaim>();
    }

    /// Runs one `scoped` batch of `n` jobs; returns the results and the
    /// number of tasks the call spawned.
    fn scoped_batch(pool: &Executor, n: u64) -> (Vec<u64>, u64) {
        let before = pool.spawned();
        let out = pool.scoped((0..n).map(|i| move || i * 7 + 1).collect());
        (out, pool.spawned() - before)
    }

    /// Runs `f` on a helper thread and fails, rather than hangs, if it
    /// has not returned within `secs` seconds.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let runner = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        // On a timeout the runner stays detached: it is stuck for good.
        let out = rx
            .recv_timeout(Duration::from_secs(secs))
            .expect("scoped panicked or did not return (deadlock)");
        runner.join().expect("runner thread panicked");
        out
    }

    #[test]
    fn scoped_spawns_one_task_per_range() {
        // 3 workers: up to 12 ranges. Covers the empty batch, a single
        // job, fewer jobs than ranges (one job each), an exact multiple,
        // and sizes the range count does not divide.
        let pool = Executor::new(3);
        for (n, ranges) in [
            (0, 0),
            (1, 1),
            (5, 5),
            (12, 12),
            (24, 12),
            (50, 12),
            (1001, 12),
        ] {
            let (out, spawned) = scoped_batch(&pool, n);
            assert_eq!(
                out,
                (0..n).map(|i| i * 7 + 1).collect::<Vec<_>>(),
                "n = {n}"
            );
            assert_eq!(spawned, ranges, "n = {n}");
        }
        pool.quiesce();
        assert_eq!(pool.spawned(), pool.executed());
    }

    #[test]
    fn scoped_runs_each_range_in_order_on_one_worker() {
        // 50 jobs over 12 ranges: two ranges of 5, then ten of 4.
        let pool = Executor::new(3);
        let seq = Arc::new(Counter::new(0));
        let jobs: Vec<_> = (0..50)
            .map(|_| {
                let seq = Arc::clone(&seq);
                move || {
                    (
                        std::thread::current().id(),
                        seq.fetch_add(1, Ordering::SeqCst),
                    )
                }
            })
            .collect();
        let out = pool.scoped(jobs);
        let mut start = 0;
        for len in [5, 5, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4] {
            let range = &out[start..start + len];
            for pair in range.windows(2) {
                assert_eq!(pair[0].0, pair[1].0, "range at {start} changed worker");
                assert!(pair[0].1 < pair[1].1, "range at {start} ran out of order");
            }
            assert_ne!(range[0].0, std::thread::current().id());
            start += len;
        }
        assert_eq!(start, out.len());
    }

    #[test]
    fn scoped_panic_mid_range_still_runs_the_range_and_re_raises() {
        // 1 worker: 4 ranges of 3 jobs; job 4 panics in the middle of
        // the range [3, 6), and job 5 after it must still run.
        let pool = Executor::new(1);
        let ran = Arc::new(Counter::new(0));
        let jobs: Vec<_> = (0..12u64)
            .map(|i| {
                let ran = Arc::clone(&ran);
                move || {
                    assert_ne!(i, 4, "planted job panic");
                    ran.fetch_add(1, Ordering::SeqCst);
                    i
                }
            })
            .collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| pool.scoped(jobs)));
        assert!(caught.is_err(), "scoped swallowed a job panic");
        assert_eq!(ran.load(Ordering::SeqCst), 11);
        // The worker survived and the pool keeps serving.
        assert_eq!(scoped_batch(&pool, 3).0, vec![1, 8, 15]);
        pool.quiesce();
        assert_eq!(pool.spawned(), 4 + 3);
        assert_eq!(pool.spawned(), pool.executed());
    }

    #[test]
    fn scoped_from_inside_a_task_on_one_worker_returns() {
        // The nested call's ranges land in the only worker's own deque;
        // a caller parked in `recv` would wait on itself forever.
        let pool = Arc::new(Executor::new(1));
        let inner = Arc::clone(&pool);
        let (tx, rx) = std::sync::mpsc::channel();
        pool.spawn(move || {
            let _ = tx.send(scoped_batch(&inner, 10).0);
        });
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("nested scoped deadlocked");
        assert_eq!(out, (0..10).map(|i| i * 7 + 1).collect::<Vec<_>>());
        pool.quiesce();
        assert_eq!(pool.spawned(), 1 + 4);
        assert_eq!(pool.spawned(), pool.executed());
    }

    #[test]
    fn scoped_nested_in_scoped_returns_with_stealing() {
        // Every outer job, on either of two workers, runs its own batch:
        // a waiting worker helps with its own deque while the other one
        // may steal its ranges.
        let pool = Arc::new(Executor::new(2));
        let outer = Arc::clone(&pool);
        let sums = within(30, move || {
            let jobs: Vec<_> = (0..16u64)
                .map(|k| {
                    let pool = Arc::clone(&outer);
                    move || scoped_batch(&pool, 20 + k).0.iter().sum::<u64>()
                })
                .collect();
            outer.scoped(jobs)
        });
        let expect: Vec<u64> = (0..16u64)
            .map(|k| (0..20 + k).map(|i| i * 7 + 1).sum())
            .collect();
        assert_eq!(sums, expect);
        pool.quiesce();
        assert_eq!(pool.spawned(), pool.executed());
    }

    #[test]
    fn spawn_from_foreign_pool_goes_to_injector() {
        // A task on pool A spawning into pool B must not touch A's local
        // deque hook (different pool identity).
        let a = Executor::new(2);
        let b = Executor::new(2);
        let hits = Arc::new(Counter::new(0));
        let bh = b.handle();
        let hits2 = Arc::clone(&hits);
        a.spawn(move || {
            bh.spawn(move || {
                hits2.fetch_add(1, Ordering::Relaxed);
            });
        });
        a.quiesce();
        b.quiesce();
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(b.executed(), 1);
    }
}
