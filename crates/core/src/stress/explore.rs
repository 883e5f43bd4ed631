//! Bounded-exhaustive systematic exploration ("model-checking mode") for
//! the stress scheduler.
//!
//! Where the PCT scheduler ([module docs](super)) *samples* schedules from
//! a seeded distribution, this module *enumerates* them: it serializes the
//! worker threads so that exactly one runs between consecutive yield
//! points, records every scheduling decision, and drives a depth-first
//! search over all such decision sequences. For the small operation
//! windows lincheck specs use (2–3 threads × 3–5 ops), the search
//! typically finishes in well under a second and the verdict is a proof
//! over *all* inequivalent interleavings at yield-point granularity — not
//! a lucky sample.
//!
//! # Pruning: sleep sets over tagged independence
//!
//! Exhaustive enumeration is exponential in schedule length, so the
//! explorer prunes with *sleep sets* (Godefroid), the classic
//! partial-order-reduction device: after fully exploring child `t` of a
//! node, `t` is put to sleep for the node's remaining children and stays
//! asleep down a branch until a step *dependent* on `t` executes. A branch
//! whose every enabled thread is asleep is redundant — some already
//! explored branch reaches the same state — and is abandoned early.
//!
//! The independence relation comes from the [`YieldTag`]s instrumented
//! code attaches to its yield points: two steps commute iff both are
//! tagged, with different addresses or neither writing. Untagged steps
//! ([`YieldTag::None`]) are conservatively dependent on everything, so a
//! structure with no tags at all degrades to plain exhaustive DFS —
//! pruning is an optimization, never a soundness assumption. This is
//! deliberately simpler than vector-clock DPOR (Flanagan & Godefroid):
//! sleep sets alone never skip a Mazurkiewicz trace, they only avoid
//! *some* equivalent reorderings, which is the right trade for windows
//! this small.
//!
//! Checking one representative schedule per trace is sound for
//! linearizability because the histories the harness checks are built
//! from invocation/response events that always follow untagged (hence
//! never-commuted) driver yields: equivalent schedules produce histories
//! with identical precedence constraints.
//!
//! # Blocked threads and livelock bounds
//!
//! A thread pausing with [`YieldTag::Blocked`] declares its next step a
//! pure recheck: re-running it before any other thread moves would change
//! nothing and land back at the same yield point. The explorer therefore
//! *disables* such a thread until any other thread completes a step —
//! sound, because the skipped stutter steps do not alter shared state and
//! schedules containing them are equivalent to ones without. Two bounds
//! make every search terminate even on livelocking or deadlocking
//! targets: a per-execution step budget ([`ExploreBounds::max_steps`])
//! and a cap on consecutive forced wakes of all-blocked thread sets; both
//! abort the execution as [`Outcome::Stuck`].
//!
//! # Mechanics
//!
//! [`Explorer::begin`] installs the explore scheduler (sharing the
//! process-wide run lock, [`register`](super::register), and yield-point
//! plumbing with the PCT mode). Worker threads pause at every yield
//! point; when all are paused or finished, the deepest paused thread
//! permitted by the current DFS *plan* is granted one step. Aborts
//! (redundant branch, budget exhausted) unwind the workers with a
//! dedicated panic payload ([`ExploreAbort`]) that the harness catches
//! and a process-wide panic hook mutes. [`Explorer::finish`] harvests the
//! decision log, grows the DFS tree, and [`Explorer::advance`] moves to
//! the next unexplored branch. The decision sequence of a failing
//! execution — just the chosen thread per step — is a *schedule* that
//! [`begin_replay`] re-executes verbatim, which is what the lincheck
//! trace format v2 stores.

use cds_atomic::raw::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, Once};

use super::weak::WeakState;
use super::{YieldTag, ACTIVE, MAX_THREADS, RUN_LOCK};

/// `GRANT` value meaning "no thread may step".
const IDLE: usize = usize::MAX;
/// `GRANT` value meaning "execution aborted; unwind at the next yield".
const ABORTED: usize = usize::MAX - 1;
/// Consecutive forced wakes of an all-blocked thread set before the
/// execution is declared stuck (each requires a full quiescent spin of
/// pure rechecks, so genuine progress resets the counter quickly).
const FORCED_WAKE_BOUND: u32 = 128;

/// Search bounds for one exploration.
#[derive(Debug, Clone)]
pub struct ExploreBounds {
    /// Maximum scheduling decisions per execution before it is declared
    /// [`Outcome::Stuck`] (livelock/deadlock backstop). A window of `t`
    /// threads × `k` ops needs roughly `t·k` times the per-op yield
    /// count, so the default is generous for lincheck-sized windows.
    pub max_steps: u64,
    /// Enables the weak-memory execution layer: every instrumented
    /// atomic operation becomes a tagged step, and loads branch over
    /// the C11-permitted read-from candidates (see
    /// [`super::weak`](super::weak) module docs). Only meaningful for
    /// targets whose synchronization goes entirely through
    /// `cds-atomic`. That includes the lock-based structures: their
    /// `cds_sync::Mutex` is a TTAS lock on a facade atomic, so the
    /// model sees its acquire and release edges.
    pub weak_memory: bool,
    /// With `weak_memory`: a load may read one of at most this many of
    /// the newest stores to its location (the staleness search bound).
    pub weak_window: usize,
    /// With `weak_memory`: loom-style publication/race checking of
    /// non-atomic node payloads (`cds-reclaim` region hooks). A
    /// detected race panics the worker deterministically instead of
    /// producing a linearizability verdict.
    pub detect_races: bool,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            max_steps: 4096,
            weak_memory: false,
            weak_window: 4,
            detect_races: false,
        }
    }
}

/// One recorded scheduling decision of an execution.
#[derive(Debug, Clone, Copy)]
struct Decision {
    /// Thread granted the step.
    chosen: usize,
    /// Mask of threads that could have been chosen (paused, not
    /// disabled-blocked).
    enabled: u64,
    /// Sleep set inherited at this decision point.
    sleep: u64,
}

/// One forced step of a DFS plan (the path from the root to the branch
/// being explored).
#[derive(Debug, Clone, Copy)]
struct PlanStep {
    chosen: usize,
    /// Siblings already fully explored at this node; they join the sleep
    /// set for this branch per the sleep-set discipline.
    extra_sleep: u64,
}

/// One entry of an execution's interleaved decision log: scheduling
/// choices and (in weak-memory mode) read-from choices, in program
/// order. The DFS tree is grown from this log, so value branching
/// nests correctly inside schedule branching.
#[derive(Debug, Clone, Copy)]
enum LogEntry {
    Thread(Decision),
    /// A load with more than one read-from candidate chose
    /// `chosen` (offset into the candidate suffix; `count - 1` is the
    /// latest store). Single-candidate loads are not logged.
    Read {
        chosen: usize,
    },
}

/// Why an execution stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbortKind {
    /// Every enabled thread was asleep: an equivalent branch was already
    /// explored.
    Redundant,
    /// Step budget or forced-wake bound exhausted.
    Stuck,
    /// A forced plan step named a thread that is not enabled — the
    /// target behaved differently than when the plan was recorded.
    Diverged,
}

/// Result of one explored execution, as classified by
/// [`Explorer::finish`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The execution ran to completion; its history is meaningful and
    /// counts as one explored schedule.
    Complete,
    /// Pruned by the sleep-set discipline; equivalent to an already
    /// explored schedule. The (partial) history must be discarded.
    Redundant,
    /// Aborted by the step budget or the forced-wake bound — the target
    /// livelocked or deadlocked under this schedule.
    Stuck,
    /// A replayed plan diverged from the recorded behaviour; the target
    /// is nondeterministic beyond schedule choice (or the trace is stale).
    Diverged,
}

/// Panic payload used to unwind worker threads out of an aborted
/// execution. The harness catches it with `catch_unwind`; the panic hook
/// installed by [`Explorer::begin`] keeps it off stderr.
#[derive(Debug)]
pub struct ExploreAbort;

fn abort_panic() -> ! {
    std::panic::panic_any(ExploreAbort);
}

/// Whether the explore scheduler (not PCT) owns the current stress round.
static EXPLORING: AtomicBool = AtomicBool::new(false);
/// Slot currently granted a step, or [`IDLE`] / [`ABORTED`]. Paused
/// workers spin on this instead of the state mutex.
static GRANT: AtomicUsize = AtomicUsize::new(IDLE);
static EXP: Mutex<Option<ExpState>> = Mutex::new(None);
static HOOK: Once = Once::new();

fn exp_lock() -> MutexGuard<'static, Option<ExpState>> {
    EXP.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// Installs a forwarding panic hook that mutes [`ExploreAbort`] unwinds
/// (they are control flow, not failures) and defers everything else to
/// the previously installed hook.
fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<ExploreAbort>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Live state of one explored execution.
struct ExpState {
    threads: usize,
    plan: Vec<PlanStep>,
    /// Forced read-from choices, consumed in order by loads with more
    /// than one candidate. Deterministic execution keeps the two plan
    /// queues aligned without recording their interleaving.
    plan_reads: Vec<usize>,
    rcursor: usize,
    /// Replay mode: never prune as redundant, ignore sleep sets beyond
    /// the plan.
    replay_only: bool,
    max_steps: u64,
    /// Bitmasks over worker slots.
    registered: u64,
    paused: u64,
    finished: u64,
    /// Blocked threads that have not seen another thread step since
    /// pausing; at most the most recent pauser, by construction.
    disabled: u64,
    running: Option<usize>,
    tags: [YieldTag; MAX_THREADS],
    sleep: u64,
    decisions: Vec<Decision>,
    /// Interleaved log of thread and read-from decisions (see
    /// [`LogEntry`]); `decisions` is its thread-only projection, kept
    /// separately because the thread-plan cursor indexes it.
    log: Vec<LogEntry>,
    /// Weak-memory machine, present iff
    /// [`ExploreBounds::weak_memory`].
    weak: Option<WeakState>,
    steps: u64,
    forced_wakes: u32,
    abort: Option<AbortKind>,
}

/// Two steps commute iff both are tagged and they cannot conflict:
/// different locations, or the same location with neither writing.
/// [`YieldTag::Blocked`] counts as a read of its location.
fn independent(a: YieldTag, b: YieldTag) -> bool {
    fn access(t: YieldTag) -> Option<(usize, bool)> {
        match t {
            YieldTag::None => None,
            YieldTag::Read(a) | YieldTag::Blocked(a) => Some((a, false)),
            YieldTag::Write(a) => Some((a, true)),
        }
    }
    match (access(a), access(b)) {
        (Some((aa, aw)), Some((ba, bw))) => aa != ba || (!aw && !bw),
        _ => false,
    }
}

impl ExpState {
    fn new(
        threads: usize,
        plan: Vec<PlanStep>,
        plan_reads: Vec<usize>,
        replay_only: bool,
        bounds: &ExploreBounds,
    ) -> Self {
        ExpState {
            threads,
            plan,
            plan_reads,
            rcursor: 0,
            replay_only,
            max_steps: bounds.max_steps,
            registered: 0,
            paused: 0,
            finished: 0,
            disabled: 0,
            running: None,
            tags: [YieldTag::None; MAX_THREADS],
            sleep: 0,
            decisions: Vec::new(),
            log: Vec::new(),
            weak: bounds
                .weak_memory
                .then(|| WeakState::new(threads, bounds.weak_window, bounds.detect_races)),
            steps: 0,
            forced_wakes: 0,
            abort: None,
        }
    }

    fn full_mask(&self) -> u64 {
        if self.threads == 64 {
            u64::MAX
        } else {
            (1u64 << self.threads) - 1
        }
    }

    fn trigger_abort(&mut self, kind: AbortKind) {
        self.abort = Some(kind);
        GRANT.store(ABORTED, Ordering::Release);
    }

    /// Grants one thread a step if the execution is quiescent: every
    /// expected worker registered and now paused or finished, none
    /// running. Called after every pause and finish.
    fn maybe_dispatch(&mut self) {
        if self.abort.is_some() || self.running.is_some() {
            return;
        }
        let full = self.full_mask();
        if self.registered != full {
            return;
        }
        if (self.paused | self.finished) != full || self.finished == full {
            return;
        }
        let mut enabled = self.paused & !self.disabled;
        if enabled == 0 {
            // Everyone left is blocked with nothing moved since: force a
            // recheck round, bounded so a real deadlock still terminates.
            self.forced_wakes += 1;
            if self.forced_wakes > FORCED_WAKE_BOUND {
                return self.trigger_abort(AbortKind::Stuck);
            }
            self.disabled = 0;
            enabled = self.paused;
        }
        let idx = self.decisions.len();
        let (chosen, extra_sleep) = if idx < self.plan.len() {
            let p = self.plan[idx];
            if enabled & (1u64 << p.chosen) == 0 {
                return self.trigger_abort(AbortKind::Diverged);
            }
            (p.chosen, p.extra_sleep)
        } else {
            let cands = enabled & !self.sleep;
            if cands == 0 {
                if self.replay_only {
                    (enabled.trailing_zeros() as usize, 0)
                } else {
                    return self.trigger_abort(AbortKind::Redundant);
                }
            } else {
                (cands.trailing_zeros() as usize, 0)
            }
        };
        let decision = Decision {
            chosen,
            enabled,
            sleep: self.sleep,
        };
        self.decisions.push(decision);
        self.log.push(LogEntry::Thread(decision));
        // Sleep-set propagation: already-explored siblings (and inherited
        // sleepers) stay asleep down this branch only while independent
        // of the step just granted.
        let inherited = (self.sleep | extra_sleep) & self.paused & !(1u64 << chosen);
        let mut new_sleep = 0u64;
        let mut bits = inherited;
        while bits != 0 {
            let u = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if independent(self.tags[u], self.tags[chosen]) {
                new_sleep |= 1u64 << u;
            }
        }
        self.sleep = new_sleep;
        self.steps += 1;
        if self.steps > self.max_steps {
            return self.trigger_abort(AbortKind::Stuck);
        }
        self.paused &= !(1u64 << chosen);
        self.running = Some(chosen);
        GRANT.store(chosen, Ordering::Release);
    }

    /// Resolves one read-from choice: consumes the read plan, else
    /// defaults to the latest store (so the first execution of every
    /// branch behaves sequentially consistently) and logs the branch
    /// point for the DFS. `None` means the plan diverged and the abort
    /// was triggered.
    fn choose_read(&mut self, count: usize) -> Option<usize> {
        if count <= 1 {
            return Some(0);
        }
        let chosen = if self.rcursor < self.plan_reads.len() {
            let c = self.plan_reads[self.rcursor];
            self.rcursor += 1;
            if c >= count {
                self.trigger_abort(AbortKind::Diverged);
                return None;
            }
            c
        } else {
            count - 1
        };
        self.log.push(LogEntry::Read { chosen });
        Some(chosen)
    }

    /// Weak-memory load: computes the candidate set, branches, and
    /// returns the observed value. `None` means the execution aborted.
    fn weak_load(
        &mut self,
        slot: usize,
        addr: usize,
        order: Ordering,
        current: u64,
    ) -> Option<u64> {
        let weak = self.weak.as_mut().expect("weak_load without weak state");
        let count = weak.load_candidates(slot, addr, order, current);
        let chosen = self.choose_read(count)?;
        let weak = self.weak.as_mut().expect("weak state vanished");
        Some(weak.load_commit(slot, addr, order, count, chosen))
    }
}

/// Whether the explore scheduler owns the active stress round.
#[inline]
pub(super) fn mode_active() -> bool {
    EXPLORING.load(Ordering::Acquire)
}

/// Registers `index` with the explore round, if one is installed.
/// Returns `false` when no explore round is active (PCT registration
/// should proceed instead).
pub(super) fn register(index: usize) -> bool {
    if !mode_active() {
        return false;
    }
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else {
        return false;
    };
    assert!(
        index < st.threads,
        "worker index {index} out of range for explore round of {} threads",
        st.threads
    );
    let bit = 1u64 << index;
    assert!(
        st.registered & bit == 0,
        "worker index {index} registered twice"
    );
    st.registered |= bit;
    true
}

/// Removes a finished worker from the explore round. Returns `true` when
/// the explore round handled the deregistration. Must never panic: it
/// runs from `Drop` during abort unwinds.
pub(super) fn deregister(slot: usize) -> bool {
    if !mode_active() {
        return false;
    }
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else {
        return true;
    };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 {
        return true;
    }
    if st.running == Some(slot) {
        st.running = None;
        st.steps += 1;
        if GRANT.load(Ordering::Acquire) == slot {
            GRANT.store(IDLE, Ordering::Release);
        }
    }
    st.paused &= !bit;
    st.finished |= bit;
    st.sleep &= !bit;
    st.disabled = 0;
    st.forced_wakes = 0;
    st.maybe_dispatch();
    true
}

/// The explore-mode yield point: pause, hand the scheduler the access
/// tag for the next step, and wait to be granted that step. Panics with
/// [`ExploreAbort`] when the execution is aborted.
///
/// A thread that is already unwinding passes straight through: the
/// destructors of an aborted execution (a lock guard's release store,
/// say) run unscheduled, since pausing them could only panic a second
/// time and abort the process.
pub(super) fn on_yield(slot: usize, tag: YieldTag) {
    if std::thread::panicking() {
        return;
    }
    {
        let mut guard = exp_lock();
        let Some(st) = guard.as_mut() else { return };
        if st.abort.is_some() {
            drop(guard);
            abort_panic();
        }
        let bit = 1u64 << slot;
        if st.registered & bit == 0 || st.finished & bit != 0 {
            return;
        }
        if st.running == Some(slot) {
            st.running = None;
            if GRANT.load(Ordering::Acquire) == slot {
                GRANT.store(IDLE, Ordering::Release);
            }
        }
        st.paused |= bit;
        st.tags[slot] = tag;
        // This thread just completed a step (or arrived), so every other
        // blocked thread's "nothing has moved" premise is void; its own
        // sticks only if this pause itself declares a pure recheck.
        if matches!(tag, YieldTag::Blocked(_)) {
            st.disabled = bit;
        } else {
            st.disabled = 0;
            st.forced_wakes = 0;
        }
        st.maybe_dispatch();
        if st.abort.is_some() {
            drop(guard);
            abort_panic();
        }
    }
    loop {
        match GRANT.load(Ordering::Acquire) {
            g if g == slot => return,
            ABORTED => abort_panic(),
            _ => std::thread::yield_now(),
        }
    }
}

/// Fast-path gate for the atomic hooks: true only while an installed
/// explore round carries a weak-memory machine. Keeps instrumented
/// atomics inert (no extra yields, no value rewrites) for PCT rounds
/// and for non-weak explore windows, so their schedules and baseline
/// counts are untouched by the instrumentation.
static WEAK_ON: AtomicBool = AtomicBool::new(false);

/// Hook table handed to `cds-atomic` (once per process; the gate above
/// keeps it inert between weak windows).
static ATOMIC_HOOKS: cds_atomic::stress::AtomicHooks = cds_atomic::stress::AtomicHooks {
    pre: atomic_pre,
    load: atomic_load,
    store: atomic_store,
    rmw: atomic_rmw,
    fence: atomic_fence,
    publish: atomic_publish,
    check: atomic_check,
};

/// The registered slot of the calling thread, when a weak window is
/// active. `None` short-circuits every hook for unregistered threads
/// (the driver doing setup/teardown runs at real-memory semantics,
/// which is correct: real memory always holds the latest value) and for
/// threads unwinding out of an aborted execution, whose destructor steps
/// go unmodelled like their unscheduled yields (see [`on_yield`]).
#[inline]
fn weak_slot() -> Option<usize> {
    if !WEAK_ON.load(Ordering::Acquire) || std::thread::panicking() {
        return None;
    }
    super::current_slot()
}

fn atomic_pre(addr: usize, is_write: bool, _order: cds_atomic::Ordering) {
    if weak_slot().is_none() {
        return;
    }
    let tag = if addr == 0 {
        // Fences have no location; conservatively dependent on all.
        YieldTag::None
    } else if is_write {
        YieldTag::Write(addr)
    } else {
        YieldTag::Read(addr)
    };
    super::yield_point_tagged(tag);
}

fn atomic_load(addr: usize, order: cds_atomic::Ordering, current: u64) -> u64 {
    let Some(slot) = weak_slot() else {
        return current;
    };
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else {
        return current;
    };
    let bit = 1u64 << slot;
    if st.weak.is_none() || st.registered & bit == 0 || st.finished & bit != 0 {
        return current;
    }
    match st.weak_load(slot, addr, order, current) {
        Some(v) => v,
        None => {
            drop(guard);
            abort_panic()
        }
    }
}

fn atomic_store(addr: usize, order: cds_atomic::Ordering, prev: u64, new: u64) {
    let Some(slot) = weak_slot() else { return };
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 || st.finished & bit != 0 {
        return;
    }
    if let Some(w) = st.weak.as_mut() {
        w.store(slot, addr, order, prev, new);
    }
}

fn atomic_rmw(addr: usize, order: cds_atomic::Ordering, prev: u64, new: Option<u64>) {
    let Some(slot) = weak_slot() else { return };
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 || st.finished & bit != 0 {
        return;
    }
    if let Some(w) = st.weak.as_mut() {
        w.rmw(slot, addr, order, prev, new);
    }
}

fn atomic_fence(order: cds_atomic::Ordering) {
    let Some(slot) = weak_slot() else { return };
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 || st.finished & bit != 0 {
        return;
    }
    if let Some(w) = st.weak.as_mut() {
        w.fence(slot, order);
    }
}

fn atomic_publish(base: usize, len: usize) {
    if !WEAK_ON.load(Ordering::Acquire) {
        return;
    }
    let slot = super::current_slot();
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let writer =
        slot.filter(|&s| st.registered & (1u64 << s) != 0 && st.finished & (1u64 << s) == 0);
    if let Some(w) = st.weak.as_mut() {
        w.publish(writer, base, len);
    }
}

fn atomic_check(addr: usize, len: usize) {
    let Some(slot) = weak_slot() else { return };
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 || st.finished & bit != 0 {
        return;
    }
    let Some(w) = st.weak.as_ref() else { return };
    if let Err(race) = w.check(slot, addr, len) {
        drop(guard);
        // Deterministic message (no raw addresses, which ASLR would
        // perturb): replays of the same trace panic byte-identically.
        panic!(
            "weak-memory race: thread {} dereferenced a region published by thread {} \
             (event {}) without synchronizing with its release",
            race.accessor, race.writer, race.stamp
        );
    }
}

/// Real-time completion edge for weak windows: the harness calls this
/// (via [`super::op_boundary`]) on the worker thread between its
/// consecutive operations. No-op outside weak windows.
pub(super) fn op_boundary(slot: usize) {
    if !WEAK_ON.load(Ordering::Acquire) {
        return;
    }
    let mut guard = exp_lock();
    let Some(st) = guard.as_mut() else { return };
    let bit = 1u64 << slot;
    if st.registered & bit == 0 {
        return;
    }
    if let Some(w) = st.weak.as_mut() {
        w.op_boundary(slot);
    }
}

/// An installed explore round; uninstalls on drop. Returned by
/// [`Explorer::begin`] / [`begin_replay`] and consumed by
/// [`Explorer::finish`] / [`finish_replay`] after the workers joined.
pub struct ExploreRun {
    _exclusive: MutexGuard<'static, ()>,
}

impl std::fmt::Debug for ExploreRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExploreRun").finish_non_exhaustive()
    }
}

impl Drop for ExploreRun {
    fn drop(&mut self) {
        WEAK_ON.store(false, Ordering::Release);
        ACTIVE.store(false, Ordering::Release);
        EXPLORING.store(false, Ordering::Release);
        *exp_lock() = None;
        GRANT.store(IDLE, Ordering::Release);
    }
}

fn install_run(state: ExpState) -> ExploreRun {
    install_quiet_hook();
    let exclusive = RUN_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    // Route `cds-sync` backoff yields into the tagged entry point, same
    // as a PCT install — and answer the `cds_sync::Parker`'s "is a
    // schedule driving?" question, so parked threads spin through
    // explorable yield points instead of a native condvar the driver
    // could never preempt.
    cds_sync::stress::set_yield_hook(super::yield_point_tagged);
    cds_sync::stress::set_active_hook(super::is_active);
    // Same inversion one layer lower: `cds-atomic` reaches the weak
    // machine through its hook table. Registered once; the WEAK_ON
    // gate keeps the hooks inert outside weak windows.
    cds_atomic::stress::set_hooks(&ATOMIC_HOOKS);
    WEAK_ON.store(state.weak.is_some(), Ordering::Release);
    *exp_lock() = Some(state);
    GRANT.store(IDLE, Ordering::Release);
    EXPLORING.store(true, Ordering::Release);
    ACTIVE.store(true, Ordering::Release);
    ExploreRun {
        _exclusive: exclusive,
    }
}

fn harvest(run: ExploreRun) -> ExpState {
    let state = exp_lock().take().expect("explore state missing at finish");
    drop(run);
    state
}

/// A node of the DFS tree, one per decision along the current path:
/// either a scheduling choice or (weak mode) a read-from choice.
#[derive(Debug, Clone, Copy)]
enum Node {
    Thread {
        /// Threads choosable at this node when it was first reached.
        enabled: u64,
        /// Sleep set inherited at this node.
        sleep: u64,
        /// Child currently (or last) being explored.
        chosen: usize,
        /// Children explored so far, including `chosen`.
        done: u64,
    },
    Read {
        /// Current read-from choice. Children are explored from the
        /// latest store (`count - 1`, the SC-like default the first
        /// execution took) down to the stalest (`0`), so the choice
        /// doubles as the remaining-work counter.
        chosen: usize,
    },
}

/// Depth-first enumerator of thread schedules with sleep-set pruning.
///
/// Drive it in a loop: [`begin`](Explorer::begin), run the worker window
/// to completion, [`finish`](Explorer::finish), inspect the outcome, and
/// [`advance`](Explorer::advance) until it returns `false` (search space
/// exhausted). See `cds_lincheck::explore` for the packaged harness.
pub struct Explorer {
    threads: usize,
    bounds: ExploreBounds,
    stack: Vec<Node>,
    plan: Vec<PlanStep>,
    plan_reads: Vec<usize>,
    /// Interleaved decision log of the most recent execution.
    last: Vec<LogEntry>,
    /// Total planned decisions (thread + read) of the current branch.
    plan_len: usize,
    schedules: u64,
    redundant: u64,
    stuck: u64,
    executions: u64,
    exhausted: bool,
}

impl std::fmt::Debug for Explorer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Explorer")
            .field("threads", &self.threads)
            .field("depth", &self.stack.len())
            .field("schedules", &self.schedules)
            .field("redundant", &self.redundant)
            .field("stuck", &self.stuck)
            .field("executions", &self.executions)
            .field("exhausted", &self.exhausted)
            .finish()
    }
}

impl Explorer {
    /// Creates an explorer for windows of `threads` worker threads
    /// (registered as slots `0..threads`).
    pub fn new(threads: usize, bounds: ExploreBounds) -> Self {
        assert!(
            (1..=MAX_THREADS).contains(&threads),
            "explore thread count {threads} out of range"
        );
        Explorer {
            threads,
            bounds,
            stack: Vec::new(),
            plan: Vec::new(),
            plan_reads: Vec::new(),
            last: Vec::new(),
            plan_len: 0,
            schedules: 0,
            redundant: 0,
            stuck: 0,
            executions: 0,
            exhausted: false,
        }
    }

    /// Installs the explore scheduler for the next execution of the
    /// window. Workers must [`register`](super::register) slots
    /// `0..threads` and hit yield points as usual.
    pub fn begin(&mut self) -> ExploreRun {
        assert!(!self.exhausted, "explorer already exhausted");
        self.plan_len = self.plan.len() + self.plan_reads.len();
        install_run(ExpState::new(
            self.threads,
            self.plan.clone(),
            self.plan_reads.clone(),
            false,
            &self.bounds,
        ))
    }

    /// Harvests the execution started by the matching
    /// [`begin`](Explorer::begin) (after all workers joined), growing the
    /// DFS tree with the fresh decisions.
    pub fn finish(&mut self, run: ExploreRun) -> Outcome {
        let st = harvest(run);
        self.executions += 1;
        for e in &st.log[self.plan_len.min(st.log.len())..] {
            self.stack.push(match *e {
                LogEntry::Thread(d) => Node::Thread {
                    enabled: d.enabled,
                    sleep: d.sleep,
                    chosen: d.chosen,
                    done: 1u64 << d.chosen,
                },
                LogEntry::Read { chosen } => Node::Read { chosen },
            });
        }
        self.last = st.log;
        match st.abort {
            None => {
                self.schedules += 1;
                Outcome::Complete
            }
            Some(AbortKind::Redundant) => {
                self.redundant += 1;
                Outcome::Redundant
            }
            Some(AbortKind::Stuck) => {
                self.stuck += 1;
                Outcome::Stuck
            }
            Some(AbortKind::Diverged) => Outcome::Diverged,
        }
    }

    /// Backtracks to the deepest node with an unexplored, non-slept
    /// child and re-plans. Returns `false` when the whole bounded space
    /// has been covered.
    pub fn advance(&mut self) -> bool {
        while let Some(top) = self.stack.last_mut() {
            match top {
                Node::Thread {
                    enabled,
                    sleep,
                    chosen,
                    done,
                } => {
                    let cands = *enabled & !*sleep & !*done;
                    if cands != 0 {
                        let c = cands.trailing_zeros() as usize;
                        *done |= 1u64 << c;
                        *chosen = c;
                        self.replan();
                        return true;
                    }
                }
                Node::Read { chosen } => {
                    // First execution chose the latest store
                    // (`count - 1`); walk down toward the stalest.
                    if *chosen > 0 {
                        *chosen -= 1;
                        self.replan();
                        return true;
                    }
                }
            }
            self.stack.pop();
        }
        self.exhausted = true;
        false
    }

    /// Rebuilds the two plan queues from the DFS stack.
    fn replan(&mut self) {
        self.plan.clear();
        self.plan_reads.clear();
        for n in &self.stack {
            match *n {
                Node::Thread { chosen, done, .. } => self.plan.push(PlanStep {
                    chosen,
                    extra_sleep: done & !(1u64 << chosen),
                }),
                Node::Read { chosen } => self.plan_reads.push(chosen),
            }
        }
    }

    /// Thread choices of the most recent execution, in order — the
    /// schedule a trace stores and [`begin_replay`] re-executes.
    pub fn last_schedule(&self) -> Vec<usize> {
        self.last
            .iter()
            .filter_map(|e| match e {
                LogEntry::Thread(d) => Some(d.chosen),
                LogEntry::Read { .. } => None,
            })
            .collect()
    }

    /// Read-from choices of the most recent execution, in order — what
    /// trace format v3 stores alongside the schedule (one entry per
    /// load that had more than one candidate).
    pub fn last_reads(&self) -> Vec<usize> {
        self.last
            .iter()
            .filter_map(|e| match e {
                LogEntry::Read { chosen } => Some(*chosen),
                LogEntry::Thread(_) => None,
            })
            .collect()
    }

    /// Completed (non-redundant, non-stuck) schedules explored so far.
    pub fn schedules(&self) -> u64 {
        self.schedules
    }

    /// Branches pruned by the sleep-set discipline.
    pub fn redundant(&self) -> u64 {
        self.redundant
    }

    /// Executions aborted by the step or forced-wake bounds.
    pub fn stuck(&self) -> u64 {
        self.stuck
    }

    /// Total executions attempted (complete + redundant + stuck).
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Whether the bounded search space has been fully covered.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }
}

/// Installs the explore scheduler in replay mode: the recorded
/// `schedule` (thread choice per step) and `reads` (read-from choice
/// per multi-candidate load; empty outside weak mode) are forced
/// verbatim, with no pruning. Use with the same worker window that
/// produced them.
pub fn begin_replay(
    threads: usize,
    schedule: &[usize],
    reads: &[usize],
    bounds: &ExploreBounds,
) -> ExploreRun {
    assert!(
        (1..=MAX_THREADS).contains(&threads),
        "explore thread count {threads} out of range"
    );
    let plan = schedule
        .iter()
        .map(|&chosen| {
            assert!(chosen < threads, "schedule step names thread {chosen}");
            PlanStep {
                chosen,
                extra_sleep: 0,
            }
        })
        .collect();
    install_run(ExpState::new(threads, plan, reads.to_vec(), true, bounds))
}

/// Harvests a replay started by [`begin_replay`]. `Ok` carries the
/// executed schedule (equal to the recorded one, possibly extended where
/// the window kept running past it); `Err` reports an abort.
pub fn finish_replay(run: ExploreRun) -> Result<Vec<usize>, ReplayError> {
    let st = harvest(run);
    let schedule = st.decisions.iter().map(|d| d.chosen).collect();
    match st.abort {
        None => Ok(schedule),
        Some(AbortKind::Diverged) => Err(ReplayError::Diverged),
        Some(_) => Err(ReplayError::Stuck),
    }
}

/// Failure replaying a recorded schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The schedule named a thread that was not enabled at that step —
    /// the trace does not match this window (stale or corrupted).
    Diverged,
    /// The replay hit the step or forced-wake bound.
    Stuck,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Diverged => write!(f, "schedule diverged from recorded behaviour"),
            ReplayError::Stuck => write!(f, "replay exceeded exploration bounds"),
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one execution of a window where every worker executes `f`.
    fn run_window(explorer: &mut Explorer, f: impl Fn(usize) + Sync) -> Outcome {
        let run = explorer.begin();
        let start = std::sync::Barrier::new(explorer.threads);
        std::thread::scope(|s| {
            for t in 0..explorer.threads {
                let f = &f;
                let start = &start;
                s.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _slot = crate::stress::register(t);
                        start.wait();
                        f(t);
                    }));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<ExploreAbort>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });
        explorer.finish(run)
    }

    #[test]
    fn two_thread_two_step_window_is_exhaustive() {
        // Two threads × two untagged (hence pairwise dependent) steps:
        // exactly C(4, 2) = 6 interleavings, none prunable.
        let mut ex = Explorer::new(2, ExploreBounds::default());
        loop {
            let out = run_window(&mut ex, |_| {
                crate::stress::yield_point();
                crate::stress::yield_point();
            });
            assert_eq!(out, Outcome::Complete);
            if !ex.advance() {
                break;
            }
        }
        assert!(ex.exhausted());
        assert_eq!(ex.schedules(), 6);
        assert_eq!(ex.redundant(), 0);
    }

    #[test]
    fn independent_steps_are_pruned() {
        // One tagged write to a distinct location per thread: the two
        // interleavings are equivalent, so sleep sets prune one of them.
        let mut ex = Explorer::new(2, ExploreBounds::default());
        loop {
            let out = run_window(&mut ex, |t| {
                crate::stress::yield_point_tagged(YieldTag::Write(0x1000 + t));
            });
            assert_ne!(out, Outcome::Stuck);
            if !ex.advance() {
                break;
            }
        }
        assert!(ex.exhausted());
        assert_eq!(ex.schedules(), 1);
        assert_eq!(ex.redundant(), 1);
    }

    #[test]
    fn conflicting_steps_are_not_pruned() {
        // Same location, both writing: both orders must be kept.
        let mut ex = Explorer::new(2, ExploreBounds::default());
        loop {
            let out = run_window(&mut ex, |_| {
                crate::stress::yield_point_tagged(YieldTag::Write(0x2000));
            });
            assert_eq!(out, Outcome::Complete);
            if !ex.advance() {
                break;
            }
        }
        assert!(ex.exhausted());
        assert_eq!(ex.schedules(), 2);
        assert_eq!(ex.redundant(), 0);
    }

    #[test]
    fn blocked_livelock_is_detected_as_stuck() {
        let mut ex = Explorer::new(
            1,
            ExploreBounds {
                max_steps: 64,
                ..ExploreBounds::default()
            },
        );
        let out = run_window(&mut ex, |_| loop {
            crate::stress::yield_point_tagged(YieldTag::Blocked(0xdead));
        });
        assert_eq!(out, Outcome::Stuck);
        assert_eq!(ex.stuck(), 1);
    }

    #[test]
    fn replay_forces_recorded_schedule() {
        use std::sync::Mutex;
        let order = Mutex::new(Vec::new());
        let body = |t: usize| {
            for _ in 0..3 {
                crate::stress::yield_point();
                order.lock().unwrap().push(t);
            }
        };

        let mut ex = Explorer::new(2, ExploreBounds::default());
        // Walk a few branches in so the schedule is not the trivial one.
        for _ in 0..3 {
            assert_eq!(run_window(&mut ex, body), Outcome::Complete);
            assert!(ex.advance());
        }
        order.lock().unwrap().clear();
        assert_eq!(run_window(&mut ex, body), Outcome::Complete);
        let schedule = ex.last_schedule();
        let recorded = std::mem::take(&mut *order.lock().unwrap());

        let run = begin_replay(2, &schedule, &[], &ExploreBounds::default());
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2 {
                let body = &body;
                let start = &start;
                s.spawn(move || {
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _slot = crate::stress::register(t);
                        start.wait();
                        body(t);
                    }));
                    if let Err(payload) = result {
                        if payload.downcast_ref::<ExploreAbort>().is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                });
            }
        });
        let replayed = finish_replay(run).expect("replay should complete");
        assert_eq!(replayed, schedule);
        assert_eq!(*order.lock().unwrap(), recorded);
    }
}
