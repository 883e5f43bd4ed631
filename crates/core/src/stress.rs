//! PCT-style deterministic stress scheduling hooks.
//!
//! The structure crates are instrumented with [`yield_point`] calls at
//! their interesting interleaving points — lock acquisitions (via
//! `cds_sync::Mutex`, whose `lock` reaches this module through the
//! `cds_sync::stress` hook), CAS retry loops, and publication points. In a
//! normal build the hook compiles to an empty inline function and costs
//! nothing. With the `stress` feature enabled *and* a scheduler installed,
//! the hooks become preemption points under a randomized
//! priority-based scheduler in the style of PCT (Burckhardt et al., *A
//! Randomized Scheduler with Probabilistic Guarantees of Finding Bugs*,
//! ASPLOS 2010):
//!
//! * every registered worker thread gets a priority derived
//!   deterministically from the run seed and its worker index;
//! * only the highest-priority runnable thread (the *token holder*) makes
//!   progress past yield points; the others spin;
//! * at seeded priority-change points the token holder is demoted below
//!   every other thread, forcing a context switch exactly there.
//!
//! Because priorities, change points, and forced-backoff injections are
//! all derived from one [`SplitMix64`] stream seeded by
//! [`StressConfig::seed`], re-running a round with the same seed replays
//! the same schedule decisions. Replay is *best effort*: if the token
//! holder blocks in the kernel (e.g. on a contended lock), waiting
//! threads fall through after a bounded number of yields rather than
//! deadlock, which can perturb the schedule. In practice the failing
//! schedules the suite finds reproduce from their printed seed.
//!
//! Threads that never call [`register`] (the test runner, unrelated
//! concurrent tests) pass through yield points untouched even while a
//! scheduler is active.

use std::cell::Cell;
use std::fmt;
// The scheduler's own state must stay invisible to the instrumented
// atomics layer it drives, hence `raw`.
use cds_atomic::raw::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "stress")]
pub mod explore;
#[cfg(feature = "stress")]
mod weak;

pub use cds_sync::stress::YieldTag;

/// Maximum worker threads a stress round may register.
pub const MAX_THREADS: usize = 64;

/// How many `yield_now` spins a non-token thread performs before falling
/// through a yield point anyway (deadlock avoidance when the token holder
/// is blocked in the kernel).
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
const FAIRNESS_BOUND: u32 = 1 << 14;

/// SplitMix64: the deterministic seed stream behind every stress
/// scheduling decision (Steele et al., OOPSLA 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a stream from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Creates a stream seeded from `std`'s random hasher keys, which
    /// differ per thread and per process: for draws that need no replay,
    /// such as skiplist tower heights.
    pub fn from_entropy() -> Self {
        use std::hash::{BuildHasher, Hasher, RandomState};
        SplitMix64::new(RandomState::new().build_hasher().finish())
    }

    /// Next uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mixes a seed with a stream index into an independent-looking value;
/// used to derive per-thread priorities and per-round seeds.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xa0761d6478bd642f)).next_u64()
}

/// Configuration of one stress-scheduled round.
#[derive(Debug, Clone)]
pub struct StressConfig {
    /// Root seed; priorities, change points, and backoff all derive from it.
    pub seed: u64,
    /// Average number of token-holder steps between priority-change
    /// points (the PCT depth knob). `0` disables preemption injection.
    pub change_period: u64,
    /// Forced-backoff injection: on average one in `backoff_denom`
    /// token-holder steps spins [`backoff_spins`](Self::backoff_spins)
    /// times before proceeding. `0` disables injection.
    pub backoff_denom: u64,
    /// Spin count per injected backoff.
    pub backoff_spins: u32,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            seed: 0,
            change_period: 3,
            backoff_denom: 0,
            backoff_spins: 0,
        }
    }
}

// Most fields only feed `yield_point_slow`, which is compiled under the
// `stress` feature; the struct itself stays so install/register keep one
// shape either way.
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
struct SchedState {
    rng: SplitMix64,
    seed: u64,
    priorities: [u64; MAX_THREADS],
    registered: [bool; MAX_THREADS],
    token: Option<usize>,
    steps: u64,
    next_change: u64,
    change_period: u64,
    next_demotion: u64,
    backoff_denom: u64,
    backoff_spins: u32,
}

impl SchedState {
    fn recompute_token(&mut self) {
        self.token = (0..MAX_THREADS)
            .filter(|&i| self.registered[i])
            .max_by_key(|&i| self.priorities[i]);
        // Mirror into the lock-free cache that waiters spin on.
        TOKEN.store(self.token.unwrap_or(usize::MAX), Ordering::Release);
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static DEMOTIONS: cds_atomic::raw::AtomicU64 = cds_atomic::raw::AtomicU64::new(0);
/// Cache of `SchedState::token` (`usize::MAX` = none): non-token threads
/// wait on this atomic instead of hammering the state mutex, which would
/// otherwise serialize the token holder against every spinner.
static TOKEN: cds_atomic::raw::AtomicUsize = cds_atomic::raw::AtomicUsize::new(usize::MAX);
static STATE: Mutex<Option<SchedState>> = Mutex::new(None);
static RUN_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static CUR_SLOT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn state_lock() -> MutexGuard<'static, Option<SchedState>> {
    STATE.lock().unwrap_or_else(|poison| poison.into_inner())
}

/// An installed stress scheduler; uninstalls on drop.
///
/// Holding this guard serializes stress rounds process-wide (the
/// scheduler state is global), so concurrently running stress tests take
/// turns instead of corrupting each other's schedules.
pub struct StressRun {
    _exclusive: MutexGuard<'static, ()>,
}

impl fmt::Debug for StressRun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StressRun").finish_non_exhaustive()
    }
}

impl Drop for StressRun {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        *state_lock() = None;
        TOKEN.store(usize::MAX, Ordering::Release);
    }
}

/// Installs a scheduler for one round. Worker threads must then
/// [`register`] with distinct indices; the round ends when the returned
/// guard drops.
pub fn install(cfg: StressConfig) -> StressRun {
    let exclusive = RUN_LOCK.lock().unwrap_or_else(|poison| poison.into_inner());
    // `cds-sync` sits below this crate, so its `Backoff` loops reach the
    // scheduler through an injected hook rather than a direct call.
    #[cfg(feature = "stress")]
    cds_sync::stress::set_yield_hook(yield_point_tagged);
    // The factored `cds_sync::Parker` likewise cannot ask this crate
    // whether a schedule is driving; give it the same answer `is_active`
    // gives the structure crates.
    #[cfg(feature = "stress")]
    cds_sync::stress::set_active_hook(is_active);
    let change_period = cfg.change_period;
    *state_lock() = Some(SchedState {
        rng: SplitMix64::new(mix_seed(cfg.seed, 0x5ced)),
        seed: cfg.seed,
        priorities: [0; MAX_THREADS],
        registered: [false; MAX_THREADS],
        token: None,
        steps: 0,
        next_change: change_period.max(1),
        change_period,
        // Demotions count down from well below every initial priority
        // (initial priorities have the top bit set), so each demoted
        // thread lands below all others — the PCT discipline.
        next_demotion: 1 << 32,
        backoff_denom: cfg.backoff_denom,
        backoff_spins: cfg.backoff_spins,
    });
    TOKEN.store(usize::MAX, Ordering::Release);
    ACTIVE.store(true, Ordering::Release);
    StressRun {
        _exclusive: exclusive,
    }
}

/// A worker thread's registration with the active scheduler; deregisters
/// (and hands the token onward) on drop.
pub struct ThreadSlot {
    slot: Option<usize>,
}

impl fmt::Debug for ThreadSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadSlot")
            .field("slot", &self.slot)
            .finish()
    }
}

impl Drop for ThreadSlot {
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        CUR_SLOT.with(|c| c.set(None));
        #[cfg(feature = "stress")]
        if explore::deregister(slot) {
            return;
        }
        if let Some(st) = state_lock().as_mut() {
            st.registered[slot] = false;
            st.recompute_token();
        }
    }
}

/// Registers the calling thread as worker `index` (0-based, < [`MAX_THREADS`]).
///
/// The worker's priority is a pure function of the run seed and `index`,
/// so schedules do not depend on the order in which the OS happens to
/// start the workers. A no-op returning an inert guard when no scheduler
/// is installed.
pub fn register(index: usize) -> ThreadSlot {
    assert!(index < MAX_THREADS, "worker index {index} out of range");
    #[cfg(feature = "stress")]
    if explore::register(index) {
        CUR_SLOT.with(|c| c.set(Some(index)));
        return ThreadSlot { slot: Some(index) };
    }
    let mut guard = state_lock();
    let Some(st) = guard.as_mut() else {
        return ThreadSlot { slot: None };
    };
    assert!(
        !st.registered[index],
        "worker index {index} registered twice"
    );
    st.registered[index] = true;
    // Top bit set keeps every initial priority above the demotion range.
    st.priorities[index] = mix_seed(st.seed, index as u64 + 1) | (1 << 63);
    st.recompute_token();
    drop(guard);
    CUR_SLOT.with(|c| c.set(Some(index)));
    ThreadSlot { slot: Some(index) }
}

/// A scheduling point; the hook the structure crates are instrumented with.
///
/// Without the `stress` feature this is an empty `#[inline]` function.
/// With it, registered workers cooperate under the installed scheduler as
/// described in the [module docs](self); unregistered threads and rounds
/// with no scheduler pass straight through.
#[inline]
pub fn yield_point() {
    yield_point_tagged(YieldTag::None);
}

/// [`yield_point`] carrying an access tag describing what the next step
/// touches (see [`YieldTag`]).
///
/// The PCT scheduler ignores tags; the systematic [`explore`] scheduler
/// derives its independence relation from them. Untagged points are
/// conservatively dependent on everything, so tagging is an optimization,
/// never a correctness requirement for instrumented code.
#[inline]
pub fn yield_point_tagged(tag: YieldTag) {
    #[cfg(feature = "stress")]
    yield_point_slow(tag);
    #[cfg(not(feature = "stress"))]
    let _ = tag;
}

#[cfg(feature = "stress")]
fn yield_point_slow(tag: YieldTag) {
    if !ACTIVE.load(Ordering::Acquire) {
        return;
    }
    let Some(slot) = CUR_SLOT.with(|c| c.get()) else {
        return;
    };
    if explore::mode_active() {
        explore::on_yield(slot, tag);
        return;
    }
    let mut spins: u32 = 0;
    loop {
        // Lock-free wait: only the (apparent) token holder touches the
        // state mutex, so spinners never serialize against its updates.
        let tok = TOKEN.load(Ordering::Acquire);
        if tok != slot && tok != usize::MAX {
            spins += 1;
            if spins > FAIRNESS_BOUND {
                // The token holder is stuck in the kernel (e.g. on a lock
                // we hold); fall through rather than deadlock.
                return;
            }
            std::thread::yield_now();
            continue;
        }
        let mut backoff = 0u32;
        {
            let mut guard = state_lock();
            let Some(st) = guard.as_mut() else { return };
            if !st.registered[slot] {
                return;
            }
            match st.token {
                Some(token) if token == slot => {
                    st.steps += 1;
                    if st.backoff_denom > 0 && st.rng.below(st.backoff_denom) == 0 {
                        backoff = st.backoff_spins;
                    }
                    if st.change_period > 0 && st.steps >= st.next_change {
                        st.next_change = st.steps + 1 + st.rng.below(st.change_period.max(1));
                        st.next_demotion -= 1;
                        st.priorities[slot] = st.next_demotion;
                        st.recompute_token();
                        DEMOTIONS.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Some(_) => {
                    // Raced with a token change; resume waiting.
                    drop(guard);
                    continue;
                }
                None => {}
            }
        }
        for _ in 0..backoff {
            std::hint::spin_loop();
        }
        return;
    }
}

/// The slot the calling thread registered with, if any.
#[cfg_attr(not(feature = "stress"), allow(dead_code))]
pub(crate) fn current_slot() -> Option<usize> {
    CUR_SLOT.with(|c| c.get())
}

/// Operation-boundary marker for weak-memory exploration.
///
/// Harnesses that drive per-thread operation sequences (the lincheck
/// explore driver) call this on the worker thread before each operation
/// and once after its last, giving the weak-memory model the real-time
/// completion edges linearizability is defined against: weak behaviors
/// stay confined to operations that actually overlap. A no-op in every
/// other configuration (default builds, PCT rounds, non-weak explore
/// windows), so callers need not gate it.
#[inline]
pub fn op_boundary() {
    #[cfg(feature = "stress")]
    if explore::mode_active() {
        if let Some(slot) = current_slot() {
            explore::op_boundary(slot);
        }
    }
}

/// Whether a stress scheduler is currently installed and active.
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Total priority-change (preemption) events injected since process start.
///
/// Diagnostics: a stress test can assert this moved to prove the `stress`
/// feature (and thus live scheduling) is compiled in.
pub fn demotions() -> u64 {
    DEMOTIONS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(9);
        let mut b = SplitMix64::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn yield_point_is_inert_without_scheduler() {
        // Must not block or panic from an unregistered thread.
        yield_point();
        assert!(!is_active());
    }

    #[test]
    fn install_register_uninstall_round_trip() {
        let run = install(StressConfig {
            seed: 42,
            ..StressConfig::default()
        });
        assert!(is_active());
        let worker = std::thread::spawn(|| {
            let _slot = register(0);
            for _ in 0..32 {
                yield_point();
            }
        });
        worker.join().unwrap();
        drop(run);
        assert!(!is_active());
    }

    #[cfg(feature = "stress")]
    #[test]
    fn two_workers_make_progress_under_scheduler() {
        use cds_atomic::raw::AtomicUsize;
        use std::sync::Arc;
        let run = install(StressConfig {
            seed: 7,
            change_period: 2,
            ..StressConfig::default()
        });
        let hits = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let hits = Arc::clone(&hits);
                std::thread::spawn(move || {
                    let _slot = register(i);
                    for _ in 0..100 {
                        yield_point();
                        hits.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        drop(run);
        assert_eq!(hits.load(Ordering::Relaxed), 200);
    }
}
