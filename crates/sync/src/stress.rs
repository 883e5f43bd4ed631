//! Injectable stress yield hook and yield-point access tags.
//!
//! `cds-sync` sits *below* `cds-core` in the crate graph, so it cannot
//! call `cds_core::stress::yield_point` directly the way the structure
//! crates do. Instead it exposes one registration point: when a stress
//! scheduler is installed, `cds-core` registers its tagged yield entry
//! here, and [`Backoff::spin`](crate::Backoff::spin) /
//! [`Backoff::snooze`](crate::Backoff::snooze) and
//! [`Lock::lock`](crate::Lock::lock) route through it — so a retry loop
//! that backs off during a contended resize migration, or a lock-based
//! structure taking its [`Mutex`](crate::Mutex), is a real preemption
//! point for schedules to exploit, not a scheduling blind spot.
//!
//! Each yield point may carry a [`YieldTag`] describing the shared
//! location the *next* step will touch. The PCT scheduler ignores tags;
//! the systematic explorer (`cds_core::stress::explore`) derives its
//! independence relation from them. Untagged points
//! ([`YieldTag::None`]) are treated as dependent on everything, which
//! is always sound — tags only ever *add* pruning.
//!
//! The hook machinery compiles away without the `stress` feature;
//! [`YieldTag`] itself is always available so instrumented code can
//! mention tags without `cfg` noise.

/// Access tag carried by a yield point, describing what the step after
/// the yield is about to do to shared state.
///
/// The address in the payload is an opaque identity (typically the
/// address of the lock or structure cell involved). Two steps are
/// *independent* — safe to commute during systematic exploration — iff
/// both are tagged, their addresses differ, or neither writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YieldTag {
    /// Unknown effect: conservatively dependent on every other step.
    None,
    /// The step reads the tagged location but does not modify it.
    Read(usize),
    /// The step may modify the tagged location (stores, CAS attempts,
    /// lock acquisitions).
    Write(usize),
    /// The step is a *pure recheck* of the tagged location: if no other
    /// thread has run since this thread last paused, re-running the
    /// step changes nothing and lands back at the same yield point
    /// (e.g. spinning on a held lock). The explorer may deprioritize
    /// such steps until another thread makes progress. Treated as a
    /// read of the location for independence purposes.
    Blocked(usize),
}

#[cfg(feature = "stress")]
mod hook {
    use super::YieldTag;
    use std::sync::OnceLock;

    static YIELD_HOOK: OnceLock<fn(YieldTag)> = OnceLock::new();
    static ACTIVE_HOOK: OnceLock<fn() -> bool> = OnceLock::new();

    /// Registers the process-wide yield hook called from every backoff
    /// step.
    ///
    /// Idempotent: the first registration wins (the scheduler registers
    /// the same function on every install, so later calls are harmless
    /// no-ops).
    pub fn set_yield_hook(f: fn(YieldTag)) {
        let _ = YIELD_HOOK.set(f);
    }

    /// Registers the process-wide "is a stress schedule running right
    /// now" predicate. The [`Parker`](crate::Parker) consults it to
    /// decide between a kernel block and a spin through yield points —
    /// the harness determinism rule says nothing may sleep in the kernel
    /// while a deterministic schedule is driving.
    ///
    /// Idempotent like [`set_yield_hook`]: first registration wins.
    pub fn set_active_hook(f: fn() -> bool) {
        let _ = ACTIVE_HOOK.set(f);
    }

    /// Invokes the registered hook, if any.
    #[inline]
    pub(crate) fn yield_point_tagged(tag: YieldTag) {
        if let Some(f) = YIELD_HOOK.get() {
            f(tag);
        }
    }

    /// True iff a stress scheduler is installed *and* currently active.
    /// False when no hook has been registered (plain `--features stress`
    /// builds outside a scheduled test).
    #[inline]
    pub(crate) fn stress_active() -> bool {
        ACTIVE_HOOK.get().is_some_and(|f| f())
    }
}

#[cfg(feature = "stress")]
pub use hook::{set_active_hook, set_yield_hook};
#[cfg(feature = "stress")]
pub(crate) use hook::{stress_active, yield_point_tagged};

/// Inert stand-in: compiles to nothing without the `stress` feature.
#[cfg(not(feature = "stress"))]
#[inline(always)]
pub(crate) fn yield_point_tagged(_tag: YieldTag) {}

/// Inert stand-in: never active without the `stress` feature.
#[cfg(not(feature = "stress"))]
#[inline(always)]
pub(crate) fn stress_active() -> bool {
    false
}
