//! Std-only derivation-provenance capture: an opt-in, gated record of every
//! trigger firing a chase performs.
//!
//! The chase engines answer *what* holds (the materialized instance) but
//! not *why*. This module is the "why" side: when the gate is on, every
//! trigger firing — in all three engines, which all fire through the shared
//! `TriggerPlan::fire_row` of the chase crate — appends one
//! [`FiringRecord`] naming the TGD, the full variable valuation (body
//! variables in ascending order, then the fresh nulls chosen for the
//! existential variables), and the ground head atoms the firing produced.
//! The collected sequence *is* the derivation: replaying it by naive
//! substitution re-derives exactly the chase-added atoms, which is what the
//! independent certificate checker (`gtgd-check`) does fail-closed.
//!
//! The design copies [`crate::obs`] deliberately:
//!
//! * probes are **off by default** — each `record_firing` call compiles to
//!   one relaxed [`AtomicBool`] load and a branch, so an uncertified run
//!   pays nothing but that branch;
//! * state is **process-global** behind a mutex — firings are only recorded
//!   on the engines' single merge/fire thread (parallel chase workers
//!   discover triggers but never fire them), so the lock is uncontended and
//!   the recorded order is the engines' canonical firing order,
//!   deterministic for any worker count;
//! * the intended protocol is enable → [`reset`] → run → [`take`] →
//!   disable, packaged as [`collect_run`]. Collected runs serialize, and a
//!   collected run keeps only the firings of its own thread (the one the
//!   engines fire on), so an uncollected chase running concurrently on
//!   another thread cannot leak firings into it. Raw
//!   `set_enabled`/`take` callers still see every thread's firings — the
//!   same documented trade as the obs layer.
//!
//! Variables are identified by their dense `u32` index (the chase crate's
//! `Var` index); this crate stays below the query/chase layer on purpose so
//! both can feed it.

use crate::atom::GroundAtom;
use crate::value::Value;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

/// One trigger firing: the `tgd`-th rule fired under `val`, producing
/// `atoms`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiringRecord {
    /// Index of the TGD in the rule set the chase ran.
    pub tgd: usize,
    /// The full valuation: body variables (the trigger's homomorphism, in
    /// ascending variable order) followed by existential variables bound to
    /// the fresh nulls this firing invented. Pairs are `(variable index,
    /// value)`.
    pub val: Vec<(u32, Value)>,
    /// The ground head atoms the firing produced (whether or not the
    /// instance already contained them).
    pub atoms: Vec<GroundAtom>,
}

/// The global provenance gate. Every probe is a branch on this flag.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The recording state behind the gate.
struct Recorder {
    /// The thread a [`collect_run`] records for; `None` records every
    /// thread.
    owner: Option<ThreadId>,
    /// Firings recorded since the last [`reset`], in firing order.
    firings: Vec<FiringRecord>,
}

static RECORDER: Mutex<Recorder> = Mutex::new(Recorder {
    owner: None,
    firings: Vec::new(),
});

fn recorder() -> std::sync::MutexGuard<'static, Recorder> {
    RECORDER.lock().expect("provenance list")
}

/// Whether firings are currently recorded. One relaxed load; inlined into
/// the probe site.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns provenance recording on or off. Callers wanting a per-run record
/// follow enable → [`reset`] → run → [`take`] → disable ([`collect_run`]
/// is the one-call form).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Clears the recorded firing list. Does not touch the gate.
pub fn reset() {
    recorder().firings.clear();
}

/// Appends a firing record if the gate is on (and, during a
/// [`collect_run`], if this is the collecting thread). The disabled path
/// is one relaxed load and a branch; callers on hot paths should
/// pre-check [`enabled`] before materializing the record's vectors.
#[inline]
pub fn record_firing(record: FiringRecord) {
    if enabled() {
        let mut rec = recorder();
        if rec.owner.is_none_or(|t| t == thread::current().id()) {
            rec.firings.push(record);
        }
    }
}

/// Takes the recorded firings, leaving the list empty (regardless of the
/// gate).
pub fn take() -> Vec<FiringRecord> {
    std::mem::take(&mut recorder().firings)
}

/// Serializes concurrent [`collect_run`] calls: the recording state is
/// process-global, so two collected runs on different threads would
/// otherwise mix their firings (think parallel test binaries).
static COLLECT: Mutex<()> = Mutex::new(());

/// Runs `f` with provenance recording enabled against a clean slate and
/// returns its result together with the firings it recorded on this
/// thread; the gate is switched off again afterwards. Concurrent
/// `collect_run` calls serialize on a process-wide lock, and firings from
/// other threads are not recorded meanwhile, so each call gets exactly its
/// own firings. (Raw `set_enabled`/`take` callers bypass that lock — the
/// documented obs-style trade.)
pub fn collect_run<T>(f: impl FnOnce() -> T) -> (T, Vec<FiringRecord>) {
    let _serial = COLLECT.lock().unwrap_or_else(|e| e.into_inner());
    recorder().owner = Some(thread::current().id());
    set_enabled(true);
    reset();
    let out = f();
    let firings = take();
    set_enabled(false);
    recorder().owner = None;
    (out, firings)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Provenance state is process-global and rust test binaries run tests
    // concurrently, so every test here serializes on one lock.
    static GATE: Mutex<()> = Mutex::new(());

    fn rec(tgd: usize) -> FiringRecord {
        FiringRecord {
            tgd,
            val: vec![(0, Value::named("a"))],
            atoms: vec![GroundAtom::named("P", &["a"])],
        }
    }

    #[test]
    fn disabled_gate_records_nothing() {
        let _g = GATE.lock().unwrap();
        set_enabled(false);
        reset();
        record_firing(rec(0));
        assert!(take().is_empty());
    }

    #[test]
    fn collect_run_captures_in_order_and_disarms() {
        let _g = GATE.lock().unwrap();
        let ((), firings) = collect_run(|| {
            record_firing(rec(2));
            record_firing(rec(0));
        });
        assert_eq!(firings.len(), 2);
        assert_eq!(firings[0].tgd, 2);
        assert_eq!(firings[1].tgd, 0);
        assert!(!enabled(), "gate must be off after collect_run");
        assert!(take().is_empty(), "collect_run drains the list");
    }

    #[test]
    fn collect_run_ignores_other_threads() {
        let _g = GATE.lock().unwrap();
        let ((), firings) = collect_run(|| {
            record_firing(rec(1));
            thread::spawn(|| record_firing(rec(7))).join().unwrap();
            record_firing(rec(2));
        });
        let tgds: Vec<usize> = firings.iter().map(|f| f.tgd).collect();
        assert_eq!(tgds, [1, 2]);
    }

    #[test]
    fn reset_clears_pending_records() {
        let _g = GATE.lock().unwrap();
        set_enabled(true);
        record_firing(rec(1));
        reset();
        let left = take();
        set_enabled(false);
        assert!(left.is_empty());
    }
}
