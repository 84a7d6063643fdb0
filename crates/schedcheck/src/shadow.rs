//! Shadow sync primitives: drop-in replacements for the `std` types the
//! native backend uses, instrumented as schedule points of the engine in
//! [`crate::exec`]. The API mirrors `std` closely enough that
//! `crates/native`'s `sync` facade can re-export either world from the
//! same call sites.
//!
//! Semantics and honest approximations:
//!
//! - **Values are sequentially consistent.** A load always observes the
//!   latest store in the explored schedule, for every `Ordering`. The
//!   orderings still matter: they drive the vector-clock happens-before
//!   edges the race detector uses (an Acquire load of a Release store
//!   creates an edge; Relaxed traffic does not). Bugs that need a stale
//!   value (store buffering, read-reordering) are out of scope and the
//!   docs say so.
//! - `compare_exchange_weak` never fails spuriously (its retry loop is
//!   still explored via scheduling).
//! - `Condvar::wait` has no spurious wakeups — this keeps lost-wakeup
//!   detection sharp. `wait_timeout` can *always* time out (an
//!   always-enabled pseudo-transition), which doubles as the model of a
//!   spurious wake at those call sites.
//! - `notify_one` wakes the lowest-tid waiter (deterministic).
//! - `Instant` reads a per-execution virtual nanosecond clock advanced
//!   by `thread::sleep` and by `wait_timeout` expiries.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Add, Deref, DerefMut, Sub};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex as OsMutex, OnceLock};
use std::time::Duration;

use crate::codes;
use crate::exec::{self, Blocked, ExecState, ObjId, Status, Tid};

fn oid(slot: &OnceLock<ObjId>, st: &mut ExecState) -> ObjId {
    *slot.get_or_init(|| st.fresh_obj())
}

/// `lock()` never poisons under the model (panics abort the whole
/// execution), but the facade keeps `std`'s `Result` shape so call
/// sites can say `.unwrap()` in both worlds.
pub type LockResult<T> = Result<T, NeverPoison>;

#[derive(Debug)]
pub struct NeverPoison;

// ---------------------------------------------------------------------
// atomics
// ---------------------------------------------------------------------

pub mod atomic {
    use super::*;
    pub use std::sync::atomic::Ordering;

    macro_rules! int_atomic {
        ($name:ident, $t:ty, $label:literal) => {
            pub struct $name {
                id: OnceLock<ObjId>,
                v: UnsafeCell<$t>,
            }

            // SAFETY: matches std, whose atomics are freely shared: `v`
            // is only touched inside `exec::sync_op`'s grant, under the
            // execution's lock, one thread at a time.
            unsafe impl Send for $name {}
            // SAFETY: as for `Send`.
            unsafe impl Sync for $name {}

            impl $name {
                pub const fn new(v: $t) -> Self {
                    $name { id: OnceLock::new(), v: UnsafeCell::new(v) }
                }

                pub fn load(&self, ord: Ordering) -> $t {
                    exec::sync_op(
                        concat!($label, "::load"),
                        |_, _| Status::AtPoint,
                        |st, tid| {
                            let id = oid(&self.id, st);
                            st.atomic_load_effects(id, tid, ord);
                            // SAFETY: under the execution's lock (`exec::sync_op`): the one
                            // access to `v`, and nothing borrows it past this closure.
                            unsafe { *self.v.get() }
                        },
                    )
                }

                pub fn store(&self, val: $t, ord: Ordering) {
                    exec::sync_op(
                        concat!($label, "::store"),
                        |_, _| Status::AtPoint,
                        |st, tid| {
                            let id = oid(&self.id, st);
                            st.atomic_store_effects(id, tid, ord);
                            // SAFETY: under the execution's lock (`exec::sync_op`): the one
                            // access to `v`, and nothing borrows it past this closure.
                            unsafe { *self.v.get() = val };
                        },
                    )
                }

                pub fn swap(&self, val: $t, ord: Ordering) -> $t {
                    exec::sync_op(
                        concat!($label, "::swap"),
                        |_, _| Status::AtPoint,
                        |st, tid| {
                            let id = oid(&self.id, st);
                            st.atomic_rmw_effects(id, tid, ord);
                            // SAFETY: under the execution's lock (`exec::sync_op`): the one
                            // access to `v`, and nothing borrows it past this closure.
                            let slot = unsafe { &mut *self.v.get() };
                            std::mem::replace(slot, val)
                        },
                    )
                }

                pub fn compare_exchange(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    exec::sync_op(
                        concat!($label, "::compare_exchange"),
                        |_, _| Status::AtPoint,
                        |st, tid| {
                            let id = oid(&self.id, st);
                            // SAFETY: under the execution's lock (`exec::sync_op`): the one
                            // access to `v`, and nothing borrows it past this closure.
                            let slot = unsafe { &mut *self.v.get() };
                            if *slot == current {
                                st.atomic_rmw_effects(id, tid, success);
                                Ok(std::mem::replace(slot, new))
                            } else {
                                st.atomic_load_effects(id, tid, failure);
                                Err(*slot)
                            }
                        },
                    )
                }

                /// Never fails spuriously under the model.
                pub fn compare_exchange_weak(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    self.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    int_atomic!(AtomicBool, bool, "AtomicBool");
    int_atomic!(AtomicU32, u32, "AtomicU32");
    int_atomic!(AtomicU64, u64, "AtomicU64");
    int_atomic!(AtomicUsize, usize, "AtomicUsize");

    macro_rules! fetch_ops {
        ($name:ident, $t:ty, $label:literal) => {
            impl $name {
                pub fn fetch_add(&self, val: $t, ord: Ordering) -> $t {
                    exec::sync_op(
                        concat!($label, "::fetch_add"),
                        |_, _| Status::AtPoint,
                        |st, tid| {
                            let id = oid(&self.id, st);
                            st.atomic_rmw_effects(id, tid, ord);
                            // SAFETY: under the execution's lock (`exec::sync_op`): the one
                            // access to `v`, and nothing borrows it past this closure.
                            let slot = unsafe { &mut *self.v.get() };
                            let old = *slot;
                            *slot = old.wrapping_add(val);
                            old
                        },
                    )
                }

                pub fn fetch_sub(&self, val: $t, ord: Ordering) -> $t {
                    exec::sync_op(
                        concat!($label, "::fetch_sub"),
                        |_, _| Status::AtPoint,
                        |st, tid| {
                            let id = oid(&self.id, st);
                            st.atomic_rmw_effects(id, tid, ord);
                            // SAFETY: under the execution's lock (`exec::sync_op`): the one
                            // access to `v`, and nothing borrows it past this closure.
                            let slot = unsafe { &mut *self.v.get() };
                            let old = *slot;
                            *slot = old.wrapping_sub(val);
                            old
                        },
                    )
                }
            }
        };
    }

    fetch_ops!(AtomicU32, u32, "AtomicU32");
    fetch_ops!(AtomicU64, u64, "AtomicU64");
    fetch_ops!(AtomicUsize, usize, "AtomicUsize");

    pub struct AtomicPtr<T> {
        id: OnceLock<ObjId>,
        v: UnsafeCell<*mut T>,
    }

    // SAFETY: matches std, where `AtomicPtr<T>` is Send + Sync for all
    // `T`: it shares the pointer, never the pointee, and `v` is only
    // touched under the execution's lock.
    unsafe impl<T> Send for AtomicPtr<T> {}
    // SAFETY: as for `Send`.
    unsafe impl<T> Sync for AtomicPtr<T> {}

    impl<T> AtomicPtr<T> {
        pub const fn new(p: *mut T) -> Self {
            AtomicPtr { id: OnceLock::new(), v: UnsafeCell::new(p) }
        }

        pub fn load(&self, ord: Ordering) -> *mut T {
            exec::sync_op(
                "AtomicPtr::load",
                |_, _| Status::AtPoint,
                |st, tid| {
                    let id = oid(&self.id, st);
                    st.atomic_load_effects(id, tid, ord);
                    // SAFETY: under the execution's lock (`exec::sync_op`): the one
                    // access to `v`, and nothing borrows it past this closure.
                    unsafe { *self.v.get() }
                },
            )
        }

        pub fn store(&self, p: *mut T, ord: Ordering) {
            exec::sync_op(
                "AtomicPtr::store",
                |_, _| Status::AtPoint,
                |st, tid| {
                    let id = oid(&self.id, st);
                    st.atomic_store_effects(id, tid, ord);
                    // SAFETY: under the execution's lock (`exec::sync_op`): the one
                    // access to `v`, and nothing borrows it past this closure.
                    unsafe { *self.v.get() = p };
                },
            )
        }

        pub fn swap(&self, p: *mut T, ord: Ordering) -> *mut T {
            exec::sync_op(
                "AtomicPtr::swap",
                |_, _| Status::AtPoint,
                |st, tid| {
                    let id = oid(&self.id, st);
                    st.atomic_rmw_effects(id, tid, ord);
                    // SAFETY: under the execution's lock (`exec::sync_op`): the one
                    // access to `v`, and nothing borrows it past this closure.
                    let slot = unsafe { &mut *self.v.get() };
                    std::mem::replace(slot, p)
                },
            )
        }

        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            exec::sync_op(
                "AtomicPtr::compare_exchange",
                |_, _| Status::AtPoint,
                |st, tid| {
                    let id = oid(&self.id, st);
                    // SAFETY: under the execution's lock (`exec::sync_op`): the one
                    // access to `v`, and nothing borrows it past this closure.
                    let slot = unsafe { &mut *self.v.get() };
                    if std::ptr::eq(*slot, current) {
                        st.atomic_rmw_effects(id, tid, success);
                        Ok(std::mem::replace(slot, new))
                    } else {
                        st.atomic_load_effects(id, tid, failure);
                        Err(*slot)
                    }
                },
            )
        }

        /// Never fails spuriously under the model.
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            self.compare_exchange(current, new, success, failure)
        }
    }
}

// ---------------------------------------------------------------------
// Mutex / Condvar
// ---------------------------------------------------------------------

pub struct Mutex<T> {
    id: OnceLock<ObjId>,
    data: UnsafeCell<T>,
}

// SAFETY: as std's `Mutex`: `data` is reached only through a guard, and
// the model grants the lock to one thread at a time (`held_by`).
unsafe impl<T: Send> Send for Mutex<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send> Sync for Mutex<T> {}

pub struct MutexGuard<'a, T> {
    m: &'a Mutex<T>,
    _not_send: PhantomData<*mut ()>,
}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Self {
        Mutex { id: OnceLock::new(), data: UnsafeCell::new(t) }
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        exec::sync_op(
            "Mutex::lock",
            |st, _| Status::Blocked(Blocked::Lock(oid(&self.id, st))),
            |st, tid| {
                let id = oid(&self.id, st);
                let m = st.mutexes.entry(id).or_default();
                m.held_by = Some(tid);
                let mc = m.clock.clone();
                st.threads[tid].clock.join(&mc);
            },
        );
        Ok(MutexGuard { m: self, _not_send: PhantomData })
    }

    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner())
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: this thread holds the model lock for the guard's
        // lifetime, which bounds the borrow.
        unsafe { &*self.m.data.get() }
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, and the guard is borrowed mutably, so
        // this is the one reference.
        unsafe { &mut *self.m.data.get() }
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        exec::sync_op(
            "Mutex::unlock",
            |_, _| Status::AtPoint,
            |st, tid| {
                let clock = st.threads[tid].clock.clone();
                let id = oid(&self.m.id, st);
                let m = st.mutexes.entry(id).or_default();
                m.held_by = None;
                m.clock = clock;
            },
        );
    }
}

pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

#[derive(Default)]
pub struct Condvar {
    id: OnceLock<ObjId>,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar { id: OnceLock::new() }
    }

    fn wait_inner<'a, T>(
        &self,
        g: MutexGuard<'a, T>,
        timeout_ns: Option<u64>,
    ) -> (MutexGuard<'a, T>, bool) {
        let m = g.m;
        // The wait releases the mutex itself (in `arrive`, atomically
        // with parking on the condvar); skip the guard's unlock point.
        std::mem::forget(g);
        let timed_out = exec::sync_op(
            if timeout_ns.is_some() { "Condvar::wait_timeout" } else { "Condvar::wait" },
            |st, tid| {
                let cv = oid(&self.id, st);
                let mid = oid(&m.id, st);
                let clock = st.threads[tid].clock.clone();
                let ms = st.mutexes.entry(mid).or_default();
                ms.held_by = None;
                ms.clock = clock;
                Status::Blocked(Blocked::Condvar { cv, mutex: mid, timeout_ns })
            },
            |st, tid| {
                let mid = oid(&m.id, st);
                let ms = st.mutexes.entry(mid).or_default();
                ms.held_by = Some(tid);
                let mc = ms.clock.clone();
                st.threads[tid].clock.join(&mc);
                std::mem::take(&mut st.threads[tid].timed_out)
            },
        );
        (MutexGuard { m, _not_send: PhantomData }, timed_out)
    }

    pub fn wait<'a, T>(&self, g: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        Ok(self.wait_inner(g, None).0)
    }

    pub fn wait_timeout<'a, T>(
        &self,
        g: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let ns = u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX);
        let (g, timed_out) = self.wait_inner(g, Some(ns));
        Ok((g, WaitTimeoutResult(timed_out)))
    }

    fn notify(&self, all: bool) {
        exec::sync_op(
            if all { "Condvar::notify_all" } else { "Condvar::notify_one" },
            |_, _| Status::AtPoint,
            |st, tid| {
                let cvid = oid(&self.id, st);
                let clock = st.threads[tid].clock.clone();
                for th in st.threads.iter_mut() {
                    if let Status::Blocked(Blocked::Condvar { cv, mutex, .. }) = th.status {
                        if cv == cvid {
                            th.status = Status::Blocked(Blocked::Lock(mutex));
                            th.timed_out = false;
                            th.clock.join(&clock);
                            if !all {
                                break;
                            }
                        }
                    }
                }
            },
        );
    }

    pub fn notify_one(&self) {
        self.notify(false);
    }

    pub fn notify_all(&self) {
        self.notify(true);
    }
}

// ---------------------------------------------------------------------
// thread
// ---------------------------------------------------------------------

pub mod thread {
    use super::*;

    type Slot<T> = Arc<OsMutex<Option<T>>>;

    fn spawn_erased(body: Box<dyn FnOnce() + Send>) -> Tid {
        let ctx = exec::ctx();
        exec::sync_op(
            "thread::spawn",
            |_, _| Status::AtPoint,
            move |st, ptid| exec::spawn_model(st, &ctx.exec, Some(ptid), body),
        )
    }

    fn join_model<T>(tid: Tid, slot: &Slot<T>) -> std::thread::Result<T> {
        exec::sync_op(
            "JoinHandle::join",
            |_, _| Status::Blocked(Blocked::Join(tid)),
            |st, me| {
                let c = st.threads[tid].clock.clone();
                st.threads[me].clock.join(&c);
            },
        );
        match slot.lock().unwrap_or_else(|e| e.into_inner()).take() {
            Some(v) => Ok(v),
            // Only reachable while the execution is being torn down.
            None => Err(Box::new("schedcheck: joined thread produced no value (teardown)")
                as Box<dyn std::any::Any + Send>),
        }
    }

    pub struct JoinHandle<T> {
        tid: Tid,
        slot: Slot<T>,
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            join_model(self.tid, &self.slot)
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let slot: Slot<T> = Arc::new(OsMutex::new(None));
        let s2 = Arc::clone(&slot);
        let tid = spawn_erased(Box::new(move || {
            let r = f();
            *s2.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        }));
        JoinHandle { tid, slot }
    }

    /// Advances the virtual clock; never blocks other threads.
    pub fn sleep(d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        exec::sync_op(
            "thread::sleep",
            |_, _| Status::AtPoint,
            move |st, _| st.clock_ns = st.clock_ns.saturating_add(ns),
        );
    }

    /// A pure schedule point.
    pub fn yield_now() {
        exec::sync_op("thread::yield_now", |_, _| Status::AtPoint, |_, _| ());
    }

    pub struct Scope<'scope, 'env: 'scope> {
        children: std::cell::RefCell<Vec<Tid>>,
        _scope: PhantomData<&'scope mut &'scope ()>,
        _env: PhantomData<&'env mut &'env ()>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        tid: Tid,
        slot: Slot<T>,
        _p: PhantomData<&'scope ()>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> std::thread::Result<T> {
            join_model(self.tid, &self.slot)
        }
    }

    impl<'scope> Scope<'scope, '_> {
        pub fn spawn<F, T>(&'scope self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let slot: Slot<T> = Arc::new(OsMutex::new(None));
            let s2 = Arc::clone(&slot);
            let body: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
                let r = f();
                *s2.lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
            // SAFETY: `scope` joins every spawned child before it
            // returns — on the success path via model-level joins, and
            // on the unwind path by waiting for the children's OS
            // threads to finish unwinding — so the closure (and
            // everything it borrows from 'scope/'env) outlives its use.
            let body: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(body) };
            let tid = spawn_erased(body);
            self.children.borrow_mut().push(tid);
            ScopedJoinHandle { tid, slot, _p: PhantomData }
        }
    }

    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> T,
    {
        let sc = Scope {
            children: std::cell::RefCell::new(Vec::new()),
            _scope: PhantomData,
            _env: PhantomData,
        };
        let res = panic::catch_unwind(AssertUnwindSafe(|| {
            let v = f(&sc);
            // Join children at the model level so their final clocks
            // flow into ours (and an unfinished child is a deadlock,
            // not a dangling borrow).
            let children = sc.children.borrow().clone();
            for tid in children {
                exec::sync_op(
                    "scope::join",
                    move |_, _| Status::Blocked(Blocked::Join(tid)),
                    move |st, me| {
                        let c = st.threads[tid].clock.clone();
                        st.threads[me].clock.join(&c);
                    },
                );
            }
            v
        }));
        match res {
            Ok(v) => v,
            Err(p) => {
                // The scope body (or a child-triggered abort) unwound.
                // Children may still borrow 'scope/'env data, so we must
                // not resume the unwind until every child OS thread has
                // finished tearing down.
                let ctx = exec::ctx();
                {
                    let mut st = ctx.exec.lock();
                    if !p.is::<exec::AbortUnwind>() && !st.abort {
                        let msg = panic_message(&p);
                        st.report(codes::PANIC, format!("scope body panicked: {msg}"));
                    }
                    st.abort = true;
                }
                ctx.exec.cv.notify_all();
                {
                    let mut st = ctx.exec.lock();
                    let children = sc.children.borrow().clone();
                    while children
                        .iter()
                        .any(|&t| !matches!(st.threads[t].status, exec::Status::Finished))
                    {
                        st = ctx.exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    }
                }
                panic::resume_unwind(p)
            }
        }
    }

    fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
        if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "opaque panic payload".to_string()
        }
    }
}

// ---------------------------------------------------------------------
// time
// ---------------------------------------------------------------------

/// A point on the execution's virtual clock. `now()` is not a schedule
/// point: reading time cannot influence other threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Instant(u64);

impl Instant {
    pub fn now() -> Instant {
        exec::direct_op(|st, _, _| Instant(st.clock_ns))
    }

    pub fn elapsed(&self) -> Duration {
        Instant::now() - *self
    }

    pub fn duration_since(&self, earlier: Instant) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    pub fn saturating_duration_since(&self, earlier: Instant) -> Duration {
        self.duration_since(earlier)
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)))
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, d: Duration) -> Instant {
        Instant(self.0.saturating_sub(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)))
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

// ---------------------------------------------------------------------
// cell
// ---------------------------------------------------------------------

pub mod cell {
    use super::*;

    /// The race-detection point: a plain shared mutable location with
    /// *no* synchronization of its own (the shadow of `Cell`, or of the
    /// unsafe "I promise this is published safely" accesses around raw
    /// nodes). Every `get`/`set` is checked against the vector clocks;
    /// two unordered accesses (one a write) are an SC201 data race.
    ///
    /// Deliberately `Sync` even though the std-mode equivalent is not:
    /// the model's job is to *detect* misuse, not prevent it.
    pub struct RaceCell<T> {
        id: OnceLock<ObjId>,
        v: UnsafeCell<T>,
    }

    // SAFETY: every access to `v` runs inside `exec::direct_op`, under
    // the execution's lock, so none overlaps another in fact; the vector
    // clocks report the ones the program left unordered.
    unsafe impl<T: Send> Send for RaceCell<T> {}
    // SAFETY: as for `Send`.
    unsafe impl<T: Send> Sync for RaceCell<T> {}

    impl<T: Copy> RaceCell<T> {
        pub const fn new(v: T) -> Self {
            RaceCell { id: OnceLock::new(), v: UnsafeCell::new(v) }
        }

        pub fn get(&self) -> T {
            exec::direct_op(|st, tid, degraded| {
                if !degraded {
                    let id = oid(&self.id, st);
                    st.cell_read(id, tid, "RaceCell");
                }
                // SAFETY: under the execution's lock (`exec::direct_op`): the one
                // access to `v`, and nothing borrows it past this closure.
                unsafe { *self.v.get() }
            })
        }

        pub fn set(&self, val: T) {
            exec::direct_op(|st, tid, degraded| {
                if !degraded {
                    let id = oid(&self.id, st);
                    st.cell_write(id, tid, "RaceCell");
                }
                // SAFETY: under the execution's lock (`exec::direct_op`): the one
                // access to `v`, and nothing borrows it past this closure.
                unsafe { *self.v.get() = val };
            })
        }
    }
}

// ---------------------------------------------------------------------
// boxed — leak / double-free tracking for raw node reclamation
// ---------------------------------------------------------------------

pub mod boxed {
    use super::*;
    use crate::exec::AllocSite;

    /// `Box::into_raw` with the allocation registered in the engine.
    /// Every pointer minted here must flow back through [`from_raw`]
    /// before the execution ends, or the run is reported as SC203.
    pub fn into_raw<T>(b: Box<T>) -> *mut T {
        let p = Box::into_raw(b);
        if exec::in_model() {
            exec::direct_op(|st, _, degraded| {
                if !degraded {
                    let step = st.step;
                    st.allocs
                        .insert(p as usize, AllocSite { ty: std::any::type_name::<T>(), step });
                }
            });
        }
        p
    }

    /// `Box::from_raw` with double-free detection: a pointer that is
    /// not currently registered aborts the execution (SC203) *before*
    /// the real `Box` is reconstructed, so the checker process itself
    /// never double-frees.
    ///
    /// # Safety
    /// Same contract as [`Box::from_raw`].
    pub unsafe fn from_raw<T>(p: *mut T) -> Box<T> {
        if exec::in_model() {
            exec::direct_op(|st, _, degraded| {
                let known = st.allocs.remove(&(p as usize)).is_some();
                if !known && !degraded {
                    st.report(
                        crate::codes::SC203,
                        format!(
                            "double free: boxed::from_raw({p:p}) on a pointer not currently \
                             owned by into_raw (type {})",
                            std::any::type_name::<T>()
                        ),
                    );
                }
            });
        }
        // SAFETY: the caller upholds `Box::from_raw`'s contract.
        unsafe { Box::from_raw(p) }
    }
}
