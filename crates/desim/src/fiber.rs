//! Simulated processes as fibers: stackful coroutines that all run on the
//! thread inside [`Simulation::run`](crate::Simulation::run).
//!
//! The kernel executes exactly one simulated process at a time, so the
//! processes need separate *stacks*, not separate OS threads. A [`Fiber`]
//! is the slot a suspended process's context is saved in; [`switch`]
//! saves the running context into one slot and resumes another. The
//! runner (the thread that called `run`) owns a slot too, so handing
//! control back to it is the same operation.
//!
//! On x86_64 Linux a fiber is a `mmap`'d stack of `SimConfig::stack_size`
//! bytes with a guard page below it, and [`switch`] is a hand-written
//! context switch: push the callee-saved registers, MXCSR and the x87
//! control word, swap `rsp`, pop the other side's. Elsewhere (other
//! architectures, other calling conventions) each fiber is an OS thread
//! parked on a flag-plus-condvar token, and [`switch`] sets the target's
//! token and waits on its own. The two implementations share this
//! interface; the host picks one at compile time, and the crate's unit
//! tests run both on x86_64 so the thread fallback stays tested.
//!
//! Unwinding never crosses a switch: a fiber's body returns the slot to
//! resume next (the kernel wraps the process in `catch_unwind`), the
//! stack fiber's entry is an `extern "C" fn` that aborts on an escaping
//! unwind, and its frame's return address is 0 so backtraces stop there.

/// The work a fiber runs once first switched to. It returns the slot to
/// hand the CPU to when it is done; the fiber is never resumed after.
pub(crate) type Body = Box<dyn FnOnce() -> *const Fiber + Send>;

/// Smallest stack a fiber gets, whatever `SimConfig::stack_size` asks:
/// room for the process wrapper, `catch_unwind` and the panic machinery
/// that reports a failing process.
pub(crate) const MIN_STACK: usize = 64 * 1024;

/// Which implementation a world's fibers use. Every fiber of one world,
/// and its runner, must be of the same kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Stack,
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
    Thread,
}

impl Kind {
    /// The implementation this host runs simulations on.
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    pub(crate) const HOST: Kind = Kind::Stack;
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    pub(crate) const HOST: Kind = Kind::Thread;
}

/// Where one process's (or the runner's) context waits while another runs.
pub(crate) enum Fiber {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Stack(stack::Slot),
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
    Thread(std::sync::Arc<thread::Token>),
}

impl Fiber {
    pub(crate) fn new(kind: Kind) -> Fiber {
        match kind {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Kind::Stack => Fiber::Stack(stack::Slot::default()),
            #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
            Kind::Thread => Fiber::Thread(Default::default()),
        }
    }

    pub(crate) fn kind(&self) -> Kind {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Fiber::Stack(_) => Kind::Stack,
            #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
            Fiber::Thread(_) => Kind::Thread,
        }
    }

    /// Make this the runner's slot: the calling thread is the one every
    /// fiber of the world runs on from now on.
    pub(crate) fn bind_runner(&self) {
        match self {
            #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
            Fiber::Stack(slot) => slot.bind(),
            #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
            Fiber::Thread(_) => {}
        }
    }
}

/// The execution resources behind one launched fiber: its stack, or its
/// OS thread. Owned by the runner and dropped by it, after the fiber has
/// exited — never by the fiber running on them. Held only for its drop.
pub(crate) enum Launched {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    Stack(#[allow(dead_code)] stack::Stack),
    #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
    Thread(#[allow(dead_code)] thread::Joined),
}

/// Prepare `fiber` to run `body` on the first [`switch`] to it, with a
/// stack of at least `stack_size` bytes (clamped up to [`MIN_STACK`]).
/// Call on the runner's thread.
pub(crate) fn launch(fiber: &Fiber, stack_size: usize, body: Body) -> Launched {
    let stack_size = stack_size.max(MIN_STACK);
    match fiber {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        Fiber::Stack(slot) => Launched::Stack(stack::launch(slot, stack_size, body)),
        #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
        Fiber::Thread(token) => Launched::Thread(thread::launch(token.clone(), stack_size, body)),
    }
}

/// Save the running context into `from` and resume `to`. Returns when
/// some other fiber switches back to `from`.
///
/// # Safety
///
/// `from` is the fiber currently running on this thread (or the runner's
/// slot while the runner runs), `to` is a different fiber of the same
/// kind that is suspended in a switch or launched and not yet started,
/// and both slots — and `to`'s stack — outlive the switch back to `from`.
pub(crate) unsafe fn switch(from: &Fiber, to: &Fiber) {
    // The panic count is per OS thread, and stack fibers share one: a
    // switch in mid-unwind would show the next fiber a panic that is not
    // its own (and poison the std mutexes it drops).
    debug_assert!(!std::thread::panicking(), "fiber switch while unwinding");
    match (from, to) {
        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
        // SAFETY: forwarded from this function's contract.
        (Fiber::Stack(from), Fiber::Stack(to)) => unsafe { stack::switch(from, to) },
        #[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
        (Fiber::Thread(from), Fiber::Thread(to)) => thread::switch(from, to),
        #[cfg(all(test, target_arch = "x86_64", target_os = "linux"))]
        _ => unreachable!("switch between fibers of different kinds"),
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod stack {
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    use super::{Body, Fiber};

    // Declared here rather than through the `libc` crate: desim does not
    // otherwise depend on it, and four calls do not justify one. Values
    // are x86_64 Linux's.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
    const PROT_NONE: i32 = 0;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MAP_NORESERVE: i32 = 0x4000;
    const MAP_STACK: i32 = 0x20000;
    const MADV_GUARD_INSTALL: i32 = 102;
    const PAGE: usize = 4096;

    /// Default MXCSR (all exceptions masked, round to nearest) and x87
    /// control word (extended precision, all exceptions masked) of the
    /// SysV ABI, loaded by a fiber's first switch.
    const MXCSR_FCW: usize = 0x1F80 | (0x037F << 32);

    /// A fiber's saved stack pointer, and the thread it may run on.
    #[derive(Default)]
    pub(crate) struct Slot {
        sp: AtomicUsize,
        /// [`thread_mark`] of the world's thread; 0 until bound.
        host: AtomicUsize,
        /// Set by the fiber's last switch: its stack is free to unmap.
        exited: AtomicBool,
    }

    impl Slot {
        pub(super) fn bind(&self) {
            self.host.store(thread_mark(), Ordering::Relaxed);
        }
    }

    /// An address unique to the calling thread while it lives.
    fn thread_mark() -> usize {
        thread_local!(static MARK: u8 = const { 0 });
        MARK.with(|m| m as *const u8 as usize)
    }

    /// One fiber's stack mapping: a guard page, then the stack.
    pub(crate) struct Stack {
        base: *mut c_void,
        len: usize,
        slot: *const Slot,
    }

    impl Drop for Stack {
        fn drop(&mut self) {
            // SAFETY: `slot` outlives the stack (the kernel owns it).
            if unsafe { (*self.slot).exited.load(Ordering::Relaxed) } {
                // SAFETY: the mapping is ours, and nothing runs on it any
                // more. A fiber that never exited (a launch failed part
                // way) keeps its stack: leaked, never unmapped under frames
                // that may still be referenced.
                unsafe { munmap(self.base, self.len) };
            }
        }
    }

    struct Start {
        slot: *const Slot,
        body: Body,
    }

    pub(super) fn launch(slot: &Slot, stack_size: usize, body: Body) -> Stack {
        let size = stack_size.next_multiple_of(PAGE);
        let len = size + PAGE;
        // SAFETY: a fresh private anonymous mapping; no existing memory is
        // touched.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1,
            "fiber stack mmap of {len} bytes failed: {}",
            std::io::Error::last_os_error()
        );
        // The lowest page is the guard: an overflow faults (SIGSEGV)
        // instead of writing into whatever lies below. A guard region
        // (Linux 6.13+) costs no VMA of its own, so neighbouring stacks
        // merge into one mapping; older kernels split off a PROT_NONE page.
        // SAFETY: the page is the start of our own fresh mapping.
        let guarded = unsafe {
            madvise(base, PAGE, MADV_GUARD_INSTALL) == 0 || mprotect(base, PAGE, PROT_NONE) == 0
        };
        assert!(guarded, "fiber guard page failed: {}", std::io::Error::last_os_error());
        slot.bind();
        let start = Box::into_raw(Box::new(Start { slot, body }));
        // The first switch into the fiber pops this frame (see `swap`):
        // MXCSR/FCW, r15..r12, rbx = the start record, rbp = 0, then
        // returns into `trampoline`, which calls `entry` with a return
        // address of 0 above it.
        let top = base as usize + len;
        let frame: [usize; 9] =
            [MXCSR_FCW, 0, 0, 0, 0, start as usize, 0, trampoline as *const () as usize, 0];
        let sp = top - std::mem::size_of_val(&frame);
        // SAFETY: `sp..top` is the top of our writable mapping, and `top`
        // is page aligned, so the frame is aligned for usize.
        unsafe { std::ptr::copy_nonoverlapping(frame.as_ptr(), sp as *mut usize, frame.len()) };
        slot.sp.store(sp, Ordering::Relaxed);
        Stack { base, len, slot }
    }

    /// # Safety
    ///
    /// As [`super::switch`].
    pub(super) unsafe fn switch(from: &Slot, to: &Slot) {
        let here = thread_mark();
        assert!(
            from.host.load(Ordering::Relaxed) == here && to.host.load(Ordering::Relaxed) == here,
            "desim fibers switch only on the thread running their world"
        );
        // SAFETY: `to.sp` is a context saved by `swap` or built by
        // `launch` on a live stack (the caller's contract), and `from.sp`
        // is where ours is saved until someone resumes it.
        unsafe { swap(from.sp.as_ptr(), to.sp.load(Ordering::Relaxed)) }
    }

    /// Push the callee-saved state, store `rsp` to `*save`, load `rsp`
    /// from `load`, pop that side's state and return into it.
    #[unsafe(naked)]
    unsafe extern "C" fn swap(save: *mut usize, load: usize) {
        core::arch::naked_asm!(
            "push rbp",
            "push rbx",
            "push r12",
            "push r13",
            "push r14",
            "push r15",
            "sub rsp, 8",
            "stmxcsr [rsp]",
            "fnstcw [rsp + 4]",
            "mov [rdi], rsp",
            "mov rsp, rsi",
            "ldmxcsr [rsp]",
            "fldcw [rsp + 4]",
            "add rsp, 8",
            "pop r15",
            "pop r14",
            "pop r13",
            "pop r12",
            "pop rbx",
            "pop rbp",
            "ret",
        )
    }

    /// First code a fiber runs: `entry(rbx)`, jumped to so that the 0
    /// above it reads as `entry`'s return address.
    #[unsafe(naked)]
    unsafe extern "C" fn trampoline() {
        core::arch::naked_asm!("mov rdi, rbx", "jmp {entry}", entry = sym entry)
    }

    /// A fiber's outermost frame. `extern "C"`: an unwind escaping the
    /// body aborts here instead of walking into a frame that does not
    /// exist.
    extern "C" fn entry(start: *mut Start) -> ! {
        // SAFETY: `launch` leaked this box for exactly this call.
        let Start { slot, body } = *unsafe { Box::from_raw(start) };
        let next = body();
        // SAFETY: the kernel keeps every slot alive for the whole run and
        // returns a suspended fiber (or the runner) from the body.
        unsafe {
            (*slot).exited.store(true, Ordering::Relaxed);
            match &*next {
                Fiber::Stack(to) => switch(&*slot, to),
                #[allow(unreachable_patterns)]
                _ => unreachable!("stack fiber exited to a fiber of another kind"),
            }
        }
        unreachable!("an exited fiber was resumed")
    }
}

#[cfg(any(test, not(all(target_arch = "x86_64", target_os = "linux"))))]
mod thread {
    use std::sync::Arc;

    use parking_lot::{Condvar, Mutex};

    use super::{Body, Fiber};

    /// One-slot token a fiber's thread parks on, without the
    /// spurious-wakeup hazards of bare `thread::park`.
    #[derive(Default)]
    pub(crate) struct Token {
        flag: Mutex<bool>,
        cv: Condvar,
    }

    impl Token {
        /// Notify *after* the unlock: a wakee that preempts its waker must
        /// not run straight into a mutex the waker still holds (it would
        /// block there, and need a second wake-up once the waker unlocks).
        /// No wake is lost to the gap — the waiter checks the flag under
        /// this same mutex before every wait, so it either sees `true` or
        /// is already waiting when the notify comes — and the token
        /// outlives the late notify: the runner joins every fiber thread
        /// before the kernel that owns the tokens can drop.
        fn set(&self) {
            *self.flag.lock() = true;
            self.cv.notify_one();
        }

        fn wait(&self) {
            let mut f = self.flag.lock();
            while !*f {
                self.cv.wait(&mut f);
            }
            *f = false;
        }
    }

    pub(super) fn switch(from: &Token, to: &Token) {
        to.set();
        from.wait();
    }

    /// A fiber's OS thread, joined when dropped.
    pub(crate) struct Joined(Option<std::thread::JoinHandle<()>>);

    impl Drop for Joined {
        fn drop(&mut self) {
            // The process wrapper contains its own panics, so there is no
            // payload to propagate. While unwinding (a launch failed part
            // way), a fiber that never started would never return: detach.
            if let Some(h) = self.0.take().filter(|_| !std::thread::panicking()) {
                let _ = h.join();
            }
        }
    }

    pub(super) fn launch(me: Arc<Token>, stack_size: usize, body: Body) -> Joined {
        let run = move || {
            me.wait();
            let next = body();
            // SAFETY: the kernel keeps every slot alive until the runner
            // has joined this thread.
            match unsafe { &*next } {
                Fiber::Thread(to) => to.set(),
                #[allow(unreachable_patterns)]
                _ => unreachable!("thread fiber exited to a fiber of another kind"),
            }
        };
        let handle = std::thread::Builder::new()
            .stack_size(stack_size)
            .spawn(run)
            .expect("failed to spawn a simulation thread");
        Joined(Some(handle))
    }
}

/// The fiber battery. Every test runs once per implementation this host
/// has, so x86_64 Linux keeps the thread fallback tested too.
#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::Kind;
    use crate::{FaultPlan, SimConfig, SimDuration, SimError, SimOutcome, SimTime, Simulation};

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    const KINDS: [Kind; 2] = [Kind::Stack, Kind::Thread];
    #[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
    const KINDS: [Kind; 1] = [Kind::Thread];

    fn sim(kind: Kind, config: SimConfig) -> Simulation {
        Simulation::with_fibers(config, kind)
    }

    /// Counts its drops into a shared counter.
    struct Guard(Arc<AtomicUsize>);

    impl Drop for Guard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Integer and float state that lives across the nested calls, with a
    /// suspension at the bottom when `ctx` is given.
    fn descend(ctx: Option<&mut crate::Ctx>, depth: u32, seed: u64, x: f64) -> (u64, f64) {
        let a = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(depth);
        let b = a.rotate_left(17).wrapping_add(u64::from(depth) << 7);
        let c = b ^ (seed >> 3);
        let y = x * 1.000_001 + f64::from(depth);
        let (r, z) = match (depth, ctx) {
            (0, Some(ctx)) => {
                let at = ctx.now() + SimDuration::from_nanos(1 + seed % 97);
                ctx.wake_self_at(at);
                ctx.suspend("descend");
                (seed, x)
            }
            (0, None) => (seed, x),
            (_, ctx) => descend(ctx, depth - 1, c, y),
        };
        (r.wrapping_add(a ^ b ^ c), z + y * 0.5)
    }

    /// MXCSR's control bits (the sticky exception flags masked off).
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn mxcsr() -> u32 {
        let mut v = 0u32;
        // SAFETY: stores MXCSR to a local.
        unsafe { std::arch::asm!("stmxcsr [{}]", in(reg) &mut v, options(nostack)) };
        v & !0x3F
    }

    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    fn set_mxcsr(v: u32) {
        // SAFETY: loads a valid MXCSR (exceptions masked) from a local.
        unsafe { std::arch::asm!("ldmxcsr [{}]", in(reg) &v, options(nostack)) };
    }

    #[test]
    fn registers_survive_interleaved_switches() {
        const PROCS: u64 = 64;
        const ROUNDS: u64 = 1_600; // 64 x 1,600 > 10^5 suspensions
        for kind in KINDS {
            let checked = Arc::new(AtomicUsize::new(0));
            let mut s = sim(kind, SimConfig::default());
            for pid in 0..PROCS {
                let checked = checked.clone();
                s.spawn(format!("p{pid}"), move |ctx| {
                    // Odd processes round toward zero: the switch must
                    // carry MXCSR per fiber, not per thread.
                    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                    let (mode, saved) = (if pid % 2 == 1 { 0x7F80 } else { 0x1F80 }, mxcsr());
                    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                    set_mxcsr(mode);
                    for round in 0..ROUNDS {
                        let depth = ((pid * 7 + round * 3) % 13) as u32;
                        let seed = pid << 32 | round;
                        let x = (pid as f64).sqrt() / 3.0;
                        let want = descend(None, depth, seed, x);
                        let got = descend(Some(ctx), depth, seed, x);
                        assert_eq!(got.0, want.0, "{kind:?} pid {pid} round {round}");
                        assert_eq!(got.1.to_bits(), want.1.to_bits(), "{kind:?} pid {pid}");
                        #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                        assert_eq!(mxcsr(), mode, "{kind:?} pid {pid} round {round}");
                    }
                    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
                    set_mxcsr(saved);
                    checked.fetch_add(1, Ordering::SeqCst);
                });
            }
            let out = s.run_expect();
            assert_eq!(checked.load(Ordering::SeqCst), PROCS as usize, "{kind:?}");
            assert!(out.events.fired >= PROCS * ROUNDS, "{kind:?}: {:?}", out.events);
        }
    }

    /// A process that panics fails the run with its name and message, and
    /// every sibling — started and suspended, or never started — is
    /// unwound or dropped, so its destructors run.
    #[test]
    fn panic_fails_the_run_and_siblings_drop() {
        for kind in KINDS {
            for panicker in [0, 3] {
                let drops = Arc::new(AtomicUsize::new(0));
                let mut s = sim(kind, SimConfig::default());
                for pid in 0..8 {
                    let guard = Guard(drops.clone());
                    s.spawn(format!("p{pid}"), move |ctx| {
                        let _guard = guard;
                        if pid == panicker {
                            ctx.advance(SimDuration::from_micros(pid as u64));
                            panic!("boom");
                        }
                        loop {
                            ctx.advance(SimDuration::from_micros(1));
                        }
                    });
                }
                let err = s.run().expect_err("a panicking process fails the run");
                assert_eq!(
                    err.0,
                    format!("process {panicker} `p{panicker}` panicked: boom"),
                    "{kind:?}"
                );
                assert_eq!(drops.load(Ordering::SeqCst), 8, "{kind:?} panicker {panicker}");
            }
        }
    }

    #[test]
    fn deadlock_abort_unwinds_every_live_fiber() {
        for kind in KINDS {
            let drops = Arc::new(AtomicUsize::new(0));
            let mut s = sim(kind, SimConfig::default());
            for pid in 0..16u64 {
                let drops = drops.clone();
                s.spawn(format!("p{pid}"), move |ctx| {
                    let _guard = Guard(drops);
                    ctx.advance(SimDuration::from_micros(pid));
                    ctx.suspend("a wake-up nobody sends");
                });
            }
            let SimError(msg) = s.run().expect_err("everyone waits forever");
            assert!(msg.starts_with("deadlock: no scheduled events"), "{kind:?}: {msg}");
            assert!(msg.contains("pid 15 `p15` blocked on: a wake-up nobody sends"), "{msg}");
            assert_eq!(drops.load(Ordering::SeqCst), 16, "{kind:?}");
        }
    }

    #[test]
    fn fault_kill_mid_advance_and_mid_suspend() {
        for kind in KINDS {
            let plan = FaultPlan::new(7).kill(1, SimTime(5_000)).kill(2, SimTime(5_000));
            let mut s = sim(kind, SimConfig { fault_plan: plan, ..SimConfig::default() });
            let drops = Arc::new(AtomicUsize::new(0));
            s.spawn("survivor", |ctx| ctx.advance(SimDuration::from_micros(20)));
            let guard = Guard(drops.clone());
            s.spawn("advancing", move |ctx| {
                let _guard = guard;
                ctx.advance(SimDuration::from_micros(10));
                unreachable!("killed mid-advance");
            });
            let guard = Guard(drops.clone());
            s.spawn("suspended", move |ctx| {
                let _guard = guard;
                let until = SimTime(100_000);
                ctx.wake_self_at(until);
                while ctx.now() < until {
                    ctx.suspend("sleeping");
                }
                unreachable!("killed mid-suspend");
            });
            let out: SimOutcome = s.run().unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert_eq!(out.killed, vec![1, 2], "{kind:?}");
            assert_eq!(out.proc_stats[1].finished_at, SimTime(5_000));
            assert_eq!(out.proc_stats[2].finished_at, SimTime(5_000));
            assert_eq!(out.end_time, SimTime(20_000));
            assert_eq!(drops.load(Ordering::SeqCst), 2, "{kind:?}");
        }
    }

    /// Many fibers run and exit, on stacks far smaller than asked for being
    /// possible: a request below [`super::MIN_STACK`] is clamped, and a
    /// panic still has room to be reported.
    #[test]
    fn tiny_stack_request_is_clamped() {
        for kind in KINDS {
            let ran = Arc::new(AtomicUsize::new(0));
            let mut s = sim(kind, SimConfig { stack_size: 1, ..SimConfig::default() });
            for pid in 0..256u64 {
                let ran = ran.clone();
                s.spawn(format!("p{pid}"), move |ctx| {
                    let scratch = std::hint::black_box([pid as u8; 16 * 1024]);
                    ctx.advance(SimDuration::from_nanos(1 + pid % 5));
                    ran.fetch_add(
                        usize::from(scratch[pid as usize % 1024] == pid as u8),
                        Ordering::SeqCst,
                    );
                });
            }
            assert_eq!(s.run_expect().end_time, SimTime(5), "{kind:?}");
            assert_eq!(ran.load(Ordering::SeqCst), 256, "{kind:?}");

            let mut s = sim(kind, SimConfig { stack_size: 1, ..SimConfig::default() });
            s.spawn("small", |_| panic!("on a small stack"));
            let SimError(msg) = s.run().expect_err("the panic is reported");
            assert_eq!(msg, "process 0 `small` panicked: on a small stack", "{kind:?}");
        }
    }

    /// The mapped address space of this process: `/proc/self/maps` lines
    /// and bytes.
    fn mappings() -> (usize, u64) {
        let maps = std::fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let bytes = maps
            .lines()
            .map(|l| {
                let range = l.split(' ').next().expect("an address range");
                let (lo, hi) = range.split_once('-').expect("lo-hi");
                u64::from_str_radix(hi, 16).unwrap() - u64::from_str_radix(lo, 16).unwrap()
            })
            .sum();
        (maps.lines().count(), bytes)
    }

    fn small_world(kind: Kind) {
        let mut s = sim(kind, SimConfig { stack_size: 64 * 1024, ..SimConfig::default() });
        for pid in 0..32u64 {
            s.spawn(format!("p{pid}"), move |ctx| {
                for _ in 0..4 {
                    ctx.advance(SimDuration::from_nanos(1 + pid % 3));
                }
            });
        }
        s.run_expect();
    }

    /// 1,000 consecutive 32-rank worlds leave the address space as they
    /// found it: every stack is unmapped. Runs in a child process, where no
    /// other test maps memory meanwhile.
    #[test]
    #[cfg(target_os = "linux")]
    fn stacks_are_unmapped_after_each_world() {
        const CHILD: &str = "DESIM_FIBER_VMA_CHILD";
        if std::env::var_os(CHILD).is_none() {
            let out = std::process::Command::new(std::env::current_exe().unwrap())
                .args(["--exact", "fiber::tests::stacks_are_unmapped_after_each_world"])
                .args(["--nocapture", "--test-threads=1"])
                .env(CHILD, "1")
                .output()
                .expect("re-run this test alone");
            let log = String::from_utf8_lossy(&out.stdout).into_owned()
                + &String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "child failed:\n{log}");
            assert!(log.contains("1 passed"), "the child ran no test:\n{log}");
            return;
        }
        for kind in KINDS {
            // Warm-up: lazily created runtime state (the panic hook, a
            // malloc arena, glibc's cached thread stacks) stays mapped.
            for _ in 0..8 {
                small_world(kind);
            }
            let before = mappings();
            for _ in 0..1_000 {
                small_world(kind);
            }
            assert_eq!(mappings(), before, "{kind:?}: (maps lines, mapped bytes)");
        }
    }

    /// Two worlds on two `desim::sweep` workers at once: each runs its
    /// fibers on its own thread, and both compute what they compute alone.
    #[test]
    fn worlds_run_concurrently_on_sweep_workers() {
        use rand::Rng;
        for kind in KINDS {
            let started = Arc::new(AtomicUsize::new(0));
            let overlap = crate::sweep::jobs() >= 2;
            let run = |seed: u64| {
                let mut s = sim(kind, SimConfig { seed, ..SimConfig::default() });
                let started = started.clone();
                s.spawn("rendezvous", move |ctx| {
                    // With two workers, hold this world open until the
                    // other one has started, so they really overlap.
                    started.fetch_add(1, Ordering::SeqCst);
                    let t0 = std::time::Instant::now();
                    while overlap && started.load(Ordering::SeqCst) < 2 {
                        assert!(t0.elapsed().as_secs() < 30, "the other world never started");
                        std::hint::spin_loop();
                    }
                    ctx.advance(SimDuration::from_nanos(1));
                });
                for p in 0..16u64 {
                    s.spawn(format!("p{p}"), move |ctx| {
                        for _ in 0..200 {
                            let jitter = ctx.rng().gen_range(0u64..1_000);
                            ctx.advance(SimDuration::from_nanos(1_000 + jitter + p));
                        }
                    });
                }
                let out = s.run_expect();
                (out.end_time, out.events.fired)
            };
            let parallel = crate::sweep::par_map(vec![11u64, 12], run);
            started.store(2, Ordering::SeqCst);
            let serial: Vec<_> = [11u64, 12].into_iter().map(run).collect();
            assert_eq!(parallel, serial, "{kind:?}");
        }
    }
}
