//! Stackful-fiber primitives for the single-OS-thread execution engine
//! (x86_64 Linux only; `machine.rs` uses OS threads elsewhere).
//!
//! A fiber is a call stack plus a saved stack pointer. Switching parks
//! the current computation by pushing the SysV callee-saved registers
//! (rbx, rbp, r12–r15) onto its stack, storing `rsp` into the
//! suspended-context slot, and resuming another context by the mirror
//! sequence. Caller-saved registers need no help — the switch is an
//! ordinary `extern "C"` call, so the compiler has already spilled
//! anything live across it. The x87 control word and MXCSR are *not*
//! saved: nothing in the simulator changes rounding or exception masks,
//! so both are constant machine-wide.
//!
//! Switching costs a few dozen nanoseconds. The OS-thread engine pays a
//! park/unpark (microseconds, plus a full scheduler trip on a
//! single-CPU host) for exactly the same handoff; that gap is the whole
//! reason this module exists.
//!
//! # Soundness
//!
//! * **Switch.** A context is resumed at most once per suspension: the
//!   machine resumes a worker only after popping it from its queue, and
//!   the driver only from the last exit (`machine.rs`, "Safety"). The
//!   switch is an opaque `extern "C"` call, so the compiler treats it
//!   like any call that may read and write all escaped memory.
//! * **No unwinding across a switch.** The machine's fiber bodies run
//!   under `catch_unwind`; a resumed fiber that must die raises its
//!   panic on its own stack. The first-entry trampoline never returns
//!   (`ud2`), and the entry function aborts if its job ever does.
//! * **Stacks.** Each stack is its own anonymous mapping whose lowest
//!   page is `PROT_NONE`. Rust probes every frame larger than a page,
//!   so an overflow faults on the guard page (SIGSEGV, as on an
//!   overflowing OS thread) instead of writing into a neighbouring
//!   allocation. The mapping is freed only after every fiber on it has
//!   exited (`run_fibers` drops the stacks after the driver resumes).

use std::ffi::{c_int, c_void};

/// Usable fiber stack size. Matches the 2 MiB default of `std::thread`,
/// which the OS-thread engine grants every simulated thread; the
/// red-black-tree workloads recurse and were sized against that.
pub(crate) const STACK_BYTES: usize = 2 * 1024 * 1024;

/// The guard page below each stack (the x86_64 Linux page size).
const GUARD_BYTES: usize = 4096;

/// Entry signature a prepared stack starts in. The function must never
/// return — the word above its frame is a trap, not a return address.
pub(crate) type Entry = extern "C" fn(*mut u8) -> !;

// The context switch and the first-entry trampoline.
//
// `flextm_sim_fiber_switch(save: *mut u64 /* rdi */, resume: u64 /* rsi */)`
// pushes the callee-saved registers, stores rsp through `save`, installs
// `resume` as rsp, pops, and returns — on the *resumed* stack. A
// suspended context is therefore always "rsp of a stack whose top holds
// r15, r14, r13, r12, rbx, rbp, return-address", which is exactly what
// `StackLayout::prepare` forges for first entry.
//
// `flextm_sim_fiber_start` is the forged return target of that first
// entry: the prepared frame loads the task pointer into r12 and the
// entry function into r13 (callee-saved, so the switch restores them),
// and the trampoline moves them into place for a normal SysV call. The
// `call` (not `jmp`) keeps the entry 16-byte stack-aligned; `ud2` traps
// if the never-returning entry ever returns.
#[allow(unsafe_code)]
mod asm {
    core::arch::global_asm!(
        ".balign 16",
        ".globl flextm_sim_fiber_switch",
        ".hidden flextm_sim_fiber_switch",
        "flextm_sim_fiber_switch:",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".balign 16",
        ".globl flextm_sim_fiber_start",
        ".hidden flextm_sim_fiber_start",
        "flextm_sim_fiber_start:",
        "mov rdi, r12",
        "call r13",
        "ud2",
    );
}

extern "C" {
    /// Suspends the current context into `*save` and resumes `resume`.
    ///
    /// # Safety
    ///
    /// `resume` must be a context produced by this same function (or by
    /// [`FiberStack::prepare`]) that has not been resumed since, and its
    /// stack must still be allocated. `save` must be valid for writes
    /// and is the only record of the suspended computation — resuming it
    /// twice, or never, leaks or corrupts the stack above it.
    pub(crate) fn flextm_sim_fiber_switch(save: *mut u64, resume: u64);

    fn flextm_sim_fiber_start() -> !;
}

// Linux x86_64 values; std already links libc.
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_STACK: c_int = 0x2_0000;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}

/// A fiber stack: an anonymous mapping of a guard page plus
/// [`STACK_BYTES`]. Pages are zero-filled on first touch, so an unused
/// stack costs no resident memory. Unmapped on drop; the owner must
/// ensure no suspended context still points into it (the machine's
/// driver outlives every fiber of a run).
pub(crate) struct FiberStack {
    base: *mut u8,
}

impl FiberStack {
    const MAP_BYTES: usize = GUARD_BYTES + STACK_BYTES;

    pub(crate) fn new() -> Self {
        // SAFETY: a fresh private anonymous mapping aliases nothing;
        // the result is checked before use.
        #[allow(unsafe_code)]
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                Self::MAP_BYTES,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK,
                -1,
                0,
            )
        };
        // MAP_FAILED is (void*)-1.
        assert!(
            base as isize != -1,
            "fiber stack mmap failed: {}",
            std::io::Error::last_os_error()
        );
        // Owned from here on, so a failed `mprotect` still unmaps it.
        let stack = FiberStack { base: base.cast() };
        // SAFETY: the first page lies inside the mapping just created.
        #[allow(unsafe_code)]
        let rc = unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) };
        assert!(
            rc == 0,
            "fiber stack guard page failed: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// Forges the initial suspended context: resuming the returned rsp
    /// runs `entry(arg)` on this stack. Layout, from the returned rsp
    /// upwards, mirroring what the switch pops:
    ///
    /// ```text
    /// [0] r15 = 0
    /// [1] r14 = 0
    /// [2] r13 = entry          (trampoline calls it)
    /// [3] r12 = arg            (trampoline moves it to rdi)
    /// [4] rbx = 0
    /// [5] rbp = 0              (terminates frame-pointer walks)
    /// [6] ret = fiber_start    (the trampoline)
    /// ```
    ///
    /// The rsp sits 56 bytes below the page-aligned stack top, so after
    /// the pops and the `ret` the trampoline runs 16-aligned and its
    /// `call` gives `entry` a standard SysV frame.
    pub(crate) fn prepare(&self, entry: Entry, arg: *mut u8) -> u64 {
        let top = self.base as u64 + Self::MAP_BYTES as u64;
        let rsp = top - 7 * 8;
        // SAFETY: the seven slots lie inside this stack's writable
        // pages, just below its top, and u64 stores at 8-byte offsets
        // from a page-aligned top are aligned.
        #[allow(unsafe_code)]
        unsafe {
            let slot = rsp as *mut u64;
            slot.add(0).write(0); // r15
            slot.add(1).write(0); // r14
            slot.add(2).write(entry as usize as u64); // r13
            slot.add(3).write(arg as u64); // r12
            slot.add(4).write(0); // rbx
            slot.add(5).write(0); // rbp
            slot.add(6)
                .write(flextm_sim_fiber_start as *const () as u64);
        }
        rsp
    }
}

impl Drop for FiberStack {
    fn drop(&mut self) {
        // SAFETY: `base` is the mapping `new` created, with this length,
        // and no fiber runs on it any more (type doc).
        #[allow(unsafe_code)]
        let rc = unsafe { munmap(self.base.cast(), Self::MAP_BYTES) };
        debug_assert_eq!(rc, 0, "fiber stack munmap failed");
    }
}
