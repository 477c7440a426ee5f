//! Stackful coroutines for [`crate::run_roots`]: a guard-paged stack per
//! task and a hand-written x86_64 context switch.
//!
//! A switch pushes the six callee-saved registers of the System V ABI
//! onto the stack it leaves, stores that stack pointer, loads the other
//! one and pops its registers: a function call that returns on another
//! stack. Every other register the ABI lets a callee clobber, the
//! compiler has saved around the call. The floating-point control words
//! (MXCSR, x87) are not switched: nothing in the workspace changes them.
//!
//! A fresh stack is laid out as if a switch had left it: six register
//! slots (`r12` holding the entry's argument, `r13` the entry, `rbp`
//! zero), then the address of the start trampoline, which calls the
//! entry. The trampoline's unwind info marks the return address
//! undefined (`.cfi_undefined rip`) and its frame sits on a zero frame
//! pointer and a zero return address, so a backtrace ends there.
//!
//! Overflowing a stack runs into its guard page and the process dies of
//! `SIGSEGV`: the standard library's "has overflowed its stack" message
//! covers only the stacks of the threads it made.
//!
//! A stack outlives the run that mapped it: when a run ends its stacks go
//! to one process-wide list, [`RETIRED`], and the next run's spawns take
//! them from there before they map new ones. A stack is reused as it was
//! left — guard page still `PROT_NONE`, touched pages still resident —
//! and [`Stack::start`] lays a fresh frame over whatever ran on it.

use std::arch::global_asm;
use std::ffi::c_void;
use std::ptr::{null_mut, NonNull};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bytes of stack per coroutine. Reserved with `MAP_NORESERVE`: a task
/// costs the pages it touches, not the reservation.
const STACK_BYTES: usize = 1 << 20;
/// The guard page below each stack (x86_64 Linux pages are 4 KiB).
const GUARD_BYTES: usize = 4096;

/// Stacks no run holds. Bounded by the most stacks the process's runs
/// held at once: a run takes from it before it maps, and gives back only
/// what it took or mapped.
static RETIRED: Mutex<Vec<Stack>> = Mutex::new(Vec::new());
/// Stacks mapped since the process started ([`crate::stacks_mapped`]).
pub(crate) static MAPPED: AtomicU64 = AtomicU64::new(0);

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
const MAP_STACK: i32 = 0x2_0000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn scimpi_sched_switch(save: *mut *mut u8, to: *mut u8);
    fn scimpi_sched_start();
}

global_asm!(
    ".text",
    ".p2align 4",
    ".globl scimpi_sched_switch",
    ".hidden scimpi_sched_switch",
    ".type scimpi_sched_switch, @function",
    "scimpi_sched_switch:",
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
    ".size scimpi_sched_switch, . - scimpi_sched_switch",
    "",
    ".p2align 4",
    ".globl scimpi_sched_start",
    ".hidden scimpi_sched_start",
    ".type scimpi_sched_start, @function",
    "scimpi_sched_start:",
    ".cfi_startproc",
    ".cfi_undefined rip",
    "mov rdi, r12",
    "call r13",
    "ud2",
    ".cfi_endproc",
    ".size scimpi_sched_start, . - scimpi_sched_start",
);

/// Switch stacks: store the current stack pointer in `*save` and resume
/// the stack at `to`. Returns when another switch resumes `*save`.
///
/// # Safety
///
/// `to` was stored by a switch, or laid out by [`Stack::start`], and has
/// not been resumed since; its stack is still mapped.
pub(crate) unsafe fn switch(save: *mut *mut u8, to: *mut u8) {
    scimpi_sched_switch(save, to);
}

/// One coroutine stack: [`STACK_BYTES`] above a `PROT_NONE` guard page.
pub(crate) struct Stack {
    base: NonNull<c_void>,
}

// SAFETY: a mapping belongs to no thread; its contents are touched only
// by the thread that runs the coroutine on it.
unsafe impl Send for Stack {}

impl Stack {
    /// A retired stack if the process has one, else a fresh one.
    pub(crate) fn take() -> Stack {
        let retired = crate::relock(RETIRED.lock()).pop();
        retired.unwrap_or_else(Stack::new)
    }

    /// Keep `stacks` mapped for the process's next spawns, leaving
    /// `stacks` empty.
    pub(crate) fn retire(stacks: &mut Vec<Stack>) {
        crate::relock(RETIRED.lock()).append(stacks);
    }

    /// Map a fresh stack. Panics if the kernel refuses.
    fn new() -> Stack {
        let len = GUARD_BYTES + STACK_BYTES;
        let (prot, flags) = (
            PROT_READ | PROT_WRITE,
            MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
        );
        // SAFETY: a fresh anonymous mapping aliases nothing.
        let base = unsafe { mmap(null_mut(), len, prot, flags, -1, 0) };
        if base as isize == -1 {
            panic!(
                "mmap of a coroutine stack: {}",
                std::io::Error::last_os_error()
            );
        }
        // SAFETY: the lowest page of the mapping just made.
        if unsafe { mprotect(base, GUARD_BYTES, PROT_NONE) } != 0 {
            panic!(
                "guard page of a coroutine stack: {}",
                std::io::Error::last_os_error()
            );
        }
        MAPPED.fetch_add(1, Ordering::Relaxed);
        Stack {
            base: NonNull::new(base).expect("mmap returned a null mapping"),
        }
    }

    /// Lay out a start frame that runs `entry(arg)` on this stack once a
    /// switch resumes the returned stack pointer. Whatever ran on the
    /// stack before is gone.
    pub(crate) fn start(
        &self,
        entry: extern "C" fn(*const c_void) -> !,
        arg: *const c_void,
    ) -> *mut u8 {
        let trampoline = scimpi_sched_start as unsafe extern "C" fn() as usize;
        // From the lowest address: the registers a switch pops (r15, r14,
        // r13 = entry, r12 = arg, rbx, rbp = 0, ending the frame-pointer
        // chain), the address its `ret` takes, the trampoline's zero
        // return address, and a pad word that makes `call r13` leave the
        // entry with the ABI's stack alignment.
        let frame = [0, 0, entry as usize, arg as usize, 0, 0, trampoline, 0, 0];
        let top = self.base.as_ptr() as usize + GUARD_BYTES + STACK_BYTES;
        let sp = (top - std::mem::size_of_val(&frame)) as *mut usize;
        // SAFETY: the top 72 bytes of the mapping, 8-aligned.
        unsafe { sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len()) };
        sp.cast()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: the mapping `new` made; no coroutine runs on it any more.
        unsafe { munmap(self.base.as_ptr(), GUARD_BYTES + STACK_BYTES) };
    }
}
