//! A sampling profiler for any program of this repository, loaded with
//! `LD_PRELOAD`; it needs nothing beyond std.
//!
//! When the environment names an output file in `LP_PROFILE_OUT`, the
//! library arms `setitimer(ITIMER_PROF)` at 1 ms of process CPU time
//! as it loads; the kernel delivers the signal at most once per
//! scheduler tick, so samples may come less often. Each `SIGPROF`
//! stores the interrupted program counter in a preallocated buffer, so
//! the handler neither allocates nor locks.
//! When the process exits, the library writes the output file:
//!
//! ```text
//! exe <path of the executable>
//! module <load bias> <first address> <end address> <path>
//! ...
//! samples <count> dropped <count>
//! <program counter>
//! ...
//! ```
//!
//! Every number is hexadecimal. The first `module` line is the executable
//! itself; an address minus its module's load bias is the address in
//! that file, as `addr2line` reads it. The profiler acts only on the
//! process it is loaded into: the variable is removed from the
//! environment, so child processes are not profiled.
//! `tools/profile.py` runs a command under the library and symbolizes
//! the samples.

use std::ffi::{c_char, c_int, c_long, c_void, CStr};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
compile_error!("the sampler reads the interrupted PC of x86-64 Linux only");

/// Samples kept: 2²⁰, at least 17 minutes of CPU time at one per
/// millisecond; later ones are counted as dropped.
const CAPACITY: usize = 1 << 20;

static SAMPLES: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static OUT: OnceLock<String> = OnceLock::new();

const SIGPROF: c_int = 27;
const ITIMER_PROF: c_int = 2;
const SA_SIGINFO: c_int = 4;
const SA_RESTART: c_int = 0x1000_0000;
/// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
/// `ucontext_t`: `uc_flags`, `uc_link` and the 24-byte `uc_stack` come
/// first, and `REG_RIP` is register 16.
const RIP_OFFSET: usize = 8 + 8 + 24 + 16 * 8;

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

/// glibc's x86-64 `struct sigaction`.
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: c_int,
    restorer: usize,
}

/// glibc's `struct dl_phdr_info`, as far as it is read here.
#[repr(C)]
struct DlPhdrInfo {
    addr: usize,
    name: *const c_char,
    phdr: *const Elf64Phdr,
    phnum: u16,
}

#[repr(C)]
struct Elf64Phdr {
    kind: u32,
    flags: u32,
    offset: u64,
    vaddr: u64,
    paddr: u64,
    filesz: u64,
    memsz: u64,
    align: u64,
}

const PT_LOAD: u32 = 1;

extern "C" {
    fn setitimer(which: c_int, new: *const Itimerval, old: *mut Itimerval) -> c_int;
    fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
    fn atexit(f: extern "C" fn()) -> c_int;
    fn dl_iterate_phdr(
        cb: extern "C" fn(*mut DlPhdrInfo, usize, *mut c_void) -> c_int,
        data: *mut c_void,
    ) -> c_int;
}

/// The `SIGPROF` handler: record the interrupted PC. Async-signal-safe:
/// one atomic increment and one atomic store. `Relaxed` is enough: each
/// slot is an atomic of its own, and `finish` reads them after the timer
/// is stopped, on the thread that exits, after the program joined its
/// other threads.
extern "C" fn on_sigprof(_sig: c_int, _info: *mut c_void, ctx: *mut c_void) {
    // SAFETY: the kernel passes a valid `ucontext_t` to an SA_SIGINFO
    // handler, and RIP_OFFSET is the offset of its saved RIP.
    let pc = unsafe {
        ctx.cast::<u8>()
            .add(RIP_OFFSET)
            .cast::<u64>()
            .read_unaligned()
    };
    let i = TAKEN.fetch_add(1, Ordering::Relaxed);
    if i < CAPACITY {
        SAMPLES[i].store(pc, Ordering::Relaxed);
    }
}

fn set_timer(usec: c_long) {
    let t = Itimerval {
        interval: Timeval { sec: 0, usec },
        value: Timeval { sec: 0, usec },
    };
    // SAFETY: valid pointers to a local struct; the old value is unused.
    unsafe { setitimer(ITIMER_PROF, &t, std::ptr::null_mut()) };
}

/// Runs as the library loads, before `main`.
extern "C" fn start() {
    let Some(out) = std::env::var_os("LP_PROFILE_OUT") else {
        return;
    };
    // SAFETY: this runs while the process is still single-threaded.
    unsafe { std::env::remove_var("LP_PROFILE_OUT") };
    let _ = OUT.set(out.to_string_lossy().into_owned());
    let act = SigAction {
        handler: on_sigprof as *const () as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    // SAFETY: `act` is a valid sigaction for a handler with the
    // SA_SIGINFO signature; `finish` is a plain function.
    unsafe {
        sigaction(SIGPROF, &act, std::ptr::null_mut());
        atexit(finish);
    }
    set_timer(1000);
}

#[used]
#[link_section = ".init_array"]
static START: extern "C" fn() = start;

extern "C" fn add_module(info: *mut DlPhdrInfo, _size: usize, data: *mut c_void) -> c_int {
    // SAFETY: dl_iterate_phdr passes a valid info record, and `data` is
    // the String `finish` handed it.
    let (info, text) = unsafe { (&*info, &mut *data.cast::<String>()) };
    // SAFETY: phdr points at phnum program headers.
    let phdrs = unsafe { std::slice::from_raw_parts(info.phdr, usize::from(info.phnum)) };
    let loads = phdrs.iter().filter(|p| p.kind == PT_LOAD);
    let lo = loads.clone().map(|p| p.vaddr).min().unwrap_or(0);
    let hi = loads.map(|p| p.vaddr + p.memsz).max().unwrap_or(0);
    let name = if info.name.is_null() {
        String::new()
    } else {
        // SAFETY: a non-null name is a NUL-terminated C string.
        unsafe { CStr::from_ptr(info.name) }
            .to_string_lossy()
            .into_owned()
    };
    let base = info.addr as u64;
    let _ = writeln!(
        text,
        "module {base:x} {:x} {:x} {name}",
        base + lo,
        base + hi
    );
    0
}

/// Runs at exit: stop the timer and write the samples.
extern "C" fn finish() {
    set_timer(0);
    let Some(out) = OUT.get() else { return };
    let exe = std::env::current_exe()
        .map(|p| p.display().to_string())
        .unwrap_or_default();
    let mut text = format!("exe {exe}\n");
    // SAFETY: `add_module` is called synchronously with `&mut text`.
    unsafe { dl_iterate_phdr(add_module, (&raw mut text).cast()) };
    let taken = TAKEN.load(Ordering::Relaxed);
    let kept = taken.min(CAPACITY);
    let _ = writeln!(text, "samples {kept:x} dropped {:x}", taken - kept);
    for s in &SAMPLES[..kept] {
        let _ = writeln!(text, "{:x}", s.load(Ordering::Relaxed));
    }
    if let Err(e) = std::fs::write(out, text) {
        eprintln!("lp-sampler: cannot write {out}: {e}");
    }
}
