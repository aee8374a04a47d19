//! A SIGPROF sampling profiler for hosts with no `perf`: every
//! millisecond of process CPU time the handler records the interrupted
//! instruction pointer and up to [`FRAMES`] frame-pointer return addresses
//! into a preallocated buffer. [`stop_and_write`] dumps raw addresses plus
//! `/proc/self/maps`; EXPERIMENTS.md has the `addr2line` recipe that turns
//! the dump into self-time and inclusive tables.
//!
//! Linux on x86-64 only: the register offsets below are the kernel's
//! signal-frame layout for that target. Callers of more than the leaf are
//! only meaningful in a build with `-Cforce-frame-pointers=yes`; without
//! it the walk records whatever `rbp` happens to hold (it never reads
//! outside the sampled thread's stack).
//!
//! All of the crate's `unsafe` is in this file.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Return addresses recorded above the interrupted instruction.
const FRAMES: usize = 8;
/// Words per sample: the instruction pointer, then the frames (0-padded).
const WORDS: usize = 1 + FRAMES;
/// Buffer capacity in samples (65 s of CPU at the 1 kHz rate; 4.5 MiB of
/// `.bss`, untouched until used).
const MAX_SAMPLES: usize = 1 << 16;
const INTERVAL_US: i64 = 1_000;

static BUF: [AtomicUsize; MAX_SAMPLES * WORDS] =
    [const { AtomicUsize::new(0) }; MAX_SAMPLES * WORDS];
/// Samples the handler has claimed (may run past `MAX_SAMPLES`: the
/// excess was dropped).
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// Kernel id of the thread that called [`start`], the only one whose
/// frames are walked, and the end of the mapping that holds its stack.
static PROFILED_TID: AtomicUsize = AtomicUsize::new(0);
static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
const SYS_GETTID: i64 = 186;

/// Byte offsets into the `ucontext_t` a `SA_SIGINFO` handler receives:
/// `uc_flags` (8), `uc_link` (8), `uc_stack` (24), then the saved
/// registers in `sigcontext` order (r8–r15, rdi, rsi, rbp, rbx, rdx, rax,
/// rcx, rsp, rip).
const UC_GREGS: usize = 40;
const UC_RBP: usize = UC_GREGS + 10 * 8;
const UC_RSP: usize = UC_GREGS + 15 * 8;
const UC_RIP: usize = UC_GREGS + 16 * 8;

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Itimerval {
    interval: Timeval,
    value: Timeval,
}

/// `struct sigaction` as glibc and musl lay it out on x86-64.
#[repr(C)]
struct Sigaction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

extern "C" {
    fn sigaction(signum: i32, act: *const Sigaction, old: *mut Sigaction) -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    fn syscall(number: i64, ...) -> i64;
}

fn gettid() -> usize {
    // SAFETY: `gettid` takes no arguments, touches no memory and cannot
    // fail; the raw system call is async-signal-safe.
    unsafe { syscall(SYS_GETTID) as usize }
}

/// The SIGPROF handler. Async-signal-safe: lock-free atomics, plain loads
/// and one `gettid` system call; no allocation, no locks.
extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, ctx: *mut u8) {
    let reg = |offset: usize| -> usize {
        // SAFETY: the kernel passes a `SA_SIGINFO` handler a pointer to a
        // live `ucontext_t`; the three offsets used are inside its saved
        // general registers on Linux x86-64 (layout above) and 8-aligned.
        unsafe { ctx.add(offset).cast::<usize>().read() }
    };
    let i = TAKEN.fetch_add(1, Ordering::Relaxed);
    if i >= MAX_SAMPLES {
        return;
    }
    let slot = &BUF[i * WORDS..(i + 1) * WORDS];
    slot[0].store(reg(UC_RIP), Ordering::Relaxed);
    // Only the thread that called `start` has known stack bounds; any
    // other thread's sample is its instruction pointer alone.
    let mut walking = gettid() == PROFILED_TID.load(Ordering::Relaxed);
    let top = STACK_TOP.load(Ordering::Relaxed);
    let (mut fp, mut floor) = (reg(UC_RBP), reg(UC_RSP));
    for word in &slot[1..] {
        // A frame record is two words at `fp`, above the stack pointer
        // and inside the mapped stack; each caller's record lies higher.
        // Anything else (a frame-pointer-less build, the end of the
        // chain) ends the walk, and the rest of the slot reads 0.
        walking = walking && fp % 8 == 0 && fp >= floor && fp.saturating_add(16) <= top;
        let mut ret = 0;
        if walking {
            // SAFETY: `[fp, fp + 16)` is 8-aligned and lies in `[rsp,
            // top)` of the thread that called `start`, which is mapped
            // readable: a stack is mapped from its pointer up, and `top`
            // is the end of the mapping that held one of its locals.
            let caller_fp = unsafe {
                let rec = fp as *const usize;
                ret = rec.add(1).read();
                rec.read()
            };
            floor = fp + 16;
            fp = caller_fp;
        }
        word.store(ret, Ordering::Relaxed);
    }
}

fn set_timer(interval_us: i64) -> Result<(), String> {
    let tick = || Timeval {
        sec: 0,
        usec: interval_us,
    };
    let timer = Itimerval {
        interval: tick(),
        value: tick(),
    };
    // SAFETY: `timer` is a valid `struct itimerval` for the duration of
    // the call, and a null `old` asks for nothing back.
    let rc = unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "setitimer(ITIMER_PROF): {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// End of the mapping of `/proc/self/maps` that contains `addr`.
fn mapping_end(maps: &str, addr: usize) -> Option<usize> {
    maps.lines().find_map(|line| {
        let (lo, rest) = line.split_once('-')?;
        let hi = rest.split(' ').next()?;
        let lo = usize::from_str_radix(lo, 16).ok()?;
        let hi = usize::from_str_radix(hi, 16).ok()?;
        (lo..hi).contains(&addr).then_some(hi)
    })
}

/// Start sampling the calling thread (and, leaf only, any other thread
/// that burns CPU). [`stop_and_write`] ends it.
pub fn start() -> Result<(), String> {
    let maps =
        std::fs::read_to_string("/proc/self/maps").map_err(|e| format!("/proc/self/maps: {e}"))?;
    let local = 0u8;
    let top = mapping_end(&maps, std::ptr::addr_of!(local) as usize)
        .ok_or("the calling thread's stack is not in /proc/self/maps")?;
    STACK_TOP.store(top, Ordering::Relaxed);
    PROFILED_TID.store(gettid(), Ordering::Relaxed);
    TAKEN.store(0, Ordering::Relaxed);
    let action = Sigaction {
        handler: on_sigprof as extern "C" fn(i32, *mut u8, *mut u8) as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    // SAFETY: `action` is a valid `struct sigaction` naming a handler of
    // the `SA_SIGINFO` signature that is async-signal-safe (see
    // `on_sigprof`); a null `old` asks for nothing back.
    let rc = unsafe { sigaction(SIGPROF, &action, std::ptr::null_mut()) };
    if rc != 0 {
        return Err(format!(
            "sigaction(SIGPROF): {}",
            std::io::Error::last_os_error()
        ));
    }
    set_timer(INTERVAL_US)
}

/// Stop sampling and write the dump: one `s` line per sample (hex
/// addresses, interrupted instruction first, then its callers), then the
/// process's memory map. Returns the number of samples written.
pub fn stop_and_write(path: &Path) -> Result<usize, String> {
    // A zero interval disarms the timer; the handler stays installed for a
    // signal already on its way.
    set_timer(0)?;
    let taken = TAKEN.load(Ordering::Relaxed);
    let kept = taken.min(MAX_SAMPLES);
    let maps =
        std::fs::read_to_string("/proc/self/maps").map_err(|e| format!("/proc/self/maps: {e}"))?;
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# silo-sample-v1 samples={kept} dropped={} interval_us={INTERVAL_US}",
            taken - kept
        )?;
        for sample in BUF[..kept * WORDS].chunks(WORDS) {
            write!(out, "s")?;
            for word in sample {
                match word.load(Ordering::Relaxed) {
                    0 => break,
                    addr => write!(out, " {addr:x}")?,
                }
            }
            writeln!(out)?;
        }
        writeln!(out, "# /proc/self/maps")?;
        out.write_all(maps.as_bytes())?;
        out.flush()
    };
    write().map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_busy_loop_is_sampled_and_the_dump_carries_the_memory_map() {
        let path = std::env::temp_dir().join(format!("silo-sample-{}.txt", std::process::id()));
        start().expect("start");
        let t0 = std::time::Instant::now();
        let mut x = 1u64;
        while t0.elapsed() < std::time::Duration::from_millis(100) {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let n = stop_and_write(&path).expect("dump");
        let dump = std::fs::read_to_string(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert!(n >= 1, "100 ms of CPU at 1 kHz yielded no sample");
        assert_eq!(dump.lines().filter(|l| l.starts_with("s ")).count(), n);
        assert!(dump.contains("# /proc/self/maps\n"));
        let exe = std::env::current_exe().expect("exe");
        assert!(dump.contains(exe.to_str().expect("utf-8 path")));
    }
}
