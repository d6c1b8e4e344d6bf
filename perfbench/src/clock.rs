//! The benchmark's clock: CPU time of this process, normalised to a
//! reference host speed.
//!
//! The benchmark runs the program on one tensor thread, so the process is
//! busy exactly while measured code runs. Process CPU time leaves out the
//! time the hypervisor gives the CPU to other guests (steal): on a shared
//! 2-CPU virtual machine the same training run took between 5 s and 13 s of
//! wall time within an hour, with up to 37% of the machine's CPU time
//! stolen.
//!
//! CPU time still moves with how fast the CPU runs for this process. On the
//! same machine the host drifted between a fast and a slow state every ten
//! seconds to a minute (another guest on the sibling hardware thread): one
//! impact query took 3.1 ms of CPU time in the fast state and 5.4 ms in the
//! slow one, a warm 8-query serving batch 2.4 ms and 3.3 ms, and sorting
//! 4096 keys 0.12 ms and 0.19 ms.
//!
//! So the clock measures the host's speed as it goes. A CPU-time interval
//! timer (`ITIMER_PROF`) interrupts the process every [`TICK_US`] of CPU
//! time, also inside long program calls such as a whole training; on the
//! measuring thread the handler times three fixed reference loops of the
//! kinds of work the program does (a dense 48x48 matrix product, sorting
//! 4096 `f32` keys, FNV-1a over 32 KiB), each the median of [`REF_REPS`]
//! passes. Each loop's time over its [`NOMINAL_NS`] is its slow-down; a
//! yardstick's slow-down is their geometric mean weighted by [`WEIGHTS`],
//! and the clock divides the CPU time up to the next tick by it. Reported
//! times are therefore CPU times at the reference speed, the speed at which
//! the loops take their nominal times.
//!
//! The loops slow down by different amounts in the slow state (the matrix
//! product by about 1.5x, the sort 1.7x, the hash barely), and so do the
//! program's operations (an impact query 1.6x, a warm serving batch 1.3x).
//! No one mix tracks every operation, so there are two yardsticks ([`Kind`]):
//! `Model`, half matrix product and half sort, for model computation
//! (training, impact queries, embedding-cache builds), and `Mixed` for the
//! rest, warm serving batches above all. The weights were fitted on a
//! four-minute trace of the loops beside those operations on the 2-CPU
//! virtual machine: over ten-second windows the spread (interquartile range
//! over median) of an impact query's time fell from 0.31 to 0.06 and that of
//! a cache rebuild from 0.26 to 0.13 under `Model`, that of a serving batch
//! from 0.19 to 0.04 under `Mixed`. The loops are the benchmark's own code,
//! so a change to the program moves the measured work and never the
//! yardstick, and the loops' own time is left out of the clock.
//!
//! The clock reads the CPU time of the calling thread: while a process CPU
//! timer is armed, Linux advances the process CPU clock only at scheduler
//! ticks (4 ms here), too coarse for a 0.1 ms reference loop. With one
//! tensor thread the program runs on the thread that calls it; the run's
//! context line reports process and thread CPU time side by side.
//!
//! Without [`start_sampler`] (the test suite, whose tests run on several
//! threads) the clock is the calling thread's plain CPU time.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

#[repr(C)]
struct Itimerval {
    it_interval: Timeval,
    it_value: Timeval,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn gettid() -> i32;
    fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    fn signal(signum: i32, handler: usize) -> usize;
}

/// `CLOCK_PROCESS_CPUTIME_ID`, `CLOCK_THREAD_CPUTIME_ID`, `ITIMER_PROF`
/// and `SIGPROF` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const ITIMER_PROF: i32 = 2;
const SIGPROF: i32 = 27;
/// `SIG_ERR` as `signal` returns it.
const SIG_ERR: usize = usize::MAX;

/// CPU time between two speed measurements, in microseconds.
pub const TICK_US: i64 = 50_000;

/// Reference loops, their sizes, and passes of each per speed measurement.
const LOOPS: usize = 3;
const MM: usize = 48;
const SORT_KEYS: usize = 4096;
const HASH_BYTES: usize = 32 << 10;
pub const REF_REPS: usize = 3;

/// CPU time of one pass of each reference loop at the reference speed: the
/// fast state of the 2-CPU virtual machine the benchmark was tuned on.
pub const NOMINAL_NS: [f64; LOOPS] = [13_600.0, 92_000.0, 52_900.0];

/// What a measured operation mostly does; it picks the yardstick the
/// operation's time is divided by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Model computation: training, predictions, embedding (cache) builds.
    Model = 0,
    /// Everything else; above all warm serving batches, which mix a hash
    /// over the features with the score scan and top-K sorting.
    Mixed = 1,
}

const KINDS: usize = 2;

/// Exponents of the loops' slow-downs (matrix product, sort, hash) in the
/// yardstick of each [`Kind`].
pub const WEIGHTS: [[f64; LOOPS]; KINDS] = [[0.5, 0.5, 0.0], [0.4, 0.4, 0.2]];

/// Speed measurements kept for the run's summary.
const HISTORY: usize = 8192;

/// CPU time of the calling thread in nanoseconds.
pub fn cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of the whole process in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

fn read_clock(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for, matched
    // by the `repr(C)` struct) through a pointer to a live, writable local.
    // It is async-signal-safe, so the tick handler may call it too.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The reference clock's state, written only by [`tick`] under `BUSY` and
/// published with a sequence lock: `SEQ` is odd while a tick rewrites it.
static SEQ: AtomicU64 = AtomicU64::new(0);
/// CPU time at which the current piece began.
static CPU_AT: AtomicU64 = AtomicU64::new(0);
/// Reference time (`f64` bits, ns) of each yardstick at which the current
/// piece began.
static REF_AT: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
/// Slow-down (`f64` bits) of each yardstick in the current piece.
static SLOWDOWN: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];
static BUSY: AtomicBool = AtomicBool::new(false);
/// The thread whose CPU time the sampler follows; 0 before it starts.
static SAMPLED_TID: AtomicI32 = AtomicI32::new(0);
static SLOWDOWNS: [AtomicU64; HISTORY * (LOOPS + 1)] =
    [const { AtomicU64::new(0) }; HISTORY * (LOOPS + 1)];
static MEASURED: AtomicUsize = AtomicUsize::new(0);

/// The reference loops' inputs and work buffers.
struct RefWork {
    keys: [f32; SORT_KEYS],
    sorted: [f32; SORT_KEYS],
    a: [f32; MM * MM],
    b: [f32; MM * MM],
    c: [f32; MM * MM],
    bytes: [u8; HASH_BYTES],
}

struct Work(UnsafeCell<RefWork>);
// SAFETY: the buffers are only touched inside `tick`, while `BUSY` is held,
// so there is never more than one reference to them.
unsafe impl Sync for Work {}
static WORK: Work = Work(UnsafeCell::new(RefWork {
    keys: [0.0; SORT_KEYS],
    sorted: [0.0; SORT_KEYS],
    a: [0.0; MM * MM],
    b: [0.0; MM * MM],
    c: [0.0; MM * MM],
    bytes: [0; HASH_BYTES],
}));

static INIT: OnceLock<()> = OnceLock::new();

fn init() {
    INIT.get_or_init(|| {
        while BUSY.swap(true, Ordering::Acquire) {
            std::hint::spin_loop();
        }
        // SAFETY: `BUSY` is held (see `Work`).
        let w = unsafe { &mut *WORK.0.get() };
        // Fixed inputs from a xorshift stream: the same work in every run.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for k in w.keys.iter_mut().chain(&mut w.a).chain(&mut w.b) {
            *k = (next() >> 40) as f32 / (1u64 << 24) as f32;
        }
        for b in w.bytes.iter_mut() {
            *b = next() as u8;
        }
        BUSY.store(false, Ordering::Release);
        CPU_AT.store(cpu_ns(), Ordering::SeqCst);
        for s in &SLOWDOWN {
            s.store(1.0f64.to_bits(), Ordering::SeqCst);
        }
        while !tick() {}
    });
}

/// One pass of reference loop `which`.
fn run_loop(w: &mut RefWork, which: usize) {
    match which {
        0 => {
            // Dense matrix product, the shape of the model's kernels.
            w.c.fill(0.0);
            for (crow, arow) in w.c.chunks_exact_mut(MM).zip(w.a.chunks_exact(MM)) {
                for (&x, brow) in arow.iter().zip(w.b.chunks_exact(MM)) {
                    for (c, &b) in crow.iter_mut().zip(brow) {
                        *c += x * b;
                    }
                }
            }
        }
        1 => {
            // Sorting scores, as top-K selection does.
            w.sorted.copy_from_slice(&w.keys);
            std::hint::black_box(&mut w.sorted).sort_unstable_by(f32::total_cmp);
        }
        _ => {
            // FNV-1a, the serial integer chain of the cache-hit check.
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for &b in std::hint::black_box(&w.bytes) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            std::hint::black_box(h);
        }
    }
    std::hint::black_box(&*w);
}

/// CPU time of each reference loop (median of `REF_REPS` passes) over its
/// nominal time. Allocation-free and lock-free, so it can run in a signal
/// handler; the caller holds `BUSY`.
fn measure() -> [f64; LOOPS] {
    // SAFETY: the caller holds `BUSY` (see `Work`).
    let w = unsafe { &mut *WORK.0.get() };
    let mut out = [0.0; LOOPS];
    for (which, o) in out.iter_mut().enumerate() {
        let mut times = [0u64; REF_REPS];
        for t in &mut times {
            let c0 = cpu_ns();
            // `run_loop` ends in an opaque use of its buffers, which keeps
            // the work between the two clock reads.
            run_loop(w, which);
            *t = cpu_ns() - c0;
        }
        times.sort_unstable();
        *o = times[REF_REPS / 2] as f64 / NOMINAL_NS[which];
    }
    out
}

/// The slow-down of the yardstick of `kind`: the weighted geometric mean of
/// the reference loops' slow-downs.
fn yardstick(s: &[f64; LOOPS], kind: usize) -> f64 {
    s.iter()
        .zip(WEIGHTS[kind])
        .map(|(x, w)| w * x.ln())
        .sum::<f64>()
        .exp()
}

/// Closes the current piece, measures the speed and opens the next piece
/// after the measurement. Returns false when another tick is running.
fn tick() -> bool {
    if BUSY.swap(true, Ordering::Acquire) {
        return false;
    }
    let cpu = cpu_ns();
    let piece = cpu.saturating_sub(CPU_AT.load(Ordering::SeqCst));
    SEQ.fetch_add(1, Ordering::SeqCst);
    for (r, s) in REF_AT.iter().zip(&SLOWDOWN) {
        let slow = f64::from_bits(s.load(Ordering::SeqCst));
        let ref_at = f64::from_bits(r.load(Ordering::SeqCst));
        r.store(
            reference_ns(ref_at, piece, slow).to_bits(),
            Ordering::SeqCst,
        );
    }
    let loops = measure();
    for (kind, s) in SLOWDOWN.iter().enumerate() {
        let new = yardstick(&loops, kind);
        if new > 0.0 && new.is_finite() {
            s.store(new.to_bits(), Ordering::SeqCst);
        }
    }
    let mixed = f64::from_bits(SLOWDOWN[Kind::Mixed as usize].load(Ordering::SeqCst));
    let i = MEASURED.load(Ordering::SeqCst);
    if let Some(slots) = SLOWDOWNS.get(i * (LOOPS + 1)..(i + 1) * (LOOPS + 1)) {
        for (slot, v) in slots.iter().zip(std::iter::once(mixed).chain(loops)) {
            slot.store(v.to_bits(), Ordering::SeqCst);
        }
        MEASURED.store(i + 1, Ordering::SeqCst);
    }
    CPU_AT.store(cpu_ns(), Ordering::SeqCst);
    SEQ.fetch_add(1, Ordering::SeqCst);
    BUSY.store(false, Ordering::Release);
    true
}

extern "C" fn on_tick(_signum: i32) {
    // SAFETY: `gettid` takes no arguments and cannot fail; it is a plain
    // system call and async-signal-safe.
    if unsafe { gettid() } == SAMPLED_TID.load(Ordering::SeqCst) {
        tick();
    }
}

/// Starts measuring the host's speed every `TICK_US` of CPU time, and
/// makes the clock follow the calling thread.
pub fn start_sampler() -> Result<(), String> {
    init();
    // The piece the clock is in was opened on whichever thread read the
    // clock first; reopen it on this one.
    while !tick() {}
    // SAFETY: as in `on_tick`.
    SAMPLED_TID.store(unsafe { gettid() }, Ordering::SeqCst);
    // SAFETY: `on_tick` is an `extern "C" fn(i32)`, the handler type
    // `signal` expects; it touches only atomics, the `BUSY`-guarded scratch
    // buffer and `clock_gettime`, and neither allocates nor locks. glibc's
    // `signal` installs it with `SA_RESTART`, so interrupted system calls
    // resume.
    if unsafe { signal(SIGPROF, on_tick as extern "C" fn(i32) as usize) } == SIG_ERR {
        return Err("installing the SIGPROF handler failed".into());
    }
    let every = || Timeval {
        tv_sec: 0,
        tv_usec: TICK_US,
    };
    let spec = Itimerval {
        it_interval: every(),
        it_value: every(),
    };
    // SAFETY: `spec` is a live `struct itimerval` (four 64-bit fields,
    // matched by the `repr(C)` structs); a null old value is allowed.
    if unsafe { setitimer(ITIMER_PROF, &spec, std::ptr::null_mut()) } != 0 {
        return Err("setitimer(ITIMER_PROF) failed".into());
    }
    Ok(())
}

/// Reference time in nanoseconds under the `Mixed` yardstick.
pub fn now_ns() -> u64 {
    now_for(Kind::Mixed)
}

/// Reference time in nanoseconds under the yardstick of `kind` (see the
/// module docs).
pub fn now_for(kind: Kind) -> u64 {
    init();
    if SAMPLED_TID.load(Ordering::SeqCst) == 0 {
        return cpu_ns();
    }
    loop {
        let seq = SEQ.load(Ordering::SeqCst);
        if !seq.is_multiple_of(2) {
            std::hint::spin_loop();
            continue;
        }
        let cpu_at = CPU_AT.load(Ordering::SeqCst);
        let ref_at = f64::from_bits(REF_AT[kind as usize].load(Ordering::SeqCst));
        let slow = f64::from_bits(SLOWDOWN[kind as usize].load(Ordering::SeqCst));
        let cpu = cpu_ns();
        if SEQ.load(Ordering::SeqCst) == seq {
            return reference_ns(ref_at, cpu.saturating_sub(cpu_at), slow) as u64;
        }
    }
}

/// Reference time `cpu_ns` of CPU time into a piece that began at
/// reference time `ref_at` with slow-down `slowdown`.
fn reference_ns(ref_at: f64, cpu_ns: u64, slowdown: f64) -> f64 {
    ref_at + cpu_ns as f64 / slowdown
}

/// How many times the host's speed was measured, and the median slow-down
/// of the `Mixed` yardstick against the reference speed.
pub fn speed_summary() -> (usize, f64) {
    init();
    let n = MEASURED.load(Ordering::SeqCst);
    let all: Vec<f64> = SLOWDOWNS[..n * (LOOPS + 1)]
        .iter()
        .step_by(LOOPS + 1)
        .map(|s| f64::from_bits(s.load(Ordering::SeqCst)))
        .collect();
    (n, crate::stats::median(&all))
}

/// A started measurement.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    kind: Kind,
    t0: u64,
}

impl Stopwatch {
    /// A measurement under the `Mixed` yardstick.
    pub fn start() -> Self {
        Stopwatch::of(Kind::Mixed)
    }

    /// A measurement of model computation.
    pub fn model() -> Self {
        Stopwatch::of(Kind::Model)
    }

    pub fn of(kind: Kind) -> Self {
        Stopwatch {
            kind,
            t0: now_for(kind),
        }
    }

    pub fn secs(&self) -> f64 {
        (now_for(self.kind) - self.t0) as f64 / 1e9
    }

    pub fn ms(&self) -> f64 {
        (now_for(self.kind) - self.t0) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(n: u64) -> u64 {
        let mut x = 0u64;
        for i in 0..n {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x)
    }

    #[test]
    fn time_advances_with_work() {
        let t = Stopwatch::start();
        spin(5_000_000);
        assert!(t.ms() > 0.0);
        let (n, slowdown) = speed_summary();
        assert!(n >= 1 && slowdown > 0.0 && slowdown.is_finite());
    }

    #[test]
    fn reference_time_is_cpu_time_over_the_slowdown() {
        assert_eq!(reference_ns(1e9, 3_000_000, 1.5), 1e9 + 2e6);
        assert_eq!(reference_ns(0.0, 500, 0.5), 1000.0);
    }
}
