//! Host time: the thread CPU clock the end-to-end metrics are taken on,
//! host-speed probes, so that times can be expressed at a reference
//! host speed, and the heap policy the benchmark pins.
//!
//! Shared hosts disturb a run in two ways. They take the CPU away
//! (hypervisor steal, other runnable tasks): [`CpuInstant`] reads the
//! calling thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`), which stops
//! while the thread is not running, so on one thread with no I/O it is
//! the wall time minus the time the host took away. And they slow the
//! core down, by up to 2.5× for minutes at a time on the VM this was
//! tuned on (clock frequency, and other tenants on the same core and
//! memory system). For that a [`Prober`] times two fixed kernels on the
//! same clock: a cache-resident integer loop with data-dependent
//! branches, whose time tracks the core, and a memset over a buffer
//! larger than the last-level cache, whose time tracks the memory
//! system. A pass samples both about every half second of work, and
//! [`HostSpeed`] turns the pass's median samples into factors that
//! rescale its host times to a reference host. The kernels are
//! benchmark code only: nothing in the simulator can make them faster
//! or slower, so a change to the simulator moves the rescaled figures
//! exactly as much as the raw ones.

use std::hint::black_box;

/// Compute-probe time of the reference host (a quiet 2-vCPU Xeon VM
/// measured 0.014–0.015 s).
pub const COMPUTE_REFERENCE_S: f64 = 0.015;
/// Memory-probe time of the reference host (the same VM measured
/// 0.009–0.010 s).
pub const MEMORY_REFERENCE_S: f64 = 0.010;
/// How steeply the simulator's host time follows a probe's: host times
/// are rescaled by `(reference / probe time)^SENSITIVITY`. A shared core
/// slows a large, branchy, cache-hungry program more than a small loop:
/// between a quiet and a contended period of the VM above, run calls
/// took 2.3–2.5× as long while the compute probe took 1.75–1.85× as
/// long, which is the probe ratio to the power 1.47.
pub const SENSITIVITY: f64 = 1.5;

/// Bytes the memory probe clears per fill.
const MEMORY_PROBE_BYTES: usize = 64 << 20;
/// Fills per memory probe.
const MEMORY_PROBE_FILLS: u8 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>` (Linux).
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_TRIM_THRESHOLD` from glibc's `<malloc.h>`.
const M_TRIM_THRESHOLD: i32 = -1;
/// `M_MMAP_THRESHOLD` from glibc's `<malloc.h>`.
const M_MMAP_THRESHOLD: i32 = -3;
/// The largest `M_MMAP_THRESHOLD` glibc accepts on 64-bit targets, and
/// the ceiling its dynamic threshold rises to.
const MMAP_THRESHOLD_MAX: i32 = 32 << 20;

/// Fixes glibc's heap policy for the rest of the process, so that
/// set-up costs the same whatever the seed.
///
/// By default glibc raises its mmap threshold when a large block is
/// freed and returns free heap tops to the kernel. Which of a cell's
/// per-row arrays then come from fresh pages (zeroed lazily by the
/// kernel) and which from recycled heap (cleared by `calloc`) depends on
/// the heap's layout, which seed-dependent allocations shift: on
/// `attack_battery` one seed measured half the set-up time of its
/// neighbours. Pinned here at the ceiling the dynamic threshold rises to
/// in any long run, with trimming off, every array below 32 MiB comes
/// from the heap and is cleared on reuse, and every larger one is a
/// fresh mapping.
///
/// # Errors
///
/// Returns an error if the C library rejects either setting.
pub fn pin_heap_policy() -> Result<(), String> {
    for (name, param, value) in [
        ("M_MMAP_THRESHOLD", M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX),
        ("M_TRIM_THRESHOLD", M_TRIM_THRESHOLD, i32::MAX),
    ] {
        // SAFETY: `mallopt` takes two integers and only changes the
        // allocator's tuning; glibc applies it under the arena lock.
        if unsafe { mallopt(param, value) } != 1 {
            return Err(format!("mallopt({name}, {value}) was rejected"));
        }
    }
    Ok(())
}

/// CPU seconds the calling thread has run, user and kernel time alike.
///
/// # Panics
///
/// Panics if the C library refuses the clock, which Linux has had since
/// 2.6.12.
#[must_use]
fn thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A reading of the calling thread's CPU clock; measures how long the
/// thread has run since, on the same thread.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    /// The current reading.
    #[must_use]
    pub fn now() -> Self {
        Self(thread_cpu_s())
    }

    /// CPU seconds this thread has run since `self`.
    #[must_use]
    pub fn elapsed_s(self) -> f64 {
        thread_cpu_s() - self.0
    }
}

/// One host-speed sample: each probe's CPU time, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Probe {
    /// The cache-resident integer loop.
    pub compute_s: f64,
    /// The memset.
    pub memory_s: f64,
}

/// Runs the host-speed probes; owns the memory probe's buffer.
#[derive(Debug)]
pub struct Prober {
    buf: Vec<u8>,
}

impl Default for Prober {
    fn default() -> Self {
        Self::new()
    }
}

impl Prober {
    /// Allocates (and touches) the memory probe's buffer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buf: vec![1; MEMORY_PROBE_BYTES],
        }
    }

    /// Runs both probes once.
    #[must_use]
    pub fn sample(&mut self) -> Probe {
        let compute_s = compute_probe();
        let t = CpuInstant::now();
        for fill in 0..MEMORY_PROBE_FILLS {
            self.buf.fill(fill);
            black_box(&mut self.buf);
        }
        Probe {
            compute_s,
            memory_s: t.elapsed_s(),
        }
    }
}

/// Factors that rescale host times measured during a pass to the
/// reference host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSpeed {
    /// The median compute-probe time.
    pub compute_s: f64,
    /// The median memory-probe time.
    pub memory_s: f64,
    /// Multiplies time spent in run calls and everything but
    /// construction.
    pub compute: f64,
    /// Multiplies construction time, which is mostly `calloc` clearing
    /// recycled heap.
    pub memory: f64,
}

impl HostSpeed {
    /// The factors for a pass that took `probes`.
    ///
    /// # Panics
    ///
    /// Panics if `probes` is empty.
    #[must_use]
    pub fn from_probes(probes: &[Probe]) -> Self {
        let compute_s = crate::median(&probes.iter().map(|p| p.compute_s).collect::<Vec<_>>());
        let memory_s = crate::median(&probes.iter().map(|p| p.memory_s).collect::<Vec<_>>());
        Self {
            compute_s,
            memory_s,
            compute: (COMPUTE_REFERENCE_S / compute_s).powf(SENSITIVITY),
            memory: (MEMORY_REFERENCE_S / memory_s).powf(SENSITIVITY),
        }
    }
}

/// Runs the compute probe once; returns its CPU time in seconds.
#[must_use]
pub fn compute_probe() -> f64 {
    let t = CpuInstant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    let mut table = [0u32; 1024];
    for i in 0..4_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let idx = (x as usize) & 1023;
        let v = table[idx];
        if v & 1 == 0 {
            table[idx] = v.wrapping_add(x as u32);
            acc = acc.wrapping_add(u64::from(v));
        } else {
            acc ^= u64::from(v).rotate_left((i & 31) as u32);
            table[(idx + 1) & 1023] = v >> 1;
        }
    }
    black_box((acc, table));
    t.elapsed_s()
}
