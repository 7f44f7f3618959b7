//! The timing harness every workload runs under: repeated set-up, a
//! closed loop of timed ops with untimed preparation and output checks,
//! process CPU and memory readings, and order statistics.

use crate::trace::TraceSummary;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// One workload: a system under test plus its inputs and references.
pub trait Workload {
    /// Construction calls and warm-up ops; timed as set-up. Called
    /// several times, each call replacing the system built before.
    fn setup(&mut self) -> Result<(), String>;

    /// Untimed input preparation for op `op`.
    fn prepare(&mut self, _op: u64) {}

    /// The timed op.
    fn op(&mut self, op: u64) -> Result<(), String>;

    /// Untimed check of the output of the op just run.
    fn check(&mut self, op: u64) -> Result<(), String>;

    /// Called once before a traced run's ops: resets the workload's layer
    /// tallies so that [`Workload::layer_metrics`] covers the ops after it.
    fn begin_traced(&mut self);

    /// Per-layer metrics: span-derived ones from the traced ops in
    /// `trace`, counters over every op since [`Workload::begin_traced`].
    fn layer_metrics(&self, trace: &TraceSummary, out: &mut Metrics);

    /// Parallel efficiency (%) for workloads that measure it: median op
    /// latency on one thread over median latency on `nproc` threads,
    /// divided by min(threads, cores), for about `seconds`. Runs after the
    /// traced ops, unpinned (see [`unpin`]).
    fn parallel_efficiency(&mut self, _seconds: f64) -> Option<Result<f64, String>> {
        None
    }
}

/// Metric name → value; units live in the catalogues in `main.rs`.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of every op, in seconds.
    pub lats: Vec<f64>,
    /// Process CPU (user + system, all threads) spent inside every op, in
    /// seconds.
    pub cpus: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// Ops per second of op wall time: the timed phase excludes the
    /// untimed preparation and checks between ops.
    pub fn ops_per_s(&self) -> f64 {
        self.lats.len() as f64 / self.lats.iter().sum::<f64>()
    }

    /// Splits the ops into `n` consecutive windows of equal op wall time
    /// (by each op's start) and returns the median over the non-empty
    /// windows of `f(latencies, cpu times)` of each window. A burst of host
    /// contention that spans less than half the windows moves the median
    /// little, where it would move a figure taken over the whole run.
    pub fn windowed(&self, n: usize, f: impl Fn(&[f64], &[f64]) -> f64) -> f64 {
        let total: f64 = self.lats.iter().sum();
        let mut values = Vec::with_capacity(n);
        let (mut lo, mut start) = (0, 0.0);
        for j in 1..=n {
            let end = total * j as f64 / n as f64;
            let mut hi = lo;
            while hi < self.lats.len() && (j == n || start < end) {
                start += self.lats[hi];
                hi += 1;
            }
            if hi > lo {
                values.push(f(&self.lats[lo..hi], &self.cpus[lo..hi]));
            }
            lo = hi;
        }
        quantile(&values, 0.5)
    }
}

/// Stop rules for [`run_phase`].
pub struct Limits {
    /// Timed wall seconds to measure.
    pub seconds: f64,
    /// Most traced ops to run: worker threads that record spans each keep
    /// a span ring for the life of the process.
    pub max_traced: u64,
}

/// Runs ops `*next_op..` in a closed loop for `limits.seconds` of op
/// wall time.
///
/// Without `trace` every op is untraced and the second phase stays
/// empty. With it, ops alternate between untraced (first phase) and
/// traced (second phase), so drift over the run biases neither side of
/// the tracing overhead, until the trace budget is spent: then the rest
/// run untraced. Tracing is on only around a traced op, and the spans it
/// produced are drained into `trace` before its output check.
pub fn run_phase(
    w: &mut dyn Workload,
    next_op: &mut u64,
    limits: &Limits,
    mut trace: Option<&mut TraceSummary>,
) -> (Phase, Phase) {
    let mut phases = (Phase::default(), Phase::default());
    let mut wall = 0.0;
    let started = spk_obs::now();
    // Checks run between ops; this keeps a slow check from running the
    // process past its time limit.
    let hard_stop = 4.0 * limits.seconds + 10.0;
    while wall < limits.seconds && started.elapsed().as_secs_f64() < hard_stop {
        let i = *next_op;
        *next_op += 1;
        let traced = i % 2 == 1
            && trace
                .as_deref()
                .is_some_and(|t| t.has_ring_headroom() && t.ops < limits.max_traced);
        w.prepare(i);
        spk_obs::set_tracing(traced);
        let cpu0 = process_cpu_secs();
        let t0 = spk_obs::now();
        let result = {
            let _op = spk_obs::span!("bench.op");
            w.op(i)
        };
        let lat = t0.elapsed().as_secs_f64();
        let cpu = process_cpu_secs() - cpu0;
        spk_obs::set_tracing(false);
        let phase = if traced { &mut phases.1 } else { &mut phases.0 };
        phase.cpus.push(cpu);
        phase.lats.push(lat);
        phase.attempted += 1;
        wall += lat;
        if let (true, Some(t)) = (traced, trace.as_deref_mut()) {
            t.absorb_op(&spk_obs::take_spans());
        }
        if let Err(e) = result.and_then(|()| w.check(i)) {
            phase.failed += 1;
            if phase.failed <= 3 {
                eprintln!("op {i} failed: {e}");
            }
        }
    }
    phases
}

/// Median of `setup` timed `repeats` times, in seconds.
pub fn timed_setup(w: &mut dyn Workload, repeats: usize) -> Result<f64, String> {
    let mut times = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let t0 = spk_obs::now();
        w.setup()?;
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok(quantile(&times, 0.5))
}

/// Nearest-rank `q`-quantile (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Samples strictly above the nearest-rank `q`-quantile.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let cut = quantile(xs, q);
    xs.iter().filter(|&&x| x > cut).count()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user + system CPU of all threads.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in seconds (64-bit Linux).
pub fn process_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, matching `#[repr(C)]` above), and
    // clock_gettime writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Linux `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

/// The CPUs the process could use before [`pin_to_one_cpu`].
static ALLOWED: OnceLock<CpuSet> = OnceLock::new();

fn set_affinity(mask: &CpuSet) -> Result<(), String> {
    // SAFETY: `mask` is a live buffer of exactly the size passed, and
    // sched_setaffinity only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc != 0 {
        return Err("sched_setaffinity failed".into());
    }
    Ok(())
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the size
    // passed, and sched_getaffinity writes at most that many bytes to it.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..allowed.len() * 64)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    set_affinity(&one)?;
    ALLOWED.get_or_init(|| allowed);
    Ok(cpu)
}

/// Gives the calling thread, and every thread it spawns afterwards, back
/// the CPUs [`pin_to_one_cpu`] took away.
pub fn unpin() -> Result<(), String> {
    match ALLOWED.get() {
        Some(all) => set_affinity(all),
        None => Ok(()),
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(beyond(&xs, 0.9), 10);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
    }

    #[test]
    fn windowed_median_skips_a_burst() {
        let count = |l: &[f64], _: &[f64]| l.len() as f64;
        // Five windows of 10 ops of 1 s; the fourth window is a CPU burst.
        let mut cpus = vec![0.5; 50];
        cpus[30..40].fill(9.0);
        let phase = Phase {
            lats: vec![1.0; 50],
            cpus,
            ..Phase::default()
        };
        assert_eq!(phase.windowed(5, count), 10.0);
        assert_eq!(phase.windowed(5, |_, c| c.iter().sum::<f64>()), 5.0);
        // A latency burst: the slow ops share one window's time.
        let mut lats = vec![1.0; 40];
        lats.splice(20..20, [5.0, 5.0]);
        let phase = Phase {
            cpus: vec![0.0; lats.len()],
            lats,
            ..Phase::default()
        };
        assert_eq!(phase.windowed(5, |l, _| quantile(l, 0.9)), 1.0);
        // Ops longer than a window leave windows empty; those are skipped.
        let long = Phase {
            lats: vec![10.0, 1.0],
            cpus: vec![1.0, 1.0],
            ..Phase::default()
        };
        assert_eq!(long.windowed(5, count), 1.0);
        assert_eq!(Phase::default().windowed(5, count), 0.0);
    }

    #[test]
    fn process_readings_are_positive() {
        assert!(process_cpu_secs() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
