//! Syscall tracing and time breakdown.
//!
//! Two experiments read this data: Fig. 2 (per-application syscall
//! frequency profiles) and Fig. 7 (wasm-app / kernel / wali runtime
//! breakdown). Kernel time is measured around kernel-model invocations and
//! WALI time is the remaining host-call time, exactly mirroring how the
//! paper splits the stack.
//!
//! Counting is on every syscall's hot path, so [`SysCounts`] stores spec
//! syscalls in a dense array indexed by [`wali_abi::spec::sysno`] — one
//! add per call — and falls back to a name-keyed map only for non-spec
//! entries (support methods, layered APIs).
//!
//! Timing is sampled: reading the clock four times per syscall cost
//! about half of a `getpid`, so the sampled ledger times about one syscall
//! in [`LEDGER_PERIOD`] and scales the timed sums up to every call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use vkernel::MutexExt;
use wali_abi::spec::{self, SPEC_LEN};

/// Per-syscall invocation counters with a dense spec-indexed fast path.
///
/// The counters are atomic: a trace may be observed (merged, printed)
/// while the owning task still runs on another worker, and the dense
/// bump must never be torn or lost under the SMP executor. `Relaxed`
/// ordering suffices — counts are statistics, not synchronization.
pub struct SysCounts {
    dense: Box<[AtomicU64]>,
    named: Mutex<BTreeMap<&'static str, u64>>,
}

impl Default for SysCounts {
    fn default() -> Self {
        SysCounts {
            dense: (0..SPEC_LEN).map(|_| AtomicU64::new(0)).collect(),
            named: Mutex::new(BTreeMap::new()),
        }
    }
}

impl SysCounts {
    /// Records one invocation by dense syscall index (the hot path).
    #[inline]
    pub fn bump(&self, sysno: u16) {
        self.dense[sysno as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Same, through exclusive access — the single-owner hot path the
    /// registry wrappers use: a plain add on the atomic cell, no RMW.
    #[inline]
    pub fn bump_mut(&mut self, sysno: u16) {
        *self.dense[sysno as usize].get_mut() += 1;
    }

    /// Records one invocation by name (slow path; resolves the index).
    pub fn count(&self, name: &'static str) {
        match spec::sysno(name) {
            Some(no) => self.bump(no),
            None => self.count_named(name),
        }
    }

    /// Records one invocation of a non-spec name (the named fallback;
    /// callers that already resolved `sysno(name) == None` land here
    /// directly instead of resolving twice).
    fn count_named(&self, name: &'static str) {
        *self.named.lock_ok().entry(name).or_insert(0) += 1;
    }

    /// Adds `n` invocations of `name` (merging).
    fn add(&self, name: &'static str, n: u64) {
        match spec::sysno(name) {
            Some(no) => {
                self.dense[no as usize].fetch_add(n, Ordering::Relaxed);
            }
            None => *self.named.lock_ok().entry(name).or_insert(0) += n,
        }
    }

    /// The count recorded for `name` (0 when never invoked).
    pub fn of(&self, name: &str) -> u64 {
        match spec::sysno(name) {
            Some(no) => self.dense[no as usize].load(Ordering::Relaxed),
            None => self.named.lock_ok().get(name).copied().unwrap_or(0),
        }
    }

    /// The count for `name`, if any were recorded.
    pub fn get(&self, name: &str) -> Option<u64> {
        let c = self.of(name);
        (c > 0).then_some(c)
    }

    /// True if `name` was invoked at least once.
    pub fn contains_key(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Snapshot of `(name, count)` pairs with nonzero counts.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .dense
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| (spec::SPEC[i].name, c))
            })
            .collect();
        out.extend(self.named.lock_ok().iter().map(|(n, c)| (*n, *c)));
        out.into_iter()
    }

    /// Iterates over invoked syscall names.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> {
        self.iter().map(|(n, _)| n)
    }

    /// Number of distinct invoked syscalls.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.dense
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum::<u64>()
            + self.named.lock_ok().values().sum::<u64>()
    }

    /// Snapshot as an ordinary name-keyed map (report binaries).
    pub fn to_map(&self) -> BTreeMap<&'static str, u64> {
        self.iter().collect()
    }
}

impl Clone for SysCounts {
    fn clone(&self) -> Self {
        SysCounts {
            dense: self
                .dense
                .iter()
                .map(|c| AtomicU64::new(c.load(Ordering::Relaxed)))
                .collect(),
            named: Mutex::new(self.named.lock_ok().clone()),
        }
    }
}

impl<'a> IntoIterator for &'a SysCounts {
    type Item = (&'static str, u64);
    type IntoIter = Box<dyn Iterator<Item = (&'static str, u64)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl PartialEq for SysCounts {
    fn eq(&self, other: &Self) -> bool {
        self.dense
            .iter()
            .zip(other.dense.iter())
            .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
            && *self.named.lock_ok() == *other.named.lock_ok()
    }
}

impl std::fmt::Debug for SysCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Mean gap between two timed syscalls of one task.
pub const LEDGER_PERIOD: u32 = 32;

/// The cost of one clock read as the ledger makes them, measured once per
/// process: the median over a few batches of back-to-back `now` +
/// `elapsed` pairs, halved.
fn clock_read_cost() -> Duration {
    static COST: OnceLock<Duration> = OnceLock::new();
    *COST.get_or_init(|| {
        const PAIRS: u32 = 64;
        let mut batches: Vec<Duration> = (0..9)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..PAIRS {
                    std::hint::black_box(std::hint::black_box(Instant::now()).elapsed());
                }
                t0.elapsed() / (2 * PAIRS)
            })
            .collect();
        batches.sort_unstable();
        batches[batches.len() / 2]
    })
}

/// The sampled layer ledger of one task.
///
/// Every syscall is counted. The first `period` syscalls of a task are
/// all timed, so a short task's layer times are exact. After that about
/// one call in `period` ([`LEDGER_PERIOD`]) is timed: the first sampled
/// call falls uniformly in the next `period` calls, and each later gap
/// is drawn uniformly from `[period/2, 3*period/2]`, so every call is
/// timed with probability about `1/period` and a guest whose syscalls
/// repeat with a fixed period cannot alias with the sampler. The draws
/// come from a per-task xorshift generator seeded from the tid and a
/// process-wide ledger sequence number: no host randomness, and the
/// same program samples different calls in different runs.
///
/// A timed call measures its host time (the registry wrapper) and its
/// kernel time ([`crate::context::WaliContext::with_kernel`]) together.
/// The ledger's own clock reads are taken out again: each interval
/// loses the one read it contains, the host interval also the two
/// reads of every kernel section inside it, and the task's slice time
/// every read the ledger made in that slice. A sampled call stands for
/// the `period` calls around it, so its host and kernel times count
/// `period` times (the Horvitz–Thompson estimator: unbiased, because
/// every call past the head has the same chance of timing).
///
/// One host preemption inside a sampled call would then count `period`
/// times, and the clamp to the task's wall time would turn that rare
/// huge value into a bias. So once [`OUTLIER_WARMUP`] calls are timed, a
/// timed call longer than [`OUTLIER_FACTOR`] times the task's mean timed
/// call is cut to that length, its kernel share scaled with it. Exact
/// timing (period 1) applies the same cut, so both modes leave
/// preemptions out of the layer times alike.
#[derive(Clone, Debug)]
pub(crate) struct Ledger {
    period: u32,
    /// Calls still to be timed exactly at the start of the task.
    head: u32,
    /// Syscalls left until the next timed one (the current call is
    /// timed when this reaches one).
    countdown: u32,
    rng: u64,
    /// Set for the duration of a timed syscall: kernel sections time
    /// themselves only then.
    timing: bool,
    /// How many calls the current timed call stands for.
    weight: u32,
    /// Kernel sections timed inside the current timed call, and their
    /// summed time.
    sections: u32,
    call_kernel: Duration,
    /// Clock reads the ledger made since the last slice was accounted.
    reads: u32,
    /// Timed calls so far and their summed host time, unweighted (the
    /// outlier cut's mean).
    timed: u32,
    timed_host: Duration,
    /// Weighted host and kernel sums: the estimates.
    host: Duration,
    kernel: Duration,
}

/// Timed calls needed before the outlier cut applies.
const OUTLIER_WARMUP: u32 = 4;

/// A timed call longer than this multiple of the task's mean timed call
/// is cut to it.
const OUTLIER_FACTOR: u32 = 16;

impl Default for Ledger {
    fn default() -> Self {
        Ledger::seeded(0)
    }
}

impl Ledger {
    /// A ledger whose jitter is seeded from `tid` and the process-wide
    /// ledger count.
    pub(crate) fn seeded(tid: i32) -> Ledger {
        // Calibrate here, outside every timed interval and slice.
        clock_read_cost();
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let mut ledger = Ledger {
            period: LEDGER_PERIOD,
            head: 0,
            countdown: 1,
            rng: ((tid as u64) << 32 ^ seq).wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            timing: false,
            weight: 1,
            sections: 0,
            call_kernel: Duration::ZERO,
            reads: 0,
            timed: 0,
            timed_host: Duration::ZERO,
            host: Duration::ZERO,
            kernel: Duration::ZERO,
        };
        ledger.set_period(LEDGER_PERIOD);
        ledger
    }

    /// Sets the mean gap (1 times every call) and restarts the exact
    /// head: the next `period` calls are all timed.
    pub(crate) fn set_period(&mut self, period: u32) {
        self.period = period.max(1);
        self.head = self.period;
        self.countdown = 1;
    }

    /// The mean gap between timed syscalls.
    pub(crate) fn period(&self) -> u32 {
        self.period
    }

    fn draw(&mut self) -> u32 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng >> 32) as u32
    }

    /// Counts one syscall entry; returns its start time when this call
    /// is timed. Inlined into every registry wrapper, so only the
    /// countdown is inline and the timed path is out of line.
    #[inline]
    pub(crate) fn begin(&mut self) -> Option<Instant> {
        if self.countdown > 1 {
            self.countdown -= 1;
            return None;
        }
        self.begin_timed()
    }

    #[cold]
    #[inline(never)]
    fn begin_timed(&mut self) -> Option<Instant> {
        if self.head > 0 {
            self.head -= 1;
            self.weight = 1;
            // The head's last call hands over to sampling, whose first
            // timed call falls uniformly in the next `period` calls.
            self.countdown = if self.head > 0 {
                1
            } else {
                1 + self.draw() % self.period
            };
        } else {
            self.weight = self.period;
            self.countdown = self.period / 2 + self.draw() % (self.period + 1);
            // A rarely taken read finds the clock's data cold; a first,
            // untimed read warms it so the interval does not pay for
            // that. (The head's back-to-back reads stay warm.)
            std::hint::black_box(Instant::now());
            self.reads += 1;
        }
        self.timing = true;
        self.sections = 0;
        self.call_kernel = Duration::ZERO;
        Some(Instant::now())
    }

    /// Closes the syscall [`Ledger::begin`] opened.
    #[inline]
    pub(crate) fn end(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.end_timed(t0);
        }
    }

    #[cold]
    #[inline(never)]
    fn end_timed(&mut self, t0: Instant) {
        let inner = 1 + 2 * self.sections;
        let mut host = t0.elapsed().saturating_sub(clock_read_cost() * inner);
        let mut kernel = std::mem::take(&mut self.call_kernel).min(host);
        if self.timed >= OUTLIER_WARMUP {
            let cap = self.timed_host / self.timed * OUTLIER_FACTOR;
            if host > cap {
                kernel = kernel.mul_f64(cap.as_secs_f64() / host.as_secs_f64());
                host = cap;
            }
        }
        self.timed += 1;
        self.timed_host += host;
        self.host += host * self.weight;
        self.kernel += kernel * self.weight;
        self.reads += 2 + 2 * self.sections;
        self.timing = false;
    }

    /// Opens a kernel section: its start time inside a timed syscall.
    #[inline]
    pub(crate) fn kernel_begin(&self) -> Option<Instant> {
        if self.timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes the kernel section [`Ledger::kernel_begin`] opened.
    #[inline]
    pub(crate) fn kernel_end(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.kernel_end_timed(t0);
        }
    }

    #[cold]
    #[inline(never)]
    fn kernel_end_timed(&mut self, t0: Instant) {
        self.call_kernel += t0.elapsed().saturating_sub(clock_read_cost());
        self.sections += 1;
    }

    /// The wall time of the ledger's own clock reads since the last
    /// call, which the caller's slice timer must not count.
    fn take_overhead(&mut self) -> Duration {
        clock_read_cost() * std::mem::take(&mut self.reads)
    }

    /// The `(host, kernel)` estimates, clamped so that
    /// `kernel <= host <= total`.
    fn estimate(&self, total: Duration) -> (Duration, Duration) {
        let host = self.host.min(total);
        (host, self.kernel.min(host))
    }
}

/// Per-task syscall counts and layer timings.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Number of invocations per syscall name.
    pub counts: SysCounts,
    /// Wall time spent inside host (WALI + kernel) calls: the ledger's
    /// sampled estimate, never above `total_time`.
    pub host_time: Duration,
    /// Wall time spent inside the kernel model: the ledger's sampled
    /// estimate, never above `host_time`.
    pub kernel_time: Duration,
    /// Total wall time of the task (set by the runner).
    pub total_time: Duration,
    /// Executed Wasm ops (engine step counter snapshot).
    pub wasm_steps: u64,
    /// Of `wasm_steps`, ops dispatched by the tier-2 register loop
    /// (`wasm_steps - reg_steps` ran on the fused stack tier).
    pub reg_steps: u64,
    /// The sampled timing state behind `host_time` and `kernel_time`.
    pub(crate) ledger: Ledger,
}

impl Trace {
    /// An empty trace whose ledger jitter is seeded from `tid`.
    pub(crate) fn for_task(tid: i32) -> Trace {
        Trace {
            ledger: Ledger::seeded(tid),
            ..Trace::default()
        }
    }

    /// Adds one scheduling slice of wall time and refreshes
    /// `host_time`/`kernel_time` from the ledger (the runner calls this
    /// at the end of every slice).
    pub(crate) fn add_slice(&mut self, d: Duration) {
        self.total_time += d.saturating_sub(self.ledger.take_overhead());
        (self.host_time, self.kernel_time) = self.ledger.estimate(self.total_time);
    }

    /// Records one invocation of `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str) {
        match spec::sysno(name) {
            Some(no) => self.counts.bump_mut(no),
            None => self.counts.count_named(name),
        }
    }

    /// Records one invocation by pre-resolved dense index (the hot path
    /// used by the registry wrappers).
    #[inline]
    pub fn count_sysno(&mut self, sysno: u16) {
        self.counts.bump_mut(sysno);
    }

    /// Records one invocation through a registration-time dispatch pair:
    /// the dense index when the call is a spec syscall, the name
    /// otherwise.
    #[inline]
    pub fn count_dispatch(&mut self, sysno: Option<u16>, name: &'static str) {
        match sysno {
            Some(no) => self.counts.bump_mut(no),
            None => self.counts.count(name),
        }
    }

    /// Total syscall invocations.
    pub fn total_syscalls(&self) -> u64 {
        self.counts.total()
    }

    /// Number of distinct syscalls used.
    pub fn unique_syscalls(&self) -> usize {
        self.counts.len()
    }

    /// Time attributed to the WALI interface layer itself.
    pub fn wali_time(&self) -> Duration {
        self.host_time.saturating_sub(self.kernel_time)
    }

    /// Time attributed to Wasm application code.
    pub fn wasm_time(&self) -> Duration {
        self.total_time.saturating_sub(self.host_time)
    }

    /// Fractional breakdown `(wasm, kernel, wali)` of total time.
    pub fn breakdown(&self) -> (f64, f64, f64) {
        let total = self.total_time.as_secs_f64();
        if total == 0.0 {
            return (0.0, 0.0, 0.0);
        }
        (
            self.wasm_time().as_secs_f64() / total,
            self.kernel_time.as_secs_f64() / total,
            self.wali_time().as_secs_f64() / total,
        )
    }

    /// Merges another trace into this one (multi-task aggregation).
    /// Exclusive access: plain adds, skipping the (typical) zero cells —
    /// a per-task-exit cost that must stay cheap with hundreds of tasks.
    /// The layer times add each task's clamped estimate, so the sums
    /// keep `kernel_time <= host_time <= total_time`.
    pub fn merge(&mut self, other: &Trace) {
        for i in 0..SPEC_LEN {
            let v = other.counts.dense[i].load(std::sync::atomic::Ordering::Relaxed);
            if v != 0 {
                *self.counts.dense[i].get_mut() += v;
            }
        }
        for (name, n) in other.counts.named.lock_ok().iter() {
            self.counts.add(name, *n);
        }
        self.host_time += other.host_time;
        self.kernel_time += other.kernel_time;
        self.total_time += other.total_time;
        self.wasm_steps += other.wasm_steps;
        self.reg_steps += other.reg_steps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut t = Trace::default();
        t.count("read");
        t.count("read");
        t.count("write");
        assert_eq!(t.counts.of("read"), 2);
        assert_eq!(t.total_syscalls(), 3);
        assert_eq!(t.unique_syscalls(), 2);
    }

    #[test]
    fn dense_and_named_counts_agree() {
        let c = SysCounts::default();
        let no = spec::sysno("read").expect("read is in the spec");
        c.bump(no);
        c.count("read");
        c.count("get_argc"); // support method: not in SPEC, named fallback
        assert_eq!(c.of("read"), 2);
        assert_eq!(c.of("get_argc"), 1);
        assert_eq!(c.of("never_called"), 0);
        assert!(c.contains_key("get_argc"));
        assert!(!c.contains_key("never_called"));
        assert_eq!(c.total(), 3);
        assert_eq!(c.to_map().len(), 2);
    }

    #[test]
    fn breakdown_partitions_total() {
        let t = Trace {
            total_time: Duration::from_millis(100),
            host_time: Duration::from_millis(40),
            kernel_time: Duration::from_millis(30),
            ..Default::default()
        };
        let (wasm, kernel, wali) = t.breakdown();
        assert!((wasm - 0.6).abs() < 1e-9);
        assert!((kernel - 0.3).abs() < 1e-9);
        assert!((wali - 0.1).abs() < 1e-9);
        assert!((wasm + kernel + wali - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = Trace::default();
        a.count("read");
        a.host_time = Duration::from_millis(5);
        let mut b = Trace::default();
        b.count("read");
        b.count("mmap");
        b.kernel_time = Duration::from_millis(3);
        a.merge(&b);
        assert_eq!(a.counts.of("read"), 2);
        assert_eq!(a.counts.of("mmap"), 1);
        assert_eq!(a.kernel_time, Duration::from_millis(3));
    }

    #[test]
    fn sampled_calls_count_for_their_period_and_estimates_clamp() {
        // Each call below lasts at least 10 us; the ledger takes out up
        // to one calibrated clock read, so check against 9 us.
        let call = Duration::from_micros(10);
        let floor = Duration::from_micros(9);
        let mut l = Ledger::seeded(1);
        // The exact head: every call timed, each standing for itself.
        for _ in 0..LEDGER_PERIOD {
            assert!(l.begin().is_some());
            l.end(Instant::now().checked_sub(call));
        }
        let head = l.host;
        assert!(head >= floor * LEDGER_PERIOD);
        // Past the head, a timed call stands for `period` calls.
        let t0 = (0..2 * LEDGER_PERIOD)
            .find_map(|_| l.begin())
            .expect("sampled");
        l.end(t0.checked_sub(call));
        assert!(l.host - head >= floor * LEDGER_PERIOD);
        // Estimates never exceed the parent layer.
        let (host, kernel) = l.estimate(Duration::from_micros(100));
        assert_eq!(host, Duration::from_micros(100));
        assert!(kernel <= host);
    }

    #[test]
    fn a_preempted_timed_call_is_cut_to_the_outlier_cap() {
        let mut l = Ledger::seeded(1);
        l.set_period(1);
        let call = |l: &mut Ledger, len: Duration| {
            assert!(l.begin().is_some());
            l.end(Instant::now().checked_sub(len));
        };
        for _ in 0..8 {
            call(&mut l, Duration::from_micros(10));
        }
        let before = l.host;
        call(&mut l, Duration::from_millis(50));
        let added = l.host - before;
        assert!(
            added <= before / 8 * OUTLIER_FACTOR,
            "a 50 ms call added {added:?}"
        );
        assert!(added >= Duration::from_micros(9) * OUTLIER_FACTOR);
    }

    #[test]
    fn past_the_head_about_one_call_in_a_period_is_timed() {
        for tid in 1..40 {
            let mut l = Ledger::seeded(tid);
            let head = (0..LEDGER_PERIOD).filter(|_| l.begin().is_some()).count();
            assert_eq!(head, LEDGER_PERIOD as usize, "the head is exact");
            let timed = (0..32_000).filter(|_| l.begin().is_some()).count();
            assert!((900..=1100).contains(&timed), "tid {tid}: {timed} timed");
            let mut gaps = Vec::new();
            let mut since = 0;
            for _ in 0..3200 {
                since += 1;
                if l.begin().is_some() {
                    gaps.push(since);
                    since = 0;
                }
            }
            // Jittered: the gaps are not one fixed stride. (The first
            // gap started before the count did.)
            let gaps = &gaps[1..];
            assert!(gaps.iter().any(|&g| g != gaps[0]), "tid {tid}: {gaps:?}");
            assert!(gaps.iter().all(|g| (16..=48).contains(g)), "{gaps:?}");
        }
        let mut exact = Ledger::seeded(7);
        exact.set_period(1);
        assert!((0..100).all(|_| exact.begin().is_some()));
    }

    use crate::runner::WaliRunner;
    use crate::testkit::{roundtrip, sys};

    /// Runs `module` once on a fresh single-worker runner, with the
    /// ledger period overridden when `period` is set, and returns the
    /// run's `(host, kernel, total)` times.
    fn layer_times(module: &wasm::Module, period: Option<u32>) -> [Duration; 3] {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(1);
        runner
            .register_program("/usr/bin/app", module)
            .expect("register");
        let tid = runner.spawn("/usr/bin/app", &[], &[]).expect("spawn");
        if let Some(p) = period {
            runner.configure_ctx(tid, |c| c.trace.ledger.set_period(p));
        }
        let out = runner.run().expect("run");
        assert_eq!(out.exit_code(), Some(0), "{:?}", out.main_exit);
        let t = &out.trace;
        assert!(t.kernel_time <= t.host_time && t.host_time <= t.total_time);
        [t.host_time, t.kernel_time, t.total_time]
    }

    /// `(host / total, kernel / host)` over interleaved sampled and exact
    /// runs of `module`.
    fn splits(module: &wasm::Module, runs: usize) -> [(f64, f64); 2] {
        let mut sums = [[Duration::ZERO; 3]; 2];
        for _ in 0..runs {
            for (i, period) in [None, Some(1)].into_iter().enumerate() {
                let t = layer_times(module, period);
                for (sum, d) in sums[i].iter_mut().zip(t) {
                    *sum += d;
                }
            }
        }
        sums.map(|[host, kernel, total]| {
            (
                host.as_secs_f64() / total.as_secs_f64(),
                kernel.as_secs_f64() / host.as_secs_f64(),
            )
        })
    }

    /// Largest allowed difference between the sampled and the exact
    /// split, in absolute share (both shares lie in `[0, 1]`).
    const SPLIT_TOLERANCE: f64 = 0.12;

    #[test]
    fn sampled_split_tracks_an_exact_run() {
        for (name, app, runs) in [
            (
                "prefork_server_sim(4, 64)",
                apps::progs::prefork_server_sim(4, 64),
                12,
            ),
            ("sqlite_sim(8192)", apps::progs::sqlite_sim(8192), 20),
        ] {
            let module = roundtrip(&app.module);
            layer_times(&module, None);
            let [sampled, exact] = splits(&module, runs);
            for (what, s, e) in [
                ("host/total", sampled.0, exact.0),
                ("kernel/host", sampled.1, exact.1),
            ] {
                assert!(
                    (s - e).abs() <= SPLIT_TOLERANCE,
                    "{name}: sampled {what} {s:.3} vs exact {e:.3}"
                );
            }
        }
    }

    #[test]
    fn layers_nest_on_a_three_syscall_program() {
        let mut mb = wasm::build::ModuleBuilder::new();
        let getpid = sys(&mut mb, "getpid", 0);
        let write = sys(&mut mb, "write", 3);
        mb.memory(1, Some(1));
        let msg = mb.c_str("x");
        let sig = mb.sig([], [wasm::types::ValType::I32]);
        let main = mb.func(sig, |b| {
            b.call(getpid).drop_();
            b.call(getpid).drop_();
            b.i64(1).i64(msg as i64).i64(1).call(write).drop_();
            b.i32(0);
        });
        mb.export("_start", main);
        let module = roundtrip(&mb.build());
        // Sampled runs time one of the three calls now and then, scaled
        // far past the run; exact runs time all three. `layer_times`
        // asserts the nesting on every run.
        for _ in 0..64 {
            layer_times(&module, None);
            layer_times(&module, Some(1));
        }
        // Exact timing sees all three calls.
        let [host, kernel, _] = layer_times(&module, Some(1));
        assert!(host > Duration::ZERO && kernel > Duration::ZERO);
    }
}
