//! Workload plans, the timed launch path, the line protocol of a
//! measuring process, and small statistics helpers.
//!
//! One run is one guest program taken through the public runtime path —
//! `wasm::decode::decode` → `WaliRunner::new` → `register_program` →
//! `spawn` → `run` → drop — on a fresh runtime, startup included.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use wali::runner::{SchedStats, WaliRunner};
use wali::WaliContext;
use wasm::prep::Program;
use wasm::SafepointScheme;

use crate::guest::{self, Guest, Rng, PROGRAM_PATH, SCRIPT_LEN};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Launch,
    Compute,
    Fileio,
    Server,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Launch,
        Workload::Compute,
        Workload::Fileio,
        Workload::Server,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Launch => "launch",
            Workload::Compute => "compute",
            Workload::Fileio => "fileio",
            Workload::Server => "server",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The guests of one workload and the order they are launched in; the
/// measurement cycles through `order`.
pub struct Plan {
    pub guests: Vec<Guest>,
    pub order: Vec<usize>,
}

/// Launches per guest in one cycle of the `launch` order.
const LAUNCH_REPEATS: usize = 4;

/// Builds the guests of `w` from `seed`. `tiny` shrinks every guest (the
/// smoke mode).
pub fn plan(w: Workload, seed: u64, tiny: bool) -> Plan {
    let mut rng = Rng::new(seed);
    match w {
        Workload::Launch => {
            // Every seed launches the same multiset of (program, size)
            // pairs; the seed picks the lua scripts and the order, so
            // which size follows which differs between seeds while the
            // total work does not.
            let sizes: &[u32] = if tiny { &[1] } else { &[1, 2, 3, 4] };
            let mut guests = Vec::new();
            for &s in sizes {
                guests.push(guest::lua(s, guest::script(&mut rng, SCRIPT_LEN)));
                guests.push(guest::bash(s));
                guests.push(guest::sqlite(32 * s));
                guests.push(guest::memcached(s));
                guests.push(guest::paho(s));
            }
            let mut order: Vec<usize> = (0..guests.len())
                .flat_map(|g| std::iter::repeat_n(g, LAUNCH_REPEATS))
                .collect();
            rng.shuffle(&mut order);
            Plan { guests, order }
        }
        Workload::Compute => {
            let scale = if tiny { 20 } else { 2000 };
            single(guest::lua(scale, guest::script(&mut rng, SCRIPT_LEN)))
        }
        Workload::Fileio => single(guest::sqlite(if tiny { 256 } else { 8192 })),
        Workload::Server => single(if tiny {
            guest::prefork(2, 4)
        } else {
            guest::prefork(4, 64)
        }),
    }
}

fn single(g: Guest) -> Plan {
    Plan {
        guests: vec![g],
        order: vec![0],
    }
}

/// Launch phases timed in a traced run, in path order.
pub const PHASES: [&str; 6] = [
    "decode",
    "runner_new",
    "register",
    "spawn",
    "run",
    "teardown",
];

/// Layer entry points timed outside the path (nested inside `runner_new`
/// and `register`): validate, `build_linker`, `link_tiered`,
/// `Kernel::new`.
pub const PROBES: [&str; 4] = ["validate", "linker", "link", "kernel_new"];

/// What one completed run reports.
pub struct Run {
    /// Wall time of the path, output checks excluded.
    pub wall: Duration,
    /// Per-phase spans (traced runs only).
    pub phases: Option<[Duration; 6]>,
    /// Layer entry points timed on the same module (traced runs only).
    pub probes: Option<[Duration; 4]>,
    pub syscalls: u64,
    pub steps: u64,
    pub reg_steps: u64,
    pub host: Duration,
    pub kernel: Duration,
    pub sched: SchedStats,
    pub resident_pages: u32,
}

/// Launches `g` once, checks its output, and reports the run. Any
/// failure — a runner error, a trap, a mismatch or a panic — is an
/// `Err` naming it.
pub fn launch(g: &Guest, traced: bool) -> Result<Run, String> {
    let run = catch_unwind(AssertUnwindSafe(|| path(g, traced))).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panic: {msg}"))
    });
    run.map_err(|e| format!("{}: {e}", g.label))
}

fn path(g: &Guest, traced: bool) -> Result<Run, String> {
    let t0 = Instant::now();
    let module = wasm::decode::decode(&g.bytes).map_err(|e| format!("decode: {e}"))?;
    let t_decode = traced.then(Instant::now);
    let mut runner = WaliRunner::new_default();
    let t_new = traced.then(Instant::now);
    for (file, bytes) in &g.files {
        runner
            .kernel
            .lock_ok()
            .vfs
            .write_file(file, bytes)
            .map_err(|e| format!("staging {file}: {e:?}"))?;
    }
    let t_stage = traced.then(Instant::now);
    runner
        .register_program(PROGRAM_PATH, &module)
        .map_err(|e| format!("register: {e}"))?;
    let t_register = traced.then(Instant::now);
    runner
        .spawn(PROGRAM_PATH, &[], &[])
        .map_err(|e| format!("spawn: {e}"))?;
    let t_spawn = traced.then(Instant::now);
    let out = runner.run().map_err(|e| format!("run: {e}"))?;
    let t_run = Instant::now();
    let db = guest::read_db(&g.expect, &runner.kernel);
    let t_drop = Instant::now();
    drop(runner);
    let t_end = Instant::now();
    guest::check(&g.expect, &out, db.as_deref())?;

    let phases = traced.then(|| {
        let at = |t: Option<Instant>| t.expect("stamped in a traced run");
        [
            at(t_decode) - t0,
            at(t_new) - at(t_decode),
            at(t_register) - at(t_stage),
            at(t_spawn) - at(t_register),
            t_run - at(t_spawn),
            t_end - t_drop,
        ]
    });
    let probes = traced.then(|| probe(&module));
    Ok(Run {
        wall: (t_run - t0) + (t_end - t_drop),
        phases,
        probes,
        syscalls: out.trace.total_syscalls(),
        steps: out.trace.wasm_steps,
        reg_steps: out.trace.reg_steps,
        host: out.trace.host_time,
        kernel: out.trace.kernel_time,
        sched: out.sched,
        resident_pages: out.peak_resident_pages,
    })
}

/// Times the layer entry points the path calls internally, each called
/// on its own on `module`.
fn probe(module: &wasm::Module) -> [Duration; 4] {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed()
    };
    let validate = time(&mut || {
        std::hint::black_box(wasm::validate::validate(module)).expect("validated by the path");
    });
    let mut linker = None;
    let build = time(&mut || linker = Some(wali::build_linker()));
    let linker = linker.expect("built above");
    let mut program = None;
    let link = time(&mut || {
        program = Some(Program::<WaliContext>::link_tiered(
            module,
            &linker,
            SafepointScheme::LoopHeaders,
            wasm::prep::fuse_default(),
            wasm::regir::regir_default(),
        ));
    });
    program.expect("timed above").expect("linked by the path");
    let mut kernel = None;
    let kernel_new = time(&mut || kernel = Some(vkernel::Kernel::new()));
    drop(kernel);
    [validate, build, link, kernel_new]
}

/// What one measuring process reports: its runs, failures, set-up time
/// and peak RSS.
#[derive(Default)]
pub struct Tally {
    pub untraced: Vec<Run>,
    pub traced: Vec<Run>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub setup_s: Vec<f64>,
    pub rss_kib: f64,
}

impl Tally {
    fn record(&mut self, r: Result<Run, String>, traced: bool) {
        self.attempted += 1;
        match r {
            Ok(run) if traced => self.traced.push(run),
            Ok(run) => self.untraced.push(run),
            Err(e) => self.failures.push(e),
        }
    }

    /// The line protocol a measuring process prints: `setup <s>`,
    /// `rss <KiB>`, `attempted <n>`, `fail <message>`, and one
    /// `run <traced> <fields>` line per run, durations in ns.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for s in &self.setup_s {
            out += &format!("setup {s}\n");
        }
        out += &format!("rss {}\nattempted {}\n", self.rss_kib, self.attempted);
        for f in &self.failures {
            out += &format!("fail {}\n", f.replace('\n', " "));
        }
        for (traced, runs) in [(false, &self.untraced), (true, &self.traced)] {
            for r in runs {
                let mut v = vec![
                    r.wall.as_nanos() as u64,
                    r.syscalls,
                    r.steps,
                    r.reg_steps,
                    r.host.as_nanos() as u64,
                    r.kernel.as_nanos() as u64,
                    r.sched.parks,
                    r.sched.wakeups,
                    r.sched.blocked_retries,
                    r.sched.idle_advances,
                    r.resident_pages as u64,
                ];
                let spans = r.phases.iter().flatten().chain(r.probes.iter().flatten());
                v.extend(spans.map(|d| d.as_nanos() as u64));
                let v: Vec<String> = v.iter().map(u64::to_string).collect();
                out += &format!("run {} {}\n", traced as u8, v.join(" "));
            }
        }
        out
    }

    /// Parses [`Tally::to_text`] output.
    pub fn parse(text: &str) -> Result<Tally, String> {
        let mut t = Tally::default();
        for line in text.lines() {
            let bad = || format!("bad line {line:?}");
            let (tag, rest) = line.split_once(' ').ok_or_else(bad)?;
            match tag {
                "setup" => t.setup_s.push(rest.parse().map_err(|_| bad())?),
                "rss" => t.rss_kib = rest.parse().map_err(|_| bad())?,
                "attempted" => t.attempted = rest.parse().map_err(|_| bad())?,
                "fail" => t.failures.push(rest.to_string()),
                "run" => {
                    let v: Vec<u64> = rest
                        .split(' ')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|_| bad())?;
                    let ns = Duration::from_nanos;
                    let traced = match v.len() {
                        12 => false,
                        22 => true,
                        _ => return Err(bad()),
                    };
                    let run = Run {
                        wall: ns(v[1]),
                        syscalls: v[2],
                        steps: v[3],
                        reg_steps: v[4],
                        host: ns(v[5]),
                        kernel: ns(v[6]),
                        sched: SchedStats {
                            parks: v[7],
                            wakeups: v[8],
                            blocked_retries: v[9],
                            idle_advances: v[10],
                        },
                        resident_pages: v[11] as u32,
                        phases: traced.then(|| std::array::from_fn(|i| ns(v[12 + i]))),
                        probes: traced.then(|| std::array::from_fn(|i| ns(v[18 + i]))),
                    };
                    if (v[0] == 1) != traced {
                        return Err(bad());
                    }
                    if traced {
                        t.traced.push(run);
                    } else {
                        t.untraced.push(run);
                    }
                }
                _ => return Err(bad()),
            }
        }
        Ok(t)
    }
}

/// Runs every guest `repeats` times, checked but not timed: the warm-up
/// that fills allocator pools and caches before the first timed run.
pub fn warm_up(plan: &Plan, repeats: usize, tally: &mut Tally) {
    for g in &plan.guests {
        for _ in 0..repeats {
            tally.attempted += 1;
            if let Err(e) = launch(g, false) {
                tally.failures.push(e);
            }
        }
    }
}

/// Cycles through `plan.order` for `seconds` of wall time. With
/// `traced`, every launch runs twice, untraced and traced, alternating
/// which goes first, so both see the same guests under the same load.
pub fn measure(plan: &Plan, seconds: f64, traced: bool, tally: &mut Tally) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut k = 0usize;
    loop {
        let g = &plan.guests[plan.order[k % plan.order.len()]];
        if traced {
            let traced_first = k % 2 == 1;
            tally.record(launch(g, traced_first), traced_first);
            tally.record(launch(g, !traced_first), !traced_first);
        } else {
            tally.record(launch(g, false), false);
        }
        k += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// The `p` quantile (0..=1) of `v` with linear interpolation; 0 when
/// empty.
pub fn quantile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = p * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn plans_are_seeded() {
        let order = |seed| plan(Workload::Launch, seed, true).order;
        assert_eq!(order(3), order(3));
        let scripts = |seed| plan(Workload::Compute, seed, true).guests[0].files.clone();
        assert_eq!(scripts(3), scripts(3));
        assert_ne!(scripts(3), scripts(4));
    }

    #[test]
    fn every_smoke_guest_passes_its_checks() {
        for w in Workload::ALL {
            for g in &plan(w, 1, true).guests {
                let run = launch(g, true).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
                assert!(run.phases.is_some() && run.probes.is_some());
            }
        }
    }

    #[test]
    fn tallies_round_trip_through_text() {
        let mut t = Tally::default();
        let g = &plan(Workload::Server, 1, true).guests[0];
        t.record(launch(g, false), false);
        t.record(launch(g, true), true);
        t.record(Err("x\ny".into()), false);
        t.setup_s.push(0.25);
        t.rss_kib = 1234.0;
        let text = t.to_text();
        let back = Tally::parse(&text).expect("parses");
        assert_eq!(back.to_text(), text);
        assert_eq!((back.untraced.len(), back.traced.len()), (1, 1));
        assert_eq!(back.attempted, 3);
        assert_eq!(back.failures, ["x y"]);
        assert!(Tally::parse("run 1 2 3").is_err());
    }

    #[test]
    fn wrong_expectations_are_failures() {
        for wrong in crate::wrong_expectations(&guest::bash(2)) {
            let err = launch(&wrong, false)
                .err()
                .expect("a wrong expectation fails");
            assert!(err.starts_with("bash_sim(2)"), "{err}");
        }
    }
}
