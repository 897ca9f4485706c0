//! The WALI runtime benchmark: four seeded workloads run as whole guest
//! programs, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path walibench/Cargo.toml -- \
//!     --workload <launch|compute|fileio|server> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path walibench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ones. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `walibench/README.md` for the workloads and metrics.
//!
//! The measurement is split over [`PROCESSES`] measuring processes run
//! one after another (this executable with `--child`), each set up
//! afresh: speed varies from one process to the next, so the medians
//! over processes are steadier than any one process.

mod guest;
mod measure;
mod metrics;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use guest::{Count, Guest};
use measure::{ratio, Tally, Workload};
use metrics::{Metric, END_TO_END, PER_LAYER, UNBOUNDED};

/// Measuring processes per invocation; each measures `seconds /
/// PROCESSES`.
const PROCESSES: usize = 20;
/// Checked, untimed launches of every guest in a process's set-up.
const WARMUP: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// Run as one measuring process and print its [`Tally`].
    child: bool,
    /// Tiny guests (the smoke mode).
    tiny: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut traced) = (None, None, None);
    let (mut child, mut tiny) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => {
                child = true;
                continue;
            }
            "--tiny" => {
                tiny = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or(bad("unknown workload"))?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e.to_string()))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e.to_string()))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("must be in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        traced: traced.ok_or("missing --trace")?,
        child,
        tiny,
    })
}

fn main() -> ExitCode {
    // The runtime reads `WALI_*` toggles (tiers, scheduler, worker
    // count); any of them would change the program under test.
    let pinned: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("WALI_"))
        .collect();
    if !pinned.is_empty() {
        eprintln!("walibench: refusing to run with {pinned:?} set; unset them");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--smoke"] {
        return match smoke() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("walibench smoke: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("walibench: {e}");
            eprintln!(
                "usage: walibench --workload <launch|compute|fileio|server> \
                 --seed <n> --seconds <s> --trace <0|1>  |  walibench --smoke"
            );
            return ExitCode::from(2);
        }
    };
    if args.child {
        print!("{}", child(&args).to_text());
        return ExitCode::SUCCESS;
    }
    println!(
        "walibench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.traced as u8
    );
    println!("{}", provenance());
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("walibench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One measuring process: set up (generate the guests, warm up), then
/// measure for `seconds`.
fn child(a: &Args) -> Tally {
    let mut tally = Tally::default();
    let t = Instant::now();
    let plan = measure::plan(a.workload, a.seed, a.tiny);
    measure::warm_up(&plan, if a.tiny { 1 } else { WARMUP }, &mut tally);
    tally.setup_s.push(t.elapsed().as_secs_f64());
    measure::measure(&plan, a.seconds, a.traced, &mut tally);
    tally.rss_kib = peak_rss_kib();
    tally
}

struct Report {
    /// The metrics `BENCHMARK.json` declares: printed and in the JSON.
    metrics: Vec<Metric>,
    /// Printed only.
    unbounded: Vec<Metric>,
    notes: Vec<String>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    fn print(&self) {
        for note in &self.notes {
            println!("{note}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
        }
        for m in &self.unbounded {
            println!(
                "metric {} = {} {} (n={}; not declared in BENCHMARK.json, so not bounded)",
                m.name, m.value, m.unit, m.n
            );
        }
        let failed = self.failures.len() as u64;
        println!(
            "failed_ratio = {} ({failed} failed of {} attempted)",
            ratio(failed as f64, self.attempted as f64),
            self.attempted
        );
        for f in self.failures.iter().take(10) {
            println!("failure: {f}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0 && self.attempted > 0,
            self.attempted,
            metrics.join(", ")
        );
    }
}

/// Runs the [`PROCESSES`] measuring processes one after another and
/// folds their tallies into the report. A process that fails or prints
/// garbage counts as one failed run.
fn run(a: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = (a.seconds / PROCESSES as f64).to_string();
    let seed = a.seed.to_string();
    let mut procs = Vec::new();
    let mut lost = Vec::new();
    for i in 0..PROCESSES {
        let mut cmd = Command::new(&exe);
        cmd.args(["--child", "--workload", a.workload.name(), "--seed", &seed])
            .args([
                "--seconds",
                &seconds,
                "--trace",
                if a.traced { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        if a.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd
            .output()
            .map_err(|e| format!("starting a measuring process: {e}"))?;
        let parsed = if out.status.success() {
            Tally::parse(&String::from_utf8_lossy(&out.stdout))
        } else {
            Err(format!("exited with {}", out.status))
        };
        match parsed {
            Ok(t) => procs.push(t),
            Err(e) => lost.push(format!("measuring process {i}: {e}")),
        }
    }
    let plan = measure::plan(a.workload, a.seed, a.tiny);
    let mut notes = vec![format!(
        "guests: {} ({} launches per cycle; {} measuring processes)",
        plan.guests
            .iter()
            .map(|g| g.label.as_str())
            .collect::<Vec<_>>()
            .join(", "),
        plan.order.len(),
        procs.len()
    )];
    let (metrics, unbounded) = if a.traced {
        let launch = a.workload == Workload::Launch;
        (metrics::per_layer(&procs, &mut notes, launch), Vec::new())
    } else {
        metrics::end_to_end(&procs)
    };
    let attempted = procs.iter().map(|p| p.attempted).sum::<u64>() + lost.len() as u64;
    let failures = procs
        .into_iter()
        .flat_map(|p| p.failures)
        .chain(lost)
        .collect();
    Ok(Report {
        metrics,
        unbounded,
        notes,
        attempted,
        failures,
    })
}

/// Host peak resident set size (`VmHWM`), in KiB; 0 where unavailable.
fn peak_rss_kib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// One line naming what was measured: cores, host, commit and a digest
/// of the sources (the benchmark may run outside a git checkout).
fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| std::env::consts::ARCH.to_string());
    let os = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| std::env::consts::OS.to_string());
    format!(
        "env nproc={nproc} host=\"{cpu} / {os}\" commit={} source=fnv64:{:016x}",
        commit(),
        source_digest()
    )
}

/// `HEAD`'s commit when run from a git checkout, else `none`.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split(' ').next())
                        .unwrap_or("none")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "none".into()),
        None => head.to_string(),
    }
}

/// FNV-1a over the paths and contents of the runtime's sources and this
/// benchmark's, in sorted order.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("walibench/src".as_ref(), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for &b in f.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Copies of `g`, each with one expected value made wrong.
fn wrong_expectations(g: &Guest) -> Vec<Guest> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut Guest)| {
        let mut w = g.clone();
        f(&mut w);
        out.push(w);
    };
    push(&|w| w.expect.exit += 1);
    push(&|w| w.expect.console.push(b'!'));
    push(&|w| w.expect.tasks += 1);
    push(&|w| {
        let (_, c) = &mut w.expect.counts[0];
        *c = match *c {
            Count::Exact(n) => Count::Exact(n + 1),
            Count::Blocking(n) => Count::Blocking(n + 1),
        }
    });
    push(&|w| {
        w.expect.counts.pop();
    });
    if g.expect.db_image.is_some() {
        push(&|w| {
            if let Some(img) = &mut w.expect.db_image {
                img[0] ^= 1;
            }
        });
    }
    out
}

/// Metric names a `BENCHMARK.json` array declares under `key`.
fn declared(json: &str, key: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split("\"name\"")
        .skip(1)
        .filter_map(|s| s.split('"').nth(1).map(str::to_string))
        .collect()
}

/// Every workload at tiny size, both trace modes: checks that every
/// metric `BENCHMARK.json` names is printed, that no run fails, and that
/// deliberately wrong expectations are reported as failures.
fn smoke() -> Result<(), String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    for (key, ours) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let mut want = declared(&json, key);
        let mut have: Vec<String> = ours.iter().map(|(n, _)| n.to_string()).collect();
        want.sort();
        have.sort();
        if want != have {
            return Err(format!(
                "{key}: BENCHMARK.json names {want:?}, the benchmark {have:?}"
            ));
        }
    }
    for w in Workload::ALL {
        for traced in [false, true] {
            let report = run(&Args {
                workload: w,
                seed: 1,
                seconds: 0.5,
                traced,
                child: false,
                tiny: true,
            })?;
            let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let table = if traced {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            let unbounded = report.unbounded.iter().map(|m| m.name);
            let expected = if traced { &[][..] } else { &UNBOUNDED[..] };
            if names != table.iter().map(|(n, _)| *n).collect::<Vec<_>>()
                || !unbounded.eq(expected.iter().map(|(n, _)| *n))
            {
                return Err(format!("{}: printed {names:?}", w.name()));
            }
            if let Some(f) = report.failures.first() {
                return Err(format!("{}: {f}", w.name()));
            }
            println!(
                "smoke {} trace={}: {} metrics, {} runs ok",
                w.name(),
                traced as u8,
                names.len(),
                report.attempted
            );
        }
        for g in &measure::plan(w, 1, true).guests {
            for wrong in wrong_expectations(g) {
                if measure::launch(&wrong, false).is_ok() {
                    return Err(format!("{}: a wrong expectation passed its check", g.label));
                }
            }
        }
        println!(
            "smoke {}: wrong expectations are reported as failures",
            w.name()
        );
    }
    println!("smoke ok");
    Ok(())
}
