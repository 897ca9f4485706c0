//! Guest generation and output checks.
//!
//! A [`Guest`] is one program the benchmark launches: its wasm bytes, the
//! input files the program reads, and what a correct run must report.
//! Every expected value is derived from the generated input and the
//! program's source structure (how many times each syscall is issued
//! for a given size), never from an earlier run of the program.

use wali::runner::{RunOutcome, TaskEnd};

/// Path every guest is registered under.
pub const PROGRAM_PATH: &str = "/usr/bin/app";
/// The script `lua_sim` loads.
const SCRIPT_PATH: &str = "/tmp/script.lua";
/// The database `sqlite_sim` maps.
const DB_PATH: &str = "/tmp/test.db";
/// Script length of the compute and launch `lua_sim` guests. Odd, so
/// the interpreter's every-64th-step heap check visits every script
/// position equally often.
pub const SCRIPT_LEN: usize = 63;

/// SplitMix64: a small, seedable generator (std only).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// How often one syscall must appear in a run's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Count {
    /// Never blocks: issued exactly this often.
    Exact(u64),
    /// May block: completes this often, plus one extra attempt per time
    /// the calling task parked.
    Blocking(u64),
}

/// What a correct run reports.
#[derive(Clone, Debug)]
pub struct Expect {
    /// Exit code of the main task.
    pub exit: i32,
    /// Console text.
    pub console: Vec<u8>,
    /// Every syscall the run may issue, with its count.
    pub counts: Vec<(&'static str, Count)>,
    /// Tasks that end (main plus forks and threads), all exiting 0
    /// except the main task, which exits with `exit`.
    pub tasks: usize,
    /// Bytes the database file must start with after the run.
    pub db_image: Option<Vec<u8>>,
}

impl Expect {
    /// Syscalls that complete, blocked attempts excluded.
    pub fn base_syscalls(&self) -> u64 {
        self.counts
            .iter()
            .map(|(_, c)| match c {
                Count::Exact(n) | Count::Blocking(n) => n,
            })
            .sum()
    }
}

/// One launchable program with its inputs and expected outcome.
#[derive(Clone)]
pub struct Guest {
    /// Label for reports (`lua_sim(3)`).
    pub label: String,
    /// Encoded wasm module.
    pub bytes: Vec<u8>,
    /// Files written into the guest's filesystem before registration.
    pub files: Vec<(&'static str, Vec<u8>)>,
    pub expect: Expect,
}

fn encode(app: &apps::App) -> Vec<u8> {
    wasm::encode::encode(&app.module)
}

/// A seeded `lua_sim` script of `len` bytes. Opcodes (`byte & 7`) appear
/// in a fixed histogram — each of the eight equally often, up to
/// rounding — so every seed executes the same instruction mix; the seed
/// picks their order and the high bits.
pub fn script(rng: &mut Rng, len: usize) -> Vec<u8> {
    let mut s: Vec<u8> = (0..len)
        .map(|j| (rng.next_u64() as u8 & 0xf8) | (j % 8) as u8)
        .collect();
    rng.shuffle(&mut s);
    s
}

/// `lua_sim(scale)` reading `script`.
pub fn lua(scale: u32, script: Vec<u8>) -> Guest {
    assert!(
        (1..=4096).contains(&script.len()),
        "lua_sim reads at most 4096 script bytes"
    );
    // Replay the interpreter loop: the brk pair fires on opcode 4 when
    // the global step counter is a multiple of 64; the exit code is
    // whether the accumulator ended at zero.
    let rounds = scale.max(1) as u64;
    let (mut acc, mut step, mut pairs) = (0i64, 0u64, 0u64);
    for _ in 0..rounds {
        for &b in &script {
            let op = (b & 7) as i64;
            if op == 4 && step & 63 == 0 {
                pairs += 1;
            }
            acc = acc
                .wrapping_add(0x9e37_79b9)
                .wrapping_add(op)
                .wrapping_mul(31);
            step += 1;
        }
    }
    use Count::Exact;
    Guest {
        label: format!("lua_sim({scale})"),
        bytes: encode(&apps::lua_sim(scale)),
        files: vec![(SCRIPT_PATH, script)],
        expect: Expect {
            exit: (acc == 0) as i32,
            console: b"lua: done\n".to_vec(),
            counts: vec![
                ("open", Exact(1)),
                ("read", Exact(1)),
                ("close", Exact(1)),
                ("clock_gettime", Exact(rounds)),
                ("brk", Exact(2 * pairs)),
                ("write", Exact(1)),
            ],
            tasks: 1,
            db_image: None,
        },
    }
}

/// `bash_sim(jobs)`: one fork/pipe/wait4 pipeline per job.
pub fn bash(jobs: u32) -> Guest {
    let j = jobs.max(1) as u64;
    use Count::{Blocking, Exact};
    Guest {
        label: format!("bash_sim({jobs})"),
        bytes: encode(&apps::bash_sim(jobs)),
        files: Vec::new(),
        expect: Expect {
            exit: 0,
            console: b"$ ".repeat(j as usize),
            counts: vec![
                ("rt_sigaction", Exact(1)),
                // Prompt from the shell, echo from the child.
                ("write", Exact(2 * j)),
                ("pipe", Exact(j)),
                ("fork", Exact(j)),
                ("dup3", Exact(j)),
                ("getpid", Exact(j)),
                ("exit_group", Exact(j)),
                // Child closes the read end; the shell closes both.
                ("close", Exact(3 * j)),
                ("read", Blocking(j)),
                ("wait4", Blocking(j)),
            ],
            tasks: 1 + j as usize,
            db_image: None,
        },
    }
}

/// `sqlite_sim(rows)`: mmap'd page inserts, a journal write every 32
/// rows, then mremap growth, a pread point query and munmap.
pub fn sqlite(rows: u32) -> Guest {
    let r = rows.max(1);
    let journals = r.div_ceil(32) as u64;
    // 16-byte cells: (key, 7 * key) at the slot the key hashes to; the
    // shared mapping is written back to the file.
    let mut image = vec![0u8; 16384];
    for i in 0..r {
        let slot = (i.wrapping_mul(2_654_435_761) & 1023) as usize * 16;
        image[slot..slot + 4].copy_from_slice(&i.to_le_bytes());
        image[slot + 4..slot + 8].copy_from_slice(&i.wrapping_mul(7).to_le_bytes());
    }
    use Count::Exact;
    Guest {
        label: format!("sqlite_sim({rows})"),
        bytes: encode(&apps::sqlite_sim(rows)),
        files: Vec::new(),
        expect: Expect {
            exit: 0,
            console: Vec::new(),
            counts: vec![
                ("open", Exact(1 + journals)),
                ("ftruncate", Exact(1)),
                ("mmap", Exact(1)),
                ("pwrite64", Exact(journals)),
                ("fsync", Exact(journals)),
                ("msync", Exact(journals)),
                ("close", Exact(journals + 1)),
                ("mremap", Exact(1)),
                ("pread64", Exact(1)),
                ("munmap", Exact(1)),
            ],
            tasks: 1,
            db_image: Some(image),
        },
    }
}

/// `memcached_sim(requests)`: a server thread and a client main thread.
pub fn memcached(requests: u32) -> Guest {
    let n = requests.max(1) as u64;
    use Count::{Blocking, Exact};
    Guest {
        label: format!("memcached_sim({requests})"),
        bytes: encode(&apps::memcached_sim(requests)),
        files: Vec::new(),
        expect: Expect {
            exit: 0,
            console: Vec::new(),
            counts: vec![
                ("clone", Exact(1)),
                ("socket", Exact(1 + n)),
                ("setsockopt", Exact(1)),
                ("bind", Exact(1)),
                ("listen", Exact(1)),
                ("connect", Exact(n)),
                ("write", Exact(2 * n)),
                ("close", Exact(2 * n)),
                ("exit", Exact(1)),
                ("accept", Blocking(n)),
                ("read", Blocking(2 * n)),
            ],
            tasks: 2,
            db_image: None,
        },
    }
}

/// `paho_mqtt_sim(messages)`: publish / PUBACK round trips to a broker
/// thread, with a 1 ms virtual sleep after each.
pub fn paho(messages: u32) -> Guest {
    let n = messages.max(1) as u64;
    use Count::{Blocking, Exact};
    Guest {
        label: format!("paho_mqtt_sim({messages})"),
        bytes: encode(&apps::paho_mqtt_sim(messages)),
        files: Vec::new(),
        expect: Expect {
            exit: 0,
            console: Vec::new(),
            counts: vec![
                ("clone", Exact(1)),
                ("socket", Exact(2)),
                ("bind", Exact(2)),
                ("setsockopt", Exact(1)),
                ("sendto", Exact(2 * n)),
                ("exit", Exact(1)),
                ("recvfrom", Blocking(2 * n)),
                ("nanosleep", Blocking(n)),
            ],
            tasks: 2,
            db_image: None,
        },
    }
}

/// `prefork_server_sim(workers, requests)`: the parent forks `workers`
/// servers on one listener, drives `workers * requests` round trips as
/// the client, sends one QUIT per worker and reaps them.
pub fn prefork(workers: u32, requests: u32) -> Guest {
    let w = workers.max(1) as u64;
    let t = w * requests.max(1) as u64;
    use Count::{Blocking, Exact};
    Guest {
        label: format!("prefork_server_sim({workers}, {requests})"),
        bytes: encode(&apps::prefork_server_sim(workers, requests)),
        files: Vec::new(),
        expect: Expect {
            exit: 0,
            console: Vec::new(),
            counts: vec![
                ("socket", Exact(1 + t + w)),
                ("setsockopt", Exact(1)),
                ("bind", Exact(1)),
                ("listen", Exact(1)),
                ("fork", Exact(w)),
                ("connect", Exact(t + w)),
                // Request and reply per round trip, plus the QUITs.
                ("write", Exact(2 * t + w)),
                ("close", Exact(2 * t + 2 * w)),
                ("epoll_create1", Exact(w)),
                ("epoll_ctl", Exact(w)),
                ("exit_group", Exact(w)),
                ("epoll_wait", Blocking(t + w)),
                ("accept", Blocking(t + w)),
                ("read", Blocking(2 * t + w)),
                ("wait4", Blocking(w)),
            ],
            tasks: 1 + w as usize,
            db_image: None,
        },
    }
}

/// Checks a finished run against `expect`. `db` is the database file as
/// the run left it (read before teardown), when the guest has one.
pub fn check(expect: &Expect, out: &RunOutcome, db: Option<&[u8]>) -> Result<(), String> {
    if out.main_exit != Some(TaskEnd::Exited(expect.exit)) {
        return Err(format!(
            "main exit {:?}, expected Exited({})",
            out.main_exit, expect.exit
        ));
    }
    if out.console != expect.console {
        return Err(format!(
            "console {:?}, expected {:?}",
            out.stdout(),
            String::from_utf8_lossy(&expect.console)
        ));
    }
    if out.ends.len() != expect.tasks {
        return Err(format!(
            "{} tasks ended, expected {}",
            out.ends.len(),
            expect.tasks
        ));
    }
    if let Some((tid, end)) = out
        .ends
        .iter()
        .find(|(_, end)| !matches!(end, TaskEnd::Exited(c) if *c == 0 || *c == expect.exit))
    {
        return Err(format!("task {tid} ended with {end:?}"));
    }
    let counts = &out.trace.counts;
    let mut retried = 0;
    for &(name, want) in &expect.counts {
        let got = counts.of(name);
        match want {
            Count::Exact(n) if got != n => {
                return Err(format!("{name}: {got} calls, expected {n}"));
            }
            Count::Blocking(n) if got < n => {
                return Err(format!("{name}: {got} calls, expected at least {n}"));
            }
            Count::Blocking(n) => retried += got - n,
            Count::Exact(_) => {}
        }
    }
    if let Some((name, n)) = counts
        .iter()
        .find(|(name, _)| !expect.counts.iter().any(|(e, _)| e == name))
    {
        return Err(format!("unexpected syscall {name} ({n} calls)"));
    }
    if retried != out.sched.parks {
        return Err(format!(
            "{retried} blocked attempts, but the scheduler parked {} times",
            out.sched.parks
        ));
    }
    let total = out.trace.total_syscalls();
    if total != expect.base_syscalls() + out.sched.parks {
        return Err(format!("{total} syscalls in total"));
    }
    if let Some(image) = &expect.db_image {
        match db {
            Some(file) if file.len() >= image.len() && file[..image.len()] == image[..] => {}
            Some(file) => return Err(format!("database image differs ({} bytes)", file.len())),
            None => return Err("database file missing".into()),
        }
    }
    Ok(())
}

/// Reads the guest's database file, for guests that have one.
pub fn read_db(expect: &Expect, kernel: &wali::context::KernelRef) -> Option<Vec<u8>> {
    expect.db_image.as_ref()?;
    kernel.lock_ok().vfs.read_file(DB_PATH).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_histogram_is_seed_independent() {
        let hist = |seed| {
            let mut h = [0usize; 8];
            for b in script(&mut Rng::new(seed), SCRIPT_LEN) {
                h[(b & 7) as usize] += 1;
            }
            h
        };
        assert_eq!(hist(1), hist(2));
        assert_ne!(
            script(&mut Rng::new(1), SCRIPT_LEN),
            script(&mut Rng::new(2), SCRIPT_LEN)
        );
    }

    #[test]
    fn same_seed_same_script() {
        assert_eq!(
            script(&mut Rng::new(7), SCRIPT_LEN),
            script(&mut Rng::new(7), SCRIPT_LEN)
        );
    }
}
