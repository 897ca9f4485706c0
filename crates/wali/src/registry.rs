//! The name-bound host-function registry.
//!
//! `build_linker` materializes the WALI specification: one host function
//! per syscall, registered as `wali.SYS_<name>` with an all-i64 signature
//! (§3.5 name binding). The wrapper generated around every call is the
//! mechanical part of the recipe (§5): count the call, apply the policy
//! layer, tick the kernel clock, time the layers (sampled: see
//! `trace::Ledger`), and map the kernel result onto the raw Linux return
//! convention (negative errno).

use vkernel::{Block, SysError};
use wali_abi::Errno;
use wasm::error::Trap;
use wasm::host::{Caller, HostOutcome, Linker, Suspension};
use wasm::interp::Value;

use crate::context::WaliContext;
use crate::policy::{DenyAction, Verdict};
use crate::WALI_MODULE;

pub(crate) mod fs;
pub(crate) mod misc;
pub(crate) mod mm;
pub(crate) mod proc;
pub(crate) mod sig;
pub(crate) mod sock;
pub(crate) mod support;

/// Control-transferring suspension payloads the runner interprets (§3.1).
pub enum WaliSuspend {
    /// `exit`/`exit_group`: stop executing this task.
    Exit {
        /// Exit code.
        code: i32,
    },
    /// A blocking call: retry `(module, import)` with `args` once woken.
    Blocked {
        /// Import module namespace (`"wali"` for syscalls).
        module: &'static str,
        /// Full import name (`"SYS_read"`, or a layered API function).
        import: &'static str,
        /// Dense spec index of the syscall, when the blocked call is a
        /// WALI syscall: lets the runner retry through the pre-resolved
        /// handler table instead of a by-name registry lookup.
        sysno: Option<u16>,
        /// Original raw arguments.
        args: Vec<Value>,
        /// Optional wake deadline (virtual mono ns).
        deadline: Option<u64>,
    },
    /// `fork`/`vfork`: clone thread + memory; child resumes with 0.
    Fork {
        /// The already-created kernel child pid.
        child_tid: i32,
        /// `vfork` semantics: the child borrows the parent's pages
        /// outright (no COW snapshot) and the parent stays suspended
        /// until the child execs or exits.
        vfork: bool,
    },
    /// `clone`: thread-style child sharing memory when `share_vm`.
    Clone {
        /// The already-created kernel child tid.
        child_tid: i32,
        /// `CLONE_VM` was set (share linear memory).
        share_vm: bool,
        /// `CLONE_THREAD` was set (same process).
        thread: bool,
    },
    /// `execve`: replace this task's program.
    Exec {
        /// Resolved program path.
        path: String,
        /// New argv.
        argv: Vec<String>,
        /// New environment.
        envp: Vec<String>,
    },
}

/// Maps a kernel result onto the syscall return convention, or suspends.
pub fn finish(
    import: &'static str,
    sysno: Option<u16>,
    args: &[Value],
    r: Result<i64, SysError>,
) -> Result<Vec<Value>, HostOutcome> {
    match r {
        Ok(v) => Ok(vec![Value::I64(v)]),
        Err(SysError::Err(e)) => Ok(vec![Value::I64(e.as_ret())]),
        Err(SysError::Block(Block { deadline })) => Err(HostOutcome::Suspend(Suspension::new(
            WaliSuspend::Blocked {
                module: crate::WALI_MODULE,
                import,
                sysno,
                args: args.to_vec(),
                deadline,
            },
        ))),
    }
}

/// Common wrapper body shared by `sys!` registrations. `sysno` is the
/// pre-resolved dense spec index (resolved once at registration, so the
/// per-call path is an array increment, not a name lookup).
pub fn enter(
    caller: &mut Caller<'_, WaliContext>,
    name: &'static str,
    sysno: Option<u16>,
) -> Result<(), Result<Vec<Value>, HostOutcome>> {
    caller.data.trace.count_dispatch(sysno, name);
    if let Some(policy) = &mut caller.data.policy {
        match policy.check(name) {
            Verdict::Allow => {}
            Verdict::Deny(DenyAction::Errno(e)) => {
                return Err(Ok(vec![Value::I64(e.as_ret())]));
            }
            Verdict::Deny(DenyAction::Kill) => {
                return Err(Err(HostOutcome::Trap(Trap::Forbidden(name))));
            }
        }
    }
    caller.data.tick_syscall();
    Ok(())
}

/// Registers a syscall whose implementation returns `Result<i64, SysError>`.
macro_rules! sys {
    ($l:expr, $name:literal, $f:expr) => {{
        let name: &'static str = $name;
        let sysno = wali_abi::spec::sysno(name);
        $l.func(
            crate::WALI_MODULE,
            concat!("SYS_", $name),
            move |caller: &mut wasm::host::Caller<'_, crate::context::WaliContext>,
                  args: &[wasm::interp::Value]| {
                let t0 = caller.data.trace.ledger.begin();
                if let Err(early) = crate::registry::enter(caller, name, sysno) {
                    caller.data.trace.ledger.end(t0);
                    return early;
                }
                #[allow(clippy::redundant_closure_call)]
                let r = ($f)(caller, args);
                caller.data.trace.ledger.end(t0);
                crate::registry::finish(concat!("SYS_", $name), sysno, args, r)
            },
        );
    }};
}

/// Registers a syscall whose implementation controls the full outcome
/// (exit, fork, exec, traps).
macro_rules! sysx {
    ($l:expr, $name:literal, $f:expr) => {{
        let name: &'static str = $name;
        let sysno = wali_abi::spec::sysno(name);
        $l.func(
            crate::WALI_MODULE,
            concat!("SYS_", $name),
            move |caller: &mut wasm::host::Caller<'_, crate::context::WaliContext>,
                  args: &[wasm::interp::Value]| {
                let t0 = caller.data.trace.ledger.begin();
                if let Err(early) = crate::registry::enter(caller, name, sysno) {
                    caller.data.trace.ledger.end(t0);
                    return early;
                }
                #[allow(clippy::redundant_closure_call)]
                let r = ($f)(caller, args);
                caller.data.trace.ledger.end(t0);
                r
            },
        );
    }};
}

pub(crate) use {sys, sysx};

/// Runs a kernel operation for the calling task, timed when the
/// current syscall is one the ledger samples.
pub(crate) fn k<R>(
    caller: &mut Caller<'_, WaliContext>,
    f: impl FnOnce(&mut vkernel::Kernel, vkernel::Tid) -> R,
) -> R {
    let tid = caller.data.tid;
    caller.data.with_kernel(|kk| f(kk, tid))
}

/// Flattens a memory-translation result around a kernel result.
pub(crate) fn flat<T>(r: Result<Result<T, SysError>, Errno>) -> Result<T, SysError> {
    match r {
        Ok(inner) => inner,
        Err(e) => Err(SysError::Err(e)),
    }
}

/// A syscall in the spec with no faithful implementation on this platform:
/// name-bound and present, but traps when invoked (§3.5 "allowing the
/// latter to trap if it cannot faithfully attempt the execution").
pub(crate) fn register_nosys(l: &mut Linker<WaliContext>, name: &'static str) {
    let sysno = wali_abi::spec::sysno(name);
    l.func(WALI_MODULE, &format!("SYS_{name}"), move |caller, _args| {
        caller.data.trace.count_dispatch(sysno, name);
        Ok(vec![Value::I64(Errno::Enosys.as_ret())])
    });
}

/// Builds the complete WALI linker.
pub fn build_linker() -> Linker<WaliContext> {
    let mut l = Linker::new();
    fs::register(&mut l);
    mm::register(&mut l);
    proc::register(&mut l);
    sig::register(&mut l);
    sock::register(&mut l);
    misc::register(&mut l);
    support::register(&mut l);
    // The batched-syscall ring entry point (an extension import beyond
    // the spec; `WALI_NO_RING=1` turns it into a runtime -ENOSYS).
    crate::ring::register(&mut l);

    // Every remaining spec entry is exposed as a name-bound ENOSYS stub so
    // modules link against the full specification surface.
    let have: std::collections::BTreeSet<String> = l.names().map(|(_, n)| n.to_string()).collect();
    for spec in wali_abi::spec::SPEC {
        if !have.contains(&spec.import_name()) {
            register_nosys(&mut l, spec.name);
        }
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linker_covers_full_spec() {
        let l = build_linker();
        for spec in wali_abi::spec::SPEC {
            assert!(
                l.resolve(WALI_MODULE, &spec.import_name()).is_some(),
                "missing {}",
                spec.import_name()
            );
        }
        for m in wali_abi::spec::SUPPORT_METHODS {
            assert!(
                l.resolve(WALI_MODULE, m).is_some(),
                "missing support method {m}"
            );
        }
    }

    #[test]
    fn linker_size_matches_paper_coverage() {
        let l = build_linker();
        // ≈150 syscalls + 7 support methods.
        assert!(l.len() >= 137 + 7, "registered = {}", l.len());
    }
}
