//! Allocation budgets of the blocking path.
//!
//! A counting global allocator tallies the heap allocations made on the
//! calling thread, and each test pins the count of one piece of the
//! park → post → wake → retry cycle: a re-parking `epoll_wait` retry, a
//! `connect` that wakes four epoll watchers, and one whole prefork
//! server run. The budgets are ceilings: a change that allocates
//! more on these paths fails here, one that allocates less passes and
//! should lower the ceiling.
//!
//! The host-call tests drive the registered `SYS_*` functions directly
//! with a [`Caller`], so the count covers one syscall and nothing of the
//! scheduler around it. Every test pins the runtime's toggles, because
//! the CI gates run this suite under each `WALI_*` setting.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use vkernel::{Kernel, Tid};
use wali::context::KernelRef;
use wali::{new_kernel_ref, WaliContext, WaliRunner};
use wali_abi::flags::{AF_INET, EPOLLIN, EPOLL_CTL_ADD, SOCK_STREAM};
use wali_abi::layout::WaliSockaddr;
use wasm::build::ModuleBuilder;
use wasm::host::{Caller, HostFn, HostOutcome, Linker};
use wasm::interp::{Instance, Value};
use wasm::prep::Program;
use wasm::types::ValType::I32;
use wasm::SafepointScheme;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations (and reallocations) per thread; the test threads
/// of this binary run in parallel and must not see each other's counts.
struct Counting;

fn bump() {
    // `try_with`: a const-initialized `Cell` has no destructor, but a
    // failed access during thread teardown must not abort the process.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the only addition is a
// thread-local counter bump, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// Heap allocations of one re-parking `epoll_wait` retry: the ring holds
/// a key whose readiness is gone again by the time the retry verifies
/// it (another reader drained the pipe), so it pops, finds nothing,
/// and parks once more. 9 before the blocking path was trimmed; the 2
/// left are the blocked call's suspension: its boxed payload and its
/// copy of the arguments.
const REPARK_BUDGET: u64 = 2;

/// Heap allocations of one `connect` to a listener that four parked
/// `epoll_wait` callers watch: the server-side socket, the hub routing
/// to four ready rings, and four wakeups. 8 before the blocking path was
/// trimmed; the 2 left are the new server-side socket and the result
/// vector every host call returns.
const CONNECT_BUDGET: u64 = 2;

/// Heap allocations of one `prefork_server_sim(4, 64)` run, from
/// runner construction to the end of `run`: 29,379 before the blocking
/// path was trimmed, 17,548 after. The ceiling leaves room for the
/// few `OsString`s that reading a set `WALI_*` toggle allocates.
const RUN_BUDGET: u64 = 17_564;

/// A one-page guest whose memory the host calls below read and write.
struct Host {
    linker: Linker<WaliContext>,
    instance: Instance<WaliContext>,
    kernel: KernelRef,
}

impl Host {
    fn new() -> Host {
        let mut mb = ModuleBuilder::new();
        mb.memory(1, Some(1));
        let sig = mb.sig([], [I32]);
        let main = mb.func(sig, |b| {
            b.i32(0);
        });
        mb.export("_start", main);
        let linker = wali::build_linker();
        let program = Program::link(&mb.build(), &linker, SafepointScheme::LoopHeaders)
            .expect("trivial module links");
        let instance = Instance::new(Arc::new(program)).expect("instantiates");
        let mut kernel = Kernel::new();
        kernel.set_ready(true);
        Host {
            linker,
            instance,
            kernel: new_kernel_ref(kernel),
        }
    }

    fn ctx(&self, tid: Tid) -> WaliContext {
        WaliContext::new(self.kernel.clone(), tid, 4096)
    }

    /// Calls `wali.SYS_<name>` as task `ctx` with i64 arguments.
    fn call(
        &self,
        ctx: &mut WaliContext,
        name: &str,
        args: &[i64],
    ) -> Result<Vec<Value>, HostOutcome> {
        let (f, args) = self.prepare(name, args);
        self.invoke(&f, ctx, &args)
    }

    /// Resolves `wali.SYS_<name>` and boxes its arguments, so that a
    /// measured [`Host::invoke`] counts the syscall alone.
    fn prepare(&self, name: &str, args: &[i64]) -> (HostFn<WaliContext>, Vec<Value>) {
        let f = self
            .linker
            .resolve("wali", &format!("SYS_{name}"))
            .expect("registered syscall")
            .clone();
        (f, args.iter().map(|&a| Value::I64(a)).collect())
    }

    fn invoke(
        &self,
        f: &HostFn<WaliContext>,
        ctx: &mut WaliContext,
        args: &[Value],
    ) -> Result<Vec<Value>, HostOutcome> {
        let mut caller = Caller {
            instance: &self.instance,
            data: ctx,
        };
        f(&mut caller, args)
    }

    fn k(&self) -> impl std::ops::DerefMut<Target = Kernel> + '_ {
        self.kernel.lock_ok()
    }
}

fn parked(r: &Result<Vec<Value>, HostOutcome>) -> bool {
    matches!(r, Err(HostOutcome::Suspend(_)))
}

const EVENTS: i64 = 1024;
const ADDR: u32 = 2048;

#[test]
fn reparking_epoll_wait_retry_stays_in_budget() {
    let host = Host::new();
    let tid = host.k().spawn_process();
    let (r, w, ep) = {
        let mut k = host.k();
        let (r, w) = k.sys_pipe2(tid, 0).expect("pipe");
        let ep = k.sys_epoll_create1(tid, 0).expect("epoll");
        k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, r, EPOLLIN, 7)
            .expect("ctl");
        (r, w, ep)
    };
    let mut ctx = host.ctx(tid);
    let (wait, args) = host.prepare("epoll_wait", &[ep as i64, EVENTS, 4, -1]);
    assert!(parked(&host.invoke(&wait, &mut ctx, &args)));
    let mut counts = Vec::new();
    for _ in 0..6 {
        // A byte arrives (routing the key onto the ring and waking the
        // waiter) and is gone again before the waiter retries.
        {
            let mut k = host.k();
            k.sys_write(tid, w, b"x").expect("write");
            k.sys_read(tid, r, &mut [0u8; 1]).expect("read");
            assert_eq!(k.take_woken(), vec![tid], "the byte woke the waiter");
        }
        let (res, n) = allocs_in(|| host.invoke(&wait, &mut ctx, &args));
        assert!(parked(&res), "the retry re-parks");
        counts.push(n);
    }
    // The first cycles grow tables to their steady size.
    let steady = *counts.last().expect("six cycles");
    assert!(
        steady <= REPARK_BUDGET,
        "re-parking retry made {steady} allocations (budget {REPARK_BUDGET}; per cycle {counts:?})"
    );
}

#[test]
fn connect_waking_four_epoll_watchers_stays_in_budget() {
    let host = Host::new();
    let server = host.k().spawn_process();
    let port = 11_411u16;
    let listener = {
        let mut k = host.k();
        let fd = k
            .sys_socket(server, AF_INET, SOCK_STREAM, 0)
            .expect("socket");
        let addr = WaliSockaddr::Inet {
            addr: [127, 0, 0, 1],
            port,
        };
        k.sys_bind(server, fd, addr).expect("bind");
        k.sys_listen(server, fd, 64).expect("listen");
        fd
    };
    // Four forked workers, each parked in epoll_wait on the inherited
    // listener.
    let mut workers: Vec<(WaliContext, i32)> = (0..4)
        .map(|_| {
            let mut k = host.k();
            let tid = k.sys_fork(server).expect("fork") as Tid;
            let ep = k.sys_epoll_create1(tid, 0).expect("epoll");
            k.sys_epoll_ctl(tid, ep, EPOLL_CTL_ADD, listener, EPOLLIN, 1)
                .expect("ctl");
            drop(k);
            (host.ctx(tid), ep)
        })
        .collect();
    let park_all = |workers: &mut Vec<(WaliContext, i32)>| {
        for (ctx, ep) in workers.iter_mut() {
            let r = host.call(ctx, "epoll_wait", &[*ep as i64, EVENTS, 4, -1]);
            assert!(parked(&r), "no connection pending: the worker parks");
        }
    };
    park_all(&mut workers);
    let client = host.k().spawn_process();
    let mut cctx = host.ctx(client);
    let mut sockaddr = [0u8; 16];
    sockaddr[0..2].copy_from_slice(&(AF_INET as u16).to_le_bytes());
    sockaddr[2..4].copy_from_slice(&port.to_be_bytes());
    sockaddr[4..8].copy_from_slice(&[127, 0, 0, 1]);
    host.instance
        .memory
        .write(u64::from(ADDR), &sockaddr)
        .expect("in bounds");
    let mut counts = Vec::new();
    for _ in 0..6 {
        let fd = host
            .k()
            .sys_socket(client, AF_INET, SOCK_STREAM, 0)
            .expect("socket");
        let (connect, args) = host.prepare("connect", &[fd as i64, ADDR as i64, 16]);
        let (res, n) = allocs_in(|| host.invoke(&connect, &mut cctx, &args));
        assert_eq!(res.ok(), Some(vec![Value::I64(0)]), "connected");
        counts.push(n);
        // Every watcher woke; the first accepts, and everyone parks
        // again for the next round.
        {
            let mut k = host.k();
            assert_eq!(k.take_woken().len(), 4, "one connect wakes all four");
            let (wctx, _) = &workers[0];
            let conn = k.sys_accept(wctx.tid, listener, 0).expect("accept");
            k.sys_close(wctx.tid, conn).expect("close");
            k.sys_close(client, fd).expect("close");
        }
        park_all(&mut workers);
    }
    let steady = *counts.last().expect("six cycles");
    assert!(
        steady <= CONNECT_BUDGET,
        "connect made {steady} allocations (budget {CONNECT_BUDGET}; per cycle {counts:?})"
    );
}

#[test]
fn prefork_run_stays_in_budget() {
    let app = apps::progs::prefork_server_sim(4, 64);
    let module = wali::testkit::roundtrip(&app.module);
    let run = || {
        let mut runner = WaliRunner::new_default();
        runner.set_workers(1);
        runner.set_fuse(true);
        runner.set_regir(true);
        runner.set_cow(true);
        runner.set_shard(true);
        runner.set_ring(true);
        runner.set_ready(true);
        runner
            .register_program("/usr/bin/app", &module)
            .expect("register");
        runner.spawn("/usr/bin/app", &[], &[]).expect("spawn");
        runner.run().expect("run")
    };
    run();
    let (out, n) = allocs_in(run);
    assert_eq!(out.exit_code(), Some(0), "{:?}", out.main_exit);
    assert_eq!(
        (out.sched.parks, out.sched.wakeups),
        (1285, 1285),
        "the schedule itself is unchanged"
    );
    assert!(
        n <= RUN_BUDGET,
        "the run made {n} allocations (budget {RUN_BUDGET})"
    );
}
