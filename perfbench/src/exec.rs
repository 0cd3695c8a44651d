//! One adapter per executor. Each runs one round of the plan — build the
//! worlds, run them to the plan's horizon, harvest them — and returns the
//! same [`RoundOut`]. A change to an executor's API touches only its
//! adapter here.
//!
//! Traced rounds time every engine step through the executors' public
//! seams: `Sim::step` (serial), a wrapper around the `Lp` trait over
//! `StackLp` (dash-par), and wrappers around the `TimeDriver` and
//! `Substrate` traits (dash-rt).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dash_net::ids::HostId;
use dash_net::shard::WireEnvelope;
use dash_par::{
    cross_shard_lookahead, local_lookahead, run_sharded, Lp, ParConfig, ShardPlan, StackLp,
};
use dash_rt::{
    run_rt, Carried, MemConfig, MemDatagram, Monotonic, RtOptions, StopReason, Substrate,
    TimeDriver,
};
use dash_sim::obs::MetricRegistry;
use dash_sim::time::SimTime;
use dash_sim::Sim;
use dash_transport::stack::Stack;

use crate::plan::{Executor, Plan};
use crate::probe::{ProbeRef, ProbeStats};
use crate::world::{self, Handles, Harvest, Rec, SetupTimes};
use crate::{alloc_count, cpu_time, thread_alloc_count};

/// dash-par figures of one traced round, gathered per worker thread.
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Synchronisation epochs.
    pub epochs: u64,
    /// Wire envelopes drained from LP outboxes.
    pub envelopes: u64,
    /// Wall time inside `run_until_horizon`, summed over threads.
    pub compute: Duration,
    /// Wall time draining and injecting envelopes, summed over threads.
    pub exchange: Duration,
    /// Wall time outside any LP call (barriers, mailboxes), summed.
    pub barrier_wait: Duration,
    /// Max ÷ mean per-thread compute.
    pub imbalance: f64,
}

/// dash-rt figures of one round.
#[derive(Debug, Clone, Default)]
pub struct RtStats {
    /// Step lags behind their due instants, nanoseconds (traced only).
    pub lags_ns: Vec<u64>,
    /// Events stepped later than the miss slack.
    pub deadline_misses: u64,
    /// Wall time inside substrate transmit and non-blocking receive.
    pub carriage: Duration,
    /// Envelopes the substrate dropped.
    pub substrate_dropped: u64,
    /// Wall time spent stepping events (traced only).
    pub busy: Duration,
}

/// Everything one round of a plan produced.
#[derive(Debug, Default)]
pub struct RoundOut {
    /// Wall time from the first build call to the first event.
    pub setup_wall: Duration,
    /// Setup phases, summed over worlds.
    pub setup: SetupTimes,
    /// Wall time of the run phase.
    pub run_wall: Duration,
    /// Process CPU time of the run phase.
    pub cpu: Duration,
    /// Heap allocations of the run phase (all threads).
    pub allocs: u64,
    /// Heap allocations of the run phase on the calling thread (serial
    /// rounds: the whole run).
    pub thread_allocs: u64,
    /// Engine events executed.
    pub events: u64,
    /// Merged traffic record.
    pub rec: Rec,
    /// Merged metric registry.
    pub registry: MetricRegistry,
    /// Merged probe data.
    pub probe: ProbeStats,
    /// Stream first transmissions, retransmissions and delivered messages.
    pub stream_sent: u64,
    /// See `stream_sent`.
    pub stream_retransmits: u64,
    /// See `stream_sent`.
    pub stream_delivered: u64,
    /// RKOM retransmissions and duplicates served.
    pub rkom_retransmissions: u64,
    /// See `rkom_retransmissions`.
    pub rkom_duplicates: u64,
    /// dash-par figures (traced sharded rounds).
    pub par: Option<ParStats>,
    /// dash-rt figures (paced rounds).
    pub rt: Option<RtStats>,
    /// The run ended at its horizon or quiesced (never a wall-clock cut).
    pub clean_stop: bool,
}

impl RoundOut {
    /// ST messages delivered to ports.
    pub fn delivered(&self) -> u64 {
        self.registry.counter_value("st.deliver")
    }

    fn absorb(&mut self, harvests: Vec<Harvest>) {
        let mut first = true;
        for h in harvests {
            if first {
                self.rec = h.rec;
                first = false;
            } else {
                self.rec.merge(&h.rec);
            }
            self.registry.merge_from(&h.registry);
            self.probe.merge(&h.probe);
            self.events += h.events;
            self.stream_sent += h.stream_sent;
            self.stream_retransmits += h.stream_retransmits;
            self.stream_delivered += h.stream_delivered;
            self.rkom_retransmissions += h.rkom_retransmissions;
            self.rkom_duplicates += h.rkom_duplicates;
        }
    }
}

/// Run one round of `plan` on `executor`.
pub fn run_round(plan: &Arc<Plan>, executor: Executor, traced: bool) -> RoundOut {
    match executor {
        Executor::Serial => run_serial(plan, traced),
        Executor::Sharded { shards } => run_sharded_round(plan, shards, traced),
        Executor::Paced => run_paced(plan, traced),
    }
}

/// Step `sim` to `horizon` one event at a time, timing each step and
/// charging it to a layer through the probe.
fn step_traced(sim: &mut Sim<Stack>, probe: &ProbeRef, horizon: SimTime) {
    while sim.next_event_time().is_some_and(|t| t < horizon) {
        probe.borrow_mut().begin_step();
        let t0 = Instant::now();
        sim.step();
        let ns = t0.elapsed().as_nanos() as u64;
        probe.borrow_mut().end_step(ns, sim.events_pending());
    }
}

// ---------------------------------------------------------------------------
// Serial
// ---------------------------------------------------------------------------

fn run_serial(plan: &Arc<Plan>, traced: bool) -> RoundOut {
    let t0 = Instant::now();
    let world::World { mut sim, handles } = world::build(plan, None, traced);
    let setup_wall = t0.elapsed();
    let (cpu0, allocs0, thread0) = (cpu_time(), alloc_count(), thread_alloc_count());
    let r0 = Instant::now();
    if traced {
        step_traced(&mut sim, &handles.probe, plan.horizon);
    } else {
        sim.run_until_horizon(plan.horizon);
    }
    let mut out = RoundOut {
        run_wall: r0.elapsed(),
        cpu: cpu_time().saturating_sub(cpu0),
        allocs: alloc_count() - allocs0,
        thread_allocs: thread_alloc_count() - thread0,
        setup_wall,
        setup: handles.setup,
        clean_stop: true,
        ..RoundOut::default()
    };
    out.absorb(vec![handles.harvest(&mut sim)]);
    out
}

// ---------------------------------------------------------------------------
// dash-par
// ---------------------------------------------------------------------------

/// Per-worker-thread bookkeeping of a traced sharded round.
#[derive(Debug, Default)]
struct ParThread {
    /// The first LP built on this thread (the executor's sweeps start there).
    first_host: Option<u32>,
    first: Option<Instant>,
    last: Option<Instant>,
    in_lp: Duration,
    compute: Duration,
    exchange: Duration,
    envelopes: u64,
    /// `next_event_time` calls on the first LP since the last run.
    first_probes: u64,
    epochs: u64,
    taken: bool,
}

impl ParThread {
    /// Close a stretch of `next_event_time` calls at a run (or at the
    /// end). Between two runs inside an epoch the executor asks the
    /// thread's first LP twice (micro-window sweep, then the due check);
    /// an epoch boundary adds two more (global-minimum sweep, first
    /// micro-window sweep), as does every epoch in which this thread had
    /// nothing to run. So `(calls - 1) / 2` epochs began since the last run.
    fn close_probe_run(&mut self) {
        self.epochs += self.first_probes.saturating_sub(1) / 2;
        self.first_probes = 0;
    }
}

thread_local! {
    static PAR: RefCell<ParThread> = RefCell::new(ParThread::default());
}

/// Time one LP call on this worker thread.
fn par_call<T>(f: impl FnOnce() -> T, account: impl FnOnce(&mut ParThread, Duration)) -> T {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    PAR.with(|p| {
        let mut p = p.borrow_mut();
        p.first.get_or_insert(start);
        p.last = Some(end);
        p.in_lp += end - start;
        account(&mut p, end - start);
    });
    out
}

/// The benchmark's LP: `StackLp` plus the world's handles, and in traced
/// rounds per-step timing and per-thread executor accounting.
struct BenchLp {
    lp: StackLp,
    handles: Handles,
    traced: bool,
}

impl Lp for BenchLp {
    type Env = WireEnvelope;

    fn host(&self) -> u32 {
        self.lp.host()
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        if !self.traced {
            return self.lp.next_event_time();
        }
        let host = self.lp.host();
        par_call(
            || self.lp.next_event_time(),
            |p, _| p.first_probes += u64::from(p.first_host == Some(host)),
        )
    }

    fn run_until_horizon(&mut self, horizon: SimTime) {
        if !self.traced {
            return self.lp.run_until_horizon(horizon);
        }
        PAR.with(|p| p.borrow_mut().close_probe_run());
        let probe = &self.handles.probe;
        let sim = &mut self.lp.sim;
        par_call(
            || {
                step_traced(sim, probe, horizon);
                sim.run_until_horizon(horizon);
            },
            |p, d| p.compute += d,
        );
    }

    fn drain_outbox(&mut self, sink: &mut Vec<WireEnvelope>) {
        if !self.traced {
            return self.lp.drain_outbox(sink);
        }
        let lp = &mut self.lp;
        let n = par_call(
            || {
                let before = sink.len();
                lp.drain_outbox(sink);
                (sink.len() - before) as u64
            },
            |p, d| p.exchange += d,
        );
        PAR.with(|p| p.borrow_mut().envelopes += n);
    }

    fn dst_of(env: &WireEnvelope) -> u32 {
        <StackLp as Lp>::dst_of(env)
    }

    fn inject(&mut self, env: WireEnvelope) {
        if !self.traced {
            return self.lp.inject(env);
        }
        par_call(|| self.lp.inject(env), |p, d| p.exchange += d);
    }
}

/// What one LP hands back across the thread boundary.
struct LpOut {
    harvest: Harvest,
    setup: SetupTimes,
    thread: Option<ParThread>,
}

fn finish_lp(mut b: BenchLp) -> LpOut {
    let harvest = b.handles.harvest(&mut b.lp.sim);
    let thread = if b.traced {
        PAR.with(|p| {
            let mut p = p.borrow_mut();
            if p.taken {
                None
            } else {
                p.close_probe_run();
                let stats = std::mem::take(&mut *p);
                p.taken = true;
                Some(stats)
            }
        })
    } else {
        None
    };
    LpOut {
        harvest,
        setup: b.handles.setup,
        thread,
    }
}

/// The shard plan for `plan`: each topology group (a LAN or a site with
/// its gateways) stays on one shard.
fn shard_plan(plan: &Plan, shards: u32) -> ShardPlan {
    ShardPlan::grouped(plan.host_count(), shards, &plan.topo.groups)
}

fn run_sharded_round(plan: &Arc<Plan>, shards: u32, traced: bool) -> RoundOut {
    let t0 = Instant::now();
    let proto = world::build_net(plan);
    let placement = shard_plan(plan, shards);
    let cfg = ParConfig {
        horizon: plan.horizon,
        cross_lookahead: cross_shard_lookahead(&proto, &placement),
        local_lookahead: local_lookahead(&proto),
    };
    drop(proto);
    // The run phase starts when the last replica world is built: record
    // the instant, CPU and allocation count at each build's end.
    let marks: Mutex<Vec<(Instant, Duration, u64)>> = Mutex::new(Vec::new());
    let outs = run_sharded(
        &placement,
        &cfg,
        |h| {
            let w = world::build(plan, Some(HostId(h)), traced);
            let lp = BenchLp {
                lp: StackLp::new(w.sim, HostId(h), plan.seed),
                handles: w.handles,
                traced,
            };
            if traced {
                PAR.with(|p| {
                    p.borrow_mut().first_host.get_or_insert(h);
                });
            }
            marks
                .lock()
                .expect("marks")
                .push((Instant::now(), cpu_time(), alloc_count()));
            lp
        },
        finish_lp,
    );
    let (end, cpu_end, allocs_end) = (Instant::now(), cpu_time(), alloc_count());
    let (built, cpu_built, allocs_built) = marks
        .into_inner()
        .expect("marks")
        .into_iter()
        .max_by_key(|m| m.0)
        .expect("at least one host");
    let mut out = RoundOut {
        setup_wall: built - t0,
        run_wall: end - built,
        cpu: cpu_end.saturating_sub(cpu_built),
        allocs: allocs_end - allocs_built,
        clean_stop: true,
        ..RoundOut::default()
    };
    let mut threads = Vec::new();
    let mut harvests = Vec::new();
    for o in outs {
        out.setup.topology += o.setup.topology;
        out.setup.stack += o.setup.stack;
        out.setup.population += o.setup.population;
        threads.extend(o.thread);
        harvests.push(o.harvest);
    }
    out.absorb(harvests);
    if traced {
        out.par = Some(par_stats(&threads));
    }
    out
}

fn par_stats(threads: &[ParThread]) -> ParStats {
    let mut s = ParStats::default();
    let mut max_compute = Duration::ZERO;
    for t in threads {
        s.epochs = s.epochs.max(t.epochs);
        s.envelopes += t.envelopes;
        s.compute += t.compute;
        s.exchange += t.exchange;
        if let (Some(first), Some(last)) = (t.first, t.last) {
            s.barrier_wait += (last - first).saturating_sub(t.in_lp);
        }
        max_compute = max_compute.max(t.compute);
    }
    let mean = s.compute.as_secs_f64() / threads.len().max(1) as f64;
    s.imbalance = if mean > 0.0 {
        max_compute.as_secs_f64() / mean
    } else {
        1.0
    };
    s
}

// ---------------------------------------------------------------------------
// dash-rt
// ---------------------------------------------------------------------------

/// Step bookkeeping shared by the driver and substrate wrappers.
#[derive(Default)]
struct RtTrace {
    /// The event the driver just reported due.
    due: Option<SimTime>,
    /// Wall instant the current step started.
    step_start: Option<Instant>,
    lags_ns: Vec<u64>,
    busy: Duration,
    carriage: Duration,
}

type RtTraceRef = Rc<RefCell<RtTrace>>;

/// `Monotonic` plus step detection: after a zero wait budget, the
/// scheduler reads `now()` once for the lag and then steps the event.
struct TracedDriver {
    inner: Monotonic,
    trace: RtTraceRef,
    probe: ProbeRef,
}

impl TimeDriver for TracedDriver {
    fn wait_budget(&mut self, t: SimTime) -> Duration {
        let b = self.inner.wait_budget(t);
        self.trace.borrow_mut().due = b.is_zero().then_some(t);
        b
    }

    fn wall_deadline(&self, t: SimTime) -> Option<Instant> {
        self.inner.wall_deadline(t)
    }

    fn now(&mut self) -> SimTime {
        let now = self.inner.now();
        let mut tr = self.trace.borrow_mut();
        if let Some(t) = tr.due.take() {
            if tr.step_start.is_none() {
                let wall = Instant::now();
                let lag = wall.saturating_duration_since(self.inner.wall_of(t));
                tr.lags_ns.push(lag.as_nanos() as u64);
                tr.step_start = Some(wall);
                self.probe.borrow_mut().begin_step();
            }
        }
        now
    }

    fn is_realtime(&self) -> bool {
        self.inner.is_realtime()
    }
}

/// `MemDatagram` plus step closing: the scheduler's first substrate call
/// after a step ends it.
struct TracedSubstrate {
    inner: MemDatagram,
    trace: RtTraceRef,
    probe: ProbeRef,
}

impl TracedSubstrate {
    fn close_step(&mut self) {
        let mut tr = self.trace.borrow_mut();
        if let Some(start) = tr.step_start.take() {
            let d = start.elapsed();
            tr.busy += d;
            self.probe.borrow_mut().end_step(d.as_nanos() as u64, 0);
        }
    }
}

impl Substrate for TracedSubstrate {
    fn transmit(&mut self, env: WireEnvelope, wall_due: Option<Instant>, lossable: bool) {
        self.close_step();
        let t = Instant::now();
        self.inner.transmit(env, wall_due, lossable);
        self.trace.borrow_mut().carriage += t.elapsed();
    }

    fn recv(&mut self, timeout: Duration) -> Carried {
        self.close_step();
        if !timeout.is_zero() {
            return self.inner.recv(timeout);
        }
        let t = Instant::now();
        let out = self.inner.recv(timeout);
        self.trace.borrow_mut().carriage += t.elapsed();
        out
    }

    fn in_flight(&self) -> u64 {
        self.inner.in_flight()
    }

    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }
}

fn run_paced(plan: &Arc<Plan>, traced: bool) -> RoundOut {
    let t0 = Instant::now();
    let world::World { mut sim, handles } = world::build(plan, None, traced);
    sim.state.net.enable_wire_divert();
    let setup_wall = t0.elapsed();
    // No injected loss: with any, a reliable stream occasionally wedges
    // and bulk transfers would fail now and then (see CHANGES.md).
    let substrate = MemDatagram::new(MemConfig {
        seed: plan.seed,
        ..MemConfig::default()
    });
    let opts = RtOptions {
        horizon: Some(plan.horizon),
        max_wall: Some(
            Duration::from_secs_f64(plan.horizon.as_secs_f64()) + Duration::from_secs(30),
        ),
        ..RtOptions::default()
    };
    let (cpu0, allocs0) = (cpu_time(), alloc_count());
    let driver = Monotonic::start();
    handles.set_wall_anchor(driver.anchor());
    let mut rt = RtStats::default();
    let report = if traced {
        let trace: RtTraceRef = Rc::default();
        let mut d = TracedDriver {
            inner: driver,
            trace: Rc::clone(&trace),
            probe: Rc::clone(&handles.probe),
        };
        let mut s = TracedSubstrate {
            inner: substrate,
            trace: Rc::clone(&trace),
            probe: Rc::clone(&handles.probe),
        };
        let report = run_rt(&mut sim, &mut d, &mut s, &opts);
        s.close_step();
        drop(s);
        let tr = std::mem::take(&mut *trace.borrow_mut());
        rt.lags_ns = tr.lags_ns;
        rt.busy = tr.busy;
        rt.carriage = tr.carriage;
        report
    } else {
        let mut d = driver;
        let mut s = substrate;
        run_rt(&mut sim, &mut d, &mut s, &opts)
    };
    rt.deadline_misses = report.deadline_misses;
    rt.substrate_dropped = report.substrate_dropped;
    let mut out = RoundOut {
        setup_wall,
        setup: handles.setup,
        run_wall: report.wall,
        cpu: cpu_time().saturating_sub(cpu0),
        allocs: alloc_count() - allocs0,
        clean_stop: report.stop != StopReason::WallBox,
        ..RoundOut::default()
    };
    out.absorb(vec![handles.harvest(&mut sim)]);
    out.rt = Some(rt);
    out
}
