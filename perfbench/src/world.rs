//! Building a world from the plan and running its traffic.
//!
//! [`build`] turns the plan into a `Sim<Stack>` with the traffic
//! generators installed — for every host (serial and paced executors) or
//! for one owner host (a dash-par replica world). Generators and
//! receivers write what happened into a [`Rec`], which the checks in
//! [`crate::check`] read after the run.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use dash_net::fault::schedule_fault_plan;
use dash_net::ids::{HostId, NetworkId};
use dash_net::state::NetState;
use dash_net::topology::TopologyBuilder;
use dash_sim::cpu::SchedPolicy;
use dash_sim::time::{SimDuration, SimTime};
use dash_sim::Sim;
use dash_subtransport::{StRmsId, StToken};
use dash_transport::rkom;
use dash_transport::stack::{AppEvent, Stack, StackBuilder};
use dash_transport::stream::{self, StreamEvent, StreamProfile};
use rms_core::delay::DelayBound;
use rms_core::hash::DetHashMap;
use rms_core::message::Message;
use rms_core::wire::WireMsg;
use rms_core::{BitErrorRate, Reliability, RmsParams, RmsRequest, SecurityParams};

use crate::plan::{Plan, HEADER, VOICE_INTERVAL};
use crate::probe::{Probe, ProbeRef, ProbeSink};

/// Payload kinds (first header byte).
pub const KIND_VOICE: u8 = 1;
/// See [`KIND_VOICE`].
pub const KIND_BULK: u8 = 2;
/// See [`KIND_VOICE`].
pub const KIND_CHURN: u8 = 3;
/// See [`KIND_VOICE`].
pub const KIND_RKOM: u8 = 4;

static ZERO: [u8; 16 * 1024] = [0u8; 16 * 1024];

/// Build a payload: the 17-byte header, then a static zero body up to
/// `len` bytes.
pub fn payload(kind: u8, id: u32, a: u32, b: u64, len: usize) -> WireMsg {
    let mut head = Vec::with_capacity(HEADER);
    head.push(kind);
    head.extend_from_slice(&id.to_be_bytes());
    head.extend_from_slice(&a.to_be_bytes());
    head.extend_from_slice(&b.to_be_bytes());
    let mut w = WireMsg::from_bytes(Bytes::from(head));
    if len > HEADER {
        w.push(Bytes::from_static(&ZERO[..len - HEADER]));
    }
    w
}

/// Read a payload header back: (kind, id, a, b).
pub fn parse(w: &WireMsg) -> Option<(u8, u32, u32, u64)> {
    let mut c = w.cursor();
    Some((
        c.get_u8().ok()?,
        c.get_u32().ok()?,
        c.get_u32().ok()?,
        c.get_u64().ok()?,
    ))
}

/// Sender-side record of one session (voice, bulk or churn).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TxRec {
    /// The open succeeded (the session became ready).
    pub opened: bool,
    /// The open was refused or failed.
    pub open_failed: bool,
    /// The session ended with a typed failure after opening.
    pub ended_failed: bool,
    /// Frames or messages accepted by the sender.
    pub sent: u32,
    /// Frames refused by sender flow control (voice) — lost at the source.
    pub refused: u32,
    /// Bulk transfers started.
    pub transfers: u32,
}

impl TxRec {
    fn merge(&mut self, o: &TxRec) {
        self.opened |= o.opened;
        self.open_failed |= o.open_failed;
        self.ended_failed |= o.ended_failed;
        self.sent += o.sent;
        self.refused += o.refused;
        self.transfers += o.transfers;
    }
}

/// One RKOM call's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct CallRec {
    /// The call was issued.
    pub issued: bool,
    /// Completions received (exactly one is correct).
    pub replies: u32,
    /// The call completed with an error.
    pub error: bool,
    /// The reply echoed the request byte for byte.
    pub echo_ok: bool,
    /// Due instant → reply, nanoseconds.
    pub latency_ns: u64,
}

/// One delivery at a receiver. Frames (voice, churn) carry their index
/// and latency; bulk messages their transfer, offset and arrival instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rx {
    /// Flow, pair or churn index.
    pub flow: u32,
    /// Frame index or transfer index.
    pub seq: u32,
    /// Bulk offset within the transfer (0 for frames).
    pub aux: u64,
    /// Bulk message length (frame length for frames).
    pub len: u32,
    /// Latency (frames) or arrival instant (bulk), nanoseconds.
    pub ns: u64,
}

/// Everything the traffic of one world did.
#[derive(Debug, Clone, Default)]
pub struct Rec {
    /// Voice sessions, indexed by flow.
    pub voice_tx: Vec<TxRec>,
    /// Bulk sessions, indexed by pair.
    pub bulk_tx: Vec<TxRec>,
    /// Churn sessions, indexed by churn index.
    pub churn_tx: Vec<TxRec>,
    /// RKOM calls, indexed by `call_base[client] + k`.
    pub calls: Vec<CallRec>,
    /// First call index of each client.
    pub call_base: Vec<usize>,
    /// Voice deliveries, in arrival order per receiver.
    pub voice_rx: Vec<Rx>,
    /// Bulk deliveries, in arrival order per receiver.
    pub bulk_rx: Vec<Rx>,
    /// Churn deliveries, in arrival order per receiver.
    pub churn_rx: Vec<Rx>,
    /// Frame deliveries that failed to parse.
    pub garbled: u64,
}

impl Rec {
    fn for_plan(plan: &Plan) -> Rec {
        let mut call_base = Vec::new();
        let mut n = 0;
        for c in &plan.rkom {
            call_base.push(n);
            n += c.calls.len();
        }
        Rec {
            voice_tx: vec![TxRec::default(); plan.voice.len()],
            bulk_tx: vec![TxRec::default(); plan.bulk.len()],
            churn_tx: vec![TxRec::default(); plan.churn.len()],
            calls: vec![CallRec::default(); n],
            call_base,
            ..Rec::default()
        }
    }

    /// Merge another world's record (dash-par: one per LP, host order).
    pub fn merge(&mut self, o: &Rec) {
        for (a, b) in self.voice_tx.iter_mut().zip(&o.voice_tx) {
            a.merge(b);
        }
        for (a, b) in self.bulk_tx.iter_mut().zip(&o.bulk_tx) {
            a.merge(b);
        }
        for (a, b) in self.churn_tx.iter_mut().zip(&o.churn_tx) {
            a.merge(b);
        }
        for (a, b) in self.calls.iter_mut().zip(&o.calls) {
            if b.issued {
                *a = *b;
            }
        }
        self.voice_rx.extend(&o.voice_rx);
        self.bulk_rx.extend(&o.bulk_rx);
        self.churn_rx.extend(&o.churn_rx);
        self.garbled += o.garbled;
    }
}

/// What a session id or ST token stands for at its sender.
#[derive(Debug, Clone, Copy)]
enum Role {
    Voice(usize),
    Bulk(usize),
}

/// Per-world control state shared by the generators.
struct Ctl {
    plan: Arc<Plan>,
    rec: Rec,
    /// Wall anchor of virtual t=0 on paced runs: latencies are then taken
    /// on the wall clock from the frame's or call's due instant.
    wall_anchor: Option<Instant>,
    sessions: DetHashMap<u64, Role>,
    churn_tokens: DetHashMap<StToken, usize>,
    churn_streams: DetHashMap<StRmsId, usize>,
    /// Bulk pump state per pair: (session, transfer, next message).
    pumps: DetHashMap<usize, (u64, u32, u32)>,
    /// Sessions this world saw arrive (for transport statistics).
    rx_sessions: Vec<(HostId, u64)>,
    /// Sessions this world opened.
    tx_sessions: Vec<(HostId, u64)>,
}

type CtlRef = Rc<RefCell<Ctl>>;

impl Ctl {
    /// Nanoseconds from `due` to now, on the run's clock.
    fn since(&self, sim: &Sim<Stack>, due_ns: u64) -> u64 {
        match self.wall_anchor {
            Some(anchor) => {
                let due = anchor + Duration::from_nanos(due_ns);
                Instant::now().saturating_duration_since(due).as_nanos() as u64
            }
            None => sim.now().as_nanos().saturating_sub(due_ns),
        }
    }

    /// Now on the run's clock, nanoseconds since virtual t=0.
    fn now_ns(&self, sim: &Sim<Stack>) -> u64 {
        match self.wall_anchor {
            Some(anchor) => Instant::now().saturating_duration_since(anchor).as_nanos() as u64,
            None => sim.now().as_nanos(),
        }
    }
}

/// Wall time of each setup phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology build (networks, hosts, first routes).
    pub topology: Duration,
    /// Stack build.
    pub stack: Duration,
    /// Population install (taps, services, generators, faults).
    pub population: Duration,
}

impl SetupTimes {
    /// Sum of the phases.
    pub fn total(&self) -> Duration {
        self.topology + self.stack + self.population
    }
}

/// A built world.
pub struct World {
    /// The simulation.
    pub sim: Sim<Stack>,
    /// Handles to read it afterwards.
    pub handles: Handles,
}

/// The parts of a world that stay outside the simulation.
pub struct Handles {
    ctl: CtlRef,
    /// The observability probe.
    pub probe: ProbeRef,
    /// Setup wall times.
    pub setup: SetupTimes,
}

impl Handles {
    /// Anchor latency measurement to the wall clock (paced runs).
    pub fn set_wall_anchor(&self, anchor: Instant) {
        self.ctl.borrow_mut().wall_anchor = Some(anchor);
    }

    /// Read the finished world: the record, the registry and the
    /// transport counters of the hosts this world owns.
    pub fn harvest(&self, sim: &mut Sim<Stack>) -> Harvest {
        let ctl = self.ctl.borrow();
        let mut h = Harvest {
            rec: ctl.rec.clone(),
            ..Harvest::default()
        };
        let stream = &sim.state.stream;
        for &(host, id) in &ctl.tx_sessions {
            if let Some(s) = stream.session(host, id) {
                h.stream_sent += s.stats.sent.get();
                h.stream_retransmits += s.stats.retransmitted.get();
            }
        }
        for &(host, id) in &ctl.rx_sessions {
            if let Some(s) = stream.session(host, id) {
                h.stream_delivered += s.stats.delivered.get();
            }
        }
        for host in 0..sim.state.net.hosts.len() as u32 {
            if !sim.state.net.owns(HostId(host)) {
                continue;
            }
            let r = &sim.state.rkom.host(HostId(host)).stats;
            h.rkom_retransmissions += r.retransmissions.get();
            h.rkom_duplicates += r.duplicates_served.get();
        }
        h.events = sim.events_processed();
        h.registry = std::mem::take(&mut sim.state.net.obs.registry);
        h.probe = self.probe.borrow().stats.clone();
        h
    }
}

/// What a finished world contributes to the round's outcome.
#[derive(Debug, Default)]
pub struct Harvest {
    /// The traffic record.
    pub rec: Rec,
    /// The metric registry.
    pub registry: dash_sim::obs::MetricRegistry,
    /// Probe data.
    pub probe: crate::probe::ProbeStats,
    /// Engine events executed.
    pub events: u64,
    /// Stream messages sent (first transmissions) on opened sessions.
    pub stream_sent: u64,
    /// Stream retransmissions.
    pub stream_retransmits: u64,
    /// Stream messages delivered in order.
    pub stream_delivered: u64,
    /// RKOM retransmitted requests.
    pub rkom_retransmissions: u64,
    /// RKOM duplicate requests answered from the reply cache.
    pub rkom_duplicates: u64,
}

/// Build the `NetState` for the plan's topology.
pub fn build_net(plan: &Plan) -> NetState {
    let mut tb = TopologyBuilder::new();
    tb.seed(plan.seed ^ 0x5ca1e);
    for spec in &plan.topo.nets {
        tb.network(spec.clone());
    }
    for nets in &plan.topo.hosts {
        let h = tb.host();
        for &n in nets {
            tb.attach(h, NetworkId(n));
        }
    }
    tb.build()
}

/// Build a world: topology, stack, probe, and the traffic of every host
/// (`owner = None`) or of one host (`Some`, for a dash-par replica).
pub fn build(plan: &Arc<Plan>, owner: Option<HostId>, traced: bool) -> World {
    let t0 = Instant::now();
    let net = build_net(plan);
    let t1 = Instant::now();
    let probe = Probe::shared(traced);
    let stack = StackBuilder::new(net)
        .obs(true)
        .cpus(SchedPolicy::Edf, SimDuration::from_micros(5))
        .obs_sink(ProbeSink(Rc::clone(&probe)))
        .build();
    let mut sim = Sim::new(stack);
    let t2 = Instant::now();
    let ctl = install(&mut sim, plan, owner);
    let t3 = Instant::now();
    World {
        sim,
        handles: Handles {
            ctl,
            probe,
            setup: SetupTimes {
                topology: t1 - t0,
                stack: t2 - t1,
                population: t3 - t2,
            },
        },
    }
}

fn mine(owner: Option<HostId>, host: u32) -> bool {
    owner.is_none_or(|o| o.0 == host)
}

fn voice_profile(wan: bool) -> StreamProfile {
    let mut p = StreamProfile::voice();
    if wan {
        p.delay = DelayBound::best_effort_with(
            SimDuration::from_millis(150),
            SimDuration::from_micros(10),
        );
    }
    p
}

fn bulk_profile(b: &crate::plan::BulkPair) -> StreamProfile {
    let mut p = StreamProfile::bulk();
    p.max_message = p.max_message.max(u64::from(b.msg_bytes) + HEADER as u64);
    if let Some((window, rto)) = b.tuning {
        p.capacity = window;
        p.receive_buffer = window;
        p.send_port_limit = window;
        p.rto = rto;
    }
    p
}

fn churn_request(capacity: u64) -> RmsRequest {
    let desired = RmsParams {
        reliability: Reliability::Unreliable,
        security: SecurityParams::NONE,
        capacity,
        max_message_size: 256,
        delay: DelayBound::best_effort_with(
            SimDuration::from_millis(150),
            SimDuration::from_micros(10),
        ),
        error_rate: BitErrorRate::new(1e-4).expect("valid"),
    };
    let mut acceptable = desired.clone();
    acceptable.capacity = 256;
    RmsRequest::new(desired, acceptable).expect("desired covers floor")
}

fn install(sim: &mut Sim<Stack>, plan: &Arc<Plan>, owner: Option<HostId>) -> CtlRef {
    let ctl = Rc::new(RefCell::new(Ctl {
        plan: Arc::clone(plan),
        rec: Rec::for_plan(plan),
        wall_anchor: None,
        sessions: DetHashMap::default(),
        churn_tokens: DetHashMap::default(),
        churn_streams: DetHashMap::default(),
        pumps: DetHashMap::default(),
        rx_sessions: Vec::new(),
        tx_sessions: Vec::new(),
    }));
    for h in 0..plan.host_count() {
        if mine(owner, h) {
            let c = Rc::clone(&ctl);
            sim.state
                .on_stream(HostId(h), move |sim, ev| on_stream(sim, HostId(h), ev, &c));
        }
    }
    {
        let c = Rc::clone(&ctl);
        sim.state.on_app(move |sim, ev| on_app(sim, ev, &c));
    }
    for (i, v) in plan.voice.iter().enumerate() {
        if mine(owner, v.src) {
            let c = Rc::clone(&ctl);
            let at = SimTime::ZERO.saturating_add(v.start);
            sim.schedule_at(at, move |sim| open_session(sim, Role::Voice(i), &c));
        }
    }
    for (i, b) in plan.bulk.iter().enumerate() {
        if mine(owner, b.src) {
            let c = Rc::clone(&ctl);
            let at = SimTime::ZERO.saturating_add(b.start);
            sim.schedule_at(at, move |sim| open_session(sim, Role::Bulk(i), &c));
        }
    }
    for (i, ch) in plan.churn.iter().enumerate() {
        if mine(owner, ch.src) {
            let c = Rc::clone(&ctl);
            let at = SimTime::ZERO.saturating_add(ch.start);
            sim.schedule_at(at, move |sim| open_churn(sim, i, &c));
        }
    }
    for (ci, client) in plan.rkom.iter().enumerate() {
        if mine(owner, client.server) {
            rkom::register_service(
                &mut sim.state,
                HostId(client.server),
                client.service,
                |_sim, _peer, request| request,
            );
        }
        if mine(owner, client.client) {
            for (k, due) in client.calls.iter().enumerate() {
                let c = Rc::clone(&ctl);
                sim.schedule_at(SimTime::ZERO.saturating_add(*due), move |sim| {
                    issue_call(sim, ci, k, &c)
                });
            }
        }
    }
    schedule_fault_plan(sim, &plan.faults);
    ctl
}

fn open_session(sim: &mut Sim<Stack>, role: Role, ctl: &CtlRef) {
    let plan = Arc::clone(&ctl.borrow().plan);
    let (src, dst, profile) = match role {
        Role::Voice(i) => {
            let v = &plan.voice[i];
            (v.src, v.dst, voice_profile(v.wan))
        }
        Role::Bulk(i) => {
            let b = &plan.bulk[i];
            (b.src, b.dst, bulk_profile(b))
        }
    };
    let result = stream::open(sim, HostId(src), HostId(dst), profile);
    let mut c = ctl.borrow_mut();
    match result {
        Ok(session) => {
            c.sessions.insert(session, role);
            c.tx_sessions.push((HostId(src), session));
        }
        Err(_) => tx_of(&mut c.rec, role).open_failed = true,
    }
}

fn tx_of(rec: &mut Rec, role: Role) -> &mut TxRec {
    match role {
        Role::Voice(i) => &mut rec.voice_tx[i],
        Role::Bulk(i) => &mut rec.bulk_tx[i],
    }
}

fn on_stream(sim: &mut Sim<Stack>, host: HostId, ev: StreamEvent, ctl: &CtlRef) {
    match ev {
        StreamEvent::Opened { session } => {
            let role = ctl.borrow().sessions.get(&session).copied();
            match role {
                Some(Role::Voice(i)) => {
                    ctl.borrow_mut().rec.voice_tx[i].opened = true;
                    voice_tick(sim, host, session, i, Rc::clone(ctl));
                }
                Some(Role::Bulk(i)) => {
                    {
                        let mut c = ctl.borrow_mut();
                        c.rec.bulk_tx[i].opened = true;
                        c.rec.bulk_tx[i].transfers = 1;
                        c.pumps.insert(i, (session, 0, 0));
                    }
                    bulk_pump(sim, host, i, ctl);
                }
                None => {}
            }
        }
        StreamEvent::OpenFailed { session, .. } => {
            let mut c = ctl.borrow_mut();
            if let Some(role) = c.sessions.get(&session).copied() {
                tx_of(&mut c.rec, role).open_failed = true;
            }
        }
        StreamEvent::Drained { session } => {
            let role = ctl.borrow().sessions.get(&session).copied();
            if let Some(Role::Bulk(i)) = role {
                bulk_pump(sim, host, i, ctl);
            }
        }
        StreamEvent::Ended { session, reason } => {
            let mut c = ctl.borrow_mut();
            if let Some(role) = c.sessions.get(&session).copied() {
                if reason != stream::EndReason::Closed {
                    tx_of(&mut c.rec, role).ended_failed = true;
                }
            }
        }
        StreamEvent::Incoming { session, .. } => {
            ctl.borrow_mut().rx_sessions.push((host, session));
        }
        StreamEvent::Delivered { session, msg, .. } => {
            let mut c = ctl.borrow_mut();
            match parse(msg.wire()) {
                Some((KIND_VOICE, flow, frame, due)) => {
                    let ns = c.since(sim, due);
                    c.rec.voice_rx.push(Rx {
                        flow,
                        seq: frame,
                        aux: 0,
                        len: msg.len() as u32,
                        ns,
                    });
                }
                Some((KIND_BULK, pair, transfer, offset)) => {
                    let ns = c.now_ns(sim);
                    c.rec.bulk_rx.push(Rx {
                        flow: pair,
                        seq: transfer,
                        aux: offset,
                        len: msg.len() as u32,
                        ns,
                    });
                    drop(c);
                    // The application reads each message at once, so the
                    // receive window reopens as it arrives.
                    stream::consume(sim, host, session, msg.len() as u64);
                }
                _ => c.rec.garbled += 1,
            }
        }
    }
}

/// One voice frame now, then the next one 20 ms later, until the plan's
/// generation window closes.
fn voice_tick(sim: &mut Sim<Stack>, host: HostId, session: u64, i: usize, ctl: CtlRef) {
    let (frame, bytes, end) = {
        let c = ctl.borrow();
        let t = &c.rec.voice_tx[i];
        (t.sent + t.refused, c.plan.voice[i].bytes, c.plan.gen_end)
    };
    if sim.now() >= SimTime::ZERO.saturating_add(end) {
        return;
    }
    let w = payload(
        KIND_VOICE,
        i as u32,
        frame,
        sim.now().as_nanos(),
        bytes as usize,
    );
    let ok = stream::send(sim, host, session, Message::from_wire(w)).is_ok();
    {
        let mut c = ctl.borrow_mut();
        let t = &mut c.rec.voice_tx[i];
        if ok {
            t.sent += 1;
        } else {
            t.refused += 1;
        }
    }
    sim.schedule_in(VOICE_INTERVAL, move |sim| {
        voice_tick(sim, host, session, i, ctl)
    });
}

/// Offer bulk messages until flow control refuses; a transfer that has
/// been fully offered is followed by the next one while the generation
/// window is open.
fn bulk_pump(sim: &mut Sim<Stack>, host: HostId, i: usize, ctl: &CtlRef) {
    let (msg_bytes, per_transfer, end) = {
        let c = ctl.borrow();
        let b = &c.plan.bulk[i];
        (b.msg_bytes, b.transfer_msgs, b.stop)
    };
    let end = SimTime::ZERO.saturating_add(end);
    loop {
        let next = {
            let mut c = ctl.borrow_mut();
            let Some(&(session, mut transfer, mut msg)) = c.pumps.get(&i) else {
                return;
            };
            if msg == per_transfer {
                if sim.now() >= end {
                    c.pumps.remove(&i);
                    return;
                }
                transfer += 1;
                msg = 0;
                c.rec.bulk_tx[i].transfers += 1;
                c.pumps.insert(i, (session, transfer, msg));
            }
            (session, transfer, msg)
        };
        let (session, transfer, msg) = next;
        let offset = u64::from(msg) * u64::from(msg_bytes);
        let w = payload(KIND_BULK, i as u32, transfer, offset, msg_bytes as usize);
        if stream::send(sim, host, session, Message::from_wire(w)).is_err() {
            return;
        }
        let mut c = ctl.borrow_mut();
        c.rec.bulk_tx[i].sent += 1;
        c.pumps.insert(i, (session, transfer, msg + 1));
    }
}

fn issue_call(sim: &mut Sim<Stack>, ci: usize, k: usize, ctl: &CtlRef) {
    let (client, server, service, bytes, idx) = {
        let mut c = ctl.borrow_mut();
        let cl = &c.plan.rkom[ci];
        let (client, server, service, bytes) = (cl.client, cl.server, cl.service, cl.bytes);
        let idx = c.rec.call_base[ci] + k;
        c.rec.calls[idx].issued = true;
        (client, server, service, bytes, idx)
    };
    let request = payload(
        KIND_RKOM,
        ci as u32,
        k as u32,
        sim.now().as_nanos(),
        bytes as usize,
    )
    .contiguous();
    let due = sim.now().as_nanos();
    let sent = request.clone();
    let c = Rc::clone(ctl);
    rkom::call(
        sim,
        HostId(client),
        HostId(server),
        service,
        request,
        move |sim, result| {
            let mut c = c.borrow_mut();
            let ns = c.since(sim, due);
            let r = &mut c.rec.calls[idx];
            r.replies += 1;
            match result {
                Ok(reply) => {
                    r.echo_ok = reply[..] == sent[..];
                    r.latency_ns = ns;
                }
                Err(_) => r.error = true,
            }
        },
    );
}

fn open_churn(sim: &mut Sim<Stack>, i: usize, ctl: &CtlRef) {
    let (src, dst, capacity) = {
        let c = ctl.borrow();
        let ch = &c.plan.churn[i];
        (ch.src, ch.dst, ch.capacity)
    };
    let result = dash_subtransport::create(
        sim,
        HostId(src),
        HostId(dst),
        &churn_request(capacity),
        false,
    );
    let mut c = ctl.borrow_mut();
    match result {
        Ok(token) => {
            c.churn_tokens.insert(token, i);
        }
        Err(_) => c.rec.churn_tx[i].open_failed = true,
    }
}

fn on_app(sim: &mut Sim<Stack>, ev: AppEvent, ctl: &CtlRef) {
    use dash_subtransport::StEvent;
    match ev {
        AppEvent::StEvent { host, event } => match event {
            StEvent::Created { token, st_rms, .. } => {
                let i = {
                    let mut c = ctl.borrow_mut();
                    let Some(i) = c.churn_tokens.remove(&token) else {
                        return;
                    };
                    c.churn_streams.insert(st_rms, i);
                    c.rec.churn_tx[i].opened = true;
                    i
                };
                churn_tick(sim, host, st_rms, i, Rc::clone(ctl));
            }
            StEvent::CreateFailed { token, .. } => {
                let mut c = ctl.borrow_mut();
                if let Some(i) = c.churn_tokens.remove(&token) {
                    c.rec.churn_tx[i].open_failed = true;
                }
            }
            StEvent::Failed { st_rms, .. } => {
                let mut c = ctl.borrow_mut();
                if let Some(&i) = c.churn_streams.get(&st_rms) {
                    c.rec.churn_tx[i].ended_failed = true;
                }
            }
            _ => {}
        },
        AppEvent::StDeliver { msg, .. } => {
            let mut c = ctl.borrow_mut();
            match parse(msg.wire()) {
                Some((KIND_CHURN, id, frame, due)) => {
                    let ns = c.since(sim, due);
                    c.rec.churn_rx.push(Rx {
                        flow: id,
                        seq: frame,
                        aux: 0,
                        len: msg.len() as u32,
                        ns,
                    });
                }
                _ => c.rec.garbled += 1,
            }
        }
    }
}

/// One churn frame every 20 ms; the session closes after its last frame.
fn churn_tick(sim: &mut Sim<Stack>, host: HostId, st_rms: StRmsId, i: usize, ctl: CtlRef) {
    let (frame, frames, bytes) = {
        let c = ctl.borrow();
        let ch = &c.plan.churn[i];
        let t = &c.rec.churn_tx[i];
        (t.sent + t.refused, ch.frames, ch.bytes)
    };
    if ctl.borrow().rec.churn_tx[i].ended_failed {
        return;
    }
    let w = payload(
        KIND_CHURN,
        i as u32,
        frame,
        sim.now().as_nanos(),
        bytes as usize,
    );
    if dash_subtransport::send(sim, host, st_rms, Message::from_wire(w)).is_ok() {
        ctl.borrow_mut().rec.churn_tx[i].sent += 1;
    } else {
        ctl.borrow_mut().rec.churn_tx[i].refused += 1;
    }
    if frame + 1 >= frames {
        let _ = dash_subtransport::close(sim, host, st_rms);
        ctl.borrow_mut().churn_streams.remove(&st_rms);
        return;
    }
    sim.schedule_in(VOICE_INTERVAL, move |sim| {
        churn_tick(sim, host, st_rms, i, ctl)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips() {
        let w = payload(KIND_BULK, 7, 3, 0xdead_beef_0001, 100);
        assert_eq!(w.len(), 100);
        assert_eq!(parse(&w), Some((KIND_BULK, 7, 3, 0xdead_beef_0001)));
        let short = payload(KIND_VOICE, 1, 2, 3, 4);
        assert_eq!(short.len(), HEADER);
    }
}
