//! The observability probe: an `ObsSink` installed in every world.
//!
//! Untraced it does one thing, the admission check (reserved ≤ budget at
//! every `AdmissionDecision`). Traced it also classifies the events each
//! engine step emits, so the executor wrappers can charge the step's wall
//! time to a layer, and it counts the per-layer work the `ObsEvent` stream
//! shows.

use std::cell::RefCell;
use std::rc::Rc;

use dash_sim::obs::{ObsEvent, ObsSink};
use dash_sim::time::SimTime;

/// The layers a step's wall time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The step emitted nothing: timers, app callbacks, engine work.
    Engine = 0,
    /// Network pipeline, interfaces, admission, faults.
    Net = 1,
    /// Link-state floods and route recomputation.
    Routing = 2,
    /// The subtransport: ST sends, piggybacking, fragments, cache, failover.
    St = 3,
    /// The stream transport.
    Transport = 4,
    /// RKOM request/reply.
    Rkom = 5,
}

/// Number of layers.
const LAYERS: usize = 6;

impl Layer {
    /// The layer an event belongs to.
    pub fn of(event: &ObsEvent) -> Layer {
        use ObsEvent::*;
        match event {
            AdmissionDecision { .. }
            | IfaceEnqueue { .. }
            | IfaceDequeue { .. }
            | IfaceDrop { .. }
            | NetSend { .. }
            | NetRecv { .. }
            | NetPacketSent { .. }
            | NetPacketDelivered { .. }
            | FaultInjected { .. }
            | NetworkFailed { .. }
            | NetworkRestored { .. }
            | HostCrashed { .. }
            | HostRestarted { .. } => Layer::Net,
            RoutingFlood { .. }
            | RoutingRecompute { .. }
            | RoutingAlternateWin { .. }
            | RoutingPathPinned { .. } => Layer::Routing,
            StSend { .. }
            | StDeliver { .. }
            | Fragment { .. }
            | Reassemble { .. }
            | PiggybackCoalesce { .. }
            | PiggybackFlush { .. }
            | CacheHit { .. }
            | CacheMiss { .. }
            | CacheEvict { .. }
            | StNetMsg { .. }
            | FastAckSent { .. }
            | ControlCreated { .. }
            | HelloSent { .. }
            | CreateRequested { .. }
            | FailoverStarted { .. }
            | FailoverCompleted { .. } => Layer::St,
            TransportSend { .. }
            | StreamDeliver { .. }
            | StreamAck { .. }
            | StreamBlocked { .. }
            | StreamRetriesExhausted { .. }
            | StreamEnd { .. }
            | StreamOpenFailed { .. }
            | TcpRetransmit { .. } => Layer::Transport,
            RkomSend { .. } | RkomDeliver { .. } => Layer::Rkom,
        }
    }
}

/// What the probe gathered. Plain data, so per-LP copies merge by
/// addition (see [`ProbeStats::merge`]).
#[derive(Debug, Clone, Default)]
pub struct ProbeStats {
    /// Admission decisions seen.
    pub admission_decisions: u64,
    /// Decisions that refused.
    pub admission_refusals: u64,
    /// Decisions with reserved > budget (a §2.3 violation).
    pub admission_over_budget: u64,
    /// Every event seen (traced only).
    pub events: u64,
    /// Packets handed to interfaces.
    pub net_packets: u64,
    /// Interface overflow drops.
    pub iface_drops: u64,
    /// Largest interface queue, bytes.
    pub peak_queue_bytes: u64,
    /// Link-state floods originated.
    pub floods: u64,
    /// Route-table recomputations.
    pub recomputes: u64,
    /// Recompute latencies, seconds of virtual time.
    pub recompute_latency_s: Vec<f64>,
    /// Failover latencies, seconds of virtual time.
    pub failover_s: Vec<f64>,
    /// ST messages accepted.
    pub st_sends: u64,
    /// Network messages (frames or bundles) the ST handed down.
    pub st_net_msgs: u64,
    /// Piggyback flushes.
    pub piggyback_flushes: u64,
    /// Fragments produced.
    pub fragments: u64,
    /// ST channel-cache hits, misses and evictions.
    pub cache_hits: u64,
    /// See `cache_hits`.
    pub cache_misses: u64,
    /// See `cache_hits`.
    pub cache_evictions: u64,
    /// Stream senders blocked by flow control.
    pub sender_blocked: u64,
    /// Steps timed, and wall nanoseconds charged, per layer.
    pub steps: [u64; LAYERS],
    /// See `steps`.
    pub wall_ns: [u64; LAYERS],
    /// Largest pending-event count after a step.
    pub peak_pending: u64,
}

impl ProbeStats {
    /// Add `other` into `self`.
    pub fn merge(&mut self, other: &ProbeStats) {
        self.admission_decisions += other.admission_decisions;
        self.admission_refusals += other.admission_refusals;
        self.admission_over_budget += other.admission_over_budget;
        self.events += other.events;
        self.net_packets += other.net_packets;
        self.iface_drops += other.iface_drops;
        self.peak_queue_bytes = self.peak_queue_bytes.max(other.peak_queue_bytes);
        self.floods += other.floods;
        self.recomputes += other.recomputes;
        self.recompute_latency_s.extend(&other.recompute_latency_s);
        self.failover_s.extend(&other.failover_s);
        self.st_sends += other.st_sends;
        self.st_net_msgs += other.st_net_msgs;
        self.piggyback_flushes += other.piggyback_flushes;
        self.fragments += other.fragments;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.sender_blocked += other.sender_blocked;
        for i in 0..LAYERS {
            self.steps[i] += other.steps[i];
            self.wall_ns[i] += other.wall_ns[i];
        }
        self.peak_pending = self.peak_pending.max(other.peak_pending);
    }
}

/// Probe state shared between the sink and the executor wrappers.
#[derive(Debug, Default)]
pub struct Probe {
    /// Classify and count (traced runs) or only check admission.
    pub traced: bool,
    /// Layer of the current step's first event.
    first: Option<Layer>,
    /// The current step emitted a flood or a recompute.
    routing: bool,
    /// Gathered data.
    pub stats: ProbeStats,
}

/// Shared handle to a world's probe.
pub type ProbeRef = Rc<RefCell<Probe>>;

impl Probe {
    /// A new shared probe.
    pub fn shared(traced: bool) -> ProbeRef {
        Rc::new(RefCell::new(Probe {
            traced,
            ..Probe::default()
        }))
    }

    /// Forget the previous step's events.
    pub fn begin_step(&mut self) {
        self.first = None;
        self.routing = false;
    }

    /// Charge `ns` of wall time to the layer of the step just run: routing
    /// if it flooded or recomputed, else its first event's layer, else the
    /// engine.
    pub fn end_step(&mut self, ns: u64, pending: usize) {
        let layer = if self.routing {
            Layer::Routing
        } else {
            self.first.unwrap_or(Layer::Engine)
        };
        self.stats.steps[layer as usize] += 1;
        self.stats.wall_ns[layer as usize] += ns;
        self.stats.peak_pending = self.stats.peak_pending.max(pending as u64);
    }
}

/// The sink half of the probe.
pub struct ProbeSink(pub ProbeRef);

impl ObsSink for ProbeSink {
    fn on_event(&mut self, _time: SimTime, event: &ObsEvent) {
        let mut p = self.0.borrow_mut();
        if let ObsEvent::AdmissionDecision {
            admitted,
            reserved_bps,
            budget_bps,
            ..
        } = event
        {
            let s = &mut p.stats;
            s.admission_decisions += 1;
            s.admission_refusals += u64::from(!admitted);
            if *reserved_bps > *budget_bps * (1.0 + 1e-9) {
                s.admission_over_budget += 1;
            }
        }
        if !p.traced {
            return;
        }
        if p.first.is_none() {
            p.first = Some(Layer::of(event));
        }
        let s = &mut p.stats;
        s.events += 1;
        match event {
            ObsEvent::NetPacketSent { .. } => s.net_packets += 1,
            ObsEvent::IfaceDrop { .. } => s.iface_drops += 1,
            ObsEvent::IfaceEnqueue { queued_bytes, .. } => {
                s.peak_queue_bytes = s.peak_queue_bytes.max(*queued_bytes)
            }
            ObsEvent::RoutingFlood { .. } => {
                s.floods += 1;
                p.routing = true;
            }
            ObsEvent::RoutingRecompute { latency_s, .. } => {
                s.recomputes += 1;
                s.recompute_latency_s.push(*latency_s);
                p.routing = true;
            }
            ObsEvent::FailoverCompleted { latency_s, .. } => s.failover_s.push(*latency_s),
            ObsEvent::StSend { .. } => s.st_sends += 1,
            ObsEvent::StNetMsg { .. } => s.st_net_msgs += 1,
            ObsEvent::PiggybackFlush { .. } => s.piggyback_flushes += 1,
            ObsEvent::Fragment { count, .. } => s.fragments += u64::from(*count),
            ObsEvent::CacheHit { .. } => s.cache_hits += 1,
            ObsEvent::CacheMiss { .. } => s.cache_misses += 1,
            ObsEvent::CacheEvict { .. } => s.cache_evictions += 1,
            ObsEvent::StreamBlocked { .. } => s.sender_blocked += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(reserved: f64, budget: f64) -> ObsEvent {
        ObsEvent::AdmissionDecision {
            host: 0,
            admitted: true,
            reserved_bps: reserved,
            budget_bps: budget,
        }
    }

    #[test]
    fn admission_check_flags_an_oversubscribed_ledger() {
        let probe = Probe::shared(false);
        let mut sink = ProbeSink(Rc::clone(&probe));
        sink.on_event(SimTime::ZERO, &decision(100.0, 100.0));
        assert_eq!(probe.borrow().stats.admission_over_budget, 0);
        sink.on_event(SimTime::ZERO, &decision(100.5, 100.0));
        assert_eq!(probe.borrow().stats.admission_over_budget, 1);
        assert_eq!(probe.borrow().stats.admission_decisions, 2);
    }

    #[test]
    fn steps_are_charged_to_routing_then_first_layer_then_engine() {
        let probe = Probe::shared(true);
        let mut sink = ProbeSink(Rc::clone(&probe));
        let flood = ObsEvent::RoutingFlood { origin: 0, seq: 1 };
        let send = ObsEvent::NetPacketSent { host: 0 };
        for (events, layer) in [
            (vec![], Layer::Engine),
            (vec![send.clone()], Layer::Net),
            (vec![send.clone(), flood.clone()], Layer::Routing),
        ] {
            probe.borrow_mut().begin_step();
            for e in &events {
                sink.on_event(SimTime::ZERO, e);
            }
            probe.borrow_mut().end_step(10, 0);
            assert_eq!(probe.borrow().stats.steps[layer as usize], 1, "{layer:?}");
        }
    }
}
