//! Metrics: the end-to-end set of an untraced run and the per-layer set
//! of a traced run, computed from the rounds a run made.

use std::time::Duration;

use crate::exec::RoundOut;
use crate::plan::Plan;
use crate::probe::Layer;
use crate::world::Rx;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile `q` of `v`.
pub fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let idx = ((v.len() as f64 - 1.0) * q).round() as usize;
    v[idx] as f64
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Voice latencies (ns) of one round.
pub fn voice_latencies(r: &RoundOut) -> Vec<u64> {
    r.rec.voice_rx.iter().map(|x| x.ns).collect()
}

/// RKOM latencies (ns) of one round. A client's first call pays channel
/// set-up (control channel, authentication, two RMS creates) and is left
/// out of the sample; it is still an operation and still checked.
pub fn rkom_latencies(plan: &Plan, r: &RoundOut) -> Vec<u64> {
    let mut out = Vec::new();
    for (ci, c) in plan.rkom.iter().enumerate() {
        for k in 1..c.calls.len() {
            let call = &r.rec.calls[r.rec.call_base[ci] + k];
            if call.replies == 1 && !call.error {
                out.push(call.latency_ns);
            }
        }
    }
    out
}

/// Bulk goodput of one round, Mb/s: payload bytes delivered in order
/// while the pairs were offering load — from the first pair's open to the
/// instant the last pair stops starting transfers — over that window. The
/// drain after it is left out: it measures retransmission back-off, not
/// capacity.
pub fn bulk_goodput_mbps(plan: &Plan, r: &RoundOut) -> f64 {
    let start = plan
        .bulk
        .iter()
        .map(|b| b.start.as_nanos())
        .min()
        .unwrap_or(0);
    let stop = plan
        .bulk
        .iter()
        .map(|b| b.stop.as_nanos())
        .max()
        .unwrap_or(0);
    let bytes: u64 = r
        .rec
        .bulk_rx
        .iter()
        .filter(|x| x.ns <= stop)
        .map(|x| u64::from(x.len))
        .sum();
    let secs = stop.saturating_sub(start) as f64 / 1e9;
    if secs > 0.0 {
        bytes as f64 * 8.0 / secs / 1e6
    } else {
        0.0
    }
}

/// The end-to-end figures of one round, kept instead of the round so a
/// run's memory does not grow with the number of rounds it makes.
#[derive(Debug, Clone, Copy)]
pub struct Figures {
    setup_s: f64,
    msgs_per_s: f64,
    cpu_s: f64,
    allocs: u64,
    delivered: u64,
    voice_p50_ms: f64,
    voice_p99_ms: f64,
    rkom_p50_ms: f64,
    rkom_p99_ms: f64,
    goodput_mbps: f64,
}

impl Figures {
    /// Reduce a checked round to its figures.
    pub fn of(plan: &Plan, r: &RoundOut) -> Figures {
        let ms = |ns: f64| ns / 1e6;
        let mut voice = voice_latencies(r);
        let mut rkom = rkom_latencies(plan, r);
        Figures {
            setup_s: secs(r.setup_wall),
            msgs_per_s: r.delivered() as f64 / secs(r.run_wall),
            cpu_s: secs(r.cpu),
            allocs: r.allocs,
            delivered: r.delivered(),
            voice_p50_ms: ms(quantile(&mut voice, 0.5)),
            voice_p99_ms: ms(quantile(&mut voice, 0.99)),
            rkom_p50_ms: ms(quantile(&mut rkom, 0.5)),
            rkom_p99_ms: ms(quantile(&mut rkom, 0.99)),
            goodput_mbps: bulk_goodput_mbps(plan, r),
        }
    }
}

/// The end-to-end metrics of an untraced run. Each is the median over
/// rounds of the per-round figure: on the virtual clock every round of a
/// seed is identical, so latencies and goodput are any round's value; on
/// the wall clock the median keeps a disturbed round from moving the
/// result. Allocations per message pool all rounds.
pub fn end_to_end(rounds: &[Figures], peak_rss: u64) -> Vec<Metric> {
    let med = |f: fn(&Figures) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(f).collect();
        median(&mut v)
    };
    let allocs: u64 = rounds.iter().map(|r| r.allocs).sum();
    let delivered: u64 = rounds.iter().map(|r| r.delivered).sum();
    vec![
        m("setup_s", "s", med(|r| r.setup_s)),
        m("msgs_per_s", "msg/s", med(|r| r.msgs_per_s)),
        m("cpu_s", "s", med(|r| r.cpu_s)),
        m("peak_rss_mb", "MB", peak_rss as f64 / 1e6),
        m(
            "allocs_per_msg",
            "count",
            allocs as f64 / delivered.max(1) as f64,
        ),
        m("voice_p50_ms", "ms", med(|r| r.voice_p50_ms)),
        m("voice_p99_ms", "ms", med(|r| r.voice_p99_ms)),
        m("rkom_p50_ms", "ms", med(|r| r.rkom_p50_ms)),
        m("rkom_p99_ms", "ms", med(|r| r.rkom_p99_ms)),
        m("bulk_goodput_mbps", "Mb/s", med(|r| r.goodput_mbps)),
    ]
}

/// Voice frames lost (sent but never delivered) and late (beyond the
/// 40 ms LAN or 150 ms WAN budget), in one round.
pub fn voice_lost_late(plan: &Plan, r: &RoundOut) -> (u64, u64) {
    let sent: u64 = r.rec.voice_tx.iter().map(|t| u64::from(t.sent)).sum();
    let late = r
        .rec
        .voice_rx
        .iter()
        .filter(|x: &&Rx| {
            let budget_ms = if plan.voice[x.flow as usize].wan {
                150
            } else {
                40
            };
            x.ns > budget_ms * 1_000_000
        })
        .count() as u64;
    (sent.saturating_sub(r.rec.voice_rx.len() as u64), late)
}

fn p99_ms(samples_s: &[f64]) -> f64 {
    let mut ns: Vec<u64> = samples_s.iter().map(|s| (s * 1e9) as u64).collect();
    quantile(&mut ns, 0.99) / 1e6
}

/// Per-layer metrics of one traced round.
pub fn layer_round(plan: &Plan, r: &mut RoundOut) -> Vec<Metric> {
    let p = &r.probe;
    let wall_ms = |l: Layer| p.wall_ns[l as usize] as f64 / 1e6;
    let steps: u64 = p.steps.iter().sum();
    let step_ns: u64 = p.wall_ns.iter().sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let (lost, late) = voice_lost_late(plan, r);
    let par = r.par.clone().unwrap_or_default();
    let rt = r.rt.clone().unwrap_or_default();
    let mut lags = rt.lags_ns.clone();
    let queue_p99_us = {
        let h = r.registry.histogram("span.stage.queue");
        h.quantile(0.99) * 1e6
    };
    let p = &r.probe;
    vec![
        m("setup.topology_ms", "ms", secs(r.setup.topology) * 1e3),
        m("setup.stack_ms", "ms", secs(r.setup.stack) * 1e3),
        m("setup.population_ms", "ms", secs(r.setup.population) * 1e3),
        m("engine.events", "count", r.events as f64),
        m("engine.ns_per_event", "ns", ratio(step_ns, steps)),
        m("engine.wall_ms", "ms", wall_ms(Layer::Engine)),
        m(
            "engine.allocs_per_event",
            "count",
            ratio(r.allocs, r.events),
        ),
        m("engine.peak_pending", "count", p.peak_pending as f64),
        m("obs.events", "count", p.events as f64),
        m("net.packets", "count", p.net_packets as f64),
        m("net.wall_ms", "ms", wall_ms(Layer::Net)),
        m("net.iface_wait_p99_us", "us", queue_p99_us),
        m("net.peak_queue_bytes", "B", p.peak_queue_bytes as f64),
        m("net.iface_drops", "count", p.iface_drops as f64),
        m("routing.floods", "count", p.floods as f64),
        m("routing.recomputes", "count", p.recomputes as f64),
        m("routing.wall_ms", "ms", wall_ms(Layer::Routing)),
        m(
            "routing.recompute_latency_p99_ms",
            "ms",
            p99_ms(&p.recompute_latency_s),
        ),
        m("admission.decisions", "count", p.admission_decisions as f64),
        m("admission.refusals", "count", p.admission_refusals as f64),
        m("fault.failover_p99_ms", "ms", p99_ms(&p.failover_s)),
        m(
            "st.msgs_per_packet",
            "ratio",
            ratio(p.st_sends, p.st_net_msgs),
        ),
        m("st.piggyback_flushes", "count", p.piggyback_flushes as f64),
        m("st.wall_ms", "ms", wall_ms(Layer::St)),
        m("st.fragments", "count", p.fragments as f64),
        m(
            "st.cache_hit_ratio",
            "ratio",
            ratio(p.cache_hits, p.cache_hits + p.cache_misses),
        ),
        m("st.cache_misses", "count", p.cache_misses as f64),
        m("st.cache_evictions", "count", p.cache_evictions as f64),
        m(
            "transport.retransmits",
            "count",
            r.stream_retransmits as f64,
        ),
        m("transport.sender_blocked", "count", p.sender_blocked as f64),
        m(
            "transport.useful_ratio",
            "ratio",
            ratio(r.stream_delivered, r.stream_sent + r.stream_retransmits),
        ),
        m("transport.wall_ms", "ms", wall_ms(Layer::Transport)),
        m(
            "rkom.retransmissions",
            "count",
            r.rkom_retransmissions as f64,
        ),
        m("rkom.duplicates_served", "count", r.rkom_duplicates as f64),
        m("rkom.wall_ms", "ms", wall_ms(Layer::Rkom)),
        m("par.epochs", "count", par.epochs as f64),
        m("par.envelopes", "count", par.envelopes as f64),
        m("par.compute_ms", "ms", secs(par.compute) * 1e3),
        m("par.exchange_ms", "ms", secs(par.exchange) * 1e3),
        m("par.barrier_wait_ms", "ms", secs(par.barrier_wait) * 1e3),
        m("par.imbalance", "ratio", par.imbalance),
        m("rt.lag_p99_ms", "ms", quantile(&mut lags, 0.99) / 1e6),
        m("rt.deadline_misses", "count", rt.deadline_misses as f64),
        m("rt.carriage_ms", "ms", secs(rt.carriage) * 1e3),
        m("rt.substrate_dropped", "count", rt.substrate_dropped as f64),
        m(
            "rt.busy_ratio",
            "ratio",
            if r.rt.is_some() {
                secs(rt.busy) / secs(r.run_wall)
            } else {
                0.0
            },
        ),
        m("apps.voice_lost", "count", lost as f64),
        m("apps.voice_late", "count", late as f64),
    ]
}

/// The per-layer metrics of a traced run: each metric's median over the
/// traced rounds (reduced by [`layer_round`] as they finish), plus the
/// tracing overhead — the traced rounds' median run time against the
/// untraced round's.
pub fn per_layer(
    traced: &[Vec<Metric>],
    traced_walls: &mut [f64],
    untraced_wall: f64,
) -> Vec<Metric> {
    let mut out: Vec<Metric> = traced[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let mut v: Vec<f64> = traced.iter().map(|ms| ms[i].value).collect();
            m(first.name, first.unit, median(&mut v))
        })
        .collect();
    out.push(m(
        "trace.overhead_ratio",
        "ratio",
        median(traced_walls) / untraced_wall - 1.0,
    ));
    out
}

/// Render the result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let v = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                x.name, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
