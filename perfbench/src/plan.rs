//! The traffic plan: one pure function from a workload name and a seed to
//! everything a run needs — topology, sessions, RKOM clients, bulk pairs,
//! churn waves and the fault plan. Every executor runs the same plan; the
//! executors differ only in how they drive the worlds built from it.

use dash_net::NetworkSpec;
use dash_sim::fault::{FaultKind, FaultPlan};
use dash_sim::rng::Rng;
use dash_sim::time::{SimDuration, SimTime};

/// The three workloads, one per executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Intra-LAN voice and RKOM on many LANs, serial DES.
    LanVoice,
    /// Cross-site traffic, churn and WAN outages, dash-par at 2 shards.
    WanChurn,
    /// Bidirectional fragmenting bulk with voice and RKOM, dash-rt paced 1:1.
    BulkLossyRt,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::LanVoice,
        Workload::WanChurn,
        Workload::BulkLossyRt,
    ];

    /// Parse a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LanVoice => "lan_voice",
            Workload::WanChurn => "wan_churn",
            Workload::BulkLossyRt => "bulk_lossy_rt",
        }
    }

    /// The executor this workload runs on.
    pub fn executor(self) -> Executor {
        match self {
            Workload::LanVoice => Executor::Serial,
            Workload::WanChurn => Executor::Sharded { shards: 2 },
            Workload::BulkLossyRt => Executor::Paced,
        }
    }
}

/// How a plan is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// One world on the serial discrete-event engine.
    Serial,
    /// One replica world per host on dash-par, LAN-aligned on `shards`.
    Sharded {
        /// Worker threads.
        shards: u32,
    },
    /// One world on dash-rt: wall-clock pacing over `MemDatagram`.
    Paced,
}

/// Voice frame interval (64 kb/s telephone voice).
pub const VOICE_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Bytes of benchmark header at the front of every payload
/// (kind u8, id u32, a u32, b u64).
pub const HEADER: usize = 17;

/// The topology: network specs, each host's attachments, and the site
/// groups used for LAN-aligned shard placement.
#[derive(Debug, Clone)]
pub struct Topo {
    /// Network specs; a network's id is its index.
    pub nets: Vec<NetworkSpec>,
    /// Per host (id = index), the networks it attaches to.
    pub hosts: Vec<Vec<u32>>,
    /// Host groups that must share a shard (a site's hosts and gateways).
    pub groups: Vec<Vec<u32>>,
}

/// One voice session: frames every 20 ms from open until the plan's end.
#[derive(Debug, Clone)]
pub struct Voice {
    /// Sending host.
    pub src: u32,
    /// Receiving host.
    pub dst: u32,
    /// Open time.
    pub start: SimDuration,
    /// Frame payload bytes.
    pub bytes: u32,
    /// Rides a long-delay path (150 ms budget instead of 40 ms).
    pub wan: bool,
}

/// One RKOM client: Poisson calls to one server's echo service.
#[derive(Debug, Clone)]
pub struct RkomClient {
    /// Calling host.
    pub client: u32,
    /// Serving host.
    pub server: u32,
    /// Service id at the server.
    pub service: u16,
    /// Due instant of every call, ascending.
    pub calls: Vec<SimDuration>,
    /// Request payload bytes.
    pub bytes: u32,
}

/// One bulk pair: a reliable session carrying back-to-back transfers.
#[derive(Debug, Clone)]
pub struct BulkPair {
    /// Sending host.
    pub src: u32,
    /// Receiving host.
    pub dst: u32,
    /// Open time.
    pub start: SimDuration,
    /// Payload bytes per message.
    pub msg_bytes: u32,
    /// Messages per transfer.
    pub transfer_msgs: u32,
    /// No transfer starts at or after this instant.
    pub stop: SimDuration,
    /// Stream window (RMS capacity, receive buffer and send port) and
    /// retransmission timeout, when the bulk profile's defaults do not
    /// suit the path.
    pub tuning: Option<(u64, SimDuration)>,
}

/// One short-lived ST session of a churn wave.
#[derive(Debug, Clone)]
pub struct Churn {
    /// Sending host.
    pub src: u32,
    /// Receiving host.
    pub dst: u32,
    /// Create time.
    pub start: SimDuration,
    /// Frames sent before the session closes.
    pub frames: u32,
    /// Frame payload bytes.
    pub bytes: u32,
    /// ST capacity requested (large enough that sessions do not share a
    /// cached network RMS, so a wave both misses and evicts).
    pub capacity: u64,
}

/// Everything one run of a workload does.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the plan was drawn from.
    pub seed: u64,
    /// The topology.
    pub topo: Topo,
    /// Voice sessions.
    pub voice: Vec<Voice>,
    /// RKOM clients.
    pub rkom: Vec<RkomClient>,
    /// Bulk pairs.
    pub bulk: Vec<BulkPair>,
    /// Churn sessions.
    pub churn: Vec<Churn>,
    /// Faults, replicated into every world.
    pub faults: FaultPlan,
    /// No operation or frame starts at or after this instant.
    pub gen_end: SimDuration,
    /// The run stops here; everything started must have finished.
    pub horizon: SimTime,
}

impl Plan {
    /// Total hosts.
    pub fn host_count(&self) -> u32 {
        self.topo.hosts.len() as u32
    }
}

/// Network spec without random loss or bit errors: the workloads' only
/// loss is the one they inject on purpose.
fn clean(mut spec: NetworkSpec) -> NetworkSpec {
    spec.drop_prob = 0.0;
    spec.caps.raw_ber = 0.0;
    spec
}

struct TopoBuilder {
    topo: Topo,
}

impl TopoBuilder {
    fn new() -> Self {
        TopoBuilder {
            topo: Topo {
                nets: Vec::new(),
                hosts: Vec::new(),
                groups: Vec::new(),
            },
        }
    }

    fn net(&mut self, spec: NetworkSpec) -> u32 {
        self.topo.nets.push(clean(spec));
        self.topo.nets.len() as u32 - 1
    }

    fn host(&mut self, nets: &[u32]) -> u32 {
        self.topo.hosts.push(nets.to_vec());
        self.topo.hosts.len() as u32 - 1
    }

    /// A LAN of `n` hosts; returns (network, hosts).
    fn lan(&mut self, spec: NetworkSpec, n: usize) -> (u32, Vec<u32>) {
        let net = self.net(spec);
        let hosts = (0..n).map(|_| self.host(&[net])).collect();
        (net, hosts)
    }
}

/// Two distinct hosts of `hosts`, uniformly.
fn pick_pair(rng: &mut Rng, hosts: &[u32]) -> (u32, u32) {
    let a = rng.below(hosts.len() as u64) as usize;
    let b = (a + 1 + rng.below(hosts.len() as u64 - 1) as usize) % hosts.len();
    (hosts[a], hosts[b])
}

/// Poisson call instants at `rate` per second in `[from, until)`.
fn poisson(rng: &mut Rng, rate: f64, from: SimDuration, until: SimDuration) -> Vec<SimDuration> {
    let mut out = Vec::new();
    let mut t = from.as_secs_f64();
    loop {
        t += rng.exp(1.0 / rate);
        let d = SimDuration::from_secs_f64(t);
        if d >= until {
            return out;
        }
        out.push(d);
    }
}

/// Voice frame size: codecs differ per session, 120-200 bytes.
fn voice_bytes(rng: &mut Rng) -> u32 {
    120 + 8 * rng.below(11) as u32
}

/// RKOM request size per client, 24-64 bytes (the reply echoes it).
fn call_bytes(rng: &mut Rng) -> u32 {
    24 + 4 * rng.below(11) as u32
}

/// Random start within the first voice interval, in 10 µs steps.
fn phase(rng: &mut Rng) -> SimDuration {
    SimDuration::from_micros(rng.below(2000) * 10)
}

/// Build the plan for `workload` from `seed`. Pure: the same arguments
/// give the same plan, in every process and on every executor.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let mut rng = Rng::new(seed ^ 0xda5b_0000 ^ workload as u64);
    match workload {
        Workload::LanVoice => lan_voice(&mut rng, seed),
        Workload::WanChurn => wan_churn(&mut rng, seed),
        Workload::BulkLossyRt => bulk_lossy_rt(&mut rng, seed),
    }
}

fn lan_voice(rng: &mut Rng, seed: u64) -> Plan {
    const LANS: usize = 6;
    const HOSTS: usize = 6;
    const VOICE_PER_LAN: usize = 16;
    const PAIRS_PER_LAN: usize = 5;
    const RKOM_PER_LAN: usize = 4;
    const RKOM_RATE: f64 = 100.0;
    let gen_end = SimDuration::from_secs(2);
    let mut tb = TopoBuilder::new();
    let mut voice = Vec::new();
    let mut rkom = Vec::new();
    for l in 0..LANS {
        let (_, hosts) = tb.lan(NetworkSpec::ethernet(format!("lan-{l}")), HOSTS);
        tb.topo.groups.push(hosts.clone());
        // A few host pairs carry all of the LAN's voice, so sessions
        // share network RMSs and piggyback on each other.
        let pairs: Vec<(u32, u32)> = (0..PAIRS_PER_LAN).map(|_| pick_pair(rng, &hosts)).collect();
        for _ in 0..VOICE_PER_LAN {
            let (src, dst) = pairs[rng.below(PAIRS_PER_LAN as u64) as usize];
            voice.push(Voice {
                src,
                dst,
                start: phase(rng),
                bytes: voice_bytes(rng),
                wan: false,
            });
        }
        for _ in 0..RKOM_PER_LAN {
            let (client, server) = pairs[rng.below(PAIRS_PER_LAN as u64) as usize];
            let id = rkom.len() as u32;
            rkom.push(RkomClient {
                client,
                server,
                service: 100 + id as u16,
                calls: poisson(rng, RKOM_RATE, SimDuration::ZERO, gen_end),
                bytes: call_bytes(rng),
            });
        }
    }
    let mut bulk = Vec::new();
    for f in 0..2 {
        let (_, hosts) = tb.lan(NetworkSpec::fast_lan(format!("fast-{f}")), 4);
        tb.topo.groups.push(hosts.clone());
        for p in 0..2 {
            bulk.push(BulkPair {
                src: hosts[2 * p],
                dst: hosts[2 * p + 1],
                start: phase(rng),
                msg_bytes: 4096,
                transfer_msgs: 16,
                stop: gen_end,
                tuning: None,
            });
        }
    }
    Plan {
        workload: Workload::LanVoice,
        seed,
        topo: tb.topo,
        voice,
        rkom,
        bulk,
        churn: Vec::new(),
        faults: FaultPlan::new(),
        gen_end,
        horizon: SimTime::ZERO.saturating_add(SimDuration::from_millis(2500)),
    }
}

fn wan_churn(rng: &mut Rng, seed: u64) -> Plan {
    const SITES: usize = 6;
    const HOSTS: usize = 5;
    const VOICE_PER_SITE: usize = 4;
    const RKOM_PER_SITE: usize = 4;
    const RKOM_RATE: f64 = 25.0;
    const WAVE_EVERY: SimDuration = SimDuration::from_millis(100);
    const WAVE_SESSIONS: usize = 7;
    let gen_end = SimDuration::from_secs(2);
    let mut tb = TopoBuilder::new();
    // Two parallel backbones; every site has a gateway onto each, so
    // either one can carry all cross-site traffic while the other is down.
    let mut wan = NetworkSpec::long_haul("wan-a");
    wan.rate_bps = 45e6;
    let wan_a = tb.net(wan.clone());
    wan.name = "wan-b".into();
    let wan_b = tb.net(wan);
    let mut sites = Vec::new();
    let mut bulk_hosts = Vec::new();
    for s in 0..SITES {
        let (lan, hosts) = tb.lan(NetworkSpec::ethernet(format!("site-{s}")), HOSTS);
        // The bulk pair gets hosts of its own: a host saturated by a bulk
        // sender cannot set up control channels to new peers (see
        // CHANGES.md), and every other class here keeps meeting new peers.
        let pair = (tb.host(&[lan]), tb.host(&[lan]));
        let ga = tb.host(&[lan, wan_a]);
        let gb = tb.host(&[lan, wan_b]);
        let mut group = hosts.clone();
        group.extend([pair.0, pair.1, ga, gb]);
        tb.topo.groups.push(group);
        sites.push(hosts);
        bulk_hosts.push(pair);
    }
    let other_site =
        |rng: &mut Rng, s: usize| (s + 1 + rng.below(SITES as u64 - 1) as usize) % SITES;
    let mut voice = Vec::new();
    let mut rkom = Vec::new();
    let mut bulk = Vec::new();
    for s in 0..SITES {
        for _ in 0..VOICE_PER_SITE {
            let src = sites[s][rng.below(HOSTS as u64) as usize];
            let o = other_site(rng, s);
            let dst = sites[o][rng.below(HOSTS as u64) as usize];
            voice.push(Voice {
                src,
                dst,
                start: phase(rng),
                bytes: voice_bytes(rng),
                wan: true,
            });
        }
        for _ in 0..RKOM_PER_SITE {
            let client = sites[s][rng.below(HOSTS as u64) as usize];
            let o = other_site(rng, s);
            let server = sites[o][rng.below(HOSTS as u64) as usize];
            let id = rkom.len() as u32;
            rkom.push(RkomClient {
                client,
                server,
                service: 100 + id as u16,
                calls: poisson(rng, RKOM_RATE, SimDuration::ZERO, gen_end),
                bytes: call_bytes(rng),
            });
        }
        let (src, dst) = bulk_hosts[s];
        bulk.push(BulkPair {
            src,
            dst,
            start: phase(rng),
            msg_bytes: 1024,
            transfer_msgs: 32,
            stop: gen_end,
            tuning: None,
        });
    }
    // Churn waves: each wave opens a burst of short sessions from one
    // host to one peer of its own site, rotating sites and pairs, so the
    // per-host ST cache misses on new peers, evicts when a burst closes
    // and hits when a pair comes round again. They stay
    // inside a site: a create still in flight across a WAN when that WAN
    // goes down never completes (see CHANGES.md).
    // Two pairs per site take turns, so a pair meets its cached channels
    // again a few waves later.
    let churn_pairs: Vec<[(u32, u32); 2]> = sites
        .iter()
        .map(|hosts| [pick_pair(rng, hosts), pick_pair(rng, hosts)])
        .collect();
    let mut churn = Vec::new();
    let mut w = 0u64;
    loop {
        let start = WAVE_EVERY.saturating_mul(w + 1);
        if start.saturating_add(SimDuration::from_millis(300)) >= gen_end {
            break;
        }
        let s = (w as usize) % SITES;
        let (src, dst) = churn_pairs[s][(w as usize / SITES) % 2];
        // Sessions of a wave close 20 ms apart: closes that land together
        // leave more idle channels than the cache limit, never evicted
        // (see CHANGES.md).
        for k in 0..WAVE_SESSIONS {
            churn.push(Churn {
                src,
                dst,
                start: start.saturating_add(SimDuration::from_millis(k as u64)),
                frames: 3 + k as u32,
                bytes: 160,
                capacity: 40 * 1024,
            });
        }
        w += 1;
    }
    let at = |ms: u64| SimTime::ZERO.saturating_add(SimDuration::from_millis(ms));
    let faults = FaultPlan::new()
        .at(at(1000), FaultKind::NetworkDown { network: wan_a })
        .at(at(1300), FaultKind::NetworkUp { network: wan_a })
        .at(at(1600), FaultKind::NetworkDown { network: wan_b })
        .at(at(1900), FaultKind::NetworkUp { network: wan_b });
    Plan {
        workload: Workload::WanChurn,
        seed,
        topo: tb.topo,
        voice,
        rkom,
        bulk,
        churn,
        faults,
        gen_end,
        horizon: SimTime::ZERO.saturating_add(SimDuration::from_millis(3000)),
    }
}

fn bulk_lossy_rt(rng: &mut Rng, seed: u64) -> Plan {
    const RKOM_RATE: f64 = 100.0;
    let gen_end = SimDuration::from_millis(2000);
    let mut tb = TopoBuilder::new();
    // One long link of ten hosts: Ethernet rate and MTU, 20 ms one way.
    // Every exchange is one hop, so a call meets the loss model twice, and
    // the modelled latency dwarfs the wall clock's scheduling noise.
    let mut link = NetworkSpec::ethernet("link");
    link.propagation = SimDuration::from_millis(20);
    let (_, hosts) = tb.lan(link, 10);
    tb.topo.groups.push(hosts.clone());
    // Fixed pairs, so a seed moves only phases and call instants: hosts
    // 0-7 carry bulk both ways, 8 and 9 do not, and voice and RKOM run
    // both from bulk senders (queued behind fragments) and from the quiet
    // hosts. Bulk starts once voice and RKOM have set up their channels:
    // a host saturated by a bulk sender cannot set up control channels to
    // new peers (see CHANGES.md).
    let mut bulk = Vec::new();
    for a in [0, 2, 4, 6] {
        for (src, dst) in [(a, a + 1), (a + 1, a)] {
            bulk.push(BulkPair {
                src: hosts[src],
                dst: hosts[dst],
                start: SimDuration::from_millis(300).saturating_add(phase(rng)),
                msg_bytes: 8192,
                transfer_msgs: 8,
                // Back-to-back timeouts back off to seconds: the 3.5 s of
                // drain after this lets the last transfer finish.
                stop: SimDuration::from_millis(1500),
                // A window and send port sized to the path, and a timeout
                // above the round trip behind them: the default 128 KiB
                // window queues hundreds of milliseconds at the interface
                // and times out spuriously.
                tuning: Some((32 * 1024, SimDuration::from_millis(300))),
            });
        }
    }
    let voice_pairs = [
        (8, 9),
        (9, 8),
        (8, 0),
        (9, 1),
        (0, 8),
        (1, 9),
        (2, 8),
        (3, 9),
        (8, 2),
        (9, 3),
        (0, 9),
        (1, 8),
        (4, 8),
        (5, 9),
        (8, 4),
        (9, 5),
        (6, 8),
        (7, 9),
        (0, 2),
        (1, 3),
    ];
    // Two sessions per pair: enough frames a round for a steady p99.
    let voice = voice_pairs
        .iter()
        .chain(voice_pairs.iter())
        .map(|&(src, dst)| Voice {
            src: hosts[src],
            dst: hosts[dst],
            start: phase(rng),
            bytes: voice_bytes(rng),
            wan: false,
        })
        .collect();
    let rkom_pairs = [
        (8, 0),
        (9, 2),
        (0, 9),
        (2, 8),
        (1, 3),
        (9, 4),
        (6, 8),
        (8, 7),
    ];
    let rkom = rkom_pairs
        .iter()
        .enumerate()
        .map(|(id, &(client, server))| RkomClient {
            client: hosts[client],
            server: hosts[server],
            service: 100 + id as u16,
            calls: poisson(rng, RKOM_RATE, SimDuration::ZERO, gen_end),
            bytes: call_bytes(rng),
        })
        .collect();
    Plan {
        workload: Workload::BulkLossyRt,
        seed,
        topo: tb.topo,
        voice,
        rkom,
        bulk,
        churn: Vec::new(),
        faults: FaultPlan::new(),
        gen_end,
        horizon: SimTime::ZERO.saturating_add(SimDuration::from_millis(5000)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for w in Workload::ALL {
            let a = plan(w, 7);
            let b = plan(w, 7);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let c = plan(w, 8);
            assert_ne!(format!("{a:?}"), format!("{c:?}"));
        }
    }

    #[test]
    fn every_workload_carries_every_class_at_volume() {
        for w in Workload::ALL {
            let p = plan(w, 1);
            let frames: u64 =
                p.voice.len() as u64 * (p.gen_end.as_nanos() / VOICE_INTERVAL.as_nanos());
            let calls: usize = p.rkom.iter().map(|c| c.calls.len()).sum();
            assert!(frames >= 1000, "{}: {frames} voice frames", w.name());
            assert!(calls >= 1000, "{}: {calls} RKOM calls", w.name());
            assert!(!p.bulk.is_empty(), "{}: no bulk", w.name());
        }
    }
}
