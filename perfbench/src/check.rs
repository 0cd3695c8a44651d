//! Output checks. Each one recomputes what the stack must have done from
//! the plan alone — never from a stored copy of an earlier run — and
//! compares it with what the receivers and callers recorded.
//!
//! It also counts operations: a session open, an RKOM call or a bulk
//! transfer. An operation fails when an open is refused or never
//! completes, a session ends with a typed failure, a call returns an
//! error or has no reply at the end of the run, or a transfer is
//! incomplete. Voice frames lost on their unreliable RMS are not failed
//! operations: the RMS allows that loss.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::plan::Plan;
use crate::world::{Rec, Rx, TxRec};

/// The verdict on one round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed operations by class: voice, bulk sessions, bulk transfers,
    /// churn, RKOM.
    pub failed_by_class: [u64; 5],
    /// Broken properties, one line each. Empty means correct.
    pub violations: Vec<String>,
}

/// Lower bound on one-way latency from `src` to `dst` for a `bytes`-byte
/// payload: the cheapest path's propagation plus serialization of the
/// payload alone (headers, queueing and CPU only add to it), from the
/// `NetworkSpec`s the plan configured.
pub fn min_latency_ns(plan: &Plan, src: u32, dst: u32, bytes: u32) -> u64 {
    let topo = &plan.topo;
    let hop = |n: u32| {
        let spec = &topo.nets[n as usize];
        spec.propagation.as_nanos() + (f64::from(bytes) * 8e9 / spec.rate_bps) as u64
    };
    let mut best = vec![u64::MAX; topo.hosts.len()];
    let mut heap = BinaryHeap::new();
    best[src as usize] = 0;
    heap.push(Reverse((0u64, src)));
    while let Some(Reverse((d, h))) = heap.pop() {
        if d > best[h as usize] {
            continue;
        }
        if h == dst {
            return d;
        }
        for &n in &topo.hosts[h as usize] {
            let nd = d + hop(n);
            for (peer, nets) in topo.hosts.iter().enumerate() {
                if nets.contains(&n) && nd < best[peer] {
                    best[peer] = nd;
                    heap.push(Reverse((nd, peer as u32)));
                }
            }
        }
    }
    u64::MAX
}

/// Frames of one flow, in arrival order: strictly increasing indices (per
/// session FIFO, no duplicates), no more than were sent, the planned
/// length, and no faster than the path allows.
fn check_frames(
    what: &str,
    flow: u32,
    rx: &[&Rx],
    tx: &TxRec,
    bytes: u32,
    bound: u64,
    out: &mut Vec<String>,
) {
    let mut last: Option<u32> = None;
    for r in rx {
        if last.is_some_and(|l| r.seq <= l) {
            out.push(format!(
                "{what} {flow}: frame {} after {}",
                r.seq,
                last.unwrap_or(0)
            ));
        }
        last = Some(r.seq);
        if r.seq >= tx.sent + tx.refused {
            out.push(format!("{what} {flow}: frame {} was never sent", r.seq));
        }
        if r.len != bytes {
            out.push(format!(
                "{what} {flow}: frame {} is {} B, sent {bytes} B",
                r.seq, r.len
            ));
        }
        if r.ns < bound {
            out.push(format!(
                "{what} {flow}: frame {} took {} ns, below the path's {bound} ns",
                r.seq, r.ns
            ));
        }
    }
}

fn session_failed(t: &TxRec) -> bool {
    !t.opened || t.open_failed || t.ended_failed
}

/// Group deliveries by flow, keeping each flow's arrival order.
fn by_flow(rx: &[Rx], flows: usize) -> Vec<Vec<&Rx>> {
    let mut out = vec![Vec::new(); flows];
    for r in rx {
        if let Some(v) = out.get_mut(r.flow as usize) {
            v.push(r);
        }
    }
    out
}

/// Check one round's record against the plan. `over_budget` is the
/// number of admission decisions that left a ledger above its budget.
pub fn check(plan: &Plan, rec: &Rec, over_budget: u64) -> Verdict {
    let mut v = Verdict::default();
    let out = &mut v.violations;

    let voice_rx = by_flow(&rec.voice_rx, plan.voice.len());
    for (i, f) in plan.voice.iter().enumerate() {
        let tx = &rec.voice_tx[i];
        v.attempted += 1;
        v.failed_by_class[0] += u64::from(session_failed(tx));
        let bound = min_latency_ns(plan, f.src, f.dst, f.bytes);
        check_frames("voice", i as u32, &voice_rx[i], tx, f.bytes, bound, out);
    }

    let churn_rx = by_flow(&rec.churn_rx, plan.churn.len());
    for (i, c) in plan.churn.iter().enumerate() {
        let tx = &rec.churn_tx[i];
        v.attempted += 1;
        v.failed_by_class[3] += u64::from(session_failed(tx));
        let bound = min_latency_ns(plan, c.src, c.dst, c.bytes);
        check_frames("churn", i as u32, &churn_rx[i], tx, c.bytes, bound, out);
    }

    for (ci, c) in plan.rkom.iter().enumerate() {
        let bound = 2 * min_latency_ns(plan, c.client, c.server, c.bytes);
        for k in 0..c.calls.len() {
            let r = &rec.calls[rec.call_base[ci] + k];
            v.attempted += 1;
            v.failed_by_class[4] += u64::from(!r.issued || r.replies == 0 || r.error);
            if r.replies > 1 {
                out.push(format!("rkom {ci}/{k}: {} replies", r.replies));
            }
            if r.replies == 1 && !r.error {
                if !r.echo_ok {
                    out.push(format!("rkom {ci}/{k}: reply does not echo the request"));
                }
                if r.latency_ns < bound {
                    out.push(format!(
                        "rkom {ci}/{k}: replied in {} ns, below the round trip's {bound} ns",
                        r.latency_ns
                    ));
                }
            }
        }
    }

    let bulk_rx = by_flow(&rec.bulk_rx, plan.bulk.len());
    for (i, b) in plan.bulk.iter().enumerate() {
        let tx = &rec.bulk_tx[i];
        v.attempted += 1 + u64::from(tx.transfers);
        v.failed_by_class[1] += u64::from(session_failed(tx));
        // Every transfer arrives whole and in order: offsets 0, m, 2m, …
        // of the planned message size, transfer after transfer.
        let (mut transfer, mut offset, mut done) = (0u32, 0u64, 0u32);
        let total = u64::from(b.msg_bytes) * u64::from(b.transfer_msgs);
        for r in &bulk_rx[i] {
            if r.seq != transfer || r.aux != offset || r.len != b.msg_bytes {
                out.push(format!(
                    "bulk {i}: got transfer {} offset {} ({} B), expected transfer {transfer} offset {offset} ({} B)",
                    r.seq, r.aux, r.len, b.msg_bytes
                ));
                break;
            }
            offset += u64::from(r.len);
            if offset == total {
                done += 1;
                transfer += 1;
                offset = 0;
            }
        }
        if done > tx.transfers {
            out.push(format!(
                "bulk {i}: {done} transfers arrived, {} started",
                tx.transfers
            ));
        }
        v.failed_by_class[2] += u64::from(tx.transfers.saturating_sub(done));
    }
    v.failed = v.failed_by_class.iter().sum();

    if over_budget > 0 {
        out.push(format!(
            "admission: {over_budget} decisions left reserved above budget"
        ));
    }
    if rec.garbled > 0 {
        out.push(format!(
            "{} deliveries carried no benchmark header",
            rec.garbled
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan, Workload};
    use crate::world::CallRec;

    /// A hand-made, fully correct outcome of a tiny slice of a plan.
    fn tiny() -> (Plan, Rec) {
        let mut p = plan(Workload::BulkLossyRt, 1);
        p.voice.truncate(1);
        p.bulk.truncate(1);
        p.rkom.truncate(1);
        p.rkom[0].calls.truncate(2);
        p.churn.clear();
        let bound = min_latency_ns(&p, p.voice[0].src, p.voice[0].dst, p.voice[0].bytes);
        let rtt = 2 * min_latency_ns(&p, p.rkom[0].client, p.rkom[0].server, p.rkom[0].bytes);
        let b = &p.bulk[0];
        let mut rec = Rec {
            voice_tx: vec![TxRec {
                opened: true,
                sent: 3,
                ..TxRec::default()
            }],
            bulk_tx: vec![TxRec {
                opened: true,
                transfers: 1,
                sent: b.transfer_msgs,
                ..TxRec::default()
            }],
            calls: vec![
                CallRec {
                    issued: true,
                    replies: 1,
                    echo_ok: true,
                    latency_ns: rtt + 1,
                    error: false,
                };
                2
            ],
            call_base: vec![0],
            ..Rec::default()
        };
        for seq in 0..3 {
            rec.voice_rx.push(Rx {
                flow: 0,
                seq,
                aux: 0,
                len: p.voice[0].bytes,
                ns: bound + 1000,
            });
        }
        for m in 0..b.transfer_msgs {
            rec.bulk_rx.push(Rx {
                flow: 0,
                seq: 0,
                aux: u64::from(m) * u64::from(b.msg_bytes),
                len: b.msg_bytes,
                ns: 0,
            });
        }
        (p, rec)
    }

    fn broken(p: &Plan, rec: &Rec) -> bool {
        !check(p, rec, 0).violations.is_empty()
    }

    #[test]
    fn a_correct_outcome_passes() {
        let (p, rec) = tiny();
        let v = check(&p, &rec, 0);
        assert!(v.violations.is_empty(), "{:?}", v.violations);
        assert_eq!(v.failed, 0);
        assert_eq!(v.attempted, 1 + 2 + 2);
    }

    #[test]
    fn reordered_or_duplicated_voice_frames_fail() {
        let (p, mut rec) = tiny();
        rec.voice_rx.swap(0, 1);
        assert!(broken(&p, &rec));
        let (p, mut rec) = tiny();
        rec.voice_rx[2].seq = 1;
        assert!(broken(&p, &rec));
    }

    #[test]
    fn a_frame_faster_than_the_path_fails() {
        let (p, mut rec) = tiny();
        rec.voice_rx[1].ns = 10;
        assert!(broken(&p, &rec));
    }

    #[test]
    fn a_frame_never_sent_fails() {
        let (p, mut rec) = tiny();
        rec.voice_rx[2].seq = 7;
        assert!(broken(&p, &rec));
    }

    #[test]
    fn a_reply_that_does_not_echo_or_comes_twice_fails() {
        let (p, mut rec) = tiny();
        rec.calls[1].echo_ok = false;
        assert!(broken(&p, &rec));
        let (p, mut rec) = tiny();
        rec.calls[0].replies = 2;
        assert!(broken(&p, &rec));
        let (p, mut rec) = tiny();
        rec.calls[0].latency_ns = 5;
        assert!(broken(&p, &rec));
    }

    #[test]
    fn a_missing_reply_is_a_failed_operation() {
        let (p, mut rec) = tiny();
        rec.calls[1].replies = 0;
        let v = check(&p, &rec, 0);
        assert!(v.violations.is_empty());
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn bulk_bytes_missing_or_out_of_order_fail() {
        let (p, mut rec) = tiny();
        rec.bulk_rx.remove(3);
        assert!(broken(&p, &rec));
        let (p, mut rec) = tiny();
        rec.bulk_rx.swap(2, 3);
        assert!(broken(&p, &rec));
        let (p, mut rec) = tiny();
        rec.bulk_rx[0].len -= 1;
        assert!(broken(&p, &rec));
        // A transfer cut short is a failed operation, not a broken one.
        let (p, mut rec) = tiny();
        rec.bulk_rx.pop();
        let v = check(&p, &rec, 0);
        assert!(v.violations.is_empty());
        assert_eq!(v.failed, 1);
    }

    #[test]
    fn an_oversubscribed_ledger_fails() {
        let (p, rec) = tiny();
        assert!(!check(&p, &rec, 1).violations.is_empty());
    }

    #[test]
    fn refused_opens_are_failed_operations() {
        let (p, mut rec) = tiny();
        rec.voice_tx[0].open_failed = true;
        assert_eq!(check(&p, &rec, 0).failed, 1);
    }

    #[test]
    fn latency_bound_adds_hops_on_the_cheapest_path() {
        let p = plan(Workload::WanChurn, 1);
        let v = &p.voice[0];
        let one_lan = min_latency_ns(&p, p.bulk[0].src, p.bulk[0].dst, 160);
        let across = min_latency_ns(&p, v.src, v.dst, 160);
        // A cross-site path crosses a WAN (30 ms) and two LANs.
        assert!(
            across > 30_000_000 + 2 * one_lan - 1,
            "{across} vs {one_lan}"
        );
    }
}
