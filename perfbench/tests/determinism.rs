//! Determinism self-tests of the benchmark: the virtual-time executors
//! replay exactly, dash-par's merged outcome does not depend on the shard
//! count, and a seed other than the default runs every workload without a
//! failed operation.

use std::sync::Arc;

use dash_perfbench::check::check;
use dash_perfbench::digest;
use dash_perfbench::exec::{run_round, RoundOut};
use dash_perfbench::plan::{plan, Executor, Workload};
use dash_perfbench::report::{bulk_goodput_mbps, rkom_latencies, voice_latencies};

/// Every virtual-time figure a round reports, in one comparable value.
fn virtual_metrics(p: &dash_perfbench::plan::Plan, r: &RoundOut) -> (Vec<u64>, Vec<u64>, u64) {
    let mut voice = voice_latencies(r);
    voice.sort_unstable();
    let mut rkom = rkom_latencies(p, r);
    rkom.sort_unstable();
    (voice, rkom, bulk_goodput_mbps(p, r).to_bits())
}

#[test]
fn wan_churn_merges_identically_at_one_and_two_shards() {
    let p = Arc::new(plan(Workload::WanChurn, 1));
    let one = run_round(&p, Executor::Sharded { shards: 1 }, false);
    let two = run_round(&p, Executor::Sharded { shards: 2 }, false);
    assert!(one.delivered() > 10_000, "delivered {}", one.delivered());
    assert_eq!(digest(&one), digest(&two));
    assert_eq!(virtual_metrics(&p, &one), virtual_metrics(&p, &two));
    assert_eq!(one.events, two.events);
}

#[test]
fn lan_voice_replays_virtual_metrics_and_allocations() {
    let p = Arc::new(plan(Workload::LanVoice, 1));
    // The first round warms process-wide lazy state; later rounds must
    // match each other exactly, allocation for allocation.
    let rounds: Vec<RoundOut> = (0..3)
        .map(|_| run_round(&p, Executor::Serial, false))
        .collect();
    assert_eq!(digest(&rounds[0]), digest(&rounds[1]));
    assert_eq!(digest(&rounds[1]), digest(&rounds[2]));
    assert_eq!(
        virtual_metrics(&p, &rounds[0]),
        virtual_metrics(&p, &rounds[2])
    );
    assert_eq!(rounds[1].thread_allocs, rounds[2].thread_allocs);
    assert_eq!(rounds[1].events, rounds[2].events);
}

#[test]
fn a_second_seed_runs_every_workload_without_failures() {
    for w in Workload::ALL {
        let p = Arc::new(plan(w, 2));
        let r = run_round(&p, w.executor(), false);
        let v = check(&p, &r.rec, r.probe.admission_over_budget);
        assert!(v.violations.is_empty(), "{}: {:?}", w.name(), v.violations);
        assert_eq!(v.failed, 0, "{}: {:?}", w.name(), v.failed_by_class);
        assert!(r.clean_stop, "{}", w.name());
        assert!(v.attempted > 1000, "{}: {}", w.name(), v.attempted);
    }
}

#[test]
fn traced_rounds_keep_the_virtual_outcome() {
    // Tracing only observes: the traced round replays the untraced one.
    let p = Arc::new(plan(Workload::LanVoice, 3));
    let plain = run_round(&p, Executor::Serial, false);
    let traced = run_round(&p, Executor::Serial, true);
    assert_eq!(digest(&plain), digest(&traced));
    assert!(traced.probe.steps.iter().sum::<u64>() == traced.events);
}
