//! The benchmark binary: runs one workload for a given number of seconds
//! and prints one JSON result line.
//!
//! ```text
//! dash-perfbench --workload <lan_voice|wan_churn|bulk_lossy_rt> --seed <n>
//!                --seconds <s> --trace <0|1> [--executor serial|par<P>|rt]
//! ```
//!
//! A run repeats whole rounds of the workload's plan — build, run to the
//! horizon, check — until `--seconds` have passed. `--trace 0` prints the
//! end-to-end metrics, `--trace 1` the per-layer metrics of traced rounds
//! (after one untraced round, against which the tracing overhead is
//! measured). `--executor` runs the plan on another executor, for
//! reference figures such as `wan_churn` on the serial engine.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dash_perfbench::check::check;
use dash_perfbench::exec::{run_round, RoundOut};
use dash_perfbench::plan::{plan, Executor, Plan, Workload};
use dash_perfbench::report::{end_to_end, layer_round, per_layer, result_json, Figures};
use dash_perfbench::{digest, peak_rss_bytes};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    executor: Option<Executor>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut executor = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--executor" => {
                let v = value()?;
                executor = Some(match v.as_str() {
                    "serial" => Executor::Serial,
                    "rt" => Executor::Paced,
                    p if p.starts_with("par") => Executor::Sharded {
                        shards: p[3..].parse().map_err(|e| format!("--executor: {e}"))?,
                    },
                    _ => return Err(format!("unknown executor {v}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        executor,
    })
}

/// Runs rounds until `deadline` (at least one) and checks each.
struct Session {
    plan: Arc<Plan>,
    executor: Executor,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    reference: Option<u64>,
    failed_by_class: [u64; 5],
}

impl Session {
    fn round(&mut self, traced: bool) -> RoundOut {
        let r = run_round(&self.plan, self.executor, traced);
        let v = check(&self.plan, &r.rec, r.probe.admission_over_budget);
        self.attempted += v.attempted;
        self.failed += v.failed;
        for (a, b) in self.failed_by_class.iter_mut().zip(v.failed_by_class) {
            *a += b;
        }
        self.violations.extend(v.violations);
        if !r.clean_stop {
            self.violations.push("run cut by its wall-clock box".into());
        }
        // On the virtual clock every round of a seed must replay exactly.
        if self.executor != Executor::Paced {
            let d = digest(&r);
            match self.reference {
                None => self.reference = Some(d),
                Some(first) if first != d => self
                    .violations
                    .push("a round diverged from the first".into()),
                Some(_) => {}
            }
        }
        r
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dash-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(args.seconds);
    let mut s = Session {
        plan: Arc::new(plan(args.workload, args.seed)),
        executor: args.executor.unwrap_or(args.workload.executor()),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        reference: None,
        failed_by_class: [0; 5],
    };
    let plan = Arc::clone(&s.plan);
    let metrics = if args.trace {
        // The first round also pays process warm-up; the overhead is taken
        // against the second.
        s.round(false);
        let untraced = s.round(false).run_wall.as_secs_f64();
        let (mut layers, mut walls) = (Vec::new(), Vec::new());
        loop {
            let mut r = s.round(true);
            walls.push(r.run_wall.as_secs_f64());
            layers.push(layer_round(&plan, &mut r));
            if Instant::now() >= deadline {
                break;
            }
        }
        eprintln!("traced rounds: {}", layers.len());
        per_layer(&layers, &mut walls, untraced)
    } else {
        let mut rounds = Vec::new();
        loop {
            rounds.push(Figures::of(&plan, &s.round(false)));
            if Instant::now() >= deadline {
                break;
            }
        }
        eprintln!("rounds: {}", rounds.len());
        end_to_end(&rounds, peak_rss_bytes())
    };
    for v in s.violations.iter().take(20) {
        eprintln!("violation: {v}");
    }
    eprintln!(
        "failed by class (voice, bulk open, bulk transfer, churn, rkom): {:?}",
        s.failed_by_class
    );
    eprintln!(
        "{} seed {}: {} attempted, {} failed, {} violations, {:.1} s",
        args.workload.name(),
        args.seed,
        s.attempted,
        s.failed,
        s.violations.len(),
        started.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        result_json(s.violations.is_empty(), s.attempted, s.failed, &metrics)
    );
    ExitCode::SUCCESS
}
