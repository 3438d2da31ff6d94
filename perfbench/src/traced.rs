//! The traced run: per-layer numbers for one workload.
//!
//! The traced run first makes one pass of the workload itself (for its
//! engine round counts and phase spans). It then rebuilds every round of
//! the workload's spec under the [`Timed`](crate::adapter::Timed) adapter,
//! cycling through them for the run's seconds, and checks each against
//! `ScenarioRun::run_round`. Finally it times calls into each orchestration
//! layer's public functions directly on the workload's own rounds: fleet
//! planning and shard execution, journal put/merge/replay/get, the final
//! sweep pass, report and trace codecs, the invariant catalogue and the
//! analysis passes. Spans stay in memory and are written at the end.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vanet_analysis::{medium_occupancy, recovery_latency, AnalysisStore, RoundDigest};
use vanet_cache::{merge_into, SweepCache};
use vanet_fleet::{execute_units, plan_units, stride_units};
use vanet_gen::Blueprint;
use vanet_scenarios::urban::UrbanConfig;
use vanet_scenarios::{round_seed, Scenario, UrbanScenario};
use vanet_stats::RoundReport;
use vanet_sweep::{SweepEngine, SweepSpec};

use crate::adapter::{generated_round, urban_round, EventTimes, RoundTiming, KINDS};
use crate::catalog::Metric;
use crate::stats::{quantile, SpanLog};
use crate::workloads::{
    build, dense_highway, fresh_dir, highway_spec, preset, Checks, PAPER_PRESET, PAPER_ROUNDS,
    SHARDS, STRATEGY_PRESET, STRATEGY_ROUNDS,
};

/// Trace records past which the trace probe stops taking more rounds.
const TRACE_RECORD_CAP: usize = 2_000_000;

/// The world a round is rebuilt in.
enum World {
    Urban(UrbanScenario),
    Generated(Blueprint),
}

/// The scenario and spec a workload runs, plus how to rebuild its rounds.
struct Subject {
    scenario: Box<dyn Scenario>,
    spec: SweepSpec,
    world: World,
}

impl Subject {
    fn of(workload: &str, seed: u64) -> Subject {
        // Both presets sweep around the paper's testbed at their round count.
        let urban = |rounds| {
            World::Urban(UrbanScenario::new(UrbanConfig::paper_testbed().with_rounds(rounds)))
        };
        match workload {
            "paper_cold" | "paper_warm" => {
                let (scenario, spec) = preset(PAPER_PRESET, seed, PAPER_ROUNDS);
                Subject { scenario, spec, world: urban(PAPER_ROUNDS) }
            }
            "strategy_analysis" => {
                let (scenario, spec) = preset(STRATEGY_PRESET, seed, STRATEGY_ROUNDS);
                Subject { scenario, spec, world: urban(STRATEGY_ROUNDS) }
            }
            "highway_dense" => {
                let scenario = dense_highway();
                let world = World::Generated(scenario.blueprint().clone());
                Subject { scenario: Box::new(scenario), spec: highway_spec(seed), world }
            }
            other => panic!("unknown workload {other}"),
        }
    }
}

/// One round of the subject's spec.
struct Job {
    point: usize,
    round: u32,
    seed: u64,
    urban: Option<UrbanConfig>,
    reference: RoundReport,
}

fn ns_since(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// `total / count`, or 0 when nothing was counted.
fn per(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Runs the traced pass of `workload` and returns its per-layer metrics.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    dir: &Path,
    spans: &mut SpanLog,
    checks: &mut Checks,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut put = |name: &'static str, unit: &'static str, value: f64| {
        metrics.push(Metric { name, unit, value });
    };

    // The workload's own pass: engine round counts and phase spans.
    let pass = spans.open("workload_pass", None);
    let mut workload_impl = build(workload, seed, &dir.join("prepare"), checks);
    let (_, counts) = workload_impl.iterate(&fresh_dir(&dir.join("pass")), spans, pass, checks);
    spans.close(pass);
    put("vanet-sweep.rounds_simulated", "count", counts.simulated as f64);
    put("vanet-sweep.rounds_cached", "count", counts.cached as f64);
    put(
        "vanet-cache.hit_ratio",
        "ratio",
        per(counts.cached as f64, (counts.cached + counts.simulated) as f64),
    );

    // Every round of the spec, with its untraced reference report.
    let subject = Subject::of(workload, seed);
    let scenario = subject.scenario.as_ref();
    let configure_started = Instant::now();
    for point in subject.spec.expand() {
        scenario.configure(&point).expect("the workload's points are valid");
    }
    put("vanet-scenarios.configure_ms", "ms", ms_since(configure_started));
    let instantiate_started = Instant::now();
    std::hint::black_box(dense_highway());
    put("vanet-gen.instantiate_ms", "ms", ms_since(instantiate_started));

    let plan =
        vanet_sweep::plan(scenario, &subject.spec, false).expect("the workload's points are valid");
    let reference_span = spans.open("reference_rounds", None);
    let mut jobs = Vec::new();
    let mut untraced_ns = 0.0;
    for (point, run) in plan.runs.iter().enumerate() {
        let urban = match &subject.world {
            World::Urban(base) => Some(base.config_for(&plan.points[point]).expect("valid point")),
            World::Generated(_) => None,
        };
        for round in 0..run.rounds() {
            let seed = round_seed(plan.seeds[point], round);
            let started = Instant::now();
            let reference = run.run_round(round, seed);
            untraced_ns += ns_since(started);
            jobs.push(Job { point, round, seed, urban: urban.clone(), reference });
        }
    }
    spans.close(reference_span);

    // Rebuilt rounds under the adapter, cycling until the seconds are spent.
    let rebuild_span = spans.open("rebuilt_rounds", None);
    let rebuild = |job: &Job| -> (RoundReport, RoundTiming) {
        match (&subject.world, &job.urban) {
            (World::Urban(_), Some(config)) => urban_round(config, job.round, job.seed),
            (World::Generated(blueprint), _) => generated_round(blueprint, job.round, job.seed),
            (World::Urban(_), None) => unreachable!("urban jobs carry their configuration"),
        }
    };
    let started = Instant::now();
    let mut first_pass = RoundTiming::default();
    let mut first_pass_ns = 0.0;
    let (mut visits, mut position_updates) = (0u64, 0u64);
    let mut times = EventTimes::default();
    let mut run_ns_total = 0u64;
    let mut setup_ns_total = 0u64;
    let mut run_allocs = 0u64;
    let mut round_allocs = 0u64;
    let mut host_ms = Vec::new();
    let mut rebuilt = 0u64;
    let mut pass_index = 0;
    while pass_index == 0 || started.elapsed().as_secs_f64() < seconds {
        for job in &jobs {
            let round_span = spans.open("round", Some(rebuild_span));
            let (report, timing) = rebuild(job);
            spans.close(round_span);
            checks.check(report.to_bytes() == job.reference.to_bytes(), || {
                format!(
                    "{workload}: rebuilt round {} of point {} differs from run_round",
                    job.round, job.point
                )
            });
            times.absorb(&timing.times);
            run_ns_total += timing.run_ns;
            setup_ns_total += timing.setup_ns;
            run_allocs += timing.run_allocs;
            round_allocs += timing.round_allocs;
            host_ms.push((timing.setup_ns + timing.run_ns) as f64 / 1e6);
            rebuilt += 1;
            if pass_index == 0 {
                first_pass_ns += (timing.setup_ns + timing.run_ns) as f64;
                accumulate_counts(&mut first_pass, &timing);
                // Every transmission visits every other radio, and every
                // position update moves every radio.
                visits += timing.frames_sent * timing.nodes.saturating_sub(1);
                position_updates += timing.times.kind_count[1] * timing.nodes;
            }
        }
        pass_index += 1;
    }
    spans.close(rebuild_span);
    let accounted = times.handle_ns() + times.dispatch_ns;
    checks
        .check(accounted <= run_ns_total && accounted as f64 >= 0.95 * run_ns_total as f64, || {
            format!("{workload}: handlers plus dispatch cover {accounted} of {run_ns_total} ns")
        });
    let share = |ns: u64| 100.0 * ns as f64 / run_ns_total.max(1) as f64;
    for (k, kind) in KINDS.iter().enumerate() {
        eprintln!(
            "  kind {kind}: {} event(s), {:.1}% of run time",
            times.kind_count[k],
            share(times.kind_ns[k])
        );
    }
    eprintln!("  dispatch: {:.1}% of run time", share(times.dispatch_ns));

    let rounds = jobs.len() as f64;
    let events = times.events() as f64;
    let kind = |k: usize| per(times.kind_ns[k] as f64, times.kind_count[k] as f64);
    let first_events = first_pass.times.events() as f64;
    put("sim-core.events_per_round", "count", first_events / rounds);
    put("sim-core.dispatch_ns_per_event", "ns", per(times.dispatch_ns as f64, events));
    put("vanet-geo.position_update_ns", "ns", kind(1));
    put("vanet-geo.position_updates", "count", position_updates as f64 / rounds);
    put("vanet-mac.ap_transmit_ns", "ns", kind(2));
    put("vanet-mac.car_transmit_ns", "ns", kind(3));
    put("vanet-mac.frames_sent", "count", first_pass.frames_sent as f64 / rounds);
    put("vanet-mac.deliveries_ok", "count", first_pass.deliveries_ok as f64 / rounds);
    put("vanet-mac.lost_channel", "count", first_pass.lost_channel as f64 / rounds);
    put("vanet-mac.lost_collision", "count", first_pass.lost_collision as f64 / rounds);
    put("vanet-mac.csma_deferrals", "count", first_pass.csma_deferrals as f64 / rounds);
    let visits = visits as f64;
    put("vanet-mac.receiver_visits", "count", visits / rounds);
    // Every pass rebuilds the same rounds, so it repeats the same visits.
    let transmit_ns = (times.kind_ns[2] + times.kind_ns[3]) as f64;
    put("vanet-mac.ns_per_receiver_visit", "ns", per(transmit_ns, visits * pass_index as f64));
    put("vanet-mac.useful_visit_ratio", "ratio", per(first_pass.deliveries_ok as f64, visits));
    put("carq.delivery_ns", "ns", kind(4));
    put("carq.requests_sent", "count", first_pass.requests_sent as f64 / rounds);
    put("carq.coop_data_sent", "count", first_pass.coop_data_sent as f64 / rounds);
    put("carq.strategy_decisions", "count", first_pass.strategy_decisions as f64 / rounds);
    put(
        "vanet-dtn.ap_retransmissions_queued",
        "count",
        first_pass.ap_retransmissions_queued as f64 / rounds,
    );
    put("vanet-scenarios.round_setup_ns", "ns", per(setup_ns_total as f64, rebuilt as f64));
    put("alloc.per_round", "count", per(round_allocs as f64, rebuilt as f64));
    put("alloc.per_event", "count", per(run_allocs as f64, events));
    put("round.host_ms_p50", "ms", quantile(&host_ms, 0.5).unwrap_or(0.0));
    put("round.host_ms_p90", "ms", quantile(&host_ms, 0.9).unwrap_or(0.0));
    put("round.samples", "count", host_ms.len() as f64);
    put("trace.overhead_ratio", "ratio", per(first_pass_ns, untraced_ns));

    // Orchestration layers, timed by calling their public functions.
    let layers = spans.open("layer_calls", None);
    let started = Instant::now();
    let units = plan_units(scenario, &subject.spec, None).expect("the workload plans");
    let shards = stride_units(units, SHARDS);
    put("vanet-fleet.plan_ms", "ms", ms_since(started));

    let mut shard_dirs = Vec::new();
    let started = Instant::now();
    for (index, units) in shards.iter().enumerate() {
        let shard_dir = fresh_dir(&dir.join(format!("shard{index}")));
        let cache = Arc::new(SweepCache::open(&shard_dir).expect("the shard journal opens"));
        execute_units(scenario, subject.spec.master_seed, units, &cache, 1)
            .expect("the shard executes");
        shard_dirs.push(shard_dir);
    }
    put("vanet-fleet.execute_shard_ms", "ms", ms_since(started));

    let keys: Vec<_> = jobs
        .iter()
        .map(|job| plan.cache_key(scenario.name(), job.point, job.round, job.seed))
        .collect();
    let put_cache = SweepCache::open(fresh_dir(&dir.join("put"))).expect("the probe journal opens");
    let started = Instant::now();
    for (key, job) in keys.iter().zip(&jobs) {
        put_cache.put(key, &job.reference).expect("the journal appends");
    }
    put("vanet-cache.put_ns", "ns", ns_since(started) / rounds);
    let journal_bytes = std::fs::metadata(put_cache.journal_path()).map(|m| m.len()).unwrap_or(0);
    put("vanet-cache.journal_bytes", "bytes", journal_bytes as f64);
    drop(put_cache);

    let merged = fresh_dir(&dir.join("merged"));
    let dest = SweepCache::open(&merged).expect("the merge destination opens");
    let started = Instant::now();
    merge_into(&dest, &shard_dirs).expect("the shard journals merge");
    put("vanet-cache.merge_ms", "ms", ms_since(started));
    drop(dest);
    let started = Instant::now();
    let cache = SweepCache::open(&merged).expect("the merged journal replays");
    put("vanet-cache.open_ms", "ms", ms_since(started));
    let started = Instant::now();
    let mut served = 0;
    for (key, job) in keys.iter().zip(&jobs) {
        served += usize::from(cache.get(key).as_ref() == Some(&job.reference));
    }
    put("vanet-cache.get_ns", "ns", ns_since(started) / rounds);
    checks.check(served == jobs.len(), || {
        format!("{workload}: the merged journal served {served} of {} rounds intact", jobs.len())
    });

    let started = Instant::now();
    let result = SweepEngine::new(1)
        .with_cache(Arc::new(cache))
        .run(scenario, &subject.spec)
        .expect("the final pass runs");
    put("vanet-sweep.final_pass_ms", "ms", ms_since(started));
    checks.check(result.rounds_simulated == 0, || {
        format!("{workload}: the final pass simulated {} round(s)", result.rounds_simulated)
    });
    let started = Instant::now();
    std::fs::write(dir.join("export.csv"), result.to_csv()).expect("the export is writable");
    put("vanet-stats.export_ms", "ms", ms_since(started));

    let per_point: Vec<Vec<RoundReport>> = (0..plan.runs.len())
        .map(|point| {
            jobs.iter().filter(|j| j.point == point).map(|j| j.reference.clone()).collect()
        })
        .collect();
    let started = Instant::now();
    for (run, reports) in plan.runs.iter().zip(&per_point) {
        std::hint::black_box(run.aggregate(reports));
    }
    put("vanet-stats.aggregate_ms", "ms", ms_since(started));
    drop(per_point);

    let encode_started = Instant::now();
    let encoded: Vec<Vec<u8>> = jobs.iter().map(|j| j.reference.to_bytes()).collect();
    put("vanet-stats.encode_ns_per_report", "ns", ns_since(encode_started) / rounds);
    let decode_started = Instant::now();
    let decoded: Vec<RoundReport> =
        encoded.iter().map(|b| RoundReport::from_bytes(b).expect("reports decode")).collect();
    put("vanet-stats.decode_ns_per_report", "ns", ns_since(decode_started) / rounds);
    checks.check(decoded.iter().zip(&jobs).all(|(d, j)| *d == j.reference), || {
        format!("{workload}: a report did not survive its codec")
    });
    spans.close(layers);

    // Trace and analysis layers over the workload's own trace records.
    let tracing = spans.open("trace_calls", None);
    let mut store =
        AnalysisStore::open(fresh_dir(&dir.join("analysis"))).expect("the digest journal opens");
    let (mut records_total, mut traced_rounds) = (0usize, 0usize);
    let (mut encode_ns, mut decode_ns, mut verify_ns) = (0.0, 0.0, 0.0);
    let (mut latency_ns, mut occupancy_ns, mut store_ns) = (0.0, 0.0, 0.0);
    for (job, key) in jobs.iter().zip(&keys) {
        if records_total >= TRACE_RECORD_CAP {
            break;
        }
        let run = plan.runs[job.point].as_ref();
        let (report, records) = run.run_round_traced(job.round, job.seed);
        checks.check(report.to_bytes() == job.reference.to_bytes(), || {
            format!("{workload}: the traced round {} differs from run_round", job.round)
        });
        let started = Instant::now();
        let bytes = vanet_trace::encode(&records);
        encode_ns += ns_since(started);
        let started = Instant::now();
        let back = vanet_trace::decode(&bytes).expect("records decode");
        decode_ns += ns_since(started);
        let started = Instant::now();
        let invariants = vanet_trace::verify(&records);
        verify_ns += ns_since(started);
        checks.check(invariants.is_ok(), || {
            let first = &invariants.violations[0];
            format!(
                "{workload}: round {} of point {} breaks {} invariant(s), first {}: {}",
                job.round,
                job.point,
                invariants.violations.len(),
                first.invariant,
                first.detail
            )
        });
        checks.check(back == records, || {
            format!("{workload}: round {} does not survive the trace codec", job.round)
        });
        let started = Instant::now();
        std::hint::black_box(recovery_latency(&records));
        latency_ns += ns_since(started);
        let started = Instant::now();
        std::hint::black_box(medium_occupancy(&records));
        occupancy_ns += ns_since(started);
        let digest = RoundDigest::compute(job.round, job.seed, &records);
        let started = Instant::now();
        store.put(key, &digest).expect("the digest journal appends");
        store_ns += ns_since(started);
        records_total += records.len();
        traced_rounds += 1;
    }
    spans.close(tracing);
    let records = records_total as f64;
    put("vanet-trace.records_per_round", "count", per(records, traced_rounds as f64));
    put("vanet-trace.encode_ns_per_record", "ns", per(encode_ns, records));
    put("vanet-trace.decode_ns_per_record", "ns", per(decode_ns, records));
    put("vanet-trace.verify_ns_per_record", "ns", per(verify_ns, records));
    put("vanet-analysis.latency_ns_per_record", "ns", per(latency_ns, records));
    put("vanet-analysis.occupancy_ns_per_record", "ns", per(occupancy_ns, records));
    put("vanet-analysis.store_put_ns", "ns", per(store_ns, traced_rounds as f64));
    metrics
}

/// Adds `timing`'s deterministic counts into `total`.
fn accumulate_counts(total: &mut RoundTiming, timing: &RoundTiming) {
    total.times.absorb(&timing.times);
    total.frames_sent += timing.frames_sent;
    total.deliveries_ok += timing.deliveries_ok;
    total.lost_channel += timing.lost_channel;
    total.lost_collision += timing.lost_collision;
    total.csma_deferrals += timing.csma_deferrals;
    total.ap_retransmissions_queued += timing.ap_retransmissions_queued;
    total.strategy_decisions += timing.strategy_decisions;
    total.requests_sent += timing.requests_sent;
    total.coop_data_sent += timing.coop_data_sent;
}
