//! The four workloads, each timed end to end with tracing off.
//!
//! * `paper_cold` — the `urban-platoon` preset planned into two shards, each
//!   executed against a fresh journal, merged, replayed by a final sweep
//!   pass and exported. The round hot path does most of the work.
//! * `paper_warm` — the same spec from shard journals that already hold
//!   every round: merge, replay, a final pass that simulates nothing, and
//!   the export. Only the cache, journal and export layers work.
//! * `highway_dense` — one generated `highway-flow` world at the schema's
//!   maximum car density (20 radios), swept without a cache. The medium's
//!   receiver loop and radio sampling dominate each event.
//! * `strategy_analysis` — the `strategy-compare` preset through the
//!   analysis engine with a fresh digest journal, then every round traced
//!   into one framed trace file, read back and checked by the trace
//!   invariant catalogue.
//!
//! Every iteration runs the whole workload from its start; set-up (scenario
//! configuration, world generation, planning, cache open) is timed as its
//! own phase. Each iteration's export is checked before the next starts.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use vanet_analysis::{AnalysisEngine, AnalysisResult, AnalysisStore, RoundDigest};
use vanet_cache::{merge_into, SweepCache};
use vanet_fleet::{execute_shard, ShardPlan};
use vanet_gen::{instantiate, GenValue, GeneratedScenario};
use vanet_scenarios::{round_seed, run_rounds, Scenario};
use vanet_sweep::{presets, Param, ParamValue, SweepEngine, SweepPoint, SweepSpec};
use vanet_trace::TraceFrame;

use crate::alloc;
use crate::stats::SpanLog;

/// The preset behind `paper_cold` and `paper_warm`.
pub const PAPER_PRESET: &str = "urban-platoon";
/// The preset behind `strategy_analysis`.
pub const STRATEGY_PRESET: &str = "strategy-compare";
/// Rounds per point of the paper workloads.
pub const PAPER_ROUNDS: u32 = 3;
/// Rounds per point of `strategy_analysis`: the rival strategies make a
/// round's event count swing with its seed, so each point averages three.
pub const STRATEGY_ROUNDS: u32 = 3;
/// Shards the paper workloads are planned into.
pub const SHARDS: usize = 2;
/// Rounds of the dense highway world per pass.
pub const HIGHWAY_ROUNDS: u32 = 3;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["paper_cold", "paper_warm", "highway_dense", "strategy_analysis"];

/// AP sending rate per car of the dense highway world. With 16 cars an AP
/// sends a 300-byte frame (2.88 ms at 1 Mbps) every 6.25 ms. The schema
/// allows up to 50 pps, but from about 21.7 pps an AP's frames overlap its
/// own previous frame, which `vanet_trace::verify` reports as `tx_overlap`;
/// at 20 pps the busy medium turns almost every event into a CSMA deferral.
/// At 10 pps the receiver loop of the transmissions dominates instead.
pub const DENSE_AP_RATE_PPS: f64 = 10.0;

/// The dense `highway-flow` request: the schema maximum of cars per
/// direction, both directions, the shortest headway, a high AP rate and a
/// roadside AP every 100 m of a 400 m segment — 16 cars and 4 APs.
pub fn dense_highway_params() -> Vec<(String, GenValue)> {
    vec![
        ("road_length_m".into(), GenValue::Float(400.0)),
        ("n_cars".into(), GenValue::Int(8)),
        ("bidirectional".into(), GenValue::Bool(true)),
        ("headway_m".into(), GenValue::Float(5.0)),
        ("ap_spacing_m".into(), GenValue::Float(100.0)),
        ("ap_rate_pps".into(), GenValue::Float(DENSE_AP_RATE_PPS)),
    ]
}

/// Generation seed of the dense highway world. The world is part of the
/// workload's definition, like a preset's points: the run's seed drives the
/// sweep and so every round seed, not the road layout, so runs with
/// different seeds simulate comparable amounts of work.
pub const DENSE_WORLD_SEED: u64 = 0x2008_1cdc;

/// Instantiates the dense highway world.
pub fn dense_highway() -> GeneratedScenario {
    instantiate("highway-flow", &dense_highway_params(), DENSE_WORLD_SEED)
        .expect("the dense highway request is schema-valid")
}

/// The sweep spec run over the dense highway world.
pub fn highway_spec(seed: u64) -> SweepSpec {
    SweepSpec::new(seed)
        .point(SweepPoint::new(vec![(Param::Rounds, ParamValue::Int(u64::from(HIGHWAY_ROUNDS)))]))
}

/// Builds a preset's scenario and spec at `rounds` rounds per point.
pub fn preset(name: &str, seed: u64, rounds: u32) -> (Box<dyn Scenario>, SweepSpec) {
    presets::find(name).expect("the preset is in the catalogue").build(seed, rounds)
}

/// The outcome checks of a run, counted against the operations attempted.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose check failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `what` describes a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            eprintln!("check failed: {line}");
            self.failures.push(line);
        }
    }
}

/// One timed pass over a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iteration {
    /// Host seconds before the first round is simulated or served.
    pub setup_s: f64,
    /// Host seconds from the start to the written export.
    pub export_s: f64,
    /// Highest live heap during the pass, in bytes.
    pub heap_peak_bytes: usize,
}

/// Counts of the rounds behind one export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Volume {
    /// Rounds behind the export, each counted once.
    pub rounds: u64,
    /// `sim-core` events those rounds took to simulate.
    pub events: u64,
}

/// Rounds simulated and served by the engines during one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundCounts {
    /// Rounds the engines simulated.
    pub simulated: u64,
    /// Rounds the engines served from a journal.
    pub cached: u64,
}

/// Removes and recreates `dir`.
pub fn fresh_dir(dir: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("the work directory is writable");
    dir.to_path_buf()
}

/// Sums rounds and `sim_events` over every report in the journal in `dir`.
pub fn journal_volume(dir: &Path) -> Volume {
    let cache = SweepCache::open_read_only(dir).expect("the journal is readable");
    let mut volume = Volume::default();
    for key in cache.keys() {
        let report = cache.get(&key).expect("listed keys resolve");
        volume.rounds += 1;
        volume.events += report.counter("sim_events").unwrap_or(0.0) as u64;
    }
    volume
}

/// A workload ready to iterate.
pub trait Workload {
    /// Runs one timed pass in `dir`, recording phases under `root`.
    fn iterate(
        &mut self,
        dir: &Path,
        spans: &mut SpanLog,
        root: usize,
        checks: &mut Checks,
    ) -> (Iteration, RoundCounts);

    /// The rounds and events behind one export, known after a first pass.
    fn volume(&self) -> Volume;

    /// Checks that run once after the timed passes.
    fn finish(&mut self, dir: &Path, checks: &mut Checks) {
        let _ = (dir, checks);
    }
}

/// Builds the workload `name` for `seed`, with its untimed preparation done
/// in `dir`.
pub fn build(name: &str, seed: u64, dir: &Path, checks: &mut Checks) -> Box<dyn Workload> {
    match name {
        "paper_cold" => Box::new(Paper::new(seed, false, dir, checks)),
        "paper_warm" => Box::new(Paper::new(seed, true, dir, checks)),
        "highway_dense" => Box::new(Highway::new(seed)),
        "strategy_analysis" => Box::new(StrategyAnalysis::new(seed)),
        other => panic!("unknown workload {other}"),
    }
}

/// The paper preset run as a sharded sweep.
struct Paper {
    seed: u64,
    /// The plain `SweepEngine` export every pass must reproduce.
    reference: String,
    /// Shard journals that already hold every round: `Some` makes the
    /// workload warm.
    prepared: Option<Vec<PathBuf>>,
    volume: Volume,
    last_dir: Option<PathBuf>,
}

/// What the sharded pipeline produced.
struct PipelineOutput {
    setup_s: f64,
    csv: String,
    counts: RoundCounts,
}

/// The shard journal directories of a pipeline run in `dir`.
fn shard_dirs(dir: &Path) -> Vec<PathBuf> {
    (0..SHARDS).map(|i| dir.join(format!("shard{i}"))).collect()
}

/// Plans the paper preset into shards, executes them into fresh journals
/// under `dir` unless `prepared` journals are given, merges, replays, runs
/// the final pass and writes the export.
fn paper_pipeline(
    seed: u64,
    dir: &Path,
    prepared: Option<&[PathBuf]>,
    spans: &mut SpanLog,
    root: usize,
) -> PipelineOutput {
    let setup = spans.open("setup", Some(root));
    let (scenario, spec) =
        spans.time("preset_build", Some(setup), || preset(PAPER_PRESET, seed, PAPER_ROUNDS));
    let plan = spans.time("shard_plan", Some(setup), || {
        ShardPlan::for_preset(PAPER_PRESET, seed, PAPER_ROUNDS, SHARDS, None)
            .expect("the preset plans")
    });
    spans.time("sweep_plan", Some(setup), || {
        vanet_sweep::plan(scenario.as_ref(), &spec, false).expect("the preset points are valid")
    });
    let merged_dir = dir.join("merged");
    let dest = spans.time("cache_open", Some(setup), || {
        SweepCache::open(&merged_dir).expect("the merged cache opens")
    });
    let setup_s = spans.close(setup);

    let mut counts = RoundCounts::default();
    let sources = match prepared {
        Some(journals) => journals.to_vec(),
        None => {
            let dirs = shard_dirs(dir);
            for (shard, shard_dir) in plan.shards.iter().zip(&dirs) {
                let outcome = spans.time("execute_shard", Some(root), || {
                    execute_shard(shard, shard_dir, 1).expect("the shard executes")
                });
                counts.simulated += outcome.rounds_simulated as u64;
                counts.cached += outcome.rounds_cached as u64;
            }
            dirs
        }
    };
    spans.time("merge", Some(root), || merge_into(&dest, &sources).expect("the journals merge"));
    drop(dest);
    let cache = spans.time("cache_replay", Some(root), || {
        Arc::new(SweepCache::open(&merged_dir).expect("the merged cache reopens"))
    });
    let result = spans.time("final_pass", Some(root), || {
        SweepEngine::new(1)
            .with_cache(cache)
            .run(scenario.as_ref(), &spec)
            .expect("the final pass runs")
    });
    counts.simulated += result.rounds_simulated as u64;
    counts.cached += result.rounds_cached as u64;
    let csv = spans.time("export", Some(root), || {
        let csv = result.to_csv();
        std::fs::write(dir.join("export.csv"), &csv).expect("the export is writable");
        csv
    });
    PipelineOutput { setup_s, csv, counts }
}

impl Paper {
    fn new(seed: u64, warm: bool, dir: &Path, checks: &mut Checks) -> Self {
        let (scenario, spec) = preset(PAPER_PRESET, seed, PAPER_ROUNDS);
        let reference =
            SweepEngine::new(1).run(scenario.as_ref(), &spec).expect("the preset sweeps").to_csv();
        let mut paper =
            Paper { seed, reference, prepared: None, volume: Volume::default(), last_dir: None };
        if warm {
            // The warm journals are produced by the cold path, outside the
            // timed region; its export must already match the reference.
            let prep = fresh_dir(&dir.join("prepared"));
            let mut spans = SpanLog::default();
            let root = spans.open("prepare", None);
            let output = paper_pipeline(seed, &prep, None, &mut spans, root);
            checks.check(output.csv == paper.reference, || {
                "paper_warm: the cold export that prepared the journals differs from the plain \
                 sweep export"
                    .into()
            });
            paper.volume = journal_volume(&prep.join("merged"));
            paper.prepared = Some(shard_dirs(&prep));
        }
        paper
    }

    fn name(&self) -> &'static str {
        if self.prepared.is_some() {
            "paper_warm"
        } else {
            "paper_cold"
        }
    }
}

impl Workload for Paper {
    fn iterate(
        &mut self,
        dir: &Path,
        spans: &mut SpanLog,
        root: usize,
        checks: &mut Checks,
    ) -> (Iteration, RoundCounts) {
        let started = Instant::now();
        alloc::reset_peak();
        let output = paper_pipeline(self.seed, dir, self.prepared.as_deref(), spans, root);
        let export_s = started.elapsed().as_secs_f64();
        let heap_peak_bytes = alloc::peak_bytes();
        let name = self.name();
        checks.check(output.csv == self.reference, || {
            format!("{name}: the export differs from the plain sweep export")
        });
        if self.prepared.is_some() {
            checks.check(output.counts.simulated == 0, || {
                format!("paper_warm: simulated {} round(s), expected 0", output.counts.simulated)
            });
        } else if self.volume.rounds == 0 {
            self.volume = journal_volume(&dir.join("merged"));
        }
        self.last_dir = Some(dir.to_path_buf());
        (Iteration { setup_s: output.setup_s, export_s, heap_peak_bytes }, output.counts)
    }

    fn volume(&self) -> Volume {
        self.volume
    }

    fn finish(&mut self, dir: &Path, checks: &mut Checks) {
        // Cold must also agree with a warm pass over its own journals.
        let (None, Some(last)) = (&self.prepared, &self.last_dir) else { return };
        let mut spans = SpanLog::default();
        let root = spans.open("warm_check", None);
        let check_dir = fresh_dir(&dir.join("warm-check"));
        let output =
            paper_pipeline(self.seed, &check_dir, Some(&shard_dirs(last)), &mut spans, root);
        checks.check(output.csv == self.reference && output.counts.simulated == 0, || {
            "paper_cold: a warm pass over the cold journals differs from the cold export".into()
        });
    }
}

/// The dense generated highway world, swept without a cache.
struct Highway {
    seed: u64,
    first_csv: Option<String>,
    last_summary: Option<vanet_stats::PointSummary>,
    volume: Volume,
}

impl Highway {
    fn new(seed: u64) -> Self {
        Highway { seed, first_csv: None, last_summary: None, volume: Volume::default() }
    }
}

impl Workload for Highway {
    fn iterate(
        &mut self,
        dir: &Path,
        spans: &mut SpanLog,
        root: usize,
        checks: &mut Checks,
    ) -> (Iteration, RoundCounts) {
        let started = Instant::now();
        alloc::reset_peak();
        let setup = spans.open("setup", Some(root));
        let scenario = spans.time("instantiate", Some(setup), dense_highway);
        let spec = highway_spec(self.seed);
        spans.time("sweep_plan", Some(setup), || {
            vanet_sweep::plan(&scenario, &spec, false).expect("the highway point is valid")
        });
        let setup_s = spans.close(setup);
        let result = spans.time("sweep", Some(root), || {
            SweepEngine::new(1).run(&scenario, &spec).expect("the highway sweep runs")
        });
        let csv = spans.time("export", Some(root), || {
            let csv = result.to_csv();
            std::fs::write(dir.join("export.csv"), &csv).expect("the export is writable");
            csv
        });
        let export_s = started.elapsed().as_secs_f64();
        let heap_peak_bytes = alloc::peak_bytes();
        let first = self.first_csv.get_or_insert_with(|| csv.clone());
        checks.check(*first == csv && result.rounds_simulated == HIGHWAY_ROUNDS as usize, || {
            "highway_dense: the export changed between identical passes".into()
        });
        self.last_summary = result.summaries.first().cloned();
        let counts = RoundCounts {
            simulated: result.rounds_simulated as u64,
            cached: result.rounds_cached as u64,
        };
        (Iteration { setup_s, export_s, heap_peak_bytes }, counts)
    }

    fn volume(&self) -> Volume {
        self.volume
    }

    fn finish(&mut self, _dir: &Path, checks: &mut Checks) {
        // Re-run the rounds directly: the sweep's row must be their
        // aggregate, and their reports carry the event count.
        let scenario = dense_highway();
        let plan = vanet_sweep::plan(&scenario, &highway_spec(self.seed), false)
            .expect("the highway point is valid");
        let run = plan.runs[0].as_ref();
        let reports = run_rounds(run, plan.seeds[0], 1);
        self.volume = Volume {
            rounds: reports.len() as u64,
            events: reports.iter().map(|r| r.counter("sim_events").unwrap_or(0.0) as u64).sum(),
        };
        checks.check(self.last_summary.as_ref() == Some(&run.aggregate(&reports)), || {
            "highway_dense: the exported row is not the aggregate of its rounds".into()
        });
    }
}

/// The strategy comparison through the analysis engine plus trace checks.
struct StrategyAnalysis {
    seed: u64,
    first_export: Option<String>,
    volume: Volume,
}

impl StrategyAnalysis {
    fn new(seed: u64) -> Self {
        StrategyAnalysis { seed, first_export: None, volume: Volume::default() }
    }
}

/// Renders both analysis tables, latency then occupancy, as one export
/// (`carq-cli analyze` writes one table per invocation).
fn analysis_export(result: &AnalysisResult) -> String {
    format!("{}\n{}", result.latency_table().to_csv(), result.occupancy_table().to_csv())
}

impl Workload for StrategyAnalysis {
    fn iterate(
        &mut self,
        dir: &Path,
        spans: &mut SpanLog,
        root: usize,
        checks: &mut Checks,
    ) -> (Iteration, RoundCounts) {
        let started = Instant::now();
        alloc::reset_peak();
        let setup = spans.open("setup", Some(root));
        let (scenario, spec) = spans.time("preset_build", Some(setup), || {
            preset(STRATEGY_PRESET, self.seed, STRATEGY_ROUNDS)
        });
        let plan = spans.time("sweep_plan", Some(setup), || {
            vanet_sweep::plan(scenario.as_ref(), &spec, false).expect("the preset points are valid")
        });
        let store = spans.time("store_open", Some(setup), || {
            AnalysisStore::open(dir.join("analysis")).expect("the digest journal opens")
        });
        let setup_s = spans.close(setup);
        let result = spans.time("analysis", Some(root), || {
            AnalysisEngine::new(1)
                .with_store(Arc::new(Mutex::new(store)))
                .run(scenario.as_ref(), &spec)
                .expect("the analysis runs")
        });
        // `carq-cli trace` of every round into one framed file, then
        // `carq-cli verify` of that file: the invariant catalogue over every
        // frame, and each frame's digest against the stored one.
        let verify = spans.open("trace_verify", Some(root));
        let mut volume = Volume::default();
        let mut frames = Vec::new();
        for (index, run) in plan.runs.iter().enumerate() {
            for round in 0..run.rounds() {
                let seed = round_seed(plan.seeds[index], round);
                let (report, records) = run.run_round_traced(round, seed);
                frames.push((index, TraceFrame { round, seed, records }));
                volume.rounds += 1;
                volume.events += report.counter("sim_events").unwrap_or(0.0) as u64;
            }
        }
        let trace_file = dir.join("trace.carqtrm");
        let (points, frames): (Vec<usize>, Vec<TraceFrame>) = frames.into_iter().unzip();
        std::fs::write(&trace_file, vanet_trace::encode_frames(&frames))
            .expect("the trace is writable");
        drop(frames);
        let bytes = std::fs::read(&trace_file).expect("the trace is readable");
        let decoded = vanet_trace::decode_any(&bytes).expect("the trace decodes");
        let mut clean = decoded.len() == points.len();
        let mut digests_match = true;
        for (frame, index) in decoded.iter().zip(&points) {
            clean &= vanet_trace::verify(&frame.records).is_ok();
            digests_match &= result.analyses[*index].get(frame.round as usize)
                == Some(&RoundDigest::compute(frame.round, frame.seed, &frame.records));
        }
        spans.close(verify);
        let export = spans.time("export", Some(root), || {
            let export = analysis_export(&result);
            std::fs::write(dir.join("analysis.csv"), &export).expect("the export is writable");
            export
        });
        let export_s = started.elapsed().as_secs_f64();
        let heap_peak_bytes = alloc::peak_bytes();
        checks.check(clean, || "strategy_analysis: the invariant report has violations".into());
        checks.check(digests_match, || {
            "strategy_analysis: a stored digest differs from the re-traced round".into()
        });
        let first = self.first_export.get_or_insert_with(|| export.clone());
        checks.check(*first == export && result.rounds_simulated as u64 == volume.rounds, || {
            "strategy_analysis: the export changed between identical passes".into()
        });
        self.volume = volume;
        let counts = RoundCounts {
            simulated: result.rounds_simulated as u64,
            cached: result.rounds_cached as u64,
        };
        (Iteration { setup_s, export_s, heap_peak_bytes }, counts)
    }

    fn volume(&self) -> Volume {
        self.volume
    }
}
