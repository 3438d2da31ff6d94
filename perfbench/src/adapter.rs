//! Rebuilt rounds under a timing adapter.
//!
//! A round is rebuilt from the stack's public parts (`ModelConfig`,
//! `VanetModel`, `AccessPointApp`, the mobility models, `Simulation`) the
//! same way `UrbanRun` and `GeneratedRun` build it, and the model is wrapped
//! in [`Timed`], a `sim_core::Model` adapter owned by the benchmark. The
//! adapter stamps `on_dispatch` and the end of `handle`, so each event's
//! host time is attributed to its [`VanetEvent`] kind, and the gap between
//! one handle's end and the next dispatch is the engine's dispatch time.
//! The rebuilt report must equal `ScenarioRun::run_round` bit for bit.

use std::time::Instant;

use carq::{CarqConfig, CarqNodeStats};
use rand::Rng as _;
use sim_core::{Model, Scheduler, SimDuration, SimTime, Simulation, StreamRng};
use vanet_dtn::{AccessPointApp, ApConfig, ApSchedulingPolicy};
use vanet_gen::Blueprint;
use vanet_geo::{
    kmh_to_ms, urban_testbed_block, urban_testbed_loop, PathMobility, PlatoonMobility,
};
use vanet_mac::NodeId;
use vanet_radio::{Building, DataRate, ObstacleMap};
use vanet_scenarios::model::VanetEvent;
use vanet_scenarios::urban::UrbanConfig;
use vanet_scenarios::{ModelConfig, VanetModel};
use vanet_stats::RoundReport;

use crate::alloc;

/// The event kinds host time is attributed to, in [`kind_index`] order.
pub const KINDS: [&str; 6] =
    ["car_start", "position_update", "ap_transmit", "car_transmit", "frame_delivery", "carq_timer"];

/// Index of `event`'s kind in [`KINDS`].
pub fn kind_index(event: &VanetEvent) -> usize {
    match event {
        VanetEvent::CarStart { .. } => 0,
        VanetEvent::PositionUpdate => 1,
        VanetEvent::ApTransmit { .. } => 2,
        VanetEvent::CarTransmit { .. } => 3,
        VanetEvent::FrameDelivery { .. } => 4,
        VanetEvent::CarqTimer { .. } => 5,
    }
}

/// Host time per event kind and in dispatch, accumulated by [`Timed`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventTimes {
    /// Nanoseconds from each dispatch to the end of its handler, per kind.
    pub kind_ns: [u64; 6],
    /// Events handled, per kind.
    pub kind_count: [u64; 6],
    /// Nanoseconds between one handler's end and the next dispatch (queue
    /// push of the scheduled events, pop of the next one).
    pub dispatch_ns: u64,
}

impl EventTimes {
    /// Total handler time over every kind.
    pub fn handle_ns(&self) -> u64 {
        self.kind_ns.iter().sum()
    }

    /// Total events handled.
    pub fn events(&self) -> u64 {
        self.kind_count.iter().sum()
    }

    /// Adds `other` into `self`.
    pub fn absorb(&mut self, other: &EventTimes) {
        for k in 0..KINDS.len() {
            self.kind_ns[k] += other.kind_ns[k];
            self.kind_count[k] += other.kind_count[k];
        }
        self.dispatch_ns += other.dispatch_ns;
    }
}

fn ns_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// The timing adapter around any model driven by [`VanetEvent`]s.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    last_end: Instant,
    dispatched_at: Instant,
    /// What the adapter measured so far.
    pub times: EventTimes,
}

impl<M> Timed<M> {
    /// Wraps `inner`; the first dispatch gap is measured from now.
    pub fn new(inner: M) -> Self {
        let now = Instant::now();
        Timed { inner, last_end: now, dispatched_at: now, times: EventTimes::default() }
    }

    /// Restarts the dispatch clock right before the run starts, and returns
    /// the start instant.
    pub fn start_clock(&mut self) -> Instant {
        self.last_end = Instant::now();
        self.last_end
    }

    /// The wrapped model.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Model<Event = VanetEvent>> Model for Timed<M> {
    type Event = VanetEvent;

    fn on_dispatch(&mut self, now: SimTime, queue_depth: usize) {
        let stamp = Instant::now();
        self.times.dispatch_ns += ns_between(self.last_end, stamp);
        self.dispatched_at = stamp;
        self.inner.on_dispatch(now, queue_depth);
    }

    fn handle(&mut self, now: SimTime, event: VanetEvent, scheduler: &mut Scheduler<VanetEvent>) {
        let kind = kind_index(&event);
        self.inner.handle(now, event, scheduler);
        let end = Instant::now();
        self.times.kind_ns[kind] += ns_between(self.dispatched_at, end);
        self.times.kind_count[kind] += 1;
        self.last_end = end;
    }

    fn on_finish(&mut self, now: SimTime) {
        self.inner.on_finish(now);
    }
}

/// What one rebuilt round measured besides its report.
#[derive(Debug, Clone, Default)]
pub struct RoundTiming {
    /// Host time building the model (nodes, mobility, medium) before the run.
    pub setup_ns: u64,
    /// Host time of `Simulation::run`.
    pub run_ns: u64,
    /// Per-kind and dispatch time inside the run.
    pub times: EventTimes,
    /// Radios on the medium (APs plus cars).
    pub nodes: u64,
    /// Frames put on the air.
    pub frames_sent: u64,
    /// Per-receiver successful deliveries.
    pub deliveries_ok: u64,
    /// Per-receiver channel losses.
    pub lost_channel: u64,
    /// Per-receiver collision losses.
    pub lost_collision: u64,
    /// Transmissions deferred by carrier sensing.
    pub csma_deferrals: u64,
    /// AP retransmissions queued after loss feedback.
    pub ap_retransmissions_queued: u64,
    /// Recovery-strategy loss decisions.
    pub strategy_decisions: u64,
    /// REQUESTs sent by the cars.
    pub requests_sent: u64,
    /// COOP-DATA frames sent by the cars.
    pub coop_data_sent: u64,
    /// Allocating calls during the run.
    pub run_allocs: u64,
    /// Allocating calls for the whole round, set-up included.
    pub round_allocs: u64,
}

/// Runs a built model through the adapter and assembles the report exactly
/// as the scenarios do.
fn run_model(
    model: VanetModel,
    horizon: SimTime,
    round: u32,
    seed: u64,
    started: Instant,
    allocs_at_start: u64,
) -> (RoundReport, RoundTiming) {
    let initial = model.initial_events();
    // One position update plus one start per car and one first transmission
    // per AP: every radio but the update contributes one initial event.
    let nodes = initial.len() as u64 - 1;
    let mut sim =
        Simulation::new(Timed::new(model)).with_horizon(horizon).with_event_budget(5_000_000);
    for (t, ev) in initial {
        sim.schedule_at(t, ev);
    }
    let setup_ns = ns_between(started, Instant::now());
    let run_allocs_before = alloc::calls();
    let run_started = sim.model_mut().start_clock();
    sim.run();
    let run_ns = ns_between(run_started, Instant::now());
    let run_allocs = alloc::calls() - run_allocs_before;
    let events = sim.processed_events();
    let timed = sim.into_model();
    let times = timed.times;
    let model = timed.into_inner();

    let node_stats = model.node_stats();
    let total =
        |f: fn(&CarqNodeStats) -> u64| -> u64 { node_stats.iter().map(|s| f(&s.stats)).sum() };
    let sum = |f: fn(&CarqNodeStats) -> u64| -> f64 {
        node_stats.iter().map(|s| f(&s.stats) as f64).sum()
    };
    let medium = model.medium_stats();
    let report = RoundReport::new(round, seed, model.round_result())
        .with_counter("requests_sent", sum(|s| s.requests_sent))
        .with_counter("coop_data_sent", sum(|s| s.coop_data_sent))
        .with_counter("recovered_via_coop", sum(|s| s.recovered_via_coop))
        .with_counter("responses_suppressed", sum(|s| s.responses_suppressed))
        .with_counter("medium_frames_sent", medium.frames_sent as f64)
        .with_counter("sim_events", events as f64)
        .with_counter("csma_deferrals", model.csma_deferrals() as f64)
        .with_counter(
            "arq_retransmissions",
            model.ap_retransmissions_queued() as f64 + sum(|s| s.coop_data_sent),
        )
        .with_counter("buffer_evictions", sum(|s| s.buffer_evictions))
        .with_counter("strategy_decisions", model.strategy_decisions() as f64);
    let timing = RoundTiming {
        setup_ns,
        run_ns,
        times,
        nodes,
        frames_sent: medium.frames_sent,
        deliveries_ok: medium.deliveries_ok,
        lost_channel: medium.deliveries_lost_channel,
        lost_collision: medium.deliveries_lost_collision,
        csma_deferrals: model.csma_deferrals(),
        ap_retransmissions_queued: model.ap_retransmissions_queued(),
        strategy_decisions: model.strategy_decisions(),
        requests_sent: total(|s| s.requests_sent),
        coop_data_sent: total(|s| s.coop_data_sent),
        run_allocs,
        round_allocs: alloc::calls() - allocs_at_start,
    };
    (report, timing)
}

/// Rebuilds one lap of the urban testbed at `config`, mirroring `UrbanRun`.
pub fn urban_round(config: &UrbanConfig, round: u32, seed: u64) -> (RoundReport, RoundTiming) {
    let allocs_at_start = alloc::calls();
    let started = Instant::now();
    let layout = urban_testbed_loop();
    let speed_ms = kmh_to_ms(config.speed_kmh);
    let (block_min, block_max) = urban_testbed_block();
    let obstacles = ObstacleMap::from_buildings(vec![Building::new(block_min, block_max, 30.0)]);
    let car_ids: Vec<NodeId> = (1..=config.n_cars as u32).map(NodeId::new).collect();
    let horizon = SimTime::from_secs_f64(layout.lap_length() / speed_ms * config.lap_fraction);

    let round_rng = StreamRng::derive(seed, "urban-round");
    let mut mobility_rng = round_rng.substream(1);
    let mut medium = config.medium.clone();
    medium.ap_vehicle.obstacles = obstacles.clone();
    medium.vehicle_vehicle.obstacles = obstacles;
    medium.ap_vehicle.shadowing_seed = round_rng.substream(2).gen::<u64>();
    medium.vehicle_vehicle.shadowing_seed = round_rng.substream(3).gen::<u64>();
    let model_config = ModelConfig {
        medium,
        data_rate: config.data_rate,
        carq: config.carq.clone(),
        position_update_interval: SimDuration::from_millis(100),
        seed: round_rng.substream(4).gen::<u64>(),
        cooperation_enabled: config.cooperation_enabled,
    };
    let mut model = VanetModel::new(model_config);
    let ap_config = ApConfig {
        cars: car_ids.clone(),
        packets_per_second_per_car: config.ap_rate_pps,
        payload_bytes: config.payload_bytes,
        policy: config.ap_policy,
    };
    model.add_access_point(NodeId::new(0), layout.access_points[0], AccessPointApp::new(ap_config));
    let platoon = PlatoonMobility::new(
        layout.path.clone(),
        speed_ms,
        &config.drivers[..config.n_cars],
        &mut mobility_rng,
    );
    for (i, id) in car_ids.iter().enumerate() {
        model.add_car(*id, platoon.member(i).clone());
    }
    run_model(model, horizon, round, seed, started, allocs_at_start)
}

/// The protocol configuration a generated world runs, mirroring
/// `GeneratedScenario::configure` at its defaults.
pub fn generated_carq(blueprint: &Blueprint) -> CarqConfig {
    let mut carq = CarqConfig::paper_prototype().with_ap_timeout(SimDuration::from_secs(3));
    carq.expected_payload_bytes = blueprint.payload_bytes;
    carq
}

/// Rebuilds one round of a generated world, mirroring `GeneratedRun`.
pub fn generated_round(blueprint: &Blueprint, round: u32, seed: u64) -> (RoundReport, RoundTiming) {
    let allocs_at_start = alloc::calls();
    let started = Instant::now();
    let round_rng = StreamRng::derive(seed, "gen-round");
    let mut medium = blueprint.medium.clone();
    medium.ap_vehicle.shadowing_seed = round_rng.substream(2).gen::<u64>();
    medium.vehicle_vehicle.shadowing_seed = round_rng.substream(3).gen::<u64>();
    let model_config = ModelConfig {
        medium,
        data_rate: DataRate::Mbps1,
        carq: generated_carq(blueprint),
        position_update_interval: SimDuration::from_millis(100),
        seed: round_rng.substream(4).gen::<u64>(),
        cooperation_enabled: true,
    };
    let mut model = VanetModel::new(model_config);
    let n_aps = blueprint.ap_positions.len() as u32;
    let car_ids: Vec<NodeId> =
        (0..blueprint.cars.len() as u32).map(|i| NodeId::new(n_aps + i)).collect();
    for (i, position) in blueprint.ap_positions.iter().enumerate() {
        let ap_config = ApConfig {
            cars: car_ids.clone(),
            packets_per_second_per_car: blueprint.ap_rate_pps,
            payload_bytes: blueprint.payload_bytes,
            policy: ApSchedulingPolicy::FreshDataOnly,
        };
        model.add_access_point(NodeId::new(i as u32), *position, AccessPointApp::new(ap_config));
    }
    for (plan, id) in blueprint.cars.iter().zip(&car_ids) {
        let mobility = PathMobility::new(plan.path.clone(), plan.speed_ms)
            .with_start_offset(plan.start_offset_m)
            .with_start_time(plan.start_time);
        model.add_car(*id, mobility);
    }
    run_model(model, blueprint.horizon, round, seed, started, allocs_at_start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vanet_scenarios::{round_seed, ScenarioRun, UrbanRun};

    fn short_lap() -> UrbanConfig {
        let mut config = UrbanConfig::paper_testbed().with_rounds(1).with_platoon_size(2);
        config.lap_fraction = 0.2;
        config
    }

    #[test]
    fn per_kind_times_sum_to_the_handle_time() {
        let config = short_lap();
        let (_, timing) = urban_round(&config, 0, round_seed(7, 0));
        let times = &timing.times;
        assert!(times.events() > 100, "the lap must dispatch events");
        let per_kind: u64 = times.kind_ns.iter().sum();
        assert_eq!(per_kind, times.handle_ns());
        // Handlers plus dispatch gaps cover the measured run, up to the
        // clock reads outside the adapter.
        let accounted = times.handle_ns() + times.dispatch_ns;
        assert!(accounted <= timing.run_ns, "{accounted} > {}", timing.run_ns);
        assert!(accounted as f64 >= 0.9 * timing.run_ns as f64, "{accounted} of {}", timing.run_ns);
    }

    #[test]
    fn rebuilt_urban_round_equals_run_round() {
        let config = short_lap();
        let seed = round_seed(11, 0);
        let (rebuilt, _) = urban_round(&config, 0, seed);
        let reference = UrbanRun::new(config).run_round(0, seed);
        assert_eq!(rebuilt.to_bytes(), reference.to_bytes());
    }

    #[test]
    fn timed_adapter_attributes_each_kind() {
        let config = short_lap();
        let (_, timing) = urban_round(&config, 0, round_seed(3, 0));
        let times = &timing.times;
        assert_eq!(times.events(), times.kind_count.iter().sum::<u64>());
        // The lap starts its cars, moves them and transmits.
        for kind in ["car_start", "position_update", "ap_transmit", "frame_delivery"] {
            let k = KINDS.iter().position(|n| *n == kind).unwrap();
            assert!(times.kind_count[k] > 0, "{kind} never ran");
        }
        assert_eq!(timing.nodes, 3);
    }
}
