//! The metric catalogue `BENCHMARK.json` mirrors: every end-to-end metric
//! with its unit, direction and regression bound, and every per-layer metric
//! with its unit and direction. The runner refuses to print a metric that is
//! not listed here, and a test keeps this list and `BENCHMARK.json` in step.

/// An end-to-end metric: `(name, unit, better, bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 5] = [
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("time_to_export_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("heap_peak_mb", "MB", "lower", 0.2),
];

/// The per-layer metrics, measured by the traced run.
pub const PER_LAYER: [PerLayer; 50] = [
    ("sim-core.events_per_round", "count", "lower"),
    ("sim-core.dispatch_ns_per_event", "ns", "lower"),
    ("vanet-geo.position_update_ns", "ns", "lower"),
    ("vanet-geo.position_updates", "count", "lower"),
    ("vanet-mac.ap_transmit_ns", "ns", "lower"),
    ("vanet-mac.car_transmit_ns", "ns", "lower"),
    ("vanet-mac.frames_sent", "count", "lower"),
    ("vanet-mac.deliveries_ok", "count", "higher"),
    ("vanet-mac.lost_channel", "count", "lower"),
    ("vanet-mac.lost_collision", "count", "lower"),
    ("vanet-mac.csma_deferrals", "count", "lower"),
    ("vanet-mac.receiver_visits", "count", "lower"),
    ("vanet-mac.ns_per_receiver_visit", "ns", "lower"),
    ("vanet-mac.useful_visit_ratio", "ratio", "higher"),
    ("carq.delivery_ns", "ns", "lower"),
    ("carq.requests_sent", "count", "lower"),
    ("carq.coop_data_sent", "count", "lower"),
    ("carq.strategy_decisions", "count", "lower"),
    ("vanet-dtn.ap_retransmissions_queued", "count", "lower"),
    ("vanet-scenarios.configure_ms", "ms", "lower"),
    ("vanet-scenarios.round_setup_ns", "ns", "lower"),
    ("vanet-gen.instantiate_ms", "ms", "lower"),
    ("vanet-fleet.plan_ms", "ms", "lower"),
    ("vanet-fleet.execute_shard_ms", "ms", "lower"),
    ("vanet-cache.put_ns", "ns", "lower"),
    ("vanet-cache.journal_bytes", "bytes", "lower"),
    ("vanet-cache.open_ms", "ms", "lower"),
    ("vanet-cache.get_ns", "ns", "lower"),
    ("vanet-cache.merge_ms", "ms", "lower"),
    ("vanet-cache.hit_ratio", "ratio", "higher"),
    ("vanet-stats.encode_ns_per_report", "ns", "lower"),
    ("vanet-stats.decode_ns_per_report", "ns", "lower"),
    ("vanet-stats.aggregate_ms", "ms", "lower"),
    ("vanet-stats.export_ms", "ms", "lower"),
    ("vanet-sweep.rounds_simulated", "count", "lower"),
    ("vanet-sweep.rounds_cached", "count", "higher"),
    ("vanet-sweep.final_pass_ms", "ms", "lower"),
    ("vanet-trace.records_per_round", "count", "lower"),
    ("vanet-trace.encode_ns_per_record", "ns", "lower"),
    ("vanet-trace.decode_ns_per_record", "ns", "lower"),
    ("vanet-trace.verify_ns_per_record", "ns", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("vanet-analysis.latency_ns_per_record", "ns", "lower"),
    ("vanet-analysis.occupancy_ns_per_record", "ns", "lower"),
    ("vanet-analysis.store_put_ns", "ns", "lower"),
    ("alloc.per_round", "count", "lower"),
    ("alloc.per_event", "count", "lower"),
    ("round.host_ms_p50", "ms", "lower"),
    ("round.host_ms_p90", "ms", "lower"),
    ("round.samples", "count", "higher"),
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// Whether `name` starts with a letter or digit and uses at most 64
    /// letters, digits, `_`, `.` and `-`.
    fn valid_name(name: &str) -> bool {
        name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn all_names() -> Vec<&'static str> {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(WORKLOADS);
        names
    }

    #[test]
    fn names_use_only_the_allowed_characters() {
        for name in all_names() {
            assert!(valid_name(name), "invalid name {name}");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn names_are_unique() {
        let names = all_names();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }

    #[test]
    fn bounds_stay_within_the_contract() {
        for (name, unit, better, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
            assert!(matches!(better, "higher" | "lower"), "{name}");
            assert!(!unit.is_empty());
        }
        let setup = END_TO_END.iter().find(|m| m.0 == "setup_s").expect("setup_s is listed");
        assert_eq!((setup.1, setup.2), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.3 <= setup.3), "setup_s has the largest bound");
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics and workloads
    /// with the same units.
    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        let compact: String = json.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit, better, bound) in END_TO_END {
            let entry = format!(
                "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, unit, better) in PER_LAYER {
            let entry =
                format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in WORKLOADS {
            assert!(compact.contains(&format!("{{\"name\":\"{workload}\"")), "{workload}");
        }
        let listed = compact.matches("{\"name\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
