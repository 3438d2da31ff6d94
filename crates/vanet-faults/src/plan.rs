//! Seeded fault plans and their canonical `VANETFLT1` text encoding.
//!
//! A [`FaultPlan`] is an *identity*, with the same discipline as
//! `VANETGEN1` scenario files: the plan is fully determined by its fault
//! seed (plus the worker count and round hint it was generated for), the
//! encoding is canonical (one byte sequence per plan), and `decode` rejects
//! anything it would not itself have written — duplicate headers, unknown
//! keys, out-of-order sections — with 1-based line numbers.

use std::fmt;

use sim_core::splitmix64;

/// Magic first line of a fault-plan file.
pub const FAULT_MAGIC: &str = "VANETFLT1";

/// How long an injected stall sleeps. Deliberately far beyond any sane
/// `--worker-timeout`: a stalled worker must look exactly like the real
/// failure mode — alive, but never making progress again.
pub const STALL_MS: u64 = 3_600_000;

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Exit the worker process (exit code [`crate::CHAOS_EXIT`]) just
    /// before it simulates its `round`-th fresh round (0-based, counted
    /// per process — cached rounds don't count).
    KillAtRound {
        /// Which fresh-round start triggers the kill.
        round: u64,
    },
    /// Stop making progress before the `round`-th fresh round but stay
    /// alive (sleep [`STALL_MS`]) — the failure mode only hang detection
    /// catches.
    Stall {
        /// Which fresh-round start triggers the stall.
        round: u64,
    },
    /// Write only the first `keep` bytes of the `append`-th journal record
    /// (0-based, counted per process across all journals), then die — a
    /// kill mid-`write(2)`.
    TornAppend {
        /// Which journal append is torn.
        append: u64,
        /// How many bytes of the record land on disk.
        keep: u32,
    },
    /// Flip a bit in the `append`-th journal record before it is written —
    /// silent on-disk corruption the checksum must catch on replay.
    CorruptRecord {
        /// Which journal append is corrupted.
        append: u64,
    },
    /// Fail the `append`-th journal append with an I/O error (the worker
    /// surfaces it and exits; a retry does not hit it again).
    IoError {
        /// Which journal append fails.
        append: u64,
    },
    /// Delay the `append`-th journal append by `ms` milliseconds — a disk
    /// hiccup that must change nothing but wall-clock.
    SlowDisk {
        /// Which journal append is delayed.
        append: u64,
        /// Delay in milliseconds.
        ms: u64,
    },
}

impl FaultKind {
    /// The canonical kind name used in the `VANETFLT1` encoding.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::KillAtRound { .. } => "kill-at-round",
            FaultKind::Stall { .. } => "stall",
            FaultKind::TornAppend { .. } => "torn-append",
            FaultKind::CorruptRecord { .. } => "corrupt-record",
            FaultKind::IoError { .. } => "io-error",
            FaultKind::SlowDisk { .. } => "slow-disk",
        }
    }
}

/// One fault, targeted at a worker index and (optionally) a single spawn
/// attempt. `attempt: None` (`attempt=*` in the encoding) fires on *every*
/// attempt — the recipe for a poison shard that must end in quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// The worker (shard) index the fault targets.
    pub worker: u32,
    /// The spawn attempt it fires on (0 = first spawn), or `None` for all.
    pub attempt: Option<u32>,
    /// What happens.
    pub kind: FaultKind,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker={};attempt=", self.worker)?;
        match self.attempt {
            Some(a) => write!(f, "{a}")?,
            None => write!(f, "*")?,
        }
        write!(f, ";kind={}", self.kind.name())?;
        match self.kind {
            FaultKind::KillAtRound { round } | FaultKind::Stall { round } => {
                write!(f, ";round={round}")
            }
            FaultKind::TornAppend { append, keep } => write!(f, ";append={append};keep={keep}"),
            FaultKind::CorruptRecord { append } | FaultKind::IoError { append } => {
                write!(f, ";append={append}")
            }
            FaultKind::SlowDisk { append, ms } => write!(f, ";append={append};ms={ms}"),
        }
    }
}

/// A deterministic fault schedule for one fleet/campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the schedule was drawn from (identity, not entropy).
    pub fault_seed: u64,
    /// The worker count the schedule was generated for.
    pub workers: u32,
    /// The faults, in generation order.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (nothing armed).
    pub fn empty(fault_seed: u64, workers: u32) -> FaultPlan {
        FaultPlan { fault_seed, workers, faults: Vec::new() }
    }

    /// Draws a randomized-but-deterministic schedule: the same
    /// `(fault_seed, workers, rounds_hint)` always yields the same plan.
    ///
    /// Coverage is guaranteed, not left to chance: the first three faults
    /// are always one kill, one stall and one torn append (spread
    /// round-robin over the workers — the catalogue entries the chaos
    /// acceptance test must see), and each worker then draws one more
    /// fault from the rest of the catalogue, including a *second-attempt*
    /// kill so retries are proven against repeat offenders. Every
    /// generated fault targets attempt 0 or 1, so any `--max-retries >= 2`
    /// run converges.
    ///
    /// `rounds_hint` is the expected fresh-round count per worker; trigger
    /// indices are drawn below it so faults actually fire.
    pub fn generate(fault_seed: u64, workers: u32, rounds_hint: u64) -> FaultPlan {
        let workers = workers.max(1);
        let hint = rounds_hint.max(1);
        let mut state = fault_seed ^ 0x464C_5431_u64; // "FLT1"
        let mut below = |n: u64| splitmix64(&mut state) % n.max(1);
        let mut faults = vec![
            FaultSpec {
                worker: 0,
                attempt: Some(0),
                kind: FaultKind::KillAtRound { round: below(hint) },
            },
            FaultSpec {
                worker: 1 % workers,
                attempt: Some(0),
                kind: FaultKind::Stall { round: below(hint) },
            },
            FaultSpec {
                worker: 2 % workers,
                attempt: Some(0),
                kind: FaultKind::TornAppend { append: below(hint), keep: 17 + below(16) as u32 },
            },
        ];
        for worker in 0..workers {
            let kind = match below(4) {
                0 => FaultKind::CorruptRecord { append: below(hint) },
                1 => FaultKind::IoError { append: below(hint) },
                2 => FaultKind::SlowDisk { append: below(hint), ms: 5 + below(20) },
                _ => FaultKind::KillAtRound { round: below(hint) },
            };
            let attempt = if matches!(kind, FaultKind::KillAtRound { .. }) { 1 } else { 0 };
            faults.push(FaultSpec { worker, attempt: Some(attempt), kind });
        }
        FaultPlan { fault_seed, workers, faults }
    }

    /// Adds a poison fault: `worker` is killed instantly on **every**
    /// attempt, so its shard can only end in quarantine.
    pub fn with_poisoned_worker(mut self, worker: u32) -> FaultPlan {
        self.faults.push(FaultSpec {
            worker,
            attempt: None,
            kind: FaultKind::KillAtRound { round: 0 },
        });
        self
    }

    /// The faults that fire for one `(worker, attempt)` spawn.
    pub fn for_spawn(&self, worker: u32, attempt: u32) -> Vec<FaultSpec> {
        self.faults
            .iter()
            .filter(|f| f.worker == worker && f.attempt.is_none_or(|a| a == attempt))
            .copied()
            .collect()
    }

    /// Renders the canonical `VANETFLT1` encoding.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "{FAULT_MAGIC}\nfault_seed={:#018x}\nworkers={}\n",
            self.fault_seed, self.workers
        );
        for fault in &self.faults {
            out.push_str(&format!("fault={fault}\n"));
        }
        out
    }

    /// Parses a `VANETFLT1` file. Strict by design: a plan is an identity,
    /// so anything `encode` would not produce is rejected with its 1-based
    /// line number.
    pub fn decode(text: &str) -> Result<FaultPlan, String> {
        let parse_error = |line: usize, message: String| format!("line {}: {message}", line + 1);
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let Some((line, magic)) = lines.next() else {
            return Err("empty fault plan".to_string());
        };
        if magic.trim() != FAULT_MAGIC {
            return Err(parse_error(line, format!("expected magic `{FAULT_MAGIC}`")));
        }
        let mut fault_seed: Option<u64> = None;
        let mut workers: Option<u32> = None;
        let mut faults = Vec::new();
        for (line, raw) in lines {
            let raw = raw.trim();
            let Some((key, value)) = raw.split_once('=') else {
                return Err(parse_error(line, format!("expected key=value, got `{raw}`")));
            };
            match key {
                "fault_seed" => {
                    if fault_seed.is_some() {
                        return Err(parse_error(line, "duplicate `fault_seed` header".into()));
                    }
                    let hex = value.strip_prefix("0x").ok_or_else(|| {
                        parse_error(line, "fault_seed must be 0x-prefixed hex".to_string())
                    })?;
                    fault_seed = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| parse_error(line, format!("bad fault_seed `{value}`")))?,
                    );
                }
                "workers" => {
                    if workers.is_some() {
                        return Err(parse_error(line, "duplicate `workers` header".into()));
                    }
                    workers =
                        Some(value.parse().map_err(|_| {
                            parse_error(line, format!("bad worker count `{value}`"))
                        })?);
                }
                "fault" => {
                    if fault_seed.is_none() || workers.is_none() {
                        return Err(parse_error(
                            line,
                            "`fault` lines must follow the `fault_seed` and `workers` headers"
                                .into(),
                        ));
                    }
                    faults.push(parse_fault(value).map_err(|message| parse_error(line, message))?);
                }
                other => return Err(parse_error(line, format!("unknown header `{other}`"))),
            }
        }
        let fault_seed = fault_seed.ok_or_else(|| "missing `fault_seed` header".to_string())?;
        let workers = workers.ok_or_else(|| "missing `workers` header".to_string())?;
        Ok(FaultPlan { fault_seed, workers, faults })
    }
}

/// Parses one `worker=W;attempt=A;kind=K;...` fault body.
fn parse_fault(body: &str) -> Result<FaultSpec, String> {
    let mut pairs = Vec::new();
    for item in body.split(';') {
        let Some((k, v)) = item.split_once('=') else {
            return Err(format!("expected key=value in fault, got `{item}`"));
        };
        if pairs.iter().any(|(name, _)| *name == k) {
            return Err(format!("duplicate fault field `{k}`"));
        }
        pairs.push((k, v));
    }
    let field = |name: &str| -> Result<&str, String> {
        pairs
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("fault is missing `{name}`"))
    };
    let number = |name: &str| -> Result<u64, String> {
        field(name)?.parse().map_err(|_| format!("bad `{name}` in fault"))
    };
    let worker: u32 = field("worker")?.parse().map_err(|_| "bad `worker` in fault".to_string())?;
    let attempt = match field("attempt")? {
        "*" => None,
        raw => Some(raw.parse::<u32>().map_err(|_| "bad `attempt` in fault".to_string())?),
    };
    let kind_name = field("kind")?;
    let (kind, used) = match kind_name {
        "kill-at-round" => (FaultKind::KillAtRound { round: number("round")? }, vec!["round"]),
        "stall" => (FaultKind::Stall { round: number("round")? }, vec!["round"]),
        "torn-append" => (
            FaultKind::TornAppend { append: number("append")?, keep: number("keep")? as u32 },
            vec!["append", "keep"],
        ),
        "corrupt-record" => {
            (FaultKind::CorruptRecord { append: number("append")? }, vec!["append"])
        }
        "io-error" => (FaultKind::IoError { append: number("append")? }, vec!["append"]),
        "slow-disk" => (
            FaultKind::SlowDisk { append: number("append")?, ms: number("ms")? },
            vec!["append", "ms"],
        ),
        other => return Err(format!("unknown fault kind `{other}`")),
    };
    for (k, _) in &pairs {
        if !["worker", "attempt", "kind"].contains(k) && !used.contains(k) {
            return Err(format!("unknown fault field `{k}` for kind `{kind_name}`"));
        }
    }
    Ok(FaultSpec { worker, attempt, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_covers_the_headline_faults() {
        let a = FaultPlan::generate(0x5EED, 3, 8);
        let b = FaultPlan::generate(0x5EED, 3, 8);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::generate(0x5EEE, 3, 8), "seed changes the plan");
        let kinds: Vec<&str> = a.faults.iter().map(|f| f.kind.name()).collect();
        assert!(kinds.contains(&"kill-at-round"));
        assert!(kinds.contains(&"stall"));
        assert!(kinds.contains(&"torn-append"));
        // Convergence: nothing fires beyond attempt 1.
        assert!(a.faults.iter().all(|f| f.attempt.is_some_and(|n| n <= 1)));
    }

    #[test]
    fn encode_decode_round_trips_every_kind() {
        let mut plan = FaultPlan::generate(0xA11, 4, 10).with_poisoned_worker(2);
        plan.faults.push(FaultSpec {
            worker: 0,
            attempt: Some(0),
            kind: FaultKind::CorruptRecord { append: 3 },
        });
        plan.faults.push(FaultSpec {
            worker: 1,
            attempt: Some(0),
            kind: FaultKind::IoError { append: 1 },
        });
        plan.faults.push(FaultSpec {
            worker: 1,
            attempt: Some(0),
            kind: FaultKind::SlowDisk { append: 0, ms: 9 },
        });
        let text = plan.encode();
        let decoded = FaultPlan::decode(&text).unwrap();
        assert_eq!(decoded, plan);
        assert_eq!(decoded.encode(), text, "canonical: encode(decode(x)) == x");
    }

    #[test]
    fn spawn_filtering_honours_worker_attempt_and_wildcard() {
        let plan = FaultPlan::empty(1, 3).with_poisoned_worker(1);
        assert!(plan.for_spawn(0, 0).is_empty());
        assert_eq!(plan.for_spawn(1, 0).len(), 1);
        assert_eq!(plan.for_spawn(1, 7).len(), 1, "attempt=* fires on every attempt");
        let plan = FaultPlan {
            fault_seed: 0,
            workers: 2,
            faults: vec![FaultSpec {
                worker: 0,
                attempt: Some(1),
                kind: FaultKind::KillAtRound { round: 2 },
            }],
        };
        assert!(plan.for_spawn(0, 0).is_empty());
        assert_eq!(plan.for_spawn(0, 1).len(), 1);
    }

    #[test]
    fn decode_rejects_malformed_plans_with_line_numbers() {
        let cases: &[(&str, &str)] = &[
            ("", "empty fault plan"),
            ("NOPE", "expected magic"),
            ("VANETFLT1\nfault_seed=123\nworkers=1\n", "0x-prefixed"),
            ("VANETFLT1\nfault_seed=0x1\nfault_seed=0x2\nworkers=1\n", "duplicate `fault_seed`"),
            ("VANETFLT1\nfault=worker=0;attempt=0;kind=stall;round=1\n", "must follow"),
            ("VANETFLT1\nfault_seed=0x1\nworkers=1\nbogus=1\n", "unknown header"),
            ("VANETFLT1\nfault_seed=0x1\nworkers=1\nfault=worker=0;attempt=0;kind=nope;x=1\n", "unknown fault kind"),
            (
                "VANETFLT1\nfault_seed=0x1\nworkers=1\nfault=worker=0;attempt=0;kind=stall;round=1;ms=2\n",
                "unknown fault field `ms`",
            ),
            ("VANETFLT1\nfault_seed=0x1\nworkers=1\nfault=worker=0;attempt=0;kind=stall\n", "missing `round`"),
            ("VANETFLT1\nfault_seed=0x1\n", "missing `workers`"),
        ];
        for (text, needle) in cases {
            let err = FaultPlan::decode(text).unwrap_err();
            assert!(err.contains(needle), "`{text}` -> `{err}` (wanted `{needle}`)");
        }
    }
}
