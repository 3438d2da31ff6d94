//! Deterministic fault injection for the C-ARQ reproduction's distributed
//! layer.
//!
//! The paper's protocol exists because vehicular links fail constantly;
//! this crate holds the fleet to the same standard. A [`FaultPlan`] is a
//! seeded, canonical (`VANETFLT1`) schedule of injectable failures —
//! worker kills, stalls, torn journal appends, checksum-corrupting bit
//! rot, transient I/O errors and slow-disk delays — and the process-global
//! injector fires them at two seams: the round executor
//! ([`round_start`]/[`round_done`]) and the journal append path
//! ([`before_append`]). Disarmed (every production run) each hook costs
//! one relaxed atomic load, allocation-free — the bench gate proves it.
//!
//! ```
//! use vanet_faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::generate(0x5EED, 3, 8);
//! let decoded = FaultPlan::decode(&plan.encode()).unwrap();
//! assert_eq!(decoded, plan, "a fault plan is an identity, not a snapshot");
//! assert!(plan.faults.iter().any(|f| matches!(f.kind, FaultKind::KillAtRound { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod inject;
mod plan;

pub use inject::{
    arm, before_append, is_armed, progress, round_done, round_start, AppendAction, CHAOS_EXIT,
};
pub use plan::{FaultKind, FaultPlan, FaultSpec, FAULT_MAGIC, STALL_MS};
/// The splitmix64 step the fault plans and the fleet supervisor's backoff
/// jitter draw from, so both are pure functions of their seeds.
pub use sim_core::splitmix64;
