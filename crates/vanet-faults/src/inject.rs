//! The process-global fault injector and the progress counter the
//! heartbeat layer reads.
//!
//! Worker processes `arm` themselves once, from a [`FaultPlan`] filtered
//! to their own `(worker, attempt)`; the storage and execution seams then
//! consult the injector at two chokepoints — [`round_start`] before every
//! fresh simulated round, and [`before_append`] around every journal
//! append. There is one append path, the shared `vanet_cache::Journal`,
//! so the append counter spans both of its formats: an injected fault hits
//! the N-th append the *process* performs, round report or analysis digest
//! alike. When nothing is armed (every production run), each hook is a
//! single relaxed atomic load with no allocation and no branch taken —
//! the same "pay only if you use it" discipline as `vanet-trace`'s
//! `NoTrace` sink, proven by the bench allocation gate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use crate::plan::{FaultKind, FaultSpec, STALL_MS};

/// Exit code of a worker killed by an injected fault, distinct from both
/// success and real error codes so supervisor reports name the cause.
pub const CHAOS_EXIT: i32 = 86;

/// What the append seam must do with the (possibly mutated) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendAction {
    /// Write the record normally.
    Write,
    /// Write only the first `keep` bytes, flush, then exit the process
    /// with [`CHAOS_EXIT`] — a kill mid-`write(2)`.
    TornWriteThenDie {
        /// Bytes of the record that land on disk.
        keep: usize,
    },
}

/// What [`round_start`] decided (split out so the decision logic is
/// testable without exiting the test process).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundDecision {
    Continue,
    Kill,
    Stall,
}

/// The armed faults of this process, with the live trigger counters.
#[derive(Debug, Default)]
struct Armed {
    kill_at_round: Option<u64>,
    stall_at_round: Option<u64>,
    torn: Option<(u64, u32)>,
    corrupt: Option<u64>,
    io_error: Option<u64>,
    slow: Option<(u64, u64)>,
    rounds: AtomicU64,
    appends: AtomicU64,
}

impl Armed {
    fn from_specs(specs: &[FaultSpec]) -> Armed {
        let mut armed = Armed::default();
        for spec in specs {
            // First spec of a kind wins; generated plans never collide.
            match spec.kind {
                FaultKind::KillAtRound { round } => {
                    armed.kill_at_round.get_or_insert(round);
                }
                FaultKind::Stall { round } => {
                    armed.stall_at_round.get_or_insert(round);
                }
                FaultKind::TornAppend { append, keep } => {
                    armed.torn.get_or_insert((append, keep));
                }
                FaultKind::CorruptRecord { append } => {
                    armed.corrupt.get_or_insert(append);
                }
                FaultKind::IoError { append } => {
                    armed.io_error.get_or_insert(append);
                }
                FaultKind::SlowDisk { append, ms } => {
                    armed.slow.get_or_insert((append, ms));
                }
            }
        }
        armed
    }

    fn round_decision(&self) -> RoundDecision {
        let n = self.rounds.fetch_add(1, Ordering::Relaxed);
        if self.kill_at_round == Some(n) {
            return RoundDecision::Kill;
        }
        if self.stall_at_round == Some(n) {
            return RoundDecision::Stall;
        }
        RoundDecision::Continue
    }

    /// May mutate `record` (bit rot), fail (transient I/O), or demand a
    /// torn write; also applies the slow-disk delay.
    fn append_decision(&self, record: &mut [u8]) -> std::io::Result<AppendAction> {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        if self.io_error == Some(n) {
            eprintln!("fault: injected transient I/O error on append {n}");
            return Err(std::io::Error::other("injected transient I/O error"));
        }
        if let Some((at, ms)) = self.slow {
            if at == n {
                eprintln!("fault: injected slow disk on append {n} ({ms} ms)");
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if self.corrupt == Some(n) {
            if let Some(last) = record.last_mut() {
                *last ^= 0x80;
                eprintln!("fault: injected bit rot in append {n}");
            }
        }
        if let Some((at, keep)) = self.torn {
            if at == n && record.len() > 1 {
                return Ok(AppendAction::TornWriteThenDie {
                    keep: (keep as usize).clamp(1, record.len() - 1),
                });
            }
        }
        Ok(AppendAction::Write)
    }
}

static ARMED: OnceLock<Armed> = OnceLock::new();
/// Rounds completed by this process (simulated or served from cache) —
/// the progress counter heartbeat files publish. Always counted: one
/// uncontended relaxed add per round.
static PROGRESS: AtomicU64 = AtomicU64::new(0);

/// Arms this process with `specs` (a plan already filtered through
/// [`crate::FaultPlan::for_spawn`]). Returns the number of armed faults.
///
/// # Errors
///
/// Arming twice — the injector is write-once by design, like a real crash
/// schedule.
pub fn arm(specs: &[FaultSpec]) -> Result<usize, String> {
    let count = specs.len();
    ARMED
        .set(Armed::from_specs(specs))
        .map_err(|_| "fault injector already armed in this process".to_string())?;
    Ok(count)
}

/// Whether any fault schedule is armed in this process.
pub fn is_armed() -> bool {
    ARMED.get().is_some()
}

/// Hook before every *fresh* (about-to-simulate) round. May exit the
/// process (injected kill) or sleep [`STALL_MS`] (injected stall). Free
/// when disarmed.
#[inline]
pub fn round_start() {
    let Some(armed) = ARMED.get() else { return };
    match armed.round_decision() {
        RoundDecision::Continue => {}
        RoundDecision::Kill => {
            eprintln!("fault: injected kill before this worker's next fresh round");
            std::process::exit(CHAOS_EXIT);
        }
        RoundDecision::Stall => {
            eprintln!("fault: injected stall — alive but making no progress");
            std::thread::sleep(Duration::from_millis(STALL_MS));
        }
    }
}

/// Hook after every completed round (simulated *or* served from cache):
/// bumps the process progress counter heartbeats publish.
#[inline]
pub fn round_done() {
    PROGRESS.fetch_add(1, Ordering::Relaxed);
}

/// The current progress counter value.
pub fn progress() -> u64 {
    PROGRESS.load(Ordering::Relaxed)
}

/// Hook around every journal append (the shared journal's one append
/// path, whichever format it writes). May mutate the record (bit rot),
/// delay (slow disk), fail (transient I/O error) or demand a torn write.
/// Free when disarmed.
///
/// # Errors
///
/// The injected transient I/O error, surfaced as a real `io::Error` so the
/// seam's caller exercises its genuine failure path.
#[inline]
pub fn before_append(record: &mut [u8]) -> std::io::Result<AppendAction> {
    let Some(armed) = ARMED.get() else { return Ok(AppendAction::Write) };
    armed.append_decision(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: FaultKind) -> FaultSpec {
        FaultSpec { worker: 0, attempt: Some(0), kind }
    }

    #[test]
    fn disarmed_hooks_are_inert() {
        assert!(!is_armed());
        let mut record = vec![1, 2, 3];
        assert_eq!(before_append(&mut record).unwrap(), AppendAction::Write);
        assert_eq!(record, vec![1, 2, 3]);
        let before = progress();
        round_done();
        assert_eq!(progress(), before + 1);
    }

    #[test]
    fn round_triggers_fire_on_their_exact_index() {
        let armed = Armed::from_specs(&[
            spec(FaultKind::KillAtRound { round: 2 }),
            spec(FaultKind::Stall { round: 4 }),
        ]);
        assert_eq!(armed.round_decision(), RoundDecision::Continue); // 0
        assert_eq!(armed.round_decision(), RoundDecision::Continue); // 1
        assert_eq!(armed.round_decision(), RoundDecision::Kill); // 2
        assert_eq!(armed.round_decision(), RoundDecision::Continue); // 3
        assert_eq!(armed.round_decision(), RoundDecision::Stall); // 4
    }

    #[test]
    fn append_faults_corrupt_fail_and_tear() {
        let armed = Armed::from_specs(&[
            spec(FaultKind::IoError { append: 0 }),
            spec(FaultKind::CorruptRecord { append: 1 }),
            spec(FaultKind::TornAppend { append: 2, keep: 2 }),
            spec(FaultKind::SlowDisk { append: 3, ms: 1 }),
        ]);
        let mut record = vec![0u8; 4];
        assert!(armed.append_decision(&mut record).is_err(), "append 0: injected I/O error");
        let mut record = vec![0u8; 4];
        assert_eq!(armed.append_decision(&mut record).unwrap(), AppendAction::Write);
        assert_eq!(record, vec![0, 0, 0, 0x80], "append 1: one flipped bit");
        let mut record = vec![0u8; 4];
        assert_eq!(
            armed.append_decision(&mut record).unwrap(),
            AppendAction::TornWriteThenDie { keep: 2 },
            "append 2: torn write"
        );
        let mut record = vec![0u8; 4];
        assert_eq!(armed.append_decision(&mut record).unwrap(), AppendAction::Write, "slow disk");
        // keep clamps below the record length so a tear is never a full write.
        let armed = Armed::from_specs(&[spec(FaultKind::TornAppend { append: 0, keep: 99 })]);
        let mut record = vec![0u8; 4];
        assert_eq!(
            armed.append_decision(&mut record).unwrap(),
            AppendAction::TornWriteThenDie { keep: 3 }
        );
    }
}
