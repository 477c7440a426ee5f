//! What the end-to-end goldens share: one running digest, one error-kind
//! verdict, one fold of a run into a cell, and one check.
//!
//! A golden runs a grid of cases in its own loops and pins each case as a
//! cell of a **model** table, and of a **schedule** table where it keeps
//! one:
//!
//! * a model cell digests what the run computed and when: every rank's
//!   log and finish time in picoseconds, the counters and, where the
//!   golden folds it, the profile JSON. The model table must not move;
//! * a schedule cell is the scheduler's `event_stats` (`events`,
//!   `ready_high_water`, `tasks_high_water`, `stalls`): how many tasks and
//!   events the run took. It moves when the runtime starts fewer or more
//!   tasks, and then only in a commit that declares every moved cell.
//!
//! Debug and release record the same tables. On a mismatch
//! [`Table::check`] names the moved cells of each table and prints both
//! tables as run, in the layout they are recorded in: a deliberate change
//! re-records by pasting the printed table over the constant, and says
//! so.
#![allow(dead_code)] // each golden includes this file and uses part of it

use std::fmt::Debug;

use sci_fabric::fnv1a;
use scimpi::{IntegrityMode, RunReport, Tuning};

/// The integrity modes a golden runs each of its programs under.
pub const MODES: [IntegrityMode; 3] = [
    IntegrityMode::Off,
    IntegrityMode::SequenceCheck,
    IntegrityMode::EndToEnd,
];

/// A program of a golden: its rank count, its name, its body, and how it
/// adjusts the fabric's tuning.
pub type Program<Body> = (usize, &'static str, Body, fn(Tuning) -> Tuning);

/// The fabric's tuning, unchanged.
pub const SAME: fn(Tuning) -> Tuning = std::convert::identity;

/// A running FNV digest: each word is xored in, then multiplied by the
/// 64-bit FNV prime.
pub struct Log(pub u64);

impl Log {
    /// From the FNV-1a offset basis.
    pub const NEW: Log = Log(0xcbf2_9ce4_8422_2325);

    pub fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.word(fnv1a(b));
    }

    /// `Ok`, or the error's kind: its `Debug` text up to the first digit
    /// (`Fabric(OutOfBounds(OutOfBounds { offset: `), so the variants are
    /// pinned and the numbers they carry are not.
    pub fn verdict<T, E: Debug>(&mut self, res: Result<T, E>) -> Option<T> {
        match res {
            Ok(v) => {
                self.word(0);
                Some(v)
            }
            Err(e) => {
                let text = format!("{e:?}");
                let kind = text.split(|c: char| c.is_ascii_digit()).next();
                self.bytes(kind.unwrap_or_default().as_bytes());
                None
            }
        }
    }
}

/// A run's model cell: the words every rank left, in rank order, then
/// each counter the caller passes (all, or only the non-zero ones) and
/// the profile JSON where one is given.
pub fn digest<'a>(
    ranks: impl IntoIterator<Item = u64>,
    counters: impl IntoIterator<Item = (&'a str, u64)>,
    profile: Option<&str>,
) -> u64 {
    let mut h = Log::NEW;
    ranks.into_iter().for_each(|w| h.word(w));
    for (name, value) in counters {
        h.bytes(name.as_bytes());
        h.word(value);
    }
    if let Some(json) = profile {
        h.bytes(json.as_bytes());
    }
    h.0
}

/// `events`, `ready_high_water`, `tasks_high_water`, `stalls`.
pub type Schedule = [u64; 4];

/// A run's schedule cell.
pub fn schedule(report: &RunReport) -> Schedule {
    let s = report.event_stats.as_ref().expect("scheduler statistics");
    let (ready, tasks) = (s.ready_high_water as u64, s.tasks_high_water as u64);
    [s.events, ready, tasks, s.stalls]
}

/// The cells of a grid as run, in the order of its recorded tables.
#[derive(Default)]
pub struct Table {
    names: Vec<String>,
    model: Vec<u64>,
    schedule: Vec<Schedule>,
}

impl Table {
    pub fn push(&mut self, name: String, model: u64) {
        self.names.push(name);
        self.model.push(model);
    }

    pub fn push_scheduled(&mut self, name: String, (model, schedule): (u64, Schedule)) {
        self.push(name, model);
        self.schedule.push(schedule);
    }

    /// Panics unless every cell is as recorded: `model` holds `per_row`
    /// digests a row, `schedule` (where the golden keeps one) a cell a
    /// row with the case's name beside it.
    pub fn check(&self, what: &str, per_row: usize, model: &[u64], schedule: Option<&[Schedule]>) {
        if self.model == model && schedule.is_none_or(|want| self.schedule == want) {
            return;
        }
        let mut msg = self.moved(what, "model", &self.model, model);
        let mut tables = String::from("the model table as run:");
        for row in self.model.chunks(per_row) {
            let row: Vec<String> = row.iter().map(|d| format!("{d:#018x}")).collect();
            tables += &format!("\n    {},", row.join(", "));
        }
        if let Some(want) = schedule {
            msg += &self.moved(what, "schedule", &self.schedule, want);
            tables += "\nthe schedule table as run:";
            for (name, s) in self.names.iter().zip(&self.schedule) {
                tables += &format!("\n    {s:?}, // {name}");
            }
        }
        panic!("{msg}{tables}");
    }

    /// A line naming the cells of `got` that differ from `want`.
    fn moved<T: PartialEq>(&self, what: &str, table: &str, got: &[T], want: &[T]) -> String {
        let moved: Vec<&String> = (self.names.iter().enumerate())
            .filter(|&(i, _)| want.get(i) != got.get(i))
            .map(|(_, name)| name)
            .collect();
        let counts = format!("{} of {}", moved.len(), got.len());
        format!("{what}: {counts} {table} cells moved: {moved:#?}\n")
    }
}
