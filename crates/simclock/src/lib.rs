//! Deterministic virtual time for the SCI-MPICH reproduction.
//!
//! Every performance number in the original paper is a wall-clock measurement
//! on specific hardware (Dolphin PCI-SCI adapters, a Cray T3E, ...). This
//! reproduction replaces wall-clock time with *virtual time*: data really
//! moves between buffers, but the cost of each operation is computed by a
//! calibrated model and accumulated on logical clocks. This makes every
//! benchmark bit-reproducible and independent of the host machine.
//!
//! The crate provides:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution time points and
//!   spans with saturating arithmetic.
//! * [`Clock`] — a per-rank logical clock supporting the two operations a
//!   message-passing simulation needs: *advance* (local work) and *merge*
//!   (causality: an incoming message carries its arrival timestamp).
//! * [`Bandwidth`] — bytes-per-second rates with exact byte→duration cost
//!   conversion, used by all fabric cost models.
//! * [`rng`] — a small deterministic RNG (SplitMix64) so simulations do not
//!   depend on external RNG crates in their hot paths.
//! * [`stats`] — series collection and text tables for the benchmark
//!   harnesses.

pub mod bandwidth;
pub mod clock;
pub mod rng;
pub mod stats;
pub mod time;

pub use bandwidth::Bandwidth;
pub use clock::Clock;
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
