//! # mpi-datatype — MPI derived datatypes and `direct_pack_ff`
//!
//! The first contribution of the reproduced paper is an efficient engine
//! for communicating **non-contiguous data** described by MPI derived
//! datatypes (§3). This crate implements:
//!
//! * the datatype constructors and their size/extent semantics, held in
//!   byte units: `vector` and `indexed` lower to `hvector` and `hindexed`
//!   when they are built ([`types`]);
//! * the **committed flattened representation** — a list of basic-block
//!   leaves, each with a repeat-pattern stack, merged and optimised at
//!   commit time ([`flat`]);
//! * **`direct_pack_ff`** — flattening-on-the-fly packing through a
//!   pluggable [`ff::PackSink`], so the same loop packs into a local
//!   buffer *or streams straight into remote SCI memory*, eliminating the
//!   intermediate copies of the generic path ([`ff`]). It is the one
//!   engine: the generic baseline is a cost mode over the same runs;
//! * a small **reference walker** — the recursive tree traversal of stock
//!   MPICH, kept for the oracles to hold the engine against ([`tree`]).
//!
//! ```
//! use mpi_datatype::{Datatype, Committed, ff};
//!
//! // The paper's noncontig benchmark type: strided vector of doubles,
//! // gap as large as the block.
//! let dt = Datatype::vector(16, 2, 4, &Datatype::double());
//! let committed = Committed::commit(&dt);
//! assert_eq!(committed.leaves().len(), 1);     // one leaf ...
//! assert_eq!(committed.blocks_per_instance(), 16); // ... 16 blocks
//!
//! let src: Vec<u8> = (0..dt.extent()).map(|i| i as u8).collect();
//! let mut sink = ff::VecSink::default();
//! ff::pack_ff(&committed, 1, &src, 0, 0, usize::MAX, &mut sink).unwrap();
//! assert_eq!(sink.data.len(), dt.size());
//! ```

pub mod ff;
pub mod flat;
pub mod mpi_pack;
pub mod subarray;
pub mod tree;
pub mod typed;
pub mod types;

pub use ff::{pack_ff, unpack_ff, PackSink, PackStats, SliceSource, UnpackSource, VecSink};
pub use flat::{Committed, FfPosition, FlatLeaf, LayoutDensity, StackLevel};
pub use subarray::{subarray, ArrayOrder};
pub use types::{BasicType, Datatype, TypeKind};
