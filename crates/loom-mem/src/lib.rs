//! # loom-mem
//!
//! Memory hierarchy substrate for the Loom accelerator reproduction:
//!
//! * [`packing`] — bit-interleaved packed storage of weights and activations
//!   at the per-layer profile precisions (§3.2), with exact round-trip
//!   semantics and footprint arithmetic.
//! * [`compress`] — sparse compressed bitplane weight storage: all-zero and
//!   pure-sign-extension planes elided behind per-block plane bitmaps, with
//!   lossless round trips and modeled stream/resident footprints.
//! * [`buffers`] — the ABin/ABout SRAM buffers and the AM/WM eDRAM memories as
//!   capacity/access-count models.
//! * [`dram`] — the single-channel LPDDR4-4267 off-chip memory of §4.5.
//! * [`traffic`] — per-layer bit traffic at a given storage precision.
//! * [`hierarchy`] — the assembled memory system: spill detection, off-chip
//!   traffic and memory-bound cycle counts per layer.
//!
//! # Example
//!
//! ```
//! use loom_mem::packing::PackedGroup;
//! use loom_model::Precision;
//!
//! let weights = vec![-300, 5, 17, -1];
//! let packed = PackedGroup::pack(&weights, Precision::new(10).unwrap())?;
//! assert_eq!(packed.unpack_signed(), weights);
//! assert_eq!(packed.storage_bits(), 40);
//! # Ok::<(), loom_mem::packing::PackingError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buffers;
pub mod compress;
pub mod dram;
pub mod hierarchy;
pub mod packing;
pub mod traffic;

pub use compress::{compression_footprint, CompressedPlanes, PlaneRef, WeightCompression};
pub use dram::DramChannel;
pub use hierarchy::{MemoryConfig, MemorySystem};
pub use traffic::{LayerTraffic, StoragePrecision};
