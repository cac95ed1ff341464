//! # nyx-sim — the Nyx cosmology workload (paper §IV-C.1)
//!
//! A behaviourally faithful, laptop-scale stand-in for Nyx \[28\]: a
//! deterministic log-normal baryon-density field with its mean pinned
//! to 1.0 by mass conservation, written as an HDF5 plotfile
//! (`/native_fields/baryon_density`) through the filesystem under
//! test, followed by the HALO FINDER post-analysis (Friends-of-
//! Friends, threshold 81.66 × the dataset mean).
//!
//! The paper's Nyx outcome taxonomy emerges from the threshold's
//! *mean-relative* definition:
//!
//! * a violent single-cell corruption inflates the mean → threshold
//!   scales past every cell → **no halos → detected**;
//! * stale similar-magnitude data (shorn writes) stays far below the
//!   81.66× threshold → **benign**;
//! * a dropped 4 KiB block zeroes ~1k cells → mean (and threshold)
//!   sag → halo membership shifts → **SDC**, but always caught by the
//!   average-value method ([`protect`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod field;
pub mod halo;
pub mod protect;

pub use app::{plotfile_path, NyxApp, NyxConfig, NyxOutput, DATASET, PLOTFILE};
pub use field::{generate, FieldConfig};
pub use halo::{candidate_mask, find_halos, Cell, Halo, HaloCatalog, HaloFinderConfig};
pub use protect::{mean_check_fails, protected_classify, MEAN_TOLERANCE};
