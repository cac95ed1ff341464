//! # hdf5lite — a from-scratch HDF5 file-format subset
//!
//! The paper studies "how \[the\] certain scientific file format library
//! handles the storage errors affecting both the file metadata and
//! application data" for HDF5, the most-used I/O library at NERSC and
//! the DOE facilities. This crate is a clean-room implementation of
//! the portion of the HDF5 File Format Specification (v0 superblock,
//! v1 object headers) that the paper's analysis exercises:
//!
//! * superblock, group object headers, v1 group **B-trees** (`TREE`),
//!   **symbol-table nodes** (`SNOD`), **local heaps** (`HEAP`);
//! * dataset object headers with **dataspace**, **datatype** (class-1
//!   floating point with the full property set: bit offset/precision,
//!   exponent location/size/bias, mantissa location/size/
//!   normalization), **fill value**, **contiguous layout** (Address
//!   of Raw Data + size) and **modification time** messages;
//! * the creation protocol FFIS exploits (lock → chunked raw-data
//!   writes → packed metadata as the *penultimate* write → EOF patch
//!   → unlock);
//! * a validating reader whose float decode runs *through* the stored
//!   property fields — so metadata corruption really scales
//!   (Exponent Bias), shifts (ARD) or reshapes (mantissa fields) the
//!   decoded data, exactly as Table IV describes;
//! * a byte-exact **field map** emitted by the writer itself, and the
//!   paper's §V-A **detection/auto-correction** methodology.
//!
//! ```
//! use ffis_vfs::MemFs;
//! use hdf5lite::{Dataset, FileBuilder, WriteOptions};
//!
//! let fs = MemFs::new();
//! let mut b = FileBuilder::new();
//! b.add_dataset(
//!     "/native_fields/baryon_density",
//!     Dataset::f32("baryon_density", &[4, 4, 4], &[1.0f32; 64]),
//! ).unwrap();
//! hdf5lite::write_file(&fs, "/plt00000.h5", &b.into_root(), &WriteOptions::default()).unwrap();
//!
//! let info = hdf5lite::read_dataset(&fs, "/plt00000.h5", "/native_fields/baryon_density").unwrap();
//! assert_eq!(info.dims, vec![4, 4, 4]);
//! assert!(info.values.iter().all(|&v| v == 1.0));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytes;
pub mod checksum;
pub mod emitter;
pub mod encode;
pub mod floatspec;
pub mod layout;
pub mod reader;
pub mod repair;
pub mod types;
pub mod writer;

pub use checksum::{fletcher32, seal_checksum, verify_seal};
pub use emitter::Span;
pub use encode::encode_metadata;
pub use floatspec::{FloatSpec, Normalization};
pub use layout::{plan, Dataset, FileBuilder, Node, Plan};
pub use reader::{open, read_dataset, Cells, DatasetInfo, FieldOffsets, H5File};
pub use repair::{diagnose, repair_file, Correction, Diagnosis, RepairReport};
pub use types::{Hdf5Error, Hdf5Result, EOF_ADDR_OFFSET, SIGNATURE, SUPERBLOCK_SIZE};
pub use writer::{write_file, DataRegion, WriteOptions, WriteReport};

/// Find the first metadata span whose name contains `needle`.
pub fn find_span<'a>(spans: &'a [Span], needle: &str) -> Option<&'a Span> {
    spans.iter().find(|s| s.name.contains(needle))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_span_helper() {
        let spans = vec![
            Span { start: 0, end: 4, name: "A.B".into() },
            Span { start: 4, end: 8, name: "C.D".into() },
        ];
        assert_eq!(find_span(&spans, "C").unwrap().start, 4);
        assert!(find_span(&spans, "Z").is_none());
    }
}
