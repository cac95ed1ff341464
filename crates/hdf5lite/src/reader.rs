//! The validating HDF5 reader.
//!
//! Faithfully mirrors how the HDF5 library reacts to corrupted
//! metadata (paper §V-A):
//!
//! * **Crash class** — signatures (`\x89HDF...`, `TREE`, `SNOD`,
//!   `HEAP`), version numbers, message types/sizes, addresses and
//!   dimension products are *validated*; an unjustified value raises
//!   an [`Hdf5Error`] ("mainly due to the exceptions thrown by the
//!   HDF5 library").
//! * **Benign class** — reserved bytes, padding, unused B-tree/SNOD
//!   slots and the overwritten EOF field are *not* inspected.
//! * **SDC class** — the floating-point property fields (exponent
//!   bias/location, mantissa location/size/normalization) and the
//!   Address of Raw Data are consumed *arithmetically* with no
//!   cross-checks, so corruption silently reshapes the decoded data
//!   (scaling for Exponent Bias, shifting for ARD — Figure 5).

use std::borrow::Cow;

use ffis_vfs::{FileSystem, LockKind, OpenFlags};

use crate::bytes::Reader;
use crate::floatspec::{FloatSpec, Normalization};
use crate::types::{
    align8, Hdf5Error, Hdf5Result, MessageType, HEAP_SIGNATURE, SIGNATURE, SNOD_SIGNATURE,
    SUPERBLOCK_SIZE, TREE_SIGNATURE,
};

/// Sanity ceiling on decoded element counts (prevents corrupted dims
/// from exhausting memory before validation can reject them).
const MAX_ELEMENTS: u64 = 1 << 28;

/// Absolute file offsets of the repair-relevant fields, captured
/// during the parse so [`crate::repair`] can patch them in place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldOffsets {
    /// Datatype class bit-field byte 0 (mantissa normalization).
    pub bitfield0: u64,
    /// Datatype element size (u32).
    pub size: u64,
    /// Bit offset (u16).
    pub bit_offset: u64,
    /// Bit precision (u16).
    pub bit_precision: u64,
    /// Exponent location (u8).
    pub exponent_location: u64,
    /// Exponent size (u8).
    pub exponent_size: u64,
    /// Mantissa location (u8).
    pub mantissa_location: u64,
    /// Mantissa size (u8).
    pub mantissa_size: u64,
    /// Exponent bias (u32).
    pub exponent_bias: u64,
    /// Layout Address of Raw Data (u64).
    pub layout_ard: u64,
    /// Layout Size of Raw Data (u64).
    pub layout_size: u64,
}

/// A fully decoded dataset.
#[derive(Debug, Clone)]
pub struct DatasetInfo {
    /// Slash path.
    pub path: String,
    /// Dimension sizes.
    pub dims: Vec<u64>,
    /// Values decoded through the stored [`FloatSpec`].
    pub values: Vec<f64>,
    /// The stored datatype properties (possibly corrupted!).
    pub spec: FloatSpec,
    /// Stored Address of Raw Data.
    pub stored_ard: u64,
    /// Stored Size of Raw Data.
    pub stored_size: u64,
    /// Field offsets for in-place repair.
    pub offsets: FieldOffsets,
}

/// Object-header messages we understand.
#[derive(Debug, Clone)]
enum Message {
    SymbolTable { btree: u64, heap: u64 },
    Dataspace { dims: Vec<u64> },
    Datatype { spec: FloatSpec, offsets_partial: FieldOffsets },
    Layout { ard: u64, size: u64, ard_off: u64, size_off: u64 },
    FillValue,
    ModTime,
    Nil,
}

/// An opened (fully slurped) HDF5 file.
#[derive(Debug, Clone)]
pub struct H5File {
    bytes: Vec<u8>,
    group_leaf_k: u16,
    group_internal_k: u16,
    root_ohdr: u64,
}

/// Open a file: shared-lock, read fully, validate the superblock.
pub fn open(fs: &dyn FileSystem, path: &str) -> Hdf5Result<H5File> {
    let fd = fs.open(path, OpenFlags::read_only())?;
    fs.lock(fd, LockKind::Shared)?;
    let bytes = {
        let meta = fs.getattr(path)?;
        let mut out = vec![0u8; meta.size as usize];
        let mut done = 0usize;
        while done < out.len() {
            let n = fs.pread(fd, &mut out[done..], done as u64)?;
            if n == 0 {
                break;
            }
            done += n;
        }
        out.truncate(done);
        out
    };
    fs.unlock(fd)?;
    fs.release(fd)?;
    H5File::from_bytes(bytes)
}

impl H5File {
    /// Parse from an in-memory image (validates the superblock).
    pub fn from_bytes(bytes: Vec<u8>) -> Hdf5Result<Self> {
        if bytes.len() < SUPERBLOCK_SIZE as usize {
            return Err(Hdf5Error::new("file smaller than superblock"));
        }
        // Sealed files verify the metadata checksum before any field
        // is trusted; unsealed files (the paper's v0 format) proceed
        // with signature/version validation only.
        crate::checksum::verify_seal(&bytes)?;
        let mut r = Reader::new(&bytes);
        if r.bytes(8)? != SIGNATURE {
            return Err(Hdf5Error::new("bad HDF5 signature"));
        }
        let ver_sb = r.u8()?;
        let ver_fs = r.u8()?;
        let ver_rg = r.u8()?;
        r.skip(1)?; // reserved
        let ver_shmf = r.u8()?;
        if ver_sb != 0 || ver_fs != 0 || ver_rg != 0 || ver_shmf != 0 {
            return Err(Hdf5Error::new(format!(
                "unsupported superblock versions {}/{}/{}/{}",
                ver_sb, ver_fs, ver_rg, ver_shmf
            )));
        }
        let size_off = r.u8()?;
        let size_len = r.u8()?;
        if size_off != 8 || size_len != 8 {
            return Err(Hdf5Error::new(format!(
                "unsupported offset/length sizes {}/{}",
                size_off, size_len
            )));
        }
        r.skip(1)?; // reserved
        let leaf_k = r.u16()?;
        let internal_k = r.u16()?;
        if leaf_k == 0 || leaf_k > 1024 || internal_k == 0 || internal_k > 1024 {
            return Err(Hdf5Error::new(format!(
                "implausible B-tree K values {}/{}",
                leaf_k, internal_k
            )));
        }
        let _flags = r.u32()?;
        let base = r.u64()?;
        if base != 0 {
            return Err(Hdf5Error::new("nonzero base address unsupported"));
        }
        let _free_space = r.u64()?;
        let eof = r.u64()?;
        // HDF5 rejects files shorter than the recorded EOF ("file is
        // truncated").
        if eof > bytes.len() as u64 {
            return Err(Hdf5Error::new(format!(
                "truncated file: EOF address {:#x} beyond actual size {:#x}",
                eof,
                bytes.len()
            )));
        }
        let _driver = r.u64()?;
        // Root symbol table entry.
        let _link_name_offset = r.u64()?;
        let root_ohdr = r.u64()?;
        let _cache_type = r.u32()?;
        if root_ohdr >= bytes.len() as u64 {
            return Err(Hdf5Error::new("root object header address beyond EOF"));
        }
        Ok(H5File { bytes, group_leaf_k: leaf_k, group_internal_k: internal_k, root_ohdr })
    }

    /// Raw file image.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    // ---- object headers -----------------------------------------------------

    fn parse_object_header(&self, addr: u64) -> Hdf5Result<Vec<Message>> {
        let mut r = Reader::at(&self.bytes, addr)?;
        let version = r.u8()?;
        if version != 1 {
            return Err(Hdf5Error::new(format!("object header version {} != 1", version)));
        }
        r.skip(1)?;
        let nmsgs = r.u16()?;
        if nmsgs == 0 || nmsgs > 64 {
            return Err(Hdf5Error::new(format!("implausible message count {}", nmsgs)));
        }
        let _refcount = r.u32()?;
        let header_size = r.u32()?;
        if header_size as usize > self.bytes.len() {
            return Err(Hdf5Error::new("object header size beyond file"));
        }
        r.skip(4)?; // pad
        let mut msgs = Vec::with_capacity(nmsgs as usize);
        let mut consumed = 0u64;
        for _ in 0..nmsgs {
            if consumed >= header_size as u64 {
                return Err(Hdf5Error::new("messages overrun the declared header size"));
            }
            let ty_raw = r.u16()?;
            let size = r.u16()?;
            let _flags = r.u8()?;
            r.skip(3)?;
            let body_start = r.position();
            let ty = MessageType::from_id(ty_raw)
                .ok_or_else(|| Hdf5Error::new(format!("unknown message type {:#06x}", ty_raw)))?;
            let msg = match ty {
                MessageType::SymbolTable => {
                    let btree = r.u64()?;
                    let heap = r.u64()?;
                    Message::SymbolTable { btree, heap }
                }
                MessageType::Dataspace => {
                    let ver = r.u8()?;
                    if ver != 1 {
                        return Err(Hdf5Error::new(format!("dataspace version {} != 1", ver)));
                    }
                    let rank = r.u8()?;
                    if rank == 0 || rank > 8 {
                        return Err(Hdf5Error::new(format!("implausible rank {}", rank)));
                    }
                    let _dimflags = r.u8()?;
                    r.skip(5)?;
                    let mut dims = Vec::with_capacity(rank as usize);
                    let mut product: u64 = 1;
                    for _ in 0..rank {
                        let d = r.u64()?;
                        product = product
                            .checked_mul(d.max(1))
                            .ok_or_else(|| Hdf5Error::new("dimension product overflow"))?;
                        dims.push(d);
                    }
                    if product > MAX_ELEMENTS {
                        return Err(Hdf5Error::new(format!(
                            "dimension product {} exceeds sanity limit",
                            product
                        )));
                    }
                    Message::Dataspace { dims }
                }
                MessageType::Datatype => {
                    let cav_off = r.position();
                    let cav = r.u8()?;
                    let (ver, class) = (cav >> 4, cav & 0x0F);
                    if ver != 1 {
                        return Err(Hdf5Error::new(format!("datatype version {} != 1", ver)));
                    }
                    if class != 1 {
                        return Err(Hdf5Error::new(format!(
                            "datatype class {} is not floating-point",
                            class
                        )));
                    }
                    let bf0_off = r.position();
                    let bf0 = r.u8()?;
                    let bf1 = r.u8()?;
                    let _bf2 = r.u8()?;
                    let size_off = r.position();
                    let size = r.u32()?;
                    let bit_offset_off = r.position();
                    let bit_offset = r.u16()?;
                    let bit_precision_off = r.position();
                    let bit_precision = r.u16()?;
                    let exp_loc_off = r.position();
                    let exponent_location = r.u8()?;
                    let exp_size_off = r.position();
                    let exponent_size = r.u8()?;
                    let mant_loc_off = r.position();
                    let mantissa_location = r.u8()?;
                    let mant_size_off = r.position();
                    let mantissa_size = r.u8()?;
                    let bias_off = r.position();
                    let exponent_bias = r.u32()?;
                    let spec = FloatSpec {
                        size,
                        bit_offset,
                        bit_precision,
                        sign_location: bf1,
                        exponent_location,
                        exponent_size,
                        mantissa_location,
                        mantissa_size,
                        exponent_bias,
                        normalization: Normalization::from_bits(bf0 >> 4),
                    };
                    let _ = cav_off;
                    Message::Datatype {
                        spec,
                        offsets_partial: FieldOffsets {
                            bitfield0: bf0_off,
                            size: size_off,
                            bit_offset: bit_offset_off,
                            bit_precision: bit_precision_off,
                            exponent_location: exp_loc_off,
                            exponent_size: exp_size_off,
                            mantissa_location: mant_loc_off,
                            mantissa_size: mant_size_off,
                            exponent_bias: bias_off,
                            layout_ard: 0,
                            layout_size: 0,
                        },
                    }
                }
                MessageType::Layout => {
                    let ver = r.u8()?;
                    if ver != 3 {
                        return Err(Hdf5Error::new(format!("layout version {} != 3", ver)));
                    }
                    let class = r.u8()?;
                    if class != 1 {
                        return Err(Hdf5Error::new(format!(
                            "layout class {} is not contiguous",
                            class
                        )));
                    }
                    let ard_off = r.position();
                    let ard = r.u64()?;
                    let size_off = r.position();
                    let size = r.u64()?;
                    Message::Layout { ard, size, ard_off, size_off }
                }
                MessageType::FillValue => {
                    let ver = r.u8()?;
                    if ver != 2 {
                        return Err(Hdf5Error::new(format!("fill value version {} != 2", ver)));
                    }
                    Message::FillValue
                }
                MessageType::ModTime => {
                    let ver = r.u8()?;
                    if ver != 1 {
                        return Err(Hdf5Error::new(format!("mod-time version {} != 1", ver)));
                    }
                    Message::ModTime
                }
                MessageType::Nil => Message::Nil,
            };
            // Realign to the declared message size.
            let body_consumed = r.position() - body_start;
            if body_consumed > size as u64 {
                return Err(Hdf5Error::new(format!(
                    "message body overran declared size ({} > {})",
                    body_consumed, size
                )));
            }
            r.skip((size as u64 - body_consumed) as usize)?;
            consumed += 8 + size as u64;
            msgs.push(msg);
        }
        Ok(msgs)
    }

    // ---- groups ---------------------------------------------------------------

    /// Children of a group object header: `(name, object header addr)`.
    fn group_children(&self, ohdr_addr: u64) -> Hdf5Result<Vec<(String, u64)>> {
        let msgs = self.parse_object_header(ohdr_addr)?;
        let Some(Message::SymbolTable { btree, heap }) =
            msgs.iter().find(|m| matches!(m, Message::SymbolTable { .. })).cloned()
        else {
            return Err(Hdf5Error::new("object is not a group (no symbol table message)"));
        };
        let heap_data = self.parse_heap(heap)?;
        let snod_addrs = self.parse_btree(btree)?;
        let mut out = Vec::new();
        for snod in snod_addrs {
            out.extend(self.parse_snod(snod, heap_data)?);
        }
        Ok(out)
    }

    /// Parse a local heap header; returns `(data_addr, data_size)`.
    fn parse_heap(&self, addr: u64) -> Hdf5Result<(u64, u64)> {
        let mut r = Reader::at(&self.bytes, addr)?;
        if r.bytes(4)? != HEAP_SIGNATURE {
            return Err(Hdf5Error::new("bad local heap signature"));
        }
        let ver = r.u8()?;
        if ver != 0 {
            return Err(Hdf5Error::new(format!("local heap version {} != 0", ver)));
        }
        r.skip(3)?;
        let seg_size = r.u64()?;
        let _free_head = r.u64()?;
        let data_addr = r.u64()?;
        if data_addr >= self.bytes.len() as u64 {
            return Err(Hdf5Error::new("heap data segment beyond EOF"));
        }
        // Both words are the file's: a sum past `u64` overruns it too.
        if data_addr.checked_add(seg_size).is_none_or(|end| end > self.bytes.len() as u64) {
            return Err(Hdf5Error::new("heap data segment overruns file"));
        }
        Ok((data_addr, seg_size))
    }

    /// Parse a v1 group B-tree node; returns SNOD addresses.
    fn parse_btree(&self, addr: u64) -> Hdf5Result<Vec<u64>> {
        let mut r = Reader::at(&self.bytes, addr)?;
        if r.bytes(4)? != TREE_SIGNATURE {
            return Err(Hdf5Error::new("bad B-tree node signature"));
        }
        let node_type = r.u8()?;
        if node_type != 0 {
            return Err(Hdf5Error::new(format!(
                "B-tree node type {} is not a group node",
                node_type
            )));
        }
        let level = r.u8()?;
        if level != 0 {
            return Err(Hdf5Error::new(format!(
                "B-tree level {} unsupported (single-level files)",
                level
            )));
        }
        let entries = r.u16()?;
        if entries as usize > 2 * self.group_internal_k as usize {
            return Err(Hdf5Error::new(format!(
                "B-tree entries used {} exceeds 2K = {}",
                entries,
                2 * self.group_internal_k
            )));
        }
        let _left = r.u64()?;
        let _right = r.u64()?;
        let mut children = Vec::with_capacity(entries as usize);
        for _ in 0..entries {
            let _key = r.u64()?;
            let child = r.u64()?;
            if child >= self.bytes.len() as u64 {
                return Err(Hdf5Error::new("B-tree child address beyond EOF"));
            }
            children.push(child);
        }
        Ok(children)
    }

    /// Parse a symbol table node against its heap; returns
    /// `(name, ohdr addr)` per used entry.
    fn parse_snod(&self, addr: u64, heap: (u64, u64)) -> Hdf5Result<Vec<(String, u64)>> {
        let mut r = Reader::at(&self.bytes, addr)?;
        if r.bytes(4)? != SNOD_SIGNATURE {
            return Err(Hdf5Error::new("bad symbol table node signature"));
        }
        let ver = r.u8()?;
        if ver != 1 {
            return Err(Hdf5Error::new(format!("symbol table node version {} != 1", ver)));
        }
        r.skip(1)?;
        let nsyms = r.u16()?;
        if nsyms as usize > 2 * self.group_leaf_k as usize {
            return Err(Hdf5Error::new(format!(
                "symbol table node holds {} entries, over 2K = {}",
                nsyms,
                2 * self.group_leaf_k
            )));
        }
        let (heap_data, heap_size) = heap;
        let mut out = Vec::with_capacity(nsyms as usize);
        for _ in 0..nsyms {
            let name_off = r.u64()?;
            let ohdr = r.u64()?;
            let _cache = r.u32()?;
            r.skip(4)?;
            r.skip(16)?;
            if name_off >= heap_size {
                return Err(Hdf5Error::new("link name offset beyond heap segment"));
            }
            let mut hr = Reader::at(&self.bytes, heap_data + name_off)?;
            let name = hr.cstr((heap_size - name_off) as usize)?;
            if ohdr >= self.bytes.len() as u64 {
                return Err(Hdf5Error::new("link target address beyond EOF"));
            }
            out.push((name, ohdr));
        }
        Ok(out)
    }

    // ---- datasets ---------------------------------------------------------------

    /// Resolve a slash path to an object header address.
    fn resolve(&self, path: &str) -> Hdf5Result<u64> {
        let mut cur = self.root_ohdr;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let children = self.group_children(cur)?;
            cur =
                children.iter().find(|(n, _)| n == comp).map(|&(_, a)| a).ok_or_else(|| {
                    Hdf5Error::new(format!("path component '{}' not found", comp))
                })?;
        }
        Ok(cur)
    }

    /// Read and decode a dataset by path.
    pub fn read_dataset(&self, path: &str) -> Hdf5Result<DatasetInfo> {
        let ohdr = self.resolve(path)?;
        let msgs = self.parse_object_header(ohdr)?;
        let mut dims = None;
        let mut dtype: Option<(FloatSpec, FieldOffsets)> = None;
        let mut layout = None;
        for m in msgs {
            match m {
                Message::Dataspace { dims: d } => dims = Some(d),
                Message::Datatype { spec, offsets_partial } => {
                    dtype = Some((spec, offsets_partial))
                }
                Message::Layout { ard, size, ard_off, size_off } => {
                    layout = Some((ard, size, ard_off, size_off))
                }
                Message::SymbolTable { .. } => {
                    return Err(Hdf5Error::new(format!("'{}' is a group, not a dataset", path)))
                }
                _ => {}
            }
        }
        let dims = dims.ok_or_else(|| Hdf5Error::new("dataset missing dataspace message"))?;
        let (spec, mut offsets) =
            dtype.ok_or_else(|| Hdf5Error::new("dataset missing datatype message"))?;
        let (ard, stored_size, ard_off, size_off) =
            layout.ok_or_else(|| Hdf5Error::new("dataset missing layout message"))?;
        offsets.layout_ard = ard_off;
        offsets.layout_size = size_off;

        if spec.size == 0 || spec.size > 8 {
            return Err(Hdf5Error::new(format!("unsupported element size {}", spec.size)));
        }
        let count: u64 = dims.iter().product();
        let needed = count
            .checked_mul(spec.size as u64)
            .ok_or_else(|| Hdf5Error::new("raw size overflow"))?;
        // Paper §V-A SIZE field behaviour: a *larger* stored size is
        // harmless (the application still reads what it needs); a
        // *smaller* one is rejected — crash.
        if stored_size < needed {
            return Err(Hdf5Error::new(format!(
                "layout size {} smaller than required {}",
                stored_size, needed
            )));
        }
        if ard >= self.bytes.len() as u64 {
            return Err(Hdf5Error::new("raw data address beyond EOF"));
        }
        // Decode the raw window out of the image; only a window that
        // runs past the end of file is copied, to zero-fill its tail —
        // a shifted ARD slides the decode window over the image
        // (Figure 5c) rather than failing outright.
        let start = ard as usize;
        let raw = match self.bytes.get(start..start.saturating_add(needed as usize)) {
            Some(window) => Cow::Borrowed(window),
            None => {
                let mut padded = self.bytes[start..].to_vec();
                padded.resize(needed as usize, 0);
                Cow::Owned(padded)
            }
        };
        let values = spec.decode_all(&raw, count as usize)?;
        Ok(DatasetInfo {
            path: path.to_string(),
            dims,
            values,
            spec,
            stored_ard: ard,
            stored_size,
            offsets,
        })
    }

    /// Every object path in the file (depth-first, groups ending in `/`).
    pub fn list_paths(&self) -> Hdf5Result<Vec<String>> {
        let mut out = Vec::new();
        self.walk(self.root_ohdr, "", &mut out)?;
        Ok(out)
    }

    fn walk(&self, ohdr: u64, prefix: &str, out: &mut Vec<String>) -> Hdf5Result<()> {
        match self.group_children(ohdr) {
            Ok(children) => {
                for (name, addr) in children {
                    let p = format!("{}/{}", prefix, name);
                    // Recurse; a child that is not a group is a leaf.
                    let msgs = self.parse_object_header(addr)?;
                    if msgs.iter().any(|m| matches!(m, Message::SymbolTable { .. })) {
                        out.push(format!("{}/", p));
                        self.walk(addr, &p, out)?;
                    } else {
                        out.push(p);
                    }
                }
                Ok(())
            }
            Err(e) => Err(e),
        }
    }

    /// The metadata extent: one past the last metadata byte, walking
    /// every structure. For a healthy file this equals the stored ARD
    /// — the invariant the paper's ARD auto-correction exploits.
    pub fn metadata_extent(&self) -> Hdf5Result<u64> {
        let mut max_end = SUPERBLOCK_SIZE;
        self.extent_walk(self.root_ohdr, &mut max_end)?;
        Ok(align8(max_end))
    }

    fn extent_walk(&self, ohdr: u64, max_end: &mut u64) -> Hdf5Result<()> {
        // Object header extent.
        let mut r = Reader::at(&self.bytes, ohdr)?;
        r.skip(4)?;
        r.skip(4)?;
        let header_size = {
            let mut r2 = Reader::at(&self.bytes, ohdr + 8)?;
            r2.u32()?
        };
        *max_end = (*max_end).max(ohdr + 16 + header_size as u64);

        let msgs = self.parse_object_header(ohdr)?;
        if let Some(Message::SymbolTable { btree, heap }) =
            msgs.iter().find(|m| matches!(m, Message::SymbolTable { .. }))
        {
            // Addresses are the file's words: an end past `u64` is an
            // error, not a wrapped extent.
            let end = |addr: u64, size: u64, what: &str| {
                addr.checked_add(size)
                    .ok_or_else(|| Hdf5Error::new(format!("{} address overflows", what)))
            };
            let btree_size = 24 + (4 * self.group_internal_k as u64 + 1) * 8;
            *max_end = (*max_end).max(end(*btree, btree_size, "B-tree")?);
            let (heap_data, heap_size) = self.parse_heap(*heap)?;
            *max_end = (*max_end).max(end(*heap, 32, "local heap")?).max(heap_data + heap_size);
            for snod in self.parse_btree(*btree)? {
                let snod_size = 8 + 2 * self.group_leaf_k as u64 * 40;
                *max_end = (*max_end).max(snod + snod_size);
            }
            for (_, child) in self.group_children(ohdr)? {
                self.extent_walk(child, max_end)?;
            }
        }
        Ok(())
    }
}

/// One-call convenience: open + read a dataset.
pub fn read_dataset(fs: &dyn FileSystem, file: &str, dataset: &str) -> Hdf5Result<DatasetInfo> {
    open(fs, file)?.read_dataset(dataset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Dataset, FileBuilder, Node};
    use crate::writer::{write_file, WriteOptions};
    use ffis_vfs::MemFs;

    fn write_nyx(fs: &MemFs, n: usize) -> crate::writer::WriteReport {
        let data: Vec<f32> = (0..n * n * n).map(|i| 1.0 + 0.125 * (i % 8) as f32).collect();
        let mut b = FileBuilder::new();
        b.add_dataset(
            "/native_fields/baryon_density",
            Dataset::f32("baryon_density", &[n as u64; 3], &data),
        )
        .unwrap();
        write_file(fs, "/plt.h5", &b.into_root(), &WriteOptions::default()).unwrap()
    }

    #[test]
    fn roundtrip_read_matches_written() {
        let fs = MemFs::new();
        write_nyx(&fs, 8);
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        assert_eq!(info.dims, vec![8, 8, 8]);
        assert_eq!(info.values.len(), 512);
        for (i, &v) in info.values.iter().enumerate() {
            let expect = 1.0 + 0.125 * (i % 8) as f64;
            assert!((v - expect).abs() < 1e-6, "[{}] {} != {}", i, v, expect);
        }
        assert_eq!(info.spec, FloatSpec::ieee_f32());
    }

    #[test]
    fn list_paths_shows_hierarchy() {
        let fs = MemFs::new();
        write_nyx(&fs, 4);
        let f = open(&fs, "/plt.h5").unwrap();
        let paths = f.list_paths().unwrap();
        assert_eq!(paths, vec!["/native_fields/", "/native_fields/baryon_density"]);
    }

    #[test]
    fn metadata_extent_equals_stored_ard() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let f = open(&fs, "/plt.h5").unwrap();
        assert_eq!(f.metadata_extent().unwrap(), report.metadata_size);
        let info = f.read_dataset("/native_fields/baryon_density").unwrap();
        assert_eq!(info.stored_ard, report.metadata_size);
    }

    #[test]
    fn missing_path_is_error() {
        let fs = MemFs::new();
        write_nyx(&fs, 4);
        let f = open(&fs, "/plt.h5").unwrap();
        assert!(f.read_dataset("/native_fields/nonexistent").is_err());
        assert!(f.read_dataset("/no_group/x").is_err());
        // Group addressed as dataset.
        assert!(f.read_dataset("/native_fields").is_err());
    }

    fn corrupt_at(fs: &MemFs, path: &str, offset: u64, xor: u8) {
        use ffis_vfs::FileSystem;
        let fd = fs.open(path, OpenFlags::read_write()).unwrap();
        let mut b = [0u8; 1];
        fs.pread(fd, &mut b, offset).unwrap();
        b[0] ^= xor;
        fs.pwrite(fd, &b, offset).unwrap();
        fs.release(fd).unwrap();
    }

    #[test]
    fn corrupted_signature_crashes() {
        let fs = MemFs::new();
        write_nyx(&fs, 4);
        corrupt_at(&fs, "/plt.h5", 0, 0xFF);
        assert!(open(&fs, "/plt.h5").is_err());
    }

    #[test]
    fn corrupted_superblock_version_crashes() {
        let fs = MemFs::new();
        write_nyx(&fs, 4);
        corrupt_at(&fs, "/plt.h5", 8, 0x01);
        assert!(open(&fs, "/plt.h5").is_err());
    }

    #[test]
    fn corrupted_tree_signature_crashes_on_read() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let tree_span = report.spans.iter().find(|s| s.name.contains("BTree.Signature")).unwrap();
        corrupt_at(&fs, "/plt.h5", tree_span.start, 0x20);
        let f = open(&fs, "/plt.h5").unwrap();
        assert!(f.read_dataset("/native_fields/baryon_density").is_err());
    }

    #[test]
    fn corrupted_snod_signature_crashes_on_read() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let span = report.spans.iter().find(|s| s.name.contains("SNOD.Signature")).unwrap();
        corrupt_at(&fs, "/plt.h5", span.start, 0x01);
        let f = open(&fs, "/plt.h5").unwrap();
        assert!(f.read_dataset("/native_fields/baryon_density").is_err());
    }

    #[test]
    fn corrupted_exponent_bias_scales_values_silently() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let span = report.spans.iter().find(|s| s.name.contains("ExponentBias")).unwrap();
        // Flip bit 2 of the low bias byte: 127 -> 123 => scale by 2^4.
        corrupt_at(&fs, "/plt.h5", span.start, 0b0000_0100);
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        let expect0 = 1.0 * 16.0;
        assert!((info.values[0] - expect0).abs() < 1e-6, "{}", info.values[0]);
        // All values scaled by the same power of two (Fig. 5b).
        for (i, &v) in info.values.iter().enumerate() {
            let expect = (1.0 + 0.125 * (i % 8) as f64) * 16.0;
            assert!((v - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn corrupted_ard_shifts_values_silently() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 8);
        let span = report.spans.iter().find(|s| s.name.contains("AddressOfRawData")).unwrap();
        // Flip bit 4 of the low ARD byte: shift the window 16 bytes =
        // 4 elements forward.
        corrupt_at(&fs, "/plt.h5", span.start, 0b0001_0000);
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        for i in 0..(info.values.len() - 4) {
            let expect = 1.0 + 0.125 * ((i + 4) % 8) as f64;
            assert!((info.values[i] - expect).abs() < 1e-6, "[{}]", i);
        }
        // Tail reads past EOF -> zero-filled.
        assert!(info.values[info.values.len() - 1].abs() < 1e-12);
    }

    /// The decode reads the raw window where it lies in the image; a
    /// window a shifted ARD pushes past EOF reads zeros beyond it. In
    /// both cases the values are those of a zero-extended copy of the
    /// window, bit for bit.
    #[test]
    fn raw_window_decodes_like_a_zero_extended_copy() {
        use ffis_vfs::FileSystemExt;
        // In place; 16 bytes forward, so the tail runs past EOF; 128
        // bytes back, inside the file and over the metadata.
        for (xor, runs_past_eof) in [(0, false), (0b0001_0000, true), (0b1000_0000, false)] {
            let fs = MemFs::new();
            let report = write_nyx(&fs, 8);
            let span = report.spans.iter().find(|s| s.name.contains("AddressOfRawData")).unwrap();
            corrupt_at(&fs, "/plt.h5", span.start, xor);
            let image = fs.read_to_vec("/plt.h5").unwrap();
            let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
            let start = info.stored_ard as usize;
            let needed = info.values.len() * 4;
            assert_eq!(start + needed > image.len(), runs_past_eof, "ard {}", info.stored_ard);
            let mut window = image[start..image.len().min(start + needed)].to_vec();
            window.resize(needed, 0);
            let expect = info.spec.decode_all(&window, info.values.len()).unwrap();
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&info.values), bits(&expect), "ard {}", info.stored_ard);
            if runs_past_eof {
                assert!(info.values[info.values.len() - 4..].iter().all(|v| v.to_bits() == 0));
            }
        }
    }

    #[test]
    fn corrupted_normalization_bit5_halves_values() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let span = report.spans.iter().find(|s| s.name.contains("MantissaNormalization")).unwrap();
        corrupt_at(&fs, "/plt.h5", span.start, 0x20); // bit 5
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        // Implied (2) -> none (0): value 1.0 decodes as 0.0 fraction...
        // mean of 1.0..1.875 data drops to ~0.44 of original.
        let mean: f64 = info.values.iter().sum::<f64>() / info.values.len() as f64;
        assert!(mean < 0.6, "mean = {}", mean);
    }

    #[test]
    fn corrupted_size_smaller_crashes_bigger_tolerated() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let span = report.spans.iter().find(|s| s.name.contains("SizeOfRawData")).unwrap();
        // Set high bit of byte 1: size += 32768 (bigger) -> still fine.
        corrupt_at(&fs, "/plt.h5", span.start + 1, 0x80);
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        assert_eq!(info.values.len(), 64);
        // Now make it smaller than needed: zero out low bytes.
        let fs2 = MemFs::new();
        let report2 = write_nyx(&fs2, 4);
        let span2 = report2.spans.iter().find(|s| s.name.contains("SizeOfRawData")).unwrap();
        // 64 elements * 4 = 256 = 0x100; flip bit 8 -> size 0.
        corrupt_at(&fs2, "/plt.h5", span2.start + 1, 0x01);
        assert!(read_dataset(&fs2, "/plt.h5", "/native_fields/baryon_density").is_err());
    }

    #[test]
    fn corrupted_eof_address_crashes_when_beyond_file() {
        let fs = MemFs::new();
        write_nyx(&fs, 4);
        // Raise the EOF address high byte.
        corrupt_at(&fs, "/plt.h5", crate::types::EOF_ADDR_OFFSET + 6, 0x01);
        assert!(open(&fs, "/plt.h5").is_err());
    }

    #[test]
    fn truncated_file_crashes() {
        let fs = MemFs::new();
        write_nyx(&fs, 4);
        use ffis_vfs::FileSystem;
        let meta = fs.getattr("/plt.h5").unwrap();
        fs.truncate("/plt.h5", meta.size - 100).unwrap();
        assert!(open(&fs, "/plt.h5").is_err());
    }

    /// An image whose `field` words (every span named so) read `value`.
    fn with_field(field: &str, value: u64) -> MemFs {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let mut image = ffis_vfs::FileSystemExt::read_to_vec(&fs, "/plt.h5").unwrap();
        for span in report.spans.iter().filter(|s| s.name.ends_with(field)) {
            let at = span.start as usize;
            image[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        ffis_vfs::FileSystemExt::write_file(&fs, "/plt.h5", &image).unwrap();
        fs
    }

    /// A local heap whose segment size runs past `u64` from its
    /// address is an error in every profile: unchecked, a debug build
    /// panicked on the sum and a release build wrapped it and accepted
    /// the heap. The same holds for a B-tree address at the top of the
    /// address space, which the extent walk adds a node size to.
    #[test]
    fn addresses_that_overflow_are_errors_not_wrapped() {
        let fs = with_field("DataSegmentSize", u64::MAX - 10);
        let f = open(&fs, "/plt.h5").unwrap();
        let heap = "HDF5 error: heap data segment overruns file";
        let err = f.read_dataset("/native_fields/baryon_density").unwrap_err();
        assert_eq!(err.to_string(), heap);
        assert_eq!(f.metadata_extent().unwrap_err().to_string(), heap);

        let fs = with_field("BTreeAddress", u64::MAX);
        let f = open(&fs, "/plt.h5").unwrap();
        assert!(f.read_dataset("/native_fields/baryon_density").is_err());
        let err = f.metadata_extent().unwrap_err();
        assert_eq!(err.to_string(), "HDF5 error: B-tree address overflows");
    }

    #[test]
    fn reserved_byte_corruption_is_benign() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let golden = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        // Corrupt a B-tree unused slot byte.
        let span = report.spans.iter().find(|s| s.name.contains("BTree.UnusedSlots")).unwrap();
        corrupt_at(&fs, "/plt.h5", span.start + 50, 0xFF);
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        assert_eq!(info.values, golden.values);
    }

    #[test]
    fn multiple_datasets_resolve_independently() {
        let fs = MemFs::new();
        let mut b = FileBuilder::new();
        b.add_dataset("/g/a", Dataset::f32("a", &[2], &[1.0, 2.0])).unwrap();
        b.add_dataset("/g/b", Dataset::f64("b", &[3], &[3.0, 4.0, 5.0])).unwrap();
        let root: Node = b.into_root();
        write_file(&fs, "/m.h5", &root, &WriteOptions::default()).unwrap();
        let fa = read_dataset(&fs, "/m.h5", "/g/a").unwrap();
        assert_eq!(fa.values, vec![1.0, 2.0]);
        let fb = read_dataset(&fs, "/m.h5", "/g/b").unwrap();
        assert_eq!(fb.values, vec![3.0, 4.0, 5.0]);
        assert_eq!(fb.spec, FloatSpec::ieee_f64());
    }

    #[test]
    fn field_offsets_point_at_live_bytes() {
        let fs = MemFs::new();
        let report = write_nyx(&fs, 4);
        let info = read_dataset(&fs, "/plt.h5", "/native_fields/baryon_density").unwrap();
        let bias_span = report.spans.iter().find(|s| s.name.contains("ExponentBias")).unwrap();
        assert_eq!(info.offsets.exponent_bias, bias_span.start);
        let ard_span = report.spans.iter().find(|s| s.name.contains("AddressOfRawData")).unwrap();
        assert_eq!(info.offsets.layout_ard, ard_span.start);
    }
}
