//! `MemFs` — the reference in-memory filesystem.
//!
//! Plays the role of the "underline file system" in Figure 2 of the
//! paper (the client the FUSE daemon forwards to — ext4/lustre/GPFS in
//! the authors' deployments). Semantics are deliberately POSIX-ish:
//! short reads at EOF, sparse writes, `O_APPEND`, advisory `flock`-style
//! locks, and a logical (not wall-clock) mtime so every campaign run is
//! bitwise reproducible.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use crate::error::{FsError, FsResult};
use crate::file::{Page, SectorFile, BLOCK_SIZE};
use crate::fs::{DirEntry, Fd, FileSystem, LockKind, Metadata, NodeKind, OpenFlags, StatFs};
use crate::inode::{Ino, Inode, NodeData, ROOT_INO};
use crate::path;
use crate::wire;

/// Open-descriptor state.
#[derive(Debug, Clone)]
struct Handle {
    ino: Ino,
    flags: OpenFlags,
    cursor: u64,
    /// Lock kind held through this descriptor, if any.
    lock: Option<LockKind>,
}

/// Per-inode advisory lock state.
#[derive(Debug, Clone, Copy, Default)]
struct LockState {
    shared: u32,
    exclusive: bool,
}

/// The inode table, persistent one level above the pages: a shared
/// spine of shared inodes. A clone is one `Arc` bump; a read borrows
/// through both levels; the first mutation through a shared table
/// copies the spine (pointers only) and then un-shares just the inode
/// it touches, whose [`SectorFile`] in turn copies only the pages
/// written.
#[derive(Debug, Clone)]
struct InodeTable(Arc<HashMap<Ino, Arc<Inode>>>);

impl InodeTable {
    fn get(&self, ino: &Ino) -> Option<&Inode> {
        self.0.get(ino).map(|node| &**node)
    }

    fn get_mut(&mut self, ino: &Ino) -> Option<&mut Inode> {
        Arc::make_mut(&mut self.0).get_mut(ino).map(Arc::make_mut)
    }

    fn insert(&mut self, ino: Ino, node: Inode) {
        Arc::make_mut(&mut self.0).insert(ino, Arc::new(node));
    }

    fn remove(&mut self, ino: &Ino) {
        Arc::make_mut(&mut self.0).remove(ino);
    }

    fn values(&self) -> impl Iterator<Item = &Inode> {
        self.0.values().map(|node| &**node)
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// Pages reachable from another table too: every page of an inode
    /// that is itself still shared (through the spine or on its own),
    /// and the pages an un-shared inode has not yet copied.
    fn shared_pages(&self) -> usize {
        let spine_shared = Arc::strong_count(&self.0) > 1;
        self.0
            .values()
            .filter_map(|node| {
                let file = node.as_file()?;
                Some(if spine_shared || Arc::strong_count(node) > 1 {
                    file.page_count()
                } else {
                    file.shared_pages()
                })
            })
            .sum()
    }
}

#[derive(Debug, Clone)]
struct MemFsInner {
    inodes: InodeTable,
    next_ino: Ino,
    handles: HashMap<Fd, Handle>,
    next_fd: Fd,
    locks: HashMap<Ino, LockState>,
    /// Logical clock; bumped on every mutation.
    clock: u64,
}

impl MemFsInner {
    fn new() -> Self {
        let root = Arc::new(Inode::dir(ROOT_INO, 0o755, 0));
        MemFsInner {
            inodes: InodeTable(Arc::new(HashMap::from([(ROOT_INO, root)]))),
            next_ino: ROOT_INO + 1,
            handles: HashMap::new(),
            next_fd: 3,
            locks: HashMap::new(),
            clock: 1,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn alloc_ino(&mut self) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        ino
    }

    fn alloc_fd(&mut self) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        fd
    }

    /// Resolve a path to an inode number.
    fn resolve(&self, p: &str) -> FsResult<Ino> {
        let comps = path::components(p)?;
        let mut cur = ROOT_INO;
        for c in &comps {
            let node = self.inodes.get(&cur).ok_or(FsError::NotFound)?;
            let dir = node.as_dir().ok_or(FsError::NotADirectory)?;
            cur = *dir.get(c).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Resolve the parent directory of a path; returns (parent ino, final name).
    fn resolve_parent(&self, p: &str) -> FsResult<(Ino, String)> {
        let (parent_comps, name) = path::split_parent(p)?;
        let joined = path::join(&parent_comps);
        let parent = self.resolve(&joined)?;
        let node = self.inodes.get(&parent).ok_or(FsError::NotFound)?;
        if node.as_dir().is_none() {
            return Err(FsError::NotADirectory);
        }
        Ok((parent, name))
    }

    fn insert_child(&mut self, parent: Ino, name: &str, child: Ino) -> FsResult<()> {
        let t = self.tick();
        let dir = self.inodes.get_mut(&parent).ok_or(FsError::NotFound)?;
        dir.mtime = t;
        let map = dir.as_dir_mut().ok_or(FsError::NotADirectory)?;
        if map.contains_key(name) {
            return Err(FsError::Exists);
        }
        map.insert(name.to_string(), child);
        Ok(())
    }

    fn handle(&self, fd: Fd) -> FsResult<&Handle> {
        self.handles.get(&fd).ok_or(FsError::BadFd)
    }
}

/// Thread-safe in-memory filesystem. Cheap to construct — campaigns
/// build a fresh one per injection run, mirroring the paper's
/// mount/unmount-per-run protocol.
#[derive(Debug)]
pub struct MemFs {
    inner: RwLock<MemFsInner>,
}

impl Default for MemFs {
    fn default() -> Self {
        Self::new()
    }
}

impl MemFs {
    /// Empty filesystem containing only `/`.
    pub fn new() -> Self {
        MemFs { inner: RwLock::new(MemFsInner::new()) }
    }

    fn read_lock(&self) -> std::sync::RwLockReadGuard<'_, MemFsInner> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_lock(&self) -> std::sync::RwLockWriteGuard<'_, MemFsInner> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Direct snapshot of a file's bytes (test/analysis convenience;
    /// not an instrumented primitive).
    pub fn snapshot(&self, p: &str) -> FsResult<Vec<u8>> {
        let g = self.read_lock();
        let ino = g.resolve(p)?;
        let node = g.inodes.get(&ino).ok_or(FsError::NotFound)?;
        node.as_file().map(|f| f.to_vec()).ok_or(FsError::IsADirectory)
    }

    /// Copy-on-write fork: an independent filesystem sharing the whole
    /// inode table — every inode, directory map and file page — with
    /// `self` until either side writes.
    ///
    /// The clone bumps one reference count on the table and copies the
    /// open-handle table, the lock state and the counters, so the cost
    /// is O(open descriptors), whatever the number of files and pages.
    /// The first mutation on either side copies the table's spine (one
    /// pointer per inode), then the one inode it touches, then
    /// ([`crate::SectorFile`]) the pages it writes; a side that only
    /// opens, reads and releases never copies anything. A fork taken
    /// mid-run (open descriptors and all) is the substrate of the
    /// golden-trace replay engine: every injection run forks the
    /// pristine snapshot instead of re-executing the application's
    /// fault-free prefix.
    pub fn fork(&self) -> MemFs {
        MemFs { inner: RwLock::new(self.read_lock().clone()) }
    }

    /// Total pages across all regular files whose backing allocation
    /// is still shared with another fork — because the page's inode is
    /// (nothing in it was written since the fork), because the page
    /// itself is, or because it is the zero page (CoW accounting; used
    /// by tests and capacity diagnostics).
    pub fn shared_pages(&self) -> usize {
        self.read_lock().inodes.shared_pages()
    }

    /// Number of currently open descriptors (leak checking in tests).
    pub fn open_handles(&self) -> usize {
        self.read_lock().handles.len()
    }

    /// Serialize the complete filesystem state — inode table,
    /// directory maps, open handles (with cursors and held locks),
    /// advisory lock state, and the allocation/clock counters — into a
    /// deterministic byte image. File contents are externalized
    /// page-by-page through `put_page`, which returns each page's
    /// content address; the image stores only the 32-byte addresses,
    /// so identical pages across files, checkpoints, and campaigns
    /// dedupe in the blob store. Iteration is sorted, so the same
    /// state always encodes to the same bytes.
    pub(crate) fn export_image(&self, put_page: &mut dyn FnMut(&Arc<Page>) -> [u8; 32]) -> Vec<u8> {
        let g = self.read_lock();
        let mut buf = Vec::new();
        wire::put_u64(&mut buf, g.next_ino);
        wire::put_u64(&mut buf, g.next_fd);
        wire::put_u64(&mut buf, g.clock);

        let mut inos: Vec<&Inode> = g.inodes.values().collect();
        inos.sort_by_key(|n| n.ino);
        wire::put_u32(&mut buf, inos.len() as u32);
        for node in inos {
            wire::put_u64(&mut buf, node.ino);
            wire::put_u8(&mut buf, kind_code(node.kind));
            wire::put_u32(&mut buf, node.mode);
            wire::put_u32(&mut buf, node.nlink);
            wire::put_u64(&mut buf, node.mtime);
            wire::put_u64(&mut buf, node.rdev);
            match &node.data {
                NodeData::Bytes(f) => {
                    wire::put_u8(&mut buf, 0);
                    wire::put_u64(&mut buf, f.len());
                    wire::put_u32(&mut buf, f.pages().len() as u32);
                    for page in f.pages() {
                        buf.extend_from_slice(&put_page(page));
                    }
                }
                NodeData::Dir(map) => {
                    wire::put_u8(&mut buf, 1);
                    wire::put_u32(&mut buf, map.len() as u32);
                    for (name, child) in map {
                        wire::put_str(&mut buf, name);
                        wire::put_u64(&mut buf, *child);
                    }
                }
                NodeData::None => wire::put_u8(&mut buf, 2),
            }
        }

        let mut fds: Vec<(&Fd, &Handle)> = g.handles.iter().collect();
        fds.sort_by_key(|(fd, _)| **fd);
        wire::put_u32(&mut buf, fds.len() as u32);
        for (fd, h) in fds {
            wire::put_u64(&mut buf, *fd);
            wire::put_u64(&mut buf, h.ino);
            wire::put_u8(&mut buf, flags_code(&h.flags));
            wire::put_u64(&mut buf, h.cursor);
            wire::put_u8(&mut buf, lock_code(h.lock));
        }

        let mut locks: Vec<(&Ino, &LockState)> = g.locks.iter().collect();
        locks.sort_by_key(|(ino, _)| **ino);
        wire::put_u32(&mut buf, locks.len() as u32);
        for (ino, st) in locks {
            wire::put_u64(&mut buf, *ino);
            wire::put_u32(&mut buf, st.shared);
            wire::put_u8(&mut buf, u8::from(st.exclusive));
        }
        buf
    }

    /// Reconstruct a filesystem from an [`MemFs::export_image`] byte
    /// image, resolving page addresses through `get_page`. Returns
    /// `None` on any structural damage, invariant violation, or
    /// unresolvable page — a corrupt image decodes to "rebuild", never
    /// to a half-restored filesystem.
    pub(crate) fn import_image(
        image: &[u8],
        get_page: &mut dyn FnMut(&[u8; 32]) -> Option<Arc<Page>>,
    ) -> Option<MemFs> {
        let mut r = wire::Reader::new(image);
        let next_ino = r.u64()?;
        let next_fd = r.u64()?;
        let clock = r.u64()?;

        let n_inodes = r.u32()? as usize;
        let mut inodes = HashMap::with_capacity(n_inodes);
        for _ in 0..n_inodes {
            let ino = r.u64()?;
            let kind = kind_from_code(r.u8()?)?;
            let mode = r.u32()?;
            let nlink = r.u32()?;
            let mtime = r.u64()?;
            let rdev = r.u64()?;
            let data = match r.u8()? {
                0 => {
                    let len = r.u64()?;
                    let n_pages = r.u32()? as usize;
                    let mut pages = Vec::with_capacity(n_pages);
                    for _ in 0..n_pages {
                        let hash: [u8; 32] = r.bytes(32)?.try_into().ok()?;
                        pages.push(get_page(&hash)?);
                    }
                    NodeData::Bytes(SectorFile::from_pages(pages, len)?)
                }
                1 => {
                    let n = r.u32()? as usize;
                    let mut map = BTreeMap::new();
                    for _ in 0..n {
                        let name = r.str()?;
                        let child = r.u64()?;
                        map.insert(name, child);
                    }
                    NodeData::Dir(map)
                }
                2 => NodeData::None,
                _ => return None,
            };
            inodes.insert(ino, Arc::new(Inode { ino, kind, mode, nlink, mtime, rdev, data }));
        }
        if !inodes.contains_key(&ROOT_INO) {
            return None;
        }

        let n_handles = r.u32()? as usize;
        let mut handles = HashMap::with_capacity(n_handles);
        for _ in 0..n_handles {
            let fd = r.u64()?;
            let ino = r.u64()?;
            let flags = flags_from_code(r.u8()?)?;
            let cursor = r.u64()?;
            let lock = lock_from_code(r.u8()?)?;
            handles.insert(fd, Handle { ino, flags, cursor, lock });
        }

        let n_locks = r.u32()? as usize;
        let mut locks = HashMap::with_capacity(n_locks);
        for _ in 0..n_locks {
            let ino = r.u64()?;
            let shared = r.u32()?;
            let exclusive = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            locks.insert(ino, LockState { shared, exclusive });
        }
        if r.remaining() != 0 {
            return None;
        }
        let inodes = InodeTable(Arc::new(inodes));
        Some(MemFs {
            inner: RwLock::new(MemFsInner { inodes, next_ino, handles, next_fd, locks, clock }),
        })
    }
}

pub(crate) fn kind_code(k: NodeKind) -> u8 {
    match k {
        NodeKind::File => 0,
        NodeKind::Dir => 1,
        NodeKind::Fifo => 2,
        NodeKind::CharDev => 3,
        NodeKind::BlockDev => 4,
    }
}

pub(crate) fn kind_from_code(c: u8) -> Option<NodeKind> {
    Some(match c {
        0 => NodeKind::File,
        1 => NodeKind::Dir,
        2 => NodeKind::Fifo,
        3 => NodeKind::CharDev,
        4 => NodeKind::BlockDev,
        _ => return None,
    })
}

pub(crate) fn flags_code(f: &OpenFlags) -> u8 {
    u8::from(f.read)
        | u8::from(f.write) << 1
        | u8::from(f.create) << 2
        | u8::from(f.truncate) << 3
        | u8::from(f.append) << 4
        | u8::from(f.excl) << 5
}

pub(crate) fn flags_from_code(c: u8) -> Option<OpenFlags> {
    if c >= 64 {
        return None;
    }
    Some(OpenFlags {
        read: c & 1 != 0,
        write: c & 2 != 0,
        create: c & 4 != 0,
        truncate: c & 8 != 0,
        append: c & 16 != 0,
        excl: c & 32 != 0,
    })
}

pub(crate) fn lock_code(l: Option<LockKind>) -> u8 {
    match l {
        None => 0,
        Some(LockKind::Shared) => 1,
        Some(LockKind::Exclusive) => 2,
    }
}

pub(crate) fn lock_from_code(c: u8) -> Option<Option<LockKind>> {
    Some(match c {
        0 => None,
        1 => Some(LockKind::Shared),
        2 => Some(LockKind::Exclusive),
        _ => return None,
    })
}

impl FileSystem for MemFs {
    fn getattr(&self, p: &str) -> FsResult<Metadata> {
        let g = self.read_lock();
        let ino = g.resolve(p)?;
        Ok(g.inodes.get(&ino).ok_or(FsError::NotFound)?.metadata())
    }

    fn mknod(&self, p: &str, kind: NodeKind, mode: u32, dev: u64) -> FsResult<()> {
        if kind == NodeKind::Dir {
            return Err(FsError::InvalidArgument);
        }
        let mut g = self.write_lock();
        let (parent, name) = g.resolve_parent(p)?;
        let ino = g.alloc_ino();
        let t = g.tick();
        let node = match kind {
            NodeKind::File => Inode::file(ino, mode, t),
            k => Inode::special(ino, k, mode, dev, t),
        };
        g.inodes.insert(ino, node);
        if let Err(e) = g.insert_child(parent, &name, ino) {
            g.inodes.remove(&ino);
            return Err(e);
        }
        Ok(())
    }

    fn mkdir(&self, p: &str, mode: u32) -> FsResult<()> {
        let mut g = self.write_lock();
        let (parent, name) = g.resolve_parent(p)?;
        let ino = g.alloc_ino();
        let t = g.tick();
        g.inodes.insert(ino, Inode::dir(ino, mode, t));
        if let Err(e) = g.insert_child(parent, &name, ino) {
            g.inodes.remove(&ino);
            return Err(e);
        }
        if let Some(pn) = g.inodes.get_mut(&parent) {
            pn.nlink += 1; // `..` back-reference
        }
        Ok(())
    }

    fn unlink(&self, p: &str) -> FsResult<()> {
        let mut g = self.write_lock();
        let (parent, name) = g.resolve_parent(p)?;
        let child = {
            let dir = g.inodes.get(&parent).ok_or(FsError::NotFound)?;
            *dir.as_dir().ok_or(FsError::NotADirectory)?.get(&name).ok_or(FsError::NotFound)?
        };
        if g.inodes.get(&child).ok_or(FsError::NotFound)?.kind == NodeKind::Dir {
            return Err(FsError::IsADirectory);
        }
        let t = g.tick();
        if let Some(dirnode) = g.inodes.get_mut(&parent) {
            dirnode.mtime = t;
            dirnode.as_dir_mut().unwrap().remove(&name);
        }
        // Keep the inode alive while any handle references it (POSIX
        // unlink-while-open), reclaim otherwise.
        let still_open = g.handles.values().any(|h| h.ino == child);
        if !still_open {
            g.inodes.remove(&child);
            g.locks.remove(&child);
        } else if let Some(node) = g.inodes.get_mut(&child) {
            node.nlink = node.nlink.saturating_sub(1);
        }
        Ok(())
    }

    fn rmdir(&self, p: &str) -> FsResult<()> {
        let mut g = self.write_lock();
        let (parent, name) = g.resolve_parent(p)?;
        let child = {
            let dir = g.inodes.get(&parent).ok_or(FsError::NotFound)?;
            *dir.as_dir().ok_or(FsError::NotADirectory)?.get(&name).ok_or(FsError::NotFound)?
        };
        {
            let node = g.inodes.get(&child).ok_or(FsError::NotFound)?;
            let map = node.as_dir().ok_or(FsError::NotADirectory)?;
            if !map.is_empty() {
                return Err(FsError::NotEmpty);
            }
        }
        let t = g.tick();
        if let Some(dirnode) = g.inodes.get_mut(&parent) {
            dirnode.mtime = t;
            dirnode.nlink = dirnode.nlink.saturating_sub(1);
            dirnode.as_dir_mut().unwrap().remove(&name);
        }
        g.inodes.remove(&child);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> FsResult<()> {
        let mut g = self.write_lock();
        let (fparent, fname) = g.resolve_parent(from)?;
        let (tparent, tname) = g.resolve_parent(to)?;
        let child = {
            let dir = g.inodes.get(&fparent).ok_or(FsError::NotFound)?;
            *dir.as_dir().ok_or(FsError::NotADirectory)?.get(&fname).ok_or(FsError::NotFound)?
        };
        // Replace-target semantics: an existing non-directory target is
        // atomically unlinked; an existing directory target must be empty.
        if let Some(&existing) =
            g.inodes.get(&tparent).and_then(|n| n.as_dir()).and_then(|d| d.get(&tname))
        {
            if existing == child {
                return Ok(());
            }
            let enode = g.inodes.get(&existing).ok_or(FsError::NotFound)?;
            match &enode.data {
                NodeData::Dir(d) if !d.is_empty() => return Err(FsError::NotEmpty),
                _ => {}
            }
            g.inodes.remove(&existing);
            g.locks.remove(&existing);
        }
        let t = g.tick();
        if let Some(fp) = g.inodes.get_mut(&fparent) {
            fp.mtime = t;
            fp.as_dir_mut().unwrap().remove(&fname);
        }
        if let Some(tp) = g.inodes.get_mut(&tparent) {
            tp.mtime = t;
            tp.as_dir_mut().unwrap().insert(tname, child);
        }
        Ok(())
    }

    fn chmod(&self, p: &str, mode: u32) -> FsResult<()> {
        let mut g = self.write_lock();
        let ino = g.resolve(p)?;
        let t = g.tick();
        let node = g.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        node.mode = mode & 0o7777;
        node.mtime = t;
        Ok(())
    }

    fn truncate(&self, p: &str, size: u64) -> FsResult<()> {
        let mut g = self.write_lock();
        let ino = g.resolve(p)?;
        let t = g.tick();
        let node = g.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
        node.mtime = t;
        node.as_file_mut().ok_or(FsError::IsADirectory)?.truncate(size)
    }

    fn create(&self, p: &str, mode: u32) -> FsResult<Fd> {
        let mut g = self.write_lock();
        let (parent, name) = g.resolve_parent(p)?;
        let existing =
            g.inodes.get(&parent).and_then(|n| n.as_dir()).and_then(|d| d.get(&name)).copied();
        let ino = match existing {
            Some(ino) => {
                let t = g.tick();
                let node = g.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
                let f = node.as_file_mut().ok_or(FsError::IsADirectory)?;
                f.truncate(0)?;
                node.mtime = t;
                ino
            }
            None => {
                let ino = g.alloc_ino();
                let t = g.tick();
                g.inodes.insert(ino, Inode::file(ino, mode, t));
                if let Err(e) = g.insert_child(parent, &name, ino) {
                    g.inodes.remove(&ino);
                    return Err(e);
                }
                ino
            }
        };
        let fd = g.alloc_fd();
        g.handles
            .insert(fd, Handle { ino, flags: OpenFlags::create_truncate(), cursor: 0, lock: None });
        Ok(fd)
    }

    fn open(&self, p: &str, flags: OpenFlags) -> FsResult<Fd> {
        flags.validate()?;
        let mut g = self.write_lock();
        let ino = match g.resolve(p) {
            Ok(ino) => {
                if flags.excl && flags.create {
                    return Err(FsError::Exists);
                }
                ino
            }
            Err(FsError::NotFound) if flags.create => {
                let (parent, name) = g.resolve_parent(p)?;
                let ino = g.alloc_ino();
                let t = g.tick();
                g.inodes.insert(ino, Inode::file(ino, 0o644, t));
                if let Err(e) = g.insert_child(parent, &name, ino) {
                    g.inodes.remove(&ino);
                    return Err(e);
                }
                ino
            }
            Err(e) => return Err(e),
        };
        {
            let node = g.inodes.get(&ino).ok_or(FsError::NotFound)?;
            if node.kind == NodeKind::Dir {
                return Err(FsError::IsADirectory);
            }
        }
        if flags.truncate {
            let t = g.tick();
            let node = g.inodes.get_mut(&ino).ok_or(FsError::NotFound)?;
            node.mtime = t;
            if let Some(f) = node.as_file_mut() {
                f.truncate(0)?;
            }
        }
        let fd = g.alloc_fd();
        g.handles.insert(fd, Handle { ino, flags, cursor: 0, lock: None });
        Ok(fd)
    }

    fn read(&self, fd: Fd, buf: &mut [u8]) -> FsResult<usize> {
        let mut g = self.write_lock();
        let (ino, cursor, can_read) = {
            let h = g.handle(fd)?;
            (h.ino, h.cursor, h.flags.read)
        };
        if !can_read {
            return Err(FsError::PermissionDenied);
        }
        let node = g.inodes.get(&ino).ok_or(FsError::BadFd)?;
        let file = node.as_file().ok_or(FsError::IllegalSeek)?;
        let n = file.read_at(buf, cursor);
        if let Some(h) = g.handles.get_mut(&fd) {
            h.cursor += n as u64;
        }
        Ok(n)
    }

    fn pread(&self, fd: Fd, buf: &mut [u8], offset: u64) -> FsResult<usize> {
        let g = self.read_lock();
        let h = g.handle(fd)?;
        if !h.flags.read {
            return Err(FsError::PermissionDenied);
        }
        let node = g.inodes.get(&h.ino).ok_or(FsError::BadFd)?;
        let file = node.as_file().ok_or(FsError::IllegalSeek)?;
        Ok(file.read_at(buf, offset))
    }

    fn write(&self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
        let mut g = self.write_lock();
        let (ino, mut cursor, flags) = {
            let h = g.handle(fd)?;
            (h.ino, h.cursor, h.flags)
        };
        if !flags.write {
            return Err(FsError::ReadOnly);
        }
        let t = g.tick();
        let node = g.inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
        let file = node.as_file_mut().ok_or(FsError::IllegalSeek)?;
        if flags.append {
            cursor = file.len();
        }
        let n = file.write_at(buf, cursor)?;
        node.mtime = t;
        if let Some(h) = g.handles.get_mut(&fd) {
            h.cursor = cursor + n as u64;
        }
        Ok(n)
    }

    fn pwrite(&self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
        let mut g = self.write_lock();
        let (ino, can_write) = {
            let h = g.handle(fd)?;
            (h.ino, h.flags.write)
        };
        if !can_write {
            return Err(FsError::ReadOnly);
        }
        let t = g.tick();
        let node = g.inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
        let file = node.as_file_mut().ok_or(FsError::IllegalSeek)?;
        let n = file.write_at(buf, offset)?;
        node.mtime = t;
        Ok(n)
    }

    // The vectored overrides exist for replay coalescing: one lock
    // acquisition and one handle lookup for a whole run of adjacent
    // trace writes. Everything observable — clock ticks, mtime,
    // cursor motion, short-write behaviour — matches the trait's
    // write/pwrite loop byte for byte.
    fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> FsResult<usize> {
        let mut g = self.write_lock();
        let (ino, mut cursor, flags) = {
            let h = g.handle(fd)?;
            (h.ino, h.cursor, h.flags)
        };
        if !flags.write {
            return Err(FsError::ReadOnly);
        }
        let mut total = 0;
        let mut result = Ok(());
        for buf in bufs {
            let t = g.tick();
            let node = match g.inodes.get_mut(&ino).ok_or(FsError::BadFd) {
                Ok(node) => node,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            let file = match node.as_file_mut().ok_or(FsError::IllegalSeek) {
                Ok(file) => file,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            if flags.append {
                cursor = file.len();
            }
            let n = match file.write_at(buf, cursor) {
                Ok(n) => n,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            };
            node.mtime = t;
            cursor += n as u64;
            total += n;
            if n != buf.len() {
                break;
            }
        }
        // A mid-run failure still persists the cursor motion of the
        // buffers that landed, exactly like the looped default.
        if let Some(h) = g.handles.get_mut(&fd) {
            h.cursor = cursor;
        }
        result.map(|()| total)
    }

    fn pwritev(&self, fd: Fd, bufs: &[&[u8]], offset: u64) -> FsResult<usize> {
        let mut g = self.write_lock();
        let (ino, can_write) = {
            let h = g.handle(fd)?;
            (h.ino, h.flags.write)
        };
        if !can_write {
            return Err(FsError::ReadOnly);
        }
        let mut total = 0;
        let mut off = offset;
        for buf in bufs {
            let t = g.tick();
            let node = g.inodes.get_mut(&ino).ok_or(FsError::BadFd)?;
            let file = node.as_file_mut().ok_or(FsError::IllegalSeek)?;
            let n = file.write_at(buf, off)?;
            node.mtime = t;
            off += n as u64;
            total += n;
            if n != buf.len() {
                break;
            }
        }
        Ok(total)
    }

    fn fsync(&self, fd: Fd) -> FsResult<()> {
        let g = self.read_lock();
        g.handle(fd)?;
        Ok(())
    }

    fn release(&self, fd: Fd) -> FsResult<()> {
        let mut g = self.write_lock();
        let h = g.handles.remove(&fd).ok_or(FsError::BadFd)?;
        if let Some(kind) = h.lock {
            if let Some(state) = g.locks.get_mut(&h.ino) {
                match kind {
                    LockKind::Shared => state.shared = state.shared.saturating_sub(1),
                    LockKind::Exclusive => state.exclusive = false,
                }
            }
        }
        // Reclaim unlinked-and-now-closed inodes.
        let orphan = g
            .inodes
            .get(&h.ino)
            .map(|n| n.nlink == 0 && !g.handles.values().any(|x| x.ino == h.ino))
            .unwrap_or(false);
        if orphan {
            g.inodes.remove(&h.ino);
            g.locks.remove(&h.ino);
        }
        Ok(())
    }

    fn readdir(&self, p: &str) -> FsResult<Vec<DirEntry>> {
        let g = self.read_lock();
        let ino = g.resolve(p)?;
        let node = g.inodes.get(&ino).ok_or(FsError::NotFound)?;
        let map: &BTreeMap<String, Ino> = node.as_dir().ok_or(FsError::NotADirectory)?;
        let mut out = Vec::with_capacity(map.len());
        for (name, child) in map {
            let cnode = g.inodes.get(child).ok_or(FsError::Io)?;
            out.push(DirEntry { name: name.clone(), kind: cnode.kind, ino: *child });
        }
        Ok(out)
    }

    fn statfs(&self) -> FsResult<StatFs> {
        let g = self.read_lock();
        let bytes_used = g.inodes.values().map(Inode::size).sum();
        Ok(StatFs { bytes_used, inodes: g.inodes.len() as u64, block_size: BLOCK_SIZE as u64 })
    }

    fn lock(&self, fd: Fd, kind: LockKind) -> FsResult<()> {
        let mut g = self.write_lock();
        let ino = g.handle(fd)?.ino;
        let state = g.locks.entry(ino).or_default();
        match kind {
            LockKind::Shared => {
                if state.exclusive {
                    return Err(FsError::Locked);
                }
                state.shared += 1;
            }
            LockKind::Exclusive => {
                if state.exclusive || state.shared > 0 {
                    return Err(FsError::Locked);
                }
                state.exclusive = true;
            }
        }
        if let Some(h) = g.handles.get_mut(&fd) {
            h.lock = Some(kind);
        }
        Ok(())
    }

    fn unlock(&self, fd: Fd) -> FsResult<()> {
        let mut g = self.write_lock();
        let (ino, kind) = {
            let h = g.handle(fd)?;
            (h.ino, h.lock)
        };
        let kind = kind.ok_or(FsError::InvalidArgument)?;
        if let Some(state) = g.locks.get_mut(&ino) {
            match kind {
                LockKind::Shared => state.shared = state.shared.saturating_sub(1),
                LockKind::Exclusive => state.exclusive = false,
            }
        }
        if let Some(h) = g.handles.get_mut(&fd) {
            h.lock = None;
        }
        Ok(())
    }
}

/// Deep-copy the full state of one filesystem into another (used by
/// tests and the golden-run machinery to compare file trees).
pub fn copy_tree(src: &dyn FileSystem, dst: &dyn FileSystem, dir: &str) -> FsResult<()> {
    use crate::fs::FileSystemExt;
    for entry in src.readdir(dir)? {
        let p =
            if dir == "/" { format!("/{}", entry.name) } else { format!("{}/{}", dir, entry.name) };
        match entry.kind {
            NodeKind::Dir => {
                match dst.mkdir(&p, 0o755) {
                    Ok(()) | Err(FsError::Exists) => {}
                    Err(e) => return Err(e),
                }
                copy_tree(src, dst, &p)?;
            }
            NodeKind::File => {
                let data = src.read_to_vec(&p)?;
                dst.write_file(&p, &data)?;
            }
            k => {
                let meta = src.getattr(&p)?;
                dst.mknod(&p, k, meta.mode, meta.rdev)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::FileSystemExt;

    fn fs() -> MemFs {
        MemFs::new()
    }

    #[test]
    fn root_exists() {
        let f = fs();
        let m = f.getattr("/").unwrap();
        assert_eq!(m.kind, NodeKind::Dir);
        assert_eq!(m.ino, ROOT_INO);
    }

    #[test]
    fn create_write_read() {
        let f = fs();
        let fd = f.create("/a.txt", 0o644).unwrap();
        assert_eq!(f.pwrite(fd, b"hello", 0).unwrap(), 5);
        f.release(fd).unwrap();
        assert_eq!(f.read_to_vec("/a.txt").unwrap(), b"hello");
    }

    #[test]
    fn create_truncates_existing() {
        let f = fs();
        f.write_file("/a", b"long content here").unwrap();
        let fd = f.create("/a", 0o644).unwrap();
        f.release(fd).unwrap();
        assert_eq!(f.getattr("/a").unwrap().size, 0);
    }

    #[test]
    fn open_missing_fails_without_create() {
        let f = fs();
        assert_eq!(f.open("/nope", OpenFlags::read_only()), Err(FsError::NotFound));
    }

    #[test]
    fn open_create_excl_semantics() {
        let f = fs();
        let mut flags = OpenFlags::create_truncate();
        flags.excl = true;
        let fd = f.open("/x", flags).unwrap();
        f.release(fd).unwrap();
        assert_eq!(f.open("/x", flags), Err(FsError::Exists));
    }

    #[test]
    fn sequential_read_write_cursor() {
        let f = fs();
        let fd = f.create("/s", 0o644).unwrap();
        f.write(fd, b"abc").unwrap();
        f.write(fd, b"def").unwrap();
        f.release(fd).unwrap();
        let fd = f.open("/s", OpenFlags::read_only()).unwrap();
        let mut b = [0u8; 4];
        assert_eq!(f.read(fd, &mut b).unwrap(), 4);
        assert_eq!(&b, b"abcd");
        assert_eq!(f.read(fd, &mut b).unwrap(), 2);
        assert_eq!(&b[..2], b"ef");
        assert_eq!(f.read(fd, &mut b).unwrap(), 0);
        f.release(fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_eof() {
        let f = fs();
        f.write_file("/log", b"one\n").unwrap();
        let fd = f.open("/log", OpenFlags::append()).unwrap();
        f.write(fd, b"two\n").unwrap();
        f.release(fd).unwrap();
        assert_eq!(f.read_to_string("/log").unwrap(), "one\ntwo\n");
    }

    #[test]
    fn write_on_readonly_fd_fails() {
        let f = fs();
        f.write_file("/r", b"data").unwrap();
        let fd = f.open("/r", OpenFlags::read_only()).unwrap();
        assert_eq!(f.pwrite(fd, b"x", 0), Err(FsError::ReadOnly));
        assert_eq!(f.write(fd, b"x"), Err(FsError::ReadOnly));
        f.release(fd).unwrap();
    }

    #[test]
    fn read_on_writeonly_fd_fails() {
        let f = fs();
        let fd = f.create("/w", 0o644).unwrap();
        let mut b = [0u8; 1];
        assert_eq!(f.pread(fd, &mut b, 0), Err(FsError::PermissionDenied));
        f.release(fd).unwrap();
    }

    #[test]
    fn mkdir_and_nested_files() {
        let f = fs();
        f.mkdir("/d", 0o755).unwrap();
        f.mkdir("/d/e", 0o755).unwrap();
        f.write_file("/d/e/x", b"1").unwrap();
        assert_eq!(f.getattr("/d/e/x").unwrap().size, 1);
        assert_eq!(f.mkdir("/d", 0o755), Err(FsError::Exists));
    }

    #[test]
    fn mkdir_all_creates_chain() {
        let f = fs();
        f.mkdir_all("/a/b/c/d").unwrap();
        assert_eq!(f.getattr("/a/b/c/d").unwrap().kind, NodeKind::Dir);
        // Idempotent.
        f.mkdir_all("/a/b/c/d").unwrap();
    }

    #[test]
    fn mknod_kinds() {
        let f = fs();
        f.mknod("/fifo", NodeKind::Fifo, 0o644, 0).unwrap();
        f.mknod("/dev", NodeKind::CharDev, 0o600, 0x0102).unwrap();
        f.mknod("/plain", NodeKind::File, 0o644, 0).unwrap();
        assert_eq!(f.getattr("/fifo").unwrap().kind, NodeKind::Fifo);
        assert_eq!(f.getattr("/dev").unwrap().rdev, 0x0102);
        assert_eq!(f.getattr("/plain").unwrap().kind, NodeKind::File);
        assert_eq!(f.mknod("/dir", NodeKind::Dir, 0o755, 0), Err(FsError::InvalidArgument));
        assert_eq!(f.mknod("/fifo", NodeKind::Fifo, 0o644, 0), Err(FsError::Exists));
    }

    #[test]
    fn chmod_updates_mode() {
        let f = fs();
        f.write_file("/m", b"").unwrap();
        f.chmod("/m", 0o400).unwrap();
        assert_eq!(f.getattr("/m").unwrap().mode, 0o400);
        // Bits above 0o7777 masked off.
        f.chmod("/m", 0o170644).unwrap();
        assert_eq!(f.getattr("/m").unwrap().mode, 0o644);
    }

    #[test]
    fn truncate_by_path() {
        let f = fs();
        f.write_file("/t", b"0123456789").unwrap();
        f.truncate("/t", 4).unwrap();
        assert_eq!(f.read_to_vec("/t").unwrap(), b"0123");
        f.truncate("/t", 8).unwrap();
        assert_eq!(f.read_to_vec("/t").unwrap(), b"0123\0\0\0\0");
    }

    #[test]
    fn unlink_semantics() {
        let f = fs();
        f.write_file("/u", b"x").unwrap();
        f.unlink("/u").unwrap();
        assert_eq!(f.getattr("/u"), Err(FsError::NotFound));
        assert_eq!(f.unlink("/u"), Err(FsError::NotFound));
        f.mkdir("/d", 0o755).unwrap();
        assert_eq!(f.unlink("/d"), Err(FsError::IsADirectory));
    }

    #[test]
    fn unlink_while_open_keeps_data_until_release() {
        let f = fs();
        f.write_file("/u", b"alive").unwrap();
        let fd = f.open("/u", OpenFlags::read_only()).unwrap();
        f.unlink("/u").unwrap();
        let mut b = [0u8; 5];
        assert_eq!(f.pread(fd, &mut b, 0).unwrap(), 5);
        assert_eq!(&b, b"alive");
        f.release(fd).unwrap();
        assert_eq!(f.getattr("/u"), Err(FsError::NotFound));
    }

    #[test]
    fn rmdir_semantics() {
        let f = fs();
        f.mkdir("/d", 0o755).unwrap();
        f.write_file("/d/x", b"1").unwrap();
        assert_eq!(f.rmdir("/d"), Err(FsError::NotEmpty));
        f.unlink("/d/x").unwrap();
        f.rmdir("/d").unwrap();
        assert_eq!(f.getattr("/d"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let f = fs();
        f.write_file("/a", b"A").unwrap();
        f.write_file("/b", b"B").unwrap();
        f.rename("/a", "/c").unwrap();
        assert!(f.exists("/c"));
        assert!(!f.exists("/a"));
        // Replace existing target.
        f.rename("/c", "/b").unwrap();
        assert_eq!(f.read_to_vec("/b").unwrap(), b"A");
        // Into a directory.
        f.mkdir("/d", 0o755).unwrap();
        f.rename("/b", "/d/b").unwrap();
        assert_eq!(f.read_to_vec("/d/b").unwrap(), b"A");
    }

    #[test]
    fn readdir_sorted_and_typed() {
        let f = fs();
        f.mkdir("/dir", 0o755).unwrap();
        f.write_file("/zz", b"").unwrap();
        f.write_file("/aa", b"").unwrap();
        f.mknod("/ff", NodeKind::Fifo, 0o644, 0).unwrap();
        let names: Vec<_> = f.readdir("/").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["aa", "dir", "ff", "zz"]);
        assert_eq!(f.readdir("/zz"), Err(FsError::NotADirectory));
    }

    #[test]
    fn statfs_accounting() {
        let f = fs();
        f.write_file("/a", &[0u8; 100]).unwrap();
        f.write_file("/b", &[0u8; 50]).unwrap();
        let s = f.statfs().unwrap();
        assert_eq!(s.bytes_used, 150);
        assert_eq!(s.inodes, 3); // root + 2 files
        assert_eq!(s.block_size, BLOCK_SIZE as u64);
    }

    #[test]
    fn exclusive_lock_blocks_others() {
        let f = fs();
        f.write_file("/l", b"x").unwrap();
        let fd1 = f.open("/l", OpenFlags::read_write()).unwrap();
        let fd2 = f.open("/l", OpenFlags::read_only()).unwrap();
        f.lock(fd1, LockKind::Exclusive).unwrap();
        assert_eq!(f.lock(fd2, LockKind::Shared), Err(FsError::Locked));
        assert_eq!(f.lock(fd2, LockKind::Exclusive), Err(FsError::Locked));
        f.unlock(fd1).unwrap();
        f.lock(fd2, LockKind::Shared).unwrap();
        f.unlock(fd2).unwrap();
        f.release(fd1).unwrap();
        f.release(fd2).unwrap();
    }

    #[test]
    fn shared_locks_coexist_but_block_exclusive() {
        let f = fs();
        f.write_file("/l", b"x").unwrap();
        let fd1 = f.open("/l", OpenFlags::read_only()).unwrap();
        let fd2 = f.open("/l", OpenFlags::read_only()).unwrap();
        let fd3 = f.open("/l", OpenFlags::read_write()).unwrap();
        f.lock(fd1, LockKind::Shared).unwrap();
        f.lock(fd2, LockKind::Shared).unwrap();
        assert_eq!(f.lock(fd3, LockKind::Exclusive), Err(FsError::Locked));
        f.unlock(fd1).unwrap();
        assert_eq!(f.lock(fd3, LockKind::Exclusive), Err(FsError::Locked));
        f.unlock(fd2).unwrap();
        f.lock(fd3, LockKind::Exclusive).unwrap();
        for fd in [fd1, fd2, fd3] {
            f.release(fd).unwrap();
        }
    }

    #[test]
    fn release_drops_lock() {
        let f = fs();
        f.write_file("/l", b"x").unwrap();
        let fd1 = f.open("/l", OpenFlags::read_write()).unwrap();
        f.lock(fd1, LockKind::Exclusive).unwrap();
        f.release(fd1).unwrap();
        let fd2 = f.open("/l", OpenFlags::read_write()).unwrap();
        f.lock(fd2, LockKind::Exclusive).unwrap();
        f.release(fd2).unwrap();
    }

    #[test]
    fn bad_fd_everywhere() {
        let f = fs();
        let mut b = [0u8; 1];
        assert_eq!(f.read(999, &mut b), Err(FsError::BadFd));
        assert_eq!(f.pread(999, &mut b, 0), Err(FsError::BadFd));
        assert_eq!(f.write(999, &b), Err(FsError::BadFd));
        assert_eq!(f.pwrite(999, &b, 0), Err(FsError::BadFd));
        assert_eq!(f.fsync(999), Err(FsError::BadFd));
        assert_eq!(f.release(999), Err(FsError::BadFd));
        assert_eq!(f.lock(999, LockKind::Shared), Err(FsError::BadFd));
    }

    #[test]
    fn mtime_advances_monotonically() {
        let f = fs();
        f.write_file("/m", b"1").unwrap();
        let t1 = f.getattr("/m").unwrap().mtime;
        f.write_file("/m2", b"2").unwrap();
        let fd = f.open("/m", OpenFlags::write_only()).unwrap();
        f.pwrite(fd, b"x", 0).unwrap();
        f.release(fd).unwrap();
        let t2 = f.getattr("/m").unwrap().mtime;
        assert!(t2 > t1);
    }

    #[test]
    fn copy_tree_roundtrip() {
        let a = fs();
        a.mkdir("/d", 0o755).unwrap();
        a.write_file("/d/f1", b"one").unwrap();
        a.write_file("/top", b"two").unwrap();
        a.mknod("/pipe", NodeKind::Fifo, 0o644, 0).unwrap();
        let b = fs();
        copy_tree(&a, &b, "/").unwrap();
        assert_eq!(b.read_to_vec("/d/f1").unwrap(), b"one");
        assert_eq!(b.read_to_vec("/top").unwrap(), b"two");
        assert_eq!(b.getattr("/pipe").unwrap().kind, NodeKind::Fifo);
    }

    #[test]
    fn handles_leak_free() {
        let f = fs();
        f.write_file("/x", b"abc").unwrap();
        assert_eq!(f.open_handles(), 0);
        let fd = f.open("/x", OpenFlags::read_only()).unwrap();
        assert_eq!(f.open_handles(), 1);
        f.release(fd).unwrap();
        assert_eq!(f.open_handles(), 0);
    }

    #[test]
    fn fork_is_independent_and_cow() {
        let a = fs();
        a.mkdir("/d", 0o755).unwrap();
        a.write_file("/d/big", &[3u8; 5 * 4096]).unwrap();
        a.write_file("/top", b"golden").unwrap();

        let b = a.fork();
        // Identical view...
        assert_eq!(b.read_to_vec("/d/big").unwrap(), vec![3u8; 5 * 4096]);
        assert_eq!(b.read_to_string("/top").unwrap(), "golden");
        // ...with every data page still shared.
        assert!(b.shared_pages() >= 6);

        // Divergence is private in both directions.
        let fd = b.open("/d/big", OpenFlags::write_only()).unwrap();
        b.pwrite(fd, &[9u8; 4], 4096).unwrap();
        b.release(fd).unwrap();
        assert_eq!(a.read_to_vec("/d/big").unwrap()[4096], 3);
        assert_eq!(b.read_to_vec("/d/big").unwrap()[4096], 9);

        a.unlink("/top").unwrap();
        assert!(b.exists("/top"));
        assert!(!a.exists("/top"));

        // Namespace changes in the fork don't leak back.
        b.write_file("/only-in-b", b"x").unwrap();
        assert!(!a.exists("/only-in-b"));

        // A write un-shares what it touches and nothing else: of 2,000
        // files of four pages each, one byte costs one inode and one
        // page, whichever side of the fork writes it.
        let base = fs();
        for d in 0..20 {
            base.mkdir(&format!("/d{d}"), 0o755).unwrap();
            for f in 0..100 {
                base.write_file(&format!("/d{d}/f{f}"), &[d as u8; 4 * BLOCK_SIZE]).unwrap();
            }
        }
        let poke = |fs: &MemFs, path: &str| {
            let fd = fs.open(path, OpenFlags::write_only()).unwrap();
            fs.pwrite(fd, &[0xEE], BLOCK_SIZE as u64 + 5).unwrap();
            fs.release(fd).unwrap();
        };
        assert_eq!(base.shared_pages(), 0, "nothing to share with yet");
        let fork = base.fork();
        assert_eq!(unshared(&base, &fork), (0, 0));
        assert_eq!((base.shared_pages(), fork.shared_pages()), (8000, 8000));

        poke(&fork, "/d7/f42");
        assert_eq!(unshared(&base, &fork), (1, 1));
        assert_eq!((base.shared_pages(), fork.shared_pages()), (7999, 7999));
        assert_eq!(fork.read_to_vec("/d7/f42").unwrap()[BLOCK_SIZE + 5], 0xEE);
        assert_eq!(base.read_to_vec("/d7/f42").unwrap()[BLOCK_SIZE + 5], 7);

        poke(&base, "/d3/f9");
        assert_eq!(unshared(&base, &fork), (2, 2));
        assert_eq!((base.shared_pages(), fork.shared_pages()), (7998, 7998));
        assert_eq!(base.read_to_vec("/d3/f9").unwrap()[BLOCK_SIZE + 5], 0xEE);
        assert_eq!(fork.read_to_vec("/d3/f9").unwrap()[BLOCK_SIZE + 5], 3);

        // A fork that only opens, reads and releases copies nothing.
        let reader = base.fork();
        let fd = reader.open("/d0/f0", OpenFlags::read_only()).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(reader.read(fd, &mut buf).unwrap(), 16);
        reader.release(fd).unwrap();
        assert_eq!(unshared(&base, &reader), (0, 0));
        assert!(Arc::ptr_eq(&base.read_lock().inodes.0, &reader.read_lock().inodes.0));
    }

    /// How many inodes and how many file pages of `b` are no longer
    /// the very allocation `a` holds under the same inode number.
    fn unshared(a: &MemFs, b: &MemFs) -> (usize, usize) {
        let (ga, gb) = (a.read_lock(), b.read_lock());
        assert_eq!(ga.inodes.len(), gb.inodes.len());
        let (mut inodes, mut pages) = (0, 0);
        for (ino, nb) in gb.inodes.0.iter() {
            let na = &ga.inodes.0[ino];
            inodes += usize::from(!Arc::ptr_eq(na, nb));
            if let (Some(fa), Some(fb)) = (na.as_file(), nb.as_file()) {
                assert_eq!(fa.page_count(), fb.page_count());
                pages +=
                    fa.pages().iter().zip(fb.pages()).filter(|(x, y)| !Arc::ptr_eq(x, y)).count();
            }
        }
        (inodes, pages)
    }

    #[test]
    fn fork_preserves_open_handles_and_cursors() {
        let a = fs();
        a.write_file("/f", b"0123456789").unwrap();
        let fd = a.open("/f", OpenFlags::read_only()).unwrap();
        let mut buf = [0u8; 4];
        a.read(fd, &mut buf).unwrap(); // cursor now 4

        let b = a.fork();
        // The forked descriptor continues from the same cursor.
        let mut fb = [0u8; 3];
        assert_eq!(b.read(fd, &mut fb).unwrap(), 3);
        assert_eq!(&fb, b"456");
        // The original's cursor is unaffected by the fork's read.
        let mut fa = [0u8; 3];
        assert_eq!(a.read(fd, &mut fa).unwrap(), 3);
        assert_eq!(&fa, b"456");
        b.release(fd).unwrap();
        a.release(fd).unwrap();
    }

    #[test]
    fn fork_fd_allocation_stays_deterministic() {
        let a = fs();
        let fd1 = a.create("/x", 0o644).unwrap();
        a.release(fd1).unwrap();
        let b = a.fork();
        // Both sides allocate the same next descriptor independently.
        assert_eq!(a.create("/y", 0o644).unwrap(), b.create("/y", 0o644).unwrap());
    }

    #[test]
    fn image_roundtrip_preserves_full_state() {
        let a = fs();
        a.mkdir("/d", 0o750).unwrap();
        a.write_file("/d/big", &[3u8; 3 * BLOCK_SIZE + 100]).unwrap();
        a.mknod("/pipe", NodeKind::Fifo, 0o644, 7).unwrap();
        a.write_file("/del", b"gone but open").unwrap();
        let held = a.open("/del", OpenFlags::read_only()).unwrap();
        a.unlink("/del").unwrap(); // unlinked-while-open inode must survive the image
        let fd = a.open("/d/big", OpenFlags::read_write()).unwrap();
        let mut b4 = [0u8; 4];
        a.read(fd, &mut b4).unwrap(); // cursor now 4
        a.lock(fd, LockKind::Exclusive).unwrap();

        let mut pages: HashMap<[u8; 32], Vec<u8>> = HashMap::new();
        let image = a.export_image(&mut |page| {
            let h = crate::blobs::sha256(&page[..]);
            pages.insert(h, page.to_vec());
            h
        });
        let b = MemFs::import_image(&image, &mut |h| {
            pages.get(h).map(|bytes| {
                let mut p = [0u8; BLOCK_SIZE];
                p.copy_from_slice(bytes);
                Arc::new(p)
            })
        })
        .unwrap();

        // Deterministic encoding: re-exporting the reconstruction is
        // byte-identical, i.e. *every* piece of state round-tripped.
        let reexport = b.export_image(&mut |page| crate::blobs::sha256(&page[..]));
        assert_eq!(image, reexport);

        // Spot checks on behaviour, not just bytes.
        assert_eq!(b.snapshot("/d/big").unwrap(), a.snapshot("/d/big").unwrap());
        assert_eq!(b.getattr("/pipe").unwrap().rdev, 7);
        assert_eq!(b.getattr("/d").unwrap().mode, 0o750);
        let mut got = [0u8; 4];
        b.read(fd, &mut got).unwrap(); // continues from the imaged cursor
        assert_eq!(&got, &[3u8; 4]);
        let mut hidden = [0u8; 4];
        assert_eq!(b.pread(held, &mut hidden, 0).unwrap(), 4); // orphan inode restored
        let probe = b.open("/d/big", OpenFlags::read_write()).unwrap();
        assert_eq!(b.lock(probe, LockKind::Shared), Err(FsError::Locked));

        // Damage decodes to None, never to a half-restored filesystem.
        assert!(MemFs::import_image(&image[..image.len() - 1], &mut |_| None).is_none());
        let mut truncated = image.clone();
        truncated.truncate(10);
        assert!(MemFs::import_image(&truncated, &mut |_| None).is_none());
    }

    /// The reference model `MemFs` is checked against, written the
    /// naive way on purpose: whole-file byte vectors, a set of
    /// directory paths, and a fork that copies everything — no `Arc`,
    /// no pages, no inode table, so nothing two filesystems could
    /// alias. Files sit in numbered slots because an open descriptor
    /// outlives the file's name (unlink or rename while open).
    #[derive(Debug, Clone)]
    struct RefFs {
        /// Every directory path; always holds `/`.
        dirs: std::collections::BTreeSet<String>,
        /// File path → slot in `files`.
        names: BTreeMap<String, usize>,
        /// Contents by slot, never reclaimed. `None`: a rename replaced
        /// the file, which (unlike unlink) takes it from under its open
        /// descriptors at once.
        files: Vec<Option<Vec<u8>>>,
        handles: BTreeMap<Fd, RefHandle>,
        next_fd: Fd,
    }

    #[derive(Debug, Clone)]
    struct RefHandle {
        file: usize,
        flags: OpenFlags,
        cursor: u64,
    }

    impl RefFs {
        fn new() -> Self {
            RefFs {
                dirs: ["/".to_string()].into(),
                names: BTreeMap::new(),
                files: Vec::new(),
                handles: BTreeMap::new(),
                next_fd: 3,
            }
        }

        /// Walk `p`'s proper prefixes: all must be directories.
        fn parent_is_dir(&self, p: &str) -> FsResult<()> {
            for (i, _) in p.match_indices('/').skip(1) {
                let prefix = &p[..i];
                if self.names.contains_key(prefix) {
                    return Err(FsError::NotADirectory);
                }
                if !self.dirs.contains(prefix) {
                    return Err(FsError::NotFound);
                }
            }
            Ok(())
        }

        fn has_children(&self, dir: &str) -> bool {
            let under = format!("{dir}/");
            self.dirs.iter().chain(self.names.keys()).any(|p| p.starts_with(&under))
        }

        fn new_handle(&mut self, file: usize, flags: OpenFlags) -> Fd {
            let fd = self.next_fd;
            self.next_fd += 1;
            self.handles.insert(fd, RefHandle { file, flags, cursor: 0 });
            fd
        }

        fn new_file(&mut self, p: &str) -> usize {
            self.files.push(Some(Vec::new()));
            self.names.insert(p.to_string(), self.files.len() - 1);
            self.files.len() - 1
        }

        fn mkdir(&mut self, p: &str) -> FsResult<()> {
            self.parent_is_dir(p)?;
            if self.dirs.contains(p) || self.names.contains_key(p) {
                return Err(FsError::Exists);
            }
            self.dirs.insert(p.to_string());
            Ok(())
        }

        fn rmdir(&mut self, p: &str) -> FsResult<()> {
            self.parent_is_dir(p)?;
            if self.names.contains_key(p) {
                return Err(FsError::NotADirectory);
            }
            if !self.dirs.contains(p) {
                return Err(FsError::NotFound);
            }
            if self.has_children(p) {
                return Err(FsError::NotEmpty);
            }
            self.dirs.remove(p);
            Ok(())
        }

        fn unlink(&mut self, p: &str) -> FsResult<()> {
            self.parent_is_dir(p)?;
            if self.dirs.contains(p) {
                return Err(FsError::IsADirectory);
            }
            self.names.remove(p).map(|_| ()).ok_or(FsError::NotFound)
        }

        fn rename(&mut self, from: &str, to: &str) -> FsResult<()> {
            self.parent_is_dir(from)?;
            self.parent_is_dir(to)?;
            if !self.dirs.contains(from) && !self.names.contains_key(from) {
                return Err(FsError::NotFound);
            }
            if from == to {
                return Ok(());
            }
            if self.dirs.contains(to) {
                if self.has_children(to) {
                    return Err(FsError::NotEmpty);
                }
                self.dirs.remove(to);
            } else if let Some(slot) = self.names.remove(to) {
                self.files[slot] = None;
            }
            if let Some(slot) = self.names.remove(from) {
                self.names.insert(to.to_string(), slot);
                return Ok(());
            }
            let moved = |p: &str| match p.strip_prefix(from) {
                Some(rest) if rest.is_empty() || rest.starts_with('/') => format!("{to}{rest}"),
                _ => p.to_string(),
            };
            self.dirs = self.dirs.iter().map(|p| moved(p)).collect();
            self.names = self.names.iter().map(|(p, slot)| (moved(p), *slot)).collect();
            Ok(())
        }

        fn truncate(&mut self, p: &str, size: u64) -> FsResult<()> {
            self.parent_is_dir(p)?;
            if self.dirs.contains(p) {
                return Err(FsError::IsADirectory);
            }
            let slot = *self.names.get(p).ok_or(FsError::NotFound)?;
            self.files[slot].as_mut().expect("named files exist").resize(size as usize, 0);
            Ok(())
        }

        fn create(&mut self, p: &str) -> FsResult<Fd> {
            self.parent_is_dir(p)?;
            if self.dirs.contains(p) {
                return Err(FsError::IsADirectory);
            }
            let slot = match self.names.get(p) {
                Some(&slot) => {
                    self.files[slot].as_mut().expect("named files exist").clear();
                    slot
                }
                None => self.new_file(p),
            };
            Ok(self.new_handle(slot, OpenFlags::create_truncate()))
        }

        fn open(&mut self, p: &str, flags: OpenFlags) -> FsResult<Fd> {
            self.parent_is_dir(p)?;
            if self.dirs.contains(p) {
                return Err(FsError::IsADirectory);
            }
            let slot = match self.names.get(p) {
                Some(&slot) => slot,
                None if flags.create => self.new_file(p),
                None => return Err(FsError::NotFound),
            };
            if flags.truncate {
                self.files[slot].as_mut().expect("named files exist").clear();
            }
            Ok(self.new_handle(slot, flags))
        }

        fn bytes_at(bytes: &[u8], len: usize, offset: u64) -> Vec<u8> {
            let start = (offset as usize).min(bytes.len());
            bytes[start..(start + len).min(bytes.len())].to_vec()
        }

        fn put_at(bytes: &mut Vec<u8>, buf: &[u8], offset: u64) {
            let end = offset as usize + buf.len();
            if bytes.len() < end {
                bytes.resize(end, 0);
            }
            bytes[offset as usize..end].copy_from_slice(buf);
        }

        fn pread(&self, fd: Fd, len: usize, offset: u64) -> FsResult<Vec<u8>> {
            let h = self.handles.get(&fd).ok_or(FsError::BadFd)?;
            if !h.flags.read {
                return Err(FsError::PermissionDenied);
            }
            let bytes = self.files[h.file].as_ref().ok_or(FsError::BadFd)?;
            Ok(Self::bytes_at(bytes, len, offset))
        }

        fn read(&mut self, fd: Fd, len: usize) -> FsResult<Vec<u8>> {
            let cursor = self.handles.get(&fd).ok_or(FsError::BadFd)?.cursor;
            let got = self.pread(fd, len, cursor)?;
            self.handles.get_mut(&fd).expect("checked above").cursor += got.len() as u64;
            Ok(got)
        }

        fn pwrite(&mut self, fd: Fd, buf: &[u8], offset: u64) -> FsResult<usize> {
            let h = self.handles.get(&fd).ok_or(FsError::BadFd)?;
            if !h.flags.write {
                return Err(FsError::ReadOnly);
            }
            let bytes = self.files[h.file].as_mut().ok_or(FsError::BadFd)?;
            Self::put_at(bytes, buf, offset);
            Ok(buf.len())
        }

        fn write(&mut self, fd: Fd, buf: &[u8]) -> FsResult<usize> {
            let h = self.handles.get(&fd).ok_or(FsError::BadFd)?;
            let at = match (h.flags.append, &self.files[h.file]) {
                (true, Some(bytes)) => bytes.len() as u64,
                _ => h.cursor,
            };
            let n = self.pwrite(fd, buf, at)?;
            self.handles.get_mut(&fd).expect("checked above").cursor = at + n as u64;
            Ok(n)
        }

        fn release(&mut self, fd: Fd) -> FsResult<()> {
            self.handles.remove(&fd).map(|_| ()).ok_or(FsError::BadFd)
        }

        /// Every path below `/`: `None` for a directory, the bytes for
        /// a file.
        fn tree(&self) -> BTreeMap<String, Option<Vec<u8>>> {
            let dirs = self.dirs.iter().filter(|d| *d != "/").map(|d| (d.clone(), None));
            let files = self.names.iter().map(|(p, &slot)| (p.clone(), self.files[slot].clone()));
            dirs.chain(files).collect()
        }
    }

    /// `MemFs`'s side of [`RefFs::tree`], through `readdir`, `getattr`
    /// and `snapshot`.
    fn tree(fs: &MemFs, dir: &str, out: &mut BTreeMap<String, Option<Vec<u8>>>) {
        for entry in fs.readdir(dir).unwrap() {
            let p = format!("{}/{}", dir.trim_end_matches('/'), entry.name);
            if entry.kind == NodeKind::Dir {
                out.insert(p.clone(), None);
                tree(fs, &p, out);
            } else {
                let bytes = fs.snapshot(&p).unwrap();
                assert_eq!(fs.getattr(&p).unwrap().size, bytes.len() as u64, "{p}");
                out.insert(p, Some(bytes));
            }
        }
    }

    /// Names one to three levels deep over a three-letter alphabet, so
    /// the same path is a file in one step and a directory in another.
    fn model_path(rng: &mut proptest::TestRng) -> String {
        let depth = [1, 1, 1, 2, 2, 3][(rng.next_u64() % 6) as usize];
        (0..depth).map(|_| ["/a", "/b", "/c"][(rng.next_u64() % 3) as usize]).collect()
    }

    /// A descriptor of the model's, or now and then one nobody holds.
    fn model_fd(rng: &mut proptest::TestRng, model: &RefFs) -> Fd {
        let live: Vec<Fd> = model.handles.keys().copied().collect();
        if live.is_empty() || rng.next_u64().is_multiple_of(16) {
            return 999;
        }
        live[(rng.next_u64() % live.len() as u64) as usize]
    }

    /// Payloads up to a page and a half at offsets up to three pages,
    /// so writes straddle page boundaries and leave holes.
    fn model_payload(rng: &mut proptest::TestRng) -> (Vec<u8>, u64) {
        let len = 1 + (rng.next_u64() % 6000) as usize;
        (vec![rng.next_u64() as u8; len], rng.next_u64() % (3 * BLOCK_SIZE as u64))
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn forked_memfs_matches_the_naive_reference_model(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut live = vec![(MemFs::new(), RefFs::new())];
            for step in 0..200 {
                let at = (rng.next_u64() % live.len() as u64) as usize;
                let op = rng.next_u64() % 100;
                // Forks (of forks) taken, and dropped, at any point;
                // descriptors open at the fork are live on both sides.
                if op < 6 {
                    if live.len() < 5 {
                        let (fs, model) = &live[at];
                        let pair = (fs.fork(), model.clone());
                        live.push(pair);
                    }
                    continue;
                }
                if op < 9 {
                    if live.len() > 1 {
                        live.swap_remove(at);
                    }
                    continue;
                }
                let (fs, model) = &mut live[at];
                let what = match op {
                    9..=16 => {
                        let p = model_path(&mut rng);
                        prop_assert_eq!(fs.create(&p, 0o644), model.create(&p), "create {p}");
                        format!("create {p}")
                    }
                    17..=26 => {
                        let p = model_path(&mut rng);
                        let flags = [
                            OpenFlags::read_only(),
                            OpenFlags::read_write(),
                            OpenFlags::write_only(),
                            OpenFlags::append(),
                            OpenFlags::create_truncate(),
                            OpenFlags { read: true, truncate: true, ..OpenFlags::write_only() },
                        ][(rng.next_u64() % 6) as usize];
                        prop_assert_eq!(fs.open(&p, flags), model.open(&p, flags), "open {p}");
                        format!("open {p}")
                    }
                    27..=40 => {
                        let fd = model_fd(&mut rng, model);
                        let (buf, _) = model_payload(&mut rng);
                        prop_assert_eq!(fs.write(fd, &buf), model.write(fd, &buf), "write {fd}");
                        format!("write {fd}")
                    }
                    41..=54 => {
                        let fd = model_fd(&mut rng, model);
                        let (buf, off) = model_payload(&mut rng);
                        prop_assert_eq!(
                            fs.pwrite(fd, &buf, off), model.pwrite(fd, &buf, off), "pwrite {fd}"
                        );
                        format!("pwrite {fd} @{off}")
                    }
                    55..=60 => {
                        let fd = model_fd(&mut rng, model);
                        let mut buf = vec![0u8; 1 + (rng.next_u64() % 9000) as usize];
                        let got = fs.read(fd, &mut buf).map(|n| buf[..n].to_vec());
                        prop_assert_eq!(got, model.read(fd, buf.len()), "read {fd}");
                        format!("read {fd}")
                    }
                    61..=64 => {
                        let fd = model_fd(&mut rng, model);
                        let (mut buf, off) = model_payload(&mut rng);
                        let got = fs.pread(fd, &mut buf, off).map(|n| buf[..n].to_vec());
                        prop_assert_eq!(got, model.pread(fd, buf.len(), off), "pread {fd}");
                        format!("pread {fd} @{off}")
                    }
                    65..=70 => {
                        let p = model_path(&mut rng);
                        let size = rng.next_u64() % 10_000;
                        prop_assert_eq!(
                            fs.truncate(&p, size), model.truncate(&p, size), "truncate {p}"
                        );
                        format!("truncate {p} {size}")
                    }
                    71..=75 => {
                        let p = model_path(&mut rng);
                        prop_assert_eq!(fs.unlink(&p), model.unlink(&p), "unlink {p}");
                        format!("unlink {p}")
                    }
                    76..=81 => {
                        let (from, to) = (model_path(&mut rng), model_path(&mut rng));
                        // Moving a directory below itself detaches it
                        // from the root; neither side defines that.
                        if to.starts_with(&format!("{from}/")) {
                            continue;
                        }
                        prop_assert_eq!(
                            fs.rename(&from, &to), model.rename(&from, &to), "rename {from} {to}"
                        );
                        format!("rename {from} {to}")
                    }
                    82..=88 => {
                        let p = model_path(&mut rng);
                        prop_assert_eq!(fs.mkdir(&p, 0o755), model.mkdir(&p), "mkdir {p}");
                        format!("mkdir {p}")
                    }
                    89..=91 => {
                        let p = model_path(&mut rng);
                        prop_assert_eq!(fs.rmdir(&p), model.rmdir(&p), "rmdir {p}");
                        format!("rmdir {p}")
                    }
                    _ => {
                        let fd = model_fd(&mut rng, model);
                        prop_assert_eq!(fs.release(fd), model.release(fd), "release {fd}");
                        format!("release {fd}")
                    }
                };
                // One filesystem moved; every live one must still be
                // its own model — a write that leaks through a shared
                // inode or page shows on the side that did not move.
                for (i, (fs, model)) in live.iter().enumerate() {
                    let ctx = format!("step {step}, {what} on #{at}, seen from #{i}");
                    let mut seen = BTreeMap::new();
                    tree(fs, "/", &mut seen);
                    prop_assert_eq!(seen, model.tree(), "{ctx}: tree");
                    let cursors: BTreeMap<Fd, u64> =
                        fs.read_lock().handles.iter().map(|(fd, h)| (*fd, h.cursor)).collect();
                    let expect: BTreeMap<Fd, u64> =
                        model.handles.iter().map(|(fd, h)| (*fd, h.cursor)).collect();
                    prop_assert_eq!(cursors, expect, "{ctx}: cursors");
                    // Through the descriptors: files no name reaches.
                    for (&fd, h) in model.handles.iter().filter(|(_, h)| h.flags.read) {
                        let want = model.files[h.file].clone().ok_or(FsError::BadFd);
                        let mut buf = vec![0u8; want.as_ref().map_or(0, Vec::len) + 1];
                        let got = fs.pread(fd, &mut buf, 0).map(|n| buf[..n].to_vec());
                        prop_assert_eq!(got, want, "{ctx}: bytes behind fd {fd}");
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_writers_distinct_files() {
        use std::sync::Arc;
        let f = Arc::new(fs());
        let mut joins = Vec::new();
        for i in 0..8 {
            let f = Arc::clone(&f);
            joins.push(std::thread::spawn(move || {
                let p = format!("/t{}", i);
                f.write_file(&p, format!("data-{}", i).as_bytes()).unwrap();
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        for i in 0..8 {
            let p = format!("/t{}", i);
            assert_eq!(f.read_to_string(&p).unwrap(), format!("data-{}", i));
        }
    }
}
