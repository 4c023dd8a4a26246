//! The storage abstraction beneath the durability layer.
//!
//! The write-ahead journal and the checkpoint manager never touch the
//! filesystem directly: they speak to a [`Storage`] — a flat namespace of
//! named byte blobs with exactly the three durability primitives crash
//! safety needs:
//!
//! * **atomic replace** ([`Storage::write_atomic`]): the new content
//!   becomes visible all-or-nothing, even across `kill -9` (temp file +
//!   fsync + rename + directory fsync on disk);
//! * **durable append** ([`Storage::append`]): bytes are flushed to stable
//!   storage before the call returns, so a journal frame acknowledged is a
//!   journal frame recovered;
//! * **full read-back** ([`Storage::read`]) plus listing and removal for
//!   recovery and checkpoint retirement.
//!
//! Three implementations ship: [`DiskStorage`] (production, rooted at
//! `--data-dir`), [`MemStorage`] (fast deterministic tests), and
//! [`FailingStorage`] — the fault-injecting double that makes the
//! retry/backoff and degraded-mode paths testable without a flaky disk.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// A flat namespace of named byte blobs with crash-safe primitives.
///
/// Names are plain file names (no separators); the implementation decides
/// where they live. All mutating operations are durable when they return
/// `Ok`: an acknowledged write survives an immediate `kill -9`.
pub trait Storage: std::fmt::Debug {
    /// Reads the full content of `name`. `NotFound` if it does not exist.
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>>;

    /// Atomically replaces `name` with `bytes`: concurrent crashes leave
    /// either the old content or the new content, never a mix.
    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `name` (creating it if absent) and flushes to
    /// stable storage. A crash mid-append may leave a *prefix* of `bytes`
    /// — the journal's frame CRCs exist to detect exactly that.
    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()>;

    /// Whether `name` exists.
    fn exists(&mut self, name: &str) -> io::Result<bool>;

    /// All names currently stored, in ascending order.
    fn list(&mut self) -> io::Result<Vec<String>>;

    /// Removes `name`; removing an absent name is not an error.
    fn remove(&mut self, name: &str) -> io::Result<()>;
}

/// Production [`Storage`]: a directory on disk (`botmeterd --data-dir`).
///
/// `write_atomic` goes through the classic temp-file protocol — write to
/// `<name>.tmp`, `fsync` the file, rename over `<name>`, `fsync` the
/// directory — so a torn replace can never be observed. `append` opens in
/// append mode and `fsync`s before acknowledging. This helper is the
/// **only** sanctioned write path in `crates/daemon`; `scripts/check.sh`
/// rejects bare `fs::write` anywhere in the crate.
#[derive(Debug)]
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// Opens (creating if needed) the storage directory at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(DiskStorage { root })
    }

    /// The directory this storage lives in.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Flushes the directory entry itself so a rename is durable.
    fn sync_dir(&self) -> io::Result<()> {
        File::open(&self.root)?.sync_all()
    }
}

impl Storage for DiskStorage {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        // Sizes the buffer from the file's length before reading.
        std::fs::read(self.path(name))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.path(name))?;
        self.sync_dir()
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path(name))?;
        file.write_all(bytes)?;
        file.sync_all()
    }

    fn exists(&mut self, name: &str) -> io::Result<bool> {
        Ok(self.path(name).exists())
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(name)) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

/// In-memory [`Storage`] for deterministic tests: same semantics as
/// [`DiskStorage`] (atomic replace, append, listing) without touching the
/// filesystem. "Durability" is trivially the map itself.
#[derive(Debug, Default, Clone)]
pub struct MemStorage {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty in-memory storage.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Direct access to a stored blob — lets crash tests corrupt or
    /// truncate bytes in place, simulating torn writes.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Vec<u8>> {
        self.files.get_mut(name)
    }
}

impl Storage for MemStorage {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no blob {name:?}")))
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn exists(&mut self, name: &str) -> io::Result<bool> {
        Ok(self.files.contains_key(name))
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.files.remove(name);
        Ok(())
    }
}

/// Which [`Storage`] operation a [`FailingStorage`] fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// [`Storage::read`].
    Read,
    /// [`Storage::write_atomic`].
    WriteAtomic,
    /// [`Storage::append`].
    Append,
    /// [`Storage::exists`] / [`Storage::list`] / [`Storage::remove`].
    Other,
}

/// The fault-injecting [`Storage`] double.
///
/// Wraps an inner storage and fails operations according to a
/// deterministic plan: the next `n` operations of a kind return
/// `io::ErrorKind::Other` ("injected fault") *without* reaching the inner
/// storage. This is what makes the journal's retry/backoff observable in
/// tests — "fail the first two appends, succeed on the third" — and what
/// drives the degraded-mode path ("fail every append from now on").
#[derive(Debug)]
pub struct FailingStorage<S: Storage> {
    inner: S,
    fail_reads: u64,
    fail_writes: u64,
    fail_appends: u64,
    /// Total faults injected so far (all kinds).
    injected: u64,
}

impl<S: Storage> FailingStorage<S> {
    /// Wraps `inner` with no faults scheduled.
    pub fn new(inner: S) -> Self {
        FailingStorage {
            inner,
            fail_reads: 0,
            fail_writes: 0,
            fail_appends: 0,
            injected: 0,
        }
    }

    /// Schedules the next `n` appends to fail (use `u64::MAX` for "the
    /// journal is gone").
    pub fn fail_next_appends(&mut self, n: u64) {
        self.fail_appends = n;
    }

    /// Schedules the next `n` atomic writes to fail.
    pub fn fail_next_writes(&mut self, n: u64) {
        self.fail_writes = n;
    }

    /// Schedules the next `n` reads to fail.
    pub fn fail_next_reads(&mut self, n: u64) {
        self.fail_reads = n;
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// The wrapped storage.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn maybe_fail(&mut self, kind: OpKind) -> io::Result<()> {
        let budget = match kind {
            OpKind::Read => &mut self.fail_reads,
            OpKind::WriteAtomic => &mut self.fail_writes,
            OpKind::Append => &mut self.fail_appends,
            OpKind::Other => return Ok(()),
        };
        if *budget > 0 {
            *budget = budget.saturating_sub(1);
            self.injected += 1;
            return Err(io::Error::other("injected storage fault"));
        }
        Ok(())
    }
}

impl<S: Storage> Storage for FailingStorage<S> {
    fn read(&mut self, name: &str) -> io::Result<Vec<u8>> {
        self.maybe_fail(OpKind::Read)?;
        self.inner.read(name)
    }

    fn write_atomic(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.maybe_fail(OpKind::WriteAtomic)?;
        self.inner.write_atomic(name, bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> io::Result<()> {
        self.maybe_fail(OpKind::Append)?;
        self.inner.append(name, bytes)
    }

    fn exists(&mut self, name: &str) -> io::Result<bool> {
        self.maybe_fail(OpKind::Other)?;
        self.inner.exists(name)
    }

    fn list(&mut self) -> io::Result<Vec<String>> {
        self.maybe_fail(OpKind::Other)?;
        self.inner.list()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.maybe_fail(OpKind::Other)?;
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::new();
        assert!(!s.exists("a").unwrap());
        s.write_atomic("a", b"one").unwrap();
        s.append("a", b"+two").unwrap();
        assert_eq!(s.read("a").unwrap(), b"one+two");
        s.write_atomic("a", b"replaced").unwrap();
        assert_eq!(s.read("a").unwrap(), b"replaced");
        s.append("b", b"fresh").unwrap();
        assert_eq!(s.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        s.remove("a").unwrap();
        s.remove("a").unwrap(); // idempotent
        assert!(s.read("a").is_err());
    }

    #[test]
    fn disk_storage_round_trips() {
        let dir = std::env::temp_dir().join(format!("botmeter-storage-{}", std::process::id()));
        let mut s = DiskStorage::open(&dir).unwrap();
        s.write_atomic("ckpt", b"hello").unwrap();
        s.append("wal", b"frame1").unwrap();
        s.append("wal", b"frame2").unwrap();
        assert_eq!(s.read("ckpt").unwrap(), b"hello");
        assert_eq!(s.read("wal").unwrap(), b"frame1frame2");
        assert!(s.exists("wal").unwrap());
        let listed = s.list().unwrap();
        assert!(listed.contains(&"ckpt".to_string()) && listed.contains(&"wal".to_string()));
        s.remove("wal").unwrap();
        s.remove("wal").unwrap();
        assert!(!s.exists("wal").unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_storage_honours_its_schedule() {
        let mut s = FailingStorage::new(MemStorage::new());
        s.fail_next_appends(2);
        assert!(s.append("wal", b"x").is_err());
        assert!(s.append("wal", b"x").is_err());
        s.append("wal", b"x").unwrap();
        assert_eq!(s.injected(), 2);
        assert_eq!(s.read("wal").unwrap(), b"x", "failed ops never landed");
        s.fail_next_reads(1);
        assert!(s.read("wal").is_err());
        assert_eq!(s.read("wal").unwrap(), b"x");
    }
}
