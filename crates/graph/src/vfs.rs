//! Virtual file layer for durability I/O, with deterministic storage
//! fault injection.
//!
//! Every byte the durability code persists — journal appends, snapshot
//! temp files and renames — flows through this module, so a single
//! [`IoFault`] schedule on the shared [`FaultInjector`] can make *any*
//! of those operations fail exactly as a full disk (ENOSPC), a flaky
//! device (EIO), a torn write, or a failed `fsync` would.
//!
//! ## fsyncgate semantics
//!
//! A failed `fsync` is not a retriable event: PostgreSQL's "fsyncgate"
//! established that on a failed fsync the kernel may drop the dirty
//! pages *and clear the error*, so a later fsync that succeeds proves
//! nothing about the earlier write. [`VfsFile`] therefore **poisons**
//! the handle on the first failed sync: every subsequent write or sync
//! through it fails until the file is reopened, forcing the caller
//! down the re-open + re-append repair path instead of the fatal
//! "retry and assume persisted" one.
//!
//! ## Crash cuts
//!
//! Every call here that takes a fault injector first counts itself
//! against the injector's crash schedule ([`FaultInjector::crash_at`]).
//! The cut call is where the process dies: a [`VfsFile::write_all`]
//! there persists the first half of its buffer — the torn record a real
//! crash mid-write leaves — and any other call persists nothing. From
//! the cut on, every call fails, so a dead process changes no file
//! name and no byte. Nothing above this module knows crashes exist.
//!
//! All functions return [`std::io::Result`] so callers keep their
//! existing `GraphError::Io` mapping; injected faults are ordinary
//! [`std::io::Error`]s whose messages carry an `injected` marker plus
//! the fault name.

use crate::faults::{FaultInjector, IoCut, IoFault};
use std::fs;
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

fn injected(fault: IoFault) -> io::Error {
    let detail = match fault {
        IoFault::Enospc => "no space left on device",
        IoFault::ReadErr => "input/output error on read",
        IoFault::WriteErr => "input/output error on write",
        IoFault::ShortWrite => "short write: device accepted only a prefix",
        IoFault::FsyncFail => "fsync failed: dirty pages in unknown state",
    };
    io::Error::other(format!("injected {} fault: {detail}", fault.name()))
}

fn poisoned_err(path: &Path) -> io::Error {
    io::Error::other(format!(
        "file handle for {} is poisoned by an earlier failed fsync; \
         the clean range is unknown — reopen the file before writing",
        path.display()
    ))
}

fn fires(faults: Option<&FaultInjector>, fault: IoFault) -> bool {
    faults.is_some_and(|f| f.take_io_fault(fault))
}

/// Count this call against the crash schedule (see the module docs).
fn cut(faults: Option<&FaultInjector>) -> IoCut {
    faults.map_or(IoCut::Alive, FaultInjector::on_io_op)
}

fn dead() -> io::Error {
    io::Error::other("injected crash cut: the process is dead")
}

/// Fail the call if the process died here or earlier.
fn alive(faults: Option<&FaultInjector>) -> io::Result<()> {
    match cut(faults) {
        IoCut::Alive => Ok(()),
        IoCut::Now | IoCut::Dead => Err(dead()),
    }
}

/// An open durability file. Wraps [`fs::File`] and consults the fault
/// injector on every write-side operation; carries the fsyncgate
/// poison bit (see the module docs).
#[derive(Debug)]
pub struct VfsFile {
    file: fs::File,
    path: PathBuf,
    poisoned: bool,
}

impl VfsFile {
    /// Open (or create) a file for appending, positioned at its end.
    pub fn open_append(path: &Path, faults: Option<&FaultInjector>) -> io::Result<VfsFile> {
        alive(faults)?;
        if fires(faults, IoFault::WriteErr) {
            return Err(injected(IoFault::WriteErr));
        }
        let file = fs::OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(path)?;
        Ok(VfsFile {
            file,
            path: path.to_path_buf(),
            poisoned: false,
        })
    }

    /// Create (truncating) a file for writing — the snapshot temp file.
    pub fn create(path: &Path, faults: Option<&FaultInjector>) -> io::Result<VfsFile> {
        alive(faults)?;
        if fires(faults, IoFault::Enospc) {
            return Err(injected(IoFault::Enospc));
        }
        let file = fs::File::create(path)?;
        Ok(VfsFile {
            file,
            path: path.to_path_buf(),
            poisoned: false,
        })
    }

    /// The underlying path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a failed fsync has poisoned this handle.
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Current file length in bytes.
    pub fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Read exactly `buf.len()` bytes from the start-relative reader
    /// position (used to validate magics on open).
    pub fn read_exact(&mut self, buf: &mut [u8], faults: Option<&FaultInjector>) -> io::Result<()> {
        alive(faults)?;
        if fires(faults, IoFault::ReadErr) {
            return Err(injected(IoFault::ReadErr));
        }
        (&self.file).read_exact(buf)
    }

    /// Append the whole buffer, honouring injected faults:
    /// [`IoFault::Enospc`] and [`IoFault::WriteErr`] fail before any
    /// byte lands; [`IoFault::ShortWrite`] — and a crash cut on this
    /// call — persist roughly half the buffer and then fail (a torn
    /// record for recovery to truncate).
    pub fn write_all(&mut self, buf: &[u8], faults: Option<&FaultInjector>) -> io::Result<()> {
        match cut(faults) {
            IoCut::Alive => {}
            IoCut::Now => {
                let _ = self.file.write_all(&buf[..buf.len() / 2]);
                return Err(dead());
            }
            IoCut::Dead => return Err(dead()),
        }
        if self.poisoned {
            return Err(poisoned_err(&self.path));
        }
        if fires(faults, IoFault::Enospc) {
            return Err(injected(IoFault::Enospc));
        }
        if fires(faults, IoFault::WriteErr) {
            return Err(injected(IoFault::WriteErr));
        }
        if fires(faults, IoFault::ShortWrite) {
            let torn = &buf[..buf.len() / 2];
            self.file.write_all(torn)?;
            let _ = self.file.sync_all();
            return Err(injected(IoFault::ShortWrite));
        }
        self.file.write_all(buf)
    }

    /// Flush to disk. On an injected [`IoFault::FsyncFail`] (or a real
    /// sync error) the handle is poisoned — see the module docs.
    pub fn sync(&mut self, faults: Option<&FaultInjector>) -> io::Result<()> {
        alive(faults)?;
        if self.poisoned {
            return Err(poisoned_err(&self.path));
        }
        if fires(faults, IoFault::FsyncFail) {
            self.poisoned = true;
            return Err(injected(IoFault::FsyncFail));
        }
        match self.file.sync_all() {
            Ok(()) => Ok(()),
            Err(e) => {
                // A real failed fsync gets the same fsyncgate treatment.
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Truncate the file to `len` bytes and fsync the truncation.
    pub fn set_len(&mut self, len: u64, faults: Option<&FaultInjector>) -> io::Result<()> {
        alive(faults)?;
        if self.poisoned {
            return Err(poisoned_err(&self.path));
        }
        if fires(faults, IoFault::WriteErr) {
            return Err(injected(IoFault::WriteErr));
        }
        self.file.set_len(len)
    }
}

/// Read a whole file (recovery-side replay).
pub fn read(path: &Path, faults: Option<&FaultInjector>) -> io::Result<Vec<u8>> {
    alive(faults)?;
    if fires(faults, IoFault::ReadErr) {
        return Err(injected(IoFault::ReadErr));
    }
    fs::read(path)
}

/// Read a whole file as UTF-8 text (snapshot load).
pub fn read_to_string(path: &Path, faults: Option<&FaultInjector>) -> io::Result<String> {
    alive(faults)?;
    if fires(faults, IoFault::ReadErr) {
        return Err(injected(IoFault::ReadErr));
    }
    fs::read_to_string(path)
}

/// Create a directory and all its parents (data-dir setup).
pub fn create_dir_all(dir: &Path, faults: Option<&FaultInjector>) -> io::Result<()> {
    alive(faults)?;
    if fires(faults, IoFault::Enospc) {
        return Err(injected(IoFault::Enospc));
    }
    fs::create_dir_all(dir)
}

/// List a directory's entry paths, sorted for deterministic iteration
/// (stray-tmp sweeps).
pub fn read_dir_sorted(dir: &Path, faults: Option<&FaultInjector>) -> io::Result<Vec<PathBuf>> {
    alive(faults)?;
    if fires(faults, IoFault::ReadErr) {
        return Err(injected(IoFault::ReadErr));
    }
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    Ok(entries)
}

/// Atomically rename `from` onto `to` (the snapshot publish step).
pub fn rename(from: &Path, to: &Path, faults: Option<&FaultInjector>) -> io::Result<()> {
    alive(faults)?;
    if fires(faults, IoFault::WriteErr) {
        return Err(injected(IoFault::WriteErr));
    }
    fs::rename(from, to)
}

/// Remove a file (stray-tmp cleanup).
pub fn remove_file(path: &Path, faults: Option<&FaultInjector>) -> io::Result<()> {
    alive(faults)?;
    if fires(faults, IoFault::WriteErr) {
        return Err(injected(IoFault::WriteErr));
    }
    fs::remove_file(path)
}

/// Truncate the file at `path` to `len` bytes and fsync the result
/// (torn-tail repair).
pub fn truncate(path: &Path, len: u64, faults: Option<&FaultInjector>) -> io::Result<()> {
    alive(faults)?;
    if fires(faults, IoFault::WriteErr) {
        return Err(injected(IoFault::WriteErr));
    }
    let file = fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(len)?;
    file.sync_all()
}

/// Best-effort fsync of a directory (after a rename into it).
pub fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("co_graph_vfs_{name}"));
        let _ = fs::remove_file(&path);
        path
    }

    #[test]
    fn plain_io_round_trips() {
        let path = tmp("plain");
        let mut f = VfsFile::create(&path, None).unwrap();
        f.write_all(b"hello", None).unwrap();
        f.sync(None).unwrap();
        assert_eq!(f.len().unwrap(), 5);
        assert!(!f.is_empty().unwrap());
        drop(f);
        assert_eq!(read(&path, None).unwrap(), b"hello");
        let renamed = tmp("plain_renamed");
        rename(&path, &renamed, None).unwrap();
        remove_file(&renamed, None).unwrap();
    }

    #[test]
    fn enospc_fails_without_writing() {
        let path = tmp("enospc");
        let mut f = VfsFile::create(&path, None).unwrap();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::Enospc, 1);
        let err = f.write_all(b"payload", Some(&faults)).unwrap_err();
        assert!(err.to_string().contains("enospc"), "{err}");
        assert_eq!(f.len().unwrap(), 0, "no byte may land");
        f.write_all(b"payload", Some(&faults)).unwrap();
        assert_eq!(f.len().unwrap(), 7);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn short_write_persists_a_prefix() {
        let path = tmp("short");
        let mut f = VfsFile::create(&path, None).unwrap();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::ShortWrite, 1);
        assert!(f.write_all(b"0123456789", Some(&faults)).is_err());
        assert_eq!(f.len().unwrap(), 5, "exactly the torn prefix");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_fsync_poisons_the_handle() {
        let path = tmp("fsyncgate");
        let mut f = VfsFile::create(&path, None).unwrap();
        f.write_all(b"clean", None).unwrap();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::FsyncFail, 1);
        assert!(f.sync(Some(&faults)).is_err());
        assert!(f.is_poisoned());
        // The fault budget is spent, but the poison persists: no write
        // or sync may ever "retry and assume persisted".
        assert!(f.write_all(b"more", Some(&faults)).is_err());
        assert!(f.sync(Some(&faults)).is_err());
        assert!(f.set_len(0, Some(&faults)).is_err());
        // Reopening the path yields a clean handle.
        let mut reopened = VfsFile::open_append(&path, Some(&faults)).unwrap();
        assert!(!reopened.is_poisoned());
        reopened.write_all(b"!", Some(&faults)).unwrap();
        reopened.sync(Some(&faults)).unwrap();
        fs::remove_file(&path).ok();
    }

    #[test]
    fn crash_cut_tears_the_write_and_kills_every_later_call() {
        let path = tmp("crash_cut");
        let faults = FaultInjector::new();
        faults.crash_at(2); // create = 0, first write = 1, second write = 2
        let mut f = VfsFile::create(&path, Some(&faults)).unwrap();
        f.write_all(b"0123", Some(&faults)).unwrap();
        assert!(f.write_all(b"456789", Some(&faults)).is_err());
        assert!(faults.crashed());
        assert_eq!(f.len().unwrap(), 7, "the cut write lands half its buffer");
        assert!(f.sync(Some(&faults)).is_err());
        assert!(
            f.write_all(b"x", Some(&faults)).is_err(),
            "dead: no byte lands"
        );
        assert!(remove_file(&path, Some(&faults)).is_err());
        assert_eq!(read(&path, None).unwrap(), b"0123456");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn read_err_hits_reads_only() {
        let path = tmp("readerr");
        fs::write(&path, b"data").unwrap();
        let faults = FaultInjector::new();
        faults.arm_io_fault(IoFault::ReadErr, 1);
        assert!(read(&path, Some(&faults)).is_err());
        assert_eq!(read(&path, Some(&faults)).unwrap(), b"data");
        fs::remove_file(&path).ok();
    }
}
