//! Crash-safe storage façade: fsync discipline for every persistent
//! artifact, with built-in fault injection.
//!
//! Before this module, `grep` found zero `sync_all` calls across the
//! spill store, the checkpoint writers and the snapshot cache: every
//! durable byte the system wrote sat in the page cache until the kernel
//! felt like flushing it, and spill-log compaction renamed a tmp file
//! that was never synced — a `kill -9` or power cut could tear
//! `spill.log`, per-case spill files, `.ckpt` checkpoints and `.pcas` snapshots. The
//! paper's whole value proposition is a-posteriori accountability; state
//! that evaporates with the machine is not evidence.
//!
//! Two primitives cover every persistence path:
//!
//! * [`atomic_write_sync`] — whole-file replacement with the full
//!   write → fsync → rename → parent-dir-fsync sequence, for checkpoint
//!   files (`PCLM`/`PCLS`/`.ckpt`), observability exports and anything
//!   else written in one shot. Under [`SyncPolicy::Never`] the syncs are
//!   skipped but the tmp + rename atomicity is kept: a reader never
//!   observes a half-written file, a crash at worst loses the newest
//!   version.
//! * [`DurableFile`] — an append-oriented handle for the spill log:
//!   positioned writes with policy-driven fsync ([`SyncPolicy::Always`]
//!   syncs every append, [`SyncPolicy::Batched`] every n-th,
//!   [`SyncPolicy::Never`] leaves flushing to the kernel).
//!
//! Fault injection is compiled in under `#[cfg(any(test, feature =
//! "chaos"))]` (see [`fault`]): a seeded [`fault::FaultPlan`] scoped to a
//! directory prefix makes the N-th durable operation under that prefix
//! fail with a short write, EIO or ENOSPC — or abort the process — so
//! every persistence path can be driven through disk failure and must
//! answer with a typed error, never a panic and never a wrong verdict.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// When durable writes reach the platter.
///
/// The knob every persistent surface honors, exposed as `--durability`
/// on `audit`/`watch`/`serve`:
///
/// * `Always` — fsync after every durable operation. Slowest, survives
///   power loss at any instant.
/// * `Batched(n)` — fsync every n-th spill-log append (whole-file
///   writes still sync once). The default: bounded loss window, near
///   `Never` throughput.
/// * `Never` — leave flushing to the kernel. Atomic renames still keep
///   files un-torn; a crash can lose recent state but never corrupts a
///   verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    Always,
    Batched(u64),
    Never,
}

/// Default append batch for [`SyncPolicy::Batched`].
pub const DEFAULT_SYNC_BATCH: u64 = 16;

impl Default for SyncPolicy {
    fn default() -> SyncPolicy {
        SyncPolicy::Batched(DEFAULT_SYNC_BATCH)
    }
}

impl SyncPolicy {
    /// Parse the `--durability` flag: `always`, `never`, `batched` or
    /// `batched:<n>`.
    pub fn parse(text: &str) -> Result<SyncPolicy, String> {
        match text {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            "batched" => Ok(SyncPolicy::Batched(DEFAULT_SYNC_BATCH)),
            other => match other.strip_prefix("batched:") {
                Some(n) => match n.parse::<u64>() {
                    Ok(n) if n >= 1 => Ok(SyncPolicy::Batched(n)),
                    _ => Err(format!("batched:<n> needs n >= 1, got `{n}`")),
                },
                None => Err(format!(
                    "`{other}` is not a durability policy (always | batched[:<n>] | never)"
                )),
            },
        }
    }

    /// Canonical rendering (inverse of [`SyncPolicy::parse`]).
    pub fn label(&self) -> String {
        match self {
            SyncPolicy::Always => "always".to_string(),
            SyncPolicy::Batched(n) => format!("batched:{n}"),
            SyncPolicy::Never => "never".to_string(),
        }
    }

    /// Whether whole-file writes should fsync under this policy.
    fn syncs(&self) -> bool {
        !matches!(self, SyncPolicy::Never)
    }
}

impl std::fmt::Display for SyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// `true` for the errors that mean "the disk is full" — the one failure
/// class the live monitor degrades through instead of surfacing (see
/// [`crate::live::LiveAuditor::evict`]): a case that cannot be spilled
/// stays resident, which costs memory but never a verdict.
pub fn is_no_space(e: &io::Error) -> bool {
    // ErrorKind::StorageFull is not stable on our MSRV; the raw errno is.
    e.raw_os_error() == Some(28) || e.to_string().contains("ENOSPC")
}

/// Write `bytes` to `path` atomically with policy-driven durability:
/// write a sibling tmp file, fsync it, rename over `path`, fsync the
/// parent directory (so the rename itself survives a crash). Returns the
/// number of fsyncs performed (0 under [`SyncPolicy::Never`]).
///
/// The tmp file is `<file name>.tmp-durable` in the same directory, so
/// the rename never crosses a filesystem boundary.
pub fn atomic_write_sync(path: &Path, bytes: &[u8], policy: SyncPolicy) -> io::Result<u64> {
    #[cfg(any(test, feature = "chaos"))]
    fault::check_write(path, bytes.len())?;
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp-durable");
    let tmp = dir.join(tmp_name);
    let mut fsyncs = 0u64;
    let outcome = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        if policy.syncs() {
            file.sync_all()?;
            fsyncs += 1;
        }
        drop(file);
        fs::rename(&tmp, path)?;
        if policy.syncs() {
            // Directory fsync makes the rename itself durable; failure to
            // *open* the directory (exotic filesystems) is not fatal — the
            // data file is already synced.
            if let Ok(d) = fs::File::open(&dir) {
                d.sync_all()?;
                fsyncs += 1;
            }
        }
        Ok(fsyncs)
    })();
    if outcome.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    outcome
}

/// Per-handle durability counters, folded into
/// [`crate::spill::SpillStats`] by the spill store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurableFileStats {
    /// `fsync` calls issued through this handle.
    pub fsyncs: u64,
    /// Faults injected into this handle's operations ([`fault`]).
    pub injected_faults: u64,
}

/// An append-oriented durable file handle: positioned writes with
/// policy-driven fsync. The spill log's storage primitive.
pub struct DurableFile {
    file: fs::File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Appends since the last fsync (the [`SyncPolicy::Batched`] clock).
    appends_since_sync: u64,
    stats: DurableFileStats,
}

impl DurableFile {
    /// Create (truncating any previous file) for read + write.
    pub fn create(path: &Path, policy: SyncPolicy) -> io::Result<DurableFile> {
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(path)?;
        Ok(DurableFile {
            file,
            path: path.to_path_buf(),
            policy,
            appends_since_sync: 0,
            stats: DurableFileStats::default(),
        })
    }

    /// Open an existing file for read + write (the compaction reopen).
    pub fn open(path: &Path, policy: SyncPolicy) -> io::Result<DurableFile> {
        let file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        Ok(DurableFile {
            file,
            path: path.to_path_buf(),
            policy,
            appends_since_sync: 0,
            stats: DurableFileStats::default(),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    pub fn stats(&self) -> DurableFileStats {
        self.stats
    }

    /// One durable append: write `buf` at `offset`, then sync per policy.
    /// An injected fault (under test/chaos builds) surfaces here as the
    /// same `io::Error` a failing disk would produce.
    pub fn write_at(&mut self, offset: u64, buf: &[u8]) -> io::Result<()> {
        #[cfg(any(test, feature = "chaos"))]
        if let Err(e) = fault::check_write(&self.path, buf.len()) {
            self.stats.injected_faults += 1;
            // A short write leaves real bytes behind — exactly the torn
            // tail the recovery scan must cope with.
            if let Some(partial) = fault::short_write_len(&e, buf.len()) {
                let _ = self
                    .file
                    .seek(SeekFrom::Start(offset))
                    .and_then(|_| self.file.write_all(&buf[..partial]));
            }
            return Err(e);
        }
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(buf)?;
        self.appends_since_sync += 1;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::Batched(n) => {
                if self.appends_since_sync >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(())
    }

    /// Positioned read into `buf`.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }

    /// Truncate to `len` — the torn-tail repair after a failed append.
    pub fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }

    /// Force an fsync now, regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.file.sync_all()?;
        self.stats.fsyncs += 1;
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// Deterministic disk-fault injection, compiled in for tests and
/// `--features chaos` builds only.
///
/// A [`FaultPlan`] is *scoped to a directory prefix*: only durable
/// operations on paths under the scope count toward (and suffer) the
/// fault, so concurrent tests with separate scratch directories never
/// interfere. Plans are armed process-globally ([`arm`]) and removed
/// with [`disarm`]/[`disarm_all`].
#[cfg(any(test, feature = "chaos"))]
pub mod fault {
    use std::io;
    use std::path::{Path, PathBuf};
    use std::sync::Mutex;

    /// What the injected failure looks like to the caller.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum FaultKind {
        /// Half the buffer reaches the file, then the write "fails" —
        /// the torn-write case recovery must truncate.
        ShortWrite,
        /// A plain I/O error (medium failure).
        Eio,
        /// Disk full (errno 28) — the one failure the live monitor
        /// degrades through instead of surfacing.
        Enospc,
        /// `std::process::abort()` — the crash-after-op-N probe for
        /// child-process harnesses.
        Crash,
    }

    /// One scheduled fault: the `at_op`-th durable write under `scope`
    /// fails with `kind`; with `persistent` every later write fails too
    /// (a full disk stays full).
    #[derive(Clone, Debug)]
    pub struct FaultPlan {
        pub scope: PathBuf,
        pub kind: FaultKind,
        pub at_op: u64,
        pub persistent: bool,
    }

    impl FaultPlan {
        pub fn new(scope: impl Into<PathBuf>, kind: FaultKind, at_op: u64) -> FaultPlan {
            FaultPlan {
                scope: scope.into(),
                kind,
                at_op: at_op.max(1),
                persistent: matches!(kind, FaultKind::Enospc),
            }
        }

        /// A seed-derived plan: splitmix64 picks the failing operation
        /// (1..=12) and the failure mode (crash excluded — that one is
        /// always explicit).
        pub fn seeded(scope: impl Into<PathBuf>, seed: u64) -> FaultPlan {
            let mut s = seed;
            let kind = match super::splitmix64(&mut s) % 3 {
                0 => FaultKind::ShortWrite,
                1 => FaultKind::Eio,
                _ => FaultKind::Enospc,
            };
            let at_op = super::splitmix64(&mut s) % 12 + 1;
            FaultPlan::new(scope, kind, at_op)
        }
    }

    struct Armed {
        plan: FaultPlan,
        ops: u64,
    }

    static ARMED: Mutex<Vec<Armed>> = Mutex::new(Vec::new());

    /// Injected faults fired so far, process-wide.
    static FIRED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

    /// Schedule a fault. Multiple plans (distinct scopes) may be armed.
    pub fn arm(plan: FaultPlan) {
        ARMED
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(Armed { plan, ops: 0 });
    }

    /// Remove every plan scoped under `scope`.
    pub fn disarm(scope: &Path) {
        ARMED
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .retain(|a| !a.plan.scope.starts_with(scope) && !scope.starts_with(&a.plan.scope));
    }

    pub fn disarm_all() {
        ARMED.lock().unwrap_or_else(|p| p.into_inner()).clear();
    }

    /// Total injected faults fired since process start.
    pub fn fired() -> u64 {
        FIRED.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Called by every durable write: counts the operation against any
    /// armed plan whose scope covers `path` and returns the scheduled
    /// failure when the counter hits.
    pub(super) fn check_write(path: &Path, _len: usize) -> io::Result<()> {
        let mut armed = ARMED.lock().unwrap_or_else(|p| p.into_inner());
        for a in armed.iter_mut() {
            if !path.starts_with(&a.plan.scope) {
                continue;
            }
            a.ops += 1;
            let hit = a.ops == a.plan.at_op || (a.plan.persistent && a.ops > a.plan.at_op);
            if !hit {
                continue;
            }
            FIRED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            return Err(match a.plan.kind {
                FaultKind::ShortWrite => {
                    io::Error::new(io::ErrorKind::WriteZero, "injected short write")
                }
                FaultKind::Eio => io::Error::other("injected EIO"),
                FaultKind::Enospc => io::Error::from_raw_os_error(28),
                FaultKind::Crash => std::process::abort(),
            });
        }
        Ok(())
    }

    /// For an injected short write, how many bytes actually to leave in
    /// the file (half the buffer) — `None` for other fault kinds.
    pub(super) fn short_write_len(e: &io::Error, len: usize) -> Option<usize> {
        (e.kind() == io::ErrorKind::WriteZero).then_some(len / 2)
    }
}

/// The splitmix64 step — the seed mixer shared by fault plans and the
/// crash harness schedules (no dependency on the vendored `rand`).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("durable-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn policy_parses_and_round_trips() {
        for (text, policy) in [
            ("always", SyncPolicy::Always),
            ("never", SyncPolicy::Never),
            ("batched", SyncPolicy::Batched(DEFAULT_SYNC_BATCH)),
            ("batched:4", SyncPolicy::Batched(4)),
        ] {
            assert_eq!(SyncPolicy::parse(text).unwrap(), policy);
            assert_eq!(SyncPolicy::parse(&policy.label()).unwrap(), policy);
        }
        assert!(SyncPolicy::parse("sometimes").is_err());
        assert!(SyncPolicy::parse("batched:0").is_err());
    }

    #[test]
    fn atomic_write_replaces_and_counts_fsyncs() {
        let dir = scratch("atomic");
        let path = dir.join("state.ckpt");
        let fsyncs = atomic_write_sync(&path, b"v1", SyncPolicy::Always).unwrap();
        assert!(fsyncs >= 1, "file fsync must happen");
        assert_eq!(fs::read(&path).unwrap(), b"v1");
        let fsyncs = atomic_write_sync(&path, b"v2", SyncPolicy::Never).unwrap();
        assert_eq!(fsyncs, 0);
        assert_eq!(fs::read(&path).unwrap(), b"v2");
        assert!(
            fs::read_dir(&dir).unwrap().count() == 1,
            "no tmp file left behind"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_policy_syncs_every_nth_append() {
        let dir = scratch("batched");
        let mut file = DurableFile::create(&dir.join("log"), SyncPolicy::Batched(3)).unwrap();
        for offset in 0..7 {
            file.write_at(offset, b"x").unwrap();
        }
        assert_eq!(file.stats().fsyncs, 2, "7 appends at n=3 -> 2 syncs");
        let mut always = DurableFile::create(&dir.join("log2"), SyncPolicy::Always).unwrap();
        always.write_at(0, b"x").unwrap();
        assert_eq!(always.stats().fsyncs, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_eio_surfaces_as_typed_error_not_panic() {
        let dir = scratch("fault-eio");
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::Eio, 1));
        let err = atomic_write_sync(&dir.join("x"), b"data", SyncPolicy::Always).unwrap_err();
        assert!(err.to_string().contains("injected EIO"));
        assert!(!dir.join("x").exists(), "failed write leaves no file");
        fault::disarm(&dir);
        atomic_write_sync(&dir.join("x"), b"data", SyncPolicy::Always).unwrap();
        assert_eq!(fs::read(dir.join("x")).unwrap(), b"data");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_tears_the_tail() {
        let dir = scratch("fault-short");
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::ShortWrite, 2));
        let mut file = DurableFile::create(&dir.join("log"), SyncPolicy::Never).unwrap();
        file.write_at(0, b"aaaa").unwrap();
        let err = file.write_at(4, b"bbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(file.stats().injected_faults, 1);
        fault::disarm(&dir);
        // Half the second write landed: the torn tail is real bytes.
        let on_disk = fs::read(dir.join("log")).unwrap();
        assert_eq!(on_disk, b"aaaabb");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_is_persistent_and_detectable() {
        let dir = scratch("fault-enospc");
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::Enospc, 1));
        for _ in 0..3 {
            let err = atomic_write_sync(&dir.join("x"), b"d", SyncPolicy::Never).unwrap_err();
            assert!(is_no_space(&err), "{err}");
        }
        fault::disarm(&dir);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_scope_does_not_leak_to_other_directories() {
        let dir = scratch("fault-scope");
        let other = scratch("fault-scope-other");
        fault::arm(fault::FaultPlan::new(&dir, fault::FaultKind::Eio, 1));
        atomic_write_sync(&other.join("x"), b"ok", SyncPolicy::Never).unwrap();
        fault::disarm(&dir);
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&other);
    }
}
