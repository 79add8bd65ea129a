//! The crash flight recorder: a process-global black box.
//!
//! A retention and dump policy over one [`Recorder`]: while armed, the
//! process keeps the last minute of activity (at most 16 384 events) and
//! dumps it as JSON lines (`<dir>/flight.jsonl`, schema
//! `schemas/flight.schema.json`) when something goes wrong: the panic
//! hook, SIGUSR1, the typed ENOSPC/EIO degradation paths in the live
//! monitor, or a periodic persistence tick that keeps the last dump on
//! disk so even SIGKILL leaves a postmortem behind.
//!
//! The recorder is **global state** on purpose: the degradation paths
//! that most need to leave a black box behind (`core::live`'s spill
//! failures) sit many layers below anything that could plumb a handle
//! down, and a panic hook has no context at all. The fast path is one
//! relaxed atomic load when not installed — the default for every
//! embedded/test use — so library users never pay for it.
//!
//! Durability is deliberately std-only (temp file → fsync → rename →
//! dir-fsync, hand-rolled): `obs` sits below `core` in the crate graph,
//! so it cannot reuse `core::durable`.

use crate::recorder::{ObsEvent, Recorder, TimedEvent};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Ring capacity: at one event per batch plus lifecycle noise this covers
/// minutes of serving, bounded to a few MiB worst case.
const CAPACITY: usize = 16_384;

/// Recording window ("the last N seconds of activity").
const WINDOW: Duration = Duration::from_secs(60);

static ARMED: AtomicBool = AtomicBool::new(false);
static FLIGHT: Mutex<Flight> = Mutex::new(Flight {
    ring: Recorder::noop(),
    dir: None,
});

#[derive(Default)]
struct Flight {
    ring: Recorder,
    dir: Option<PathBuf>,
}

fn flight() -> MutexGuard<'static, Flight> {
    FLIGHT.lock().unwrap_or_else(|p| p.into_inner())
}

/// Arm (or re-arm) the process flight recorder with a fresh ring. `dir` is
/// where [`dump`] writes `flight.jsonl`; `None` keeps the ring in memory
/// only (dumps return `None`).
pub fn install(dir: Option<&Path>) {
    *flight() = Flight {
        ring: Recorder::bounded(CAPACITY, Some(WINDOW)),
        dir: dir.map(Path::to_path_buf),
    };
    ARMED.store(true, Ordering::Relaxed);
}

/// Disarm the recorder (tests). Subsequent [`record`] calls are no-ops.
pub fn uninstall() {
    ARMED.store(false, Ordering::Relaxed);
    *flight() = Flight::default();
}

#[inline]
pub fn installed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Events the ring evicted for capacity since it was armed.
pub fn dropped() -> u64 {
    flight().ring.dropped()
}

/// Record an event. The closure only runs when the recorder is installed,
/// so the uninstalled fast path is one atomic load.
#[inline]
pub fn record(f: impl FnOnce() -> ObsEvent) {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let event = f();
    flight().ring.emit(|| event);
}

/// Typed extra fields for the event kinds a postmortem cross-references
/// against other state (offsets against checkpoints, depths against
/// metrics). Everything else carries only `kind` + `detail`.
fn extras(event: &ObsEvent) -> String {
    match event {
        ObsEvent::OffsetCommit { tenant, offset } => format!(
            ",\"tenant\":{},\"offset\":{offset}",
            crate::json::escape(tenant)
        ),
        ObsEvent::QueueDepth { tenant, depth } => format!(
            ",\"tenant\":{},\"depth\":{depth}",
            crate::json::escape(tenant)
        ),
        _ => String::new(),
    }
}

/// Render events as `flight.jsonl` content: one JSON line per event plus
/// a trailing `FlightDump` marker naming the dump reason.
fn render(events: &[TimedEvent], reason: &str) -> String {
    let mut s = String::with_capacity(events.len() * 96 + 64);
    for e in events {
        s.push_str(&format!(
            "{{\"t_us\":{},\"kind\":\"{}\",\"detail\":{}{}}}\n",
            e.micros,
            e.event.kind(),
            crate::json::escape(&e.event.to_string()),
            extras(&e.event)
        ));
    }
    let t_us = events.last().map(|e| e.micros).unwrap_or(0);
    s.push_str(&format!(
        "{{\"t_us\":{t_us},\"kind\":\"FlightDump\",\"detail\":{}}}\n",
        crate::json::escape(&format!("flight dump: {reason} ({} events)", events.len()))
    ));
    s
}

/// The current ring (oldest first, within the window) as `flight.jsonl`
/// content.
pub fn dump_lines(reason: &str) -> String {
    let events = flight().ring.events();
    render(&events, reason)
}

/// Crash-atomically write the ring to `<dir>/flight.jsonl` (temp file →
/// fsync → rename → dir-fsync). Returns the path, or `None` when the
/// recorder is uninstalled or has no dump directory. Never panics — a
/// flight dump running *inside* the panic hook must not double-panic.
pub fn dump(reason: &str) -> Option<PathBuf> {
    let dir = flight().dir.clone()?;
    write_dump(&dir, &dump_lines(reason))
}

fn write_dump(dir: &Path, lines: &str) -> Option<PathBuf> {
    let path = dir.join("flight.jsonl");
    let tmp = dir.join(".flight.jsonl.tmp");
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(lines.as_bytes())?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &path)?;
        #[cfg(unix)]
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    };
    match write() {
        Ok(()) => Some(path),
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            None
        }
    }
}

/// Install a panic hook that records the panic and dumps the ring before
/// delegating to the previous hook. Idempotence is the caller's problem
/// (install once at process start); chaining keeps the default backtrace.
pub fn install_panic_hook() {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        record(|| ObsEvent::Diagnostic {
            detail: format!("panic: {info}"),
        });
        let _ = dump("panic");
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as TestMutex;

    /// The recorder is process-global; serialize the tests that install it.
    static TEST_LOCK: TestMutex<()> = TestMutex::new(());

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("purposectl-tests")
            .join(format!("flight-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn uninstalled_recording_is_a_noop() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        uninstall();
        let mut ran = false;
        record(|| {
            ran = true;
            ObsEvent::Diagnostic { detail: "x".into() }
        });
        assert!(!ran);
        assert!(flight().ring.events().is_empty());
        assert!(dump("test").is_none());
    }

    #[test]
    fn ring_bounds_and_dump_round_trip() {
        let dir = scratch("dump");
        let ring = Recorder::with_capacity(8);
        for i in 0..12u64 {
            ring.emit(|| ObsEvent::OffsetCommit {
                tenant: "demo".into(),
                offset: i,
            });
        }
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.events().len(), 8);
        ring.emit(|| ObsEvent::QueueDepth {
            tenant: "demo".into(),
            depth: 3,
        });
        let path = write_dump(&dir, &render(&ring.events(), "test")).expect("dump path");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // 8 ring events (one evicted by the QueueDepth push) + marker.
        assert_eq!(lines.len(), 8 + 1);
        for line in &lines {
            let doc = crate::parse_json(line).expect("flight line parses");
            assert!(doc.get("kind").and_then(|v| v.as_str()).is_some());
        }
        let last_commit = lines
            .iter()
            .rev()
            .map(|l| crate::parse_json(l).unwrap())
            .find(|d| d.get("kind").and_then(|v| v.as_str()) == Some("OffsetCommit"))
            .expect("an offset commit survives");
        assert_eq!(
            last_commit.get("offset").and_then(|v| v.as_f64()),
            Some(11.0)
        );
        assert!(text.contains("\"FlightDump\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
