//! `auditbench` — the purpose-control auditor's benchmark, in one command.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path auditbench/Cargo.toml -- \
//!     --workload <audit_dup|audit_models|serve_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its input from `--seed` before any timing,
//! measures for `--seconds`, checks every verdict against ground truth and
//! prints its metrics (see `report`). `--trace 0` gives the end-to-end
//! metrics; `--trace 1` adds spans around the calls into each layer and
//! gives the per-layer metrics. `--size tiny` shrinks every input for the
//! self-test. See `auditbench/README.md` for the metric → layer → workload
//! map.

mod batch;
mod churn;
mod dup;
mod models;
mod report;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker and client thread cap: at most two, and never more than the
/// machine has.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    /// Internal: write this run's generated input to `<path>.trail` and
    /// `<path>.truth` and exit (see [`load_input`]).
    pub generate: Option<PathBuf>,
    /// Internal: run one unit of work of a batch workload on the input at
    /// `--input`, print what it measured and exit (see `batch::Job`).
    pub job: Option<String>,
    pub input: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut generate = None;
    let mut job = None;
    let mut input = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--size" => {
                tiny = match value()?.as_str() {
                    "tiny" => true,
                    "full" => false,
                    other => return Err(format!("--size: expected tiny or full, got `{other}`")),
                }
            }
            "--generate" => generate = Some(PathBuf::from(value()?)),
            "--job" => job = Some(value()?),
            "--input" => input = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        tiny,
        generate,
        job,
        input,
    })
}

/// This process run again with the run's own arguments, for internal
/// modes (input generation, one unit of work of a batch workload).
pub fn own_command(args: &Args) -> Result<std::process::Command, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0"])
        .args(["--size", if args.tiny { "tiny" } else { "full" }]);
    Ok(cmd)
}

/// A run's generated input on disk, `<base>.trail` and `<base>.truth`,
/// kept for as long as the run needs it: cold batch workloads hand it to
/// the process of every pass. The files are removed on drop.
pub struct InputFiles {
    pub base: PathBuf,
}

impl InputFiles {
    /// Read the trail text and the ground-truth text.
    pub fn read(base: &Path) -> Result<(String, String), String> {
        let read = |ext: &str| {
            let path = base.with_extension(ext);
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        };
        Ok((read("trail")?, read("truth")?))
    }
}

impl Drop for InputFiles {
    fn drop(&mut self) {
        for ext in ["trail", "truth"] {
            let _ = std::fs::remove_file(self.base.with_extension(ext));
        }
    }
}

/// Generate this run's input in a child process and read it back: the
/// files, the trail text and the ground-truth text. Generation allocates
/// far more than the workload; in a child it leaves neither its peak
/// memory nor its heap behind in the measured process.
pub fn load_input(args: &Args) -> Result<(InputFiles, String, String), String> {
    let files = InputFiles {
        base: Path::new(OUT_DIR).join(format!("input-{}-{}", args.workload, std::process::id())),
    };
    let status = own_command(args)?
        .arg("--generate")
        .arg(&files.base)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot start the generator: {e}"))?;
    if !status.success() {
        return Err(format!("input generator failed: {status}"));
    }
    let (trail, truth) = InputFiles::read(&files.base)?;
    Ok((files, trail, truth))
}

/// Where runs write their results, traces and scratch files.
const OUT_DIR: &str = ".bench_out";

/// `setup_s`: seconds per set-up, from process definitions to ready.
///
/// Set-ups are timed in a process of their own, started before the input
/// exists, so the measured process's heap plays no part in them and they
/// play none in its peak memory. The measured process asks it for a
/// sample between passes, all through the run, so the set-ups see the
/// same machine as the rest of the run rather than one second of it.
/// `setup_s` is the fastest of all the batches: the host's neighbours
/// slow this small CPU-bound work by up to half for seconds at a time,
/// which moves the median between runs far more than the minimum, and
/// interference can only add time.
pub struct Setup {
    child: std::process::Child,
    ask: Option<std::process::ChildStdin>,
    answers: std::io::BufReader<std::process::ChildStdout>,
    line: String,
    per_call: Vec<f64>,
}

/// Target length of one timed set-up batch.
const SETUP_BATCH_S: f64 = 0.04;
/// Share of each pass's time spent timing set-ups after it.
pub const SETUP_SHARE: f64 = 0.1;

impl Setup {
    pub fn start(args: &Args) -> Result<Setup, String> {
        use std::process::Stdio;
        let mut child = own_command(args)?
            .args(["--job", "setup"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the set-up process: {e}"))?;
        let ask = child.stdin.take();
        let answers = child.stdout.take().map(std::io::BufReader::new);
        let answers = answers.ok_or("set-up process has no stdout")?;
        // Sized up front: buffers that grow between passes would be moved
        // into memory the passes freed, and change the peak of the next.
        Ok(Setup {
            child,
            ask,
            answers,
            line: String::with_capacity(1 << 16),
            per_call: Vec::with_capacity(1 << 13),
        })
    }

    /// Time set-ups for about `seconds`.
    pub fn sample(&mut self, seconds: f64) -> Result<(), String> {
        use std::io::{BufRead, Write};
        let lost = |e: std::io::Error| format!("set-up process: {e}");
        let ask = self.ask.as_mut().ok_or("set-up process closed")?;
        writeln!(ask, "{seconds}").map_err(lost)?;
        ask.flush().map_err(lost)?;
        self.line.clear();
        if self.answers.read_line(&mut self.line).map_err(lost)? == 0 {
            return Err(format!(
                "set-up process ended: {:?}",
                self.child.wait().map_err(lost)?
            ));
        }
        for v in self.line.split_whitespace() {
            let v = v
                .parse()
                .map_err(|_| format!("bad answer from the set-up process: `{v}`"))?;
            self.per_call.push(v);
        }
        Ok(())
    }

    /// The seconds per set-up of the fastest batch and the number of
    /// batches, once the set-up process has ended cleanly.
    pub fn finish(mut self) -> Result<(f64, usize), String> {
        drop(self.ask.take());
        let status = self
            .child
            .wait()
            .map_err(|e| format!("set-up process: {e}"))?;
        if !status.success() {
            return Err(format!("set-up process failed: {status}"));
        }
        let fastest = self.per_call.iter().copied().fold(f64::INFINITY, f64::min);
        Ok((fastest, self.per_call.len()))
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        // Closing its stdin ends the set-up process; wait for it.
        drop(self.ask.take());
        let _ = self.child.wait();
    }
}

/// The set-up process (`--job setup`): after one untimed set-up, which
/// pays one-time costs, reads a duration per line from stdin and answers
/// each with one line: the seconds per set-up of each batch it timed for
/// about that long, at least one. Set-ups run back to back in batches of
/// about `SETUP_BATCH_S`, at most `max_batch`; what a set-up returns is
/// torn down outside the timed batch.
pub fn serve_setups<T>(
    mut make: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
    max_batch: usize,
) -> Result<(), String> {
    use std::io::{BufRead, Write};
    let mut batch = 0;
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("stdin: {e}"))?;
        let seconds: f64 = line
            .trim()
            .parse()
            .map_err(|_| format!("bad duration `{line}`"))?;
        if batch == 0 {
            teardown(make()?)?;
            let mut one = f64::INFINITY;
            for _ in 0..5 {
                let t = Instant::now();
                let x = make()?;
                one = one.min(t.elapsed().as_secs_f64());
                teardown(x)?;
            }
            batch = ((SETUP_BATCH_S / one.max(1e-9)).ceil() as usize).clamp(1, max_batch);
        }
        let mut per_call = Vec::new();
        let start = Instant::now();
        while per_call.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let mut made = Vec::with_capacity(batch);
            let t = Instant::now();
            for _ in 0..batch {
                made.push(make()?);
            }
            per_call.push((t.elapsed().as_secs_f64() / batch as f64).to_string());
            for x in made {
                teardown(x)?;
            }
        }
        writeln!(out, "{}", per_call.join(" ")).map_err(|e| format!("stdout: {e}"))?;
        out.flush().map_err(|e| format!("stdout: {e}"))?;
    }
    Ok(())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit, when the working directory is the top of a git checkout.
fn commit() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top =
        git(&["rev-parse", "--show-toplevel"]).and_then(|t| PathBuf::from(t).canonicalize().ok());
    match (here, top) {
        (Some(h), Some(t)) if h == t => {
            git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
        }
        _ => "unknown (not a git checkout)".into(),
    }
}

/// FNV-1a of the running executable: identifies the build when no commit
/// is available.
fn build_id() -> String {
    let bytes = std::env::current_exe()
        .and_then(std::fs::read)
        .unwrap_or_default();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"workload\": {}, \"commit\": {}, \"build\": \"{}\", \"seed\": {}, \"nproc\": {nproc}, \
         \"threads\": {}, \"run_seconds\": {}, \"traced\": {}, \"size\": \"{}\"}}",
        obs::json::escape(&args.workload),
        obs::json::escape(&commit()),
        build_id(),
        args.seed,
        threads(),
        args.seconds,
        args.trace,
        if args.tiny { "tiny" } else { "full" },
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("auditbench: {e}");
            eprintln!(
                "usage: auditbench --workload <audit_dup|audit_models|serve_churn> \
                 --seed <n> --seconds <s> --trace <0|1> [--size tiny|full]"
            );
            std::process::exit(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("auditbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(2);
    }
    if let Some(base) = &args.generate {
        let (trail, truth) = match args.workload.as_str() {
            "audit_dup" => dup::input(args.seed, args.tiny),
            "audit_models" => models::input(args.seed, args.tiny),
            "serve_churn" => churn::input(args.seed, args.tiny),
            other => {
                eprintln!("auditbench: unknown workload `{other}`");
                std::process::exit(2);
            }
        };
        for (ext, text) in [("trail", trail), ("truth", truth)] {
            let path = base.with_extension(ext);
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("auditbench: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
        }
        return;
    }
    let spec = match args.workload.as_str() {
        "audit_dup" => Some(dup::spec()),
        "audit_models" => Some(models::spec(args.tiny)),
        _ => None,
    };
    if args.job.as_deref() == Some("setup") {
        let served = match &spec {
            // The auditor is dropped inside the timed batch: a batch of
            // them kept alive would time fresh memory being mapped in.
            Some(spec) => serve_setups(
                || {
                    drop(std::hint::black_box((spec.build)()));
                    Ok(())
                },
                |()| Ok(()),
                1000,
            ),
            None => churn::serve_setups(),
        };
        if let Err(e) = served {
            eprintln!("auditbench: {e}");
            std::process::exit(2);
        }
        return;
    }
    if let Some(job) = &args.job {
        let Some(spec) = &spec else {
            eprintln!("auditbench: `{}` has no --job mode", args.workload);
            std::process::exit(2);
        };
        std::process::exit(batch::job(spec, &args, job));
    }
    let tracer = trace::Tracer::new(args.trace);
    let mut run = match (&spec, args.workload.as_str()) {
        (Some(spec), _) => batch::run(spec, &args, &tracer),
        (None, "serve_churn") => churn::run(&args, &tracer, out_dir),
        (None, other) => {
            eprintln!("auditbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    // Cold batch workloads audit in child processes, which report their
    // own peak; the workload's peak is the larger.
    let peak = run.value("peak_rss_mb").unwrap_or(0.0).max(peak_rss_mb());
    run.set("peak_rss_mb", peak);
    if tracer.on() {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("auditbench: cannot write {}: {e}", path.display());
        }
    }
    let code = run.emit(&args, &provenance(&args), out_dir);
    std::process::exit(code);
}
