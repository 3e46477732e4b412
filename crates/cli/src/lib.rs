//! # orpheus-cli
//!
//! The `orpheus` command-line client (Section 2.2 of the paper): git-style
//! version control commands plus versioned SQL, with **durable sessions** —
//! the instance state is loaded from and saved back to a snapshot file, so
//! separate invocations see the same CVDs, exactly like the paper's client
//! talking to a persistent PostgreSQL.
//!
//! ```text
//! orpheus --db team.orpheus init protein -f data.csv -s schema.txt
//! orpheus --db team.orpheus checkout protein -v 1 -t work
//! orpheus --db team.orpheus run "SELECT count(*) FROM VERSION 1 OF CVD protein"
//! orpheus --db team.orpheus repl        # interactive session
//! orpheus --db team.orpheus --batch script.txt   # a script as ONE batch
//! orpheus --db team.orpheus --as alice --batch script.txt
//! orpheus --db team.orpheus --serve 127.0.0.1:7617   # run as a service
//! orpheus --connect 127.0.0.1:7617 --as alice ls     # ...and talk to it
//! ```
//!
//! Without `--db` the client runs against a fresh in-memory instance that
//! lives for the duration of the invocation (useful with `repl` and for
//! demos). Command lines are parsed into typed
//! [`orpheus_core::Request`]s by [`orpheus_core::commands`] and executed
//! over the command bus ([`orpheus_core::Executor`]); this crate adds
//! argument handling, [`Response`] rendering, and
//! the load/save lifecycle.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use orpheus_core::commands::{parse_command, run_command, FileAccess, RealFiles};
use orpheus_core::{recovery, CoreError, Executor, OrpheusDB, Response, Result, SharedOrpheusDB};
use orpheus_net::{NetServer, RemoteExecutor, RetryPolicy, DEFAULT_TIMEOUT};

mod render;

pub use render::{format_result, render_response};

/// Parsed invocation: global options plus the command words.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Invocation {
    /// Snapshot file backing this session, if any.
    pub db_path: Option<PathBuf>,
    /// Write-ahead-logged durability directory: the instance is opened
    /// with [`orpheus_core::recovery::open`] (snapshot + log replay) and
    /// every mutation is fsync'd to the log before it is acknowledged.
    /// Mutually exclusive with `--db` (the directory holds its own
    /// snapshots) and `--connect` (durability lives on the server).
    pub wal_dir: Option<PathBuf>,
    /// Run as this user through a concurrent session (per-CVD locking)
    /// instead of driving the instance directly.
    pub user: Option<String>,
    /// Script file submitted as one [`Executor::batch`] call instead of a
    /// command.
    pub batch: Option<PathBuf>,
    /// Listen for remote clients on this address instead of running a
    /// command; the process serves until stdin closes (or says `exit`).
    pub serve: Option<String>,
    /// Drive the command, REPL, or batch script against a remote server
    /// at this address instead of a local instance.
    pub connect: Option<String>,
    /// Reconnect budget for `--connect`: how many times a dropped
    /// connection is re-established (with capped exponential backoff and
    /// in-flight replay) before giving up. `None` uses the default
    /// [`RetryPolicy`]; `Some(0)` disables reconnecting entirely.
    pub retry: Option<u32>,
    /// The command line to run (empty means "show help").
    pub command: Vec<String>,
}

/// Parse argv (without the program name) into an [`Invocation`].
///
/// Recognized global flags, which must precede the command:
/// `--db <path>` / `-d <path>`, `--wal <dir>` / `-w <dir>`,
/// `--as <user>` / `-u <user>`, `--batch <file>` / `-b <file>`,
/// `--serve <addr>`, `--connect <addr>` / `-c <addr>`, `--retry <n>`,
/// `--help` / `-h`, `--version` / `-V`.
pub fn parse_args(args: &[String]) -> Result<Invocation> {
    let mut inv = Invocation::default();
    let mut i = 0;
    // Global flags precede the command; command names never start with '-'.
    while i < args.len() && args[i].starts_with('-') {
        // The word after the flag, or an error saying what it needs.
        let value = |needs: &str| {
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| CoreError::parse_line(needs))
        };
        match args[i].as_str() {
            "--db" | "-d" => inv.db_path = Some(value("--db needs a path")?.into()),
            "--wal" | "-w" => inv.wal_dir = Some(value("--wal needs a directory")?.into()),
            "--as" | "-u" => inv.user = Some(value("--as needs a user name")?),
            "--batch" | "-b" => inv.batch = Some(value("--batch needs a script file")?.into()),
            "--serve" => inv.serve = Some(value("--serve needs an address")?),
            "--connect" | "-c" => inv.connect = Some(value("--connect needs an address")?),
            "--retry" => {
                let n = value("--retry needs a reconnect count")?;
                inv.retry = Some(n.parse::<u32>().map_err(|_| {
                    CoreError::parse_line(format!("--retry needs a number, got {n:?}"))
                })?);
            }
            "--help" | "-h" => {
                inv.command = vec!["help".into()];
                return Ok(inv);
            }
            "--version" | "-V" => {
                inv.command = vec!["version".into()];
                return Ok(inv);
            }
            flag => {
                return Err(CoreError::parse_line(format!("unknown global flag {flag}")));
            }
        }
        // Every flag that did not return takes one value.
        i += 2;
    }
    inv.command = args[i..].to_vec();
    Ok(inv)
}

/// Period of the `--serve --wal` checkpoint ticker: every 5 s it folds a
/// log grown past 4 MiB into a fresh snapshot.
const CHECKPOINT_TICK_MS: u64 = 5_000;

/// Help text shown by `orpheus help` (and an empty invocation).
pub const HELP: &str = "\
orpheus — bolt-on dataset versioning (OrpheusDB, VLDB 2017)

usage: orpheus [--db <snapshot>] <command> [args...]

version control commands:
  init <cvd> -f <data.csv> -s <schema.txt> [-model <m>]
                                    create a CVD from a CSV file
  checkout <cvd> -v <vids...> -t <table>   materialize version(s) as a table
  checkout <cvd> -v <vids...> -f <file>    ...or as a CSV file
  commit -t <table> [-m <msg>]             commit a staged table
  commit -f <file> [-s <schema>] [-m <msg>]  commit a CSV file
  diff <cvd> -v <v1> <v2>                  records in one version not the other
  log <cvd>                                version history with messages
  ls                                       list CVDs
  drop <cvd>                               remove a CVD
  discard <table>                          abandon a staged checkout
  optimize <cvd> [-gamma <g>] [-mu <m>]    run the LyreSplit partitioner

sql:
  run <sql>            plain SQL, plus `VERSION n OF CVD x` / `CVD x`

users:
  create_user <name> | config <name> | whoami

session:
  repl                 interactive prompt (exit with `exit` or Ctrl-D)
  help | version

The --db flag makes sessions durable: state is loaded from the snapshot
before the command and saved back afterwards. Without it, state lives only
for this invocation.

The --wal <dir> flag makes sessions crash-durable: the instance is opened
from the directory's latest snapshot plus a replay of its write-ahead
log, and every mutation is fsync'd to the log before it is acknowledged —
kill -9 at any point loses nothing that was acknowledged. The log is
periodically folded into a fresh snapshot (checkpoint) once it outgrows
4 MiB; under --serve, a background ticker checks every 5 seconds.
Mutually exclusive with --db (the directory keeps its own snapshots) and
--connect (durability lives on the server). Composes with --serve, --as,
and --batch.

The --as <user> flag runs the command through a concurrent session under
that identity (registering the account if needed) — the same per-CVD
locked executor a multi-user deployment uses, so checkout ownership is
attributed to <user> rather than the instance identity.

The --batch <file> flag submits a script — one command per line, `#`
comments and blank lines skipped — as a single batch. Under --connect
the batch is one submission, run request by request on one server
worker; otherwise it runs line by line. Responses come back in script
order; a failing line is reported with its line number and does not
abort the lines after it.

network service:
  --serve <addr>       listen for remote clients (port 0 picks a free
                       port; the resolved address is printed first). The
                       process serves until stdin closes or says `exit`,
                       then drains in-flight work and saves the snapshot.
                       Under --wal, typing `checkpoint` on stdin folds
                       the log into a fresh snapshot on demand — the
                       operator path out of read-only degraded mode
                       after a disk fault.
  --connect <addr>     run the command, REPL, or --batch script against
                       a server instead of a local instance. Composes
                       with --as (the connection identity) but not with
                       --db or --wal: the snapshot and the log live on
                       the server. Dropped connections
                       are re-established with capped exponential
                       backoff and in-flight requests are replayed
                       idempotently (the server dedups by session +
                       request id).
  --retry <n>          reconnect budget for --connect: how many times a
                       dropped connection is re-established before the
                       client gives up (default 8; 0 disables
                       reconnecting).
Per connection, responses always come back in submission order — even
though the server overlaps execution across shards and clients.";

/// Load the session instance: the snapshot if it exists, otherwise fresh.
fn open_session(inv: &Invocation) -> Result<OrpheusDB> {
    match &inv.db_path {
        Some(p) if p.exists() => OrpheusDB::load_from(p),
        _ => Ok(OrpheusDB::new()),
    }
}

/// Persist the session back to the snapshot, if one was requested.
fn close_session(inv: &Invocation, odb: &OrpheusDB) -> Result<()> {
    match &inv.db_path {
        Some(p) => odb.save_to(p),
        None => Ok(()),
    }
}

fn print_output(out: &mut dyn Write, response: &Response) -> std::io::Result<()> {
    let text = render_response(response);
    if !text.is_empty() {
        write!(out, "{text}")?;
    }
    Ok(())
}

/// Top-level entry point, testable with in-memory streams.
///
/// `interactive` controls whether the REPL prints prompts. Errors from
/// individual REPL lines go to `err` and do not abort the session; errors
/// from one-shot commands are returned.
pub fn run(
    args: &[String],
    interactive: bool,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> Result<()> {
    let inv = parse_args(args)?;
    let io_err = |e: std::io::Error| CoreError::Io(e.to_string());

    if inv.serve.is_some() {
        if inv.connect.is_some() {
            return Err(CoreError::parse_line(
                "--serve and --connect are mutually exclusive",
            ));
        }
        if inv.batch.is_some() || !inv.command.is_empty() {
            return Err(CoreError::parse_line(
                "--serve runs until stdin closes; it takes no command",
            ));
        }
    }
    if inv.connect.is_some() {
        if inv.db_path.is_some() {
            return Err(CoreError::parse_line(
                "--connect talks to a server; the snapshot lives there (drop --db)",
            ));
        }
        if inv.wal_dir.is_some() {
            return Err(CoreError::parse_line(
                "--connect talks to a server; durability lives there (drop --wal)",
            ));
        }
    }
    if inv.wal_dir.is_some() && inv.db_path.is_some() {
        return Err(CoreError::parse_line(
            "--wal and --db are mutually exclusive; the WAL directory keeps its own snapshots",
        ));
    }

    let first = inv.command.first().map(|s| s.as_str()).unwrap_or("help");
    if inv.batch.is_none() && inv.serve.is_none() {
        match first {
            "help" => {
                writeln!(out, "{HELP}").map_err(io_err)?;
                return Ok(());
            }
            "version" => {
                writeln!(out, "orpheus {}", env!("CARGO_PKG_VERSION")).map_err(io_err)?;
                return Ok(());
            }
            _ => {}
        }
    } else if !inv.command.is_empty() {
        return Err(CoreError::parse_line(
            "--batch replaces the command; drop the extra words",
        ));
    }
    let batch_script = match &inv.batch {
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| {
            CoreError::Io(format!("cannot read batch script {}: {e}", path.display()))
        })?),
        None => None,
    };

    // --serve: put a NetServer in front of the (snapshot-backed) instance
    // and block until stdin closes or says `exit` — script- and
    // CI-friendly (close the pipe to stop the server). The resolved
    // address prints first so `--serve 127.0.0.1:0` is usable.
    if let Some(addr) = &inv.serve {
        let shared = match &inv.wal_dir {
            Some(dir) => recovery::open_shared(dir)?,
            None => SharedOrpheusDB::new(open_session(&inv)?),
        };
        let server = NetServer::bind(addr.as_str(), shared.clone())?;
        writeln!(out, "listening on {}", server.local_addr()).map_err(io_err)?;
        out.flush().map_err(io_err)?;
        // In WAL mode, a background ticker rotates the log into a fresh
        // snapshot whenever it outgrows the checkpoint threshold, so a
        // long-lived server's recovery replay stays bounded. Durability
        // never depends on the ticker — every mutation is already fsync'd
        // to the log before it is acknowledged.
        let ticker = inv.wal_dir.as_ref().map(|_| {
            let stop = Arc::new(AtomicBool::new(false));
            let flag = stop.clone();
            let shared = shared.clone();
            let handle = std::thread::spawn(move || {
                let mut slept = 0u64;
                while !flag.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    slept += 100;
                    if slept < CHECKPOINT_TICK_MS {
                        continue;
                    }
                    slept = 0;
                    // Best-effort: a failed checkpoint leaves the current
                    // generation serving; the next tick retries.
                    let _ = recovery::maybe_checkpoint_shared(&shared);
                }
            });
            (stop, handle)
        });
        let mut line = String::new();
        loop {
            line.clear();
            if input.read_line(&mut line).map_err(io_err)? == 0 {
                break;
            }
            if matches!(line.trim(), "exit" | "quit" | "\\q") {
                break;
            }
            // Operator recovery: fold the WAL into a fresh snapshot on
            // demand. This is also the documented way out of read-only
            // degraded mode after a disk fault — a successful rotation
            // proves the disk writes again and re-arms the sink.
            if line.trim() == "checkpoint" {
                match &inv.wal_dir {
                    Some(_) => match recovery::checkpoint_shared(&shared) {
                        Ok(generation) => {
                            writeln!(out, "checkpoint complete (generation {generation})")
                                .map_err(io_err)?
                        }
                        Err(e) => writeln!(out, "checkpoint failed: {e}").map_err(io_err)?,
                    },
                    None => {
                        writeln!(out, "checkpoint needs --wal").map_err(io_err)?;
                    }
                }
                out.flush().map_err(io_err)?;
            }
        }
        // Graceful: refuse new frames, drain accepted work, then persist
        // everything the drained work produced.
        server.shutdown();
        if let Some((stop, handle)) = ticker {
            stop.store(true, Ordering::Relaxed);
            let _ = handle.join();
        }
        if inv.wal_dir.is_some() {
            // Final checkpoint: fold the log into a snapshot so the next
            // open replays nothing. The log alone would already recover
            // every acknowledged mutation.
            recovery::checkpoint_shared(&shared)?;
        }
        if let Some(p) = &inv.db_path {
            shared.save_to(p)?;
        }
        return Ok(());
    }

    let mut odb = match &inv.wal_dir {
        Some(dir) => recovery::open(dir)?,
        None => open_session(&inv)?,
    };
    let mut files = RealFiles;

    // One-shot command: re-join the words. `run` takes the rest of the
    // line as verbatim SQL; for everything else, words with spaces are
    // re-quoted so the command parser sees the shell's grouping.
    let one_shot = |command: &[String]| -> String {
        if first.eq_ignore_ascii_case("run") {
            format!("run {}", command[1..].join(" "))
        } else {
            command
                .iter()
                .map(|w| requote(w))
                .collect::<Vec<_>>()
                .join(" ")
        }
    };

    // What this invocation actually drives through whichever executor the
    // flags select: a batch script, the REPL, or one command line.
    enum Mode<'a> {
        Batch(&'a str),
        Repl,
        OneShot(String),
    }
    let mode = match (&batch_script, first) {
        (Some(script), _) => Mode::Batch(script),
        (None, "repl") => Mode::Repl,
        _ => Mode::OneShot(one_shot(&inv.command)),
    };
    fn drive<E: Executor>(
        executor: &mut E,
        files: &mut dyn FileAccess,
        mode: &Mode<'_>,
        interactive: bool,
        input: &mut dyn BufRead,
        out: &mut dyn Write,
        err: &mut dyn Write,
    ) -> Result<()> {
        let io_err = |e: std::io::Error| CoreError::Io(e.to_string());
        match mode {
            Mode::Batch(script) => {
                run_batch_script(executor, files, script, out, err).map_err(io_err)
            }
            Mode::Repl => repl(executor, files, interactive, input, out, err).map_err(io_err),
            Mode::OneShot(line) => {
                let output = run_command(executor, files, line)?;
                print_output(out, &output).map_err(io_err)
            }
        }
    }

    // --connect: the same modes, driven through a RemoteExecutor — the
    // Executor impl over a server connection. --as picks the connection
    // identity (login is part of connection setup).
    if let Some(addr) = &inv.connect {
        let user = inv.user.as_deref().unwrap_or("default");
        let policy = match inv.retry {
            Some(0) => RetryPolicy::none(),
            Some(n) => RetryPolicy {
                max_reconnects: n,
                ..RetryPolicy::default()
            },
            None => RetryPolicy::default(),
        };
        let mut remote =
            RemoteExecutor::connect_with_policy(addr.as_str(), user, DEFAULT_TIMEOUT, policy)?;
        return drive(&mut remote, &mut files, &mode, interactive, input, out, err);
    }

    // With --as, the instance becomes shared: a concurrent session
    // (per-CVD locking, session-scoped identity) drives the command.
    if let Some(user) = &inv.user {
        let shared = SharedOrpheusDB::new(odb);
        let mut session = shared.session(user)?;
        drive(
            &mut session,
            &mut files,
            &mode,
            interactive,
            input,
            out,
            err,
        )?;
        if inv.wal_dir.is_some() {
            // The log already holds every acknowledged mutation; rotate it
            // into a snapshot only if it has outgrown the threshold.
            recovery::maybe_checkpoint_shared(&shared)?;
        }
        if let Some(p) = &inv.db_path {
            shared.save_to(p)?;
        }
        return Ok(());
    }

    drive(&mut odb, &mut files, &mode, interactive, input, out, err)?;
    if inv.wal_dir.is_some() {
        recovery::maybe_checkpoint(&mut odb)?;
    }
    close_session(&inv, &odb)?;
    Ok(())
}

/// Submit a command script as one batch: every parsable line becomes a
/// typed request, the whole vector goes through a single
/// [`Executor::batch`] call, and the responses print in script order.
/// Lines that fail to parse — and requests that fail to execute — are
/// reported to `err` with their line numbers and do not abort the rest,
/// matching the REPL's per-line error recovery.
fn run_batch_script<E: Executor>(
    executor: &mut E,
    files: &mut dyn FileAccess,
    script: &str,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<()> {
    let mut requests = Vec::new();
    let mut line_numbers = Vec::new();
    for (n, line) in script.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        match parse_command(files, trimmed) {
            Ok(request) => {
                requests.push(request);
                line_numbers.push(n + 1);
            }
            Err(e) => writeln!(err, "line {}: {e}", n + 1)?,
        }
    }
    let results = executor.batch(requests);
    for (line, result) in line_numbers.into_iter().zip(results) {
        match result {
            Ok(response) => {
                // Exported CSVs are written back here, exactly like
                // `run_command` does for one-shot checkouts.
                if let Response::CheckedOutCsv { path, csv, .. } = &response {
                    if let Err(e) = files.write(path, csv) {
                        writeln!(err, "line {line}: {e}")?;
                        continue;
                    }
                }
                print_output(out, &response)?;
            }
            Err(e) => writeln!(err, "line {line}: {e}")?,
        }
    }
    Ok(())
}

/// Quote a word for the command-line parser if it contains whitespace.
fn requote(word: &str) -> String {
    if word.chars().any(char::is_whitespace) {
        if word.contains('\'') {
            format!("\"{word}\"")
        } else {
            format!("'{word}'")
        }
    } else {
        word.to_string()
    }
}

fn repl<E: Executor>(
    executor: &mut E,
    files: &mut dyn FileAccess,
    interactive: bool,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
    err: &mut dyn Write,
) -> std::io::Result<()> {
    if interactive {
        writeln!(out, "orpheus repl — `help` for commands, `exit` to leave")?;
    }
    let mut line = String::new();
    loop {
        if interactive {
            write!(out, "orpheus> ")?;
            out.flush()?;
        }
        line.clear();
        if input.read_line(&mut line)? == 0 {
            break; // EOF
        }
        let trimmed = line.trim();
        match trimmed {
            "" => continue,
            "exit" | "quit" | "\\q" => break,
            "help" => {
                writeln!(out, "{HELP}")?;
                continue;
            }
            _ => {}
        }
        match run_command(executor, files, trimmed) {
            Ok(output) => print_output(out, &output)?,
            Err(e) => writeln!(err, "error: {e}")?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orpheus-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Run one CLI invocation with empty stdin, returning stdout.
    fn invoke(argv: &[&str]) -> Result<String> {
        let mut input = Cursor::new(Vec::new());
        let mut out = Vec::new();
        let mut err = Vec::new();
        run(&args(argv), false, &mut input, &mut out, &mut err)?;
        Ok(String::from_utf8(out).unwrap())
    }

    #[test]
    fn parse_args_variants() {
        let inv = parse_args(&args(&["--db", "x.orpheus", "ls"])).unwrap();
        assert_eq!(inv.db_path, Some(PathBuf::from("x.orpheus")));
        assert_eq!(inv.command, vec!["ls"]);

        let inv = parse_args(&args(&["ls"])).unwrap();
        assert_eq!(inv.db_path, None);

        let inv = parse_args(&args(&["--help"])).unwrap();
        assert_eq!(inv.command, vec!["help"]);

        assert!(parse_args(&args(&["--db"])).is_err());
        assert!(parse_args(&args(&["--bogus", "ls"])).is_err());

        let inv = parse_args(&args(&["--batch", "script.txt"])).unwrap();
        assert_eq!(inv.batch, Some(PathBuf::from("script.txt")));
        assert!(inv.command.is_empty());
        assert!(parse_args(&args(&["--batch"])).is_err());

        let inv = parse_args(&args(&["--as", "alice", "ls"])).unwrap();
        assert_eq!(inv.user.as_deref(), Some("alice"));
        assert_eq!(inv.command, vec!["ls"]);
        let e = parse_args(&args(&["--async", "ls"])).unwrap_err();
        assert!(e.to_string().contains("unknown global flag --async"), "{e}");

        let inv = parse_args(&args(&["--serve", "127.0.0.1:0"])).unwrap();
        assert_eq!(inv.serve.as_deref(), Some("127.0.0.1:0"));
        let inv = parse_args(&args(&["--connect", "127.0.0.1:7617", "ls"])).unwrap();
        assert_eq!(inv.connect.as_deref(), Some("127.0.0.1:7617"));
        assert_eq!(inv.command, vec!["ls"]);
        assert_eq!(inv.retry, None);
        assert!(parse_args(&args(&["--serve"])).is_err());
        assert!(parse_args(&args(&["--connect"])).is_err());

        let inv = parse_args(&args(&[
            "--connect",
            "127.0.0.1:7617",
            "--retry",
            "3",
            "ls",
        ]))
        .unwrap();
        assert_eq!(inv.retry, Some(3));
        assert!(parse_args(&args(&["--retry"])).is_err());
        assert!(parse_args(&args(&["--retry", "many"])).is_err());
    }

    #[test]
    fn network_flag_conflicts_are_clean_errors() {
        let bad = |argv: &[&str], needle: &str| {
            let e = invoke(argv).unwrap_err().to_string();
            assert!(e.contains(needle), "{argv:?}: {e}");
        };
        bad(
            &["--serve", "127.0.0.1:0", "--connect", "127.0.0.1:1", "ls"],
            "mutually exclusive",
        );
        bad(&["--serve", "127.0.0.1:0", "ls"], "takes no command");
        bad(
            &["--serve", "127.0.0.1:0", "--batch", "s.txt"],
            "takes no command",
        );
        bad(
            &["--connect", "127.0.0.1:1", "--db", "x.orpheus", "ls"],
            "drop --db",
        );
    }

    /// A stdin that blocks until the test feeds it bytes (or hangs up) —
    /// how a shell pipe behaves, which is what `--serve` reads from.
    struct PipedInput {
        rx: std::sync::mpsc::Receiver<Vec<u8>>,
        buf: Vec<u8>,
        pos: usize,
    }

    impl std::io::Read for PipedInput {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            if self.pos == self.buf.len() {
                match self.rx.recv() {
                    Ok(bytes) => {
                        self.buf = bytes;
                        self.pos = 0;
                    }
                    Err(_) => return Ok(0), // writer hung up: EOF
                }
            }
            let n = (self.buf.len() - self.pos).min(out.len());
            out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// An output sink the test can observe while `run` still borrows it.
    #[derive(Clone, Default)]
    struct SharedOut(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedOut {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedOut {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn serve_and_connect_round_trip() {
        let dir = tmp_dir("serve");
        let db = dir.join("team.orpheus");
        let db_s = db.to_str().unwrap().to_string();
        let csv = dir.join("d.csv");
        let schema = dir.join("s.txt");
        std::fs::write(&csv, "k,v\n1,10\n2,20\n").unwrap();
        std::fs::write(&schema, "k:int!pk\nv:int\n").unwrap();

        // The server: `orpheus --db team.orpheus --serve 127.0.0.1:0`,
        // with stdin held open the way a shell pipe would be.
        let (stdin_tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
        let server_out = SharedOut::default();
        let server = {
            let argv = args(&["--db", &db_s, "--serve", "127.0.0.1:0"]);
            let mut out = server_out.clone();
            std::thread::spawn(move || {
                let mut input = std::io::BufReader::new(PipedInput {
                    rx,
                    buf: Vec::new(),
                    pos: 0,
                });
                let mut err = Vec::new();
                run(&argv, false, &mut input, &mut out, &mut err)
            })
        };
        // The resolved address prints first, so port 0 is scriptable.
        let addr = loop {
            if let Some(line) = server_out.text().lines().next() {
                if !line.is_empty() {
                    break line.strip_prefix("listening on ").expect(line).to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        // One-shot commands, --as identity, and a --batch script all run
        // against the server unmodified.
        invoke(&[
            "--connect",
            &addr,
            "init",
            "kv",
            "-f",
            csv.to_str().unwrap(),
            "-s",
            schema.to_str().unwrap(),
        ])
        .unwrap();
        let out = invoke(&["--connect", &addr, "ls"]).unwrap();
        assert_eq!(out.trim(), "kv");
        invoke(&[
            "--connect",
            &addr,
            "--as",
            "alice",
            "checkout",
            "kv",
            "-v",
            "1",
            "-t",
            "aw",
        ])
        .unwrap();
        let err = invoke(&[
            "--connect",
            &addr,
            "--as",
            "bob",
            "commit",
            "-t",
            "aw",
            "-m",
            "x",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("permission"), "{err}");
        let out = invoke(&[
            "--connect",
            &addr,
            "--as",
            "alice",
            "commit",
            "-t",
            "aw",
            "-m",
            "hers",
        ])
        .unwrap();
        assert!(out.contains("v2"), "{out}");

        let script = dir.join("script.txt");
        std::fs::write(
            &script,
            "checkout kv -v 2 -t w2\ncommit -t w2 -m 'remote batch'\nlog kv\n",
        )
        .unwrap();
        let mut input = Cursor::new(Vec::new());
        let (mut out, mut errs) = (Vec::new(), Vec::new());
        run(
            &args(&["--connect", &addr, "--batch", script.to_str().unwrap()]),
            false,
            &mut input,
            &mut out,
            &mut errs,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let checkout_at = out.find("checked out v2").expect(&out);
        let commit_at = out.find("committed w2 as v3").expect(&out);
        assert!(checkout_at < commit_at, "{out}");
        assert!(out.contains("remote batch"), "{out}");

        // `exit` on the server's stdin stops it; the snapshot then holds
        // everything the remote clients did.
        stdin_tx.send(b"exit\n".to_vec()).unwrap();
        server.join().unwrap().unwrap();
        let listing = invoke(&["--db", &db_s, "log", "kv"]).unwrap();
        assert!(listing.contains("remote batch"), "{listing}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_flag_submits_a_script_as_one_batch() {
        let dir = tmp_dir("batch");
        let db = dir.join("team.orpheus");
        let db_s = db.to_str().unwrap();
        let csv = dir.join("d.csv");
        let schema = dir.join("s.txt");
        std::fs::write(&csv, "k,v\n1,10\n2,20\n").unwrap();
        std::fs::write(&schema, "k:int!pk\nv:int\n").unwrap();
        let script = dir.join("script.txt");
        std::fs::write(
            &script,
            format!(
                "# provision and edit in one submission\n\
                 init kv -f {} -s {}\n\
                 checkout kv -v 1 -t work\n\
                 \n\
                 bogus nonsense\n\
                 commit -t work -m 'batched commit'\n\
                 checkout kv -v 99 -t broken\n\
                 log kv\n",
                csv.display(),
                schema.display()
            ),
        )
        .unwrap();

        let mut input = Cursor::new(Vec::new());
        let (mut out, mut errs) = (Vec::new(), Vec::new());
        run(
            &args(&["--db", db_s, "--batch", script.to_str().unwrap()]),
            false,
            &mut input,
            &mut out,
            &mut errs,
        )
        .unwrap();
        let out = String::from_utf8(out).unwrap();
        let errs = String::from_utf8(errs).unwrap();

        // Responses print in script order.
        let init_at = out.find("initialized CVD kv").expect(&out);
        let commit_at = out.find("committed work as v2").expect(&out);
        let log_at = out.find("batched commit").expect(&out);
        assert!(init_at < commit_at && commit_at < log_at, "{out}");
        // The unparsable line and the failing checkout are reported with
        // their script line numbers, without aborting the later lines.
        assert!(errs.contains("line 5:"), "{errs}");
        assert!(errs.contains("line 7:"), "{errs}");
        // The snapshot reflects the whole batch across invocations.
        let listing = invoke(&["--db", db_s, "log", "kv"]).unwrap();
        assert!(listing.contains("batched commit"), "{listing}");

        // Extra command words alongside --batch are a parse error.
        assert!(run(
            &args(&["--batch", script.to_str().unwrap(), "ls"]),
            false,
            &mut Cursor::new(Vec::new()),
            &mut Vec::new(),
            &mut Vec::new(),
        )
        .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_flag_drives_a_session_with_the_given_identity() {
        let dir = tmp_dir("batch-as");
        let db = dir.join("team.orpheus");
        let db_s = db.to_str().unwrap();
        let csv = dir.join("d.csv");
        let schema = dir.join("s.txt");
        std::fs::write(&csv, "k,v\n1,10\n").unwrap();
        std::fs::write(&schema, "k:int!pk\nv:int\n").unwrap();
        invoke(&[
            "--db",
            db_s,
            "init",
            "kv",
            "-f",
            csv.to_str().unwrap(),
            "-s",
            schema.to_str().unwrap(),
        ])
        .unwrap();

        let script = dir.join("script.txt");
        std::fs::write(&script, "checkout kv -v 1 -t aw\n").unwrap();
        let mut input = Cursor::new(Vec::new());
        let (mut out, mut errs) = (Vec::new(), Vec::new());
        run(
            &args(&[
                "--db",
                db_s,
                "--as",
                "alice",
                "--batch",
                script.to_str().unwrap(),
            ]),
            false,
            &mut input,
            &mut out,
            &mut errs,
        )
        .unwrap();
        // The batched checkout is owned by alice: bob cannot commit it.
        let err =
            invoke(&["--db", db_s, "--as", "bob", "commit", "-t", "aw", "-m", "x"]).unwrap_err();
        assert!(err.to_string().contains("permission"), "{err}");
        invoke(&[
            "--db", db_s, "--as", "alice", "commit", "-t", "aw", "-m", "hers",
        ])
        .unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn session_flag_attributes_checkouts_to_the_user() {
        let dir = tmp_dir("as-user");
        let db = dir.join("team.orpheus");
        let db_s = db.to_str().unwrap();
        let csv = dir.join("d.csv");
        let schema = dir.join("s.txt");
        std::fs::write(&csv, "k,v\n1,10\n2,20\n").unwrap();
        std::fs::write(&schema, "k:int!pk\nv:int\n").unwrap();

        invoke(&[
            "--db",
            db_s,
            "init",
            "kv",
            "-f",
            csv.to_str().unwrap(),
            "-s",
            schema.to_str().unwrap(),
        ])
        .unwrap();
        // Alice checks out through her session; bob cannot commit her
        // table, alice can.
        invoke(&[
            "--db", db_s, "--as", "alice", "checkout", "kv", "-v", "1", "-t", "work",
        ])
        .unwrap();
        let err = invoke(&[
            "--db", db_s, "--as", "bob", "commit", "-t", "work", "-m", "x",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("permission"), "{err}");
        let out = invoke(&[
            "--db", db_s, "--as", "alice", "commit", "-t", "work", "-m", "hers",
        ])
        .unwrap();
        assert!(out.contains("v2"), "{out}");
        // whoami reports the session identity.
        let out = invoke(&["--db", db_s, "--as", "carol", "whoami"]).unwrap();
        assert_eq!(out.trim(), "carol");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn help_and_version() {
        assert!(invoke(&["help"]).unwrap().contains("checkout"));
        assert!(invoke(&[]).unwrap().contains("usage:"));
        assert!(invoke(&["version"]).unwrap().starts_with("orpheus "));
    }

    #[test]
    fn durable_session_across_invocations() {
        let dir = tmp_dir("durable");
        let db = dir.join("team.orpheus");
        let db_s = db.to_str().unwrap();
        let csv = dir.join("data.csv");
        let schema = dir.join("schema.txt");
        std::fs::write(&csv, "protein1,protein2,score\na,b,10\na,c,95\n").unwrap();
        std::fs::write(&schema, "protein1:text!pk\nprotein2:text!pk\nscore:int\n").unwrap();

        // Invocation 1: init.
        invoke(&[
            "--db",
            db_s,
            "init",
            "protein",
            "-f",
            csv.to_str().unwrap(),
            "-s",
            schema.to_str().unwrap(),
        ])
        .unwrap();
        assert!(db.exists());

        // Invocation 2: the CVD is still there; check out a version.
        let out = invoke(&["--db", db_s, "ls"]).unwrap();
        assert_eq!(out.trim(), "protein");
        invoke(&["--db", db_s, "checkout", "protein", "-v", "1", "-t", "work"]).unwrap();

        // Invocation 3: the staged table survived; commit it.
        let out = invoke(&["--db", db_s, "commit", "-t", "work", "-m", "round trip"]).unwrap();
        assert!(out.contains("v2"), "{out}");

        // Invocation 4: query across versions.
        let out = invoke(&[
            "--db",
            db_s,
            "run",
            "SELECT count(*) FROM VERSION 2 OF CVD protein",
        ])
        .unwrap();
        assert!(out.contains('2'), "{out}");

        // Commit messages with spaces survive requoting + snapshotting.
        let out = invoke(&["--db", db_s, "log", "protein"]).unwrap();
        assert!(out.contains("round trip"), "{out}");

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_shot_errors_propagate_and_leave_no_snapshot() {
        let dir = tmp_dir("err");
        let db = dir.join("x.orpheus");
        let r = invoke(&[
            "--db",
            db.to_str().unwrap(),
            "checkout",
            "nope",
            "-v",
            "1",
            "-t",
            "t",
        ]);
        assert!(r.is_err());
        assert!(!db.exists(), "failed command must not write a snapshot");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repl_runs_commands_and_recovers_from_errors() {
        let dir = tmp_dir("repl");
        let csv = dir.join("d.csv");
        let schema = dir.join("s.txt");
        std::fs::write(&csv, "k,v\n1,a\n2,b\n").unwrap();
        std::fs::write(&schema, "k:int!pk\nv:text\n").unwrap();

        let script = format!(
            "init kv -f {} -s {}\n\
             bogus command\n\
             ls\n\
             run SELECT count(*) FROM VERSION 1 OF CVD kv\n\
             exit\n",
            csv.display(),
            schema.display()
        );
        let mut input = Cursor::new(script.into_bytes());
        let mut out = Vec::new();
        let mut err = Vec::new();
        run(&args(&["repl"]), false, &mut input, &mut out, &mut err).unwrap();

        let out = String::from_utf8(out).unwrap();
        let err = String::from_utf8(err).unwrap();
        assert!(out.contains("kv"), "{out}");
        assert!(out.contains('2'), "{out}");
        assert!(err.contains("unknown command"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repl_session_is_durable_with_db_flag() {
        let dir = tmp_dir("repl-db");
        let db = dir.join("s.orpheus");
        let csv = dir.join("d.csv");
        let schema = dir.join("s.txt");
        std::fs::write(&csv, "k,v\n1,a\n").unwrap();
        std::fs::write(&schema, "k:int!pk\nv:text\n").unwrap();

        let script = format!(
            "init kv -f {} -s {}\nexit\n",
            csv.display(),
            schema.display()
        );
        let mut input = Cursor::new(script.into_bytes());
        let (mut out, mut err) = (Vec::new(), Vec::new());
        run(
            &args(&["--db", db.to_str().unwrap(), "repl"]),
            false,
            &mut input,
            &mut out,
            &mut err,
        )
        .unwrap();

        let listing = invoke(&["--db", db.to_str().unwrap(), "ls"]).unwrap();
        assert_eq!(listing.trim(), "kv");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn requote_preserves_word_grouping() {
        assert_eq!(requote("plain"), "plain");
        assert_eq!(requote("two words"), "'two words'");
        assert_eq!(requote("it's quoted"), "\"it's quoted\"");
    }
}
