//! `ramp-store` — offline maintenance for the persistent run store.
//!
//! ```text
//! ramp-store stats   [--dir DIR] [--mode files|wal]
//! ramp-store scrub   [--dir DIR] [--mode files|wal]
//! ramp-store ckpt    [--dir DIR] [--mode files|wal] [--rm KEY]
//! ramp-store verify  [--dir DIR] [--mode files|wal]
//! ramp-store compact [--dir DIR]
//! ```
//!
//! Every subcommand targets the directory from `--dir`, `RAMP_STORE_DIR`
//! or `target/ramp-store`, and the backend from `--mode` or
//! `RAMP_STORE_MODE` (default `files`).
//!
//! `scrub` repairs: it removes stale `tmp-*` files left by interrupted
//! writes, quarantines every entry that no longer decodes (renamed
//! `*.quarantine` with a `*.reason` file naming the decode error) —
//! including `*.ckpt` checkpoint segments, which are validated against
//! the checkpoint frame format — and reclaims orphaned checkpoint
//! trails whose base run entry is missing or quarantined. The summary
//! line on stdout is stable and greppable:
//!
//! ```text
//! [scrub] dir=target/ramp-store scanned=21 valid=20 quarantined=1 already=0 tmp=0 unknown=0 orphaned=0
//! ```
//!
//! `stats` is read-only: one greppable line counting what the store
//! holds (`[stats] dir=... mode=files runs=12 annotated=1 ...`) — the
//! sweep CI stage uses it to prove a warm re-sweep added nothing.
//!
//! `ckpt` lists the checkpoint segments interrupted runs left behind
//! (one `[ckpt] key=... epoch=... bytes=...` line per segment plus a
//! summary), and `ckpt --rm KEY` deletes the trail of one run.
//!
//! `verify` decodes every entry (file mode) or re-scans the manifest and
//! every WAL segment from disk (WAL mode), prints one line per problem
//! and a summary, and exits 1 if anything is damaged — the CI gate for
//! "the store on disk is byte-for-byte sound". File mode is read-only.
//! In WAL mode, opening the store heals what replay finds first; that
//! damage (e.g. segments written by an older build, whose frames no
//! longer decode) is reported as a `healed on open:` problem.
//!
//! `compact` (WAL mode only) rewrites the live records into fresh
//! segments and retires the old ones; replay-proof ordering makes it
//! crash-safe at any point (see DESIGN.md §11).

use ramp_serve::store::{RunStore, StoreMode, DEFAULT_DIR, ENV_STORE_DIR, ENV_STORE_MODE};

fn usage() -> ! {
    eprintln!("usage: ramp-store stats   [--dir DIR] [--mode files|wal]");
    eprintln!("       ramp-store scrub   [--dir DIR] [--mode files|wal]");
    eprintln!("       ramp-store ckpt    [--dir DIR] [--mode files|wal] [--rm KEY]");
    eprintln!("       ramp-store verify  [--dir DIR] [--mode files|wal]");
    eprintln!("       ramp-store compact [--dir DIR]");
    std::process::exit(2);
}

fn open(dir: &str, mode: StoreMode) -> RunStore {
    match RunStore::open_mode(dir, mode) {
        Ok(s) => s,
        Err(e) => {
            eprintln!(
                "ramp-store: cannot open {} store at {dir}: {e}",
                mode.label()
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut dir = std::env::var(ENV_STORE_DIR).unwrap_or_else(|_| DEFAULT_DIR.to_string());
    let mut mode = match std::env::var(ENV_STORE_MODE) {
        Ok(v) if v.eq_ignore_ascii_case("wal") => StoreMode::Wal,
        _ => StoreMode::Files,
    };
    let mut rm_key: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--dir" => match args.next() {
                Some(d) => dir = d,
                None => usage(),
            },
            "--mode" => match args.next().as_deref() {
                Some("files") => mode = StoreMode::Files,
                Some("wal") => mode = StoreMode::Wal,
                _ => usage(),
            },
            "--rm" if cmd == "ckpt" => match args.next() {
                Some(k) => rm_key = Some(k),
                None => usage(),
            },
            _ => {
                eprintln!("ramp-store: unknown flag {flag:?}");
                usage();
            }
        }
    }
    match cmd.as_str() {
        "stats" => {
            let stats = open(&dir, mode).stats();
            println!("[stats] dir={dir} {stats}");
        }
        "scrub" => {
            let report = open(&dir, mode).scrub();
            println!("[scrub] dir={dir} {report}");
        }
        "ckpt" => {
            let store = open(&dir, mode);
            if let Some(key) = rm_key {
                let removed = store.remove_checkpoints(&key);
                println!("[ckpt] dir={dir} key={key} removed={removed}");
                return;
            }
            let segments = store.all_checkpoints();
            let mut runs = std::collections::BTreeSet::new();
            for (key, epoch, bytes) in &segments {
                runs.insert(key.clone());
                println!("[ckpt] key={key} epoch={epoch} bytes={bytes}");
            }
            println!(
                "[ckpt] dir={dir} segments={} runs={}",
                segments.len(),
                runs.len()
            );
        }
        "verify" => {
            let store = open(&dir, mode);
            let mut report = store.verify();
            // Opening a WAL store heals what replay finds (quarantined
            // remainders, torn tails, a rebuilt manifest) before the scan
            // runs, so report that damage here instead of losing it.
            if let Some(replay) = store
                .replay_report()
                .filter(|r| r.quarantined > 0 || r.torn_truncated > 0 || r.manifest_rebuilt)
            {
                report.errors.insert(0, format!("healed on open: {replay}"));
            }
            for err in &report.errors {
                eprintln!("[verify] problem: {err}");
            }
            println!("[verify] dir={dir} {report}");
            if !report.ok() {
                std::process::exit(1);
            }
        }
        "compact" => {
            let store = open(&dir, StoreMode::Wal);
            match store.compact() {
                Some(Ok(report)) => println!("[compact] dir={dir} {report}"),
                Some(Err(e)) => {
                    eprintln!("ramp-store: compaction failed: {e}");
                    std::process::exit(1);
                }
                None => unreachable!("opened in WAL mode"),
            }
        }
        other => {
            eprintln!("ramp-store: unknown subcommand {other:?}");
            usage();
        }
    }
}
