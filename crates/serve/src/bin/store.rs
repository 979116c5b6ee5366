//! `ramp-store` — offline maintenance for the persistent run store.
//!
//! ```text
//! ramp-store stats  [--dir DIR]
//! ramp-store scrub  [--dir DIR]
//! ramp-store ckpt   [--dir DIR] [--rm KEY]
//! ramp-store verify [--dir DIR]
//! ```
//!
//! Every subcommand targets the directory from `--dir`, `RAMP_STORE_DIR`
//! or `target/ramp-store`.
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
//! holds (`[stats] dir=... runs=12 annotated=1 ... bytes=N streams=N
//! stream_bytes=N`, where `bytes` sums the `.run` and `.ann` entries
//! and `streams` counts the per-core event streams, a cache) — the
//! sweep CI stage uses it to prove a warm re-sweep added and rewrote
//! nothing. `scrub` and `verify` read every block of every stream and
//! report sound ones as `streams=N`; a damaged stream is an error for
//! `verify` and is quarantined by `scrub`.
//!
//! `ckpt` lists the checkpoint segments interrupted runs left behind
//! (one `[ckpt] key=... epoch=... bytes=...` line per segment plus a
//! summary), and `ckpt --rm KEY` deletes the trail of one run.
//!
//! `verify` decodes every entry, prints one line per problem and a
//! summary, and exits 1 if anything is damaged — the CI gate for "the
//! store on disk is byte-for-byte sound" (`scripts/ci.sh sweep-smoke`
//! runs it on both stores it builds). It is read-only.

use ramp_serve::store::{RunStore, DEFAULT_DIR, ENV_STORE_DIR};

fn usage() -> ! {
    eprintln!("usage: ramp-store stats  [--dir DIR]");
    eprintln!("       ramp-store scrub  [--dir DIR]");
    eprintln!("       ramp-store ckpt   [--dir DIR] [--rm KEY]");
    eprintln!("       ramp-store verify [--dir DIR]");
    std::process::exit(2);
}

fn open(dir: &str) -> RunStore {
    match RunStore::open(dir) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("ramp-store: cannot open store at {dir}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut dir = std::env::var(ENV_STORE_DIR).unwrap_or_else(|_| DEFAULT_DIR.to_string());
    let mut rm_key: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--dir" => match args.next() {
                Some(d) => dir = d,
                None => usage(),
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
            let stats = open(&dir).stats();
            println!("[stats] dir={dir} {stats}");
        }
        "scrub" => {
            let report = open(&dir).scrub();
            println!("[scrub] dir={dir} {report}");
        }
        "ckpt" => {
            let store = open(&dir);
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
            let report = open(&dir).verify();
            for err in &report.errors {
                eprintln!("[verify] problem: {err}");
            }
            println!("[verify] dir={dir} {report}");
            if !report.ok() {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("ramp-store: unknown subcommand {other:?}");
            usage();
        }
    }
}
