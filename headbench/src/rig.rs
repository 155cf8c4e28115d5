//! Fixtures: the run directory, reference answers, seeded stores and the
//! in-process daemon.

use std::fmt::Display;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;

use atd::scheduler::{Scheduler, DEFAULT_CACHE_ENTRIES, DEFAULT_QUEUE_DEPTH};
use atd::store::{Store, StoreConfig};
use atd::{AtdError, JobSpec, PipelinedClient, ServerConfig, Service, ServiceStats};
use exec::ExecPool;

use crate::gen;

/// Worker threads in every head's pool.
pub const POOL_THREADS: usize = 2;

/// Wraps an error with what was being done.
pub fn ctx<E: Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// The benchmark's own scratch area, `run/` beside its manifest.
pub fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("run")
}

/// A directory for one run under [`scratch_root`], removed on drop.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// A fresh, empty directory tagged `tag`.
    pub fn create(tag: &str) -> Result<RunDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = scratch_root().join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(ctx("create run directory"))?;
        Ok(RunDir(path))
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Copies the tree at `from` to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(ctx("create directory"))?;
    for entry in std::fs::read_dir(from).map_err(ctx("list directory"))? {
        let entry = entry.map_err(ctx("list directory"))?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(ctx("inspect directory entry"))?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target).map_err(ctx("copy file"))?;
        }
    }
    Ok(())
}

/// Bytes of every file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map(|m| m.len()).unwrap_or(0),
        })
        .sum()
}

/// The reference answer for `spec`: its canonical result bytes from
/// `atd::workload::execute` on a serial pool.
pub fn reference(spec: &JobSpec) -> Result<Vec<u8>, String> {
    let result = atd::workload::execute(spec, &ExecPool::serial()).map_err(ctx("reference run"))?;
    result.encoded().map_err(ctx("encode reference"))
}

/// What is kept of an answer to check it later: its length and its
/// [`atd::stream_digest`]. Its size is fixed whatever the answer's.
pub type Fingerprint = (usize, u64);

/// The fingerprint of `bytes`.
pub fn fingerprint(bytes: &[u8]) -> Fingerprint {
    (bytes.len(), atd::stream_digest(bytes))
}

/// One reference worker's share: (index, `keep` of the reference) pairs.
type Share<T> = Result<Vec<(usize, T)>, String>;

/// `keep` of the reference of each of `specs`, in order, computed on two
/// threads.
fn over_references<T: Send>(
    specs: &[JobSpec],
    keep: impl Fn(Vec<u8>) -> T + Sync,
) -> Result<Vec<T>, String> {
    let keep = &keep;
    let parts: Vec<Share<T>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..POOL_THREADS)
            .map(|t| {
                s.spawn(move || {
                    specs
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(POOL_THREADS)
                        .map(|(i, spec)| Ok((i, keep(reference(spec)?))))
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| Err("reference worker panicked".to_string())))
            .collect()
    });
    let mut out: Vec<Option<T>> = specs.iter().map(|_| None).collect();
    for part in parts {
        for (i, kept) in part? {
            out[i] = Some(kept);
        }
    }
    out.into_iter().map(|kept| kept.ok_or_else(|| "a reference went missing".to_string())).collect()
}

/// The references of `specs`, in order, computed on two threads.
pub fn references(specs: &[JobSpec]) -> Result<Vec<Vec<u8>>, String> {
    over_references(specs, |bytes| bytes)
}

/// Whether each kept answer differs from its reference; `spec_of` names
/// the spec an answer's index stands for.
pub fn mismatch_flags(
    kept: &[(usize, Fingerprint)],
    spec_of: impl Fn(usize) -> JobSpec,
) -> Result<Vec<bool>, String> {
    let specs: Vec<JobSpec> = kept.iter().map(|(i, _)| spec_of(*i)).collect();
    let want = over_references(&specs, |bytes| fingerprint(&bytes))?;
    Ok(kept.iter().zip(&want).map(|((_, got), want)| got != want).collect())
}

/// How many kept answers differ from their references.
pub fn mismatched(
    kept: &[(usize, Fingerprint)],
    spec_of: impl Fn(usize) -> JobSpec,
) -> Result<u64, String> {
    Ok(mismatch_flags(kept, spec_of)?.into_iter().filter(|wrong| *wrong).count() as u64)
}

/// The payloads of every store's seeded history.
pub fn history() -> Result<Vec<Vec<u8>>, String> {
    references(&gen::history_specs())
}

/// Opens the store at `dir` with the daemon's default bounds.
pub fn open_store(dir: &Path) -> Result<Store, String> {
    Store::open(StoreConfig::new(dir)).map_err(ctx("open store"))
}

/// Creates a store at `dir` holding the fixed history, then `extra`.
pub fn seed_store(
    dir: &Path,
    history: &[Vec<u8>],
    extra: &[(Vec<u8>, &[u8])],
) -> Result<(), String> {
    let mut store = open_store(dir)?;
    for i in 0..gen::HISTORY_RECORDS {
        let payload = history.get(i % history.len().max(1)).ok_or("empty history")?;
        store.put(&gen::history_key(i), payload).map_err(ctx("seed history"))?;
    }
    for (key, payload) in extra {
        store.put(key, payload).map_err(ctx("seed working set"))?;
    }
    Ok(())
}

/// A head service as the daemon runs it: a two-thread pool, the default
/// queue and LRU bounds, and `store` as its durable tier.
pub fn head_service(store: Store) -> Service {
    let scheduler = Scheduler::new(DEFAULT_QUEUE_DEPTH, DEFAULT_CACHE_ENTRIES).with_store(store);
    Service::new(ExecPool::new(POOL_THREADS), scheduler)
}

/// An `atd` daemon serving loopback TCP from its own thread.
#[derive(Debug)]
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<Result<Service, AtdError>>,
}

impl Daemon {
    /// Boots a daemon over `store`.
    pub fn boot(store: Store) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ctx("bind daemon"))?;
        let addr = listener.local_addr().map_err(ctx("read daemon address"))?;
        let service = head_service(store);
        let thread = std::thread::spawn(move || {
            atd::serve_with(&listener, service, ServerConfig::default())
        });
        Ok(Daemon { addr, thread })
    }

    /// A new THP/2 session.
    pub fn connect(&self) -> Result<PipelinedClient, String> {
        PipelinedClient::connect(self.addr).map_err(ctx("connect to daemon"))
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shuts the daemon down, waits for its thread, and returns its final
    /// counters.
    pub fn stop(self) -> Result<ServiceStats, String> {
        self.connect()?.shutdown().map_err(ctx("shut daemon down"))?;
        let service = self
            .thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(ctx("daemon"))?;
        Ok(service.stats())
    }
}

/// A one-connection TCP relay that counts the bytes it carries both ways:
/// what a client and the daemon really put on the wire.
#[derive(Debug)]
pub struct Relay {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<u64>>,
}

impl Relay {
    /// Relays the next connection made to [`Relay::addr`] on to `to`.
    pub fn start(to: SocketAddr) -> Result<Relay, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(ctx("bind relay"))?;
        let addr = listener.local_addr().map_err(ctx("read relay address"))?;
        let thread = std::thread::spawn(move || {
            let (mut client, _) = listener.accept()?;
            let mut daemon = TcpStream::connect(to)?;
            let (mut from_client, mut to_daemon) = (client.try_clone()?, daemon.try_clone()?);
            let down = std::thread::spawn(move || {
                let n = io::copy(&mut daemon, &mut client);
                let _ = client.shutdown(Shutdown::Write);
                n
            });
            let up = io::copy(&mut from_client, &mut to_daemon)?;
            // The daemon closes a connection whose peer has finished.
            to_daemon.shutdown(Shutdown::Write)?;
            let down = down.join().map_err(|_| io::Error::other("relay thread panicked"))??;
            Ok(up + down)
        });
        Ok(Relay { addr, thread })
    }

    /// Where a client connects to be relayed.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the relayed connection to close. Returns the bytes it
    /// carried, both ways.
    pub fn finish(self) -> Result<u64, String> {
        self.thread.join().map_err(|_| "relay thread panicked".to_string())?.map_err(ctx("relay"))
    }
}
