//! The TCP daemon: accept loop, connection worker pool, dispatch, and
//! hot index swap.
//!
//! Architecture (all `std`, no async runtime):
//!
//! ```text
//! accept thread ──► mpsc queue ──► N connection workers
//!                                    │  read_request → dispatch → write response
//!                                    ▼
//!                        RwLock<Arc<Generation>>  ◄── swap (admin frame
//!                        (clone per request)           or ServerHandle::swap)
//! ```
//!
//! Each query request clones the current [`Generation`] `Arc` once and
//! answers the whole batch from it via `FlatIndex::query_many`, so a
//! concurrent swap never mixes two indexes inside one response and
//! never drops a connection: the new generation is loaded *outside* the
//! write lock and promoted with a single pointer swap.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use crate::backend::Generation;
use crate::proto::{
    read_request, InfoReply, ProtoError, Request, RequestBody, Response, ResponseBody, RouteReply,
    StatsReply, DEFAULT_MAX_BATCH, DURABILITY_DISABLED, ROUTE_SINGLE,
};
use crate::wal::{self, Durability, Manifest, Wal};
use extmem::stats::IoStats;

/// Which serving backend answers connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Blocking thread-per-connection worker pool: one worker owns a
    /// connection for its whole life, requests are answered in order.
    Threads,
    /// Readiness-driven epoll reactor (Linux only): nonblocking
    /// sockets, pipelined out-of-order responses, adaptive
    /// micro-batching across connections, and the HTTP/JSON front.
    Epoll,
}

impl Default for Backend {
    fn default() -> Backend {
        if cfg!(target_os = "linux") {
            Backend::Epoll
        } else {
            Backend::Threads
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Backend, String> {
        match s {
            "threads" => Ok(Backend::Threads),
            "epoll" => Ok(Backend::Epoll),
            other => Err(format!("unknown backend '{other}' (want threads or epoll)")),
        }
    }
}

/// Tunables for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Serving backend (defaults to [`Backend::Epoll`] on Linux).
    pub backend: Backend,
    /// Connection worker threads (0 = one per core). Threads backend
    /// only; the epoll backend runs one reactor and one executor.
    pub threads: usize,
    /// Threads `query_many` may fan one batch across (0 = all cores).
    /// Leave at 1 when many concurrent connections already saturate the
    /// cores; raise it for few-connection, huge-batch workloads.
    pub batch_threads: usize,
    /// Pairs accepted per query request; larger batches are rejected
    /// with a protocol error. (Per-frame allocation is bounded by the
    /// protocol's [`crate::proto::MAX_PAYLOAD`] cap, not by this knob —
    /// a declared length over the cap closes the connection before any
    /// allocation.)
    pub max_batch: usize,
    /// Admission budget: index files larger than this are served from
    /// disk through the LRU-cached fallback instead of resident memory.
    /// `None` = always resident.
    pub max_resident_bytes: Option<u64>,
    /// File promoted by a swap request. `None` = re-load the boot path
    /// (in-place rebuild promotion).
    pub swap_path: Option<PathBuf>,
    /// Honour remote shutdown frames. Off by default: a query port
    /// should not double as a kill switch unless explicitly enabled.
    pub allow_shutdown: bool,
    /// Epoll backend: longest a queued query waits (µs) for company
    /// before its micro-batch flushes anyway.
    pub flush_us: u64,
    /// Epoll backend: queued pair count that flushes a micro-batch
    /// immediately, without waiting out `flush_us`.
    pub coalesce_pairs: usize,
    /// Epoll backend: unanswered query frames per connection before the
    /// server stops *reading* that connection (pipelining backpressure).
    pub max_inflight: usize,
    /// Epoll backend: evict connections idle longer than this many
    /// milliseconds (0 = never).
    pub idle_timeout_ms: u64,
    /// Source edge list of the boot index, in original vertex ids.
    /// Required for compaction: the compactor re-reads it, applies the
    /// accumulated update log, and rebuilds a frozen index from
    /// scratch. `None` disables compaction (updates still work, the
    /// overlay just grows until a swap).
    pub source_graph: Option<PathBuf>,
    /// Deduplicated overlay edges that trigger a background compaction
    /// (0 = only explicit `compact` requests). Overlay query cost grows
    /// quadratically, and an update batch's cost quadratically per
    /// batch edge, with the affected-vertex count, so the default
    /// keeps update batches in the low-millisecond range.
    pub compact_threshold: usize,
    /// Durability directory: every accepted update batch is logged to a
    /// write-ahead log here before it is acknowledged, checkpoints land
    /// here, and startup replays whatever a previous process left
    /// behind. `None` = updates live only in memory (pre-durability
    /// behavior).
    pub wal_dir: Option<PathBuf>,
    /// When the WAL fsyncs relative to the ack (ignored without
    /// `wal_dir`). The default trades a ~2 ms loss window on *power
    /// failure* (a mere process crash loses nothing) for group-commit
    /// throughput; `always` closes the window per batch.
    pub durability: Durability,
    /// WAL size (bytes) that triggers a background compaction even when
    /// the overlay is under `compact_threshold` — the checkpoint is the
    /// WAL's truncation point, so without this knob a long ingest run
    /// of small, non-improving batches grows the log (and the next
    /// boot's replay) without bound. Requires `source_graph`, like any
    /// compaction. `None` = only the overlay threshold compacts.
    pub wal_max_bytes: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            backend: Backend::default(),
            threads: 0,
            batch_threads: 1,
            max_batch: DEFAULT_MAX_BATCH,
            max_resident_bytes: None,
            swap_path: None,
            allow_shutdown: false,
            flush_us: 100,
            coalesce_pairs: 4096,
            max_inflight: 128,
            idle_timeout_ms: 0,
            source_graph: None,
            compact_threshold: 256,
            wal_dir: None,
            durability: Durability::Batch,
            wal_max_bytes: None,
        }
    }
}

/// Mutable durability state: the live WAL handle plus the directory it
/// (and the checkpoint artifacts) live in. Locked *after* `update_log`
/// in the `mutate_serial → update_log → durable → current` order shared
/// by updates, swaps, and checkpoint promotions.
struct DurableState {
    dir: PathBuf,
    wal: Wal,
    stats: Arc<IoStats>,
}

/// The edges the serving generation carries beyond the source graph
/// (`--graph`), in original ids: what a compaction rebuilds from.
#[derive(Default)]
struct UpdateLog {
    /// Edges earlier compactions folded into the frozen image. Kept
    /// deduplicated (minimum weight per edge), so bounded by the
    /// distinct edges ever inserted; persisted next to a checkpoint
    /// image as its `.folded` sidecar.
    folded: Vec<(u32, u32, u32)>,
    /// Edges accepted since the frozen image was built — exactly the
    /// overlay's edges, replayed from the WAL on recovery.
    pending: Vec<(u32, u32, u32)>,
}

/// State shared by the accept thread, workers, and the handle.
struct Shared {
    current: RwLock<Arc<Generation>>,
    config: ServerConfig,
    index_path: PathBuf,
    local_addr: SocketAddr,
    stop: AtomicBool,
    /// Serializes mutations of the serving pointer — swaps, update
    /// batches, and compaction promotions (queries are never blocked by
    /// this; they only take the brief `current` read lock).
    mutate_serial: Mutex<()>,
    /// Edge insertions (original ids) beyond the source graph: those
    /// folded into the frozen image and those pending in the overlay.
    /// Consumed by compaction, discarded by a swap.
    update_log: Mutex<UpdateLog>,
    /// Bumped by every swap so an in-flight compaction can detect that
    /// its build no longer describes the serving index and abort.
    swap_epoch: AtomicU64,
    /// Channel into the compactor thread (`None` once stopping).
    compact_tx: Mutex<Option<mpsc::Sender<CompactMsg>>>,
    compactions: AtomicU64,
    /// Durability state; `None` when the server runs without a WAL.
    durable: Option<Mutex<DurableState>>,
    /// Mirrors of the WAL's epoch/size so `info`/`/stats` never touch
    /// the durable lock from the read path.
    wal_epoch: AtomicU64,
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    /// Boot-recovery outcome (constant after `serve` returns).
    recovered_records: AtomicU64,
    recovered_dropped_bytes: AtomicU64,
    checkpoints: AtomicU64,
    aborted_compactions: AtomicU64,
    generation_seq: AtomicU64,
    conn_seq: AtomicU64,
    /// Live connections (cloned handles) so shutdown can unblock
    /// workers parked in `read`.
    conns: Mutex<HashMap<u64, TcpStream>>,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    /// Epoll backend wiring, set once by `serve_epoll` so `begin_stop`
    /// (and the in-process swap) can reach the reactor and batcher.
    #[cfg(target_os = "linux")]
    epoll_ctl: std::sync::OnceLock<epoll_backend::EpollCtl>,
}

impl Shared {
    /// Flip the stop flag and wake whichever backend is serving so it
    /// can drain and exit. Idempotent.
    fn begin_stop(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Stop the compactor; dropping the sender ends its recv loop
        // even if the Stop message races a queued threshold poke.
        if let Ok(mut tx) = self.compact_tx.lock() {
            if let Some(tx) = tx.take() {
                let _ = tx.send(CompactMsg::Stop);
            }
        }
        #[cfg(target_os = "linux")]
        if let Some(ctl) = self.epoll_ctl.get() {
            // The reactor observes the flag, stops accepting/reading,
            // flushes what is owed, and exits; the batcher drains.
            ctl.batcher.stop();
            ctl.wake.wake();
            return;
        }
        // Threads backend: close every live connection to unpark
        // workers blocked in `read`...
        if let Ok(conns) = self.conns.lock() {
            for conn in conns.values() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        // ...and unblock `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// A running server. Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::shutdown`] (or let a remote shutdown frame stop
/// it) and then [`ServerHandle::wait`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the listener actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Generation number of the index currently being served.
    pub fn current_generation(&self) -> u64 {
        self.shared.current.read().map(|g| g.generation()).unwrap_or(0)
    }

    /// Promote the configured swap path (or re-load the boot path) to
    /// the serving index *from this process* — the in-process analogue
    /// of the wire swap frame, for supervisors that rebuild and promote
    /// without a client connection. Returns `(generation, vertices)`.
    pub fn swap(&self) -> std::io::Result<(u64, u64)> {
        let fresh = do_swap(&self.shared)?;
        Ok((fresh.generation(), fresh.vertices() as u64))
    }

    /// Ask the daemon to stop and wait for every thread to exit.
    pub fn shutdown(mut self) {
        self.shared.begin_stop();
        self.join_all();
    }

    /// Block until the daemon stops (remote shutdown frame or
    /// [`ServerHandle::shutdown`] from another thread via a clone of
    /// the shared state — in practice: until a shutdown frame arrives).
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Bind `addr`, load the index at `index_path`, and start serving.
///
/// Returns as soon as the listener is bound and the index is loaded;
/// accepting and answering happens on background threads owned by the
/// returned handle.
pub fn serve(
    addr: impl ToSocketAddrs,
    index_path: &Path,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let recovery = recover_durable(index_path, &config)?;
    let mut boot = Generation::load(&recovery.boot_path, config.max_resident_bytes, 1)?;
    if !recovery.log.is_empty() {
        // Replay the WAL into the overlay: the recovered daemon answers
        // exactly like the crashed one did after its last ack.
        boot = boot.with_updates(&recovery.log).map_err(std::io::Error::other)?;
    }
    let backend = config.backend;
    let (compact_tx, compact_rx) = mpsc::channel::<CompactMsg>();
    let shared = Arc::new(Shared {
        current: RwLock::new(Arc::new(boot)),
        config,
        index_path: index_path.to_path_buf(),
        local_addr,
        stop: AtomicBool::new(false),
        mutate_serial: Mutex::new(()),
        update_log: Mutex::new(UpdateLog { folded: recovery.folded, pending: recovery.log }),
        swap_epoch: AtomicU64::new(0),
        compact_tx: Mutex::new(Some(compact_tx)),
        compactions: AtomicU64::new(0),
        wal_epoch: AtomicU64::new(recovery.epoch),
        wal_records: AtomicU64::new(recovery.wal_records),
        wal_bytes: AtomicU64::new(recovery.wal_bytes),
        recovered_records: AtomicU64::new(recovery.recovered_records),
        recovered_dropped_bytes: AtomicU64::new(recovery.recovered_dropped_bytes),
        checkpoints: AtomicU64::new(0),
        aborted_compactions: AtomicU64::new(0),
        durable: recovery.durable.map(Mutex::new),
        generation_seq: AtomicU64::new(1),
        conn_seq: AtomicU64::new(0),
        conns: Mutex::new(HashMap::new()),
        requests: AtomicU64::new(0),
        protocol_errors: AtomicU64::new(0),
        #[cfg(target_os = "linux")]
        epoll_ctl: std::sync::OnceLock::new(),
    });
    let mut handle = match backend {
        Backend::Threads => serve_threads(listener, shared)?,
        #[cfg(target_os = "linux")]
        Backend::Epoll => epoll_backend::serve_epoll(listener, shared)?,
        #[cfg(not(target_os = "linux"))]
        Backend::Epoll => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "the epoll backend requires Linux; use Backend::Threads",
            ))
        }
    };
    let compactor = {
        let shared = Arc::clone(&handle.shared);
        std::thread::spawn(move || compactor_loop(&shared, &compact_rx))
    };
    handle.workers.push(compactor);
    Ok(handle)
}

/// What boot recovery reconstructed from the WAL directory.
struct Recovery {
    /// Index image to boot from: the manifest's checkpoint when one
    /// exists, otherwise the path handed to [`serve`].
    boot_path: PathBuf,
    /// Replayed acknowledged updates, flattened in append order — the
    /// initial pending `update_log`.
    log: Vec<(u32, u32, u32)>,
    /// The boot checkpoint's folded edges (its `.folded` sidecar).
    folded: Vec<(u32, u32, u32)>,
    durable: Option<DurableState>,
    epoch: u64,
    wal_records: u64,
    wal_bytes: u64,
    recovered_records: u64,
    recovered_dropped_bytes: u64,
}

/// Open (or create) the durability directory and bring the WAL lineage
/// to a clean, appendable state: read `CURRENT`, walk the epoch's log
/// tolerating a torn tail, validate the header epoch, truncate the
/// tear, and garbage-collect files from dead epochs (failed checkpoint
/// or swap attempts).
fn recover_durable(index_path: &Path, config: &ServerConfig) -> std::io::Result<Recovery> {
    let no_wal = Recovery {
        boot_path: index_path.to_path_buf(),
        log: Vec::new(),
        folded: Vec::new(),
        durable: None,
        epoch: 0,
        wal_records: 0,
        wal_bytes: 0,
        recovered_records: 0,
        recovered_dropped_bytes: 0,
    };
    let Some(dir) = config.wal_dir.as_deref() else {
        return Ok(no_wal);
    };
    std::fs::create_dir_all(dir)?;
    let stats = IoStats::shared();
    let (epoch, boot_path, folded) = match wal::read_manifest(dir)? {
        Some(m) => {
            if !m.index_path.exists() {
                return Err(std::io::Error::other(format!(
                    "{}/CURRENT points at missing checkpoint image {}",
                    dir.display(),
                    m.index_path.display()
                )));
            }
            let folded =
                wal::read_folded(&wal::folded_sidecar(&m.index_path), m.epoch, Arc::clone(&stats))?;
            (m.epoch, m.index_path, folded)
        }
        None => (0, index_path.to_path_buf(), Vec::new()),
    };
    let wal_path = dir.join(wal::wal_file_name(epoch));
    let replay = wal::read_wal(&wal_path, Arc::clone(&stats))?;
    let (live, batches, recovered_records, recovered_dropped_bytes) = match replay.epoch {
        // Missing log (first boot, or a crash immediately after the
        // manifest flip deleted nothing yet) or an unreadable header:
        // start the epoch's log fresh. Header-less garbage counts as
        // dropped bytes so operators can see it happened.
        None => {
            let dropped = replay.dropped_bytes;
            let live = Wal::create(&wal_path, epoch, config.durability, Arc::clone(&stats))?;
            (live, Vec::new(), 0, dropped)
        }
        Some(e) if e != epoch => {
            return Err(std::io::Error::other(format!(
                "{} carries epoch {e} but CURRENT says {epoch} — \
                 the durability directory mixes files from different lineages",
                wal_path.display()
            )));
        }
        Some(_) => {
            let live =
                Wal::open_after_replay(&wal_path, &replay, config.durability, Arc::clone(&stats))?;
            let n = replay.batches.len() as u64;
            (live, replay.batches, n, replay.dropped_bytes)
        }
    };
    wal::gc_dir(dir, epoch);
    // Flatten by draining: `concat` would briefly hold the batch list
    // AND the flat copy, doubling peak replay memory on a big log.
    let mut log = Vec::with_capacity(batches.iter().map(Vec::len).sum());
    for mut batch in batches {
        log.append(&mut batch);
    }
    Ok(Recovery {
        boot_path,
        log,
        folded,
        epoch,
        wal_records: live.records(),
        wal_bytes: live.bytes(),
        recovered_records,
        recovered_dropped_bytes,
        durable: Some(DurableState { dir: dir.to_path_buf(), wal: live, stats }),
    })
}

/// Work order for the background compactor thread.
enum CompactMsg {
    /// The overlay crossed the configured threshold at the time of an
    /// update; compact if it is *still* over (queued pokes dedupe).
    Threshold,
    /// An explicit admin request: always compacts, answer goes back.
    Admin(CompactRespond),
    /// The server is stopping.
    Stop,
}

/// Where an admin compaction's result is delivered.
enum CompactRespond {
    /// A threads-backend worker parked on the other end of a channel.
    Sync(mpsc::Sender<Result<(u64, u64), String>>),
    /// An epoll connection: the result is pushed straight into the
    /// reactor's completion pile (the executor is never blocked).
    #[cfg(target_os = "linux")]
    Epoll {
        /// Connection token.
        conn: u64,
        /// Client-chosen request id.
        id: u64,
    },
}

/// The compactor thread: runs at most one compaction at a time, fed by
/// update-threshold pokes and explicit admin requests.
fn compactor_loop(shared: &Shared, rx: &mpsc::Receiver<CompactMsg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            CompactMsg::Stop => return,
            CompactMsg::Threshold => {
                let over_threshold = || {
                    let threshold = shared.config.compact_threshold;
                    let overlay_over = threshold > 0
                        && shared
                            .current
                            .read()
                            .map(|g| g.overlay_edges() >= threshold)
                            .unwrap_or(false);
                    // A checkpoint truncates the WAL, so an oversized
                    // log compacts even with a small overlay.
                    let wal_over = shared
                        .config
                        .wal_max_bytes
                        .is_some_and(|cap| shared.wal_bytes.load(Ordering::Relaxed) >= cap);
                    overlay_over || wal_over
                };
                if over_threshold() {
                    if let Err(e) = do_compact(shared) {
                        eprintln!("hopdb-server: background compaction failed: {e}");
                        // Back off before the retry below so a
                        // persistent build error can't spin the core.
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    // Re-arm: an aborted attempt (superseding swap,
                    // build error) — or updates that landed mid-build —
                    // can leave the overlay still over the threshold
                    // with no future update due to poke us. Poke
                    // ourselves instead of idling until the next write.
                    if over_threshold() && !shared.stop.load(Ordering::SeqCst) {
                        if let Ok(tx) = shared.compact_tx.lock() {
                            if let Some(tx) = tx.as_ref() {
                                let _ = tx.send(CompactMsg::Threshold);
                            }
                        }
                    }
                }
            }
            CompactMsg::Admin(respond) => {
                let result = do_compact(shared);
                match respond {
                    CompactRespond::Sync(tx) => {
                        let _ = tx.send(result);
                    }
                    #[cfg(target_os = "linux")]
                    CompactRespond::Epoll { conn, id } => {
                        let body = match result {
                            Ok((generation, vertices)) => {
                                ResponseBody::Compacted { generation, vertices }
                            }
                            Err(e) => ResponseBody::Error(format!("compact failed: {e}")),
                        };
                        if let Some(ctl) = shared.epoll_ctl.get() {
                            // `push` wakes the reactor's eventfd itself.
                            ctl.completions.push(crate::batch::Completion {
                                conn,
                                bytes: Response { id, body }.encode(),
                                answered: 1,
                                close_after: false,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// The blocking thread-per-connection backend.
fn serve_threads(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<ServerHandle> {
    let threads = if shared.config.threads == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        shared.config.threads
    };
    let (tx, rx) = mpsc::channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..threads)
        .map(|_| {
            let (shared, rx) = (Arc::clone(&shared), Arc::clone(&rx));
            std::thread::spawn(move || worker_loop(&shared, &rx))
        })
        .collect();

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // A send can only fail after stop; drop the socket.
                    let _ = tx.send(stream);
                }
            }
            // Dropping the sender drains the workers once their current
            // connections finish.
        })
    };

    Ok(ServerHandle { shared, accept: Some(accept), workers })
}

fn worker_loop(shared: &Shared, rx: &Mutex<mpsc::Receiver<TcpStream>>) {
    loop {
        // Only one worker parks in `recv` at a time (the rest queue on
        // the mutex) — the standard shared-queue pool without external
        // crates.
        let stream = match rx.lock() {
            Ok(guard) => match guard.recv() {
                Ok(stream) => stream,
                Err(_) => return, // accept loop gone, queue drained
            },
            Err(_) => return,
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let conn_id = shared.conn_seq.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            if let Ok(mut conns) = shared.conns.lock() {
                conns.insert(conn_id, clone);
            }
        }
        let _ = handle_connection(shared, &stream);
        if let Ok(mut conns) = shared.conns.lock() {
            conns.remove(&conn_id);
        }
    }
}

/// Serve one connection until the peer closes, a fatal protocol error
/// desynchronizes the stream, or the daemon stops.
fn handle_connection(shared: &Shared, stream: &TcpStream) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        match read_request(&mut reader, shared.config.max_batch) {
            Ok(request) => {
                shared.requests.fetch_add(1, Ordering::Relaxed);
                let stopping =
                    matches!(request.body, RequestBody::Shutdown) && shared.config.allow_shutdown;
                let response = dispatch(shared, request);
                writer.write_all(&response.encode())?;
                writer.flush()?;
                if stopping {
                    shared.begin_stop();
                    return Ok(());
                }
            }
            Err(ProtoError::Bad { id, msg }) => {
                // Payload-level violation: the frame was consumed, the
                // stream is still aligned — answer and keep serving.
                shared.requests.fetch_add(1, Ordering::Relaxed);
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                writer.write_all(&Response { id, body: ResponseBody::Error(msg) }.encode())?;
                writer.flush()?;
            }
            Err(ProtoError::Closed) => return Ok(()),
            Err(ProtoError::Fatal(msg)) => {
                // Unsynchronizable stream: best-effort error frame,
                // then close — never leave the peer hanging.
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let bye = Response { id: 0, body: ResponseBody::Error(msg) };
                let _ = writer.write_all(&bye.encode());
                let _ = writer.flush();
                // Half-close and drain (bounded) before the full close:
                // closing with unread bytes in the receive queue makes
                // the kernel send RST, which would destroy the error
                // frame before the peer reads it.
                let _ = stream.shutdown(Shutdown::Write);
                drain_bounded(&mut reader, stream);
                let _ = stream.shutdown(Shutdown::Both);
                return Ok(());
            }
            Err(ProtoError::Io(e)) => return Err(e),
        }
    }
}

/// Swallow whatever the peer already sent, bounded in bytes and time,
/// so the close after a fatal protocol error doesn't RST away the error
/// frame. A peer that keeps streaming past the budget gets the reset.
fn drain_bounded(reader: &mut impl std::io::Read, stream: &TcpStream) {
    const DRAIN_BUDGET: usize = 1 << 20;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(2)));
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < DRAIN_BUDGET {
        match reader.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn dispatch(shared: &Shared, request: Request) -> Response {
    let id = request.id;
    let body = match request.body {
        RequestBody::Query(pairs) => {
            // One Arc clone pins this whole batch to one generation,
            // even while a swap promotes the next one.
            let generation = match shared.current.read() {
                Ok(current) => Arc::clone(&current),
                Err(_) => return error(id, "server state poisoned"),
            };
            match generation.query_many(&pairs, shared.config.batch_threads) {
                Ok(dists) => ResponseBody::Distances(dists),
                Err(msg) => ResponseBody::Error(msg),
            }
        }
        RequestBody::Update(edges) => match do_update(shared, &edges) {
            Ok((generation, overlay_edges)) => ResponseBody::Updated { generation, overlay_edges },
            Err(e) => ResponseBody::Error(format!("update failed: {e}")),
        },
        RequestBody::Swap => match do_swap(shared) {
            Ok(fresh) => ResponseBody::Swapped {
                generation: fresh.generation(),
                vertices: fresh.vertices() as u64,
            },
            Err(e) => ResponseBody::Error(format!("swap failed: {e}")),
        },
        RequestBody::Compact => match request_compact_sync(shared) {
            Ok((generation, vertices)) => ResponseBody::Compacted { generation, vertices },
            Err(e) => ResponseBody::Error(format!("compact failed: {e}")),
        },
        RequestBody::Info => match info_of(shared) {
            Some(info) => ResponseBody::Info(info),
            None => return error(id, "server state poisoned"),
        },
        RequestBody::RouteInfo => match route_info_of(shared) {
            Some(route) => ResponseBody::RouteInfo(route),
            None => return error(id, "server state poisoned"),
        },
        RequestBody::Stats => match shared.current.read() {
            Ok(current) => ResponseBody::Stats(StatsReply {
                generation: current.generation(),
                vertices: current.vertices() as u64,
                directed: current.is_directed(),
                resident: current.is_resident(),
                requests: shared.requests.load(Ordering::Relaxed),
                protocol_errors: shared.protocol_errors.load(Ordering::Relaxed),
            }),
            Err(_) => return error(id, "server state poisoned"),
        },
        RequestBody::Shutdown => {
            if shared.config.allow_shutdown {
                ResponseBody::Bye
            } else {
                ResponseBody::Error("remote shutdown is disabled on this server".into())
            }
        }
    };
    Response { id, body }
}

fn error(id: u64, msg: &str) -> Response {
    Response { id, body: ResponseBody::Error(msg.to_string()) }
}

/// Load the swap path (fallback: the boot path) as a fresh generation
/// and promote it. The load happens outside the write lock, so queries
/// keep flowing on the old index for the whole load; the promotion
/// itself is one pointer store.
///
/// A swap replaces the served graph *wholesale*: pending overlay edges
/// describe the previous image and are discarded with it (`compact` is
/// the lossless promotion that folds them in).
fn do_swap(shared: &Shared) -> std::io::Result<Arc<Generation>> {
    let _serial =
        shared.mutate_serial.lock().map_err(|_| std::io::Error::other("swap lock poisoned"))?;
    let path = shared.config.swap_path.as_deref().unwrap_or(&shared.index_path);
    let next = shared.generation_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let fresh = Arc::new(Generation::load(path, shared.config.max_resident_bytes, next)?);
    let mut log =
        shared.update_log.lock().map_err(|_| std::io::Error::other("server state poisoned"))?;
    // A swap discards the update log with the image it described; the
    // durable lineage advances the same way: a fresh (empty) next-epoch
    // log, then the manifest flip committing "boot from the swapped
    // image, nothing to replay". A crash before the flip recovers the
    // pre-swap state (old log intact), after it the post-swap state.
    if let Some(durable) = &shared.durable {
        let mut d = durable.lock().map_err(|_| std::io::Error::other("server state poisoned"))?;
        let epoch = d.wal.epoch() + 1;
        let new_wal = Wal::create(
            &d.dir.join(wal::wal_file_name(epoch)),
            epoch,
            shared.config.durability,
            Arc::clone(&d.stats),
        )?;
        wal::write_manifest(
            &d.dir,
            &Manifest { epoch, index_path: path.to_path_buf() },
            Arc::clone(&d.stats),
        )?;
        let old_path = d.wal.path().to_path_buf();
        d.wal = new_wal;
        let _ = std::fs::remove_file(old_path);
        wal::gc_dir(&d.dir, epoch);
        shared.wal_epoch.store(epoch, Ordering::Relaxed);
        shared.wal_records.store(d.wal.records(), Ordering::Relaxed);
        shared.wal_bytes.store(d.wal.bytes(), Ordering::Relaxed);
    }
    *log = UpdateLog::default();
    shared.swap_epoch.fetch_add(1, Ordering::SeqCst);
    let mut current =
        shared.current.write().map_err(|_| std::io::Error::other("server state poisoned"))?;
    *current = Arc::clone(&fresh);
    Ok(fresh)
}

/// Validate an update batch against the weight invariant
/// `sfgraph::io::read_edge_list` enforces on edge-list files: weights
/// are strictly positive (shortest-path distances are ≥ 1). Weights
/// above `Dist::MAX` are unrepresentable in the wire encoding (`u32`),
/// matching the parser's overflow cap, so only zero can slip through —
/// and used to: the overlay silently clamped it to 1 and a later
/// compaction replayed it into `GraphBuilder`, which rejects it.
/// Rejecting here nacks the batch recoverably before any mutation, on
/// both the HOPQ and HTTP fronts and at the replica router.
pub(crate) fn validate_update_edges(edges: &[(u32, u32, u32)]) -> Result<(), String> {
    match edges.iter().find(|&&(_, _, w)| w == 0) {
        Some(&(s, t, _)) => Err(format!(
            "edge ({s}, {t}): edge weight 0 (weights must be ≥ 1: \
             shortest-path distances are strictly positive)"
        )),
        None => Ok(()),
    }
}

/// Apply one accepted update batch: extend the current overlay by the
/// new batch alone and promote the copy-on-write successor generation.
/// The batch is appended to the log too, for compaction. Queries
/// pinned to the old `Arc` finish on it; nothing is committed if
/// validation or the overlay update fails.
fn do_update(shared: &Shared, edges: &[(u32, u32, u32)]) -> Result<(u64, u64), String> {
    validate_update_edges(edges)?;
    let _serial = shared.mutate_serial.lock().map_err(|_| "server state poisoned".to_string())?;
    let current = {
        let guard = shared.current.read().map_err(|_| "server state poisoned".to_string())?;
        Arc::clone(&guard)
    };
    let mut log = shared.update_log.lock().map_err(|_| "server state poisoned".to_string())?;
    let next = current.with_updates(edges)?;
    let generation = next.generation();
    let overlay_edges = next.overlay_edges() as u64;
    // Make the batch durable *before* it becomes observable: only
    // validated batches reach the WAL, and nothing is published (or
    // acknowledged) unless the append succeeds. Under `always` the
    // record is on stable storage when `append` returns.
    if let Some(durable) = &shared.durable {
        let mut d = durable.lock().map_err(|_| "server state poisoned".to_string())?;
        d.wal.append(edges).map_err(|e| format!("wal append: {e}"))?;
        shared.wal_records.store(d.wal.records(), Ordering::Relaxed);
        shared.wal_bytes.store(d.wal.bytes(), Ordering::Relaxed);
    }
    log.pending.extend_from_slice(edges);
    {
        let mut cur = shared.current.write().map_err(|_| "server state poisoned".to_string())?;
        *cur = Arc::new(next);
    }
    drop(log);
    drop(_serial);
    // Poke the compactor outside the serial section; a full channel or
    // stopped compactor is not the client's problem.
    let overlay_over = shared.config.compact_threshold > 0
        && overlay_edges as usize >= shared.config.compact_threshold;
    let wal_over = shared
        .config
        .wal_max_bytes
        .is_some_and(|cap| shared.wal_bytes.load(Ordering::Relaxed) >= cap);
    if (overlay_over || wal_over) && shared.config.source_graph.is_some() {
        if let Ok(tx) = shared.compact_tx.lock() {
            if let Some(tx) = tx.as_ref() {
                let _ = tx.send(CompactMsg::Threshold);
            }
        }
    }
    Ok((generation, overlay_edges))
}

/// Ask the compactor thread to compact now and wait for its answer
/// (threads-backend path; the epoll reactor uses a completion instead).
fn request_compact_sync(shared: &Shared) -> Result<(u64, u64), String> {
    let (reply_tx, reply_rx) = mpsc::channel();
    let sent = shared
        .compact_tx
        .lock()
        .ok()
        .and_then(|tx| {
            tx.as_ref().map(|tx| tx.send(CompactMsg::Admin(CompactRespond::Sync(reply_tx))).is_ok())
        })
        .unwrap_or(false);
    if !sent {
        return Err("server is stopping".to_string());
    }
    match reply_rx.recv() {
        Ok(result) => result,
        Err(_) => Err("server is stopping".to_string()),
    }
}

/// Whether the first data line of an edge-list file carries a third
/// (weight) column — how the compactor decides to re-read the source
/// graph weighted or unweighted.
fn sniff_weighted(path: &Path) -> std::io::Result<bool> {
    use std::io::BufRead;
    let reader = BufReader::new(std::fs::File::open(path)?);
    for line in reader.lines() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        return Ok(t.split_whitespace().count() >= 3);
    }
    Ok(false)
}

/// Rebuild the frozen index from the configured source graph plus the
/// edges earlier compactions folded in plus the pinned prefix of the
/// update log, and promote it as a new generation.
///
/// The expensive build runs without holding any lock, so queries and
/// further updates keep flowing; only the final promotion takes the
/// mutation locks. Updates that arrived *during* the build stay in the
/// log and are folded into the fresh generation's overlay, so no
/// accepted edge is ever lost. If a swap promoted a different image
/// mid-build, the stale result is thrown away.
///
/// Id-space note: the rebuilt index serves the source file's vertex
/// ids. That matches the running server when the boot index was built
/// by `hopdb-cli build` from the same file (the `.rank` sidecar maps
/// original ids), which is the supported deployment for `--graph`.
fn do_compact(shared: &Shared) -> Result<(u64, u64), String> {
    let result = do_compact_inner(shared);
    if result.is_err() {
        shared.aborted_compactions.fetch_add(1, Ordering::Relaxed);
    }
    result
}

fn do_compact_inner(shared: &Shared) -> Result<(u64, u64), String> {
    use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy};
    let Some(path) = shared.config.source_graph.as_deref() else {
        return Err("compaction requires the server to be started with --graph".to_string());
    };
    // Pin: the folded edges and the log up to `pinned_len` go into the
    // rebuilt image; later arrivals fold into the fresh overlay at
    // promotion time.
    let (folded, pinned, epoch) = {
        let log = shared.update_log.lock().map_err(|_| "server state poisoned".to_string())?;
        (log.folded.clone(), log.pending.clone(), shared.swap_epoch.load(Ordering::SeqCst))
    };
    let pinned_len = pinned.len();
    let (directed, serving_n) = {
        let cur = shared.current.read().map_err(|_| "server state poisoned".to_string())?;
        (cur.is_directed(), cur.vertices())
    };

    // Build, lock-free. Same pipeline as `hopdb-cli build`: clean the
    // merged edge set, rank, relabel, label — bit-identical output at
    // any parallelism, so a compaction never changes an answer.
    let weighted_file =
        sniff_weighted(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let file = std::fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let base = sfgraph::io::read_edge_list(BufReader::new(file), directed, weighted_file)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let folded = fold_edges(folded, &pinned, directed);
    let weighted = weighted_file || folded.iter().any(|&(_, _, w)| w != 1);
    let mut builder = if directed {
        sfgraph::GraphBuilder::new_directed(base.num_vertices())
    } else {
        sfgraph::GraphBuilder::new_undirected(base.num_vertices())
    };
    if weighted {
        builder = builder.weighted();
    }
    if serving_n > 0 {
        // Trailing isolated vertices of the serving index must survive
        // the rebuild, or previously valid ids would start erroring.
        builder.ensure_vertex(serving_n as u32 - 1);
    }
    for (u, v, w) in base.edge_list() {
        builder.add_weighted_edge(u, v, w);
    }
    for &(s, t, w) in &folded {
        builder.ensure_vertex(s);
        builder.ensure_vertex(t);
        builder.add_weighted_edge(s, t, w);
    }
    let merged = builder.build();
    let rank_by = if merged.is_directed() { RankBy::DegreeProduct } else { RankBy::Degree };
    let ranking = rank_vertices(&merged, &rank_by);
    let relabeled = relabel_by_rank(&merged, &ranking);
    let cfg = hopdb::HopDbConfig { parallelism: 0, ..hopdb::HopDbConfig::default() };
    let (index, _stats) = hopdb::build_prelabeled(&relabeled, &cfg);
    let flat = hoplabels::flat::FlatIndex::from_index(&index);

    // Stage the checkpoint image while holding no lock: serialize the
    // rebuilt index, its `.rank` sidecar and its `.folded` edge list to
    // fresh files in the WAL directory and fsync them. Nothing
    // references the staged files until the manifest flips below, so
    // aborting here merely leaves garbage for the next `gc_dir` sweep.
    let staged = if let Some(durable) = &shared.durable {
        let (dir, ckpt_epoch, stats) = {
            let d = durable.lock().map_err(|_| "server state poisoned".to_string())?;
            (d.dir.clone(), d.wal.epoch() + 1, Arc::clone(&d.stats))
        };
        let stage = |e: std::io::Error| format!("checkpoint staging: {e}");
        let store = extmem::TempStore::in_dir(&dir).map_err(stage)?;
        let image = hoplabels::disk::DiskIndex::create(&index, &store, "ckpt-stage")
            .map_err(stage)?
            .persist();
        let sidecar = {
            let mut s = image.as_os_str().to_os_string();
            s.push(".rank");
            PathBuf::from(s)
        };
        std::fs::write(&sidecar, ranking.to_sidecar_bytes()).map_err(stage)?;
        for path in [&image, &sidecar] {
            std::fs::File::open(path).and_then(|f| f.sync_data()).map_err(stage)?;
        }
        let folded_path = wal::folded_sidecar(&image);
        wal::write_folded(&folded_path, ckpt_epoch, &folded, stats).map_err(stage)?;
        Some((dir, image, sidecar, folded_path, ckpt_epoch))
    } else {
        None
    };

    // Promote. Everything after this point is cheap.
    let _serial = shared.mutate_serial.lock().map_err(|_| "server state poisoned".to_string())?;
    if shared.swap_epoch.load(Ordering::SeqCst) != epoch {
        return Err("aborted: a swap was promoted during compaction".to_string());
    }
    let mut log = shared.update_log.lock().map_err(|_| "server state poisoned".to_string())?;
    let next_gen = shared.generation_seq.fetch_add(1, Ordering::SeqCst) + 1;
    let mut fresh = Generation::from_flat(flat, Some(ranking), next_gen);
    let remaining: Vec<(u32, u32, u32)> = log.pending[pinned_len..].to_vec();
    if !remaining.is_empty() {
        fresh = fresh.with_updates(&remaining)?;
    }
    let generation = fresh.generation();
    let vertices = fresh.vertices() as u64;
    // Commit the checkpoint to the durable lineage *before* publishing
    // the in-memory state: rename the staged image into its epoch name,
    // write the next epoch's WAL seeded with the unpinned tail, then
    // flip the manifest (the single commit point). A crash on either
    // side of the flip recovers a consistent state — before it, the old
    // image plus the full old log; after it, the checkpoint plus the
    // tail. Replay is idempotent, so straddling updates are safe.
    if let Some((dir, image, sidecar, folded_path, ckpt_epoch)) = staged {
        let durable = shared.durable.as_ref().expect("staged implies durable");
        let mut d = durable.lock().map_err(|_| "server state poisoned".to_string())?;
        let commit = |e: std::io::Error| format!("checkpoint commit: {e}");
        let new_epoch = d.wal.epoch() + 1;
        if new_epoch != ckpt_epoch {
            return Err("aborted: the WAL epoch moved during compaction".to_string());
        }
        let ckpt = dir.join(wal::checkpoint_image_name(new_epoch));
        let ckpt_rank = {
            let mut s = ckpt.as_os_str().to_os_string();
            s.push(".rank");
            PathBuf::from(s)
        };
        std::fs::rename(&image, &ckpt).map_err(commit)?;
        std::fs::rename(&sidecar, &ckpt_rank).map_err(commit)?;
        std::fs::rename(&folded_path, wal::folded_sidecar(&ckpt)).map_err(commit)?;
        let mut new_wal = Wal::create(
            &dir.join(wal::wal_file_name(new_epoch)),
            new_epoch,
            shared.config.durability,
            Arc::clone(&d.stats),
        )
        .map_err(commit)?;
        if !remaining.is_empty() {
            new_wal.append(&remaining).map_err(commit)?;
            new_wal.sync().map_err(commit)?;
        }
        wal::write_manifest(
            &dir,
            &Manifest { epoch: new_epoch, index_path: ckpt },
            Arc::clone(&d.stats),
        )
        .map_err(commit)?;
        let old_path = d.wal.path().to_path_buf();
        d.wal = new_wal;
        let _ = std::fs::remove_file(old_path);
        wal::gc_dir(&dir, new_epoch);
        shared.wal_epoch.store(new_epoch, Ordering::Relaxed);
        shared.wal_records.store(d.wal.records(), Ordering::Relaxed);
        shared.wal_bytes.store(d.wal.bytes(), Ordering::Relaxed);
        shared.checkpoints.fetch_add(1, Ordering::Relaxed);
    }
    *log = UpdateLog { folded, pending: remaining };
    {
        let mut cur = shared.current.write().map_err(|_| "server state poisoned".to_string())?;
        *cur = Arc::new(fresh);
    }
    shared.compactions.fetch_add(1, Ordering::Relaxed);
    Ok((generation, vertices))
}

/// `folded` plus `pinned`, deduplicated: undirected edges normalised to
/// `s ≤ t`, one entry per edge at its minimum weight. The rebuild's
/// `GraphBuilder` cleans the same way, so this never changes a graph.
fn fold_edges(
    mut folded: Vec<(u32, u32, u32)>,
    pinned: &[(u32, u32, u32)],
    directed: bool,
) -> Vec<(u32, u32, u32)> {
    folded.extend(
        pinned.iter().map(|&(s, t, w)| if directed || s <= t { (s, t, w) } else { (t, s, w) }),
    );
    folded.sort_unstable();
    folded.dedup_by_key(|&mut (s, t, _)| (s, t));
    folded
}

/// The extended `info` snapshot (protocol v2): everything `stats`
/// reports plus overlay and compaction state.
fn info_of(shared: &Shared) -> Option<InfoReply> {
    let current = shared.current.read().ok()?;
    Some(InfoReply {
        protocol: crate::proto::VERSION,
        generation: current.generation(),
        vertices: current.vertices() as u64,
        directed: current.is_directed(),
        resident: current.is_resident(),
        resident_bytes: current.resident_bytes() as u64,
        overlay_edges: current.overlay_edges() as u64,
        overlay_affected: current.overlay_affected() as u64,
        compactions: shared.compactions.load(Ordering::Relaxed),
        requests: shared.requests.load(Ordering::Relaxed),
        protocol_errors: shared.protocol_errors.load(Ordering::Relaxed),
        durability: match &shared.durable {
            None => DURABILITY_DISABLED,
            Some(_) => shared.config.durability.as_u8(),
        },
        wal_epoch: shared.wal_epoch.load(Ordering::Relaxed),
        wal_records: shared.wal_records.load(Ordering::Relaxed),
        wal_bytes: shared.wal_bytes.load(Ordering::Relaxed),
        recovered_records: shared.recovered_records.load(Ordering::Relaxed),
        recovered_dropped_bytes: shared.recovered_dropped_bytes.load(Ordering::Relaxed),
        checkpoints: shared.checkpoints.load(Ordering::Relaxed),
        aborted_compactions: shared.aborted_compactions.load(Ordering::Relaxed),
    })
}

/// The serving-topology snapshot (protocol v4): a plain daemon reports
/// [`ROUTE_SINGLE`] plus its shard slot when it serves a split image
/// (`<index>.shard` sidecar); the router module reports its own mode.
fn route_info_of(shared: &Shared) -> Option<RouteReply> {
    let current = shared.current.read().ok()?;
    let shard = current.shard();
    Some(RouteReply {
        mode: ROUTE_SINGLE,
        vertices: current.vertices() as u64,
        directed: current.is_directed(),
        generation: current.generation(),
        shard_lo: shard.map_or(0, |s| s.lo),
        shard_hi: shard.map_or(0, |s| s.hi),
        shard_index: shard.map_or(0, |s| s.index),
        shard_count: shard.map_or(0, |s| s.count),
        rank_pruned: current.shard_rank_pruned(),
    })
}

/// The readiness-driven backend: one reactor thread multiplexing every
/// connection over epoll, one executor thread running coalesced query
/// micro-batches.
///
/// ```text
/// reactor thread                     executor thread
///   epoll_wait ──► accept / read       Batcher::next_batch
///   cut frames (HOPQ or HTTP)  ──────►   coalesce pairs across conns
///   answer stats/shutdown inline         ONE Generation clone per batch
///   queue + flush responses   ◄──────    query_many → encode responses
///   (Completions + eventfd wake)         (swaps run here too)
/// ```
///
/// The reactor never blocks on a socket and never runs a query; the
/// executor never touches a socket. In-flight caps and the write
/// high-water mark turn misbehaving peers into *paused* peers (their
/// readable interest is dropped) instead of unbounded memory.
#[cfg(target_os = "linux")]
mod epoll_backend {
    use super::*;
    use crate::batch::{Batcher, Completion, Completions, Job, RespondAs, UpdateRespond};
    use crate::conn::{Conn, ConnRequest, ConnState, Mode};
    use crate::http::{self, HttpRequest};
    use crate::proto::Response;
    use crate::reactor::{Event, Poller, WakeFd, EV_READ, EV_WRITE};
    use std::io::Read;
    use std::time::{Duration, Instant};

    const TOKEN_LISTENER: u64 = 0;
    const TOKEN_WAKER: u64 = 1;
    const FIRST_CONN_TOKEN: u64 = 2;
    /// Reactor tick: upper bound on how stale idle/drain bookkeeping
    /// can get; all real work is event-driven.
    const POLL_TICK_MS: i32 = 25;
    /// Graceful-drain budget after a stop: owed responses get this long
    /// to flush before connections are cut.
    const DRAIN_DEADLINE: Duration = Duration::from_secs(3);
    /// Post-error discard budget (bytes, and seconds of patience) so a
    /// close doesn't RST away the final error frame.
    const DISCARD_BUDGET: usize = 1 << 20;
    const DISCARD_TIMEOUT: Duration = Duration::from_secs(2);

    /// One executable query job: (connection token, response
    /// encoding, query pairs).
    type QueryJob = (u64, RespondAs, Vec<(u32, u32)>);

    /// Hooks `Shared::begin_stop` and the compactor thread use to reach
    /// a running reactor.
    pub(super) struct EpollCtl {
        pub(super) wake: Arc<WakeFd>,
        pub(super) batcher: Arc<Batcher>,
        pub(super) completions: Arc<Completions>,
    }

    pub(super) fn serve_epoll(
        listener: TcpListener,
        shared: Arc<Shared>,
    ) -> std::io::Result<ServerHandle> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new(256)?;
        let wake = Arc::new(WakeFd::new()?);
        let batcher = Arc::new(Batcher::new());
        let completions = Arc::new(Completions::new(Arc::clone(&wake)));
        poller.register(&listener, EV_READ, TOKEN_LISTENER)?;
        poller.register(&*wake, EV_READ, TOKEN_WAKER)?;
        let _ = shared.epoll_ctl.set(EpollCtl {
            wake: Arc::clone(&wake),
            batcher: Arc::clone(&batcher),
            completions: Arc::clone(&completions),
        });

        let executor = {
            let (shared, batcher, completions) =
                (Arc::clone(&shared), Arc::clone(&batcher), Arc::clone(&completions));
            std::thread::spawn(move || executor_loop(&shared, &batcher, &completions))
        };
        let reactor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                Reactor {
                    shared,
                    poller,
                    wake,
                    batcher,
                    completions,
                    listener,
                    conns: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    draining_since: None,
                }
                .run()
            })
        };
        Ok(ServerHandle { shared, accept: None, workers: vec![reactor, executor] })
    }

    struct Reactor {
        shared: Arc<Shared>,
        poller: Poller,
        wake: Arc<WakeFd>,
        batcher: Arc<Batcher>,
        completions: Arc<Completions>,
        listener: TcpListener,
        conns: HashMap<u64, Conn>,
        next_token: u64,
        draining_since: Option<Instant>,
    }

    impl Reactor {
        fn run(mut self) {
            let mut events: Vec<Event> = Vec::new();
            loop {
                if self.shared.stop.load(Ordering::SeqCst) && self.draining_since.is_none() {
                    self.begin_drain();
                }
                if let Some(since) = self.draining_since {
                    let owed =
                        self.conns.values().any(|c| c.inflight > 0 || c.pending_write_bytes() > 0);
                    if !owed || since.elapsed() > DRAIN_DEADLINE {
                        break;
                    }
                }
                events.clear();
                if self.poller.wait(Some(POLL_TICK_MS), |ev| events.push(ev)).is_err() {
                    break;
                }
                for ev in &events {
                    match ev.token {
                        TOKEN_LISTENER => self.accept_ready(),
                        TOKEN_WAKER => self.wake.drain(),
                        token => {
                            if ev.readable() {
                                self.conn_readable(token);
                            }
                            if ev.writable() {
                                self.conn_writable(token);
                            }
                        }
                    }
                }
                self.apply_completions();
                self.advance_all();
            }
            // Dropping the map closes every socket; dropping the
            // listener closes the port.
        }

        fn begin_drain(&mut self) {
            self.draining_since = Some(Instant::now());
            let _ = self.poller.deregister(&self.listener);
            for conn in self.conns.values_mut() {
                if conn.state == ConnState::Open {
                    conn.state = ConnState::CloseAfterFlush;
                }
            }
        }

        fn accept_ready(&mut self) {
            if self.draining_since.is_some() {
                return;
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        let token = self.next_token;
                        self.next_token += 1;
                        if self.poller.register(&stream, EV_READ, token).is_ok() {
                            let mut conn = Conn::new(stream, Instant::now());
                            conn.registered = EV_READ;
                            self.conns.insert(token, conn);
                            self.shared.conn_seq.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => break,
                }
            }
        }

        /// Per-connection cap on unanswered requests: HTTP answers must
        /// stay in order, so HTTP connections run one at a time.
        fn inflight_cap(&self, mode: Mode) -> usize {
            if mode == Mode::Http {
                1
            } else {
                self.shared.config.max_inflight.max(1)
            }
        }

        fn conn_readable(&mut self, token: u64) {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            match conn.state {
                ConnState::Open => {
                    let cap = if conn.mode == Mode::Http {
                        1
                    } else {
                        self.shared.config.max_inflight.max(1)
                    };
                    // Backpressure: a capped or backed-up connection is
                    // simply not read. Level-triggered epoll re-reports
                    // it once interest returns.
                    if conn.inflight >= cap || conn.write_backed_up() {
                        return;
                    }
                    if conn.fill(Instant::now()).is_err() {
                        conn.state = ConnState::Dead;
                        return;
                    }
                    self.parse_conn(token);
                }
                ConnState::Draining { budget } => {
                    let mut left = budget;
                    let mut chunk = [0u8; 4096];
                    loop {
                        if left == 0 {
                            conn.state = ConnState::Dead;
                            break;
                        }
                        match conn.stream.read(&mut chunk) {
                            Ok(0) => {
                                conn.state = ConnState::Dead;
                                break;
                            }
                            Ok(n) => left = left.saturating_sub(n),
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                conn.state = ConnState::Draining { budget: left };
                                break;
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(_) => {
                                conn.state = ConnState::Dead;
                                break;
                            }
                        }
                    }
                }
                ConnState::CloseAfterFlush | ConnState::Dead => {}
            }
        }

        fn conn_writable(&mut self, token: u64) {
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.pending_write_bytes() > 0 && conn.flush().is_err() {
                    conn.state = ConnState::Dead;
                }
            }
        }

        /// Cut and dispatch every whole request buffered on `token`,
        /// stopping at the in-flight cap.
        fn parse_conn(&mut self, token: u64) {
            loop {
                let request = {
                    let Some(conn) = self.conns.get_mut(&token) else { return };
                    if conn.state != ConnState::Open {
                        return;
                    }
                    let cap = if conn.mode == Mode::Http {
                        1
                    } else {
                        self.shared.config.max_inflight.max(1)
                    };
                    if conn.inflight >= cap || conn.write_backed_up() {
                        return;
                    }
                    match conn.next_request(self.shared.config.max_batch) {
                        Some(request) => request,
                        None => {
                            // EOF with a partial frame still buffered:
                            // the peer can never complete it.
                            if conn.peer_eof && conn.pending_read_bytes() > 0 {
                                self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                                let bye = Response {
                                    id: 0,
                                    body: ResponseBody::Error("truncated frame".into()),
                                };
                                conn.queue_write(&bye.encode(), Instant::now());
                                conn.state = ConnState::CloseAfterFlush;
                            }
                            return;
                        }
                    }
                };
                self.dispatch(token, request);
            }
        }

        fn dispatch(&mut self, token: u64, request: ConnRequest) {
            match request {
                ConnRequest::Hopq(req) => {
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    let id = req.id;
                    match req.body {
                        RequestBody::Query(pairs) => {
                            self.submit_query(token, RespondAs::Hopq { id }, pairs);
                        }
                        RequestBody::Update(edges) => {
                            let job = Job::Update {
                                conn: token,
                                respond: UpdateRespond::Hopq { id },
                                edges,
                            };
                            if self.batcher.submit(job) {
                                if let Some(c) = self.conns.get_mut(&token) {
                                    c.inflight += 1;
                                }
                            } else {
                                self.queue_response(token, error(id, "server is stopping"), false);
                            }
                        }
                        RequestBody::Swap => {
                            if self.batcher.submit(Job::Swap { conn: token, id }) {
                                if let Some(c) = self.conns.get_mut(&token) {
                                    c.inflight += 1;
                                }
                            } else {
                                self.queue_response(token, error(id, "server is stopping"), false);
                            }
                        }
                        RequestBody::Compact => {
                            // Hand to the compactor thread; the answer
                            // comes back as a completion, so neither
                            // the reactor nor the executor ever blocks
                            // on a rebuild.
                            if self.request_compact_async(token, id) {
                                if let Some(c) = self.conns.get_mut(&token) {
                                    c.inflight += 1;
                                }
                            } else {
                                self.queue_response(token, error(id, "server is stopping"), false);
                            }
                        }
                        RequestBody::Info => {
                            let resp = match info_of(&self.shared) {
                                Some(info) => Response { id, body: ResponseBody::Info(info) },
                                None => error(id, "server state poisoned"),
                            };
                            self.queue_response(token, resp, false);
                        }
                        RequestBody::RouteInfo => {
                            let resp = match route_info_of(&self.shared) {
                                Some(r) => Response { id, body: ResponseBody::RouteInfo(r) },
                                None => error(id, "server state poisoned"),
                            };
                            self.queue_response(token, resp, false);
                        }
                        RequestBody::Stats => {
                            let reply = self.stats_reply();
                            let resp = Response { id, body: ResponseBody::Stats(reply) };
                            self.queue_response(token, resp, false);
                        }
                        RequestBody::Shutdown => {
                            if self.shared.config.allow_shutdown {
                                let resp = Response { id, body: ResponseBody::Bye };
                                self.queue_response(token, resp, false);
                                self.shared.begin_stop();
                            } else {
                                let resp = error(id, "remote shutdown is disabled on this server");
                                self.queue_response(token, resp, false);
                            }
                        }
                    }
                }
                ConnRequest::HopqBad { id, msg } => {
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.queue_response(token, error(id, &msg), false);
                }
                ConnRequest::HopqFatal(msg) => {
                    self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.queue_response(token, error(0, &msg), true);
                }
                ConnRequest::Http { request, close } => {
                    self.shared.requests.fetch_add(1, Ordering::Relaxed);
                    match request {
                        HttpRequest::QueryOne { s, t } => {
                            self.submit_query(token, RespondAs::HttpOne { close }, vec![(s, t)]);
                        }
                        HttpRequest::QueryMany(pairs) => {
                            self.submit_query(token, RespondAs::HttpMany { close }, pairs);
                        }
                        HttpRequest::Update(edges) => {
                            let job = Job::Update {
                                conn: token,
                                respond: UpdateRespond::Http { close },
                                edges,
                            };
                            if self.batcher.submit(job) {
                                if let Some(c) = self.conns.get_mut(&token) {
                                    c.inflight += 1;
                                }
                            } else {
                                let bytes = http::render_error(503, "server is stopping");
                                self.queue_bytes(token, &bytes, true);
                            }
                        }
                        HttpRequest::Stats => {
                            let body = self.stats_json();
                            let bytes = http::render_response(200, &body, close);
                            self.queue_bytes(token, &bytes, close);
                        }
                    }
                }
                ConnRequest::HttpError(resp) => {
                    self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.queue_bytes(token, &resp, true);
                }
            }
        }

        /// Queue an admin compaction on the compactor thread; the reply
        /// arrives through the completion pile. Returns `false` when
        /// the server is stopping.
        fn request_compact_async(&mut self, token: u64, id: u64) -> bool {
            let Ok(tx) = self.shared.compact_tx.lock() else { return false };
            let Some(tx) = tx.as_ref() else { return false };
            tx.send(CompactMsg::Admin(CompactRespond::Epoll { conn: token, id })).is_ok()
        }

        fn submit_query(&mut self, token: u64, respond: RespondAs, pairs: Vec<(u32, u32)>) {
            if self.batcher.submit(Job::Query { conn: token, respond, pairs }) {
                if let Some(c) = self.conns.get_mut(&token) {
                    c.inflight += 1;
                }
            } else {
                let (bytes, close) = match respond {
                    RespondAs::Hopq { id } => (error(id, "server is stopping").encode(), false),
                    RespondAs::HttpOne { .. } | RespondAs::HttpMany { .. } => {
                        (http::render_error(503, "server is stopping"), true)
                    }
                };
                self.queue_bytes(token, &bytes, close);
            }
        }

        fn queue_response(&mut self, token: u64, resp: Response, close_after: bool) {
            self.queue_bytes(token, &resp.encode(), close_after);
        }

        fn queue_bytes(&mut self, token: u64, bytes: &[u8], close_after: bool) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.queue_write(bytes, Instant::now());
                if close_after && conn.state == ConnState::Open {
                    conn.state = ConnState::CloseAfterFlush;
                }
            }
        }

        fn apply_completions(&mut self) {
            for done in self.completions.drain() {
                if let Some(conn) = self.conns.get_mut(&done.conn) {
                    conn.inflight = conn.inflight.saturating_sub(done.answered);
                    conn.queue_write(&done.bytes, Instant::now());
                    if done.close_after && conn.state == ConnState::Open {
                        conn.state = ConnState::CloseAfterFlush;
                    }
                }
            }
        }

        /// Advance every connection's state machine: parse leftovers
        /// (capacity may have freed), flush, transition, re-arm.
        fn advance_all(&mut self) {
            let now = Instant::now();
            let tokens: Vec<u64> = self.conns.keys().copied().collect();
            for token in tokens {
                self.advance_conn(token, now);
            }
        }

        fn advance_conn(&mut self, token: u64, now: Instant) {
            self.parse_conn(token);
            let idle = match self.shared.config.idle_timeout_ms {
                0 => None,
                ms => Some(Duration::from_millis(ms)),
            };
            let cap = {
                let Some(conn) = self.conns.get(&token) else { return };
                self.inflight_cap(conn.mode)
            };
            let drain_mode = self.draining_since.is_some();
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.pending_write_bytes() > 0 && conn.flush().is_err() {
                conn.state = ConnState::Dead;
            }
            match conn.state {
                ConnState::Open => {
                    if conn.peer_eof
                        && conn.inflight == 0
                        && conn.pending_write_bytes() == 0
                        && conn.pending_read_bytes() == 0
                    {
                        conn.state = ConnState::Dead;
                    } else if let Some(idle) = idle {
                        if conn.inflight == 0
                            && conn.pending_write_bytes() == 0
                            && now.duration_since(conn.last_activity) >= idle
                        {
                            conn.state = ConnState::Dead;
                        }
                    }
                }
                ConnState::CloseAfterFlush => {
                    if conn.inflight == 0 && conn.pending_write_bytes() == 0 {
                        // Half-close, then linger (bounded) discarding
                        // what the peer already sent, so the close
                        // can't RST away the frames just flushed.
                        let _ = conn.stream.shutdown(Shutdown::Write);
                        conn.state = if conn.peer_eof {
                            ConnState::Dead
                        } else {
                            ConnState::Draining { budget: DISCARD_BUDGET }
                        };
                        conn.last_activity = now;
                    }
                }
                ConnState::Draining { .. } => {
                    if conn.peer_eof || now.duration_since(conn.last_activity) > DISCARD_TIMEOUT {
                        conn.state = ConnState::Dead;
                    }
                }
                ConnState::Dead => {}
            }
            let mut dead = conn.state == ConnState::Dead;
            if !dead {
                let desired = desired_interest(conn, cap, drain_mode);
                if desired != conn.registered {
                    match self.poller.rearm(&conn.stream, desired, token) {
                        Ok(()) => conn.registered = desired,
                        Err(_) => dead = true,
                    }
                }
            }
            if dead {
                if let Some(conn) = self.conns.remove(&token) {
                    let _ = self.poller.deregister(&conn.stream);
                }
            }
        }

        fn stats_reply(&self) -> StatsReply {
            match self.shared.current.read() {
                Ok(current) => StatsReply {
                    generation: current.generation(),
                    vertices: current.vertices() as u64,
                    directed: current.is_directed(),
                    resident: current.is_resident(),
                    requests: self.shared.requests.load(Ordering::Relaxed),
                    protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
                },
                Err(_) => StatsReply::default(),
            }
        }

        fn stats_json(&self) -> String {
            let s = self.stats_reply();
            let (resident_bytes, overlay_edges, overlay_affected) = self
                .shared
                .current
                .read()
                .map(|g| (g.resident_bytes(), g.overlay_edges(), g.overlay_affected()))
                .unwrap_or((0, 0, 0));
            let compactions = self.shared.compactions.load(Ordering::Relaxed);
            let durability = match &self.shared.durable {
                None => "disabled".to_string(),
                Some(_) => self.shared.config.durability.to_string(),
            };
            let wal_epoch = self.shared.wal_epoch.load(Ordering::Relaxed);
            let wal_records = self.shared.wal_records.load(Ordering::Relaxed);
            let wal_bytes = self.shared.wal_bytes.load(Ordering::Relaxed);
            let recovered_records = self.shared.recovered_records.load(Ordering::Relaxed);
            let recovered_dropped_bytes =
                self.shared.recovered_dropped_bytes.load(Ordering::Relaxed);
            let checkpoints = self.shared.checkpoints.load(Ordering::Relaxed);
            let aborted_compactions = self.shared.aborted_compactions.load(Ordering::Relaxed);
            format!(
                "{{\"generation\":{},\"vertices\":{},\"directed\":{},\"resident\":{},\
                 \"resident_bytes\":{resident_bytes},\"overlay_edges\":{overlay_edges},\
                 \"overlay_affected\":{overlay_affected},\"compactions\":{compactions},\
                 \"requests\":{},\"protocol_errors\":{},\
                 \"durability\":\"{durability}\",\"wal_epoch\":{wal_epoch},\
                 \"wal_records\":{wal_records},\"wal_bytes\":{wal_bytes},\
                 \"recovered_records\":{recovered_records},\
                 \"recovered_dropped_bytes\":{recovered_dropped_bytes},\
                 \"checkpoints\":{checkpoints},\"aborted_compactions\":{aborted_compactions}}}",
                s.generation, s.vertices, s.directed, s.resident, s.requests, s.protocol_errors,
            )
        }
    }

    /// The interest mask a connection's state calls for.
    fn desired_interest(conn: &Conn, cap: usize, drain_mode: bool) -> u32 {
        let mut mask = 0;
        match conn.state {
            ConnState::Open => {
                let paused =
                    conn.inflight >= cap || conn.write_backed_up() || conn.peer_eof || drain_mode;
                if !paused {
                    mask |= EV_READ;
                }
                if conn.pending_write_bytes() > 0 {
                    mask |= EV_WRITE;
                }
            }
            ConnState::CloseAfterFlush => mask |= EV_WRITE,
            ConnState::Draining { .. } => mask |= EV_READ,
            ConnState::Dead => {}
        }
        mask
    }

    /// The executor: pull coalesced batches, answer them, run swaps.
    fn executor_loop(shared: &Shared, batcher: &Batcher, completions: &Completions) {
        let flush_after = Duration::from_micros(shared.config.flush_us.max(1));
        let coalesce = shared.config.coalesce_pairs.max(1);
        while let Some(jobs) = batcher.next_batch(coalesce, flush_after) {
            let mut queries: Vec<QueryJob> = Vec::new();
            for job in jobs {
                match job {
                    Job::Query { conn, respond, pairs } => queries.push((conn, respond, pairs)),
                    Job::Swap { conn, id } => {
                        // Queries queued before the swap answer on the
                        // old generation; flush them first.
                        run_queries(shared, completions, std::mem::take(&mut queries));
                        let body = match do_swap(shared) {
                            Ok(fresh) => ResponseBody::Swapped {
                                generation: fresh.generation(),
                                vertices: fresh.vertices() as u64,
                            },
                            Err(e) => ResponseBody::Error(format!("swap failed: {e}")),
                        };
                        completions.push(Completion {
                            conn,
                            bytes: Response { id, body }.encode(),
                            answered: 1,
                            close_after: false,
                        });
                    }
                    Job::Update { conn, respond, edges } => {
                        // Same ordering contract as a swap: queries
                        // submitted before this frame answer on the
                        // pre-update overlay, queries after it on the
                        // post-update one.
                        run_queries(shared, completions, std::mem::take(&mut queries));
                        let result = do_update(shared, &edges);
                        let (bytes, close_after) = match respond {
                            UpdateRespond::Hopq { id } => {
                                let body = match result {
                                    Ok((generation, overlay_edges)) => {
                                        ResponseBody::Updated { generation, overlay_edges }
                                    }
                                    Err(e) => ResponseBody::Error(format!("update failed: {e}")),
                                };
                                (Response { id, body }.encode(), false)
                            }
                            UpdateRespond::Http { close } => match result {
                                Ok((generation, overlay_edges)) => {
                                    (http::render_update(generation, overlay_edges, close), close)
                                }
                                Err(e) => {
                                    (http::render_error(400, &format!("update failed: {e}")), true)
                                }
                            },
                        };
                        completions.push(Completion { conn, bytes, answered: 1, close_after });
                    }
                }
            }
            run_queries(shared, completions, queries);
        }
    }

    /// Answer one coalesced batch: a single `Generation` clone pins the
    /// whole batch to one index, a single `query_many_into` call
    /// answers every pair, and per-job slices are encoded back out.
    fn run_queries(shared: &Shared, completions: &Completions, jobs: Vec<QueryJob>) {
        if jobs.is_empty() {
            return;
        }
        let generation = match shared.current.read() {
            Ok(current) => Arc::clone(&current),
            Err(_) => {
                for (conn, respond, _) in jobs {
                    push_error(completions, conn, respond, "server state poisoned");
                }
                return;
            }
        };
        let n = generation.vertices() as u32;
        // Range-check per job so one bad frame can't fail its batchmates.
        let mut combined: Vec<(u32, u32)> = Vec::new();
        let mut plan: Vec<(usize, usize, usize)> = Vec::new();
        for (i, (conn, respond, pairs)) in jobs.iter().enumerate() {
            match pairs.iter().find(|&&(s, t)| s >= n || t >= n) {
                Some(&(s, t)) => {
                    let msg = format!("vertex out of range: ({s}, {t}) on a {n}-vertex index");
                    push_error(completions, *conn, *respond, &msg);
                }
                None => {
                    plan.push((i, combined.len(), pairs.len()));
                    combined.extend_from_slice(pairs);
                }
            }
        }
        if combined.is_empty() {
            return;
        }
        let mut dists = Vec::with_capacity(combined.len());
        match generation.query_many_into(&combined, shared.config.batch_threads, &mut dists) {
            Err(msg) => {
                for &(i, _, _) in &plan {
                    let (conn, respond, _) = &jobs[i];
                    push_error(completions, *conn, *respond, &msg);
                }
            }
            Ok(()) => {
                for &(i, offset, len) in &plan {
                    let (conn, respond, pairs) = &jobs[i];
                    let slice = &dists[offset..offset + len];
                    let (bytes, close_after) = match *respond {
                        RespondAs::Hopq { id } => (
                            Response { id, body: ResponseBody::Distances(slice.to_vec()) }.encode(),
                            false,
                        ),
                        RespondAs::HttpOne { close } => {
                            (http::render_query_one(pairs[0].0, pairs[0].1, slice[0], close), close)
                        }
                        RespondAs::HttpMany { close } => {
                            (http::render_query_many(slice, close), close)
                        }
                    };
                    completions.push(Completion { conn: *conn, bytes, answered: 1, close_after });
                }
            }
        }
    }

    fn push_error(completions: &Completions, conn: u64, respond: RespondAs, msg: &str) {
        let (bytes, close_after) = match respond {
            RespondAs::Hopq { id } => (error(id, msg).encode(), false),
            RespondAs::HttpOne { .. } | RespondAs::HttpMany { .. } => {
                (http::render_error(400, msg), true)
            }
        };
        completions.push(Completion { conn, bytes, answered: 1, close_after });
    }
}
