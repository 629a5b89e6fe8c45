//! The workloads. Each one runs the same phases, in rounds that repeat
//! until `--seconds` have passed; a workload sets the input graph and
//! how much work each phase does in a round. Every round attempts the
//! same operations, and every metric is a median over the run, so a
//! burst of outside load moves it only if it lasts through most of the
//! run.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use extmem::{ExtMemConfig, IoStats, TempStore};
use hopdb::{build_prelabeled, BuildStats, HopDbConfig};
use hopdb_server::proto::{
    decode_request, read_response, Decoded, Request, RequestBody, Response, ResponseBody,
};
use hopdb_server::wal::{self, Durability, Wal};
use hopdb_server::{
    serve, serve_router, Client, RouteMode, RouterConfig, ServerConfig, ServerHandle,
};
use hoplabels::disk::DiskIndex;
use hoplabels::{min_merge, shard_image, FlatIndex, LabelIndex, LiveIndex, QueryBackend};
use sfgraph::ranking::{rank_vertices, relabel_by_rank, RankBy, Ranking};
use sfgraph::{Dist, Graph, VertexId};

use crate::check::{self, Checks};
use crate::inputs::{self, GraphSpec};
use crate::net::{self, Frame, Outcome};
use crate::report::Report;
use crate::stats::{mean, median, percentile};
use crate::trace;

/// Pairs per query frame.
pub const FRAME_PAIRS: usize = 256;
/// Distinct frames a load phase cycles through.
const FRAME_POOL: usize = 32;
/// A reply slower than this is one the reactor's poll tick released.
const TICK: Duration = Duration::from_millis(25);
/// Open-loop offered rate (frames/s), about a third of closed-loop
/// capacity: busy enough that the daemon's threads stay awake between
/// frames, idle enough that the queue stays short.
const OPEN_RATE: f64 = 1000.0;
/// Fresh edges per update batch.
const EDGES_PER_BATCH: usize = 4;
/// Update batches per write cycle; an explicit compaction ends it.
const BATCHES_PER_CYCLE: usize = 8;
/// Write cycles per round, all on the round's one write daemon.
const CYCLES: usize = 3;
/// Reads sent beside each cycle's updates.
const READS_PER_CYCLE: usize = 8;
/// Update batches left uncompacted after the last cycle, with no reads
/// beside them. `update_p50_us` is the median over rounds of their mean
/// ack: each ack rebuilds the whole overlay, so acks grow steeply with
/// the tail and a median of single acks lands on the steepest part.
const TAIL_BATCHES: usize = 24;
/// Daemon restarts on the WAL directory per round.
const RESTARTS_PER_ROUND: usize = 4;
/// Rounds every run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The workloads, by name.
#[derive(Clone, Copy)]
pub enum Workload {
    /// Construction: in-memory and external builds every round.
    Build,
    /// Serving: fresh-daemon read slices and write cycles every round.
    ServeWrite,
}

impl Workload {
    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "build" => Some(Workload::Build),
            "serve-write" => Some(Workload::ServeWrite),
            _ => None,
        }
    }

    fn plan(self) -> Plan {
        match self {
            Workload::Build => Plan {
                graph: GraphSpec { n: 12_000, density: 4.0, reciprocity: Some(0.25) },
                setups: 5,
                build_rounds: usize::MAX,
                ext_rounds: usize::MAX,
                loads: Loads { query_s: 0.1, closed: 1500, pipe: 0, open_s: 1.0, routed: 600 },
            },
            Workload::ServeWrite => Plan {
                graph: GraphSpec { n: 16_000, density: 4.0, reciprocity: None },
                setups: 3,
                build_rounds: 2,
                ext_rounds: 3,
                loads: Loads { query_s: 0.1, closed: 1500, pipe: 2048, open_s: 1.0, routed: 600 },
            },
        }
    }
}

/// The read load of one round.
struct Loads {
    /// Seconds of in-process point queries.
    query_s: f64,
    /// Closed-loop frames.
    closed: usize,
    /// Pipelined frames (none: no pipelined slice).
    pipe: usize,
    /// Seconds of open-loop sends at `OPEN_RATE`.
    open_s: f64,
    /// Closed-loop frames through the shard router.
    routed: usize,
}

struct Plan {
    graph: GraphSpec,
    /// Set-ups per run; `setup_s` is their median.
    setups: usize,
    /// Rounds that rebuild the index in memory.
    build_rounds: usize,
    /// Rounds that build the index externally.
    ext_rounds: usize,
    loads: Loads,
}

fn rank(g: &Graph) -> (Ranking, Graph) {
    let by = if g.is_directed() { RankBy::DegreeProduct } else { RankBy::Degree };
    let ranking = rank_vertices(g, &by);
    let relabeled = relabel_by_rank(g, &ranking);
    (ranking, relabeled)
}

/// The in-memory build under test: sequential, the program default.
fn build(relabeled: &Graph) -> ((LabelIndex, BuildStats), Duration) {
    trace::timed("hopdb.build", || build_prelabeled(relabeled, &HopDbConfig::default()))
}

/// Serialize `index` to `path` with its `.rank` sidecar.
fn stage(index: &LabelIndex, ranking: &Ranking, path: &Path) -> std::io::Result<()> {
    let store = TempStore::in_dir(path.parent().expect("staged files live in the work dir"))?;
    let (disk, _) =
        trace::timed("hoplabels.serialize", || DiskIndex::create(index, &store, "stage"));
    std::fs::rename(disk?.persist(), path)?;
    std::fs::write(sidecar(path, "rank"), ranking.to_sidecar_bytes())
}

fn sidecar(path: &Path, ext: &str) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".");
    s.push(ext);
    PathBuf::from(s)
}

/// Peak resident set of this process so far, in bytes.
fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0)
}

fn median_s(ds: &[Duration]) -> f64 {
    median(&ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn med(values: &[f64]) -> f64 {
    median(values).unwrap_or(f64::NAN)
}

fn pct(values: &[f64], p: f64) -> f64 {
    percentile(values, p).unwrap_or(f64::NAN)
}

/// Everything the load phases share.
struct Served<'a> {
    g: &'a Graph,
    frames: &'a [Frame],
    expected: &'a [Vec<Dist>],
    image: &'a Path,
    shards: &'a [PathBuf],
}

impl Served<'_> {
    /// Replies must equal the in-process answers and have the
    /// properties of exact distances.
    fn verify_exact(&self, fi: usize, answers: &[Dist]) -> Result<(), String> {
        check::same(answers, &self.expected[fi])?;
        check::properties(&self.frames[fi], answers, self.g.is_directed())
    }

    /// Count a load phase in the report and check a sample of its
    /// replies against graph search.
    fn finish(&self, report: &mut Report, name: &'static str, out: &Outcome) {
        report.phase(name, out.attempted, out.failed);
        report.scratch.tick_stalls += out.slower_than(TICK);
        report.checks.record(name, out.wrong.clone().map_or(Ok(()), Err));
        for (fi, answers) in &out.kept {
            report.checks.record(
                name,
                check::against_oracle(self.g, &self.frames[*fi][..32], &answers[..32]),
            );
        }
    }

    /// Boot a daemon on the image, run `load` against it, shut it down.
    fn on_fresh_daemon(
        &self,
        load: impl FnOnce(std::net::SocketAddr) -> Outcome,
    ) -> std::io::Result<Outcome> {
        let daemon = net::boot(self.image, ServerConfig::default())?;
        let out = load(daemon.local_addr());
        daemon.shutdown();
        Ok(out)
    }

    /// `count` closed-loop frames through a shard router in front of
    /// the two shard daemons.
    fn routed(&self, count: usize) -> std::io::Result<Outcome> {
        let mut backends = Vec::new();
        for path in self.shards {
            backends.push(net::boot(path, ServerConfig::default())?);
        }
        let router = {
            let _span = trace::span("router.boot");
            let config = RouterConfig {
                mode: RouteMode::Shard,
                backends: backends.iter().map(ServerHandle::local_addr).collect(),
                ..RouterConfig::default()
            };
            let router = serve_router("127.0.0.1:0", config)?;
            net::first_answer(router.local_addr())?;
            router
        };
        let verify = |fi: usize, a: &[Dist]| self.verify_exact(fi, a);
        let out = net::closed_loop(router.local_addr(), self.frames, &verify, count);
        router.shutdown();
        for b in backends {
            b.shutdown();
        }
        Ok(out)
    }
}

/// Run `workload` and fill `report`.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    dir: &Path,
    report: &mut Report,
) -> std::io::Result<()> {
    let plan = workload.plan();

    // ---- set-up: inputs, ranking, build, serialize, boot ----
    let mut setup_times = Vec::new();
    let mut builds = Vec::new();
    let mut first_build: Option<(BuildStats, f64)> = None;
    let mut prepared = None;
    let image = dir.join("index.idx");
    for _ in 0..plan.setups {
        drop(prepared.take());
        let span = trace::span("setup");
        let start = Instant::now();
        let (g, _) = trace::timed("graphgen.generate", || inputs::graph(&plan.graph, seed));
        let ((ranking, relabeled), _) = trace::timed("sfgraph.rank", || rank(&g));
        let ((index, stats), took) = build(&relabeled);
        builds.push(took);
        first_build.get_or_insert_with(|| (stats, peak_rss_bytes().unwrap_or(f64::NAN)));
        stage(&index, &ranking, &image)?;
        let daemon = net::boot(&image, ServerConfig::default())?;
        setup_times.push(start.elapsed());
        daemon.shutdown();
        drop(span);
        prepared = Some((g, ranking, relabeled, index));
    }
    report.e2e("setup_s", median_s(&setup_times), "s");
    let (g, ranking, relabeled, index) = prepared.expect("at least one set-up");
    let (stats, rss) = first_build.expect("a build ran");
    build_layers(report, &stats, &index);
    report.e2e("build_rss_mb", rss / (1024.0 * 1024.0), "MiB");

    // ---- the image: reload, answer in process, split into shards ----
    let bytes = std::fs::read(&image)?;
    report.e2e("index_bytes", bytes.len() as f64, "bytes");
    let mut flat = None;
    for _ in 0..3 {
        let (loaded, _) = trace::timed("hoplabels.load", || FlatIndex::load(&image));
        flat = Some(loaded?);
    }
    let flat = flat.expect("loaded");
    let frames = inputs::frames(g.num_vertices(), FRAME_POOL, FRAME_PAIRS, seed, 2);
    let ranked: Vec<Frame> = frames
        .iter()
        .map(|f| f.iter().map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t))).collect())
        .collect();
    let mut expected = Vec::with_capacity(FRAME_POOL);
    for f in &ranked {
        expected.push(trace::timed("hoplabels.query_many", || flat.query_many(f, 1)).0);
    }
    for (f, want) in frames.iter().zip(&expected) {
        report.checks.record(
            "in-process answers: d(s,s)=0 and symmetry",
            check::properties(f, want, g.is_directed()),
        );
    }
    for fi in 0..2 {
        let sample = &frames[fi][..64];
        report.checks.record(
            "in-process answers vs graph search",
            check::against_oracle(&g, sample, &expected[fi][..64]),
        );
    }
    let shard_paths = split_shards(&bytes, &ranking, &ranked, &expected, dir, &mut report.checks)?;
    drop(bytes);
    proto_roundtrips(&frames[0], &expected[0], &mut report.checks);

    // ---- rounds ----
    let served =
        Served { g: &g, frames: &frames, expected: &expected, image: &image, shards: &shard_paths };
    let mut writes = Writes::start(&g, &image, seed, dir)?;
    let ext_cfg = ExtMemConfig::default();
    let mut ext_times = Vec::new();
    let (mut query_ns, mut req, mut open, mut late, mut routed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut pipe_rate, mut pipe_lat) = (Vec::new(), Vec::new());
    let loads = &plan.loads;
    let started = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || started.elapsed().as_secs_f64() < seconds {
        let _span = trace::span("round");
        if round < plan.build_rounds {
            let ((rebuilt, _), took) = build(&relabeled);
            builds.push(took);
            report
                .checks
                .record("in-memory rebuild is deterministic", same_image(&index, &rebuilt, dir));
        }
        if round < plan.ext_rounds {
            let (ext, took) = trace::timed("hopdb.external", || {
                hopdb::external::build_external(&relabeled, &HopDbConfig::default(), &ext_cfg)
            });
            let ext = ext?;
            ext_times.push(took);
            if round == 0 {
                let (read, write, _, _) = ext.io;
                report.layer("extmem.read_bytes", read as f64, "bytes");
                report.layer("extmem.write_bytes", write as f64, "bytes");
                report.layer("extmem.sort_runs", ext.sort_runs as f64, "count");
                report.layer("extmem.merge_passes", ext.merge_passes as f64, "count");
                report.checks.record(
                    "external image equals in-memory image",
                    same_image(&index, &ext.index, dir),
                );
            }
        }
        query_ns.push(time_point_queries(&flat, &ranked, loads.query_s));

        let verify = |fi: usize, a: &[Dist]| served.verify_exact(fi, a);
        let closed = served
            .on_fresh_daemon(|addr| net::closed_loop(addr, &frames, &verify, loads.closed))?;
        served.finish(report, "closed", &closed);
        req.extend(closed.lat_us);

        if loads.pipe > 0 {
            // The pipelined slice has no end-to-end metric: a lost wakeup
            // in the daemon's reactor (see the README) makes its
            // throughput and tail bimodal. Its stalls count in
            // `server.tick_stalls`; its figures are printed.
            let pipe = served
                .on_fresh_daemon(|addr| net::pipelined(addr, &frames, &verify, 2, 8, loads.pipe))?;
            served.finish(report, "pipelined", &pipe);
            pipe_rate.push(pipe.pairs as f64 / pipe.elapsed.as_secs_f64());
            pipe_lat.extend(pipe.lat_us);
        }

        let mut sends_late = Vec::new();
        let open_out = served.on_fresh_daemon(|addr| {
            let (out, l) = net::open_loop(
                addr,
                &frames,
                &verify,
                OPEN_RATE,
                Duration::from_secs_f64(loads.open_s),
            );
            sends_late = l;
            out
        })?;
        served.finish(report, "open", &open_out);
        open.extend(open_out.lat_us);
        late.extend(sends_late);

        let out = served.routed(loads.routed)?;
        served.finish(report, "routed", &out);
        routed.extend(out.lat_us);

        writes.round(&served, round, report)?;
        round += 1;
    }
    report.e2e("build_s", median_s(&builds), "s");
    report.e2e("extbuild_s", median_s(&ext_times), "s");
    report.e2e("query_ns", med(&query_ns), "ns/pair");
    let req_p50 = pct(&req, 0.5);
    report.e2e("req_p50_us", req_p50, "us");
    report.info("req_p99_us", pct(&req, 0.99), "us");
    report.info("open_p50_us", pct(&open, 0.5), "us");
    report.info("open_p99_us", pct(&open, 0.99), "us");
    if !pipe_lat.is_empty() {
        report.info("pipe_pairs_per_s", med(&pipe_rate), "pairs/s");
        report.info("pipe_p99_us", pct(&pipe_lat, 0.99), "us");
    }
    let routed_p50 = pct(&routed, 0.5);
    report.e2e("routed_p50_us", routed_p50, "us");
    report.scratch.req_p50_us = req_p50;
    report.scratch.routed_p50_us = routed_p50;
    report.scratch.open_late_us = pct(&late, 0.99);
    eprintln!("  {round} rounds in {:.1} s", started.elapsed().as_secs_f64());

    writes.finish(&served, &ranking, flat, report)?;
    if trace::enabled() {
        doubling_layer(&relabeled, report);
    }
    Ok(())
}

/// The paper's hybrid switches to doubling only after iteration 10, and
/// these graphs converge sooner, so the build under test never runs the
/// doubling rule. Traced runs time it in a pure-doubling build of the
/// same graph (§3), after every end-to-end measurement.
fn doubling_layer(relabeled: &Graph, report: &mut Report) {
    let cfg = HopDbConfig::with_strategy(hopdb::Strategy::Doubling);
    let (_, stats) = trace::timed("hopdb.build_doubling", || build_prelabeled(relabeled, &cfg)).0;
    let doubling: f64 =
        stats.iterations.iter().filter(|it| !it.stepping).map(|it| it.elapsed.as_secs_f64()).sum();
    report.layer("hopdb.doubling_s", doubling, "s");
}

/// Serialize both indexes and compare the images byte for byte.
fn same_image(a: &LabelIndex, b: &LabelIndex, dir: &Path) -> Result<(), String> {
    let store = TempStore::in_dir(dir).map_err(|e| e.to_string())?;
    let read = |idx: &LabelIndex| -> Result<Vec<u8>, String> {
        let disk = DiskIndex::create(idx, &store, "cmp").map_err(|e| e.to_string())?;
        let path = disk.persist();
        let bytes = std::fs::read(&path).map_err(|e| e.to_string());
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let (x, y) = (read(a)?, read(b)?);
    if x == y {
        Ok(())
    } else {
        Err(format!("images differ ({} vs {} bytes)", x.len(), y.len()))
    }
}

fn build_layers(report: &mut Report, stats: &BuildStats, index: &LabelIndex) {
    let stepping: f64 =
        stats.iterations.iter().filter(|it| it.stepping).map(|it| it.elapsed.as_secs_f64()).sum();
    let candidates: u64 = stats.iterations.iter().map(|it| it.candidates).sum();
    let pruned: u64 = stats.iterations.iter().map(|it| it.pruned).sum();
    let entries = index.total_entries() as f64;
    report.layer("hopdb.iterations", f64::from(stats.num_iterations()), "count");
    report.layer("hopdb.candidates", candidates as f64, "count");
    report.layer("hopdb.pruned", pruned as f64, "count");
    report.layer("hopdb.stepping_s", stepping, "s");
    report.layer("hopdb.prune_ratio", pruned as f64 / candidates.max(1) as f64, "ratio");
    report.layer("hopdb.label_avg", entries / index.num_vertices().max(1) as f64, "entries/vertex");
    report.layer("hoplabels.entries", entries, "count");
}

/// Split the image into two pivot-range shards, check that their
/// answers min-merge to the whole index's, and stage them (with `.rank`
/// and `.shard` sidecars) for shard daemons.
fn split_shards(
    bytes: &[u8],
    ranking: &Ranking,
    ranked: &[Frame],
    expected: &[Vec<Dist>],
    dir: &Path,
    checks: &mut Checks,
) -> std::io::Result<Vec<PathBuf>> {
    let (shards, _) = trace::timed("hoplabels.shard", || shard_image(bytes, 2));
    let shards = shards?;
    let flats: Vec<FlatIndex> = shards
        .iter()
        .map(|(b, _)| FlatIndex::from_hopidx_bytes(b))
        .collect::<std::io::Result<_>>()?;
    for (f, want) in ranked.iter().zip(expected) {
        let mut merged = vec![Dist::MAX; f.len()];
        for s in &flats {
            min_merge(&mut merged, &s.query_many(f, 1));
        }
        checks.record("shard answers min-merged equal the whole index", check::same(&merged, want));
    }
    let mut paths = Vec::new();
    for (b, spec) in &shards {
        let path = dir.join(format!("shard{}.idx", spec.index));
        std::fs::write(&path, b)?;
        std::fs::write(sidecar(&path, "rank"), ranking.to_sidecar_bytes())?;
        std::fs::write(sidecar(&path, "shard"), spec.encode())?;
        paths.push(path);
    }
    Ok(paths)
}

/// Point queries on one thread for `secs`, in passes over the frame
/// pool; the median pass, in ns per pair.
fn time_point_queries(flat: &FlatIndex, ranked: &[Frame], secs: f64) -> f64 {
    let _span = trace::span("hoplabels.query");
    let start = Instant::now();
    let pairs: usize = ranked.iter().map(Vec::len).sum();
    let mut passes = Vec::new();
    let mut sink = 0u64;
    while passes.len() < 3 || start.elapsed().as_secs_f64() < secs {
        let pass = Instant::now();
        for f in ranked {
            for &(s, t) in f {
                sink = sink.wrapping_add(u64::from(flat.query(std::hint::black_box(s), t)));
            }
        }
        passes.push(pass.elapsed().as_nanos() as f64 / pairs as f64);
    }
    std::hint::black_box(sink);
    med(&passes)
}

/// Encode and decode one workload frame and its answer, as the client
/// and the daemon do, and check the round trip.
fn proto_roundtrips(frame: &Frame, answers: &[Dist], checks: &mut Checks) {
    let request = Request { id: 7, body: RequestBody::Query(frame.clone()) };
    let response = Response { id: 7, body: ResponseBody::Distances(answers.to_vec()) };
    let mut ok = Ok(());
    for _ in 0..300 {
        let _span = trace::span("server.proto");
        let wire = request.encode();
        let decoded = match decode_request(&wire, usize::MAX) {
            Decoded::Request { request, .. } => request,
            other => {
                ok = Err(format!("request did not decode: {other:?}"));
                break;
            }
        };
        let back = Response { id: decoded.id, ..response.clone() }.encode();
        match read_response(&mut back.as_slice()) {
            Ok(r) if r == response => {}
            other => {
                ok = Err(format!("response did not round-trip: {other:?}"));
                break;
            }
        }
    }
    checks.record("protocol round trip", ok);
}

/// Operations of one kind: attempted, and failed with no answer.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

/// The write side. Every round boots one daemon on the original image
/// with a fresh WAL directory (`batch` durability) and the source edge
/// list for compaction. It runs `CYCLES` cycles of update batches
/// beside a closed read loop, each ended by an explicit compaction,
/// then an uncompacted tail, and restarts the daemon on its WAL
/// directory several times.
///
/// Each cycle ends (before its compaction) with a probe read, and each
/// restart answers the same kind of probe: the endpoints of every edge
/// acked to the daemon plus a sample of a query frame, checked against
/// graph search over the graph plus those edges. A daemon's second
/// compaction drops the edges its first one folded in (see the README):
/// a probe that answers exactly as graph search over the edges such a
/// daemon keeps is counted as a failed operation, and any other wrong
/// answer fails the run's checks. Every round makes the same number of
/// compactions before the same probes, so the share of failed
/// operations is the same in every run.
struct Writes<'a> {
    image: &'a Path,
    graph_path: PathBuf,
    dir: &'a Path,
    batches: Vec<Vec<(VertexId, VertexId, Dist)>>,
    sent: usize,
    updates: Ops,
    /// Mean ack of each round's tail, sent with no reads beside it.
    tail_mean_us: Vec<f64>,
    /// Acks of updates sent beside the cycle's reads.
    cycle_ack_us: Vec<f64>,
    compact: Vec<Duration>,
    compactions: Ops,
    /// Compactions the daemons' `info` counted.
    compactions_seen: u64,
    reads: Outcome,
    probes: Ops,
    recover: Vec<Duration>,
    restarts: Ops,
    wal_bytes: u64,
}

impl<'a> Writes<'a> {
    fn start(g: &Graph, image: &'a Path, seed: u64, dir: &'a Path) -> std::io::Result<Writes<'a>> {
        let graph_path = dir.join("graph.txt");
        let file = std::io::BufWriter::new(std::fs::File::create(&graph_path)?);
        sfgraph::io::write_edge_list(g, file).map_err(|e| std::io::Error::other(e.to_string()))?;
        let pool = inputs::fresh_edges(g, 1 << 14, seed);
        Ok(Writes {
            image,
            graph_path,
            dir,
            batches: pool.chunks(EDGES_PER_BATCH).map(<[_]>::to_vec).collect(),
            sent: 0,
            updates: Ops::default(),
            tail_mean_us: Vec::new(),
            cycle_ack_us: Vec::new(),
            compact: Vec::new(),
            compactions: Ops::default(),
            compactions_seen: 0,
            reads: Outcome::default(),
            probes: Ops::default(),
            recover: Vec::new(),
            restarts: Ops::default(),
            wal_bytes: 0,
        })
    }

    /// Send the next batch; its ack time (µs), if it was acked.
    fn update(&mut self, client: &mut Client) -> Option<f64> {
        self.updates.attempted += 1;
        let Some(batch) = self.batches.get(self.sent) else {
            self.updates.failed += 1;
            return None;
        };
        self.sent += 1;
        let _span = trace::span("client.update");
        let start = Instant::now();
        match client.update(batch) {
            Ok(_) => Some(start.elapsed().as_secs_f64() * 1e6),
            Err(_) => {
                self.updates.failed += 1;
                None
            }
        }
    }

    /// The edges of batches `from..self.sent`.
    fn edges(&self, from: usize) -> Vec<(VertexId, VertexId, Dist)> {
        self.batches[from..self.sent].concat()
    }

    /// A probe: the endpoints of every edge acked since `from`, then 32
    /// pairs of frame `fi`; and its answers by graph search over the
    /// graph plus those edges, and plus only the edges since `kept`.
    fn probe(&self, served: &Served, from: usize, kept: usize, fi: usize) -> Probe {
        let mut pairs: Frame = self.edges(from).iter().map(|&(u, v, _)| (u, v)).collect();
        pairs.extend(served.frames[fi].iter().take(32));
        let want = check::oracle(&check::with_edges(served.g, &self.edges(from)), &pairs);
        let fault = check::oracle(&check::with_edges(served.g, &self.edges(kept)), &pairs);
        Probe { pairs, want, fault }
    }

    /// One round on one daemon: the cycles, the tail, the restarts.
    fn round(&mut self, served: &Served, round: usize, report: &mut Report) -> std::io::Result<()> {
        let from = self.sent;
        let config = ServerConfig {
            source_graph: Some(self.graph_path.clone()),
            compact_threshold: 0,
            wal_dir: Some(self.dir.join(format!("wal-{round}"))),
            durability: Durability::Batch,
            ..ServerConfig::default()
        };
        let daemon = net::boot(self.image, config.clone())?;
        let addr = daemon.local_addr();
        let mut client = Client::connect(addr)?;
        let fi = round % served.frames.len();
        // Under the compaction fault the daemon holds only the edges
        // acked since its second-to-last compaction (`kept`);
        // `compacted` is where its last compaction cut the log.
        let (mut kept, mut compacted) = (from, from);
        let compacts_before = self.compact.len();
        for _ in 0..CYCLES {
            self.cycle(addr, &mut client, served, from, report);
            let probe = self.probe(served, from, kept, fi);
            self.probes.attempted += 1;
            match client.query(&probe.pairs) {
                Ok(got) => match probe.judge(&got) {
                    Ok(true) => {}
                    Ok(false) => self.probes.failed += 1,
                    Err(why) => report.checks.record("write probe vs graph search", Err(why)),
                },
                Err(_) => self.probes.failed += 1,
            }
            self.compactions.attempted += 1;
            match trace::timed("client.compact", || client.compact()) {
                (Ok(_), took) => self.compact.push(took),
                (Err(_), _) => self.compactions.failed += 1,
            }
            (kept, compacted) = (compacted, self.sent);
        }
        let compactions = client.info()?.compactions;
        report.checks.record(
            "the daemon counts every compaction it acked",
            check::same(&[compactions], &[(self.compact.len() - compacts_before) as u64]),
        );
        self.compactions_seen += compactions;

        let tail_from = self.sent;
        let mut acks = Vec::with_capacity(TAIL_BATCHES);
        for _ in 0..TAIL_BATCHES {
            acks.extend(self.update(&mut client));
        }
        self.tail_mean_us.extend(mean(&acks));
        let wal_epoch = client.info()?.wal_epoch;
        drop(client);
        daemon.shutdown();

        // The log now holds exactly the uncompacted tail.
        let wal_path =
            config.wal_dir.as_ref().expect("write daemons log").join(wal::wal_file_name(wal_epoch));
        let (replay, _) =
            trace::timed("wal.replay", || wal::read_wal(&wal_path, IoStats::shared()));
        report.checks.record(
            "WAL holds the uncompacted tail",
            check::same(&replay?.batches.concat(), &self.edges(tail_from)),
        );
        self.wal_bytes = std::fs::metadata(&wal_path)?.len();

        let probe = self.probe(served, from, kept, fi);
        for _ in 0..RESTARTS_PER_ROUND {
            self.restarts.attempted += 1;
            let _span = trace::span("server.recover");
            let start = Instant::now();
            let outcome = serve("127.0.0.1:0", served.image, config.clone()).and_then(|daemon| {
                let got =
                    Client::connect(daemon.local_addr()).and_then(|mut c| c.query(&probe.pairs));
                let took = start.elapsed();
                daemon.shutdown();
                Ok((got?, took))
            });
            match outcome {
                Ok((got, took)) => {
                    self.recover.push(took);
                    match probe.judge(&got) {
                        Ok(true) => {}
                        Ok(false) => self.restarts.failed += 1,
                        Err(why) => {
                            report.checks.record("recovered daemon vs graph search", Err(why))
                        }
                    }
                }
                Err(_) => self.restarts.failed += 1,
            }
        }
        Ok(())
    }

    /// Update batches on `client` while a closed loop of reads runs on
    /// another connection. Reads may see any prefix of the writes: each
    /// reply must be no longer than before them, and (on a sample) no
    /// shorter than graph search after all of them.
    fn cycle(
        &mut self,
        addr: std::net::SocketAddr,
        client: &mut Client,
        served: &Served,
        from: usize,
        report: &mut Report,
    ) {
        let verify = |fi: usize, answers: &[Dist]| -> Result<(), String> {
            check::properties(&served.frames[fi], answers, served.g.is_directed())?;
            match answers.iter().zip(&served.expected[fi]).position(|(a, e)| a > e) {
                Some(i) => Err(format!(
                    "pair {i} answered {} above its pre-update {}",
                    answers[i], served.expected[fi][i]
                )),
                None => Ok(()),
            }
        };
        let reads = std::thread::scope(|scope| {
            let reader =
                scope.spawn(|| net::closed_loop(addr, served.frames, &verify, READS_PER_CYCLE));
            for _ in 0..BATCHES_PER_CYCLE {
                if let Some(us) = self.update(client) {
                    self.cycle_ack_us.push(us);
                }
            }
            reader.join().expect("reader panicked")
        });
        let after = check::with_edges(served.g, &self.edges(from));
        for (fi, answers) in &reads.kept {
            let sample = &served.frames[*fi][..32];
            report.checks.record(
                "reads beside writes vs graph search",
                check::between_oracles(&after, served.g, sample, &answers[..32]),
            );
        }
        self.reads.attempted += reads.attempted;
        self.reads.failed += reads.failed;
        self.reads.wrong = self.reads.wrong.take().or(reads.wrong);
    }

    /// Report the write phases, and time the WAL and overlay layers in
    /// process.
    fn finish(
        self,
        served: &Served,
        ranking: &Ranking,
        flat: FlatIndex,
        report: &mut Report,
    ) -> std::io::Result<()> {
        report.phase("write.reads", self.reads.attempted, self.reads.failed);
        report.phase("write.updates", self.updates.attempted, self.updates.failed);
        report.phase("write.compactions", self.compactions.attempted, self.compactions.failed);
        report.phase("write.probes", self.probes.attempted, self.probes.failed);
        report.phase("recover", self.restarts.attempted, self.restarts.failed);
        report.checks.record("reads beside writes", self.reads.wrong.clone().map_or(Ok(()), Err));
        report.e2e("update_p50_us", med(&self.tail_mean_us), "us");
        report.info("update_beside_reads_p50_us", pct(&self.cycle_ack_us, 0.5), "us");
        // A compaction rebuilds on both cores (`parallelism = 0`) and is
        // slowed whenever the host takes either one: its times cluster
        // tightly at the low end with a long spread-out tail, and the
        // median falls where the two meet. The lower quartile stays in
        // the cluster.
        let compact: Vec<f64> = self.compact.iter().map(Duration::as_secs_f64).collect();
        report.e2e("compact_s", pct(&compact, 0.25), "s");
        report.e2e("recover_s", median_s(&self.recover), "s");
        report.layer("server.compactions", self.compactions_seen as f64, "count");
        report.layer("wal.bytes", self.wal_bytes as f64, "bytes");

        // In process: WAL appends under the same policy, and the overlay
        // at every size a cycle and the tail reached.
        let mut log =
            Wal::create(&self.dir.join("scratch.wal"), 1, Durability::Batch, IoStats::shared())?;
        for batch in &self.batches[..self.sent] {
            trace::timed("wal.append", || log.append(batch)).0?;
        }
        drop(log);
        let live = LiveIndex::new(Arc::new(flat) as Arc<dyn QueryBackend>, 1);
        let ranked: Vec<(VertexId, VertexId, Dist)> = self
            .edges(0)
            .iter()
            .map(|&(s, t, d)| (ranking.rank_of(s), ranking.rank_of(t), d))
            .collect();
        let probe: Frame = served.frames[0]
            .iter()
            .map(|&(s, t)| (ranking.rank_of(s), ranking.rank_of(t)))
            .collect();
        let mut sizes: Vec<usize> = (1..=BATCHES_PER_CYCLE).map(|k| k * EDGES_PER_BATCH).collect();
        sizes.push(TAIL_BATCHES * EDGES_PER_BATCH);
        for size in sizes {
            let next =
                trace::timed("hoplabels.overlay_rebuild", || live.rebuild_overlay(&ranked[..size]))
                    .0?;
            let mut out = Vec::with_capacity(probe.len());
            trace::timed("hoplabels.overlay_query", || next.query_many_into(&probe, 1, &mut out))
                .0?;
        }
        Ok(())
    }
}

/// A probe read and its two graph-search answers.
struct Probe {
    pairs: Frame,
    /// Over the graph plus every edge acked to the daemon.
    want: Vec<Dist>,
    /// Over the graph plus only the edges the compaction fault keeps.
    fault: Vec<Dist>,
}

impl Probe {
    fn judge(&self, got: &[Dist]) -> Result<bool, String> {
        check::exact_or_fault(got, &self.want, &self.fault)
    }
}
