//! The four workloads. Each is a closed loop driven from one process:
//! the next operation starts only when the previous one (or, for
//! `mixed_serving`, the previous batch) has returned and been checked.

use crate::setup::{
    bob_layout, bob_query, cluster_spec, conjunction_scan, duration_needle, load, scan_query,
    verify, Input, Loaded, PhaseClock, Query, Rng, SetUps, PLAN_CACHE_CAPACITY,
};
use crate::stats::{median, ms_since, percentile, ratio, Layers};
use crate::trace::{JobReplay, UploadTrace};
use hail_core::{Dataset, DatasetFormat, HailQuery};
use hail_dfs::{rewrite_replica, DfsCluster};
use hail_exec::cache::has_eq_on;
use hail_exec::{
    apply_reindex, shared_job_pool, ExecutorConfig, FilterShape, HailInputFormat, JobPool,
    PlanCache, PlannerConfig, ReindexAdvisor, SelectivityFeedback,
};
use hail_index::{IndexedBlock, ReplicaIndexConfig, SidecarSpec, SortOrder};
use hail_mr::{
    run_map_job, InputFormat, InputSplit, JobManager, JobRun, MapJob, MapRecord, SplitContext,
    SplitPlan, SplitRead, SplitTask, TaskStats,
};
use hail_sim::CostLedger;
use hail_types::{AccessPathKind, BlockId, DatanodeId, Result};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Rows per node of each workload's input (4 nodes, ~127 bytes a row,
/// 64 KB blocks). `ingest` uploads ~1 MB and `scan_jobs` scans ~80
/// blocks, so a run holds well over the 100 operations a p90 needs.
/// `indexed_jobs` and `mixed_serving` hold ~196 blocks: Bob's shapes
/// times those blocks fit the 1024-entry plan cache, while
/// `mixed_serving`'s shapes, multiplied by feedback-driven selectivity
/// changes, exceed it.
const INGEST_ROWS: usize = 2_000;
const INDEXED_ROWS: usize = 25_000;
const SCAN_ROWS: usize = 10_000;
const MIXED_ROWS: usize = 25_000;
/// Set-up repetitions per run; `setup_s` is their median. The cheap
/// set-ups repeat more often.
const SETUPS: usize = 5;
const SMALL_SETUPS: usize = 9;
/// Seeded constants per query shape in the solo pools.
const INDEXED_CONSTANTS: usize = 4;
const SCAN_CONSTANTS: usize = 3;
/// `mixed_serving`: batches (advisor rounds) per episode.
const ROUNDS: usize = 4;
/// The unindexed column the advisor learns to index (duration, @9).
const NEEDLE_COLUMN: usize = 8;

pub struct Args {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run measured. `e2e` holds the end-to-end values (latency
/// samples under `op_ms`), `layers` the per-layer ones.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named checks beyond each operation's own output check; a false
    /// one marks the run incorrect.
    pub checks: Vec<(&'static str, bool)>,
    pub e2e: Layers,
    pub layers: Layers,
}

impl Outcome {
    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Set-up medians, once every repetition has run.
    fn set_up(&mut self, setups: &SetUps) {
        self.e2e.set("setup_s", median(&setups.setup_s));
        if !setups.upload_mb_per_s.is_empty() {
            self.e2e
                .set("upload_mb_per_s", median(&setups.upload_mb_per_s));
        }
        self.check("set-up counts repeat across set-ups", setups.deterministic);
        if let Some(trace) = &setups.trace {
            self.layers.merge_samples(&trace.layers);
        }
    }

    /// The deterministic counts of an upload.
    fn uploaded(&mut self, input: &Input, loaded: &Loaded) {
        let stored = loaded.stored_bytes as f64 / input.bytes as f64;
        self.e2e.set("stored_bytes_per_input_byte", stored);
        self.layers.set("sim.upload_s", loaded.sim_upload_s);
    }

    /// Block shares and synopsis counts summed over job reports.
    fn tally(&mut self, run: &JobRun, blocks: usize) {
        let report = &run.report;
        let paths = report.path_counts();
        let full = paths.get(AccessPathKind::FullScan);
        let l = &mut self.layers;
        l.add("tally.blocks", blocks as f64);
        l.add("tally.pruned", report.blocks_pruned() as f64);
        l.add("tally.shared", report.blocks_read_shared() as f64);
        l.add("tally.fullscan", full as f64);
        l.add("tally.index", (paths.total() - full) as f64);
    }

    /// Turns the tallies into the per-workload block shares.
    fn shares(&mut self) {
        let l = &mut self.layers;
        let blocks = l.total("tally.blocks");
        for (share, tally) in [
            ("exec.share.pruned_frac", "tally.pruned"),
            ("exec.share.shared_frac", "tally.shared"),
            ("exec.share.index_frac", "tally.index"),
            ("exec.share.fullscan_frac", "tally.fullscan"),
        ] {
            let v = ratio(l.total(tally), blocks);
            l.set(share, v);
        }
        let bytes_per_row = ratio(l.total("replay.disk_read"), l.total("replay.rows"));
        l.set("exec.path.bytes_read_per_row_returned", bytes_per_row);
    }

    /// Ops per second of a phase and, once both phases ran, the traced
    /// phase's slowdown against the untraced one.
    fn phase_rate(&mut self, traced: bool, ok_ops: u64, seconds: f64) {
        let rate = ratio(ok_ops as f64, seconds);
        if traced {
            let untraced = self.e2e.total("ops_per_s");
            self.layers
                .set("trace.overhead_frac", ratio(untraced, rate) - 1.0);
        } else {
            self.e2e.set("ops_per_s", rate);
        }
    }
}

/// The measured phases of a run: all of it untraced, or — for a traced
/// run — an untraced half and then a traced half, so the trace's
/// overhead is measured in the same process.
fn phases(args: &Args) -> Vec<(bool, f64)> {
    if args.trace {
        vec![(false, args.seconds / 2.0), (true, args.seconds / 2.0)]
    } else {
        vec![(false, args.seconds)]
    }
}

/// `ingest`: repeated `upload_hail` of one generated input into a fresh
/// cluster. Touches core, pax, index and dfs; never exec or mr.
pub fn ingest(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let layout = bob_layout();
    let mut setups = SetUps::new(args.seed, INGEST_ROWS, None, SMALL_SETUPS, false);
    let (input, _) = setups.run()?;

    let mut trace = UploadTrace::default();
    let mut rates = Vec::new();
    let mut first: Option<(u64, f64)> = None;
    let mut repeat = true;
    let mut done = 0.0;
    for (traced, seconds) in phases(args) {
        let mut clock = PhaseClock::start();
        let mut ok_ops = 0;
        while clock.elapsed() < seconds {
            let ok = match load(&input, &layout) {
                Ok(loaded) => {
                    out.e2e.push("op_ms", loaded.upload_s * 1e3);
                    rates.push(input.bytes as f64 / 1e6 / loaded.upload_s);
                    let counts = (loaded.stored_bytes, loaded.sim_upload_s);
                    repeat &= *first.get_or_insert(counts) == counts;
                    out.uploaded(&input, &loaded);
                    round_trip_rows(&loaded, &input)?
                }
                Err(e) => {
                    eprintln!("upload failed: {e}");
                    false
                }
            };
            out.op(ok);
            ok_ops += u64::from(ok);
            if traced {
                trace.replay(&input, &layout)?;
            }
            clock.pause(setups.catch_up(done + clock.elapsed(), args.seconds)?);
        }
        done += clock.elapsed();
        out.phase_rate(traced, ok_ops, clock.elapsed());
    }
    setups.catch_up(args.seconds, args.seconds)?;
    out.set_up(&setups);
    out.e2e.set("upload_mb_per_s", median(&rates));
    out.check("upload counts repeat across uploads", repeat);
    out.layers.merge_samples(&trace.layers);
    Ok(out)
}

/// Reads every replica back and checks each holds the block's rows and
/// that the blocks together hold every generated row.
fn round_trip_rows(loaded: &Loaded, input: &Input) -> Result<bool> {
    let cluster = &loaded.cluster;
    let mut ledger = CostLedger::new();
    let mut total = 0;
    for &block in &loaded.dataset.blocks {
        let mut counts = Vec::new();
        for host in cluster.namenode().get_hosts(block)? {
            let bytes = cluster.datanode(host)?.read_replica(block, &mut ledger)?;
            counts.push(IndexedBlock::parse(bytes)?.pax().row_count());
        }
        if counts.len() != cluster.config().replication || counts.iter().any(|&c| c != counts[0]) {
            return Ok(false);
        }
        total += counts[0];
    }
    Ok(total == input.rows)
}

/// The plan-cache key a query's blocks are memoized under, derived the
/// way the planner derives it (static prior blended with feedback).
/// Used only to count the working set.
fn shape_of(query: &HailQuery, feedback: Option<&SelectivityFeedback>) -> FilterShape {
    let estimate = PlannerConfig::default().estimate;
    let mut columns = query.filter_columns();
    columns.sort_unstable();
    columns.dedup();
    let sels: Vec<(usize, f64)> = columns
        .into_iter()
        .map(|c| {
            let prior = estimate.for_column(c);
            let value = feedback.map_or(prior, |f| f.adjusted(c, has_eq_on(query, c), prior).0);
            (c, value)
        })
        .collect();
    FilterShape::of(DatasetFormat::HailPax, query, None, &sels, 0)
}

fn serial() -> ExecutorConfig {
    ExecutorConfig {
        parallelism: 1,
        per_node_slots: None,
    }
}

fn hail_format(dataset: &Dataset, query: &HailQuery, cache: &Arc<PlanCache>) -> HailInputFormat {
    let mut format = HailInputFormat::new(dataset.clone(), query.clone()).with_executor(serial());
    format.map_slots = cluster_spec().profile.map_slots;
    format.planner.plan_cache = Some(cache.clone());
    format
}

fn job<'a>(query: &Query, dataset: &Dataset, format: &'a dyn InputFormat) -> MapJob<'a> {
    MapJob::collecting(query.label, dataset.blocks.clone(), format)
        .with_parallelism(1)
        .with_job_parallelism(1)
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Solo {
    Indexed,
    Scan,
}

/// Deterministic counts of one pass over a solo pool with a fresh cache.
#[derive(PartialEq)]
struct PassCounts {
    hits: u64,
    misses: u64,
    evictions: u64,
    cost_evaluations: u64,
    blocks_pruned: u64,
    synopsis_bytes: u64,
    sim_job_s: Vec<f64>,
}

/// One pass over the pool on a fresh plan cache, every output checked.
fn counted_pass(
    loaded: &Loaded,
    pool: &[Query],
    out: &mut Outcome,
) -> (PassCounts, Arc<PlanCache>) {
    let cache = Arc::new(PlanCache::with_capacity(PLAN_CACHE_CAPACITY));
    let spec = cluster_spec();
    let (mut pruned, mut synopsis_bytes, mut sim) = (0, 0, Vec::new());
    for q in pool {
        let format = hail_format(&loaded.dataset, &q.query, &cache);
        let job = job(q, &loaded.dataset, &format);
        match run_map_job(&loaded.cluster, &spec, &job) {
            Ok(run) => {
                out.op(verify(&run.output, &q.expected));
                pruned += run.report.blocks_pruned();
                synopsis_bytes += run.report.synopsis_bytes_read();
                sim.push(run.report.end_to_end_seconds);
            }
            Err(e) => {
                eprintln!("{} failed: {e}", q.label);
                out.op(false);
            }
        }
    }
    let stats = cache.stats();
    let counts = PassCounts {
        hits: stats.hits,
        misses: stats.misses,
        evictions: stats.evictions,
        cost_evaluations: stats.cost_evaluations,
        blocks_pruned: pruned,
        synopsis_bytes,
        sim_job_s: sim,
    };
    (counts, cache)
}

/// `indexed_jobs` and `scan_jobs`: one client running solo jobs over
/// Bob's layout, cycling through a seeded pool.
pub fn solo(kind: Solo, args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let (rows, setups, shapes, constants) = match kind {
        Solo::Indexed => (INDEXED_ROWS, SETUPS, 5, INDEXED_CONSTANTS),
        Solo::Scan => (SCAN_ROWS, SMALL_SETUPS, 3, SCAN_CONSTANTS),
    };
    let mut setups = SetUps::new(args.seed, rows, Some(bob_layout()), setups, args.trace);
    let (input, loaded) = setups.run()?;
    let loaded = loaded.expect("job workloads upload at set-up");
    out.uploaded(&input, &loaded);

    let mut rng = Rng::new(args.seed);
    let mut pool = Vec::new();
    for _ in 0..constants {
        for shape in 0..shapes {
            pool.push(match kind {
                Solo::Indexed => bob_query(&input, shape, &mut rng),
                Solo::Scan => scan_query(&input, shape, &mut rng),
            });
        }
    }
    let loaded = &loaded;
    let blocks = loaded.dataset.blocks.len();

    // Two passes, each on a fresh cache, must count exactly alike; the
    // second leaves its cache warm for the measured phase.
    let (first, _) = counted_pass(loaded, &pool, &mut out);
    let (second, cache) = counted_pass(loaded, &pool, &mut out);
    out.check("pass counts repeat on a fresh cache", first == second);
    let l = &mut out.layers;
    l.set(
        "exec.cache.hit_ratio",
        ratio(first.hits as f64, (first.hits + first.misses) as f64),
    );
    l.set("exec.cache.evictions", first.evictions as f64);
    l.set("exec.cache.cost_evaluations", first.cost_evaluations as f64);
    l.set("exec.synopsis.blocks_pruned", first.blocks_pruned as f64);
    l.set("exec.synopsis.bytes_read", first.synopsis_bytes as f64);
    l.set(
        "sim.job_s",
        first.sim_job_s.iter().sum::<f64>() / pool.len() as f64,
    );
    let shapes: BTreeSet<FilterShape> = pool.iter().map(|q| shape_of(&q.query, None)).collect();
    l.set(
        "exec.cache.working_set_frac",
        (shapes.len() * blocks) as f64 / PLAN_CACHE_CAPACITY as f64,
    );

    let spec = cluster_spec();
    let replay = JobReplay {
        cluster: &loaded.cluster,
        dataset: &loaded.dataset,
        plan_cache: &cache,
        feedback: None,
        map_slots: spec.profile.map_slots,
    };
    let (mut next, mut done) = (0, 0.0);
    for (traced, seconds) in phases(args) {
        let mut clock = PhaseClock::start();
        let mut ok_ops = 0;
        while clock.elapsed() < seconds {
            let q = &pool[next % pool.len()];
            next += 1;
            let format = hail_format(&loaded.dataset, &q.query, &cache);
            let job = job(q, &loaded.dataset, &format);
            let began = Instant::now();
            let result = run_map_job(&loaded.cluster, &spec, &job);
            let wall_ms = ms_since(began);
            let ok = match result {
                Ok(run) => {
                    out.e2e.push("op_ms", wall_ms);
                    out.tally(&run, blocks);
                    if traced {
                        let reader_ms = run.report.reader_wall_seconds() * 1e3;
                        out.layers
                            .push("mr.scheduler.overhead_ms", wall_ms - reader_ms);
                        replay.replay(&q.query, &mut out.layers)?;
                    }
                    verify(&run.output, &q.expected)
                }
                Err(e) => {
                    eprintln!("{} failed: {e}", q.label);
                    false
                }
            };
            out.op(ok);
            ok_ops += u64::from(ok);
            clock.pause(setups.catch_up(done + clock.elapsed(), args.seconds)?);
        }
        done += clock.elapsed();
        out.phase_rate(traced, ok_ops, clock.elapsed());
    }
    setups.catch_up(args.seconds, args.seconds)?;
    out.set_up(&setups);
    out.shares();
    Ok(out)
}

/// An input format that delegates to HAIL's and records when the job's
/// last split read returned, so a managed job's latency can be taken
/// from its dequeue to its last read without touching the manager.
struct Timed {
    inner: HailInputFormat,
    base: Instant,
    done_ns: AtomicU64,
}

impl Timed {
    fn done_s(&self) -> f64 {
        self.done_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl InputFormat for Timed {
    fn splits(&self, cluster: &DfsCluster, input: &[BlockId]) -> Result<SplitPlan> {
        self.inner.splits(cluster, input)
    }

    fn read_split(
        &self,
        cluster: &DfsCluster,
        split: &InputSplit,
        task_node: DatanodeId,
        emit: &mut dyn FnMut(MapRecord),
    ) -> Result<TaskStats> {
        self.inner.read_split(cluster, split, task_node, emit)
    }

    fn read_split_with(
        &self,
        cluster: &DfsCluster,
        split: &InputSplit,
        ctx: &SplitContext,
        emit: &mut dyn FnMut(MapRecord),
    ) -> Result<TaskStats> {
        self.inner.read_split_with(cluster, split, ctx, emit)
    }

    fn read_split_batch(
        &self,
        cluster: &DfsCluster,
        batch: &[SplitTask<'_>],
        job_parallelism: Option<usize>,
    ) -> Result<Vec<SplitRead>> {
        let reads = self.inner.read_split_batch(cluster, batch, job_parallelism);
        let now = self.base.elapsed().as_nanos() as u64;
        self.done_ns.store(now, Ordering::Relaxed);
        reads
    }

    fn estimate_split(&self, cluster: &DfsCluster, split: &InputSplit) -> Option<f64> {
        self.inner.estimate_split(cluster, split)
    }

    fn estimate_splits(&self, cluster: &DfsCluster, splits: &[InputSplit]) -> Option<Vec<f64>> {
        self.inner.estimate_splits(cluster, splits)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// The serving infrastructure `mixed_serving`'s jobs share.
struct Serving {
    manager: JobManager,
    pool: Arc<JobPool>,
    cache: Arc<PlanCache>,
    base: Instant,
}

/// What must repeat exactly from one episode to the next.
#[derive(Debug, PartialEq)]
struct EpisodeCounts {
    replicas_rewritten: usize,
    jobs_until_flip: usize,
    sim_job_s: Vec<f64>,
}

/// `mixed_serving`: `JobManager` batches at concurrency 2 over a layout
/// that leaves one replica unindexed. Each episode runs [`ROUNDS`]
/// batches with a fresh feedback store and advisor; between batches the
/// advisor may rewrite replicas; after the last batch the rewritten
/// replicas are rewritten back to unsorted, so every episode starts from
/// the same physical design.
pub fn mixed(args: &Args) -> Result<Outcome> {
    let mut out = Outcome::default();
    let layout = ReplicaIndexConfig::first_indexed(3, &[2, 0]);
    let mut setups = SetUps::new(args.seed, MIXED_ROWS, Some(layout), SETUPS, args.trace);
    let (input, loaded) = setups.run()?;
    let loaded = loaded.expect("job workloads upload at set-up");
    out.uploaded(&input, &loaded);
    let Loaded {
        mut cluster,
        dataset,
        ..
    } = loaded;

    // Each batch queues every query twice in a row, so the duplicate
    // attaches to its twin's decodes. The duration needles are the
    // advisor's only evidence: every other filter is served by an index
    // or spans two columns. Index-served jobs are three quarters of an
    // episode, so the latency median sits inside their mode.
    let mut rng = Rng::new(args.seed);
    let mut queries = Vec::new();
    let mut rounds = Vec::new();
    for _ in 0..ROUNDS {
        let mut batch = Vec::new();
        for q in [
            bob_query(&input, 0, &mut rng),
            duration_needle(&input, &mut rng),
            bob_query(&input, 1, &mut rng),
            bob_query(&input, 2, &mut rng),
            conjunction_scan(&input, rounds.len() % 2, &mut rng),
            bob_query(&input, 0, &mut rng),
            duration_needle(&input, &mut rng),
            bob_query(&input, 1, &mut rng),
        ] {
            batch.extend([queries.len(), queries.len()]);
            queries.push(q);
        }
        rounds.push(batch);
    }

    let serving = Serving {
        manager: JobManager::new(2),
        pool: shared_job_pool(2, &serial()),
        cache: Arc::new(PlanCache::with_capacity(PLAN_CACHE_CAPACITY)),
        base: Instant::now(),
    };
    let registry = serving
        .pool
        .scan_share()
        .cloned()
        .expect("scan sharing is on: no HAIL_* knob is set");
    registry.attach_in_flight(serving.manager.in_flight_blocks());

    let uploaded = design(&cluster, &dataset.blocks);
    let mut first: Option<EpisodeCounts> = None;
    let mut repeat = true;
    let share_before = registry.stats();
    let mut done = 0.0;
    for (traced, seconds) in phases(args) {
        let mut clock = PhaseClock::start();
        let mut ok_ops = 0;
        while clock.elapsed() < seconds {
            let counted = first.is_none();
            let cache_before = serving.cache.stats();
            let mut shapes = BTreeSet::new();
            let (ok, counts) = episode(
                &mut cluster,
                &dataset,
                &queries,
                &rounds,
                &serving,
                traced,
                &mut shapes,
                &mut out,
            )?;
            ok_ops += ok;
            revert(&mut cluster, &dataset.blocks)?;
            registry.clear();
            repeat &= design(&cluster, &dataset.blocks) == uploaded;
            if counted {
                let cache = serving.cache.stats();
                let (hits, misses) = (
                    cache.hits - cache_before.hits,
                    cache.misses - cache_before.misses,
                );
                let l = &mut out.layers;
                l.set(
                    "exec.cache.hit_ratio",
                    ratio(hits as f64, (hits + misses) as f64),
                );
                l.set(
                    "exec.cache.evictions",
                    (cache.evictions - cache_before.evictions) as f64,
                );
                l.set(
                    "exec.cache.cost_evaluations",
                    (cache.cost_evaluations - cache_before.cost_evaluations) as f64,
                );
                l.set(
                    "exec.cache.working_set_frac",
                    (shapes.len() * dataset.blocks.len()) as f64 / PLAN_CACHE_CAPACITY as f64,
                );
                l.set(
                    "exec.adapt.replicas_rewritten",
                    counts.replicas_rewritten as f64,
                );
                l.set("exec.adapt.jobs_until_flip", counts.jobs_until_flip as f64);
                l.set(
                    "sim.job_s",
                    counts.sim_job_s.iter().sum::<f64>() / counts.sim_job_s.len() as f64,
                );
            }
            match &first {
                Some(f) => repeat &= *f == counts,
                None => first = Some(counts),
            }
            clock.pause(setups.catch_up(done + clock.elapsed(), args.seconds)?);
        }
        done += clock.elapsed();
        out.phase_rate(traced, ok_ops, clock.elapsed());
    }
    setups.catch_up(args.seconds, args.seconds)?;
    out.set_up(&setups);
    let share = registry.stats();
    let (produced, attached) = (
        share.produced - share_before.produced,
        share.attached - share_before.attached,
    );
    let l = &mut out.layers;
    l.set(
        "exec.sharing.attach_ratio",
        ratio(attached as f64, (produced + attached) as f64),
    );
    l.set(
        "exec.sharing.fallbacks",
        (share.fallback - share_before.fallback) as f64,
    );
    let waits = l.samples("mr.manager.queue_wait_ms").to_vec();
    l.set("mr.manager.queue_wait_ms_p50", median(&waits));
    l.set("mr.manager.queue_wait_ms_p90", percentile(&waits, 90.0));
    let rewritten = l.total("exec.adapt.replicas_rewritten");
    let attach = l.total("exec.sharing.attach_ratio");
    out.check("episode counts repeat", repeat);
    out.check("advisor rewrote replicas", rewritten > 0.0);
    out.check("scan sharing attached", attach > 0.0);
    out.shares();
    Ok(out)
}

/// One episode; returns the jobs completed correctly and the counts that
/// must repeat.
#[allow(clippy::too_many_arguments)]
fn episode(
    cluster: &mut DfsCluster,
    dataset: &Dataset,
    queries: &[Query],
    rounds: &[Vec<usize>],
    serving: &Serving,
    traced: bool,
    shapes: &mut BTreeSet<FilterShape>,
    out: &mut Outcome,
) -> Result<(u64, EpisodeCounts)> {
    let spec = cluster_spec();
    let feedback = Arc::new(SelectivityFeedback::default());
    let advisor = ReindexAdvisor::default();
    let mut counts = EpisodeCounts {
        replicas_rewritten: 0,
        jobs_until_flip: 0,
        sim_job_s: Vec::new(),
    };
    let (mut ok_jobs, mut jobs_done) = (0, 0);
    for round in rounds {
        let formats: Vec<Timed> = round
            .iter()
            .map(|&i| {
                shapes.insert(shape_of(&queries[i].query, Some(&feedback)));
                let mut inner = hail_format(dataset, &queries[i].query, &serving.cache)
                    .with_shared_pool(serving.pool.clone());
                inner.planner.feedback = Some(feedback.clone());
                // Feedback is absorbed after the batch, in submission
                // order, so the plans do not depend on thread timing.
                inner.planner.defer_feedback = true;
                Timed {
                    inner,
                    base: serving.base,
                    done_ns: AtomicU64::new(0),
                }
            })
            .collect();
        let jobs: Vec<MapJob<'_>> = formats
            .iter()
            .zip(round)
            .map(|(f, &i)| job(&queries[i], dataset, f))
            .collect();
        let queued_s = serving.base.elapsed().as_secs_f64();
        let results = serving.manager.run_batch(cluster, &spec, &jobs);
        for ((result, format), &i) in results.into_iter().zip(&formats).zip(round) {
            let q = &queries[i];
            let ok = match result {
                Ok(run) => {
                    let wait_s = run.report.queue_wait_seconds;
                    let latency_ms = (format.done_s() - queued_s - wait_s) * 1e3;
                    out.e2e.push("op_ms", latency_ms);
                    if traced {
                        let reader_ms = run.report.reader_wall_seconds() * 1e3;
                        out.layers
                            .push("mr.scheduler.overhead_ms", latency_ms - reader_ms);
                    }
                    out.layers.push("mr.manager.queue_wait_ms", wait_s * 1e3);
                    out.tally(&run, dataset.blocks.len());
                    counts.sim_job_s.push(run.report.end_to_end_seconds);
                    for task in &run.report.tasks {
                        feedback.absorb(&task.stats);
                    }
                    verify(&run.output, &q.expected)
                }
                Err(e) => {
                    eprintln!("{} failed: {e}", q.label);
                    false
                }
            };
            out.op(ok);
            ok_jobs += u64::from(ok);
        }
        jobs_done += round.len();
        if traced {
            let replay = JobReplay {
                cluster,
                dataset,
                plan_cache: &serving.cache,
                feedback: Some(&feedback),
                map_slots: spec.profile.map_slots,
            };
            for &i in round {
                replay.replay(&queries[i].query, &mut out.layers)?;
            }
        }
        drop(jobs);
        drop(formats);
        for action in advisor.note_round(&feedback, cluster.namenode(), &dataset.blocks) {
            let start = Instant::now();
            let outcome = apply_reindex(cluster, &dataset.blocks, &action)?;
            out.layers.push("exec.adapt.reindex_ms", ms_since(start));
            if counts.replicas_rewritten == 0 {
                counts.jobs_until_flip = jobs_done;
            }
            counts.replicas_rewritten += outcome.replicas_rewritten;
            // Decodes retained for the old replicas are stale now.
            if let Some(registry) = serving.pool.scan_share() {
                registry.clear();
            }
        }
    }
    Ok((ok_jobs, counts))
}

/// Every live replica's sort order and sidecar count.
fn design(cluster: &DfsCluster, blocks: &[BlockId]) -> Vec<(DatanodeId, SortOrder, usize)> {
    blocks
        .iter()
        .flat_map(|&b| cluster.namenode().live_replicas(b))
        .map(|r| (r.datanode, r.index.sort_order(), r.index.sidecars.len()))
        .collect()
}

/// Rewrites every replica the advisor clustered on the needle column
/// back to unsorted, restoring the uploaded design.
fn revert(cluster: &mut DfsCluster, blocks: &[BlockId]) -> Result<()> {
    let needle = SortOrder::Clustered {
        column: NEEDLE_COLUMN,
    };
    for &block in blocks {
        let targets: Vec<DatanodeId> = cluster
            .namenode()
            .live_replicas(block)
            .iter()
            .filter(|r| r.index.sort_order() == needle)
            .map(|r| r.datanode)
            .collect();
        for datanode in targets {
            rewrite_replica(
                cluster,
                block,
                datanode,
                SortOrder::Unsorted,
                &SidecarSpec::default(),
            )?;
        }
    }
    Ok(())
}
