//! Seeded inputs: the generated UserVisits text, the query pools with
//! their oracle outputs, the cluster geometry, the timed set-up, and the
//! clock of the measured phase.

use crate::stats::seconds_since;
use crate::trace::UploadTrace;
use hail_core::{upload_hail, upload_seconds, Dataset, HailQuery};
use hail_dfs::DfsCluster;
use hail_index::ReplicaIndexConfig;
use hail_sim::{ClusterSpec, HardwareProfile, ScaleFactor};
use hail_types::{DatanodeId, Result, Row, Schema, StorageConfig, Value};
use hail_workloads::{bob_schema, canonical, oracle_eval, UserVisitsGenerator};
use std::time::Instant;

/// Datanodes in every cluster the benchmark builds.
pub const NODES: usize = 4;
/// Real block size; the cost model maps each block onto the paper's
/// 64 MB logical block.
pub const BLOCK_BYTES: usize = 64 * 1024;
/// The paper's logical block size.
const LOGICAL_BLOCK: usize = 64 << 20;
/// Values per clustered-index partition.
const PARTITION_ROWS: usize = 64;
/// Every plan cache the benchmark builds holds this many entries (the
/// `PlanCache::default()` size), so working sets can be stated against it.
pub const PLAN_CACHE_CAPACITY: usize = 1024;

/// Bob's layout from the paper: replicas clustered on visitDate,
/// sourceIP and adRevenue.
pub fn bob_layout() -> ReplicaIndexConfig {
    ReplicaIndexConfig::first_indexed(3, &[2, 0, 3])
}

pub fn storage() -> StorageConfig {
    StorageConfig {
        block_size: BLOCK_BYTES,
        replication: 3,
        delimiter: '|',
        index_partition_size: PARTITION_ROWS,
    }
}

pub fn cluster_spec() -> ClusterSpec {
    ClusterSpec::new(NODES, HardwareProfile::physical())
        .with_scale(ScaleFactor::from_block_sizes(BLOCK_BYTES, LOGICAL_BLOCK))
}

/// SplitMix64: the benchmark's only source of randomness, so one seed
/// fixes every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }
}

/// The generated input of one workload.
pub struct Input {
    pub schema: Schema,
    pub texts: Vec<(DatanodeId, String)>,
    pub bytes: usize,
    pub rows: usize,
}

pub fn generate(seed: u64, rows_per_node: usize) -> Input {
    let generator = UserVisitsGenerator {
        seed,
        ..UserVisitsGenerator::default()
    };
    let texts = generator.generate(NODES, rows_per_node);
    Input {
        schema: bob_schema(),
        bytes: texts.iter().map(|(_, t)| t.len()).sum(),
        rows: NODES * rows_per_node,
        texts,
    }
}

/// Fields of a random generated row, so needle constants always match
/// at least one row.
fn sample_row<'a>(input: &'a Input, rng: &mut Rng) -> Vec<&'a str> {
    let (_, text) = &input.texts[rng.range(0, input.texts.len() as i64) as usize];
    let skip = rng.range(0, (input.rows / NODES) as i64) as usize;
    text.lines()
        .nth(skip)
        .expect("generated node text has rows_per_node lines")
        .split('|')
        .collect()
}

fn date(days: i64) -> String {
    Value::Date(days as i32).to_string()
}

/// One query of a pool with its expected canonical output.
pub struct Query {
    pub label: &'static str,
    pub query: HailQuery,
    pub expected: Vec<String>,
}

fn compile(input: &Input, label: &'static str, filter: &str, projection: &str) -> Query {
    let query = HailQuery::parse(filter, projection, &input.schema)
        .unwrap_or_else(|e| panic!("query `{filter}` does not parse: {e}"));
    let expected = canonical(&oracle_eval(&input.texts, &input.schema, &query));
    Query {
        label,
        query,
        expected,
    }
}

/// Bob-Q1…Q5 shapes with seeded constants: date and adRevenue ranges
/// of the paper's widths, and needle sourceIPs (and dates) taken from
/// generated rows. Every filter column carries a clustered index under
/// [`bob_layout`].
pub fn bob_query(input: &Input, shape: usize, rng: &mut Rng) -> Query {
    match shape {
        0 => {
            let from = rng.range(0, 11_806 - 366);
            let filter = format!("@3 between({}, {})", date(from), date(from + 365));
            compile(input, "bob-q1", &filter, "{@1}")
        }
        1 => {
            let row = sample_row(input, rng);
            let filter = format!("@1 = '{}'", row[0]);
            compile(input, "bob-q2", &filter, "{@8, @9, @4}")
        }
        2 => {
            let row = sample_row(input, rng);
            let filter = format!("@1 = '{}' and @3 = {}", row[0], row[2]);
            compile(input, "bob-q3", &filter, "{@8, @9, @4}")
        }
        3 => {
            let lo = rng.range(0, 475);
            let filter = format!("@4 >= {lo} and @4 <= {}", lo + 9);
            compile(input, "bob-q4", &filter, "{@8, @9, @4}")
        }
        _ => {
            let lo = rng.range(0, 385);
            let filter = format!("@4 >= {lo} and @4 <= {}", lo + 99);
            compile(input, "bob-q5", &filter, "{@8, @9, @4}")
        }
    }
}

const COUNTRIES: [&str; 8] = ["USA", "DEU", "FRA", "BRA", "IND", "CHN", "JPN", "GBR"];
const LANGS: [&str; 8] = [
    "en-US", "de-DE", "fr-FR", "pt-BR", "hi-IN", "zh-CN", "ja-JP", "en-GB",
];

/// Filters on the unindexed columns duration (@9), countryCode (@6) and
/// languageCode (@7), with narrow and wide projections: every block is
/// full-scanned under [`bob_layout`].
pub fn scan_query(input: &Input, shape: usize, rng: &mut Rng) -> Query {
    match shape {
        0 => {
            let lo = rng.range(1, 9_000);
            let filter = format!("@9 between({lo}, {})", lo + 999);
            compile(input, "scan-duration", &filter, "{@1}")
        }
        1 => {
            let filter = format!("@6 = '{}'", COUNTRIES[rng.range(0, 8) as usize]);
            compile(input, "scan-country-wide", &filter, "")
        }
        _ => {
            let filter = format!("@7 = '{}'", LANGS[rng.range(0, 8) as usize]);
            compile(input, "scan-language", &filter, "{@1, @4}")
        }
    }
}

/// Full scans whose filters span two unindexed columns: the planner
/// records no per-column selectivity for a conjunction, so these leave
/// the `ReindexAdvisor`'s evidence to the duration needles.
pub fn conjunction_scan(input: &Input, shape: usize, rng: &mut Rng) -> Query {
    let country = COUNTRIES[rng.range(0, 8) as usize];
    let lang = LANGS[rng.range(0, 8) as usize];
    match shape {
        0 => {
            let filter = format!("@6 = '{country}' and @7 = '{lang}'");
            compile(input, "scan-country-language-wide", &filter, "")
        }
        _ => {
            let filter = format!("@7 = '{lang}' and @9 >= {}", rng.range(1, 9_000));
            compile(input, "scan-language-duration", &filter, "{@1, @4}")
        }
    }
}

/// A selective range on the unindexed duration column: the evidence the
/// `ReindexAdvisor` turns into a clustered index on a free replica.
pub fn duration_needle(input: &Input, rng: &mut Rng) -> Query {
    let lo = rng.range(1, 9_980);
    let filter = format!("@9 between({lo}, {})", lo + 19);
    compile(input, "duration-needle", &filter, "{@1, @3}")
}

/// True when a job's output equals the oracle's.
pub fn verify(output: &[Row], expected: &[String]) -> bool {
    output.len() == expected.len() && canonical(output) == expected
}

/// One upload of a workload's input into a fresh cluster.
pub struct Loaded {
    pub cluster: DfsCluster,
    pub dataset: Dataset,
    pub upload_s: f64,
    pub sim_upload_s: f64,
    pub stored_bytes: u64,
}

pub fn load(input: &Input, layout: &ReplicaIndexConfig) -> Result<Loaded> {
    let mut cluster = DfsCluster::new(NODES, storage());
    let start = Instant::now();
    let dataset = upload_hail(
        &mut cluster,
        &input.schema,
        "uservisits",
        &input.texts,
        layout,
    )?;
    let upload_s = seconds_since(start);
    Ok(Loaded {
        sim_upload_s: upload_seconds(&cluster, &cluster_spec()),
        stored_bytes: cluster.namenode().total_replica_bytes(),
        cluster,
        dataset,
        upload_s,
    })
}

/// A workload's set-up, repeated from its seed: each repetition
/// generates the input and, for the job workloads, uploads it. The first
/// repetition serves the run; the others are spread over the measured
/// phase, outside its clock, so `setup_s` and the set-up upload rate are
/// medians over the whole span of the run rather than its first seconds.
pub struct SetUps {
    seed: u64,
    rows_per_node: usize,
    layout: Option<ReplicaIndexConfig>,
    times: usize,
    pub setup_s: Vec<f64>,
    pub upload_mb_per_s: Vec<f64>,
    counts: Option<(u64, f64)>,
    /// False once two uploads of the same input disagree on their
    /// stored bytes or simulated upload time.
    pub deterministic: bool,
    /// Present in traced runs: every upload is replayed layer by layer.
    pub trace: Option<UploadTrace>,
}

impl SetUps {
    /// `layout: None` makes set-up generation only (`ingest`, whose
    /// uploads are the measured operations).
    pub fn new(
        seed: u64,
        rows_per_node: usize,
        layout: Option<ReplicaIndexConfig>,
        times: usize,
        trace: bool,
    ) -> Self {
        SetUps {
            seed,
            rows_per_node,
            layout,
            times,
            setup_s: Vec::new(),
            upload_mb_per_s: Vec::new(),
            counts: None,
            deterministic: true,
            trace: trace.then(UploadTrace::default),
        }
    }

    /// One timed repetition.
    pub fn run(&mut self) -> Result<(Input, Option<Loaded>)> {
        let start = Instant::now();
        let input = generate(self.seed, self.rows_per_node);
        let loaded = match &self.layout {
            Some(layout) => Some(load(&input, layout)?),
            None => None,
        };
        self.setup_s.push(seconds_since(start));
        if let (Some(layout), Some(l)) = (&self.layout, &loaded) {
            self.upload_mb_per_s
                .push(input.bytes as f64 / 1e6 / l.upload_s);
            let counts = (l.stored_bytes, l.sim_upload_s);
            self.deterministic &= *self.counts.get_or_insert(counts) == counts;
            if let Some(trace) = &mut self.trace {
                trace.replay(&input, layout)?;
            }
        }
        Ok((input, loaded))
    }

    /// Runs, and drops, the repetitions due once `done` of the measured
    /// phase's `total` seconds have passed. Returns the seconds spent.
    pub fn catch_up(&mut self, done: f64, total: f64) -> Result<f64> {
        let start = Instant::now();
        while self.setup_s.len() < self.times
            && done >= total * self.setup_s.len() as f64 / self.times as f64
        {
            self.run()?;
        }
        Ok(seconds_since(start))
    }
}

/// The measured phase's clock, which stops while set-up repeats.
pub struct PhaseClock {
    start: Instant,
    paused: f64,
}

impl PhaseClock {
    pub fn start() -> Self {
        PhaseClock {
            start: Instant::now(),
            paused: 0.0,
        }
    }

    pub fn elapsed(&self) -> f64 {
        seconds_since(self.start) - self.paused
    }

    pub fn pause(&mut self, seconds: f64) {
        self.paused += seconds;
    }
}
