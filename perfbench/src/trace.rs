//! The traced run's spans: each per-layer time is measured around a
//! public call made from this file, never inside the program.
//!
//! Uploads are traced by replaying, block by block, the calls
//! `upload_hail` makes, on a throwaway cluster beside the real upload.
//! Jobs are traced by replaying planning, splitting and block execution
//! for the job's query against the live cluster after the job returns,
//! so the job's own wall time is untouched.

use crate::setup::{storage, Input, NODES};
use crate::stats::{ms_since, Layers};
use bytes::Bytes;
use hail_core::{upload_hadoop, Dataset, HailQuery};
use hail_dfs::{hail_upload_block, DfsCluster, FaultPlan};
use hail_exec::{plan_hail_splits, PlanCache, PlannerConfig, QueryPlanner, SelectivityFeedback};
use hail_index::{IndexedBlock, ReplicaIndexConfig};
use hail_mr::MapRecord;
use hail_pax::{chunk_checksums, packetize, reassemble, PaxBlock, PaxBlockBuilder};
use hail_types::{AccessPathKind, Result};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-upload sums of each upload layer, one sample per replayed upload.
#[derive(Debug, Default)]
pub struct UploadTrace {
    pub layers: Layers,
}

impl UploadTrace {
    /// Replays one upload of `input` under `layout`, layer by layer.
    pub fn replay(&mut self, input: &Input, layout: &ReplicaIndexConfig) -> Result<()> {
        let mut spare = DfsCluster::new(NODES, storage());
        let (mut encode, mut upload_block, mut packet, mut parse, mut build, mut checksum) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (node, text) in &input.texts {
            let start = Instant::now();
            let mut builder = PaxBlockBuilder::new(input.schema.clone(), storage());
            let mut blocks = Vec::new();
            for line in text.lines() {
                builder.push_line(line)?;
                if builder.is_full() {
                    blocks.push(builder.finish()?);
                }
            }
            if !builder.is_empty() {
                blocks.push(builder.finish()?);
            }
            encode += ms_since(start);

            for pax in &blocks {
                let start = Instant::now();
                hail_upload_block(&mut spare, *node, pax, layout, &FaultPlan::none())?;
                upload_block += ms_since(start);

                let start = Instant::now();
                let packets = packetize(pax.bytes());
                let copies = (0..layout.replication())
                    .map(|_| reassemble(&packets))
                    .collect::<Result<Vec<_>>>()?;
                packet += ms_since(start);

                for (pos, data) in copies.into_iter().enumerate() {
                    let start = Instant::now();
                    let parsed = PaxBlock::parse(Bytes::from(data))?;
                    parse += ms_since(start);
                    let start = Instant::now();
                    let indexed = IndexedBlock::build_with(
                        &parsed,
                        layout.orders()[pos],
                        layout.sidecar(pos),
                    )?;
                    build += ms_since(start);
                    let start = Instant::now();
                    black_box(chunk_checksums(indexed.bytes()));
                    checksum += ms_since(start);
                }
            }
        }
        let start = Instant::now();
        let mut hadoop = DfsCluster::new(NODES, storage());
        upload_hadoop(&mut hadoop, &input.schema, "hadoop", &input.texts)?;
        let hdfs = ms_since(start);

        for (name, value) in [
            ("pax.encode_ms", encode),
            ("dfs.upload_block_ms", upload_block),
            ("dfs.packet_ms", packet),
            ("pax.parse_ms", parse),
            ("index.build_ms", build),
            ("pax.checksum_ms", checksum),
            ("dfs.hdfs_upload_ms", hdfs),
        ] {
            self.layers.push(name, value);
        }
        Ok(())
    }
}

/// What a traced job replay needs from the workload: the live cluster,
/// the dataset, and the shared planner state its jobs use.
pub struct JobReplay<'a> {
    pub cluster: &'a DfsCluster,
    pub dataset: &'a Dataset,
    pub plan_cache: &'a Arc<PlanCache>,
    pub feedback: Option<&'a Arc<SelectivityFeedback>>,
    pub map_slots: usize,
}

impl JobReplay<'_> {
    /// Replays the planner, splitting and read-path calls one job made.
    pub fn replay(&self, query: &HailQuery, layers: &mut Layers) -> Result<()> {
        let format = self.dataset.format;
        let blocks = &self.dataset.blocks;
        let cold = PlannerConfig {
            feedback: self.feedback.cloned(),
            ..PlannerConfig::default()
        };
        let start = Instant::now();
        black_box(
            QueryPlanner::with_config(self.cluster, cold).plan_lenient(format, blocks, query)?,
        );
        layers.push("exec.planner.cold_plan_ms", ms_since(start));

        let warm = PlannerConfig {
            plan_cache: Some(self.plan_cache.clone()),
            feedback: self.feedback.cloned(),
            defer_feedback: true,
            ..PlannerConfig::default()
        };
        let planner = QueryPlanner::with_config(self.cluster, warm);
        let start = Instant::now();
        let plan = planner.plan_lenient(format, blocks, query)?;
        layers.push("exec.planner.warm_plan_ms", ms_since(start));

        let start = Instant::now();
        black_box(plan_hail_splits(&plan, self.map_slots));
        layers.push("exec.splitting.ms", ms_since(start));

        let schema = &self.dataset.schema;
        let mut rows = 0u64;
        for bp in plan.blocks.iter().filter(|bp| bp.pruned.is_none()) {
            let mut emit = |rec: MapRecord| rows += u64::from(!rec.bad);
            let start = Instant::now();
            let stats =
                planner.execute_block(&plan, bp.block, bp.replica, schema, query, &mut emit)?;
            let ms = ms_since(start);
            layers.push(
                match bp.kind {
                    AccessPathKind::FullScan => "exec.path.fullscan_ms_per_block",
                    _ => "exec.path.index_ms_per_block",
                },
                ms,
            );
            layers.add("replay.disk_read", stats.ledger.disk_read as f64);
        }
        layers.add("replay.rows", rows as f64);
        Ok(())
    }
}
