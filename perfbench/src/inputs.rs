//! The two workloads' inputs, generated from the seed and written as
//! `emgbin` files without a cached CSR, so every one-shot call pays for
//! ingest and CSR build.

use graph_core::EdgeList;
use graph_io::ParsedGraph;
use std::path::{Path, PathBuf};

/// Which of the paper's two regimes a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// High diameter, deep tree: per-level launches and long pointer
    /// chains dominate.
    Hard,
    /// Low diameter, shallow tree: edge-proportional work dominates.
    Easy,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "hard" => Some(Workload::Hard),
            "easy" => Some(Workload::Easy),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Hard => "hard",
            Workload::Easy => "easy",
        }
    }

    /// Graph instances per run. Every timed round calls each bridge
    /// pipeline on each of them, and the metrics are the mean of the
    /// per-instance medians: the cost of a pipeline depends on the
    /// instance, so with one instance a run's figure would be a draw of
    /// the seed more than a measurement. The hybrid's cost on one easy
    /// instance differs from the next by 13% (standard deviation over 20
    /// instances, 1.2 to 2.0 s), against a few percent on the road strip,
    /// so the easy workload averages over more of them; a fourth would
    /// make an easy run longer than a minute and a half.
    pub fn graph_instances(self) -> usize {
        match self {
            Workload::Hard => 2,
            Workload::Easy => 3,
        }
    }
}

/// Nodes of either workload's tree.
pub const TREE_NODES: usize = 2_000_000;
/// Grasp of the hard tree: a window of 4 predecessors gives an average
/// depth in the hundreds of thousands.
pub const HARD_GRASP: u64 = 4;
/// Road strip: long and narrow, so BFS needs tens of thousands of levels.
pub const ROAD_WIDTH: usize = 48;
pub const ROAD_HEIGHT: usize = 26_000;
/// Bond-keep probability of the road strip (average degree about 2.5).
pub const ROAD_KEEP: f64 = graphgen::road::DEFAULT_KEEP_PROB;
/// Kronecker scale and edge factor of the easy graph (Graph500 style).
pub const KRON_SCALE: u32 = 18;
pub const KRON_EDGE_FACTOR: usize = 16;

/// A graph as written, and its file.
pub struct GraphFile {
    pub edges: EdgeList,
    pub path: PathBuf,
}

/// The generated inputs of one workload, as written.
pub struct Inputs {
    /// `graphs[0]` is the one the server serves.
    pub graphs: Vec<GraphFile>,
    pub tree: EdgeList,
    pub tree_path: PathBuf,
}

/// Catalog names: the server serves every file of the directory under
/// its stem.
pub const GRAPH_NAME: &str = "graph";
pub const TREE_NAME: &str = "tree";

/// Generates the inputs of `workload` from `seed`: the served graph and
/// the tree go into `catalog` as `graph.emgbin` and `tree.emgbin`, the
/// other graph instances into `extra`.
pub fn generate(
    workload: Workload,
    seed: u64,
    catalog: &Path,
    extra: &Path,
) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(catalog)?;
    std::fs::create_dir_all(extra)?;
    let mut graphs = Vec::with_capacity(workload.graph_instances());
    for i in 0..workload.graph_instances() as u64 {
        let graph_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (0x0067_7261_7068 + i);
        let raw = match workload {
            Workload::Hard => graphgen::road_grid(ROAD_WIDTH, ROAD_HEIGHT, ROAD_KEEP, graph_seed),
            Workload::Easy => graphgen::kronecker_graph(KRON_SCALE, KRON_EDGE_FACTOR, graph_seed),
        };
        let (graph, _) = graphgen::largest_connected_component(&raw);
        drop(raw);
        let path = if i == 0 {
            catalog.join(format!("{GRAPH_NAME}.emgbin"))
        } else {
            extra.join(format!("{GRAPH_NAME}-{i}.emgbin"))
        };
        let edges = write(&path, graph)?;
        graphs.push(GraphFile { edges, path });
    }
    let grasp = match workload {
        Workload::Hard => Some(HARD_GRASP),
        Workload::Easy => None,
    };
    let tree_seed = seed.wrapping_mul(0xC2B2_AE3D_27D4_EB4F) ^ 0x7472_6565;
    let tree = graphgen::random_tree(TREE_NODES, grasp, tree_seed);
    let tree_path = catalog.join(format!("{TREE_NAME}.emgbin"));
    let tree = write(&tree_path, EdgeList::new(tree.num_nodes(), tree.edges()))?;
    Ok(Inputs {
        graphs,
        tree,
        tree_path,
    })
}

fn write(path: &Path, graph: EdgeList) -> std::io::Result<EdgeList> {
    let parsed = ParsedGraph::dense(graph);
    graph_io::binary::write_file(path, &parsed, None)?;
    Ok(parsed.graph)
}
