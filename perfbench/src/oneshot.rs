//! The one-shot path, file → answers, through the library's public entry
//! points, with a span around every call into a layer.

use crate::trace::{self, span};
use bridges::{bridges_ck_device, bridges_hybrid, bridges_tv, BridgesResult};
use euler_tour::{rank_into, Dcel, EulerList, Ranker};
use gpu_sim::{Device, MetricsSnapshot};
use graph_core::{Csr, EdgeList, Tree};
use lca::{GpuInlabelLca, InlabelTables};
use std::path::Path;
use std::time::{Duration, Instant};

/// A bridge pipeline under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BridgeAlg {
    /// Tarjan–Vishkin over the Euler tour (the default pipeline).
    Tv,
    /// Chaitanya–Kothapalli: BFS tree plus marking walks.
    Ck,
    /// The §4.3 hybrid: forest, Euler levels, CK marking.
    Hybrid,
}

impl BridgeAlg {
    pub const ALL: [BridgeAlg; 3] = [BridgeAlg::Tv, BridgeAlg::Ck, BridgeAlg::Hybrid];

    pub fn name(self) -> &'static str {
        match self {
            BridgeAlg::Tv => "tv",
            BridgeAlg::Ck => "ck",
            BridgeAlg::Hybrid => "hybrid",
        }
    }

    fn span_name(self) -> &'static str {
        match self {
            BridgeAlg::Tv => "bridges.tv",
            BridgeAlg::Ck => "bridges.ck",
            BridgeAlg::Hybrid => "bridges.hybrid",
        }
    }
}

/// Reads a graph file written without a cached CSR.
pub fn read_graph(path: &Path, span_name: &'static str) -> Result<EdgeList, String> {
    let _s = span(span_name);
    let (parsed, _) = graph_io::read_edge_list_with_csr(path).map_err(|e| e.to_string())?;
    Ok(parsed.graph)
}

/// Graph file → bridge flags with `alg`. Returns the flags and the device
/// counters the whole call moved.
pub fn bridges(
    device: &Device,
    path: &Path,
    alg: BridgeAlg,
) -> Result<(Vec<bool>, MetricsSnapshot), String> {
    let before = device.metrics().snapshot();
    let _op = span(alg.span_name());
    let graph = read_graph(path, "graph_io.read")?;
    let csr = {
        let _s = span("graph_core.csr");
        Csr::from_edge_list_on(device, &graph)
    };
    let result = {
        let s = span("bridges.run");
        let r = match alg {
            BridgeAlg::Tv => bridges_tv(device, &graph, &csr),
            BridgeAlg::Ck => bridges_ck_device(device, &graph, &csr),
            BridgeAlg::Hybrid => bridges_hybrid(device, &graph, &csr),
        }
        .map_err(|e| e.to_string())?;
        record_phases(&s, alg, &r);
        r
    };
    let flags = (0..graph.num_edges())
        .map(|e| result.is_bridge.get(e))
        .collect();
    Ok((flags, device.metrics().snapshot().since(&before)))
}

/// The pipelines time their own phases; lay those out as child spans of
/// the call, back to back from its start.
fn record_phases(call: &trace::Guard, alg: BridgeAlg, result: &BridgesResult) {
    if !trace::enabled() {
        return;
    }
    let mut at = call.start();
    for (phase, took) in &result.phases {
        let name = format!("{}.{phase}", alg.span_name());
        trace::record(&name, at, at + *took, call.id(), 0);
        at += *took;
    }
}

/// Tree file → Inlabel tables on the device through
/// `GpuInlabelLca::preprocess`, the entry point of `emg lca --alg gpu`.
/// Root 0, as the one-shot CLI and the server use.
pub fn lca_build<'d>(
    device: &'d Device,
    path: &Path,
) -> Result<(GpuInlabelLca<'d>, MetricsSnapshot), String> {
    let before = device.metrics().snapshot();
    let _op = span("lca.build");
    let edges = read_graph(path, "graph_io.read_tree")?;
    let tree = {
        let _s = span("graph_core.tree");
        Tree::from_edges(edges.num_nodes(), edges.edges(), 0).map_err(|e| format!("{e:?}"))?
    };
    // Drop phases other calls left behind, so that only this call's show.
    device.metrics().take_phases();
    let lca = {
        let s = span("lca.preprocess");
        let lca = GpuInlabelLca::preprocess(device, &tree).map_err(|e| e.to_string())?;
        record_lca_phases(&s, &device.metrics().take_phases());
        lca
    };
    Ok((lca, device.metrics().snapshot().since(&before)))
}

/// `GpuInlabelLca::preprocess` times its phases in the device metrics;
/// lay those out as child spans of the call, back to back from its start,
/// named after the layer each phase calls into.
fn record_lca_phases(call: &trace::Guard, phases: &[(String, Duration)]) {
    if !trace::enabled() {
        return;
    }
    let mut at = call.start();
    for (phase, took) in phases {
        let name = match phase.as_str() {
            "lca.euler_tour" => "euler_tour.tour",
            "lca.stats" => "euler_tour.stats",
            other => other,
        };
        trace::record(name, at, at + *took, call.id(), 0);
        at += *took;
    }
}

/// One batched query pass; returns its wall time and device counters.
pub fn lca_query(
    device: &Device,
    tables: &InlabelTables,
    pairs: &[(u32, u32)],
    out: &mut [u32],
) -> (Duration, MetricsSnapshot) {
    let before = device.metrics().snapshot();
    let _s = span("lca.query");
    let t = Instant::now();
    tables.query_batch_on(device, std::hint::black_box(pairs), out);
    let took = t.elapsed();
    (took, device.metrics().snapshot().since(&before))
}

/// The tour build split into its three device stages, each called on its
/// own (traced rounds only: `EulerTour::build` runs them internally).
pub fn euler_breakdown(device: &Device, tree_edges: &EdgeList) {
    let _s = span("euler_tour.breakdown");
    let n = tree_edges.num_nodes();
    let dcel = {
        let _s = span("euler_tour.dcel");
        Dcel::build(device, n, tree_edges.edges())
    };
    let list = {
        let _s = span("euler_tour.list");
        EulerList::build(device, &dcel, 0)
    };
    let mut rank = vec![0u32; list.len()];
    let _s = span("euler_tour.rank");
    rank_into(device, &list, Ranker::default(), &mut rank);
}

/// Every spanning-forest backend on the same graph (traced rounds only:
/// the pipelines call just their default backend), each in a span named
/// after it.
pub fn forest_backends(device: &Device, graph: &EdgeList, csr: &Csr) {
    let _s = span("bridges.forest");
    for b in bridges::all_builders() {
        let t = Instant::now();
        let forest = b.build_unrooted(device, graph, csr);
        std::hint::black_box(forest.is_connected());
        let name = format!("bridges.forest.{}", b.name());
        trace::record(&name, t, Instant::now(), trace::current(), 0);
    }
}
