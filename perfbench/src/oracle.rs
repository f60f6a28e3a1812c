//! Output checks computed apart from the program: the benchmark's own
//! adjacency, union-find, low-link DFS and preorder intervals. Nothing
//! here calls into the workspace crates, so a fault in a shared helper
//! cannot hide in both the answer and its check.

/// A small deterministic generator (SplitMix64) for sampling.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Adjacency as (neighbor, edge id) slots grouped by node.
struct Adjacency {
    offsets: Vec<usize>,
    slots: Vec<(u32, u32)>,
}

impl Adjacency {
    fn new(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut offsets = vec![0usize; n + 1];
        for &(u, v) in edges {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut slots = vec![(0u32, 0u32); offsets[n]];
        for (e, &(u, v)) in edges.iter().enumerate() {
            slots[fill[u as usize]] = (v, e as u32);
            fill[u as usize] += 1;
            slots[fill[v as usize]] = (u, e as u32);
            fill[v as usize] += 1;
        }
        Adjacency { offsets, slots }
    }

    fn row(&self, v: usize) -> &[(u32, u32)] {
        &self.slots[self.offsets[v]..self.offsets[v + 1]]
    }
}

/// Union-find with path halving and union by size.
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    pub fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let gp = self.parent[self.parent[v as usize] as usize];
            self.parent[v as usize] = gp;
            v = gp;
        }
        v
    }

    pub fn union(&mut self, a: u32, b: u32) {
        let (mut a, mut b) = (self.find(a), self.find(b));
        if a == b {
            return;
        }
        if self.size[a as usize] < self.size[b as usize] {
            std::mem::swap(&mut a, &mut b);
        }
        self.parent[b as usize] = a;
        self.size[a as usize] += self.size[b as usize];
    }
}

/// Bridge flags by an iterative Hopcroft–Tarjan low-link DFS. Parallel
/// edges are told apart by edge id, so a doubled edge is never a bridge.
pub fn dfs_bridges(n: usize, edges: &[(u32, u32)]) -> Vec<bool> {
    const UNSEEN: u32 = u32::MAX;
    let adj = Adjacency::new(n, edges);
    let mut tin = vec![UNSEEN; n];
    let mut low = vec![0u32; n];
    let mut bridge = vec![false; edges.len()];
    let mut timer = 0u32;
    // (node, edge id it was entered by, next adjacency slot)
    let mut stack: Vec<(u32, u32, usize)> = Vec::new();
    for s in 0..n {
        if tin[s] != UNSEEN {
            continue;
        }
        tin[s] = timer;
        low[s] = timer;
        timer += 1;
        stack.push((s as u32, u32::MAX, 0));
        while let Some(top) = stack.last_mut() {
            let (v, via, next) = (top.0 as usize, top.1, top.2);
            if let Some(&(w, e)) = adj.row(v).get(next) {
                top.2 += 1;
                if e == via {
                    continue;
                }
                if tin[w as usize] == UNSEEN {
                    tin[w as usize] = timer;
                    low[w as usize] = timer;
                    timer += 1;
                    stack.push((w, e, 0));
                } else {
                    low[v] = low[v].min(tin[w as usize]);
                }
            } else {
                stack.pop();
                if let Some(p) = stack.last() {
                    let p = p.0 as usize;
                    low[p] = low[p].min(low[v]);
                    if low[v] > tin[p] {
                        bridge[via as usize] = true;
                    }
                }
            }
        }
    }
    bridge
}

/// Checks `flags` against the bridge definition on sampled edges: with
/// the edge removed, its endpoints must be disconnected exactly when it
/// is flagged a bridge. Each sample is a fresh union-find pass.
pub fn check_bridges_by_removal(
    n: usize,
    edges: &[(u32, u32)],
    flags: &[bool],
    samples: &[u32],
) -> Result<(), String> {
    for &e in samples {
        let mut uf = UnionFind::new(n);
        for (i, &(u, v)) in edges.iter().enumerate() {
            if i != e as usize {
                uf.union(u, v);
            }
        }
        let (u, v) = edges[e as usize];
        let connected = uf.find(u) == uf.find(v);
        if connected == flags[e as usize] {
            return Err(format!(
                "edge {e} ({u},{v}) is flagged bridge={} but removing it {} its endpoints",
                flags[e as usize],
                if connected {
                    "keeps connected"
                } else {
                    "disconnects"
                }
            ));
        }
    }
    Ok(())
}

/// Picks up to `k` bridges and `k` non-bridges uniformly from `flags`.
pub fn sample_edges(flags: &[bool], k: usize, rng: &mut SplitMix) -> Vec<u32> {
    let mut picked = Vec::new();
    for want in [true, false] {
        let pool: Vec<u32> = (0..flags.len() as u32)
            .filter(|&e| flags[e as usize] == want)
            .collect();
        for _ in 0..k.min(pool.len()) {
            picked.push(pool[rng.below(pool.len())]);
        }
    }
    picked
}

/// Compares a full bridge-flag vector with the oracle's.
pub fn check_bridge_set(got: &[bool], want: &[bool]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} flags for {} edges", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(e) => Err(format!(
            "edge {e}: bridge={} but the sequential DFS says {}",
            got[e], want[e]
        )),
    }
}

/// Preorder intervals of a rooted tree from an iterative DFS: node `v`'s
/// subtree is `[pre[v], pre[v] + size[v])`, and the children of each node
/// are listed in increasing preorder.
pub struct TreeIndex {
    pre: Vec<u32>,
    size: Vec<u32>,
    kid_offsets: Vec<usize>,
    kids: Vec<u32>,
    depth: Vec<u32>,
}

impl TreeIndex {
    /// Roots the tree given by `n - 1` undirected `edges` at `root`.
    pub fn new(n: usize, edges: &[(u32, u32)], root: u32) -> Result<Self, String> {
        if edges.len() + 1 != n {
            return Err(format!("{} edges cannot span {n} nodes", edges.len()));
        }
        let adj = Adjacency::new(n, edges);
        let mut pre = vec![u32::MAX; n];
        let mut size = vec![1u32; n];
        let mut depth = vec![0u32; n];
        let mut kid_offsets = vec![0usize; n + 1];
        let mut kids = Vec::with_capacity(n.saturating_sub(1));
        let mut timer = 0u32;
        // Children are numbered as they are entered, in adjacency order,
        // so each node's child list comes out sorted by preorder.
        let mut parent = vec![u32::MAX; n];
        // (node, edge id it was entered by, next adjacency slot)
        let mut stack: Vec<(u32, u32, usize)> = vec![(root, u32::MAX, 0)];
        pre[root as usize] = timer;
        timer += 1;
        while let Some(top) = stack.last_mut() {
            let (v, via, next) = (top.0 as usize, top.1, top.2);
            if let Some(&(w, e)) = adj.row(v).get(next) {
                top.2 += 1;
                if e == via {
                    continue;
                }
                if pre[w as usize] != u32::MAX {
                    return Err(format!("cycle through edge {e} ({v},{w})"));
                }
                parent[w as usize] = v as u32;
                pre[w as usize] = timer;
                depth[w as usize] = depth[v] + 1;
                timer += 1;
                stack.push((w, e, 0));
            } else {
                stack.pop();
                if let Some(&(p, _, _)) = stack.last() {
                    size[p as usize] += size[v];
                }
            }
        }
        if timer as usize != n {
            return Err(format!("only {timer} of {n} nodes reachable from the root"));
        }
        // Child lists: bucket each non-root node under its parent in
        // preorder, which keeps every bucket sorted.
        let mut by_pre = vec![0u32; n];
        for v in 0..n {
            by_pre[pre[v] as usize] = v as u32;
        }
        for v in 0..n {
            if parent[v] != u32::MAX {
                kid_offsets[parent[v] as usize + 1] += 1;
            }
        }
        for i in 0..n {
            kid_offsets[i + 1] += kid_offsets[i];
        }
        let mut fill = kid_offsets.clone();
        kids.resize(n - 1, 0);
        for &v in &by_pre {
            let p = parent[v as usize];
            if p != u32::MAX {
                kids[fill[p as usize]] = v;
                fill[p as usize] += 1;
            }
        }
        Ok(TreeIndex {
            pre,
            size,
            kid_offsets,
            kids,
            depth,
        })
    }

    /// Whether `a` is an ancestor of `x` (every node is its own ancestor).
    pub fn is_ancestor(&self, a: u32, x: u32) -> bool {
        let (pa, px) = (self.pre[a as usize], self.pre[x as usize]);
        pa <= px && px < pa + self.size[a as usize]
    }

    /// The child of `a` whose subtree holds `x` (`x` a proper descendant).
    fn child_towards(&self, a: u32, x: u32) -> u32 {
        let kids = &self.kids[self.kid_offsets[a as usize]..self.kid_offsets[a as usize + 1]];
        let px = self.pre[x as usize];
        let i = kids.partition_point(|&c| self.pre[c as usize] <= px);
        kids[i - 1]
    }

    /// Checks that `a` is the lowest common ancestor of `x` and `y`: an
    /// ancestor of both, with `x` and `y` in different child subtrees of
    /// `a` unless one of them is `a`.
    pub fn check_lca(&self, x: u32, y: u32, a: u32) -> Result<(), String> {
        let n = self.pre.len() as u32;
        if a >= n {
            return Err(format!("lca({x},{y}) = {a} is not a node"));
        }
        if !self.is_ancestor(a, x) || !self.is_ancestor(a, y) {
            return Err(format!("lca({x},{y}) = {a} is not an ancestor of both"));
        }
        if a != x && a != y && self.child_towards(a, x) == self.child_towards(a, y) {
            return Err(format!(
                "lca({x},{y}) = {a} is not lowest: both lie under child {}",
                self.child_towards(a, x)
            ));
        }
        Ok(())
    }

    /// Checks every answer of a batch; reports the first violation.
    pub fn check_batch(&self, pairs: &[(u32, u32)], answers: &[u32]) -> Result<(), String> {
        if pairs.len() != answers.len() {
            return Err(format!(
                "{} answers for {} pairs",
                answers.len(),
                pairs.len()
            ));
        }
        pairs
            .iter()
            .zip(answers)
            .try_for_each(|(&(x, y), &a)| self.check_lca(x, y, a))
    }

    /// Average node depth.
    pub fn average_depth(&self) -> f64 {
        self.depth.iter().map(|&d| d as f64).sum::<f64>() / self.depth.len() as f64
    }

    /// Largest node depth.
    pub fn max_depth(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }
}

/// Eccentricity of `start` by BFS over the benchmark's own adjacency —
/// the number of BFS levels a level-synchronous search from it needs.
pub fn bfs_levels(n: usize, edges: &[(u32, u32)], start: u32) -> u32 {
    let adj = Adjacency::new(n, edges);
    let mut dist = vec![u32::MAX; n];
    let mut queue = std::collections::VecDeque::from([start]);
    dist[start as usize] = 0;
    let mut far = 0;
    while let Some(v) = queue.pop_front() {
        far = far.max(dist[v as usize]);
        for &(w, _) in adj.row(v as usize) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dist[v as usize] + 1;
                queue.push_back(w);
            }
        }
    }
    far
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two triangles joined by a path 2-3-4, plus a doubled pendant edge.
    fn sample_graph() -> (usize, Vec<(u32, u32)>) {
        let edges = vec![
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 4),
            (6, 7),
            (6, 7),
        ];
        (8, edges)
    }

    #[test]
    fn dfs_finds_exactly_the_path_bridges() {
        let (n, edges) = sample_graph();
        let flags = dfs_bridges(n, &edges);
        let ids: Vec<usize> = (0..edges.len()).filter(|&e| flags[e]).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn removal_check_accepts_truth_and_catches_a_planted_flip() {
        let (n, edges) = sample_graph();
        let flags = dfs_bridges(n, &edges);
        let all: Vec<u32> = (0..edges.len() as u32).collect();
        check_bridges_by_removal(n, &edges, &flags, &all).unwrap();
        for planted in [3usize, 0, 8] {
            let mut wrong = flags.clone();
            wrong[planted] = !wrong[planted];
            assert!(check_bridges_by_removal(n, &edges, &wrong, &all).is_err());
            assert!(check_bridge_set(&wrong, &flags).is_err());
        }
    }

    #[test]
    fn sampling_draws_from_both_classes() {
        let (n, edges) = sample_graph();
        let flags = dfs_bridges(n, &edges);
        let picked = sample_edges(&flags, 2, &mut SplitMix(5));
        assert_eq!(picked.len(), 4);
        assert!(flags[picked[0] as usize] && flags[picked[1] as usize]);
        assert!(!flags[picked[2] as usize] && !flags[picked[3] as usize]);
    }

    /// Root 0 with children 1 and 2; 1 has children 3 and 4; 4 has child 5.
    fn sample_tree() -> TreeIndex {
        let edges = vec![(0, 1), (2, 0), (1, 3), (4, 1), (4, 5)];
        TreeIndex::new(6, &edges, 0).unwrap()
    }

    #[test]
    fn lca_check_accepts_true_answers() {
        let t = sample_tree();
        let cases = [
            (3, 5, 1),
            (5, 3, 1),
            (3, 2, 0),
            (5, 4, 4),
            (1, 1, 1),
            (0, 5, 0),
            (2, 2, 2),
        ];
        for (x, y, a) in cases {
            t.check_lca(x, y, a).unwrap();
        }
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn lca_check_catches_planted_wrong_answers() {
        let t = sample_tree();
        // An ancestor of both that is not the lowest one.
        assert!(t.check_lca(3, 5, 0).is_err());
        // A node below the true answer.
        assert!(t.check_lca(3, 5, 4).is_err());
        // A node off the path altogether, and a non-node.
        assert!(t.check_lca(3, 5, 2).is_err());
        assert!(t.check_lca(3, 5, 6).is_err());
        // The batch check reports the planted answer among right ones.
        let pairs = [(3, 5), (3, 2), (5, 4)];
        assert!(t.check_batch(&pairs, &[1, 0, 4]).is_ok());
        assert!(t.check_batch(&pairs, &[1, 1, 4]).is_err());
    }

    #[test]
    fn tree_index_rejects_non_trees() {
        assert!(TreeIndex::new(3, &[(0, 1), (1, 0)], 0).is_err());
        assert!(TreeIndex::new(4, &[(0, 1), (1, 2), (2, 0)], 0).is_err());
    }

    #[test]
    fn bfs_levels_of_a_path() {
        assert_eq!(bfs_levels(4, &[(0, 1), (1, 2), (2, 3)], 0), 3);
        assert_eq!(bfs_levels(4, &[(0, 1), (1, 2), (2, 3)], 1), 2);
    }
}
