//! The workspace call graph: functions across every file, linked by
//! conservatively resolved call sites.
//!
//! Resolution is name-based (the linter does not type-check):
//!
//! * a qualified call (`engine::run(…)`, `Pool::alloc(…)`) links to every
//!   function whose qualified path ends with the written segments;
//! * a bare call (`helper(…)`) links to every free function of that name
//!   anywhere in the workspace (imports are invisible to a token scanner);
//! * a method call (`x.compute(…)`) links to every function of that name
//!   whose first parameter is a `self` receiver — the receiver's type is
//!   unknown, so all candidates are assumed callable, but a function
//!   without a receiver (`Type::new`) cannot be reached through a `.`.
//!
//! Unresolved names (std, vendor, closures) produce no edge. The result
//! over-approximates the real graph — a reachability verdict can be a
//! false positive but never silently misses a statically written call —
//! which is the right polarity for a checker whose findings fail CI
//! unless a justified `lint:allow` pragma waives the site.

use crate::items::{FileItems, FnItem};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A function node: the item plus where it came from.
#[derive(Debug, Clone)]
pub struct Node {
    /// Workspace-relative file path.
    pub file: String,
    /// The collected item.
    pub item: FnItem,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Nodes in deterministic (file, definition) order.
    pub nodes: Vec<Node>,
    /// `edges[i]` = sorted, deduplicated callee node ids of node `i`.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build the graph from per-file item collections. `files` must be in
    /// a deterministic order (the engine sorts by path).
    pub fn build(files: &[(String, FileItems)]) -> CallGraph {
        let mut nodes = Vec::new();
        for (path, items) in files {
            for f in &items.fns {
                nodes.push(Node {
                    file: path.clone(),
                    item: f.clone(),
                });
            }
        }

        // Name indexes: free functions and methods separately; qualified
        // suffix matching falls back to the full candidate list.
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            by_name.entry(n.item.name.as_str()).or_default().push(id);
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
        for (id, n) in nodes.iter().enumerate() {
            for call in &n.item.calls {
                let Some(candidates) = by_name.get(call.name.as_str()) else {
                    continue;
                };
                for &cand in candidates {
                    if cand == id {
                        continue; // self-recursion adds nothing to reachability
                    }
                    let c = &nodes[cand];
                    let links = if !call.qual.is_empty() {
                        if call.qual.iter().any(|s| s == "Self") {
                            // `Self::helper()` — same file, any impl fn.
                            c.file == n.file && c.item.is_method
                        } else {
                            qual_suffix_matches(&c.item.qual_name, &call.qual, &call.name)
                        }
                    } else if call.method {
                        c.item.has_self
                    } else {
                        !c.item.is_method
                    };
                    if links {
                        edges[id].push(cand);
                    }
                }
            }
            edges[id].sort_unstable();
            edges[id].dedup();
        }
        CallGraph { nodes, edges }
    }

    /// Node ids of functions defined in `file` with the given name.
    pub fn find(&self, file: &str, name: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.file == file && n.item.name == name)
            .map(|(id, _)| id)
            .collect()
    }

    /// Breadth-first search from `roots`; returns, for every reachable
    /// node, its BFS parent (roots map to themselves). Deterministic:
    /// roots and adjacency are visited in sorted id order, so the parent
    /// tree — and therefore every reported chain — is stable.
    pub fn bfs(&self, roots: &[usize]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        let mut sorted_roots = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for r in sorted_roots {
            if r < self.nodes.len() {
                if let Entry::Vacant(slot) = parent.entry(r) {
                    slot.insert(r);
                    queue.push_back(r);
                }
            }
        }
        while let Some(at) = queue.pop_front() {
            for &next in &self.edges[at] {
                if let Entry::Vacant(slot) = parent.entry(next) {
                    slot.insert(at);
                    queue.push_back(next);
                }
            }
        }
        parent
    }

    /// The chain `root → … → target` as qualified names, given a BFS
    /// parent map. Empty if `target` was not reached.
    pub fn chain(&self, parents: &BTreeMap<usize, usize>, target: usize) -> Vec<String> {
        let mut names = Vec::new();
        let mut at = target;
        loop {
            let Some(&p) = parents.get(&at) else {
                return Vec::new();
            };
            names.push(self.nodes[at].item.qual_name.clone());
            if p == at {
                break;
            }
            at = p;
        }
        names.reverse();
        names
    }
}

/// Does `qual_name` (e.g. `pool::Pool::alloc`) end with the written
/// segments `qual… :: name` (e.g. `Pool::alloc`)?
fn qual_suffix_matches(qual_name: &str, qual: &[String], name: &str) -> bool {
    let have: Vec<&str> = qual_name.split("::").collect();
    let want: Vec<&str> = qual
        .iter()
        .map(String::as_str)
        .chain(std::iter::once(name))
        .collect();
    if want.len() > have.len() {
        return false;
    }
    have[have.len() - want.len()..] == want[..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::collect_items;
    use crate::scrub::scrub;

    fn graph(files: &[(&str, &str)]) -> CallGraph {
        let collected: Vec<(String, FileItems)> = files
            .iter()
            .map(|(p, src)| (p.to_string(), collect_items(&scrub(src))))
            .collect();
        CallGraph::build(&collected)
    }

    #[test]
    fn bare_calls_link_across_files() {
        let g = graph(&[
            ("src/main.rs", "fn main() { helper(); }\n"),
            ("src/lib.rs", "pub fn helper() { deep(); }\nfn deep() {}\n"),
        ]);
        let main = g.find("src/main.rs", "main")[0];
        let parents = g.bfs(&[main]);
        let deep = g.find("src/lib.rs", "deep")[0];
        assert_eq!(
            g.chain(&parents, deep),
            vec!["main".to_string(), "helper".into(), "deep".into()]
        );
    }

    #[test]
    fn qualified_calls_filter_candidates() {
        let g = graph(&[
            ("a.rs", "pub mod engine { pub fn run() {} }\n"),
            ("b.rs", "pub mod chaos { pub fn run() {} }\n"),
            ("c.rs", "fn main() { engine::run(); }\n"),
        ]);
        let main = g.find("c.rs", "main")[0];
        let parents = g.bfs(&[main]);
        let engine_run = g.find("a.rs", "run")[0];
        let chaos_run = g.find("b.rs", "run")[0];
        assert!(parents.contains_key(&engine_run));
        assert!(!parents.contains_key(&chaos_run));
    }

    #[test]
    fn method_calls_link_to_self_receivers_only() {
        let g = graph(&[(
            "m.rs",
            "struct S;\nimpl S { fn compute(&self) {} }\nimpl T { fn compute() {} }\nfn compute() {}\nfn main(s: S) { s.compute(); }\n",
        )]);
        let main = g.find("m.rs", "main")[0];
        let parents = g.bfs(&[main]);
        let reached: Vec<&str> = parents
            .keys()
            .map(|&id| g.nodes[id].item.qual_name.as_str())
            .collect();
        assert!(reached.contains(&"S::compute"), "{reached:?}");
        assert!(!reached.contains(&"T::compute"), "{reached:?}");
        assert!(!reached.contains(&"compute"), "{reached:?}");
    }

    #[test]
    fn unresolved_names_produce_no_edges() {
        let g = graph(&[("x.rs", "fn main() { std::process::abort(); }\n")]);
        let main = g.find("x.rs", "main")[0];
        assert!(g.edges[main].is_empty());
    }
}
