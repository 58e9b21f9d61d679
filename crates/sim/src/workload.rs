//! Workload description: transactions, work edges and key-value ops.

pub use tpc_common::ops::{decode_ops, encode_ops, Op};
use tpc_common::NodeId;

/// Work flowing along one edge of the transaction tree: `from` sends these
/// ops to `to` for execution. Sending work enrolls `to` as a subordinate
/// of `from`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkEdge {
    /// Sender (tree parent).
    pub from: NodeId,
    /// Receiver (tree child).
    pub to: NodeId,
    /// Operations for the receiver. Any `Write` makes it an updater;
    /// all-`Read` (or empty) leaves it read-only eligible.
    pub ops: Vec<Op>,
}

impl WorkEdge {
    /// An edge that updates one scenario-named key at the receiver.
    pub fn update(from: NodeId, to: NodeId, key: &str, value: &str) -> Self {
        WorkEdge {
            from,
            to,
            ops: vec![Op::put(key, value)],
        }
    }

    /// An edge that only reads at the receiver.
    pub fn read(from: NodeId, to: NodeId, key: &str) -> Self {
        WorkEdge {
            from,
            to,
            ops: vec![Op::get(key)],
        }
    }
}

/// One transaction in a scenario script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxnSpec {
    /// The node that begins the transaction and initiates commit.
    pub root: NodeId,
    /// Ops the root runs against its own resource manager.
    pub root_ops: Vec<Op>,
    /// Work distribution over the tree, in propagation order.
    pub edges: Vec<WorkEdge>,
    /// A second wave of work the root sends halfway through the work
    /// window — lets scenarios interleave lock acquisition across
    /// concurrent transactions (deadlock construction).
    pub late_edges: Vec<WorkEdge>,
    /// `true` → root requests commit; `false` → root requests rollback.
    pub commit: bool,
}

impl TxnSpec {
    /// A transaction rooted at `root` that updates one key locally.
    pub fn local_update(root: NodeId, key: &str, value: &str) -> Self {
        TxnSpec {
            root,
            root_ops: vec![Op::put(key, value)],
            edges: Vec::new(),
            late_edges: Vec::new(),
            commit: true,
        }
    }

    /// Builder: adds an edge.
    pub fn with_edge(mut self, edge: WorkEdge) -> Self {
        self.edges.push(edge);
        self
    }

    /// Builder: requests rollback instead of commit.
    pub fn aborting(mut self) -> Self {
        self.commit = false;
        self
    }

    /// Builder: star topology — the root updates one key at each of
    /// `subs`, and one locally.
    pub fn star_update(root: NodeId, subs: &[NodeId], tag: &str) -> Self {
        let mut spec = TxnSpec {
            root,
            root_ops: vec![Op::put(&format!("{tag}/n{}", root.0), tag)],
            edges: Vec::new(),
            late_edges: Vec::new(),
            commit: true,
        };
        for s in subs {
            spec.edges
                .push(WorkEdge::update(root, *s, &format!("{tag}/n{}", s.0), tag));
        }
        spec
    }

    /// Builder: like [`TxnSpec::star_update`] but the listed `readers`
    /// receive read-only work.
    pub fn star_mixed(root: NodeId, updaters: &[NodeId], readers: &[NodeId], tag: &str) -> Self {
        let mut spec = TxnSpec::star_update(root, updaters, tag);
        for r in readers {
            spec.edges
                .push(WorkEdge::read(root, *r, &format!("{tag}/n{}", r.0)));
        }
        spec
    }

    /// All nodes this transaction touches (root + edge receivers).
    pub fn participants(&self) -> Vec<NodeId> {
        let mut v = vec![self.root];
        for e in &self.edges {
            if !v.contains(&e.to) {
                v.push(e.to);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_builder_shapes() {
        let spec = TxnSpec::star_mixed(NodeId(0), &[NodeId(1)], &[NodeId(2)], "t1");
        assert_eq!(spec.edges.len(), 2);
        assert!(spec.edges[0].ops[0].is_update());
        assert!(!spec.edges[1].ops[0].is_update());
        assert_eq!(spec.participants(), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn participants_dedupe() {
        let spec = TxnSpec::local_update(NodeId(0), "k", "v")
            .with_edge(WorkEdge::update(NodeId(0), NodeId(1), "a", "1"))
            .with_edge(WorkEdge::update(NodeId(1), NodeId(1), "b", "2"));
        assert_eq!(spec.participants(), vec![NodeId(0), NodeId(1)]);
    }
}
