//! The untyped tape IR the turbo backend runs: one topologically-ordered
//! instruction list per window, operating on lane-word strips.
//!
//! Lowering ([`WindowProgram::lower`]) flattens a [`LogicDag`] into slot
//! indices. The DAG is already hash-consed (structurally identical
//! literals and ANDs share one node), so the tape needs no further
//! rewriting: lowering only drops the logic no clause output reaches.

use matador_logic::dag::{LogicDag, Node};

/// One instruction of a flattened window tape, operating on lane-word
/// strips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// All lanes 0.
    Const0,
    /// All lanes 1.
    Const1,
    /// Window input bit `b`, one lane per datapoint.
    Input(u16),
    /// Inverted window input bit `b`.
    NotInput(u16),
    /// Lane-wise AND of two earlier slots.
    And(u32, u32),
}

/// One window DAG flattened into a topologically-ordered tape over the
/// nodes reachable from its outputs.
#[derive(Debug, Clone)]
pub(crate) struct WindowProgram {
    pub(crate) ops: Vec<Op>,
    /// Tape slot per clause output.
    pub(crate) outputs: Vec<u32>,
}

impl WindowProgram {
    /// Flattens one window DAG into a tape, dropping every node no
    /// output reaches — the two constants included, so a constant gets a
    /// slot only when some clause output is constant-valued.
    pub(crate) fn lower(dag: &LogicDag) -> Self {
        let reach = dag.reachable();
        let mut slot = vec![u32::MAX; dag.nodes().len()];
        let mut ops = Vec::new();
        for (i, node) in dag.nodes().iter().enumerate() {
            if !reach[i] {
                continue;
            }
            slot[i] = u32::try_from(ops.len()).expect("tape fits u32");
            ops.push(match *node {
                Node::Const0 => Op::Const0,
                Node::Const1 => Op::Const1,
                Node::Input(b) => Op::Input(b as u16),
                Node::NotInput(b) => Op::NotInput(b as u16),
                Node::And(a, b) => Op::And(slot[a.index()], slot[b.index()]),
            });
        }
        let outputs = dag.outputs().iter().map(|o| slot[o.index()]).collect();
        WindowProgram { ops, outputs }
    }

    /// Runs the tape over a strip of `W` lane words per slot:
    /// `inputs[b*W..b*W+W]` carries window bit `b` of up to `W·64`
    /// datapoints, `nodes` receives every slot's strip at the same
    /// stride. Monomorphized per strip width so the per-instruction word
    /// loop unrolls — one op decode advances `W` lane words.
    pub(crate) fn eval_strip<const W: usize>(&self, inputs: &[u64], nodes: &mut [u64]) {
        debug_assert!(nodes.len() >= self.ops.len() * W);
        for (i, op) in self.ops.iter().enumerate() {
            let o = i * W;
            match *op {
                Op::Const0 => nodes[o..o + W].fill(0),
                Op::Const1 => nodes[o..o + W].fill(!0),
                Op::Input(b) => {
                    let s = b as usize * W;
                    nodes[o..o + W].copy_from_slice(&inputs[s..s + W]);
                }
                Op::NotInput(b) => {
                    let s = b as usize * W;
                    for w in 0..W {
                        nodes[o + w] = !inputs[s + w];
                    }
                }
                Op::And(a, b) => {
                    let (a, b) = (a as usize * W, b as usize * W);
                    for w in 0..W {
                        nodes[o + w] = nodes[a + w] & nodes[b + w];
                    }
                }
            }
        }
    }
}
