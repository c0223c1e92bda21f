//! Graphviz (DOT) export — the introspection surface a collaborative
//! platform's UI would build on (the paper's Figure 1 is exactly such a
//! rendering of a workload DAG).

use crate::artifact::NodeKind;
use crate::workload::{NodeId, WorkloadDag};
use std::fmt::Write as _;

fn kind_style(kind: NodeKind) -> &'static str {
    match kind {
        NodeKind::Dataset => "shape=box",
        NodeKind::Aggregate => "shape=ellipse",
        NodeKind::Model => "shape=diamond",
    }
}

/// Render a workload DAG as Graphviz DOT. Terminal vertices are drawn
/// bold; inactive (pruned) edges dashed.
#[must_use]
pub fn workload_to_dot(dag: &WorkloadDag) -> String {
    let mut out = String::from("digraph workload {\n  rankdir=LR;\n");
    for (i, node) in dag.nodes().iter().enumerate() {
        let label = node
            .name
            .clone()
            .or_else(|| dag.producer(NodeId(i)).map(|e| e.op.name().to_owned()))
            .unwrap_or_else(|| format!("n{i}"));
        let mut attrs = vec![
            kind_style(node.kind).to_owned(),
            format!("label=\"{label}\""),
        ];
        if node.terminal {
            attrs.push("penwidth=2".to_owned());
        }
        if node.computed.is_some() && node.producer.is_some() {
            attrs.push("style=filled, fillcolor=lightgrey".to_owned());
        }
        let _ = writeln!(out, "  n{i} [{}];", attrs.join(", "));
    }
    for edge in dag.edges() {
        for input in &edge.inputs {
            let style = if edge.active { "" } else { " [style=dashed]" };
            let _ = writeln!(out, "  n{} -> n{}{};", input.0, edge.output.0, style);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operation::Operation;
    use crate::value::Value;
    use co_dataframe::Scalar;
    use std::sync::Arc;

    struct Step(&'static str, NodeKind);
    impl Operation for Step {
        fn name(&self) -> &str {
            self.0
        }
        fn params_digest(&self) -> String {
            String::new()
        }
        fn output_kind(&self) -> NodeKind {
            self.1
        }
        fn run(&self, _inputs: &[&Value]) -> crate::error::Result<Value> {
            Ok(Value::Aggregate(Scalar::Float(0.0)))
        }
    }

    fn dag() -> WorkloadDag {
        let mut dag = WorkloadDag::new();
        let s = dag.add_source("train.csv", Value::Aggregate(Scalar::Float(0.0)));
        let a = dag
            .add_op(Arc::new(Step("clean", NodeKind::Dataset)), &[s])
            .unwrap();
        let m = dag
            .add_op(Arc::new(Step("train_model", NodeKind::Model)), &[a])
            .unwrap();
        dag.mark_terminal(m).unwrap();
        dag
    }

    #[test]
    fn dot_contains_nodes_edges_and_styles() {
        let mut d = dag();
        d.prune().unwrap();
        let dot = workload_to_dot(&d);
        assert!(dot.starts_with("digraph workload {"));
        assert!(dot.contains("label=\"train.csv\""));
        assert!(dot.contains("label=\"train_model\""));
        assert!(dot.contains("shape=diamond")); // model styling
        assert!(dot.contains("penwidth=2")); // terminal styling
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn pruned_edges_are_dashed() {
        let mut d = dag();
        // Mark the model computed: its producing edge gets pruned.
        d.set_computed(NodeId(2), Value::Aggregate(Scalar::Float(0.0)))
            .unwrap();
        d.prune().unwrap();
        let dot = workload_to_dot(&d);
        assert!(dot.contains("n1 -> n2 [style=dashed]"));
    }
}
