//! The dataflow specification graph.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use prov_model::{PortType, ProcessorName, Value};

use crate::{DataflowError, Result};

/// An input port of a processor (or of the workflow itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InputPort {
    /// Port name, unique within the processor's inputs.
    pub name: Arc<str>,
    /// Declared type; `declared.depth` is the paper's `dd(X)`.
    pub declared: PortType,
    /// Default value bound when no arc targets this port (the paper notes
    /// ports with no incoming arcs are bound to design-time defaults).
    pub default: Option<Value>,
}

impl InputPort {
    /// Builds a port with no default.
    pub fn new(name: &str, declared: PortType) -> Self {
        InputPort { name: Arc::from(name), declared, default: None }
    }

    /// Builds a port with a design-time default value.
    pub fn with_default(name: &str, declared: PortType, default: Value) -> Self {
        InputPort { name: Arc::from(name), declared, default: Some(default) }
    }
}

/// An output port of a processor (or of the workflow itself).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputPort {
    /// Port name, unique within the processor's outputs.
    pub name: Arc<str>,
    /// Declared type; assumption 1 of §3.1 says the processor binds values
    /// of exactly this type on every elementary invocation.
    pub declared: PortType,
}

impl OutputPort {
    /// Builds an output port.
    pub fn new(name: &str, declared: PortType) -> Self {
        OutputPort { name: Arc::from(name), declared }
    }
}

/// How multiple mismatched input lists are combined into iteration tuples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IterationStrategy {
    /// The generalized cross product of Def. 2 (Taverna's default).
    #[default]
    Cross,
    /// The "zip"/dot product of footnote 7: equal-length lists are iterated
    /// in lockstep, contributing **one** shared index fragment.
    Dot,
}

/// What a processor node *is*.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProcessorKind {
    /// A black-box software component; `behavior` names an implementation
    /// registered with the engine's `BehaviorRegistry`.
    Task {
        /// Registry key of the behaviour.
        behavior: String,
    },
    /// A nested dataflow: the sub-workflow's inputs/outputs correspond
    /// positionally to this processor's input/output ports.
    Nested {
        /// The sub-workflow.
        dataflow: Arc<Dataflow>,
    },
}

/// A processor node `⟨P, I_P, O_P⟩` with ordered ports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProcessorSpec {
    /// Unique name within the dataflow.
    pub name: ProcessorName,
    /// Ordered input ports (the order defines index-projection layout).
    pub inputs: Vec<InputPort>,
    /// Ordered output ports.
    pub outputs: Vec<OutputPort>,
    /// Task or nested dataflow.
    pub kind: ProcessorKind,
    /// Iteration combinator for depth-mismatched inputs.
    pub iteration: IterationStrategy,
}

impl ProcessorSpec {
    /// Position of the named input port.
    pub fn input_position(&self, port: &str) -> Option<usize> {
        self.inputs.iter().position(|p| &*p.name == port)
    }

    /// Position of the named output port.
    pub fn output_position(&self, port: &str) -> Option<usize> {
        self.outputs.iter().position(|p| &*p.name == port)
    }

    /// The named input port.
    pub fn input(&self, port: &str) -> Option<&InputPort> {
        self.inputs.iter().find(|p| &*p.name == port)
    }

    /// The named output port.
    pub fn output(&self, port: &str) -> Option<&OutputPort> {
        self.outputs.iter().find(|p| &*p.name == port)
    }
}

/// The source end of an arc.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArcSrc {
    /// A top-level workflow input port.
    WorkflowInput {
        /// The workflow input port name.
        port: Arc<str>,
    },
    /// An output port of a processor.
    Processor {
        /// Source processor.
        processor: ProcessorName,
        /// Source output port.
        port: Arc<str>,
    },
}

/// The destination end of an arc.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArcDst {
    /// An input port of a processor.
    Processor {
        /// Destination processor.
        processor: ProcessorName,
        /// Destination input port.
        port: Arc<str>,
    },
    /// A top-level workflow output port.
    WorkflowOutput {
        /// The workflow output port name.
        port: Arc<str>,
    },
}

/// A data dependency `src → dst` (an element of `E`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DataflowArc {
    /// Where the data comes from.
    pub src: ArcSrc,
    /// Where the data goes.
    pub dst: ArcDst,
}

impl fmt::Display for DataflowArc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.src {
            ArcSrc::WorkflowInput { port } => write!(f, "in:{port}")?,
            ArcSrc::Processor { processor, port } => write!(f, "{processor}:{port}")?,
        }
        write!(f, " -> ")?;
        match &self.dst {
            ArcDst::Processor { processor, port } => write!(f, "{processor}:{port}"),
            ArcDst::WorkflowOutput { port } => write!(f, "out:{port}"),
        }
    }
}

/// A dataflow specification `D = (N, E)` plus its external interface.
///
/// Construct via [`crate::DataflowBuilder`], which validates on `build()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataflow {
    /// Workflow name; top-level workflow I/O bindings are reported under
    /// this name (the paper writes `workflow:paths_per_gene`).
    pub name: ProcessorName,
    /// Ordered top-level input ports.
    pub inputs: Vec<InputPort>,
    /// Ordered top-level output ports.
    pub outputs: Vec<OutputPort>,
    /// Processor nodes `N`.
    pub processors: Vec<ProcessorSpec>,
    /// Arcs `E`.
    pub arcs: Vec<DataflowArc>,
    /// Name → position in `processors` (rebuilt on deserialize).
    #[serde(skip)]
    index: HashMap<ProcessorName, usize>,
}

impl Dataflow {
    /// Assembles a dataflow (used by the builder; does **not** validate).
    pub(crate) fn assemble(
        name: ProcessorName,
        inputs: Vec<InputPort>,
        outputs: Vec<OutputPort>,
        processors: Vec<ProcessorSpec>,
        arcs: Vec<DataflowArc>,
    ) -> Self {
        let index = processors.iter().enumerate().map(|(i, p)| (p.name.clone(), i)).collect();
        Dataflow { name, inputs, outputs, processors, arcs, index }
    }

    /// Rebuilds the name index (needed after deserialization).
    pub fn reindex(&mut self) {
        self.index = self.processors.iter().enumerate().map(|(i, p)| (p.name.clone(), i)).collect();
    }

    /// Loads a workflow spec from its JSON form: parses it, rebuilds the
    /// name index and [`validate`](crate::validate)s it. Every reader of
    /// stored or user-supplied workflow JSON goes through here.
    pub fn from_json(json: &str) -> Result<Self> {
        let mut df: Dataflow =
            serde_json::from_str(json).map_err(|e| DataflowError::Json(e.to_string()))?;
        df.reindex();
        crate::validate(&df)?;
        Ok(df)
    }

    /// Looks up a processor by name.
    pub fn processor(&self, name: &ProcessorName) -> Option<&ProcessorSpec> {
        if self.index.len() == self.processors.len() {
            self.index.get(name).map(|&i| &self.processors[i])
        } else {
            // Deserialized without reindex; fall back to a scan.
            self.processors.iter().find(|p| &p.name == name)
        }
    }

    /// Looks up a processor, erroring if absent.
    pub fn processor_required(&self, name: &ProcessorName) -> Result<&ProcessorSpec> {
        self.processor(name).ok_or_else(|| DataflowError::UnknownProcessor(name.to_string()))
    }

    /// Number of processor nodes.
    pub fn node_count(&self) -> usize {
        self.processors.len()
    }

    /// The named workflow input port.
    pub fn input(&self, port: &str) -> Option<&InputPort> {
        self.inputs.iter().find(|p| &*p.name == port)
    }

    /// The named workflow output port.
    pub fn output(&self, port: &str) -> Option<&OutputPort> {
        self.outputs.iter().find(|p| &*p.name == port)
    }

    /// All arcs whose destination is the given processor input port.
    pub fn arcs_into(&self, processor: &ProcessorName, port: &str) -> Vec<&DataflowArc> {
        self.arcs
            .iter()
            .filter(|a| {
                matches!(&a.dst, ArcDst::Processor { processor: p, port: q }
                    if p == processor && &**q == port)
            })
            .collect()
    }

    /// The single arc into a processor input port, if any (validation
    /// guarantees at most one).
    pub fn arc_into(&self, processor: &ProcessorName, port: &str) -> Option<&DataflowArc> {
        self.arcs_into(processor, port).into_iter().next()
    }

    /// All arcs whose destination is the given workflow output port.
    pub fn arc_into_output(&self, port: &str) -> Option<&DataflowArc> {
        self.arcs
            .iter()
            .find(|a| matches!(&a.dst, ArcDst::WorkflowOutput { port: q } if &**q == port))
    }

    /// All arcs leaving the given processor output port.
    pub fn arcs_from(&self, processor: &ProcessorName, port: &str) -> Vec<&DataflowArc> {
        self.arcs
            .iter()
            .filter(|a| {
                matches!(&a.src, ArcSrc::Processor { processor: p, port: q }
                    if p == processor && &**q == port)
            })
            .collect()
    }

    /// All arcs leaving the given workflow input port.
    pub fn arcs_from_input(&self, port: &str) -> Vec<&DataflowArc> {
        self.arcs
            .iter()
            .filter(|a| matches!(&a.src, ArcSrc::WorkflowInput { port: q } if &**q == port))
            .collect()
    }

    /// The set of predecessor processors `pred(P)` (processors with an arc
    /// into some input of `P`).
    pub fn predecessors(&self, processor: &ProcessorName) -> Vec<&ProcessorName> {
        let mut out = Vec::new();
        for arc in &self.arcs {
            if let ArcDst::Processor { processor: p, .. } = &arc.dst {
                if p == processor {
                    if let ArcSrc::Processor { processor: src, .. } = &arc.src {
                        if !out.contains(&src) {
                            out.push(src);
                        }
                    }
                }
            }
        }
        out
    }

    /// The set of successor processors of `P`.
    pub fn successors(&self, processor: &ProcessorName) -> Vec<&ProcessorName> {
        let mut out = Vec::new();
        for arc in &self.arcs {
            if let ArcSrc::Processor { processor: p, .. } = &arc.src {
                if p == processor {
                    if let ArcDst::Processor { processor: dst, .. } = &arc.dst {
                        if !out.contains(&dst) {
                            out.push(dst);
                        }
                    }
                }
            }
        }
        out
    }

    /// Total number of ports over all processors plus the workflow I/O
    /// ports — a measure of specification size used in Fig. 8.
    pub fn port_count(&self) -> usize {
        self.inputs.len()
            + self.outputs.len()
            + self.processors.iter().map(|p| p.inputs.len() + p.outputs.len()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataflowBuilder;
    use prov_model::BaseType;

    fn tiny() -> Dataflow {
        let mut b = DataflowBuilder::new("wf");
        b.input("in", PortType::list(BaseType::String));
        b.processor("P")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.processor("Q")
            .in_port("x", PortType::atom(BaseType::String))
            .out_port("y", PortType::atom(BaseType::String));
        b.arc_from_input("in", "P", "x").unwrap();
        b.arc("P", "y", "Q", "x").unwrap();
        b.output("out", PortType::list(BaseType::String));
        b.arc_to_output("Q", "y", "out").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lookup_by_name_uses_index() {
        let d = tiny();
        assert!(d.processor(&"P".into()).is_some());
        assert!(d.processor(&"missing".into()).is_none());
        assert!(d.processor_required(&"missing".into()).is_err());
    }

    #[test]
    fn arc_navigation() {
        let d = tiny();
        assert_eq!(d.arcs_from_input("in").len(), 1);
        assert!(d.arc_into(&"Q".into(), "x").is_some());
        // P:x is fed by a workflow input: still a writer arc.
        assert!(matches!(
            d.arc_into(&"P".into(), "x").map(|a| &a.src),
            Some(ArcSrc::WorkflowInput { .. })
        ));
        assert!(d.arc_into_output("out").is_some());
        assert_eq!(d.arcs_from(&"P".into(), "y").len(), 1);
    }

    #[test]
    fn predecessors_and_successors() {
        let d = tiny();
        assert_eq!(d.predecessors(&"Q".into()), vec![&ProcessorName::from("P")]);
        assert!(d.predecessors(&"P".into()).is_empty());
        assert_eq!(d.successors(&"P".into()), vec![&ProcessorName::from("Q")]);
        assert!(d.successors(&"Q".into()).is_empty());
    }

    #[test]
    fn port_count_counts_everything() {
        let d = tiny();
        // 1 wf input + 1 wf output + 2 procs × (1 in + 1 out)
        assert_eq!(d.port_count(), 6);
    }

    #[test]
    fn serde_round_trip_with_reindex() {
        let d = tiny();
        let json = serde_json::to_string(&d).unwrap();
        let mut back: Dataflow = serde_json::from_str(&json).unwrap();
        // Index is skipped in serde; lookups still work via scan…
        assert!(back.processor(&"P".into()).is_some());
        // …and after reindex they use the map.
        back.reindex();
        assert!(back.processor(&"Q".into()).is_some());
        assert_eq!(back.node_count(), 2);
    }

    #[test]
    fn from_json_loads_and_rejects_garbage() {
        let d = tiny();
        let back = Dataflow::from_json(&serde_json::to_string(&d).unwrap()).unwrap();
        assert_eq!(back.node_count(), 2);
        assert!(back.processor(&"Q".into()).is_some());
        let err = Dataflow::from_json("{not json").unwrap_err();
        assert!(matches!(err, DataflowError::Json(_)), "{err:?}");
    }

    #[test]
    fn arc_display() {
        let d = tiny();
        let rendered: Vec<String> = d.arcs.iter().map(|a| a.to_string()).collect();
        assert!(rendered.contains(&"in:in -> P:x".to_string()));
        assert!(rendered.contains(&"P:y -> Q:x".to_string()));
        assert!(rendered.contains(&"Q:y -> out:out".to_string()));
    }
}
