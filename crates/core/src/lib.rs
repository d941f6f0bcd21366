//! # prov-core
//!
//! Fine-grained, focused lineage querying — the paper's primary
//! contribution.
//!
//! Two interchangeable query processors answer the same [`LineageQuery`]:
//!
//! * [`NaiveLineage`] (**NI**, §2.4): the baseline of Def. 1 — a recursive
//!   traversal of the *provenance graph*, retrieving one trace event per
//!   step. Its cost grows with the length of the provenance path and, per
//!   step, with the trace's granularity.
//! * [`IndexProj`] (**INDEXPROJ**, §3.3, Alg. 2): the paper's algorithm —
//!   a traversal of the (much smaller) *workflow specification graph*,
//!   inverting every processor intensionally via the index projection rule
//!   (Def. 4, justified by Prop. 1), and touching the trace only for the
//!   processors the user actually cares about (`𝒫`).
//!
//! INDEXPROJ factors each query into the two phases the paper times
//! separately: building a [`LineagePlan`] (phase *s1*, pure graph work)
//! and executing its trace lookups (phase *s2*). Plans are reusable across
//! queries and — crucially for multi-run queries (§3.4) — across runs:
//! [`LineagePlan::execute`] takes the run id as a parameter, so a sweep
//! over `n` runs costs one *s1* plus `n × s2`. [`PlanCache`] memoises plans
//! per `(target, index, 𝒫)`.
//!
//! [`service::execute`] is the one query path: the CLI, the daemon and
//! replicas all answer through it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod answer;
mod audit;
mod cost;
mod diff;
mod error;
mod impact;
mod indexproj;
mod naive;
mod parse;
mod plan_cache;
mod query;
pub mod service;
mod verify;

pub use answer::LineageAnswer;
pub use audit::{audit_run, AuditReport, AuditViolation};
pub use cost::{CostCheck, CostEstimate, CostModel, StepCost};
pub use diff::{diff_lineage, diff_traces, LineageDiff, TraceDiff};
pub use error::CoreError;
pub use impact::{ImpactQuery, NaiveImpact};
pub use indexproj::{IndexProj, LineagePlan, PlanStep, StepKind};
pub use naive::NaiveLineage;
pub use parse::{parse_lineage, parse_query, ParseError, ParsedQuery};
pub use plan_cache::{PlanCache, PlanCacheStats};
pub use query::{FocusSet, LineageQuery};
pub use verify::{step_index_id, verify_plan, Explanation, PlanReport, StepClass, VerifiedStep};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
