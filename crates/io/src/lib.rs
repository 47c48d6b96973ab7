//! Output utilities: fixed-width result tables (every `repro_*` binary
//! prints through these), CSV/JSON result files, and legacy-ASCII VTK
//! unstructured-grid output for visualization (Fig. 14/16 style dumps).

pub mod adapt_trace;
pub mod checkpoint;
pub mod json;
pub mod obs_report;
pub mod results;
pub mod scaling_report;
pub mod serve_report;
pub mod table;
pub mod vtk;

pub use adapt_trace::{
    adapt_trace_from_json, adapt_trace_to_json, AdaptCycleRecord, AdaptTrace, ADAPT_TRACE_SCHEMA,
};
pub use checkpoint::{checkpoint_from_json, checkpoint_to_json, CHECKPOINT_SCHEMA};
pub use json::Json;
pub use obs_report::report_to_json;
pub use results::{ExperimentRecord, Series, ShapeCheck};
pub use scaling_report::{
    scaling_report_from_json, scaling_report_to_json, ModelConstants, ScalingCase, ScalingPoint,
    ScalingReport, SCALING_REPORT_SCHEMA,
};
pub use serve_report::{
    serve_report_from_json, serve_report_strip_latency, serve_report_to_json, ServeClassStats,
    ServeReport, SERVE_REPORT_SCHEMA,
};
pub use table::{write_csv, Table};
pub use vtk::write_vtk_mesh;
