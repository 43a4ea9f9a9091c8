//! # forestview-repro — reproduction suite façade
//!
//! This crate hosts the runnable examples (`examples/`), the `fvtool`
//! command-line front end (`src/bin/fvtool.rs`), and cross-crate
//! integration tests (`tests/`) for the ForestView reproduction. The
//! library surface simply re-exports the workspace crates so examples and
//! downstream experiments can reach everything through one dependency.
//!
//! ## How the system is driven
//!
//! Since the `fv-api` redesign, every front end speaks one typed,
//! serializable protocol instead of calling session methods directly:
//!
//! ```text
//!   fvtool CLI ─┐
//!   examples  ──┼── Request/Response ──► fv_api::EngineHub ──► fv_api::Engine ──► forestview::Session
//!   scripts   ──┘        (wire codec: parse_script / format_response)
//! ```
//!
//! - [`api`] (`fv-api`) — the [`api::Request`] / [`api::Response`] enums,
//!   typed [`api::ApiError`] codes, the single-session [`api::Engine`]
//!   (one request, or a request run stopping at its first error), the
//!   multi-session [`api::EngineHub`], and the line-oriented wire codec
//!   that makes request streams replayable from text files (`fvtool
//!   script`).
//!   See `crates/api/README.md` for the protocol grammar.
//! - [`forestview`] — the application core the engine executes against:
//!   session state, interaction commands, panes, synchronization,
//!   rendering.
//! - The remaining crates are the paper's subsystems: data substrate
//!   (`fv-expr`, `fv-formats`), analysis (`fv-cluster`, `fv-spell`,
//!   `fv-golem`, `fv-ontology`), visualization (`fv-render`,
//!   `fv-wall`), transport (`fv-net`, re-exported as [`net`]), and
//!   synthetic data/workloads (`fv-synth`).

#![forbid(unsafe_code)]

pub use forestview;
pub use fv_api as api;
pub use fv_cluster as cluster;
pub use fv_expr as expr;
pub use fv_formats as formats;
pub use fv_golem as golem;
pub use fv_net as net;
pub use fv_ontology as ontology;
pub use fv_render as render;
pub use fv_spell as spell;
pub use fv_synth as synth;
pub use fv_wall as wall;

/// Directory examples write image/text artifacts into (created on demand).
pub fn artifact_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from("artifacts");
    std::fs::create_dir_all(&dir).expect("create artifacts directory");
    dir
}

#[cfg(test)]
mod tests {
    #[test]
    fn artifact_dir_exists_after_call() {
        let d = super::artifact_dir();
        assert!(d.is_dir());
    }

    #[test]
    fn api_reachable_through_facade() {
        let req = crate::api::parse_request("cluster_all").unwrap();
        assert!(req.is_mutation());
    }
}
