//! # fv-api — the unified request/response protocol and execution engine
//!
//! Every front end of the ForestView reproduction (the `fvtool` CLI,
//! examples, tests, and the future network server) drives sessions through
//! one typed, serializable surface defined here. The paper's ForestView is
//! a single-user GUI whose interactions are mouse events; this crate is
//! what turns the reproduction into a *system*: one source of truth for
//! what the application can be asked, with many expressions (Rust values,
//! wire text, replayable script files).
//!
//! ## Layering
//!
//! ```text
//!   front ends          fvtool · examples · tests · (network, later)
//!        │ Request / Response / ApiError        [`request`], [`response`], [`error`]
//!        ▼
//!   EngineHub           named sessions, script replay        [`hub`]
//!        │ SessionId routing
//!        ▼
//!   Engine              single session, request runs         [`engine`]
//!        │ Command perform + damage resolve, per request
//!        ▼
//!   forestview core     Session · command · renderer · export
//! ```
//!
//! The wire codec ([`codec`]) converts between the typed surface and
//! line-oriented text: `parse_script` / `parse_script_item` /
//! `parse_request` / `parse_response` inbound, their `format_*` inverses
//! outbound. `parse(format(r)) == r` holds for every request — the
//! protocol is replayable by construction. Responses and transport rows
//! are declared once, as [`record`] tables, and [`workload`] generates
//! typed traffic that the same formatter writes.
//!
//! ## Example
//!
//! ```
//! use fv_api::{Engine, Request, Mutation, Query, Response};
//! use forestview::command::Command;
//!
//! let mut engine = Engine::with_scene(800, 600);
//! engine
//!     .execute(&Request::Mutate(Mutation::LoadScenario { n_genes: 60, seed: 1 }))
//!     .unwrap();
//! // A run answers request by request and stops at the first error.
//! let outcome = engine.execute_run(&[
//!     Request::Mutate(Mutation::Command(Command::ClusterAll)),
//!     Request::Mutate(Mutation::Command(Command::Search("stress".into()))),
//!     Request::Query(Query::SessionInfo),
//! ]);
//! assert!(outcome.error.is_none());
//! assert!(matches!(&outcome.responses[0], Response::Applied { damage, .. } if !damage.is_empty()));
//! match &outcome.responses[2] {
//!     Response::SessionInfo(info) => assert_eq!(info.n_datasets, 3),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod codec;
pub mod engine;
pub mod error;
pub mod hub;
pub mod image;
pub mod record;
pub mod request;
pub mod response;
pub mod store;
pub mod trace;
pub mod workload;

pub use cache::{CacheStats, DatasetCache};
pub use codec::{
    format_request, format_response, format_script_item, format_sessions_reply, format_wire_item,
    parse_request, parse_response, parse_script, parse_script_item, parse_sessions_reply,
    parse_wire_item, parse_wire_line, BalanceMode, SessionEntry, WireItem,
};
pub use engine::{Engine, EngineCost, RunOutcome};
pub use error::{ApiError, ErrorCode};
pub use hub::{transcript_block, EngineHub, ScriptOutcome, SessionId};
pub use image::{format_session_image, parse_session_image, DatasetStamp, SessionImage};
pub use request::{Mutation, NormalizeMethod, Query, Request, SelectionExport};
pub use response::Response;
pub use store::{ScanOutcome, SessionStore};
pub use trace::{
    format_trace, format_trace_line, parse_trace, parse_trace_line, TraceEvent, TRACE_HEADER,
    TRACE_VERSION,
};
