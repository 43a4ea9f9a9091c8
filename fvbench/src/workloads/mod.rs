//! The four workloads. Names are final: later issues cite
//! `<workload>/<metric>`.

pub mod interactive;
pub mod recluster;
pub mod restore;
pub mod wallstream;

use crate::harness::Workload;
use crate::Error;
use fv_api::{format_response, parse_request, ApiError, EngineHub, SessionId};
use fv_net::Client;
use interactive::Interactive;
use recluster::Recluster;
use restore::Restore;
use wallstream::Wallstream;

/// `(name, why)` of every workload, in report order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (Interactive::NAME, Interactive::WHY),
    (Recluster::NAME, Recluster::WHY),
    (Wallstream::NAME, Wallstream::WHY),
    (Restore::NAME, Restore::WHY),
];

/// The oracle's side of one request line: run it on a local hub and give
/// the canonical reply text the server must produce byte for byte.
pub fn replay_line(hub: &mut EngineHub, id: &SessionId, line: &str) -> Result<String, ApiError> {
    let request = parse_request(line)?;
    let outcome = hub.execute_run_on(id, &[request]);
    match (outcome.responses.first(), outcome.error) {
        (Some(response), _) => Ok(format_response(response)),
        (None, Some((_, e))) => Err(e),
        (None, None) => Err(ApiError::invalid("run produced neither response nor error")),
    }
}

/// Send set-up lines one roundtrip each; any refusal aborts the set-up.
pub fn send_all(client: &mut Client, lines: &[String]) -> Result<(), Error> {
    for line in lines {
        client
            .roundtrip(line)?
            .map_err(|e| format!("server refused set-up line {line:?}: {e}"))?;
    }
    Ok(())
}

/// First line of a (possibly long) text, for mismatch messages.
pub fn head(text: &str) -> &str {
    let line = text.lines().next().unwrap_or("");
    match line.char_indices().nth(120) {
        Some((i, _)) => &line[..i],
        None => line,
    }
}
