//! `fvtool` — command-line front end to the ForestView reproduction.
//!
//! A thin client of `fv-api`: every subcommand builds typed
//! [`fv_api::Request`]s and executes them through a [`Backend`] — an
//! in-process [`fv_api::Engine`] by default, or a live `fv-net` server
//! when `--remote <addr>` is given. Local and remote runs produce
//! byte-identical stdout and exit codes: the remote backend decodes wire
//! responses back into typed values, so the same formatting code runs
//! either way. No session logic lives here — the CLI is one of several
//! interchangeable expressions of the same protocol.
//!
//! ```text
//! fvtool render  <out.ppm> <w> <h> <file.pcl>...     render a session frame
//! fvtool cluster <in.pcl> <out_prefix>               write .cdt/.gtr/.atr
//! fvtool impute  <in.pcl> <out.pcl> [k]              KNN-impute missing cells
//! fvtool search  <query> <file.pcl>...               cross-dataset gene search
//! fvtool spell   <gene,gene,...> <file.pcl>...       SPELL query over files
//! fvtool demo    <out_dir>                           write a synthetic demo workspace
//! fvtool script  <file.fvs>                          replay a request script
//! fvtool serve   [--addr a:p] [--shards n | --shard-procs n] [--queue-limit n] [--state-dir d] [--balance auto|off] [--balance-interval-ms n]   run the TCP server
//! fvtool ping                                        probe a server (needs --remote)
//! fvtool watch   <session> <TX>x<TY> [--frames n] [--idle-ms n] [--dally-ms n] [--verify-script f]   subscribe to the tile stream (needs --remote)
//! fvtool stats                                       server metrics + cache gauges (needs --remote)
//! fvtool sessions                                    list live sessions across all shards (needs --remote)
//! fvtool migrate <session> <shard>                   move a session across shards (needs --remote)
//! fvtool balance [auto|off]                          rebalancer status / flip its mode (needs --remote)
//! fvtool shutdown                                    stop a server (needs --remote)
//! fvtool workload <kind> [--clients n] [--bursts n] [--genes n] [--seed n]   print generated workload scripts
//! fvtool trace record <out.trace> --listen <a:p> --upstream <a:p>   tap one connection, write its wire trace
//! fvtool trace replay <file.trace> [--remote a:p]    replay a trace, byte-compare replies
//! ```
//!
//! `--remote <addr>` may appear anywhere in the argument list. File paths
//! inside requests (loads, exports) resolve on the serving process's
//! filesystem.
//!
//! Exit codes: 0 success, 2 usage/parse errors, otherwise the stable
//! per-class codes of [`fv_api::ErrorCode::exit_code`] — and 141 (what a
//! shell reports for a process SIGPIPE ended) when stdout was closed
//! under the command (`fvtool script f.fvs | head -3`), which then ends
//! quietly: nothing more is printed, nothing goes to stderr.

use forestview::command::Command;
use fv_api::{ApiError, Engine, EngineHub, Mutation, Query, Request, Response, SelectionExport};
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the first failed write to stdout (a closed pipe); from then on
/// nothing more is printed, and the command exits [`CLOSED_STDOUT`].
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// The exit code of a command whose stdout was closed under it.
const CLOSED_STDOUT: u8 = 141;

/// The one writer of everything fvtool prints to stdout.
fn emit(text: std::fmt::Arguments<'_>) {
    if !STDOUT_CLOSED.load(Ordering::Relaxed) && std::io::stdout().write_fmt(text).is_err() {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

fn flush_stdout() {
    if !STDOUT_CLOSED.load(Ordering::Relaxed) && std::io::stdout().flush().is_err() {
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  fvtool render  <out.ppm> <w> <h> <file.pcl>...\n  \
         fvtool cluster <in.pcl> <out_prefix>\n  \
         fvtool impute  <in.pcl> <out.pcl> [k]\n  \
         fvtool search  <query> <file.pcl>...\n  \
         fvtool spell   <gene,gene,...> <file.pcl>...\n  \
         fvtool demo    <out_dir>\n  \
         fvtool script  <file.fvs>\n  \
         fvtool serve   [--addr <host:port>] [--shards <n> | --shard-procs <n>] [--queue-limit <n>]\n           \
         [--state-dir <dir>] [--balance auto|off] [--balance-interval-ms <n>]\n  \
         fvtool ping    --remote <host:port>\n  \
         fvtool watch   <session> <TX>x<TY> [--frames <n>] [--idle-ms <n>] [--dally-ms <n>]\n           \
         [--verify-script <file.fvs>] --remote <host:port>\n  \
         fvtool stats   --remote <host:port>\n  \
         fvtool sessions --remote <host:port>\n  \
         fvtool migrate <session> <shard> --remote <host:port>\n  \
         fvtool balance [auto|off] --remote <host:port>\n  \
         fvtool shutdown --remote <host:port>\n  \
         fvtool workload <kind> [--clients <n>] [--bursts <n>] [--genes <n>] [--seed <n>]\n  \
         fvtool trace record <out.trace> --listen <host:port> --upstream <host:port>\n  \
         fvtool trace replay <file.trace> [--remote <host:port>]\n\
         options:\n  --remote <host:port>   run the subcommand against a live fvtool server"
    );
    ExitCode::from(2)
}

/// Where requests execute: an in-process engine or a remote server. Both
/// speak the same protocol, so every subcommand is backend-agnostic.
enum Backend {
    Local(Box<Engine>),
    Remote(fv_net::Client),
}

impl Backend {
    fn execute(&mut self, request: &Request) -> Result<Response, ApiError> {
        match self {
            Backend::Local(engine) => engine.execute(request),
            Backend::Remote(client) => client.execute(request),
        }
    }

    /// A path as the executing process should see it. Remote servers
    /// resolve relative paths against *their* working directory, so
    /// remote requests carry absolute paths — stdout still prints the
    /// user's original strings.
    fn path(&self, p: &str) -> String {
        match self {
            Backend::Local(_) => p.to_string(),
            Backend::Remote(_) => {
                let path = std::path::Path::new(p);
                if path.is_absolute() {
                    p.to_string()
                } else {
                    std::env::current_dir()
                        .map(|d| d.join(path).to_string_lossy().into_owned())
                        .unwrap_or_else(|_| p.to_string())
                }
            }
        }
    }
}

/// Load every file into the backend's session.
fn load_files(backend: &mut Backend, files: &[String]) -> Result<(), ApiError> {
    for f in files {
        let path = backend.path(f);
        backend.execute(&Request::Mutate(Mutation::LoadDataset { path }))?;
    }
    Ok(())
}

/// Run a query whose response must be `Text`.
fn text_of(backend: &mut Backend, what: SelectionExport) -> Result<String, ApiError> {
    match backend.execute(&Request::Query(Query::ExportSelection { what }))? {
        Response::Text { text } => Ok(text),
        other => unexpected("text export", &other),
    }
}

fn unexpected<T>(wanted: &str, got: &Response) -> Result<T, ApiError> {
    Err(ApiError::new(
        fv_api::ErrorCode::Internal,
        format!("engine returned a non-{wanted} response: {got:?}"),
    ))
}

fn cmd_render(backend: &mut Backend, args: &[String]) -> Result<(), ApiError> {
    let [out, w, h, files @ ..] = args else {
        return Err(ApiError::invalid(
            "render needs <out.ppm> <w> <h> <files...>",
        ));
    };
    let (w, h): (usize, usize) = (
        w.parse().map_err(|_| ApiError::parse("bad width"))?,
        h.parse().map_err(|_| ApiError::parse("bad height"))?,
    );
    if files.is_empty() {
        return Err(ApiError::invalid("no input files"));
    }
    load_files(backend, files)?;
    backend.execute(&Request::Mutate(Mutation::Command(Command::ClusterAll)))?;
    let frame = backend.execute(&Request::Query(Query::Render {
        width: w,
        height: h,
        path: Some(backend.path(out)),
    }))?;
    let Response::Frame { panes, .. } = frame else {
        return unexpected("frame", &frame);
    };
    outln!("wrote {out} ({w}x{h}, {panes} panes)");
    match backend.execute(&Request::Query(Query::SessionInfo))? {
        Response::SessionInfo(info) => out!("{}", info.summary),
        other => return unexpected("session-info", &other),
    }
    Ok(())
}

fn cmd_cluster(backend: &mut Backend, args: &[String]) -> Result<(), ApiError> {
    let [input, prefix] = args else {
        return Err(ApiError::invalid("cluster needs <in.pcl> <out_prefix>"));
    };
    load_files(backend, std::slice::from_ref(input))?;
    backend.execute(&Request::Mutate(Mutation::Command(Command::ClusterAll)))?;
    backend.execute(&Request::Mutate(Mutation::ClusterArrays { dataset: 0 }))?;
    backend.execute(&Request::Query(Query::ExportCdt {
        dataset: 0,
        prefix: Some(backend.path(prefix)),
    }))?;
    outln!("wrote {prefix}.cdt / .gtr / .atr");
    Ok(())
}

fn cmd_impute(backend: &mut Backend, args: &[String]) -> Result<(), ApiError> {
    let (input, output, k) = match args {
        [i, o] => (i, o, 10usize),
        [i, o, k] => (i, o, k.parse().map_err(|_| ApiError::parse("bad k"))?),
        _ => return Err(ApiError::invalid("impute needs <in.pcl> <out.pcl> [k]")),
    };
    load_files(backend, std::slice::from_ref(input))?;
    let imputed = backend.execute(&Request::Mutate(Mutation::Impute { dataset: 0, k }))?;
    let Response::Imputed {
        filled,
        missing_before,
    } = imputed
    else {
        return unexpected("imputation", &imputed);
    };
    backend.execute(&Request::Query(Query::ExportPcl {
        dataset: 0,
        path: backend.path(output),
    }))?;
    outln!("filled {filled}/{missing_before} missing cells with k={k}; wrote {output}");
    Ok(())
}

fn cmd_search(backend: &mut Backend, args: &[String]) -> Result<(), ApiError> {
    let [query, files @ ..] = args else {
        return Err(ApiError::invalid("search needs <query> <files...>"));
    };
    if files.is_empty() {
        return Err(ApiError::invalid("no input files"));
    }
    load_files(backend, files)?;
    let applied = backend.execute(&Request::Mutate(Mutation::Command(Command::Search(
        query.clone(),
    ))))?;
    let Response::Applied { selection_len, .. } = applied else {
        return unexpected("applied", &applied);
    };
    let n = selection_len.unwrap_or(0);
    outln!(
        "{n} gene(s) match {query:?} across {} dataset(s):",
        files.len()
    );
    out!("{}", text_of(backend, SelectionExport::GeneList)?);
    out!("{}", text_of(backend, SelectionExport::Coverage)?);
    Ok(())
}

fn cmd_spell(backend: &mut Backend, args: &[String]) -> Result<(), ApiError> {
    let [genes, files @ ..] = args else {
        return Err(ApiError::invalid("spell needs <gene,gene,...> <files...>"));
    };
    if files.is_empty() {
        return Err(ApiError::invalid("no input files"));
    }
    load_files(backend, files)?;
    let query: Vec<String> = genes.split(',').map(|s| s.trim().to_string()).collect();
    let ranking = backend.execute(&Request::Query(Query::Spell {
        genes: query,
        top_n: 20,
    }))?;
    let Response::SpellRanking {
        datasets,
        genes,
        query_missing,
    } = ranking
    else {
        return unexpected("spell", &ranking);
    };
    if !query_missing.is_empty() {
        eprintln!("warning: not found: {query_missing:?}");
    }
    outln!("datasets by relevance:");
    for d in &datasets {
        outln!("  {:<28} weight {:.3}", d.name, d.weight);
    }
    outln!("top genes:");
    for g in &genes {
        outln!(
            "  {:<12} score {:.3} ({} datasets)",
            g.gene,
            g.score,
            g.n_datasets
        );
    }
    Ok(())
}

fn cmd_demo(backend: &mut Backend, args: &[String]) -> Result<(), ApiError> {
    let [dir] = args else {
        return Err(ApiError::invalid("demo needs <out_dir>"));
    };
    std::fs::create_dir_all(dir).map_err(|e| ApiError::io(format!("{dir}: {e}")))?;
    let loaded = backend.execute(&Request::Mutate(Mutation::LoadScenario {
        n_genes: 800,
        seed: 2007,
    }))?;
    let Response::ScenarioLoaded { names, .. } = loaded else {
        return unexpected("scenario", &loaded);
    };
    for (d, name) in names.iter().enumerate() {
        let path = format!("{dir}/{name}.pcl");
        let exported = backend.execute(&Request::Query(Query::ExportPcl {
            dataset: d,
            path: backend.path(&path),
        }))?;
        let Response::PclExported {
            genes, conditions, ..
        } = exported
        else {
            return unexpected("pcl export", &exported);
        };
        outln!("wrote {path} ({genes} genes x {conditions} conditions)");
    }
    outln!("try: fvtool render {dir}/session.ppm 1600 1200 {dir}/*.pcl");
    Ok(())
}

fn cmd_script(remote: Option<&str>, args: &[String]) -> Result<(), ApiError> {
    let [path] = args else {
        return Err(ApiError::invalid("script needs <file.fvs>"));
    };
    let text = std::fs::read_to_string(path).map_err(|e| ApiError::io(format!("{path}: {e}")))?;
    match remote {
        None => {
            let mut hub = EngineHub::new();
            // Stream entries as they execute so the transcript of the
            // completed prefix survives a mid-script error (mutations are
            // not rolled back).
            hub.run_script_streaming(&text, |entry| out!("{}", entry.render()))?;
        }
        Some(addr) => {
            // Same streaming contract, same transcript bytes — over TCP.
            fv_net::run_script_remote(addr, &text, |block| out!("{block}"))?;
        }
    }
    Ok(())
}

/// The value of option `flag`: the next argument, parsed. A missing
/// value is `E_INVALID` and one that does not parse `E_PARSE` — the
/// split the exit codes of every option-taking subcommand rest on.
fn opt<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, ApiError> {
    let value = it
        .next()
        .ok_or_else(|| ApiError::invalid(format!("{flag} needs a value")))?;
    value
        .parse()
        .map_err(|_| ApiError::parse(format!("bad {flag} value {value:?}")))
}

fn cmd_serve(args: &[String]) -> Result<(), ApiError> {
    let mut addr = "127.0.0.1:7007".to_string();
    let mut config = fv_net::ServerConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = opt(&mut it, arg)?,
            "--shards" => config.shards = opt(&mut it, arg)?,
            "--shard-procs" => {
                config.shards = opt(&mut it, arg)?;
                // Each shard becomes a child worker process: re-exec this
                // very binary as `fvtool shard-worker` so there is no
                // second artifact to deploy.
                let me = std::env::current_exe()
                    .map_err(|e| ApiError::io(format!("cannot locate own executable: {e}")))?;
                config.backend = fv_net::ShardBackendConfig::Procs {
                    worker_cmd: vec![me.to_string_lossy().into_owned(), "shard-worker".into()],
                };
            }
            "--queue-limit" => {
                config.queue_limit = opt(&mut it, arg)?;
                if config.queue_limit == 0 {
                    return Err(ApiError::invalid("--queue-limit must be at least 1"));
                }
            }
            "--state-dir" => config.state_dir = Some(opt(&mut it, arg)?),
            "--balance" => config.balance = opt(&mut it, arg)?,
            "--balance-interval-ms" => {
                let ms: u64 = opt(&mut it, arg)?;
                config.balance_interval = std::time::Duration::from_millis(ms.max(1));
            }
            other => {
                return Err(ApiError::invalid(format!("unknown serve option {other:?}")));
            }
        }
    }
    let durable = config.state_dir.is_some();
    let server = fv_net::Server::bind(&addr, config)
        .map_err(|e| ApiError::io(format!("bind {addr}: {e}")))?;
    outln!(
        "fvtool: serving on {} with {} shard(s)",
        server.local_addr(),
        server.n_shards()
    );
    if durable {
        outln!(
            "fvtool: recovered {} session(s) from the state directory",
            server.recovered()
        );
    }
    // Make the address visible immediately even when stdout is a pipe
    // (CI waits for it / parses the ephemeral port).
    flush_stdout();
    server.join();
    outln!("fvtool: server stopped");
    Ok(())
}

/// Subscribe to a session's tile stream and reassemble the wall
/// locally, printing one summary line per frame burst (all tiles that
/// share a seq). Stops after `--frames` distinct seqs or once the
/// stream goes idle for `--idle-ms`; `--dally-ms` sleeps between reads
/// to simulate a slow viewer (exercising the server's drop-to-keyframe
/// path); `--verify-script` replays a script locally and byte-compares
/// the reassembled wall against the local render.
fn cmd_watch(remote: Option<&str>, args: &[String]) -> Result<(), ApiError> {
    let addr = remote.ok_or_else(|| ApiError::invalid("watch needs --remote <addr>"))?;
    let [session, grid, opts @ ..] = args else {
        return Err(ApiError::invalid(
            "watch needs <session> <TX>x<TY> [--frames <n>] [--idle-ms <n>] \
             [--dally-ms <n>] [--verify-script <file.fvs>]",
        ));
    };
    let (tiles_x, tiles_y) = grid
        .split_once('x')
        .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
        .filter(|&(a, b)| a > 0 && b > 0)
        .ok_or_else(|| ApiError::parse(format!("tile grid is <TX>x<TY>, got {grid:?}")))?;
    let mut max_seqs: Option<u64> = None;
    let mut idle_ms: u64 = 2000;
    let mut dally_ms: u64 = 0;
    let mut verify: Option<String> = None;
    let mut it = opts.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--frames" => max_seqs = Some(opt(&mut it, arg)?),
            "--idle-ms" => idle_ms = opt(&mut it, arg)?,
            "--dally-ms" => dally_ms = opt(&mut it, arg)?,
            "--verify-script" => verify = Some(opt(&mut it, arg)?),
            other => {
                return Err(ApiError::invalid(format!("unknown watch option {other:?}")));
            }
        }
    }

    let mut watcher = fv_net::Watcher::connect(addr, session, tiles_x, tiles_y)?;
    watcher
        .set_read_timeout(Some(std::time::Duration::from_millis(idle_ms.max(1))))
        .map_err(|e| ApiError::io(e.to_string()))?;
    let (mut seqs, mut total_bytes) = (0u64, 0u64);
    let mut completed = false;
    // (seq, kind, tiles, bytes) of the burst being accumulated.
    let mut burst: Option<(u64, &'static str, usize, u64)> = None;
    let flush_burst = |burst: &mut Option<(u64, &'static str, usize, u64)>| {
        if let Some((seq, kind, tiles, bytes)) = burst.take() {
            outln!("frame seq={seq} kind={kind} tiles={tiles} bytes={bytes}");
        }
    };
    while let Some(frame) = watcher.next_frame()? {
        let frame_bytes = frame.encoded_len() as u64;
        total_bytes += frame_bytes;
        match &mut burst {
            Some((seq, _, tiles, bytes)) if *seq == frame.seq => {
                *tiles += 1;
                *bytes += frame_bytes;
            }
            _ => {
                flush_burst(&mut burst);
                // Ack the completed burst so the server can tell a live
                // (if slow) viewer from a comatose one.
                if frame.seq > 0 {
                    watcher.ack(frame.seq - 1);
                }
                seqs += 1;
                burst = Some((frame.seq, frame.kind.as_str(), 1, frame_bytes));
            }
        }
        if max_seqs.is_some_and(|m| seqs >= m) {
            // The burst for the final seq may still be mid-flight; keep
            // reading frames of that seq only (next_frame applies them),
            // stopping at the first frame of a newer seq or on idle.
            let last = frame.seq;
            while let Some(extra) = watcher.next_frame()? {
                if extra.seq != last {
                    break;
                }
                let b = extra.encoded_len() as u64;
                total_bytes += b;
                if let Some((_, _, tiles, bytes)) = &mut burst {
                    *tiles += 1;
                    *bytes += b;
                }
            }
            completed = true;
            break;
        }
        if dally_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(dally_ms));
        }
    }
    flush_burst(&mut burst);
    // The loop exits three ways: the frame budget was met (`completed`),
    // the stream idled out past --idle-ms (benign), or the server hung
    // up mid-stream — only the last is a failure, and it must exit with
    // the typed E_IO code, not masquerade as a quiet stream.
    if watcher.hung_up() && !completed {
        return Err(ApiError::io(format!(
            "server closed the connection mid-stream (after {seqs} frame burst(s))"
        )));
    }
    if let Some(last) = watcher.last_seq() {
        watcher.ack(last);
    }
    let (wall_w, wall_h) = (watcher.grid().wall_width(), watcher.grid().wall_height());
    outln!(
        "watched session={session} seqs={seqs} frames={} keyframes={} bytes={total_bytes} wall={wall_w}x{wall_h}",
        watcher.frames(),
        watcher.keyframes(),
    );

    if let Some(path) = verify {
        let text =
            std::fs::read_to_string(&path).map_err(|e| ApiError::io(format!("{path}: {e}")))?;
        // Replay the script on a wall-sized hub; the watched session must
        // end up byte-identical to the reassembled stream.
        let mut hub = EngineHub::with_scene(wall_w, wall_h);
        hub.run_script(&text)?;
        let sid = fv_api::SessionId::new(session.clone())?;
        let engine = hub.get(&sid).ok_or_else(|| {
            ApiError::invalid(format!("verify script does not create session {session:?}"))
        })?;
        let expected = forestview::renderer::render_desktop(engine.session(), wall_w, wall_h);
        if expected.bytes() == watcher.framebuffer().bytes() {
            outln!(
                "verify ok: wall matches local render ({wall_w}x{wall_h}, {} bytes)",
                expected.bytes().len()
            );
        } else {
            return Err(ApiError::new(
                fv_api::ErrorCode::Internal,
                format!("verify FAILED: reassembled wall differs from local render of {path}"),
            ));
        }
    }
    Ok(())
}

/// Print the generated per-client scripts of one workload spec, as
/// replayable `fvtool script` text.
fn cmd_workload(args: &[String]) -> Result<(), ApiError> {
    let [kind, opts @ ..] = args else {
        let names: Vec<&str> = fv_api::workload::WORKLOAD_KINDS
            .iter()
            .map(|k| k.name())
            .collect();
        return Err(ApiError::invalid(format!(
            "workload needs <kind> (one of {})",
            names.join(", ")
        )));
    };
    let kind = fv_api::workload::WorkloadKind::from_name(kind).ok_or_else(|| {
        let names: Vec<&str> = fv_api::workload::WORKLOAD_KINDS
            .iter()
            .map(|k| k.name())
            .collect();
        ApiError::invalid(format!(
            "unknown workload kind {kind:?} (one of {})",
            names.join(", ")
        ))
    })?;
    let mut spec = fv_api::workload::WorkloadSpec::small(kind, 2, 1);
    let mut it = opts.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--clients" => spec.clients = opt(&mut it, arg)?,
            "--bursts" => spec.bursts = opt(&mut it, arg)?,
            "--genes" => spec.n_genes = opt(&mut it, arg)?,
            "--seed" => spec.seed = opt(&mut it, arg)?,
            other => {
                return Err(ApiError::invalid(format!(
                    "unknown workload option {other:?}"
                )));
            }
        }
    }
    for script in fv_api::workload::generate(&spec) {
        outln!(
            "# client session={} kind={} bursts={}",
            script.session,
            script.kind.name(),
            script.bursts.len()
        );
        out!("{}", script.script_text());
    }
    Ok(())
}

/// `trace record` / `trace replay` dispatcher.
fn cmd_trace(remote: Option<&str>, args: &[String]) -> Result<(), ApiError> {
    match args {
        [sub, rest @ ..] if sub == "record" => cmd_trace_record(remote, rest),
        [sub, rest @ ..] if sub == "replay" => cmd_trace_replay(remote, rest),
        _ => Err(ApiError::invalid(
            "trace needs a subcommand: record <out.trace> --listen <addr> --upstream <addr> \
             | replay <file.trace> [--remote <addr>]",
        )),
    }
}

/// Interpose a recording tap between one client connection and a live
/// server; when both sides hang up, write the captured exchange as a
/// versioned wire trace.
fn cmd_trace_record(remote: Option<&str>, args: &[String]) -> Result<(), ApiError> {
    if remote.is_some() {
        return Err(ApiError::invalid(
            "trace record takes --upstream, not --remote",
        ));
    }
    let [out, opts @ ..] = args else {
        return Err(ApiError::invalid(
            "trace record needs <out.trace> --listen <host:port> --upstream <host:port>",
        ));
    };
    let (mut listen, mut upstream) = (None, None);
    let mut it = opts.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--listen" => listen = Some(opt::<String>(&mut it, arg)?),
            "--upstream" => upstream = Some(opt::<String>(&mut it, arg)?),
            other => {
                return Err(ApiError::invalid(format!(
                    "unknown trace record option {other:?}"
                )));
            }
        }
    }
    let listen = listen.ok_or_else(|| ApiError::invalid("trace record needs --listen"))?;
    let upstream = upstream.ok_or_else(|| ApiError::invalid("trace record needs --upstream"))?;
    let listener = std::net::TcpListener::bind(&listen)
        .map_err(|e| ApiError::io(format!("bind {listen}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| ApiError::io(e.to_string()))?;
    outln!("fvtool: tapping on {bound} -> {upstream}");
    // tests/cli.rs parses the ephemeral port from that line; make it
    // visible even through a pipe before we block in accept().
    flush_stdout();
    let events = fv_net::record_session(listener, &upstream)?;
    let (sends, recvs) = (
        events.iter().filter(|e| e.is_send()).count(),
        events.iter().filter(|e| !e.is_send()).count(),
    );
    std::fs::write(out, fv_api::format_trace(&events))
        .map_err(|e| ApiError::io(format!("{out}: {e}")))?;
    outln!("wrote {out} ({sends} sends, {recvs} replies)");
    Ok(())
}

/// Replay a recorded trace — against a live server (`--remote`) or a
/// private default-shaped server of its own — preserving the recorded
/// pipelining, and byte-compare the replies against the recording. The
/// received transcript goes to stdout so two replays can be diffed
/// directly.
fn cmd_trace_replay(remote: Option<&str>, args: &[String]) -> Result<(), ApiError> {
    let [path] = args else {
        return Err(ApiError::invalid(
            "trace replay needs <file.trace> [--remote <host:port>]",
        ));
    };
    let text = std::fs::read_to_string(path).map_err(|e| ApiError::io(format!("{path}: {e}")))?;
    let events = fv_api::parse_trace(&text)?;
    let outcome = match remote {
        Some(addr) => fv_net::replay_remote(addr, &events)?,
        None => fv_net::replay_local(&events)?,
    };
    out!("{}", outcome.received);
    if let Some((line, expected, got)) = outcome.first_divergence() {
        eprintln!(
            "fvtool: replay diverged at transcript line {line}:\n  recorded: {expected}\n  replayed: {got}"
        );
        return Err(ApiError::invalid(format!(
            "replay of {path} diverged from the recording at transcript line {line}"
        )));
    }
    eprintln!(
        "replay ok: {} sends, {} replies, transcript matches recording",
        outcome.sends,
        outcome.replies.len()
    );
    Ok(())
}

/// Why an invocation failed: an unrecognized command line (print usage)
/// or a protocol error from executing a recognized one.
enum Failure {
    Usage,
    Api(ApiError),
}

impl From<ApiError> for Failure {
    fn from(e: ApiError) -> Self {
        Failure::Api(e)
    }
}

fn run(cmd: &str, rest: &[String], remote: Option<&str>) -> Result<(), Failure> {
    // `script` streams through a hub/server; everything else runs typed
    // requests through a backend.
    match cmd {
        "script" => return Ok(cmd_script(remote, rest)?),
        "serve" => {
            if remote.is_some() {
                return Err(ApiError::invalid("serve runs a server; drop --remote").into());
            }
            return Ok(cmd_serve(rest)?);
        }
        "ping" => {
            let addr = remote.ok_or_else(|| ApiError::invalid("ping needs --remote <addr>"))?;
            fv_net::Client::connect(addr)?.ping()?;
            outln!("pong");
            return Ok(());
        }
        "watch" => return Ok(cmd_watch(remote, rest)?),
        "shutdown" => {
            let addr = remote.ok_or_else(|| ApiError::invalid("shutdown needs --remote <addr>"))?;
            fv_net::Client::connect(addr)?.shutdown_server()?;
            outln!("server shutting down");
            return Ok(());
        }
        "stats" => {
            let addr = remote.ok_or_else(|| ApiError::invalid("stats needs --remote <addr>"))?;
            // Round-trip through the typed snapshot (decode → re-format)
            // so the printed text is the validated canonical form.
            let stats = fv_net::Client::connect(addr)?.stats()?;
            outln!("{}", fv_net::metrics::format_stats(&stats));
            return Ok(());
        }
        "sessions" => {
            let addr = remote.ok_or_else(|| ApiError::invalid("sessions needs --remote <addr>"))?;
            if !rest.is_empty() {
                return Err(ApiError::invalid("sessions takes no arguments").into());
            }
            let sessions = fv_net::Client::connect(addr)?.list_sessions()?;
            outln!("{}", fv_api::format_sessions_reply(&sessions));
            return Ok(());
        }
        "migrate" => {
            let addr = remote.ok_or_else(|| ApiError::invalid("migrate needs --remote <addr>"))?;
            let [session, shard] = rest else {
                return Err(ApiError::invalid("migrate needs <session> <shard>").into());
            };
            let shard: usize = shard
                .parse()
                .map_err(|_| ApiError::parse("bad shard index"))?;
            fv_net::Client::connect(addr)?.migrate(session, shard)?;
            outln!("migrated {session} shard={shard}");
            return Ok(());
        }
        "balance" => {
            let addr = remote.ok_or_else(|| ApiError::invalid("balance needs --remote <addr>"))?;
            match rest {
                [] => {
                    // Round-trip through the typed status (decode →
                    // re-format) so the printed text is the validated
                    // canonical form, exactly like `stats`.
                    let status = fv_net::Client::connect(addr)?.balance_status()?;
                    outln!("{}", fv_net::balance::format_balance(&status));
                }
                [mode] => {
                    let mode: fv_api::BalanceMode = mode.parse()?;
                    fv_net::Client::connect(addr)?.set_balance(mode)?;
                    outln!("balance mode={mode}");
                }
                _ => {
                    return Err(ApiError::invalid("balance takes at most one arg: auto|off").into())
                }
            }
            return Ok(());
        }
        "shard-worker" => {
            // Internal: the child half of `serve --shard-procs`. Speaks
            // the shard control protocol with the parent server over its
            // stdin and stdout; not for interactive use, so it is absent
            // from usage().
            if remote.is_some() {
                return Err(ApiError::invalid("shard-worker is internal; drop --remote").into());
            }
            return fv_net::worker_main(rest)
                .map_err(|msg| ApiError::io(format!("shard-worker: {msg}")).into());
        }
        "workload" => return Ok(cmd_workload(rest)?),
        "trace" => return Ok(cmd_trace(remote, rest)?),
        "render" | "cluster" | "impute" | "search" | "spell" | "demo" => {}
        _ => return Err(Failure::Usage),
    }
    let mut backend = match remote {
        Some(addr) => {
            // Local one-shot invocations start from a fresh engine, so
            // remote ones get a private scratch session (closed below) —
            // that is what keeps stdout identical against a long-lived,
            // already-populated server.
            let mut client = fv_net::Client::connect(addr)?;
            client.use_session(&scratch_session_name())?;
            Backend::Remote(client)
        }
        None => Backend::Local(Box::new(Engine::new())),
    };
    let result = match cmd {
        "render" => cmd_render(&mut backend, rest),
        "cluster" => cmd_cluster(&mut backend, rest),
        "impute" => cmd_impute(&mut backend, rest),
        "search" => cmd_search(&mut backend, rest),
        "spell" => cmd_spell(&mut backend, rest),
        "demo" => cmd_demo(&mut backend, rest),
        other => unreachable!("{other} was admitted above"),
    };
    if let Backend::Remote(client) = &mut backend {
        // Best-effort: an unreachable server at this point must not mask
        // the subcommand's own outcome.
        let _ = client.close_session();
    }
    Ok(result?)
}

/// A session name unique enough for concurrent CLI invocations against
/// one server.
fn scratch_session_name() -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos())
        .unwrap_or(0);
    format!("cli-{}-{nanos}", std::process::id())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `--remote <addr>` may appear anywhere; extract it before dispatch.
    let mut remote = None;
    if let Some(i) = args.iter().position(|a| a == "--remote") {
        if i + 1 >= args.len() {
            return usage();
        }
        remote = Some(args.remove(i + 1));
        args.remove(i);
    }
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let result = run(cmd, rest, remote.as_deref());
    flush_stdout();
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return ExitCode::from(CLOSED_STDOUT);
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage) => usage(),
        Err(Failure::Api(e)) => {
            eprintln!("fvtool: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
