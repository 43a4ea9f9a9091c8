//! The staged per-layer pass: the benchmark's own code times calls into
//! each layer's public functions, along parse → distance → linkage →
//! order → layout → rasterize → tile encode → frame codec → shard hop →
//! checkpoint/restore. Nothing inside the program is instrumented.
//!
//! Two kinds of measurement live here. *In-process* stages push generated
//! inputs through the same public functions the server composes
//! (`FrameBuf` → `parse_script` → `EngineHub::execute_run_on` →
//! `format_response` → `push_ok_frame`) and run the kernels directly on
//! the workloads' own matrices. *Wire probes* boot two small servers (one
//! per shard backend) and time single requests, so the shard hop, the
//! client's write stall and a migration each get a number of their own.
//!
//! Every metric here is a median, has no bound, and exists to say *where*
//! an end-to-end number moved.

use crate::child::ServerProc;
use crate::harness::Env;
use crate::trace::Tracer;
use crate::workloads::{replay_line, wallstream};
use crate::{gen, metric, stats, Error, Metric};
use forestview::command::{self, Command, DamageClass};
use forestview::layout::layout_panes;
use forestview::pane::build_all;
use forestview::renderer::render_desktop;
use forestview::Session;
use fv_api::codec::ScriptItem;
use fv_api::engine::DEFAULT_SCENE;
use fv_api::{
    format_response, format_session_image, parse_response, parse_script, parse_session_image,
    ApiError, DatasetCache, Engine, EngineHub, Request, SessionId, SessionStore,
};
use fv_cluster::distance::{condensed_distances, Metric as Distance};
use fv_cluster::impute::knn_impute;
use fv_cluster::linkage::{cluster_condensed, Linkage};
use fv_cluster::order::improve_order;
use fv_golem::{enrich, EnrichmentConfig};
use fv_net::frame::{push_ok_frame, read_reply, FrameBuf, LineReader, Reply};
use fv_net::{Client, Watcher};
use fv_render::dendro::{paint_dendrogram_at, Orientation};
use fv_render::heatmap::{paint_global_at, paint_zoom_at};
use fv_render::{Framebuffer, Rgb};
use fv_spell::{SpellConfig, SpellEngine};
use fv_synth::ontogen::generate_ontology;
use fv_synth::scenario::Scenario;
use fv_wall::damage::DamageTracker;
use fv_wall::stream::{decode, tile_damage, TileAssembler, TileFrame, TileStreamEncoder};
use fv_wall::tile::{TileGrid, Viewport};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::time::Instant;

// ── timing helpers ──────────────────────────────────────────────────────

/// Run `f` `reps` times, each as one span called `name`; median in ns.
fn timed<R>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        tr.enter(name);
        let started = Instant::now();
        black_box(f());
        ns.push(started.elapsed().as_nanos() as f64);
        tr.exit();
    }
    stats::median(&ns)
}

/// Time one call as one span called `name`; its value and its ns.
fn timed_once<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    tr.enter(name);
    let started = Instant::now();
    let out = black_box(f());
    let ns = started.elapsed().as_nanos() as f64;
    tr.exit();
    (out, ns)
}

/// For calls too short to time singly: each of `rounds` spans covers
/// `iters` calls; median per-call ns.
fn timed_batch<R>(
    tr: &mut Tracer,
    name: &'static str,
    rounds: usize,
    iters: usize,
    mut f: impl FnMut() -> R,
) -> f64 {
    let mut ns = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        tr.enter(name);
        let started = Instant::now();
        for _ in 0..iters.max(1) {
            black_box(f());
        }
        ns.push(started.elapsed().as_nanos() as f64 / iters.max(1) as f64);
        tr.exit();
    }
    stats::median(&ns)
}

const NS_PER_US: f64 = 1e3;
const NS_PER_MS: f64 = 1e6;

// ── the server's composition, in process ────────────────────────────────

/// Push script text through the stages the server composes for it, one
/// span per stage, and hand back the reply texts. `use`/`close` lines act
/// on the hub the way the transport does; contiguous request lines run as
/// one `execute_run_on` call, which is exactly the server's batching.
pub fn staged_script(
    tr: &mut Tracer,
    hub: &mut EngineHub,
    session: &mut SessionId,
    text: &str,
) -> Result<Vec<String>, Error> {
    tr.enter("net.frame.next_line");
    let mut framer = FrameBuf::new();
    framer.feed(text.as_bytes());
    let mut lines = Vec::new();
    while let Some(line) = framer.next_line() {
        lines.push(line.map_err(|fault| format!("framing fault {fault:?}"))?);
    }
    tr.exit();

    tr.enter("api.codec.parse_script");
    let items = parse_script(&lines.join("\n"));
    tr.exit();
    let items = items?;

    let mut replies = Vec::new();
    let mut outbox: Vec<u8> = Vec::new();
    let mut i = 0;
    while i < items.len() {
        match &items[i].item {
            ScriptItem::Use(name) => {
                *session = SessionId::new(name.clone())?;
                hub.engine(session);
                i += 1;
            }
            ScriptItem::Close(name) => {
                hub.close(&SessionId::new(name.clone())?);
                i += 1;
            }
            ScriptItem::Request(_) => {
                let mut run: Vec<Request> = Vec::new();
                while let Some(ScriptItem::Request(r)) = items.get(i).map(|l| &l.item) {
                    run.push(r.clone());
                    i += 1;
                }
                tr.enter("api.engine.execute_run_on");
                let outcome = hub.execute_run_on(session, &run);
                tr.exit();
                if let Some((at, e)) = outcome.error {
                    return Err(format!("staged request {at} failed: {e}").into());
                }
                tr.enter("api.codec.format_response");
                let texts: Vec<String> = outcome.responses.iter().map(format_response).collect();
                tr.exit();
                tr.enter("net.frame.push_ok");
                for text in &texts {
                    push_ok_frame(&mut outbox, text);
                }
                tr.exit();
                replies.extend(texts);
            }
        }
    }

    // The client's half: decode the frames it would read.
    tr.enter("net.frame.read_reply");
    let mut reader = LineReader::new(outbox.as_slice());
    let mut decoded = 0;
    while let Some(reply) = read_reply(&mut reader)? {
        reply?;
        decoded += 1;
    }
    tr.exit();
    if decoded != replies.len() {
        return Err("staged frames did not decode one per reply".into());
    }
    Ok(replies)
}

/// The publish path for one mutation reply, in process: render once, map
/// damage to tiles, cut and encode delta frames, decode and assemble
/// them. Returns the encoded bytes.
pub struct StagedWall {
    pub grid: TileGrid,
    encoder: TileStreamEncoder,
    assembler: TileAssembler,
}

impl StagedWall {
    pub fn new(grid: TileGrid) -> StagedWall {
        StagedWall {
            grid,
            encoder: TileStreamEncoder::new(grid),
            assembler: TileAssembler::new(grid),
        }
    }

    pub fn publish(
        &mut self,
        tr: &mut Tracer,
        session: &Session,
        damage: &[Viewport],
    ) -> Result<usize, Error> {
        tr.enter("core.render_desktop");
        let wall = render_desktop(session, DEFAULT_SCENE.0, DEFAULT_SCENE.1);
        tr.exit();
        tr.enter("wall.tile_damage");
        let tiles = pending_per_tile(&self.grid, damage);
        tr.exit();
        tr.enter("wall.delta_encode");
        let frames = self.encoder.delta(&wall, &tiles);
        let mut bytes = Vec::new();
        for frame in &frames {
            frame.encode_into(&mut bytes);
        }
        tr.exit();
        tr.enter("wall.frame_decode");
        let decoded = decode_all(&bytes);
        tr.exit();
        let decoded = decoded?;
        tr.enter("wall.assemble");
        for frame in &decoded {
            self.assembler.apply(frame)?;
        }
        tr.exit();
        Ok(bytes.len())
    }
}

/// `tile_damage`, then one bounding rect per tile — the server's pending
/// set for a subscriber that is not behind.
pub fn pending_per_tile(grid: &TileGrid, damage: &[Viewport]) -> Vec<(usize, Viewport)> {
    let mut pending: BTreeMap<usize, Viewport> = BTreeMap::new();
    for (tile, rect) in tile_damage(grid, damage) {
        pending
            .entry(tile)
            .and_modify(|have| {
                let x = have.x.min(rect.x);
                let y = have.y.min(rect.y);
                let x1 = (have.x + have.w).max(rect.x + rect.w);
                let y1 = (have.y + have.h).max(rect.y + rect.h);
                *have = Viewport {
                    x,
                    y,
                    w: x1 - x,
                    h: y1 - y,
                };
            })
            .or_insert(rect);
    }
    pending.into_iter().collect()
}

fn decode_all(mut bytes: &[u8]) -> Result<Vec<TileFrame>, Error> {
    let mut frames = Vec::new();
    while !bytes.is_empty() {
        match decode(bytes)? {
            Some((frame, used)) => {
                frames.push(frame);
                bytes = &bytes[used..];
            }
            None => return Err("truncated tile frame in a staged burst".into()),
        }
    }
    Ok(frames)
}

/// The migration path for one session, in process: snapshot → image text
/// → parse → `Engine::restore` against a warm dataset cache.
pub fn staged_migrate(
    tr: &mut Tracer,
    engine: &Engine,
    cache: &DatasetCache,
) -> Result<Engine, Error> {
    tr.enter("api.image.snapshot");
    let image = engine.snapshot();
    tr.exit();
    tr.enter("api.image.format");
    let text = format_session_image(&image);
    tr.exit();
    tr.enter("api.image.parse");
    let parsed = parse_session_image(&text);
    tr.exit();
    let parsed = parsed?;
    tr.enter("api.engine.restore");
    let restored = Engine::restore(&parsed, cache);
    tr.exit();
    Ok(restored?)
}

// ── raw single-write client, for probes only ────────────────────────────

/// A connection that sends each request line in **one** write and sets no
/// socket options: the baseline `Client::roundtrip` (two writes per line)
/// is compared against. Probes only; the workloads never use it.
struct OneWrite {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl OneWrite {
    fn connect(addr: &str) -> Result<OneWrite, Error> {
        let stream = TcpStream::connect(addr)?;
        Ok(OneWrite {
            writer: stream.try_clone()?,
            reader: LineReader::new(stream),
            buf: Vec::new(),
        })
    }

    fn roundtrip(&mut self, line: &str) -> Result<Reply, Error> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer.write_all(&self.buf)?;
        read_reply(&mut self.reader)?.ok_or_else(|| "server closed the connection".into())
    }

    fn expect(&mut self, line: &str) -> Result<String, Error> {
        Ok(self
            .roundtrip(line)?
            .map_err(|e| format!("probe line {line:?} refused: {e}"))?)
    }
}

// ── the suite ───────────────────────────────────────────────────────────

/// Collected layer metrics, by name.
pub struct Layers {
    pub metrics: Vec<Metric>,
}

impl Layers {
    fn push(&mut self, name: &str, value: f64) {
        self.metrics.push(metric(name, value));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    }
}

fn session_from(scenario: &Scenario) -> Result<Session, Error> {
    let mut session = Session::new();
    for ds in &scenario.datasets {
        session.load_dataset(ds.clone())?;
    }
    Ok(session)
}

/// What `Session::cluster_dataset` composes, stage by stage, over every
/// dataset of a scenario, `reps` times: distance → linkage → order, plus
/// the session's own share (the O(n²) copy of the condensed matrix that
/// linkage consumes, and the display-position vector). Per-stage medians
/// of the per-scenario sums, in ns: `[distance, linkage, order, self]`.
fn cluster_kernels(
    tr: &mut Tracer,
    scenario: &Scenario,
    reps: usize,
    names: [&'static str; 4],
) -> [f64; 4] {
    let (mut dist_ns, mut link_ns, mut order_ns, mut self_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps.max(1) {
        let (mut d_sum, mut l_sum, mut o_sum, mut s_sum) = (0.0, 0.0, 0.0, 0.0);
        for ds in &scenario.datasets {
            let (distances, ns) = timed_once(tr, names[0], || {
                condensed_distances(&ds.matrix, Distance::Pearson)
            });
            d_sum += ns;
            let (copy, ns) = timed_once(tr, names[3], || distances.clone());
            s_sum += ns;
            let (tree, ns) = timed_once(tr, names[1], || cluster_condensed(copy, Linkage::Average));
            l_sum += ns;
            let ((order, _flips), ns) =
                timed_once(tr, names[2], || improve_order(&tree, &distances, 2));
            o_sum += ns;
            let (_pos, ns) = timed_once(tr, names[3], || {
                let mut pos = vec![0usize; order.len()];
                for (display, &row) in order.iter().enumerate() {
                    pos[row] = display;
                }
                pos
            });
            s_sum += ns;
        }
        dist_ns.push(d_sum);
        link_ns.push(l_sum);
        order_ns.push(o_sum);
        self_ns.push(s_sum);
    }
    [
        stats::median(&dist_ns),
        stats::median(&link_ns),
        stats::median(&order_ns),
        stats::median(&self_ns),
    ]
}

fn pairs(scenario: &Scenario) -> f64 {
    scenario
        .datasets
        .iter()
        .map(|d| {
            let n = d.n_genes() as f64;
            n * (n - 1.0) / 2.0
        })
        .sum()
}

/// Groups "cluster" and "synth": what moves `recluster`, and through
/// replay `restore`. Sizes 1000 and 2000 make the exponents visible.
fn cluster_layers(out: &mut Layers, tr: &mut Tracer, seed: u64) -> Result<Scenario, Error> {
    let n = gen::Sizes::FULL.cluster_genes;
    let scenario_ns = timed(tr, "synth.scenario", 3, || {
        Scenario::three_datasets(n, seed)
    });
    out.push("synth.scenario_ms", scenario_ns / NS_PER_MS);
    let small = Scenario::three_datasets(n, seed);
    let big = Scenario::three_datasets(gen::Sizes::FULL.interactive_genes, seed);

    let [d, l, o, own] = cluster_kernels(
        tr,
        &small,
        3,
        [
            "cluster.distance",
            "cluster.linkage",
            "cluster.order",
            "core.cluster_self",
        ],
    );
    out.push("cluster.distance_ms.g1000", d / NS_PER_MS);
    out.push("cluster.linkage_ms.g1000", l / NS_PER_MS);
    out.push("cluster.order_ms.g1000", o / NS_PER_MS);
    // Whole minus children, measured directly: subtracting two 300 ms
    // timings taken seconds apart would bury 3 ms in machine noise.
    out.push("core.cluster_self_ms.g1000", own / NS_PER_MS);

    let [d2, l2, o2, _] = cluster_kernels(
        tr,
        &big,
        1,
        [
            "cluster.distance.g2000",
            "cluster.linkage.g2000",
            "cluster.order.g2000",
            "core.cluster_self.g2000",
        ],
    );
    out.push("cluster.distance_ms.g2000", d2 / NS_PER_MS);
    out.push("cluster.linkage_ms.g2000", l2 / NS_PER_MS);
    out.push("cluster.order_ms.g2000", o2 / NS_PER_MS);
    out.push("cluster.pairs_per_s", pairs(&big) / (d2 / 1e9));

    // Rank-transforming every row makes Spearman several times dearer
    // than Pearson; the narrowest dataset keeps the traced run in budget.
    let narrowest = small
        .datasets
        .iter()
        .min_by_key(|d| d.n_conditions())
        .ok_or("scenario has no datasets")?;
    let spearman_ns = timed(tr, "cluster.distance_spearman", 1, || {
        condensed_distances(&narrowest.matrix, Distance::Spearman).n()
    });
    out.push(
        "cluster.distance_spearman_ms.g1000",
        spearman_ns / NS_PER_MS,
    );

    let widest = small
        .datasets
        .iter()
        .max_by_key(|d| d.n_conditions())
        .ok_or("scenario has no datasets")?;
    let impute_ns = timed(tr, "cluster.knn_impute", 2, || {
        let mut m = widest.matrix.clone();
        knn_impute(&mut m, 10, Distance::Euclidean)
    });
    out.push("cluster.knn_impute_ms.g1000", impute_ns / NS_PER_MS);

    let mut session = session_from(&small)?;
    let whole_ns = timed(tr, "core.cluster_dataset", 3, || session.cluster_all());
    out.push("core.cluster_dataset_ms.g1000", whole_ns / NS_PER_MS);
    Ok(small)
}

/// Groups "render" and "wall": what moves `wallstream`.
fn wall_layers(out: &mut Layers, tr: &mut Tracer, scenario: &Scenario) -> Result<(), Error> {
    let (w, h) = DEFAULT_SCENE;
    let mut session = session_from(scenario)?;
    session.cluster_all();
    command::perform(
        &mut session,
        &Command::SelectRegion {
            dataset: 0,
            start_frac: 0.3,
            end_frac: 0.36,
        },
    );
    command::perform(&mut session, &Command::Scroll(3));

    let render_ns = timed(tr, "core.render_desktop", 5, || {
        render_desktop(&session, w, h)
    });
    out.push("core.render_desktop_ms", render_ns / NS_PER_MS);
    out.push(
        "render.mpix_per_s",
        (w * h) as f64 / 1e6 / (render_ns / 1e9),
    );

    // The renderer's own share that can be called directly: pane-content
    // build, layout and the framebuffer allocation. (Glyphs, borders and
    // selection marks are private to the renderer and stay in the whole.)
    let self_ns = timed(tr, "core.render_self", 5, || {
        let panes = build_all(&session);
        let layouts = layout_panes(w, h, panes.len(), true, true, false);
        (Framebuffer::new(w, h), panes, layouts)
    });
    out.push("core.render_self_ms", self_ns / NS_PER_MS);

    // The rasterize kernels the desktop render composes, called directly
    // with the same pane contents and layout rectangles.
    let panes = build_all(&session);
    let layouts = layout_panes(w, h, panes.len(), true, true, false);
    let mut fb = Framebuffer::new(w, h);
    let border = Rgb::new(90, 90, 90);
    let global_ns = timed(tr, "render.heatmap_global", 3, || {
        for (c, lay) in panes.iter().zip(&layouts) {
            paint_global_at(
                &mut fb,
                lay.global.x as i64,
                lay.global.y as i64,
                lay.global.w,
                lay.global.h,
                c.n_rows,
                c.n_cols,
                |r, col| c.global_value(&session, r, col),
                &c.prefs.colormap,
            );
        }
    });
    let zoom_ns = timed(tr, "render.heatmap_zoom", 3, || {
        for (c, lay) in panes.iter().zip(&layouts) {
            let cell_h = c.prefs.zoom_cell_h.max(1);
            let shown = c.zoom_rows.len().min((lay.zoom.h / cell_h).max(1));
            paint_zoom_at(
                &mut fb,
                lay.zoom.x as i64,
                lay.zoom.y as i64,
                lay.zoom.w,
                (shown * cell_h).min(lay.zoom.h),
                shown,
                c.n_cols,
                |r, col| c.zoom_value(&session, r, col),
                &c.prefs.colormap,
            );
        }
    });
    let dendro_ns = timed(tr, "render.dendrogram", 3, || {
        for (c, lay) in panes.iter().zip(&layouts) {
            if let Some(tree) = &c.tree {
                paint_dendrogram_at(
                    &mut fb,
                    lay.global_tree.x as i64,
                    lay.global_tree.y as i64,
                    lay.global_tree.w,
                    lay.global_tree.h,
                    tree,
                    &c.leaf_pos,
                    Orientation::Horizontal,
                    border,
                );
            }
        }
    });
    out.push("render.heatmap_global_ms", global_ns / NS_PER_MS);
    out.push("render.heatmap_zoom_ms", zoom_ns / NS_PER_MS);
    out.push("render.dendrogram_ms", dendro_ns / NS_PER_MS);
    let layout_ns = timed_batch(tr, "core.layout_panes", 5, 2000, || {
        layout_panes(w, h, 3, true, true, false)
    });
    out.push("core.layout_panes_us", layout_ns / NS_PER_US);

    // Tile streaming, on the damage a selection change causes.
    let wall = render_desktop(&session, w, h);
    let grid = wallstream::wall_grid();
    let damage = command::resolve_damage(&session, DamageClass::ZoomAndMarks, w, h);
    let tile_ns = timed_batch(tr, "wall.tile_damage", 5, 200, || {
        tile_damage(&grid, &damage)
    });
    out.push("wall.tile_damage_us", tile_ns / NS_PER_US);
    let storm = rect_storm(1000, w, h);
    let coalesce_ns = timed(tr, "wall.damage_coalesce", 9, || {
        let mut tracker = DamageTracker::new();
        for &r in &storm {
            tracker.add(r);
        }
        tracker.take()
    });
    out.push("wall.damage_coalesce_us", coalesce_ns / NS_PER_US);

    let tiles = pending_per_tile(&grid, &damage);
    let mut delta_bytes = Vec::new();
    let delta_ns = timed(tr, "wall.delta_encode", 9, || {
        let mut encoder = TileStreamEncoder::new(grid);
        delta_bytes.clear();
        for frame in encoder.delta(&wall, &tiles) {
            frame.encode_into(&mut delta_bytes);
        }
    });
    let mut key_bytes = Vec::new();
    let key_ns = timed(tr, "wall.keyframe_encode", 9, || {
        let mut encoder = TileStreamEncoder::new(grid);
        key_bytes.clear();
        for frame in encoder.keyframe(&wall) {
            frame.encode_into(&mut key_bytes);
        }
    });
    out.push("wall.delta_encode_us", delta_ns / NS_PER_US);
    out.push("wall.keyframe_encode_us", key_ns / NS_PER_US);
    out.push("wall.delta_bytes", delta_bytes.len() as f64);
    out.push("wall.keyframe_bytes", key_bytes.len() as f64);

    let decode_ns = timed(tr, "wall.frame_decode", 9, || decode_all(&delta_bytes));
    out.push("wall.frame_decode_us", decode_ns / NS_PER_US);
    let frames = decode_all(&delta_bytes)?;
    let mut assembler = TileAssembler::new(grid);
    let assemble_ns = timed(tr, "wall.assemble", 9, || {
        for frame in &frames {
            let _ = assembler.apply(frame);
        }
    });
    out.push("wall.assemble_us", assemble_ns / NS_PER_US);
    Ok(())
}

/// Deterministic rect storm clustered around a few hot spots, the way
/// scroll and selection damage is, so coalescing leaves several rects.
fn rect_storm(n: usize, w: usize, h: usize) -> Vec<Viewport> {
    let mut rng = fv_synth::workload::WorkloadRng::new(0x2007_1007);
    let mut below = |m: usize| rng.below(m as u64) as usize;
    let anchors: Vec<(usize, usize)> = (0..6).map(|_| (below(w - 128), below(h - 128))).collect();
    (0..n)
        .map(|i| {
            let (ax, ay) = anchors[i % anchors.len()];
            Viewport {
                x: ax + below(96),
                y: ay + below(96),
                w: 8 + below(24),
                h: 8 + below(24),
            }
        })
        .collect()
}

/// Group "interactive path": codec, framing, cheap engine work, search,
/// SPELL and GOLEM, on the `interactive` workload's own session.
fn interactive_layers(out: &mut Layers, tr: &mut Tracer, seed: u64) -> Result<(), Error> {
    let mut hub = EngineHub::new();
    let mut id = SessionId::new("staged-ia")?;
    for line in gen::interactive_setup(seed, &gen::Sizes::FULL) {
        replay_line(&mut hub, &id, &line)?;
    }
    let cycle = gen::interactive_cycle(seed, &gen::Sizes::FULL);
    let mut replies = Vec::new();
    let first_span = tr.spans().len();
    for round in 0..24 {
        for line in &cycle {
            let mut text = line.clone();
            text.push('\n');
            let got = staged_script(tr, &mut hub, &mut id, &text)?;
            if round == 0 {
                replies.extend(got);
            }
        }
    }
    let p50_us = |name: &str| {
        let ns: Vec<f64> = tr.spans()[first_span..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect();
        stats::median(&ns) / NS_PER_US
    };
    out.push("net.frame.next_line_us", p50_us("net.frame.next_line"));
    out.push("net.frame.push_ok_us", p50_us("net.frame.push_ok"));
    out.push("net.frame.read_reply_us", p50_us("net.frame.read_reply"));
    out.push(
        "api.codec.parse_request_us",
        p50_us("api.codec.parse_script"),
    );
    out.push(
        "api.codec.format_response_us",
        p50_us("api.codec.format_response"),
    );
    out.push(
        "api.engine.execute_cheap_us",
        p50_us("api.engine.execute_run_on"),
    );
    let parse_ns = timed_batch(tr, "api.codec.parse_response", 5, 20, || {
        replies.iter().filter(|r| parse_response(r).is_ok()).count()
    });
    out.push(
        "api.codec.parse_response_us",
        parse_ns / replies.len().max(1) as f64 / NS_PER_US,
    );

    // Below the engine: the same commands on a bare core session.
    let scenario = Scenario::three_datasets(gen::Sizes::FULL.interactive_genes, seed);
    let mut session = session_from(&scenario)?;
    let commands: Vec<Command> = cycle
        .iter()
        .filter_map(|line| match fv_api::parse_request(line) {
            Ok(Request::Mutate(fv_api::Mutation::Command(c))) => Some(c),
            _ => None,
        })
        .collect();
    let perform_ns = timed_batch(tr, "core.command_perform", 5, 20, || {
        for c in &commands {
            command::perform(&mut session, c);
        }
    });
    out.push(
        "core.command_perform_us",
        perform_ns / commands.len().max(1) as f64 / NS_PER_US,
    );
    let search_ns = timed(tr, "core.search", 9, || {
        forestview::search::search_genes(session.merged(), "index 17").len()
    });
    out.push("core.search_ms", search_ns / NS_PER_MS);

    let prepare_ns = timed(tr, "spell.prepare", 3, || {
        let mut engine = SpellEngine::new(SpellConfig::default());
        for ds in &scenario.datasets {
            engine.add_dataset(ds);
        }
        engine.finalize();
        engine
    });
    out.push("spell.prepare_ms", prepare_ns / NS_PER_MS);
    let mut spell = SpellEngine::new(SpellConfig::default());
    for ds in &scenario.datasets {
        spell.add_dataset(ds);
    }
    spell.finalize();
    let query: Vec<String> = (0..5).map(|i| fv_synth::names::orf_name(i * 97)).collect();
    let query: Vec<&str> = query.iter().map(String::as_str).collect();
    let query_ns = timed(tr, "spell.query", 9, || spell.query(&query).genes.len());
    out.push("spell.query_ms", query_ns / NS_PER_MS);

    let ontology = generate_ontology(&scenario.truth, gen::INTERACTIVE_ONTOLOGY, seed);
    let propagated = ontology.annotations.propagate(&ontology.dag);
    let module: Vec<String> = scenario
        .truth
        .modules
        .first()
        .map(|m| {
            m.genes
                .iter()
                .take(40)
                .map(|&g| fv_synth::names::orf_name(g))
                .collect()
        })
        .unwrap_or_default();
    let module: Vec<&str> = module.iter().map(String::as_str).collect();
    let enrich_ns = timed(tr, "golem.enrich", 9, || {
        enrich(
            &ontology.dag,
            &propagated,
            &module,
            &EnrichmentConfig::default(),
        )
        .len()
    });
    out.push("golem.enrich_ms", enrich_ns / NS_PER_MS);
    Ok(())
}

/// Group "restore": formats, the dataset cache, the session image codec,
/// `Engine::restore` and the checkpoint store, on the `restore`
/// workload's own PCL. Returns the PCL path for the wire probes.
fn restore_layers(
    out: &mut Layers,
    tr: &mut Tracer,
    seed: u64,
    scratch: &Path,
) -> Result<std::path::PathBuf, Error> {
    let dataset = gen::restore_dataset(seed, &gen::Sizes::FULL);
    let write_ns = timed(tr, "formats.pcl_write", 3, || {
        fv_formats::pcl::write_pcl(&dataset).len()
    });
    out.push("formats.pcl_write_ms", write_ns / NS_PER_MS);
    let text = fv_formats::pcl::write_pcl(&dataset);
    let parse_ns = timed(tr, "formats.pcl_parse", 3, || {
        fv_formats::pcl::parse_pcl("restore", &text).map(|d| d.n_genes())
    });
    out.push("formats.pcl_parse_ms", parse_ns / NS_PER_MS);

    let pcl = scratch.join("layers.pcl");
    std::fs::write(&pcl, &text).map_err(|e| format!("write {}: {e}", pcl.display()))?;
    let path = pcl.to_string_lossy().into_owned();
    let miss_ns = timed(tr, "api.cache.miss", 3, || {
        DatasetCache::new().load(&path).map(|d| d.n_genes())
    });
    out.push("api.cache.miss_ms", miss_ns / NS_PER_MS);
    let cache = DatasetCache::new();
    cache.load(&path)?;
    let hit_ns = timed_batch(tr, "api.cache.hit", 3, 5, || {
        cache.load(&path).map(|d| d.n_genes())
    });
    out.push("api.cache.hit_us", hit_ns / NS_PER_US);

    let mut engine = Engine::with_scene_and_cache(DEFAULT_SCENE.0, DEFAULT_SCENE.1, cache.clone());
    let mut lines = vec![format!("load {path}")];
    lines.extend(gen::restore_session_setup(seed, 0));
    lines.push(gen::restore_mutation(seed, 0));
    for line in &lines {
        engine.execute(&fv_api::parse_request(line)?)?;
    }
    let snapshot_ns = timed_batch(tr, "api.image.snapshot", 5, 200, || engine.snapshot());
    let image = engine.snapshot();
    let format_ns = timed_batch(tr, "api.image.format", 5, 200, || {
        format_session_image(&image)
    });
    let image_text = format_session_image(&image);
    let image_parse_ns = timed_batch(tr, "api.image.parse", 5, 200, || {
        parse_session_image(&image_text).map(|i| i.requests)
    });
    out.push("api.image.snapshot_us", snapshot_ns / NS_PER_US);
    out.push("api.image.format_us", format_ns / NS_PER_US);
    out.push("api.image.parse_us", image_parse_ns / NS_PER_US);
    let restore_ns = timed(tr, "api.engine.restore", 3, || {
        Engine::restore(&image, &cache).map(|e| e.cost().requests)
    });
    out.push("api.engine.restore_ms", restore_ns / NS_PER_MS);
    if Engine::restore(&image, &cache)?.snapshot() != image {
        return Err("restore does not round-trip the session image".into());
    }

    let state_dir = scratch.join("layers-state");
    let _ = std::fs::remove_dir_all(&state_dir);
    let store = SessionStore::open(&state_dir)?;
    let names: Vec<SessionId> = (0..gen::RESTORE_SESSIONS)
        .map(|i| SessionId::new(gen::restore_session_name(i)))
        .collect::<Result<_, ApiError>>()?;
    let mut next = 0usize;
    let save_ns = timed(tr, "api.store.save", 8, || {
        let id = &names[next % names.len()];
        next += 1;
        store.save(id, &image)
    });
    out.push("api.store.save_ms", save_ns / NS_PER_MS);
    let scan_ns = timed(tr, "api.store.scan", 5, || {
        store.scan().map(|s| s.sessions.len())
    });
    out.push("api.store.scan_ms", scan_ns / NS_PER_MS);
    Ok(pcl)
}

/// What the wire probes of one backend measured, in ns.
struct Probe {
    roundtrip_ns: f64,
    migrate_ns: f64,
}

const PROBE_SESSION: &str = "probe";
const PROBE_LINE: &str = "session_info";

/// Boot a two-shard server of one backend, build the `restore`-shaped
/// probe session on it, and time a cheap request and a migration, each
/// sent in a single write.
fn probe_backend(
    tr: &mut Tracer,
    env: &Env,
    backend: &[&str],
    lines: &[String],
    names: [&'static str; 2],
) -> Result<(Probe, ServerProc), Error> {
    let server = ServerProc::boot(&env.serve_spec(backend))?;
    let mut conn = OneWrite::connect(&server.addr)?;
    conn.expect(&format!("use {PROBE_SESSION}"))?;
    for line in lines {
        conn.expect(line)?;
    }
    for _ in 0..20 {
        conn.expect(PROBE_LINE)?;
    }
    let mut failed = None;
    let roundtrip_ns = timed(tr, names[0], 300, || {
        if let Err(e) = conn.expect(PROBE_LINE) {
            failed = Some(e);
        }
    });
    let mut at = fv_net::shard_of(&SessionId::new(PROBE_SESSION)?, 2);
    let migrate_ns = timed(tr, names[1], 3, || {
        at = (at + 1) % 2;
        if let Err(e) = conn.expect(&format!("migrate {PROBE_SESSION} {at}")) {
            failed = Some(e);
        }
    });
    match failed {
        Some(e) => Err(e),
        None => Ok((
            Probe {
                roundtrip_ns,
                migrate_ns,
            },
            server,
        )),
    }
}

/// Group "net": the wire itself. Needs live servers, so it boots its own.
fn net_layers(
    out: &mut Layers,
    tr: &mut Tracer,
    env: &Env,
    pcl: &Path,
    staged_wall_ns: f64,
) -> Result<(), Error> {
    let mut lines = vec![format!("load {}", pcl.display())];
    lines.extend(gen::restore_session_setup(env.seed, 0));

    // The same request, in process: what the wire adds is the shard hop.
    let mut hub = EngineHub::new();
    let id = SessionId::new(PROBE_SESSION)?;
    for line in &lines {
        replay_line(&mut hub, &id, line)?;
    }
    let request = [fv_api::parse_request(PROBE_LINE)?];
    let local_ns = timed_batch(tr, "api.engine.execute_run_on.probe", 5, 200, || {
        hub.execute_run_on(&id, &request).responses.len()
    });

    let (threads, server) = probe_backend(
        tr,
        env,
        &["--shards", "2", "--balance", "off"],
        &lines,
        ["net.roundtrip.threads", "net.migrate.threads"],
    )?;
    out.push("net.roundtrip_us.threads", threads.roundtrip_ns / NS_PER_US);
    out.push(
        "net.shard_hop_us.threads",
        (threads.roundtrip_ns - local_ns) / NS_PER_US,
    );
    out.push("net.migrate_ms.threads", threads.migrate_ns / NS_PER_MS);

    // The client's write stall: `Client::roundtrip` issues two small
    // writes per line, the one-write path above issues one.
    let mut client = Client::connect(&server.addr)?;
    client.use_session(PROBE_SESSION)?;
    for _ in 0..20 {
        client.roundtrip(PROBE_LINE)??;
    }
    let mut failed = None;
    let client_ns = timed(tr, "net.client.roundtrip", 25, || {
        match client.roundtrip(PROBE_LINE) {
            Ok(Ok(_)) => {}
            Ok(Err(e)) | Err(e) => failed = Some(e),
        }
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    out.push(
        "net.client.stall_ms",
        (client_ns - threads.roundtrip_ns) / NS_PER_MS,
    );
    let connect_ns = timed(tr, "net.connect", 50, || {
        Client::connect(&server.addr).is_ok()
    });
    out.push("net.connect_us", connect_ns / NS_PER_US);

    // Stream fan-out: a `wallstream`-shaped session and viewer on this
    // server; what the wire adds over the staged render+encode+decode.
    let wall_ns = probe_stream(tr, &server.addr, env.seed)?;
    out.push(
        "net.stream.fanout_ms",
        (wall_ns - staged_wall_ns) / NS_PER_MS,
    );
    drop(client);
    ServerProc::assert_gone(&server.shutdown()?)?;

    let (procs, server) = probe_backend(
        tr,
        env,
        &["--shard-procs", "2", "--balance", "off"],
        &lines,
        ["net.roundtrip.procs", "net.migrate.procs"],
    )?;
    out.push("net.roundtrip_us.procs", procs.roundtrip_ns / NS_PER_US);
    out.push(
        "net.shard_hop_us.procs",
        (procs.roundtrip_ns - local_ns) / NS_PER_US,
    );
    out.push("net.migrate_ms.procs", procs.migrate_ns / NS_PER_MS);
    ServerProc::assert_gone(&server.shutdown()?)
}

/// One-write mutations against a subscribed viewer: median ns from
/// writing the mutation to the last tile frame of its burst decoded.
fn probe_stream(tr: &mut Tracer, addr: &str, seed: u64) -> Result<f64, Error> {
    let mut conn = OneWrite::connect(addr)?;
    conn.expect(&format!("use {}", gen::WALL_SESSION))?;
    for line in gen::wallstream_setup(seed, &gen::Sizes::FULL) {
        conn.expect(&line)?;
    }
    let (tx, ty) = gen::WALL_GRID;
    let mut viewer = Watcher::connect(addr, gen::WALL_SESSION, tx, ty)?;
    viewer.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    for _ in 0..tx * ty {
        viewer.next_frame()?.ok_or("probe viewer got no keyframe")?;
    }
    let cycle = gen::wallstream_cycle(seed);
    let mut ns = Vec::new();
    for round in 0..3 {
        for line in &cycle {
            tr.enter("net.stream.op");
            let started = Instant::now();
            let reply = conn.expect(line)?;
            let n = wallstream::burst_frames(viewer.grid(), &wallstream::reply_damage(&reply)?);
            let mut seq = 0;
            for _ in 0..n {
                seq = viewer.next_frame()?.ok_or("probe viewer timed out")?.seq;
            }
            viewer.ack(seq);
            let took = started.elapsed().as_nanos() as f64;
            tr.exit();
            if round > 0 {
                ns.push(took);
            }
        }
    }
    Ok(stats::median(&ns))
}

/// Staged cost of one `wallstream` op (execute + publish path), median
/// ns, on a local session shaped like the workload's.
pub fn staged_wall_op(tr: &mut Tracer, seed: u64, sizes: &gen::Sizes) -> Result<f64, Error> {
    let mut hub = EngineHub::new();
    let mut id = SessionId::new(gen::WALL_SESSION)?;
    for line in gen::wallstream_setup(seed, sizes) {
        replay_line(&mut hub, &id, &line)?;
    }
    let mut wall = StagedWall::new(wallstream::wall_grid());
    let cycle = gen::wallstream_cycle(seed);
    let mut ns = Vec::new();
    for round in 0..2 {
        for line in &cycle {
            tr.enter("staged.wall_op");
            let started = Instant::now();
            let mut text = line.clone();
            text.push('\n');
            let replies = staged_script(tr, &mut hub, &mut id, &text)?;
            let damage = wallstream::reply_damage(replies.first().ok_or("no reply")?)?;
            let session_id = id.clone();
            wall.publish(tr, hub.engine(&session_id).session(), &damage)?;
            let took = started.elapsed().as_nanos() as f64;
            tr.exit();
            if round > 0 {
                ns.push(took);
            }
        }
    }
    Ok(stats::median(&ns))
}

/// Run every layer group; the same suite on every workload's traced run,
/// so `<layer metric>` means one thing wherever it is read.
pub fn layer_suite(tr: &mut Tracer, env: &Env) -> Result<Layers, Error> {
    let mut out = Layers {
        metrics: Vec::new(),
    };
    let small = cluster_layers(&mut out, tr, env.seed)?;
    wall_layers(&mut out, tr, &small)?;
    interactive_layers(&mut out, tr, env.seed)?;
    let pcl = restore_layers(&mut out, tr, env.seed, &env.scratch)?;
    let staged_wall_ns = staged_wall_op(tr, env.seed, &gen::Sizes::FULL)?;
    net_layers(&mut out, tr, env, &pcl, staged_wall_ns)?;
    Ok(out)
}
