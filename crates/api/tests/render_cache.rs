//! The global-view grids a session keeps between frames are invisible at
//! the protocol surface: a warm render answers the bytes a cold one does,
//! and no grid reaches a session image, a cost estimate, a session's
//! `Debug` text or a reply. And the damage the `wallstream` benchmark's
//! mutations report repaints, rect by rect, to exactly that rect of the
//! frame — what per-viewport wall rendering relies on.

use forestview::pane::build_all;
use forestview::renderer::{paint_scene, render_desktop, render_desktop_uncached};
use fv_api::{parse_request, Engine, Response};
use fv_render::Framebuffer;

fn run(engine: &mut Engine, line: &str) -> Response {
    let request = parse_request(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
    engine
        .execute(&request)
        .unwrap_or_else(|e| panic!("{line}: {e:?}"))
}

#[test]
fn a_kept_grid_reaches_no_image_cost_debug_text_or_reply() {
    let mut engine = Engine::new();
    for line in [
        "scenario 150 2007",
        "cluster_all",
        "cluster_arrays 0",
        "select_region 1 0.1 0.3",
        "set_contrast 1 2.5",
        "impute 0 5",
    ] {
        run(&mut engine, line);
    }
    let image = engine.snapshot();
    let cost = engine.cost();
    let text = format!("{:?}", engine.session());
    let (w, h) = engine.scene();
    let fresh = render_desktop_uncached(engine.session(), w, h);

    // The first render averages and keeps the grids, the second fills them.
    let cold = run(&mut engine, "render 640 480");
    let warm = run(&mut engine, "render 640 480");
    assert_eq!(cold, warm);
    let info = run(&mut engine, "session_info");
    assert!(render_desktop(engine.session(), w, h) == fresh);
    assert_eq!(run(&mut engine, "session_info"), info);

    // Four requests later: only the request counter moved.
    let mut after = engine.snapshot();
    assert_eq!(after.requests, image.requests + 4);
    after.requests = image.requests;
    assert_eq!(after, image);
    assert_eq!(engine.cost().dataset_bytes, cost.dataset_bytes);
    assert_eq!(format!("{:?}", engine.session()), text);

    // A session restored from the image renders the same bytes cold.
    let restored = Engine::restore(&engine.snapshot(), engine.cache()).unwrap();
    assert!(render_desktop(restored.session(), w, h) == fresh);
}

/// The `wallstream` benchmark's session and its seed-1 cycle of eight
/// mutations: every damage rect of every `applied` reply, painted alone
/// into a framebuffer of its size, is that rect of the frame; and every
/// frame filled from kept grids is the frame averaged afresh.
#[test]
fn every_wallstream_damage_rect_repaints_to_its_rect_of_the_frame() {
    let mut engine = Engine::new();
    run(&mut engine, "scenario 1000 1");
    run(&mut engine, "cluster_all");
    let (w, h) = engine.scene();
    render_desktop(engine.session(), w, h);
    let cycle = [
        "select_region 1 0.427 0.447",
        "scroll 2",
        "scroll 4",
        "search_select index 18",
        "scroll 7",
        "select_region 0 0.837 0.857",
        "scroll -7",
        "clear_selection",
    ];
    for line in cycle {
        let Response::Applied { damage, .. } = run(&mut engine, line) else {
            panic!("{line} is a mutation");
        };
        assert!(
            !damage.is_empty() && damage.len() <= 9,
            "{line}: {damage:?}"
        );
        let session = engine.session();
        let frame = render_desktop(session, w, h);
        assert!(frame == render_desktop_uncached(session, w, h), "{line}");
        let panes = build_all(session);
        for d in &damage {
            let mut clip = Framebuffer::new(d.w, d.h);
            paint_scene(&mut clip, session, &panes, w, h, d.x as i64, d.y as i64);
            assert!(clip == frame.crop(d.x, d.y, d.w, d.h), "{line}: {d:?}");
        }
    }
}
