//! The benchmark's declared surface: which metrics exist, in which unit,
//! which way is better, and by how much an end-to-end metric may worsen.
//! `BENCHMARK.json` at the repository root is generated from this table
//! (`fvbench manifest`), and a test keeps the two identical.

use crate::workloads::WORKLOADS;
use std::fmt::Write as _;

/// Seconds one contract run measures. The issue's design point is 30 s;
/// the driver's budget (4 + 22 × 4 runs and two builds inside 3420 s,
/// three set-ups per run) leaves room for 20, the shortest window that is
/// not flagged `short`.
pub const RUN_SECONDS: u32 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Same six names on every workload, measured with tracing off.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.10,
    },
    EndToEnd {
        name: "lat_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "rss_peak_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.05,
    },
    EndToEnd {
        name: "wire_kb_per_op",
        unit: "KiB",
        better: "lower",
        bound: 0.01,
    },
];

/// `(name, unit, better)` of every per-layer metric the traced run prints.
pub const PER_LAYER: [(&str, &str, &str); 72] = [
    // moves interactive/lat_p50_ms and nothing else
    ("net.client.stall_ms", "ms", "lower"),
    ("net.roundtrip_us.threads", "us", "lower"),
    ("net.roundtrip_us.procs", "us", "lower"),
    ("net.shard_hop_us.threads", "us", "lower"),
    ("net.shard_hop_us.procs", "us", "lower"),
    ("net.frame.next_line_us", "us", "lower"),
    ("net.frame.push_ok_us", "us", "lower"),
    ("net.frame.read_reply_us", "us", "lower"),
    ("net.connect_us", "us", "lower"),
    ("api.codec.parse_request_us", "us", "lower"),
    ("api.codec.format_response_us", "us", "lower"),
    ("api.codec.parse_response_us", "us", "lower"),
    ("api.engine.execute_cheap_us", "us", "lower"),
    ("core.command_perform_us", "us", "lower"),
    ("core.layout_panes_us", "us", "lower"),
    ("core.search_ms", "ms", "lower"),
    ("spell.prepare_ms", "ms", "lower"),
    ("spell.query_ms", "ms", "lower"),
    ("golem.enrich_ms", "ms", "lower"),
    // moves recluster/lat_p50_ms and cpu_ms_per_op; through replay also
    // restore/lat_p50_ms and restore/setup_s
    ("synth.scenario_ms", "ms", "lower"),
    ("cluster.distance_ms.g1000", "ms", "lower"),
    ("cluster.distance_ms.g2000", "ms", "lower"),
    ("cluster.distance_spearman_ms.g1000", "ms", "lower"),
    ("cluster.linkage_ms.g1000", "ms", "lower"),
    ("cluster.linkage_ms.g2000", "ms", "lower"),
    ("cluster.order_ms.g1000", "ms", "lower"),
    ("cluster.order_ms.g2000", "ms", "lower"),
    ("cluster.knn_impute_ms.g1000", "ms", "lower"),
    ("cluster.pairs_per_s", "1/s", "higher"),
    ("core.cluster_dataset_ms.g1000", "ms", "lower"),
    ("core.cluster_self_ms.g1000", "ms", "lower"),
    // moves wallstream/lat_p50_ms and cpu_ms_per_op
    ("core.render_desktop_ms", "ms", "lower"),
    ("core.render_self_ms", "ms", "lower"),
    ("render.heatmap_global_ms", "ms", "lower"),
    ("render.heatmap_zoom_ms", "ms", "lower"),
    ("render.dendrogram_ms", "ms", "lower"),
    ("render.mpix_per_s", "1/s", "higher"),
    ("wall.keyframe_encode_us", "us", "lower"),
    ("wall.delta_encode_us", "us", "lower"),
    ("wall.tile_damage_us", "us", "lower"),
    ("wall.damage_coalesce_us", "us", "lower"),
    ("wall.frame_decode_us", "us", "lower"),
    ("wall.assemble_us", "us", "lower"),
    ("net.stream.fanout_ms", "ms", "lower"),
    // moves wallstream/wire_kb_per_op (counts)
    ("wall.keyframe_bytes", "count", "lower"),
    ("wall.delta_bytes", "count", "lower"),
    // moves restore/lat_p50_ms and restore/setup_s
    ("formats.pcl_parse_ms", "ms", "lower"),
    ("formats.pcl_write_ms", "ms", "lower"),
    ("api.cache.hit_us", "us", "lower"),
    ("api.cache.miss_ms", "ms", "lower"),
    ("api.image.snapshot_us", "us", "lower"),
    ("api.image.format_us", "us", "lower"),
    ("api.image.parse_us", "us", "lower"),
    ("api.engine.restore_ms", "ms", "lower"),
    ("api.store.save_ms", "ms", "lower"),
    ("api.store.scan_ms", "ms", "lower"),
    ("net.migrate_ms.threads", "ms", "lower"),
    ("net.migrate_ms.procs", "ms", "lower"),
    // server counters over the public `stats` verb at window end
    ("net.stats.requests", "count", "lower"),
    ("net.stats.runs", "count", "lower"),
    ("net.stats.busy", "count", "lower"),
    ("net.stats.stream_frames", "count", "lower"),
    ("net.stats.stream_coalesced", "count", "lower"),
    ("net.stats.stream_dropped", "count", "lower"),
    ("net.stats.cache_hits", "count", "higher"),
    ("net.stats.cache_misses", "count", "lower"),
    // the driver's own view of the traced wire pass
    ("driver.lat_tail_ms", "ms", "lower"),
    ("driver.lat_max_ms", "ms", "lower"),
    ("driver.block_rate_iqr", "1", "lower"),
    ("driver.trace_overhead_pct", "%", "lower"),
    ("driver.ref_slowness", "1", "lower"),
    ("driver.coverage", "1", "higher"),
];

/// Declared unit of a metric; empty for a name the table does not know.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"fvbench/run.sh\"],\n");
    out.push_str("  \"paths\": [\"fvbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `fvbench manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn the_table_stays_inside_the_contract_limits() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in &END_TO_END {
            assert!(ok_name(m.name) && ok_unit(m.unit) && names.insert(m.name));
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for (name, unit, better) in PER_LAYER {
            assert!(
                ok_name(name) && ok_unit(unit) && names.insert(name),
                "{name}"
            );
            assert!(better == "lower" || better == "higher");
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
