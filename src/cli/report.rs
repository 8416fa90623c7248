//! `np report`: render a deterministic capture as a text summary or a
//! self-contained single-file HTML report.
//!
//! The HTML is NUMAscope-flavoured: phase-banded per-node sparklines,
//! a per-series intensity heatmap and (when a timeline file is given)
//! the pool's worker-chunk gantt — all inline SVG and CSS, no
//! JavaScript, no external assets, so the file works from a CI artifact
//! store or an `mail -a` attachment.

use np_core::capture::{Capture, SeriesDoc, Timeline};

/// Per-phase band colours (cycled when a capture has more phases).
const PALETTE: &[&str] = &[
    "#9aa0a6", "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1",
];

fn phase_color(phase: u64) -> &'static str {
    PALETTE[phase as usize % PALETTE.len()]
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// The plain-text rendering: per-series totals grouped under the capture
/// header, plus the worker-busy split when a timeline rides along.
pub fn text_summary(cap: &Capture, timeline: Option<&Timeline>) -> String {
    let mut out = format!(
        "capture: {} on {} (seed {}, {} repetition(s), schema {})\n",
        cap.workload, cap.machine, cap.seed, cap.repetitions, cap.schema
    );
    out.push_str(&format!(
        "phases:  {}\n",
        if cap.phases.is_empty() {
            "-".to_string()
        } else {
            cap.phases.join(", ")
        }
    ));
    out.push_str(&format!(
        "nodes:   {:?}\n\n  {:<28} {:>6} {:>12} {:>10} {:>10}\n",
        cap.node_ids(),
        "series",
        "bins",
        "sum",
        "min",
        "max"
    ));
    for s in &cap.series {
        let sum: u64 = s.sum.iter().sum();
        let min = s.min.iter().min().copied().unwrap_or(0);
        let max = s.max.iter().max().copied().unwrap_or(0);
        out.push_str(&format!(
            "  {:<28} {:>6} {:>12} {:>10} {:>10}\n",
            s.name,
            s.dt.len(),
            sum,
            min,
            max
        ));
    }
    if !cap.phases.is_empty() {
        out.push_str("\npatterns:\n");
        for (idx, phase) in cap.phases.iter().enumerate() {
            let fired = phase_patterns(cap, idx).1;
            let label = if fired.is_empty() {
                "healthy".to_string()
            } else {
                fired.join(", ")
            };
            out.push_str(&format!("  {phase:<16} {label}\n"));
        }
    }
    if let Some(tl) = timeline {
        out.push_str(&format!(
            "\nworker timeline: {} chunk(s) across {} worker(s)\n",
            tl.chunk.len(),
            tl.workers
        ));
        for (w, busy) in tl.busy_per_worker().iter().enumerate() {
            let chunks = tl.worker.iter().filter(|&&x| x == w as u64).count();
            out.push_str(&format!(
                "  worker {w}: {chunks} chunk(s), busy {:.3} ms\n",
                *busy as f64 / 1e6
            ));
        }
    }
    out
}

/// Classifies one capture phase through np-patterns (no envelope priors:
/// a capture carries counters, not the program). Returns the verdicts
/// and the fired names.
fn phase_patterns(cap: &Capture, phase: usize) -> (Vec<np_patterns::Verdict>, Vec<String>) {
    let indicators = np_patterns::Indicators::from_capture_phase(cap, phase);
    let verdicts = np_patterns::classify(&np_patterns::derive(&indicators), None);
    let fired = np_patterns::fired_names(&verdicts);
    (verdicts, fired)
}

/// The per-phase pattern band: one chip per phase, tinted with the
/// phase's band colour, labeled with the fired patterns, carrying the
/// rule evidence in a plain `title` tooltip — hover works without a
/// line of JavaScript.
fn pattern_band(cap: &Capture) -> String {
    let mut band = String::from("<p class=\"legend\">");
    for (idx, phase) in cap.phases.iter().enumerate() {
        let (verdicts, fired) = phase_patterns(cap, idx);
        let label = if fired.is_empty() {
            "healthy".to_string()
        } else {
            fired.join(" + ")
        };
        let mut tips: Vec<String> = Vec::new();
        for v in verdicts.iter().filter(|v| v.fired) {
            for e in &v.evidence {
                tips.push(format!(
                    "{}: {} {} {} (observed {})",
                    v.pattern, e.metric, e.op, e.threshold_pm, e.observed_pm
                ));
            }
        }
        if tips.is_empty() {
            tips.push("no signature fired".to_string());
        }
        let tooltip: Vec<String> = tips.iter().map(|t| html_escape(t)).collect();
        band.push_str(&format!(
            "<span style=\"background:{}\" title=\"{}\">{}: {}</span>",
            phase_color(idx as u64),
            tooltip.join("&#10;"),
            html_escape(phase),
            html_escape(&label)
        ));
    }
    if cap.phases.is_empty() {
        band.push_str("(no phases recorded)");
    }
    band.push_str("</p>\n");
    band
}

/// One sparkline: phase bands behind a per-bin mean polyline.
fn svg_sparkline(s: &SeriesDoc, width: u64, height: u64) -> String {
    let n = s.dt.len().max(1) as u64;
    let means: Vec<f64> = (0..s.dt.len())
        .map(|i| s.sum[i] as f64 / s.count[i].max(1) as f64)
        .collect();
    let peak = means.iter().cloned().fold(1.0f64, f64::max);
    let mut svg = format!(
        "<svg width=\"{width}\" height=\"{height}\" viewBox=\"0 0 {width} {height}\" \
         role=\"img\" aria-label=\"{}\">",
        html_escape(&s.name)
    );
    // Phase bands first so the polyline draws on top.
    for (i, &phase) in s.phase.iter().enumerate() {
        let x = i as u64 * width / n;
        let w = ((i as u64 + 1) * width / n).saturating_sub(x).max(1);
        svg.push_str(&format!(
            "<rect x=\"{x}\" y=\"0\" width=\"{w}\" height=\"{height}\" \
             fill=\"{}\" fill-opacity=\"0.18\"/>",
            phase_color(phase)
        ));
    }
    let points: Vec<String> = means
        .iter()
        .enumerate()
        .map(|(i, &m)| {
            let x = (i as u64 * width / n) + width / (2 * n).max(1);
            let y = height as f64 - (m / peak) * (height as f64 - 2.0) - 1.0;
            format!("{x},{y:.1}")
        })
        .collect();
    svg.push_str(&format!(
        "<polyline points=\"{}\" fill=\"none\" stroke=\"#202124\" stroke-width=\"1.5\"/>",
        points.join(" ")
    ));
    svg.push_str("</svg>");
    svg
}

/// One heatmap row: per-bin cells shaded by the bin sum relative to the
/// series peak.
fn heatmap_row(s: &SeriesDoc) -> String {
    let peak = s.sum.iter().max().copied().unwrap_or(0).max(1) as f64;
    let mut row = format!("<tr><th class=\"rowname\">{}</th>", html_escape(&s.name));
    for (i, &v) in s.sum.iter().enumerate() {
        let alpha = v as f64 / peak;
        row.push_str(&format!(
            "<td style=\"background:rgba(66,103,178,{alpha:.2})\" \
             title=\"t={} sum={v}\"></td>",
            s.t0 + s.dt[..=i].iter().sum::<u64>()
        ));
    }
    row.push_str("</tr>");
    row
}

/// The worker-chunk gantt: one lane per worker, one rect per chunk.
fn svg_timeline(tl: &Timeline, width: u64) -> String {
    let lane = 22u64;
    let height = tl.workers.max(1) * lane + 4;
    let span = tl.end_ns.iter().max().copied().unwrap_or(1).max(1);
    let mut svg = format!(
        "<svg width=\"{width}\" height=\"{height}\" viewBox=\"0 0 {width} {height}\" \
         role=\"img\" aria-label=\"worker timeline\">"
    );
    // A loaded timeline's times may be anywhere in u64: scale in u128
    // and clamp to the drawing.
    let scale = |ns: u64| {
        let x = u128::from(ns) * u128::from(width) / u128::from(span);
        x.min(u128::from(width)) as u64
    };
    for i in 0..tl.chunk.len() {
        let x = scale(tl.start_ns[i]);
        let w = scale(tl.end_ns[i].saturating_sub(tl.start_ns[i])).max(1);
        let y = tl.worker[i] * lane + 2;
        svg.push_str(&format!(
            "<rect x=\"{x}\" y=\"{y}\" width=\"{w}\" height=\"{}\" fill=\"{}\" \
             stroke=\"#fff\" stroke-width=\"0.5\"><title>chunk {} on worker {} \
             ({} ns, waited {} ns)</title></rect>",
            lane - 4,
            PALETTE[(tl.chunk[i] as usize % (PALETTE.len() - 1)) + 1],
            tl.chunk[i],
            tl.worker[i],
            tl.end_ns[i].saturating_sub(tl.start_ns[i]),
            tl.wait_ns[i]
        ));
    }
    svg.push_str("</svg>");
    svg
}

/// The full self-contained HTML document.
pub fn html_report(cap: &Capture, timeline: Option<&Timeline>) -> String {
    let mut html =
        String::from("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    html.push_str(&format!(
        "<title>np capture — {} on {}</title>\n",
        html_escape(&cap.workload),
        html_escape(&cap.machine)
    ));
    html.push_str(
        "<style>\n\
         body{font-family:ui-monospace,Menlo,Consolas,monospace;margin:2em;color:#202124}\n\
         h1{font-size:1.3em}h2{font-size:1.05em;margin-top:1.6em}\n\
         .meta{color:#5f6368}\n\
         .series{margin:.4em 0}.series b{display:inline-block;width:18em}\n\
         .legend span{display:inline-block;padding:.1em .6em;margin-right:.5em;\
         border-radius:3px;color:#fff}\n\
         table.heat{border-collapse:collapse}table.heat td{width:7px;height:14px;padding:0}\n\
         table.heat th.rowname{text-align:right;padding-right:.6em;font-weight:normal;\
         font-size:.85em}\n\
         </style>\n</head>\n<body>\n",
    );
    html.push_str(&format!(
        "<h1>np capture report</h1>\n<p class=\"meta\">workload <b>{}</b> on machine \
         <b>{}</b> — seed {}, {} repetition(s), schema {}</p>\n",
        html_escape(&cap.workload),
        html_escape(&cap.machine),
        cap.seed,
        cap.repetitions,
        html_escape(&cap.schema)
    ));

    html.push_str("<h2>Phases</h2>\n<p class=\"legend\">");
    if cap.phases.is_empty() {
        html.push_str("(none recorded)");
    }
    for (i, p) in cap.phases.iter().enumerate() {
        html.push_str(&format!(
            "<span style=\"background:{}\">{}</span>",
            phase_color(i as u64),
            html_escape(p)
        ));
    }
    html.push_str("</p>\n");

    html.push_str(
        "<h2>Pattern attribution</h2>\n<p class=\"meta\">per-phase verdicts from the \
         np-patterns signature table; hover a chip for the rule evidence</p>\n",
    );
    html.push_str(&pattern_band(cap));

    html.push_str("<h2>Per-node series</h2>\n");
    for s in &cap.series {
        html.push_str(&format!(
            "<div class=\"series\"><b>{}</b> {}</div>\n",
            html_escape(&s.name),
            svg_sparkline(s, 560, 48)
        ));
    }

    html.push_str("<h2>Intensity heatmap</h2>\n<table class=\"heat\">\n");
    for s in &cap.series {
        html.push_str(&heatmap_row(s));
        html.push('\n');
    }
    html.push_str("</table>\n");

    if let Some(tl) = timeline {
        html.push_str(&format!(
            "<h2>Worker timeline</h2>\n<p class=\"meta\">{} chunk(s) across {} \
             worker(s); hover a block for chunk, duration and queue wait</p>\n{}\n",
            tl.chunk.len(),
            tl.workers,
            svg_timeline(tl, 560)
        ));
    }

    html.push_str("</body>\n</html>\n");
    html
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_parallel::ChunkProfile;
    use np_telemetry::timeseries::Sampler;

    fn capture() -> Capture {
        let mut sampler = Sampler::new(8);
        for t in 0..6u64 {
            sampler.record_with_phase("rep0.node0.qpi", t * 100, t + 1, "measure");
            sampler.record_with_phase("rep0.node1.qpi", t * 100, 2 * t, "measure");
        }
        Capture::from_sampler("two-socket", "row-major", 9, 1, &sampler)
    }

    #[test]
    fn text_summary_lists_every_series() {
        let out = text_summary(&capture(), None);
        assert!(out.contains("rep0.node0.qpi"));
        assert!(out.contains("rep0.node1.qpi"));
        assert!(out.contains("measure"));
    }

    #[test]
    fn html_is_self_contained_and_escaped() {
        let mut cap = capture();
        cap.workload = "a<b&\"c\"".to_string();
        let tl = Timeline::from_profile(
            2,
            &[
                ChunkProfile {
                    chunk: 0,
                    worker: 0,
                    wait_ns: 3,
                    start_ns: 100,
                    end_ns: 400,
                },
                ChunkProfile {
                    chunk: 1,
                    worker: 1,
                    wait_ns: 8,
                    start_ns: 150,
                    end_ns: 300,
                },
            ],
        );
        let html = html_report(&cap, Some(&tl));
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("<svg"));
        assert!(html.contains("worker timeline"));
        assert!(html.contains("a&lt;b&amp;&quot;c&quot;"));
        // Self-contained: no scripts, no external fetches.
        assert!(!html.contains("<script"));
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(html.contains("rep0.node0.qpi"));
    }

    #[test]
    fn pattern_band_attributes_each_phase() {
        // A phase shaped like a dependent chase: deep stalls at a tiny
        // request rate. The band must flag it and carry the evidence in
        // a title tooltip; the quiet phase reads healthy.
        let mut s = Sampler::new(8);
        for (short, v) in [
            ("instructions", 10_000u64),
            ("cycles", 1_000_000),
            ("mem_stall", 900_000),
            ("local_dram", 9_000),
            ("load", 9_500),
            ("store", 100),
            ("imc_read", 9_000),
        ] {
            s.record_with_phase(&format!("rep0.node0.{short}"), 100, v, "chase");
        }
        for (short, v) in [
            ("instructions", 100_000u64),
            ("cycles", 200_000),
            ("mem_stall", 10_000),
            ("local_dram", 500),
            ("load", 50_000),
            ("imc_read", 500),
        ] {
            s.record_with_phase(&format!("rep0.node0.{short}"), 200, v, "idle");
        }
        let cap = Capture::from_sampler("two-socket", "chase", 1, 1, &s);
        let html = html_report(&cap, None);
        assert!(html.contains("Pattern attribution"), "{html}");
        assert!(html.contains("chase: latency-bound"), "{html}");
        assert!(html.contains("idle: healthy"), "{html}");
        assert!(
            html.contains("title=\"latency-bound: mem_stall_frac &gt;= 750 (observed 900)"),
            "{html}"
        );
        assert!(!html.contains("<script"));

        let text = text_summary(&cap, None);
        assert!(text.contains("patterns:"), "{text}");
        assert!(text.contains("latency-bound"), "{text}");
    }

    #[test]
    fn sparkline_scales_to_the_series_peak() {
        let cap = capture();
        let svg = svg_sparkline(&cap.series[0], 560, 48);
        assert!(svg.contains("<polyline"));
        // One phase band per bin.
        assert_eq!(svg.matches("<rect").count(), cap.series[0].dt.len());
    }
}
