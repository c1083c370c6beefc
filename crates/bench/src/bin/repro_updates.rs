//! Section 5.4 — update cost of the signature index.
//!
//! The paper claims (and its conclusion reiterates) that the index is
//! robust under network updates because exponential categories and
//! next-hop-only links localize the impact of edge changes. This experiment
//! quantifies it: random edge-weight increases/decreases and edge
//! removals/insertions, reporting signature entries touched, nodes
//! re-encoded and pages written, against the full-rebuild yardstick
//! (N × D entries).
//!
//! A second table measures what the distance oracle pays for the same
//! locality: a publish repairs the contraction hierarchy *in the order it
//! already has* and the hub labels over it, so the order ages while the
//! weights move. Publishes of the benchmark's shape (8 random edges
//! re-weighted to 1..=200) are chained and, at checkpoints, the kept order
//! is compared with one chosen afresh for the network as it stands.

use dsi_bench::{paper_dataset, paper_network, print_table, timed, Scale};
use dsi_graph::{NodeId, INFINITY};
use dsi_hierarchy::{ChConfig, ContractionHierarchy, HubLabels};
use dsi_service::generate_updates;
use dsi_signature::{SignatureIndex, SignatureMaintainer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut scale = Scale::from_env();
    // Updates keep per-object spanning trees; cap the default scale.
    if std::env::var("DSI_NODES").is_err() {
        scale.nodes = scale.nodes.min(8_000);
    }
    let rounds = scale.queries.min(50);
    println!(
        "Section 5.4 reproduction — nodes={} rounds={rounds} seed={}",
        scale.nodes, scale.seed
    );
    let mut net = paper_network(&scale);
    let objects = paper_dataset(&net, "0.01", scale.seed);
    let mut idx = SignatureIndex::build(&net, &objects, &dsi_bench::paper_signature_config(&net));
    let (mut maint, t_maint) = timed(|| SignatureMaintainer::new(&net, &objects));
    println!(
        "D = {}, maintenance state built in {t_maint:.1}s; full rebuild = {} entries",
        objects.len(),
        net.num_nodes() * objects.len()
    );

    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xfeed);
    type WeightChange = fn(u32) -> u32;
    let kinds: [(&str, WeightChange); 4] = [
        ("weight +50%", |w| w + (w / 2).max(1)),
        ("weight −50%", |w| (w - w / 2).max(1)),
        ("remove edge", |_| INFINITY),
        ("restore edge", |_| 5),
    ];
    let header: Vec<String> = [
        "update kind",
        "entries/update",
        "nodes/update",
        "pages/update",
        "trees hit",
        "ms/update",
        "% of rebuild",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let full_entries = (net.num_nodes() * objects.len()) as f64;
    for (name, f) in kinds {
        let mut entries = 0u64;
        let mut nodes = 0u64;
        let mut pages = 0u64;
        let mut trees = 0u64;
        let mut removed: Vec<(NodeId, NodeId)> = Vec::new();
        let (_, secs) = timed(|| {
            for _ in 0..rounds {
                let (u, v, w) = if name == "restore edge" {
                    match removed.pop() {
                        Some((u, v)) => (u, v, INFINITY),
                        None => {
                            // Nothing to restore; remove one first.
                            let (u, v, _) = random_edge(&net, &mut rng);
                            (u, v, INFINITY)
                        }
                    }
                } else {
                    random_edge(&net, &mut rng)
                };
                let new_w = f(w.min(INFINITY - 2));
                if new_w == INFINITY {
                    removed.push((u, v));
                }
                let r = maint.update_edge(&mut net, &mut idx, u, v, new_w);
                entries += r.entries_changed as u64;
                nodes += r.nodes_reencoded as u64;
                pages += r.pages_touched;
                trees += r.objects_affected as u64;
            }
        });
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", entries as f64 / rounds as f64),
            format!("{:.1}", nodes as f64 / rounds as f64),
            format!("{:.1}", pages as f64 / rounds as f64),
            format!("{:.1}", trees as f64 / rounds as f64),
            format!("{:.2}", 1000.0 * secs / rounds as f64),
            format!(
                "{:.3}%",
                100.0 * entries as f64 / (rounds as f64 * full_entries)
            ),
        ]);
    }
    print_table(
        "§5.4: signature maintenance cost per edge update",
        &header,
        &rows,
    );
    println!("\npaper's claim: updates touch a small fraction of the index (local impact)");

    order_drift(&scale);
}

/// Chain publishes with the contraction order held fixed (repair) and, at
/// checkpoints, re-choose it (build): shortcuts, label length and bytes on
/// both sides, and what each costs.
fn order_drift(scale: &Scale) {
    let publishes = (4 * scale.queries).min(200);
    let mut net = paper_network(scale);
    let n = net.num_nodes() as f64;
    let mut ch = ContractionHierarchy::build(&net, &ChConfig::default());
    let mut hl = HubLabels::build(&ch);
    let header: Vec<String> = [
        "publish",
        "kept: shortcuts",
        "avg label",
        "label B/node",
        "fresh: shortcuts",
        "avg label",
        "label B/node",
        "drift",
        "repair ms (median)",
        "recontracted",
        "relabelled",
        "rebuild ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut rows = Vec::new();
    let (mut repair_ms, mut recontracted, mut relabelled) = (Vec::new(), Vec::new(), Vec::new());
    for publish in 1..=publishes {
        let log: Vec<_> = generate_updates(&net, 8, scale.seed + publish as u64)
            .into_iter()
            .map(|(a, b, w)| (a, b, net.set_edge_weight(a, b, w)))
            .collect();
        let ((new_ch, new_hl, work), secs) = timed(|| {
            let (new_ch, redone) = ch.repaired(&net, &log);
            let (new_hl, work) = hl.repaired(&ch, &new_ch);
            (new_ch, new_hl, (redone, work.rebuilt))
        });
        (ch, hl) = (new_ch, new_hl);
        repair_ms.push(1e3 * secs);
        recontracted.push(work.0);
        relabelled.push(work.1);
        if ![1, 8, 25, 50, 100, 200].contains(&publish) && publish != publishes {
            continue;
        }
        let ((fresh_ch, fresh_hl), rebuild_secs) = timed(|| {
            let fresh = ContractionHierarchy::build(&net, &ChConfig::default());
            let labels = HubLabels::build(&fresh);
            (fresh, labels)
        });
        repair_ms.sort_by(f64::total_cmp);
        recontracted.sort_unstable();
        relabelled.sort_unstable();
        rows.push(vec![
            publish.to_string(),
            ch.num_shortcuts().to_string(),
            format!("{:.3}", hl.avg_label_len()),
            format!("{:.1}", hl.label_bytes() as f64 / n),
            fresh_ch.num_shortcuts().to_string(),
            format!("{:.3}", fresh_hl.avg_label_len()),
            format!("{:.1}", fresh_hl.label_bytes() as f64 / n),
            format!(
                "{:+.2}%",
                100.0 * (hl.avg_label_len() / fresh_hl.avg_label_len() - 1.0)
            ),
            format!("{:.1}", repair_ms[repair_ms.len() / 2]),
            recontracted[recontracted.len() / 2].to_string(),
            relabelled[relabelled.len() / 2].to_string(),
            format!("{:.1}", 1e3 * rebuild_secs),
        ]);
        repair_ms.clear();
        recontracted.clear();
        relabelled.clear();
    }
    print_table(
        "order drift: hierarchy + labels repaired in a kept order vs rebuilt in a fresh one \
         (repair columns: medians since the previous row)",
        &header,
        &rows,
    );
}

fn random_edge(net: &dsi_graph::RoadNetwork, rng: &mut StdRng) -> (NodeId, NodeId, u32) {
    loop {
        let u = NodeId(rng.gen_range(0..net.num_nodes() as u32));
        let nbrs: Vec<_> = net
            .neighbors(u)
            .filter(|&(_, _, w)| w != INFINITY)
            .collect();
        if nbrs.is_empty() {
            continue;
        }
        let (_, v, w) = nbrs[rng.gen_range(0..nbrs.len())];
        return (u, v, w);
    }
}
