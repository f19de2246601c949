//! The paper's Figure 1 use-case, end to end: two vehicles meet at a
//! blind-corner intersection; only the road-side infrastructure can see
//! (and warn about) the conflict.
//!
//! ```sh
//! cargo run --example intersection --release
//! ```
//!
//! Exits 1 unless the seed-42 run with infrastructure stops clear of the
//! crossing and the matching run without it collides (the smoke
//! `scripts/check.sh` runs).

use its_testbed::intersection::{IntersectionConfig, IntersectionRecord, IntersectionScenario};

fn run_and_print(title: &str, config: IntersectionConfig) -> IntersectionRecord {
    let record = IntersectionScenario::new(config).run();
    println!("{title}");
    println!(
        "  DENM sent: {} | delivered: {} | protagonist stopped: {}",
        record.denm_sent, record.denm_delivered, record.protagonist_stopped
    );
    if let Some(m) = record.halt_margin_m {
        println!("  halt margin before the crossing: {m:.2} m");
    }
    println!(
        "  min separation: {:.2} m -> {}",
        record.min_separation_m,
        if record.collision {
            "COLLISION"
        } else {
            "no collision"
        }
    );
    println!("  trace:");
    for e in record.trace.events() {
        println!("    {e}");
    }
    println!();
    record
}

fn main() {
    println!("Blind-corner intersection: protagonist (ETSI ITS OBU) meets a");
    println!("non-connected road user; the corner blocks vision and V2V radio.\n");

    let with = run_and_print(
        "with road-side infrastructure (camera + edge + RSU):",
        IntersectionConfig {
            seed: 42,
            ..IntersectionConfig::default()
        },
    );

    let without = run_and_print(
        "without infrastructure (the ablation):",
        IntersectionConfig {
            seed: 42,
            with_infrastructure: false,
            ..IntersectionConfig::default()
        },
    );

    // Sensitivity: how tight can the conflict window be before real
    // conflicts are missed, and how loose before phantom braking? The
    // road user's start is offset 0–3 m across seeds, grading the timing
    // difference from head-on conflict to a clear miss; ground truth for
    // each timing comes from the matching no-infrastructure run.
    println!("conflict-window sweep (timing offsets 0–3 m, 24 seeds each):");
    println!("  window (s)   DENMs sent   collisions w/infra   phantom stops");
    for window in [0.25, 0.5, 1.0, 1.5, 2.5] {
        let mut sent = 0;
        let mut missed = 0;
        let mut phantom = 0;
        for seed in 0..24u64 {
            let offset = (seed % 4) as f64;
            let cfg = IntersectionConfig {
                seed,
                conflict_window_s: window,
                road_user_start_m: 6.0 + offset,
                ..IntersectionConfig::default()
            };
            let baseline = IntersectionScenario::new(IntersectionConfig {
                with_infrastructure: false,
                ..cfg.clone()
            })
            .run();
            let r = IntersectionScenario::new(cfg).run();
            if r.denm_sent {
                sent += 1;
                if !baseline.collision {
                    phantom += 1; // braked although they would have missed
                }
            }
            if r.collision {
                missed += 1;
            }
        }
        println!("  {window:>9.2}   {sent:>10}   {missed:>18}   {phantom:>13}");
    }
    println!();
    println!("Narrow windows only fire on genuinely aligned timings; very wide");
    println!("windows brake for near-misses too (phantom stops) and can even park");
    println!("the protagonist right at the crossing edge while the road user");
    println!("passes — counted above as collisions in the with-infrastructure runs.");

    let stopped_clear =
        with.protagonist_stopped && !with.collision && with.halt_margin_m.is_some_and(|m| m > 0.0);
    if !stopped_clear || !without.collision {
        eprintln!(
            "intersection smoke failed: with infrastructure stopped clear = {stopped_clear}, \
             without infrastructure collided = {}",
            without.collision
        );
        std::process::exit(1);
    }
}
