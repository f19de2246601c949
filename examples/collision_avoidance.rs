//! Full evaluation-section reproduction: regenerates Table I, Table II,
//! Figure 11, Table III and Figure 10 from batches of simulated runs,
//! printing each next to the paper's reported values. Each artefact is
//! followed by what the paper's handful of physical runs could not give:
//! a larger campaign, fitted distributions with bootstrap confidence
//! intervals, the §IV-B full-size braking extrapolation and a frame-rate
//! sensitivity sweep. The last table is the §V interface comparison:
//! the same scenario with the DENM carried over 802.11p and over three
//! cellular profiles.
//!
//! ```sh
//! cargo run --example collision_avoidance --release
//! ```
//!
//! Every campaign starts at base seed 20230627, the seed behind the
//! tracked Table II and Table III fingerprints; the interface table runs
//! seeds 3000–3029 per interface.

use its_testbed::experiments::{self, paper};
use its_testbed::metrics::{bootstrap_ci, fit_normal, fit_shifted_exponential, ks_statistic, mean};
use its_testbed::scaling::{extrapolate_braking_distance, BrakingProfile};
use its_testbed::scenario::{DenmLink, Scenario, ScenarioConfig};
use its_testbed::Runner;
use perception::camera::RoadSideCamera;
use phy80211p::cellular::CellularProfile;

/// Formats the mean, population standard deviation, min and max of a
/// campaign column.
fn stat_line(name: &str, xs: &[f64]) -> String {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    format!(
        "{name}: mean {mean:.2}, sd {:.2}, min {:.2}, max {:.2} (n={})",
        var.sqrt(),
        xs.iter().copied().fold(f64::INFINITY, f64::min),
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        xs.len()
    )
}

fn main() {
    let base = ScenarioConfig {
        seed: 20230627,
        ..ScenarioConfig::default()
    };
    // Campaigns run through the generic Executor API; the thread runner
    // honours RUNNER_THREADS and changes nothing but the wall-clock.
    let exec = Runner::from_env();

    println!("{}", experiments::table1());

    // --- Table II: five runs, like the paper, then the §IV-C headline
    // claim over a larger campaign. ---
    let t2 = experiments::table2(&exec, &base, 5);
    println!("{}", t2.render());
    println!(
        "paper reference: #2->#3 avg {:.1} | #3->#4 avg {:.1} | #4->#5 avg {:.1} | total avg {:.1} ms",
        mean(&paper::INTERVAL_2_3),
        mean(&paper::INTERVAL_3_4),
        mean(&paper::INTERVAL_4_5),
        mean(&paper::TOTAL)
    );
    let t2_large = experiments::table2(&exec, &base, 200);
    println!("\n200-run campaign:");
    println!("  {}", stat_line("#2->#3 (ms)", &t2_large.interval_2_3));
    println!("  {}", stat_line("#3->#4 (ms)", &t2_large.interval_3_4));
    println!("  {}", stat_line("#4->#5 (ms)", &t2_large.interval_4_5));
    println!("  {}", stat_line("total  (ms)", &t2_large.total));
    let max = t2_large.total.iter().copied().fold(0.0f64, f64::max);
    println!("  headline claim (all < 100 ms): {}\n", max < 100.0);

    // --- Figure 11: EDF of total delay, then the distribution fit the
    // paper lists as future work ("more measurements to produce a more
    // comprehensive CDF … and possibly model it"). ---
    let f11 = experiments::fig11(&exec, &base, 5);
    println!("{}", f11.render());
    let f11_large = experiments::fig11(&exec, &base, 150);
    let normal = fit_normal(&f11_large.edf);
    let sexp = fit_shifted_exponential(&f11_large.edf);
    println!("150-run CDF:");
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
        println!(
            "  p{:<4} {:>6.1} ms",
            (q * 100.0) as u32,
            f11_large.edf.quantile(q)
        );
    }
    println!(
        "  normal fit mu={:.1} sigma={:.1} (KS {:.3})",
        normal.mean,
        normal.std_dev,
        ks_statistic(&f11_large.edf, |x| normal.cdf(x))
    );
    println!(
        "  shifted-exp fit shift={:.1} scale={:.1} (KS {:.3})",
        sexp.shift,
        sexp.scale,
        ks_statistic(&f11_large.edf, |x| sexp.cdf(x))
    );
    // Error bars the paper's five runs cannot provide.
    let ci5 = bootstrap_ci(&f11.edf, mean, 0.95, 4000, 11);
    let ci150 = bootstrap_ci(&f11_large.edf, mean, 0.95, 4000, 11);
    println!(
        "  mean total delay 95% CI: n=5 [{:.1}, {:.1}] ms | n=150 [{:.1}, {:.1}] ms\n",
        ci5.low, ci5.high, ci150.low, ci150.high
    );

    // --- Table III: seven runs, like the paper, a larger campaign, and
    // the §IV-B outlook mapping the measured mean to full size. ---
    let t3 = experiments::table3(&exec, &base, 7);
    println!("{}", t3.render());
    println!(
        "paper reference: {:?} (avg {:.2} m, variance 0.0022)",
        paper::BRAKING,
        mean(&paper::BRAKING)
    );
    let t3_large = experiments::table3(&exec, &base, 100);
    println!("\n100-run campaign:");
    println!(
        "  {}",
        stat_line("braking distance (m)", &t3_large.braking_m)
    );
    let scale = BrakingProfile::scale_power_cut();
    let service = BrakingProfile::full_size_service_brake();
    let emergency = BrakingProfile::full_size_emergency_brake();
    println!(
        "\nfull-size extrapolation of the measured mean ({:.2} m @ 1.5 m/s):",
        t3.mean()
    );
    for (label, profile, v_kmh) in [
        ("service brake @ 50 km/h", &service, 50.0),
        ("service brake @ 100 km/h", &service, 100.0),
        ("AEB @ 50 km/h", &emergency, 50.0),
        ("AEB @ 100 km/h", &emergency, 100.0),
    ] {
        let d = extrapolate_braking_distance(t3.mean(), &scale, 1.5, profile, v_kmh / 3.6);
        println!("  {label}: {d:.1} m");
    }
    println!();

    // --- Figure 10: video-frame detection-to-stop, and how the method's
    // quantisation error shrinks with the processing frame rate. ---
    let f10 = experiments::fig10(&base);
    println!("{}", f10.render());
    println!("frame-rate sensitivity (same run, re-measured):");
    for fps in [2.0, 4.0, 8.0, 15.0] {
        let f = experiments::fig10(&ScenarioConfig {
            camera: RoadSideCamera {
                processed_fps: fps,
                ..RoadSideCamera::default()
            },
            ..base.clone()
        });
        println!(
            "  {fps:>4.0} FPS: true {:.3} s, frame-measured {:.3} s (err {:+.3} s)",
            f.true_detection_to_stop_s,
            f.frame_measured_s,
            f.frame_measured_s - f.true_detection_to_stop_s
        );
    }

    // --- §V: "installing a 5G module in the robotic vehicles, to compare
    // the same detection-to-action delay over a different interface". ---
    println!("\ndetection-to-action per access technology (30 runs each):");
    println!("  interface       RSU->OBU hop (ms)   total delay (ms)   <100ms");
    for (name, link) in [
        ("802.11p", DenmLink::Its80211p),
        ("5G URLLC", DenmLink::Cellular(CellularProfile::urllc_5g())),
        ("5G NSA", DenmLink::Cellular(CellularProfile::nsa_5g())),
        ("LTE Uu", DenmLink::Cellular(CellularProfile::lte_uu())),
    ] {
        let records = exec.run(30, |i| {
            Scenario::new(ScenarioConfig {
                seed: 3000 + i as u64,
                denm_link: link,
                ..base.clone()
            })
            .run()
        });
        let mut hop = Vec::new();
        let mut total = Vec::new();
        for r in &records {
            if let (Some(h), Some(t)) = (r.interval_3_4_ms(), r.total_delay_ms()) {
                hop.push(h as f64);
                total.push(t as f64);
            }
        }
        let all_under = total.iter().all(|&t| t < 100.0);
        println!(
            "  {name:<12}   {:>17.1}   {:>16.1}   {all_under}",
            mean(&hop),
            mean(&total)
        );
    }
}
