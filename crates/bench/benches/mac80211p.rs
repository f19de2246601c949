//! Access-layer microbenchmarks: OFDM airtime, EDCA channel access and
//! the channel's SNR→FER link model — the ingredients of Table II's
//! 1.6 ms RSU→OBU hop.

use criterion::{criterion_group, criterion_main, Criterion};
use phy80211p::channel::{Channel, ChannelConfig, Position2D};
use phy80211p::edca::{AccessCategory, EdcaParams, Medium};
use phy80211p::ofdm::{airtime, DataRate};
use sim_core::{SimRng, SimTime};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Print the per-rate airtime of a DENM-sized frame — the series
    // behind the radio-hop number.
    println!("\nairtime of a 110-byte DENM frame per ITS-G5 data rate:");
    for rate in DataRate::ALL {
        println!("  {:>10}  {}", rate.to_string(), airtime(110, rate));
    }
    println!("\nEDCA AIFS per access category (10 MHz timing):");
    for ac in AccessCategory::ALL {
        let p = EdcaParams::for_category(ac);
        println!(
            "  {ac:?}: AIFSN {} CWmin {} -> AIFS {}",
            p.aifsn,
            p.cw_min,
            p.aifs()
        );
    }

    // DCC under load: the station-count sweep of the congestion
    // experiment (its_testbed::congestion).
    println!("\nCAM beaconing with reactive DCC (20 s simulated):");
    print!(
        "{}",
        its_testbed::congestion::sweep_station_count(
            &its_testbed::Runner::from_env(),
            &its_testbed::congestion::CongestionConfig::default(),
            &[2, 10, 40, 120],
        )
    );

    c.bench_function("mac/airtime", |b| {
        b.iter(|| black_box(airtime(black_box(110), DataRate::Mbps6)))
    });

    let voice = EdcaParams::for_category(AccessCategory::Voice);
    let mut busy = Medium::new();
    busy.occupy(SimTime::from_micros(500));
    c.bench_function("mac/edca_access_busy_medium", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| black_box(voice.access_time(SimTime::ZERO, black_box(&busy), &mut rng)))
    });

    let channel = Channel::new(ChannelConfig::default());
    c.bench_function("channel/transmit_with_fading", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| {
            black_box(channel.transmit(
                SimTime::ZERO,
                Position2D::new(0.0, 1.0),
                Position2D::new(black_box(2.0), 0.0),
                110,
                DataRate::Mbps6,
                &mut rng,
            ))
        })
    });

    c.bench_function("channel/frame_error_rate", |b| {
        b.iter(|| black_box(channel.frame_error_rate(black_box(8.0), 110, DataRate::Mbps6)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
