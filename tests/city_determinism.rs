//! The city node-count campaign must be byte-identical however it is
//! executed: serial in-process, the deterministic thread pool, or the
//! socket-worker executor.
//!
//! City jobs are not scenario runs, so every executor reaches them
//! through [`Executor::run_indexed`]'s in-process path — which is
//! exactly the contract this test pins: the *same* seeded simulation
//! per index, merged in index order, regardless of worker count.

use campaignd::FanoutExecutor;
use its_testbed::campaign::{CampaignRegistry, CampaignSpec, Serial};
use its_testbed::city::{sweep_city, sweep_city_records, CityConfig};
use its_testbed::{Runner, ScenarioConfig};
use shard::transport::serve_connections;
use sim_core::SimDuration;
use std::net::{SocketAddr, TcpListener};

const COUNTS: [usize; 3] = [40, 70, 100];

fn base() -> CityConfig {
    CityConfig {
        duration: SimDuration::from_secs(2),
        ..CityConfig::default()
    }
}

/// A registry entry so the socket-worker executor can be constructed;
/// city jobs run through `run_indexed`, not through this grid.
fn city_anchor_grid() -> Vec<CampaignSpec> {
    vec![CampaignSpec::new(ScenarioConfig::default(), 4)]
}

/// An in-process socket worker thread serving the anchor registry.
fn spawn_worker() -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind worker");
    let addr = listener.local_addr().expect("worker addr");
    std::thread::spawn(move || {
        let registry = CampaignRegistry::new().register("city_anchor", city_anchor_grid);
        serve_connections(&listener, &registry);
    });
    addr
}

#[test]
fn city_campaign_is_byte_identical_across_executors() {
    let serial_table = sweep_city(&Serial, &base(), &COUNTS);
    let serial_records = sweep_city_records(&Serial, &base(), &COUNTS);

    for threads in [2, 8] {
        let runner = Runner::new(threads);
        assert_eq!(
            sweep_city(&runner, &base(), &COUNTS),
            serial_table,
            "{threads}-thread runner table diverged"
        );
        assert_eq!(
            sweep_city_records(&runner, &base(), &COUNTS),
            serial_records,
            "{threads}-thread runner records diverged"
        );
    }

    for workers in [2, 4] {
        let addrs: Vec<SocketAddr> = (0..workers).map(|_| spawn_worker()).collect();
        let fanout = FanoutExecutor::new("city_anchor", city_anchor_grid(), addrs);
        assert_eq!(
            sweep_city(&fanout, &base(), &COUNTS),
            serial_table,
            "{workers}-worker fanout table diverged"
        );
        assert_eq!(
            sweep_city_records(&fanout, &base(), &COUNTS),
            serial_records,
            "{workers}-worker fanout records diverged"
        );
    }
}

#[test]
fn city_records_carry_the_requested_counts_in_order() {
    let records = sweep_city_records(&Serial, &base(), &COUNTS);
    let ns: Vec<usize> = records.iter().map(|r| r.n_stations).collect();
    assert_eq!(ns, COUNTS.to_vec());
}
