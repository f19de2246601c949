//! The city node-count campaign must be byte-identical however it is
//! executed: serial in-process or on the deterministic thread pool.
//!
//! City jobs are not scenario runs, so both executors reach them
//! through `Executor::run_indexed` — which is exactly the contract this
//! test pins: the *same* seeded simulation per index, merged in index
//! order, regardless of thread count.

use its_testbed::campaign::Serial;
use its_testbed::city::{sweep_city, sweep_city_records, CityConfig};
use its_testbed::Runner;
use sim_core::SimDuration;

const COUNTS: [usize; 3] = [40, 70, 100];

fn base() -> CityConfig {
    CityConfig {
        duration: SimDuration::from_secs(2),
        ..CityConfig::default()
    }
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
}

#[test]
fn city_records_carry_the_requested_counts_in_order() {
    let records = sweep_city_records(&Serial, &base(), &COUNTS);
    let ns: Vec<usize> = records.iter().map(|r| r.n_stations).collect();
    assert_eq!(ns, COUNTS.to_vec());
}
