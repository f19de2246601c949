//! Golden pins for the cooperative scenarios: every field of the
//! intersection, platoon and congestion records, floats by bit
//! pattern and traces by digest, plus the cross-scenario sweep's
//! fingerprint.
//!
//! The other gates compare these scenarios with themselves (executor
//! against executor, a run against its rerun). These pin absolute
//! values, so a change that moves every executor the same way still
//! fails here. Each record renders as one line; destructuring names
//! every field, so a field added to a record fails to compile here
//! until it is pinned too.

use facilities::cpm::CpServiceConfig;
use faults::{FaultKind, FaultNode, FaultPlan, FaultSpec, FaultStats, FaultWindow};
use its_testbed::campaign::Serial;
use its_testbed::congestion::{run_congestion, CongestionConfig, CongestionRecord};
use its_testbed::coopsweep::coop_sweep;
use its_testbed::faultsweep::plan_for;
use its_testbed::intersection::{
    IntersectionConfig, IntersectionRecord, IntersectionScenario, SecondHazard,
};
use its_testbed::platoon::{run_platoon, PlatoonConfig, PlatoonLink, PlatoonRecord};
use phy80211p::cellular::CellularProfile;
use vehicle::watchdog::WatchdogConfig;

/// `-` for an all-zero fault ledger, its `Debug` text otherwise.
fn fault_text(fault: &FaultStats) -> String {
    if *fault == FaultStats::default() {
        "-".to_owned()
    } else {
        format!("{fault:?}")
    }
}

fn bits(xs: &[f64]) -> String {
    let hex: Vec<String> = xs.iter().map(|x| format!("{:x}", x.to_bits())).collect();
    format!("[{}]", hex.join(","))
}

fn intersection_line(record: &IntersectionRecord) -> String {
    let IntersectionRecord {
        denm_sent,
        denm_delivered,
        actuation,
        protagonist_stopped,
        halt_margin_m,
        min_separation_m,
        collision,
        cpm_sent,
        cpm_delivered,
        cpm_extended_detections,
        second_hazard_braked,
        second_hazard_via_cpm,
        fault,
        trace,
    } = record;
    format!(
        "sent={denm_sent} deliv={denm_delivered} act={} stop={protagonist_stopped} \
         margin={} sep={:x} coll={collision} cpm={cpm_sent}/{cpm_delivered}/{cpm_extended_detections} \
         hazard2={second_hazard_braked}/{second_hazard_via_cpm} fault={} trace={:016x}",
        actuation.map_or("-".to_owned(), |t| t.as_nanos().to_string()),
        halt_margin_m.map_or("-".to_owned(), |m| format!("{:x}", m.to_bits())),
        min_separation_m.to_bits(),
        fault_text(fault),
        trace.digest(),
    )
}

fn platoon_line(record: &PlatoonRecord) -> String {
    let PlatoonRecord {
        denm_rx_ms,
        action_ms,
        braking_m,
        min_gap_m,
        platoon_action_ms,
        undelivered,
        cascade_depth,
        failsafe_stops,
        heartbeats_delivered,
        fault,
    } = record;
    format!(
        "rx={} act={} brake={} gap={:x} worst={:x} undeliv={undelivered} \
         cascade={cascade_depth} failsafe={failsafe_stops} hb={heartbeats_delivered} fault={}",
        bits(denm_rx_ms),
        bits(action_ms),
        bits(braking_m),
        min_gap_m.to_bits(),
        platoon_action_ms.to_bits(),
        fault_text(fault),
    )
}

fn congestion_line(record: &CongestionRecord) -> String {
    let CongestionRecord {
        n_stations,
        cams_transmitted,
        cam_rate_hz,
        mean_cbr,
        airtime_on_air_ns,
        worst_dcc_state,
    } = record;
    format!(
        "n={n_stations} cams={cams_transmitted} rate={:x} cbr={:x} air={airtime_on_air_ns} \
         dcc={worst_dcc_state:?}",
        cam_rate_hz.to_bits(),
        mean_cbr.to_bits(),
    )
}

/// Compares rendered lines with their pins one by one, so a failure
/// names the first record that moved.
fn assert_lines(what: &str, actual: &[String], expected: &str) {
    let expected: Vec<&str> = expected
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    for (i, (a, e)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(a, e, "{what}: record {i} moved");
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "{what}: record count\n{}",
        actual.join("\n")
    );
}

fn intersection(config: IntersectionConfig) -> String {
    intersection_line(&IntersectionScenario::new(config).run())
}

fn blind_corner(cpm_on: bool) -> IntersectionConfig {
    IntersectionConfig {
        seed: 1,
        protagonist_start_m: 12.0,
        road_user_start_m: 5.0,
        conflict_window_s: 0.8,
        second_hazard: Some(SecondHazard::default()),
        cpm: cpm_on.then(CpServiceConfig::default),
        ..IntersectionConfig::default()
    }
}

#[test]
fn intersection_default_seeds_are_pinned() {
    let lines: Vec<String> = (0..32)
        .map(|seed| {
            intersection(IntersectionConfig {
                seed,
                ..IntersectionConfig::default()
            })
        })
        .collect();
    assert_lines("intersection seeds 0..32", &lines, INTERSECTION_SEEDS);
}

#[test]
fn intersection_variants_are_pinned() {
    let lines = vec![
        intersection(IntersectionConfig {
            seed: 42,
            with_infrastructure: false,
            ..IntersectionConfig::default()
        }),
        intersection(blind_corner(true)),
        intersection(blind_corner(false)),
        intersection(IntersectionConfig {
            seed: 1,
            fault_plan: FaultPlan::new(vec![FaultSpec {
                kind: FaultKind::StuckTransmitter {
                    node: FaultNode::Rsu,
                },
                window: FaultWindow::always(),
            }]),
            ..IntersectionConfig::default()
        }),
        intersection(IntersectionConfig {
            seed: 3,
            cpm: Some(CpServiceConfig::default()),
            fault_plan: plan_for("rsu_silence", 0.5),
            ..IntersectionConfig::default()
        }),
    ];
    assert_lines("intersection variants", &lines, INTERSECTION_VARIANTS);
}

#[test]
fn platoon_variants_are_pinned() {
    let configs = [
        PlatoonConfig::default(),
        PlatoonConfig {
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::nsa_5g()),
            ..PlatoonConfig::default()
        },
        PlatoonConfig {
            link: PlatoonLink::LeaderCellularRelay(CellularProfile::lte_uu()),
            ..PlatoonConfig::default()
        },
        PlatoonConfig {
            leader_brakes_on_detection: true,
            ..PlatoonConfig::default()
        },
        PlatoonConfig {
            watchdog: Some(WatchdogConfig::default()),
            fault_plan: plan_for("leader_silence", 1.0),
            ..PlatoonConfig::default()
        },
    ];
    let lines: Vec<String> = configs
        .iter()
        .flat_map(|base| {
            (1..=3).map(move |seed| {
                platoon_line(&run_platoon(&PlatoonConfig {
                    seed,
                    ..base.clone()
                }))
            })
        })
        .collect();
    assert_lines("platoon variants × seeds 1..=3", &lines, PLATOON);
}

#[test]
fn congestion_is_pinned() {
    let lines: Vec<String> = [10, 40]
        .into_iter()
        .map(|n_stations| {
            congestion_line(&run_congestion(&CongestionConfig {
                n_stations,
                ..CongestionConfig::default()
            }))
        })
        .collect();
    assert_lines("congestion at 10 and 40 stations", &lines, CONGESTION);
}

#[test]
fn coop_sweep_fingerprint_is_pinned() {
    let fp = coop_sweep(&Serial, 4100, 1).fingerprint();
    assert_eq!(format!("{fp:#018x}"), "0x1611b76f65fb7240");
}

const INTERSECTION_SEEDS: &str = "
    sent=true deliv=true act=1706547903 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=346457227bd562bf
    sent=true deliv=true act=1695264612 stop=true margin=4009218dd996f085 sep=4009218e25eaf338 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=78378a08893fd041
    sent=true deliv=true act=1763992507 stop=true margin=4008685e21888f8c sep=4008685e701fb082 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=a7c0cdc994d62c19
    sent=true deliv=true act=1714885618 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=12354799e2b3ff23
    sent=true deliv=true act=1689342019 stop=true margin=4009218dd996f085 sep=4009218e25eaf338 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=a1aed020ab623afa
    sent=true deliv=true act=1747486726 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=e7f106a0df5e01e1
    sent=true deliv=true act=1745128892 stop=true margin=4008685e21888f8c sep=4008685e701fb082 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=9d237e7f83180d1e
    sent=true deliv=true act=1739079440 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=86d45c5bae6d5e48
    sent=true deliv=true act=1712726936 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=30066c10d8eb16db
    sent=true deliv=true act=1733612169 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=a43741a05c8791d3
    sent=true deliv=true act=1770050421 stop=true margin=4008685e21888f8c sep=4008685e701fb082 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=850b820ab49e079f
    sent=true deliv=true act=1718836945 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=2a8f6fdacf3734d2
    sent=true deliv=true act=1779114948 stop=true margin=40082aa2168cdf81 sep=40082aa265ecc3b5 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=773905e39dc4d17a
    sent=true deliv=true act=1755682197 stop=true margin=4008685e21888f8c sep=4008685e701fb082 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=51f0d668cf156e53
    sent=true deliv=true act=1752328808 stop=true margin=4008685e21888f8c sep=4008685e701fb082 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=cb18aab41ee8ae71
    sent=true deliv=true act=1731533442 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=5d23e697de27dd35
    sent=true deliv=true act=1714466975 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=80f44402edb411fd
    sent=true deliv=true act=1729297591 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=b2f14997cbd34ffd
    sent=true deliv=true act=1737758539 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=8e2925ea848b3edf
    sent=true deliv=true act=1728739321 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=fba474b714496805
    sent=true deliv=true act=1701843073 stop=true margin=4009218dd996f085 sep=4009218e25eaf338 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=b367d1d9d2e78cb3
    sent=true deliv=true act=1722173273 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=a9c854707a634e35
    sent=true deliv=true act=1751642989 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=1b45ddf537fb3426
    sent=true deliv=true act=1702601419 stop=true margin=4009218dd996f085 sep=4009218e25eaf338 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=58f1ffa1318debdd
    sent=true deliv=true act=1726531565 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=68bd434a5b8b6c92
    sent=true deliv=true act=1681597065 stop=true margin=40095f46f3bda6cd sep=40095f473f57fa66 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=4b4a2b9f68a15b7a
    sent=true deliv=true act=1695487957 stop=true margin=4009218dd996f085 sep=4009218e25eaf338 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=21479cc3d9ed7790
    sent=true deliv=true act=1739587636 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=dd63da0f492401ed
    sent=true deliv=true act=1732569259 stop=true margin=4008a619706a3c3a sep=4008a619be3c89e9 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=94520b8b182095b1
    sent=true deliv=true act=1697007142 stop=true margin=4009218dd996f085 sep=4009218e25eaf338 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=d64fe14984ee6e93
    sent=true deliv=true act=1727713353 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=a32263b9879df222
    sent=true deliv=true act=1712938384 stop=true margin=4008e3d4031fbf31 sep=4008e3d450310c33 coll=false cpm=0/0/0 hazard2=false/false fault=- trace=07eb2c2796b204d9
";

const INTERSECTION_VARIANTS: &str = "
    sent=false deliv=false act=- stop=false margin=- sep=3f65e60fe1bc4ab7 coll=true cpm=0/0/0 hazard2=false/false fault=- trace=39a8a68903033c69
    sent=false deliv=false act=- stop=true margin=3ff32c73e88fbfe8 sep=4013cc95c33fdac4 coll=false cpm=30/29/42 hazard2=true/true fault=- trace=67bc5c6ca8fdbf24
    sent=false deliv=false act=- stop=true margin=bfed1184ee431940 sep=4013cc95c33fdac4 coll=true cpm=0/0/0 hazard2=true/false fault=- trace=da67281cddc41dec
    sent=true deliv=false act=- stop=false margin=- sep=3f65e60fe1bc4ab7 coll=true cpm=0/0/0 hazard2=false/false fault=FaultStats { injected: 1, frames_corrupted: 0, corrupted_rejected: 0, http_stalls: 0, http_giveups: 0, watchdog_speed_caps: 0, watchdog_stops: 0, watchdog_recoveries: 0, failsafe_stop: false, overran_camera: false } trace=3e8f2d30444a826f
    sent=true deliv=false act=- stop=false margin=- sep=3f65e60fe1bc4ab7 coll=true cpm=15/8/8 hazard2=false/false fault=FaultStats { injected: 8, frames_corrupted: 0, corrupted_rejected: 0, http_stalls: 0, http_giveups: 0, watchdog_speed_caps: 0, watchdog_stops: 0, watchdog_recoveries: 0, failsafe_stop: false, overran_camera: false } trace=a20143eb5c5c475c
";

const PLATOON: &str = "
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[4042051bac2df0d4,403ec2e06d938152,40480df82b1f687b,403eaa32096787cf] brake=[3fd2034b4aa98ee8,3fd203608ee818a0,3fd2036ebc0ffaa6,3fd203608ee818a0] gap=3ff30e4f70f8d39f worst=40480df82b1f687b undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[403eb4a8e2e2b8c7,4033a5c7de5082cf,40390a9f8c21e1d2,401c9b6ae7d566cf] brake=[3fd20352617a8008,3fd2034433c72fa9,3fd2032eeeb77c1b,3fd202e80415f61d] gap=3ff3333333333333 worst=403eb4a8e2e2b8c7 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[40471becbb7f9d6f,403994efbb0e5e68,4042822aa9f7b5af,40425ea2b9d3cbc5] brake=[3fd20367a584c06a,3fd2032eeeb77c1b,3fd20352617a8008,3fd203608ee818a0] gap=3ff2f5b7d46db229 worst=40471becbb7f9d6f undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[40272462e4d1a650,402fa463ae2541d9,403412323bbc6eb1,40385232a0663c75] act=[4040c05553ef6b5d,403df791b3f20a74,404822b78897e996,403fdae126202539] brake=[3fd2036ebc0ffaa6,3fd20352617a8008,3fd20383ff4919e9,3fd2034b4aa98ee8] gap=3ff2dd1f71c2ca6c worst=404822b78897e996 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[402bd1d9d3458cd2,403228ed4e4c942d,403668edb2f661f2,403aa8ee17a02fb6] act=[403f1dc560c7c0f4,40515149731098d4,405340cb81733227,404d3788db0574b4] brake=[3fd20359783a0336,3fd203cadaf04619,3fd2040a9aceec84,3fd203ae83e4dfba] gap=3ff26e726c6e5e83 worst=405340cb81733227 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[4020f169a0ad8a11,4029716a6a01259a,4030f8b599aa6091,403538b5fe542e55] act=[40471f4f2f123c43,403a9ae21101b003,4042119ff4fd6d7f,404169df3b645a1d] brake=[3fd20375d289c79a,3fd2032eeeb77c1b,3fd2034433c72fa9,3fd2033d1cd36245] gap=3ff30e4f9f97b65a worst=40471f4f2f123c43 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[4043321cbccf28c8,4045521cef240faa,4047721d2178f68c,4049921d53cddd6e] act=[4054e02aa9f7b5af,4053fde46cfc829d,4058915bc44bf4cb,405476b84988094e] brake=[3fd2041fd98a52cc,3fd2040385c2f65a,3fd2043517a901b6,3fd203fc70a595d7] gap=3ff2dd1cca52a338 worst=4058915bc44bf4cb undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[404794bc408d8ec9,4049b4bc72e275ab,404bd4bca5375c8e,404df4bcd78c4370] act=[405447715831f03d,40515149731098d4,405340cb81733227,405b1bc46d82ba5a] brake=[3fd2040a9aceec84,3fd203cadaf04619,3fd2040a9aceec84,3fd2045f9210491e] gap=3ff29f9e6eb9a6a6 worst=405b1bc46d82ba5a undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[403ac4a6223e186a,403f04a686e7e62e,4041a25375c8d9f9,4043c253a81dc0db] act=[40471f4f2f123c43,405326b884406c01,405588cffa7eb6bf,405534ef9db22d0e] brake=[3fd20375d289c79a,3fd203e01b81ea22,3fd203f55b76caf4,3fd203ee46369572] gap=3ff27abdacfad246 worst=405588cffa7eb6bf undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[0,40406842aed13943,404834ef1348b220,403e69955714b9cb] brake=[3fd202b65bca91a2,3fd2033d1cd36245,3fd203a057f6a4cc,3fd2032eeeb77c1b] gap=3ff249947a3bcaa8 worst=404834ef1348b220 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[0,40334d54a7f8012e,40395aa1511dffc5,401ca759253543af] brake=[3fd202b65bca91a2,3fd20327d78f631a,3fd20359783a0336,3fd202ef1bdaf9a8] gap=3ff26e78022f472d worst=40395aa1511dffc5 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[0,403a0a9da597d49d,404244af9a8cdea0,4041f423c85c24c4] brake=[3fd202b65bca91a2,3fd20320c055db42,3fd20352617a8008,3fd2034b4aa98ee8] gap=3ff27ac3d265ac50 worst=404244af9a8cdea0 undeliv=0 cascade=0 failsafe=0 hb=0 fault=-
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[4042051bac2df0d4,403ec2e06d938152,40480df82b1f687b,403eaa32096787cf] brake=[3fd2034b4aa98ee8,3fd203608ee818a0,3fd2036ebc0ffaa6,3fd203608ee818a0] gap=3ff30e4f70f8d39f worst=40480df82b1f687b undeliv=0 cascade=3 failsafe=0 hb=603 fault=FaultStats { injected: 399, frames_corrupted: 0, corrupted_rejected: 0, http_stalls: 0, http_giveups: 0, watchdog_speed_caps: 3, watchdog_stops: 0, watchdog_recoveries: 0, failsafe_stop: false, overran_camera: false }
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[403eb4a8e2e2b8c7,4033a5c7de5082cf,40390a9f8c21e1d2,401c9b6ae7d566cf] brake=[3fd20352617a8008,3fd2034433c72fa9,3fd2032eeeb77c1b,3fd202e80415f61d] gap=3ff3333333333333 worst=403eb4a8e2e2b8c7 undeliv=0 cascade=3 failsafe=0 hb=603 fault=FaultStats { injected: 399, frames_corrupted: 0, corrupted_rejected: 0, http_stalls: 0, http_giveups: 0, watchdog_speed_caps: 3, watchdog_stops: 0, watchdog_recoveries: 0, failsafe_stop: false, overran_camera: false }
    rx=[3fd0002e2328f9f4,3fd000431bde82d8,3fd0005c4651f3e9,3fd0007570c564f9] act=[40471becbb7f9d6f,403994efbb0e5e68,4042822aa9f7b5af,40425ea2b9d3cbc5] brake=[3fd20367a584c06a,3fd2032eeeb77c1b,3fd20352617a8008,3fd203608ee818a0] gap=3ff2f5b7d46db229 worst=40471becbb7f9d6f undeliv=0 cascade=3 failsafe=0 hb=603 fault=FaultStats { injected: 399, frames_corrupted: 0, corrupted_rejected: 0, http_stalls: 0, http_giveups: 0, watchdog_speed_caps: 3, watchdog_stops: 0, watchdog_recoveries: 0, failsafe_stop: false, overran_camera: false }
";

const CONGESTION: &str = "
    n=10 cams=1430 rate=401c99999999999a cbr=3f9859c8c9320d9a air=475600000 dcc=Relaxed
    n=40 cams=5720 rate=401c99999999999a cbr=3fb859c8c9320d9a air=1902400000 dcc=Relaxed
";
