//! FIFO tie-break regression: replays the exact schedule trace a real
//! `scenario.rs` run generates and asserts the heap queue dispatches it
//! in the same order as the linear-scan model queue.
//!
//! The trace below was captured from the `quickstart` example's
//! collision-avoidance scenario (default config) by logging every
//! `schedule_at` call as `(events_dispatched_so_far, time_ns)` — i.e.
//! which dispatch step issued the schedule, including the handler
//! follow-up chains. Replaying it interleaves schedules and pops the
//! way the live run does, and the same-timestamp bursts (the 500 ms
//! control-tick / vehicle-poll coincidences, plus the t=0 kickoff)
//! are exactly the cases where only the FIFO seq tie-break determines
//! handler order.
//!
//! Those bursts hold two or three events, few enough that a heap which
//! ignored `seq` could still pop them in order. A synthetic burst of 18
//! same-instant events, scheduled in waves between pops, guards the
//! tie-break by itself.

#[path = "support/model_queue.rs"]
mod model_queue;

use model_queue::ModelQueue;
use sim_core::{EventQueue, SimTime};

/// `(dispatch_step, time_ns)` for every schedule call of the captured
/// run, in call order.
const CAPTURE: &[(u64, u64)] = &[
    (0, 0),
    (0, 250000000),
    (0, 35811423),
    (1, 215014),
    (1, 20000000),
    (3, 40000000),
    (4, 85811423),
    (5, 60000000),
    (6, 80000000),
    (7, 100000000),
    (8, 135811423),
    (9, 120000000),
    (10, 140000000),
    (11, 185811423),
    (12, 160000000),
    (13, 180000000),
    (14, 200000000),
    (15, 235811423),
    (16, 220000000),
    (17, 240000000),
    (18, 285811423),
    (19, 260000000),
    (20, 438305625),
    (20, 500000000),
    (21, 280000000),
    (22, 300000000),
    (23, 335811423),
    (24, 320000000),
    (25, 340000000),
    (26, 385811423),
    (27, 360000000),
    (28, 380000000),
    (29, 400000000),
    (30, 435811423),
    (31, 420000000),
    (32, 440000000),
    (33, 485811423),
    (35, 460000000),
    (36, 480000000),
    (37, 500000000),
    (38, 535811423),
    (39, 650423401),
    (39, 750000000),
    (40, 520000000),
    (41, 540000000),
    (42, 585811423),
    (43, 560000000),
    (44, 580000000),
    (45, 600000000),
    (46, 635811423),
    (47, 620000000),
    (48, 640000000),
    (49, 685811423),
    (50, 660000000),
    (52, 680000000),
    (53, 700000000),
    (54, 735811423),
    (55, 720000000),
    (56, 740000000),
    (57, 785811423),
    (58, 760000000),
    (59, 924821015),
    (59, 1000000000),
    (60, 780000000),
    (61, 800000000),
    (62, 835811423),
    (63, 820000000),
    (64, 840000000),
    (65, 885811423),
    (66, 860000000),
    (67, 880000000),
    (68, 900000000),
    (69, 935811423),
    (70, 920000000),
    (71, 940000000),
    (73, 985811423),
    (74, 960000000),
    (75, 980000000),
    (76, 1000000000),
    (77, 1035811423),
    (78, 1198625483),
    (78, 1250000000),
    (79, 1000207009),
    (79, 1020000000),
    (81, 1040000000),
    (82, 1085811423),
    (83, 1060000000),
    (84, 1080000000),
    (85, 1100000000),
    (86, 1135811423),
    (87, 1120000000),
    (88, 1140000000),
    (89, 1185811423),
    (90, 1160000000),
    (91, 1180000000),
    (92, 1200000000),
    (93, 1235811423),
    (95, 1220000000),
    (96, 1240000000),
    (97, 1285811423),
    (98, 1260000000),
    (99, 1408274525),
    (99, 1500000000),
    (100, 1280000000),
    (101, 1300000000),
    (102, 1335811423),
    (103, 1320000000),
    (104, 1340000000),
    (105, 1385811423),
    (106, 1360000000),
    (107, 1380000000),
    (108, 1400000000),
    (109, 1435811423),
    (110, 1420000000),
    (112, 1440000000),
    (113, 1485811423),
    (114, 1460000000),
    (115, 1480000000),
    (116, 1500000000),
    (117, 1535811423),
    (118, 1684376548),
    (118, 1750000000),
    (119, 1520000000),
    (120, 1540000000),
    (121, 1585811423),
    (122, 1560000000),
    (123, 1580000000),
    (124, 1600000000),
    (125, 1635811423),
    (126, 1620000000),
    (127, 1640000000),
    (128, 1685811423),
    (129, 1660000000),
    (130, 1680000000),
    (131, 1700000000),
    (133, 1735811423),
    (134, 1720000000),
    (135, 1740000000),
    (136, 1785811423),
    (137, 1760000000),
    (138, 1935633622),
    (138, 2000000000),
    (139, 1780000000),
    (140, 1800000000),
    (141, 1835811423),
    (142, 1820000000),
    (143, 1840000000),
    (144, 1885811423),
    (145, 1860000000),
    (146, 1880000000),
    (147, 1900000000),
    (148, 1935811423),
    (149, 1920000000),
    (150, 1940000000),
    (152, 1985811423),
    (153, 1960000000),
    (154, 1980000000),
    (155, 2000000000),
    (156, 2035811423),
    (157, 2250000000),
    (158, 2000231005),
    (158, 2020000000),
    (160, 2040000000),
    (161, 2085811423),
    (162, 2060000000),
    (163, 2080000000),
    (164, 2100000000),
    (165, 2135811423),
    (166, 2120000000),
    (167, 2140000000),
    (168, 2185811423),
    (169, 2160000000),
    (170, 2180000000),
    (171, 2200000000),
    (172, 2235811423),
    (173, 2220000000),
    (174, 2240000000),
    (175, 2285811423),
    (176, 2260000000),
    (177, 2445425349),
    (177, 2500000000),
    (178, 2280000000),
    (179, 2300000000),
    (180, 2335811423),
    (181, 2320000000),
    (182, 2340000000),
    (183, 2385811423),
    (184, 2360000000),
    (185, 2380000000),
    (186, 2400000000),
    (187, 2435811423),
    (188, 2420000000),
    (189, 2440000000),
    (190, 2485811423),
    (191, 2460000000),
    (192, 2460480240),
    (193, 2480000000),
    (194, 2462022849),
    (195, 2463964359),
    (197, 2500000000),
    (198, 2487993367),
    (198, 2535811423),
    (199, 2506793178),
    (200, 2687829478),
    (200, 2750000000),
    (201, 2520000000),
    (203, 2540000000),
    (205, 2560000000),
    (206, 2580000000),
    (207, 2600000000),
    (208, 2620000000),
    (209, 2620207004),
    (209, 2640000000),
    (211, 2660000000),
    (212, 2680000000),
    (213, 2700000000),
    (215, 2720000000),
    (216, 2740000000),
    (217, 2760000000),
    (218, 2927002798),
    (218, 3000000000),
    (219, 2780000000),
    (220, 2800000000),
    (221, 2800255003),
    (221, 2820000000),
    (223, 2840000000),
    (224, 2860000000),
    (225, 2880000000),
    (226, 2900000000),
    (227, 2920000000),
    (228, 2940000000),
    (230, 2960000000),
    (231, 2980000000),
    (232, 2980207003),
    (232, 3000000000),
    (234, 3189418302),
    (234, 3250000000),
    (235, 3020000000),
    (236, 3040000000),
];

/// Replays the capture on a queue: schedules tagged for step `n` are
/// issued right after the `n`-th pop, payloads are capture indices, and
/// the returned vec is the dispatch order `(time_ns, capture_index)`.
fn replay<Q: Queue>(q: &mut Q) -> Vec<(u64, u32)> {
    let mut order = Vec::new();
    let mut next = 0usize;
    let mut dispatched = 0u64;
    loop {
        while let Some(&(step, t)) = CAPTURE.get(next) {
            if step != dispatched {
                break;
            }
            q.schedule(SimTime::from_nanos(t), next as u32);
            next += 1;
        }
        match q.pop(SimTime::MAX) {
            Some((t, e)) => {
                order.push((t.as_nanos(), e));
                dispatched += 1;
            }
            None => break,
        }
    }
    assert_eq!(
        next,
        CAPTURE.len(),
        "capture replay did not consume every schedule"
    );
    order
}

/// The slice of queue API the replay needs, implemented for both
/// queues so one driver exercises each identically.
trait Queue {
    fn schedule(&mut self, t: SimTime, e: u32);
    fn pop(&mut self, until: SimTime) -> Option<(SimTime, u32)>;
}

impl Queue for EventQueue<u32> {
    fn schedule(&mut self, t: SimTime, e: u32) {
        self.schedule_at(t, e);
    }
    fn pop(&mut self, until: SimTime) -> Option<(SimTime, u32)> {
        self.pop_next(until)
    }
}

impl Queue for ModelQueue<u32> {
    fn schedule(&mut self, t: SimTime, e: u32) {
        self.schedule_at(t, e);
    }
    fn pop(&mut self, until: SimTime) -> Option<(SimTime, u32)> {
        self.pop_next(until)
    }
}

#[test]
fn captured_scenario_trace_dispatches_in_reference_order() {
    let heap = replay(&mut EventQueue::new());
    let model = replay(&mut ModelQueue::new());
    assert_eq!(heap.len(), CAPTURE.len());
    assert_eq!(heap, model);
    // The burst instants (t=0 kickoff and the 500 ms coincidences) must
    // come out strictly in capture order — the FIFO contract itself,
    // independent of the model.
    for w in heap.windows(2) {
        if w[0].0 == w[1].0 {
            assert!(w[0].1 < w[1].1, "same-instant events reordered: {:?}", w);
        }
    }
}

/// Schedules a synthetic same-instant burst in three waves with pops
/// between them: 18 events at one instant, 6 at later ones, and 9 pops
/// before the queue drains. Returns the dispatch order
/// `(time_ns, schedule_index)`.
fn burst<Q: Queue>(q: &mut Q) -> Vec<(u64, u32)> {
    let mut order = Vec::new();
    let pop = |q: &mut Q, order: &mut Vec<(u64, u32)>, n: usize| {
        for _ in 0..n {
            if let Some((t, e)) = q.pop(SimTime::MAX) {
                order.push((t.as_nanos(), e));
            }
        }
    };
    let mut next = 0u32;
    for wave in 0..3u64 {
        for i in 0..8 {
            // Every fourth event of a wave goes to a later instant.
            let t = if i % 4 == 3 { 2_000 + 10 * wave } else { 1_000 };
            q.schedule(SimTime::from_nanos(t), next);
            next += 1;
        }
        pop(q, &mut order, 3);
    }
    pop(q, &mut order, 64);
    order
}

#[test]
fn same_instant_burst_dispatches_in_schedule_order() {
    // The captured trace's bursts hold two or three events, which a heap
    // can pop in order by luck; this one is long enough that a heap
    // breaking ties by anything but `seq` reorders it.
    let heap = burst(&mut EventQueue::new());
    let model = burst(&mut ModelQueue::new());
    assert_eq!(heap.len(), 24);
    assert_eq!(heap.iter().filter(|e| e.0 == 1_000).count(), 18);
    assert_eq!(heap, model);
    for w in heap.windows(2) {
        assert!(w[0].0 <= w[1].0, "time went backwards: {w:?}");
        if w[0].0 == w[1].0 {
            assert!(w[0].1 < w[1].1, "same-instant events reordered: {w:?}");
        }
    }
}
