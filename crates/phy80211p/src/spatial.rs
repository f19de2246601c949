//! Spatial index for city-scale broadcast culling.
//!
//! A broadcast frame physically reaches only receivers within the
//! channel's cutoff radius (see [`crate::channel::Channel::cutoff_radius_m`]);
//! evaluating shadowing and frame-error draws for every one of N
//! stations makes each transmission O(N) and a whole fleet tick O(N²).
//! [`SpatialGrid`] buckets stations into fixed-size cells keyed by their
//! quantised [`Position2D`], so a transmission gathers candidates from
//! the few cells overlapping the cutoff circle instead of scanning the
//! fleet.
//!
//! Layout: one `BTreeMap` entry per occupied cell *column*, holding
//! that column's `(row, station)` pairs sorted. A query walks the
//! columns its window spans with one ordered `range` and, in each,
//! binary-searches to the window's first row and scans to its last, so
//! its cost follows the stations it looks at, not the cells it spans.
//!
//! Determinism: columns live in a `BTreeMap` (ordered iteration), the
//! candidate list is sorted by station index before it is returned, and
//! the grid itself never touches an RNG. Callers draw per-receiver
//! randomness from streams forked per `(node, frame)`
//! ([`sim_core::SimRng::fork_u64`]), so a culled receiver consumes zero
//! draws and can never perturb the streams of receivers that *are*
//! evaluated.

use crate::channel::Position2D;
use std::collections::BTreeMap;

/// Cell span guard: a query radius that would cover more cells than
/// this per axis (absurd radius / tiny cells) falls back to scanning
/// every station — still correct, never a runaway loop.
const MAX_CELL_SPAN: f64 = 4096.0;

/// A fixed-cell-size spatial hash over station positions.
///
/// Station indices are dense `u32`s (`0..len`), assigned by insertion
/// order — the same indices the caller's structure-of-arrays state uses.
///
/// # Example
///
/// ```
/// use phy80211p::channel::Position2D;
/// use phy80211p::spatial::SpatialGrid;
///
/// let mut grid = SpatialGrid::new(50.0);
/// grid.insert(Position2D::new(0.0, 0.0));
/// grid.insert(Position2D::new(30.0, 0.0));
/// grid.insert(Position2D::new(500.0, 0.0));
/// let mut out = Vec::new();
/// grid.candidates_within(Position2D::new(0.0, 0.0), 100.0, &mut out);
/// assert_eq!(out, vec![0, 1]); // the 500 m station is culled
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_m: f64,
    /// Per cell column `kx`, its stations as `(ky, station)`, sorted.
    columns: BTreeMap<i64, Vec<(i64, u32)>>,
    /// Current cell key per station (for incremental relocation).
    keys: Vec<(i64, i64)>,
    /// Station positions, mirrored so queries can distance-filter.
    px: Vec<f64>,
    py: Vec<f64>,
}

impl SpatialGrid {
    /// Creates an empty grid with the given cell edge length (metres).
    ///
    /// # Panics
    ///
    /// Panics if `cell_m` is not a positive finite number.
    pub fn new(cell_m: f64) -> Self {
        assert!(
            cell_m.is_finite() && cell_m > 0.0,
            "cell size must be positive and finite"
        );
        Self {
            cell_m,
            columns: BTreeMap::new(),
            keys: Vec::new(),
            px: Vec::new(),
            py: Vec::new(),
        }
    }

    /// Number of stations in the grid.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.keys.len()
    }

    fn cell_of(&self, x: f64, y: f64) -> (i64, i64) {
        // `as` casts saturate for non-finite / out-of-range values, so
        // pathological coordinates land in an edge cell instead of
        // panicking.
        (
            (x / self.cell_m).floor() as i64,
            (y / self.cell_m).floor() as i64,
        )
    }

    /// Files station `idx` under cell `(kx, ky)`, keeping the column
    /// sorted.
    fn place(&mut self, (kx, ky): (i64, i64), idx: u32) {
        let column = self.columns.entry(kx).or_default();
        let at = column.partition_point(|&entry| entry < (ky, idx));
        column.insert(at, (ky, idx));
    }

    /// Adds a station at `pos`; returns its dense index.
    pub fn insert(&mut self, pos: Position2D) -> u32 {
        let idx = self.keys.len() as u32;
        let key = self.cell_of(pos.x, pos.y);
        self.place(key, idx);
        self.keys.push(key);
        self.px.push(pos.x);
        self.py.push(pos.y);
        idx
    }

    /// Moves station `idx` to `pos`, updating its cell only when the
    /// quantised key actually changed — the per-tick fast path for
    /// fleets whose stations move a fraction of a cell per tick.
    ///
    /// Unknown indices are ignored.
    pub fn relocate(&mut self, idx: u32, pos: Position2D) {
        let i = idx as usize;
        let new_key = self.cell_of(pos.x, pos.y);
        let Some(key) = self.keys.get_mut(i) else {
            return;
        };
        let (old_kx, old_ky) = std::mem::replace(key, new_key);
        if let Some(x) = self.px.get_mut(i) {
            *x = pos.x;
        }
        if let Some(y) = self.py.get_mut(i) {
            *y = pos.y;
        }
        if new_key == (old_kx, old_ky) {
            return;
        }
        if let Some(column) = self.columns.get_mut(&old_kx) {
            if let Ok(at) = column.binary_search(&(old_ky, idx)) {
                column.remove(at);
            }
        }
        self.place(new_key, idx);
    }

    /// Rebuilds the grid from scratch for the given positions, recycling
    /// the columns' allocations.
    // detlint:allow(U1) tests/culling_differential.rs rebuilds the grid from scratch as the relocate oracle
    pub fn rebuild<I>(&mut self, positions: I)
    where
        I: IntoIterator<Item = Position2D>,
    {
        for column in self.columns.values_mut() {
            column.clear();
        }
        self.keys.clear();
        self.px.clear();
        self.py.clear();
        for pos in positions {
            self.insert(pos);
        }
    }

    /// Collects (into `out`, cleared first) the indices of every station
    /// within `radius` metres of `center`, sorted ascending.
    ///
    /// The result is exact, not a superset: stations in the cells
    /// overlapping the circle are gathered and each is distance-filtered
    /// against the mirrored positions. A non-finite or absurdly large
    /// radius falls back to every station.
    pub fn candidates_within(&self, center: Position2D, radius: f64, out: &mut Vec<u32>) {
        out.clear();
        if radius < 0.0 {
            return;
        }
        let span = radius / self.cell_m;
        if !span.is_finite() || span > MAX_CELL_SPAN {
            out.extend(0..self.keys.len() as u32);
            return;
        }
        let r2 = radius * radius;
        let (kx0, ky0) = self.cell_of(center.x - radius, center.y - radius);
        let (kx1, ky1) = self.cell_of(center.x + radius, center.y + radius);
        // `x - r <= x + r` for `r >= 0` and `cell_of` is monotone, so
        // `kx0 <= kx1` (an inverted range would panic).
        for (_, column) in self.columns.range(kx0..=kx1) {
            let first = column.partition_point(|&(ky, _)| ky < ky0);
            for &(_, idx) in column.iter().skip(first).take_while(|&&(ky, _)| ky <= ky1) {
                let i = idx as usize;
                let (Some(&x), Some(&y)) = (self.px.get(i), self.py.get(i)) else {
                    continue;
                };
                let dx = x - center.x;
                let dy = y - center.y;
                if dx * dx + dy * dy <= r2 {
                    out.push(idx);
                }
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim_core::SimRng;

    fn brute_force(positions: &[Position2D], center: Position2D, radius: f64) -> Vec<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(center) <= radius)
            .map(|(i, _)| i as u32)
            .collect()
    }

    #[test]
    fn candidates_match_brute_force_on_a_fleet() {
        let mut rng = SimRng::seed_from(11);
        let positions: Vec<Position2D> = (0..300)
            .map(|_| Position2D::new(rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)))
            .collect();
        let mut grid = SpatialGrid::new(60.0);
        grid.rebuild(positions.iter().copied());
        let mut out = Vec::new();
        for center in [
            Position2D::new(0.0, 0.0),
            Position2D::new(-499.0, 499.0),
            Position2D::new(123.0, -77.0),
        ] {
            grid.candidates_within(center, 150.0, &mut out);
            assert_eq!(out, brute_force(&positions, center, 150.0));
        }
    }

    #[test]
    fn relocate_tracks_movement_exactly() {
        let mut rng = SimRng::seed_from(13);
        let mut positions: Vec<Position2D> = (0..120)
            .map(|_| Position2D::new(rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)))
            .collect();
        let mut grid = SpatialGrid::new(40.0);
        grid.rebuild(positions.iter().copied());
        // Drift every station a few times, some crossing cell borders.
        let mut out = Vec::new();
        for step in 0..5 {
            for (i, p) in positions.iter_mut().enumerate() {
                p.x += rng.uniform(-30.0, 30.0);
                p.y += rng.uniform(-30.0, 30.0);
                grid.relocate(i as u32, *p);
            }
            let center = Position2D::new(200.0, 200.0);
            grid.candidates_within(center, 90.0, &mut out);
            assert_eq!(out, brute_force(&positions, center, 90.0), "step {step}");
        }
    }

    #[test]
    fn rebuild_recycles_and_matches_fresh_grid() {
        let a: Vec<Position2D> = (0..50).map(|i| Position2D::new(i as f64, 0.0)).collect();
        let b: Vec<Position2D> = (0..30)
            .map(|i| Position2D::new(0.0, 3.0 * i as f64))
            .collect();
        let mut recycled = SpatialGrid::new(10.0);
        recycled.rebuild(a.iter().copied());
        recycled.rebuild(b.iter().copied());
        let mut fresh = SpatialGrid::new(10.0);
        fresh.rebuild(b.iter().copied());
        let (mut out_r, mut out_f) = (Vec::new(), Vec::new());
        let center = Position2D::new(0.0, 40.0);
        recycled.candidates_within(center, 25.0, &mut out_r);
        fresh.candidates_within(center, 25.0, &mut out_f);
        assert_eq!(out_r, out_f);
        assert_eq!(recycled.len(), 30);
    }

    #[test]
    fn huge_radius_falls_back_to_everyone() {
        let mut grid = SpatialGrid::new(1.0);
        for i in 0..10 {
            grid.insert(Position2D::new(i as f64 * 1000.0, 0.0));
        }
        let mut out = Vec::new();
        grid.candidates_within(Position2D::default(), f64::INFINITY, &mut out);
        assert_eq!(out.len(), 10);
        grid.candidates_within(Position2D::default(), 1e12, &mut out);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn negative_radius_yields_nothing() {
        let mut grid = SpatialGrid::new(10.0);
        grid.insert(Position2D::default());
        let mut out = vec![99];
        grid.candidates_within(Position2D::default(), -1.0, &mut out);
        assert!(out.is_empty());
    }

    /// Brute force with the grid's own predicate (squared distance), so
    /// a station exactly on the circle is judged the same way by both.
    fn in_radius(positions: &[Position2D], center: Position2D, radius: f64) -> Vec<u32> {
        positions
            .iter()
            .enumerate()
            .filter(|(_, p)| {
                let (dx, dy) = (p.x - center.x, p.y - center.y);
                dx * dx + dy * dy <= radius * radius
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// A station position: mostly in a 1.2 km square around the origin,
    /// sometimes far out, or at a magnitude whose cell key saturates.
    fn station_position(rng: &mut SimRng) -> Position2D {
        match rng.below(10) {
            0 => Position2D::new(rng.uniform(-1e9, 1e9), rng.uniform(-1e9, 1e9)),
            1 => Position2D::new(-1e300, 1e300),
            _ => Position2D::new(rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)),
        }
    }

    /// Where a station at `p` is moved: within its cell, to another row
    /// of its column, to another column, onto another station, or to a
    /// fresh (possibly far) position.
    fn moved(rng: &mut SimRng, p: Position2D, cell: f64, others: &[Position2D]) -> Position2D {
        let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        let hop = sign * (1 + rng.below(3)) as f64 * cell;
        match rng.below(5) {
            0 => Position2D::new(
                ((p.x / cell).floor() + rng.uniform(0.0, 1.0)) * cell,
                ((p.y / cell).floor() + rng.uniform(0.0, 1.0)) * cell,
            ),
            1 => Position2D::new(p.x, p.y + hop),
            2 => Position2D::new(p.x + hop, p.y + rng.uniform(-cell, cell)),
            3 => others
                .get(rng.below(others.len() as u64) as usize)
                .copied()
                .unwrap_or(p),
            _ => station_position(rng),
        }
    }

    proptest! {
        /// Inserts, relocations, rebuilds and unknown indices, each step
        /// followed by a query checked against brute force.
        #[test]
        fn grid_matches_brute_force_under_edits(
            seed in 0u64..1_000_000,
            cell in 5.0f64..120.0,
        ) {
            let mut rng = SimRng::seed_from(seed);
            let mut positions: Vec<Position2D> =
                (0..rng.below(40)).map(|_| station_position(&mut rng)).collect();
            let mut grid = SpatialGrid::new(cell);
            grid.rebuild(positions.iter().copied());
            let mut out = Vec::new();
            for step in 0..200 {
                let n = positions.len() as u64;
                match rng.below(10) {
                    0 => {
                        let p = station_position(&mut rng);
                        positions.push(p);
                        prop_assert_eq!(grid.insert(p) as u64, n);
                    }
                    1 => {
                        positions.truncate(rng.below(n + 1) as usize);
                        for _ in 0..rng.below(30) {
                            positions.push(station_position(&mut rng));
                        }
                        grid.rebuild(positions.iter().copied());
                    }
                    2 => {
                        let unknown = if rng.below(2) == 0 { n as u32 } else { u32::MAX };
                        grid.relocate(unknown, station_position(&mut rng));
                    }
                    _ if n > 0 => {
                        let i = rng.below(n) as usize;
                        let to = moved(&mut rng, positions[i], cell, &positions);
                        positions[i] = to;
                        grid.relocate(i as u32, to);
                    }
                    _ => {}
                }
                prop_assert_eq!(grid.len(), positions.len());
                // Centre on a station (coincident ones included) or
                // anywhere; the radius is random, zero, or exactly the
                // distance to some station.
                let center = match positions.get(rng.below(n.max(1)) as usize) {
                    Some(&p) if rng.below(2) == 0 => p,
                    _ => station_position(&mut rng),
                };
                let radius = match (rng.below(4), positions.last()) {
                    (0, _) => 0.0,
                    (1, Some(p)) => p.distance(center).min(400.0),
                    _ => rng.uniform(0.0, 400.0),
                };
                grid.candidates_within(center, radius, &mut out);
                prop_assert_eq!(
                    &out,
                    &in_radius(&positions, center, radius),
                    "step {} centre {:?} radius {}",
                    step,
                    center,
                    radius
                );
            }
        }

        #[test]
        fn grid_is_exact_for_random_fleets(
            seed in 0u64..500,
            cell in 5.0f64..120.0,
            radius in 0.0f64..400.0,
        ) {
            let mut rng = SimRng::seed_from(seed);
            let n = 40 + (seed % 60) as usize;
            let positions: Vec<Position2D> = (0..n)
                .map(|_| Position2D::new(rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0)))
                .collect();
            let mut grid = SpatialGrid::new(cell);
            grid.rebuild(positions.iter().copied());
            let center = Position2D::new(rng.uniform(-600.0, 600.0), rng.uniform(-600.0, 600.0));
            let mut out = Vec::new();
            grid.candidates_within(center, radius, &mut out);
            prop_assert_eq!(out, brute_force(&positions, center, radius));
        }
    }
}
