//! The line-following perception pipeline (paper Figure 6).
//!
//! The real vehicle captures video with a ZED camera, runs Canny edge
//! detection, applies a region filter, extracts line coordinates with a
//! probabilistic Hough transform, and feeds the Motion Planner which
//! computes a steering angle through a PID controller. This module runs
//! the same stage structure on synthetic frames rendered from the ground
//! truth track geometry, one image row at a time:
//!
//! 1. [`CameraModel::scan_edges_into`] — renders each row of a binary
//!    bird's-eye image of the floor ahead of the car and extracts its
//!    edge pixels (intensity transitions), without holding a frame,
//! 2. [`best_line`] — a probabilistic Hough vote (random edge-point
//!    subsampling into a (ρ, θ) accumulator, as in Matas et al.) that
//!    returns the strongest line,
//! 3. [`LineFollower::steering`] — converts that line into a lateral
//!    error and runs it through the PID.

use crate::dynamics::BicycleState;
use crate::pid::Pid;
use sim_core::SimRng;
use std::cell::RefCell;
use std::ops::Range;

/// Ground-truth track: a polyline of the tape line on the floor.
#[derive(Debug, Clone, PartialEq)]
pub struct Track {
    points: Vec<(f64, f64)>,
}

impl Track {
    /// Creates a track from a polyline.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "a track needs at least two points");
        Self { points }
    }

    /// A straight track along +x of the given length.
    pub fn straight(length_m: f64) -> Self {
        Self::new(vec![(0.0, 0.0), (length_m, 0.0)])
    }

    /// An L-shaped track: straight along +x then a corner turning to +y —
    /// the blind-corner intersection geometry. The corner radius (1.5 m)
    /// comfortably exceeds the vehicle's minimum turning radius
    /// (wheelbase 0.32 m / tan 0.35 rad ≈ 0.88 m).
    #[cfg(test)]
    pub fn l_corner(leg_m: f64) -> Self {
        let mut pts = vec![(0.0, 0.0), (leg_m, 0.0)];
        // Rounded corner with a few knots.
        let r = 1.5;
        for i in 1..=6 {
            let a = std::f64::consts::FRAC_PI_2 * f64::from(i) / 6.0;
            pts.push((leg_m + r * a.sin(), r * (1.0 - a.cos())));
        }
        pts.push((leg_m + r, leg_m + r));
        Self::new(pts)
    }

    /// The polyline's segments as `(start, end)` pairs, in order.
    fn segments(&self) -> impl Iterator<Item = ((f64, f64), (f64, f64))> + '_ {
        self.points
            .iter()
            .copied()
            .zip(self.points.iter().copied().skip(1))
    }

    /// Distance from an arbitrary point to the nearest track segment.
    #[cfg(test)]
    pub fn distance_to(&self, x: f64, y: f64) -> f64 {
        self.segments()
            .map(|(a, b)| segment_distance(a, b, (x, y)))
            .fold(f64::INFINITY, f64::min)
    }

    /// The square of `Track::distance_to` (kept for the tests) before
    /// its rounded `sqrt`:
    /// the smallest squared segment distance. `sqrt` is correctly
    /// rounded, hence monotone, so `distance_to(x, y)` is exactly
    /// `distance_sq_to(x, y).sqrt()`, NaN distances being skipped by
    /// `f64::min` in both.
    fn distance_sq_to(&self, x: f64, y: f64) -> f64 {
        self.segments()
            .map(|(a, b)| segment_distance_sq(a, b, (x, y)))
            .fold(f64::INFINITY, f64::min)
    }

    /// Signed lateral offset of a pose from the track: positive when the
    /// track is to the left of the heading direction.
    #[cfg(test)]
    pub fn lateral_offset(&self, pose: &BicycleState) -> f64 {
        // Find the nearest point on the polyline, then project into the
        // vehicle frame.
        let (nx, ny) = self.nearest_point(pose.x, pose.y);
        let dx = nx - pose.x;
        let dy = ny - pose.y;
        // Left of heading = positive lateral coordinate.
        -dx * pose.theta.sin() + dy * pose.theta.cos()
    }

    /// Nearest point on the polyline to `(x, y)`.
    #[cfg(test)]
    pub fn nearest_point(&self, x: f64, y: f64) -> (f64, f64) {
        let mut best = (f64::INFINITY, self.points[0]);
        for (a, b) in self.segments() {
            let p = segment_closest(a, b, (x, y));
            let d = ((p.0 - x).powi(2) + (p.1 - y).powi(2)).sqrt();
            if d < best.0 {
                best = (d, p);
            }
        }
        best.1
    }
}

fn segment_closest(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> (f64, f64) {
    let abx = b.0 - a.0;
    let aby = b.1 - a.1;
    let len2 = abx * abx + aby * aby;
    if len2 <= 0.0 {
        return a;
    }
    let t = (((p.0 - a.0) * abx + (p.1 - a.1) * aby) / len2).clamp(0.0, 1.0);
    (a.0 + t * abx, a.1 + t * aby)
}

#[cfg(test)]
fn segment_distance(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> f64 {
    segment_distance_sq(a, b, p).sqrt()
}

fn segment_distance_sq(a: (f64, f64), b: (f64, f64), p: (f64, f64)) -> f64 {
    let c = segment_closest(a, b, p);
    (c.0 - p.0).powi(2) + (c.1 - p.1).powi(2)
}

/// The largest `f64` whose square root is at most `h`, so that for every
/// non-negative or NaN `d`, `d.sqrt() <= h` exactly when
/// `d <= sqrt_threshold(h)`.
///
/// `sqrt` is correctly rounded and therefore monotone: every `d` up to
/// the threshold has a root no larger than the threshold's, and every
/// `d` above it is at least its successor, whose root exceeds `h`.
/// `h * h` lands within an ulp or two of the boundary, and the loops
/// step it there. A NaN or negative `h` admits no `d`, and neither does
/// `-∞`; `h = +∞` admits every non-NaN `d`, and so does `+∞`.
fn sqrt_threshold(h: f64) -> f64 {
    if h.is_nan() || h < 0.0 {
        return f64::NEG_INFINITY;
    }
    let mut t = h * h;
    while t.sqrt() > h {
        t = t.next_down();
    }
    while t < f64::INFINITY && t.next_up().sqrt() <= h {
        t = t.next_up();
    }
    t
}

/// 2^52: from here up in magnitude every `f64` is an integer.
const INTEGRAL_F64: f64 = 4_503_599_627_370_496.0;

/// `x.floor()`, bit for bit, without the libm call baseline x86-64
/// makes for it (see [`round_to_usize`]).
///
/// Below 2^52 in magnitude the `i64` round trip truncates exactly, and
/// `copysign` gives a zero result the sign of `x`, as truncation does.
/// Stepping down one where that rounded up is exact too. From 2^52 up
/// every `f64` is already an integer, and NaN and ±∞ pass through.
fn floor_f64(x: f64) -> f64 {
    if x.abs() < INTEGRAL_F64 {
        let t = (x as i64 as f64).copysign(x);
        if t > x {
            t - 1.0
        } else {
            t
        }
    } else {
        x
    }
}

/// `x.ceil()`, bit for bit, by the truncation of [`floor_f64`].
fn ceil_f64(x: f64) -> f64 {
    if x.abs() < INTEGRAL_F64 {
        let t = (x as i64 as f64).copysign(x);
        if t < x {
            t + 1.0
        } else {
            t
        }
    } else {
        x
    }
}

/// Projection model of the forward-facing camera.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CameraModel {
    /// Image width, pixels.
    pub width: usize,
    /// Image height, pixels.
    pub height: usize,
    /// Near edge of the ground footprint, metres ahead of the rear axle.
    pub near_m: f64,
    /// Far edge of the ground footprint, metres ahead.
    pub far_m: f64,
    /// Half-width of the footprint, metres.
    pub half_width_m: f64,
    /// Painted line width, metres.
    pub line_width_m: f64,
}

impl Default for CameraModel {
    fn default() -> Self {
        Self {
            width: 64,
            height: 32,
            near_m: 0.15,
            far_m: 1.2,
            half_width_m: 0.5,
            line_width_m: 0.05,
        }
    }
}

/// Half-width δ of the band around the line's edge in which
/// [`CameraModel::scan_edges_into`] runs the exact pixel test, metres.
/// Within [`SPAN_COORD_LIMIT_M`] the span arithmetic misplaces a
/// distance by at most ~1e-7 m (DESIGN.md §9 item 4), so δ covers it a
/// hundred times over.
const EDGE_BAND_M: f64 = 1e-5;

/// Largest coordinate magnitude, metres, for which the span arithmetic
/// is within [`EDGE_BAND_M`]: every pose, camera and track coordinate,
/// and the heading's cosine and sine, must lie within it. Beyond it,
/// and for NaN or infinite input, every pixel takes the exact test.
const SPAN_COORD_LIMIT_M: f64 = 1e4;

/// A scan-line slope below this magnitude, in metres per metre, counts
/// as zero: the constraint then holds for the whole line or for none of
/// it. Over the spans [`SPAN_COORD_LIMIT_M`] allows, under 1e5 m, that
/// moves a distance by at most 1e-7 m.
const PARALLEL_SLOPE: f64 = 1e-12;

/// One track segment seen from one pose, in image columns: what the
/// row loop needs to cut each scan line with the segment's capsule.
///
/// A row's scan line is `W(s) = base + s·dir`, with `base` the point
/// `ahead` metres in front of the pose along `fwd = (cos θ, sin θ)`,
/// `dir = (−sin θ, cos θ)`, and the lateral offset `s` of column
/// coordinate `x` is `left + (x + 0.5)·mpc`, so column `c`'s centre is
/// at `x = c`. Every quantity the cut needs is affine in `ahead` and
/// `x`, so the per-segment parts are computed once per frame.
#[derive(Debug, Clone, Copy)]
struct SegmentView {
    /// Per end point `p`: `(pose − p)·fwd`, and the column coordinate
    /// at which the scan line passes closest to `p`. On a row, `p` lies
    /// `(pose − p)·fwd + ahead` off the scan line.
    ends: [(f64, f64); 2],
    /// The rectangle between the end discs, for a segment of normal
    /// length: a point lies in it when its offset across the segment is
    /// within the radius and its coordinate along it within `[0, len]`,
    /// that is within `len / 2` of the middle.
    body: Option<(Slab, Slab, f64)>,
}

/// A scan-line point's coordinate across or along a segment, as a
/// signed offset `q = c0 + ahead·rate + x·slope` from the middle of the
/// allowed range, oriented so that `slope` (metres per column) is
/// positive; `inv` is `1/slope`, or `None` when the slope in metres per
/// metre is below [`PARALLEL_SLOPE`].
#[derive(Debug, Clone, Copy)]
struct Slab {
    c0: f64,
    rate: f64,
    inv: Option<f64>,
}

impl Slab {
    /// The constraint `mid − half ≤ q0 + ahead·rate + s·slope ≤ mid + half`
    /// on the lateral offset `s`, restated on the column coordinate.
    fn new(q0: f64, rate: f64, slope: f64, mid: f64, left: f64, mpc: f64) -> Self {
        let sign = if slope < 0.0 { -1.0 } else { 1.0 };
        Self {
            c0: sign * (q0 - mid + (left + 0.5 * mpc) * slope),
            rate: sign * rate,
            inv: (slope.abs() >= PARALLEL_SLOPE).then(|| 1.0 / (sign * slope * mpc)),
        }
    }

    /// The offset `c` of the row `ahead` metres out, at column
    /// coordinate 0.
    fn at(&self, ahead: f64) -> f64 {
        self.c0 + ahead * self.rate
    }

    /// The column-coordinate interval on which a row at offset `c`
    /// keeps `|q| ≤ half`: unbounded when the slope counts as zero and
    /// the constraint holds, `None` when it fails.
    fn span(&self, c: f64, half: f64) -> Option<(f64, f64)> {
        match self.inv {
            Some(inv) => Some(((-half - c) * inv, (half - c) * inv)),
            None => (c.abs() <= half).then_some((f64::NEG_INFINITY, f64::INFINITY)),
        }
    }
}

/// A column-coordinate hull, `(lo, hi)`, empty while `lo > hi`.
type Hull = (f64, f64);

/// Widens `hull` to cover `lo..=hi`.
fn widen(hull: &mut Hull, lo: f64, hi: f64) {
    hull.0 = hull.0.min(lo);
    hull.1 = hull.1.max(hi);
}

impl SegmentView {
    fn new(
        pose: &BicycleState,
        (cos_t, sin_t): (f64, f64),
        (left, mpc): (f64, f64),
        (a, b): ((f64, f64), (f64, f64)),
    ) -> Self {
        let end = |p: (f64, f64)| {
            let (dx, dy) = (pose.x - p.0, pose.y - p.1);
            let closest = dx * sin_t - dy * cos_t;
            (dx * cos_t + dy * sin_t, (closest - left) / mpc - 0.5)
        };
        let (abx, aby) = (b.0 - a.0, b.1 - a.1);
        let len2 = abx * abx + aby * aby;
        // A segment shorter than ~1e-154 m has no accurate unit vector;
        // its end discs alone cover its capsule to well within δ.
        let body = (len2 >= f64::MIN_POSITIVE).then(|| {
            let len = len2.sqrt();
            let (ux, uy) = (abx / len, aby / len);
            let (dx, dy) = (pose.x - a.0, pose.y - a.1);
            let across = Slab::new(
                dx * uy - dy * ux,
                cos_t * uy - sin_t * ux,
                -sin_t * uy - cos_t * ux,
                0.0,
                left,
                mpc,
            );
            let along = Slab::new(
                dx * ux + dy * uy,
                cos_t * ux + sin_t * uy,
                cos_t * uy - sin_t * ux,
                len / 2.0,
                left,
                mpc,
            );
            (across, along, len / 2.0)
        });
        Self {
            ends: [end(a), end(b)],
            body,
        }
    }

    /// The column-coordinate hulls where the row `ahead` metres out
    /// passes within each of the `radii` of the segment, inner first;
    /// a hull the row misses is empty. Each is the hull of the end
    /// discs' and the rectangle's spans; the distance to a segment is
    /// convex along a line, so every point of a hull is as close as its
    /// farther end point (DESIGN.md §9 item 4). Both radii share the
    /// end discs' offsets and the rectangle's along-segment slab.
    fn spans(&self, ahead: f64, radii: [f64; 2], inv_mpc: f64) -> [Hull; 2] {
        let mut hulls = [(f64::INFINITY, f64::NEG_INFINITY); 2];
        for (fwd, closest) in self.ends {
            // `r² − perp²` rather than `bq² − c`: near a grazing line
            // both terms of the latter are ~|e|², and their rounding
            // error, not the geometry, would decide the root.
            let perp = fwd + ahead;
            let perp_sq = perp * perp;
            for (hull, r) in hulls.iter_mut().zip(radii) {
                let disc = r * r - perp_sq;
                if disc >= 0.0 {
                    let w = disc.sqrt() * inv_mpc;
                    widen(hull, closest - w, closest + w);
                }
            }
        }
        if let Some((across, along, half_len)) = &self.body {
            if let Some(l) = along.span(along.at(ahead), *half_len) {
                let c = across.at(ahead);
                for (hull, r) in hulls.iter_mut().zip(radii) {
                    if let Some(s) = across.span(c, r) {
                        let (rlo, rhi) = (s.0.max(l.0), s.1.min(l.1));
                        if rlo <= rhi {
                            widen(hull, rlo, rhi);
                        }
                    }
                }
            }
        }
        hulls
    }
}

/// Reusable storage for [`CameraModel::scan_edges_into`]: one image
/// row's lit runs and the track's segments as seen from the current
/// pose.
#[derive(Debug, Clone, Default)]
pub struct ScanScratch {
    /// One row's lit columns, as non-empty `start..end` runs in no
    /// particular order; they may touch or overlap.
    runs: Vec<(usize, usize)>,
    segments: Vec<SegmentView>,
}

impl CameraModel {
    /// Lateral metres represented by one pixel column.
    pub fn meters_per_col(&self) -> f64 {
        2.0 * self.half_width_m / self.width as f64
    }

    /// The edge pixels of the track seen from `pose`, into `edges`
    /// (cleared first): the `(row, col)` of every pixel whose left
    /// neighbour differs from it in the binary render of the line, in
    /// row-major order. Row 0 is the far edge of the view.
    ///
    /// Returns exactly what the plain pairwise scan of the naive
    /// every-pixel render returns (`detect_edges_reference` of
    /// `capture_reference` in the tests), without building the frame:
    ///
    /// - Each image row is one scan line across the ground. Per track
    ///   segment, the row's span within the line's half-width `h` less
    ///   δ = `EDGE_BAND_M` = 10 µm lights its columns outright, and columns
    ///   outside every span of radius `h + δ` stay dark. Only a column
    ///   in the band between the two takes the exact test: the squared
    ///   distance of the reference's world point against
    ///   `sqrt_threshold(h)`, which is the reference's `distance ≤ h`
    ///   without the `sqrt`. DESIGN.md §9 item 4 bounds the span
    ///   arithmetic's error far below δ within 10 km of the origin
    ///   (`SPAN_COORD_LIMIT_M`); beyond it every pixel takes the exact
    ///   test.
    /// - Each segment's lit columns become runs: its inner columns, and
    ///   each band column the exact test lights. The row's lit set is
    ///   the union of those runs. Sorted and merged where they touch,
    ///   they give the row's maximal lit runs, and a transition sits
    ///   exactly where one starts (unless at column 0) or ends (unless
    ///   at the right border).
    pub fn scan_edges_into(
        &self,
        pose: &BicycleState,
        track: &Track,
        scratch: &mut ScanScratch,
        edges: &mut Vec<(usize, usize)>,
    ) {
        edges.clear();
        let width = self.width;
        let ScanScratch { runs, segments } = scratch;
        let trig = (pose.theta.cos(), pose.theta.sin());
        let (cos_t, sin_t) = trig;
        let mpc = self.meters_per_col();
        let half_line = self.line_width_m / 2.0;
        let max_dist_sq = sqrt_threshold(half_line);
        let depth = self.far_m - self.near_m;
        let left = -self.half_width_m;
        let covered = [
            pose.x,
            pose.y,
            cos_t,
            sin_t,
            self.near_m,
            self.far_m,
            self.half_width_m,
            half_line,
        ]
        .into_iter()
        .chain(track.points.iter().flat_map(|&(x, y)| [x, y]))
        .all(|v| v.abs() <= SPAN_COORD_LIMIT_M)
            && mpc >= f64::MIN_POSITIVE;
        segments.clear();
        if covered {
            segments.extend(
                track
                    .segments()
                    .map(|ab| SegmentView::new(pose, trig, (left, mpc), ab)),
            );
        }
        let r_in = half_line - EDGE_BAND_M;
        let radii = [r_in, half_line + EDGE_BAND_M];
        let inv_mpc = 1.0 / mpc;
        // The columns in a column-coordinate hull; `as usize` saturates,
        // so hulls off either side clamp to the image, and one wholly
        // left of it, or empty, has no columns.
        let columns = |(lo, hi): Hull| -> Range<usize> {
            let first = ceil_f64(lo) as usize;
            let end = (floor_f64(hi) + 1.0) as usize;
            first..end.min(width)
        };
        for r in 0..self.height {
            // The reference's expressions, verbatim, so the exact test
            // sees the reference's world point.
            let ahead = self.far_m - depth * (r as f64 + 0.5) / self.height as f64;
            let bx = pose.x + ahead * cos_t;
            let by = pose.y + ahead * sin_t;
            let lit_exactly = |col: usize| {
                let lateral = left + (col as f64 + 0.5) * mpc;
                let wx = bx - lateral * sin_t;
                let wy = by + lateral * cos_t;
                track.distance_sq_to(wx, wy) <= max_dist_sq
            };
            runs.clear();
            let band = |cols: Range<usize>, runs: &mut Vec<(usize, usize)>| {
                runs.extend(
                    cols.filter(|&col| lit_exactly(col))
                        .map(|col| (col, col + 1)),
                );
            };
            if covered {
                for view in segments.iter() {
                    let [inner, outer] = view.spans(ahead, radii, inv_mpc);
                    let outer = columns(outer);
                    // Float rounding is monotone in the radius, so a
                    // non-empty inner run lies within the outer columns.
                    let mut inner = columns(inner);
                    if r_in <= 0.0 || inner.is_empty() {
                        // Every outer column is a band column.
                        inner = outer.end..outer.end;
                    }
                    band(outer.start..inner.start, runs);
                    if !inner.is_empty() {
                        runs.push((inner.start, inner.end));
                    }
                    band(inner.end..outer.end, runs);
                }
            } else {
                band(0..width, runs);
            }
            // Every pixel of a merged run is lit and its neighbours
            // past either end are dark or off the image.
            runs.sort_unstable();
            let mut emit = |(start, end): (usize, usize)| {
                if start >= 1 {
                    edges.push((r, start));
                }
                if end < width {
                    edges.push((r, end));
                }
            };
            let mut sorted = runs.iter().copied();
            if let Some(mut run) = sorted.next() {
                for (start, end) in sorted {
                    if start <= run.1 {
                        run.1 = run.1.max(end);
                    } else {
                        emit(run);
                        run = (start, end);
                    }
                }
                emit(run);
            }
        }
    }
}

/// A detected line in (ρ, θ) form with its vote count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoughLine {
    /// Distance of the line from the image origin, pixels.
    pub rho: f64,
    /// Normal angle of the line, radians `[0, π)`.
    pub theta: f64,
    /// Accumulator votes received.
    pub votes: u32,
}

impl HoughLine {
    /// Column at which this line crosses image row `row`, if it is not
    /// near-horizontal in (x=col, y=row) coordinates.
    pub fn col_at_row(&self, row: f64) -> Option<f64> {
        let cos = self.theta.cos();
        if cos.abs() < 1e-3 {
            return None;
        }
        Some((self.rho - row * self.theta.sin()) / cos)
    }
}

/// Votes a (ρ, θ) cell needs before [`best_line`] reports it as a line.
pub const MIN_VOTES: u32 = 8;

/// Edge points the probabilistic Hough draws per frame, at most.
const MAX_SAMPLES: usize = 256;

const THETA_BINS: usize = 45; // 4° steps over [0, π)

/// Accumulator cells per block of [`best_line`]'s maximum pass.
const ARGMAX_BLOCK: usize = 128;

/// Reusable storage for [`best_line`].
#[derive(Debug, Clone, Default)]
pub struct HoughScratch {
    /// The (ρ, θ) accumulator, one row of ρ bins per θ bin, then one
    /// trash cell that takes the votes whose ρ falls off it. A cell
    /// gets at most one vote per sample, and the trash cell one per θ
    /// bin, so neither exceeds `THETA_BINS ·` [`MAX_SAMPLES`] and both
    /// fit a `u16`.
    acc: Vec<u16>,
    /// How many times the sampler drew each edge point.
    draws: Vec<u16>,
    /// The frame geometry `memo` is laid out for, once there is one.
    geometry: Option<HoughGeometry>,
    /// Cell-index memo: for each in-frame point (row < height,
    /// col ≤ width) and θ bin, the accumulator index of the point's cell
    /// (the trash cell when its ρ falls off), or [`CELL_UNSET`] before
    /// it is first quantised. Empty when the trash cell's index does not
    /// fit below [`CELL_UNSET`].
    memo: Vec<u16>,
}

/// Memo entry of a (point, θ) pair not yet quantised.
const CELL_UNSET: u16 = u16::MAX;

/// What the vote needs to know about one frame geometry.
#[derive(Debug, Clone, Copy)]
struct HoughGeometry {
    width: usize,
    height: usize,
    /// The frame diagonal, which offsets ρ to a non-negative bin.
    diag: f64,
    /// ρ bins per θ bin.
    rho_bins: usize,
    /// `(cos θ, sin θ)` per θ bin, from the reference's `π·tb/bins`.
    trig: [(f64, f64); THETA_BINS],
}

impl HoughGeometry {
    fn of_frame(width: usize, height: usize) -> Self {
        let diag = ((width * width + height * height) as f64).sqrt();
        let mut trig = [(0.0, 0.0); THETA_BINS];
        for (tb, t) in trig.iter_mut().enumerate() {
            let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
            *t = (theta.cos(), theta.sin());
        }
        Self {
            width,
            height,
            diag,
            rho_bins: (2.0 * diag).ceil() as usize + 1,
            trig,
        }
    }

    /// The accumulator cells, trash cell excluded; the trash cell's
    /// index.
    fn cells(&self) -> usize {
        THETA_BINS * self.rho_bins
    }

    /// The accumulator index of point `(row, col)`'s cell in θ bin
    /// `tb`, whose cos and sin are given: `tb·rho_bins` plus its ρ bin,
    /// by the reference's expression, or the trash cell when that bin
    /// is off the accumulator. Both the memo and the direct path
    /// quantise through this.
    fn cell(&self, row: usize, col: usize, (tb, &(cos_t, sin_t)): (usize, &(f64, f64))) -> usize {
        let rho = col as f64 * cos_t + row as f64 * sin_t;
        let rb = round_to_usize(rho + self.diag);
        if rb < self.rho_bins {
            tb * self.rho_bins + rb
        } else {
            self.cells()
        }
    }

    /// Whether a memo entry can hold every index up to the trash cell's
    /// below [`CELL_UNSET`].
    fn memo_fits(&self) -> bool {
        self.cells() < usize::from(CELL_UNSET)
    }

    /// The memo's entry range for in-frame point `(row, col)`, one
    /// entry per θ bin, or `None` for a point outside the frame.
    fn memo_range(&self, row: usize, col: usize) -> Option<Range<usize>> {
        (row < self.height && col <= self.width).then(|| {
            let start = (row * (self.width + 1) + col) * THETA_BINS;
            start..start + THETA_BINS
        })
    }
}

/// Adds `weight` votes to accumulator cell `idx`.
fn add_votes(acc: &mut [u16], idx: usize, weight: u16) {
    if let Some(votes) = acc.get_mut(idx) {
        *votes += weight;
    }
}

/// `x.round() as usize` for every `f64`, without calling `f64::round`,
/// which baseline x86-64 (SSE2, no `roundsd`) compiles to a libm call.
///
/// Truncate, then add one when the exact fractional part `x - t` is at
/// least one half (round half away from zero), as a compare rather than
/// a branch. Below 2^53 that subtraction is exact; from there up every
/// `f64` is an integer and the fraction is 0. Below 2^63 the truncation
/// goes through `i64`, whose conversions are single SSE2 instructions,
/// and NaN and negatives end at 0 as with `as usize`. From 2^63 up,
/// where `i64` would saturate, the unsigned cast is exact or saturates.
fn round_to_usize(x: f64) -> usize {
    if x >= 9_223_372_036_854_775_808.0 {
        return x as usize;
    }
    let t = x as i64;
    let rounded = t + i64::from(x - t as f64 >= 0.5);
    usize::try_from(rounded.max(0)).unwrap_or(usize::MAX)
}

/// Finds the strongest line in an edge set with a probabilistic Hough
/// vote, with caller-provided scratch storage: the cell with the most
/// votes, the first in accumulator order among equals, once it has at
/// least [`MIN_VOTES`].
///
/// Returns the first line of the straightforward loop, which quantises
/// all 45 θ bins of every sample with `f64::round`, scans the whole
/// accumulator and stably sorts the cells by votes, and makes the same
/// RNG draws (`hough_reference` in the tests pins both bitwise). It does
/// far less work per frame:
///
/// - The sampler's draws are counted per edge point first, then each
///   distinct drawn point votes once with its draw count as weight.
///   Integer addition commutes, so every cell ends with the same count.
/// - ρ bins come from `round_to_usize`, not a libm call, and the
///   `(cos θ, sin θ)` table uses the reference's `π·tb/bins`
///   expression, so every `(ρ, θ)` is bitwise identical.
/// - The scratch memoises each in-frame point's accumulator cells, so a
///   point is quantised only the first time a frame drawn with this
///   scratch draws it, and votes by index from then on: a ρ off the
///   accumulator votes into a trash cell past it, which the search
///   skips. The memo and the θ table are rebuilt when the frame
///   geometry changes; points outside the frame, and geometries whose
///   cell indices do not fit a `u16`, are quantised on every draw.
/// - No list of lines is built: a stable sort by votes puts first the
///   cell of most votes that comes first in index order, so one pass
///   finds the most votes and a second the first cell holding them.
pub fn best_line(
    edges: &[(usize, usize)],
    frame_width: usize,
    frame_height: usize,
    rng: &mut SimRng,
    scratch: &mut HoughScratch,
) -> Option<HoughLine> {
    if edges.is_empty() {
        return None;
    }
    let HoughScratch {
        acc,
        draws,
        geometry,
        memo,
    } = scratch;
    let geo = match geometry {
        Some(geo) if geo.width == frame_width && geo.height == frame_height => geo,
        _ => {
            let geo = geometry.insert(HoughGeometry::of_frame(frame_width, frame_height));
            memo.clear();
            if geo.memo_fits() {
                memo.resize(frame_height * (frame_width + 1) * THETA_BINS, CELL_UNSET);
            }
            geo
        }
    };
    let rho_bins = geo.rho_bins;
    // Probabilistic subsampling, with replacement: at most MAX_SAMPLES
    // points, as in the progressive probabilistic Hough transform's
    // random selection stage.
    draws.clear();
    draws.resize(edges.len(), 0);
    for _ in 0..edges.len().min(MAX_SAMPLES) {
        let point = rng.below(edges.len() as u64) as usize;
        if let Some(n) = draws.get_mut(point) {
            *n += 1;
        }
    }
    acc.clear();
    acc.resize(geo.cells() + 1, 0);
    let acc = acc.as_mut_slice();
    for (&(row, col), &weight) in edges.iter().zip(draws.iter()) {
        if weight == 0 {
            continue;
        }
        let entries = geo.memo_range(row, col).and_then(|r| memo.get_mut(r));
        if let Some(entries) = entries {
            // A point's entries are filled together, so the first tells.
            if entries.first() == Some(&CELL_UNSET) {
                for (entry, theta) in entries.iter_mut().zip(geo.trig.iter().enumerate()) {
                    // `memo_fits` keeps every index below CELL_UNSET.
                    *entry = geo.cell(row, col, theta) as u16;
                }
            }
            for &entry in entries.iter() {
                add_votes(acc, usize::from(entry), weight);
            }
        } else {
            for theta in geo.trig.iter().enumerate() {
                add_votes(acc, geo.cell(row, col, theta), weight);
            }
        }
    }
    // One pass finds the most votes and the first block of cells that
    // holds them (a block's maximum vectorises, and only a larger one
    // moves the pick); a second finds the first cell from that block on.
    let acc = acc.get(..geo.cells())?;
    let (block, votes) = acc
        .chunks(ARGMAX_BLOCK)
        .enumerate()
        .fold((0, 0), |best, (i, cells)| {
            let most = cells.iter().copied().max().unwrap_or(0);
            if most > best.1 {
                (i, most)
            } else {
                best
            }
        });
    if u32::from(votes) < MIN_VOTES {
        return None;
    }
    let start = block * ARGMAX_BLOCK;
    let idx = start + acc.get(start..)?.iter().position(|&v| v == votes)?;
    Some(HoughLine {
        rho: (idx % rho_bins) as f64 - geo.diag,
        theta: std::f64::consts::PI * (idx / rho_bins) as f64 / THETA_BINS as f64,
        votes: u32::from(votes),
    })
}

/// Recycled vision-pipeline buffers: the run and segment scratch, edge
/// points and Hough scratch. A scenario run constructs one
/// [`LineFollower`]; without recycling, every run re-pays the
/// pipeline's first-frame buffer growth. Each buffer is cleared or
/// fully overwritten before use, so recycling cannot change any output
/// bit — the pool is a free list, not a cache.
#[derive(Debug, Clone, Default)]
struct VisionBuffers {
    scan: ScanScratch,
    edges: Vec<(usize, usize)>,
    hough: HoughScratch,
}

/// Bounded so pathological churn (many live followers dropped at once)
/// cannot hoard memory; beyond the cap, buffers are simply freed.
const VISION_POOL_CAP: usize = 8;

thread_local! {
    /// Per-thread free list of [`VisionBuffers`]. Thread-local keeps the
    /// pool lock-free and keeps parallel campaign workers independent.
    static VISION_POOL: RefCell<Vec<VisionBuffers>> = const { RefCell::new(Vec::new()) };
}

/// The full line-following controller: camera + pipeline + PID steering.
///
/// # Example
///
/// ```
/// use vehicle::dynamics::BicycleState;
/// use vehicle::linefollow::{LineFollower, Track};
/// use sim_core::SimRng;
///
/// let track = Track::straight(20.0);
/// let mut follower = LineFollower::new();
/// let mut rng = SimRng::seed_from(5);
/// let pose = BicycleState { x: 1.0, y: 0.05, theta: 0.0 };
/// let steer = follower.steering(&pose, &track, 0.02, &mut rng);
/// assert!(steer.is_some(), "line in view");
/// ```
#[derive(Debug, Clone)]
pub struct LineFollower {
    camera: CameraModel,
    pid: Pid,
    /// The pipeline's buffers, reused every control tick.
    buffers: VisionBuffers,
}

impl Default for LineFollower {
    fn default() -> Self {
        Self::new()
    }
}

impl LineFollower {
    /// Creates a follower with the default camera and tuned PID gains.
    pub fn new() -> Self {
        Self::with_camera(CameraModel::default())
    }

    /// Creates a follower with a custom camera model.
    pub fn with_camera(camera: CameraModel) -> Self {
        Self {
            camera,
            pid: Pid::new(2.2, 0.05, 0.35)
                .with_output_limit(0.35)
                .with_integral_limit(0.2),
            buffers: VISION_POOL
                .with(|p| p.borrow_mut().pop())
                .unwrap_or_default(),
        }
    }

    /// Runs the full pipeline for one control period of `dt` seconds.
    ///
    /// Returns the steering angle in radians, or `None` when no line was
    /// detected this frame ([`MotionPlanner::plan`] then holds the last
    /// command).
    ///
    /// [`MotionPlanner::plan`]: crate::planner::MotionPlanner::plan
    pub fn steering(
        &mut self,
        pose: &BicycleState,
        track: &Track,
        dt: f64,
        rng: &mut SimRng,
    ) -> Option<f64> {
        let VisionBuffers { scan, edges, hough } = &mut self.buffers;
        let (width, height) = (self.camera.width, self.camera.height);
        self.camera.scan_edges_into(pose, track, scan, edges);
        let best = best_line(edges, width, height, rng, hough)?;
        // Lateral error at a mid-frame lookahead row.
        let look_row = height as f64 * 0.5;
        let col = best.col_at_row(look_row)?;
        let centre = width as f64 / 2.0;
        let error_m = (col - centre) * self.camera.meters_per_col();
        // Positive error (line to the right in image = left in vehicle
        // frame, because columns grow rightward while lateral grows
        // leftward is handled by the projection) steers toward the line.
        Some(self.pid.update(error_m, dt))
    }
}

impl Drop for LineFollower {
    fn drop(&mut self) {
        let buffers = std::mem::take(&mut self.buffers);
        VISION_POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < VISION_POOL_CAP {
                pool.push(buffers);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuators::ActuatorCommand;
    use crate::dynamics::{LongitudinalModel, VehicleParams};
    use crate::planner::MotionPlanner;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// A binary camera frame, as the references render and read it.
    struct Frame {
        width: usize,
        height: usize,
        pixels: Vec<bool>,
    }

    impl Frame {
        /// Pixel at `(row, col)`; row 0 is the far edge of the view.
        fn get(&self, row: usize, col: usize) -> bool {
            self.pixels[row * self.width + col]
        }
    }

    /// The program's edges of the track seen from `pose`, from fresh
    /// buffers.
    fn scan_edges(cam: &CameraModel, pose: &BicycleState, track: &Track) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        cam.scan_edges_into(pose, track, &mut ScanScratch::default(), &mut edges);
        edges
    }

    /// The references' edges of the same view: the every-pixel render,
    /// then the plain pairwise scan.
    fn reference_edges(
        cam: &CameraModel,
        pose: &BicycleState,
        track: &Track,
    ) -> Vec<(usize, usize)> {
        detect_edges_reference(&capture_reference(cam, pose, track))
    }

    /// [`best_line`] with fresh scratch.
    fn best_line_fresh(
        edges: &[(usize, usize)],
        width: usize,
        height: usize,
        rng: &mut SimRng,
    ) -> Option<HoughLine> {
        best_line(edges, width, height, rng, &mut HoughScratch::default())
    }

    /// A line's ρ and θ bits and its votes, for bitwise comparison.
    fn line_bits(line: &HoughLine) -> (u64, u64, u32) {
        (line.rho.to_bits(), line.theta.to_bits(), line.votes)
    }

    /// A hairpin: out along +x, a tight U-turn, and back 0.3 m to the
    /// left, so a row can cross both legs.
    fn hairpin() -> Track {
        Track::new(vec![
            (0.0, 0.0),
            (3.0, 0.0),
            (3.2, 0.15),
            (3.0, 0.3),
            (0.0, 0.3),
        ])
    }

    /// A zig-zag of 0.57 m legs at ±45°, so a row crosses several
    /// segments and their joints; one knot is listed twice, which makes
    /// a zero-length segment.
    fn zigzag() -> Track {
        Track::new(vec![
            (0.0, 0.0),
            (0.4, 0.4),
            (0.8, 0.0),
            (0.8, 0.0),
            (1.2, 0.4),
            (1.6, 0.0),
            (2.0, 0.4),
            (2.4, 0.0),
        ])
    }

    /// The four test tracks: straight, L-corner, hairpin and zig-zag.
    fn test_track(shape: usize) -> Track {
        match shape % 4 {
            0 => Track::straight(10.0),
            1 => Track::l_corner(3.0),
            2 => hairpin(),
            _ => zigzag(),
        }
    }

    /// The point a fraction `at` of the way along `track`'s knots.
    fn point_along(track: &Track, at: f64) -> (f64, f64) {
        let last = track.points.len() - 1;
        let pos = at.clamp(0.0, 1.0) * last as f64;
        let i = (pos as usize).min(last - 1);
        let f = pos - i as f64;
        let (a, b) = (track.points[i], track.points[i + 1]);
        (a.0 + f * (b.0 - a.0), a.1 + f * (b.1 - a.1))
    }

    #[test]
    fn track_distance_and_nearest() {
        let track = Track::straight(10.0);
        assert_eq!(track.distance_to(5.0, 0.0), 0.0);
        assert!((track.distance_to(5.0, 0.3) - 0.3).abs() < 1e-12);
        assert_eq!(track.nearest_point(5.0, 1.0), (5.0, 0.0));
        // Beyond the end, the endpoint is nearest.
        assert!((track.distance_to(11.0, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lateral_offset_signs() {
        let track = Track::straight(10.0);
        // Car left of the line (y > 0), line is to its right → negative.
        let left = BicycleState {
            x: 2.0,
            y: 0.2,
            theta: 0.0,
        };
        assert!(track.lateral_offset(&left) < 0.0);
        let right = BicycleState {
            x: 2.0,
            y: -0.2,
            theta: 0.0,
        };
        assert!(track.lateral_offset(&right) > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn track_needs_two_points() {
        let _ = Track::new(vec![(0.0, 0.0)]);
    }

    #[test]
    fn camera_sees_line_when_on_track() {
        // On the line, heading along it: every row crosses the line once,
        // so it has two edges, and they flank the centre column.
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let pose = BicycleState {
            x: 1.0,
            y: 0.0,
            theta: 0.0,
        };
        let edges = scan_edges(&cam, &pose, &track);
        let mid = cam.width / 2;
        for row in 0..cam.height {
            let cols: Vec<usize> = edges.iter().filter(|e| e.0 == row).map(|e| e.1).collect();
            assert!(
                cols.len() == 2 && cols[0] <= mid && mid < cols[1],
                "row {row}: {cols:?}"
            );
        }
    }

    #[test]
    fn camera_blind_when_far_from_track() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let pose = BicycleState {
            x: 1.0,
            y: 5.0,
            theta: 0.0,
        };
        assert!(scan_edges(&cam, &pose, &track).is_empty());
        let frame = capture_reference(&cam, &pose, &track);
        assert_eq!(frame.height, cam.height);
        assert!(frame.pixels.iter().all(|&p| !p));
    }

    #[test]
    fn edges_flank_the_line() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let pose = BicycleState {
            x: 1.0,
            y: 0.0,
            theta: 0.0,
        };
        let frame = capture_reference(&cam, &pose, &track);
        let edges = scan_edges(&cam, &pose, &track);
        assert!(!edges.is_empty());
        // Every edge is adjacent to exactly one lit pixel horizontally.
        for &(r, c) in &edges {
            assert!(frame.get(r, c) != frame.get(r, c - 1));
        }
    }

    #[test]
    fn hough_finds_vertical_centre_line() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let pose = BicycleState {
            x: 1.0,
            y: 0.0,
            theta: 0.0,
        };
        let edges = scan_edges(&cam, &pose, &track);
        let mut rng = SimRng::seed_from(1);
        let best = best_line_fresh(&edges, cam.width, cam.height, &mut rng).unwrap();
        let col = best.col_at_row(cam.height as f64 / 2.0).unwrap();
        let centre = cam.width as f64 / 2.0;
        assert!((col - centre).abs() < 4.0, "line near centre, col={col}");
    }

    #[test]
    fn hough_empty_edges_yields_no_lines() {
        let mut rng = SimRng::seed_from(1);
        assert!(best_line_fresh(&[], 64, 32, &mut rng).is_none());
        // An empty frame draws nothing.
        assert_eq!(rng.next_u64(), SimRng::seed_from(1).next_u64());
    }

    #[test]
    fn follower_steers_toward_line() {
        let track = Track::straight(20.0);
        let mut follower = LineFollower::new();
        let mut rng = SimRng::seed_from(2);
        // Car displaced to the left of the line (y > 0): the line appears
        // right of image centre, so steering should be negative (right).
        let pose = BicycleState {
            x: 1.0,
            y: 0.15,
            theta: 0.0,
        };
        let steer = follower.steering(&pose, &track, 0.02, &mut rng).unwrap();
        assert!(steer < 0.0, "steer {steer}");
        // Displaced right steers left.
        let mut follower2 = LineFollower::new();
        let pose2 = BicycleState {
            x: 1.0,
            y: -0.15,
            theta: 0.0,
        };
        let steer2 = follower2.steering(&pose2, &track, 0.02, &mut rng).unwrap();
        assert!(steer2 > 0.0, "steer {steer2}");
    }

    #[test]
    fn follower_reports_loss_off_track() {
        let track = Track::straight(20.0);
        let mut follower = LineFollower::new();
        let mut rng = SimRng::seed_from(3);
        let pose = BicycleState {
            x: 1.0,
            y: 5.0,
            theta: 0.0,
        };
        assert!(follower.steering(&pose, &track, 0.02, &mut rng).is_none());
    }

    /// The steering the car applies in one tick: the follower's command,
    /// or the one the planner holds while the line is lost, as the
    /// scenarios do.
    fn applied_steering(planner: &mut MotionPlanner, steer: Option<f64>) -> f64 {
        match planner.plan(steer) {
            ActuatorCommand::Drive { steering_rad, .. } => steering_rad,
            ActuatorCommand::CutPower => unreachable!("nothing stops the car"),
        }
    }

    #[test]
    fn closed_loop_line_following_converges() {
        // Full pipeline in the loop: camera → edges → Hough → PID →
        // bicycle model, 50 Hz control, car starting 10 cm off the line.
        let track = Track::straight(40.0);
        let params = VehicleParams::default();
        let mut pose = BicycleState {
            x: 0.5,
            y: 0.10,
            theta: 0.0,
        };
        let mut car = LongitudinalModel::new(params);
        car.set_speed(1.5);
        let mut follower = LineFollower::new();
        let mut planner = MotionPlanner::new(0.25);
        let mut rng = SimRng::seed_from(4);
        let dt = 0.02;
        let mut offsets = Vec::new();
        for step in 0..800 {
            // 16 s
            let steer =
                applied_steering(&mut planner, follower.steering(&pose, &track, dt, &mut rng));
            let ds = car.step(dt, 0.25);
            pose.advance(ds, steer, params.wheelbase_m);
            if step >= 600 {
                offsets.push(track.lateral_offset(&pose).abs());
            }
        }
        // Mean |offset| over the final 4 s: the 64-px Hough grid bounds
        // accuracy to a few centimetres, so we test the average, not the
        // instantaneous value.
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        assert!(mean < 0.09, "converged to {mean} m mean offset");
        assert!(pose.x > 5.0, "car made forward progress: x={}", pose.x);
    }

    #[test]
    fn closed_loop_follows_the_corner() {
        // The L-corner track at a cautious speed: the follower must stay
        // on the line through the 0.5 m-radius turn.
        let track = Track::l_corner(3.0);
        let params = VehicleParams::default();
        let mut pose = BicycleState {
            x: 0.2,
            y: 0.0,
            theta: 0.0,
        };
        let mut car = LongitudinalModel::new(params);
        car.set_speed(0.8);
        let mut follower = LineFollower::new();
        let mut planner = MotionPlanner::new(0.21);
        let mut rng = SimRng::seed_from(9);
        let dt = 0.02;
        let mut max_offset: f64 = 0.0;
        // Throttle that holds ~0.8 m/s: rr 2.51 N + tiny aero over 12 N.
        // Stop before the line itself ends at y = 4.5 (with no line in
        // view the follower rightly has nothing to follow).
        for _ in 0..700 {
            if pose.y > 3.5 {
                break;
            }
            let steer =
                applied_steering(&mut planner, follower.steering(&pose, &track, dt, &mut rng));
            let ds = car.step(dt, 0.21);
            pose.advance(ds, steer, params.wheelbase_m);
            max_offset = max_offset.max(track.lateral_offset(&pose).abs());
        }
        assert!(
            max_offset < 0.30,
            "stayed within 30 cm of the line through the corner: {max_offset}"
        );
        // The car actually turned the corner: it is now on the +y leg.
        assert!(pose.y > 0.8, "made it around: y = {}", pose.y);
        assert!(
            pose.theta > std::f64::consts::FRAC_PI_4,
            "heading rotated toward +y: {}",
            pose.theta
        );
    }

    /// The pre-optimization vote loop: θ, cos θ, sin θ and the libm
    /// `round` evaluated inline for all 45 θ bins of every sample, then
    /// a scan of the whole accumulator and a stable sort of the lines by
    /// votes. The production path hoists the trig, votes each distinct
    /// drawn point once with its draw count, rounds without libm and
    /// returns only the strongest line; this reference's first line pins
    /// that all of that is bitwise-neutral.
    fn hough_reference(
        edges: &[(usize, usize)],
        frame_width: usize,
        frame_height: usize,
        min_votes: u32,
        rng: &mut SimRng,
    ) -> Vec<HoughLine> {
        if edges.is_empty() {
            return Vec::new();
        }
        let diag = ((frame_width * frame_width + frame_height * frame_height) as f64).sqrt();
        let rho_bins = (2.0 * diag).ceil() as usize + 1;
        let mut acc = vec![0u32; THETA_BINS * rho_bins];
        let samples = edges.len().min(256);
        for _ in 0..samples {
            let &(row, col) = &edges[rng.below(edges.len() as u64) as usize];
            for tb in 0..THETA_BINS {
                let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
                let rho = col as f64 * theta.cos() + row as f64 * theta.sin();
                let rb = (rho + diag).round() as usize;
                if rb < rho_bins {
                    acc[tb * rho_bins + rb] += 1;
                }
            }
        }
        let mut lines: Vec<HoughLine> = acc
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v >= min_votes)
            .map(|(idx, &v)| {
                let tb = idx / rho_bins;
                let rb = idx % rho_bins;
                HoughLine {
                    rho: rb as f64 - diag,
                    theta: std::f64::consts::PI * tb as f64 / THETA_BINS as f64,
                    votes: v,
                }
            })
            .collect();
        lines.sort_by_key(|l| std::cmp::Reverse(l.votes));
        lines.truncate(8);
        lines
    }

    /// Runs the production Hough and [`hough_reference`] on the same
    /// input from the same RNG state and requires the best line's ρ/θ
    /// bits and votes to be the reference's first line's, and the next
    /// RNG draw to match.
    fn assert_matches_reference(
        edges: &[(usize, usize)],
        width: usize,
        height: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng_ref = SimRng::seed_from(seed);
        let mut rng = SimRng::seed_from(seed);
        let expect = hough_reference(edges, width, height, MIN_VOTES, &mut rng_ref);
        let got = best_line_fresh(edges, width, height, &mut rng);
        prop_assert_eq!(expect.first().map(line_bits), got.as_ref().map(line_bits));
        prop_assert_eq!(rng_ref.next_u64(), rng.next_u64());
        Ok(())
    }

    /// Synthetic edge points inside (and, for `spill > 0`, beyond) a
    /// `width × height` frame; points past the frame push ρ out of the
    /// accumulator on both sides.
    fn synthetic_edges(
        raw: &[(u16, u16)],
        width: usize,
        height: usize,
        spill: usize,
    ) -> Vec<(usize, usize)> {
        raw.iter()
            .map(|&(r, c)| {
                (
                    usize::from(r) % (height + spill),
                    usize::from(c) % (width + spill),
                )
            })
            .collect()
    }

    #[test]
    fn rounding_matches_libm_round_on_fixed_cases() {
        let mut cases = vec![
            0.49999999999999994,
            0.5,
            -0.0,
            0.0,
            -0.5,
            -1.5,
            -0.49999999999999994,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            2f64.powi(52) + 1.0,
            2f64.powi(52) - 0.5,
            2f64.powi(53) + 2.0,
            2f64.powi(63),
            2f64.powi(64),
            2f64.powi(64) - 2048.0,
            1e300,
            -1e300,
        ];
        for k in 0..200 {
            let half = f64::from(k) + 0.5;
            cases.extend([
                half,
                f64::from_bits(half.to_bits() - 1),
                f64::from_bits(half.to_bits() + 1),
            ]);
        }
        for x in cases {
            assert_eq!(
                round_to_usize(x),
                x.round() as usize,
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn reused_scratch_matches_fresh_buffers_bitwise() {
        let track = Track::l_corner(3.0);
        let mut scan = ScanScratch::default();
        let mut edges = Vec::new();
        let mut scratch = HoughScratch::default();
        let mut rng_a = SimRng::seed_from(42);
        let mut rng_b = SimRng::seed_from(42);
        let mut rng_ref = SimRng::seed_from(42);
        for i in 0..10 {
            // The run buffer is reused across camera widths too.
            let cam = CameraModel {
                width: [64, 20, 130][i % 3],
                ..CameraModel::default()
            };
            let pose = BicycleState {
                x: 0.25 * i as f64,
                y: 0.03 * i as f64 - 0.1,
                theta: 0.02 * i as f64,
            };
            let want = reference_edges(&cam, &pose, &track);
            assert_eq!(scan_edges(&cam, &pose, &track), want, "fresh edges {i}");
            cam.scan_edges_into(&pose, &track, &mut scan, &mut edges);
            assert_eq!(edges, want, "reused edges {i}");
            let (width, height) = (cam.width, cam.height);
            let fresh = best_line_fresh(&want, width, height, &mut rng_a);
            let reused = best_line(&edges, width, height, &mut rng_b, &mut scratch);
            let reference = hough_reference(&want, width, height, MIN_VOTES, &mut rng_ref);
            assert_eq!(
                fresh.as_ref().map(line_bits),
                reused.as_ref().map(line_bits),
                "line {i}"
            );
            assert_eq!(
                reference.first().map(line_bits),
                reused.as_ref().map(line_bits),
                "line {i}"
            );
        }
        let next = rng_b.next_u64();
        assert_eq!(rng_a.next_u64(), next);
        assert_eq!(rng_ref.next_u64(), next);
    }

    /// The pre-optimization renderer: every pixel gets the exact
    /// `distance_to` test. The production `scan_edges_into` builds no
    /// frame, lights the columns of each row's inner spans outright and
    /// runs that test only in the band around the line's edge; with
    /// [`detect_edges_reference`] this reference pins that none of that
    /// changes a single edge.
    fn capture_reference(cam: &CameraModel, pose: &BicycleState, track: &Track) -> Frame {
        let mut frame = Frame {
            width: cam.width,
            height: cam.height,
            pixels: vec![false; cam.width * cam.height],
        };
        let cos_t = pose.theta.cos();
        let sin_t = pose.theta.sin();
        let mpc = cam.meters_per_col();
        let half_line = cam.line_width_m / 2.0;
        for row in 0..cam.height {
            let ahead =
                cam.far_m - (cam.far_m - cam.near_m) * (row as f64 + 0.5) / cam.height as f64;
            for col in 0..cam.width {
                let lateral = -cam.half_width_m + (col as f64 + 0.5) * mpc;
                let wx = pose.x + ahead * cos_t - lateral * sin_t;
                let wy = pose.y + ahead * sin_t + lateral * cos_t;
                if track.distance_to(wx, wy) <= half_line {
                    frame.pixels[row * cam.width + col] = true;
                }
            }
        }
        frame
    }

    #[test]
    fn capture_matches_reference_bitwise() {
        let cam = CameraModel::default();
        for track in [Track::straight(10.0), Track::l_corner(3.0)] {
            for i in 0..40 {
                // Poses sweeping across the track, rotating through a
                // full turn, including ones straddling the line edge.
                let pose = BicycleState {
                    x: 0.25 * f64::from(i) - 1.0,
                    y: 0.055 * f64::from(i) - 1.0,
                    theta: 0.17 * f64::from(i),
                };
                let expect = reference_edges(&cam, &pose, &track);
                let got = scan_edges(&cam, &pose, &track);
                assert_eq!(expect, got, "track/pose {i}");
            }
        }
    }

    #[test]
    fn capture_lights_a_pixel_exactly_on_the_line_edge() {
        // Half-width 1.5/64 m puts the centres of columns 30 and 33 at
        // exactly that distance from the line, when the car sits on it
        // heading along it: their squared distance is the threshold
        // itself, so a strict comparison would leave them dark.
        let cam = CameraModel {
            line_width_m: 3.0 / 64.0,
            ..CameraModel::default()
        };
        let half_line = cam.line_width_m / 2.0;
        assert_eq!(
            sqrt_threshold(half_line).to_bits(),
            (half_line * half_line).to_bits()
        );
        let pose = BicycleState {
            x: 1.0,
            y: 0.0,
            theta: 0.0,
        };
        let track = Track::straight(10.0);
        let frame = capture_reference(&cam, &pose, &track);
        for row in 0..cam.height {
            assert!(frame.get(row, 30) && frame.get(row, 33), "row {row}");
            assert!(!frame.get(row, 29) && !frame.get(row, 34), "row {row}");
        }
        // So every row's edges are at columns 30 and 34.
        let got = scan_edges(&cam, &pose, &track);
        assert_eq!(detect_edges_reference(&frame), got);
        let want: Vec<_> = (0..cam.height).flat_map(|r| [(r, 30), (r, 34)]).collect();
        assert_eq!(got, want);
    }

    /// Poses that put the centre of pixel `(row, col)` within a few ulps
    /// of `track`'s line edge at `target`, a point at exactly the
    /// half-width from the line: the pose puts the pixel there up to
    /// rounding, then steps `ulps` ulps in x and y.
    fn poses_near_the_edge(
        cam: &CameraModel,
        (row, col): (usize, usize),
        theta: f64,
        target: (f64, f64),
    ) -> impl Iterator<Item = BicycleState> {
        let ahead = cam.far_m - (cam.far_m - cam.near_m) * (row as f64 + 0.5) / cam.height as f64;
        let lateral = -cam.half_width_m + (col as f64 + 0.5) * cam.meters_per_col();
        let (cos_t, sin_t) = (theta.cos(), theta.sin());
        let x = target.0 - (ahead * cos_t - lateral * sin_t);
        let y = target.1 - (ahead * sin_t + lateral * cos_t);
        let step = |v: f64, ulps: i64| f64::from_bits(v.to_bits().wrapping_add_signed(ulps));
        (-3..=3).map(move |ulps| BicycleState {
            x: step(x, ulps),
            y: step(y, -ulps),
            theta,
        })
    }

    #[test]
    fn capture_matches_reference_within_ulps_of_the_line_edge() {
        // A straight line from (0, 0) to (2, 0): targets on both sides
        // of its body and around both end caps, seen through pixels
        // near and far, left, centre and right, at four headings. Each
        // sweep crosses the edge: its pixel is lit at one end and dark
        // at the other, and only the exact test can tell which.
        let track = Track::straight(2.0);
        let default = CameraModel::default();
        let on_centres = CameraModel {
            line_width_m: 3.0 / 64.0,
            ..CameraModel::default()
        };
        let mut lit_and_dark = [0usize; 2];
        for cam in [default, on_centres] {
            let h = cam.line_width_m / 2.0;
            let mut targets = vec![(0.7, h), (1.3, -h)];
            for phi in [-1.2f64, -0.5, 0.0, 0.5, 1.2] {
                targets.push((2.0 + h * phi.cos(), h * phi.sin()));
                targets.push((-h * phi.cos(), h * phi.sin()));
            }
            for &target in &targets {
                for theta in [0.0, 0.4, -1.3, 2.9] {
                    for pixel in [(0, 5), (13, 31), (31, 58)] {
                        for pose in poses_near_the_edge(&cam, pixel, theta, target) {
                            let frame = capture_reference(&cam, &pose, &track);
                            lit_and_dark[usize::from(frame.get(pixel.0, pixel.1))] += 1;
                            assert_eq!(
                                detect_edges_reference(&frame),
                                scan_edges(&cam, &pose, &track),
                                "target {target:?}, θ {theta}, pixel {pixel:?}, pose {pose:?}"
                            );
                        }
                    }
                }
            }
        }
        // Both outcomes occur many times over.
        assert!(lit_and_dark.iter().all(|&n| n > 200), "{lit_and_dark:?}");
    }

    #[test]
    fn capture_beyond_the_covered_range_matches_reference() {
        // Past SPAN_COORD_LIMIT_M, and for a NaN heading, every pixel
        // takes the exact test; a zero-width camera has no pixel.
        let far = SPAN_COORD_LIMIT_M * 3.0;
        let track = Track::new(vec![(far, -far), (far + 4.0, -far), (far + 4.0, 3.0 - far)]);
        let cam = CameraModel::default();
        for i in 0..24 {
            let pose = BicycleState {
                x: far + 0.2 * f64::from(i),
                y: -far + 0.01 * f64::from(i) - 0.1,
                theta: 0.1 * f64::from(i) - 1.0,
            };
            assert_eq!(
                reference_edges(&cam, &pose, &track),
                scan_edges(&cam, &pose, &track),
                "pose {i}"
            );
        }
        let on_line = BicycleState {
            x: far + 1.0,
            y: -far,
            theta: 0.0,
        };
        assert!(!scan_edges(&cam, &on_line, &track).is_empty());
        let near = Track::straight(10.0);
        let lost = BicycleState {
            x: 1.0,
            y: 0.0,
            theta: f64::NAN,
        };
        assert!(scan_edges(&cam, &lost, &near).is_empty());
        assert_eq!(reference_edges(&cam, &lost, &near), Vec::new());
        let blind = CameraModel {
            width: 0,
            ..CameraModel::default()
        };
        let pose = BicycleState {
            x: 1.0,
            y: 0.0,
            theta: 0.0,
        };
        assert!(scan_edges(&blind, &pose, &near).is_empty());
        assert_eq!(reference_edges(&blind, &pose, &near), Vec::new());
    }

    /// The reference frame of `track` seen from `pose`, after checking
    /// that the program's edges are its pairwise scan.
    fn checked_frame(cam: &CameraModel, pose: &BicycleState, track: &Track) -> Frame {
        let frame = capture_reference(cam, pose, track);
        assert_eq!(
            detect_edges_reference(&frame),
            scan_edges(cam, pose, track),
            "width {}, pose {pose:?}",
            cam.width
        );
        frame
    }

    /// Row `row`'s lit columns in `frame`, from the first to one past
    /// the last; empty when the row is dark.
    fn lit_range(frame: &Frame, row: usize) -> Range<usize> {
        let lit = |c: &usize| frame.get(row, *c);
        let first = (0..frame.width).find(lit).unwrap_or(0);
        let end = (0..frame.width).rev().find(lit).map_or(0, |c| c + 1);
        first..end.max(first)
    }

    #[test]
    fn run_merge_matches_reference_on_rows_a_straight_track_never_makes() {
        let cam = CameraModel::default();
        let edges_in =
            |edges: &[(usize, usize)], row: usize| edges.iter().filter(|e| e.0 == row).count();
        // Rows across both legs of the hairpin: two runs, four edges. A
        // heading of π lists the legs' runs right to left.
        let far = SPAN_COORD_LIMIT_M * 3.0;
        let far_hairpin = Track::new(
            hairpin()
                .points
                .iter()
                .map(|&(x, y)| (x + far, y - far))
                .collect(),
        );
        for (track, x0, y0) in [(hairpin(), 0.0, 0.0), (far_hairpin, far, -far)] {
            for theta in [0.0, std::f64::consts::PI] {
                // Past SPAN_COORD_LIMIT_M the runs come from the
                // per-column exact test.
                let pose = BicycleState {
                    x: x0 + 1.5,
                    y: y0 + 0.15,
                    theta,
                };
                checked_frame(&cam, &pose, &track);
                let edges = scan_edges(&cam, &pose, &track);
                assert!(
                    (0..cam.height).all(|r| edges_in(&edges, r) == 4),
                    "{pose:?}: {edges:?}"
                );
            }
        }
        // Zig-zag rows through a joint, where two segments' runs touch
        // or overlap; the joint at (0.8, 0) carries the zero-length
        // segment, whose run overlaps both neighbours'. Heading +y, rows
        // run along x and cross both legs of a joint; the sweep moves
        // them by a third of a millimetre at a time.
        let track = zigzag();
        let pieces: Vec<Track> = track
            .segments()
            .map(|(a, b)| Track::new(vec![a, b]))
            .collect();
        let (mut touching, mut overlapping, mut zero_length) = (0, 0, 0);
        for (jx, jy) in [(0.4, 0.4), (0.8, 0.0), (1.2, 0.4)] {
            for step in 0..100 {
                let pose = BicycleState {
                    x: jx,
                    y: jy - 0.7 + 0.00033 * f64::from(step),
                    theta: std::f64::consts::FRAC_PI_2,
                };
                checked_frame(&cam, &pose, &track);
                let frames: Vec<Frame> = pieces
                    .iter()
                    .map(|p| capture_reference(&cam, &pose, p))
                    .collect();
                for row in 0..cam.height {
                    let lit: Vec<Range<usize>> = frames.iter().map(|f| lit_range(f, row)).collect();
                    for (i, a) in lit.iter().enumerate() {
                        for b in lit
                            .iter()
                            .skip(i + 1)
                            .filter(|b| !a.is_empty() && !b.is_empty())
                        {
                            touching += usize::from(a.end == b.start || b.end == a.start);
                            overlapping += usize::from(a.start < b.end && b.start < a.end);
                        }
                    }
                    zero_length += usize::from(!lit[2].is_empty());
                }
            }
        }
        assert!(
            touching > 0 && overlapping > 0 && zero_length > 0,
            "{touching} {overlapping} {zero_length}"
        );
        // Runs from column 0 and to the last column, which have no edge
        // at the border: the line along either side of the view, and
        // along a whole row.
        let straight = Track::straight(10.0);
        let rows = |x: f64, y: f64, theta: f64| -> Vec<Range<usize>> {
            let frame = checked_frame(&cam, &BicycleState { x, y, theta }, &straight);
            (0..cam.height).map(|r| lit_range(&frame, r)).collect()
        };
        let left = rows(1.0, 0.49, 0.0);
        assert!(
            left.iter().all(|r| r.start == 0 && !r.is_empty()),
            "{left:?}"
        );
        let right = rows(1.0, -0.49, 0.0);
        assert!(
            right.iter().all(|r| r.end == cam.width && !r.is_empty()),
            "{right:?}"
        );
        let across = rows(5.0, -0.6, std::f64::consts::FRAC_PI_2);
        assert!(across.contains(&(0..cam.width)), "{across:?}");
        // Cameras one to three columns wide, the line sweeping across
        // them: every column is lit in some frame and dark in another.
        for width in 1..=3 {
            let cam = CameraModel {
                width,
                ..CameraModel::default()
            };
            let mut lit = vec![[false; 2]; width];
            for step in -60..=60 {
                let pose = BicycleState {
                    x: 1.0,
                    y: 0.01 * f64::from(step),
                    theta: 0.0,
                };
                let frame = checked_frame(&cam, &pose, &straight);
                for (col, seen) in lit.iter_mut().enumerate() {
                    seen[usize::from(frame.get(0, col))] = true;
                }
            }
            assert!(
                lit.iter().all(|seen| seen == &[true, true]),
                "width {width}"
            );
        }
    }

    /// `got` is `want` bit for bit, or both are NaN.
    fn same_float(got: f64, want: f64) -> bool {
        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan())
    }

    fn assert_floor_ceil_match_libm(x: f64) -> Result<(), TestCaseError> {
        prop_assert!(same_float(floor_f64(x), x.floor()), "floor({:e})", x);
        prop_assert!(same_float(ceil_f64(x), x.ceil()), "ceil({:e})", x);
        Ok(())
    }

    #[test]
    fn floor_and_ceil_match_libm_on_fixed_cases() {
        let p52 = 2f64.powi(52);
        let mut cases = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::MIN,
            p52 - 1.0,
            p52 - 0.5,
            p52,
            p52 + 1.0,
            -(p52 - 1.0),
            -(p52 - 0.5),
            -p52,
            -(p52 + 1.0),
            2f64.powi(63),
            -2f64.powi(63),
            2f64.powi(64),
        ];
        for k in -300..=300 {
            let x = f64::from(k);
            let half = x + 0.5;
            cases.extend([
                x,
                x.next_up(),
                x.next_down(),
                half,
                half.next_up(),
                half.next_down(),
            ]);
        }
        for x in cases {
            assert_floor_ceil_match_libm(x).unwrap();
        }
    }

    /// Checks [`sqrt_threshold`]'s defining property at `h`, and that it
    /// decides `d.sqrt() <= h` for every `d` within a few ulps of it.
    fn assert_threshold_property(h: f64) -> Result<(), TestCaseError> {
        let t = sqrt_threshold(h);
        if h >= 0.0 {
            prop_assert!(t.sqrt() <= h, "h = {:e}: T = {:e} has a root above h", h, t);
            prop_assert!(
                t.is_infinite() || t.next_up().sqrt() > h,
                "h = {:e}: T = {:e} is not the largest",
                h,
                t
            );
        }
        let mut near = vec![0.0, f64::INFINITY, f64::NAN, h * h];
        let mut d = t;
        for _ in 0..4 {
            near.extend([d, t + (t - d)]);
            d = d.next_down();
        }
        let mut d = t;
        for _ in 0..4 {
            d = d.next_up();
            near.push(d);
        }
        for d in near.into_iter().filter(|d| d.is_nan() || *d >= 0.0) {
            prop_assert_eq!(d.sqrt() <= h, d <= t, "h = {:e}, d = {:e}", h, d);
        }
        Ok(())
    }

    #[test]
    fn sqrt_threshold_fixed_cases() {
        let cam = CameraModel::default();
        for h in [
            cam.line_width_m / 2.0,
            1.5 / 64.0,
            0.0,
            -0.0,
            1.0,
            2.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-160,
            1e154,
            1.4e154,
            f64::MAX,
            f64::INFINITY,
            -1.0,
            f64::NEG_INFINITY,
            f64::NAN,
        ] {
            assert_threshold_property(h).unwrap();
        }
    }

    /// The pre-optimization edge scan, verbatim: every horizontal pixel
    /// pair of every row. `scan_edges_into` compares only the pairs from
    /// each row's first lit pixel to one past its last; with
    /// [`capture_reference`] this reference pins that it never drops,
    /// adds or reorders an edge.
    fn detect_edges_reference(frame: &Frame) -> Vec<(usize, usize)> {
        let mut edges = Vec::new();
        for (row, pixels) in frame.pixels.chunks_exact(frame.width.max(1)).enumerate() {
            for (col, (left, right)) in pixels.iter().zip(pixels.iter().skip(1)).enumerate() {
                if left != right {
                    edges.push((row, col + 1));
                }
            }
        }
        edges
    }

    /// Camera-frame and dense synthetic edge sets for the geometry tests.
    fn memo_test_edge_sets() -> Vec<Vec<(usize, usize)>> {
        let cam = CameraModel::default();
        let track = Track::l_corner(3.0);
        let mut sets: Vec<_> = (0..6)
            .map(|i| {
                let pose = BicycleState {
                    x: 0.5 * f64::from(i),
                    y: 0.04 * f64::from(i) - 0.1,
                    theta: 0.1 * f64::from(i) - 0.2,
                };
                scan_edges(&cam, &pose, &track)
            })
            .collect();
        let mut rng = SimRng::seed_from(11);
        let raw: Vec<(u16, u16)> = (0..300)
            .map(|_| (rng.next_u64() as u16, rng.next_u64() as u16))
            .collect();
        sets.push(synthetic_edges(&raw, 64, 32, 8));
        sets
    }

    #[test]
    fn one_scratch_across_geometries_matches_reference() {
        let fits = HoughGeometry::of_frame(200, 100);
        assert!(fits.rho_bins == 449 && fits.memo_fits());
        let big = HoughGeometry::of_frame(700, 300);
        assert!(
            big.rho_bins == 1525 && !big.memo_fits(),
            "the last geometry must bypass the memo"
        );
        let mut scratch = HoughScratch::default();
        let sets = memo_test_edge_sets();
        for (g, (width, height)) in [(64, 32), (80, 40), (64, 32), (200, 100), (700, 300)]
            .into_iter()
            .enumerate()
        {
            for (s, edges) in sets.iter().enumerate() {
                let seed = (g * 100 + s) as u64;
                let mut rng_ref = SimRng::seed_from(seed);
                let mut rng = SimRng::seed_from(seed);
                let expect = hough_reference(edges, width, height, MIN_VOTES, &mut rng_ref);
                let got = best_line(edges, width, height, &mut rng, &mut scratch);
                assert_eq!(
                    expect.first().map(line_bits),
                    got.as_ref().map(line_bits),
                    "{width}x{height}, set {s}"
                );
                assert_eq!(rng_ref.next_u64(), rng.next_u64());
            }
            let memo_len = if (width, height) == (700, 300) {
                0
            } else {
                height * (width + 1) * THETA_BINS
            };
            assert_eq!(scratch.memo.len(), memo_len, "{width}x{height}");
        }
    }

    #[test]
    fn every_memo_byte_of_the_default_camera_is_the_direct_quantisation() {
        let cam = CameraModel::default();
        let (width, height) = (cam.width, cam.height);
        let mut scratch = HoughScratch::default();
        let mut rng = SimRng::seed_from(3);
        // A one-point frame draws its point, so this fills every entry;
        // one vote is too few for a line.
        for row in 0..height {
            for col in 0..=width {
                assert!(best_line(&[(row, col)], width, height, &mut rng, &mut scratch).is_none());
            }
        }
        let diag = ((width * width + height * height) as f64).sqrt();
        let rho_bins = (2.0 * diag).ceil() as usize + 1;
        assert_eq!(scratch.memo.len(), height * (width + 1) * THETA_BINS);
        let trash = THETA_BINS * rho_bins;
        assert!(trash < usize::from(CELL_UNSET));
        for (i, &entry) in scratch.memo.iter().enumerate() {
            let (point, tb) = (i / THETA_BINS, i % THETA_BINS);
            let (row, col) = (point / (width + 1), point % (width + 1));
            let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
            let rho = col as f64 * theta.cos() + row as f64 * theta.sin();
            let rb = (rho + diag).round() as usize;
            let want = if rb < rho_bins {
                tb * rho_bins + rb
            } else {
                trash
            };
            assert_eq!(usize::from(entry), want, "row {row}, col {col}, θ bin {tb}");
        }
    }

    proptest! {
        #[test]
        fn floor_and_ceil_match_libm(
            bits in any::<u64>(),
            k in -(1i64 << 53)..1 << 53,
            ulps in -3i64..=3,
        ) {
            // Arbitrary bit patterns, plus values within a few ulps of an
            // integer and of a half-integer.
            let near = |x: f64| f64::from_bits(x.to_bits().wrapping_add_signed(ulps));
            for x in [f64::from_bits(bits), near(k as f64), near(k as f64 + 0.5)] {
                assert_floor_ceil_match_libm(x)?;
            }
        }

        #[test]
        fn sqrt_threshold_decides_the_root_test(
            bits in any::<u64>(),
            h in 0.0f64..1.0,
        ) {
            assert_threshold_property(f64::from_bits(bits))?;
            assert_threshold_property(h)?;
        }

        #[test]
        fn rounding_matches_libm_round(
            bits in any::<u64>(),
            k in 0u64..1 << 20,
            ulps in -3i64..=3,
        ) {
            // Arbitrary bit patterns (mostly huge, tiny, NaN or
            // negative), plus values within a few ulps of k + 0.5, where
            // a rounding shortcut would go wrong.
            let near_half = f64::from_bits((k as f64 + 0.5).to_bits().wrapping_add_signed(ulps));
            for x in [f64::from_bits(bits), near_half, -near_half] {
                prop_assert_eq!(round_to_usize(x), x.round() as usize, "x = {:e}", x);
            }
        }

        #[test]
        fn hough_matches_reference_on_track_frames(
            corner in any::<bool>(),
            x in -0.5f64..4.0,
            y in -0.3f64..0.3,
            theta in -0.8f64..0.8,
            seed in any::<u64>(),
        ) {
            let cam = CameraModel::default();
            let track = if corner { Track::l_corner(3.0) } else { Track::straight(10.0) };
            let edges = scan_edges(&cam, &BicycleState { x, y, theta }, &track);
            assert_matches_reference(&edges, cam.width, cam.height, seed)?;
        }

        #[test]
        fn hough_matches_reference_beyond_the_sample_cap(
            raw in proptest::collection::vec((any::<u16>(), any::<u16>()), 257..700),
            width in 1usize..90,
            height in 1usize..50,
            spill in 0usize..40,
            seed in any::<u64>(),
        ) {
            // More points than MAX_SAMPLES: not every point is drawn, and
            // dense synthetic sets push many cells past MIN_VOTES.
            let edges = synthetic_edges(&raw, width, height, spill);
            assert_matches_reference(&edges, width, height, seed)?;
        }

        #[test]
        fn hough_matches_reference_on_tiny_edge_sets(
            raw in proptest::collection::vec((any::<u16>(), any::<u16>()), 1..=3),
            copies in 2usize..=60,
            width in 1usize..90,
            height in 1usize..50,
            seed in any::<u64>(),
        ) {
            // One to three points and as many draws: repeated draws give
            // a point a vote weight above one.
            let edges = synthetic_edges(&raw, width, height, 0);
            assert_matches_reference(&edges, width, height, seed)?;
            // The same points listed `copies` times each: enough draws
            // land on them for their cells to reach MIN_VOTES.
            let repeated: Vec<_> = edges
                .iter()
                .flat_map(|&e| std::iter::repeat_n(e, copies))
                .collect();
            assert_matches_reference(&repeated, width, height, seed)?;
        }

        #[test]
        fn capture_candidate_filter_is_bitwise_neutral(
            shape in 0usize..4,
            width in 1usize..=130,
            at in 0.0f64..1.0,
            dx in -1.5f64..1.5,
            dy in -1.5f64..1.5,
            theta in -7.0f64..7.0,
        ) {
            // Every track shape at every camera width, from poses around
            // a point of the track in every heading.
            let cam = CameraModel { width, ..CameraModel::default() };
            let track = test_track(shape);
            let (x, y) = point_along(&track, at);
            let pose = BicycleState { x: x + dx, y: y + dy, theta };
            prop_assert_eq!(reference_edges(&cam, &pose, &track), scan_edges(&cam, &pose, &track));
        }

        #[test]
        fn track_distance_non_negative(x in -20.0f64..20.0, y in -20.0f64..20.0) {
            let track = Track::l_corner(5.0);
            prop_assert!(track.distance_to(x, y) >= 0.0);
        }

        #[test]
        fn nearest_point_is_on_polyline_bound(x in -20.0f64..20.0, y in -20.0f64..20.0) {
            let track = Track::straight(10.0);
            let (nx, ny) = track.nearest_point(x, y);
            prop_assert!((0.0..=10.0).contains(&nx));
            prop_assert_eq!(ny, 0.0);
        }
    }
}
