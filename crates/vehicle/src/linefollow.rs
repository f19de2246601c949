//! The line-following perception pipeline (paper Figure 6).
//!
//! The real vehicle captures video with a ZED camera, runs Canny edge
//! detection, applies a region filter, extracts line coordinates with a
//! probabilistic Hough transform, and feeds the Motion Planner which
//! computes a steering angle through a PID controller. This module runs
//! the same stage structure on synthetic frames rendered from the ground
//! truth track geometry:
//!
//! 1. [`CameraModel::capture_into`] — renders the floor line into a
//!    binary bird's-eye image of the area ahead of the car,
//! 2. [`detect_edges_into`] — extracts edge pixels (intensity
//!    transitions),
//! 3. [`hough_lines_into`] — a probabilistic Hough vote (random edge-point
//!    subsampling into a (ρ, θ) accumulator, as in Matas et al.),
//! 4. [`LineFollower::steering`] — converts the strongest line into a
//!    lateral error and runs it through the PID.

use crate::dynamics::BicycleState;
use crate::pid::Pid;
use sim_core::SimRng;
use std::cell::RefCell;
use std::cmp::Reverse;

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

    /// The polyline points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
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

/// A binary camera frame (bird's-eye projection of the floor ahead).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<bool>,
}

impl Frame {
    /// Frame width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(row, col)`; row 0 is the far edge of the view.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.pixels[row * self.width + col]
    }

    /// Fraction of lit pixels, useful as a "line visible" heuristic.
    #[cfg(test)]
    pub fn fill_ratio(&self) -> f64 {
        let lit = self.pixels.iter().filter(|&&p| p).count();
        lit as f64 / self.pixels.len() as f64
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

impl CameraModel {
    /// Lateral metres represented by one pixel column.
    pub fn meters_per_col(&self) -> f64 {
        2.0 * self.half_width_m / self.width as f64
    }

    /// Renders the track as seen from `pose`.
    #[cfg(test)]
    pub fn capture(&self, pose: &BicycleState, track: &Track) -> Frame {
        let mut frame = Frame {
            width: self.width,
            height: self.height,
            pixels: Vec::new(),
        };
        self.capture_into(pose, track, &mut frame);
        frame
    }

    /// Renders the track as seen from `pose` into an existing frame,
    /// reusing its pixel buffer. Produces exactly the pixels of the
    /// naive every-pixel render (pinned bitwise by
    /// `capture_matches_reference_bitwise`): each image row is one scan
    /// line across the ground, and a pixel can only be lit where that
    /// line passes through a track segment's *capsule* (the segment
    /// dilated by the line half-width). The capsule intersection — with
    /// a margin nine orders of magnitude above f64 rounding error plus
    /// a ±1-column guard band — selects candidate columns, and only
    /// those get the exact `distance_to` test, evaluated with the
    /// original expressions so every lit pixel is bitwise identical.
    /// Typical frames test a handful of columns per row instead of all
    /// of them. The test compares the squared distance with
    /// `sqrt_threshold` of the half-width, which needs no `sqrt`, and
    /// the column span rounds with `floor_f64`/`ceil_f64`, which need
    /// no libm; both agree bit for bit with what they stand for.
    pub fn capture_into(&self, pose: &BicycleState, track: &Track, frame: &mut Frame) {
        frame.width = self.width;
        frame.height = self.height;
        frame.pixels.clear();
        frame.pixels.resize(self.width * self.height, false);
        let cos_t = pose.theta.cos();
        let sin_t = pose.theta.sin();
        let mpc = self.meters_per_col();
        let half_line = self.line_width_m / 2.0;
        let max_dist_sq = sqrt_threshold(half_line);
        // Candidate reach: the exact test lights pixels at distance
        // ≤ half_line; candidates are taken out to half_line + 1e-7 m,
        // so a boundary pixel the capsule math places up to 100 nm off
        // (f64 error here is ~1e-15 m) still gets the exact test.
        let reach = half_line + 1e-7;
        // One row slice per image row (row 0 = far edge); `max(1)` only
        // matters for a zero-width frame, which has no pixels.
        for (row, pixels) in frame.pixels.chunks_exact_mut(self.width.max(1)).enumerate() {
            let ahead =
                self.far_m - (self.far_m - self.near_m) * (row as f64 + 0.5) / self.height as f64;
            // The row's scan line in world space: W(s) = base + s·dir
            // with s the lateral coordinate and dir unit-length.
            let bx = pose.x + ahead * cos_t;
            let by = pose.y + ahead * sin_t;
            let dir = (-sin_t, cos_t);
            for (a, b) in track.segments() {
                let Some((s_lo, s_hi)) = capsule_span(a, b, (bx, by), dir, reach) else {
                    continue;
                };
                // Lateral → column (lateral = -half_width + (col+0.5)·mpc),
                // widened one column each way as the conservative guard.
                // `as usize` saturates, so a span off either side of the
                // image clamps to it (and one wholly left of it is empty).
                let c_lo = (floor_f64((s_lo + self.half_width_m) / mpc - 0.5) - 1.0) as usize;
                let c_end = (ceil_f64((s_hi + self.half_width_m) / mpc - 0.5) + 2.0) as usize;
                for (col, lit) in pixels.iter_mut().enumerate().take(c_end).skip(c_lo) {
                    if *lit {
                        continue;
                    }
                    let lateral = -self.half_width_m + (col as f64 + 0.5) * mpc;
                    // Vehicle frame → world frame (the reference
                    // expressions, verbatim).
                    let wx = pose.x + ahead * cos_t - lateral * sin_t;
                    let wy = pose.y + ahead * sin_t + lateral * cos_t;
                    *lit = track.distance_sq_to(wx, wy) <= max_dist_sq;
                }
            }
        }
    }
}

/// Intersects the scan line `base + s·dir` (`dir` unit-length) with the
/// capsule of radius `r` around segment `ab`, returning the `s`-span of
/// the intersection (a single interval — capsules are convex) or `None`
/// when the line misses it entirely. Used only to *select candidate
/// pixels* in [`CameraModel::capture_into`]; the margin built into `r`
/// plus the caller's column guard band make any rounding here
/// inconsequential for the rendered bits.
fn capsule_span(
    a: (f64, f64),
    b: (f64, f64),
    base: (f64, f64),
    dir: (f64, f64),
    r: f64,
) -> Option<(f64, f64)> {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    // End discs: |base + s·dir − p|² ≤ r², i.e. s² + 2·bq·s + c ≤ 0.
    for p in [a, b] {
        let ex = base.0 - p.0;
        let ey = base.1 - p.1;
        let bq = ex * dir.0 + ey * dir.1;
        let c = ex * ex + ey * ey - r * r;
        let disc = bq * bq - c;
        if disc >= 0.0 {
            let sq = disc.sqrt();
            lo = lo.min(-bq - sq);
            hi = hi.max(-bq + sq);
        }
    }
    // Rectangle part: |perp offset| ≤ r within the segment's extent.
    let abx = b.0 - a.0;
    let aby = b.1 - a.1;
    let len = (abx * abx + aby * aby).sqrt();
    if len > 0.0 {
        let ux = abx / len;
        let uy = aby / len;
        let px = base.0 - a.0;
        let py = base.1 - a.1;
        // Signed perp distance and along-segment coordinate, both
        // affine in s.
        let constraints = [
            (px * uy - py * ux, dir.0 * uy - dir.1 * ux, -r, r),
            (px * ux + py * uy, dir.0 * ux + dir.1 * uy, 0.0, len),
        ];
        let mut rlo = f64::NEG_INFINITY;
        let mut rhi = f64::INFINITY;
        let mut feasible = true;
        for (c0, dc, lim_lo, lim_hi) in constraints {
            if dc.abs() < 1e-12 {
                // Scan line (anti)parallel to this constraint: it either
                // holds for every s or for none.
                if c0 < lim_lo || c0 > lim_hi {
                    feasible = false;
                    break;
                }
            } else {
                let s1 = (lim_lo - c0) / dc;
                let s2 = (lim_hi - c0) / dc;
                rlo = rlo.max(s1.min(s2));
                rhi = rhi.min(s1.max(s2));
            }
        }
        if feasible && rlo <= rhi {
            lo = lo.min(rlo);
            hi = hi.max(rhi);
        }
    }
    (lo <= hi).then_some((lo, hi))
}

/// Extracts edge pixels: positions where the binary intensity changes
/// horizontally (a cheap Canny stand-in on a binary frame).
#[cfg(test)]
pub fn detect_edges(frame: &Frame) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    detect_edges_into(frame, &mut edges);
    edges
}

/// Pixels per window of [`detect_edges_into`]'s dark-window skip.
const EDGE_WINDOW: usize = 16;

/// Extracts edge pixels into a reusable buffer (cleared first):
/// positions where the binary intensity changes horizontally (a cheap
/// Canny stand-in on a binary frame).
///
/// Finds the edges of the plain pairwise scan, in the same order, but
/// skips dark windows. Each row is cut into windows of `EDGE_WINDOW`
/// pixels, and the pairs whose left pixel lies in a window are compared
/// only if that window or the pixel just past it is lit: a transition
/// needs a lit pixel on one side, so a dark stretch holds none. A frame
/// of a thin line is mostly dark.
pub fn detect_edges_into(frame: &Frame, edges: &mut Vec<(usize, usize)>) {
    edges.clear();
    for (row, pixels) in frame.pixels.chunks_exact(frame.width.max(1)).enumerate() {
        let mut windows = pixels.chunks(EDGE_WINDOW).peekable();
        let mut start = 0;
        while let Some(window) = windows.next() {
            // The right-hand pixel of the window's last pair, if any.
            let next = windows.peek().and_then(|w| w.first()).copied();
            if next == Some(true) || !is_dark(window) {
                for (i, (left, right)) in window.iter().zip(window.iter().skip(1)).enumerate() {
                    if left != right {
                        edges.push((row, start + i + 1));
                    }
                }
                if let (Some(&last), Some(next)) = (window.last(), next) {
                    if last != next {
                        edges.push((row, start + window.len()));
                    }
                }
            }
            start += window.len();
        }
    }
}

/// Whether no pixel of `window` is lit. A full window compares as one
/// block of bytes.
fn is_dark(window: &[bool]) -> bool {
    window == [false; EDGE_WINDOW] || window.iter().all(|&p| !p)
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

/// Votes a (ρ, θ) cell needs before [`hough_lines_into`] reports it as a
/// line. Must stay above zero: the vote loop finds the reported cells
/// by watching counts cross it.
pub const MIN_VOTES: u32 = 8;

/// Edge points the probabilistic Hough draws per frame, at most.
const MAX_SAMPLES: usize = 256;

const THETA_BINS: usize = 45; // 4° steps over [0, π)

/// Probabilistic Hough transform: votes a random subset of edge points
/// into a quantised (ρ, θ) accumulator and returns the lines with at
/// least [`MIN_VOTES`] votes, strongest first.
#[cfg(test)]
pub fn hough_lines(
    edges: &[(usize, usize)],
    frame_width: usize,
    frame_height: usize,
    rng: &mut SimRng,
) -> Vec<HoughLine> {
    let mut scratch = HoughScratch::new();
    let mut lines = Vec::new();
    hough_lines_into(
        edges,
        frame_width,
        frame_height,
        rng,
        &mut scratch,
        &mut lines,
    );
    lines
}

/// Lines [`hough_lines_into`] returns, at most.
const MAX_LINES: usize = 8;

/// Reusable storage for [`hough_lines_into`].
#[derive(Debug, Clone, Default)]
pub struct HoughScratch {
    /// The (ρ, θ) accumulator, one row of ρ bins per θ bin. A cell
    /// gets at most one vote per sample, so it never exceeds
    /// [`MAX_SAMPLES`] and fits a `u16`.
    acc: Vec<u16>,
    /// How many times the sampler drew each edge point.
    draws: Vec<u16>,
    /// Accumulator cells whose count reached [`MIN_VOTES`], as
    /// `(final votes, cell index)`; the votes are filled in after the
    /// vote loop.
    crossed: Vec<(Reverse<u16>, usize)>,
    /// The frame geometry `memo` is laid out for, once there is one.
    geometry: Option<HoughGeometry>,
    /// ρ-bin memo: for each in-frame point (row < height, col ≤ width)
    /// and θ bin, one byte holding the point's ρ bin + 1, [`RHO_UNSET`]
    /// before it is first quantised, or [`RHO_OFF`] when it falls off
    /// the accumulator. Empty when the ρ range does not fit a byte.
    memo: Vec<u8>,
}

/// ρ-memo byte of a (point, θ) pair not yet quantised.
const RHO_UNSET: u8 = 0;

/// ρ-memo byte of a (point, θ) pair whose ρ falls off the accumulator.
const RHO_OFF: u8 = u8::MAX;

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

    /// The ρ bin of point `(row, col)` at the θ bin whose cos and sin
    /// are given, by the reference's expression; bins from `rho_bins` up
    /// are off the accumulator. Both the memo and the direct path
    /// quantise through this.
    fn rho_bin(&self, row: usize, col: usize, (cos_t, sin_t): (f64, f64)) -> usize {
        let rho = col as f64 * cos_t + row as f64 * sin_t;
        round_to_usize(rho + self.diag)
    }

    /// Whether a memo byte can hold every ρ bin + 1 below [`RHO_OFF`].
    fn memo_fits(&self) -> bool {
        self.rho_bins < usize::from(RHO_OFF)
    }

    /// The memo's byte range for in-frame point `(row, col)`, one byte
    /// per θ bin, or `None` for a point outside the frame.
    fn memo_range(&self, row: usize, col: usize) -> Option<std::ops::Range<usize>> {
        (row < self.height && col <= self.width).then(|| {
            let start = (row * (self.width + 1) + col) * THETA_BINS;
            start..start + THETA_BINS
        })
    }
}

impl HoughScratch {
    /// Creates empty scratch storage (allocated on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Adds `weight` votes to accumulator cell `idx`, and lists the cell in
/// `crossed` when its count reaches [`MIN_VOTES`].
fn add_votes(acc: &mut [u16], idx: usize, weight: u16, crossed: &mut Vec<(Reverse<u16>, usize)>) {
    if let Some(votes) = acc.get_mut(idx) {
        let before = u32::from(*votes);
        *votes += weight;
        if before < MIN_VOTES && u32::from(*votes) >= MIN_VOTES {
            crossed.push((Reverse(0), idx));
        }
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

/// Finds the strongest lines in an edge set with a probabilistic Hough
/// vote, with caller-provided scratch and output buffers.
///
/// Returns the lines of the straightforward loop, which quantises all
/// 45 θ bins of every sample with `f64::round` and then scans the whole
/// accumulator, and makes the same RNG draws (`hough_reference` in the
/// tests pins both bitwise). It does far less work per frame:
///
/// - The sampler's draws are counted per edge point first, then each
///   distinct drawn point votes once with its draw count as weight.
///   Integer addition commutes, so every cell ends with the same count.
/// - ρ bins come from `round_to_usize`, not a libm call, and the
///   `(cos θ, sin θ)` table uses the reference's `π·tb/bins`
///   expression, so every `(ρ, θ)` is bitwise identical.
/// - The scratch memoises each in-frame point's ρ bins, so a point is
///   quantised only the first time a frame drawn with this scratch
///   draws it. The memo and the θ table are rebuilt when the frame
///   geometry changes; points outside the frame, and geometries whose
///   ρ range does not fit a byte, are quantised on every draw.
/// - A cell is listed when its count reaches [`MIN_VOTES`]. Counts only
///   grow, so each reported cell is listed exactly once, and only the
///   strongest eight, by votes and then index, become lines: the order
///   of the reference's stable sort of its index-ordered scan.
pub fn hough_lines_into(
    edges: &[(usize, usize)],
    frame_width: usize,
    frame_height: usize,
    rng: &mut SimRng,
    scratch: &mut HoughScratch,
    lines: &mut Vec<HoughLine>,
) {
    lines.clear();
    if edges.is_empty() {
        return;
    }
    let HoughScratch {
        acc,
        draws,
        crossed,
        geometry,
        memo,
    } = scratch;
    let geo = match geometry {
        Some(geo) if geo.width == frame_width && geo.height == frame_height => geo,
        _ => {
            let geo = geometry.insert(HoughGeometry::of_frame(frame_width, frame_height));
            memo.clear();
            if geo.memo_fits() {
                memo.resize(frame_height * (frame_width + 1) * THETA_BINS, RHO_UNSET);
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
    acc.resize(THETA_BINS * rho_bins, 0);
    let acc = acc.as_mut_slice();
    crossed.clear();
    for (&(row, col), &weight) in edges.iter().zip(draws.iter()) {
        if weight == 0 {
            continue;
        }
        let cells = geo.memo_range(row, col).and_then(|r| memo.get_mut(r));
        if let Some(cells) = cells {
            // A point's bytes are filled together, so the first tells.
            if cells.first() == Some(&RHO_UNSET) {
                for (cell, &trig) in cells.iter_mut().zip(&geo.trig) {
                    // `memo_fits` keeps every on-accumulator bin + 1 below RHO_OFF.
                    let rb = geo.rho_bin(row, col, trig);
                    *cell = if rb < rho_bins { rb as u8 + 1 } else { RHO_OFF };
                }
            }
            let mut row_start = 0;
            for &cell in cells.iter() {
                if cell != RHO_OFF {
                    add_votes(acc, row_start + usize::from(cell) - 1, weight, crossed);
                }
                row_start += rho_bins;
            }
        } else {
            let mut row_start = 0;
            for &trig in &geo.trig {
                let rb = geo.rho_bin(row, col, trig);
                if rb < rho_bins {
                    add_votes(acc, row_start + rb, weight, crossed);
                }
                row_start += rho_bins;
            }
        }
    }
    for (votes, idx) in crossed.iter_mut() {
        // detlint:allow(S3) in-bounds: `crossed` only holds cells voted through `acc.get_mut` in `add_votes`
        *votes = Reverse(acc[*idx]);
    }
    crossed.sort_unstable();
    lines.extend(
        crossed
            .iter()
            .take(MAX_LINES)
            .map(|&(Reverse(votes), idx)| HoughLine {
                rho: (idx % rho_bins) as f64 - geo.diag,
                theta: std::f64::consts::PI * (idx / rho_bins) as f64 / THETA_BINS as f64,
                votes: u32::from(votes),
            }),
    );
}

/// Recycled vision-pipeline buffers: frame pixels, edge points, Hough
/// scratch and detected lines. A scenario run constructs one
/// [`LineFollower`]; without recycling, every run re-pays the
/// pipeline's first-frame buffer growth (~15 allocations). Each buffer
/// is cleared or fully overwritten before use, so recycling cannot
/// change any output bit — the pool is a free list, not a cache.
#[derive(Debug, Default)]
struct VisionBuffers {
    pixels: Vec<bool>,
    edges: Vec<(usize, usize)>,
    hough: HoughScratch,
    lines: Vec<HoughLine>,
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
    /// Steering command applied when the line is lost (hold last).
    last_steer: f64,
    /// Consecutive frames without a detected line.
    lost_frames: u32,
    /// Reusable frame buffer (the pipeline runs every control tick;
    /// reuse avoids a frame + accumulator allocation per tick).
    frame: Frame,
    /// Reusable edge-point buffer.
    edges: Vec<(usize, usize)>,
    /// Reusable Hough accumulator.
    hough: HoughScratch,
    /// Reusable detected-line buffer.
    lines: Vec<HoughLine>,
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
        let buffers = VISION_POOL
            .with(|p| p.borrow_mut().pop())
            .unwrap_or_default();
        Self {
            camera,
            pid: Pid::new(2.2, 0.05, 0.35)
                .with_output_limit(0.35)
                .with_integral_limit(0.2),
            last_steer: 0.0,
            lost_frames: 0,
            frame: Frame {
                width: camera.width,
                height: camera.height,
                pixels: buffers.pixels,
            },
            edges: buffers.edges,
            hough: buffers.hough,
            lines: buffers.lines,
        }
    }

    /// Consecutive frames without a line detection.
    pub fn lost_frames(&self) -> u32 {
        self.lost_frames
    }

    /// Runs the full pipeline for one control period of `dt` seconds.
    ///
    /// Returns the steering angle in radians, or `None` when no line was
    /// detected this frame (the caller typically holds the last command).
    pub fn steering(
        &mut self,
        pose: &BicycleState,
        track: &Track,
        dt: f64,
        rng: &mut SimRng,
    ) -> Option<f64> {
        self.camera.capture_into(pose, track, &mut self.frame);
        detect_edges_into(&self.frame, &mut self.edges);
        hough_lines_into(
            &self.edges,
            self.frame.width(),
            self.frame.height(),
            rng,
            &mut self.hough,
            &mut self.lines,
        );
        let best = self.lines.first()?;
        // Lateral error at a mid-frame lookahead row.
        let look_row = self.frame.height() as f64 * 0.5;
        let col = best.col_at_row(look_row)?;
        let centre = self.frame.width() as f64 / 2.0;
        let error_m = (col - centre) * self.camera.meters_per_col();
        // Positive error (line to the right in image = left in vehicle
        // frame, because columns grow rightward while lateral grows
        // leftward is handled by the projection) steers toward the line.
        let steer = self.pid.update(error_m, dt);
        self.last_steer = steer;
        self.lost_frames = 0;
        Some(steer)
    }

    /// The last steering command issued.
    #[cfg(test)]
    pub fn hold_last(&mut self) -> f64 {
        self.lost_frames += 1;
        self.last_steer
    }
}

impl Drop for LineFollower {
    fn drop(&mut self) {
        let buffers = VisionBuffers {
            pixels: std::mem::take(&mut self.frame.pixels),
            edges: std::mem::take(&mut self.edges),
            hough: std::mem::take(&mut self.hough),
            lines: std::mem::take(&mut self.lines),
        };
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
    use crate::dynamics::{LongitudinalModel, VehicleParams};
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &track,
        );
        assert!(frame.fill_ratio() > 0.01, "line visible");
        // A central column near the bottom row should be lit.
        let mid = frame.width() / 2;
        let lit_mid: usize = (0..frame.height())
            .filter(|&r| frame.get(r, mid) || frame.get(r, mid - 1))
            .count();
        assert!(lit_mid > frame.height() / 2, "line runs up the centre");
    }

    #[test]
    fn camera_blind_when_far_from_track() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 5.0,
                theta: 0.0,
            },
            &track,
        );
        assert_eq!(frame.fill_ratio(), 0.0);
    }

    #[test]
    fn edges_flank_the_line() {
        let cam = CameraModel::default();
        let track = Track::straight(10.0);
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &track,
        );
        let edges = detect_edges(&frame);
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
        let frame = cam.capture(
            &BicycleState {
                x: 1.0,
                y: 0.0,
                theta: 0.0,
            },
            &track,
        );
        let edges = detect_edges(&frame);
        let mut rng = SimRng::seed_from(1);
        let lines = hough_lines(&edges, frame.width(), frame.height(), &mut rng);
        assert!(!lines.is_empty());
        let best = lines[0];
        let col = best.col_at_row(frame.height() as f64 / 2.0).unwrap();
        let centre = frame.width() as f64 / 2.0;
        assert!((col - centre).abs() < 4.0, "line near centre, col={col}");
    }

    #[test]
    fn hough_empty_edges_yields_no_lines() {
        let mut rng = SimRng::seed_from(1);
        assert!(hough_lines(&[], 64, 32, &mut rng).is_empty());
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
        let held = follower.hold_last();
        assert_eq!(held, 0.0);
        assert_eq!(follower.lost_frames(), 1);
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
        let mut rng = SimRng::seed_from(4);
        let dt = 0.02;
        let mut offsets = Vec::new();
        for step in 0..800 {
            // 16 s
            let steer = follower
                .steering(&pose, &track, dt, &mut rng)
                .unwrap_or_else(|| follower.hold_last());
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
            let steer = follower
                .steering(&pose, &track, dt, &mut rng)
                .unwrap_or_else(|| follower.hold_last());
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
    /// a scan of the whole accumulator. The production path hoists the
    /// trig, votes each distinct drawn point once with its draw count,
    /// rounds without libm and lists cells as they cross the threshold;
    /// this reference pins that all of that is bitwise-neutral.
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
    /// input from the same RNG state and requires every line's ρ/θ bits
    /// and votes, and the next RNG draw, to match.
    fn assert_matches_reference(
        edges: &[(usize, usize)],
        width: usize,
        height: usize,
        seed: u64,
    ) -> Result<(), TestCaseError> {
        let mut rng_ref = SimRng::seed_from(seed);
        let mut rng = SimRng::seed_from(seed);
        let expect = hough_reference(edges, width, height, MIN_VOTES, &mut rng_ref);
        let got = hough_lines(edges, width, height, &mut rng);
        prop_assert_eq!(expect.len(), got.len());
        for (e, g) in expect.iter().zip(&got) {
            prop_assert_eq!(e.rho.to_bits(), g.rho.to_bits());
            prop_assert_eq!(e.theta.to_bits(), g.theta.to_bits());
            prop_assert_eq!(e.votes, g.votes);
        }
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
        let cam = CameraModel::default();
        let track = Track::l_corner(3.0);
        let mut frame = Frame {
            width: 0,
            height: 0,
            pixels: Vec::new(),
        };
        let mut edges = Vec::new();
        let mut scratch = HoughScratch::new();
        let mut lines = Vec::new();
        let mut rng_a = SimRng::seed_from(42);
        let mut rng_b = SimRng::seed_from(42);
        for i in 0..10 {
            let pose = BicycleState {
                x: 0.25 * f64::from(i),
                y: 0.03 * f64::from(i) - 0.1,
                theta: 0.02 * f64::from(i),
            };
            let fresh = cam.capture(&pose, &track);
            cam.capture_into(&pose, &track, &mut frame);
            assert_eq!(fresh, frame, "frame {i}");
            let fresh_edges = detect_edges(&fresh);
            detect_edges_into(&frame, &mut edges);
            assert_eq!(fresh_edges, edges, "edges {i}");
            let fresh_lines = hough_lines(&fresh_edges, fresh.width(), fresh.height(), &mut rng_a);
            hough_lines_into(
                &edges,
                frame.width(),
                frame.height(),
                &mut rng_b,
                &mut scratch,
                &mut lines,
            );
            assert_eq!(fresh_lines, lines, "lines {i}");
        }
        assert_eq!(rng_a.next_u64(), rng_b.next_u64());
    }

    /// The pre-optimization renderer: every pixel gets the exact
    /// `distance_to` test. The production `capture_into` only runs that
    /// test on capsule-selected candidate columns; this reference pins
    /// that the candidate filter never changes a single pixel.
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
                let expect = capture_reference(&cam, &pose, &track);
                let got = cam.capture(&pose, &track);
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
        let got = cam.capture(&pose, &track);
        assert_eq!(capture_reference(&cam, &pose, &track), got);
        for row in 0..cam.height {
            assert!(got.get(row, 30) && got.get(row, 33), "row {row}");
            assert!(!got.get(row, 29) && !got.get(row, 34), "row {row}");
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
    /// pair of every row. `detect_edges_into` skips dark windows; this
    /// reference pins that the skip never drops, adds or reorders an
    /// edge.
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

    /// A `width`-pixel frame (`width >= 1`) whose first rows are all
    /// dark, all lit, and lit on exactly each window's first and last
    /// pixel, followed by one row per seed: a thin lit run like the
    /// camera's line, one lit pixel on a window boundary, or random
    /// pixels.
    fn edge_test_frame(width: usize, seeds: &[u64]) -> Frame {
        let mut pixels: Vec<bool> = Vec::new();
        pixels.extend((0..width).map(|_| false));
        pixels.extend((0..width).map(|_| true));
        pixels
            .extend((0..width).map(|c| c % EDGE_WINDOW == 0 || c % EDGE_WINDOW == EDGE_WINDOW - 1));
        for &seed in seeds {
            let mut rng = SimRng::seed_from(seed);
            let w = width as u64;
            match seed % 3 {
                0 => {
                    let start = rng.below(w) as usize;
                    let end = start + 1 + rng.below(6) as usize;
                    pixels.extend((0..width).map(|c| (start..end).contains(&c)));
                }
                1 => {
                    let boundary = rng.below(w / EDGE_WINDOW as u64 + 1) as usize * EDGE_WINDOW;
                    let lit = boundary.saturating_sub(usize::from(rng.bernoulli(0.5)));
                    pixels.extend((0..width).map(|c| c == lit));
                }
                _ => pixels.extend((0..width).map(|_| rng.bernoulli(0.3))),
            }
        }
        Frame {
            width,
            height: pixels.len() / width,
            pixels,
        }
    }

    #[test]
    fn edge_scan_matches_reference_at_every_width() {
        let empty = Frame {
            width: 0,
            height: 3,
            pixels: Vec::new(),
        };
        assert_eq!(detect_edges(&empty), detect_edges_reference(&empty));
        for width in 1..=130 {
            let mut frame = edge_test_frame(width, &[]);
            // One row per column with only that pixel lit, and one with
            // only that pixel dark.
            for lit in [true, false] {
                for col in 0..width {
                    frame.pixels.extend((0..width).map(|c| (c == col) == lit));
                }
            }
            frame.height = frame.pixels.len() / width;
            assert_eq!(
                detect_edges(&frame),
                detect_edges_reference(&frame),
                "width {width}"
            );
        }
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
                detect_edges(&cam.capture(&pose, &track))
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
        let big = HoughGeometry::of_frame(200, 100);
        assert!(
            big.rho_bins >= 255,
            "the last geometry must bypass the memo"
        );
        let mut scratch = HoughScratch::new();
        let mut lines = Vec::new();
        let sets = memo_test_edge_sets();
        for (g, (width, height)) in [(64, 32), (80, 40), (64, 32), (200, 100)]
            .into_iter()
            .enumerate()
        {
            for (s, edges) in sets.iter().enumerate() {
                let seed = (g * 100 + s) as u64;
                let mut rng_ref = SimRng::seed_from(seed);
                let mut rng = SimRng::seed_from(seed);
                let expect = hough_reference(edges, width, height, MIN_VOTES, &mut rng_ref);
                hough_lines_into(edges, width, height, &mut rng, &mut scratch, &mut lines);
                assert_eq!(expect.len(), lines.len(), "{width}x{height}, set {s}");
                for (e, l) in expect.iter().zip(&lines) {
                    assert_eq!(
                        e.rho.to_bits(),
                        l.rho.to_bits(),
                        "{width}x{height}, set {s}"
                    );
                    assert_eq!(
                        e.theta.to_bits(),
                        l.theta.to_bits(),
                        "{width}x{height}, set {s}"
                    );
                    assert_eq!(e.votes, l.votes, "{width}x{height}, set {s}");
                }
                assert_eq!(rng_ref.next_u64(), rng.next_u64());
            }
            let memo_len = if (width, height) == (200, 100) {
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
        let mut scratch = HoughScratch::new();
        let mut lines = Vec::new();
        let mut rng = SimRng::seed_from(3);
        // A one-point frame draws its point, so this fills every byte.
        for row in 0..height {
            for col in 0..=width {
                hough_lines_into(
                    &[(row, col)],
                    width,
                    height,
                    &mut rng,
                    &mut scratch,
                    &mut lines,
                );
            }
        }
        let diag = ((width * width + height * height) as f64).sqrt();
        let rho_bins = (2.0 * diag).ceil() as usize + 1;
        assert_eq!(scratch.memo.len(), height * (width + 1) * THETA_BINS);
        for (i, &byte) in scratch.memo.iter().enumerate() {
            let (point, tb) = (i / THETA_BINS, i % THETA_BINS);
            let (row, col) = (point / (width + 1), point % (width + 1));
            let theta = std::f64::consts::PI * tb as f64 / THETA_BINS as f64;
            let rho = col as f64 * theta.cos() + row as f64 * theta.sin();
            let rb = (rho + diag).round() as usize;
            let want = if rb < rho_bins {
                u8::try_from(rb + 1).unwrap()
            } else {
                RHO_OFF
            };
            assert_eq!(byte, want, "row {row}, col {col}, θ bin {tb}");
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
        fn edge_scan_matches_reference(
            width in 1usize..=130,
            seeds in proptest::collection::vec(any::<u64>(), 0..12),
        ) {
            let frame = edge_test_frame(width, &seeds);
            prop_assert_eq!(detect_edges(&frame), detect_edges_reference(&frame));
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
            let frame = cam.capture(&BicycleState { x, y, theta }, &track);
            let edges = detect_edges(&frame);
            assert_matches_reference(&edges, frame.width(), frame.height(), seed)?;
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
            x in -2.0f64..6.0,
            y in -2.0f64..4.0,
            theta in -7.0f64..7.0,
        ) {
            let cam = CameraModel::default();
            let track = Track::l_corner(3.0);
            let pose = BicycleState { x, y, theta };
            let expect = capture_reference(&cam, &pose, &track);
            let got = cam.capture(&pose, &track);
            prop_assert_eq!(expect, got);
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
