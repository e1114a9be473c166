//! Bounding boxes: 2D rectangles (summary information in the root records
//! of `line`/`region`, Sec 4.1) and 3D bounding *cubes* over space × time
//! (summary information of spatio-temporal units, Sec 4.2 — used by the
//! `inside` algorithm's fast path in Sec 5.2).

use crate::point::Point;
use mob_base::{Instant, Interval, Real, TimeInterval};
use std::fmt;

/// An axis-aligned 2D rectangle. Empty rectangles are represented by
/// [`Rect::EMPTY`] (inverted bounds).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Rect {
    min_x: Real,
    min_y: Real,
    max_x: Real,
    max_y: Real,
}

impl Rect {
    /// The empty rectangle (identity of [`Rect::union`]).
    pub const EMPTY: Rect = Rect {
        min_x: Real::ONE,
        min_y: Real::ONE,
        max_x: Real::ZERO,
        max_y: Real::ZERO,
    };

    /// Construct from bounds; returns the canonical empty rect if inverted.
    pub fn new(min_x: Real, min_y: Real, max_x: Real, max_y: Real) -> Rect {
        if min_x > max_x || min_y > max_y {
            Rect::EMPTY
        } else {
            Rect {
                min_x,
                min_y,
                max_x,
                max_y,
            }
        }
    }

    /// The bounding box of a single point.
    pub fn of_point(p: Point) -> Rect {
        Rect {
            min_x: p.x,
            min_y: p.y,
            max_x: p.x,
            max_y: p.y,
        }
    }

    /// The bounding box of an iterator of points.
    pub fn of_points<I: IntoIterator<Item = Point>>(pts: I) -> Rect {
        pts.into_iter()
            .fold(Rect::EMPTY, |acc, p| acc.union(&Rect::of_point(p)))
    }

    /// `true` for the empty rectangle.
    pub fn is_empty(&self) -> bool {
        self.min_x > self.max_x || self.min_y > self.max_y
    }

    /// Minimum x (undefined content for empty rects).
    pub fn min_x(&self) -> Real {
        self.min_x
    }
    /// Minimum y.
    pub fn min_y(&self) -> Real {
        self.min_y
    }
    /// Maximum x.
    pub fn max_x(&self) -> Real {
        self.max_x
    }
    /// Maximum y.
    pub fn max_y(&self) -> Real {
        self.max_y
    }

    /// Smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Rect {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// `true` if the rectangles share at least one point.
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min_x <= other.max_x
            && other.min_x <= self.max_x
            && self.min_y <= other.max_y
            && other.min_y <= self.max_y
    }

    /// `true` if `other` lies entirely inside the (closed) rectangle.
    /// The empty rectangle is contained in everything and contains only
    /// itself — the usual union/subset semantics.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.is_empty()
            || (!self.is_empty()
                && self.min_x <= other.min_x
                && other.max_x <= self.max_x
                && self.min_y <= other.min_y
                && other.max_y <= self.max_y)
    }

    /// `true` if the point lies in the (closed) rectangle.
    pub fn contains_point(&self, p: Point) -> bool {
        !self.is_empty()
            && self.min_x <= p.x
            && p.x <= self.max_x
            && self.min_y <= p.y
            && p.y <= self.max_y
    }

    /// The rectangle grown by `d` on every side; a negative `d` shrinks
    /// it and may empty it. [`Rect::EMPTY`] stays empty for every `d`.
    pub fn expand(&self, d: Real) -> Rect {
        if self.is_empty() {
            return Rect::EMPTY;
        }
        Rect::new(
            self.min_x - d,
            self.min_y - d,
            self.max_x + d,
            self.max_y + d,
        )
    }

    /// Width (0 for empty).
    pub fn width(&self) -> Real {
        if self.is_empty() {
            Real::ZERO
        } else {
            self.max_x - self.min_x
        }
    }

    /// Height (0 for empty).
    pub fn height(&self) -> Real {
        if self.is_empty() {
            Real::ZERO
        } else {
            self.max_y - self.min_y
        }
    }
}

impl fmt::Debug for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            write!(f, "Rect(empty)")
        } else {
            write!(
                f,
                "Rect[{}..{} × {}..{}]",
                self.min_x, self.max_x, self.min_y, self.max_y
            )
        }
    }
}

/// A 3D bounding cube over (x, y, t): the spatial [`Rect`] extended by a
/// closed time span. Unit records carry one of these (Sec 4.2).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Cube {
    /// Spatial extent.
    pub rect: Rect,
    /// Start of the time span.
    pub t_min: Instant,
    /// End of the time span.
    pub t_max: Instant,
}

impl Cube {
    /// Construct from a spatial rect and a time interval (the flags of the
    /// interval are irrelevant for bounding purposes).
    pub fn new(rect: Rect, interval: &TimeInterval) -> Cube {
        Cube {
            rect,
            t_min: *interval.start(),
            t_max: *interval.end(),
        }
    }

    /// `true` if the two cubes share a point (closed semantics — the
    /// conservative test used by the `inside` fast path).
    pub fn intersects(&self, other: &Cube) -> bool {
        self.rect.intersects(&other.rect) && self.t_min <= other.t_max && other.t_min <= self.t_max
    }

    /// `true` if `other` lies entirely inside this cube (closed
    /// semantics on both the spatial and the temporal axis) — the
    /// containment invariant an R-tree node must satisfy for each of
    /// its children.
    pub fn contains(&self, other: &Cube) -> bool {
        self.rect.contains_rect(&other.rect)
            && self.t_min <= other.t_min
            && other.t_max <= self.t_max
    }

    /// The time span as a closed interval.
    pub fn time_span(&self) -> TimeInterval {
        Interval::closed(self.t_min, self.t_max)
    }

    /// The cube grown by `d` in x and y ([`Rect::expand`]); the time
    /// span is unchanged.
    pub fn expand(&self, d: Real) -> Cube {
        Cube {
            rect: self.rect.expand(d),
            ..*self
        }
    }

    /// Union of two cubes.
    pub fn union(&self, other: &Cube) -> Cube {
        Cube {
            rect: self.rect.union(&other.rect),
            t_min: self.t_min.min(other.t_min),
            t_max: self.t_max.max(other.t_max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::pt;
    use mob_base::{r, t};

    #[test]
    fn empty_identity() {
        let a = Rect::of_point(pt(1.0, 2.0));
        assert_eq!(Rect::EMPTY.union(&a), a);
        assert_eq!(a.union(&Rect::EMPTY), a);
        assert!(Rect::EMPTY.is_empty());
        assert!(!Rect::EMPTY.intersects(&a));
        assert!(!Rect::EMPTY.contains_point(pt(0.0, 0.0)));
    }

    #[test]
    fn union_and_contains() {
        let b = Rect::of_points([pt(0.0, 0.0), pt(2.0, 3.0), pt(1.0, -1.0)]);
        assert_eq!(b.min_x(), r(0.0));
        assert_eq!(b.max_x(), r(2.0));
        assert_eq!(b.min_y(), r(-1.0));
        assert_eq!(b.max_y(), r(3.0));
        assert!(b.contains_point(pt(1.0, 1.0)));
        assert!(!b.contains_point(pt(3.0, 0.0)));
        assert_eq!(b.width(), r(2.0));
        assert_eq!(b.height(), r(4.0));
    }

    #[test]
    fn rect_intersection_cases() {
        let a = Rect::new(r(0.0), r(0.0), r(2.0), r(2.0));
        let b = Rect::new(r(1.0), r(1.0), r(3.0), r(3.0));
        let c = Rect::new(r(5.0), r(5.0), r(6.0), r(6.0));
        let edge = Rect::new(r(2.0), r(0.0), r(4.0), r(2.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.intersects(&edge)); // closed semantics: shared edge counts
        assert!(Rect::new(r(3.0), r(0.0), r(1.0), r(1.0)).is_empty()); // inverted
    }

    #[test]
    fn expand_grows_shrinks_and_keeps_empty() {
        let a = Rect::new(r(0.0), r(0.0), r(2.0), r(1.0));
        assert_eq!(a.expand(r(0.0)), a);
        assert_eq!(
            a.expand(r(1.0)),
            Rect::new(r(-1.0), r(-1.0), r(3.0), r(2.0))
        );
        // Shrinking: a 2×1 rect survives 0.5 (it degenerates to a
        // segment) and empties beyond it.
        assert_eq!(a.expand(r(-0.5)), Rect::new(r(0.5), r(0.5), r(1.5), r(0.5)));
        assert!(a.expand(r(-0.75)).is_empty());
        // EMPTY's inverted (1,1,0,0) bounds must not turn into a real box
        // once the growth reaches 0.5.
        for d in [0.0, 0.25, 0.5, 1.0, 1e9, f64::INFINITY, -1.0] {
            assert!(Rect::EMPTY.expand(r(d)).is_empty(), "EMPTY grown by {d}");
        }

        let span = Interval::closed(t(3.0), t(4.0));
        let c = Cube::new(a, &span);
        assert_eq!(c.expand(r(0.0)), c);
        let g = c.expand(r(1.0));
        assert_eq!(g.rect, a.expand(r(1.0)));
        assert_eq!((g.t_min, g.t_max), (t(3.0), t(4.0)));
        assert!(Cube::new(Rect::EMPTY, &span).expand(r(2.0)).rect.is_empty());
        // Grown by the gap, two cubes side by side start to touch.
        let b = Cube::new(Rect::new(r(5.0), r(0.0), r(6.0), r(1.0)), &span);
        assert!(!c.expand(r(2.5)).intersects(&b));
        assert!(c.expand(r(3.0)).intersects(&b));
    }

    #[test]
    fn cube_intersection() {
        let sq = Rect::new(r(0.0), r(0.0), r(1.0), r(1.0));
        let a = Cube::new(sq, &Interval::closed(t(0.0), t(1.0)));
        let b = Cube::new(sq, &Interval::closed(t(1.0), t(2.0)));
        let c = Cube::new(sq, &Interval::closed(t(3.0), t(4.0)));
        assert!(a.intersects(&b)); // touch in time
        assert!(!a.intersects(&c)); // disjoint in time
        let far = Cube::new(
            Rect::new(r(9.0), r(9.0), r(10.0), r(10.0)),
            &Interval::closed(t(0.0), t(1.0)),
        );
        assert!(!a.intersects(&far)); // disjoint in space
        let u = a.union(&c);
        assert_eq!(u.t_min, t(0.0));
        assert_eq!(u.t_max, t(4.0));
    }
}
