//! Planar geometry primitives: points, rectangles and distances.
//!
//! Everything operates on `f64` coordinates in an arbitrary planar unit
//! (the paper uses an abstract `100 × 100` square for synthetic workloads
//! and kilometres for the Beijing datasets). The one distance is the
//! Euclidean one: it is the range constraint's and every figure's `d_r`.

/// A point in the plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point::new(0.0, 0.0);

    /// Euclidean (`L2`) distance to `other`.
    #[inline]
    pub fn euclidean(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance; avoids the square root when only
    /// comparisons against a squared radius are needed (hot path when
    /// building bipartite edges).
    #[inline]
    pub fn euclidean_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Component-wise clamp of the point into `rect`.
    #[inline]
    pub fn clamped(self, rect: Rect) -> Point {
        Point::new(
            self.x.clamp(rect.min.x, rect.max.x),
            self.y.clamp(rect.min.y, rect.max.y),
        )
    }
}

/// An axis-aligned rectangle `[min.x, max.x] × [min.y, max.y]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Bottom-left corner.
    pub min: Point,
    /// Top-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners.
    ///
    /// # Panics
    /// Panics if `min` is not component-wise `<= max` or coordinates are
    /// not finite — the region of interest must be a proper rectangle.
    pub fn new(min: Point, max: Point) -> Self {
        assert!(
            min.x.is_finite() && min.y.is_finite() && max.x.is_finite() && max.y.is_finite(),
            "rect corners must be finite"
        );
        assert!(
            min.x <= max.x && min.y <= max.y,
            "rect min must be <= max: min={min:?} max={max:?}"
        );
        Self { min, max }
    }

    /// The `side × side` square anchored at the origin; the paper's
    /// synthetic region is `Rect::square(100.0)`.
    pub fn square(side: f64) -> Self {
        Self::new(Point::ORIGIN, Point::new(side, side))
    }

    /// Rectangle width (x-extent).
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Rectangle height (y-extent).
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area of the rectangle.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Centre point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new(
            0.5 * (self.min.x + self.max.x),
            0.5 * (self.min.y + self.max.y),
        )
    }

    /// Whether `p` lies inside the rectangle (closed on all sides).
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_distance_matches_pythagoras() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.euclidean(b) - 5.0).abs() < 1e-12);
        assert!((a.euclidean_sq(b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn euclidean_is_symmetric() {
        let a = Point::new(1.5, -2.0);
        let b = Point::new(-3.0, 7.25);
        assert_eq!(a.euclidean(b), b.euclidean(a));
    }

    #[test]
    fn rect_contains_boundary() {
        let r = Rect::square(10.0);
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(10.0, 10.0)));
        assert!(r.contains(Point::new(5.0, 5.0)));
        assert!(!r.contains(Point::new(10.0001, 5.0)));
        assert!(!r.contains(Point::new(-0.0001, 5.0)));
    }

    #[test]
    fn rect_geometry() {
        let r = Rect::new(Point::new(1.0, 2.0), Point::new(4.0, 8.0));
        assert!((r.width() - 3.0).abs() < 1e-12);
        assert!((r.height() - 6.0).abs() < 1e-12);
        assert!((r.area() - 18.0).abs() < 1e-12);
        assert_eq!(r.center(), Point::new(2.5, 5.0));
    }

    #[test]
    #[should_panic(expected = "rect min must be <= max")]
    fn rect_rejects_inverted_corners() {
        let _ = Rect::new(Point::new(1.0, 0.0), Point::new(0.0, 1.0));
    }

    #[test]
    fn point_clamped_into_rect() {
        let r = Rect::square(10.0);
        assert_eq!(Point::new(-5.0, 3.0).clamped(r), Point::new(0.0, 3.0));
        assert_eq!(Point::new(12.0, 13.0).clamped(r), Point::new(10.0, 10.0));
        assert_eq!(Point::new(4.0, 4.0).clamped(r), Point::new(4.0, 4.0));
    }
}
