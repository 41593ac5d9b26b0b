//! # maps-spatial
//!
//! Spatial substrate for the MAPS reproduction (Tong et al., SIGMOD 2018):
//! planar geometry, the grid partitioning of the region of interest
//! (Definition 1), and one bucketed spatial index — [`DynamicBucketIndex`]:
//! one batch mutation path and one query, the capped k-nearest ring search,
//! exact outside the region too — used to build the task–worker bipartite
//! graph under the range constraint (Definition 4) in output-sensitive time.
//!
//! The paper works on a `100 × 100` square for synthetic data and a
//! longitude/latitude rectangle mapped to kilometres for the Beijing data;
//! both are expressed here as a [`Rect`] partitioned by a [`GridSpec`].
//! Every distance is Euclidean ([`Point::euclidean`] and its square): the
//! range constraint, the index's ring search and each task's travel
//! distance `d_r`.
//!
//! ## Quick example
//!
//! ```
//! use maps_spatial::{Point, Rect, GridSpec};
//!
//! // Example 2 of the paper: 8×8 region, grid side 2 → 4×4 = 16 grids,
//! // indexed from the bottom-left.
//! let region = Rect::new(Point::new(0.0, 0.0), Point::new(8.0, 8.0));
//! let grid = GridSpec::new(region, 4, 4);
//! let w3 = Point::new(5.0, 3.0);
//! assert_eq!(grid.cell_of(w3).index(), 6); // grid 7 with 1-based paper ids
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(missing_debug_implementations)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dynamic;
pub mod geom;
pub mod grid;
mod index;

pub use dynamic::{DynamicBucketIndex, Slotted};
pub use geom::{Point, Rect};
pub use grid::{CellId, GridSpec};
