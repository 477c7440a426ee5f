//! The loop a seeded suite runs its matrix with. Each suite keeps its
//! cells (seeds, policies, death counts) as a `const` list beside its
//! tests, so plain `cargo test` runs every one of them.

use std::fmt::Debug;

/// Run `test` once per cell. Each cell is printed before it runs, and
/// libtest shows a failing test's output, so the last `cell` line before
/// the failure names the red cell.
pub fn each<T: Copy + Debug>(cells: &[T], test: impl Fn(T)) {
    for &cell in cells {
        println!("cell {cell:?}");
        test(cell);
    }
}
