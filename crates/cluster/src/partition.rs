//! Fleet partitioning: which shard owns which device.
//!
//! One policy, keyed on physical placement: the lab floor is sliced into
//! equal-width stripes along the x axis, so a mote and the cameras that
//! cover it are co-resident and cross-shard reroutes are the exception.

/// The stripe `[0, shards)` an x coordinate falls in on a floor of the
/// given width. Coordinates at or beyond the width clamp into the last
/// stripe, so every located device gets an owner.
pub fn stripe_of(x: f64, width: f64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    if width <= 0.0 || !x.is_finite() {
        return 0;
    }
    let s = ((x / width) * shards as f64).floor();
    (s.max(0.0) as usize).min(shards - 1)
}

/// Resolves a device's owning shard: the stripe its x coordinate
/// (`location_x`) falls in, or — for devices with no physical location
/// (phones) — `fallback_index` striped round-robin.
pub fn owner_of(
    location_x: Option<f64>,
    width: f64,
    fallback_index: usize,
    shards: usize,
) -> usize {
    match location_x {
        Some(x) => stripe_of(x, width, shards),
        None => fallback_index % shards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_cover_the_floor_and_clamp() {
        assert_eq!(stripe_of(0.0, 8.0, 4), 0);
        assert_eq!(stripe_of(1.9, 8.0, 4), 0);
        assert_eq!(stripe_of(2.0, 8.0, 4), 1);
        assert_eq!(stripe_of(7.99, 8.0, 4), 3);
        assert_eq!(stripe_of(8.0, 8.0, 4), 3, "edge clamps into last stripe");
        assert_eq!(stripe_of(3.0, 8.0, 1), 0);
    }
}
