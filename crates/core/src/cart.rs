//! Cartesian process topologies as pure math (`MPI_Cart_create`'s
//! coordinates, `MPI_Cart_shift`, `MPI_Dims_create`).
//!
//! A [`Cart`] works in *cart-rank* space `0..size`: it holds no
//! communicator and does no collective, so it serves every backend and
//! serial oracles alike. A caller maps cart rank `r` to a process through
//! the group it already holds (`group.ranks()[r]`).

/// A Cartesian grid of `dims.iter().product()` cart ranks: row-major
/// coordinates (last dimension fastest), optional periodicity per
/// dimension, neighbour lookup.
#[derive(Clone, Debug)]
pub struct Cart {
    dims: Vec<usize>,
    periodic: Vec<bool>,
}

impl Cart {
    /// A grid of shape `dims`, periodic along dimension `d` iff
    /// `periodic[d]`.
    pub fn new(dims: Vec<usize>, periodic: Vec<bool>) -> Cart {
        assert_eq!(dims.len(), periodic.len());
        assert!(dims.iter().all(|&d| d > 0));
        Cart { dims, periodic }
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of cart ranks.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Coordinates of cart rank `r`.
    pub fn coords(&self, r: usize) -> Vec<usize> {
        assert!(r < self.size());
        let mut rem = r;
        let mut out = vec![0; self.dims.len()];
        for d in (0..self.dims.len()).rev() {
            out[d] = rem % self.dims[d];
            rem /= self.dims[d];
        }
        out
    }

    /// Cart rank at `coords`.
    pub fn rank_at(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.dims.len());
        let mut r = 0;
        for (&dim, &c) in self.dims.iter().zip(coords) {
            assert!(c < dim, "coordinate out of range");
            r = r * dim + c;
        }
        r
    }

    /// Neighbour of cart rank `r` displaced by `disp` along dimension
    /// `dim` (like `MPI_Cart_shift`). `None` at a non-periodic boundary.
    pub fn shift(&self, r: usize, dim: usize, disp: isize) -> Option<usize> {
        let mut c = self.coords(r);
        let extent = self.dims[dim] as isize;
        let pos = c[dim] as isize + disp;
        let new = if self.periodic[dim] {
            pos.rem_euclid(extent)
        } else if (0..extent).contains(&pos) {
            pos
        } else {
            return None;
        };
        c[dim] = new as usize;
        Some(self.rank_at(&c))
    }

    /// The (dim, direction) neighbour pairs of `r`: up to `2 * ndims`
    /// entries of `(dim, disp, neighbour cart rank)`.
    pub fn neighbors(&self, r: usize) -> Vec<(usize, isize, usize)> {
        let mut out = Vec::with_capacity(2 * self.dims.len());
        for d in 0..self.dims.len() {
            for disp in [-1isize, 1] {
                if let Some(n) = self.shift(r, d, disp) {
                    if n != r {
                        out.push((d, disp, n));
                    }
                }
            }
        }
        out
    }
}

/// Balanced factorization of `n` into `ndims` factors, mimicking
/// `MPI_Dims_create`: factors are as close to each other as possible and
/// sorted in non-increasing order.
pub fn dims_create(n: usize, ndims: usize) -> Vec<usize> {
    assert!(n > 0 && ndims > 0);
    let mut dims = vec![1usize; ndims];
    let mut factors = prime_factors(n);
    // Distribute factors largest-first onto the currently smallest dim.
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let i = (0..ndims).min_by_key(|&i| dims[i]).unwrap();
        dims[i] *= f;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

fn prime_factors(mut n: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let cart = Cart::new(vec![2, 3, 4], vec![false; 3]);
        for r in 0..24 {
            assert_eq!(cart.rank_at(&cart.coords(r)), r);
        }
        assert_eq!(cart.coords(0), vec![0, 0, 0]);
        assert_eq!(cart.coords(23), vec![1, 2, 3]);
    }

    #[test]
    fn shift_respects_boundaries() {
        let cart = Cart::new(vec![2, 2, 2], vec![false, false, true]);
        // Non-periodic dim 0.
        assert_eq!(cart.shift(0, 0, -1), None);
        assert_eq!(cart.shift(0, 0, 1), Some(4));
        // Periodic dim 2 wraps.
        assert_eq!(cart.shift(0, 2, -1), Some(1));
        assert_eq!(cart.shift(1, 2, 1), Some(0));
    }

    #[test]
    fn neighbors_in_3d_interior_and_corner() {
        let cart = Cart::new(vec![3, 3, 3], vec![false; 3]);
        let center = cart.rank_at(&[1, 1, 1]);
        assert_eq!(cart.neighbors(center).len(), 6);
        let corner = cart.rank_at(&[0, 0, 0]);
        assert_eq!(cart.neighbors(corner).len(), 3);
    }

    #[test]
    fn periodic_size_one_dims_have_no_self_neighbors() {
        let cart = Cart::new(vec![4, 1], vec![true, true]);
        for r in 0..4 {
            let n = cart.neighbors(r);
            assert!(n.iter().all(|&(_, _, nb)| nb != r), "self-loop in {n:?}");
        }
    }

    #[test]
    fn dims_create_is_balanced() {
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(64, 3), vec![4, 4, 4]);
        assert_eq!(dims_create(24, 3), vec![4, 3, 2]);
        assert_eq!(dims_create(17, 2), vec![17, 1]);
        assert_eq!(dims_create(1, 3), vec![1, 1, 1]);
        // Product always preserved.
        for n in 1..200 {
            for nd in 1..4 {
                assert_eq!(dims_create(n, nd).iter().product::<usize>(), n);
            }
        }
    }

    #[test]
    fn dims_create_8192_is_paper_scale_cube() {
        // 8192 = 2^13 -> 32 x 16 x 16.
        assert_eq!(dims_create(8192, 3), vec![32, 16, 16]);
    }
}
