//! Minimal dense linear algebra for the GRU: row-major matrices over f64
//! with exactly the operations backpropagation needs.

use patchdb_rt::rng::Xoshiro256pp;

/// A row-major `rows × cols` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Xavier/Glorot-uniform initialized matrix.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Xoshiro256pp) -> Self {
        let bound = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-bound..bound)).collect();
        Mat { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `y = self · x` (matrix–vector product).
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != cols`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (r, out) in y.iter_mut().enumerate() {
            let row = self.row(r);
            *out = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        y
    }

    /// `y = selfᵀ · x` (transposed product, for backward passes).
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != rows`.
    pub fn matvec_t(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "matvec_t dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, xr) in x.iter().enumerate() {
            if *xr == 0.0 {
                continue;
            }
            for (yc, a) in y.iter_mut().zip(self.row(r)) {
                *yc += a * xr;
            }
        }
        y
    }

    /// Accumulates the outer product: `self += a ⊗ b`.
    ///
    /// # Panics
    ///
    /// Panics when dimensions disagree.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), self.rows, "add_outer rows mismatch");
        assert_eq!(b.len(), self.cols, "add_outer cols mismatch");
        for (r, ar) in a.iter().enumerate() {
            if *ar == 0.0 {
                continue;
            }
            for (cell, bv) in self.row_mut(r).iter_mut().zip(b) {
                *cell += ar * bv;
            }
        }
    }

    /// Sets every element to zero (gradient reset).
    pub fn clear(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Flat access to all elements.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable access to all elements.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

patchdb_rt::impl_to_from_json!(Mat { rows, cols, data });

/// A parameter tensor with Adam moment buffers.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Mat,
    /// Accumulated gradient for the current step.
    pub grad: Mat,
    m: Mat,
    v: Mat,
}

patchdb_rt::impl_to_from_json!(Param { value, grad, m, v });

impl Param {
    /// Wraps an initialized value matrix.
    pub fn new(value: Mat) -> Self {
        let (r, c) = (value.rows(), value.cols());
        Param { value, grad: Mat::zeros(r, c), m: Mat::zeros(r, c), v: Mat::zeros(r, c) }
    }

    /// One Adam step at time `t` (1-based) with learning rate `lr`,
    /// consuming and clearing the accumulated gradient.
    pub fn adam_step(&mut self, lr: f64, t: usize) {
        const B1: f64 = 0.9;
        const B2: f64 = 0.999;
        const EPS: f64 = 1e-8;
        let bc1 = 1.0 - B1.powi(t as i32);
        let bc2 = 1.0 - B2.powi(t as i32);
        for i in 0..self.value.as_slice().len() {
            let g = self.grad.as_slice()[i].clamp(-5.0, 5.0); // gradient clipping
            let m = &mut self.m.as_mut_slice()[i];
            *m = B1 * *m + (1.0 - B1) * g;
            let v = &mut self.v.as_mut_slice()[i];
            *v = B2 * *v + (1.0 - B2) * g * g;
            let mhat = self.m.as_slice()[i] / bc1;
            let vhat = self.v.as_slice()[i] / bc2;
            self.value.as_mut_slice()[i] -= lr * mhat / (vhat.sqrt() + EPS);
        }
        self.grad.clear();
    }
}

/// The logistic function, split by sign so `exp` never overflows.
pub(crate) fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_identity() {
        let mut m = Mat::zeros(2, 2);
        m.row_mut(0)[0] = 1.0;
        m.row_mut(1)[1] = 1.0;
        assert_eq!(m.matvec(&[3.0, 4.0]), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_t_is_transpose() {
        let mut m = Mat::zeros(2, 3);
        m.row_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        m.row_mut(1).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(m.matvec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
        assert_eq!(m.matvec_t(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn outer_accumulates() {
        let mut m = Mat::zeros(2, 2);
        m.add_outer(&[1.0, 2.0], &[3.0, 4.0]);
        m.add_outer(&[1.0, 0.0], &[1.0, 1.0]);
        assert_eq!(m.as_slice(), &[4.0, 5.0, 6.0, 8.0]);
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = patchdb_rt::rng::Xoshiro256pp::seed_from_u64(1);
        let m = Mat::xavier(10, 10, &mut rng);
        let bound = (6.0 / 20.0_f64).sqrt();
        assert!(m.as_slice().iter().all(|v| v.abs() <= bound));
    }

    #[test]
    fn adam_descends_quadratic() {
        // Minimize f(x) = (x - 3)² from 0.
        let mut p = Param::new(Mat::zeros(1, 1));
        for t in 1..=500 {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * (x - 3.0);
            p.adam_step(0.05, t);
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "matvec dimension mismatch")]
    fn matvec_checks_dims() {
        Mat::zeros(2, 2).matvec(&[1.0]);
    }
}
