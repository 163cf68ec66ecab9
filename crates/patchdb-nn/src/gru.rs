//! A GRU cell with exact backpropagation through time.

use patchdb_rt::rng::Xoshiro256pp;

use crate::linalg::{sigmoid, Mat, Param};

/// Per-timestep activations cached by the forward pass for BPTT.
#[derive(Debug, Clone)]
pub struct StepCache {
    x: Vec<f64>,
    h_prev: Vec<f64>,
    z: Vec<f64>,
    r: Vec<f64>,
    hcand: Vec<f64>,
}

/// Gated recurrent unit:
///
/// ```text
/// z = σ(Wz·x + Uz·h + bz)        (update gate)
/// r = σ(Wr·x + Ur·h + br)        (reset gate)
/// ĥ = tanh(Wh·x + Uh·(r∘h) + bh) (candidate)
/// h' = (1−z)∘h + z∘ĥ
/// ```
#[derive(Debug, Clone)]
pub struct GruCell {
    input_dim: usize,
    hidden_dim: usize,
    /// Input weights for the z/r/h transforms.
    pub wz: Param,
    /// Recurrent weights for the update gate.
    pub uz: Param,
    /// Update-gate bias.
    pub bz: Param,
    /// Input weights for the reset gate.
    pub wr: Param,
    /// Recurrent weights for the reset gate.
    pub ur: Param,
    /// Reset-gate bias.
    pub br: Param,
    /// Input weights for the candidate state.
    pub wh: Param,
    /// Recurrent weights for the candidate state.
    pub uh: Param,
    /// Candidate bias.
    pub bh: Param,
}

patchdb_rt::impl_to_from_json!(GruCell {
    input_dim,
    hidden_dim,
    wz,
    uz,
    bz,
    wr,
    ur,
    br,
    wh,
    uh,
    bh,
});

impl GruCell {
    /// Creates a Xavier-initialized cell.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut Xoshiro256pp) -> Self {
        let w = |r: usize, c: usize, rng: &mut Xoshiro256pp| Param::new(Mat::xavier(r, c, rng));
        let b = |r: usize| Param::new(Mat::zeros(r, 1));
        GruCell {
            input_dim,
            hidden_dim,
            wz: w(hidden_dim, input_dim, rng),
            uz: w(hidden_dim, hidden_dim, rng),
            bz: b(hidden_dim),
            wr: w(hidden_dim, input_dim, rng),
            ur: w(hidden_dim, hidden_dim, rng),
            br: b(hidden_dim),
            wh: w(hidden_dim, input_dim, rng),
            uh: w(hidden_dim, hidden_dim, rng),
            bh: b(hidden_dim),
        }
    }

    /// One forward step; returns the new hidden state and the cache needed
    /// for the matching backward step.
    pub fn forward(&self, x: &[f64], h_prev: &[f64]) -> (Vec<f64>, StepCache) {
        let mut z = self.wz.value.matvec(x);
        let uzh = self.uz.value.matvec(h_prev);
        for ((zi, u), b) in z.iter_mut().zip(&uzh).zip(self.bz.value.as_slice()) {
            *zi = sigmoid(*zi + u + b);
        }
        let mut r = self.wr.value.matvec(x);
        let urh = self.ur.value.matvec(h_prev);
        for ((ri, u), b) in r.iter_mut().zip(&urh).zip(self.br.value.as_slice()) {
            *ri = sigmoid(*ri + u + b);
        }
        let rh: Vec<f64> = r.iter().zip(h_prev).map(|(a, b)| a * b).collect();
        let mut hcand = self.wh.value.matvec(x);
        let uhrh = self.uh.value.matvec(&rh);
        for ((hi, u), b) in hcand.iter_mut().zip(&uhrh).zip(self.bh.value.as_slice()) {
            *hi = (*hi + u + b).tanh();
        }
        let h: Vec<f64> = z
            .iter()
            .zip(h_prev)
            .zip(&hcand)
            .map(|((zi, hp), hc)| (1.0 - zi) * hp + zi * hc)
            .collect();
        let cache = StepCache {
            x: x.to_vec(),
            h_prev: h_prev.to_vec(),
            z,
            r,
            hcand,
        };
        (h, cache)
    }

    /// One backward step: given `dh` (∂L/∂h_t), accumulates parameter
    /// gradients and returns (∂L/∂x_t, ∂L/∂h_{t−1}).
    pub fn backward(&mut self, dh: &[f64], cache: &StepCache) -> (Vec<f64>, Vec<f64>) {
        let StepCache { x, h_prev, z, r, hcand } = cache;
        let n = self.hidden_dim;

        let mut dz = vec![0.0; n];
        let mut dhcand = vec![0.0; n];
        let mut dh_prev = vec![0.0; n];
        for i in 0..n {
            dz[i] = dh[i] * (hcand[i] - h_prev[i]);
            dhcand[i] = dh[i] * z[i];
            dh_prev[i] = dh[i] * (1.0 - z[i]);
        }

        // Candidate pre-activation.
        let da_h: Vec<f64> = dhcand
            .iter()
            .zip(hcand)
            .map(|(d, hc)| d * (1.0 - hc * hc))
            .collect();
        let rh: Vec<f64> = r.iter().zip(h_prev).map(|(a, b)| a * b).collect();
        self.wh.grad.add_outer(&da_h, x);
        self.uh.grad.add_outer(&da_h, &rh);
        for (g, d) in self.bh.grad.as_mut_slice().iter_mut().zip(&da_h) {
            *g += d;
        }
        let drh = self.uh.value.matvec_t(&da_h);
        let mut dr = vec![0.0; n];
        for i in 0..n {
            dr[i] = drh[i] * h_prev[i];
            dh_prev[i] += drh[i] * r[i];
        }

        // Gate pre-activations.
        let da_z: Vec<f64> = dz.iter().zip(z).map(|(d, zi)| d * zi * (1.0 - zi)).collect();
        let da_r: Vec<f64> = dr.iter().zip(r).map(|(d, ri)| d * ri * (1.0 - ri)).collect();
        self.wz.grad.add_outer(&da_z, x);
        self.uz.grad.add_outer(&da_z, h_prev);
        for (g, d) in self.bz.grad.as_mut_slice().iter_mut().zip(&da_z) {
            *g += d;
        }
        self.wr.grad.add_outer(&da_r, x);
        self.ur.grad.add_outer(&da_r, h_prev);
        for (g, d) in self.br.grad.as_mut_slice().iter_mut().zip(&da_r) {
            *g += d;
        }

        // Inputs.
        let mut dx = self.wz.value.matvec_t(&da_z);
        for (d, v) in dx.iter_mut().zip(self.wr.value.matvec_t(&da_r)) {
            *d += v;
        }
        for (d, v) in dx.iter_mut().zip(self.wh.value.matvec_t(&da_h)) {
            *d += v;
        }
        for (d, v) in dh_prev.iter_mut().zip(self.uz.value.matvec_t(&da_z)) {
            *d += v;
        }
        for (d, v) in dh_prev.iter_mut().zip(self.ur.value.matvec_t(&da_r)) {
            *d += v;
        }
        (dx, dh_prev)
    }

    /// Applies one Adam step to every parameter.
    pub fn adam_step(&mut self, lr: f64, t: usize) {
        for p in [
            &mut self.wz,
            &mut self.uz,
            &mut self.bz,
            &mut self.wr,
            &mut self.ur,
            &mut self.br,
            &mut self.wh,
            &mut self.uh,
            &mut self.bh,
        ] {
            p.adam_step(lr, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference gradient check: analytic BPTT gradients must match
    /// numeric ones on a tiny cell to ~1e-5 relative error.
    #[test]
    fn gradient_check() {
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut cell = GruCell::new(3, 2, &mut rng);
        let xs = [
            vec![0.3, -0.2, 0.5],
            vec![-0.1, 0.4, 0.2],
            vec![0.7, 0.1, -0.6],
        ];
        // Loss: L = sum(h_T) after running the sequence.
        let run = |cell: &GruCell| -> (f64, Vec<StepCache>) {
            let mut h = vec![0.0; 2];
            let mut caches = Vec::new();
            for x in &xs {
                let (h2, c) = cell.forward(x, &h);
                h = h2;
                caches.push(c);
            }
            (h.iter().sum(), caches)
        };

        // Analytic gradients.
        let (_, caches) = run(&cell);
        let mut dh = vec![1.0; 2];
        for c in caches.iter().rev() {
            let (_dx, dhp) = cell.backward(&dh, c);
            dh = dhp;
        }

        // Numeric, per parameter tensor, a few probes each.
        let eps = 1e-6;
        macro_rules! check {
            ($field:ident) => {{
                let flat_len = cell.$field.value.as_slice().len();
                for probe in [0usize, flat_len / 2, flat_len - 1] {
                    let orig = cell.$field.value.as_slice()[probe];
                    cell.$field.value.as_mut_slice()[probe] = orig + eps;
                    let (lp, _) = run(&cell);
                    cell.$field.value.as_mut_slice()[probe] = orig - eps;
                    let (lm, _) = run(&cell);
                    cell.$field.value.as_mut_slice()[probe] = orig;
                    let numeric = (lp - lm) / (2.0 * eps);
                    let analytic = cell.$field.grad.as_slice()[probe];
                    assert!(
                        (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                        "{}[{}]: numeric {} vs analytic {}",
                        stringify!($field),
                        probe,
                        numeric,
                        analytic
                    );
                }
            }};
        }
        check!(wz);
        check!(uz);
        check!(bz);
        check!(wr);
        check!(ur);
        check!(br);
        check!(wh);
        check!(uh);
        check!(bh);
    }

    #[test]
    fn forward_is_bounded() {
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        let cell = GruCell::new(4, 8, &mut rng);
        let mut h = vec![0.0; 8];
        for step in 0..50 {
            let x: Vec<f64> = (0..4).map(|i| ((step * 7 + i) % 11) as f64 - 5.0).collect();
            let (h2, _) = cell.forward(&x, &h);
            h = h2;
            assert!(h.iter().all(|v| v.abs() <= 1.0 + 1e-9), "state escaped: {h:?}");
        }
    }

    #[test]
    fn zero_update_gate_keeps_state() {
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        let mut cell = GruCell::new(2, 2, &mut rng);
        // Force z ≈ 0 via a hugely negative bias: h' ≈ h.
        for b in cell.bz.value.as_mut_slice() {
            *b = -50.0;
        }
        let h0 = vec![0.37, -0.2];
        let (h1, _) = cell.forward(&[1.0, -1.0], &h0);
        for (a, b) in h1.iter().zip(&h0) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
