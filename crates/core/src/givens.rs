//! Givens-rotation QR factorization of the GMRES Hessenberg matrix.
//!
//! GMRES minimizes `‖β e₁ − H̄ y‖₂` over the Krylov subspace; the
//! benchmark (Algorithm 3, lines 31–43) maintains a QR factorization of
//! the `(m+1) × m` Hessenberg matrix incrementally with one Givens
//! rotation per iteration. The rotations also update the transformed
//! right-hand side `t`, whose trailing entry `|t_{k+1}|` is the
//! residual norm of the least-squares problem — GMRES's free implicit
//! residual estimate. This small dense work runs redundantly on every
//! rank (on the CPU in the real benchmark) and is always in `f64`.

/// Incremental QR of the Hessenberg matrix via Givens rotations.
#[derive(Debug, Clone)]
pub struct GivensQr {
    m: usize,
    /// Column-major `(m+1) × m` upper-Hessenberg → triangular storage.
    h: Vec<f64>,
    /// Rotation cosines, one per completed column.
    cs: Vec<f64>,
    /// Rotation sines.
    sn: Vec<f64>,
    /// Transformed least-squares right-hand side, length `m+1`.
    t: Vec<f64>,
    /// Back-substitution output, length `m`.
    y: Vec<f64>,
    /// Completed columns.
    k: usize,
}

impl GivensQr {
    /// Allocate for restart length `m`.
    pub fn new(m: usize) -> Self {
        GivensQr {
            m,
            h: vec![0.0; (m + 1) * m],
            cs: vec![0.0; m],
            sn: vec![0.0; m],
            t: vec![0.0; m + 1],
            y: vec![0.0; m],
            k: 0,
        }
    }

    /// Start a cycle: `t = β e₁`, no columns.
    pub fn reset(&mut self, beta: f64) {
        self.h.fill(0.0);
        self.cs.fill(0.0);
        self.sn.fill(0.0);
        self.t.fill(0.0);
        self.t[0] = beta;
        self.k = 0;
    }

    /// Completed columns (inner iterations so far).
    pub fn cols(&self) -> usize {
        self.k
    }

    /// Append Hessenberg column `k`: `hcol` holds `h_{0..=k, k}` (the
    /// CGS2 coefficients) and `h_sub` is the subdiagonal `h_{k+1,k}`
    /// (the new basis vector's norm). Returns the updated implicit
    /// residual estimate `|t_{k+1}|`.
    pub fn push_column(&mut self, hcol: &[f64], h_sub: f64) -> f64 {
        let k = self.k;
        assert!(k < self.m, "restart length exceeded");
        assert_eq!(hcol.len(), k + 1, "column must have k+1 entries");
        let col = &mut self.h[k * (self.m + 1)..(k + 1) * (self.m + 1)];
        col[..=k].copy_from_slice(hcol);
        col[k + 1] = h_sub;

        // Apply the accumulated rotations to the new column.
        for j in 0..k {
            let (c, s) = (self.cs[j], self.sn[j]);
            let (a, b) = (col[j], col[j + 1]);
            col[j] = c * a + s * b;
            col[j + 1] = -s * a + c * b;
        }

        // Generate the rotation annihilating the subdiagonal.
        let (a, b) = (col[k], col[k + 1]);
        let mu = (a * a + b * b).sqrt();
        let (c, s) = if mu > 0.0 { (a / mu, b / mu) } else { (1.0, 0.0) };
        self.cs[k] = c;
        self.sn[k] = s;
        col[k] = mu;
        col[k + 1] = 0.0;

        // Update the transformed right-hand side.
        let tk = self.t[k];
        self.t[k] = c * tk;
        self.t[k + 1] = -s * tk;

        self.k += 1;
        self.t[self.k].abs()
    }

    /// The implicit residual estimate `|t_k|` of the current iterate.
    pub fn residual_estimate(&self) -> f64 {
        self.t[self.k].abs()
    }

    /// Solve the `k × k` triangular system `R y = t[0..k]` by back
    /// substitution (line 45's dense TRSM), into storage the QR owns.
    pub fn solve_y(&mut self) -> &[f64] {
        let k = self.k;
        let y = &mut self.y[..k];
        y.copy_from_slice(&self.t[..k]);
        for i in (0..k).rev() {
            let coli = &self.h[i * (self.m + 1)..];
            for j in i + 1..k {
                let colj = &self.h[j * (self.m + 1)..];
                y[i] -= colj[i] * y[j];
            }
            y[i] /= coli[i];
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense reference: compute min ‖β e₁ − H̄ y‖ by normal equations.
    fn dense_lsq(hbar: &[Vec<f64>], beta: f64) -> (Vec<f64>, f64) {
        let cols = hbar[0].len();
        // Normal equations HᵀH y = Hᵀ (β e₁).
        let mut ata = vec![vec![0.0; cols]; cols];
        let mut atb = vec![0.0; cols];
        for i in 0..cols {
            for j in 0..cols {
                for hr in hbar.iter() {
                    ata[i][j] += hr[i] * hr[j];
                }
            }
            atb[i] = hbar[0][i] * beta;
        }
        // Gaussian elimination.
        let mut y = atb.clone();
        let mut m = ata.clone();
        for p in 0..cols {
            let piv = m[p][p];
            for r in p + 1..cols {
                let f = m[r][p] / piv;
                let mp = m[p].clone();
                for (c2, mrc) in m[r].iter_mut().enumerate().skip(p) {
                    *mrc -= f * mp[c2];
                }
                y[r] -= f * y[p];
            }
        }
        for p in (0..cols).rev() {
            for c2 in p + 1..cols {
                let yc = y[c2];
                y[p] -= m[p][c2] * yc;
            }
            y[p] /= m[p][p];
        }
        // Residual norm.
        let mut res = 0.0;
        for (r, hr) in hbar.iter().enumerate() {
            let mut v = if r == 0 { beta } else { 0.0 };
            for (c2, yc) in y.iter().enumerate() {
                v -= hr[c2] * yc;
            }
            res += v * v;
        }
        (y, res.sqrt())
    }

    #[test]
    fn matches_dense_least_squares() {
        // A small synthetic Hessenberg matrix.
        let hbar = vec![
            vec![2.0, 1.0, 0.5],
            vec![1.0, 3.0, 1.0],
            vec![0.0, 0.5, 2.0],
            vec![0.0, 0.0, 0.25],
        ];
        let beta = 1.5;
        let mut qr = GivensQr::new(3);
        qr.reset(beta);
        let mut est = 0.0;
        for k in 0..3 {
            let hcol: Vec<f64> = (0..=k).map(|i| hbar[i][k]).collect();
            est = qr.push_column(&hcol, hbar[k + 1][k]);
        }
        let y = qr.solve_y();
        let (y_ref, res_ref) = dense_lsq(&hbar, beta);
        for (a, b) in y.iter().zip(y_ref.iter()) {
            assert!((a - b).abs() < 1e-10, "{} vs {}", a, b);
        }
        assert!((est - res_ref).abs() < 1e-10, "implicit residual {} vs dense {}", est, res_ref);
    }

    #[test]
    fn residual_estimate_decreases_monotonically() {
        // For a diagonally dominant Hessenberg the residual shrinks.
        let mut qr = GivensQr::new(5);
        qr.reset(1.0);
        let mut prev = 1.0;
        for k in 0..5 {
            let hcol: Vec<f64> = (0..=k).map(|i| if i == k { 4.0 } else { 0.3 }).collect();
            let est = qr.push_column(&hcol, 0.9);
            assert!(est <= prev + 1e-15, "Givens residual must not grow");
            prev = est;
        }
    }

    #[test]
    fn exact_solve_in_one_step() {
        // h = [[2],[0]] with beta=4: y = 2, residual 0.
        let mut qr = GivensQr::new(1);
        qr.reset(4.0);
        let est = qr.push_column(&[2.0], 0.0);
        assert!(est.abs() < 1e-15);
        assert_eq!(qr.solve_y(), [2.0]);
    }

    #[test]
    fn reset_clears_state() {
        let mut qr = GivensQr::new(2);
        qr.reset(1.0);
        qr.push_column(&[1.0], 0.5);
        qr.reset(2.0);
        assert_eq!(qr.cols(), 0);
        assert_eq!(qr.residual_estimate(), 2.0);
    }

    #[test]
    #[should_panic(expected = "restart length exceeded")]
    fn over_pushing_panics() {
        let mut qr = GivensQr::new(1);
        qr.reset(1.0);
        qr.push_column(&[1.0], 0.5);
        qr.push_column(&[1.0, 1.0], 0.5);
    }
}
