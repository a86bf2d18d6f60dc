//! Reference results that owe nothing to the compiler under test: the ten
//! Table-3 expressions as hand-written loops over the inputs' coordinate
//! lists (only `stardust-tensor`'s format readers are trusted), plus the
//! bitwise form every measured operation is compared in.

use std::collections::HashMap;

use stardust_core::pipeline::{KernelOutput, TensorData};
use stardust_spatial::interp::mix64;
use stardust_tensor::{DenseTensor, SparseTensor};

/// What a kernel must compute.
pub enum Expected {
    Scalar(f64),
    Dense(DenseTensor<f64>),
}

fn sparse<'a>(inputs: &'a HashMap<String, TensorData>, name: &str) -> &'a SparseTensor<f64> {
    match inputs.get(name) {
        Some(TensorData::Sparse(t)) => t,
        _ => panic!("input {name} is not a bound tensor"),
    }
}

fn scalar(inputs: &HashMap<String, TensorData>, name: &str) -> f64 {
    match inputs.get(name) {
        Some(TensorData::Scalar(v)) => *v,
        _ => panic!("input {name} is not a bound scalar"),
    }
}

/// Evaluates Table-3 kernel `name` on `inputs` directly from its
/// index-notation definition.
///
/// # Panics
///
/// Panics on an unknown kernel name or a missing input.
pub fn expected(name: &str, inputs: &HashMap<String, TensorData>) -> Expected {
    let dense = |n: &str| sparse(inputs, n).to_dense();
    let dims = |n: &str| sparse(inputs, n).dims().to_vec();
    match name {
        // y(i) = A(i,j) * x(j)
        "SpMV" => {
            let x = dense("x");
            let mut y = DenseTensor::zeros(vec![dims("A")[0]]);
            sparse(inputs, "A").for_each_nonzero(|c, v| y.add_assign(&[c[0]], v * x.get(&[c[1]])));
            Expected::Dense(y)
        }
        // A(i,j) = B(i,j) + C(i,j) + D(i,j)
        "Plus3" => {
            let mut a = DenseTensor::zeros(dims("B"));
            for operand in ["B", "C", "D"] {
                sparse(inputs, operand).for_each_nonzero(|c, v| a.add_assign(c, v));
            }
            Expected::Dense(a)
        }
        // A(i,j) = B(i,j) * C(i,k) * D(k,j)
        "SDDMM" => {
            let (c, d) = (dense("C"), dense("D"));
            let rank = c.dims()[1];
            let mut a = DenseTensor::zeros(dims("B"));
            sparse(inputs, "B").for_each_nonzero(|ij, v| {
                let dot: f64 = (0..rank)
                    .map(|k| c.get(&[ij[0], k]) * d.get(&[k, ij[1]]))
                    .sum();
                a.add_assign(ij, v * dot);
            });
            Expected::Dense(a)
        }
        // y(i) = alpha * A(j,i) * x(j) + beta * z(i)
        "MatTransMul" => {
            let (x, z) = (dense("x"), dense("z"));
            let (alpha, beta) = (scalar(inputs, "alpha"), scalar(inputs, "beta"));
            let n = dims("A")[1];
            let mut ax = DenseTensor::zeros(vec![n]);
            sparse(inputs, "A").for_each_nonzero(|c, v| ax.add_assign(&[c[1]], v * x.get(&[c[0]])));
            let mut y = DenseTensor::zeros(vec![n]);
            for i in 0..n {
                y.set(&[i], alpha * ax.get(&[i]) + beta * z.get(&[i]));
            }
            Expected::Dense(y)
        }
        // y(i) = b(i) - A(i,j) * x(j)
        "Residual" => {
            let x = dense("x");
            let mut y = dense("b");
            sparse(inputs, "A")
                .for_each_nonzero(|c, v| y.add_assign(&[c[0]], -(v * x.get(&[c[1]]))));
            Expected::Dense(y)
        }
        // A(i,j) = B(i,j,k) * c(k)
        "TTV" => {
            let c = dense("c");
            let d = dims("B");
            let mut a = DenseTensor::zeros(vec![d[0], d[1]]);
            sparse(inputs, "B")
                .for_each_nonzero(|ijk, v| a.add_assign(&ijk[..2], v * c.get(&[ijk[2]])));
            Expected::Dense(a)
        }
        // A(i,j,k) = B(i,j,l) * C(k,l)
        "TTM" => {
            let c = dense("C");
            let d = dims("B");
            let rank = c.dims()[0];
            let mut a = DenseTensor::zeros(vec![d[0], d[1], rank]);
            sparse(inputs, "B").for_each_nonzero(|ijl, v| {
                for k in 0..rank {
                    a.add_assign(&[ijl[0], ijl[1], k], v * c.get(&[k, ijl[2]]));
                }
            });
            Expected::Dense(a)
        }
        // A(i,j) = B(i,k,l) * C(j,k) * D(j,l)
        "MTTKRP" => {
            let (c, d) = (dense("C"), dense("D"));
            let rank = c.dims()[0];
            let mut a = DenseTensor::zeros(vec![dims("B")[0], rank]);
            sparse(inputs, "B").for_each_nonzero(|ikl, v| {
                for j in 0..rank {
                    a.add_assign(&[ikl[0], j], v * c.get(&[j, ikl[1]]) * d.get(&[j, ikl[2]]));
                }
            });
            Expected::Dense(a)
        }
        // alpha = B(i,j,k) * C(i,j,k)
        "InnerProd" => {
            let c = dense("C");
            let mut alpha = 0.0;
            sparse(inputs, "B").for_each_nonzero(|ijk, v| alpha += v * c.get(ijk));
            Expected::Scalar(alpha)
        }
        // A(i,j,k) = B(i,j,k) + C(i,j,k)
        "Plus2" => {
            let mut a = dense("B");
            sparse(inputs, "C").for_each_nonzero(|c, v| a.add_assign(c, v));
            Expected::Dense(a)
        }
        other => panic!("no reference for kernel {other}"),
    }
}

/// Checks `got` against `want` at 1e-9 relative to the result's largest
/// magnitude (the loops above sum in another order than the kernel).
///
/// # Errors
///
/// Describes the first element that differs.
pub fn check(want: &Expected, got: &KernelOutput) -> Result<(), String> {
    // False for NaN on either side.
    let close = |w: f64, g: f64, scale: f64| (w - g).abs() <= 1e-9 * scale;
    match (want, got) {
        (Expected::Scalar(w), KernelOutput::Scalar(g)) => {
            if close(*w, *g, w.abs().max(1.0)) {
                Ok(())
            } else {
                Err(format!("scalar {g} differs from reference {w}"))
            }
        }
        (Expected::Dense(w), KernelOutput::Tensor(t)) => {
            let g = t.to_dense();
            if g.dims() != w.dims() {
                return Err(format!("shape {:?} is not {:?}", g.dims(), w.dims()));
            }
            let scale = w.data().iter().fold(1.0f64, |m, v| m.max(v.abs()));
            match (w.data().iter().zip(g.data())).position(|(w, g)| !close(*w, *g, scale)) {
                None => Ok(()),
                Some(at) => Err(format!(
                    "element {at}: {} differs from reference {}",
                    g.data()[at],
                    w.data()[at]
                )),
            }
        }
        _ => Err("output kind (scalar/tensor) differs from the reference".into()),
    }
}

/// The exact stored form of an output: every level's `pos`/`crd` words and
/// the value bits, so equal vectors mean bitwise-equal results in O(nnz).
pub fn output_bits(output: &KernelOutput) -> Vec<u64> {
    match output {
        KernelOutput::Scalar(v) => vec![v.to_bits()],
        KernelOutput::Tensor(t) => {
            let mut bits = Vec::with_capacity(t.vals().len() * 2);
            for (l, f) in t.format().levels().iter().enumerate() {
                if f.is_compressed() {
                    bits.extend(t.pos(l).iter().map(|&p| p as u64));
                    bits.extend(t.crd(l).iter().map(|&c| c as u64));
                }
            }
            bits.extend(t.vals().iter().map(|v| v.to_bits()));
            bits
        }
    }
}

/// Folds every bound input word of `inputs` (names in sorted order) into
/// the traffic fingerprint `h`.
pub fn fingerprint_inputs(h: &mut u64, inputs: &HashMap<String, TensorData>) {
    let mut names: Vec<&String> = inputs.keys().collect();
    names.sort_unstable();
    for name in names {
        name.bytes().for_each(|b| mix64(h, u64::from(b)));
        match &inputs[name] {
            TensorData::Scalar(v) => mix64(h, v.to_bits()),
            TensorData::Sparse(t) => {
                t.dims().iter().for_each(|&d| mix64(h, d as u64));
                for (l, f) in t.format().levels().iter().enumerate() {
                    if f.is_compressed() {
                        t.pos(l).iter().for_each(|&p| mix64(h, p as u64));
                        t.crd(l).iter().for_each(|&c| mix64(h, c as u64));
                    }
                }
                t.vals().iter().for_each(|v| mix64(h, v.to_bits()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stardust_tensor::{CooTensor, Format};

    fn spmv_inputs() -> HashMap<String, TensorData> {
        let mut a = CooTensor::new(vec![2, 3]);
        a.push(&[0, 0], 2.0);
        a.push(&[0, 2], 3.0);
        a.push(&[1, 1], 5.0);
        let mut x = CooTensor::new(vec![3]);
        for (i, v) in [1.0, 10.0, 100.0].into_iter().enumerate() {
            x.push(&[i], v);
        }
        HashMap::from([
            ("A".to_string(), TensorData::from_coo(&a, Format::csr())),
            (
                "x".to_string(),
                TensorData::from_coo(&x, Format::dense_vec()),
            ),
        ])
    }

    #[test]
    fn spmv_reference_and_tolerance() {
        let Expected::Dense(y) = expected("SpMV", &spmv_inputs()) else {
            panic!("SpMV is a tensor");
        };
        assert_eq!(y.data(), [302.0, 50.0]);
        let out = |v: [f64; 2]| {
            let mut coo = CooTensor::new(vec![2]);
            coo.push(&[0], v[0]);
            coo.push(&[1], v[1]);
            KernelOutput::Tensor(SparseTensor::from_coo(&coo, Format::dense_vec()))
        };
        let want = Expected::Dense(y);
        assert!(check(&want, &out([302.0, 50.0 + 1e-8])).is_ok());
        assert!(check(&want, &out([302.0, 50.0 + 1e-6])).is_err());
        assert!(check(&want, &out([302.0, f64::NAN])).is_err());
        assert!(check(&want, &KernelOutput::Scalar(302.0)).is_err());
    }

    #[test]
    fn fingerprint_sees_values_and_structure() {
        let base = spmv_inputs();
        let hash = |inputs: &HashMap<String, TensorData>| {
            let mut h = 0;
            fingerprint_inputs(&mut h, inputs);
            h
        };
        let mut scaled = base.clone();
        scaled.insert("alpha".into(), TensorData::Scalar(1.0));
        assert_eq!(hash(&base), hash(&spmv_inputs()));
        assert_ne!(hash(&base), hash(&scaled));
    }
}
