//! `SparseTensor::fingerprint` is a function of the tensor's content and
//! of nothing else: equal tensors fingerprint equal however they were
//! built, any one changed word changes it, and neither `==` nor `Debug`
//! can see whether it has been computed yet.

use proptest::prelude::*;
use stardust_tensor::{CooTensor, Format, LevelStorage, MemoryRegion, SparseTensor};

/// A CSR matrix with at least one stored value, one spare column no
/// entry uses and an empty last row, so the perturbations below stay
/// inside what `from_parts` accepts.
fn matrix(rows: usize, cols: usize, entries: &[(usize, usize, u8)]) -> SparseTensor<f64> {
    let mut coo = CooTensor::new(vec![rows + 1, cols + 1]);
    coo.push(&[0, 0], 0.5);
    for &(r, c, v) in entries {
        coo.push(&[r % rows, c % cols], f64::from(v) / 4.0 + 0.25);
    }
    SparseTensor::from_coo(&coo, Format::csr())
}

/// The parts of a CSR matrix, to change one and put them back together.
#[derive(Clone)]
struct Parts {
    dims: Vec<usize>,
    format: Format,
    pos: Vec<usize>,
    crd: Vec<usize>,
    vals: Vec<f64>,
}

impl Parts {
    fn of(t: &SparseTensor<f64>) -> Parts {
        Parts {
            dims: t.dims().to_vec(),
            format: t.format().clone(),
            pos: t.pos(1).to_vec(),
            crd: t.crd(1).to_vec(),
            vals: t.vals().to_vec(),
        }
    }

    fn build(self) -> SparseTensor<f64> {
        let levels = vec![
            LevelStorage::Dense { dim: self.dims[0] },
            LevelStorage::Compressed {
                pos: self.pos,
                crd: self.crd,
            },
        ];
        SparseTensor::from_parts(self.dims, self.format, levels, self.vals)
            .expect("perturbation keeps the invariants")
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn fingerprint_is_content_identity(
        rows in 1usize..12,
        cols in 1usize..12,
        entries in collection::vec((0usize..64, 0usize..64, any::<u64>().prop_map(|x| x as u8)), 0..40),
        pick in any::<u64>(),
    ) {
        let a = matrix(rows, cols, &entries);
        let fp = a.fingerprint();
        let parts = Parts::of(&a);

        // Equal content, three ways of getting it.
        prop_assert_eq!(a.clone().fingerprint(), fp);
        prop_assert_eq!(matrix(rows, cols, &entries).fingerprint(), fp);
        prop_assert_eq!(parts.clone().build().fingerprint(), fp);

        // A tensor that has been fingerprinted and one that has not are
        // indistinguishable.
        let fresh = parts.clone().build();
        prop_assert_eq!(&a, &fresh);
        prop_assert_eq!(format!("{a:?}"), format!("{fresh:?}"));

        let differs = |what: &str, change: &dyn Fn(&mut Parts)| {
            let mut changed = parts.clone();
            change(&mut changed);
            let b = changed.build();
            assert_ne!(a, b, "{what}: perturbation changed nothing");
            assert_ne!(b.fingerprint(), fp, "{what}: fingerprint blind to the change");
        };
        let at = (pick % parts.vals.len() as u64) as usize;
        differs("vals", &|p| p.vals[at] += 1.0);

        // The last non-empty row; the rows after it, the spare last one
        // included, are empty.
        let row = (0..rows).rev().find(|&r| parts.pos[r] < parts.pos[r + 1]).expect("a stored value");
        // Its last coordinate moves to the spare column.
        differs("crd", &|p| p.crd[p.pos[row + 1] - 1] = cols);
        // Its last stored value moves into the next row.
        differs("pos", &|p| p.pos[row + 1] -= 1);
        differs("dims", &|p| p.dims[1] += 1);
        differs("format region", &|p| p.format = Format::csr().with_region(MemoryRegion::OnChip));

        let csc = SparseTensor::from_coo(&a.to_coo(), Format::csc());
        prop_assert_ne!(csc.fingerprint(), fp, "format mode order");
    }
}
