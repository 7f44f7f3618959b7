//! The metered drivers (`meter_spkadd` / `trace_spkadd`, behind Table I,
//! Table V and `adaptive_cachesim`) must compute exactly what a plan
//! computes: same structure, same row order, same bits. The comparison
//! is a plain `==` on the matrices — a dense oracle would sum duplicate
//! rows and hide a metered result that emits a row twice.

use spk_gen::{generate_collection, Pattern};
use spk_sparse::CscMatrix;
use spkadd::metered::meter_spkadd;
use spkadd::{Algorithm, SpkAdd};

const BUDGET: usize = 64;

const KWAY: [Algorithm; 5] = [
    Algorithm::Heap,
    Algorithm::Spa,
    Algorithm::Hash,
    Algorithm::SlidingHash,
    Algorithm::SlidingSpa,
];

/// The same matrix with every column's entries in reverse row order.
fn reversed_columns(m: &CscMatrix<f64>) -> CscMatrix<f64> {
    let (nrows, ncols, colptr, mut rows, mut vals) = m.clone().into_parts();
    for j in 0..ncols {
        rows[colptr[j]..colptr[j + 1]].reverse();
        vals[colptr[j]..colptr[j + 1]].reverse();
    }
    CscMatrix::try_new(nrows, ncols, colptr, rows, vals).unwrap()
}

fn plan_sum(mats: &[&CscMatrix<f64>], alg: Algorithm) -> CscMatrix<f64> {
    let (m, n) = mats[0].shape();
    SpkAdd::new(m, n)
        .algorithm(alg)
        .table_entries(BUDGET)
        .build::<f64>()
        .unwrap()
        .execute(mats)
        .unwrap()
}

#[test]
fn metered_kway_results_equal_the_plan_on_sorted_and_unsorted_inputs() {
    let sorted = generate_collection(Pattern::Er, 512, 8, 16, 6, 7);
    let unsorted: Vec<CscMatrix<f64>> = sorted.iter().map(reversed_columns).collect();
    assert!(unsorted.iter().any(|m| !m.is_sorted()));
    for (label, mats) in [("sorted", &sorted), ("unsorted", &unsorted)] {
        let refs: Vec<&CscMatrix<f64>> = mats.iter().collect();
        for alg in KWAY {
            if alg.needs_sorted_inputs() && label == "unsorted" {
                assert!(meter_spkadd(&refs, alg, BUDGET).is_err(), "{alg}: {label}");
                continue;
            }
            let (metered, counters) = meter_spkadd(&refs, alg, BUDGET).unwrap();
            assert!(counters.ops > 0, "{alg}: {label} recorded no work");
            assert!(metered == plan_sum(&refs, alg), "{alg}: {label} drifted");
        }
    }
}
