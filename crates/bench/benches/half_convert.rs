//! Microbenchmarks of the from-scratch binary16 conversions — the
//! half-precision storage path of §4 narrows/widens on every feature
//! load and store, so these conversions sit on the kernel's hot path.
//! The row cases time `FactorMatrix<F16>::load_row`/`store_row`, the loops
//! the stale-additive engine runs per update; next to the scalar cases
//! they show whether the conversions vectorize.

use cumf_bench::micro::{bench, black_box};
use cumf_core::half::F16;
use cumf_core::FactorMatrix;

fn main() {
    const N: usize = 4096;
    let floats: Vec<f32> = (0..N).map(|i| ((i as f32) * 0.173).sin() * 2.0).collect();
    let halves: Vec<F16> = floats.iter().map(|&x| F16::from_f32(x)).collect();

    bench("half_convert/from_f32_bulk", N as u64, || {
        let mut acc = 0u16;
        for &x in black_box(&floats) {
            acc ^= F16::from_f32(x).to_bits();
        }
        black_box(acc);
    });
    bench("half_convert/to_f32_bulk", N as u64, || {
        let mut acc = 0.0f32;
        for &h in black_box(&halves) {
            acc += h.to_f32();
        }
        black_box(acc);
    });
    bench("half_convert/round_trip", N as u64, || {
        let mut acc = 0.0f32;
        for &x in black_box(&floats) {
            acc += F16::from_f32(x).to_f32();
        }
        black_box(acc);
    });

    for k in [16u32, 32, 128] {
        let rows = (N as u32) / k;
        let mut m: FactorMatrix<F16> = FactorMatrix::from_f32_slice(rows, k, &floats);
        let mut row = vec![0.0f32; k as usize];
        bench(&format!("half_convert/load_row/{k}"), N as u64, || {
            for r in 0..rows {
                black_box(&m).load_row(r, &mut row);
                black_box(&row);
            }
        });
        bench(&format!("half_convert/store_row/{k}"), N as u64, || {
            for r in 0..rows {
                black_box(&mut m)
                    .store_row(r, black_box(&floats[(r * k) as usize..][..k as usize]));
            }
        });
    }
}
