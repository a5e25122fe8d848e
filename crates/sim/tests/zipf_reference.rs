//! Differential test of the precomputed [`Zipf`] sampler against a copy of
//! the per-draw rejection-inversion code it replaced, which recomputed
//! `H(1.5) − 1` and `H(n + 0.5)` on every call. Draws must agree bit for
//! bit, and both sides must consume the generator identically.

use proptest::prelude::*;

use sgx_sim::{DetRng, Zipf};

fn reference_zipf(rng: &mut DetRng, n: u64, s: f64) -> u64 {
    assert!(n > 0, "zipf over empty support");
    assert!(s > 0.0, "zipf exponent must be positive");
    if n == 1 {
        return 0;
    }
    let h = |x: f64| -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            x.ln()
        } else {
            (x.powf(1.0 - s) - 1.0) / (1.0 - s)
        }
    };
    let h_inv = |y: f64| -> f64 {
        if (s - 1.0).abs() < 1e-9 {
            y.exp()
        } else {
            (1.0 + y * (1.0 - s)).powf(1.0 / (1.0 - s))
        }
    };
    let nf = n as f64;
    let h_x1 = h(1.5) - 1.0;
    let h_n = h(nf + 0.5);
    loop {
        let u = h_x1 + rng.unit() * (h_n - h_x1);
        let x = h_inv(u);
        let k = x.round().clamp(1.0, nf);
        if u >= h(k + 0.5) - k.powf(-s) {
            return k as u64 - 1;
        }
    }
}

/// An exponent in `(0, 3]`, with exactly 1.0 (the `ln` branch), values
/// within the `1e-9` tolerance of it, and 3.0 drawn often.
fn exponent() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0.0f64..3.0).prop_map(|x| 3.0 - x),
        Just(1.0),
        Just(1.0 + 5e-10),
        Just(3.0),
    ]
}

/// A support size in `1..2^40`, small sizes as likely as large ones.
fn support() -> impl Strategy<Value = u64> {
    prop_oneof![1u64..4, 4u64..1 << 12, 1u64..1 << 40]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sampler_matches_the_per_draw_formula(
        n in support(),
        s in exponent(),
        seed in any::<u64>(),
    ) {
        let zipf = Zipf::new(n, s);
        let (mut a, mut b, mut c) = (
            DetRng::seed_from(seed),
            DetRng::seed_from(seed),
            DetRng::seed_from(seed),
        );
        for draw in 0..64 {
            let want = reference_zipf(&mut a, n, s);
            prop_assert!(want < n);
            prop_assert_eq!(zipf.sample(&mut b), want, "n {} s {} draw {}", n, s, draw);
            prop_assert_eq!(c.zipf(n, s), want, "n {} s {} draw {}", n, s, draw);
        }
        // Same number of uniform draws consumed on every side.
        let next = a.unit().to_bits();
        prop_assert_eq!(b.unit().to_bits(), next);
        prop_assert_eq!(c.unit().to_bits(), next);
    }
}
