//! Figure 3: `P(t | x, q, b, r)` — the probability of a domain becoming a
//! candidate as a function of its containment, at the paper's parameters
//! (`x = 10, q = 5, b = 256, r = 4, t* = 0.5`), together with the FP and FN
//! probability masses those areas represent (Eq. 22–24).

use lshe_bench::{report, Args};
use lshe_core::tuning::{
    candidate_probability_containment, false_negative_area, false_positive_area,
};

fn main() {
    let args = Args::from_env(&["x", "q", "b", "r", "t-star", "steps"]);
    let x = args.get_u64("x", 10);
    let q = args.get_u64("q", 5);
    let b = args.get_usize("b", 256) as u32;
    let r = args.get_usize("r", 4) as u32;
    let t_star = args.get_f64("t-star", 0.5);
    let steps = args.get_usize("steps", 50);
    let ratio = x as f64 / q as f64;

    report::banner(
        "fig3",
        "candidate probability vs containment, with FP/FN masses",
        &[
            ("x", x.to_string()),
            ("q", q.to_string()),
            ("b", b.to_string()),
            ("r", r.to_string()),
            ("t_star", report::f4(t_star)),
            (
                "FP_area",
                report::f4(false_positive_area(ratio, t_star, b, r)),
            ),
            (
                "FN_area",
                report::f4(false_negative_area(ratio, t_star, b, r)),
            ),
        ],
    );

    report::header(&["t", "P_candidate"]);
    for i in 0..=steps {
        let t = i as f64 / steps as f64;
        report::row(&[
            report::f4(t),
            report::f4(candidate_probability_containment(t, ratio, b, r)),
        ]);
    }
}
