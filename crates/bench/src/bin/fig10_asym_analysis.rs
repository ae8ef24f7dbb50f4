//! Figure 10 (appendix): why Asymmetric Minwise Hashing loses recall under
//! skew. Left panel: the probability that a *perfectly contained* domain
//! (`t = 1`) is selected, as the padding target `M` grows (Eq. 32, with the
//! recall-friendliest tuning `b = 256, r = 1`). Right panel: the minimum
//! number of hash functions `m*` needed to keep that probability ≥ 0.5 —
//! linear in `M`.

use lshe_asym::analysis::{min_hash_functions_for_recall, selection_probability_full_containment};
use lshe_bench::{report, Args};

fn main() {
    let args = Args::from_env(&["q", "b", "max-m", "step", "p-target"]);
    let q = args.get_u64("q", 1);
    let b = args.get_usize("b", 256) as u32;
    let max_m = args.get_u64("max-m", 8_000);
    let step = args.get_u64("step", 250);
    let p_target = args.get_f64("p-target", 0.5);

    report::banner(
        "fig10",
        "Asym selection probability at t = 1 vs padding target M; minimum m* for recall",
        &[
            ("q", q.to_string()),
            ("b", b.to_string()),
            ("r", "1".to_owned()),
            ("p_target", report::f4(p_target)),
        ],
    );

    report::header(&["M", "P_selected_t1", "m_star"]);
    let mut m = q.max(1);
    while m <= max_m {
        let p = selection_probability_full_containment(m, q, b, 1);
        let m_star = min_hash_functions_for_recall(m, q, p_target);
        report::row(&[m.to_string(), report::f4(p), m_star.to_string()]);
        m = if m == q.max(1) { step } else { m + step };
    }
}
