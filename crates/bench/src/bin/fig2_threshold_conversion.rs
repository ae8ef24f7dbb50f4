//! Figure 2: the geometry of the containment → Jaccard threshold
//! conversion — the curves `ŝ_{x,q}(t)` and `ŝ_{u,q}(t)` with the paper's
//! parameters `u = 3, x = 1, q = 1`, plus the derived quantities `s*`
//! (conservative Jaccard threshold) and `t_x` (effective containment
//! threshold) at `t* = 0.5`.

use lshe_bench::{report, Args};
use lshe_core::convert::{effective_threshold, jaccard_from_containment, jaccard_threshold};

fn main() {
    let args = Args::from_env(&["u", "x", "q", "t-star", "steps"]);
    let u = args.get_u64("u", 3);
    let x = args.get_u64("x", 1);
    let q = args.get_u64("q", 1);
    let t_star = args.get_f64("t-star", 0.5);
    let steps = args.get_usize("steps", 50);

    let s_star = jaccard_threshold(t_star, u, q);
    let t_x = effective_threshold(t_star, x, u, q);
    report::banner(
        "fig2",
        "threshold conversion curves and the (t_x, t*, s*) relationship",
        &[
            ("u", u.to_string()),
            ("x", x.to_string()),
            ("q", q.to_string()),
            ("t_star", report::f4(t_star)),
            ("s_star = s_hat_{u,q}(t*)", report::f4(s_star)),
            ("t_x = (x+q)t*/(u+q)", report::f4(t_x)),
        ],
    );

    report::header(&["t", "s_hat_xq", "s_hat_uq"]);
    for i in 0..=steps {
        let t = i as f64 / steps as f64;
        report::row(&[
            report::f4(t),
            report::f4(jaccard_from_containment(t, x as f64, q as f64)),
            report::f4(jaccard_from_containment(t, u as f64, q as f64)),
        ]);
    }
}
