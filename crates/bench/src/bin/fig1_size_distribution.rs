//! Figure 1: domain-size distributions of the two corpora, as log2-bucketed
//! histograms (left: Canadian-Open-Data-like; right: WDC-Web-Tables-like).
//!
//! The paper plots `Number of Domains` against `Domain Size` on log-log
//! axes; a straight descending line indicates a power law. This binary
//! prints both histograms from the calibrated generators so the slope can
//! be compared with the paper's panels.

use lshe_bench::{report, Args};
use lshe_datagen::{log2_histogram, PowerLawSizes};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env(&["cod-domains", "wdc-domains", "seed"]);
    let cod_n = args.get_usize("cod-domains", 65_533);
    let wdc_n = args.get_usize("wdc-domains", 1_000_000);
    let seed = args.get_u64("seed", 42);

    report::banner(
        "fig1",
        "domain size distribution (log2 histogram), Canadian-OD-like and WDC-like",
        &[
            ("cod_domains", cod_n.to_string()),
            ("wdc_domains", wdc_n.to_string()),
            ("cod_size_range", "[10, 2^21], alpha = 2.0".to_owned()),
            ("wdc_size_range", "[1, 2^14], alpha = 2.0".to_owned()),
            ("seed", seed.to_string()),
        ],
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let cod = PowerLawSizes::new(10, 1 << 21, 2.0).sample_many(&mut rng, cod_n);
    let wdc = PowerLawSizes::new(1, 1 << 14, 2.0).sample_many(&mut rng, wdc_n);

    report::header(&["corpus", "log2_size_bucket", "num_domains"]);
    for (bucket, count) in log2_histogram(&cod) {
        if count > 0 {
            report::row(&["canadian-od".into(), bucket.to_string(), count.to_string()]);
        }
    }
    for (bucket, count) in log2_histogram(&wdc) {
        if count > 0 {
            report::row(&["wdc".into(), bucket.to_string(), count.to_string()]);
        }
    }
}
