//! Uniform TSV reporting for the experiment binaries.
//!
//! Every experiment prints `#`-prefixed metadata lines followed by a header
//! row and tab-separated data rows — trivially greppable, plottable, and,
//! for `accuracy`, backed by the cells recorded in `BENCH_accuracy.json`.

/// Prints the experiment banner: id, description, and workload parameters.
pub fn banner(id: &str, description: &str, params: &[(&str, String)]) {
    println!("# {id}: {description}");
    for (k, v) in params {
        println!("# {k} = {v}");
    }
}

/// Prints the TSV header row.
pub fn header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Prints one TSV data row.
pub fn row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// Formats a float with 4 decimal places (accuracy metrics).
#[must_use]
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Formats a float with 2 decimal places (timings, skews).
#[must_use]
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats seconds with millisecond resolution.
#[must_use]
pub fn secs(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(f4(0.123_456), "0.1235");
        assert_eq!(f2(45.129), "45.13");
        assert_eq!(secs(1.23456), "1.235");
    }
}
