//! Accuracy metrics: set-overlap precision, recall, and Fβ (Eq. 27–28),
//! with the paper's conventions for empty result sets.
//!
//! > "We consider an empty result having precision equal to 1.0, however,
//! > we exclude such results when computing average precisions." (§6.1)

use lshe_corpus::DomainId;

/// Precision / recall / Fβ of one query's answer set against ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryAccuracy {
    /// `|A ∩ T| / |A|`; 1.0 when `A` is empty (paper's convention).
    pub precision: f64,
    /// `|A ∩ T| / |T|`; 1.0 when `T` is empty (nothing to find).
    pub recall: f64,
    /// Whether the answer set was empty (excluded from precision averages).
    pub empty_answer: bool,
    /// Whether the truth set was empty (excluded from recall averages).
    pub empty_truth: bool,
}

impl QueryAccuracy {
    /// Fβ score (Eq. 28). β = 1 weighs precision and recall equally;
    /// β = 0.5 biases toward precision as in the paper's F0.5 plots.
    #[must_use]
    #[cfg(test)]
    pub fn f_beta(&self, beta: f64) -> f64 {
        let b2 = beta * beta;
        let denom = b2 * self.precision + self.recall;
        if denom == 0.0 {
            0.0
        } else {
            (1.0 + b2) * self.precision * self.recall / denom
        }
    }
}

/// Computes one query's accuracy. Both slices must be duplicate-free; order
/// is irrelevant.
#[must_use]
pub fn query_accuracy(answer: &[DomainId], truth: &[DomainId]) -> QueryAccuracy {
    let truth_set: std::collections::HashSet<DomainId> = truth.iter().copied().collect();
    let hits = answer.iter().filter(|id| truth_set.contains(id)).count() as f64;
    let precision = if answer.is_empty() {
        1.0
    } else {
        hits / answer.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        hits / truth.len() as f64
    };
    QueryAccuracy {
        precision,
        recall,
        empty_answer: answer.is_empty(),
        empty_truth: truth.is_empty(),
    }
}

/// Averaged accuracy across a query workload, following the paper's
/// exclusion conventions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadAccuracy {
    /// Mean precision over queries with non-empty answers.
    pub precision: f64,
    /// Mean recall over queries with non-empty truth sets.
    pub recall: f64,
    /// F1 computed from the averaged precision and recall.
    pub f1: f64,
    /// F0.5 computed from the averaged precision and recall.
    pub f05: f64,
    /// Number of queries whose answer set was empty.
    pub empty_answers: usize,
    /// Number of queries evaluated.
    pub queries: usize,
}

/// Aggregates per-query accuracies into workload averages.
///
/// Queries with empty answers are excluded from the precision average;
/// queries with empty truth sets are excluded from the recall average.
/// If every answer is empty, precision is reported as 1.0 (nothing asserted,
/// nothing wrong); if every truth set is empty, recall is 1.0.
#[must_use]
pub fn aggregate(per_query: &[QueryAccuracy]) -> WorkloadAccuracy {
    let mut p_sum = 0.0;
    let mut p_n = 0usize;
    let mut r_sum = 0.0;
    let mut r_n = 0usize;
    let mut empty_answers = 0usize;
    for qa in per_query {
        if qa.empty_answer {
            empty_answers += 1;
        } else {
            p_sum += qa.precision;
            p_n += 1;
        }
        if !qa.empty_truth {
            r_sum += qa.recall;
            r_n += 1;
        }
    }
    let precision = if p_n == 0 { 1.0 } else { p_sum / p_n as f64 };
    let recall = if r_n == 0 { 1.0 } else { r_sum / r_n as f64 };
    let f = |beta: f64| {
        let b2 = beta * beta;
        let denom = b2 * precision + recall;
        if denom == 0.0 {
            0.0
        } else {
            (1.0 + b2) * precision * recall / denom
        }
    };
    WorkloadAccuracy {
        precision,
        recall,
        f1: f(1.0),
        f05: f(0.5),
        empty_answers,
        queries: per_query.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_answer() {
        let qa = query_accuracy(&[1, 2, 3], &[1, 2, 3]);
        assert_eq!(qa.precision, 1.0);
        assert_eq!(qa.recall, 1.0);
        assert_eq!(qa.f_beta(1.0), 1.0);
    }

    #[test]
    fn half_precision_full_recall() {
        let qa = query_accuracy(&[1, 2, 3, 4], &[1, 2]);
        assert_eq!(qa.precision, 0.5);
        assert_eq!(qa.recall, 1.0);
        let f1 = qa.f_beta(1.0);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-12);
        // F0.5 biases toward precision → lower than F1 here.
        assert!(qa.f_beta(0.5) < f1);
    }

    #[test]
    fn empty_answer_convention() {
        let qa = query_accuracy(&[], &[1, 2]);
        assert_eq!(qa.precision, 1.0);
        assert_eq!(qa.recall, 0.0);
        assert!(qa.empty_answer);
    }

    #[test]
    fn empty_truth_convention() {
        let qa = query_accuracy(&[1], &[]);
        assert_eq!(qa.recall, 1.0);
        assert!(qa.empty_truth);
        assert_eq!(qa.precision, 0.0);
    }

    #[test]
    fn aggregate_excludes_empty_answers_from_precision() {
        let qas = vec![
            query_accuracy(&[1, 9], &[1]), // precision 0.5
            query_accuracy(&[], &[1]),     // empty answer: excluded from P
        ];
        let w = aggregate(&qas);
        assert_eq!(w.precision, 0.5);
        assert_eq!(w.empty_answers, 1);
        assert_eq!(w.queries, 2);
        // Recall averages over both: (1.0 + 0.0) / 2.
        assert_eq!(w.recall, 0.5);
    }

    #[test]
    fn aggregate_excludes_empty_truth_from_recall() {
        let qas = vec![
            query_accuracy(&[1], &[]),     // empty truth: excluded from R
            query_accuracy(&[1], &[1, 2]), // recall 0.5
        ];
        let w = aggregate(&qas);
        assert_eq!(w.recall, 0.5);
    }

    #[test]
    fn aggregate_all_empty() {
        let w = aggregate(&[query_accuracy(&[], &[])]);
        assert_eq!(w.precision, 1.0);
        assert_eq!(w.recall, 1.0);
    }

    #[test]
    fn f_beta_zero_when_nothing_found() {
        let qa = query_accuracy(&[9], &[1]);
        assert_eq!(qa.precision, 0.0);
        assert_eq!(qa.recall, 0.0);
        assert_eq!(qa.f_beta(1.0), 0.0);
        assert_eq!(qa.f_beta(0.5), 0.0);
    }
}
