//! CSV export of the PCA input matrix.
//!
//! The paper's workflow exports profiler output to comma-separated values
//! "for further analysis"; this helper writes the §IV-A feature matrix in
//! that shape so downstream tooling (or a spreadsheet) can consume it.

use crate::characteristics::{WorkloadCharacteristics, FEATURE_NAMES};
use std::fmt::Write as _;

/// Render workload-characteristics rows (the PCA input matrix) as CSV.
pub fn characteristics_to_csv(rows: &[WorkloadCharacteristics]) -> String {
    let mut out = String::from("workload,suite");
    for name in FEATURE_NAMES {
        // Normalize header tokens: lowercase, no spaces/punctuation.
        let token: String = name
            .chars()
            .map(|c| {
                if c.is_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        write!(out, ",{token}").expect("writing to a String cannot fail");
    }
    out.push('\n');
    for row in rows {
        write!(out, "{},{}", row.name, row.suite).expect("writing to a String cannot fail");
        for v in row.features {
            write!(out, ",{v:.4}").expect("writing to a String cannot fail");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn characteristics_csv_round_trips_columns() {
        let rows = vec![WorkloadCharacteristics::from_raw(
            "MLPf_NCF_Py",
            "MLPerf",
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        )];
        let csv = characteristics_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].split(',').count(), 10); // name + suite + 8 features
        assert!(lines[1].starts_with("MLPf_NCF_Py,MLPerf,1.0000"));
        assert!(lines[1].ends_with("8.0000"));
    }

    #[test]
    fn empty_inputs_yield_header_only() {
        assert_eq!(characteristics_to_csv(&[]).lines().count(), 1);
    }
}
