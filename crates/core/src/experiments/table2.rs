//! Table II: the composition of the three suites under study.

use crate::benchmark::BenchmarkId;
use crate::report::Table;
use crate::runner::Decl;
use crate::workloads::DeepBenchId;
use mlperf_models::zoo::deepbench;

/// Render the benchmark-composition table (MLPerf + DAWNBench top, the
/// DeepBench kernel workloads below).
pub fn render() -> String {
    let mut top = Table::new(
        "Table II (top/middle): MLPerf and DAWNBench benchmarks",
        [
            "Abbreviation",
            "Domain",
            "Model",
            "Framework",
            "Submitter",
            "Dataset",
            "Quality Target",
        ],
    );
    for id in BenchmarkId::ALL {
        top.add_row([
            id.abbreviation(),
            id.domain(),
            id.model_name(),
            id.framework(),
            id.submitter(),
            id.dataset().spec().name(),
            id.quality_target(),
        ]);
    }

    let mut bottom = Table::new(
        "Table II (bottom): DeepBench kernel workloads",
        ["Abbreviation", "Operation", "Kernels"],
    );
    for id in DeepBenchId::ALL {
        let (operation, count) = match id {
            DeepBenchId::GemmCu => ("Dense Matrix Multiply", deepbench::gemm_kernels().len()),
            DeepBenchId::ConvCu => ("Convolution", deepbench::conv_kernels().len()),
            DeepBenchId::RnnCu => (
                "Recurrent (vanilla/GRU/LSTM)",
                deepbench::rnn_kernels().len(),
            ),
            DeepBenchId::RedCu => (
                "Communication (AllReduce)",
                deepbench::allreduce_sizes().len(),
            ),
        };
        bottom.add_row([
            id.abbreviation().to_string(),
            operation.to_string(),
            count.to_string(),
        ]);
    }
    format!("{top}\n{bottom}")
}

/// Table II as the executor schedules it. The table is a static registry
/// listing — `run` prices nothing and the artifact carries no payload.
pub static EXP: Decl<()> = Decl {
    id: "table2",
    title: "Table II: suite composition",
    deps: &[],
    spec: None,
    run: |_| Ok(()),
    render: |()| render(),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_thirteen_workloads_listed() {
        let s = render();
        for id in BenchmarkId::ALL {
            assert!(s.contains(id.abbreviation()), "{id}");
        }
        for id in DeepBenchId::ALL {
            assert!(s.contains(id.abbreviation()), "{id:?}");
        }
    }

    #[test]
    fn quality_targets_present() {
        let s = render();
        assert!(s.contains("Accuracy: 0.749"));
        assert!(s.contains("Hit rate @ 10: 0.635"));
        assert!(s.contains("F1 score: 0.75"));
    }

    #[test]
    fn rnn_bench_lists_six_configs() {
        assert!(render().contains("Recurrent (vanilla/GRU/LSTM)"));
        assert_eq!(mlperf_models::zoo::deepbench::rnn_kernels().len(), 6);
    }
}
