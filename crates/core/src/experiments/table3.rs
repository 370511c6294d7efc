//! Table III: hardware specifications of the experimental platforms.

use crate::report::Table;
use crate::runner::Decl;
use mlperf_hw::systems::SystemId;
use mlperf_hw::topology::P2pClass;

/// Render the platform-specification table, including the derived
/// GPU-to-GPU path classification that drives §V-E.
pub fn render() -> String {
    let mut t = Table::new(
        "Table III: Hardware specifications of systems for experimentation",
        [
            "System",
            "CPUs",
            "DIMMs",
            "GPUs",
            "GPU model",
            "Interconnect",
            "Worst GPU-GPU path",
        ],
    );
    for id in SystemId::ALL {
        let spec = id.spec();
        let worst = if spec.gpu_count() >= 2 {
            let gpus: Vec<u32> = (0..spec.gpu_count() as u32).collect();
            spec.topology()
                .worst_peer_path(&gpus)
                .map(|p| p.class.to_string())
                .unwrap_or_else(|e| format!("error: {e}"))
        } else {
            "n/a (single GPU)".to_string()
        };
        t.add_row([
            id.name().to_string(),
            format!("{}x {}", spec.cpu_count(), spec.cpu_model().spec().name()),
            spec.dimms().to_string(),
            spec.gpu_count().to_string(),
            spec.gpu_model().spec().name().to_string(),
            spec.interconnect_label().to_string(),
            worst,
        ]);
    }
    t.to_string()
}

/// The derived worst-path class per 4-GPU platform (used by Table I's
/// insight checks).
pub fn worst_path_classes() -> Vec<(SystemId, P2pClass)> {
    SystemId::FOUR_GPU_PLATFORMS
        .iter()
        .map(|&id| {
            let spec = id.spec();
            let class = spec
                .topology()
                .worst_peer_path(&[0, 1, 2, 3])
                .expect("4-GPU platforms are connected")
                .class;
            (id, class)
        })
        .collect()
}

/// Table III as the executor schedules it. The table derives from static
/// platform specs — `run` prices nothing and the artifact carries no
/// payload.
pub static EXP: Decl<()> = Decl {
    id: "table3",
    title: "Table III: platform hardware specifications",
    deps: &[],
    spec: None,
    run: |_| Ok(()),
    render: |()| render(),
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_platforms_rendered() {
        let s = render();
        for id in SystemId::ALL {
            assert!(s.contains(id.name()), "{id}");
        }
        assert!(s.contains("NVLink P2P"));
        assert!(s.contains("PCIe-switch P2P"));
    }

    #[test]
    fn class_hierarchy_matches_section_v_e() {
        let classes: std::collections::HashMap<_, _> = worst_path_classes().into_iter().collect();
        assert_eq!(classes[&SystemId::C4140M], P2pClass::NvLinkDirect);
        assert_eq!(classes[&SystemId::C4140K], P2pClass::NvLinkDirect);
        assert_eq!(classes[&SystemId::C4140B], P2pClass::PcieSwitchP2p);
        assert_eq!(classes[&SystemId::T640], P2pClass::ThroughUpi);
        assert_eq!(classes[&SystemId::R940Xa], P2pClass::ThroughUpi);
    }
}
