//! Calibrated device presets.
//!
//! The constants below are *relative* calibrations chosen so the simulated
//! cluster reproduces the shape of the paper's results (GPU daemons an order
//! of magnitude faster per item than CPU daemons, GPUs expensive to
//! initialise, PCIe transfers visible, device memory bounded).  They do not
//! claim to be absolute V100/Xeon measurements.
//!
//! Presets return [`DeviceSpec`] descriptors with the default
//! [`BackendKind::Sim`](crate::backend::BackendKind::Sim) backend; select a
//! different backend per spec with [`DeviceSpec::with_backend`] or for a
//! whole deployment with the session builder's `backend(...)`.

use crate::backend::DeviceSpec;
use crate::cost::CostModel;
use crate::device::DeviceKind;
use crate::time::SimDuration;

/// Default device-memory capacity of a GPU preset, in data entities
/// (edge triplets).  Roughly "16 GB worth of triplets" at the reduced scale
/// used by the benchmark harness; single-GPU whole-graph engines (the
/// Gunrock-like baseline) overflow this on the Twitter / UK-2007 analogues.
pub const GPU_MEMORY_ITEMS: usize = 250_000;

/// Cost model of an NVIDIA-V100-class GPU treated as a 1024-thread
/// multithreaded processor (the paper's abstraction, §V-A).
pub fn gpu_v100_cost() -> CostModel {
    CostModel {
        init: SimDuration::from_millis(100.0),
        call: SimDuration::from_millis(0.2),
        copy_per_item: SimDuration::from_micros(0.005),
        compute_per_item: SimDuration::from_millis(0.002),
        lanes: 1024,
        parallel_efficiency: 0.30,
        memory_capacity_items: Some(GPU_MEMORY_ITEMS),
    }
}

/// Cost model of a 20-core Xeon-class CPU used as an accelerator
/// (the paper treats the host CPU as a 20-thread processing model, §V-A).
pub fn cpu_xeon_20c_cost() -> CostModel {
    CostModel {
        init: SimDuration::from_millis(2.0),
        call: SimDuration::from_millis(0.02),
        copy_per_item: SimDuration::from_micros(0.001),
        compute_per_item: SimDuration::from_millis(0.0024),
        lanes: 20,
        parallel_efficiency: 0.30,
        memory_capacity_items: None,
    }
}

/// Cost model of an FPGA-style streaming accelerator (listed in the paper's
/// Figure 1 as a pluggable daemon type; not used in the evaluation but
/// supported for completeness).
pub fn fpga_cost() -> CostModel {
    CostModel {
        init: SimDuration::from_millis(250.0),
        call: SimDuration::from_millis(0.5),
        copy_per_item: SimDuration::from_micros(0.03),
        compute_per_item: SimDuration::from_millis(0.0015),
        lanes: 256,
        parallel_efficiency: 0.5,
        memory_capacity_items: Some(GPU_MEMORY_ITEMS / 2),
    }
}

/// A V100-class GPU device spec.
pub fn gpu_v100(name: impl Into<String>) -> DeviceSpec {
    DeviceSpec::new(name, DeviceKind::Gpu, gpu_v100_cost())
}

/// A 20-core Xeon-class CPU device spec.
pub fn cpu_xeon_20c(name: impl Into<String>) -> DeviceSpec {
    DeviceSpec::new(name, DeviceKind::Cpu, cpu_xeon_20c_cost())
}

/// An FPGA-style device spec.
pub fn fpga(name: impl Into<String>) -> DeviceSpec {
    DeviceSpec::new(name, DeviceKind::Fpga, fpga_cost())
}

/// Builds `gpus` GPU specs and `cpus` CPU specs with sequential names,
/// mirroring one physical node of the paper's testbed (e.g. 2 GPUs + 1 CPU).
pub fn node_devices(node: usize, gpus: usize, cpus: usize) -> Vec<DeviceSpec> {
    let mut devices = Vec::with_capacity(gpus + cpus);
    for g in 0..gpus {
        devices.push(gpu_v100(format!("node{node}-gpu{g}")));
    }
    for c in 0..cpus {
        devices.push(cpu_xeon_20c(format!("node{node}-cpu{c}")));
    }
    devices
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_is_roughly_an_order_of_magnitude_faster_per_item_than_cpu() {
        let ratio = gpu_v100_cost().capacity_factor() / cpu_xeon_20c_cost().capacity_factor();
        assert!(
            (5.0..=50.0).contains(&ratio),
            "GPU/CPU capacity ratio {ratio} outside plausible range"
        );
    }

    #[test]
    fn gpu_init_dominates_cpu_init() {
        assert!(gpu_v100_cost().init.as_millis() > 20.0 * cpu_xeon_20c_cost().init.as_millis());
    }

    #[test]
    fn gpu_preset_is_faster_per_item_but_slower_to_init_than_cpu() {
        let gpu = gpu_v100("g0");
        let cpu = cpu_xeon_20c("c0");
        assert!(gpu.capacity_factor() > cpu.capacity_factor());
        assert!(gpu.cost_model().init > cpu.cost_model().init);
        assert!(gpu.cost_model().copy_per_item > cpu.cost_model().copy_per_item);
    }

    #[test]
    fn node_devices_builds_requested_mix() {
        let devices = node_devices(3, 2, 1);
        assert_eq!(devices.len(), 3);
        assert_eq!(
            devices.iter().filter(|d| d.kind == DeviceKind::Gpu).count(),
            2
        );
        assert!(devices[0].name.contains("node3"));
    }

    #[test]
    fn small_batches_favour_cpu_large_batches_favour_gpu() {
        // The call overhead / transfer cost of the GPU means tiny batches are
        // cheaper on the CPU; large batches amortise the launch and win on the
        // GPU.  This crossover is exactly why block-size selection (Lemma 1)
        // matters.
        let invocation = |cost: CostModel, n| cost.call + cost.compute_time(n) + cost.copy_time(n);
        let (gpu, cpu) = (gpu_v100_cost(), cpu_xeon_20c_cost());
        assert!(invocation(gpu, 10) > invocation(cpu, 10));
        assert!(invocation(gpu, 100_000) < invocation(cpu, 100_000));
    }
}
