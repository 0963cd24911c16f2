//! Beyond the paper: the extension features in one tour.
//!
//! 1. **Standby policies** — what IGZO's >1000 s retention is worth when
//!    the system must keep its state between sessions.
//! 2. **Design-space optimization** — CORDOBA-style tCDP ranking with
//!    latency constraints, and the (execution time, tCDP) Pareto front.
//! 3. **Water footprint** — the conclusion's "extend to water consumption".
//! 4. **Layout export** — a GDS of the M3D bit-cell array plus the GDS3D
//!    process file to render it in 3D, like the paper's artifact.
//!
//! ```text
//! cargo run --release --example extensions
//! ```

use ppatc::optimize::{Constraints, DesignSpace, Optimizer};
use ppatc::standby::{standby_power, StandbyPolicy};
use ppatc::{Lifetime, SystemDesign, Technology};
use ppatc_fab::water::WaterModel;
use ppatc_fab::ProcessFlow;
use ppatc_pdk::layout;
use ppatc_units::{Frequency, Time};
use ppatc_workloads::Workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = Workload::matmul_int().execute()?;
    let f = Frequency::from_megahertz(500.0);

    // ---- 1. standby ----
    println!("== standby power for state-retentive sleep (22 h gap) ==");
    for tech in Technology::ALL {
        let design = SystemDesign::new(tech, f)?;
        let p = standby_power(
            &design,
            StandbyPolicy::StateRetentive,
            Time::from_hours(22.0),
        );
        println!(
            "{tech:<18} {:>8.1} µW  (retention {:.1e} s)",
            p.as_microwatts(),
            design.data_mem().retention().as_seconds()
        );
    }

    // ---- 2. optimizer ----
    println!("\n== tCDP-optimal designs at 24 months, latency <= 45 ms ==");
    let optimizer = Optimizer::new(DesignSpace::paper_default(), Lifetime::months(24.0))
        .with_constraints(Constraints::new().with_max_execution_time(Time::from_seconds(0.045)));
    let ranked = optimizer.run(&run);
    for c in ranked.iter().filter(|c| c.feasible).take(5) {
        println!(
            "{:<18} {:>5} @ {:>4.0} MHz   tCDP {:.4} gCO2e/Hz   {:>5.1} ms   {:.2} mW",
            c.technology.to_string(),
            c.flavor.to_string(),
            c.f_clk.as_megahertz(),
            c.tcdp.as_grams_per_hertz(),
            c.execution_time.as_seconds() * 1e3,
            c.power.as_milliwatts()
        );
    }
    println!(
        "Pareto front (time vs tCDP): {} designs",
        Optimizer::pareto_front(&ranked).len()
    );

    // ---- 3. water ----
    println!("\n== fabrication water footprint ==");
    let water = WaterModel::typical_7nm();
    for tech in Technology::ALL {
        let flow = ProcessFlow::for_technology(tech);
        println!(
            "{tech:<18} UPW {:>6.2} m³/wafer, raw {:>6.2} m³/wafer",
            water.upw_per_wafer(&flow) / 1000.0,
            water.raw_water_per_wafer(&flow) / 1000.0
        );
    }

    // ---- 4. layout export ----
    let out_dir = std::path::Path::new("target/layout");
    std::fs::create_dir_all(out_dir)?;
    for tech in Technology::ALL {
        let lib = layout::cell_array(tech, 8, 8);
        let name = match tech {
            Technology::AllSi => "edram_allsi_8x8",
            Technology::M3dIgzoCnfetSi => "edram_m3d_8x8",
        };
        let gds_path = out_dir.join(format!("{name}.gds"));
        std::fs::write(&gds_path, lib.to_bytes())?;
        let proc_path = out_dir.join(format!("{name}_gds3d.txt"));
        std::fs::write(&proc_path, layout::gds3d_process_file(tech))?;
        println!(
            "\nwrote {} ({} polygons) and {}",
            gds_path.display(),
            lib.polygon_count(),
            proc_path.display()
        );
    }
    println!("render in 3D with GDS3D using the process files above");
    Ok(())
}
