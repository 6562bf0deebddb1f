//! Data assimilation with a sparse observing network.
//!
//! Run with:
//! ```sh
//! cargo run --release --example sparse_network
//! ```
//!
//! Operational networks never observe the whole state. This example thins
//! the OSSE network to every `stride`-th grid point (`MaskKind::Strided`):
//! the nature run then observes only the comb, and both filters assimilate
//! the shrunk observation vector through the same observation model. LETKF
//! spreads the sparse information spatially through Gaspari–Cohn
//! localization; the inpainting EnSF harmonically fills the innovation
//! between the comb's teeth and assimilates the completed field through its
//! global score update. Sweeping the coverage shows how each filter's skill
//! decays as observations are withdrawn.

use sqg_da::da_core::osse::{nature_run, run_experiment, MaskKind, OsseConfig};
use sqg_da::da_core::{EnsfScheme, LetkfScheme, MaskFill, SqgForecast};
use sqg_da::ensf::EnsfConfig;
use sqg_da::letkf::LetkfConfig;
use sqg_da::sqg::SqgParams;

fn main() {
    let base = OsseConfig {
        params: SqgParams { n: 16, ekman: 0.05, ..Default::default() },
        cycles: 15,
        obs_sigma: 0.005,
        ens_size: 12,
        ic_sigma: 0.01,
        spinup_steps: 300,
        seed: 404,
        ..Default::default()
    };
    // The truth does not depend on the network, so neither does its
    // climatology.
    let climatology = nature_run(&base).climatology_sd;
    println!("grid 16x16x2, obs sigma {}, climatology {climatology:.3}\n", base.obs_sigma);
    println!(
        "{:>8} {:>10} {:>14} {:>14}",
        "stride", "coverage", "LETKF RMSE", "EnSF RMSE"
    );

    for stride in [1usize, 2, 4, 8] {
        let cfg = OsseConfig { obs_mask: MaskKind::Strided { stride, phase: 0 }, ..base.clone() };
        let nature = nature_run(&cfg);

        let mut letkf_model = SqgForecast::perfect(cfg.params.clone());
        let mut letkf_scheme = LetkfScheme::with_obs(
            LetkfConfig { cutoff: 4.0e6, rtps_alpha: 0.3 },
            &cfg.params,
            cfg.obs_model(),
        );
        let letkf =
            run_experiment("letkf", &cfg, &nature, &mut letkf_model, &mut letkf_scheme)
                .expect("sparse-network OSSE is well-formed");

        let mut ensf_model = SqgForecast::perfect(cfg.params.clone());
        let mut ensf_scheme = EnsfScheme::with_obs(
            EnsfConfig { n_steps: 25, seed: 7, spread_relaxation: 0.9, ..Default::default() },
            cfg.params.state_dim(),
            cfg.obs_model(),
            MaskFill::Inpaint,
        );
        let ensf = run_experiment("ensf", &cfg, &nature, &mut ensf_model, &mut ensf_scheme)
            .expect("sparse-network OSSE is well-formed");

        println!(
            "{:>8} {:>9.0}% {:>14.5} {:>14.5}",
            stride,
            100.0 / stride as f64,
            letkf.steady_rmse(),
            ensf.steady_rmse()
        );
    }

    println!("\nreading: both filters beat the climatological error at every");
    println!("coverage. LETKF's localization leads from full coverage down to");
    println!("25 %; at 12 % its error jumps by an order of magnitude, while the");
    println!("inpainting EnSF, which fills the innovation across every gap of the");
    println!("comb, barely moves from 25 % to 12 % and ends well ahead.");
}
