//! Span paths of the threaded ensemble forecast. Runs in its own process
//! because it turns the process-global telemetry on.

use da_core::{ForecastModel, SqgForecast};
use sqg::SqgParams;
use stats::Ensemble;

#[test]
fn member_thread_spans_nest_under_the_callers_span() {
    let mut model = SqgForecast::perfect(SqgParams { n: 16, ..Default::default() });
    let truth = model.model_mut().spinup_nature(3, 0.05, 5).to_state_vector();
    let mut ensemble = Ensemble::from_members(&vec![truth; 6]);
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _cycle = telemetry::span!("cycle");
        model.forecast_ensemble(&mut ensemble, 1.0);
    }
    let steps: Vec<_> = telemetry::span_snapshot()
        .into_iter()
        .filter(|s| s.path.ends_with("sqg.step"))
        .collect();
    let paths: Vec<&str> = steps.iter().map(|s| s.path.as_str()).collect();
    assert_eq!(paths, ["cycle.sqg.step"], "every member's steps under the cycle");
    let per_member = model.model_mut().steps_per_hours(1.0) as u64;
    assert_eq!(steps[0].count, 6 * per_member);
}
