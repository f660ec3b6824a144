//! A screen costs no solve of its own: building a grid on the CG engine
//! and screening it records one operating-point solve, the CG under the
//! grid's span, and no direct factor outside AMG's coarse level.
//!
//! Span recording is process-wide, so this file holds one test and runs
//! as its own binary.

use emgrid_em::Technology;
use emgrid_pg::PowerGrid;
use emgrid_runtime::obs;
use emgrid_screen::{screen_grid, ScreenOptions};
use emgrid_sparse::{Method, Ordering};
use emgrid_spice::GridSpec;

/// `(path, calls)` of every recorded span, read back from the indented
/// tree [`obs::span_report`] prints (two spaces per level).
fn recorded_spans() -> Vec<(String, u64)> {
    let mut stack: Vec<String> = Vec::new();
    obs::span_report()
        .lines()
        .skip(1)
        .map(|line| {
            let depth = (line.len() - line.trim_start().len()) / 2;
            let mut fields = line.split_whitespace();
            let name = fields.next().expect("span name");
            let calls = fields
                .next()
                .and_then(|c| c.strip_suffix('x'))
                .and_then(|c| c.parse().ok())
                .expect("call count");
            stack.truncate(depth);
            stack.push(name.to_owned());
            (stack.join("/"), calls)
        })
        .collect()
}

#[test]
fn a_cg_grid_and_its_screen_record_one_operating_point_solve() {
    obs::reset_spans();
    obs::set_trace(true);
    let netlist = GridSpec::pg1().generate();
    let grid = PowerGrid::from_netlist_with(netlist, Method::Cg, Ordering::Amd).unwrap();
    screen_grid(&grid, &Technology::default(), &ScreenOptions::default()).unwrap();
    obs::set_trace(false);
    let spans = recorded_spans();
    let calls = |path: &str| spans.iter().find(|(p, _)| p == path).map(|&(_, c)| c);
    assert_eq!(calls("grid"), Some(1), "{spans:?}");
    assert_eq!(calls("grid/mna"), Some(1), "{spans:?}");
    assert_eq!(calls("screen"), Some(1), "{spans:?}");
    let solves: Vec<&(String, u64)> = spans.iter().filter(|(p, _)| p.ends_with("cg")).collect();
    assert_eq!(solves, [&("grid/cg".to_owned(), 1)], "{spans:?}");
    for (path, _) in &spans {
        if path.ends_with("numeric") {
            assert!(path.starts_with("grid/cg/precondition/"), "{path}");
        }
        if let Some(step) = path.strip_prefix("screen/") {
            assert!(["screen-trees", "screen-rank"].contains(&step), "{path}");
        }
    }
}
