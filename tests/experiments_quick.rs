//! Smoke-runs every experiment **through the umbrella crate's registry**
//! (the path the `xp` binary uses), trimmed to one trial: the plumbing
//! from `rapid_plurality::experiments` to a saved report must produce
//! non-empty, well-formed reports. Each experiment's full quick preset
//! runs once, in its module's unit test, which also pins the report's
//! content and checks its shape.

use rapid_plurality::experiments::prelude::*;
use rapid_plurality::experiments::Report;

fn run_smoke(id: &str) -> Report {
    let exp = find(id).expect("id is registered");
    assert_eq!(exp.id(), id);
    let mut map = ParamMap::quick(&exp.params());
    map.set("trials", "1")
        .expect("every experiment takes trials");
    exp.run(&map, Parallelism::default())
}

fn check(report: &Report) {
    assert!(!report.id.is_empty());
    assert!(!report.tables.is_empty(), "{}: no tables", report.id);
    for table in &report.tables {
        assert!(!table.is_empty(), "{}: empty table", report.id);
        for row in &table.rows {
            assert_eq!(
                row.len(),
                table.columns.len(),
                "{}: ragged table",
                report.id
            );
        }
    }
    // Every report must render and serialise — as text, JSON and CSV.
    let text = report.to_string();
    assert!(text.contains(&report.id));
    let json = report.to_json();
    let back = Report::from_json(&json).expect("valid JSON");
    assert_eq!(&back, report);
    let csv = report.to_csv();
    assert!(csv.contains(&report.id));
}

macro_rules! quick_test {
    ($($name:ident => $id:literal),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                check(&run_smoke($id));
            }
        )+
    };
}

quick_test!(
    e01_quick_report_is_well_formed => "e01",
    e02_quick_report_is_well_formed => "e02",
    e03_quick_report_is_well_formed => "e03",
    e04_quick_report_is_well_formed => "e04",
    e05_quick_report_is_well_formed => "e05",
    e06_quick_report_is_well_formed => "e06",
    e07_quick_report_is_well_formed => "e07",
    e08_quick_report_is_well_formed => "e08",
    e09_quick_report_is_well_formed => "e09",
    e10_quick_report_is_well_formed => "e10",
    e11_quick_report_is_well_formed => "e11",
    e12_quick_report_is_well_formed => "e12",
    e13_quick_report_is_well_formed => "e13",
    e14_quick_report_is_well_formed => "e14",
    e15_quick_report_is_well_formed => "e15",
    e16_quick_report_is_well_formed => "e16",
    e17_quick_report_is_well_formed => "e17",
    e18_quick_report_is_well_formed => "e18",
    e19_quick_report_is_well_formed => "e19",
    e20_quick_report_is_well_formed => "e20",
    e22_quick_report_is_well_formed => "e22",
    e23_quick_report_is_well_formed => "e23",
    e24_quick_report_is_well_formed => "e24",
    e25_quick_report_is_well_formed => "e25",
    e26_quick_report_is_well_formed => "e26",
);

/// E21's quick preset deliberately reaches n = 10^8 (the macro engine
/// makes it cheap, but not free); the plumbing smoke test trims it to
/// n = 10^6 as well.
#[test]
fn e21_quick_report_is_well_formed() {
    let exp = find("e21").expect("id is registered");
    let mut map = ParamMap::quick(&exp.params());
    map.set("ns", "1000000").expect("known key");
    map.set("trials", "1").expect("known key");
    check(&exp.run(&map, Parallelism::default()));
}

#[test]
fn registry_covers_exactly_the_26_experiments() {
    assert_eq!(registry().len(), 26);
    for (i, exp) in registry().iter().enumerate() {
        assert_eq!(exp.id(), format!("e{:02}", i + 1));
    }
}

#[test]
fn reports_save_to_disk() {
    let report = run_smoke("e09");
    let dir = std::env::temp_dir().join("rapid-experiments-it");
    let path = report.save_json(&dir).expect("writable temp dir");
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).ok();
}
