//! The test helper every experiment module shares: run the quick preset
//! once through [`Experiment::run`], check that the report is well
//! formed, and pin what it contains.

use crate::experiment::Experiment;
use crate::params::Preset;
use crate::report::Report;
use crate::runner::Parallelism;

/// FNV-1a 64 of each deterministic quick report's JSON. e24 is absent:
/// its UDP rows differ from run to run. Wall-clock `wall ms` columns
/// (e21, e25) are blanked before hashing. A change to what a report
/// contains must re-pin its entry here, on purpose.
const GOLDEN: [(&str, u64); 25] = [
    ("e01", 0x230f_9ebb_4d0b_8593),
    ("e02", 0x7d25_af89_19fb_9448),
    ("e03", 0x042d_ff94_82c2_7996),
    ("e04", 0xc299_c95e_dcbf_a30a),
    ("e05", 0x2038_748e_ad3b_1fae),
    ("e06", 0x2cab_e369_286b_8f4d),
    ("e07", 0x7bf5_7a43_b68a_c9e7),
    ("e08", 0x708a_756b_139e_6bc5),
    ("e09", 0xdb30_dff7_3da7_b307),
    ("e10", 0x1fe4_9eff_1087_f818),
    ("e11", 0x852f_6cab_4e30_f71f),
    ("e12", 0xb392_0b9a_661a_c631),
    ("e13", 0x7787_408c_d7a4_b238),
    ("e14", 0xe52c_0c3d_9395_166b),
    ("e15", 0x1d29_7f38_4bb1_50b8),
    ("e16", 0x3824_7b13_9985_91ce),
    ("e17", 0x5d50_6329_318d_9fba),
    ("e18", 0xdab1_faa0_953c_13de),
    ("e19", 0x30d8_6699_1d7a_40cd),
    ("e20", 0x25c6_c2af_d2c4_aec8),
    ("e21", 0x03a1_8a68_3fd6_4420),
    ("e22", 0x8e02_7748_ca18_8c43),
    ("e23", 0x592f_b7fb_186d_6d54),
    ("e25", 0x7e37_2017_e93d_88ee),
    ("e26", 0x45b1_297a_748f_9229),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `exp`'s quick preset, asserts that the report is well formed
/// (no empty or ragged tables; it renders as text, JSON and CSV; the
/// JSON round-trips) and that it matches its golden hash, and returns it
/// for the module's shape assertions.
pub(crate) fn quick_report(exp: &dyn Experiment) -> Report {
    let report = exp.run(&exp.preset(Preset::Quick), Parallelism::default());
    let id = exp.id();
    assert!(!report.tables.is_empty(), "{id}: no tables");
    for table in &report.tables {
        assert!(!table.is_empty(), "{id}: empty table");
        for row in &table.rows {
            assert_eq!(row.len(), table.columns.len(), "{id}: ragged table");
        }
    }
    assert!(report.to_string().contains(&report.id));
    assert!(report.to_csv().contains(&report.id));
    assert_eq!(Report::from_json(&report.to_json()), Ok(report.clone()));

    if let Some(&(_, golden)) = GOLDEN.iter().find(|(g, _)| *g == id) {
        let mut pinned = report.clone();
        for table in &mut pinned.tables {
            if let Some(wall) = table.columns.iter().position(|c| c == "wall ms") {
                for row in &mut table.rows {
                    row[wall].clear();
                }
            }
        }
        assert_eq!(
            fnv1a(pinned.to_json().as_bytes()),
            golden,
            "{id}: the quick report changed"
        );
    }
    report
}
