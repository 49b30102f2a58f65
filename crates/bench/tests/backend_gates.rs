//! Storage-backend gates over the **same dataset** behind CSV and the
//! zone-mapped compressed binary columnar format (`PaiZone`).
//!
//! The same query workload executed end to end on both backends must
//! produce identical approximate answers while `PaiZone` reads strictly
//! fewer bytes than CSV; and `PaiZone` with its windows pushed down —
//! including the per-query ground-truth verification pass, which exercises
//! zone-map pushdown — reads strictly fewer bytes *and blocks* than the same
//! image read with no window pushed down. Every gate compares meters, not
//! wall-clock, so all of them run in debug builds too.

use pai_bench::{cached_csv, cached_zone, small_setup, NoPushdown};
use pai_common::RowLocator;
use pai_query::{run_workload, Method, MethodRun};
use pai_storage::ground_truth::window_truth;
use pai_storage::RawFile;

const READ_ATTRS: [usize; 2] = [2, 3];

fn locators_of(file: &dyn RawFile) -> Vec<RowLocator> {
    let mut locs = Vec::new();
    file.scan(&mut |_, loc, _| {
        locs.push(loc);
        Ok(())
    })
    .expect("scan for locators");
    file.counters().reset();
    locs
}

/// Identical answers, strictly fewer bytes on the binary backend.
#[test]
fn binary_backend_io_advantage() {
    let setup = small_setup(20_000);
    let csv = cached_csv(&setup.spec);
    let zone = cached_zone(&setup.spec);
    let method = Method::Approx { phi: 0.05 };

    csv.counters().reset();
    let run_csv =
        run_workload(&csv, &setup.init, &setup.engine, &setup.workload, method).expect("csv run");
    zone.counters().reset();
    let run_zone =
        run_workload(&zone, &setup.init, &setup.engine, &setup.workload, method).expect("zone run");

    for (c, z) in run_csv.records.iter().zip(&run_zone.records) {
        assert_eq!(
            c.values[0].as_f64(),
            z.values[0].as_f64(),
            "query {}: backends must answer identically",
            c.query_index
        );
        assert_eq!(
            c.stats.io.objects_read, z.stats.io.objects_read,
            "query {}",
            c.query_index
        );
    }
    let (cb, zb) = (run_csv.total_bytes_read(), run_zone.total_bytes_read());
    assert!(run_zone.total_objects_read() > 0, "workload must adapt");
    assert!(
        zb < cb,
        "binary backend must read strictly fewer bytes: zone {zb} vs csv {cb}"
    );
    println!(
        "backend I/O gate: identical answers; adaptation bytes csv={cb} zone={zb} ({:.1}x less)",
        cb as f64 / zb.max(1) as f64
    );
}

/// Identical answers and CIs on `PaiZone` with and without its windows
/// pushed down, strictly fewer bytes and blocks with them once the
/// workload's per-query ground-truth verification (the pushdown-scanning
/// consumer) is included, and zone maps actually skipping.
#[test]
fn zone_backend_io_advantage() {
    let setup = small_setup(20_000);
    let unpushed = NoPushdown(cached_zone(&setup.spec));
    let zone = cached_zone(&setup.spec);
    let method = Method::Approx { phi: 0.05 };

    let verified_run = |file: &dyn RawFile| -> (MethodRun, Vec<f64>) {
        file.counters().reset();
        let run = run_workload(file, &setup.init, &setup.engine, &setup.workload, method)
            .expect("workload run");
        // The verification pass a cautious analyst runs next to the
        // approximate session: exact truth per window, pushdown-scanned.
        let truths = setup
            .workload
            .queries
            .iter()
            .map(|q| {
                window_truth(file, &q.window, &[2]).expect("truth")[0]
                    .stats
                    .sum()
            })
            .collect();
        (run, truths)
    };
    let (run_unpushed, truth_unpushed) = verified_run(&unpushed);
    let unpushed_io = unpushed.counters().snapshot();
    let (run_zone, truth_zone) = verified_run(&zone);
    let zone_io = zone.counters().snapshot();

    for (u, z) in run_unpushed.records.iter().zip(&run_zone.records) {
        assert_eq!(
            u.values[0].as_f64(),
            z.values[0].as_f64(),
            "query {}: identical answers",
            u.query_index
        );
        assert_eq!(
            u.error_bound, z.error_bound,
            "query {}: identical CI bounds",
            u.query_index
        );
        assert_eq!(
            u.stats.io.objects_read, z.stats.io.objects_read,
            "query {}",
            u.query_index
        );
    }
    assert_eq!(
        truth_unpushed, truth_zone,
        "pushdown must not change the truth"
    );
    assert!(run_zone.total_objects_read() > 0, "workload must adapt");
    assert!(
        zone_io.bytes_read < unpushed_io.bytes_read,
        "zone must read strictly fewer bytes: {} vs {}",
        zone_io.bytes_read,
        unpushed_io.bytes_read
    );
    assert!(
        zone_io.blocks_read < unpushed_io.blocks_read,
        "zone must read strictly fewer blocks: {} vs {}",
        zone_io.blocks_read,
        unpushed_io.blocks_read
    );
    assert!(
        zone_io.blocks_skipped > 0 && unpushed_io.blocks_skipped == 0,
        "only pushed-down windows can prove blocks dead"
    );
    println!(
        "zone I/O gate: identical answers/CIs; bytes unpushed={} zone={} ({:.1}x less), \
         blocks unpushed={} zone={} (+{} skipped)",
        unpushed_io.bytes_read,
        zone_io.bytes_read,
        unpushed_io.bytes_read as f64 / zone_io.bytes_read.max(1) as f64,
        unpushed_io.blocks_read,
        zone_io.blocks_read,
        zone_io.blocks_skipped,
    );
}

/// One positional sweep (every seventh row) per backend: the identical
/// logical read costs strictly fewer bytes on `PaiZone` than on CSV.
#[test]
fn binary_positional_sweep_is_cheaper_in_bytes() {
    let setup = small_setup(50_000);
    let csv = cached_csv(&setup.spec);
    let zone = cached_zone(&setup.spec);
    let csv_locs = locators_of(&csv);
    let zone_locs = locators_of(&zone);

    let sweep: Vec<usize> = (0..csv_locs.len()).step_by(7).collect();
    let cl: Vec<RowLocator> = sweep.iter().map(|&i| csv_locs[i]).collect();
    let zl: Vec<RowLocator> = sweep.iter().map(|&i| zone_locs[i]).collect();
    csv.counters().reset();
    csv.read_rows(&cl, &READ_ATTRS).unwrap();
    zone.counters().reset();
    zone.read_rows(&zl, &READ_ATTRS).unwrap();
    assert!(
        zone.counters().bytes_read() < csv.counters().bytes_read(),
        "binary positional sweep must be cheaper in bytes"
    );
}
