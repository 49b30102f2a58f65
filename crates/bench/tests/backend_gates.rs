//! Storage-backend gates over the **same dataset** behind CSV, the binary
//! columnar (`PaiBin`) format, and the zone-mapped compressed (`PaiZone`)
//! format.
//!
//! The same query workload executed end to end on every backend must
//! produce identical approximate answers while `PaiBin` reads strictly fewer
//! bytes than CSV, and `PaiZone` — including the per-query ground-truth
//! verification pass, which exercises zone-map pushdown — reads strictly
//! fewer bytes *and blocks* than `PaiBin`. Every gate compares meters, not
//! wall-clock, so all of them run in debug builds too.

use pai_bench::{cached_bin, cached_csv, cached_zone, small_setup};
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
    let bin = cached_bin(&setup.spec);
    let method = Method::Approx { phi: 0.05 };

    csv.counters().reset();
    let run_csv =
        run_workload(&csv, &setup.init, &setup.engine, &setup.workload, method).expect("csv run");
    bin.counters().reset();
    let run_bin =
        run_workload(&bin, &setup.init, &setup.engine, &setup.workload, method).expect("bin run");

    for (c, b) in run_csv.records.iter().zip(&run_bin.records) {
        assert_eq!(
            c.values[0].as_f64(),
            b.values[0].as_f64(),
            "query {}: backends must answer identically",
            c.query_index
        );
        assert_eq!(
            c.stats.io.objects_read, b.stats.io.objects_read,
            "query {}",
            c.query_index
        );
    }
    let (cb, bb) = (run_csv.total_bytes_read(), run_bin.total_bytes_read());
    assert!(run_bin.total_objects_read() > 0, "workload must adapt");
    assert!(
        bb < cb,
        "binary backend must read strictly fewer bytes: bin {bb} vs csv {cb}"
    );
    println!(
        "backend I/O gate: identical answers; adaptation bytes csv={cb} bin={bb} ({:.1}x less)",
        cb as f64 / bb.max(1) as f64
    );
}

/// Identical answers and CIs on `PaiZone`, strictly fewer bytes and blocks
/// than `PaiBin` once the workload's per-query ground-truth verification
/// (the pushdown-scanning consumer) is included, and zone maps actually
/// skipping.
#[test]
fn zone_backend_io_advantage() {
    let setup = small_setup(20_000);
    let bin = cached_bin(&setup.spec);
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
    let (run_bin, truth_bin) = verified_run(&bin);
    let bin_io = bin.counters().snapshot();
    let (run_zone, truth_zone) = verified_run(&zone);
    let zone_io = zone.counters().snapshot();

    for (b, z) in run_bin.records.iter().zip(&run_zone.records) {
        assert_eq!(
            b.values[0].as_f64(),
            z.values[0].as_f64(),
            "query {}: identical answers",
            b.query_index
        );
        assert_eq!(
            b.error_bound, z.error_bound,
            "query {}: identical CI bounds",
            b.query_index
        );
        assert_eq!(
            b.stats.io.objects_read, z.stats.io.objects_read,
            "query {}",
            b.query_index
        );
    }
    assert_eq!(truth_bin, truth_zone, "pushdown must not change the truth");
    assert!(run_zone.total_objects_read() > 0, "workload must adapt");
    assert!(
        zone_io.bytes_read < bin_io.bytes_read,
        "zone must read strictly fewer bytes: {} vs {}",
        zone_io.bytes_read,
        bin_io.bytes_read
    );
    assert!(
        zone_io.blocks_read < bin_io.blocks_read,
        "zone must read strictly fewer blocks: {} vs {}",
        zone_io.blocks_read,
        bin_io.blocks_read
    );
    assert!(
        zone_io.blocks_skipped > 0 && bin_io.blocks_skipped == 0,
        "only the zone-mapped backend can prove blocks dead"
    );
    println!(
        "zone I/O gate: identical answers/CIs; bytes bin={} zone={} ({:.1}x less), \
         blocks bin={} zone={} (+{} skipped)",
        bin_io.bytes_read,
        zone_io.bytes_read,
        bin_io.bytes_read as f64 / zone_io.bytes_read.max(1) as f64,
        bin_io.blocks_read,
        zone_io.blocks_read,
        zone_io.blocks_skipped,
    );
}

/// One positional sweep (every seventh row) per backend: the identical
/// logical read costs strictly fewer bytes on `PaiBin` than on CSV.
#[test]
fn binary_positional_sweep_is_cheaper_in_bytes() {
    let setup = small_setup(50_000);
    let csv = cached_csv(&setup.spec);
    let bin = cached_bin(&setup.spec);
    let csv_locs = locators_of(&csv);
    let bin_locs = locators_of(&bin);

    let sweep: Vec<usize> = (0..csv_locs.len()).step_by(7).collect();
    let cl: Vec<RowLocator> = sweep.iter().map(|&i| csv_locs[i]).collect();
    let bl: Vec<RowLocator> = sweep.iter().map(|&i| bin_locs[i]).collect();
    csv.counters().reset();
    csv.read_rows(&cl, &READ_ATTRS).unwrap();
    bin.counters().reset();
    bin.read_rows(&bl, &READ_ATTRS).unwrap();
    assert!(
        bin.counters().bytes_read() < csv.counters().bytes_read(),
        "binary positional sweep must be cheaper in bytes"
    );
}
