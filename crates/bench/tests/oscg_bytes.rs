//! Byte pins of the `.oscg` writer: `repro convert` of the smoke fixture at
//! 1, 2 and 4 shards, and a small generated Facebook instance written with
//! its workload block, must hash to recorded constants. Round-trip tests
//! only show that the reader inverts the writer; these show the file bytes
//! themselves never move, whatever the in-memory graph layout.

use osn_gen::DatasetProfile;
use osn_graph::{binary, shard};
use s3crm_bench::dataset::convert_sharded;
use s3crm_tests::TempDir;

/// `shard::checksum` of the converted smoke fixture, by shard count.
const SMOKE_CHECKSUMS: [(usize, u64); 3] = [
    (1, 0xd045_09c4_ff35_97b7),
    (2, 0x0624_883d_44f4_9929),
    (4, 0xc0eb_7205_94cd_9cfd),
];

/// `shard::checksum` of the Facebook profile at scale 0.05, seed 7, with
/// its workload block.
const FACEBOOK_CHECKSUM: u64 = 0xbb16_e29b_66f2_18a3;

#[test]
fn converted_smoke_fixture_bytes_are_pinned() {
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/smoke_snap.txt");
    let dir = TempDir::new("oscg-bytes");
    for (shards, expected) in SMOKE_CHECKSUMS {
        let out = dir.file(&format!("smoke_{shards}.oscg"));
        assert_eq!(convert_sharded(&fixture, &out, shards).unwrap(), shards);
        let bytes = std::fs::read(&out).unwrap();
        assert_eq!(
            shard::checksum(&bytes),
            expected,
            "{shards}-shard convert of the smoke fixture changed its bytes"
        );
    }
}

#[test]
fn generated_instance_bytes_are_pinned() {
    let inst = DatasetProfile::Facebook.generate(0.05, 7).unwrap();
    let bytes = binary::to_bytes(&inst.graph, Some((&inst.data, inst.budget))).unwrap();
    assert_eq!(
        shard::checksum(&bytes),
        FACEBOOK_CHECKSUM,
        "the generated instance's .oscg bytes changed"
    );
}
