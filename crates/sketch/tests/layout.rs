//! The flat layout of a built [`SketchIndex`], checked sketch by sketch:
//! estimators read these arrays in place, so every offset identity they
//! rely on is pinned here.

use osn_graph::{CsrGraph, GraphBuilder, NodeData, NodeId};
use osn_sketch::{SketchIndex, SketchParams};

/// A 40-node graph with cycles and uneven degrees.
fn cyclic_graph() -> CsrGraph {
    let n = 40u32;
    let mut b = GraphBuilder::new(n as usize);
    for u in 0..n {
        b.add_edge(u, (u + 1) % n, 0.7).unwrap();
        b.add_edge(u, (u * 7 + 3) % n, 0.4 + f64::from(u % 5) * 0.1)
            .unwrap();
        if u % 3 == 0 {
            b.add_edge(u, (u + 11) % n, 0.9).unwrap();
        }
    }
    b.build().unwrap()
}

#[test]
fn every_sketch_has_the_flat_layout() {
    let g = cyclic_graph();
    let n = g.node_count();
    let benefits: Vec<f64> = (0..n).map(|v| 1.0 + (v % 4) as f64).collect();
    let data = NodeData::new(benefits, vec![1.0; n], vec![1.0; n]).unwrap();
    let params = SketchParams {
        epsilon: 0.2,
        delta: 0.2,
        seed: 5,
        ..SketchParams::default()
    };
    let idx = SketchIndex::build(&g, &data, &params);
    assert!(idx.sketch_count() > 0);
    assert!(
        (0..idx.sketch_count()).any(|i| idx.member_count(i) > 1),
        "the fixture must produce sketches with spread"
    );

    let mut slots = 0;
    for i in 0..idx.sketch_count() {
        let members = idx.members(i);
        let count = idx.member_count(i);
        assert_eq!(members.len(), count);
        assert_eq!(idx.member_range(i), slots..slots + count);
        slots += count;
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "sketch {i}: members not strictly ascending"
        );
        assert_eq!(idx.root(i), members[idx.root_local(i) as usize]);
        let edges = idx.edge_range(i).len() as u32;
        for starts in [idx.fwd_starts(i), idx.rev_starts(i)] {
            assert_eq!(starts.len(), count + 1, "sketch {i}: start count");
            assert_eq!(starts[0], 0);
            assert_eq!(*starts.last().unwrap(), edges, "sketch {i}: last start");
            assert!(starts.windows(2).all(|w| w[0] <= w[1]));
        }
        for e in idx.edge_range(i) {
            assert!((idx.edge_src_local()[e] as usize) < count);
            assert!((idx.edge_dst_local()[e] as usize) < count);
        }
    }
    assert_eq!(slots, idx.total_member_slots());
    assert_eq!(idx.members_flat().len(), slots);

    let mut posted = 0;
    for v in 0..n {
        for p in idx.postings(NodeId::from_index(v)) {
            let sketch = idx.post_sketch()[p] as usize;
            let local = idx.post_local()[p] as usize;
            assert_eq!(
                idx.members(sketch)[local] as usize,
                v,
                "posting {p} of node {v} points elsewhere"
            );
            posted += 1;
        }
    }
    assert_eq!(posted, slots, "every member slot has exactly one posting");
}
