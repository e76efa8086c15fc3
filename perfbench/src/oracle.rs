//! The benchmark's own answer checker: a textbook Dijkstra and a path
//! validator. It shares no search code with `roadnet` or `netcodec`; it
//! only reads the network's adjacency lists.

use spair_roadnet::{GraphBuilder, NodeId, Point, RoadNetwork};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distances from one source to every node (`u64::MAX` = unreachable).
pub fn distances_from(g: &RoadNetwork, source: NodeId) -> Vec<u64> {
    let mut dist = vec![u64::MAX; g.num_nodes()];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > dist[v as usize] {
            continue;
        }
        for (u, w) in g.out_edges(v) {
            let nd = d + u64::from(w);
            if nd < dist[u as usize] {
                dist[u as usize] = nd;
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist
}

/// Lightest edge `from -> to`, if any (networks may hold parallel edges).
fn edge_weight(g: &RoadNetwork, from: NodeId, to: NodeId) -> Option<u64> {
    g.out_edges(from)
        .filter(|&(u, _)| u == to)
        .map(|(_, w)| u64::from(w))
        .min()
}

/// Why an answer is wrong, or `None` if it is right: the distance equals
/// the oracle's, and the path starts at `s`, ends at `t`, uses only
/// edges of `g`, and its weights sum to the distance.
pub fn check_answer(
    g: &RoadNetwork,
    s: NodeId,
    t: NodeId,
    oracle: u64,
    distance: u64,
    path: &[NodeId],
) -> Option<String> {
    if distance != oracle {
        return Some(format!("distance {distance} != oracle {oracle}"));
    }
    if path.first() != Some(&s) || path.last() != Some(&t) {
        return Some(format!("path does not run {s} -> {t}"));
    }
    let mut sum = 0u64;
    for hop in path.windows(2) {
        match edge_weight(g, hop[0], hop[1]) {
            Some(w) => sum += w,
            None => return Some(format!("path hop {}->{} is no edge", hop[0], hop[1])),
        }
    }
    (sum != distance).then(|| format!("path weights sum to {sum}, not {distance}"))
}

/// A five-node graph whose distances from node 0 are worked out by
/// hand: 0->1 (4), 0->2 (1), 2->1 (2), 1->3 (1), 2->3 (7), 3->4 (3);
/// node 4 has no way back. So d(1) = 3 via 2, d(3) = 4 via 2,1 and
/// d(4) = 7 via 2,1,3.
fn hand_graph() -> RoadNetwork {
    let mut b = GraphBuilder::new();
    for i in 0..5 {
        b.add_node(Point::new(f64::from(i), 0.0));
    }
    for (u, v, w) in [
        (0, 1, 4),
        (0, 2, 1),
        (2, 1, 2),
        (1, 3, 1),
        (2, 3, 7),
        (3, 4, 3),
    ] {
        b.add_edge(u, v, w);
    }
    b.finish()
}

/// Checks the oracle and the path checker against the hand-computed
/// graph. Every run calls it before trusting either.
pub fn self_test() -> Result<(), String> {
    let g = hand_graph();
    let d0 = distances_from(&g, 0);
    if d0 != [0, 3, 1, 4, 7] || distances_from(&g, 4)[0] != u64::MAX {
        return Err(format!(
            "oracle distances from 0 are {d0:?}, not [0, 3, 1, 4, 7]"
        ));
    }
    if let Some(why) = check_answer(&g, 0, 4, 7, 7, &[0, 2, 1, 3, 4]) {
        return Err(format!("checker rejects the shortest path: {why}"));
    }
    let wrong: [(u64, &[NodeId]); 4] = [
        (7, &[0, 3, 4]),     // right length, but 0->3 is no edge
        (11, &[0, 2, 3, 4]), // a real path that is too long
        (7, &[2, 1, 3, 4]),  // wrong start
        (7, &[0, 2, 1, 3]),  // wrong end
    ];
    for (dist, path) in wrong {
        if check_answer(&g, 0, 4, 7, dist, path).is_none() {
            return Err(format!("checker accepts the wrong path {path:?}"));
        }
    }
    // A claimed distance that disagrees with its own hop weights.
    if check_answer(&g, 0, 3, 4, 4, &[0, 1, 3]).is_none() {
        return Err("checker accepts a path whose weights do not sum up".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle_passes_its_hand_computed_self_test() {
        super::self_test().unwrap();
    }
}
