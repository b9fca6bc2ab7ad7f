//! The k-ary fat-tree of Al-Fares et al. (SIGCOMM 2008), used in Figure 8a/8b/8e.

use std::collections::HashMap;

use pdq_netsim::{LinkParams, Network};

use crate::Topology;

/// Build a k-ary fat-tree.
///
/// * `k` pods (must be even), each with `k/2` edge switches and `k/2` aggregation
///   switches;
/// * `(k/2)^2` core switches;
/// * `k/2` hosts per edge switch, for `k^3/4` hosts in total.
///
/// Every link uses the same [`LinkParams`] (the paper's evaluation uses uniform
/// 1 Gbps links).
pub fn fat_tree(k: usize, link: LinkParams) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree degree k must be even and >= 2"
    );
    let half = k / 2;
    let mut net = Network::new();
    let mut hosts = Vec::new();
    let mut rack_of = HashMap::new();

    // Core switches.
    let mut core = Vec::new();
    for i in 0..half * half {
        core.push(net.add_switch(format!("core{i}")));
    }

    let mut rack_idx = 0usize;
    for pod in 0..k {
        // Aggregation and edge layers of this pod.
        let mut aggs = Vec::new();
        for a in 0..half {
            aggs.push(net.add_switch(format!("agg{pod}_{a}")));
        }
        let mut edges = Vec::new();
        for e in 0..half {
            edges.push(net.add_switch(format!("edge{pod}_{e}")));
        }
        // Edge <-> aggregation: full bipartite within the pod.
        for &e in &edges {
            for &a in &aggs {
                net.add_duplex_link(e, a, link);
            }
        }
        // Aggregation <-> core: agg j connects to core group j.
        for (j, &a) in aggs.iter().enumerate() {
            for c in 0..half {
                net.add_duplex_link(a, core[j * half + c], link);
            }
        }
        // Hosts.
        for &e in &edges {
            for h in 0..half {
                let host = net.add_host(format!("h{pod}_{rack_idx}_{h}"));
                net.add_duplex_link(host, e, link);
                hosts.push(host);
                rack_of.insert(host, rack_idx);
            }
            rack_idx += 1;
        }
    }

    Topology {
        net,
        hosts,
        rack_of,
        name: format!("fat-tree(k={k})"),
    }
}

/// The smallest fat-tree whose host count is at least `n_hosts`.
/// Returns the topology; its actual host count is `k^3/4` for the chosen even `k`.
pub fn fat_tree_with_at_least(n_hosts: usize, link: LinkParams) -> Topology {
    let k = fat_tree_degree_for(n_hosts).expect("no fat-tree of this size fits in usize");
    fat_tree(k, link)
}

/// The degree `k` of the smallest fat-tree with at least `n_hosts` hosts (it has
/// `k^3/4`), or `None` if that host count overflows `usize`.
pub fn fat_tree_degree_for(n_hosts: usize) -> Option<usize> {
    let mut k = 2usize;
    while k.checked_pow(3)? / 4 < n_hosts {
        k += 2;
    }
    Some(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn k4_fat_tree_counts() {
        let t = fat_tree(4, LinkParams::default());
        assert_eq!(t.host_count(), 16); // k^3/4
                                        // 4 core + 4 pods * (2 agg + 2 edge) = 20 switches.
        assert_eq!(t.net.switches().len(), 20);
        // Each host-edge link + pod wiring + core wiring:
        // hosts: 16, edge-agg: 4 pods * 4 = 16, agg-core: 4 pods * 4 = 16 duplex links.
        assert_eq!(t.net.link_count(), (16 + 16 + 16) * 2);
    }

    #[test]
    fn k4_paths_have_expected_lengths() {
        let t = fat_tree(4, LinkParams::default());
        // Same edge switch: 2 hops; same pod different edge: 4 hops; cross pod: 6 hops.
        let h0 = t.hosts[0];
        let same_edge = t.hosts[1];
        let same_pod = t.hosts[2];
        let cross_pod = t.hosts[4];
        assert_eq!(t.net.shortest_path(h0, same_edge).unwrap().hops(), 2);
        assert_eq!(t.net.shortest_path(h0, same_pod).unwrap().hops(), 4);
        assert_eq!(t.net.shortest_path(h0, cross_pod).unwrap().hops(), 6);
    }

    #[test]
    fn all_pairs_connected_k6() {
        let t = fat_tree(6, LinkParams::default());
        assert_eq!(t.host_count(), 54);
        let mut rng = SmallRng::seed_from_u64(1);
        use rand::seq::SliceRandom;
        // Spot-check 50 random pairs.
        for _ in 0..50 {
            let a = *t.hosts.choose(&mut rng).unwrap();
            let b = *t.hosts.choose(&mut rng).unwrap();
            if a != b {
                assert!(t.net.shortest_path(a, b).is_some());
            }
        }
    }

    #[test]
    fn at_least_sizing() {
        assert_eq!(
            fat_tree_with_at_least(16, LinkParams::default()).host_count(),
            16
        );
        assert_eq!(
            fat_tree_with_at_least(17, LinkParams::default()).host_count(),
            54
        );
        assert!(fat_tree_with_at_least(128, LinkParams::default()).host_count() >= 128);
    }

    #[test]
    #[should_panic]
    fn odd_k_rejected() {
        let _ = fat_tree(3, LinkParams::default());
    }
}
