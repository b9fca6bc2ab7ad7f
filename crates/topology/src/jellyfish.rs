//! Jellyfish (Singla et al., NSDI 2012): switches wired as a random regular graph,
//! used in Figure 8d. The paper's configuration is 24-port switches with a 2:1 ratio
//! of network ports to server ports (16 network ports, 8 servers per switch).

use std::collections::{HashMap, HashSet};

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pdq_netsim::{LinkParams, Network, NodeId};

use crate::Topology;

/// Build a Jellyfish topology.
///
/// * `n_switches` switches, each with `network_ports` ports wired to other switches as
///   a random `network_ports`-regular graph (or as close as the construction gets) and
///   `servers_per_switch` ports to hosts;
/// * `seed` controls the random graph so topologies are reproducible.
pub fn jellyfish(
    n_switches: usize,
    network_ports: usize,
    servers_per_switch: usize,
    seed: u64,
    link: LinkParams,
) -> Topology {
    assert!(n_switches >= 2);
    assert!(
        network_ports >= 2,
        "need at least two network ports per switch"
    );
    assert!(
        network_ports < n_switches,
        "a switch cannot have more network neighbours than there are other switches"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = Network::new();
    let mut hosts = Vec::new();
    let mut rack_of = HashMap::new();

    let switches: Vec<NodeId> = (0..n_switches)
        .map(|i| net.add_switch(format!("sw{i}")))
        .collect();
    for (r, &sw) in switches.iter().enumerate() {
        for s in 0..servers_per_switch {
            let h = net.add_host(format!("h{r}_{s}"));
            net.add_duplex_link(h, sw, link);
            hosts.push(h);
            rack_of.insert(h, r);
        }
    }

    // Random regular graph via repeated pairing of free ports, with edge swaps when the
    // process gets stuck (the standard Jellyfish construction).
    let mut free: Vec<usize> = (0..n_switches)
        .flat_map(|i| std::iter::repeat_n(i, network_ports))
        .collect();
    let mut edges: HashSet<(usize, usize)> = HashSet::new();
    let edge_key = |a: usize, b: usize| if a < b { (a, b) } else { (b, a) };
    let mut stuck = 0usize;
    while free.len() >= 2 && stuck < 10_000 {
        free.shuffle(&mut rng);
        let a = free[free.len() - 1];
        let b = free[free.len() - 2];
        if a != b && !edges.contains(&edge_key(a, b)) {
            free.pop();
            free.pop();
            edges.insert(edge_key(a, b));
            stuck = 0;
        } else if !edges.is_empty() {
            // Swap with a random existing edge to break the deadlock:
            // remove (c, d), add (a, c) and (b, d) if valid.
            let mut existing: Vec<(usize, usize)> = edges.iter().copied().collect();
            // HashSet iteration order is not deterministic; sort before sampling so the
            // construction is reproducible for a fixed seed.
            existing.sort_unstable();
            let &(c, d) = existing.choose(&mut rng).unwrap();
            let (x, y) = if rng.gen::<bool>() { (c, d) } else { (d, c) };
            if a != x
                && b != y
                && a != b
                && !edges.contains(&edge_key(a, x))
                && !edges.contains(&edge_key(b, y))
            {
                edges.remove(&edge_key(c, d));
                edges.insert(edge_key(a, x));
                edges.insert(edge_key(b, y));
                free.pop();
                free.pop();
                stuck = 0;
            } else {
                stuck += 1;
            }
        } else {
            stuck += 1;
        }
    }
    // Sort so that link creation order (and therefore LinkIds) does not depend on the
    // HashSet iteration order — keeps the topology reproducible for a fixed seed.
    let mut sorted_edges: Vec<(usize, usize)> = edges.into_iter().collect();
    sorted_edges.sort_unstable();
    for (a, b) in sorted_edges {
        net.add_duplex_link(switches[a], switches[b], link);
    }

    Topology {
        net,
        hosts,
        rack_of,
        name: format!("jellyfish({n_switches}sw,{network_ports}net,{servers_per_switch}srv)"),
    }
}

/// The paper's Figure 8d configuration scaled to at least `n_hosts` hosts: 24-port
/// switches with a 2:1 network-to-server port ratio (16 network ports, 8 hosts each).
pub fn jellyfish_paper_config(n_hosts: usize, seed: u64, link: LinkParams) -> Topology {
    jellyfish(
        paper_config_switches(n_hosts),
        PAPER_NETWORK_PORTS,
        PAPER_SERVERS_PER_SWITCH,
        seed,
        link,
    )
}

const PAPER_SERVERS_PER_SWITCH: usize = 8;
const PAPER_NETWORK_PORTS: usize = 16;

fn paper_config_switches(n_hosts: usize) -> usize {
    n_hosts
        .div_ceil(PAPER_SERVERS_PER_SWITCH)
        .max(PAPER_NETWORK_PORTS + 1)
}

/// The host count of [`jellyfish_paper_config`] for `n_hosts`, or `None` if it
/// overflows `usize`.
pub fn paper_config_hosts(n_hosts: usize) -> Option<usize> {
    paper_config_switches(n_hosts).checked_mul(PAPER_SERVERS_PER_SWITCH)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_degree() {
        let t = jellyfish(20, 6, 4, 7, LinkParams::default());
        assert_eq!(t.host_count(), 80);
        assert_eq!(t.net.switches().len(), 20);
        // Every switch has at most 6 network links plus 4 host links.
        for sw in t.net.switches() {
            let deg = t.net.outgoing(sw).len();
            assert!(deg <= 10, "switch degree {deg}");
            assert!(deg > 4, "switch should have at least one network link");
        }
    }

    #[test]
    fn connected_for_reasonable_parameters() {
        let t = jellyfish(16, 8, 4, 3, LinkParams::default());
        let a = t.hosts[0];
        for &b in &t.hosts {
            if a != b {
                assert!(
                    t.net.shortest_path(a, b).is_some(),
                    "hosts {a:?} and {b:?} disconnected"
                );
            }
        }
    }

    #[test]
    fn reproducible_for_fixed_seed() {
        let t1 = jellyfish(12, 4, 2, 42, LinkParams::default());
        let t2 = jellyfish(12, 4, 2, 42, LinkParams::default());
        assert_eq!(t1.net.link_count(), t2.net.link_count());
        // Same adjacency (link endpoints in same order).
        let ends = |t: &Topology| {
            t.net
                .links
                .iter()
                .map(|l| (l.src, l.dst))
                .collect::<Vec<_>>()
        };
        assert_eq!(ends(&t1), ends(&t2));
    }

    #[test]
    fn paper_config_sizing() {
        let t = jellyfish_paper_config(128, 1, LinkParams::default());
        assert!(t.host_count() >= 128);
    }
}
