//! BCube (Guo et al., SIGCOMM 2009): the server-centric modular topology used in
//! Figure 8c and for multipath PDQ in Figure 11.
//!
//! A `BCube(n, k)` has `n^(k+1)` servers, each with `k+1` ports, and `k+1` levels of
//! `n`-port mini-switches (`n^k` switches per level). Server `a_k a_{k-1} ... a_0`
//! (base-`n` digits) connects, at level `l`, to switch number formed by removing digit
//! `a_l`. Two servers differing in exactly one digit are two hops apart through the
//! switch of that level, which gives the topology its `k+1` parallel paths — the path
//! diversity M-PDQ exploits.

use std::collections::HashMap;

use pdq_netsim::{LinkParams, Network, NodeId};

use crate::Topology;

/// Build a `BCube(n, k)` topology: `n` = switch port count, `k+1` = levels.
///
/// The number of servers is `n^(k+1)`; each server has `k+1` NICs (one per level),
/// which is how the paper's Figure 11 lets M-PDQ use "all four interfaces" on
/// BCube(2,3)-style networks.
pub fn bcube(n: usize, k: usize, link: LinkParams) -> Topology {
    assert!(n >= 2, "BCube switch port count must be >= 2");
    let levels = k + 1;
    let n_servers = bcube_servers(n, k).expect("BCube server count overflows usize");
    // n^k < n^(k+1), which fits, and so do the digit powers `remove_digit` takes.
    let switches_per_level = n.pow(k as u32);

    let mut net = Network::new();
    let mut hosts = Vec::new();
    let mut rack_of = HashMap::new();

    for s in 0..n_servers {
        let h = net.add_host(format!("srv{s}"));
        hosts.push(h);
        // Rack = the level-0 switch group (servers sharing their lowest-level switch).
        rack_of.insert(h, s / n);
    }

    // Switches, per level.
    let mut switch_ids: Vec<Vec<NodeId>> = Vec::new();
    for l in 0..levels {
        let mut level_switches = Vec::new();
        for s in 0..switches_per_level {
            level_switches.push(net.add_switch(format!("sw{l}_{s}")));
        }
        switch_ids.push(level_switches);
    }

    // Wiring: server `srv` connects at level `l` to the switch whose index is the
    // base-n representation of `srv` with digit `l` removed.
    for (srv, &host) in hosts.iter().enumerate() {
        for (l, level_switches) in switch_ids.iter().enumerate() {
            let sw_index = remove_digit(srv, l, n);
            net.add_duplex_link(host, level_switches[sw_index], link);
        }
    }

    Topology {
        net,
        hosts,
        rack_of,
        name: format!("bcube({n},{k})"),
    }
}

/// Remove the base-`n` digit at position `pos` from `value`, compacting the remaining
/// digits. E.g. with n=4, value=0b(digits d2 d1 d0), removing d1 yields digits d2 d0.
fn remove_digit(value: usize, pos: usize, n: usize) -> usize {
    let low = value % n.pow(pos as u32);
    let high = value / n.pow(pos as u32 + 1);
    high * n.pow(pos as u32) + low
}

/// The server count `n^(k+1)` of `BCube(n, k)`, or `None` if it overflows `usize`.
pub fn bcube_servers(n: usize, k: usize) -> Option<usize> {
    n.checked_pow(u32::try_from(k.checked_add(1)?).ok()?)
}

/// The level parameter `k` of the smallest `BCube(n, k)` with at least `n_hosts`
/// servers, or `None` if `n < 2` (no level count suffices) or that BCube's server
/// count overflows `usize`.
pub fn bcube_levels_for(n_hosts: usize, n: usize) -> Option<usize> {
    if n < 2 {
        return None;
    }
    let mut k = 0usize;
    while bcube_servers(n, k)? < n_hosts {
        k += 1;
    }
    Some(k)
}

/// The smallest `BCube(n, k)` with `n`-port switches whose server count is at least
/// `n_hosts`, increasing the number of levels.
pub fn bcube_with_at_least(n_hosts: usize, n: usize, link: LinkParams) -> Topology {
    let k = bcube_levels_for(n_hosts, n).expect("no BCube of this size fits in usize");
    bcube(n, k, link)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remove_digit_works() {
        // value 0x123 base 16 is not meaningful here; test base 4: digits of 27 = 1 2 3.
        // 27 = 1*16 + 2*4 + 3
        assert_eq!(remove_digit(27, 0, 4), 4 + 2); // remove d0 -> digits 1,2 = 6
        assert_eq!(remove_digit(27, 1, 4), 4 + 3); // remove d1 -> digits 1,3 = 7
        assert_eq!(remove_digit(27, 2, 4), 2 * 4 + 3); // remove d2 -> digits 2,3 = 11
    }

    #[test]
    fn bcube_4_1_counts() {
        // BCube(4,1): 16 servers, 2 levels of 4 switches, each server has 2 ports.
        let t = bcube(4, 1, LinkParams::default());
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.net.switches().len(), 8);
        // 16 servers * 2 levels duplex links.
        assert_eq!(t.net.link_count(), 16 * 2 * 2);
        // Each host has exactly 2 outgoing links (dual-port servers).
        for &h in &t.hosts {
            assert_eq!(t.net.outgoing(h).len(), 2);
        }
    }

    #[test]
    fn one_digit_neighbours_are_two_hops() {
        let t = bcube(4, 1, LinkParams::default());
        // Servers 0 (digits 0,0) and 1 (digits 0,1) share a level-0 switch: 2 hops.
        let p = t.net.shortest_path(t.hosts[0], t.hosts[1]).unwrap();
        assert_eq!(p.hops(), 2);
        // Servers 0 (0,0) and 5 (1,1) differ in both digits: 4 hops via a relay server.
        let p = t.net.shortest_path(t.hosts[0], t.hosts[5]).unwrap();
        assert_eq!(p.hops(), 4);
    }

    #[test]
    fn bcube_2_3_matches_paper_figure_11() {
        // Figure 11 uses BCube(2,3): 16 servers with 4 ports each.
        let t = bcube(2, 3, LinkParams::default());
        assert_eq!(t.host_count(), 16);
        for &h in &t.hosts {
            assert_eq!(t.net.outgoing(h).len(), 4);
        }
    }

    #[test]
    fn sizing_helper() {
        assert_eq!(
            bcube_with_at_least(60, 4, LinkParams::default()).host_count(),
            64
        );
        assert_eq!(
            bcube_with_at_least(64, 4, LinkParams::default()).host_count(),
            64
        );
        assert_eq!(
            bcube_with_at_least(65, 4, LinkParams::default()).host_count(),
            256
        );
    }
}
