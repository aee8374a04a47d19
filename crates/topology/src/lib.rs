//! Datacenter topology for Silo: the multi-rooted tree of §4.2.1.
//!
//! Silo's placement, both simulators, and the admission benchmarks all walk
//! the same hierarchical structure: *servers* (hosts with VM slots) grouped
//! into *racks* under a top-of-rack (ToR) switch, racks grouped into *pods*
//! under aggregation switches, and pods joined by a core layer. Links can be
//! oversubscribed at each level (the paper's ns2 topology uses 1:5).
//!
//! The multi-rooted core/aggregation layers of a production network exist
//! for fault tolerance and ECMP spreading; for *capacity and queueing*
//! accounting, a level of `k` parallel switches is equivalent to one
//! logical switch with `k×` the port capacity (Silo itself reasons about
//! logical uplink capacity, not individual roots). We therefore model one
//! logical aggregation node per pod and one logical core node, with link
//! rates derived from the configured oversubscription ratios — and document
//! this as our one topological simplification.
//!
//! Every *directed* link endpoint that can queue packets is a [`PortId`]:
//! the sending host's NIC for up-traffic, and a switch egress port
//! everywhere else. [`Topology::path_ports`] returns exactly the queues a
//! packet traverses NIC-to-NIC, which is the path Silo's delay guarantee
//! covers (paper Fig. 3).

mod tree;

pub use tree::{
    Cut, Cuts, HostId, Level, LinkId, LinkTier, NodeId, PortId, PortInfo, Topology, TreeParams,
};
