//! The heatmap-driven hot set (DESIGN §13, ROADMAP item 3).
//!
//! A [`HotSet`] is the distilled output of a [`Heatmap`]: the nodes a
//! workload's traversals concentrate on, heat-ranked. Two consumers cash it
//! in at the storage layer:
//!
//! * [`crate::DiskSpine::seal_to_clustered`] duplicates the hot nodes'
//!   records onto dedicated *hot pages* appended to the sealed file, so a
//!   chain walk over the hot set stays on a handful of pages instead of
//!   striding the whole node table.
//! * [`crate::DiskSpine::pin_hot`] / [`crate::DiskSpine::pin_hot_prefix`]
//!   pin the pages holding the hot set into the buffer pool at open time,
//!   so no other page traffic, occurrence walks and backbone scans
//!   included, can evict them.
//!
//! Without traces there is still a principled default: the paper's Figure 8
//! shows link destinations concentrating on the *upstream* part of the
//! backbone, so [`HotSet::backbone_prefix`] declares the first nodes hot.

use crate::node::NodeId;
use crate::trace::Heatmap;

/// A heat-ranked set of hot backbone nodes.
#[derive(Debug, Clone, Default)]
pub struct HotSet {
    /// `(node, heat)`, hottest first (ties broken toward lower ids).
    ranked: Vec<(NodeId, u64)>,
}

impl HotSet {
    /// The `max_nodes` hottest nodes of `heatmap` (fewer if the workload
    /// touched fewer).
    pub fn from_heatmap(heatmap: &Heatmap, max_nodes: usize) -> Self {
        HotSet { ranked: heatmap.hottest(max_nodes) }
    }

    /// The trace-free default: the first `max_nodes` nodes of a
    /// `text_len`-character backbone, with synthetic heat decreasing along
    /// the prefix (Figure 8's link-destination skew).
    pub fn backbone_prefix(text_len: usize, max_nodes: usize) -> Self {
        let take = max_nodes.min(text_len + 1);
        HotSet { ranked: (0..take as NodeId).map(|n| (n, (take as u64) - n as u64)).collect() }
    }

    /// An explicit, pre-ranked set (tests, hand-tuned deployments).
    pub fn from_ranked(ranked: Vec<(NodeId, u64)>) -> Self {
        HotSet { ranked }
    }

    /// `(node, heat)` pairs, hottest first.
    pub fn ranked(&self) -> &[(NodeId, u64)] {
        &self.ranked
    }

    /// Hot node ids, hottest first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ranked.iter().map(|&(n, _)| n)
    }

    /// Number of hot nodes.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backbone_prefix_is_ranked_and_bounded() {
        let h = HotSet::backbone_prefix(10, 4);
        assert_eq!(h.len(), 4);
        assert_eq!(h.nodes().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let heats: Vec<u64> = h.ranked().iter().map(|&(_, v)| v).collect();
        assert!(heats.windows(2).all(|w| w[0] > w[1]), "heat must decrease: {heats:?}");
        // Never more nodes than the backbone has.
        assert_eq!(HotSet::backbone_prefix(2, 100).len(), 3);
    }

    #[test]
    fn from_heatmap_takes_the_hottest() {
        use crate::trace::{QueryTrace, TraceEvent};
        let mut hm = Heatmap::new(8);
        let t = QueryTrace {
            pattern: vec![],
            text_len: 8,
            events: vec![
                TraceEvent::Occurrence { node: 5, link: 0, lel: 1 },
                TraceEvent::Occurrence { node: 5, link: 0, lel: 1 },
                TraceEvent::Occurrence { node: 2, link: 0, lel: 1 },
            ],
            dropped: 0,
            first_end: None,
            ends: vec![],
            error: None,
        };
        hm.add(&t);
        let h = HotSet::from_heatmap(&hm, 2);
        assert_eq!(h.nodes().next(), Some(5));
        assert!(h.len() <= 2);
    }
}
