//! The switch model (§IV-E): unmodified commodity switches that forward
//! along controller-installed entries, with the paper's bounded flow
//! table ("the flow table size of an SDN switch is very limited (usually
//! less than 2000 entries), only the first 1k entries are installed").

use crate::messages::SwitchCmd;
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only flow table; never iterated"
)]
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use taps_topology::LinkId;

/// Capacity of a commodity SDN switch's TCAM per the paper.
pub const DEFAULT_TABLE_CAPACITY: usize = 2000;

/// Share of the table the TAPS controller is allowed to use.
pub const DEFAULT_TAPS_BUDGET: usize = 1000;

/// One forwarding entry: flow id → output link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEntry {
    /// Matched flow id.
    pub flow: usize,
    /// Output (directed) link.
    pub out_link: LinkId,
}

/// Errors installing entries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    /// The TAPS budget (first 1 k entries) is exhausted at this switch.
    BudgetExhausted,
    /// The flow already has an entry with a different output link.
    Conflict,
}

/// Hashes a flow id with one multiply and a fold instead of SipHash: a
/// commit makes one table lookup per switch on every withdrawn or
/// installed route, and SipHash was most of each. Flow ids come from
/// clients, so a crafted set could collide; the table holds at most its
/// TAPS budget of entries, so the worst case is a probe over that many,
/// not an unbounded chain. The hash is the same on every run. The
/// multiply by an odd constant is a bijection on the low bits; folding
/// the high half down lets every bit of the id reach the bucket bits, so
/// ids with a common stride still spread.
#[derive(Clone, Copy, Debug, Default)]
struct FlowIdHasher(u64);

impl Hasher for FlowIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A bounded flow table.
#[derive(Clone, Debug)]
pub struct FlowTable {
    #[expect(
        clippy::disallowed_types,
        reason = "entries are only probed by flow id, never iterated"
    )]
    entries: HashMap<usize, LinkId, BuildHasherDefault<FlowIdHasher>>,
    capacity: usize,
    budget: usize,
    /// High-water mark of occupancy, for reporting.
    peak: usize,
}

impl Default for FlowTable {
    fn default() -> Self {
        Self::new(DEFAULT_TABLE_CAPACITY, DEFAULT_TAPS_BUDGET)
    }
}

impl FlowTable {
    /// Creates a table with the given total capacity and TAPS budget.
    pub fn new(capacity: usize, budget: usize) -> Self {
        assert!(budget <= capacity);
        FlowTable {
            #[expect(
                clippy::disallowed_types,
                reason = "lookup-only flow table; never iterated"
            )]
            entries: HashMap::default(),
            capacity,
            budget,
            peak: 0,
        }
    }

    /// Installs an entry; idempotent for identical re-installs.
    pub fn install(&mut self, entry: FlowEntry) -> Result<(), TableError> {
        if let Some(&existing) = self.entries.get(&entry.flow) {
            return if existing == entry.out_link {
                Ok(())
            } else {
                Err(TableError::Conflict)
            };
        }
        if self.entries.len() >= self.budget {
            return Err(TableError::BudgetExhausted);
        }
        self.entries.insert(entry.flow, entry.out_link);
        self.peak = self.peak.max(self.entries.len());
        Ok(())
    }

    /// Withdraws a flow's entry; idempotent.
    pub fn withdraw(&mut self, flow: usize) {
        self.entries.remove(&flow);
    }

    /// Replaces a flow's entry unconditionally (re-routing on
    /// re-allocation).
    pub fn replace(&mut self, entry: FlowEntry) -> Result<(), TableError> {
        self.entries.remove(&entry.flow);
        self.install(entry)
    }

    /// Looks up the output link for a flow — the switch's only data-plane
    /// job (§IV-E).
    pub fn forward(&self, flow: usize) -> Option<LinkId> {
        self.entries.get(&flow).copied()
    }

    /// Current number of installed entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Peak occupancy seen.
    pub fn peak_occupancy(&self) -> usize {
        self.peak
    }

    /// Total TCAM capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of every installed entry, sorted by flow id (the map is
    /// hash-based for lookups; all iteration goes through this sorted
    /// snapshot so observable order stays deterministic — lint rule L1).
    pub fn entries_sorted(&self) -> Vec<FlowEntry> {
        let mut v: Vec<FlowEntry> = self
            .entries
            .iter()
            .map(|(&flow, &out_link)| FlowEntry { flow, out_link })
            .collect();
        v.sort_by_key(|e| e.flow);
        v
    }

    /// Withdraws every entry (fail-closed flush). Returns how many were
    /// removed.
    pub fn clear(&mut self) -> usize {
        let n = self.entries.len();
        self.entries.clear();
        n
    }
}

/// A switch-local control agent for the unreliable control plane
/// (DESIGN.md §10): wraps the [`FlowTable`] with the per-flow
/// `(epoch, gen)` last-writer-wins guard that makes duplicated, delayed
/// and reordered [`crate::SwitchCmd`] deliveries harmless, handles
/// full-state reconciliation sweeps after a controller failover, and
/// implements withdraw-on-silence: a switch that has not heard from the
/// controller for the silence timeout withdraws all its TAPS entries
/// rather than forwarding on potentially revoked state.
#[derive(Clone, Debug)]
pub struct SwitchAgent {
    node: taps_topology::NodeId,
    table: FlowTable,
    /// Last applied `(epoch, gen, installed)` per flow. Ordered map so
    /// any future iteration is deterministic (lint rule L1).
    seen: std::collections::BTreeMap<usize, (u64, u64, bool)>,
    /// Reconciliation floor: commands stamped older than the last
    /// applied sweep are dropped even for flows the sweep did not list
    /// (a late pre-failover Install must not resurrect a swept entry).
    floor: (u64, u64),
    /// Time of the last controller contact (command, sweep or heartbeat).
    last_contact: f64,
    /// Installs refused because the TAPS budget was full.
    budget_drops: usize,
}

impl SwitchAgent {
    /// Creates the agent for one switch node.
    pub fn new(node: taps_topology::NodeId, capacity: usize, budget: usize) -> Self {
        SwitchAgent {
            node,
            table: FlowTable::new(capacity, budget),
            seen: std::collections::BTreeMap::new(),
            floor: (0, 0),
            last_contact: 0.0,
            budget_drops: 0,
        }
    }

    /// The switch node this agent runs on.
    pub fn node(&self) -> taps_topology::NodeId {
        self.node
    }

    /// The underlying flow table, for forwarding lookups and audits.
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Installs refused because the TAPS budget was full.
    pub fn budget_drops(&self) -> usize {
        self.budget_drops
    }

    /// Records a controller contact (heartbeat or any message) at `now`.
    pub fn note_contact(&mut self, now: f64) {
        self.last_contact = self.last_contact.max(now);
    }

    /// Applies one stamped command received at `now`. Returns `false`
    /// when the command was stale and dropped. Semantics per flow are
    /// last-writer-wins on `(epoch, gen)`; on a tie an `Install` beats a
    /// `Withdraw` (a commit withdraws a flow's old entry before
    /// installing the new one, so "installed" is the final state of any
    /// generation that contains both).
    pub fn apply(&mut self, now: f64, epoch: u64, gen: u64, cmd: &SwitchCmd) -> bool {
        self.note_contact(now);
        let (flow, install, entry) = match cmd {
            SwitchCmd::Install {
                node,
                flow,
                out_link,
            } => {
                debug_assert_eq!(*node, self.node, "command routed to wrong switch");
                (
                    *flow,
                    true,
                    Some(FlowEntry {
                        flow: *flow,
                        out_link: *out_link,
                    }),
                )
            }
            SwitchCmd::Withdraw { node, flow } => {
                debug_assert_eq!(*node, self.node, "command routed to wrong switch");
                (*flow, false, None)
            }
        };
        if (epoch, gen) < self.floor {
            return false; // older than the last reconciliation sweep
        }
        if let Some(&(e, g, was_install)) = self.seen.get(&flow) {
            if (epoch, gen) < (e, g) {
                return false; // stale reorder/duplicate
            }
            if (epoch, gen) == (e, g) && was_install && !install {
                return false; // tie: install wins over withdraw
            }
        }
        self.seen.insert(flow, (epoch, gen, install));
        match entry {
            Some(e) => {
                if self.table.replace(e) == Err(TableError::BudgetExhausted) {
                    self.budget_drops += 1;
                }
            }
            None => self.table.withdraw(flow),
        }
        true
    }

    /// Applies a full-state reconciliation sweep received at `now`: the
    /// table is replaced wholesale by `entries` (anything absent is
    /// withdrawn) and the per-flow guard is reset to the sweep stamp.
    /// Stale sweeps (older than any applied stamp) are dropped.
    pub fn reconcile(&mut self, now: f64, epoch: u64, gen: u64, entries: &[FlowEntry]) -> bool {
        self.note_contact(now);
        // The newest stamp applied so far decides staleness of the sweep.
        if let Some(newest) = self.seen.values().map(|&(e, g, _)| (e, g)).max() {
            if (epoch, gen) < newest {
                return false;
            }
        }
        self.table.clear();
        self.seen.clear();
        self.floor = (epoch, gen);
        for e in entries {
            if self.table.replace(*e) == Err(TableError::BudgetExhausted) {
                self.budget_drops += 1;
            } else {
                self.seen.insert(e.flow, (epoch, gen, true));
            }
        }
        true
    }

    /// Withdraw-on-silence: if the last controller contact is older than
    /// `timeout` at `now`, every entry is withdrawn (fail closed) and the
    /// number of flushed entries is returned.
    pub fn silence_flush(&mut self, now: f64, timeout: f64) -> usize {
        // lint: l8-ok(withdraw-on-silence: exact timeout lapse fails closed, stale entries are never kept longer)
        if now - self.last_contact <= timeout || self.table.occupancy() == 0 {
            return 0;
        }
        self.seen.clear();
        self.table.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_forward_withdraw() {
        let mut t = FlowTable::new(10, 5);
        t.install(FlowEntry {
            flow: 1,
            out_link: LinkId(3),
        })
        .unwrap();
        assert_eq!(t.forward(1), Some(LinkId(3)));
        assert_eq!(t.forward(2), None);
        t.withdraw(1);
        assert_eq!(t.forward(1), None);
        t.withdraw(1); // idempotent
    }

    #[test]
    fn budget_is_enforced() {
        let mut t = FlowTable::new(10, 2);
        t.install(FlowEntry {
            flow: 1,
            out_link: LinkId(0),
        })
        .unwrap();
        t.install(FlowEntry {
            flow: 2,
            out_link: LinkId(0),
        })
        .unwrap();
        let err = t.install(FlowEntry {
            flow: 3,
            out_link: LinkId(0),
        });
        assert_eq!(err, Err(TableError::BudgetExhausted));
        // Withdrawing frees budget.
        t.withdraw(1);
        t.install(FlowEntry {
            flow: 3,
            out_link: LinkId(0),
        })
        .unwrap();
        assert_eq!(t.peak_occupancy(), 2);
    }

    #[test]
    fn reinstall_same_is_ok_conflict_is_not() {
        let mut t = FlowTable::new(10, 5);
        t.install(FlowEntry {
            flow: 1,
            out_link: LinkId(3),
        })
        .unwrap();
        assert!(t
            .install(FlowEntry {
                flow: 1,
                out_link: LinkId(3)
            })
            .is_ok());
        assert_eq!(
            t.install(FlowEntry {
                flow: 1,
                out_link: LinkId(4)
            }),
            Err(TableError::Conflict)
        );
        // replace() re-routes.
        t.replace(FlowEntry {
            flow: 1,
            out_link: LinkId(4),
        })
        .unwrap();
        assert_eq!(t.forward(1), Some(LinkId(4)));
    }

    use taps_topology::NodeId;

    fn install(flow: usize, link: u32) -> SwitchCmd {
        SwitchCmd::Install {
            node: NodeId(9),
            flow,
            out_link: LinkId(link),
        }
    }

    fn withdraw(flow: usize) -> SwitchCmd {
        SwitchCmd::Withdraw {
            node: NodeId(9),
            flow,
        }
    }

    #[test]
    fn agent_drops_stale_reorders_and_duplicates() {
        let mut a = SwitchAgent::new(NodeId(9), 10, 5);
        assert!(a.apply(0.0, 0, 2, &install(1, 3)));
        // A delayed command from an older generation must not clobber.
        assert!(!a.apply(0.1, 0, 1, &install(1, 7)));
        assert!(!a.apply(0.1, 0, 1, &withdraw(1)));
        assert_eq!(a.table().forward(1), Some(LinkId(3)));
        // Duplicate of the applied command: idempotent.
        assert!(a.apply(0.2, 0, 2, &install(1, 3)));
        assert_eq!(a.table().forward(1), Some(LinkId(3)));
        // Same generation, withdraw after install: install wins the tie
        // (the withdraw belonged to the same commit's stale pass).
        assert!(!a.apply(0.3, 0, 2, &withdraw(1)));
        assert_eq!(a.table().forward(1), Some(LinkId(3)));
        // Newer generation withdraw applies.
        assert!(a.apply(0.4, 0, 3, &withdraw(1)));
        assert_eq!(a.table().forward(1), None);
    }

    #[test]
    fn agent_reconcile_replaces_entry_set() {
        let mut a = SwitchAgent::new(NodeId(9), 10, 5);
        a.apply(0.0, 0, 1, &install(1, 3));
        a.apply(0.0, 0, 1, &install(2, 4));
        a.reconcile(
            1.0,
            1,
            2,
            &[FlowEntry {
                flow: 2,
                out_link: LinkId(5),
            }],
        );
        assert_eq!(a.table().forward(1), None, "unswept entry withdrawn");
        assert_eq!(a.table().forward(2), Some(LinkId(5)));
        // A stale command from the pre-failover epoch bounces off.
        assert!(!a.apply(1.1, 0, 7, &install(1, 3)));
        assert_eq!(a.table().forward(1), None);
        // A stale sweep bounces off too.
        assert!(!a.reconcile(1.2, 0, 9, &[]));
        assert_eq!(a.table().forward(2), Some(LinkId(5)));
    }

    #[test]
    fn agent_withdraws_on_silence() {
        let mut a = SwitchAgent::new(NodeId(9), 10, 5);
        a.apply(0.0, 0, 1, &install(1, 3));
        a.note_contact(1.0);
        assert_eq!(a.silence_flush(1.5, 1.0), 0, "still in contact");
        assert_eq!(a.silence_flush(2.5, 1.0), 1, "silence: fail closed");
        assert_eq!(a.table().forward(1), None);
        assert_eq!(a.silence_flush(3.0, 1.0), 0, "nothing left to flush");
    }
}
