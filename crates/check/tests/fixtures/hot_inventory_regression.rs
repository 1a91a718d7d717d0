// Fixture: the repair inventory pipeline's declared hot paths — the
// fragment server's report builder and the repair actor's report fold —
// with the per-entry allocations the lint must catch if they ever creep
// back in. The real functions (`Fs::send_repair_report`,
// `RepairActor::fold_report`) carry each entry's fragments as a
// `FragMask` and merge-walk the sorted report against the tracked map.

use std::collections::{BTreeMap, BTreeSet};

struct Entry {
    fragments: BTreeMap<u8, u32>,
}

struct Mask(u64);

impl Mask {
    fn new() -> Self {
        Mask(0)
    }
}

struct Server {
    entries: Vec<(u64, Entry)>,
}

impl Server {
    // lint:hot
    fn report_regressed(&self) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (ov, e) in &self.entries {
            // Regression: a fresh Vec of fragment indices per entry.
            out.push((*ov, e.fragments.keys().copied().collect()));
        }
        out
    }

    // lint:hot
    fn report_clean(&self) -> Vec<(u64, Mask)> {
        let mut out = Vec::with_capacity(self.entries.len());
        for (ov, e) in &self.entries {
            let mut held = Mask::new();
            for &idx in e.fragments.keys() {
                held.0 |= 1 << idx;
            }
            out.push((*ov, held));
        }
        out
    }
}

struct Actor {
    tracked: BTreeMap<u64, BTreeMap<u32, BTreeSet<u8>>>,
    masks: BTreeMap<u64, u64>,
}

impl Actor {
    // lint:hot
    fn fold_regressed(&mut self, from: u32, report: &[(u64, Vec<u8>)]) {
        // Regression: a per-report map and a per-entry set rebuilt from
        // scratch instead of merge-walking the sorted report.
        let mut fresh = BTreeMap::new();
        for (ov, held) in report {
            let mut set = BTreeSet::new();
            set.extend(held.iter().copied());
            fresh.insert(*ov, set);
        }
        for (ov, have) in self.tracked.iter_mut() {
            match fresh.remove(ov) {
                Some(set) => {
                    have.insert(from, set);
                }
                None => {
                    have.remove(&from);
                }
            }
        }
    }

    // lint:hot
    fn fold_clean(&mut self, report: &[(u64, u64)]) {
        let mut next = report.iter().peekable();
        for (ov, mask) in self.masks.iter_mut() {
            while next.peek().is_some_and(|(e, _)| e < ov) {
                next.next();
            }
            *mask = match next.peek() {
                Some((e, held)) if e == ov => *held,
                _ => 0,
            };
        }
    }
}
