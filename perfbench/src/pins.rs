//! Simulated outcomes pinned per workload and seed, and the check that
//! counts a cell or case as failed when it misses its pin.
//!
//! `pins.txt` holds one line per cell or case:
//! `<workload> <seed|*> <id> <key=value>...`. `*` pins a value for every
//! seed (the kernels' inputs change with the seed, their op counts and
//! cycles do not). Seeds without pins are still checked pass against
//! pass: the same seed must give the same signature in every pass.

use std::collections::BTreeMap;

const PINS: &str = include_str!("../pins.txt");

/// The pinned signature of every id for `workload` under `seed`.
pub fn pinned(workload: &str, seed: u64) -> BTreeMap<String, String> {
    let seed = seed.to_string();
    PINS.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(4, ' ');
            let (w, s, id, sig) = (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
            (w == workload && (s == "*" || s == seed)).then(|| (id.to_string(), sig.to_string()))
        })
        .collect()
}

/// Counts attempted and failed operations and says why each failed.
#[derive(Debug, Default)]
pub struct Checker {
    pins: BTreeMap<String, String>,
    first: BTreeMap<String, String>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that did not verify or missed a pin.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker against `pins` (empty: pass-to-pass checks only).
    pub fn new(pins: BTreeMap<String, String>) -> Self {
        Checker {
            pins,
            ..Checker::default()
        }
    }

    /// Whether any pin applies.
    pub fn pinned(&self) -> bool {
        !self.pins.is_empty()
    }

    /// Check one operation: it must be `ok`, match its pin if it has one,
    /// and match what the same id produced in the first pass.
    pub fn check(&mut self, id: &str, ok: bool, signature: String) {
        self.attempted += 1;
        let mut why = Vec::new();
        if !ok {
            why.push("did not verify".to_string());
        }
        if let Some(pin) = self.pins.get(id) {
            if *pin != signature {
                why.push(format!("pinned {pin}"));
            }
        }
        match self.first.get(id) {
            Some(first) if *first != signature => why.push(format!("first pass gave {first}")),
            Some(_) => {}
            None => {
                self.first.insert(id.to_string(), signature.clone());
            }
        }
        if !why.is_empty() {
            self.failed += 1;
            self.notes
                .push(format!("{id}: got {signature}; {}", why.join("; ")));
        }
    }

    /// Every id's signature from its first pass, as `pins.txt` lines.
    pub fn pin_lines(&self, workload: &str, seed: &str) -> Vec<String> {
        self.first
            .iter()
            .map(|(id, sig)| format!("{workload} {seed} {id} {sig}"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_as_failures() {
        let mut pins = BTreeMap::new();
        pins.insert("a".to_string(), "x=1".to_string());
        let mut c = Checker::new(pins);
        c.check("a", true, "x=1".into());
        c.check("b", true, "y=2".into());
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.check("a", true, "x=2".into());
        c.check("b", true, "y=3".into());
        c.check("b", false, "y=2".into());
        assert_eq!((c.attempted, c.failed), (5, 3));
        assert_eq!(c.notes.len(), 3);
    }
}
