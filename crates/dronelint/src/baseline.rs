//! The ratcheted baseline.
//!
//! A baseline entry grandfathers one pre-existing violation. Entries
//! are keyed by `(rule, path, snippet)` — the trimmed source line —
//! rather than line numbers, so unrelated edits above a grandfathered
//! line do not churn the file. The ratchet only turns one way: new
//! violations fail the lint, and entries whose violation has been
//! fixed become *stale* and fail the lint until removed. The baseline
//! can therefore only shrink.

use std::collections::BTreeMap;

use serde::Value;

use crate::Violation;

/// One grandfathered violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Entry {
    /// Rule id ("R1".."R5").
    pub rule: String,
    /// Repo-relative path.
    pub path: String,
    /// Trimmed source line the violation sits on.
    pub snippet: String,
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// Grandfathered entries.
    pub entries: Vec<Entry>,
}

/// Result of reconciling violations against the baseline.
#[derive(Debug, Default)]
pub struct Reconciled {
    /// Violations not covered by the baseline: these fail the lint.
    pub new: Vec<Violation>,
    /// Count of violations absorbed by baseline entries.
    pub baselined: usize,
    /// Entries with no matching violation: the ratchet demands their
    /// removal.
    pub stale: Vec<Entry>,
}

impl Baseline {
    /// Parses a baseline from its JSON text.
    pub fn parse(json: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| format!("baseline JSON: {e:?}"))?;
        let arr = v
            .get("entries")
            .and_then(|e| e.as_array())
            .ok_or("baseline must be an object with an `entries` array")?;
        let mut entries = Vec::new();
        for (i, e) in arr.iter().enumerate() {
            let field = |name: &str| {
                e.get(name)
                    .and_then(|f| f.as_str())
                    .map(str::to_string)
                    .ok_or(format!("baseline entry {i}: missing string field `{name}`"))
            };
            entries.push(Entry {
                rule: field("rule")?,
                path: field("path")?,
                snippet: field("snippet")?,
            });
        }
        Ok(Baseline { entries })
    }

    /// Serializes the baseline to pretty JSON.
    pub fn to_json(&self) -> String {
        let entries: Vec<Value> = self
            .entries
            .iter()
            .map(|e| {
                let mut obj = BTreeMap::new();
                obj.insert("rule".to_string(), Value::String(e.rule.clone()));
                obj.insert("path".to_string(), Value::String(e.path.clone()));
                obj.insert("snippet".to_string(), Value::String(e.snippet.clone()));
                Value::Object(obj)
            })
            .collect();
        let mut root = BTreeMap::new();
        root.insert("entries".to_string(), Value::Array(entries));
        serde_json::to_string_pretty(&Value::Object(root)).unwrap_or_default()
    }

    /// Reconciles `violations` against the baseline.
    ///
    /// Matching is multiset-style: an entry absorbs at most one
    /// violation per occurrence of the same `(rule, path, snippet)`
    /// key in the baseline, so duplicating a grandfathered line is
    /// still a new violation.
    pub fn reconcile(&self, violations: Vec<Violation>) -> Reconciled {
        let mut budget: BTreeMap<Entry, usize> = BTreeMap::new();
        for e in &self.entries {
            *budget.entry(e.clone()).or_default() += 1;
        }
        let mut out = Reconciled::default();
        for v in violations {
            let key = Entry {
                rule: v.rule.to_string(),
                path: v.path.clone(),
                snippet: v.snippet.clone(),
            };
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    out.baselined += 1;
                }
                _ => out.new.push(v),
            }
        }
        for (e, n) in budget {
            for _ in 0..n {
                out.stale.push(e.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(rule: &'static str, path: &str, snippet: &str) -> Violation {
        Violation {
            rule,
            path: path.to_string(),
            line: 1,
            col: 1,
            snippet: snippet.to_string(),
            message: String::new(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let b = Baseline {
            entries: vec![Entry {
                rule: "R1".into(),
                path: "crates/simkern/src/x.rs".into(),
                snippet: "let m: HashMap<u32, u32>;".into(),
            }],
        };
        let parsed = Baseline::parse(&b.to_json()).expect("parse");
        assert_eq!(parsed.entries, b.entries);
    }

    #[test]
    fn baselined_violations_are_absorbed_new_ones_fail() {
        let b = Baseline::parse(
            r#"{"entries": [{"rule": "R1", "path": "a.rs", "snippet": "old line"}]}"#,
        )
        .expect("parse");
        let r = b.reconcile(vec![
            v("R1", "a.rs", "old line"),
            v("R1", "a.rs", "new line"),
        ]);
        assert_eq!(r.baselined, 1);
        assert_eq!(r.new.len(), 1);
        assert_eq!(r.new[0].snippet, "new line");
        assert!(r.stale.is_empty());
    }

    #[test]
    fn fixed_violations_leave_stale_entries() {
        let b =
            Baseline::parse(r#"{"entries": [{"rule": "R1", "path": "a.rs", "snippet": "gone"}]}"#)
                .expect("parse");
        let r = b.reconcile(vec![]);
        assert_eq!(r.stale.len(), 1, "ratchet demands removal");
    }

    #[test]
    fn duplicate_of_grandfathered_line_is_new() {
        let b =
            Baseline::parse(r#"{"entries": [{"rule": "R1", "path": "a.rs", "snippet": "dup"}]}"#)
                .expect("parse");
        let r = b.reconcile(vec![v("R1", "a.rs", "dup"), v("R1", "a.rs", "dup")]);
        assert_eq!(r.baselined, 1);
        assert_eq!(r.new.len(), 1);
    }
}
