//! Process-wide string interning for predicate and constant names.
//!
//! Interning keeps atoms compact (`u32` ids instead of strings) and makes
//! equality and hashing O(1), which matters in the homomorphism-search and
//! chase inner loops. The table only grows; ids are stable for the lifetime
//! of the process.

use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};

/// An interned string.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

fn table() -> &'static RwLock<Interner> {
    static TABLE: OnceLock<RwLock<Interner>> = OnceLock::new();
    TABLE.get_or_init(|| {
        RwLock::new(Interner {
            names: Vec::new(),
            ids: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name`, returning its stable id.
    pub fn new(name: &str) -> Symbol {
        {
            let t = table().read().expect("interner poisoned");
            if let Some(&id) = t.ids.get(name) {
                return Symbol(id);
            }
        }
        let mut t = table().write().expect("interner poisoned");
        if let Some(&id) = t.ids.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(t.names.len()).expect("interner overflow");
        t.names.push(name.to_owned());
        t.ids.insert(name.to_owned(), id);
        Symbol(id)
    }

    /// The interned string.
    pub fn name(self) -> String {
        with_names(|names| names.get(self).to_owned())
    }

    /// Raw id; useful only as a hash/sort key.
    pub fn id(self) -> u32 {
        self.0
    }
}

/// Names resolved under one read hold of the interner; see [`with_names`].
pub struct Names<'a> {
    names: &'a [String],
}

impl Names<'_> {
    /// The interned string of `s`, borrowed from the interner.
    pub fn get(&self, s: Symbol) -> &str {
        &self.names[s.0 as usize]
    }
}

/// Runs `f` with one read hold of the interner, so resolving many symbols
/// (say, every value of a reply) takes the lock once instead of once per
/// symbol and copies no name. `f` must not intern ([`Symbol::new`]) or call
/// [`Symbol::name`]: a waiting writer blocks new readers, so either could
/// deadlock. Keep `f` short; writers wait for it.
pub fn with_names<R>(f: impl FnOnce(&Names<'_>) -> R) -> R {
    let t = table().read().expect("interner poisoned");
    f(&Names { names: &t.names })
}

impl std::fmt::Display for Symbol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::new("R");
        let b = Symbol::new("R");
        assert_eq!(a, b);
        assert_eq!(a.name(), "R");
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::new("alpha"), Symbol::new("beta"));
    }

    #[test]
    fn display_roundtrips() {
        let s = Symbol::new("Employee");
        assert_eq!(s.to_string(), "Employee");
    }

    #[test]
    fn batch_names_match_single_lookups() {
        let syms = [
            Symbol::new("names-b"),
            Symbol::new("names-a"),
            Symbol::new(""),
        ];
        let got: Vec<String> = with_names(|n| syms.iter().map(|&s| n.get(s).to_owned()).collect());
        let want: Vec<String> = syms.iter().map(|s| s.name()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|_| std::thread::spawn(|| Symbol::new("shared-name").id()))
            .collect();
        let ids: Vec<u32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn concurrent_interning_hammer_many_names_many_threads() {
        // 16 threads race to intern the same 200 names, every thread in a
        // different order, interleaved with reads. All threads must agree on
        // every id, ids must be distinct per name, and the id → name lookup
        // must round-trip. This exercises the read-then-upgrade race in
        // `Symbol::new`: two threads can both miss the read lock and reach
        // the write path for the same name.
        const THREADS: usize = 16;
        const NAMES: usize = 200;
        let maps: Vec<Vec<(String, u32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        (0..NAMES)
                            .map(|i| {
                                // Per-thread visit order: stride through the
                                // name space so write races actually overlap.
                                let i = (i * (t + 1) + t) % NAMES;
                                let name = format!("hammer-{i}");
                                let sym = Symbol::new(&name);
                                assert_eq!(sym.name(), name, "lookup must round-trip");
                                (name, sym.id())
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut agreed: HashMap<String, u32> = HashMap::new();
        for per_thread in &maps {
            for (name, id) in per_thread {
                match agreed.get(name) {
                    Some(&prev) => assert_eq!(prev, *id, "threads disagree on {name}"),
                    None => {
                        agreed.insert(name.clone(), *id);
                    }
                }
            }
        }
        assert_eq!(agreed.len(), NAMES);
        let distinct: std::collections::HashSet<u32> = agreed.values().copied().collect();
        assert_eq!(distinct.len(), NAMES, "ids must be distinct per name");
        // Ids are stable: re-interning after the race returns the same ids.
        for (name, id) in &agreed {
            assert_eq!(Symbol::new(name).id(), *id);
        }
    }
}
