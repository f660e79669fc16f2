//! Hierarchical phase tree: nestable phase scopes on an [`Obs`] handle
//! that aggregate into a tree of `{calls, wall ns, work}` per phase,
//! answering "where does the wall-clock go?" for the sim event loop, the
//! trainer, the solver, and the controller tick.
//!
//! * [`Obs::enter`] opens a scope under the currently-open scope (or as a
//!   root) and returns a [`ProfScope`] guard; wall time is accumulated into
//!   the phase node when the guard drops. Scopes nest: the tree shape is the
//!   dynamic nesting of `enter` calls, keyed by phase name per parent.
//! * [`Obs::work`] adds to the **deterministic work counter** of the
//!   innermost open scope — a count of logical units processed (events
//!   dispatched, station updates, spans recorded) that is identical across
//!   runs of the same seed, unlike wall time.
//! * [`Obs::report`] snapshots the tree into a [`ProfReport`] with per-node
//!   totals, self time (total minus children), and pre-order rows for
//!   rendering.
//!
//! ## Scopes versus spans
//!
//! A scope and an [`Obs::span`] are distinct operations on the one handle.
//! Spans are self-contained events that any thread may record concurrently
//! (sample collection emits `graf.sample.*` spans from worker threads). The
//! tree keeps a single LIFO scope stack, so scopes are opened and closed by
//! one thread at a time: a component driven from worker threads (the
//! per-shard worlds of a sharded simulation) stays unobserved and its
//! coordinator records the phases instead.
//!
//! ## Hot-path guarantees
//!
//! A disabled handle returns from every operation after one branch: no
//! clock read, no lock, no allocation. `enter`/drop on an **enabled** handle
//! are allocation-free in steady state: node lookup is a linear scan of the
//! parent's child list (phase fan-out is small and names are
//! `&'static str`), and the scope stack plus per-node child vectors only
//! grow the first time a phase is seen. These functions are listed in
//! `lint.toml [[hot]]` so `graf-lint` keeps them free of lexical allocation
//! constructs; first-visit node creation lives in a separate cold function.
//!
//! Scopes must close in LIFO order (guards handle this naturally; it is
//! `debug_assert`ed). Re-entrant phases (a scope for a name already open)
//! count a call but only the outermost occurrence accumulates wall time, so
//! recursion never double-counts.
//!
//! ```
//! use graf_obs::Obs;
//!
//! let obs = Obs::enabled();
//! {
//!     let _loop = obs.enter("sim.event_loop");
//!     for _ in 0..3 {
//!         let _d = obs.enter("sim.event_loop.dispatch");
//!         obs.work(1);
//!     }
//! }
//! let report = obs.report();
//! let dispatch = report.find("sim.event_loop/sim.event_loop.dispatch").unwrap();
//! assert_eq!(dispatch.calls, 3);
//! assert_eq!(dispatch.work, 3);
//! assert!(report.find("sim.event_loop").unwrap().total_ns >= dispatch.total_ns);
//! ```

use std::sync::Arc;

use crate::{Inner, Obs};

/// Sentinel parent index for root nodes.
const NO_PARENT: u32 = u32::MAX;

/// One phase in the profile tree.
struct Node {
    name: &'static str,
    children: Vec<u32>,
    calls: u64,
    total_ns: u64,
    work: u64,
    /// Re-entrancy depth: number of currently-open scopes on this node.
    open: u32,
}

pub(crate) struct Tree {
    nodes: Vec<Node>,
    roots: Vec<u32>,
    stack: Vec<u32>,
}

impl Tree {
    pub(crate) fn new() -> Self {
        Tree { nodes: Vec::new(), roots: Vec::new(), stack: Vec::with_capacity(64) }
    }

    /// Hot: find-or-create the child named `name` under the open scope, bump
    /// its call count, and push it onto the scope stack.
    fn open_scope(&mut self, name: &'static str) -> u32 {
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = match self.find_child(parent, name) {
            Some(i) => i,
            None => self.add_node(parent, name),
        };
        let n = &mut self.nodes[idx as usize];
        n.calls += 1;
        n.open += 1;
        self.stack.push(idx);
        idx
    }

    /// Hot: pop the scope and accumulate its elapsed wall time (outermost
    /// occurrence only, so re-entrant phases never double-count).
    fn close_scope(&mut self, idx: u32, elapsed_ns: u64) {
        debug_assert_eq!(
            self.stack.last().copied(),
            Some(idx),
            "profiler scopes must close in LIFO order"
        );
        self.stack.pop();
        let n = &mut self.nodes[idx as usize];
        n.open = n.open.saturating_sub(1);
        if n.open == 0 {
            n.total_ns += elapsed_ns;
        }
    }

    /// Hot: add `units` to the innermost open scope's work counter.
    fn add_work(&mut self, units: u64) {
        if let Some(&idx) = self.stack.last() {
            self.nodes[idx as usize].work += units;
        }
    }

    /// Hot: linear scan of the parent's child list (root list for
    /// `NO_PARENT`). Phase fan-out is small, so this beats hashing.
    fn find_child(&self, parent: u32, name: &'static str) -> Option<u32> {
        let kids =
            if parent == NO_PARENT { &self.roots } else { &self.nodes[parent as usize].children };
        kids.iter().copied().find(|&i| self.nodes[i as usize].name == name)
    }

    /// Cold: first visit of a phase under this parent (allocates).
    fn add_node(&mut self, parent: u32, name: &'static str) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node {
            name,
            children: Vec::new(),
            calls: 0,
            total_ns: 0,
            work: 0,
            open: 0,
        });
        if parent == NO_PARENT {
            self.roots.push(idx);
        } else {
            self.nodes[parent as usize].children.push(idx);
        }
        idx
    }
}

impl Obs {
    /// Opens a phase scope nested under the innermost open scope; wall time
    /// accumulates into the phase when the returned guard drops. No-op (no
    /// allocation, no clock read) when disabled.
    ///
    /// The tree has one scope stack, so scopes on one tree are opened and
    /// closed by one thread at a time. Code running on worker threads
    /// records spans ([`Obs::span`]) or runs with a disabled handle; only
    /// the thread that coordinates it opens scopes.
    #[inline]
    pub fn enter(&self, name: &'static str) -> ProfScope {
        match &self.inner {
            Some(inner) => {
                let t0_ns = inner.start.elapsed().as_nanos() as u64;
                let idx = inner.tree.lock().expect("obs tree").open_scope(name);
                ProfScope { state: Some(ScopeState { inner: Arc::clone(inner), idx, t0_ns }) }
            }
            None => ProfScope { state: None },
        }
    }

    /// Closes `scope` and opens a sibling named `name` using a single clock
    /// read and lock acquisition: the instant the old phase ends is the
    /// instant the new one begins, so a hand-off between back-to-back hot
    /// phases (an event loop switching per-event scopes) leaves no
    /// unattributed gap in the parent. No-op when disabled.
    #[inline]
    pub fn switch(&self, mut scope: ProfScope, name: &'static str) -> ProfScope {
        if self.inner.is_none() {
            // Disabled handle: the guard (if recording) closes via Drop.
            return ProfScope { state: None };
        }
        let Some(s) = scope.state.take() else {
            // A recording handle handed a dead guard: just open fresh.
            return self.enter(name);
        };
        let mut tree = s.inner.tree.lock().expect("obs tree");
        let t = s.inner.start.elapsed().as_nanos() as u64;
        tree.close_scope(s.idx, t.saturating_sub(s.t0_ns));
        let idx = tree.open_scope(name);
        drop(tree);
        ProfScope { state: Some(ScopeState { inner: s.inner, idx, t0_ns: t }) }
    }

    /// Adds `units` to the innermost open scope's deterministic work counter
    /// (events dispatched, rows trained, …). No-op when disabled or when no
    /// scope is open.
    #[inline]
    pub fn work(&self, units: u64) {
        if let Some(inner) = &self.inner {
            inner.tree.lock().expect("obs tree").add_work(units);
        }
    }

    /// Snapshots the phase tree. Empty report when disabled.
    pub fn report(&self) -> ProfReport {
        match &self.inner {
            Some(inner) => ProfReport::from_tree(&inner.tree.lock().expect("obs tree")),
            None => ProfReport { rows: Vec::new() },
        }
    }
}

struct ScopeState {
    inner: Arc<Inner>,
    idx: u32,
    t0_ns: u64,
}

/// Scoped phase guard returned by [`Obs::enter`]; accumulates wall time on
/// drop. A no-op when the parent handle is disabled.
pub struct ProfScope {
    state: Option<ScopeState>,
}

impl ProfScope {
    /// `true` when this scope will actually record.
    pub fn is_recording(&self) -> bool {
        self.state.is_some()
    }
}

impl Drop for ProfScope {
    #[inline]
    fn drop(&mut self) {
        if let Some(s) = self.state.take() {
            let mut tree = s.inner.tree.lock().expect("obs tree");
            let elapsed = (s.inner.start.elapsed().as_nanos() as u64).saturating_sub(s.t0_ns);
            tree.close_scope(s.idx, elapsed);
        }
    }
}

/// One phase in a [`ProfReport`], in pre-order.
#[derive(Clone, Debug)]
pub struct ProfRow {
    /// Phase name as passed to [`Obs::enter`].
    pub name: &'static str,
    /// Slash-joined path from the root phase (`a/b/c`).
    pub path: String,
    /// Nesting depth (roots are 0).
    pub depth: usize,
    /// Times the scope was entered.
    pub calls: u64,
    /// Total wall time inside the scope (children included), nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to any child scope, nanoseconds.
    pub self_ns: u64,
    /// Deterministic work units recorded via [`Obs::work`].
    pub work: u64,
}

/// Snapshot of the profile tree: pre-order rows with totals and self time.
#[derive(Clone, Debug)]
pub struct ProfReport {
    /// Pre-order rows (each parent precedes its children).
    pub rows: Vec<ProfRow>,
}

impl ProfReport {
    fn from_tree(tree: &Tree) -> Self {
        let mut rows = Vec::new();
        // Iterative pre-order; roots and children in first-seen order.
        let mut todo: Vec<(u32, usize, String)> = Vec::new();
        for &r in tree.roots.iter().rev() {
            todo.push((r, 0, String::new()));
        }
        while let Some((idx, depth, prefix)) = todo.pop() {
            let n = &tree.nodes[idx as usize];
            let path =
                if prefix.is_empty() { n.name.to_string() } else { format!("{prefix}/{}", n.name) };
            let child_ns: u64 = n.children.iter().map(|&c| tree.nodes[c as usize].total_ns).sum();
            rows.push(ProfRow {
                name: n.name,
                path: path.clone(),
                depth,
                calls: n.calls,
                total_ns: n.total_ns,
                self_ns: n.total_ns.saturating_sub(child_ns),
                work: n.work,
            });
            for &c in n.children.iter().rev() {
                todo.push((c, depth + 1, path.clone()));
            }
        }
        ProfReport { rows }
    }

    /// Looks up a row by its slash-joined path.
    pub fn find(&self, path: &str) -> Option<&ProfRow> {
        self.rows.iter().find(|r| r.path == path)
    }

    /// Direct children of the row at `path` (rows at `path/<name>`).
    pub fn children(&self, path: &str) -> Vec<&ProfRow> {
        self.rows
            .iter()
            .filter(|r| {
                r.path.len() > path.len()
                    && r.path.starts_with(path)
                    && r.path.as_bytes()[path.len()] == b'/'
                    && !r.path[path.len() + 1..].contains('/')
            })
            .collect()
    }

    /// Sum of root-phase wall time, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.rows.iter().filter(|r| r.depth == 0).map(|r| r.total_ns).sum()
    }

    /// Human-readable table: indentation mirrors nesting; `total` and `self`
    /// in milliseconds, percentages relative to the whole profile.
    pub fn render(&self) -> String {
        let grand = self.total_ns().max(1) as f64;
        let mut out = String::new();
        out.push_str("phase                                            calls     total      self    %     work\n");
        for r in &self.rows {
            let label = format!("{:indent$}{}", "", r.name, indent = r.depth * 2);
            let pct = 100.0 * r.total_ns as f64 / grand;
            out.push_str(&format!(
                "{label:<46} {calls:>9} {total:>9.3} {selfms:>9.3} {pct:>5.1} {work:>8}\n",
                calls = r.calls,
                total = r.total_ns as f64 / 1e6,
                selfms = r.self_ns as f64 / 1e6,
                work = r.work,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_noop() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        {
            let s = obs.enter("a");
            assert!(!s.is_recording());
            obs.work(10);
        }
        assert!(obs.report().rows.is_empty());
        assert_eq!(obs.report().total_ns(), 0);
    }

    #[test]
    fn tree_aggregates_nested_scopes() {
        let obs = Obs::enabled();
        for _ in 0..4 {
            let _outer = obs.enter("outer");
            obs.work(1);
            for _ in 0..3 {
                let _inner = obs.enter("inner");
                obs.work(2);
            }
        }
        {
            let _other = obs.enter("other_root");
        }
        let rep = obs.report();
        let outer = rep.find("outer").expect("outer row");
        let inner = rep.find("outer/inner").expect("inner row");
        let other = rep.find("other_root").expect("other row");
        assert_eq!(outer.calls, 4);
        assert_eq!(outer.work, 4);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.calls, 12);
        assert_eq!(inner.work, 24);
        assert_eq!(inner.depth, 1);
        assert_eq!(other.calls, 1);
        assert!(outer.total_ns >= inner.total_ns, "parent covers child");
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // Pre-order: outer before inner before the second root.
        let paths: Vec<&str> = rep.rows.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner", "other_root"]);
    }

    #[test]
    fn same_name_under_different_parents_is_distinct() {
        let obs = Obs::enabled();
        {
            let _a = obs.enter("a");
            let _s = obs.enter("shared");
        }
        {
            let _b = obs.enter("b");
            let _s = obs.enter("shared");
            obs.work(7);
        }
        let rep = obs.report();
        assert_eq!(rep.find("a/shared").unwrap().work, 0);
        assert_eq!(rep.find("b/shared").unwrap().work, 7);
    }

    #[test]
    fn recursive_nesting_builds_a_chain_without_double_counting() {
        // A scope entered while an identically-named scope is open nests as a
        // child node (`rec/rec/...`), so recursion never double-counts one
        // node's wall time.
        fn recurse(obs: &Obs, depth: usize) {
            let _s = obs.enter("rec");
            if depth > 0 {
                recurse(obs, depth - 1);
            }
        }
        let obs = Obs::enabled();
        recurse(&obs, 3);
        let rep = obs.report();
        assert_eq!(rep.find("rec").unwrap().calls, 1);
        assert!(rep.find("rec/rec").is_some());
        assert!(rep.find("rec/rec/rec/rec").is_some());
        let root = rep.find("rec").unwrap();
        assert!(root.total_ns >= rep.find("rec/rec").unwrap().total_ns);
    }

    #[test]
    fn switch_hands_off_between_siblings_without_parent_gap() {
        let obs = Obs::enabled();
        {
            let _outer = obs.enter("outer");
            let mut s = obs.enter("a");
            for _ in 0..3 {
                s = obs.switch(s, "b");
                obs.work(1);
                s = obs.switch(s, "a");
            }
            drop(s);
        }
        let rep = obs.report();
        let outer = rep.find("outer").unwrap();
        let a = rep.find("outer/a").unwrap();
        let b = rep.find("outer/b").unwrap();
        assert_eq!(a.calls, 4, "initial enter + three switch-backs");
        assert_eq!(b.calls, 3);
        assert_eq!(b.work, 3, "work lands in the scope opened by switch");
        // The whole outer interval alternates between a and b: a switch
        // hand-off leaves zero unattributed self time (only the enter of
        // `a` and the final drop touch the parent).
        assert!(
            outer.self_ns <= outer.total_ns / 2,
            "switch must not leak time into the parent: self={} total={}",
            outer.self_ns,
            outer.total_ns
        );
        assert_eq!(outer.total_ns, a.total_ns + b.total_ns + outer.self_ns);
    }

    #[test]
    fn switch_on_a_disabled_handle_is_a_noop() {
        let obs = Obs::disabled();
        let s = obs.enter("a");
        let s2 = obs.switch(s, "b");
        assert!(!s2.is_recording());
        drop(s2);
        assert!(obs.report().rows.is_empty());
    }

    #[test]
    fn clones_share_the_tree() {
        let obs = Obs::enabled();
        let clone = obs.clone();
        {
            let _s = clone.enter("from_clone");
        }
        assert!(obs.report().find("from_clone").is_some());
    }

    #[test]
    fn children_lists_direct_children_only() {
        let obs = Obs::enabled();
        {
            let _a = obs.enter("a");
            let _b = obs.enter("b");
            let _c = obs.enter("c");
        }
        {
            let _a = obs.enter("a");
            let _d = obs.enter("d");
        }
        let rep = obs.report();
        let kids: Vec<&str> = rep.children("a").iter().map(|r| r.name).collect();
        assert_eq!(kids, vec!["b", "d"]);
    }

    #[test]
    fn render_contains_all_phases() {
        let obs = Obs::enabled();
        {
            let _a = obs.enter("alpha");
            let _b = obs.enter("beta");
        }
        let text = obs.report().render();
        assert!(text.contains("alpha"));
        assert!(text.contains("beta"));
    }
}
