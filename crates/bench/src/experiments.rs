//! The experiment harness: one function per experiment row of DESIGN.md §4.
//!
//! Each experiment returns an [`ExperimentTable`] — the series the paper's
//! (absent) evaluation section would have reported — and is also exercised
//! by a Criterion bench target. Absolute times are machine-specific; the
//! claims under test are *shapes*: polynomial vs FPT vs W\[1\]-hard growth,
//! and who wins where.

use crate::workloads::*;
use gtgd_chase::{chase, ground_saturation, par_ground_saturation, ChaseBudget};
use gtgd_core::{
    check_omq, check_omq_fpt, clique_to_cqs_instance, cqs_uniformly_ucqk_equivalent, evaluate_omq,
    grid_cqs_family, grohe::has_clique, marked_grid_cqs_family, omq_to_cqs_database,
    omq_ucqk_equivalent, Cqs, EvalConfig, GroundingPolicy, Omq,
};
use gtgd_data::Instance;
use gtgd_query::{
    core_of, decomp_eval::check_answer_decomposed, holds_boolean, parse_cq, parse_ucq,
    tw::cq_treewidth, Ucq,
};
use std::time::Instant;

/// One regenerated table/figure.
#[derive(Debug, Clone)]
pub struct ExperimentTable {
    /// Experiment id (E1…E15).
    pub id: String,
    /// Short title.
    pub title: String,
    /// The paper claim under test.
    pub claim: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// Interpretation notes.
    pub notes: String,
}

impl ExperimentTable {
    /// Renders the table as aligned text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        out.push_str(&format!("claim: {}\n", self.claim));
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str(&format!("note: {}\n", self.notes));
        }
        out
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn fmt_ms(x: f64) -> String {
    format!("{x:.3}")
}

/// What the kernel's join planner picks for a CQ body under
/// `Strategy::Auto`: the leapfrog executor for cyclic / high-degree
/// multiway bodies, the backtracker otherwise (see `gtgd_query::compile`).
fn planner_of(atoms: &[gtgd_query::QAtom]) -> &'static str {
    if gtgd_query::CompiledQuery::compile(atoms).prefers_wcoj() {
        "wcoj"
    } else {
        "backtrack"
    }
}

/// Times `f` with one warmup, then reports the minimum over an adaptive
/// number of repeats: always at least 3, stopping once ~30 ms of
/// measurement have accumulated (capped at 1000 repeats). Sub-millisecond
/// workloads get enough samples for the minimum to converge on the true
/// cost (best-of-3 is noise-dominated on a time-sliced container), while
/// multi-millisecond workloads still finish after the mandatory 3 repeats.
pub(crate) fn bench_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    f();
    let budget = std::time::Duration::from_millis(30);
    let start = Instant::now();
    let mut best = f64::INFINITY;
    for done in 1..=1000u32 {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(ms(t));
        if done >= 3 && start.elapsed() >= budget {
            break;
        }
    }
    best
}

/// E1 — Prop 2.1: bounded-treewidth CQ evaluation is polynomial; the
/// generic backtracking baseline blows up on high-treewidth (clique)
/// queries.
pub fn e1_bounded_tw_eval() -> ExperimentTable {
    let mut rows = Vec::new();
    for &n in &[20usize, 60, 120, 240] {
        let db = grid_db(4, n);
        for (qname, q) in [
            ("path-4 (tw 1)", path_cq_h(4)),
            ("ladder-3 (tw 2)", grid_query(2, 3)),
            ("grid-3x3 (tw 3)", grid_query(3, 3)),
        ] {
            let dp = bench_ms(|| check_answer_decomposed(&q, &db, &[]));
            let bt = bench_ms(|| holds_boolean(&q, &db));
            rows.push(vec![
                n.to_string(),
                db.len().to_string(),
                qname.to_string(),
                fmt_ms(dp),
                fmt_ms(bt),
            ]);
        }
    }
    ExperimentTable {
        id: "E1".into(),
        title: "Bounded-treewidth CQ evaluation (join-tree DP vs backtracking)".into(),
        claim: "Prop 2.1: CQ_k evaluation in O(|D|^{k+1}·|q|)".into(),
        columns: vec![
            "grid cols".into(),
            "|D|".into(),
            "query".into(),
            "DP ms".into(),
            "backtrack ms".into(),
        ],
        rows,
        notes: "Both engines scale polynomially in |D| for fixed tw; \
                the DP bound degree tracks k+1."
            .into(),
    }
}

/// A horizontal path CQ over `H` for grid databases.
fn path_cq_h(len: usize) -> gtgd_query::Cq {
    let atoms: Vec<String> = (0..len).map(|i| format!("H(P{i},P{})", i + 1)).collect();
    parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap()
}

/// E2 — chase growth: oblivious chase size/time across TGD classes; the
/// guarded ground part stays linear in |D| (bounded arity).
pub fn e2_chase() -> ExperimentTable {
    let mut rows = Vec::new();
    for &n in &[50usize, 100, 200, 400] {
        // Linear chain ontology on a unary database.
        let chain = chain_ontology(8);
        let db: Instance = (0..n)
            .map(|i| gtgd_data::GroundAtom::named("A0", &[&format!("x{i}")]))
            .collect();
        let t_chain = bench_ms(|| chase(&db, &chain, &ChaseBudget::unbounded()));
        let sz_chain = chase(&db, &chain, &ChaseBudget::unbounded()).instance.len();
        // Full transitive closure on a path.
        let tc = tc_ontology();
        let pdb = path_db(n.min(120));
        let t_tc = bench_ms(|| chase(&pdb, &tc, &ChaseBudget::unbounded()));
        let sz_tc = chase(&pdb, &tc, &ChaseBudget::unbounded()).instance.len();
        // Guarded org ontology: infinite chase; measure ground saturation,
        // sequential and on the 4-worker parallel path.
        let org = org_ontology();
        let odb = org_db(n);
        let t_sat = bench_ms(|| ground_saturation(&odb, &org));
        let t_psat = bench_ms(|| par_ground_saturation(&odb, &org, 4));
        let sz_sat = ground_saturation(&odb, &org).len();
        rows.push(vec![
            n.to_string(),
            sz_chain.to_string(),
            fmt_ms(t_chain),
            sz_tc.to_string(),
            fmt_ms(t_tc),
            sz_sat.to_string(),
            fmt_ms(t_sat),
            fmt_ms(t_psat),
            format!("{:.2}", t_sat / t_psat),
        ]);
    }
    ExperimentTable {
        id: "E2".into(),
        title: "Chase growth across TGD classes".into(),
        claim: "Oblivious chase (Section 2); guarded ground part linear in |D|".into(),
        columns: vec![
            "n".into(),
            "chain atoms".into(),
            "chain ms".into(),
            "tc atoms".into(),
            "tc ms".into(),
            "guarded chase↓ atoms".into(),
            "chase↓ ms".into(),
            "chase↓ par@4 ms".into(),
            "speedup@4".into(),
        ],
        rows,
        notes: "chain grows n·(rules+1); tc is quadratic in the path length; \
                guarded chase↓ stays linear in |D|. The parallel column uses \
                per-round type dedup + dirty-bag tracking (par_ground_saturation), \
                so its lead over the sequential engine is algorithmic, not \
                core-count dependent."
            .into(),
    }
}

/// E3 — Prop 3.3(3): (G, UCQ_k) OMQ evaluation is FPT: polynomial in ‖D‖
/// for fixed Q; the query-dependent factor is confined to f(‖Q‖).
pub fn e3_omq_fpt() -> ExperimentTable {
    let org = org_ontology();
    let q = Omq::full_schema(
        org.clone(),
        parse_ucq("Q(X) :- Emp(X), WorksIn(X,D), HasMgr(D,M)").unwrap(),
    );
    let cfg = EvalConfig::default();
    let mut rows = Vec::new();
    for &n in &[20usize, 50, 100, 200, 400] {
        let db = org_db(n);
        let t_fpt = bench_ms(|| check_omq_fpt(&q, &db, &[val("e0")], &cfg));
        let t_gen = bench_ms(|| check_omq(&q, &db, &[val("e0")], &cfg));
        let (holds, exact) = check_omq_fpt(&q, &db, &[val("e0")], &cfg);
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            fmt_ms(t_fpt),
            fmt_ms(t_gen),
            holds.to_string(),
            exact.to_string(),
        ]);
    }
    ExperimentTable {
        id: "E3".into(),
        title: "FPT OMQ evaluation in (G, UCQ_1)".into(),
        claim: "Prop 3.3(3): evaluation in |D|^{O(1)} · f(|Q|)".into(),
        columns: vec![
            "n".into(),
            "|D|".into(),
            "FPT pipeline ms".into(),
            "generic ms".into(),
            "holds".into(),
            "exact".into(),
        ],
        rows,
        notes: "Time grows polynomially (near-linearly) in |D| for the \
                fixed OMQ; both pipelines agree."
            .into(),
    }
}

/// E4 — Theorems 5.3/5.4 & 5.13: the clique reduction. Evaluation time on
/// reduced databases grows sharply with k for the unbounded-treewidth grid
/// family, while a bounded-treewidth (path) query over the same databases
/// stays flat: the dichotomy's two sides.
pub fn e4_clique_reduction() -> ExperimentTable {
    let mut rows = Vec::new();
    for &k in &[2usize, 3] {
        let fam = grid_cqs_family(k);
        let grid_planner = {
            let mut labels: Vec<&'static str> = fam
                .cqs
                .query
                .disjuncts
                .iter()
                .map(|cq| planner_of(&cq.atoms))
                .collect();
            labels.dedup();
            if labels.len() == 1 {
                labels[0]
            } else {
                "mixed"
            }
        };
        for &n in &[6usize, 8, 10] {
            let mut g = random_graph(n, 0.5, 11 + n as u64);
            plant_clique(&mut g, k, 5);
            let t_build = bench_ms(|| clique_to_cqs_instance(&g, k, &fam));
            let reduced = clique_to_cqs_instance(&g, k, &fam);
            let t_eval =
                bench_ms(|| gtgd_query::ucq_holds_boolean(&fam.cqs.query, &reduced.grohe.instance));
            let verdict = gtgd_query::ucq_holds_boolean(&fam.cqs.query, &reduced.grohe.instance);
            let truth = has_clique(&g, k);
            // Bounded-treewidth side: a path query over the same database.
            let t_path =
                bench_ms(|| check_answer_decomposed(&path_cq_h(3), &reduced.grohe.instance, &[]));
            rows.push(vec![
                k.to_string(),
                n.to_string(),
                reduced.grohe.instance.len().to_string(),
                fmt_ms(t_build),
                fmt_ms(t_eval),
                fmt_ms(t_path),
                verdict.to_string(),
                truth.to_string(),
                grid_planner.to_string(),
            ]);
        }
    }
    ExperimentTable {
        id: "E4".into(),
        title: "p-Clique reduction: unbounded vs bounded treewidth".into(),
        claim: "Thm 5.13 / 5.4: unbounded semantic treewidth ⇒ W[1]-hard; \
                bounded ⇒ FPT"
            .into(),
        columns: vec![
            "k".into(),
            "|V(G)|".into(),
            "|D*|".into(),
            "build ms".into(),
            "grid-eval ms".into(),
            "path-eval ms".into(),
            "reduction verdict".into(),
            "brute-force clique".into(),
            "grid planner".into(),
        ],
        rows,
        notes: "Verdicts always match brute force. Grid-query evaluation \
                time explodes with k; the treewidth-1 path query stays flat."
            .into(),
    }
}

/// E5 — Theorem 5.7 / Prop 5.8 / Lemma 6.8: the OMQ→CQS reduction database
/// D* is computable in |D|^{O(1)}·f(|Q|) and preserves answers.
pub fn e5_omq_to_cqs() -> ExperimentTable {
    let sigma = gtgd_chase::parse_tgds(
        "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> Audited(D)",
    )
    .unwrap();
    let q = Omq::full_schema(
        sigma,
        parse_ucq("Q(X) :- Emp(X), WorksIn(X,D), Audited(D)").unwrap(),
    );
    let cfg = EvalConfig::default();
    let mut rows = Vec::new();
    for &n in &[20usize, 50, 100, 200] {
        let db = org_db(n);
        let t_build = bench_ms(|| omq_to_cqs_database(&q, &db, &ChaseBudget::unbounded()));
        let d_star = omq_to_cqs_database(&q, &db, &ChaseBudget::unbounded()).unwrap();
        let open = evaluate_omq(&q, &db, &cfg);
        let closed: std::collections::HashSet<Vec<gtgd_data::Value>> =
            gtgd_query::evaluate_ucq(&q.query, &d_star)
                .into_iter()
                .filter(|t| t.iter().all(|x| db.dom_contains(*x)))
                .collect();
        let t_closed = bench_ms(|| gtgd_query::evaluate_ucq(&q.query, &d_star));
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            d_star.len().to_string(),
            fmt_ms(t_build),
            fmt_ms(t_closed),
            (open.answers == closed).to_string(),
        ]);
    }
    ExperimentTable {
        id: "E5".into(),
        title: "OMQ→CQS reduction (open-world answered closed-world)".into(),
        claim: "Prop 5.8 / Lemma 6.8: D* |= Σ, answers preserved, \
                |D|^{O(1)}·f(|Q|) construction"
            .into(),
        columns: vec![
            "n".into(),
            "|D|".into(),
            "|D*|".into(),
            "build ms".into(),
            "closed-eval ms".into(),
            "answers agree".into(),
        ],
        rows,
        notes: "|D*| grows linearly in |D|; open- and closed-world answers \
                coincide on every size."
            .into(),
    }
}

/// The Example 4.4 OMQ/CQS family, with `extra` additional diamond atoms to
/// scale the query size without exceeding the contraction cap.
fn example_4_4_scaled(extra: usize) -> (Vec<gtgd_chase::Tgd>, Ucq) {
    let sigma = gtgd_chase::parse_tgds("R2(X) -> R4(X)").unwrap();
    let mut atoms = vec![
        "P(X2,X1)".to_string(),
        "P(X4,X1)".to_string(),
        "P(X2,X3)".to_string(),
        "P(X4,X3)".to_string(),
        "R1(X1)".to_string(),
        "R2(X2)".to_string(),
        "R3(X3)".to_string(),
        "R4(X4)".to_string(),
    ];
    for i in 0..extra {
        atoms.push(format!("S{i}(X1)"));
    }
    let q = parse_ucq(&format!("Q() :- {}", atoms.join(", "))).unwrap();
    (sigma, q)
}

/// E6 — Theorem 5.1: deciding UCQ_k-equivalence of guarded OMQs.
pub fn e6_meta_omq() -> ExperimentTable {
    let cfg = EvalConfig::default();
    let policy = GroundingPolicy::default();
    let mut rows = Vec::new();
    for &extra in &[0usize, 2, 4] {
        let (sigma, q) = example_4_4_scaled(extra);
        let omq = Omq::full_schema(sigma, q);
        let t = bench_ms(|| omq_ucqk_equivalent(&omq, 1, &policy, &cfg));
        let (verdict, witness) = omq_ucqk_equivalent(&omq, 1, &policy, &cfg);
        rows.push(vec![
            format!("Ex4.4+{extra}"),
            omq.query.disjuncts[0].atom_count().to_string(),
            "1".into(),
            fmt_ms(t),
            verdict.holds.to_string(),
            witness
                .map(|w| gtgd_query::tw::ucq_treewidth(&w.query).to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
        // Without the ontology: not equivalent.
        let (_, q2) = example_4_4_scaled(extra);
        let omq0 = Omq::full_schema(vec![], q2);
        let t0 = bench_ms(|| omq_ucqk_equivalent(&omq0, 1, &policy, &cfg));
        let (v0, _) = omq_ucqk_equivalent(&omq0, 1, &policy, &cfg);
        rows.push(vec![
            format!("Ex4.4+{extra} (Σ=∅)"),
            omq0.query.disjuncts[0].atom_count().to_string(),
            "1".into(),
            fmt_ms(t0),
            v0.holds.to_string(),
            "-".into(),
        ]);
    }
    ExperimentTable {
        id: "E6".into(),
        title: "Meta problem: UCQ_k-equivalence of guarded OMQs".into(),
        claim: "Thm 5.1: 2ExpTime-complete; Example 4.4 is UCQ_1-equivalent \
                exactly because of Σ"
            .into(),
        columns: vec![
            "OMQ".into(),
            "atoms".into(),
            "k".into(),
            "decide ms".into(),
            "equivalent".into(),
            "witness tw".into(),
        ],
        rows,
        notes: "The ontology flips the verdict; decision time grows steeply \
                with query size (the meta problem's exponential shape)."
            .into(),
    }
}

/// E7 — Theorem 5.10 / Prop 5.11: the contraction-based approximation for
/// FG_m CQSs.
pub fn e7_meta_cqs() -> ExperimentTable {
    let cfg = EvalConfig::default();
    let mut rows = Vec::new();
    for &extra in &[0usize, 2, 4] {
        let (sigma, q) = example_4_4_scaled(extra);
        let s = Cqs::new(sigma, q);
        let t = bench_ms(|| cqs_uniformly_ucqk_equivalent(&s, 1, &cfg));
        let (verdict, witness) = cqs_uniformly_ucqk_equivalent(&s, 1, &cfg);
        rows.push(vec![
            format!("Ex4.4+{extra}"),
            s.query.disjuncts[0].atom_count().to_string(),
            fmt_ms(t),
            verdict.holds.to_string(),
            witness
                .map(|w| w.query.disjuncts.len().to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    // A genuinely non-equivalent family: grid CQSs with marking constraints.
    for &k in &[2usize, 3] {
        let fam = marked_grid_cqs_family(k);
        let t = bench_ms(|| cqs_uniformly_ucqk_equivalent(&fam.cqs, 1, &cfg));
        let (verdict, _) = cqs_uniformly_ucqk_equivalent(&fam.cqs, 1, &cfg);
        rows.push(vec![
            format!("grid k={k}"),
            fam.cqs.query.disjuncts[0].atom_count().to_string(),
            fmt_ms(t),
            verdict.holds.to_string(),
            "-".into(),
        ]);
    }
    ExperimentTable {
        id: "E7".into(),
        title: "Meta problem: uniform UCQ_k-equivalence of CQSs".into(),
        claim: "Thm 5.10 / Prop 5.11: decided via contraction approximations".into(),
        columns: vec![
            "CQS".into(),
            "atoms".into(),
            "decide ms".into(),
            "equivalent (k=1)".into(),
            "approx disjuncts".into(),
        ],
        rows,
        notes: "Constraint-aware rewritings found for the diamond family; \
                grid families stay unbounded, as the dichotomy requires."
            .into(),
    }
}

/// E8 — Grohe's baseline (Theorem 4.1): semantic treewidth of plain CQs via
/// cores.
pub fn e8_cq_core() -> ExperimentTable {
    let mut rows = Vec::new();
    for &n in &[4usize, 6, 8, 10] {
        // A triangle with a pendant path of length n (core = triangle).
        let mut atoms = vec![
            "E(Y0,Y1)".to_string(),
            "E(Y1,Y2)".to_string(),
            "E(Y2,Y0)".to_string(),
        ];
        for i in 0..n {
            atoms.push(format!("E(Z{i},Z{})", i + 1));
        }
        let q = parse_cq(&format!("Q() :- {}", atoms.join(", "))).unwrap();
        let t = bench_ms(|| core_of(&q));
        let core = core_of(&q);
        rows.push(vec![
            (n + 3).to_string(),
            q.atom_count().to_string(),
            core.atom_count().to_string(),
            cq_treewidth(&core).to_string(),
            fmt_ms(t),
        ]);
    }
    ExperimentTable {
        id: "E8".into(),
        title: "CQ cores and semantic treewidth (Grohe's criterion)".into(),
        claim: "Thm 4.1 footnote: q ∈ CQ_k^≡ iff core(q) ∈ CQ_k".into(),
        columns: vec![
            "atoms in".into(),
            "|q|".into(),
            "|core|".into(),
            "core tw".into(),
            "core ms".into(),
        ],
        rows,
        notes: "Pendant paths fold into the triangle; semantic treewidth is \
                2 regardless of syntactic size."
            .into(),
    }
}

/// E9 — ablation: the oblivious chase (the paper's semantics) vs the
/// restricted chase (skip satisfied triggers) on a workload where the data
/// already witnesses many heads.
pub fn e9_chase_ablation() -> ExperimentTable {
    use gtgd_chase::restricted_chase;
    let sigma = gtgd_chase::parse_tgds(
        "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> Audited(D)",
    )
    .unwrap();
    let mut rows = Vec::new();
    for &n in &[50usize, 100, 200, 400] {
        // Half the employees already have a workplace: the restricted chase
        // skips those triggers, the oblivious chase fires them anyway.
        let db = org_db(n);
        let budget = ChaseBudget::unbounded();
        let t_obl = bench_ms(|| chase(&db, &sigma, &budget));
        let obl = chase(&db, &sigma, &budget);
        let t_res = bench_ms(|| restricted_chase(&db, &sigma, &budget));
        let res = restricted_chase(&db, &sigma, &budget);
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            obl.instance.len().to_string(),
            fmt_ms(t_obl),
            res.instance.len().to_string(),
            fmt_ms(t_res),
        ]);
    }
    ExperimentTable {
        id: "E9".into(),
        title: "Ablation: oblivious vs restricted chase".into(),
        claim: "Section 2's oblivious chase is canonical but larger; both \
                are universal models"
            .into(),
        columns: vec![
            "n".into(),
            "|D|".into(),
            "oblivious atoms".into(),
            "oblivious ms".into(),
            "restricted atoms".into(),
            "restricted ms".into(),
        ],
        rows,
        notes: "The restricted chase materializes fewer atoms by skipping \
                satisfied triggers; certain answers coincide."
            .into(),
    }
}

/// E10 — Prop 3.2/3.3 hardness side: evaluation time of clique queries
/// (unbounded treewidth) vs path queries (tw 1) under a guarded ontology.
pub fn e10_hardness_shape() -> ExperimentTable {
    let sigma = gtgd_chase::parse_tgds("E(X,Y) -> Node(X), Node(Y)").unwrap();
    let g = {
        let mut g = random_graph(13, 0.5, 97);
        plant_clique(&mut g, 5, 13);
        g
    };
    let db = graph_db(&g);
    let cfg = EvalConfig::default();
    let mut rows = Vec::new();
    for &k in &[2usize, 3, 4, 5] {
        let qc = Omq::full_schema(sigma.clone(), Ucq::single(clique_cq(k)));
        let qp = Omq::full_schema(sigma.clone(), Ucq::single(path_cq(k)));
        let t_clique = bench_ms(|| check_omq(&qc, &db, &[], &cfg));
        let t_path = bench_ms(|| check_omq_fpt(&qp, &db, &[], &cfg));
        let (holds, _) = check_omq(&qc, &db, &[], &cfg);
        rows.push(vec![
            k.to_string(),
            fmt_ms(t_clique),
            fmt_ms(t_path),
            holds.to_string(),
            format!(
                "{}/{}",
                planner_of(&clique_cq(k).atoms),
                planner_of(&path_cq(k).atoms)
            ),
        ]);
    }
    ExperimentTable {
        id: "E10".into(),
        title: "Hardness shape: clique vs path OMQs under guarded Σ".into(),
        claim: "Prop 3.3(1): W[1]-hard in general; FPT for UCQ_k".into(),
        columns: vec![
            "k".into(),
            "clique-query ms".into(),
            "path-query ms".into(),
            "clique found".into(),
            "planner (clique/path)".into(),
        ],
        rows,
        notes: "Under the backtracker, clique-query time grows \
                superpolynomially in k while path-query time is flat — the \
                dichotomy in one table. The planner column shows the \
                leapfrog executor taking over the cyclic clique bodies \
                (k ≥ 3), which absorbs the growth at this scale; the \
                forced-backtracker series in BENCH_wcoj.json preserves the \
                hardness shape."
            .into(),
    }
}

/// E11 — Prop D.2: UCQ rewriting for linear TGDs. The rewriting answers
/// open-world queries by a single closed-world UCQ evaluation, with no
/// chase at query time.
pub fn e11_linear_rewriting() -> ExperimentTable {
    use gtgd_chase::linear_rewrite;
    let sigma = gtgd_chase::parse_tgds(
        "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> Unit(D)",
    )
    .unwrap();
    let q = parse_ucq("Q(X) :- WorksIn(X,D), Unit(D)").unwrap();
    let rewritten = linear_rewrite(&q, &sigma);
    let omq = Omq::full_schema(sigma.clone(), q.clone());
    let cfg = EvalConfig::default();
    let mut rows = Vec::new();
    for &n in &[50usize, 150, 400, 800] {
        let db = org_db(n);
        let t_rewrite = bench_ms(|| gtgd_query::evaluate_ucq(&rewritten, &db));
        let t_chase = bench_ms(|| evaluate_omq(&omq, &db, &cfg));
        let via_rewrite: std::collections::HashSet<Vec<gtgd_data::Value>> =
            gtgd_query::evaluate_ucq(&rewritten, &db)
                .into_iter()
                .filter(|t| t.iter().all(|v| db.dom_contains(*v)))
                .collect();
        let via_chase = evaluate_omq(&omq, &db, &cfg);
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            rewritten.disjuncts.len().to_string(),
            fmt_ms(t_rewrite),
            fmt_ms(t_chase),
            (via_rewrite == via_chase.answers).to_string(),
        ]);
    }
    ExperimentTable {
        id: "E11".into(),
        title: "UCQ rewriting for linear TGDs vs chase-based evaluation".into(),
        claim: "Prop D.2: for Σ ∈ L, q(chase(D,Σ)) = q′(D) for a computable UCQ q′".into(),
        columns: vec![
            "n".into(),
            "|D|".into(),
            "rewriting disjuncts".into(),
            "rewrite-eval ms".into(),
            "chase-eval ms".into(),
            "answers agree".into(),
        ],
        rows,
        notes: "The rewriting pays its cost once offline; per-database \
                evaluation avoids the chase entirely."
            .into(),
    }
}

/// E12 — evaluation-engine shootout on acyclic queries: Yannakakis
/// semijoins vs the Prop 2.1 tree-decomposition DP vs backtracking.
pub fn e12_engine_shootout() -> ExperimentTable {
    use gtgd_query::{check_answer_yannakakis, HomSearch};
    let mut rows = Vec::new();
    for &n in &[50usize, 150, 400] {
        let db = grid_db(4, n);
        let q = path_cq_h(5);
        let t_yan = bench_ms(|| check_answer_yannakakis(&q, &db, &[]));
        let t_dp = bench_ms(|| check_answer_decomposed(&q, &db, &[]));
        let t_bt = bench_ms(|| holds_boolean(&q, &db));
        let agree = check_answer_yannakakis(&q, &db, &[]) == Some(holds_boolean(&q, &db))
            && check_answer_decomposed(&q, &db, &[]) == holds_boolean(&q, &db);
        // Full answer enumeration: every homomorphism of the query body,
        // sequential vs split across 4 workers on the most selective atom.
        let t_enum = bench_ms(|| HomSearch::new(&q.atoms, &db).all());
        let t_penum = bench_ms(|| HomSearch::new(&q.atoms, &db).par_all(4));
        let enum_agree = {
            let norm = |homs: Vec<std::collections::HashMap<gtgd_query::Var, gtgd_data::Value>>| {
                let mut v: Vec<Vec<_>> = homs
                    .into_iter()
                    .map(|h| {
                        let mut kv: Vec<_> = h.into_iter().collect();
                        kv.sort();
                        kv
                    })
                    .collect();
                v.sort();
                v
            };
            norm(HomSearch::new(&q.atoms, &db).all())
                == norm(HomSearch::new(&q.atoms, &db).par_all(4))
        };
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            fmt_ms(t_yan),
            fmt_ms(t_dp),
            fmt_ms(t_bt),
            agree.to_string(),
            fmt_ms(t_enum),
            fmt_ms(t_penum),
            enum_agree.to_string(),
            planner_of(&q.atoms).to_string(),
        ]);
    }
    ExperimentTable {
        id: "E12".into(),
        title: "Engine shootout on acyclic queries".into(),
        claim: "Yannakakis (α-acyclic), Prop 2.1 DP, and backtracking agree; \
                all are polynomial here"
            .into(),
        columns: vec![
            "grid cols".into(),
            "|D|".into(),
            "Yannakakis ms".into(),
            "DP ms".into(),
            "backtrack ms".into(),
            "agree".into(),
            "enum ms".into(),
            "enum par@4 ms".into(),
            "enum agree".into(),
            "planner".into(),
        ],
        rows,
        notes: "Acyclic queries admit all three engines; the shapes coincide \
                because the query is fixed. The enum columns compare full \
                answer enumeration sequentially vs par_all at 4 workers \
                (identical answer sets by construction)."
            .into(),
    }
}

/// E13 — typed-chase telemetry: the number of distinct canonical Σ-types is
/// a function of Σ alone (the ExpTime bound's practical face); bag counts
/// grow with the data, the type memo does not.
pub fn e13_type_telemetry() -> ExperimentTable {
    use gtgd_chase::{typed_chase_with, DepthPolicy, Saturator};
    let org = org_ontology();
    let mut rows = Vec::new();
    for &n in &[10usize, 50, 200] {
        let db = org_db(n);
        let mut sat = Saturator::new(&org);
        let t = typed_chase_with(
            &db,
            &org,
            DepthPolicy::Adaptive {
                extra_levels: 3,
                max_level: 32,
            },
            &mut sat,
        );
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            t.bag_count.to_string(),
            t.max_level.to_string(),
            sat.type_count().to_string(),
            t.instance.len().to_string(),
            t.saturated.to_string(),
        ]);
    }
    ExperimentTable {
        id: "E13".into(),
        title: "Typed-chase telemetry: bags grow with data, types do not".into(),
        claim: "DESIGN §2 / Lemma A.3: reachable canonical types depend only \
                on Σ (the bounded-arity ExpTime bound)"
            .into(),
        columns: vec![
            "n".into(),
            "|D|".into(),
            "bags".into(),
            "max level".into(),
            "canonical types".into(),
            "chase atoms".into(),
            "saturated".into(),
        ],
        rows,
        notes: "The type-memo column is flat across a 20× data sweep — the \
                data-independence that makes the FPT algorithm work."
            .into(),
    }
}

/// E14 — the constraint-aware planner (Section 1's optimization
/// motivation): a Σ-rewriting lowers the evaluation exponent, and the
/// planned execution matches direct evaluation.
pub fn e14_planner() -> ExperimentTable {
    use gtgd_core::plan_cqs;
    let cfg = EvalConfig::default();
    let sigma = gtgd_chase::parse_tgds("R2(X) -> R4(X)").unwrap();
    let q = parse_ucq(
        "Q() :- P(X2,X1), P(X4,X1), P(X2,X3), P(X4,X3), \
         R1(X1), R2(X2), R3(X3), R4(X4)",
    )
    .unwrap();
    let s = Cqs::new(sigma, q);
    let t_plan = bench_ms(|| plan_cqs(&s, 2, &cfg));
    let plan = plan_cqs(&s, 2, &cfg);
    let mut rows = Vec::new();
    for &n in &[40usize, 120, 360] {
        let db = diamond_db(n);
        let t_direct = bench_ms(|| s.check(&db, &[]).unwrap());
        let t_planned = bench_ms(|| plan.check(&db, &[]).unwrap());
        let agree = s.check(&db, &[]).unwrap() == plan.check(&db, &[]).unwrap();
        rows.push(vec![
            n.to_string(),
            db.len().to_string(),
            fmt_ms(t_plan),
            fmt_ms(t_direct),
            fmt_ms(t_planned),
            plan.planned_treewidth.to_string(),
            agree.to_string(),
        ]);
    }
    ExperimentTable {
        id: "E14".into(),
        title: "Constraint-aware planning (Example 4.4 as an optimizer)".into(),
        claim: "Section 1 / Thm 5.10: constraints lower semantic treewidth; \
                the planner exploits it"
            .into(),
        columns: vec![
            "n".into(),
            "|D|".into(),
            "plan ms (offline)".into(),
            "direct ms".into(),
            "planned ms".into(),
            "planned tw".into(),
            "agree".into(),
        ],
        rows,
        notes: "Planning cost is paid once; the treewidth-1 plan answers the \
                treewidth-2 question on every constraint-satisfying database."
            .into(),
    }
}

/// A Σ-satisfying diamond workload for E14.
fn diamond_db(n: usize) -> Instance {
    let mut atoms = Vec::new();
    for i in 0..n {
        let l = format!("l{i}");
        let r0 = format!("r{i}");
        let r1 = format!("r{}", (i + 1) % n);
        atoms.push(gtgd_data::GroundAtom::named("P", &[&l, &r0]));
        atoms.push(gtgd_data::GroundAtom::named("P", &[&l, &r1]));
        atoms.push(gtgd_data::GroundAtom::named("R2", &[&l]));
        atoms.push(gtgd_data::GroundAtom::named("R4", &[&l]));
        atoms.push(gtgd_data::GroundAtom::named("R1", &[&r0]));
        atoms.push(gtgd_data::GroundAtom::named("R3", &[&r1]));
    }
    Instance::from_atoms(atoms)
}

/// E15 — sequential vs parallel engine shootout: the sequential chase as
/// the reference row, ground saturation through the std-only worker-pool
/// path (`par_ground_saturation`) and morsel-driven WCOJ enumeration, with
/// agreement checked in-row.
/// The saturation speedup is dominated by the parallel path's per-round
/// type dedup and dirty-bag tracking, so it holds even on a single core;
/// extra workers compound it on multicore machines.
pub fn e15_parallel_shootout() -> ExperimentTable {
    let tc = tc_ontology();
    let org = org_ontology();
    let budget = ChaseBudget::unbounded();
    let mut rows = Vec::new();
    for &n in &[100usize, 200, 400] {
        // Full-TGD chase (transitive closure of a path), sequential only.
        let pdb = path_db(n.min(120));
        let t_chase = bench_ms(|| chase(&pdb, &tc, &budget));
        // Guarded ground saturation on the org workload.
        let odb = org_db(n);
        let t_sat = bench_ms(|| ground_saturation(&odb, &org));
        let t_psat1 = bench_ms(|| par_ground_saturation(&odb, &org, 1));
        let t_psat4 = bench_ms(|| par_ground_saturation(&odb, &org, 4));
        // Morsel-driven WCOJ enumeration (DESIGN §12): full triangle
        // enumeration over a random graph through `par_table` at widths
        // 1/2/4/8 — the whole-trie-search parallel path, not just the
        // depth-0 split. Every width must reproduce the width-1 rows in
        // the same order.
        let g = crate::workloads::random_graph(n, 0.08, 7);
        let gdb = crate::workloads::graph_db(&g);
        let plan = gtgd_query::CompiledQuery::compile(&crate::workloads::clique_cq(3).atoms);
        let wcoj_ws: Vec<f64> = [1usize, 2, 4, 8]
            .iter()
            .map(|&w| {
                bench_ms(|| {
                    plan.search(&gdb)
                        .strategy(gtgd_query::Strategy::Wcoj)
                        .par_table(w)
                        .len()
                })
            })
            .collect();
        let enum_ref = plan
            .search(&gdb)
            .strategy(gtgd_query::Strategy::Wcoj)
            .par_table(1);
        let enum_agree = [2usize, 4, 8].iter().all(|&w| {
            plan.search(&gdb)
                .strategy(gtgd_query::Strategy::Wcoj)
                .par_table(w)
                == enum_ref
        });
        let agree =
            par_ground_saturation(&odb, &org, 4) == ground_saturation(&odb, &org) && enum_agree;
        rows.push(vec![
            n.to_string(),
            fmt_ms(t_chase),
            fmt_ms(t_sat),
            fmt_ms(t_psat1),
            fmt_ms(t_psat4),
            format!("{:.2}", t_sat / t_psat4),
            fmt_ms(wcoj_ws[0]),
            fmt_ms(wcoj_ws[1]),
            fmt_ms(wcoj_ws[2]),
            fmt_ms(wcoj_ws[3]),
            agree.to_string(),
        ]);
    }
    ExperimentTable {
        id: "E15".into(),
        title: "Sequential vs parallel engines".into(),
        claim: "DESIGN §Parallel execution: the parallel paths agree with the \
                sequential engines and the saturation path wins by an \
                algorithmic margin"
            .into(),
        columns: vec![
            "n".into(),
            "chase seq ms".into(),
            "chase↓ seq ms".into(),
            "chase↓ par@1 ms".into(),
            "chase↓ par@4 ms".into(),
            "sat speedup@4".into(),
            "wcoj enum w=1 ms".into(),
            "wcoj enum w=2 ms".into(),
            "wcoj enum w=4 ms".into(),
            "wcoj enum w=8 ms".into(),
            "agree".into(),
        ],
        rows,
        notes: "There is no parallel chase column: the pool-parallel chase \
                was slower than the sequential one at every width measured \
                and was removed. par_ground_saturation restructures the Kleene round \
                (type dedup + dirty bags + value index) and wins outright. \
                The wcoj enum columns time morsel-driven triangle \
                enumeration per worker width; read them against \
                available_parallelism — on a 1-core container every width \
                time-slices one CPU and w>1 only adds scheduling overhead."
            .into(),
    }
}

/// E16 — incremental materialization (DESIGN §13): single-fact insert /
/// retract latency on a [`gtgd_chase::MaintainedInstance`] vs re-chasing
/// the updated base from scratch, on the E9 org workload (existential
/// chain ontology) and the E15 transitive-closure workload. Each repeat
/// inserts one fresh fact into the warm maintained instance and then
/// retracts it (DRed), so the state — and therefore the cost — is
/// identical across repeats; the from-scratch column chases the grown
/// base with the same engine the maintained path would otherwise call.
pub fn e16_incremental_maintenance() -> ExperimentTable {
    use gtgd_chase::ChaseRunner;
    use gtgd_query::instance_isomorphic;
    let org_sigma = gtgd_chase::parse_tgds(
        "Emp(X) -> WorksIn(X,D). WorksIn(X,D) -> Dept(D). Dept(D) -> Audited(D)",
    )
    .unwrap();
    let tc = tc_ontology();
    let budget = ChaseBudget::unbounded();
    // (row key, ontology, base, the fact to insert/retract)
    let cases: Vec<(String, &[gtgd_chase::Tgd], Instance, gtgd_data::GroundAtom)> =
        [100usize, 200, 400]
            .iter()
            .map(|&n| {
                (
                    format!("org/{n}"),
                    org_sigma.as_slice(),
                    org_db(n),
                    gtgd_data::GroundAtom::named("Emp", &["e_new"]),
                )
            })
            .chain([60usize, 120].iter().map(|&n| {
                (
                    format!("tc/{n}"),
                    tc.as_slice(),
                    path_db(n),
                    gtgd_data::GroundAtom::named("E", &["n_new", "n0"]),
                )
            }))
            .collect();
    let mut rows = Vec::new();
    for (key, sigma, db, fact) in cases {
        let mut grown = db.clone();
        grown.insert(fact.clone());
        let t_full = bench_ms(|| chase(&grown, sigma, &budget));
        let mut m = ChaseRunner::new(sigma).budget(budget).maintain(&db);
        // Warmup pair, then best-of over an adaptive repeat budget, timing
        // insert and retract separately (the pair restores the pre-state:
        // DRed purges the fired triggers, so the re-insert re-fires them).
        m.insert([fact.clone()]);
        m.retract([fact.clone()]);
        let (mut t_ins, mut t_ret) = (f64::INFINITY, f64::INFINITY);
        let start = Instant::now();
        for done in 1..=1000u32 {
            let t = Instant::now();
            std::hint::black_box(m.insert([fact.clone()]));
            t_ins = t_ins.min(ms(t));
            let t = Instant::now();
            std::hint::black_box(m.retract([fact.clone()]));
            t_ret = t_ret.min(ms(t));
            if done >= 3 && start.elapsed() >= std::time::Duration::from_millis(30) {
                break;
            }
        }
        // Equivalence spot-check: maintained post-insert fixpoint vs the
        // re-chase of the grown base.
        m.insert([fact.clone()]);
        let agree = instance_isomorphic(m.instance(), &chase(&grown, sigma, &budget).instance);
        rows.push(vec![
            key,
            grown.len().to_string(),
            m.instance().len().to_string(),
            fmt_ms(t_full),
            fmt_ms(t_ins),
            format!("{:.0}", t_full / t_ins),
            fmt_ms(t_ret),
            format!("{:.0}", t_full / t_ret),
            agree.to_string(),
        ]);
    }
    ExperimentTable {
        id: "E16".into(),
        title: "Incremental maintenance vs from-scratch re-chase".into(),
        claim: "DESIGN §13: a single-fact update costs the delta, not the \
                instance"
            .into(),
        columns: vec![
            "workload/n".into(),
            "|D|".into(),
            "chase atoms".into(),
            "full re-chase ms".into(),
            "insert 1 fact ms".into(),
            "insert speedup".into(),
            "retract 1 fact ms".into(),
            "retract speedup".into(),
            "agree".into(),
        ],
        rows,
        notes: "insert fires only the triggers the new fact enables \
                (frontier seeding from the delta), so its speedup grows \
                with n. retract runs DRed over recorded firings but then \
                rebuilds the survivor indexes (DESIGN §13), so its win \
                comes from skipping re-derivation — largest where the \
                chase does real work (tc)."
            .into(),
    }
}

/// E17 — snapshot + serve amortization (see `crate::serve` for the full
/// measurement and `BENCH_serve.json` for the published numbers): warm
/// daemon query round-trips vs a full cold `gtgd` process run, and
/// snapshot load vs re-chase, on the org and transitive-closure
/// workloads.
pub fn e17_serve_amortization() -> ExperimentTable {
    let rows = crate::serve::serve_benchmark()
        .iter()
        .map(|m| {
            vec![
                m.workload.clone(),
                m.atoms.to_string(),
                m.answers.to_string(),
                fmt_ms(m.cold_ms),
                fmt_ms(m.warm_query_ms),
                format!("{:.0}", m.cold_over_warm()),
                fmt_ms(m.rechase_ms),
                fmt_ms(m.load_ms),
                format!("{:.0}", m.load_speedup()),
                m.answers_agree.to_string(),
            ]
        })
        .collect();
    ExperimentTable {
        id: "E17".into(),
        title: "Snapshot + serve amortization".into(),
        claim: "DESIGN §14: persisting the fixpoint moves chase, index \
                build, and plan compilation off the query hot path"
            .into(),
        columns: vec![
            "workload/n".into(),
            "atoms".into(),
            "answers".into(),
            "cold run ms".into(),
            "warm query ms".into(),
            "cold/warm".into(),
            "re-chase ms".into(),
            "load ms".into(),
            "load speedup".into(),
            "agree".into(),
        ],
        rows,
        notes: "cold spawns the real gtgd binary when one is built next \
                to this executable (the published BENCH_serve.json always \
                does) and otherwise re-chases in-process; warm is one \
                line-delimited-JSON round-trip against the daemon with a \
                hot plan cache. load re-reads the snapshot to query-ready: \
                sequential decode + validated index install — no joins, \
                no re-sorting; the fired-set rebuild (hashing) is \
                deferred to the first write (thaw_ms in the JSON)."
            .into(),
    }
}

/// All experiments in order.
pub fn all_experiments() -> Vec<fn() -> ExperimentTable> {
    vec![
        e1_bounded_tw_eval,
        e2_chase,
        e3_omq_fpt,
        e4_clique_reduction,
        e5_omq_to_cqs,
        e6_meta_omq,
        e7_meta_cqs,
        e8_cq_core,
        e9_chase_ablation,
        e10_hardness_shape,
        e11_linear_rewriting,
        e12_engine_shootout,
        e13_type_telemetry,
        e14_planner,
        e15_parallel_shootout,
        e16_incremental_maintenance,
        e17_serve_amortization,
    ]
}

/// Runs one experiment by id (`"E1"`…`"E17"`).
pub fn run_experiment(id: &str) -> Option<ExperimentTable> {
    let table = match id {
        "E1" => e1_bounded_tw_eval(),
        "E2" => e2_chase(),
        "E3" => e3_omq_fpt(),
        "E4" => e4_clique_reduction(),
        "E5" => e5_omq_to_cqs(),
        "E6" => e6_meta_omq(),
        "E7" => e7_meta_cqs(),
        "E8" => e8_cq_core(),
        "E9" => e9_chase_ablation(),
        "E10" => e10_hardness_shape(),
        "E11" => e11_linear_rewriting(),
        "E12" => e12_engine_shootout(),
        "E13" => e13_type_telemetry(),
        "E14" => e14_planner(),
        "E15" => e15_parallel_shootout(),
        "E16" => e16_incremental_maintenance(),
        "E17" => e17_serve_amortization(),
        _ => return None,
    };
    Some(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The correctness columns of the fast experiments must be all-true:
    /// reduction verdicts match brute force, open/closed answers agree,
    /// rewriting agrees with the chase, engines agree.
    #[test]
    fn experiment_correctness_columns() {
        let t4 = e4_clique_reduction();
        for row in &t4.rows {
            assert_eq!(row[6], row[7], "E4 verdict vs brute force: {row:?}");
        }
        let t5 = e5_omq_to_cqs();
        for row in &t5.rows {
            assert_eq!(row[5], "true", "E5 answers agree: {row:?}");
        }
        let t11 = e11_linear_rewriting();
        for row in &t11.rows {
            assert_eq!(row[5], "true", "E11 answers agree: {row:?}");
        }
        let t12 = e12_engine_shootout();
        for row in &t12.rows {
            assert_eq!(row[5], "true", "E12 engines agree: {row:?}");
            assert_eq!(row[8], "true", "E12 par enumeration agrees: {row:?}");
        }
        let t15 = e15_parallel_shootout();
        for row in &t15.rows {
            let agree = row.last().expect("E15 rows end with the agree flag");
            assert_eq!(agree, "true", "E15 parallel engines agree: {row:?}");
        }
        let t14 = e14_planner();
        for row in &t14.rows {
            assert_eq!(row[6], "true", "E14 plan agrees: {row:?}");
        }
        let t16 = e16_incremental_maintenance();
        for row in &t16.rows {
            assert_eq!(row[8], "true", "E16 maintained ≡ re-chased: {row:?}");
        }
    }

    /// E13's type-count column must be constant across the data sweep —
    /// the data-independence of the type memo.
    #[test]
    fn type_memo_is_data_independent() {
        let t = e13_type_telemetry();
        let counts: Vec<&String> = t.rows.iter().map(|r| &r[4]).collect();
        assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
    }

    #[test]
    fn tables_render() {
        let t = ExperimentTable {
            id: "E0".into(),
            title: "t".into(),
            claim: "c".into(),
            columns: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()]],
            notes: "n".into(),
        };
        let r = t.render();
        assert!(r.contains("E0") && r.contains('1'));
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("E99").is_none());
    }
}
