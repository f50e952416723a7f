//! The four workloads: their pinned engine configuration and the seeded
//! op streams the drive and the traced replay both consume.

use mastro::{EngineConfig, ENGINE_CONFIG_KEYS};
use obda_genont::{
    churn_stream, figure1_presets, university_scenario, Cell, ChurnOp, UniversityScenario,
};
use obda_server::{EndpointKind, Lang};

/// Set-ups per run. The timed ops are split into this many rounds, each
/// served by a freshly set-up server, so the set-ups are spread across
/// the run and `setup_s` is their median; the other metrics are medians
/// of per-round figures.
pub const ROUNDS: usize = 9;

/// Statements per uni-churn write batch.
pub const BATCH: usize = 4;

/// Preset scale of the Figure-1 analogs: a pass over the eleven takes
/// ≈0.4 s on a 2-vCPU Xeon VM, so a run holds enough classifications
/// for its tail to sit inside the slowest preset's samples and its
/// median inside FMA 1.4's.
pub const PRESET_SCALE: f64 = 0.2;

/// Seed of the university data (the server's default). Every run serves
/// the same store, so `--seed` moves only the op streams: data drawn per
/// seed changed the per-query costs, and with them the metrics, by more
/// than the host's own run-to-run noise.
pub const DATA_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UniRead,
    UniLookupVirtual,
    UniChurn,
    Fig1Classify,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UniRead,
        Workload::UniLookupVirtual,
        Workload::UniChurn,
        Workload::Fig1Classify,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UniRead => "uni-read",
            Workload::UniLookupVirtual => "uni-lookup-virtual",
            Workload::UniChurn => "uni-churn",
            Workload::Fig1Classify => "fig1-classify",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections (threads, on fig1-classify). Two
    /// keep both cores of a 2-vCPU VM busy: with one, every request hands
    /// off between threads on an idle core, and the rounds of one
    /// uni-read run spread up to 50% in ops/s. uni-churn needs a writer
    /// beside a reader.
    pub fn connections(self) -> usize {
        match self {
            Workload::Fig1Classify => 1,
            _ => 2,
        }
    }

    /// University scenario scale (≈ 40 persons per unit).
    pub fn scale(self) -> usize {
        match self {
            Workload::UniLookupVirtual => 50,
            _ => 20,
        }
    }

    /// The tail percentile: the highest whole percentile with ≥10 samples
    /// beyond it at the default run size (20 s), in every round where the
    /// metrics are per round: p99 on uni-read and uni-lookup-virtual, p98
    /// on uni-churn (~550 reads a round) and fig1-classify (~550
    /// classifications a run).
    pub fn tail(self) -> (f64, &'static str) {
        match self {
            Workload::UniRead | Workload::UniLookupVirtual => (0.99, "p99"),
            Workload::UniChurn | Workload::Fig1Classify => (0.98, "p98"),
        }
    }

    /// Whether the rate and latency metrics are medians of per-round
    /// figures, so a round the host slowed down moves them no more than
    /// any other round, or figures of the whole run: fig1-classify's
    /// rounds (~60 classifications, five of the slowest preset) are too
    /// small to hold a median and a tail each.
    pub fn per_round(self) -> bool {
        self != Workload::Fig1Classify
    }

    /// Timed ops per second of `--seconds`. The op count of a run is
    /// fixed by `--seconds` alone, never by the clock: these rates only
    /// size it so a run at the baseline lasts about `--seconds`.
    fn planned_rate(self) -> f64 {
        match self {
            Workload::UniRead => 900.0,
            Workload::UniLookupVirtual => 1500.0,
            Workload::UniChurn => 330.0,
            Workload::Fig1Classify => 2.5 * figure1_presets().len() as f64,
        }
    }

    /// The university scenario this workload serves.
    pub fn scenario(self) -> UniversityScenario {
        university_scenario(self.scale(), DATA_SEED)
    }

    pub fn endpoint_kind(self) -> Option<EndpointKind> {
        match self {
            Workload::UniRead | Workload::UniLookupVirtual => Some(EndpointKind::University),
            Workload::UniChurn => Some(EndpointKind::UniversityAbox),
            Workload::Fig1Classify => None,
        }
    }

    /// The engine configuration with every `ENGINE_CONFIG_KEYS` key set
    /// explicitly, so no `QUONTO_*` knob can change what is measured.
    pub fn engine_config(self) -> EngineConfig {
        self.engine_config_with_data(match self {
            Workload::UniLookupVirtual => "virtual",
            _ => "materialized",
        })
    }

    /// [`Self::engine_config`] with another data mode: the answer checks
    /// build the other mode's engine as the reference.
    pub fn engine_config_with_data(self, data: &str) -> EngineConfig {
        let rewriting = match self {
            Workload::UniChurn => "ndl",
            _ => "perfectref",
        };
        let mut cfg = EngineConfig::new();
        for key in ENGINE_CONFIG_KEYS {
            let value = match *key {
                "rewriting" => rewriting,
                "data" => data,
                "eval_threads" => "1",
                "rewrite_cache" => "on",
                "shards" => "1",
                "shard_max_inflight" => "0",
                "ebox" => "off",
                other => panic!("engine key `{other}` has no pinned value"),
            };
            cfg.set(key, value).expect("pinned engine values parse");
        }
        cfg
    }
}

/// One request of a closed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    Read {
        class: usize,
        lang: Lang,
        text: String,
    },
    Write {
        batch: Vec<ChurnOp>,
    },
    Classify {
        class: usize,
    },
}

/// What one round serves: the warm pass and each connection's ops.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPlan {
    pub warm: Vec<Op>,
    pub conns: Vec<Vec<Op>>,
}

/// SplitMix64: the benchmark's own seeded generator.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_0B0A_BE4C_0001)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The university read mix: the scenario's six CQs plus the two SPARQL
/// forms `loadgen` sends.
pub fn read_mix() -> Vec<(String, Lang, String)> {
    let mut mix: Vec<(String, Lang, String)> = university_scenario(1, DATA_SEED)
        .queries
        .into_iter()
        .map(|q| (q.name, Lang::Cq, q.text))
        .collect();
    mix.push((
        "s1".into(),
        Lang::Sparql,
        "SELECT ?x WHERE { ?x a :Student }".into(),
    ));
    mix.push((
        "s2".into(),
        Lang::Sparql,
        "SELECT ?x ?n WHERE { ?x a :GradStudent . ?x :personName ?n . }".into(),
    ));
    mix
}

/// Slots of one read cycle: every query once, q4 and s2 five times.
/// With eight equal slots the median falls on the edge between the
/// fourth- and fifth-fastest queries, in the gap between two clusters of
/// latencies. Here it lands inside s2's block, next to q4's: the two
/// cheap queries both engine shapes serve in ≈0.5 ms, at least an eighth
/// of the samples away from a class whose median differs by 1.7× or
/// more, and the tail inside the slowest query's block.
const READ_CYCLE: [usize; 16] = [0, 1, 2, 3, 3, 3, 3, 3, 4, 5, 6, 7, 7, 7, 7, 7];

/// Lookup templates of uni-lookup-virtual: `(class name, weight)`. The
/// weights keep the median and the p99 inside one class each.
const LOOKUP_TEMPLATES: [(&str, usize); 6] = [
    ("teacherOf-s", 3),
    ("takesCourse-s", 3),
    ("advisor-s", 2),
    ("title-join-s", 2),
    ("teacherOf-o", 3),
    ("student-o", 2),
];

/// A seeded stream of read ops cycling the read mix, shuffled per cycle.
fn read_stream(rng: &mut Rng, n: usize) -> Vec<Op> {
    let mix = read_mix();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut cycle = READ_CYCLE;
        rng.shuffle(&mut cycle);
        for &q in &cycle {
            if out.len() == n {
                break;
            }
            let (_, lang, text) = &mix[q];
            out.push(Op::Read {
                class: q,
                lang: *lang,
                text: text.clone(),
            });
        }
    }
    out
}

/// Individuals of the generated scenario the lookup constants are drawn
/// from: professors, students, grad students and courses.
struct Individuals {
    profs: Vec<i64>,
    students: Vec<i64>,
    grads: Vec<i64>,
    courses: usize,
}

fn individuals(scenario: &UniversityScenario) -> Individuals {
    let mut ind = Individuals {
        profs: Vec::new(),
        students: Vec::new(),
        grads: Vec::new(),
        courses: 0,
    };
    for table in &scenario.tables {
        match table.name.as_str() {
            "TB_PERSON" => {
                for row in &table.rows {
                    if let [Cell::Int(id), _, Cell::Int(ptype)] = row.as_slice() {
                        match ptype {
                            1 => ind.students.push(*id),
                            2 => {
                                ind.students.push(*id);
                                ind.grads.push(*id);
                            }
                            _ => ind.profs.push(*id),
                        }
                    }
                }
            }
            "TB_COURSE" => ind.courses = table.rows.len(),
            _ => {}
        }
    }
    ind
}

/// Draws each template's constants from its own pool without
/// replacement, so a text repeats only after well over a thousand other
/// lookups: the 1,024-entry rewrite cache is cleared wholesale when full,
/// so by then the first occurrence's entry is gone.
struct LookupGen {
    rng: Rng,
    pools: Vec<Vec<String>>,
    cursors: Vec<usize>,
    slots: Vec<usize>,
}

impl LookupGen {
    fn new(ind: &Individuals, mut rng: Rng) -> LookupGen {
        let people = |ids: &[i64]| ids.iter().map(|i| format!("person/{i}")).collect();
        let courses: Vec<String> = (0..ind.courses).map(|c| format!("course/{c}")).collect();
        let mut pools: Vec<Vec<String>> = vec![
            people(&ind.profs),
            people(&ind.students),
            people(&ind.grads),
            people(&ind.students),
            courses.clone(),
            courses,
        ];
        for p in &mut pools {
            rng.shuffle(p);
        }
        let slots = LOOKUP_TEMPLATES
            .iter()
            .enumerate()
            .flat_map(|(t, &(_, w))| std::iter::repeat_n(t, w))
            .collect();
        LookupGen {
            rng,
            cursors: vec![0; pools.len()],
            pools,
            slots,
        }
    }

    /// The next constant of template `t`, cycling its shuffled pool in
    /// one fixed order, so a constant comes back only after every other
    /// one of its pool.
    fn constant(&mut self, t: usize) -> String {
        let c = self.pools[t][self.cursors[t]].clone();
        self.cursors[t] = (self.cursors[t] + 1) % self.pools[t].len();
        c
    }

    fn stream(&mut self, n: usize) -> Vec<Op> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut cycle = self.slots.clone();
            self.rng.shuffle(&mut cycle);
            for t in cycle {
                if out.len() == n {
                    break;
                }
                let c = self.constant(t);
                let text = match t {
                    0 => format!("q(y) :- teacherOf(\"{c}\", y)"),
                    1 => format!("q(y) :- takesCourse(\"{c}\", y)"),
                    2 => format!("q(y) :- advisor(\"{c}\", y)"),
                    3 => format!("q(y, n) :- takesCourse(\"{c}\", y), courseTitle(y, n)"),
                    4 => format!("q(x) :- teacherOf(x, \"{c}\")"),
                    _ => format!("q(x) :- Student(x), takesCourse(x, \"{c}\")"),
                };
                out.push(Op::Read {
                    class: t,
                    lang: Lang::Cq,
                    text,
                });
            }
        }
        out
    }
}

/// The classes ops are tallied under, indexed by the ops' `class`;
/// writes are tallied apart.
pub fn class_names(w: Workload) -> Vec<String> {
    match w {
        Workload::UniRead | Workload::UniChurn => {
            read_mix().into_iter().map(|(n, _, _)| n).collect()
        }
        Workload::UniLookupVirtual => LOOKUP_TEMPLATES
            .iter()
            .map(|(n, _)| n.to_string())
            .collect(),
        Workload::Fig1Classify => figure1_presets().into_iter().map(|s| s.name).collect(),
    }
}

/// Timed ops of a run of `seconds` seconds.
pub fn total_ops(w: Workload, seconds: u64) -> usize {
    let ops = (w.planned_rate() * seconds as f64).round() as usize;
    match w {
        // Whole passes over the presets, at least one per round.
        Workload::Fig1Classify => {
            let n = figure1_presets().len();
            ops.div_ceil(n).max(ROUNDS) * n
        }
        _ => ops.max(ROUNDS * w.connections() * READ_CYCLE.len()),
    }
}

/// Splits `total` into `parts` near-equal shares (larger ones first).
fn share(total: usize, parts: usize, i: usize) -> usize {
    total / parts + usize::from(i < total % parts)
}

/// The seed of one round's generator, derived from the run seed.
fn round_seed(seed: u64, round: usize) -> u64 {
    let mut r = Rng::new(
        seed.wrapping_add(round as u64)
            .wrapping_mul(0x2545_F491_4F6C_DD1D),
    );
    r.next_u64()
}

/// The plan of one round: a pure function of `(workload, seed, seconds,
/// round)`.
pub fn round_plan(w: Workload, seed: u64, seconds: u64, round: usize) -> RoundPlan {
    let total = total_ops(w, seconds);
    let mut rng = Rng::new(round_seed(seed, round));
    match w {
        Workload::UniRead => {
            let n = share(total, ROUNDS, round);
            let warm = read_mix()
                .into_iter()
                .enumerate()
                .map(|(class, (_, lang, text))| Op::Read { class, lang, text })
                .collect();
            let conns = (0..w.connections())
                .map(|c| read_stream(&mut rng, share(n, w.connections(), c)))
                .collect();
            RoundPlan { warm, conns }
        }
        Workload::UniLookupVirtual => {
            let n = share(total, ROUNDS, round);
            let ind = individuals(&w.scenario());
            let mut gen = LookupGen::new(&ind, rng);
            let warm = gen.stream(LOOKUP_TEMPLATES.len() * 2);
            // Deal one stream out in turn, so the server sees it in about
            // its generated order and repeats stay far apart.
            let all = gen.stream(n);
            let k = w.connections();
            let conns = (0..k)
                .map(|c| all.iter().skip(c).step_by(k).cloned().collect())
                .collect();
            RoundPlan { warm, conns }
        }
        Workload::UniChurn => {
            let n = share(total, ROUNDS, round);
            let warm = read_mix()
                .into_iter()
                .enumerate()
                .map(|(class, (_, lang, text))| Op::Read { class, lang, text })
                .collect();
            // Connection A alternates a read with a write batch;
            // connection B only reads.
            let a_len = share(n, 2, 0);
            let writes = a_len / 2;
            let churn = churn_stream(w.scale(), rng.next_u64(), writes * BATCH);
            let mut batches = churn.chunks(BATCH);
            let a_reads = read_stream(&mut rng, a_len - writes);
            let mut a = Vec::with_capacity(a_len);
            for (i, read) in a_reads.into_iter().enumerate() {
                a.push(read);
                if i < writes {
                    let batch = batches.next().expect("one batch per write").to_vec();
                    a.push(Op::Write { batch });
                }
            }
            let b = read_stream(&mut rng, share(n, 2, 1));
            RoundPlan {
                warm,
                conns: vec![a, b],
            }
        }
        Workload::Fig1Classify => {
            let presets = figure1_presets().len();
            let passes = share(total / presets, ROUNDS, round);
            let mut ops = Vec::with_capacity(passes * presets);
            for _ in 0..passes {
                let mut order: Vec<usize> = (0..presets).collect();
                rng.shuffle(&mut order);
                ops.extend(order.into_iter().map(|class| Op::Classify { class }));
            }
            RoundPlan {
                warm: Vec::new(),
                conns: vec![ops],
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_streams_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            let a = round_plan(w, 7, 2, 1);
            assert_eq!(a, round_plan(w, 7, 2, 1), "{}", w.name());
            assert_ne!(a, round_plan(w, 8, 2, 1), "{}", w.name());
            assert_ne!(a, round_plan(w, 7, 2, 2), "{}", w.name());
        }
    }

    #[test]
    fn every_engine_key_is_pinned() {
        for w in Workload::ALL {
            let rendered = w.engine_config().render();
            for key in ENGINE_CONFIG_KEYS {
                assert!(rendered.contains(&format!("{key}=")), "{key}: {rendered}");
            }
            w.engine_config()
                .validate()
                .expect("pinned config is valid");
        }
    }

    #[test]
    fn churn_writer_alternates_and_reader_only_reads() {
        let plan = round_plan(Workload::UniChurn, 3, 2, 0);
        let a = &plan.conns[0];
        assert!(a.iter().step_by(2).all(|op| matches!(op, Op::Read { .. })));
        assert!(a
            .iter()
            .skip(1)
            .step_by(2)
            .all(|op| matches!(op, Op::Write { batch } if batch.len() == BATCH)));
        assert!(plan.conns[1].iter().all(|op| matches!(op, Op::Read { .. })));
    }

    #[test]
    fn repeated_lookups_are_far_apart() {
        let plan = round_plan(Workload::UniLookupVirtual, 11, 20, 0);
        let longest = plan.conns.iter().map(Vec::len).max().unwrap();
        let mut last: std::collections::HashMap<&str, usize> = Default::default();
        let mut min_gap = usize::MAX;
        let texts = plan
            .warm
            .iter()
            .chain((0..longest).flat_map(|i| plan.conns.iter().filter_map(move |c| c.get(i))));
        for (i, op) in texts.enumerate() {
            let Op::Read { text, .. } = op else {
                unreachable!()
            };
            if let Some(prev) = last.insert(text, i) {
                min_gap = min_gap.min(i - prev);
            }
        }
        assert!(min_gap >= 1500, "a lookup repeats after {min_gap} ops");
    }

    #[test]
    fn fixed_op_counts() {
        for w in Workload::ALL {
            let ops: usize = (0..ROUNDS)
                .flat_map(|r| round_plan(w, 1, 10, r).conns)
                .map(|conn| conn.len())
                .sum();
            assert_eq!(ops, total_ops(w, 10), "{}", w.name());
        }
    }
}
