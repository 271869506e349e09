//! Seeded workload inputs.
//!
//! Every input is a pure function of the workload seed and an index, so a
//! run can draw as many as its time allows and another run with the same
//! seed draws the same ones. The seed moves fault *placement* and the
//! automorphisms applied; the composition of a workload (fault counts,
//! fault shapes, the share of `n = 9`) is fixed, so runs under different
//! seeds stress the program in the same proportions.

use star_fault::{gen, FaultSet};
use star_perm::{factorial, Aut, Parity, Perm};

/// SplitMix64: small, fast and good enough to place faults and draw
/// arrival times.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one of several independent streams of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// The fault placements the workloads rotate through: uniform random,
/// all in one partite set (the case that makes `n! - 2|F_v|` tight),
/// clustered in one `S_4`, and the neighbourhood of one vertex.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    Random,
    SamePartite,
    Clustered,
    Adversarial,
}

pub const SHAPES: [Shape; 4] = [
    Shape::Random,
    Shape::SamePartite,
    Shape::Clustered,
    Shape::Adversarial,
];

/// One embed request: a dimension and its vertex faults.
#[derive(Clone, Debug)]
pub struct Scenario {
    pub n: usize,
    pub faults: FaultSet,
}

impl Scenario {
    /// The ring length Theorem 1 guarantees: `n! - 2|F_v|`.
    pub fn ring_len(&self) -> u64 {
        factorial(self.n) - 2 * self.faults.vertex_fault_count() as u64
    }

    /// Fault vertices in the wire format.
    pub fn fault_strings(&self) -> Vec<String> {
        self.faults.vertices().iter().map(Perm::to_string).collect()
    }

    /// Sorted fault ranks: identifies the literal scenario.
    pub fn ranks(&self) -> Vec<u32> {
        let mut r: Vec<u32> = self.faults.vertices().iter().map(Perm::rank).collect();
        r.sort_unstable();
        r
    }

    /// The image of this scenario under `aut`: an orbit mate, whose
    /// longest ring the oracle answers from the same canonical entry.
    pub fn mapped(&self, aut: &Aut) -> Scenario {
        let faults =
            FaultSet::from_vertices(self.n, self.faults.vertices().iter().map(|v| aut.apply(v)))
                .expect("an automorphism maps distinct vertices to distinct vertices");
        Scenario { n: self.n, faults }
    }
}

/// A uniform random automorphism of `S_n`.
pub fn random_aut(n: usize, rng: &mut Rng) -> Aut {
    Aut::from_ranks(n, rng.next_u64(), rng.next_u64())
}

/// `k` faults of the given shape in `S_n`, relabelled by a seeded
/// automorphism so that the deterministic shapes also give distinct
/// literal scenarios. Automorphisms keep the shape: a partite set maps
/// to a partite set, a sub-star to a sub-star, a neighbourhood to a
/// neighbourhood.
pub fn shaped(n: usize, k: usize, shape: Shape, seed: u64) -> Scenario {
    let faults = match shape {
        Shape::Random => gen::random_vertex_faults(n, k, seed),
        Shape::SamePartite => {
            let side = if seed & 1 == 0 {
                Parity::Even
            } else {
                Parity::Odd
            };
            gen::worst_case_same_partite(n, k, side, seed)
        }
        Shape::Clustered => gen::clustered_in_substar(n, k, 4, seed),
        Shape::Adversarial => gen::adversarial_neighborhood(n, k),
    }
    .expect("fault counts stay within each generator's range");
    let base = Scenario { n, faults };
    base.mapped(&random_aut(n, &mut Rng::new(seed)))
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    Rng::stream(seed, a.wrapping_mul(0x1_0000_0001).wrapping_add(b)).next_u64()
}

/// Scenario `i` of the `embed-fresh` list: `n = 9`, index 0 fault-free,
/// then `|F_v|` cycling 1..=6 under each of the four shapes in turn.
pub fn embed_fresh(seed: u64, i: u64) -> Scenario {
    if i == 0 {
        return Scenario {
            n: 9,
            faults: FaultSet::empty(9),
        };
    }
    let k = 1 + ((i - 1) % 6) as usize;
    let shape = SHAPES[((i - 1) / 6 % 4) as usize];
    shaped(9, k, shape, mix(seed, 1, i))
}

/// The `n = 10` scenarios that close `embed-fresh`: the full budget of 7
/// faults, in one partite set and clustered.
pub fn embed_fresh_tail(seed: u64) -> Vec<Scenario> {
    vec![
        shaped(10, 7, Shape::SamePartite, mix(seed, 2, 0)),
        shaped(10, 7, Shape::Clustered, mix(seed, 2, 1)),
    ]
}

/// `serve-orbit` base pool: 20 scenarios at `n = 8` (`|F_v|` 1..=5) and
/// 4 at `n = 9` (`|F_v|` 3..=6), shapes rotating.
pub fn orbit_base(seed: u64) -> Vec<Scenario> {
    let mut pool: Vec<Scenario> = (0..20u64)
        .map(|j| {
            shaped(
                8,
                1 + (j % 5) as usize,
                SHAPES[(j % 4) as usize],
                mix(seed, 3, j),
            )
        })
        .collect();
    pool.extend(
        (0..4u64).map(|j| shaped(9, 3 + j as usize, SHAPES[(j % 4) as usize], mix(seed, 4, j))),
    );
    pool
}

/// Every `N9_EVERY`-th `serve-orbit` request is an `n = 9` scenario.
pub const N9_EVERY: u64 = 40;
/// Every `REPEAT_EVERY`-th `serve-orbit` request repeats a literal fault
/// set this connection already sent.
pub const REPEAT_EVERY: u64 = 3;

/// The `serve-orbit` request stream of one connection: orbit mates of
/// the base pool, about a third of them literal repeats. Fresh mates
/// cycle through the base pool in order, so every run sends each base
/// scenario's orbit equally often.
pub struct OrbitStream {
    rng: Rng,
    base8: Vec<Scenario>,
    base9: Vec<Scenario>,
    sent8: Vec<Scenario>,
    sent9: Vec<Scenario>,
    i: u64,
}

impl OrbitStream {
    pub fn new(seed: u64, conn: u64) -> OrbitStream {
        let (base8, base9) = orbit_base(seed).into_iter().partition(|s| s.n == 8);
        OrbitStream {
            rng: Rng::stream(seed, 100 + conn),
            base8,
            base9,
            sent8: Vec::new(),
            sent9: Vec::new(),
            i: 0,
        }
    }
}

impl Iterator for OrbitStream {
    type Item = Scenario;

    fn next(&mut self) -> Option<Scenario> {
        self.i += 1;
        let n9 = self.i.is_multiple_of(N9_EVERY);
        let (base, sent) = if n9 {
            (&self.base9, &mut self.sent9)
        } else {
            (&self.base8, &mut self.sent8)
        };
        if self.i.is_multiple_of(REPEAT_EVERY) && !sent.is_empty() {
            return Some(sent[self.rng.below(sent.len() as u64) as usize].clone());
        }
        let s = &base[sent.len() % base.len()];
        let mate = s.mapped(&random_aut(s.n, &mut self.rng));
        sent.push(mate.clone());
        Some(mate)
    }
}

/// Shapes of never-seen `serve-cold` scenarios. The neighbourhood and
/// sub-star shapes are left out: their placements fall into few orbits
/// (one per fault count for a neighbourhood, about a hundred inside an
/// `S_4`), so they would hit instead of miss.
const COLD_SHAPES: [Shape; 2] = [Shape::Random, Shape::SamePartite];

/// `serve-cold` stored pool: the scenarios setup writes to the store.
pub fn cold_stored(seed: u64) -> Vec<Scenario> {
    (0..48u64)
        .map(|j| {
            shaped(
                8,
                4 + (j % 2) as usize,
                SHAPES[(j / 2 % 4) as usize],
                mix(seed, 5, j),
            )
        })
        .collect()
}

/// The `serve-cold` request stream of one connection: never-seen
/// scenarios (`n = 8`, `|F_v|` 4 or 5, so orbits practically never
/// repeat) alternating with orbit mates of the stored pool.
pub struct ColdStream {
    seed: u64,
    conn: u64,
    rng: Rng,
    stored: Vec<Scenario>,
    i: u64,
}

impl ColdStream {
    pub fn new(seed: u64, conn: u64) -> ColdStream {
        ColdStream {
            seed,
            conn,
            rng: Rng::stream(seed, 200 + conn),
            stored: cold_stored(seed),
            i: 0,
        }
    }
}

impl Iterator for ColdStream {
    type Item = Scenario;

    fn next(&mut self) -> Option<Scenario> {
        self.i += 1;
        if self.i % 2 == 1 {
            let j = self.i / 2;
            let k = 4 + (j % 2) as usize;
            let shape = COLD_SHAPES[(j / 2 % 2) as usize];
            return Some(shaped(8, k, shape, mix(self.seed, 6 + self.conn, j)));
        }
        let s = &self.stored[self.rng.below(self.stored.len() as u64) as usize];
        Some(s.mapped(&random_aut(8, &mut self.rng)))
    }
}

/// The largest scenario a workload embeds: where its per-layer peak
/// memory is measured.
pub fn largest(workload: &str, seed: u64) -> Scenario {
    match workload {
        "embed-fresh" => embed_fresh_tail(seed).swap_remove(0),
        "serve-orbit" => orbit_base(seed)
            .pop()
            .expect("the base pool ends with n = 9, |F_v| = 6"),
        _ => ColdStream::new(seed, 0)
            .step_by(2)
            .nth(1)
            .expect("request streams are endless"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a: Vec<_> = (0..30).map(|i| embed_fresh(7, i).ranks()).collect();
        let b: Vec<_> = (0..30).map(|i| embed_fresh(7, i).ranks()).collect();
        let c: Vec<_> = (0..30).map(|i| embed_fresh(8, i).ranks()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let orbit: Vec<_> = OrbitStream::new(3, 0).take(40).map(|s| s.ranks()).collect();
        assert_eq!(
            orbit,
            OrbitStream::new(3, 0)
                .take(40)
                .map(|s| s.ranks())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn fault_counts_and_shares_are_fixed() {
        for i in 1..25 {
            let s = embed_fresh(11, i);
            assert_eq!(s.faults.vertex_fault_count(), 1 + ((i - 1) % 6) as usize);
        }
        let n9 = OrbitStream::new(5, 1)
            .take(400)
            .filter(|s| s.n == 9)
            .count();
        assert_eq!(n9 as u64, 400 / N9_EVERY);
    }
}
