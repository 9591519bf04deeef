//! The CLI's network mini-language, declared once in [`FAMILIES`].
//!
//! A network is written `family` or `family:args`, where `args` is a
//! comma-separated list of whole numbers (positional parameters) or of
//! `key=value` pairs and switches. Each [`Family`] row gives the family's
//! names, its parameters with their inclusive ranges, a checked node-count
//! formula, its constructor and an example. [`parse`] checks every token
//! against the row (an undeclared or repeated token is an error naming
//! it) and sizes the network from the formula without building anything;
//! [`Spec::build`] builds it when asked. A nucleus (`nucleus=Q4`) is a
//! classic row named by its short prefix, its numbers joined by `x`
//! (`GH3x4`). `ipg help` lists the rows through [`help`].

use ipg_cluster::partition::{self, Partition};
use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use ipg_networks::{classic, hier, ipdefs};

/// Hard ceiling on generated graph size (2^22 ~ 4.2M nodes). A spec whose
/// formula exceeds it is refused before anything is built, so a typo like
/// `hsn:l=20,nucleus=Q4` fails fast instead of materializing the graph.
pub const MAX_NODES: usize = 1 << 22;

/// Ceiling for the multi-process simulation path (`--workers`): workers
/// route super-IP families by tuple codec without materializing the
/// graph, so per-process memory is bounded by a shard range, not the
/// network — the cap can afford 2^24 (~16.8M nodes).
pub const DIST_MAX_NODES: usize = 1 << 24;

/// An integer parameter in `lo..=hi`: what a positional is (`dimension`),
/// or a keyed parameter's key (`l`).
struct Param(&'static str, usize, usize);

/// A family's constructor.
enum Make {
    /// A classic graph (see [`net`]).
    Graph(fn(&[usize]) -> Result<Network, String>),
    /// A super-IP graph in tuple form, packed one nucleus per module.
    Tuple(fn(&Args) -> Result<TupleNetwork, String>),
}

/// One family of the mini-language.
struct Family {
    /// The name `ipg help` shows first, then its aliases.
    names: &'static [&'static str],
    params: &'static [Param],
    /// The parameters are `key=` pairs, not positionals.
    keyed: bool,
    /// The last positional repeats (`gh:3,4,5`).
    repeats: bool,
    /// Takes `nucleus=` (default `Q2`) and the `symmetric` switch.
    super_ip: bool,
    /// The prefix naming this family as a nucleus (`Q` of `nucleus=Q4`).
    nucleus: Option<&'static str>,
    /// The node count; `None` past `usize`.
    nodes: fn(&Args) -> Option<usize>,
    make: Make,
    example: &'static str,
}

/// A row with positional parameters and neither nucleus nor switch.
const fn family(
    names: &'static [&'static str],
    params: &'static [Param],
    nodes: fn(&Args) -> Option<usize>,
    make: Make,
    example: &'static str,
) -> Family {
    Family {
        names,
        params,
        keyed: false,
        repeats: false,
        super_ip: false,
        nucleus: None,
        nodes,
        make,
        example,
    }
}

/// The one parameter of a super-IP family: its block count.
const L: &[Param] = &[Param("l", 1, 22)];

/// Every family `ipg` accepts, in the order `ipg help` lists them.
#[rustfmt::skip]
static FAMILIES: &[Family] = &[
    Family { nucleus: Some("Q"), ..family(&["hypercube", "cube", "q"], &[Param("dimension", 1, 22)],
        |a| pow(2, a.v[0]),
        Make::Graph(|v| cube(format!("Q{}", v[0]), classic::hypercube(v[0]), v[0])),
        "hypercube:10") },
    Family { nucleus: Some("FQ"), ..family(&["folded", "fq"], &[Param("dimension", 1, 22)],
        |a| pow(2, a.v[0]),
        Make::Graph(|v| cube(format!("FQ{}", v[0]), classic::folded_hypercube(v[0]), v[0])),
        "folded:8") },
    family(&["torus"], &[Param("side length", 2, 2048)], |a| pow(a.v[0], 2), Make::Graph(|v| {
        let k = v[0];
        let part = (k % 4 == 0).then(|| partition::torus_block_partition(k, 4, 4));
        net(format!("torus {k}x{k}"), classic::torus2d(k), part)
    }), "torus:32"),
    family(&["kary"], &[Param("radix", 2, MAX_NODES), Param("dimension count", 1, 22)],
        |a| pow(a.v[0], a.v[1]), Make::Graph(|v| {
            net(format!("{}-ary {}-cube", v[0], v[1]), classic::kary_ncube(v[0], v[1]), None)
        }), "kary:4,3"),
    Family { nucleus: Some("C"), ..family(&["ring"], &[Param("length", 3, MAX_NODES)],
        |a| Some(a.v[0]), Make::Graph(|v| net(format!("C{}", v[0]), classic::ring(v[0]), None)),
        "ring:64") },
    Family { nucleus: Some("K"), ..family(&["complete"], &[Param("size", 1, 2048)],
        |a| Some(a.v[0]), Make::Graph(|v| net(format!("K{}", v[0]), classic::complete(v[0]), None)),
        "complete:16") },
    Family { nucleus: Some("S"), ..family(&["star"], &[Param("size", 1, 10)], |a| factorial(a.v[0]),
        Make::Graph(|v| {
            let part = partition::substar_partition(&classic::star_labels(v[0]), 3.min(v[0]));
            net(format!("S{}", v[0]), classic::star(v[0]), Some(part))
        }), "star:7") },
    family(&["pancake"], &[Param("size", 1, 10)], |a| factorial(a.v[0]),
        Make::Graph(|v| net(format!("pancake-{}", v[0]), classic::pancake(v[0]), None)),
        "pancake:6"),
    Family { nucleus: Some("P"), ..family(&["petersen"], &[], |_| Some(10),
        Make::Graph(|_| net("Petersen".into(), classic::petersen(), None)), "petersen") },
    family(&["debruijn", "db"], &[Param("dimension", 1, 22)], |a| pow(2, a.v[0]),
        Make::Graph(|v| cube(format!("DB(2,{})", v[0]), classic::debruijn(v[0]), v[0])),
        "debruijn:8"),
    family(&["se", "shuffle-exchange"], &[Param("dimension", 2, 22)], |a| pow(2, a.v[0]),
        Make::Graph(|v| net(format!("SE{}", v[0]), classic::shuffle_exchange(v[0]), None)), "se:8"),
    family(&["ccc"], &[Param("dimension", 3, 17)], |a| pow(2, a.v[0])?.checked_mul(a.v[0]),
        Make::Graph(|v| {
            let part = partition::ccc_cycle_partition(v[0]);
            net(format!("CCC({})", v[0]), classic::ccc(v[0]), Some(part))
        }), "ccc:5"),
    Family { repeats: true, nucleus: Some("GH"), ..family(&["gh"],
        &[Param("radix", 2, MAX_NODES), Param("radix", 2, MAX_NODES)],
        |a| a.v.iter().try_fold(1usize, |n, &r| n.checked_mul(r)), Make::Graph(|v| {
            let radices: Vec<String> = v.iter().map(|r| r.to_string()).collect();
            net(format!("GH({})", radices.join("x")), classic::generalized_hypercube(v), None)
        }), "gh:3,4,5") },
    family(&["rotator"], &[Param("size", 2, 10)], |a| factorial(a.v[0]), Make::Graph(|v| {
        let ip = ipdefs::rotator_ip(v[0]).generate().map_err(|e| e.to_string())?;
        net(format!("rotator-{}", v[0]), ip.to_directed_csr(), None)
    }), "rotator:6"),
    Family { keyed: true, ..family(&["macro-star", "ms"], &[Param("l", 1, 9), Param("n", 1, 9)],
        |a| factorial(a.v[0].checked_mul(a.v[1])? + 1), Make::Graph(|v| {
            let ip = ipdefs::macro_star_ip(v[0], v[1]).generate().map_err(|e| e.to_string())?;
            net(format!("MS({},{})", v[0], v[1]), ip.to_undirected_csr(), None)
        }), "macro-star:l=2,n=3") },
    family(&["hcn"], &[Param("dimension", 1, 11)], |a| pow(4, a.v[0]), Make::Tuple(|a| {
        let n = a.v[0];
        let mut tn = hier::hsn(2, classic::hypercube(n), &format!("Q{n}"));
        tn.name = format!("HCN({n},{n})");
        Ok(tn)
    }), "hcn:4"),
    family(&["hfn"], &[Param("dimension", 1, 11)], |a| pow(4, a.v[0]),
        Make::Tuple(|a| Ok(hier::hfn(a.v[0]))), "hfn:3"),
    family(&["hhn"], &[Param("dimension", 1, 4)], |a| pow(2, (1 << a.v[0]) + a.v[0]),
        Make::Graph(|v| net(format!("HHN({})", v[0]), hier::hhn(v[0]), None)), "hhn:3"),
    Family { keyed: true, ..family(&["rcc"], &[Param("l", 1, 22), Param("m", 2, 2048)],
        |a| pow(a.v[1], a.v[0]), Make::Tuple(|a| Ok(hier::rcc(a.v[0], a.v[1]))), "rcc:l=2,m=8") },
    Family { keyed: true, ..family(&["hse"], &[Param("l", 1, 22), Param("n", 2, 22)],
        |a| pow(pow(2, a.v[1])?, a.v[0]), Make::Tuple(|a| Ok(hier::hse(a.v[0], a.v[1]))),
        "hse:l=2,n=4") },
    family(&["cpn"], &[Param("depth", 1, 6)], |a| pow(10, a.v[0]),
        Make::Tuple(|a| Ok(hier::cyclic_petersen(a.v[0]))), "cpn:3"),
    Family { keyed: true, super_ip: true, ..family(&["hsn"], L, |a| super_ip_nodes(a, factorial),
        Make::Tuple(|a| a.super_ip(hier::hsn)), "hsn:l=3,nucleus=Q4") },
    Family { keyed: true, super_ip: true, ..family(&["ring-cn"], L, |a| super_ip_nodes(a, Some),
        Make::Tuple(|a| a.super_ip(hier::ring_cn)), "ring-cn:l=4,nucleus=FQ4") },
    Family { keyed: true, super_ip: true, ..family(&["cn", "complete-cn"], L,
        |a| super_ip_nodes(a, Some), Make::Tuple(|a| a.super_ip(hier::complete_cn)),
        "cn:l=3,nucleus=P,symmetric") },
    Family { keyed: true, super_ip: true, ..family(&["superflip"], L,
        |a| super_ip_nodes(a, factorial), Make::Tuple(|a| a.super_ip(hier::superflip)),
        "superflip:l=3,nucleus=Q2") },
];

/// A classic network: its name, graph and natural module packing, if any.
fn net(name: String, graph: Csr, partition: Option<Partition>) -> Result<Network, String> {
    Ok(Network {
        name,
        graph,
        partition,
        tuple: None,
    })
}

/// A network on `2^n` binary addresses, packed into subcubes of 16.
fn cube(name: String, graph: Csr, n: usize) -> Result<Network, String> {
    net(name, graph, Some(partition::subcube_partition(n, n.min(4))))
}

fn pow(base: usize, exp: usize) -> Option<usize> {
    base.checked_pow(u32::try_from(exp).ok()?)
}

fn factorial(n: usize) -> Option<usize> {
    (1..=n).try_fold(1usize, |acc, k| acc.checked_mul(k))
}

/// `|H|·M^l`: the block-order group `H` has `order(l)` elements in the
/// symmetric variant (`l!` for HSN and super-flip, `l` for the cyclic-shift
/// networks) and one otherwise.
fn super_ip_nodes(a: &Args, order: fn(usize) -> Option<usize>) -> Option<usize> {
    let h = if a.symmetric { order(a.v[0])? } else { 1 };
    pow(a.nucleus.as_ref()?.1.nodes, a.v[0])?.checked_mul(h)
}

/// A spec's checked parameter values.
struct Args {
    /// In declared order; a repeating last parameter fills the tail.
    v: Vec<usize>,
    /// A super-IP family's nucleus and its name.
    nucleus: Option<(String, Box<Spec>)>,
    symmetric: bool,
}

impl Args {
    /// `make(l, nucleus)`, closed under its block order when `symmetric`.
    fn super_ip(&self, make: fn(usize, Csr, &str) -> TupleNetwork) -> Result<TupleNetwork, String> {
        let (name, nucleus) = self.nucleus.as_ref().ok_or("no nucleus")?;
        let tn = make(self.v[0], nucleus.build()?.graph, name);
        Ok(if self.symmetric {
            hier::symmetric(&tn)
        } else {
            tn
        })
    }
}

/// A checked spec: its node count is known and nothing is built yet.
pub struct Spec {
    family: &'static Family,
    args: Args,
    nodes: usize,
}

/// A built network: display name, graph, and (when a natural packing
/// exists) the §5 module partition.
#[derive(Debug)]
pub struct Network {
    /// Display name.
    pub name: String,
    /// The graph.
    pub graph: Csr,
    /// Natural module packing, if the family has one.
    pub partition: Option<Partition>,
    /// The tuple form, when the network is a super-IP graph (enables
    /// hierarchical routing display).
    pub tuple: Option<TupleNetwork>,
}

/// Check `input` against its family's row and size it from the row's
/// formula, refusing more than `cap` nodes or fewer than 2. Builds
/// nothing. Every error reads ``bad network `<input>`: …``.
pub fn parse(input: &str, cap: usize) -> Result<Spec, String> {
    let (name, rest) = input.split_once(':').unwrap_or((input, ""));
    FAMILIES
        .iter()
        .find(|f| f.names.contains(&name))
        .ok_or_else(|| format!("unknown family `{name}`; see `ipg help` for the list"))
        .and_then(|f| f.check(name, rest, ',', cap))
        .and_then(|s| match s.nodes {
            n if n < 2 => Err(format!("{name}: {n} node; a network needs at least 2")),
            _ => Ok(s),
        })
        .map_err(|e| format!("bad network `{input}`: {e}"))
}

/// Parse a nucleus name: a classic row's prefix and its numbers joined by
/// `x` (`Q4`, `FQ3`, `K8`, `S4`, `C6`, `P`, `GH3x4`).
fn parse_nucleus(s: &str, cap: usize) -> Result<Spec, String> {
    let (f, rest) = FAMILIES
        .iter()
        .find_map(|f| Some((f, s.strip_prefix(f.nucleus?)?)))
        .ok_or_else(|| format!("unknown nucleus `{s}`"))?;
    f.check(f.names[0], rest, 'x', cap)
        .map_err(|e| format!("bad nucleus `{s}`: {e}"))
}

impl Family {
    /// A parameter as `ipg help` and the errors show it.
    fn slot(&self, Param(name, lo, hi): &Param) -> String {
        match self.keyed {
            true => format!("{name}=<{lo}..={hi}>"),
            false => format!("<{name} {lo}..={hi}>"),
        }
    }

    /// The row as `ipg help` shows it: `hypercube|cube|q:<dimension 1..=22>`.
    fn usage(&self) -> String {
        let slots: Vec<String> = self.params.iter().map(|p| self.slot(p)).collect();
        let usage = format!("{}:{}", self.names.join("|"), slots.join(","));
        let tail = match (self.repeats, self.super_ip) {
            (true, _) => ",...",
            (_, true) => "[,nucleus=…][,symmetric]",
            _ => "",
        };
        usage.trim_end_matches(':').to_string() + tail
    }

    /// Check the `sep`-separated tokens of `rest` (what follows `name:`)
    /// against this row and size the spec.
    fn check(&'static self, name: &str, rest: &str, sep: char, cap: usize) -> Result<Spec, String> {
        let mut v = vec![None; self.params.len()];
        let (mut seen, mut nucleus, mut symmetric) = (Vec::new(), None, false);
        for token in rest.split(sep).filter(|_| !rest.is_empty()) {
            let (key, value) = token.split_once('=').unwrap_or((token, token));
            let digit = token.starts_with(|c: char| c.is_ascii_digit());
            if !digit && seen.contains(&key) {
                return Err(format!("{name}: `{token}` sets `{key}` again"));
            }
            seen.push(key);
            let unexpected = || format!("{name}: unexpected `{token}`; usage: {}", self.usage());
            let i = match (token.contains('='), key) {
                (true, "nucleus") if self.super_ip => {
                    nucleus = Some((value.into(), parse_nucleus(value, cap)?));
                    continue;
                }
                (false, "symmetric") if self.super_ip => {
                    symmetric = true;
                    continue;
                }
                (true, _) if self.keyed => self.params.iter().position(|p| p.0 == key),
                // Every token of a positional row is a positional.
                (false, _) if digit && !self.keyed => Some(seen.len() - 1),
                _ => None,
            }
            .filter(|&i| self.repeats || i < v.len())
            .ok_or_else(unexpected)?;
            let Param(what, lo, hi) = self.params[i.min(self.params.len() - 1)];
            let n = value.parse().ok().filter(|n| (lo..=hi).contains(n));
            let range = || format!("{name}: {what} must be between {lo} and {hi}, got `{value}`");
            let n = n.ok_or_else(range)?;
            v.resize(v.len().max(i + 1), None);
            v[i] = Some(n);
        }
        if let Some((p, _)) = self.params.iter().zip(&v).find(|(_, n)| n.is_none()) {
            return Err(format!(
                "{name} needs {}, e.g. `{}`",
                self.slot(p),
                self.example
            ));
        }
        let nucleus = match nucleus {
            None if self.super_ip => Some(("Q2".into(), parse_nucleus("Q2", cap)?)),
            given => given,
        };
        let v = v.into_iter().flatten().collect();
        let args = Args {
            v,
            nucleus: nucleus.map(|(name, spec)| (name, Box::new(spec))),
            symmetric,
        };
        match (self.nodes)(&args) {
            Some(nodes) if nodes <= cap => Ok(Spec {
                family: self,
                args,
                nodes,
            }),
            n => {
                let n = n.map_or(format!("over {}", usize::MAX), |n| n.to_string());
                Err(format!("{name}: {n} nodes exceed the {cap}-node cap"))
            }
        }
    }
}

impl Spec {
    /// The node count, from the family's formula.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The tuple form of a super-IP spec, without its graph.
    pub fn tuple(&self) -> Result<Option<TupleNetwork>, String> {
        match self.family.make {
            Make::Graph(_) => Ok(None),
            Make::Tuple(make) => make(&self.args).map(Some),
        }
    }

    /// Build the network; a super-IP graph is packed one nucleus per module.
    pub fn build(&self) -> Result<Network, String> {
        let tn = match self.family.make {
            Make::Graph(make) => return make(&self.args.v),
            Make::Tuple(make) => make(&self.args)?,
        };
        let partition = Some(partition::nucleus_partition(&tn));
        let mut network = net(tn.name.clone(), tn.build(), partition)?;
        network.tuple = Some(tn);
        Ok(network)
    }
}

/// The network list of `ipg help`, rendered from [`FAMILIES`].
pub fn help() -> String {
    let mut out = String::from("networks (family:args):\n");
    for f in FAMILIES {
        let nucleus = f.nucleus.map(|p| format!("  (nucleus {p}…)"));
        let nucleus = nucleus.unwrap_or_default();
        out += &format!("  {:<28} {}{nucleus}\n", f.example, f.usage());
    }
    out + "\nnucleus=…: a row's nucleus prefix, then its numbers joined by x (GH3x4);\n\
           the default is Q2.\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parse and build at the in-process cap.
    fn parse(input: &str) -> Result<Network, String> {
        super::parse(input, MAX_NODES)?.build()
    }

    #[test]
    fn parse_simple_families() {
        assert_eq!(parse("hypercube:6").unwrap().graph.node_count(), 64);
        assert_eq!(parse("torus:8").unwrap().graph.node_count(), 64);
        assert_eq!(parse("star:5").unwrap().graph.node_count(), 120);
        assert_eq!(parse("petersen").unwrap().graph.node_count(), 10);
        assert_eq!(parse("gh:3,4").unwrap().graph.node_count(), 12);
        assert_eq!(parse("ccc:3").unwrap().graph.node_count(), 24);
    }

    #[test]
    fn parse_super_ip_families() {
        let p = parse("hsn:l=3,nucleus=Q2").unwrap();
        assert_eq!(p.graph.node_count(), 64);
        assert!(p.tuple.is_some());
        assert!(p.partition.is_some());

        let p = parse("ring-cn:l=2,nucleus=FQ3").unwrap();
        assert_eq!(p.graph.node_count(), 64);

        let p = parse("cn:l=2,nucleus=P").unwrap();
        assert_eq!(p.graph.node_count(), 100);

        let p = parse("hsn:l=2,nucleus=Q1,symmetric").unwrap();
        assert_eq!(p.graph.node_count(), 8); // 2!·2^2
    }

    #[test]
    fn parse_hierarchical_names() {
        assert_eq!(parse("hcn:3").unwrap().graph.node_count(), 64);
        assert_eq!(parse("hfn:2").unwrap().graph.node_count(), 16);
        assert_eq!(parse("hhn:2").unwrap().graph.node_count(), 64);
        assert_eq!(parse("cpn:2").unwrap().graph.node_count(), 100);
        assert_eq!(parse("rcc:l=2,m=4").unwrap().graph.node_count(), 16);
        assert_eq!(parse("macro-star:l=2,n=2").unwrap().graph.node_count(), 120);
        assert_eq!(parse("rotator:4").unwrap().graph.node_count(), 24);
    }

    #[test]
    fn errors_are_helpful() {
        assert!(parse("frobcube:3").unwrap_err().contains("unknown family"));
        assert!(parse("hypercube").unwrap_err().contains("dimension"));
        assert!(parse("hsn:nucleus=Q2").unwrap_err().contains("l="));
        assert!(parse("hsn:l=2,nucleus=Z9").unwrap_err().contains("nucleus"));
    }

    // Each of these inputs used to panic (or hang) in a downstream
    // constructor; they must now come back as contextual `Err`s.
    #[test]
    fn zero_level_super_ip_is_rejected() {
        assert!(parse("hsn:l=0,nucleus=Q2").unwrap_err().contains("l must"));
        assert!(parse("cn:l=0,nucleus=P").unwrap_err().contains("l must"));
        assert!(parse("ring-cn:l=0,nucleus=Q2")
            .unwrap_err()
            .contains("l must"));
        assert!(parse("superflip:l=0,nucleus=Q2")
            .unwrap_err()
            .contains("l must"));
    }

    #[test]
    fn oversized_super_ip_is_rejected_fast() {
        // used to hang trying to materialize 4^9999999 nodes
        let e = parse("hsn:l=9999999,nucleus=Q2").unwrap_err();
        assert!(e.contains("l must be between 1 and 22"), "{e}");
        let e = parse("hsn:l=22,nucleus=Q4").unwrap_err();
        assert!(e.contains("node cap"), "{e}");
        let e = parse("hsn:l=8,nucleus=Q2,symmetric").unwrap_err();
        assert!(e.contains("2642411520 nodes exceed"), "{e}");
    }

    #[test]
    fn degenerate_classic_sizes_are_rejected() {
        assert!(parse("ring:1").unwrap_err().contains("length must"));
        assert!(parse("ring:2").unwrap_err().contains("length must"));
        assert!(parse("kary:1,2").unwrap_err().contains("radix must"));
        assert!(parse("kary:2,0").unwrap_err().contains("dimension count"));
        assert!(parse("ccc:0").unwrap_err().contains("dimension must"));
        assert!(parse("ccc:2").unwrap_err().contains("dimension must"));
        assert!(parse("hypercube:80")
            .unwrap_err()
            .contains("between 1 and 22"));
        assert!(parse("folded:0").unwrap_err().contains("dimension must"));
        assert!(parse("se:1").unwrap_err().contains("dimension must"));
        assert!(parse("torus:1").unwrap_err().contains("side length"));
        assert!(parse("gh:1,4").unwrap_err().contains("radix must"));
    }

    #[test]
    fn oversized_permutation_families_are_rejected() {
        assert!(parse("star:11").unwrap_err().contains("size must"));
        assert!(parse("pancake:13").unwrap_err().contains("size must"));
        assert!(parse("rotator:1").unwrap_err().contains("size must"));
        assert!(parse("rotator:12").unwrap_err().contains("size must"));
        let e = parse("macro-star:l=3,n=4").unwrap_err();
        assert!(e.contains("6227020800 nodes exceed"), "{e}");
    }

    #[test]
    fn hierarchical_bounds_are_checked() {
        assert!(parse("hhn:5").unwrap_err().contains("dimension must"));
        assert!(parse("hcn:0").unwrap_err().contains("dimension must"));
        assert!(parse("hfn:20").unwrap_err().contains("dimension must"));
        assert!(parse("cpn:0").unwrap_err().contains("depth must"));
        assert!(parse("cpn:9").unwrap_err().contains("depth must"));
        assert!(parse("rcc:l=0,m=4").unwrap_err().contains("l must"));
        assert!(parse("rcc:l=2,m=1").unwrap_err().contains("m must"));
        let e = parse("rcc:l=10,m=10").unwrap_err();
        assert!(e.contains("node cap"), "{e}");
        assert!(parse("hse:l=1,n=1").unwrap_err().contains("n must"));
        let e = parse("hse:l=10,n=10").unwrap_err();
        assert!(e.contains("node cap"), "{e}");
    }

    #[test]
    fn malformed_nuclei_are_rejected() {
        assert!(parse("hsn:l=2,nucleus=Q0")
            .unwrap_err()
            .contains("dimension must"));
        assert!(parse("hsn:l=2,nucleus=Q99")
            .unwrap_err()
            .contains("dimension must"));
        assert!(parse("hsn:l=2,nucleus=C2")
            .unwrap_err()
            .contains("length must"));
        assert!(parse("hsn:l=2,nucleus=S12")
            .unwrap_err()
            .contains("size must"));
        assert!(parse("hsn:l=2,nucleus=GH1x3")
            .unwrap_err()
            .contains("radix must"));
        assert!(parse("hsn:l=2,nucleus=Qx")
            .unwrap_err()
            .contains("bad nucleus"));
    }

    #[test]
    fn dist_cap_admits_larger_super_ip_networks() {
        // 2^24 nodes: over the in-process cap, exactly at the dist cap.
        let spec = "cn:l=2,nucleus=Q12";
        let e = parse(spec).unwrap_err();
        assert!(e.contains("node cap"), "{e}");
        let w = super::parse(spec, DIST_MAX_NODES).unwrap();
        assert_eq!(
            w.nodes(),
            DIST_MAX_NODES,
            "CN(2,Q12) should sit exactly at the dist cap"
        );
        assert_eq!(w.tuple().unwrap().unwrap().node_count(), DIST_MAX_NODES);
    }

    #[test]
    fn worker_parse_skips_graph_materialization_on_demand() {
        // Parsing builds nothing: the size and the tuple form come first.
        let lazy = super::parse("hsn:l=3,nucleus=Q2", MAX_NODES).unwrap();
        assert_eq!(lazy.nodes(), 64);
        assert!(lazy.tuple().unwrap().is_some());
        assert_eq!(lazy.build().unwrap().graph.node_count(), 64);

        // Classic families have no tuple form: only the graph.
        let classic = super::parse("hypercube:6", MAX_NODES).unwrap();
        assert!(classic.tuple().unwrap().is_none());
        assert_eq!(classic.build().unwrap().graph.node_count(), 64);
    }

    #[test]
    fn parse_with_cap_matches_parse_at_the_default_cap() {
        for spec in ["hcn:3", "hfn:2", "hsn:l=3,nucleus=Q2", "torus:8"] {
            let a = parse(spec).unwrap();
            let b = super::parse(spec, DIST_MAX_NODES).unwrap().build().unwrap();
            assert_eq!(a.name, b.name);
            assert_eq!(a.graph.node_count(), b.graph.node_count());
            assert_eq!(a.tuple.is_some(), b.tuple.is_some());
        }
    }

    #[test]
    fn valid_edge_sizes_still_parse() {
        // boundary values just inside the caps must keep working
        assert_eq!(parse("ring:3").unwrap().graph.node_count(), 3);
        assert_eq!(parse("kary:2,3").unwrap().graph.node_count(), 8);
        assert_eq!(parse("ccc:3").unwrap().graph.node_count(), 24);
        assert_eq!(parse("hhn:1").unwrap().graph.node_count(), 8);
        assert_eq!(parse("hsn:l=1,nucleus=Q2").unwrap().graph.node_count(), 4);
    }

    #[test]
    fn symmetric_variants_are_sized_by_their_block_group() {
        // |H| is l! for HSN and super-flip, l for the cyclic-shift networks.
        for (spec, nodes) in [
            ("cn:l=9,nucleus=Q1,symmetric", 4_608),
            ("ring-cn:l=3,nucleus=Q1,symmetric", 24),
            ("hsn:l=3,nucleus=Q1,symmetric", 48),
            ("superflip:l=3,nucleus=Q1,symmetric", 48),
            ("hsn:l=3,nucleus=K1,symmetric", 6),
        ] {
            assert_eq!(
                super::parse(spec, MAX_NODES).unwrap().nodes(),
                nodes,
                "{spec}"
            );
            assert_eq!(parse(spec).unwrap().graph.node_count(), nodes, "{spec}");
        }
    }

    #[test]
    fn undeclared_and_repeated_tokens_are_refused_by_name() {
        for (spec, token) in [
            ("hsn:l=2,nucleus=Q2,symetric", "symetric"),
            ("hypercube:6,foo=3", "foo=3"),
            ("hypercube:6,7", "7"),
            ("petersen:99", "99"),
            ("hcn:3,symmetric", "symmetric"),
            ("hsn:l=2,l=3,nucleus=Q2", "l=3"),
            ("hsn:l=2,nucleus=Q2,nucleus=Q3", "nucleus=Q3"),
            ("hsn:l=2,symmetric,symmetric", "symmetric"),
            ("hsn:3,nucleus=Q2", "3"),
            ("rcc:l=2,m=4,n=3", "n=3"),
            ("hsn:l=2,nucleus=P3", "3"),
            ("hypercube:6,", ""),
        ] {
            let e = parse(spec).unwrap_err();
            assert!(e.contains(&format!("`{token}`")), "{spec}: {e}");
        }
    }

    #[test]
    fn single_node_networks_are_refused() {
        for spec in [
            "complete:1",
            "star:1",
            "pancake:1",
            "hsn:l=1,nucleus=K1",
            "cn:l=3,nucleus=K1",
        ] {
            let e = parse(spec).unwrap_err();
            assert!(
                e.contains("1 node; a network needs at least 2"),
                "{spec}: {e}"
            );
        }
    }

    #[test]
    fn every_example_parses_and_appears_in_help() {
        let help = help();
        for f in FAMILIES {
            assert!(parse(f.example).is_ok(), "{}", f.example);
            assert!(help.contains(&format!("  {} ", f.example)), "{}", f.example);
            for name in f.names {
                assert!(help.contains(name), "ipg help does not name `{name}`");
            }
        }
    }

    /// FNV-1a over a stream of words.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
            let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            w.to_le_bytes().iter().fold(h, step)
        })
    }

    type Golden = (&'static str, &'static str, usize, usize, u64, Option<u64>);

    /// Spec, name, nodes, arcs, and the FNV-1a hashes of the CSR (each
    /// node's degree, then its neighbours) and of the partition (its
    /// module count, then each node's module), as the hand-checked parser
    /// the family table replaced built them.
    #[rustfmt::skip]
    const GOLDEN: &[Golden] = &[
        ("hypercube:6", "Q6", 64, 384, 0x67324c79bb7e74a5, Some(0x6654410a2893bb41)),
        ("torus:8", "torus 8x8", 64, 256, 0x048cf432d4adf425, Some(0xcd1e049723ba3b41)),
        ("star:5", "S5", 120, 480, 0x57759f17e5d81fa5, Some(0x39a4d8dbc10a0cb1)),
        ("petersen", "Petersen", 10, 30, 0xb7efa945b600ede4, None),
        ("gh:3,4", "GH(3x4)", 12, 60, 0xfd3d207867747065, None),
        ("ccc:3", "CCC(3)", 24, 72, 0x94e17c91faf22325, Some(0x0a826e50cd9ab6cd)),
        ("hsn:l=3,nucleus=Q2", "HSN(3,Q2)", 64, 224, 0x0fdc540b9ea7b6e5, Some(0x90d6d86d51f92dd5)),
        ("ring-cn:l=2,nucleus=FQ3", "ring-CN(2,FQ3)", 64, 312, 0x63e95ea867bf7925, Some(0xec6b835923300ccd)),
        ("cn:l=2,nucleus=P", "complete-CN(2,P)", 100, 390, 0xeaf72dd0722de676, Some(0x03d0d429b97d206f)),
        ("hsn:l=2,nucleus=Q1,symmetric", "sym-HSN(2,Q1)", 8, 16, 0x3ee0cb53e61881a5, Some(0xf56cddc15b74ae81)),
        ("hcn:3", "HCN(3,3)", 64, 248, 0x5c972fce9876b725, Some(0xec6b835923300ccd)),
        ("hfn:2", "HSN(2,FQ2)", 16, 60, 0x7ea0bb84d378d525, Some(0xbea24ef573ce5bc1)),
        ("hhn:2", "HHN(2)", 64, 192, 0x083aeaeb6a3ea325, None),
        ("cpn:2", "ring-CN(2,P)", 100, 390, 0xeaf72dd0722de676, Some(0x03d0d429b97d206f)),
        ("rcc:l=2,m=4", "RCC(2,K4)", 16, 60, 0x7ea0bb84d378d525, Some(0xbea24ef573ce5bc1)),
        ("macro-star:l=2,n=2", "MS(2,2)", 120, 360, 0x2d0dd1a8601e0a05, None),
        ("rotator:4", "rotator-4", 24, 72, 0xb632949b40de7645, None),
        ("ring:3", "C3", 3, 6, 0xb4ddda46da1e2da7, None),
        ("kary:2,3", "2-ary 3-cube", 8, 24, 0x21acaeca047947e5, None),
        ("hhn:1", "HHN(1)", 8, 16, 0x9c42d87a43fd9e25, None),
        ("hsn:l=1,nucleus=Q2", "HSN(1,Q2)", 4, 8, 0x4e324f10b407a3e5, Some(0xa23a95427e23c1a4)),
        ("hsn:l=2,nucleus=Q2", "HSN(2,Q2)", 16, 44, 0x97ebd1a4ec076aa5, Some(0xbea24ef573ce5bc1)),
        ("ring-cn:l=3,nucleus=Q2", "ring-CN(3,Q2)", 64, 248, 0x91356b09242dd4e5, Some(0x90d6d86d51f92dd5)),
        ("hsn:l=2,nucleus=Q3", "HSN(2,Q3)", 64, 248, 0x5c972fce9876b725, Some(0xec6b835923300ccd)),
        ("cn:l=3,nucleus=Q2", "complete-CN(3,Q2)", 64, 248, 0x91356b09242dd4e5, Some(0x90d6d86d51f92dd5)),
        ("hsn:l=2,nucleus=Q2,symmetric", "sym-HSN(2,Q2)", 32, 96, 0x210a311d5ee21525, Some(0x61c5754874090bcd)),
        ("hypercube:8", "Q8", 256, 2048, 0xaa12872c2bb04925, Some(0x1d17789c54c623d5)),
        ("ring-cn:l=2,nucleus=Q2", "ring-CN(2,Q2)", 16, 44, 0x97ebd1a4ec076aa5, Some(0xbea24ef573ce5bc1)),
        ("ring-cn:l=3,nucleus=Q3", "ring-CN(3,Q3)", 512, 2544, 0x793bc5ebca3d7ac5, Some(0x81a1cc8004e96205)),
        ("hypercube:12", "Q12", 4096, 49152, 0x8490616ffdaf74c5, Some(0xb0f350729cbf66ea)),
        ("ring-cn:l=3,nucleus=Q4", "ring-CN(3,Q4)", 4096, 24544, 0xd8b76da98f690325, Some(0xb0f350729cbf66ea)),
        ("torus:64", "torus 64x64", 4096, 16384, 0xefaf75c9bdfabcfd, Some(0xecb257f5f1f766ea)),
        ("hsn:l=2,nucleus=Q4", "HSN(2,Q4)", 256, 1264, 0x2c03508313f427a5, Some(0x1d17789c54c623d5)),
        ("hsn:l=3,nucleus=Q4", "HSN(3,Q4)", 4096, 24064, 0x493ba05716d5ee35, Some(0xb0f350729cbf66ea)),
        ("q:2", "Q2", 4, 8, 0x4e324f10b407a3e5, Some(0xa23a95427e23c1a4)),
        ("q:3", "Q3", 8, 24, 0x21acaeca047947e5, Some(0xdbb1ae485c0593a4)),
        ("q:4", "Q4", 16, 64, 0xd6d08733768f1a25, Some(0xee330c0ea08437a4)),
        ("hypercube:10", "Q10", 1024, 10240, 0x5cd27cae78e04165, Some(0x5f698e62e2c60205)),
        ("folded:8", "FQ8", 256, 2304, 0x28fd0fa54d39fa25, Some(0x1d17789c54c623d5)),
        ("torus:32", "torus 32x32", 1024, 4096, 0x6b582557febbecc5, Some(0x6067e7f792760205)),
        ("kary:4,3", "4-ary 3-cube", 64, 384, 0x03c4ab1d7a103725, None),
        ("ring:64", "C64", 64, 128, 0xeea1f0ee0bb65f65, None),
        ("complete:16", "K16", 16, 240, 0x33ee4c3bec662e25, None),
        ("star:7", "S7", 5040, 30240, 0x2bd87b11e9c2c8dd, Some(0xe7639a4a5f620abc)),
        ("pancake:6", "pancake-6", 720, 3600, 0xee65f8959b746c91, None),
        ("debruijn:8", "DB(2,8)", 256, 1018, 0x8d6136021ea3ce1a, Some(0x1d17789c54c623d5)),
        ("se:8", "SE8", 256, 762, 0x20eae05b6881d1da, None),
        ("ccc:5", "CCC(5)", 160, 480, 0xe8463e94d818a425, Some(0xbe72fd9426d45da5)),
        ("gh:3,4,5", "GH(3x4x5)", 60, 540, 0x6ff567b2f0e8cda5, None),
        ("rotator:6", "rotator-6", 720, 3600, 0x2010f7fa38df653d, None),
        ("macro-star:l=2,n=3", "MS(2,3)", 5040, 20160, 0x4575d84052873815, None),
        ("ring-cn:l=4,nucleus=FQ4", "ring-CN(4,FQ4)", 65536, 458480, 0x0774d47b28f34455, Some(0x8b44961918dddc15)),
        ("cn:l=3,nucleus=P", "complete-CN(3,P)", 1000, 4980, 0xc15ed67e86dbf619, Some(0x14e16ab20e7dc521)),
        ("superflip:l=3,nucleus=Q2", "superflip(3,Q2)", 64, 224, 0x0fdc540b9ea7b6e5, Some(0x90d6d86d51f92dd5)),
        ("hcn:4", "HCN(4,4)", 256, 1264, 0x2c03508313f427a5, Some(0x1d17789c54c623d5)),
        ("hfn:3", "HSN(2,FQ3)", 64, 312, 0x63e95ea867bf7925, Some(0xec6b835923300ccd)),
        ("hhn:3", "HHN(3)", 2048, 8192, 0xbd2222481df8aea5, None),
        ("rcc:l=2,m=8", "RCC(2,K8)", 64, 504, 0x86cff9fa31e54e25, Some(0xec6b835923300ccd)),
        ("hse:l=2,n=4", "ring-CN(2,SE4)", 256, 912, 0xd8099b88c15d0125, Some(0x1d17789c54c623d5)),
        ("cpn:3", "ring-CN(3,P)", 1000, 4980, 0xc15ed67e86dbf619, Some(0x14e16ab20e7dc521)),
        ("hsn:l=2,nucleus=K4", "HSN(2,K4)", 16, 60, 0x7ea0bb84d378d525, Some(0xbea24ef573ce5bc1)),
        ("hsn:l=2,nucleus=S3", "HSN(2,S3)", 36, 102, 0x20951a47606c82c6, Some(0xcca1ff4b27a3d563)),
        ("hsn:l=2,nucleus=C5", "HSN(2,C5)", 25, 70, 0x4d1cb62a9ded46df, Some(0x4c9782d064ccf324)),
        ("hsn:l=2,nucleus=GH3x4", "HSN(2,GH3x4)", 144, 852, 0x74eee5f2795c2a25, Some(0x638f3f08048b04c9)),
        ("ring-cn:l=3,nucleus=Q2,symmetric", "sym-ring-CN(3,Q2)", 192, 768, 0x6d89b9af53e1fa25, Some(0x81a414e917b809b5)),
        ("cn:l=3,nucleus=Q2,symmetric", "sym-complete-CN(3,Q2)", 192, 768, 0x6d89b9af53e1fa25, Some(0x81a414e917b809b5)),
        ("superflip:l=3,nucleus=Q1,symmetric", "sym-superflip(3,Q1)", 48, 144, 0x4c61f604258af925, Some(0xa5185b88961cc65d)),
        ("complete-cn:l=2,nucleus=Q2", "complete-CN(2,Q2)", 16, 44, 0x97ebd1a4ec076aa5, Some(0xbea24ef573ce5bc1)),
        ("torus:12", "torus 12x12", 144, 576, 0x6896601318c9fba5, Some(0xce22708d38388cac)),
        ("star:4", "S4", 24, 72, 0x50f28d550144e865, Some(0x79d04144d14c0881)),
        ("db:5", "DB(2,5)", 32, 122, 0xc58c29ad2a533d1a, Some(0xa6a5e246ce6a9907)),
        ("shuffle-exchange:4", "SE4", 16, 42, 0x66f1e848006b002a, None),
        ("ms:l=1,n=3", "MS(1,3)", 24, 72, 0x50f28d550144e865, None),
        ("cube:3", "Q3", 8, 24, 0x21acaeca047947e5, Some(0xdbb1ae485c0593a4)),
        ("fq:3", "FQ3", 8, 32, 0x73bdae8fd0747425, Some(0xdbb1ae485c0593a4)),
    ];

    #[test]
    fn golden_networks_match_the_hand_checked_parser() {
        for &(spec, name, nodes, arcs, csr, part) in GOLDEN {
            let net = parse(spec).unwrap();
            let g = &net.graph;
            let adjacency = (0..g.node_count() as u32).flat_map(|v| {
                let degree = std::iter::once(g.degree(v) as u64);
                degree.chain(g.neighbors(v).iter().map(|&w| u64::from(w)))
            });
            let modules = net.partition.as_ref().map(|p| {
                fnv(std::iter::once(p.count as u64).chain(p.class.iter().map(|&c| u64::from(c))))
            });
            assert_eq!(
                (net.name.as_str(), g.node_count(), g.arc_count()),
                (name, nodes, arcs)
            );
            assert_eq!((fnv(adjacency), modules), (csr, part), "{spec}");
        }
    }

    /// A spec of `f` drawn from `draws`: each parameter small and in its
    /// range (smaller still for a super-IP row), maybe a third radix for a
    /// repeating row, and a nucleus and maybe the `symmetric` switch for a
    /// super-IP row.
    fn drawn_spec(f: &Family, draws: &[usize]) -> String {
        let mut draws = draws.iter().copied().cycle();
        let mut draw = |n: usize| draws.next().unwrap_or(0) % n;
        let span = if f.super_ip { 4 } else { 12 };
        let mut value = |&Param(_, lo, hi): &Param| lo + draw((hi - lo + 1).min(span));
        let mut args: Vec<String> = f
            .params
            .iter()
            .map(|p| match f.keyed {
                true => format!("{}={}", p.0, value(p)),
                false => value(p).to_string(),
            })
            .collect();
        if let (true, Some(p)) = (f.repeats, f.params.last()) {
            args.push(value(p).to_string());
        }
        if f.super_ip {
            let nuclei: Vec<&Family> = FAMILIES.iter().filter(|n| n.nucleus.is_some()).collect();
            let n = nuclei[value(&Param("", 0, nuclei.len() - 1))];
            let digits: Vec<String> = n.params.iter().map(|p| value(p).to_string()).collect();
            args.push(format!(
                "nucleus={}{}",
                n.nucleus.unwrap_or(""),
                digits.join("x")
            ));
            if value(&Param("", 0, 1)) == 1 {
                args.push("symmetric".into());
            }
        }
        format!("{}:{}", f.names[0], args.join(","))
    }

    proptest! {
        #[test]
        fn node_count_formula_matches_the_built_graph(
            draws in proptest::collection::vec(0usize..1000, 8..9)
        ) {
            for f in FAMILIES {
                let spec = drawn_spec(f, &draws);
                match super::parse(&spec, 5_000) {
                    Ok(checked) => {
                        let net = checked.build().unwrap();
                        prop_assert_eq!(checked.nodes(), net.graph.node_count(), "{}", spec);
                        if let Some(tn) = checked.tuple().unwrap() {
                            prop_assert_eq!(tn.node_count(), checked.nodes(), "{}", spec);
                        }
                    }
                    // In-range parameters are refused only for their size.
                    Err(e) => prop_assert!(
                        e.contains("-node cap") || e.contains("at least 2"),
                        "{spec}: {e}"
                    ),
                }
            }
        }
    }
}
