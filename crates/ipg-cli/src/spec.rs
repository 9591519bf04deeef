//! The CLI's network mini-language.
//!
//! A network is written `family` or `family:args`, where `args` is a
//! comma-separated list of integers or `key=value` pairs. [`LANGUAGE`]
//! lists the families and nuclei; `ipg help` prints it.

use ipg_cluster::partition::{self, Partition};
use ipg_core::graph::Csr;
use ipg_core::superip::TupleNetwork;
use ipg_networks::{classic, hier, ipdefs};

/// The families and nuclei, as `ipg help` prints them.
pub const LANGUAGE: &str = "\
networks (family:args):
  hypercube:10  folded:8  torus:32  kary:4,3  ring:64  complete:16
  star:7  pancake:6  petersen  debruijn:8  se:8  ccc:5  gh:3,4,5
  rotator:6  macro-star:l=2,n=3
  hsn:l=3,nucleus=Q4      ring-cn:l=4,nucleus=FQ4
  cn:l=3,nucleus=P        superflip:l=3,nucleus=Q2
  hsn:l=2,nucleus=Q2,symmetric   (distinct-symbol Cayley variant)
  hcn:4  hfn:3  hhn:3  rcc:l=2,m=8  hse:l=2,n=4  cpn:3

nuclei: Q<n> (hypercube) FQ<n> (folded) K<n> (complete) S<n> (star)
        C<n> (ring) P (Petersen) GH<r>x<r>... (generalized hypercube)
";

/// Hard ceiling on generated graph size (2^22 ~ 4.2M nodes). Specs whose
/// node count would exceed it are rejected at parse time with a sizing
/// error, so a typo like `hsn:l=9999999` fails fast instead of trying to
/// materialize the graph.
const MAX_NODES: usize = 1 << 22;

/// Ceiling for the multi-process simulation path (`--workers`): workers
/// route super-IP families by tuple codec without materializing the
/// graph, so per-process memory is bounded by a shard range, not the
/// network — the cap can afford 2^24 (~16.8M nodes).
pub const DIST_MAX_NODES: usize = 1 << 24;

/// Check `v` against an inclusive range with a contextual error message.
fn in_range(ctx: &str, what: &str, v: usize, lo: usize, hi: usize) -> Result<usize, String> {
    if v >= lo && v <= hi {
        Ok(v)
    } else {
        Err(format!(
            "{ctx}: {what} must be between {lo} and {hi}, got {v}"
        ))
    }
}

/// `base^exp` with overflow checking, refusing results past `cap`.
fn sized_pow(ctx: &str, base: usize, exp: usize, cap: usize) -> Result<usize, String> {
    let mut acc = 1usize;
    for _ in 0..exp {
        acc = acc
            .checked_mul(base)
            .filter(|&n| n <= cap)
            .ok_or_else(|| format!("{ctx}: {base}^{exp} nodes exceeds the {cap}-node cap"))?;
    }
    Ok(acc)
}

/// `n!` with overflow checking, refusing results past `cap`.
fn sized_factorial(ctx: &str, n: usize, cap: usize) -> Result<usize, String> {
    (1..=n).try_fold(1usize, |acc, k| {
        acc.checked_mul(k)
            .filter(|&m| m <= cap)
            .ok_or_else(|| format!("{ctx}: {n}! nodes exceeds the {cap}-node cap"))
    })
}

/// A parsed network: graph, display name, and (when a natural packing
/// exists) the §5 module partition.
#[derive(Debug)]
pub struct ParsedNetwork {
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

/// A parse result that has not committed to materializing the graph:
/// either a classic family (whose graph was built eagerly — they are
/// cheap and have no tuple form) or a super-IP tuple network whose CSR
/// can be built on demand. Letting callers skip `tn.build()` is what
/// keeps distributed workers' memory bounded by their shard range.
enum Parsed {
    Graph(ParsedNetwork),
    Tuple {
        tn: TupleNetwork,
        /// Display-name override (`hcn` renames its HSN tuple form).
        name: Option<String>,
    },
}

/// Parse errors carry a human-readable message.
pub fn parse(input: &str) -> Result<ParsedNetwork, String> {
    parse_with_cap(input, MAX_NODES)
}

/// [`parse`] with an explicit node-count ceiling — the multi-process
/// path passes [`DIST_MAX_NODES`].
pub fn parse_with_cap(input: &str, cap: usize) -> Result<ParsedNetwork, String> {
    match parse_capped(input, cap)? {
        Parsed::Graph(p) => Ok(p),
        Parsed::Tuple { tn, name } => {
            let graph = tn.build();
            let (class, count) = tn.nucleus_partition();
            Ok(ParsedNetwork {
                name: name.unwrap_or_else(|| tn.name.clone()),
                graph,
                partition: Some(Partition::new(class, count)),
                tuple: Some(tn),
            })
        }
    }
}

/// What a distributed worker needs to rebuild its router: the tuple
/// form always (when one exists), the graph only when `graph_needed`.
/// Codec-routable fault-free runs pass `graph_needed = false` and never
/// materialize the CSR — the distributed memory win.
pub struct WorkerNetwork {
    /// The full graph, when requested or when the family has no tuple form.
    pub graph: Option<Csr>,
    /// The tuple form, for codec routing.
    pub tuple: Option<TupleNetwork>,
}

/// Parse for a worker process (see [`WorkerNetwork`]).
pub fn parse_worker(input: &str, cap: usize, graph_needed: bool) -> Result<WorkerNetwork, String> {
    match parse_capped(input, cap)? {
        Parsed::Graph(p) => Ok(WorkerNetwork {
            graph: Some(p.graph),
            tuple: None,
        }),
        Parsed::Tuple { tn, .. } => Ok(WorkerNetwork {
            graph: graph_needed.then(|| tn.build()),
            tuple: Some(tn),
        }),
    }
}

fn parse_capped(input: &str, cap: usize) -> Result<Parsed, String> {
    let (family, rest) = match input.split_once(':') {
        Some((f, r)) => (f, r),
        None => (input, ""),
    };
    // bare tokens: digits are positional integers, words are flags
    let ints: Vec<usize> = rest
        .split(',')
        .filter(|s| {
            !s.is_empty() && !s.contains('=') && s.starts_with(|c: char| c.is_ascii_digit())
        })
        .map(|s| s.parse::<usize>().map_err(|_| format!("bad integer `{s}`")))
        .collect::<Result<_, _>>()?;
    let flag = |name: &str| rest.split(',').any(|s| s == name);
    let kv = |key: &str| -> Option<&str> {
        rest.split(',')
            .filter_map(|s| s.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    };
    let int_kv = |key: &str| -> Result<Option<usize>, String> {
        kv(key)
            .map(|v| v.parse::<usize>().map_err(|_| format!("bad {key}=`{v}`")))
            .transpose()
    };
    let need = |idx: usize, what: &str| -> Result<usize, String> {
        ints.get(idx)
            .copied()
            .ok_or_else(|| format!("{family} needs {what}, e.g. `{family}:8`"))
    };

    let simple = |name: String, graph: Csr, partition: Option<Partition>| {
        Ok(Parsed::Graph(ParsedNetwork {
            name,
            graph,
            partition,
            tuple: None,
        }))
    };

    match family {
        "hypercube" | "cube" | "q" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 1, 22)?;
            let part = partition::subcube_partition(n, n.min(4));
            simple(format!("Q{n}"), classic::hypercube(n), Some(part))
        }
        "folded" | "fq" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 1, 22)?;
            let part = partition::subcube_partition(n, n.min(4));
            simple(format!("FQ{n}"), classic::folded_hypercube(n), Some(part))
        }
        "torus" => {
            let k = in_range(family, "side length", need(0, "a side length")?, 2, 2048)?;
            let part = (k % 4 == 0).then(|| partition::torus_block_partition(k, 4, 4));
            simple(format!("torus {k}x{k}"), classic::torus2d(k), part)
        }
        "kary" => {
            let k = in_range(family, "radix", need(0, "radix")?, 2, MAX_NODES)?;
            let n = in_range(family, "dimension count", need(1, "dimensions")?, 1, 22)?;
            sized_pow(family, k, n, cap)?;
            simple(format!("{k}-ary {n}-cube"), classic::kary_ncube(k, n), None)
        }
        "ring" => {
            let n = in_range(family, "length", need(0, "a length")?, 3, MAX_NODES)?;
            simple(format!("C{n}"), classic::ring(n), None)
        }
        "complete" => {
            let n = in_range(family, "size", need(0, "a size")?, 1, 2048)?;
            simple(format!("K{n}"), classic::complete(n), None)
        }
        "star" => {
            let n = in_range(family, "size", need(0, "a size")?, 1, 10)?;
            let labels = classic::star_labels(n);
            let part = partition::substar_partition(&labels, 3.min(n));
            simple(format!("S{n}"), classic::star(n), Some(part))
        }
        "pancake" => {
            let n = in_range(family, "size", need(0, "a size")?, 1, 10)?;
            simple(format!("pancake-{n}"), classic::pancake(n), None)
        }
        "petersen" => simple("Petersen".into(), classic::petersen(), None),
        "debruijn" | "db" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 1, 22)?;
            let part = partition::subcube_partition(n, n.min(4));
            simple(format!("DB(2,{n})"), classic::debruijn(n), Some(part))
        }
        "se" | "shuffle-exchange" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 2, 22)?;
            simple(format!("SE{n}"), classic::shuffle_exchange(n), None)
        }
        "ccc" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 3, 17)?;
            let part = partition::ccc_cycle_partition(n);
            simple(format!("CCC({n})"), classic::ccc(n), Some(part))
        }
        "gh" => {
            if ints.len() < 2 {
                return Err("gh needs at least two radices, e.g. `gh:3,4`".into());
            }
            ints.iter().try_fold(1usize, |acc, &r| {
                in_range(family, "radix", r, 2, MAX_NODES)?;
                acc.checked_mul(r)
                    .filter(|&n| n <= MAX_NODES)
                    .ok_or_else(|| format!("{family}: node count exceeds the {MAX_NODES}-node cap"))
            })?;
            simple(
                format!(
                    "GH({})",
                    ints.iter()
                        .map(|r| r.to_string())
                        .collect::<Vec<_>>()
                        .join("x")
                ),
                classic::generalized_hypercube(&ints),
                None,
            )
        }
        "rotator" => {
            let n = in_range(family, "size", need(0, "a size")?, 2, 10)?;
            let ip = ipdefs::rotator_ip(n)
                .generate()
                .map_err(|e| e.to_string())?;
            simple(format!("rotator-{n}"), ip.to_directed_csr(), None)
        }
        "macro-star" | "ms" => {
            let l = in_range(
                family,
                "l",
                int_kv("l")?.ok_or("macro-star needs l=..")?,
                1,
                9,
            )?;
            let n = in_range(
                family,
                "n",
                int_kv("n")?.ok_or("macro-star needs n=..")?,
                1,
                9,
            )?;
            // MS(l,n) lives on (l·n+1)! permutations; keep that materializable.
            sized_factorial(family, l * n + 1, cap)?;
            let ip = ipdefs::macro_star_ip(l, n)
                .generate()
                .map_err(|e| e.to_string())?;
            simple(format!("MS({l},{n})"), ip.to_undirected_csr(), None)
        }
        "hcn" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 1, 11)?;
            Ok(Parsed::Tuple {
                tn: hier::hsn(2, classic::hypercube(n), &format!("Q{n}")),
                name: Some(format!("HCN({n},{n})")),
            })
        }
        "hfn" => {
            let n = in_range(family, "dimension", need(0, "a dimension")?, 1, 11)?;
            Ok(Parsed::Tuple {
                tn: hier::hfn(n),
                name: None,
            })
        }
        "hhn" => {
            let k = in_range(family, "dimension", need(0, "a dimension")?, 1, 4)?;
            simple(format!("HHN({k})"), hier::hhn(k), None)
        }
        "rcc" => {
            let l = in_range(family, "l", int_kv("l")?.ok_or("rcc needs l=..")?, 1, 22)?;
            let m = in_range(family, "m", int_kv("m")?.ok_or("rcc needs m=..")?, 2, 2048)?;
            sized_pow(family, m, l, cap)?;
            tuple_network(hier::rcc(l, m))
        }
        "hse" => {
            let l = in_range(family, "l", int_kv("l")?.ok_or("hse needs l=..")?, 1, 22)?;
            let n = in_range(family, "n", int_kv("n")?.ok_or("hse needs n=..")?, 2, 22)?;
            sized_pow(family, 1usize << n, l, cap)?;
            tuple_network(hier::hse(l, n))
        }
        "cpn" => {
            let l = in_range(family, "depth", need(0, "a depth")?, 1, 6)?;
            tuple_network(hier::cyclic_petersen(l))
        }
        "hsn" | "ring-cn" | "cn" | "complete-cn" | "superflip" => {
            let l = in_range(
                family,
                "l",
                int_kv("l")?.ok_or_else(|| format!("{family} needs l=.."))?,
                1,
                22,
            )?;
            let (nucleus, nname) = parse_nucleus(kv("nucleus").unwrap_or("Q2"))?;
            let size = sized_pow(family, nucleus.node_count(), l, cap)?;
            if flag("symmetric") {
                // the symmetric closure multiplies the address space by l!
                sized_factorial(family, l, cap).and_then(|f| {
                    f.checked_mul(size).filter(|&n| n <= cap).ok_or_else(|| {
                        format!("{family}: symmetric closure exceeds the {cap}-node cap")
                    })
                })?;
            }
            let mut tn = match family {
                "hsn" => hier::hsn(l, nucleus, &nname),
                "ring-cn" => hier::ring_cn(l, nucleus, &nname),
                "cn" | "complete-cn" => hier::complete_cn(l, nucleus, &nname),
                _ => hier::superflip(l, nucleus, &nname),
            };
            if flag("symmetric") {
                tn = hier::symmetric(&tn);
            }
            tuple_network(tn)
        }
        other => Err(format!(
            "unknown family `{other}`; see `ipg help` for the list"
        )),
    }
}

fn tuple_network(tn: TupleNetwork) -> Result<Parsed, String> {
    Ok(Parsed::Tuple { tn, name: None })
}

/// Parse a nucleus name: `Q4`, `FQ3`, `K8`, `S4`, `P`, `C6`, `GH3x4`.
pub fn parse_nucleus(s: &str) -> Result<(Csr, String), String> {
    let num = |prefix: &str| -> Result<usize, String> {
        s[prefix.len()..]
            .parse::<usize>()
            .map_err(|_| format!("bad nucleus `{s}`"))
    };
    if s == "P" {
        return Ok((classic::petersen(), "P".into()));
    }
    if let Some(rest) = s.strip_prefix("GH") {
        let radices: Vec<usize> = rest
            .split('x')
            .map(|r| r.parse::<usize>().map_err(|_| format!("bad nucleus `{s}`")))
            .collect::<Result<_, _>>()?;
        radices.iter().try_fold(1usize, |acc, &r| {
            in_range("nucleus", "radix", r, 2, MAX_NODES)?;
            acc.checked_mul(r)
                .filter(|&n| n <= MAX_NODES)
                .ok_or_else(|| format!("nucleus `{s}` exceeds the {MAX_NODES}-node cap"))
        })?;
        return Ok((classic::generalized_hypercube(&radices), s.to_string()));
    }
    if s.starts_with("FQ") {
        let n = in_range("nucleus", "dimension", num("FQ")?, 1, 22)?;
        return Ok((classic::folded_hypercube(n), s.to_string()));
    }
    match s.as_bytes().first() {
        Some(b'Q') => {
            let n = in_range("nucleus", "dimension", num("Q")?, 1, 22)?;
            Ok((classic::hypercube(n), s.to_string()))
        }
        Some(b'K') => {
            let n = in_range("nucleus", "size", num("K")?, 1, 2048)?;
            Ok((classic::complete(n), s.to_string()))
        }
        Some(b'S') => {
            let n = in_range("nucleus", "size", num("S")?, 1, 10)?;
            Ok((classic::star(n), s.to_string()))
        }
        Some(b'C') => {
            let n = in_range("nucleus", "length", num("C")?, 3, MAX_NODES)?;
            Ok((classic::ring(n), s.to_string()))
        }
        _ => Err(format!("unknown nucleus `{s}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(e.contains("symmetric closure"), "{e}");
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
        assert!(e.contains("13! nodes exceeds"), "{e}");
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
        let w = parse_worker(spec, DIST_MAX_NODES, false).unwrap();
        assert!(w.graph.is_none());
        assert_eq!(
            w.tuple.unwrap().node_count(),
            DIST_MAX_NODES,
            "CN(2,Q12) should sit exactly at the dist cap"
        );
    }

    #[test]
    fn worker_parse_skips_graph_materialization_on_demand() {
        let lazy = parse_worker("hsn:l=3,nucleus=Q2", MAX_NODES, false).unwrap();
        assert!(lazy.graph.is_none());
        assert!(lazy.tuple.is_some());

        let eager = parse_worker("hsn:l=3,nucleus=Q2", MAX_NODES, true).unwrap();
        assert_eq!(eager.graph.unwrap().node_count(), 64);

        // Classic families have no tuple form: graph comes back regardless.
        let classic = parse_worker("hypercube:6", MAX_NODES, false).unwrap();
        assert_eq!(classic.graph.unwrap().node_count(), 64);
        assert!(classic.tuple.is_none());
    }

    #[test]
    fn parse_with_cap_matches_parse_at_the_default_cap() {
        for spec in ["hcn:3", "hfn:2", "hsn:l=3,nucleus=Q2", "torus:8"] {
            let a = parse(spec).unwrap();
            let b = parse_with_cap(spec, MAX_NODES).unwrap();
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
}
