//! Network and dataset (de)serialization.
//!
//! Two formats:
//!
//! * A **text edge list** for interoperability with external road-network
//!   data (one header line `n m`, then `n` lines `x y` of node
//!   coordinates, then `m` lines `u v w` of undirected edges).
//! * A compact **binary snapshot** (magic + version + little-endian
//!   fields) for fast save/load of generated networks and object sets.
//!
//! Both readers refuse a weight outside the weight domain
//! ([`crate::ids::max_weight`]) with [`LoadError::Format`].

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::dataset::ObjectSet;
use crate::ids::{max_weight, weight_in_domain, Dist, NodeId, INFINITY};
use crate::network::{NetworkBuilder, RoadNetwork};
use crate::point::Point;

const NET_MAGIC: &[u8; 4] = b"DSRN";
const OBJ_MAGIC: &[u8; 4] = b"DSOB";
const VERSION: u32 = 1;

/// Errors from loading network/dataset files.
#[derive(Debug)]
pub enum LoadError {
    Io(io::Error),
    /// Structural problem with the file contents.
    Format(String),
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn format_err<T>(msg: impl Into<String>) -> Result<T, LoadError> {
    Err(LoadError::Format(msg.into()))
}

// ---------- text edge list ----------

/// Write the network as a text edge list.
pub fn write_edge_list<W: Write>(net: &RoadNetwork, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "{} {}", net.num_nodes(), net.num_edges())?;
    for n in net.nodes() {
        let p = net.coord(n);
        writeln!(w, "{} {}", p.x, p.y)?;
    }
    for u in net.nodes() {
        for (_, v, weight) in net.neighbors(u) {
            if u < v {
                // Removed edges round-trip as weight 0 (re-removed on load).
                let stored = if weight == INFINITY { 0 } else { weight };
                writeln!(w, "{} {} {}", u.0, v.0, stored)?;
            }
        }
    }
    w.flush()
}

/// Read a text edge list written by [`write_edge_list`] (or by hand).
pub fn read_edge_list<R: Read>(r: R) -> Result<RoadNetwork, LoadError> {
    let mut lines = BufReader::new(r).lines();
    let mut next_line = || -> Result<String, LoadError> {
        loop {
            match lines.next() {
                None => return format_err("unexpected end of file"),
                Some(l) => {
                    let l = l?;
                    let t = l.trim();
                    if !t.is_empty() && !t.starts_with('#') {
                        return Ok(t.to_string());
                    }
                }
            }
        }
    };
    let header = next_line()?;
    let mut it = header.split_whitespace();
    let n: usize = parse(it.next(), "node count")?;
    let m: usize = parse(it.next(), "edge count")?;
    let mut b = NetworkBuilder::with_capacity(n);
    for i in 0..n {
        let l = next_line()?;
        let mut it = l.split_whitespace();
        let x: f64 = parse(it.next(), &format!("x of node {i}"))?;
        let y: f64 = parse(it.next(), &format!("y of node {i}"))?;
        b.add_node(Point::new(x, y));
    }
    let mut removed = Vec::new();
    for i in 0..m {
        let l = next_line()?;
        let mut it = l.split_whitespace();
        let u: u32 = parse(it.next(), &format!("u of edge {i}"))?;
        let v: u32 = parse(it.next(), &format!("v of edge {i}"))?;
        let w: Dist = parse(it.next(), &format!("w of edge {i}"))?;
        if u as usize >= n || v as usize >= n {
            return format_err(format!("edge {i} endpoint out of range"));
        }
        if u == v {
            return format_err(format!("edge {i} is a self-loop"));
        }
        if b.has_edge(NodeId(u), NodeId(v)) {
            return format_err(format!("duplicate edge {u}-{v}"));
        }
        // 0 marks a removed edge; INFINITY itself is never written.
        if w > max_weight(n) {
            return format_err(format!(
                "edge {u}-{v} weight {w} above the domain's {}",
                max_weight(n)
            ));
        }
        if w == 0 {
            // Placeholder weight; removed right after build.
            b.add_edge(NodeId(u), NodeId(v), 1);
            removed.push((NodeId(u), NodeId(v)));
        } else {
            b.add_edge(NodeId(u), NodeId(v), w);
        }
    }
    let mut net = b.build();
    for (u, v) in removed {
        net.set_edge_weight(u, v, INFINITY);
    }
    Ok(net)
}

fn parse<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, LoadError> {
    tok.ok_or_else(|| LoadError::Format(format!("missing {what}")))?
        .parse()
        .map_err(|_| LoadError::Format(format!("unparseable {what}")))
}

// ---------- binary helpers (shared with dsi-signature's persistence) ----------

/// Write a `u32` little-endian.
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write a `u64` little-endian.
pub fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Write an `f64` little-endian.
pub fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Read a `u32` little-endian.
pub fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Read a `u64` little-endian.
pub fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Read an `f64` little-endian.
pub fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn expect_magic<R: Read>(r: &mut R, magic: &[u8; 4], what: &str) -> Result<(), LoadError> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    if &b != magic {
        return format_err(format!("not a {what} file (bad magic)"));
    }
    let v = get_u32(r)?;
    if v != VERSION {
        return format_err(format!("unsupported {what} version {v}"));
    }
    Ok(())
}

// ---------- binary network snapshot ----------

/// Write the network in the binary snapshot format. Per-node adjacency
/// lists are stored **in slot order**, so backtracking links built against
/// the original network remain valid against the loaded one.
pub fn write_network<W: Write>(net: &RoadNetwork, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(NET_MAGIC)?;
    put_u32(&mut w, VERSION)?;
    put_u32(&mut w, net.num_nodes() as u32)?;
    for n in net.nodes() {
        let p = net.coord(n);
        put_f64(&mut w, p.x)?;
        put_f64(&mut w, p.y)?;
    }
    for u in net.nodes() {
        put_u32(&mut w, net.degree(u))?;
        for (_, v, weight) in net.neighbors(u) {
            put_u32(&mut w, v.0)?;
            put_u32(&mut w, weight)?;
        }
    }
    w.flush()
}

/// Read a binary network snapshot.
pub fn read_network<R: Read>(r: R) -> Result<RoadNetwork, LoadError> {
    let mut r = BufReader::new(r);
    expect_magic(&mut r, NET_MAGIC, "road network")?;
    let n = get_u32(&mut r)? as usize;
    let mut coords = Vec::with_capacity(n);
    for _ in 0..n {
        let x = get_f64(&mut r)?;
        let y = get_f64(&mut r)?;
        coords.push(Point::new(x, y));
    }
    let mut adj: Vec<Vec<(NodeId, Dist)>> = Vec::with_capacity(n);
    for u in 0..n {
        let deg = get_u32(&mut r)? as usize;
        if deg > u8::MAX as usize + 1 {
            return format_err(format!("node {u} degree {deg} out of range"));
        }
        let mut list = Vec::with_capacity(deg);
        for _ in 0..deg {
            let v = get_u32(&mut r)?;
            let w = get_u32(&mut r)?;
            if v as usize >= n {
                return format_err(format!("node {u} has out-of-range neighbour"));
            }
            if !weight_in_domain(w, n) {
                return format_err(format!("edge {u}-{v} weight {w} outside the domain"));
            }
            list.push((NodeId(v), w));
        }
        adj.push(list);
    }
    // Validate before handing to from_adjacency (which asserts).
    for (u, list) in adj.iter().enumerate() {
        let mut seen = std::collections::HashSet::with_capacity(list.len());
        for &(v, w) in list {
            if v.index() == u {
                return format_err(format!("self-loop at node {u}"));
            }
            if !seen.insert(v) {
                return format_err(format!("duplicate neighbour at node {u}"));
            }
            match adj[v.index()].iter().find(|&&(t, _)| t.index() == u) {
                Some(&(_, wb)) if wb == w => {}
                Some(_) => return format_err(format!("weight mismatch on {u}-{v}")),
                None => return format_err(format!("asymmetric edge {u}-{v}")),
            }
        }
    }
    Ok(RoadNetwork::from_adjacency(coords, adj))
}

/// Save a network to `path` (binary snapshot).
pub fn save_network(net: &RoadNetwork, path: impl AsRef<Path>) -> io::Result<()> {
    write_network(net, std::fs::File::create(path)?)
}

/// Load a network from `path` (binary snapshot).
pub fn load_network(path: impl AsRef<Path>) -> Result<RoadNetwork, LoadError> {
    read_network(std::fs::File::open(path)?)
}

// ---------- binary object set ----------

/// Write an object set (host node ids).
pub fn write_objects<W: Write>(objects: &ObjectSet, w: W) -> io::Result<()> {
    let mut w = BufWriter::new(w);
    w.write_all(OBJ_MAGIC)?;
    put_u32(&mut w, VERSION)?;
    put_u32(&mut w, objects.len() as u32)?;
    for (_, host) in objects.iter() {
        put_u32(&mut w, host.0)?;
    }
    w.flush()
}

/// Read an object set; validated against `net`.
pub fn read_objects<R: Read>(r: R, net: &RoadNetwork) -> Result<ObjectSet, LoadError> {
    let mut r = BufReader::new(r);
    expect_magic(&mut r, OBJ_MAGIC, "object set")?;
    let d = get_u32(&mut r)? as usize;
    let mut hosts = Vec::with_capacity(d);
    for _ in 0..d {
        let h = get_u32(&mut r)?;
        if h as usize >= net.num_nodes() {
            return format_err("object host out of range");
        }
        hosts.push(NodeId(h));
    }
    Ok(ObjectSet::from_nodes(net, hosts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_planar, PlanarConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> (RoadNetwork, ObjectSet) {
        let mut rng = StdRng::seed_from_u64(404);
        let net = random_planar(
            &PlanarConfig {
                num_nodes: 120,
                ..Default::default()
            },
            &mut rng,
        );
        let objects = ObjectSet::uniform(&net, 0.05, &mut rng);
        (net, objects)
    }

    fn nets_equal(a: &RoadNetwork, b: &RoadNetwork) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        for n in a.nodes() {
            assert_eq!(a.coord(n), b.coord(n));
            let ea: Vec<_> = a.neighbors(n).collect();
            let eb: Vec<_> = b.neighbors(n).collect();
            assert_eq!(ea, eb, "adjacency of {n}");
        }
    }

    #[test]
    fn binary_network_round_trip() {
        let (net, _) = sample();
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let back = read_network(&buf[..]).unwrap();
        nets_equal(&net, &back);
    }

    #[test]
    fn binary_round_trip_preserves_removed_edges() {
        let (mut net, _) = sample();
        let (_, v, _) = net.neighbors(NodeId(0)).next().unwrap();
        net.set_edge_weight(NodeId(0), v, INFINITY);
        let mut buf = Vec::new();
        write_network(&net, &mut buf).unwrap();
        let back = read_network(&buf[..]).unwrap();
        assert_eq!(back.edge_weight(NodeId(0), v), Some(INFINITY));
        nets_equal(&net, &back);
    }

    #[test]
    fn text_round_trip_preserves_edge_set() {
        // The text format canonicalizes adjacency order (it is meant for
        // data interchange, not for carrying backtracking links), so the
        // comparison is by edge set.
        let (net, _) = sample();
        let mut buf = Vec::new();
        write_edge_list(&net, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(net.num_nodes(), back.num_nodes());
        assert_eq!(net.num_edges(), back.num_edges());
        let edges = |g: &RoadNetwork| {
            let mut e: Vec<(NodeId, NodeId, Dist)> = g
                .nodes()
                .flat_map(|u| {
                    g.neighbors(u)
                        .filter(move |&(_, v, _)| u < v)
                        .map(move |(_, v, w)| (u, v, w))
                })
                .collect();
            e.sort();
            e
        };
        assert_eq!(edges(&net), edges(&back));
        for n in net.nodes() {
            assert_eq!(net.coord(n), back.coord(n));
        }
    }

    #[test]
    fn text_format_tolerates_comments_and_blank_lines() {
        let text = "# tiny network\n\n3 2\n0 0\n1 0\n\n2 0\n0 1 5\n1 2 7\n";
        let net = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(net.num_nodes(), 3);
        assert_eq!(net.edge_weight(NodeId(1), NodeId(2)), Some(7));
    }

    #[test]
    fn text_format_rejects_garbage() {
        assert!(read_edge_list(&b"nonsense"[..]).is_err());
        assert!(read_edge_list(&b"2 1\n0 0\n1 1\n0 0 5\n"[..]).is_err()); // self-loop
        assert!(read_edge_list(&b"2 1\n0 0\n1 1\n0 7 5\n"[..]).is_err()); // out of range
        assert!(read_edge_list(&b"2 2\n0 0\n1 1\n0 1 5\n1 0 4\n"[..]).is_err()); // dup
        assert!(read_edge_list(&b"3 1\n0 0\n"[..]).is_err()); // truncated
    }

    #[test]
    fn both_formats_reject_weights_outside_the_domain() {
        let top = max_weight(2);
        let text = |w: Dist| format!("2 1\n0 0\n1 1\n0 1 {w}\n");
        assert!(read_edge_list(text(top).as_bytes()).is_ok());
        for w in [top + 1, INFINITY - 1, INFINITY] {
            assert!(
                read_edge_list(text(w).as_bytes()).is_err(),
                "text weight {w}"
            );
        }
        let mut b = NetworkBuilder::new();
        let (u, v) = (
            b.add_node(Point::new(0.0, 0.0)),
            b.add_node(Point::new(1.0, 0.0)),
        );
        b.add_edge(u, v, 1);
        let mut net = b.build();
        for (w, ok) in [(top, true), (INFINITY, true), (0, false), (top + 1, false)] {
            net.set_edge_weight(u, v, w);
            assert_eq!(net.edge_out_of_domain().is_none(), ok, "weight {w}");
            let mut buf = Vec::new();
            write_network(&net, &mut buf).unwrap();
            assert_eq!(read_network(&buf[..]).is_ok(), ok, "binary weight {w}");
        }
    }

    #[test]
    fn objects_round_trip() {
        let (net, objects) = sample();
        let mut buf = Vec::new();
        write_objects(&objects, &mut buf).unwrap();
        let back = read_objects(&buf[..], &net).unwrap();
        assert_eq!(back.host_nodes(), objects.host_nodes());
    }

    #[test]
    fn bad_magic_is_reported() {
        let err = read_network(&b"XXXX\0\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)), "{err}");
    }

    #[test]
    fn file_round_trip() {
        let (net, _) = sample();
        let dir = std::env::temp_dir().join("dsi_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.bin");
        save_network(&net, &path).unwrap();
        let back = load_network(&path).unwrap();
        nets_equal(&net, &back);
        std::fs::remove_file(&path).ok();
    }
}
