//! Text rendering of index structure — used by the Figure 1 walkthrough
//! example and for debugging small indexes.

use pai_common::geometry::Rect;

use crate::index::ValinorIndex;
use crate::tile::{TileId, TileState};

/// Renders the leaf-tile boundaries (and optionally a query window) as an
/// ASCII raster of `width × height` characters.
///
/// Legend: `+` tile corners, `-`/`|` tile edges, `o` objects, `#` the query
/// window outline, space elsewhere. Intended for small demonstration
/// indexes; rendering cost is O(leaves × perimeter).
pub fn render_ascii(
    index: &ValinorIndex,
    query: Option<&Rect>,
    width: usize,
    height: usize,
) -> String {
    assert!(width >= 8 && height >= 8, "raster too small to be readable");
    let domain = *index.domain();
    let mut grid = vec![vec![' '; width]; height];

    let to_col = |x: f64| -> usize {
        let f = (x - domain.x_min) / domain.width();
        ((f * (width - 1) as f64).round() as isize).clamp(0, width as isize - 1) as usize
    };
    // Screen rows grow downward; data y grows upward.
    let to_row = |y: f64| -> usize {
        let f = (y - domain.y_min) / domain.height();
        let r = ((1.0 - f) * (height - 1) as f64).round() as isize;
        r.clamp(0, height as isize - 1) as usize
    };

    let draw_rect =
        |grid: &mut Vec<Vec<char>>, r: &Rect, edge_h: char, edge_v: char, corner: char| {
            let (c0, c1) = (to_col(r.x_min), to_col(r.x_max));
            let (r0, r1) = (to_row(r.y_max), to_row(r.y_min));
            for rr in [r0, r1] {
                for cell in grid[rr][c0..=c1].iter_mut() {
                    *cell = edge_h;
                }
            }
            for row in grid[r0..=r1].iter_mut() {
                for c in [c0, c1] {
                    row[c] = edge_v;
                }
            }
            for rr in [r0, r1] {
                for c in [c0, c1] {
                    grid[rr][c] = corner;
                }
            }
        };

    for id in index.leaves_overlapping(&domain) {
        let rect = index.tile(id).rect;
        draw_rect(&mut grid, &rect, '-', '|', '+');
    }
    // Objects over edges, query outline over everything.
    for id in index.leaves_overlapping(&domain) {
        for e in index.tile(id).entries() {
            grid[to_row(e.y)][to_col(e.x)] = 'o';
        }
    }
    if let Some(q) = query {
        if let Some(clipped) = q.intersection(&domain) {
            draw_rect(&mut grid, &clipped, '#', '#', '#');
        }
    }

    let mut out = String::with_capacity((width + 1) * height);
    for row in grid {
        out.extend(row);
        out.push('\n');
    }
    out
}

/// A textual outline of the tile hierarchy: rect, depth, object count, and
/// which attributes have exact vs bounded metadata.
pub fn tree_string(index: &ValinorIndex) -> String {
    let mut out = String::new();
    let (nx, ny) = index.grid_dims();
    out.push_str(&format!(
        "ValinorIndex: {} objects, {} tiles ({} leaves), {}x{} root grid, domain {}\n",
        index.total_objects(),
        index.tile_count(),
        index.leaf_count(),
        nx,
        ny,
        index.domain()
    ));
    for cell in 0..nx * ny {
        let root = root_of(index, cell);
        describe(index, root, 1, &mut out);
    }
    out
}

fn root_of(_index: &ValinorIndex, cell: usize) -> TileId {
    // Root tiles were created first, in cell order.
    TileId(cell as u32)
}

fn describe(index: &ValinorIndex, id: TileId, depth: usize, out: &mut String) {
    let tile = index.tile(id);
    let indent = "  ".repeat(depth);
    let mut meta_desc: Vec<String> = Vec::new();
    for attr in tile.meta.known_attrs() {
        let m = tile.meta.get(attr).expect("known attr");
        meta_desc.push(format!(
            "col{attr}:{}",
            if m.is_exact() { "exact" } else { "bounds" }
        ));
    }
    let meta_str = if meta_desc.is_empty() {
        String::from("-")
    } else {
        meta_desc.join(",")
    };
    match &tile.state {
        TileState::Leaf(leaf) => {
            out.push_str(&format!(
                "{indent}leaf {} rect {} objects {} meta [{}]\n",
                id.0,
                tile.rect,
                leaf.entries().len(),
                meta_str
            ));
        }
        TileState::Inner { children, count } => {
            out.push_str(&format!(
                "{indent}node {} rect {} children {} objects {count} meta [{meta_str}]\n",
                id.0,
                tile.rect,
                children.len()
            ));
            for &c in children {
                describe(index, c, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MetadataPolicy;
    use crate::init::{build, GridSpec, InitConfig};
    use pai_storage::{CsvFormat, MemFile, Schema};

    fn small() -> (MemFile, ValinorIndex) {
        let rows = vec![vec![5.0, 5.0, 1.0], vec![25.0, 25.0, 2.0]];
        let f = MemFile::from_rows(Schema::synthetic(3), CsvFormat::default(), rows).unwrap();
        let cfg = InitConfig {
            grid: GridSpec::Fixed { nx: 3, ny: 3 },
            domain: Some(Rect::new(0.0, 30.0, 0.0, 30.0)),
            metadata: MetadataPolicy::AllNumeric,
        };
        let (idx, _) = build(&f, &cfg).unwrap();
        (f, idx)
    }

    #[test]
    fn ascii_contains_objects_and_query() {
        let (_, idx) = small();
        let q = Rect::new(10.0, 20.0, 10.0, 20.0);
        let art = render_ascii(&idx, Some(&q), 40, 20);
        assert!(art.contains('o'), "objects rendered");
        assert!(art.contains('#'), "query rendered");
        assert!(art.contains('+'), "tile corners rendered");
        assert_eq!(art.lines().count(), 20);
        assert!(art.lines().all(|l| l.chars().count() == 40));
    }

    #[test]
    fn tree_lists_all_leaves() {
        let (_, idx) = small();
        let txt = tree_string(&idx);
        assert!(txt.contains("2 objects"));
        assert_eq!(txt.matches("leaf").count(), 9);
        assert!(txt.contains("exact"));
    }

    #[test]
    fn tree_shows_hierarchy_after_split() {
        let (_f, mut idx) = small();
        let t = TileId(0);
        let rect = idx.tile(t).rect;
        idx.split_leaf(t, rect.split_grid(2, 2)).unwrap();
        let txt = tree_string(&idx);
        assert!(txt.contains("node 0"));
        assert_eq!(txt.matches("leaf").count(), 12, "8 remaining + 4 children");
    }
}
