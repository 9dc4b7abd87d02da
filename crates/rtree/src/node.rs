//! On-page layouts for the packed R-tree, and the one reader of each.
//!
//! ```text
//! meta page (page 0):
//!   0  u32 magic          4  u8 dims        5  u8 pack order
//!   6  u16 view count
//!   8  u64 root pid       16 u32 height     24 u64 leaf count
//!   32 u64 entry count    40 u64 first leaf pid
//!   48.. view table, 32 bytes per view:
//!        u32 view id, u8 agg tag, u8 arity, u16 pad,
//!        u64 entries, u64 first leaf, u64 last leaf
//!
//! internal page:
//!   0 u8 tag=4   2 u16 entry count
//!   16.. entries: lo[dims] ++ hi[dims] ++ child pid   (u64 words)
//!
//! leaf page (a leaf names its own format, so any mix of them is readable):
//!   0 u8 tag=5   1 u8 format (1 = raw, 2 = zero-elided, 3 = bit-packed;
//!        anything else, the retired varint-delta code 0 included, is Corrupt)
//!   2 u16 entry count     4 u32 view id     8 u64 next leaf pid (ascending)
//!   16 u8 arity           17 u8 agg width   18 u16 data bytes
//!   20 u8 stored coordinate width (= arity — the zero padding of the valid
//!        mapping is *not* stored, §2.4 — or the tree's dims for raw)
//!   24.. formats 1, 2: rows of (stored coordinates ++ aggregate words) u64s
//!        format 3, n = arity + agg width columns, each a frame of reference:
//!          u64 base[n]   column minimum (aggregate words ordered as i64)
//!          u8  bits[n]   0..=64, width of (value − base); padded to 8 bytes
//!          then column c as ceil(count·bits[c] / 64) little-endian u64s,
//!          value i at bits [i·bits[c], (i+1)·bits[c])
//! ```
//!
//! DESIGN.md ("Leaf formats") has the byte-by-byte table and the reasons. A
//! leaf is read in place: `LeafView::parse` checks the header against the
//! page size and the tree's view table once, after which any value of any
//! entry is one or two word reads, so a search binary-searches the sort
//! columns and filters the rest instead of decoding entries it will not
//! return.

use ct_common::{AggFn, AggState, CtError, Point, Rect, Result, MAX_DIMS};
use ct_storage::{Page, PAGE_SIZE};

/// Magic number of an R-tree meta page.
pub const MAGIC: u32 = 0x5254_5245; // "RTRE"
/// Internal node tag.
pub const TAG_INTERNAL: u8 = 4;
/// Leaf node tag.
pub const TAG_LEAF: u8 = 5;
/// Byte offset where leaf entry data starts.
pub const LEAF_DATA: usize = 24;
/// Byte offset where internal entries start.
pub const INT_DATA: usize = 16;
/// "No next leaf" sentinel.
pub const NO_LEAF: u64 = u64::MAX;
/// Byte offset of the view table in the meta page.
pub const VIEW_TABLE: usize = 48;
/// Bytes per view-table slot.
pub const VIEW_SLOT: usize = 32;
/// Maximum views per tree (bounded by the meta page size; SelectMapping
/// produces at most `dims` views per tree, far below this).
pub const MAX_VIEWS: usize = (PAGE_SIZE - VIEW_TABLE) / VIEW_SLOT;
/// Leaf format code: fixed-width entries including the padding zeros.
pub const FORMAT_RAW: u8 = 1;
/// Leaf format code: fixed-width entries, padding zeros elided.
pub const FORMAT_ZERO_ELIDED: u8 = 2;
/// Leaf format code: bit-packed frame-of-reference columns.
pub const FORMAT_PACKED: u8 = 3;
/// Most entries one leaf may hold: bounds what a reader copies out of a page
/// whatever its header claims (fixed-width leaves stay far below it).
pub const MAX_LEAF_ENTRIES: usize = PAGE_SIZE - LEAF_DATA;
/// Most columns an entry has: every coordinate plus the widest aggregate.
const MAX_COLS: usize = MAX_DIMS + 2;
/// Aggregate words compare as `i64`: flipping the sign bit maps that order
/// onto `u64`, where the column minimum and range are taken.
const SIGN: u64 = 1 << 63;

/// Static description of one view stored in a tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ViewInfo {
    /// The view's id (matches `ct_common::ViewId`).
    pub view: u32,
    /// The view's arity (coordinates actually stored per point).
    pub arity: u8,
    /// The aggregate function; fixes the aggregate word width.
    pub agg: AggFn,
}

impl ViewInfo {
    /// Aggregate word width.
    pub fn agg_width(&self) -> usize {
        self.agg.width()
    }
}

/// Per-view placement statistics kept in the meta page.
#[derive(Clone, Copy, Debug, Default)]
pub struct ViewExtent {
    /// Entries stored for the view.
    pub entries: u64,
    /// First leaf page holding the view.
    pub first_leaf: u64,
    /// Last leaf page holding the view.
    pub last_leaf: u64,
}

/// Maximum entries of an internal node for a given dimensionality.
pub fn internal_capacity(dims: usize) -> usize {
    (PAGE_SIZE - INT_DATA) / ((2 * dims + 1) * 8)
}

/// Encodes an internal node: `(mbr, child page id)` in packed order.
pub(crate) fn write_internal(page: &mut Page, dims: usize, entries: &[(Rect, u64)]) {
    page.clear();
    page.bytes_mut()[0] = TAG_INTERNAL;
    page.put_u16(2, entries.len() as u16);
    let stride = (2 * dims + 1) * 8;
    for (i, (mbr, child)) in entries.iter().enumerate() {
        let off = INT_DATA + i * stride;
        page.put_u64s(off, mbr.lo());
        page.put_u64s(off + dims * 8, mbr.hi());
        page.put_u64(off + 2 * dims * 8, *child);
    }
}

/// Appends to `out`, in stored order, the child of every entry of an
/// internal page whose (non-empty) MBR intersects `region`.
pub(crate) fn intersecting_children(
    page: &Page,
    dims: usize,
    region: &Rect,
    out: &mut Vec<u64>,
) -> Result<()> {
    if page.bytes()[0] != TAG_INTERNAL {
        return Err(CtError::corrupt("expected R-tree internal node"));
    }
    let n = page.get_u16(2) as usize;
    if n > internal_capacity(dims) {
        return Err(CtError::corrupt("internal node overflows its page"));
    }
    let (lo, hi) = (region.lo(), region.hi());
    for i in 0..n {
        let off = INT_DATA + i * (2 * dims + 1) * 8;
        let hit = (0..dims).all(|d| {
            let (mlo, mhi) = (page.get_u64(off + d * 8), page.get_u64(off + (dims + d) * 8));
            mlo <= mhi && mlo <= hi[d] && mhi >= lo[d]
        });
        if hit {
            out.push(page.get_u64(off + 2 * dims * 8));
        }
    }
    Ok(())
}

/// Where one column of a leaf lives: value `i` is the `bits` bits at bit
/// `i * stride` past byte `off`, plus `base`. Fixed-width rows are the case
/// `bits = 64`, `stride` = the row length.
#[derive(Clone, Copy, Default)]
struct Column {
    off: usize,
    stride: usize,
    bits: u32,
    base: u64,
}

/// Bits needed to store every value of `0..=range`.
fn bits_for(range: u64) -> usize {
    (64 - range.leading_zeros()) as usize
}

/// Bytes of a bit-packed leaf's column directory.
fn directory_bytes(cols: usize) -> usize {
    cols * 8 + cols.next_multiple_of(8)
}

/// What outlives the page visit: enough of a leaf's header to turn its
/// copied-out rows into entries.
#[derive(Clone, Copy)]
pub(crate) struct LeafHead {
    /// Owning view id.
    pub view: u32,
    /// Right-sibling leaf or [`NO_LEAF`].
    pub next: u64,
    /// Coordinates per entry.
    pub arity: usize,
    /// The owning view's aggregate; fixes the aggregate words per entry.
    pub agg: AggFn,
}

impl LeafHead {
    /// Words per entry: coordinates, then aggregate words.
    pub fn width(&self) -> usize {
        self.arity + self.agg.width()
    }

    /// Decodes one copied-out row.
    pub fn entry(&self, row: &[u64], dims: usize) -> Result<(Point, AggState)> {
        let (coords, aggs) = row.split_at(self.arity);
        Ok((Point::new(coords, dims), AggState::decode(self.agg, aggs)?))
    }
}

/// A validated, borrowed view of one leaf page. Entries are addressed as
/// `arity` coordinate columns followed by the aggregate-word columns.
pub(crate) struct LeafView<'a> {
    page: &'a Page,
    pub head: LeafHead,
    /// Entry count.
    pub count: usize,
    cols: [Column; MAX_COLS],
}

impl<'a> LeafView<'a> {
    /// Checks a leaf page against its own size and the tree's view table;
    /// every later access relies on these checks and cannot leave the page.
    pub fn parse(page: &'a Page, meta: &TreeMeta) -> Result<Self> {
        let b = page.bytes();
        if b[0] != TAG_LEAF {
            return Err(CtError::corrupt("expected R-tree leaf node"));
        }
        let count = page.get_u16(2) as usize;
        let (arity, agg_width, stored) = (b[16] as usize, b[17] as usize, b[20] as usize);
        let head = LeafHead { view: page.get_u32(4), next: page.get_u64(8), arity, agg: AggFn::Sum };
        let mut leaf = LeafView { page, head, count, cols: [Column::default(); MAX_COLS] };
        if count == 0 {
            // The root of an empty tree belongs to no view.
            leaf.head.arity = 0;
            return Ok(leaf);
        }
        let (info, _) = meta
            .views
            .iter()
            .find(|(v, _)| v.view == head.view)
            .ok_or_else(|| CtError::corrupt("leaf for unknown view"))?;
        if arity != info.arity as usize || agg_width != info.agg_width() {
            return Err(CtError::corrupt("leaf shape disagrees with its view"));
        }
        leaf.head.agg = info.agg;
        let width = arity + agg_width;
        match b[1] {
            FORMAT_RAW | FORMAT_ZERO_ELIDED => {
                let row = stored + agg_width;
                if stored < arity || stored > meta.dims || count * row * 8 > PAGE_SIZE - LEAF_DATA {
                    return Err(CtError::corrupt("leaf entries overflow the page"));
                }
                for (c, col) in leaf.cols[..width].iter_mut().enumerate() {
                    let word = if c < arity { c } else { stored + c - arity };
                    *col = Column { off: LEAF_DATA + word * 8, stride: row * 64, bits: 64, base: 0 };
                }
            }
            FORMAT_PACKED => {
                let mut off = LEAF_DATA + directory_bytes(width);
                for (c, col) in leaf.cols[..width].iter_mut().enumerate() {
                    let bits = b[LEAF_DATA + width * 8 + c] as usize;
                    if bits > 64 || count > MAX_LEAF_ENTRIES {
                        return Err(CtError::corrupt("leaf column directory out of range"));
                    }
                    let base = page.get_u64(LEAF_DATA + c * 8);
                    *col = Column { off, stride: bits, bits: bits as u32, base };
                    off += (count * bits).div_ceil(64) * 8;
                }
                if off > PAGE_SIZE {
                    return Err(CtError::corrupt("leaf columns overflow the page"));
                }
            }
            other => return Err(CtError::corrupt(format!("unsupported leaf format {other}"))),
        }
        Ok(leaf)
    }

    /// Value `i` of column `c` (`i < count`, `c < width`).
    #[inline]
    fn get(&self, c: usize, i: usize) -> u64 {
        let col = &self.cols[c];
        if col.bits == 0 {
            return col.base;
        }
        let bit = i * col.stride;
        let (at, shift) = (col.off + (bit >> 6) * 8, (bit & 63) as u32);
        let mut v = self.page.get_u64(at) >> shift;
        if shift + col.bits > 64 {
            v |= self.page.get_u64(at + 8) << (64 - shift);
        }
        col.base.wrapping_add(v & (u64::MAX >> (64 - col.bits)))
    }

    /// First index in `from..to` whose column-`c` value fails `below`, for a
    /// column that is non-decreasing over that range.
    fn partition(&self, c: usize, mut from: usize, mut to: usize, below: impl Fn(u64) -> bool) -> usize {
        while from < to {
            let mid = from + (to - from) / 2;
            if below(self.get(c, mid)) {
                from = mid + 1;
            } else {
                to = mid;
            }
        }
        from
    }

    /// Fills `sel` with the indices of the entries inside `region`, ascending.
    ///
    /// `sorted` says the leaf is in the packed `x_k, …, x_1` order: the last
    /// stored coordinate is then non-decreasing over the leaf, and each
    /// earlier one wherever all later ones are constant. So the range is
    /// narrowed by binary search on the last column, and on the one before
    /// for as long as the narrowed column holds a single value; an entry
    /// outside the narrowed range fails that column's bound, so skipping it
    /// cannot change the answer. The columns left over are tested in turn.
    pub fn select(&self, region: &Rect, sorted: bool, sel: &mut Vec<u16>) {
        sel.clear();
        let (lo, hi) = (region.lo(), region.hi());
        // The valid mapping puts every entry at zero on the axes past the
        // view's arity; an entry count of zero leaves nothing to select.
        if self.count == 0 || lo[self.head.arity..].iter().any(|&l| l != 0) {
            return;
        }
        let (mut from, mut to, mut rest) = (0, self.count, self.head.arity);
        while sorted && rest > 0 {
            let c = rest - 1;
            from = self.partition(c, from, to, |v| v < lo[c]);
            to = self.partition(c, from, to, |v| v <= hi[c]);
            if from == to {
                return;
            }
            rest = c;
            if self.get(c, from) != self.get(c, to - 1) {
                break;
            }
        }
        sel.extend(from as u16..to as u16);
        for c in 0..rest {
            sel.retain(|&i| (lo[c]..=hi[c]).contains(&self.get(c, i as usize)));
        }
    }

    /// Appends the [`LeafHead::width`] words of each entry in `idx` to `rows`.
    pub fn gather(&self, idx: impl ExactSizeIterator<Item = usize>, rows: &mut Vec<u64>) {
        let width = self.head.width();
        rows.reserve(idx.len() * width);
        for i in idx {
            rows.extend((0..width).map(|c| self.get(c, i)));
        }
    }
}

/// Incremental leaf encoder used by the packer: [`LeafEncoder::try_push`]
/// accepts entries until the next one would overflow the page, the leaf is
/// written out, and the encoder is restarted for the next leaf.
#[derive(Default)]
pub(crate) struct LeafEncoder {
    format: u8,
    dims: usize,
    view: u32,
    arity: usize,
    agg_width: usize,
    /// Coordinates physically stored per entry: raw keeps the padding.
    stored: usize,
    count: usize,
    /// `arity + agg_width` words per entry, row-major.
    words: Vec<u64>,
    /// Per-column extremes in sign-flipped order (see [`SIGN`]); they fix
    /// the widths a bit-packed leaf would be written at.
    min: [u64; MAX_COLS],
    max: [u64; MAX_COLS],
}

impl LeafEncoder {
    /// An encoder for a `dims`-dimensional tree; unstarted, it writes the
    /// empty leaf that is the root of an empty tree.
    pub fn new(format: u8, dims: usize) -> Self {
        LeafEncoder { format, dims, view: u32::MAX, ..Default::default() }
    }

    /// Empties the encoder and starts a leaf of `view`.
    pub fn start(&mut self, view: u32, arity: usize, agg_width: usize) {
        (self.view, self.arity, self.agg_width, self.count) = (view, arity, agg_width, 0);
        self.stored = if self.format == FORMAT_RAW { self.dims } else { arity };
        self.words.clear();
        (self.min, self.max) = ([u64::MAX; MAX_COLS], [0; MAX_COLS]);
    }

    /// Appends one entry (`arity` coordinates, `agg_width` aggregate words)
    /// unless the leaf, at the column widths the entry would force, no longer
    /// fits its page; the encoder is unchanged when it returns `false`.
    pub fn try_push(&mut self, coords: &[u64], aggs: &[u64]) -> bool {
        debug_assert_eq!((coords.len(), aggs.len()), (self.arity, self.agg_width));
        let n = self.count + 1;
        let (mut min, mut max) = (self.min, self.max);
        let bytes = if self.format == FORMAT_PACKED {
            let mut bytes = directory_bytes(self.arity + self.agg_width);
            let keys = coords.iter().copied().chain(aggs.iter().map(|&v| v ^ SIGN));
            for (c, key) in keys.enumerate() {
                (min[c], max[c]) = (min[c].min(key), max[c].max(key));
                bytes += (n * bits_for(max[c] - min[c])).div_ceil(64) * 8;
            }
            bytes
        } else {
            n * (self.stored + self.agg_width) * 8
        };
        if n > MAX_LEAF_ENTRIES || bytes > PAGE_SIZE - LEAF_DATA {
            return false;
        }
        (self.min, self.max, self.count) = (min, max, n);
        self.words.extend_from_slice(coords);
        self.words.extend_from_slice(aggs);
        true
    }

    /// Writes the finished leaf into a page.
    pub fn write(&self, page: &mut Page, next: u64) {
        let (stored, width) = (self.stored, self.arity + self.agg_width);
        page.clear();
        page.bytes_mut()[0] = TAG_LEAF;
        page.bytes_mut()[1] = self.format;
        page.put_u16(2, self.count as u16);
        page.put_u32(4, self.view);
        page.put_u64(8, next);
        page.bytes_mut()[16] = self.arity as u8;
        page.bytes_mut()[17] = self.agg_width as u8;
        page.bytes_mut()[20] = stored as u8;
        let mut end = LEAF_DATA;
        let rows = self.words.chunks_exact(width.max(1));
        if self.format == FORMAT_PACKED && self.count > 0 {
            end += directory_bytes(width);
            for c in 0..width {
                let base = self.min[c] ^ if c < self.arity { 0 } else { SIGN };
                let bits = bits_for(self.max[c] - self.min[c]);
                page.put_u64(LEAF_DATA + c * 8, base);
                page.bytes_mut()[LEAF_DATA + width * 8 + c] = bits as u8;
                // `acc` collects the low `used` (< 64) bits of the next word.
                let (mut acc, mut used) = (0u64, 0);
                for row in rows.clone() {
                    let v = row[c].wrapping_sub(base);
                    acc |= v << used;
                    used += bits;
                    if used >= 64 {
                        page.put_u64(end, acc);
                        end += 8;
                        used -= 64;
                        acc = if used > 0 { v >> (bits - used) } else { 0 };
                    }
                }
                if used > 0 {
                    page.put_u64(end, acc);
                    end += 8;
                }
            }
        } else {
            // Raw rows keep their zero padding: the cleared page holds it.
            for row in rows {
                page.put_u64s(end, &row[..self.arity]);
                page.put_u64s(end + stored * 8, &row[self.arity..]);
                end += (stored + self.agg_width) * 8;
            }
        }
        page.put_u16(18, (end - LEAF_DATA) as u16);
    }
}

/// Meta-page state of a finished tree.
#[derive(Clone, Debug)]
pub struct TreeMeta {
    /// Dimensionality.
    pub dims: usize,
    /// Pack-order tag (see `crate::build::PackOrder::code`): 0 = the
    /// paper's low sort, 1 = Morton (ablation only; not merge-packable).
    pub order: u8,
    /// Root page id.
    pub root: u64,
    /// Height (1 = root is a leaf).
    pub height: u32,
    /// Total leaf pages.
    pub leaf_count: u64,
    /// Total entries across all views.
    pub entry_count: u64,
    /// Leftmost leaf (start of the sequential chain).
    pub first_leaf: u64,
    /// The views stored, with their placement extents.
    pub views: Vec<(ViewInfo, ViewExtent)>,
}

impl TreeMeta {
    /// Encodes into the meta page.
    pub fn write(&self, page: &mut Page) {
        assert!(self.views.len() <= MAX_VIEWS, "too many views for one tree");
        page.clear();
        page.put_u32(0, MAGIC);
        page.bytes_mut()[4] = self.dims as u8;
        page.bytes_mut()[5] = self.order;
        page.put_u16(6, self.views.len() as u16);
        page.put_u64(8, self.root);
        page.put_u32(16, self.height);
        page.put_u64(24, self.leaf_count);
        page.put_u64(32, self.entry_count);
        page.put_u64(40, self.first_leaf);
        for (i, (info, ext)) in self.views.iter().enumerate() {
            let off = VIEW_TABLE + i * VIEW_SLOT;
            page.put_u32(off, info.view);
            page.bytes_mut()[off + 4] = info.agg.tag();
            page.bytes_mut()[off + 5] = info.arity;
            page.put_u64(off + 8, ext.entries);
            page.put_u64(off + 16, ext.first_leaf);
            page.put_u64(off + 24, ext.last_leaf);
        }
    }

    /// Decodes from the meta page.
    pub fn read(page: &Page) -> Result<Self> {
        if page.get_u32(0) != MAGIC {
            return Err(CtError::corrupt("not an R-tree file"));
        }
        let dims = page.bytes()[4] as usize;
        let n = page.get_u16(6) as usize;
        // A search recurses once per level and builds `dims`-wide points:
        // bound both where the bytes enter (at fan-out two, 64 levels
        // already outgrow a u64 page id).
        let height = page.get_u32(16);
        if !(1..=MAX_DIMS).contains(&dims) || n > MAX_VIEWS || !(1..=64).contains(&height) {
            return Err(CtError::corrupt("R-tree meta page out of range"));
        }
        let mut views = Vec::with_capacity(n);
        for i in 0..n {
            let off = VIEW_TABLE + i * VIEW_SLOT;
            let info = ViewInfo {
                view: page.get_u32(off),
                agg: AggFn::from_tag(page.bytes()[off + 4])?,
                arity: page.bytes()[off + 5],
            };
            if info.arity as usize > dims {
                return Err(CtError::corrupt("view arity exceeds tree dims"));
            }
            let ext = ViewExtent {
                entries: page.get_u64(off + 8),
                first_leaf: page.get_u64(off + 16),
                last_leaf: page.get_u64(off + 24),
            };
            views.push((info, ext));
        }
        Ok(TreeMeta {
            dims,
            order: page.bytes()[5],
            root: page.get_u64(8),
            height,
            leaf_count: page.get_u64(24),
            entry_count: page.get_u64(32),
            first_leaf: page.get_u64(40),
            views,
        })
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use ct_common::COORD_MAX;

    /// A meta page declaring one view, enough for [`LeafView::parse`].
    fn meta_for(dims: usize, info: ViewInfo) -> TreeMeta {
        TreeMeta {
            dims,
            order: 0,
            root: 1,
            height: 1,
            leaf_count: 1,
            entry_count: 0,
            first_leaf: 1,
            views: vec![(info, ViewExtent::default())],
        }
    }

    /// Packs `entries` into one leaf of `format` and returns the page.
    fn leaf_page(format: u8, dims: usize, info: ViewInfo, entries: &[(Vec<u64>, Vec<u64>)]) -> Page {
        let mut enc = LeafEncoder::new(format, dims);
        enc.start(info.view, info.arity as usize, info.agg_width());
        for (c, a) in entries {
            assert!(enc.try_push(c, a), "format {format}: entry {c:?} must fit");
        }
        let mut page = Page::zeroed();
        enc.write(&mut page, 42);
        page
    }

    fn all_rows(leaf: &LeafView<'_>) -> Vec<u64> {
        let mut rows = Vec::new();
        leaf.gather(0..leaf.count, &mut rows);
        rows
    }

    #[test]
    fn internal_node_roundtrip() {
        let entries: Vec<(Rect, u64)> = (0..10u64)
            .map(|i| (Rect::new(&[i, i * 2, 0], &[i + 5, i * 2 + 5, 1]), 100 + i))
            .collect();
        let mut page = Page::zeroed();
        write_internal(&mut page, 3, &entries);
        let mut out = Vec::new();
        intersecting_children(&page, 3, &Rect::new(&[0; 3], &[COORD_MAX; 3]), &mut out).unwrap();
        assert_eq!(out, (100..110).collect::<Vec<u64>>());
        // Only entries 0..=3 reach x <= 3; of those only y >= 6 keeps 1..=3.
        out.clear();
        intersecting_children(&page, 3, &Rect::new(&[0, 6, 0], &[3, 100, 1]), &mut out).unwrap();
        assert_eq!(out, vec![101, 102, 103]);
    }

    #[test]
    fn internal_capacity_shrinks_with_dims() {
        assert!(internal_capacity(2) > internal_capacity(4));
        assert!(internal_capacity(8) >= 60);
    }

    #[test]
    fn leaf_roundtrip_all_formats() {
        let info = ViewInfo { view: 7, arity: 2, agg: AggFn::Sum };
        let entries: Vec<(Vec<u64>, Vec<u64>)> =
            (0..50u64).map(|i| (vec![i * 3 + 1, 1000 - i], vec![(-(i as i64) * 7) as u64])).collect();
        for format in [FORMAT_RAW, FORMAT_ZERO_ELIDED, FORMAT_PACKED] {
            let page = leaf_page(format, 4, info, &entries);
            let meta = meta_for(4, info);
            let leaf = LeafView::parse(&page, &meta).unwrap();
            assert_eq!((leaf.head.view, leaf.head.next, leaf.count, leaf.head.arity), (7, 42, 50, 2));
            let want: Vec<u64> = entries.iter().flat_map(|(c, a)| c.iter().chain(a).copied()).collect();
            assert_eq!(all_rows(&leaf), want, "format {format}");
        }
    }

    #[test]
    fn packed_columns_span_every_width() {
        // Column widths 0 (constant), 1, 63 and 64 bits side by side; the
        // aggregate words cross zero and touch both i64 extremes.
        let info = ViewInfo { view: 1, arity: 4, agg: AggFn::Avg };
        let entries: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![9, 1, 1, 0], vec![i64::MIN as u64, (-3i64) as u64]),
            (vec![9, 2, 1 << 62, COORD_MAX], vec![i64::MAX as u64, 0]),
            (vec![9, 1, (1 << 63) - 1, 1], vec![0, 5]),
            (vec![9, 2, 7, COORD_MAX - 1], vec![(-1i64) as u64, (-4i64) as u64]),
        ];
        let page = leaf_page(FORMAT_PACKED, 4, info, &entries);
        let bits: Vec<u8> = (0..6).map(|c| page.bytes()[LEAF_DATA + 6 * 8 + c]).collect();
        assert_eq!(bits, vec![0, 1, 63, 64, 64, 4]);
        assert_eq!(page.get_u64(LEAF_DATA + 4 * 8), i64::MIN as u64, "aggregate base is the i64 minimum");
        let meta = meta_for(4, info);
        let leaf = LeafView::parse(&page, &meta).unwrap();
        let want: Vec<u64> = entries.iter().flat_map(|(c, a)| c.iter().chain(a).copied()).collect();
        assert_eq!(all_rows(&leaf), want);
    }

    #[test]
    fn a_leaf_is_sealed_exactly_when_the_next_entry_overflows() {
        let info = ViewInfo { view: 1, arity: 1, agg: AggFn::Sum };
        let meta = meta_for(2, info);
        for format in [FORMAT_RAW, FORMAT_ZERO_ELIDED, FORMAT_PACKED] {
            let mut enc = LeafEncoder::new(format, 2);
            enc.start(1, 1, 1);
            let mut n = 0u64;
            while enc.try_push(&[n * 5 + 1], &[n % 9]) {
                n += 1;
            }
            let mut page = Page::zeroed();
            enc.write(&mut page, NO_LEAF);
            let used = LEAF_DATA + page.get_u16(18) as usize;
            assert!(used <= PAGE_SIZE, "format {format}: {used} bytes");
            // The refused entry would not have fit: at the widths it forces,
            // one more row is at least 16 bits (packed) or a whole row.
            let spare = PAGE_SIZE - used;
            assert!(spare < 24, "format {format}: {spare} bytes left unused");
            let leaf = LeafView::parse(&page, &meta).unwrap();
            assert_eq!(leaf.count as u64, n);
            let rows = all_rows(&leaf);
            assert_eq!(rows[rows.len() - 2..], [(n - 1) * 5 + 1, (n - 1) % 9]);
            // A refused push leaves the encoder as it was.
            let mut again = Page::zeroed();
            enc.write(&mut again, NO_LEAF);
            assert_eq!(page.bytes()[..], again.bytes()[..]);
        }
    }

    #[test]
    fn denser_formats_hold_more_entries() {
        // An arity-3 view in a 6-dimensional tree, sorted small-delta data.
        // The paper's zero elision (§2.4) roughly halves the naive raw
        // entry; bit-packed columns compress further still.
        let counts = [FORMAT_RAW, FORMAT_ZERO_ELIDED, FORMAT_PACKED].map(|format| {
            let mut enc = LeafEncoder::new(format, 6);
            enc.start(0, 3, 1);
            let mut i = 0u64;
            while enc.try_push(&[i % 100 + 1, (i / 100) % 100 + 1, i / 10_000 + 1], &[i % 50 + 1]) {
                i += 1;
            }
            i
        });
        let [raw_n, elided_n, packed_n] = counts;
        assert!(elided_n as f64 >= 1.5 * raw_n as f64, "zero elision {elided_n} vs raw {raw_n}");
        assert!(packed_n as f64 > 6.0 * elided_n as f64, "packed {packed_n} vs zero-elided {elided_n}");
    }

    #[test]
    fn select_is_a_filter_of_the_whole_leaf() {
        // 6 x 6 x 4 grid (it must fit one raw leaf) in packed (z, y, x) order
        // with gaps, so bounds fall between, below and above stored values.
        let info = ViewInfo { view: 3, arity: 3, agg: AggFn::Sum };
        let mut entries = Vec::new();
        for z in 1..=4u64 {
            for y in 1..=6u64 {
                for x in 1..=6u64 {
                    entries.push((vec![x * 2, y * 3, z * 10], vec![x + y + z]));
                }
            }
        }
        let meta = meta_for(4, info);
        let bounds = [(0, COORD_MAX), (1, COORD_MAX), (6, 6), (7, 7), (5, 13), (30, 30), (0, 1), (20, 90)];
        for format in [FORMAT_RAW, FORMAT_ZERO_ELIDED, FORMAT_PACKED] {
            let page = leaf_page(format, 4, info, &entries);
            let leaf = LeafView::parse(&page, &meta).unwrap();
            let mut sel = Vec::new();
            for &(xl, xh) in &bounds {
                for &(yl, yh) in &bounds {
                    for &(zl, zh) in &bounds {
                        let region = Rect::new(&[xl, yl, zl, 0], &[xh, yh, zh, 0]);
                        let want: Vec<u16> = (0..entries.len())
                            .filter(|&i| {
                                let c = &entries[i].0;
                                (xl..=xh).contains(&c[0]) && (yl..=yh).contains(&c[1]) && (zl..=zh).contains(&c[2])
                            })
                            .map(|i| i as u16)
                            .collect();
                        for sorted in [true, false] {
                            leaf.select(&region, sorted, &mut sel);
                            assert_eq!(sel, want, "format {format} sorted {sorted} region {region:?}");
                        }
                    }
                }
            }
            // A region off the view's padding axis selects nothing.
            leaf.select(&Rect::new(&[0, 0, 0, 1], &[COORD_MAX; 4]), true, &mut sel);
            assert!(sel.is_empty());
        }
    }

    #[test]
    fn meta_roundtrip() {
        let meta = TreeMeta {
            dims: 4,
            order: 0,
            root: 9,
            height: 3,
            leaf_count: 120,
            entry_count: 54_321,
            first_leaf: 1,
            views: vec![
                (
                    ViewInfo { view: 3, arity: 3, agg: AggFn::Sum },
                    ViewExtent { entries: 50_000, first_leaf: 1, last_leaf: 100 },
                ),
                (
                    ViewInfo { view: 8, arity: 1, agg: AggFn::Avg },
                    ViewExtent { entries: 4_321, first_leaf: 101, last_leaf: 120 },
                ),
            ],
        };
        let mut page = Page::zeroed();
        meta.write(&mut page);
        let back = TreeMeta::read(&page).unwrap();
        assert_eq!(back.dims, 4);
        assert_eq!(back.root, 9);
        assert_eq!(back.views.len(), 2);
        assert_eq!(back.views[0].0, meta.views[0].0);
        assert_eq!(back.views[1].1.entries, 4_321);
    }

    #[test]
    fn corrupt_pages_are_rejected() {
        let info = ViewInfo { view: 7, arity: 2, agg: AggFn::Sum };
        let meta = meta_for(2, info);
        let page = Page::zeroed();
        assert!(LeafView::parse(&page, &meta).is_err());
        assert!(intersecting_children(&page, 2, &Rect::new(&[0, 0], &[9, 9]), &mut Vec::new()).is_err());
        assert!(TreeMeta::read(&page).is_err());
        // The retired varint-delta codec and unknown codes are typed errors.
        for code in [0u8, 4, 0xFF] {
            let mut page = leaf_page(FORMAT_PACKED, 2, info, &[(vec![1, 1], vec![5])]);
            page.bytes_mut()[1] = code;
            let err = LeafView::parse(&page, &meta).err().expect("must be rejected").to_string();
            assert!(err.contains(&format!("unsupported leaf format {code}")), "got: {err}");
        }
    }
}
