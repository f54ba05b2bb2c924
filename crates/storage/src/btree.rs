//! A disk-based B+tree over the buffer pool.
//!
//! This is the reproduction's stand-in for the Berkeley DB B-trees used by
//! the paper's XKSearch implementation (Section 4). Keys and values are
//! variable-length byte strings; keys are compared with `memcmp` order, so
//! callers must use order-preserving encodings (see the packed Dewey codec
//! in `xk-index`). Leaves are doubly linked, which makes the paper's two
//! match primitives direct tree operations:
//!
//! * `rm(v, S)` — right match, the smallest key `>= v` — is [`BTree::seek_ge`];
//! * `lm(v, S)` — left match, the largest key `<= v` — is [`BTree::seek_le`].
//!
//! A tree comes to exist through [`BTree::bulk_load`] and is **immutable**
//! from then on: there is no insert and no delete, only point gets,
//! match seeks and forward cursors. Its root lives in a named root slot
//! of the [`StorageEnv`] meta page, so [`BTree::open`] reaches it again.

use crate::env::StorageEnv;
use crate::error::{Result, StorageError};
use crate::pager::PageId;

const TYPE_LEAF: u8 = 1;
const TYPE_INTERNAL: u8 = 2;
const LEAF_HDR: usize = 11; // type(1) count(2) prev(4) next(4)
const INT_HDR: usize = 7; // type(1) count(2) child0(4)

/// Raw in-page accessors: the hot read path (point gets, match seeks,
/// cursor steps) binary-searches the slotted page directly, without
/// materializing a [`Node`]. Pages store an offset directory after the
/// header, so entry `i` is addressable in O(1):
///
/// ```text
/// leaf:     [hdr 11][offsets: count*u16][{klen u16, vlen u16, key, val}...]
/// internal: [hdr  7][offsets: count*u16][{klen u16, key, child u32}...]
/// ```
mod raw {
    use super::{INT_HDR, LEAF_HDR, TYPE_INTERNAL, TYPE_LEAF};
    use crate::error::{Result, StorageError};
    use crate::pager::PageId;

    /// Offsets and lengths in the slotted directory come from disk; a
    /// page can pass its checksum and still carry garbage (a partially
    /// applied build, a bug elsewhere, a deliberate fault-injection
    /// mangle), so every derived range is bounds-checked and surfaces as
    /// [`StorageError::Corrupt`] instead of a panic on the query path.
    fn corrupt(what: &str) -> StorageError {
        StorageError::Corrupt(format!("btree page: {what}"))
    }

    fn read_u16(page: &[u8], pos: usize, what: &str) -> Result<usize> {
        let bytes = page.get(pos..pos + 2).ok_or_else(|| corrupt(what))?;
        // xk-analyze: allow(panic_path, reason = "slice is exactly 2 bytes by construction")
        Ok(u16::from_le_bytes(bytes.try_into().expect("2-byte slice")) as usize)
    }

    fn read_u32(page: &[u8], pos: usize, what: &str) -> Result<u32> {
        let bytes = page.get(pos..pos + 4).ok_or_else(|| corrupt(what))?;
        // xk-analyze: allow(panic_path, reason = "slice is exactly 4 bytes by construction")
        Ok(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
    }

    pub fn is_leaf(page: &[u8]) -> bool {
        page.first() == Some(&TYPE_LEAF)
    }

    pub fn is_internal(page: &[u8]) -> bool {
        page.first() == Some(&TYPE_INTERNAL)
    }

    pub fn count(page: &[u8]) -> Result<usize> {
        read_u16(page, 1, "count header")
    }

    pub fn leaf_prev(page: &[u8]) -> Result<Option<PageId>> {
        Ok(PageId::decode_opt(read_u32(page, 3, "leaf prev link")?))
    }

    pub fn leaf_next(page: &[u8]) -> Result<Option<PageId>> {
        Ok(PageId::decode_opt(read_u32(page, 7, "leaf next link")?))
    }

    fn offset(page: &[u8], hdr: usize, i: usize) -> Result<usize> {
        read_u16(page, hdr + 2 * i, "offset directory entry")
    }

    /// Key + value of leaf entry `i`.
    pub fn leaf_entry(page: &[u8], i: usize) -> Result<(&[u8], &[u8])> {
        let off = offset(page, LEAF_HDR, i)?;
        let klen = read_u16(page, off, "leaf entry key length")?;
        let vlen = read_u16(page, off + 2, "leaf entry value length")?;
        let kstart = off + 4;
        let key = page
            .get(kstart..kstart + klen)
            .ok_or_else(|| corrupt("leaf key out of bounds"))?;
        let val = page
            .get(kstart + klen..kstart + klen + vlen)
            .ok_or_else(|| corrupt("leaf value out of bounds"))?;
        Ok((key, val))
    }

    /// Key of leaf entry `i`.
    pub fn leaf_key(page: &[u8], i: usize) -> Result<&[u8]> {
        Ok(leaf_entry(page, i)?.0)
    }

    /// First leaf index with key `>= probe` (== count when none).
    pub fn leaf_lower_bound(page: &[u8], probe: &[u8]) -> Result<usize> {
        let n = count(page)?;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if leaf_key(page, mid)? < probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// First leaf index with key `> probe` (== count when none).
    pub fn leaf_upper_bound(page: &[u8], probe: &[u8]) -> Result<usize> {
        let n = count(page)?;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if leaf_key(page, mid)? <= probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    pub fn internal_sep(page: &[u8], i: usize) -> Result<&[u8]> {
        let off = offset(page, INT_HDR, i)?;
        let klen = read_u16(page, off, "separator key length")?;
        page.get(off + 2..off + 2 + klen)
            .ok_or_else(|| corrupt("separator key out of bounds"))
    }

    pub fn internal_child_at(page: &[u8], i: usize) -> Result<PageId> {
        if i == 0 {
            return Ok(PageId(read_u32(page, 3, "child 0 pointer")?));
        }
        let off = offset(page, INT_HDR, i - 1)?;
        let klen = read_u16(page, off, "separator key length")?;
        let cpos = off + 2 + klen;
        Ok(PageId(read_u32(page, cpos, "child pointer")?))
    }

    /// The child *index* to descend into for `probe` (boundary keys go
    /// right): the first `i` with `sep[i] > probe`, i.e. child `i` holds
    /// keys `k` with `sep[i-1] <= k < sep[i]`.
    pub fn internal_route_idx(page: &[u8], probe: &[u8]) -> Result<usize> {
        let n = count(page)?;
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if internal_sep(page, mid)? <= probe {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// The child to descend into for `probe` (boundary keys go right).
    pub fn internal_route(page: &[u8], probe: &[u8]) -> Result<PageId> {
        internal_child_at(page, internal_route_idx(page, probe)?)
    }
}

/// An in-memory image of one B+tree node page.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Node {
    Leaf {
        prev: Option<PageId>,
        next: Option<PageId>,
        entries: Vec<(Vec<u8>, Vec<u8>)>,
    },
    Internal {
        /// `children.len() == keys.len() + 1`; `children[i]` holds keys `k`
        /// with `keys[i-1] <= k < keys[i]` (boundary keys go right).
        keys: Vec<Vec<u8>>,
        children: Vec<PageId>,
    },
}

impl Node {
    fn serialized_size(&self) -> usize {
        match self {
            Node::Leaf { entries, .. } => {
                LEAF_HDR
                    + entries.iter().map(|(k, v)| 6 + k.len() + v.len()).sum::<usize>()
            }
            Node::Internal { keys, .. } => {
                INT_HDR + keys.iter().map(|k| 8 + k.len()).sum::<usize>()
            }
        }
    }

    // xk-analyze: allow(panic_path, reason = "serialized_size is checked against the page before write")
    fn write(&self, page: &mut [u8]) {
        match self {
            Node::Leaf { prev, next, entries } => {
                page[0] = TYPE_LEAF;
                page[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                page[3..7].copy_from_slice(&PageId::encode_opt(*prev).to_le_bytes());
                page[7..11].copy_from_slice(&PageId::encode_opt(*next).to_le_bytes());
                let mut off = LEAF_HDR + 2 * entries.len();
                for (i, (k, v)) in entries.iter().enumerate() {
                    let dir = LEAF_HDR + 2 * i;
                    page[dir..dir + 2].copy_from_slice(&(off as u16).to_le_bytes());
                    page[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    page[off + 2..off + 4].copy_from_slice(&(v.len() as u16).to_le_bytes());
                    off += 4;
                    page[off..off + k.len()].copy_from_slice(k);
                    off += k.len();
                    page[off..off + v.len()].copy_from_slice(v);
                    off += v.len();
                }
            }
            Node::Internal { keys, children } => {
                page[0] = TYPE_INTERNAL;
                page[1..3].copy_from_slice(&(keys.len() as u16).to_le_bytes());
                page[3..7].copy_from_slice(&children[0].0.to_le_bytes());
                let mut off = INT_HDR + 2 * keys.len();
                for (i, k) in keys.iter().enumerate() {
                    let dir = INT_HDR + 2 * i;
                    page[dir..dir + 2].copy_from_slice(&(off as u16).to_le_bytes());
                    page[off..off + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
                    off += 2;
                    page[off..off + k.len()].copy_from_slice(k);
                    off += k.len();
                    page[off..off + 4].copy_from_slice(&children[i + 1].0.to_le_bytes());
                    off += 4;
                }
            }
        }
    }

    /// Parses a node image with full bounds checking: every offset and
    /// length is validated before use, so a structurally mangled page
    /// (one whose checksum still passes, e.g. a software bug) surfaces as
    /// [`StorageError::Corrupt`] instead of a panic. The unchecked `raw`
    /// accessors stay on the hot read path, where checksum verification
    /// has already vouched for the page.
    // xk-analyze: allow(panic_path, reason = "slice() bounds-checks every range before the fixed-width decodes")
    fn read(page: &[u8]) -> Result<Node> {
        fn slice<'p>(page: &'p [u8], start: usize, len: usize, what: &str) -> Result<&'p [u8]> {
            page.get(start..start + len).ok_or_else(|| {
                StorageError::Corrupt(format!("truncated B+tree node: {what} out of bounds"))
            })
        }
        fn get_u16(page: &[u8], pos: usize, what: &str) -> Result<usize> {
            Ok(u16::from_le_bytes(
                slice(page, pos, 2, what)?.try_into().expect("2-byte slice"),
            ) as usize)
        }
        fn get_u32(page: &[u8], pos: usize, what: &str) -> Result<u32> {
            Ok(u32::from_le_bytes(
                slice(page, pos, 4, what)?.try_into().expect("4-byte slice"),
            ))
        }
        match page.first() {
            Some(&TYPE_LEAF) => {
                let count = get_u16(page, 1, "leaf count")?;
                let prev = PageId::decode_opt(get_u32(page, 3, "leaf prev")?);
                let next = PageId::decode_opt(get_u32(page, 7, "leaf next")?);
                let mut entries = Vec::with_capacity(count);
                for i in 0..count {
                    let off = get_u16(page, LEAF_HDR + 2 * i, "leaf offset")?;
                    let klen = get_u16(page, off, "leaf key length")?;
                    let vlen = get_u16(page, off + 2, "leaf value length")?;
                    let k = slice(page, off + 4, klen, "leaf key")?.to_vec();
                    let v = slice(page, off + 4 + klen, vlen, "leaf value")?.to_vec();
                    entries.push((k, v));
                }
                Ok(Node::Leaf { prev, next, entries })
            }
            Some(&TYPE_INTERNAL) => {
                let count = get_u16(page, 1, "internal count")?;
                let mut children = vec![PageId(get_u32(page, 3, "first child")?)];
                let mut keys = Vec::with_capacity(count);
                for i in 0..count {
                    let off = get_u16(page, INT_HDR + 2 * i, "internal offset")?;
                    let klen = get_u16(page, off, "separator length")?;
                    keys.push(slice(page, off + 2, klen, "separator key")?.to_vec());
                    children.push(PageId(get_u32(page, off + 2 + klen, "child pointer")?));
                }
                Ok(Node::Internal { keys, children })
            }
            Some(&t) => Err(StorageError::Corrupt(format!("unknown B+tree node type {t}"))),
            None => Err(StorageError::Corrupt("empty B+tree node page".into())),
        }
    }
}

/// A B+tree handle. The root page id lives in a named root slot of the
/// environment's meta page, so handles are cheap and freely copyable.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    slot: usize,
}

impl BTree {
    /// Opens the tree stored in meta slot `slot`.
    pub fn open(env: &StorageEnv, slot: usize) -> Result<BTree> {
        match env.root_slot(slot)? {
            Some(_) => Ok(BTree { slot }),
            None => Err(StorageError::Corrupt(format!("no B+tree in root slot {slot}"))),
        }
    }

    fn root(&self, env: &StorageEnv) -> Result<PageId> {
        env.root_slot(self.slot)?.ok_or_else(|| {
            StorageError::Corrupt(format!("B+tree root slot {} vanished", self.slot))
        })
    }

    /// Largest key+value size this tree accepts, for the env's page size.
    pub fn max_entry_size(env: &StorageEnv) -> usize {
        (env.page_size() - LEAF_HDR) / 4 - 4
    }

    /// Bulk-loads a tree from **strictly ascending** `(key, value)` pairs,
    /// replacing whatever the slot held. Leaves are packed left to right
    /// to a ~90% fill target and internal levels are stacked bottom-up —
    /// exactly the pattern the index builder needs (its composite keys
    /// are generated in sorted order). This is the only way a tree is
    /// written; nothing modifies it afterwards.
    pub fn bulk_load(
        env: &StorageEnv,
        slot: usize,
        entries: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
    ) -> Result<BTree> {
        let fill = env.page_size() * 9 / 10;
        let max = Self::max_entry_size(env);

        // ---- leaf level ----
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut current: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut size = LEAF_HDR;
        let mut prev_leaf: Option<PageId> = None;
        let mut last_key: Option<Vec<u8>> = None;

        let flush_leaf = |env: &StorageEnv,
                              current: &mut Vec<(Vec<u8>, Vec<u8>)>,
                              size: &mut usize,
                              prev_leaf: &mut Option<PageId>,
                              leaves: &mut Vec<(Vec<u8>, PageId)>|
         -> Result<()> {
            let page = env.allocate_page()?;
            let entries = std::mem::take(current);
            *size = LEAF_HDR;
            let first_key = entries.first().map(|(k, _)| k.clone()).unwrap_or_default();
            let node = Node::Leaf { prev: *prev_leaf, next: None, entries };
            write_node(env, page, &node)?;
            if let Some(p) = *prev_leaf {
                update_leaf_next(env, p, Some(page))?;
            }
            *prev_leaf = Some(page);
            leaves.push((first_key, page));
            Ok(())
        };

        for (k, v) in entries {
            if k.len() + v.len() > max {
                return Err(StorageError::EntryTooLarge {
                    entry_bytes: k.len() + v.len(),
                    max_bytes: max,
                });
            }
            if let Some(last) = &last_key {
                if last.as_slice() >= k.as_slice() {
                    return Err(StorageError::Corrupt(
                        "bulk_load requires strictly ascending keys".into(),
                    ));
                }
            }
            last_key = Some(k.clone());
            let esz = 6 + k.len() + v.len();
            if size + esz > fill && !current.is_empty() {
                flush_leaf(env, &mut current, &mut size, &mut prev_leaf, &mut leaves)?;
            }
            size += esz;
            current.push((k, v));
        }
        if !current.is_empty() || leaves.is_empty() {
            flush_leaf(env, &mut current, &mut size, &mut prev_leaf, &mut leaves)?;
        }

        // ---- internal levels ----
        let mut level = leaves;
        while level.len() > 1 {
            let mut next_level: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                let (node_first, first_child) = iter.next().expect("peeked");
                let mut keys: Vec<Vec<u8>> = Vec::new();
                let mut children = vec![first_child];
                let mut size = INT_HDR;
                while let Some((sep, _)) = iter.peek() {
                    let esz = 8 + sep.len();
                    if size + esz > fill && !keys.is_empty() {
                        break;
                    }
                    // An internal node needs at least two children even if
                    // the fill target disagrees.
                    let (sep, child) = iter.next().expect("peeked");
                    keys.push(sep);
                    children.push(child);
                    size += esz;
                }
                if keys.is_empty() {
                    if let Some((sep, child)) = iter.next() {
                        keys.push(sep);
                        children.push(child);
                    } else {
                        // A trailing single child: rather than an invalid
                        // one-child internal node, promote it directly.
                        next_level.push((node_first, first_child));
                        continue;
                    }
                }
                let page = env.allocate_page()?;
                write_node(env, page, &Node::Internal { keys, children })?;
                next_level.push((node_first, page));
            }
            level = next_level;
        }

        env.set_root_slot(slot, Some(level[0].1))?;
        Ok(BTree { slot })
    }

    /// Point lookup. Binary-searches pages in place (no node
    /// materialization) — this is the hot path of the match operations.
    pub fn get(&self, env: &StorageEnv, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page = self.root(env)?;
        loop {
            let step = env.with_page(page, |p| {
                if raw::is_internal(p) {
                    Ok(Step::Descend(raw::internal_route(p, key)?))
                } else if raw::is_leaf(p) {
                    let idx = raw::leaf_lower_bound(p, key)?;
                    if idx < raw::count(p)? && raw::leaf_key(p, idx)? == key {
                        Ok(Step::Value(Some(raw::leaf_entry(p, idx)?.1.to_vec())))
                    } else {
                        Ok(Step::Value(None))
                    }
                } else {
                    Err(StorageError::Corrupt("unknown B+tree node type".into()))
                }
            })??;
            match step {
                Step::Descend(c) => page = c,
                Step::Value(v) => return Ok(v),
                Step::At(_) | Step::Chain(_) => unreachable!("get never positions a cursor"),
            }
        }
    }

    /// True iff `key` is present.
    pub fn contains(&self, env: &StorageEnv, key: &[u8]) -> Result<bool> {
        Ok(self.get(env, key)?.is_some())
    }

    /// [`BTree::seek_ge`] through an anchored cursor: reuses the pinned
    /// root-to-leaf path in `anchor` when the probe still falls inside the
    /// pinned leaf's key range, gallops up only as many levels as the key
    /// escapes before re-descending, and falls back to a full descent when
    /// the anchor is unpinned or the env's data version moved.
    pub fn seek_ge_anchored(
        &self,
        env: &StorageEnv,
        anchor: &mut BTreeCursor,
        key: &[u8],
    ) -> Result<Cursor> {
        self.seek_anchored(env, anchor, key, true)
    }

    /// [`BTree::seek_le`] through an anchored cursor; see
    /// [`BTree::seek_ge_anchored`].
    pub fn seek_le_anchored(
        &self,
        env: &StorageEnv,
        anchor: &mut BTreeCursor,
        key: &[u8],
    ) -> Result<Cursor> {
        self.seek_anchored(env, anchor, key, false)
    }

    fn seek_anchored(
        &self,
        env: &StorageEnv,
        anchor: &mut BTreeCursor,
        key: &[u8],
        ge: bool,
    ) -> Result<Cursor> {
        let version = env.data_version();
        if anchor.version != version || anchor.path.is_empty() {
            // Unpinned or possibly stale: pin a fresh path from the root.
            anchor.path.clear();
            anchor.version = version;
            let root = self.root(env)?;
            return self.descend_record(env, anchor, root, None, None, key, ge);
        }
        // Gallop up: pop pinned levels until one's separator bounds contain
        // the probe. The containment test (`lower <= key < upper`) matches
        // `raw::internal_route_idx` exactly (boundary keys go right), so an
        // anchored re-descent lands on the same leaf a fresh descent would.
        while let Some(level) = anchor.path.last() {
            let above = level.lower.as_deref().is_none_or(|lo| lo <= key);
            let below = level.upper.as_deref().is_none_or(|hi| key < hi);
            if above && below {
                break;
            }
            anchor.path.pop();
        }
        match anchor.path.pop() {
            Some(top) => {
                // Re-descend from the deepest still-valid level (re-pushing
                // it); a probe inside the pinned leaf costs one page read.
                self.descend_record(env, anchor, top.page, top.lower, top.upper, key, ge)
            }
            None => {
                // The root level has unbounded separators, so this only
                // happens if the path was emptied by a racing invalidation;
                // recover with a fresh descent.
                let root = self.root(env)?;
                self.descend_record(env, anchor, root, None, None, key, ge)
            }
        }
    }

    /// Descends from `page` (whose subtree covers `[lower, upper)`) to the
    /// leaf for `key`, pushing every visited level onto `anchor`, and
    /// positions a [`Cursor`] exactly like the stateless seeks.
    #[allow(clippy::too_many_arguments)]
    fn descend_record(
        &self,
        env: &StorageEnv,
        anchor: &mut BTreeCursor,
        mut page: PageId,
        mut lower: Option<Vec<u8>>,
        mut upper: Option<Vec<u8>>,
        key: &[u8],
        ge: bool,
    ) -> Result<Cursor> {
        enum Anchored {
            Descend(PageId, Option<Vec<u8>>, Option<Vec<u8>>),
            At(usize),
            Chain(Option<PageId>),
        }
        loop {
            let step = env.with_page(page, |p| {
                if raw::is_internal(p) {
                    let i = raw::internal_route_idx(p, key)?;
                    let n = raw::count(p)?;
                    let child = raw::internal_child_at(p, i)?;
                    let lo = if i == 0 {
                        lower.clone()
                    } else {
                        Some(raw::internal_sep(p, i - 1)?.to_vec())
                    };
                    let hi = if i == n {
                        upper.clone()
                    } else {
                        Some(raw::internal_sep(p, i)?.to_vec())
                    };
                    Ok(Anchored::Descend(child, lo, hi))
                } else if raw::is_leaf(p) {
                    if ge {
                        let idx = raw::leaf_lower_bound(p, key)?;
                        if idx < raw::count(p)? {
                            Ok(Anchored::At(idx))
                        } else {
                            Ok(Anchored::Chain(raw::leaf_next(p)?))
                        }
                    } else {
                        let idx = raw::leaf_upper_bound(p, key)?;
                        if idx > 0 {
                            Ok(Anchored::At(idx - 1))
                        } else {
                            Ok(Anchored::Chain(raw::leaf_prev(p)?))
                        }
                    }
                } else {
                    Err(StorageError::Corrupt("unknown B+tree node type".into()))
                }
            })??;
            match step {
                Anchored::Descend(child, lo, hi) => {
                    anchor.path.push(PathLevel { page, lower, upper });
                    page = child;
                    lower = lo;
                    upper = hi;
                }
                Anchored::At(idx) => {
                    anchor.path.push(PathLevel { page, lower, upper });
                    return Ok(Cursor { page: Some(page), idx });
                }
                Anchored::Chain(link) => {
                    // The answer sits on a neighboring leaf, but the probe
                    // key still belongs to *this* leaf's range — pin it.
                    anchor.path.push(PathLevel { page, lower, upper });
                    return if ge {
                        chain_forward(env, link)
                    } else {
                        chain_backward(env, link)
                    };
                }
            }
        }
    }

    /// The paper's **right match** `rm(key, S)`: the smallest entry with
    /// key `>=` the probe. Returns a positioned cursor (or an exhausted one
    /// if every key is smaller).
    pub fn seek_ge(&self, env: &StorageEnv, key: &[u8]) -> Result<Cursor> {
        let mut page = self.root(env)?;
        loop {
            let step = env.with_page(page, |p| {
                if raw::is_internal(p) {
                    Ok(Step::Descend(raw::internal_route(p, key)?))
                } else if raw::is_leaf(p) {
                    let idx = raw::leaf_lower_bound(p, key)?;
                    if idx < raw::count(p)? {
                        Ok(Step::At(idx))
                    } else {
                        // Everything here is smaller; the answer (if any)
                        // is the first entry of the next non-empty leaf.
                        Ok(Step::Chain(raw::leaf_next(p)?))
                    }
                } else {
                    Err(StorageError::Corrupt("unknown B+tree node type".into()))
                }
            })??;
            match step {
                Step::Descend(c) => page = c,
                Step::At(idx) => return Ok(Cursor { page: Some(page), idx }),
                Step::Chain(next) => return chain_forward(env, next),
                // xk-analyze: allow(panic_path, reason = "the closure above only constructs Descend/At/Chain; Value is produced by other with_page closures")
                Step::Value(_) => unreachable!("seek never yields a value"),
            }
        }
    }

    /// The paper's **left match** `lm(key, S)`: the largest entry with key
    /// `<=` the probe.
    pub fn seek_le(&self, env: &StorageEnv, key: &[u8]) -> Result<Cursor> {
        let mut page = self.root(env)?;
        loop {
            let step = env.with_page(page, |p| {
                if raw::is_internal(p) {
                    Ok(Step::Descend(raw::internal_route(p, key)?))
                } else if raw::is_leaf(p) {
                    let idx = raw::leaf_upper_bound(p, key)?;
                    if idx > 0 {
                        Ok(Step::At(idx - 1))
                    } else {
                        Ok(Step::Chain(raw::leaf_prev(p)?))
                    }
                } else {
                    Err(StorageError::Corrupt("unknown B+tree node type".into()))
                }
            })??;
            match step {
                Step::Descend(c) => page = c,
                Step::At(idx) => return Ok(Cursor { page: Some(page), idx }),
                Step::Chain(prev) => return chain_backward(env, prev),
                // xk-analyze: allow(panic_path, reason = "the closure above only constructs Descend/At/Chain; Value is produced by other with_page closures")
                Step::Value(_) => unreachable!("seek never yields a value"),
            }
        }
    }

    /// Cursor positioned at the smallest entry.
    pub fn cursor_first(&self, env: &StorageEnv) -> Result<Cursor> {
        self.seek_ge(env, &[])
    }

    /// Number of entries (full scan; intended for tests and tools).
    pub fn len(&self, env: &StorageEnv) -> Result<u64> {
        let mut n = 0;
        let mut c = self.cursor_first(env)?;
        while c.read(env)?.is_some() {
            n += 1;
            c.advance(env)?;
        }
        Ok(n)
    }

    /// True iff the tree has no entries.
    pub fn is_empty(&self, env: &StorageEnv) -> Result<bool> {
        let c = self.cursor_first(env)?;
        Ok(!c.is_valid())
    }

    /// Walks the tree and checks structural invariants (key order within
    /// and across nodes, separator correctness, child kinds). For tests.
    pub fn check_invariants(&self, env: &StorageEnv) -> Result<()> {
        let root = self.root(env)?;
        self.check_rec(env, root, None, None)?;
        // Leaf chain must be globally sorted.
        let mut c = self.cursor_first(env)?;
        let mut prev: Option<Vec<u8>> = None;
        while let Some((k, _)) = c.read(env)? {
            if let Some(p) = &prev {
                if p.as_slice() >= k.as_slice() {
                    return Err(StorageError::Corrupt("leaf chain out of order".into()));
                }
            }
            prev = Some(k);
            c.advance(env)?;
        }
        Ok(())
    }

    /// Verifies the doubly-linked leaf chain: the leftmost leaf has no
    /// `prev`, every leaf's `prev` names its actual left sibling, and the
    /// chain terminates within the file's page count (no cycles). Used by
    /// `xksearch verify`; complements [`BTree::check_invariants`], which
    /// checks key order but walks only `next` links.
    pub fn verify_leaf_links(&self, env: &StorageEnv) -> Result<()> {
        let limit = env.page_count() as u64 + 1;
        // Descend along first children to the leftmost leaf.
        let mut page = self.root(env)?;
        let mut depth = 0u64;
        loop {
            let child = env.with_page(page, |p| {
                if raw::is_internal(p) {
                    Ok(Some(raw::internal_child_at(p, 0)?))
                } else if raw::is_leaf(p) {
                    Ok(None)
                } else {
                    Err(StorageError::Corrupt(format!(
                        "page {}: unknown B+tree node type",
                        page.0
                    )))
                }
            })??;
            match child {
                Some(c) => {
                    depth += 1;
                    if depth > limit {
                        return Err(StorageError::Corrupt(
                            "B+tree deeper than the file's page count (cycle?)".into(),
                        ));
                    }
                    page = c;
                }
                None => break,
            }
        }
        // Walk the chain left to right checking prev/next symmetry.
        let mut expected_prev: Option<PageId> = None;
        let mut steps = 0u64;
        loop {
            let (prev, next) = env.with_page(page, |p| {
                if raw::is_leaf(p) {
                    Ok((raw::leaf_prev(p)?, raw::leaf_next(p)?))
                } else {
                    Err(StorageError::Corrupt(format!(
                        "page {} in the leaf chain is not a leaf",
                        page.0
                    )))
                }
            })??;
            if prev != expected_prev {
                return Err(StorageError::Corrupt(format!(
                    "leaf {}: prev link {:?} does not name its left sibling {:?} \
                     (asymmetric sibling links)",
                    page.0,
                    prev.map(|p| p.0),
                    expected_prev.map(|p| p.0)
                )));
            }
            steps += 1;
            if steps > limit {
                return Err(StorageError::Corrupt(
                    "leaf chain longer than the file's page count (cycle?)".into(),
                ));
            }
            match next {
                Some(n) => {
                    expected_prev = Some(page);
                    page = n;
                }
                None => break,
            }
        }
        Ok(())
    }

    fn check_rec(
        &self,
        env: &StorageEnv,
        page: PageId,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
    ) -> Result<()> {
        let node = read_node(env, page)?;
        if node.serialized_size() > env.page_size() {
            return Err(StorageError::Corrupt("node overflows its page".into()));
        }
        match node {
            Node::Leaf { entries, .. } => {
                for w in entries.windows(2) {
                    if w[0].0 >= w[1].0 {
                        return Err(StorageError::Corrupt("leaf keys out of order".into()));
                    }
                }
                for (k, _) in &entries {
                    if let Some(lo) = lo {
                        if k.as_slice() < lo {
                            return Err(StorageError::Corrupt("leaf key below bound".into()));
                        }
                    }
                    if let Some(hi) = hi {
                        if k.as_slice() >= hi {
                            return Err(StorageError::Corrupt("leaf key above bound".into()));
                        }
                    }
                }
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 || keys.is_empty() {
                    return Err(StorageError::Corrupt("malformed internal node".into()));
                }
                for w in keys.windows(2) {
                    if w[0] >= w[1] {
                        return Err(StorageError::Corrupt("separators out of order".into()));
                    }
                }
                for i in 0..children.len() {
                    let child_lo = if i == 0 { lo } else { Some(keys[i - 1].as_slice()) };
                    let child_hi = if i == keys.len() { hi } else { Some(keys[i].as_slice()) };
                    self.check_rec(env, children[i], child_lo, child_hi)?;
                }
                Ok(())
            }
        }
    }
}

/// One pinned level of an anchored root-to-leaf path: the page and the
/// key range `[lower, upper)` its subtree covers, derived from the parent
/// separators during descent (`None` bounds are −∞ / +∞).
#[derive(Debug, Clone)]
struct PathLevel {
    page: PageId,
    lower: Option<Vec<u8>>,
    upper: Option<Vec<u8>>,
}

/// An anchored cursor over a [`BTree`]: remembers the last root-to-leaf
/// descent (page ids plus separator bounds per level) so that a following
/// [`BTree::seek_ge_anchored`] / [`BTree::seek_le_anchored`] whose probe
/// still falls inside the pinned leaf costs a single page read, and a
/// probe that escapes gallops up only as many levels as it escaped.
///
/// The cursor snapshots the env's [`StorageEnv::data_version`] when it
/// pins a path and silently falls back to a full fresh descent (re-pinning)
/// whenever the version has moved — any mutation anywhere in the env
/// invalidates every anchored cursor, which is conservative but safe.
/// Probe results are therefore always identical to the stateless seeks.
#[derive(Debug, Clone, Default)]
pub struct BTreeCursor {
    /// Pinned path, root first, leaf last. Empty = unpinned.
    path: Vec<PathLevel>,
    /// [`StorageEnv::data_version`] at pin time.
    version: u64,
}

impl BTreeCursor {
    /// A fresh, unpinned cursor; the first anchored seek through it does a
    /// full descent and pins the path it took.
    pub fn new() -> BTreeCursor {
        BTreeCursor::default()
    }

    /// True iff the cursor currently pins a path (it may still be
    /// discarded on the next seek if the env's data version moved).
    pub fn is_pinned(&self) -> bool {
        !self.path.is_empty()
    }

    /// Number of pinned levels (tree height of the last descent).
    pub fn pinned_depth(&self) -> usize {
        self.path.len()
    }

    /// Drops the pinned path; the next anchored seek descends afresh.
    pub fn invalidate(&mut self) {
        self.path.clear();
    }
}

/// A position within the leaf chain of a [`BTree`]. Invalid cursors
/// (`page == None`) read as `None`.
#[derive(Debug, Clone, Copy)]
pub struct Cursor {
    page: Option<PageId>,
    idx: usize,
}

impl Cursor {
    /// True iff the cursor points at an entry.
    pub fn is_valid(&self) -> bool {
        self.page.is_some()
    }

    /// Reads the entry under the cursor.
    pub fn read(&self, env: &StorageEnv) -> Result<Option<(Vec<u8>, Vec<u8>)>> {
        let Some(page) = self.page else { return Ok(None) };
        env.with_page(page, |p| {
            if !raw::is_leaf(p) {
                return Err(StorageError::Corrupt("cursor points at an internal node".into()));
            }
            if self.idx < raw::count(p)? {
                let (k, v) = raw::leaf_entry(p, self.idx)?;
                Ok(Some((k.to_vec(), v.to_vec())))
            } else {
                Ok(None)
            }
        })?
    }

    /// Moves to the next entry in key order.
    pub fn advance(&mut self, env: &StorageEnv) -> Result<()> {
        let Some(page) = self.page else { return Ok(()) };
        let (count, next) = leaf_shape(env, page)?;
        if self.idx + 1 < count {
            self.idx += 1;
            return Ok(());
        }
        *self = chain_forward(env, next)?;
        Ok(())
    }

    /// Moves to the previous entry in key order; past the first entry
    /// the cursor is exhausted.
    pub fn retreat(&mut self, env: &StorageEnv) -> Result<()> {
        let Some(page) = self.page else { return Ok(()) };
        if self.idx > 0 {
            self.idx -= 1;
            return Ok(());
        }
        let prev = env.with_page(page, raw::leaf_prev)??;
        *self = chain_backward(env, prev)?;
        Ok(())
    }
}

/// One descent step, computed inside a page closure.
enum Step {
    Descend(PageId),
    At(usize),
    Chain(Option<PageId>),
    Value(Option<Vec<u8>>),
}

/// `(count, next)` of a leaf page.
fn leaf_shape(env: &StorageEnv, page: PageId) -> Result<(usize, Option<PageId>)> {
    env.with_page(page, |p| {
        if raw::is_leaf(p) {
            Ok((raw::count(p)?, raw::leaf_next(p)?))
        } else {
            Err(StorageError::Corrupt("expected a leaf page".into()))
        }
    })?
}

/// First position of the first non-empty leaf reachable via `next` links.
fn chain_forward(env: &StorageEnv, mut cur: Option<PageId>) -> Result<Cursor> {
    while let Some(p) = cur {
        let (count, next) = leaf_shape(env, p)?;
        if count > 0 {
            return Ok(Cursor { page: Some(p), idx: 0 });
        }
        cur = next;
    }
    Ok(Cursor { page: None, idx: 0 })
}

/// Last position of the first non-empty leaf reachable via `prev` links.
fn chain_backward(env: &StorageEnv, mut cur: Option<PageId>) -> Result<Cursor> {
    while let Some(p) = cur {
        let (count, prev) = env.with_page(p, |pp| {
            if raw::is_leaf(pp) {
                Ok((raw::count(pp)?, raw::leaf_prev(pp)?))
            } else {
                Err(StorageError::Corrupt("expected a leaf page".into()))
            }
        })??;
        if count > 0 {
            return Ok(Cursor { page: Some(p), idx: count - 1 });
        }
        cur = prev;
    }
    Ok(Cursor { page: None, idx: 0 })
}

fn read_node(env: &StorageEnv, page: PageId) -> Result<Node> {
    env.with_page(page, Node::read)?
}

fn write_node(env: &StorageEnv, page: PageId, node: &Node) -> Result<()> {
    debug_assert!(node.serialized_size() <= env.page_size());
    env.with_page_mut(page, |p| node.write(p))
}

fn update_leaf_next(env: &StorageEnv, page: PageId, next: Option<PageId>) -> Result<()> {
    env.with_page_mut(page, |p| {
        p[7..11].copy_from_slice(&PageId::encode_opt(next).to_le_bytes());
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvOptions;
    use crate::liststore::ListWriter;

    fn mem_env() -> StorageEnv {
        StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 64 })
    }

    fn key(i: u32) -> Vec<u8> {
        i.to_be_bytes().to_vec()
    }

    /// Bulk-loads `keys` (ascending) with `value` under each into `slot`.
    fn load(env: &StorageEnv, slot: usize, keys: impl Iterator<Item = u32>, value: &[u8]) -> BTree {
        BTree::bulk_load(env, slot, keys.map(|i| (key(i), value.to_vec()))).unwrap()
    }

    #[test]
    fn bulk_load_round_trips() {
        let env = mem_env();
        let n = 3000u32;
        let bulk = BTree::bulk_load(&env, 0, (0..n).map(|i| (key(i * 2), key(i)))).unwrap();
        bulk.check_invariants(&env).unwrap();
        assert_eq!(bulk.len(&env).unwrap(), n as u64);
        for i in 0..n {
            assert_eq!(bulk.get(&env, &key(i * 2)).unwrap(), Some(key(i)));
            assert_eq!(bulk.get(&env, &key(i * 2 + 1)).unwrap(), None);
        }
        let c = bulk.seek_ge(&env, &key(1500)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(1500));
        let c = bulk.seek_le(&env, &key(u32::MAX)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key((n - 1) * 2));
    }

    #[test]
    fn seek_ge_and_le() {
        let env = mem_env();
        let t = load(&env, 0, (0..500u32).map(|i| i * 10), b"");
        // Exact hit.
        let c = t.seek_ge(&env, &key(100)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(100));
        let c = t.seek_le(&env, &key(100)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(100));
        // Between keys.
        let c = t.seek_ge(&env, &key(101)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(110));
        let c = t.seek_le(&env, &key(101)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(100));
        // Beyond the ends.
        let c = t.seek_ge(&env, &key(5000)).unwrap();
        assert!(c.read(&env).unwrap().is_none());
        let mut below_all = key(0);
        below_all.pop(); // 3-byte key sorts before every 4-byte key
        let c = t.seek_le(&env, &below_all).unwrap();
        assert!(c.read(&env).unwrap().is_none());
    }

    #[test]
    fn cursor_walks_the_leaf_chain() {
        let env = mem_env();
        let t = load(&env, 0, 0..300u32, b"v");
        let mut c = t.cursor_first(&env).unwrap();
        for i in 0..300u32 {
            assert_eq!(c.read(&env).unwrap().unwrap().0, key(i));
            c.advance(&env).unwrap();
        }
        assert!(c.read(&env).unwrap().is_none());
    }

    #[test]
    fn variable_length_keys() {
        let env = mem_env();
        let mut keys: Vec<Vec<u8>> = (0..300)
            .map(|i| {
                let mut k = vec![b'k'; i % 23 + 1];
                k.extend_from_slice(&(i as u32).to_be_bytes());
                k
            })
            .collect();
        keys.sort();
        let t = BTree::bulk_load(&env, 0, keys.iter().map(|k| (k.clone(), b"x".to_vec()))).unwrap();
        t.check_invariants(&env).unwrap();
        for k in &keys {
            assert!(t.contains(&env, k).unwrap());
        }
        assert_eq!(t.len(&env).unwrap(), keys.len() as u64);
    }

    #[test]
    fn entry_too_large_is_rejected() {
        let env = mem_env();
        let huge = vec![0u8; 300];
        assert!(matches!(
            BTree::bulk_load(&env, 0, vec![(huge, Vec::new())]),
            Err(StorageError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn two_trees_in_one_env() {
        let env = mem_env();
        let a = load(&env, 0, 0..200u32, b"a");
        let b = load(&env, 1, 0..200u32, b"b");
        assert_eq!(a.get(&env, &key(5)).unwrap(), Some(b"a".to_vec()));
        assert_eq!(b.get(&env, &key(5)).unwrap(), Some(b"b".to_vec()));
        a.check_invariants(&env).unwrap();
        b.check_invariants(&env).unwrap();
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("xk-btree-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        let opts = EnvOptions { page_size: 512, pool_pages: 32 };
        {
            let env = StorageEnv::create(&path, opts.clone()).unwrap();
            BTree::bulk_load(&env, 0, (0..500u32).map(|i| (key(i), key(i + 1)))).unwrap();
            env.flush().unwrap();
        }
        {
            let env = StorageEnv::open(&path, opts).unwrap();
            let t = BTree::open(&env, 0).unwrap();
            for i in 0..500u32 {
                assert_eq!(t.get(&env, &key(i)).unwrap(), Some(key(i + 1)));
            }
            t.check_invariants(&env).unwrap();
            assert!(BTree::open(&env, 1).is_err(), "slot 1 never held a tree");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bulk_load_empty_and_single() {
        let env = mem_env();
        let t = BTree::bulk_load(&env, 0, Vec::new()).unwrap();
        assert!(t.is_empty(&env).unwrap());
        t.check_invariants(&env).unwrap();
        let t = BTree::bulk_load(&env, 1, vec![(b"k".to_vec(), b"v".to_vec())]).unwrap();
        assert_eq!(t.get(&env, b"k").unwrap(), Some(b"v".to_vec()));
        t.check_invariants(&env).unwrap();
    }

    #[test]
    fn bulk_load_rejects_unsorted() {
        let env = mem_env();
        let entries = vec![
            (b"b".to_vec(), vec![]),
            (b"a".to_vec(), vec![]),
        ];
        assert!(BTree::bulk_load(&env, 0, entries).is_err());
        let dup = vec![(b"a".to_vec(), vec![]), (b"a".to_vec(), vec![])];
        assert!(BTree::bulk_load(&env, 0, dup).is_err());
    }

    #[test]
    fn verify_leaf_links_accepts_built_trees() {
        let env = mem_env();
        load(&env, 0, 0..2000u32, b"").verify_leaf_links(&env).unwrap();
        BTree::bulk_load(&env, 1, Vec::new()).unwrap().verify_leaf_links(&env).unwrap();
    }

    #[test]
    fn verify_leaf_links_detects_broken_prev() {
        let env = mem_env();
        let t = load(&env, 0, 0..500u32, b"v");
        // Find the second leaf and point its prev somewhere wrong.
        let mut c = t.cursor_first(&env).unwrap();
        let second_leaf = loop {
            let page_before = c.page;
            c.advance(&env).unwrap();
            if c.page != page_before {
                break c.page.unwrap();
            }
        };
        env.with_page_mut(second_leaf, |p| {
            p[3..7].copy_from_slice(&PageId::encode_opt(None).to_le_bytes());
        })
        .unwrap();
        match t.verify_leaf_links(&env) {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains("asymmetric"), "{msg}"),
            other => panic!("expected asymmetric-link error, got {other:?}"),
        }
    }

    #[test]
    fn node_read_rejects_mangled_pages() {
        let env = mem_env();
        let t = load(&env, 0, 0..50u32, b"v");
        let root = t.root(&env).unwrap();
        // Claim far more entries than the page holds: offsets run off the end.
        env.with_page_mut(root, |p| p[1..3].copy_from_slice(&5000u16.to_le_bytes())).unwrap();
        assert!(matches!(read_node(&env, root), Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn anchored_seeks_match_fresh_seeks() {
        let env = mem_env();
        let t = BTree::bulk_load(&env, 0, (0..3000u32).map(|i| (key(i), key(i * 3)))).unwrap();
        let mut anchor = BTreeCursor::new();
        // Mixed probe order: monotone runs, backsteps, jumps, misses.
        let probes: Vec<u32> = (0..200u32)
            .map(|i| (i * 37) % 3100)
            .chain((0..100).map(|i| i * 31))
            .chain((0..100).rev().map(|i| i * 29 + 1))
            .collect();
        for p in probes {
            let fresh = t.seek_ge(&env, &key(p)).unwrap().read(&env).unwrap();
            let anch = t.seek_ge_anchored(&env, &mut anchor, &key(p)).unwrap().read(&env).unwrap();
            assert_eq!(fresh, anch, "seek_ge({p})");
            let fresh = t.seek_le(&env, &key(p)).unwrap().read(&env).unwrap();
            let anch = t.seek_le_anchored(&env, &mut anchor, &key(p)).unwrap().read(&env).unwrap();
            assert_eq!(fresh, anch, "seek_le({p})");
        }
    }

    #[test]
    fn anchored_probe_in_pinned_leaf_reads_one_page() {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 512 });
        let t = load(&env, 0, 0..5000u32, b"");
        let mut anchor = BTreeCursor::new();
        // First probe pins the path (full descent).
        t.seek_ge_anchored(&env, &mut anchor, &key(2500)).unwrap();
        assert!(anchor.is_pinned());
        assert!(anchor.pinned_depth() >= 2, "tree of 5000 keys has internal levels");
        // A re-probe of the same key stays inside the pinned leaf:
        // exactly one page access, no meta-page root lookup, no descent.
        env.reset_stats();
        let c = t.seek_ge_anchored(&env, &mut anchor, &key(2500)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(2500));
        assert_eq!(env.stats().logical_reads, 2, "leaf probe + cursor read only");
    }

    #[test]
    fn anchored_gallop_crosses_leaves_without_full_descent() {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 512 });
        let t = load(&env, 0, 0..5000u32, b"");
        let mut anchor = BTreeCursor::new();
        let mut fresh_reads = 0u64;
        let mut anchored_reads = 0u64;
        // Ascending sweep: anchored should hop leaves, fresh re-descends.
        for i in 0..1000u32 {
            env.reset_stats();
            t.seek_ge(&env, &key(i * 5)).unwrap();
            fresh_reads += env.stats().logical_reads;
            env.reset_stats();
            t.seek_ge_anchored(&env, &mut anchor, &key(i * 5)).unwrap();
            anchored_reads += env.stats().logical_reads;
        }
        assert!(
            anchored_reads * 2 <= fresh_reads,
            "anchored sweep ({anchored_reads} reads) should at least halve \
             fresh-descent cost ({fresh_reads} reads)"
        );
    }

    #[test]
    fn anchored_cursor_invalidates_on_mutation() {
        let env = mem_env();
        let t = load(&env, 0, (0..500u32).map(|i| i * 2), b"");
        let mut anchor = BTreeCursor::new();
        let c = t.seek_ge_anchored(&env, &mut anchor, &key(100)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(100));
        assert_eq!(anchor.version, env.data_version());
        // The tree itself never changes, but any page write in the env
        // moves the data version and must unpin every anchored cursor.
        let mut w = ListWriter::new(&env);
        w.append(&env, b"elsewhere").unwrap();
        w.finish(&env).unwrap();
        assert_ne!(anchor.version, env.data_version(), "a list write moved the version");
        let c = t.seek_ge_anchored(&env, &mut anchor, &key(101)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(102));
        assert_eq!(anchor.version, env.data_version(), "the stale path was re-pinned");
        // Manual invalidation also forces a re-pin.
        anchor.invalidate();
        assert!(!anchor.is_pinned());
        let c = t.seek_le_anchored(&env, &mut anchor, &key(104)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(104));
        assert!(anchor.is_pinned());
    }

    #[test]
    fn anchored_seeks_handle_chain_hops_and_ends() {
        let env = mem_env();
        let t = load(&env, 0, (1..=300u32).map(|i| i * 10), b"");
        let mut anchor = BTreeCursor::new();
        // Below every key: seek_le chains off the left end.
        let c = t.seek_le_anchored(&env, &mut anchor, &key(5)).unwrap();
        assert!(c.read(&env).unwrap().is_none());
        // Above every key: seek_ge chains off the right end.
        let c = t.seek_ge_anchored(&env, &mut anchor, &key(5000)).unwrap();
        assert!(c.read(&env).unwrap().is_none());
        // Between keys after the chain-off probes, both directions.
        let c = t.seek_ge_anchored(&env, &mut anchor, &key(1999)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(2000));
        let c = t.seek_le_anchored(&env, &mut anchor, &key(1999)).unwrap();
        assert_eq!(c.read(&env).unwrap().unwrap().0, key(1990));
        // Empty tree: anchored seeks are exhausted, not erroneous.
        let empty = BTree::bulk_load(&env, 1, Vec::new()).unwrap();
        let mut a2 = BTreeCursor::new();
        assert!(empty.seek_ge_anchored(&env, &mut a2, &key(1)).unwrap().read(&env).unwrap().is_none());
        assert!(empty.seek_le_anchored(&env, &mut a2, &key(1)).unwrap().read(&env).unwrap().is_none());
    }

    #[test]
    fn cold_cache_seeks_touch_one_path() {
        let env = StorageEnv::in_memory(EnvOptions { page_size: 256, pool_pages: 512 });
        let t = load(&env, 0, 0..5000u32, b"");
        env.clear_cache().unwrap();
        env.reset_stats();
        let c = t.seek_ge(&env, &key(2500)).unwrap();
        assert!(c.is_valid());
        let s = env.stats();
        // A single root-to-leaf descent: disk reads == tree height (+1 for
        // the meta page holding the root pointer).
        assert!(s.disk_reads <= 8, "seek should read one path, read {}", s.disk_reads);
    }
}
