// Package btree implements a disk-resident B+-tree over write-once page
// files. It is the "single B+-tree" that makes iDistance a lightweight index
// in the paper's sense: int64 keys (iDistance ring keys) map to
// variable-length value blobs (the encoded sub-partition directory of a
// ring). Values larger than the inline threshold spill into overflow page
// chains, so one ring can describe arbitrarily many sub-partitions.
//
// A tree is bulk-loaded once, by Build, from its sorted keys, and is
// immutable afterwards: Open decodes every node page into memory and Scan
// serves from there (overflow values keep going through the pager). Updates
// to the indexed data never reach the tree; they live in the layers above
// until a compaction builds a new one.
package btree

import (
	"encoding/binary"
	"fmt"
	"slices"

	"promips/internal/errs"
	"promips/internal/pager"
)

const (
	magic       = uint32(0x50425431) // "PBT1"
	nodeLeaf    = byte(0)
	nodeInner   = byte(1)
	headerSize  = 16 // type(1) + nkeys(2) + pad(5) + next(8)
	innerEntry  = 16 // key(8) + child(8)
	leafFixed   = 13 // key(8) + flag(1) + len(4)
	ovHeader    = 12 // next(8) + used(4)
	flagInline  = byte(0)
	flagOverflw = byte(1)

	// minPageSize keeps the format meaningful: the meta page holds its four
	// fields, a leaf holds at least one entry and an inner node three children.
	minPageSize = 64
)

// nilPage marks an absent page link (stored on disk as all-ones).
const nilPage int64 = -1

// Tree is an opened B+-tree: page 0 holds its metadata, and every node page
// reachable from the root is held decoded in nodes.
type Tree struct {
	pg     *pager.Pager
	root   int64
	height int // node levels; 1 = the root is a leaf
	nodes  map[int64]*node
}

// node is the in-memory form of a tree page.
type node struct {
	keys []int64
	// Leaf payload: vals[i] holds inline bytes when ov[i] == nilPage,
	// otherwise the value lives in the overflow chain starting at ov[i]
	// with total length vlen[i].
	vals [][]byte
	ov   []int64
	vlen []uint32
	next int64
	// Inner payload: children[i] subtree holds keys < keys[i];
	// children[len(keys)] holds the rest.
	children []int64
}

// inlineMax is the largest value stored inside a leaf; bigger values go to
// overflow chains. A quarter page keeps at least a few entries per leaf.
func inlineMax(pageSize int) int { return (pageSize - headerSize) / 4 }

// child is one subtree of the level under construction: its page and the
// smallest key below it.
type child struct {
	key  int64
	page int64
}

// Build writes the tree mapping keys[i] to values[i] into the empty file w.
// Keys must be strictly ascending. Leaves are packed full left to right (each
// overflow chain follows the leaves on consecutive pages), then every inner
// level is built over the one below until a single root remains.
func Build(w *pager.Writer, keys []int64, values [][]byte) error {
	ps := w.PageSize()
	if ps < minPageSize || w.NumPages() != 0 {
		return fmt.Errorf("btree: Build requires an empty file of pages ≥ %d bytes, have %d pages of %d", minPageSize, w.NumPages(), ps)
	}
	if len(keys) != len(values) {
		return fmt.Errorf("btree: %d keys for %d values", len(keys), len(values))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] <= keys[i-1] {
			return fmt.Errorf("btree: keys not strictly ascending at %d (%d after %d)", i, keys[i], keys[i-1])
		}
	}
	entrySize := func(v []byte) int {
		if len(v) <= inlineMax(ps) {
			return leafFixed + len(v)
		}
		return leafFixed + 8
	}
	w.Alloc() // meta page, written last

	// Cut the keys into leaves; an empty tree is one empty leaf.
	starts := []int{0}
	used := headerSize
	for i, v := range values {
		if used+entrySize(v) > ps {
			starts = append(starts, i)
			used = headerSize
		}
		used += entrySize(v)
	}
	level := make([]child, len(starts))
	for i := range level {
		level[i].page = w.Alloc()
	}
	buf := make([]byte, ps)
	for li, lo := range starts {
		hi, next := len(keys), nilPage
		if li+1 < len(starts) {
			hi, next = starts[li+1], level[li+1].page
		}
		clear(buf)
		buf[0] = nodeLeaf
		binary.LittleEndian.PutUint16(buf[1:], uint16(hi-lo))
		binary.LittleEndian.PutUint64(buf[8:], uint64(next))
		off := headerSize
		for i := lo; i < hi; i++ {
			v := values[i]
			binary.LittleEndian.PutUint64(buf[off:], uint64(keys[i]))
			binary.LittleEndian.PutUint32(buf[off+9:], uint32(len(v)))
			if len(v) <= inlineMax(ps) {
				buf[off+8] = flagInline
				off += leafFixed + copy(buf[off+leafFixed:], v)
				continue
			}
			head, err := writeOverflow(w, v)
			if err != nil {
				return err
			}
			buf[off+8] = flagOverflw
			binary.LittleEndian.PutUint64(buf[off+leafFixed:], uint64(head))
			off += leafFixed + 8
		}
		if err := w.Write(level[li].page, buf); err != nil {
			return err
		}
		if lo < hi {
			level[li].key = keys[lo]
		}
	}

	// Inner levels: spread the children evenly over as few nodes as hold them.
	height := 1
	fanout := (ps-headerSize-8)/innerEntry + 1
	for ; len(level) > 1; height++ {
		up := make([]child, (len(level)+fanout-1)/fanout)
		for j := range up {
			kids := level[j*len(level)/len(up) : (j+1)*len(level)/len(up)]
			clear(buf)
			buf[0] = nodeInner
			binary.LittleEndian.PutUint16(buf[1:], uint16(len(kids)-1))
			off := headerSize
			for _, c := range kids[1:] {
				binary.LittleEndian.PutUint64(buf[off:], uint64(c.key))
				off += 8
			}
			for _, c := range kids {
				binary.LittleEndian.PutUint64(buf[off:], uint64(c.page))
				off += 8
			}
			up[j] = child{key: kids[0].key, page: w.Alloc()}
			if err := w.Write(up[j].page, buf); err != nil {
				return err
			}
		}
		level = up
	}

	clear(buf)
	binary.LittleEndian.PutUint32(buf, magic)
	binary.LittleEndian.PutUint64(buf[8:], uint64(level[0].page))
	binary.LittleEndian.PutUint32(buf[16:], uint32(height))
	binary.LittleEndian.PutUint64(buf[24:], uint64(len(keys)))
	return w.Write(0, buf)
}

// writeOverflow stores val (never empty) on freshly allocated consecutive
// pages, returning the first.
func writeOverflow(w *pager.Writer, val []byte) (int64, error) {
	chunk := w.PageSize() - ovHeader
	buf := make([]byte, w.PageSize())
	head := w.NumPages()
	for off := 0; off < len(val); off += chunk {
		id, next := w.Alloc(), nilPage
		end := min(off+chunk, len(val))
		if end < len(val) {
			next = id + 1
		}
		clear(buf)
		binary.LittleEndian.PutUint64(buf, uint64(next))
		binary.LittleEndian.PutUint32(buf[8:], uint32(end-off))
		copy(buf[ovHeader:], val[off:end])
		if err := w.Write(id, buf); err != nil {
			return 0, err
		}
	}
	return head, nil
}

func corrupt(format string, a ...any) error {
	return fmt.Errorf("btree: "+format+": %w", append(a, errs.ErrCorruptIndex)...)
}

// Open loads a tree, decoding every node page once: queries then serve nodes
// from memory (decoding was the dominant per-query allocation source) while
// still recording each node visit as a logical page access. The file is
// untrusted: every length and page id is bounded by the page and the file,
// no page is reached twice, and the leaf chain must run through the leaves in
// tree order, so neither Open nor a later Scan can index out of range or
// loop; any violation is reported as errs.ErrCorruptIndex.
func Open(pg *pager.Pager) (*Tree, error) {
	np := pg.NumPages()
	if pg.PageSize() < minPageSize || np < 2 {
		return nil, corrupt("%d pages of %d bytes hold no tree", np, pg.PageSize())
	}
	mp, err := pg.Read(0, nil)
	if err != nil {
		return nil, fmt.Errorf("btree: read meta: %w", err)
	}
	defer mp.Release()
	meta := mp.Bytes()
	if binary.LittleEndian.Uint32(meta) != magic {
		return nil, corrupt("bad magic in meta page")
	}
	// Every level of the walk claims a page of its own, so a height within
	// the page count bounds the recursion.
	height := int64(binary.LittleEndian.Uint32(meta[16:]))
	if height < 1 || height >= np {
		return nil, corrupt("height %d in a file of %d pages", height, np)
	}
	t := &Tree{
		pg:     pg,
		root:   int64(binary.LittleEndian.Uint64(meta[8:])),
		height: int(height),
		nodes:  make(map[int64]*node),
	}
	var lastLeaf *node
	var load func(id int64, level int) error
	load = func(id int64, level int) error {
		if id < 1 || id >= np {
			return corrupt("node page %d outside the file's %d pages", id, np)
		}
		if t.nodes[id] != nil {
			return corrupt("node page %d reached twice", id)
		}
		page, err := pg.Read(id, nil)
		if err != nil {
			return fmt.Errorf("btree: read node %d: %w", id, err)
		}
		n, err := decodeNode(id, page.Bytes(), level == 1, np)
		page.Release()
		if err != nil {
			return err
		}
		t.nodes[id] = n
		if level == 1 {
			if lastLeaf != nil && lastLeaf.next != id {
				return corrupt("leaf chain skips page %d", id)
			}
			lastLeaf = n
		}
		for _, c := range n.children {
			if err := load(c, level-1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := load(t.root, t.height); err != nil {
		return nil, err
	}
	if lastLeaf.next != nilPage {
		return nil, corrupt("leaf chain runs past the last leaf to page %d", lastLeaf.next)
	}
	return t, nil
}

// decodeNode parses node page id of a file of np pages.
func decodeNode(id int64, buf []byte, leaf bool, np int64) (*node, error) {
	if (buf[0] == nodeLeaf) != leaf || buf[0] > nodeInner {
		return nil, corrupt("node %d: type %d on the wrong level", id, buf[0])
	}
	nk := int(binary.LittleEndian.Uint16(buf[1:]))
	off := headerSize
	n := &node{keys: make([]int64, nk)}
	if !leaf {
		if off+nk*innerEntry+8 > len(buf) {
			return nil, corrupt("node %d: %d inner keys overflow the page", id, nk)
		}
		n.children = make([]int64, nk+1)
		for i := range n.keys {
			n.keys[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		for i := range n.children {
			n.children[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		return n, nil
	}
	n.next = int64(binary.LittleEndian.Uint64(buf[8:]))
	n.vals = make([][]byte, nk)
	n.ov = make([]int64, nk)
	n.vlen = make([]uint32, nk)
	for i := 0; i < nk; i++ {
		if off+leafFixed > len(buf) {
			return nil, corrupt("node %d: %d leaf entries overflow the page", id, nk)
		}
		n.keys[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
		flag := buf[off+8]
		l := binary.LittleEndian.Uint32(buf[off+9:])
		off += leafFixed
		n.vlen[i] = l
		switch {
		case flag == flagInline && int64(l) <= int64(len(buf)-off):
			n.ov[i] = nilPage
			n.vals[i] = append([]byte(nil), buf[off:off+int(l)]...)
			off += int(l)
		case flag == flagOverflw && off+8 <= len(buf):
			n.ov[i] = int64(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
			// A value cannot be longer than the file that holds its chain.
			if n.ov[i] < 1 || n.ov[i] >= np || int64(l) > np*int64(len(buf)-ovHeader) {
				return nil, corrupt("node %d entry %d: %d-byte overflow value at page %d of %d", id, i, l, n.ov[i], np)
			}
		default:
			return nil, corrupt("node %d entry %d: flag %d, length %d at offset %d", id, i, flag, l, off)
		}
	}
	return n, nil
}

// node returns the decoded node page id, recording the visit in io.
func (t *Tree) node(id int64, io *pager.IOStats) *node {
	t.pg.RecordRead(id, io)
	return t.nodes[id]
}

// readOverflow reads the total-byte value whose chain starts at head. Every
// page must add between one byte and a page's worth without passing total,
// which also bounds the walk on a chain that loops.
func (t *Tree) readOverflow(head int64, total uint32, io *pager.IOStats) ([]byte, error) {
	out := make([]byte, 0, total)
	for id := head; id != nilPage; {
		if id < 1 || id >= t.pg.NumPages() {
			return nil, corrupt("overflow page %d outside the file's %d pages", id, t.pg.NumPages())
		}
		page, err := t.pg.Read(id, io)
		if err != nil {
			return nil, err
		}
		buf := page.Bytes()
		used := int64(binary.LittleEndian.Uint32(buf[8:]))
		if used < 1 || used > int64(len(buf)-ovHeader) || int64(len(out))+used > int64(total) {
			page.Release()
			return nil, corrupt("overflow page %d holds %d bytes, %d of %d read", id, used, len(out), total)
		}
		out = append(out, buf[ovHeader:ovHeader+int(used)]...)
		id = int64(binary.LittleEndian.Uint64(buf))
		page.Release()
	}
	if uint32(len(out)) != total {
		return nil, corrupt("overflow chain length %d, want %d", len(out), total)
	}
	return out, nil
}

// childIndex returns the child slot to follow for key in an inner node:
// the first i with key < keys[i], else the last child.
func childIndex(keys []int64, key int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if key < keys[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Scan visits keys in [lo, hi] in ascending order. fn returning false stops
// the scan early. Page reads are recorded in io (nil discards the
// accounting).
func (t *Tree) Scan(lo, hi int64, io *pager.IOStats, fn func(key int64, val []byte) bool) error {
	if lo > hi {
		return nil
	}
	id := t.root
	for level := t.height; level > 1; level-- {
		n := t.node(id, io)
		id = n.children[childIndex(n.keys, lo)]
	}
	for id != nilPage {
		n := t.node(id, io)
		start, _ := slices.BinarySearch(n.keys, lo)
		for i := start; i < len(n.keys); i++ {
			if n.keys[i] > hi {
				return nil
			}
			v := n.vals[i]
			if n.ov[i] != nilPage {
				var err error
				if v, err = t.readOverflow(n.ov[i], n.vlen[i], io); err != nil {
					return err
				}
			}
			if !fn(n.keys[i], v) {
				return nil
			}
		}
		id = n.next
	}
	return nil
}
