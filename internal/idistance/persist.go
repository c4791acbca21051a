package idistance

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"promips/internal/errs"
	"promips/internal/fsutil"
	"promips/internal/pager"
	"promips/internal/vec"
)

// meta is the gob-serialized in-memory state of an Index; the projected
// entries live in idist.data. RingKeys holds the ring directory's keys and
// RingDirs their sub-partition directories back to back, each in the
// appendSubs format (one []byte rather than a [][]byte: a new gob type would
// renumber the gob type ids promips.meta is written with). A meta saved
// before the directory moved here has neither: its rings are in the legacy
// tree file beside it (legacy.go).
type meta struct {
	Cfg            Config
	M, N           int
	Centers        [][]float32
	Radii          []float64
	Epsilon        float64
	Stride         int64
	EntriesPerPage int
	Layout         []uint32
	RingKeys       []int64
	RingDirs       []byte
}

// Save persists the index metadata next to its page file in dir. The meta
// file is written to a temp name and renamed over, so a crash mid-Save
// never truncates a previously saved (and possibly still referenced) meta
// file. Directory-entry durability is the caller's concern (core.Save
// fsyncs dir once after both meta renames).
func (idx *Index) Save(dir string) error { return idx.SaveFS(fsutil.OS, dir) }

// SaveFS is Save writing through an explicit filesystem seam, so the
// crash-injection harness can fault this meta write like any other.
func (idx *Index) SaveFS(fsys fsutil.FS, dir string) error {
	m := meta{
		Cfg: idx.cfg, M: idx.m, N: idx.n,
		Centers: idx.centers, Radii: idx.radii,
		Epsilon: idx.epsilon, Stride: idx.stride,
		EntriesPerPage: idx.entriesPerPage, Layout: idx.layout,
		RingKeys: make([]int64, len(idx.rings)),
	}
	for i, rg := range idx.rings {
		m.RingKeys[i], m.RingDirs = rg.key, appendSubs(m.RingDirs, rg.subs, idx.m, idx.entriesPerPage)
	}
	err := fsutil.WriteAtomic(fsys, filepath.Join(dir, "idist.meta"), func(f fsutil.File) error {
		return gob.NewEncoder(f).Encode(&m)
	})
	if err != nil {
		return fmt.Errorf("idistance: save meta: %w", err)
	}
	return nil
}

// Open loads an index previously built in dir (Build followed by Save). The
// meta and the ring directory are checked once, here, for everything a
// search or a Projected fetch later indexes by; a violation is
// errs.ErrCorruptIndex.
func Open(dir string) (*Index, error) {
	f, err := os.Open(filepath.Join(dir, "idist.meta"))
	if err != nil {
		return nil, fmt.Errorf("idistance: open meta: %w", err)
	}
	m, err := decodeMeta(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	data, err := pager.Open(filepath.Join(dir, "idist.data"), pager.Options{PageSize: m.Cfg.PageSize, PoolSize: m.Cfg.PoolSize})
	if err != nil {
		return nil, err
	}
	rings, err := m.loadRings(dir, data.NumPages())
	if err != nil {
		data.Close()
		return nil, err
	}
	return &Index{
		cfg: m.Cfg, m: m.M, n: m.N,
		centers: m.Centers, radii: m.Radii,
		epsilon: m.Epsilon, stride: m.Stride,
		data: data, rings: rings,
		entriesPerPage: m.EntriesPerPage, layout: m.Layout,
	}, nil
}

func corrupt(format string, a ...any) error {
	return fmt.Errorf("idistance: "+format+": %w", append(a, errs.ErrCorruptIndex)...)
}

// decodeMeta decodes an idist.meta stream. Gob fills a well-typed struct
// from arbitrary bytes, so nothing in it is trusted before loadRings.
func decodeMeta(r io.Reader) (*meta, error) {
	var m meta
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, corrupt("decode meta: %v", err)
	}
	return &m, nil
}

// loadRings validates m against a data file of dataPages pages and returns
// its ring directory: from the meta, or — every index has a ring, so an
// empty RingKeys means the meta predates the directory's move into it —
// from the legacy tree file in dir.
func (m *meta) loadRings(dir string, dataPages int64) ([]ring, error) {
	if err := m.validate(); err != nil {
		return nil, err
	}
	if len(m.RingKeys) > 0 {
		return m.ringDirectory(m.RingKeys, m.splitDirs(), dataPages)
	}
	keys, dirs, err := readLegacyTree(dir, m.Cfg.PageSize)
	if err != nil {
		return nil, err
	}
	return m.ringDirectory(keys, dirs, dataPages)
}

// splitDirs cuts RingDirs after each directory its count says is complete;
// a short tail is left for decodeSubs to reject.
func (m *meta) splitDirs() [][]byte {
	var dirs [][]byte
	for b := m.RingDirs; len(b) > 0; {
		n := int64(len(b))
		if n >= 4 {
			n = min(n, 4+int64(binary.LittleEndian.Uint32(b))*int64(subSize(m.M)))
		}
		dirs, b = append(dirs, b[:n]), b[n:]
	}
	return dirs
}

// ringDirectory decodes the rings keys[i] → dirs[i] of a validated m: keys
// ascending inside the partitions, every directory well-formed, and the
// sub-partitions holding the layout positions 0..n−1 back to back. Each
// sub-partition's startPos is the running count, the same layout positions
// Build assigned — for a directory read from a legacy tree too, whose leaf
// chain yields the rings in the key order Build laid them out in.
func (m *meta) ringDirectory(keys []int64, dirs [][]byte, dataPages int64) ([]ring, error) {
	if len(keys) != len(dirs) {
		return nil, corrupt("%d ring keys for %d ring directories", len(keys), len(dirs))
	}
	rings := make([]ring, len(keys))
	points := 0
	for i, key := range keys {
		if key < 0 || key/m.Stride >= int64(len(m.Centers)) || (i > 0 && key <= keys[i-1]) {
			return nil, corrupt("ring key %d at %d: keys must ascend within %d partitions of stride %d", key, i, len(m.Centers), m.Stride)
		}
		subs, err := m.decodeSubs(key, dirs[i], points, dataPages)
		if err != nil {
			return nil, err
		}
		for _, s := range subs {
			points += s.numPoints
		}
		rings[i] = ring{key: key, subs: subs}
	}
	if points != m.N {
		return nil, corrupt("ring directory holds %d points, want n=%d", points, m.N)
	}
	return rings, nil
}

// validate checks the shape of the per-point and per-partition state: the
// arrays sized to n and m, the page geometry the entries were packed with,
// and the layout a permutation of the ids.
func (m *meta) validate() error {
	if m.N < 1 || m.M < 1 || len(m.Layout) != m.N {
		return corrupt("n=%d m=%d with %d layout entries", m.N, m.M, len(m.Layout))
	}
	if len(m.Centers) < 1 || len(m.Radii) != len(m.Centers) {
		return corrupt("%d partition centers with %d radii", len(m.Centers), len(m.Radii))
	}
	for p, c := range m.Centers {
		if len(c) != m.M {
			return corrupt("partition %d center of dim %d, want m=%d", p, len(c), m.M)
		}
	}
	if m.EntriesPerPage < 1 || m.EntriesPerPage != m.Cfg.PageSize/(4+vec.EncodedSize(m.M)) {
		return corrupt("%d entries per %d-byte page at m=%d", m.EntriesPerPage, m.Cfg.PageSize, m.M)
	}
	if m.Stride < 1 || !(m.Epsilon > 0 && m.Epsilon <= math.MaxFloat64) {
		return corrupt("stride %d, ring width %v", m.Stride, m.Epsilon)
	}
	// The layers above permute their per-point arrays by the layout, so it
	// must be a permutation, not merely in range.
	placed := make([]bool, m.N)
	for pos, id := range m.Layout {
		if int(id) >= m.N || placed[id] {
			return corrupt("layout position %d holds id %d: outside n=%d, or placed twice", pos, id, m.N)
		}
		placed[id] = true
	}
	return nil
}

// subSize is the encoded size of one sub-partition of dimension m.
func subSize(m int) int { return 24 + vec.EncodedSize(m) }

// appendSubs appends a ring's serialized sub-partition directory to dst:
// count uint32, then per sub-partition: start page int64, start slot uint32,
// numPoints uint32, radius float64, center m×float32. The start page and
// slot are those of startPos on pages of epp entries.
func appendSubs(dst []byte, subs []subPartition, m, epp int) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(subs)))
	for _, s := range subs {
		dst = le.AppendUint64(dst, uint64(s.startPos/epp))
		dst = le.AppendUint32(dst, uint32(s.startPos%epp))
		dst = le.AppendUint32(dst, uint32(s.numPoints))
		dst = le.AppendUint64(dst, math.Float64bits(s.radius))
		dst = vec.AppendF32LE(dst, s.center)
	}
	return dst
}

// decodeSubs parses ring key's appendSubs bytes, whose first sub-partition
// starts at layout position pos, checking that the length matches the count,
// and that every sub-partition holds at least one point, is stored at the
// page and slot of its layout position, ends inside the n points and a data
// file of dataPages pages and has a finite, non-negative radius.
func (m *meta) decodeSubs(key int64, buf []byte, pos int, dataPages int64) ([]subPartition, error) {
	le := binary.LittleEndian
	size := subSize(m.M)
	if len(buf) < 4 || int64(len(buf)) != 4+int64(le.Uint32(buf))*int64(size) {
		return nil, corrupt("ring %d: %d-byte sub-partition directory", key, len(buf))
	}
	subs := make([]subPartition, (len(buf)-4)/size)
	epp := int64(m.EntriesPerPage)
	for i := range subs {
		b := buf[4+i*size:]
		page, slot, count := le.Uint64(b), int64(le.Uint32(b[8:])), int64(le.Uint32(b[12:]))
		end := int64(pos) + count
		radius := math.Float64frombits(le.Uint64(b[16:]))
		if page != uint64(int64(pos)/epp) || slot != int64(pos)%epp || count < 1 || end > int64(m.N) || (end+epp-1)/epp > dataPages ||
			!(radius >= 0 && radius <= math.MaxFloat64) {
			return nil, corrupt("ring %d sub-partition %d at layout position %d: %d points at page %d slot %d, radius %v, in %d pages of %d entries for n=%d",
				key, i, pos, count, page, slot, radius, dataPages, epp, m.N)
		}
		subs[i] = subPartition{center: vec.Decode(b[24:], m.M, nil), radius: radius, startPos: pos, numPoints: int(count)}
		pos = int(end)
	}
	return subs, nil
}
