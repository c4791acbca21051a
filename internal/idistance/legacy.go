package idistance

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Legacy B+-tree file layout. Indexes saved before the ring directory moved
// into idist.meta kept it in idist.btree, a B+-tree over ring keys whose
// leaf values are appendSubs directories, all integers little-endian. Page
// 0 holds the magic at byte 0 and the key count at byte 24. A leaf page
// holds its type (0) at byte 0, its entry count (uint16) at byte 1 and the
// next leaf's page at byte 8, then its entries: key, flag and value length,
// followed by the value inline (flag 0) or by the first page of an overflow
// chain (flag 1), each of whose pages holds the next page, the bytes used
// and the bytes.
const (
	legacyMagic    = 0x50425431 // "PBT1"
	legacyHeader   = 16
	legacyEntry    = 13 // key(8) + flag(1) + len(4)
	legacyOvHeader = 12 // next(8) + used(4)
	legacyNil      = -1 // an absent page link
)

// readLegacyTree returns the keys and values of the B+-tree in dir's
// idist.btree, whose pages are pageSize bytes.
func readLegacyTree(dir string, pageSize int) ([]int64, [][]byte, error) {
	b, err := os.ReadFile(filepath.Join(dir, "idist.btree"))
	if err != nil {
		return nil, nil, fmt.Errorf("idistance: read legacy ring directory: %w", err)
	}
	return legacyRingDirs(b, pageSize)
}

// legacyRingDirs walks the leaf chain of the tree file b. The leftmost leaf
// is page 1 in every tree ever written — bulk-loaded ones pack their leaves
// from there, and insert-built ones grew from a root leaf on page 1 — so the
// inner nodes are never read. The file is untrusted: every length and page
// id is bounded by the page and the file, the chain may visit at most every
// page once, the values — each on pages of its own — may not add up to more
// bytes than the file holds (so the walk is linear in its size), and the
// chain must yield the key count page 0 records; any violation is
// errs.ErrCorruptIndex.
func legacyRingDirs(b []byte, ps int) (keys []int64, vals [][]byte, err error) {
	le := binary.LittleEndian
	if ps < 64 || len(b)%ps != 0 || len(b) < 2*ps || le.Uint32(b) != legacyMagic {
		return nil, nil, corrupt("legacy idist.btree of %d bytes is no tree of %d-byte pages", len(b), ps)
	}
	np := int64(len(b) / ps)
	page := func(id int64) []byte { return b[id*int64(ps) : (id+1)*int64(ps)] }
	left := int64(len(b)) // value bytes the file can still hold
	for id, hops := int64(1), int64(0); id != legacyNil; hops++ {
		if id < 1 || id >= np || hops >= np || page(id)[0] != 0 {
			return nil, nil, corrupt("legacy leaf chain reaches page %d (of %d) after %d leaves", id, np, hops)
		}
		p := page(id)
		off := legacyHeader
		for i := int(le.Uint16(p[1:])); i > 0; i-- {
			if off+legacyEntry > ps {
				return nil, nil, corrupt("legacy leaf %d: entries overflow the page", id)
			}
			key, flag, n := int64(le.Uint64(p[off:])), p[off+8], int64(le.Uint32(p[off+9:]))
			off += legacyEntry
			if left -= n; left < 0 {
				return nil, nil, corrupt("legacy leaf %d: values outgrow the %d-byte file", id, len(b))
			}
			var v []byte
			switch {
			case flag == 0 && n <= int64(ps-off):
				v, off = p[off:off+int(n)], off+int(n)
			case flag == 1 && off+8 <= ps:
				// Every overflow page adds 1 to ps−12 bytes without passing n,
				// so the walk ends within n pages even on a looping chain.
				v = make([]byte, 0, n)
				for ov := int64(le.Uint64(p[off:])); ov != legacyNil; {
					if ov < 1 || ov >= np {
						return nil, nil, corrupt("legacy overflow page %d outside %d pages", ov, np)
					}
					op := page(ov)
					used := int64(le.Uint32(op[8:]))
					if used < 1 || used > int64(ps-legacyOvHeader) || int64(len(v))+used > n {
						return nil, nil, corrupt("legacy overflow page %d holds %d bytes, %d of %d read", ov, used, len(v), n)
					}
					v = append(v, op[legacyOvHeader:legacyOvHeader+used]...)
					ov = int64(le.Uint64(op))
				}
				if int64(len(v)) != n {
					return nil, nil, corrupt("legacy overflow chain of %d bytes, want %d", len(v), n)
				}
				off += 8
			default:
				return nil, nil, corrupt("legacy leaf %d: flag %d, length %d at offset %d", id, flag, n, off)
			}
			keys, vals = append(keys, key), append(vals, v)
		}
		id = int64(le.Uint64(p[8:]))
	}
	if want := le.Uint64(b[24:]); uint64(len(keys)) != want {
		return nil, nil, corrupt("legacy leaf chain holds %d keys, page 0 records %d", len(keys), want)
	}
	return keys, vals, nil
}
