package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/decomp"
	"repro/internal/hypergraph"
)

// seedSegment writes a few records of every kind through a real Log
// and returns the bytes of its only segment.
func seedSegment(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	l, err := OpenLog(LogConfig{Dir: dir})
	if err != nil {
		f.Fatal(err)
	}
	l.MergeBounds("g1", Bounds{LB: 2})
	l.PutTree("g1", testTree(2))
	l.MergeRefuted("g1", []WidthSummary{{K: 1, States: 3}})
	l.PutTree("g2", testTree(3))
	l.DropTree("g2")
	l.PutTree("g3", testTree(1))
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// frame wraps payload in one valid log frame (length + CRC-32C), so
// fuzzed payloads reach the record decoder instead of stopping at the
// checksum.
func frame(payload []byte) []byte {
	buf := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, crcTable))
	copy(buf[frameHeader:], payload)
	return buf
}

// FuzzLogReplay is the fuzz wall of the one persistence decoder: any
// bytes at all, written as the only segment of a log directory, go
// through OpenLog's replay — once raw (framing, torn tails, bit rot)
// and once wrapped in a valid frame (the record decoder behind the
// checksum). OpenLog must never panic or fail on the content, the
// prefix it keeps must be stable (a second reopen truncates nothing
// further and indexes the same hashes), and every tree it serves must
// either Bind to a hypergraph — and then survive the CheckHD
// re-validation a cache hit runs — or return an error.
func FuzzLogReplay(f *testing.F) {
	seg := seedSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)-5]) // torn tail
	flipped := append([]byte(nil), seg...)
	flipped[frameHeader+10] ^= 0x40 // bit flip inside the first frame
	f.Add(flipped)
	f.Add([]byte(`{"t":"t","h":"g","tree":{"lambda":[0,1],"bag":[0,1,2],"children":[{"lambda":[2],"bag":[2,3]}]}}`))

	h := cycle(4)
	f.Fuzz(func(t *testing.T, data []byte) {
		replayTwice(t, data, h)
		replayTwice(t, frame(data), h)
	})
}

// replayTwice writes seg as the only segment of a fresh log directory,
// opens it, serves every indexed tree, and reopens it.
func replayTwice(t *testing.T, seg []byte, h *hypergraph.Hypergraph) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := LogConfig{Dir: dir, CompactRatio: -1}
	l, err := OpenLog(cfg)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	hashes := l.Hashes()
	for _, hash := range hashes {
		tr, ok, err := l.Tree(hash)
		if !ok {
			continue
		}
		if err != nil {
			t.Fatalf("%s: served a tree with error %v", hash, err)
		}
		if d, err := tr.Bind(h); err == nil {
			decomp.CheckHD(d)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l, err = OpenLog(cfg)
	if err != nil {
		t.Fatalf("second OpenLog: %v", err)
	}
	defer l.Close()
	if n := l.Stats().TruncatedTail; n != 0 {
		t.Fatalf("second open truncated %d more bytes", n)
	}
	if again := l.Hashes(); !reflect.DeepEqual(again, hashes) {
		t.Fatalf("second open indexes %q, first indexed %q", again, hashes)
	}
}
