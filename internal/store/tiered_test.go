package store

import (
	"fmt"
	"sync"
	"testing"
)

func openTiered(t *testing.T, dir string, mem Config) *Tiered {
	t.Helper()
	ts, err := OpenTiered(TieredConfig{Mem: mem, Log: LogConfig{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestTieredWarmRestart is the tentpole contract: everything written
// before Close is served after a reopen.
func TestTieredWarmRestart(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, Config{})
	ts.MergeBounds("g1", Bounds{LB: 3})
	ts.PutDecomposition("g1", testTree(4))
	ts.PutDecomposition("g2", testTree(2))
	ts.DropDecomposition("g2")
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ts = openTiered(t, dir, Config{})
	defer ts.Close()
	if b, ok := ts.Bounds("g1"); !ok || b.LB != 3 || b.UB != 4 {
		t.Fatalf("g1 bounds %+v ok=%v after restart", b, ok)
	}
	tr, ok := ts.Decomposition("g1")
	if !ok || tr.Width() != 4 {
		t.Fatalf("g1 tree after restart: ok=%v w=%d", ok, tr.Width())
	}
	// The read-back promoted g1 into the memory front: the next read
	// must be a memory hit, not another disk load.
	loads := ts.Stats().Disk.TreeLoads
	if _, ok := ts.Decomposition("g1"); !ok {
		t.Fatal("promoted tree lost")
	}
	if got := ts.Stats().Disk.TreeLoads; got != loads {
		t.Fatalf("second read hit disk (loads %d -> %d), promotion failed", loads, got)
	}
	// The drop survived the restart; g2's width-level fact did too.
	if _, ok := ts.Decomposition("g2"); ok {
		t.Fatal("dropped tree resurrected by restart")
	}
	if b, ok := ts.Bounds("g2"); !ok || b.UB != 2 {
		t.Fatalf("g2 bounds %+v ok=%v after restart", b, ok)
	}
}

// TestTieredEvictionFallsBackToDisk: the memory front evicts under
// LRU pressure, the disk tier does not — an evicted entry is still a
// hit.
func TestTieredEvictionFallsBackToDisk(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, Config{Shards: 1, MaxGraphs: 8})
	defer ts.Close()
	for i := 0; i < 40; i++ {
		hash := fmt.Sprintf("g%03d", i)
		ts.MergeBounds(hash, Bounds{LB: 2})
		ts.PutDecomposition(hash, testTree(i%4+2))
	}
	if ev := ts.Stats().Evictions; ev == 0 {
		t.Fatal("memory front never evicted; test is not exercising the fallback")
	}
	for i := 0; i < 40; i++ {
		hash := fmt.Sprintf("g%03d", i)
		if b, ok := ts.Bounds(hash); !ok || b.LB != 2 {
			t.Fatalf("%s bounds lost to eviction: %+v ok=%v", hash, b, ok)
		}
		if tr, ok := ts.Decomposition(hash); !ok || tr.Width() != i%4+2 {
			t.Fatalf("%s tree lost to eviction (ok=%v)", hash, ok)
		}
	}
	if ts.Stats().Disk.TreeLoads == 0 {
		t.Fatal("no disk read-backs; eviction fallback untested")
	}
}

// TestTieredSummariesFlushOnClose: memo tables are memory-only but
// their per-width summaries survive restarts via the flush-on-close.
func TestTieredSummariesFlushOnClose(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, Config{})
	ts.MergeBounds("g", Bounds{LB: 3})
	m, _ := ts.Memo("g", 2)
	m.Insert("dead-a")
	m.Insert("dead-b")
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}

	ts = openTiered(t, dir, Config{})
	defer ts.Close()
	infos := ts.Info(0)
	if len(infos) != 1 || infos[0].Hash != "g" {
		t.Fatalf("info after restart: %+v", infos)
	}
	found := false
	for _, ws := range infos[0].Memos {
		if ws.K == 2 && ws.States == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("memo summary lost across restart: %+v", infos[0].Memos)
	}
}

// TestTieredInfoMemoryOnlyTail: Info lists the disk index first
// (sorted by hash, live memo summaries overlaid from the memory front),
// then the memory-only entries the disk has no record for yet, in
// memory-front (most recently used first) order; max truncates across
// both parts.
func TestTieredInfoMemoryOnlyTail(t *testing.T) {
	ts := openTiered(t, t.TempDir(), Config{Shards: 1})
	defer ts.Close()
	ts.PutDecomposition("d2", testTree(3))
	ts.MergeBounds("d1", Bounds{LB: 2})
	m, _ := ts.Memo("d1", 2)
	m.Insert("dead-d1")
	// Memo tables alone append nothing to the log: m-a and m-b exist
	// only in the memory front (m-b most recently used).
	ma, _ := ts.Memo("m-a", 2)
	ma.Insert("dead-a")
	mb, _ := ts.Memo("m-b", 3)
	mb.Insert("dead-b1")
	mb.Insert("dead-b2")

	infos := ts.Info(0)
	var hashes []string
	for _, in := range infos {
		hashes = append(hashes, in.Hash)
	}
	if got, want := fmt.Sprint(hashes), "[d1 d2 m-b m-a]"; got != want {
		t.Fatalf("Info(0) order %s, want %s", got, want)
	}
	if in := infos[0]; in.Bounds.LB != 2 || len(in.Memos) != 1 || in.Memos[0] != (WidthSummary{K: 2, States: 1}) {
		t.Fatalf("d1 info %+v: want disk bounds with the live memo overlaid", in)
	}
	if in := infos[1]; !in.HasTree || in.TreeWidth != 3 || len(in.Memos) != 0 {
		t.Fatalf("d2 info %+v", in)
	}
	if in := infos[2]; in.Bounds.Known() || in.HasTree || len(in.Memos) != 1 || in.Memos[0] != (WidthSummary{K: 3, States: 2}) {
		t.Fatalf("memory-only m-b info %+v", in)
	}
	if in := infos[3]; len(in.Memos) != 1 || in.Memos[0] != (WidthSummary{K: 2, States: 1}) {
		t.Fatalf("memory-only m-a info %+v", in)
	}
	if got := ts.Info(3); len(got) != 3 || got[2].Hash != "m-b" {
		t.Fatalf("Info(3) = %+v, want d1 d2 m-b", got)
	}
}

func TestTieredPurge(t *testing.T) {
	dir := t.TempDir()
	ts := openTiered(t, dir, Config{})
	ts.MergeBounds("g", Bounds{LB: 3})
	ts.PutDecomposition("g", testTree(4))
	ts.Purge()
	if _, ok := ts.Bounds("g"); ok {
		t.Fatal("purge left bounds")
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	ts = openTiered(t, dir, Config{})
	defer ts.Close()
	if _, ok := ts.Bounds("g"); ok {
		t.Fatal("purged entry resurrected by restart")
	}
}

// TestTieredStats: the top level describes the memory front, Disk the
// log underneath.
func TestTieredStats(t *testing.T) {
	ts := openTiered(t, t.TempDir(), Config{})
	defer ts.Close()
	ts.MergeBounds("g", Bounds{LB: 3})
	ts.PutDecomposition("g", testTree(4))
	st := ts.Stats()
	if st.Disk == nil {
		t.Fatal("tiered stats must carry the disk tier")
	}
	if st.Disk.Entries != 1 || st.Disk.Trees != 1 || st.Disk.Appends == 0 {
		t.Fatalf("disk stats %+v", *st.Disk)
	}
	if st.Entries != 1 {
		t.Fatalf("mem stats %+v", st)
	}
}

func TestTieredConcurrency(t *testing.T) {
	ts := openTiered(t, t.TempDir(), Config{Shards: 2, MaxGraphs: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				hash := fmt.Sprintf("g%d", i%12)
				switch g % 4 {
				case 0:
					ts.MergeBounds(hash, Bounds{LB: i%4 + 2})
				case 1:
					ts.PutDecomposition(hash, testTree(i%5+2))
				case 2:
					ts.Bounds(hash)
					ts.Decomposition(hash)
				case 3:
					m, _ := ts.Memo(hash, i%3+2)
					m.Insert(fmt.Sprintf("k%d", i))
					if i%20 == 0 {
						ts.Sync()
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := ts.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}
