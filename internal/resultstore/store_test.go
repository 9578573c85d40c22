package resultstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testKey(i int) Key {
	kh := NewKeyHasher("test")
	kh.Int("i", int64(i))
	return kh.Sum()
}

func testValue(i int) []byte {
	return []byte(fmt.Sprintf("value-%d-%s", i, string(make([]byte, i%7))))
}

func openT(t *testing.T, path string, opts Options) *Store {
	t.Helper()
	s, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func fill(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Put(testKey(i), testValue(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTripAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.store")
	s := openT(t, path, Options{Salt: 1})
	fill(t, s, 20)
	if got, ok := s.Get(testKey(7)); !ok || !bytes.Equal(got, testValue(7)) {
		t.Fatalf("get(7) = %q, %v", got, ok)
	}
	if _, ok := s.Get(testKey(99)); ok {
		t.Fatal("phantom key present")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openT(t, path, Options{Salt: 1})
	if r.Len() != 20 {
		t.Fatalf("reopened Len = %d, want 20", r.Len())
	}
	for i := 0; i < 20; i++ {
		got, ok := r.Get(testKey(i))
		if !ok || !bytes.Equal(got, testValue(i)) {
			t.Fatalf("reopened get(%d) = %q, %v", i, got, ok)
		}
	}
	if st := r.Stats(); st.Invalidated || st.TailDropped != 0 {
		t.Fatalf("clean reopen reported damage: %+v", st)
	}
}

func TestLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dup.store")
	s := openT(t, path, Options{Salt: 1})
	k := testKey(0)
	for i := 0; i < 5; i++ {
		if err := s.Put(k, []byte(fmt.Sprintf("gen-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	r := openT(t, path, Options{Salt: 1, NoAutoCompact: true})
	if got, _ := r.Get(k); string(got) != "gen-4" {
		t.Fatalf("got %q, want the last record", got)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d, want 1", r.Len())
	}
}

// TestRecovery is the table-driven robustness suite of DESIGN.md §14:
// each case damages the file after a clean run of Puts and states what
// must survive reopening.
func TestRecovery(t *testing.T) {
	const n = 10
	cases := []struct {
		name   string
		damage func(t *testing.T, path string)
		salt   uint64 // reopen salt (write salt is 1)
		surviving
	}{
		{
			name:      "clean",
			damage:    func(t *testing.T, path string) {},
			salt:      1,
			surviving: surviving{entries: n, intactPrefix: n},
		},
		{
			name: "truncated tail mid-frame",
			damage: func(t *testing.T, path string) {
				chop(t, path, 3) // cut 3 bytes off the last frame's checksum
			},
			salt:      1,
			surviving: surviving{entries: n - 1, intactPrefix: n - 1, tailDropped: true},
		},
		{
			name: "truncated inside length word",
			damage: func(t *testing.T, path string) {
				// Leave 2 bytes of the final frame: shorter than its
				// 4-byte length word.
				lastLen := frameSize(len(testValue(n - 1)))
				chop(t, path, int(lastLen)-2)
			},
			salt:      1,
			surviving: surviving{entries: n - 1, intactPrefix: n - 1, tailDropped: true},
		},
		{
			name: "garbage record body",
			damage: func(t *testing.T, path string) {
				// Flip bytes inside the second-to-last frame's value, so
				// its checksum fails and it plus everything after drops.
				end := fileLen(t, path)
				off := end - frameSize(len(testValue(n-1))) - frameFoot - 4
				patch(t, path, off, []byte{0xde, 0xad, 0xbe, 0xef})
			},
			salt:      1,
			surviving: surviving{entries: n - 2, intactPrefix: n - 2, tailDropped: true},
		},
		{
			name: "garbage length word",
			damage: func(t *testing.T, path string) {
				// Overwrite the first frame's length with an absurd size:
				// the whole record section drops, the header survives.
				patch(t, path, int64(headerSize), []byte{0xff, 0xff, 0xff, 0x7f})
			},
			salt:      1,
			surviving: surviving{entries: 0, intactPrefix: 0, tailDropped: true},
		},
		{
			name:   "version-salt bump invalidates",
			damage: func(t *testing.T, path string) {},
			salt:   2,
			surviving: surviving{
				entries: 0, intactPrefix: 0, invalidated: true,
			},
		},
		{
			name: "foreign file",
			damage: func(t *testing.T, path string) {
				if err := os.WriteFile(path, []byte("not a result store at all"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			salt:      1,
			surviving: surviving{entries: 0, intactPrefix: 0, invalidated: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "case.store")
			s := openT(t, path, Options{Salt: 1})
			fill(t, s, n)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, path)

			r := openT(t, path, Options{Salt: tc.salt, NoAutoCompact: true})
			if r.Len() != tc.entries {
				t.Fatalf("Len = %d, want %d", r.Len(), tc.entries)
			}
			for i := 0; i < tc.intactPrefix; i++ {
				got, ok := r.Get(testKey(i))
				if !ok || !bytes.Equal(got, testValue(i)) {
					t.Fatalf("entry %d lost or corrupted: %q, %v", i, got, ok)
				}
			}
			st := r.Stats()
			if st.Invalidated != tc.invalidated {
				t.Errorf("Invalidated = %v, want %v", st.Invalidated, tc.invalidated)
			}
			if tc.tailDropped && st.TailDropped == 0 {
				t.Error("expected dropped tail bytes to be reported")
			}
			// Whatever happened, the store must accept appends again and
			// persist them through another reopen.
			if err := r.Put(testKey(777), testValue(777)); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			rr := openT(t, path, Options{Salt: tc.salt, NoAutoCompact: true})
			if got, ok := rr.Get(testKey(777)); !ok || !bytes.Equal(got, testValue(777)) {
				t.Fatalf("post-recovery append lost: %q, %v", got, ok)
			}
			if st := rr.Stats(); st.Invalidated || st.TailDropped != 0 {
				t.Errorf("recovered file reopened dirty: %+v", st)
			}
		})
	}
}

// surviving states a recovery case's expectations.
type surviving struct {
	entries      int
	intactPrefix int
	tailDropped  bool
	invalidated  bool
}

func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func chop(t *testing.T, path string, n int) {
	t.Helper()
	if err := os.Truncate(path, fileLen(t, path)-int64(n)); err != nil {
		t.Fatal(err)
	}
}

func patch(t *testing.T, path string, off int64, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentWriters hammers one store from many goroutines (run
// under -race in verify.sh) and then reopens to prove every append
// survived intact.
func TestConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "conc.store")
	s := openT(t, path, Options{Salt: 1})
	const writers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := w*per + i
				if err := s.Put(testKey(id), testValue(id)); err != nil {
					t.Error(err)
					return
				}
				if v, ok := s.Get(testKey(id)); !ok || !bytes.Equal(v, testValue(id)) {
					t.Errorf("read-own-write failed for %d", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := openT(t, path, Options{Salt: 1})
	if r.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", r.Len(), writers*per)
	}
	for id := 0; id < writers*per; id++ {
		if v, ok := r.Get(testKey(id)); !ok || !bytes.Equal(v, testValue(id)) {
			t.Fatalf("entry %d lost after concurrent writes", id)
		}
	}
}

// TestTwoHandlesAppend simulates two processes appending to one file:
// both handles use O_APPEND single-write frames, so a fresh open sees
// the union.
func TestTwoHandlesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.store")
	a := openT(t, path, Options{Salt: 1, NoAutoCompact: true})
	b, err := Open(path, Options{Salt: 1, NoAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			a.Put(testKey(i), testValue(i))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 100; i < 140; i++ {
			b.Put(testKey(i), testValue(i))
		}
	}()
	wg.Wait()
	a.Close()
	b.Close()
	r := openT(t, path, Options{Salt: 1, NoAutoCompact: true})
	if r.Len() != 80 {
		t.Fatalf("union Len = %d, want 80", r.Len())
	}
}

func TestCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "compact.store")
	s := openT(t, path, Options{Salt: 1, NoAutoCompact: true})
	// Many generations of the same keys: all but the last are dead.
	for gen := 0; gen < 30; gen++ {
		for i := 0; i < 5; i++ {
			if err := s.Put(testKey(i), []byte(fmt.Sprintf("gen-%d-%d", gen, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := fileLen(t, path)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := fileLen(t, path)
	if after >= before {
		t.Fatalf("compaction did not shrink the file: %d -> %d", before, after)
	}
	for i := 0; i < 5; i++ {
		if got, _ := s.Get(testKey(i)); string(got) != fmt.Sprintf("gen-29-%d", i) {
			t.Fatalf("live entry %d lost by compaction: %q", i, got)
		}
	}
	// Appends after compaction land in the rewritten file.
	if err := s.Put(testKey(9), testValue(9)); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openT(t, path, Options{Salt: 1, NoAutoCompact: true})
	if r.Len() != 6 {
		t.Fatalf("Len after compaction+append = %d, want 6", r.Len())
	}
}

func TestKeyHasherFraming(t *testing.T) {
	// Field boundaries must matter: the same concatenated bytes split
	// differently must produce different keys.
	a := NewKeyHasher("d")
	a.String("x", "ab")
	a.String("y", "c")
	b := NewKeyHasher("d")
	b.String("x", "a")
	b.String("y", "bc")
	if a.Sum() == b.Sum() {
		t.Fatal("field framing is ambiguous")
	}
	c := NewKeyHasher("other")
	c.String("x", "ab")
	c.String("y", "c")
	if a.Sum() == c.Sum() {
		t.Fatal("domain separation missing")
	}
	d := NewKeyHasher("d")
	d.String("x", "ab")
	d.String("y", "c")
	if a.Sum() != d.Sum() {
		t.Fatal("hashing is not deterministic")
	}
	if _, err := ParseKey(a.Sum().String()); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderConstants(t *testing.T) {
	if len(magic) != 8 {
		t.Fatalf("magic must be 8 bytes, got %d", len(magic))
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(maxBody))
	if maxBody <= 0 {
		t.Fatal("maxBody must be positive")
	}
}
