package pagefile

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"blobindex/internal/am"
	"blobindex/internal/geom"
)

// readResult is one ReadAt outcome in comparable form: n, the bytes read
// and the error's class — nil, bare io.EOF, or the *os.PathError's Op and
// cause, which is what (*os.File).ReadAt returns for every other failure.
type readResult struct {
	n     int
	data  []byte
	class string
}

func readAtResult(r io.ReaderAt, off int64, length int) readResult {
	b := make([]byte, length)
	n, err := r.ReadAt(b, off)
	res := readResult{n: n, data: b[:n]}
	var pe *os.PathError
	switch {
	case err == nil:
		res.class = "nil"
	case err == io.EOF:
		res.class = "EOF"
	case errors.As(err, &pe):
		res.class = pe.Op + ": " + pe.Err.Error()
	default:
		res.class = "other: " + err.Error()
	}
	return res
}

// openPair opens the same file as an *os.File and as a mappedFile.
func openPair(t testing.TB, path string) (*os.File, *mappedFile) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := mapFile(g)
	if err != nil {
		t.Fatal(err)
	}
	return f, m
}

func compareReadAt(t testing.TB, f *os.File, m *mappedFile, off int64, length int) {
	t.Helper()
	want, got := readAtResult(f, off, length), readAtResult(m, off, length)
	if got.n != want.n || got.class != want.class || !bytes.Equal(got.data, want.data) {
		t.Fatalf("ReadAt(len %d, off %d): mapped (n %d, %q), file (n %d, %q), bytes equal %v",
			length, off, got.n, got.class, want.n, want.class, bytes.Equal(got.data, want.data))
	}
}

// The mapped ReadAt returns what (*os.File).ReadAt returns on the same file:
// the same n, bytes and error class, at EOF, past it, for a negative offset
// and after Close.
func TestMappedReadAtMatchesFile(t *testing.T) {
	const pageSize = 4096
	size := int64(3*pageSize + 100)
	data := make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		off    int64
		length int
	}{
		{"offset 0", 0, pageSize},
		{"mid-file", 1000, 5000},
		{"last page", size - pageSize, pageSize},
		{"straddles EOF", size - 100, pageSize},
		{"at EOF", size, 10},
		{"past EOF", size + 1000, 10},
		{"empty at EOF", size, 0},
		{"negative offset", -1, 10},
	}
	open, openM := openPair(t, path)
	defer open.Close()
	defer openM.Close()
	closed, closedM := openPair(t, path)
	closed.Close()
	if err := closedM.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			compareReadAt(t, open, openM, c.off, c.length)
		})
		t.Run(c.name+" after Close", func(t *testing.T) {
			compareReadAt(t, closed, closedM, c.off, c.length)
		})
	}
	if err := closedM.Close(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("second Close: %v, want os.ErrClosed", err)
	}
}

// FuzzMappedReadAt compares the mapped ReadAt with (*os.File).ReadAt over
// random file contents, offsets and lengths.
func FuzzMappedReadAt(f *testing.F) {
	f.Add([]byte("blobindex"), int64(0), uint16(4))
	f.Add([]byte("blobindex"), int64(5), uint16(10))
	f.Add([]byte("blobindex"), int64(9), uint16(1))
	f.Add([]byte{}, int64(0), uint16(1))
	f.Add(bytes.Repeat([]byte{7}, 5000), int64(4090), uint16(4096))
	f.Add([]byte("x"), int64(-3), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, off int64, length uint16) {
		path := filepath.Join(t.TempDir(), "f")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		file, m := openPair(t, path)
		defer file.Close()
		defer m.Close()
		compareReadAt(t, file, m, off, int(length))
	})
}

// Readers racing Close either read the right bytes or get os.ErrClosed:
// none touches the mapping after it is unmapped (that would crash or, under
// the race detector, report).
func TestMappedReadAtRacesClose(t *testing.T) {
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(2)).Read(data)
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		_, m := openPair(t, path)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				buf := make([]byte, 4096)
				for i := 0; ; i++ {
					off := int64((w*7+i)%16) * 4096
					n, err := m.ReadAt(buf, off)
					if err != nil {
						if !errors.Is(err, os.ErrClosed) {
							t.Errorf("ReadAt: %v", err)
						}
						return
					}
					if n != len(buf) || !bytes.Equal(buf, data[off:off+4096]) {
						t.Errorf("ReadAt at %d read wrong bytes", off)
						return
					}
				}
			}(w)
		}
		close(start)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// A file truncated under its mapping faults on the pages it lost. The
// faults a mapping adds must surface as read errors — no crash, and not
// ErrTransient, so no retry: rereading a page the file no longer holds
// cannot succeed.
func TestTruncatedFilesFailReads(t *testing.T) {
	const pageSize = 4096 // the truncation lands on an OS page boundary
	checkFault := func(t *testing.T, err error, retries int64) {
		t.Helper()
		if err == nil {
			t.Fatal("read a page past the truncation without error")
		}
		if errors.Is(err, ErrTransient) || retries != 0 {
			t.Fatalf("a fault on a mapped page was retried (%d retries): %v", retries, err)
		}
		if !strings.Contains(err.Error(), "fault reading mapped page") {
			t.Fatalf("error does not name the mapping fault: %v", err)
		}
	}

	t.Run("sidecar", func(t *testing.T) {
		path, _, _, _ := sidecarFixture(t, 300, 31, 3, pageSize)
		s, err := OpenSidecar(path, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := os.Truncate(path, int64(1+s.h.metaPages)*pageSize); err != nil {
			t.Fatal(err)
		}
		slots := make([]uint32, s.Len())
		for i := range slots {
			slots[i] = uint32(i)
		}
		_, err = s.Visit(slots, func(int, []float64) {})
		checkFault(t, err, s.PoolStats().Retries)
	})

	t.Run("index", func(t *testing.T) {
		tree, _ := buildTree(t, am.KindXJB, 2500, 3, pageSize)
		path := filepath.Join(t.TempDir(), "trunc.idx")
		if err := Save(path, tree); err != nil {
			t.Fatal(err)
		}
		paged, store, err := OpenPaged(path, am.Options{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		store.EvictAll()
		if err := os.Truncate(path, pageSize); err != nil {
			t.Fatal(err)
		}
		_, err = paged.RangeSearch(geom.Vector{50, 50, 50}, 1e6, nil)
		checkFault(t, err, store.PoolStats().Retries)
	})
}
