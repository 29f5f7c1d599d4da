package pagefile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"sync/atomic"
	"syscall"
)

// mappedFile is the faultio.File both demand-paged stores read pages
// through: a read-only mapping of the whole file, whose ReadAt is a copy
// instead of a pread and returns what (*os.File).ReadAt returns. Pagefiles
// are replaced by rename, never rewritten in place; a file truncated under
// the mapping anyway faults (SIGBUS) on the pages it lost, and ReadAt turns
// that fault into an error. state counts the reads in flight, plus
// closedBit once Close has run; whichever of them leaves it at exactly
// closedBit unmaps — the one atomic acquire and release per read an
// *os.File makes on its descriptor.
type mappedFile struct {
	name  string
	data  []byte
	state atomic.Int64
}

const closedBit = 1 << 62

// mapFile maps f read-only and closes it: the mapping needs no descriptor.
func mapFile(f *os.File) (*mappedFile, error) {
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m := &mappedFile{name: f.Name()}
	if st.Size() > 0 { // an empty mapping is an error; an empty file reads EOF
		if m.data, err = syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED); err != nil {
			return nil, &os.PathError{Op: "mmap", Path: m.name, Err: err}
		}
	}
	return m, nil
}

// ReadAt copies len(b) bytes from offset off, as (*os.File).ReadAt reads them.
func (m *mappedFile) ReadAt(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, &os.PathError{Op: "readat", Path: m.name, Err: errors.New("negative offset")}
	}
	if len(b) == 0 {
		return 0, nil
	}
	v := m.state.Load()
	for v&closedBit == 0 && !m.state.CompareAndSwap(v, v+1) {
		v = m.state.Load()
	}
	if v&closedBit != 0 {
		return 0, &os.PathError{Op: "read", Path: m.name, Err: os.ErrClosed}
	}
	defer m.release()
	if off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n, err := m.copyAt(b, off)
	if err == nil && n < len(b) {
		err = io.EOF
	}
	return n, err
}

// copyAt copies out of the mapping, turning a memory fault on a mapped page
// into an error. Any other panic is not the mapping's and propagates.
func (m *mappedFile) copyAt(b []byte, off int64) (n int, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault { // a runtime memory fault
				panic(r)
			}
			n, err = 0, fmt.Errorf("pagefile: %s: fault reading mapped page at offset %d (file truncated?)", m.name, off)
		}
	}()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	return copy(b, m.data[off:]), nil
}

// release ends one read; the last read after Close unmaps.
func (m *mappedFile) release() {
	if m.state.Add(-1) == closedBit {
		_ = m.unmap() // Close has returned; the read itself succeeded
	}
}

// Close unmaps the file once no read is in flight. A second Close returns
// an error, like (*os.File).Close.
func (m *mappedFile) Close() error {
	old := m.state.Or(closedBit)
	if old&closedBit != 0 {
		return &os.PathError{Op: "close", Path: m.name, Err: os.ErrClosed}
	}
	if old == 0 {
		return m.unmap()
	}
	return nil
}

func (m *mappedFile) unmap() error {
	if m.data == nil {
		return nil
	}
	return syscall.Munmap(m.data)
}
