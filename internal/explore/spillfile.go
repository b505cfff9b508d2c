package explore

// Spill files: the on-disk building blocks of a spilled exploration. The BFS
// frontier, the outboxes, the parent log and the sharded visited set all
// serialize fixed-width records
// (8-byte little-endian state indices, 16-byte parent pairs) into append-only
// run files, written and read strictly sequentially. Every flush emits one
// self-describing chunk — magic, record count, CRC-32 of the payload — so a
// torn or truncated file is detected at read time and surfaces as a clean
// ErrSpillCorrupt instead of a silently wrong verdict. The frontier is
// double-buffered: the level being consumed streams from its finished run
// file while the next level appends to a fresh one, which is what bounds the
// frontier's resident bytes to the two in-RAM chunk buffers regardless of
// how wide a BFS level grows.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrSpillCorrupt reports a spill file that fails validation on read: a torn
// chunk header, a CRC mismatch, or fewer records than the writer recorded.
// The exploration that hits it fails with this error — it never continues on
// partial data, so a damaged spill can abort a run but cannot flip a verdict.
var ErrSpillCorrupt = errors.New("explore: corrupt spill file")

// spillChunkMagic marks the start of every flushed chunk.
const spillChunkMagic = 0x44435350 // "DCSP"

// spillHeaderSize is the framed-chunk header: magic, record count, CRC-32.
const spillHeaderSize = 12

// testCorruptFlush, when non-nil, mutates every flushed chunk payload before
// it reaches the file. Tests install it to simulate torn writes end to end;
// it is never set in production.
var testCorruptFlush func(payload []byte)

// runWriter appends fixed-width records to a spill run file through an
// in-RAM buffer of cap(buf) bytes, flushing one framed chunk whenever the
// buffer fills. The file is created lazily — a run that stays under the
// buffer never touches disk. A grow writer never flushes: its buffer grows
// instead, which is how an in-RAM exploration keeps a run.
type runWriter struct {
	dir     string
	name    string // file-name prefix for diagnostics
	f       *os.File
	buf     []byte // cap = flush threshold in bytes (multiple of recSize)
	recSize int
	grow    bool
	records int64 // records pushed, RAM and disk combined
	header  [spillHeaderSize]byte
}

func newRunWriter(dir, name string, recSize, bufBytes int) *runWriter {
	if bufBytes < recSize*spillMinBufRecords {
		bufBytes = recSize * spillMinBufRecords
	}
	bufBytes -= bufBytes % recSize
	return &runWriter{dir: dir, name: name, recSize: recSize, buf: make([]byte, 0, bufBytes)}
}

// spillMinBufRecords floors the in-RAM chunk buffer: below this, framing
// overhead and syscall counts dominate and the budget arithmetic of tiny
// test configurations would degenerate to one record per chunk.
const spillMinBufRecords = 64

// push appends one record (rec must be exactly recSize bytes), flushing a
// chunk when the buffer is full.
func (w *runWriter) push(rec []byte) error {
	if !w.grow && len(w.buf)+w.recSize > cap(w.buf) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.buf = append(w.buf, rec...)
	w.records++
	return nil
}

// flush writes the buffered records as one framed chunk and empties the
// buffer. An empty buffer is a no-op.
func (w *runWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	if w.f == nil {
		f, err := os.CreateTemp(w.dir, w.name+"-*.run")
		if err != nil {
			return fmt.Errorf("explore: create spill run: %w", err)
		}
		w.f = f
	}
	binary.LittleEndian.PutUint32(w.header[0:4], spillChunkMagic)
	binary.LittleEndian.PutUint32(w.header[4:8], uint32(len(w.buf)/w.recSize))
	binary.LittleEndian.PutUint32(w.header[8:12], crc32.ChecksumIEEE(w.buf))
	if testCorruptFlush != nil {
		// After the header: the tear hits data the checksum already covers,
		// exactly like a partial or bit-flipped write would.
		testCorruptFlush(w.buf)
	}
	if _, err := w.f.Write(w.header[:]); err != nil {
		return fmt.Errorf("explore: write spill chunk: %w", err)
	}
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("explore: write spill chunk: %w", err)
	}
	spillFrontierRuns.Add(1)
	spillBytes.Add(int64(spillHeaderSize + len(w.buf)))
	w.buf = w.buf[:0]
	return nil
}

// close releases the writer's file without deleting it (the reader side owns
// deletion). Safe on a writer that never spilled.
func (w *runWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// remove closes and deletes the run file, if one was created.
func (w *runWriter) remove() {
	if w.f == nil {
		return
	}
	path := w.f.Name()
	w.f.Close()
	w.f = nil
	os.Remove(path)
}

// reset removes the run file and empties the writer for reuse.
func (w *runWriter) reset() {
	w.remove()
	w.buf = w.buf[:0]
	w.records = 0
}

// runReader streams the records of a finished runWriter back in write order:
// first the framed chunks from disk, then the unflushed in-RAM tail. Every
// chunk is validated (magic, CRC, record alignment) and the total record
// count is checked against what the writer recorded, so truncation anywhere
// — mid-chunk or whole-chunks-lost — is detected.
type runReader struct {
	w        *runWriter
	br       *bufio.Reader
	fileRecs int64 // records expected from disk
	read     int64 // records yielded from disk so far
	chunk    []byte
	chunkOff int
	tailOff  int
	header   [spillHeaderSize]byte
}

// reader finalizes the writer for consumption and returns a reader over its
// records. The writer must not be pushed to afterwards.
func (w *runWriter) reader() (*runReader, error) {
	r := &runReader{w: w, fileRecs: w.records - int64(len(w.buf)/w.recSize)}
	if w.f != nil {
		if _, err := w.f.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("explore: rewind spill run: %w", err)
		}
		r.br = bufio.NewReaderSize(w.f, 1<<16)
	}
	return r, nil
}

// next yields the following record, or ok=false at a clean end of the run.
// The returned slice aliases an internal buffer valid until the next call.
func (r *runReader) next() (rec []byte, ok bool, err error) {
	for r.chunkOff >= len(r.chunk) {
		if r.br == nil || r.read >= r.fileRecs {
			// Disk exhausted; fall through to the in-RAM tail.
			if r.br != nil && r.read != r.fileRecs {
				return nil, false, fmt.Errorf("%w: %s: %d records on disk, writer recorded %d",
					ErrSpillCorrupt, r.name(), r.read, r.fileRecs)
			}
			buf := r.w.buf
			if r.tailOff+r.w.recSize <= len(buf) {
				rec := buf[r.tailOff : r.tailOff+r.w.recSize]
				r.tailOff += r.w.recSize
				return rec, true, nil
			}
			return nil, false, nil
		}
		if err := r.readChunk(); err != nil {
			return nil, false, err
		}
	}
	rec = r.chunk[r.chunkOff : r.chunkOff+r.w.recSize]
	r.chunkOff += r.w.recSize
	r.read++
	return rec, true, nil
}

// readChunk loads and validates the next framed chunk from disk.
func (r *runReader) readChunk() error {
	if _, err := io.ReadFull(r.br, r.header[:]); err != nil {
		return fmt.Errorf("%w: %s: torn chunk header: %v", ErrSpillCorrupt, r.name(), err)
	}
	if binary.LittleEndian.Uint32(r.header[0:4]) != spillChunkMagic {
		return fmt.Errorf("%w: %s: bad chunk magic", ErrSpillCorrupt, r.name())
	}
	n := int(binary.LittleEndian.Uint32(r.header[4:8]))
	if n <= 0 || int64(n) > r.fileRecs-r.read {
		return fmt.Errorf("%w: %s: chunk claims %d records with %d expected",
			ErrSpillCorrupt, r.name(), n, r.fileRecs-r.read)
	}
	want := binary.LittleEndian.Uint32(r.header[8:12])
	payload := n * r.w.recSize
	if cap(r.chunk) < payload {
		r.chunk = make([]byte, payload)
	}
	r.chunk = r.chunk[:payload]
	if _, err := io.ReadFull(r.br, r.chunk); err != nil {
		return fmt.Errorf("%w: %s: torn chunk payload: %v", ErrSpillCorrupt, r.name(), err)
	}
	if crc32.ChecksumIEEE(r.chunk) != want {
		return fmt.Errorf("%w: %s: chunk CRC mismatch", ErrSpillCorrupt, r.name())
	}
	r.chunkOff = 0
	return nil
}

func (r *runReader) name() string {
	if r.w.f != nil {
		return filepath.Base(r.w.f.Name())
	}
	return r.w.name
}

// frontierSide is one half of the double buffer: a run of state indices.
type frontierSide struct {
	w *runWriter
	r *runReader
}

// spillFrontier is the disk-backed FIFO frontier of a spilled exploration.
// Exactly two runs exist at a time: the level being consumed (read side)
// and the level being discovered (write side). Swap order preserves the
// in-RAM frontier's FIFO discovery order exactly: every record of level k
// is popped, in push order, before any record of level k+1.
type spillFrontier struct {
	read    frontierSide
	write   frontierSide
	rec     [8]byte
	pending int64 // records pushed and not yet popped
}

func newSpillFrontier(dir string, bufBytes int) *spillFrontier {
	f := &spillFrontier{}
	f.read.w = newRunWriter(dir, "frontier", 8, bufBytes)
	f.write.w = newRunWriter(dir, "frontier", 8, bufBytes)
	return f
}

// push appends idx to the level under construction.
func (f *spillFrontier) push(idx uint64) error {
	binary.LittleEndian.PutUint64(f.rec[:], idx)
	if err := f.write.w.push(f.rec[:]); err != nil {
		return err
	}
	f.pending++
	return nil
}

// pop yields the next index in FIFO order, swapping to the next level when
// the current one is exhausted; ok=false means the frontier is drained.
func (f *spillFrontier) pop() (idx uint64, ok bool, err error) {
	for {
		if f.read.r != nil {
			rec, ok, err := f.read.r.next()
			if err != nil {
				return 0, false, err
			}
			if ok {
				f.pending--
				return binary.LittleEndian.Uint64(rec), true, nil
			}
			// Level consumed: recycle its run file.
			f.read.w.reset()
			f.read.r = nil
		}
		if f.pending == 0 {
			return 0, false, nil
		}
		// Swap: the level under construction becomes the level to consume.
		f.read, f.write = f.write, f.read
		r, err := f.read.w.reader()
		if err != nil {
			return 0, false, err
		}
		f.read.r = r
	}
}

func (f *spillFrontier) queued() int64 { return f.pending }

// close releases and deletes both runs.
func (f *spillFrontier) close() {
	f.read.w.remove()
	f.write.w.remove()
}

// parentLog records the BFS tree of a deadlock hunt: one (child, parent)
// index pair per freshly discovered state, appended in discovery order.
// Because every child is discovered strictly after its parent, reading the
// log backwards reconstructs any root-to-witness chain in a single reverse
// pass. In RAM the log is one growing buffer; spilled, it is a run file read
// back with O(chunk) memory.
type parentLog struct {
	w   *runWriter
	rec [16]byte
}

func newParentLog(dir string, bufBytes int) *parentLog {
	return &parentLog{w: newRunWriter(dir, "parents", 16, bufBytes)}
}

func (l *parentLog) record(child, parent uint64) error {
	binary.LittleEndian.PutUint64(l.rec[0:8], child)
	binary.LittleEndian.PutUint64(l.rec[8:16], parent)
	return l.w.push(l.rec[:])
}

// chain returns the discovery path ending at leaf: the indices from a BFS
// root (a state with no recorded parent) to leaf inclusive, in forward
// order. It scans the log once, newest record first.
func (l *parentLog) chain(leaf uint64) ([]uint64, error) {
	rev := []uint64{leaf}
	want := leaf
	// The in-RAM tail, newest first.
	buf := l.w.buf
	for off := len(buf) - 16; off >= 0; off -= 16 {
		if binary.LittleEndian.Uint64(buf[off:off+8]) == want {
			want = binary.LittleEndian.Uint64(buf[off+8 : off+16])
			rev = append(rev, want)
		}
	}
	// Then the framed chunks, last chunk first, records within a chunk
	// newest first. Chunks are located by a forward validation scan (they
	// are variable-length), then visited in reverse.
	if l.w.f != nil {
		r, err := l.w.reader()
		if err != nil {
			return nil, err
		}
		type span struct{ off, recs int64 }
		var spans []span
		var fileOff int64
		for r.read < r.fileRecs {
			if err := r.readChunk(); err != nil {
				return nil, err
			}
			n := int64(len(r.chunk) / 16)
			spans = append(spans, span{off: fileOff, recs: n})
			fileOff += spillHeaderSize + int64(len(r.chunk))
			r.read += n
			r.chunkOff = len(r.chunk) // consumed by the span scan
		}
		chunk := make([]byte, 0)
		for i := len(spans) - 1; i >= 0; i-- {
			sz := spans[i].recs * 16
			if int64(cap(chunk)) < sz {
				chunk = make([]byte, sz)
			}
			chunk = chunk[:sz]
			if _, err := l.w.f.ReadAt(chunk, spans[i].off+spillHeaderSize); err != nil {
				return nil, fmt.Errorf("%w: parents: %v", ErrSpillCorrupt, err)
			}
			for off := len(chunk) - 16; off >= 0; off -= 16 {
				if binary.LittleEndian.Uint64(chunk[off:off+8]) == want {
					want = binary.LittleEndian.Uint64(chunk[off+8 : off+16])
					rev = append(rev, want)
				}
			}
		}
	}
	// rev runs witness→root; reverse into forward order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev, nil
}

func (l *parentLog) close() { l.w.remove() }
