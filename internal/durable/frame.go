package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// The frame layout (all integers little-endian):
//
//	header:  magic[8] | version u32 | crc32c(magic+version) u32
//	chunk:   length u32 (> 0) | payload[length] | crc32c(payload) u32
//	footer:  0 u32 | payload bytes u64 | chunk count u64 |
//	         crc32c(all payload) u32 | end magic[8]
//
// The zero length doubles as the end-of-chunks sentinel, so a reader
// never confuses a truncated chunk with the footer: either the footer
// parses and its totals, stream CRC and end magic all match, or the
// frame is corrupt. Chunk payloads are individually CRC-guarded so a
// flipped bit is caught at the chunk that carries it, without reading
// the rest of the stream.
const (
	frameMagic = "RHSCdur1"
	endMagic   = "RHSCend1"

	// Version is the current frame format version.
	Version = 1

	// DefaultChunkSize is the writer's flush granularity.
	DefaultChunkSize = 64 << 10

	// maxChunkSize rejects absurd chunk lengths before allocating:
	// a corrupted length field must not drive a multi-GiB allocation.
	maxChunkSize = 1 << 30

	headerLen = 16
	footerLen = 4 + 8 + 8 + 4 + 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRCWords is the CRC32C of the words' IEEE-754 bit patterns, little
// endian. The reliable transport checks every frame with it, and it closes
// every leaf record set (package amr). On a little-endian host those bytes
// are the words' own memory, so the checksum runs over it in place: no
// staging copy and no allocation.
func CRCWords(data []float64) uint32 {
	if !littleEndian {
		var b [8]byte
		crc := uint32(0)
		for _, v := range data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			crc = crc32.Update(crc, castagnoli, b[:])
		}
		return crc
	}
	return crc32.Checksum(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 8*len(data)), castagnoli)
}

// littleEndian reports whether the host stores words as their
// little-endian bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Writer frames a stream onto an underlying io.Writer. Write buffers
// payload into chunks; Seal flushes the tail chunk and writes the
// footer. A frame that is not sealed is detectably incomplete — that
// is the crash-consistency property the commit protocol builds on.
type Writer struct {
	w          io.Writer
	pending    []byte
	headerDone bool
	chunks     uint64
	total      uint64
	stream     uint32
	sealed     bool
	scratch    [footerLen]byte
}

// NewWriter starts a frame on w. The header is written lazily with the
// first chunk so that a failed payload producer leaves no partial
// frame behind an empty file.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, pending: make([]byte, 0, DefaultChunkSize)}
}

// Write buffers p, flushing DefaultChunkSize chunks as they fill.
func (fw *Writer) Write(p []byte) (int, error) {
	if fw.sealed {
		return 0, fmt.Errorf("durable: write after Seal")
	}
	n := len(p)
	for len(p) > 0 {
		space := DefaultChunkSize - len(fw.pending)
		take := len(p)
		if take > space {
			take = space
		}
		fw.pending = append(fw.pending, p[:take]...)
		p = p[take:]
		if len(fw.pending) == DefaultChunkSize {
			if err := fw.flushChunk(); err != nil {
				return n - len(p), err
			}
		}
	}
	return n, nil
}

// writeHeader emits the frame header once.
func (fw *Writer) writeHeader() error {
	if fw.headerDone {
		return nil
	}
	var hdr [headerLen]byte
	copy(hdr[:8], frameMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(hdr[:12], castagnoli))
	if _, err := fw.w.Write(hdr[:]); err != nil {
		return err
	}
	fw.headerDone = true
	return nil
}

// flushChunk writes the pending payload as one guarded chunk.
func (fw *Writer) flushChunk() error {
	if len(fw.pending) == 0 {
		return nil
	}
	if err := fw.writeHeader(); err != nil {
		return err
	}
	b := fw.scratch[:8]
	binary.LittleEndian.PutUint32(b[:4], uint32(len(fw.pending)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(fw.pending, castagnoli))
	if _, err := fw.w.Write(b[:4]); err != nil {
		return err
	}
	if _, err := fw.w.Write(fw.pending); err != nil {
		return err
	}
	if _, err := fw.w.Write(b[4:8]); err != nil {
		return err
	}
	fw.stream = crc32.Update(fw.stream, castagnoli, fw.pending)
	fw.total += uint64(len(fw.pending))
	fw.chunks++
	fw.pending = fw.pending[:0]
	return nil
}

// Seal flushes the tail chunk and writes the footer. After Seal the
// frame is complete; further Writes fail. Seal does not sync or close
// the underlying writer — that is the commit protocol's job.
func (fw *Writer) Seal() error {
	if fw.sealed {
		return nil
	}
	if err := fw.flushChunk(); err != nil {
		return err
	}
	if err := fw.writeHeader(); err != nil {
		return err // empty payload: header + footer only
	}
	b := fw.scratch[:]
	binary.LittleEndian.PutUint32(b[0:4], 0)
	binary.LittleEndian.PutUint64(b[4:12], fw.total)
	binary.LittleEndian.PutUint64(b[12:20], fw.chunks)
	binary.LittleEndian.PutUint32(b[20:24], fw.stream)
	copy(b[24:32], endMagic)
	if _, err := fw.w.Write(b); err != nil {
		return err
	}
	fw.sealed = true
	return nil
}

// Reader unwraps and verifies a frame as it streams. Read serves
// payload bytes whose chunk CRC has already been checked; the footer
// is validated when the chunk sentinel is reached. Callers that must
// rule out truncation past their last read (every load path) call
// Verify after decoding.
type Reader struct {
	r      io.Reader
	buf    []byte // current verified chunk
	off    int
	chunks uint64
	total  uint64
	stream uint32
	done   bool // footer validated
	failed error
}

// NewReader validates the frame header of r and returns the verifying
// reader. A bad or truncated header is reported as corruption.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corrupt("durable: frame header", err)
	}
	if string(hdr[:8]) != frameMagic {
		return nil, corruptf("durable: frame header", "bad magic %q", hdr[:8])
	}
	if got, want := binary.LittleEndian.Uint32(hdr[12:16]), crc32.Checksum(hdr[:12], castagnoli); got != want {
		return nil, corruptf("durable: frame header", "header crc %08x, want %08x", got, want)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, corruptf("durable: frame header", "format version %d, reader speaks %d", v, Version)
	}
	return &Reader{r: r}, nil
}

// Read implements io.Reader over the verified payload.
func (fr *Reader) Read(p []byte) (int, error) {
	if fr.failed != nil {
		return 0, fr.failed
	}
	for fr.off == len(fr.buf) {
		if fr.done {
			return 0, io.EOF
		}
		if err := fr.nextChunk(); err != nil {
			fr.failed = err
			return 0, err
		}
		if fr.done {
			return 0, io.EOF
		}
	}
	n := copy(p, fr.buf[fr.off:])
	fr.off += n
	return n, nil
}

// nextChunk loads and verifies the next chunk, or validates the footer
// when the sentinel is reached.
func (fr *Reader) nextChunk() error {
	var lenb [4]byte
	if _, err := io.ReadFull(fr.r, lenb[:]); err != nil {
		return corrupt("durable: chunk length", err)
	}
	n := binary.LittleEndian.Uint32(lenb[:])
	if n == 0 {
		return fr.readFooter()
	}
	if n > maxChunkSize {
		return corruptf("durable: chunk length", "chunk of %d bytes exceeds limit", n)
	}
	// Grow in bounded steps: a corrupted length field must run the
	// stream dry and fail, not drive a giant up-front allocation.
	fr.buf = fr.buf[:0]
	fr.off = 0
	for remaining := int(n); remaining > 0; {
		step := remaining
		if step > 1<<20 {
			step = 1 << 20
		}
		start := len(fr.buf)
		fr.buf = append(fr.buf, make([]byte, step)...)
		if _, err := io.ReadFull(fr.r, fr.buf[start:]); err != nil {
			return corrupt("durable: chunk payload", err)
		}
		remaining -= step
	}
	var crcb [4]byte
	if _, err := io.ReadFull(fr.r, crcb[:]); err != nil {
		return corrupt("durable: chunk crc", err)
	}
	if got, want := binary.LittleEndian.Uint32(crcb[:]), crc32.Checksum(fr.buf, castagnoli); got != want {
		return corruptf("durable: chunk crc", "chunk %d crc %08x, want %08x", fr.chunks, got, want)
	}
	fr.stream = crc32.Update(fr.stream, castagnoli, fr.buf)
	fr.total += uint64(n)
	fr.chunks++
	return nil
}

// readFooter validates totals, stream CRC and the end magic, then
// requires the underlying stream to end: trailing bytes after a sealed
// footer mean the file is not the file that was committed.
func (fr *Reader) readFooter() error {
	var ftr [footerLen - 4]byte // sentinel already consumed
	if _, err := io.ReadFull(fr.r, ftr[:]); err != nil {
		return corrupt("durable: frame footer", err)
	}
	total := binary.LittleEndian.Uint64(ftr[0:8])
	chunks := binary.LittleEndian.Uint64(ftr[8:16])
	stream := binary.LittleEndian.Uint32(ftr[16:20])
	if string(ftr[20:28]) != endMagic {
		return corruptf("durable: frame footer", "bad end magic %q", ftr[20:28])
	}
	if total != fr.total || chunks != fr.chunks {
		return corruptf("durable: frame footer",
			"footer declares %d bytes in %d chunks, stream carried %d in %d",
			total, chunks, fr.total, fr.chunks)
	}
	if stream != fr.stream {
		return corruptf("durable: frame footer", "stream crc %08x, want %08x", fr.stream, stream)
	}
	var one [1]byte
	if n, _ := fr.r.Read(one[:]); n != 0 {
		return corruptf("durable: frame footer", "trailing data after sealed footer")
	}
	fr.done = true
	return nil
}

// Verify drains any unread payload and validates the footer. It is the
// mandatory last step of every load: a decoder that stopped early
// (gob reads exactly one value) has not yet proven the tail of the
// file exists. Idempotent once the footer has been validated.
func (fr *Reader) Verify() error {
	if fr.failed != nil {
		return fr.failed
	}
	var sink [4096]byte
	for !fr.done {
		if _, err := fr.Read(sink[:]); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
	}
	return nil
}

// PayloadBytes reports how many payload bytes have been verified so
// far (after Verify: the whole payload).
func (fr *Reader) PayloadBytes() uint64 { return fr.total }

// --- length-prefixed sections ------------------------------------------

// WriteSection writes one length-prefixed byte section into w. Callers
// that pack several logical payloads into one frame (the serve spool:
// job metadata + snapshot) delimit them with sections, so the whole
// record commits atomically as a single file.
func WriteSection(w io.Writer, b []byte) error {
	var lenb [8]byte
	binary.LittleEndian.PutUint64(lenb[:], uint64(len(b)))
	if _, err := w.Write(lenb[:]); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// ReadSection reads one section written by WriteSection. The length is
// sanity-capped: sections live inside verified frames, so an absurd
// length means a logic error, not bit rot — but it must not drive an
// absurd allocation either way.
func ReadSection(r io.Reader) ([]byte, error) {
	var lenb [8]byte
	if _, err := io.ReadFull(r, lenb[:]); err != nil {
		return nil, corrupt("durable: section length", err)
	}
	n := binary.LittleEndian.Uint64(lenb[:])
	if n > maxChunkSize {
		return nil, corruptf("durable: section length", "section of %d bytes exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, corrupt("durable: section payload", err)
	}
	return b, nil
}
