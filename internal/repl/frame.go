// Package repl implements the hot-backup / replication protocol of a
// sharded rexptree index: a leader streams a crash-consistent snapshot
// of its shard files plus a logical record feed, and a follower
// maintains a read-only replica from them.
//
// The wire format reuses the write-ahead log's frame conventions
// (internal/wal): every frame is [len u32][crc32c u32][payload], both
// little-endian, with the CRC (Castagnoli) taken over the payload.
// The first payload byte is the frame kind; the rest is either JSON
// (the control frames) or raw bytes (page-file and WAL chunks, logical
// records).  A corrupt or truncated frame is always detectable: the
// CRC catches flipped bits, and both streams end in an explicit
// terminator frame, so a connection cut between frames cannot pass for
// a complete stream.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame kinds.  The backup stream is Meta, then per shard
// (ShardBegin, PageChunk..., WALChunk..., ShardEnd), then BackupEnd.
// The tail stream is TailMeta, Record..., TailEnd.
const (
	FrameMeta       = 0x01
	FrameShardBegin = 0x02
	FramePageChunk  = 0x03
	FrameWALChunk   = 0x04
	FrameShardEnd   = 0x05
	FrameBackupEnd  = 0x06

	FrameTailMeta = 0x10
	FrameRecord   = 0x11
	FrameTailEnd  = 0x12
)

const (
	frameHdrSize = 8

	// ChunkSize is how many page-file or WAL bytes one chunk frame
	// carries; maxFramePayload bounds any frame a reader will accept
	// (kind byte included), protecting it from a corrupt length.
	ChunkSize       = 256 << 10
	maxFramePayload = ChunkSize + 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptFrame reports a frame whose checksum does not match its
// bytes: the stream is damaged and must not be applied further.
var ErrCorruptFrame = errors.New("repl: corrupt frame (crc mismatch)")

// ErrTruncated reports a stream that ended mid-frame or without its
// terminator frame.
var ErrTruncated = errors.New("repl: truncated stream")

// FrameWriter frames payloads onto w.  It buffers nothing beyond one
// frame header; callers stream large payloads as multiple chunks.
type FrameWriter struct {
	w   io.Writer
	hdr [frameHdrSize + 1]byte // header plus the kind byte
}

// NewFrameWriter returns a writer framing onto w.
func NewFrameWriter(w io.Writer) *FrameWriter { return &FrameWriter{w: w} }

// WriteFrame writes one frame: the kind byte followed by body, with
// the length/CRC header in front.
func (fw *FrameWriter) WriteFrame(kind byte, body []byte) error {
	n := 1 + len(body)
	if n > maxFramePayload {
		return fmt.Errorf("repl: frame payload %d bytes exceeds the %d-byte bound", n, maxFramePayload)
	}
	fw.hdr[frameHdrSize] = kind
	crc := crc32.Update(crc32.Checksum(fw.hdr[frameHdrSize:], castagnoli), castagnoli, body)
	binary.LittleEndian.PutUint32(fw.hdr[0:], uint32(n))
	binary.LittleEndian.PutUint32(fw.hdr[4:], crc)
	if _, err := fw.w.Write(fw.hdr[:]); err != nil {
		return err
	}
	if len(body) == 0 {
		return nil
	}
	_, err := fw.w.Write(body)
	return err
}

// FrameReader reads frames from r, verifying each checksum.
type FrameReader struct {
	r   *bufio.Reader
	buf []byte
}

// NewFrameReader returns a reader over r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Reset makes fr read from r, keeping its buffers.
func (fr *FrameReader) Reset(r io.Reader) { fr.r.Reset(r) }

// ReadFrame returns the next frame's kind and body.  The body aliases
// an internal buffer valid until the next call.  io.EOF is returned
// only at a clean frame boundary; a stream cut mid-frame returns
// ErrTruncated, and a checksum mismatch returns ErrCorruptFrame.
func (fr *FrameReader) ReadFrame() (kind byte, body []byte, err error) {
	var hdr [frameHdrSize]byte
	if _, err := io.ReadFull(fr.r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if _, err := io.ReadFull(fr.r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame length %d out of range", ErrCorruptFrame, n)
	}
	if cap(fr.buf) < int(n) {
		fr.buf = make([]byte, n)
	}
	fr.buf = fr.buf[:n]
	if _, err := io.ReadFull(fr.r, fr.buf); err != nil {
		return 0, nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if crc32.Checksum(fr.buf, castagnoli) != crc {
		return 0, nil, ErrCorruptFrame
	}
	return fr.buf[0], fr.buf[1:], nil
}

// Record frames carry [lsn u64][off u64][wal-encoded payload]: the
// record's log sequence number, the feed's cumulative byte offset
// after it, and the logical record exactly as internal/wal encodes it.
const recordHdrSize = 16

// EncodeRecordFrame builds a Record frame body in dst.
func EncodeRecordFrame(dst []byte, lsn, off uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst[:0], lsn)
	dst = binary.LittleEndian.AppendUint64(dst, off)
	return append(dst, payload...)
}

// DecodeRecordFrame splits a Record frame body.
func DecodeRecordFrame(body []byte) (lsn, off uint64, payload []byte, err error) {
	if len(body) < recordHdrSize+1 {
		return 0, 0, nil, fmt.Errorf("repl: record frame is %d bytes, want > %d", len(body), recordHdrSize)
	}
	lsn = binary.LittleEndian.Uint64(body)
	off = binary.LittleEndian.Uint64(body[8:])
	return lsn, off, body[recordHdrSize:], nil
}
