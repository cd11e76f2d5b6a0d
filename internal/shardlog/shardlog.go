// Package shardlog is the on-disk form the session journal and the run
// cache share: a directory of append-only JSONL shard files, keys spread
// over them by ShardOf, one record per line. Each line is an envelope
//
//	{"crc":4118059357,"rec":{"sid":"s-000001","seq":0,"kind":"create",...}}
//
// where crc is the IEEE CRC-32 of the exact rec bytes, so silent disk
// corruption becomes a detected, reported skip instead of a wrong value.
// The damaged or truncated end of a file — the torn tail a killed writer
// leaves — is cut off when the file is scanned for repair; damage before
// the last good line is reported and skipped.
package shardlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"strconv"
	"sync"
)

// ShardOf maps a key onto one of n shards (FNV-32a).
func ShardOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// AppendLine appends rec's shard line, {"crc":N,"rec":<payload>} and a
// newline, to buf. json.Marshal's payload is already compact and
// HTML-escaped, so the envelope is written around it directly:
// marshaling the envelope would re-scan the payload into the same bytes.
func AppendLine(buf []byte, rec any) ([]byte, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return buf, fmt.Errorf("shardlog: marshaling record: %w", err)
	}
	buf = append(buf, `{"crc":`...)
	buf = strconv.AppendUint(buf, uint64(crc32.ChecksumIEEE(payload)), 10)
	buf = append(buf, `,"rec":`...)
	buf = append(buf, payload...)
	return append(buf, '}', '\n'), nil
}

// Decode parses and checksum-verifies one shard line and returns the
// record bytes it carries.
func Decode(line []byte) ([]byte, error) {
	var env struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("shardlog: undecodable line: %w", err)
	}
	if len(env.Rec) == 0 {
		return nil, errors.New("shardlog: line has no record")
	}
	if got := crc32.ChecksumIEEE(env.Rec); got != env.CRC {
		return nil, fmt.Errorf("shardlog: crc mismatch: line says %d, record hashes to %d", env.CRC, got)
	}
	return env.Rec, nil
}

// File is one shard file's append handle, opened on the first Append.
// The caller sets Path before that and holds the mutex around Append
// and Close, so a check made under the lock (the journal's lease fence)
// and the write it guards are one step.
type File struct {
	sync.Mutex
	Path string
	f    *os.File
}

// Append writes buf to the shard file with one write, creating the file
// if needed, and fsyncs it when durable is set.
func (f *File) Append(buf []byte, durable bool) error {
	if f.f == nil {
		h, err := os.OpenFile(f.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("shardlog: opening %s: %w", f.Path, err)
		}
		f.f = h
	}
	if _, err := f.f.Write(buf); err != nil {
		return fmt.Errorf("shardlog: appending to %s: %w", f.Path, err)
	}
	if durable {
		if err := f.f.Sync(); err != nil {
			return fmt.Errorf("shardlog: syncing %s: %w", f.Path, err)
		}
	}
	return nil
}

// Close closes the handle, if open; the next Append reopens the file.
func (f *File) Close() error {
	if f.f == nil {
		return nil
	}
	err := f.f.Close()
	f.f = nil
	return err
}

// CloseAll closes every handle under its mutex and returns the first
// error.
func CloseAll(files []File) error {
	var first error
	for i := range files {
		files[i].Lock()
		if err := files[i].Close(); err != nil && first == nil {
			first = err
		}
		files[i].Unlock()
	}
	return first
}

// BadLine is a line a scan could not use: its 1-based number and why.
type BadLine struct {
	No  int
	Err error
}

// ScanReader reads shard lines from r and hands each line's
// checksum-verified record bytes to use; it only reads. A line whose
// envelope fails, or that use rejects, is bad. Bad lines before the last
// good one are mid-file damage, skipped and returned in mid. The bad
// lines after it are the torn tail, returned in tail. goodEnd is the
// byte offset just past the last good line, and torn reports that line
// lacks its newline: what a repair cuts back to and what it restores. A
// read error is r's, returned as it is.
func ScanReader(r io.Reader, use func(rec []byte) error) (mid, tail []BadLine, goodEnd int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var offset int64 // byte offset just past the line being read
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		if len(line) == 0 && rerr == io.EOF {
			return mid, tail, goodEnd, torn, nil
		}
		if rerr != nil && rerr != io.EOF {
			return nil, nil, 0, false, rerr
		}
		offset += int64(len(line))
		// The terminator goes, and a CR with it, for shards that crossed
		// a Windows filesystem.
		rec, derr := Decode(bytes.TrimRight(line, "\r\n"))
		if derr == nil {
			derr = use(rec)
		}
		if derr != nil {
			tail = append(tail, BadLine{No: lineNo, Err: derr})
			continue
		}
		// A later good line proves the damage collected so far is
		// mid-file, not a tail.
		mid = append(mid, tail...)
		tail = tail[:0]
		goodEnd, torn = offset, rerr == io.EOF
	}
}

// Scan is ScanReader over the shard file at path (a missing file is
// empty). With repair set, Scan cuts the whole torn tail off at once, so
// a rescan finds none, and gives an intact last line back the newline a
// crash took, so the next append starts on a fresh line; with repair off
// it only reads. warnf hears of the tail and of a repair that failed.
func Scan(path string, repair bool, warnf func(format string, args ...any), use func(rec []byte) error) (mid, tail []BadLine, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("shardlog: opening %s: %w", path, err)
	}
	defer f.Close()
	mid, tail, goodEnd, torn, err := ScanReader(f, use)
	if err != nil {
		return nil, nil, fmt.Errorf("shardlog: reading %s: %w", path, err)
	}
	switch {
	case len(tail) > 0:
		if repair {
			if terr := os.Truncate(path, goodEnd); terr != nil {
				warnf("%s: could not truncate torn tail: %v", path, terr)
			}
		}
		warnf("%s: %d-line torn tail (first: line %d, %v)", path, len(tail), tail[0].No, tail[0].Err)
	case torn && repair:
		nl := File{Path: path}
		werr := nl.Append([]byte{'\n'}, false)
		if cerr := nl.Close(); werr != nil || cerr != nil {
			warnf("%s: could not repair missing final newline: %v/%v", path, werr, cerr)
		}
	}
	return mid, tail, nil
}
