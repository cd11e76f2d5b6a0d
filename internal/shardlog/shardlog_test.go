package shardlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type entry struct {
	Key   string  `json:"k"`
	Value float64 `json:"v"`
	Note  string  `json:"note,omitempty"`
}

// encode renders entries as consecutive shard lines, noting where each
// line starts and where its newline sits.
func encode(t *testing.T, entries ...entry) (data []byte, starts, ends []int) {
	t.Helper()
	for _, e := range entries {
		starts = append(starts, len(data))
		var err error
		if data, err = AppendLine(data, e); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(data)-1)
	}
	return data, starts, ends
}

// scanned is what one Scan reported.
type scanned struct {
	keys      []string
	mid, tail []BadLine
	warnings  []string
}

func scan(t *testing.T, path string, repair bool) scanned {
	t.Helper()
	var s scanned
	warnf := func(format string, args ...any) { s.warnings = append(s.warnings, fmt.Sprintf(format, args...)) }
	var err error
	s.mid, s.tail, err = Scan(path, repair, warnf, func(rec []byte) error {
		var e entry
		if err := json.Unmarshal(rec, &e); err != nil {
			return err
		}
		if e.Key == "" {
			return fmt.Errorf("entry has no key")
		}
		s.keys = append(s.keys, e.Key)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return s
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestAppendLineMatchesEnvelopeMarshal: the line writer produces the
// bytes json.Marshal of the envelope struct does, HTML-sensitive
// characters included, and Decode hands back the exact record bytes.
func TestAppendLineMatchesEnvelopeMarshal(t *testing.T) {
	type envelope struct {
		CRC uint32          `json:"crc"`
		Rec json.RawMessage `json:"rec"`
	}
	for _, e := range []entry{
		{Key: "a", Value: 1.25},
		{Key: "<als> & <pagerank>", Value: -3e-9, Note: "spot <reclaimed> & lost"},
		{Key: "", Value: 0},
	} {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(envelope{CRC: crc32.ChecksumIEEE(payload), Rec: payload})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		got, err := AppendLine([]byte("prefix"), e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("line for %+v:\n got %s\nwant %s", e, got, want)
		}
		rec, err := Decode(want[:len(want)-1])
		if err != nil || !bytes.Equal(rec, payload) {
			t.Errorf("Decode = %s, %v; want %s", rec, err, payload)
		}
	}
	if _, err := AppendLine(nil, map[string]float64{"nan": nan()}); err == nil {
		t.Error("AppendLine accepted an unmarshalable record")
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

// TestDecodeRejectsDamage: a line whose envelope does not parse, carries
// no record or fails its checksum is refused.
func TestDecodeRejectsDamage(t *testing.T) {
	line, _, _ := encode(t, entry{Key: "a", Value: 1.25})
	line = line[:len(line)-1]
	for name, bad := range map[string][]byte{
		"garbage":     []byte("not json"),
		"empty":       nil,
		"no record":   []byte(`{"crc":0}`),
		"null record": []byte(`{"crc":0,"rec":null}`),
		"old format":  []byte(`{"k":"a","s":"v1","v":1.25}`),
		"flipped":     bytes.Replace(line, []byte("1.25"), []byte("1.75"), 1),
		"torn":        line[:len(line)-3],
	} {
		if rec, err := Decode(bad); err == nil {
			t.Errorf("%s line %q decoded to %s", name, bad, rec)
		}
	}
}

// TestScanTornAtEveryOffset: a write torn at any byte leaves a file from
// which a repairing Scan takes exactly the lines that were whole before
// the tear, reports one torn tail when the tear falls inside a line and
// cuts it off, and gives a line that lost only its newline the newline
// back. A rescan then reports nothing and changes no byte.
func TestScanTornAtEveryOffset(t *testing.T) {
	data, starts, ends := encode(t, entry{Key: "a", Value: 1}, entry{Key: "b", Value: 2.5}, entry{Key: "c", Value: -3})
	path := filepath.Join(t.TempDir(), "shard-00.jsonl")
	for cut := 0; cut <= len(data); cut++ {
		writeFile(t, path, data[:cut])
		whole, torn := 0, 0
		for k := range starts {
			switch {
			case cut >= ends[k]:
				whole++
			case cut > starts[k]:
				torn = 1
			}
		}
		s := scan(t, path, true)
		if len(s.keys) != whole || len(s.tail) != torn || len(s.mid) != 0 {
			t.Fatalf("cut %d: %d good lines, tail %v, mid %v; want %d good, %d torn, no mid-file damage",
				cut, len(s.keys), s.tail, s.mid, whole, torn)
		}
		size := 0
		if whole > 0 {
			size = ends[whole-1] + 1
		}
		repaired := readFile(t, path)
		if !bytes.Equal(repaired, data[:size]) {
			t.Fatalf("cut %d: repaired file is %q, want %q", cut, repaired, data[:size])
		}
		again := scan(t, path, true)
		if len(again.keys) != whole || len(again.tail) != 0 || len(again.warnings) != 0 || !bytes.Equal(readFile(t, path), repaired) {
			t.Fatalf("cut %d: rescan found %d lines, tail %v, warnings %v, or changed the file", cut, len(again.keys), again.tail, again.warnings)
		}
	}
}

// TestScanRestoresLostNewline: an intact last line without its newline
// is good, and a repairing Scan appends the newline so the next append
// starts on a fresh line.
func TestScanRestoresLostNewline(t *testing.T) {
	data, _, _ := encode(t, entry{Key: "a", Value: 1}, entry{Key: "b", Value: 2})
	path := filepath.Join(t.TempDir(), "shard-00.jsonl")
	writeFile(t, path, data[:len(data)-1])
	s := scan(t, path, true)
	if len(s.keys) != 2 || len(s.tail) != 0 || len(s.warnings) != 0 {
		t.Fatalf("scan = %+v, want both lines good and nothing reported", s)
	}
	if got := readFile(t, path); !bytes.Equal(got, data) {
		t.Fatalf("file is %q, want the newline restored: %q", got, data)
	}
	f := File{Path: path}
	more, _, _ := encode(t, entry{Key: "c", Value: 3})
	if err := f.Append(more, false); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if s := scan(t, path, true); strings.Join(s.keys, ",") != "a,b,c" || len(s.mid)+len(s.tail) != 0 {
		t.Fatalf("after an append: %+v, want a,b,c and no damage", s)
	}
}

// TestScanMidFileDamage: bad lines followed by a good one are mid-file
// damage, reported with their line numbers and skipped, never cut, even
// when repairing; the lines around them still load. A line whose
// envelope is intact but whose record the caller rejects is bad too.
func TestScanMidFileDamage(t *testing.T) {
	good, _, _ := encode(t, entry{Key: "a", Value: 1.25})
	flipped := bytes.Replace(good, []byte("1.25"), []byte("1.75"), 1)
	rejected, _, _ := encode(t, entry{Key: "", Value: 1})
	last, _, _ := encode(t, entry{Key: "d", Value: 4})
	var data []byte
	for _, part := range [][]byte{good, []byte("garbage\n"), flipped, rejected, []byte("\n"), last} {
		data = append(data, part...)
	}
	path := filepath.Join(t.TempDir(), "shard-00.jsonl")
	writeFile(t, path, data)
	s := scan(t, path, true)
	if strings.Join(s.keys, ",") != "a,d" || len(s.tail) != 0 || len(s.warnings) != 0 {
		t.Fatalf("scan = %+v, want a and d good, no tail, no warnings", s)
	}
	var lines []int
	for _, b := range s.mid {
		lines = append(lines, b.No)
	}
	if fmt.Sprint(lines) != "[2 3 4 5]" {
		t.Fatalf("mid-file damage on lines %v, want [2 3 4 5]", lines)
	}
	if !strings.Contains(s.mid[1].Err.Error(), "crc mismatch") {
		t.Errorf("flipped digit reported as %v, want a crc mismatch", s.mid[1].Err)
	}
	if got := readFile(t, path); !bytes.Equal(got, data) {
		t.Fatal("a repairing scan changed a file with only mid-file damage")
	}
}

// TestScanRepairOffOnlyReads: with repair off a torn tail and a lost
// final newline are reported as they are found, and the file stays
// byte-identical; a missing file is empty.
func TestScanRepairOffOnlyReads(t *testing.T) {
	data, _, _ := encode(t, entry{Key: "a", Value: 1}, entry{Key: "b", Value: 2})
	path := filepath.Join(t.TempDir(), "shard-00.jsonl")
	for name, content := range map[string][]byte{
		"torn tail":    append(append([]byte(nil), data...), data[:10]...),
		"long tail":    append(append([]byte(nil), data...), "x\ny\nz"...),
		"lost newline": data[:len(data)-1],
		"mid damage":   append([]byte("garbage\n"), data...),
	} {
		writeFile(t, path, content)
		s := scan(t, path, false)
		if len(s.keys) != 2 {
			t.Errorf("%s: %d good lines, want 2", name, len(s.keys))
		}
		if strings.HasSuffix(name, "tail") && (len(s.tail) == 0 || len(s.warnings) != 1) {
			t.Errorf("%s: tail %v, warnings %v; want the tail reported once", name, s.tail, s.warnings)
		}
		if got := readFile(t, path); !bytes.Equal(got, content) {
			t.Errorf("%s: a read-only scan changed the file to %q", name, got)
		}
	}
	s := scan(t, filepath.Join(t.TempDir(), "missing.jsonl"), true)
	if len(s.keys)+len(s.mid)+len(s.tail)+len(s.warnings) != 0 {
		t.Fatalf("missing file scanned as %+v, want empty", s)
	}
}

// TestFileAppend: Append creates the file on first use and writes each
// buffer whole, with and without fsync; Close drops the handle and the
// next Append reopens the file where it ends.
func TestFileAppend(t *testing.T) {
	for _, durable := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "shard-00.jsonl")
		a, _, _ := encode(t, entry{Key: "a", Value: 1}, entry{Key: "b", Value: 2})
		c, _, _ := encode(t, entry{Key: "c", Value: 3})
		files := make([]File, 2)
		files[0].Path = path
		if err := files[0].Append(a, durable); err != nil {
			t.Fatal(err)
		}
		if err := files[0].Close(); err != nil {
			t.Fatal(err)
		}
		if err := files[0].Append(c, durable); err != nil {
			t.Fatal(err)
		}
		if err := CloseAll(files); err != nil {
			t.Fatal(err)
		}
		if got := readFile(t, path); !bytes.Equal(got, append(a, c...)) {
			t.Fatalf("durable=%v: file is %q, want %q", durable, got, append(a, c...))
		}
		if s := scan(t, path, true); strings.Join(s.keys, ",") != "a,b,c" {
			t.Fatalf("durable=%v: scanned %v, want a,b,c", durable, s.keys)
		}
	}
	f := File{Path: filepath.Join(t.TempDir(), "missing", "shard-00.jsonl")}
	err := f.Append([]byte("x\n"), false)
	if err == nil || !strings.Contains(err.Error(), "shard-00.jsonl") {
		t.Fatalf("append into a missing directory returned %v, want an error naming the file", err)
	}
}

func TestShardOf(t *testing.T) {
	// FNV-32a of "s-000001" is 0x300a1f82: existing journal and cache
	// directories place their keys by it.
	if got := ShardOf("s-000001", 1<<16); got != 0x1f82 {
		t.Errorf("ShardOf = %#x, want 0x1f82", got)
	}
	for _, key := range []string{"", "a", "s-000001", "a much longer key than the rest"} {
		if got := ShardOf(key, 16); got < 0 || got >= 16 {
			t.Errorf("ShardOf(%q, 16) = %d, out of range", key, got)
		}
	}
}
