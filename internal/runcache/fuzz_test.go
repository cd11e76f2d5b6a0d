package runcache

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/shardlog"
)

// seedLine renders one checksummed shard line for the seed corpus.
func seedLine(key Key, substrate, value string) []byte {
	line, err := shardlog.AppendLine(nil, record{Key: key, Substrate: substrate, Value: json.RawMessage(value)})
	if err != nil {
		panic(err)
	}
	return line
}

// FuzzLoadShard feeds arbitrary bytes to the JSONL shard loader.
// Properties: Open never panics and never fails on damaged content
// (damage costs recomputation, not startup), a valid entry appended
// after the noise always loads — last-line-wins makes it authoritative,
// so the loader may skip garbage but must never drop valid lines — and
// the load converges: a second Open changes no byte of the shard and
// loads the same value.
func FuzzLoadShard(f *testing.F) {
	f.Add([]byte(``))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`not json at all`))
	// Lines of the unchecksummed format the disk tier used to write.
	f.Add([]byte(`{"k":"other","s":"v1","v":2.5}`))
	f.Add([]byte(`{"k":"fuzz-key","s":"v1","v":99}`)) // same key: ours still wins
	f.Add([]byte(`{"k":"stale","s":"old-substrate","v":1}`))
	f.Add([]byte(`{"k":"","s":"v1","v":1}`))
	f.Add([]byte(`{"k":"truncated","s":"v1","v":`))
	f.Add([]byte(`{"k":"badval","s":"v1","v":"not a float"}`))
	// Checksummed lines.
	f.Add(seedLine("other", "v1", "2.5"))
	f.Add(seedLine("fuzz-key", "v1", "99"))
	f.Add(seedLine("stale", "old-substrate", "1"))
	f.Add(seedLine("", "v1", "1"))
	f.Add(seedLine("badval", "v1", `"not a float"`))
	f.Add(seedLine("truncated", "v1", "1.25")[:30])
	f.Add(bytes.Replace(seedLine("flipped", "v1", "1.25"), []byte("1.25"), []byte("1.75"), 1))
	f.Fuzz(func(t *testing.T, noise []byte) {
		const (
			substrate = "v1"
			key       = Key("fuzz-key")
			want      = 42.125
		)
		dir := t.TempDir()
		shard := filepath.Join(dir, "shard-"+twoDigit(shardOf(key))+".jsonl")
		content := append(append([]byte{}, noise...), '\n')
		content = append(content, seedLine(key, substrate, "42.125")...)
		if err := os.WriteFile(shard, content, 0o644); err != nil {
			t.Fatal(err)
		}

		var opened []byte // the shard as the first Open left it
		for pass := 0; pass < 2; pass++ {
			s, err := Open[float64](dir, substrate, WithWarnf(func(string, ...any) {}))
			if err != nil {
				t.Fatalf("Open failed on damaged shard content: %v", err)
			}
			got, err := s.Do(key, func() (float64, error) {
				t.Fatalf("open %d: valid trailing line was dropped; compute ran", pass+1)
				return 0, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("open %d: loaded %v, want %v", pass+1, got, want)
			}
			if st := s.Stats(); st.DiskHits != 1 {
				t.Fatalf("open %d: DiskHits = %d, want 1 (stats: %+v)", pass+1, st.DiskHits, st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(shard)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 1 && !bytes.Equal(data, opened) {
				t.Fatalf("second Open changed the shard:\n%q\nto\n%q", opened, data)
			}
			opened = data
		}
	})
}

func twoDigit(n int) string {
	return string([]byte{byte('0' + n/10), byte('0' + n%10)})
}
