package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/shardlog"
)

// corpusLine renders one valid shard line for the seed corpus.
func corpusLine(rec Record) []byte {
	line, err := EncodeLine(rec)
	if err != nil {
		panic(err)
	}
	return line
}

// FuzzDecodeLine drives the checksummed line decoder with arbitrary
// bytes. Properties: it never panics, everything it accepts carries a
// session id and a non-negative seq, and an accepted record survives an
// encode/decode round trip.
func FuzzDecodeLine(f *testing.F) {
	f.Add(corpusLine(Record{Session: "s-000001", Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method":"random","seed":1}`)}))
	f.Add(corpusLine(Record{Session: "s-000001", Seq: 1, Kind: KindSuggest, Index: 4, Step: 0}))
	f.Add(corpusLine(Record{Session: "s-000001", Seq: 2, Kind: KindObserve, Index: 4, TimeSec: 120.5, CostUSD: 0.42, Metrics: []float64{1, 2, 3}}))
	f.Add(corpusLine(Record{Session: "s-000001", Seq: 3, Kind: KindObserveFailure, Index: 4, Reason: "spot reclaimed"}))
	f.Add(corpusLine(Record{Session: "s-000001", Seq: 4, Kind: KindEnd, Reason: "done"}))
	f.Add([]byte(`{"crc":123,"rec":{"sid":"s-000001","seq":0,"kind":"create"}}`)) // bad crc
	f.Add([]byte(`{"crc":0,"rec":null}`))
	f.Add([]byte(`{"rec":{"sid":"x","seq":-1,"kind":"end"}}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeLine(data)
		if err != nil {
			return
		}
		if rec.Session == "" || rec.Seq < 0 {
			t.Fatalf("accepted invalid record %+v from %q", rec, data)
		}
		line, err := EncodeLine(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if _, err := DecodeLine(bytes.TrimSuffix(line, []byte("\n"))); err != nil {
			t.Fatalf("re-encoded record does not re-decode: %v", err)
		}
	})
}

// corpusSnapshot renders one valid snapshot payload for the seed corpus.
func corpusSnapshot(snap Snapshot) []byte {
	payload, err := EncodeSnapshot(snap)
	if err != nil {
		panic(err)
	}
	return payload
}

// FuzzDecodeSnapshot drives the snapshot payload decoder with arbitrary
// bytes. Properties: it never panics, everything it accepts satisfies
// the snapshot invariants (fingerprint present, watermark at least 1),
// and an accepted snapshot survives an encode/decode round trip.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(corpusSnapshot(Snapshot{Fingerprint: "00d1b2c3d4e5f607", Watermark: 1}))
	f.Add(corpusSnapshot(Snapshot{
		Fingerprint: "00d1b2c3d4e5f607",
		Watermark:   4,
		Script:      json.RawMessage(`{"decisions":[{"step":1,"index":3,"score":0.5,"aux":1.2}]}`),
		Events:      json.RawMessage(`[{"kind":"search_start","candidate":-1,"value":18}]`),
	}))
	f.Add(corpusSnapshot(Snapshot{Fingerprint: "ffffffffffffffff", Watermark: 3}))
	f.Add([]byte(`{"crc":1,"snap":{"fp":"x","watermark":1}}`)) // bad crc
	f.Add([]byte(`{"crc":0,"snap":null}`))
	f.Add([]byte(`{"snap":{"fp":"","watermark":0}}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		if snap.Fingerprint == "" || snap.Watermark < 1 {
			t.Fatalf("accepted invalid snapshot %+v from %q", snap, data)
		}
		payload, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		again, err := DecodeSnapshot(payload)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not re-decode: %v", err)
		}
		if again.Fingerprint != snap.Fingerprint || again.Watermark != snap.Watermark {
			t.Fatalf("round trip drifted: %+v vs %+v", snap, again)
		}
	})
}

// FuzzScanShard feeds an arbitrary shard file through the recovery
// scan. Properties: Scan never panics or errors on content damage (only
// on I/O), every recovered session has a contiguous chain starting with
// a create record — a seq-transparent snapshot carrying the seq of the
// op after it — and a second scan of the (possibly tail-truncated) file
// is clean and finds the same sessions. The fuzzer cannot forge a line
// CRC, so snapshot lines come in only through the seeds, each of which
// also pins whether session a comes back live.
func FuzzScanShard(f *testing.F) {
	createA := Record{Session: "a", Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method":"random","seed":1}`)}
	var healthy bytes.Buffer
	for _, rec := range []Record{
		createA,
		{Session: "b", Seq: 0, Kind: KindCreate, Request: json.RawMessage(`{"method":"naive","seed":2}`)},
		{Session: "a", Seq: 1, Kind: KindSuggest, Index: 3, Step: 0},
		{Session: "b", Seq: 1, Kind: KindSuggest, Index: 5, Step: 0},
		{Session: "a", Seq: 2, Kind: KindObserve, Index: 3, TimeSec: 9, CostUSD: 1},
		{Session: "b", Seq: 2, Kind: KindObserveFailure, Index: 5, Reason: "boom"},
		{Session: "b", Seq: 3, Kind: KindEnd, Reason: "done"},
	} {
		healthy.Write(corpusLine(rec))
	}
	f.Add(healthy.Bytes())
	// Torn tail: the last line cut mid-record.
	f.Add(healthy.Bytes()[:healthy.Len()-25])
	// Bad CRC in the middle.
	f.Add(bytes.Replace(healthy.Bytes(), []byte(`"sid":"a","seq":1`), []byte(`"sid":"c","seq":1`), 1))
	f.Add([]byte("not json at all\n{\"crc\":1,\"rec\":{}}\n"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{})
	// Snapshot seeds: session a's next seq is 3.
	snap := corpusSnapshot(Snapshot{Fingerprint: Fingerprint(createA.Request), Watermark: 3})
	var env snapEnvelope
	if err := json.Unmarshal(snap, &env); err != nil {
		f.Fatal(err)
	}
	env.CRC++
	innerDamaged, err := json.Marshal(env)
	if err != nil {
		f.Fatal(err)
	}
	withSnapshot := func(seq int, payload json.RawMessage) string {
		return healthy.String() +
			string(corpusLine(Record{Session: "a", Seq: seq, Kind: KindSnapshot, Request: payload})) +
			string(corpusLine(Record{Session: "a", Seq: 3, Kind: KindSuggest, Index: 7, Step: 1}))
	}
	valid := withSnapshot(3, snap)
	offSeq := withSnapshot(5, snap)          // off the chain's next seq
	damaged := withSnapshot(3, innerDamaged) // the scan never reads the payload
	aLive := map[string]bool{valid: true, offSeq: false, damaged: true}
	for _, seed := range []string{valid, offSeq, damaged} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		// Construct the handle directly: the fuzz target exercises the
		// shard decoder and tail recovery, not the lease protocol, and
		// skipping Open's lease/meta writes keeps the loop fast.
		j := &Journal{
			dir: dir, shards: 1, replica: "fuzz",
			owned: map[int]Lease{0: {Epoch: 1}},
			files: make([]shardlog.File, 1),
			warnf: func(string, ...any) {},
			now:   time.Now,
		}
		if err := os.WriteFile(filepath.Join(dir, "journal-00.jsonl"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan, err := j.Scan()
		if err != nil {
			t.Fatalf("Scan errored on content damage: %v", err)
		}
		seen := make(map[string]bool)
		for _, sl := range scan.Live {
			if seen[sl.ID] {
				t.Fatalf("session %s recovered twice", sl.ID)
			}
			seen[sl.ID] = true
			if len(sl.Records) == 0 || sl.Records[0].Kind != KindCreate {
				t.Fatalf("session %s does not start with create: %+v", sl.ID, sl.Records)
			}
			next := 0 // the seq of the chain's next op
			for i, r := range sl.Records {
				if r.Seq != next {
					t.Fatalf("session %s chain not contiguous at %d: %+v", sl.ID, i, r)
				}
				if r.Kind == KindSnapshot {
					continue
				}
				next++
				if i > 0 && (r.Kind == KindEnd || r.Kind == KindAbort) && i != len(sl.Records)-1 {
					t.Fatalf("session %s live with interior terminal record", sl.ID)
				}
			}
		}
		if want, ok := aLive[string(data)]; ok && seen["a"] != want {
			t.Fatalf("session a live = %v, want %v (live %d, damage %v)", seen["a"], want, len(scan.Live), scan.Damage)
		}
		for _, id := range scan.Ended {
			if seen[id] {
				t.Fatalf("session %s both live and ended", id)
			}
		}
		// Rescan: the torn tail (if any) was truncated, so the second
		// pass is stable — same live sessions, no new truncation.
		scan2, err := j.Scan()
		if err != nil {
			t.Fatalf("rescan: %v", err)
		}
		if scan2.TruncatedTails != 0 {
			t.Fatalf("rescan truncated again (%d): truncation did not converge", scan2.TruncatedTails)
		}
		if len(scan2.Live) != len(scan.Live) || len(scan2.Ended) != len(scan.Ended) {
			t.Fatalf("rescan diverged: %d/%d live, %d/%d ended",
				len(scan.Live), len(scan2.Live), len(scan.Ended), len(scan2.Ended))
		}
	})
}
