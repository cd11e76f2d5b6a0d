package journal

import (
	"fmt"
	"os"
	"testing"
)

// BenchmarkJournalAppend measures the journal's write path at each fsync
// policy: one op is one session's records sent through Append the way
// the serve layer batches them (create; the first suggestion; then each
// observation with the suggestion it unlocks, the last with the end
// record), so under fsync=always an op pays one fsync per Append.
func BenchmarkJournalAppend(b *testing.B) {
	const observes = 6 // the e2ebench serve-durable session length
	recs := sessionRecords("s-000001", observes, true)
	batches := [][]Record{recs[:1], recs[1:2]}
	for i := 2; i < len(recs); i += 2 {
		batches = append(batches, recs[i:i+2])
	}
	for _, policy := range []Sync{SyncNever, SyncAlways} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			j, err := Open(b.TempDir(), WithReplica("bench"), WithShards(1), WithSync(policy))
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			var size int64
			for _, batch := range batches {
				for _, r := range batch {
					line, err := EncodeLine(r)
					if err != nil {
						b.Fatal(err)
					}
					size += int64(len(line))
				}
			}
			b.SetBytes(size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					if err := j.Append(batch...); err != nil {
						b.Fatal(err)
					}
				}
				// Keep the shard small so a long run neither fills the
				// disk nor times a growing file; O_APPEND writes land at
				// the new end.
				if i%1024 == 1023 {
					b.StopTimer()
					if err := os.Truncate(j.shardPath(0), 0); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkJournalScanDir measures ScanDir over a whole journal
// directory, the scan-and-validate pass Recover and Image share: 4,000
// live sessions over 8 shards, each a create record and six
// suggest/observe rounds whose observations carry a 16-float metrics
// vector, with a snapshot journaled after the suggestion that follows
// the fourth observation (the serve layer's -snapshot-interval 4).
func BenchmarkJournalScanDir(b *testing.B) {
	const sessions, shards = 4000, 8
	dir := b.TempDir()
	j, err := Open(dir, WithReplica("bench"), WithShards(shards), WithSync(SyncNever))
	if err != nil {
		b.Fatal(err)
	}
	for s := 0; s < sessions; s++ {
		recs := sessionRecords(fmt.Sprintf("s-%06d", s+1), 6, false)
		for i := range recs {
			if recs[i].Kind != KindObserve {
				continue
			}
			recs[i].Metrics = make([]float64, 16)
			for m := range recs[i].Metrics {
				recs[i].Metrics[m] = float64((s+i*31+m*17)%1000) / 997
			}
		}
		const watermark = 10 // create, 4 rounds and the next suggestion
		recs = append(recs[:watermark], append([]Record{snapshotFor(b, recs[:watermark])}, recs[watermark:]...)...)
		if err := j.Append(recs...); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	all := make([]int, shards)
	for i := range all {
		all[i] = i
	}
	warnf := func(format string, args ...any) { b.Fatalf(format, args...) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec, err := ScanDir(dir, all, warnf)
		if err != nil {
			b.Fatal(err)
		}
		if len(rec.Live) != sessions || len(rec.Damage) != 0 {
			b.Fatalf("scanned %d live sessions and damage %v, want %d clean", len(rec.Live), rec.Damage, sessions)
		}
	}
}
