package journal

import (
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
