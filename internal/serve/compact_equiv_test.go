package serve

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	arrow "repro"
	"repro/internal/journal"
)

// copyJournalDir duplicates a journal directory's durable state — shard
// files and the shard-count meta — into a fresh directory. Leases are
// per-process liveness, not state, so they are not copied.
func copyJournalDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".jsonl") && name != "journal.meta" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// corruptChainLine breaks one session's create line in place: a byte
// flip inside the checksummed record bytes, so the line-level CRC fails
// and the whole chain drops as mid-file damage. The create line is
// never the shard file's final line for a session with measurements, so
// the damage cannot be mistaken for a torn tail.
func corruptChainLine(t *testing.T, dir string, shards int, id string) {
	t.Helper()
	shard := filepath.Join(dir, shardName(journal.ShardOf(id, shards)))
	data, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(data, []byte("\n"))
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		rec, err := journal.DecodeLine(line)
		if err != nil {
			t.Fatalf("shard line undecodable before corruption: %v", err)
		}
		if rec.Session == id && rec.Kind == journal.KindCreate {
			idx := bytes.Index(line, []byte(`"create"`))
			if idx < 0 {
				t.Fatal("create kind not found on its own line")
			}
			line[idx+1] ^= 0x20
			if err := os.WriteFile(shard, bytes.Join(lines, []byte("\n")), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no create line found for session %s", id)
}

// TestCompactRecoverEquivalence is the compaction property test:
// recover(compact(journal)) must be indistinguishable from
// recover(journal) for seeded random interleavings of live, ended and
// mid-file-damaged session chains — same live sessions continuing with
// the same suggestions to byte-identical results, same 410s for the
// ended and aborted, damage reported without collateral loss.
func TestCompactRecoverEquivalence(t *testing.T) {
	target, err := arrow.NewSimulatedTarget("als/spark2.1/medium", 1)
	if err != nil {
		t.Fatal(err)
	}
	methods := []string{"naive-bo", "augmented-bo", "hybrid-bo", "random-search"}
	for _, seed := range []int64{1, 17, 5309} {
		t.Run("", func(t *testing.T) {
			rnd := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			_, c1, j1 := snapshotServer(t, dir, "prop", 2)

			var live, gone []string
			for i := 0; i < 6; i++ {
				m := methods[rnd.Intn(len(methods))]
				req := SessionRequest{
					Method:          m,
					Seed:            int64(rnd.Intn(1000)),
					Trace:           rnd.Intn(2) == 0,
					MaxMeasurements: 10,
				}
				switch m {
				case "augmented-bo", "hybrid-bo":
					req.DeltaThreshold = -1 // keep mid-flight sessions alive
				case "naive-bo":
					req.EIStopFraction = 1e-9
				}
				info := c1.create(req)
				stepSession(t, c1, info.ID, target, 1+rnd.Intn(4))
				switch rnd.Intn(3) {
				case 0:
					live = append(live, info.ID)
				case 1:
					if st := c1.do("DELETE", "/v1/sessions/"+info.ID, nil, nil); st != http.StatusOK {
						t.Fatalf("abort: status %d", st)
					}
					gone = append(gone, info.ID)
				case 2:
					c1.run(info.ID, target)
					gone = append(gone, info.ID)
				}
			}
			// Half the seeds also damage one chain mid-file — a byte flip
			// in a random session's create line — so the interleaving mixes
			// live, ended AND damaged chains. The flip lands before the
			// copy, so both recoveries face identical bytes.
			var damagedID string
			if len(live) > 0 && rnd.Intn(2) == 0 {
				k := rnd.Intn(len(live))
				damagedID = live[k]
				live = append(live[:k], live[k+1:]...)
				corruptChainLine(t, dir, j1.Shards(), damagedID)
			}

			// Abandon the writer (kill -9 semantics) and freeze its bytes.
			j1.Close()
			compactDir := copyJournalDir(t, dir)

			jc, err := journal.Open(compactDir, journal.WithReplica("prop"))
			if err != nil {
				t.Fatal(err)
			}
			stats, err := jc.CompactOwned(journal.CompactOptions{Force: true})
			if err != nil {
				t.Fatal(err)
			}
			rewrote, dropped := 0, 0
			for _, st := range stats {
				if st.Compacted {
					rewrote++
				}
				dropped += st.DroppedEnded + st.DroppedDamaged
			}
			if rewrote == 0 {
				t.Fatal("forced compaction rewrote no shards")
			}
			if len(gone) > 0 && dropped == 0 {
				t.Fatalf("%d sessions ended but compaction dropped no chains", len(gone))
			}
			if err := jc.Close(); err != nil {
				t.Fatal(err)
			}

			sA, cA, _ := snapshotServer(t, dir, "prop", 2)
			repA, err := sA.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			sB, cB, _ := snapshotServer(t, compactDir, "prop", 2)
			repB, err := sB.Recover(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if damagedID == "" {
				if len(repA.Damaged) != 0 || len(repB.Damaged) != 0 {
					t.Fatalf("clean journals reported damage:\n plain %v\n compacted %v", repA.Damaged, repB.Damaged)
				}
			} else if len(repA.Damaged) == 0 {
				t.Fatalf("plain recovery missed the damaged chain %s", damagedID)
			}
			if repA.Recovered != len(live) || repB.Recovered != len(live) {
				t.Fatalf("want %d live sessions on both sides, got %d plain / %d compacted",
					len(live), repA.Recovered, repB.Recovered)
			}
			if repA.Observations != repB.Observations {
				t.Fatalf("replayed %d observations plain, %d compacted", repA.Observations, repB.Observations)
			}
			// Ended sessions survive compaction as tombstone-index entries,
			// and a damaged chain is dropped into the index too.
			wantGone := len(gone)
			if damagedID != "" {
				wantGone++
			}
			if got := repB.Ended + repB.Tombstones; got != wantGone {
				t.Fatalf("compacted recovery tombstoned %d sessions, want %d", got, wantGone)
			}

			for _, id := range gone {
				for name, c := range map[string]*client{"plain": cA, "compacted": cB} {
					if st := c.do("GET", "/v1/sessions/"+id+"/result", nil, nil); st != http.StatusGone {
						t.Fatalf("%s: ended session %s answered %d, want 410", name, id, st)
					}
				}
			}
			if damagedID != "" {
				// The damaged chain serves no state on either side: the
				// plain scan dropped it (404), compaction tombstoned the
				// dropped chain (410). Unusable either way — never a
				// half-replayed session.
				if st := cA.do("GET", "/v1/sessions/"+damagedID+"/result", nil, nil); st != http.StatusNotFound {
					t.Fatalf("plain: damaged session %s answered %d, want 404", damagedID, st)
				}
				if st := cB.do("GET", "/v1/sessions/"+damagedID+"/result", nil, nil); st != http.StatusGone {
					t.Fatalf("compacted: damaged session %s answered %d, want 410", damagedID, st)
				}
			}
			for _, id := range live {
				sugA, sugB := cA.next(id), cB.next(id)
				if sugA.Index != sugB.Index || sugA.Step != sugB.Step {
					t.Fatalf("session %s: next suggestion diverged: plain %d@%d, compacted %d@%d",
						id, sugA.Index, sugA.Step, sugB.Index, sugB.Step)
				}
				resA := mustJSON(t, cA.run(id, target))
				resB := mustJSON(t, cB.run(id, target))
				if !bytes.Equal(resA, resB) {
					t.Errorf("session %s: results diverged after compaction:\n plain %s\n compacted %s", id, resA, resB)
				}
			}
		})
	}
}
