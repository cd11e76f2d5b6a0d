package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"

	"repro/internal/shardlog"
)

// This file is a shard's compacted form and online compaction. The
// image of a shard is what survives once the dead weight is dropped:
// (a) ended and aborted session chains — replaced by a shard-level
// tombstone_index record so the sessions still answer 410 Gone,
// (b) chains broken by damage, (c) undecodable lines, and (d) every
// snapshot record of a live chain but its latest usable one. Every op
// of a live chain is kept: a snapshot carries no op history, so it only
// ever speeds recovery up, and a kept snapshot damaged later costs a
// full replay, not the session. The image is shard lines, re-encoded
// from records whose lines verified: compaction writes them into a
// fresh file swapped in by atomic rename, and a drain streams the same
// bytes to its successor, which reads them with ReadImage. Both read
// the shard under its append lock, so they are safe while the shard is
// being served.

// CompactOptions gates when a shard is actually rewritten.
type CompactOptions struct {
	// MinBytes skips shards smaller than this — rewriting a tiny file
	// buys nothing. Zero means no size floor.
	MinBytes int64
	// MinDeadRatio skips a rewrite that would shrink the shard by less
	// than this fraction (0.25 = at least a quarter smaller). Zero means
	// any shrink qualifies.
	MinDeadRatio float64
	// Force rewrites regardless of thresholds (and even with nothing to
	// drop) — the test hook and the operator's big hammer.
	Force bool
}

// CompactStats reports one shard's compaction outcome.
type CompactStats struct {
	Shard       int    `json:"shard"`
	Compacted   bool   `json:"compacted"`
	SkipReason  string `json:"skip_reason,omitempty"`
	BytesBefore int64  `json:"bytes_before"`
	BytesAfter  int64  `json:"bytes_after"`
	// LiveSessions counts the session chains kept.
	LiveSessions int `json:"live_sessions"`
	// DroppedEnded / DroppedDamaged count the chains dropped (and
	// tombstoned) because they ended or were broken.
	DroppedEnded   int `json:"dropped_ended"`
	DroppedDamaged int `json:"dropped_damaged"`
	// Tombstones is the size of the shard's merged tombstone index.
	Tombstones int `json:"tombstones"`
}

// Image reads one shard's compacted form under its file mutex: the
// lines Compact would write — the merged tombstone_index line, then
// each live chain with every op and its latest usable snapshot — and
// the damage the read found. It reads the shard whether or not this
// replica still holds it: a drain reads the shard after dropping the
// grant, so the image is final.
func (j *Journal) Image(shard int) (lines []byte, damage []string, err error) {
	if shard < 0 || shard >= j.shards {
		return nil, nil, fmt.Errorf("journal: reading shard %d of %d", shard, j.shards)
	}
	sf := &j.files[shard]
	sf.Lock()
	defer sf.Unlock()
	lines, damage, _, err = j.image(shard)
	return lines, damage, err
}

// image renders a shard's compacted lines; callers hold its file mutex.
// The stats carry the size and chain counts Compact reports.
func (j *Journal) image(shard int) (buf []byte, damage []string, stats CompactStats, err error) {
	stats = CompactStats{Shard: shard}
	path := j.shardPath(shard)
	info, err := os.Stat(path)
	if os.IsNotExist(err) {
		return nil, nil, stats, nil
	}
	if err != nil {
		return nil, nil, stats, fmt.Errorf("journal: reading %s: %w", path, err)
	}
	stats.BytesBefore = info.Size()
	scan, order, err := readShards(j.dir, []int{shard}, false, j.warnf)
	if err != nil {
		return nil, nil, stats, err
	}
	// Every chain that is not live ended or was damaged; both leave a
	// tombstone behind. No tombstoned id scans live.
	tombstoned := make(map[string]bool)
	for _, id := range slices.Concat(scan.Tombstones, order) {
		tombstoned[id] = true
	}
	for _, log := range scan.Live {
		delete(tombstoned, log.ID)
	}
	tombstones := make([]string, 0, len(tombstoned))
	for id := range tombstoned {
		tombstones = append(tombstones, id)
	}
	sort.Strings(tombstones)
	if len(tombstones) > 0 {
		if buf, err = shardlog.AppendLine(buf, Record{Kind: KindTombstoneIndex, Tombstones: tombstones}); err != nil {
			return nil, nil, stats, err
		}
	}
	for _, log := range scan.Live {
		_, latest := LatestSnapshot(log.Records)
		for i, r := range log.Records {
			if r.Kind == KindSnapshot && i != latest {
				continue
			}
			if buf, err = shardlog.AppendLine(buf, r); err != nil {
				return nil, nil, stats, err
			}
		}
	}
	stats.BytesAfter = int64(len(buf))
	stats.LiveSessions = len(scan.Live)
	// A chain the tombstone index names ended elsewhere: it is dropped as
	// ended, though the scan reports it under Tombstones alone.
	stats.DroppedEnded = len(scan.Ended)
	indexed := make(map[string]bool, len(scan.Tombstones))
	for _, id := range scan.Tombstones {
		indexed[id] = true
	}
	for _, id := range order {
		if indexed[id] {
			stats.DroppedEnded++
		}
	}
	stats.DroppedDamaged = len(order) - len(scan.Live) - stats.DroppedEnded
	stats.Tombstones = len(tombstones)
	return buf, scan.Damage, stats, nil
}

// Compact reads one owned shard's image and, when the thresholds say it
// is worth it, writes the image back in place of the shard. The rewrite
// is a temp-file write, fsync and atomic rename under the shard's
// append lock; a crash at any point leaves either the old or the new
// file, both valid.
func (j *Journal) Compact(shard int, opts CompactOptions) (CompactStats, error) {
	if shard < 0 || shard >= j.shards {
		return CompactStats{Shard: shard}, fmt.Errorf("journal: compacting shard %d of %d", shard, j.shards)
	}
	sf := &j.files[shard]
	sf.Lock()
	defer sf.Unlock()
	// Checked under the file mutex, as appends are: a dropped shard is
	// never rewritten.
	if !j.ownsShard(shard) {
		return CompactStats{Shard: shard}, fmt.Errorf("%w: shard %d", ErrNotOwned, shard)
	}
	buf, _, stats, err := j.image(shard)
	if err != nil {
		return stats, err
	}
	if stats.BytesBefore == 0 {
		stats.SkipReason = "empty"
		return stats, nil
	}
	if !opts.Force {
		if stats.BytesBefore < opts.MinBytes {
			stats.SkipReason = "below size floor"
			stats.BytesAfter = stats.BytesBefore
			return stats, nil
		}
		dead := 1 - float64(stats.BytesAfter)/float64(stats.BytesBefore)
		if dead < opts.MinDeadRatio || stats.BytesAfter >= stats.BytesBefore {
			stats.SkipReason = fmt.Sprintf("dead ratio %.3f below threshold", dead)
			stats.BytesAfter = stats.BytesBefore
			return stats, nil
		}
	}

	// Swap the rewrite in: temp file, fsync, rename, directory fsync.
	path := j.shardPath(shard)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return stats, fmt.Errorf("journal: creating %s: %w", tmp, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return stats, fmt.Errorf("journal: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return stats, fmt.Errorf("journal: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return stats, fmt.Errorf("journal: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return stats, fmt.Errorf("journal: swapping in %s: %w", tmp, err)
	}
	syncDir(filepath.Dir(path))
	// The cached append handle points at the replaced inode; drop it so
	// the next append lazily reopens the compacted file.
	sf.Close()
	stats.Compacted = true
	return stats, nil
}

// CompactOwned compacts every shard this replica holds, continuing past
// per-shard failures and joining them into the returned error.
func (j *Journal) CompactOwned(opts CompactOptions) ([]CompactStats, error) {
	var (
		out  []CompactStats
		errs []error
	)
	for _, shard := range j.Owned() {
		stats, err := j.Compact(shard, opts)
		if err != nil {
			j.warnf("compacting shard %d: %v", shard, err)
			errs = append(errs, err)
			continue
		}
		out = append(out, stats)
	}
	return out, errors.Join(errs...)
}

// syncDir fsyncs a directory so a rename survives power loss; failures
// are ignored (the rename itself already happened).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
