package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
)

// This file is the snapshot payload format: a snapshot record's
// Request field carries a Snapshot object, what recovery needs to skip
// the surrogate fits below the watermark. The ops themselves stay in
// the chain, journaled once. The record's line CRC is the payload's one
// checksum, on disk, through compaction and on a drain's stream alike.

// Snapshot is one live session's checkpoint: the session-config
// fingerprint, the watermark, the optimizer's resume script and the
// trace events recorded so far. It carries no op history: recovery
// replays the chain's own ops below the watermark against a resumed
// advisor (the script skips the surrogate fits), then continues with
// the ops after it. A snapshot only ever speeds recovery up; an
// unusable one costs a full replay, never the session.
type Snapshot struct {
	// Fingerprint identifies the session configuration (the create
	// record's request bytes, hashed); recovery refuses a snapshot whose
	// fingerprint does not match the chain's create record.
	Fingerprint string `json:"fp"`
	// Watermark is the session's next seq at capture time: the snapshot
	// covers the chain's ops below it, and the snapshot record itself is
	// journaled with Seq = Watermark.
	Watermark int `json:"watermark"`
	// Script is the optimizer's recorded decision log (an
	// arrow.ResumeScript), verbatim JSON. Advisory: a stale or damaged
	// script only costs recovery the surrogate-fit skip, never
	// correctness.
	Script json.RawMessage `json:"script,omitempty"`
	// Events is the session's wall-stripped telemetry trace up to the
	// watermark, verbatim JSON, so a snapshot-restored session serves
	// byte-identical traces.
	Events json.RawMessage `json:"events,omitempty"`
}

// Fingerprint hashes a create record's request bytes into the session
// config fingerprint snapshots carry.
func Fingerprint(request []byte) string {
	h := fnv.New64a()
	h.Write(request)
	return fmt.Sprintf("%016x", h.Sum64())
}

// EncodeSnapshot renders a snapshot as the payload a snapshot record
// carries in its Request field.
func EncodeSnapshot(snap Snapshot) (json.RawMessage, error) {
	if err := validateSnapshot(snap); err != nil {
		return nil, fmt.Errorf("journal: encoding snapshot: %w", err)
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("journal: marshaling snapshot: %w", err)
	}
	return payload, nil
}

// DecodeSnapshot parses and invariant-checks a snapshot record's
// Request payload. Any failure means the snapshot is unusable and
// recovery falls back — to an older snapshot or a full replay — never
// to a guess. An older release's {"crc":…,"snap":…} payload decodes to
// no fingerprint, so it is unusable too.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return Snapshot{}, fmt.Errorf("journal: undecodable snapshot: %w", err)
	}
	if err := validateSnapshot(snap); err != nil {
		return Snapshot{}, fmt.Errorf("journal: invalid snapshot: %w", err)
	}
	return snap, nil
}

// validateSnapshot checks the payload invariants shared by encode and
// decode: a fingerprint and a watermark past the create record.
func validateSnapshot(snap Snapshot) error {
	if snap.Fingerprint == "" {
		return errors.New("no config fingerprint")
	}
	if snap.Watermark < 1 {
		return fmt.Errorf("watermark %d below the create record", snap.Watermark)
	}
	return nil
}

// LatestSnapshot finds a validated chain's latest usable snapshot: the
// last snapshot record whose payload decodes, whose fingerprint matches
// the create record's request and whose watermark is its seq. at is the
// record's index in the chain; a chain with no usable snapshot yields
// nil and -1.
func LatestSnapshot(records []Record) (snap *Snapshot, at int) {
	if len(records) == 0 || records[0].Kind != KindCreate {
		return nil, -1
	}
	fp := Fingerprint(records[0].Request)
	for i := len(records) - 1; i > 0; i-- {
		r := records[i]
		if r.Kind != KindSnapshot {
			continue
		}
		s, err := DecodeSnapshot(r.Request)
		if err == nil && s.Fingerprint == fp && s.Watermark == r.Seq {
			return &s, i
		}
	}
	return nil, -1
}
