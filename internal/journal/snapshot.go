package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
)

// This file is the snapshot payload format. A snapshot record's Request
// field carries a second CRC'd envelope — independent of the line-level
// envelope, because compaction copies snapshot records between files
// and a drain streams them between replicas, so the payload must stay
// verifiable on its own — wrapping a Snapshot object: what recovery
// needs to skip the surrogate fits below the watermark. The ops
// themselves stay in the chain, journaled once.

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

// snapEnvelope wraps the snapshot payload with its own checksum.
type snapEnvelope struct {
	CRC  uint32          `json:"crc"`
	Snap json.RawMessage `json:"snap"`
}

// Fingerprint hashes a create record's request bytes into the session
// config fingerprint snapshots carry.
func Fingerprint(request []byte) string {
	h := fnv.New64a()
	h.Write(request)
	return fmt.Sprintf("%016x", h.Sum64())
}

// EncodeSnapshot renders a snapshot as the CRC'd payload a snapshot
// record carries in its Request field.
func EncodeSnapshot(snap Snapshot) (json.RawMessage, error) {
	if err := validateSnapshot(snap); err != nil {
		return nil, fmt.Errorf("journal: encoding snapshot: %w", err)
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("journal: marshaling snapshot: %w", err)
	}
	env, err := json.Marshal(snapEnvelope{CRC: crc32.ChecksumIEEE(payload), Snap: payload})
	if err != nil {
		return nil, fmt.Errorf("journal: marshaling snapshot envelope: %w", err)
	}
	return env, nil
}

// DecodeSnapshot parses, checksum-verifies and invariant-checks a
// snapshot record's Request payload. Any failure means the snapshot is
// unusable and recovery falls back — to an older snapshot or a full
// replay — never to a guess.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var env snapEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Snapshot{}, fmt.Errorf("journal: undecodable snapshot envelope: %w", err)
	}
	if len(env.Snap) == 0 {
		return Snapshot{}, errors.New("journal: snapshot envelope has no payload")
	}
	if got := crc32.ChecksumIEEE(env.Snap); got != env.CRC {
		return Snapshot{}, fmt.Errorf("journal: snapshot crc mismatch: envelope says %d, payload hashes to %d", env.CRC, got)
	}
	var snap Snapshot
	if err := json.Unmarshal(env.Snap, &snap); err != nil {
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
